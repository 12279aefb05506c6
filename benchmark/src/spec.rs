//! The benchmark's fixed vocabulary: workloads, end-to-end metrics with
//! their regression bounds, per-layer metrics with the end-to-end number
//! each should move. `BENCHMARK.json` at the repo root repeats the names,
//! units, directions and bounds; `tests/report.rs` keeps the two in step.

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "serve_open_mixed",
        why: "Open loop at 10 000 ops/s (~11 % of saturation): sparse arrivals hit idle shards, so socket -> poll -> route -> wake dominates and KV work is negligible.",
    },
    Workload {
        name: "serve_closed_mixed",
        why: "Closed loop, 2 connections x pipeline 32: saturation, where codec, routing lanes, group commit and SharedPool staging do the work.",
    },
    Workload {
        name: "embed_read",
        why: "In-process zipfian GETs through kv -> ds -> uptr -> heap with no socket, transaction or flush plane: the bypass workload for every serve, txn and persistence change.",
    },
    Workload {
        name: "embed_txn_write",
        why: "The same in-process layers under mix-A with every write in an undo-log transaction on an ADR pool: log, fence and flush staging, pmalloc/pfree.",
    },
    Workload {
        name: "conc_hash_mixed",
        why: "Two threads on the lock-free hash under FliT: the only traffic through ds::concurrent and SharedPool's pool-global flush and fault mutexes.",
    },
    Workload {
        name: "sim_paper",
        why: "The paper's own experiment (10 000 records, 95/5 latest) on the RB tree in all four modes with the Machine sink: simulator host speed over a bit-stable modelled result.",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    pub what: &'static str,
}

/// Every workload reports every one of these, untraced. A host-time value
/// is folded over the run's windows as `estimator::Fold` says: the value
/// one window in fifty beats, or (`conc_hash_mixed`) the window median.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        what: "operations completed per second of host time (sim_paper: simulated KV ops per host second; open loop: the achieved rate of the median window)",
    },
    EndToEnd {
        name: "p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        what: "median per-operation latency of a window (open loop: from due time; closed loop: from send; in-process: call to return)",
    },
    EndToEnd {
        name: "p99_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        what: "99th-percentile per-operation latency of a window; at least 12 samples lie beyond it in every window",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.15,
        what: "VmHWM of the workload's process after one set-up, the measured phase and the correctness gates",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "build + preload time before the first measured op, median of three to seven set-ups in the run",
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// A modelled count that repeats bit-for-bit at a fixed seed.
    pub exact: bool,
    /// The workload whose traced run measures it (0 everywhere else).
    pub on: &'static str,
    /// The end-to-end number it should move.
    pub moves: &'static str,
}

const fn host(
    name: &'static str,
    unit: &'static str,
    on: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        exact: false,
        on,
        moves,
    }
}

const fn up(
    name: &'static str,
    unit: &'static str,
    on: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
        exact: false,
        on,
        moves,
    }
}

const fn exact(
    name: &'static str,
    unit: &'static str,
    on: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        exact: true,
        on,
        moves,
    }
}

const EMBED: &str = "embed_read, embed_txn_write";
const WRITE: &str = "embed_txn_write";
const SIM: &str = "sim_paper";
const OPEN: &str = "serve_open_mixed";
const CLOSED: &str = "serve_closed_mixed";
const SERVE: &str = "serve_open_mixed, serve_closed_mixed";
const CONC: &str = "conc_hash_mixed";

/// Every traced run reports every one of these; a layer the workload does
/// not enter reports 0.
pub const PER_LAYER: [PerLayer; 64] = [
    // The ladder, over the embed workload's own op stream.
    host(
        "heap.pagestore.ns_per_access",
        "ns",
        EMBED,
        "embed_*.ops_per_s",
    ),
    host("heap.space.ns_per_access", "ns", EMBED, "embed_*.ops_per_s"),
    host(
        "heap.space.self_ns_per_access",
        "ns",
        EMBED,
        "embed_*.ops_per_s",
    ),
    host("uptr.env.ns_per_ptr_op", "ns", EMBED, "embed_*.ops_per_s"),
    host(
        "uptr.env.self_ns_per_ptr_op",
        "ns",
        EMBED,
        "embed_*.ops_per_s",
    ),
    exact(
        "uptr.env.ptr_ops_per_kv_op",
        "count",
        EMBED,
        "embed_*.ops_per_s",
    ),
    host("ds.rb.ns_per_op", "ns", EMBED, "embed_*.ops_per_s"),
    host("ds.rb.self_ns_per_op", "ns", EMBED, "embed_*.ops_per_s"),
    host("kv.store.ns_per_op", "ns", EMBED, "embed_*.ops_per_s"),
    host("kv.store.self_ns_per_op", "ns", EMBED, "embed_*.ops_per_s"),
    host(
        "heap.txn.ns_per_write_txn",
        "ns",
        WRITE,
        "embed_txn_write.ops_per_s",
    ),
    exact(
        "heap.txn.fences_per_write",
        "count",
        WRITE,
        "embed_txn_write.ops_per_s",
    ),
    exact(
        "heap.txn.lines_flushed_per_write",
        "count",
        WRITE,
        "embed_txn_write.ops_per_s",
    ),
    host(
        "heap.alloc.ns_per_alloc_free",
        "ns",
        WRITE,
        "embed_txn_write.ops_per_s, serve_closed_mixed.ops_per_s",
    ),
    host(
        "heap.space.resident_bytes_per_record",
        "B",
        EMBED,
        "embed_*.peak_rss_mb",
    ),
    // The simulator.
    host(
        "sim.machine.host_ns_per_kv_op",
        "ns",
        SIM,
        "sim_paper.ops_per_s",
    ),
    exact(
        "sim.cycles_per_op.volatile",
        "cycles",
        SIM,
        "sim.model_overhead_*",
    ),
    exact(
        "sim.cycles_per_op.explicit",
        "cycles",
        SIM,
        "sim.model_overhead_*",
    ),
    exact(
        "sim.cycles_per_op.sw",
        "cycles",
        SIM,
        "sim.model_overhead_sw",
    ),
    exact(
        "sim.cycles_per_op.hw",
        "cycles",
        SIM,
        "sim.model_overhead_hw",
    ),
    exact(
        "sim.model_overhead_hw",
        "ratio",
        SIM,
        "the paper's Fig. 11 result (Hw / Volatile cycles)",
    ),
    exact(
        "sim.model_overhead_sw",
        "ratio",
        SIM,
        "the paper's Fig. 11 result (Sw / Volatile cycles)",
    ),
    exact("sim.l1_miss_per_op", "count", SIM, "sim.cycles_per_op.*"),
    exact("sim.polb_miss_per_op", "count", SIM, "sim.cycles_per_op.hw"),
    exact("sim.valb_miss_per_op", "count", SIM, "sim.cycles_per_op.hw"),
    exact(
        "uptr.env.dynamic_checks_per_op.sw",
        "count",
        SIM,
        "sim.cycles_per_op.sw",
    ),
    // The server, probed from a socket.
    host(
        "serve.proto.ns_per_frame",
        "ns",
        SERVE,
        "serve_closed_mixed.ops_per_s",
    ),
    host(
        "serve.server.ping_rtt_p50_us",
        "us",
        OPEN,
        "serve_open_mixed.p50_us",
    ),
    host(
        "serve.server.get_rtt_p50_us",
        "us",
        OPEN,
        "serve_open_mixed.p50_us",
    ),
    host(
        "serve.server.put_rtt_p50_us",
        "us",
        OPEN,
        "serve_open_mixed.p50_us",
    ),
    host(
        "serve.server.ping_rtt_share_of_p50",
        "ratio",
        OPEN,
        "serve_open_mixed.p50_us",
    ),
    host("serve.server.get_p50_us", "us", SERVE, "serve_*.p50_us"),
    host("serve.server.put_p50_us", "us", SERVE, "serve_*.p50_us"),
    up(
        "serve.server.ops_per_write_txn",
        "count",
        SERVE,
        "serve_closed_mixed.ops_per_s",
    ),
    up(
        "serve.server.fences_elided_per_write",
        "count",
        SERVE,
        "serve_closed_mixed.ops_per_s",
    ),
    up(
        "serve.server.gets_per_read_chunk",
        "count",
        SERVE,
        "serve_closed_mixed.ops_per_s",
    ),
    host(
        "serve.server.fences_per_write",
        "count",
        SERVE,
        "serve_closed_mixed.ops_per_s",
    ),
    host(
        "serve.server.idle_cpu_ratio",
        "ratio",
        OPEN,
        "serve_open_mixed.p50_us",
    ),
    host(
        "serve.server.p99_us.r10k",
        "us",
        OPEN,
        "serve_open_mixed.p99_us",
    ),
    host(
        "serve.server.p99_us.r20k",
        "us",
        OPEN,
        "serve_open_mixed.p99_us",
    ),
    host(
        "serve.server.p99_us.r40k",
        "us",
        OPEN,
        "serve_open_mixed.p99_us",
    ),
    up(
        "serve.server.max_rate_ok",
        "1/s",
        OPEN,
        "serve_open_mixed.p99_us",
    ),
    host(
        "serve.server.slo_miss_ratio",
        "ratio",
        SERVE,
        "serve_*.p99_us",
    ),
    up(
        "serve.durability_ok",
        "bool",
        CLOSED,
        "nothing: a violated oracle invalidates the run",
    ),
    // The generator checks itself.
    host(
        "load.sched_lag_p99_us",
        "us",
        OPEN,
        "nothing: above 500 us the window is discarded",
    ),
    host(
        "load.gen_ns_per_op",
        "ns",
        SERVE,
        "nothing: bounds the closed-loop ceiling the generator can drive",
    ),
    host(
        "load.max_backlog",
        "count",
        SERVE,
        "nothing: a growing backlog fails a rate step",
    ),
    // The concurrent index and the shared pool under it.
    host(
        "ds.conc.flushes_per_op",
        "count",
        CONC,
        "conc_hash_mixed.ops_per_s",
    ),
    host(
        "ds.conc.fences_per_op",
        "count",
        CONC,
        "conc_hash_mixed.ops_per_s",
    ),
    up(
        "ds.conc.elided_per_op",
        "count",
        CONC,
        "conc_hash_mixed.ops_per_s",
    ),
    up(
        "ds.conc.ops_per_s.t1",
        "1/s",
        CONC,
        "conc_hash_mixed.ops_per_s",
    ),
    up(
        "ds.conc.scaling_t2",
        "ratio",
        CONC,
        "conc_hash_mixed.ops_per_s",
    ),
    up(
        "ds.conc.ops_per_s.eager",
        "1/s",
        CONC,
        "conc_hash_mixed.ops_per_s",
    ),
    up(
        "ds.conc.ops_per_s.traverse",
        "1/s",
        CONC,
        "conc_hash_mixed.ops_per_s",
    ),
    host(
        "heap.shard.raw_ns_per_write",
        "ns",
        CONC,
        "conc_hash_mixed.ops_per_s",
    ),
    host(
        "heap.shard.stage_ns_per_write",
        "ns",
        CONC,
        "conc_hash_mixed.ops_per_s, serve_closed_mixed.ops_per_s",
    ),
    host(
        "heap.shard.stage_ns_per_write.t2",
        "ns",
        CONC,
        "conc_hash_mixed.ops_per_s",
    ),
    host("heap.shard.cas_ns", "ns", CONC, "conc_hash_mixed.ops_per_s"),
    host(
        "heap.shard.drain_ns_per_line",
        "ns",
        CONC,
        "conc_hash_mixed.ops_per_s",
    ),
    // Every workload.
    up(
        "trace.overhead_ratio",
        "ratio",
        "all",
        "nothing: traced / untraced ops_per_s of the same run",
    ),
    host(
        "run.fail_ratio",
        "ratio",
        "all",
        "nothing: failed / attempted; above 0 the run is incorrect",
    ),
    up(
        "run.windows",
        "count",
        "all",
        "nothing: measured windows behind every folded value",
    ),
    up(
        "run.samples_per_window",
        "count",
        "all",
        "nothing: latency samples behind every percentile",
    ),
    up(
        "host.nproc",
        "count",
        "all",
        "nothing: hardware threads this run had",
    ),
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// How long one run measures, seconds (`--seconds` defaults to it).
pub const RUN_SECONDS: u32 = 12;

/// `BENCHMARK.json`, exactly as the repo root holds it.
pub fn benchmark_json() -> String {
    use std::fmt::Write;
    let q = |s: &str| format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""));
    let mut out = String::from("{\n");
    out.push_str(concat!(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", ",
        "\"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
        "  \"paths\": [\"benchmark\"],\n"
    ));
    writeln!(out, "  \"run_seconds\": {RUN_SECONDS},").unwrap();
    let rows = |out: &mut String, key: &str, rows: Vec<String>| {
        writeln!(
            out,
            "  \"{key}\": [\n    {}\n  ]{}",
            rows.join(",\n    "),
            if key == "per_layer" { "" } else { "," }
        )
        .unwrap();
    };
    rows(
        &mut out,
        "workloads",
        WORKLOADS
            .iter()
            .map(|w| format!("{{\"name\": {}, \"why\": {}}}", q(w.name), q(w.why)))
            .collect(),
    );
    rows(
        &mut out,
        "end_to_end",
        END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "{{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                    q(m.name),
                    q(m.unit),
                    q(m.better.label()),
                    m.bound
                )
            })
            .collect(),
    );
    rows(
        &mut out,
        "per_layer",
        PER_LAYER
            .iter()
            .map(|m| {
                format!(
                    "{{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                    q(m.name),
                    q(m.unit),
                    q(m.better.label())
                )
            })
            .collect(),
    );
    out.push('}');
    out
}
