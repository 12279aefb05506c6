//! Server bench tier: the networked KV front under closed-loop and
//! open-loop zipfian load, sweeping the group-commit `batch_window` to
//! measure fence amortization end to end — sockets, shard routing, undo
//! transactions, one persist barrier per batch.
//!
//! Emits `BENCH_server.json`:
//! - one record per (mode, window) cell with throughput (ops/s),
//!   nearest-rank p50/p99/p999 latency, `fences/op`, `flushes/op`,
//!   `ops`, and the contents checksum — a pure function of the load
//!   spec (disjoint per-vuser insert keys, derived values), so it is
//!   bit-identical across windows and modes and diffable as a baseline;
//! - one `serve_kill` record for the kill-the-server-mid-load arm
//!   (crash boundary, acked/unacked PUTs, oracle verdicts) — this row
//!   deliberately carries no `ops`/`cycles`/`checksum` so baseline
//!   diffing skips it (crash timing is seeded but boundary counts move
//!   with code changes);
//! - one `serve_ping_rtt` record: 2 000 sequential PINGs on one blocking
//!   connection, timed here with exact percentiles — no KV work, so the
//!   figure is socket → poll → wake → socket and nothing else. It carries
//!   no `ops` either (host time is never baselined); `verify.sh --serve`
//!   fails if its p50 reaches one 200 µs sleep quantum, which any sleep
//!   reintroduced on the request path must cost;
//! - extras `fence_amortization` (fences/op at window 1 ÷ window 8 —
//!   the tentpole gate wants ≥ 2.0), `checksum_ok`, and
//!   `kill_oracles_ok`. Exits nonzero when a gate fails.

use std::time::Instant;

use utpr_bench::par;
use utpr_bench::report::{BenchReport, Json};
use utpr_heap::FlushModel;
use utpr_kv::workload::key_of_index;
use utpr_qc::bench::nearest_rank;
use utpr_serve::{
    expected_put_keys, kill_arm, preload, run_load, Client, DirectView, KillSpec, LoadMode,
    LoadSpec, Request, Response, ServeConfig, Server,
};

const SEED: u64 = 0x5EED_C0DE;
const WINDOWS: [usize; 3] = [1, 8, 32];

struct Cell {
    name: String,
    window: usize,
    throughput: f64,
    p50_us: f64,
    p99_us: f64,
    p999_us: f64,
    fences_per_op: f64,
    flushes_per_op: f64,
    ops: u64,
    checksum: u64,
}

fn cfg(window: usize) -> ServeConfig {
    ServeConfig {
        shards: 4,
        batch_window: window,
        pool_bytes: 64 << 20,
        slab_bytes: 1 << 20,
        flush_model: FlushModel::Eadr,
        seed: SEED,
    }
}

fn main() {
    let t0 = Instant::now();
    let (operations, connections) = match std::env::var("UTPR_BENCH_SCALE").as_deref() {
        Ok("small") => (4_000u64, 16u32),
        Ok("medium") => (10_000, 24),
        _ => (24_000, 32),
    };
    let records = (operations / 8).max(256);
    let base = LoadSpec {
        connections,
        threads: 2,
        records,
        operations,
        read_fraction: 0.5,
        mode: LoadMode::Closed { pipeline: 16 },
        seed: SEED,
        track_acks: false,
    };
    eprintln!(
        "server: closed w{{1,8,32}} + open, {operations} ops x {connections} vusers, \
         {records} records ..."
    );

    let mut cells: Vec<Cell> = Vec::new();
    for &window in &WINDOWS {
        let name = format!("serve_closed_w{window}");
        let cell = run_and_audit(&name, window, &base);
        eprintln!(
            "  {name}: {:.0} ops/s, p99 {:.0}us, {:.3} fences/op",
            cell.throughput, cell.p99_us, cell.fences_per_op
        );
        cells.push(cell);
    }

    // Open loop at ~60% of the batched closed-loop rate: pacing changes,
    // contents must not.
    let rate = (cells[1].throughput * 0.6).max(500.0);
    let open = LoadSpec { mode: LoadMode::Open { ops_per_sec: rate }, ..base };
    let cell = run_and_audit("serve_open_w8", 8, &open);
    eprintln!(
        "  serve_open_w8: {:.0} ops/s offered {rate:.0}, p99 {:.0}us, {:.3} fences/op",
        cell.throughput, cell.p99_us, cell.fences_per_op
    );
    cells.push(cell);

    let (ping_p50_us, ping_p99_us) = ping_rtt();
    eprintln!("  serve_ping_rtt: p50 {ping_p50_us:.1}us, p99 {ping_p99_us:.1}us");

    // Gate 1: fence amortization — window 8 must at least halve fences
    // per write against the unbatched server.
    let unbatched = cells[0].fences_per_op;
    let batched = cells[1].fences_per_op;
    let amortization = if batched > 0.0 { unbatched / batched } else { f64::INFINITY };
    let amortization_ok = amortization >= 2.0;

    // Gate 2: contents are window- and mode-invariant.
    let reference = cells[0].checksum;
    let checksum_ok = cells.iter().all(|c| c.checksum == reference);

    // Gate 3: the kill arm recovers with zero oracle failures.
    let kill = kill_arm(&KillSpec {
        cfg: cfg(16),
        load: LoadSpec {
            operations: (operations / 4).max(1_000),
            track_acks: true,
            ..base
        },
        crash_window: 0.5,
        seed: SEED,
    })
    .expect("kill arm harness");
    for f in &kill.oracle_failures {
        eprintln!("server: kill-arm oracle failure: {f}");
    }
    let kill_ok = kill.crashed && kill.oracle_failures.is_empty() && kill.revived;
    eprintln!(
        "  serve_kill: boundary {}, {} acked / {} unacked, crashed={}, revived={}, oracles {}",
        kill.boundary,
        kill.acked,
        kill.unacked,
        kill.crashed,
        kill.revived,
        if kill.oracle_failures.is_empty() { "clean" } else { "VIOLATED" },
    );

    println!("\n=== Group-commit server: fences/op by batch window ===");
    for c in &cells {
        println!(
            "{}: {:.0} ops/s, p50 {:.0}us p99 {:.0}us p999 {:.0}us, {:.3} fences/op",
            c.name, c.throughput, c.p50_us, c.p99_us, c.p999_us, c.fences_per_op
        );
    }
    println!("serve_ping_rtt: p50 {ping_p50_us:.1}us p99 {ping_p99_us:.1}us");
    println!(
        "amortization w1/w8: {amortization:.1}x ({}), checksums {}, kill arm {}",
        if amortization_ok { "gate >= 2.0 holds" } else { "GATE FAILED" },
        if checksum_ok { "invariant" } else { "DIVERGED" },
        if kill_ok { "recovered clean" } else { "ORACLE FAILURES" },
    );

    let mut rep = BenchReport::new("server", par::jobs(), t0.elapsed());
    rep.set_extra("fence_amortization", Json::F64(amortization));
    rep.set_extra("checksum_ok", Json::Bool(checksum_ok));
    rep.set_extra("kill_oracles_ok", Json::Bool(kill_ok));
    for c in &cells {
        rep.push_record(Json::obj(vec![
            ("name", Json::Str(c.name.clone())),
            ("window", Json::U64(c.window as u64)),
            ("throughput_ops", Json::F64(c.throughput)),
            ("p50_us", Json::F64(c.p50_us)),
            ("p99_us", Json::F64(c.p99_us)),
            ("p999_us", Json::F64(c.p999_us)),
            ("fences_per_op", Json::F64(c.fences_per_op)),
            ("flushes_per_op", Json::F64(c.flushes_per_op)),
            ("ops", Json::U64(c.ops)),
            ("checksum", Json::U64(c.checksum)),
        ]));
    }
    rep.push_record(Json::obj(vec![
        ("name", Json::Str("serve_ping_rtt".into())),
        ("pings", Json::U64(PINGS as u64)),
        ("p50_us", Json::F64(ping_p50_us)),
        ("p99_us", Json::F64(ping_p99_us)),
    ]));
    rep.push_record(Json::obj(vec![
        ("name", Json::Str("serve_kill".into())),
        ("boundary", Json::U64(kill.boundary)),
        ("acked_puts", Json::U64(kill.acked)),
        ("unacked_puts", Json::U64(kill.unacked)),
        ("crashed", Json::Bool(kill.crashed)),
        ("revived", Json::Bool(kill.revived)),
        ("oracle_failures", Json::U64(kill.oracle_failures.len() as u64)),
    ]));
    rep.write();

    if !(amortization_ok && checksum_ok && kill_ok) {
        eprintln!("server: gate failure (see above)");
        std::process::exit(1);
    }
}

const PINGS: usize = 2_000;

/// Round trip of a request that does no KV work: `(p50, p99)` in µs over
/// [`PINGS`] sequential PINGs on one blocking connection.
fn ping_rtt() -> (f64, f64) {
    let handle = Server::launch(&cfg(8)).expect("launch");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let mut us: Vec<f64> = (0..PINGS)
        .map(|_| {
            let t = Instant::now();
            assert_eq!(client.call(&Request::Ping).expect("ping"), Response::Pong);
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    handle.shutdown();
    us.sort_by(f64::total_cmp);
    (nearest_rank(&us, 0.50), nearest_rank(&us, 0.99))
}

/// Runs a cell and audits final contents directly against the pool,
/// folding the deterministic checksum over preload ∪ expected inserts.
fn run_and_audit(name: &str, window: usize, spec: &LoadSpec) -> Cell {
    let cfg = cfg(window);
    let handle = Server::launch(&cfg).expect("launch");
    preload(handle.addr(), spec.records).expect("preload");
    let before = handle.counters();
    let report = run_load(handle.addr(), spec).expect("load");
    let after = handle.counters();
    let pool = handle.pool().clone();
    let (_, crashed) = handle.shutdown();
    assert!(!crashed, "{name}: server crashed without a fault plan");
    assert_eq!(report.dead_conns, 0, "{name}: connections died");
    assert_eq!(report.ops_acked, spec.operations, "{name}: lost acks");

    let writes = (after.writes() - before.writes()).max(1);
    let fences = after.pool_fences - before.pool_fences;
    let flushes = after.pool_lines_drained - before.pool_lines_drained;

    let mut view = DirectView::open(&pool, cfg.shards).expect("audit view");
    let keys = (0..spec.records)
        .map(key_of_index)
        .chain(expected_put_keys(spec));
    let checksum = view.checksum(keys).expect("audit checksum");

    Cell {
        name: name.to_string(),
        window,
        throughput: report.throughput,
        p50_us: report.latency.p50_us,
        p99_us: report.latency.p99_us,
        p999_us: report.latency.p999_us,
        fences_per_op: fences as f64 / writes as f64,
        flushes_per_op: flushes as f64 / writes as f64,
        ops: report.ops_acked,
        checksum,
    }
}
