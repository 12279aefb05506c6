//! Concurrent-index bench tier: throughput and persistence traffic of
//! the lock-free structures under the three flush strategies, over a
//! (structure × strategy × thread count) grid, plus lock-striped RB
//! rows as the locking baseline.
//!
//! Workload shape is YCSB-A-like (50 % GET / 30 % update-SET / 20 %
//! REMOVE) over a key space split into 8 fixed partitions assigned
//! round-robin to worker threads. Partition streams derive from the
//! seed alone, and every key belongs to exactly one partition, so the
//! final contents — and therefore the audit checksum — are a pure
//! function of the seed: bit-identical across flush strategies *and*
//! thread counts, even though the threads genuinely race on the shared
//! structure (bucket heads, neighbouring list links).
//!
//! Emits `BENCH_concurrent.json`:
//! - one record per grid cell with host-time throughput, `flushes/op`,
//!   `fences/op`, `elided/op`, and the audit checksum;
//! - extras `flit_savings_*` / `traverse_savings_*` — the fraction of
//!   Eager's `flushes/op` each strategy removed on the 4-thread run
//!   (the paper-motivated gate is ≥ 0.20 for both, enforced by
//!   `scripts/verify.sh --concurrent`);
//! - extra `checksum_ok` — strategy- and thread-invariance of the
//!   audit checksum. The process exits nonzero when it is false:
//!   flush strategies are persistence policies and must never change
//!   what the structure computes.

use std::sync::Arc;
use std::time::Instant;
use utpr_bench::par;
use utpr_bench::report::{BenchReport, Json};
use utpr_ds::concurrent::{ConcurrentIndex, FlushCounters, FlushStrategy, Handle};
use utpr_ds::{ConcHash, ConcList, RbTree, Striped};
use utpr_heap::{AddressSpace, FlushModel, HeapError, SharedPool, SlabId, UndoLog};
use utpr_kv::rng::mix;
use utpr_ptr::{site, ExecEnv, Mode};

type Result<T> = std::result::Result<T, HeapError>;

/// Fixed partition count; thread counts in the grid must divide it.
const PARTS: u64 = 8;
const THREADS: [u32; 4] = [1, 2, 4, 8];
const SEED: u64 = 0xC0DE_5EED;

/// Key `i` of partition `p`: dense in `0..records`, disjoint across
/// partitions.
fn part_key(p: u64, i: u64, keys_per_part: u64) -> u64 {
    (i % keys_per_part) * PARTS + p
}

#[derive(Clone, Copy)]
struct GridSpec {
    records: u64,
    operations: u64,
}

struct CellRun {
    counters: FlushCounters,
    wall_ns: u64,
    checksum: u64,
}

/// Builds the shared base: pool in ADR mode (so unflushed lines are
/// genuinely volatile), per-thread arena slabs, the structure created
/// and prepopulated single-threaded, descriptor in the pool root.
fn build_base<I: ConcurrentIndex>(
    name: &str,
    spec: GridSpec,
    striped_slots: u32,
) -> Result<(Arc<SharedPool>, Vec<SlabId>)> {
    let sp = SharedPool::create(name, 64 << 20, 64)?;
    sp.set_flush_model(FlushModel::Adr);
    let slabs: Vec<SlabId> =
        (0..PARTS).map(|_| sp.carve_slab(2 << 20)).collect::<Result<Vec<_>>>()?;
    let mut space = AddressSpace::new(mix(SEED, 0xBA5E));
    let pool = space.adopt_shared(&sp)?;
    // Striped rows run sequential ops inside per-thread undo-log
    // transactions; slot directory installs are not thread-safe, so
    // every slot is materialized here, before any worker exists.
    for slot in 0..u64::from(striped_slots) {
        UndoLog::ensure_slot(&mut space, pool, 1 << 16, slot)?;
    }
    let mut env = ExecEnv::builder(space).mode(Mode::Hw).pool(pool).build();
    let idx = I::create(&mut env)?;
    let keys_per_part = (spec.records / PARTS).max(1);
    let mut h = Handle::new(&mut env, FlushStrategy::Eager)?;
    for p in 0..PARTS {
        for i in 0..keys_per_part {
            idx.insert(&mut h, part_key(p, i, keys_per_part), mix(SEED, 0x10AD ^ (p << 32) ^ i))?;
        }
    }
    env.set_root(site!("conc-bench.root", StackLocal), idx.descriptor())?;
    env.space_mut().fence();
    Ok((sp, slabs))
}

/// One worker: a private shard running its round-robin share of the
/// partition op streams through one handle.
fn worker<I: ConcurrentIndex>(
    sp: &Arc<SharedPool>,
    slabs: &[SlabId],
    spec: GridSpec,
    strategy: FlushStrategy,
    threads: u32,
    t: u32,
) -> Result<FlushCounters> {
    let mut space = AddressSpace::new(mix(SEED, 0x7268 ^ u64::from(t)));
    let pool = space.adopt_shared(sp)?;
    space.bind_arena_slab(pool, slabs[t as usize])?;
    let mut env =
        ExecEnv::builder(space).mode(Mode::Hw).pool(pool).txn_slot(u64::from(t)).build();
    let desc = env.root(site!("conc-bench.open", KnownReturn))?;
    let idx = I::open(desc);
    let mut h = Handle::new(&mut env, strategy)?;
    let keys_per_part = (spec.records / PARTS).max(1);
    let per_part_ops = (spec.operations / PARTS).max(1);
    let mut p = u64::from(t);
    while p < PARTS {
        for j in 0..per_part_ops {
            let r = mix(SEED, 0x09 ^ (p << 40) ^ j);
            let key = part_key(p, r % keys_per_part, keys_per_part);
            match (r >> 32) % 10 {
                0..=4 => drop(idx.get(&mut h, key)?),
                5..=7 => drop(idx.insert(&mut h, key, (r >> 8) ^ j)?),
                _ => drop(idx.remove(&mut h, key)?),
            }
        }
        p += u64::from(threads);
    }
    Ok(h.counters())
}

/// Single-threaded audit: folds `key → value` over the dense key space
/// in key order. Runs on a fresh shard so it sees only durable+cached
/// pool state, like any late-joining process would.
fn audit<I: ConcurrentIndex>(sp: &Arc<SharedPool>, spec: GridSpec) -> Result<u64> {
    let mut space = AddressSpace::new(mix(SEED, 0xA0D1));
    let pool = space.adopt_shared(sp)?;
    let mut env = ExecEnv::builder(space).mode(Mode::Hw).pool(pool).build();
    let desc = env.root(site!("conc-bench.audit", KnownReturn))?;
    let idx = I::open(desc);
    let mut h = Handle::new(&mut env, FlushStrategy::Eager)?;
    let keys_per_part = (spec.records / PARTS).max(1);
    let mut checksum = 0u64;
    for key in 0..keys_per_part * PARTS {
        let v = idx.get(&mut h, key)?.map_or(0, |v| v ^ 0x5a5a);
        checksum = checksum.wrapping_mul(0x100_0000_01b3).wrapping_add(key ^ v.wrapping_add(1));
    }
    Ok(checksum)
}

/// Runs one grid cell: build, parallel measured phase, audit.
fn run_cell<I: ConcurrentIndex>(
    label: &str,
    spec: GridSpec,
    strategy: FlushStrategy,
    threads: u32,
    striped_slots: u32,
) -> Result<CellRun> {
    let name = format!("conc-bench-{label}-{}-t{threads}", strategy.label());
    let (sp, slabs) = build_base::<I>(&name, spec, striped_slots)?;
    let t0 = Instant::now();
    let outs: Vec<Result<FlushCounters>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let (sp, slabs) = (&sp, &slabs[..]);
                s.spawn(move || worker::<I>(sp, slabs, spec, strategy, threads, t))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
    });
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let mut counters = FlushCounters::default();
    for o in outs {
        counters.merge(&o?);
    }
    let checksum = audit::<I>(&sp, spec)?;
    Ok(CellRun { counters, wall_ns, checksum })
}

fn per_op(n: u64, c: &FlushCounters) -> f64 {
    if c.ops == 0 {
        0.0
    } else {
        n as f64 / c.ops as f64
    }
}

fn throughput_kops(r: &CellRun) -> f64 {
    if r.wall_ns == 0 {
        0.0
    } else {
        r.counters.ops as f64 / (r.wall_ns as f64 / 1_000_000.0) // ops per ms = kops/s
    }
}

struct Row {
    structure: &'static str,
    strategy: &'static str,
    threads: u32,
    run: CellRun,
}

fn sweep_structure<I: ConcurrentIndex>(
    structure: &'static str,
    spec: GridSpec,
    rows: &mut Vec<Row>,
) -> Result<()> {
    for &threads in &THREADS {
        for strategy in FlushStrategy::ALL {
            let run = run_cell::<I>(structure, spec, strategy, threads, 0)?;
            eprintln!(
                "  {structure}/{}/t{threads}: {:.0} kops/s, {:.2} flushes/op, {:.2} elided/op",
                strategy.label(),
                throughput_kops(&run),
                run.counters.flushes_per_op(),
                per_op(run.counters.elided, &run.counters),
            );
            rows.push(Row { structure, strategy: strategy.label(), threads, run });
        }
    }
    Ok(())
}

fn find<'a>(rows: &'a [Row], s: &str, strat: &str, t: u32) -> &'a Row {
    rows.iter()
        .find(|r| r.structure == s && r.strategy == strat && r.threads == t)
        .expect("grid cell missing")
}

fn main() {
    let t0 = Instant::now();
    let (hash_spec, list_spec) = match std::env::var("UTPR_BENCH_SCALE").as_deref() {
        Ok("small") => (
            GridSpec { records: 512, operations: 4_096 },
            GridSpec { records: 64, operations: 512 },
        ),
        Ok("medium") => (
            GridSpec { records: 1_024, operations: 8_192 },
            GridSpec { records: 128, operations: 1_024 },
        ),
        _ => (
            GridSpec { records: 2_048, operations: 16_384 },
            GridSpec { records: 192, operations: 2_048 },
        ),
    };
    eprintln!(
        "concurrent: {{chash, clist}} x {{eager, flit, traverse}} x t{{1,2,4,8}} + striped-rb ..."
    );

    let mut rows: Vec<Row> = Vec::new();
    sweep_structure::<ConcHash>("chash", hash_spec, &mut rows).expect("chash sweep");
    sweep_structure::<ConcList>("clist", list_spec, &mut rows).expect("clist sweep");

    // Lock-striped RB baseline: strategies collapse behind the stripe
    // locks (stores go through the sequential write path), so it is
    // measured once per thread count under the eager label.
    for &threads in &THREADS {
        let run = run_cell::<Striped<RbTree>>("striped-rb", list_spec, FlushStrategy::Eager, threads, threads)
            .expect("striped sweep");
        eprintln!(
            "  striped-rb/eager/t{threads}: {:.0} kops/s, {:.2} fences/op",
            throughput_kops(&run),
            per_op(run.counters.fences, &run.counters),
        );
        rows.push(Row { structure: "striped-rb", strategy: "eager", threads, run });
    }

    // Gate inputs: flush savings at 4 threads, checksum invariance.
    let savings = |s: &str, strat: &str| {
        let eager = find(&rows, s, "eager", 4).run.counters.flushes_per_op();
        let this = find(&rows, s, strat, 4).run.counters.flushes_per_op();
        if eager == 0.0 {
            0.0
        } else {
            1.0 - this / eager
        }
    };
    let flit_hash = savings("chash", "flit");
    let trav_hash = savings("chash", "traverse");
    let flit_list = savings("clist", "flit");
    let trav_list = savings("clist", "traverse");

    let mut checksum_ok = true;
    for s in ["chash", "clist", "striped-rb"] {
        let strategies: &[&str] =
            if s == "striped-rb" { &["eager"] } else { &["eager", "flit", "traverse"] };
        let reference = find(&rows, s, "eager", 1).run.checksum;
        for &strat in strategies {
            for &t in &THREADS {
                let got = find(&rows, s, strat, t).run.checksum;
                if got != reference {
                    eprintln!(
                        "concurrent: {s}/{strat}/t{t} checksum {got:#x} != reference {reference:#x}"
                    );
                    checksum_ok = false;
                }
            }
        }
    }

    println!("\n=== Concurrent indexes: flush traffic by strategy (4 threads) ===");
    for s in ["chash", "clist"] {
        let e = find(&rows, s, "eager", 4).run.counters.flushes_per_op();
        let f = find(&rows, s, "flit", 4).run.counters.flushes_per_op();
        let t = find(&rows, s, "traverse", 4).run.counters.flushes_per_op();
        println!(
            "{s}: eager {e:.2} flushes/op, flit {f:.2} (-{:.0}%), traverse {t:.2} (-{:.0}%)",
            100.0 * (1.0 - f / e),
            100.0 * (1.0 - t / e)
        );
    }
    println!(
        "checksums: {}",
        if checksum_ok { "strategy- and thread-invariant" } else { "DIVERGED" }
    );

    let mut rep = BenchReport::new("concurrent", par::jobs(), t0.elapsed());
    rep.set_extra("flit_savings_chash_t4", Json::F64(flit_hash));
    rep.set_extra("traverse_savings_chash_t4", Json::F64(trav_hash));
    rep.set_extra("flit_savings_clist_t4", Json::F64(flit_list));
    rep.set_extra("traverse_savings_clist_t4", Json::F64(trav_list));
    rep.set_extra("checksum_ok", Json::Bool(checksum_ok));
    for r in &rows {
        rep.push_record(Json::obj(vec![
            ("name", Json::Str(format!("{}/{}/t{}", r.structure, r.strategy, r.threads))),
            ("structure", Json::Str(r.structure.to_string())),
            ("strategy", Json::Str(r.strategy.to_string())),
            ("threads", Json::U64(u64::from(r.threads))),
            ("throughput_kops", Json::F64(throughput_kops(&r.run))),
            ("ops", Json::U64(r.run.counters.ops)),
            ("flushes_per_op", Json::F64(r.run.counters.flushes_per_op())),
            ("fences_per_op", Json::F64(per_op(r.run.counters.fences, &r.run.counters))),
            ("elided_per_op", Json::F64(per_op(r.run.counters.elided, &r.run.counters))),
            ("checksum", Json::U64(r.run.checksum)),
        ]));
    }
    rep.write();
    if !checksum_ok {
        std::process::exit(1);
    }
}
