//! Hot-path benchmark tier for the software lookaside layer (sPOLB/sVALB):
//! host-nanosecond latency of `ra2va`/`va2ra`/`read_u64` with the caches on
//! vs the cache-disabled walks, a 16-pool stress, the epoch-churn worst
//! case, the YCSB-A hit rate, and the SW-mode site-check-cache ablation.
//!
//! Emits `BENCH_hotpath.json` with three acceptance extras:
//! - `speedup` — cached vs cold `va2ra` median (expected ≥ 3×);
//! - `svalb_hit_rate` — measured on the YCSB-A run (expected ≥ 0.95);
//! - `equivalence_ok` — cached and uncached translation agreed on every
//!   probe, including errors and detach/re-attach churn, and the
//!   translation-cache on/off YCSB runs produced identical checksums,
//!   cycles, and pointer counters;
//! - `mt_speedup_8` — modelled makespan speedup of the 8-thread shared-
//!   pool YCSB-A arm over the 1-thread arm (expected ≥ 4×);
//! - `mt_checksum_ok` — that arm's checksum was bit-identical at every
//!   thread count (folded into `equivalence_ok`'s exit gate).
//!
//! Exits nonzero when `equivalence_ok` is false: divergence here means the
//! lookasides changed simulated semantics, which the design forbids.

use std::hint::black_box;
use std::time::Instant;
use utpr_bench::par;
use utpr_bench::report::{BenchReport, Json};
use utpr_ds::RbTree;
use utpr_heap::{AddressSpace, PoolId, RelLoc, TransStats, VirtAddr};
use utpr_kv::mt::{run_mt_ycsb, MtSpec};
use utpr_kv::ycsb::{generate_preset, Preset};
use utpr_kv::KvStore;
use utpr_ptr::{ExecEnv, Mode, PtrStats};
use utpr_qc::bench::Bench;
use utpr_qc::rng::Rng;
use utpr_sim::{Machine, RangeEntry, SimConfig};

/// A space with `pools` attached pools, each holding one 64-byte object.
fn build_space(pools: u32) -> (AddressSpace, Vec<(PoolId, RelLoc, VirtAddr)>) {
    let mut space = AddressSpace::new(0x5EED);
    let mut objs = Vec::new();
    for i in 0..pools {
        let pool = space.create_pool(&format!("hot{i}"), 1 << 20).expect("pool");
        let loc = space.pmalloc(pool, 64).expect("pmalloc");
        let va = space.ra2va_uncached(loc).expect("ra2va");
        objs.push((pool, loc, va));
    }
    (space, objs)
}

fn bench_translations(c: &mut Bench) {
    // Every loop accumulates its results: translations feed an address
    // computation in real pointer-chasing code, and the dependency keeps
    // the compiler from turning the measured call into pure dead code the
    // harness only black-boxes after the fact.
    let (space, objs) = build_space(1);
    let (_, loc, va) = objs[0];
    c.bench_function("trans/va2ra_cached_hit", |b| {
        let mut acc = 0u64;
        b.iter(|| {
            acc = acc.wrapping_add(space.va2ra(black_box(va)).unwrap().offset.into());
            acc
        });
    });
    c.bench_function("trans/va2ra_cold_walk", |b| {
        let mut acc = 0u64;
        b.iter(|| {
            acc = acc.wrapping_add(space.va2ra_uncached(black_box(va)).unwrap().offset.into());
            acc
        });
    });
    c.bench_function("trans/ra2va_cached_hit", |b| {
        let mut acc = 0u64;
        b.iter(|| {
            acc = acc.wrapping_add(space.ra2va(black_box(loc)).unwrap().raw());
            acc
        });
    });
    c.bench_function("trans/ra2va_cold_probe", |b| {
        let mut acc = 0u64;
        b.iter(|| {
            acc = acc.wrapping_add(space.ra2va_uncached(black_box(loc)).unwrap().raw());
            acc
        });
    });
    c.bench_function("trans/read_u64_cached", |b| {
        let mut acc = 0u64;
        b.iter(|| {
            acc = acc.wrapping_add(space.read_u64(black_box(va)).unwrap());
            acc
        });
    });
    c.bench_function("trans/read_u64_cold", |b| {
        let mut acc = 0u64;
        b.iter(|| {
            acc = acc.wrapping_add(space.read_u64_uncached(black_box(va)).unwrap());
            acc
        });
    });
}

fn bench_multipool(c: &mut Bench) {
    // Round-robin over 16 pools: defeats the one-entry memo every access,
    // so this measures the direct-mapped sVALB array against the BTree walk
    // at a realistic multi-pool registry size.
    let (space, objs) = build_space(16);
    let vas: Vec<VirtAddr> = objs.iter().map(|&(_, _, va)| va).collect();
    let locs: Vec<RelLoc> = objs.iter().map(|&(_, loc, _)| loc).collect();
    c.bench_function("trans/va2ra_16pool_cached", |b| {
        let (mut i, mut acc) = (0usize, 0u64);
        b.iter(|| {
            i = (i + 1) & 15;
            acc = acc.wrapping_add(space.va2ra(black_box(vas[i])).unwrap().offset.into());
            acc
        });
    });
    c.bench_function("trans/va2ra_16pool_cold", |b| {
        let (mut i, mut acc) = (0usize, 0u64);
        b.iter(|| {
            i = (i + 1) & 15;
            acc = acc.wrapping_add(space.va2ra_uncached(black_box(vas[i])).unwrap().offset.into());
            acc
        });
    });
    c.bench_function("trans/ra2va_16pool_cached", |b| {
        let (mut i, mut acc) = (0usize, 0u64);
        b.iter(|| {
            i = (i + 1) & 15;
            acc = acc.wrapping_add(space.ra2va(black_box(locs[i])).unwrap().raw());
            acc
        });
    });
    c.bench_function("trans/ra2va_16pool_cold", |b| {
        let (mut i, mut acc) = (0usize, 0u64);
        b.iter(|| {
            i = (i + 1) & 15;
            acc = acc.wrapping_add(space.ra2va_uncached(black_box(locs[i])).unwrap().raw());
            acc
        });
    });
}

fn bench_epoch_churn(c: &mut Bench) {
    // Worst case for the generation stamping: every access follows an
    // epoch bump, so the cache misses, walks, and refills each iteration.
    // This bounds the overhead the lookasides can add over the plain walk.
    let (mut space, objs) = build_space(1);
    let (_, _, va) = objs[0];
    c.bench_function("trans/va2ra_epoch_churn", |b| {
        let mut acc = 0u64;
        b.iter(|| {
            space.set_translation_cache(true); // bumps the epoch
            acc = acc.wrapping_add(space.va2ra(black_box(va)).unwrap().offset.into());
            acc
        });
    });
}

/// Cached and uncached translation must agree on every probe — successes
/// *and* errors — including across detach/re-attach churn.
fn check_equivalence() -> bool {
    let (mut space, objs) = build_space(8);
    let mut ok = true;
    let assert_agree = |space: &AddressSpace, label: &str, ok: &mut bool| {
        let mut rng = Rng::new(0x9e37_79b9_7f4a_7c15);
        for _ in 0..2_000 {
            let (pool, _, va) = objs[rng.below(objs.len() as u64) as usize];
            // In-range, out-of-range, and wildly foreign virtual addresses.
            let delta = rng.below(1 << 22);
            let probe_va = va.add(delta);
            let a = space.va2ra(probe_va);
            let b = space.va2ra_uncached(probe_va);
            if a != b {
                eprintln!("hotpath: va2ra divergence ({label}) at {probe_va:?}: {a:?} vs {b:?}");
                *ok = false;
            }
            // In-range and out-of-pool relative locations, plus a pool id
            // that was never created.
            let off = rng.below(1 << 21) as u32;
            for loc in
                [RelLoc::new(pool, off), RelLoc::new(PoolId::new(977), off & 0xffff)]
            {
                let a = space.ra2va(loc);
                let b = space.ra2va_uncached(loc);
                if a != b {
                    eprintln!("hotpath: ra2va divergence ({label}) at {loc}: {a:?} vs {b:?}");
                    *ok = false;
                }
            }
        }
    };
    assert_agree(&space, "steady", &mut ok);
    // Detach half the pools: cached and uncached must now fail identically
    // for those, and keep succeeding for the rest.
    for &(pool, _, _) in objs.iter().step_by(2) {
        space.detach(pool).expect("detach");
    }
    assert_agree(&space, "half-detached", &mut ok);
    // Re-attach (possibly at new bases): stale entries must never serve.
    for &(pool, _, _) in objs.iter().step_by(2) {
        space.attach(pool).expect("re-attach");
    }
    let mut rng = Rng::new(0xdead_beef);
    for _ in 0..2_000 {
        let (pool, loc, _) = objs[rng.below(objs.len() as u64) as usize];
        let a = space.ra2va(loc);
        let b = space.ra2va_uncached(loc);
        if a != b {
            eprintln!("hotpath: post-reattach divergence for {pool}: {a:?} vs {b:?}");
            ok = false;
        }
        let va = b.expect("attached");
        if space.va2ra(va) != space.va2ra_uncached(va) {
            eprintln!("hotpath: post-reattach va2ra divergence for {pool}");
            ok = false;
        }
    }
    ok
}

struct YcsbRun {
    checksum: u64,
    cycles: f64,
    ptr: PtrStats,
    trans: TransStats,
}

/// One YCSB-A run over the RB tree, measured past warm-up.
/// `site_check_cache: None` leaves the builder default in force — the
/// default-on arm below proves the shipped configuration is the measured
/// one, not an opt-in variant.
fn run_ycsb(
    mode: Mode,
    translation_cache: bool,
    site_check_cache: Option<bool>,
    records: u64,
    operations: u64,
) -> YcsbRun {
    let mut space = AddressSpace::new(0xA11C);
    let pool = space.create_pool("hot-ycsb", 64 << 20).expect("pool");
    let ranges: Vec<RangeEntry> = space
        .attachments()
        .iter()
        .map(|a| RangeEntry { base: a.base.raw(), size: a.size, pool: a.pool.raw() })
        .collect();
    let mut machine = Machine::new(SimConfig::table_iv());
    machine.set_pool_ranges(ranges);
    let mut builder = ExecEnv::builder(space)
        .mode(mode)
        .pool(pool)
        .translation_cache(translation_cache)
        .sink(machine);
    if let Some(on) = site_check_cache {
        builder = builder.site_check_cache(on);
    }
    let mut env = builder.build();
    let w = generate_preset(Preset::A, records, operations, 42);
    let mut store: KvStore<RbTree> = KvStore::create(&mut env).expect("create");
    store.load(&mut env, &w).expect("load");
    env.sink_mut().reset_measurement();
    env.reset_stats();
    env.space_mut().reset_trans_stats();
    let summary = store.run(&mut env, &w).expect("run");
    let (space, ptr, machine) = env.into_parts();
    YcsbRun {
        checksum: summary.checksum,
        cycles: machine.cycles(),
        ptr,
        trans: space.trans_stats(),
    }
}

fn main() {
    let t0 = Instant::now();
    let (records, operations) = match std::env::var("UTPR_BENCH_SCALE").as_deref() {
        Ok("small") => (1_000, 5_000),
        Ok("medium") => (5_000, 20_000),
        _ => (10_000, 50_000),
    };
    eprintln!("hotpath: lookaside micro + YCSB-A at {records} records ...");

    let mut c = Bench::new();
    bench_translations(&mut c);
    bench_multipool(&mut c);
    bench_epoch_churn(&mut c);
    c.report();
    let median = |name: &str| {
        c.summaries().iter().find(|s| s.name == name).map(|s| s.median_ns).unwrap_or(f64::NAN)
    };
    let speedup = median("trans/va2ra_cold_walk") / median("trans/va2ra_cached_hit");
    let speedup_16 = median("trans/va2ra_16pool_cold") / median("trans/va2ra_16pool_cached");

    // Semantics: cached and uncached must be indistinguishable.
    let mut equivalence_ok = check_equivalence();

    // YCSB-A with the translation caches on vs off: identical simulated
    // results, and the on-run's hit rate is the acceptance criterion.
    let on = run_ycsb(Mode::Sw, true, Some(false), records, operations);
    let off = run_ycsb(Mode::Sw, false, Some(false), records, operations);
    if on.checksum != off.checksum || on.cycles != off.cycles || on.ptr != off.ptr {
        eprintln!(
            "hotpath: translation-cache divergence: checksum {:#x} vs {:#x}, cycles {} vs {}",
            on.checksum, off.checksum, on.cycles, off.cycles
        );
        equivalence_ok = false;
    }
    let hit_rate = on.trans.svalb_hit_rate();
    let spolb_rate = on.trans.spolb_hit_rate();

    // SW-mode site-check ablation (default-on, *modelled*): checksums must
    // still agree and every elided check must be accounted for.
    let cached = run_ycsb(Mode::Sw, true, Some(true), records, operations);
    if cached.checksum != on.checksum {
        eprintln!("hotpath: site-check-cache changed the checksum");
        equivalence_ok = false;
    }
    if cached.ptr.dynamic_checks + cached.ptr.checks_elided != on.ptr.dynamic_checks {
        eprintln!(
            "hotpath: check conservation violated: {} + {} != {}",
            cached.ptr.dynamic_checks, cached.ptr.checks_elided, on.ptr.dynamic_checks
        );
        equivalence_ok = false;
    }

    // Builder defaults must be the measured site-cache-on configuration:
    // the default arm has to be bit-identical to the explicit one, or the
    // numbers this tier reports describe a configuration nobody gets.
    let default_arm = run_ycsb(Mode::Sw, true, None, records, operations);
    let default_is_cached = default_arm.checksum == cached.checksum
        && default_arm.cycles == cached.cycles
        && default_arm.ptr == cached.ptr;
    if !default_is_cached {
        eprintln!(
            "hotpath: builder-default arm diverged from explicit site-cache-on: \
             checksum {:#x} vs {:#x}, cycles {} vs {}",
            default_arm.checksum, cached.checksum, default_arm.cycles, cached.cycles
        );
        equivalence_ok = false;
    }

    // Multi-threaded YCSB-A over one shared pool: each worker is one
    // simulated core, throughput is ops over the makespan (the slowest
    // core's cycles), and the checksum must be identical at every thread
    // count — the sharded heap's determinism contract.
    let mt_runs: Vec<_> = [1u32, 2, 4, 8]
        .iter()
        .map(|&t| run_mt_ycsb(&MtSpec::new(records, operations, t, 42)).expect("mt ycsb"))
        .collect();
    let mt_checksum_ok = mt_runs.iter().all(|r| r.checksum == mt_runs[0].checksum);
    if !mt_checksum_ok {
        eprintln!("hotpath: mt checksum varies with thread count");
        equivalence_ok = false;
    }
    let mt_speedup_8 =
        mt_runs[0].makespan_cycles / mt_runs.last().expect("runs").makespan_cycles;

    println!("\n=== Hot path: software lookasides (host ns; YCSB-A hit rates) ===");
    println!("va2ra speedup (cached vs cold walk): {speedup:.1}x single, {speedup_16:.1}x 16-pool");
    println!("YCSB-A sVALB hit rate: {:.4}  sPOLB hit rate: {:.4}", hit_rate, spolb_rate);
    println!(
        "SW site-check ablation: {} executed + {} elided (off: {}), cycles {:.0} vs {:.0}",
        cached.ptr.dynamic_checks,
        cached.ptr.checks_elided,
        on.ptr.dynamic_checks,
        cached.cycles,
        on.cycles
    );
    println!(
        "builder defaults: {}",
        if default_is_cached { "site-cache-on arm (bit-identical)" } else { "DIVERGED" }
    );
    println!(
        "MT YCSB-A modelled speedup at 8 cores: {mt_speedup_8:.2}x  (checksums {})",
        if mt_checksum_ok { "thread-count-invariant" } else { "DIVERGED" }
    );
    for r in &mt_runs {
        println!(
            "  t{}: makespan {:.0} cycles, {} refills, {} slab overflows",
            r.threads, r.makespan_cycles, r.refills, r.slab_overflows
        );
    }
    println!("equivalence: {}", if equivalence_ok { "ok" } else { "DIVERGED" });

    let mut rep = BenchReport::new("hotpath", par::jobs(), t0.elapsed());
    rep.set_extra("speedup", Json::F64(speedup));
    rep.set_extra("speedup_16pool", Json::F64(speedup_16));
    rep.set_extra("svalb_hit_rate", Json::F64(hit_rate));
    rep.set_extra("spolb_hit_rate", Json::F64(spolb_rate));
    rep.set_extra("equivalence_ok", Json::Bool(equivalence_ok));
    rep.set_extra("mt_speedup_8", Json::F64(mt_speedup_8));
    rep.set_extra("mt_checksum_ok", Json::Bool(mt_checksum_ok));
    rep.set_extra("default_is_sitecache_on", Json::Bool(default_is_cached));
    for s in c.summaries() {
        rep.push_record(Json::obj(vec![
            ("name", Json::Str(s.name.clone())),
            ("median_ns", Json::F64(s.median_ns)),
            ("p95_ns", Json::F64(s.p95_ns)),
            ("min_ns", Json::F64(s.min_ns)),
            ("iters_per_sample", Json::U64(s.iters_per_sample)),
            ("samples", Json::U64(s.samples as u64)),
        ]));
    }
    for (label, r) in
        [("ycsb_a_sw_cached", &on), ("ycsb_a_sw_uncached", &off), ("ycsb_a_sw_sitecache", &cached)]
    {
        rep.push_record(Json::obj(vec![
            ("name", Json::Str(label.to_string())),
            ("cycles", Json::F64(r.cycles)),
            ("checksum", Json::U64(r.checksum)),
            ("dynamic_checks", Json::U64(r.ptr.dynamic_checks)),
            ("checks_elided", Json::U64(r.ptr.checks_elided)),
            ("spolb_hits", Json::U64(r.trans.spolb_hits)),
            ("spolb_misses", Json::U64(r.trans.spolb_misses)),
            ("svalb_hits", Json::U64(r.trans.svalb_hits)),
            ("svalb_misses", Json::U64(r.trans.svalb_misses)),
            ("trans_epoch_bumps", Json::U64(r.trans.epoch_bumps)),
        ]));
    }
    for r in &mt_runs {
        rep.push_record(Json::obj(vec![
            ("name", Json::Str(format!("ycsb_a_mt_t{}", r.threads))),
            ("cycles", Json::F64(r.makespan_cycles)),
            ("checksum", Json::U64(r.checksum)),
            ("total_cycles", Json::F64(r.total_cycles)),
            ("refills", Json::U64(r.refills)),
            ("central_allocs", Json::U64(r.central_allocs)),
            ("slab_overflows", Json::U64(r.slab_overflows)),
            ("spolb_hits", Json::U64(r.trans.spolb_hits)),
            ("svalb_hits", Json::U64(r.trans.svalb_hits)),
        ]));
    }
    rep.write();
    if !equivalence_ok {
        std::process::exit(1);
    }
}
