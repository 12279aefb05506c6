//! Hot-path benchmark tier for host address translation: latency of
//! `ra2va` (a pool-table read) and of `va2ra`/`read_u64` with the sVALB on
//! vs the cache-disabled walk, a 16-pool stress, the invalidation-churn
//! worst case, the YCSB-A hit rate, and the SW-mode site-check-cache
//! ablation.
//!
//! Emits `BENCH_hotpath.json` with the extras its gates read:
//! - `speedup` — cold walk over cached hit for `va2ra`, a paired ratio
//!   (gate: ≥ 3×); `speedup_16pool` is the same over 16 pools, ungated;
//! - `svalb_hit_rate` — the share of the YCSB-A run's translations that
//!   did not walk, from its cache-on and cache-off arms (gate: ≥ 0.95);
//! - `equivalence_ok` — cached and uncached `va2ra` agreed on every
//!   probe, including errors and detach/re-attach churn, and the
//!   translation-cache on/off YCSB runs produced identical checksums,
//!   cycles, and pointer counters (gate: divergence here means the
//!   sVALB changed simulated semantics, which the design forbids);
//! - `mt_speedup_8` — modelled makespan speedup of the 8-thread shared-
//!   pool YCSB-A arm over the 1-thread arm (gate: ≥ 4×);
//! - `mt_checksum_ok` — that arm's checksum was bit-identical at every
//!   thread count (gate).

use std::hint::black_box;
use utpr_bench::report::{BenchReport, Json};
use utpr_ds::RbTree;
use utpr_heap::{AddressSpace, PoolId, RelLoc, TransStats, VirtAddr};
use utpr_kv::mt::{run_mt_ycsb, MtSpec};
use utpr_kv::ycsb::{generate_preset, Preset};
use utpr_kv::KvStore;
use utpr_ptr::{ExecEnv, Mode, PtrStats};
use utpr_qc::bench::{paired_ratio, Bench};
use utpr_qc::rng::Rng;
use utpr_sim::{Machine, RangeEntry, SimConfig};

/// A space with `pools` attached pools, each holding one 64-byte object.
fn build_space(pools: u32) -> (AddressSpace, Vec<(PoolId, RelLoc, VirtAddr)>) {
    let mut space = AddressSpace::new(0x5EED);
    let mut objs = Vec::new();
    for i in 0..pools {
        let pool = space.create_pool(&format!("hot{i}"), 1 << 20).expect("pool");
        let loc = space.pmalloc(pool, 64).expect("pmalloc");
        let va = space.ra2va(loc).expect("ra2va");
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
    c.bench_function("trans/ra2va", |b| {
        let mut acc = 0u64;
        b.iter(|| {
            acc = acc.wrapping_add(space.ra2va(black_box(loc)).unwrap().raw());
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
    // (and `ra2va` across table entries) at a realistic multi-pool size.
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
    c.bench_function("trans/ra2va_16pool", |b| {
        let (mut i, mut acc) = (0usize, 0u64);
        b.iter(|| {
            i = (i + 1) & 15;
            acc = acc.wrapping_add(space.ra2va(black_box(locs[i])).unwrap().raw());
            acc
        });
    });
}

fn bench_epoch_churn(c: &mut Bench) {
    // Worst case for invalidation: every access follows an all-pools clear
    // of the 65 sVALB slots, so the cache misses, walks, and refills each
    // iteration. This bounds the overhead the sVALB can add over the walk.
    let (mut space, objs) = build_space(1);
    let (_, _, va) = objs[0];
    c.bench_function("trans/va2ra_epoch_churn", |b| {
        let mut acc = 0u64;
        b.iter(|| {
            space.set_translation_cache(true); // clears every slot
            acc = acc.wrapping_add(space.va2ra(black_box(va)).unwrap().offset.into());
            acc
        });
    });
}

/// `va2ra` speedups of the cached hit over the cold walk: one pool, then
/// 16 pools round-robin (which defeats the one-entry memo every access).
fn va2ra_speedups() -> (f64, f64) {
    let (space, objs) = build_space(1);
    let va = objs[0].2;
    let single = paired_ratio(
        || space.va2ra_uncached(black_box(va)).unwrap().offset,
        || space.va2ra(black_box(va)).unwrap().offset,
    );
    let (space, objs) = build_space(16);
    let vas: Vec<VirtAddr> = objs.iter().map(|&(_, _, va)| va).collect();
    let (mut i, mut j) = (0usize, 0usize);
    let multi = paired_ratio(
        || {
            i = (i + 1) & 15;
            space.va2ra_uncached(black_box(vas[i])).unwrap().offset
        },
        || {
            j = (j + 1) & 15;
            space.va2ra(black_box(vas[j])).unwrap().offset
        },
    );
    (single, multi)
}

/// Cached and uncached `va2ra` must agree on every probe — successes *and*
/// errors — including across detach/re-attach churn.
fn check_equivalence() -> bool {
    let (mut space, objs) = build_space(8);
    let mut ok = true;
    let assert_agree = |space: &AddressSpace, label: &str, ok: &mut bool| {
        let mut rng = Rng::new(0x9e37_79b9_7f4a_7c15);
        for _ in 0..2_000 {
            let (_, _, va) = objs[rng.below(objs.len() as u64) as usize];
            // In-range, out-of-range, and wildly foreign virtual addresses.
            let delta = rng.below(1 << 22);
            let probe_va = va.add(delta);
            let a = space.va2ra(probe_va);
            let b = space.va2ra_uncached(probe_va);
            if a != b {
                eprintln!("hotpath: va2ra divergence ({label}) at {probe_va:?}: {a:?} vs {b:?}");
                *ok = false;
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
        let va = space.ra2va(loc).expect("attached");
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
    if !translation_cache {
        space.set_translation_cache(false);
    }
    let mut builder = ExecEnv::builder(space).mode(mode).pool(pool).sink(machine);
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
    let mut rep = BenchReport::start("hotpath");
    let (records, operations) = rep.scale().pick((1_000, 5_000), (5_000, 20_000), (10_000, 50_000));
    eprintln!("hotpath: translation micro + YCSB-A at {records} records ...");

    let mut c = Bench::new();
    bench_translations(&mut c);
    bench_multipool(&mut c);
    bench_epoch_churn(&mut c);
    c.report();
    let (speedup, speedup_16) = va2ra_speedups();

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
    // With the cache off every translation walks.
    let hit_rate = 1.0 - on.trans.walks as f64 / off.trans.walks as f64;

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
    let mt_speedup_8 =
        mt_runs[0].makespan_cycles / mt_runs.last().expect("runs").makespan_cycles;

    println!("\n=== Hot path: host translation (host ns; YCSB-A sVALB hit rate) ===");
    println!("va2ra speedup (cached vs cold walk): {speedup:.1}x single, {speedup_16:.1}x 16-pool");
    println!("YCSB-A sVALB hit rate: {hit_rate:.4}");
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

    rep.gate("equivalence", equivalence_ok, "translation caches, site-check cache, builder defaults");
    rep.gate("svalb_hit_rate", hit_rate >= 0.95, format!("{hit_rate:.4}, floor 0.95"));
    rep.gate("va2ra_speedup", speedup >= 3.0, format!("{speedup:.2}x, floor 3x"));
    rep.gate("mt_checksums", mt_checksum_ok, "YCSB-A checksum at 1, 2, 4 and 8 threads");
    rep.gate("mt_speedup_8", mt_speedup_8 >= 4.0, format!("{mt_speedup_8:.2}x, floor 4x"));
    rep.set_extra("speedup", Json::F64(speedup));
    rep.set_extra("speedup_16pool", Json::F64(speedup_16));
    rep.set_extra("svalb_hit_rate", Json::F64(hit_rate));
    rep.set_extra("equivalence_ok", Json::Bool(equivalence_ok));
    rep.set_extra("mt_speedup_8", Json::F64(mt_speedup_8));
    rep.set_extra("mt_checksum_ok", Json::Bool(mt_checksum_ok));
    rep.set_extra("default_is_sitecache_on", Json::Bool(default_is_cached));
    rep.push_summaries(&c);
    for (label, r) in
        [("ycsb_a_sw_cached", &on), ("ycsb_a_sw_uncached", &off), ("ycsb_a_sw_sitecache", &cached)]
    {
        rep.push_record(Json::obj(vec![
            ("name", Json::Str(label.to_string())),
            ("cycles", Json::F64(r.cycles)),
            ("checksum", Json::U64(r.checksum)),
            ("dynamic_checks", Json::U64(r.ptr.dynamic_checks)),
            ("checks_elided", Json::U64(r.ptr.checks_elided)),
            ("trans_walks", Json::U64(r.trans.walks)),
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
            ("trans_walks", Json::U64(r.trans.walks)),
        ]));
    }
    rep.finish();
}
