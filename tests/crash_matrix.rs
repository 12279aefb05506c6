//! Crash/relocation matrix: every index structure, loaded through the KV
//! store, must survive repeated restarts (each re-attaching the pool at a
//! different base) in both user-transparent builds — and, with the fault
//! engine armed, must recover cleanly from a crash injected at *every*
//! durable-write boundary of a transaction-wrapped workload.

use utpr::prelude::*;
use utpr::kv::faultsweep::sweep_structure;
use utpr::kv::workload::generate;

fn spec() -> WorkloadSpec {
    WorkloadSpec { records: 300, operations: 0, read_fraction: 1.0, seed: 31 }
}

fn crash_cycle<I: IndexOps>(mode: Mode) {
    let mut space = AddressSpace::new(61);
    let pool = space.create_pool("crash", 32 << 20).unwrap();
    let mut env = ExecEnv::builder(space).mode(mode).pool(pool).build();
    let w = generate(&spec());

    let mut store: KvStore<I> = KvStore::create(&mut env).unwrap();
    store.load(&mut env, &w).unwrap();
    env.set_root(site!("cm.save", StackLocal), store.index().descriptor()).unwrap();

    let mut bases = vec![env.space().attachment(pool).unwrap().base];
    for generation in 1..=3 {
        env.space_mut().restart();
        env.space_mut().open_pool("crash").unwrap();
        bases.push(env.space().attachment(pool).unwrap().base);

        let desc = env.root(site!("cm.load", KnownReturn)).unwrap();
        let mut reopened: KvStore<I> = KvStore::open(desc);
        // Each prior generation added one extra key after recovery.
        assert_eq!(
            reopened.len(&mut env).unwrap(),
            w.load_keys.len() as u64 + (generation - 1),
            "{} generation {generation}",
            I::NAME
        );
        for k in &w.load_keys {
            assert_eq!(
                reopened.get(&mut env, *k).unwrap(),
                Some(k ^ 0x5a5a_5a5a_5a5a_5a5a),
                "{} generation {generation} key {k}",
                I::NAME
            );
        }
        // Mutate after recovery so later generations verify fresh writes too.
        reopened.set(&mut env, 0xdead_0000 + generation, generation).unwrap();
        let got = reopened.get(&mut env, 0xdead_0000 + generation).unwrap();
        assert_eq!(got, Some(generation));
    }
    // The pool must actually have moved at least once across 4 attachments.
    let distinct: std::collections::HashSet<_> = bases.iter().map(|b| b.raw()).collect();
    assert!(distinct.len() > 1, "{}: pool never relocated", I::NAME);
}

#[test]
fn rb_tree_survives_crashes_hw_and_sw() {
    crash_cycle::<RbTree>(Mode::Hw);
    crash_cycle::<RbTree>(Mode::Sw);
}

#[test]
fn avl_tree_survives_crashes_hw_and_sw() {
    crash_cycle::<AvlTree>(Mode::Hw);
    crash_cycle::<AvlTree>(Mode::Sw);
}

#[test]
fn splay_tree_survives_crashes_hw_and_sw() {
    crash_cycle::<SplayTree>(Mode::Hw);
    crash_cycle::<SplayTree>(Mode::Sw);
}

#[test]
fn scapegoat_tree_survives_crashes_hw_and_sw() {
    crash_cycle::<ScapegoatTree>(Mode::Hw);
    crash_cycle::<ScapegoatTree>(Mode::Sw);
}

#[test]
fn hash_map_survives_crashes_hw_and_sw() {
    crash_cycle::<HashMapIndex>(Mode::Hw);
    crash_cycle::<HashMapIndex>(Mode::Sw);
}

/// Explicit-mode stores survive too: object ids are inherently stable.
#[test]
fn explicit_mode_also_recovers() {
    crash_cycle::<RbTree>(Mode::Explicit);
}

/// Exhaustive crash-point sweep: inject a crash at every durable-write
/// boundary of a transaction-wrapped workload, recover via the undo log, and
/// check structural invariants + contents against a prefix model. The seed
/// comes from `UTPR_QC_SEED`, so any failure this prints is replayable.
fn fault_sweep(bench: Benchmark) {
    let name = bench.name();
    let seed = utpr_qc::runner::base_seed();
    let spec = SweepSpec::small(seed);
    let report = sweep_structure(bench, &spec).unwrap();
    assert_eq!(report.tested, report.boundaries, "{name}: small scale must sweep every boundary");
    assert!(report.boundaries > 0, "{name}: workload produced no durable writes");
    assert!(report.rollbacks > 0, "{name}: no crash point ever tore a transaction");
    if !report.failures.is_empty() {
        for f in &report.failures {
            eprintln!("FAIL {name}: {f}");
        }
        panic!(
            "{name}: {} of {} crash points failed — replay with UTPR_QC_SEED={seed}",
            report.failures.len(),
            report.boundaries
        );
    }
}

#[test]
fn fault_sweep_ll_every_crash_point_recovers() {
    fault_sweep(Benchmark::Ll);
}

#[test]
fn fault_sweep_hash_every_crash_point_recovers() {
    fault_sweep(Benchmark::Hash);
}

#[test]
fn fault_sweep_rb_every_crash_point_recovers() {
    fault_sweep(Benchmark::Rb);
}

#[test]
fn fault_sweep_splay_every_crash_point_recovers() {
    fault_sweep(Benchmark::Splay);
}

#[test]
fn fault_sweep_avl_every_crash_point_recovers() {
    fault_sweep(Benchmark::Avl);
}

#[test]
fn fault_sweep_sg_every_crash_point_recovers() {
    fault_sweep(Benchmark::Sg);
}

/// Torn-write sweeps: the same oracle battery under the ADR flush model,
/// where the in-flight write at the crash boundary lands partially and
/// unfenced lines drain word-by-lottery. The undo log's fence discipline
/// must make every recovery exact (or surface a typed corruption error —
/// never a silent wrong answer).
#[test]
fn torn_sweep_every_structure_recovers_or_detects() {
    let seed = utpr_qc::runner::base_seed();
    for bench in Benchmark::ALL {
        let name = bench.name();
        let spec = SweepSpec::small(seed).torn();
        let report = sweep_structure(bench, &spec).unwrap();
        assert_eq!(report.tested, report.boundaries, "{name}: torn sweep must be exhaustive");
        if !report.failures.is_empty() {
            for f in &report.failures {
                eprintln!("FAIL torn {name}: {f}");
            }
            panic!(
                "{name}: {} of {} torn crash points failed — replay with UTPR_QC_SEED={seed}",
                report.failures.len(),
                report.boundaries
            );
        }
    }
}

/// A corrupted undo-log word at rest is *detected* at re-attach, not
/// silently replayed into the data image: the page CRC sidecar fails
/// verification before `UndoLog::recover` ever reads the damaged word.
#[test]
fn torn_undo_log_word_is_detected_not_replayed() {
    let mut space = AddressSpace::new(77);
    let pool = space.create_pool("tornlog", 8 << 20).unwrap();
    let mut env = ExecEnv::builder(space).mode(Mode::Hw).pool(pool).build();
    let mut store: KvStore<RbTree> = KvStore::create(&mut env).unwrap();
    for k in 0..16u64 {
        store.set(&mut env, k, k + 100).unwrap();
    }
    env.set_root(site!("cm.torn-root", StackLocal), store.index().descriptor()).unwrap();
    env.with_txn(|_| Ok(())).unwrap(); // materialize the undo log before arming

    // Die mid-transaction so the log is active with live entries.
    env.space_mut().set_faults(utpr::heap::FaultPlan::crash_at(6));
    let crashed = env.with_txn(|env| store.set(env, 99, 1).map(|_| ())).is_err();
    assert!(crashed, "the armed transaction must die at boundary 6");

    let (mut space, _, _) = env.into_parts();
    let log_base = utpr::heap::UndoLog::open(&space, pool).unwrap().base_offset();
    space.restart(); // seals every resident page
    space.set_faults(utpr::heap::FaultPlan::disabled());

    // Retention error strikes the log's epoch word while the machine is
    // off (offset 8 in the [active][epoch][capacity] layout).
    let img = space.pool_store_mut().peek_mut(pool).unwrap();
    assert!(img.data_mut().corrupt_bit(log_base + 8, 5), "log page must be resident");

    // Re-attach detects the damage before any rollback can replay it.
    let err = space.open_pool("tornlog").unwrap_err();
    assert!(
        matches!(err, utpr::heap::HeapError::MediaCorruption { .. }),
        "expected MediaCorruption, got: {err}"
    );
    assert!(space.pool_store().is_quarantined(pool), "detected pools are quarantined");
}

/// The `peek_raw` oracle must stay outside the software-lookaside layer:
/// it is what the crash matrix and fault sweeps use to inspect stored
/// pointer bytes, so it can neither *read through* a stale cache entry nor
/// *warm* the cache and mask a translation bug it was brought in to catch.
#[test]
fn peek_raw_bypasses_translation_caches() {
    let mut space = AddressSpace::new(47);
    let pool = space.create_pool("oracle", 1 << 20).unwrap();
    let loc = space.pmalloc(pool, 64).unwrap();
    let va = space.ra2va(loc).unwrap();
    space.write_u64(va, 0xDEAD_BEEF_F00Du64).unwrap();
    let mut env = ExecEnv::builder(space).pool(pool).build();
    let p = UPtr::from_rel(loc);

    // The oracle agrees with the instrumented view of the same word…
    env.space().reset_trans_stats();
    for _ in 0..32 {
        assert_eq!(env.peek_raw(p, 0).unwrap(), 0xDEAD_BEEF_F00Du64);
    }
    // …without touching sPOLB/sVALB at all: no hits, no misses, no fills.
    let s = env.space().trans_stats();
    assert_eq!(
        (s.spolb_hits, s.spolb_misses, s.svalb_hits, s.svalb_misses),
        (0, 0, 0, 0),
        "peek_raw perturbed the lookasides: {s:?}"
    );

    // Warm the caches at the current base, then force a relocation: the
    // pool re-attaches at a different address and the oracle must follow
    // the *registry*, not any stamp-stale cache entry.
    let _ = env.space().ra2va(loc).unwrap();
    let old_base = env.space().attachment(pool).unwrap().base;
    env.space_mut().restart();
    env.space_mut().open_pool("oracle").unwrap();
    let new_base = env.space().attachment(pool).unwrap().base;
    assert_ne!(old_base, new_base, "restart must relocate the pool");
    assert_eq!(env.peek_raw(p, 0).unwrap(), 0xDEAD_BEEF_F00Du64);

    // And a detached pool faults identically through the oracle path.
    env.space_mut().detach(pool).unwrap();
    assert!(env.peek_raw(p, 0).is_err(), "oracle must fault on a detached pool");
}

/// Concurrent crash sweep: N logical threads, each with its own store,
/// slab, and undo-log slot over ONE shared pool, interleaved by a seeded
/// schedule. A crash is injected at every durable-write boundary of that
/// interleaved history; recovery rolls back every thread's torn
/// transaction and the three faultsweep oracles run per thread. Failures
/// print the replay seed.
#[test]
fn concurrent_fault_sweep_every_crash_point_recovers() {
    let seed = utpr_qc::runner::base_seed();
    let spec = utpr::kv::mt::MtSweepSpec {
        threads: 3,
        ops_per_thread: 4,
        ..utpr::kv::mt::MtSweepSpec::small(seed)
    };
    let report = utpr::kv::mt::mt_crash_sweep(&spec).unwrap();
    assert_eq!(report.tested, report.boundaries, "small scale must sweep every boundary");
    assert!(report.boundaries > 0, "interleaved workload produced no durable writes");
    assert!(report.rollbacks > 0, "no crash point ever tore a transaction");
    if !report.failures.is_empty() {
        for f in &report.failures {
            eprintln!("FAIL mt: {f}");
        }
        panic!(
            "mt: {} of {} crash points failed — replay with UTPR_QC_SEED={seed}",
            report.failures.len(),
            report.boundaries
        );
    }
}

/// The same concurrent sweep over an ADR base image with torn crashes: the
/// in-flight write at each boundary lands, and the power cycle drains every
/// unfenced line of every thread by the plan's seeded per-word lottery.
/// Recovery must still restore each thread to a transaction boundary.
#[test]
fn concurrent_torn_sweep_every_crash_point_recovers() {
    let seed = utpr_qc::runner::base_seed();
    let spec = utpr::kv::mt::MtSweepSpec {
        threads: 2,
        ..utpr::kv::mt::MtSweepSpec::small(seed).torn()
    };
    let report = utpr::kv::mt::mt_crash_sweep(&spec).unwrap();
    assert_eq!(report.tested, report.boundaries, "small scale must sweep every boundary");
    assert!(report.rollbacks > 0, "no crash point ever tore a transaction");
    if !report.failures.is_empty() {
        for f in &report.failures {
            eprintln!("FAIL mt torn: {f}");
        }
        panic!(
            "mt torn: {} of {} crash points failed — replay with UTPR_QC_SEED={seed}",
            report.failures.len(),
            report.boundaries
        );
    }
}

/// The concurrent sweep replays bit-for-bit under a fixed seed, and its
/// seeded schedules genuinely interleave the threads (the round-robin
/// order is just one point in the explored space).
#[test]
fn concurrent_fault_sweep_is_deterministic() {
    let spec = utpr::kv::mt::MtSweepSpec::small(20260808);
    let a = utpr::kv::mt::mt_crash_sweep(&spec).unwrap();
    let b = utpr::kv::mt::mt_crash_sweep(&spec).unwrap();
    assert_eq!(a.boundaries, b.boundaries);
    assert_eq!(a.rollbacks, b.rollbacks);
    assert_eq!(a.failures.len(), b.failures.len());
}

/// The whole sweep is bit-deterministic under a fixed seed.
#[test]
fn fault_sweep_is_deterministic() {
    let spec = SweepSpec::small(20260806);
    let a = sweep_structure(Benchmark::Rb, &spec).unwrap();
    let b = sweep_structure(Benchmark::Rb, &spec).unwrap();
    assert_eq!(a.boundaries, b.boundaries);
    assert_eq!(a.rollbacks, b.rollbacks);
    assert_eq!(a.failures.len(), b.failures.len());
}

/// What the sweeps test is pinned: at seed 7, each sweep's boundary
/// count, crash points tried and crash points that struck inside an
/// operation. A change to the sweeps must not move these silently.
#[test]
fn sweep_census_is_pinned() {
    for (bench, want) in [
        (Benchmark::Ll, (98, 98, 85)),
        (Benchmark::Hash, (58, 58, 44)),
        (Benchmark::Rb, (100, 100, 88)),
        (Benchmark::Splay, (238, 238, 225)),
        (Benchmark::Avl, (94, 94, 81)),
        (Benchmark::Sg, (36, 36, 23)),
    ] {
        let r = sweep_structure(bench, &SweepSpec::small(7)).unwrap();
        assert_eq!((r.boundaries, r.tested, r.rollbacks), want, "{}", bench.name());
    }
    let r = utpr::kv::mt::mt_crash_sweep(&utpr::kv::mt::MtSweepSpec::small(7)).unwrap();
    assert_eq!((r.boundaries, r.tested, r.rollbacks), (288, 288, 270), "mt");
    let spec = utpr::kv::conc::ConcSweepSpec::exhaustive(7, FlushStrategy::Traverse);
    let r = utpr::kv::conc::conc_crash_sweep::<ConcList>(&spec).unwrap();
    assert_eq!((r.boundaries, r.tested, r.rollbacks), (10, 10, 10), "conc list");
    let r = utpr::kv::conc::conc_crash_sweep::<ConcHash>(&spec).unwrap();
    assert_eq!((r.boundaries, r.tested, r.rollbacks), (10, 10, 10), "conc hash");
}

// ---------------------------------------------------------------------------
// Quarantine escape hatches racing concurrent readers.
//
// `quarantined_page` (peek), `release_quarantine`, and `reseal_all` are the
// maintenance hatches the repair path uses while guarded traffic is live.
// These tests drive them against concurrent `Handle` readers on the seeded
// turnstile: every interleaving is a pure function of the seed, and every
// reader-visible failure must be `MediaCorruption` naming the quarantined
// page — never a wrong value, never a panic.

use utpr::ds::concurrent::Handle;
use utpr::heap::pagestore::PAGE_SIZE;
use utpr::heap::{HeapError, RetentionConfig, ScrubConfig, Scrubber};
use utpr_qc::sched::Turnstile;

const QKEYS: u64 = 32;

fn qvalue(k: u64) -> u64 {
    k.wrapping_mul(31) + 7
}

/// Builds a sealed shared pool: a populated `ConcHash` behind the root,
/// plus a padding block the fault will strike — so repair never changes
/// any key's bytes and post-repair reads have one deterministic answer.
fn quarantine_base(name: &str) -> (std::sync::Arc<SharedPool>, u64) {
    let sp = SharedPool::create(name, 8 << 20, 8).unwrap();
    sp.configure_retention(RetentionConfig { seal_lag: 1, work_per_tick: 100 });
    let pad = sp.alloc_raw(512).unwrap();
    for w in 0..64u64 {
        sp.write_u64(pad + w * 8, 0xABAD_1DEA ^ w);
    }
    let mut space = AddressSpace::new(929);
    let pool = space.adopt_shared(&sp).unwrap();
    let mut env = ExecEnv::builder(space).mode(Mode::Hw).pool(pool).build();
    let idx = ConcHash::create(&mut env).unwrap();
    let mut h = Handle::new(&mut env, FlushStrategy::FliT).unwrap();
    for k in 0..QKEYS {
        idx.insert(&mut h, k, qvalue(k)).unwrap();
    }
    env.set_root(site!("cm.q-root", StackLocal), idx.descriptor()).unwrap();
    env.space_mut().fence();
    sp.seal_all_now();
    (sp, pad)
}

/// One seeded race: two readers stream gets through guarded handles while
/// a maintenance thread plants a retention flip in the pad block, verifies
/// (quarantining the pool), and then repairs through the escape hatches.
/// Returns (grants, per-reader (ok, media_errors)) for replay comparison.
fn quarantine_race(seed: u64, run: u32) -> (u64, Vec<(u32, u32)>) {
    let (sp, pad) = quarantine_base(&format!("q-escape-{seed:x}-{run}"));
    let bad_page = (pad + 100) / PAGE_SIZE;
    let readers = 2usize;
    let ts = Turnstile::new(readers + 1, seed);
    let tallies: std::sync::Mutex<Vec<(u32, u32)>> =
        std::sync::Mutex::new(vec![(0, 0); readers]);
    // The fault is planted only once every reader holds an open handle:
    // setup (adopt, root open, handle creation) unwraps guarded reads, so
    // quarantining mid-setup would panic a reader instead of exercising
    // the per-op error path this test is about. `ready` transitions at
    // schedule-determined points, so the race stays replayable per seed.
    let ready = std::sync::atomic::AtomicUsize::new(0);

    std::thread::scope(|s| {
        for t in 0..readers {
            let (sp, ts, tallies, ready) = (&sp, &ts, &tallies, &ready);
            s.spawn(move || {
                // First yield *before* touching the pool: setup takes real
                // pool locks and must be serialized under the baton too.
                if ts.yield_point(t).is_err() {
                    ts.finish(t);
                    return;
                }
                let mut space = AddressSpace::new(seed ^ (t as u64 + 1));
                let pool = space.adopt_shared(sp).unwrap();
                let mut env = ExecEnv::builder(space).mode(Mode::Hw).pool(pool).build();
                let desc = env.root(site!("cm.q-open", KnownReturn)).unwrap();
                let idx = ConcHash::open(desc);
                let yielder = || {
                    ts.yield_point(t).map_err(|_| HeapError::CrashInjected { writes: u64::MAX })
                };
                let mut h =
                    Handle::new(&mut env, FlushStrategy::FliT).unwrap().with_yielder(&yielder);
                ready.fetch_add(1, std::sync::atomic::Ordering::Release);
                let (mut ok, mut media) = (0u32, 0u32);
                for j in 0..16u64 {
                    // Read-only ops may touch no flush point, so yield
                    // explicitly between ops — otherwise a reader runs
                    // its whole script in one baton hold and the
                    // quarantine window can never interleave with it.
                    if ts.yield_point(t).is_err() {
                        break;
                    }
                    let k = (j * 7 + t as u64) % QKEYS;
                    match idx.get(&mut h, k) {
                        Ok(got) => {
                            assert_eq!(
                                got,
                                Some(qvalue(k)),
                                "reader {t} op {j}: wrong value for key {k} (seed {seed})"
                            );
                            ok += 1;
                        }
                        Err(HeapError::MediaCorruption { page, .. }) => {
                            assert_eq!(
                                page, bad_page,
                                "reader {t} op {j}: quarantine named the wrong page (seed {seed})"
                            );
                            media += 1;
                        }
                        Err(other) => panic!("reader {t} op {j}: unexpected error {other} (seed {seed})"),
                    }
                }
                tallies.lock().unwrap()[t] = (ok, media);
                ts.finish(t);
            });
        }
        let (sp, ts, ready) = (&sp, &ts, &ready);
        s.spawn(move || {
            let slot = readers;
            let mut scrub = Scrubber::new(ScrubConfig::default());
            let mut planted = false;
            let mut age = 0u32;
            loop {
                if ts.yield_point(slot).is_err() {
                    break;
                }
                if !planted && ready.load(std::sync::atomic::Ordering::Acquire) == readers {
                    // Plant the retention flip and detect it: the pool
                    // quarantines and guarded reads start refusing.
                    assert!(sp.corrupt_bit(pad + 100, 5), "pad must be resident");
                    assert_eq!(sp.verify_all(), vec![bad_page]);
                    assert_eq!(sp.quarantined_page(), Some(bad_page), "peek sees the page");
                    planted = true;
                    age = 0;
                } else if sp.quarantined_page().is_some() && age >= 2 {
                    // Let readers bounce off the quarantine for a couple of
                    // grants, then run the escape-hatch protocol: salvage,
                    // verify, reseal, release (Scrubber::repair's order).
                    scrub.repair(sp);
                    assert!(sp.quarantined_page().is_none(), "release lifts the peek");
                } else if sp.quarantined_page().is_none() && ts.active_count() <= 1 {
                    break;
                }
                age += 1;
            }
            // Never retire while the pool is still quarantined: readers
            // would be wedged against a quarantine nobody will lift.
            if sp.quarantined_page().is_some() {
                scrub.repair(sp);
            }
            assert_eq!(scrub.stats().repairs, 1, "exactly one repair episode (seed {seed})");
            ts.finish(slot);
        });
    });

    let (i, d, c) = sp.media_flips();
    assert_eq!((i, d, c), (1, 1, 0), "the planted flip is detected, never silent");
    assert!(sp.quarantined_page().is_none());
    (ts.grants(), tallies.into_inner().unwrap())
}

/// Readers racing the quarantine see only typed `MediaCorruption` errors
/// naming the quarantined page (never a wrong value), resume reading the
/// exact pre-fault values once `release_quarantine` lifts the gate, and
/// the whole interleaving replays bit-for-bit per seed.
#[test]
fn quarantine_escape_hatches_race_guarded_readers() {
    for seed in [11u64, 95, 0x5eed] {
        let (grants_a, tallies_a) = quarantine_race(seed, 0);
        let (grants_b, tallies_b) = quarantine_race(seed, 1);
        assert_eq!(grants_a, grants_b, "seed {seed}: schedule diverged across replays");
        assert_eq!(tallies_a, tallies_b, "seed {seed}: reader outcomes diverged across replays");
        for (t, (ok, _)) in tallies_a.iter().enumerate() {
            assert!(*ok > 0, "seed {seed}: reader {t} never completed a read");
        }
        let media_total: u32 = tallies_a.iter().map(|(_, m)| m).sum();
        assert!(media_total > 0, "seed {seed}: no reader ever hit the quarantine window");
    }
}

/// Misusing the release hatch — lifting the quarantine without salvage +
/// reseal — cannot bless the damage: the stale checksum re-detects the
/// same page at the next verify, and only the full repair protocol
/// (salvage, verify, reseal, release) restores guarded access for good.
#[test]
fn premature_quarantine_release_is_recaught_by_the_next_verify() {
    let (sp, pad) = quarantine_base("q-premature");
    let bad_page = (pad + 100) / PAGE_SIZE;
    assert!(sp.corrupt_bit(pad + 100, 5));
    assert_eq!(sp.verify_all(), vec![bad_page]);
    assert_eq!(sp.quarantined_page(), Some(bad_page));

    // Escape hatch misuse: release without repairing anything.
    sp.release_quarantine();
    assert!(sp.quarantined_page().is_none(), "guarded access reopens…");
    assert_eq!(sp.verify_all(), vec![bad_page], "…but the damage is still there");
    assert_eq!(sp.quarantined_page(), Some(bad_page), "and the next verify re-quarantines it");

    // The full protocol clears it for good.
    let mut scrub = Scrubber::new(ScrubConfig::default());
    let pass = scrub.repair(&sp);
    assert!(pass.blocks_recovered > 0);
    assert!(sp.quarantined_page().is_none());
    assert!(sp.verify_all().is_empty(), "reseal blessed the repaired image");
    let (i, d, c) = sp.media_flips();
    assert_eq!(i, d + c, "accounting stays balanced through the misuse");

    // Guarded reads return the exact pre-fault values: the flip struck
    // the pad block, so repair changed no key's bytes.
    let mut space = AddressSpace::new(31);
    let pool = space.adopt_shared(&sp).unwrap();
    let mut env = ExecEnv::builder(space).mode(Mode::Hw).pool(pool).build();
    let desc = env.root(site!("cm.q-after", KnownReturn)).unwrap();
    let idx = ConcHash::open(desc);
    let mut h = Handle::new(&mut env, FlushStrategy::FliT).unwrap();
    for k in 0..QKEYS {
        assert_eq!(idx.get(&mut h, k).unwrap(), Some(qvalue(k)));
    }
}
