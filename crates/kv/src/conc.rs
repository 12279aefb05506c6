//! Concurrent-history crash sweeps with a durable-linearizability
//! oracle.
//!
//! [`crate::mt::mt_crash_sweep`] interleaves *transactions* serially, so
//! its oracle is per-thread prefix recovery. The sweep here goes one
//! level finer: N **real** OS threads run lock-free
//! [`ConcurrentIndex`] operations whose loads/stores/CAS genuinely
//! interleave mid-operation, serialized one access at a time by a
//! seeded [`Turnstile`], so the whole run — CAS winners, retry loops,
//! the armed crash boundary — replays bit-for-bit from
//! `(seed, crash point)` on any host (the `UTPR_QC_SEED` contract).
//!
//! Each trial:
//!
//! 1. snapshots the prepopulated base image and arms the pool's fault
//!    gate at durable-write boundary `k`;
//! 2. drives the turnstile schedule, recording an invoke/response
//!    [`History`] of every operation; the gate trip stops all threads
//!    at their next yield, leaving in-flight operations *pending*;
//! 3. power-cycles the pool — under [`FlushModel::Adr`] every line that
//!    was written but never flushed+fenced reverts to its durable
//!    image, which is what distinguishes the flush strategies' crash
//!    exposure;
//! 4. recovers: a fresh shard adopts the image, allocator invariants
//!    and the structure's own invariant walk must hold, and a full
//!    audit of the key universe is appended to the history as completed
//!    reads;
//! 5. hands the history to the Wing&Gong checker
//!    ([`utpr_qc::linear::check`]): the audited state must be a legal
//!    cut of the crashed execution — completed operations durable,
//!    pending ones included or dropped. Any refusal is a
//!    [`crate::SweepFailure`] carrying the replay seed.
//!
//! Census, arming and the trial loop are the crate's one crash-point
//! skeleton ([`crate::faultsweep`]); a trial whose crash left an operation
//! pending counts as a [`SweepReport::rollbacks`].

use crate::faultsweep::{
    census_shared, check_invariants, crash_shared, harness_error, run_sweep, CrashPoints, Driven,
    SweepReport, Trial,
};
use crate::rng::mix;
use std::sync::{Arc, Mutex};
use utpr_ds::concurrent::{ConcurrentIndex, FlushStrategy, Handle};
use utpr_heap::{AddressSpace, FaultPlan, FlushModel, HeapError, SharedPool, SlabId};
use utpr_ptr::{site, ExecEnv, Mode};
use utpr_qc::linear::{check, History, KvOp};
use utpr_qc::sched::Turnstile;

/// Result alias.
pub type Result<T> = std::result::Result<T, HeapError>;

const POOL_BYTES: u64 = 24 << 20;
/// Small key universe so histories overlap heavily and the audit stays
/// enumerable.
pub const KEY_UNIVERSE: u64 = 8;

/// Shape of one concurrent-history crash sweep. Crashes are clean: the
/// base image is ADR, so a crash still drops every unfenced line.
#[derive(Clone, Copy, Debug)]
pub struct ConcSweepSpec {
    /// Real OS threads under the turnstile.
    pub threads: u32,
    /// Lock-free operations per thread.
    pub ops_per_thread: u64,
    /// Keys committed (and history-seeded) before the gate is armed.
    pub prepopulate: u64,
    /// Flush strategy every handle follows.
    pub strategy: FlushStrategy,
    /// Which boundaries to crash at; its seed also drives the schedule,
    /// the op mix and the values.
    pub points: CrashPoints,
}

impl ConcSweepSpec {
    /// Tier-1 scale: 3 threads, sampled boundaries, one strategy.
    #[must_use]
    pub fn small(seed: u64, strategy: FlushStrategy) -> ConcSweepSpec {
        ConcSweepSpec {
            threads: 3,
            ops_per_thread: 4,
            prepopulate: 3,
            strategy,
            points: CrashPoints::sampled(seed, 10),
        }
    }

    /// Verify scale: every boundary of a 2-thread history.
    #[must_use]
    pub fn exhaustive(seed: u64, strategy: FlushStrategy) -> ConcSweepSpec {
        ConcSweepSpec {
            threads: 2,
            ops_per_thread: 3,
            prepopulate: 2,
            strategy,
            points: CrashPoints::every(seed),
        }
    }
}

fn prepop_key(i: u64) -> u64 {
    i % KEY_UNIVERSE
}
fn prepop_val(seed: u64, i: u64) -> u64 {
    mix(seed, 0xBA5E ^ i) >> 1
}

fn op_of(seed: u64, t: u64, j: u64) -> KvOp {
    let salt = (t << 24) ^ j;
    let r = mix(seed, 0xC0DE ^ salt);
    let key = mix(seed, 0x1E7 ^ salt) % KEY_UNIVERSE;
    match r % 4 {
        0 | 1 => KvOp::Insert(key, mix(seed, 0x7A1 ^ salt) >> 1),
        2 => KvOp::Get(key),
        _ => KvOp::Remove(key),
    }
}

/// Builds the base image: shared pool in ADR mode, one slab per thread,
/// one structure prepopulated single-threaded, descriptor in the root.
fn build_base<I: ConcurrentIndex>(
    spec: &ConcSweepSpec,
    name: &str,
) -> Result<(Arc<SharedPool>, Vec<SlabId>)> {
    let seed = spec.points.seed;
    let sp = SharedPool::create(name, POOL_BYTES, 8)?;
    sp.set_flush_model(FlushModel::Adr);
    let slabs: Vec<SlabId> = (0..spec.threads)
        .map(|_| sp.carve_slab(96 << 10))
        .collect::<Result<Vec<_>>>()?;

    let mut space = AddressSpace::new(mix(seed, 0xC5E7));
    let pool = space.adopt_shared(&sp)?;
    let mut env = ExecEnv::builder(space).mode(Mode::Hw).pool(pool).build();
    let idx = I::create(&mut env)?;
    let mut h = Handle::new(&mut env, spec.strategy)?;
    for i in 0..spec.prepopulate {
        idx.insert(&mut h, prepop_key(i), prepop_val(seed, i))?;
    }
    env.set_root(site!("conc.sweep-root", StackLocal), idx.descriptor())?;
    env.space_mut().fence();
    Ok((sp, slabs))
}

/// Seeds a fresh history with the prepopulated contents as completed
/// sequential inserts, so the checker's model starts from the right
/// state.
fn seed_history(spec: &ConcSweepSpec) -> History {
    let mut hist = History::new();
    let mut model = std::collections::BTreeMap::new();
    for i in 0..spec.prepopulate {
        let (k, v) = (prepop_key(i), prepop_val(spec.points.seed, i));
        let id = hist.begin(u32::MAX, KvOp::Insert(k, v));
        hist.complete(id, model.insert(k, v));
    }
    hist
}

/// Runs the full turnstile schedule against `sp` with real threads,
/// recording the invoke/response history.
fn drive<I: ConcurrentIndex>(
    sp: &Arc<SharedPool>,
    slabs: &[SlabId],
    spec: &ConcSweepSpec,
) -> Driven<History> {
    let seed = spec.points.seed;
    let ts = Turnstile::new(spec.threads as usize, seed);
    let hist = Mutex::new(seed_history(spec));
    let hard: Mutex<Option<HeapError>> = Mutex::new(None);

    std::thread::scope(|s| {
        for t in 0..spec.threads as usize {
            let (ts, hist, hard) = (&ts, &hist, &hard);
            s.spawn(move || {
                let run = || -> Result<()> {
                    let mut space = AddressSpace::new(mix(seed, 0xD21 ^ (t as u64 + 1)));
                    let pool = space.adopt_shared(sp)?;
                    space.bind_arena_slab(pool, slabs[t])?;
                    let mut env = ExecEnv::builder(space).mode(Mode::Hw).pool(pool).build();
                    let desc = env.root(site!("conc.sweep-open", KnownReturn))?;
                    let idx = I::open(desc);
                    let yielder = || {
                        ts.yield_point(t)
                            .map_err(|_| HeapError::CrashInjected { writes: u64::MAX })
                    };
                    let mut h =
                        Handle::new(&mut env, spec.strategy)?.with_yielder(&yielder);
                    for j in 0..spec.ops_per_thread {
                        let op = op_of(seed, t as u64, j);
                        let id = hist.lock().expect("history").begin(t as u32, op);
                        let r = match op {
                            KvOp::Insert(k, v) => idx.insert(&mut h, k, v),
                            KvOp::Remove(k) => idx.remove(&mut h, k),
                            KvOp::Get(k) => idx.get(&mut h, k),
                        }?; // an error leaves the op pending
                        hist.lock().expect("history").complete(id, r);
                    }
                    Ok(())
                };
                match run() {
                    Ok(()) => {}
                    Err(HeapError::CrashInjected { .. }) => ts.crash(),
                    Err(e) => {
                        *hard.lock().expect("hard") = Some(e);
                        ts.crash();
                    }
                }
                ts.finish(t);
            });
        }
    });

    Driven {
        out: hist.into_inner().expect("history"),
        crashed: ts.crashed(),
        hard: hard.into_inner().expect("hard"),
    }
}

/// Drives one armed trial, power-cycles, recovers, audits, checks.
fn check_point<I: ConcurrentIndex>(
    base: &Arc<SharedPool>,
    slabs: &[SlabId],
    spec: &ConcSweepSpec,
    k: u64,
) -> std::result::Result<Trial, String> {
    let (image, mut history) =
        crash_shared(base, FaultPlan::crash_at(k), |sp| Ok(drive::<I>(sp, slabs, spec)))?;
    let cut = history.pending() > 0;

    // Restart: fresh shard adopts the image and audits everything.
    let mut rspace = AddressSpace::new(mix(spec.points.seed, 0x42EC ^ k));
    let rpool = rspace.adopt_shared(&image).map_err(harness_error)?;
    image.validate().map_err(|e| format!("allocator invariants violated: {e}"))?;
    let mut env = ExecEnv::builder(rspace).mode(Mode::Hw).pool(rpool).build();
    let desc = env.root(site!("conc.sweep-check", KnownReturn)).map_err(harness_error)?;
    let idx = I::open(desc);
    check_invariants(|| idx.validate(&mut env))?;

    // Append the recovered state as completed audit reads, then ask the
    // checker whether it is a legal cut of the crashed execution.
    let mut h = Handle::new(&mut env, spec.strategy).map_err(harness_error)?;
    for key in 0..KEY_UNIVERSE {
        let id = history.begin(u32::MAX - 1, KvOp::Get(key));
        let got = idx.get(&mut h, key).map_err(harness_error)?;
        history.complete(id, got);
    }
    check(&history).map_err(|detail| format!("durable linearizability refuted: {detail}"))?;
    Ok(if cut { Trial::RolledBack } else { Trial::Intact })
}

/// Sweeps crash boundaries of an N-thread lock-free history under one
/// flush strategy; see the module docs.
///
/// # Errors
///
/// Propagates setup failures (consistency findings land in
/// [`SweepReport::failures`]).
///
/// # Panics
///
/// Panics when `spec.threads` is zero.
pub fn conc_crash_sweep<I: ConcurrentIndex>(spec: &ConcSweepSpec) -> Result<SweepReport> {
    assert!(spec.threads > 0, "sweep over zero threads");
    let name = format!(
        "conc-sweep-{}-{}-{:x}",
        I::NAME,
        spec.strategy.label(),
        mix(spec.points.seed, 0x5EED)
    );
    let (base, slabs) = build_base::<I>(spec, &name)?;
    let total = census_shared(&base, |sp| Ok(drive::<I>(sp, &slabs, spec)))?;
    Ok(run_sweep(I::NAME, total, &spec.points, |k| check_point::<I>(&base, &slabs, spec, k)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use utpr_ds::{ConcHash, ConcList, IndexCore};

    #[test]
    fn conc_sweep_hash_all_strategies_is_clean() {
        for s in FlushStrategy::ALL {
            let r = conc_crash_sweep::<ConcHash>(&ConcSweepSpec::small(13, s)).unwrap();
            assert!(r.boundaries > 0, "{s:?}: schedule must cross durable writes");
            assert_eq!(r.tested, 10.min(r.boundaries), "{s:?} sample budget");
            assert!(r.failures.is_empty(), "{s:?}: {:?}", r.failures);
        }
    }

    /// Clean across seeds, not only the one above: several of these
    /// histories linearize only after the checker has rejected another
    /// candidate at the same search node.
    #[test]
    fn conc_sweep_hash_small_is_clean_across_seeds() {
        for seed in 0..8 {
            let spec = ConcSweepSpec::small(seed, FlushStrategy::Traverse);
            let r = conc_crash_sweep::<ConcHash>(&spec).unwrap();
            assert!(r.failures.is_empty(), "seed {seed}: {:?}", r.failures);
        }
    }

    /// A history longer than 128 operations: 3 × 48 ops, 3 prepopulated
    /// inserts and the 8-key audit make 155, checked key by key.
    #[test]
    fn conc_sweep_hash_long_history_is_clean() {
        for s in FlushStrategy::ALL {
            let spec = ConcSweepSpec { ops_per_thread: 48, ..ConcSweepSpec::small(13, s) };
            let r = conc_crash_sweep::<ConcHash>(&spec).unwrap();
            assert_eq!(r.tested, 10.min(r.boundaries), "{s:?} sample budget");
            assert!(r.failures.is_empty(), "{s:?}: {:?}", r.failures);
        }
    }

    #[test]
    fn conc_sweep_list_exhaustive_two_threads_is_clean() {
        let spec = ConcSweepSpec::exhaustive(7, FlushStrategy::Traverse);
        let r = conc_crash_sweep::<ConcList>(&spec).unwrap();
        assert_eq!(r.tested, r.boundaries, "exhaustive sweep hits every boundary");
        assert!(r.rollbacks > 0, "some crash points must cut an operation mid-flight");
        assert!(r.failures.is_empty(), "{:?}", r.failures);
    }

    /// `ConcHash`'s descriptor is `[head, level, segments…]`.
    fn directory_level(sp: &Arc<SharedPool>) -> u64 {
        let mut space = AddressSpace::new(0x1e7e1);
        let pool = space.adopt_shared(sp).unwrap();
        let mut env = ExecEnv::builder(space).mode(Mode::Hw).pool(pool).build();
        let desc = env.root(site!("conc.test-root", KnownReturn)).unwrap();
        env.read_u64(site!("conc.test-level", Param), desc, 8).unwrap()
    }

    /// Adds `n` keys outside the audited universe, in descending order of
    /// `ConcHash`'s chain key (`key · 0x9e37_79b9_7f4a_7c15`): each lands
    /// at the head, so no walk while building is long and the base image
    /// keeps a one-bucket directory over a long chain.
    fn add_ballast(sp: &Arc<SharedPool>, n: u64) {
        let mut space = AddressSpace::new(0xba11);
        let pool = space.adopt_shared(sp).unwrap();
        let mut env = ExecEnv::builder(space).mode(Mode::Hw).pool(pool).build();
        let idx = ConcHash::open(env.root(site!("conc.test-root", KnownReturn)).unwrap());
        let mut keys: Vec<u64> = (KEY_UNIVERSE..KEY_UNIVERSE + n).collect();
        keys.sort_by_key(|k| std::cmp::Reverse(k.wrapping_mul(0x9e37_79b9_7f4a_7c15)));
        let mut h = Handle::new(&mut env, FlushStrategy::Eager).unwrap();
        for k in keys {
            idx.insert(&mut h, k, k).unwrap();
        }
        drop(h);
        env.space_mut().fence();
    }

    /// The armed window of this sweep grows `ConcHash`'s directory, so its
    /// level, segment and finger writes are among the crash points, and
    /// every one of them recovers.
    #[test]
    fn conc_sweep_hash_growing_its_directory_is_clean() {
        for s in FlushStrategy::ALL {
            let spec = ConcSweepSpec::exhaustive(7, s);
            let (base, slabs) =
                build_base::<ConcHash>(&spec, &format!("conc-grow-{}", s.label())).unwrap();
            add_ballast(&base, 48);
            assert_eq!(directory_level(&base), 0, "{s:?}: the base image must not have grown");

            let census = base.snapshot();
            census.set_faults(FaultPlan::counting());
            let run = drive::<ConcHash>(&census, &slabs, &spec);
            assert!(run.hard.is_none() && !run.crashed, "{s:?}: census run failed");
            assert!(directory_level(&census) >= 2, "{s:?}: the window must grow the directory");

            let total =
                census_shared(&base, |sp| Ok(drive::<ConcHash>(sp, &slabs, &spec))).unwrap();
            let r = run_sweep(ConcHash::NAME, total, &spec.points, |k| {
                check_point::<ConcHash>(&base, &slabs, &spec, k)
            });
            assert_eq!(r.tested, r.boundaries, "{s:?}: exhaustive");
            assert!(r.failures.is_empty(), "{s:?}: {:?}", r.failures);
        }
    }

    #[test]
    fn conc_sweep_replays_under_a_fixed_seed() {
        let spec = ConcSweepSpec::small(99, FlushStrategy::FliT);
        let a = conc_crash_sweep::<ConcHash>(&spec).unwrap();
        let b = conc_crash_sweep::<ConcHash>(&spec).unwrap();
        assert_eq!(a.boundaries, b.boundaries, "same seed, same schedule");
        assert_eq!(a.rollbacks, b.rollbacks);
        assert_eq!(a.failures.len(), b.failures.len());
    }
}
