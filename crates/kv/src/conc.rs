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
//!    [`SweepFailure`] carrying the replay seed.

use crate::faultsweep::SweepFailure;
use crate::rng::mix;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use utpr_ds::concurrent::{ConcurrentIndex, FlushStrategy, Handle};
use utpr_ds::{ConcHash, ConcList};
use utpr_heap::{
    select_points, AddressSpace, FaultPlan, FlushModel, HeapError, SharedPool, SlabId,
};
use utpr_ptr::{site, ExecEnv, Mode};
use utpr_qc::linear::{check, History, KvOp};
use utpr_qc::sched::Turnstile;

/// Result alias.
pub type Result<T> = std::result::Result<T, HeapError>;

const POOL_BYTES: u64 = 24 << 20;
/// Small key universe so histories overlap heavily and the audit stays
/// enumerable.
pub const KEY_UNIVERSE: u64 = 8;

/// Shape of one concurrent-history crash sweep.
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
    /// Boundary counts up to this are swept exhaustively.
    pub exhaustive_limit: u64,
    /// Seeded sample size above the exhaustive limit.
    pub samples: u64,
    /// Master seed: schedule, op mix, values, sampling.
    pub seed: u64,
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
            exhaustive_limit: 0,
            samples: 10,
            seed,
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
            exhaustive_limit: u64::MAX,
            samples: 0,
            seed,
        }
    }
}

/// What one concurrent sweep produced.
#[derive(Clone, Debug)]
pub struct ConcSweepReport {
    /// Threads interleaved.
    pub threads: u32,
    /// Strategy swept.
    pub strategy: FlushStrategy,
    /// Durable-write boundaries the full schedule crosses.
    pub boundaries: u64,
    /// Crash points actually tested.
    pub tested: u64,
    /// Trials whose crash left at least one operation pending.
    pub torn: u64,
    /// Crash points whose recovered state failed an oracle.
    pub failures: Vec<SweepFailure>,
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
    let sp = SharedPool::create(name, POOL_BYTES, 8)?;
    sp.set_flush_model(FlushModel::Adr);
    let slabs: Vec<SlabId> = (0..spec.threads)
        .map(|_| sp.carve_slab(96 << 10))
        .collect::<Result<Vec<_>>>()?;

    let mut space = AddressSpace::new(mix(spec.seed, 0xC5E7));
    let pool = space.adopt_shared(&sp)?;
    let mut env = ExecEnv::builder(space).mode(Mode::Hw).pool(pool).build();
    let idx = I::create(&mut env)?;
    let mut h = Handle::new(&mut env, spec.strategy)?;
    for i in 0..spec.prepopulate {
        idx.insert(&mut h, prepop_key(i), prepop_val(spec.seed, i))?;
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
        let (k, v) = (prepop_key(i), prepop_val(spec.seed, i));
        let id = hist.begin(u32::MAX, KvOp::Insert(k, v));
        hist.complete(id, model.insert(k, v));
    }
    hist
}

struct DriveOut {
    history: History,
    crashed: bool,
    hard: Option<String>,
}

/// Runs the full turnstile schedule against `sp` with real threads.
fn drive<I: ConcurrentIndex>(
    sp: &Arc<SharedPool>,
    slabs: &[SlabId],
    spec: &ConcSweepSpec,
) -> Result<DriveOut> {
    let ts = Arc::new(Turnstile::new(spec.threads as usize, spec.seed));
    let hist = Arc::new(Mutex::new(seed_history(spec)));
    let hard: Arc<Mutex<Option<String>>> = Arc::new(Mutex::new(None));

    std::thread::scope(|s| {
        for t in 0..spec.threads as usize {
            let (sp, ts, hist, hard) = (sp, Arc::clone(&ts), Arc::clone(&hist), Arc::clone(&hard));
            s.spawn(move || {
                let run = || -> Result<()> {
                    let mut space = AddressSpace::new(mix(spec.seed, 0xD21 ^ (t as u64 + 1)));
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
                        let op = op_of(spec.seed, t as u64, j);
                        let id = hist.lock().expect("history").begin(t as u32, op);
                        let result = match op {
                            KvOp::Insert(k, v) => idx.insert(&mut h, k, v),
                            KvOp::Remove(k) => idx.remove(&mut h, k),
                            KvOp::Get(k) => idx.get(&mut h, k),
                        };
                        match result {
                            Ok(r) => hist.lock().expect("history").complete(id, r),
                            Err(e) => return Err(e), // op stays pending
                        }
                    }
                    Ok(())
                };
                match run() {
                    Ok(()) => {}
                    Err(HeapError::CrashInjected { .. }) => ts.crash(),
                    Err(e) => {
                        *hard.lock().expect("hard") = Some(format!("thread {t}: {e}"));
                        ts.crash();
                    }
                }
                ts.finish(t);
            });
        }
    });

    let crashed = ts.crashed();
    let history = Arc::try_unwrap(hist).expect("history refs").into_inner().expect("history");
    let hard = Arc::try_unwrap(hard).expect("hard refs").into_inner().expect("hard");
    Ok(DriveOut { history, crashed, hard })
}

/// Drives one armed trial, power-cycles, recovers, audits, checks.
fn check_point<I: ConcurrentIndex>(
    base: &Arc<SharedPool>,
    slabs: &[SlabId],
    spec: &ConcSweepSpec,
    k: u64,
) -> std::result::Result<bool, String> {
    let e2s = |e: HeapError| format!("harness error: {e}");
    let trial = base.snapshot();
    trial.set_faults(FaultPlan::crash_at(k));
    let d = drive::<I>(&trial, slabs, spec).map_err(e2s)?;
    if let Some(h) = d.hard {
        return Err(format!("armed run died of a non-crash error: {h}"));
    }
    if !d.crashed {
        return Err("armed run completed without crashing".into());
    }
    let torn = d.history.pending() > 0;

    // Power failure: unflushed lines drain (by the torn lottery when the
    // plan tears), tags die with the caches, then the gate disarms.
    trial.crash_restart();

    // Restart: fresh shard adopts the image and audits everything.
    let mut rspace = AddressSpace::new(mix(spec.seed, 0x42EC ^ k));
    let rpool = rspace.adopt_shared(&trial).map_err(e2s)?;
    trial.validate().map_err(|e| format!("allocator invariants violated: {e}"))?;
    let mut env = ExecEnv::builder(rspace).mode(Mode::Hw).pool(rpool).build();
    let desc = env.root(site!("conc.sweep-check", KnownReturn)).map_err(e2s)?;
    let idx = I::open(desc);
    match catch_unwind(AssertUnwindSafe(|| idx.validate(&mut env))) {
        Ok(Ok(_)) => {}
        Ok(Err(e)) => return Err(format!("validator errored: {e}")),
        Err(_) => return Err("structure invariant violated after recovery".into()),
    }

    // Append the recovered state as completed audit reads, then ask the
    // checker whether it is a legal cut of the crashed execution.
    let mut history = d.history;
    let mut h = Handle::new(&mut env, spec.strategy).map_err(e2s)?;
    for key in 0..KEY_UNIVERSE {
        let id = history.begin(u32::MAX - 1, KvOp::Get(key));
        let got = idx.get(&mut h, key).map_err(e2s)?;
        history.complete(id, got);
    }
    check(&history).map_err(|detail| format!("durable linearizability refuted: {detail}"))?;
    Ok(torn)
}

/// Sweeps crash boundaries of an N-thread lock-free history under one
/// flush strategy; see the module docs.
///
/// # Errors
///
/// Propagates setup failures (consistency findings land in
/// [`ConcSweepReport::failures`]).
///
/// # Panics
///
/// Panics when `spec.threads` is zero.
pub fn conc_crash_sweep<I: ConcurrentIndex>(spec: &ConcSweepSpec) -> Result<ConcSweepReport> {
    assert!(spec.threads > 0, "sweep over zero threads");
    let name = format!(
        "conc-sweep-{}-{}-{:x}",
        I::NAME,
        spec.strategy.label(),
        mix(spec.seed, 0x5EED)
    );
    let (base, slabs) = build_base::<I>(spec, &name)?;

    // Count the schedule's durable-write boundaries.
    let counting = base.snapshot();
    counting.set_faults(FaultPlan::counting());
    let d = drive::<I>(&counting, &slabs, spec)?;
    if let Some(h) = d.hard {
        return Err(HeapError::ModeDivergence {
            benchmark: "conc-sweep-counting",
            details: h,
        });
    }
    debug_assert!(!d.crashed, "counting plan never trips");
    let total = counting.faults().writes();

    let points = select_points(total, spec.exhaustive_limit, spec.samples, spec.seed);
    let mut report = ConcSweepReport {
        threads: spec.threads,
        strategy: spec.strategy,
        boundaries: total,
        tested: points.len() as u64,
        torn: 0,
        failures: Vec::new(),
    };
    for k in points {
        match check_point::<I>(&base, &slabs, spec, k) {
            Ok(true) => report.torn += 1,
            Ok(false) => {}
            Err(detail) => {
                report.failures.push(SweepFailure { crash_point: k, seed: spec.seed, detail });
            }
        }
    }
    Ok(report)
}

/// Convenience: sweeps the hash map under every flush strategy.
///
/// # Errors
///
/// Propagates setup failures.
pub fn conc_sweep_all_strategies(seed: u64) -> Result<Vec<ConcSweepReport>> {
    FlushStrategy::ALL
        .iter()
        .map(|s| conc_crash_sweep::<ConcHash>(&ConcSweepSpec::small(seed, *s)))
        .collect()
}

/// The list variant of [`conc_sweep_all_strategies`].
///
/// # Errors
///
/// Propagates setup failures.
pub fn conc_sweep_list(seed: u64, strategy: FlushStrategy) -> Result<ConcSweepReport> {
    conc_crash_sweep::<ConcList>(&ConcSweepSpec::small(seed, strategy))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conc_sweep_hash_all_strategies_is_clean() {
        for r in conc_sweep_all_strategies(13).unwrap() {
            assert!(r.boundaries > 0, "{:?}: schedule must cross durable writes", r.strategy);
            assert_eq!(r.tested, 10.min(r.boundaries), "{:?} sample budget", r.strategy);
            assert!(r.failures.is_empty(), "{:?}: {:?}", r.strategy, r.failures);
        }
    }

    #[test]
    fn conc_sweep_list_exhaustive_two_threads_is_clean() {
        let spec = ConcSweepSpec::exhaustive(7, FlushStrategy::Traverse);
        let r = conc_crash_sweep::<ConcList>(&spec).unwrap();
        assert_eq!(r.tested, r.boundaries, "exhaustive sweep hits every boundary");
        assert!(r.torn > 0, "some crash points must cut an operation mid-flight");
        assert!(r.failures.is_empty(), "{:?}", r.failures);
    }

    #[test]
    fn conc_sweep_replays_under_a_fixed_seed() {
        let spec = ConcSweepSpec::small(99, FlushStrategy::FliT);
        let a = conc_crash_sweep::<ConcHash>(&spec).unwrap();
        let b = conc_crash_sweep::<ConcHash>(&spec).unwrap();
        assert_eq!(a.boundaries, b.boundaries, "same seed, same schedule");
        assert_eq!(a.torn, b.torn);
        assert_eq!(a.failures.len(), b.failures.len());
    }
}
