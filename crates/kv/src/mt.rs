//! Multicore YCSB harness and seeded-schedule concurrent crash sweeps.
//!
//! Two drivers share one layout — a [`utpr_heap::SharedPool`] split into
//! per-thread partitions, each with its own slab, store, and undo-log
//! slot — but exercise it in opposite regimes:
//!
//! * [`run_mt_ycsb`] spawns **real OS threads**. Each worker owns a
//!   private [`AddressSpace`] shard and a private cycle-level
//!   [`Machine`] (one simulated core), adopts the shared pool, binds its
//!   slab, and runs the YCSB-A load + operation phases over its
//!   partitions. Throughput is modelled as total operations over the
//!   *makespan* — the slowest core's cycle count — which is how the
//!   harness reports scaling on any host, even a single-core one.
//!   Because every partition's allocations come from its own slab cursor
//!   and values never depend on layout, the combined checksum is
//!   bit-identical for a given `seed` across *all* thread counts.
//! * [`mt_crash_sweep`] drives N **logical** threads serially in a
//!   [`utpr_qc::sched::schedule`] interleaving, so an armed crash
//!   boundary ([`FaultFlavor::plan`]) lands at a reproducible point in
//!   a genuinely interleaved multi-thread history. Recovery adopts the
//!   crashed image in a fresh space and rolls back **every** thread's
//!   undo-log slot ([`UndoLog::recover`] walks the whole slot
//!   directory); the faultsweep oracle battery then runs per thread, on
//!   the crate's one crash-point loop ([`crate::faultsweep`]). Any
//!   failure replays from `(seed, crash point)` alone — the same
//!   `UTPR_QC_SEED` contract as the property runner.
//!
//! The pool-wide gate counts durable writes across all threads like one
//! machine-wide power failure. By default the base image is eADR and the
//! crashes are clean; [`MtSweepSpec::torn`] switches to an ADR base image
//! and torn crashes, where the power cycle drains every unfenced line by
//! the plan's seeded per-word lottery before recovery.

use crate::faultsweep::{
    census_shared, check_invariants, crash_shared, harness_error, run_sweep, CrashPoints, Driven,
    FaultFlavor, SweepReport, Trial,
};
use crate::rng::mix;
use crate::store::{KvStore, RunSummary};
use crate::ycsb::{generate_preset, Preset};
use std::sync::Arc;
use utpr_ds::{IndexCore, RbTree};
use utpr_heap::{AddressSpace, HeapError, SharedPool, SlabId, TransStats, UndoLog};
use utpr_ptr::{site, ExecEnv, Mode, NullSink, PtrStats};
use utpr_qc::sched::{schedule, steps, Policy};
use utpr_sim::{Machine, RangeEntry, SimConfig};

/// Result alias.
pub type Result<T> = std::result::Result<T, HeapError>;

/// The pool is split into this many partitions regardless of thread
/// count, so every thread count executes the *same* work set and the
/// combined checksum is comparable across 1/2/4/8/16 threads.
pub const PARTITIONS: u64 = 16;

const POOL_BYTES: u64 = 64 << 20;

// ---- multi-threaded YCSB ---------------------------------------------------

/// Shape of one multi-threaded YCSB-A run.
#[derive(Clone, Copy, Debug)]
pub struct MtSpec {
    /// Records loaded across all partitions.
    pub records: u64,
    /// Operations executed across all partitions.
    pub operations: u64,
    /// Worker threads; must divide [`PARTITIONS`].
    pub threads: u32,
    /// Master seed: workloads and shard layouts all derive from it.
    pub seed: u64,
}

impl MtSpec {
    /// A run of `threads` workers at the given scale.
    #[must_use]
    pub fn new(records: u64, operations: u64, threads: u32, seed: u64) -> MtSpec {
        MtSpec { records, operations, threads, seed }
    }
}

/// What a multi-threaded run produced, with per-thread counters merged on
/// join.
#[derive(Clone, Copy, Debug)]
pub struct MtResult {
    /// Worker threads that ran.
    pub threads: u32,
    /// Partition-ordered fold of every partition's value checksum —
    /// bit-identical across thread counts for a fixed seed.
    pub checksum: u64,
    /// Modelled wall-clock: the slowest core's cycle count.
    pub makespan_cycles: f64,
    /// Sum of all cores' cycles (the modelled CPU time).
    pub total_cycles: f64,
    /// GET operations executed.
    pub gets: u64,
    /// GETs that found their key.
    pub hits: u64,
    /// SET operations executed.
    pub sets: u64,
    /// Arena lease refills served by the shared lower layer.
    pub refills: u64,
    /// Central-allocator entries (slab carving, large allocs, fallbacks).
    pub central_allocs: u64,
    /// Times a bound slab was exhausted and a lease fell back to central.
    pub slab_overflows: u64,
    /// Host bytes resident in the shared pool.
    pub resident_bytes: u64,
    /// Per-thread translation-lookaside counters, merged on join.
    pub trans: TransStats,
    /// Per-thread pointer-op counters, merged on join.
    pub ptr: PtrStats,
}

impl MtResult {
    /// Total operations executed.
    pub fn operations(&self) -> u64 {
        self.gets + self.sets
    }
}

struct WorkerOut {
    summaries: Vec<(u64, RunSummary)>,
    cycles: f64,
    trans: TransStats,
    ptr: PtrStats,
}

/// One worker: a private shard + one simulated core over its partitions.
fn bench_worker(
    sp: &Arc<SharedPool>,
    slabs: &[SlabId],
    spec: &MtSpec,
    t: u32,
) -> Result<WorkerOut> {
    let mut space = AddressSpace::new(mix(spec.seed, 0x7468_7264 ^ u64::from(t)));
    let pool = space.adopt_shared(sp)?;
    let ranges: Vec<RangeEntry> = space
        .attachments()
        .iter()
        .map(|a| RangeEntry { base: a.base.raw(), size: a.size, pool: a.pool.raw() })
        .collect();
    let mut machine = Machine::new(SimConfig::table_iv());
    machine.set_pool_ranges(ranges);
    let mut env = ExecEnv::builder(space)
        .mode(Mode::Hw)
        .pool(pool)
        .txn_slot(u64::from(t))
        .sink(machine)
        .build();

    let per_records = (spec.records / PARTITIONS).max(1);
    let per_ops = (spec.operations / PARTITIONS).max(1);
    let mut summaries = Vec::new();
    let mut p = u64::from(t);
    while p < PARTITIONS {
        // The partition's slab is the worker's allocation arena: loads in
        // this (parallel) phase refill leases from it without the central
        // lock, and its cursor keeps every offset thread-timing-free.
        env.space_mut().bind_arena_slab(pool, slabs[p as usize])?;
        let mut store: KvStore<RbTree> = KvStore::create(&mut env)?;
        let w = generate_preset(Preset::A, per_records, per_ops, spec.seed.wrapping_add(p + 1));
        store.load(&mut env, &w)?;
        summaries.push((p, store.run(&mut env, &w)?));
        p += u64::from(spec.threads);
    }

    let trans = env.space().trans_stats();
    let (_space, ptr, machine) = env.into_parts();
    Ok(WorkerOut { summaries, cycles: machine.cycles(), trans, ptr })
}

/// Runs YCSB-A over one shared pool with `spec.threads` OS threads.
///
/// # Errors
///
/// Propagates pool formatting and workload failures from any worker.
///
/// # Panics
///
/// Panics when `spec.threads` is zero or does not divide [`PARTITIONS`].
pub fn run_mt_ycsb(spec: &MtSpec) -> Result<MtResult> {
    let t64 = u64::from(spec.threads);
    assert!(
        spec.threads > 0 && t64 <= PARTITIONS && PARTITIONS % t64 == 0,
        "threads must divide {PARTITIONS}, got {}",
        spec.threads
    );
    let per_records = (spec.records / PARTITIONS).max(1);
    let sp = SharedPool::create("mt-ycsb", POOL_BYTES, 64)?;
    // Room per partition for its record nodes plus lease-carve slack.
    let slab_bytes = (64 << 10) + per_records * 192;
    let slabs: Vec<SlabId> =
        (0..PARTITIONS).map(|_| sp.carve_slab(slab_bytes)).collect::<Result<Vec<_>>>()?;

    let outs: Vec<Result<WorkerOut>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..spec.threads)
            .map(|t| {
                let (sp, slabs) = (&sp, &slabs);
                s.spawn(move || bench_worker(sp, slabs, spec, t))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
    });

    let mut summaries: Vec<(u64, RunSummary)> = Vec::new();
    let (mut makespan, mut total_cycles) = (0f64, 0f64);
    let mut trans = TransStats::default();
    let mut ptr = PtrStats::new();
    for out in outs {
        let o = out?;
        makespan = makespan.max(o.cycles);
        total_cycles += o.cycles;
        trans.merge(&o.trans);
        ptr += o.ptr;
        summaries.extend(o.summaries);
    }
    summaries.sort_by_key(|(p, _)| *p);

    let (mut checksum, mut gets, mut hits, mut sets) = (0u64, 0, 0, 0);
    for (_, s) in &summaries {
        // Order-sensitive fold in partition order, which is fixed no
        // matter which thread ran which partition.
        checksum = checksum.wrapping_mul(0x100_0000_01b3).wrapping_add(s.checksum);
        gets += s.gets;
        hits += s.hits;
        sets += s.sets;
    }
    Ok(MtResult {
        threads: spec.threads,
        checksum,
        makespan_cycles: makespan,
        total_cycles,
        gets,
        hits,
        sets,
        refills: sp.refills(),
        central_allocs: sp.central_allocs(),
        slab_overflows: sp.slab_overflows(),
        resident_bytes: sp.resident_bytes(),
        trans,
        ptr,
    })
}

// ---- concurrent crash sweep ------------------------------------------------

/// Shape of one concurrent crash sweep.
#[derive(Clone, Copy, Debug)]
pub struct MtSweepSpec {
    /// Logical threads interleaved by the schedule.
    pub threads: u32,
    /// Transaction-wrapped operations per thread.
    pub ops_per_thread: u64,
    /// Keys committed per thread before the gate is armed.
    pub prepopulate: u64,
    /// Which boundaries to crash at; its seed also drives the schedule
    /// and the values.
    pub points: CrashPoints,
    /// Clean crashes on an eADR base image, or torn ones on an ADR image.
    pub flavor: FaultFlavor,
}

impl MtSweepSpec {
    /// Tier-1 scale: every boundary of a 3-thread interleaving is swept.
    #[must_use]
    pub fn small(seed: u64) -> MtSweepSpec {
        MtSweepSpec {
            threads: 3,
            ops_per_thread: 3,
            prepopulate: 3,
            points: CrashPoints::every(seed),
            flavor: FaultFlavor::Crash,
        }
    }

    /// Switches the sweep to torn-write crashes over an ADR base image.
    #[must_use]
    pub fn torn(mut self) -> MtSweepSpec {
        self.flavor = FaultFlavor::Torn;
        self
    }

    /// Bench scale: seeded-sampled crash points over a longer history.
    #[must_use]
    pub fn sampled(seed: u64, threads: u32, ops_per_thread: u64, samples: u64) -> MtSweepSpec {
        MtSweepSpec {
            threads,
            ops_per_thread,
            prepopulate: 4,
            points: CrashPoints::sampled(seed, samples),
            flavor: FaultFlavor::Crash,
        }
    }
}

const SWEEP_POOL_BYTES: u64 = 24 << 20;
const KEY_STRIDE: u64 = 1 << 32;

fn counter_key(t: u64) -> u64 {
    t * KEY_STRIDE
}
fn prepop_key(t: u64, i: u64) -> u64 {
    t * KEY_STRIDE + 0x1000 + i
}
fn op_key(t: u64, j: u64) -> u64 {
    t * KEY_STRIDE + 0x100 + j
}
fn prepop_val(seed: u64, t: u64, i: u64) -> u64 {
    mix(seed, 0xBA5E ^ (t << 20) ^ i)
}
fn op_val(seed: u64, t: u64, j: u64) -> u64 {
    mix(seed, 0x0b5e ^ (t << 20) ^ j)
}

/// Builds the base image: one store + slab + undo-log slot per thread, a
/// descriptor directory as the pool root.
fn build_sweep_base(spec: &MtSweepSpec) -> Result<(Arc<SharedPool>, Vec<SlabId>)> {
    let (t64, seed) = (u64::from(spec.threads), spec.points.seed);
    let sp = SharedPool::create("mt-sweep", SWEEP_POOL_BYTES, 8)?;
    let slabs: Vec<SlabId> =
        (0..t64).map(|_| sp.carve_slab(192 << 10)).collect::<Result<Vec<_>>>()?;

    let mut space = AddressSpace::new(mix(seed, 0x5E7));
    let pool = space.adopt_shared(&sp)?;
    let mut env = ExecEnv::builder(space).mode(Mode::Hw).pool(pool).build();
    let dir = env.alloc(site!("mt.sweep-dir", StackLocal), t64 * 8)?;
    for t in 0..t64 {
        env.space_mut().bind_arena_slab(pool, slabs[t as usize])?;
        let mut store: KvStore<RbTree> = KvStore::create(&mut env)?;
        store.set(&mut env, counter_key(t), 0)?;
        for i in 0..spec.prepopulate {
            store.set(&mut env, prepop_key(t, i), prepop_val(seed, t, i))?;
        }
        env.write_ptr(
            site!("mt.sweep-slot", StackLocal),
            dir,
            (t * 8) as i64,
            store.index().descriptor(),
        )?;
        // Materialize thread t's undo-log slot now, single-threaded, so
        // slot creation is outside the armed boundary count (directory
        // slot installation is not thread-safe by design).
        UndoLog::ensure_slot(env.space_mut(), pool, 1 << 16, t)?;
    }
    env.set_root(site!("mt.sweep-root", StackLocal), dir)?;
    // Everything above is durable; under ADR lines now wait for fences.
    sp.set_flush_model(spec.flavor.flush_model());
    Ok((sp, slabs))
}

/// Replays the interleaved schedule against `sp`: one logical env + store
/// per thread, each transaction owned by exactly one thread's undo-log
/// slot. Serial execution in schedule order is what makes the armed
/// boundary land at the same instruction every replay. Records the
/// transactions each thread saw commit.
fn drive(
    sp: &Arc<SharedPool>,
    slabs: &[SlabId],
    spec: &MtSweepSpec,
    order: &[u32],
) -> Result<Driven<Vec<u64>>> {
    let seed = spec.points.seed;
    let mut envs: Vec<ExecEnv<NullSink>> = Vec::with_capacity(spec.threads as usize);
    let mut stores: Vec<KvStore<RbTree>> = Vec::with_capacity(spec.threads as usize);
    for t in 0..u64::from(spec.threads) {
        let mut space = AddressSpace::new(mix(seed, 0xD21 ^ (t + 1)));
        let pool = space.adopt_shared(sp)?;
        space.bind_arena_slab(pool, slabs[t as usize])?;
        let mut env = ExecEnv::builder(space)
            .mode(Mode::Hw)
            .pool(pool)
            .txn_slot(t)
            .build();
        let dir = env.root(site!("mt.sweep-open", KnownReturn))?;
        let desc = env.read_ptr(site!("mt.sweep-desc", KnownReturn), dir, (t * 8) as i64)?;
        stores.push(KvStore::open(desc));
        envs.push(env);
    }

    let mut committed = vec![0; spec.threads as usize];
    for (t, j) in steps(order) {
        let ti = t as usize;
        let (env, store) = (&mut envs[ti], &mut stores[ti]);
        let (key, val) = (op_key(u64::from(t), j), op_val(seed, u64::from(t), j));
        let r = env.with_txn(|env| {
            store.set(env, key, val)?;
            store.set(env, counter_key(u64::from(t)), j + 1)?;
            Ok(())
        });
        // A tripped gate is machine-wide: every thread stops here.
        if let Err(e) = r {
            return Ok(Driven::stopped(committed, e));
        }
        committed[ti] += 1;
    }
    Ok(Driven::done(committed))
}

/// Drives one armed trial, recovers it, and runs the oracle battery.
fn check_point(
    base: &Arc<SharedPool>,
    slabs: &[SlabId],
    spec: &MtSweepSpec,
    order: &[u32],
    k: u64,
) -> std::result::Result<Trial, String> {
    let seed = spec.points.seed;
    let (image, committed) =
        crash_shared(base, spec.flavor.plan(seed, k), |sp| drive(sp, slabs, spec, order))?;

    // "Restart": the workers' shards are gone; a fresh space adopts the
    // crashed image and rolls back every slot.
    let mut rspace = AddressSpace::new(mix(seed, 0x42EC ^ k));
    let rpool = rspace.adopt_shared(&image).map_err(harness_error)?;
    let rolled =
        UndoLog::recover(&mut rspace, rpool).map_err(|e| format!("recovery failed: {e}"))?;
    image.validate().map_err(|e| format!("allocator invariants violated: {e}"))?;

    let mut env = ExecEnv::builder(rspace).mode(Mode::Hw).pool(rpool).build();
    let dir = env.root(site!("mt.sweep-check", KnownReturn)).map_err(harness_error)?;
    for t in 0..u64::from(spec.threads) {
        let desc = env
            .read_ptr(site!("mt.sweep-reopen", KnownReturn), dir, (t * 8) as i64)
            .map_err(harness_error)?;
        let mut store: KvStore<RbTree> = KvStore::open(desc);

        // Oracle 1: the structure's own invariants.
        let count = check_invariants(|| RbTree::open(desc).validate(&mut env))
            .map_err(|e| format!("thread {t}: {e}"))?;

        // Oracle 2: exact contents against thread t's transaction-prefix
        // model. The counter key names the prefix; the crashed op either
        // rolled back (counter == committed) or its commit record landed
        // right at the boundary (counter == committed + 1).
        let c = committed[t as usize];
        let counter =
            store.get(&mut env, counter_key(t)).map_err(harness_error)?.unwrap_or(u64::MAX);
        if counter != c && counter != c + 1 {
            return Err(format!(
                "thread {t}: counter {counter} matches no transaction boundary (committed {c})"
            ));
        }
        if count != spec.prepopulate + 1 + counter {
            return Err(format!(
                "thread {t}: store holds {count} keys, expected {}",
                spec.prepopulate + 1 + counter
            ));
        }
        for j in 0..spec.ops_per_thread {
            let got = store.get(&mut env, op_key(t, j)).map_err(harness_error)?;
            let want = (j < counter).then(|| op_val(seed, t, j));
            if got != want {
                return Err(format!(
                    "thread {t}: op key {j} read {got:?}, expected {want:?} at prefix {counter}"
                ));
            }
        }
        for i in 0..spec.prepopulate {
            if store.get(&mut env, prepop_key(t, i)).map_err(harness_error)?
                != Some(prepop_val(seed, t, i))
            {
                return Err(format!("thread {t}: prepopulated key {i} damaged"));
            }
        }

        // Oracle 3: the recovered store still works.
        let probe = u64::MAX - 1 - t;
        store.set(&mut env, probe, 0xFEED).map_err(harness_error)?;
        if store.get(&mut env, probe).map_err(harness_error)? != Some(0xFEED) {
            return Err(format!("thread {t}: post-recovery probe key not readable"));
        }
        store.remove(&mut env, probe).map_err(harness_error)?;
    }
    Ok(if rolled { Trial::RolledBack } else { Trial::Intact })
}

/// Sweeps every (or a seeded sample of) crash boundary of an N-thread
/// interleaved transaction history; see the module docs.
///
/// # Errors
///
/// Propagates setup failures (crash-consistency findings land in
/// [`SweepReport::failures`]).
///
/// # Panics
///
/// Panics when `spec.threads` is zero.
pub fn mt_crash_sweep(spec: &MtSweepSpec) -> Result<SweepReport> {
    assert!(spec.threads > 0, "sweep over zero threads");
    let (base, slabs) = build_sweep_base(spec)?;
    let counts = vec![spec.ops_per_thread; spec.threads as usize];
    let order = schedule(Policy::Seeded(spec.points.seed), &counts);
    let total = census_shared(&base, |sp| drive(sp, &slabs, spec, &order))?;
    Ok(run_sweep(RbTree::NAME, total, &spec.points, |k| {
        check_point(&base, &slabs, spec, &order, k)
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mt_ycsb_checksum_is_thread_count_invariant() {
        let specs = [1u32, 2, 4].map(|t| MtSpec::new(320, 1280, t, 7));
        let runs: Vec<MtResult> = specs.iter().map(|s| run_mt_ycsb(s).unwrap()).collect();
        assert_eq!(runs[0].checksum, runs[1].checksum, "1 vs 2 threads");
        assert_eq!(runs[0].checksum, runs[2].checksum, "1 vs 4 threads");
        assert!(runs[1].refills > 0, "parallel loads must refill arena leases");
        for r in &runs {
            assert_eq!(r.slab_overflows, 0, "slabs sized to never overflow");
            assert_eq!(r.gets + r.sets, runs[0].gets + runs[0].sets, "same work set");
        }
    }

    #[test]
    fn mt_ycsb_is_deterministic_per_seed_and_thread_count() {
        let spec = MtSpec::new(160, 640, 2, 99);
        let a = run_mt_ycsb(&spec).unwrap();
        let b = run_mt_ycsb(&spec).unwrap();
        assert_eq!(a.checksum, b.checksum);
        assert!((a.makespan_cycles - b.makespan_cycles).abs() < f64::EPSILON, "cycles replay");
    }

    #[test]
    fn mt_ycsb_makespan_scales_with_cores() {
        let one = run_mt_ycsb(&MtSpec::new(320, 1280, 1, 3)).unwrap();
        let four = run_mt_ycsb(&MtSpec::new(320, 1280, 4, 3)).unwrap();
        assert_eq!(one.checksum, four.checksum);
        let speedup = one.makespan_cycles / four.makespan_cycles;
        assert!(speedup > 2.0, "4 modelled cores must beat half-linear, got {speedup:.2}x");
    }

    #[test]
    fn mt_crash_sweep_small_is_exhaustive_and_clean() {
        let r = mt_crash_sweep(&MtSweepSpec::small(5)).unwrap();
        assert_eq!(r.tested, r.boundaries, "small scale sweeps every boundary");
        assert!(r.boundaries > 0);
        assert!(r.rollbacks > 0, "some crash points must tear a transaction");
        assert!(r.failures.is_empty(), "{:?}", r.failures);
    }

    #[test]
    fn mt_crash_sweep_four_threads_sampled_is_clean() {
        let r = mt_crash_sweep(&MtSweepSpec::sampled(11, 4, 4, 12)).unwrap();
        assert_eq!(r.tested, 12.min(r.boundaries), "sampled sweep hits the requested budget");
        assert!(r.failures.is_empty(), "{:?}", r.failures);
    }

    #[test]
    fn mt_crash_sweep_replays_under_a_fixed_seed() {
        let a = mt_crash_sweep(&MtSweepSpec::small(42)).unwrap();
        let b = mt_crash_sweep(&MtSweepSpec::small(42)).unwrap();
        assert_eq!(a.boundaries, b.boundaries);
        assert_eq!(a.rollbacks, b.rollbacks);
        assert_eq!(a.failures.len(), b.failures.len());
    }
}
