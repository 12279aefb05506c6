//! Systematic crash-point and media-fault sweeps over the data structures.
//!
//! For each structure this module builds a prepopulated pool, counts the
//! durable-write boundaries of a transaction-wrapped insert/remove
//! workload, then re-runs that workload once per crash point with the
//! fault gate armed ([`utpr_heap::FaultPlan::crash_at`]): the "process"
//! dies at the chosen boundary, [`utpr_heap::crash_and_recover`] restarts
//! the address space and rolls back the torn transaction, and the
//! recovered structure is checked against three oracles:
//!
//! 1. its own invariant validator ([`utpr_ds::IndexCore::validate`]),
//! 2. exact contents against the transaction-prefix model the recovered
//!    image must equal (the op being crashed either rolled back or — when
//!    the crash struck its post-commit deferred frees — committed),
//! 3. a mutation probe: the recovered structure must accept an
//!    insert/lookup/remove and validate again.
//!
//! Two media-fault variants ride on the same machinery:
//!
//! * **Torn sweeps** ([`SweepSpec::torn`]) run the armed workload under
//!   the ADR flush model with [`utpr_heap::FaultPlan::torn_at`]: the
//!   in-flight durable write at the crash boundary lands partially (a
//!   seeded subset of its 8-byte words), and every unfenced line drains
//!   word-by-lottery at restart. The oracle battery is unchanged — the
//!   undo log's fence discipline must make recovery exact — except that a
//!   *typed* corruption error from recovery counts as detected, never as
//!   a silent failure.
//! * **Bit-flip campaigns** ([`bitflip_campaign`]) inject seeded retention
//!   errors into pool pages between detach and re-attach. With CRC
//!   integrity on, re-attach must fail with
//!   [`utpr_heap::HeapError::MediaCorruption`]; the campaign then walks
//!   the quarantine → salvage → reseal path and reports recovered vs
//!   lost keys. With CRC off, the same flips measure the silent-wrong
//!   rate the integrity layer exists to prevent.
//!
//! Everything derives from [`CrashPoints::seed`], so a failure reproduces
//! from `(seed, crash point)` alone — the two numbers every
//! [`SweepFailure`] carries.
//!
//! The crash-point skeleton here is the one every sweep in the crate runs
//! on: [`CrashPoints`] chooses the boundaries, [`FaultFlavor::plan`] arms
//! each one, `run_sweep` tallies the trials into one [`SweepReport`], and
//! `census_shared`/`crash_shared` count and crash a workload on a
//! [`SharedPool`] snapshot for the multi-thread ([`crate::mt`]) and
//! lock-free ([`crate::conc`]) sweeps. Each sweep supplies only its base
//! image, workload, recovery and oracles.

use crate::harness::Benchmark;
use crate::rng::Rng;
use crate::store::KvStore;
use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use utpr_ds::{
    AvlTree, BPlusTree, HashMapIndex, IndexOps, LinkedList, RbTree, ScapegoatTree, SplayTree,
};
use utpr_heap::{
    crash_and_recover, select_points, AddressSpace, FaultPlan, FlushModel, HeapError,
    IntegrityMode, PoolId, Region, SalvageStats, SharedPool,
};
use utpr_ptr::{site, ExecEnv, Mode, NullSink, UPtr};

/// Result alias.
pub type Result<T> = std::result::Result<T, HeapError>;

/// Pool name every sweep uses.
const POOL: &str = "faultsweep";
const POOL_BYTES: u64 = 8 << 20;

// ---- the sweep skeleton ----------------------------------------------------

/// What kind of media fault the armed run injects at the crash boundary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultFlavor {
    /// Clean power loss: the in-flight durable write is wholly suppressed.
    Crash,
    /// Torn power loss under ADR: the in-flight write lands, then every
    /// unfenced cache line drains a seeded subset of its 8-byte words.
    Torn,
}

impl FaultFlavor {
    /// The plan that arms crash point `k` of a sweep seeded with `seed`.
    #[must_use]
    pub fn plan(self, seed: u64, k: u64) -> FaultPlan {
        match self {
            FaultFlavor::Crash => FaultPlan::crash_at(k),
            FaultFlavor::Torn => {
                FaultPlan::torn_at(k, seed ^ k.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            }
        }
    }

    /// The persistence domain the armed run needs: a torn crash only has
    /// unfenced lines to drain under ADR.
    #[must_use]
    pub fn flush_model(self) -> FlushModel {
        match self {
            FaultFlavor::Crash => FlushModel::Eadr,
            FaultFlavor::Torn => FlushModel::Adr,
        }
    }
}

/// Which durable-write boundaries a sweep crashes at.
#[derive(Clone, Copy, Debug)]
pub struct CrashPoints {
    /// Boundary counts up to this are swept exhaustively.
    pub exhaustive_limit: u64,
    /// Seeded sample size above the exhaustive limit.
    pub samples: u64,
    /// Master seed: workload, schedule, layout and sampling derive from it.
    pub seed: u64,
}

impl CrashPoints {
    /// Every boundary, however many there are.
    #[must_use]
    pub fn every(seed: u64) -> CrashPoints {
        CrashPoints { exhaustive_limit: u64::MAX, samples: 0, seed }
    }

    /// `n` seeded boundaries (always including the first and last).
    #[must_use]
    pub fn sampled(seed: u64, n: u64) -> CrashPoints {
        CrashPoints { exhaustive_limit: 0, samples: n, seed }
    }
}

/// One crash point that did not recover cleanly.
#[derive(Clone, Debug)]
pub struct SweepFailure {
    /// Boundary index the gate was armed at.
    pub crash_point: u64,
    /// The sweep's master seed (set `UTPR_QC_SEED` to this to replay).
    pub seed: u64,
    /// What went wrong.
    pub detail: String,
}

impl std::fmt::Display for SweepFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "crash point {} (replay with UTPR_QC_SEED={}): {}",
            self.crash_point, self.seed, self.detail
        )
    }
}

/// What one crash sweep produced.
#[derive(Clone, Debug)]
pub struct SweepReport {
    /// Name of the structure swept (paper Table III for the sequential
    /// ones).
    pub benchmark: &'static str,
    /// Durable-write boundaries the armed workload crosses.
    pub boundaries: u64,
    /// Crash points actually tested (== `boundaries` when exhaustive).
    pub tested: u64,
    /// Crash points that struck inside an operation: recovery rolled back
    /// a transaction, or the crashed history left an operation pending.
    pub rollbacks: u64,
    /// Crash points where recovery surfaced a typed corruption error
    /// (torn flavor only — detected damage, not a silent wrong answer).
    pub detected: u64,
    /// Crash points that failed an oracle.
    pub failures: Vec<SweepFailure>,
}

/// How one crash point that passed every oracle went.
pub(crate) enum Trial {
    /// The crash fell between operations; nothing needed undoing.
    Intact,
    /// The crash struck inside an operation (see [`SweepReport::rollbacks`]).
    RolledBack,
    /// Recovery refused the image with a typed corruption error.
    Detected,
}

/// The one crash-point loop: runs `trial` at every boundary `points`
/// selects out of `total` and tallies the verdicts. An `Err` from a trial
/// is an oracle failure, reported with the replay seed.
pub(crate) fn run_sweep(
    benchmark: &'static str,
    total: u64,
    points: &CrashPoints,
    mut trial: impl FnMut(u64) -> std::result::Result<Trial, String>,
) -> SweepReport {
    let ks = select_points(total, points.exhaustive_limit, points.samples, points.seed);
    let mut report = SweepReport {
        benchmark,
        boundaries: total,
        tested: ks.len() as u64,
        rollbacks: 0,
        detected: 0,
        failures: Vec::new(),
    };
    for k in ks {
        match trial(k) {
            Ok(Trial::Intact) => {}
            Ok(Trial::RolledBack) => report.rollbacks += 1,
            Ok(Trial::Detected) => report.detected += 1,
            Err(detail) => {
                report.failures.push(SweepFailure { crash_point: k, seed: points.seed, detail });
            }
        }
    }
    report
}

/// Failure detail for an error the harness itself hit while checking.
pub(crate) fn harness_error(e: HeapError) -> String {
    format!("harness error: {e}")
}

/// Oracle 1: a structure's own validator; a panic inside it is an
/// invariant violation. Returns the element count.
pub(crate) fn check_invariants(
    validate: impl FnOnce() -> Result<u64>,
) -> std::result::Result<u64, String> {
    match catch_unwind(AssertUnwindSafe(validate)) {
        Ok(Ok(n)) => Ok(n),
        Ok(Err(e)) => Err(format!("validator errored: {e}")),
        Err(panic) => Err(format!("invariant violated: {}", panic_message(&*panic))),
    }
}

/// What driving a workload produced: the workload's own record
/// (commits, a history) and how the run ended.
pub(crate) struct Driven<T> {
    /// The workload's record.
    pub out: T,
    /// Whether the armed gate tripped.
    pub crashed: bool,
    /// A non-crash error that killed the run (a harness bug).
    pub hard: Option<HeapError>,
}

impl<T> Driven<T> {
    /// A run that ran to the end.
    pub fn done(out: T) -> Driven<T> {
        Driven { out, crashed: false, hard: None }
    }

    /// A run stopped by `err`: the injected crash, or a hard error.
    pub fn stopped(out: T, err: HeapError) -> Driven<T> {
        let crashed = matches!(err, HeapError::CrashInjected { .. });
        Driven { out, crashed, hard: (!crashed).then_some(err) }
    }

    /// A counting run's record; any error is the workload's own.
    fn counted(self) -> Result<T> {
        debug_assert!(!self.crashed, "counting plan never trips");
        self.hard.map_or(Ok(self.out), Err)
    }

    /// An armed run's record, provided it died of the injected crash and
    /// of nothing else.
    fn crashed(self) -> std::result::Result<T, String> {
        if let Some(e) = self.hard {
            return Err(format!("armed run died of a non-crash error: {e}"));
        }
        if !self.crashed {
            return Err("armed run completed without crashing".into());
        }
        Ok(self.out)
    }
}

/// Counts the durable-write boundaries `drive` crosses on a snapshot of
/// the shared base image.
pub(crate) fn census_shared<T>(
    base: &Arc<SharedPool>,
    drive: impl FnOnce(&Arc<SharedPool>) -> Result<Driven<T>>,
) -> Result<u64> {
    let counting = base.snapshot();
    counting.set_faults(FaultPlan::counting());
    drive(&counting)?.counted()?;
    Ok(counting.faults().writes())
}

/// Drives one armed trial on a snapshot of the shared base image, then
/// power-cycles it under the plan (a torn seed drives the drain) and
/// disarms the gate. Returns the crashed image and the workload's record.
pub(crate) fn crash_shared<T>(
    base: &Arc<SharedPool>,
    plan: FaultPlan,
    drive: impl FnOnce(&Arc<SharedPool>) -> Result<Driven<T>>,
) -> std::result::Result<(Arc<SharedPool>, T), String> {
    let image = base.snapshot();
    image.set_faults(plan);
    let out = drive(&image).map_err(harness_error)?.crashed()?;
    image.crash_restart();
    Ok((image, out))
}

// ---- the sequential sweep's shape --------------------------------------------

/// Shape of one structure's sweep.
#[derive(Clone, Copy, Debug)]
pub struct SweepSpec {
    /// Keys inserted before the gate is armed (the committed baseline).
    pub prepopulate: u64,
    /// Transaction-wrapped operations run while armed.
    pub txn_ops: u64,
    /// Which boundaries to crash at, and the master seed.
    pub points: CrashPoints,
    /// Whether crashes are clean or torn.
    pub flavor: FaultFlavor,
}

impl SweepSpec {
    /// Tier-1 scale: small enough that every boundary is swept.
    pub fn small(seed: u64) -> SweepSpec {
        SweepSpec {
            prepopulate: 8,
            txn_ops: 6,
            points: CrashPoints::every(seed),
            flavor: FaultFlavor::Crash,
        }
    }

    /// Bench scale: bigger workload, seeded-sampled crash points.
    pub fn sampled(seed: u64, txn_ops: u64, samples: u64) -> SweepSpec {
        SweepSpec {
            prepopulate: 64,
            txn_ops,
            points: CrashPoints::sampled(seed, samples),
            flavor: FaultFlavor::Crash,
        }
    }

    /// Switches the sweep to torn-write crashes under the ADR flush model.
    #[must_use]
    pub fn torn(mut self) -> SweepSpec {
        self.flavor = FaultFlavor::Torn;
        self
    }
}

/// A *typed* corruption error: the CRC sidecar at re-attach, or the
/// hardened allocator/header validation underneath it — detected damage,
/// not a silent wrong answer.
fn is_corruption(e: &HeapError) -> bool {
    matches!(
        e,
        HeapError::MediaCorruption { .. }
            | HeapError::BadPoolHeader { .. }
            | HeapError::CorruptRegion(_)
    )
}

/// Mixes the structure name into the master seed so each structure gets
/// its own deterministic workload and pool layout.
fn structure_seed(seed: u64, name: &str) -> u64 {
    let mut x = seed ^ 0x243f_6a88_85a3_08d3;
    for b in name.bytes() {
        x = (x ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    }
    x
}

// ---- the structures under test ---------------------------------------------

/// How one bit-flip probe of a recovered image went.
enum Probe {
    /// Every key matched the model.
    Clean,
    /// This many wrong answers with no error raised.
    Wrong(u64),
    /// A typed error or panic surfaced while probing — noisy, not silent.
    Errored,
}

/// What the crash-sweep and bit-flip drivers need from a structure: how it
/// is built, stepped, modelled and probed. Everything else — census,
/// arming, crash, recovery, the oracle order, failure reporting — is the
/// drivers'.
trait Subject: Sized {
    /// Table III name.
    const NAME: &'static str;
    /// One transaction-wrapped operation of the armed workload.
    type Op: Copy;
    /// The in-memory model the recovered image is compared against.
    type Model: Clone;

    /// Creates the structure and applies `n` seeded insertions to it and
    /// to a fresh model.
    fn populate(
        env: &mut ExecEnv<NullSink>,
        rng: &mut Rng,
        n: u64,
        keyspace: u64,
    ) -> Result<(Self, Self::Model)>;
    /// The descriptor the pool root persists.
    fn root_descriptor(&self) -> UPtr;
    /// Re-attaches through the pool root.
    fn reopen(env: &mut ExecEnv<NullSink>) -> Result<Self>;

    fn gen_op(rng: &mut Rng, keyspace: u64) -> Self::Op;
    fn apply_to_model(model: &mut Self::Model, op: Self::Op);
    fn model_len(model: &Self::Model) -> u64;
    /// The body of one op's transaction.
    fn step(&mut self, env: &mut ExecEnv<NullSink>, op: Self::Op) -> Result<()>;

    /// Oracle 1: the structure's own invariants (panics on violation);
    /// returns the element count.
    fn invariants(&self, env: &mut ExecEnv<NullSink>) -> Result<u64>;
    /// Oracle 2: exact contents against `model`.
    fn matches(
        &mut self,
        env: &mut ExecEnv<NullSink>,
        model: &Self::Model,
        keyspace: u64,
    ) -> Result<bool>;
    /// Oracle 3: a mutation lands and is visible.
    fn probe(&mut self, env: &mut ExecEnv<NullSink>) -> Result<bool>;

    /// Bit-flip probe of a possibly damaged image: never propagates, every
    /// error and panic is part of the verdict.
    fn flip_probe(env: &mut ExecEnv<NullSink>, model: &Self::Model, keyspace: u64) -> Probe;
    /// After salvage: how many of the model's elements still read back.
    fn survivors(env: &mut ExecEnv<NullSink>, model: &Self::Model, keyspace: u64) -> u64;
}

#[derive(Clone, Copy, Debug)]
enum MapOp {
    Insert(u64, u64),
    Remove(u64),
}

impl<I: IndexOps> Subject for KvStore<I> {
    const NAME: &'static str = I::NAME;
    type Op = MapOp;
    type Model = BTreeMap<u64, u64>;

    fn populate(
        env: &mut ExecEnv<NullSink>,
        rng: &mut Rng,
        n: u64,
        keyspace: u64,
    ) -> Result<(Self, Self::Model)> {
        let mut store: KvStore<I> = KvStore::create(env)?;
        let mut model = BTreeMap::new();
        for _ in 0..n {
            let k = rng.below(keyspace);
            let v = rng.next_u64() >> 1;
            store.set(env, k, v)?;
            model.insert(k, v);
        }
        Ok((store, model))
    }

    fn root_descriptor(&self) -> UPtr {
        self.index().descriptor()
    }

    fn reopen(env: &mut ExecEnv<NullSink>) -> Result<Self> {
        Ok(KvStore::open(env.root(site!("faultsweep.open-root", KnownReturn))?))
    }

    fn gen_op(rng: &mut Rng, keyspace: u64) -> MapOp {
        let k = rng.below(keyspace);
        if rng.below(3) == 0 {
            MapOp::Remove(k)
        } else {
            MapOp::Insert(k, rng.next_u64() >> 1)
        }
    }

    fn apply_to_model(model: &mut Self::Model, op: MapOp) {
        match op {
            MapOp::Insert(k, v) => {
                model.insert(k, v);
            }
            MapOp::Remove(k) => {
                model.remove(&k);
            }
        }
    }

    fn model_len(model: &Self::Model) -> u64 {
        model.len() as u64
    }

    fn step(&mut self, env: &mut ExecEnv<NullSink>, op: MapOp) -> Result<()> {
        match op {
            MapOp::Insert(k, v) => self.set(env, k, v).map(|_| ()),
            MapOp::Remove(k) => self.remove(env, k).map(|_| ()),
        }
    }

    fn invariants(&self, env: &mut ExecEnv<NullSink>) -> Result<u64> {
        I::open(self.index().descriptor()).validate(env)
    }

    fn matches(
        &mut self,
        env: &mut ExecEnv<NullSink>,
        model: &Self::Model,
        keyspace: u64,
    ) -> Result<bool> {
        if self.len(env)? != model.len() as u64 {
            return Ok(false);
        }
        for k in 0..keyspace {
            if self.get(env, k)? != model.get(&k).copied() {
                return Ok(false);
            }
        }
        Ok(true)
    }

    fn probe(&mut self, env: &mut ExecEnv<NullSink>) -> Result<bool> {
        let probe_key = u64::MAX - 1;
        self.set(env, probe_key, 0xFEED)?;
        if self.get(env, probe_key)? != Some(0xFEED) {
            return Ok(false);
        }
        self.remove(env, probe_key)?;
        Ok(true)
    }

    fn flip_probe(env: &mut ExecEnv<NullSink>, model: &Self::Model, keyspace: u64) -> Probe {
        let mut wrong = 0u64;
        let mut errored = false;
        for k in 0..keyspace {
            match catch_unwind(AssertUnwindSafe(|| Self::reopen(env)?.get(env, k))) {
                Ok(Ok(got)) => wrong += u64::from(got != model.get(&k).copied()),
                _ => errored = true,
            }
        }
        match catch_unwind(AssertUnwindSafe(|| Self::reopen(env)?.invariants(env))) {
            Ok(Ok(n)) => wrong += u64::from(n != model.len() as u64),
            _ => errored = true,
        }
        if errored {
            Probe::Errored
        } else if wrong > 0 {
            Probe::Wrong(wrong)
        } else {
            Probe::Clean
        }
    }

    fn survivors(env: &mut ExecEnv<NullSink>, model: &Self::Model, _keyspace: u64) -> u64 {
        let mut alive = 0;
        for (k, v) in model {
            let got = catch_unwind(AssertUnwindSafe(|| Self::reopen(env)?.get(env, *k)));
            alive += u64::from(matches!(got, Ok(Ok(Some(x))) if x == *v));
        }
        alive
    }
}

#[derive(Clone, Copy, Debug)]
enum LlOp {
    Push(u64, u64),
    Pop,
}

impl Subject for LinkedList {
    const NAME: &'static str = "LL";
    type Op = LlOp;
    type Model = VecDeque<(u64, u64)>;

    fn populate(
        env: &mut ExecEnv<NullSink>,
        rng: &mut Rng,
        n: u64,
        _keyspace: u64,
    ) -> Result<(Self, Self::Model)> {
        let mut list = LinkedList::create(env)?;
        let mut model = VecDeque::new();
        for _ in 0..n {
            let (v0, v1) = (rng.next_u64() >> 1, rng.next_u64() >> 1);
            list.push_back(env, v0, v1)?;
            model.push_back((v0, v1));
        }
        Ok((list, model))
    }

    fn root_descriptor(&self) -> UPtr {
        self.descriptor()
    }

    fn reopen(env: &mut ExecEnv<NullSink>) -> Result<Self> {
        Ok(LinkedList::open(env.root(site!("faultsweep.ll-open-root", KnownReturn))?))
    }

    fn gen_op(rng: &mut Rng, _keyspace: u64) -> LlOp {
        if rng.below(3) == 0 {
            LlOp::Pop
        } else {
            LlOp::Push(rng.next_u64() >> 1, rng.next_u64() >> 1)
        }
    }

    fn apply_to_model(model: &mut Self::Model, op: LlOp) {
        match op {
            LlOp::Push(v0, v1) => model.push_back((v0, v1)),
            LlOp::Pop => {
                model.pop_front();
            }
        }
    }

    fn model_len(model: &Self::Model) -> u64 {
        model.len() as u64
    }

    fn step(&mut self, env: &mut ExecEnv<NullSink>, op: LlOp) -> Result<()> {
        match op {
            LlOp::Push(v0, v1) => self.push_back(env, v0, v1),
            LlOp::Pop => self.pop_front(env).map(|_| ()),
        }
    }

    fn invariants(&self, env: &mut ExecEnv<NullSink>) -> Result<u64> {
        self.validate(env)
    }

    fn matches(
        &mut self,
        env: &mut ExecEnv<NullSink>,
        model: &Self::Model,
        _keyspace: u64,
    ) -> Result<bool> {
        if self.len(env)? != model.len() as u64 {
            return Ok(false);
        }
        let sum = model.iter().fold(0u64, |a, (v0, v1)| a.wrapping_add(*v0).wrapping_add(*v1));
        Ok(self.iter_sum(env)? == sum)
    }

    fn probe(&mut self, env: &mut ExecEnv<NullSink>) -> Result<bool> {
        let before = self.len(env)?;
        self.push_back(env, 1, 2)?;
        Ok(self.len(env)? == before + 1)
    }

    /// Whole-structure accounting: a list either survives its probe or its
    /// elements are written off together.
    fn flip_probe(env: &mut ExecEnv<NullSink>, model: &Self::Model, keyspace: u64) -> Probe {
        let r = catch_unwind(AssertUnwindSafe(|| -> Result<bool> {
            let mut list = Self::reopen(env)?;
            list.invariants(env)?;
            list.matches(env, model, keyspace)
        }));
        match r {
            Ok(Ok(true)) => Probe::Clean,
            Ok(Ok(false)) => Probe::Wrong(1),
            _ => Probe::Errored,
        }
    }

    fn survivors(env: &mut ExecEnv<NullSink>, model: &Self::Model, keyspace: u64) -> u64 {
        match Self::flip_probe(env, model, keyspace) {
            Probe::Clean => model.len() as u64,
            _ => 0,
        }
    }
}

// ---- crash-point sweep -----------------------------------------------------

fn fresh_env(space: AddressSpace, pool: PoolId) -> ExecEnv<NullSink> {
    ExecEnv::builder(space).mode(Mode::Hw).pool(pool).build()
}

/// Keys are drawn from twice the prepopulated count, so removes hit and
/// miss about equally.
fn keyspace_of(prepopulate: u64) -> u64 {
    (prepopulate * 2).max(4)
}

/// Runs `ops` each inside its own transaction; records how many
/// committed before the run ended.
fn run_ops<S: Subject>(
    env: &mut ExecEnv<NullSink>,
    subject: &mut S,
    ops: &[S::Op],
) -> Driven<usize> {
    for (i, op) in ops.iter().enumerate() {
        if let Err(e) = env.with_txn(|env| subject.step(env, *op)) {
            return Driven::stopped(i, e);
        }
    }
    Driven::done(ops.len())
}

fn sweep<S: Subject>(spec: &SweepSpec) -> Result<SweepReport> {
    let seed = spec.points.seed;
    let sseed = structure_seed(seed, S::NAME);
    let keyspace = keyspace_of(spec.prepopulate);

    // Base image: prepopulated structure, root set, undo log materialized
    // (so its one-time allocation is not part of the armed boundary count).
    let mut space = AddressSpace::new(sseed);
    let pool = space.create_pool(POOL, POOL_BYTES)?;
    let mut env = fresh_env(space, pool);
    let mut rng = Rng::new(sseed ^ 0x517c_c1b7_2722_0a95);
    let (subject, model) = S::populate(&mut env, &mut rng, spec.prepopulate, keyspace)?;
    env.set_root(site!("faultsweep.set-root", StackLocal), subject.root_descriptor())?;
    env.with_txn(|_| Ok(()))?;
    let (base_space, _, _) = env.into_parts();

    // Transaction-prefix models: models[j] = state after j committed ops.
    let mut rng = Rng::new(sseed ^ 0x9e37_79b9_7f4a_7c15);
    let ops: Vec<S::Op> = (0..spec.txn_ops).map(|_| S::gen_op(&mut rng, keyspace)).collect();
    let mut models = vec![model];
    for op in &ops {
        let mut m = models.last().unwrap().clone();
        S::apply_to_model(&mut m, *op);
        models.push(m);
    }

    // Count the armed workload's durable-write boundaries.
    let total = {
        let mut env = fresh_env(base_space.clone(), pool);
        env.space_mut().set_faults(FaultPlan::counting());
        let mut subject = S::reopen(&mut env)?;
        run_ops(&mut env, &mut subject, &ops).counted()?;
        env.space().faults().writes()
    };

    Ok(run_sweep(S::NAME, total, &spec.points, |k| {
        let mut env = fresh_env(base_space.clone(), pool);
        env.space_mut().set_flush_model(spec.flavor.flush_model());
        env.space_mut().set_faults(spec.flavor.plan(seed, k));
        let mut subject = S::reopen(&mut env).map_err(harness_error)?;
        let committed = run_ops(&mut env, &mut subject, &ops).crashed()?;

        let (mut space, _, _) = env.into_parts();
        let rec = match crash_and_recover(&mut space, POOL) {
            Ok(r) => r,
            Err(e) if spec.flavor == FaultFlavor::Torn && is_corruption(&e) => {
                return Ok(Trial::Detected);
            }
            Err(e) => return Err(format!("recovery failed: {e}")),
        };
        let mut env = fresh_env(space, rec.pool);
        let mut subject = S::reopen(&mut env).map_err(harness_error)?;
        let count = check_invariants(|| subject.invariants(&mut env))?;

        // Oracle 2: exact contents. The crashed op either rolled back
        // (state == models[committed]) or the crash struck its deferred
        // post-commit frees (state == models[committed + 1]).
        let mut matched = false;
        for j in [committed, (committed + 1).min(ops.len())] {
            if S::model_len(&models[j]) == count
                && subject.matches(&mut env, &models[j], keyspace).map_err(harness_error)?
            {
                matched = true;
                break;
            }
        }
        if !matched {
            return Err(format!(
                "recovered contents match no transaction boundary (committed {committed}, count {count})"
            ));
        }

        // Oracle 3: the recovered structure still works.
        if !subject.probe(&mut env).map_err(harness_error)? {
            return Err("post-recovery probe mutation not visible".into());
        }
        Ok(if rec.rolled_back { Trial::RolledBack } else { Trial::Intact })
    }))
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic".into()
    }
}

// ---- bit-flip retention campaign -------------------------------------------

/// Shape of one structure's bit-flip (retention-error) campaign.
#[derive(Clone, Copy, Debug)]
pub struct BitflipSpec {
    /// Keys inserted (and quiesced) before the simulated power-off.
    pub prepopulate: u64,
    /// Bit flips injected into resident pool pages per trial.
    pub flips: u64,
    /// Independent trials, each with a fresh pool and fresh flip sites.
    pub trials: u64,
    /// Master seed: workload, layout, and flip sites all derive from it.
    pub seed: u64,
    /// Whether the pool keeps CRC page sidecars (the detection layer).
    pub crc: bool,
}

impl BitflipSpec {
    /// Tier-1 scale, CRC on.
    pub fn small(seed: u64) -> BitflipSpec {
        BitflipSpec { prepopulate: 24, flips: 3, trials: 8, seed, crc: true }
    }

    /// Same campaign with the integrity layer off — the baseline arm that
    /// measures the silent-wrong rate CRC exists to prevent.
    #[must_use]
    pub fn crc_off(mut self) -> BitflipSpec {
        self.crc = false;
        self
    }
}

/// What a bit-flip campaign produced.
#[derive(Clone, Debug)]
pub struct BitflipReport {
    /// Table III name of the structure.
    pub benchmark: &'static str,
    /// Trials run.
    pub trials: u64,
    /// Trials where the damage surfaced as an error — `MediaCorruption`
    /// at re-attach, or a typed error / validator panic during probing.
    pub detected: u64,
    /// Trials that returned a wrong answer with no error at all. Data in
    /// the CRC-off arm; an oracle failure when CRC is on.
    pub silent_wrong: u64,
    /// Trials where every key read back correctly (flips cancelled or hit
    /// slack bytes).
    pub clean: u64,
    /// Keys proven intact by the post-salvage probe (detected trials).
    pub recovered_keys: u64,
    /// Keys the damage took with it (detected trials).
    pub lost_keys: u64,
    /// Accumulated recovered-vs-lost block accounting across the salvage
    /// walks — the same [`SalvageStats`] the online scrubber reports, so
    /// the two recovery paths can never diverge on what "recovered"
    /// means.
    pub salvage: SalvageStats,
    /// Oracle violations (always empty when the integrity layer works).
    pub failures: Vec<SweepFailure>,
}

/// Walks the degraded path after detected corruption: salvage the
/// allocator substrate, bless the damage (`release` + `reseal`), re-attach,
/// and count which of the model's elements survived.
fn salvage_and_probe<S: Subject>(
    mut space: AddressSpace,
    model: &S::Model,
    keyspace: u64,
    report: &mut BitflipReport,
) -> Result<()> {
    let id = space.pool_store().id_of(POOL)?;
    {
        let img = space.pool_store().peek(id)?;
        let salv = Region::salvage(img.data(), img.size());
        report.salvage.merge(&salv.stats());
    }
    space.pool_store_mut().release(id);
    space.pool_store_mut().reseal(id)?;
    let recovered = match space.open_pool(POOL) {
        Ok(pool) => S::survivors(&mut fresh_env(space, pool), model, keyspace),
        // The flip hit the pool header itself; nothing is reachable.
        Err(_) => 0,
    };
    report.recovered_keys += recovered;
    report.lost_keys += S::model_len(model) - recovered;
    Ok(())
}

fn bitflip<S: Subject>(spec: &BitflipSpec) -> Result<BitflipReport> {
    let sseed = structure_seed(spec.seed, S::NAME);
    let keyspace = keyspace_of(spec.prepopulate);
    let mut report = BitflipReport {
        benchmark: S::NAME,
        trials: spec.trials,
        detected: 0,
        silent_wrong: 0,
        clean: 0,
        recovered_keys: 0,
        lost_keys: 0,
        salvage: SalvageStats::default(),
        failures: Vec::new(),
    };

    for t in 0..spec.trials {
        let tseed = sseed ^ (t.wrapping_mul(0x2545_f491_4f6c_dd1d) | 1);
        let mut space = AddressSpace::new(tseed);
        space.set_integrity(if spec.crc { IntegrityMode::Crc } else { IntegrityMode::Off });
        let pool = space.create_pool(POOL, POOL_BYTES)?;
        let mut env = fresh_env(space, pool);
        let mut rng = Rng::new(tseed ^ 0x517c_c1b7_2722_0a95);
        let (subject, model) = S::populate(&mut env, &mut rng, spec.prepopulate, keyspace)?;
        env.set_root(site!("faultsweep.flip-root", StackLocal), subject.root_descriptor())?;
        env.with_txn(|_| Ok(()))?; // materialize the undo log
        let (mut space, _, _) = env.into_parts();

        // Power off with retention errors queued for the off window.
        space.set_faults(
            FaultPlan::counting().with_bitflips(tseed ^ 0xf11b_f11b, spec.flips),
        );
        let mut fail = |detail: String| {
            report.failures.push(SweepFailure { crash_point: t, seed: spec.seed, detail });
        };
        match crash_and_recover(&mut space, POOL) {
            Ok(rec) => {
                let mut env = fresh_env(space, rec.pool);
                match S::flip_probe(&mut env, &model, keyspace) {
                    Probe::Clean => report.clean += 1,
                    Probe::Errored => report.detected += 1,
                    Probe::Wrong(n) => {
                        report.silent_wrong += 1;
                        if spec.crc {
                            fail(format!("CRC on, yet {n} wrong answers surfaced with no error"));
                        }
                    }
                }
            }
            Err(e) if is_corruption(&e) => {
                report.detected += 1;
                salvage_and_probe::<S>(space, &model, keyspace, &mut report)?;
            }
            Err(e) => fail(format!("power-off recovery failed unexpectedly: {e}")),
        }
    }
    Ok(report)
}

/// Runs the bit-flip retention campaign for one structure.
///
/// # Errors
///
/// Propagates setup failures (campaign findings land in
/// [`BitflipReport::failures`]).
pub fn bitflip_campaign(benchmark: Benchmark, spec: &BitflipSpec) -> Result<BitflipReport> {
    match benchmark {
        Benchmark::Ll => bitflip::<LinkedList>(spec),
        Benchmark::Hash => bitflip::<KvStore<HashMapIndex>>(spec),
        Benchmark::Rb => bitflip::<KvStore<RbTree>>(spec),
        Benchmark::Splay => bitflip::<KvStore<SplayTree>>(spec),
        Benchmark::Avl => bitflip::<KvStore<AvlTree>>(spec),
        Benchmark::Sg => bitflip::<KvStore<ScapegoatTree>>(spec),
        Benchmark::Bplus => bitflip::<KvStore<BPlusTree>>(spec),
    }
}

// ---- dispatch --------------------------------------------------------------

/// Sweeps one structure; see the module docs for the oracle battery.
///
/// # Errors
///
/// Propagates setup failures (workload bugs, not crash-consistency
/// findings — those land in [`SweepReport::failures`]).
pub fn sweep_structure(benchmark: Benchmark, spec: &SweepSpec) -> Result<SweepReport> {
    match benchmark {
        Benchmark::Ll => sweep::<LinkedList>(spec),
        Benchmark::Hash => sweep::<KvStore<HashMapIndex>>(spec),
        Benchmark::Rb => sweep::<KvStore<RbTree>>(spec),
        Benchmark::Splay => sweep::<KvStore<SplayTree>>(spec),
        Benchmark::Avl => sweep::<KvStore<AvlTree>>(spec),
        Benchmark::Sg => sweep::<KvStore<ScapegoatTree>>(spec),
        Benchmark::Bplus => sweep::<KvStore<BPlusTree>>(spec),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_sweep_is_exhaustive_and_clean_for_rb() {
        let spec = SweepSpec::small(7);
        let r = sweep_structure(Benchmark::Rb, &spec).unwrap();
        assert_eq!(r.tested, r.boundaries, "small scale sweeps every boundary");
        assert!(r.boundaries > 0);
        assert!(r.rollbacks > 0, "some crash points must tear a transaction");
        assert!(r.failures.is_empty(), "{:?}", r.failures);
    }

    #[test]
    fn small_sweep_is_clean_for_ll() {
        let spec = SweepSpec::small(7);
        let r = sweep_structure(Benchmark::Ll, &spec).unwrap();
        assert_eq!(r.tested, r.boundaries);
        assert!(r.failures.is_empty(), "{:?}", r.failures);
    }

    #[test]
    fn sweep_is_deterministic_under_a_fixed_seed() {
        let spec = SweepSpec::small(42);
        let a = sweep_structure(Benchmark::Hash, &spec).unwrap();
        let b = sweep_structure(Benchmark::Hash, &spec).unwrap();
        assert_eq!(a.boundaries, b.boundaries);
        assert_eq!(a.tested, b.tested);
        assert_eq!(a.rollbacks, b.rollbacks);
        assert_eq!(a.failures.len(), b.failures.len());
    }

    #[test]
    fn torn_small_sweep_is_exhaustive_and_silent_free_for_rb() {
        let spec = SweepSpec::small(7).torn();
        let r = sweep_structure(Benchmark::Rb, &spec).unwrap();
        assert_eq!(r.tested, r.boundaries, "small scale sweeps every boundary");
        assert!(r.failures.is_empty(), "{:?}", r.failures);
    }

    #[test]
    fn torn_small_sweep_is_silent_free_for_ll() {
        let spec = SweepSpec::small(11).torn();
        let r = sweep_structure(Benchmark::Ll, &spec).unwrap();
        assert_eq!(r.tested, r.boundaries);
        assert!(r.failures.is_empty(), "{:?}", r.failures);
    }

    #[test]
    fn bitflips_with_crc_never_go_silent() {
        let spec = BitflipSpec::small(9);
        let r = bitflip_campaign(Benchmark::Hash, &spec).unwrap();
        assert!(r.failures.is_empty(), "{:?}", r.failures);
        assert_eq!(r.silent_wrong, 0, "CRC must turn every flip into a typed error");
        assert!(r.detected > 0, "flips into resident pages must trip the page CRCs");
        assert_eq!(r.detected + r.clean, r.trials);
    }

    #[test]
    fn bitflip_salvage_accounts_for_every_model_key() {
        let spec = BitflipSpec::small(13);
        let r = bitflip_campaign(Benchmark::Rb, &spec).unwrap();
        assert!(r.failures.is_empty(), "{:?}", r.failures);
        // Detected trials route through salvage; each accounts for all keys.
        assert!(
            r.detected == 0 || r.recovered_keys + r.lost_keys > 0,
            "detected trials must classify keys as recovered or lost"
        );
        assert!(r.detected == 0 || r.salvage.blocks_recovered > 0, "salvage finds intact blocks");
    }

    #[test]
    fn bitflips_without_crc_measure_but_never_fail_the_oracle() {
        let spec = BitflipSpec::small(9).crc_off();
        let r = bitflip_campaign(Benchmark::Hash, &spec).unwrap();
        assert!(r.failures.is_empty(), "{:?}", r.failures);
        assert_eq!(r.detected + r.clean + r.silent_wrong, r.trials);
    }

    #[test]
    fn sampled_sweep_respects_the_sample_budget() {
        let spec = SweepSpec::sampled(11, 24, 16);
        let r = sweep_structure(Benchmark::Avl, &spec).unwrap();
        assert!(r.tested <= r.boundaries);
        assert!(r.tested >= 2, "edges always covered");
        assert!(r.failures.is_empty(), "{:?}", r.failures);
    }
}
