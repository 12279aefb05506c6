//! Durable-linearizable concurrent index variants (paper §VII scaling,
//! FliT/NVTraverse-style flush elision).
//!
//! The sequential structures in this crate are single-writer: `insert`
//! and `remove` take `&mut self` and every durable store is published by
//! the caller's explicit transaction or fence discipline. This module
//! adds the concurrent tier of the redesigned two-level index API:
//!
//! * [`ConcurrentIndex`] — operations take `&self` plus a per-thread
//!   [`Handle`], so one structure value can be shared across workers
//!   (each worker re-opens it from the same descriptor in its own
//!   address-space shard; all stored links are pool-relative).
//! * [`ConcList`] / [`ConcHash`] — a Harris-style lock-free sorted
//!   linked-list map, and a hash map that keeps one such chain in hash
//!   order behind a growing directory of fingers ([`harris`] holds the
//!   shared core).
//! * [`Striped`] — a lock-striped adapter lifting any sequential
//!   [`IndexOps`](crate::IndexOps) tree into the concurrent interface.
//!
//! ## Flush strategies
//!
//! Every handle is parameterized by a [`FlushStrategy`] deciding *which*
//! cache lines are explicitly written back (`clwb`) and *when*:
//!
//! * [`FlushStrategy::Eager`] — the Izraelevitz et al. transform: flush
//!   after **every** shared NVM load and store, fence at operation end.
//!   Correct everywhere, maximally expensive; the baseline.
//! * [`FlushStrategy::FliT`] — per-word tag counters. A store tags its
//!   word and defers the writeback to the operation's persist point,
//!   where the writer flushes and untags its write set. A load flushes
//!   only when the word is tagged (someone's store is still in flight);
//!   untagged loads elide the flush entirely. Tags live beside the data
//!   in [`SharedPool`]'s flush plane, never in the persistent image.
//! * [`FlushStrategy::Traverse`] — the NVTraverse split: the traversal
//!   phase issues **no** flushes at all; at the traversal/critical-phase
//!   boundary the destination nodes (pred link + current node) are made
//!   durable ([`Handle::ensure_reachable`]), and the critical phase's
//!   write set is flushed at the persist point.
//!
//! The operation-end fence is modelled as a machine-wide drain of the
//! pool's pending-line set, so a *completed* operation's entire causal
//! prefix is durable no matter which strategy issued (or elided) the
//! individual line writebacks — all three strategies are durably
//! linearizable by construction, and differ in the `clwb` traffic the
//! handle counters record (see `DESIGN.md` §12). Crash points between an
//! operation's stores and its fence expose the strategies' different
//! pending sets; the in-flight operation may be dropped or retained,
//! which durable linearizability permits.
//!
//! Schedule yields ([`Handle::with_yielder`]) happen only at loads,
//! stores, CAS, and allocation — never at flushes or fences — so a
//! seeded schedule and every CAS outcome are identical across the three
//! strategies and the final contents are bit-identical (the bench gate
//! checks exactly this).

use std::sync::Arc;

use utpr_heap::space::LINE_SIZE;
use utpr_heap::{HeapError, PoolId, SharedPool};
use utpr_ptr::{ExecEnv, PtrKind, Site, TimingSink, UPtr};

pub mod harris;
pub mod hash;
pub mod list;
pub mod striped;

pub use hash::ConcHash;
pub use list::ConcList;
pub use striped::Striped;

use crate::index::{IndexCore, Result};

/// Values ≥ this are reserved by the lock-free structures (the tombstone
/// that logically deletes a node in one CAS). Inserting a reserved value
/// is rejected at the API boundary.
pub const VALUE_LIMIT: u64 = u64::MAX;

pub(crate) const TOMBSTONE: u64 = u64::MAX;

/// Modelled cost of one `clwb` issue (micro-ops charged to the worker's
/// core).
const FLUSH_UOPS: u32 = 6;
/// Modelled cost of one persist fence (`sfence` + drain visibility).
const FENCE_UOPS: u32 = 40;

/// Which cache-line writeback protocol a [`Handle`] follows.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FlushStrategy {
    /// Flush every shared load and store (Izraelevitz transform).
    Eager,
    /// Tagged words: stores tag + defer, loads flush only tagged words.
    FliT,
    /// No traversal flushes; persist destinations + write set only.
    Traverse,
}

impl FlushStrategy {
    /// Short lowercase label used in bench rows and CLI flags.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FlushStrategy::Eager => "eager",
            FlushStrategy::FliT => "flit",
            FlushStrategy::Traverse => "traverse",
        }
    }

    /// All strategies, in baseline-first order.
    pub const ALL: [FlushStrategy; 3] =
        [FlushStrategy::Eager, FlushStrategy::FliT, FlushStrategy::Traverse];
}

/// Writeback/fence accounting one handle accumulates across its
/// operations.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FlushCounters {
    /// `clwb`s issued.
    pub flushes: u64,
    /// Loads/stores whose writeback the strategy elided.
    pub elided: u64,
    /// Persist fences issued (one per completed operation).
    pub fences: u64,
    /// Operations completed through this handle.
    pub ops: u64,
}

impl FlushCounters {
    /// `clwb`s per completed operation.
    #[must_use]
    pub fn flushes_per_op(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.flushes as f64 / self.ops as f64
        }
    }

    /// Merges another handle's counters (join-time aggregation).
    pub fn merge(&mut self, other: &FlushCounters) {
        self.flushes += other.flushes;
        self.elided += other.elided;
        self.fences += other.fences;
        self.ops += other.ops;
    }
}

/// Yield callback invoked before every shared load/store/CAS/alloc; an
/// `Err` means the schedule declared a machine-wide crash and the
/// operation must unwind.
pub type Yielder<'a> = &'a (dyn Fn() -> std::result::Result<(), HeapError> + 'a);

/// Per-thread execution handle for the concurrent structures: the
/// worker's [`ExecEnv`] shard plus the shared pool's flush plane and the
/// strategy-specific writeback bookkeeping.
///
/// A handle is cheap to build once per worker and reused across
/// operations; it is `!Send` by construction (it borrows the worker's
/// environment).
pub struct Handle<'a, S: TimingSink> {
    env: &'a mut ExecEnv<S>,
    sp: Arc<SharedPool>,
    pool: PoolId,
    strategy: FlushStrategy,
    counters: FlushCounters,
    /// Word offsets written by the in-flight operation (FliT: tagged,
    /// to untag+flush at persist; Traverse: to flush at persist).
    write_set: Vec<u64>,
    yielder: Option<Yielder<'a>>,
}

impl<'a, S: TimingSink> Handle<'a, S> {
    /// Builds a handle over the environment's default pool, which must be
    /// an adopted [`SharedPool`] (the flush plane lives there).
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::NoSuchPool`] when the environment has no
    /// default pool or it is not a shared pool.
    pub fn new(env: &'a mut ExecEnv<S>, strategy: FlushStrategy) -> Result<Self> {
        let pool =
            env.pool().ok_or_else(|| HeapError::NoSuchPoolName("<no default pool>".into()))?;
        let sp = env
            .space()
            .shared_pool(pool)
            .cloned()
            .ok_or(HeapError::PoolDetached(pool))?;
        Ok(Handle {
            env,
            sp,
            pool,
            strategy,
            counters: FlushCounters::default(),
            write_set: Vec::with_capacity(16),
            yielder: None,
        })
    }

    /// Installs a schedule yield point (turnstile hook). Yields fire
    /// before every load/store/CAS/alloc and nowhere else.
    #[must_use]
    pub fn with_yielder(mut self, y: Yielder<'a>) -> Self {
        self.yielder = Some(y);
        self
    }

    /// The strategy this handle follows.
    #[must_use]
    pub fn strategy(&self) -> FlushStrategy {
        self.strategy
    }

    /// Accumulated writeback/fence counters.
    #[must_use]
    pub fn counters(&self) -> FlushCounters {
        self.counters
    }

    /// The wrapped environment (for descriptor reads, validation walks,
    /// and the striped adapter's sequential inner operations).
    pub fn env_mut(&mut self) -> &mut ExecEnv<S> {
        self.env
    }

    /// The pool the handle operates on.
    #[must_use]
    pub fn pool(&self) -> PoolId {
        self.pool
    }

    fn tick(&mut self) -> Result<()> {
        if let Some(y) = self.yielder {
            y()?;
        }
        Ok(())
    }

    /// Pool-relative byte offset of `base + off` (works for both rel- and
    /// va-format pointers; the flush plane is keyed by pool offsets so
    /// tags and pending lines are shard-independent).
    fn word_off(&self, base: UPtr, off: i64) -> Result<u64> {
        let p = base.offset(off);
        match p.kind() {
            PtrKind::Rel(loc) => Ok(u64::from(loc.offset)),
            PtrKind::Va(va) => Ok(u64::from(self.env.space().va2ra_uncached(va)?.offset)),
            PtrKind::Null => Err(HeapError::Unmapped(utpr_heap::VirtAddr::new(0))),
        }
    }

    /// Canonical pool-relative raw bits for a pointer (what the
    /// structures store in next links, shard-independent).
    pub fn rel_raw(&self, p: UPtr) -> Result<u64> {
        match p.kind() {
            PtrKind::Null => Ok(0),
            PtrKind::Rel(_) => Ok(p.raw()),
            PtrKind::Va(va) => {
                Ok(UPtr::from_rel(self.env.space().va2ra_uncached(va)?).raw())
            }
        }
    }

    fn issue_flush(&mut self, word: u64) {
        self.sp.flush_line(word);
        self.counters.flushes += 1;
        self.env.charge_exec(FLUSH_UOPS);
    }

    /// Loads a shared word, applying the strategy's read-side writeback
    /// rule.
    ///
    /// # Errors
    ///
    /// Propagates translation/crash errors (including a schedule-declared
    /// crash from the yield point).
    pub fn read_word(&mut self, site: &'static Site, base: UPtr, off: i64) -> Result<u64> {
        self.tick()?;
        let v = self.env.read_u64(site, base, off)?;
        let w = self.word_off(base, off)?;
        match self.strategy {
            FlushStrategy::Eager => self.issue_flush(w),
            FlushStrategy::FliT => {
                if self.sp.word_tagged(w) {
                    self.issue_flush(w);
                } else {
                    self.counters.elided += 1;
                }
            }
            FlushStrategy::Traverse => self.counters.elided += 1,
        }
        Ok(v)
    }

    fn note_store(&mut self, w: u64) {
        match self.strategy {
            FlushStrategy::Eager => self.issue_flush(w),
            FlushStrategy::FliT => {
                self.sp.tag_word(w);
                self.write_set.push(w);
            }
            FlushStrategy::Traverse => self.write_set.push(w),
        }
    }

    /// Stores a shared word, applying the strategy's write-side rule.
    ///
    /// # Errors
    ///
    /// Propagates translation/crash errors.
    pub fn write_word(&mut self, site: &'static Site, base: UPtr, off: i64, v: u64) -> Result<()> {
        self.tick()?;
        self.env.write_u64(site, base, off, v)?;
        let w = self.word_off(base, off)?;
        self.note_store(w);
        Ok(())
    }

    /// Compare-and-swap on a shared word. A successful CAS is a store
    /// (tag/flush per strategy); a failed CAS is a load.
    ///
    /// # Errors
    ///
    /// Propagates translation/crash errors.
    pub fn cas_word(
        &mut self,
        site: &'static Site,
        base: UPtr,
        off: i64,
        expected: u64,
        new: u64,
    ) -> Result<(bool, u64)> {
        self.tick()?;
        let (ok, old) = self.env.cas_u64(site, base, off, expected, new)?;
        let w = self.word_off(base, off)?;
        if ok {
            self.note_store(w);
        } else {
            match self.strategy {
                FlushStrategy::Eager => self.issue_flush(w),
                FlushStrategy::FliT => {
                    if self.sp.word_tagged(w) {
                        self.issue_flush(w);
                    } else {
                        self.counters.elided += 1;
                    }
                }
                FlushStrategy::Traverse => self.counters.elided += 1,
            }
        }
        Ok((ok, old))
    }

    /// Allocates `size` bytes in the shared pool (a yield point; the
    /// allocator's own metadata persistence is fence-first and outside
    /// the strategy accounting).
    ///
    /// # Errors
    ///
    /// Propagates allocation failures.
    pub fn alloc(&mut self, site: &'static Site, size: u64) -> Result<UPtr> {
        self.tick()?;
        self.env.alloc(site, size)
    }

    /// NVTraverse's `ensureReachable`: called at the traversal →
    /// critical-phase boundary with the destination range(s); flushes
    /// every line of `[base+off, base+off+len)` under
    /// [`FlushStrategy::Traverse`], a no-op for the others (Eager already
    /// flushed, FliT's read rule already covered tagged words).
    ///
    /// # Errors
    ///
    /// Propagates translation failures.
    pub fn ensure_reachable(&mut self, base: UPtr, off: i64, len: u64) -> Result<()> {
        if self.strategy != FlushStrategy::Traverse {
            return Ok(());
        }
        let start = self.word_off(base, off)?;
        let first = start / LINE_SIZE;
        let last = (start + len.max(1) - 1) / LINE_SIZE;
        for line in first..=last {
            self.issue_flush(line * LINE_SIZE);
        }
        Ok(())
    }

    /// Operation persist point: flush the deferred write set (untagging
    /// under FliT), then fence. Every [`ConcurrentIndex`] operation ends
    /// here, including read-only ones (their write set is empty; the
    /// fence is the Izraelevitz return barrier).
    pub fn op_persist(&mut self) {
        if !self.write_set.is_empty() {
            let mut words = std::mem::take(&mut self.write_set);
            if self.strategy == FlushStrategy::FliT {
                for &w in &words {
                    self.sp.untag_word(w);
                }
            }
            // One clwb per distinct line, however many words it holds.
            words.sort_unstable_by_key(|w| w / LINE_SIZE);
            words.dedup_by_key(|w| *w / LINE_SIZE);
            for w in words {
                self.issue_flush(w);
            }
            self.write_set = Vec::with_capacity(16);
        }
        self.sp.drain_all();
        self.counters.fences += 1;
        self.counters.ops += 1;
        self.env.charge_exec(FENCE_UOPS);
    }
}

/// The concurrent operations tier: shared-receiver operations driven
/// through a per-thread [`Handle`]. Lifecycle (create/open/descriptor/
/// validate) comes from the common [`IndexCore`] supertrait.
pub trait ConcurrentIndex: IndexCore {
    /// Inserts or updates; returns the previous value if the key was
    /// present. Values must be `< VALUE_LIMIT`.
    ///
    /// # Errors
    ///
    /// Propagates allocation/translation/crash failures.
    fn insert<S: TimingSink>(
        &self,
        h: &mut Handle<'_, S>,
        key: u64,
        value: u64,
    ) -> Result<Option<u64>>;

    /// Looks a key up.
    ///
    /// # Errors
    ///
    /// Propagates translation/crash failures.
    fn get<S: TimingSink>(&self, h: &mut Handle<'_, S>, key: u64) -> Result<Option<u64>>;

    /// Removes a key, returning its value if it was present.
    ///
    /// # Errors
    ///
    /// Propagates translation/crash failures.
    fn remove<S: TimingSink>(&self, h: &mut Handle<'_, S>, key: u64) -> Result<Option<u64>>;

    /// Number of live keys (a full traversal; exact at quiescence).
    ///
    /// # Errors
    ///
    /// Propagates translation/crash failures.
    fn len<S: TimingSink>(&self, h: &mut Handle<'_, S>) -> Result<u64>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use utpr_heap::AddressSpace;
    use utpr_ptr::{CountingSink, Mode};

    pub(crate) fn shared_env(seed: u64) -> (Arc<SharedPool>, ExecEnv<CountingSink>) {
        let sp = SharedPool::create(&format!("conc-mod-{seed}"), 16 << 20, 8).unwrap();
        sp.set_flush_model(utpr_heap::FlushModel::Adr);
        let mut space = AddressSpace::new(seed);
        let pool = space.adopt_shared(&sp).unwrap();
        let env = ExecEnv::builder(space)
            .mode(Mode::Hw)
            .pool(pool)
            .sink(CountingSink::new())
            .build();
        (sp, env)
    }

    #[test]
    fn handle_requires_a_shared_pool() {
        let mut space = AddressSpace::new(3);
        let pool = space.create_pool("local", 1 << 20).unwrap();
        let mut env = ExecEnv::builder(space).mode(Mode::Hw).pool(pool).build();
        assert!(Handle::new(&mut env, FlushStrategy::Eager).is_err());
    }

    #[test]
    fn eager_flushes_loads_and_stores_flit_elides_untagged_loads() {
        let (_sp, mut env) = shared_env(11);
        let site = utpr_ptr::site!("conc.test", StackLocal);
        let p = env.alloc(site, 64).unwrap();
        for (strategy, expect_load_flush) in
            [(FlushStrategy::Eager, true), (FlushStrategy::FliT, false)]
        {
            let mut h = Handle::new(&mut env, strategy).unwrap();
            h.write_word(site, p, 0, 7).unwrap();
            let before = h.counters();
            h.read_word(site, p, 8).unwrap(); // untouched word: never tagged
            let after = h.counters();
            assert_eq!(
                after.flushes > before.flushes,
                expect_load_flush,
                "{strategy:?} load flush"
            );
            h.op_persist();
        }
    }

    #[test]
    fn flit_tags_are_cleared_at_persist() {
        let (sp, mut env) = shared_env(12);
        let site = utpr_ptr::site!("conc.tag", StackLocal);
        let p = env.alloc(site, 64).unwrap();
        let rel = {
            let h = Handle::new(&mut env, FlushStrategy::FliT).unwrap();
            h.rel_raw(p).unwrap()
        };
        let w = u64::from(UPtr::from_raw(rel).as_rel().unwrap().offset);
        let mut h = Handle::new(&mut env, FlushStrategy::FliT).unwrap();
        h.write_word(site, p, 0, 9).unwrap();
        assert!(sp.word_tagged(w), "store must tag its word");
        h.op_persist();
        assert!(!sp.word_tagged(w), "persist point must untag the write set");
        assert_eq!(h.counters().ops, 1);
    }

    #[test]
    fn traverse_flushes_only_at_boundaries() {
        let (sp, mut env) = shared_env(13);
        let site = utpr_ptr::site!("conc.trav", StackLocal);
        let p = env.alloc(site, 128).unwrap();
        let mut h = Handle::new(&mut env, FlushStrategy::Traverse).unwrap();
        h.write_word(site, p, 0, 1).unwrap();
        h.read_word(site, p, 0).unwrap();
        assert_eq!(h.counters().flushes, 0, "traversal phase issues no clwb");
        assert_eq!(h.counters().elided, 1);
        h.ensure_reachable(p, 0, 24).unwrap();
        assert!(h.counters().flushes >= 1, "destination made durable");
        h.op_persist();
        assert_eq!(sp.pending_lines(), 0, "fence drains the pool");
    }
}
