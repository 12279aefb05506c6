//! The instrumented execution environment: functional semantics plus
//! micro-architectural narration for the paper's four build variants.
//!
//! Client code (the data structures, the KV harness, KNN) is written *once*
//! against [`ExecEnv`]. Every pointer operation carries a static [`Site`];
//! the environment performs the operation against the simulated
//! [`AddressSpace`] and emits the [`MemEvent`] stream a processor running
//! the corresponding build would see:
//!
//! - [`Mode::Volatile`] — the native build: plain pointers, DRAM only.
//! - [`Mode::Explicit`] — the explicit persistent-reference baseline
//!   (Wang et al., the paper's reference 26): object ids everywhere, a hardware translation on
//!   *every* access to a persistent object.
//! - [`Mode::Sw`] — user-transparent references with compiler-inserted
//!   software checks: unresolved sites execute real branches and call
//!   software `ra2va`/`va2ra`.
//! - [`Mode::Hw`] — user-transparent references with the paper's
//!   architecture support: `storeP`, POLB and VALB lookups.
//!
//! The key behavioural difference the paper measures (Fig. 12) falls out of
//! the model: in `Hw`/`Sw` modes a pointer loaded from memory is converted
//! to a virtual address once and then *reused*, while `Explicit` translates
//! again at every access.

use crate::c11::{self, Result, Translate};
use crate::event::{MemEvent, NullSink, TimingSink};
use crate::ptr::{PtrFormat, PtrSpace, UPtr};
use crate::site::{Site, PC_DETERMINE_Y_HELPER, PC_PA_DETERMINE_X, PC_PA_DETERMINE_Y};
use crate::stats::PtrStats;
use std::collections::HashSet;
use utpr_heap::addr::VirtAddr;
use utpr_heap::{AddressSpace, FaultPlan, HeapError, PoolId, RelLoc};

/// Which build of the program is being simulated.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Mode {
    /// Native volatile build: no NVM, no persistent pointers.
    Volatile,
    /// Explicit persistent references (object ids + per-access translation).
    Explicit,
    /// User-transparent references, software checks only.
    Sw,
    /// User-transparent references with architecture support.
    Hw,
}

impl Mode {
    /// All four modes, in the order the paper's figures list them.
    pub const ALL: [Mode; 4] = [Mode::Volatile, Mode::Explicit, Mode::Sw, Mode::Hw];

    /// Short label used in reports ("volatile", "explicit", "sw", "hw").
    pub fn label(self) -> &'static str {
        match self {
            Mode::Volatile => "volatile",
            Mode::Explicit => "explicit",
            Mode::Sw => "sw",
            Mode::Hw => "hw",
        }
    }
}

/// Where an allocation should be placed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Placement {
    /// Volatile heap.
    Dram,
    /// A persistent pool.
    Pool(PoolId),
}

/// Which sites execute software dynamic checks in [`Mode::Sw`] — the
/// ablation axis for the compiler pass.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum CheckPolicy {
    /// Use the dataflow inference result per site (the paper's compiler).
    #[default]
    Inferred,
    /// No inference at all: every site checks (a naive compiler).
    AlwaysCheck,
    /// A hypothetical perfect oracle: no site checks.
    Oracle,
}

// Cost-model constants (micro-ops charged for software actions). These are
// deliberately coarse; the timing model turns events into cycles.
const ALLOC_UOPS: u32 = 24;
const ALLOC_TOUCH_WORDS: u64 = 3;
const SW_CHECK_UOPS: u32 = 2;
const SW_CONV_UOPS: u32 = 8;
const PA_CALL_UOPS: u32 = 4;

/// Branch-kind discriminators for [`Site::pc`].
pub mod branch_kind {
    /// Inline `determineY` check on an operand.
    pub const DETERMINE_Y: u32 = 0;
    /// Second operand's `determineY` in binary operations.
    pub const DETERMINE_Y2: u32 = 1;
    /// The `pointerAssignment` helper's determineX/determineY pair,
    /// cached as one unit by the site check cache.
    pub const PA_PAIR: u32 = 2;
    /// Data-structure intrinsic branch (key compare, loop exit).
    pub const PROGRAM: u32 = 8;
}

/// One entry of the per-site monomorphic check cache: the last observed
/// check outcome at a `(site, kind)` pair, stamped with the translation
/// epoch it was observed under.
#[derive(Clone, Copy, Debug)]
struct SiteCheckEntry {
    outcome: u8,
    epoch: u64,
}

/// The instrumented execution environment.
///
/// # Examples
///
/// ```
/// use utpr_heap::AddressSpace;
/// use utpr_ptr::{site, ExecEnv, Mode, Placement};
///
/// let mut space = AddressSpace::new(7);
/// let pool = space.create_pool("nodes", 1 << 20)?;
/// let mut env = ExecEnv::builder(space).mode(Mode::Hw).pool(pool).build();
///
/// let node = env.alloc(site!("ex.alloc", AllocResult), 32)?;
/// env.write_u64(site!("ex.init", StackLocal), node, 0, 99)?;
/// assert_eq!(env.read_u64(site!("ex.read", StackLocal), node, 0)?, 99);
/// env.free(site!("ex.free", StackLocal), node)?;
/// # Ok::<(), utpr_heap::HeapError>(())
/// ```
#[derive(Debug)]
pub struct ExecEnv<S: TimingSink = NullSink> {
    space: AddressSpace,
    mode: Mode,
    pool: Option<PoolId>,
    stats: PtrStats,
    sink: S,
    check_policy: CheckPolicy,
    conversion_reuse: bool,
    /// Whether the per-site monomorphic check cache is active (SW mode;
    /// default on — a *modelled* optimization that changes the emitted
    /// event stream, unlike the translation caches; disable for the
    /// cache-off ablation arm).
    site_check_cache: bool,
    /// `(site id, kind)` → last observed outcome, epoch-stamped.
    site_cache: std::collections::HashMap<(usize, u32), SiteCheckEntry>,
    frame_cursor: u64,
    /// Which per-pool undo-log directory slot this environment's
    /// transactions use — each worker thread of a shared pool gets its own.
    txn_slot: u64,
    txn: Option<utpr_heap::UndoLog>,
    /// Frees issued inside the open transaction, applied at commit: the
    /// allocator would otherwise clobber the freed bytes and break undo
    /// rollback (the same reason PMDK defers frees to transaction end).
    txn_frees: Vec<UPtr>,
    /// Intra-pool offsets the open transaction has logged: a word's first
    /// undo image is the one rollback needs.
    txn_logged: HashSet<u32>,
    /// `[start, end)` offsets of blocks allocated inside the open
    /// transaction. Their words need no undo image: rollback restores every
    /// logged link to them, and a crash leaks them, as it always did.
    txn_fresh: Vec<(u32, u32)>,
}

/// Builder for [`ExecEnv`] — the one construction path that names every
/// knob: mode, default pool, event sink, check policy, conversion reuse,
/// and the fault-injection gate.
///
/// # Examples
///
/// ```
/// use utpr_heap::AddressSpace;
/// use utpr_ptr::{CountingSink, ExecEnv, Mode};
///
/// let mut space = AddressSpace::new(7);
/// let pool = space.create_pool("nodes", 1 << 20)?;
/// let env = ExecEnv::builder(space)
///     .mode(Mode::Hw)
///     .pool(pool)
///     .sink(CountingSink::new())
///     .build();
/// assert_eq!(env.mode(), Mode::Hw);
/// # Ok::<(), utpr_heap::HeapError>(())
/// ```
#[derive(Debug)]
pub struct ExecEnvBuilder<S: TimingSink = NullSink> {
    space: AddressSpace,
    mode: Mode,
    pool: Option<PoolId>,
    sink: S,
    check_policy: CheckPolicy,
    conversion_reuse: bool,
    site_check_cache: bool,
    txn_slot: u64,
    faults: Option<FaultPlan>,
}

impl<S: TimingSink> ExecEnvBuilder<S> {
    /// Sets the simulated build variant (default: [`Mode::Volatile`]).
    pub fn mode(mut self, mode: Mode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets the default pool placement for [`ExecEnv::alloc`].
    pub fn pool(mut self, pool: PoolId) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Replaces the event sink (default: [`NullSink`]).
    pub fn sink<T: TimingSink>(self, sink: T) -> ExecEnvBuilder<T> {
        ExecEnvBuilder {
            space: self.space,
            mode: self.mode,
            pool: self.pool,
            sink,
            check_policy: self.check_policy,
            conversion_reuse: self.conversion_reuse,
            site_check_cache: self.site_check_cache,
            txn_slot: self.txn_slot,
            faults: self.faults,
        }
    }

    /// Sets which sites execute software checks (SW-mode ablation).
    pub fn check_policy(mut self, policy: CheckPolicy) -> Self {
        self.check_policy = policy;
        self
    }

    /// Enables/disables conversion reuse for loaded pointers (Fig. 12
    /// ablation; default: enabled).
    pub fn conversion_reuse(mut self, on: bool) -> Self {
        self.conversion_reuse = on;
        self
    }

    /// Enables the per-site monomorphic check cache (SW mode; default:
    /// on). A *modelled* optimization: an elided check skips the
    /// `determineX/Y` events and charges one guard micro-op instead, with
    /// [`PtrStats::checks_elided`] counting the elisions — so enabling it
    /// changes the event stream by design, unlike the translation caches.
    pub fn site_check_cache(mut self, on: bool) -> Self {
        self.site_check_cache = on;
        self
    }

    /// Selects which per-pool undo-log directory slot transactions use
    /// (default: 0, the plain single-log format). Worker threads sharing
    /// one pool each build their environment with a distinct slot so their
    /// transactions log independently; see
    /// [`utpr_heap::UndoLog::ensure_slot`].
    pub fn txn_slot(mut self, slot: u64) -> Self {
        self.txn_slot = slot;
        self
    }

    /// Installs a fault-injection gate on the address space at build time
    /// (counting or armed — see [`FaultPlan`]).
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Finishes construction.
    pub fn build(self) -> ExecEnv<S> {
        let mut space = self.space;
        if let Some(f) = self.faults {
            space.set_faults(f);
        }
        ExecEnv {
            space,
            mode: self.mode,
            pool: self.pool,
            stats: PtrStats::new(),
            sink: self.sink,
            check_policy: self.check_policy,
            conversion_reuse: self.conversion_reuse,
            site_check_cache: self.site_check_cache,
            site_cache: std::collections::HashMap::new(),
            frame_cursor: 0,
            txn_slot: self.txn_slot,
            txn: None,
            txn_frees: Vec::new(),
            txn_logged: HashSet::new(),
            txn_fresh: Vec::new(),
        }
    }
}

impl ExecEnv<NullSink> {
    /// Starts building an environment over `space`; see [`ExecEnvBuilder`].
    pub fn builder(space: AddressSpace) -> ExecEnvBuilder<NullSink> {
        ExecEnvBuilder {
            space,
            mode: Mode::Volatile,
            pool: None,
            sink: NullSink,
            check_policy: CheckPolicy::Inferred,
            conversion_reuse: true,
            site_check_cache: true,
            txn_slot: 0,
            faults: None,
        }
    }
}

impl<S: TimingSink> ExecEnv<S> {
    /// Overrides which sites execute software checks (SW-mode ablation).
    pub fn set_check_policy(&mut self, policy: CheckPolicy) {
        self.check_policy = policy;
    }

    /// The active check policy.
    pub fn check_policy(&self) -> CheckPolicy {
        self.check_policy
    }

    /// Enables/disables the per-site monomorphic check cache at runtime
    /// (see [`ExecEnvBuilder::site_check_cache`]). Disabling drops every
    /// cached outcome.
    pub fn set_site_check_cache(&mut self, on: bool) {
        self.site_check_cache = on;
        if !on {
            self.site_cache.clear();
        }
    }

    /// Whether the per-site monomorphic check cache is active.
    pub fn site_check_cache_enabled(&self) -> bool {
        self.site_check_cache
    }

    /// Enables/disables the conversion-reuse behaviour of loaded pointers
    /// (paper Fig. 12 ablation). With reuse off, loaded relative pointers
    /// stay relative in locals, so every later access through them
    /// re-translates — the Explicit model's behaviour grafted onto HW.
    pub fn set_conversion_reuse(&mut self, on: bool) {
        self.conversion_reuse = on;
    }

    /// The simulated build variant.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// The configured default pool, if any.
    pub fn pool(&self) -> Option<PoolId> {
        self.pool
    }

    /// The undo-log slot this environment's transactions use.
    pub fn txn_slot(&self) -> u64 {
        self.txn_slot
    }

    /// Immutable access to the address space.
    pub fn space(&self) -> &AddressSpace {
        &self.space
    }

    /// Mutable access to the address space (pool management, restarts).
    pub fn space_mut(&mut self) -> &mut AddressSpace {
        &mut self.space
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> PtrStats {
        self.stats
    }

    /// Resets the counters (e.g. after a warm-up phase).
    pub fn reset_stats(&mut self) {
        self.stats = PtrStats::new();
    }

    /// The event sink.
    pub fn sink(&self) -> &S {
        &self.sink
    }

    /// Mutable access to the event sink.
    pub fn sink_mut(&mut self) -> &mut S {
        &mut self.sink
    }

    /// Decomposes the environment.
    pub fn into_parts(self) -> (AddressSpace, PtrStats, S) {
        (self.space, self.stats, self.sink)
    }

    /// Default placement used by [`ExecEnv::alloc`].
    pub fn default_placement(&self) -> Placement {
        match (self.mode, self.pool) {
            (Mode::Volatile, _) | (_, None) => Placement::Dram,
            (_, Some(p)) => Placement::Pool(p),
        }
    }

    #[inline]
    fn emit(&mut self, ev: MemEvent) {
        self.sink.event(ev);
    }

    /// Whether a site keeps its dynamic check under the active policy.
    #[inline]
    fn site_unresolved(&self, site: &'static Site) -> bool {
        match self.check_policy {
            CheckPolicy::Inferred => !site.is_statically_resolved(),
            CheckPolicy::AlwaysCheck => true,
            CheckPolicy::Oracle => false,
        }
    }

    /// Consults the per-site monomorphic check cache: when the `(site,
    /// kind)` pair last observed exactly `outcome` under the current
    /// translation epoch, the check is elided — `n` elisions are counted
    /// and one guard micro-op is charged (the inline cache's epoch/format
    /// compare). Otherwise the entry is (re)armed with `outcome` and the
    /// caller must execute the full check. The outcome byte keeps
    /// polymorphic sites executing every time, and the epoch stamp forces
    /// re-validation after any attach/detach/quarantine churn.
    fn try_elide(&mut self, site: &'static Site, kind: u32, outcome: u8, n: u64) -> bool {
        let epoch = self.space.translation_epoch();
        let key = (site.id(), kind);
        if let Some(e) = self.site_cache.get(&key) {
            if e.epoch == epoch && e.outcome == outcome {
                self.stats.checks_elided += n;
                self.emit(MemEvent::Exec(1));
                return true;
            }
        }
        self.site_cache.insert(key, SiteCheckEntry { outcome, epoch });
        false
    }

    /// Executes a software dynamic check (SW mode, unresolved sites only).
    /// The check is a call into the shared out-of-line `determineY` helper
    /// — the pass runs after inlining (paper §VI), so every unresolved site
    /// funnels its outcome stream through the helper's one branch.
    #[inline]
    fn sw_check(&mut self, site: &'static Site, kind: u32, taken: bool) {
        if self.mode == Mode::Sw && self.site_unresolved(site) {
            if self.site_check_cache && self.try_elide(site, kind, u8::from(taken), 1) {
                return;
            }
            self.stats.dynamic_checks += 1;
            self.stats.check_branches += 1;
            self.emit(MemEvent::Exec(SW_CHECK_UOPS));
            self.emit(MemEvent::Branch { pc: PC_DETERMINE_Y_HELPER, taken });
        }
    }

    /// Resolves a pointer (+ byte offset) to the virtual address an access
    /// would touch ([`c11::deref_target`]), emitting translation events as
    /// the mode requires; the flag says whether the pointer was relative.
    #[inline]
    fn resolve(&mut self, site: &'static Site, base: UPtr, off: i64) -> Result<(VirtAddr, bool)> {
        let p = base.offset(off);
        let rel = p.format() == PtrFormat::Relative;
        self.sw_check(site, branch_kind::DETERMINE_Y, rel);
        Ok((c11::deref_target(self, p)?, rel))
    }

    // ---- data access (load / storeD) ----------------------------------------

    /// Loads the `u64` at `base + off`.
    ///
    /// # Errors
    ///
    /// Faults on null, unmapped addresses, and detached pools.
    #[inline]
    pub fn read_u64(&mut self, site: &'static Site, base: UPtr, off: i64) -> Result<u64> {
        let (va, rel_base) = self.resolve(site, base, off)?;
        self.stats.loads += 1;
        self.emit(MemEvent::Load { va: va.raw(), rel_base });
        self.space.read_u64(va)
    }

    /// Stores a `u64` at `base + off` (`storeD`).
    ///
    /// # Errors
    ///
    /// Faults on null, unmapped addresses, and detached pools.
    #[inline]
    pub fn write_u64(&mut self, site: &'static Site, base: UPtr, off: i64, v: u64) -> Result<()> {
        let (va, rel_base) = self.resolve(site, base, off)?;
        self.txn_log(va)?;
        self.stats.stores += 1;
        self.emit(MemEvent::Store { va: va.raw(), rel_base });
        self.space.write_u64(va, v)
    }

    /// Atomic compare-and-swap on the `u64` at `base + off`. Returns
    /// `(swapped, old value)`: the CAS published `new` iff the word still
    /// held `expected`. Charged as one load plus one store (LL/SC-style
    /// accounting); the swap itself is atomic against every concurrent
    /// staged write on a shared pool ([`AddressSpace::cas_u64`]). The
    /// lock-free index variants build their mark/link protocol on this.
    ///
    /// # Errors
    ///
    /// Faults on null, unmapped addresses, and detached pools.
    #[inline]
    pub fn cas_u64(
        &mut self,
        site: &'static Site,
        base: UPtr,
        off: i64,
        expected: u64,
        new: u64,
    ) -> Result<(bool, u64)> {
        let (va, rel_base) = self.resolve(site, base, off)?;
        self.txn_log(va)?;
        self.stats.loads += 1;
        self.stats.stores += 1;
        self.emit(MemEvent::Load { va: va.raw(), rel_base });
        self.emit(MemEvent::Store { va: va.raw(), rel_base });
        Ok(self.space.cas_u64(va, expected, new)?)
    }

    /// Loads the `f64` at `base + off` (bit-pattern stored as a word).
    ///
    /// # Errors
    ///
    /// Same as [`ExecEnv::read_u64`].
    #[inline]
    pub fn read_f64(&mut self, site: &'static Site, base: UPtr, off: i64) -> Result<f64> {
        Ok(f64::from_bits(self.read_u64(site, base, off)?))
    }

    /// Stores an `f64` at `base + off`.
    ///
    /// # Errors
    ///
    /// Same as [`ExecEnv::write_u64`].
    #[inline]
    pub fn write_f64(&mut self, site: &'static Site, base: UPtr, off: i64, v: f64) -> Result<()> {
        self.write_u64(site, base, off, v.to_bits())
    }

    // ---- pointer access (pointer load / storeP) -------------------------------

    /// Loads the pointer stored at `base + off` and binds it to a local,
    /// which in the user-transparent modes converts a relative value to its
    /// virtual address once (the conversion-reuse effect of paper Fig. 12):
    /// a local is a DRAM destination of [`c11::assign_value`].
    /// In [`Mode::Explicit`] the raw object id is returned and every later
    /// access through it will translate again.
    ///
    /// # Errors
    ///
    /// Faults on null/unmapped bases and detached pools.
    #[inline]
    pub fn read_ptr(&mut self, site: &'static Site, base: UPtr, off: i64) -> Result<UPtr> {
        let (va, rel_base) = self.resolve(site, base, off)?;
        self.stats.ptr_loads += 1;
        self.emit(MemEvent::Load { va: va.raw(), rel_base });
        let raw = UPtr::from_raw(self.space.read_u64(va)?);
        match self.mode {
            Mode::Volatile | Mode::Explicit => Ok(raw),
            Mode::Sw | Mode::Hw => {
                self.sw_check(
                    site,
                    branch_kind::DETERMINE_Y2,
                    raw.format() == PtrFormat::Relative,
                );
                if !self.conversion_reuse {
                    return Ok(raw);
                }
                c11::assign_value(self, PtrSpace::Dram, raw)
            }
        }
    }

    /// Stores pointer `value` at `base + off` — the `storeP` instruction /
    /// `pointerAssignment` helper. The stored format follows the paper's
    /// Fig. 3 ([`c11::assign_value`]): persistent destinations store
    /// relocation-stable relative addresses, volatile destinations store
    /// virtual addresses.
    ///
    /// # Errors
    ///
    /// Faults on null/unmapped destinations and detached pools.
    #[inline]
    pub fn write_ptr(
        &mut self,
        site: &'static Site,
        base: UPtr,
        off: i64,
        value: UPtr,
    ) -> Result<()> {
        let (dva, rd_was_rel) = self.resolve(site, base, off)?;
        let dest_nvm = dva.is_nvm_region();

        // SW: unresolved sites call the shared pointerAssignment helper,
        // whose two internal branches see the interleaved outcome stream of
        // every call site (this is where Fig. 13's mispredictions live).
        let unresolved_sw = self.mode == Mode::Sw && self.site_unresolved(site);
        if unresolved_sw {
            // The helper's two outcomes are cached as one unit: a site that
            // always links the same formats skips the whole call.
            let value_rel = value.format() == PtrFormat::Relative;
            let outcome = u8::from(dest_nvm) | (u8::from(value_rel) << 1);
            if !(self.site_check_cache && self.try_elide(site, branch_kind::PA_PAIR, outcome, 2)) {
                self.stats.dynamic_checks += 2;
                self.stats.check_branches += 2;
                self.emit(MemEvent::Exec(PA_CALL_UOPS));
                self.emit(MemEvent::Branch { pc: PC_PA_DETERMINE_X, taken: dest_nvm });
                self.emit(MemEvent::Branch { pc: PC_PA_DETERMINE_Y, taken: value_rel });
            }
        }

        let dest = if dest_nvm { PtrSpace::Nvm } else { PtrSpace::Dram };
        let stored = c11::assign_value(self, dest, value)?;

        match self.mode {
            Mode::Hw => {
                // The value changed iff a hook fired: va2ra into NVM,
                // ra2va into DRAM.
                let converted = stored != value;
                self.stats.storep += 1;
                self.emit(MemEvent::StoreP {
                    va: dva.raw(),
                    rs_va2ra: converted && dest_nvm,
                    rs_ra2va: converted && !dest_nvm,
                    rd_ra2va: rd_was_rel,
                });
            }
            Mode::Sw => {
                self.stats.storep += 1;
                self.emit(MemEvent::Store { va: dva.raw(), rel_base: false });
            }
            Mode::Volatile | Mode::Explicit => {
                self.stats.stores += 1;
                self.emit(MemEvent::Store { va: dva.raw(), rel_base: rd_was_rel });
            }
        }
        self.txn_log(dva)?;
        self.space.write_u64(dva, stored.raw())
    }

    // ---- comparisons ----------------------------------------------------------

    /// `a == b` over pointers ([`c11::eq`]), with the mode's
    /// check/conversion costs.
    ///
    /// # Errors
    ///
    /// Faults when a needed conversion hits a detached pool.
    #[inline]
    pub fn ptr_eq(&mut self, site: &'static Site, a: UPtr, b: UPtr) -> Result<bool> {
        self.sw_check(site, branch_kind::DETERMINE_Y, a.format() == PtrFormat::Relative);
        self.sw_check(site, branch_kind::DETERMINE_Y2, b.format() == PtrFormat::Relative);
        self.emit(MemEvent::Exec(1));
        if self.mode == Mode::Explicit {
            // Object ids compare directly.
            return Ok(a.raw() == b.raw());
        }
        c11::eq(self, a, b)
    }

    /// `p == NULL` — the null test every pointer-chasing loop performs. In
    /// SW mode an unresolved site still executes its `determineY` check
    /// first (the compiler cannot know `p`'s format even when comparing to
    /// null), and the *outcome* branch itself is program-intrinsic.
    #[inline]
    pub fn ptr_is_null(&mut self, site: &'static Site, p: UPtr) -> bool {
        self.sw_check(site, branch_kind::DETERMINE_Y, p.format() == PtrFormat::Relative);
        self.emit(MemEvent::Exec(1));
        self.emit(MemEvent::Branch { pc: site.pc(branch_kind::PROGRAM), taken: p.is_null() });
        p.is_null()
    }

    // ---- allocation -------------------------------------------------------------

    fn charge_alloc(&mut self, region_probe: VirtAddr) {
        self.emit(MemEvent::Exec(ALLOC_UOPS));
        for i in 0..ALLOC_TOUCH_WORDS {
            self.emit(MemEvent::Load { va: region_probe.raw() + i * 8, rel_base: false });
            self.emit(MemEvent::Store { va: region_probe.raw() + i * 8, rel_base: false });
        }
    }

    /// Allocates `size` bytes at the default placement and returns a pointer
    /// bound to a local (virtual format in UTPR modes, object id in
    /// Explicit).
    ///
    /// # Errors
    ///
    /// Propagates allocator failures.
    pub fn alloc(&mut self, site: &'static Site, size: u64) -> Result<UPtr> {
        self.alloc_in(site, self.default_placement(), size)
    }

    /// Allocates at an explicit placement.
    ///
    /// In [`Mode::Volatile`] pool placements are redirected to DRAM: the
    /// volatile build of a program has no pools at all.
    ///
    /// # Errors
    ///
    /// Propagates allocator failures.
    pub fn alloc_in(&mut self, site: &'static Site, place: Placement, size: u64) -> Result<UPtr> {
        // Allocation-result sites are always statically resolved, so no
        // dynamic check is charged; the site is kept for API symmetry.
        debug_assert!(site.is_statically_resolved() || !site.name().is_empty());
        self.stats.allocs += 1;
        match (self.mode, place) {
            (Mode::Volatile, _) | (_, Placement::Dram) => {
                let va = self.space.malloc(size)?;
                self.charge_alloc(VirtAddr::new(utpr_heap::addr::DRAM_BASE));
                Ok(UPtr::from_va(va))
            }
            (_, Placement::Pool(pool)) => {
                let loc = self.space.pmalloc(pool, size)?;
                if self.txn.as_ref().is_some_and(|log| log.pool() == pool) {
                    let end = u32::try_from(u64::from(loc.offset) + size).unwrap_or(u32::MAX);
                    self.txn_fresh.push((loc.offset, end));
                }
                let base = self.space.attachment(pool).map(|a| a.base).unwrap_or(VirtAddr::new(
                    utpr_heap::addr::NVM_BASE,
                ));
                self.charge_alloc(base);
                match self.mode {
                    Mode::Explicit => Ok(UPtr::from_rel(loc)),
                    _ => {
                        // pmalloc returns a relative address by definition;
                        // binding it to a local converts it (site resolved:
                        // no dynamic check, just the conversion).
                        Ok(UPtr::from_va(self.ra2va(loc)?))
                    }
                }
            }
        }
    }

    /// Frees an allocation in whichever space it lives. Freeing null is a
    /// no-op, as in C.
    ///
    /// # Errors
    ///
    /// Propagates allocator and translation failures.
    pub fn free(&mut self, site: &'static Site, p: UPtr) -> Result<()> {
        if p.is_null() {
            return Ok(());
        }
        self.stats.frees += 1;
        self.sw_check(site, branch_kind::DETERMINE_Y, p.format() == PtrFormat::Relative);
        self.emit(MemEvent::Exec(ALLOC_UOPS / 2));
        if self.txn.is_some() && p.space() == crate::ptr::PtrSpace::Nvm {
            // Defer to commit so rollback can resurrect the object intact.
            self.txn_frees.push(p);
            return Ok(());
        }
        self.free_now(p)
    }

    fn free_now(&mut self, p: UPtr) -> Result<()> {
        c11::free_target(self, p)?.free(&mut self.space)
    }

    // ---- persistent transactions -----------------------------------------------

    /// Opens a persistent transaction on the default pool (paper §VI: the
    /// application encloses library calls in a transaction; logging is then
    /// inserted transparently — here, by [`ExecEnv::write_u64`] and
    /// [`ExecEnv::write_ptr`] undo-logging every NVM word they overwrite).
    ///
    /// # Errors
    ///
    /// Faults when no pool is configured or a transaction is already open.
    pub fn txn_begin(&mut self) -> Result<()> {
        let pool = match self.default_placement() {
            Placement::Pool(p) => p,
            Placement::Dram => return Err(HeapError::CorruptRegion("no pool for transaction")),
        };
        let log = utpr_heap::UndoLog::ensure_slot(&mut self.space, pool, 1 << 16, self.txn_slot)?;
        log.begin(&mut self.space)?;
        self.emit(MemEvent::Exec(8));
        self.txn = Some(log);
        // A fresh transaction starts with no deferred work. (After a
        // simulated crash the env object outlives the "process"; any
        // deferred frees from the torn transaction are void — the crash
        // rolled their unlinking back.)
        self.txn_forget();
        Ok(())
    }

    /// Drops the open transaction's volatile bookkeeping: deferred frees,
    /// write set, fresh blocks.
    fn txn_forget(&mut self) {
        self.txn_frees.clear();
        self.txn_logged.clear();
        self.txn_fresh.clear();
    }

    /// Commits the open transaction.
    ///
    /// # Errors
    ///
    /// Faults when no transaction is open.
    pub fn txn_commit(&mut self) -> Result<()> {
        let log = self.txn.take().ok_or(HeapError::CorruptRegion("no open transaction"))?;
        log.commit(&mut self.space)?;
        self.emit(MemEvent::Exec(4));
        // Apply the frees deferred during the transaction.
        let deferred = std::mem::take(&mut self.txn_frees);
        self.txn_forget();
        for p in deferred {
            self.free_now(p)?;
        }
        Ok(())
    }

    /// Aborts the open transaction, rolling back every logged write.
    ///
    /// # Errors
    ///
    /// Faults when no transaction is open.
    pub fn txn_abort(&mut self) -> Result<()> {
        let log = self.txn.take().ok_or(HeapError::CorruptRegion("no open transaction"))?;
        log.abort(&mut self.space)?;
        self.emit(MemEvent::Exec(16));
        // Rolled back: the "freed" objects are back in the structure, so
        // the deferred frees are simply dropped.
        self.txn_forget();
        Ok(())
    }

    /// Runs `body` inside a persistent transaction: [`ExecEnv::txn_begin`],
    /// the closure, then [`ExecEnv::txn_commit`] on `Ok` — or
    /// [`ExecEnv::txn_abort`] on `Err`, so the armed log can never leak
    /// past the closure. Prefer this over the raw begin/commit pair.
    ///
    /// An injected crash ([`HeapError::CrashInjected`]) skips the abort —
    /// a real crash kills the process before any rollback could run — and
    /// instead drops the dead environment's volatile transaction state;
    /// the torn log in the pool is [`utpr_heap::UndoLog::recover`]'s job.
    ///
    /// # Errors
    ///
    /// Propagates begin/commit failures and the closure's error.
    pub fn with_txn<T, F>(&mut self, body: F) -> Result<T>
    where
        F: FnOnce(&mut Self) -> Result<T>,
    {
        self.txn_begin()?;
        match body(self) {
            Ok(value) => {
                self.txn_commit()?;
                Ok(value)
            }
            Err(e) => {
                if matches!(e, HeapError::CrashInjected { .. }) {
                    self.txn = None;
                    self.txn_forget();
                    // The worker is dead: abandon (leak) its arena leases
                    // rather than letting a later `bind_arena_slab` hand
                    // the remainder — whose carve state may hold unflushed
                    // line bytes — back to the central free list for
                    // re-carving. Recovery reclaims nothing here, exactly
                    // like thread-cached blocks at a real power loss.
                    self.space.abandon_arena_leases();
                } else {
                    self.txn_abort()?;
                }
                Err(e)
            }
        }
    }

    /// True while a transaction is open.
    pub fn in_txn(&self) -> bool {
        self.txn.is_some()
    }

    /// Undo-logs the NVM word at `dva` when a transaction is open and the
    /// word needs an undo image — not yet logged, not in a block allocated
    /// inside the transaction; charges the log-append traffic (one load of
    /// the old value, two log stores) for the words it logs.
    fn txn_log(&mut self, dva: VirtAddr) -> Result<()> {
        let Some(log) = &self.txn else { return Ok(()) };
        if !dva.is_nvm_region() {
            return Ok(());
        }
        let loc = self.space.va2ra(dva)?;
        if loc.pool != log.pool() // other pools are outside this transaction
            || self.txn_fresh.iter().rev().any(|&(lo, hi)| (lo..hi).contains(&loc.offset))
            || !self.txn_logged.insert(loc.offset)
        {
            return Ok(());
        }
        log.log_word(&mut self.space, loc)?;
        let log_va = self
            .space
            .attachment(log.pool())
            .map(|a| a.base.raw() + log.base_offset())
            .unwrap_or(utpr_heap::addr::NVM_BASE);
        self.emit(MemEvent::Exec(4));
        self.emit(MemEvent::Load { va: dva.raw(), rel_base: false });
        self.emit(MemEvent::Store { va: log_va, rel_base: false });
        self.emit(MemEvent::Store { va: log_va + 8, rel_base: false });
        Ok(())
    }

    // ---- persistent roots ----------------------------------------------------

    /// Reads the default pool's root pointer (the durable entry point),
    /// converting it like any loaded pointer.
    ///
    /// # Errors
    ///
    /// Faults when no pool is configured or the root conversion fails.
    pub fn root(&mut self, site: &'static Site) -> Result<UPtr> {
        match self.default_placement() {
            Placement::Dram => {
                // Volatile build: the "root" is a DRAM global.
                let va = self.volatile_root_slot()?;
                self.stats.ptr_loads += 1;
                self.emit(MemEvent::Load { va: va.raw(), rel_base: false });
                Ok(UPtr::from_raw(self.space.read_u64(va)?))
            }
            Placement::Pool(pool) => {
                let base = self
                    .space
                    .attachment(pool)
                    .ok_or(HeapError::PoolDetached(pool))?
                    .base;
                self.stats.ptr_loads += 1;
                self.emit(MemEvent::Load { va: base.raw() + 0x28, rel_base: false });
                let raw = UPtr::from_raw(self.space.pool_root(pool)?);
                match self.mode {
                    Mode::Volatile | Mode::Explicit => Ok(raw),
                    _ => {
                        self.sw_check(
                            site,
                            branch_kind::DETERMINE_Y,
                            raw.format() == PtrFormat::Relative,
                        );
                        c11::assign_value(self, PtrSpace::Dram, raw)
                    }
                }
            }
        }
    }

    /// Stores the default pool's root pointer, in relocation-stable form for
    /// pool placements.
    ///
    /// # Errors
    ///
    /// Faults when no pool is configured or conversion fails.
    pub fn set_root(&mut self, site: &'static Site, p: UPtr) -> Result<()> {
        match self.default_placement() {
            Placement::Dram => {
                let va = self.volatile_root_slot()?;
                self.stats.stores += 1;
                self.emit(MemEvent::Store { va: va.raw(), rel_base: false });
                self.space.write_u64(va, p.raw())
            }
            Placement::Pool(pool) => {
                let base = self
                    .space
                    .attachment(pool)
                    .ok_or(HeapError::PoolDetached(pool))?
                    .base;
                let stored = c11::assign_value(self, PtrSpace::Nvm, p)?;
                match self.mode {
                    Mode::Hw => {
                        self.stats.storep += 1;
                        self.emit(MemEvent::StoreP {
                            va: base.raw() + 0x28,
                            rs_va2ra: stored != p,
                            rs_ra2va: false,
                            rd_ra2va: false,
                        });
                    }
                    _ => {
                        self.sw_check(site, branch_kind::DETERMINE_Y, false);
                        self.stats.stores += 1;
                        self.emit(MemEvent::Store { va: base.raw() + 0x28, rel_base: false });
                    }
                }
                self.space.set_pool_root(pool, stored.raw())
            }
        }
    }

    fn volatile_root_slot(&mut self) -> Result<VirtAddr> {
        // A fixed DRAM word acting as the volatile build's global root.
        Ok(VirtAddr::new(utpr_heap::addr::DRAM_BASE + 0x30))
    }

    // ---- program-intrinsic costs ------------------------------------------------

    /// Records a data-structure-intrinsic conditional branch (key compare,
    /// loop exit). Present in every mode; gives Fig. 13 its baseline.
    #[inline]
    pub fn branch(&mut self, site: &'static Site, taken: bool) {
        self.emit(MemEvent::Branch { pc: site.pc(branch_kind::PROGRAM), taken });
    }

    /// Charges `n` plain ALU micro-ops of program work.
    #[inline]
    pub fn charge_exec(&mut self, n: u32) {
        self.emit(MemEvent::Exec(n));
    }

    /// Charges application frame traffic: stack loads/stores in a small hot
    /// DRAM region plus plain micro-ops. Models the per-operation work of
    /// the surrounding program (argument marshalling, frames, client code)
    /// that a whole-program trace would contain — identical in every mode.
    pub fn frame_traffic(&mut self, loads: u32, stores: u32, uops: u32) {
        const STACK_BASE: u64 = 0x7f00_0000;
        self.emit(MemEvent::Exec(uops));
        for i in 0..loads {
            let va = STACK_BASE + (self.frame_cursor + u64::from(i) * 8) % 4096;
            self.emit(MemEvent::Load { va, rel_base: false });
        }
        for i in 0..stores {
            let va = STACK_BASE + (self.frame_cursor + u64::from(i) * 8 + 2048) % 4096;
            self.emit(MemEvent::Store { va, rel_base: false });
        }
        self.frame_cursor = (self.frame_cursor + 40) % 4096;
    }

    // ---- uninstrumented inspection ------------------------------------------------

    /// Reads the raw stored word at `base + off` without emitting events or
    /// conversions — for tests that verify the *stored format* of pointers
    /// (the paper's soundness criterion that NVM-resident pointers hold
    /// correct relative addresses).
    ///
    /// # Errors
    ///
    /// Faults on unmapped addresses.
    /// `ra2va` reads the pool table and the read goes through
    /// [`AddressSpace::read_u64_uncached`], so the oracle can never observe
    /// — or perturb — the sVALB.
    pub fn peek_raw(&self, base: UPtr, off: i64) -> Result<u64> {
        let p = base.offset(off);
        let va = match p.kind() {
            crate::ptr::PtrKind::Null => return Err(HeapError::Unmapped(VirtAddr::new(0))),
            crate::ptr::PtrKind::Va(va) => va,
            crate::ptr::PtrKind::Rel(loc) => self.space.ra2va(loc)?,
        };
        self.space.read_u64_uncached(va)
    }
}

/// The environment's conversion hook: counts each conversion and narrates it
/// the way the mode's build performs it. Every [`c11`] rule the environment
/// runs converts through here.
impl<S: TimingSink> Translate for ExecEnv<S> {
    #[inline]
    fn ra2va(&mut self, loc: RelLoc) -> Result<VirtAddr> {
        let va = self.space.ra2va(loc)?;
        self.stats.rel_to_abs += 1;
        match self.mode {
            Mode::Hw => self.emit(MemEvent::PolbAccess { pool: loc.pool.raw() }),
            Mode::Sw => {
                self.emit(MemEvent::Exec(SW_CONV_UOPS));
                self.emit(MemEvent::SwRa2Va { pool: loc.pool.raw() });
            }
            Mode::Explicit => {
                // The explicit model's accessor (a D_RO/direct-style API)
                // spends extra instructions computing base+offset on every
                // access, on the load's critical path.
                self.stats.explicit_translations += 1;
                self.emit(MemEvent::Exec(2));
                self.emit(MemEvent::PolbAccess { pool: loc.pool.raw() });
            }
            Mode::Volatile => {}
        }
        Ok(va)
    }

    #[inline]
    fn va2ra(&mut self, va: VirtAddr) -> Result<RelLoc> {
        let loc = self.space.va2ra(va)?;
        self.stats.abs_to_rel += 1;
        match self.mode {
            Mode::Hw => self.emit(MemEvent::ValbAccess { va: va.raw() }),
            Mode::Sw => {
                self.emit(MemEvent::Exec(SW_CONV_UOPS));
                self.emit(MemEvent::SwVa2Ra { va: va.raw() });
            }
            _ => {}
        }
        Ok(loc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::CountingSink;
    use crate::site;

    fn env(mode: Mode) -> ExecEnv<CountingSink> {
        let mut space = AddressSpace::new(23);
        let pool = space.create_pool("t", 1 << 20).unwrap();
        ExecEnv::builder(space).mode(mode).pool(pool).sink(CountingSink::new()).build()
    }

    #[test]
    fn builder_defaults_and_knobs() {
        let space = AddressSpace::new(3);
        let e = ExecEnv::builder(space).build();
        assert_eq!(e.mode(), Mode::Volatile);
        assert_eq!(e.check_policy(), CheckPolicy::Inferred);
        assert_eq!(e.default_placement(), Placement::Dram);

        let mut space = AddressSpace::new(3);
        let pool = space.create_pool("b", 1 << 20).unwrap();
        let e = ExecEnv::builder(space)
            .mode(Mode::Sw)
            .pool(pool)
            .check_policy(CheckPolicy::AlwaysCheck)
            .conversion_reuse(false)
            .faults(utpr_heap::FaultPlan::counting())
            .build();
        assert_eq!(e.mode(), Mode::Sw);
        assert_eq!(e.check_policy(), CheckPolicy::AlwaysCheck);
        assert_eq!(e.default_placement(), Placement::Pool(pool));
        assert!(e.space().faults().is_enabled());
    }

    #[test]
    fn builder_with_only_mode_pool_and_sink_places_in_the_pool() {
        let mut space = AddressSpace::new(23);
        let pool = space.create_pool("t", 1 << 20).unwrap();
        let e = ExecEnv::builder(space).mode(Mode::Hw).pool(pool).sink(CountingSink::new()).build();
        assert_eq!(e.mode(), Mode::Hw);
        assert_eq!(e.default_placement(), Placement::Pool(pool));
    }

    /// Like `env`, with room for the default-capacity undo log.
    fn txn_env(mode: Mode) -> ExecEnv<CountingSink> {
        let mut space = AddressSpace::new(23);
        let pool = space.create_pool("t", 1 << 22).unwrap();
        ExecEnv::builder(space).mode(mode).pool(pool).sink(CountingSink::new()).build()
    }

    #[test]
    fn with_txn_commits_on_ok_and_aborts_on_err() {
        let mut e = txn_env(Mode::Hw);
        let a = e.alloc(site!("t.a", AllocResult), 32).unwrap();
        e.write_u64(site!("t.init", StackLocal), a, 0, 10).unwrap();

        let v = e
            .with_txn(|e| {
                e.write_u64(site!("t.w", StackLocal), a, 0, 20)?;
                Ok(20)
            })
            .unwrap();
        assert_eq!(v, 20);
        assert!(!e.in_txn());
        assert_eq!(e.read_u64(site!("t.r", StackLocal), a, 0).unwrap(), 20);

        let err: Result<()> = e.with_txn(|e| {
            e.write_u64(site!("t.w2", StackLocal), a, 0, 30)?;
            Err(HeapError::OutOfMemory { requested: 1 })
        });
        assert!(err.is_err());
        assert!(!e.in_txn());
        assert_eq!(
            e.read_u64(site!("t.r2", StackLocal), a, 0).unwrap(),
            20,
            "aborted txn rolled back"
        );
    }

    #[test]
    fn with_txn_crash_skips_abort_and_recovery_rolls_back() {
        let mut e = txn_env(Mode::Hw);
        let a = e.alloc(site!("t.a", AllocResult), 32).unwrap();
        e.write_u64(site!("t.init", StackLocal), a, 0, 10).unwrap();
        let loc = e.space().va2ra(a.as_va().unwrap()).unwrap();
        // Materialize the log before arming so the crash strikes the
        // transaction body, not the one-time log allocation.
        e.txn_begin().unwrap();
        e.txn_commit().unwrap();

        e.space_mut().set_faults(utpr_heap::FaultPlan::crash_at(4));
        let err: Result<()> = e.with_txn(|e| e.write_u64(site!("t.w", StackLocal), a, 0, 99));
        assert!(matches!(err, Err(HeapError::CrashInjected { .. })));
        assert!(!e.in_txn(), "dead env dropped its volatile txn handle");

        let rec = utpr_heap::crash_and_recover(e.space_mut(), "t").unwrap();
        assert_eq!(rec.pool, loc.pool);
        let va = e.space().ra2va(loc).unwrap();
        assert_eq!(e.space().read_u64(va).unwrap(), 10, "torn write rolled back");
    }

    #[test]
    fn volatile_allocates_dram_and_is_conversion_free() {
        let mut e = env(Mode::Volatile);
        let p = e.alloc(site!("t.alloc", AllocResult), 64).unwrap();
        assert_eq!(p.space(), PtrSpace::Dram);
        e.write_u64(site!("t.w", StackLocal), p, 0, 5).unwrap();
        assert_eq!(e.read_u64(site!("t.r", StackLocal), p, 0).unwrap(), 5);
        assert_eq!(e.stats().conversions(), 0);
        assert_eq!(e.stats().dynamic_checks, 0);
    }

    #[test]
    fn hw_alloc_returns_converted_va() {
        let mut e = env(Mode::Hw);
        let p = e.alloc(site!("t.alloc", AllocResult), 64).unwrap();
        assert_eq!(p.format(), PtrFormat::Virtual);
        assert_eq!(p.space(), PtrSpace::Nvm);
        assert_eq!(e.stats().rel_to_abs, 1);
        assert_eq!(e.sink().polb_accesses, 1);
    }

    #[test]
    fn explicit_alloc_returns_object_id() {
        let mut e = env(Mode::Explicit);
        let p = e.alloc(site!("t.alloc", AllocResult), 64).unwrap();
        assert_eq!(p.format(), PtrFormat::Relative);
        // Every data access through it translates.
        e.write_u64(site!("t.w", Param), p, 0, 9).unwrap();
        e.read_u64(site!("t.r", Param), p, 0).unwrap();
        e.read_u64(site!("t.r2", Param), p, 8).unwrap();
        assert_eq!(e.stats().explicit_translations, 3);
        assert_eq!(e.sink().polb_accesses, 3);
    }

    #[test]
    fn hw_pointer_store_to_nvm_is_relative_in_memory() {
        let mut e = env(Mode::Hw);
        let a = e.alloc(site!("t.a", AllocResult), 32).unwrap();
        let b = e.alloc(site!("t.b", AllocResult), 32).unwrap();
        e.write_ptr(site!("t.link", MemLoad), a, 0, b).unwrap();
        // In memory: relative format (bit 63 set).
        let raw = e.peek_raw(a, 0).unwrap();
        assert_ne!(raw & (1 << 63), 0, "NVM-resident pointer must be relative");
        // Loaded back: virtual format, same object.
        let back = e.read_ptr(site!("t.load", MemLoad), a, 0).unwrap();
        assert_eq!(back.format(), PtrFormat::Virtual);
        assert!(e.ptr_eq(site!("t.eq", Param), back, b).unwrap());
        // storeP was emitted with a va2ra translation.
        assert_eq!(e.sink().storep, 1);
        assert_eq!(e.sink().storep_va2ra, 1);
        assert_eq!(e.sink().valb_accesses, 1);
    }

    #[test]
    fn sw_mode_counts_checks_only_at_unresolved_sites() {
        let mut e = env(Mode::Sw);
        let a = e.alloc(site!("t.a", AllocResult), 32).unwrap();
        let before = e.stats().dynamic_checks;
        // Resolved site: no check.
        e.read_u64(site!("t.r.known", StackLocal), a, 0).unwrap();
        assert_eq!(e.stats().dynamic_checks, before);
        // Unresolved site: check executed.
        e.read_u64(site!("t.r.param", Param), a, 0).unwrap();
        assert_eq!(e.stats().dynamic_checks, before + 1);
        assert!(e.sink().branches > 0);
    }

    #[test]
    fn sw_pointer_assignment_calls_helper_with_two_checks() {
        let mut e = env(Mode::Sw);
        let a = e.alloc(site!("t.a", AllocResult), 32).unwrap();
        let b = e.alloc(site!("t.b", AllocResult), 32).unwrap();
        let before = e.stats().dynamic_checks;
        e.write_ptr(site!("t.link", MemLoad), a, 0, b).unwrap();
        // One determineY on the destination base (Fig. 9's `&tmp_p_1.next`)
        // plus the helper's determineX/determineY pair.
        assert_eq!(e.stats().dynamic_checks, before + 3);
        assert_eq!(e.stats().storep, 1);
        // Conversion happened in software.
        assert_eq!(e.sink().sw_va2ra, 1);
        assert_eq!(e.sink().valb_accesses, 0);
    }

    #[test]
    fn read_ptr_converts_once_then_plain_access() {
        let mut e = env(Mode::Hw);
        let a = e.alloc(site!("t.a", AllocResult), 32).unwrap();
        let b = e.alloc(site!("t.b", AllocResult), 32).unwrap();
        e.write_ptr(site!("t.link", MemLoad), a, 0, b).unwrap();
        let polb0 = e.sink().polb_accesses;
        let p = e.read_ptr(site!("t.load", MemLoad), a, 0).unwrap();
        assert_eq!(e.sink().polb_accesses, polb0 + 1, "one conversion at load");
        // Field accesses through the converted pointer are translation-free.
        e.read_u64(site!("t.f1", MemLoad), p, 8).unwrap();
        e.read_u64(site!("t.f2", MemLoad), p, 16).unwrap();
        assert_eq!(e.sink().polb_accesses, polb0 + 1);
    }

    #[test]
    fn explicit_translates_every_field_access() {
        let mut e = env(Mode::Explicit);
        let a = e.alloc(site!("t.a", AllocResult), 32).unwrap();
        let b = e.alloc(site!("t.b", AllocResult), 32).unwrap();
        e.write_ptr(site!("t.link", MemLoad), a, 0, b).unwrap();
        let p = e.read_ptr(site!("t.load", MemLoad), a, 0).unwrap();
        assert_eq!(p.format(), PtrFormat::Relative, "explicit keeps object ids");
        let t0 = e.stats().explicit_translations;
        e.read_u64(site!("t.f1", MemLoad), p, 8).unwrap();
        e.read_u64(site!("t.f2", MemLoad), p, 16).unwrap();
        e.read_u64(site!("t.f3", MemLoad), p, 24).unwrap();
        assert_eq!(e.stats().explicit_translations, t0 + 3);
    }

    #[test]
    fn roots_round_trip_across_restart() {
        let mut e = env(Mode::Hw);
        let a = e.alloc(site!("t.a", AllocResult), 32).unwrap();
        e.write_u64(site!("t.w", StackLocal), a, 0, 4242).unwrap();
        e.set_root(site!("t.root.set", StackLocal), a).unwrap();

        // Simulate crash + new process generation.
        e.space_mut().restart();
        e.space_mut().open_pool("t").unwrap();
        let r = e.root(site!("t.root.get", KnownReturn)).unwrap();
        assert_eq!(e.read_u64(site!("t.r", MemLoad), r, 0).unwrap(), 4242);
    }

    #[test]
    fn free_works_for_all_pointer_shapes() {
        let mut e = env(Mode::Hw);
        let a = e.alloc(site!("t.a", AllocResult), 32).unwrap(); // VA into pool
        e.free(site!("t.free", Param), a).unwrap();
        let d = e.alloc_in(site!("t.d", AllocResult), Placement::Dram, 32).unwrap();
        e.free(site!("t.free2", Param), d).unwrap();
        e.free(site!("t.free3", Param), UPtr::NULL).unwrap();

        let mut ex = env(Mode::Explicit);
        let oid = ex.alloc(site!("t.oid", AllocResult), 32).unwrap();
        ex.free(site!("t.free4", Param), oid).unwrap();
    }

    #[test]
    fn ptr_eq_across_formats_in_hw() {
        let mut e = env(Mode::Hw);
        let a = e.alloc(site!("t.a", AllocResult), 32).unwrap();
        let rel = {
            let loc = e.space().va2ra(a.as_va().unwrap()).unwrap();
            UPtr::from_rel(loc)
        };
        assert!(e.ptr_eq(site!("t.eq", Param), a, rel).unwrap());
        assert!(!e.ptr_eq(site!("t.eq2", Param), a, UPtr::NULL).unwrap());
    }

    #[test]
    fn null_write_ptr_stores_zero_without_conversion() {
        let mut e = env(Mode::Hw);
        let a = e.alloc(site!("t.a", AllocResult), 32).unwrap();
        let conv0 = e.stats().conversions();
        e.write_ptr(site!("t.null", MemLoad), a, 0, UPtr::NULL).unwrap();
        assert_eq!(e.peek_raw(a, 0).unwrap(), 0);
        assert_eq!(e.stats().conversions(), conv0);
        let back = e.read_ptr(site!("t.load", MemLoad), a, 0).unwrap();
        assert!(back.is_null());
    }

    #[test]
    fn site_check_cache_elides_monomorphic_sites_and_conserves_checks() {
        // Same op sequence with the cache off and on: every check is either
        // executed or elided, never dropped.
        let run = |cache: bool| {
            let mut space = AddressSpace::new(23);
            let pool = space.create_pool("t", 1 << 20).unwrap();
            let mut e = ExecEnv::builder(space)
                .mode(Mode::Sw)
                .pool(pool)
                .sink(CountingSink::new())
                .site_check_cache(cache)
                .build();
            let a = e.alloc(site!("t.a", AllocResult), 32).unwrap();
            let b = e.alloc(site!("t.b", AllocResult), 32).unwrap();
            for _ in 0..8 {
                e.read_u64(site!("t.r.param", Param), a, 0).unwrap();
                e.write_ptr(site!("t.link", MemLoad), a, 0, b).unwrap();
            }
            e.stats()
        };
        let off = run(false);
        let on = run(true);
        assert_eq!(off.checks_elided, 0);
        assert!(on.checks_elided > 0, "repeated monomorphic sites elide");
        assert!(on.dynamic_checks < off.dynamic_checks);
        assert_eq!(
            on.dynamic_checks + on.checks_elided,
            off.dynamic_checks,
            "conservation: every check executed or elided"
        );
        assert_eq!(on.memory_ops(), off.memory_ops(), "data traffic unchanged");
    }

    #[test]
    fn site_check_cache_is_on_by_default() {
        let mut e = env(Mode::Sw);
        assert!(e.site_check_cache_enabled());
        let a = e.alloc(site!("t.a", AllocResult), 32).unwrap();
        for _ in 0..4 {
            e.read_u64(site!("t.r.param", Param), a, 0).unwrap();
        }
        // A monomorphic site settles into the cache: later repetitions of
        // the same outcome are elided rather than re-checked.
        assert!(e.stats().checks_elided > 0);
        e.set_site_check_cache(false);
        let before = e.stats().checks_elided;
        e.read_u64(site!("t.r.param", Param), a, 0).unwrap();
        assert_eq!(e.stats().checks_elided, before, "opt-out stops eliding");
    }

    #[test]
    fn site_check_cache_revalidates_after_epoch_churn() {
        let mut space = AddressSpace::new(29);
        let pool = space.create_pool("t", 1 << 20).unwrap();
        let mut e = ExecEnv::builder(space)
            .mode(Mode::Sw)
            .pool(pool)
            .sink(CountingSink::new())
            .site_check_cache(true)
            .build();
        let a = e.alloc(site!("t.a", AllocResult), 32).unwrap();
        let loc = e.space().va2ra_uncached(a.as_va().unwrap()).unwrap();
        // One site (each site! expansion is a distinct static identity).
        let s = site!("t.r.param", Param);
        e.read_u64(s, a, 0).unwrap(); // arms
        e.read_u64(s, a, 0).unwrap(); // elides
        assert_eq!(e.stats().checks_elided, 1);
        // Detach/re-attach: the epoch advances, the cached outcome is stale.
        e.space_mut().detach(pool).unwrap();
        e.space_mut().attach(pool).unwrap();
        let a2 = UPtr::from_va(e.space().ra2va(loc).unwrap());
        let checks0 = e.stats().dynamic_checks;
        e.read_u64(s, a2, 0).unwrap();
        assert_eq!(e.stats().dynamic_checks, checks0 + 1, "re-validated, not elided");
        assert_eq!(e.stats().checks_elided, 1);
    }

    #[test]
    fn polymorphic_sites_never_elide() {
        let mut space = AddressSpace::new(31);
        let pool = space.create_pool("t", 1 << 20).unwrap();
        let mut e = ExecEnv::builder(space)
            .mode(Mode::Sw)
            .pool(pool)
            .sink(CountingSink::new())
            .site_check_cache(true)
            .conversion_reuse(false)
            .build();
        let nvm = e.alloc(site!("t.a", AllocResult), 32).unwrap();
        let rel = UPtr::from_rel(e.space().va2ra_uncached(nvm.as_va().unwrap()).unwrap());
        // One site alternating between virtual and relative operand
        // formats: the determineY outcome flips every call.
        let s = site!("t.poly", Param);
        for i in 0..6 {
            let p = if i % 2 == 0 { nvm } else { rel };
            e.read_u64(s, p, 0).unwrap();
        }
        assert_eq!(e.stats().checks_elided, 0, "alternating outcomes defeat the cache");
    }

    #[test]
    fn dram_pointer_stored_into_nvm_keeps_va_format() {
        let mut e = env(Mode::Hw);
        let node = e.alloc(site!("t.a", AllocResult), 32).unwrap();
        let d = e.alloc_in(site!("t.d", AllocResult), Placement::Dram, 32).unwrap();
        e.write_ptr(site!("t.link", MemLoad), node, 0, d).unwrap();
        let raw = e.peek_raw(node, 0).unwrap();
        assert_eq!(raw & (1 << 63), 0, "volatile pointer stays virtual");
        let back = e.read_ptr(site!("t.load", MemLoad), node, 0).unwrap();
        assert!(e.ptr_eq(site!("t.eq", Param), back, d).unwrap());
    }
}
