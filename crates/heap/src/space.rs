//! The simulated process address space: a DRAM half with a volatile heap and
//! an NVM half into which persistent pools are attached.
//!
//! This is the substrate underneath user-transparent persistent references:
//! `ra2va` reads the pool table and `va2ra` searches the attached ranges,
//! the analogues of the kernel POTB / VATB tables the paper's hardware
//! walks on POLB/VALB misses.

use crate::addr::{PoolId, RelLoc, VirtAddr, DRAM_BASE, NVM_BASE, NVM_END};
use crate::alloc::{MemWords, Region};
use crate::error::{HeapError, Result};
use crate::faults::FaultPlan;
use crate::integrity::IntegrityMode;
pub use crate::lookaside::TransStats;
use crate::lookaside::{Scope, TransCache};
use crate::pagestore::PageStore;
use crate::persist::PersistPlane;
use crate::pool::{Backing, PoolEntry, PoolStore};
use crate::shard::{Arena, SharedPool, SlabId};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Default size of the volatile (DRAM) heap region.
pub const DEFAULT_DRAM_HEAP: u64 = 256 << 20;

/// Alignment at which pools are attached into the NVM half.
pub const ATTACH_ALIGN: u64 = 1 << 20;

/// Cache-line granularity of the persistence domain under ADR.
pub const LINE_SIZE: u64 = 64;

/// What the platform guarantees about CPU caches at power loss
/// (paper §II discusses both persistence domains).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FlushModel {
    /// Extended ADR: caches are in the persistence domain, every store is
    /// durable the moment it retires. The PR-3 model, still the default.
    #[default]
    Eadr,
    /// Plain ADR: only the memory controller is protected. A store is
    /// durable only after its cache line is flushed and fenced
    /// ([`AddressSpace::fence`]); at power loss, unfenced lines drain
    /// unpredictably — all-old on a clean crash, a per-word seeded mix
    /// under a torn plan ([`FaultPlan::torn_at`]).
    Adr,
}

/// A `MemWords` view of a page store shifted by a base offset, used to run
/// the region allocator over the DRAM heap.
struct Shifted<'a> {
    store: &'a mut PageStore,
    base: u64,
}

impl MemWords for Shifted<'_> {
    fn read_word(&self, offset: u64) -> u64 {
        self.store.read_u64(self.base + offset)
    }
    fn write_word(&mut self, offset: u64, value: u64) {
        self.store.write_u64(self.base + offset, value)
    }
}

/// One attached pool: its base virtual address and size, the unit the
/// paper's VALB caches (base, size, id).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Attachment {
    /// Pool id.
    pub pool: PoolId,
    /// Base virtual address in the NVM half.
    pub base: VirtAddr,
    /// Pool size in bytes.
    pub size: u64,
}

/// The simulated process address space.
///
/// Owns the DRAM page store, a volatile heap allocator, and the persistent
/// [`PoolStore`] device, whose one `PoolId`-indexed table holds every
/// per-pool fact: name, size, base while attached, and backing (an owned
/// image, or an adopted [`SharedPool`] with this space's arena).
///
/// # Examples
///
/// ```
/// use utpr_heap::AddressSpace;
///
/// let mut space = AddressSpace::new(1);
/// let pool = space.create_pool("data", 1 << 20)?;
/// let loc = space.pmalloc(pool, 64)?;
/// let va = space.ra2va(loc)?;
/// space.write_u64(va, 7)?;
/// assert_eq!(space.read_u64(va)?, 7);
/// assert_eq!(space.va2ra(va)?, loc);
/// # Ok::<(), utpr_heap::HeapError>(())
/// ```
#[derive(Clone, Debug)]
pub struct AddressSpace {
    dram: PageStore,
    dram_region: Region,
    /// The pool table (the POTB analogue) and the owned images.
    store: PoolStore,
    /// base VA -> attachment, ordered for containing-range lookup (the
    /// VATB analogue).
    attach_by_base: BTreeMap<u64, Attachment>,
    /// Seed for deterministic-but-varied attach base selection.
    layout_seed: u64,
    /// Monotonic counter mixed into base selection.
    attach_counter: u64,
    /// Number of restarts performed, for diagnostics.
    generation: u64,
    /// Fault gate, ADR pending lines, fence accounting and group-commit
    /// window for this space's *local* pools ([`crate::persist`]). Adopted
    /// shared pools carry their own machine-wide plane.
    plane: PersistPlane,
    /// The sVALB in front of the `va2ra` walk ([`crate::lookaside`]). Any
    /// mutation that can move, remove, or quarantine an attachment clears
    /// it: that pool's slots for single-pool lifecycle events (attach,
    /// detach, destroy), every slot for space-wide events.
    trans: TransCache,
}

impl AddressSpace {
    /// Creates an address space with the default DRAM heap size.
    ///
    /// `layout_seed` controls where pools get attached; different seeds model
    /// the OS mapping pools at different addresses across runs (paper §II).
    pub fn new(layout_seed: u64) -> Self {
        Self::with_dram_heap(layout_seed, DEFAULT_DRAM_HEAP)
    }

    /// Creates an address space with a DRAM heap of `heap_size` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `heap_size` is not a valid allocator region size.
    pub fn with_dram_heap(layout_seed: u64, heap_size: u64) -> Self {
        let mut dram = PageStore::new();
        let dram_region = {
            let mut view = Shifted { store: &mut dram, base: DRAM_BASE };
            Region::format(&mut view, heap_size).expect("valid dram heap size")
        };
        AddressSpace {
            dram,
            dram_region,
            store: PoolStore::new(),
            attach_by_base: BTreeMap::new(),
            layout_seed,
            attach_counter: 0,
            generation: 0,
            plane: PersistPlane::default(),
            trans: TransCache::new(),
        }
    }

    // ---- software lookaside -----------------------------------------------

    /// Turns the software translation lookaside (the sVALB) on or off.
    /// It is on by default; disabling forces every `va2ra` through the
    /// BTree walk (the cache-off baseline the equivalence properties
    /// compare against).
    pub fn set_translation_cache(&mut self, on: bool) {
        self.trans.set_enabled(on);
    }

    /// Whether the software translation lookaside is enabled.
    pub fn translation_cache_enabled(&self) -> bool {
        self.trans.enabled()
    }

    /// The translation-cache generation. Any event that can invalidate a
    /// cached translation (attach, detach, restart, destroy, integrity
    /// switches, cache toggles, escape-hatch device access) advances it;
    /// higher-level caches stamp their entries with it.
    #[inline]
    pub fn translation_epoch(&self) -> u64 {
        self.trans.epoch()
    }

    /// Walk and invalidation counters for the sVALB ([`TransStats`]).
    /// Host-side diagnostics only: these never feed the simulated cycle
    /// model, events, or checksums.
    pub fn trans_stats(&self) -> TransStats {
        self.trans.stats()
    }

    /// Zeroes the sVALB counters (cached entries stay valid).
    pub fn reset_trans_stats(&self) {
        self.trans.reset_stats()
    }

    /// The fault-injection gate's current state.
    pub fn faults(&self) -> &FaultPlan {
        &self.plane.faults
    }

    /// Replaces the fault-injection gate (arm, start counting, disarm).
    pub fn set_faults(&mut self, plan: FaultPlan) {
        self.plane.faults = plan;
    }

    // ---- flush model -------------------------------------------------------

    /// The current persistence-domain model.
    pub fn flush_model(&self) -> FlushModel {
        self.plane.flush_model()
    }

    /// Switches the persistence-domain model. Moving from ADR to eADR
    /// implicitly fences (lines in flight become durable).
    pub fn set_flush_model(&mut self, model: FlushModel) {
        self.plane.set_flush_model(model);
    }

    /// Flush + store fence: every written line becomes durable. A no-op
    /// under eADR apart from the event count. The barrier is machine-wide:
    /// adopted shared pools drain their (cross-thread) pending lines too,
    /// which is what keeps the allocator's fence-first discipline sound
    /// when the metadata lives in a [`SharedPool`].
    pub fn fence(&mut self) {
        if !self.plane.fence() {
            return;
        }
        for (sp, _) in self.store.adoptions() {
            self.plane.lines_flushed += sp.drain_all();
        }
    }

    // ---- group-commit window ----------------------------------------------

    /// Opens (`true`) or closes (`false`) a group-commit window. While
    /// open, [`AddressSpace::fence`] counts the event as elided instead of
    /// issuing it: written lines stay pending (ADR) and adopted shared
    /// pools are not drained. Closing the window does **not** fence —
    /// callers issue the batch's single real barrier through
    /// [`AddressSpace::persist_point`].
    ///
    /// The elision is sound exactly when nothing written inside the window
    /// is externally acknowledged before the persist point: a crash inside
    /// the window then loses the batch *whole* (all its lines are still
    /// pending and revert together), which is indistinguishable from
    /// crashing before the batch started.
    pub fn set_fence_deferral(&mut self, on: bool) {
        self.plane.defer_fences = on;
    }

    /// Whether a group-commit window is currently open.
    pub fn fence_deferral(&self) -> bool {
        self.plane.defer_fences
    }

    /// Fence events elided by group-commit windows so far.
    pub fn fences_elided(&self) -> u64 {
        self.plane.fences_elided
    }

    /// Group-commit persist point: issues the batch's one real barrier,
    /// bypassing (but not closing) an open deferral window. Local pending
    /// lines drain here and every adopted [`SharedPool`] runs its own
    /// [`SharedPool::persist_point`], so the pool-side group-commit
    /// counters advance too. Returns the number of lines made durable.
    pub fn persist_point(&mut self) -> u64 {
        let mut drained = self.plane.persist_point();
        for (sp, _) in self.store.adoptions() {
            let n = sp.persist_point();
            self.plane.lines_flushed += n;
            drained += n;
        }
        drained
    }

    /// Flushes the single line containing intra-pool offset `off` of
    /// `pool` (a targeted `clwb`), without a fence-wide drain. Routes to
    /// the pool's own pending buffer for adopted shared pools.
    pub fn flush_line(&mut self, pool: PoolId, off: u64) {
        if let Some(sp) = self.shared_pool(pool) {
            self.plane.lines_flushed += u64::from(sp.flush_line(off));
            return;
        }
        self.plane.flush_line(pool, off);
    }

    /// Fence events issued so far.
    pub fn fence_count(&self) -> u64 {
        self.plane.fences
    }

    /// Lines flushed to durability so far (ADR accounting).
    pub fn lines_flushed(&self) -> u64 {
        self.plane.lines_flushed
    }

    /// Lines currently written but not yet fenced.
    pub fn pending_lines(&self) -> usize {
        self.plane.pending_lines()
    }

    // ---- integrity ---------------------------------------------------------

    /// The pool device's integrity mode.
    pub fn integrity(&self) -> IntegrityMode {
        self.store.integrity()
    }

    /// Switches the pool device's integrity mode (see
    /// [`PoolStore::set_integrity`]).
    pub fn set_integrity(&mut self, mode: IntegrityMode) {
        self.trans.invalidate(Scope::All);
        self.store.set_integrity(mode);
    }

    /// The persistent device holding pool images.
    pub fn pool_store(&self) -> &PoolStore {
        &self.store
    }

    /// Mutable access to the persistent device (used by in-pool services
    /// such as the transaction log that write below the allocator).
    ///
    /// Writes through this handle bypass the fault gate; prefer
    /// [`AddressSpace::pool_write_u64`] for anything that should count as a
    /// durable write boundary.
    ///
    /// Taking this handle clears the sVALB and advances the translation
    /// epoch: quarantine, release, reseal, and salvage all go through it,
    /// and each must invalidate cached translations. Every caller is a
    /// cold recovery/diagnostic path, so the conservative clear costs
    /// nothing on the hot path.
    pub fn pool_store_mut(&mut self) -> &mut PoolStore {
        self.trans.invalidate(Scope::All);
        &mut self.store
    }

    /// Reads the `u64` at intra-pool offset `off` in pool `id`, without
    /// going through address translation (for in-pool services such as the
    /// undo log, which must work while the pool is detached conceptually).
    ///
    /// # Errors
    ///
    /// - [`HeapError::NoSuchPool`] for unknown ids;
    /// - [`HeapError::PoolDetached`] for a lapsed shared-pool adoption;
    /// - [`HeapError::MediaCorruption`] while the pool is quarantined.
    #[inline(always)]
    pub fn pool_read_u64(&self, id: PoolId, off: u64) -> Result<u64> {
        Ok(match self.store.live(id)? {
            Backing::Owned(img) => img.data().read_u64(off),
            Backing::Adopted(sp, _) => sp.read_u64(off),
        })
    }

    /// Writes the `u64` at intra-pool offset `off` in pool `id` — one
    /// durable write boundary: the fault gate is consulted first, so undo
    /// log appends and flag flips are individually crashable.
    ///
    /// # Errors
    ///
    /// Those of [`AddressSpace::pool_read_u64`], and
    /// [`HeapError::CrashInjected`] when an armed fault point fires.
    #[inline]
    pub fn pool_write_u64(&mut self, id: PoolId, off: u64, value: u64) -> Result<()> {
        match self.store.live_mut(id)? {
            // Shared pools gate and stage on the *pool's* machine-wide
            // plane — caches are coherent, so the boundary counter and the
            // ADR state must be shared by every thread, not split per space.
            Backing::Adopted(sp, _) => sp.write_u64_stage(off, value),
            Backing::Owned(img) => {
                let verdict = self.plane.gate_tearable()?;
                self.plane.stage(id, off, 8, |line, old| img.data().read(line, old));
                img.data_mut().write_u64(off, value);
                self.plane.settle(verdict)
            }
        }
    }

    /// Atomic compare-and-swap on the word at `va`. Returns
    /// `(swapped, old value)`. For adopted shared pools the whole
    /// read-compare-write is atomic ([`SharedPool::cas_u64`]) and a
    /// *successful* swap is one durable write boundary (staged under
    /// ADR); a failed CAS is just a load. DRAM and local (single-threaded)
    /// pools get the plain read/compare/write equivalent.
    ///
    /// # Errors
    ///
    /// Same conditions as [`AddressSpace::write_u64`].
    pub fn cas_u64(&mut self, va: VirtAddr, expected: u64, new: u64) -> Result<(bool, u64)> {
        if va.raw() < DRAM_BASE {
            return Err(HeapError::Unmapped(va));
        }
        if va.is_nvm_region() {
            let loc = self.va2ra(va)?;
            let cur = match self.store.live(loc.pool)? {
                Backing::Adopted(sp, _) => return sp.cas_u64(loc.offset.into(), expected, new),
                Backing::Owned(img) => img.data().read_u64(loc.offset.into()),
            };
            if cur != expected {
                return Ok((false, cur));
            }
            self.pool_write_u64(loc.pool, loc.offset.into(), new)?;
            Ok((true, cur))
        } else {
            let cur = self.dram.read_u64(va.raw());
            if cur == expected {
                self.dram.write_u64(va.raw(), new);
            }
            Ok((cur == expected, cur))
        }
    }

    /// Abandons every shared-pool arena's current lease *without*
    /// returning it to the central free list — the block stays tagged
    /// allocated and leaks, exactly like lease remainders at
    /// [`AddressSpace::restart`]. Called when this shard's worker dies to
    /// an injected crash mid-transaction: the lease's carve state may
    /// contain unflushed line bytes, and handing the remainder back would
    /// let a later [`AddressSpace::bind_arena_slab`] re-carve bytes whose
    /// durable image disagrees with the allocator books. Returns how many
    /// leases were dropped.
    pub fn abandon_arena_leases(&mut self) -> usize {
        self.store.adoptions().filter_map(|(_, arena)| arena.abandon()).count()
    }

    /// Number of restarts this space has gone through.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Bytes materialized by this address space: the DRAM half's resident
    /// pages plus every pool image on the device. The memory-footprint
    /// counterpart of the cycle counters — benchmark reports include it so
    /// footprint regressions are as visible as runtime ones.
    pub fn resident_bytes(&self) -> u64 {
        self.dram.resident_bytes() + self.store.resident_bytes()
    }

    // ---- pool lifecycle ----------------------------------------------------

    /// Creates a pool on the device and attaches it, returning its id.
    ///
    /// # Errors
    ///
    /// Propagates creation errors ([`HeapError::PoolExists`],
    /// [`HeapError::BadPoolSize`]) and attach errors.
    pub fn create_pool(&mut self, name: &str, size: u64) -> Result<PoolId> {
        let id = self.store.create(name, size)?;
        self.attach(id)?;
        Ok(id)
    }

    /// Opens an existing pool by name, attaching it if necessary.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::NoSuchPoolName`] when the pool does not exist.
    pub fn open_pool(&mut self, name: &str) -> Result<PoolId> {
        let id = self.store.id_of(name)?;
        self.attach(id)?;
        Ok(id)
    }

    fn pick_base(&mut self, size: u64) -> Result<u64> {
        // Deterministic splitmix-style hash over (seed, counter); retry on
        // collision with existing attachments.
        for _ in 0..4096 {
            self.attach_counter += 1;
            let mut x = self
                .layout_seed
                .wrapping_mul(0x9e3779b97f4a7c15)
                .wrapping_add(self.attach_counter)
                .wrapping_add(self.generation.wrapping_mul(0xbf58476d1ce4e5b9));
            x ^= x >> 30;
            x = x.wrapping_mul(0xbf58476d1ce4e5b9);
            x ^= x >> 27;
            x = x.wrapping_mul(0x94d049bb133111eb);
            x ^= x >> 31;
            let span = NVM_END - NVM_BASE - size;
            let base = NVM_BASE + (x % (span / ATTACH_ALIGN)) * ATTACH_ALIGN;
            let end = base + size;
            // Overlap check against neighbours in the base-ordered map.
            let prev_ok = self
                .attach_by_base
                .range(..=base)
                .next_back()
                .map_or(true, |(b, a)| b + a.size <= base);
            let next_ok = self
                .attach_by_base
                .range(base..)
                .next()
                .map_or(true, |(b, _)| *b >= end);
            if prev_ok && next_ok {
                return Ok(base);
            }
        }
        Err(HeapError::NoAddressSpace)
    }

    /// Attaches a pool at a fresh base address, first verifying its image:
    /// sealed pages are checked against the CRC sidecar (a mismatch
    /// quarantines the pool) and the allocator header and structure are
    /// validated ([`Region::open`]).
    ///
    /// # Errors
    ///
    /// - [`HeapError::NoSuchPool`] for unknown ids;
    /// - [`HeapError::PoolDetached`] for a lapsed shared-pool adoption
    ///   (re-adopt it with [`AddressSpace::adopt_shared`]);
    /// - [`HeapError::MediaCorruption`] when the pool is quarantined or a
    ///   sealed page fails its checksum;
    /// - [`HeapError::BadPoolHeader`] / [`HeapError::CorruptRegion`] when
    ///   header or allocator validation fails.
    ///
    /// Attaching an already-attached pool is a no-op returning its current
    /// attachment.
    pub fn attach(&mut self, id: PoolId) -> Result<Attachment> {
        if let Some(a) = self.attachment(id) {
            return Ok(a);
        }
        self.store.get(id)?; // quarantine-guarded
        if let Some(&page) = self.store.verify(id)?.first() {
            return Err(HeapError::MediaCorruption { pool: id, page }); // now quarantined
        }
        let img = self.store.get(id)?;
        Region::open(img.data())?;
        let base = self.pick_base(img.size())?;
        Ok(self.map(id, base))
    }

    /// Gives pool `id` its base address: files it in the VATB and the
    /// table, and clears this pool's sVALB slots (a re-attach lands at a
    /// new base, so every older cached range for this pool is wrong — but
    /// only for this pool: other pools' entries stay hot).
    fn map(&mut self, id: PoolId, base: u64) -> Attachment {
        let entry = self.store.entry_mut(id).expect("mapped pools are in the table");
        let att = Attachment { pool: id, base: VirtAddr::new(base), size: entry.size };
        entry.base = Some(att.base);
        self.attach_by_base.insert(base, att);
        self.trans.invalidate(Scope::Pool(id.raw()));
        att
    }

    /// Adopts a [`SharedPool`] into this space: takes a pool id for its
    /// name from the same sequential namespace as owned pools, picks a
    /// private base address, and routes all data/allocation/root traffic
    /// for that id to the shared striped device. Each worker thread adopts
    /// the same `Arc` into its own space shard; bases (and hence VAs)
    /// differ per shard, which is why persistent pointers are stored
    /// pool-relative.
    ///
    /// Adopting the same shared pool twice is a no-op returning its id. A
    /// lapsed adoption (after [`AddressSpace::detach`] or
    /// [`AddressSpace::restart`]) is re-adopted under its old id.
    ///
    /// # Errors
    ///
    /// - [`HeapError::PoolExists`] when the name belongs to an owned pool
    ///   or to a different adopted shared pool;
    /// - [`HeapError::NoAddressSpace`] when no base can be found.
    pub fn adopt_shared(&mut self, sp: &Arc<SharedPool>) -> Result<PoolId> {
        let id = self.store.adoption_id(sp)?;
        if self.attachment(id).is_some() {
            return Ok(id);
        }
        let base = self.pick_base(sp.size())?;
        let entry = self.store.entry_mut(id)?;
        entry.size = sp.size();
        entry.backing = Some(Backing::Adopted(Arc::clone(sp), Arena::default()));
        self.map(id, base);
        Ok(id)
    }

    /// The shared pool behind `id`, when `id` is adopted via
    /// [`AddressSpace::adopt_shared`] (not lapsed).
    pub fn shared_pool(&self, id: PoolId) -> Option<&Arc<SharedPool>> {
        match &self.store.entry(id).ok()?.backing {
            Some(Backing::Adopted(sp, _)) => Some(sp),
            _ => None,
        }
    }

    /// Whether `id` routes to a shared pool in this space.
    pub fn is_shared(&self, id: PoolId) -> bool {
        self.shared_pool(id).is_some()
    }

    /// Binds this space's allocation arena for shared pool `id` to `slab`,
    /// so lease refills come from that slab's cursor instead of the
    /// central free list. Any current lease remainder is returned to the
    /// central allocator. One slab must be bound to at most one live
    /// arena — single ownership is what makes allocation offsets
    /// independent of thread timing.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::NoSuchPool`] when `id` is not an adopted
    /// shared pool.
    pub fn bind_arena_slab(&mut self, id: PoolId, slab: SlabId) -> Result<()> {
        match self.store.entry_mut(id).map(|e| &mut e.backing) {
            Ok(Some(Backing::Adopted(sp, arena))) => sp.release_lease(arena.bind(Some(slab))),
            _ => Err(HeapError::NoSuchPool(id)),
        }
    }

    /// Lease refills this space's arena for `id` has performed (the
    /// non-vacuity probe for the per-thread allocation path).
    pub fn arena_refills(&self, id: PoolId) -> u64 {
        match self.store.entry(id).map(|e| &e.backing) {
            Ok(Some(Backing::Adopted(_, arena))) => arena.refills(),
            _ => 0,
        }
    }

    /// Detaches a pool: its data stays on the device but it loses its base
    /// address, so `ra2va` on its locations faults (paper Fig. 10). A
    /// graceful detach flushes the pool's in-flight lines (they become
    /// durable, not torn) and seals its CRC sidecar. Detaching an adopted
    /// shared pool lapses the adoption.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::PoolDetached`] when the pool is not attached.
    pub fn detach(&mut self, id: PoolId) -> Result<()> {
        let entry = self.store.entry_mut(id).map_err(|_| HeapError::PoolDetached(id))?;
        let base = entry.base.take().ok_or(HeapError::PoolDetached(id))?;
        self.attach_by_base.remove(&base.raw());
        // Per-pool scope: detaching this pool must not flush the other
        // pools' (the other shards') hot translations.
        self.trans.invalidate(Scope::Pool(id.raw()));
        if let Some(Backing::Adopted(sp, arena)) = &mut entry.backing {
            // Graceful release of an adopted shared pool: hand the arena's
            // lease remainder back to the shared free list. The pool itself
            // stays alive for the other shards; the lapsed id remains
            // valid for re-adoption.
            let released = sp.release_lease(arena.bind(None));
            entry.backing = None;
            return released;
        }
        self.plane.flush_pool(id);
        let _ = self.store.seal(id);
        Ok(())
    }

    /// Simulates a process restart (power cycle): DRAM contents are lost,
    /// the volatile heap is reformatted, and every pool is detached. Under
    /// [`FlushModel::Adr`], unfenced lines first *drain*: each reverts to
    /// its durable bytes — or, when the installed [`FaultPlan`] is a torn
    /// one, a seeded per-word subset of the new words lands instead. The
    /// resulting durable image is then sealed into the CRC sidecars, as an
    /// NVM controller checkpointing its metadata on power loss would.
    /// Pools must be reopened, and will generally land at different base
    /// addresses. Adoptions die with the process: each lapses, and its id
    /// stays reserved for re-adoption.
    pub fn restart(&mut self) {
        let store = &mut self.store;
        self.plane.power_loss(|pool, off, durable| {
            // A pool destroyed with lines in flight has nothing to drain to.
            if let Ok(img) = store.peek_mut(pool) {
                img.data_mut().write(off, durable);
            }
        });
        self.store.seal_all();
        self.generation += 1;
        self.dram.clear();
        let heap_size = self.dram_region.size();
        let mut view = Shifted { store: &mut self.dram, base: DRAM_BASE };
        self.dram_region = Region::format(&mut view, heap_size).expect("heap size unchanged");
        self.attach_by_base.clear();
        // Arena lease remainders are *not* returned: power loss leaks them
        // exactly as a real persistent allocator leaks thread-cached blocks
        // until a recovery pass; the block tiling stays valid, so recovery
        // sees a consistent (merely smaller) heap.
        self.store.power_off();
        self.trans.invalidate(Scope::All);
    }

    /// Current attachment of `id`, if any.
    pub fn attachment(&self, id: PoolId) -> Option<Attachment> {
        let entry = self.store.entry(id).ok()?;
        Some(Attachment { pool: id, base: entry.base?, size: entry.size })
    }

    /// Snapshot of all attachments ordered by base address (the VATB view).
    pub fn attachments(&self) -> Vec<Attachment> {
        self.attach_by_base.values().copied().collect()
    }

    // ---- translation -------------------------------------------------------

    /// Translates a virtual address in the NVM half to a pool-relative
    /// location (`va2ra`).
    ///
    /// Served from the sVALB when it holds a range containing `va`;
    /// misses fall through to the BTree containing-range walk, whose
    /// successful result refills the cache. Results and errors are
    /// bit-identical with the cache on or off.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::NotInAnyPool`] when no attached pool contains
    /// the address.
    #[inline(always)]
    pub fn va2ra(&self, va: VirtAddr) -> Result<RelLoc> {
        if self.trans.enabled() {
            if let Some((pool, base, _)) = self.trans.lookup_va(va.raw()) {
                return Ok(RelLoc::new(PoolId::from_raw_trusted(pool), (va.raw() - base) as u32));
            }
        }
        self.va2ra_walk(va, true)
    }

    /// The sVALB miss path: the BTree containing-range walk (the software
    /// analogue of the kernel walking the VATB on a VALB miss). `fill` is
    /// set on `va2ra`'s path: the walk is counted and its range cached.
    #[inline(never)]
    fn va2ra_walk(&self, va: VirtAddr, fill: bool) -> Result<RelLoc> {
        if fill {
            self.trans.note_walk();
        }
        let (_, att) = self
            .attach_by_base
            .range(..=va.raw())
            .next_back()
            .ok_or(HeapError::NotInAnyPool(va))?;
        let delta = va.raw() - att.base.raw();
        if delta >= att.size {
            return Err(HeapError::NotInAnyPool(va));
        }
        if fill && self.trans.enabled() {
            self.trans.fill_va(va.raw(), att.pool.raw(), att.base.raw(), att.size);
        }
        Ok(RelLoc::new(att.pool, delta as u32))
    }

    /// `va2ra` that never consults or fills the sVALB — the
    /// oracle/debug flavour. Faultsweep oracles and raw peeks use this so
    /// they can never observe (or perturb) cache state.
    pub fn va2ra_uncached(&self, va: VirtAddr) -> Result<RelLoc> {
        self.va2ra_walk(va, false)
    }

    /// Translates a pool-relative location to its current virtual address
    /// (`ra2va`), reading `base` and `size` straight from the pool's table
    /// entry — dense by id, so the table is its own POLB. Only the error
    /// cases go out of line.
    ///
    /// # Errors
    ///
    /// - [`HeapError::NoSuchPool`] for ids that never existed.
    /// - [`HeapError::PoolDetached`] when the pool has no base address
    ///   (including a lapsed shared-pool adoption).
    /// - [`HeapError::MediaCorruption`] for an unattached quarantined pool.
    /// - [`HeapError::OffsetOutOfPool`] when the offset exceeds the pool.
    #[inline]
    pub fn ra2va(&self, loc: RelLoc) -> Result<VirtAddr> {
        if let Ok(PoolEntry { base: Some(base), size, .. }) = self.store.entry(loc.pool) {
            if u64::from(loc.offset) < *size {
                return Ok(base.add(loc.offset.into()));
            }
        }
        self.ra2va_fault(loc)
    }

    /// Why `loc` does not translate: [`Self::ra2va`]'s error cases.
    #[cold]
    #[inline(never)]
    fn ra2va_fault(&self, loc: RelLoc) -> Result<VirtAddr> {
        let entry = self.store.entry(loc.pool)?;
        if entry.base.is_none() {
            // Unattached: a quarantined owned pool says so, a lapsed
            // adoption or a healthy owned pool is detached.
            self.store.live(loc.pool)?;
            return Err(HeapError::PoolDetached(loc.pool));
        }
        let (pool, offset, size) = (loc.pool, loc.offset.into(), entry.size);
        Err(HeapError::OffsetOutOfPool { pool, offset, size })
    }

    // ---- memory access -----------------------------------------------------

    /// Reads bytes at `va` into `buf`.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::Unmapped`] for null-page accesses and
    /// [`HeapError::NotInAnyPool`] for NVM addresses outside any pool.
    pub fn read(&self, va: VirtAddr, buf: &mut [u8]) -> Result<()> {
        self.read_via(va, buf, true)
    }

    /// [`AddressSpace::read`], translating through the sVALB or not.
    #[inline]
    fn read_via(&self, va: VirtAddr, buf: &mut [u8], cached: bool) -> Result<()> {
        if va.raw() < DRAM_BASE {
            return Err(HeapError::Unmapped(va));
        }
        if !va.is_nvm_region() {
            self.dram.read(va.raw(), buf);
            return Ok(());
        }
        let loc = if cached { self.va2ra(va)? } else { self.va2ra_uncached(va)? };
        match self.store.live(loc.pool)? {
            Backing::Owned(img) => img.data().read(loc.offset.into(), buf),
            Backing::Adopted(sp, _) => sp.read_bytes(loc.offset.into(), buf),
        }
        Ok(())
    }

    /// Writes `buf` at `va`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`AddressSpace::read`].
    pub fn write(&mut self, va: VirtAddr, buf: &[u8]) -> Result<()> {
        if va.raw() < DRAM_BASE {
            return Err(HeapError::Unmapped(va));
        }
        if va.is_nvm_region() {
            let loc = self.va2ra(va)?;
            let off = u64::from(loc.offset);
            match self.store.live_mut(loc.pool)? {
                // Same boundary as `pool_write_u64`'s shared arm: gated
                // and staged on the pool's machine-wide plane.
                Backing::Adopted(sp, _) => return sp.write_bytes_stage(off, buf),
                Backing::Owned(img) => {
                    let verdict = self.plane.gate_tearable()?;
                    let len = buf.len() as u64;
                    self.plane.stage(loc.pool, off, len, |line, old| img.data().read(line, old));
                    img.data_mut().write(off, buf);
                    // On a torn boundary the in-flight write landed in the
                    // cache; the process is dead and the line drains at
                    // restart.
                    self.plane.settle(verdict)?;
                }
            }
        } else {
            self.dram.write(va.raw(), buf);
        }
        Ok(())
    }

    /// Reads bytes at `va` without consulting or filling the sVALB — the
    /// oracle/debug read path. Otherwise identical to
    /// [`AddressSpace::read`], including every error condition.
    pub fn read_uncached(&self, va: VirtAddr, buf: &mut [u8]) -> Result<()> {
        self.read_via(va, buf, false)
    }

    /// Reads a `u64` at `va`.
    ///
    /// Specialized copy of [`AddressSpace::read`] for the word size every
    /// interpreter load uses: same checks, same errors, same translation
    /// (and thus the same lookaside counters), but the page store is hit
    /// with its aligned word accessor instead of a byte-buffer loop.
    ///
    /// # Errors
    ///
    /// Same conditions as [`AddressSpace::read`].
    #[inline]
    pub fn read_u64(&self, va: VirtAddr) -> Result<u64> {
        if va.raw() < DRAM_BASE {
            return Err(HeapError::Unmapped(va));
        }
        if va.is_nvm_region() {
            let loc = self.va2ra(va)?;
            self.pool_read_u64(loc.pool, loc.offset.into())
        } else {
            Ok(self.dram.read_u64(va.raw()))
        }
    }

    /// Reads a `u64` at `va` via [`AddressSpace::read_uncached`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`AddressSpace::read`].
    pub fn read_u64_uncached(&self, va: VirtAddr) -> Result<u64> {
        let mut b = [0u8; 8];
        self.read_uncached(va, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Writes a `u64` at `va`.
    ///
    /// Specialized copy of [`AddressSpace::write`] for the word size —
    /// identical gate/staging/crash semantics, but the page store is hit
    /// with its aligned word accessor instead of a byte-buffer loop.
    ///
    /// # Errors
    ///
    /// Same conditions as [`AddressSpace::read`].
    #[inline]
    pub fn write_u64(&mut self, va: VirtAddr, value: u64) -> Result<()> {
        if va.raw() < DRAM_BASE {
            return Err(HeapError::Unmapped(va));
        }
        if va.is_nvm_region() {
            let loc = self.va2ra(va)?;
            self.pool_write_u64(loc.pool, loc.offset.into(), value)
        } else {
            self.dram.write_u64(va.raw(), value);
            Ok(())
        }
    }

    // ---- allocation --------------------------------------------------------

    /// Allocates `size` bytes on the volatile heap (DRAM half).
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::OutOfMemory`] when the heap is exhausted.
    pub fn malloc(&mut self, size: u64) -> Result<VirtAddr> {
        let mut view = Shifted { store: &mut self.dram, base: DRAM_BASE };
        let off = self.dram_region.alloc(&mut view, size)?;
        Ok(VirtAddr::new(DRAM_BASE + off))
    }

    /// Frees a volatile allocation made by [`AddressSpace::malloc`].
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::BadFree`] for addresses that are not live
    /// volatile allocations.
    pub fn mfree(&mut self, va: VirtAddr) -> Result<()> {
        if va.is_nvm_region() || va.raw() < DRAM_BASE {
            return Err(HeapError::BadFree(va.raw()));
        }
        let mut view = Shifted { store: &mut self.dram, base: DRAM_BASE };
        self.dram_region.free(&mut view, va.raw() - DRAM_BASE)
    }

    /// Allocates `size` bytes inside pool `id` (`pmalloc`), returning the
    /// relocation-stable location.
    ///
    /// # Errors
    ///
    /// Those of [`AddressSpace::pool_read_u64`], and
    /// [`HeapError::OutOfMemory`].
    pub fn pmalloc(&mut self, id: PoolId, size: u64) -> Result<RelLoc> {
        // The allocator fences before touching its metadata so that no
        // unfenced data line can share a pending snapshot with (and later
        // drain over) allocator words — its update is modelled as atomic.
        self.fence();
        let off = match self.store.live_mut(id)? {
            Backing::Adopted(sp, arena) => {
                sp.gate()?;
                sp.arena_alloc(arena, size)?
            }
            Backing::Owned(img) => {
                // One durable boundary per allocation (see `crate::faults`).
                self.plane.gate()?;
                img.region().alloc(img.data_mut(), size)?
            }
        };
        Ok(RelLoc::new(id, off as u32))
    }

    /// Frees a persistent allocation made by [`AddressSpace::pmalloc`].
    ///
    /// # Errors
    ///
    /// Those of [`AddressSpace::pool_read_u64`], and [`HeapError::BadFree`].
    pub fn pfree(&mut self, loc: RelLoc) -> Result<()> {
        // Fence-first for the same reason as `pmalloc`.
        self.fence();
        match self.store.live_mut(loc.pool)? {
            Backing::Adopted(sp, _) => {
                sp.gate()?;
                sp.free_central(loc.offset.into())
            }
            Backing::Owned(img) => {
                // One durable boundary per free, mirroring `pmalloc`.
                self.plane.gate()?;
                img.region().free(img.data_mut(), loc.offset.into())
            }
        }
    }

    /// Reads the root-object word of pool `id` (the durable entry point).
    ///
    /// # Errors
    ///
    /// Those of [`AddressSpace::pool_read_u64`].
    pub fn pool_root(&self, id: PoolId) -> Result<u64> {
        Ok(match self.store.live(id)? {
            Backing::Adopted(sp, _) => sp.root(),
            Backing::Owned(img) => img.region().root(img.data()),
        })
    }

    /// Stores the root-object word of pool `id`.
    ///
    /// # Errors
    ///
    /// Those of [`AddressSpace::pool_write_u64`].
    pub fn set_pool_root(&mut self, id: PoolId, value: u64) -> Result<()> {
        // Root publication orders after everything it points at.
        self.fence();
        match self.store.live_mut(id)? {
            Backing::Adopted(sp, _) => {
                sp.gate()?;
                sp.set_root(value);
            }
            Backing::Owned(img) => {
                self.plane.gate()?;
                img.region().set_root(img.data_mut(), value);
            }
        }
        Ok(())
    }

    /// Destroys an owned pool entirely (detach + remove from device).
    ///
    /// # Errors
    ///
    /// - [`HeapError::NoSuchPool`] for unknown ids;
    /// - [`HeapError::NotOwned`] for an adopted or lapsed shared pool. The
    ///   call is refused before anything changes: the adoption, its arena
    ///   lease and the pool's data all stay.
    pub fn destroy_pool(&mut self, id: PoolId) -> Result<()> {
        if !matches!(self.store.entry(id)?.backing, Some(Backing::Owned(_))) {
            return Err(HeapError::NotOwned(id));
        }
        let _ = self.detach(id);
        self.trans.invalidate(Scope::Pool(id.raw()));
        self.store.destroy(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pagestore::PAGE_SIZE;

    #[test]
    fn dram_heap_allocates_in_dram_half() {
        let mut s = AddressSpace::new(7);
        let a = s.malloc(128).unwrap();
        assert!(!a.is_nvm_region());
        s.write_u64(a, 99).unwrap();
        assert_eq!(s.read_u64(a).unwrap(), 99);
        s.mfree(a).unwrap();
    }

    #[test]
    fn pool_allocates_in_nvm_half() {
        let mut s = AddressSpace::new(7);
        let p = s.create_pool("p", 1 << 20).unwrap();
        let loc = s.pmalloc(p, 64).unwrap();
        let va = s.ra2va(loc).unwrap();
        assert!(va.is_nvm_region());
        s.write_u64(va, 5).unwrap();
        assert_eq!(s.read_u64(va).unwrap(), 5);
    }

    #[test]
    fn translation_round_trips() {
        let mut s = AddressSpace::new(3);
        let p = s.create_pool("p", 1 << 20).unwrap();
        let loc = s.pmalloc(p, 256).unwrap();
        let va = s.ra2va(loc).unwrap();
        assert_eq!(s.va2ra(va).unwrap(), loc);
        let inner = va.add(200);
        assert_eq!(s.va2ra(inner).unwrap(), loc.add(200));
    }

    #[test]
    fn adopted_shared_pool_is_visible_from_every_shard() {
        let sp = SharedPool::create("twin", 2 << 20, 8).unwrap();
        let mut a = AddressSpace::new(1);
        let mut b = AddressSpace::new(2);
        let pa = a.adopt_shared(&sp).unwrap();
        let pb = b.adopt_shared(&sp).unwrap();
        assert!(a.is_shared(pa) && b.is_shared(pb));
        assert_eq!(a.adopt_shared(&sp).unwrap(), pa, "re-adoption is a no-op");

        // Allocate through shard A, write through its VA…
        let loc = a.pmalloc(pa, 64).unwrap();
        let va_a = a.ra2va(loc).unwrap();
        a.write_u64(va_a, 0xC0FFEE).unwrap();
        // …and read the same pool-relative location through shard B, whose
        // base differs (private layout seeds).
        let loc_b = RelLoc::new(pb, loc.offset);
        let va_b = b.ra2va(loc_b).unwrap();
        assert_ne!(va_a.raw(), va_b.raw(), "shards map the pool at different bases");
        assert_eq!(b.read_u64(va_b).unwrap(), 0xC0FFEE);

        // Roots are shared state too.
        a.set_pool_root(pa, 0x42).unwrap();
        assert_eq!(b.pool_root(pb).unwrap(), 0x42);

        // And pfree through the *other* shard works: the block lives in
        // the shared lower layer, not in either shard. Shard A's arena
        // still holds its lease remainder until A detaches gracefully.
        b.pfree(loc_b).unwrap();
        assert_eq!(sp.allocation_count(), 1, "only A's lease remainder is live");
        a.detach(pa).unwrap();
        assert_eq!(sp.allocation_count(), 0);
        sp.validate().unwrap();
    }

    #[test]
    fn detaching_one_pool_keeps_the_others_lookasides_hot() {
        let mut s = AddressSpace::new(9);
        let pa = s.create_pool("a", 1 << 20).unwrap();
        let pb = s.create_pool("b", 1 << 20).unwrap();
        let la = s.pmalloc(pa, 64).unwrap();
        let lb = s.pmalloc(pb, 64).unwrap();
        // Warm both pools' entries, then detach A.
        let _ = s.ra2va(la).unwrap();
        let vb = s.ra2va(lb).unwrap();
        let _ = s.va2ra(vb).unwrap();
        s.detach(pa).unwrap();
        s.reset_trans_stats();
        assert!(matches!(s.ra2va(la), Err(HeapError::PoolDetached(_))));
        assert_eq!(s.ra2va(lb).unwrap(), vb);
        assert_eq!(s.va2ra(vb).unwrap(), lb);
        let st = s.trans_stats();
        assert_eq!(st.walks, 0, "pool B's sVALB range survived A's detach");
    }

    #[test]
    fn shared_pool_detach_and_restart_drop_only_the_adoption() {
        let sp = SharedPool::create("drop", 1 << 20, 4).unwrap();
        let mut s = AddressSpace::new(4);
        let p = s.adopt_shared(&sp).unwrap();
        let loc = s.pmalloc(p, 64).unwrap();
        let va = s.ra2va(loc).unwrap();
        s.write_u64(va, 31).unwrap();
        s.detach(p).unwrap();
        assert!(!s.is_shared(p));
        assert!(matches!(s.ra2va(loc), Err(HeapError::PoolDetached(_))));
        // The data survives in the shared layer; re-adoption sees it and
        // keeps the reserved id stable.
        assert_eq!(sp.read_u64(u64::from(loc.offset)), 31);
        let p2 = s.adopt_shared(&sp).unwrap();
        assert_eq!(p2, p, "reserved id is stable across re-adoption");
        assert_eq!(s.read_u64(s.ra2va(loc).unwrap()).unwrap(), 31);
        // A restart loses the adoption but never the shared data.
        s.restart();
        assert!(!s.is_shared(p));
        assert_eq!(sp.read_u64(u64::from(loc.offset)), 31);
        let p3 = s.adopt_shared(&sp).unwrap();
        assert_eq!(p3, p);
    }

    #[test]
    fn adoptions_take_stable_ids_from_the_owned_namespace() {
        let sp = SharedPool::create("shared", 1 << 20, 2).unwrap();
        let mut s = AddressSpace::new(3);
        let a = s.create_pool("a", 1 << 20).unwrap();
        let r = s.adopt_shared(&sp).unwrap();
        assert_eq!(r.raw(), a.raw() + 1, "one sequential namespace");
        assert!(matches!(s.pool_store().get(r), Err(HeapError::NoSuchPool(_))), "no image here");
        assert_eq!(s.pool_store().id_of("shared").unwrap(), r);
        s.detach(r).unwrap();
        assert_eq!(s.adopt_shared(&sp).unwrap(), r, "re-adoption keeps the id");
        let clash = SharedPool::create("a", 1 << 20, 2).unwrap();
        assert!(matches!(s.adopt_shared(&clash), Err(HeapError::PoolExists(_))));
        let twin = SharedPool::create("shared", 1 << 20, 2).unwrap();
        assert!(matches!(s.adopt_shared(&twin), Err(HeapError::PoolExists(_))));
        assert!(matches!(s.create_pool("shared", 1 << 20), Err(HeapError::PoolExists(_))));
        let b = s.create_pool("b", 1 << 20).unwrap();
        assert_eq!(b.raw(), r.raw() + 1, "the next owned pool skips past the adopted id");
        assert_eq!(s.pool_store().len(), 2, "adoptions are not owned pools");
    }

    #[test]
    fn destroy_pool_refuses_an_adoption_and_keeps_it_whole() {
        let sp = SharedPool::create("keep", 1 << 20, 2).unwrap();
        let mut s = AddressSpace::new(5);
        let p = s.adopt_shared(&sp).unwrap();
        let loc = s.pmalloc(p, 64).unwrap();
        s.set_pool_root(p, 0xbeef).unwrap();
        let live = sp.allocation_count();
        assert!(matches!(s.destroy_pool(p), Err(HeapError::NotOwned(id)) if id == p));
        assert!(s.is_shared(p), "the adoption survives");
        assert_eq!(sp.allocation_count(), live, "the arena lease was not returned");
        assert_eq!(s.pool_root(p).unwrap(), 0xbeef);
        assert!(s.ra2va(loc).is_ok());
        s.detach(p).unwrap();
        assert!(matches!(s.destroy_pool(p), Err(HeapError::NotOwned(_))), "lapsed too");
        assert_eq!(s.adopt_shared(&sp).unwrap(), p);
    }

    #[test]
    fn a_lapsed_adoption_answers_pool_detached_at_every_entry_point() {
        let sp = SharedPool::create("lapse", 1 << 20, 2).unwrap();
        let mut s = AddressSpace::new(6);
        let p = s.adopt_shared(&sp).unwrap();
        let loc = s.pmalloc(p, 64).unwrap();
        for restart in [false, true] {
            assert_eq!(s.adopt_shared(&sp).unwrap(), p);
            if restart {
                s.restart();
            } else {
                s.detach(p).unwrap();
            }
            let off = u64::from(loc.offset);
            let answers = [
                ("ra2va", s.ra2va(loc).map(|_| ())),
                ("pool_root", s.pool_root(p).map(|_| ())),
                ("pool_read_u64", s.pool_read_u64(p, off).map(|_| ())),
                ("pool_write_u64", s.pool_write_u64(p, off, 1)),
                ("pmalloc", s.pmalloc(p, 64).map(|_| ())),
                ("pfree", s.pfree(loc)),
                ("set_pool_root", s.set_pool_root(p, 1)),
            ];
            for (entry, answer) in answers {
                assert_eq!(answer, Err(HeapError::PoolDetached(p)), "{entry}");
            }
        }
    }

    #[test]
    fn shared_pool_gates_on_the_pool_wide_plan() {
        let sp = SharedPool::create("gate", 1 << 20, 4).unwrap();
        let mut a = AddressSpace::new(6);
        let mut b = AddressSpace::new(7);
        let pa = a.adopt_shared(&sp).unwrap();
        let pb = b.adopt_shared(&sp).unwrap();
        let loc = a.pmalloc(pa, 64).unwrap();
        let va_a = a.ra2va(loc).unwrap();
        let vb = b.ra2va(RelLoc::new(pb, loc.offset)).unwrap();
        // Arm AFTER the allocation: 2 more durable writes, then death —
        // counted across both shards because the plan lives in the pool.
        sp.set_faults(FaultPlan::crash_at(2));
        a.write_u64(va_a, 1).unwrap();
        b.write_u64(vb, 2).unwrap();
        let err = a.write_u64(va_a, 3).unwrap_err();
        assert!(matches!(err, HeapError::CrashInjected { writes: 2 }));
        // Every shard is dead once the machine-wide plan has tripped.
        assert!(b.write_u64(vb, 4).is_err());
        assert_eq!(sp.read_u64(u64::from(loc.offset)), 2, "suppressed writes never landed");
    }

    #[test]
    fn byte_writes_into_an_adr_shared_pool_stage_and_revert() {
        let sp = SharedPool::create("bytes", 1 << 20, 4).unwrap();
        sp.set_flush_model(FlushModel::Adr);
        let mut s = AddressSpace::new(8);
        let p = s.adopt_shared(&sp).unwrap();
        let loc = s.pmalloc(p, 256).unwrap();
        let va = s.ra2va(loc).unwrap();
        s.write(va, &[0x11; 200]).unwrap();
        s.fence();
        assert_eq!(sp.pending_lines(), 0);
        s.write(va, &[0x22; 200]).unwrap();
        let off = u64::from(loc.offset);
        let lines = ((off + 199) / LINE_SIZE - off / LINE_SIZE + 1) as usize;
        assert_eq!(sp.pending_lines(), lines, "byte stores stage every overlapped line");
        sp.power_cycle();
        let mut back = [0u8; 200];
        s.read(va, &mut back).unwrap();
        assert_eq!(back, [0x11; 200], "the unfenced byte store was lost whole");
    }

    #[test]
    fn va2ra_rejects_foreign_addresses() {
        let mut s = AddressSpace::new(3);
        let _p = s.create_pool("p", 1 << 20).unwrap();
        let stray = VirtAddr::new(NVM_BASE + 1);
        // Either unattached or out of range; both are NotInAnyPool unless the
        // pool happened to land exactly at NVM_BASE.
        if s.va2ra(stray).is_ok() {
            // astronomically unlikely with the chosen seed; assert layout
            let att = s.attachments()[0];
            assert_eq!(att.base.raw(), NVM_BASE);
        }
        let dram_va = VirtAddr::new(DRAM_BASE + 8);
        assert!(matches!(s.va2ra(dram_va), Err(HeapError::NotInAnyPool(_))));
    }

    #[test]
    fn detach_faults_ra2va_and_data_survives_reattach() {
        let mut s = AddressSpace::new(11);
        let p = s.create_pool("p", 1 << 20).unwrap();
        let loc = s.pmalloc(p, 64).unwrap();
        let va1 = s.ra2va(loc).unwrap();
        s.write_u64(va1, 1234).unwrap();
        s.detach(p).unwrap();
        assert!(matches!(s.ra2va(loc), Err(HeapError::PoolDetached(_))));
        assert!(matches!(s.read_u64(va1), Err(HeapError::NotInAnyPool(_))));
        let att = s.attach(p).unwrap();
        let va2 = s.ra2va(loc).unwrap();
        assert_eq!(va2.raw() - att.base.raw(), u64::from(loc.offset));
        assert_eq!(s.read_u64(va2).unwrap(), 1234);
    }

    #[test]
    fn restart_loses_dram_keeps_pools_relocates() {
        let mut s = AddressSpace::new(5);
        let p = s.create_pool("p", 1 << 20).unwrap();
        let loc = s.pmalloc(p, 64).unwrap();
        let va1 = s.ra2va(loc).unwrap();
        s.write_u64(va1, 77).unwrap();
        let d = s.malloc(64).unwrap();
        s.write_u64(d, 88).unwrap();

        s.restart();
        // DRAM content gone; heap reusable.
        assert_eq!(s.read_u64(d).unwrap(), 0);
        let _ = s.malloc(64).unwrap();
        // Pool must be reopened; relative location still resolves.
        let p2 = s.open_pool("p").unwrap();
        assert_eq!(p2, p);
        let va2 = s.ra2va(loc).unwrap();
        assert_eq!(s.read_u64(va2).unwrap(), 77);
        assert_eq!(s.generation(), 1);
    }

    #[test]
    fn restarts_usually_relocate_pools() {
        let mut s = AddressSpace::new(5);
        let p = s.create_pool("p", 1 << 20).unwrap();
        let base1 = s.attachment(p).unwrap().base;
        s.restart();
        s.open_pool("p").unwrap();
        let base2 = s.attachment(p).unwrap().base;
        assert_ne!(base1, base2, "bases should differ across generations");
    }

    #[test]
    fn null_page_is_unmapped() {
        let mut s = AddressSpace::new(1);
        assert!(matches!(s.read_u64(VirtAddr::new(0)), Err(HeapError::Unmapped(_))));
        assert!(matches!(s.write_u64(VirtAddr::new(8), 1), Err(HeapError::Unmapped(_))));
    }

    #[test]
    fn multiple_pools_do_not_overlap() {
        let mut s = AddressSpace::new(9);
        for i in 0..32 {
            s.create_pool(&format!("p{i}"), 1 << 20).unwrap();
        }
        let atts = s.attachments();
        for w in atts.windows(2) {
            assert!(w[0].base.raw() + w[0].size <= w[1].base.raw());
        }
    }

    #[test]
    fn offset_out_of_pool_detected() {
        let mut s = AddressSpace::new(2);
        let p = s.create_pool("p", 1 << 20).unwrap();
        let bad = RelLoc::new(p, (1 << 20) + 8);
        assert!(matches!(s.ra2va(bad), Err(HeapError::OffsetOutOfPool { .. })));
    }

    #[test]
    fn pool_root_survives_restart() {
        let mut s = AddressSpace::new(4);
        let p = s.create_pool("p", 1 << 20).unwrap();
        s.set_pool_root(p, 0xfeed).unwrap();
        s.restart();
        s.open_pool("p").unwrap();
        assert_eq!(s.pool_root(p).unwrap(), 0xfeed);
    }

    #[test]
    fn adr_fence_accounting_tracks_pending_lines() {
        let mut s = AddressSpace::new(21);
        let p = s.create_pool("p", 1 << 20).unwrap();
        let loc = s.pmalloc(p, 256).unwrap();
        s.set_flush_model(FlushModel::Adr);
        let fences0 = s.fence_count();
        let va = s.ra2va(loc).unwrap();
        s.write_u64(va, 1).unwrap();
        s.write_u64(va.add(8), 2).unwrap(); // same line
        s.write_u64(va.add(128), 3).unwrap(); // different line
        assert_eq!(s.pending_lines(), 2);
        s.flush_line(p, u64::from(loc.offset) + 128);
        assert_eq!(s.pending_lines(), 1);
        s.fence();
        assert_eq!(s.pending_lines(), 0);
        assert_eq!(s.fence_count(), fences0 + 1);
        assert_eq!(s.lines_flushed(), 2);
        // Under eADR nothing ever pends.
        s.set_flush_model(FlushModel::Eadr);
        s.write_u64(va, 9).unwrap();
        assert_eq!(s.pending_lines(), 0);
    }

    #[test]
    fn fence_deferral_elides_until_persist_point() {
        let mut s = AddressSpace::new(22);
        let p = s.create_pool("p", 1 << 20).unwrap();
        let loc = s.pmalloc(p, 256).unwrap();
        s.set_flush_model(FlushModel::Adr);
        let va = s.ra2va(loc).unwrap();
        let fences0 = s.fence_count();

        s.set_fence_deferral(true);
        assert!(s.fence_deferral());
        s.write_u64(va, 1).unwrap();
        s.fence(); // elided: line must stay pending
        s.write_u64(va.add(128), 2).unwrap();
        s.fence();
        assert_eq!(s.fences_elided(), 2);
        assert_eq!(s.fence_count(), fences0, "no real fence inside the window");
        assert_eq!(s.pending_lines(), 2, "deferred fences leave lines in flight");

        // The persist point bypasses the (still open) window.
        let drained = s.persist_point();
        assert_eq!(drained, 2);
        assert_eq!(s.pending_lines(), 0);
        assert_eq!(s.fence_count(), fences0 + 1, "one real barrier for the batch");
        assert!(s.fence_deferral(), "persist point does not close the window");
        s.set_fence_deferral(false);
        s.fence();
        assert_eq!(s.fence_count(), fences0 + 2);
        assert_eq!(s.fences_elided(), 2, "closed window stops eliding");
    }

    #[test]
    fn restart_drops_open_deferral_window() {
        let mut s = AddressSpace::new(27);
        let p = s.create_pool("p", 1 << 20).unwrap();
        let loc = s.pmalloc(p, 64).unwrap();
        s.set_flush_model(FlushModel::Adr);
        let va = s.ra2va(loc).unwrap();
        s.write_u64(va, 0x5a).unwrap();
        s.set_fence_deferral(true);
        s.fence(); // elided — the write is still volatile at the crash
        s.restart();
        assert!(!s.fence_deferral(), "window is volatile state");
        s.open_pool("p").unwrap();
        let va = s.ra2va(loc).unwrap();
        assert_eq!(s.read_u64(va).unwrap(), 0, "un-persisted batch lost whole");
    }

    #[test]
    fn detach_flushes_and_seals_so_reattach_verifies() {
        let mut s = AddressSpace::new(23);
        let p = s.create_pool("p", 1 << 20).unwrap();
        let loc = s.pmalloc(p, 64).unwrap();
        s.set_flush_model(FlushModel::Adr);
        let va = s.ra2va(loc).unwrap();
        s.write_u64(va, 0x77).unwrap();
        s.detach(p).unwrap();
        assert_eq!(s.pending_lines(), 0, "graceful detach flushes in-flight lines");
        s.attach(p).unwrap();
        let va = s.ra2va(loc).unwrap();
        assert_eq!(s.read_u64(va).unwrap(), 0x77, "the unfenced write was flushed, not lost");
    }

    #[test]
    fn cached_translations_hit_and_match_uncached() {
        let mut s = AddressSpace::new(31);
        let p = s.create_pool("p", 1 << 20).unwrap();
        let loc = s.pmalloc(p, 64).unwrap();
        s.reset_trans_stats();
        let va = s.ra2va(loc).unwrap();
        assert_eq!(s.ra2va(loc).unwrap(), va, "second lookup identical");
        let _ = s.va2ra(va).unwrap(); // miss fills the sVALB
        assert_eq!(s.va2ra(va).unwrap(), loc);
        assert_eq!(s.trans_stats().walks, 1, "only the first va2ra walked");
        assert_eq!(s.va2ra_uncached(va).unwrap(), loc);
    }

    #[test]
    fn reattach_at_new_base_never_serves_stale_translations() {
        let mut s = AddressSpace::new(37);
        let p = s.create_pool("p", 1 << 20).unwrap();
        let loc = s.pmalloc(p, 64).unwrap();
        let va1 = s.ra2va(loc).unwrap();
        s.write_u64(va1, 0xCAFE).unwrap();
        let _ = s.va2ra(va1).unwrap(); // warm the sVALB
        s.detach(p).unwrap();
        assert!(matches!(s.ra2va(loc), Err(HeapError::PoolDetached(_))));
        assert!(matches!(s.va2ra(va1), Err(HeapError::NotInAnyPool(_))));
        let att = s.attach(p).unwrap();
        let va2 = s.ra2va(loc).unwrap();
        assert_ne!(va2, va1, "relocated");
        assert_eq!(va2.raw(), att.base.raw() + u64::from(loc.offset));
        assert_eq!(s.va2ra(va2).unwrap(), loc);
        assert!(matches!(s.va2ra(va1), Err(HeapError::NotInAnyPool(_))), "old VA stays dead");
        assert_eq!(s.read_u64(va2).unwrap(), 0xCAFE);
    }

    #[test]
    fn quarantine_through_escape_hatch_invalidates_caches() {
        let mut s = AddressSpace::new(41);
        let p = s.create_pool("p", 1 << 20).unwrap();
        let loc = s.pmalloc(p, 64).unwrap();
        let va = s.ra2va(loc).unwrap();
        s.write_u64(va, 7).unwrap();
        let bumps_before = s.trans_stats().epoch_bumps;
        s.pool_store_mut().quarantine(p, 0);
        assert!(s.trans_stats().epoch_bumps > bumps_before);
        // Translation still resolves (the attachment exists) but the access
        // itself faults on the quarantined device — cached or not.
        assert_eq!(s.va2ra(va).unwrap(), loc);
        assert!(matches!(s.read_u64(va), Err(HeapError::MediaCorruption { .. })));
        assert!(matches!(s.read_u64_uncached(va), Err(HeapError::MediaCorruption { .. })));
        s.pool_store_mut().release(p);
        assert_eq!(s.read_u64(va).unwrap(), 7);
    }

    #[test]
    fn disabled_cache_takes_slow_path_with_identical_results() {
        let mut s = AddressSpace::new(43);
        let p = s.create_pool("p", 1 << 20).unwrap();
        let loc = s.pmalloc(p, 64).unwrap();
        s.set_translation_cache(false);
        assert!(!s.translation_cache_enabled());
        s.reset_trans_stats();
        let va = s.ra2va(loc).unwrap();
        assert_eq!(s.va2ra(va).unwrap(), loc);
        assert_eq!(s.va2ra(va).unwrap(), loc);
        let stats = s.trans_stats();
        assert_eq!(stats.walks, 2, "with the cache off every translation walks");
        s.set_translation_cache(true);
        assert_eq!(s.ra2va(loc).unwrap(), va);
    }

    #[test]
    fn uncached_reads_leave_no_cache_trace() {
        let mut s = AddressSpace::new(47);
        let p = s.create_pool("p", 1 << 20).unwrap();
        let loc = s.pmalloc(p, 64).unwrap();
        let va = s.ra2va(loc).unwrap();
        s.write_u64(va, 0xABCD).unwrap();
        // The write warmed the sVALB; clear it so a cached read would walk.
        s.set_translation_cache(true);
        s.reset_trans_stats();
        assert_eq!(s.read_u64_uncached(va).unwrap(), 0xABCD);
        assert_eq!(s.va2ra_uncached(va).unwrap(), loc);
        let stats = s.trans_stats();
        assert_eq!(stats.walks, 0);
    }

    #[test]
    fn destroy_pool_removes_everything() {
        let mut s = AddressSpace::new(4);
        let p = s.create_pool("p", 1 << 20).unwrap();
        s.destroy_pool(p).unwrap();
        assert!(s.attachment(p).is_none());
        assert!(s.pool_store().get(p).is_err());
    }

    #[test]
    fn quarantined_shared_pool_gates_guarded_ops_with_media_corruption() {
        use crate::retain::RetentionConfig;
        use crate::scrub::{ScrubConfig, Scrubber};

        let sp = SharedPool::create("qguard", 1 << 20, 4).unwrap();
        sp.configure_retention(RetentionConfig { seal_lag: 1, work_per_tick: 100 });
        let mut s = AddressSpace::new(13);
        let p = s.adopt_shared(&sp).unwrap();
        let loc = s.pmalloc(p, 64).unwrap();
        let va = s.ra2va(loc).unwrap();
        s.write_u64(va, 7).unwrap();
        sp.note_work(100 * 3); // pages age past seal_lag and seal

        let page = u64::from(loc.offset) / PAGE_SIZE;
        assert!(sp.sealed_pages() > 0, "pages sealed cold after the lag");
        // Flip a bit on the sealed page away from our u64, then let a
        // full verify set the quarantine.
        assert!(sp.corrupt_bit(page * PAGE_SIZE + PAGE_SIZE - 8, 3));
        assert!(!sp.verify_all().is_empty());
        let bad = sp.quarantined_page().expect("verify quarantined the pool");

        // Every guarded route through the address space now refuses.
        match s.read_u64(va) {
            Err(HeapError::MediaCorruption { pool, page }) => {
                assert_eq!(pool, p);
                assert_eq!(page, bad);
            }
            other => panic!("expected MediaCorruption, got {other:?}"),
        }
        assert!(matches!(s.write_u64(va, 8), Err(HeapError::MediaCorruption { .. })));
        assert!(matches!(s.pmalloc(p, 32), Err(HeapError::MediaCorruption { .. })));
        assert!(matches!(s.pool_root(p), Err(HeapError::MediaCorruption { .. })));

        // Repair through the scrubber lifts the gate; the surviving data
        // (our u64 was elsewhere on the page) reads back intact.
        let mut sc = Scrubber::new(ScrubConfig::default());
        let pass = sc.repair(&sp);
        assert!(pass.blocks_recovered > 0);
        assert!(sp.quarantined_page().is_none());
        assert_eq!(s.read_u64(va).unwrap(), 7);
    }
}
