//! The shared lower layer of the multicore heap: a [`SharedPool`] is one
//! persistent pool whose backing pages, allocator metadata, and fault gate
//! are `Send + Sync`, so N worker threads — each owning a private
//! [`crate::AddressSpace`] shard — can attach and mutate it concurrently.
//!
//! The split follows the llfree-rs design: a thin, contended *lower layer*
//! owns the ground truth (striped page locks over the pool image, one
//! central boundary-tag allocator), while the fast paths live in
//! *per-thread leaf state* held by each worker's address space:
//!
//! - **Data plane** — reads and writes take only the lock of the stripe
//!   (page-interleaved, power-of-two many) that holds the touched page.
//!   Threads working disjoint pages never contend.
//! - **Allocation plane** — `pmalloc` is served from a thread-private
//!   *arena lease*: a block carved off the front of a slab (or of the
//!   central free list) that the owning thread subdivides with
//!   `Region::carve_front` without taking the central lock. Only lease
//!   *refills* and frees touch the central allocator.
//! - **Persistence plane** — one `PersistPlane` (fault gate, ADR pending
//!   lines, FliT tags) serves the whole pool: the same code an
//!   [`crate::AddressSpace`] runs for its local pools, here behind one
//!   mutex. A crash boundary armed at `k` counts durable writes across
//!   *all* threads, exactly like a machine-wide power failure, and a torn
//!   plan tears here exactly as it does there.
//!
//! Determinism: per-thread slab cursors make every allocation's offset a
//! function of (slab, thread-local op sequence) alone, never of cross-
//! thread timing — which is what lets the multi-threaded YCSB arm promise
//! bit-identical checksums per `(seed, thread count)` and lets the crash
//! sweeps replay under `UTPR_QC_SEED`. See DESIGN.md §10.
//!
//! Lock order (a level may only acquire locks from levels to its right):
//! `plane` → `slabs` → `central` → `media` → stripe locks.
//! Stripe locks are leaves and are held one word/page at a time. The
//! `plane` mutex guards the persistence plane (the gate,
//! [`SharedPool::write_u64_stage`], [`SharedPool::cas_u64`],
//! flush/fence/tag bookkeeping) and is never held across an allocator
//! call. The `media` mutex guards the pool's media plane (`media.rs`: the
//! CRC sidecar, and once retention is configured the media clock, wear
//! table and decay books — DESIGN.md §13). The plane reaches the stripes
//! one lock at a time while it is held, never the reverse, and the first
//! bad page it reports is CASed into the quarantine word under it; shards
//! read that word without any lock.

use crate::addr::PoolId;
use crate::alloc::{MemWords, Region, SalvageReport};
use crate::error::Result;
use crate::faults::FaultPlan;
use crate::integrity::PageVerdict;
use crate::media::{MediaClock, MediaPages, MediaPlane};
use crate::pagestore::{PageStore, PAGE_SIZE};
use crate::persist::PersistPlane;
use crate::retain::{RetentionConfig, WearStats};
use crate::space::FlushModel;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Sentinel for [`SharedPool`]'s quarantine word: no page quarantined.
const NO_QUARANTINE: u64 = u64::MAX;

/// Target bytes per arena lease. Small enough that a thread abandons
/// little on rebind, large enough that refills are rare on node-sized
/// allocations.
const LEASE_BYTES: u64 = 16 << 10;

/// Allocations whose block footprint exceeds this bypass the arena and go
/// straight to the central allocator.
const LARGE_CUTOFF: u64 = LEASE_BYTES / 4;

/// Handle to one slab: a large block carved out of the shared pool whose
/// remaining space is handed out as arena leases. Slabs are created
/// single-threaded at setup time and bound to one worker each
/// ([`crate::AddressSpace::bind_arena_slab`]), which is what keeps
/// allocation offsets independent of thread timing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SlabId(u32);

/// Cursor state of one slab: the remaining tail `[cur, end)` is always a
/// single allocated block (or empty when `cur == end`).
#[derive(Clone, Copy, Debug)]
struct SlabState {
    cur: u64,
    end: u64,
}

/// A thread-private allocation arena over one shared pool: the current
/// lease (a block `[cur, end)` owned exclusively by this arena) plus the
/// slab it refills from. Held per adopted pool by each worker's
/// [`crate::AddressSpace`].
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Arena {
    /// The active lease block `[cur, end)`; `None` until the first refill.
    lease: Option<(u64, u64)>,
    /// Where refills come from; `None` falls back to the central allocator.
    slab: Option<SlabId>,
    /// Lease refills performed by this arena.
    refills: u64,
}

impl Arena {
    /// Rebinds the refill source, abandoning any current lease (its
    /// remainder is returned to the central free list by the caller).
    pub(crate) fn bind(&mut self, slab: Option<SlabId>) -> Option<(u64, u64)> {
        self.slab = slab;
        self.lease.take()
    }

    /// Abandons the current lease *without* returning it anywhere: the
    /// block stays tagged allocated and is simply leaked, exactly like
    /// lease remainders at [`crate::AddressSpace::restart`]. Used when a
    /// crashed worker's lease may hold unflushed carve state that must not
    /// be re-carved by a later [`crate::AddressSpace::bind_arena_slab`].
    pub(crate) fn abandon(&mut self) -> Option<(u64, u64)> {
        self.lease.take()
    }

    pub(crate) fn refills(&self) -> u64 {
        self.refills
    }
}

/// The key a [`SharedPool`] files its lines and tags under on its own
/// plane. Shards adopt the pool under differing ids, so the plane cannot
/// use theirs; it only ever holds this one pool.
const PLANE_KEY: PoolId = PoolId::from_raw_trusted(0);

/// One persistent pool shared by many address-space shards. See the
/// module docs for the layering and lock order.
#[derive(Debug)]
pub struct SharedPool {
    name: String,
    size: u64,
    /// Page-interleaved backing stores: page `p` lives in stripe
    /// `p & stripe_mask`. Each stripe's `PageStore` is sparse and indexed
    /// by absolute pool offset, so no address arithmetic changes.
    stripes: Box<[Mutex<PageStore>]>,
    stripe_mask: u64,
    /// The boundary-tag allocator over the striped words. `Region` itself
    /// is a stateless `Copy` handle; `central` serialises free-list and
    /// stats mutations.
    region: Region,
    central: Mutex<()>,
    slabs: Mutex<Vec<SlabState>>,
    /// The machine-wide persistence plane, shared by every thread: caches
    /// are coherent, so thread B staging a line thread A already dirtied
    /// must see A's bytes as the *newest* and the pre-A bytes as the
    /// *durable* image. Head of the lock order; taken only on gated
    /// writes, flushes, fences and tag bookkeeping.
    plane: Mutex<PersistPlane>,
    /// The media plane: the CRC sidecar, plus the media clock once
    /// [`SharedPool::configure_retention`] has run.
    media: Mutex<MediaPlane>,
    /// Fast-path mirror of "the media clock runs": one relaxed load keeps
    /// the hot write path free of the media mutex when retention is off.
    media_on: AtomicBool,
    /// First page whose sealed checksum failed verification
    /// ([`NO_QUARANTINE`] when none): shards refuse guarded access until
    /// [`SharedPool::release_quarantine`] after salvage.
    quarantine: AtomicU64,
    /// Whether central allocation prefers low-write-count pages (the
    /// wear-leveling ablation).
    wear_level: AtomicBool,
    refills: AtomicU64,
    central_allocs: AtomicU64,
    slab_overflows: AtomicU64,
    /// Batch persist barriers issued through [`SharedPool::persist_point`]
    /// (the serving layer's group commits), a subset of the plane's fences.
    group_commits: AtomicU64,
}

// The whole point of the type: one pool, many threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SharedPool>();
};

/// `MemWords` view of a [`SharedPool`], locking the owning stripe per
/// word. Lets the single-threaded `Region` code run unchanged over the
/// striped device.
struct StripedWords<'a>(&'a SharedPool);

impl MemWords for StripedWords<'_> {
    #[inline]
    fn read_word(&self, offset: u64) -> u64 {
        self.0.read_u64(offset)
    }

    #[inline]
    fn write_word(&mut self, offset: u64, value: u64) {
        self.0.write_u64(offset, value)
    }
}

/// The stripe array as the media plane's page source: page `p` lives in
/// its stripe's store, locked one at a time under the `media` lock.
impl MediaPages for StripedWords<'_> {
    fn with_page<R>(&mut self, page: u64, f: impl FnOnce(&mut PageStore) -> R) -> R {
        f(&mut self.0.stripe_for(page * PAGE_SIZE).lock().unwrap())
    }

    fn each_store(&mut self, mut f: impl FnMut(&mut PageStore)) {
        for stripe in self.0.stripes.iter() {
            f(&mut stripe.lock().unwrap());
        }
    }
}

impl SharedPool {
    /// Creates and formats a shared pool of `size` bytes with `stripes`
    /// page-lock stripes (rounded up to a power of two, min 1).
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::BadPoolSize`](crate::HeapError::BadPoolSize) for sizes the region format
    /// rejects.
    pub fn create(name: &str, size: u64, stripes: usize) -> Result<Arc<SharedPool>> {
        let n = stripes.max(1).next_power_of_two();
        let stripes: Box<[Mutex<PageStore>]> =
            (0..n).map(|_| Mutex::new(PageStore::new())).collect();
        let pool = SharedPool {
            name: name.to_string(),
            size,
            stripes,
            stripe_mask: (n - 1) as u64,
            // Placeholder until format validates the size below.
            region: Region::from_size_unchecked(size),
            central: Mutex::new(()),
            slabs: Mutex::new(Vec::new()),
            plane: Mutex::new(PersistPlane::default()),
            media: Mutex::new(MediaPlane::default()),
            media_on: AtomicBool::new(false),
            quarantine: AtomicU64::new(NO_QUARANTINE),
            wear_level: AtomicBool::new(false),
            refills: AtomicU64::new(0),
            central_allocs: AtomicU64::new(0),
            slab_overflows: AtomicU64::new(0),
            group_commits: AtomicU64::new(0),
        };
        Region::format(&mut StripedWords(&pool), size)?;
        Ok(Arc::new(pool))
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn size(&self) -> u64 {
        self.size
    }

    pub fn stripes(&self) -> usize {
        self.stripes.len()
    }

    // ---- data plane -------------------------------------------------------

    #[inline]
    fn stripe_for(&self, offset: u64) -> &Mutex<PageStore> {
        &self.stripes[((offset / PAGE_SIZE) & self.stripe_mask) as usize]
    }

    /// Reads `buf.len()` bytes at `offset`, splitting at page boundaries so
    /// each page is served under its own stripe lock.
    pub fn read_bytes(&self, mut offset: u64, mut buf: &mut [u8]) {
        while !buf.is_empty() {
            let in_page = (PAGE_SIZE - offset % PAGE_SIZE) as usize;
            let n = in_page.min(buf.len());
            self.stripe_for(offset).lock().unwrap().read(offset, &mut buf[..n]);
            offset += n as u64;
            buf = &mut buf[n..];
        }
    }

    /// Writes `buf` at `offset`, splitting at page boundaries.
    pub fn write_bytes(&self, mut offset: u64, mut buf: &[u8]) {
        if self.media_on.load(Ordering::Acquire) && !buf.is_empty() {
            self.media_note_write(offset, buf.len() as u64);
        }
        while !buf.is_empty() {
            let in_page = (PAGE_SIZE - offset % PAGE_SIZE) as usize;
            let n = in_page.min(buf.len());
            self.stripe_for(offset).lock().unwrap().write(offset, &buf[..n]);
            offset += n as u64;
            buf = &buf[n..];
        }
    }

    /// Reads the aligned word at `offset` (words never straddle pages).
    #[inline]
    pub fn read_u64(&self, offset: u64) -> u64 {
        debug_assert_eq!(offset % 8, 0, "unaligned word read at {offset:#x}");
        self.stripe_for(offset).lock().unwrap().read_u64(offset)
    }

    /// Writes the aligned word at `offset`.
    #[inline]
    pub fn write_u64(&self, offset: u64, value: u64) {
        debug_assert_eq!(offset % 8, 0, "unaligned word write at {offset:#x}");
        if self.media_on.load(Ordering::Acquire) {
            self.media_note_write(offset, 8);
        }
        self.stripe_for(offset).lock().unwrap().write_u64(offset, value)
    }

    // ---- persistence plane (fault gate, ADR staging, FliT tags) -----------

    fn plane(&self) -> MutexGuard<'_, PersistPlane> {
        self.plane.lock().unwrap()
    }

    /// Installs the pool-wide fault plan. One plan gates every thread's
    /// durable writes, so an armed boundary models a machine-wide power
    /// failure regardless of which thread trips it.
    pub fn set_faults(&self, plan: FaultPlan) {
        self.plane().faults = plan;
    }

    /// Snapshot of the pool-wide fault plan.
    pub fn faults(&self) -> FaultPlan {
        self.plane().faults
    }

    /// Consults the pool-wide gate for one atomic durable write.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::CrashInjected`] at and after the armed point.
    pub(crate) fn gate(&self) -> Result<()> {
        self.plane().gate()
    }

    /// The pool's persistence-domain model.
    pub fn flush_model(&self) -> FlushModel {
        self.plane().flush_model()
    }

    /// Switches the persistence-domain model. Moving to eADR implicitly
    /// fences: lines in flight become durable and every tag clears.
    pub fn set_flush_model(&self, model: FlushModel) {
        self.plane().set_flush_model(model);
    }

    /// One tearable durable write boundary over `[off, off + len)`, under
    /// the plane lock: gate, stage the touched lines (ADR), `apply` the
    /// stripe write, settle the verdict.
    fn write_boundary(
        &self,
        plane: &mut PersistPlane,
        off: u64,
        len: u64,
        apply: impl FnOnce(),
    ) -> Result<()> {
        let verdict = plane.gate_tearable()?;
        plane.stage(PLANE_KEY, off, len, |line, old| self.read_bytes(line, old));
        apply();
        plane.settle(verdict)
    }

    /// One gated, durable-boundary word write on the data plane: under ADR
    /// the touched line is staged (its durable bytes snapshotted) before
    /// the image mutates, so a later [`SharedPool::power_cycle`] can revert
    /// it. Identical to [`SharedPool::write_u64`] plus a gate under eADR.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::CrashInjected`](crate::HeapError::CrashInjected) when an armed fault point
    /// fires; the write lands only on a torn boundary
    /// ([`FaultPlan::torn_at`]).
    pub fn write_u64_stage(&self, off: u64, value: u64) -> Result<()> {
        self.write_boundary(&mut self.plane(), off, 8, || self.write_u64(off, value))
    }

    /// [`SharedPool::write_u64_stage`] for a byte range.
    pub(crate) fn write_bytes_stage(&self, off: u64, buf: &[u8]) -> Result<()> {
        self.write_boundary(&mut self.plane(), off, buf.len() as u64, || self.write_bytes(off, buf))
    }

    /// Compare-and-swap on the word at `off`. Returns `(swapped, old)`.
    /// The whole read-compare-write runs under the plane lock, so it is
    /// atomic against every other staged write and CAS. Only a
    /// *successful* swap is a durable write boundary (and stages its line);
    /// a failed CAS is just a load.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::CrashInjected`](crate::HeapError::CrashInjected) when the gate fires on a
    /// would-succeed swap; the write lands only on a torn boundary.
    pub fn cas_u64(&self, off: u64, expected: u64, new: u64) -> Result<(bool, u64)> {
        let mut plane = self.plane();
        let cur = self.read_u64(off);
        if cur != expected {
            return Ok((false, cur));
        }
        self.write_boundary(&mut plane, off, 8, || self.write_u64(off, new))?;
        Ok((true, cur))
    }

    /// Targeted `clwb`: makes the line containing `off` durable. Returns
    /// whether the line was actually pending.
    pub fn flush_line(&self, off: u64) -> bool {
        self.plane().flush_line(PLANE_KEY, off)
    }

    /// FliT tag protocol: marks the word at `off` dirty (store side). The
    /// count nests so two in-flight stores need two completions.
    pub fn tag_word(&self, off: u64) {
        self.plane().tag_word(PLANE_KEY, off);
    }

    /// FliT tag protocol: the writer persisted the word; drop one tag.
    pub fn untag_word(&self, off: u64) {
        self.plane().untag_word(PLANE_KEY, off);
    }

    /// FliT tag protocol, load side: is the word possibly unpersisted?
    pub fn word_tagged(&self, off: u64) -> bool {
        self.plane().word_tagged(PLANE_KEY, off)
    }

    /// Pool-wide persist barrier: drains every pending line to durability
    /// (the flush half of an `sfence` issued by any thread — caches are
    /// machine-wide, so one thread's fence drains everyone's lines).
    /// Returns the number of lines drained.
    pub fn drain_all(&self) -> u64 {
        self.plane().persist_point()
    }

    /// Power loss: every unflushed line reverts to its durable bytes — or,
    /// under a torn plan, drains by the plan's seeded per-word lottery —
    /// and all tags clear (the tag table is volatile). The crash sweeps
    /// call this on a tripped trial before recovery; it is the same
    /// `PersistPlane::power_loss` that [`crate::AddressSpace::restart`]
    /// runs over per-space pending lines.
    pub fn power_cycle(&self) {
        self.plane().power_loss(|_, off, durable| self.write_bytes(off, durable));
    }

    /// The crash a tripped plan models, as the crash harnesses run it:
    /// power-cycles while the plan is still installed — its torn seed
    /// decides the drain — and only then disarms the gate for recovery.
    pub fn crash_restart(&self) {
        self.power_cycle();
        self.set_faults(FaultPlan::disabled());
    }

    /// Lines currently written but not yet durable.
    pub fn pending_lines(&self) -> usize {
        self.plane().pending_lines()
    }

    /// Lines made durable by flush or fence drain so far.
    pub fn lines_drained(&self) -> u64 {
        self.plane().lines_flushed
    }

    /// Lines lost to power cycles so far.
    pub fn lines_lost(&self) -> u64 {
        self.plane().lines_lost
    }

    /// Pool-wide fence (full-drain) events so far.
    pub fn fence_count(&self) -> u64 {
        self.plane().fences
    }

    /// Batch persist entry point for group commit: one pool-wide barrier
    /// that makes everything a shard wrote for the current batch durable
    /// in a single drain. Counts as a fence *and* as a group commit, so
    /// `fences/op` and `group_commits/op` can be read off the same pool
    /// after a server run. Returns the number of lines drained.
    pub fn persist_point(&self) -> u64 {
        self.group_commits.fetch_add(1, Ordering::Relaxed);
        self.drain_all()
    }

    /// Batch persist barriers issued via [`SharedPool::persist_point`].
    pub fn group_commits(&self) -> u64 {
        self.group_commits.load(Ordering::Relaxed)
    }

    // ---- allocation plane -------------------------------------------------

    /// Central allocation: takes the central lock and runs the boundary-tag
    /// allocator. Returns the payload offset. Used for large requests,
    /// slab creation, and arena fallback.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::OutOfMemory`] when the pool is exhausted.
    pub(crate) fn alloc_central(&self, size: u64) -> Result<u64> {
        let _g = self.central.lock().unwrap();
        // Wear-leveling ablation: copy the write counts out under the media
        // lock, then walk the free list scoring against the copy — scoring
        // inside the walk would re-take `media` per page.
        let counts = if self.wear_level.load(Ordering::Relaxed) {
            self.media().clock().map(|c| c.wear.write_counts())
        } else {
            None
        };
        let off = match counts {
            Some(c) => self.region.alloc_scored(&mut StripedWords(self), size, |p| {
                c.get(p as usize).copied().unwrap_or(0)
            })?,
            None => self.region.alloc(&mut StripedWords(self), size)?,
        };
        self.central_allocs.fetch_add(1, Ordering::Relaxed);
        Ok(off)
    }

    /// Frees the allocation at payload `offset` through the central
    /// allocator. Works for carved arena blocks too: every carve rewrites
    /// proper boundary tags, so each piece is an ordinary block.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::BadFree`] for offsets that are not live
    /// allocations.
    pub(crate) fn free_central(&self, offset: u64) -> Result<()> {
        let _g = self.central.lock().unwrap();
        self.region.free(&mut StripedWords(self), offset)
    }

    /// Central allocation for harnesses that drive the pool directly —
    /// the wear-churn ablation allocates and frees through this pair to
    /// exercise the scored (wear-leveling) allocator against first-fit.
    /// Same path slab refills take: scored toward low-write-count pages
    /// when [`SharedPool::set_wear_leveling`] is on.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::OutOfMemory`](crate::HeapError::OutOfMemory) when the pool is exhausted.
    pub fn alloc_raw(&self, size: u64) -> Result<u64> {
        self.alloc_central(size)
    }

    /// Frees an [`SharedPool::alloc_raw`] allocation.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::BadFree`](crate::HeapError::BadFree) for offsets that are not live
    /// allocations.
    pub fn free_raw(&self, offset: u64) -> Result<()> {
        self.free_central(offset)
    }

    /// Carves a slab of `bytes` out of the central allocator. Call
    /// single-threaded at setup; bind each slab to exactly one worker.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::OutOfMemory`](crate::HeapError::OutOfMemory) when the pool cannot hold it.
    pub fn carve_slab(&self, bytes: u64) -> Result<SlabId> {
        let payload = self.alloc_central(bytes)?;
        let (block, bsize) = self.region.block_of(&StripedWords(self), payload);
        let mut slabs = self.slabs.lock().unwrap();
        let id = SlabId(slabs.len() as u32);
        slabs.push(SlabState { cur: block, end: block + bsize });
        Ok(id)
    }

    /// Takes a lease of at least `min_need` bytes (target [`LEASE_BYTES`])
    /// off the front of `slab`, or from the central allocator when no slab
    /// is bound or the slab is exhausted. Returns the lease block bounds
    /// `[block, end)`; the block is tagged allocated and owned exclusively
    /// by the caller until subdivided or freed.
    fn lease(&self, slab: Option<SlabId>, min_need: u64) -> Result<(u64, u64)> {
        if let Some(SlabId(i)) = slab {
            let mut slabs = self.slabs.lock().unwrap();
            let st = &mut slabs[i as usize];
            let avail = st.end - st.cur;
            if avail >= min_need {
                let mut take = LEASE_BYTES.clamp(min_need, avail);
                if avail - take < Region::min_block() {
                    take = avail;
                }
                let block = st.cur;
                if take < avail {
                    self.region.carve_front(&mut StripedWords(self), block, avail, take);
                    let _g = self.central.lock().unwrap();
                    self.region.note_split(&mut StripedWords(self));
                }
                st.cur += take;
                self.refills.fetch_add(1, Ordering::Relaxed);
                return Ok((block, block + take));
            }
            drop(slabs);
            self.slab_overflows.fetch_add(1, Ordering::Relaxed);
        }
        // Central fallback: allocate a whole lease block.
        let want = LEASE_BYTES.max(min_need);
        let payload = self.alloc_central(want - Region::min_block().min(16))?;
        let (block, bsize) = self.region.block_of(&StripedWords(self), payload);
        self.refills.fetch_add(1, Ordering::Relaxed);
        Ok((block, block + bsize))
    }

    /// Serves one `pmalloc` of `size` bytes from `arena`, refilling its
    /// lease as needed. Returns the payload offset. This is the per-thread
    /// fast path: when the lease has room, no shared lock beyond the
    /// touched stripes is taken (plus the short central section for split
    /// accounting).
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::OutOfMemory`] when neither the lease, the
    /// bound slab, nor the central allocator can satisfy the request.
    pub(crate) fn arena_alloc(&self, arena: &mut Arena, size: u64) -> Result<u64> {
        let need = Region::block_need(size);
        if need > LARGE_CUTOFF {
            return self.alloc_central(size);
        }
        loop {
            if let Some((block, end)) = arena.lease {
                let avail = end - block;
                if need <= avail {
                    if avail - need >= Region::min_block() {
                        self.region.carve_front(&mut StripedWords(self), block, avail, need);
                        {
                            let _g = self.central.lock().unwrap();
                            self.region.note_split(&mut StripedWords(self));
                        }
                        arena.lease = Some((block + need, end));
                    } else {
                        // Tail too small to split: hand out the whole block.
                        arena.lease = None;
                    }
                    return Ok(block + 8);
                }
                // Lease too small for this request: return the remainder to
                // the central free list and refill.
                arena.lease = None;
                self.free_central(block + 8)?;
            }
            arena.lease = Some(self.lease(arena.slab, need)?);
            arena.refills += 1;
        }
    }

    /// Returns an abandoned lease remainder (from [`Arena::bind`]) to the
    /// central free list.
    pub(crate) fn release_lease(&self, lease: Option<(u64, u64)>) -> Result<()> {
        match lease {
            Some((block, _)) => self.free_central(block + 8),
            None => Ok(()),
        }
    }

    // ---- media/retention plane --------------------------------------------

    fn media(&self) -> MutexGuard<'_, MediaPlane> {
        self.media.lock().unwrap()
    }

    /// Reads the media clock, or `R::default()` while retention is off.
    fn with_clock<R: Default>(&self, f: impl FnOnce(&MediaClock) -> R) -> R {
        self.media().clock().map_or_else(R::default, f)
    }

    /// Quarantines the pool on `page` unless an earlier detection already
    /// did (the first bad page wins). Callers hold the `media` lock, so a
    /// repair cannot release the pool between detection and quarantine.
    fn quarantine_first(&self, page: Option<u64>) {
        if let Some(page) = page {
            let (ok, seen) = (Ordering::AcqRel, Ordering::Acquire);
            let _ = self.quarantine.compare_exchange(NO_QUARANTINE, page, ok, seen);
        }
    }

    /// Turns the retention plane on: builds the wear table from the pool
    /// geometry, enables per-stripe dirty tracking (already-resident pages
    /// start dirty — their checksums are unknown), and starts the media
    /// clock at tick 0. The decay *law* (seed, rate) comes separately from
    /// [`SharedPool::set_faults`] with [`FaultPlan::with_decay`].
    pub fn configure_retention(&self, cfg: RetentionConfig) {
        let pages = (self.size / PAGE_SIZE) as usize + 1;
        for stripe in self.stripes.iter() {
            stripe.lock().unwrap().set_dirty_tracking(true);
        }
        *self.media() = MediaPlane::with_retention(cfg, pages);
        self.media_on.store(true, Ordering::Release);
    }

    /// Whether the retention plane is active.
    pub fn retention_enabled(&self) -> bool {
        self.media_on.load(Ordering::Acquire)
    }

    /// Whether central allocation prefers low-write-count pages.
    pub fn wear_leveling(&self) -> bool {
        self.wear_level.load(Ordering::Relaxed)
    }

    /// Switches the wear-leveling allocation policy (the ablation knob;
    /// requires the retention plane for scores, no-op steering otherwise).
    pub fn set_wear_leveling(&self, on: bool) {
        self.wear_level.store(on, Ordering::Relaxed);
    }

    /// Write-path hook: wear accounting plus the plane's cold-write verify
    /// (`MediaPlane::note_write`). Detection is infallible bookkeeping;
    /// the write itself proceeds and the *next* guarded shard operation
    /// surfaces the error.
    fn media_note_write(&self, offset: u64, len: u64) {
        let mut m = self.media();
        self.quarantine_first(m.note_write(&mut StripedWords(self), offset, len));
    }

    /// Advances the media clock by `units` of modelled mutator work.
    /// Returns the clock tick afterwards. Each elapsed tick runs the
    /// controller maintenance pass: quiesced dirty pages seal
    /// (checksummed into the sidecar), then the decay lottery of
    /// [`FaultPlan::with_decay`] strikes sealed cold pages.
    pub fn note_work(&self, units: u64) -> u64 {
        self.advance_work(units, false)
    }

    /// [`SharedPool::note_work`] for scrubber traffic: same clock, but the
    /// units are booked to the scrub-overhead column.
    pub fn note_scrub_work(&self, units: u64) -> u64 {
        self.advance_work(units, true)
    }

    fn advance_work(&self, units: u64, scrub: bool) -> u64 {
        if !self.media_on.load(Ordering::Acquire) {
            return 0;
        }
        // Copy the decay law out first: `plane` precedes `media` in the
        // lock order and must never be taken underneath it.
        let decay = self.plane().faults.decay();
        self.media().advance(&mut StripedWords(self), units, scrub, decay)
    }

    /// One patrol-scrub batch (`MediaPlane::scrub`): up to `limit` sealed
    /// cold pages oldest-first, refreshing clean pages whose age has reached
    /// `refresh_age` and quarantining on mismatch. Returns the per-page
    /// verdicts.
    pub fn scrub_batch(&self, limit: usize, refresh_age: u64) -> Vec<(u64, PageVerdict)> {
        let mut m = self.media();
        let scrub = m.scrub(&mut StripedWords(self), limit, refresh_age);
        self.quarantine_first(scrub.corrupt_page);
        scrub.verdicts
    }

    /// Verifies every sealed cold page against its sidecar checksum,
    /// quarantining and accounting each mismatch. Returns the failed
    /// pages. This is the full patrol pass the repair flow runs *before*
    /// resealing, so no stale flip can be blessed.
    pub fn verify_all(&self) -> Vec<u64> {
        let mut m = self.media();
        let bad = m.verify(&mut StripedWords(self));
        self.quarantine_first(bad.first().copied());
        bad
    }

    /// Seals every dirty resident page *now*, regardless of quiesce age —
    /// the flush before a final verify or audit. Safe against blessing:
    /// decay never strikes dirty pages, and a flip predating the page's
    /// re-dirtying was already caught by the cold-write verify.
    pub fn seal_all_now(&self) {
        self.media().seal(&mut StripedWords(self), false);
    }

    /// Re-checksums every resident page at its *current* contents and
    /// clears all dirty state (`MediaPlane::reseal`) — the post-salvage
    /// blessing. Call only after [`SharedPool::verify_all`] has routed
    /// every stale flip through detection; resealing first would hide them.
    pub fn reseal_all(&self) {
        self.media().reseal(&mut StripedWords(self));
    }

    /// Best-effort block enumeration over the (possibly damaged) pool —
    /// [`Region::salvage`] over the striped words, quiesced against the
    /// allocator via the central lock.
    pub fn salvage(&self) -> SalvageReport {
        let _g = self.central.lock().unwrap();
        Region::salvage(&StripedWords(self), self.size)
    }

    /// The first page whose verification failed, while the pool is
    /// quarantined.
    pub fn quarantined_page(&self) -> Option<u64> {
        let q = self.quarantine.load(Ordering::Acquire);
        (q != NO_QUARANTINE).then_some(q)
    }

    /// Lifts the quarantine after salvage + reseal.
    pub fn release_quarantine(&self) {
        self.quarantine.store(NO_QUARANTINE, Ordering::Release);
    }

    /// Flips bit `bit` of the byte at `offset` without dirtying its page —
    /// the targeted fault-injection hook of the crash/race tests. Booked
    /// as an injected flip when the retention plane is on, so the
    /// zero-silent-corruption invariant (`injected == detected`) covers
    /// hand-planted corruption too.
    pub fn corrupt_bit(&self, offset: u64, bit: u8) -> bool {
        self.media().corrupt_bit(&mut StripedWords(self), offset, bit)
    }

    /// Current media-clock tick (0 when the retention plane is off).
    pub fn media_tick(&self) -> u64 {
        self.with_clock(|c| c.wear.tick())
    }

    /// `(total, scrub)` modelled work units on the media clock.
    pub fn media_work(&self) -> (u64, u64) {
        self.with_clock(|c| (c.work, c.scrub_work))
    }

    /// `(injected, detected, cancelled)` decay-flip counters. Cancelled
    /// pairs (same bit struck twice) are undetectable by construction, so
    /// the zero-silent invariant is `injected == detected + cancelled`
    /// after a final full verify.
    pub fn media_flips(&self) -> (u64, u64, u64) {
        self.with_clock(|c| (c.flips_injected, c.flips_detected, c.flips_cancelled))
    }

    /// Sealed pages currently covered by the sidecar.
    pub fn sealed_pages(&self) -> u64 {
        self.media().crcs().len() as u64
    }

    /// Resident (materialized) pages across all stripes — the set a
    /// [`SharedPool::reseal_all`] reprograms, and hence the page count a
    /// repair's modelled cost scales with.
    pub fn resident_pages(&self) -> u64 {
        self.stripes
            .iter()
            .map(|s| s.lock().unwrap().resident_page_numbers().len() as u64)
            .sum()
    }

    /// Distinct pages the decay lottery has struck so far.
    pub fn flipped_pages(&self) -> u64 {
        self.with_clock(|c| c.pages_struck.len() as u64)
    }

    /// Debug view of still-undetected flips: for each page with pending
    /// (injected, never detected, never annihilated) flips, `(page, bits
    /// pending, sealed crc present, dirty, resident)`. Empty after a clean
    /// final verify — anything left here names the page a silent flip is
    /// hiding on.
    pub fn pending_flip_debug(&self) -> Vec<(u64, usize, bool, bool, bool)> {
        let m = self.media();
        let Some(c) = m.clock() else { return Vec::new() };
        c.pending_flips
            .iter()
            .map(|(page, bits)| {
                let ps = self.stripe_for(page * PAGE_SIZE).lock().unwrap();
                (
                    *page,
                    bits.len(),
                    m.crcs().get(*page).is_some(),
                    ps.is_dirty(*page),
                    ps.page_bytes(*page).is_some(),
                )
            })
            .collect()
    }

    /// Wear-histogram summary over written pages.
    pub fn wear_stats(&self) -> WearStats {
        self.with_clock(|c| c.wear.stats())
    }

    // ---- roots, stats, maintenance ---------------------------------------

    /// The pool's persistent root word.
    pub fn root(&self) -> u64 {
        self.region.root(&StripedWords(self))
    }

    /// Sets the pool's persistent root word.
    pub fn set_root(&self, value: u64) {
        self.region.set_root(&mut StripedWords(self), value)
    }

    /// Lease refills served (slab or central) across all arenas.
    pub fn refills(&self) -> u64 {
        self.refills.load(Ordering::Relaxed)
    }

    /// Central allocator entries (large allocs, slab creation, fallbacks).
    pub fn central_allocs(&self) -> u64 {
        self.central_allocs.load(Ordering::Relaxed)
    }

    /// Times a bound slab was exhausted and a lease fell back to central.
    pub fn slab_overflows(&self) -> u64 {
        self.slab_overflows.load(Ordering::Relaxed)
    }

    /// Live allocations according to the pool's persistent books.
    pub fn allocation_count(&self) -> u64 {
        self.region.allocation_count(&StripedWords(self))
    }

    /// Full structural validation of the block tiling and free list.
    /// Quiesce writers first — validation walks the whole region.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::CorruptRegion`](crate::HeapError::CorruptRegion) describing the first violated
    /// invariant.
    pub fn validate(&self) -> Result<usize> {
        let _g = self.central.lock().unwrap();
        self.region.validate(&StripedWords(self))
    }

    /// Host bytes resident across all stripes.
    pub fn resident_bytes(&self) -> u64 {
        self.stripes.iter().map(|s| s.lock().unwrap().resident_bytes()).sum()
    }

    /// Deep copy of the pool — pages, slab cursors, counters, fault plan.
    /// The crash sweeps run every trial against a fresh snapshot so armed
    /// runs never contaminate the base image. Quiesce writers first: each
    /// stripe is copied under its own lock, so a concurrent writer could
    /// leave a cross-stripe torn cut (serial schedule drivers never do).
    pub fn snapshot(&self) -> Arc<SharedPool> {
        let stripes: Box<[Mutex<PageStore>]> =
            self.stripes.iter().map(|s| Mutex::new(s.lock().unwrap().clone())).collect();
        Arc::new(SharedPool {
            name: self.name.clone(),
            size: self.size,
            stripes,
            stripe_mask: self.stripe_mask,
            region: self.region,
            central: Mutex::new(()),
            slabs: Mutex::new(self.slabs.lock().unwrap().clone()),
            plane: Mutex::new(self.plane().clone()),
            media: Mutex::new(self.media().clone()),
            media_on: AtomicBool::new(self.media_on.load(Ordering::Acquire)),
            quarantine: AtomicU64::new(self.quarantine.load(Ordering::Acquire)),
            wear_level: AtomicBool::new(self.wear_level.load(Ordering::Relaxed)),
            refills: AtomicU64::new(self.refills()),
            central_allocs: AtomicU64::new(self.central_allocs()),
            slab_overflows: AtomicU64::new(self.slab_overflows()),
            group_commits: AtomicU64::new(self.group_commits()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::HeapError;

    #[test]
    fn create_formats_a_valid_region() {
        let p = SharedPool::create("shared", 4 << 20, 8).unwrap();
        assert_eq!(p.stripes(), 8);
        assert_eq!(p.validate().unwrap(), 1, "one free block spans the fresh pool");
        assert_eq!(p.allocation_count(), 0);
    }

    #[test]
    fn stripe_count_rounds_to_power_of_two() {
        let p = SharedPool::create("s", 1 << 20, 7).unwrap();
        assert_eq!(p.stripes(), 8);
        let p1 = SharedPool::create("s", 1 << 20, 0).unwrap();
        assert_eq!(p1.stripes(), 1);
    }

    #[test]
    fn central_alloc_free_roundtrip() {
        let p = SharedPool::create("c", 1 << 20, 4).unwrap();
        let a = p.alloc_central(100).unwrap();
        let b = p.alloc_central(2000).unwrap();
        p.write_u64(a, 7);
        p.write_u64(b, 9);
        assert_eq!(p.read_u64(a), 7);
        assert_eq!(p.read_u64(b), 9);
        p.free_central(a).unwrap();
        p.free_central(b).unwrap();
        assert_eq!(p.allocation_count(), 0);
        assert_eq!(p.validate().unwrap(), 1);
    }

    #[test]
    fn byte_io_crosses_page_and_stripe_boundaries() {
        let p = SharedPool::create("b", 1 << 20, 4).unwrap();
        let off = PAGE_SIZE * 3 - 5; // straddles pages 2 and 3 → two stripes
        let data: Vec<u8> = (0..32).collect();
        p.write_bytes(off, &data);
        let mut back = vec![0u8; 32];
        p.read_bytes(off, &mut back);
        assert_eq!(back, data);
    }

    #[test]
    fn arena_allocs_carve_leases_and_free_cleanly() {
        let p = SharedPool::create("a", 4 << 20, 8).unwrap();
        let slab = p.carve_slab(256 << 10).unwrap();
        let mut arena = Arena::default();
        arena.bind(Some(slab));
        let mut payloads = Vec::new();
        for i in 0..200u64 {
            let off = p.arena_alloc(&mut arena, 48 + (i % 5) * 16).unwrap();
            p.write_u64(off, i);
            payloads.push((off, i));
        }
        assert!(arena.refills() > 0, "200 node allocs must refill the lease");
        assert_eq!(p.refills(), arena.refills());
        assert_eq!(p.slab_overflows(), 0);
        for (off, i) in &payloads {
            assert_eq!(p.read_u64(*off), *i, "payloads are disjoint");
        }
        p.validate().unwrap();
        // Every carved piece frees like an ordinary block.
        for (off, _) in payloads {
            p.free_central(off).unwrap();
        }
        let rest = arena.bind(None);
        p.release_lease(rest).unwrap();
    }

    #[test]
    fn persist_point_drains_and_counts_group_commits() {
        let p = SharedPool::create("gc", 1 << 20, 4).unwrap();
        p.set_flush_model(FlushModel::Adr);
        let off = p.alloc_raw(256).unwrap();
        p.write_u64_stage(off, 1).unwrap();
        p.write_u64_stage(off + 128, 2).unwrap();
        assert_eq!(p.pending_lines(), 2);
        let f0 = p.fence_count();
        assert_eq!(p.persist_point(), 2, "batch barrier drains every line");
        assert_eq!(p.pending_lines(), 0);
        assert_eq!(p.group_commits(), 1);
        assert_eq!(p.fence_count(), f0 + 1, "a group commit is also a fence");
        p.drain_all();
        assert_eq!(p.group_commits(), 1, "plain fences are not group commits");
    }

    #[test]
    fn torn_plan_tears_a_shared_pool_like_an_owned_one() {
        let drained = |seed: u64| -> Vec<u64> {
            let p = SharedPool::create("torn", 1 << 20, 4).unwrap();
            p.set_flush_model(FlushModel::Adr);
            let off = p.alloc_raw(128).unwrap().next_multiple_of(64);
            for w in 0..8 {
                p.write_u64_stage(off + w * 8, 0xAAAA).unwrap();
            }
            p.drain_all(); // durable state: all 0xAAAA
            p.set_faults(FaultPlan::torn_at(7, seed));
            for w in 0..7 {
                p.write_u64_stage(off + w * 8, 0xBBBB).unwrap();
            }
            let err = p.write_u64_stage(off + 56, 0xBBBB).unwrap_err();
            assert!(matches!(err, HeapError::CrashInjected { writes: 7 }));
            assert_eq!(p.read_u64(off + 56), 0xBBBB, "the tripped write is in flight");
            assert!(p.cas_u64(off, 0xBBBB, 0xCCCC).is_err(), "dead after the trip");
            p.power_cycle();
            assert_eq!((p.pending_lines(), p.lines_lost()), (0, 1));
            (0..8).map(|w| p.read_u64(off + w * 8)).collect()
        };
        let a = drained(0xD5EED);
        assert_eq!(a, drained(0xD5EED), "the drain lottery replays bit-identically");
        assert!(a.contains(&0xAAAA) && a.contains(&0xBBBB), "a per-word mix: {a:x?}");
        assert!(a.iter().all(|&v| v == 0xAAAA || v == 0xBBBB));
        assert_ne!(a, drained(0xD5EED + 1), "and differs across seeds");
    }

    #[test]
    fn crash_restart_drains_by_the_torn_lottery_before_disarming() {
        // Disarming first would hand the drain a clean plan: every
        // in-flight word would revert and the torn arm would test nothing.
        let p = SharedPool::create("torn-restart", 1 << 20, 4).unwrap();
        p.set_flush_model(FlushModel::Adr);
        let off = p.alloc_raw(128).unwrap().next_multiple_of(64);
        p.set_faults(FaultPlan::torn_at(8, 0xD5EED));
        for w in 0..8 {
            p.write_u64_stage(off + w * 8, 0xBBBB).unwrap();
        }
        assert!(p.write_u64_stage(off, 1).is_err(), "boundary 8 trips");
        p.crash_restart();
        assert!(!p.faults().is_enabled(), "recovery runs disarmed");
        let landed = (0..8).filter(|w| p.read_u64(off + w * 8) == 0xBBBB).count();
        assert!(landed > 0, "no in-flight word landed: the lottery never ran");
    }

    #[test]
    fn large_requests_bypass_the_arena() {
        let p = SharedPool::create("l", 4 << 20, 4).unwrap();
        let mut arena = Arena::default();
        let off = p.arena_alloc(&mut arena, LARGE_CUTOFF + 1).unwrap();
        assert_eq!(arena.refills(), 0, "no lease involved");
        assert_eq!(p.central_allocs(), 1);
        p.free_central(off).unwrap();
    }

    #[test]
    fn arena_without_slab_leases_from_central() {
        let p = SharedPool::create("nc", 1 << 20, 4).unwrap();
        let mut arena = Arena::default();
        let off = p.arena_alloc(&mut arena, 64).unwrap();
        p.write_u64(off, 0xfeed);
        assert_eq!(p.read_u64(off), 0xfeed);
        assert!(p.central_allocs() >= 1, "lease came from the central allocator");
    }

    #[test]
    fn parallel_arena_writers_do_not_interfere() {
        let p = SharedPool::create("mt", 16 << 20, 16).unwrap();
        const THREADS: u64 = 4;
        const PER: u64 = 300;
        let slabs: Vec<SlabId> =
            (0..THREADS).map(|_| p.carve_slab(256 << 10).unwrap()).collect();
        let offs: Vec<Vec<u64>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    let p = &p;
                    let slab = slabs[t as usize];
                    s.spawn(move || {
                        let mut arena = Arena::default();
                        arena.bind(Some(slab));
                        (0..PER)
                            .map(|i| {
                                let off = p.arena_alloc(&mut arena, 64).unwrap();
                                p.write_u64(off, t << 32 | i);
                                off
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // All payloads distinct and intact after the join.
        let mut seen = std::collections::HashSet::new();
        for (t, thread_offs) in offs.iter().enumerate() {
            for (i, off) in thread_offs.iter().enumerate() {
                assert!(seen.insert(*off), "payload {off:#x} handed out twice");
                assert_eq!(p.read_u64(*off), (t as u64) << 32 | i as u64);
            }
        }
        assert_eq!(p.slab_overflows(), 0);
        p.validate().unwrap();
    }

    #[test]
    fn slab_cursors_make_offsets_thread_timing_independent() {
        // Same per-slab allocation script on two pools, different thread
        // interleavings simulated by executing serially in different
        // orders: offsets must be identical because each slab's cursor
        // only depends on its own history.
        let run = |order: &[usize]| -> Vec<Vec<u64>> {
            let p = SharedPool::create("det", 8 << 20, 8).unwrap();
            let slabs: Vec<SlabId> = (0..3).map(|_| p.carve_slab(64 << 10).unwrap()).collect();
            let mut arenas: Vec<Arena> = slabs
                .iter()
                .map(|s| {
                    let mut a = Arena::default();
                    a.bind(Some(*s));
                    a
                })
                .collect();
            let mut out = vec![Vec::new(); 3];
            for &who in order {
                let off = p.arena_alloc(&mut arenas[who], 80).unwrap();
                out[who].push(off);
            }
            out
        };
        let a = run(&[0, 0, 1, 2, 1, 0, 2, 2, 1, 0]);
        let b = run(&[2, 2, 2, 1, 1, 1, 0, 0, 0, 0]);
        assert_eq!(a, b, "offsets depend only on per-slab history, not interleaving");
    }

    #[test]
    fn snapshot_is_independent_of_the_original() {
        let p = SharedPool::create("snap", 1 << 20, 4).unwrap();
        let a = p.alloc_central(64).unwrap();
        p.write_u64(a, 111);
        p.set_root(a);
        let snap = p.snapshot();
        p.write_u64(a, 222);
        let b = p.alloc_central(64).unwrap();
        assert_eq!(snap.read_u64(a), 111, "snapshot kept the old value");
        assert_eq!(snap.root(), a);
        assert_eq!(snap.allocation_count(), 1, "b was allocated after the snapshot");
        let c = snap.alloc_central(64).unwrap();
        assert_eq!(b, c, "snapshot's allocator state matches the cut point");
        snap.validate().unwrap();
        p.validate().unwrap();
    }

    #[test]
    fn retention_clock_seals_then_decay_flips_are_detected_not_silent() {
        let p = SharedPool::create("ret", 1 << 20, 4).unwrap();
        p.configure_retention(RetentionConfig { seal_lag: 1, work_per_tick: 100 });
        // Aggressive decay so a short soak reliably flips something.
        p.set_faults(FaultPlan::disabled().with_decay(7, 50_000_000));
        let a = p.alloc_central(PAGE_SIZE * 4).unwrap();
        for i in 0..64u64 {
            p.write_u64(a + i * 8, i);
        }
        assert_eq!(p.media_tick(), 0);
        let tick = p.note_work(100 * 40);
        assert_eq!(tick, 40, "clock advances from work units alone");
        assert!(p.sealed_pages() > 0, "quiesced dirty pages must seal");
        let (injected, detected, cancelled) = p.media_flips();
        assert!(injected > 0, "aged sealed pages must decay at 5%/tick/age");
        assert_eq!(detected, 0, "nothing has verified yet");
        assert!(p.quarantined_page().is_none());
        let bad = p.verify_all();
        assert!(!bad.is_empty());
        let (injected2, detected2, cancelled2) = p.media_flips();
        assert_eq!(injected2, injected, "verification injects nothing");
        assert_eq!(cancelled2, cancelled, "verification cancels nothing");
        assert_eq!(detected2 + cancelled2, injected2, "full verify catches every live flip");
        assert_eq!(p.quarantined_page(), Some(bad[0]));
        p.release_quarantine();
        assert!(p.quarantined_page().is_none());
    }

    #[test]
    fn cold_write_verify_catches_a_stale_flip_before_reseal_blesses_it() {
        let p = SharedPool::create("cw", 1 << 20, 2).unwrap();
        p.configure_retention(RetentionConfig { seal_lag: 1, work_per_tick: 10 });
        let a = p.alloc_central(256).unwrap();
        p.write_u64(a, 0xfeed);
        p.note_work(100); // seal everything quiesced
        assert!(p.sealed_pages() > 0);
        assert!(p.corrupt_bit(a, 3), "plant a silent flip on the sealed page");
        let (injected, detected, _) = p.media_flips();
        assert_eq!((injected, detected), (1, 0));
        // A mutator overwrites the decayed page: the cold-write verify must
        // fire before the write can lead to a blessed reseal.
        p.write_u64(a + 8, 1);
        let (_, detected, _) = p.media_flips();
        assert_eq!(detected, 1, "cold-write verify caught the flip");
        assert!(p.quarantined_page().is_some());
        // Repair flow: verify_all (nothing new), salvage, reseal, release.
        assert!(p.verify_all().is_empty(), "page went dirty; nothing else stale");
        let report = p.salvage();
        assert!(report.stats().blocks_recovered > 0);
        p.reseal_all();
        p.release_quarantine();
        // The blessed image is ground truth again: full verify is clean.
        assert!(p.verify_all().is_empty());
        let (i2, d2, c2) = p.media_flips();
        assert_eq!(i2, d2 + c2, "zero silent corruption invariant");
    }

    #[test]
    fn scrub_batch_refreshes_old_pages_and_resets_their_age() {
        let p = SharedPool::create("scrub", 1 << 20, 4).unwrap();
        p.configure_retention(RetentionConfig { seal_lag: 1, work_per_tick: 10 });
        let a = p.alloc_central(PAGE_SIZE * 2).unwrap();
        p.write_u64(a, 1);
        p.note_work(10 * 30); // 30 ticks: seal, then age
        let worn_before = p.wear_stats().total;
        let verdicts = p.scrub_batch(64, 5);
        assert!(!verdicts.is_empty());
        assert!(
            verdicts.iter().all(|(_, v)| *v == PageVerdict::Repaired),
            "every clean page is past the refresh age: {verdicts:?}"
        );
        assert!(p.wear_stats().total > worn_before, "refresh reprograms cells");
        // Immediately after refresh every page is young again.
        let verdicts2 = p.scrub_batch(64, 5);
        assert!(verdicts2.iter().all(|(_, v)| *v == PageVerdict::Clean), "{verdicts2:?}");
        // A planted flip turns the verdict into Quarantined.
        p.corrupt_bit(a, 0);
        let verdicts3 = p.scrub_batch(64, u64::MAX);
        assert!(verdicts3.iter().any(|(_, v)| *v == PageVerdict::Quarantined));
        let (i, d, c) = p.media_flips();
        assert_eq!((i, d, c), (1, 1, 0));
    }

    #[test]
    fn scrub_work_is_booked_separately_and_snapshot_carries_the_plane() {
        let p = SharedPool::create("book", 1 << 20, 2).unwrap();
        p.configure_retention(RetentionConfig::default());
        p.set_wear_leveling(true);
        p.note_work(1000);
        p.note_scrub_work(250);
        assert_eq!(p.media_work(), (1250, 250));
        let a = p.alloc_central(64).unwrap(); // scored path with media on
        p.write_u64(a, 9);
        let snap = p.snapshot();
        assert!(snap.retention_enabled());
        assert!(snap.wear_leveling());
        assert_eq!(snap.media_work(), (1250, 250));
        snap.note_work(100);
        assert_eq!(p.media_work(), (1250, 250), "snapshot is independent");
    }

    #[test]
    fn wear_leveling_flattens_churn_wear() {
        // Alloc/free churn with rewrites: first-fit reuses the freshly
        // freed low-address holes over and over, concentrating wear;
        // the scored allocator steers each refill toward the pages with
        // the lowest write counts. Identical churn pattern (same LCG
        // stream), only the placement policy differs. The endurance
        // claim is about *peak* wear (the most-worn cell dies first) —
        // max/mean flatness would reward concentration, since spreading
        // writes over more pages dilutes the mean while the allocator's
        // metadata page pins the max.
        let peak = |leveling: bool| {
            let p = SharedPool::create(if leveling { "wl-on" } else { "wl-off" }, 1 << 20, 2)
                .unwrap();
            p.configure_retention(RetentionConfig::default());
            p.set_wear_leveling(leveling);
            let mut slots: Vec<u64> =
                (0..24).map(|_| p.alloc_raw(PAGE_SIZE / 2).unwrap()).collect();
            let mut rng = 0x2545_f491_4f6c_dd1du64;
            for _ in 0..40 {
                for slot in &mut slots {
                    rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    if rng >> 63 == 1 {
                        p.free_raw(*slot).unwrap();
                        *slot = p.alloc_raw(PAGE_SIZE / 2).unwrap();
                        for w in 0..PAGE_SIZE / 16 {
                            p.write_u64(*slot + w * 8, rng ^ w);
                        }
                    }
                }
            }
            p.wear_stats().max
        };
        let (level, first_fit) = (peak(true), peak(false));
        assert!(
            level < first_fit,
            "scored allocation must cut peak wear: {level} vs {first_fit}"
        );
    }

    #[test]
    fn shared_fault_gate_counts_across_users() {
        let p = SharedPool::create("f", 1 << 20, 2).unwrap();
        p.set_faults(FaultPlan::crash_at(3));
        assert!(p.gate().is_ok());
        assert!(p.gate().is_ok());
        assert!(p.gate().is_ok());
        let err = p.gate().unwrap_err();
        assert!(matches!(err, HeapError::CrashInjected { writes: 3 }));
        // Tripped plans stay dead for every subsequent gate.
        assert!(p.gate().is_err());
        assert!(p.faults().tripped());
    }
}
