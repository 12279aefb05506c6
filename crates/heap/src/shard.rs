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
//! - **Data plane** — the pool's bytes live in one pool-wide table of
//!   pages that never move once written (`pages.rs`). A load takes no lock
//!   and writes nothing shared: an `Acquire` load of the page entry and one
//!   of the word. A write takes only the lock of the stripe
//!   (page-interleaved, power-of-two many) that owns the touched page, so
//!   writers to disjoint pages never contend and readers contend with
//!   nobody.
//! - **Allocation plane** — `pmalloc` is served from a thread-private
//!   *arena lease*: a block carved off the front of a slab (or of the
//!   central free list) that the owning thread subdivides with
//!   `Region::carve_front` without taking the central lock. Only lease
//!   *refills* and frees touch the central allocator.
//! - **Persistence plane** — a line's ADR pending bytes live with its
//!   page, in its stripe's pending set, so a staged write, a CAS and a
//!   `clwb` take only that stripe's lock. A fence visits the stripes a
//!   bitmap marks dirty. FliT tags are a fixed table of hashed atomic
//!   counters. The pool's one `PersistPlane` holds the fault gate and the
//!   power-loss drain. It is the slow path: while a fault plan is enabled
//!   or retention is on, every durable write boundary holds its mutex
//!   across gate → stage → apply → settle, so a crash boundary armed at
//!   `k` counts durable writes across *all* threads, exactly like a
//!   machine-wide power failure, and a torn plan tears here exactly as it
//!   does in an [`crate::AddressSpace`]. With neither, no data, CAS,
//!   flush, tag or gate call takes it.
//!
//! Determinism: per-thread slab cursors make every allocation's offset a
//! function of (slab, thread-local op sequence) alone, never of cross-
//! thread timing — which is what lets the multi-threaded YCSB arm promise
//! bit-identical checksums per `(seed, thread count)` and lets the crash
//! sweeps replay under `UTPR_QC_SEED`. See DESIGN.md §10.
//!
//! Lock order (a level may only acquire locks from levels to its right):
//! `plane` → `slabs` → `central` → `media` → stripe locks.
//! Stripe locks are leaves and are held one at a time. They guard writers
//! only: each serializes the writes to its pages with their pending lines
//! and dirty bits, so staging a line and applying the write that dirties
//! it happen under one acquisition, while loads pass them by. A load is
//! therefore ordered after a store only by `Release`/`Acquire` on the word
//! it reads, not by a lock (DESIGN.md §10). The `plane` mutex guards
//! the fault plan and the power-loss drain; on the slow path it also
//! serializes every boundary, flush and fence, and it is never held across
//! an allocator call. The `media` mutex guards the pool's media plane
//! (`media.rs`: the CRC sidecar, and once retention is configured the
//! media clock, wear table and decay books — DESIGN.md §13). The plane
//! reaches the stripes one lock at a time while it is held, never the
//! reverse, and the first bad page it reports is CASed into the quarantine
//! word under it; shards read that word without any lock.

use crate::addr::PoolId;
use crate::alloc::{MemWords, Region, SalvageReport};
use crate::error::Result;
use crate::faults::FaultPlan;
use crate::integrity::PageVerdict;
use crate::media::{MediaClock, MediaPages, MediaPlane};
use crate::pagestore::PAGE_SIZE;
use crate::persist::{Pending, PersistPlane};
use crate::pool::MAX_POOL_SIZE;
use crate::retain::{RetentionConfig, WearStats};
use crate::space::FlushModel;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

mod pages;

use pages::Pages;

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

/// The key a [`SharedPool`] files its pending lines under. Shards adopt
/// the pool under differing ids, so the pool cannot use theirs; it only
/// ever holds this one pool.
const PLANE_KEY: PoolId = PoolId::from_raw_trusted(0);

/// log2 of the FliT tag slots per pool (16 Ki counters, 64 KiB).
const TAG_BITS: u32 = 14;

/// One page-lock stripe, held by the writers of the pages `p` with
/// `p & stripe_mask` equal to its index: the ADR lines of those pages
/// written but not yet durable, how many of its lines flushes and fences
/// have made durable, and, while retention runs, which of its pages are
/// dirty. The pages themselves live in the pool's one page table. Aligned
/// to a cache line, so two threads locking neighbouring stripes do not
/// share one.
#[derive(Clone, Debug, Default)]
#[repr(align(64))]
struct Stripe {
    pending: Pending,
    drained: u64,
    /// Retention's dirty bits: bit `p >> log2(stripes)` stands for page
    /// `p`. `None` while retention is off.
    dirty_pages: Option<Vec<u64>>,
}

impl Stripe {
    /// Marks the page in slot `slot` dirty while retention tracks writes.
    fn mark_dirty(&mut self, slot: usize) {
        if let Some(bits) = &mut self.dirty_pages {
            if slot / 64 >= bits.len() {
                bits.resize(slot / 64 + 1, 0);
            }
            bits[slot / 64] |= 1 << (slot % 64);
        }
    }

    fn is_dirty(&self, slot: usize) -> bool {
        let word = self.dirty_pages.as_ref().and_then(|bits| bits.get(slot / 64));
        word.is_some_and(|w| w >> (slot % 64) & 1 == 1)
    }

    fn clear_dirty(&mut self, slot: usize) {
        if let Some(w) = self.dirty_pages.as_mut().and_then(|bits| bits.get_mut(slot / 64)) {
            *w &= !(1 << (slot % 64));
        }
    }

    /// The slots of the dirty pages, in order.
    fn dirty_slots(&self) -> impl Iterator<Item = usize> + '_ {
        let bits = self.dirty_pages.as_deref().unwrap_or_default();
        bits.iter().enumerate().flat_map(|(w, &word)| {
            (0..64).filter(move |b| word >> b & 1 == 1).map(move |b| w * 64 + b)
        })
    }
}

/// A counter on a cache line of its own, away from the flags every call
/// reads.
#[derive(Debug, Default)]
#[repr(align(64))]
struct Padded(AtomicU64);

/// One persistent pool shared by many address-space shards. See the
/// module docs for the layering and lock order.
#[derive(Debug)]
pub struct SharedPool {
    name: String,
    size: u64,
    /// The pool's bytes, read without a lock.
    pages: Pages,
    /// Page-interleaved writer locks: the writers of page `p` hold stripe
    /// `p & stripe_mask`.
    stripes: Box<[Mutex<Stripe>]>,
    stripe_mask: u64,
    /// Bit `i` is set while stripe `i` may hold pending lines: set under
    /// the stripe lock when its pending set stops being empty, cleared
    /// under it by the drain that empties it. A fence visits only these.
    dirty: Box<[AtomicU64]>,
    /// The boundary-tag allocator over the striped words. `Region` itself
    /// is a stateless `Copy` handle; `central` serialises free-list and
    /// stats mutations.
    region: Region,
    central: Mutex<()>,
    slabs: Mutex<Vec<SlabState>>,
    /// The fault gate and the power-loss drain, shared by every thread.
    /// Head of the lock order. Its pending set is empty except while
    /// [`SharedPool::power_cycle`] drains the stripes' lines through it.
    plane: Mutex<PersistPlane>,
    /// Mirror of "a fault plan is enabled or retention is on": every
    /// boundary then takes the slow path through `plane`. Written only by
    /// [`SharedPool::set_faults`] and [`SharedPool::configure_retention`]
    /// (`Release`, paired with the `Acquire` load of every boundary).
    slow: AtomicBool,
    /// Mirror of the plane's model being [`FlushModel::Adr`]. Written only
    /// by [`SharedPool::set_flush_model`].
    adr: AtomicBool,
    /// FliT word tags: a word's count lives in the slot its index hashes
    /// to. Two words sharing a slot only make a reader flush a line it
    /// need not have, never skip one it must. Volatile. A count publishes
    /// no data of its own: the word it describes moves under its stripe
    /// lock.
    tags: Box<[AtomicU32]>,
    /// Fence (full-drain) events.
    fences: Padded,
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

/// `MemWords` view of a [`SharedPool`]: a read takes no lock, a write its
/// page's stripe lock. Lets the single-threaded `Region` code run
/// unchanged over the striped device.
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

/// The page table as the media plane's page source, under the `media`
/// lock. A page call holds that page's stripe lock, so no write to the
/// page lands in between; the dirty list visits the stripes one lock at a
/// time.
impl MediaPages for StripedWords<'_> {
    fn tracks_dirty(&mut self) -> bool {
        // The stripes keep dirty bits exactly while retention is on.
        self.0.media_on.load(Ordering::Acquire)
    }

    fn dirty_pages(&mut self) -> Vec<u64> {
        let (pool, mut pages) = (self.0, Vec::new());
        for (i, stripe) in pool.stripes.iter().enumerate() {
            let s = stripe.lock().unwrap();
            let page = |slot: usize| (slot as u64) << pool.stripe_bits() | i as u64;
            pages.extend(s.dirty_slots().map(page));
        }
        pages.sort_unstable();
        pages
    }

    fn resident_pages(&mut self) -> Vec<u64> {
        self.0.pages.resident_every(0, 1).collect()
    }

    fn seal_page(&mut self, page: u64) -> Option<u32> {
        let (mut s, slot) = self.0.lock_page(page);
        let crc = self.0.pages.crc(page)?;
        s.clear_dirty(slot);
        Some(crc)
    }

    fn read_clean<R>(&mut self, page: u64, f: impl FnOnce(Option<&[u8]>) -> R) -> Option<R> {
        let (s, slot) = self.0.lock_page(page);
        if s.is_dirty(slot) {
            return None;
        }
        let mut buf = [0; PAGE_SIZE as usize];
        let resident = self.0.pages.copy_page(page, &mut buf);
        Some(f(resident.then_some(&buf[..])))
    }

    fn flip_bit(&mut self, offset: u64, bit: u8, clean_only: bool) -> bool {
        let (s, slot) = self.0.lock_page(offset / PAGE_SIZE);
        !(clean_only && s.is_dirty(slot)) && self.0.pages.flip_bit(offset, bit)
    }
}

impl SharedPool {
    /// Creates and formats a shared pool of `size` bytes with `stripes`
    /// page-lock stripes (rounded up to a power of two, min 1).
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::BadPoolSize`](crate::HeapError::BadPoolSize) for sizes the region format
    /// rejects, and above [`MAX_POOL_SIZE`], the most a pool offset
    /// addresses (the page table has an entry per page of the size).
    pub fn create(name: &str, size: u64, stripes: usize) -> Result<Arc<SharedPool>> {
        if size > MAX_POOL_SIZE {
            return Err(crate::HeapError::BadPoolSize(size));
        }
        let n = stripes.max(1).next_power_of_two();
        let pool = SharedPool {
            name: name.to_string(),
            size,
            pages: Pages::new(size),
            stripes: (0..n).map(|_| Mutex::default()).collect(),
            stripe_mask: (n - 1) as u64,
            dirty: (0..n.div_ceil(64)).map(|_| AtomicU64::new(0)).collect(),
            // Placeholder until format validates the size below.
            region: Region::from_size_unchecked(size),
            central: Mutex::new(()),
            slabs: Mutex::new(Vec::new()),
            plane: Mutex::new(PersistPlane::default()),
            slow: AtomicBool::new(false),
            adr: AtomicBool::new(false),
            tags: (0..1 << TAG_BITS).map(|_| AtomicU32::new(0)).collect(),
            fences: Padded::default(),
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
    fn stripe_index(&self, offset: u64) -> usize {
        ((offset / PAGE_SIZE) & self.stripe_mask) as usize
    }

    #[inline]
    fn stripe_for(&self, offset: u64) -> &Mutex<Stripe> {
        &self.stripes[self.stripe_index(offset)]
    }

    /// log2 of the stripe count: a page's slot in its stripe's dirty bits
    /// is its number shifted right by this.
    fn stripe_bits(&self) -> u32 {
        self.stripe_mask.count_ones()
    }

    /// Locks the stripe of `page` and names the page's slot in it.
    fn lock_page(&self, page: u64) -> (MutexGuard<'_, Stripe>, usize) {
        let s = self.stripe_for(page * PAGE_SIZE).lock().unwrap();
        (s, (page >> self.stripe_bits()) as usize)
    }

    /// Marks the page holding `offset` dirty in its locked stripe `s`
    /// while retention tracks writes.
    #[inline]
    fn note_write_locked(&self, s: &mut Stripe, offset: u64) {
        if s.dirty_pages.is_some() {
            s.mark_dirty(((offset / PAGE_SIZE) >> self.stripe_bits()) as usize);
        }
    }

    /// Reads `buf.len()` bytes at `offset` without a lock, one atomic word
    /// load at a time: each word is whole, but the range is one snapshot
    /// only if no writer touches it meanwhile.
    pub fn read_bytes(&self, offset: u64, buf: &mut [u8]) {
        self.pages.read(offset, buf);
    }

    /// Writes `buf` at `offset`, splitting at page boundaries.
    pub fn write_bytes(&self, offset: u64, buf: &[u8]) {
        self.write_bytes_with(offset, buf, false);
    }

    /// [`SharedPool::write_bytes`], staging each touched line first when
    /// `stage` is set.
    fn write_bytes_with(&self, mut offset: u64, mut buf: &[u8], stage: bool) {
        if self.media_on.load(Ordering::Acquire) && !buf.is_empty() {
            self.media_note_write(offset, buf.len() as u64);
        }
        while !buf.is_empty() {
            let in_page = (PAGE_SIZE - offset % PAGE_SIZE) as usize;
            let n = in_page.min(buf.len());
            let i = self.stripe_index(offset);
            let mut s = self.stripes[i].lock().unwrap();
            if stage {
                self.stage_locked(i, &mut s, offset, n as u64);
            }
            self.pages.write(offset, &buf[..n]);
            self.note_write_locked(&mut s, offset);
            offset += n as u64;
            buf = &buf[n..];
        }
    }

    /// Reads the aligned word at `offset` (words never straddle pages):
    /// two `Acquire` loads, no lock.
    #[inline]
    pub fn read_u64(&self, offset: u64) -> u64 {
        debug_assert_eq!(offset % 8, 0, "unaligned word read at {offset:#x}");
        self.pages.read_u64(offset)
    }

    /// Writes the aligned word at `offset`.
    #[inline]
    pub fn write_u64(&self, offset: u64, value: u64) {
        self.write_u64_with(offset, value, false);
    }

    /// [`SharedPool::write_u64`], staging the word's line first when
    /// `stage` is set.
    #[inline]
    fn write_u64_with(&self, offset: u64, value: u64, stage: bool) {
        debug_assert_eq!(offset % 8, 0, "unaligned word write at {offset:#x}");
        if self.media_on.load(Ordering::Acquire) {
            self.media_note_write(offset, 8);
        }
        let i = self.stripe_index(offset);
        let mut s = self.stripes[i].lock().unwrap();
        if stage {
            self.stage_locked(i, &mut s, offset, 8);
        }
        self.pages.write_u64(offset, value);
        self.note_write_locked(&mut s, offset);
    }

    // ---- persistence plane (fault gate, ADR staging, FliT tags) -----------

    fn plane(&self) -> MutexGuard<'_, PersistPlane> {
        self.plane.lock().unwrap()
    }

    /// Whether boundaries take the slow path: a fault plan is enabled or
    /// retention is on.
    #[inline]
    fn slow(&self) -> bool {
        self.slow.load(Ordering::Acquire)
    }

    /// The plane lock on the slow path, nothing on the fast one: flushes
    /// and fences hold it while a plan is installed, so they stay ordered
    /// against every gated boundary exactly as before the fast path.
    fn slow_guard(&self) -> Option<MutexGuard<'_, PersistPlane>> {
        self.slow().then(|| self.plane())
    }

    /// Installs the pool-wide fault plan. One plan gates every thread's
    /// durable writes, so an armed boundary models a machine-wide power
    /// failure regardless of which thread trips it. Install it while no
    /// thread is writing: a boundary already past its fast/slow check
    /// finishes on the path it chose.
    pub fn set_faults(&self, plan: FaultPlan) {
        let mut plane = self.plane();
        plane.faults = plan;
        let slow = plan.is_enabled() || self.media_on.load(Ordering::Acquire);
        self.slow.store(slow, Ordering::Release);
    }

    /// Snapshot of the pool-wide fault plan.
    pub fn faults(&self) -> FaultPlan {
        self.plane().faults
    }

    /// Consults the pool-wide gate for one atomic durable write. Returns at
    /// once when no plan is enabled.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::CrashInjected`] at and after the armed point.
    pub(crate) fn gate(&self) -> Result<()> {
        if !self.slow() {
            return Ok(());
        }
        self.plane().gate()
    }

    /// The pool's persistence-domain model.
    pub fn flush_model(&self) -> FlushModel {
        if self.adr.load(Ordering::Acquire) {
            FlushModel::Adr
        } else {
            FlushModel::Eadr
        }
    }

    /// Switches the persistence-domain model. Moving to eADR implicitly
    /// fences: lines in flight become durable and every tag clears.
    pub fn set_flush_model(&self, model: FlushModel) {
        let mut plane = self.plane();
        plane.set_flush_model(model);
        self.adr.store(model == FlushModel::Adr, Ordering::Release);
        if model == FlushModel::Eadr {
            self.drain_stripes();
            self.clear_tags();
        }
    }

    /// Under ADR, stages the lines of `[off, off + len)` (within one page,
    /// the page of stripe `i`, whose lock `s` is) into the stripe's pending
    /// set, and marks the stripe dirty.
    #[inline]
    fn stage_locked(&self, i: usize, s: &mut Stripe, off: u64, len: u64) {
        if !self.adr.load(Ordering::Acquire) {
            return;
        }
        s.pending.stage(PLANE_KEY, off, len, |line, old| self.pages.read_line(line, old));
        // The bit only tells a drain where to look; the lines themselves
        // pass between threads under the stripe lock. Only a drain clears
        // it, under this same lock, so this load is exact, and skipping
        // the store while the bit stays set keeps the word's cache line
        // shared. The `Release` pairs with `drain_stripes`' `Acquire` load.
        let (word, bit) = (&self.dirty[i / 64], 1 << (i % 64));
        if word.load(Ordering::Relaxed) & bit == 0 {
            word.fetch_or(bit, Ordering::Release);
        }
    }

    /// One tearable durable write boundary on the slow path, under the
    /// plane lock: gate, `apply` (which stages and writes), settle.
    fn boundary(&self, plane: &mut PersistPlane, apply: impl FnOnce()) -> Result<()> {
        let verdict = plane.gate_tearable()?;
        apply();
        plane.settle(verdict)
    }

    /// One gated, durable-boundary word write on the data plane: under ADR
    /// the touched line is staged (its durable bytes snapshotted) before
    /// the image mutates, so a later [`SharedPool::power_cycle`] can revert
    /// it. Identical to [`SharedPool::write_u64`] plus a gate under eADR.
    /// With no plan enabled it takes only the word's stripe lock.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::CrashInjected`](crate::HeapError::CrashInjected) when an armed fault point
    /// fires; the write lands only on a torn boundary
    /// ([`FaultPlan::torn_at`]).
    pub fn write_u64_stage(&self, off: u64, value: u64) -> Result<()> {
        if !self.slow() {
            self.write_u64_with(off, value, true);
            return Ok(());
        }
        self.boundary(&mut self.plane(), || self.write_u64_with(off, value, true))
    }

    /// [`SharedPool::write_u64_stage`] for a byte range.
    pub(crate) fn write_bytes_stage(&self, off: u64, buf: &[u8]) -> Result<()> {
        if !self.slow() {
            self.write_bytes_with(off, buf, true);
            return Ok(());
        }
        self.boundary(&mut self.plane(), || self.write_bytes_with(off, buf, true))
    }

    /// Compare-and-swap on the word at `off`. Returns `(swapped, old)`.
    /// With no plan enabled the read, compare, stage and write run under
    /// the word's stripe lock, so the swap is atomic against every other
    /// write to the word, and a lock-free load sees the old value or the
    /// new one; on the slow path they run under the plane lock,
    /// atomic against every other staged write and CAS. Only a
    /// *successful* swap is a durable write boundary (and stages its line);
    /// a failed CAS is just a load.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::CrashInjected`](crate::HeapError::CrashInjected) when the gate fires on a
    /// would-succeed swap; the write lands only on a torn boundary.
    pub fn cas_u64(&self, off: u64, expected: u64, new: u64) -> Result<(bool, u64)> {
        if !self.slow() {
            let i = self.stripe_index(off);
            let mut s = self.stripes[i].lock().unwrap();
            let cur = self.pages.read_u64(off);
            if cur == expected {
                self.stage_locked(i, &mut s, off, 8);
                self.pages.write_u64(off, new);
                self.note_write_locked(&mut s, off);
            }
            return Ok((cur == expected, cur));
        }
        let mut plane = self.plane();
        let cur = self.read_u64(off);
        if cur != expected {
            return Ok((false, cur));
        }
        self.boundary(&mut plane, || self.write_u64_with(off, new, true))?;
        Ok((true, cur))
    }

    /// Targeted `clwb`: makes the line containing `off` durable. Returns
    /// whether the line was actually pending.
    pub fn flush_line(&self, off: u64) -> bool {
        if !self.adr.load(Ordering::Acquire) {
            return false; // nothing is ever pending under eADR
        }
        let _plane = self.slow_guard();
        let mut s = self.stripe_for(off).lock().unwrap();
        let hit = s.pending.flush_line(PLANE_KEY, off);
        s.drained += u64::from(hit);
        hit
    }

    /// The tag slot of the word at `off`: Fibonacci hashing of the word
    /// index, so the words of one line never share a slot.
    #[inline]
    fn tag(&self, off: u64) -> &AtomicU32 {
        let slot = (off / 8).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - TAG_BITS);
        &self.tags[slot as usize]
    }

    /// FliT tag protocol: marks the word at `off` dirty (store side). The
    /// count nests so two in-flight stores need two completions.
    pub fn tag_word(&self, off: u64) {
        self.tag(off).fetch_add(1, Ordering::AcqRel);
    }

    /// FliT tag protocol: the writer persisted the word; drop one tag. An
    /// empty slot stays at zero.
    pub fn untag_word(&self, off: u64) {
        let (set, seen) = (Ordering::AcqRel, Ordering::Acquire);
        let _ = self.tag(off).fetch_update(set, seen, |c| c.checked_sub(1));
    }

    /// FliT tag protocol, load side: is the word possibly unpersisted?
    pub fn word_tagged(&self, off: u64) -> bool {
        self.tag(off).load(Ordering::Acquire) != 0
    }

    fn clear_tags(&self) {
        for t in self.tags.iter() {
            t.store(0, Ordering::Release);
        }
    }

    /// Empties the pending set of every stripe the dirty bitmap marks, and
    /// clears its bit under its lock. Returns the number of lines drained.
    fn drain_stripes(&self) -> u64 {
        let mut drained = 0;
        for (w, word) in self.dirty.iter().enumerate() {
            let mut bits = word.load(Ordering::Acquire);
            while bits != 0 {
                let b = bits.trailing_zeros();
                bits &= bits - 1;
                let mut s = self.stripes[w * 64 + b as usize].lock().unwrap();
                let n = s.pending.clear() as u64;
                s.drained += n;
                drained += n;
                word.fetch_and(!(1 << b), Ordering::Release);
            }
        }
        drained
    }

    /// Pool-wide persist barrier: drains every pending line to durability
    /// (the flush half of an `sfence` issued by any thread — caches are
    /// machine-wide, so one thread's fence drains everyone's lines).
    /// Returns the number of lines drained.
    pub fn drain_all(&self) -> u64 {
        let _plane = self.slow_guard();
        self.fences.0.fetch_add(1, Ordering::Relaxed);
        self.drain_stripes()
    }

    /// Power loss: every unflushed line reverts to its durable bytes — or,
    /// under a torn plan, drains by the plan's seeded per-word lottery —
    /// and all tags clear (the tag table is volatile). The crash sweeps
    /// call this on a tripped trial before recovery. The stripes' lines
    /// go through the same `PersistPlane::power_loss` that
    /// [`crate::AddressSpace::restart`] runs over per-space pending lines,
    /// in `(pool, line)` order whichever stripe held them.
    pub fn power_cycle(&self) {
        let mut plane = self.plane();
        for stripe in self.stripes.iter() {
            plane.absorb(&mut stripe.lock().unwrap().pending);
        }
        for word in self.dirty.iter() {
            word.store(0, Ordering::Release);
        }
        plane.power_loss(|_, off, durable| self.write_bytes(off, durable));
        self.clear_tags();
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
        self.stripes.iter().map(|s| s.lock().unwrap().pending.len()).sum()
    }

    /// Lines made durable by flush or fence drain so far.
    pub fn lines_drained(&self) -> u64 {
        self.stripes.iter().map(|s| s.lock().unwrap().drained).sum()
    }

    /// Lines lost to power cycles so far.
    pub fn lines_lost(&self) -> u64 {
        self.plane().lines_lost
    }

    /// Pool-wide fence (full-drain) events so far.
    pub fn fence_count(&self) -> u64 {
        self.fences.0.load(Ordering::Relaxed)
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
    /// geometry, gives every stripe dirty bits (already-resident pages
    /// start dirty — their checksums are unknown), and starts the media
    /// clock at tick 0. The decay *law* (seed, rate) comes separately from
    /// [`SharedPool::set_faults`] with [`FaultPlan::with_decay`].
    pub fn configure_retention(&self, cfg: RetentionConfig) {
        let pages = (self.size / PAGE_SIZE) as usize + 1;
        let step = self.stripes.len() as u64;
        for (i, stripe) in self.stripes.iter().enumerate() {
            let mut s = stripe.lock().unwrap();
            s.dirty_pages = Some(Vec::new());
            for page in self.pages.resident_every(i as u64, step) {
                s.mark_dirty((page >> self.stripe_bits()) as usize);
            }
        }
        *self.media() = MediaPlane::with_retention(cfg, pages);
        self.media_on.store(true, Ordering::Release);
        self.slow.store(true, Ordering::Release);
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

    /// Resident (materialized) pages — the set a
    /// [`SharedPool::reseal_all`] reprograms, and hence the page count a
    /// repair's modelled cost scales with.
    pub fn resident_pages(&self) -> u64 {
        self.pages.resident()
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
                let (s, slot) = self.lock_page(*page);
                (
                    *page,
                    bits.len(),
                    m.crcs().get(*page).is_some(),
                    s.is_dirty(slot),
                    self.pages.is_resident(*page),
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

    /// Host bytes held by resident pages.
    pub fn resident_bytes(&self) -> u64 {
        self.pages.resident() * PAGE_SIZE
    }

    /// Deep copy of the pool — pages, pending lines, tags, slab cursors,
    /// counters, fault plan. The crash sweeps run every trial against a
    /// fresh snapshot so armed runs never contaminate the base image.
    /// Quiesce writers first: the pages are copied word by word and each
    /// stripe under its own lock, so a concurrent writer could leave a torn
    /// cut (serial schedule drivers never do).
    pub fn snapshot(&self) -> Arc<SharedPool> {
        let copy64 = |a: &AtomicU64| AtomicU64::new(a.load(Ordering::Acquire));
        let plane = self.plane().clone();
        Arc::new(SharedPool {
            name: self.name.clone(),
            size: self.size,
            pages: self.pages.clone(),
            stripes: self.stripes.iter().map(|s| Mutex::new(s.lock().unwrap().clone())).collect(),
            stripe_mask: self.stripe_mask,
            dirty: self.dirty.iter().map(copy64).collect(),
            region: self.region,
            central: Mutex::new(()),
            slabs: Mutex::new(self.slabs.lock().unwrap().clone()),
            plane: Mutex::new(plane),
            slow: AtomicBool::new(self.slow()),
            adr: AtomicBool::new(self.adr.load(Ordering::Acquire)),
            tags: self.tags.iter().map(|t| AtomicU32::new(t.load(Ordering::Acquire))).collect(),
            fences: Padded(copy64(&self.fences.0)),
            media: Mutex::new(self.media().clone()),
            media_on: AtomicBool::new(self.media_on.load(Ordering::Acquire)),
            quarantine: copy64(&self.quarantine),
            wear_level: AtomicBool::new(self.wear_level.load(Ordering::Relaxed)),
            refills: copy64(&self.refills),
            central_allocs: copy64(&self.central_allocs),
            slab_overflows: copy64(&self.slab_overflows),
            group_commits: copy64(&self.group_commits),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::HeapError;
    use crate::pagestore::PageStore;

    #[test]
    fn create_formats_a_valid_region() {
        let p = SharedPool::create("shared", 4 << 20, 8).unwrap();
        assert_eq!(p.stripes(), 8);
        assert_eq!(p.validate().unwrap(), 1, "one free block spans the fresh pool");
        assert_eq!(p.allocation_count(), 0);
        let huge = SharedPool::create("huge", MAX_POOL_SIZE + 16, 1);
        assert!(matches!(huge, Err(HeapError::BadPoolSize(_))), "past what an offset addresses");
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

        // Unaligned heads and tails, whole words, and page crossings, read
        // back through both paths against a `PageStore`.
        let mut reference = PageStore::new();
        let start = PAGE_SIZE * 8;
        let pieces = [(3, 1), (13, 7), (PAGE_SIZE - 3, 9), (40, PAGE_SIZE + 21)];
        for (i, (at, len)) in pieces.into_iter().enumerate() {
            let bytes: Vec<u8> = (0..len).map(|b| (b as u8).wrapping_mul(31) ^ i as u8).collect();
            p.write_bytes(start + at, &bytes);
            reference.write(start + at, &bytes);
        }
        let mut got = vec![0u8; 3 * PAGE_SIZE as usize];
        p.read_bytes(start, &mut got);
        let mut want = vec![0u8; got.len()];
        reference.read(start, &mut want);
        assert_eq!(got, want);
        for w in (start..start + 3 * PAGE_SIZE).step_by(8) {
            assert_eq!(p.read_u64(w), reference.read_u64(w), "word {w:#x}");
        }
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

    #[test]
    fn cas_increments_and_drains_are_atomic_across_real_threads() {
        const PER: u64 = 10_000;
        let p = SharedPool::create("atomic", 1 << 20, 8).unwrap();
        p.set_flush_model(FlushModel::Adr);
        let word = p.alloc_raw(64).unwrap();
        p.write_u64(word, 0);
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    start.wait();
                    let mut won = 0;
                    while won < PER {
                        let cur = p.read_u64(word);
                        won += u64::from(p.cas_u64(word, cur, cur + 1).unwrap().0);
                    }
                });
            }
        });
        assert_eq!(p.read_u64(word), 2 * PER, "a lost update: two swaps read one value");
        p.drain_all();

        // Each thread stages its own lines, each once, fencing as it goes.
        const LINES: u64 = 300;
        let region = p.alloc_raw(2 * LINES * 64).unwrap().next_multiple_of(64);
        let (drained0, fences0) = (p.lines_drained(), p.fence_count());
        std::thread::scope(|s| {
            for t in 0..2 {
                let (p, start) = (&p, &start);
                s.spawn(move || {
                    start.wait();
                    for l in 0..LINES - 1 {
                        p.write_u64_stage(region + (t * LINES + l) * 64, l).unwrap();
                        if l % 8 == 7 {
                            p.drain_all();
                        }
                    }
                    p.drain_all();
                });
            }
        });
        assert_eq!(p.pending_lines(), 0, "a fence left a line behind");
        assert_eq!(p.lines_drained() - drained0, 2 * (LINES - 1), "every staged line drained once");
        assert_eq!(p.fence_count() - fences0, 2 * ((LINES - 1) / 8 + 1));
    }

    #[test]
    fn tags_share_hashed_slots_without_missing_a_flush_or_wrapping() {
        let p = SharedPool::create("tags", 1 << 20, 4).unwrap();
        p.set_flush_model(FlushModel::Adr);
        let a = 4096;
        let b = (1..).map(|k| a + 8 * k).find(|b| std::ptr::eq(p.tag(a), p.tag(*b))).unwrap();
        assert!(b - a > 64, "the words of one line never share a slot");
        p.tag_word(a);
        p.tag_word(b);
        p.untag_word(a);
        assert!(p.word_tagged(b), "b's store is still in flight");
        assert!(p.word_tagged(a), "a shares b's slot: a spare flush, never a missed one");
        p.untag_word(b);
        assert!(!p.word_tagged(a) && !p.word_tagged(b));
        p.untag_word(a);
        assert_eq!(p.tag(a).load(Ordering::Relaxed), 0, "untagging an untagged word wraps nothing");
        p.tag_word(a);
        assert!(p.word_tagged(a));

        let all_clear = |p: &SharedPool| p.tags.iter().all(|t| t.load(Ordering::Relaxed) == 0);
        for w in 0..100 {
            p.tag_word(w * 8);
        }
        p.power_cycle();
        assert!(all_clear(&p), "the tag table is volatile");
        p.tag_word(a);
        p.set_flush_model(FlushModel::Eadr);
        assert!(all_clear(&p), "eADR persists every store at once");
    }

    /// One seeded script of ADR persistence calls. After each call, the
    /// pool's pending and drained line counts.
    fn run_script(p: &SharedPool, region: u64, seed: u64) -> Vec<(usize, u64)> {
        let mut x = seed;
        let mut next = |n: u64| {
            x = utpr_qc::rng::splitmix64(x);
            x % n
        };
        let mut seen = Vec::new();
        for _ in 0..400 {
            // Words over four pages, so four stripes, and page-crossing bytes.
            let off = region + next(4 * PAGE_SIZE / 8) * 8;
            match next(7) {
                0 | 1 => p.write_u64_stage(off, next(1 << 20)).unwrap(),
                2 => {
                    let cur = p.read_u64(off);
                    let expected = if next(2) == 0 { cur } else { cur ^ 1 };
                    p.cas_u64(off, expected, next(1 << 20)).unwrap();
                }
                3 => {
                    let fill = next(256);
                    let bytes: Vec<u8> = (0..next(200) + 1).map(|i| (i ^ fill) as u8).collect();
                    p.write_bytes_stage(off, &bytes).unwrap();
                }
                4 => {
                    p.flush_line(off);
                }
                5 => p.write_u64(off, next(1 << 20)),
                _ => {
                    if next(4) == 0 {
                        p.drain_all();
                    }
                }
            }
            seen.push((p.pending_lines(), p.lines_drained()));
        }
        seen
    }

    #[test]
    fn fast_and_slow_paths_stage_flush_and_tear_alike() {
        let image = |p: &SharedPool, region: u64| {
            let mut buf = vec![0u8; 5 * PAGE_SIZE as usize];
            p.read_bytes(region, &mut buf);
            buf
        };
        let mut torn = 0;
        for seed in 0..8u64 {
            let runs: Vec<_> = [FaultPlan::disabled(), FaultPlan::counting()]
                .into_iter()
                .map(|plan| {
                    let p = SharedPool::create("paths", 1 << 20, 4).unwrap();
                    p.set_flush_model(FlushModel::Adr);
                    let region = p.alloc_raw(5 * PAGE_SIZE).unwrap().next_multiple_of(PAGE_SIZE);
                    p.drain_all();
                    p.set_faults(plan);
                    let seen = run_script(&p, region, seed);
                    let before = image(&p, region);
                    p.set_faults(FaultPlan::torn_at(u64::MAX, seed));
                    p.power_cycle();
                    (seen, before, image(&p, region), p.lines_lost())
                })
                .collect();
            let (fast, slow) = (&runs[0], &runs[1]);
            assert_eq!(fast.0, slow.0, "seed {seed}: pending/drained counts diverge");
            assert!(fast.0.iter().any(|(pending, _)| *pending > 4), "seed {seed}: vacuous");
            assert_eq!(fast.1, slow.1, "seed {seed}: bytes diverge");
            assert_eq!(fast.2, slow.2, "seed {seed}: torn power-cycle images diverge");
            assert_eq!(fast.3, slow.3);
            torn += usize::from(fast.1 != fast.2);
        }
        assert!(torn > 4, "the power cycles changed nothing on {} seeds", 8 - torn);
    }

    #[test]
    fn with_no_plan_enabled_no_call_takes_the_plane_lock() {
        for model in [FlushModel::Eadr, FlushModel::Adr] {
            let p = SharedPool::create("lockfree", 1 << 20, 4).unwrap();
            p.set_flush_model(model);
            let off = p.alloc_raw(256).unwrap();
            let held = p.plane.lock().unwrap();
            let (done, finished) = std::sync::mpsc::channel();
            let q = Arc::clone(&p);
            let worker = std::thread::spawn(move || {
                q.gate().unwrap();
                q.write_u64_stage(off, 1).unwrap();
                q.write_bytes_stage(off + 8, &[7; 100]).unwrap();
                assert_eq!(q.cas_u64(off, 1, 2).unwrap(), (true, 1));
                assert_eq!(q.cas_u64(off, 1, 3).unwrap(), (false, 2));
                q.flush_line(off);
                q.tag_word(off);
                assert!(q.word_tagged(off));
                q.untag_word(off);
                q.drain_all();
                q.persist_point();
                done.send(q.flush_model()).unwrap();
            });
            let got = finished.recv_timeout(std::time::Duration::from_secs(20));
            drop(held);
            worker.join().unwrap();
            assert_eq!(got, Ok(model), "a call waited on the plane lock");
        }
    }

    #[test]
    fn loads_complete_while_every_stripe_lock_is_held() {
        let p = SharedPool::create("lockfree-loads", 1 << 20, 4).unwrap();
        let off = p.alloc_raw(4 * PAGE_SIZE).unwrap();
        p.write_u64(off, 0xfeed);
        // Bytes over three pages, so three stripes.
        let bytes: Vec<u8> = (0..2 * PAGE_SIZE + 100).map(|i| (i * 7) as u8).collect();
        p.write_bytes(off + 8, &bytes);
        let held: Vec<_> = p.stripes.iter().map(|s| s.lock().unwrap()).collect();
        let (done, finished) = std::sync::mpsc::channel();
        let q = Arc::clone(&p);
        let worker = std::thread::spawn(move || {
            let mut back = vec![0u8; bytes.len()];
            q.read_bytes(off + 8, &mut back);
            done.send((q.read_u64(off), back == bytes)).unwrap();
        });
        let got = finished.recv_timeout(std::time::Duration::from_secs(20));
        drop(held);
        worker.join().unwrap();
        assert_eq!(got, Ok((0xfeed, true)), "a load waited on a stripe lock");
    }

    #[test]
    fn loads_that_see_a_link_see_the_node_it_publishes() {
        // A writer initializes each node on a page no write has touched
        // yet, on another stripe than the link, then CASes the link to it.
        // A reader spins on the link and checks each node it names. Before
        // it lets the writer start the next node, it loads that node's
        // still unwritten slot, so a load path that remembered the page as
        // absent would then read the node's fields as zero.
        const NODES: usize = 400;
        let p = SharedPool::create("publish", 8 << 20, 4).unwrap();
        p.set_flush_model(FlushModel::Adr);
        let link = p.alloc_raw(64).unwrap();
        let region = p.alloc_raw((2 * NODES as u64 + 2) * PAGE_SIZE).unwrap();
        let nodes: Vec<u64> = (0..2 * NODES as u64)
            .map(|k| region.next_multiple_of(PAGE_SIZE) + k * PAGE_SIZE + 8 * (k % 8))
            .filter(|&n| p.stripe_index(n) != p.stripe_index(link))
            .take(NODES)
            .collect();
        let key = |n: u64| n ^ 0x5eed_0000_0000;
        let checked = AtomicU64::new(0);
        // Both sides give up after `patience`, so a failure never hangs.
        let (t, patience) = (std::time::Instant::now(), std::time::Duration::from_secs(20));
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut prev = 0;
                for (k, &n) in nodes.iter().enumerate() {
                    while checked.load(Ordering::Acquire) < k as u64 && t.elapsed() < patience {
                        std::hint::spin_loop();
                    }
                    p.write_u64_stage(n, key(n)).unwrap();
                    p.write_u64_stage(n + 8, !n).unwrap();
                    p.write_u64_stage(n + 16, prev).unwrap();
                    assert_eq!(p.cas_u64(link, prev, n).unwrap(), (true, prev));
                    prev = n;
                    if k % 64 == 63 {
                        p.drain_all();
                    }
                }
            });
            let mut last = 0;
            while last != nodes[NODES - 1] && t.elapsed() < patience {
                let n = p.read_u64(link);
                if n == last {
                    continue;
                }
                let mut fields = [0u8; 24];
                p.read_bytes(n, &mut fields);
                let word = |i: usize| u64::from_le_bytes(fields[8 * i..][..8].try_into().unwrap());
                assert_eq!((p.read_u64(n), p.read_u64(n + 8)), (key(n), !n), "node {n:#x}");
                assert_eq!((word(0), word(1), word(2)), (key(n), !n, last), "node {n:#x}, bytes");
                last = n;
                let at = nodes.binary_search(&n).expect("the link names a node") + 1;
                if let Some(&next) = nodes.get(at) {
                    p.read_u64(next);
                }
                checked.store(at as u64, Ordering::Release);
            }
        });
        assert_eq!(checked.load(Ordering::Relaxed), NODES as u64, "the reader stalled");
    }

    #[test]
    fn loads_racing_staged_stores_and_cas_see_only_whole_words() {
        // Every value written has equal halves, so a load that mixed two
        // stores would read unequal ones. The writers run until the reader
        // has seen enough of their stores land, or has run out of time.
        const CHANGES: u64 = 20_000;
        let whole = |k: u64| (k & 0xffff_ffff) << 32 | k & 0xffff_ffff;
        let p = SharedPool::create("whole", 1 << 20, 4).unwrap();
        p.set_flush_model(FlushModel::Adr);
        let word = p.alloc_raw(64).unwrap();
        p.write_u64(word, whole(1));
        let done = AtomicBool::new(false);
        let (torn, changes) = std::thread::scope(|s| {
            s.spawn(|| {
                for k in (0..).take_while(|_| !done.load(Ordering::Acquire)) {
                    p.write_u64_stage(word, whole(k | 0x8000_0000)).unwrap();
                    if k % 16 == 0 {
                        p.drain_all();
                    }
                }
            });
            s.spawn(|| {
                for k in (0..).take_while(|_| !done.load(Ordering::Acquire)) {
                    let cur = p.read_u64(word);
                    p.cas_u64(word, cur, whole(k | 0x4000_0000)).unwrap();
                }
            });
            let (mut torn, mut changes, mut last, mut bytes) = (Vec::new(), 0, 0, [0u8; 8]);
            let t = std::time::Instant::now();
            while changes < CHANGES && t.elapsed().as_secs() < 10 {
                p.read_bytes(word, &mut bytes);
                for v in [p.read_u64(word), u64::from_le_bytes(bytes)] {
                    if v >> 32 != v & 0xffff_ffff {
                        torn.push(v);
                    }
                    changes += u64::from(v != last);
                    last = v;
                }
            }
            done.store(true, Ordering::Release);
            (torn, changes)
        });
        assert!(torn.is_empty(), "{} torn loads, first {:#x}", torn.len(), torn[0]);
        assert!(changes >= CHANGES, "the reader saw only {changes} stores land");
    }
}
