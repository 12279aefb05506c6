//! Persistent memory object pools (PMOPs) and the simulated NVM device that
//! stores them.
//!
//! A pool is a named, fixed-size persistent region with its own allocator
//! (paper §II). Pools outlive processes: the [`PoolStore`] plays the role of
//! the NVM device, so pool contents survive [`crate::AddressSpace::restart`]
//! while everything in DRAM is lost. Its table doubles as the address
//! space's POTB, where adopted [`SharedPool`]s take ids too.

use crate::addr::{PoolId, VirtAddr, MAX_POOL_ID};
use crate::alloc::Region;
use crate::error::{HeapError, Result};
use crate::integrity::{IntegrityMode, PageCrcs, PoolScrub};
use crate::media::MediaPlane;
use crate::pagestore::PageStore;
use crate::shard::{Arena, SharedPool};
use std::collections::HashMap;
use std::sync::Arc;

/// Maximum pool size: intra-pool offsets must fit in 32 bits.
pub const MAX_POOL_SIZE: u64 = u32::MAX as u64 + 1;

/// A pool image as it exists on the simulated NVM device.
#[derive(Clone, Debug)]
pub struct PoolImage {
    data: PageStore,
    region: Region,
    /// The media plane over `data`: the per-page CRC sidecar, the
    /// out-of-band checksum area a controller would keep. Empty when
    /// integrity is off. No media clock: an owned pool ages only across a
    /// power-off.
    media: MediaPlane,
    /// First known-bad page while quarantined ([`PoolStore::quarantine`]).
    quarantine: Option<u64>,
}

impl PoolImage {
    /// Pool size in bytes.
    pub fn size(&self) -> u64 {
        self.region.size()
    }

    /// The pool's internal allocator handle.
    pub fn region(&self) -> Region {
        self.region
    }

    /// Immutable view of the pool's bytes.
    #[inline]
    pub fn data(&self) -> &PageStore {
        &self.data
    }

    /// Mutable view of the pool's bytes.
    #[inline]
    pub fn data_mut(&mut self) -> &mut PageStore {
        &mut self.data
    }

    /// The pool's sealed CRC sidecar.
    pub fn crcs(&self) -> &PageCrcs {
        self.media.crcs()
    }
}

/// Where a live pool's pages are.
// The image stays inline: boxing it would add a pointer chase to every
// owned-pool access.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
pub(crate) enum Backing {
    /// On this device, in an image carrying its own quarantine page.
    Owned(PoolImage),
    /// In an adopted shared pool; the arena is this space's allocation
    /// leaf over it.
    Adopted(Arc<SharedPool>, Arena),
}

/// One row of the pool table.
#[derive(Clone, Debug)]
pub(crate) struct PoolEntry {
    pub(crate) name: String,
    pub(crate) size: u64,
    /// Base virtual address while attached (an adoption always is).
    pub(crate) base: Option<VirtAddr>,
    /// `None` is a *lapsed* adoption, dropped by `detach` or `restart`:
    /// its pages live on in the shared pool, so the id stays reserved for
    /// re-adoption and id-based access answers [`HeapError::PoolDetached`].
    pub(crate) backing: Option<Backing>,
}

/// The simulated NVM device: a durable collection of pools indexed by id and
/// name.
///
/// # Examples
///
/// ```
/// use utpr_heap::pool::PoolStore;
///
/// let mut store = PoolStore::new();
/// let id = store.create("ledger", 1 << 20)?;
/// assert_eq!(store.id_of("ledger")?, id);
/// assert_eq!(store.get(id)?.size(), 1 << 20);
/// # Ok::<(), utpr_heap::HeapError>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct PoolStore {
    /// The pool table, dense by raw id: `slots[id.raw()]`. Owned and
    /// adopted pools take ids sequentially from 1, never recycled, so slot
    /// 0 is permanently empty and a destroyed pool leaves a `None` hole.
    /// Dense indexing keeps [`PoolStore::live`] — which sits under every
    /// simulated memory access — to a bounds check and a discriminant test
    /// instead of a hash probe.
    slots: Vec<Option<PoolEntry>>,
    by_name: HashMap<String, PoolId>,
    next_id: u32,
    /// Whether pools maintain CRC sidecars (default: they do).
    integrity: IntegrityMode,
}

impl PoolStore {
    /// Creates an empty device.
    pub fn new() -> Self {
        PoolStore {
            slots: Vec::new(),
            by_name: HashMap::new(),
            next_id: 1,
            integrity: IntegrityMode::default(),
        }
    }

    fn images(&self) -> impl Iterator<Item = &PoolImage> + '_ {
        self.slots.iter().flatten().filter_map(|e| match &e.backing {
            Some(Backing::Owned(img)) => Some(img),
            _ => None,
        })
    }

    fn images_mut(&mut self) -> impl Iterator<Item = &mut PoolImage> + '_ {
        self.slots.iter_mut().flatten().filter_map(|e| match &mut e.backing {
            Some(Backing::Owned(img)) => Some(img),
            _ => None,
        })
    }

    /// The device's integrity mode.
    pub fn integrity(&self) -> IntegrityMode {
        self.integrity
    }

    /// Switches integrity mode for this device and every existing pool.
    /// Turning CRC off drops all sidecars (the CRC-overhead baseline);
    /// turning it on marks everything dirty so the next seal covers it.
    pub fn set_integrity(&mut self, mode: IntegrityMode) {
        self.integrity = mode;
        let on = mode == IntegrityMode::Crc;
        for img in self.images_mut() {
            img.data.set_dirty_tracking(on);
            if !on {
                img.media = MediaPlane::default();
            }
        }
    }

    /// Files a new entry under the next sequential id.
    fn push(&mut self, name: &str, size: u64, backing: Option<Backing>) -> Result<PoolId> {
        if self.next_id > MAX_POOL_ID {
            return Err(HeapError::NoAddressSpace);
        }
        let id = PoolId::new(self.next_id);
        self.next_id += 1;
        let idx = id.raw() as usize;
        if idx >= self.slots.len() {
            self.slots.resize_with(idx + 1, || None);
        }
        self.slots[idx] = Some(PoolEntry { name: name.to_string(), size, base: None, backing });
        self.by_name.insert(name.to_string(), id);
        Ok(id)
    }

    /// Creates and formats a new pool, returning its system-wide id.
    ///
    /// # Errors
    ///
    /// - [`HeapError::PoolExists`] if the name is taken.
    /// - [`HeapError::BadPoolSize`] if `size` is zero, unaligned, or exceeds
    ///   the 32-bit offset range.
    pub fn create(&mut self, name: &str, size: u64) -> Result<PoolId> {
        if self.by_name.contains_key(name) {
            return Err(HeapError::PoolExists(name.to_string()));
        }
        if size == 0 || size > MAX_POOL_SIZE {
            return Err(HeapError::BadPoolSize(size));
        }
        let mut data = PageStore::new();
        data.set_dirty_tracking(self.integrity == IntegrityMode::Crc);
        let region = Region::format(&mut data, size)?;
        let image = PoolImage { data, region, media: MediaPlane::default(), quarantine: None };
        self.push(name, size, Some(Backing::Owned(image)))
    }

    /// The id `sp` adopts under: its own if adopted already, its name's
    /// lapsed adoption, or for a new name the next sequential id, filed as
    /// lapsed until the caller installs the adoption. The name of an owned
    /// or another adopted pool is [`HeapError::PoolExists`].
    pub(crate) fn adoption_id(&mut self, sp: &Arc<SharedPool>) -> Result<PoolId> {
        let Some(&id) = self.by_name.get(sp.name()) else {
            return self.push(sp.name(), sp.size(), None);
        };
        match &self.entry(id)?.backing {
            None => Ok(id),
            Some(Backing::Adopted(p, _)) if Arc::ptr_eq(p, sp) => Ok(id),
            Some(_) => Err(HeapError::PoolExists(sp.name().to_string())),
        }
    }

    /// Looks a pool up by name.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::NoSuchPoolName`] when absent.
    pub fn id_of(&self, name: &str) -> Result<PoolId> {
        self.by_name
            .get(name)
            .copied()
            .ok_or_else(|| HeapError::NoSuchPoolName(name.to_string()))
    }

    /// The table entry of `id` in any state; [`HeapError::NoSuchPool`] for
    /// ids never issued or destroyed.
    #[inline]
    pub(crate) fn entry(&self, id: PoolId) -> Result<&PoolEntry> {
        self.slots.get(id.raw() as usize).and_then(Option::as_ref).ok_or(HeapError::NoSuchPool(id))
    }

    /// Mutable [`PoolStore::entry`].
    #[inline]
    pub(crate) fn entry_mut(&mut self, id: PoolId) -> Result<&mut PoolEntry> {
        self.slots
            .get_mut(id.raw() as usize)
            .and_then(Option::as_mut)
            .ok_or(HeapError::NoSuchPool(id))
    }

    /// Resolves `id` to its backing for normal access, the one place the
    /// quarantine guard runs for both kinds: [`HeapError::NoSuchPool`] for
    /// ids never issued or destroyed, [`HeapError::PoolDetached`] for a
    /// lapsed adoption, [`HeapError::MediaCorruption`] while quarantined.
    /// Maintenance paths (drain, scrub, salvage, detach) use
    /// [`PoolStore::entry`] or [`PoolStore::peek`] instead.
    #[inline(always)]
    pub(crate) fn live(&self, id: PoolId) -> Result<&Backing> {
        match &self.entry(id)?.backing {
            // A healthy owned pool, the common case: one compare.
            Some(b @ Backing::Owned(PoolImage { quarantine: None, .. })) => Ok(b),
            Some(backing) => quarantine_guard(id, backing).map(|()| backing),
            None => Err(HeapError::PoolDetached(id)),
        }
    }

    /// Mutable [`PoolStore::live`], with the same errors.
    #[inline(always)]
    pub(crate) fn live_mut(&mut self, id: PoolId) -> Result<&mut Backing> {
        match &mut self.entry_mut(id)?.backing {
            Some(b @ Backing::Owned(PoolImage { quarantine: None, .. })) => Ok(b),
            Some(backing) => quarantine_guard(id, backing).map(|()| backing),
            None => Err(HeapError::PoolDetached(id)),
        }
    }

    /// Every adoption's shared pool and arena, in id order.
    pub(crate) fn adoptions(&mut self) -> impl Iterator<Item = (&SharedPool, &mut Arena)> + '_ {
        self.slots.iter_mut().flatten().filter_map(|e| match &mut e.backing {
            Some(Backing::Adopted(sp, arena)) => Some((&**sp, arena)),
            _ => None,
        })
    }

    /// Power loss: every pool loses its base and every adoption lapses.
    pub(crate) fn power_off(&mut self) {
        for e in self.slots.iter_mut().flatten() {
            e.base = None;
            if matches!(e.backing, Some(Backing::Adopted(..))) {
                e.backing = None;
            }
        }
    }

    /// Immutable access to a pool image.
    ///
    /// # Errors
    ///
    /// [`HeapError::NoSuchPool`] for unknown ids and adopted shared pools,
    /// [`HeapError::PoolDetached`] for a lapsed adoption, and
    /// [`HeapError::MediaCorruption`] while the pool is quarantined.
    #[inline]
    pub fn get(&self, id: PoolId) -> Result<&PoolImage> {
        match self.live(id)? {
            Backing::Owned(img) => Ok(img),
            Backing::Adopted(..) => Err(HeapError::NoSuchPool(id)),
        }
    }

    /// Mutable access to a pool image.
    ///
    /// # Errors
    ///
    /// Exactly those of [`PoolStore::get`].
    #[inline]
    pub fn get_mut(&mut self, id: PoolId) -> Result<&mut PoolImage> {
        match self.live_mut(id)? {
            Backing::Owned(img) => Ok(img),
            Backing::Adopted(..) => Err(HeapError::NoSuchPool(id)),
        }
    }

    /// Immutable access that bypasses quarantine — the salvage path's way
    /// in to a damaged pool.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::NoSuchPool`] unless `id` is an owned pool.
    pub fn peek(&self, id: PoolId) -> Result<&PoolImage> {
        match &self.entry(id)?.backing {
            Some(Backing::Owned(img)) => Ok(img),
            _ => Err(HeapError::NoSuchPool(id)),
        }
    }

    /// Mutable access that bypasses quarantine (salvage, fault injection).
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::NoSuchPool`] unless `id` is an owned pool.
    pub fn peek_mut(&mut self, id: PoolId) -> Result<&mut PoolImage> {
        match &mut self.entry_mut(id)?.backing {
            Some(Backing::Owned(img)) => Ok(img),
            _ => Err(HeapError::NoSuchPool(id)),
        }
    }

    // ---- integrity lifecycle ----------------------------------------------

    /// Seals pool `id`: checksums its dirty pages into the sidecar. Called
    /// at quiesce points (restart, detach). No-op when integrity is off.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::NoSuchPool`] unless `id` is an owned pool.
    pub fn seal(&mut self, id: PoolId) -> Result<()> {
        let img = self.peek_mut(id)?;
        img.media.seal(&mut img.data, false);
        Ok(())
    }

    /// Seals every pool on the device.
    pub fn seal_all(&mut self) {
        for img in self.images_mut() {
            img.media.seal(&mut img.data, false);
        }
    }

    /// Verifies pool `id`'s sealed cold pages against their checksums.
    /// Returns the corrupt pages in page order (always none with integrity
    /// off); the first one quarantines the pool.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::NoSuchPool`] unless `id` is an owned pool.
    pub fn verify(&mut self, id: PoolId) -> Result<Vec<u64>> {
        let img = self.peek_mut(id)?;
        let bad = img.media.verify(&mut img.data);
        if let Some(&page) = bad.first() {
            img.quarantine.get_or_insert(page);
        }
        Ok(bad)
    }

    /// Recomputes pool `id`'s entire sidecar from its current bytes,
    /// blessing any damage as the new sealed state. The salvage path calls
    /// this after harvesting so the pool can be released and re-attached.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::NoSuchPool`] unless `id` is an owned pool.
    pub fn reseal(&mut self, id: PoolId) -> Result<()> {
        let img = self.peek_mut(id)?;
        img.media.reseal(&mut img.data);
        Ok(())
    }

    /// Scrubs pool `id`: the media plane's patrol pass over every sealed
    /// cold page, one [`crate::integrity::PageVerdict`] each. The device
    /// has no media clock, so no page is ever refresh-due here: verdicts
    /// are `Clean` or `Quarantined`. On a mismatch the pool is quarantined
    /// and the report names the page.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::NoSuchPool`] unless `id` is an owned pool.
    /// Detected corruption is reported, not raised — scrubbing a damaged
    /// pool is exactly the point.
    pub fn scrub(&mut self, id: PoolId) -> Result<PoolScrub> {
        let img = self.peek_mut(id)?;
        let scrub = img.media.scrub(&mut img.data, usize::MAX, u64::MAX);
        if let Some(page) = scrub.corrupt_page {
            img.quarantine.get_or_insert(page);
        }
        Ok(scrub)
    }

    // ---- quarantine --------------------------------------------------------

    /// Marks owned pool `id` quarantined with `page` as the first known-bad
    /// page: [`PoolStore::get`]/[`PoolStore::get_mut`] return
    /// [`HeapError::MediaCorruption`] until [`PoolStore::release`]. A
    /// shared pool keeps its own ([`SharedPool::quarantined_page`]).
    pub fn quarantine(&mut self, id: PoolId, page: u64) {
        if let Ok(img) = self.peek_mut(id) {
            img.quarantine.get_or_insert(page);
        }
    }

    /// Whether owned pool `id` is quarantined.
    pub fn is_quarantined(&self, id: PoolId) -> bool {
        self.quarantine_info(id).is_some()
    }

    /// The first known-bad page of a quarantined owned pool.
    pub fn quarantine_info(&self, id: PoolId) -> Option<u64> {
        self.peek(id).ok()?.quarantine
    }

    /// Lifts owned pool `id`'s quarantine (after salvage + reseal).
    pub fn release(&mut self, id: PoolId) {
        if let Ok(img) = self.peek_mut(id) {
            img.quarantine = None;
        }
    }

    /// Permanently destroys an owned pool and frees its name.
    ///
    /// # Errors
    ///
    /// [`HeapError::NoSuchPool`] when the id is unknown, and
    /// [`HeapError::NotOwned`] for an adopted or lapsed shared pool.
    pub fn destroy(&mut self, id: PoolId) -> Result<()> {
        if !matches!(self.entry(id)?.backing, Some(Backing::Owned(_))) {
            return Err(HeapError::NotOwned(id));
        }
        if let Some(entry) = self.slots[id.raw() as usize].take() {
            self.by_name.remove(&entry.name);
        }
        Ok(())
    }

    /// Number of owned pools on the device.
    pub fn len(&self) -> usize {
        self.images().count()
    }

    /// Bytes actually materialized across every pool image (resident set,
    /// as opposed to the sum of declared pool sizes).
    pub fn resident_bytes(&self) -> u64 {
        self.images().map(|img| img.data.resident_bytes()).sum()
    }

    /// True when the device holds no owned pools.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The quarantine guard for both kinds of backing, out of line so a
/// healthy owned pool's path through [`PoolStore::live`] stays short.
#[inline(never)]
fn quarantine_guard(id: PoolId, backing: &Backing) -> Result<()> {
    let page = match backing {
        Backing::Owned(img) => img.quarantine,
        Backing::Adopted(sp, _) => sp.quarantined_page(),
    };
    page.map_or(Ok(()), |page| Err(HeapError::MediaCorruption { pool: id, page }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::integrity::PageVerdict;
    use crate::pagestore::PAGE_SIZE;

    #[test]
    fn create_and_lookup() {
        let mut s = PoolStore::new();
        let a = s.create("a", 1 << 16).unwrap();
        let b = s.create("b", 1 << 16).unwrap();
        assert_ne!(a, b);
        assert_eq!(s.id_of("a").unwrap(), a);
        assert_eq!(s.id_of("b").unwrap(), b);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut s = PoolStore::new();
        s.create("a", 1 << 16).unwrap();
        assert!(matches!(s.create("a", 1 << 16), Err(HeapError::PoolExists(_))));
    }

    #[test]
    fn bad_sizes_rejected() {
        let mut s = PoolStore::new();
        assert!(matches!(s.create("z", 0), Err(HeapError::BadPoolSize(0))));
        assert!(matches!(s.create("z", MAX_POOL_SIZE + 16), Err(HeapError::BadPoolSize(_))));
    }

    #[test]
    fn destroy_releases_name() {
        let mut s = PoolStore::new();
        let a = s.create("a", 1 << 16).unwrap();
        s.destroy(a).unwrap();
        assert!(s.get(a).is_err());
        // Name can be reused; the id cannot (ids are never recycled).
        let a2 = s.create("a", 1 << 16).unwrap();
        assert_ne!(a, a2);
    }

    #[test]
    fn pool_allocator_works_through_store() {
        let mut s = PoolStore::new();
        let id = s.create("p", 1 << 16).unwrap();
        let img = s.get_mut(id).unwrap();
        let region = img.region();
        let off = region.alloc(img.data_mut(), 64).unwrap();
        img.data_mut().write_u64(off, 42);
        assert_eq!(s.get(id).unwrap().data().read_u64(off), 42);
    }

    #[test]
    fn seal_then_verify_is_clean_and_catches_silent_decay() {
        let mut s = PoolStore::new();
        let id = s.create("p", 1 << 16).unwrap();
        s.get_mut(id).unwrap().data_mut().write_u64(256, 0xBEEF);
        s.seal(id).unwrap();
        assert!(s.verify(id).unwrap().is_empty());
        // A legitimate (dirty) write does not trip verification...
        s.get_mut(id).unwrap().data_mut().write_u64(264, 1);
        assert!(s.verify(id).unwrap().is_empty(), "dirty pages are exempt");
        s.seal(id).unwrap();
        // ...but a silent flip under a sealed page does, and quarantines.
        assert!(s.peek_mut(id).unwrap().data_mut().corrupt_bit(256, 0));
        assert_eq!(s.verify(id).unwrap(), vec![0]);
        assert_eq!(s.quarantine_info(id), Some(0));
    }

    #[test]
    fn scrub_quarantines_and_release_restores_access() {
        let mut s = PoolStore::new();
        let id = s.create("p", 1 << 16).unwrap();
        let ok = s.create("ok", 1 << 16).unwrap();
        s.seal_all();
        s.peek_mut(id).unwrap().data_mut().corrupt_bit(8, 3);
        let (bad, good) = (s.scrub(id).unwrap(), s.scrub(ok).unwrap());
        assert_eq!((bad.corrupt_page, good.corrupt_page), (Some(0), None));
        for (scrub, pool) in [(&bad, id), (&good, ok)] {
            assert_eq!(scrub.verdicts.len() as u64, scrub.pages_scanned, "a verdict per page");
            assert_eq!(scrub.bytes_scanned, scrub.pages_scanned * PAGE_SIZE);
            for &(page, v) in &scrub.verdicts {
                let flipped = (pool, page) == (id, 0);
                let want = if flipped { PageVerdict::Quarantined } else { PageVerdict::Clean };
                assert_eq!(v, want, "exactly the flipped page is condemned: {:?}", scrub.verdicts);
            }
        }
        assert!(bad.pages_scanned + good.pages_scanned >= 2);
        assert!(s.is_quarantined(id));
        assert!(!s.is_quarantined(ok));
        assert!(matches!(s.get(id), Err(HeapError::MediaCorruption { page: 0, .. })));
        assert!(matches!(s.get_mut(id), Err(HeapError::MediaCorruption { .. })));
        assert!(s.get(ok).is_ok(), "healthy pools stay accessible");
        // Salvage path: peek works, reseal blesses the damage, release.
        assert!(s.peek(id).is_ok());
        s.reseal(id).unwrap();
        s.release(id);
        assert!(s.get(id).is_ok());
        assert!(s.scrub(id).unwrap().corrupt_page.is_none(), "resealed state is clean");
    }

    #[test]
    fn integrity_off_skips_sidecars_entirely() {
        let mut s = PoolStore::new();
        s.set_integrity(IntegrityMode::Off);
        let id = s.create("p", 1 << 16).unwrap();
        s.get_mut(id).unwrap().data_mut().write_u64(128, 5);
        s.seal_all();
        assert!(s.peek(id).unwrap().crcs().is_empty());
        s.peek_mut(id).unwrap().data_mut().corrupt_bit(128, 1);
        assert!(s.verify(id).unwrap().is_empty(), "decay is silent without CRC");
        // Turning integrity back on re-arms tracking for existing pools.
        s.set_integrity(IntegrityMode::Crc);
        s.seal(id).unwrap();
        assert!(!s.peek(id).unwrap().crcs().is_empty());
        assert!(s.verify(id).unwrap().is_empty());
    }
}
