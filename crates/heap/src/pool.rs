//! Persistent memory object pools (PMOPs) and the simulated NVM device that
//! stores them.
//!
//! A pool is a named, fixed-size persistent region with its own allocator
//! (paper §II). Pools outlive processes: the [`PoolStore`] plays the role of
//! the NVM device, so pool contents survive [`crate::AddressSpace::restart`]
//! while everything in DRAM is lost.

use crate::addr::{PoolId, MAX_POOL_ID};
use crate::alloc::Region;
use crate::error::{HeapError, Result};
use crate::integrity::{IntegrityMode, PageCrcs, PoolScrub};
use crate::media::MediaPlane;
use crate::pagestore::PageStore;
use std::collections::{BTreeMap, HashMap, HashSet};

/// Maximum pool size: intra-pool offsets must fit in 32 bits.
pub const MAX_POOL_SIZE: u64 = u32::MAX as u64 + 1;

/// A pool image as it exists on the simulated NVM device.
#[derive(Clone, Debug)]
pub struct PoolImage {
    name: String,
    size: u64,
    data: PageStore,
    region: Region,
    /// The media plane over `data`: the per-page CRC sidecar, the
    /// out-of-band checksum area a controller would keep. Empty when
    /// integrity is off. No media clock: an owned pool ages only across a
    /// power-off.
    media: MediaPlane,
}

impl PoolImage {
    /// Pool name (unique within a [`PoolStore`]).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Pool size in bytes.
    pub fn size(&self) -> u64 {
        self.size
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
/// assert_eq!(store.get(id)?.name(), "ledger");
/// # Ok::<(), utpr_heap::HeapError>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct PoolStore {
    /// Pool images, dense by raw id: `slots[id.raw()]`. Ids are handed out
    /// sequentially from 1 and never recycled, so slot 0 is permanently
    /// empty and a destroyed pool leaves a `None` hole. Dense indexing
    /// keeps [`PoolStore::get`] — which sits under every simulated memory
    /// access — to a bounds check and a discriminant test instead of a
    /// hash probe.
    slots: Vec<Option<PoolImage>>,
    by_name: HashMap<String, PoolId>,
    next_id: u32,
    /// Whether pools maintain CRC sidecars (default: they do).
    integrity: IntegrityMode,
    /// Pools with detected media corruption → first bad page. Normal
    /// access errors until [`PoolStore::release`]; ordered so diagnostics
    /// enumerate deterministically.
    quarantined: BTreeMap<PoolId, u64>,
    /// Ids reserved for adopted shared pools ([`PoolStore::reserve`]):
    /// their slots are permanently empty here, but translation must report
    /// them as *detached*, not unknown, once the adoption lapses.
    reserved: HashSet<u32>,
}

impl PoolStore {
    /// Creates an empty device.
    pub fn new() -> Self {
        PoolStore {
            slots: Vec::new(),
            by_name: HashMap::new(),
            next_id: 1,
            integrity: IntegrityMode::default(),
            quarantined: BTreeMap::new(),
            reserved: HashSet::new(),
        }
    }

    /// Live `(id, image)` pairs in id order.
    fn entries(&self) -> impl Iterator<Item = (PoolId, &PoolImage)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|img| (PoolId::new(i as u32), img)))
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
        for img in self.slots.iter_mut().flatten() {
            img.data.set_dirty_tracking(on);
            if !on {
                img.media = MediaPlane::default();
            }
        }
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
        if self.next_id > MAX_POOL_ID {
            return Err(HeapError::NoAddressSpace);
        }
        let mut data = PageStore::new();
        data.set_dirty_tracking(self.integrity == IntegrityMode::Crc);
        let region = Region::format(&mut data, size)?;
        let id = PoolId::new(self.next_id);
        self.next_id += 1;
        let idx = id.raw() as usize;
        if idx >= self.slots.len() {
            self.slots.resize_with(idx + 1, || None);
        }
        let media = MediaPlane::default();
        self.slots[idx] = Some(PoolImage { name: name.to_string(), size, data, region, media });
        self.by_name.insert(name.to_string(), id);
        Ok(id)
    }

    /// Reserves a pool id for `name` *without* creating an image: the slot
    /// stays empty, so [`PoolStore::get`] and friends keep reporting
    /// [`HeapError::NoSuchPool`] for it. This is how an address space
    /// adopts a [`crate::shard::SharedPool`] — the shared pool owns its own
    /// pages, but its id must come from the same sequential namespace so
    /// the dense sPOLB array and the registry stay compact.
    ///
    /// Re-reserving an already-reserved name returns the same id (a shard
    /// re-adopting after a restart keeps its id stable).
    ///
    /// # Errors
    ///
    /// - [`HeapError::PoolExists`] if the name belongs to a *materialised*
    ///   pool.
    /// - [`HeapError::NoAddressSpace`] when the id space is exhausted.
    pub fn reserve(&mut self, name: &str) -> Result<PoolId> {
        if let Some(&id) = self.by_name.get(name) {
            let occupied =
                self.slots.get(id.raw() as usize).map_or(false, Option::is_some);
            if occupied {
                return Err(HeapError::PoolExists(name.to_string()));
            }
            return Ok(id);
        }
        if self.next_id > MAX_POOL_ID {
            return Err(HeapError::NoAddressSpace);
        }
        let id = PoolId::new(self.next_id);
        self.next_id += 1;
        let idx = id.raw() as usize;
        if idx >= self.slots.len() {
            self.slots.resize_with(idx + 1, || None);
        }
        self.by_name.insert(name.to_string(), id);
        self.reserved.insert(id.raw());
        Ok(id)
    }

    /// Whether `id` is a reserved (shared-pool) id with no image behind it.
    pub fn is_reserved(&self, id: PoolId) -> bool {
        !self.reserved.is_empty() && self.reserved.contains(&id.raw())
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

    #[inline]
    fn quarantine_guard(&self, id: PoolId) -> Result<()> {
        // One branch on the empty map in the common case; the lookup only
        // happens while some pool somewhere is quarantined.
        if !self.quarantined.is_empty() {
            if let Some(&page) = self.quarantined.get(&id) {
                return Err(HeapError::MediaCorruption { pool: id, page });
            }
        }
        Ok(())
    }

    /// Immutable access to a pool image.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::NoSuchPool`] when the id is unknown and
    /// [`HeapError::MediaCorruption`] when the pool is quarantined.
    #[inline]
    pub fn get(&self, id: PoolId) -> Result<&PoolImage> {
        self.quarantine_guard(id)?;
        match self.slots.get(id.raw() as usize) {
            Some(Some(img)) => Ok(img),
            _ => Err(HeapError::NoSuchPool(id)),
        }
    }

    /// Mutable access to a pool image.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::NoSuchPool`] when the id is unknown and
    /// [`HeapError::MediaCorruption`] when the pool is quarantined.
    #[inline]
    pub fn get_mut(&mut self, id: PoolId) -> Result<&mut PoolImage> {
        self.quarantine_guard(id)?;
        match self.slots.get_mut(id.raw() as usize) {
            Some(Some(img)) => Ok(img),
            _ => Err(HeapError::NoSuchPool(id)),
        }
    }

    /// Immutable access that bypasses quarantine — the salvage path's way
    /// in to a damaged pool.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::NoSuchPool`] when the id is unknown.
    pub fn peek(&self, id: PoolId) -> Result<&PoolImage> {
        match self.slots.get(id.raw() as usize) {
            Some(Some(img)) => Ok(img),
            _ => Err(HeapError::NoSuchPool(id)),
        }
    }

    /// Mutable access that bypasses quarantine (salvage, fault injection).
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::NoSuchPool`] when the id is unknown.
    pub fn peek_mut(&mut self, id: PoolId) -> Result<&mut PoolImage> {
        match self.slots.get_mut(id.raw() as usize) {
            Some(Some(img)) => Ok(img),
            _ => Err(HeapError::NoSuchPool(id)),
        }
    }

    // ---- integrity lifecycle ----------------------------------------------

    /// Seals pool `id`: checksums its dirty pages into the sidecar. Called
    /// at quiesce points (restart, detach). No-op when integrity is off.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::NoSuchPool`] when the id is unknown.
    pub fn seal(&mut self, id: PoolId) -> Result<()> {
        let img = self.peek_mut(id)?;
        img.media.seal(&mut img.data, false);
        Ok(())
    }

    /// Seals every pool on the device.
    pub fn seal_all(&mut self) {
        for img in self.slots.iter_mut().flatten() {
            img.media.seal(&mut img.data, false);
        }
    }

    /// Verifies pool `id`'s sealed cold pages against their checksums.
    /// Returns the corrupt pages in page order (always none with integrity
    /// off); the first one quarantines the pool.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::NoSuchPool`] when the id is unknown.
    pub fn verify(&mut self, id: PoolId) -> Result<Vec<u64>> {
        let img = self.peek_mut(id)?;
        let bad = img.media.verify(&mut img.data);
        if let Some(&page) = bad.first() {
            self.quarantine(id, page);
        }
        Ok(bad)
    }

    /// Recomputes pool `id`'s entire sidecar from its current bytes,
    /// blessing any damage as the new sealed state. The salvage path calls
    /// this after harvesting so the pool can be released and re-attached.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::NoSuchPool`] when the id is unknown.
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
    /// Returns [`HeapError::NoSuchPool`] when the id is unknown. Detected
    /// corruption is reported, not raised — scrubbing a damaged pool is
    /// exactly the point.
    pub fn scrub(&mut self, id: PoolId) -> Result<PoolScrub> {
        let img = self.peek_mut(id)?;
        let scrub = img.media.scrub(&mut img.data, usize::MAX, u64::MAX);
        if let Some(page) = scrub.corrupt_page {
            self.quarantine(id, page);
        }
        Ok(scrub)
    }

    // ---- quarantine --------------------------------------------------------

    /// Marks pool `id` quarantined with `page` as the first known-bad page:
    /// [`PoolStore::get`]/[`PoolStore::get_mut`] return
    /// [`HeapError::MediaCorruption`] until [`PoolStore::release`].
    pub fn quarantine(&mut self, id: PoolId, page: u64) {
        self.quarantined.entry(id).or_insert(page);
    }

    /// Whether pool `id` is quarantined.
    pub fn is_quarantined(&self, id: PoolId) -> bool {
        self.quarantined.contains_key(&id)
    }

    /// The first known-bad page of a quarantined pool.
    pub fn quarantine_info(&self, id: PoolId) -> Option<u64> {
        self.quarantined.get(&id).copied()
    }

    /// Lifts pool `id`'s quarantine (after salvage + reseal).
    pub fn release(&mut self, id: PoolId) {
        self.quarantined.remove(&id);
    }

    /// Permanently destroys a pool and frees its name.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::NoSuchPool`] when the id is unknown.
    pub fn destroy(&mut self, id: PoolId) -> Result<()> {
        let image = self
            .slots
            .get_mut(id.raw() as usize)
            .and_then(Option::take)
            .ok_or(HeapError::NoSuchPool(id))?;
        self.by_name.remove(&image.name);
        self.quarantined.remove(&id);
        Ok(())
    }

    /// Iterates over `(id, name, size)` of every pool on the device, in
    /// id order.
    pub fn iter(&self) -> impl Iterator<Item = (PoolId, &str, u64)> + '_ {
        self.entries().map(|(id, img)| (id, img.name.as_str(), img.size))
    }

    /// Number of pools on the device.
    pub fn len(&self) -> usize {
        self.slots.iter().flatten().count()
    }

    /// Bytes actually materialized across every pool image (resident set,
    /// as opposed to the sum of declared pool sizes).
    pub fn resident_bytes(&self) -> u64 {
        self.slots.iter().flatten().map(|img| img.data.resident_bytes()).sum()
    }

    /// True when the device holds no pools.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
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
        assert_eq!(s.get(b).unwrap().name(), "b");
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut s = PoolStore::new();
        s.create("a", 1 << 16).unwrap();
        assert!(matches!(s.create("a", 1 << 16), Err(HeapError::PoolExists(_))));
    }

    #[test]
    fn reserve_hands_out_stable_empty_ids() {
        let mut s = PoolStore::new();
        let a = s.create("a", 1 << 16).unwrap();
        let r = s.reserve("shared").unwrap();
        assert_ne!(a, r, "reserved ids come from the same sequential namespace");
        assert!(matches!(s.get(r), Err(HeapError::NoSuchPool(_))), "no image behind it");
        assert_eq!(s.reserve("shared").unwrap(), r, "re-reserving is idempotent");
        assert_eq!(s.id_of("shared").unwrap(), r);
        assert!(matches!(s.reserve("a"), Err(HeapError::PoolExists(_))));
        assert!(matches!(s.create("shared", 1 << 16), Err(HeapError::PoolExists(_))));
        // The next real pool skips past the reserved id.
        let b = s.create("b", 1 << 16).unwrap();
        assert!(b.raw() > r.raw());
        assert_eq!(s.len(), 2, "reserved slots are not materialised pools");
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
