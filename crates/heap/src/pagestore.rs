//! Sparse byte storage backing simulated memory.
//!
//! Both the DRAM half of the address space and each owned persistent pool
//! are backed by a [`PageStore`]: a sparse map from page number to a
//! fixed-size page of bytes. (A `SharedPool` keeps its pages in a
//! pool-wide table of atomic words that loads read without a lock,
//! `shard/pages.rs`.) Pages materialize on first write, so a multi-gigabyte
//! region costs memory proportional to the bytes actually touched.
//!
//! This sits on the hottest path of the whole tree — every simulated load
//! and store of every benchmark run funnels through it — so finding a page
//! is what a hardware page walk would be, a table index, not a hash-map
//! probe. Pages live in a slab arena (`Vec<Box<[u8; 4096]>>`, a thin
//! pointer per page) and a private page table maps page number to slab
//! slot: open addressing over a power-of-two array, Fibonacci hashing (one
//! multiply, top bits pick the home entry), linear probing, load factor at
//! most ½ and no deletion. A lookup is one multiply and, almost always,
//! one load. The hash has no defence against crafted collisions and needs
//! none: page numbers come from this program's own allocators and address
//! layout, never from outside input (a served key picks a tree node, not
//! a page).
//!
//! The same table serves both kinds of store with memory proportional to
//! the *resident* pages, whatever their page numbers: a pool's pages are
//! dense from 0, and the DRAM half is keyed by raw VA anywhere below 2^47.
//! (A flat array indexed by page number would be as long as the range:
//! the DRAM half spans 2^47 bytes, and a pool's boundary-tag footer sits
//! at its far end.)
//!
//! In front of the table a one-entry last-page memo lets consecutive
//! accesses to the same page (a node's fields, the allocator header, a
//! stack frame) skip even the multiply. `read_u64`/`write_u64`
//! additionally take an in-page fast path that avoids the generic
//! multi-page copy loop whenever the word does not straddle a page
//! boundary.

use std::cell::Cell;

/// Size of a backing page in bytes.
pub const PAGE_SIZE: u64 = 4096;

const PAGE_BYTES: usize = PAGE_SIZE as usize;

/// One materialized page.
type Page = Box<[u8; PAGE_BYTES]>;

/// Sentinel page number: marks a free page-table entry and an invalid
/// last-page memo. No reachable access maps to it: offsets near
/// `u64::MAX` would need a page number of `u64::MAX / PAGE_SIZE`, far
/// below this.
const NO_PAGE: u64 = u64::MAX;

/// 2^64 / φ: the Fibonacci-hashing multiplier. Consecutive and strided
/// page numbers land evenly spread across the table's top bits.
const FIB: u64 = 0x9e37_79b9_7f4a_7c15;

/// log2 of the smallest page table, in entries.
const MIN_TABLE_BITS: u32 = 3;

/// Page number -> slab slot. Open addressing with linear probing over a
/// power-of-two array, at most half full, so every probe run ends at a
/// free entry. Entries are never removed (slots are never freed
/// individually), so there are no tombstones. At most four entries —
/// 64 bytes — per resident page.
#[derive(Clone, Debug)]
struct PageTable {
    /// `(page_no, slot)`; `page_no == NO_PAGE` marks a free entry.
    entries: Vec<(u64, u32)>,
    /// `64 - log2(entries.len())`: the multiply's top bits are the home.
    shift: u32,
    /// Occupied entries.
    len: usize,
}

impl PageTable {
    fn with_bits(bits: u32) -> Self {
        PageTable {
            entries: vec![(NO_PAGE, 0); 1 << bits],
            shift: 64 - bits,
            len: 0,
        }
    }

    #[inline]
    fn home(&self, page_no: u64) -> usize {
        (page_no.wrapping_mul(FIB) >> self.shift) as usize
    }

    /// The slot holding `page_no`, if it was ever materialized.
    #[inline]
    fn get(&self, page_no: u64) -> Option<u32> {
        let mask = self.entries.len() - 1;
        let mut i = self.home(page_no);
        loop {
            let (p, slot) = self.entries[i];
            if p == page_no {
                return Some(slot);
            }
            if p == NO_PAGE {
                return None;
            }
            i = (i + 1) & mask;
        }
    }

    /// Records `page_no -> slot`; `page_no` must be absent. Doubles the
    /// table first when this entry would make it more than half full.
    fn insert(&mut self, page_no: u64, slot: u32) {
        if 2 * (self.len + 1) > self.entries.len() {
            let mut grown = PageTable::with_bits(65 - self.shift);
            for &(p, s) in self.entries.iter().filter(|e| e.0 != NO_PAGE) {
                grown.insert(p, s);
            }
            *self = grown;
        }
        let mask = self.entries.len() - 1;
        let mut i = self.home(page_no);
        while self.entries[i].0 != NO_PAGE {
            i = (i + 1) & mask;
        }
        self.entries[i] = (page_no, slot);
        self.len += 1;
    }
}

/// Sparse, zero-initialized byte storage indexed by absolute offsets.
///
/// Reads of never-written bytes return zero, mirroring zero-filled demand
/// paging.
///
/// # Examples
///
/// ```
/// use utpr_heap::pagestore::PageStore;
///
/// let mut s = PageStore::new();
/// s.write_u64(40, 0xdead_beef);
/// assert_eq!(s.read_u64(40), 0xdead_beef);
/// assert_eq!(s.read_u64(4096 * 10), 0);
/// ```
#[derive(Clone, Debug)]
pub struct PageStore {
    /// Page number -> slot in `slabs`. Probed once per page, and only when
    /// the memo misses.
    table: PageTable,
    /// The materialized pages. Slots are never freed individually (only
    /// `clear` drops them), so memoized slot numbers stay valid.
    slabs: Vec<Page>,
    /// Slot -> page number, the reverse of `table` (kept so dirty-page and
    /// resident-page enumeration never walks the table).
    slot_pages: Vec<u64>,
    /// Per-slot dirty bitmap, maintained only while `track_dirty` is set.
    /// Slot `s` lives at bit `s % 64` of word `s / 64`.
    dirty: Vec<u64>,
    /// Whether writes mark their page dirty (the integrity layer's hook:
    /// one predictable branch on the write path when off).
    track_dirty: bool,
    /// Last page touched: `(page_no, slot)`. A `Cell` so read paths can
    /// refresh it through `&self`; the store stays `Send` (each simulated
    /// machine owns its memory privately) but is intentionally not `Sync`.
    last: Cell<(u64, u32)>,
}

impl Default for PageStore {
    fn default() -> Self {
        Self::new()
    }
}

impl PageStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        PageStore {
            table: PageTable::with_bits(MIN_TABLE_BITS),
            slabs: Vec::new(),
            slot_pages: Vec::new(),
            dirty: Vec::new(),
            track_dirty: false,
            last: Cell::new((NO_PAGE, 0)),
        }
    }

    /// Number of materialized pages (resident set, in pages).
    pub fn resident_pages(&self) -> usize {
        self.slabs.len()
    }

    /// Resident bytes actually held by the store.
    pub fn resident_bytes(&self) -> u64 {
        self.slabs.len() as u64 * PAGE_SIZE
    }

    /// Drops every page, returning the store to all-zero contents.
    pub fn clear(&mut self) {
        self.table = PageTable::with_bits(MIN_TABLE_BITS);
        self.slabs.clear();
        self.slot_pages.clear();
        self.dirty.clear();
        self.last.set((NO_PAGE, 0));
    }

    // ---- integrity hooks ---------------------------------------------------

    /// Turns dirty-page tracking on or off. Enabling conservatively marks
    /// every already-resident page dirty (their checksums are unknown).
    pub fn set_dirty_tracking(&mut self, on: bool) {
        self.track_dirty = on;
        if on {
            self.dirty.clear();
            self.dirty.resize(self.slabs.len().div_ceil(64), !0u64);
        } else {
            self.dirty.clear();
        }
    }

    /// Whether writes currently mark their page dirty.
    pub fn dirty_tracking(&self) -> bool {
        self.track_dirty
    }

    #[inline]
    fn mark_dirty(&mut self, slot: u32) {
        if self.track_dirty {
            let word = slot as usize / 64;
            if word >= self.dirty.len() {
                self.dirty.resize(word + 1, 0);
            }
            self.dirty[word] |= 1u64 << (slot % 64);
        }
    }

    /// Page numbers written since the last [`PageStore::clear_dirty`],
    /// sorted. Empty when tracking is off.
    pub fn dirty_pages(&self) -> Vec<u64> {
        let mut pages: Vec<u64> = self
            .dirty
            .iter()
            .enumerate()
            .flat_map(|(w, bits)| {
                let mut bits = *bits;
                std::iter::from_fn(move || {
                    if bits == 0 {
                        return None;
                    }
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(w * 64 + b)
                })
            })
            .filter_map(|slot| self.slot_pages.get(slot).copied())
            .collect();
        pages.sort_unstable();
        pages
    }

    /// Forgets all dirty marks (after the pages were checksummed).
    pub fn clear_dirty(&mut self) {
        for w in &mut self.dirty {
            *w = 0;
        }
    }

    /// Whether `page_no` is currently marked dirty. Always `false` when
    /// tracking is off or the page was never materialized.
    pub fn is_dirty(&self, page_no: u64) -> bool {
        let (last_no, last_slot) = self.last.get();
        let slot = if last_no == page_no {
            last_slot
        } else {
            match self.table.get(page_no) {
                Some(s) => s,
                None => return false,
            }
        };
        self.dirty
            .get(slot as usize / 64)
            .map_or(false, |w| w & (1u64 << (slot % 64)) != 0)
    }

    /// Forgets the dirty mark of just `page_no` (after that one page was
    /// resealed — the incremental counterpart of [`PageStore::clear_dirty`]).
    pub fn clear_dirty_page(&mut self, page_no: u64) {
        if let Some(slot) = self.table.get(page_no) {
            if let Some(w) = self.dirty.get_mut(slot as usize / 64) {
                *w &= !(1u64 << (slot % 64));
            }
        }
    }

    /// Every materialized page number, sorted.
    pub fn resident_page_numbers(&self) -> Vec<u64> {
        let mut pages = self.slot_pages.clone();
        pages.sort_unstable();
        pages
    }

    /// The raw bytes of page `page_no`, or `None` if never written.
    pub fn page_bytes(&self, page_no: u64) -> Option<&[u8]> {
        self.page(page_no).map(|p| &p[..])
    }

    /// Flips bit `bit` of the byte at `offset` — *without* marking the page
    /// dirty, so the integrity layer's sealed checksum goes stale, exactly
    /// as silent media decay would leave it. Returns `false` (no flip) when
    /// the page was never materialized.
    pub fn corrupt_bit(&mut self, offset: u64, bit: u8) -> bool {
        let Some(slot) = self.table.get(offset / PAGE_SIZE) else {
            return false;
        };
        self.slabs[slot as usize][(offset % PAGE_SIZE) as usize] ^= 1 << (bit % 8);
        true
    }

    /// The page backing `page_no`, or `None` if it was never written.
    /// Refreshes the last-page memo on an index hit.
    #[inline]
    fn page(&self, page_no: u64) -> Option<&[u8; PAGE_BYTES]> {
        let (last_no, last_slot) = self.last.get();
        if last_no == page_no {
            return Some(&self.slabs[last_slot as usize]);
        }
        let slot = self.table.get(page_no)?;
        self.last.set((page_no, slot));
        Some(&self.slabs[slot as usize])
    }

    /// The page backing `page_no`, materializing it zero-filled if absent.
    /// Every caller is a write path, so the page is marked dirty here.
    #[inline]
    fn page_mut(&mut self, page_no: u64) -> &mut [u8; PAGE_BYTES] {
        let (last_no, last_slot) = self.last.get();
        if last_no == page_no {
            self.mark_dirty(last_slot);
            return &mut self.slabs[last_slot as usize];
        }
        let slot = match self.table.get(page_no) {
            Some(slot) => slot,
            None => self.materialize(page_no),
        };
        self.last.set((page_no, slot));
        self.mark_dirty(slot);
        &mut self.slabs[slot as usize]
    }

    /// Appends a zero-filled page for `page_no` (absent) and returns its
    /// slot. Out of line: a page is materialized once and read many times.
    #[inline(never)]
    fn materialize(&mut self, page_no: u64) -> u32 {
        let slot = u32::try_from(self.slabs.len()).expect("page count fits in u32");
        let page: Page = vec![0u8; PAGE_BYTES]
            .into_boxed_slice()
            .try_into()
            .expect("PAGE_BYTES-long slice");
        self.slabs.push(page);
        self.slot_pages.push(page_no);
        self.table.insert(page_no, slot);
        slot
    }

    /// Reads `buf.len()` bytes starting at `offset`.
    pub fn read(&self, offset: u64, buf: &mut [u8]) {
        let mut done = 0usize;
        while done < buf.len() {
            let pos = offset + done as u64;
            let page_no = pos / PAGE_SIZE;
            let in_page = (pos % PAGE_SIZE) as usize;
            let take = ((PAGE_SIZE as usize) - in_page).min(buf.len() - done);
            match self.page(page_no) {
                Some(p) => buf[done..done + take].copy_from_slice(&p[in_page..in_page + take]),
                None => buf[done..done + take].fill(0),
            }
            done += take;
        }
    }

    /// Writes `buf` starting at `offset`, materializing pages as needed.
    pub fn write(&mut self, offset: u64, buf: &[u8]) {
        let mut done = 0usize;
        while done < buf.len() {
            let pos = offset + done as u64;
            let page_no = pos / PAGE_SIZE;
            let in_page = (pos % PAGE_SIZE) as usize;
            let take = ((PAGE_SIZE as usize) - in_page).min(buf.len() - done);
            let page = self.page_mut(page_no);
            page[in_page..in_page + take].copy_from_slice(&buf[done..done + take]);
            done += take;
        }
    }

    /// Reads a little-endian `u64` at `offset`.
    #[inline]
    pub fn read_u64(&self, offset: u64) -> u64 {
        let in_page = (offset % PAGE_SIZE) as usize;
        if in_page + 8 <= PAGE_SIZE as usize {
            return match self.page(offset / PAGE_SIZE) {
                Some(p) => u64::from_le_bytes(p[in_page..in_page + 8].try_into().unwrap()),
                None => 0,
            };
        }
        let mut b = [0u8; 8];
        self.read(offset, &mut b);
        u64::from_le_bytes(b)
    }

    /// Writes a little-endian `u64` at `offset`.
    #[inline]
    pub fn write_u64(&mut self, offset: u64, value: u64) {
        let in_page = (offset % PAGE_SIZE) as usize;
        if in_page + 8 <= PAGE_SIZE as usize {
            let page = self.page_mut(offset / PAGE_SIZE);
            page[in_page..in_page + 8].copy_from_slice(&value.to_le_bytes());
            return;
        }
        self.write(offset, &value.to_le_bytes());
    }

    /// Reads a little-endian `u32` at `offset`.
    #[inline]
    pub fn read_u32(&self, offset: u64) -> u32 {
        let in_page = (offset % PAGE_SIZE) as usize;
        if in_page + 4 <= PAGE_SIZE as usize {
            return match self.page(offset / PAGE_SIZE) {
                Some(p) => u32::from_le_bytes(p[in_page..in_page + 4].try_into().unwrap()),
                None => 0,
            };
        }
        let mut b = [0u8; 4];
        self.read(offset, &mut b);
        u32::from_le_bytes(b)
    }

    /// Writes a little-endian `u32` at `offset`.
    #[inline]
    pub fn write_u32(&mut self, offset: u64, value: u32) {
        let in_page = (offset % PAGE_SIZE) as usize;
        if in_page + 4 <= PAGE_SIZE as usize {
            let page = self.page_mut(offset / PAGE_SIZE);
            page[in_page..in_page + 4].copy_from_slice(&value.to_le_bytes());
            return;
        }
        self.write(offset, &value.to_le_bytes());
    }

    /// Reads one byte at `offset`.
    #[inline]
    pub fn read_u8(&self, offset: u64) -> u8 {
        match self.page(offset / PAGE_SIZE) {
            Some(p) => p[(offset % PAGE_SIZE) as usize],
            None => 0,
        }
    }

    /// Writes one byte at `offset`.
    #[inline]
    pub fn write_u8(&mut self, offset: u64, value: u8) {
        self.page_mut(offset / PAGE_SIZE)[(offset % PAGE_SIZE) as usize] = value;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_memory_reads_zero() {
        let s = PageStore::new();
        assert_eq!(s.read_u64(0), 0);
        assert_eq!(s.read_u64(123_456_789), 0);
        assert_eq!(s.resident_pages(), 0);
    }

    #[test]
    fn round_trips_across_page_boundary() {
        let mut s = PageStore::new();
        let off = PAGE_SIZE - 3;
        let data = [1u8, 2, 3, 4, 5, 6, 7, 8];
        s.write(off, &data);
        let mut back = [0u8; 8];
        s.read(off, &mut back);
        assert_eq!(back, data);
        assert_eq!(s.resident_pages(), 2);
    }

    #[test]
    fn u64_round_trip_is_little_endian() {
        let mut s = PageStore::new();
        s.write_u64(16, 0x0102_0304_0506_0708);
        assert_eq!(s.read_u8(16), 0x08);
        assert_eq!(s.read_u8(23), 0x01);
        assert_eq!(s.read_u64(16), 0x0102_0304_0506_0708);
    }

    #[test]
    fn u64_straddling_a_page_boundary_round_trips() {
        let mut s = PageStore::new();
        for delta in 1..8 {
            let off = PAGE_SIZE * 7 - delta;
            let v = 0xfeed_f00d_dead_beef_u64.rotate_left(delta as u32);
            s.write_u64(off, v);
            assert_eq!(s.read_u64(off), v, "straddle at -{delta}");
        }
    }

    #[test]
    fn u32_and_u8_accessors() {
        let mut s = PageStore::new();
        s.write_u32(4, 0xaabb_ccdd);
        assert_eq!(s.read_u32(4), 0xaabb_ccdd);
        s.write_u8(4, 0x11);
        assert_eq!(s.read_u32(4), 0xaabb_cc11);
    }

    #[test]
    fn clear_releases_pages() {
        let mut s = PageStore::new();
        s.write_u64(0, 1);
        s.write_u64(PAGE_SIZE * 5, 2);
        assert_eq!(s.resident_pages(), 2);
        s.clear();
        assert_eq!(s.resident_pages(), 0);
        assert_eq!(s.read_u64(0), 0);
        // Memo must not resurrect dropped pages: re-write after clear.
        s.write_u64(0, 9);
        assert_eq!(s.read_u64(0), 9);
        assert_eq!(s.resident_pages(), 1);
    }

    #[test]
    fn overlapping_writes_last_wins() {
        let mut s = PageStore::new();
        s.write(10, &[0xff; 16]);
        s.write(14, &[0x00; 4]);
        let mut b = [0u8; 16];
        s.read(10, &mut b);
        assert_eq!(&b[0..4], &[0xff; 4]);
        assert_eq!(&b[4..8], &[0x00; 4]);
        assert_eq!(&b[8..16], &[0xff; 8]);
    }

    #[test]
    fn memo_survives_interleaved_pages_and_clones() {
        let mut s = PageStore::new();
        s.write_u64(0, 1);
        s.write_u64(PAGE_SIZE * 3, 2);
        // Alternate to force memo replacement both directions.
        for _ in 0..4 {
            assert_eq!(s.read_u64(0), 1);
            assert_eq!(s.read_u64(PAGE_SIZE * 3), 2);
        }
        let c = s.clone();
        assert_eq!(c.read_u64(0), 1);
        assert_eq!(c.read_u64(PAGE_SIZE * 3), 2);
    }

    #[test]
    fn page_table_memory_is_bounded_by_resident_pages() {
        // Pool-like, stripe-like and far-DRAM page numbers alike.
        let top = (1u64 << 47) / PAGE_SIZE;
        for (first, stride) in [(0, 1), (5, 64), (1 << 32, 1), (top - 3_000, 1)] {
            let mut s = PageStore::new();
            for i in 0..3_000u64 {
                s.write_u64((first + i * stride) * PAGE_SIZE, i + 1);
                let entries = s.table.entries.len();
                assert!(entries <= 4 * s.resident_pages().max(2), "{entries} entries");
            }
            for i in 0..3_000u64 {
                assert_eq!(s.read_u64((first + i * stride) * PAGE_SIZE), i + 1);
            }
            assert_eq!(s.read_u64((first + 3_000 * stride) * PAGE_SIZE), 0);
        }
    }

    #[test]
    fn store_is_send() {
        fn assert_send<T: Send + 'static>() {}
        assert_send::<PageStore>();
    }

    #[test]
    fn dirty_tracking_marks_both_memo_paths_and_clears() {
        let mut s = PageStore::new();
        s.write_u64(0, 1); // resident before tracking starts
        s.set_dirty_tracking(true);
        assert_eq!(s.dirty_pages(), vec![0], "pre-existing pages start dirty");
        s.clear_dirty();
        assert!(s.dirty_pages().is_empty());
        s.write_u64(PAGE_SIZE * 4, 2); // miss path
        s.write_u64(PAGE_SIZE * 4 + 8, 3); // memo-hit path
        s.write_u64(8, 4); // index-hit path
        assert_eq!(s.dirty_pages(), vec![0, 4]);
        s.clear_dirty();
        assert!(s.dirty_pages().is_empty());
        assert_eq!(s.resident_page_numbers(), vec![0, 4]);
    }

    #[test]
    fn reads_do_not_dirty_and_tracking_off_is_silent() {
        let mut s = PageStore::new();
        s.set_dirty_tracking(true);
        s.write_u64(0, 7);
        s.clear_dirty();
        let _ = s.read_u64(0);
        assert!(s.dirty_pages().is_empty(), "reads never dirty a page");
        s.set_dirty_tracking(false);
        s.write_u64(PAGE_SIZE, 9);
        assert!(s.dirty_pages().is_empty());
    }

    #[test]
    fn per_page_dirty_query_and_clear() {
        let mut s = PageStore::new();
        s.set_dirty_tracking(true);
        s.write_u64(0, 1);
        s.write_u64(PAGE_SIZE * 2, 2);
        assert!(s.is_dirty(0));
        assert!(s.is_dirty(2));
        assert!(!s.is_dirty(1), "unmaterialized page is never dirty");
        s.clear_dirty_page(0);
        assert!(!s.is_dirty(0));
        assert!(s.is_dirty(2), "clearing one page leaves the other");
        assert_eq!(s.dirty_pages(), vec![2]);
        s.clear_dirty_page(99); // absent page: no-op, no panic
        s.set_dirty_tracking(false);
        assert!(!s.is_dirty(2), "tracking off reports clean");
    }

    #[test]
    fn corrupt_bit_flips_without_dirtying() {
        let mut s = PageStore::new();
        s.set_dirty_tracking(true);
        s.write_u64(16, 0b100);
        s.clear_dirty();
        assert!(s.corrupt_bit(16, 2));
        assert_eq!(s.read_u64(16), 0, "bit 2 flipped off");
        assert!(s.dirty_pages().is_empty(), "corruption is silent");
        assert!(!s.corrupt_bit(PAGE_SIZE * 99, 0), "absent page: no flip");
        assert!(s.page_bytes(0).is_some());
        assert!(s.page_bytes(99).is_none());
    }
}
