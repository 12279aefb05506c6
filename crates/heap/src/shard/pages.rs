//! A [`SharedPool`](super::SharedPool)'s bytes: one pool-wide table of
//! pages indexed by page number, each page 512 little-endian words that
//! are loaded and stored atomically.
//!
//! A page materializes on its first write and is published by a CAS of
//! its table entry (`Release` on success). It never moves after that, and
//! it is freed only when the pool drops. So a load is an `Acquire` load of
//! the entry and an `Acquire` load of the word: it takes no lock and
//! writes nothing shared. Writers store whole words with `Release`, so a reader
//! that sees a word also sees every write its writer made before it. A
//! byte write merges into the words it covers. Callers hold the page's
//! stripe lock for every write, so no two writers merge into one word at
//! once.
//!
//! The table is allocated zeroed and has one entry per page of the pool,
//! so the host keeps resident only the parts of it that name touched
//! pages.

use crate::integrity::crc32;
use crate::pagestore::PAGE_SIZE;
use crate::persist::Line;
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};

/// Words per page.
const PAGE_WORDS: usize = (PAGE_SIZE / 8) as usize;

/// Bytes per page.
const PAGE_BYTES: usize = PAGE_SIZE as usize;

/// One materialized page.
type Page = [AtomicU64; PAGE_WORDS];

/// The pool's pages; see the module docs.
pub(super) struct Pages {
    /// Page number → page, null until the page's first write.
    table: Box<[AtomicPtr<Page>]>,
    /// Materialized pages.
    resident: AtomicU64,
}

impl Pages {
    /// A table for `bytes` bytes of pool with no page materialized.
    pub(super) fn new(bytes: u64) -> Pages {
        let len = bytes.div_ceil(PAGE_SIZE) as usize;
        // SAFETY: a null `AtomicPtr` is all zero bits. Zeroed memory also
        // leaves the untouched parts of a large table non-resident.
        let table = unsafe { Box::<[AtomicPtr<Page>]>::new_zeroed_slice(len).assume_init() };
        Pages { table, resident: AtomicU64::new(0) }
    }

    /// Page `page_no`, or `None` until its first write (or past the pool).
    #[inline]
    fn page(&self, page_no: u64) -> Option<&Page> {
        let ptr = self.table.get(page_no as usize)?.load(Ordering::Acquire);
        // SAFETY: a non-null entry comes from `Box::into_raw` in `insert`,
        // which publishes it only once the page is initialized (the
        // `Release` half of its CAS pairs with this `Acquire`). Only `drop`
        // frees it, and `drop` needs the `&mut self` this borrow excludes.
        unsafe { ptr.as_ref() }
    }

    /// Page `page_no`, materialized zero-filled if absent.
    #[inline]
    fn page_or_insert(&self, page_no: u64) -> &Page {
        match self.page(page_no) {
            Some(page) => page,
            None => self.insert(page_no),
        }
    }

    /// Publishes a zero-filled page for `page_no`. Stripe locks serialize
    /// the writers of a page, but the CAS keeps this sound without them:
    /// a loser frees its page and uses the winner's.
    #[cold]
    fn insert(&self, page_no: u64) -> &Page {
        // SAFETY: an `AtomicU64` of all zero bits is 0. A zeroed allocation
        // leaves the host to supply zero pages, so a page stays resident
        // only where it is written, as a `PageStore` page does.
        let fresh = Box::into_raw(unsafe { Box::<Page>::new_zeroed().assume_init() });
        let entry = &self.table[page_no as usize];
        let (null, won, seen) = (std::ptr::null_mut(), Ordering::AcqRel, Ordering::Acquire);
        match entry.compare_exchange(null, fresh, won, seen) {
            Ok(_) => {
                self.resident.fetch_add(1, Ordering::Relaxed);
                // SAFETY: `fresh` is now the entry's page; see `page`.
                unsafe { &*fresh }
            }
            Err(winner) => {
                // SAFETY: `fresh` was never published, so this is its only
                // owner. `winner` is a published page; see `page`.
                unsafe {
                    drop(Box::from_raw(fresh));
                    &*winner
                }
            }
        }
    }

    /// Loads the word at `off`, or 0 on a page never written. An unaligned
    /// `off` reads through the byte path.
    #[inline]
    pub(super) fn read_u64(&self, off: u64) -> u64 {
        if !off.is_multiple_of(8) {
            let mut b = [0; 8];
            self.read(off, &mut b);
            return u64::from_le_bytes(b);
        }
        self.page(off / PAGE_SIZE)
            .map_or(0, |p| p[(off % PAGE_SIZE / 8) as usize].load(Ordering::Acquire))
    }

    /// Stores the word at `off`. The caller holds the page's stripe lock.
    #[inline]
    pub(super) fn write_u64(&self, off: u64, value: u64) {
        if !off.is_multiple_of(8) {
            return self.write(off, &value.to_le_bytes());
        }
        self.page_or_insert(off / PAGE_SIZE)[(off % PAGE_SIZE / 8) as usize]
            .store(value, Ordering::Release);
    }

    /// Reads `buf.len()` bytes at `off`, one word load at a time: each word
    /// is whole, but two words may come from different moments.
    pub(super) fn read(&self, mut off: u64, buf: &mut [u8]) {
        let mut done = 0;
        while done < buf.len() {
            let page = self.page(off / PAGE_SIZE);
            let end = buf.len().min(done + (PAGE_SIZE - off % PAGE_SIZE) as usize);
            while done < end {
                let (at, w) = ((off % 8) as usize, (off % PAGE_SIZE / 8) as usize);
                let n = (8 - at).min(end - done);
                let word = page.map_or(0, |p| p[w].load(Ordering::Acquire)).to_le_bytes();
                if n == 8 {
                    buf[done..done + 8].copy_from_slice(&word); // a fixed-size copy
                } else {
                    buf[done..done + n].copy_from_slice(&word[at..at + n]);
                }
                (done, off) = (done + n, off + n as u64);
            }
        }
    }

    /// Reads the cache line at `line` (line-aligned), the staging
    /// snapshot's one read: eight word loads from one page.
    pub(super) fn read_line(&self, line: u64, out: &mut Line) {
        let Some(page) = self.page(line / PAGE_SIZE) else { return out.fill(0) };
        let first = (line % PAGE_SIZE / 8) as usize;
        for (bytes, word) in out.chunks_exact_mut(8).zip(&page[first..first + 8]) {
            bytes.copy_from_slice(&word.load(Ordering::Acquire).to_le_bytes());
        }
    }

    /// Writes `buf` at `off`: whole words are stored, partly covered ones
    /// merged. The caller holds the stripe lock of every page touched.
    pub(super) fn write(&self, mut off: u64, buf: &[u8]) {
        let mut done = 0;
        while done < buf.len() {
            let page = self.page_or_insert(off / PAGE_SIZE);
            let end = buf.len().min(done + (PAGE_SIZE - off % PAGE_SIZE) as usize);
            while done < end {
                let (at, w) = ((off % 8) as usize, (off % PAGE_SIZE / 8) as usize);
                let n = (8 - at).min(end - done);
                let mut bytes = [0; 8];
                if n < 8 {
                    bytes = page[w].load(Ordering::Relaxed).to_le_bytes();
                }
                bytes[at..at + n].copy_from_slice(&buf[done..done + n]);
                page[w].store(u64::from_le_bytes(bytes), Ordering::Release);
                (done, off) = (done + n, off + n as u64);
            }
        }
    }

    /// Whether page `page_no` has been written.
    pub(super) fn is_resident(&self, page_no: u64) -> bool {
        self.page(page_no).is_some()
    }

    /// Materialized pages.
    pub(super) fn resident(&self) -> u64 {
        self.resident.load(Ordering::Relaxed)
    }

    /// The materialized page numbers `first`, `first + step`, …, in order.
    pub(super) fn resident_every(&self, first: u64, step: u64) -> impl Iterator<Item = u64> + '_ {
        (first..self.table.len() as u64).step_by(step as usize).filter(|&p| self.is_resident(p))
    }

    /// Copies page `page_no` into `buf`. Returns `false`, leaving `buf`
    /// alone, when the page was never written.
    pub(super) fn copy_page(&self, page_no: u64, buf: &mut [u8; PAGE_BYTES]) -> bool {
        let Some(page) = self.page(page_no) else { return false };
        for (chunk, word) in buf.chunks_exact_mut(8).zip(page) {
            chunk.copy_from_slice(&word.load(Ordering::Acquire).to_le_bytes());
        }
        true
    }

    /// The checksum of page `page_no`'s bytes, if it was ever written.
    pub(super) fn crc(&self, page_no: u64) -> Option<u32> {
        let mut buf = [0; PAGE_BYTES];
        self.copy_page(page_no, &mut buf).then(|| crc32(&buf))
    }

    /// Flips bit `bit % 8` of the byte at `off`. Returns `false` (no flip)
    /// on a page never written.
    pub(super) fn flip_bit(&self, off: u64, bit: u8) -> bool {
        let Some(page) = self.page(off / PAGE_SIZE) else { return false };
        let shift = 8 * (off % 8) + u64::from(bit % 8);
        page[(off % PAGE_SIZE / 8) as usize].fetch_xor(1 << shift, Ordering::AcqRel);
        true
    }
}

/// A deep copy: every materialized page, word for word. Quiesce writers
/// first, or the copy may mix moments.
impl Clone for Pages {
    fn clone(&self) -> Pages {
        let copy = Pages::new(self.table.len() as u64 * PAGE_SIZE);
        for page_no in 0..self.table.len() as u64 {
            let Some(from) = self.page(page_no) else { continue };
            for (src, dst) in from.iter().zip(copy.page_or_insert(page_no)) {
                dst.store(src.load(Ordering::Acquire), Ordering::Relaxed);
            }
        }
        copy
    }
}

impl Drop for Pages {
    fn drop(&mut self) {
        for entry in self.table.iter_mut() {
            let ptr = *entry.get_mut();
            if !ptr.is_null() {
                // SAFETY: every published page came from `Box::into_raw`,
                // and `&mut self` excludes every borrow `page` handed out.
                drop(unsafe { Box::from_raw(ptr) });
            }
        }
    }
}

impl std::fmt::Debug for Pages {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pages")
            .field("pages", &self.table.len())
            .field("resident", &self.resident())
            .finish()
    }
}
