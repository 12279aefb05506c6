//! The media plane: the one statement of the heap's retention and
//! media-integrity contract. A [`MediaPlane`] is a pool's CRC sidecar — the
//! out-of-band checksums a controller keeps — plus, once retention is
//! configured, the media clock of DESIGN.md §13: the wear table, the work
//! columns and the decay-flip books. It seals dirty pages, verifies and
//! scrubs sealed cold pages, reseals a repaired image, runs the cold-write
//! verify, and runs the per-tick seal + decay loop.
//!
//! Both backings run this code and nothing else: a [`PoolImage`] owns one
//! plane inline over its single [`PageStore`], a [`SharedPool`] holds one
//! behind its `media` mutex over its pool-wide page table, each page's
//! dirty bit kept by its stripe. The plane reaches bytes only through
//! [`MediaPages`] — a page at a time, and the dirty and resident page
//! lists — the way `MemWords` lets the allocator run over either device.
//!
//! The plane decides which pages are bad; it does not keep the quarantine.
//! Every detecting call returns the bad pages in detection order, and the
//! owner records the first where its access guard reads it: the device's
//! quarantine map for owned pools, an atomic word that shards read without
//! a lock for shared ones.
//!
//! [`PoolImage`]: crate::pool::PoolImage
//! [`SharedPool`]: crate::shard::SharedPool

use crate::integrity::{classify_pages, crc32, PageCrcs, PageVerdict, PoolScrub};
use crate::pagestore::{PageStore, PAGE_SIZE};
use crate::retain::{decay_draw, RetentionConfig, WearTable};
use std::collections::{BTreeMap, BTreeSet};

/// Where a [`MediaPlane`] finds the bytes it seals and checks. Each
/// per-page call is atomic against the writes to that page.
pub(crate) trait MediaPages {
    /// Whether writes mark pages dirty. Pages that do not get no sidecar.
    fn tracks_dirty(&mut self) -> bool;

    /// The pages written since they were last sealed, in page order.
    fn dirty_pages(&mut self) -> Vec<u64>;

    /// Every resident page, in page order.
    fn resident_pages(&mut self) -> Vec<u64>;

    /// The checksum of resident page `page`, whose dirty bit it clears;
    /// `None` when the page is not resident.
    fn seal_page(&mut self, page: u64) -> Option<u32>;

    /// Runs `f` on the bytes of `page` (`None` while it is not resident)
    /// unless the page is dirty.
    fn read_clean<R>(&mut self, page: u64, f: impl FnOnce(Option<&[u8]>) -> R) -> Option<R>;

    /// Flips bit `bit` of the byte at `offset` without dirtying its page,
    /// and only on a clean page when `clean_only`. Returns whether it
    /// flipped: never on a page that is not resident.
    fn flip_bit(&mut self, offset: u64, bit: u8, clean_only: bool) -> bool;
}

impl MediaPages for PageStore {
    fn tracks_dirty(&mut self) -> bool {
        self.dirty_tracking()
    }

    fn dirty_pages(&mut self) -> Vec<u64> {
        PageStore::dirty_pages(self)
    }

    fn resident_pages(&mut self) -> Vec<u64> {
        self.resident_page_numbers()
    }

    fn seal_page(&mut self, page: u64) -> Option<u32> {
        let crc = crc32(self.page_bytes(page)?);
        self.clear_dirty_page(page);
        Some(crc)
    }

    fn read_clean<R>(&mut self, page: u64, f: impl FnOnce(Option<&[u8]>) -> R) -> Option<R> {
        (!self.is_dirty(page)).then(|| f(self.page_bytes(page)))
    }

    fn flip_bit(&mut self, offset: u64, bit: u8, clean_only: bool) -> bool {
        !(clean_only && self.is_dirty(offset / PAGE_SIZE)) && self.corrupt_bit(offset, bit)
    }
}

/// The media clock and its books, present once retention is configured.
/// Like the sidecar, it models controller metadata, never pool bytes.
#[derive(Clone, Debug, Default)]
pub(crate) struct MediaClock {
    pub(crate) cfg: RetentionConfig,
    pub(crate) wear: WearTable,
    /// Modelled work units accumulated on the clock.
    pub(crate) work: u64,
    /// The share of `work` attributed to scrub/maintenance traffic.
    pub(crate) scrub_work: u64,
    /// Decay flips injected into sealed cold pages so far.
    pub(crate) flips_injected: u64,
    /// Injected flips that a verify path has since caught. Two strikes on
    /// the same `(page, offset, bit)` annihilate — the CRC matches again
    /// and the pair is undetectable *by construction* — so zero silent
    /// corruption means `injected == detected + cancelled` once the final
    /// full verify has run.
    pub(crate) flips_detected: u64,
    /// Flips retired by pairwise annihilation (always even).
    pub(crate) flips_cancelled: u64,
    /// Outstanding flipped bits per page: `(offset-in-page, bit)` of every
    /// injected-but-undetected strike.
    pub(crate) pending_flips: BTreeMap<u64, BTreeSet<(u64, u8)>>,
    /// Distinct pages the lottery has ever struck (monotone).
    pub(crate) pages_struck: BTreeSet<u64>,
}

/// CRC sidecar + optional media clock; see the module docs.
#[derive(Clone, Debug, Default)]
pub(crate) struct MediaPlane {
    crcs: PageCrcs,
    clock: Option<MediaClock>,
}

impl MediaPlane {
    /// A plane whose media clock starts at tick 0 over `pages` pages.
    pub(crate) fn with_retention(cfg: RetentionConfig, pages: usize) -> MediaPlane {
        let clock = MediaClock { cfg, wear: WearTable::new(pages), ..MediaClock::default() };
        MediaPlane { crcs: PageCrcs::new(), clock: Some(clock) }
    }

    /// The sealed checksums.
    pub(crate) fn crcs(&self) -> &PageCrcs {
        &self.crcs
    }

    /// The media clock, once retention is configured.
    pub(crate) fn clock(&self) -> Option<&MediaClock> {
        self.clock.as_ref()
    }

    // ---- seal / verify / reseal ---------------------------------------------

    /// Seals dirty pages: checksum into the sidecar, dirty bit cleared.
    /// `quiesced` keeps only pages the clock has seen untouched for the
    /// configured seal lag. Sealing is *not* a reprogram — the cells keep
    /// the age of their last write.
    pub(crate) fn seal(&mut self, pages: &mut impl MediaPages, quiesced: bool) {
        let clock = self.clock.as_ref().filter(|_| quiesced);
        for page in pages.dirty_pages() {
            if clock.is_some_and(|c| c.wear.age(page) < c.cfg.seal_lag) {
                continue;
            }
            if let Some(crc) = pages.seal_page(page) {
                self.crcs.seal(page, crc);
            }
        }
    }

    /// Whether `page` is sealed, cold (not re-dirtied since) and no longer
    /// matches its checksum. A dirty page has legitimate unsealed writes:
    /// its sealed checksum is stale by design.
    fn is_stale(&self, pages: &mut impl MediaPages, page: u64) -> bool {
        let Some(sealed) = self.crcs.get(page) else { return false };
        pages.read_clean(page, |b| b.is_some_and(|b| crc32(b) != sealed)) == Some(true)
    }

    /// Verifies every sealed cold page against its checksum and books each
    /// mismatch as a detection. Returns the bad pages in page order.
    pub(crate) fn verify(&mut self, pages: &mut impl MediaPages) -> Vec<u64> {
        let bad: Vec<u64> =
            self.crcs.sealed_pages().into_iter().filter(|&p| self.is_stale(pages, p)).collect();
        for &page in &bad {
            self.note_detection(page);
        }
        bad
    }

    /// Re-checksums every resident page at its *current* contents (when
    /// the pages track writes at all) and clears its dirty state — the
    /// post-salvage blessing that makes the repaired image the new ground
    /// truth. Each page counts as one reprogram in the wear table. Run only
    /// after [`MediaPlane::verify`] has routed every stale flip through
    /// detection; resealing first would hide them.
    pub(crate) fn reseal(&mut self, pages: &mut impl MediaPages) {
        if !pages.tracks_dirty() {
            return; // no sidecar is kept for these pages
        }
        for page in pages.resident_pages() {
            if let Some(crc) = pages.seal_page(page) {
                self.crcs.seal(page, crc);
            }
            if let Some(c) = &mut self.clock {
                c.wear.note_write(page);
            }
        }
    }

    /// One patrol pass: visits up to `limit` sealed cold pages — oldest
    /// first while the clock runs, in page order otherwise — through the
    /// verdict kernel ([`classify_pages`]). A clean page at or past
    /// `refresh_age` is reprogrammed in place (its decay age resets, wear
    /// accrues); a mismatch is booked as a detection and names the scrub's
    /// corrupt page if it is the first.
    pub(crate) fn scrub(
        &mut self,
        pages: &mut impl MediaPages,
        limit: usize,
        refresh_age: u64,
    ) -> PoolScrub {
        let mut order = self.crcs.sealed_pages();
        let clock = self.clock.as_ref();
        if let Some(c) = clock {
            c.wear.oldest_first(&mut order);
        }
        let due = |p| clock.is_some_and(|c| c.wear.age(p) >= refresh_age);
        let mut verdicts = Vec::new();
        for page in order {
            if verdicts.len() >= limit {
                break;
            }
            let sealed = self.crcs.get(page).expect("sealed page has a crc");
            // A dirty page went hot again; the next seal re-covers it.
            let verdict = pages.read_clean(page, |bytes| {
                classify_pages(std::iter::once((page, sealed, bytes)), due).pop()
            });
            verdicts.extend(verdict.flatten());
        }
        for &(page, v) in &verdicts {
            match (v, &mut self.clock) {
                (PageVerdict::Repaired, Some(c)) => c.wear.note_write(page),
                (PageVerdict::Quarantined, _) => self.note_detection(page),
                _ => {}
            }
        }
        PoolScrub {
            pages_scanned: verdicts.len() as u64,
            bytes_scanned: verdicts.len() as u64 * PAGE_SIZE,
            corrupt_page: verdicts
                .iter()
                .find(|(_, v)| *v == PageVerdict::Quarantined)
                .map(|(p, _)| *p),
            verdicts,
        }
    }

    // ---- the media clock ------------------------------------------------------

    /// Write-path hook, run before `len` bytes at `offset` mutate the
    /// image while the clock runs: wear accounting plus the *cold-write
    /// verify* — a store to a sealed, clean page first patrol-reads it, so
    /// a decayed cell cannot be silently re-blessed when the page later
    /// reseals. Returns the first page found stale (booked as a detection);
    /// the write itself proceeds.
    pub(crate) fn note_write(
        &mut self,
        pages: &mut impl MediaPages,
        offset: u64,
        len: u64,
    ) -> Option<u64> {
        self.clock.as_ref()?;
        let mut bad = None;
        for page in offset / PAGE_SIZE..=(offset + len - 1) / PAGE_SIZE {
            if self.is_stale(pages, page) {
                self.note_detection(page);
                bad = bad.or(Some(page));
            }
            if let Some(c) = &mut self.clock {
                c.wear.note_write(page);
            }
        }
        bad
    }

    /// Advances the clock by `units` of modelled work (also booked to the
    /// scrub column when `scrub`) and returns the tick afterwards, 0
    /// without a clock. Each elapsed tick seals the quiesced dirty pages,
    /// then runs the `(seed, ppb)` decay lottery over sealed cold pages.
    pub(crate) fn advance(
        &mut self,
        pages: &mut impl MediaPages,
        units: u64,
        scrub: bool,
        decay: Option<(u64, u64)>,
    ) -> u64 {
        let Some(c) = &mut self.clock else { return 0 };
        c.work += units;
        if scrub {
            c.scrub_work += units;
        }
        let (from, to) = (c.wear.tick(), c.work / c.cfg.work_per_tick);
        for t in from + 1..=to {
            if let Some(c) = &mut self.clock {
                c.wear.advance_to(t);
            }
            self.seal(pages, true);
            if let Some((seed, ppb)) = decay {
                self.inject_decay(pages, seed, ppb);
            }
        }
        from.max(to)
    }

    /// The per-tick decay lottery over sealed cold pages: a page of age
    /// `a` flips a pseudorandom bit with probability `a × ppb / 1e9`.
    /// Flips bypass dirty tracking — silent until a verify path catches
    /// them — and skip pages re-dirtied since sealing (modelled as freshly
    /// hot).
    fn inject_decay(&mut self, pages: &mut impl MediaPages, seed: u64, ppb: u64) {
        for page in self.crcs.sealed_pages() {
            let Some(c) = &self.clock else { return };
            let Some((off, bit)) = decay_draw(seed, page, c.wear.tick(), c.wear.age(page), ppb)
            else {
                continue;
            };
            let offset = page * PAGE_SIZE + off;
            if pages.flip_bit(offset, bit, true) {
                self.note_strike(page, off, bit);
            }
        }
    }

    /// Flips bit `bit` of the byte at `offset` without dirtying its page,
    /// booked as an injected strike while the clock runs. Returns `false`
    /// when the page is not resident.
    pub(crate) fn corrupt_bit(
        &mut self,
        pages: &mut impl MediaPages,
        offset: u64,
        bit: u8,
    ) -> bool {
        let flipped = pages.flip_bit(offset, bit, false);
        if flipped {
            self.note_strike(offset / PAGE_SIZE, offset % PAGE_SIZE, bit);
        }
        flipped
    }

    // ---- flip books -----------------------------------------------------------

    /// Books one strike at `(page, off, bit)`. A strike on a bit that is
    /// already flipped annihilates the pair: the page's CRC matches again,
    /// so neither flip can ever be detected — they are retired to the
    /// `cancelled` column instead.
    fn note_strike(&mut self, page: u64, off: u64, bit: u8) {
        let Some(c) = &mut self.clock else { return };
        c.flips_injected += 1;
        c.pages_struck.insert(page);
        let bits = c.pending_flips.entry(page).or_default();
        if bits.remove(&(off, bit)) {
            c.flips_cancelled += 2;
            if bits.is_empty() {
                c.pending_flips.remove(&page);
            }
        } else {
            bits.insert((off, bit));
        }
    }

    /// Books one detected corruption: the flips on `page` move from the
    /// undetected to the detected column.
    fn note_detection(&mut self, page: u64) {
        if let Some(c) = &mut self.clock {
            c.flips_detected += c.pending_flips.remove(&page).map_or(0, |bits| bits.len() as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A dirty-tracking store with two written pages.
    fn store() -> PageStore {
        let mut ps = PageStore::new();
        ps.set_dirty_tracking(true);
        ps.write_u64(8, 0xfeed);
        ps.write_u64(PAGE_SIZE * 2, 0xbeef);
        ps
    }

    #[test]
    fn media_seal_verify_and_reseal_over_one_store() {
        let (mut ps, mut m) = (store(), MediaPlane::default());
        m.seal(&mut ps, false);
        assert_eq!(m.crcs().sealed_pages(), vec![0, 2]);
        assert!(ps.dirty_pages().is_empty(), "sealing clears the dirty bits");
        assert!(m.verify(&mut ps).is_empty());
        assert!(ps.corrupt_bit(PAGE_SIZE * 2 + 5, 1));
        assert_eq!(m.verify(&mut ps), vec![2]);
        ps.write_u64(PAGE_SIZE * 2 + 64, 1);
        assert!(m.verify(&mut ps).is_empty(), "a re-dirtied page is exempt");
        m.reseal(&mut ps);
        assert!(m.verify(&mut ps).is_empty(), "reseal blessed the current bytes");
        assert!(m.clock().is_none(), "no clock, no books");
    }

    #[test]
    fn media_reseal_skips_stores_without_a_sidecar() {
        let mut ps = PageStore::new();
        ps.write_u64(0, 1);
        let mut m = MediaPlane::default();
        m.reseal(&mut ps);
        assert!(m.crcs().is_empty());
    }

    #[test]
    fn media_scrub_names_the_first_condemned_page() {
        let (mut ps, mut m) = (store(), MediaPlane::default());
        m.seal(&mut ps, false);
        ps.corrupt_bit(PAGE_SIZE * 2, 0);
        let scrub = m.scrub(&mut ps, usize::MAX, 0);
        assert_eq!(scrub.verdicts, vec![(0, PageVerdict::Clean), (2, PageVerdict::Quarantined)]);
        assert_eq!((scrub.corrupt_page, scrub.bytes_scanned), (Some(2), 2 * PAGE_SIZE));
        assert_eq!(m.scrub(&mut ps, 1, 0).verdicts.len(), 1, "the limit caps the visit");
    }

    #[test]
    fn media_clock_books_strikes_detections_and_annihilation() {
        let mut ps = store();
        let cfg = RetentionConfig { seal_lag: 1, work_per_tick: 10 };
        let mut m = MediaPlane::with_retention(cfg, 4);
        assert_eq!(m.advance(&mut ps, 25, true, None), 2);
        assert_eq!(m.crcs().len(), 2, "the quiesced pages sealed on the first tick");
        for _ in 0..2 {
            assert!(m.corrupt_bit(&mut ps, 8, 3));
        }
        assert!(m.corrupt_bit(&mut ps, PAGE_SIZE * 2, 0));
        assert_eq!(m.note_write(&mut ps, PAGE_SIZE * 2 + 8, 8), Some(2), "cold-write verify");
        assert_eq!(m.note_write(&mut ps, 16, 8), None, "the cancelled pair left page 0 clean");
        let c = m.clock().unwrap();
        assert_eq!((c.flips_injected, c.flips_detected, c.flips_cancelled), (3, 1, 2));
        assert_eq!((c.work, c.scrub_work, c.pages_struck.len()), (25, 25, 2));
    }
}
