//! Time-based retention model: a modelled media clock plus per-page
//! age/write-count accounting (DESIGN.md §13).
//!
//! Real NVM cells decay: the probability that a cell has lost its value
//! grows with the time since it was last programmed, and endurance wear
//! grows with the number of programs. Persistent-data retention models
//! (Wang & Tuck) fold both into per-page state the controller maintains
//! anyway. This module is the deterministic analogue:
//!
//! * [`WearTable`] — an llfree-style compact page-state table: one small
//!   record per page (`writes`, `last_rewrite` tick), flat-indexed by page
//!   number, living *alongside* the data planes (next to
//!   [`crate::shard::SharedPool`]'s stripes for the shared heap, inside
//!   [`crate::space::AddressSpace`] for local pools) — never inside the
//!   persistent image itself.
//! * A **media clock** in ticks. The clock only ever advances from
//!   modelled work units ([`RetentionConfig::work_per_tick`]) or explicit
//!   tick counts — never from wall time — so every decay outcome is a pure
//!   function of `(seed, schedule)` and replays bit-identically under
//!   `UTPR_QC_SEED`.
//! * [`decay_draw`] — the seeded per-(page, tick) flip lottery whose
//!   probability is `age_since_last_rewrite × rate`, the decay law
//!   [`crate::FaultPlan::with_decay`] configures.
//!
//! Flips strike only *sealed cold* pages: a page with a CRC sidecar entry
//! and no dirty bit. Hot (dirty) pages are modelled as freshly programmed
//! — their cells have no age to decay — and unsealed pages have no
//! reference checksum against which corruption could ever be *detected*,
//! so injecting there would only test the oracle, not the system.

use crate::pagestore::PAGE_SIZE;
use utpr_qc::rng::splitmix64;

/// Probability scale of the decay lottery: rates are parts-per-billion of
/// flip probability per tick of page age.
pub const DECAY_SCALE: u64 = 1_000_000_000;

/// Mechanical knobs of the retention machinery (the decay *law* — seed and
/// rate — travels in [`crate::FaultPlan::with_decay`] instead, so one plan
/// describes the whole fault model).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetentionConfig {
    /// A dirty page colder than this many ticks (no rewrite for
    /// `seal_lag` ticks) is sealed — checksummed into the CRC sidecar and
    /// its dirty bit cleared — at the next clock tick, modelling the
    /// controller checkpointing quiesced lines.
    pub seal_lag: u64,
    /// Modelled work units (cycles) per media-clock tick.
    pub work_per_tick: u64,
}

impl Default for RetentionConfig {
    fn default() -> Self {
        RetentionConfig { seal_lag: 2, work_per_tick: 1 << 20 }
    }
}

/// Per-page wear/age record: 16 bytes, flat-indexed — the compact
/// page-state-table shape (llfree keeps its per-frame counters in exactly
/// such a flat side array).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PageWear {
    /// Program (write) operations that touched the page — endurance wear.
    pub writes: u64,
    /// Media-clock tick of the last program; age = now − this.
    pub last_rewrite: u64,
}

/// The compact page-state table plus the media clock it is aged against.
#[derive(Clone, Debug, Default)]
pub struct WearTable {
    tick: u64,
    pages: Vec<PageWear>,
}

impl WearTable {
    /// A table over `pages` zero-aged, zero-worn pages at tick 0.
    #[must_use]
    pub fn new(pages: usize) -> WearTable {
        WearTable { tick: 0, pages: vec![PageWear::default(); pages] }
    }

    /// Current media-clock tick.
    #[must_use]
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// Advances the clock to `tick` (monotone; lower values are ignored).
    pub fn advance_to(&mut self, tick: u64) {
        self.tick = self.tick.max(tick);
    }

    /// Pages tracked.
    #[must_use]
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// Whether the table tracks no pages.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// Records one program of `page` at the current tick (out-of-range
    /// pages are ignored — the table is sized from the pool geometry).
    pub fn note_write(&mut self, page: u64) {
        if let Some(w) = self.pages.get_mut(page as usize) {
            w.writes += 1;
            w.last_rewrite = self.tick;
        }
    }

    /// The wear record of `page` (default record when out of range).
    #[must_use]
    pub fn wear(&self, page: u64) -> PageWear {
        self.pages.get(page as usize).copied().unwrap_or_default()
    }

    /// Ticks since `page` was last programmed.
    #[must_use]
    pub fn age(&self, page: u64) -> u64 {
        self.tick.saturating_sub(self.wear(page).last_rewrite)
    }

    /// Sorts `pages` oldest-first (stalest `last_rewrite` first, page
    /// number breaking ties) — the patrol order of the online scrubber.
    pub fn oldest_first(&self, pages: &mut [u64]) {
        pages.sort_by_key(|&p| (self.wear(p).last_rewrite, p));
    }

    /// Flat copy of the per-page write counts (the wear-aware allocator
    /// scores candidate blocks against this without holding the table's
    /// lock across the free-list walk).
    #[must_use]
    pub fn write_counts(&self) -> Vec<u64> {
        self.pages.iter().map(|w| w.writes).collect()
    }

    /// Wear histogram summary over the pages that saw any write at all.
    #[must_use]
    pub fn stats(&self) -> WearStats {
        let mut s = WearStats::default();
        for w in &self.pages {
            if w.writes == 0 {
                continue;
            }
            s.pages += 1;
            s.total += w.writes;
            s.min = if s.pages == 1 { w.writes } else { s.min.min(w.writes) };
            s.max = s.max.max(w.writes);
        }
        s
    }
}

/// Summary of the write-count histogram over worn (written) pages.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WearStats {
    /// Pages with at least one write.
    pub pages: u64,
    /// Minimum writes among worn pages.
    pub min: u64,
    /// Maximum writes among worn pages.
    pub max: u64,
    /// Total writes across worn pages.
    pub total: u64,
}

impl WearStats {
    /// Mean writes per worn page.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.pages == 0 {
            0.0
        } else {
            self.total as f64 / self.pages as f64
        }
    }

    /// Histogram flatness as max/mean — 1.0 is a perfectly level wear
    /// profile, large values mean a few pages soak up the endurance
    /// budget. (Report-only: never folded into checksums.)
    #[must_use]
    pub fn flatness(&self) -> f64 {
        let mean = self.mean();
        if mean == 0.0 {
            1.0
        } else {
            self.max as f64 / mean
        }
    }
}

/// The decay lottery for one `(page, tick)` cell: flips with probability
/// `min(age × ppb, DECAY_SCALE) / DECAY_SCALE`, positions drawn from the
/// same hash. Pure in its arguments — the whole retention fault model
/// replays from `(seed, schedule)`.
///
/// Returns `Some((in_page_offset, bit))` when the page decays this tick.
#[must_use]
pub fn decay_draw(seed: u64, page: u64, tick: u64, age: u64, ppb: u64) -> Option<(u64, u8)> {
    let threshold = age.saturating_mul(ppb).min(DECAY_SCALE);
    if threshold == 0 {
        return None;
    }
    let h = splitmix64(
        seed ^ splitmix64(page.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ tick.wrapping_mul(0xc2b2_ae3d_27d4_eb4f)),
    );
    if h % DECAY_SCALE >= threshold {
        return None;
    }
    let in_page = splitmix64(h) % PAGE_SIZE;
    let bit = (splitmix64(h ^ 0x5c) % 8) as u8;
    Some((in_page, bit))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wear_table_tracks_writes_and_age() {
        let mut w = WearTable::new(4);
        w.note_write(1);
        w.advance_to(10);
        w.note_write(1);
        w.note_write(3);
        w.advance_to(25);
        assert_eq!(w.wear(1).writes, 2);
        assert_eq!(w.wear(1).last_rewrite, 10);
        assert_eq!(w.age(1), 15);
        assert_eq!(w.age(0), 25, "never-written pages age from tick 0");
        assert_eq!(w.wear(99), PageWear::default(), "out of range is inert");
        w.note_write(99); // ignored, no panic
        let mut pages = vec![3, 0, 1];
        w.oldest_first(&mut pages);
        assert_eq!(pages, vec![0, 1, 3], "stalest rewrite first, page breaks ties");
    }

    #[test]
    fn wear_stats_summarize_only_worn_pages() {
        let mut w = WearTable::new(8);
        for _ in 0..6 {
            w.note_write(2);
        }
        w.note_write(5);
        let s = w.stats();
        assert_eq!((s.pages, s.min, s.max, s.total), (2, 1, 6, 7));
        assert!((s.mean() - 3.5).abs() < 1e-9);
        assert!((s.flatness() - 6.0 / 3.5).abs() < 1e-9);
        assert_eq!(WearTable::new(3).stats(), WearStats::default());
        assert!((WearStats::default().flatness() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn decay_draw_is_deterministic_and_age_monotone() {
        // Zero age or zero rate never flips.
        assert_eq!(decay_draw(1, 0, 5, 0, 1_000), None);
        assert_eq!(decay_draw(1, 0, 5, 1_000, 0), None);
        // Same arguments, same outcome.
        for page in 0..64 {
            assert_eq!(decay_draw(9, page, 77, 500, 1024), decay_draw(9, page, 77, 500, 1024));
        }
        // At threshold saturation every page flips.
        let (off, bit) = decay_draw(3, 7, 1, u64::MAX, u64::MAX).expect("saturated");
        assert!(off < PAGE_SIZE);
        assert!(bit < 8);
        // Flip frequency grows with age: count flips over many cells.
        let count = |age: u64| {
            (0..4_000u64)
                .filter(|&p| decay_draw(42, p, 123, age, 1_000_000).is_some())
                .count()
        };
        let (young, old) = (count(10), count(400));
        assert!(young < old, "age must raise flip probability ({young} vs {old})");
        // Rough calibration: p = age*ppb/1e9 => 400*1e6/1e9 = 0.4.
        assert!((old as f64 / 4_000.0 - 0.4).abs() < 0.05, "old rate {old}");
    }

    #[test]
    fn decay_draw_outputs_are_pinned() {
        // Recorded values: every retention soak replays from these draws,
        // so a change of hash or of its mixing constants must fail here.
        assert_eq!(decay_draw(3, 7, 1, u64::MAX, u64::MAX), Some((334, 6)));
        assert_eq!(decay_draw(0x5eed, 42, 9, 1_000, 1_000_000), Some((2709, 0)));
        assert_eq!(decay_draw(42, 123, 77, 400, 1_000_000), Some((1998, 1)));
    }
}
