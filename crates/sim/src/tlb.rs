//! Two-level data TLB with a fixed page-walk penalty.

use crate::config::SimConfig;
use crate::setassoc::SetAssoc;

/// A set-associative LRU TLB level over page numbers.
#[derive(Clone, Debug)]
pub struct Tlb {
    pages: SetAssoc,
}

impl Tlb {
    /// Creates a TLB with `entries` total entries and `ways` associativity.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero or not a multiple of `ways`.
    pub fn new(entries: usize, ways: usize) -> Self {
        assert!(ways > 0 && entries % ways == 0, "entries must be a multiple of ways");
        Tlb { pages: SetAssoc::new(entries / ways, ways) }
    }

    /// Looks up a page number, updating LRU; returns `true` on hit.
    #[inline]
    pub fn access(&mut self, page: u64) -> bool {
        self.pages.access(page)
    }

    /// Hits observed.
    pub fn hits(&self) -> u64 {
        self.pages.hits()
    }

    /// Misses observed.
    pub fn misses(&self) -> u64 {
        self.pages.misses()
    }

    /// Clears counters, keeping contents.
    pub fn reset_counters(&mut self) {
        self.pages.reset_counters();
    }
}

/// The two-level TLB of Table IV: L1 hit is free (pipelined), L1 miss pays
/// the L2 latency, full miss pays the page walk.
#[derive(Clone, Debug)]
pub struct TlbHierarchy {
    /// L1 data TLB.
    pub l1: Tlb,
    /// L2 shared TLB.
    pub l2: Tlb,
    /// log2 of the page size: an address is a shift away from its page.
    page_shift: u32,
    l2_hit_cycles: u64,
    walk_cycles: u64,
    walks: u64,
}

impl TlbHierarchy {
    /// Builds the TLB hierarchy from a machine configuration.
    ///
    /// # Panics
    ///
    /// Panics if the page size is not a power of two.
    pub fn new(cfg: &SimConfig) -> Self {
        assert!(cfg.page_bytes.is_power_of_two(), "page size must be a power of two");
        TlbHierarchy {
            l1: Tlb::new(cfg.tlb1.entries, cfg.tlb1.ways),
            l2: Tlb::new(cfg.tlb2.entries, cfg.tlb2.ways),
            page_shift: cfg.page_bytes.trailing_zeros(),
            l2_hit_cycles: cfg.tlb2_hit_cycles,
            walk_cycles: cfg.page_walk_cycles,
            walks: 0,
        }
    }

    /// Translates `addr`; returns the added latency in cycles.
    #[inline]
    pub fn access(&mut self, addr: u64) -> u64 {
        let page = addr >> self.page_shift;
        if self.l1.access(page) {
            return 0;
        }
        if self.l2.access(page) {
            return self.l2_hit_cycles;
        }
        self.walks += 1;
        self.walk_cycles
    }

    /// Full page walks performed.
    pub fn walks(&self) -> u64 {
        self.walks
    }

    /// Clears counters, keeping contents.
    pub fn reset_counters(&mut self) {
        self.l1.reset_counters();
        self.l2.reset_counters();
        self.walks = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_page_hits_after_first_touch() {
        let cfg = SimConfig::table_iv();
        let mut t = TlbHierarchy::new(&cfg);
        assert_eq!(t.access(0x1000), cfg.page_walk_cycles);
        assert_eq!(t.access(0x1ff8), 0, "same page, L1 hit");
        assert_eq!(t.walks(), 1);
    }

    #[test]
    fn l1_capacity_miss_falls_to_l2() {
        let cfg = SimConfig::table_iv();
        let mut t = TlbHierarchy::new(&cfg);
        t.access(0);
        // Touch enough pages mapping to L1 set 0 to evict page 0 from L1
        // but not from the much larger L2.
        let l1_sets = (cfg.tlb1.entries / cfg.tlb1.ways) as u64;
        for i in 1..=4u64 {
            t.access(i * l1_sets * cfg.page_bytes);
        }
        assert_eq!(t.access(0), cfg.tlb2_hit_cycles);
    }

    #[test]
    #[should_panic(expected = "multiple of ways")]
    fn bad_geometry_panics() {
        let _ = Tlb::new(63, 4);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_entries_panics() {
        let _ = Tlb::new(0, 4);
    }

    #[test]
    fn counters_track_hits_and_misses() {
        let mut t = Tlb::new(8, 2);
        t.access(1);
        t.access(1);
        t.access(2);
        assert_eq!(t.hits(), 1);
        assert_eq!(t.misses(), 2);
    }
}
