//! Set-associative LRU caches and the three-level data hierarchy.

use crate::config::{CacheCfg, SimConfig};
use crate::setassoc::SetAssoc;

/// One set-associative, true-LRU cache level.
///
/// # Examples
///
/// ```
/// use utpr_sim::cache::Cache;
/// use utpr_sim::config::CacheCfg;
///
/// let mut c = Cache::new(CacheCfg { sets: 2, ways: 2, line: 64, hit_cycles: 4 });
/// assert!(!c.access(0x000)); // cold miss
/// assert!(c.access(0x000));  // hit
/// assert!(c.access(0x03f));  // same line
/// ```
#[derive(Clone, Debug)]
pub struct Cache {
    cfg: CacheCfg,
    /// log2 of the line size: an address is a shift away from its line.
    line_shift: u32,
    lines: SetAssoc,
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if sets or ways are zero, or line size is not a power of two.
    pub fn new(cfg: CacheCfg) -> Self {
        assert!(cfg.line.is_power_of_two());
        let lines = SetAssoc::new(cfg.sets, cfg.ways);
        Cache { cfg, line_shift: cfg.line.trailing_zeros(), lines }
    }

    /// Geometry of this cache.
    pub fn cfg(&self) -> CacheCfg {
        self.cfg
    }

    /// Accesses `addr`, updating LRU state; returns `true` on hit.
    /// Misses allocate (write-allocate, no distinction read/write).
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        self.lines.access(addr >> self.line_shift)
    }

    /// Hits observed.
    pub fn hits(&self) -> u64 {
        self.lines.hits()
    }

    /// Misses observed.
    pub fn misses(&self) -> u64 {
        self.lines.misses()
    }

    /// Hit rate in [0, 1]; 0 when never accessed.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits() + self.misses();
        if total == 0 {
            0.0
        } else {
            self.hits() as f64 / total as f64
        }
    }

    /// Clears counters but keeps contents (for post-warm-up measurement).
    pub fn reset_counters(&mut self) {
        self.lines.reset_counters();
    }

    /// Inserts the line containing `addr` without touching the hit/miss
    /// counters — used by prefetchers.
    #[inline]
    pub fn touch(&mut self, addr: u64) {
        self.lines.touch(addr >> self.line_shift);
    }
}

/// The L1/L2/L3 data hierarchy: an access probes levels in order and
/// returns the latency of the first hit (or memory on full miss).
#[derive(Clone, Debug)]
pub struct Hierarchy {
    /// L1 data cache.
    pub l1: Cache,
    /// L2 cache.
    pub l2: Cache,
    /// L3 cache.
    pub l3: Cache,
    dram_cycles: u64,
    nvm_cycles: u64,
    prefetch_next_line: bool,
    prefetches: u64,
}

impl Hierarchy {
    /// Builds the hierarchy from a machine configuration.
    pub fn new(cfg: &SimConfig) -> Self {
        Hierarchy {
            l1: Cache::new(cfg.l1),
            l2: Cache::new(cfg.l2),
            l3: Cache::new(cfg.l3),
            dram_cycles: cfg.dram_cycles,
            nvm_cycles: cfg.nvm_cycles,
            prefetch_next_line: cfg.prefetch_next_line,
            prefetches: 0,
        }
    }

    /// Performs an access; returns its latency in cycles. `is_nvm` selects
    /// the memory latency on a full miss (bit 47 of the virtual address in
    /// the paper's layout).
    #[inline]
    pub fn access(&mut self, addr: u64, is_nvm: bool) -> u64 {
        if self.l1.access(addr) {
            return self.l1.cfg().hit_cycles;
        }
        // A physical-address next-line prefetcher (paper §VI: such
        // prefetchers are unaffected by the pointer-format scheme because
        // data placement in the physical space does not change): on an L1
        // miss, pull the next line into L2/L3.
        if self.prefetch_next_line {
            let next = addr + self.l1.cfg().line;
            self.l1.touch(next);
            self.l2.touch(next);
            self.l3.touch(next);
            self.prefetches += 1;
        }
        if self.l2.access(addr) {
            return self.l2.cfg().hit_cycles;
        }
        if self.l3.access(addr) {
            return self.l3.cfg().hit_cycles;
        }
        if is_nvm {
            self.nvm_cycles
        } else {
            self.dram_cycles
        }
    }

    /// Prefetches issued.
    pub fn prefetches(&self) -> u64 {
        self.prefetches
    }

    /// Clears all counters, keeping contents.
    pub fn reset_counters(&mut self) {
        self.l1.reset_counters();
        self.l2.reset_counters();
        self.l3.reset_counters();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        Cache::new(CacheCfg { sets: 2, ways: 2, line: 64, hit_cycles: 1 })
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Set 0 holds lines 0, 2, 4... (line index mod 2).
        assert!(!c.access(0)); // A (line 0) miss
        assert!(!c.access(2 * 64)); // B miss
        assert!(c.access(0)); // A hit (B is now LRU)
        assert!(!c.access(4 * 64)); // C evicts B
        assert!(c.access(0)); // A still resident
        assert!(!c.access(2 * 64)); // B was evicted
    }

    #[test]
    fn distinct_sets_do_not_interfere() {
        let mut c = tiny();
        c.access(0); // line 0, set 0
        c.access(1 * 64); // set 1
        c.access(3 * 64); // set 1
        c.access(5 * 64); // set 1, evicts line 1
        assert!(c.access(0), "set 0 untouched");
    }

    #[test]
    fn hit_rate_counts() {
        let mut c = tiny();
        c.access(0);
        c.access(0);
        c.access(0);
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 1);
        assert!((c.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
        c.reset_counters();
        assert_eq!(c.hits() + c.misses(), 0);
        assert!(c.access(0), "contents survive counter reset");
    }

    #[test]
    fn hierarchy_latencies_by_level() {
        let cfg = SimConfig::table_iv();
        let mut h = Hierarchy::new(&cfg);
        // Cold: full miss to DRAM.
        assert_eq!(h.access(0x1000, false), cfg.dram_cycles);
        // Now everywhere: L1 hit.
        assert_eq!(h.access(0x1000, false), cfg.l1.hit_cycles);
        // NVM miss latency differs.
        assert_eq!(h.access(1 << 47, true), cfg.nvm_cycles);
    }

    #[test]
    fn prefetcher_pulls_next_line_into_l2() {
        let cfg = SimConfig::table_iv().with_prefetcher();
        let mut h = Hierarchy::new(&cfg);
        // Miss on line 0: next line prefetched into L2.
        h.access(0, false);
        assert_eq!(h.prefetches(), 1);
        // Line 1 hits L1 thanks to the prefetch fill.
        assert_eq!(h.access(64, false), cfg.l1.hit_cycles);
        // Without the prefetcher the same access goes to memory.
        let mut h2 = Hierarchy::new(&SimConfig::table_iv());
        h2.access(0, false);
        assert_eq!(h2.access(64, false), cfg.dram_cycles);
    }

    #[test]
    fn l1_evicted_line_hits_in_l2() {
        let cfg = SimConfig::table_iv();
        let mut h = Hierarchy::new(&cfg);
        h.access(0, false);
        // Thrash L1 set 0 with 8+ conflicting lines (same L1 set, different
        // L2 sets so line 0 survives in L2).
        for i in 1..=8u64 {
            h.access(i * cfg.l1.sets as u64 * cfg.l1.line, false);
        }
        assert_eq!(h.access(0, false), cfg.l2.hit_cycles);
    }
}
