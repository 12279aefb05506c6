//! The POLB and VALB: the paper's two new MMU lookaside structures.
//!
//! - POLB (persistent object lookaside buffer): pool id → base virtual
//!   address, used by `ra2va` (loads through relative pointers, storeP
//!   destination conversion). Backed by the kernel POTB; a miss costs a
//!   POW walk.
//! - VALB (virtual address lookaside buffer): virtual address → pool id,
//!   used by `va2ra` (storeP storing a persistent-half virtual address).
//!   Modelled as a fully-associative range TCAM over the kernel VATB
//!   (a range table of pool attachments); a miss costs a VAW walk.

use crate::config::LookasideCfg;
use crate::setassoc::SetAssoc;

/// Fully-associative LRU buffer keyed by pool id (the POLB): one set of
/// `entries` ways.
#[derive(Clone, Debug)]
pub struct Polb {
    cfg: LookasideCfg,
    pools: SetAssoc,
}

impl Polb {
    /// Creates an empty POLB.
    ///
    /// # Panics
    ///
    /// Panics if the buffer has no entries.
    pub fn new(cfg: LookasideCfg) -> Self {
        Polb { cfg, pools: SetAssoc::new(1, cfg.entries) }
    }

    /// Translates `pool`; returns the latency in cycles (hit latency or the
    /// POW walk on a miss, which also fills the entry).
    #[inline]
    pub fn access(&mut self, pool: u32) -> u64 {
        if self.pools.access(u64::from(pool)) {
            self.cfg.hit_cycles
        } else {
            self.cfg.hit_cycles + self.cfg.walk_cycles
        }
    }

    /// Invalidates everything (pool detach / address-space change).
    pub fn flush(&mut self) {
        self.pools.clear();
    }

    /// Lookups that hit.
    pub fn hits(&self) -> u64 {
        self.pools.hits()
    }

    /// Lookups that missed (POW walks).
    pub fn misses(&self) -> u64 {
        self.pools.misses()
    }

    /// Total lookups.
    pub fn accesses(&self) -> u64 {
        self.hits() + self.misses()
    }

    /// Clears counters, keeping contents.
    pub fn reset_counters(&mut self) {
        self.pools.reset_counters();
    }
}

/// One VALB entry: a pool attachment range (paper: start, size, id).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RangeEntry {
    /// Base virtual address of the attachment.
    pub base: u64,
    /// Size in bytes.
    pub size: u64,
    /// Pool id.
    pub pool: u32,
}

/// Fully-associative range TCAM keyed by address containment (the VALB),
/// backed by a complete range table (the kernel VATB).
#[derive(Clone, Debug)]
pub struct Valb {
    cfg: LookasideCfg,
    entries: Vec<(RangeEntry, u64)>,
    table: Vec<RangeEntry>,
    stamp: u64,
    hits: u64,
    misses: u64,
    unbacked: u64,
}

impl Valb {
    /// Creates an empty VALB with an empty backing VATB.
    pub fn new(cfg: LookasideCfg) -> Self {
        Valb {
            cfg,
            entries: Vec::with_capacity(cfg.entries),
            table: Vec::new(),
            stamp: 0,
            hits: 0,
            misses: 0,
            unbacked: 0,
        }
    }

    /// Replaces the kernel VATB contents (pool attach/detach), flushing the
    /// TCAM.
    pub fn set_ranges(&mut self, ranges: Vec<RangeEntry>) {
        self.table = ranges;
        self.entries.clear();
    }

    /// Translates `va`; returns `(latency, pool)` where `pool` is `None`
    /// when the address belongs to no attached pool (a storeP fault in the
    /// paper's Table I).
    pub fn access(&mut self, va: u64) -> (u64, Option<u32>) {
        self.stamp += 1;
        if let Some(e) = self
            .entries
            .iter_mut()
            .find(|(r, _)| va >= r.base && va < r.base + r.size)
        {
            e.1 = self.stamp;
            self.hits += 1;
            return (self.cfg.hit_cycles, Some(e.0.pool));
        }
        // VAW walk over the VATB range table.
        let found = self
            .table
            .iter()
            .find(|r| va >= r.base && va < r.base + r.size)
            .copied();
        match found {
            Some(r) => {
                self.misses += 1;
                if self.entries.len() < self.cfg.entries {
                    self.entries.push((r, self.stamp));
                } else if let Some(v) = self.entries.iter_mut().min_by_key(|(_, s)| *s) {
                    *v = (r, self.stamp);
                }
                (self.cfg.hit_cycles + self.cfg.walk_cycles, Some(r.pool))
            }
            None => {
                self.unbacked += 1;
                (self.cfg.hit_cycles + self.cfg.walk_cycles, None)
            }
        }
    }

    /// Lookups that hit the TCAM.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that walked the VATB.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Lookups for addresses in no pool.
    pub fn unbacked(&self) -> u64 {
        self.unbacked
    }

    /// Total lookups.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses + self.unbacked
    }

    /// Clears counters, keeping contents.
    pub fn reset_counters(&mut self) {
        self.hits = 0;
        self.misses = 0;
        self.unbacked = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> LookasideCfg {
        LookasideCfg { entries: 2, hit_cycles: 2, walk_cycles: 30 }
    }

    #[test]
    fn polb_hit_after_fill() {
        let mut p = Polb::new(cfg());
        assert_eq!(p.access(7), 32);
        assert_eq!(p.access(7), 2);
        assert_eq!(p.hits(), 1);
        assert_eq!(p.misses(), 1);
    }

    #[test]
    fn polb_lru_eviction() {
        let mut p = Polb::new(cfg());
        p.access(1);
        p.access(2);
        p.access(1); // 2 becomes LRU
        p.access(3); // evicts 2
        assert_eq!(p.access(1), 2, "1 resident");
        assert_eq!(p.access(2), 32, "2 was evicted");
    }

    #[test]
    fn polb_flush_empties() {
        let mut p = Polb::new(cfg());
        p.access(1);
        p.flush();
        assert_eq!(p.access(1), 32);
    }

    #[test]
    fn valb_range_containment() {
        let mut v = Valb::new(cfg());
        v.set_ranges(vec![
            RangeEntry { base: 0x1000, size: 0x1000, pool: 1 },
            RangeEntry { base: 0x8000, size: 0x2000, pool: 2 },
        ]);
        let (lat, pool) = v.access(0x1800);
        assert_eq!((lat, pool), (32, Some(1)));
        let (lat, pool) = v.access(0x1ff8);
        assert_eq!((lat, pool), (2, Some(1)), "same range hits TCAM");
        let (_, pool) = v.access(0x9000);
        assert_eq!(pool, Some(2));
        let (_, pool) = v.access(0x4000);
        assert_eq!(pool, None, "gap between pools");
        assert_eq!(v.unbacked(), 1);
    }

    #[test]
    fn valb_set_ranges_flushes_tcam() {
        let mut v = Valb::new(cfg());
        v.set_ranges(vec![RangeEntry { base: 0, size: 0x1000, pool: 1 }]);
        v.access(0x10);
        v.set_ranges(vec![RangeEntry { base: 0, size: 0x1000, pool: 9 }]);
        let (lat, pool) = v.access(0x10);
        assert_eq!(lat, 32, "TCAM flushed after remap");
        assert_eq!(pool, Some(9));
    }
}
