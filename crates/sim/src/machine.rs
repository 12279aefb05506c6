//! The interval-based core model: turns the [`MemEvent`] stream into cycles.
//!
//! Modelled after the way Sniper accounts time: plain micro-ops cost a
//! fraction of a cycle each (dispatch), memory operations pay the latency of
//! the level they hit (pointer-chasing workloads serialize on loads, so the
//! load-to-use latency is on the critical path), branch mispredictions pay a
//! fixed penalty, and the new structures (POLB, VALB, storeP unit) add their
//! Table IV latencies exactly where the paper's hardware puts them.

use crate::branch::BranchPredictor;
use crate::cache::Hierarchy;
use crate::config::SimConfig;
use crate::lookaside::{Polb, RangeEntry, Valb};
use crate::stats::SimStats;
use utpr_ptr::{MemEvent, TimingSink};

/// The simulated machine. Implements [`TimingSink`] so an
/// [`utpr_ptr::ExecEnv`] can drive it directly.
///
/// # Examples
///
/// ```
/// use utpr_sim::{Machine, SimConfig};
/// use utpr_ptr::{MemEvent, TimingSink};
///
/// let mut m = Machine::new(SimConfig::table_iv());
/// m.event(MemEvent::Exec(4));
/// m.event(MemEvent::Load { va: 0x1000, rel_base: false });
/// assert!(m.cycles() > 0.0);
/// ```
#[derive(Clone, Debug)]
pub struct Machine {
    cfg: SimConfig,
    mem: Hierarchy,
    tlb: crate::tlb::TlbHierarchy,
    predictor: BranchPredictor,
    polb: Polb,
    valb: Valb,
    cycles: f64,
    stats: SimStats,
}

impl Machine {
    /// Creates a machine in the given configuration.
    pub fn new(cfg: SimConfig) -> Self {
        Machine {
            cfg,
            mem: Hierarchy::new(&cfg),
            tlb: crate::tlb::TlbHierarchy::new(&cfg),
            predictor: BranchPredictor::new(&cfg),
            polb: Polb::new(cfg.polb),
            valb: Valb::new(cfg.valb),
            cycles: 0.0,
            stats: SimStats::default(),
        }
    }

    /// The machine configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Installs the kernel VATB contents (pool attachments) used by VAW
    /// walks. Call after pools are attached or moved.
    pub fn set_pool_ranges(&mut self, ranges: Vec<RangeEntry>) {
        self.valb.set_ranges(ranges);
        self.polb.flush();
    }

    /// Elapsed simulated cycles.
    pub fn cycles(&self) -> f64 {
        self.cycles
    }

    /// Counter snapshot (includes derived structure counters).
    pub fn stats(&self) -> SimStats {
        let mut s = self.stats;
        s.cycles = self.cycles;
        s.l1_misses = self.mem.l1.misses();
        s.l2_misses = self.mem.l2.misses();
        s.l3_misses = self.mem.l3.misses();
        s.tlb_walks = self.tlb.walks();
        s.branches = self.predictor.branches();
        s.branch_mispredicts = self.predictor.mispredicts();
        s.polb_accesses = self.polb.accesses();
        s.polb_misses = self.polb.misses();
        s.valb_accesses = self.valb.accesses();
        s.valb_misses = self.valb.misses() + self.valb.unbacked();
        s
    }

    /// Zeroes time and counters but keeps all learned state (warm caches,
    /// TLBs, predictor) — call between warm-up and measurement.
    pub fn reset_measurement(&mut self) {
        self.cycles = 0.0;
        self.stats = SimStats::default();
        self.mem.reset_counters();
        self.tlb.reset_counters();
        self.predictor.reset_counters();
        self.polb.reset_counters();
        self.valb.reset_counters();
    }

    #[inline]
    fn data_access(&mut self, va: u64) -> f64 {
        let t = self.tlb.access(va);
        let m = self.mem.access(va, va & (1 << 47) != 0);
        (t + m) as f64
    }
}

impl TimingSink for Machine {
    fn event(&mut self, ev: MemEvent) {
        match ev {
            MemEvent::Exec(n) => {
                self.stats.uops += u64::from(n);
                self.cycles += f64::from(n) * self.cfg.uop_cpi;
            }
            MemEvent::Load { va, .. } => {
                self.stats.loads += 1;
                self.cycles += self.data_access(va);
            }
            MemEvent::Store { va, .. } => {
                self.stats.stores += 1;
                // Stores are buffered: charge commit cost, update state.
                let _ = self.data_access(va);
                self.cycles += self.cfg.store_cycles as f64;
            }
            MemEvent::StoreP { va, .. } => {
                self.stats.storep += 1;
                let _ = self.data_access(va);
                self.cycles +=
                    (self.cfg.store_cycles + self.cfg.storep_unit_cycles) as f64;
            }
            MemEvent::Branch { pc, taken } => {
                if self.predictor.execute(pc, taken) {
                    self.cycles += self.cfg.branch_penalty as f64;
                }
                self.cycles += self.cfg.uop_cpi;
            }
            MemEvent::PolbAccess { pool } => {
                self.cycles += self.polb.access(pool) as f64;
            }
            MemEvent::ValbAccess { va } => {
                let (lat, _pool) = self.valb.access(va);
                self.cycles += lat as f64;
            }
            MemEvent::SwRa2Va { pool } => {
                // Software table lookup: fixed cost; it also pollutes the
                // data cache with the pool-table line.
                self.stats.sw_conversions += 1;
                let table_va = 0x7000_0000u64 + u64::from(pool % 1024) * 64;
                let _ = self.data_access(table_va);
                self.cycles += self.cfg.sw_ra2va_cycles as f64;
            }
            MemEvent::SwVa2Ra { va } => {
                self.stats.sw_conversions += 1;
                let table_va = 0x7100_0000u64 + (va >> 20) % 4096 * 64;
                let _ = self.data_access(table_va);
                self.cycles += self.cfg.sw_va2ra_cycles as f64;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> Machine {
        Machine::new(SimConfig::table_iv())
    }

    #[test]
    fn exec_uops_cost_fractional_cycles() {
        let mut m = machine();
        m.event(MemEvent::Exec(10));
        assert!((m.cycles() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn repeated_load_gets_cheaper() {
        let mut m = machine();
        m.event(MemEvent::Load { va: 0x2000, rel_base: false });
        let cold = m.cycles();
        m.event(MemEvent::Load { va: 0x2000, rel_base: false });
        let warm = m.cycles() - cold;
        assert!(warm < cold, "warm {warm} cold {cold}");
        assert_eq!(warm, 4.0, "L1 hit latency");
    }

    #[test]
    fn nvm_loads_cost_more_than_dram_when_cold() {
        let cfg = SimConfig::table_iv();
        let mut m = Machine::new(cfg);
        m.event(MemEvent::Load { va: 0x10_0000, rel_base: false });
        let dram = m.cycles();
        m.reset_measurement();
        m.event(MemEvent::Load { va: (1 << 47) | 0x10_0000, rel_base: false });
        let nvm = m.cycles();
        assert!(nvm > dram);
        assert_eq!(nvm - dram, (cfg.nvm_cycles - cfg.dram_cycles) as f64);
    }

    #[test]
    fn mispredicted_branch_pays_penalty() {
        let mut m = machine();
        // Train taken, then surprise.
        for _ in 0..100 {
            m.event(MemEvent::Branch { pc: 0x40, taken: true });
        }
        let before = m.cycles();
        m.event(MemEvent::Branch { pc: 0x40, taken: false });
        let delta = m.cycles() - before;
        assert!(delta >= 8.0, "penalty paid: {delta}");
    }

    #[test]
    fn polb_valb_latencies_accumulate() {
        let cfg = SimConfig::table_iv();
        let mut m = machine();
        m.set_pool_ranges(vec![RangeEntry { base: 1 << 47, size: 1 << 20, pool: 3 }]);
        m.event(MemEvent::PolbAccess { pool: 3 });
        let cold = m.cycles();
        assert_eq!(cold, (cfg.polb.hit_cycles + cfg.polb.walk_cycles) as f64, "miss: hit + walk");
        m.event(MemEvent::PolbAccess { pool: 3 });
        assert_eq!(m.cycles() - cold, cfg.polb.hit_cycles as f64, "hit");
        m.event(MemEvent::ValbAccess { va: (1 << 47) + 0x100 });
        m.event(MemEvent::ValbAccess { va: (1 << 47) + 0x200 });
        let s = m.stats();
        assert_eq!(s.valb_accesses, 2);
        assert_eq!(s.valb_misses, 1);
    }

    #[test]
    fn reset_measurement_keeps_warm_state() {
        let mut m = machine();
        m.event(MemEvent::Load { va: 0x3000, rel_base: false });
        m.reset_measurement();
        assert_eq!(m.cycles(), 0.0);
        m.event(MemEvent::Load { va: 0x3000, rel_base: false });
        assert_eq!(m.cycles(), 4.0, "cache stayed warm");
    }

    #[test]
    fn stats_snapshot_counts_events() {
        let mut m = machine();
        m.event(MemEvent::Exec(2));
        m.event(MemEvent::Load { va: 1 << 13, rel_base: false });
        m.event(MemEvent::Store { va: 1 << 13, rel_base: false });
        m.event(MemEvent::StoreP { va: 1 << 13, rs_va2ra: false, rs_ra2va: false, rd_ra2va: false });
        m.event(MemEvent::SwRa2Va { pool: 1 });
        let s = m.stats();
        assert_eq!(s.uops, 2);
        assert_eq!(s.loads, 1);
        assert_eq!(s.stores, 1);
        assert_eq!(s.storep, 1);
        assert_eq!(s.sw_conversions, 1);
        assert!(s.cycles > 0.0);
    }
}
