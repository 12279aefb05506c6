//! A gshare branch predictor with 2-bit saturating counters.
//!
//! The paper models a Pentium-M-class predictor with an 8-cycle
//! misprediction penalty. The interesting consumer is Fig. 13: the SW
//! version's dynamic checks execute real branches whose outcome streams are
//! interleaved at shared helper pcs, and the predictor's mispredictions are
//! what the figure reports.

use crate::config::SimConfig;

/// Next value of a 2-bit saturating counter, indexed `[taken][counter]`.
const NEXT: [[u8; 4]; 2] = [[0, 0, 1, 2], [1, 2, 3, 3]];

/// Gshare predictor: prediction table indexed by `pc ⊕ history`.
#[derive(Clone, Debug)]
pub struct BranchPredictor {
    table: Vec<u8>,
    mask: u64,
    history: u64,
    history_mask: u64,
    branches: u64,
    mispredicts: u64,
}

impl BranchPredictor {
    /// Creates a predictor from the machine configuration.
    ///
    /// # Panics
    ///
    /// Panics if the table size is not a power of two.
    pub fn new(cfg: &SimConfig) -> Self {
        Self::with_params(cfg.predictor_entries, cfg.history_bits)
    }

    /// Creates a predictor with explicit geometry.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two.
    pub fn with_params(entries: usize, history_bits: u32) -> Self {
        assert!(entries.is_power_of_two(), "predictor entries must be a power of two");
        BranchPredictor {
            table: vec![1u8; entries], // weakly not-taken
            mask: entries as u64 - 1,
            history: 0,
            history_mask: (1u64 << history_bits) - 1,
            branches: 0,
            mispredicts: 0,
        }
    }

    /// Predicts and updates with the actual outcome; returns `true` when
    /// the branch was mispredicted.
    #[inline]
    pub fn execute(&mut self, pc: u64, taken: bool) -> bool {
        let idx = ((pc ^ self.history) & self.mask) as usize;
        let counter = &mut self.table[idx];
        let predicted = *counter >= 2;
        *counter = NEXT[usize::from(taken)][usize::from(*counter & 3)];
        self.history = ((self.history << 1) | u64::from(taken)) & self.history_mask;
        self.branches += 1;
        let wrong = predicted != taken;
        self.mispredicts += u64::from(wrong);
        wrong
    }

    /// Branches executed.
    pub fn branches(&self) -> u64 {
        self.branches
    }

    /// Mispredictions observed.
    pub fn mispredicts(&self) -> u64 {
        self.mispredicts
    }

    /// Misprediction rate in [0, 1].
    pub fn miss_rate(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.mispredicts as f64 / self.branches as f64
        }
    }

    /// Clears counters, keeping learned state.
    pub fn reset_counters(&mut self) {
        self.branches = 0;
        self.mispredicts = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn predictor() -> BranchPredictor {
        BranchPredictor::with_params(4096, 12)
    }

    #[test]
    fn learns_strongly_biased_branch() {
        let mut p = predictor();
        for _ in 0..1000 {
            p.execute(0x400, true);
        }
        assert!(p.miss_rate() < 0.05, "biased branch should be learned: {}", p.miss_rate());
    }

    #[test]
    fn learns_alternating_pattern_via_history() {
        let mut p = predictor();
        for i in 0..2000u64 {
            p.execute(0x800, i % 2 == 0);
        }
        // gshare captures the period-2 pattern after warm-up.
        p.reset_counters();
        for i in 0..2000u64 {
            p.execute(0x800, i % 2 == 0);
        }
        assert!(p.miss_rate() < 0.05, "alternation should be learned: {}", p.miss_rate());
    }

    #[test]
    fn random_outcomes_mispredict_heavily() {
        let mut p = predictor();
        let mut x = 0x12345678u64;
        let mut wrongs = 0u64;
        for _ in 0..10_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if p.execute(0xc00, x & 1 == 1) {
                wrongs += 1;
            }
        }
        assert!(wrongs > 3000, "random stream must mispredict often: {wrongs}");
    }

    #[test]
    fn counters_reset_but_state_survives() {
        let mut p = predictor();
        for _ in 0..100 {
            p.execute(0x10, true);
        }
        p.reset_counters();
        assert_eq!(p.branches(), 0);
        p.execute(0x10, true);
        assert_eq!(p.mispredicts(), 0, "learned bias survives reset");
    }
}
