//! Pins the timing model: a fixed, seeded event stream replayed into the
//! Table IV machine must give the same cycle count, to the bit, and the
//! same value of every `SimStats` counter as the recorded reference.
//!
//! The stream covers all nine `MemEvent` kinds over DRAM and NVM
//! addresses, with same-line, same-page, hot-set and cold accesses so
//! every cache level and both TLB levels hit, miss and evict. It installs
//! more pool ranges than the VALB holds, reinstalls them mid-stream (which
//! flushes the POLB), and measures after a warm-up. The expected values
//! were recorded from the `Vec`-per-set implementation the flat arrays
//! replaced; any change to them is a change to the model, not to its
//! host speed.

use utpr_ptr::{MemEvent, TimingSink};
use utpr_qc::rng::Rng;
use utpr_sim::{Machine, RangeEntry, SimConfig, SimStats};

const NVM: u64 = 1 << 47;
const DRAM: u64 = 0x10_0000;
/// More attachments than the 32-entry VALB holds.
const POOLS: u64 = 40;
const POOL_SPAN: u64 = 4 << 20;
const EVENTS: usize = 40_000;
const WARM_UP: usize = 10_000;
const REMAP_AT: usize = 25_000;

/// Pool `p` covers all but the last page of its span, so a VALB lookup can
/// fall in a gap and find no pool.
fn ranges() -> Vec<RangeEntry> {
    (0..POOLS)
        .map(|p| RangeEntry { base: NVM + p * POOL_SPAN, size: POOL_SPAN - 4096, pool: p as u32 })
        .collect()
}

fn stream(seed: u64) -> Vec<MemEvent> {
    let mut rng = Rng::new(seed);
    let mut last = DRAM;
    (0..EVENTS)
        .map(|_| {
            let region = if rng.below(2) == 0 { DRAM } else { NVM };
            let va = match rng.below(8) {
                0 | 1 => (last & !63) | rng.below(64),
                2 | 3 => (last & !4095) | rng.below(4096),
                4 | 5 => region + rng.below(256 << 10),
                _ => region + rng.below(64 << 20),
            };
            last = va;
            match rng.below(16) {
                0..=4 => MemEvent::Load { va, rel_base: rng.below(2) == 0 },
                5 | 6 => MemEvent::Store { va, rel_base: rng.below(2) == 0 },
                7 => MemEvent::StoreP {
                    va,
                    rs_va2ra: rng.below(2) == 0,
                    rs_ra2va: rng.below(2) == 0,
                    rd_ra2va: rng.below(2) == 0,
                },
                8..=10 => {
                    let pc = 0x400 + rng.below(64) * 4;
                    // Biased by pc, with one outcome in eight flipped.
                    let taken = !(pc >> 2).is_multiple_of(3);
                    MemEvent::Branch { pc, taken: taken ^ (rng.below(8) == 0) }
                }
                11 => MemEvent::Exec(rng.below(12) as u32 + 1),
                12 => MemEvent::PolbAccess { pool: rng.below(48) as u32 },
                13 => MemEvent::ValbAccess {
                    va: NVM + rng.below(POOLS + 4) * POOL_SPAN + rng.below(POOL_SPAN),
                },
                14 => MemEvent::SwRa2Va { pool: rng.below(2048) as u32 },
                _ => MemEvent::SwVa2Ra { va },
            }
        })
        .collect()
}

fn replay(cfg: SimConfig) -> Machine {
    let mut m = Machine::new(cfg);
    m.set_pool_ranges(ranges());
    for (i, ev) in stream(0x601d).into_iter().enumerate() {
        if i == WARM_UP {
            m.reset_measurement();
        }
        if i == REMAP_AT {
            m.set_pool_ranges(ranges());
        }
        m.event(ev);
    }
    m
}

/// The counters no cache geometry or latency can move: they count the
/// stream and what the predictor and lookaside buffers made of it.
fn reference(cycles: f64, l1_misses: u64, l2_misses: u64, l3_misses: u64) -> SimStats {
    SimStats {
        cycles,
        uops: 12_095,
        loads: 9_344,
        stores: 3_806,
        storep: 1_849,
        l1_misses,
        l2_misses,
        l3_misses,
        tlb_walks: 4_881,
        branches: 5_597,
        branch_mispredicts: 2_901,
        polb_accesses: 1_877,
        polb_misses: 648,
        valb_accesses: 1_918,
        valb_misses: 565,
        sw_conversions: 3_741,
    }
}

fn check(cfg: SimConfig, cycles_bits: u64, l1_misses: u64, l2_misses: u64, l3_misses: u64) {
    let m = replay(cfg);
    assert_eq!(m.cycles().to_bits(), cycles_bits, "cycles {}", m.cycles());
    let expected = reference(f64::from_bits(cycles_bits), l1_misses, l2_misses, l3_misses);
    assert_eq!(m.stats(), expected);
}

#[test]
fn table_iv_replay_matches_reference() {
    check(SimConfig::table_iv(), 0x4135_862f_0000_0000, 14_958, 12_675, 10_338);
}

#[test]
fn prefetcher_replay_matches_reference() {
    check(SimConfig::table_iv().with_prefetcher(), 0x4133_75f7_0000_0000, 14_976, 12_582, 8_532);
}

/// A micro-op cost with no exact binary form makes the cycle total depend
/// on the order the machine adds its terms in.
#[test]
fn inexact_uop_cost_replay_matches_reference() {
    let cfg = SimConfig { uop_cpi: 0.37, ..SimConfig::table_iv() };
    check(cfg, 0x4135_7d33_0a3d_72f2, 14_958, 12_675, 10_338);
}
