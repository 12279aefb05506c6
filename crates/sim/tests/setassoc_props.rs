//! Differential battery for the flat set-associative arrays: `Cache`, `Tlb`
//! and `Hierarchy` must behave, access for access, like the `Vec`-per-set
//! implementation they replaced, kept below verbatim as the oracle.
//!
//! Random geometries (`sets` in {1, 3, 16, 64, 384}, `ways` in {1, 2, 4,
//! 8}) take streams that mix repeats of the last block, neighbours of it,
//! a hot footprint a few times the capacity, cold addresses and prefetch
//! `touch`es. After every access the hit/miss result and both counters
//! must agree, and so must a probe of an earlier block made on clones of
//! both sides — that probe is what exposes a different victim choice. A
//! coverage guard fails the battery if the streams stop evicting from full
//! sets, so it cannot pass vacuously.

use std::sync::atomic::{AtomicU64, Ordering};

use utpr_qc::prelude::*;
use utpr_sim::cache::{Cache, Hierarchy};
use utpr_sim::config::{CacheCfg, SimConfig};
use utpr_sim::tlb::Tlb;

/// The implementation the flat arrays replaced, verbatim apart from the
/// `evictions` counter the coverage guard reads.
mod oracle {
    use utpr_sim::config::{CacheCfg, SimConfig};

    const INVALID: u64 = u64::MAX;

    #[derive(Clone, Debug)]
    pub struct Cache {
        cfg: CacheCfg,
        tags: Vec<Vec<(u64, u64)>>,
        stamp: u64,
        hits: u64,
        misses: u64,
        pub evictions: u64,
    }

    impl Cache {
        pub fn new(cfg: CacheCfg) -> Self {
            assert!(cfg.sets > 0 && cfg.ways > 0);
            assert!(cfg.line.is_power_of_two());
            Cache {
                cfg,
                tags: vec![vec![(INVALID, 0); cfg.ways]; cfg.sets],
                stamp: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
            }
        }

        pub fn cfg(&self) -> CacheCfg {
            self.cfg
        }

        pub fn access(&mut self, addr: u64) -> bool {
            let line = addr / self.cfg.line;
            let set = (line as usize) % self.cfg.sets;
            let tag = line / self.cfg.sets as u64;
            self.stamp += 1;
            let ways = &mut self.tags[set];
            if let Some(w) = ways.iter_mut().find(|(t, _)| *t == tag) {
                w.1 = self.stamp;
                self.hits += 1;
                return true;
            }
            self.misses += 1;
            let victim = ways
                .iter_mut()
                .min_by_key(|(t, s)| if *t == INVALID { 0 } else { s + 1 })
                .expect("ways nonzero");
            self.evictions += u64::from(victim.0 != INVALID);
            *victim = (tag, self.stamp);
            false
        }

        pub fn hits(&self) -> u64 {
            self.hits
        }

        pub fn misses(&self) -> u64 {
            self.misses
        }

        pub fn touch(&mut self, addr: u64) {
            let line = addr / self.cfg.line;
            let set = (line as usize) % self.cfg.sets;
            let tag = line / self.cfg.sets as u64;
            self.stamp += 1;
            let stamp = self.stamp;
            let ways = &mut self.tags[set];
            if let Some(w) = ways.iter_mut().find(|(t, _)| *t == tag) {
                w.1 = stamp;
                return;
            }
            let victim = ways
                .iter_mut()
                .min_by_key(|(t, s)| if *t == INVALID { 0 } else { s + 1 })
                .expect("ways nonzero");
            self.evictions += u64::from(victim.0 != INVALID);
            *victim = (tag, stamp);
        }
    }

    #[derive(Clone, Debug)]
    pub struct Tlb {
        sets: usize,
        entries: Vec<Vec<(u64, u64)>>,
        stamp: u64,
        hits: u64,
        misses: u64,
        pub evictions: u64,
    }

    impl Tlb {
        pub fn new(entries: usize, ways: usize) -> Self {
            assert!(ways > 0 && entries % ways == 0, "entries must be a multiple of ways");
            let sets = entries / ways;
            Tlb {
                sets,
                entries: vec![vec![(INVALID, 0); ways]; sets],
                stamp: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
            }
        }

        pub fn access(&mut self, page: u64) -> bool {
            let set = (page as usize) % self.sets;
            let tag = page / self.sets as u64;
            self.stamp += 1;
            let ways = &mut self.entries[set];
            if let Some(w) = ways.iter_mut().find(|(t, _)| *t == tag) {
                w.1 = self.stamp;
                self.hits += 1;
                return true;
            }
            self.misses += 1;
            let victim = ways
                .iter_mut()
                .min_by_key(|(t, s)| if *t == INVALID { 0 } else { s + 1 })
                .expect("ways nonzero");
            self.evictions += u64::from(victim.0 != INVALID);
            *victim = (tag, self.stamp);
            false
        }

        pub fn hits(&self) -> u64 {
            self.hits
        }

        pub fn misses(&self) -> u64 {
            self.misses
        }
    }

    #[derive(Clone, Debug)]
    pub struct Hierarchy {
        pub l1: Cache,
        pub l2: Cache,
        pub l3: Cache,
        dram_cycles: u64,
        nvm_cycles: u64,
        prefetch_next_line: bool,
        prefetches: u64,
    }

    impl Hierarchy {
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

        pub fn access(&mut self, addr: u64, is_nvm: bool) -> u64 {
            if self.l1.access(addr) {
                return self.l1.cfg().hit_cycles;
            }
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

        pub fn prefetches(&self) -> u64 {
            self.prefetches
        }
    }
}

const SETS: [usize; 5] = [1, 3, 16, 64, 384];
const WAYS: [usize; 4] = [1, 2, 4, 8];
const LINE: u64 = 64;

/// One step: a selector and a raw draw it is reduced from.
type Step = (u32, u64);

/// Turns steps into `(block, touch)` pairs over abstract block numbers (a
/// line for a cache, a page for a TLB): a quarter repeat the last block, a
/// quarter land next to it, a quarter in a hot footprint of
/// `4 * capacity` blocks, and the rest are cold accesses or hot touches.
fn acts(steps: &[Step], capacity: u64) -> Vec<(u64, bool)> {
    let mut last = 0u64;
    steps
        .iter()
        .map(|&(sel, raw)| {
            let block = match sel % 8 {
                0 | 1 => last,
                2 | 3 => last.saturating_sub(2) + raw % 5,
                4 | 5 | 7 => raw % (4 * capacity),
                _ => raw % (1 << 36),
            };
            last = block;
            (block, sel % 8 == 7)
        })
        .collect()
}

static EVICTIONS: AtomicU64 = AtomicU64::new(0);
static HITS: AtomicU64 = AtomicU64::new(0);
static PROBE_MISSES: AtomicU64 = AtomicU64::new(0);

/// The geometry and stream of one case: set and way indices, the probe
/// draws, and the steps.
type Case = (usize, usize, Vec<u64>, Vec<Step>);

fn check_cache((si, wi, probes, steps): &Case) -> Result<(), String> {
    let cfg = CacheCfg { sets: SETS[*si], ways: WAYS[*wi], line: LINE, hit_cycles: 4 };
    let (mut flat, mut want) = (Cache::new(cfg), oracle::Cache::new(cfg));
    let mut seen = Vec::new();
    for (i, (block, touch)) in acts(steps, (cfg.sets * cfg.ways) as u64).into_iter().enumerate() {
        // Any byte of the line: the split into line and offset is under test.
        let addr = block * LINE + (steps[i].1 >> 40) % LINE;
        if touch {
            flat.touch(addr);
            want.touch(addr);
        } else {
            let hit = want.access(addr);
            prop_assert_eq!(flat.access(addr), hit, "step {i}: access {addr:#x}");
            HITS.fetch_add(u64::from(hit), Ordering::Relaxed);
        }
        seen.push(block);
        prop_assert_eq!((flat.hits(), flat.misses()), (want.hits(), want.misses()), "step {i}");
        let probe = seen[(probes[i % probes.len()] % seen.len() as u64) as usize] * LINE;
        let resident = want.clone().access(probe);
        PROBE_MISSES.fetch_add(u64::from(!resident), Ordering::Relaxed);
        prop_assert_eq!(flat.clone().access(probe), resident, "step {i}: probe {probe:#x}");
    }
    // Every block seen, in order, on the live pair.
    for &block in &seen {
        prop_assert_eq!(flat.access(block * LINE), want.access(block * LINE), "sweep {block:#x}");
    }
    EVICTIONS.fetch_add(want.evictions, Ordering::Relaxed);
    Ok(())
}

fn check_tlb((si, wi, probes, steps): &Case) -> Result<(), String> {
    let (sets, ways) = (SETS[*si], WAYS[*wi]);
    let (mut flat, mut want) = (Tlb::new(sets * ways, ways), oracle::Tlb::new(sets * ways, ways));
    let mut seen = Vec::new();
    // A TLB has no touch: a touch step is a plain access here.
    for (i, (page, _)) in acts(steps, (sets * ways) as u64).into_iter().enumerate() {
        let hit = want.access(page);
        prop_assert_eq!(flat.access(page), hit, "step {i}: page {page:#x}");
        prop_assert_eq!((flat.hits(), flat.misses()), (want.hits(), want.misses()), "step {i}");
        seen.push(page);
        let probe = seen[(probes[i % probes.len()] % seen.len() as u64) as usize];
        prop_assert_eq!(flat.clone().access(probe), want.clone().access(probe), "probe {probe:#x}");
    }
    for &page in &seen {
        prop_assert_eq!(flat.access(page), want.access(page), "sweep {page:#x}");
    }
    EVICTIONS.fetch_add(want.evictions, Ordering::Relaxed);
    Ok(())
}

/// Three random levels, the prefetcher on or off, DRAM and NVM addresses.
type HierCase = ([(usize, usize); 3], bool, Vec<u64>, Vec<Step>);

fn check_hierarchy((levels, prefetch, probes, steps): &HierCase) -> Result<(), String> {
    let level = |(si, wi): (usize, usize), hit_cycles| CacheCfg {
        sets: SETS[si],
        ways: WAYS[wi],
        line: LINE,
        hit_cycles,
    };
    let cfg = SimConfig {
        l1: level(levels[0], 4),
        l2: level(levels[1], 12),
        l3: level(levels[2], 40),
        prefetch_next_line: *prefetch,
        ..SimConfig::table_iv()
    };
    let (mut flat, mut want) = (Hierarchy::new(&cfg), oracle::Hierarchy::new(&cfg));
    let capacity = (cfg.l3.sets * cfg.l3.ways) as u64;
    let mut seen = Vec::new();
    // A hierarchy has no touch of its own: a touch step is an access.
    for (i, (block, _)) in acts(steps, capacity).into_iter().enumerate() {
        let nvm = steps[i].1 >> 63 == 1;
        let addr = (block * LINE) | (u64::from(nvm) << 47);
        let cycles = want.access(addr, nvm);
        prop_assert_eq!(flat.access(addr, nvm), cycles, "step {i}: access {addr:#x}");
        let levels =
            [("l1", &flat.l1, &want.l1), ("l2", &flat.l2, &want.l2), ("l3", &flat.l3, &want.l3)];
        for (name, f, w) in levels {
            prop_assert_eq!((f.hits(), f.misses()), (w.hits(), w.misses()), "step {i}: {name}");
        }
        prop_assert_eq!(flat.prefetches(), want.prefetches(), "step {i}");
        seen.push((addr, nvm));
        let (probe, pnvm) = seen[(probes[i % probes.len()] % seen.len() as u64) as usize];
        let latency = want.clone().access(probe, pnvm);
        prop_assert_eq!(flat.clone().access(probe, pnvm), latency, "step {i}: probe {probe:#x}");
    }
    let evictions = want.l1.evictions + want.l2.evictions + want.l3.evictions;
    EVICTIONS.fetch_add(evictions, Ordering::Relaxed);
    Ok(())
}

#[test]
fn flat_arrays_match_the_vec_per_set_oracle() {
    let stream = (
        collection::vec(any::<u64>(), 1..8),
        collection::vec((any::<u32>(), any::<u64>()), 1..400),
    );
    let case = (0usize..SETS.len(), 0usize..WAYS.len(), stream)
        .prop_map(|(si, wi, (probes, steps))| (si, wi, probes, steps));
    for_all("setassoc::cache", Config::cases(96), case.clone(), |c| check_cache(&c));
    for_all("setassoc::tlb", Config::cases(96), case, |c| check_tlb(&c));
    let level = (0usize..SETS.len(), 0usize..WAYS.len());
    let hier = (
        (level.clone(), level.clone(), level).prop_map(|(a, b, c)| [a, b, c]),
        any::<bool>(),
        collection::vec(any::<u64>(), 1..8),
        collection::vec((any::<u32>(), any::<u64>()), 1..300),
    );
    for_all("setassoc::hierarchy", Config::cases(64), hier, |c| check_hierarchy(&c));

    // Non-vacuity: the streams must have filled sets and evicted from them,
    // hit, and probed lines that were gone. The floors sit far below what
    // the generators produce but catch one that collapsed.
    let (evictions, hits, probe_misses) = (
        EVICTIONS.load(Ordering::Relaxed),
        HITS.load(Ordering::Relaxed),
        PROBE_MISSES.load(Ordering::Relaxed),
    );
    assert!(evictions > 1_000, "only {evictions} evictions from full sets");
    assert!(hits > 1_000, "only {hits} cache hits");
    assert!(probe_misses > 100, "only {probe_misses} probes of evicted lines");
}
