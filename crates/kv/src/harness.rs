//! Full benchmark harness: builds the machine + environment, loads the
//! workload as warm-up, then measures the operation stream — the procedure
//! behind the paper's Figs. 11–15 and Table V.

use crate::store::KvStore;
use crate::workload::{generate, WorkloadSpec};
use utpr_ds::{AvlTree, BPlusTree, HashMapIndex, IndexOps, LinkedList, RbTree, ScapegoatTree, SplayTree};
use utpr_heap::{AddressSpace, HeapError, TransStats};
use utpr_ptr::{ExecEnv, Mode, PtrStats};
use utpr_sim::{Machine, RangeEntry, SimConfig, SimStats};

/// Result alias.
pub type Result<T> = std::result::Result<T, HeapError>;

/// The six benchmarks of paper Table III.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Benchmark {
    /// Doubly-linked list traversal.
    Ll,
    /// Chained hash map.
    Hash,
    /// Red-black tree.
    Rb,
    /// Splay tree.
    Splay,
    /// AVL tree.
    Avl,
    /// Scapegoat tree.
    Sg,
    /// B+ tree (extension beyond the paper's Table III).
    Bplus,
}

impl Benchmark {
    /// The paper's six benchmarks, in Table III order.
    pub const ALL: [Benchmark; 6] =
        [Benchmark::Ll, Benchmark::Hash, Benchmark::Rb, Benchmark::Splay, Benchmark::Avl, Benchmark::Sg];

    /// The paper's six plus the B+ tree extension.
    pub const ALL_EXTENDED: [Benchmark; 7] = [
        Benchmark::Ll,
        Benchmark::Hash,
        Benchmark::Rb,
        Benchmark::Splay,
        Benchmark::Avl,
        Benchmark::Sg,
        Benchmark::Bplus,
    ];

    /// Table III name.
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::Ll => "LL",
            Benchmark::Hash => "Hash",
            Benchmark::Rb => "RB",
            Benchmark::Splay => "Splay",
            Benchmark::Avl => "AVL",
            Benchmark::Sg => "SG",
            Benchmark::Bplus => "B+",
        }
    }
}

/// Everything one measured run produces.
#[derive(Clone, Debug)]
pub struct BenchResult {
    /// Which benchmark ran.
    pub benchmark: Benchmark,
    /// Which build variant.
    pub mode: Mode,
    /// Measured cycles (post-warm-up).
    pub cycles: f64,
    /// Machine counters.
    pub sim: SimStats,
    /// Runtime pointer counters (Table V material).
    pub ptr: PtrStats,
    /// Functional checksum, for cross-mode soundness assertion.
    pub checksum: u64,
    /// Bytes materialized by the simulated address space at the end of the
    /// run (DRAM + pool images) — the memory-footprint axis of the report.
    pub resident_bytes: u64,
    /// Software-lookaside (sPOLB/sVALB) hit/miss counters for the run,
    /// including warm-up (host-side cache telemetry, not modelled cycles).
    pub trans: TransStats,
}

fn fresh_env(mode: Mode, sim: SimConfig, pool_mb: u64) -> Result<ExecEnv<Machine>> {
    let mut space = AddressSpace::new(0xBEEF);
    let pool = space.create_pool("bench", pool_mb << 20)?;
    let ranges: Vec<RangeEntry> = space
        .attachments()
        .iter()
        .map(|a| RangeEntry { base: a.base.raw(), size: a.size, pool: a.pool.raw() })
        .collect();
    let mut machine = Machine::new(sim);
    machine.set_pool_ranges(ranges);
    Ok(ExecEnv::builder(space).mode(mode).pool(pool).sink(machine).build())
}

fn finish(benchmark: Benchmark, mode: Mode, env: ExecEnv<Machine>, checksum: u64) -> BenchResult {
    let (space, ptr, machine) = env.into_parts();
    BenchResult {
        benchmark,
        mode,
        cycles: machine.cycles(),
        sim: machine.stats(),
        ptr,
        checksum,
        resident_bytes: space.resident_bytes(),
        trans: space.trans_stats(),
    }
}

/// Runs one of the five map benchmarks under the KV harness.
///
/// # Errors
///
/// Propagates allocation/translation failures.
pub fn run_index_bench<I: IndexOps>(
    benchmark: Benchmark,
    mode: Mode,
    sim: SimConfig,
    spec: &WorkloadSpec,
) -> Result<BenchResult> {
    let mut env = fresh_env(mode, sim, 256)?;
    let w = generate(spec);
    let mut store: KvStore<I> = KvStore::create(&mut env)?;
    store.load(&mut env, &w)?;
    // Warm-up done: measure only the operation stream, with warm caches.
    env.sink_mut().reset_measurement();
    env.reset_stats();
    let summary = store.run(&mut env, &w)?;
    Ok(finish(benchmark, mode, env, summary.checksum))
}

/// Runs the LL benchmark: build `nodes` nodes, then iterate the list
/// `passes` times accumulating the 16-byte values (paper §VII-A).
///
/// # Errors
///
/// Propagates allocation/translation failures.
pub fn run_ll_bench(mode: Mode, sim: SimConfig, nodes: u64, passes: u32) -> Result<BenchResult> {
    let mut env = fresh_env(mode, sim, 256)?;
    let mut list = LinkedList::create(&mut env)?;
    let mut rng = crate::rng::Rng::new(7);
    for _ in 0..nodes {
        list.push_back(&mut env, rng.next_u64(), rng.next_u64())?;
    }
    env.sink_mut().reset_measurement();
    env.reset_stats();
    let mut checksum = 0u64;
    for _ in 0..passes {
        checksum = checksum.wrapping_add(list.iter_sum(&mut env)?);
    }
    Ok(finish(Benchmark::Ll, mode, env, checksum))
}

/// Dispatches a benchmark by name.
///
/// For [`Benchmark::Ll`] the workload spec's `records` field is the node
/// count and `operations / records` the number of passes (min 1).
///
/// # Errors
///
/// Propagates allocation/translation failures.
pub fn run_benchmark(
    benchmark: Benchmark,
    mode: Mode,
    sim: SimConfig,
    spec: &WorkloadSpec,
) -> Result<BenchResult> {
    match benchmark {
        Benchmark::Ll => {
            let passes = (spec.operations / spec.records.max(1)).max(1) as u32;
            run_ll_bench(mode, sim, spec.records, passes)
        }
        Benchmark::Hash => run_index_bench::<HashMapIndex>(benchmark, mode, sim, spec),
        Benchmark::Rb => run_index_bench::<RbTree>(benchmark, mode, sim, spec),
        Benchmark::Splay => run_index_bench::<SplayTree>(benchmark, mode, sim, spec),
        Benchmark::Avl => run_index_bench::<AvlTree>(benchmark, mode, sim, spec),
        Benchmark::Sg => run_index_bench::<ScapegoatTree>(benchmark, mode, sim, spec),
        Benchmark::Bplus => run_index_bench::<BPlusTree>(benchmark, mode, sim, spec),
    }
}

/// Checks that every result of one benchmark computed the same answer (the
/// soundness criterion of §VII-B).
///
/// # Errors
///
/// Returns [`HeapError::ModeDivergence`] listing each mode's checksum when
/// they disagree — an `Err`, not a panic, so a divergence detected inside a
/// parallel worker is reportable instead of tearing the pool down.
pub fn verify_mode_agreement(results: &[BenchResult]) -> Result<()> {
    let Some(first) = results.first() else { return Ok(()) };
    if results.iter().all(|r| r.checksum == first.checksum) {
        return Ok(());
    }
    Err(HeapError::ModeDivergence {
        benchmark: first.benchmark.name(),
        details: results
            .iter()
            .map(|r| format!("{}={:#x}", r.mode.label(), r.checksum))
            .collect::<Vec<_>>()
            .join(", "),
    })
}

/// Convenience: runs one benchmark in all four modes and checks that every
/// mode computed the same answer (the soundness criterion of §VII-B).
///
/// # Errors
///
/// Propagates failures from any run; returns
/// [`HeapError::ModeDivergence`] when the modes' checksums disagree.
pub fn run_all_modes(
    benchmark: Benchmark,
    sim: SimConfig,
    spec: &WorkloadSpec,
) -> Result<Vec<BenchResult>> {
    let mut results = Vec::with_capacity(4);
    for mode in Mode::ALL {
        results.push(run_benchmark(benchmark, mode, sim, spec)?);
    }
    verify_mode_agreement(&results)?;
    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> WorkloadSpec {
        WorkloadSpec { records: 300, operations: 1500, read_fraction: 0.95, seed: 4 }
    }

    #[test]
    fn all_modes_agree_for_every_benchmark() {
        for b in Benchmark::ALL {
            let results = run_all_modes(b, SimConfig::table_iv(), &tiny_spec()).unwrap();
            assert_eq!(results.len(), 4);
        }
    }

    #[test]
    fn volatile_is_fastest_hw_close_sw_slowest_on_trees() {
        let results = run_all_modes(Benchmark::Rb, SimConfig::table_iv(), &tiny_spec()).unwrap();
        let by_mode = |m: Mode| results.iter().find(|r| r.mode == m).unwrap().cycles;
        let vol = by_mode(Mode::Volatile);
        let hw = by_mode(Mode::Hw);
        let sw = by_mode(Mode::Sw);
        let explicit = by_mode(Mode::Explicit);
        assert!(hw >= vol, "hw {hw} vs volatile {vol}");
        assert!(sw > hw, "sw {sw} vs hw {hw}");
        assert!(explicit > hw, "explicit {explicit} vs hw {hw}");
    }

    #[test]
    fn hw_uses_fewer_translations_than_explicit() {
        let results = run_all_modes(Benchmark::Avl, SimConfig::table_iv(), &tiny_spec()).unwrap();
        let hw = results.iter().find(|r| r.mode == Mode::Hw).unwrap();
        let ex = results.iter().find(|r| r.mode == Mode::Explicit).unwrap();
        assert!(
            ex.sim.polb_accesses > hw.sim.polb_accesses,
            "explicit {} vs hw {}",
            ex.sim.polb_accesses,
            hw.sim.polb_accesses
        );
    }

    #[test]
    fn sw_executes_dynamic_checks_hw_does_not() {
        let results = run_all_modes(Benchmark::Hash, SimConfig::table_iv(), &tiny_spec()).unwrap();
        let sw = results.iter().find(|r| r.mode == Mode::Sw).unwrap();
        let hw = results.iter().find(|r| r.mode == Mode::Hw).unwrap();
        assert!(sw.ptr.dynamic_checks > 0);
        assert_eq!(hw.ptr.dynamic_checks, 0);
    }

    #[test]
    fn ll_bench_runs_and_checksums_match_across_modes() {
        let mut sums = Vec::new();
        for mode in Mode::ALL {
            let r = run_ll_bench(mode, SimConfig::table_iv(), 500, 3).unwrap();
            sums.push(r.checksum);
        }
        assert!(sums.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn divergent_checksums_are_an_error_not_a_panic() {
        let mut results =
            run_all_modes(Benchmark::Hash, SimConfig::table_iv(), &tiny_spec()).unwrap();
        assert!(verify_mode_agreement(&results).is_ok());
        results[2].checksum ^= 1;
        match verify_mode_agreement(&results) {
            Err(HeapError::ModeDivergence { benchmark, details }) => {
                assert_eq!(benchmark, "Hash");
                assert!(details.contains("sw="), "{details}");
            }
            other => panic!("expected ModeDivergence, got {other:?}"),
        }
        assert!(verify_mode_agreement(&[]).is_ok());
    }
}
