//! # utpr-kv — the key-value store harness and YCSB-style workloads
//!
//! The paper evaluates its six data structures behind a PMDK-map-style
//! key-value store driven by YCSB (10 k records, 100 k operations, 95 %
//! GET / 5 % SET, latest-distribution keys). This crate reproduces that
//! pipeline end to end:
//!
//! - [`workload`] — zipfian / latest-distribution operation streams;
//! - [`store`] — the KV store generic over any [`utpr_ds::IndexOps`];
//! - [`harness`] — machine + environment assembly, warm-up, and measured
//!   runs producing [`harness::BenchResult`]s for the figure generators.
//!
//! ```
//! use utpr_kv::harness::{run_benchmark, Benchmark};
//! use utpr_kv::workload::WorkloadSpec;
//! use utpr_ptr::Mode;
//! use utpr_sim::SimConfig;
//!
//! let spec = WorkloadSpec { records: 100, operations: 400, read_fraction: 0.95, seed: 1 };
//! let r = run_benchmark(Benchmark::Rb, Mode::Hw, SimConfig::table_iv(), &spec)?;
//! assert!(r.cycles > 0.0);
//! # Ok::<(), utpr_heap::HeapError>(())
//! ```

pub mod conc;
pub mod endurance;
pub mod faultsweep;
pub mod harness;
pub mod mt;
pub mod rng;
pub mod store;
pub mod workload;
pub mod ycsb;

pub use conc::{conc_crash_sweep, ConcSweepSpec};
pub use endurance::{endurance_soak, EnduranceReport, EnduranceSpec};
pub use faultsweep::{
    bitflip_campaign, sweep_structure, BitflipReport, BitflipSpec, CrashPoints, FaultFlavor,
    SweepFailure, SweepReport, SweepSpec,
};
pub use harness::{run_all_modes, run_benchmark, verify_mode_agreement, BenchResult, Benchmark};
pub use mt::{mt_crash_sweep, run_mt_ycsb, MtResult, MtSpec, MtSweepSpec, PARTITIONS};
pub use store::{KvStore, RunSummary};
pub use workload::{generate, KeyStream, KeyUniverse, Op, Workload, WorkloadSpec, Zipfian};
pub use ycsb::{generate_preset, Preset};
