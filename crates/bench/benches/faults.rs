//! Crash-point sweep over the six data structures: for every structure,
//! enumerate the durable-write boundaries of a transaction-wrapped
//! insert/remove workload, crash at each point (exhaustive at small scale,
//! seeded-sampled otherwise), recover, and check invariants + contents.
//! The per-(structure, crash-chunk) grid fans across worker threads.
//!
//! Scale: `UTPR_BENCH_SCALE=small` sweeps exhaustively with tier-1 sized
//! workloads; `medium`/`paper` grow the workload and sample crash points.
//! Replay a failure with `UTPR_QC_SEED=<seed>`. Filter structures with
//! `UTPR_FAULTS_ONLY=RB` (a Table III name).
//!
//! Exits nonzero when any crash point fails an oracle — the sweep is a
//! verification harness as much as a benchmark.

use std::time::Instant;
use utpr_bench::par;
use utpr_bench::report::{BenchReport, Json};
use utpr_kv::faultsweep::{sweep_structure, SweepReport, SweepSpec};
use utpr_kv::Benchmark;

fn spec() -> SweepSpec {
    let seed = utpr_qc::runner::base_seed();
    match std::env::var("UTPR_BENCH_SCALE").as_deref() {
        Ok("small") => SweepSpec::small(seed),
        Ok("medium") => SweepSpec::sampled(seed, 48, 96),
        _ => SweepSpec::sampled(seed, 96, 192),
    }
}

fn report_json(r: &SweepReport) -> Json {
    Json::obj(vec![
        ("benchmark", Json::Str(r.benchmark.to_string())),
        ("crash_points", Json::U64(r.boundaries)),
        ("tested", Json::U64(r.tested)),
        ("rollbacks", Json::U64(r.rollbacks)),
        ("failures", Json::U64(r.failures.len() as u64)),
    ])
}

fn main() {
    let t0 = Instant::now();
    let spec = spec();
    let only = std::env::var("UTPR_FAULTS_ONLY").ok();
    let structures: Vec<Benchmark> = Benchmark::ALL
        .into_iter()
        .filter(|b| only.as_deref().is_none_or(|o| o == b.name()))
        .collect();
    assert!(!structures.is_empty(), "UTPR_FAULTS_ONLY matched no structure");

    let reports: Vec<SweepReport> = par::par_map_auto(&structures, |_, b| {
        sweep_structure(*b, &spec).expect("sweep setup failed")
    });

    println!("\n=== Crash-point sweep (seed {}) ===", spec.points.seed);
    let mut table = utpr_bench::Table::new(&["bench", "crash points", "tested", "rollbacks", "failures"]);
    let mut failed = 0usize;
    for r in &reports {
        table.row(vec![
            r.benchmark.to_string(),
            r.boundaries.to_string(),
            r.tested.to_string(),
            r.rollbacks.to_string(),
            r.failures.len().to_string(),
        ]);
        failed += r.failures.len();
        for f in &r.failures {
            eprintln!("FAIL {}: {f}", r.benchmark);
        }
    }
    println!("{}", table.render());

    let mut report = BenchReport::new("faults", par::jobs(), t0.elapsed());
    report.set_extra("seed", Json::U64(spec.points.seed));
    report.set_extra("total_failures", Json::U64(failed as u64));
    for r in &reports {
        report.push_record(report_json(r));
    }
    report.write();

    if failed > 0 {
        eprintln!("{failed} crash point(s) failed — replay with UTPR_QC_SEED={}", spec.points.seed);
        std::process::exit(1);
    }
}
