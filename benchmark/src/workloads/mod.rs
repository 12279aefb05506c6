//! The six workloads and the pieces they share.

use std::time::Instant;

use crate::estimator::{median, summarize, Fold, Summary, Window};
use crate::report::Outcome;
use crate::trace::Tracer;
use crate::{host, RunArgs};

pub mod conc;
pub mod embed;
pub mod serve;
pub mod sim;

/// Fewest set-ups timed per untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// A cheap set-up is repeated up to this many times while all repetitions
/// together stay under [`SETUP_BUDGET_S`], so its median rests on more
/// than three short readings.
pub const MAX_SETUP_REPS: usize = 7;
pub const SETUP_BUDGET_S: f64 = 1.5;

/// Fewest measured windows a run reports from, however short `--seconds`.
pub const MIN_WINDOWS: usize = 16;

/// Exact (modelled-count) metrics cover the warm-up window plus this many
/// measured windows — a fixed prefix of the op stream every run completes,
/// so they repeat bit-for-bit whatever the host's speed.
pub const EXACT_WINDOWS: usize = MIN_WINDOWS;

/// One op in this many gets its own span in a traced window.
pub const SPAN_SAMPLE: usize = 64;

/// Runs `workload` and returns its outcome.
///
/// # Panics
///
/// Panics on an unknown workload name (the CLI validates names first).
pub fn run(workload: &str, args: &RunArgs, tracer: &mut Tracer) -> Outcome {
    match workload {
        "serve_open_mixed" => serve::run_open(args, tracer),
        "serve_closed_mixed" => serve::run_closed(args, tracer),
        "embed_read" => embed::run(embed::Kind::Read, args, tracer),
        "embed_txn_write" => embed::run(embed::Kind::TxnWrite, args, tracer),
        "conc_hash_mixed" => conc::run(args, tracer),
        "sim_paper" => sim::run(args, tracer),
        other => panic!("unknown workload {other}"),
    }
}

/// Runs `build` once and returns what it built and how long it took.
pub fn timed<T>(build: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let built = build();
    (built, t0.elapsed().as_secs_f64())
}

/// The measured phase: one discarded warm-up window (index 0), then
/// windows until `seconds` of window time have accumulated and at least
/// [`MIN_WINDOWS`] exist. A traced run alternates: odd windows record
/// spans, even windows do not, so both halves see the same host and their
/// ratio is the tracing overhead; it runs at least [`MIN_WINDOWS`] of each.
pub fn measure(
    args: &RunArgs,
    fold: Fold,
    tracer: &mut Tracer,
    mut window: impl FnMut(usize, &mut Tracer) -> Window,
) -> Phase {
    tracer.set_on(false);
    window(0, tracer);
    let need = if args.trace {
        2 * MIN_WINDOWS
    } else {
        MIN_WINDOWS
    };
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut spent = 0.0;
    let mut i = 1;
    while spent < args.seconds || plain.len() + traced.len() < need {
        let trace_this = args.trace && i % 2 == 1;
        tracer.set_on(trace_this);
        let w = window(i, tracer);
        spent += w.secs;
        if trace_this { &mut traced } else { &mut plain }.push(w);
        i += 1;
    }
    tracer.set_on(args.trace);
    Phase {
        fold,
        plain,
        traced,
    }
}

/// The windows of one measured phase.
pub struct Phase {
    pub fold: Fold,
    pub plain: Vec<Window>,
    pub traced: Vec<Window>,
}

impl Phase {
    pub fn summary(&self) -> Summary {
        summarize(&self.plain, self.fold)
    }
}

/// Fills in what every run reports the same way. `first_setup_s` is the
/// set-up the run measured on; an untraced run repeats it through
/// `rebuild` (each result dropped at once) and reports the median. The
/// repetitions come last, after peak RSS is read, so how the allocator
/// happens to reuse one set-up's memory for the next stays out of
/// `peak_rss_mb`.
pub fn finish<T>(
    o: &mut Outcome,
    args: &RunArgs,
    phase: &Phase,
    first_setup_s: f64,
    mut rebuild: impl FnMut(usize) -> T,
) {
    let s = phase.summary();
    if args.trace {
        o.set(
            "trace.overhead_ratio",
            summarize(&phase.traced, phase.fold).ops_per_s / s.ops_per_s,
        );
        o.set(
            "run.fail_ratio",
            o.failed as f64 / o.attempted.max(1) as f64,
        );
        o.set("run.windows", s.windows as f64);
        o.set("run.samples_per_window", s.samples_per_window as f64);
        o.set("host.nproc", host::nproc() as f64);
        return;
    }
    o.set("ops_per_s", s.ops_per_s);
    match (s.p50_us, s.p99_us) {
        (Some(p50), Some(p99)) => {
            o.set("p50_us", p50);
            o.set("p99_us", p99);
        }
        _ => o.violation(format!(
            "a window holds {} latency samples: too few for p99",
            s.samples_per_window
        )),
    }
    o.set("peak_rss_mb", host::peak_rss_mb());
    let mut times = vec![first_setup_s];
    while times.len() < SETUP_REPS
        || (times.len() < MAX_SETUP_REPS && times.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        let (built, secs) = timed(|| rebuild(times.len()));
        drop(built);
        times.push(secs);
    }
    o.set("setup_s", median(&times));
}
