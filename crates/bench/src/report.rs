//! Machine-readable benchmark reports: every regeneration target writes a
//! `BENCH_<name>.json` next to its human-readable table so the repo
//! accumulates a performance trajectory across PRs (cycles, branch
//! mispredicts, POLB/VALB/storeP rates, resident bytes, wall-clock, and
//! the worker count used).
//!
//! Hand-rolled JSON (the workspace has a zero-external-crates policy): a
//! tiny value tree with a serializer that keeps integers exact — `u64`
//! checksums and counters are emitted as JSON integers, never routed
//! through `f64`.
//!
//! Output directory: `UTPR_BENCH_OUT` if set (created if missing),
//! otherwise the current directory.
//!
//! A target also checks its own numbers: each [`BenchReport::gate`] is a
//! named verdict, and [`BenchReport::finish`] is the one place a bench
//! exits nonzero. `scripts/verify.sh` and `scripts/bench_baseline.sh` take
//! that exit status as the gate.

use crate::{par, Scale};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;
use utpr_kv::harness::BenchResult;
use utpr_qc::bench::Bench;

/// A JSON value.
#[derive(Clone, Debug)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Exact unsigned integer.
    U64(u64),
    /// Floating-point number (non-finite values serialize as `null`).
    F64(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience: an object from `(key, value)` pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Serializes the value.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(n) => {
                let _ = write!(out, "{n}");
            }
            Json::F64(x) if x.is_finite() => {
                let _ = write!(out, "{x}");
            }
            Json::F64(_) => out.push_str("null"),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// One run of a benchmark, flattened to the fields the trajectory tracks.
pub fn run_json(r: &BenchResult) -> Json {
    Json::obj(vec![
        ("benchmark", Json::Str(r.benchmark.name().to_string())),
        ("mode", Json::Str(r.mode.label().to_string())),
        ("cycles", Json::F64(r.cycles)),
        ("checksum", Json::U64(r.checksum)),
        ("resident_bytes", Json::U64(r.resident_bytes)),
        ("uops", Json::U64(r.sim.uops)),
        ("loads", Json::U64(r.sim.loads)),
        ("stores", Json::U64(r.sim.stores)),
        ("storep", Json::U64(r.sim.storep)),
        ("branches", Json::U64(r.sim.branches)),
        ("branch_mispredicts", Json::U64(r.sim.branch_mispredicts)),
        ("mispredict_rate", Json::F64(r.sim.mispredict_rate())),
        ("l1_misses", Json::U64(r.sim.l1_misses)),
        ("l2_misses", Json::U64(r.sim.l2_misses)),
        ("l3_misses", Json::U64(r.sim.l3_misses)),
        ("tlb_walks", Json::U64(r.sim.tlb_walks)),
        ("polb_accesses", Json::U64(r.sim.polb_accesses)),
        ("polb_misses", Json::U64(r.sim.polb_misses)),
        ("valb_accesses", Json::U64(r.sim.valb_accesses)),
        ("valb_misses", Json::U64(r.sim.valb_misses)),
        ("storep_fraction", Json::F64(r.sim.storep_fraction())),
        ("valb_fraction", Json::F64(r.sim.valb_fraction())),
        ("polb_fraction", Json::F64(r.sim.polb_fraction())),
        ("dynamic_checks", Json::U64(r.ptr.dynamic_checks)),
        ("checks_elided", Json::U64(r.ptr.checks_elided)),
        ("abs_to_rel", Json::U64(r.ptr.abs_to_rel)),
        ("rel_to_abs", Json::U64(r.ptr.rel_to_abs)),
        ("trans_walks", Json::U64(r.trans.walks)),
        ("trans_epoch_bumps", Json::U64(r.trans.epoch_bumps)),
    ])
}

/// One verdict a target enforces on its own numbers.
struct Gate {
    name: String,
    ok: bool,
    detail: String,
}

/// A `BENCH_<name>.json` report under construction, and the target's run:
/// its scale, worker count, wall clock, replay seed and gates.
pub struct BenchReport {
    name: String,
    scale: Scale,
    jobs: usize,
    start: Instant,
    seed: Option<u64>,
    gates: Vec<Gate>,
    runs: Vec<Json>,
    extra: Vec<(String, Json)>,
}

impl BenchReport {
    /// Starts target `name` ("fig11", "table5", ...): reads the scale and
    /// the worker count from the environment and starts the wall clock.
    ///
    /// # Panics
    ///
    /// Panics on an unknown `UTPR_BENCH_SCALE` (see [`Scale::from_env`]).
    pub fn start(name: &str) -> Self {
        Self::with(name, Scale::from_env(), par::jobs())
    }

    fn with(name: &str, scale: Scale, jobs: usize) -> Self {
        BenchReport {
            name: name.to_string(),
            scale,
            jobs,
            start: Instant::now(),
            seed: None,
            gates: Vec::new(),
            runs: Vec::new(),
            extra: Vec::new(),
        }
    }

    /// The scale this run was started at.
    pub fn scale(&self) -> Scale {
        self.scale
    }

    /// The worker count this run fans its grid across.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Records the seed a failure replays with: it becomes the `seed` field
    /// and the `UTPR_QC_SEED=` line printed under failed gates.
    pub fn set_seed(&mut self, seed: u64) -> &mut Self {
        self.seed = Some(seed);
        self.set_extra("seed", Json::U64(seed))
    }

    /// Records gate `name`'s verdict and a detail line with the measured
    /// value and its bound.
    pub fn gate(&mut self, name: &str, ok: bool, detail: impl Into<String>) -> &mut Self {
        self.gates.push(Gate { name: name.to_string(), ok, detail: detail.into() });
        self
    }

    /// Whether every gate recorded so far held.
    pub fn passed(&self) -> bool {
        self.gates.iter().all(|g| g.ok)
    }

    /// Appends one benchmark run's counters.
    pub fn push_run(&mut self, r: &BenchResult) -> &mut Self {
        self.runs.push(run_json(r));
        self
    }

    /// Appends every run of a suite (in order).
    pub fn push_suite(&mut self, suite: &[Vec<BenchResult>]) -> &mut Self {
        for results in suite {
            for r in results {
                self.push_run(r);
            }
        }
        self
    }

    /// Appends an arbitrary pre-built run record (for targets whose rows
    /// are not `BenchResult`s, e.g. the ablations or the KNN case study).
    pub fn push_record(&mut self, record: Json) -> &mut Self {
        self.runs.push(record);
        self
    }

    /// Appends one record per timing summary of a `utpr_qc` bench run.
    pub fn push_summaries(&mut self, bench: &Bench) -> &mut Self {
        for s in bench.summaries() {
            self.push_record(Json::obj(vec![
                ("name", Json::Str(s.name.clone())),
                ("median_ns", Json::F64(s.median_ns)),
                ("p95_ns", Json::F64(s.p95_ns)),
                ("min_ns", Json::F64(s.min_ns)),
                ("iters_per_sample", Json::U64(s.iters_per_sample)),
                ("samples", Json::U64(s.samples as u64)),
            ]));
        }
        self
    }

    /// Attaches a target-specific top-level field.
    pub fn set_extra(&mut self, key: &str, value: Json) -> &mut Self {
        self.extra.push((key.to_string(), value));
        self
    }

    /// The report as a JSON value; `wall_ms` is the time since [`start`].
    ///
    /// Schema history: 1 = original counters; 2 = adds the interp tier's
    /// guest-MIPS records (`guest_insts`, `guest_mips`, `median_ns`) and
    /// per-function residual-check fractions (`residual` objects); 3 = adds
    /// `ok` and the `gates` verdicts, and `scale` is the parsed scale.
    ///
    /// [`start`]: BenchReport::start
    pub fn to_json(&self) -> Json {
        let gates = self.gates.iter().map(|g| {
            Json::obj(vec![
                ("gate", Json::Str(g.name.clone())),
                ("ok", Json::Bool(g.ok)),
                ("detail", Json::Str(g.detail.clone())),
            ])
        });
        let mut pairs = vec![
            ("schema".to_string(), Json::U64(3)),
            ("name".to_string(), Json::Str(self.name.clone())),
            ("scale".to_string(), Json::Str(self.scale.name().to_string())),
            ("jobs".to_string(), Json::U64(self.jobs as u64)),
            ("wall_ms".to_string(), Json::F64(self.start.elapsed().as_secs_f64() * 1e3)),
            ("ok".to_string(), Json::Bool(self.passed())),
            ("gates".to_string(), Json::Arr(gates.collect())),
        ];
        pairs.extend(self.extra.iter().cloned());
        pairs.push(("runs".to_string(), Json::Arr(self.runs.clone())));
        Json::Obj(pairs)
    }

    /// Ends the target: writes the report, prints every gate's verdict,
    /// and exits with status 1 if any gate failed. A failure line reads
    /// `FAIL <bench>: <gate>: <detail>`, followed by a `UTPR_QC_SEED=`
    /// replay line when the target recorded a seed.
    pub fn finish(&self) {
        self.write();
        for g in &self.gates {
            if g.ok {
                println!("gate {}: {}: ok ({})", self.name, g.name, g.detail);
            } else {
                eprintln!("FAIL {}: {}: {}", self.name, g.name, g.detail);
            }
        }
        if !self.passed() {
            if let Some(seed) = self.seed {
                eprintln!("{}: replay with UTPR_QC_SEED={seed}", self.name);
            }
            std::process::exit(1);
        }
    }

    /// Writes `BENCH_<name>.json` into `UTPR_BENCH_OUT` (or the current
    /// directory) and prints where it went. IO failures are reported on
    /// stderr but never abort the bench — the human-readable table has
    /// already been produced.
    fn write(&self) {
        let dir = std::env::var("UTPR_BENCH_OUT").map(PathBuf::from).unwrap_or_else(|_| ".".into());
        let path = dir.join(format!("BENCH_{}.json", self.name));
        let mut body = self.to_json().render();
        body.push('\n');
        let res = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, body));
        match res {
            Ok(()) => eprintln!("{}: wrote {}", self.name, path.display()),
            Err(e) => eprintln!("{}: could not write {}: {e}", self.name, path.display()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_and_integers_are_exact() {
        let v = Json::obj(vec![
            ("s", Json::Str("a\"b\\c\nd".into())),
            ("big", Json::U64(u64::MAX)),
            ("nan", Json::F64(f64::NAN)),
            ("arr", Json::Arr(vec![Json::Bool(true), Json::Null])),
        ]);
        let s = v.render();
        assert_eq!(
            s,
            "{\"s\":\"a\\\"b\\\\c\\nd\",\"big\":18446744073709551615,\"nan\":null,\"arr\":[true,null]}"
        );
    }

    #[test]
    fn report_shape_has_schema_and_runs() {
        let mut rep = BenchReport::with("unit", Scale::Small, 3);
        rep.set_extra("note", Json::Str("x".into()));
        rep.push_record(Json::obj(vec![("label", Json::Str("row".into()))]));
        let s = rep.to_json().render();
        assert!(s.starts_with("{\"schema\":3,\"name\":\"unit\",\"scale\":\"small\""), "{s}");
        assert!(s.contains("\"jobs\":3"));
        assert!(s.contains("\"wall_ms\":"));
        assert!(s.contains("\"ok\":true,\"gates\":[]"), "{s}");
        assert!(s.contains("\"note\":\"x\""));
        assert!(s.contains("\"runs\":[{\"label\":\"row\"}]"));
    }

    #[test]
    fn a_failed_gate_is_reported_and_fails_the_run() {
        let mut rep = BenchReport::with("unit", Scale::Small, 1);
        rep.set_seed(7).gate("floor", true, "3.4 >= 3");
        assert!(rep.passed());
        rep.gate("ceiling", false, "0.2 > 0.15");
        assert!(!rep.passed());
        let s = rep.to_json().render();
        assert!(s.contains("\"ok\":false"), "{s}");
        assert!(s.contains("{\"gate\":\"floor\",\"ok\":true,\"detail\":\"3.4 >= 3\"}"), "{s}");
        assert!(s.contains("{\"gate\":\"ceiling\",\"ok\":false,\"detail\":\"0.2 > 0.15\"}"), "{s}");
        assert!(s.contains("\"seed\":7"), "{s}");
    }
}
