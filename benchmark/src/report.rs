//! What a run produces and how two runs compare: the table a human reads
//! (`workload metric value unit`), the one-line result the driver reads,
//! the JSON document `--out` gets, and `compare A.json B.json`.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::spec::{Better, END_TO_END, PER_LAYER};
use crate::trace::Span;

/// Result of one workload run.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    /// Failed, refused, lost or wrong-valued ops.
    pub failed: u64,
    /// Gate verdicts beyond per-op checks (contents sweep, validators,
    /// durability oracles): empty means every gate held.
    pub violations: Vec<String>,
    pub metrics: BTreeMap<String, f64>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Counts one checked response.
    #[inline]
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn violation(&mut self, what: String) {
        self.violations.push(what);
    }
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

/// `{"name": {"value": v, "unit": u}, …}` for exactly the metrics `names`
/// lists; a per-layer metric the workload did not measure reads 0.
fn metrics_json<'a>(o: &Outcome, names: impl Iterator<Item = &'a str>) -> Json {
    Json::obj(names.map(|n| {
        let v = o.metrics.get(n).copied().unwrap_or(0.0);
        (
            n,
            Json::obj([
                ("value", Json::Num(v)),
                ("unit", Json::Str(unit_of(n).into())),
            ]),
        )
    }))
}

/// The driver's contract: exactly `correct`, `attempted`, `failed`,
/// `metrics` — every end-to-end metric untraced, every per-layer metric
/// traced.
pub fn result_json(o: &Outcome, trace: bool) -> Json {
    let metrics = if trace {
        metrics_json(o, PER_LAYER.iter().map(|m| m.name))
    } else {
        metrics_json(o, END_TO_END.iter().map(|m| m.name))
    };
    Json::obj([
        ("correct", Json::Bool(o.correct())),
        ("attempted", Json::Num(o.attempted as f64)),
        ("failed", Json::Num(o.failed as f64)),
        ("metrics", metrics),
    ])
}

/// `workload metric value unit`, one line per metric in the result.
pub fn table(workload: &str, result: &Json) -> String {
    let mut out = String::new();
    if let Some(m) = result.get("metrics").and_then(Json::as_obj) {
        for (name, v) in m {
            let value = v.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            let unit = v.get("unit").and_then(Json::as_str).unwrap_or("");
            out.push_str(&format!("{workload} {name} {value} {unit}\n"));
        }
    }
    out
}

pub fn spans_json(workload: &str, spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::Str(s.name.into())),
                    ("start", Json::Num(s.start_ns as f64)),
                    ("end", Json::Num(s.end_ns as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
                    ),
                    ("workload", Json::Str(workload.into())),
                ])
            })
            .collect(),
    )
}

/// One line of `compare`.
#[derive(Clone, Debug, PartialEq)]
pub struct Diff {
    pub workload: String,
    pub metric: String,
    pub a: f64,
    pub b: f64,
    /// Relative change in the *worse* direction (positive = B is worse).
    pub worse_by: f64,
    pub bound: f64,
    pub breach: bool,
}

fn metric_values(doc: &Json) -> BTreeMap<(String, String), f64> {
    let mut out = BTreeMap::new();
    let Some(workloads) = doc.get("workloads").and_then(Json::as_obj) else {
        return out;
    };
    for (w, body) in workloads {
        for section in ["end_to_end", "per_layer"] {
            let Some(m) = body
                .get(section)
                .and_then(|s| s.get("metrics"))
                .and_then(Json::as_obj)
            else {
                continue;
            };
            for (name, v) in m {
                if let Some(x) = v.get("value").and_then(Json::as_f64) {
                    out.insert((w.clone(), name.clone()), x);
                }
            }
        }
    }
    out
}

/// Compares two `--out` documents: every end-to-end metric against its
/// bound, every exact per-layer metric, on the workloads that measure it,
/// for bit-equality. A metric present
/// on one side only is a breach.
pub fn compare(a: &Json, b: &Json) -> Vec<Diff> {
    let (va, vb) = (metric_values(a), metric_values(b));
    let mut out = Vec::new();
    let keys: std::collections::BTreeSet<_> = va.keys().chain(vb.keys()).cloned().collect();
    for key in keys {
        let (bound, better) = if let Some(m) = END_TO_END.iter().find(|m| m.name == key.1) {
            (m.bound, m.better)
        } else if let Some(m) = PER_LAYER.iter().find(|m| m.name == key.1 && m.exact) {
            // Judged on the workloads that measure it; elsewhere it reads 0.
            if !m.on.split(", ").any(|w| w == key.0) {
                continue;
            }
            (0.0, m.better)
        } else {
            continue;
        };
        let (x, y) = (va.get(&key).copied(), vb.get(&key).copied());
        let (Some(x), Some(y)) = (x, y) else {
            out.push(Diff {
                workload: key.0,
                metric: key.1,
                a: x.unwrap_or(f64::NAN),
                b: y.unwrap_or(f64::NAN),
                worse_by: f64::INFINITY,
                bound,
                breach: true,
            });
            continue;
        };
        let rel = if x == y {
            0.0
        } else {
            (y - x) / x.abs().max(f64::MIN_POSITIVE)
        };
        let worse_by = match better {
            Better::Lower => rel,
            Better::Higher => -rel,
        };
        // Exact metrics must be bit-equal in either direction.
        let breach = if bound == 0.0 {
            x.to_bits() != y.to_bits()
        } else {
            worse_by > bound
        };
        out.push(Diff {
            workload: key.0,
            metric: key.1,
            a: x,
            b: y,
            worse_by,
            bound,
            breach,
        });
    }
    out
}
