//! Emitted JSON round-trips, names stay in the contract's alphabet, the
//! tables agree with BENCHMARK.json, and `compare` judges by the bounds.

use utpr_benchmark::json::Json;
use utpr_benchmark::report::{compare, result_json, spans_json, table, Outcome};
use utpr_benchmark::spec::{END_TO_END, PER_LAYER, WORKLOADS};
use utpr_benchmark::trace::Tracer;

fn name_ok(n: &str) -> bool {
    !n.is_empty()
        && n.len() <= 64
        && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && n.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn unit_ok(u: &str) -> bool {
    !u.is_empty()
        && u.len() <= 16
        && u.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

fn outcome() -> Outcome {
    let mut o = Outcome {
        attempted: 1_000,
        ..Outcome::default()
    };
    for (i, m) in END_TO_END.iter().enumerate() {
        o.set(m.name, 1.5 + i as f64 / 3.0);
    }
    o.set("kv.store.ns_per_op", 705.1925);
    o.set("sim.model_overhead_hw", 1.0403026309945718);
    o
}

#[test]
fn names_and_units_stay_in_the_contracts_alphabet() {
    let mut seen = std::collections::HashSet::new();
    for w in &WORKLOADS {
        assert!(name_ok(w.name), "{}", w.name);
        assert!(
            w.why.len() <= 200 && !w.why.contains('\n'),
            "{}: why is {} chars",
            w.name,
            w.why.len()
        );
        assert!(seen.insert(w.name));
    }
    for (n, u) in END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
    {
        assert!(name_ok(n), "{n}");
        assert!(unit_ok(u), "{n}: unit {u}");
        assert!(seen.insert(n), "{n} is used twice");
    }
    assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
    assert!(END_TO_END
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s"));
    assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
}

#[test]
fn result_objects_round_trip_and_carry_exactly_the_contracts_keys() {
    let o = outcome();
    for trace in [false, true] {
        let r = result_json(&o, trace);
        let back = Json::parse(&r.encode()).expect("own output parses");
        assert_eq!(back, r);
        let keys: Vec<&str> = r.as_obj().unwrap().keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let metrics = r.get("metrics").unwrap().as_obj().unwrap();
        let want: Vec<&str> = if trace {
            PER_LAYER.iter().map(|m| m.name).collect()
        } else {
            END_TO_END.iter().map(|m| m.name).collect()
        };
        assert_eq!(metrics.len(), want.len());
        for n in want {
            let m = &metrics[n];
            assert!(m.get("value").and_then(Json::as_f64).is_some(), "{n}");
            assert!(
                m.get("unit").and_then(Json::as_str).is_some_and(unit_ok),
                "{n}"
            );
        }
        assert_eq!(table("w", &r).lines().count(), metrics.len());
    }
    // A per-layer metric the workload did not measure reads 0.
    let traced = result_json(&o, true);
    let value = |n: &str| {
        traced
            .get("metrics")
            .unwrap()
            .get(n)
            .unwrap()
            .get("value")
            .unwrap()
            .as_f64()
    };
    assert_eq!(value("serve.server.ping_rtt_p50_us"), Some(0.0));
    assert_eq!(
        value("sim.model_overhead_hw"),
        Some(1.0403026309945718),
        "every digit survives"
    );
    let text = r#"{"a":[1,2.5,-3e-7,"x\n\"y\\ \u00e9"],"b":null,"c":true}"#;
    let parsed = Json::parse(text).unwrap();
    assert_eq!(
        parsed.get("a").unwrap().as_arr().unwrap()[2],
        Json::Num(-3e-7)
    );
    assert_eq!(
        parsed.get("a").unwrap().as_arr().unwrap()[3],
        Json::Str("x\n\"y\\ \u{e9}".into())
    );
    assert_eq!(Json::parse(&parsed.encode()).unwrap(), parsed);
    assert!(Json::parse("{\"a\":1} x").is_err());
}

#[test]
fn spans_round_trip() {
    let mut t = Tracer::new(true);
    let root = t.open("ladder", None);
    let child = t.open("heap.pagestore", root);
    t.close(child);
    t.close(root);
    let j = spans_json("embed_read", t.spans());
    let back = Json::parse(&j.encode()).unwrap();
    let spans = back.as_arr().unwrap();
    assert_eq!(spans.len(), 2);
    assert_eq!(spans[1].get("parent").and_then(Json::as_f64), Some(0.0));
    assert_eq!(spans[0].get("parent"), Some(&Json::Null));
    assert_eq!(
        spans[1].get("workload").and_then(Json::as_str),
        Some("embed_read")
    );
    assert!(spans[0].get("end").unwrap().as_f64() >= spans[1].get("end").unwrap().as_f64());
    // An untraced run records nothing.
    let mut off = Tracer::new(false);
    let id = off.open("x", None);
    off.close(id);
    assert!(off.spans().is_empty());
}

fn doc(ops_per_s: f64, p50: f64, overhead: f64) -> Json {
    let mut e = Outcome {
        attempted: 1,
        ..Outcome::default()
    };
    for m in &END_TO_END {
        e.set(m.name, 1.0);
    }
    e.set("ops_per_s", ops_per_s);
    e.set("p50_us", p50);
    let mut l = Outcome {
        attempted: 1,
        ..Outcome::default()
    };
    l.set("sim.model_overhead_hw", overhead);
    l.set("kv.store.ns_per_op", 700.0 * p50);
    Json::obj([(
        "workloads",
        Json::obj([(
            "sim_paper",
            Json::obj([
                ("end_to_end", result_json(&e, false)),
                ("per_layer", result_json(&l, true)),
            ]),
        )]),
    )])
}

#[test]
fn compare_judges_end_to_end_by_bound_and_exact_metrics_bit_for_bit() {
    let base = doc(1_000.0, 10.0, 1.04);
    let breaches = |b: &Json| -> Vec<String> {
        compare(&base, b)
            .into_iter()
            .filter(|d| d.breach)
            .map(|d| d.metric)
            .collect()
    };
    assert!(breaches(&base).is_empty());
    // Inside the bounds, and better in any amount: fine.
    let bound = |name: &str| END_TO_END.iter().find(|m| m.name == name).unwrap().bound;
    let (ops, p50) = (bound("ops_per_s"), bound("p50_us"));
    let inside = doc(1_000.0 * (1.0 - 0.9 * ops), 10.0 * (1.0 + 0.9 * p50), 1.04);
    assert!(breaches(&inside).is_empty());
    assert!(breaches(&doc(5_000.0, 1.0, 1.04)).is_empty());
    // Outside: each direction is judged the way the metric is better.
    assert_eq!(
        breaches(&doc(1_000.0 * (1.0 - 1.1 * ops), 10.0, 1.04)),
        ["ops_per_s"]
    );
    assert_eq!(
        breaches(&doc(1_000.0, 10.0 * (1.0 + 1.1 * p50), 1.04)),
        ["p50_us"]
    );
    // An exact metric may not move at all, even for the better; a host-time
    // per-layer metric is not judged.
    assert_eq!(
        breaches(&doc(1_000.0, 10.0, 1.0399999)),
        ["sim.model_overhead_hw"]
    );
    let diffs = compare(&base, &doc(1_000.0, 10.0, 1.04));
    assert!(diffs.iter().all(|d| d.metric != "kv.store.ns_per_op"));
    assert_eq!(
        diffs.len(),
        END_TO_END.len()
            + PER_LAYER
                .iter()
                .filter(|m| m.exact && m.on.contains("sim_paper"))
                .count(),
        "exact metrics are judged only on the workloads that measure them"
    );
    // A metric missing on one side is a breach, not a pass.
    let empty = Json::obj([(
        "workloads",
        Json::obj([("sim_paper", Json::obj::<&str>([]))]),
    )]);
    assert!(compare(&base, &empty).iter().all(|d| d.breach));
}

#[test]
fn benchmark_json_repeats_the_tables() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let j = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
        .unwrap();
    let keys: Vec<&str> = j.as_obj().unwrap().keys().map(String::as_str).collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    let field = |o: &Json, k: &str| {
        o.get(k)
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string()
    };

    let workloads = j.get("workloads").unwrap().as_arr().unwrap();
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (got, want) in workloads.iter().zip(&WORKLOADS) {
        assert_eq!(
            (field(got, "name"), field(got, "why")),
            (want.name.into(), want.why.into())
        );
    }
    let e2e = j.get("end_to_end").unwrap().as_arr().unwrap();
    assert_eq!(e2e.len(), END_TO_END.len());
    for (got, want) in e2e.iter().zip(&END_TO_END) {
        assert_eq!(field(got, "name"), want.name);
        assert_eq!(field(got, "unit"), want.unit);
        assert_eq!(field(got, "better"), want.better.label());
        assert_eq!(
            got.get("bound").and_then(Json::as_f64),
            Some(want.bound),
            "{}",
            want.name
        );
    }
    let layers = j.get("per_layer").unwrap().as_arr().unwrap();
    assert_eq!(layers.len(), PER_LAYER.len());
    for (got, want) in layers.iter().zip(&PER_LAYER) {
        assert_eq!(field(got, "name"), want.name);
        assert_eq!(field(got, "unit"), want.unit);
        assert_eq!(field(got, "better"), want.better.label());
        assert_eq!(
            got.as_obj().unwrap().len(),
            3,
            "{}: exactly name, unit, better",
            want.name
        );
    }
    let run_seconds = j.get("run_seconds").and_then(Json::as_f64).unwrap();
    assert!((1.0..=60.0).contains(&run_seconds) && run_seconds.fract() == 0.0);
    assert_eq!(
        j.get("paths").unwrap().as_arr().unwrap(),
        [Json::Str("benchmark".into())]
    );
}
