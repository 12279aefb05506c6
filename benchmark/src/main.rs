//! `utpr-benchmark`: run one workload in this process (the driver's
//! contract: one JSON result as the last line of stdout), run a set of
//! workloads each in a fresh child process, or compare two result files.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use utpr_benchmark::json::Json;
use utpr_benchmark::report::{compare, result_json, spans_json, table};
use utpr_benchmark::spec::{benchmark_json, workload, RUN_SECONDS, WORKLOADS};
use utpr_benchmark::trace::Tracer;
use utpr_benchmark::{host, workloads, RunArgs};

const USAGE: &str = "\
usage: utpr-benchmark [--seed N] [--workload NAME]... [--seconds S] [--trace 0|1] [--out FILE]
       utpr-benchmark compare A.json B.json
       utpr-benchmark spec

One --workload runs it in this process and prints its result object as the
last line. None (= all six) or several run each in a fresh child process.
--trace 1 reports the per-layer metrics (and, in a set, runs every workload
a second time for them); --out writes results and spans as JSON.
spec prints BENCHMARK.json as the tables in src/spec.rs define it.";

struct Cli {
    seed: u64,
    seconds: f64,
    trace: bool,
    workloads: Vec<String>,
    out: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        seed: 1,
        seconds: f64::from(RUN_SECONDS),
        trace: false,
        workloads: Vec::new(),
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--seed" => cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cli.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.seconds > 0.0 && cli.seconds <= 60.0) {
                    return Err("--seconds must lie in (0, 60]".into());
                }
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--workload" => {
                let name = value()?;
                if workload(name).is_none() {
                    let known: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    return Err(format!(
                        "unknown workload {name}; known: {}",
                        known.join(", ")
                    ));
                }
                cli.workloads.push(name.clone());
            }
            "--out" => cli.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cli)
}

/// The `--out` document for one run of one workload.
fn document(cli: &Cli, name: &str, section: &str, result: Json, spans: Option<Json>) -> Json {
    let mut body = vec![(section, result)];
    if let Some(spans) = spans {
        body.push(("spans", spans));
    }
    Json::obj([
        ("seed", Json::Num(cli.seed as f64)),
        ("seconds", Json::Num(cli.seconds)),
        (
            "host",
            Json::obj([("nproc", Json::Num(host::nproc() as f64))]),
        ),
        ("workloads", Json::obj([(name, Json::obj(body))])),
    ])
}

fn run_one(cli: &Cli, name: &str) -> ExitCode {
    let args = RunArgs {
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
    };
    let mut tracer = Tracer::new(cli.trace);
    let outcome = workloads::run(name, &args, &mut tracer);
    for v in &outcome.violations {
        eprintln!("{name}: GATE FAILED: {v}");
    }
    let result = result_json(&outcome, cli.trace);
    if let Some(path) = &cli.out {
        let section = if cli.trace { "per_layer" } else { "end_to_end" };
        let spans = cli.trace.then(|| spans_json(name, tracer.spans()));
        let doc = document(cli, name, section, result.clone(), spans);
        if let Err(e) = std::fs::write(path, doc.encode() + "\n") {
            eprintln!("{name}: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    if !outcome.correct() {
        // A fast-but-wrong run never prints numbers.
        eprintln!(
            "{name}: incorrect: {} of {} ops failed, {} gate violations",
            outcome.failed,
            outcome.attempted,
            outcome.violations.len()
        );
        return ExitCode::FAILURE;
    }
    print!("{}", table(name, &result));
    if !cli.trace {
        println!("{name} host.nproc {} count", host::nproc());
    }
    println!("{}", result.encode());
    ExitCode::SUCCESS
}

/// Runs `name` in a fresh child (the binary re-executes itself), so RSS,
/// allocator state and sockets never leak between workloads. Returns the
/// child's `--out` document.
fn run_child(cli: &Cli, name: &str, trace: bool, part: &Path) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let status = Command::new(exe)
        .args(["--workload", name, "--seed", &cli.seed.to_string()])
        .args([
            "--seconds",
            &cli.seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .arg("--out")
        .arg(part)
        .stdin(Stdio::null())
        .status()
        .map_err(|e| format!("spawn {name}: {e}"))?;
    let text = std::fs::read_to_string(part).map_err(|e| format!("{name}: no result file: {e}"));
    let _ = std::fs::remove_file(part);
    if !status.success() {
        return Err(format!(
            "{name} (trace {}) exited with {status}",
            u8::from(trace)
        ));
    }
    Json::parse(&text?)
}

/// Folds one child's document into the set's.
fn merge(into: &mut Json, from: Json) {
    match (into, from) {
        (Json::Obj(a), Json::Obj(b)) => {
            for (k, v) in b {
                match a.get_mut(&k) {
                    Some(slot) if matches!(slot, Json::Obj(_)) => merge(slot, v),
                    _ => {
                        a.insert(k, v);
                    }
                }
            }
        }
        (slot, v) => *slot = v,
    }
}

fn run_set(cli: &Cli) -> ExitCode {
    let names: Vec<&str> = if cli.workloads.is_empty() {
        WORKLOADS.iter().map(|w| w.name).collect()
    } else {
        cli.workloads.iter().map(String::as_str).collect()
    };
    let part = cli
        .out
        .clone()
        .unwrap_or_else(|| PathBuf::from("utpr-benchmark.json"));
    let mut doc = Json::obj::<String>([]);
    let mut ok = true;
    for name in names {
        for trace in [false, true] {
            if trace && !cli.trace {
                continue;
            }
            let part = part.with_extension(format!("{name}.{}.part", u8::from(trace)));
            match run_child(cli, name, trace, &part) {
                Ok(child) => merge(&mut doc, child),
                Err(e) => {
                    eprintln!("{e}");
                    ok = false;
                }
            }
        }
    }
    if let Some(path) = &cli.out {
        if let Err(e) = std::fs::write(path, doc.encode() + "\n") {
            eprintln!("cannot write {}: {e}", path.display());
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_compare(a: &str, b: &str) -> ExitCode {
    let load = |p: &str| -> Result<Json, String> {
        Json::parse(&std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?)
            .map_err(|e| format!("{p}: {e}"))
    };
    let (a, b) = match (load(a), load(b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let diffs = compare(&a, &b);
    println!("workload metric A B worse_by bound verdict");
    for d in &diffs {
        println!(
            "{} {} {} {} {:+.4} {} {}",
            d.workload,
            d.metric,
            d.a,
            d.b,
            d.worse_by,
            if d.bound == 0.0 {
                "exact".to_string()
            } else {
                format!("{:.2}", d.bound)
            },
            if d.breach { "BREACH" } else { "ok" }
        );
    }
    let breaches = diffs.iter().filter(|d| d.breach).count();
    if diffs.is_empty() {
        eprintln!("nothing to compare: the files share no (workload, metric)");
        return ExitCode::from(2);
    }
    println!("{} comparisons, {breaches} breaches", diffs.len());
    if breaches == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    // A panic on any thread — a worker's, a server shard's, a validator's —
    // ends the process at once: the run is wrong, and nobody is left
    // waiting at a barrier for a thread that is gone.
    std::panic::set_hook(Box::new(|info| {
        eprintln!("utpr-benchmark: {info}");
        std::process::exit(101);
    }));
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match &args[1..] {
            [a, b] => run_compare(a, b),
            _ => {
                eprintln!("{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    if args == ["spec"] {
        println!("{}", benchmark_json());
        return ExitCode::SUCCESS;
    }
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match cli.workloads.as_slice() {
        [one] => run_one(&cli, one),
        _ => run_set(&cli),
    }
}
