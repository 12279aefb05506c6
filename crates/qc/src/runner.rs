//! The property runner: drives a [`Gen`] through `cases`
//! random cases, and on the first failure greedily shrinks the input before
//! reporting.
//!
//! ## Determinism and replay
//!
//! Every property derives its stream from a *base seed* mixed with the
//! property's name, so each test is independent yet bit-stable across runs.
//! The base seed is [`DEFAULT_SEED`] unless the `UTPR_QC_SEED` environment
//! variable overrides it (decimal or `0x`-prefixed hex). A failure report
//! prints the base seed and case index; re-running with
//! `UTPR_QC_SEED=<that seed>` reproduces the identical failure, shrink
//! path included.

use std::cell::Cell;
use std::fmt::Debug;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;

use crate::gen::{Gen, SampleTree};
use crate::rng::{fnv1a, splitmix64, Rng};

/// Base seed used when `UTPR_QC_SEED` is not set.
pub const DEFAULT_SEED: u64 = 0x5EED_u64;

/// Runner configuration.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Number of random cases to execute.
    pub cases: u32,
    /// Cap on accepted shrink steps (adopted simpler failures).
    pub max_shrink_steps: u32,
    /// Cap on total property executions spent shrinking.
    pub max_shrink_execs: u32,
}

impl Config {
    /// A config running `cases` cases with default shrink limits.
    #[must_use]
    pub fn cases(cases: u32) -> Self {
        Config { cases, max_shrink_steps: 2_000, max_shrink_execs: 20_000 }
    }
}

impl Default for Config {
    fn default() -> Self {
        Config::cases(256)
    }
}

/// Parses a seed string: decimal, or hex with a `0x`/`0X` prefix.
pub(crate) fn parse_seed(s: &str) -> Option<u64> {
    let s = s.trim();
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

/// The base seed in effect: `UTPR_QC_SEED` if set and parseable, else
/// [`DEFAULT_SEED`].
#[must_use]
pub fn base_seed() -> u64 {
    match std::env::var("UTPR_QC_SEED") {
        Ok(v) => parse_seed(&v).unwrap_or_else(|| {
            panic!("UTPR_QC_SEED={v:?} is not a decimal or 0x-hex u64")
        }),
        Err(_) => DEFAULT_SEED,
    }
}

thread_local! {
    /// True while the runner executes a property body, so the panic hook
    /// stays silent and the runner formats the failure itself.
    static IN_PROPERTY: Cell<bool> = const { Cell::new(false) };
}

static HOOK: Once = Once::new();

fn install_quiet_hook() {
    HOOK.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !IN_PROPERTY.with(Cell::get) {
                prev(info);
            }
        }));
    });
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panic: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panic: {s}")
    } else {
        "panic: <non-string payload>".to_string()
    }
}

fn run_once<V, F>(prop: &F, value: V) -> Result<(), String>
where
    F: Fn(V) -> Result<(), String>,
{
    IN_PROPERTY.with(|f| f.set(true));
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| prop(value)));
    IN_PROPERTY.with(|f| f.set(false));
    match outcome {
        Ok(result) => result,
        Err(payload) => Err(panic_message(payload)),
    }
}

/// Runs `prop` against `cfg.cases` inputs drawn from `gen`.
///
/// # Panics
///
/// Panics with a replayable report (base seed, case index, original and
/// shrunk counterexamples) on the first property failure. Panics raised by
/// the property body itself are treated as failures and shrunk like
/// assertion failures.
pub fn for_all<G, F>(name: &str, cfg: Config, gen: G, prop: F)
where
    G: Gen,
    F: Fn(<G::Tree as SampleTree>::Value) -> Result<(), String>,
{
    install_quiet_hook();
    let base = base_seed();
    let stream = splitmix64(base ^ fnv1a(name));
    for case in 0..cfg.cases {
        let mut rng = Rng::new(splitmix64(stream ^ u64::from(case)));
        let tree = gen.tree(&mut rng);
        let original = tree.current();
        if let Err(err) = run_once(&prop, tree.current()) {
            let shrunk = shrink(cfg, tree, err, &prop);
            panic!(
                "\n[utpr-qc] property failed: {name}\n\
                 \x20 seed: {base:#x} (replay with UTPR_QC_SEED={base:#x})\n\
                 \x20 case: {case_n}/{cases}\n\
                 \x20 original input: {original:?}\n\
                 \x20 shrunk input ({steps} steps, {execs} executions): {min:?}\n\
                 \x20 error: {err}\n",
                case_n = case + 1,
                cases = cfg.cases,
                steps = shrunk.steps,
                execs = shrunk.execs,
                min = shrunk.value,
                err = shrunk.error,
            );
        }
    }
}

struct Shrunk<V> {
    value: V,
    error: String,
    steps: u32,
    execs: u32,
}

/// Greedy descent: adopt the first simplification candidate that still
/// fails; stop when no candidate fails (a local minimum) or a budget runs
/// out.
fn shrink<T, F>(cfg: Config, tree: T, error: String, prop: &F) -> Shrunk<T::Value>
where
    T: SampleTree,
    F: Fn(T::Value) -> Result<(), String>,
{
    let mut best = tree;
    let mut best_err = error;
    let mut steps = 0u32;
    let mut execs = 0u32;
    'outer: while steps < cfg.max_shrink_steps && execs < cfg.max_shrink_execs {
        for cand in best.simplify() {
            if execs >= cfg.max_shrink_execs {
                break 'outer;
            }
            execs += 1;
            if let Err(err) = run_once(prop, cand.current()) {
                best = cand;
                best_err = err;
                steps += 1;
                continue 'outer;
            }
        }
        break;
    }
    Shrunk { value: best.current(), error: best_err, steps, execs }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_seed_accepts_decimal_and_hex() {
        assert_eq!(parse_seed("42"), Some(42));
        assert_eq!(parse_seed("0x2a"), Some(42));
        assert_eq!(parse_seed("0X2A"), Some(42));
        assert_eq!(parse_seed(" 7 "), Some(7));
        assert_eq!(parse_seed("zzz"), None);
        assert_eq!(parse_seed("0x"), None);
    }

    #[test]
    fn passing_property_completes() {
        for_all("qc::self::pass", Config::cases(64), 0u64..100, |x| {
            if x < 100 { Ok(()) } else { Err("out of range".into()) }
        });
    }

    #[test]
    fn failing_property_reports_shrunk_minimum() {
        let result = panic::catch_unwind(|| {
            for_all("qc::self::fail", Config::cases(64), 0u64..10_000, |x| {
                if x < 500 { Ok(()) } else { Err(format!("{x} too big")) }
            });
        });
        let msg = panic_message(result.expect_err("must fail"));
        assert!(msg.contains("shrunk input"), "{msg}");
        assert!(msg.contains(": 500"), "did not shrink to 500: {msg}");
        assert!(msg.contains("UTPR_QC_SEED"), "{msg}");
    }

    #[test]
    fn panicking_property_is_caught_and_shrunk() {
        let result = panic::catch_unwind(|| {
            for_all("qc::self::panic", Config::cases(64), 0u64..10_000, |x| {
                assert!(x < 500, "{x} too big");
                Ok(())
            });
        });
        let msg = panic_message(result.expect_err("must fail"));
        assert!(msg.contains(": 500"), "did not shrink to 500: {msg}");
        assert!(msg.contains("panic:"), "{msg}");
    }
}
