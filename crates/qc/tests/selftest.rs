//! The harness testing itself, end to end through the public macro API:
//! planted failing properties must shrink to their minimal counterexample,
//! reports must carry everything needed to replay, and generation must be
//! bit-stable for a fixed seed.

use std::panic;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;

use utpr_qc::gen::SampleTree;
use utpr_qc::prelude::*;
use utpr_qc::rng::Rng;
use utpr_qc::runner::{base_seed, DEFAULT_SEED};

fn failure_message(run: impl FnOnce()) -> String {
    let payload = panic::catch_unwind(panic::AssertUnwindSafe(run))
        .expect_err("planted property must fail");
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        payload.downcast_ref::<&str>().map(ToString::to_string).unwrap_or_default()
    }
}

/// A planted scalar failure (`x < 500` over `0..10_000`) shrinks to the
/// exact boundary, 500, and the report carries the replay seed.
#[test]
fn planted_scalar_failure_shrinks_to_boundary() {
    let msg = failure_message(|| {
        for_all("selftest::scalar", Config::cases(128), 0u64..10_000, |x| {
            prop_assert!(x < 500, "{x} crossed the boundary");
            Ok(())
        });
    });
    assert!(msg.contains("shrunk input"), "{msg}");
    assert!(msg.contains(": 500"), "not minimal: {msg}");
    assert!(msg.contains("UTPR_QC_SEED="), "no replay seed: {msg}");
    assert!(msg.contains("crossed the boundary"), "original error lost: {msg}");
}

/// A planted vector failure (`len < 5`) shrinks to the minimal witness:
/// exactly five elements, all at the generator's origin.
#[test]
fn planted_vec_failure_shrinks_to_minimal_witness() {
    let msg = failure_message(|| {
        for_all(
            "selftest::vector",
            Config::cases(128),
            collection::vec(0u64..1_000, 1..60),
            |v| {
                prop_assert!(v.len() < 5);
                Ok(())
            },
        );
    });
    assert!(msg.contains("[0, 0, 0, 0, 0]"), "not minimal: {msg}");
}

/// Shrinking also minimises through `prop_map` and `one_of!` arms: a
/// mapped/unioned step sequence shrinks to one offending element.
#[test]
fn planted_union_failure_shrinks_through_map() {
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Step {
        Get(u64),
        Put(u64),
    }
    let gen = collection::vec(
        one_of![
            3 => (0u64..100).prop_map(Step::Get),
            1 => (0u64..100).prop_map(Step::Put),
        ],
        1..40,
    );
    let msg = failure_message(|| {
        for_all("selftest::union", Config::cases(256), gen, |steps| {
            prop_assert!(!steps.iter().any(|s| matches!(s, Step::Put(_))));
            Ok(())
        });
    });
    assert!(msg.contains("[Put(0)]"), "not minimal: {msg}");
}

/// The macro surface runs every case: a counting property sees exactly
/// `cases` executions.
#[test]
fn props_macro_runs_every_case() {
    static RUNS: AtomicU32 = AtomicU32::new(0);
    props! {
        #![cases(96)]
        fn counting(_x in any::<u64>()) {
            RUNS.fetch_add(1, Ordering::Relaxed);
        }
    }
    counting();
    assert_eq!(RUNS.load(Ordering::Relaxed), 96);
}

/// Same seed, same data: two full generation passes produce identical
/// values, and the distribution actually spans the requested range.
#[test]
fn generation_is_seeded_stable_and_spread() {
    let gen = collection::vec((0u64..1_000, any::<bool>()), 1..50);
    let pass = |seed: u64| -> Vec<Vec<(u64, bool)>> {
        let mut rng = Rng::new(seed);
        (0..64).map(|_| gen.tree(&mut rng).current()).collect()
    };
    let a = pass(99);
    let b = pass(99);
    assert_eq!(a, b, "same seed must replay bit-identically");
    let c = pass(100);
    assert_ne!(a, c, "different seeds should diverge");

    // Distribution sanity: the samples cover low, middle and high thirds.
    let flat: Vec<u64> = a.iter().flatten().map(|(k, _)| *k).collect();
    assert!(flat.iter().any(|k| *k < 333));
    assert!(flat.iter().any(|k| (333..666).contains(k)));
    assert!(flat.iter().any(|k| *k >= 666));
}

/// `UTPR_QC_SEED` overrides the base seed and changes the generated
/// stream; without it the documented default applies. (Env mutation is
/// process-global, so both directions are probed in one test, serialised
/// behind a lock against any future env-touching test.)
#[test]
fn env_seed_overrides_default() {
    static ENV_LOCK: Mutex<()> = Mutex::new(());
    let _guard = ENV_LOCK.lock().unwrap();

    assert_eq!(base_seed(), DEFAULT_SEED);
    // SAFETY: serialised by ENV_LOCK; no other thread reads the variable
    // concurrently in this test binary.
    unsafe { std::env::set_var("UTPR_QC_SEED", "0xABCDEF") };
    let overridden = base_seed();
    unsafe { std::env::set_var("UTPR_QC_SEED", "12345") };
    let decimal = base_seed();
    unsafe { std::env::remove_var("UTPR_QC_SEED") };

    assert_eq!(overridden, 0xABCDEF);
    assert_eq!(decimal, 12345);
    assert_eq!(base_seed(), DEFAULT_SEED);
}

// ---- linearizability checker self-tests ------------------------------------
//
// The checker is itself an oracle, so it gets the same treatment as the
// shrinker above: randomly generated *known-good* histories must always be
// accepted, and planted corruptions of those same histories must always be
// rejected — with a non-vacuity guard proving each corruption really
// changed an observable result rather than rewriting a no-op.

use std::collections::BTreeMap;
use utpr_qc::linear::{check, History, KvOp};

/// Applies `op` to the model and returns the result a sequential run
/// would have recorded.
fn model_apply(model: &mut BTreeMap<u64, u64>, op: KvOp) -> Option<u64> {
    match op {
        KvOp::Insert(k, v) => model.insert(k, v),
        KvOp::Remove(k) => model.remove(&k),
        KvOp::Get(k) => model.get(&k).copied(),
    }
}

fn op_gen() -> impl Gen<Tree: SampleTree<Value = KvOp>> {
    (0u64..4, 0u64..6, 0u64..1_000).prop_map(|(kind, k, v)| match kind {
        0 | 1 => KvOp::Insert(k, v),
        2 => KvOp::Get(k),
        _ => KvOp::Remove(k),
    })
}

/// Every sequentially executed history — each op completed before the
/// next begins, results taken from the model — is trivially
/// linearizable, across interleaved "threads".
#[test]
fn checker_accepts_generated_sequential_histories() {
    for_all(
        "selftest::linear-good",
        Config::cases(64),
        collection::vec(op_gen(), 1..24),
        |ops| {
            let mut hist = History::new();
            let mut model = BTreeMap::new();
            for (i, &op) in ops.iter().enumerate() {
                let id = hist.begin((i % 3) as u32, op);
                hist.complete(id, model_apply(&mut model, op));
            }
            prop_assert!(
                check(&hist).is_ok(),
                "sequential history refused: {:?}",
                check(&hist)
            );
            Ok(())
        },
    );
}

/// Histories with real overlap that are linearizable by construction:
/// results come from running the ops sequentially on the model, then each
/// op's invocation is moved earlier and its response later (never past
/// its own sequential slot), ties broken in a generated shuffled order.
/// The sequential order stays a legal witness, so the checker must accept.
#[test]
fn checker_accepts_generated_overlapping_histories() {
    let gen = collection::vec((op_gen(), any::<u64>(), any::<u64>(), any::<u64>()), 1..16);
    for_all("selftest::linear-overlap", Config::cases(128), gen, |steps| {
        let n = steps.len();
        let mut model = BTreeMap::new();
        let results: Vec<Option<u64>> =
            steps.iter().map(|(op, ..)| model_apply(&mut model, *op)).collect();
        // Op i is invoked at slot begin[i] <= i and responds at slot
        // end[i] >= i, so slot i lies inside its interval.
        let begin: Vec<usize> =
            (0..n).map(|i| i - (steps[i].1 % (i as u64 + 1)) as usize).collect();
        let end: Vec<usize> = (0..n).map(|i| i + (steps[i].2 % (n - i) as u64) as usize).collect();
        let mut hist = History::new();
        let mut ids = vec![0; n];
        for slot in 0..n {
            let mut starting: Vec<usize> = (0..n).filter(|&i| begin[i] == slot).collect();
            starting.sort_by_key(|&i| steps[i].3);
            for i in starting {
                ids[i] = hist.begin((i % 3) as u32, steps[i].0);
            }
            let mut ending: Vec<usize> = (0..n).filter(|&i| end[i] == slot).collect();
            ending.sort_by_key(|&i| steps[i].3);
            for i in ending {
                hist.complete(ids[i], results[i]);
            }
        }
        prop_assert!(check(&hist).is_ok(), "overlapping history refused: {:?}", check(&hist));
        Ok(())
    });
}

/// Corrupting one completed op's recorded result must flip the verdict.
/// Vacuity guard: the corruption is skipped (and the case discarded as
/// trivially passing) unless it changes the result another value could
/// legitimately have produced — i.e. the planted value differs from the
/// recorded one and from every value the key ever held.
#[test]
fn checker_rejects_planted_result_corruption() {
    let corrupted = AtomicU32::new(0);
    for_all(
        "selftest::linear-bad",
        Config::cases(64),
        (collection::vec(op_gen(), 1..24), 0u64..24),
        |(ops, victim)| {
            let mut hist = History::new();
            let mut model = BTreeMap::new();
            let mut results = Vec::new();
            for (i, &op) in ops.iter().enumerate() {
                let id = hist.begin((i % 3) as u32, op);
                let r = model_apply(&mut model, op);
                hist.complete(id, r);
                results.push((id, r));
            }
            let (id, honest) = results[(victim as usize) % results.len()];
            // A value no op in this history ever wrote: honest results are
            // either None or < 1_000, so 0xBAD_0000 can never be produced
            // by any linearization — the corruption is guaranteed real.
            let planted = Some(0xBAD_0000u64);
            assert_ne!(honest, planted, "vacuous corruption");
            hist.corrupt_result(id, planted);
            corrupted.fetch_add(1, Ordering::Relaxed);
            prop_assert!(
                check(&hist).is_err(),
                "corrupted result at op {id} went undetected"
            );
            Ok(())
        },
    );
    assert!(
        corrupted.load(Ordering::Relaxed) >= 64,
        "non-vacuity: every case must plant a corruption"
    );
}

/// A genuinely concurrent overlap is accepted in both completion orders
/// (commuting histories), while an impossible read is rejected — the
/// fixed known-good/known-bad pair guarding against a checker that
/// accepts or rejects everything.
#[test]
fn checker_known_good_and_known_bad_fixed_points() {
    // Two overlapping inserts on different keys, then reads of both.
    let mut good = History::new();
    let a = good.begin(0, KvOp::Insert(1, 10));
    let b = good.begin(1, KvOp::Insert(2, 20));
    good.complete(b, None);
    good.complete(a, None);
    let ra = good.begin(0, KvOp::Get(1));
    good.complete(ra, Some(10));
    let rb = good.begin(1, KvOp::Get(2));
    good.complete(rb, Some(20));
    assert!(check(&good).is_ok(), "{:?}", check(&good));

    // Same shape, but the read returns a value never written anywhere.
    let mut bad = History::new();
    let a = bad.begin(0, KvOp::Insert(1, 10));
    bad.complete(a, None);
    let r = bad.begin(1, KvOp::Get(1));
    bad.complete(r, Some(99));
    assert!(check(&bad).is_err(), "phantom read accepted");
}

/// A candidate the search rejects must leave the model as it found it.
/// B = `Insert(1, 20) -> Some(10)` is invoked first, then A =
/// `Insert(1, 10) -> None`; both overlap. B cannot go first, and A must
/// then be judged against the empty map, not against B's rejected effect.
#[test]
fn checker_restores_the_model_after_a_rejected_candidate() {
    let mut h = History::new();
    let b = h.begin(1, KvOp::Insert(1, 20));
    let a = h.begin(0, KvOp::Insert(1, 10));
    h.complete(a, None);
    h.complete(b, Some(10));
    assert_eq!(check(&h), Ok(vec![a, b]));
}
