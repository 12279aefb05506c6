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

/// A history with real overlap that is linearizable by construction. Each
/// step is `(op, early, late, tie)`: results come from running the ops
/// sequentially on the model, then op i's invocation is moved up to
/// `widen` slots earlier (`early` picks how far) and its response up to
/// `widen` slots later (`late`), never past either end, ties broken by
/// `tie`. Slot i stays inside op i's interval, so the sequential order is
/// a legal witness. The first `pending` ops in `tie` order never respond.
fn overlapping_history(steps: &[(KvOp, u64, u64, u64)], widen: u64, pending: usize) -> History {
    let n = steps.len();
    let mut model = BTreeMap::new();
    let results: Vec<Option<u64>> =
        steps.iter().map(|(op, ..)| model_apply(&mut model, *op)).collect();
    let mut by_tie: Vec<usize> = (0..n).collect();
    by_tie.sort_by_key(|&i| steps[i].3);
    let (mut starts, mut ends) = (vec![Vec::new(); n], vec![Vec::new(); n]);
    for (rank, &i) in by_tie.iter().enumerate() {
        let (_, early, late, _) = steps[i];
        starts[i - (early % ((i as u64).min(widen) + 1)) as usize].push(i);
        if rank >= pending {
            ends[i + (late % (((n - 1 - i) as u64).min(widen) + 1)) as usize].push(i);
        }
    }
    let mut hist = History::new();
    let mut ids = vec![0; n];
    for slot in 0..n {
        for &i in &starts[slot] {
            ids[i] = hist.begin((i % 3) as u32, steps[i].0);
        }
        for &i in &ends[slot] {
            hist.complete(ids[i], results[i]);
        }
    }
    hist
}

/// Generated overlapping histories, stretched without bound, are always
/// accepted.
#[test]
fn checker_accepts_generated_overlapping_histories() {
    let gen = collection::vec((op_gen(), any::<u64>(), any::<u64>(), any::<u64>()), 1..16);
    for_all("selftest::linear-overlap", Config::cases(128), gen, |steps| {
        let hist = overlapping_history(&steps, u64::MAX, 0);
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

/// How far the wide and differential histories below stretch each op's
/// invocation and response, in slots.
const WIDEN: u64 = 8;

/// 10 000 ops over 64 keys from a seeded sequential run, stretched by up
/// to [`WIDEN`] slots each way.
fn ten_thousand_ops() -> History {
    let mut rng = Rng::new(0x10_000);
    let steps: Vec<(KvOp, u64, u64, u64)> = (0..10_000)
        .map(|_| {
            let k = rng.below(64);
            let op = match rng.below(4) {
                0 | 1 => KvOp::Insert(k, rng.below(1_000)),
                2 => KvOp::Get(k),
                _ => KvOp::Remove(k),
            };
            (op, rng.next_u64(), rng.next_u64(), rng.next_u64())
        })
        .collect();
    overlapping_history(&steps, WIDEN, 0)
}

/// The checker has no size cap: the 10 000-op history is accepted with
/// every op in the witness.
#[test]
fn checker_accepts_a_ten_thousand_op_history() {
    let witness = check(&ten_thousand_ops()).expect("widened sequential history refused");
    assert_eq!(witness.len(), 10_000);
}

/// One planted result among 10 000 ops is refuted, and the report names
/// the key it was planted on.
#[test]
fn checker_refutes_one_planted_result_among_ten_thousand_ops() {
    let mut hist = ten_thousand_ops();
    let victim = 6_173;
    let (KvOp::Insert(key, _) | KvOp::Remove(key) | KvOp::Get(key)) = hist.ops()[victim].op;
    hist.corrupt_result(victim, Some(0xBAD_0000));
    let err = check(&hist).expect_err("planted result went undetected");
    assert!(err.contains(&format!("key {key}:")), "{err}");
}

/// The whole-history search the per-key checker replaced, kept verbatim as
/// a test-only oracle. `OpRecord::is_pending` is private to the library,
/// so a local trait supplies it.
mod whole_history {
    use super::model_apply as apply;
    use std::collections::{BTreeMap, HashSet};
    use std::hash::{Hash, Hasher};
    use utpr_qc::linear::{History, KvOp, OpRecord};

    /// Hard cap on checkable history size (the linearized set is a `u128`
    /// bit mask).
    pub const MAX_OPS: usize = 128;

    trait Pending {
        fn is_pending(&self) -> bool;
    }

    impl Pending for OpRecord {
        fn is_pending(&self) -> bool {
            self.result.is_none()
        }
    }

    fn state_hash(model: &BTreeMap<u64, u64>) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        for (k, v) in model {
            k.hash(&mut h);
            v.hash(&mut h);
        }
        h.finish()
    }

    pub fn check(history: &History) -> Result<Vec<usize>, String> {
        let ops = history.ops();
        let n = ops.len();
        assert!(n <= MAX_OPS, "history of {n} ops exceeds MAX_OPS={MAX_OPS}");
        let completed_mask: u128 =
            ops.iter().enumerate().filter(|(_, o)| !o.is_pending()).fold(0, |m, (i, _)| m | 1 << i);

        let mut memo: HashSet<(u128, u64)> = HashSet::new();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        let mut order: Vec<usize> = Vec::with_capacity(n);
        let mut best_placed = 0usize;
        let mut blocked_at: Option<usize> = None;

        #[allow(clippy::too_many_arguments)]
        fn dfs(
            ops: &[OpRecord],
            completed_mask: u128,
            mask: u128,
            model: &mut BTreeMap<u64, u64>,
            memo: &mut HashSet<(u128, u64)>,
            order: &mut Vec<usize>,
            best_placed: &mut usize,
            blocked_at: &mut Option<usize>,
        ) -> bool {
            if mask & completed_mask == completed_mask {
                return true; // every completed op placed; pending rest dropped
            }
            if !memo.insert((mask, state_hash(model))) {
                return false;
            }
            // Earliest response among unplaced ops bounds who may go next.
            let min_ret = ops
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) == 0)
                .map(|(_, o)| o.ret)
                .min()
                .unwrap_or(u64::MAX);
            for i in 0..ops.len() {
                if mask & (1 << i) != 0 || ops[i].invoke > min_ret {
                    continue;
                }
                let o = &ops[i];
                let key = match o.op {
                    KvOp::Insert(k, _) | KvOp::Remove(k) | KvOp::Get(k) => k,
                };
                let before = model.get(&key).copied();
                let got = apply(model, o.op);
                let consistent = match o.result {
                    Some(expected) => got == expected,
                    None => true, // pending: any effect is acceptable
                };
                if consistent {
                    order.push(i);
                    if order.len() > *best_placed {
                        *best_placed = order.len();
                        *blocked_at = None;
                    }
                    if dfs(
                        ops,
                        completed_mask,
                        mask | 1 << i,
                        model,
                        memo,
                        order,
                        best_placed,
                        blocked_at,
                    ) {
                        return true;
                    }
                    order.pop();
                } else if order.len() == *best_placed && blocked_at.is_none() {
                    *blocked_at = Some(i);
                }
                // Undo the candidate, accepted or not: the next one is judged
                // against the state this node was entered with.
                match before {
                    Some(v) => model.insert(key, v),
                    None => model.remove(&key),
                };
            }
            false
        }

        if dfs(
            ops,
            completed_mask,
            0,
            &mut model,
            &mut memo,
            &mut order,
            &mut best_placed,
            &mut blocked_at,
        ) {
            Ok(order)
        } else {
            let culprit = blocked_at
                .map(|i| {
                    let o = &ops[i];
                    format!(
                        "op {i} (thread {}, {:?} -> {:?}, invoke {}, ret {}) fits no extension",
                        o.thread,
                        o.op,
                        o.result,
                        o.invoke,
                        if o.ret == u64::MAX { "pending".into() } else { o.ret.to_string() },
                    )
                })
                .unwrap_or_else(|| "no operation can linearize first".into());
            Err(format!(
                "history of {} ops ({} pending) is not linearizable: placed {best_placed}, then {culprit}",
                ops.len(),
                history.pending(),
            ))
        }
    }
}

/// The per-key checker and the whole-history search it replaced agree on
/// every small history: overlapping histories stretched by up to
/// [`WIDEN`] slots (the whole-history search is exponential in the
/// overlap), 0–3 ops left pending, and half the cases with one completed
/// result overwritten. Values and planted results come from the same
/// small range, so a plant is sometimes still explainable and both
/// verdicts occur (non-vacuity).
#[test]
fn checker_agrees_with_the_whole_history_search() {
    let (accepted, refused) = (AtomicU32::new(0), AtomicU32::new(0));
    let small_op = (0u64..4, 0u64..6, 0u64..4).prop_map(|(kind, k, v)| match kind {
        0 | 1 => KvOp::Insert(k, v),
        2 => KvOp::Get(k),
        _ => KvOp::Remove(k),
    });
    let gen = (
        collection::vec((small_op, any::<u64>(), any::<u64>(), any::<u64>()), 1..25),
        0usize..4,
        (any::<bool>(), any::<u64>(), 0u64..5),
    );
    for_all(
        "selftest::linear-differential",
        Config::cases(256),
        gen,
        |(steps, pending, (plant, victim, value))| {
            let mut hist = overlapping_history(&steps, WIDEN, pending);
            let completed: Vec<usize> =
                (0..hist.ops().len()).filter(|&id| hist.ops()[id].result.is_some()).collect();
            if plant && !completed.is_empty() {
                let id = completed[(victim % completed.len() as u64) as usize];
                hist.corrupt_result(id, (value < 4).then_some(value));
            }
            let verdict = check(&hist);
            prop_assert_eq!(
                verdict.is_ok(),
                whole_history::check(&hist).is_ok(),
                "verdicts differ; per-key: {verdict:?}"
            );
            if verdict.is_ok() { &accepted } else { &refused }.fetch_add(1, Ordering::Relaxed);
            Ok(())
        },
    );
    assert!(accepted.load(Ordering::Relaxed) >= 1, "non-vacuity: no history accepted");
    assert!(refused.load(Ordering::Relaxed) >= 1, "non-vacuity: no history refused");
}
