//! Op streams are a pure function of the seed, every written key has one
//! owner, and each stream's stamped answers are what a correct store gives.

use std::collections::{HashMap, HashSet};

use utpr_benchmark::stream::{key_of, preload_val, Expect, MixA, Op, PaperStream, PartStream};

const RECORDS: u64 = 1_000;

fn draw(seed: u64, issuer: u64, issuers: u64, n: usize) -> (MixA, Vec<(Op, Expect)>) {
    let mut m = MixA::new(seed, issuer, issuers, RECORDS);
    let ops = (0..n).map(|_| m.next_op()).collect();
    (m, ops)
}

#[test]
fn streams_are_a_pure_function_of_the_seed() {
    let (_, a) = draw(7, 0, 2, 5_000);
    let (_, b) = draw(7, 0, 2, 5_000);
    assert_eq!(
        a, b,
        "same seed and issuer must replay the same ops and answers"
    );
    let (_, c) = draw(8, 0, 2, 5_000);
    assert_ne!(a, c, "another seed must give another stream");
    let (_, d) = draw(7, 1, 2, 5_000);
    assert_ne!(a, d, "another issuer must give another stream");

    let mut p = PartStream::new(7, 3, 8, 64);
    let mut q = PartStream::new(7, 3, 8, 64);
    assert!((0..2_000).all(|_| p.next_op() == q.next_op()));
    let mut p = PaperStream::new(7, RECORDS);
    let mut q = PaperStream::new(7, RECORDS);
    assert!((0..2_000).all(|_| p.next_op() == q.next_op()));
}

#[test]
fn mix_a_has_the_stated_shares() {
    let (_, ops) = draw(1, 0, 1, 100_000);
    let share =
        |f: fn(&Op) -> bool| ops.iter().filter(|(op, _)| f(op)).count() as f64 / ops.len() as f64;
    assert!((share(|o| matches!(o, Op::Get(_))) - 0.5).abs() < 0.01);
    assert!((share(|o| matches!(o, Op::Put(..))) - 0.4).abs() < 0.01);
    assert!((share(|o| matches!(o, Op::Del(_))) - 0.1).abs() < 0.01);
}

#[test]
fn every_written_key_has_one_owner() {
    let issuers = 4;
    let index_of: HashMap<u64, u64> = (0..RECORDS + 40_000).map(|i| (key_of(i), i)).collect();
    let mut written: Vec<HashSet<u64>> = Vec::new();
    for issuer in 0..issuers {
        let (_, ops) = draw(3, issuer, issuers, 20_000);
        let keys: HashSet<u64> = ops
            .iter()
            .filter(|(op, _)| op.is_write())
            .map(|(op, _)| op.key())
            .collect();
        for k in &keys {
            assert_eq!(
                MixA::owner_of_index(index_of[k], issuers),
                issuer,
                "issuer {issuer} wrote a key it does not own"
            );
        }
        written.push(keys);
    }
    for a in 0..written.len() {
        for b in a + 1..written.len() {
            assert!(
                written[a].is_disjoint(&written[b]),
                "issuers {a} and {b} share a written key"
            );
        }
    }
}

#[test]
fn stamped_answers_are_what_a_correct_store_gives() {
    // One issuer owns everything, so every answer is exact.
    let (mix, ops) = draw(5, 0, 1, 50_000);
    let mut store: HashMap<u64, u64> = (0..RECORDS)
        .map(key_of)
        .map(|k| (k, preload_val(k)))
        .collect();
    for (op, expect) in &ops {
        let got = match *op {
            Op::Get(k) => store.get(&k).copied(),
            Op::Put(k, v) => store.insert(k, v),
            Op::Del(k) => store.remove(&k),
        };
        assert!(matches!(expect, Expect::Exact(_)));
        assert!(
            expect.matches(got),
            "{op:?}: store says {got:?}, stream expects {expect:?}"
        );
    }
    // What the stream says is left must be the replayed store, key for key.
    let (mut present, mut absent) = (HashMap::new(), Vec::new());
    mix.for_each_final(|k, want| match want {
        Some(v) => assert!(present.insert(k, v).is_none(), "{k:#x} listed twice"),
        None => absent.push(k),
    });
    assert_eq!(
        present, store,
        "the final model must equal the replayed store"
    );
    assert_eq!(mix.final_len(), store.len() as u64);
    assert!(absent.iter().all(|k| !store.contains_key(k)));
    assert!(
        !absent.is_empty(),
        "the mix deletes some of what it inserts"
    );
    // Inserts and deletes balance: the store stays near `records`.
    assert!(store.len() as u64 >= RECORDS && (store.len() as u64) < RECORDS + 200);
}

#[test]
fn gets_of_foreign_keys_only_promise_presence() {
    let (_, ops) = draw(9, 0, 2, 20_000);
    let index_of: HashMap<u64, u64> = (0..RECORDS).map(|i| (key_of(i), i)).collect();
    let mut foreign = 0;
    for (op, expect) in &ops {
        if let Op::Get(k) = op {
            let mine = MixA::owner_of_index(index_of[k], 2) == 0;
            assert_eq!(matches!(expect, Expect::Exact(Some(_))), mine, "GET {k:#x}");
            foreign += usize::from(!mine);
        }
    }
    assert!(foreign > 1_000);
}

#[test]
fn part_streams_stay_in_their_partition_and_track_their_model() {
    let (parts, per) = (8, 64);
    for part in 0..parts {
        let mut s = PartStream::new(11, part, parts, per);
        let mut store: HashMap<u64, u64> = (0..per)
            .map(|i| i * parts + part)
            .filter(|k| PartStream::initially_present(*k))
            .map(|k| (k, PartStream::initial_val(k)))
            .collect();
        for _ in 0..5_000 {
            let (op, expect) = s.next_op();
            assert_eq!(op.key() % parts, part);
            assert!(op.key() < parts * per);
            let got = match op {
                Op::Get(k) => store.get(&k).copied(),
                Op::Put(k, v) => store.insert(k, v),
                Op::Del(k) => store.remove(&k),
            };
            assert!(expect.matches(got));
        }
        assert_eq!(s.model(), &store);
    }
}

#[test]
fn part_streams_start_at_the_live_share_they_settle_at() {
    let per = 4_096;
    let mut s = PartStream::new(13, 0, 8, per);
    let share = |s: &PartStream| s.model().len() as f64 / per as f64;
    assert!((share(&s) - 0.6).abs() < 0.03, "starts at {}", share(&s));
    for _ in 0..100_000 {
        s.next_op();
    }
    assert!((share(&s) - 0.6).abs() < 0.03, "settles at {}", share(&s));
}

#[test]
fn paper_stream_reads_existing_keys_and_inserts_fresh_ones() {
    let mut s = PaperStream::new(2, RECORDS);
    let mut store: HashSet<u64> = (0..RECORDS).map(key_of).collect();
    let mut sets = 0;
    let n = 40_000;
    for _ in 0..n {
        match s.next_op() {
            (Op::Get(k), Expect::Exact(Some(v))) => {
                assert!(store.contains(&k), "GET of a key never inserted");
                assert_eq!(v, PaperStream::value_of(k));
            }
            (Op::Put(k, _), Expect::Exact(None)) => {
                assert!(store.insert(k), "SET must insert a brand-new key");
                sets += 1;
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    assert!((sets as f64 / n as f64 - 0.05).abs() < 0.01);
    assert_eq!(s.inserted(), RECORDS + sets);
}
