//! Property tests for the persistent transaction layer: arbitrary
//! interleavings of transactional updates, commits, aborts, and crashes
//! must always leave the pool in a state some prefix of committed
//! transactions explains.

use utpr_qc::prelude::*;
use utpr_heap::{crash_and_recover, AddressSpace, FaultPlan, FlushModel, PoolId, RelLoc, UndoLog};
use utpr_ptr::{site, ExecEnv, Mode, UPtr};

const WORDS: usize = 8;

#[derive(Clone, Copy, Debug)]
enum TxnStep {
    /// Write `value` to word `slot` inside the open transaction.
    Write { slot: usize, value: u64 },
    /// Commit the open transaction.
    Commit,
    /// Abort the open transaction.
    Abort,
    /// Crash: restart the space and run recovery.
    Crash,
}

fn step_strategy() -> OneOf<TxnStep> {
    one_of![
        6 => (0usize..WORDS, any::<u64>()).prop_map(|(slot, value)| TxnStep::Write { slot, value }),
        2 => Just(TxnStep::Commit),
        1 => Just(TxnStep::Abort),
        1 => Just(TxnStep::Crash),
    ]
}

props! {
    #![cases(128)]

    /// After every step sequence, pool contents equal the model built from
    /// exactly the committed transactions — under eADR and under ADR.
    #[test]
    fn pool_state_reflects_committed_transactions(steps in collection::vec(step_strategy(), 1..60)) {
        committed_prefix_holds(&steps, FlushModel::Eadr)?;
        committed_prefix_holds(&steps, FlushModel::Adr)?;
    }

    /// `ExecEnv::with_txn` on an ADR pool, torn at a seeded boundary: the
    /// write set logs each pre-existing word once however often it is
    /// rewritten, and words of a block allocated inside the transaction are
    /// never logged — yet recovery restores the eight words to exactly the
    /// committed prefix, or to the crashed transaction's writes when its
    /// commit store landed.
    #[test]
    fn env_transactions_recover_to_a_committed_prefix_after_a_torn_crash(
        txns in collection::vec(
            (collection::vec((0usize..WORDS, any::<u64>()), 1..8), 0u64..4),
            1..6,
        ),
        k in 0u64..120,
        seed in any::<u64>(),
    ) {
        let mut space = AddressSpace::new(0x7b7b);
        let pool = space.create_pool("env-props", 4 << 20).unwrap();
        let words = UPtr::from_rel(space.pmalloc(pool, (WORDS * 8) as u64).unwrap());
        space.set_flush_model(FlushModel::Adr);
        let mut env = ExecEnv::builder(space).mode(Mode::Hw).pool(pool).build();
        for slot in 0..WORDS {
            let off = (slot * 8) as i64;
            env.write_u64(site!("props.init", StackLocal), words, off, slot as u64).unwrap();
        }
        // Materializes the undo log before arming; its commit fences the
        // initial words durable.
        env.with_txn(|_| Ok(())).unwrap();

        env.space_mut().set_faults(FaultPlan::torn_at(k, seed));
        let mut committed: [u64; WORDS] = std::array::from_fn(|slot| slot as u64);
        let mut in_flight = committed;
        for (writes, fresh_words) in &txns {
            in_flight = committed;
            for &(slot, v) in writes {
                in_flight[slot] = v;
            }
            let r = env.with_txn(|env| {
                let fresh = env.alloc(site!("props.fresh", AllocResult), 32)?;
                for w in 0..*fresh_words {
                    env.write_u64(site!("props.fresh-w", StackLocal), fresh, (w * 8) as i64, w)?;
                }
                for &(slot, v) in writes {
                    env.write_u64(site!("props.w", StackLocal), words, (slot * 8) as i64, v)?;
                }
                Ok(())
            });
            if r.is_err() {
                break;
            }
            committed = in_flight;
        }

        let (mut space, _, _) = env.into_parts();
        let rec = crash_and_recover(&mut space, "env-props").map_err(|e| e.to_string())?;
        let got: Vec<u64> = (0..WORDS)
            .map(|slot| {
                let loc = RelLoc::new(rec.pool, words.as_rel().unwrap().offset + (slot * 8) as u32);
                space.read_u64(space.ra2va(loc).unwrap()).unwrap()
            })
            .collect();
        prop_assert!(got == committed || got == in_flight);
    }
}

/// Runs `steps` through raw `begin`/`log_word`/`commit`/`abort` on a pool
/// under `model`, checking the words against the committed model whenever
/// no transaction is open.
fn committed_prefix_holds(steps: &[TxnStep], model: FlushModel) -> Result<(), String> {
    let mut space = AddressSpace::new(0x7a7a);
    let pool: PoolId = space.create_pool("props", 1 << 20).unwrap();
    let base = space.pmalloc(pool, (WORDS * 8) as u64).unwrap();
    let log = UndoLog::ensure(&mut space, pool, 256).unwrap();
    space.set_flush_model(model);

    // The durable model (committed state) and the in-flight overlay.
    let mut committed = [0u64; WORDS];

    let write_word = |space: &mut AddressSpace, slot: usize, v: u64| {
        let loc = RelLoc::new(pool, base.offset + (slot * 8) as u32);
        let va = space.ra2va(loc).unwrap();
        space.write_u64(va, v).unwrap();
    };

    log.begin(&mut space).unwrap();
    let mut pending: Option<[u64; WORDS]> = Some(committed);

    for &step in steps {
        match step {
            TxnStep::Write { slot, value } => {
                if pending.is_none() {
                    log.begin(&mut space).unwrap();
                    pending = Some(committed);
                }
                let loc = RelLoc::new(pool, base.offset + (slot * 8) as u32);
                log.log_word(&mut space, loc).unwrap();
                write_word(&mut space, slot, value);
                pending.as_mut().unwrap()[slot] = value;
            }
            TxnStep::Commit => {
                if let Some(p) = pending.take() {
                    log.commit(&mut space).unwrap();
                    committed = p;
                }
            }
            TxnStep::Abort => {
                if pending.take().is_some() {
                    log.abort(&mut space).unwrap();
                }
            }
            TxnStep::Crash => {
                pending = None;
                space.restart();
                space.open_pool("props").unwrap();
                UndoLog::recover(&mut space, pool).unwrap();
            }
        }
        // Invariant: words outside an open transaction equal the model.
        if pending.is_none() {
            for (slot, expect) in committed.iter().enumerate() {
                let loc = RelLoc::new(pool, base.offset + (slot * 8) as u32);
                let va = space.ra2va(loc).unwrap();
                prop_assert_eq!(space.read_u64(va).unwrap(), *expect, "slot {}", slot);
            }
        }
    }

    // Final resolution: abort anything still open, then check the model.
    if pending.is_some() {
        log.abort(&mut space).unwrap();
    }
    for (slot, expect) in committed.iter().enumerate() {
        let loc = RelLoc::new(pool, base.offset + (slot * 8) as u32);
        let va = space.ra2va(loc).unwrap();
        prop_assert_eq!(space.read_u64(va).unwrap(), *expect, "final slot {}", slot);
    }
    Ok(())
}

/// B+ scan vs a BTreeMap range oracle on arbitrary key sets.
mod bplus_scan {
    use utpr_qc::prelude::*;
    use std::collections::BTreeMap;
    use utpr_ds::{BPlusTree, IndexCore, IndexOps};
    use utpr_heap::AddressSpace;
    use utpr_ptr::{ExecEnv, Mode};

    props! {
        #![cases(64)]

        #[test]
        fn scan_matches_btreemap_range(
            keys in collection::btree_set(0u64..5_000, 1..300),
            start in 0u64..5_000,
            limit in 1usize..40,
        ) {
            let mut space = AddressSpace::new(3);
            let pool = space.create_pool("scan", 16 << 20).unwrap();
            let mut env = ExecEnv::builder(space).mode(Mode::Hw).pool(pool).build();
            let mut t = BPlusTree::create(&mut env).unwrap();
            let mut model = BTreeMap::new();
            for k in &keys {
                t.insert(&mut env, *k, k * 3).unwrap();
                model.insert(*k, k * 3);
            }
            let got = t.scan(&mut env, start, limit).unwrap();
            let expect: Vec<(u64, u64)> =
                model.range(start..).take(limit).map(|(k, v)| (*k, *v)).collect();
            prop_assert_eq!(got, expect);
        }
    }
}
