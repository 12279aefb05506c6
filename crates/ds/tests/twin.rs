//! Twin-structure property: a concurrent index driven by a single
//! thread under a 1-thread turnstile schedule must be observationally
//! identical to its sequential twin — same `Option<u64>` result for
//! every operation, and when an operation fails, the same
//! [`HeapError`] discriminant. The concurrent module's extra machinery
//! (flush strategies, write sets, persist fences, CAS publication)
//! must be invisible to a lone caller.

use std::collections::BTreeMap;
use std::sync::Arc;

use utpr_ds::concurrent::{ConcurrentIndex, FlushStrategy, Handle};
use utpr_ds::{AvlTree, ConcHash, ConcList, HashMapIndex, IndexCore, IndexOps};
use utpr_heap::{AddressSpace, FlushModel, HeapError, SharedPool};
use utpr_ptr::{ExecEnv, Mode, NullSink};
use utpr_qc::prelude::*;
use utpr_qc::sched::Turnstile;

#[derive(Clone, Copy, Debug)]
enum Op {
    Insert(u64, u64),
    Remove(u64),
    Get(u64),
}

fn op_gen(keys: u64) -> OneOf<Op> {
    one_of![
        3 => (0..keys, 0u64..1_000_000).prop_map(|(k, v)| Op::Insert(k, v)),
        2 => (0..keys).prop_map(Op::Get),
        1 => (0..keys).prop_map(Op::Remove),
    ]
}

/// Result of one op, collapsed to what the twin comparison inspects:
/// the value on success, the error discriminant on failure.
fn outcome(r: Result<Option<u64>, HeapError>) -> Result<Option<u64>, std::mem::Discriminant<HeapError>> {
    r.map_err(|e| std::mem::discriminant(&e))
}

/// Runs `ops` against the concurrent structure `C` (single caller, all
/// accesses threaded through a 1-thread turnstile) and its sequential
/// twin `T`, comparing every outcome; both must also agree with a
/// `BTreeMap` at the end.
fn twin_run<C: ConcurrentIndex, T: IndexCore + IndexOps>(
    ops: &[Op],
    strategy: FlushStrategy,
) -> Result<(), String> {
    // Concurrent side: shared pool in ADR mode, one handle, one-thread
    // turnstile driving every yield point.
    let sp = SharedPool::create(&format!("twin-{}-{}", C::NAME, strategy.label()), 16 << 20, 8)
        .map_err(|e| e.to_string())?;
    sp.set_flush_model(FlushModel::Adr);
    let mut cspace = AddressSpace::new(0x7717);
    let cpool = cspace.adopt_shared(&sp).map_err(|e| e.to_string())?;
    let mut cenv = ExecEnv::builder(cspace).mode(Mode::Hw).pool(cpool).build();
    let cidx = C::create(&mut cenv).map_err(|e| e.to_string())?;
    let ts = Arc::new(Turnstile::new(1, 0x7717));
    let yielder = || {
        ts.yield_point(0).map_err(|_| HeapError::CrashInjected { writes: u64::MAX })
    };
    let mut h = Handle::new(&mut cenv, strategy)
        .map_err(|e| e.to_string())?
        .with_yielder(&yielder);

    // Sequential twin: a plain private pool.
    let mut sspace = AddressSpace::new(0x7417);
    let spool = sspace.create_pool("twin-seq", 16 << 20).map_err(|e| e.to_string())?;
    let mut senv =
        ExecEnv::builder(sspace).mode(Mode::Hw).pool(spool).sink(NullSink).build();
    let mut sidx = T::create(&mut senv).map_err(|e| e.to_string())?;

    let mut model: BTreeMap<u64, u64> = BTreeMap::new();
    for (i, &op) in ops.iter().enumerate() {
        let (conc, seq, oracle) = match op {
            Op::Insert(k, v) => (
                outcome(cidx.insert(&mut h, k, v)),
                outcome(sidx.insert(&mut senv, k, v)),
                Ok(model.insert(k, v)),
            ),
            Op::Remove(k) => (
                outcome(cidx.remove(&mut h, k)),
                outcome(sidx.remove(&mut senv, k)),
                Ok(model.remove(&k)),
            ),
            Op::Get(k) => (
                outcome(cidx.get(&mut h, k)),
                outcome(sidx.get(&mut h_seq_reborrow(&mut senv), k)),
                Ok(model.get(&k).copied()),
            ),
        };
        if conc != seq || conc != oracle {
            return Err(format!(
                "op {i} ({op:?}) diverged: concurrent {conc:?}, sequential {seq:?}, oracle {oracle:?}"
            ));
        }
    }
    let clen = cidx.len(&mut h).map_err(|e| e.to_string())?;
    let slen = sidx.len(&mut senv).map_err(|e| e.to_string())?;
    if clen != slen || clen != model.len() as u64 {
        return Err(format!("final len diverged: {clen} vs {slen} vs {}", model.len()));
    }
    ts.finish(0);
    drop(h);
    let live = cidx.validate(&mut cenv).map_err(|e| e.to_string())?;
    if live != clen {
        return Err(format!("validate counts {live} live keys, len {clen}"));
    }
    Ok(())
}

// `IndexOps::get` takes `&mut env` like every sequential op; this shim
// only exists to keep the tuple construction above symmetrical.
fn h_seq_reborrow<S: utpr_ptr::TimingSink>(env: &mut ExecEnv<S>) -> &mut ExecEnv<S> {
    env
}

props! {
    #![cases(24)]

    // 4 096 keys and up to 1 500 operations: the directory grows several
    // levels mid-run.
    #[test]
    fn conc_hash_twins_hashmap_under_one_thread(ops in collection::vec(op_gen(4096), 1..1500)) {
        for strategy in FlushStrategy::ALL {
            if let Err(d) = twin_run::<ConcHash, HashMapIndex>(&ops, strategy) {
                prop_assert!(false, "{} twin: {d}", strategy.label());
            }
        }
    }

    #[test]
    fn conc_list_twins_avl_under_one_thread(ops in collection::vec(op_gen(24), 1..60)) {
        for strategy in FlushStrategy::ALL {
            if let Err(d) = twin_run::<ConcList, AvlTree>(&ops, strategy) {
                prop_assert!(false, "{} twin: {d}", strategy.label());
            }
        }
    }
}
