//! Structural-invariant battery: each tree's validator (RB black-height,
//! AVL balance, scapegoat α-weight, B+ ordering/leaf-depth) must hold
//! after arbitrary insert/remove sequences, in every execution mode, and
//! the structure must agree with a `BTreeMap` oracle throughout.

use std::collections::BTreeMap;

use utpr_ds::{AvlTree, BPlusTree, IndexOps, RbTree, ScapegoatTree};
use utpr_heap::AddressSpace;
use utpr_ptr::{ExecEnv, Mode, NullSink};
use utpr_qc::prelude::*;

/// One step over a bounded key space (collisions are the interesting part).
#[derive(Clone, Copy, Debug)]
enum Op {
    Insert(u64, u64),
    Remove(u64),
}

fn op_gen() -> OneOf<Op> {
    one_of![
        3 => (0u64..200, 0u64..1_000_000).prop_map(|(k, v)| Op::Insert(k, v)),
        1 => (0u64..200).prop_map(Op::Remove),
    ]
}

/// Applies `ops` in `mode`, validating against the oracle mid-sequence and
/// at the end; `validate` is the structure's own invariant checker, which
/// panics on violations and returns the node/key count.
fn run_ops<T, V>(mode: Mode, ops: &[Op], validate: V) -> Result<(), String>
where
    T: IndexOps,
    V: Fn(&mut T, &mut ExecEnv<NullSink>) -> u64,
{
    let mut space = AddressSpace::new(0xD5 ^ mode.label().len() as u64);
    let pool = space.create_pool("inv", 16 << 20).unwrap();
    let mut env = ExecEnv::builder(space).mode(mode).pool(pool).build();
    let mut t = T::create(&mut env).unwrap();
    let mut model: BTreeMap<u64, u64> = BTreeMap::new();

    for (i, op) in ops.iter().enumerate() {
        match *op {
            Op::Insert(k, v) => {
                let prev = t.insert(&mut env, k, v).unwrap();
                prop_assert_eq!(prev, model.insert(k, v), "{}: insert({}) prev", T::NAME, k);
            }
            Op::Remove(k) => {
                let prev = t.remove(&mut env, k).unwrap();
                prop_assert_eq!(prev, model.remove(&k), "{}: remove({}) prev", T::NAME, k);
            }
        }
        // Validate periodically, not only at the end: rebalancing bugs can
        // be transient.
        if i % 16 == 15 {
            let n = validate(&mut t, &mut env);
            prop_assert_eq!(n, model.len() as u64, "{} count mid-sequence", T::NAME);
        }
    }

    let n = validate(&mut t, &mut env);
    prop_assert_eq!(n, model.len() as u64, "{} final count", T::NAME);
    prop_assert_eq!(t.len(&mut env).unwrap(), model.len() as u64);
    for (k, v) in &model {
        prop_assert_eq!(t.get(&mut env, *k).unwrap(), Some(*v), "{}: get({})", T::NAME, k);
    }
    Ok(())
}

props! {
    #![cases(24)]

    /// Red-black: BST order, no red-red edge, equal black height.
    #[test]
    fn rb_invariants_hold_in_all_modes(ops in collection::vec(op_gen(), 1..120)) {
        for mode in Mode::ALL {
            run_ops::<RbTree, _>(mode, &ops, |t, env| t.validate(env).unwrap())?;
        }
    }

    /// AVL: BST order, height fields, |balance| ≤ 1.
    #[test]
    fn avl_invariants_hold_in_all_modes(ops in collection::vec(op_gen(), 1..120)) {
        for mode in Mode::ALL {
            run_ops::<AvlTree, _>(mode, &ops, |t, env| t.validate(env).unwrap())?;
        }
    }

    /// Scapegoat: BST order plus the α-weight balance at every node.
    #[test]
    fn scapegoat_invariants_hold_in_all_modes(ops in collection::vec(op_gen(), 1..120)) {
        for mode in Mode::ALL {
            run_ops::<ScapegoatTree, _>(mode, &ops, |t, env| t.validate(env).unwrap())?;
        }
    }

    /// B+: per-node key order, separator bounds, uniform leaf depth,
    /// sorted leaf chain.
    #[test]
    fn bplus_invariants_hold_in_all_modes(ops in collection::vec(op_gen(), 1..120)) {
        for mode in Mode::ALL {
            run_ops::<BPlusTree, _>(mode, &ops, |t, env| t.validate(env).unwrap())?;
        }
    }
}
