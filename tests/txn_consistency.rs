//! Crash consistency through persistent transactions (paper §I, §VI): the
//! application encloses calls to the *unmodified* library in a transaction;
//! undo logging is inserted transparently at the store instructions. A
//! crash mid-call rolls the structure back to its pre-call state.
//!
//! The red-black tree code in `utpr-ds` knows nothing about transactions —
//! exactly the paper's "no code change is needed in the Boost library"
//! claim extended to crash consistency.

use utpr_ds::{IndexCore, IndexOps, RbTree};
use utpr_heap::{AddressSpace, UndoLog};
use utpr_ptr::{site, ExecEnv, Mode, NullSink};

fn setup() -> (ExecEnv<NullSink>, RbTree, Vec<u64>) {
    let mut space = AddressSpace::new(404);
    let pool = space.create_pool("txn-kv", 16 << 20).unwrap();
    let mut env = ExecEnv::builder(space).mode(Mode::Hw).pool(pool).build();
    let mut tree = RbTree::create(&mut env).unwrap();
    let keys: Vec<u64> = (0..100).map(|k| k * 13 % 251).collect();
    for k in &keys {
        tree.insert(&mut env, *k, k * 10).unwrap();
    }
    env.set_root(site!("txn.save", StackLocal), tree.descriptor()).unwrap();
    (env, tree, keys)
}

#[test]
fn committed_library_call_is_durable() {
    let (mut env, mut tree, keys) = setup();
    env.with_txn(|env| tree.insert(env, 9999, 1)).unwrap(); // unmodified library call

    env.space_mut().restart();
    let pool = env.space_mut().open_pool("txn-kv").unwrap();
    assert!(!UndoLog::recover(env.space_mut(), pool).unwrap());
    let tree = RbTree::open(env.root(site!("txn.load", KnownReturn)).unwrap());
    assert_eq!(tree.get(&mut env, 9999).unwrap(), Some(1));
    assert_eq!(tree.validate(&mut env).unwrap(), keys.len() as u64 + 1);
}

#[test]
fn crash_mid_library_call_rolls_back_to_consistent_tree() {
    let (mut env, mut tree, keys) = setup();
    let len_before = tree.len(&mut env).unwrap();

    env.txn_begin().unwrap();
    // The library call completes its stores, but the transaction never
    // commits — modelling a crash at any point inside/after the call.
    tree.insert(&mut env, 9999, 1).unwrap();
    assert_eq!(tree.get(&mut env, 9999).unwrap(), Some(1), "visible before crash");

    env.space_mut().restart();
    let pool = env.space_mut().open_pool("txn-kv").unwrap();
    assert!(UndoLog::recover(env.space_mut(), pool).unwrap(), "torn txn rolled back");

    let tree = RbTree::open(env.root(site!("txn.load2", KnownReturn)).unwrap());
    // The insert vanished; every invariant and every old key intact.
    assert_eq!(tree.get(&mut env, 9999).unwrap(), None);
    assert_eq!(tree.len(&mut env).unwrap(), len_before);
    assert_eq!(tree.validate(&mut env).unwrap(), len_before);
    for k in &keys {
        assert_eq!(tree.get(&mut env, *k).unwrap(), Some(k * 10));
    }
}

#[test]
fn abort_rolls_back_a_batch_of_calls() {
    let (mut env, mut tree, _keys) = setup();
    let len_before = tree.len(&mut env).unwrap();

    env.txn_begin().unwrap();
    for k in 5000..5020u64 {
        tree.insert(&mut env, k, k).unwrap();
    }
    // Includes structural deletions inside the same transaction.
    tree.remove(&mut env, 5010).unwrap();
    env.txn_abort().unwrap();

    assert_eq!(tree.len(&mut env).unwrap(), len_before);
    assert_eq!(tree.validate(&mut env).unwrap(), len_before);
    for k in 5000..5020u64 {
        assert_eq!(tree.get(&mut env, k).unwrap(), None, "key {k} leaked");
    }
}

#[test]
fn transactions_do_not_nest_and_require_a_pool() {
    let (mut env, _tree, _keys) = setup();
    env.txn_begin().unwrap();
    assert!(env.txn_begin().is_err(), "nesting rejected");
    env.txn_commit().unwrap();
    assert!(env.txn_commit().is_err(), "double commit rejected");

    let space = AddressSpace::new(1);
    let mut volatile_env = ExecEnv::builder(space).build();
    assert!(volatile_env.txn_begin().is_err(), "no pool, no transaction");
}

#[test]
fn sw_mode_transactions_work_identically() {
    let mut space = AddressSpace::new(77);
    let pool = space.create_pool("txn-sw", 16 << 20).unwrap();
    let mut env = ExecEnv::builder(space).mode(Mode::Sw).pool(pool).build();
    let mut tree = RbTree::create(&mut env).unwrap();
    tree.insert(&mut env, 1, 10).unwrap();
    env.txn_begin().unwrap();
    tree.insert(&mut env, 2, 20).unwrap();
    env.txn_abort().unwrap();
    assert_eq!(tree.get(&mut env, 1).unwrap(), Some(10));
    assert_eq!(tree.get(&mut env, 2).unwrap(), None);
    tree.validate(&mut env).unwrap();
}
