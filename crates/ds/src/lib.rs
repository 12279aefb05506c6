//! # utpr-ds — the six benchmark data structures (paper Table III)
//!
//! Re-implementations of the Boost data structures the paper evaluates,
//! written once against [`utpr_ptr::ExecEnv`] so the same code runs in all
//! four build variants (Volatile / Explicit / SW / HW). Every pointer
//! operation is tagged with a static site describing its provenance, which
//! is what decides whether the SW build executes a dynamic check there.
//!
//! | Name  | Structure            | Module |
//! |-------|----------------------|--------|
//! | LL    | doubly-linked list   | [`ll`] |
//! | Hash  | chained hash map     | [`hash`] |
//! | RB    | red-black tree       | [`rb`] |
//! | Splay | splay tree           | [`splay`] |
//! | AVL   | AVL tree             | [`avl`] |
//! | SG    | scapegoat tree       | [`sg`] |
//!
//! The five maps implement [`IndexOps`] (lifecycle in [`IndexCore`]); the
//! list has its own iteration harness, as in the paper. A bonus [`bplus`] B+ tree (wide nodes, leaf
//! chain) extends the suite beyond Table III.
//!
//! The [`concurrent`] module adds durable-linearizable multi-thread
//! variants (lock-free hash + list, lock-striped wrapper for the trees)
//! parameterized by a flush strategy (Eager / FliT / Traverse).

pub mod avl;
pub mod bplus;
pub mod concurrent;
pub mod hash;
pub mod index;
pub mod ll;
pub mod rb;
pub mod sg;
pub mod splay;

pub use avl::AvlTree;
pub use bplus::BPlusTree;
pub use concurrent::{ConcHash, ConcList, ConcurrentIndex, FlushStrategy, Handle, Striped};
pub use hash::HashMapIndex;
pub use index::{IndexCore, IndexOps};
pub use ll::LinkedList;
pub use rb::RbTree;
pub use sg::ScapegoatTree;
pub use splay::SplayTree;
