//! # utpr — user-transparent persistent references for legacy libraries on NVM
//!
//! A complete, executable reproduction of *"Supporting Legacy Libraries on
//! Non-Volatile Memory: A User-Transparent Approach"* (Ye, Xu, Shen, Liao,
//! Jin, Solihin — ISCA 2021), from the tagged 64-bit pointer format up to
//! the interval timing model that regenerates every table and figure of the
//! paper's evaluation.
//!
//! This crate is the facade: it re-exports the workspace crates.
//!
//! | Crate | Contents |
//! |-------|----------|
//! | [`heap`] | simulated 48-bit address space, persistent pools, allocators |
//! | [`uptr`] | the pointer format, Fig. 4 C11 semantics, the four-mode [`uptr::ExecEnv`] |
//! | [`sim`]  | caches, TLBs, branch predictor, POLB/VALB, storeP unit, cycle model |
//! | [`cc`]   | mini-IR, pointer-property dataflow inference, interpreter |
//! | [`ds`]   | LL, Hash, RB, Splay, AVL, SG over the persistent heap |
//! | [`kv`]   | YCSB-style workloads and the KV benchmark harness |
//! | [`ml`]   | matrix library + KNN case study |
//!
//! ## A complete round trip
//!
//! ```
//! use utpr::prelude::*;
//!
//! let mut space = AddressSpace::new(1);
//! let pool = space.create_pool("facade", 8 << 20)?;
//! let mut env = ExecEnv::builder(space).mode(Mode::Hw).pool(pool).build();
//!
//! let mut tree = RbTree::create(&mut env)?;
//! tree.insert(&mut env, 42, 4242)?;
//! env.set_root(site!("facade.save", StackLocal), tree.descriptor())?;
//!
//! env.space_mut().restart();                 // crash
//! env.space_mut().open_pool("facade")?;      // new run, new base address
//! let mut tree = RbTree::open(env.root(site!("facade.load", KnownReturn))?);
//! assert_eq!(tree.get(&mut env, 42)?, Some(4242));
//! # Ok::<(), utpr::Error>(())
//! ```

use std::fmt;

pub use utpr_cc as cc;
pub use utpr_ds as ds;
pub use utpr_heap as heap;
pub use utpr_kv as kv;
pub use utpr_ml as ml;
pub use utpr_ptr as uptr;
pub use utpr_sim as sim;

/// The workspace-wide error: every crate's failure type converts into it,
/// so application code (the examples, scripts built on the facade) can use
/// one `?` everywhere instead of naming `utpr_heap::HeapError`,
/// `utpr_cc::InterpError`, `utpr_cc::ParseError`, or `utpr_cc::VerifyError`
/// directly.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Error {
    /// A simulated-memory fault (allocation, translation, pool, crash).
    Heap(heap::HeapError),
    /// A mini-IR interpreter failure.
    Interp(cc::InterpError),
    /// A mini-IR parse failure.
    Parse(cc::ParseError),
    /// A mini-IR structural verification failure.
    Verify(cc::VerifyError),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Heap(e) => write!(f, "{e}"),
            Error::Interp(e) => write!(f, "{e}"),
            Error::Parse(e) => write!(f, "{e}"),
            Error::Verify(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Heap(e) => Some(e),
            Error::Interp(e) => Some(e),
            Error::Parse(e) => Some(e),
            Error::Verify(e) => Some(e),
        }
    }
}

impl From<heap::HeapError> for Error {
    fn from(e: heap::HeapError) -> Self {
        Error::Heap(e)
    }
}

impl From<cc::InterpError> for Error {
    fn from(e: cc::InterpError) -> Self {
        // An interpreter fault that is really a heap fault stays a heap
        // fault, so matching on `Error::Heap` works regardless of which
        // layer surfaced it.
        match e {
            cc::InterpError::Heap(h) => Error::Heap(h),
            other => Error::Interp(other),
        }
    }
}

impl From<cc::ParseError> for Error {
    fn from(e: cc::ParseError) -> Self {
        Error::Parse(e)
    }
}

impl From<cc::VerifyError> for Error {
    fn from(e: cc::VerifyError) -> Self {
        Error::Verify(e)
    }
}

/// Workspace-wide result alias.
pub type Result<T> = std::result::Result<T, Error>;

/// Everything an application built on the facade usually needs: the
/// address space, the environment builder and its knobs, the six data
/// structures, the KV harness types, and the unified [`Error`]/[`Result`].
pub mod prelude {
    pub use crate::ds::{
        AvlTree, BPlusTree, ConcHash, ConcList, ConcurrentIndex, FlushStrategy, HashMapIndex,
        IndexCore, IndexOps, LinkedList, RbTree, ScapegoatTree, SplayTree, Striped,
    };
    pub use crate::heap::{
        AddressSpace, FaultPlan, PoolId, RelLoc, SharedPool, SlabId, UndoLog, VirtAddr,
    };
    pub use crate::kv::{Benchmark, KvStore, SweepSpec, WorkloadSpec};
    pub use crate::uptr::{
        site, CheckPolicy, CountingSink, ExecEnv, ExecEnvBuilder, Mode, NullSink, Placement, UPtr,
    };
    pub use crate::{Error, Result};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_error_converts_and_displays() {
        let h: Error = heap::HeapError::NoAddressSpace.into();
        assert!(matches!(h, Error::Heap(_)));
        let i: Error = cc::InterpError::OutOfFuel.into();
        assert!(matches!(i, Error::Interp(_)));
        let hi: Error = cc::InterpError::Heap(heap::HeapError::NoAddressSpace).into();
        assert!(matches!(hi, Error::Heap(_)), "nested heap faults unwrap");
        let p: Error = cc::ParseError { line: 3, message: "bad token".into() }.into();
        assert!(matches!(p, Error::Parse(_)));
        for e in [h, i, p] {
            assert!(!e.to_string().is_empty());
            assert!(std::error::Error::source(&e).is_some());
        }
    }

    #[test]
    fn question_mark_spans_layers() {
        fn cross_layer() -> Result<u64> {
            let mut space = heap::AddressSpace::new(9);
            let pool = space.create_pool("facade-test", 1 << 20)?; // HeapError
            let loc = space.pmalloc(pool, 16)?;
            let va = space.ra2va(loc)?;
            space.write_u64(va, 7)?;
            Ok(space.read_u64(va)?)
        }
        assert_eq!(cross_layer().unwrap(), 7);
    }
}
