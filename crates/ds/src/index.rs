//! The map interface shared by the six key→value index structures.
//!
//! Mirrors the role of the paper's KV harness: it swaps one indexing data
//! structure for another (Table III) behind a single GET/SET interface.
//! Every structure stores its descriptor (root pointer, length, auxiliary
//! fields) in the same memory the nodes live in, so a persistent index is
//! recoverable from its pool root after a crash.
//!
//! The interface is two-tier:
//!
//! - [`IndexCore`] — lifecycle: create, reopen from a descriptor, expose
//!   the descriptor, validate. Shared by the sequential and concurrent
//!   variants.
//! - [`IndexOps`] — the sequential single-writer operations
//!   (insert/get/remove/len), each taking the environment explicitly.
//! - [`crate::concurrent::ConcurrentIndex`] — the concurrent operations,
//!   taking `&self` plus a per-thread [`crate::concurrent::Handle`]
//!   instead of `&mut self`/`&mut ExecEnv`.
//!
//! `get` and `len` take `&self`: the structure value owns no memory, only
//! the descriptor pointer, so even self-adjusting reads mutate *pool*
//! memory through the environment, never the handle. The splay tree is the
//! documented exception in spirit — its `get` still performs durable
//! writes (the splay rotation is a read-fixup behind the `&self` receiver)
//! — so splay reads remain writers for concurrency purposes and the splay
//! tree gets no lock-free concurrent variant.

use utpr_heap::HeapError;
use utpr_ptr::{ExecEnv, TimingSink, UPtr};

/// Result alias for index operations.
pub type Result<T> = std::result::Result<T, HeapError>;

/// Lifecycle half of the index interface: everything needed to build,
/// persist, reopen, and audit a structure — but not to operate on it.
pub trait IndexCore: Sized {
    /// Short benchmark name ("RB", "Hash", …; paper Table III).
    const NAME: &'static str;

    /// Allocates an empty index (descriptor + any initial arrays) at the
    /// environment's default placement.
    ///
    /// # Errors
    ///
    /// Propagates allocation failures.
    fn create<S: TimingSink>(env: &mut ExecEnv<S>) -> Result<Self>;

    /// Re-attaches to an existing descriptor (e.g. read from a pool root
    /// after a restart).
    fn open(descriptor: UPtr) -> Self;

    /// The descriptor pointer (store it in a pool root to persist the
    /// index).
    fn descriptor(&self) -> UPtr;

    /// Walks the whole structure checking its invariants (shape, ordering,
    /// stored length), panicking on violation; returns the key count. Used
    /// as the post-recovery oracle by the crash-point sweeps.
    ///
    /// # Errors
    ///
    /// Propagates translation failures.
    fn validate<S: TimingSink>(&self, env: &mut ExecEnv<S>) -> Result<u64>;
}

/// Sequential operations half: one writer at a time per structure (per
/// shard). Reads take `&self`; see the module docs for the splay caveat.
pub trait IndexOps: IndexCore {
    /// Inserts or updates; returns the previous value if the key existed.
    ///
    /// # Errors
    ///
    /// Propagates allocation and translation failures.
    fn insert<S: TimingSink>(
        &mut self,
        env: &mut ExecEnv<S>,
        key: u64,
        value: u64,
    ) -> Result<Option<u64>>;

    /// Looks a key up.
    ///
    /// # Errors
    ///
    /// Propagates translation failures.
    fn get<S: TimingSink>(&self, env: &mut ExecEnv<S>, key: u64) -> Result<Option<u64>>;

    /// Removes a key, returning its value if it was present.
    ///
    /// # Errors
    ///
    /// Propagates translation and free failures.
    fn remove<S: TimingSink>(&mut self, env: &mut ExecEnv<S>, key: u64) -> Result<Option<u64>>;

    /// Number of keys currently stored.
    ///
    /// # Errors
    ///
    /// Propagates translation failures (the length lives in the
    /// descriptor).
    fn len<S: TimingSink>(&self, env: &mut ExecEnv<S>) -> Result<u64>;
}

/// Exhaustive cross-check of an index against a model map — shared by the
/// per-structure test suites.
#[cfg(test)]
pub(crate) mod testing {
    use super::*;
    use std::collections::BTreeMap;
    use utpr_heap::AddressSpace;
    use utpr_ptr::{CountingSink, Mode};

    pub fn env_for(mode: Mode) -> ExecEnv<CountingSink> {
        let mut space = AddressSpace::new(97);
        let pool = space.create_pool("ds-test", 16 << 20).unwrap();
        ExecEnv::builder(space).mode(mode).pool(pool).sink(CountingSink::new()).build()
    }

    /// Runs a deterministic pseudo-random op sequence against the index and
    /// a BTreeMap oracle in the given mode.
    pub fn oracle_test<I: IndexOps>(mode: Mode, ops: usize) {
        let mut env = env_for(mode);
        let mut idx = I::create(&mut env).unwrap();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        let mut x = 0x243f6a8885a308d3u64;
        let mut step = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for i in 0..ops {
            let r = step();
            let key = step() % 257; // small key space forces updates
            match r % 4 {
                0 | 1 => {
                    let value = step();
                    let expected = model.insert(key, value);
                    let got = idx.insert(&mut env, key, value).unwrap();
                    assert_eq!(got, expected, "{} insert mismatch at op {i}", I::NAME);
                }
                2 => {
                    let expected = model.get(&key).copied();
                    let got = idx.get(&mut env, key).unwrap();
                    assert_eq!(got, expected, "{} get mismatch at op {i}", I::NAME);
                }
                _ => {
                    let expected = model.remove(&key);
                    let got = idx.remove(&mut env, key).unwrap();
                    assert_eq!(got, expected, "{} remove mismatch at op {i}", I::NAME);
                }
            }
        }
        assert_eq!(idx.len(&mut env).unwrap(), model.len() as u64);
        // Every key readable at the end.
        for (k, v) in &model {
            assert_eq!(idx.get(&mut env, *k).unwrap(), Some(*v));
        }
    }

    /// Builds an index, persists the descriptor in the pool root, restarts
    /// the process, reopens, and checks the content survived relocation.
    pub fn crash_recovery_test<I: IndexOps>() {
        use utpr_ptr::site;
        let mut env = env_for(Mode::Hw);
        let mut idx = I::create(&mut env).unwrap();
        for k in 0..200u64 {
            idx.insert(&mut env, k * 7 % 101, k).unwrap();
        }
        env.set_root(site!("test.save-root", StackLocal), idx.descriptor()).unwrap();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        for k in 0..200u64 {
            model.insert(k * 7 % 101, k);
        }

        // Crash + new generation at a different base address.
        env.space_mut().restart();
        env.space_mut().open_pool("ds-test").unwrap();
        let desc = env.root(site!("test.load-root", KnownReturn)).unwrap();
        let idx2 = I::open(desc);
        assert_eq!(idx2.len(&mut env).unwrap(), model.len() as u64);
        for (k, v) in &model {
            assert_eq!(idx2.get(&mut env, *k).unwrap(), Some(*v), "{} key {k}", I::NAME);
        }
    }

}
