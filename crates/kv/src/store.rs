//! The key-value store harness (paper §VII-A): a PMDK-map-style store whose
//! indexing structure is swappable — exactly how the paper evaluates the
//! six Boost structures.

use crate::workload::{Op, Workload};
use utpr_ds::IndexOps;
use utpr_heap::HeapError;
use utpr_ptr::{ExecEnv, TimingSink};

/// Result alias.
pub type Result<T> = std::result::Result<T, HeapError>;

/// Outcome counters of an operation stream.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct RunSummary {
    /// GET operations executed.
    pub gets: u64,
    /// GETs that found their key.
    pub hits: u64,
    /// SET operations executed.
    pub sets: u64,
    /// Checksum of returned values (keeps the work observable).
    pub checksum: u64,
}

/// A key-value store over any [`IndexOps`].
///
/// # Examples
///
/// ```
/// use utpr_heap::AddressSpace;
/// use utpr_ptr::{ExecEnv, Mode};
/// use utpr_ds::RbTree;
/// use utpr_kv::KvStore;
///
/// let mut space = AddressSpace::new(1);
/// let pool = space.create_pool("kv", 8 << 20)?;
/// let mut env = ExecEnv::builder(space).mode(Mode::Hw).pool(pool).build();
/// let mut store: KvStore<RbTree> = KvStore::create(&mut env)?;
/// store.set(&mut env, 1, 10)?;
/// assert_eq!(store.get(&mut env, 1)?, Some(10));
/// # Ok::<(), utpr_heap::HeapError>(())
/// ```
#[derive(Debug)]
pub struct KvStore<I: IndexOps> {
    index: I,
}

impl<I: IndexOps> KvStore<I> {
    /// Creates an empty store.
    ///
    /// # Errors
    ///
    /// Propagates allocation failures.
    pub fn create<S: TimingSink>(env: &mut ExecEnv<S>) -> Result<Self> {
        Ok(KvStore { index: I::create(env)? })
    }

    /// Re-attaches to a persisted store via its index descriptor.
    pub fn open(descriptor: utpr_ptr::UPtr) -> Self {
        KvStore { index: I::open(descriptor) }
    }

    /// The underlying index.
    pub fn index(&self) -> &I {
        &self.index
    }

    /// Inserts or updates a pair.
    ///
    /// # Errors
    ///
    /// Propagates index failures.
    pub fn set<S: TimingSink>(&mut self, env: &mut ExecEnv<S>, key: u64, value: u64) -> Result<Option<u64>> {
        self.index.insert(env, key, value)
    }

    /// Reads a key.
    ///
    /// # Errors
    ///
    /// Propagates index failures.
    pub fn get<S: TimingSink>(&mut self, env: &mut ExecEnv<S>, key: u64) -> Result<Option<u64>> {
        self.index.get(env, key)
    }

    /// Removes a key, returning its value if it was present.
    ///
    /// # Errors
    ///
    /// Propagates index failures.
    pub fn remove<S: TimingSink>(&mut self, env: &mut ExecEnv<S>, key: u64) -> Result<Option<u64>> {
        self.index.remove(env, key)
    }

    /// Number of pairs stored.
    ///
    /// # Errors
    ///
    /// Propagates index failures.
    pub fn len<S: TimingSink>(&mut self, env: &mut ExecEnv<S>) -> Result<u64> {
        self.index.len(env)
    }

    /// Loads the initial records of a workload.
    ///
    /// # Errors
    ///
    /// Propagates index failures.
    pub fn load<S: TimingSink>(&mut self, env: &mut ExecEnv<S>, w: &Workload) -> Result<()> {
        for k in &w.load_keys {
            self.set(env, *k, k ^ 0x5a5a_5a5a_5a5a_5a5a)?;
        }
        Ok(())
    }

    /// Executes a workload's operation stream.
    ///
    /// # Errors
    ///
    /// Propagates index failures.
    pub fn run<S: TimingSink>(&mut self, env: &mut ExecEnv<S>, w: &Workload) -> Result<RunSummary> {
        let mut summary = RunSummary::default();
        for op in &w.ops {
            // Per-operation client work (key marshalling, dispatch, frames).
            env.frame_traffic(8, 4, 24);
            match op {
                Op::Get(k) => {
                    summary.gets += 1;
                    if let Some(v) = self.get(env, *k)? {
                        summary.hits += 1;
                        summary.checksum = summary.checksum.wrapping_add(v);
                    }
                }
                Op::Set(k, v) => {
                    summary.sets += 1;
                    self.set(env, *k, *v)?;
                }
            }
        }
        Ok(summary)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{generate, WorkloadSpec};
    use utpr_ds::{AvlTree, HashMapIndex, RbTree, ScapegoatTree, SplayTree};
    use utpr_heap::AddressSpace;
    use utpr_ptr::{Mode, NullSink};

    fn env(mode: Mode) -> ExecEnv<NullSink> {
        let mut space = AddressSpace::new(55);
        let pool = space.create_pool("kv-test", 32 << 20).unwrap();
        ExecEnv::builder(space).mode(mode).pool(pool).build()
    }

    fn summary_for<I: IndexOps>(mode: Mode) -> RunSummary {
        let mut e = env(mode);
        let mut store: KvStore<I> = KvStore::create(&mut e).unwrap();
        let w = generate(&WorkloadSpec::small());
        store.load(&mut e, &w).unwrap();
        store.run(&mut e, &w).unwrap()
    }

    #[test]
    fn all_indexes_agree_on_the_same_workload() {
        let reference = summary_for::<RbTree>(Mode::Hw);
        assert_eq!(reference.hits, reference.gets, "every GET must hit");
        assert_eq!(summary_for::<AvlTree>(Mode::Hw), reference);
        assert_eq!(summary_for::<SplayTree>(Mode::Hw), reference);
        assert_eq!(summary_for::<ScapegoatTree>(Mode::Hw), reference);
        assert_eq!(summary_for::<HashMapIndex>(Mode::Hw), reference);
    }

    #[test]
    fn modes_agree_on_results() {
        let hw = summary_for::<RbTree>(Mode::Hw);
        assert_eq!(summary_for::<RbTree>(Mode::Volatile), hw);
        assert_eq!(summary_for::<RbTree>(Mode::Explicit), hw);
        assert_eq!(summary_for::<RbTree>(Mode::Sw), hw);
    }

    #[test]
    fn store_length_tracks_inserts() {
        let mut e = env(Mode::Hw);
        let mut store: KvStore<HashMapIndex> = KvStore::create(&mut e).unwrap();
        let w = generate(&WorkloadSpec::small());
        store.load(&mut e, &w).unwrap();
        let sets = w.ops.iter().filter(|o| matches!(o, Op::Set(..))).count() as u64;
        store.run(&mut e, &w).unwrap();
        assert_eq!(store.len(&mut e).unwrap(), w.load_keys.len() as u64 + sets);
    }
}
