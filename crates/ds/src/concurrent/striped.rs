//! Lock-striped adapter: lifts any sequential [`IndexOps`] structure
//! (the trees) into the [`ConcurrentIndex`] interface.
//!
//! Keys are hashed onto [`STRIPES`] independent instances of the inner
//! structure, each guarded by a CAS spin word in the adapter's
//! descriptor. A worker acquires the stripe lock (yield-spinning through
//! the handle, so seeded schedules stay deterministic and the holder
//! always progresses), runs the sequential operation inside an undo-log
//! transaction on its own slot, drains the pool (the persist point), and
//! releases.
//!
//! Two deliberate simplifications, documented here and in `DESIGN.md`
//! §12:
//!
//! * **Lock words are volatile-semantics.** They live in pool memory
//!   because the descriptor must be shard-independent, but their durable
//!   value is meaningless: after a crash, [`Striped::clear_locks`] must
//!   run before workers attach (a held lock dies with its holder).
//! * **Flush strategies collapse.** The inner structure's stores go
//!   through the sequential [`ExecEnv`] write path, not the handle, so
//!   FliT tags and Traverse boundaries have nothing to hook; every
//!   strategy behaves like the drain-on-release shown here. Benches
//!   report striped rows under the `eager` label only.
//!
//! Lock ordering: each operation holds at most one stripe lock and never
//! allocates a second, so the adapter cannot deadlock against itself or
//! the heap's internal `plane → slabs → central → media → stripes`
//! order (stripe locks here are *above* all heap locks).

use std::marker::PhantomData;

use utpr_ptr::{site, ExecEnv, TimingSink, UPtr};

use super::{ConcurrentIndex, Handle};
use crate::index::{IndexCore, IndexOps, Result};

/// Stripe count (fixed power of two).
pub const STRIPES: u64 = 8;

const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

/// Descriptor layout: `[stripe_count, (lock, inner_desc) × STRIPES]`.
const DESC_BYTES: u64 = 8 + STRIPES * 16;

#[inline]
fn stripe_of(key: u64) -> u64 {
    key.wrapping_mul(GOLDEN) >> (64 - STRIPES.trailing_zeros())
}

#[inline]
fn lock_off(s: u64) -> i64 {
    (8 + s * 16) as i64
}

#[inline]
fn desc_off(s: u64) -> i64 {
    (8 + s * 16 + 8) as i64
}

/// Lock-striped concurrent wrapper over a sequential index.
pub struct Striped<I> {
    desc: UPtr,
    _inner: PhantomData<I>,
}

// Derive-free impls: `I` itself is only a type tag, the wrapper holds no
// instance of it.
impl<I> Clone for Striped<I> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<I> Copy for Striped<I> {}

impl<I: IndexOps> Striped<I> {
    /// Clears every stripe lock word. Must run once, single-threaded,
    /// after crash recovery and before workers reattach: a lock held at
    /// the crash died with its holder.
    ///
    /// # Errors
    ///
    /// Propagates translation failures.
    pub fn clear_locks<S: TimingSink>(&self, env: &mut ExecEnv<S>) -> Result<()> {
        for s in 0..STRIPES {
            env.write_u64(site!("striped.clear-lock", Param), self.desc, lock_off(s), 0)?;
        }
        env.space_mut().fence();
        Ok(())
    }

    fn acquire<S: TimingSink>(&self, h: &mut Handle<'_, S>, s: u64) -> Result<()> {
        loop {
            let (ok, _) =
                h.cas_word(site!("striped.lock", Param), self.desc, lock_off(s), 0, 1)?;
            if ok {
                return Ok(());
            }
            // cas_word yields before each attempt, so under a turnstile
            // the holder is guaranteed to run and release.
        }
    }

    fn with_stripe<S: TimingSink, R>(
        &self,
        h: &mut Handle<'_, S>,
        s: u64,
        f: impl FnOnce(&mut I, &mut ExecEnv<S>) -> Result<R>,
    ) -> Result<R> {
        self.acquire(h, s)?;
        let inner_desc = h.env_mut().read_ptr(site!("striped.desc", KnownReturn), self.desc, desc_off(s))?;
        let mut inner = I::open(inner_desc);
        // The sequential op runs under the worker's undo-log slot so a
        // crash mid-rotation rolls back instead of tearing the tree.
        let r = h.env_mut().with_txn(|env| f(&mut inner, env));
        match r {
            Ok(v) => {
                // Persist point before the release store: the operation
                // is durable before it becomes visible as "unlocked".
                h.op_persist();
                h.write_word(site!("striped.unlock", Param), self.desc, lock_off(s), 0)?;
                Ok(v)
            }
            // Crash or hard error: die holding the lock (clear_locks
            // handles it after recovery).
            Err(e) => Err(e),
        }
    }
}

impl<I: IndexOps> IndexCore for Striped<I> {
    const NAME: &'static str = "Striped";

    fn create<S: TimingSink>(env: &mut ExecEnv<S>) -> Result<Self> {
        let desc = env.alloc(site!("striped.create", AllocResult), DESC_BYTES)?;
        env.write_u64(site!("striped.init-count", AllocResult), desc, 0, STRIPES)?;
        for s in 0..STRIPES {
            let inner = I::create(env)?;
            env.write_u64(site!("striped.init-lock", AllocResult), desc, lock_off(s), 0)?;
            env.write_ptr(
                site!("striped.init-desc", AllocResult),
                desc,
                desc_off(s),
                inner.descriptor(),
            )?;
        }
        env.space_mut().fence();
        Ok(Striped { desc, _inner: PhantomData })
    }

    fn open(descriptor: UPtr) -> Self {
        Striped { desc: descriptor, _inner: PhantomData }
    }

    fn descriptor(&self) -> UPtr {
        self.desc
    }

    fn validate<S: TimingSink>(&self, env: &mut ExecEnv<S>) -> Result<u64> {
        let count = env.read_u64(site!("striped.val-count", KnownReturn), self.desc, 0)?;
        assert_eq!(count, STRIPES, "stripe directory header damaged");
        let mut total = 0;
        for s in 0..STRIPES {
            let inner_desc =
                env.read_ptr(site!("striped.val-desc", KnownReturn), self.desc, desc_off(s))?;
            total += I::open(inner_desc).validate(env)?;
        }
        Ok(total)
    }
}

impl<I: IndexOps> ConcurrentIndex for Striped<I> {
    fn insert<S: TimingSink>(
        &self,
        h: &mut Handle<'_, S>,
        key: u64,
        value: u64,
    ) -> Result<Option<u64>> {
        self.with_stripe(h, stripe_of(key), |i, env| i.insert(env, key, value))
    }

    fn get<S: TimingSink>(&self, h: &mut Handle<'_, S>, key: u64) -> Result<Option<u64>> {
        self.with_stripe(h, stripe_of(key), |i, env| i.get(env, key))
    }

    fn remove<S: TimingSink>(&self, h: &mut Handle<'_, S>, key: u64) -> Result<Option<u64>> {
        self.with_stripe(h, stripe_of(key), |i, env| i.remove(env, key))
    }

    fn len<S: TimingSink>(&self, h: &mut Handle<'_, S>) -> Result<u64> {
        let mut total = 0;
        for s in 0..STRIPES {
            total += self.with_stripe(h, s, |i, env| i.len(env))?;
        }
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::concurrent::FlushStrategy;
    use crate::RbTree;
    use std::collections::BTreeMap;
    use utpr_heap::{AddressSpace, FlushModel, SharedPool};
    use utpr_ptr::{CountingSink, Mode};

    #[test]
    fn striped_rb_matches_model_and_validates() {
        let sp = SharedPool::create("striped-rb", 16 << 20, 8).unwrap();
        sp.set_flush_model(FlushModel::Adr);
        let mut space = AddressSpace::new(23);
        let pool = space.adopt_shared(&sp).unwrap();
        let mut env = ExecEnv::builder(space)
            .mode(Mode::Hw)
            .pool(pool)
            .sink(CountingSink::new())
            .build();
        let idx: Striped<RbTree> = Striped::create(&mut env).unwrap();
        let mut h = Handle::new(&mut env, FlushStrategy::Eager).unwrap();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        let mut x = 0xfeed_beefu64;
        let mut step = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..400 {
            let r = step();
            let key = step() % 97;
            match r % 4 {
                0 | 1 => {
                    let v = step();
                    assert_eq!(idx.insert(&mut h, key, v).unwrap(), model.insert(key, v));
                }
                2 => assert_eq!(idx.get(&mut h, key).unwrap(), model.get(&key).copied()),
                _ => assert_eq!(idx.remove(&mut h, key).unwrap(), model.remove(&key)),
            }
        }
        assert_eq!(idx.len(&mut h).unwrap(), model.len() as u64);
        assert_eq!(idx.validate(&mut env).unwrap(), model.len() as u64);
        let reopened: Striped<RbTree> = Striped::open(idx.descriptor());
        reopened.clear_locks(&mut env).unwrap();
        assert_eq!(reopened.validate(&mut env).unwrap(), model.len() as u64);
    }
}
