//! Lock-free sorted linked-list map: one [`harris`] chain behind a
//! one-word descriptor.
//!
//! The concurrent counterpart of [`crate::ll::LinkedList`] in the
//! benchmark suite's "LL" slot — but as a key→value *map* so it shares
//! the [`ConcurrentIndex`] interface and the linearizability oracles
//! with the hash map.
//!
//! ```
//! use utpr_ds::{ConcList, ConcurrentIndex, FlushStrategy, Handle, IndexCore};
//! use utpr_heap::{AddressSpace, FlushModel, SharedPool};
//! use utpr_ptr::{ExecEnv, Mode};
//!
//! let sp = SharedPool::create("doc-clist", 4 << 20, 8)?;
//! sp.set_flush_model(FlushModel::Adr);
//! let mut space = AddressSpace::new(1);
//! let pool = space.adopt_shared(&sp)?;
//! let mut env = ExecEnv::builder(space).mode(Mode::Hw).pool(pool).build();
//! let list = ConcList::create(&mut env)?;
//! let mut h = Handle::new(&mut env, FlushStrategy::FliT)?;
//! assert_eq!(list.insert(&mut h, 7, 70)?, None);
//! assert_eq!(list.get(&mut h, 7)?, Some(70));
//! assert_eq!(list.remove(&mut h, 7)?, Some(70));
//! assert_eq!(list.len(&mut h)?, 0);
//! # Ok::<(), utpr_heap::HeapError>(())
//! ```

use utpr_ptr::{site, ExecEnv, TimingSink, UPtr};

use super::harris::{self, Link, Op};
use super::{ConcurrentIndex, Handle};
use crate::index::{IndexCore, Result};

/// Lock-free sorted-list map; the value is just the descriptor pointer,
/// so it is `Copy`-cheap to reopen per worker shard.
#[derive(Clone, Copy, Debug)]
pub struct ConcList {
    desc: UPtr,
}

impl IndexCore for ConcList {
    const NAME: &'static str = "CList";

    fn create<S: TimingSink>(env: &mut ExecEnv<S>) -> Result<Self> {
        let desc = env.alloc(site!("clist.create", AllocResult), 8)?;
        env.write_u64(site!("clist.init-head", AllocResult), desc, 0, 0)?;
        // Single-threaded setup: drain so the empty chain is durable
        // before any worker adopts the pool.
        env.space_mut().fence();
        Ok(ConcList { desc })
    }

    fn open(descriptor: UPtr) -> Self {
        ConcList { desc: descriptor }
    }

    fn descriptor(&self) -> UPtr {
        self.desc
    }

    fn validate<S: TimingSink>(&self, env: &mut ExecEnv<S>) -> Result<u64> {
        harris::validate_chain(env, self.head(), |_, _| {})
    }
}

impl ConcList {
    fn head(&self) -> Link {
        Link::slot(self.desc, 0)
    }

    fn run<S: TimingSink>(&self, h: &mut Handle<'_, S>, key: u64, op: Op) -> Result<Option<u64>> {
        let (out, _) = harris::run(h, self.head(), key, 0, op)?;
        h.op_persist();
        Ok(out)
    }
}

impl ConcurrentIndex for ConcList {
    fn insert<S: TimingSink>(
        &self,
        h: &mut Handle<'_, S>,
        key: u64,
        value: u64,
    ) -> Result<Option<u64>> {
        self.run(h, key, Op::Insert(value))
    }

    fn get<S: TimingSink>(&self, h: &mut Handle<'_, S>, key: u64) -> Result<Option<u64>> {
        self.run(h, key, Op::Get)
    }

    fn remove<S: TimingSink>(&self, h: &mut Handle<'_, S>, key: u64) -> Result<Option<u64>> {
        self.run(h, key, Op::Remove)
    }

    fn len<S: TimingSink>(&self, h: &mut Handle<'_, S>) -> Result<u64> {
        let live = harris::count_live(h, self.head())?;
        h.op_persist();
        Ok(live)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::concurrent::FlushStrategy;
    use std::collections::BTreeMap;
    use std::sync::Arc;
    use utpr_heap::{AddressSpace, FlushModel, SharedPool};
    use utpr_ptr::{CountingSink, Mode, NullSink};

    fn setup(seed: u64, name: &str) -> ExecEnv<CountingSink> {
        let sp = SharedPool::create(name, 16 << 20, 8).unwrap();
        sp.set_flush_model(FlushModel::Adr);
        let mut space = AddressSpace::new(seed);
        let pool = space.adopt_shared(&sp).unwrap();
        ExecEnv::builder(space).mode(Mode::Hw).pool(pool).sink(CountingSink::new()).build()
    }

    #[test]
    fn oracle_against_btreemap_all_strategies() {
        for (i, strategy) in FlushStrategy::ALL.iter().enumerate() {
            let mut env = setup(41 + i as u64, &format!("clist-oracle-{i}"));
            let list = ConcList::create(&mut env).unwrap();
            let mut h = Handle::new(&mut env, *strategy).unwrap();
            let mut model: BTreeMap<u64, u64> = BTreeMap::new();
            let mut x = 0x9e3779b97f4a7c15u64 ^ i as u64;
            let mut step = || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            for op in 0..600 {
                let r = step();
                let key = step() % 61;
                match r % 4 {
                    0 | 1 => {
                        let v = step() >> 1; // < VALUE_LIMIT
                        assert_eq!(
                            list.insert(&mut h, key, v).unwrap(),
                            model.insert(key, v),
                            "{strategy:?} insert @{op}"
                        );
                    }
                    2 => assert_eq!(
                        list.get(&mut h, key).unwrap(),
                        model.get(&key).copied(),
                        "{strategy:?} get @{op}"
                    ),
                    _ => assert_eq!(
                        list.remove(&mut h, key).unwrap(),
                        model.remove(&key),
                        "{strategy:?} remove @{op}"
                    ),
                }
            }
            assert_eq!(list.len(&mut h).unwrap(), model.len() as u64);
            let c = h.counters();
            assert_eq!(c.ops, 601);
            assert_eq!(c.fences, c.ops, "one persist fence per op");
            let live = list.validate(&mut env).unwrap();
            assert_eq!(live, model.len() as u64, "{strategy:?} validate");
        }
    }

    #[test]
    fn two_real_threads_on_disjoint_keys_converge() {
        let sp = SharedPool::create("clist-mt", 16 << 20, 8).unwrap();
        sp.set_flush_model(FlushModel::Adr);
        let desc_rel = {
            let mut space = AddressSpace::new(5);
            let pool = space.adopt_shared(&sp).unwrap();
            let mut env = ExecEnv::builder(space).mode(Mode::Hw).pool(pool).build();
            let list = ConcList::create(&mut env).unwrap();
            let h = Handle::new(&mut env, FlushStrategy::Eager).unwrap();
            h.rel_raw(list.descriptor()).unwrap()
        };
        let sp = Arc::new(sp);
        std::thread::scope(|s| {
            for t in 0u64..2 {
                let sp = Arc::clone(&sp);
                s.spawn(move || {
                    let mut space = AddressSpace::new(100 + t);
                    let pool = space.adopt_shared(&sp).unwrap();
                    let mut env =
                        ExecEnv::builder(space).mode(Mode::Hw).pool(pool).sink(NullSink).build();
                    let list = ConcList::open(UPtr::from_raw(desc_rel));
                    let mut h = Handle::new(&mut env, FlushStrategy::FliT).unwrap();
                    for i in 0..50u64 {
                        let k = i * 2 + t; // interleaved, disjoint
                        list.insert(&mut h, k, k * 10).unwrap();
                    }
                    for i in 0..50u64 {
                        let k = i * 2 + t;
                        assert_eq!(list.get(&mut h, k).unwrap(), Some(k * 10));
                        if i % 5 == 0 {
                            assert_eq!(list.remove(&mut h, k).unwrap(), Some(k * 10));
                        }
                    }
                });
            }
        });
        let mut space = AddressSpace::new(777);
        let pool = space.adopt_shared(&sp).unwrap();
        let mut env = ExecEnv::builder(space).mode(Mode::Hw).pool(pool).build();
        let list = ConcList::open(UPtr::from_raw(desc_rel));
        let live = list.validate(&mut env).unwrap();
        assert_eq!(live, 80, "2 × (50 inserted − 10 removed)");
        let mut h = Handle::new(&mut env, FlushStrategy::Eager).unwrap();
        assert_eq!(list.len(&mut h).unwrap(), 80);
    }
}
