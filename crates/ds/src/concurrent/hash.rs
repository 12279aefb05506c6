//! Lock-free hash map: one [`harris`] chain in hash order, entered
//! through a directory of fingers that grows with the chain.
//!
//! The concurrent counterpart of [`crate::hash::HashMapIndex`].
//!
//! ## Chain and directory
//!
//! A key is stored as `h = key · 0x9e37_79b9_7f4a_7c15`. The multiplier
//! is odd, so this is a bijection on `u64`, and the chain stores and
//! compares `h` exactly as [`super::ConcList`] stores keys. At directory
//! level `L` a *bucket* is the run of `h` sharing its top `L` bits; its
//! range starts at `r`, those bits followed by zeros. The directory holds
//! one *finger* per bucket: the raw pointer of some chain node whose `h`
//! lies below `r`. Nodes are never unlinked (see [`harris`]), so a finger
//! never goes stale, and a search for `h` starts from its own bucket's
//! finger instead of the chain head. Bucket 0's finger is the head link;
//! an unset finger falls back to its parent bucket's, the one a level up
//! whose range starts at or below `r`.
//!
//! The directory starts at one bucket and doubles when a search passes
//! more than `GROW_WALK` (8) nodes of its own bucket: a CAS on the level
//! word. The fingers of the buckets a level adds (those whose `r` has its
//! lowest set bit at that level) form that level's segment, allocated by
//! the op that first needs it and never copied; a level is visible once
//! its segment is published. A finger is set by the first walk that
//! crosses its range start, and moved forward when a later walk passes
//! nodes spliced in between the finger and `r`.
//!
//! ## Crash contract
//!
//! The level, segment and finger words are hints: a crash may lose any of
//! them, and a lost one costs only a longer walk. Each is published after
//! the op's persist point, which drains every pending line, so the nodes
//! a finger names and a fresh segment's zeroes are durable first. A level
//! whose segment is missing reads as unset fingers, and the next op that
//! needs the segment publishes one. [`IndexCore::open`] stays a pure
//! constructor and recovery needs nothing; [`IndexCore::validate`] walks
//! the one chain and checks that every published finger is a chain node
//! below its range.
//!
//! ```
//! use utpr_ds::{ConcHash, ConcurrentIndex, FlushStrategy, Handle, IndexCore};
//! use utpr_heap::{AddressSpace, FlushModel, SharedPool};
//! use utpr_ptr::{ExecEnv, Mode};
//!
//! let sp = SharedPool::create("doc-chash", 4 << 20, 8)?;
//! sp.set_flush_model(FlushModel::Adr);
//! let mut space = AddressSpace::new(2);
//! let pool = space.adopt_shared(&sp)?;
//! let mut env = ExecEnv::builder(space).mode(Mode::Hw).pool(pool).build();
//! let map = ConcHash::create(&mut env)?;
//! let mut h = Handle::new(&mut env, FlushStrategy::Traverse)?;
//! assert_eq!(map.insert(&mut h, 1, 10)?, None);
//! assert_eq!(map.insert(&mut h, 1, 11)?, Some(10));
//! assert_eq!(map.len(&mut h)?, 1);
//! # Ok::<(), utpr_heap::HeapError>(())
//! ```

use std::collections::BTreeMap;

use utpr_ptr::{site, ExecEnv, TimingSink, UPtr};

use super::harris::{self, Link, Op};
use super::{ConcurrentIndex, Handle};
use crate::index::{IndexCore, Result};

const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

/// A search that passes more nodes of its own bucket than this doubles
/// the directory.
const GROW_WALK: u32 = 8;

/// Deepest directory level (`2^MAX_LEVEL` buckets).
const MAX_LEVEL: u32 = 30;

/// Descriptor layout: `[head, level, segment_1, …, segment_MAX_LEVEL]`.
const OFF_HEAD: i64 = 0;
const OFF_LEVEL: i64 = 8;
const DESC_BYTES: u64 = (2 + MAX_LEVEL as u64) * 8;

/// Descriptor offset of level `l`'s segment pointer (`l >= 1`).
fn seg_off(l: u32) -> i64 {
    8 + 8 * i64::from(l)
}

/// Level and in-segment offset of the finger of the bucket whose range
/// starts at `r` (non-zero): level `l`'s segment holds the `2^(l-1)`
/// buckets whose range start has its lowest set bit at level `l`.
fn finger_slot(r: u64) -> (u32, i64) {
    let tz = r.trailing_zeros();
    (64 - tz, ((r >> tz) >> 1) as i64 * 8)
}

/// Where one operation enters the chain.
struct Route {
    level: u32,
    /// Range start of the key's bucket at `level`.
    split: u64,
    /// Raw bits of the finger the search starts after (0: the head link).
    start: u64,
    /// The bucket's own finger slot and what it held; `None` for bucket 0
    /// and while its level has no segment.
    slot: Option<(UPtr, i64, u64)>,
    /// The bucket's level, when that level's segment is missing.
    missing: Option<u32>,
}

/// Lock-free chained hash map.
#[derive(Clone, Copy, Debug)]
pub struct ConcHash {
    desc: UPtr,
}

impl ConcHash {
    fn head(&self) -> Link {
        Link::slot(self.desc, OFF_HEAD)
    }

    /// Reads the level and the fingers from the key's bucket up to the
    /// first one set.
    fn route<S: TimingSink>(&self, h: &mut Handle<'_, S>, hk: u64) -> Result<Route> {
        let level = h.read_word(site!("chash.load-level", Param), self.desc, OFF_LEVEL)?;
        let level = level.min(u64::from(MAX_LEVEL)) as u32;
        let split = hk & !(u64::MAX >> level);
        let mut route = Route { level, split, start: 0, slot: None, missing: None };
        let mut r = split;
        while r != 0 {
            let (l, off) = finger_slot(r);
            let seg = h.read_word(site!("chash.load-seg", Param), self.desc, seg_off(l))?;
            if seg == 0 {
                if r == split {
                    route.missing = Some(l);
                }
            } else {
                let seg = UPtr::from_raw(seg);
                let finger = h.read_word(site!("chash.load-finger", MemLoad), seg, off)?;
                if r == split {
                    route.slot = Some((seg, off, finger));
                }
                if finger != 0 {
                    route.start = finger;
                    break;
                }
            }
            r &= r - 1; // the parent bucket's range start
        }
        Ok(route)
    }

    /// Allocates and zeroes level `l`'s segment unless one is published
    /// already. The zeroes are durable at the op's persist point, before
    /// the segment is published.
    fn new_segment<S: TimingSink>(&self, h: &mut Handle<'_, S>, l: u32) -> Result<Option<UPtr>> {
        if h.read_word(site!("chash.load-seg", Param), self.desc, seg_off(l))? != 0 {
            return Ok(None);
        }
        let words = 1u64 << (l - 1);
        let seg = h.alloc(site!("chash.alloc-seg", AllocResult), words * 8)?;
        for w in 0..words {
            h.write_word(site!("chash.init-seg", AllocResult), seg, (w * 8) as i64, 0)?;
        }
        Ok(Some(seg))
    }

    /// One operation: route, run it on the chain, persist, then publish
    /// the hints its walk called for.
    fn run<S: TimingSink>(&self, h: &mut Handle<'_, S>, key: u64, op: Op) -> Result<Option<u64>> {
        let hk = key.wrapping_mul(GOLDEN);
        let route = self.route(h, hk)?;
        let from = if route.start == 0 { self.head() } else { Link::after(route.start) };
        let (out, walk) = harris::run(h, from, hk, route.split, op)?;

        let grow = route.missing.is_none() && walk.past > GROW_WALK && route.level < MAX_LEVEL;
        let seg = match route.missing.or(grow.then_some(route.level + 1)) {
            Some(l) => self.new_segment(h, l)?.map(|seg| (l, seg)),
            None => None,
        };
        h.op_persist();

        if let Some((l, seg)) = seg {
            let raw = h.rel_raw(seg)?;
            if !h.cas_word(site!("chash.publish-seg", Param), self.desc, seg_off(l), 0, raw)?.0 {
                // Another op published this level first; ours was never seen.
                h.env_mut().free(site!("chash.free-seg", AllocResult), seg)?;
            }
        }
        if grow {
            let level = u64::from(route.level);
            h.cas_word(site!("chash.grow", Param), self.desc, OFF_LEVEL, level, level + 1)?;
        }
        if let Some((seg, off, finger)) = route.slot {
            let to = if walk.below != 0 { walk.below } else { route.start };
            if to != 0 && to != finger {
                h.cas_word(site!("chash.set-finger", MemLoad), seg, off, finger, to)?;
            }
        }
        Ok(out)
    }
}

impl IndexCore for ConcHash {
    const NAME: &'static str = "CHash";

    fn create<S: TimingSink>(env: &mut ExecEnv<S>) -> Result<Self> {
        let desc = env.alloc(site!("chash.create", AllocResult), DESC_BYTES)?;
        for w in 0..DESC_BYTES / 8 {
            env.write_u64(site!("chash.init", AllocResult), desc, (w * 8) as i64, 0)?;
        }
        env.space_mut().fence();
        Ok(ConcHash { desc })
    }

    fn open(descriptor: UPtr) -> Self {
        ConcHash { desc: descriptor }
    }

    fn descriptor(&self) -> UPtr {
        self.desc
    }

    fn validate<S: TimingSink>(&self, env: &mut ExecEnv<S>) -> Result<u64> {
        let mut nodes = BTreeMap::new();
        let live = harris::validate_chain(env, self.head(), |raw, hk| {
            nodes.insert(raw, hk);
        })?;
        let level = env.read_u64(site!("chash.val-level", Param), self.desc, OFF_LEVEL)?;
        assert!(level <= u64::from(MAX_LEVEL), "directory level {level} out of range");
        for l in 1..=MAX_LEVEL {
            let seg = env.read_u64(site!("chash.val-seg", Param), self.desc, seg_off(l))?;
            if seg == 0 {
                continue;
            }
            let seg = UPtr::from_raw(seg);
            for i in 0..1u64 << (l - 1) {
                let f = env.read_u64(site!("chash.val-finger", MemLoad), seg, (i * 8) as i64)?;
                if f == 0 {
                    continue;
                }
                let r = (2 * i + 1) << (64 - l);
                let Some(fh) = nodes.get(&f) else {
                    panic!("finger {f:#x} of bucket {r:#x} is not a chain node");
                };
                assert!(*fh < r, "finger {f:#x} (h {fh:#x}) is not below its bucket {r:#x}");
            }
        }
        Ok(live)
    }
}

impl ConcurrentIndex for ConcHash {
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
    use utpr_heap::{AddressSpace, FlushModel, SharedPool};
    use utpr_ptr::{CountingSink, Mode};
    use utpr_qc::sched::Turnstile;

    fn setup(seed: u64, name: &str) -> ExecEnv<CountingSink> {
        let sp = SharedPool::create(name, 16 << 20, 8).unwrap();
        sp.set_flush_model(FlushModel::Adr);
        let mut space = AddressSpace::new(seed);
        let pool = space.adopt_shared(&sp).unwrap();
        ExecEnv::builder(space).mode(Mode::Hw).pool(pool).sink(CountingSink::new()).build()
    }

    fn level<S: TimingSink>(map: &ConcHash, env: &mut ExecEnv<S>) -> u64 {
        env.read_u64(site!("chash.test-level", Param), map.desc, OFF_LEVEL).unwrap()
    }

    /// 4 096 keys, so the directory grows from one bucket through several
    /// levels while every result is checked against the model.
    #[test]
    fn oracle_against_btreemap() {
        for (i, strategy) in FlushStrategy::ALL.iter().enumerate() {
            let mut env = setup(19 + i as u64, &format!("chash-oracle-{i}"));
            let map = ConcHash::create(&mut env).unwrap();
            let mut h = Handle::new(&mut env, *strategy).unwrap();
            let mut model: BTreeMap<u64, u64> = BTreeMap::new();
            let mut x = 0x1234_5678_9abc_def1u64 ^ i as u64;
            let mut step = || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            for op in 0..12_000 {
                let r = step();
                let key = step() % 4096;
                match r % 8 {
                    0..=4 => {
                        let v = step() >> 1;
                        assert_eq!(
                            map.insert(&mut h, key, v).unwrap(),
                            model.insert(key, v),
                            "{strategy:?} insert @{op}"
                        );
                    }
                    5 | 6 => assert_eq!(
                        map.get(&mut h, key).unwrap(),
                        model.get(&key).copied(),
                        "{strategy:?} get @{op}"
                    ),
                    _ => assert_eq!(
                        map.remove(&mut h, key).unwrap(),
                        model.remove(&key),
                        "{strategy:?} remove @{op}"
                    ),
                }
            }
            assert_eq!(map.len(&mut h).unwrap(), model.len() as u64);
            drop(h);
            assert!(level(&map, &mut env) >= 8, "{strategy:?}: the directory must have grown");
            assert_eq!(map.validate(&mut env).unwrap(), model.len() as u64, "{strategy:?}");
        }
    }

    /// `len` is one walk of the one chain: one operation, one fence.
    #[test]
    fn len_is_one_operation() {
        let mut env = setup(23, "chash-len");
        let map = ConcHash::create(&mut env).unwrap();
        let mut h = Handle::new(&mut env, FlushStrategy::Traverse).unwrap();
        for k in 0..300 {
            map.insert(&mut h, k, k).unwrap();
        }
        let before = h.counters();
        assert_eq!(map.len(&mut h).unwrap(), 300);
        let after = h.counters();
        assert_eq!(after.ops - before.ops, 1, "ops");
        assert_eq!(after.fences - before.fences, 1, "fences");
    }

    /// Three threads insert interleaved keys under a seeded turnstile, so
    /// splices, finger moves, segment publication and level CASes race
    /// one shared access at a time. Returns the schedule length, the
    /// final level and a digest of every node address and key.
    fn growth_race(seed: u64) -> (u64, u64, u64) {
        const THREADS: u64 = 3;
        let sp = SharedPool::create(&format!("chash-race-{seed}"), 16 << 20, 8).unwrap();
        sp.set_flush_model(FlushModel::Adr);
        let mut space = AddressSpace::new(seed);
        let pool = space.adopt_shared(&sp).unwrap();
        let mut env = ExecEnv::builder(space).mode(Mode::Hw).pool(pool).build();
        let map = ConcHash::create(&mut env).unwrap();
        let desc = Handle::new(&mut env, FlushStrategy::Eager).unwrap().rel_raw(map.desc).unwrap();
        let ts = Turnstile::new(THREADS as usize, seed);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (sp, ts) = (&sp, &ts);
                s.spawn(move || {
                    let mut space = AddressSpace::new(seed ^ (t + 1));
                    let pool = space.adopt_shared(sp).unwrap();
                    let mut env = ExecEnv::builder(space).mode(Mode::Hw).pool(pool).build();
                    let map = ConcHash::open(UPtr::from_raw(desc));
                    let yielder = || {
                        ts.yield_point(t as usize)
                            .map_err(|_| utpr_heap::HeapError::CrashInjected { writes: u64::MAX })
                    };
                    let mut h =
                        Handle::new(&mut env, FlushStrategy::FliT).unwrap().with_yielder(&yielder);
                    for i in 0..150 {
                        let k = i * THREADS + t;
                        assert_eq!(map.insert(&mut h, k, k + 1).unwrap(), None);
                        if i % 4 == 0 {
                            assert_eq!(map.remove(&mut h, k).unwrap(), Some(k + 1));
                        }
                    }
                    ts.finish(t as usize);
                });
            }
        });
        let live = map.validate(&mut env).unwrap();
        assert_eq!(live, THREADS * (150 - 38));
        let mut digest = 0u64;
        harris::validate_chain(&mut env, map.head(), |raw, hk| {
            digest = digest.wrapping_mul(0x100_0000_01b3).wrapping_add(raw ^ hk);
        })
        .unwrap();
        (ts.grants(), level(&map, &mut env), digest)
    }

    #[test]
    fn concurrent_growth_replays_bit_for_bit() {
        for seed in [3, 0x5eed] {
            let a = growth_race(seed);
            assert!(a.1 >= 4, "seed {seed}: the directory must grow under the race: {a:?}");
            assert_eq!(a, growth_race(seed), "seed {seed}: the race must replay");
        }
    }

    #[test]
    fn strategies_produce_identical_contents() {
        let mut checksums = Vec::new();
        for (i, strategy) in FlushStrategy::ALL.iter().enumerate() {
            let mut env = setup(7, &format!("chash-same-{i}"));
            let map = ConcHash::create(&mut env).unwrap();
            let mut h = Handle::new(&mut env, *strategy).unwrap();
            for k in 0..200u64 {
                map.insert(&mut h, k.wrapping_mul(GOLDEN) % 997, k).unwrap();
            }
            for k in 0..50u64 {
                map.remove(&mut h, (k * 3).wrapping_mul(GOLDEN) % 997).unwrap();
            }
            let mut sum = 0u64;
            for k in 0..997u64 {
                if let Some(v) = map.get(&mut h, k).unwrap() {
                    sum = sum.wrapping_mul(0x100_0000_01b3).wrapping_add(k ^ v);
                }
            }
            checksums.push((h.counters(), sum));
        }
        assert_eq!(checksums[0].1, checksums[1].1, "eager vs flit contents");
        assert_eq!(checksums[0].1, checksums[2].1, "eager vs traverse contents");
        let (eager, flit, traverse) =
            (checksums[0].0, checksums[1].0, checksums[2].0);
        assert!(flit.flushes < eager.flushes, "flit must elide read flushes");
        assert!(traverse.flushes < eager.flushes, "traverse must elide traversal flushes");
        assert!(flit.elided > 0 && traverse.elided > 0);
    }
}
