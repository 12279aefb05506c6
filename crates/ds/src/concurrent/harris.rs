//! Harris-style lock-free sorted-list core shared by [`super::ConcList`]
//! and [`super::ConcHash`].
//!
//! One chain is a singly-linked run of 24-byte nodes `[key, value, next]`,
//! sorted strictly by key, hanging off a *head link word* (a bare `u64`
//! slot in the owner's descriptor — not a sentinel node). All stored links
//! are pool-relative raw pointer bits, so every worker shard sees the same
//! chain no matter where its attachment mapped the pool.
//!
//! Deviations from the textbook Harris list, chosen so the map supports
//! linearizable in-place updates:
//!
//! * **The value word is the node's liveness register.** Every change to
//!   a present node is one CAS on it: an update `v → v'`, a remove
//!   `v → TOMBSTONE` (whose old value is the op's return), and an insert
//!   of a removed key *revives* its node with `TOMBSTONE → v`. One atomic
//!   word arbitrates every update/remove/revive race, which is what makes
//!   the histories pass the Wing&Gong checker.
//! * **Nodes are never unlinked.** There is no mark bit and no helping: a
//!   link changes only when a fresh node is spliced in right after it, so
//!   a chain holds exactly one node per key ever inserted. Any node is
//!   therefore a valid place to resume a search for a larger key, forever
//!   — a splice that lost its CAS resumes from its own predecessor, and
//!   [`super::ConcHash`]'s directory fingers rely on the same fact.
//! * **Memory is bounded by the distinct keys ever inserted**, not by the
//!   operations: removing and re-inserting a key reuses its node. Nodes
//!   are never freed, which also kills ABA (a raw pointer value is never
//!   reissued). The price is that a search walks past dead keys too; the
//!   only other allocation, a node prepared for a splice that lost to an
//!   insert of the same key, happens at most once per thread and key.

use utpr_ptr::{site, ExecEnv, TimingSink, UPtr};

use super::{Handle, TOMBSTONE};
use crate::index::Result;

/// Node layout: `[key, value, next]`.
const OFF_KEY: i64 = 0;
const OFF_VALUE: i64 = 8;
const OFF_NEXT: i64 = 16;
const NODE_BYTES: u64 = 24;

/// A link word: `base + off` holds the raw bits of the next node (0 at
/// the end of the chain).
#[derive(Clone, Copy)]
pub(crate) struct Link {
    base: UPtr,
    off: i64,
}

impl Link {
    /// A head slot in an owner's descriptor.
    pub(crate) fn slot(base: UPtr, off: i64) -> Link {
        Link { base, off }
    }

    /// The `next` word of the node whose raw bits are `raw`.
    pub(crate) fn after(raw: u64) -> Link {
        Link { base: UPtr::from_raw(raw), off: OFF_NEXT }
    }
}

/// What a chain operation does at its key's place.
#[derive(Clone, Copy)]
pub(crate) enum Op {
    Get,
    Insert(u64),
    Remove,
}

/// What one search walked over, for owners that steer by it.
pub(crate) struct Walk {
    /// Raw bits of the last node passed whose key is below the search's
    /// `split` (0: none).
    pub below: u64,
    /// Nodes passed whose key is at least `split`.
    pub past: u32,
}

/// Where a search landed: the link word `pred` holds `curr_raw` (0 at end
/// of chain), and `curr_key >= key` when `curr_raw` is non-zero.
struct Cursor {
    pred: Link,
    curr_raw: u64,
    curr_key: u64,
}

/// Walks from `from` to the first node whose key is at least `key`, and
/// ends with the NVTraverse `ensureReachable` boundary: the pred link
/// word and the current node are made durable before the caller's
/// critical phase.
fn search<S: TimingSink>(
    h: &mut Handle<'_, S>,
    from: Link,
    key: u64,
    split: u64,
) -> Result<(Cursor, Walk)> {
    let mut pred = from;
    let mut curr_raw = h.read_word(site!("harris.load-head", Param), pred.base, pred.off)?;
    let mut walk = Walk { below: 0, past: 0 };
    loop {
        if curr_raw == 0 {
            h.ensure_reachable(pred.base, pred.off, 8)?;
            return Ok((Cursor { pred, curr_raw, curr_key: 0 }, walk));
        }
        let curr = UPtr::from_raw(curr_raw);
        let curr_key = h.read_word(site!("harris.load-key", MemLoad), curr, OFF_KEY)?;
        if curr_key >= key {
            h.ensure_reachable(pred.base, pred.off, 8)?;
            h.ensure_reachable(curr, 0, NODE_BYTES)?;
            return Ok((Cursor { pred, curr_raw, curr_key }, walk));
        }
        if curr_key < split {
            walk.below = curr_raw;
        } else {
            walk.past += 1;
        }
        pred = Link::after(curr_raw);
        curr_raw = h.read_word(site!("harris.load-next", MemLoad), curr, OFF_NEXT)?;
    }
}

/// Runs `op` on `key`, searching from `from`, and returns the value the
/// key held before, plus what the first search walked over (`split` only
/// feeds [`Walk`]). Stops short of the persist point: the owner places
/// [`Handle::op_persist`], which is the op's durability point.
pub(crate) fn run<S: TimingSink>(
    h: &mut Handle<'_, S>,
    from: Link,
    key: u64,
    split: u64,
    op: Op,
) -> Result<(Option<u64>, Walk)> {
    if let Op::Insert(value) = op {
        assert!(value < TOMBSTONE, "value {value:#x} is reserved (VALUE_LIMIT)");
    }
    let (mut c, walk) = search(h, from, key, split)?;
    // One spare node survives CAS retries so a contended insert does not
    // allocate per attempt.
    let mut spare: Option<UPtr> = None;
    loop {
        if c.curr_raw != 0 && c.curr_key == key {
            return Ok((swap_value(h, UPtr::from_raw(c.curr_raw), op)?, walk));
        }
        let Op::Insert(value) = op else {
            return Ok((None, walk));
        };
        let n = match spare {
            Some(n) => n,
            None => {
                let n = h.alloc(site!("harris.alloc", AllocResult), NODE_BYTES)?;
                h.write_word(site!("harris.init-key", AllocResult), n, OFF_KEY, key)?;
                h.write_word(site!("harris.init-val", AllocResult), n, OFF_VALUE, value)?;
                spare = Some(n);
                n
            }
        };
        h.write_word(site!("harris.init-next", AllocResult), n, OFF_NEXT, c.curr_raw)?;
        let n_raw = h.rel_raw(n)?;
        let (ok, _) =
            h.cas_word(site!("harris.publish", Param), c.pred.base, c.pred.off, c.curr_raw, n_raw)?;
        if ok {
            return Ok((None, walk));
        }
        // A node was spliced in after our predecessor, which is still in
        // the chain and still below `key`: resume from it.
        c = search(h, c.pred, key, 0)?.0;
    }
}

/// `op` on the node that holds its key: one CAS on the value word, or
/// none for a get and for a remove of a dead key.
fn swap_value<S: TimingSink>(h: &mut Handle<'_, S>, node: UPtr, op: Op) -> Result<Option<u64>> {
    loop {
        let v = h.read_word(site!("harris.load-value", MemLoad), node, OFF_VALUE)?;
        let live = (v != TOMBSTONE).then_some(v);
        let new = match op {
            Op::Get => return Ok(live),
            Op::Remove if live.is_none() => return Ok(None),
            Op::Remove => TOMBSTONE,
            Op::Insert(value) => value,
        };
        if h.cas_word(site!("harris.swap-value", MemLoad), node, OFF_VALUE, v, new)?.0 {
            return Ok(live);
        }
    }
}

/// Live-key count by full traversal (exact at quiescence; a snapshot
/// under concurrency, like any lock-free size). No persist point, like
/// [`run`].
pub(crate) fn count_live<S: TimingSink>(h: &mut Handle<'_, S>, head: Link) -> Result<u64> {
    let mut raw = h.read_word(site!("harris.count-head", Param), head.base, head.off)?;
    let mut live = 0u64;
    while raw != 0 {
        let node = UPtr::from_raw(raw);
        let v = h.read_word(site!("harris.count-val", MemLoad), node, OFF_VALUE)?;
        live += u64::from(v != TOMBSTONE);
        raw = h.read_word(site!("harris.count-next", MemLoad), node, OFF_NEXT)?;
    }
    Ok(live)
}

/// Quiescent invariant walk used by `IndexCore::validate`: keys strictly
/// increasing and no link with a stray low bit. Hands every node's raw
/// bits and key to `visit`. Panics on violation (the sweeps catch the
/// panic); returns the live count.
pub(crate) fn validate_chain<S: TimingSink>(
    env: &mut ExecEnv<S>,
    head: Link,
    mut visit: impl FnMut(u64, u64),
) -> Result<u64> {
    let mut raw = env.read_u64(site!("harris.val-head", Param), head.base, head.off)?;
    let mut live = 0u64;
    let mut last_key: Option<u64> = None;
    while raw != 0 {
        assert_eq!(raw & 7, 0, "link {raw:#x} carries a stray low bit");
        let node = UPtr::from_raw(raw);
        let key = env.read_u64(site!("harris.val-key", MemLoad), node, OFF_KEY)?;
        let value = env.read_u64(site!("harris.val-val", MemLoad), node, OFF_VALUE)?;
        if let Some(lk) = last_key {
            assert!(key > lk, "chain order violated: {key} after {lk}");
        }
        live += u64::from(value != TOMBSTONE);
        visit(raw, key);
        last_key = Some(key);
        raw = env.read_u64(site!("harris.val-next", MemLoad), node, OFF_NEXT)?;
    }
    Ok(live)
}

#[cfg(test)]
mod tests {
    use crate::concurrent::{ConcurrentIndex, FlushStrategy, Handle};
    use crate::{ConcHash, ConcList, IndexCore};
    use utpr_heap::{AddressSpace, FlushModel, SharedPool};
    use utpr_ptr::{ExecEnv, Mode};

    /// Inserts and removes the same 512 keys for 20 passes and returns the
    /// pool's (allocation count, resident bytes) after each pass.
    fn churn<I: ConcurrentIndex>(name: &str) -> Vec<(u64, u64)> {
        let sp = SharedPool::create(name, 16 << 20, 8).unwrap();
        sp.set_flush_model(FlushModel::Adr);
        let mut space = AddressSpace::new(9);
        let pool = space.adopt_shared(&sp).unwrap();
        let mut env = ExecEnv::builder(space).mode(Mode::Hw).pool(pool).build();
        let idx = I::create(&mut env).unwrap();
        let mut h = Handle::new(&mut env, FlushStrategy::Traverse).unwrap();
        let mut marks = Vec::new();
        for pass in 0..20 {
            for k in 0..512 {
                assert_eq!(idx.insert(&mut h, k, pass).unwrap(), None);
            }
            for k in 0..512 {
                assert_eq!(idx.remove(&mut h, k).unwrap(), Some(pass));
            }
            marks.push((sp.allocation_count(), sp.resident_bytes()));
        }
        marks
    }

    /// A removed key's node is revived by its next insert, so churn over a
    /// fixed key set allocates nothing after the first pass.
    #[test]
    fn churn_over_a_fixed_key_set_stays_flat() {
        for (name, marks) in [
            (ConcList::NAME, churn::<ConcList>("churn-list")),
            (ConcHash::NAME, churn::<ConcHash>("churn-hash")),
        ] {
            assert!(marks.windows(2).all(|w| w[0] == w[1]), "{name} grew after pass 1: {marks:?}");
        }
    }
}
