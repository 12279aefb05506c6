//! Durable-linearizability checking for concurrent key→value histories.
//!
//! A history is a set of operations, each with an *invocation* stamp, an
//! optional *response* stamp + result, and the thread that issued it.
//! [`check`] runs a Wing & Gong-style search: it tries to order the
//! operations into a legal sequential execution of a `BTreeMap` model
//! such that
//!
//! * every **completed** operation's recorded result matches what the
//!   model returns at its chosen linearization point,
//! * the order respects real time — if `a` responded before `b` was
//!   invoked, `a` linearizes before `b`,
//! * **pending** operations (invoked, never responded — e.g. cut off by
//!   a crash) may linearize with any effect *or be dropped entirely*.
//!
//! That last rule is exactly Izraelevitz et al.'s *durable
//! linearizability* once the caller appends the post-recovery audit to
//! the crashed history: recovered reads are ordinary completed
//! operations whose invocations follow every pre-crash response, so the
//! search accepts the history iff the surviving state is a legal cut of
//! the crashed execution.
//!
//! The search memoizes failed `(linearized-set, model-state)` pairs, the
//! standard Wing & Gong pruning; histories here are bounded by the
//! seeded schedules that produce them (≤ [`MAX_OPS`] operations), where
//! the exponential worst case is irrelevant.

use std::collections::{BTreeMap, HashSet};
use std::hash::{Hash, Hasher};

/// Hard cap on checkable history size (the linearized set is a `u128`
/// bit mask).
pub const MAX_OPS: usize = 128;

/// One key→value operation kind with its arguments.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KvOp {
    /// Insert-or-update; returns the previous value.
    Insert(u64, u64),
    /// Remove; returns the removed value.
    Remove(u64),
    /// Lookup; returns the current value.
    Get(u64),
}

/// One operation record in a history.
#[derive(Clone, Copy, Debug)]
pub struct OpRecord {
    /// Issuing thread (diagnostic only; real-time order comes from the
    /// stamps).
    pub thread: u32,
    /// The operation.
    pub op: KvOp,
    /// `Some(result)` for completed operations, `None` while pending
    /// (invoked but never responded — crashed mid-flight).
    pub result: Option<Option<u64>>,
    /// Invocation stamp.
    pub invoke: u64,
    /// Response stamp; `u64::MAX` while pending.
    pub ret: u64,
}

impl OpRecord {
    fn is_pending(&self) -> bool {
        self.result.is_none()
    }
}

/// An append-only operation history with a monotonic stamp clock.
#[derive(Clone, Debug, Default)]
pub struct History {
    ops: Vec<OpRecord>,
    clock: u64,
}

impl History {
    /// An empty history.
    #[must_use]
    pub fn new() -> History {
        History::default()
    }

    /// Records an invocation; returns the op's index for [`complete`].
    ///
    /// [`complete`]: History::complete
    pub fn begin(&mut self, thread: u32, op: KvOp) -> usize {
        let stamp = self.clock;
        self.clock += 1;
        self.ops.push(OpRecord { thread, op, result: None, invoke: stamp, ret: u64::MAX });
        self.ops.len() - 1
    }

    /// Records the response of a previously begun op.
    ///
    /// # Panics
    ///
    /// Panics when the op already completed.
    pub fn complete(&mut self, id: usize, result: Option<u64>) {
        let stamp = self.clock;
        self.clock += 1;
        let op = &mut self.ops[id];
        assert!(op.is_pending(), "op {id} completed twice");
        op.result = Some(result);
        op.ret = stamp;
    }

    /// The recorded operations.
    #[must_use]
    pub fn ops(&self) -> &[OpRecord] {
        &self.ops
    }

    /// Operations still pending (no response recorded).
    #[must_use]
    pub fn pending(&self) -> usize {
        self.ops.iter().filter(|o| o.is_pending()).count()
    }

    /// Overwrites a completed op's recorded result, keeping its stamps.
    /// Test support for checker self-tests: plants a response the real
    /// execution never produced, which [`check`] must then refuse.
    ///
    /// # Panics
    ///
    /// Panics when the op is still pending (corrupting a pending op is
    /// vacuous — pending results are unconstrained by definition).
    pub fn corrupt_result(&mut self, id: usize, result: Option<u64>) {
        let op = &mut self.ops[id];
        assert!(!op.is_pending(), "op {id} has no result to corrupt");
        op.result = Some(result);
    }
}

fn apply(model: &mut BTreeMap<u64, u64>, op: KvOp) -> Option<u64> {
    match op {
        KvOp::Insert(k, v) => model.insert(k, v),
        KvOp::Remove(k) => model.remove(&k),
        KvOp::Get(k) => model.get(&k).copied(),
    }
}

fn state_hash(model: &BTreeMap<u64, u64>) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for (k, v) in model {
        k.hash(&mut h);
        v.hash(&mut h);
    }
    h.finish()
}

/// Checks a history for (durable) linearizability against the
/// `BTreeMap` sequential specification.
///
/// On success returns one witness linearization: the op indices in
/// linearized order (dropped pending ops are absent). On failure returns
/// a diagnostic naming the first operation no extension could place.
///
/// # Errors
///
/// `Err(report)` when no legal linearization exists.
///
/// # Panics
///
/// Panics when the history exceeds [`MAX_OPS`].
pub fn check(history: &History) -> Result<Vec<usize>, String> {
    let ops = history.ops();
    let n = ops.len();
    assert!(n <= MAX_OPS, "history of {n} ops exceeds MAX_OPS={MAX_OPS}");
    let completed_mask: u128 =
        ops.iter().enumerate().filter(|(_, o)| !o.is_pending()).fold(0, |m, (i, _)| m | 1 << i);

    let mut memo: HashSet<(u128, u64)> = HashSet::new();
    let mut model: BTreeMap<u64, u64> = BTreeMap::new();
    let mut order: Vec<usize> = Vec::with_capacity(n);
    let mut best_placed = 0usize;
    let mut blocked_at: Option<usize> = None;

    fn dfs(
        ops: &[OpRecord],
        completed_mask: u128,
        mask: u128,
        model: &mut BTreeMap<u64, u64>,
        memo: &mut HashSet<(u128, u64)>,
        order: &mut Vec<usize>,
        best_placed: &mut usize,
        blocked_at: &mut Option<usize>,
    ) -> bool {
        if mask & completed_mask == completed_mask {
            return true; // every completed op placed; pending rest dropped
        }
        if !memo.insert((mask, state_hash(model))) {
            return false;
        }
        // Earliest response among unplaced ops bounds who may go next.
        let min_ret = ops
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) == 0)
            .map(|(_, o)| o.ret)
            .min()
            .unwrap_or(u64::MAX);
        for i in 0..ops.len() {
            if mask & (1 << i) != 0 || ops[i].invoke > min_ret {
                continue;
            }
            let o = &ops[i];
            let key = match o.op {
                KvOp::Insert(k, _) | KvOp::Remove(k) | KvOp::Get(k) => k,
            };
            let before = model.get(&key).copied();
            let got = apply(model, o.op);
            let consistent = match o.result {
                Some(expected) => got == expected,
                None => true, // pending: any effect is acceptable
            };
            if consistent {
                order.push(i);
                if order.len() > *best_placed {
                    *best_placed = order.len();
                    *blocked_at = None;
                }
                if dfs(
                    ops,
                    completed_mask,
                    mask | 1 << i,
                    model,
                    memo,
                    order,
                    best_placed,
                    blocked_at,
                ) {
                    return true;
                }
                order.pop();
            } else if order.len() == *best_placed && blocked_at.is_none() {
                *blocked_at = Some(i);
            }
            // Undo the candidate, accepted or not: the next one is judged
            // against the state this node was entered with.
            match before {
                Some(v) => model.insert(key, v),
                None => model.remove(&key),
            };
        }
        false
    }

    if dfs(
        ops,
        completed_mask,
        0,
        &mut model,
        &mut memo,
        &mut order,
        &mut best_placed,
        &mut blocked_at,
    ) {
        Ok(order)
    } else {
        let culprit = blocked_at
            .map(|i| {
                let o = &ops[i];
                format!(
                    "op {i} (thread {}, {:?} -> {:?}, invoke {}, ret {}) fits no extension",
                    o.thread,
                    o.op,
                    o.result,
                    o.invoke,
                    if o.ret == u64::MAX { "pending".into() } else { o.ret.to_string() },
                )
            })
            .unwrap_or_else(|| "no operation can linearize first".into());
        Err(format!(
            "history of {} ops ({} pending) is not linearizable: placed {best_placed}, then {culprit}",
            ops.len(),
            history.pending(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sequential executions are trivially linearizable.
    #[test]
    fn sequential_history_passes() {
        let mut h = History::new();
        let mut model = BTreeMap::new();
        for (op, _) in [
            (KvOp::Insert(1, 10), 0),
            (KvOp::Insert(2, 20), 0),
            (KvOp::Get(1), 0),
            (KvOp::Remove(1), 0),
            (KvOp::Get(1), 0),
            (KvOp::Insert(2, 21), 0),
        ] {
            let id = h.begin(0, op);
            h.complete(id, apply(&mut model, op));
        }
        let order = check(&h).expect("sequential history must pass");
        assert_eq!(order.len(), 6);
        assert!(order.windows(2).all(|w| w[0] < w[1]), "sequential order is the witness");
    }

    /// Two overlapping ops may linearize in either order.
    #[test]
    fn overlapping_ops_commute() {
        let mut h = History::new();
        let a = h.begin(0, KvOp::Insert(5, 50));
        let b = h.begin(1, KvOp::Get(5));
        h.complete(b, Some(50)); // get observed the insert...
        h.complete(a, None);
        check(&h).expect("get may linearize after the overlapping insert");

        let mut h2 = History::new();
        let a = h2.begin(0, KvOp::Insert(5, 50));
        let b = h2.begin(1, KvOp::Get(5));
        h2.complete(b, None); // ...or before it
        h2.complete(a, None);
        check(&h2).expect("get may linearize before the overlapping insert");
    }

    /// A read of a value that was never written can't linearize.
    #[test]
    fn phantom_read_fails() {
        let mut h = History::new();
        let a = h.begin(0, KvOp::Insert(1, 10));
        h.complete(a, None);
        let b = h.begin(1, KvOp::Get(1));
        h.complete(b, Some(999));
        let err = check(&h).unwrap_err();
        assert!(err.contains("not linearizable"), "{err}");
    }

    /// Real-time order is enforced: a get invoked AFTER a remove
    /// responded must not see the removed value.
    #[test]
    fn stale_read_after_remove_fails() {
        let mut h = History::new();
        let a = h.begin(0, KvOp::Insert(7, 70));
        h.complete(a, None);
        let b = h.begin(0, KvOp::Remove(7));
        h.complete(b, Some(70));
        let c = h.begin(1, KvOp::Get(7));
        h.complete(c, Some(70)); // stale: remove already responded
        check(&h).unwrap_err();
    }

    /// The same stale read passes when it OVERLAPS the remove.
    #[test]
    fn concurrent_read_during_remove_passes() {
        let mut h = History::new();
        let a = h.begin(0, KvOp::Insert(7, 70));
        h.complete(a, None);
        let c = h.begin(1, KvOp::Get(7)); // invoked before the remove responds
        let b = h.begin(0, KvOp::Remove(7));
        h.complete(b, Some(70));
        h.complete(c, Some(70));
        check(&h).expect("overlapping read may linearize before the remove");
    }

    /// Pending ops may be dropped (crashed before taking effect)…
    #[test]
    fn pending_op_dropped() {
        let mut h = History::new();
        let a = h.begin(0, KvOp::Insert(3, 30));
        h.complete(a, None);
        h.begin(1, KvOp::Insert(3, 31)); // never responds
        let c = h.begin(0, KvOp::Get(3));
        h.complete(c, Some(30)); // crash cut the update: old value visible
        check(&h).expect("pending update may be dropped");
    }

    /// …or included (its effect became durable before the crash).
    #[test]
    fn pending_op_included() {
        let mut h = History::new();
        let a = h.begin(0, KvOp::Insert(3, 30));
        h.complete(a, None);
        h.begin(1, KvOp::Insert(3, 31)); // never responds
        let c = h.begin(0, KvOp::Get(3));
        h.complete(c, Some(31)); // crash landed after the update's stores
        check(&h).expect("pending update may be included");
    }

    /// But a completed op's effect can never be lost: durable
    /// linearizability rejects losing an acknowledged insert.
    #[test]
    fn lost_acknowledged_insert_fails() {
        let mut h = History::new();
        let a = h.begin(0, KvOp::Insert(9, 90));
        h.complete(a, None);
        let c = h.begin(0, KvOp::Get(9)); // post-recovery audit read
        h.complete(c, None); // the insert vanished
        check(&h).unwrap_err();
    }

    #[test]
    fn memoization_handles_wide_histories() {
        // 3 threads × 8 sequentially-consistent ops each, heavily
        // overlapped: passes and terminates fast thanks to the memo.
        let mut h = History::new();
        let mut ids = Vec::new();
        for round in 0..8u64 {
            for t in 0..3u32 {
                let k = u64::from(t);
                ids.push((h.begin(t, KvOp::Insert(k, round)), round));
            }
            for _ in 0..3 {
                let (id, round) = ids.remove(0);
                h.complete(id, round.checked_sub(1));
            }
        }
        check(&h).expect("per-key independent threads linearize");
    }
}
