//! Durable-linearizability checking for concurrent key→value histories.
//!
//! A history is a set of operations, each with an *invocation* stamp, an
//! optional *response* stamp + result, and the thread that issued it.
//! Every [`KvOp`] touches exactly one key, and linearizability is *local*
//! (Herlihy & Wing): a history is linearizable iff each key's
//! sub-history is. So [`check`] splits the history by key and runs one
//! Wing & Gong-style search per key, ordering that key's operations into
//! a legal sequential execution of a single register (empty, or holding
//! one value) such that
//!
//! * every **completed** operation's recorded result matches what the
//!   register returns at its chosen linearization point,
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
//! the crashed execution. Durable linearizability is local too, which is
//! what makes the per-key split sound for crashed histories.
//!
//! Each search memoizes failed `(placed set, register)` pairs exactly, the
//! standard Wing & Gong pruning. The placed set is a growable bitset, so
//! a history has no size cap; the exponential worst case is per key.

use std::collections::{BTreeMap, HashSet};

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

impl KvOp {
    fn key(self) -> u64 {
        match self {
            KvOp::Insert(k, _) | KvOp::Remove(k) | KvOp::Get(k) => k,
        }
    }
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

/// The sequential specification of one key: applies `op` to the register
/// and returns what the op returns.
fn apply(register: &mut Option<u64>, op: KvOp) -> Option<u64> {
    match op {
        KvOp::Insert(_, v) => register.replace(v),
        KvOp::Remove(_) => register.take(),
        KvOp::Get(_) => *register,
    }
}

/// The Wing & Gong search over one key's sub-history.
struct KeySearch {
    /// `(history index, record)` of the key's ops, in history order.
    ops: Vec<(usize, OpRecord)>,
    /// Bitset over `ops`: the ops linearized so far.
    placed: Vec<u64>,
    register: Option<u64>,
    /// Nodes known to have no extension.
    memo: HashSet<(Vec<u64>, Option<u64>)>,
    /// History indices in linearized order.
    order: Vec<usize>,
    best_placed: usize,
    blocked_at: Option<usize>,
}

impl KeySearch {
    fn new(ops: Vec<(usize, OpRecord)>) -> KeySearch {
        KeySearch {
            placed: vec![0; ops.len().div_ceil(64)],
            ops,
            register: None,
            memo: HashSet::new(),
            order: Vec::new(),
            best_placed: 0,
            blocked_at: None,
        }
    }

    fn is_placed(&self, j: usize) -> bool {
        self.placed[j / 64] & 1 << (j % 64) != 0
    }

    /// Places op `j`, or takes it back.
    fn flip(&mut self, j: usize) {
        self.placed[j / 64] ^= 1 << (j % 64);
    }

    fn dfs(&mut self) -> bool {
        // Earliest response among unplaced ops bounds who may go next.
        let min_ret = (0..self.ops.len())
            .filter(|&j| !self.is_placed(j))
            .map(|j| self.ops[j].1.ret)
            .min()
            .unwrap_or(u64::MAX);
        if min_ret == u64::MAX {
            return true; // only pending ops are unplaced: drop them
        }
        if !self.memo.insert((self.placed.clone(), self.register)) {
            return false;
        }
        for j in 0..self.ops.len() {
            let (i, o) = self.ops[j];
            if self.is_placed(j) || o.invoke > min_ret {
                continue;
            }
            let before = self.register;
            let got = apply(&mut self.register, o.op);
            // A pending op may take any effect.
            if o.result.is_none_or(|expected| got == expected) {
                self.flip(j);
                self.order.push(i);
                if self.order.len() > self.best_placed {
                    self.best_placed = self.order.len();
                    self.blocked_at = None;
                }
                if self.dfs() {
                    return true;
                }
                self.order.pop();
                self.flip(j);
            } else if self.order.len() == self.best_placed && self.blocked_at.is_none() {
                self.blocked_at = Some(i);
            }
            // Undo the candidate, accepted or not: the next one is judged
            // against the state this node was entered with.
            self.register = before;
        }
        false
    }
}

/// Checks a history for (durable) linearizability: each key's
/// sub-history against a register.
///
/// On success returns one witness linearization: each key's op indices in
/// linearized order, keys ascending (dropped pending ops are absent). On
/// failure returns a diagnostic naming the failing key, its sub-history
/// and the first of its operations no extension could place.
///
/// # Errors
///
/// `Err(report)` when some key has no legal linearization.
pub fn check(history: &History) -> Result<Vec<usize>, String> {
    let mut by_key: BTreeMap<u64, Vec<(usize, OpRecord)>> = BTreeMap::new();
    for (i, o) in history.ops().iter().enumerate() {
        by_key.entry(o.op.key()).or_default().push((i, *o));
    }
    let mut witness = Vec::with_capacity(history.ops().len());
    for (key, ops) in by_key {
        let mut search = KeySearch::new(ops);
        if !search.dfs() {
            let culprit = search
                .blocked_at
                .map(|i| {
                    let o = &history.ops()[i];
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
            return Err(format!(
                "key {key}: history of {} ops ({} pending) is not linearizable: placed {}, then {culprit}",
                search.ops.len(),
                search.ops.iter().filter(|(_, o)| o.is_pending()).count(),
                search.best_placed,
            ));
        }
        witness.append(&mut search.order);
    }
    Ok(witness)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// Sequential executions are trivially linearizable, and each key's
    /// part of the witness is its sequential order.
    #[test]
    fn sequential_history_passes() {
        let mut h = History::new();
        let mut registers: HashMap<u64, Option<u64>> = HashMap::new();
        for op in [
            KvOp::Insert(1, 10),
            KvOp::Insert(2, 20),
            KvOp::Get(1),
            KvOp::Remove(1),
            KvOp::Get(1),
            KvOp::Insert(2, 21),
        ] {
            let id = h.begin(0, op);
            h.complete(id, apply(registers.entry(op.key()).or_default(), op));
        }
        let order = check(&h).expect("sequential history must pass");
        assert_eq!(order, vec![0, 2, 3, 4, 1, 5], "per-key sequential orders, keys ascending");
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
