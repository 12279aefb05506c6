//! The persistence plane: the one statement of the heap's persistency
//! contract. A [`PersistPlane`] is the fault gate every durable write
//! consults, the ADR "cache" of lines written but not yet flushed, the FliT
//! word tags, and the power-loss path that decides what survives.
//!
//! Both backings run this code and nothing else: an [`AddressSpace`] owns
//! one plane inline for its local pools, a [`SharedPool`] holds one behind
//! its `plane` mutex for every thread that adopted it. The plane never
//! touches pool bytes itself — callers hand it a line reader when staging
//! and a byte writer at power loss — so it needs no knowledge of whether
//! the image is a [`crate::pool::PoolImage`] or a striped device.
//!
//! [`AddressSpace`]: crate::space::AddressSpace
//! [`SharedPool`]: crate::shard::SharedPool

use crate::addr::PoolId;
use crate::error::Result;
use crate::faults::{FaultPlan, GateVerdict};
use crate::space::{FlushModel, LINE_SIZE};
use std::collections::BTreeMap;
use utpr_qc::rng::splitmix64;

/// The durable bytes of one cache line.
type Line = [u8; LINE_SIZE as usize];

/// `(pool, line offset)`.
type LineKey = (PoolId, u64);

/// Pending lines the linear-scanned front holds before the ordered map
/// takes the rest.
const FRONT_LINES: usize = 16;

/// Unflushed lines: `(pool, line offset)` → the line's *durable* bytes (the
/// image holds the newest bytes). The first [`FRONT_LINES`] sit in a front
/// scanned linearly whose capacity survives a drain, so a fence that drains
/// a few lines frees nothing and the stages after it allocate nothing; only
/// bulk writes that never fence reach the ordered map. A line is in exactly
/// one of the two.
#[derive(Clone, Debug, Default)]
struct Pending {
    front: Vec<(LineKey, Line)>,
    spill: BTreeMap<LineKey, Line>,
}

impl Pending {
    fn len(&self) -> usize {
        self.front.len() + self.spill.len()
    }

    /// Snapshots `key`'s durable bytes through `read` unless it is pending.
    #[inline]
    fn stage(&mut self, key: LineKey, read: impl FnOnce(&mut Line)) {
        if self.front.iter().any(|(k, _)| *k == key) || self.spill.contains_key(&key) {
            return;
        }
        let mut old = [0u8; LINE_SIZE as usize];
        read(&mut old);
        if self.front.len() < FRONT_LINES {
            self.front.push((key, old));
        } else {
            self.spill.insert(key, old);
        }
    }

    fn remove(&mut self, key: LineKey) -> bool {
        match self.front.iter().position(|(k, _)| *k == key) {
            Some(i) => {
                self.front.swap_remove(i);
                true
            }
            None => self.spill.remove(&key).is_some(),
        }
    }

    /// Drops every line of `pool`; returns how many there were.
    fn remove_pool(&mut self, pool: PoolId) -> usize {
        let before = self.len();
        self.front.retain(|((p, _), _)| *p != pool);
        self.spill.retain(|(p, _), _| *p != pool);
        before - self.len()
    }

    fn clear(&mut self) {
        self.front.clear();
        self.spill.clear();
    }

    /// Takes every line, in `(pool, line)` order.
    fn take_sorted(&mut self) -> Vec<(LineKey, Line)> {
        let mut all: Vec<(LineKey, Line)> = self.front.drain(..).collect();
        all.extend(std::mem::take(&mut self.spill));
        all.sort_unstable_by_key(|(key, _)| *key);
        all
    }
}

/// Fault gate + ADR staging buffer + fence accounting; see the module docs.
#[derive(Clone, Debug, Default)]
pub(crate) struct PersistPlane {
    /// The plan every durable write boundary consults. Disabled by default.
    pub(crate) faults: FaultPlan,
    /// Persistence-domain model. Under [`FlushModel::Adr`], written lines
    /// are volatile until flushed or fenced.
    model: FlushModel,
    /// Unflushed lines, drained in `(pool, line)` order at power loss so
    /// the drain is deterministic. Always empty under eADR.
    pending: Pending,
    /// FliT-style per-word dirty tags: `(pool, word offset)` → count of
    /// stores tagged but not yet persisted by their writer. A reader
    /// finding a tag must flush before depending on the word; an untagged
    /// word is provably persisted and the flush can be elided. Volatile.
    tags: BTreeMap<(PoolId, u64), u32>,
    /// Fence (full-drain) events issued.
    pub(crate) fences: u64,
    /// Lines made durable by explicit flush, fence drain, or detach — here,
    /// or on an adopted shared pool's plane by a space's machine-wide fence.
    pub(crate) lines_flushed: u64,
    /// Lines whose in-flight bytes went through a power-loss drain.
    pub(crate) lines_lost: u64,
    /// Group-commit window: while set, [`PersistPlane::fence`] records the
    /// event in `fences_elided` instead of issuing it, deferring durability
    /// to the next [`PersistPlane::persist_point`]. Volatile.
    pub(crate) defer_fences: bool,
    /// Fence events elided by an open group-commit window.
    pub(crate) fences_elided: u64,
}

impl PersistPlane {
    // ---- fault gate --------------------------------------------------------

    /// Gate for one *atomic* durable write (allocator metadata, root
    /// pointer): it either fully lands or never happens.
    ///
    /// # Errors
    ///
    /// Returns [`crate::HeapError::CrashInjected`] at and after the armed
    /// point.
    #[inline]
    pub(crate) fn gate(&mut self) -> Result<()> {
        self.faults.gate()
    }

    /// Gate for one *tearable* data write. The caller stages, applies the
    /// write, then hands the verdict to [`PersistPlane::settle`].
    ///
    /// # Errors
    ///
    /// Returns [`crate::HeapError::CrashInjected`] when the write must be
    /// suppressed (see [`FaultPlan::gate_tearable`]).
    #[inline]
    pub(crate) fn gate_tearable(&mut self) -> Result<GateVerdict> {
        self.faults.gate_tearable()
    }

    /// Closes a tearable write: a torn boundary's write landed in the
    /// cache, and the process is now dead.
    ///
    /// # Errors
    ///
    /// Returns [`crate::HeapError::CrashInjected`] for
    /// [`GateVerdict::TornCrash`].
    #[inline]
    pub(crate) fn settle(&self, verdict: GateVerdict) -> Result<()> {
        match verdict {
            GateVerdict::Proceed => Ok(()),
            GateVerdict::TornCrash => Err(self.faults.crash_error()),
        }
    }

    // ---- staging -----------------------------------------------------------

    pub(crate) fn flush_model(&self) -> FlushModel {
        self.model
    }

    /// Switches the persistence-domain model. Moving to eADR implicitly
    /// fences: lines in flight become durable and every tag clears.
    pub(crate) fn set_flush_model(&mut self, model: FlushModel) {
        if model == FlushModel::Eadr {
            self.lines_flushed += self.pending.len() as u64;
            self.pending.clear();
            self.tags.clear();
        }
        self.model = model;
    }

    /// Under ADR, snapshots the durable bytes of every line overlapped by
    /// `[off, off + len)` of `pool` that is not already pending;
    /// `read_line(line offset, buf)` fetches them from the image. Must run
    /// *before* the write mutates the image. A no-op under eADR.
    #[inline]
    pub(crate) fn stage(
        &mut self,
        pool: PoolId,
        off: u64,
        len: u64,
        mut read_line: impl FnMut(u64, &mut Line),
    ) {
        if self.model != FlushModel::Adr || len == 0 {
            return;
        }
        let last = (off + len - 1) / LINE_SIZE * LINE_SIZE;
        let mut line = off / LINE_SIZE * LINE_SIZE;
        loop {
            self.pending.stage((pool, line), |old| read_line(line, old));
            if line >= last {
                break;
            }
            line += LINE_SIZE;
        }
    }

    /// Targeted `clwb`: makes the line containing `off` of `pool` durable.
    /// Returns whether the line was actually pending.
    pub(crate) fn flush_line(&mut self, pool: PoolId, off: u64) -> bool {
        let hit = self.pending.remove((pool, off / LINE_SIZE * LINE_SIZE));
        // No store on a miss: Eager readers flush clean lines all the time,
        // and dirtying the counter's cache line under the shared pool's
        // contended lock costs a third of their two-thread throughput.
        if hit {
            self.lines_flushed += 1;
        }
        hit
    }

    /// Graceful detach of `pool`: its in-flight lines become durable.
    pub(crate) fn flush_pool(&mut self, pool: PoolId) {
        self.lines_flushed += self.pending.remove_pool(pool) as u64;
    }

    /// Lines currently written but not yet durable.
    pub(crate) fn pending_lines(&self) -> usize {
        self.pending.len()
    }

    // ---- fences ------------------------------------------------------------

    /// Flush + store fence, honouring an open group-commit window: returns
    /// whether the fence was issued (`false`: the window elided it).
    #[inline]
    pub(crate) fn fence(&mut self) -> bool {
        if self.defer_fences {
            self.fences_elided += 1;
            return false;
        }
        self.persist_point();
        true
    }

    /// The unconditional barrier: every pending line becomes durable, open
    /// window or not. Returns the number of lines drained.
    pub(crate) fn persist_point(&mut self) -> u64 {
        self.fences += 1;
        let n = self.pending.len() as u64;
        self.lines_flushed += n;
        self.pending.clear();
        n
    }

    // ---- FliT tags ---------------------------------------------------------

    /// Store side: marks the word at `off` dirty. The count nests so two
    /// in-flight stores need two completions.
    pub(crate) fn tag_word(&mut self, pool: PoolId, off: u64) {
        *self.tags.entry((pool, off / 8 * 8)).or_insert(0) += 1;
    }

    /// The writer persisted the word; drop one tag.
    pub(crate) fn untag_word(&mut self, pool: PoolId, off: u64) {
        let w = (pool, off / 8 * 8);
        if let Some(c) = self.tags.get_mut(&w) {
            *c -= 1;
            if *c == 0 {
                self.tags.remove(&w);
            }
        }
    }

    /// Load side: is the word possibly unpersisted?
    pub(crate) fn word_tagged(&self, pool: PoolId, off: u64) -> bool {
        self.tags.contains_key(&(pool, off / 8 * 8))
    }

    // ---- power loss --------------------------------------------------------

    /// Power loss: every unflushed line drains through `write(pool, offset,
    /// durable bytes)`. On a clean loss the whole line reverts; when the
    /// installed plan is a torn one ([`FaultPlan::torn_at`]), an
    /// 8-byte-word lottery seeded from the plan decides, per word, whether
    /// the in-flight value landed or the durable one survived. Tags and an
    /// open group-commit window are volatile and die with the process (the
    /// batch the window was deferring died un-acked).
    pub(crate) fn power_loss(&mut self, mut write: impl FnMut(PoolId, u64, &[u8])) {
        let torn_seed = self.faults.torn_drain_seed();
        let pending = self.pending.take_sorted();
        self.lines_lost += pending.len() as u64;
        for ((pool, line), old) in pending {
            let Some(seed) = torn_seed else {
                write(pool, line, &old);
                continue;
            };
            for (w, word) in old.chunks_exact(8).enumerate() {
                let at = line + w as u64 * 8;
                if splitmix64(seed ^ splitmix64(u64::from(pool.raw()) ^ at)) & 1 == 0 {
                    write(pool, at, word);
                }
            }
        }
        self.tags.clear();
        self.defer_fences = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::HeapError;

    const P: PoolId = PoolId::from_raw_trusted(1);
    const Q: PoolId = PoolId::from_raw_trusted(2);

    fn adr() -> PersistPlane {
        let mut pl = PersistPlane::default();
        pl.set_flush_model(FlushModel::Adr);
        pl
    }

    #[test]
    fn stage_snapshots_each_overlapped_line_once() {
        let mut pl = adr();
        let mut reads = Vec::new();
        pl.stage(P, 60, 8, |line, old| {
            reads.push(line);
            old[0] = 0xAA;
        });
        assert_eq!(reads, vec![0, 64], "a straddling write stages both lines");
        pl.stage(P, 0, 8, |_, _| panic!("already pending: durable bytes must not be re-read"));
        pl.stage(Q, 0, 8, |_, old| old[0] = 0xBB);
        assert_eq!(pl.pending_lines(), 3);
        let mut eadr = PersistPlane::default();
        eadr.stage(P, 0, 8, |_, _| panic!("eADR never stages"));
        assert_eq!(eadr.pending_lines(), 0);
    }

    #[test]
    fn flush_fence_and_detach_all_book_lines_flushed() {
        let mut pl = adr();
        for line in 0..4 {
            pl.stage(P, line * 64, 8, |_, _| {});
        }
        pl.stage(Q, 0, 8, |_, _| {});
        assert!(pl.flush_line(P, 70));
        assert!(!pl.flush_line(P, 70), "already durable");
        pl.flush_pool(Q);
        assert_eq!((pl.pending_lines(), pl.lines_flushed), (3, 2));
        pl.defer_fences = true;
        assert!(!pl.fence());
        assert_eq!((pl.fences_elided, pl.fences, pl.pending_lines()), (1, 0, 3));
        assert_eq!(pl.persist_point(), 3, "the persist point bypasses the window");
        assert!(pl.defer_fences);
        assert_eq!((pl.fences, pl.lines_flushed), (1, 5));
    }

    #[test]
    fn power_loss_reverts_clean_and_tears_by_seeded_lottery() {
        let drain = |plan: FaultPlan| {
            let mut pl = adr();
            pl.faults = plan;
            pl.stage(P, 128, 64, |_, old| old.fill(0x11));
            pl.tag_word(P, 128);
            pl.defer_fences = true;
            let mut writes = Vec::new();
            pl.power_loss(|pool, off, bytes| writes.push((pool, off, bytes.to_vec())));
            assert_eq!((pl.pending_lines(), pl.lines_lost), (0, 1));
            assert!(!pl.word_tagged(P, 128) && !pl.defer_fences, "volatile state died");
            writes
        };
        assert_eq!(drain(FaultPlan::disabled()), vec![(P, 128, vec![0x11; 64])]);
        let torn = drain(FaultPlan::torn_at(0, 7));
        assert_eq!(torn, drain(FaultPlan::torn_at(0, 7)), "lottery replays");
        assert!(torn.iter().all(|(_, off, b)| b.len() == 8 && (128..192).contains(off)));
        assert_ne!(torn, drain(FaultPlan::torn_at(0, 8)), "and differs across seeds");
        // Recorded outcome: the words of line 128 whose durable bytes the
        // seed-7 lottery restored. Torn sweeps replay from this draw.
        let reverted: Vec<u64> = torn.iter().map(|(_, off, _)| *off).collect();
        assert_eq!(reverted, vec![136, 144, 160]);
    }

    #[test]
    fn a_fence_worth_of_lines_stays_in_the_front_and_bulk_spills_in_order() {
        let mut pl = adr();
        for line in 0..FRONT_LINES as u64 {
            pl.stage(P, line * 64, 8, |_, _| {});
        }
        let cap = pl.pending.front.capacity();
        pl.persist_point();
        for line in 0..FRONT_LINES as u64 {
            pl.stage(Q, line * 64, 8, |_, _| {});
        }
        assert_eq!(pl.pending.front.capacity(), cap, "the drain kept the front's capacity");
        assert!(pl.pending.spill.is_empty(), "a fence's worth of lines never reaches the map");

        // Bulk staging spills; removal and the power-loss drain see one set.
        for line in (0..3).rev() {
            pl.stage(P, line * 64, 8, |_, old| old[0] = line as u8);
        }
        assert_eq!((pl.pending.spill.len(), pl.pending_lines()), (3, FRONT_LINES + 3));
        assert!(pl.flush_line(Q, 0) && pl.flush_line(P, 64));
        pl.stage(P, 64, 8, |_, _| {}); // back into the front's free slot
        pl.stage(P, 64, 8, |_, _| panic!("already pending"));
        let mut drained = Vec::new();
        pl.power_loss(|pool, off, _| drained.push((pool, off)));
        let mut sorted = drained.clone();
        sorted.sort_unstable();
        assert_eq!(drained, sorted, "power loss drains in (pool, line) order");
        assert_eq!(drained.len(), FRONT_LINES + 2);
        assert_eq!(pl.pending_lines(), 0);
    }

    #[test]
    fn torn_verdict_settles_into_a_crash_after_the_write() {
        let mut pl = PersistPlane::default();
        pl.faults = FaultPlan::torn_at(1, 3);
        let v = pl.gate_tearable().unwrap();
        assert!(pl.settle(v).is_ok());
        let v = pl.gate_tearable().unwrap();
        assert_eq!(v, GateVerdict::TornCrash);
        assert!(matches!(pl.settle(v), Err(HeapError::CrashInjected { writes: 1 })));
        assert!(pl.gate().is_err(), "dead after the trip");
    }
}
