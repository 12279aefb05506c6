//! Deterministic crash/fault injection for the persistent heap.
//!
//! The paper's usage model presumes library calls are "enclosed in a
//! persistent transaction" (§VI) and that a crash may strike anywhere.
//! This module turns that assumption into a *measured* property: every
//! durable write to an NVM pool — owned by an [`AddressSpace`] or shared
//! through a [`crate::shard::SharedPool`] — passes through the one fault
//! gate of the persistence plane (`persist.rs`), which counts write
//! boundaries and — when armed — stops the simulated process at a chosen
//! boundary by raising [`HeapError::CrashInjected`]. A sweep then enumerates *all* boundaries
//! of a workload (exhaustively at small scale, seeded-sampled at large
//! scale), simulates the crash, runs [`UndoLog::recover`], and checks the
//! caller's invariants against the recovered image.
//!
//! ## Fault model
//!
//! A [`FaultPlan`] describes one simulated failure:
//!
//! - **Clean crash** ([`FaultPlan::crash_at`]): the `k`-th durable write is
//!   suppressed and the process dies. Under the default eADR flush model
//!   the pool image at that instant *is* the durable state.
//! - **Torn crash** ([`FaultPlan::torn_at`]): the `k`-th durable write is
//!   applied and then the process dies. Under the ADR flush model
//!   ([`crate::space::FlushModel::Adr`]) every cache line written since the
//!   last fence is still volatile at that point; at power loss
//!   ([`AddressSpace::restart`], [`crate::shard::SharedPool::power_cycle`])
//!   each pending line drains at 8-byte-word granularity, with a seeded
//!   subset of words landing — the torn-write failure mode eADR platforms
//!   are sold to avoid.
//! - **Bit flips** ([`FaultPlan::with_bitflips`]): retention/media errors
//!   injected into the pool image between detach and re-attach
//!   ([`inject_bitflips`]). These corrupt bytes that were durably written
//!   long ago, which no write-ordering discipline can defend against —
//!   detecting them is the integrity layer's job ([`crate::integrity`]).
//! - **Retention decay** ([`FaultPlan::with_decay`]): time-dependent media
//!   errors injected *while the system runs*. The flip probability of a
//!   sealed cold page is a seeded function of the page's age since its
//!   last rewrite and a configurable decay rate (see
//!   [`crate::retain::decay_draw`]); flips fire at the modelled media-clock
//!   ticks of a shared pool ([`crate::shard::SharedPool::note_work`]) —
//!   not just at [`crash_and_recover`]. Owned pools have no run-time
//!   media clock; they age only across a power-off ([`inject_bitflips`]).
//!
//! A *durable write boundary* is one hooked mutation of a pool: a data
//! word/byte-range store, an undo-log append word, a root-pointer store,
//! or one `pmalloc`/`pfree` (allocator metadata updates are modelled as
//! atomic — a single boundary — as if protected by their own micro-log).
//! A crash drops everything volatile: DRAM contents, the attachment table
//! (pools re-attach at new, seed-randomized bases), unfenced pending lines
//! under ADR, and any in-flight `ExecEnv` state such as the armed
//! [`UndoLog`] handle or deferred transactional frees. Pool images survive
//! (modulo tearing and injected flips).
//!
//! ## Determinism
//!
//! Everything is replayable: the workload derives from its own seeds, the
//! attach bases from the layout seed and restart generation, torn-word
//! lotteries and bit-flip positions from the plan's seeds, and sampled
//! sweeps from the sweep seed (`UTPR_QC_SEED` at the harness level).
//! A failure report therefore needs only `(seed, crash point)` to
//! reproduce bit-identically.

use crate::addr::PoolId;
use crate::error::{HeapError, Result};
use crate::pagestore::PAGE_SIZE;
use crate::space::AddressSpace;
use crate::txn::UndoLog;
use utpr_qc::rng::splitmix64;

/// Verdict of consulting the gate for a *tearable* data write.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[must_use]
pub enum GateVerdict {
    /// The write lands normally.
    Proceed,
    /// Torn boundary: the write is applied (it was in flight when the
    /// power failed) and then the caller must raise
    /// [`FaultPlan::crash_error`] — the process is dead.
    TornCrash,
}

/// The fault plan every durable pool write consults.
///
/// Disabled by default (zero overhead beyond a branch). In *counting* mode
/// it numbers each write boundary; *armed* at `k` it lets exactly `k`
/// writes land and fires at the `k`-th boundary — and at every boundary
/// after it, so a workload that swallows the first error still cannot
/// mutate durable state "after death". [`FaultPlan::crash_at`] suppresses
/// the `k`-th write, [`FaultPlan::torn_at`] lets it land in flight, and
/// [`FaultPlan::with_bitflips`] schedules media decay for the recovery
/// path.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    enabled: bool,
    writes: u64,
    crash_at: Option<u64>,
    /// When armed, the boundary write is applied (left in flight) instead
    /// of suppressed, and pending ADR lines drain by seeded word lottery.
    torn: bool,
    torn_seed: u64,
    bitflip_seed: u64,
    bitflip_count: u64,
    decay_seed: u64,
    /// Per-tick flip probability gradient in parts-per-billion per tick of
    /// page age: a page of age `a` ticks flips this clock tick with
    /// probability `min(a * decay_ppb, 1e9) / 1e9`. Zero disables decay.
    decay_ppb: u64,
    tripped: bool,
}

impl FaultPlan {
    /// The default plan: gate disabled, nothing counted.
    pub fn disabled() -> Self {
        FaultPlan::default()
    }

    /// Counting mode: number every durable write boundary, never trip.
    pub fn counting() -> Self {
        FaultPlan { enabled: true, ..FaultPlan::default() }
    }

    /// Armed mode: allow exactly `k` durable writes, then crash cleanly
    /// (the `k`-th write is suppressed).
    pub fn crash_at(k: u64) -> Self {
        FaultPlan { enabled: true, crash_at: Some(k), ..FaultPlan::default() }
    }

    /// Armed mode with tearing: the `k`-th durable write is *applied* and
    /// the process then dies, leaving the write (and every unfenced line)
    /// in flight. On the next [`AddressSpace::restart`] (or
    /// [`crate::shard::SharedPool::power_cycle`]) under the ADR flush
    /// model, each pending line drains per-word by a lottery seeded from
    /// `seed` — some new words land, some revert.
    pub fn torn_at(k: u64, seed: u64) -> Self {
        FaultPlan { enabled: true, crash_at: Some(k), torn: true, torn_seed: seed, ..FaultPlan::default() }
    }

    /// Adds retention errors to the plan: [`crash_and_recover`] flips
    /// `count` seeded bits in the pool image after the restart, before the
    /// pool is re-attached — modelling media decay while "powered off".
    pub fn with_bitflips(mut self, seed: u64, count: u64) -> Self {
        self.bitflip_seed = seed;
        self.bitflip_count = count;
        self
    }

    /// Adds execution-time retention decay to the plan: while a shared
    /// pool's media clock advances ([`crate::shard::SharedPool::note_work`]),
    /// every sealed cold page rolls a seeded die per tick whose flip
    /// probability grows linearly with the page's age since last rewrite —
    /// `ppb` parts-per-billion per tick of age. Unlike
    /// [`FaultPlan::with_bitflips`], these flips land *during execution*,
    /// racing live traffic and the online scrubber.
    pub fn with_decay(mut self, seed: u64, ppb: u64) -> Self {
        self.decay_seed = seed;
        self.decay_ppb = ppb;
        self
    }

    /// The scheduled retention decay, if any: `(seed, ppb_per_tick_of_age)`.
    pub fn decay(&self) -> Option<(u64, u64)> {
        (self.decay_ppb > 0).then_some((self.decay_seed, self.decay_ppb))
    }

    /// Durable write boundaries observed so far.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// True once the armed crash point has fired.
    pub fn tripped(&self) -> bool {
        self.tripped
    }

    /// True while the gate is counting or armed.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The scheduled bit flips, if any: `(seed, count)`.
    pub fn bitflips(&self) -> Option<(u64, u64)> {
        (self.bitflip_count > 0).then_some((self.bitflip_seed, self.bitflip_count))
    }

    /// The seed for the per-word drain lottery, when this is a torn plan.
    /// `None` means a pending line drains nothing (clean power loss: every
    /// unfenced store is simply gone).
    pub fn torn_drain_seed(&self) -> Option<u64> {
        self.torn.then_some(self.torn_seed)
    }

    /// The error a fired boundary raises.
    pub fn crash_error(&self) -> HeapError {
        HeapError::CrashInjected { writes: self.writes }
    }

    /// Consulted by the persistence plane before each *atomic* durable write
    /// (allocator metadata, root pointer): the write either fully lands or
    /// — on the armed boundary, torn or not — never happens.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::CrashInjected`] at and after the armed point.
    #[inline]
    pub fn gate(&mut self) -> Result<()> {
        match self.gate_tearable()? {
            GateVerdict::Proceed => Ok(()),
            GateVerdict::TornCrash => Err(self.crash_error()),
        }
    }

    /// Consulted by the persistence plane before each *tearable* durable
    /// data write. [`GateVerdict::TornCrash`] instructs the caller to apply the
    /// write and then raise [`FaultPlan::crash_error`].
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::CrashInjected`] when the write must be
    /// suppressed: at the armed boundary of a clean-crash plan, and at
    /// every boundary after any plan has tripped.
    #[inline]
    pub fn gate_tearable(&mut self) -> Result<GateVerdict> {
        if !self.enabled {
            return Ok(GateVerdict::Proceed);
        }
        if self.tripped {
            return Err(self.crash_error());
        }
        if self.crash_at == Some(self.writes) {
            self.tripped = true;
            return if self.torn { Ok(GateVerdict::TornCrash) } else { Err(self.crash_error()) };
        }
        self.writes += 1;
        Ok(GateVerdict::Proceed)
    }
}

/// What [`crash_and_recover`] found and did.
#[derive(Clone, Copy, Debug)]
pub struct Recovery {
    /// The re-opened pool's id.
    pub pool: PoolId,
    /// Whether a torn transaction was rolled back.
    pub rolled_back: bool,
    /// Durable writes that had landed when the crash fired.
    pub writes_before_crash: u64,
    /// Bit flips injected into the pool image before re-attach.
    pub bitflips_injected: u64,
}

/// Simulates the crash a tripped plan models, then runs recovery: restarts
/// the address space (DRAM lost, pools detached; under ADR the pending
/// lines drain per the plan — see [`FaultPlan::torn_at`]), disarms the
/// gate, injects any scheduled bit flips, re-opens `pool_name` (which
/// CRC-verifies the image when integrity is on), and rolls back any torn
/// transaction.
///
/// # Errors
///
/// Propagates pool-open and recovery failures — including
/// [`HeapError::MediaCorruption`] when injected bit flips are detected at
/// re-attach — and returns [`HeapError::CorruptRegion`] if an undo log is
/// still active *after* recovery (recovery must always disarm the log).
pub fn crash_and_recover(space: &mut AddressSpace, pool_name: &str) -> Result<Recovery> {
    let plan = *space.faults();
    let writes_before_crash = plan.writes();
    // Restart while the plan is still installed: the drain of pending ADR
    // lines consults its torn-word lottery seed.
    space.restart();
    space.set_faults(FaultPlan::disabled());
    let mut bitflips_injected = 0;
    if let Some((seed, count)) = plan.bitflips() {
        if let Ok(id) = space.pool_store().id_of(pool_name) {
            bitflips_injected = inject_bitflips(space, id, seed, count)?;
        }
    }
    let pool = space.open_pool(pool_name)?;
    let rolled_back = UndoLog::recover(space, pool)?;
    if let Ok(log) = UndoLog::open(space, pool) {
        if log.is_active(space)? {
            return Err(HeapError::CorruptRegion("undo log still active after recovery"));
        }
    }
    Ok(Recovery { pool, rolled_back, writes_before_crash, bitflips_injected })
}

/// Flips `count` seeded bits across the resident pages of `pool`'s image,
/// modelling NVM retention errors. Deterministic in `(seed, image shape)`.
/// Returns the number of flips applied (0 when the pool has no resident
/// pages).
///
/// The flips bypass dirty tracking: the integrity layer's CRC sidecar must
/// *not* learn about them, exactly as a real controller never re-checksums
/// decayed media. Inject after a seal point ([`AddressSpace::restart`] or
/// [`AddressSpace::detach`]) for the flips to be detectable on re-attach.
///
/// # Errors
///
/// Returns [`HeapError::NoSuchPool`] for unknown ids.
pub fn inject_bitflips(space: &mut AddressSpace, pool: PoolId, seed: u64, count: u64) -> Result<u64> {
    let img = space.pool_store_mut().peek_mut(pool)?;
    let pages = img.data().resident_page_numbers();
    if pages.is_empty() {
        return Ok(0);
    }
    let mut applied = 0;
    for i in 0..count {
        let h = splitmix64(seed ^ splitmix64(i.wrapping_mul(0x51_7cc1_b727_220a)));
        let page = pages[(h % pages.len() as u64) as usize];
        let in_page = splitmix64(h) % PAGE_SIZE;
        let bit = (splitmix64(h ^ 0xff) % 8) as u8;
        if img.data_mut().corrupt_bit(page * PAGE_SIZE + in_page, bit) {
            applied += 1;
        }
    }
    Ok(applied)
}

/// Picks the crash points to test for a workload with `total` durable
/// write boundaries: every point in `0..total` when `total <=
/// exhaustive_limit`, otherwise `samples` distinct seeded points (always
/// including the first and last boundary — the edges are where log-arming
/// and commit-ordering bugs live). The result is sorted and deduplicated,
/// and depends only on the arguments.
pub fn select_points(total: u64, exhaustive_limit: u64, samples: u64, seed: u64) -> Vec<u64> {
    if total == 0 {
        return Vec::new();
    }
    if total <= exhaustive_limit || samples >= total {
        return (0..total).collect();
    }
    let mut points = Vec::with_capacity(samples as usize + 2);
    points.push(0);
    points.push(total - 1);
    let mut x = seed ^ 0x9e37_79b9_7f4a_7c15;
    while (points.len() as u64) < samples.max(2) {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        points.push(splitmix64(x) % total);
        points.sort_unstable();
        points.dedup();
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::RelLoc;
    use crate::space::FlushModel;

    fn setup() -> (AddressSpace, PoolId, RelLoc) {
        let mut space = AddressSpace::new(17);
        let pool = space.create_pool("faults", 1 << 20).unwrap();
        let loc = space.pmalloc(pool, 64).unwrap();
        (space, pool, loc)
    }

    #[test]
    fn disabled_gate_is_transparent() {
        let (mut space, _, loc) = setup();
        let va = space.ra2va(loc).unwrap();
        for i in 0..10 {
            space.write_u64(va, i).unwrap();
        }
        assert_eq!(space.faults().writes(), 0);
    }

    #[test]
    fn counting_numbers_every_durable_write() {
        let (mut space, pool, loc) = setup();
        space.set_faults(FaultPlan::counting());
        let va = space.ra2va(loc).unwrap();
        space.write_u64(va, 1).unwrap(); // 1 boundary
        space.pmalloc(pool, 32).unwrap(); // 1 boundary (atomic alloc)
        space.set_pool_root(pool, 7).unwrap(); // 1 boundary
        assert_eq!(space.faults().writes(), 3);
        // DRAM traffic is not durable and not counted.
        let d = space.malloc(64).unwrap();
        space.write_u64(d, 9).unwrap();
        assert_eq!(space.faults().writes(), 3);
    }

    #[test]
    fn armed_gate_crashes_at_exact_boundary_and_stays_dead() {
        let (mut space, _, loc) = setup();
        let va = space.ra2va(loc).unwrap();
        space.set_faults(FaultPlan::crash_at(2));
        space.write_u64(va, 1).unwrap();
        space.write_u64(va.add(8), 2).unwrap();
        let err = space.write_u64(va.add(16), 3);
        assert!(matches!(err, Err(HeapError::CrashInjected { writes: 2 })));
        // Every later durable write keeps failing: the process is dead.
        assert!(matches!(space.write_u64(va, 4), Err(HeapError::CrashInjected { .. })));
        assert!(space.faults().tripped());
        // The first two writes landed, the third did not.
        space.set_faults(FaultPlan::disabled());
        assert_eq!(space.read_u64(va).unwrap(), 1);
        assert_eq!(space.read_u64(va.add(8)).unwrap(), 2);
        assert_eq!(space.read_u64(va.add(16)).unwrap(), 0);
    }

    #[test]
    fn crash_at_zero_fails_the_very_first_durable_write() {
        let (mut space, _, loc) = setup();
        let va = space.ra2va(loc).unwrap();
        space.set_faults(FaultPlan::crash_at(0));
        assert!(matches!(
            space.write_u64(va, 1),
            Err(HeapError::CrashInjected { writes: 0 })
        ));
        assert!(space.faults().tripped());
        space.set_faults(FaultPlan::disabled());
        assert_eq!(space.read_u64(va).unwrap(), 0, "nothing landed");
    }

    #[test]
    fn recovery_after_zero_landed_writes_is_a_clean_noop() {
        let (mut space, pool, loc) = setup();
        let va = space.ra2va(loc).unwrap();
        space.write_u64(va, 100).unwrap();
        let log = UndoLog::ensure(&mut space, pool, 16).unwrap();
        space.set_faults(FaultPlan::crash_at(0));
        // The very first durable write of the transaction dies; the log
        // never armed, so recovery has nothing to do.
        let err = log.run(&mut space, |space, txn| {
            txn.log_word(space, loc)?;
            let va = space.ra2va(loc)?;
            space.write_u64(va, 55)
        });
        assert!(matches!(err, Err(HeapError::CrashInjected { writes: 0 })));
        let rec = crash_and_recover(&mut space, "faults").unwrap();
        assert_eq!(rec.writes_before_crash, 0);
        assert!(!rec.rolled_back, "nothing landed, nothing to roll back");
        let va = space.ra2va(loc).unwrap();
        assert_eq!(space.read_u64(va).unwrap(), 100);
    }

    #[test]
    fn torn_boundary_applies_the_in_flight_write_then_dies() {
        let (mut space, _, loc) = setup();
        let va = space.ra2va(loc).unwrap();
        space.set_faults(FaultPlan::torn_at(1, 99));
        space.write_u64(va, 1).unwrap();
        // Boundary 1 fires torn: the write is applied before the error.
        assert!(matches!(
            space.write_u64(va.add(8), 2),
            Err(HeapError::CrashInjected { writes: 1 })
        ));
        assert!(space.faults().tripped());
        assert!(matches!(space.write_u64(va, 3), Err(HeapError::CrashInjected { .. })));
        space.set_faults(FaultPlan::disabled());
        // Under eADR (default) the in-flight write is simply durable.
        assert_eq!(space.read_u64(va.add(8)).unwrap(), 2);
    }

    #[test]
    fn adr_restart_drains_pending_lines_by_seeded_word_lottery() {
        // Write a full 64-byte line without fencing, tear, and check the
        // drained line is a per-word mix of old and new — deterministically.
        let images: Vec<Vec<u64>> = (0..2)
            .map(|_| {
                let (mut space, _, loc) = setup();
                space.set_flush_model(FlushModel::Adr);
                let va = space.ra2va(loc).unwrap();
                for w in 0..8 {
                    space.write_u64(va.add(w * 8), 0xAAAA).unwrap();
                }
                space.fence(); // old durable state: all 0xAAAA
                space.set_faults(FaultPlan::torn_at(7, 0xD5EED));
                for w in 0..8 {
                    let _ = space.write_u64(va.add(w * 8), 0xBBBB);
                }
                let rec = crash_and_recover(&mut space, "faults").unwrap();
                assert_eq!(rec.writes_before_crash, 7);
                let va = space.ra2va(loc).unwrap();
                (0..8).map(|w| space.read_u64(va.add(w * 8)).unwrap()).collect()
            })
            .collect();
        assert_eq!(images[0], images[1], "drain is deterministic in the seed");
        assert!(images[0].iter().all(|&v| v == 0xAAAA || v == 0xBBBB));
        assert!(images[0].contains(&0xAAAA) || images[0].contains(&0xBBBB));
    }

    #[test]
    fn adr_restart_without_tearing_reverts_unfenced_lines() {
        let (mut space, _, loc) = setup();
        space.set_flush_model(FlushModel::Adr);
        let va = space.ra2va(loc).unwrap();
        space.write_u64(va, 0x11).unwrap();
        space.fence();
        space.write_u64(va, 0x22).unwrap(); // never fenced
        space.restart();
        space.open_pool("faults").unwrap();
        let va = space.ra2va(loc).unwrap();
        assert_eq!(space.read_u64(va).unwrap(), 0x11, "unfenced store lost");
    }

    #[test]
    fn crash_and_recover_rolls_back_torn_transaction() {
        let (mut space, pool, loc) = setup();
        let va = space.ra2va(loc).unwrap();
        space.write_u64(va, 100).unwrap();
        let log = UndoLog::ensure(&mut space, pool, 16).unwrap();

        // Count the transaction's boundaries first (read mid-transaction,
        // before the commit adds its own writes).
        space.set_faults(FaultPlan::counting());
        let mut total = 0;
        log.run(&mut space, |space, txn| {
            txn.log_word(space, loc)?;
            let va = space.ra2va(loc)?;
            space.write_u64(va, 55)?;
            total = space.faults().writes();
            Ok(())
        })
        .unwrap();
        assert_eq!(total, 5, "begin(2) + log_word(2) + store(1)");
        space.write_u64(space.ra2va(loc).unwrap(), 100).unwrap();

        // Crash at every boundary of the same transaction; the word must
        // recover to either the old (rolled back) or new (committed) value.
        // Every k lands inside the body, so the closure always crashes out
        // before `run` could commit — and `run` skips the abort on an
        // injected crash, leaving the torn log for recovery.
        for k in 0..total {
            space.set_faults(FaultPlan::crash_at(k));
            let log = UndoLog::open(&space, pool).unwrap();
            let _ = log.run(&mut space, |space, txn| {
                txn.log_word(space, loc)?;
                let va = space.ra2va(loc)?;
                space.write_u64(va, 55)
            });
            let rec = crash_and_recover(&mut space, "faults").unwrap();
            assert_eq!(rec.pool, pool);
            let va = space.ra2va(loc).unwrap();
            assert_eq!(space.read_u64(va).unwrap(), 100, "crash point {k}");
            let log = UndoLog::open(&space, pool).unwrap();
            assert!(!log.is_active(&space).unwrap(), "log disarmed after recovery");
            // Reset for the next iteration (the value never committed).
        }
    }

    #[test]
    fn torn_sweep_of_one_transaction_recovers_old_or_new() {
        // Same transaction as above, but under ADR with tearing at every
        // boundary: the fence discipline of the undo log must keep the
        // recovered word at exactly old-or-committed, never garbage.
        let (mut space, pool, loc) = setup();
        let va = space.ra2va(loc).unwrap();
        space.write_u64(va, 100).unwrap();
        let log = UndoLog::ensure(&mut space, pool, 16).unwrap();
        space.set_flush_model(FlushModel::Adr);

        space.set_faults(FaultPlan::counting());
        let mut total = 0;
        log.run(&mut space, |space, txn| {
            txn.log_word(space, loc)?;
            let va = space.ra2va(loc)?;
            space.write_u64(va, 55)?;
            total = space.faults().writes();
            Ok(())
        })
        .unwrap();
        space.set_faults(FaultPlan::disabled());
        log.run(&mut space, |space, txn| {
            txn.log_word(space, loc)?;
            let va = space.ra2va(loc)?;
            space.write_u64(va, 100)
        })
        .unwrap();

        // total counts up to the last data store; also sweep the commit's
        // one boundary, the store that clears the active word.
        for k in 0..=total {
            space.set_faults(FaultPlan::torn_at(k, k ^ 0xBEEF));
            let log = UndoLog::open(&space, pool).unwrap();
            let crashed = log
                .run(&mut space, |space, txn| {
                    txn.log_word(space, loc)?;
                    let va = space.ra2va(loc)?;
                    space.write_u64(va, 55)
                })
                .is_err();
            let _ = crash_and_recover(&mut space, "faults").unwrap();
            let va = space.ra2va(loc).unwrap();
            let got = space.read_u64(va).unwrap();
            assert!(got == 100 || got == 55, "crash point {k}: got {got:#x}");
            if got == 55 {
                assert!(crashed, "new value without a commit implies a late tear");
            }
            // Restore the old value for the next round.
            let log = UndoLog::open(&space, pool).unwrap();
            log.run(&mut space, |space, txn| {
                txn.log_word(space, loc)?;
                let va = space.ra2va(loc)?;
                space.write_u64(va, 100)
            })
            .unwrap();
        }
    }

    #[test]
    fn recovery_after_commit_keeps_new_values() {
        let (mut space, pool, loc) = setup();
        let va = space.ra2va(loc).unwrap();
        space.write_u64(va, 100).unwrap();
        let log = UndoLog::ensure(&mut space, pool, 16).unwrap();
        log.run(&mut space, |space, txn| {
            txn.log_word(space, loc)?;
            space.write_u64(va, 55)
        })
        .unwrap();
        // Crash strictly after commit: nothing to roll back.
        space.set_faults(FaultPlan::counting());
        let rec = crash_and_recover(&mut space, "faults").unwrap();
        assert!(!rec.rolled_back);
        let va = space.ra2va(loc).unwrap();
        assert_eq!(space.read_u64(va).unwrap(), 55);
    }

    #[test]
    fn bitflips_inject_deterministically_and_are_detected() {
        let (mut space, pool, loc) = setup();
        let va = space.ra2va(loc).unwrap();
        space.write_u64(va, 0xFACE).unwrap();
        space.restart(); // seal the CRC sidecar
        let flipped = inject_bitflips(&mut space, pool, 7, 4).unwrap();
        assert!(flipped > 0);
        let err = space.open_pool("faults");
        assert!(
            matches!(err, Err(HeapError::MediaCorruption { .. })),
            "sealed flip must be detected, got {err:?}"
        );
    }

    #[test]
    fn plan_carries_bitflips_through_crash_and_recover() {
        let (mut space, _pool, loc) = setup();
        let va = space.ra2va(loc).unwrap();
        space.write_u64(va, 1).unwrap();
        space.set_faults(FaultPlan::crash_at(0).with_bitflips(3, 2));
        assert!(space.write_u64(va, 2).is_err());
        let err = crash_and_recover(&mut space, "faults");
        match err {
            Err(HeapError::MediaCorruption { .. }) => {}
            other => panic!("expected MediaCorruption at re-attach, got {other:?}"),
        }
    }

    #[test]
    fn select_points_exhaustive_below_limit() {
        assert_eq!(select_points(5, 10, 3, 1), vec![0, 1, 2, 3, 4]);
        assert_eq!(select_points(0, 10, 3, 1), Vec::<u64>::new());
        // samples >= total also degrades to exhaustive.
        assert_eq!(select_points(4, 2, 8, 1), vec![0, 1, 2, 3]);
    }

    #[test]
    fn select_points_sampled_is_seeded_sorted_and_bounded() {
        let a = select_points(10_000, 100, 64, 42);
        let b = select_points(10_000, 100, 64, 42);
        let c = select_points(10_000, 100, 64, 43);
        assert_eq!(a, b, "same seed, same points");
        assert_ne!(a, c, "different seed, different points");
        assert_eq!(a.len(), 64);
        assert!(a.windows(2).all(|w| w[0] < w[1]), "sorted, distinct");
        assert!(a.iter().all(|&p| p < 10_000));
        assert_eq!(a[0], 0, "first boundary always covered");
        assert_eq!(*a.last().unwrap(), 9_999, "last boundary always covered");
    }

    #[test]
    fn clone_of_space_clones_gate_state() {
        let (mut space, _, loc) = setup();
        space.set_faults(FaultPlan::counting());
        let va = space.ra2va(loc).unwrap();
        space.write_u64(va, 1).unwrap();
        let snapshot = space.clone();
        assert_eq!(snapshot.faults().writes(), 1);
    }
}
