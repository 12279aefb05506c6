//! Persistent undo-log transactions — the crash-consistency mechanism the
//! paper's usage model presumes (§I, §VI: a library call may be "enclosed
//! in a persistent transaction in the application code", with logging
//! inserted by the application's compiler).
//!
//! The log lives *inside the pool it protects*, so it survives crashes with
//! the data: a reserved header slot points at a log area of
//! `(offset, old value)` entries plus an active word. `begin` arms the log,
//! every update logs the old word first (undo logging), `commit` disarms
//! it, and [`UndoLog::recover`] rolls back a torn transaction after a
//! crash.
//!
//! **Epoch-tagged entries.** Each transaction gets a fresh *epoch* (the
//! log's last epoch + 1); the active word holds it while the transaction is
//! open (0 = idle). An entry is self-validating: its first word packs the
//! target offset with a 32-bit check over `(epoch, offset, old value)`, so
//! recovery replays the longest prefix of entries that validate under the
//! open epoch and stops at the first that does not. No count word
//! publishes entries, and epochs are never reused, so an earlier
//! transaction's leftovers — or a half-drained entry — cannot validate.
//!
//! **One ordering point per first-touched word.** Under
//! [`crate::space::FlushModel::Adr`] the undo image must be durable before
//! the data store it protects can land; that is the single
//! [`AddressSpace::fence`] each `log_word` issues, and nothing else in an
//! append needs ordering. `begin` fences nothing: the first entry's fence
//! carries the epoch and the active word with it, before any logged data
//! store. `commit` fences the data, clears the active word and fences the
//! disarm. Under the default eADR model the fences are free (see the
//! DESIGN.md fault-model sections).

use crate::addr::{PoolId, RelLoc};
use crate::error::{HeapError, Result};
use crate::space::AddressSpace;
use std::cell::Cell;
use utpr_qc::rng::splitmix64;

/// Pool-header slot holding the log area's intra-pool offset (0 = no log).
/// Slots 0x00–0x2f are used by the allocator (`crate::alloc`); 0x30 is
/// reserved for the transaction log.
const HDR_LOG_SLOT: u64 = 0x30;

/// Epoch of the open transaction; 0 when idle.
const LOG_ACTIVE: u64 = 0;
/// The last epoch handed out.
const LOG_EPOCH: u64 = 8;
const LOG_CAPACITY: u64 = 16;
const LOG_ENTRIES: u64 = 24;
/// Bytes per entry: target offset | check, then the old value.
const ENTRY_SIZE: u64 = 16;

/// The 32-bit check an entry of transaction `epoch` carries above its
/// target offset.
fn entry_check(epoch: u64, offset: u64, old: u64) -> u64 {
    splitmix64(old ^ splitmix64(epoch << 32 | offset)) >> 32
}

/// First word of a log *directory* area. A plain log's first word is its
/// active epoch (a small counter), so the magic doubles as the format
/// discriminator: whatever `HDR_LOG_SLOT` points at, reading one word tells
/// us which shape we are looking at.
const DIR_MAGIC: u64 = u64::from_le_bytes(*b"UTPRLOGD");
const DIR_NSLOTS: u64 = 8;
const DIR_SLOTS: u64 = 16;

/// Maximum per-pool undo logs (one per worker thread, typically).
pub const MAX_LOG_SLOTS: u64 = 16;

/// What the pool's `HDR_LOG_SLOT` currently points at.
enum LogHeader {
    /// No log allocated yet.
    None,
    /// A single plain log area (the original single-threaded format).
    Plain(u64),
    /// A slot directory of independent logs.
    Dir(u64),
}

/// Handle to a pool's undo log.
///
/// # Examples
///
/// ```
/// use utpr_heap::{AddressSpace, UndoLog};
///
/// let mut space = AddressSpace::new(1);
/// let pool = space.create_pool("bank", 1 << 20)?;
/// let acct = space.pmalloc(pool, 16)?;
/// let va = space.ra2va(acct)?;
/// space.write_u64(va, 100)?;
///
/// let log = UndoLog::ensure(&mut space, pool, 64)?;
/// log.run(&mut space, |space, txn| {
///     txn.log_word(space, acct)?;    // record old value first
///     let va = space.ra2va(acct)?;
///     space.write_u64(va, 40)        // then mutate
/// })?;                               // durable: 40
/// assert_eq!(space.read_u64(space.ra2va(acct)?)?, 40);
/// # Ok::<(), utpr_heap::HeapError>(())
/// ```
#[derive(Clone, Debug)]
pub struct UndoLog {
    pool: PoolId,
    /// Intra-pool offset of the log area.
    base: u64,
    capacity: u64,
    /// Epoch of the transaction this handle opened (0 = none). Volatile:
    /// `log_word` never re-reads the pool's active word.
    epoch: Cell<u64>,
    /// Entries the open transaction has appended. Volatile.
    count: Cell<u64>,
}

impl UndoLog {
    /// Returns the pool's log, allocating one with room for `capacity`
    /// entries if the pool has none yet.
    ///
    /// Equivalent to [`UndoLog::ensure_slot`] with slot 0 — and as long as
    /// only slot 0 is ever used, the on-pool format stays the original
    /// single plain log area, with no directory indirection.
    ///
    /// # Errors
    ///
    /// Propagates allocation failures; [`HeapError::BadPoolSize`] when
    /// `capacity` is zero.
    pub fn ensure(space: &mut AddressSpace, pool: PoolId, capacity: u64) -> Result<UndoLog> {
        Self::ensure_slot(space, pool, capacity, 0)
    }

    /// Returns the pool's log in directory slot `slot`, allocating it (and
    /// the slot directory, on first use of a nonzero slot) as needed.
    ///
    /// Each slot is an independent undo log, so N worker threads can each
    /// run transactions against one shared pool without sharing a log —
    /// provided each thread sticks to its own slot. Slot materialization
    /// itself is *not* thread-safe: harnesses pre-create every slot they
    /// need while still single-threaded.
    ///
    /// Installing the directory migrates an existing plain log into slot 0,
    /// so handles obtained before the upgrade stay valid.
    ///
    /// # Errors
    ///
    /// - [`HeapError::BadPoolSize`] when `capacity` is zero;
    /// - [`HeapError::CorruptRegion`] when `slot >= MAX_LOG_SLOTS`;
    /// - allocation failures.
    pub fn ensure_slot(
        space: &mut AddressSpace,
        pool: PoolId,
        capacity: u64,
        slot: u64,
    ) -> Result<UndoLog> {
        if capacity == 0 {
            return Err(HeapError::BadPoolSize(0));
        }
        if slot >= MAX_LOG_SLOTS {
            return Err(HeapError::CorruptRegion("log slot out of range"));
        }
        let header = Self::header(space, pool)?;
        if slot == 0 {
            match header {
                LogHeader::Plain(base) => return Self::at(space, pool, base),
                LogHeader::None => {
                    // Keep the original format: a lone slot-0 log is a plain
                    // log area published straight from the header slot.
                    let base = Self::alloc_log(space, pool, capacity)?;
                    space.pool_write_u64(pool, HDR_LOG_SLOT, base)?;
                    space.fence();
                    return Ok(Self::handle(pool, base, capacity));
                }
                LogHeader::Dir(_) => {}
            }
        }
        let dir = match header {
            LogHeader::Dir(dir) => dir,
            other => Self::install_dir(space, pool, &other)?,
        };
        let ptr_off = dir + DIR_SLOTS + slot * 8;
        let existing = space.pool_read_u64(pool, ptr_off)?;
        if existing != 0 {
            return Self::at(space, pool, existing);
        }
        let base = Self::alloc_log(space, pool, capacity)?;
        space.pool_write_u64(pool, ptr_off, base)?;
        space.fence();
        Ok(Self::handle(pool, base, capacity))
    }

    fn handle(pool: PoolId, base: u64, capacity: u64) -> UndoLog {
        UndoLog { pool, base, capacity, epoch: Cell::new(0), count: Cell::new(0) }
    }

    /// Reads the header slot and classifies what it points at.
    fn header(space: &AddressSpace, pool: PoolId) -> Result<LogHeader> {
        let hdr = space.pool_read_u64(pool, HDR_LOG_SLOT)?;
        if hdr == 0 {
            return Ok(LogHeader::None);
        }
        // A plain log's first word is its active epoch; the magic cannot
        // collide with a counter.
        if space.pool_read_u64(pool, hdr)? == DIR_MAGIC {
            Ok(LogHeader::Dir(hdr))
        } else {
            Ok(LogHeader::Plain(hdr))
        }
    }

    /// Builds a handle onto an existing log area at `base`.
    fn at(space: &AddressSpace, pool: PoolId, base: u64) -> Result<UndoLog> {
        let capacity = space.pool_read_u64(pool, base + LOG_CAPACITY)?;
        Ok(Self::handle(pool, base, capacity))
    }

    /// Allocates and initializes a log area, returning its intra-pool
    /// offset — *without* publishing it anywhere.
    ///
    /// Layout: `[active][epoch][capacity][entries...]`. Each init store is
    /// its own durable boundary; the init fields are fenced durable before
    /// the caller's publishing store, so a crash (or torn drain) mid-init
    /// leaves the pool without the new log rather than pointing at a
    /// half-initialized area.
    fn alloc_log(space: &mut AddressSpace, pool: PoolId, capacity: u64) -> Result<u64> {
        let bytes = LOG_ENTRIES + capacity * ENTRY_SIZE;
        let loc = space.pmalloc(pool, bytes)?;
        let base = u64::from(loc.offset);
        space.pool_write_u64(pool, base + LOG_ACTIVE, 0)?;
        space.pool_write_u64(pool, base + LOG_EPOCH, 0)?;
        space.pool_write_u64(pool, base + LOG_CAPACITY, capacity)?;
        space.fence();
        Ok(base)
    }

    /// Allocates a slot directory, migrating an existing plain log into
    /// slot 0, and publishes it from the header slot. Returns the
    /// directory's intra-pool offset.
    fn install_dir(space: &mut AddressSpace, pool: PoolId, prior: &LogHeader) -> Result<u64> {
        let bytes = DIR_SLOTS + MAX_LOG_SLOTS * 8;
        let loc = space.pmalloc(pool, bytes)?;
        let dir = u64::from(loc.offset);
        space.pool_write_u64(pool, dir, DIR_MAGIC)?;
        space.pool_write_u64(pool, dir + DIR_NSLOTS, MAX_LOG_SLOTS)?;
        // pmalloc'd memory may hold stale bytes — zero every slot word
        // explicitly before the directory becomes reachable.
        for slot in 0..MAX_LOG_SLOTS {
            space.pool_write_u64(pool, dir + DIR_SLOTS + slot * 8, 0)?;
        }
        if let LogHeader::Plain(base) = prior {
            space.pool_write_u64(pool, dir + DIR_SLOTS, *base)?;
        }
        // The directory contents are fenced durable before the header-slot
        // store swings the pool over to the new format.
        space.fence();
        space.pool_write_u64(pool, HDR_LOG_SLOT, dir)?;
        space.fence();
        Ok(dir)
    }

    /// Opens the pool's existing slot-0 log (after a restart).
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::CorruptRegion`] when the pool has no log.
    pub fn open(space: &AddressSpace, pool: PoolId) -> Result<UndoLog> {
        Self::open_slot(space, pool, 0)
    }

    /// Opens the existing log in directory slot `slot` (after a restart).
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::CorruptRegion`] when the pool has no log, the
    /// slot is out of range, or the slot was never materialized.
    pub fn open_slot(space: &AddressSpace, pool: PoolId, slot: u64) -> Result<UndoLog> {
        if slot >= MAX_LOG_SLOTS {
            return Err(HeapError::CorruptRegion("log slot out of range"));
        }
        match Self::header(space, pool)? {
            LogHeader::None => Err(HeapError::CorruptRegion("pool has no transaction log")),
            LogHeader::Plain(base) if slot == 0 => Self::at(space, pool, base),
            LogHeader::Plain(_) => Err(HeapError::CorruptRegion("pool log has no slot directory")),
            LogHeader::Dir(dir) => {
                let base = space.pool_read_u64(pool, dir + DIR_SLOTS + slot * 8)?;
                if base == 0 {
                    return Err(HeapError::CorruptRegion("log slot is empty"));
                }
                Self::at(space, pool, base)
            }
        }
    }

    fn read(&self, space: &AddressSpace, off: u64) -> Result<u64> {
        space.pool_read_u64(self.pool, self.base + off)
    }

    fn write(&self, space: &mut AddressSpace, off: u64, v: u64) -> Result<()> {
        // Routed through the gated accessor: every log word — entry, epoch,
        // active flip — is an individually crashable boundary.
        space.pool_write_u64(self.pool, self.base + off, v)
    }

    /// Entry `i` as `(target offset, old value)` when it validates under
    /// `epoch`, `None` when it belongs to no transaction of that epoch.
    fn entry(&self, space: &AddressSpace, i: u64, epoch: u64) -> Result<Option<(u64, u64)>> {
        let slot = LOG_ENTRIES + i * ENTRY_SIZE;
        let tagged = self.read(space, slot)?;
        let old = self.read(space, slot + 8)?;
        let offset = tagged & u64::from(u32::MAX);
        Ok((tagged >> 32 == entry_check(epoch, offset, old)).then_some((offset, old)))
    }

    /// The log area's intra-pool offset (for address-level instrumentation).
    pub fn base_offset(&self) -> u64 {
        self.base
    }

    /// The pool this log protects.
    pub fn pool(&self) -> PoolId {
        self.pool
    }

    /// True while a transaction is open (or was torn by a crash).
    ///
    /// # Errors
    ///
    /// Propagates pool lookup failures.
    pub fn is_active(&self, space: &AddressSpace) -> Result<bool> {
        Ok(self.read(space, LOG_ACTIVE)? != 0)
    }

    /// Runs `body` inside a transaction: `begin`, then the closure, then
    /// `commit` on `Ok` — or rollback on `Err`, so callers can no longer
    /// leak an armed log on the error path. Prefer this over raw
    /// [`UndoLog::begin`]/[`UndoLog::commit`].
    ///
    /// An injected crash ([`HeapError::CrashInjected`]) skips the rollback:
    /// a real crash kills the process before any abort could run, and the
    /// torn log is exactly what [`UndoLog::recover`] is for.
    ///
    /// # Errors
    ///
    /// Propagates `begin`/`commit` failures and the closure's error.
    ///
    /// # Examples
    ///
    /// ```
    /// use utpr_heap::{AddressSpace, UndoLog};
    ///
    /// let mut space = AddressSpace::new(1);
    /// let pool = space.create_pool("bank", 1 << 20)?;
    /// let acct = space.pmalloc(pool, 16)?;
    /// let log = UndoLog::ensure(&mut space, pool, 64)?;
    /// log.run(&mut space, |space, txn| {
    ///     txn.log_word(space, acct)?;
    ///     let va = space.ra2va(acct)?;
    ///     space.write_u64(va, 40)
    /// })?;
    /// # Ok::<(), utpr_heap::HeapError>(())
    /// ```
    pub fn run<T, F>(&self, space: &mut AddressSpace, body: F) -> Result<T>
    where
        F: FnOnce(&mut AddressSpace, &UndoLog) -> Result<T>,
    {
        self.begin(space)?;
        match body(space, self) {
            Ok(value) => {
                self.commit(space)?;
                Ok(value)
            }
            Err(e) => {
                if !matches!(e, HeapError::CrashInjected { .. }) {
                    self.abort(space)?;
                }
                Err(e)
            }
        }
    }

    /// Opens a transaction.
    ///
    /// Prefer the closure-scoped [`UndoLog::run`], which cannot leak an
    /// armed log; raw `begin`/`commit`/`abort` remain (hidden from docs)
    /// only for callers that must hold a transaction open across
    /// non-lexical scopes, such as state-machine tests.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::CorruptRegion`] if one is already open
    /// (transactions do not nest).
    #[doc(hidden)]
    pub fn begin(&self, space: &mut AddressSpace) -> Result<()> {
        if self.is_active(space)? {
            return Err(HeapError::CorruptRegion("transaction already active"));
        }
        let epoch = self.read(space, LOG_EPOCH)? + 1;
        // No fence: the first entry's fence makes both words durable before
        // any logged data store can land, and a transaction that logs
        // nothing has nothing to roll back.
        self.write(space, LOG_EPOCH, epoch)?;
        self.write(space, LOG_ACTIVE, epoch)?;
        self.epoch.set(epoch);
        self.count.set(0);
        Ok(())
    }

    /// Records the current value of the word at `target` so a crash before
    /// commit rolls it back. Call *before* overwriting — undo logging.
    ///
    /// # Errors
    ///
    /// - [`HeapError::CorruptRegion`] when no transaction is open;
    /// - [`HeapError::OutOfMemory`] when the log is full.
    pub fn log_word(&self, space: &mut AddressSpace, target: RelLoc) -> Result<()> {
        if target.pool != self.pool {
            return Err(HeapError::NoSuchPool(target.pool));
        }
        let epoch = self.epoch.get();
        if epoch == 0 {
            return Err(HeapError::CorruptRegion("log_word outside a transaction"));
        }
        let count = self.count.get();
        if count >= self.capacity {
            return Err(HeapError::OutOfMemory { requested: ENTRY_SIZE });
        }
        let offset = u64::from(target.offset);
        let old = space.pool_read_u64(self.pool, offset)?;
        let slot = LOG_ENTRIES + count * ENTRY_SIZE;
        self.write(space, slot, entry_check(epoch, offset, old) << 32 | offset)?;
        self.write(space, slot + 8, old)?;
        // The one ordering point: the undo image is durable before the
        // caller's data store can land. A torn drain before it leaves an
        // entry that fails its check, which ends the replayed prefix.
        space.fence();
        self.count.set(count + 1);
        Ok(())
    }

    /// Commits: the new values become the durable state.
    ///
    /// Prefer [`UndoLog::run`], which pairs this with `begin` automatically.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::CorruptRegion`] when no transaction is open.
    #[doc(hidden)]
    pub fn commit(&self, space: &mut AddressSpace) -> Result<()> {
        if self.epoch.get() == 0 {
            return Err(HeapError::CorruptRegion("commit outside a transaction"));
        }
        // The transaction's data writes must be durable before the active
        // word clears — a cleared word with drained-away data would be a
        // committed transaction that silently lost its writes.
        space.fence();
        self.write(space, LOG_ACTIVE, 0)?;
        space.fence();
        self.epoch.set(0);
        Ok(())
    }

    /// Aborts the open transaction, rolling every logged word back.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::CorruptRegion`] when no transaction is open.
    #[doc(hidden)]
    pub fn abort(&self, space: &mut AddressSpace) -> Result<()> {
        if self.epoch.get() == 0 {
            return Err(HeapError::CorruptRegion("abort outside a transaction"));
        }
        self.rollback(space)
    }

    /// Crash recovery: rolls back every torn transaction the pool carries —
    /// the single plain log, or each materialized directory slot in turn.
    /// Returns whether any rollback happened.
    ///
    /// Slots belong to different (dead) worker threads, so their torn
    /// transactions touched disjoint words and the slot-order replay is
    /// safe.
    ///
    /// # Errors
    ///
    /// Propagates pool lookup failures.
    pub fn recover(space: &mut AddressSpace, pool: PoolId) -> Result<bool> {
        let bases: Vec<u64> = match Self::header(space, pool)? {
            LogHeader::None => return Ok(false),
            LogHeader::Plain(base) => vec![base],
            LogHeader::Dir(dir) => {
                let nslots = space.pool_read_u64(pool, dir + DIR_NSLOTS)?.min(MAX_LOG_SLOTS);
                let mut v = Vec::new();
                for slot in 0..nslots {
                    let base = space.pool_read_u64(pool, dir + DIR_SLOTS + slot * 8)?;
                    if base != 0 {
                        v.push(base);
                    }
                }
                v
            }
        };
        let mut any = false;
        for base in bases {
            let log = Self::at(space, pool, base)?;
            if log.is_active(space)? {
                log.rollback(space)?;
                any = true;
            } else {
                log.burn_orphan_epoch(space)?;
            }
        }
        Ok(any)
    }

    /// A transaction that died before its first fence can drain its first
    /// entry without its epoch or active word. Such an entry validates
    /// under the *next* epoch; burn that epoch, or the next transaction
    /// would adopt the orphan as its own.
    fn burn_orphan_epoch(&self, space: &mut AddressSpace) -> Result<()> {
        let next = self.read(space, LOG_EPOCH)? + 1;
        if self.entry(space, 0, next)?.is_some() {
            self.write(space, LOG_EPOCH, next)?;
            space.fence();
        }
        Ok(())
    }

    fn rollback(&self, space: &mut AddressSpace) -> Result<()> {
        let active = self.read(space, LOG_ACTIVE)?;
        let mut valid = 0;
        while valid < self.capacity && self.entry(space, valid, active)?.is_some() {
            valid += 1;
        }
        // Newest-first over the valid prefix: the oldest image of a word is
        // the one that survives.
        for i in (0..valid).rev() {
            if let Some((offset, old)) = self.entry(space, i, active)? {
                space.pool_write_u64(self.pool, offset, old)?;
            }
        }
        // Never hand this epoch out again, even when `begin`'s epoch store
        // was lost: its entries would validate for the next transaction.
        if self.read(space, LOG_EPOCH)? < active {
            self.write(space, LOG_EPOCH, active)?;
        }
        // Restorations and epoch are durable before the disarm, and the
        // disarm before we return: a second power loss right after recovery
        // must not drain the rollback itself away.
        space.fence();
        self.write(space, LOG_ACTIVE, 0)?;
        space.fence();
        self.epoch.set(0);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (AddressSpace, PoolId, RelLoc, RelLoc) {
        let mut space = AddressSpace::new(5);
        let pool = space.create_pool("txn", 1 << 20).unwrap();
        let a = space.pmalloc(pool, 16).unwrap();
        let b = space.pmalloc(pool, 16).unwrap();
        let va = space.ra2va(a).unwrap();
        let vb = space.ra2va(b).unwrap();
        space.write_u64(va, 100).unwrap();
        space.write_u64(vb, 50).unwrap();
        (space, pool, a, b)
    }

    fn read(space: &AddressSpace, loc: RelLoc) -> u64 {
        space.read_u64(space.ra2va(loc).unwrap()).unwrap()
    }

    fn write(space: &mut AddressSpace, loc: RelLoc, v: u64) {
        let va = space.ra2va(loc).unwrap();
        space.write_u64(va, v).unwrap();
    }

    #[test]
    fn committed_transfer_is_durable_across_crash() {
        let (mut space, pool, a, b) = setup();
        let log = UndoLog::ensure(&mut space, pool, 16).unwrap();
        log.begin(&mut space).unwrap();
        log.log_word(&mut space, a).unwrap();
        write(&mut space, a, 70);
        log.log_word(&mut space, b).unwrap();
        write(&mut space, b, 80);
        log.commit(&mut space).unwrap();

        space.restart();
        space.open_pool("txn").unwrap();
        assert!(!UndoLog::recover(&mut space, pool).unwrap(), "nothing to roll back");
        assert_eq!(read(&space, a), 70);
        assert_eq!(read(&space, b), 80);
    }

    #[test]
    fn torn_transfer_rolls_back_on_recovery() {
        let (mut space, pool, a, b) = setup();
        let log = UndoLog::ensure(&mut space, pool, 16).unwrap();
        log.begin(&mut space).unwrap();
        log.log_word(&mut space, a).unwrap();
        write(&mut space, a, 70); // debit done...
        log.log_word(&mut space, b).unwrap();
        // ...crash before the credit and before commit.
        space.restart();
        space.open_pool("txn").unwrap();
        assert!(UndoLog::recover(&mut space, pool).unwrap(), "rollback expected");
        assert_eq!(read(&space, a), 100, "debit undone");
        assert_eq!(read(&space, b), 50, "credit never applied");
        // The pool is usable for a fresh transaction.
        let log = UndoLog::open(&space, pool).unwrap();
        log.begin(&mut space).unwrap();
        log.commit(&mut space).unwrap();
    }

    #[test]
    fn abort_rolls_back_immediately() {
        let (mut space, pool, a, _) = setup();
        let log = UndoLog::ensure(&mut space, pool, 16).unwrap();
        log.begin(&mut space).unwrap();
        log.log_word(&mut space, a).unwrap();
        write(&mut space, a, 1);
        log.abort(&mut space).unwrap();
        assert_eq!(read(&space, a), 100);
        assert!(!log.is_active(&space).unwrap());
    }

    #[test]
    fn rollback_applies_newest_first() {
        let (mut space, pool, a, _) = setup();
        let log = UndoLog::ensure(&mut space, pool, 16).unwrap();
        log.begin(&mut space).unwrap();
        // Log the same word twice with an intermediate update.
        log.log_word(&mut space, a).unwrap(); // old = 100
        write(&mut space, a, 200);
        log.log_word(&mut space, a).unwrap(); // old = 200
        write(&mut space, a, 300);
        log.abort(&mut space).unwrap();
        assert_eq!(read(&space, a), 100, "reverse order restores the first value");
    }

    #[test]
    fn misuse_is_rejected() {
        let (mut space, pool, a, _) = setup();
        let log = UndoLog::ensure(&mut space, pool, 2).unwrap();
        assert!(log.log_word(&mut space, a).is_err(), "no txn open");
        assert!(log.commit(&mut space).is_err());
        log.begin(&mut space).unwrap();
        assert!(log.begin(&mut space).is_err(), "no nesting");
        // Capacity 2: the third log_word overflows.
        log.log_word(&mut space, a).unwrap();
        log.log_word(&mut space, a).unwrap();
        assert!(matches!(
            log.log_word(&mut space, a),
            Err(HeapError::OutOfMemory { .. })
        ));
        log.commit(&mut space).unwrap();
    }

    #[test]
    fn run_commits_on_ok_and_rolls_back_on_err() {
        let (mut space, pool, a, b) = setup();
        let log = UndoLog::ensure(&mut space, pool, 16).unwrap();
        let sum = log
            .run(&mut space, |space, txn| {
                txn.log_word(space, a)?;
                let va = space.ra2va(a)?;
                space.write_u64(va, 70)?;
                txn.log_word(space, b)?;
                let vb = space.ra2va(b)?;
                space.write_u64(vb, 80)?;
                Ok(70 + 80)
            })
            .unwrap();
        assert_eq!(sum, 150);
        assert!(!log.is_active(&space).unwrap());
        assert_eq!(read(&space, a), 70);
        assert_eq!(read(&space, b), 80);

        // Err path: the debit is rolled back, the log is disarmed.
        let err = log.run(&mut space, |space, txn| {
            txn.log_word(space, a)?;
            let va = space.ra2va(a)?;
            space.write_u64(va, 0)?;
            Err::<(), _>(HeapError::OutOfMemory { requested: 1 })
        });
        assert!(matches!(err, Err(HeapError::OutOfMemory { .. })));
        assert!(!log.is_active(&space).unwrap());
        assert_eq!(read(&space, a), 70, "rolled back to pre-txn value");
    }

    #[test]
    fn run_leaves_log_armed_on_injected_crash() {
        let (mut space, pool, a, _) = setup();
        let log = UndoLog::ensure(&mut space, pool, 16).unwrap();
        space.set_faults(crate::faults::FaultPlan::crash_at(4));
        let err = log.run(&mut space, |space, txn| {
            txn.log_word(space, a)?;
            let va = space.ra2va(a)?;
            space.write_u64(va, 7)
        });
        assert!(matches!(err, Err(HeapError::CrashInjected { .. })));
        // No abort ran: the torn log is recovery's job, as after a real
        // crash. (It may or may not be armed depending on the point.)
        space.set_faults(crate::faults::FaultPlan::disabled());
        UndoLog::recover(&mut space, pool).unwrap();
        assert!(!log.is_active(&space).unwrap());
        assert_eq!(read(&space, a), 100);
    }

    #[test]
    fn ensure_is_idempotent_and_open_finds_it() {
        let (mut space, pool, _, _) = setup();
        let l1 = UndoLog::ensure(&mut space, pool, 8).unwrap();
        let l2 = UndoLog::ensure(&mut space, pool, 8).unwrap();
        assert_eq!(l1.base, l2.base);
        let l3 = UndoLog::open(&space, pool).unwrap();
        assert_eq!(l1.base, l3.base);
        assert_eq!(l3.capacity, 8);
    }

    #[test]
    fn foreign_pool_word_rejected() {
        let (mut space, pool, _, _) = setup();
        let other = space.create_pool("other", 1 << 20).unwrap();
        let foreign = space.pmalloc(other, 16).unwrap();
        let log = UndoLog::ensure(&mut space, pool, 8).unwrap();
        log.begin(&mut space).unwrap();
        assert!(matches!(
            log.log_word(&mut space, foreign),
            Err(HeapError::NoSuchPool(_))
        ));
    }

    #[test]
    fn capacity_survives_crash_mid_transaction() {
        // A torn transaction must not corrupt the stored capacity: after
        // recovery the log accepts exactly `capacity` entries again.
        let (mut space, pool, a, _) = setup();
        let log = UndoLog::ensure(&mut space, pool, 3).unwrap();
        log.begin(&mut space).unwrap();
        log.log_word(&mut space, a).unwrap();
        write(&mut space, a, 7);
        space.restart();
        space.open_pool("txn").unwrap();
        assert!(UndoLog::recover(&mut space, pool).unwrap());
        let reopened = UndoLog::open(&space, pool).unwrap();
        assert_eq!(read(&space, a), 100, "torn write rolled back");
        reopened.begin(&mut space).unwrap();
        for _ in 0..3 {
            reopened.log_word(&mut space, a).unwrap();
        }
        assert!(matches!(
            reopened.log_word(&mut space, a),
            Err(HeapError::OutOfMemory { .. })
        ));
        reopened.commit(&mut space).unwrap();
    }

    #[test]
    fn lone_slot_zero_keeps_the_plain_format() {
        let (mut space, pool, _, _) = setup();
        let l1 = UndoLog::ensure_slot(&mut space, pool, 8, 0).unwrap();
        let l2 = UndoLog::ensure(&mut space, pool, 8).unwrap();
        assert_eq!(l1.base, l2.base, "slot 0 and plain ensure are the same log");
        // The header points straight at the log area — no directory.
        let hdr = space.pool_read_u64(pool, HDR_LOG_SLOT).unwrap();
        assert_eq!(hdr, l1.base);
        assert_ne!(space.pool_read_u64(pool, hdr).unwrap(), DIR_MAGIC);
    }

    #[test]
    fn second_slot_installs_directory_and_migrates_slot_zero() {
        let (mut space, pool, a, _) = setup();
        let plain = UndoLog::ensure(&mut space, pool, 8).unwrap();
        let slot1 = UndoLog::ensure_slot(&mut space, pool, 4, 1).unwrap();
        assert_ne!(plain.base, slot1.base);
        // The plain log migrated into slot 0; old handles and `open` both
        // still resolve to it.
        let hdr = space.pool_read_u64(pool, HDR_LOG_SLOT).unwrap();
        assert_eq!(space.pool_read_u64(pool, hdr).unwrap(), DIR_MAGIC);
        assert_eq!(UndoLog::open(&space, pool).unwrap().base, plain.base);
        assert_eq!(UndoLog::open_slot(&space, pool, 0).unwrap().base, plain.base);
        assert_eq!(UndoLog::open_slot(&space, pool, 1).unwrap().base, slot1.base);
        assert_eq!(UndoLog::open_slot(&space, pool, 1).unwrap().capacity, 4);
        // The migrated handle still runs transactions.
        plain
            .run(&mut space, |space, txn| {
                txn.log_word(space, a)?;
                let va = space.ra2va(a)?;
                space.write_u64(va, 7)
            })
            .unwrap();
        assert_eq!(read(&space, a), 7);
        // ensure_slot is idempotent per slot.
        assert_eq!(UndoLog::ensure_slot(&mut space, pool, 9, 1).unwrap().base, slot1.base);
        // Unmaterialized slots stay closed.
        assert!(UndoLog::open_slot(&space, pool, 2).is_err());
        assert!(UndoLog::ensure_slot(&mut space, pool, 4, MAX_LOG_SLOTS).is_err());
    }

    #[test]
    fn recovery_rolls_back_every_active_slot() {
        let (mut space, pool, a, b) = setup();
        let l0 = UndoLog::ensure_slot(&mut space, pool, 8, 0).unwrap();
        let l1 = UndoLog::ensure_slot(&mut space, pool, 8, 1).unwrap();
        // Two worker threads each tear a transaction on disjoint words.
        l0.begin(&mut space).unwrap();
        l0.log_word(&mut space, a).unwrap();
        write(&mut space, a, 1);
        l1.begin(&mut space).unwrap();
        l1.log_word(&mut space, b).unwrap();
        write(&mut space, b, 2);
        space.restart();
        space.open_pool("txn").unwrap();
        assert!(UndoLog::recover(&mut space, pool).unwrap(), "rollbacks expected");
        assert_eq!(read(&space, a), 100, "slot 0 rolled back");
        assert_eq!(read(&space, b), 50, "slot 1 rolled back");
        assert!(!UndoLog::open_slot(&space, pool, 0).unwrap().is_active(&space).unwrap());
        assert!(!UndoLog::open_slot(&space, pool, 1).unwrap().is_active(&space).unwrap());
        assert!(!UndoLog::recover(&mut space, pool).unwrap(), "second pass is a no-op");
    }

    /// Eight words at `0, 8, ..` of a fresh block, holding `0..8`.
    fn eight_words(space: &mut AddressSpace, pool: PoolId) -> Vec<RelLoc> {
        let block = space.pmalloc(pool, 64).unwrap();
        let words: Vec<RelLoc> =
            (0..8).map(|i| RelLoc::new(pool, block.offset + i * 8)).collect();
        for (i, w) in words.iter().enumerate() {
            write(space, *w, i as u64);
        }
        words
    }

    fn crash(space: &mut AddressSpace, pool: PoolId) -> bool {
        space.restart();
        space.open_pool("txn").unwrap();
        UndoLog::recover(space, pool).unwrap()
    }

    fn entry_word(log: &UndoLog, i: u64) -> u64 {
        log.base + LOG_ENTRIES + i * ENTRY_SIZE
    }

    #[test]
    fn replay_stops_at_the_first_entry_that_fails_its_check() {
        let (mut space, pool, _, _) = setup();
        let w = eight_words(&mut space, pool);
        let log = UndoLog::ensure(&mut space, pool, 16).unwrap();
        log.begin(&mut space).unwrap();
        for &loc in &w[..3] {
            log.log_word(&mut space, loc).unwrap();
            write(&mut space, loc, 70);
        }
        // Entry 1 torn: its old-value word drained, its tagged word did not.
        space.pool_write_u64(pool, entry_word(&log, 1) + 8, 0xBAD).unwrap();
        assert!(crash(&mut space, pool));
        let got: Vec<u64> = w[..3].iter().map(|&loc| read(&space, loc)).collect();
        assert_eq!(got, [0, 70, 70], "only the prefix before the torn entry replays");

        // A forged entry 0 — right offset, wrong check — replays nothing.
        let log = UndoLog::open(&space, pool).unwrap();
        log.begin(&mut space).unwrap();
        log.log_word(&mut space, w[3]).unwrap();
        write(&mut space, w[3], 70);
        space.pool_write_u64(pool, entry_word(&log, 0), u64::from(w[3].offset)).unwrap();
        assert!(crash(&mut space, pool));
        assert_eq!(read(&space, w[3]), 70, "a forged entry is not an undo image");
    }

    #[test]
    fn committed_eight_words_then_crashed_two_roll_back_exactly_two() {
        let (mut space, pool, _, _) = setup();
        let w = eight_words(&mut space, pool);
        let log = UndoLog::ensure(&mut space, pool, 16).unwrap();
        log.run(&mut space, |space, txn| {
            for &loc in &w {
                txn.log_word(space, loc)?;
                write(space, loc, 100 + u64::from(loc.offset));
            }
            Ok(())
        })
        .unwrap();
        log.begin(&mut space).unwrap();
        for &loc in &w[..2] {
            log.log_word(&mut space, loc).unwrap();
            write(&mut space, loc, 0xDEAD);
        }
        // Entries 2..8 of the committed epoch still sit in the log.
        assert!(crash(&mut space, pool));
        for &loc in &w {
            assert_eq!(read(&space, loc), 100 + u64::from(loc.offset), "word {:#x}", loc.offset);
        }
    }

    #[test]
    fn crash_recover_crash_never_replays_an_earlier_epoch() {
        let (mut space, pool, _, _) = setup();
        let w = eight_words(&mut space, pool);
        let log = UndoLog::ensure(&mut space, pool, 16).unwrap();

        // Epoch 1 dies with four entries after a drain that kept its active
        // word but lost the epoch store.
        log.begin(&mut space).unwrap();
        for &loc in &w[..4] {
            log.log_word(&mut space, loc).unwrap();
            write(&mut space, loc, 70);
        }
        space.pool_write_u64(pool, log.base + LOG_EPOCH, 0).unwrap();
        assert!(crash(&mut space, pool));
        assert_eq!(space.pool_read_u64(pool, log.base + LOG_EPOCH).unwrap(), 1, "epoch raised");
        for &loc in &w[..4] {
            write(&mut space, loc, 80); // durable, outside any transaction
        }

        // Epoch 2 dies before logging anything: epoch 1's entries must not
        // validate under it.
        let log = UndoLog::open(&space, pool).unwrap();
        log.begin(&mut space).unwrap();
        assert!(crash(&mut space, pool));
        assert!(w[..4].iter().all(|&loc| read(&space, loc) == 80), "epoch 1 replayed");

        // Epoch 3 dies with only its first entry drained: recovery burns the
        // epoch, so epoch 4 cannot adopt the orphan after its own crash.
        let log = UndoLog::open(&space, pool).unwrap();
        log.begin(&mut space).unwrap();
        log.log_word(&mut space, w[5]).unwrap();
        space.pool_write_u64(pool, log.base + LOG_ACTIVE, 0).unwrap();
        space.pool_write_u64(pool, log.base + LOG_EPOCH, 2).unwrap();
        assert!(!crash(&mut space, pool));
        assert_eq!(space.pool_read_u64(pool, log.base + LOG_EPOCH).unwrap(), 3, "orphan burnt");
        write(&mut space, w[5], 90);
        let log = UndoLog::open(&space, pool).unwrap();
        log.begin(&mut space).unwrap();
        assert!(crash(&mut space, pool));
        assert_eq!(read(&space, w[5]), 90, "the orphan of epoch 3 replayed");
    }
}
