//! The sVALB: a software lookaside in front of the containing-range walk
//! in [`crate::AddressSpace::va2ra`].
//!
//! The paper accelerates `ra2va`/`va2ra` in hardware with two lookaside
//! buffers: the POLB (pool id → base VA) and the VALB (VA range → pool id,
//! a TCAM over the VATB). On the host, `ra2va` needs no cache: the pool
//! table is a dense `PoolId`-indexed `Vec`, so its entry already *is* the
//! POLB line. `va2ra` has to search the attached ranges, a BTree walk, so
//! it is fronted by a software VALB: a one-entry last-hit memo plus a small
//! direct-mapped array of `(base, size, pool)` ranges.
//!
//! A slot with `size == 0` is empty: no address falls inside it, so a
//! lookup is just the range compare. Every event that can move or remove
//! a range clears the slots it could have made wrong, through one routine
//! ([`TransCache::invalidate`]) scoped to one pool or to all of them:
//!
//! - one pool when it attaches, detaches or is destroyed. The other pools'
//!   ranges — one per core in the multicore picture — stay hot instead of
//!   being flushed by an unrelated pool's lifecycle (the per-shard rule of
//!   the concurrency model, DESIGN.md §10);
//! - all pools on restart, integrity-mode switches, cache toggles and
//!   mutable escape-hatch access to the pool device.
//!
//! Each invalidation also advances the translation epoch, a plain counter
//! that higher-level caches (the per-site check caches in `utpr-ptr`)
//! compare against. Entries are only ever filled from a *successful* walk,
//! so a hit returns exactly what the walk would have, and misses (detached
//! pools, foreign addresses) always take the walk: error semantics
//! (`NotInAnyPool` and every access fault behind it) are bit-identical
//! with the cache on or off. There is deliberately no negative caching.
//!
//! The slots live in [`std::cell::Cell`]s so the read-only translation
//! methods (`&self`) can refill them; like the
//! [`crate::pagestore::PageStore`] memo this keeps the space `Send` but
//! not `Sync`, which is fine — each worker thread owns its shard of the
//! address space privately, and only the lower pool layer
//! ([`crate::shard::SharedPool`]) is shared between threads.

use std::cell::Cell;

/// Number of direct-mapped sVALB range slots. Pools attach at 1 MiB
/// alignment, so hashing the MiB index of the address spreads distinct
/// pools across slots; 64 covers every multi-pool working set in the
/// benchmark suite without conflict thrash.
const VALB_WAYS: usize = 64;

/// One sVALB entry: an attached range `[base, base + size)` owned by
/// `pool`. The default, `size == 0`, is an empty slot.
#[derive(Clone, Copy, Debug, Default)]
struct ValbSlot {
    base: u64,
    size: u64,
    pool: u32,
}

/// Which cached translations an invalidation drops.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Scope {
    /// Only the ranges of the pool with this raw id.
    Pool(u32),
    /// Every range.
    All,
}

/// Walk and invalidation counters for the sVALB.
///
/// These are *host-side* diagnostics: they never feed the simulated cycle
/// model, events, or checksums, so they may differ between cache-enabled
/// and cache-disabled runs of the same workload (that is the point). They
/// are still fully deterministic for a fixed op sequence and layout seed.
///
/// A hit is not counted: a per-hit count is a read-modify-write chained
/// through memory from one translation to the next, and that chain, not
/// the range compare, would be the critical path of a run of hits. The
/// sVALB's hit rate over an op stream is `1 - on.walks / off.walks`, from
/// one run with the cache on and one with it off, since with it off every
/// translation walks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TransStats {
    /// `va2ra` translations that walked the attached ranges: the sVALB's
    /// misses, or every translation while it is off. The `*_uncached`
    /// oracle paths are not counted.
    pub walks: u64,
    /// All-pools invalidations (each clears every slot).
    pub epoch_bumps: u64,
    /// One-pool invalidations (each clears that pool's slots only).
    pub pool_epoch_bumps: u64,
}

impl TransStats {
    /// Accumulates another shard's counters into this one — how per-thread
    /// lookaside telemetry is merged when workers join.
    pub fn merge(&mut self, other: &TransStats) {
        self.walks += other.walks;
        self.epoch_bumps += other.epoch_bumps;
        self.pool_epoch_bumps += other.pool_epoch_bumps;
    }
}

/// The software lookaside layer. Owned by [`crate::AddressSpace`]; see the
/// module docs for the invalidation contract.
#[derive(Clone, Debug)]
pub(crate) struct TransCache {
    enabled: bool,
    /// Invalidations so far, of either scope.
    epoch: u64,
    /// Last-hit memo, checked before the direct-mapped array.
    last: Cell<ValbSlot>,
    /// Direct-mapped range array.
    valb: [Cell<ValbSlot>; VALB_WAYS],
    walks: Cell<u64>,
    epoch_bumps: Cell<u64>,
    pool_epoch_bumps: Cell<u64>,
}

impl TransCache {
    pub(crate) fn new() -> Self {
        TransCache {
            enabled: true,
            epoch: 0,
            last: Cell::default(),
            valb: std::array::from_fn(|_| Cell::default()),
            walks: Cell::new(0),
            epoch_bumps: Cell::new(0),
            pool_epoch_bumps: Cell::new(0),
        }
    }

    #[inline]
    pub(crate) fn enabled(&self) -> bool {
        self.enabled
    }

    /// The translation epoch: advanced by every invalidation, of either
    /// scope, so a higher-level entry stamped with it can never survive a
    /// pool lifecycle event.
    #[inline]
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Turns the sVALB on or off. Either way every slot is cleared, so no
    /// entry filled earlier can ever hit again.
    pub(crate) fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
        self.invalidate(Scope::All);
    }

    /// Clears every slot (the memo included) that `scope` covers and
    /// advances the epoch.
    pub(crate) fn invalidate(&mut self, scope: Scope) {
        self.epoch += 1;
        let count = match scope {
            Scope::Pool(_) => &self.pool_epoch_bumps,
            Scope::All => &self.epoch_bumps,
        };
        count.set(count.get() + 1);
        let clear = |slot: &mut Cell<ValbSlot>| {
            let s = slot.get_mut();
            if matches!(scope, Scope::All) || matches!(scope, Scope::Pool(p) if s.pool == p) {
                *s = ValbSlot::default();
            }
        };
        self.valb.iter_mut().for_each(clear);
        clear(&mut self.last);
    }

    #[inline]
    fn valb_index(va: u64) -> usize {
        // Pools attach at 1 MiB boundaries: fold the MiB index.
        ((va >> 20) ^ (va >> 26)) as usize & (VALB_WAYS - 1)
    }

    /// sVALB probe: the `(pool, base, size)` of the cached range
    /// containing `va`, if any.
    #[inline]
    pub(crate) fn lookup_va(&self, va: u64) -> Option<(u32, u64, u64)> {
        let l = self.last.get();
        if va.wrapping_sub(l.base) < l.size {
            return Some((l.pool, l.base, l.size));
        }
        let s = self.valb[Self::valb_index(va)].get();
        if va.wrapping_sub(s.base) < s.size {
            self.last.set(s);
            return Some((s.pool, s.base, s.size));
        }
        None
    }

    /// Counts one `va2ra` that walked the attached ranges.
    #[inline]
    pub(crate) fn note_walk(&self) {
        self.walks.set(self.walks.get() + 1);
    }

    /// Refills the sVALB (memo + the slot `va` maps to) after a successful
    /// walk found `va` inside `pool`'s range.
    #[inline]
    pub(crate) fn fill_va(&self, va: u64, pool: u32, base: u64, size: u64) {
        let slot = ValbSlot { base, size, pool };
        self.last.set(slot);
        self.valb[Self::valb_index(va)].set(slot);
    }

    /// Snapshot of the counters.
    pub(crate) fn stats(&self) -> TransStats {
        TransStats {
            walks: self.walks.get(),
            epoch_bumps: self.epoch_bumps.get(),
            pool_epoch_bumps: self.pool_epoch_bumps.get(),
        }
    }

    /// Zeroes the counters (cached entries stay valid).
    pub(crate) fn reset_stats(&self) {
        self.walks.set(0);
        self.epoch_bumps.set(0);
        self.pool_epoch_bumps.set(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: u64 = (1 << 47) + (3 << 20);
    const B: u64 = (1 << 47) + (700 << 20);

    #[test]
    fn fresh_cache_misses_everything() {
        let c = TransCache::new();
        assert!(c.lookup_va(1 << 47).is_none());
        assert!(c.lookup_va(0).is_none(), "an empty slot holds no address");
    }

    #[test]
    fn install_then_lookup_hits_until_bump() {
        let mut c = TransCache::new();
        c.fill_va(A, 3, A, 1 << 20);
        assert_eq!(c.lookup_va(A + 8), Some((3, A, 1 << 20)));
        c.invalidate(Scope::All);
        assert_eq!(c.lookup_va(A + 8), None, "an all-pools invalidation clears the range");
        c.fill_va(B, 3, B, 1 << 20);
        assert_eq!(c.lookup_va(B + 8), Some((3, B, 1 << 20)));
    }

    #[test]
    fn pool_bump_invalidates_only_that_pool() {
        let mut c = TransCache::new();
        c.fill_va(A, 3, A, 1 << 20);
        c.fill_va(B, 5, B, 1 << 20);
        c.invalidate(Scope::Pool(3));
        assert!(c.lookup_va(A).is_none(), "pool 3's sVALB range is stale");
        assert_eq!(c.lookup_va(B), Some((5, B, 1 << 20)), "pool 5's range survives");
        let s = c.stats();
        assert_eq!(s.pool_epoch_bumps, 1);
        assert_eq!(s.epoch_bumps, 0, "no global flush happened");
        // Pool 5 now sits in the memo too: its invalidation clears both.
        c.invalidate(Scope::Pool(5));
        assert!(c.lookup_va(B).is_none(), "neither memo nor array still holds pool 5");
    }

    #[test]
    fn refill_after_pool_bump_is_fresh_again() {
        let mut c = TransCache::new();
        c.fill_va(A, 3, A, 1 << 20);
        c.invalidate(Scope::Pool(3));
        assert!(c.lookup_va(A).is_none());
        c.fill_va(B, 3, B, 1 << 20);
        assert_eq!(c.lookup_va(B), Some((3, B, 1 << 20)));
        // A later global invalidation still kills the refilled entry.
        c.invalidate(Scope::All);
        assert!(c.lookup_va(B).is_none());
    }

    #[test]
    fn epoch_advances_on_both_scopes() {
        let mut c = TransCache::new();
        let e0 = c.epoch();
        c.invalidate(Scope::Pool(9));
        let e1 = c.epoch();
        c.invalidate(Scope::All);
        let e2 = c.epoch();
        assert!(e1 > e0 && e2 > e1, "every invalidation advances the epoch");
    }

    #[test]
    fn valb_contains_and_rejects_by_range() {
        let c = TransCache::new();
        let base = (1u64 << 47) + (5 << 20);
        c.fill_va(base, 7, base, 1 << 20);
        assert_eq!(c.lookup_va(base), Some((7, base, 1 << 20)));
        assert_eq!(c.lookup_va(base + (1 << 20) - 1), Some((7, base, 1 << 20)));
        assert!(c.lookup_va(base + (1 << 20)).is_none(), "one past the end");
        assert!(c.lookup_va(base - 1).is_none(), "below the base");
    }

    #[test]
    fn valb_memo_survives_direct_map_conflicts() {
        let c = TransCache::new();
        let a = (1u64 << 47) + (1 << 20);
        // Find a distinct range mapping to the same direct-mapped slot as
        // `a`: its fill evicts `a`'s array entry, but `b` stays hot in the
        // memo.
        let b = (2..)
            .map(|k| a + (k << 20))
            .find(|&va| TransCache::valb_index(va) == TransCache::valb_index(a))
            .unwrap();
        c.fill_va(a, 1, a, 1 << 20);
        c.fill_va(b, 2, b, 1 << 20);
        assert_eq!(c.lookup_va(b), Some((2, b, 1 << 20)), "memo holds b");
        assert!(c.lookup_va(a).is_none(), "a evicted from its slot");
    }

    #[test]
    fn counters_reset_without_invalidating() {
        let c = TransCache::new();
        c.fill_va(A, 1, A, 1 << 20);
        c.note_walk();
        c.reset_stats();
        assert_eq!(c.stats(), TransStats::default());
        assert!(c.lookup_va(A).is_some(), "entries survive a stats reset");
    }

    #[test]
    fn disabling_bumps_the_epoch() {
        let mut c = TransCache::new();
        c.fill_va(A, 1, A, 1 << 20);
        let e0 = c.epoch();
        c.set_enabled(false);
        assert!(!c.enabled());
        c.set_enabled(true);
        assert_eq!(c.epoch(), e0 + 2);
        assert!(c.lookup_va(A).is_none(), "pre-disable entries are gone");
    }

    #[test]
    fn merge_sums_every_counter() {
        let mut a = TransStats { walks: 1, epoch_bumps: 2, ..TransStats::default() };
        let b = TransStats { walks: 3, pool_epoch_bumps: 4, ..TransStats::default() };
        a.merge(&b);
        assert_eq!(a.walks, 4);
        assert_eq!(a.epoch_bumps, 2);
        assert_eq!(a.pool_epoch_bumps, 4);
    }
}
