//! The one set-associative, true-LRU array under every cache level, both
//! TLB levels and the POLB.
//!
//! Each slot holds a full key (line or page number) and the stamp of its
//! last use, flat in two boxed slices indexed `set * ways + way`. Keeping
//! the whole key as the tag means the set never has to be divided out of
//! it; a power-of-two set count picks the set with a mask, any other with
//! `%`. The exactness contract is that of the `Vec`-per-set arrays this
//! replaced: the same hit/miss sequence, the same victim (the first empty
//! way, else the least-recent stamp) and `u64` stamps.

const EMPTY: u64 = u64::MAX;

/// Set-associative, true-LRU array of `u64` keys below `u64::MAX`.
#[derive(Clone, Debug)]
pub(crate) struct SetAssoc {
    sets: u64,
    /// `sets - 1` when `sets` is a power of two.
    mask: Option<u64>,
    ways: usize,
    /// Key per slot; `EMPTY` when never filled.
    keys: Box<[u64]>,
    /// Last-use stamp per slot; 0 when never filled, so an empty way is
    /// always the least recent.
    stamps: Box<[u64]>,
    /// The key the last access or touch placed. It is resident and holds
    /// the newest stamp, so a repeat of it is a hit that changes no order.
    last_key: u64,
    /// The last stamp handed out; repeats of `last_key` take none.
    stamp: u64,
    hits: u64,
    misses: u64,
}

impl SetAssoc {
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero.
    pub(crate) fn new(sets: usize, ways: usize) -> Self {
        assert!(sets > 0 && ways > 0, "sets and ways must be nonzero");
        let sets = sets as u64;
        SetAssoc {
            sets,
            mask: sets.is_power_of_two().then(|| sets - 1),
            ways,
            keys: vec![EMPTY; sets as usize * ways].into(),
            stamps: vec![0; sets as usize * ways].into(),
            last_key: EMPTY,
            stamp: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Looks `key` up, updating LRU and the counters; returns `true` on
    /// hit. A miss fills the victim way.
    #[inline]
    pub(crate) fn access(&mut self, key: u64) -> bool {
        let hit = self.touch(key);
        self.hits += u64::from(hit);
        self.misses += u64::from(!hit);
        hit
    }

    /// [`access`](Self::access) without touching the counters.
    #[inline]
    pub(crate) fn touch(&mut self, key: u64) -> bool {
        key == self.last_key || self.scan(key)
    }

    /// [`touch`](Self::touch) for any key but the last one.
    fn scan(&mut self, key: u64) -> bool {
        self.stamp += 1;
        let set = match self.mask {
            Some(mask) => key & mask,
            None => key % self.sets,
        };
        let base = set as usize * self.ways;
        let ways = base..base + self.ways;
        // No early exit: at most one way matches, and the scan stays
        // branch-free on the host.
        let mut found = usize::MAX;
        for (way, &k) in self.keys[ways.clone()].iter().enumerate() {
            if k == key {
                found = way;
            }
        }
        let hit = found != usize::MAX;
        if !hit {
            // The first way with the least stamp. Empty ways hold 0 and live
            // stamps are distinct: the first empty way, else the least recent.
            let stamps = self.stamps[ways].iter().enumerate();
            found = stamps.min_by_key(|&(_, &s)| s).map_or(0, |(way, _)| way);
            self.keys[base + found] = key;
        }
        self.last_key = key;
        self.stamps[base + found] = self.stamp;
        hit
    }

    /// Empties every way, keeping the counters.
    pub(crate) fn clear(&mut self) {
        self.keys.fill(EMPTY);
        self.stamps.fill(0);
        self.last_key = EMPTY;
    }

    pub(crate) fn hits(&self) -> u64 {
        self.hits
    }

    pub(crate) fn misses(&self) -> u64 {
        self.misses
    }

    pub(crate) fn reset_counters(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }
}
