//! Op streams: every input the benchmark feeds the program is derived
//! here from `--seed`, with the benchmark's own PRNG and zipfian sampler —
//! the program's copies (`utpr_kv::rng`, `utpr_kv::workload`) may change
//! under later PRs, the benchmark's inputs must not.
//!
//! Every *written* key is owned by exactly one issuer (a connection, a
//! thread or a partition), so per-key order is the issuer's program order
//! no matter how issuers interleave, and final contents are a pure
//! function of the seed. Each stream carries its own model of the keys it
//! owns and stamps every op with the response the program must give.

use std::collections::{HashMap, VecDeque};

/// splitmix64 finalizer over `seed ^ salt·φ` — a bijection of `seed` for
/// fixed `salt`, so distinct indices give distinct keys.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut x = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The 8-byte key of record index `i` (hashed, like YCSB's keys).
pub fn key_of(i: u64) -> u64 {
    mix(i, 0x006b_6579)
}

/// The value the preload phase stores under `key`.
pub fn preload_val(key: u64) -> u64 {
    mix(key, 0x0070_7265) >> 1
}

/// xoshiro256** seeded through splitmix64.
#[derive(Clone, Debug)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng {
            s: [mix(seed, 1), mix(seed, 2), mix(seed, 3), mix(seed, 4) | 1],
        }
    }

    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, bound)`.
    pub fn below(&mut self, bound: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }
}

/// Zipfian ranks over `[0, n)` at YCSB's θ = 0.99 (Gray et al.'s
/// rejection-free method). `grow` extends the support by one rank in
/// O(1), which the latest-distribution stream needs on every insert.
#[derive(Clone, Debug)]
pub struct Zipf {
    n: u64,
    zetan: f64,
    zeta2: f64,
    eta: f64,
}

const THETA: f64 = 0.99;

impl Zipf {
    pub fn new(n: u64) -> Zipf {
        assert!(n >= 2, "zipf support must hold at least two ranks");
        let zeta = |n: u64| (1..=n).map(|i| (i as f64).powf(-THETA)).sum::<f64>();
        let mut z = Zipf {
            n,
            zetan: zeta(n),
            zeta2: zeta(2),
            eta: 0.0,
        };
        z.set_eta();
        z
    }

    fn set_eta(&mut self) {
        let n = self.n as f64;
        self.eta = (1.0 - (2.0 / n).powf(1.0 - THETA)) / (1.0 - self.zeta2 / self.zetan);
    }

    pub fn grow(&mut self) {
        self.n += 1;
        self.zetan += (self.n as f64).powf(-THETA);
        self.set_eta();
    }

    /// Draws a rank; 0 is the most popular.
    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let u = rng.f64();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(THETA) {
            return 1;
        }
        let v = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(1.0 / (1.0 - THETA))) as u64;
        v.min(self.n - 1)
    }
}

/// One operation as the program sees it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Get(u64),
    Put(u64, u64),
    Del(u64),
}

impl Op {
    pub fn key(&self) -> u64 {
        match *self {
            Op::Get(k) | Op::Put(k, _) | Op::Del(k) => k,
        }
    }

    pub fn is_write(&self) -> bool {
        !matches!(self, Op::Get(_))
    }
}

/// What the program must answer: the value a GET returns, or the previous
/// value a PUT/DELETE displaces.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expect {
    /// Exactly this (the issuer owns the key, or nobody writes it).
    Exact(Option<u64>),
    /// A preloaded key another issuer may be updating: present, any value.
    Present,
}

impl Expect {
    pub fn matches(&self, got: Option<u64>) -> bool {
        match *self {
            Expect::Exact(want) => want == got,
            Expect::Present => got.is_some(),
        }
    }
}

/// `mix-A`: 50 % GET zipfian over the preloaded records, 30 % PUT-update
/// zipfian over the issuer's own share of them, 10 % PUT-insert of a
/// fresh issuer-private key, 10 % DELETE of the issuer's oldest live
/// inserted key. Inserts and deletes balance, so the store stays at
/// `records` (plus a short queue) while the allocator keeps working.
///
/// The model is as flat as the key space allows — one word per preloaded
/// key of the share, a queue of the live fresh keys — so its memory is the
/// same at every op count: a hash table shedding tombstones would step the
/// process's peak RSS by megabytes at whatever op count a run reaches.
#[derive(Clone, Debug)]
pub struct MixA {
    issuer: u64,
    issuers: u64,
    records: u64,
    zipf: Zipf,
    rng: Rng,
    seq: u64,
    /// Fresh keys inserted so far; the oldest `fresh - live.len()` of them
    /// have been deleted again.
    fresh: u64,
    /// Live fresh keys, oldest first, with their values.
    live: VecDeque<(u64, u64)>,
    /// Value of preloaded record `n * issuers + issuer` once this issuer
    /// has updated it, [`UNWRITTEN`] until then.
    updated: Vec<u64>,
}

/// No value is this: every value is a hash shifted right by one.
const UNWRITTEN: u64 = u64::MAX;

impl MixA {
    /// `records` must be a multiple of `issuers` so every issuer owns an
    /// equal share of the preloaded range.
    pub fn new(seed: u64, issuer: u64, issuers: u64, records: u64) -> MixA {
        assert!(issuer < issuers && records.is_multiple_of(issuers));
        MixA {
            issuer,
            issuers,
            records,
            zipf: Zipf::new(records),
            rng: Rng::new(mix(seed, 0x6d69_7841 ^ (issuer << 32))),
            seq: 0,
            fresh: 0,
            live: VecDeque::new(),
            updated: vec![UNWRITTEN; (records / issuers) as usize],
        }
    }

    /// Which issuer owns record index `i` (preloaded or fresh).
    pub fn owner_of_index(i: u64, issuers: u64) -> u64 {
        i % issuers
    }

    /// Key of the `n`th fresh record of this issuer.
    fn fresh_key(&self, n: u64) -> u64 {
        key_of(self.records + n * self.issuers + self.issuer)
    }

    /// Current value of the preloaded record `index` of this issuer's share.
    fn share_val(&self, index: u64) -> u64 {
        match self.updated[(index / self.issuers) as usize] {
            UNWRITTEN => preload_val(key_of(index)),
            v => v,
        }
    }

    fn insert(&mut self) -> (Op, Expect) {
        let key = self.fresh_key(self.fresh);
        self.fresh += 1;
        let val = mix(key, self.seq) >> 1;
        self.live.push_back((key, val));
        (Op::Put(key, val), Expect::Exact(None))
    }

    /// A zipfian GET over the preloaded records — half of `mix-A`, and the
    /// whole of the read-only workload.
    pub fn next_get(&mut self) -> (Op, Expect) {
        let index = self.zipf.sample(&mut self.rng);
        let expect = if Self::owner_of_index(index, self.issuers) == self.issuer {
            Expect::Exact(Some(self.share_val(index)))
        } else {
            Expect::Present
        };
        (Op::Get(key_of(index)), expect)
    }

    /// The next op and the answer it must get.
    pub fn next_op(&mut self) -> (Op, Expect) {
        self.seq += 1;
        match self.rng.below(10) {
            0..=4 => self.next_get(),
            5..=7 => {
                // Round the rank down onto this issuer's share.
                let rank = self.zipf.sample(&mut self.rng);
                let index = rank / self.issuers * self.issuers + self.issuer;
                let key = key_of(index);
                let val = mix(key, self.seq) >> 1;
                let prev = self.share_val(index);
                self.updated[(index / self.issuers) as usize] = val;
                (Op::Put(key, val), Expect::Exact(Some(prev)))
            }
            8 => self.insert(),
            _ => match self.live.pop_front() {
                Some((key, val)) => (Op::Del(key), Expect::Exact(Some(val))),
                None => self.insert(),
            },
        }
    }

    /// Every key this issuer writes, with what it must read back as once
    /// the stream stops: each preloaded key of the share and each live
    /// fresh key with its value, each deleted fresh key with `None`.
    pub fn for_each_final(&self, mut f: impl FnMut(u64, Option<u64>)) {
        for index in (self.issuer..self.records).step_by(self.issuers as usize) {
            f(key_of(index), Some(self.share_val(index)));
        }
        let deleted = self.fresh - self.live.len() as u64;
        (0..deleted).for_each(|n| f(self.fresh_key(n), None));
        self.live.iter().for_each(|(k, v)| f(*k, Some(*v)));
    }

    /// Keys this issuer leaves in the store: its share and its live fresh keys.
    pub fn final_len(&self) -> u64 {
        self.records / self.issuers + self.live.len() as u64
    }
}

/// The concurrent-index mix: 50 % get / 30 % insert / 20 % remove, keys
/// uniform over one partition of a dense key space (`key % parts ==
/// part`), so a partition's ops commute with every other partition's.
#[derive(Clone, Debug)]
pub struct PartStream {
    part: u64,
    parts: u64,
    keys_per_part: u64,
    rng: Rng,
    seq: u64,
    model: HashMap<u64, u64>,
}

impl PartStream {
    pub fn new(seed: u64, part: u64, parts: u64, keys_per_part: u64) -> PartStream {
        let model = (0..keys_per_part)
            .map(|i| i * parts + part)
            .filter(|k| Self::initially_present(*k))
            .map(|k| (k, Self::initial_val(k)))
            .collect();
        PartStream {
            part,
            parts,
            keys_per_part,
            rng: Rng::new(mix(seed, 0x7061_7274 ^ (part << 32))),
            seq: 0,
            model,
        }
    }

    /// Whether `key` is in the index before the measured phase: three keys
    /// in five, the share at which 30 % inserts and 20 % removes of uniform
    /// keys balance, so the index neither fills nor drains while it is
    /// measured.
    pub fn initially_present(key: u64) -> bool {
        mix(key, 0x6c69_7665) % 5 < 3
    }

    /// The value every initially present key holds.
    pub fn initial_val(key: u64) -> u64 {
        mix(key, 0x696e_6974) >> 1
    }

    pub fn next_op(&mut self) -> (Op, Expect) {
        self.seq += 1;
        let key = self.rng.below(self.keys_per_part) * self.parts + self.part;
        match self.rng.below(10) {
            0..=4 => (Op::Get(key), Expect::Exact(self.model.get(&key).copied())),
            5..=7 => {
                let val = mix(key, self.seq) >> 1;
                (
                    Op::Put(key, val),
                    Expect::Exact(self.model.insert(key, val)),
                )
            }
            _ => (Op::Del(key), Expect::Exact(self.model.remove(&key))),
        }
    }

    pub fn model(&self) -> &HashMap<u64, u64> {
        &self.model
    }
}

/// The paper's stream (§VII-A): 95 % GET from the *latest* distribution
/// (zipfian over recency), 5 % SET inserting a brand-new key.
#[derive(Clone, Debug)]
pub struct PaperStream {
    zipf: Zipf,
    rng: Rng,
    inserted: u64,
    seq: u64,
}

impl PaperStream {
    pub fn new(seed: u64, records: u64) -> PaperStream {
        PaperStream {
            zipf: Zipf::new(records),
            rng: Rng::new(mix(seed, 0x7061_7065)),
            inserted: records,
            seq: 0,
        }
    }

    pub fn value_of(key: u64) -> u64 {
        mix(key, 0x7061_7076) >> 1
    }

    pub fn next_op(&mut self) -> (Op, Expect) {
        self.seq += 1;
        if self.rng.f64() < 0.95 {
            let rank = self.zipf.sample(&mut self.rng);
            let key = key_of(self.inserted - 1 - rank);
            (Op::Get(key), Expect::Exact(Some(Self::value_of(key))))
        } else {
            let key = key_of(self.inserted);
            self.inserted += 1;
            self.zipf.grow();
            (Op::Put(key, Self::value_of(key)), Expect::Exact(None))
        }
    }

    pub fn inserted(&self) -> u64 {
        self.inserted
    }
}
