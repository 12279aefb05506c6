//! The central soundness theorem of the paper, as a property test: *any*
//! program — modelled as a random sequence of allocations, field reads,
//! field writes, pointer links, comparisons, and frees over an object
//! graph — observes exactly the same values in all four builds (Volatile,
//! Explicit, SW, HW), and in the persistent builds every pointer at rest in
//! NVM is in relative format.

use utpr_qc::prelude::*;
use utpr_ds::{AvlTree, HashMapIndex, IndexOps, LinkedList, RbTree, ScapegoatTree, SplayTree};
use utpr_heap::{AddressSpace, PoolId, RelLoc};
use utpr_kv::KvStore;
use utpr_ptr::{site, CheckPolicy, ExecEnv, MemEvent, Mode, PtrKind, PtrStats, TimingSink, UPtr};

/// One abstract program step over a growing object graph.
#[derive(Clone, Copy, Debug)]
enum Step {
    /// Allocate a new object (64 bytes: 4 data words + 4 pointer slots).
    Alloc,
    /// Write `value` into data word `word` of object `obj`.
    WriteData { obj: usize, word: u8, value: u64 },
    /// Read data word `word` of object `obj` (observed).
    ReadData { obj: usize, word: u8 },
    /// Store a pointer to object `src` into pointer slot `slot` of `dst`.
    Link { dst: usize, slot: u8, src: usize },
    /// Load pointer slot `slot` of `obj` and read its target's word 0
    /// (observed; 0 when null).
    FollowLink { obj: usize, slot: u8 },
    /// Compare the pointers of objects `a` and `b` (observed).
    Compare { a: usize, b: usize },
    /// Null-check pointer slot `slot` of `obj` (observed).
    CheckNull { obj: usize, slot: u8 },
}

fn step_strategy() -> OneOf<Step> {
    one_of![
        3 => Just(Step::Alloc),
        4 => (0usize..64, 0u8..4, any::<u64>())
            .prop_map(|(obj, word, value)| Step::WriteData { obj, word, value }),
        4 => (0usize..64, 0u8..4).prop_map(|(obj, word)| Step::ReadData { obj, word }),
        3 => (0usize..64, 0u8..4, 0usize..64)
            .prop_map(|(dst, slot, src)| Step::Link { dst, slot, src }),
        4 => (0usize..64, 0u8..4).prop_map(|(obj, slot)| Step::FollowLink { obj, slot }),
        2 => (0usize..64, 0usize..64).prop_map(|(a, b)| Step::Compare { a, b }),
        2 => (0usize..64, 0u8..4).prop_map(|(obj, slot)| Step::CheckNull { obj, slot }),
    ]
}

const DATA_BASE: i64 = 0; // words 0..4
const PTR_BASE: i64 = 32; // slots 0..4

/// Executes the program in one mode and returns the observation trace.
fn execute(steps: &[Step], mode: Mode, policy: CheckPolicy) -> Vec<u64> {
    let mut space = AddressSpace::new(0x5EED ^ mode.label().len() as u64);
    let pool = space.create_pool("equiv", 8 << 20).unwrap();
    let mut env = ExecEnv::builder(space).mode(mode).pool(pool).build();
    env.set_check_policy(policy);
    let mut objects: Vec<UPtr> = Vec::new();
    let mut trace = Vec::new();

    for step in steps {
        match *step {
            Step::Alloc => {
                let p = env.alloc(site!("eq.alloc", AllocResult), 64).unwrap();
                // Zero the pointer slots so loads are well-defined.
                for s in 0..4 {
                    env.write_ptr(site!("eq.init", AllocResult), p, PTR_BASE + s * 8, UPtr::NULL)
                        .unwrap();
                }
                objects.push(p);
            }
            Step::WriteData { obj, word, value } if !objects.is_empty() => {
                let p = objects[obj % objects.len()];
                env.write_u64(site!("eq.wd", Param), p, DATA_BASE + i64::from(word) * 8, value)
                    .unwrap();
            }
            Step::ReadData { obj, word } if !objects.is_empty() => {
                let p = objects[obj % objects.len()];
                let v = env
                    .read_u64(site!("eq.rd", Param), p, DATA_BASE + i64::from(word) * 8)
                    .unwrap();
                trace.push(v);
            }
            Step::Link { dst, slot, src } if !objects.is_empty() => {
                let d = objects[dst % objects.len()];
                let s = objects[src % objects.len()];
                env.write_ptr(site!("eq.link", MemLoad), d, PTR_BASE + i64::from(slot) * 8, s)
                    .unwrap();
            }
            Step::FollowLink { obj, slot } if !objects.is_empty() => {
                let p = objects[obj % objects.len()];
                let q = env
                    .read_ptr(site!("eq.follow", MemLoad), p, PTR_BASE + i64::from(slot) * 8)
                    .unwrap();
                if env.ptr_is_null(site!("eq.follow-null", StackLocal), q) {
                    trace.push(0);
                } else {
                    let v = env.read_u64(site!("eq.follow-rd", MemLoad), q, 0).unwrap();
                    trace.push(v.wrapping_add(1));
                }
            }
            Step::Compare { a, b } if !objects.is_empty() => {
                let pa = objects[a % objects.len()];
                let pb = objects[b % objects.len()];
                let eq = env.ptr_eq(site!("eq.cmp", Param), pa, pb).unwrap();
                trace.push(u64::from(eq));
            }
            Step::CheckNull { obj, slot } if !objects.is_empty() => {
                let p = objects[obj % objects.len()];
                let q = env
                    .read_ptr(site!("eq.cn", MemLoad), p, PTR_BASE + i64::from(slot) * 8)
                    .unwrap();
                trace.push(u64::from(env.ptr_is_null(site!("eq.cn-null", StackLocal), q)));
            }
            _ => {} // op before any allocation: no-op in every mode
        }
    }

    // Stored-format invariant for the persistent builds: every non-null
    // pointer slot holds a relative (bit-63) value.
    if mode == Mode::Hw || mode == Mode::Sw {
        for p in &objects {
            for s in 0..4 {
                let raw = env.peek_raw(*p, PTR_BASE + s * 8).unwrap();
                assert!(raw == 0 || raw >> 63 == 1, "non-relative pointer at rest in NVM");
            }
        }
    }
    trace
}

props! {
    #![cases(96)]

    /// All four builds observe identical traces on arbitrary programs.
    #[test]
    fn four_builds_observe_identical_traces(steps in collection::vec(step_strategy(), 1..120)) {
        let reference = execute(&steps, Mode::Volatile, CheckPolicy::Inferred);
        for mode in [Mode::Explicit, Mode::Sw, Mode::Hw] {
            let got = execute(&steps, mode, CheckPolicy::Inferred);
            prop_assert_eq!(&got, &reference, "{} diverged", mode.label());
        }
    }

    /// The SW build's check policy never changes observable behaviour —
    /// checks are pure overhead (the paper's "just an optimization" claim
    /// about keeping or converting relative pointers).
    #[test]
    fn check_policy_is_observation_invariant(steps in collection::vec(step_strategy(), 1..80)) {
        let inferred = execute(&steps, Mode::Sw, CheckPolicy::Inferred);
        let always = execute(&steps, Mode::Sw, CheckPolicy::AlwaysCheck);
        let oracle = execute(&steps, Mode::Sw, CheckPolicy::Oracle);
        prop_assert_eq!(&always, &inferred);
        prop_assert_eq!(&oracle, &inferred);
    }
}

// ---- translation-cache equivalence under attachment churn -----------------
//
// The software lookaside (the sVALB) must be semantically invisible: a
// run with the cache enabled and one with it disabled must produce the
// same checksums, the same pointer counters, and byte-for-byte the same
// micro-architectural event stream — even while pools detach, re-attach at
// new bases, and bounce through quarantine/release between operation
// batches. Divergence here means a stale cache entry served a translation.

/// Event sink that folds every event into an FNV-1a hash, so two runs'
/// streams can be compared without storing them.
#[derive(Clone, Copy, Debug, Default)]
struct HashSink {
    hash: u64,
    events: u64,
}

impl HashSink {
    fn new() -> Self {
        HashSink { hash: 0xcbf2_9ce4_8422_2325, events: 0 }
    }

    fn mix(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.hash ^= u64::from(b);
            self.hash = self.hash.wrapping_mul(0x1000_0000_01b3);
        }
    }
}

impl TimingSink for HashSink {
    fn event(&mut self, ev: MemEvent) {
        self.events += 1;
        match ev {
            MemEvent::Exec(n) => {
                self.mix(1);
                self.mix(u64::from(n));
            }
            MemEvent::Load { va, rel_base } => {
                self.mix(2);
                self.mix(va);
                self.mix(u64::from(rel_base));
            }
            MemEvent::Store { va, rel_base } => {
                self.mix(3);
                self.mix(va);
                self.mix(u64::from(rel_base));
            }
            MemEvent::StoreP { va, rs_va2ra, rs_ra2va, rd_ra2va } => {
                self.mix(4);
                self.mix(va);
                self.mix(u64::from(rs_va2ra) | u64::from(rs_ra2va) << 1 | u64::from(rd_ra2va) << 2);
            }
            MemEvent::Branch { pc, taken } => {
                self.mix(5);
                self.mix(pc);
                self.mix(u64::from(taken));
            }
            MemEvent::PolbAccess { pool } => {
                self.mix(6);
                self.mix(u64::from(pool));
            }
            MemEvent::ValbAccess { va } => {
                self.mix(7);
                self.mix(va);
            }
            MemEvent::SwRa2Va { pool } => {
                self.mix(8);
                self.mix(u64::from(pool));
            }
            MemEvent::SwVa2Ra { va } => {
                self.mix(9);
                self.mix(va);
            }
        }
    }
}

/// The persistent-format locator of a descriptor, so a structure can be
/// re-opened after its pool re-attaches at a different base.
fn descriptor_rel(space: &AddressSpace, desc: UPtr) -> RelLoc {
    match desc.kind() {
        PtrKind::Rel(loc) => loc,
        PtrKind::Va(va) => space.va2ra_uncached(va).unwrap(),
        PtrKind::Null => panic!("null descriptor"),
    }
}

/// One round of attachment churn: quarantine/release the main pool through
/// the mutable escape hatch, bounce the scratch pool, then detach the main
/// pool and re-attach it (usually at a new base). Each step bumps the
/// translation epoch; a cache-enabled run must refill rather than serve
/// stale entries.
fn churn<S: TimingSink>(env: &mut ExecEnv<S>, main: PoolId, scratch: PoolId) {
    let space = env.space_mut();
    space.pool_store_mut().quarantine(main, 0);
    space.pool_store_mut().release(main);
    space.detach(scratch).unwrap();
    space.attach(scratch).unwrap();
    space.detach(main).unwrap();
    space.attach(main).unwrap();
}

const CHURN_BATCHES: u64 = 6;
const CHURN_OPS: u64 = 48;

fn churn_key(batch: u64, i: u64) -> u64 {
    (batch << 32) | (i.wrapping_mul(0x9e37_79b9) & 0xffff_ffff)
}

/// Runs one KV index structure under batch/churn interleaving and returns
/// everything an equivalence comparison needs.
fn run_index_churn<I: IndexOps>(mode: Mode, trans_cache: bool) -> (u64, PtrStats, u64, u64) {
    let mut space = AddressSpace::new(0xC0FF);
    let main = space.create_pool("churn-main", 16 << 20).unwrap();
    let scratch = space.create_pool("churn-scratch", 1 << 20).unwrap();
    if !trans_cache {
        space.set_translation_cache(false);
    }
    let mut env = ExecEnv::builder(space).mode(mode).pool(main).sink(HashSink::new()).build();
    let mut store: KvStore<I> = KvStore::create(&mut env).unwrap();
    let mut checksum = 0u64;
    for batch in 0..CHURN_BATCHES {
        for i in 0..CHURN_OPS {
            let k = churn_key(batch, i);
            store.set(&mut env, k, k ^ 0x5a5a).unwrap();
        }
        for i in 0..CHURN_OPS {
            // Read this batch's keys and probe the previous batch's (some
            // hits, some misses — both must translate identically).
            let k = churn_key(batch, i);
            checksum = checksum.wrapping_add(store.get(&mut env, k).unwrap().unwrap_or(0));
            let probe = churn_key(batch.wrapping_sub(1), i);
            checksum = checksum.wrapping_add(store.get(&mut env, probe).unwrap().unwrap_or(1));
        }
        let rel = descriptor_rel(env.space(), store.index().descriptor());
        churn(&mut env, main, scratch);
        store = KvStore::open(UPtr::from_rel(rel));
    }
    checksum = checksum.wrapping_add(store.len(&mut env).unwrap());
    let (_, ptr, sink) = env.into_parts();
    (checksum, ptr, sink.hash, sink.events)
}

/// Same interleaving for the linked list (not an `IndexOps`).
fn run_ll_churn(mode: Mode, trans_cache: bool) -> (u64, PtrStats, u64, u64) {
    let mut space = AddressSpace::new(0xC0FF);
    let main = space.create_pool("churn-main", 16 << 20).unwrap();
    let scratch = space.create_pool("churn-scratch", 1 << 20).unwrap();
    if !trans_cache {
        space.set_translation_cache(false);
    }
    let mut env = ExecEnv::builder(space).mode(mode).pool(main).sink(HashSink::new()).build();
    let mut list = LinkedList::create(&mut env).unwrap();
    let mut checksum = 0u64;
    for batch in 0..CHURN_BATCHES {
        for i in 0..CHURN_OPS {
            let k = churn_key(batch, i);
            list.push_back(&mut env, k, k ^ 0xa5a5).unwrap();
        }
        checksum = checksum.wrapping_add(list.iter_sum(&mut env).unwrap());
        if batch % 2 == 1 {
            checksum = checksum.wrapping_add(list.pop_front(&mut env).unwrap().unwrap().0);
        }
        let rel = descriptor_rel(env.space(), list.descriptor());
        churn(&mut env, main, scratch);
        list = LinkedList::open(UPtr::from_rel(rel));
    }
    checksum = checksum.wrapping_add(list.len(&mut env).unwrap());
    let (_, ptr, sink) = env.into_parts();
    (checksum, ptr, sink.hash, sink.events)
}

fn assert_cache_invisible(name: &str, runs: [(u64, PtrStats, u64, u64); 2]) {
    let [on, off] = runs;
    assert_eq!(on.0, off.0, "{name}: checksum diverged with translation cache on");
    assert_eq!(on.1, off.1, "{name}: PtrStats diverged with translation cache on");
    assert_eq!(
        (on.2, on.3),
        (off.2, off.3),
        "{name}: event stream diverged with translation cache on"
    );
}

#[test]
fn translation_cache_is_invisible_under_churn_all_structures_sw() {
    assert_cache_invisible(
        "LL",
        [run_ll_churn(Mode::Sw, true), run_ll_churn(Mode::Sw, false)],
    );
    assert_cache_invisible(
        "Hash",
        [
            run_index_churn::<HashMapIndex>(Mode::Sw, true),
            run_index_churn::<HashMapIndex>(Mode::Sw, false),
        ],
    );
    assert_cache_invisible(
        "RB",
        [run_index_churn::<RbTree>(Mode::Sw, true), run_index_churn::<RbTree>(Mode::Sw, false)],
    );
    assert_cache_invisible(
        "Splay",
        [
            run_index_churn::<SplayTree>(Mode::Sw, true),
            run_index_churn::<SplayTree>(Mode::Sw, false),
        ],
    );
    assert_cache_invisible(
        "AVL",
        [run_index_churn::<AvlTree>(Mode::Sw, true), run_index_churn::<AvlTree>(Mode::Sw, false)],
    );
    assert_cache_invisible(
        "SG",
        [
            run_index_churn::<ScapegoatTree>(Mode::Sw, true),
            run_index_churn::<ScapegoatTree>(Mode::Sw, false),
        ],
    );
}

#[test]
fn translation_cache_is_invisible_under_churn_hw_and_explicit() {
    for mode in [Mode::Hw, Mode::Explicit] {
        assert_cache_invisible(
            mode.label(),
            [run_index_churn::<RbTree>(mode, true), run_index_churn::<RbTree>(mode, false)],
        );
        assert_cache_invisible(
            mode.label(),
            [run_ll_churn(mode, true), run_ll_churn(mode, false)],
        );
    }
}
