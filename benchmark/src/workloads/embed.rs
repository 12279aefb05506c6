//! `embed_read` and `embed_txn_write`: the in-process `KvStore<RbTree>`
//! in `Mode::Hw` with the `NullSink` on an owned ADR pool — `kv → ds →
//! uptr → heap.space → heap.pagestore` with no socket in front — plus the
//! ladder that prices each of those layers from outside.

use std::hint::black_box;
use std::time::Instant;

use utpr_ds::{IndexCore, IndexOps, RbTree};
use utpr_heap::{AddressSpace, FlushModel, HeapError, PageStore, PoolId, VirtAddr};
use utpr_kv::KvStore;
use utpr_ptr::{site, ExecEnv, Mode, NullSink, UPtr};

use super::{finish, measure, timed, EXACT_WINDOWS, SPAN_SAMPLE};
use crate::estimator::{probe_ns, undisturbed, Fold, Latencies, Window};
use crate::report::Outcome;
use crate::stream::{key_of, preload_val, Expect, MixA, Op};
use crate::trace::Tracer;
use crate::RunArgs;

pub const RECORDS: u64 = 100_000;
/// GETs per window of `embed_read` (about 16 ms).
pub const READ_WINDOW: usize = 25_000;
/// `mix-A` ops per window of `embed_txn_write` (about 30 ms).
pub const WRITE_WINDOW: usize = 20_000;
/// Windows drawn from the stream at a time: the generator's own model is
/// a word per record, so it runs between batches of windows, not between
/// windows — and not between many, or the drawn ops would outweigh the
/// store in `peak_rss_mb`.
const BATCH: usize = 4;
const POOL_BYTES: u64 = 256 << 20;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Read,
    TxnWrite,
}

type Stamped = (Op, Expect);

/// The store under test.
pub struct Embed {
    env: ExecEnv<NullSink>,
    store: KvStore<RbTree>,
    pool: PoolId,
}

impl Embed {
    /// Creates the pool and loads `RECORDS` records, leaving them durable.
    pub fn build() -> Result<Embed, HeapError> {
        let mut space = AddressSpace::new(0x000e_3bed);
        let pool = space.create_pool("embed", POOL_BYTES)?;
        space.set_flush_model(FlushModel::Adr);
        let mut env = ExecEnv::builder(space).mode(Mode::Hw).pool(pool).build();
        let mut store: KvStore<RbTree> = KvStore::create(&mut env)?;
        for key in (0..RECORDS).map(key_of) {
            store.set(&mut env, key, preload_val(key))?;
        }
        env.space_mut().fence();
        Ok(Embed { env, store, pool })
    }

    /// One op the way the workload issues it: reads bare, writes each in
    /// their own undo-log transaction.
    #[inline]
    fn apply(&mut self, op: Op) -> Result<Option<u64>, HeapError> {
        let Embed { env, store, .. } = self;
        match op {
            Op::Get(k) => store.get(env, k),
            Op::Put(k, v) => env.with_txn(|env| store.set(env, k, v)),
            Op::Del(k) => env.with_txn(|env| store.remove(env, k)),
        }
    }
}

/// The workload's op source: `mix-A` from one issuer, or its GETs only.
struct Source {
    kind: Kind,
    mix: MixA,
}

impl Source {
    fn new(kind: Kind, seed: u64) -> Source {
        Source {
            kind,
            mix: MixA::new(seed, 0, 1, RECORDS),
        }
    }

    fn window_len(&self) -> usize {
        match self.kind {
            Kind::Read => READ_WINDOW,
            Kind::TxnWrite => WRITE_WINDOW,
        }
    }

    /// Refills `buf` with the next [`BATCH`] windows' ops.
    fn fill(&mut self, buf: &mut Vec<Stamped>) {
        buf.clear();
        buf.extend((0..BATCH * self.window_len()).map(|_| match self.kind {
            Kind::Read => self.mix.next_get(),
            Kind::TxnWrite => self.mix.next_op(),
        }));
    }
}

pub fn run(kind: Kind, args: &RunArgs, tracer: &mut Tracer) -> Outcome {
    let mut o = Outcome::default();
    let build = || Embed::build().expect("embed set-up");
    let (mut e, setup_s) = timed(build);
    let resident = e.env.space().resident_bytes();
    let mut src = Source::new(kind, args.seed);
    let len = src.window_len();
    let mut ops: Vec<Stamped> = Vec::with_capacity(BATCH * len);
    let mut at = 0;

    let base = Counts::read(&e);
    let mut prefix = None;
    let mut writes = 0u64;
    let mut lat = Latencies::with_capacity(len);
    let phase = measure(args, Fold::Undisturbed, tracer, |i, tracer| {
        if at == ops.len() {
            src.fill(&mut ops);
            at = 0;
        }
        let window = &ops[at..at + len];
        at += len;
        let w = run_window(&mut e, window, &mut lat, &mut o, tracer);
        if i <= EXACT_WINDOWS {
            writes += window.iter().filter(|(op, _)| op.is_write()).count() as u64;
        }
        if i == EXACT_WINDOWS {
            prefix = Some((
                Counts::read(&e).since(&base),
                writes,
                ((i + 1) * len) as u64,
            ));
        }
        w
    });
    // The stream's model has seen the whole batch: the store must too.
    for (op, expect) in &ops[at..] {
        let got = e.apply(*op);
        o.check(matches!(got, Ok(v) if expect.matches(v)));
    }
    verify(&mut e, &src.mix, &mut o);

    let ptr_ops_per_kv_op = args.trace.then(|| {
        let (counts, writes, prefix_ops) = prefix.expect("the prefix windows always run");
        if writes > 0 {
            o.set(
                "heap.txn.fences_per_write",
                counts.fences as f64 / writes as f64,
            );
            o.set(
                "heap.txn.lines_flushed_per_write",
                counts.lines as f64 / writes as f64,
            );
        }
        o.set(
            "heap.space.resident_bytes_per_record",
            resident as f64 / RECORDS as f64,
        );
        counts.ptr_ops as f64 / prefix_ops as f64
    });
    drop(e);
    if let Some(ptr_ops_per_kv_op) = ptr_ops_per_kv_op {
        o.set("uptr.env.ptr_ops_per_kv_op", ptr_ops_per_kv_op);
        ladder(kind, args.seed, ptr_ops_per_kv_op, &mut o, tracer);
    }
    finish(&mut o, args, &phase, setup_s, |_| build());
    o
}

/// The program's own exact counters the prefix metrics are cut from.
#[derive(Clone, Copy)]
struct Counts {
    ptr_ops: u64,
    fences: u64,
    lines: u64,
}

impl Counts {
    fn read(e: &Embed) -> Counts {
        Counts {
            ptr_ops: e.env.stats().memory_ops(),
            fences: e.env.space().fence_count(),
            lines: e.env.space().lines_flushed(),
        }
    }

    fn since(&self, base: &Counts) -> Counts {
        Counts {
            ptr_ops: self.ptr_ops - base.ptr_ops,
            fences: self.fences - base.fences,
            lines: self.lines - base.lines,
        }
    }
}

/// Runs one window: every op timed call-to-return by one clock read per
/// op (the previous op's end is this op's start), every answer checked
/// against the stream's model.
fn run_window(
    e: &mut Embed,
    ops: &[Stamped],
    lat: &mut Latencies,
    o: &mut Outcome,
    tracer: &mut Tracer,
) -> Window {
    lat.clear();
    let span = tracer.open("embed.window", None);
    let t0 = Instant::now();
    let mut prev = t0;
    for (n, (op, expect)) in ops.iter().enumerate() {
        let got = e.apply(*op);
        let now = Instant::now();
        o.check(matches!(got, Ok(v) if expect.matches(v)));
        lat.push((now - prev).as_nanos() as u64);
        if n % SPAN_SAMPLE == 0 {
            let name = if op.is_write() {
                "kv.store.write_txn"
            } else {
                "kv.store.get"
            };
            tracer.record(name, prev, now, span);
        }
        prev = now;
    }
    tracer.close(span);
    Window::fold(ops.len() as u64, (prev - t0).as_secs_f64(), lat)
}

/// The contents gate: every key the model holds reads back with its
/// value, every deleted key reads back absent, the count matches, and the
/// tree's own validator passes.
fn verify(e: &mut Embed, mix: &MixA, o: &mut Outcome) {
    let mut wrong = 0u64;
    mix.for_each_final(|k, want| {
        wrong += u64::from(e.store.get(&mut e.env, k).ok() != Some(want));
    });
    if wrong > 0 {
        o.violation(format!("{wrong} keys read back different from the model"));
    }
    match e.store.len(&mut e.env) {
        Ok(n) if n == mix.final_len() => {}
        other => o.violation(format!(
            "store holds {other:?} keys, model {}",
            mix.final_len()
        )),
    }
    match RbTree::open(e.store.index().descriptor()).validate(&mut e.env) {
        Ok(_) => {}
        Err(err) => o.violation(format!("rb validator: {err}")),
    }
}

// ---- the ladder ----------------------------------------------------------

/// Every rung runs [`PASSES`] batches of the stream (4 windows' worth of
/// ops each), in [`CHUNKS`] equal chunks per batch. The rungs take turns
/// chunk by chunk, each on memory of its own, so all of them meet
/// the same host at the same time; a rung's time is the undisturbed fold
/// of its chunks. A chunk is long enough (some milliseconds) that refilling
/// the cache after the other rungs' turns is a few percent of it, and
/// the passes spread the ladder over seconds of host time.
const CHUNKS: usize = 10;
const PASSES: usize = 6;
/// Levels of the key-derived address stream the memory rungs replay: a
/// binary trie over the hashed key, 2^17 ≥ `RECORDS` leaves. Level `l`
/// holds 2^l slots, so the top is hot and the bottom spreads — the cache
/// profile of a balanced-tree descent, which is what the rungs above do
/// with these layers.
const DEPTH: u32 = 17;
const SLOTS: u64 = 1 << (DEPTH + 1);
/// Bytes from one trie node to the next: an `RbTree` node's size, so the
/// trie packs into cache lines the way the tree's nodes do.
const STRIDE: u64 = 48;
/// Bare ADR writes between fences, so the pending-line set stays bounded
/// without a transaction around every write.
const FENCE_EVERY: u64 = 256;

/// Runs one op against a layer; returns the layer calls it made.
type LayerCall<'a> = Box<dyn FnMut(&Stamped, &mut u64) -> u64 + 'a>;

/// One rung: the layer call it times, the accumulator chain every call
/// feeds (so the compiler can neither drop nor reorder the measured calls,
/// and the guardrail can compare it), and the time per call of each chunk.
struct Rung<'a> {
    name: &'static str,
    acc: u64,
    per_chunk: Vec<f64>,
    call: LayerCall<'a>,
}

impl<'a> Rung<'a> {
    fn new(name: &'static str, call: impl FnMut(&Stamped, &mut u64) -> u64 + 'a) -> Rung<'a> {
        Rung {
            name,
            acc: 0,
            per_chunk: Vec::with_capacity(PASSES * CHUNKS),
            call: Box::new(call),
        }
    }

    fn chunk(&mut self, ops: &[Stamped], tracer: &mut Tracer, parent: Option<u32>) {
        let mut calls = 0;
        let t0 = Instant::now();
        for op in ops {
            calls += (self.call)(black_box(op), &mut self.acc);
        }
        let t1 = Instant::now();
        self.per_chunk
            .push((t1 - t0).as_nanos() as f64 / calls as f64);
        tracer.record(self.name, t0, t1, parent);
    }

    /// Nanoseconds per call in the rung's undisturbed chunks.
    fn ns(&self) -> f64 {
        undisturbed(&self.per_chunk, true)
    }
}

/// Byte offset of the trie node `key` passes at `level`.
#[inline]
fn slot_of(key: u64, level: u32) -> u64 {
    ((1u64 << level) - 1 + (key >> 1 >> (63 - level))) * STRIDE
}

/// Word-addressed memory as each of the three bottom rungs offers it.
trait WordMem {
    fn read(&mut self, off: u64) -> u64;
    fn write(&mut self, off: u64, v: u64);
}

/// What a word-memory rung does for one op: read the key's trie path top
/// down, and for a write store the op's value (0 for a delete) at the
/// leaf. Returns the accesses made.
#[inline]
fn word_op<M: WordMem>(m: &mut M, op: &Stamped, acc: &mut u64) -> u64 {
    let key = op.0.key();
    for level in 0..DEPTH {
        *acc = acc.wrapping_add(m.read(slot_of(key, level)));
    }
    match op.0 {
        Op::Get(_) => return u64::from(DEPTH),
        Op::Put(_, v) => m.write(slot_of(key, DEPTH), v),
        Op::Del(_) => m.write(slot_of(key, DEPTH), 0),
    }
    u64::from(DEPTH) + 1
}

/// Fills every slot with a value derived from its index.
fn fill<M: WordMem>(m: &mut M) {
    for i in 0..SLOTS {
        m.write(i * STRIDE, preload_val(i));
    }
}

/// The guardrail's memory: a plain `Vec`, one word per slot.
impl WordMem for Vec<u64> {
    fn read(&mut self, off: u64) -> u64 {
        self[(off / STRIDE) as usize]
    }
    fn write(&mut self, off: u64, v: u64) {
        self[(off / STRIDE) as usize] = v;
    }
}

impl WordMem for PageStore {
    #[inline]
    fn read(&mut self, off: u64) -> u64 {
        self.read_u64(off)
    }
    #[inline]
    fn write(&mut self, off: u64, v: u64) {
        self.write_u64(off, v);
    }
}

struct SpaceMem {
    space: AddressSpace,
    base: VirtAddr,
    writes: u64,
}

impl WordMem for SpaceMem {
    #[inline]
    fn read(&mut self, off: u64) -> u64 {
        self.space.read_u64(self.base.add(off)).expect("space read")
    }
    #[inline]
    fn write(&mut self, off: u64, v: u64) {
        self.space
            .write_u64(self.base.add(off), v)
            .expect("space write");
        self.writes += 1;
        if self.writes.is_multiple_of(FENCE_EVERY) {
            self.space.fence();
        }
    }
}

struct EnvMem {
    env: ExecEnv<NullSink>,
    region: UPtr,
    writes: u64,
}

impl WordMem for EnvMem {
    #[inline]
    fn read(&mut self, off: u64) -> u64 {
        self.env
            .read_u64(site!("ladder.read", Param), self.region, off as i64)
            .expect("env read")
    }
    #[inline]
    fn write(&mut self, off: u64, v: u64) {
        self.env
            .write_u64(site!("ladder.write", Param), self.region, off as i64, v)
            .expect("env write");
        self.writes += 1;
        if self.writes.is_multiple_of(FENCE_EVERY) {
            self.env.space_mut().fence();
        }
    }
}

/// A fresh ADR pool in a fresh space, as the memory rungs want it.
fn ladder_space(seed: u64, name: &str) -> (AddressSpace, PoolId) {
    let mut space = AddressSpace::new(seed);
    let pool = space.create_pool(name, POOL_BYTES).expect("ladder pool");
    space.set_flush_model(FlushModel::Adr);
    (space, pool)
}

/// One index-level op with bare (untransacted) writes, fenced every
/// [`FENCE_EVERY`]; feeds the answer into the accumulator.
#[inline]
fn bare_op(
    env: &mut ExecEnv<NullSink>,
    writes: &mut u64,
    op: &Stamped,
    acc: &mut u64,
    call: impl FnOnce(&mut ExecEnv<NullSink>, Op) -> Result<Option<u64>, HeapError>,
) -> u64 {
    let got = call(env, op.0).expect("ladder index op");
    *acc = acc.wrapping_add(got.unwrap_or(1));
    if op.0.is_write() {
        *writes += 1;
        if writes.is_multiple_of(FENCE_EVERY) {
            env.space_mut().fence();
        }
    }
    1
}

/// Raw rung times, top of the ladder last.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Rungs {
    pub pagestore: f64,
    pub space: f64,
    pub env: f64,
    pub rb: f64,
    pub kv: f64,
    /// `ExecEnv` pointer ops one KV op performs (exact, from `PtrStats`).
    pub ptr_ops_per_kv_op: f64,
}

/// Self times by subtraction: a rung minus its child, or minus child
/// count × child where one op makes many child calls.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SelfTimes {
    pub space: f64,
    pub env: f64,
    pub rb: f64,
    pub kv: f64,
}

impl Rungs {
    pub fn self_times(&self) -> SelfTimes {
        SelfTimes {
            space: self.space - self.pagestore,
            env: self.env - self.space,
            rb: self.rb - self.ptr_ops_per_kv_op * self.env,
            kv: self.kv - self.rb,
        }
    }
}

impl SelfTimes {
    /// The top rung rebuilt from the self times and the bottom rung.
    pub fn telescope(&self, pagestore: f64, ptr_ops_per_kv_op: f64) -> f64 {
        self.kv + self.rb + ptr_ops_per_kv_op * (self.env + self.space + pagestore)
    }
}

fn ladder(kind: Kind, seed: u64, ptr_ops_per_kv_op: f64, o: &mut Outcome, tracer: &mut Tracer) {
    let mut src = Source::new(kind, seed);
    let mut ops = Vec::new();
    let root = tracer.open("ladder", None);

    // Rungs 0–3: the same key-derived words through a plain `Vec` (the
    // guardrail), PageStore, AddressSpace translation, ExecEnv pointer ops.
    let mut shadow: Vec<u64> = vec![0; SLOTS as usize];
    fill(&mut shadow);
    let mut ps = PageStore::new();
    fill(&mut ps);
    let (space, pool) = ladder_space(0x001a_dde4, "ladder-space");
    let mut sm = SpaceMem {
        space,
        base: VirtAddr::new(0),
        writes: 0,
    };
    let loc = sm
        .space
        .pmalloc(pool, SLOTS * STRIDE)
        .expect("ladder region");
    sm.base = sm.space.ra2va(loc).expect("ladder base");
    fill(&mut sm);
    let (space, pool) = ladder_space(0x001a_dde5, "ladder-env");
    let mut env = ExecEnv::builder(space).mode(Mode::Hw).pool(pool).build();
    let region = env
        .alloc(site!("ladder.region", AllocResult), SLOTS * STRIDE)
        .expect("ladder region");
    let mut em = EnvMem {
        env,
        region,
        writes: 0,
    };
    fill(&mut em);

    // Rungs 4–6: the index alone, the store around it, and (for the write
    // stream) the store with every write in a transaction — each on a
    // store of its own.
    let mut rb = Embed::build().expect("ladder store");
    let mut kv = Embed::build().expect("ladder store");
    let mut txn = (kind == Kind::TxnWrite).then(|| Embed::build().expect("ladder store"));

    let mut rungs = vec![
        Rung::new("ladder.guardrail", |op, acc| word_op(&mut shadow, op, acc)),
        Rung::new("heap.pagestore", |op, acc| word_op(&mut ps, op, acc)),
        Rung::new("heap.space", |op, acc| word_op(&mut sm, op, acc)),
        Rung::new("uptr.env", |op, acc| word_op(&mut em, op, acc)),
    ];
    let (env, mut idx, mut writes) = (
        &mut rb.env,
        RbTree::open(rb.store.index().descriptor()),
        0u64,
    );
    rungs.push(Rung::new("ds.rb", move |op, acc| {
        bare_op(env, &mut writes, op, acc, |env, op| match op {
            Op::Get(k) => idx.get(env, k),
            Op::Put(k, v) => idx.insert(env, k, v),
            Op::Del(k) => idx.remove(env, k),
        })
    }));
    let (env, store, mut writes) = (&mut kv.env, &mut kv.store, 0u64);
    rungs.push(Rung::new("kv.store", move |op, acc| {
        bare_op(env, &mut writes, op, acc, |env, op| match op {
            Op::Get(k) => store.get(env, k),
            Op::Put(k, v) => store.set(env, k, v),
            Op::Del(k) => store.remove(env, k),
        })
    }));
    if let Some(e) = &mut txn {
        rungs.push(Rung::new("heap.txn", |op, acc| {
            *acc = acc.wrapping_add(e.apply(op.0).expect("ladder txn op").unwrap_or(1));
            1
        }));
    }
    // What the index rungs must fold: the answers the stream's model expects.
    let mut answers = 0u64;
    let mut writes = 0;
    for _ in 0..PASSES {
        src.fill(&mut ops);
        for chunk in ops.chunks(ops.len() / CHUNKS) {
            for rung in &mut rungs {
                rung.chunk(chunk, tracer, root);
            }
        }
        for (op, expect) in &ops {
            answers = answers.wrapping_add(match expect {
                Expect::Exact(v) => v.unwrap_or(1),
                Expect::Present => unreachable!("a sole issuer owns every key"),
            });
            writes += usize::from(op.is_write());
        }
    }
    let done: Vec<(&str, u64, f64)> = rungs.iter().map(|r| (r.name, r.acc, r.ns())).collect();
    drop(rungs);

    // Guardrails: every memory rung must fold the same words as the plain
    // Vec, every index rung the stream's answers.
    let [guard, ps, space, env, rb, kv, ..] = done.as_slice() else {
        unreachable!("six rungs always run")
    };
    let txn_ns = done.get(6).map(|d| d.2);
    let memory = [ps, space, env].map(|r| (r, guard.1));
    let index = done[4..].iter().map(|r| (r, answers));
    for ((name, got, _), want) in memory.into_iter().chain(index) {
        if *got != want {
            o.violation(format!(
                "ladder rung {name}: checksum {got:#x}, expected {want:#x}"
            ));
        }
    }

    let rungs = Rungs {
        pagestore: ps.2,
        space: space.2,
        env: env.2,
        rb: rb.2,
        kv: kv.2,
        ptr_ops_per_kv_op,
    };
    let selfs = rungs.self_times();
    o.set("heap.pagestore.ns_per_access", rungs.pagestore);
    o.set("heap.space.ns_per_access", rungs.space);
    o.set("heap.space.self_ns_per_access", selfs.space);
    o.set("uptr.env.ns_per_ptr_op", rungs.env);
    o.set("uptr.env.self_ns_per_ptr_op", selfs.env);
    o.set("ds.rb.ns_per_op", rungs.rb);
    o.set("ds.rb.self_ns_per_op", selfs.rb);
    o.set("kv.store.ns_per_op", rungs.kv);
    o.set("kv.store.self_ns_per_op", selfs.kv);

    if let (Some(e), Some(txn_ns)) = (&mut txn, txn_ns) {
        // What a transaction costs: the transacted rung minus the bare
        // one, spread over the writes (GETs are the same in both).
        let write_share = writes as f64 / (PASSES * ops.len()) as f64;
        o.set(
            "heap.txn.ns_per_write_txn",
            (txn_ns - rungs.kv) / write_share,
        );

        // The allocator under the index: pmalloc + pfree of a node-sized
        // block, each free returning the block allocated 64 calls earlier.
        let span = tracer.open("heap.alloc", root);
        let (space, pool) = (e.env.space_mut(), e.pool);
        let mut ring = std::collections::VecDeque::with_capacity(64);
        let ns = probe_ns(CHUNKS, ops.len() / CHUNKS, |_| {
            ring.push_back(space.pmalloc(pool, 48).expect("ladder pmalloc"));
            if ring.len() == 64 {
                space
                    .pfree(ring.pop_front().expect("ring is full"))
                    .expect("ladder pfree");
            }
        });
        o.set("heap.alloc.ns_per_alloc_free", ns);
        tracer.close(span);
    }
    tracer.close(root);
}
