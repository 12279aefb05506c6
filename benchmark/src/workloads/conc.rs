//! `conc_hash_mixed`: two threads on the lock-free `ConcHash` over an ADR
//! `SharedPool` under `FlushStrategy::FliT` — the only traffic through
//! `ds::concurrent` and the pool-global `flush` / `faults` mutexes every
//! staged write and successful CAS takes.
//!
//! Keys are dense in `0..KEYS`, split into `PARTS` partitions (`key %
//! PARTS`); a partition's ops run in stream order on one thread, so final
//! contents are a pure function of the seed however the threads race on
//! shared bucket heads and neighbouring links.
//!
//! The windows are folded by their median: the two threads spend most of
//! their time handing the pool-global mutexes to each other, and when the
//! host holds one of them back the other runs unopposed — whole seconds at
//! twice the usual rate. Disturbance makes this workload faster as well as
//! slower, so its better end is no nearer the truth than its middle.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Instant;

use utpr_ds::concurrent::{FlushCounters, FlushStrategy};
use utpr_ds::{ConcHash, ConcurrentIndex, Handle, IndexCore};
use utpr_heap::{AddressSpace, FlushModel, HeapError, SharedPool, SlabId};
use utpr_ptr::{site, ExecEnv, Mode};

use super::{finish, measure, timed, Phase, SPAN_SAMPLE};
use crate::estimator::{probe_ns, Fold, Latencies, Window};
use crate::report::Outcome;
use crate::stream::{Expect, Op, PartStream};
use crate::trace::Tracer;
use crate::RunArgs;

pub const KEYS: u64 = 32_768;
pub const PARTS: u64 = 8;
/// Worker threads of the workload proper (the host has two cores).
pub const THREADS: u64 = 2;
/// Ops per window, across all threads (about 0.3 s).
pub const WINDOW: usize = 8_000;
const POOL_BYTES: u64 = 256 << 20;
const SLAB_BYTES: u64 = 8 << 20;

type Stamped = (Op, Expect);

/// The shared base image: pool, one slab per worker, the index created
/// and prepopulated single-threaded, its descriptor in the pool root.
struct Base {
    sp: Arc<SharedPool>,
    slabs: Vec<SlabId>,
}

fn shard(sp: &Arc<SharedPool>, seed: u64) -> Result<ExecEnv, HeapError> {
    let mut space = AddressSpace::new(seed);
    let pool = space.adopt_shared(sp)?;
    Ok(ExecEnv::builder(space).mode(Mode::Hw).pool(pool).build())
}

impl Base {
    fn build(name: &str, threads: u64) -> Result<Base, HeapError> {
        let sp = SharedPool::create(name, POOL_BYTES, 64)?;
        sp.set_flush_model(FlushModel::Adr);
        let slabs = (0..threads)
            .map(|_| sp.carve_slab(SLAB_BYTES))
            .collect::<Result<_, _>>()?;
        let mut env = shard(&sp, 0xba5e)?;
        let idx = ConcHash::create(&mut env)?;
        let mut h = Handle::new(&mut env, FlushStrategy::Eager)?;
        for key in (0..KEYS).filter(|k| PartStream::initially_present(*k)) {
            idx.insert(&mut h, key, PartStream::initial_val(key))?;
        }
        env.set_root(site!("conc.root", StackLocal), idx.descriptor())?;
        env.space_mut().fence();
        Ok(Base { sp, slabs })
    }
}

/// What one worker hands back per window.
#[derive(Default)]
struct Slice {
    lat: Latencies,
    spans: Vec<(Instant, Instant)>,
    attempted: u64,
    failed: u64,
}

/// Window hand-off between the coordinator and the workers.
struct Ctl {
    /// Three rendezvous per window: decide (stop or go), go, end.
    barrier: Barrier,
    stop: AtomicBool,
    traced: AtomicBool,
    slices: Mutex<Vec<Slice>>,
}

/// One worker: its own shard over the shared pool, its share of the
/// partitions, one handle for the whole run. A failed op is counted and
/// the worker goes on, so it never misses a rendezvous; a failed set-up
/// panics, which ends the process.
fn worker(
    base: &Base,
    strategy: FlushStrategy,
    threads: u64,
    t: u64,
    seed: u64,
    ctl: &Ctl,
) -> (FlushCounters, Vec<PartStream>) {
    let mut env = shard(&base.sp, 0x7268 ^ t).expect("conc worker shard");
    let pool = env.pool().expect("shard has a pool");
    env.space_mut()
        .bind_arena_slab(pool, base.slabs[t as usize])
        .expect("conc worker slab");
    let idx = ConcHash::open(
        env.root(site!("conc.open", KnownReturn))
            .expect("conc root"),
    );
    let mut h = Handle::new(&mut env, strategy).expect("conc worker handle");
    let mut streams: Vec<PartStream> = (t..PARTS)
        .step_by(threads as usize)
        .map(|p| PartStream::new(seed, p, PARTS, KEYS / PARTS))
        .collect();
    let share = WINDOW / threads as usize;
    let mut ops: Vec<Stamped> = Vec::with_capacity(share);
    loop {
        ctl.barrier.wait();
        if ctl.stop.load(Ordering::SeqCst) {
            break;
        }
        // Only now is the window certain to run: the streams' models
        // advance with every op drawn.
        ops.clear();
        let n = streams.len();
        ops.extend((0..share).map(|i| streams[i % n].next_op()));
        let traced = ctl.traced.load(Ordering::SeqCst);
        let mut out = Slice {
            lat: Latencies::with_capacity(share),
            ..Slice::default()
        };
        ctl.barrier.wait();
        let mut prev = Instant::now();
        for (i, (op, expect)) in ops.iter().enumerate() {
            let got = match *op {
                Op::Get(k) => idx.get(&mut h, k),
                Op::Put(k, v) => idx.insert(&mut h, k, v),
                Op::Del(k) => idx.remove(&mut h, k),
            };
            let now = Instant::now();
            out.attempted += 1;
            out.failed += u64::from(!matches!(got, Ok(v) if expect.matches(v)));
            out.lat.push((now - prev).as_nanos() as u64);
            if traced && i % SPAN_SAMPLE == 0 {
                out.spans.push((prev, now));
            }
            prev = now;
        }
        ctl.slices.lock().expect("a worker panicked").push(out);
        ctl.barrier.wait();
    }
    (h.counters(), streams)
}

/// What a finished phase leaves behind.
struct Done {
    phase: Phase,
    counters: FlushCounters,
}

/// Runs one measured phase of `threads` workers under `strategy` on a
/// fresh base, then audits the contents against the streams' models.
fn run_phase(
    base: &Base,
    strategy: FlushStrategy,
    threads: u64,
    args: &RunArgs,
    o: &mut Outcome,
    tracer: &mut Tracer,
) -> Done {
    let ctl = Ctl {
        barrier: Barrier::new(threads as usize + 1),
        stop: AtomicBool::new(false),
        traced: AtomicBool::new(false),
        slices: Mutex::new(Vec::new()),
    };
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                let ctl = &ctl;
                s.spawn(move || worker(base, strategy, threads, t, args.seed, ctl))
            })
            .collect();
        let phase = measure(args, Fold::Median, tracer, |_, tracer| {
            ctl.traced.store(tracer.on(), Ordering::SeqCst);
            ctl.barrier.wait();
            ctl.barrier.wait();
            let t0 = Instant::now();
            ctl.barrier.wait();
            let t1 = Instant::now();
            let span = tracer.record("conc.window", t0, t1, None);
            let mut lat = Latencies::with_capacity(WINDOW);
            for mut slice in ctl.slices.lock().expect("a worker panicked").drain(..) {
                lat.append(&mut slice.lat);
                o.attempted += slice.attempted;
                o.failed += slice.failed;
                for (start, end) in slice.spans {
                    tracer.record("ds.conc.op", start, end, span);
                }
            }
            Window::fold(lat.len() as u64, (t1 - t0).as_secs_f64(), &mut lat)
        });
        ctl.stop.store(true, Ordering::SeqCst);
        ctl.barrier.wait();

        let mut counters = FlushCounters::default();
        let mut streams = Vec::new();
        for w in workers {
            let (c, mut s) = w.join().expect("conc worker panicked");
            counters.merge(&c);
            streams.append(&mut s);
        }
        if let Err(e) = audit(base, &streams, o) {
            o.violation(format!("conc audit: {e}"));
        }
        Done { phase, counters }
    })
}

/// Single-threaded audit on a fresh shard, which sees only what any
/// late-joining process would: every key of the dense space must read
/// back exactly as its partition's model holds it, and the structure's
/// own validator must count the same live keys.
fn audit(base: &Base, streams: &[PartStream], o: &mut Outcome) -> Result<(), HeapError> {
    let mut env = shard(&base.sp, 0xa0d1)?;
    let idx = ConcHash::open(env.root(site!("conc.audit", KnownReturn))?);
    let live = idx.validate(&mut env)?;
    let mut h = Handle::new(&mut env, FlushStrategy::Eager)?;
    let mut wrong = 0u64;
    let mut expected_live = 0u64;
    for s in streams {
        expected_live += s.model().len() as u64;
    }
    for key in 0..KEYS {
        let want = streams.iter().find_map(|s| s.model().get(&key)).copied();
        wrong += u64::from(idx.get(&mut h, key)? != want);
    }
    if wrong > 0 {
        o.violation(format!(
            "{wrong} keys read back different from the 1-thread model"
        ));
    }
    if live != expected_live {
        o.violation(format!(
            "validator counts {live} live keys, models hold {expected_live}"
        ));
    }
    Ok(())
}

pub fn run(args: &RunArgs, tracer: &mut Tracer) -> Outcome {
    let mut o = Outcome::default();
    let build = |rep: usize| Base::build(&format!("conc-{rep}"), THREADS).expect("conc set-up");
    let (base, setup_s) = timed(|| build(0));
    let done = run_phase(&base, FlushStrategy::FliT, THREADS, args, &mut o, tracer);
    drop(base);

    if args.trace {
        let c = done.counters;
        let per_op = |n: u64| n as f64 / c.ops.max(1) as f64;
        o.set("ds.conc.flushes_per_op", per_op(c.flushes));
        o.set("ds.conc.fences_per_op", per_op(c.fences));
        o.set("ds.conc.elided_per_op", per_op(c.elided));

        // The same streams at one thread, and under the other two flush
        // disciplines at two: short untraced phases, each on a fresh base.
        let probe = RunArgs {
            seed: args.seed,
            seconds: 1.0,
            trace: false,
        };
        let side = |name: &str, strategy, threads, o: &mut Outcome, tracer: &mut Tracer| {
            let span = tracer.open("conc.probe", None);
            let base = Base::build(name, threads).expect("conc probe set-up");
            let ops_per_s = run_phase(&base, strategy, threads, &probe, o, tracer)
                .phase
                .summary()
                .ops_per_s;
            tracer.close(span);
            ops_per_s
        };
        let t1 = side("conc-t1", FlushStrategy::FliT, 1, &mut o, tracer);
        o.set("ds.conc.ops_per_s.t1", t1);
        o.set("ds.conc.scaling_t2", done.phase.summary().ops_per_s / t1);
        let eager = side("conc-eager", FlushStrategy::Eager, THREADS, &mut o, tracer);
        o.set("ds.conc.ops_per_s.eager", eager);
        let traverse = side(
            "conc-traverse",
            FlushStrategy::Traverse,
            THREADS,
            &mut o,
            tracer,
        );
        o.set("ds.conc.ops_per_s.traverse", traverse);
        shard_probes(&mut o, tracer);
    }
    finish(&mut o, args, &done.phase, setup_s, build);
    o
}

/// Calls per `heap.shard` probe, timed in [`SHARD_CHUNKS`] chunks.
const SHARD_CALLS: u64 = 200_000;
const SHARD_CHUNKS: usize = 50;

/// `SharedPool`'s write paths, timed from outside on a pool of their own.
fn shard_probes(o: &mut Outcome, tracer: &mut Tracer) {
    let span = tracer.open("heap.shard", None);
    let sp = SharedPool::create("shard-probe", POOL_BYTES, 64).expect("probe pool");
    sp.set_flush_model(FlushModel::Adr);
    let region = sp.alloc_raw(SHARD_CALLS * 64).expect("probe region");
    let line = |i: usize| region + i as u64 * 64;
    let per_chunk = SHARD_CALLS as usize / SHARD_CHUNKS;

    // Stripe lock only.
    let raw = probe_ns(SHARD_CHUNKS, per_chunk, |i| sp.write_u64(line(i), i as u64));
    o.set("heap.shard.raw_ns_per_write", raw);

    // Stage + clwb: the flush-plane and fault-gate mutexes on top.
    let stage = |i: usize| {
        sp.write_u64_stage(line(i), i as u64)
            .expect("no fault plan is armed");
        sp.flush_line(line(i));
    };
    o.set(
        "heap.shard.stage_ns_per_write",
        probe_ns(SHARD_CHUNKS, per_chunk, stage),
    );

    // The same calls from two threads on disjoint lines: each thread makes
    // SHARD_CALLS calls, so time per call above the one-thread figure is
    // wait on the pool-global mutexes.
    let half = SHARD_CALLS as usize / 2;
    let start = Barrier::new(2);
    let t0 = std::thread::scope(|s| {
        let other = s.spawn(|| {
            start.wait();
            (0..2).for_each(|_| (half..2 * half).for_each(stage));
        });
        start.wait();
        let t0 = Instant::now();
        (0..2).for_each(|_| (0..half).for_each(stage));
        other.join().expect("probe thread panicked");
        t0
    });
    o.set(
        "heap.shard.stage_ns_per_write.t2",
        t0.elapsed().as_nanos() as f64 / SHARD_CALLS as f64,
    );

    // Successful swaps (each stages its line): every line holds the index
    // the staged writes left in it.
    let mut swapped = 0;
    let cas_ns = probe_ns(SHARD_CHUNKS, per_chunk, |i| {
        let (won, _) = sp
            .cas_u64(line(i), i as u64, i as u64 + 1)
            .expect("no fault plan is armed");
        swapped += u64::from(won);
    });
    o.set("heap.shard.cas_ns", cas_ns);
    if swapped != SHARD_CALLS {
        o.violation(format!(
            "shard probe: {swapped} of {SHARD_CALLS} swaps took"
        ));
    }

    // One barrier over everything the swaps left pending.
    let pending = sp.pending_lines() as f64;
    let t0 = Instant::now();
    sp.drain_all();
    o.set(
        "heap.shard.drain_ns_per_line",
        t0.elapsed().as_nanos() as f64 / pending.max(1.0),
    );
    tracer.close(span);
}
