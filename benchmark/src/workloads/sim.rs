//! `sim_paper`: the paper's own experiment — `KvStore<RbTree>` under the
//! `Machine` timing sink, 10 000 records, 95 % latest-GET / 5 % insert —
//! in all four build modes. The full six-structure Fig. 11 suite takes
//! 42 s single-job, so the RB tree stands in; the fig11 baseline still
//! gates all six.
//!
//! Host time here is simulator speed (simulated KV ops per host second);
//! the modelled cycles are exact and repeat bit-for-bit at a fixed seed.

use std::time::Instant;

use utpr_ds::RbTree;
use utpr_heap::{AddressSpace, HeapError};
use utpr_kv::KvStore;
use utpr_ptr::{ExecEnv, Mode, NullSink, PtrStats, TimingSink};
use utpr_sim::{Machine, RangeEntry, SimConfig, SimStats};

use super::{finish, measure, timed, EXACT_WINDOWS, SPAN_SAMPLE};
use crate::estimator::{undisturbed, Fold, Latencies, Window};
use crate::report::Outcome;
use crate::stream::{key_of, mix, Expect, Op, PaperStream};
use crate::trace::Tracer;
use crate::RunArgs;

pub const RECORDS: u64 = 10_000;
/// Ops per mode per window; a window runs them in all four modes (about
/// 45 ms).
pub const WINDOW: usize = 2_500;
/// Ops per mode between rebuilds of the four stores: the paper's run
/// length. Every insert grows the tree, so a run of whatever length is a
/// sequence of the paper's experiment, not one experiment of whatever size.
pub const EPOCH_OPS: usize = 100_000;
// The exact metrics are cut from the first epoch.
const _: () =
    assert!((EXACT_WINDOWS + 1) * WINDOW <= EPOCH_OPS && EPOCH_OPS.is_multiple_of(WINDOW));
/// Ops the sink-cost probe runs with and without the `Machine`.
const PROBE_OPS: usize = 50_000;
const POOL_BYTES: u64 = 256 << 20;

type Stamped = (Op, Expect);

/// One mode's store, as `utpr_kv::harness` assembles it.
struct ModeStore<S: TimingSink> {
    mode: Mode,
    env: ExecEnv<S>,
    store: KvStore<RbTree>,
    /// Sum of every value a GET returned: the cross-mode soundness fold.
    checksum: u64,
}

fn space_and_ranges() -> Result<(AddressSpace, utpr_heap::PoolId, Vec<RangeEntry>), HeapError> {
    let mut space = AddressSpace::new(0xbeef);
    let pool = space.create_pool("bench", POOL_BYTES)?;
    let ranges = space
        .attachments()
        .iter()
        .map(|a| RangeEntry {
            base: a.base.raw(),
            size: a.size,
            pool: a.pool.raw(),
        })
        .collect();
    Ok((space, pool, ranges))
}

impl<S: TimingSink> ModeStore<S> {
    fn load(mode: Mode, mut env: ExecEnv<S>) -> Result<ModeStore<S>, HeapError> {
        let mut store: KvStore<RbTree> = KvStore::create(&mut env)?;
        for key in (0..RECORDS).map(key_of) {
            store.set(&mut env, key, PaperStream::value_of(key))?;
        }
        Ok(ModeStore {
            mode,
            env,
            store,
            checksum: 0,
        })
    }

    /// One op with the per-operation client work `KvStore::run` charges.
    #[inline]
    fn apply(&mut self, op: Op) -> Result<Option<u64>, HeapError> {
        self.env.frame_traffic(8, 4, 24);
        match op {
            Op::Get(k) => {
                let got = self.store.get(&mut self.env, k)?;
                self.checksum = self.checksum.wrapping_add(got.unwrap_or(0));
                Ok(got)
            }
            Op::Put(k, v) => self.store.set(&mut self.env, k, v),
            Op::Del(k) => self.store.remove(&mut self.env, k),
        }
    }

    /// Runs `ops`, timing each and checking each answer.
    fn run(
        &mut self,
        ops: &[Stamped],
        lat: &mut Latencies,
        o: &mut Outcome,
        tracer: &mut Tracer,
        span: Option<u32>,
    ) {
        let mut prev = Instant::now();
        for (n, (op, expect)) in ops.iter().enumerate() {
            let got = self.apply(*op);
            let now = Instant::now();
            o.check(matches!(got, Ok(v) if expect.matches(v)));
            lat.push((now - prev).as_nanos() as u64);
            if n % SPAN_SAMPLE == 0 {
                tracer.record("sim.machine.kv_op", prev, now, span);
            }
            prev = now;
        }
    }
}

fn build_machine(mode: Mode) -> Result<ModeStore<Machine>, HeapError> {
    let (space, pool, ranges) = space_and_ranges()?;
    let mut machine = Machine::new(SimConfig::table_iv());
    machine.set_pool_ranges(ranges);
    let env = ExecEnv::builder(space)
        .mode(mode)
        .pool(pool)
        .sink(machine)
        .build();
    let mut s = ModeStore::load(mode, env)?;
    // Warm-up done: measure only the operation stream, with warm caches.
    s.env.sink_mut().reset_measurement();
    s.env.reset_stats();
    Ok(s)
}

/// The modelled counters of one mode.
#[derive(Clone, Copy)]
struct Modelled {
    sim: SimStats,
    ptr: PtrStats,
}

/// The cross-mode gate at the end of an epoch: a build variant must never
/// change an answer, and every store must hold what the stream inserted.
fn audit(stores: &mut [ModeStore<Machine>], stream: &PaperStream, o: &mut Outcome) {
    if stores.iter().any(|s| s.checksum != stores[0].checksum) {
        let sums: Vec<String> = stores
            .iter()
            .map(|s| format!("{}={:#x}", s.mode.label(), s.checksum))
            .collect();
        o.violation(format!("mode checksums diverge: {}", sums.join(", ")));
    }
    for s in stores {
        match s.store.len(&mut s.env) {
            Ok(n) if n == stream.inserted() => {}
            other => o.violation(format!(
                "{}: store holds {other:?} keys, stream inserted {}",
                s.mode.label(),
                stream.inserted()
            )),
        }
    }
}

pub fn run(args: &RunArgs, tracer: &mut Tracer) -> Outcome {
    let mut o = Outcome::default();
    let build = || Mode::ALL.map(|m| build_machine(m).expect("sim set-up"));
    let (stores, setup_s) = timed(build);
    let mut stores = Vec::from(stores);
    let mut epoch = 0;
    let mut stream = PaperStream::new(mix(args.seed, epoch), RECORDS);
    let mut in_epoch = 0;
    let mut ops: Vec<Stamped> = Vec::with_capacity(WINDOW);
    let mut prefix: Option<[Modelled; 4]> = None;

    let mut lat = Latencies::with_capacity(4 * WINDOW);
    let phase = measure(args, Fold::Undisturbed, tracer, |i, tracer| {
        if in_epoch == EPOCH_OPS {
            audit(&mut stores, &stream, &mut o);
            stores.clear();
            stores.extend(build());
            epoch += 1;
            stream = PaperStream::new(mix(args.seed, epoch), RECORDS);
            in_epoch = 0;
        }
        ops.clear();
        ops.extend((0..WINDOW).map(|_| stream.next_op()));
        in_epoch += WINDOW;
        lat.clear();
        let span = tracer.open("sim.window", None);
        let t0 = Instant::now();
        for s in &mut stores {
            s.run(&ops, &mut lat, &mut o, tracer, span);
        }
        let secs = t0.elapsed().as_secs_f64();
        tracer.close(span);
        if i == EXACT_WINDOWS {
            prefix = Some([0, 1, 2, 3].map(|m| Modelled {
                sim: stores[m].env.sink().stats(),
                ptr: stores[m].env.stats(),
            }));
        }
        Window::fold(4 * WINDOW as u64, secs, &mut lat)
    });
    audit(&mut stores, &stream, &mut o);

    drop(stores);
    if args.trace {
        let prefix = prefix.expect("the prefix windows always run");
        let per_op = |x: f64| x / ((EXACT_WINDOWS + 1) * WINDOW) as f64;
        let of = |mode: Mode| prefix[Mode::ALL.iter().position(|m| *m == mode).expect("mode")];
        for mode in Mode::ALL {
            o.set(
                &format!("sim.cycles_per_op.{}", mode.label()),
                per_op(of(mode).sim.cycles),
            );
        }
        let volatile = of(Mode::Volatile).sim.cycles;
        o.set("sim.model_overhead_hw", of(Mode::Hw).sim.cycles / volatile);
        o.set("sim.model_overhead_sw", of(Mode::Sw).sim.cycles / volatile);
        let hw = of(Mode::Hw).sim;
        o.set("sim.l1_miss_per_op", per_op(hw.l1_misses as f64));
        o.set("sim.polb_miss_per_op", per_op(hw.polb_misses as f64));
        o.set("sim.valb_miss_per_op", per_op(hw.valb_misses as f64));
        o.set(
            "uptr.env.dynamic_checks_per_op.sw",
            per_op(of(Mode::Sw).ptr.dynamic_checks as f64),
        );
        let cost = sink_cost(args.seed, &mut o, tracer);
        o.set("sim.machine.host_ns_per_kv_op", cost);
    }
    finish(&mut o, args, &phase, setup_s, |_| build());
    o
}

/// What the `Machine` sink costs the host per KV op: the same Hw-mode ops
/// with the sink, minus the same ops with the `NullSink`, the two taking
/// turns chunk by chunk so that both meet the same host.
fn sink_cost(seed: u64, o: &mut Outcome, tracer: &mut Tracer) -> f64 {
    let span = tracer.open("sim.machine", None);
    let mut stream = PaperStream::new(seed, RECORDS);
    let ops: Vec<Stamped> = (0..PROBE_OPS).map(|_| stream.next_op()).collect();
    let mut with = build_machine(Mode::Hw).expect("sim probe set-up");
    let (space, pool, _) = space_and_ranges().expect("sim probe set-up");
    let env: ExecEnv<NullSink> = ExecEnv::builder(space).mode(Mode::Hw).pool(pool).build();
    let mut without = ModeStore::load(Mode::Hw, env).expect("sim probe set-up");
    let mut lat = Latencies::with_capacity(2 * ops.len());
    let (mut ns_with, mut ns_without) = (Vec::new(), Vec::new());
    for chunk in ops.chunks(WINDOW) {
        let t0 = Instant::now();
        with.run(chunk, &mut lat, o, tracer, span);
        let t1 = Instant::now();
        without.run(chunk, &mut lat, o, tracer, span);
        let t2 = Instant::now();
        ns_with.push((t1 - t0).as_nanos() as f64 / chunk.len() as f64);
        ns_without.push((t2 - t1).as_nanos() as f64 / chunk.len() as f64);
    }
    if with.checksum != without.checksum {
        o.violation("sink probe: Machine and NullSink runs returned different values".into());
    }
    tracer.close(span);
    undisturbed(&ns_with, true) - undisturbed(&ns_without, true)
}
