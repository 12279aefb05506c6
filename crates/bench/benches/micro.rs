//! Micro-benchmarks of the core primitives: pointer encode/decode,
//! translations, allocator, zipfian sampling, the simulated cache and
//! machine, and the PageStore word fast paths. These track the host cost of
//! the library and of the simulator, not modelled cycles. Runs on the
//! in-workspace `utpr-qc` harness (median/p95/min per op) and emits
//! `BENCH_micro.json` per summary.

use std::hint::black_box;
use std::time::Instant;
use utpr_bench::par;
use utpr_bench::report::{BenchReport, Json};
use utpr_ds::RbTree;
use utpr_heap::pagestore::PAGE_SIZE;
use utpr_heap::{AddressSpace, FlushModel, PageStore, Region, UndoLog};
use utpr_kv::rng::Rng;
use utpr_kv::workload::{generate, WorkloadSpec, Zipfian};
use utpr_kv::KvStore;
use utpr_ptr::{C11Engine, ExecEnv, MemEvent, Mode, TimingSink, UPtr};
use utpr_qc::bench::Bench;
use utpr_qc::bench_group;
use utpr_sim::cache::Cache;
use utpr_sim::config::CacheCfg;
use utpr_sim::{Machine, RangeEntry, SimConfig};

fn bench_ptr_ops(c: &mut Bench) {
    let mut space = AddressSpace::new(3);
    let pool = space.create_pool("micro", 1 << 20).unwrap();
    let loc = space.pmalloc(pool, 64).unwrap();
    let rel = UPtr::from_rel(loc);
    c.bench_function("uptr/kind_decode", |b| {
        b.iter(|| black_box(black_box(rel).kind()));
    });
    c.bench_function("uptr/ra2va", |b| {
        b.iter(|| {
            let mut eng = C11Engine::new(&space);
            black_box(eng.ra2va(black_box(rel)).unwrap())
        });
    });
    c.bench_function("uptr/offset_arith", |b| {
        b.iter(|| black_box(black_box(rel).offset(24)));
    });
}

fn bench_allocator(c: &mut Bench) {
    c.bench_function("heap/alloc_free_cycle", |b| {
        let mut mem = PageStore::new();
        let region = Region::format(&mut mem, 1 << 20).unwrap();
        b.iter(|| {
            let p = region.alloc(&mut mem, 64).unwrap();
            region.free(&mut mem, black_box(p)).unwrap();
        });
    });
}

fn bench_persist(c: &mut Bench) {
    let adr_space = |name: &str| {
        let mut space = AddressSpace::new(5);
        let pool = space.create_pool(name, 4 << 20).unwrap();
        let loc = space.pmalloc(pool, 128).unwrap();
        (space, pool, loc)
    };
    // The undo-log protocol per transaction: begin, one entry, the data
    // store, commit — every fence under ADR.
    c.bench_function("heap/txn_update_adr", |b| {
        let (mut space, pool, word) = adr_space("micro-txn");
        let log = UndoLog::ensure(&mut space, pool, 64).unwrap();
        space.set_flush_model(FlushModel::Adr);
        let va = space.ra2va(word).unwrap();
        let mut v = 0u64;
        b.iter(|| {
            v += 1;
            log.run(&mut space, |space, txn| {
                txn.log_word(space, word)?;
                space.write_u64(va, v)
            })
            .unwrap();
        });
    });
    // The persistence plane alone: stage two lines, drain them.
    c.bench_function("heap/fence_two_lines", |b| {
        let (mut space, _, loc) = adr_space("micro-fence");
        space.set_flush_model(FlushModel::Adr);
        let va = space.ra2va(loc).unwrap();
        let mut v = 0u64;
        b.iter(|| {
            v += 1;
            space.write_u64(va, v).unwrap();
            space.write_u64(va.add(64), v).unwrap();
            space.fence();
        });
    });
}

fn bench_pagestore(c: &mut Bench) {
    // The three paths a u64 access can take: memoized same-page (fast),
    // alternating pages (memo miss, hash probe), page-straddling (slow
    // multi-page copy loop).
    let mut mem = PageStore::new();
    for page in 0..4u64 {
        mem.write_u64(page * PAGE_SIZE, page);
    }
    c.bench_function("pagestore/read_u64_same_page", |b| {
        b.iter(|| black_box(mem.read_u64(black_box(128))));
    });
    c.bench_function("pagestore/read_u64_alternating", |b| {
        let mut flip = 0u64;
        b.iter(|| {
            flip ^= PAGE_SIZE;
            black_box(mem.read_u64(black_box(flip + 128)))
        });
    });
    c.bench_function("pagestore/read_u64_straddle", |b| {
        b.iter(|| black_box(mem.read_u64(black_box(PAGE_SIZE - 4))));
    });
    c.bench_function("pagestore/write_u64_same_page", |b| {
        let mut v = 0u64;
        b.iter(|| {
            v = v.wrapping_add(1);
            mem.write_u64(black_box(256), v);
        });
    });

    // The page table at realistic size: 4 096 resident pages visited in a
    // fixed shuffled order, so the memo always misses — dense from page 0
    // (a pool) and interleaved at 64·i + 5 (one `SharedPool` stripe).
    const PAGES: u64 = 4096;
    let mut order: Vec<u64> = (0..PAGES).collect();
    let mut rng = Rng::new(21);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    for (name, stride, first) in [
        ("pagestore/read_u64_scattered", 1, 0),
        ("pagestore/read_u64_interleaved", 64, 5),
    ] {
        let offset = |i: u64| (stride * i + first) * PAGE_SIZE + 128;
        let mut mem = PageStore::new();
        for i in 0..PAGES {
            mem.write_u64(offset(i), i);
        }
        let offsets: Vec<u64> = order.iter().map(|&i| offset(i)).collect();
        c.bench_function(name, |b| {
            let mut k = 0;
            b.iter(|| {
                k = (k + 1) % offsets.len();
                black_box(mem.read_u64(black_box(offsets[k])))
            });
        });
    }
}

fn bench_workload(c: &mut Bench) {
    c.bench_function("kv/zipfian_sample", |b| {
        let z = Zipfian::new(10_000);
        let mut rng = Rng::new(1);
        b.iter(|| black_box(z.sample(&mut rng)));
    });
}

/// Records every event a run emits, for replay into a `Machine`.
struct Recorder(Vec<MemEvent>);

impl TimingSink for Recorder {
    fn event(&mut self, ev: MemEvent) {
        self.0.push(ev);
    }
}

/// The Hw-mode event stream of the first 10 000 operations of the paper's
/// RB-tree workload (after its load phase), with the pool ranges the
/// `Machine` needs to replay it.
fn record_paper_hw() -> (Vec<MemEvent>, Vec<RangeEntry>) {
    let mut space = AddressSpace::new(0xBEEF);
    let pool = space.create_pool("bench", 256 << 20).unwrap();
    let ranges = space
        .attachments()
        .iter()
        .map(|a| RangeEntry { base: a.base.raw(), size: a.size, pool: a.pool.raw() })
        .collect();
    let mut env =
        ExecEnv::builder(space).mode(Mode::Hw).pool(pool).sink(Recorder(Vec::new())).build();
    let w = generate(&WorkloadSpec { operations: 10_000, ..WorkloadSpec::paper() });
    let mut store: KvStore<RbTree> = KvStore::create(&mut env).unwrap();
    store.load(&mut env, &w).unwrap();
    env.sink_mut().0.clear();
    store.run(&mut env, &w).unwrap();
    (std::mem::take(&mut env.sink_mut().0), ranges)
}

fn bench_sim(c: &mut Bench) {
    let l1 = CacheCfg { sets: 64, ways: 8, line: 64, hit_cycles: 4 };
    // 1 024 lines through a 512-line cache: every access misses.
    c.bench_function("sim/cache_access", |b| {
        let mut cache = Cache::new(l1);
        let mut addr = 0u64;
        b.iter(|| {
            addr = addr.wrapping_add(64) & 0xffff;
            black_box(cache.access(black_box(addr)))
        });
    });
    // 256 lines, four to a set: once warm every access hits, and never the
    // line before it.
    c.bench_function("sim/cache_access_hit", |b| {
        let mut cache = Cache::new(l1);
        let mut addr = 0u64;
        b.iter(|| {
            addr = addr.wrapping_add(64) & 0x3fff;
            black_box(cache.access(black_box(addr)))
        });
    });
    // The simulator as the paper's figures drive it: ns per event.
    let (events, ranges) = record_paper_hw();
    let mut machine = Machine::new(SimConfig::table_iv());
    machine.set_pool_ranges(ranges);
    for &ev in &events {
        machine.event(ev);
    }
    let mut k = 0;
    c.bench_function("sim/machine_replay_hw", |b| {
        b.iter(|| {
            k += 1;
            if k == events.len() {
                k = 0;
            }
            machine.event(black_box(events[k]));
        });
    });
    black_box(machine.cycles());
}

bench_group!(
    benches,
    bench_ptr_ops,
    bench_allocator,
    bench_persist,
    bench_pagestore,
    bench_workload,
    bench_sim
);

fn main() {
    let t0 = Instant::now();
    let mut c = Bench::new();
    benches(&mut c);
    let mut rep = BenchReport::new("micro", par::jobs(), t0.elapsed());
    for s in c.summaries() {
        rep.push_record(Json::obj(vec![
            ("name", Json::Str(s.name.clone())),
            ("median_ns", Json::F64(s.median_ns)),
            ("p95_ns", Json::F64(s.p95_ns)),
            ("min_ns", Json::F64(s.min_ns)),
            ("iters_per_sample", Json::U64(s.iters_per_sample)),
            ("samples", Json::U64(s.samples as u64)),
        ]));
    }
    c.report();
    rep.write();
}
