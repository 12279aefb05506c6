//! Multi-pool scenarios: programs that juggle many pools at once — the
//! regime where the POLB's capacity actually matters (a single-pool program
//! always hits) and where cross-pool pointer rules apply.

use utpr_heap::AddressSpace;
use utpr_ptr::{site, ExecEnv, Mode, Placement, UPtr};
use utpr_sim::{Machine, RangeEntry, SimConfig};

fn build_env(pools: usize, sim: SimConfig) -> (ExecEnv<Machine>, Vec<utpr_heap::PoolId>) {
    let mut space = AddressSpace::new(0x9001);
    let ids: Vec<_> = (0..pools)
        .map(|i| space.create_pool(&format!("shard-{i}"), 4 << 20).unwrap())
        .collect();
    let ranges: Vec<RangeEntry> = space
        .attachments()
        .iter()
        .map(|a| RangeEntry { base: a.base.raw(), size: a.size, pool: a.pool.raw() })
        .collect();
    let mut machine = Machine::new(sim);
    machine.set_pool_ranges(ranges);
    let env = ExecEnv::builder(space).mode(Mode::Hw).pool(ids[0]).sink(machine).build();
    (env, ids)
}

#[test]
fn cross_pool_pointers_resolve_and_stay_relative() {
    let (mut env, ids) = build_env(4, SimConfig::table_iv());
    // An object in pool 0 pointing at objects in pools 1..3.
    let hub = env.alloc_in(site!("mp.hub", AllocResult), Placement::Pool(ids[0]), 64).unwrap();
    let mut spokes = Vec::new();
    for (i, id) in ids.iter().enumerate().skip(1) {
        let s = env.alloc_in(site!("mp.spoke", AllocResult), Placement::Pool(*id), 32).unwrap();
        env.write_u64(site!("mp.tag", AllocResult), s, 0, 1000 + i as u64).unwrap();
        env.write_ptr(site!("mp.link", MemLoad), hub, (i as i64) * 8, s).unwrap();
        spokes.push(s);
    }
    // Stored cross-pool pointers are relative and carry the right pool ids.
    for (i, _) in ids.iter().enumerate().skip(1) {
        let raw = env.peek_raw(hub, (i as i64) * 8).unwrap();
        assert_eq!(raw >> 63, 1, "cross-pool pointer not relative");
        let p = UPtr::from_raw(raw);
        assert_eq!(p.as_rel().unwrap().pool, ids[i]);
        let q = env.read_ptr(site!("mp.load", MemLoad), hub, (i as i64) * 8).unwrap();
        assert_eq!(env.read_u64(site!("mp.rd", MemLoad), q, 0).unwrap(), 1000 + i as u64);
    }
}

#[test]
fn cross_pool_graph_survives_restart_with_independent_relocation() {
    let (mut env, ids) = build_env(3, SimConfig::table_iv());
    let hub = env.alloc_in(site!("mp.hub2", AllocResult), Placement::Pool(ids[0]), 32).unwrap();
    let far = env.alloc_in(site!("mp.far", AllocResult), Placement::Pool(ids[2]), 32).unwrap();
    env.write_u64(site!("mp.val", AllocResult), far, 0, 777).unwrap();
    env.write_ptr(site!("mp.link2", MemLoad), hub, 0, far).unwrap();
    env.set_root(site!("mp.save", StackLocal), hub).unwrap();

    env.space_mut().restart();
    // Pools reopened in a different order — each gets an unrelated base.
    env.space_mut().open_pool("shard-2").unwrap();
    env.space_mut().open_pool("shard-0").unwrap();
    env.space_mut().open_pool("shard-1").unwrap();
    let hub = env.root(site!("mp.load-root", KnownReturn)).unwrap();
    let far = env.read_ptr(site!("mp.follow", MemLoad), hub, 0).unwrap();
    assert_eq!(env.read_u64(site!("mp.rd2", MemLoad), far, 0).unwrap(), 777);
}

#[test]
fn polb_capacity_matters_with_many_pools() {
    // 64 short chains, one per pool, walked round-robin so nearly every
    // burst switches pools: a 4-entry POLB walks the POW constantly, a
    // 128-entry POLB holds every pool.
    let run = |polb_entries: usize| -> (f64, f64) {
        let mut cfg = SimConfig::table_iv();
        cfg.polb.entries = polb_entries;
        let (mut env, ids) = build_env(64, cfg);
        let mut trees = Vec::new();
        for id in &ids {
            // Build each shard's tree in its own pool.
            let mut space_tree = {
                // IndexCore::create uses the default placement; emulate per-pool
                // placement by allocating the descriptor and nodes there via
                // a temporary default. Simplest: descriptor in pool 0 is
                // fine for timing purposes, but nodes must spread — so use
                // alloc_in for a tiny manual chain instead of RbTree.
                let head = env
                    .alloc_in(site!("mp.chain", AllocResult), Placement::Pool(*id), 32)
                    .unwrap();
                let mut prev = head;
                for v in 0..2u64 {
                    let n = env
                        .alloc_in(site!("mp.chain.n", AllocResult), Placement::Pool(*id), 32)
                        .unwrap();
                    env.write_u64(site!("mp.chain.v", AllocResult), n, 0, v).unwrap();
                    env.write_ptr(site!("mp.chain.link", MemLoad), prev, 8, n).unwrap();
                    prev = n;
                }
                head
            };
            let _ = &mut space_tree;
            trees.push(space_tree);
        }
        env.sink_mut().reset_measurement();
        // Round-robin walks: every hop switches pools.
        let mut sum = 0u64;
        for round in 0..20 {
            for head in &trees {
                let mut p = env.read_ptr(site!("mp.walk.head", MemLoad), *head, 8).unwrap();
                while !env.ptr_is_null(site!("mp.walk.null", StackLocal), p) {
                    sum = sum
                        .wrapping_add(env.read_u64(site!("mp.walk.v", MemLoad), p, 0).unwrap());
                    p = env.read_ptr(site!("mp.walk.next", MemLoad), p, 8).unwrap();
                }
            }
            std::hint::black_box(round);
        }
        std::hint::black_box(sum);
        let stats = env.sink().stats();
        let miss_rate = stats.polb_misses as f64 / stats.polb_accesses.max(1) as f64;
        (env.sink().cycles(), miss_rate)
    };
    let (cycles_small, miss_small) = run(4);
    let (cycles_big, miss_big) = run(128);
    // Round-robin over 64 pools: with 4 entries every pool switch misses
    // (one POW walk per short same-pool burst); with 128 entries everything
    // hits after the first round.
    assert!(miss_small > 0.15, "4-entry POLB should miss each switch: {miss_small}");
    assert!(miss_big < 0.01, "128-entry POLB should hold all pools: {miss_big}");
    assert!(
        cycles_small > cycles_big * 1.03,
        "thrashing must cost time: {cycles_small} vs {cycles_big}"
    );
}
