//! Property-based tests of the memory substrate: the allocator against a
//! shadow model, the sparse page store against a byte map, pointer encoding
//! round-trips, and pool lifecycle sequences.

use utpr_qc::prelude::*;
use std::collections::{BTreeSet, HashMap};
use utpr_heap::pagestore::PAGE_SIZE;
use utpr_heap::{
    AddressSpace, FlushModel, HeapError, PageStore, PageVerdict, PoolId, PoolStore, Region, RelLoc,
    RetentionConfig, SharedPool, VirtAddr,
};
use utpr_ptr::UPtr;

props! {
    #![cases(64)]

    /// Random alloc/free sequences keep the allocator structurally valid,
    /// never hand out overlapping blocks, and preserve block contents.
    #[test]
    fn allocator_random_ops(ops in collection::vec((any::<u16>(), 1u64..400), 1..300)) {
        let mut mem = PageStore::new();
        let region = Region::format(&mut mem, 1 << 20).unwrap();
        let mut live: Vec<(u64, u64, u64)> = Vec::new(); // (payload, size, tag)
        let mut tag = 0u64;
        for (sel, size) in ops {
            if sel % 3 != 0 || live.is_empty() {
                if let Ok(p) = region.alloc(&mut mem, size) {
                    // No overlap with any live allocation.
                    for (q, qs, _) in &live {
                        let disjoint = p + size <= *q || q + qs <= p;
                        prop_assert!(disjoint, "overlap: [{p},{}) vs [{q},{})", p + size, q + qs);
                    }
                    tag += 1;
                    mem.write_u64(p, tag);
                    live.push((p, size, tag));
                }
            } else {
                let idx = (sel as usize) % live.len();
                let (p, _, t) = live.swap_remove(idx);
                prop_assert_eq!(mem.read_u64(p), t, "clobbered content");
                region.free(&mut mem, p).unwrap();
            }
        }
        region.validate(&mem).unwrap();
        // Free everything: the region coalesces back to one block.
        for (p, _, t) in live {
            prop_assert_eq!(mem.read_u64(p), t);
            region.free(&mut mem, p).unwrap();
        }
        prop_assert_eq!(region.validate(&mem).unwrap(), 1);
    }

    /// The sparse page store behaves exactly like a flat byte map.
    #[test]
    fn page_store_matches_byte_map(writes in collection::vec((0u64..100_000, any::<u8>()), 1..200)) {
        let mut store = PageStore::new();
        let mut model: HashMap<u64, u8> = HashMap::new();
        for (off, byte) in &writes {
            store.write(*off, &[*byte]);
            model.insert(*off, *byte);
        }
        for (off, _) in &writes {
            let mut b = [0u8; 1];
            store.read(*off, &mut b);
            prop_assert_eq!(b[0], model[off]);
        }
        // Unwritten neighbours read zero.
        let mut b = [0u8; 1];
        store.read(3_000_000, &mut b);
        prop_assert_eq!(b[0], 0);
    }

    /// The u64/u32 word fast paths (aligned or unaligned but in-page,
    /// memoized last page, page-straddling slow path) agree with the
    /// byte-wise generic path for arbitrary offsets — including offsets
    /// placed right at page boundaries so straddles actually occur.
    #[test]
    fn page_store_word_fast_paths_match_slow_path(
        ops in collection::vec((0u64..8, 0u64..200_000, any::<u64>()), 1..200)
    ) {
        const PAGE: u64 = utpr_heap::pagestore::PAGE_SIZE;
        let mut store = PageStore::new();
        let mut oracle: HashMap<u64, u8> = HashMap::new();
        for (sel, raw_off, val) in ops {
            // Bias half the offsets to hug a page boundary so the
            // straddling path is exercised every run.
            let off = if raw_off % 2 == 0 {
                (raw_off / 2) % 500_000
            } else {
                let page = (raw_off / 16) % 32 + 1;
                page * PAGE - (raw_off % 8) - 1
            };
            match sel {
                0 => {
                    // u64 write via store, byte-wise into the oracle.
                    store.write_u64(off, val);
                    for (i, b) in val.to_le_bytes().iter().enumerate() {
                        oracle.insert(off + i as u64, *b);
                    }
                }
                1 => {
                    // u32 write.
                    store.write_u32(off, val as u32);
                    for (i, b) in (val as u32).to_le_bytes().iter().enumerate() {
                        oracle.insert(off + i as u64, *b);
                    }
                }
                2 => {
                    // Generic byte-slice write: the slow-path oracle writer.
                    let bytes = val.to_le_bytes();
                    store.write(off, &bytes[..5]);
                    for (i, b) in bytes[..5].iter().enumerate() {
                        oracle.insert(off + i as u64, *b);
                    }
                }
                _ => {
                    // Reads: fast-path result must equal the byte oracle.
                    let mut expect8 = [0u8; 8];
                    for (i, e) in expect8.iter_mut().enumerate() {
                        *e = *oracle.get(&(off + i as u64)).unwrap_or(&0);
                    }
                    prop_assert_eq!(
                        store.read_u64(off),
                        u64::from_le_bytes(expect8),
                        "read_u64 at {} (in_page {})", off, off % PAGE
                    );
                    let mut expect4 = [0u8; 4];
                    expect4.copy_from_slice(&expect8[..4]);
                    prop_assert_eq!(store.read_u32(off), u32::from_le_bytes(expect4));
                    prop_assert_eq!(store.read_u8(off), expect8[0]);
                }
            }
        }
        // Final sweep: every oracle byte is visible through both the byte
        // reader and the word reader that covers it.
        for (&off, &b) in &oracle {
            let mut one = [0u8; 1];
            store.read(off, &mut one);
            prop_assert_eq!(one[0], b);
            prop_assert_eq!((store.read_u64(off) & 0xff) as u8, b);
        }
    }

    /// Pointer encodings round-trip for every (pool, offset) pair and never
    /// collide with virtual addresses.
    #[test]
    fn uptr_encoding_roundtrip(pool in 0u32..(1 << 31), offset in any::<u32>(), va in 0u64..(1u64 << 48)) {
        let loc = RelLoc::new(PoolId::new(pool), offset);
        let rel = UPtr::from_rel(loc);
        prop_assert_eq!(rel.as_rel(), Some(loc));
        prop_assert!(rel.raw() >> 63 == 1);
        let vp = UPtr::from_va(utpr_heap::VirtAddr::new(va));
        prop_assert!(vp.raw() >> 63 == 0);
        prop_assert_ne!(rel.raw(), vp.raw());
    }

    /// Any sequence of detach/attach/restart keeps pool contents readable
    /// through relative locations.
    #[test]
    fn pool_lifecycle_preserves_content(events in collection::vec(0u8..3, 1..12)) {
        let mut space = AddressSpace::new(1234);
        let pool = space.create_pool("life", 1 << 20).unwrap();
        let loc = space.pmalloc(pool, 64).unwrap();
        let va = space.ra2va(loc).unwrap();
        space.write_u64(va, 0xabcdef).unwrap();
        for e in events {
            match e {
                0 => {
                    let _ = space.detach(pool);
                }
                1 => {
                    let _ = space.attach(pool);
                }
                _ => {
                    space.restart();
                }
            }
        }
        space.open_pool("life").unwrap();
        let va2 = space.ra2va(loc).unwrap();
        prop_assert_eq!(space.read_u64(va2).unwrap(), 0xabcdef);
    }

    /// Smashing one random aligned word of a live allocator region never
    /// panics `Region::open` or `Region::salvage` — damage surfaces as a
    /// typed error (or is survived), and salvage accounting stays inside
    /// the region.
    #[test]
    fn corrupted_allocator_word_never_panics_open_or_salvage(
        allocs in collection::vec(1u64..300, 1..24),
        word in any::<u64>(),
        val in any::<u64>(),
    ) {
        const SIZE: u64 = 1 << 16;
        let mut mem = PageStore::new();
        let region = Region::format(&mut mem, SIZE).unwrap();
        for s in allocs {
            let _ = region.alloc(&mut mem, s);
        }
        mem.write_u64((word % (SIZE / 8)) * 8, val);
        // Typed error or success — a panic fails this test.
        let _ = Region::open(&mem);
        let rep = Region::salvage(&mem, SIZE);
        prop_assert!(rep.intact_bytes + rep.lost_bytes <= SIZE);
        for b in &rep.blocks {
            prop_assert!(b.payload + b.size <= SIZE, "salvaged block escapes the region");
        }
    }

    /// pmalloc never returns overlapping objects within a pool, and
    /// translated addresses stay inside the attachment.
    #[test]
    fn pmalloc_objects_disjoint(sizes in collection::vec(1u64..512, 1..64)) {
        let mut space = AddressSpace::new(77);
        let pool = space.create_pool("alloc", 4 << 20).unwrap();
        let att = space.attachment(pool).unwrap();
        let mut spans: Vec<(u32, u64)> = Vec::new();
        for size in sizes {
            let loc = space.pmalloc(pool, size).unwrap();
            for (off, sz) in &spans {
                let disjoint = loc.offset as u64 + size <= u64::from(*off)
                    || u64::from(*off) + sz <= u64::from(loc.offset);
                prop_assert!(disjoint);
            }
            let va = space.ra2va(loc).unwrap();
            prop_assert!(va.raw() >= att.base.raw());
            prop_assert!(va.raw() + size <= att.base.raw() + att.size);
            spans.push((loc.offset, size));
        }
    }
}

// ---- the page table at realistic sizes and spreads ------------------------

/// Page `i` of one of three page-number populations: dense from 0 (a
/// pool), one page in 64 (a `SharedPool` stripe), or far DRAM addresses —
/// even `i` just above 2^32, odd `i` just below `DRAM_END`.
fn sparse_page(population: u8, i: u64) -> u64 {
    const PAGE: u64 = utpr_heap::pagestore::PAGE_SIZE;
    match population {
        0 => i,
        1 => 64 * i + 5,
        _ if i % 2 == 0 => (1 << 32) / PAGE + i,
        _ => utpr_heap::addr::DRAM_END / PAGE - 1 - i,
    }
}

/// One `PageStore` op: `sel` 0–3 write 8, 4, 3 or 1 bytes of `val` at
/// `off` and return how many; anything else writes nothing.
fn page_store_write(s: &mut PageStore, sel: u8, off: u64, val: u64) -> usize {
    match sel {
        0 => s.write_u64(off, val),
        1 => s.write_u32(off, val as u32),
        2 => s.write(off, &val.to_le_bytes()[..3]),
        3 => s.write_u8(off, val as u8),
        _ => return 0,
    }
    [8, 4, 3, 1][sel as usize]
}

props! {
    #![cases(32)]

    /// The page table holds at realistic sizes and spreads: up to 4 000
    /// distinct pages are materialized first, then random reads and
    /// writes (word, byte and page-straddling) run over them and beyond.
    /// Reads match a byte map, the resident and dirty page sets equal the
    /// model's, and a clone taken mid-sequence (dirty marks cleared on
    /// both) stays equal to the original under the writes that follow.
    #[test]
    fn page_store_matches_byte_map_on_sparse_pages(
        population in 0u8..3,
        fill in 0u64..4_000,
        ops in collection::vec((0u64..4_500, 0u64..4_096, any::<u64>(), 0u8..5), 1..300),
        clone_at in 0usize..300,
    ) {
        const PAGE: u64 = utpr_heap::pagestore::PAGE_SIZE;
        let fills = (0..fill).map(|i| (i, (i * 8) % PAGE, i.wrapping_mul(0x9e37), 0u8));
        let mut store = PageStore::new();
        store.set_dirty_tracking(true);
        let mut twin: Option<PageStore> = None;
        let mut model: HashMap<u64, u8> = HashMap::new();
        let mut dirty: BTreeSet<u64> = BTreeSet::new();
        for (step, (i, in_page, val, sel)) in fills.chain(ops.iter().copied()).enumerate() {
            if step == fill as usize + clone_at {
                store.clear_dirty();
                dirty.clear();
                twin = Some(store.clone());
            }
            let off = sparse_page(population, i) * PAGE + in_page;
            if sel == 4 {
                let want = u64::from_le_bytes(std::array::from_fn(|k| {
                    model.get(&(off + k as u64)).copied().unwrap_or(0)
                }));
                prop_assert_eq!(store.read_u64(off), want, "read_u64 at {:#x}", off);
                if let Some(t) = &twin {
                    prop_assert_eq!(t.read_u64(off), want, "clone's read_u64 at {:#x}", off);
                }
                continue;
            }
            let n = page_store_write(&mut store, sel, off, val);
            if let Some(t) = twin.as_mut() {
                page_store_write(t, sel, off, val);
            }
            for (k, b) in val.to_le_bytes()[..n].iter().enumerate() {
                model.insert(off + k as u64, *b);
                dirty.insert((off + k as u64) / PAGE);
            }
        }
        let resident: BTreeSet<u64> = model.keys().map(|o| o / PAGE).collect();
        prop_assert!(resident.len() as u64 >= fill, "fill materializes {} pages", fill);
        for s in std::iter::once(&store).chain(twin.as_ref()) {
            prop_assert_eq!(s.resident_page_numbers(), resident.iter().copied().collect::<Vec<_>>());
            prop_assert_eq!(s.dirty_pages(), dirty.iter().copied().collect::<Vec<_>>());
            for (&o, &b) in &model {
                prop_assert_eq!(s.read_u8(o), b, "byte at {:#x}", o);
            }
        }
    }
}

// ---- translation-cache transparency at the AddressSpace level -------------
//
// Random op sequences — allocation, reads, writes, translations of good and
// bad addresses, detach/re-attach, quarantine probes, full restarts — must
// observe exactly the same values *and errors* whether the software
// lookasides are enabled or disabled.

/// One AddressSpace operation; indices are reduced modulo live state.
/// `StaleVaProbe` translates and reads near a VA captured before a detach,
/// restart or destroy moved its pool; `DestroyCreate` destroys an owned
/// pool, then creates one under its name (a new id); `SharedLapse` lapses
/// the adopted shared pool, then re-adopts it.
#[derive(Clone, Copy, Debug)]
enum SpaceOp {
    Pmalloc { pool: u8, size: u16 },
    Pfree { idx: u8 },
    ReadU64 { idx: u8 },
    WriteU64 { idx: u8, value: u64 },
    Va2RaProbe { idx: u8, delta: u32 },
    Ra2VaProbe { idx: u8, off_delta: u32 },
    BadPool { raw: u16, off: u32 },
    DetachAttach { pool: u8 },
    QuarantineProbe { pool: u8, idx: u8 },
    Restart,
    StaleVaProbe { idx: u8, delta: u16 },
    DestroyCreate { pool: u8 },
    SharedLapse,
}

fn space_op_strategy() -> OneOf<SpaceOp> {
    one_of![
        4 => (any::<u8>(), 8u16..256).prop_map(|(pool, size)| SpaceOp::Pmalloc { pool, size }),
        1 => any::<u8>().prop_map(|idx| SpaceOp::Pfree { idx }),
        4 => any::<u8>().prop_map(|idx| SpaceOp::ReadU64 { idx }),
        4 => (any::<u8>(), any::<u64>()).prop_map(|(idx, value)| SpaceOp::WriteU64 { idx, value }),
        3 => (any::<u8>(), 0u32..(1 << 21)).prop_map(|(idx, delta)| SpaceOp::Va2RaProbe { idx, delta }),
        3 => (any::<u8>(), 0u32..(1 << 21)).prop_map(|(idx, off_delta)| SpaceOp::Ra2VaProbe { idx, off_delta }),
        1 => (any::<u16>(), any::<u32>()).prop_map(|(raw, off)| SpaceOp::BadPool { raw, off }),
        2 => any::<u8>().prop_map(|pool| SpaceOp::DetachAttach { pool }),
        1 => (any::<u8>(), any::<u8>()).prop_map(|(pool, idx)| SpaceOp::QuarantineProbe { pool, idx }),
        1 => Just(SpaceOp::Restart),
        3 => (any::<u8>(), any::<u16>()).prop_map(|(idx, delta)| SpaceOp::StaleVaProbe { idx, delta }),
        1 => any::<u8>().prop_map(|pool| SpaceOp::DestroyCreate { pool }),
        1 => Just(SpaceOp::SharedLapse),
    ]
}

/// FNV-1a of a Debug rendering — errors carry addresses, which are
/// deterministic for a fixed layout seed and op sequence.
fn obs<T: std::fmt::Debug>(v: &T) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in format!("{v:?}").bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Translates the base and every live object of `pool`, keeping each VA
/// for later [`SpaceOp::StaleVaProbe`]s: the sVALB then holds the range
/// the lifecycle event about to run moves or removes.
fn capture(
    space: &AddressSpace,
    pool: PoolId,
    locs: &[RelLoc],
    stale: &mut Vec<VirtAddr>,
    trace: &mut Vec<u64>,
) {
    let Some(att) = space.attachment(pool) else { return };
    let objs = locs.iter().filter(|l| l.pool == pool).filter_map(|&l| space.ra2va(l).ok());
    for va in std::iter::once(att.base).chain(objs) {
        trace.push(obs(&space.va2ra(va)));
        stale.push(va);
    }
}

/// Executes the sequence and returns the observation trace.
fn run_space_ops(ops: &[SpaceOp], trans_cache: bool) -> Vec<u64> {
    const POOLS: usize = 3;
    let mut space = AddressSpace::new(0xFACE);
    space.set_translation_cache(trans_cache);
    let mut ids: Vec<PoolId> =
        (0..POOLS).map(|i| space.create_pool(&format!("p{i}"), 1 << 20).unwrap()).collect();
    // An adopted shared pool rides along as the last allocation target.
    let sp = SharedPool::create("shared", 1 << 20, 2).unwrap();
    let shared = space.adopt_shared(&sp).unwrap();
    let mut locs: Vec<RelLoc> = Vec::new();
    let mut stale: Vec<VirtAddr> = Vec::new();
    let mut trace = Vec::new();
    for op in ops {
        match *op {
            SpaceOp::Pmalloc { pool, size } => {
                let id = ids.get(pool as usize % (POOLS + 1)).copied().unwrap_or(shared);
                let r = space.pmalloc(id, u64::from(size));
                if let Ok(loc) = r {
                    locs.push(loc);
                }
                trace.push(obs(&r));
            }
            SpaceOp::Pfree { idx } if !locs.is_empty() => {
                let loc = locs.swap_remove(idx as usize % locs.len());
                trace.push(obs(&space.pfree(loc)));
            }
            SpaceOp::ReadU64 { idx } if !locs.is_empty() => {
                let loc = locs[idx as usize % locs.len()];
                let r = space.ra2va(loc).and_then(|va| space.read_u64(va));
                trace.push(obs(&r));
            }
            SpaceOp::WriteU64 { idx, value } if !locs.is_empty() => {
                let loc = locs[idx as usize % locs.len()];
                let r = space.ra2va(loc).and_then(|va| space.write_u64(va, value));
                trace.push(obs(&r));
            }
            SpaceOp::Va2RaProbe { idx, delta } if !locs.is_empty() => {
                let loc = locs[idx as usize % locs.len()];
                // Probe around a live object: in-pool, out-of-pool, and
                // not-in-any-pool addresses all arise.
                if let Ok(va) = space.ra2va(loc) {
                    trace.push(obs(&space.va2ra(va.add(u64::from(delta)))));
                }
            }
            SpaceOp::Ra2VaProbe { idx, off_delta } if !locs.is_empty() => {
                let loc = locs[idx as usize % locs.len()];
                trace.push(obs(&space.ra2va(loc.add(off_delta))));
            }
            SpaceOp::BadPool { raw, off } => {
                let loc = RelLoc::new(PoolId::new(u32::from(raw) + 7), off);
                trace.push(obs(&space.ra2va(loc)));
            }
            SpaceOp::DetachAttach { pool } => {
                let id = ids[pool as usize % POOLS];
                capture(&space, id, &locs, &mut stale, &mut trace);
                trace.push(obs(&space.detach(id)));
                trace.push(obs(&space.attach(id)));
            }
            SpaceOp::QuarantineProbe { pool, idx } if !locs.is_empty() => {
                let id = ids[pool as usize % POOLS];
                let loc = locs[idx as usize % locs.len()];
                space.pool_store_mut().quarantine(id, 0);
                // Reads through a quarantined pool fault identically with
                // the cache on or off (translation is not the gate).
                let r = space.ra2va(loc).and_then(|va| space.read_u64(va));
                trace.push(obs(&r));
                space.pool_store_mut().release(id);
            }
            SpaceOp::Restart => {
                for &id in ids.iter().chain([&shared]) {
                    capture(&space, id, &locs, &mut stale, &mut trace);
                }
                space.restart();
                for id in &ids {
                    trace.push(obs(&space.attach(*id)));
                }
                trace.push(obs(&space.adopt_shared(&sp)));
            }
            SpaceOp::StaleVaProbe { idx, delta } if !stale.is_empty() => {
                let va = stale[idx as usize % stale.len()].add(u64::from(delta));
                trace.push(obs(&space.va2ra(va)));
                trace.push(obs(&space.read_u64(va)));
            }
            SpaceOp::DestroyCreate { pool } => {
                let i = pool as usize % POOLS;
                capture(&space, ids[i], &locs, &mut stale, &mut trace);
                trace.push(obs(&space.destroy_pool(ids[i])));
                let r = space.create_pool(&format!("p{i}"), 1 << 20);
                trace.push(obs(&r));
                ids[i] = r.unwrap();
            }
            SpaceOp::SharedLapse => {
                capture(&space, shared, &locs, &mut stale, &mut trace);
                trace.push(obs(&space.detach(shared)));
                trace.push(obs(&space.adopt_shared(&sp)));
            }
            _ => {}
        }
    }
    trace
}

props! {
    #![cases(96)]

    /// The lookasides never change what any operation returns — values and
    /// errors — under arbitrary churn.
    #[test]
    fn translation_caches_are_transparent(ops in collection::vec(space_op_strategy(), 1..80)) {
        let cached = run_space_ops(&ops, true);
        let plain = run_space_ops(&ops, false);
        prop_assert_eq!(&cached, &plain);
    }
}

// ---- twin-space equivalence of the sharded heap ---------------------------
//
// The multicore tentpole's correctness oracle: the same seeded interleaving
// of per-thread op scripts, executed once over N spaces sharing one
// `SharedPool` (per-thread arenas, slab-bound leases) and once over a plain
// single-threaded `AddressSpace`, must observe identical values and
// identical error identities. Offsets and virtual addresses legitimately
// differ between the two substrates (different allocators, different
// bases), so observations are handle-indexed: reads compare the *values*
// stored through each handle, and errors compare by variant
// (`std::mem::discriminant`), which is exactly the part of an error that is
// independent of layout.
//
// Both substrates stage on the same persistence plane, so under ADR they
// must also agree on the number of pending lines after every step and on
// the total lines made durable. Line *sharing* is layout-dependent (two
// small neighbours may or may not straddle one 64-byte line), so the ADR
// run allocates at least a line per object: every handle's stamped word
// then owns its line on either allocator.

/// One per-thread heap operation; indices are reduced modulo live handles.
#[derive(Clone, Copy, Debug)]
enum TwinOp {
    Alloc { size: u16 },
    Write { idx: u8, value: u64 },
    /// The same store through the byte-range path (`AddressSpace::write`),
    /// which must gate and stage exactly like the word path.
    WriteBytes { idx: u8, value: u64 },
    Read { idx: u8 },
    /// The same load through the byte-range path (`AddressSpace::read`).
    ReadBytes { idx: u8 },
    Free { idx: u8 },
    /// Free of an odd (hence never-allocated) offset: `BadFree` on both
    /// substrates regardless of layout.
    BadFree { off: u32 },
    /// Translation far past the end of the pool.
    OobTranslate,
}

fn twin_op_strategy() -> OneOf<TwinOp> {
    one_of![
        4 => (8u16..384).prop_map(|size| TwinOp::Alloc { size }),
        3 => (any::<u8>(), any::<u64>()).prop_map(|(idx, value)| TwinOp::Write { idx, value }),
        1 => (any::<u8>(), any::<u64>()).prop_map(|(idx, value)| TwinOp::WriteBytes { idx, value }),
        4 => any::<u8>().prop_map(|idx| TwinOp::Read { idx }),
        1 => any::<u8>().prop_map(|idx| TwinOp::ReadBytes { idx }),
        2 => any::<u8>().prop_map(|idx| TwinOp::Free { idx }),
        1 => any::<u32>().prop_map(|off| TwinOp::BadFree { off }),
        1 => Just(TwinOp::OobTranslate),
    ]
}

type TwinTrace = Vec<Result<u64, std::mem::Discriminant<HeapError>>>;

/// What one twin run observed: the per-step values/errors, the pending
/// line count after each step, and the lines made durable in total.
#[derive(Debug, PartialEq)]
struct TwinRun {
    trace: TwinTrace,
    pending: Vec<usize>,
    durable: u64,
}

/// Smallest allocation of a twin run under `model` (see the section note).
fn twin_min_alloc(model: FlushModel) -> u64 {
    match model {
        FlushModel::Eadr => 0,
        FlushModel::Adr => 64,
    }
}

/// Executes one step of a logical thread's script against `space`,
/// appending a layout-independent observation to `trace`.
fn twin_step(
    op: TwinOp,
    pool: PoolId,
    space: &mut AddressSpace,
    locs: &mut Vec<RelLoc>,
    min_alloc: u64,
    trace: &mut TwinTrace,
) {
    use std::mem::discriminant;
    let entry = match op {
        TwinOp::Alloc { size } => match space.pmalloc(pool, u64::from(size).max(min_alloc)) {
            Ok(loc) => {
                // Stamp the payload immediately: a fresh block may hold
                // stale free-list words, which *are* layout-dependent.
                let stamp = ((locs.len() as u64) << 32) | u64::from(size);
                let va = space.ra2va(loc).unwrap();
                space.write_u64(va, stamp).unwrap();
                locs.push(loc);
                Ok(stamp)
            }
            Err(e) => Err(discriminant(&e)),
        },
        TwinOp::Write { idx, value } if !locs.is_empty() => {
            let loc = locs[idx as usize % locs.len()];
            space
                .ra2va(loc)
                .and_then(|va| space.write_u64(va, value))
                .map(|()| value)
                .map_err(|e| discriminant(&e))
        }
        TwinOp::WriteBytes { idx, value } if !locs.is_empty() => {
            let loc = locs[idx as usize % locs.len()];
            space
                .ra2va(loc)
                .and_then(|va| space.write(va, &value.to_le_bytes()))
                .map(|()| value)
                .map_err(|e| discriminant(&e))
        }
        TwinOp::Read { idx } if !locs.is_empty() => {
            let loc = locs[idx as usize % locs.len()];
            space.ra2va(loc).and_then(|va| space.read_u64(va)).map_err(|e| discriminant(&e))
        }
        TwinOp::ReadBytes { idx } if !locs.is_empty() => {
            let loc = locs[idx as usize % locs.len()];
            let mut bytes = [0u8; 8];
            space
                .ra2va(loc)
                .and_then(|va| space.read(va, &mut bytes))
                .map(|()| u64::from_le_bytes(bytes))
                .map_err(|e| discriminant(&e))
        }
        TwinOp::Free { idx } if !locs.is_empty() => {
            let loc = locs.swap_remove(idx as usize % locs.len());
            space.pfree(loc).map(|()| 1).map_err(|e| discriminant(&e))
        }
        TwinOp::BadFree { off } => {
            space.pfree(RelLoc::new(pool, off | 1)).map(|()| 2).map_err(|e| discriminant(&e))
        }
        TwinOp::OobTranslate => {
            space.ra2va(RelLoc::new(pool, u32::MAX)).map(|_| 3).map_err(|e| discriminant(&e))
        }
        // Handle-indexed op with no live handles: observe a fixed token so
        // both substrates stay in lockstep.
        _ => Ok(0),
    };
    trace.push(entry);
}

/// The seeded interleaving through N spaces over one `SharedPool`, each
/// logical thread with its own slab-bound arena.
fn run_twin_sharded(scripts: &[Vec<TwinOp>], order: &[u32], model: FlushModel) -> TwinRun {
    let threads = scripts.len();
    let sp = SharedPool::create("twin", 8 << 20, 4).unwrap();
    sp.set_flush_model(model);
    let mut spaces = Vec::new();
    let mut pools = Vec::new();
    for t in 0..threads {
        let mut s = AddressSpace::new(0x7717 + t as u64);
        let pool = s.adopt_shared(&sp).unwrap();
        let slab = sp.carve_slab(256 << 10).unwrap();
        s.bind_arena_slab(pool, slab).unwrap();
        spaces.push(s);
        pools.push(pool);
    }
    let mut locs: Vec<Vec<RelLoc>> = vec![Vec::new(); threads];
    let (mut trace, mut pending) = (TwinTrace::new(), Vec::new());
    for (t, j) in utpr_qc::sched::steps(order) {
        let t = t as usize;
        let op = scripts[t][j as usize];
        twin_step(op, pools[t], &mut spaces[t], &mut locs[t], twin_min_alloc(model), &mut trace);
        pending.push(sp.pending_lines());
    }
    TwinRun { trace, pending, durable: sp.lines_drained() }
}

/// The identical interleaving through one plain single-threaded space:
/// logical threads keep separate handle lists but share the space.
fn run_twin_reference(scripts: &[Vec<TwinOp>], order: &[u32], model: FlushModel) -> TwinRun {
    let threads = scripts.len();
    let mut space = AddressSpace::new(0x7717);
    let pool = space.create_pool("twin-ref", 8 << 20).unwrap();
    space.set_flush_model(model);
    let mut locs: Vec<Vec<RelLoc>> = vec![Vec::new(); threads];
    let (mut trace, mut pending) = (TwinTrace::new(), Vec::new());
    for (t, j) in utpr_qc::sched::steps(order) {
        let t = t as usize;
        let op = scripts[t][j as usize];
        twin_step(op, pool, &mut space, &mut locs[t], twin_min_alloc(model), &mut trace);
        pending.push(space.pending_lines());
    }
    TwinRun { trace, pending, durable: space.lines_flushed() }
}

props! {
    #![cases(48)]

    /// Three per-thread scripts under a seeded interleaving: the sharded
    /// heap and the single-threaded reference return the same values and
    /// the same error identities at every step — and, under ADR, hold the
    /// same number of lines in flight after every step and make the same
    /// number durable.
    #[test]
    fn sharded_heap_matches_single_threaded_reference(
        s0 in collection::vec(twin_op_strategy(), 1..40),
        s1 in collection::vec(twin_op_strategy(), 1..40),
        s2 in collection::vec(twin_op_strategy(), 1..40),
        seed in any::<u64>(),
    ) {
        let scripts = vec![s0, s1, s2];
        let counts: Vec<u64> = scripts.iter().map(|s| s.len() as u64).collect();
        let order =
            utpr_qc::sched::schedule(utpr_qc::sched::Policy::Seeded(seed), &counts);
        for model in [FlushModel::Eadr, FlushModel::Adr] {
            let sharded = run_twin_sharded(&scripts, &order, model);
            let reference = run_twin_reference(&scripts, &order, model);
            prop_assert_eq!(&sharded, &reference);
        }
    }
}

/// Sanity: the twin property exercises the per-thread arena path for real —
/// a sustained allocation run drains leases and refills them from the slab.
#[test]
fn sharded_twin_runs_refill_their_arenas() {
    let sp = SharedPool::create("twin-vac", 8 << 20, 4).unwrap();
    let mut space = AddressSpace::new(1);
    let pool = space.adopt_shared(&sp).unwrap();
    let slab = sp.carve_slab(512 << 10).unwrap();
    space.bind_arena_slab(pool, slab).unwrap();
    for _ in 0..200 {
        space.pmalloc(pool, 384).unwrap();
    }
    assert!(space.arena_refills(pool) > 1, "lease never refilled: arena layer is vacuous");
    assert!(sp.refills() > 1, "shared pool saw no refills: {}", sp.refills());
    assert_eq!(sp.slab_overflows(), 0, "slab sized to hold the whole run");
}

/// Sanity: the property above is not vacuous — a cached run of a
/// read-heavy sequence actually serves translations from the lookasides.
#[test]
fn cached_runs_actually_hit_the_lookasides() {
    let mut space = AddressSpace::new(0xFACE);
    let pool = space.create_pool("hit", 1 << 20).unwrap();
    let loc = space.pmalloc(pool, 64).unwrap();
    space.reset_trans_stats();
    for _ in 0..100 {
        let va = space.ra2va(loc).unwrap();
        let _ = space.read_u64(va).unwrap();
    }
    let s = space.trans_stats();
    assert!(s.walks <= 1, "sVALB barely hit: {s:?}");
}

// ---------------------------------------------------------------------------
// Twin pools: one media plane behind both owners.
//
// An owned `PoolStore` pool and a one-stripe `SharedPool` with retention
// configured get the same seeded writes, a seal, more writes (dirty pages,
// exempt from checking), and the same planted bit flips; then verify →
// scrub → reseal. Both owners seal, verify and scrub through the one
// `MediaPlane`, so they must agree on every page.

/// Pages the twin writes land on: few enough that writes and flips collide.
const TWIN_PAGES: u64 = 12;

/// One twin-pool script: word writes before the seal, word writes after it,
/// and `(byte offset, bit)` flips.
type MediaScript = (Vec<(u64, u64)>, Vec<(u64, u64)>, Vec<(u64, u8)>);

/// What one owner observed.
#[derive(Debug, PartialEq)]
struct MediaRun {
    /// Pages sealed right after the seal, in page order.
    sealed: Vec<u64>,
    /// What verify reported after the flips.
    bad: Vec<u64>,
    verdicts: Vec<(u64, PageVerdict)>,
    quarantined: Option<u64>,
    /// What verify reported after reseal + release.
    reverified: Vec<u64>,
}

fn media_run_owned((early, late, flips): &MediaScript) -> MediaRun {
    let mut store = PoolStore::new();
    let id = store.create("twin-media", 1 << 20).unwrap();
    for &(w, v) in early {
        store.get_mut(id).unwrap().data_mut().write_u64(w * 8, v);
    }
    store.seal(id).unwrap();
    let sealed = store.peek(id).unwrap().crcs().sealed_pages();
    for &(w, v) in late {
        store.get_mut(id).unwrap().data_mut().write_u64(w * 8, v);
    }
    for &(off, bit) in flips {
        store.peek_mut(id).unwrap().data_mut().corrupt_bit(off, bit);
    }
    let bad = store.verify(id).unwrap();
    let verdicts = store.scrub(id).unwrap().verdicts;
    let quarantined = store.quarantine_info(id);
    store.reseal(id).unwrap();
    store.release(id);
    MediaRun { sealed, bad, verdicts, quarantined, reverified: store.verify(id).unwrap() }
}

fn media_run_shared((early, late, flips): &MediaScript) -> MediaRun {
    let sp = SharedPool::create("twin-media", 1 << 20, 1).unwrap();
    sp.configure_retention(RetentionConfig::default());
    for &(w, v) in early {
        sp.write_u64(w * 8, v);
    }
    sp.seal_all_now();
    // Right after the seal every sealed page is cold, so an unlimited scrub
    // visits exactly the sealed set (the clock never ran: page order).
    let sealed: Vec<u64> = sp.scrub_batch(usize::MAX, u64::MAX).iter().map(|(p, _)| *p).collect();
    assert_eq!(sealed.len() as u64, sp.sealed_pages());
    for &(w, v) in late {
        sp.write_u64(w * 8, v);
    }
    for &(off, bit) in flips {
        sp.corrupt_bit(off, bit);
    }
    let bad = sp.verify_all();
    let verdicts = sp.scrub_batch(usize::MAX, u64::MAX);
    let quarantined = sp.quarantined_page();
    sp.reseal_all();
    sp.release_quarantine();
    MediaRun { sealed, bad, verdicts, quarantined, reverified: sp.verify_all() }
}

/// Same writes and flips on an owned pool and a one-stripe shared pool ⇒
/// the same sealed pages, bad pages, scrub verdicts, first quarantined page
/// and a clean re-verify after reseal. Not vacuous: some cases quarantine.
#[test]
fn owned_and_shared_pools_agree_through_one_media_plane() {
    let words = 0..TWIN_PAGES * PAGE_SIZE / 8;
    let script = (
        collection::vec((words.clone(), any::<u64>()), 1..40),
        collection::vec((words, any::<u64>()), 0..8),
        collection::vec((0..TWIN_PAGES * PAGE_SIZE, 0u8..8), 0..6),
    );
    let quarantines = std::cell::Cell::new(0u32);
    for_all("heap_props::twin_media_planes", Config::cases(96), script, |script: MediaScript| {
        let owned = media_run_owned(&script);
        prop_assert_eq!(&owned, &media_run_shared(&script));
        prop_assert!(owned.reverified.is_empty(), "reseal left bad pages: {:?}", owned.reverified);
        prop_assert_eq!(owned.quarantined, owned.bad.first().copied());
        quarantines.set(quarantines.get() + u32::from(owned.quarantined.is_some()));
        Ok(())
    });
    assert!(quarantines.get() > 0, "no case planted a detectable flip: the property is vacuous");
}

/// The media-fault errors round-trip through the workspace facade: the
/// `utpr::Error` wrapper preserves their Display text and exposes the
/// heap error as `source()`.
#[test]
fn media_fault_errors_round_trip_through_the_facade() {
    use std::error::Error as _;

    let heap_err = utpr_heap::HeapError::MediaCorruption { pool: PoolId::new(3), page: 5 };
    let wrapped: utpr::Error = heap_err.clone().into();
    assert_eq!(wrapped.to_string(), heap_err.to_string());
    assert!(wrapped.to_string().contains("media corruption"));
    let src = wrapped.source().expect("facade keeps the heap error as source");
    assert_eq!(src.to_string(), heap_err.to_string());

    let heap_err = utpr_heap::HeapError::BadPoolHeader { reason: "unsupported format version" };
    let wrapped: utpr::Error = heap_err.clone().into();
    assert_eq!(wrapped.to_string(), heap_err.to_string());
    assert!(wrapped.to_string().contains("bad pool header"));
    assert!(wrapped.to_string().contains("unsupported format version"));
    let src = wrapped.source().expect("facade keeps the heap error as source");
    assert_eq!(src.to_string(), heap_err.to_string());
}

// ---- owned and adopted pools in one space ---------------------------------
//
// Owned pools and adopted shared pools share one `AddressSpace` and one id
// namespace. Random create / adopt / write / read / detach / re-attach /
// restart / destroy steps run against a plain model of each pool: its
// words, whether it is attached, and whether it is destroyed. Every pool's
// block sits at the same pool-relative offset as its kind's siblings, so a
// write leaking through the wrong id shows up as a wrong read.

/// Words in each pool's block.
const MIXED_WORDS: u64 = 8;

/// Pools a mixed run may hold; creation stops here.
const MIXED_MAX_POOLS: usize = 8;

/// One mixed-space step; pool and word indices are reduced modulo live
/// state.
#[derive(Clone, Copy, Debug)]
enum MixedOp {
    CreateOwned,
    AdoptNew,
    Write { pool: u8, word: u8, value: u64 },
    /// Reads through `pool_read_u64` (`by_id`) or through `ra2va`.
    Read { pool: u8, word: u8, by_id: bool },
    Detach { pool: u8 },
    /// `attach` for an owned pool, `adopt_shared` for a shared one.
    Reattach { pool: u8 },
    Restart,
    Destroy { pool: u8 },
}

fn mixed_op_strategy() -> OneOf<MixedOp> {
    one_of![
        1 => Just(MixedOp::CreateOwned),
        1 => Just(MixedOp::AdoptNew),
        5 => (any::<u8>(), any::<u8>(), any::<u64>())
            .prop_map(|(pool, word, value)| MixedOp::Write { pool, word, value }),
        5 => (any::<u8>(), any::<u8>(), any::<bool>())
            .prop_map(|(pool, word, by_id)| MixedOp::Read { pool, word, by_id }),
        2 => any::<u8>().prop_map(|pool| MixedOp::Detach { pool }),
        3 => any::<u8>().prop_map(|pool| MixedOp::Reattach { pool }),
        1 => Just(MixedOp::Restart),
        1 => any::<u8>().prop_map(|pool| MixedOp::Destroy { pool }),
    ]
}

/// The model of one pool in a mixed run.
struct MixedPool {
    id: PoolId,
    /// The shared pool behind an adopted id; `None` for an owned pool.
    shared: Option<std::sync::Arc<SharedPool>>,
    block: RelLoc,
    words: [u64; MIXED_WORDS as usize],
    attached: bool,
    destroyed: bool,
}

impl MixedPool {
    fn loc(&self, word: u8) -> RelLoc {
        self.block.add(u32::from(word) % MIXED_WORDS as u32 * 8)
    }

    /// What an access through this pool's id must answer right now.
    fn gate(&self, by_id: bool) -> Result<(), HeapError> {
        if self.destroyed {
            Err(HeapError::NoSuchPool(self.id))
        } else if !self.attached && (!by_id || self.shared.is_some()) {
            Err(HeapError::PoolDetached(self.id))
        } else {
            Ok(())
        }
    }
}

/// Creates (`shared == false`) or adopts a new pool, checks it takes the
/// next sequential id, and allocates its block.
fn mixed_new_pool(
    space: &mut AddressSpace,
    pools: &mut Vec<MixedPool>,
    shared: bool,
) -> Result<(), String> {
    let name = format!("mixed{}", pools.len());
    let (id, sp) = if shared {
        let sp = SharedPool::create(&name, 1 << 20, 2).map_err(|e| e.to_string())?;
        (space.adopt_shared(&sp).map_err(|e| e.to_string())?, Some(sp))
    } else {
        (space.create_pool(&name, 1 << 20).map_err(|e| e.to_string())?, None)
    };
    prop_assert_eq!(id.raw(), pools.len() as u32 + 1, "ids are sequential across kinds");
    let block = space.pmalloc(id, MIXED_WORDS * 8).map_err(|e| e.to_string())?;
    for w in 0..MIXED_WORDS {
        space.pool_write_u64(id, u64::from(block.offset) + w * 8, 0).map_err(|e| e.to_string())?;
    }
    let words = [0; MIXED_WORDS as usize];
    pools.push(MixedPool { id, shared: sp, block, words, attached: true, destroyed: false });
    Ok(())
}

/// Re-attaches `p` (re-adopting a shared pool) and checks the id held.
fn mixed_reattach(space: &mut AddressSpace, p: &mut MixedPool) -> Result<(), String> {
    let got = match &p.shared {
        Some(sp) => space.adopt_shared(sp).map(|id| id == p.id),
        None => space.attach(p.id).map(|_| true),
    };
    if p.destroyed {
        prop_assert_eq!(got, Err(HeapError::NoSuchPool(p.id)));
    } else {
        prop_assert_eq!(got, Ok(true), "{} keeps its id across detach and restart", p.id);
        p.attached = true;
    }
    Ok(())
}

fn run_mixed_space(ops: &[MixedOp]) -> Result<(), String> {
    let mut space = AddressSpace::new(0x3a11);
    let mut pools = Vec::new();
    for shared in [false, true, false, true] {
        mixed_new_pool(&mut space, &mut pools, shared)?;
    }
    for &op in ops {
        let n = pools.len();
        match op {
            MixedOp::CreateOwned | MixedOp::AdoptNew if n < MIXED_MAX_POOLS => {
                mixed_new_pool(&mut space, &mut pools, matches!(op, MixedOp::AdoptNew))?;
            }
            MixedOp::CreateOwned | MixedOp::AdoptNew => {}
            MixedOp::Write { pool, word, value } => {
                let p = &mut pools[pool as usize % n];
                let got = space.ra2va(p.loc(word)).and_then(|va| space.write_u64(va, value));
                prop_assert_eq!(&got, &p.gate(false), "write through {}", p.id);
                if got.is_ok() {
                    p.words[(word as u64 % MIXED_WORDS) as usize] = value;
                }
            }
            MixedOp::Read { pool, word, by_id } => {
                let p = &pools[pool as usize % n];
                let loc = p.loc(word);
                let got = if by_id {
                    space.pool_read_u64(p.id, u64::from(loc.offset))
                } else {
                    space.ra2va(loc).and_then(|va| space.read_u64(va))
                };
                let want = p.gate(by_id).map(|()| p.words[(word as u64 % MIXED_WORDS) as usize]);
                prop_assert_eq!(got, want, "read through {} (by id: {})", p.id, by_id);
            }
            MixedOp::Detach { pool } => {
                let p = &mut pools[pool as usize % n];
                let want = if p.attached { Ok(()) } else { Err(HeapError::PoolDetached(p.id)) };
                prop_assert_eq!(space.detach(p.id), want);
                p.attached = false;
            }
            MixedOp::Reattach { pool } => {
                mixed_reattach(&mut space, &mut pools[pool as usize % n])?
            }
            MixedOp::Restart => {
                space.restart();
                for p in &mut pools {
                    p.attached = false;
                    if p.destroyed {
                        continue;
                    }
                    if p.shared.is_some() {
                        prop_assert_eq!(space.pool_root(p.id), Err(HeapError::PoolDetached(p.id)));
                    } else {
                        let kept = space.pool_store().peek(p.id).is_ok();
                        prop_assert!(kept, "{} lost its image", p.id);
                    }
                }
            }
            MixedOp::Destroy { pool } => {
                let p = &mut pools[pool as usize % n];
                let got = space.destroy_pool(p.id);
                if p.shared.is_some() {
                    prop_assert_eq!(got, Err(HeapError::NotOwned(p.id)));
                } else if p.destroyed {
                    prop_assert_eq!(got, Err(HeapError::NoSuchPool(p.id)));
                } else {
                    prop_assert_eq!(got, Ok(()));
                    p.destroyed = true;
                    p.attached = false;
                }
            }
        }
        for p in &pools {
            let attached = space.attachment(p.id).is_some();
            prop_assert_eq!(attached, p.attached, "{} after {:?}", p.id, op);
            prop_assert_eq!(space.is_shared(p.id), p.shared.is_some() && p.attached);
        }
    }
    // Final sweep: every surviving pool, re-attached, holds exactly its own
    // words.
    for p in &mut pools {
        mixed_reattach(&mut space, p)?;
        for word in 0..MIXED_WORDS as u8 {
            let got = space.ra2va(p.loc(word)).and_then(|va| space.read_u64(va));
            let want = p.gate(false).map(|()| p.words[word as usize]);
            prop_assert_eq!(got, want, "sweep of {}", p.id);
        }
    }
    Ok(())
}

props! {
    #![cases(64)]

    /// Two owned and two adopted pools (and any created or adopted later)
    /// in one space: a write through one id is never visible through
    /// another, a re-adopted id is stable across detach and restart, and a
    /// restart keeps the owned images while dropping the adoptions.
    #[test]
    fn owned_and_adopted_pools_share_one_space(ops in collection::vec(mixed_op_strategy(), 1..80)) {
        run_mixed_space(&ops)?;
    }
}
