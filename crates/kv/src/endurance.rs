//! Week-of-modelled-time endurance soak: retention decay striking
//! sealed cold pages *while YCSB traffic runs*, with the online
//! scrubber patrolling under the same seeded turnstile as the mutators.
//!
//! The soak is the integration point of the retention model
//! (`utpr_heap::retain`), the media plane (`SharedPool`'s wear/CRC
//! accounting), and the patrol scrubber (`utpr_heap::scrub`):
//!
//! 1. a [`SharedPool`] is populated with one key partition per mutator
//!    thread, its retention plane configured (media clock, wear table,
//!    CRC sidecar) and a decay law armed via
//!    [`FaultPlan::with_decay`];
//! 2. N mutator threads drive a YCSB preset mix (B/C/D) against a
//!    lock-free [`ConcurrentIndex`], each charging
//!    [`EnduranceSpec::op_units`] of modelled work per operation —
//!    the media clock advances from modelled cycles, never wall time,
//!    and at each tick the decay lottery may flip a bit on a sealed
//!    cold page;
//! 3. when scrubbing is on, one extra turnstile participant runs
//!    [`Scrubber::step`] at its granted turns: patrol batches verify
//!    CRC sidecars oldest-first and preventively rewrite pages nearing
//!    their decay window; detected corruption quarantines the pool and
//!    is repaired through the shared quarantine → salvage → reseal
//!    path ([`Scrubber::repair`]);
//! 4. end of soak: seal everything, run a final full verify (turning
//!    every *latent* flip into a detected one — only then is the
//!    zero-silent-corruption invariant checkable), repair if needed,
//!    and audit every partition against its thread's model.
//!
//! Every interleaving — mutator vs mutator, mutator vs patrol, the
//! tick at which each flip lands — is a pure function of the spec and
//! its seed: the whole soak replays bit-for-bit under `UTPR_QC_SEED`
//! on any host core count.
//!
//! **What "silent" means here.** A flip served to a reader between
//! injection and the next patrol is a *detection-latency* artifact
//! inherent to patrol scrubbing; it is counted
//! ([`EnduranceReport::stale_reads`]) but not gated. The hard gate is
//! about durable state: after the final verify, every injected flip
//! must be detected (`flips_injected == flips_detected`), and no audit
//! mismatch may exist that the media plane never noticed.

use crate::rng::mix;
use crate::ycsb::Preset;
use std::collections::{BTreeMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use utpr_ds::concurrent::{ConcurrentIndex, FlushStrategy, Handle};
use utpr_ds::{ConcHash, IndexCore};
use utpr_heap::{
    AddressSpace, FaultPlan, FlushModel, HeapError, RetentionConfig, ScrubConfig, ScrubStats,
    Scrubber, SharedPool, SlabId, WearStats,
};
use utpr_ptr::{site, ExecEnv, Mode};
use utpr_qc::sched::Turnstile;

/// Result alias.
pub type Result<T> = std::result::Result<T, HeapError>;

const POOL_BYTES: u64 = 24 << 20;

/// Uniform draw in `[0, 1)` from a mixed salt.
fn dice(seed: u64, salt: u64) -> f64 {
    (mix(seed, salt) >> 11) as f64 / (1u64 << 53) as f64
}

/// Shape of one endurance soak.
#[derive(Clone, Copy, Debug)]
pub struct EnduranceSpec {
    /// Mutator threads (the scrubber, when on, is one more turnstile
    /// participant).
    pub threads: u32,
    /// Keys prepopulated per thread partition.
    pub keys_per_thread: u64,
    /// Measured operations per mutator thread.
    pub ops_per_thread: u64,
    /// YCSB preset driving the read/update/insert mix.
    pub mix: Preset,
    /// Persistence-domain model (eADR vs ADR).
    pub flush: FlushModel,
    /// Flush strategy every handle follows.
    pub strategy: FlushStrategy,
    /// Whether the patrol scrubber participates.
    pub scrub: bool,
    /// Patrol parameters (ignored for the patrol when `scrub` is off;
    /// reactive quarantine repair uses them either way).
    pub scrub_cfg: ScrubConfig,
    /// Decay rate in parts-per-billion of flip probability per tick of
    /// page age (see [`utpr_heap::decay_draw`]). Zero disables decay.
    pub decay_ppb: u64,
    /// Modelled work units one KV operation charges to the media clock.
    pub op_units: u64,
    /// Media-clock granularity: work units per tick. Together with
    /// `op_units` this sets the soak's tick horizon — the "week of
    /// modelled time" is a labelling of ticks, never wall time.
    pub work_per_tick: u64,
    /// Ticks a dirty page must sit untouched before it seals cold.
    pub seal_lag: u64,
    /// Prefer low-write-count pages in the central allocator (the
    /// wear-leveling ablation arm).
    pub wear_leveling: bool,
    /// Master seed: schedule, op mix, values, decay lottery.
    pub seed: u64,
}

impl EnduranceSpec {
    /// Tier-1 scale: 3 mutators, a few dozen ticks, hot decay.
    #[must_use]
    pub fn small(seed: u64) -> EnduranceSpec {
        EnduranceSpec {
            threads: 3,
            keys_per_thread: 24,
            ops_per_thread: 80,
            mix: Preset::B,
            flush: FlushModel::Adr,
            strategy: FlushStrategy::FliT,
            scrub: true,
            scrub_cfg: ScrubConfig { batch_pages: 12, refresh_age: 10, interval_ticks: 8 },
            decay_ppb: 600_000,
            op_units: 1_200,
            work_per_tick: 3_600,
            seal_lag: 2,
            wear_leveling: false,
            seed,
        }
    }
}

/// What one soak produced. Everything here is deterministic for a
/// fixed spec except [`WearStats::flatness`]-derived floats, which are
/// report-only and never checksummed.
#[derive(Clone, Debug)]
pub struct EnduranceReport {
    /// Operations that completed (including after a repair retry).
    pub ops: u64,
    /// Operations abandoned after errors/panics; their keys are
    /// excluded from the audit gates.
    pub ops_failed: u64,
    /// Mid-soak reads that returned a value contradicting the writer's
    /// own model — decay served before the patrol caught it. A
    /// detection-latency artifact, reported but not gated.
    pub stale_reads: u64,
    /// Final media-clock tick.
    pub ticks: u64,
    /// Total modelled work units on the clock.
    pub total_work: u64,
    /// Work units the scrubber charged (patrols + repairs).
    pub scrub_work: u64,
    /// Pool-wide fence count over the soak.
    pub fences: u64,
    /// Decay flips the lottery injected.
    pub flips_injected: u64,
    /// Flips detected (patrol, cold-write verify, or final verify).
    pub flips_detected: u64,
    /// Flip pairs that annihilated (same bit struck twice restores the
    /// CRC — undetectable by construction, retired from the books).
    pub flips_cancelled: u64,
    /// Distinct pages the lottery struck.
    pub pages_flipped: u64,
    /// Scrubber lifetime counters, including the shared
    /// recovered-vs-lost salvage accounting.
    pub scrub: ScrubStats,
    /// Wear-histogram summary (flatness is report-only).
    pub wear: WearStats,
    /// Keys with a certain model value that the audit checked.
    pub keys_audited: u64,
    /// Audited keys that read back exactly as modelled.
    pub keys_intact: u64,
    /// Audited keys lost or altered by *detected* corruption (the
    /// salvage path accounts for them).
    pub keys_lost: u64,
    /// Audited keys wrong with **no** detection to blame — the hard
    /// gate; must be zero.
    pub silent: u64,
    /// Order-independent digest of every audited key/value, certain or
    /// not: bit-identical across replays of the same spec.
    pub checksum: u64,
    /// Turnstile grants (the deterministic logical clock of the
    /// interleaving).
    pub grants: u64,
}

impl EnduranceReport {
    /// Scrub work as a fraction of all modelled work.
    #[must_use]
    pub fn scrub_overhead(&self) -> f64 {
        if self.total_work == 0 {
            0.0
        } else {
            self.scrub_work as f64 / self.total_work as f64
        }
    }

    /// Fences per completed operation.
    #[must_use]
    pub fn fences_per_op(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.fences as f64 / self.ops as f64
        }
    }

    /// The hard endurance gates: every injected flip detected, and no
    /// audit mismatch the media plane never noticed.
    ///
    /// # Errors
    ///
    /// A human-readable description of the violated invariant.
    pub fn gate(&self) -> std::result::Result<(), String> {
        if self.flips_injected != self.flips_detected + self.flips_cancelled {
            return Err(format!(
                "{} flips injected but only {} detected (+{} cancelled) — latent corruption survived the final verify",
                self.flips_injected, self.flips_detected, self.flips_cancelled
            ));
        }
        if self.silent > 0 {
            return Err(format!(
                "{} audited key(s) wrong with no detection to blame — silent corruption",
                self.silent
            ));
        }
        Ok(())
    }
}

/// Global key of partition slot `i` on thread `t`: partitions are
/// disjoint, so each thread's model is free of cross-thread races.
fn key_of(t: u64, i: u64, threads: u64) -> u64 {
    i * threads + t
}

fn value_of(seed: u64, key: u64, j: u64) -> u64 {
    mix(seed, key.wrapping_mul(0x517c_c1b7_2722_0a95) ^ j) >> 1
}

/// What one mutator decided to do at step `j`, drawn from the preset
/// mix. `inserted` is its partition's current size.
enum SoakOp {
    Read(u64),
    Update(u64),
    Insert,
}

fn op_of(spec: &EnduranceSpec, t: u64, j: u64, inserted: u64) -> SoakOp {
    let (read_f, update_f, _) = spec.mix.mix();
    let salt = (t << 40) ^ j;
    let d = dice(spec.seed, 0xC0DE ^ salt);
    let pick = mix(spec.seed, 0x1E7 ^ salt);
    if d < read_f {
        let i = match spec.mix {
            // Read-latest: bias toward the newest slots of the partition.
            Preset::D => inserted - 1 - pick % 8.min(inserted),
            _ => pick % inserted,
        };
        SoakOp::Read(i)
    } else if d < read_f + update_f {
        SoakOp::Update(pick % inserted)
    } else {
        SoakOp::Insert
    }
}

/// Per-thread outcome, merged into the report after the soak.
struct MutOut {
    model: BTreeMap<u64, u64>,
    uncertain: HashSet<u64>,
    ops: u64,
    ops_failed: u64,
    stale_reads: u64,
}

/// Builds the base image: shared pool with the retention plane armed,
/// one slab per mutator, partitions prepopulated single-threaded.
fn build_base(spec: &EnduranceSpec, name: &str) -> Result<(Arc<SharedPool>, Vec<SlabId>)> {
    let sp = SharedPool::create(name, POOL_BYTES, 8)?;
    sp.set_flush_model(spec.flush);
    sp.configure_retention(RetentionConfig {
        seal_lag: spec.seal_lag,
        work_per_tick: spec.work_per_tick,
    });
    sp.set_wear_leveling(spec.wear_leveling);
    let slabs: Vec<SlabId> = (0..spec.threads)
        .map(|_| sp.carve_slab(96 << 10))
        .collect::<Result<Vec<_>>>()?;

    let mut space = AddressSpace::new(mix(spec.seed, 0xE27D));
    let pool = space.adopt_shared(&sp)?;
    let mut env = ExecEnv::builder(space).mode(Mode::Hw).pool(pool).build();
    let idx = ConcHash::create(&mut env)?;
    let mut h = Handle::new(&mut env, spec.strategy)?;
    for t in 0..u64::from(spec.threads) {
        for i in 0..spec.keys_per_thread {
            let k = key_of(t, i, u64::from(spec.threads));
            idx.insert(&mut h, k, value_of(spec.seed, k, 0))?;
        }
    }
    env.set_root(site!("endurance.root", StackLocal), idx.descriptor())?;
    env.space_mut().fence();
    Ok((sp, slabs))
}

/// One mutator thread's whole script. Returns its partition model.
#[allow(clippy::too_many_lines)]
fn mutate(
    sp: &Arc<SharedPool>,
    slabs: &[SlabId],
    spec: &EnduranceSpec,
    ts: &Turnstile,
    scrubber: &Mutex<Scrubber>,
    t: usize,
) -> Result<MutOut> {
    let threads = u64::from(spec.threads);
    let mut out = MutOut {
        model: BTreeMap::new(),
        uncertain: HashSet::new(),
        ops: 0,
        ops_failed: 0,
        stale_reads: 0,
    };
    for i in 0..spec.keys_per_thread {
        let k = key_of(t as u64, i, threads);
        out.model.insert(k, value_of(spec.seed, k, 0));
    }

    // Enter the turnstile discipline *before* touching the pool: setup
    // (adopt, slab bind, root open, handle creation) takes real pool
    // locks, and running it outside the baton would interleave with the
    // current holder on host timing — the one hole through which a
    // wall-clock schedule could leak into the soak.
    if ts.yield_point(t).is_err() {
        return Ok(out);
    }
    let mut space = AddressSpace::new(mix(spec.seed, 0xD21 ^ (t as u64 + 1)));
    let pool = space.adopt_shared(sp)?;
    space.bind_arena_slab(pool, slabs[t])?;
    let mut env = ExecEnv::builder(space).mode(Mode::Hw).pool(pool).build();
    let desc = env.root(site!("endurance.open", KnownReturn))?;
    let idx = ConcHash::open(desc);
    let yielder = || {
        ts.yield_point(t)
            .map_err(|_| HeapError::CrashInjected { writes: u64::MAX })
    };
    let mut h = Handle::new(&mut env, spec.strategy)?.with_yielder(&yielder);

    let mut inserted = spec.keys_per_thread;
    for j in 0..spec.ops_per_thread {
        let (key, is_read, value) = match op_of(spec, t as u64, j, inserted) {
            SoakOp::Read(i) => (key_of(t as u64, i, threads), true, 0),
            SoakOp::Update(i) => {
                let k = key_of(t as u64, i, threads);
                (k, false, value_of(spec.seed, k, j + 1))
            }
            SoakOp::Insert => {
                let k = key_of(t as u64, inserted, threads);
                inserted += 1;
                (k, false, value_of(spec.seed, k, j + 1))
            }
        };
        // Retry once after a quarantine repair; anything else fails the op.
        let mut done = false;
        for attempt in 0..2 {
            let r = catch_unwind(AssertUnwindSafe(|| {
                if is_read {
                    idx.get(&mut h, key)
                } else {
                    idx.insert(&mut h, key, value)
                }
            }));
            match r {
                Ok(Ok(got)) => {
                    if is_read && got != out.model.get(&key).copied()
                        && !out.uncertain.contains(&key)
                    {
                        out.stale_reads += 1;
                    }
                    if !is_read {
                        out.model.insert(key, value);
                        out.uncertain.remove(&key);
                    }
                    out.ops += 1;
                    done = true;
                }
                Ok(Err(HeapError::MediaCorruption { .. })) if attempt == 0 => {
                    // Detected corruption gates this shard's guarded ops:
                    // run the shared repair path, then retry the op once.
                    scrubber.lock().expect("scrubber").repair(sp);
                    continue;
                }
                Ok(Err(_)) | Err(_) => {}
            }
            break;
        }
        if !done {
            out.ops_failed += 1;
            if !is_read {
                out.uncertain.insert(key);
            }
        }
        // Charge the op to the media clock while still holding the baton
        // from the op's last yield: tick crossings (and the decay flips
        // they inject) land at deterministic points of the interleaving.
        sp.note_work(spec.op_units);
    }
    Ok(out)
}

/// The patrol participant: step when granted, repair when quarantined,
/// retire once every mutator is done.
fn patrol(sp: &Arc<SharedPool>, ts: &Turnstile, scrubber: &Mutex<Scrubber>, slot: usize) {
    loop {
        if ts.yield_point(slot).is_err() {
            break;
        }
        if ts.active_count() <= 1 {
            break; // only the patrol left — the soak is over
        }
        let mut s = scrubber.lock().expect("scrubber");
        if sp.quarantined_page().is_some() {
            s.repair(sp);
        } else {
            s.step(sp);
        }
    }
    ts.finish(slot);
}

/// Runs one endurance soak; see the module docs for the protocol.
///
/// # Errors
///
/// Propagates harness-setup failures (gate violations are *reported*,
/// not raised — callers check [`EnduranceReport::gate`]).
///
/// # Panics
///
/// Panics when `spec.threads` or `spec.keys_per_thread` is zero.
#[allow(clippy::too_many_lines)]
pub fn endurance_soak(spec: &EnduranceSpec) -> Result<EnduranceReport> {
    assert!(spec.threads > 0, "soak over zero threads");
    assert!(spec.keys_per_thread > 0, "empty partitions");
    let name = format!(
        "endurance-{}-{}-{}-{:x}",
        spec.mix.name(),
        if spec.scrub { "scrub" } else { "noscrub" },
        spec.decay_ppb,
        mix(spec.seed, 0x50AC)
    );
    let (sp, slabs) = build_base(spec, &name)?;
    // Arm the decay law only now: prepopulation happens in stable time.
    sp.set_faults(FaultPlan::disabled().with_decay(mix(spec.seed, 0xDECA), spec.decay_ppb));

    let participants = spec.threads as usize + usize::from(spec.scrub);
    let ts = Turnstile::new(participants, spec.seed);
    let scrubber = Mutex::new(Scrubber::new(spec.scrub_cfg));
    let outs: Mutex<Vec<Option<Result<MutOut>>>> =
        Mutex::new((0..spec.threads).map(|_| None).collect());

    std::thread::scope(|s| {
        for t in 0..spec.threads as usize {
            let (sp, ts, scrubber, outs, slabs) = (&sp, &ts, &scrubber, &outs, &slabs);
            s.spawn(move || {
                let r = mutate(sp, slabs, spec, ts, scrubber, t);
                ts.finish(t);
                outs.lock().expect("outs")[t] = Some(r);
            });
        }
        if spec.scrub {
            let (sp, ts, scrubber) = (&sp, &ts, &scrubber);
            s.spawn(move || patrol(sp, ts, scrubber, spec.threads as usize));
        }
    });

    let mut scrubber = scrubber.into_inner().expect("scrubber");
    let outs = outs.into_inner().expect("outs");
    let mut model = BTreeMap::new();
    let mut uncertain = HashSet::new();
    let (mut ops, mut ops_failed, mut stale_reads) = (0u64, 0u64, 0u64);
    for o in outs {
        let o = o.expect("mutator joined")?;
        model.extend(o.model);
        uncertain.extend(o.uncertain);
        ops += o.ops;
        ops_failed += o.ops_failed;
        stale_reads += o.stale_reads;
    }

    // End-of-soak protocol: quiesce and force the final full verify, so
    // every latent flip (including one injected by the very last tick)
    // becomes a detected one before anything is audited or blessed.
    sp.seal_all_now();
    sp.verify_all();
    if sp.quarantined_page().is_some() {
        scrubber.repair(&sp);
    }
    debug_assert!(
        sp.pending_flip_debug().is_empty(),
        "end-of-soak protocol left undetected flips: {:?}",
        sp.pending_flip_debug()
    );

    // Audit every partition against the merged model through a fresh
    // shard, exactly like a post-restart reader would.
    let mut rspace = AddressSpace::new(mix(spec.seed, 0xA0D1));
    let rpool = rspace.adopt_shared(&sp)?;
    let mut env = ExecEnv::builder(rspace).mode(Mode::Hw).pool(rpool).build();
    // The root word sits on a page that decays like any other: a struck
    // root makes every key unreadable, which the audit books like any
    // other unreadable key.
    let idx = env.root(site!("endurance.audit", KnownReturn)).map(ConcHash::open);
    let mut h = Handle::new(&mut env, spec.strategy)?;
    let (_, flips_detected_pre_audit, _) = sp.media_flips();
    let (mut keys_audited, mut keys_intact, mut keys_lost, mut silent) = (0u64, 0u64, 0u64, 0u64);
    let mut checksum = 0xcbf2_9ce4_8422_2325u64;
    for (k, v) in &model {
        let got = catch_unwind(AssertUnwindSafe(|| idx.clone()?.get(&mut h, *k)));
        let observed = match &got {
            Ok(Ok(x)) => x.unwrap_or(u64::MAX),
            _ => 0xDEAD_0000_0000_0000 | k,
        };
        checksum = checksum
            .wrapping_mul(0x0000_0100_0000_01b3)
            .wrapping_add(k.wrapping_mul(31) ^ observed);
        if uncertain.contains(k) {
            continue; // the op that last wrote it failed; value unknowable
        }
        keys_audited += 1;
        match got {
            Ok(Ok(Some(x))) if x == *v => keys_intact += 1,
            // Wrong/missing/erroring key: attributable to the salvage
            // path only if the plane actually detected corruption.
            _ if flips_detected_pre_audit > 0 => keys_lost += 1,
            _ => silent += 1,
        }
    }

    let (total_work, scrub_work) = sp.media_work();
    let (flips_injected, flips_detected, flips_cancelled) = sp.media_flips();
    Ok(EnduranceReport {
        ops,
        ops_failed,
        stale_reads,
        ticks: sp.media_tick(),
        total_work,
        scrub_work,
        fences: sp.fence_count(),
        flips_injected,
        flips_detected,
        flips_cancelled,
        pages_flipped: sp.flipped_pages(),
        scrub: scrubber.stats(),
        wear: sp.wear_stats(),
        keys_audited,
        keys_intact,
        keys_lost,
        silent,
        checksum,
        grants: ts.grants(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn soak_replays_bit_for_bit_under_one_seed() {
        let spec = EnduranceSpec::small(41);
        let a = endurance_soak(&spec).unwrap();
        let b = endurance_soak(&spec).unwrap();
        assert_eq!(a.checksum, b.checksum, "same spec, same audit digest");
        assert_eq!(a.ticks, b.ticks);
        assert_eq!(a.grants, b.grants, "same interleaving");
        assert_eq!(a.flips_injected, b.flips_injected);
        assert_eq!(
            (a.ops, a.stale_reads, a.keys_lost, a.silent),
            (b.ops, b.stale_reads, b.keys_lost, b.silent)
        );
        let c = endurance_soak(&EnduranceSpec::small(42)).unwrap();
        assert_ne!(a.checksum, c.checksum, "different seed, different soak");
    }

    #[test]
    fn scrub_on_soak_passes_the_hard_gates() {
        for seed in [7, 19] {
            let r = endurance_soak(&EnduranceSpec::small(seed)).unwrap();
            assert!(r.ticks > 10, "the clock must actually advance: {r:?}");
            assert!(r.scrub.batches > 0, "the patrol must run");
            r.gate().unwrap_or_else(|g| panic!("seed {seed}: {g}"));
            assert!(r.scrub_work > 0, "patrol cost must be booked");
            assert!(r.scrub_overhead() < 0.2, "overhead {:.3}", r.scrub_overhead());
        }
    }

    #[test]
    fn scrub_off_at_high_decay_loses_data_but_never_silently() {
        let mut spec = EnduranceSpec::small(23);
        spec.scrub = false;
        spec.decay_ppb = 60_000_000;
        let r = endurance_soak(&spec).unwrap();
        assert!(r.flips_injected > 0, "hot decay must strike: {r:?}");
        r.gate().unwrap_or_else(|g| panic!("{g}"));
        assert!(
            r.keys_lost > 0 || r.scrub.repairs > 0 || r.stale_reads > 0,
            "unscrubbed hot decay must visibly cost something: {r:?}"
        );
    }

    #[test]
    fn read_only_mix_under_eadr_stays_clean_when_decay_is_off() {
        let mut spec = EnduranceSpec::small(5);
        spec.mix = Preset::C;
        spec.flush = FlushModel::Eadr;
        spec.decay_ppb = 0;
        let r = endurance_soak(&spec).unwrap();
        assert_eq!(r.flips_injected, 0);
        assert_eq!(r.stale_reads, 0);
        assert_eq!(r.keys_intact, r.keys_audited, "{r:?}");
        r.gate().unwrap();
    }
}
