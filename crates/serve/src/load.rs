//! Load harness: closed-loop and open-loop zipfian traffic through
//! virtual-user multiplexing, plus the kill-the-server-mid-load arm.
//!
//! Virtual users ("vusers") are simulated connections — each owns a real
//! nonblocking `TcpStream`, but thousands of them are multiplexed over a
//! few OS threads polling round-robin, so connection count scales
//! independently of thread count. GET keys draw from a shared
//! [`KeyUniverse`] (the ζ-table is built once; each vuser's sampler seeds
//! in O(1)); PUTs insert fresh vuser-unique keys, so the final store
//! contents are a pure function of the spec — that is what makes the
//! bench checksum deterministic even though batching timing is not.
//!
//! Latency is recorded per op and summarized with exact nearest-rank
//! percentiles ([`utpr_qc::bench::nearest_rank`]). Open-loop mode
//! measures from the op's *intended* send time, so coordinated omission
//! (a stalled server delaying its own measurement schedule) shows up in
//! the tail instead of hiding.
//!
//! The [`kill_arm`] runs the faultsweep discipline over the wire: count
//! durable-write boundaries with a probe, arm the machine-wide gate at a
//! seeded boundary, drive load until the server dies mid-batch, recover
//! every undo-log slot, and check the crash-resilient-objects oracles —
//! every *acked* write present, every unacked write committed-or-absent,
//! structural invariants intact, and the reborn server serving.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use utpr_heap::FaultPlan;
use utpr_kv::workload::{key_of_index, KeyUniverse};
use utpr_kv::SweepFailure;
use utpr_qc::bench::nearest_rank;
use utpr_qc::rng::splitmix64;

use crate::proto::{Decoder, Request, Response};
use crate::server::{end_pass, DirectView, Result, ServeConfig, ServeError, Server};

/// How the generator paces requests.
#[derive(Clone, Copy, Debug)]
pub enum LoadMode {
    /// Each vuser keeps up to `pipeline` requests in flight and sends the
    /// next as soon as a slot frees — offered load follows service rate.
    Closed {
        /// In-flight requests per vuser.
        pipeline: usize,
    },
    /// Requests are scheduled at a fixed aggregate rate regardless of
    /// completions; latency is measured from the intended send time.
    Open {
        /// Aggregate target across all vusers, ops/second.
        ops_per_sec: f64,
    },
}

/// Shape of one load run.
#[derive(Clone, Copy, Debug)]
pub struct LoadSpec {
    /// Virtual users (simulated connections).
    pub connections: u32,
    /// OS threads multiplexing them.
    pub threads: u32,
    /// Preloaded records forming the GET universe.
    pub records: u64,
    /// Total measured operations across all vusers.
    pub operations: u64,
    /// Fraction of GETs; the rest are PUTs of fresh vuser-unique keys.
    pub read_fraction: f64,
    /// Pacing mode.
    pub mode: LoadMode,
    /// Seed for per-vuser RNG derivation.
    pub seed: u64,
    /// Record each PUT's fate for the crash oracles (costs memory).
    pub track_acks: bool,
}

impl Default for LoadSpec {
    fn default() -> Self {
        LoadSpec {
            connections: 64,
            threads: 2,
            records: 2_000,
            operations: 10_000,
            read_fraction: 0.5,
            mode: LoadMode::Closed { pipeline: 8 },
            seed: 42,
            track_acks: false,
        }
    }
}

/// Nearest-rank latency summary, microseconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct LatencySummary {
    /// 50th percentile.
    pub p50_us: f64,
    /// 99th percentile.
    pub p99_us: f64,
    /// 99.9th percentile.
    pub p999_us: f64,
    /// Arithmetic mean.
    pub mean_us: f64,
    /// Slowest op.
    pub max_us: f64,
    /// Samples folded in.
    pub samples: u64,
}

impl LatencySummary {
    fn from_samples(mut us: Vec<f64>) -> LatencySummary {
        if us.is_empty() {
            return LatencySummary::default();
        }
        us.sort_by(f64::total_cmp);
        let n = us.len();
        LatencySummary {
            p50_us: nearest_rank(&us, 0.50),
            p99_us: nearest_rank(&us, 0.99),
            p999_us: nearest_rank(&us, 0.999),
            mean_us: us.iter().sum::<f64>() / n as f64,
            max_us: us[n - 1],
            samples: n as u64,
        }
    }
}

/// What one load run observed.
#[derive(Clone, Debug, Default)]
pub struct LoadReport {
    /// Requests written to sockets.
    pub ops_sent: u64,
    /// Responses received (excluding errors).
    pub ops_acked: u64,
    /// Error responses received.
    pub errors: u64,
    /// Vuser connections that died mid-run (crash arm signal).
    pub dead_conns: u64,
    /// Wall-clock seconds for the measured phase.
    pub wall_s: f64,
    /// Acked ops per wall second.
    pub throughput: f64,
    /// Latency summary over acked ops.
    pub latency: LatencySummary,
    /// Acknowledged PUTs `(key, val)` — populated when `track_acks`.
    pub acked_puts: Vec<(u64, u64)>,
    /// Sent-but-unacknowledged PUTs — populated when `track_acks`.
    pub unacked_puts: Vec<(u64, u64)>,
    /// Raw latency samples in flight between a worker thread and the
    /// merge — percentiles do not merge, so the parent refolds these.
    #[doc(hidden)]
    pub raw_samples: Vec<f64>,
}

/// The value every load-phase PUT writes for `key` — a pure function, so
/// auditors can reconstruct expected contents without a log.
pub fn put_val(key: u64, seed: u64) -> u64 {
    let mut x = key ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x7a1u64;
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x ^ (x >> 31)
}

/// The value the preload phase writes for `key`.
pub fn preload_val(key: u64) -> u64 {
    key ^ 0x5eed_5eed_5eed_5eed
}

fn vuser_quota(spec: &LoadSpec, v: u32) -> u64 {
    let per = spec.operations / u64::from(spec.connections);
    let rem = spec.operations % u64::from(spec.connections);
    per + u64::from(u64::from(v) < rem)
}

/// The fresh keys vuser `v` inserts, in order: globally unique by
/// construction (disjoint index ranges above the preload range), so final
/// contents are deterministic under any interleaving.
fn insert_key(spec: &LoadSpec, v: u32, i: u64) -> u64 {
    let per = spec.operations / u64::from(spec.connections) + 1;
    key_of_index(spec.records + u64::from(v) * per + i)
}

/// Enumerates every key the load phase *would* insert if it ran to
/// completion — replays each vuser's op-mix RNG without touching a
/// socket. The bench folds its contents checksum over
/// `preload ∪ expected_put_keys`.
pub fn expected_put_keys(spec: &LoadSpec) -> Vec<u64> {
    let mut keys = Vec::new();
    for v in 0..spec.connections {
        let mut rng = utpr_kv::rng::Rng::new(spec.seed ^ (u64::from(v) << 17) ^ 0xab5e);
        let mut inserts = 0u64;
        for _ in 0..vuser_quota(spec, v) {
            if rng.f64() >= spec.read_fraction {
                keys.push(insert_key(spec, v, inserts));
                inserts += 1;
            }
        }
    }
    keys
}

/// A simple blocking client for tests and probes: one request, one
/// response, in order.
pub struct Client {
    stream: TcpStream,
    dec: Decoder,
}

impl Client {
    /// Connects (blocking) to a server.
    ///
    /// # Errors
    ///
    /// Socket failures.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client { stream, dec: Decoder::new() })
    }

    /// Sends `req` and blocks for its response.
    ///
    /// # Errors
    ///
    /// Socket failures, or `InvalidData` on an undecodable response.
    pub fn call(&mut self, req: &Request) -> std::io::Result<Response> {
        let mut out = Vec::new();
        req.encode(&mut out);
        self.stream.write_all(&out)?;
        self.read_response()
    }

    /// Sends a whole slice of requests pipelined, then collects all
    /// responses in order.
    ///
    /// # Errors
    ///
    /// Socket failures, or `InvalidData` on an undecodable response.
    pub fn call_pipelined(&mut self, reqs: &[Request]) -> std::io::Result<Vec<Response>> {
        let mut out = Vec::new();
        for r in reqs {
            r.encode(&mut out);
        }
        self.stream.write_all(&out)?;
        (0..reqs.len()).map(|_| self.read_response()).collect()
    }

    fn read_response(&mut self) -> std::io::Result<Response> {
        let mut buf = [0u8; 4096];
        loop {
            if let Some(body) = self
                .dec
                .next_frame()
                .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e.to_string()))?
            {
                let body = body.to_vec();
                return Response::decode(&body)
                    .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e.to_string()));
            }
            let n = self.stream.read(&mut buf)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "server closed mid-response",
                ));
            }
            self.dec.feed(&buf[..n]);
        }
    }
}

/// Preloads `records` keys over the wire (pipelined PUTs of
/// [`preload_val`]), returning how many were acked.
///
/// # Errors
///
/// Socket failures.
pub fn preload(addr: SocketAddr, records: u64) -> std::io::Result<u64> {
    let mut c = Client::connect(addr)?;
    let mut acked = 0u64;
    let mut i = 0u64;
    while i < records {
        let n = (records - i).min(256);
        let reqs: Vec<Request> = (i..i + n)
            .map(|j| {
                let k = key_of_index(j);
                Request::Put { key: k, val: preload_val(k) }
            })
            .collect();
        for r in c.call_pipelined(&reqs)? {
            acked += u64::from(matches!(r, Response::Done(_)));
        }
        i += n;
    }
    Ok(acked)
}

/// One in-flight request's bookkeeping.
struct InFlight {
    /// When latency starts counting: send time (closed) or intended send
    /// time (open — the coordinated-omission-safe origin).
    t0: Instant,
    /// `Some((key, val))` when this is a PUT the oracles care about.
    put: Option<(u64, u64)>,
}

struct Vuser {
    stream: TcpStream,
    dec: Decoder,
    wbuf: Vec<u8>,
    inflight: VecDeque<InFlight>,
    quota: u64,
    sent: u64,
    acked: u64,
    errors: u64,
    inserts: u64,
    keys: utpr_kv::workload::KeyStream,
    rng: utpr_kv::rng::Rng,
    latencies_us: Vec<f64>,
    acked_puts: Vec<(u64, u64)>,
    unacked_puts: Vec<(u64, u64)>,
    dead: bool,
    /// Open-loop send schedule: next intended send instant.
    next_send: Instant,
    interval: Duration,
}

impl Vuser {
    fn done(&self) -> bool {
        self.dead || (self.sent == self.quota && self.inflight.is_empty())
    }

    fn die(&mut self, track: bool) {
        self.dead = true;
        if track {
            for f in self.inflight.drain(..) {
                if let Some(kv) = f.put {
                    self.unacked_puts.push(kv);
                }
            }
        } else {
            self.inflight.clear();
        }
    }
}

/// Drives one load phase against a running server.
///
/// # Errors
///
/// Connection-establishment failures. (Mid-run socket deaths are data,
/// not errors — they land in `dead_conns`.)
///
/// # Panics
///
/// Panics if `connections`, `threads`, `records`, or an open-loop rate
/// is zero.
pub fn run_load(addr: SocketAddr, spec: &LoadSpec) -> std::io::Result<LoadReport> {
    assert!(spec.connections >= 1 && spec.threads >= 1 && spec.records >= 1);
    if let LoadMode::Open { ops_per_sec } = spec.mode {
        assert!(ops_per_sec > 0.0, "open-loop rate must be positive");
    }
    let universe = KeyUniverse::new(spec.records);

    let reports: Vec<std::io::Result<LoadReport>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..spec.threads)
            .map(|t| {
                let universe = &universe;
                s.spawn(move || drive_thread(addr, spec, universe, t))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("load thread panicked")).collect()
    });

    let mut all_lat: Vec<f64> = Vec::new();
    let mut out = LoadReport::default();
    for r in reports {
        let mut r = r?;
        out.ops_sent += r.ops_sent;
        out.ops_acked += r.ops_acked;
        out.errors += r.errors;
        out.dead_conns += r.dead_conns;
        out.wall_s = out.wall_s.max(r.wall_s);
        all_lat.append(&mut r.raw_samples);
        out.acked_puts.append(&mut r.acked_puts);
        out.unacked_puts.append(&mut r.unacked_puts);
    }
    out.latency = LatencySummary::from_samples(all_lat);
    out.throughput = if out.wall_s > 0.0 { out.ops_acked as f64 / out.wall_s } else { 0.0 };
    Ok(out)
}

fn drive_thread(
    addr: SocketAddr,
    spec: &LoadSpec,
    universe: &KeyUniverse,
    t: u32,
) -> std::io::Result<LoadReport> {
    // Vusers are partitioned contiguously across threads.
    let per = spec.connections / spec.threads;
    let rem = spec.connections % spec.threads;
    let lo = t * per + t.min(rem);
    let n = per + u32::from(t < rem);
    let start = Instant::now();

    let mut vusers: Vec<Vuser> = Vec::with_capacity(n as usize);
    for i in 0..n {
        let v = lo + i;
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        let quota = vuser_quota(spec, v);
        let (interval, first) = match spec.mode {
            LoadMode::Closed { .. } => (Duration::ZERO, start),
            LoadMode::Open { ops_per_sec } => {
                let iv =
                    Duration::from_secs_f64(f64::from(spec.connections) / ops_per_sec);
                // Stagger phases so the fleet doesn't fire in lockstep.
                (iv, start + iv.mul_f64(f64::from(v) / f64::from(spec.connections)))
            }
        };
        vusers.push(Vuser {
            stream,
            dec: Decoder::new(),
            wbuf: Vec::new(),
            inflight: VecDeque::new(),
            quota,
            sent: 0,
            acked: 0,
            errors: 0,
            inserts: 0,
            keys: universe.stream(spec.seed ^ (u64::from(v) << 33) ^ 0x6e7),
            rng: utpr_kv::rng::Rng::new(spec.seed ^ (u64::from(v) << 17) ^ 0xab5e),
            latencies_us: Vec::new(),
            acked_puts: Vec::new(),
            unacked_puts: Vec::new(),
            dead: false,
            next_send: first,
            interval,
        });
    }

    let pipeline = match spec.mode {
        LoadMode::Closed { pipeline } => pipeline.max(1),
        // Open loop bounds memory, not rate: a stalled server backs up
        // the in-flight queue and the tail pays, visibly.
        LoadMode::Open { .. } => 1 << 14,
    };
    let mut rbuf = [0u8; 16 << 10];
    let mut last_progress = Instant::now();

    loop {
        let mut progressed = false;
        let mut all_done = true;
        for u in 0..vusers.len() {
            let v = u as u32 + lo;
            let vu = &mut vusers[u];
            if vu.done() {
                continue;
            }
            all_done = false;

            // Send side.
            let now = Instant::now();
            while !vu.dead && vu.sent < vu.quota && vu.inflight.len() < pipeline {
                let (t0, ready) = match spec.mode {
                    LoadMode::Closed { .. } => (now, true),
                    LoadMode::Open { .. } => (vu.next_send, vu.next_send <= now),
                };
                if !ready {
                    break;
                }
                let is_put = vu.rng.f64() >= spec.read_fraction;
                let (req, put) = if is_put {
                    let key = insert_key(spec, v, vu.inserts);
                    vu.inserts += 1;
                    let val = put_val(key, spec.seed);
                    (Request::Put { key, val }, Some((key, val)))
                } else {
                    (Request::Get { key: vu.keys.next_key() }, None)
                };
                req.encode(&mut vu.wbuf);
                vu.inflight.push_back(InFlight { t0, put });
                vu.sent += 1;
                vu.next_send += vu.interval;
                progressed = true;
            }
            while !vu.wbuf.is_empty() {
                match vu.stream.write(&vu.wbuf) {
                    Ok(0) => {
                        vu.die(spec.track_acks);
                        break;
                    }
                    Ok(k) => {
                        vu.wbuf.drain(..k);
                        progressed = true;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(_) => {
                        vu.die(spec.track_acks);
                        break;
                    }
                }
            }

            // Receive side.
            if vu.dead {
                continue;
            }
            loop {
                match vu.stream.read(&mut rbuf) {
                    Ok(0) => {
                        vu.die(spec.track_acks);
                        break;
                    }
                    Ok(k) => {
                        progressed = true;
                        vu.dec.feed(&rbuf[..k]);
                        loop {
                            let ok = match vu.dec.next_frame() {
                                Ok(Some(body)) => {
                                    let is_err = matches!(
                                        Response::decode(body),
                                        Ok(Response::Err(..)) | Err(_)
                                    );
                                    !is_err
                                }
                                Ok(None) => break,
                                Err(_) => {
                                    vu.die(spec.track_acks);
                                    break;
                                }
                            };
                            let Some(f) = vu.inflight.pop_front() else {
                                vu.die(spec.track_acks);
                                break;
                            };
                            let us = f.t0.elapsed().as_secs_f64() * 1e6;
                            vu.latencies_us.push(us);
                            if ok {
                                vu.acked += 1;
                                if let (Some(kv), true) = (f.put, spec.track_acks) {
                                    vu.acked_puts.push(kv);
                                }
                            } else {
                                vu.errors += 1;
                            }
                        }
                        if k < rbuf.len() {
                            break;
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(_) => {
                        vu.die(spec.track_acks);
                        break;
                    }
                }
            }
        }
        if all_done {
            break;
        }
        // The shard loop's linger, for its reason: a harness that dozes
        // between passes times its own naps, not the server.
        end_pass(progressed, &mut last_progress, Duration::from_micros(100));
    }

    let wall = start.elapsed().as_secs_f64();
    let mut out = LoadReport { wall_s: wall, ..LoadReport::default() };
    for mut vu in vusers {
        out.ops_sent += vu.sent;
        out.ops_acked += vu.acked;
        out.errors += vu.errors;
        out.dead_conns += u64::from(vu.dead);
        out.raw_samples.append(&mut vu.latencies_us);
        out.acked_puts.append(&mut vu.acked_puts);
        out.unacked_puts.append(&mut vu.unacked_puts);
    }
    Ok(out)
}

/// Shape of one kill-the-server-mid-load trial.
#[derive(Clone, Copy, Debug)]
pub struct KillSpec {
    /// Server shape (eADR expected — the clean-crash model the mt sweeps
    /// use; ADR torn drains are a different experiment).
    pub cfg: ServeConfig,
    /// The load to die under. `track_acks` is forced on.
    pub load: LoadSpec,
    /// Where in the measured boundary budget the gate lands, as a
    /// seeded fraction drawn from `(0.1, 0.1 + crash_window)`.
    pub crash_window: f64,
    /// Trial seed (pass `utpr_qc::runner::base_seed()` for replayability).
    pub seed: u64,
}

/// What one kill trial observed. `oracle_failures` empty ⇔ pass.
#[derive(Clone, Debug, Default)]
pub struct KillReport {
    /// The armed boundary index.
    pub boundary: u64,
    /// Whether the gate actually tripped mid-load.
    pub crashed: bool,
    /// Whether recovery rolled back an open transaction.
    pub rolled_back: bool,
    /// PUTs the client saw acked / sent-unacked.
    pub acked: u64,
    /// PUTs sent but never acknowledged.
    pub unacked: u64,
    /// Oracle violations, formatted with the `UTPR_QC_SEED` replay line.
    pub oracle_failures: Vec<String>,
    /// Whether the relaunched server served a probe PUT+GET.
    pub revived: bool,
}

/// Runs the kill arm: probe boundaries, arm the gate, drive load into the
/// crash, recover, audit, relaunch.
///
/// # Errors
///
/// Harness failures (launch, preload, sockets) — oracle *verdicts* are
/// data in the report, not errors.
///
/// # Panics
///
/// Panics if the load spec is degenerate (see [`run_load`]).
pub fn kill_arm(spec: &KillSpec) -> Result<KillReport> {
    let fail = |k: u64, detail: String| {
        SweepFailure { crash_point: k, seed: spec.seed, detail }.to_string()
    };
    let mut load = spec.load;
    load.track_acks = true;

    // Phase 1: boundary census. A short unarmed probe measures durable
    // writes per op so the gate can be aimed mid-load.
    let handle = Server::launch(&spec.cfg)?;
    let addr = handle.addr();
    preload(addr, load.records).map_err(ServeError::Io)?;
    handle.pool().set_faults(FaultPlan::counting());
    let mut probe = load;
    probe.operations = (load.operations / 10).max(64);
    probe.track_acks = false;
    run_load(addr, &probe).map_err(ServeError::Io)?;
    let per_op =
        handle.pool().faults().writes() as f64 / probe.operations.max(1) as f64;
    handle.shutdown();

    // Phase 2: armed run on a fresh server. The boundary is a seeded
    // fraction of the full load's budget, placed past warmup.
    let frac = 0.1
        + (splitmix64(spec.seed ^ 0x6b31_6c6c) as f64 / u64::MAX as f64)
            * spec.crash_window.clamp(0.01, 0.8);
    let budget = per_op * load.operations as f64;
    let k = (budget * frac).max(8.0) as u64;

    let handle = Server::launch(&spec.cfg)?;
    let addr = handle.addr();
    preload(addr, load.records).map_err(ServeError::Io)?;
    handle.pool().set_faults(FaultPlan::crash_at(k));
    let lr = run_load(addr, &load).map_err(ServeError::Io)?;
    let pool = handle.pool().clone();
    let (_, crashed) = handle.join();

    let mut out = KillReport {
        boundary: k,
        crashed,
        acked: lr.acked_puts.len() as u64,
        unacked: lr.unacked_puts.len() as u64,
        ..KillReport::default()
    };
    if !crashed {
        out.oracle_failures.push(fail(
            k,
            format!(
                "armed run completed without crashing (k={k} past the load's boundary budget)"
            ),
        ));
        return Ok(out);
    }

    // Phase 3: recovery + oracles, the faultsweep battery over the wire's
    // ack log. The power cycle runs under the armed plan, so recovery's own
    // finds nothing left to drain.
    pool.crash_restart();
    out.rolled_back = Server::recover(&pool)?;
    let mut view = DirectView::open(&pool, spec.cfg.shards)?;
    if let Err(e) = view.validate() {
        out.oracle_failures.push(fail(k, e));
    }
    for &(key, val) in &lr.acked_puts {
        match view.get(key)? {
            Some(v) if v == val => {}
            got => {
                out.oracle_failures.push(fail(
                    k,
                    format!("acked PUT {key:#x}={val:#x} reads back as {got:?}"),
                ));
            }
        }
    }
    for &(key, val) in &lr.unacked_puts {
        match view.get(key)? {
            None => {}
            Some(v) if v == val => {}
            Some(v) => {
                out.oracle_failures.push(fail(
                    k,
                    format!(
                        "unacked PUT {key:#x} is neither absent nor committed: holds {v:#x} (wrote {val:#x})"
                    ),
                ));
            }
        }
    }
    drop(view);

    // Phase 4: the reborn server must serve.
    let handle = Server::launch_on(&spec.cfg, &pool)?;
    let mut c = Client::connect(handle.addr()).map_err(ServeError::Io)?;
    let probe_key = key_of_index(u64::MAX / 2);
    let put = c.call(&Request::Put { key: probe_key, val: 0xa11ce });
    let get = c.call(&Request::Get { key: probe_key });
    out.revived = matches!(put, Ok(Response::Done(_)))
        && matches!(get, Ok(Response::Value(Some(0xa11ce))));
    if !out.revived {
        out.oracle_failures
            .push(fail(k, "relaunched server failed the PUT+GET probe".into()));
    }
    handle.shutdown();
    Ok(out)
}

