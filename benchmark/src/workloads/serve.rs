//! `serve_open_mixed` and `serve_closed_mixed`: `mix-A` over loopback TCP
//! against `utpr-serve`, driven by the benchmark's own load generator —
//! one thread multiplexing two non-blocking connections, yielding when
//! idle and never sleeping. `utpr_serve::proto` supplies the wire bytes
//! and nothing else: the program's `run_load` harness (and its idle
//! sleep) is part of what later PRs will change.
//!
//! Each connection is one `mix-A` issuer, so every written key has one
//! writer; the server applies one connection's ops on one key in FIFO
//! order, which makes every PUT/DELETE answer and every GET of an owned
//! key exactly predictable at send time.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use utpr_heap::FlushModel;
use utpr_serve::proto::{Decoder, Request, Response};
use utpr_serve::{
    kill_arm, DirectView, KillSpec, LoadMode, LoadSpec, ServeConfig, ServeCounters, Server,
    ServerHandle,
};

use super::{finish, measure, timed, Phase, MIN_WINDOWS, SPAN_SAMPLE};
use crate::estimator::{median, probe_ns, summarize, Fold, Latencies, Window};
use crate::report::Outcome;
use crate::stream::{key_of, preload_val, Expect, MixA, Op};
use crate::trace::Tracer;
use crate::{host, RunArgs};

pub const RECORDS: u64 = 50_000;
pub const CONNS: usize = 2;
pub const SHARDS: u32 = 2;
/// Offered rate of `serve_open_mixed`, ops/s.
pub const OPEN_RATE: u64 = 10_000;
/// Acknowledged ops per open-loop window: an eighth of a second of due
/// time. A host stall of some milliseconds spoils the p99 of the window it
/// falls in, so windows are as short as p99 allows: 12 samples beyond it.
pub const OPEN_WINDOW: u64 = OPEN_RATE / 8;
/// In-flight requests per connection in `serve_closed_mixed`.
pub const PIPELINE: usize = 32;
/// Acknowledged ops per closed-loop window (about 0.12 s).
pub const CLOSED_WINDOW: u64 = 10_000;
/// The latency limit a rate step must hold at p99, and an op must beat
/// not to count as an SLO miss.
pub const SLO_US: f64 = 2_000.0;
/// The generator discards an open-loop window it ran late in.
pub const MAX_SCHED_LAG_US: f64 = 500.0;
/// Offered rates of the traced run's steps, ops/s, four seconds each.
pub const STEP_RATES: [u64; 3] = [10_000, 20_000, 40_000];
const STEP_SECONDS: u64 = 4;
/// No acknowledgement for this long with requests outstanding: the
/// connection counts as dead and its requests as lost.
const STALL: Duration = Duration::from_secs(5);

fn config() -> ServeConfig {
    ServeConfig {
        shards: SHARDS,
        batch_window: 8,
        pool_bytes: 256 << 20,
        slab_bytes: 1 << 20,
        flush_model: FlushModel::Eadr,
        seed: 42,
    }
}

/// A launched, preloaded server; shut down when dropped.
struct Served(Option<ServerHandle>);

impl Served {
    fn launch() -> Served {
        let handle = Server::launch(&config()).expect("server launch");
        let served = Served(Some(handle));
        served.preload().expect("preload over the wire");
        served
    }

    fn handle(&self) -> &ServerHandle {
        self.0.as_ref().expect("server is up until dropped")
    }

    /// Loads `RECORDS` keys as pipelined PUTs on one blocking connection,
    /// 2 048 in flight at a time: few enough round trips that the load is
    /// the server's work, not its poll timing.
    fn preload(&self) -> std::io::Result<()> {
        let mut wire = Wire::connect(self.handle().addr())?;
        let mut out = Vec::new();
        for start in (0..RECORDS).step_by(2048) {
            let batch = start..(start + 2048).min(RECORDS);
            out.clear();
            for key in batch.clone().map(key_of) {
                Request::Put {
                    key,
                    val: preload_val(key),
                }
                .encode(&mut out);
            }
            wire.stream.write_all(&out)?;
            for _ in batch {
                if !matches!(wire.response()?, Response::Done(None)) {
                    return Err(std::io::Error::other(
                        "preload PUT not acknowledged as fresh",
                    ));
                }
            }
        }
        Ok(())
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        if let Some(h) = self.0.take() {
            h.shutdown();
        }
    }
}

/// One blocking connection, one response at a time: preload and the
/// round-trip probes.
struct Wire {
    stream: TcpStream,
    dec: Decoder,
}

impl Wire {
    fn connect(addr: SocketAddr) -> std::io::Result<Wire> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(STALL))?;
        Ok(Wire {
            stream,
            dec: Decoder::new(),
        })
    }

    fn response(&mut self) -> std::io::Result<Response> {
        let mut buf = [0u8; 4096];
        loop {
            let frame = self
                .dec
                .next_frame()
                .map_err(|e| std::io::Error::other(e.to_string()))?;
            if let Some(body) = frame {
                return Response::decode(body).map_err(|e| std::io::Error::other(e.to_string()));
            }
            let n = self.stream.read(&mut buf)?;
            if n == 0 {
                return Err(ErrorKind::UnexpectedEof.into());
            }
            self.dec.feed(&buf[..n]);
        }
    }

    /// Median round trip of `n` calls of `req`, one in flight at a time.
    fn rtt_p50_us(
        &mut self,
        n: usize,
        mut req: impl FnMut(usize) -> Request,
    ) -> std::io::Result<f64> {
        let mut lat = Latencies::with_capacity(n);
        let mut out = Vec::new();
        for i in 0..n {
            out.clear();
            req(i).encode(&mut out);
            let t0 = Instant::now();
            self.stream.write_all(&out)?;
            if matches!(self.response()?, Response::Err(..)) {
                return Err(std::io::Error::other("probe answered with an error"));
            }
            lat.push(t0.elapsed().as_nanos() as u64);
        }
        lat.quantile_us(0.5)
            .ok_or_else(|| std::io::Error::other("too few probe samples"))
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Get,
    Put,
    Del,
}

struct InFlight {
    /// Latency origin: due time (open loop) or send time (closed loop).
    t0: Instant,
    kind: Kind,
    expect: Expect,
}

struct Conn {
    stream: TcpStream,
    dec: Decoder,
    wbuf: Vec<u8>,
    inflight: VecDeque<InFlight>,
    mix: MixA,
    dead: bool,
}

/// What the generator accumulates between two window boundaries.
#[derive(Default)]
struct Acc {
    acked: u64,
    lat: Latencies,
    get_lat: Latencies,
    put_lat: Latencies,
    lag: Latencies,
    slo_misses: u64,
    spans: Vec<(Kind, Instant, Instant)>,
}

/// One window as the generator saw it.
struct Slice {
    window: Window,
    get_p50_us: Option<f64>,
    put_p50_us: Option<f64>,
    sched_lag_p99_us: Option<f64>,
    slo_misses: u64,
}

/// How requests are paced.
#[derive(Clone, Copy)]
enum Pace {
    /// Op `n` is due `n / rate` seconds after the origin, whatever came back.
    Open {
        rate: u64,
        origin: Instant,
        issued: u64,
    },
    /// Each connection keeps `PIPELINE` requests in flight.
    Closed,
}

/// The load generator: one thread, `CONNS` non-blocking connections.
struct Generator {
    conns: Vec<Conn>,
    pace: Pace,
    acc: Acc,
    sent: u64,
    acked: u64,
    max_backlog: u64,
    last_progress: Instant,
    rbuf: Vec<u8>,
    trace: bool,
}

impl Generator {
    fn connect(addr: SocketAddr, seed: u64, pace: Pace) -> std::io::Result<Generator> {
        let conns = (0..CONNS as u64)
            .map(|c| {
                let stream = TcpStream::connect(addr)?;
                stream.set_nodelay(true)?;
                stream.set_nonblocking(true)?;
                Ok(Conn {
                    stream,
                    dec: Decoder::new(),
                    wbuf: Vec::new(),
                    inflight: VecDeque::new(),
                    mix: MixA::new(seed, c, CONNS as u64, RECORDS),
                    dead: false,
                })
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        Ok(Generator {
            conns,
            pace,
            acc: Acc::default(),
            sent: 0,
            acked: 0,
            max_backlog: 0,
            last_progress: Instant::now(),
            rbuf: vec![0; 64 << 10],
            trace: false,
        })
    }

    /// Restarts the open-loop schedule at `rate` from now.
    fn set_rate(&mut self, rate: u64) {
        self.pace = Pace::Open {
            rate,
            origin: Instant::now(),
            issued: 0,
        };
    }

    fn backlog(&self) -> u64 {
        self.sent - self.acked
    }

    /// Draws the next op of connection `c`, queues its frame, and books
    /// it in flight with latency origin `t0`.
    fn issue(&mut self, c: usize, t0: Instant) {
        let conn = &mut self.conns[c];
        let (op, expect) = conn.mix.next_op();
        let (req, kind) = match op {
            Op::Get(key) => (Request::Get { key }, Kind::Get),
            Op::Put(key, val) => (Request::Put { key, val }, Kind::Put),
            Op::Del(key) => (Request::Del { key }, Kind::Del),
        };
        req.encode(&mut conn.wbuf);
        conn.inflight.push_back(InFlight { t0, kind, expect });
        self.sent += 1;
    }

    /// One pass over the connections: issue what is due, push bytes, pull
    /// and check answers. Returns whether anything moved.
    fn step(&mut self, o: &mut Outcome) -> bool {
        let mut progressed = false;
        let now = Instant::now();
        match self.pace {
            Pace::Open {
                rate,
                origin,
                mut issued,
            } => {
                let due = |n: u64| origin + Duration::from_nanos(n * 1_000_000_000 / rate);
                while due(issued) <= now {
                    let c = (issued % CONNS as u64) as usize;
                    if !self.conns[c].dead {
                        self.issue(c, due(issued));
                        self.acc.lag.push((now - due(issued)).as_nanos() as u64);
                    }
                    issued += 1;
                    progressed = true;
                }
                self.pace = Pace::Open {
                    rate,
                    origin,
                    issued,
                };
            }
            Pace::Closed => {
                for c in 0..self.conns.len() {
                    while !self.conns[c].dead && self.conns[c].inflight.len() < PIPELINE {
                        self.issue(c, now);
                        progressed = true;
                    }
                }
            }
        }
        self.max_backlog = self.max_backlog.max(self.backlog());

        for c in 0..self.conns.len() {
            if self.conns[c].dead {
                continue;
            }
            progressed |= self.push_bytes(c, o);
            progressed |= self.pull_answers(c, o);
        }
        if progressed {
            self.last_progress = now;
        } else if self.backlog() > 0 && now - self.last_progress > STALL {
            for c in 0..self.conns.len() {
                self.kill(c, o, "no acknowledgement for 5 s");
            }
        }
        progressed
    }

    /// Marks connection `c` dead; everything it had in flight is lost.
    fn kill(&mut self, c: usize, o: &mut Outcome, why: &str) {
        let conn = &mut self.conns[c];
        if conn.dead {
            return;
        }
        conn.dead = true;
        let lost = conn.inflight.len() as u64;
        conn.inflight.clear();
        o.attempted += lost;
        o.failed += lost;
        self.acked += lost;
        o.violation(format!(
            "connection {c} died ({why}) with {lost} requests outstanding"
        ));
    }

    fn push_bytes(&mut self, c: usize, o: &mut Outcome) -> bool {
        let mut progressed = false;
        while !self.conns[c].wbuf.is_empty() {
            let conn = &mut self.conns[c];
            match conn.stream.write(&conn.wbuf) {
                Ok(0) => {
                    self.kill(c, o, "socket closed on write");
                    break;
                }
                Ok(n) => {
                    conn.wbuf.drain(..n);
                    progressed = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) => {
                    self.kill(c, o, &e.to_string());
                    break;
                }
            }
        }
        progressed
    }

    fn pull_answers(&mut self, c: usize, o: &mut Outcome) -> bool {
        let mut progressed = false;
        loop {
            let n = match self.conns[c].stream.read(&mut self.rbuf) {
                Ok(0) => {
                    self.kill(c, o, "server hung up");
                    break;
                }
                Ok(n) => n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) => {
                    self.kill(c, o, &e.to_string());
                    break;
                }
            };
            progressed = true;
            let arrived = Instant::now();
            let conn = &mut self.conns[c];
            conn.dec.feed(&self.rbuf[..n]);
            loop {
                let body = match conn.dec.next_frame() {
                    Ok(Some(body)) => body,
                    Ok(None) => break,
                    Err(e) => {
                        let why = e.to_string();
                        self.kill(c, o, &why);
                        return true;
                    }
                };
                let Some(f) = conn.inflight.pop_front() else {
                    self.kill(c, o, "answer without a request");
                    return true;
                };
                let ok = match (f.kind, Response::decode(body)) {
                    (Kind::Get, Ok(Response::Value(v)))
                    | (Kind::Put, Ok(Response::Done(v)))
                    | (Kind::Del, Ok(Response::Removed(v))) => f.expect.matches(v),
                    _ => false,
                };
                o.check(ok);
                self.acked += 1;
                let ns = (arrived - f.t0).as_nanos() as u64;
                let acc = &mut self.acc;
                acc.acked += 1;
                acc.lat.push(ns);
                if f.kind == Kind::Get {
                    &mut acc.get_lat
                } else {
                    &mut acc.put_lat
                }
                .push(ns);
                acc.slo_misses += u64::from(!ok || ns as f64 / 1e3 > SLO_US);
                if self.trace && acc.acked.is_multiple_of(SPAN_SAMPLE as u64) {
                    acc.spans.push((f.kind, f.t0, arrived));
                }
            }
            if n < self.rbuf.len() {
                break;
            }
        }
        progressed
    }

    /// Runs until `acks` more answers have arrived (or every connection
    /// is dead) and returns what happened in between as one window.
    fn window(&mut self, acks: u64, o: &mut Outcome, tracer: &mut Tracer) -> Slice {
        self.trace = tracer.on();
        let t0 = Instant::now();
        self.acc = Acc::default();
        while self.acc.acked < acks && self.conns.iter().any(|c| !c.dead) {
            if !self.step(o) {
                std::thread::yield_now();
            }
        }
        let t1 = Instant::now();
        let mut acc = std::mem::take(&mut self.acc);
        let span = tracer.record("serve.window", t0, t1, None);
        for (kind, start, end) in acc.spans.drain(..) {
            let name = match kind {
                Kind::Get => "serve.server.get",
                Kind::Put => "serve.server.put",
                Kind::Del => "serve.server.del",
            };
            tracer.record(name, start, end, span);
        }
        Slice {
            get_p50_us: acc.get_lat.quantile_us(0.5),
            put_p50_us: acc.put_lat.quantile_us(0.5),
            sched_lag_p99_us: acc.lag.quantile_us(0.99),
            slo_misses: acc.slo_misses,
            window: Window::fold(acc.acked, (t1 - t0).as_secs_f64(), &mut acc.lat),
        }
    }

    /// Stops issuing and waits for everything outstanding.
    fn drain(&mut self, o: &mut Outcome) {
        self.pace = Pace::Open {
            rate: 1,
            origin: Instant::now() + Duration::from_secs(3600),
            issued: 0,
        };
        while self.backlog() > 0 && self.conns.iter().any(|c| !c.dead) {
            if !self.step(o) {
                std::thread::yield_now();
            }
        }
    }
}

/// Side numbers a serve phase collects next to its windows.
#[derive(Default)]
struct Side {
    get_p50: Vec<f64>,
    put_p50: Vec<f64>,
    lag_p99: Vec<f64>,
    slo_misses: u64,
    acked: u64,
    discarded: usize,
}

/// Runs the measured phase. An open-loop window in which the generator
/// ran late (`load.sched_lag_p99_us` above 500 µs) or the achieved rate
/// fell below 99 % of offered is discarded and run again, not averaged in.
/// Once it has discarded twice as many windows as it was asked to measure,
/// the run gives up on the host and is invalid.
fn run_phase(
    gen: &mut Generator,
    acks: u64,
    args: &RunArgs,
    o: &mut Outcome,
    tracer: &mut Tracer,
) -> (Phase, Side) {
    let mut side = Side::default();
    let offered = match gen.pace {
        Pace::Open { rate, .. } => Some(rate as f64),
        Pace::Closed => None,
    };
    let max_discards = offered
        .map_or(0, |r| {
            (2.0 * args.seconds * r / acks as f64).ceil() as usize
        })
        .max(MIN_WINDOWS);
    let phase = measure(args, Fold::Undisturbed, tracer, |i, tracer| loop {
        let s = gen.window(acks, o, tracer);
        if i == 0 {
            return s.window;
        }
        let late = s.sched_lag_p99_us.is_some_and(|l| l > MAX_SCHED_LAG_US);
        let slow = offered.is_some_and(|r| (s.window.ops as f64 / s.window.secs) < 0.99 * r);
        if late || slow {
            side.discarded += 1;
            if side.discarded <= max_discards {
                continue;
            }
            if side.discarded == max_discards + 1 {
                o.violation(format!(
                    "generator self-check: more than {max_discards} windows ran late (sched lag \
                     p99 > {MAX_SCHED_LAG_US} us) or below 99 % of the offered rate"
                ));
            }
        }
        side.get_p50.extend(s.get_p50_us);
        side.put_p50.extend(s.put_p50_us);
        side.lag_p99.extend(s.sched_lag_p99_us);
        side.slo_misses += s.slo_misses;
        side.acked += s.window.ops;
        return s.window;
    });
    (phase, side)
}

/// The contents gate, through the auditors' door: every key the model
/// holds reads back with its value, every deleted key reads back absent,
/// the count matches, and each shard's tree validates.
fn verify(served: Served, gen: &Generator, o: &mut Outcome) {
    let dead = gen.conns.iter().filter(|c| c.dead).count();
    if dead > 0 {
        o.violation(format!("{dead} dead connections"));
    }
    let mut served = served;
    let handle = served.0.take().expect("server is up until verified");
    let pool = handle.pool().clone();
    let (counters, crashed) = handle.shutdown();
    if crashed || counters.proto_errors > 0 {
        o.violation(format!(
            "server crashed={crashed}, proto_errors={}",
            counters.proto_errors
        ));
    }
    let mut view = match DirectView::open(&pool, SHARDS) {
        Ok(v) => v,
        Err(e) => return o.violation(format!("direct view: {e}")),
    };
    let mut wrong = 0u64;
    for conn in &gen.conns {
        conn.mix.for_each_final(|k, want| {
            wrong += u64::from(view.get(k).ok() != Some(want));
        });
    }
    let model_len: u64 = gen.conns.iter().map(|c| c.mix.final_len()).sum();
    if wrong > 0 {
        o.violation(format!(
            "{wrong} keys read back different from the generator's model"
        ));
    }
    match view.len() {
        Ok(n) if n == model_len => {}
        other => o.violation(format!("server holds {other:?} keys, model {model_len}")),
    }
    if let Err(e) = view.validate() {
        o.violation(e);
    }
}

/// Server-side counters over a phase, per acknowledged write.
fn counter_metrics(before: &ServeCounters, after: &ServeCounters, o: &mut Outcome) {
    let d = |f: fn(&ServeCounters) -> u64| (f(after) - f(before)) as f64;
    let writes = d(ServeCounters::writes).max(1.0);
    o.set(
        "serve.server.ops_per_write_txn",
        writes / d(|c| c.write_txns).max(1.0),
    );
    o.set(
        "serve.server.fences_elided_per_write",
        d(|c| c.fences_elided) / writes,
    );
    o.set(
        "serve.server.gets_per_read_chunk",
        d(|c| c.gets) / d(|c| c.read_chunks).max(1.0),
    );
    o.set(
        "serve.server.fences_per_write",
        d(|c| c.pool_fences) / writes,
    );
}

/// Frames per generator self-probe, timed in [`PROBE_CHUNKS`] chunks.
const PROBE_FRAMES: usize = 200_000;
const PROBE_CHUNKS: usize = 50;

/// The generator and the codec with no socket between them: what drawing
/// and encoding an op costs, and what encoding plus streaming decode of
/// the workload's own request frames costs.
fn codec_probes(seed: u64, o: &mut Outcome, tracer: &mut Tracer) {
    let per_chunk = PROBE_FRAMES / PROBE_CHUNKS;
    let span = tracer.open("load.gen", None);
    let mut mix = MixA::new(seed, 0, CONNS as u64, RECORDS);
    let mut reqs = Vec::with_capacity(PROBE_FRAMES);
    let mut wire = Vec::new();
    let gen_ns = probe_ns(PROBE_CHUNKS, per_chunk, |_| {
        let req = match mix.next_op().0 {
            Op::Get(key) => Request::Get { key },
            Op::Put(key, val) => Request::Put { key, val },
            Op::Del(key) => Request::Del { key },
        };
        req.encode(&mut wire);
        reqs.push(req);
    });
    o.set("load.gen_ns_per_op", gen_ns);
    tracer.close(span);

    // A chunk of frames is encoded, then fed to the decoder whole.
    let span = tracer.open("serve.proto", None);
    let mut dec = Decoder::new();
    let mut out = Vec::with_capacity(wire.len());
    let mut decoded = 0usize;
    let mut same = true;
    let proto_ns = probe_ns(PROBE_CHUNKS, 1, |c| {
        let from = out.len();
        for r in &reqs[c * per_chunk..(c + 1) * per_chunk] {
            r.encode(&mut out);
        }
        dec.feed(&out[from..]);
        while let Ok(Some(body)) = dec.next_frame() {
            same &= Request::decode(body).as_ref() == Ok(&reqs[decoded]);
            decoded += 1;
        }
    }) / per_chunk as f64;
    o.set("serve.proto.ns_per_frame", proto_ns);
    tracer.close(span);
    if !same || decoded != PROBE_FRAMES || out != wire {
        o.violation(format!(
            "proto probe: {decoded} of {PROBE_FRAMES} frames round-tripped, same={same}"
        ));
    }
}

fn phase_metrics(o: &mut Outcome, side: &Side, gen: &Generator) {
    if !side.get_p50.is_empty() && !side.put_p50.is_empty() {
        o.set("serve.server.get_p50_us", median(&side.get_p50));
        o.set("serve.server.put_p50_us", median(&side.put_p50));
    }
    if !side.lag_p99.is_empty() {
        o.set("load.sched_lag_p99_us", median(&side.lag_p99));
    }
    o.set(
        "serve.server.slo_miss_ratio",
        side.slo_misses as f64 / side.acked.max(1) as f64,
    );
    o.set("load.max_backlog", gen.max_backlog as f64);
}

pub fn run_open(args: &RunArgs, tracer: &mut Tracer) -> Outcome {
    let mut o = Outcome::default();
    let (served, setup_s) = timed(Served::launch);
    let addr = served.handle().addr();
    let mut gen = Generator::connect(addr, args.seed, Pace::Closed).expect("generator connect");

    let mut probes = None;
    if args.trace {
        // Before any load: what one request costs with nothing queued.
        let span = tracer.open("serve.server.rtt", None);
        let mut wire = Wire::connect(addr).expect("probe connect");
        let n = 2_000;
        let probe_key = |i: usize| key_of(RECORDS + (1 << 40) + i as u64 % 64);
        let ping = wire.rtt_p50_us(n, |_| Request::Ping).expect("ping probe");
        let get = wire
            .rtt_p50_us(n, |i| Request::Get {
                key: key_of(i as u64 % RECORDS),
            })
            .expect("get probe");
        let put = wire
            .rtt_p50_us(n, |i| Request::Put {
                key: probe_key(i),
                val: i as u64,
            })
            .expect("put probe");
        for i in 0..64 {
            wire.rtt_p50_us(1, |_| Request::Del { key: probe_key(i) })
                .ok();
        }
        tracer.close(span);

        // Connections open and silent: what an idle server burns.
        let span = tracer.open("serve.server.idle", None);
        let (cpu0, t0) = (host::cpu_seconds(), Instant::now());
        std::thread::sleep(Duration::from_secs(1));
        let idle = (host::cpu_seconds() - cpu0) / t0.elapsed().as_secs_f64();
        tracer.close(span);
        probes = Some((ping, get, put, idle));
    }

    gen.set_rate(OPEN_RATE);
    let before = served.handle().counters();
    let (phase, side) = run_phase(&mut gen, OPEN_WINDOW, args, &mut o, tracer);
    let after = served.handle().counters();

    if let Some((ping, get, put, idle)) = probes {
        o.set("serve.server.ping_rtt_p50_us", ping);
        o.set("serve.server.get_rtt_p50_us", get);
        o.set("serve.server.put_rtt_p50_us", put);
        o.set("serve.server.idle_cpu_ratio", idle);
        let p50 = phase.summary().p50_us.unwrap_or(f64::NAN);
        o.set("serve.server.ping_rtt_share_of_p50", ping / p50);
        phase_metrics(&mut o, &side, &gen);
        counter_metrics(&before, &after, &mut o);
        rate_steps(&mut gen, &mut o, tracer);
        codec_probes(args.seed, &mut o, tracer);
    }
    gen.drain(&mut o);
    verify(served, &gen, &mut o);
    finish(&mut o, args, &phase, setup_s, |_| Served::launch());
    if !args.trace {
        // An open loop's rate is offered to it, not won by it: its best
        // windows are the ones that caught up after a stall. The typical
        // window states the rate the latencies were measured at.
        o.set("ops_per_s", summarize(&phase.plain, Fold::Median).ops_per_s);
    }
    o
}

/// Latency at each of a few fixed rates, and the highest that holds the
/// limit: window-median p99 at most `SLO_US`, nothing failed, the offered
/// rate achieved, and no more than the limit's worth of requests still
/// queued when the step ends.
fn rate_steps(gen: &mut Generator, o: &mut Outcome, tracer: &mut Tracer) {
    let mut best = 0u64;
    for rate in STEP_RATES {
        let span = tracer.open("serve.server.rate_step", None);
        let failed_before = o.failed;
        gen.set_rate(rate);
        gen.window(rate, o, tracer);
        let windows: Vec<Window> = (0..STEP_SECONDS)
            .map(|_| gen.window(rate, o, tracer).window)
            .collect();
        let backlog = gen.backlog();
        let s = summarize(&windows, Fold::Median);
        tracer.close(span);
        let Some(p99) = s.p99_us else { continue };
        o.set(&format!("serve.server.p99_us.r{}k", rate / 1000), p99);
        let ok = p99 <= SLO_US
            && o.failed == failed_before
            && s.ops_per_s >= 0.99 * rate as f64
            && (backlog as f64) <= rate as f64 * SLO_US / 1e6;
        if ok {
            best = best.max(rate);
        }
    }
    o.set("serve.server.max_rate_ok", best as f64);
}

pub fn run_closed(args: &RunArgs, tracer: &mut Tracer) -> Outcome {
    let mut o = Outcome::default();
    let (served, setup_s) = timed(Served::launch);
    let mut gen = Generator::connect(served.handle().addr(), args.seed, Pace::Closed)
        .expect("generator connect");
    let before = served.handle().counters();
    let (phase, side) = run_phase(&mut gen, CLOSED_WINDOW, args, &mut o, tracer);
    let after = served.handle().counters();
    gen.drain(&mut o);
    if args.trace {
        phase_metrics(&mut o, &side, &gen);
        counter_metrics(&before, &after, &mut o);
        codec_probes(args.seed, &mut o, tracer);
    }
    verify(served, &gen, &mut o);

    // The durability gate: kill a server mid-load and audit what recovery
    // leaves — acked present, unacked committed-or-absent, revived.
    let span = tracer.open("serve.durability", None);
    let kill = kill_arm(&KillSpec {
        cfg: config(),
        load: LoadSpec {
            connections: 8,
            threads: 2,
            records: 2_000,
            operations: 4_000,
            read_fraction: 0.5,
            mode: LoadMode::Closed { pipeline: 8 },
            seed: args.seed,
            track_acks: true,
        },
        crash_window: 0.5,
        seed: args.seed,
    });
    tracer.close(span);
    let durable = match kill {
        Ok(report) => {
            for f in &report.oracle_failures {
                o.violation(format!("durability: {f}"));
            }
            report.oracle_failures.is_empty()
        }
        Err(e) => {
            o.violation(format!("durability: kill arm could not run: {e}"));
            false
        }
    };
    if args.trace {
        o.set("serve.durability_ok", f64::from(u8::from(durable)));
    }
    finish(&mut o, args, &phase, setup_s, |_| Served::launch());
    o
}
