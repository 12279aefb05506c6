//! Thread-per-shard TCP server with fence-amortizing group commit.
//!
//! ## Architecture
//!
//! One acceptor thread hands incoming connections round-robin to
//! `shards` event-loop threads. Each shard thread owns a disjoint key
//! partition (`shard_of(key)`), its own [`KvStore`] over the shared
//! pool, its own allocation slab, and its own undo-log slot — single
//! writer per partition, exactly the `utpr-kv::mt` discipline, with the
//! wire in front. Requests for keys another shard owns are forwarded
//! over a channel and answered back through a completion channel;
//! per-connection sequence numbers keep pipelined responses in request
//! order regardless of which shard executed them.
//!
//! ## Group commit
//!
//! Each loop iteration drains the shard's whole backlog (sockets +
//! forwarded ops) and applies it in chunks of at most `batch_window`
//! operations, one undo-log transaction per chunk. While a chunk runs,
//! the shard's [`AddressSpace`] holds an open *fence-deferral window*:
//! every `sfence` the transaction protocol would issue (begin, per-word
//! log publication, commit) is counted as elided instead of issued. The
//! chunk then persists with **one** real barrier —
//! [`AddressSpace::persist_point`], which drains the pool via
//! [`SharedPool::persist_point`] — and only after that barrier are the
//! chunk's acknowledgements queued for the wire.
//!
//! This is the crash-resilient-objects ack rule: un-acknowledged work
//! may be dropped wholesale on a crash, so nothing inside the window
//! needs individually ordered persistence. A crash mid-chunk loses the
//! chunk *whole* (its lines revert together; recovery rolls back the
//! open transaction), which clients observe as "never acked, absent" —
//! exactly what the faultsweep oracles demand. At `batch_window == 1`
//! the server runs the unbatched baseline: one transaction per op, real
//! fences throughout, ack after commit.
//!
//! Read-only chunks skip the transaction and the barrier entirely.
//!
//! ## Idle policy
//!
//! A pass that moved nothing ends in `yield_now` while the shard's last
//! progress is younger than `LINGER`, and in a 200 µs sleep after that
//! (`end_pass`): a shard with traffic in flight never sleeps on it, a
//! silent server sleep-polls. Nothing on the request path blocks in
//! `recv`/`park` — a blocked hand-off is 60× a polled one on the
//! reference host (DESIGN.md §14).

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use utpr_ds::concurrent::FlushCounters;
use utpr_ds::{IndexCore, RbTree};
use utpr_heap::{
    AddressSpace, FlushModel, HeapError, SharedPool, SlabId, TransStats, UndoLog,
    MAX_LOG_SLOTS,
};
use utpr_kv::rng::mix;
use utpr_kv::KvStore;
use utpr_ptr::{site, ExecEnv, Mode, NullSink};

use crate::proto::{Decoder, ErrCode, ProtoError, Request, Response};

/// Result alias for server operations.
pub type Result<T> = std::result::Result<T, ServeError>;

/// Server-layer failure: heap or socket.
#[derive(Debug)]
pub enum ServeError {
    /// Heap/pool failure.
    Heap(HeapError),
    /// Socket failure.
    Io(std::io::Error),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Heap(e) => write!(f, "heap: {e}"),
            ServeError::Io(e) => write!(f, "io: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<HeapError> for ServeError {
    fn from(e: HeapError) -> Self {
        ServeError::Heap(e)
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

/// Which shard owns `key`. Stable across restarts (pure function of the
/// key), uniform (splitmix-mixed before the modulo), and shared with the
/// direct-view auditors so offline checks route identically.
pub fn shard_of(key: u64, shards: u32) -> u32 {
    (mix(key, 0x5e4e) % u64::from(shards)) as u32
}

/// Server shape.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Event-loop threads / key partitions (1..=[`MAX_LOG_SLOTS`]).
    pub shards: u32,
    /// Max operations per group-commit transaction. `1` is the unbatched
    /// baseline (no deferral window, ack after each commit).
    pub batch_window: usize,
    /// Shared pool size in bytes.
    pub pool_bytes: u64,
    /// Per-shard slab carved for arena allocation.
    pub slab_bytes: u64,
    /// Persistence-domain model for the pool.
    pub flush_model: FlushModel,
    /// Seed for address-space layout derivation.
    pub seed: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shards: 4,
            batch_window: 16,
            pool_bytes: 64 << 20,
            slab_bytes: 1 << 20,
            flush_model: FlushModel::Eadr,
            seed: 42,
        }
    }
}

/// Live counters, shared between the shard threads and the handle.
#[derive(Default)]
struct ServeStats {
    gets: AtomicU64,
    puts: AtomicU64,
    dels: AtomicU64,
    scans: AtomicU64,
    batch_frames: AtomicU64,
    write_txns: AtomicU64,
    read_chunks: AtomicU64,
    fences_elided: AtomicU64,
    lines_persisted: AtomicU64,
    conns: AtomicU64,
    proto_errors: AtomicU64,
    accept_errors: AtomicU64,
    idle_sleeps: AtomicU64,
    poll_yields: AtomicU64,
    crashed: AtomicBool,
    trans: Mutex<TransStats>,
}

/// Point-in-time view of a running (or finished) server's counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServeCounters {
    /// GET operations applied.
    pub gets: u64,
    /// PUT operations applied.
    pub puts: u64,
    /// DELETE operations applied.
    pub dels: u64,
    /// SCAN frames applied.
    pub scans: u64,
    /// BATCH frames applied.
    pub batch_frames: u64,
    /// Group-commit (write) transactions committed.
    pub write_txns: u64,
    /// Read-only chunks served without any barrier.
    pub read_chunks: u64,
    /// Fences elided by open deferral windows.
    pub fences_elided: u64,
    /// Lines made durable at persist points.
    pub lines_persisted: u64,
    /// Connections accepted.
    pub conns: u64,
    /// Connections dropped for protocol violations.
    pub proto_errors: u64,
    /// `accept` failures the acceptor backed off from and survived.
    pub accept_errors: u64,
    /// Shard passes that found nothing to do past the linger and slept.
    pub idle_sleeps: u64,
    /// Shard passes that found nothing to do inside the linger and yielded.
    pub poll_yields: u64,
    /// Pool-wide fences (includes setup; subtract a baseline snapshot for
    /// steady-state rates).
    pub pool_fences: u64,
    /// Pool-wide group commits.
    pub pool_group_commits: u64,
    /// Pool-wide lines drained.
    pub pool_lines_drained: u64,
}

impl ServeCounters {
    /// Mutating operations applied (PUT + DELETE).
    pub fn writes(&self) -> u64 {
        self.puts + self.dels
    }

    /// All operations applied.
    pub fn ops(&self) -> u64 {
        self.gets + self.puts + self.dels + self.scans
    }

    /// The server-side story in the workspace's flush-accounting shape:
    /// `flushes` = lines actually drained, `elided` = fences the deferral
    /// window swallowed, `fences` = real pool barriers.
    pub fn flush_counters(&self) -> FlushCounters {
        FlushCounters {
            flushes: self.pool_lines_drained,
            elided: self.fences_elided,
            fences: self.pool_fences,
            ops: self.ops(),
        }
    }
}

/// A launched server: join handle, address, pool, counters.
pub struct ServerHandle {
    addr: SocketAddr,
    pool: Arc<SharedPool>,
    stats: Arc<ServeStats>,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound listen address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared pool the server persists into.
    pub fn pool(&self) -> &Arc<SharedPool> {
        &self.pool
    }

    /// Counter snapshot.
    pub fn counters(&self) -> ServeCounters {
        let s = &self.stats;
        ServeCounters {
            gets: s.gets.load(Ordering::Relaxed),
            puts: s.puts.load(Ordering::Relaxed),
            dels: s.dels.load(Ordering::Relaxed),
            scans: s.scans.load(Ordering::Relaxed),
            batch_frames: s.batch_frames.load(Ordering::Relaxed),
            write_txns: s.write_txns.load(Ordering::Relaxed),
            read_chunks: s.read_chunks.load(Ordering::Relaxed),
            fences_elided: s.fences_elided.load(Ordering::Relaxed),
            lines_persisted: s.lines_persisted.load(Ordering::Relaxed),
            conns: s.conns.load(Ordering::Relaxed),
            proto_errors: s.proto_errors.load(Ordering::Relaxed),
            accept_errors: s.accept_errors.load(Ordering::Relaxed),
            idle_sleeps: s.idle_sleeps.load(Ordering::Relaxed),
            poll_yields: s.poll_yields.load(Ordering::Relaxed),
            pool_fences: self.pool.fence_count(),
            pool_group_commits: self.pool.group_commits(),
            pool_lines_drained: self.pool.lines_drained(),
        }
    }

    /// Whether a shard hit an injected crash (the kill arm's signal).
    pub fn crashed(&self) -> bool {
        self.stats.crashed.load(Ordering::Acquire)
    }

    /// Merged translation-cache stats from exited shard threads.
    pub fn trans_stats(&self) -> TransStats {
        *self.stats.trans.lock().unwrap()
    }

    /// Requests shutdown and joins every thread. Returns the final
    /// counters and whether the server died of an injected crash rather
    /// than a drain.
    pub fn shutdown(mut self) -> (ServeCounters, bool) {
        self.stop.store(true, Ordering::Release);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        let c = self.counters();
        (c, self.crashed())
    }

    /// Joins without signalling shutdown — used by the kill arm, where
    /// the injected crash is what stops the threads.
    pub fn join(mut self) -> (ServeCounters, bool) {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        self.stop.store(true, Ordering::Release);
        let c = self.counters();
        (c, self.crashed())
    }
}

/// A connection's name on its shard: assigned in accept order and never
/// reused, so an answer that outlives its connection finds nobody — not a
/// newer connection in the same place.
type ConnId = u64;

/// Where a pending op's answer goes.
enum RespTo {
    /// A connection on this shard: id + sequence number.
    Local { conn: ConnId, seq: u64 },
    /// A connection on another shard, reached through its done-channel.
    Remote { reply: Sender<Done>, conn: ConnId, seq: u64 },
}

/// One operation waiting in a shard's backlog.
struct PendingOp {
    req: Request,
    to: RespTo,
}

impl PendingOp {
    /// Batch frames weigh their sub-op count against `batch_window`.
    fn weight(&self) -> usize {
        match &self.req {
            Request::Batch(ops) => ops.len().max(1),
            _ => 1,
        }
    }
}

/// A completed remote op returning to its connection's shard.
struct Done {
    conn: ConnId,
    seq: u64,
    bytes: Vec<u8>,
}

/// A forwarded op travelling to the shard that owns its key.
struct Fwd {
    req: Request,
    reply: Sender<Done>,
    conn: ConnId,
    seq: u64,
}

struct Conn {
    stream: TcpStream,
    dec: Decoder,
    wbuf: Vec<u8>,
    /// Next sequence number to assign to an incoming request.
    next_seq: u64,
    /// Next sequence number to release onto the wire.
    next_out: u64,
    /// Encoded responses waiting for their turn (reorder buffer).
    ready: BTreeMap<u64, Vec<u8>>,
    /// Set on EOF or protocol error: stop reading, flush, then drop.
    closing: bool,
    /// The socket failed; the end of this pass reaps the connection.
    closed: bool,
}

/// The server factory. Stateless — `launch`/`launch_on` return a
/// [`ServerHandle`].
pub struct Server;

impl Server {
    /// Creates a fresh pool, builds the base image (per-shard store +
    /// undo-log slot + descriptor directory as pool root), binds
    /// `127.0.0.1:0`, and starts the threads.
    ///
    /// # Errors
    ///
    /// Pool formatting, store creation, or socket failures.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.shards` is 0 or above [`MAX_LOG_SLOTS`].
    pub fn launch(cfg: &ServeConfig) -> Result<ServerHandle> {
        assert!(
            cfg.shards >= 1 && u64::from(cfg.shards) <= MAX_LOG_SLOTS,
            "shards must be 1..={MAX_LOG_SLOTS}"
        );
        let pool = SharedPool::create("serve", cfg.pool_bytes, 64)?;
        pool.set_flush_model(cfg.flush_model);

        // Base image, single-threaded (slot materialization is not
        // thread-safe by design): directory word s holds shard s's index
        // descriptor.
        let mut space = AddressSpace::new(mix(cfg.seed, 0x5e7e));
        let pid = space.adopt_shared(&pool)?;
        let mut env: ExecEnv<NullSink> =
            ExecEnv::builder(space).mode(Mode::Hw).pool(pid).build();
        let dir = env.alloc(site!("serve.dir", StackLocal), u64::from(cfg.shards) * 8)?;
        for s in 0..u64::from(cfg.shards) {
            let store: KvStore<RbTree> = KvStore::create(&mut env)?;
            env.write_ptr(
                site!("serve.dir-slot", StackLocal),
                dir,
                (s * 8) as i64,
                store.index().descriptor(),
            )?;
            UndoLog::ensure_slot(env.space_mut(), pid, 1 << 16, s)?;
        }
        env.set_root(site!("serve.root", StackLocal), dir)?;
        // The base image must be durable before traffic: one explicit
        // barrier, outside any measurement window.
        env.space_mut().persist_point();
        drop(env);

        Self::launch_on(cfg, &pool)
    }

    /// Starts the server over an existing (typically just-recovered)
    /// pool: reopens the per-shard stores from the root directory and
    /// carves fresh slabs. `cfg.shards` must match the shard count the
    /// pool was created with.
    ///
    /// # Errors
    ///
    /// Adoption, root lookup, or socket failures.
    pub fn launch_on(cfg: &ServeConfig, pool: &Arc<SharedPool>) -> Result<ServerHandle> {
        assert!(
            cfg.shards >= 1 && u64::from(cfg.shards) <= MAX_LOG_SLOTS,
            "shards must be 1..={MAX_LOG_SLOTS}"
        );
        // Crash-abandoned leases are unrecoverable by design; fresh slabs
        // keep every shard on its own allocation cursor.
        let slabs: Vec<SlabId> = (0..cfg.shards)
            .map(|_| pool.carve_slab(cfg.slab_bytes))
            .collect::<std::result::Result<_, _>>()?;

        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;

        let stats = Arc::new(ServeStats::default());
        let stop = Arc::new(AtomicBool::new(false));

        // Channel mesh: per shard an ingress (connections), a forward
        // lane, and a completion lane.
        let mut conn_txs = Vec::new();
        let mut fwd_txs = Vec::new();
        let mut shard_rx = Vec::new();
        for _ in 0..cfg.shards {
            let (ctx, crx) = channel::<TcpStream>();
            let (ftx, frx) = channel::<Fwd>();
            let (dtx, drx) = channel::<Done>();
            conn_txs.push(ctx);
            fwd_txs.push(ftx);
            shard_rx.push((crx, frx, dtx, drx));
        }

        let mut threads = Vec::new();
        for (s, (conn_rx, fwd_rx, done_tx, done_rx)) in shard_rx.into_iter().enumerate() {
            let lanes = ShardLanes {
                conn_rx,
                fwd_rx,
                done_tx,
                done_rx,
                fwd_txs: fwd_txs.clone(),
            };
            let (pool, stats, stop, cfg, slab) =
                (Arc::clone(pool), Arc::clone(&stats), Arc::clone(&stop), *cfg, slabs[s]);
            threads.push(std::thread::spawn(move || {
                shard_main(s as u32, &cfg, &pool, slab, lanes, &stats, &stop);
            }));
        }

        // Acceptor.
        {
            let (stats, stop) = (Arc::clone(&stats), Arc::clone(&stop));
            threads.push(std::thread::spawn(move || {
                let mut next = 0usize;
                while !stop.load(Ordering::Acquire) && !stats.crashed.load(Ordering::Acquire)
                {
                    match listener.accept() {
                        Ok((sock, _)) => {
                            stats.conns.fetch_add(1, Ordering::Relaxed);
                            let _ = sock.set_nodelay(true);
                            let _ = sock.set_nonblocking(true);
                            // A send error means the shard already exited
                            // (crash arm); the connection just drops.
                            let _ = conn_txs[next % conn_txs.len()].send(sock);
                            next += 1;
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_micros(500));
                        }
                        // EMFILE, ECONNABORTED and their kin pass; a dead
                        // acceptor refuses every later client for good.
                        Err(_) => {
                            stats.accept_errors.fetch_add(1, Ordering::Relaxed);
                            std::thread::sleep(Duration::from_millis(10));
                        }
                    }
                }
            }));
        }

        Ok(ServerHandle { addr, pool: Arc::clone(pool), stats, stop, threads })
    }

    /// Post-crash recovery: power-cycles the pool (unflushed lines are
    /// lost — a no-op under eADR), adopts it in a fresh space, rolls back
    /// every active undo-log slot, and validates allocator invariants.
    /// Returns whether any transaction was rolled back.
    ///
    /// # Errors
    ///
    /// Recovery or validation failures.
    pub fn recover(pool: &Arc<SharedPool>) -> Result<bool> {
        pool.power_cycle();
        let mut space = AddressSpace::new(0x4ec0_4e4);
        let pid = space.adopt_shared(pool)?;
        let rolled = UndoLog::recover(&mut space, pid)?;
        pool.validate()?;
        Ok(rolled)
    }
}

/// Offline store access over a server pool — the auditors' door: crash
/// oracles and checksum folds read through this, bypassing the wire, with
/// the same shard routing the server uses.
pub struct DirectView {
    env: ExecEnv<NullSink>,
    stores: Vec<KvStore<RbTree>>,
}

impl DirectView {
    /// Opens every shard store from the pool's root directory.
    ///
    /// # Errors
    ///
    /// Adoption or root-directory read failures.
    pub fn open(pool: &Arc<SharedPool>, shards: u32) -> Result<DirectView> {
        let mut space = AddressSpace::new(0xd14e_c7);
        let pid = space.adopt_shared(pool)?;
        let mut env: ExecEnv<NullSink> =
            ExecEnv::builder(space).mode(Mode::Hw).pool(pid).build();
        let dir = env.root(site!("serve.root-open", KnownReturn))?;
        let mut stores = Vec::new();
        for s in 0..u64::from(shards) {
            let desc =
                env.read_ptr(site!("serve.desc-open", KnownReturn), dir, (s * 8) as i64)?;
            stores.push(KvStore::open(desc));
        }
        Ok(DirectView { env, stores })
    }

    /// Reads `key` through its owning shard's store.
    ///
    /// # Errors
    ///
    /// Store read failures.
    pub fn get(&mut self, key: u64) -> Result<Option<u64>> {
        let s = shard_of(key, self.stores.len() as u32) as usize;
        Ok(self.stores[s].get(&mut self.env, key)?)
    }

    /// Total keys across all shards.
    ///
    /// # Errors
    ///
    /// Store walk failures.
    pub fn len(&mut self) -> Result<u64> {
        let mut n = 0;
        for s in &mut self.stores {
            n += s.len(&mut self.env)?;
        }
        Ok(n)
    }

    /// Whether the view holds no keys.
    ///
    /// # Errors
    ///
    /// Store walk failures.
    pub fn is_empty(&mut self) -> Result<bool> {
        Ok(self.len()? == 0)
    }

    /// Runs every shard index's own structural validator (oracle 1 of the
    /// faultsweep battery). Panics inside the validator are reported as
    /// errors, not propagated.
    ///
    /// # Errors
    ///
    /// A validator error or invariant panic, with the shard named.
    pub fn validate(&mut self) -> std::result::Result<(), String> {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        for (i, store) in self.stores.iter().enumerate() {
            let desc = store.index().descriptor();
            let env = &mut self.env;
            match catch_unwind(AssertUnwindSafe(|| {
                use utpr_ds::IndexCore;
                RbTree::open(desc).validate(env)
            })) {
                Ok(Ok(_)) => {}
                Ok(Err(e)) => return Err(format!("shard {i}: validator errored: {e}")),
                Err(_) => return Err(format!("shard {i}: structural invariant violated")),
            }
        }
        Ok(())
    }

    /// Order-independent contents fold over `keys`: for each present key,
    /// mixes `(key, value)` into a commutative sum — deterministic no
    /// matter how ops interleaved, as long as final contents match.
    ///
    /// # Errors
    ///
    /// Store read failures.
    pub fn checksum(&mut self, keys: impl Iterator<Item = u64>) -> Result<u64> {
        let mut sum = 0u64;
        let mut present = 0u64;
        for k in keys {
            if let Some(v) = self.get(k)? {
                sum = sum.wrapping_add(mix(k, v));
                present += 1;
            }
        }
        Ok(sum.wrapping_add(mix(0xc047, present)))
    }
}

/// How long a poll loop keeps polling after it last moved something.
///
/// A blocked-thread hand-off on the reference host (`mpsc::recv`
/// ping-pong) costs 44 µs round trip and swings with the host's phase; a
/// polled one (`try_recv` + `yield_now`) costs 0.7 µs. So a loop that has
/// seen traffic within `LINGER` yields instead of sleeping — no request
/// waits out a sleep on a socket, a lane or a reorder buffer — and a
/// silent one still falls back to its sleep-poll and costs what it always
/// did. Measured at 10 k ops/s open loop: 200 µs still lets shards doze
/// between arrivals (p99 56–78 µs against 44–52 µs); 5 ms buys nothing
/// over 1 ms (p99 50–65 µs, p50 13–15 µs at all three).
const LINGER: Duration = Duration::from_millis(1);

/// What the end of a poll pass did.
pub(crate) enum Pass {
    /// The pass moved something; the linger restarts.
    Worked,
    /// Idle inside the linger: the thread yielded its core and comes back.
    Yielded,
    /// Idle past the linger: the thread slept `nap`.
    Slept,
}

/// Ends one pass of a poll loop — the shard's or the load harness's.
pub(crate) fn end_pass(progressed: bool, last_progress: &mut Instant, nap: Duration) -> Pass {
    if progressed {
        *last_progress = Instant::now();
        Pass::Worked
    } else if last_progress.elapsed() < LINGER {
        std::thread::yield_now();
        Pass::Yielded
    } else {
        std::thread::sleep(nap);
        Pass::Slept
    }
}

struct ShardLanes {
    conn_rx: Receiver<TcpStream>,
    fwd_rx: Receiver<Fwd>,
    done_tx: Sender<Done>,
    done_rx: Receiver<Done>,
    fwd_txs: Vec<Sender<Fwd>>,
}

#[allow(clippy::too_many_lines)]
fn shard_main(
    me: u32,
    cfg: &ServeConfig,
    pool: &Arc<SharedPool>,
    slab: SlabId,
    lanes: ShardLanes,
    stats: &Arc<ServeStats>,
    stop: &Arc<AtomicBool>,
) {
    // Shard-local env + store, the mt worker idiom with a wire in front.
    let mut space = AddressSpace::new(mix(cfg.seed, 0x54a4_d ^ u64::from(me)));
    let Ok(pid) = space.adopt_shared(pool) else { return };
    if space.bind_arena_slab(pid, slab).is_err() {
        return;
    }
    let mut env: ExecEnv<NullSink> = ExecEnv::builder(space)
        .mode(Mode::Hw)
        .pool(pid)
        .txn_slot(u64::from(me))
        .build();
    let desc = match env.root(site!("serve.shard-root", KnownReturn)).and_then(|dir| {
        env.read_ptr(site!("serve.shard-desc", KnownReturn), dir, i64::from(me) * 8)
    }) {
        Ok(v) => v,
        Err(_) => return,
    };
    let mut store: KvStore<RbTree> = KvStore::open(desc);

    // Live connections only: a pass costs what is connected now, not what
    // ever was.
    let mut conns: BTreeMap<ConnId, Conn> = BTreeMap::new();
    let mut next_conn: ConnId = 0;
    let mut pending: VecDeque<PendingOp> = VecDeque::new();
    let mut rbuf = [0u8; 16 << 10];
    let mut elided_seen = 0u64;
    let mut last_progress = Instant::now();

    'outer: loop {
        // An injected crash is machine-wide: once any shard trips the
        // gate, the whole process is dead — no shard may keep serving.
        if stats.crashed.load(Ordering::Acquire) {
            break;
        }
        let mut progressed = false;

        // New connections.
        while let Ok(stream) = lanes.conn_rx.try_recv() {
            conns.insert(
                next_conn,
                Conn {
                    stream,
                    dec: Decoder::new(),
                    wbuf: Vec::new(),
                    next_seq: 0,
                    next_out: 0,
                    ready: BTreeMap::new(),
                    closing: false,
                    closed: false,
                },
            );
            next_conn += 1;
            progressed = true;
        }

        // Socket reads → decoded requests → route.
        for (&id, conn) in &mut conns {
            if conn.closing {
                continue;
            }
            loop {
                match conn.stream.read(&mut rbuf) {
                    Ok(0) => {
                        // EOF inside a frame is a typed protocol error;
                        // a clean boundary is just a hangup.
                        if conn.dec.finish().is_err() {
                            proto_reject(conn, stats, &ProtoError::Truncated);
                        }
                        conn.closing = true;
                        break;
                    }
                    Ok(n) => {
                        progressed = true;
                        conn.dec.feed(&rbuf[..n]);
                        if !drain_frames(me, cfg, id, conn, &lanes, &mut pending, stats) {
                            break;
                        }
                        if n < rbuf.len() {
                            break;
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(_) => {
                        conn.closed = true;
                        break;
                    }
                }
            }
        }

        // Ops forwarded from other shards join the same backlog.
        while let Ok(f) = lanes.fwd_rx.try_recv() {
            pending.push_back(PendingOp {
                req: f.req,
                to: RespTo::Remote { reply: f.reply, conn: f.conn, seq: f.seq },
            });
            progressed = true;
        }

        // Apply the backlog in group-commit chunks.
        while !pending.is_empty() {
            progressed = true;
            let window = cfg.batch_window.max(1);
            let mut chunk: Vec<PendingOp> = Vec::new();
            let mut weight = 0usize;
            while let Some(p) = pending.front() {
                let w = p.weight();
                // A batch frame never splits; it may alone exceed the
                // window (atomicity beats the knob).
                if !chunk.is_empty() && weight + w > window {
                    break;
                }
                weight += w;
                chunk.push(pending.pop_front().unwrap());
                if weight >= window {
                    break;
                }
            }

            let has_write = chunk.iter().any(|p| p.req.is_write());
            let mut replies: Vec<(RespTo, Response)> = Vec::with_capacity(chunk.len());
            if !has_write {
                for p in chunk {
                    let resp = apply(&mut env, &mut store, &p.req, stats);
                    match resp {
                        Ok(r) => replies.push((p.to, r)),
                        Err(HeapError::CrashInjected { .. }) => {
                            stats.crashed.store(true, Ordering::Release);
                            break 'outer;
                        }
                        Err(e) => replies
                            .push((p.to, Response::Err(ErrCode::Internal, e.to_string()))),
                    }
                }
                stats.read_chunks.fetch_add(1, Ordering::Relaxed);
            } else {
                // Group commit: one transaction, fences deferred, one
                // barrier, then (and only then) the acks.
                let grouped = window > 1;
                if grouped {
                    env.space_mut().set_fence_deferral(true);
                }
                let r = env.with_txn(|env| {
                    for p in &chunk {
                        let resp = apply(env, &mut store, &p.req, stats)?;
                        replies.push((clone_to(&p.to), resp));
                    }
                    Ok(())
                });
                env.space_mut().set_fence_deferral(false);
                match r {
                    Ok(()) => {
                        if grouped {
                            let drained = env.space_mut().persist_point();
                            stats.lines_persisted.fetch_add(drained, Ordering::Relaxed);
                        }
                        stats.write_txns.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(HeapError::CrashInjected { .. }) => {
                        // The machine died mid-batch: nothing was acked,
                        // nothing may be acked. Recovery owns the rest.
                        stats.crashed.store(true, Ordering::Release);
                        break 'outer;
                    }
                    Err(e) => {
                        // Transaction rolled back whole: every op in the
                        // chunk reports failure, atomically unapplied.
                        let msg = e.to_string();
                        replies = chunk
                            .iter()
                            .map(|p| {
                                (
                                    clone_to(&p.to),
                                    Response::Err(ErrCode::Internal, msg.clone()),
                                )
                            })
                            .collect();
                    }
                }
                let e = env.space().fences_elided();
                stats.fences_elided.fetch_add(e - elided_seen, Ordering::Relaxed);
                elided_seen = e;
            }

            // Release acks — durably committed (or refused) by here.
            for (to, resp) in replies {
                let mut bytes = Vec::new();
                resp.encode(&mut bytes);
                match to {
                    // A reply that outlived its connection is dropped.
                    RespTo::Local { conn, seq } => {
                        if let Some(c) = conns.get_mut(&conn) {
                            c.ready.insert(seq, bytes);
                        }
                    }
                    RespTo::Remote { reply, conn, seq } => {
                        let _ = reply.send(Done { conn, seq, bytes });
                    }
                }
            }
        }

        // Completions returning from other shards.
        while let Ok(d) = lanes.done_rx.try_recv() {
            if let Some(c) = conns.get_mut(&d.conn) {
                c.ready.insert(d.seq, d.bytes);
            }
            progressed = true;
        }

        // Wire: release in-order responses, then push bytes. A connection
        // that ends here is dropped with its socket and buffers.
        conns.retain(|_, c| {
            while let Some(bytes) = c.ready.remove(&c.next_out) {
                c.wbuf.extend_from_slice(&bytes);
                c.next_out += 1;
            }
            while !c.closed && !c.wbuf.is_empty() {
                match c.stream.write(&c.wbuf) {
                    Ok(0) => c.closed = true,
                    Ok(n) => {
                        c.wbuf.drain(..n);
                        progressed = true;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(_) => c.closed = true,
                }
            }
            // A closing conn with no queued work left is done: everything
            // it was owed (including in-flight remote ops) has shipped.
            let shipped = c.closing
                && c.wbuf.is_empty()
                && c.ready.is_empty()
                && c.next_out == c.next_seq;
            !(c.closed || shipped)
        });

        if stop.load(Ordering::Acquire) && pending.is_empty() {
            break;
        }
        let idle = match end_pass(progressed, &mut last_progress, Duration::from_micros(200)) {
            Pass::Worked => continue,
            Pass::Yielded => &stats.poll_yields,
            Pass::Slept => &stats.idle_sleeps,
        };
        idle.fetch_add(1, Ordering::Relaxed);
    }

    // Fold this shard's translation stats into the shared plane.
    stats.trans.lock().unwrap().merge(&env.space().trans_stats());
}

/// `RespTo` minus the `Clone` bound on `Sender` noise — channels clone
/// cheaply, local slots copy.
fn clone_to(to: &RespTo) -> RespTo {
    match to {
        RespTo::Local { conn, seq } => RespTo::Local { conn: *conn, seq: *seq },
        RespTo::Remote { reply, conn, seq } => {
            RespTo::Remote { reply: reply.clone(), conn: *conn, seq: *seq }
        }
    }
}

/// Decodes every complete frame buffered on `conn`, answering Pings
/// inline, enqueueing locally owned ops, and forwarding the rest.
/// Returns `false` when the connection hit a protocol error (it is now
/// closing).
fn drain_frames(
    me: u32,
    cfg: &ServeConfig,
    id: ConnId,
    conn: &mut Conn,
    lanes: &ShardLanes,
    pending: &mut VecDeque<PendingOp>,
    stats: &Arc<ServeStats>,
) -> bool {
    loop {
        let body = match conn.dec.next_frame() {
            Ok(Some(b)) => b.to_vec(),
            Ok(None) => return true,
            Err(e) => {
                proto_reject(conn, stats, &e);
                return false;
            }
        };
        let req = match Request::decode(&body) {
            Ok(r) => r,
            Err(e) => {
                proto_reject(conn, stats, &e);
                return false;
            }
        };
        let seq = conn.next_seq;
        conn.next_seq += 1;

        // Frame-level dispatch decisions live here, on the connection's
        // shard; execution lands on the owner.
        let owner = match &req {
            Request::Ping => {
                let mut bytes = Vec::new();
                Response::Pong.encode(&mut bytes);
                conn.ready.insert(seq, bytes);
                continue;
            }
            Request::Get { key } | Request::Put { key, .. } | Request::Del { key } => {
                shard_of(*key, cfg.shards)
            }
            Request::Scan { start, .. } => shard_of(*start, cfg.shards),
            Request::Batch(ops) => {
                let mut owner = None;
                let mut ok = true;
                for op in ops {
                    let k = match op {
                        Request::Get { key }
                        | Request::Put { key, .. }
                        | Request::Del { key } => *key,
                        Request::Scan { start, .. } => *start,
                        _ => {
                            ok = false;
                            break;
                        }
                    };
                    let o = shard_of(k, cfg.shards);
                    if *owner.get_or_insert(o) != o {
                        ok = false;
                        break;
                    }
                }
                match (ok, owner) {
                    (true, Some(o)) => o,
                    _ => {
                        let mut bytes = Vec::new();
                        Response::Err(
                            ErrCode::CrossShardBatch,
                            "batch keys must share one shard".into(),
                        )
                        .encode(&mut bytes);
                        conn.ready.insert(seq, bytes);
                        continue;
                    }
                }
            }
        };

        if owner == me {
            pending.push_back(PendingOp { req, to: RespTo::Local { conn: id, seq } });
        } else {
            // A dead peer shard (crash arm) drops the op; the client sees
            // a silent non-ack, which is exactly a crash's contract.
            let _ = lanes.fwd_txs[owner as usize].send(Fwd {
                req,
                reply: lanes.done_tx.clone(),
                conn: id,
                seq,
            });
        }
    }
}

fn proto_reject(conn: &mut Conn, stats: &Arc<ServeStats>, e: &ProtoError) {
    stats.proto_errors.fetch_add(1, Ordering::Relaxed);
    let seq = conn.next_seq;
    conn.next_seq += 1;
    let mut bytes = Vec::new();
    Response::Err(ErrCode::Proto, e.to_string()).encode(&mut bytes);
    conn.ready.insert(seq, bytes);
    conn.closing = true;
}

/// Applies one request against the shard's store. Transactions and
/// fencing are the caller's concern; this is pure store logic.
fn apply(
    env: &mut ExecEnv<NullSink>,
    store: &mut KvStore<RbTree>,
    req: &Request,
    stats: &Arc<ServeStats>,
) -> std::result::Result<Response, HeapError> {
    match req {
        Request::Get { key } => {
            stats.gets.fetch_add(1, Ordering::Relaxed);
            Ok(Response::Value(store.get(env, *key)?))
        }
        Request::Put { key, val } => {
            stats.puts.fetch_add(1, Ordering::Relaxed);
            Ok(Response::Done(store.set(env, *key, *val)?))
        }
        Request::Del { key } => {
            stats.dels.fetch_add(1, Ordering::Relaxed);
            Ok(Response::Removed(store.remove(env, *key)?))
        }
        Request::Scan { start, count } => {
            stats.scans.fetch_add(1, Ordering::Relaxed);
            let mut pairs = Vec::new();
            for i in 0..u64::from(*count) {
                let k = start.wrapping_add(i);
                if let Some(v) = store.get(env, k)? {
                    pairs.push((k, v));
                }
            }
            Ok(Response::Pairs(pairs))
        }
        Request::Batch(ops) => {
            stats.batch_frames.fetch_add(1, Ordering::Relaxed);
            let mut rs = Vec::with_capacity(ops.len());
            for op in ops {
                rs.push(apply(env, store, op, stats)?);
            }
            Ok(Response::Batch(rs))
        }
        Request::Ping => Ok(Response::Pong),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recover_power_cycles_an_adr_pool() {
        let pool = SharedPool::create("recover-adr", 1 << 20, 2).unwrap();
        pool.set_flush_model(FlushModel::Adr);
        let off = pool.alloc_raw(64).unwrap();
        pool.write_u64_stage(off, 1).unwrap();
        pool.drain_all();
        // Crash with one staged write that never saw a barrier.
        pool.write_u64_stage(off, 2).unwrap();
        assert_eq!(pool.pending_lines(), 1);
        assert!(!Server::recover(&pool).unwrap(), "no undo log, nothing to roll back");
        assert_eq!(pool.pending_lines(), 0);
        assert_eq!(pool.read_u64(off), 1, "the unflushed line was lost, not kept");
    }
}
