//! The shard loop's idle policy and connection lifetime, pinned by
//! counters rather than clocks: a shard with traffic in flight never
//! sleeps, a silent one sleep-polls and does not spin, a closed
//! connection gives its socket back, and an answer that outlives its
//! connection reaches nobody.

use std::io::Write;
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use utpr_heap::FlushModel;
use utpr_qc::runner::base_seed;
use utpr_serve::{
    shard_of, Client, DirectView, Request, Response, ServeConfig, Server, ServerHandle,
};

/// One test at a time: the fd census is process-wide, and the sleep
/// budget should not pay for a neighbouring test's spinning shards.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

const SHARDS: u32 = 2;

fn cfg() -> ServeConfig {
    ServeConfig {
        shards: SHARDS,
        batch_window: 8,
        pool_bytes: 64 << 20,
        slab_bytes: 1 << 20,
        flush_model: FlushModel::Eadr,
        seed: base_seed(),
    }
}

/// The first `n` keys at or above `from` that `shard` owns.
fn keys_on(shard: u32, from: u64, n: usize) -> Vec<u64> {
    (from..).filter(|&k| shard_of(k, SHARDS) == shard).take(n).collect()
}

/// The acceptor deals connections round-robin from shard 0, so the
/// `i`-th connection of a fresh server lives on shard `i % SHARDS`.
fn connect_pair(handle: &ServerHandle) -> (Client, Client) {
    let on0 = Client::connect(handle.addr()).expect("connect");
    let on1 = Client::connect(handle.addr()).expect("connect");
    (on0, on1)
}

#[test]
fn a_shard_with_traffic_in_flight_does_not_sleep() {
    let _serial = serial();
    let handle = Server::launch(&cfg()).expect("launch");
    let (mut on0, mut on1) = connect_pair(&handle);
    assert_eq!(on0.call(&Request::Ping).unwrap(), Response::Pong);
    assert_eq!(on1.call(&Request::Ping).unwrap(), Response::Pong);

    // One request at a time, each shard asked every other request: at
    // 200 µs a sleep this would cost a sleep per request per shard.
    let mut round = |first_key: u64| {
        let before = handle.counters();
        for i in 0..500 {
            let c = if i % 2 == 0 { &mut on0 } else { &mut on1 };
            assert_eq!(c.call(&Request::Ping).unwrap(), Response::Pong);
        }
        let keys = [keys_on(0, first_key, 125), keys_on(1, first_key, 125)];
        for pair in 0..250 {
            let key = keys[pair % 2][pair / 2];
            let val = key ^ 0xa5a5;
            assert_eq!(on0.call(&Request::Put { key, val }).unwrap(), Response::Done(None));
            assert_eq!(on0.call(&Request::Get { key }).unwrap(), Response::Value(Some(val)));
        }
        handle.counters().idle_sleeps - before.idle_sleeps
    };
    // A host that stalls the client for milliseconds puts the shards to
    // sleep honestly, and only ever adds sleeps: the quietest of three
    // rounds is the loop's own. (Fresh keys each round: a PUT answers
    // with the value it replaced.)
    let slept = (0..3).map(|r| round(1_000 + r * 100_000)).find(|&n| n <= 50);
    assert!(slept.is_some(), "1000 back-to-back requests cost over 50 idle sleeps, three times");
    handle.shutdown();
}

#[test]
fn a_silent_server_sleep_polls_and_does_not_spin() {
    let _serial = serial();
    let handle = Server::launch(&cfg()).expect("launch");
    let (mut on0, mut on1) = connect_pair(&handle);
    assert_eq!(on0.call(&Request::Ping).unwrap(), Response::Pong);
    assert_eq!(on1.call(&Request::Ping).unwrap(), Response::Pong);

    // Connections open and silent, well past the linger.
    std::thread::sleep(Duration::from_millis(50));
    let quiet = handle.counters();
    std::thread::sleep(Duration::from_millis(50));
    let later = handle.counters();

    assert!(later.idle_sleeps > quiet.idle_sleeps, "an idle shard stopped sleep-polling");
    assert_eq!(later.poll_yields, quiet.poll_yields, "an idle shard is busy-polling");
    handle.shutdown();
}

#[cfg(target_os = "linux")]
#[test]
fn closed_connections_give_their_sockets_back() {
    fn open_fds() -> usize {
        std::fs::read_dir("/proc/self/fd").expect("/proc/self/fd").count()
    }

    let _serial = serial();
    let handle = Server::launch(&cfg()).expect("launch");
    let start = open_fds();
    for _ in 0..300 {
        let mut c = Client::connect(handle.addr()).expect("connect");
        assert_eq!(c.call(&Request::Ping).unwrap(), Response::Pong);
    }
    // The server reaps on its own pass, not on the client's close: give
    // it a deadline, not an instant.
    let deadline = Instant::now() + Duration::from_secs(5);
    while open_fds() > start + 4 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    let end = open_fds();
    assert!(end <= start + 4, "300 closed connections left {end} fds open, {start} before");
    let (counters, _) = handle.shutdown();
    assert_eq!(counters.conns, 300);
    assert_eq!(counters.accept_errors, 0);
}

#[test]
fn an_answer_that_outlives_its_connection_reaches_nobody() {
    let _serial = serial();
    let handle = Server::launch(&cfg()).expect("launch");
    let far = keys_on(1, 5_000, 128);
    let (gone_keys, kept_keys) = far.split_at(64);

    // Three connections, dealt to shards 0, 1, 0. The first pipelines 64
    // PUTs that shard 1 owns and hangs up without reading one answer.
    let mut gone = TcpStream::connect(handle.addr()).expect("connect");
    let _filler = Client::connect(handle.addr()).expect("connect");
    let mut bytes = Vec::new();
    for &key in gone_keys {
        Request::Put { key, val: key + 1 }.encode(&mut bytes);
    }
    gone.write_all(&bytes).expect("pipeline");
    drop(gone);

    // Its successor on shard 0 must see its own answers and only those,
    // while the first connection's 64 completions are still coming home.
    let mut kept = Client::connect(handle.addr()).expect("connect");
    let mut reqs = Vec::new();
    let mut want = Vec::new();
    for &key in kept_keys {
        reqs.push(Request::Put { key, val: key + 2 });
        want.push(Response::Done(None));
        reqs.push(Request::Get { key });
        want.push(Response::Value(Some(key + 2)));
    }
    assert_eq!(kept.call_pipelined(&reqs).expect("pipelined"), want);

    // Work read off a socket is applied whether or not its sender stayed.
    let pool = handle.pool().clone();
    let (_, crashed) = handle.shutdown();
    assert!(!crashed);
    let mut view = DirectView::open(&pool, SHARDS).expect("view");
    for &key in gone_keys {
        assert_eq!(view.get(key).unwrap(), Some(key + 1), "abandoned PUT {key} lost");
    }
    for &key in kept_keys {
        assert_eq!(view.get(key).unwrap(), Some(key + 2));
    }
    assert_eq!(view.len().unwrap(), 128);
}
