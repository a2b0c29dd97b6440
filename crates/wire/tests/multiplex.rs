//! The readiness-driven connection multiplexing, over real TCP: parked
//! connections cost an active one nothing, a half-sent frame holds no
//! worker, a request queued in its lane is resumed (or expired) without a
//! worker waiting on it, an idle server does not wake up, and the workers
//! run their turns to completion under `SCHED_BATCH` while the acceptor
//! and the replica ticker keep the default policy.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use oasis_core::{
    Atom, EnvContext, Lane, LaneConfig, OasisService, OverloadConfig, PrincipalId, ServiceConfig,
    Term, Value, ValueType,
};
use oasis_facts::FactStore;
use oasis_obs::{Recorder, Registry};
use oasis_store::{ReplicaConfig, ReplicaNode};
use oasis_wire::frame::{encode_frame, read_frame};
use oasis_wire::proto::{Request, Response};
use oasis_wire::{WireClient, WireError, WireServer, WireTransport};

fn login_service() -> Arc<OasisService> {
    let facts = Arc::new(FactStore::new());
    facts.define("password_ok", 1).unwrap();
    facts
        .insert("password_ok", vec![Value::id("alice")])
        .unwrap();
    let svc = OasisService::new(ServiceConfig::new("login"), facts);
    svc.define_role("logged_in", &[("u", ValueType::Id)], true)
        .unwrap();
    svc.add_activation_rule(
        "logged_in",
        vec![Term::var("U")],
        vec![Atom::env_fact("password_ok", vec![Term::var("U")])],
        vec![0],
    )
    .unwrap();
    svc
}

/// Spins (1 ms naps) until `condition` holds; panics after five seconds.
fn wait_until(what: &str, condition: impl Fn() -> bool) {
    let started = Instant::now();
    while !condition() {
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "timed out: {what}"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn parked_connections_do_not_slow_an_active_one() {
    let service = login_service();
    let cfg = OverloadConfig {
        workers: 2,
        ..Default::default()
    };
    let server = WireServer::bind(Arc::clone(&service), "127.0.0.1:0")
        .unwrap()
        .with_overload(cfg);
    let addr = server.serve_in_background().unwrap();

    let mut parked: Vec<WireClient> = (0..48)
        .map(|_| WireClient::connect(addr).unwrap())
        .collect();
    for client in &mut parked {
        client.ping().unwrap();
    }

    let mut active = WireClient::connect(addr).unwrap();
    let mut rtts: Vec<Duration> = (0..200)
        .map(|_| {
            let started = Instant::now();
            active.ping().unwrap();
            started.elapsed()
        })
        .collect();
    rtts.sort();
    // A worker that had to visit 48 idle sockets first, 2 ms each, would
    // take 48 ms a ping.
    let median = rtts[rtts.len() / 2];
    assert!(
        median < Duration::from_millis(2),
        "median ping RTT {median:?}"
    );

    for (i, client) in parked.iter_mut().enumerate() {
        client
            .ping()
            .unwrap_or_else(|e| panic!("parked connection {i}: {e}"));
    }
    assert_eq!(service.overload_stats().unwrap().conns_shed, 0);
}

#[test]
fn half_sent_frames_hold_no_worker_and_are_closed_at_the_deadline() {
    let service = login_service();
    let registry: Arc<Registry> = Arc::new(Registry::new());
    service.set_obs(registry.clone());
    let cfg = OverloadConfig {
        workers: 2,
        ..Default::default()
    };
    let server = WireServer::bind(Arc::clone(&service), "127.0.0.1:0")
        .unwrap()
        .with_overload(cfg);
    let addr = server.serve_in_background().unwrap();

    // Twice as many stalled peers as workers: two bytes of header, then
    // silence.
    let mut stalled: Vec<TcpStream> = (0..4)
        .map(|_| {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.write_all(&[0, 0]).unwrap();
            stream
        })
        .collect();
    let conns_open = registry.gauge("login.wire.conns_open");
    wait_until("stalled connections accepted", || conns_open.get() == 4);

    // The revocation path is as prompt as on an empty server.
    let mut client = WireClient::connect(addr).unwrap();
    let started = Instant::now();
    assert!(!client.revoke(424_242, "logout", 1).unwrap());
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_millis(500),
        "revoke behind stalled peers took {elapsed:?}"
    );

    // Five seconds after their first byte the stalled peers lose their
    // connections (and only they do).
    for stream in &mut stalled {
        stream
            .set_read_timeout(Some(Duration::from_secs(8)))
            .unwrap();
        assert_eq!(stream.read(&mut [0u8; 1]).unwrap(), 0, "server closed it");
    }
    assert!(started.elapsed() >= Duration::from_secs(4));
    assert_eq!(registry.counter("login.wire.stalled_closed").get(), 4);
    assert_eq!(service.overload_stats().unwrap().conns_idle_closed, 0);
    client.ping().unwrap();
    wait_until("slots reclaimed", || conns_open.get() == 1);
}

#[test]
fn frames_are_answered_however_the_bytes_arrive() {
    let server = WireServer::bind(login_service(), "127.0.0.1:0").unwrap();
    let addr = server.serve_in_background().unwrap();
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    let ping = encode_frame(&Request::Ping).unwrap();

    // Three requests in one segment: none is lost in the server's buffer.
    stream.write_all(&ping.repeat(3)).unwrap();
    for _ in 0..3 {
        let pong: Option<Response> = read_frame(&mut stream).unwrap();
        assert_eq!(pong, Some(Response::Pong));
    }
    // One request a byte at a time: answered once, when it is complete.
    for byte in &ping {
        stream.write_all(&[*byte]).unwrap();
        std::thread::sleep(Duration::from_millis(1));
    }
    let pong: Option<Response> = read_frame(&mut stream).unwrap();
    assert_eq!(pong, Some(Response::Pong));
}

#[test]
fn queued_request_is_resumed_when_the_permit_frees_and_expired_at_its_deadline() {
    let service = login_service();
    let mut cfg = OverloadConfig::default();
    *cfg.lane_mut(Lane::Issuance) = LaneConfig::fixed(1, 8, 10_000);
    // Every activation takes 400 ms, so the single issuance slot is held
    // long enough to queue behind.
    let executed = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&executed);
    let server = WireServer::bind_with_context(
        Arc::clone(&service),
        "127.0.0.1:0",
        Arc::new(move |now| {
            counter.fetch_add(1, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(400));
            EnvContext::new(now)
        }),
    )
    .unwrap()
    .with_overload(cfg);
    let controller = server.controller();
    let addr = server.serve_in_background().unwrap();
    let issuance = move || controller.stats().lane(Lane::Issuance).clone();

    let activate = move |deadline_ms: u64| {
        std::thread::spawn(move || {
            let mut client = WireClient::connect(addr)
                .unwrap()
                .with_deadline_ms(deadline_ms);
            let alice = PrincipalId::new("alice");
            let result = client.activate(&alice, "logged_in", vec![Value::id("alice")], vec![], 1);
            (result, Instant::now())
        })
    };
    let first = activate(60_000);
    wait_until("first activation running", || issuance().running == 1);
    let second = activate(60_000);
    wait_until("second activation queued", || issuance().queue_depth == 1);
    let third = activate(20);

    let (third_result, third_done) = third.join().unwrap();
    assert!(
        matches!(third_result, Err(WireError::DeadlineExceeded)),
        "a 20 ms budget cannot outlast the queue: {third_result:?}"
    );
    let (first_result, first_done) = first.join().unwrap();
    first_result.expect("first activation is served");
    assert!(
        third_done < first_done,
        "the expiry is answered while the lane is still busy, not when it drains"
    );
    let (second_result, _) = second.join().unwrap();
    second_result.expect("the queued activation is resumed once the permit frees");
    assert_eq!(
        executed.load(Ordering::SeqCst),
        2,
        "the expired one never ran"
    );
    assert_eq!(issuance().expired, 1);
}

#[test]
fn idle_server_with_parked_connections_makes_no_wakeups() {
    let service = login_service();
    let registry: Arc<Registry> = Arc::new(Registry::new());
    service.set_obs(registry.clone());
    let server = WireServer::bind(Arc::clone(&service), "127.0.0.1:0").unwrap();
    let addr = server.serve_in_background().unwrap();

    let mut parked: Vec<WireClient> = (0..16)
        .map(|_| WireClient::connect(addr).unwrap())
        .collect();
    for client in &mut parked {
        client.ping().unwrap();
    }
    let wakeups = registry.counter("login.wire.wakeups");
    assert!(
        wakeups.get() >= 16,
        "each request is a wake-up: {}",
        wakeups.get()
    );
    // Let the last worker get back into its wait.
    std::thread::sleep(Duration::from_millis(50));
    let before = wakeups.get();
    std::thread::sleep(Duration::from_millis(300));
    let woken = wakeups.get() - before;
    assert!(woken <= 2, "{woken} wake-ups on an idle server in 300 ms");

    // What a connection is doing is answerable from the endpoint alone.
    let snapshot = parked[0].metrics().unwrap();
    for name in [
        "login.wire.conns_open",
        "login.wire.wakeups",
        "login.wire.stalled_closed",
        "login.wire.handle_us",
        "login.wire.requests",
    ] {
        assert!(snapshot.contains(name), "{name} missing from {snapshot}");
    }
    assert_eq!(registry.gauge("login.wire.conns_open").get(), 16);
}

/// The `(name, scheduling policy)` of a thread from its `stat` line:
/// the name (at most 15 bytes) between the parentheses, the policy in
/// field 41, counted after the last `)` since a name may hold spaces or
/// parentheses.
fn name_and_policy(stat: &str) -> (String, u32) {
    let (open, close) = (stat.find('(').unwrap(), stat.rfind(')').unwrap());
    let policy = stat[close + 1..].split_whitespace().nth(41 - 3).unwrap();
    (stat[open + 1..close].to_string(), policy.parse().unwrap())
}

/// [`name_and_policy`] of every thread of this process.
fn thread_policies() -> Vec<(String, u32)> {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        // A thread that exits between the listing and the read is gone.
        .filter_map(|task| std::fs::read_to_string(task.unwrap().path().join("stat")).ok())
        .map(|stat| name_and_policy(&stat))
        .collect()
}

#[test]
fn workers_run_under_sched_batch_and_the_ticker_keeps_the_default() {
    const SCHED_OTHER: u32 = 0;
    const SCHED_BATCH: u32 = 3;
    let node = ReplicaNode::new(
        ReplicaConfig::new("solo", Vec::new(), "127.0.0.1:0"),
        Arc::new(WireTransport::new(Vec::new())),
    );
    let server = WireServer::bind(login_service(), "127.0.0.1:0")
        .unwrap()
        .with_replica(Arc::new(node))
        .with_overload(OverloadConfig {
            workers: 3,
            ..Default::default()
        });
    let addr = server.serve_in_background().unwrap();
    WireClient::connect(addr).unwrap().ping().unwrap();

    // A worker of this or another test's server may have been named but
    // not yet have reached its first line: wait for the pool to settle.
    let settled = |threads: &[(String, u32)]| {
        let of = |prefix: &str| -> Vec<u32> {
            let named = threads.iter().filter(|(name, _)| name.starts_with(prefix));
            named.map(|(_, policy)| *policy).collect()
        };
        let (workers, tickers) = (of("oasis-wire-work"), of("oasis-wire-tick"));
        workers.len() >= 3
            && workers.iter().all(|policy| *policy == SCHED_BATCH)
            && !tickers.is_empty()
            && tickers.iter().all(|policy| *policy == SCHED_OTHER)
    };
    let started = Instant::now();
    let mut threads = thread_policies();
    while !settled(&threads) && started.elapsed() < Duration::from_secs(5) {
        std::thread::sleep(Duration::from_millis(1));
        threads = thread_policies();
    }
    assert!(
        settled(&threads),
        "workers on SCHED_BATCH, the ticker on SCHED_OTHER: {threads:?}"
    );
    let own = name_and_policy(&std::fs::read_to_string("/proc/thread-self/stat").unwrap());
    assert_eq!(
        own.1, SCHED_OTHER,
        "the test's own thread keeps SCHED_OTHER"
    );
}
