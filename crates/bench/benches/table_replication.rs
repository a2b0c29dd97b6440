//! TAB-H — quorum-replicated journal: append cost, failover time, and
//! recovery gap vs replica count.
//!
//! The paper's ref [10] assumes the Certificate Issuing & Validation
//! service survives node loss. PR 6 makes the journal a replicated log:
//! every append is quorum-committed (`floor(n/2)+1` acks) before the
//! caller proceeds. This table quantifies the robustness bill across
//! cluster sizes 1 (unreplicated baseline), 3, and 5:
//!
//! * **append** — wall-clock cost of one quorum-committed journal
//!   append through `ReplicatedStore` (in-process `LocalMesh`
//!   transport, so the number measures protocol + fan-out cost, not
//!   the network).
//! * **frames per round** — `Replicate` frames carrying entries per
//!   committed round, counted by a transport wrapper around the mesh. A
//!   round goes to quorum−1 followers, and a follower left out is
//!   pulled back in once per repair batch, so the bench asserts ≤ 1.05
//!   at 3 replicas and ≤ 2.1 at 5 (sending to every follower: 2 and 4).
//! * **failover** — virtual milliseconds from leader kill to a new
//!   leader among the survivors (heartbeat 50ms, election timeout
//!   150ms + deterministic per-id skew; driven on a 25ms tick grid).
//! * **recovery gap** — quorum-acked entries missing on the promoted
//!   leader after failover. The election restriction (vote quorum ∩
//!   commit quorum ≠ ∅) makes this provably zero; the bench asserts
//!   it stays zero across every trial.
//!
//! * **rounds per cascade revoke** — quorum rounds one revocation of a
//!   login with 1/4/16 chained dependents costs on a 3-node cluster. A
//!   revocation scope flushes everything the cascade journals as one
//!   batch, so the bench asserts exactly 1 whatever the depth.
//! * **fan-out** — one quorum append over three real `WireServer`s on
//!   loopback, with the pipelined [`WireTransport`] round (the frame
//!   goes to every peer before the first reply is read) against the
//!   trait's sequential default over the same sockets.
//!
//! Reported (also emitted to `BENCH_replication.json`): append p50/p99
//! and frames per round per cluster size, failover p50/max, the gap, rounds and records per
//! cascade, and the two fan-out round times.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use oasis::core::{
    Atom, Credential, EnvContext, OasisService, PrincipalId, RoleName, ServiceConfig,
    ServiceJournal,
};
use oasis::facts::FactStore;
use oasis::store::{
    LocalMesh, PeerReply, PeerRequest, ReplicaConfig, ReplicaNode, ReplicatedStore,
    ReplicationTransport, StorageBackend, StoreError,
};
use oasis::wire::{WireServer, WireTransport};
use oasis_bench::{percentile, provenance_fields, table_header};

/// Fixed record size so the journal length counts acked entries.
const RECORD: &[u8] = b"0123456789abcdef";

/// The mesh as the nodes see it, counting the `Replicate` frames that
/// carry entries — commit rounds' frames, not heartbeats.
struct CountingTransport {
    mesh: LocalMesh,
    entry_frames: Arc<AtomicU64>,
}

impl ReplicationTransport for CountingTransport {
    fn call(&self, peer: &str, req: &PeerRequest) -> Result<PeerReply, StoreError> {
        if matches!(req, PeerRequest::Replicate { entries, .. } if !entries.is_empty()) {
            self.entry_frames.fetch_add(1, Ordering::Relaxed);
        }
        self.mesh.call(peer, req)
    }
}

fn cluster_with(
    n: usize,
    tweak: impl Fn(&mut ReplicaConfig),
) -> (LocalMesh, Vec<Arc<ReplicaNode>>) {
    let (mesh, nodes, _) = counted_cluster(n, tweak);
    (mesh, nodes)
}

/// An `n`-node mesh cluster and the count of entry-carrying frames its
/// nodes have sent.
fn counted_cluster(
    n: usize,
    tweak: impl Fn(&mut ReplicaConfig),
) -> (LocalMesh, Vec<Arc<ReplicaNode>>, Arc<AtomicU64>) {
    let mesh = LocalMesh::new();
    let entry_frames = Arc::new(AtomicU64::new(0));
    let ids: Vec<String> = (0..n).map(|i| format!("civ{i}")).collect();
    let nodes: Vec<Arc<ReplicaNode>> = ids
        .iter()
        .enumerate()
        .map(|(i, id)| {
            let peers = ids.iter().filter(|p| *p != id).cloned().collect();
            let mut cfg = ReplicaConfig::new(id.clone(), peers, format!("10.0.0.{i}:7450"));
            tweak(&mut cfg);
            let transport = CountingTransport {
                mesh: mesh.clone(),
                entry_frames: Arc::clone(&entry_frames),
            };
            let node = Arc::new(ReplicaNode::new(cfg, Arc::new(transport)));
            mesh.register(Arc::clone(&node));
            node
        })
        .collect();
    (mesh, nodes, entry_frames)
}

fn settle(mesh: &LocalMesh) -> (Arc<ReplicaNode>, u64) {
    let from = mesh.now();
    for _ in 0..400 {
        mesh.step(25);
        if let Some(leader) = mesh.live_leader() {
            return (leader, mesh.now() - from);
        }
    }
    panic!("no leader elected after 400 steps");
}

fn leader_store(n: usize) -> (LocalMesh, Arc<ReplicaNode>, ReplicatedStore, Arc<AtomicU64>) {
    let (mesh, _nodes, entry_frames) = counted_cluster(n, |_| {});
    let (leader, _) = settle(&mesh);
    let store = leader.replicated("journal");
    (mesh, leader, store, entry_frames)
}

/// One failover trial on a fresh `n`-node cluster: commit `pre`
/// entries, kill the leader, and measure virtual time until a survivor
/// leads, plus how many acked entries it is missing (the gap).
fn failover_trial(n: usize, pre: usize) -> (u64, u64) {
    let (mesh, leader, store, _) = leader_store(n);
    for _ in 0..pre {
        mesh.step(5);
        store.append(RECORD).expect("healthy append commits");
    }
    mesh.kill(leader.id());
    let (new_leader, failover_ms) = settle(&mesh);
    let present = new_leader.region("journal").read().unwrap().len() / RECORD.len();
    let gap = pre.saturating_sub(present) as u64;
    (failover_ms, gap)
}

struct Series {
    replicas: usize,
    quorum: usize,
    append_p50_us: f64,
    append_p99_us: f64,
    entry_frames_per_round: f64,
    failover_p50_ms: Option<u64>,
    failover_max_ms: Option<u64>,
    recovery_gap_max: u64,
    trials: usize,
}

fn replication_table() -> String {
    const APPENDS: usize = 200;
    const TRIALS: usize = 9;

    table_header(
        "TAB-H replicated journal: append cost, failover, recovery gap",
        "quorum commit makes acked writes node-loss-safe at bounded cost",
        "replicas  quorum  append p50  append p99  frames/round  failover p50  gap",
    );

    let us = |ns: u64| ns as f64 / 1_000.0;
    let mut series = Vec::new();
    for n in [1usize, 3, 5] {
        let (_mesh, leader, store, entry_frames) = leader_store(n);
        let frames_before = entry_frames.load(Ordering::Relaxed);
        let mut lat: Vec<u64> = (0..APPENDS)
            .map(|_| {
                let start = Instant::now();
                store.append(RECORD).expect("append commits");
                start.elapsed().as_nanos() as u64
            })
            .collect();
        lat.sort_unstable();
        assert_eq!(leader.stats().committed, APPENDS as u64);
        let frames_per_round =
            (entry_frames.load(Ordering::Relaxed) - frames_before) as f64 / APPENDS as f64;
        // A round goes to quorum−1 followers; the one(s) left out rejoin
        // a round once per 64-entry repair batch.
        let frames_bound = match n {
            3 => 1.05,
            5 => 2.1,
            _ => 0.0,
        };
        assert!(
            frames_per_round <= frames_bound,
            "{n} replicas: {frames_per_round:.3} Replicate frames with entries per committed \
             round, bound {frames_bound}"
        );

        // Failover is meaningless at n=1: the only node IS the data.
        let (failovers, gaps): (Vec<u64>, Vec<u64>) = if n > 1 {
            (0..TRIALS).map(|t| failover_trial(n, 4 + t)).unzip()
        } else {
            (Vec::new(), Vec::new())
        };
        let gap_max = gaps.iter().copied().max().unwrap_or(0);
        assert_eq!(
            gap_max, 0,
            "{n} replicas: a quorum-acked entry went missing after failover"
        );
        let mut sorted_failovers = failovers.clone();
        sorted_failovers.sort_unstable();

        let s = Series {
            replicas: n,
            quorum: n / 2 + 1,
            append_p50_us: us(percentile(&lat, 50.0)),
            append_p99_us: us(percentile(&lat, 99.0)),
            entry_frames_per_round: frames_per_round,
            failover_p50_ms: (!sorted_failovers.is_empty())
                .then(|| percentile(&sorted_failovers, 50.0)),
            failover_max_ms: sorted_failovers.last().copied(),
            recovery_gap_max: gap_max,
            trials: failovers.len(),
        };
        println!(
            "{:>8} {:>7} {:>9.1}us {:>9.1}us {:>13.3} {:>13} {:>4}",
            s.replicas,
            s.quorum,
            s.append_p50_us,
            s.append_p99_us,
            s.entry_frames_per_round,
            s.failover_p50_ms
                .map_or("n/a".to_string(), |ms| format!("{ms}ms")),
            s.recovery_gap_max,
        );
        series.push(s);
    }
    for s in series.iter().filter(|s| s.replicas > 1) {
        println!(
            "Replicate frames with entries per committed round, {} replicas: {:.3} \
             (sending to every follower: {})",
            s.replicas,
            s.entry_frames_per_round,
            s.replicas - 1
        );
    }

    let json_series = series
        .iter()
        .map(|s| {
            let fmt_opt = |v: Option<u64>| v.map_or("null".to_string(), |ms| ms.to_string());
            format!(
                "    {{\"replicas\": {}, \"quorum\": {}, \"append_p50_us\": {:.2}, \
                 \"append_p99_us\": {:.2}, \"entry_frames_per_round\": {:.3}, \
                 \"failover_p50_ms\": {}, \
                 \"failover_max_ms\": {}, \"recovery_gap_max\": {}, \"failover_trials\": {}}}",
                s.replicas,
                s.quorum,
                s.append_p50_us,
                s.append_p99_us,
                s.entry_frames_per_round,
                fmt_opt(s.failover_p50_ms),
                fmt_opt(s.failover_max_ms),
                s.recovery_gap_max,
                s.trials,
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    format!(
        "{{\n  {},\n  \"appends_per_series\": {},\n  \"series\": [\n{}\n  ]\n}}\n",
        provenance_fields("table_replication", 1, APPENDS, "p50 and p99 of rounds"),
        APPENDS,
        json_series,
    )
}

/// One lag-heal trial: a follower is cut off while `lag` entries land
/// (on top of `pre_fill` already replicated), the link heals, and we
/// measure the virtual ms to convergence plus the bytes each recovery
/// path shipped. `retain` decides the path: a tail longer than the lag
/// heals via entry repair, a compacted one forces a full-state sync.
fn lag_heal_trial(pre_fill: usize, lag: usize, retain: usize) -> (u64, u64, u64) {
    let (mesh, nodes) = cluster_with(3, |cfg| cfg.retain_entries = retain);
    let (leader, _) = settle(&mesh);
    let follower = nodes
        .iter()
        .find(|n| n.id() != leader.id())
        .expect("a follower")
        .clone();
    let store = leader.replicated("journal");
    for _ in 0..pre_fill {
        mesh.step(5);
        store.append(RECORD).expect("healthy append commits");
    }
    mesh.partition(leader.id(), follower.id());
    for _ in 0..lag {
        mesh.step(5);
        store.append(RECORD).expect("majority append commits");
    }
    let repair_before = leader.stats().repair_bytes_served;
    let sync_before = leader.stats().sync_bytes_sent;
    mesh.heal_partition(leader.id(), follower.id());
    let healed_from = mesh.now();
    for _ in 0..400 {
        if follower.last_index() == leader.last_index() {
            break;
        }
        mesh.step(25);
    }
    assert_eq!(
        follower.last_index(),
        leader.last_index(),
        "lagging follower must converge after the heal"
    );
    (
        mesh.now() - healed_from,
        leader.stats().repair_bytes_served - repair_before,
        leader.stats().sync_bytes_sent - sync_before,
    )
}

/// Election churn under a full isolation window, with or without
/// pre-vote: returns `(elections_started, leader_depositions)` summed
/// over the isolated node / old leader after the heal settles.
fn isolation_churn_trial(pre_vote: bool) -> (u64, u64) {
    let (mesh, nodes) = cluster_with(3, |cfg| cfg.pre_vote = pre_vote);
    let (leader, _) = settle(&mesh);
    let isolated = nodes
        .iter()
        .find(|n| n.id() != leader.id())
        .expect("a follower")
        .clone();
    for peer in nodes.iter().filter(|n| n.id() != isolated.id()) {
        mesh.partition(isolated.id(), peer.id());
    }
    for _ in 0..30 {
        mesh.step(25);
    }
    for peer in nodes.iter().filter(|n| n.id() != isolated.id()) {
        mesh.heal_partition(isolated.id(), peer.id());
    }
    for _ in 0..40 {
        mesh.step(25);
    }
    (
        isolated.stats().elections_started,
        leader.stats().step_downs,
    )
}

struct HealSeries {
    path: &'static str,
    retain: usize,
    heal_p50_ms: u64,
    heal_p99_ms: u64,
    repair_bytes: u64,
    sync_bytes: u64,
    trials: usize,
}

/// TAB-H addendum — partition hardening: entry repair vs full sync at
/// the same lag, and election churn with/without pre-vote. Returns the
/// JSON fragment spliced into `BENCH_replication.json`.
fn repair_table() -> String {
    const PRE_FILL: usize = 64;
    const LAG: usize = 32;
    const TRIALS: usize = 9;

    table_header(
        "TAB-H addendum: lag healing path and pre-vote churn",
        "entry repair ships the delta; full sync ships the world; pre-vote ships nothing",
        "path          retain  heal p50  heal p99  repair bytes  sync bytes",
    );

    let mut series = Vec::new();
    // retain 512: the 32-entry lag sits inside the tail — entry repair.
    // retain 2: the tail compacted past the lag — chunked full sync.
    for (path, retain) in [("entry-repair", 512usize), ("full-sync", 2)] {
        let trials: Vec<(u64, u64, u64)> = (0..TRIALS)
            .map(|_| lag_heal_trial(PRE_FILL, LAG, retain))
            .collect();
        let mut heals: Vec<u64> = trials.iter().map(|t| t.0).collect();
        heals.sort_unstable();
        let repair_bytes = trials.iter().map(|t| t.1).max().unwrap_or(0);
        let sync_bytes = trials.iter().map(|t| t.2).max().unwrap_or(0);
        if path == "entry-repair" {
            assert_eq!(
                sync_bytes, 0,
                "within-tail lag must never ship a full-state sync"
            );
            assert!(repair_bytes > 0, "repair path must actually serve entries");
        } else {
            assert!(sync_bytes > 0, "compacted tail must ship a sync");
        }
        let s = HealSeries {
            path,
            retain,
            heal_p50_ms: percentile(&heals, 50.0),
            heal_p99_ms: percentile(&heals, 99.0),
            repair_bytes,
            sync_bytes,
            trials: TRIALS,
        };
        println!(
            "{:<13} {:>6} {:>7}ms {:>7}ms {:>13} {:>11}",
            s.path, s.retain, s.heal_p50_ms, s.heal_p99_ms, s.repair_bytes, s.sync_bytes
        );
        series.push(s);
    }

    let (elections_pv, depositions_pv) = isolation_churn_trial(true);
    let (elections_raw, depositions_raw) = isolation_churn_trial(false);
    assert_eq!(
        depositions_pv, 0,
        "pre-vote must absorb the isolation without a deposition"
    );
    assert!(
        depositions_raw >= 1,
        "without pre-vote the isolation must depose the leader (the contrast)"
    );
    println!(
        "pre-vote on : elections_started={elections_pv} depositions={depositions_pv}\n\
         pre-vote off: elections_started={elections_raw} depositions={depositions_raw}"
    );

    let heal_json = series
        .iter()
        .map(|s| {
            format!(
                "    {{\"path\": \"{}\", \"retain_entries\": {}, \"lag_entries\": {}, \
                 \"heal_p50_ms\": {}, \"heal_p99_ms\": {}, \"repair_bytes\": {}, \
                 \"sync_bytes\": {}, \"trials\": {}}}",
                s.path,
                s.retain,
                LAG,
                s.heal_p50_ms,
                s.heal_p99_ms,
                s.repair_bytes,
                s.sync_bytes,
                s.trials
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    format!(
        "  \"lag_heal\": [\n{heal_json}\n  ],\n  \"isolation_churn\": {{\n    \
         \"with_pre_vote\": {{\"elections_started\": {elections_pv}, \"depositions\": {depositions_pv}}},\n    \
         \"without_pre_vote\": {{\"elections_started\": {elections_raw}, \"depositions\": {depositions_raw}}}\n  }}"
    )
}

/// A login issuer journalling through `leader`, with `depth` roles
/// chained under the initial role `r0`, each retaining its prerequisite.
fn chained_issuer(leader: &Arc<ReplicaNode>, depth: usize) -> Arc<OasisService> {
    let journal: Arc<dyn StorageBackend> = Arc::new(leader.replicated("journal"));
    let snapshot: Arc<dyn StorageBackend> = Arc::new(leader.replicated("snapshot"));
    let store = ServiceJournal::open(journal, snapshot).expect("replicated journal opens");
    let svc = OasisService::new(
        ServiceConfig::new("login")
            .with_journal(store)
            .with_revocation_retention(64),
        Arc::new(FactStore::new()),
    );
    svc.define_role("r0", &[], true).unwrap();
    svc.add_activation_rule("r0", vec![], vec![], vec![])
        .unwrap();
    for i in 1..=depth {
        svc.define_role(format!("r{i}"), &[], false).unwrap();
        svc.add_activation_rule(
            format!("r{i}"),
            vec![],
            vec![Atom::prereq(format!("r{}", i - 1), vec![])],
            vec![0],
        )
        .unwrap();
    }
    svc
}

/// TAB-H addendum — quorum rounds per cascade revocation. Returns the
/// JSON fragment spliced into `BENCH_replication.json`.
fn cascade_rounds_table() -> String {
    const TRIALS: usize = 25;

    table_header(
        "TAB-H addendum: quorum rounds per cascade revoke (3 replicas)",
        "a revocation is one round whatever it collapses",
        " depth  records  rounds  revoke p50",
    );
    let alice = PrincipalId::new("alice");
    let ctx = EnvContext::new(1);
    let mut rows = Vec::new();
    for depth in [1usize, 4, 16] {
        let (_mesh, leader, _, _) = leader_store(3);
        let svc = chained_issuer(&leader, depth);
        let mut lat = Vec::with_capacity(TRIALS);
        let (mut records, mut rounds) = (0, 0);
        for _ in 0..TRIALS {
            let mut rmc = svc
                .activate_role(&alice, &RoleName::new("r0"), &[], &[], &ctx)
                .expect("login");
            let root = rmc.crr.cert_id;
            for i in 1..=depth {
                rmc = svc
                    .activate_role(
                        &alice,
                        &RoleName::new(format!("r{i}")),
                        &[],
                        &[Credential::Rmc(rmc)],
                        &ctx,
                    )
                    .expect("chained role");
            }
            let rounds_before = leader.stats().committed;
            let records_before = svc.journal_stats().expect("journalled").appended;
            let start = Instant::now();
            assert!(svc.revoke_certificate(root, "logout", 2));
            lat.push(start.elapsed().as_nanos() as u64);
            assert_eq!(svc.record_stats().0, 0, "the whole chain collapsed");
            rounds = leader.stats().committed - rounds_before;
            assert_eq!(
                rounds, 1,
                "depth {depth}: a cascade revoke must cost exactly one quorum round"
            );
            records = svc.journal_stats().expect("journalled").appended - records_before;
        }
        lat.sort_unstable();
        let p50_us = percentile(&lat, 50.0) as f64 / 1_000.0;
        println!("{depth:>6} {records:>8} {rounds:>7} {p50_us:>9.1}us");
        rows.push(format!(
            "    {{\"depth\": {depth}, \"records\": {records}, \"rounds\": {rounds}, \
             \"revoke_p50_us\": {p50_us:.2}, \"trials\": {TRIALS}}}"
        ));
    }
    format!("  \"cascade_rounds\": [\n{}\n  ]", rows.join(",\n"))
}

/// [`ReplicationTransport::call_all`]'s sequential default over the
/// same sockets as the pipelined [`WireTransport`].
struct SequentialFanOut(WireTransport);

impl ReplicationTransport for SequentialFanOut {
    fn call(&self, peer: &str, req: &PeerRequest) -> Result<PeerReply, StoreError> {
        self.0.call(peer, req)
    }
}

/// Three replicas behind real `WireServer`s on loopback; returns the
/// elected leader. The servers run until the process exits.
fn tcp_leader(pipelined: bool) -> Arc<ReplicaNode> {
    let addrs: Vec<std::net::SocketAddr> = {
        let reserved: Vec<std::net::TcpListener> = (0..3)
            .map(|_| std::net::TcpListener::bind("127.0.0.1:0").expect("reserve port"))
            .collect();
        reserved
            .iter()
            .map(|l| l.local_addr().expect("addr"))
            .collect()
    };
    let ids: Vec<String> = (0..3).map(|i| format!("civ{i}")).collect();
    let nodes: Vec<Arc<ReplicaNode>> = ids
        .iter()
        .zip(&addrs)
        .map(|(id, addr)| {
            let peers = ids.iter().filter(|p| *p != id).cloned().collect();
            let directory = ids
                .iter()
                .zip(&addrs)
                .filter(|(p, _)| *p != id)
                .map(|(p, a)| (p.clone(), *a));
            let wire = WireTransport::new(directory);
            let transport: Arc<dyn ReplicationTransport> = if pipelined {
                Arc::new(wire)
            } else {
                Arc::new(SequentialFanOut(wire))
            };
            let cfg = ReplicaConfig::new(id.clone(), peers, addr.to_string());
            let node = Arc::new(ReplicaNode::new(cfg, transport));
            let host = OasisService::new(ServiceConfig::new("host"), Arc::new(FactStore::new()));
            WireServer::bind(host, &addr.to_string())
                .expect("server binds")
                .with_replica(Arc::clone(&node))
                .serve_in_background()
                .expect("server serves");
            node
        })
        .collect();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let leaders: Vec<&Arc<ReplicaNode>> = nodes.iter().filter(|n| n.is_leader()).collect();
        if let [leader] = leaders.as_slice() {
            return Arc::clone(leader);
        }
        assert!(Instant::now() < deadline, "no unique leader within 10 s");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// TAB-H addendum — one quorum round over real sockets, pipelined
/// against sequential. Returns the JSON fragment spliced into
/// `BENCH_replication.json`.
fn fan_out_table() -> String {
    const APPENDS: usize = 400;

    table_header(
        "TAB-H addendum: fan-out round over loopback TCP (3 replicas)",
        "a round costs the slowest follower's round trip, not the sum",
        "fan-out      append p50  append p99",
    );
    let mut fields = Vec::new();
    for (name, pipelined) in [("sequential", false), ("pipelined", true)] {
        let leader = tcp_leader(pipelined);
        let store = leader.replicated("journal");
        let mut lat: Vec<u64> = (0..APPENDS)
            .map(|_| {
                let start = Instant::now();
                store.append(RECORD).expect("append commits");
                start.elapsed().as_nanos() as u64
            })
            .collect();
        lat.sort_unstable();
        let p50 = percentile(&lat, 50.0) as f64 / 1_000.0;
        let p99 = percentile(&lat, 99.0) as f64 / 1_000.0;
        println!("{name:<12} {p50:>8.1}us {p99:>9.1}us");
        fields.push(format!(
            "\"{name}_p50_us\": {p50:.1}, \"{name}_p99_us\": {p99:.1}"
        ));
    }
    format!(
        "  \"wire_fan_out\": {{\"replicas\": 3, \"appends\": {APPENDS}, {}}}",
        fields.join(", ")
    )
}

fn bench_replication(c: &mut Criterion) {
    let json = replication_table();
    let addenda = [repair_table(), cascade_rounds_table(), fan_out_table()].join(",\n");
    let json = json.replacen(
        "\n  \"series\": [",
        &format!("\n{addenda},\n  \"series\": ["),
        1,
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_replication.json");
    std::fs::write(out, json).expect("write BENCH_replication.json");
    println!("wrote {out}");

    let mut group = c.benchmark_group("replication");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    for n in [1usize, 3, 5] {
        group.bench_function(BenchmarkId::new("quorum_append", n), |b| {
            let (_mesh, _leader, store, _) = leader_store(n);
            b.iter(|| store.append(RECORD).expect("append commits"));
        });
    }
    group.bench_function(BenchmarkId::new("failover", 3), |b| {
        b.iter(|| failover_trial(3, 5));
    });
    group.finish();
}

criterion_group!(benches, bench_replication);
criterion_main!(benches);
