//! End-to-end replication over real sockets: a three-node CIV cluster,
//! each node a `WireServer` with a `ReplicaNode` whose peer traffic
//! rides `Request::Peer` frames over localhost TCP.
//!
//! Covers the wire-layer half of the replicated-CIV story:
//! * the election converges over TCP (no in-process mesh anywhere);
//! * a follower answers application traffic with `NotLeader` + hint;
//! * [`FailoverClient`] chases hints to the leader and keeps working
//!   across a leadership change, and a [`RemoteValidator`] follows one
//!   within its single attempt;
//! * a journalled write through the leader's service replicates to the
//!   followers' regions;
//! * after a deposition, the promoted node recovers from its replicated
//!   journal and serves a gap-free resync of revocations it never saw
//!   in memory;
//! * a cascade revocation is one quorum round, and a round commits at
//!   quorum while one peer refuses connections.

use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::time::{Duration, Instant};

use oasis_core::overload::AdmissionController;
use oasis_core::retry::RetryPolicy;
use oasis_core::{
    Atom, Credential, CredentialValidator, OasisService, PrincipalId, ResilientValidator,
    ServiceConfig, ServiceJournal, Term, Value, ValueType,
};
use oasis_crypto::{IssuerSecret, SecretKey};
use oasis_facts::FactStore;
use oasis_store::{MemBackend, ReplicaConfig, ReplicaNode, StorageBackend};
use oasis_wire::{
    FailoverClient, RemoteValidator, WireClient, WireError, WireServer, WireTransport,
};

fn alice() -> PrincipalId {
    PrincipalId::new("alice")
}

/// Reserves `n` distinct localhost ports. The listeners are dropped
/// before the servers bind, which is racy in theory; in practice the
/// kernel does not reissue a just-released ephemeral port this fast.
fn free_addrs(n: usize) -> Vec<SocketAddr> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("reserve port"))
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().expect("local addr"))
        .collect()
}

/// A durable login issuer over `node`'s replicated regions. Every
/// replica is provisioned with the same issuing key — secrets are not
/// journalled, and a promoted node must honour outstanding RMCs.
fn durable_login(node: &Arc<ReplicaNode>) -> Arc<OasisService> {
    let facts = Arc::new(FactStore::new());
    facts.define("password_ok", 1).unwrap();
    facts
        .insert("password_ok", vec![Value::id("alice")])
        .unwrap();
    let journal: Arc<dyn StorageBackend> = Arc::new(node.replicated("journal"));
    let snapshot: Arc<dyn StorageBackend> = Arc::new(node.replicated("snapshot"));
    let store = ServiceJournal::open(journal, snapshot).expect("replicated journal opens");
    let svc = OasisService::new(
        ServiceConfig::new("login")
            .with_journal(store)
            .with_revocation_retention(64)
            .with_secret(IssuerSecret::from_key(SecretKey::from_bytes([9; 32]))),
        facts,
    );
    svc.define_role("logged_in", &[("user", ValueType::Id)], true)
        .unwrap();
    svc.add_activation_rule(
        "logged_in",
        vec![Term::var("U")],
        vec![Atom::env_fact("password_ok", vec![Term::var("U")])],
        vec![0],
    )
    .unwrap();
    svc.define_role("desk", &[], false).unwrap();
    svc.add_activation_rule(
        "desk",
        vec![],
        vec![Atom::prereq("logged_in", vec![Term::var("U")])],
        vec![0],
    )
    .unwrap();
    svc
}

struct Cluster {
    addrs: Vec<SocketAddr>,
    nodes: Vec<Arc<ReplicaNode>>,
    services: Vec<Arc<OasisService>>,
    controllers: Vec<Arc<AdmissionController>>,
}

fn start_cluster(n: usize) -> Cluster {
    start_cluster_without(n, &[])
}

/// An `n`-node cluster whose `dead` members are configured everywhere
/// but never started: their addresses refuse connections.
fn start_cluster_without(n: usize, dead: &[usize]) -> Cluster {
    let addrs = free_addrs(n);
    let ids: Vec<String> = (0..n).map(|i| format!("civ{i}")).collect();
    let mut nodes = Vec::new();
    let mut services = Vec::new();
    let mut controllers = Vec::new();
    for (i, id) in ids.iter().enumerate() {
        if dead.contains(&i) {
            continue;
        }
        let peers: Vec<String> = ids.iter().filter(|p| *p != id).cloned().collect();
        let directory: Vec<(String, SocketAddr)> = ids
            .iter()
            .zip(&addrs)
            .filter(|(p, _)| *p != id)
            .map(|(p, a)| (p.clone(), *a))
            .collect();
        let mut cfg = ReplicaConfig::new(id.clone(), peers, addrs[i].to_string());
        // This suite deposes a *healthy* leader by forcing a follower
        // election — the exact move pre-vote exists to veto. Disable
        // it here; pre-vote has its own coverage in oasis-store and
        // the conformance term-storm cell.
        cfg.pre_vote = false;
        let node = Arc::new(ReplicaNode::new(
            cfg,
            Arc::new(WireTransport::new(directory)),
        ));
        let service = durable_login(&node);
        let server = WireServer::bind(Arc::clone(&service), &addrs[i].to_string())
            .expect("server binds")
            .with_replica(Arc::clone(&node));
        controllers.push(server.controller());
        server.serve_in_background().expect("server serves");
        nodes.push(node);
        services.push(service);
    }
    Cluster {
        addrs,
        nodes,
        services,
        controllers,
    }
}

/// Waits until every other node's `region` holds the leader's bytes.
fn await_convergence(cluster: &Cluster, leader: usize, region: &str) -> Vec<u8> {
    let golden = cluster.nodes[leader].region(region).read().unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let caught_up = cluster
            .nodes
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != leader)
            .all(|(_, n)| n.region(region).read().unwrap() == golden);
        if caught_up {
            return golden;
        }
        assert!(
            Instant::now() < deadline,
            "followers must converge within 5s"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Waits until exactly one node leads, returning its index.
fn await_leader(cluster: &Cluster) -> usize {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let leaders: Vec<usize> = cluster
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.is_leader())
            .map(|(i, _)| i)
            .collect();
        if let [one] = leaders.as_slice() {
            return *one;
        }
        assert!(Instant::now() < deadline, "no unique leader within 10s");
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn cluster_elects_replicates_and_fails_over_on_tcp() {
    let cluster = start_cluster(3);
    let leader = await_leader(&cluster);
    let follower = (leader + 1) % 3;

    // A follower refuses application traffic with the leader's address;
    // peer frames and pings are exempt (tested implicitly: the election
    // above crossed this very server).
    let mut raw = WireClient::connect(cluster.addrs[follower]).unwrap();
    raw.ping().expect("ping bypasses leadership gating");
    match raw.activate(&alice(), "logged_in", vec![Value::id("alice")], vec![], 1) {
        Err(WireError::NotLeader { hint }) => {
            assert_eq!(
                hint.as_deref(),
                Some(cluster.addrs[leader].to_string().as_str())
            );
        }
        other => panic!("follower must answer NotLeader, got {other:?}"),
    }

    // A failover client pointed only at the two followers still lands
    // on the leader by chasing the hint.
    let mut client = FailoverClient::new([
        cluster.addrs[(leader + 1) % 3].to_string(),
        cluster.addrs[(leader + 2) % 3].to_string(),
    ])
    .with_retry(RetryPolicy::default());
    let rmc = client
        .activate(&alice(), "logged_in", vec![Value::id("alice")], vec![], 2)
        .expect("activation reaches the leader via hint");

    // The issuance journalled through the quorum path: both followers'
    // journal regions converge to the leader's bytes.
    let leader_journal = await_convergence(&cluster, leader, "journal");
    assert!(!leader_journal.is_empty(), "issuance was journalled");

    // Depose the leader: a follower stands for a higher term (its log
    // is complete, so the election restriction lets it win) and the old
    // leader steps down on the next higher-term frame it sees.
    let new_leader = (leader + 1) % 3;
    let now = cluster.controllers[new_leader].now_ms();
    assert!(
        cluster.nodes[new_leader].start_election(now),
        "up-to-date follower must win the higher term"
    );
    let deadline = Instant::now() + Duration::from_secs(10);
    while cluster.nodes[leader].is_leader() {
        assert!(Instant::now() < deadline, "old leader must step down");
        std::thread::sleep(Duration::from_millis(20));
    }

    // Promote: the new leader's service instance never saw the
    // issuance in memory — it recovers it from the replicated journal.
    let report = cluster.services[new_leader]
        .recover(cluster.controllers[new_leader].now_ms())
        .expect("promoted node recovers");
    assert!(
        report.records_restored >= 1,
        "issuance recovered from journal"
    );

    // The same client keeps working across the failover: its cached
    // connection answers NotLeader with the new hint, and the revoke
    // lands on the promoted node.
    let was_active = client
        .revoke(rmc.crr.cert_id.0, "deposed-leader test", 3)
        .expect("revoke survives the leadership change");
    assert!(was_active, "promoted node recovered the issuance");

    // And the promoted node serves a gap-free resync of a revocation
    // the original leader never journalled.
    let (events, complete) = client
        .resync("cred.revoked.login", 0)
        .expect("resync from promoted node");
    assert!(complete, "promoted ring replays complete");
    assert_eq!(events.len(), 1);
    assert_eq!(events[0].payload.crr.cert_id, rmc.crr.cert_id);
}

/// A validator pointed at a follower follows its `NotLeader` hint inside
/// the one attempt: the leader vouches for its credential and the
/// retry owner above never retries.
#[test]
fn remote_validator_follows_a_not_leader_hint() {
    let cluster = start_cluster(3);
    let leader = await_leader(&cluster);
    let follower = (leader + 1) % 3;
    let mut client = WireClient::connect(cluster.addrs[leader]).unwrap();
    let rmc = client
        .activate(&alice(), "logged_in", vec![Value::id("alice")], vec![], 1)
        .expect("login at the leader");
    // The follower names the leader once a heartbeat has reached it.
    let leader_addr = cluster.addrs[leader].to_string();
    let deadline = Instant::now() + Duration::from_secs(5);
    while cluster.nodes[follower].leader_hint().as_deref() != Some(leader_addr.as_str()) {
        assert!(Instant::now() < deadline, "follower must learn the leader");
        std::thread::sleep(Duration::from_millis(20));
    }

    let remote = RemoteValidator::new();
    remote.add_issuer("login", cluster.addrs[follower]);
    let validator = ResilientValidator::new(Arc::new(remote));
    validator
        .validate(&Credential::Rmc(rmc), &alice(), 2)
        .expect("the hinted leader vouches for its own credential");
    assert_eq!(validator.stats().retries, 0, "a hint is not a retry");
}

/// A login revocation with one dependent journals four records
/// (`CertRevoked`×2, `RetainedPublished`×2). They reach the followers as
/// one `RegionOp::Append`: one quorum round, committed before the ack.
#[test]
fn cascade_revoke_is_one_quorum_round_over_tcp() {
    let cluster = start_cluster(3);
    let leader = await_leader(&cluster);
    let mut client = WireClient::connect(cluster.addrs[leader]).unwrap();
    let login = client
        .activate(&alice(), "logged_in", vec![Value::id("alice")], vec![], 1)
        .expect("login");
    let desk = client
        .activate(
            &alice(),
            "desk",
            vec![],
            vec![Credential::Rmc(login.clone())],
            2,
        )
        .expect("dependent role");

    let rounds_before = cluster.nodes[leader].stats().committed;
    assert!(client.revoke(login.crr.cert_id.0, "logout", 3).unwrap());
    assert_eq!(
        cluster.nodes[leader].stats().committed,
        rounds_before + 1,
        "the whole cascade is one round"
    );
    assert!(!cluster.services[leader]
        .record(desk.crr.cert_id)
        .unwrap()
        .status
        .is_active());

    // Both followers hold the leader's journal, byte for byte, and it
    // decodes to the two issuances plus the cascade's four records.
    let journal = await_convergence(&cluster, leader, "journal");
    let backend = MemBackend::new();
    backend.append(&journal).unwrap();
    let replayed = ServiceJournal::open(Arc::new(backend), Arc::new(MemBackend::new()))
        .unwrap()
        .load()
        .unwrap();
    assert!(!replayed.tail.torn);
    assert_eq!(replayed.events.len(), 6);
}

/// One of the two followers was never started: its address refuses
/// connections, and it comes first in the others' peer order. Rounds
/// still commit at quorum 2, and the live follower has the bytes when
/// the write returns.
#[test]
fn round_commits_at_quorum_while_one_peer_refuses_connections() {
    let cluster = start_cluster_without(3, &[0]);
    let leader = await_leader(&cluster);
    let node = &cluster.nodes[leader];
    assert_eq!(
        node.config().peers[0],
        "civ0",
        "the dead peer is tried first"
    );

    let store = node.replicated("scratch");
    for chunk in [b"one".as_slice(), b"two", b"three"] {
        store.append(chunk).expect("quorum of two commits");
    }
    let stats = node.stats();
    assert_eq!(stats.committed, 3);
    assert_eq!(stats.no_quorum, 0);
    let follower = &cluster.nodes[1 - leader];
    assert_eq!(
        follower.region("scratch").read().unwrap(),
        b"onetwothree",
        "acked means the live follower already holds it"
    );
}
