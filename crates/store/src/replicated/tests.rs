use super::*;

fn cluster_with(
    n: usize,
    tweak: impl Fn(&mut ReplicaConfig),
) -> (LocalMesh, Vec<Arc<ReplicaNode>>) {
    let mesh = LocalMesh::new();
    let ids: Vec<String> = (0..n).map(|i| format!("n{i}")).collect();
    let nodes: Vec<Arc<ReplicaNode>> = ids
        .iter()
        .enumerate()
        .map(|(i, id)| {
            let peers = ids.iter().filter(|p| *p != id).cloned().collect();
            let mut cfg = ReplicaConfig::new(id.clone(), peers, format!("127.0.0.1:{}", 9100 + i));
            tweak(&mut cfg);
            let node = Arc::new(ReplicaNode::new(cfg, Arc::new(mesh.clone())));
            mesh.register(Arc::clone(&node));
            node
        })
        .collect();
    (mesh, nodes)
}

/// A vote request from `candidate` for `term`, with an empty log.
fn claim(term: u64, candidate: &str) -> PeerRequest {
    PeerRequest::LeaderClaim {
        term,
        candidate: candidate.into(),
        candidate_hint: "x".into(),
        last_index: 0,
        last_term: 0,
    }
}

/// A vote reply at `term`.
fn vote(term: u64, granted: bool) -> PeerReply {
    PeerReply::Vote { term, granted }
}

fn cluster(n: usize) -> (LocalMesh, Vec<Arc<ReplicaNode>>) {
    cluster_with(n, |_| {})
}

/// Drives ticks until exactly one live leader exists.
fn settle(mesh: &LocalMesh) -> Arc<ReplicaNode> {
    for _ in 0..200 {
        mesh.step(25);
        if let Some(leader) = mesh.live_leader() {
            return leader;
        }
    }
    panic!("no leader elected after 200 steps");
}

#[test]
fn message_json_round_trips() {
    let reqs = vec![
        PeerRequest::Replicate {
            term: 3,
            leader: "n0".into(),
            leader_hint: "127.0.0.1:9100".into(),
            prev_index: 7,
            prev_hash: 0xdeadbeef,
            entries: vec![LogEntry {
                index: 8,
                term: 3,
                region: "journal".into(),
                op: RegionOp::Append(vec![0, 1, 255]),
            }],
        },
        PeerRequest::LeaderClaim {
            term: 4,
            candidate: "n1".into(),
            candidate_hint: "127.0.0.1:9101".into(),
            last_index: 8,
            last_term: 3,
        },
        PeerRequest::PreVote {
            term: 5,
            candidate: "n2".into(),
            last_index: 8,
            last_term: 4,
        },
        PeerRequest::Repair {
            term: 4,
            follower: "n2".into(),
            from_index: 6,
            from_hash: 0xfeed,
        },
        PeerRequest::SyncChunk {
            term: 4,
            leader: "n1".into(),
            leader_hint: "127.0.0.1:9101".into(),
            session: 7,
            seq: 2,
            total: 5,
            region: "journal".into(),
            offset: 8192,
            bytes: vec![9, 8, 7],
            checksum: 0xabc,
            last_index: 8,
            last_hash: 99,
            last_term: 4,
        },
    ];
    for req in reqs {
        let text = oasis_json::to_string(&req);
        let back: PeerRequest = oasis_json::from_str(&text).unwrap();
        assert_eq!(back, req);
    }
    let replies = vec![
        PeerReply::ReplicateAck {
            term: 3,
            last_index: 8,
            log_hash: 0xbeef,
            ok: true,
        },
        PeerReply::Vote {
            term: 4,
            granted: false,
        },
        PeerReply::PreVoteAck {
            term: 5,
            granted: true,
        },
        PeerReply::RepairChunk {
            term: 4,
            ok: true,
            entries: vec![LogEntry {
                index: 7,
                term: 2,
                region: "journal".into(),
                op: RegionOp::Replace(vec![4, 2]),
            }],
            last_index: 8,
        },
        PeerReply::ChunkAck {
            term: 4,
            seq: 2,
            ok: true,
        },
    ];
    for reply in replies {
        let text = oasis_json::to_string(&reply);
        let back: PeerReply = oasis_json::from_str(&text).unwrap();
        assert_eq!(back, reply);
    }
}

#[test]
fn election_settles_on_single_leader() {
    let (mesh, nodes) = cluster(3);
    let leader = settle(&mesh);
    assert_eq!(
        nodes.iter().filter(|n| n.is_leader()).count(),
        1,
        "exactly one leader"
    );
    assert!(leader.term() >= 1);
    // Followers learned the leader's client hint.
    for n in &nodes {
        if !n.is_leader() {
            assert_eq!(n.leader_hint(), leader.leader_hint());
        }
    }
}

/// The commit contract: a majority holds `bytes` in `region` when
/// the write returns, and every node holds it one heartbeat later.
fn assert_majority_then_all(
    mesh: &LocalMesh,
    nodes: &[Arc<ReplicaNode>],
    leader: &ReplicaNode,
    region: &str,
    bytes: &[u8],
) {
    let holders = || {
        nodes
            .iter()
            .filter(|n| {
                n.region(region).read().unwrap() == bytes && n.last_index() == leader.last_index()
            })
            .count()
    };
    assert!(holders() >= leader.quorum(), "a majority holds the write");
    mesh.step(leader.config.heartbeat_ms + 1);
    assert_eq!(
        holders(),
        nodes.len(),
        "every node holds it after a heartbeat"
    );
}

#[test]
fn quorum_append_replicates_to_all_nodes() {
    let (mesh, nodes) = cluster(3);
    let leader = settle(&mesh);
    let store = leader.replicated("journal");
    store.append(b"rec-1").unwrap();
    store.append(b"rec-2").unwrap();
    assert_majority_then_all(&mesh, &nodes, &leader, "journal", b"rec-1rec-2");
    assert_eq!(leader.last_index(), 2);
    assert_eq!(leader.stats().committed, 2);
}

#[test]
fn replace_replicates_too() {
    let (mesh, nodes) = cluster(3);
    let leader = settle(&mesh);
    let store = leader.replicated("snapshot");
    store.append(b"old").unwrap();
    store.replace(b"new-snapshot").unwrap();
    assert_majority_then_all(&mesh, &nodes, &leader, "snapshot", b"new-snapshot");
}

#[test]
fn replicate_with_an_index_gap_is_nacked() {
    let (_mesh, nodes) = cluster(3);
    let follower = &nodes[0];
    let frame = PeerRequest::Replicate {
        term: 1,
        leader: "n1".into(),
        leader_hint: "127.0.0.1:9101".into(),
        prev_index: 0,
        prev_hash: 0,
        entries: vec![LogEntry {
            index: 7,
            term: 1,
            region: "journal".into(),
            op: RegionOp::Append(b"rec-7".to_vec()),
        }],
    };
    let PeerReply::ReplicateAck { ok, last_index, .. } = follower.handle(&frame, 0) else {
        panic!("a Replicate frame is answered with a ReplicateAck");
    };
    assert!(!ok, "an entry that does not continue the log is nacked");
    assert_eq!(last_index, 0);
    assert_eq!(follower.last_index(), 0);
    assert!(follower.region("journal").read().unwrap().is_empty());
}

#[test]
fn steady_rounds_contact_a_quorum_only() {
    const APPENDS: u64 = 200;
    let (mesh, nodes) = cluster(3);
    let leader = settle(&mesh);
    let store = leader.replicated("journal");
    // No ticks: every frame below is a commit round's.
    for i in 0..APPENDS {
        store.append(format!("r{i};").as_bytes()).unwrap();
    }
    assert_eq!(leader.stats().committed, APPENDS);
    let lazy = nodes
        .iter()
        .find(|n| n.last_index() < leader.last_index())
        .expect("one follower is left out of the rounds");
    // It caught up by one repair pull per lag-bound round, each pull
    // one chunk, never by a state transfer.
    let pulls = lazy.stats().repairs_pulled;
    let bound = APPENDS.div_ceil(REPAIR_BATCH as u64) + 1;
    assert!(
        pulls <= bound,
        "{pulls} repair pulls for {APPENDS} rounds (bound {bound})"
    );
    assert!(pulls >= 1);
    assert_eq!(leader.stats().repair_chunks_served, pulls);
    assert_eq!(lazy.stats().syncs_applied, 0);
    assert_eq!(leader.stats().sync_chunks_sent, 0);
}

#[test]
fn lazy_follower_never_trails_more_than_a_repair_batch() {
    for n in [3, 5] {
        let (_mesh, nodes) = cluster(n);
        let leader = settle(&_mesh);
        let store = leader.replicated("journal");
        let mut max_trail = 0;
        for i in 0..300 {
            store.append(format!("r{i};").as_bytes()).unwrap();
            for f in &nodes {
                max_trail = max_trail.max(leader.last_index() - f.last_index());
            }
        }
        assert_eq!(
            max_trail,
            REPAIR_BATCH as u64 - 1,
            "{n} nodes: a follower left out rejoins before it trails by a repair batch"
        );
        assert_eq!(leader.stats().no_quorum, 0);
        assert_eq!(leader.stats().sync_chunks_sent, 0);
    }
}

#[test]
fn killing_the_sync_follower_commits_on_the_next_round() {
    let (mesh, nodes) = cluster(3);
    let leader = settle(&mesh);
    let store = leader.replicated("journal");
    for i in 0..10 {
        store.append(format!("r{i};").as_bytes()).unwrap();
    }
    let followers = || nodes.iter().filter(|n| n.id() != leader.id());
    let sync = followers()
        .find(|n| n.last_index() == leader.last_index())
        .expect("the follower that acked the last round");
    let lazy = followers().find(|n| n.id() != sync.id()).unwrap();
    assert!(lazy.last_index() < leader.last_index(), "left out so far");
    mesh.kill(sync.id());
    // The sync set fails, so the same round calls the lazy follower,
    // which repairs up to the in-flight entry and acks it.
    store.append(b"after-kill;").unwrap();
    assert_eq!(lazy.last_index(), leader.last_index());
    store.append(b"and-on;").unwrap();
    assert_eq!(leader.stats().no_quorum, 0);
    assert_eq!(
        lazy.region("journal").read().unwrap(),
        leader.region("journal").read().unwrap()
    );
}

#[test]
fn leader_loss_after_thrifty_rounds_fails_over_promptly() {
    let (mesh, nodes) = cluster(3);
    let leader = settle(&mesh);
    let store = leader.replicated("journal");
    for i in 0..8 {
        mesh.step(5);
        store.append(format!("r{i};").as_bytes()).unwrap();
    }
    // Only the sync follower heard the last rounds, so the two
    // followers' election timers now expire apart. The one left out
    // is refused (stale log); its refusal must not make it refuse
    // the up-to-date follower's probe in turn.
    mesh.kill(leader.id());
    let killed_at = mesh.now();
    let successor = settle(&mesh);
    assert!(
        mesh.now() - killed_at <= 400,
        "failover took {} ms",
        mesh.now() - killed_at
    );
    assert_eq!(successor.last_index(), leader.last_index());
    assert!(nodes.iter().any(|n| Arc::ptr_eq(n, &successor)));
}

#[test]
fn lagging_follower_that_catches_up_acks_the_round() {
    let (mesh, nodes) = cluster(3);
    let leader = settle(&mesh);
    let mut followers = nodes.iter().filter(|n| n.id() != leader.id());
    let (f1, f2) = (followers.next().unwrap(), followers.next().unwrap());
    let store = leader.replicated("journal");
    mesh.partition(leader.id(), f2.id());
    for i in 0..3 {
        store.append(format!("r{i};").as_bytes()).unwrap();
    }
    mesh.heal_partition(leader.id(), f2.id());
    mesh.kill(f1.id());
    // F2 trails by three entries: its repair pull fetches those and
    // the round's own entry, so its log holds the round and it must
    // ack — F2 is the only other member of the quorum.
    store.append(b"r3;").unwrap();
    assert_eq!(f2.last_index(), 4);
    assert_eq!(f2.last_index(), leader.last_index());
    assert_eq!(leader.stats().no_quorum, 0);
}

#[test]
fn follower_rejects_writes_with_leader_hint() {
    let (mesh, nodes) = cluster(3);
    let leader = settle(&mesh);
    let follower = nodes.iter().find(|n| !n.is_leader()).unwrap();
    let store = follower.replicated("journal");
    match store.append(b"nope") {
        Err(StoreError::NotLeader { hint }) => {
            assert_eq!(hint, leader.leader_hint());
        }
        other => panic!("expected NotLeader, got {other:?}"),
    }
}

#[test]
fn no_quorum_fails_the_write() {
    let (mesh, nodes) = cluster(3);
    let leader = settle(&mesh);
    let followers: Vec<&str> = nodes
        .iter()
        .filter(|n| !n.is_leader())
        .map(|n| n.id())
        .collect();
    for f in &followers {
        mesh.partition(leader.id(), f);
    }
    let store = leader.replicated("journal");
    match store.append(b"isolated") {
        Err(StoreError::NoQuorum { needed, acked }) => {
            assert_eq!(needed, 2);
            assert_eq!(acked, 1);
        }
        other => panic!("expected NoQuorum, got {other:?}"),
    }
}

#[test]
fn crashed_follower_catches_up_via_entry_repair() {
    let (mesh, nodes) = cluster(3);
    let leader = settle(&mesh);
    let follower = nodes.iter().find(|n| !n.is_leader()).unwrap();
    mesh.kill(follower.id());
    let store = leader.replicated("journal");
    for i in 0..5 {
        store.append(format!("rec-{i}").as_bytes()).unwrap();
    }
    assert!(follower.last_index() < leader.last_index());
    mesh.revive(follower.id());
    // The next heartbeat's stale prev makes the follower pull the
    // missing suffix from the leader's retained tail — no
    // full-state transfer at all.
    mesh.step(leader.config.heartbeat_ms + 1);
    assert_eq!(follower.last_index(), leader.last_index());
    assert_eq!(
        follower.region("journal").read().unwrap(),
        leader.region("journal").read().unwrap()
    );
    let fs = follower.stats();
    assert!(fs.repairs_pulled >= 1, "follower pulled repair");
    assert_eq!(fs.repair_entries_applied, 5, "all 5 entries replayed");
    assert_eq!(fs.syncs_applied, 0, "no full-state sync applied");
    assert_eq!(leader.stats().sync_chunks_sent, 0, "no sync chunks sent");
}

#[test]
fn compacted_tail_falls_back_to_chunked_sync() {
    let (mesh, nodes) = cluster_with(3, |cfg| {
        cfg.retain_entries = 2;
        cfg.sync_chunk_bytes = 4;
    });
    let leader = settle(&mesh);
    let follower = nodes.iter().find(|n| !n.is_leader()).unwrap();
    mesh.kill(follower.id());
    let store = leader.replicated("journal");
    for i in 0..6 {
        store.append(format!("r{i}").as_bytes()).unwrap();
    }
    mesh.revive(follower.id());
    // The follower trails by 6 > retain_entries=2, so its repair
    // pull is refused (compacted) and the leader ships a chunked
    // full-state sync instead — 12 journal bytes in 4-byte chunks.
    mesh.step(leader.config.heartbeat_ms + 1);
    assert_eq!(follower.last_index(), leader.last_index());
    assert_eq!(
        follower.region("journal").read().unwrap(),
        leader.region("journal").read().unwrap()
    );
    let fs = follower.stats();
    assert!(fs.syncs_applied >= 1, "full-state sync applied");
    assert_eq!(fs.repair_entries_applied, 0, "repair refused past tail");
    let ls = leader.stats();
    assert!(ls.sync_chunks_sent >= 3, "payload split into chunks");
    assert!(ls.syncs_sent >= 1, "transfer completed");
}

#[test]
fn mid_transfer_link_drop_resumes_chunked_sync() {
    let (mesh, nodes) = cluster_with(3, |cfg| {
        cfg.retain_entries = 2;
        cfg.sync_chunk_bytes = 8;
    });
    let leader = settle(&mesh);
    let follower = nodes.iter().find(|n| !n.is_leader()).unwrap();
    mesh.kill(follower.id());
    let store = leader.replicated("journal");
    for i in 0..6 {
        store.append(format!("record-{i}").as_bytes()).unwrap();
    }
    mesh.revive(follower.id());
    // 48 journal bytes in 8-byte chunks = 6 chunks, over a link
    // that flaps every 3 calls: the transfer cannot finish in one
    // round and must survive by resuming, not restarting.
    mesh.set_flappy(leader.id(), follower.id(), 3);
    let mut converged = false;
    for _ in 0..80 {
        mesh.step(leader.config.heartbeat_ms + 1);
        if follower.last_index() == leader.last_index()
            && follower.region("journal").read().unwrap()
                == leader.region("journal").read().unwrap()
        {
            converged = true;
            break;
        }
    }
    assert!(converged, "sync must complete across link flaps");
    mesh.clear_flappy(leader.id(), follower.id());
    let ls = leader.stats();
    assert!(ls.sync_resumes >= 1, "session resumed at least once");
    assert_eq!(ls.syncs_sent, 1, "exactly one transfer completed");
    assert_eq!(follower.stats().syncs_applied, 1, "installed exactly once");
}

#[test]
fn flappy_link_heals_via_repair_without_sync() {
    let (mesh, nodes) = cluster(3);
    let leader = settle(&mesh);
    let follower = nodes.iter().find(|n| !n.is_leader()).unwrap();
    let term_before = leader.term();
    mesh.set_flappy(leader.id(), follower.id(), 4);
    let store = leader.replicated("scratch");
    for i in 0..12 {
        // Appends may commit on the other follower alone while the
        // flapped link is down — that's the lag repair later heals.
        let _ = store.append(format!("s{i}").as_bytes());
        mesh.step(5);
    }
    mesh.clear_flappy(leader.id(), follower.id());
    let mut converged = false;
    for _ in 0..20 {
        mesh.step(leader.config.heartbeat_ms + 1);
        if follower.last_index() == leader.last_index() {
            converged = true;
            break;
        }
    }
    assert!(converged, "flapped follower must converge");
    assert_eq!(
        follower.region("scratch").read().unwrap(),
        leader.region("scratch").read().unwrap()
    );
    // The whole episode healed through entry repair: the trail
    // never left the retained tail, so a full-state sync would be
    // a regression.
    assert!(follower.stats().repairs_pulled >= 1);
    assert_eq!(follower.stats().syncs_applied, 0);
    assert_eq!(leader.stats().sync_chunks_sent, 0);
    assert_eq!(leader.term(), term_before, "no term storm from flapping");
    assert!(leader.is_leader(), "leader undeposed");
}

#[test]
fn pre_vote_prevents_isolated_node_term_storm() {
    let (mesh, nodes) = cluster(3);
    let leader = settle(&mesh);
    let isolated = nodes.iter().find(|n| !n.is_leader()).unwrap();
    let term_before = leader.term();
    let leader_step_downs = leader.stats().step_downs;
    let elections_before = isolated.stats().elections_started;
    for n in &nodes {
        if n.id() != isolated.id() {
            mesh.partition(isolated.id(), n.id());
        }
    }
    for _ in 0..20 {
        mesh.step(25);
    }
    // The isolated node kept probing but never consumed a term.
    assert_eq!(isolated.term(), term_before, "no term inflation");
    assert!(isolated.stats().pre_votes_blocked >= 1);
    assert_eq!(isolated.stats().elections_started, elections_before);
    // Heal: the node rejoins without disturbing the leader.
    for n in &nodes {
        if n.id() != isolated.id() {
            mesh.heal_partition(isolated.id(), n.id());
        }
    }
    for _ in 0..5 {
        mesh.step(leader.config.heartbeat_ms + 1);
    }
    assert!(leader.is_leader(), "leader survives the rejoin");
    assert_eq!(
        leader.stats().step_downs,
        leader_step_downs,
        "zero depositions with pre-vote"
    );
    assert_eq!(leader.term(), term_before);
}

#[test]
fn term_storm_without_pre_vote_deposes_leader() {
    let (mesh, nodes) = cluster_with(3, |cfg| cfg.pre_vote = false);
    let leader = settle(&mesh);
    let isolated = nodes.iter().find(|n| !n.is_leader()).unwrap();
    let term_before = leader.term();
    for n in &nodes {
        if n.id() != isolated.id() {
            mesh.partition(isolated.id(), n.id());
        }
    }
    for _ in 0..20 {
        mesh.step(25);
    }
    // Without pre-vote every timeout burns a real term.
    assert!(isolated.term() > term_before, "terms inflated");
    assert!(isolated.stats().elections_started >= 1);
    for n in &nodes {
        if n.id() != isolated.id() {
            mesh.heal_partition(isolated.id(), n.id());
        }
    }
    // On rejoin the inflated term deposes the healthy leader: the
    // exact failure mode pre-vote exists to prevent.
    let mut deposed = false;
    for _ in 0..40 {
        mesh.step(25);
        if leader.stats().step_downs >= 1 {
            deposed = true;
            break;
        }
    }
    assert!(deposed, "stale high term must depose the leader");
    // The cluster still re-settles on a single leader afterwards.
    settle(&mesh);
}

#[test]
fn fenced_leader_rejects_writes_and_repair() {
    let (mesh, nodes) = cluster(3);
    let leader = settle(&mesh);
    for n in &nodes {
        if n.id() != leader.id() {
            mesh.partition(leader.id(), n.id());
        }
    }
    // Step past the lease: the leader can no longer refresh a
    // commit quorum and must fence itself.
    for _ in 0..10 {
        mesh.step(25);
    }
    assert!(leader.is_fenced(mesh.now()), "lease lapsed");
    assert!(leader.stats().fencings >= 1, "fencing transition counted");
    let store = leader.replicated("journal");
    match store.append(b"stale-write") {
        Err(StoreError::NotLeader { hint }) => {
            assert_eq!(hint, None, "a fenced leader has no better hint");
        }
        other => panic!("fenced leader must reject writes, got {other:?}"),
    }
    assert!(leader.stats().fenced_rejects >= 1);
    // A fenced leader must not serve catch-up either: its tail may
    // be behind the real cluster's history.
    let reply = leader.handle(
        &PeerRequest::Repair {
            term: leader.term(),
            follower: "n9".into(),
            from_index: 0,
            from_hash: 0,
        },
        mesh.now(),
    );
    match reply {
        PeerReply::RepairChunk { ok, entries, .. } => {
            assert!(!ok, "fenced leader refuses repair");
            assert!(entries.is_empty());
        }
        other => panic!("expected RepairChunk, got {other:?}"),
    }
}

#[test]
fn kill_leader_fails_over_and_keeps_acked_entries() {
    let (mesh, nodes) = cluster(3);
    let leader = settle(&mesh);
    let store = leader.replicated("journal");
    for i in 0..7 {
        store.append(format!("acked-{i}").as_bytes()).unwrap();
    }
    let acked_bytes = leader.region("journal").read().unwrap();
    mesh.kill(leader.id());
    let new_leader = settle(&mesh);
    assert_ne!(new_leader.id(), leader.id());
    assert!(new_leader.term() > leader.term() || !leader.is_leader());
    // Every quorum-acked byte survived the leader loss.
    assert_eq!(new_leader.region("journal").read().unwrap(), acked_bytes);
    // And the new leader keeps accepting writes with the survivor.
    new_leader
        .replicated("journal")
        .append(b"post-failover")
        .unwrap();
    let survivor = nodes
        .iter()
        .find(|n| n.id() != leader.id() && n.id() != new_leader.id())
        .unwrap();
    assert_eq!(
        survivor.region("journal").read().unwrap(),
        new_leader.region("journal").read().unwrap()
    );
}

#[test]
fn deposed_leader_with_unacked_entries_is_overwritten() {
    let (mesh, nodes) = cluster(3);
    let leader = settle(&mesh);
    let store = leader.replicated("journal");
    store.append(b"committed").unwrap();
    // Isolate the leader, then let it accept a doomed write.
    let others: Vec<&str> = nodes
        .iter()
        .filter(|n| n.id() != leader.id())
        .map(|n| n.id())
        .collect();
    for o in &others {
        mesh.partition(leader.id(), o);
    }
    assert!(matches!(
        store.append(b"+doomed"),
        Err(StoreError::NoQuorum { .. })
    ));
    // The majority side elects a new leader (the isolated old
    // leader still believes it leads, so don't use live_leader)
    // and commits a different entry at the same log index.
    let mut found = None;
    for _ in 0..400 {
        mesh.step(25);
        if let Some(l) = nodes
            .iter()
            .find(|n| n.id() != leader.id() && n.is_leader())
        {
            found = Some(Arc::clone(l));
            break;
        }
    }
    let new_leader = found.expect("majority side must elect a new leader");
    new_leader.replicated("journal").append(b"+winner").unwrap();
    // Same last_index on both sides, different content: only the
    // chained hash can tell them apart.
    assert_eq!(leader.last_index(), new_leader.last_index());
    // Heal: the old leader rejoins, detects divergence on the next
    // heartbeat, and is state-transferred to the winner's log.
    for o in &others {
        mesh.heal_partition(leader.id(), o);
    }
    for _ in 0..10 {
        mesh.step(new_leader.config.heartbeat_ms + 1);
        if !leader.is_leader()
            && leader.region("journal").read().unwrap() == b"committed+winner".to_vec()
        {
            break;
        }
    }
    assert_eq!(
        leader.region("journal").read().unwrap(),
        b"committed+winner".to_vec()
    );
    assert!(!leader.is_leader());
}

#[test]
fn stale_candidate_cannot_win_election() {
    let (mesh, nodes) = cluster(3);
    let leader = settle(&mesh);
    let store = leader.replicated("journal");
    // Find a follower, crash it, then commit entries it misses.
    let stale = nodes.iter().find(|n| !n.is_leader()).unwrap();
    mesh.kill(stale.id());
    store.append(b"while-you-were-out").unwrap();
    mesh.revive(stale.id());
    // The stale node forces an election before any heartbeat can
    // repair it: pre-vote already refuses it (stale log, live
    // leader), so no term is even consumed.
    let term_before = stale.term();
    let won = stale.start_election(mesh.now());
    assert!(!won, "stale candidate must not win");
    assert_eq!(stale.term(), term_before, "blocked at the pre-vote");
    assert!(stale.stats().pre_votes_blocked >= 1);
}

#[test]
fn stale_candidate_loses_at_vote_stage_without_pre_vote() {
    let (mesh, nodes) = cluster_with(3, |cfg| cfg.pre_vote = false);
    let leader = settle(&mesh);
    let store = leader.replicated("journal");
    let stale = nodes.iter().find(|n| !n.is_leader()).unwrap();
    mesh.kill(stale.id());
    store.append(b"while-you-were-out").unwrap();
    mesh.revive(stale.id());
    // Without pre-vote the claim goes out for real — and the
    // election restriction refuses it at the vote stage.
    let term_before = stale.term();
    let won = stale.start_election(mesh.now());
    assert!(!won, "stale candidate must not win");
    assert!(stale.term() > term_before, "a real term was consumed");
}

#[test]
fn meta_backend_restores_term_and_vote() {
    let meta = Arc::new(MemBackend::new());
    let mesh = LocalMesh::new();
    let mut cfg = ReplicaConfig::new("n0", vec!["n1".into()], "127.0.0.1:9100");
    // The lone unreachable peer would block a pre-vote quorum and
    // this test needs the term bump a lost election produces.
    cfg.pre_vote = false;
    let node = ReplicaNode::new(cfg.clone(), Arc::new(mesh.clone()))
        .with_meta(Arc::clone(&meta) as Arc<dyn StorageBackend>)
        .expect("the meta region reads");
    let node = Arc::new(node);
    mesh.register(Arc::clone(&node));
    // Losing an election still bumps and persists the term.
    node.start_election(0);
    let term = node.term();
    assert!(term >= 1);
    // A restarted node on the same meta backend resumes the term
    // and its own vote, so it cannot vote for someone else in a
    // term it already voted in.
    let restarted = ReplicaNode::new(cfg, Arc::new(mesh.clone()))
        .with_meta(Arc::clone(&meta) as Arc<dyn StorageBackend>)
        .expect("the meta region reads");
    assert_eq!(restarted.term(), term);
    assert_eq!(restarted.handle(&claim(term, "n1"), 0), vote(term, false));
}

#[test]
fn restart_mid_election_does_not_double_vote() {
    let meta = Arc::new(MemBackend::new());
    let mesh = LocalMesh::new();
    let cfg = ReplicaConfig::new("n0", vec!["a".into(), "b".into()], "127.0.0.1:9100");
    let node = ReplicaNode::new(cfg.clone(), Arc::new(mesh.clone()))
        .with_meta(Arc::clone(&meta) as Arc<dyn StorageBackend>)
        .expect("the meta region reads");
    // Vote for `a` in term 5, then crash before the election ends.
    assert_eq!(node.handle(&claim(5, "a"), 0), vote(5, true));
    drop(node);
    let restarted = ReplicaNode::new(cfg, Arc::new(mesh.clone()))
        .with_meta(Arc::clone(&meta) as Arc<dyn StorageBackend>)
        .expect("the meta region reads");
    // The restarted node remembers its term-5 vote: `b` is refused…
    assert_eq!(restarted.handle(&claim(5, "b"), 0), vote(5, false));
    // …while `a` re-asking (a retransmit) is still granted.
    assert_eq!(restarted.handle(&claim(5, "a"), 0), vote(5, true));
}

#[test]
fn a_vote_the_meta_region_refuses_is_not_granted() {
    let meta = Arc::new(MemBackend::new());
    let cfg = ReplicaConfig::new("n0", vec!["a".into(), "b".into()], "127.0.0.1:9100");
    let node = ReplicaNode::new(cfg, Arc::new(LocalMesh::new()))
        .with_meta(Arc::clone(&meta) as Arc<dyn StorageBackend>)
        .expect("an empty meta region is a fresh node");
    let claim = claim(3, "a");
    meta.poison("disk full");
    assert_eq!(
        node.handle(&claim, 0),
        vote(3, false),
        "a vote that did not reach the meta region must not leave"
    );
    meta.heal();
    assert_eq!(node.handle(&claim, 0), vote(3, true));
    assert!(
        std::str::from_utf8(&meta.read().unwrap())
            .unwrap()
            .contains(r#""voted_for":"a""#),
        "the granted vote is on disk"
    );

    // The same rule for an append ack: the heartbeat of the leader
    // it voted for is acked only once the meta region takes it.
    let heartbeat = PeerRequest::Replicate {
        term: 3,
        leader: "a".into(),
        leader_hint: "x".into(),
        prev_index: 0,
        prev_hash: 0,
        entries: Vec::new(),
    };
    let acked = |reply: PeerReply| matches!(reply, PeerReply::ReplicateAck { ok: true, .. });
    meta.poison("disk full");
    assert!(!acked(node.handle(&heartbeat, 1)));
    meta.heal();
    assert!(acked(node.handle(&heartbeat, 2)));
}

#[test]
fn torn_or_foreign_meta_is_refused_at_startup() {
    let cfg = ReplicaConfig::new("n0", vec!["a".into(), "b".into()], "127.0.0.1:9100");
    let open = |bytes: &[u8]| {
        let meta = Arc::new(MemBackend::new());
        meta.replace(bytes)
            .expect("a memory region takes any bytes");
        ReplicaNode::new(cfg.clone(), Arc::new(LocalMesh::new()))
            .with_meta(meta as Arc<dyn StorageBackend>)
    };
    let whole = br#"{"term":5,"voted_for":"a","last_index":0,"last_term":0,"log_hash":0}"#;
    for (what, bytes) in [
        ("torn JSON", &whole[..whole.len() / 2]),
        ("garbage", &b"\xff\x00not meta"[..]),
        ("an object without a term", &br#"{"voted_for":"a"}"#[..]),
    ] {
        match open(bytes) {
            Err(StoreError::Codec(_)) => {}
            Err(other) => panic!("{what}: refused with {other:?}, not a codec error"),
            Ok(node) => panic!("{what}: started at term {}", node.term()),
        }
    }
    let restored = open(whole).expect("the meta this node writes restores");
    assert_eq!(restored.term(), 5);
}

#[test]
fn empty_meta_is_a_fresh_node() {
    let cfg = ReplicaConfig::new("n0", vec!["a".into(), "b".into()], "127.0.0.1:9100");
    let node = ReplicaNode::new(cfg, Arc::new(LocalMesh::new()))
        .with_meta(Arc::new(MemBackend::new()) as Arc<dyn StorageBackend>)
        .expect("an empty meta region is a fresh node");
    assert_eq!(node.term(), 0);
    assert_eq!(node.handle(&claim(1, "a"), 0), vote(1, true));
}

#[test]
fn no_meta_region_falls_back_to_per_process_voting() {
    // Without a meta backend the vote guard only spans the process
    // lifetime: a restart forgets the vote. This test documents
    // that weaker fallback semantic.
    let mesh = LocalMesh::new();
    let cfg = ReplicaConfig::new("n0", vec!["a".into(), "b".into()], "127.0.0.1:9100");
    let node = ReplicaNode::new(cfg.clone(), Arc::new(mesh.clone()));
    assert_eq!(node.handle(&claim(5, "a"), 0), vote(5, true));
    // Same process: the second candidate is still refused.
    assert_eq!(node.handle(&claim(5, "b"), 0), vote(5, false));
    drop(node);
    // After a restart with no meta the vote is forgotten.
    let restarted = ReplicaNode::new(cfg, Arc::new(mesh.clone()));
    assert_eq!(restarted.handle(&claim(5, "b"), 0), vote(5, true));
}

#[test]
fn five_node_cluster_survives_two_follower_losses() {
    let (mesh, nodes) = cluster(5);
    let leader = settle(&mesh);
    let followers: Vec<&str> = nodes
        .iter()
        .filter(|n| !n.is_leader())
        .map(|n| n.id())
        .collect();
    mesh.kill(followers[0]);
    mesh.kill(followers[1]);
    let store = leader.replicated("journal");
    store.append(b"still-quorate").unwrap();
    assert_eq!(leader.stats().committed, 1);
    // A third loss breaks quorum.
    mesh.kill(followers[2]);
    assert!(matches!(
        store.append(b"not-any-more"),
        Err(StoreError::NoQuorum {
            needed: 3,
            acked: 2
        })
    ));
}
