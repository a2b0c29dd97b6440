//! The replicated-CIV scenario runner: a three-node quorum replication
//! group hosting a durable login issuer, with a durable relying
//! subscriber catching up over the issuer's retained ring.
//!
//! The same storm runs straight through, across one or two leader
//! kills, across the loss of the follower that acked the last commit
//! round, across a subscriber crash mid-catch-up, across a leader that
//! is deposed by partition rather than killed, and across the
//! partition-hardening regimes (a flapping link healed by entry repair,
//! a chunked sync interrupted mid-transfer, an isolated node's term
//! storm). The invariant set is the shared one — what must hold is
//! identical whether the quorum was decapitated once, twice, or not at
//! all.

use std::sync::Arc;

use oasis_core::cert::Rmc;
use oasis_core::{
    Atom, CredStatus, Credential, CredentialValidator, EnvContext, LocalRegistry, OasisService,
    PrincipalId, RoleName, ServiceConfig, ServiceJournal, Term, Value, ValueType,
};
use oasis_crypto::{IssuerSecret, SecretKey};
use oasis_facts::FactStore;
use oasis_obs::Recorder;
use oasis_sim::{Trace, TraceValue};
use oasis_store::{LocalMesh, MemBackend, ReplicaConfig, ReplicaNode, StorageBackend};

use crate::engine::ScenarioRun;
use crate::invariant::{
    InvariantReport, BYZANTINE_EVIDENCE_REJECTED, DEGRADATION_CONSISTENT, GAP_FREE_RECOVERY,
    NO_ACKED_EVENT_LOST, NO_POST_DEADLINE_EXECUTION, NO_STALE_CERT_ACCEPTANCE,
};
use crate::parity::Perturbation;
use crate::scenario::{FaultRegime, Scenario, Workload};
use crate::{METRICS_DETERMINISTIC, NO_STALE_LEADER_READ, NO_TERM_STORM, OVERLOAD_BACKPRESSURE};

/// Sessions issued up front; the last two stay unrevoked so stale and
/// live authority can be told apart at the end.
const SESSIONS: usize = 8;
/// Revocations executed across the run.
const REVOCATIONS: usize = 6;

const TOPIC: &str = "cred.revoked.login";

fn alice() -> PrincipalId {
    PrincipalId::new("alice")
}

fn cluster_with(
    n: usize,
    tweak: impl Fn(&mut ReplicaConfig),
) -> (LocalMesh, Vec<Arc<ReplicaNode>>) {
    let mesh = LocalMesh::new();
    let ids: Vec<String> = (0..n).map(|i| format!("civ{i}")).collect();
    let nodes: Vec<Arc<ReplicaNode>> = ids
        .iter()
        .enumerate()
        .map(|(i, id)| {
            let peers = ids.iter().filter(|p| *p != id).cloned().collect();
            let mut cfg = ReplicaConfig::new(id.clone(), peers, format!("127.0.0.1:{}", 9700 + i));
            tweak(&mut cfg);
            let node = Arc::new(ReplicaNode::new(cfg, Arc::new(mesh.clone())));
            mesh.register(Arc::clone(&node));
            node
        })
        .collect();
    (mesh, nodes)
}

/// Flaps (or, with `window == 0`, steadies) the `a`↔`b` link, logged at
/// the next tick.
fn flap(mesh: &LocalMesh, a: &str, b: &str, window: u64, trace: &Trace) {
    if window == 0 {
        mesh.clear_flappy(a, b);
    } else {
        mesh.set_flappy(a, b, window);
    }
    trace.log_kv(
        mesh.now() + 1,
        "link flap",
        &[
            ("a", TraceValue::from(a.to_string())),
            ("b", TraceValue::from(b.to_string())),
            ("window", TraceValue::from(window)),
        ],
    );
}

/// Steps virtual time until exactly one live leader exists.
fn settle(mesh: &LocalMesh) -> Arc<ReplicaNode> {
    for _ in 0..400 {
        mesh.step(25);
        if let Some(leader) = mesh.live_leader() {
            return leader;
        }
    }
    panic!("no leader elected after 400 steps");
}

/// A durable login issuer whose journal and snapshot write through the
/// quorum path of `node`. Every replica shares the issuing key, so a
/// promoted instance honours outstanding RMCs.
fn durable_login(node: &Arc<ReplicaNode>, facts: &Arc<FactStore<Value>>) -> Arc<OasisService> {
    let journal: Arc<dyn StorageBackend> = Arc::new(node.replicated("journal"));
    let snapshot: Arc<dyn StorageBackend> = Arc::new(node.replicated("snapshot"));
    let store = ServiceJournal::open(journal, snapshot).expect("replicated journal opens");
    let svc = OasisService::new(
        ServiceConfig::new("login")
            .with_journal(store)
            .with_revocation_retention(64)
            .with_secret(IssuerSecret::from_key(SecretKey::from_bytes([7; 32]))),
        Arc::clone(facts),
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
    svc
}

fn durable_hospital(
    journal: &MemBackend,
    snapshot: &MemBackend,
    facts: &Arc<FactStore<Value>>,
) -> Arc<OasisService> {
    let store = ServiceJournal::open(Arc::new(journal.clone()), Arc::new(snapshot.clone()))
        .expect("hospital journal opens");
    OasisService::new(
        ServiceConfig::new("hospital").with_journal(store),
        Arc::clone(facts),
    )
}

/// Kills the current live leader and returns the promoted service over
/// the new leader's regions.
fn kill_and_promote(
    mesh: &LocalMesh,
    facts: &Arc<FactStore<Value>>,
    trace: &Trace,
) -> (Arc<ReplicaNode>, Arc<OasisService>, String) {
    let victim = mesh.live_leader().expect("a live leader to kill");
    let victim_id = victim.id().to_string();
    mesh.kill(&victim_id);
    trace.log_kv(
        mesh.now() + 1,
        "killed leader",
        &[("victim", TraceValue::from(victim_id.clone()))],
    );
    let new_leader = settle(mesh);
    let promoted = durable_login(&new_leader, facts);
    let report = promoted.recover(mesh.now()).unwrap();
    trace.log_kv(
        mesh.now(),
        "promoted",
        &[
            ("leader", TraceValue::from(new_leader.id().to_string())),
            (
                "retained_restored",
                TraceValue::from(report.retained_restored),
            ),
        ],
    );
    (new_leader, promoted, victim_id)
}

/// Revives `node` and steps until it has converged to `leader`'s log as
/// a follower. Returns whether convergence was reached.
fn rejoin(mesh: &LocalMesh, node: &Arc<ReplicaNode>, leader: &Arc<ReplicaNode>) -> bool {
    if mesh.is_down(node.id()) {
        mesh.revive(node.id());
    }
    for _ in 0..40 {
        mesh.step(leader.config().heartbeat_ms + 1);
        if node.last_index() == leader.last_index() && !node.is_leader() {
            return true;
        }
    }
    false
}

/// Runs one replicated-CIV cell.
pub(crate) fn run_replicated(
    scenario: Scenario,
    seed: u64,
    perturb: Option<Perturbation>,
) -> ScenarioRun {
    let spacing = match scenario.workload {
        // Spaced trickle vs back-to-back storm: the mesh steps this many
        // virtual ms between revocations.
        Workload::RevocationStorm => 5,
        _ => 20,
    };
    let trace = Trace::new();

    let facts = Arc::new(FactStore::new());
    facts.define("password_ok", 1).unwrap();
    facts
        .insert("password_ok", vec![Value::id("alice")])
        .unwrap();

    let (mesh, nodes) = cluster_with(3, |cfg| {
        if scenario.fault == FaultRegime::MidSyncLinkDrop {
            // Compact the tail almost immediately and slice syncs fine,
            // so the partitioned follower can only recover through a
            // *many-frame* chunked sync — the transfer the flapping
            // link then interrupts mid-flight.
            cfg.retain_entries = 2;
            cfg.sync_chunk_bytes = 256;
        }
    });
    let first_leader = settle(&mesh);
    trace.log_kv(
        mesh.now(),
        "scenario start",
        &[
            ("category", TraceValue::from(scenario.category().key())),
            ("fault", TraceValue::from(scenario.fault.key())),
            ("leader", TraceValue::from(first_leader.id().to_string())),
            ("seed", TraceValue::from(seed)),
            ("topology", TraceValue::from(scenario.topology.key())),
            ("workload", TraceValue::from(scenario.workload.key())),
        ],
    );

    // Steady cells run with a live span-recording registry: the login
    // issuer and all three replicas report into it, and the end-of-run
    // snapshot rides in the trace so replay parity enforces that the
    // instrumentation itself is byte-deterministic. Promoted issuers
    // after a leader kill stay uninstrumented on purpose — the acked
    // prefix (k_pre >= 2 revocations) already exercises the full
    // client -> append -> commit -> fan-out span chain.
    let obs = (scenario.workload == Workload::Steady)
        .then(|| Arc::new(oasis_obs::Registry::with_span_recording()));

    let login = durable_login(&first_leader, &facts);
    if let Some(reg) = &obs {
        login.set_obs(Arc::clone(reg) as Arc<dyn Recorder>);
        for node in &nodes {
            node.set_obs(reg.as_ref(), &format!("{}.replica", node.id()));
        }
    }
    let certs: Vec<Rmc> = (0..SESSIONS)
        .map(|i| {
            login
                .activate_role(
                    &alice(),
                    &RoleName::new("logged_in"),
                    &[Value::id("alice")],
                    &[],
                    &EnvContext::new(i as u64),
                )
                .unwrap()
        })
        .collect();

    let hospital_journal = MemBackend::new();
    let hospital_snapshot = MemBackend::new();
    let mut hospital = durable_hospital(&hospital_journal, &hospital_snapshot, &facts);

    // The seed decides how deep into the storm the fault lands.
    let k_pre = 2 + (seed % 3) as usize;
    let mut acked: Vec<oasis_core::CertId> = Vec::new();
    let revoke = |svc: &Arc<OasisService>, rmc: &Rmc, acked: &mut Vec<oasis_core::CertId>| {
        mesh.step(spacing);
        // Deterministic causal root: the cert id doubles as the trace id,
        // parenting the quorum append/commit and fan-out spans.
        let _root = obs.as_ref().map(|_| {
            oasis_obs::scope(oasis_obs::TraceCtx {
                trace_id: rmc.crr.cert_id.0,
                parent_span: 0,
                hop: 0,
            })
        });
        assert!(
            svc.revoke_certificate(rmc.crr.cert_id, "conformance storm", mesh.now()),
            "healthy revoke must land"
        );
        acked.push(rmc.crr.cert_id);
        trace.log_kv(
            mesh.now(),
            "revocation quorum-acked",
            &[("seq", TraceValue::from(acked.len()))],
        );
    };

    if perturb == Some(Perturbation::DelayFirstRevocation) {
        mesh.step(1);
    }

    // Phase 1: the acked prefix.
    for rmc in certs.iter().take(k_pre) {
        revoke(&login, rmc, &mut acked);
    }
    {
        let (events, complete) = login.replay_retained(TOPIC, 0);
        hospital.catch_up_with(TOPIC, &events, complete, mesh.now());
    }
    trace.log_kv(
        mesh.now(),
        "subscriber caught up",
        &[("watermark", TraceValue::from(hospital.watermark_for(TOPIC)))],
    );

    // Phase 2: the fault regime.
    let mut current = Arc::clone(&login);
    let mut rejoined_ok = true;
    let mut remaining = REVOCATIONS - k_pre;
    // Extra verdicts only the partition-hardening regimes produce; they
    // ride the report alongside the canonical six.
    let mut term_storm_check: Option<(bool, String)> = None;
    let mut stale_leader_check: Option<(bool, String)> = None;
    match scenario.fault {
        FaultRegime::None => {}
        FaultRegime::KillLeader => {
            // The victim rejoins only after the storm finishes (the
            // generic rejoin sweep below), so the kill actually costs
            // the cluster a node while writes continue.
            let (_, promoted, _) = kill_and_promote(&mesh, &facts, &trace);
            current = promoted;
        }
        FaultRegime::KillLeaderTwice => {
            let (new_leader, promoted, victim1) = kill_and_promote(&mesh, &facts, &trace);
            // Two more quorum-acked revocations on the first promotion...
            for rmc in certs.iter().skip(k_pre).take(2) {
                revoke(&promoted, rmc, &mut acked);
            }
            remaining -= 2;
            // ...then the first victim must be back before the second
            // decapitation, or the survivors cannot form a quorum.
            let dead = nodes.iter().find(|n| n.id() == victim1).unwrap();
            rejoined_ok &= rejoin(&mesh, dead, &new_leader);
            trace.log_kv(
                mesh.now(),
                "first victim rejoined",
                &[("node", TraceValue::from(victim1))],
            );
            drop(promoted);
            let (_, promoted2, _) = kill_and_promote(&mesh, &facts, &trace);
            current = promoted2;
        }
        FaultRegime::KillSyncFollower => {
            // The follower that acked the last round holds the leader's
            // head; the other was left out and trails. Killing the first
            // makes the next round's sync set fail, so that same round
            // must reach the follower left out — zero `NoQuorum`.
            let leader = mesh.live_leader().expect("a live leader");
            let sync = nodes
                .iter()
                .find(|n| n.id() != leader.id() && n.last_index() == leader.last_index())
                .expect("a follower acked the last round");
            mesh.kill(sync.id());
            trace.log_kv(
                mesh.now(),
                "killed sync follower",
                &[("victim", TraceValue::from(sync.id().to_string()))],
            );
            let no_quorum_before = leader.stats().no_quorum;
            for rmc in certs.iter().skip(k_pre).take(remaining) {
                revoke(&current, rmc, &mut acked);
            }
            remaining = 0;
            assert_eq!(
                leader.stats().no_quorum,
                no_quorum_before,
                "a round after the sync follower died missed its quorum"
            );
        }
        FaultRegime::SubscriberCrashMidCatchup => {
            // More storm lands while the subscriber is mid-catch-up: it
            // applies only a partial prefix (an interrupted resync), then
            // crashes before the rest arrives.
            for rmc in certs.iter().skip(k_pre).take(remaining) {
                revoke(&current, rmc, &mut acked);
            }
            remaining = 0;
            let wm = hospital.watermark_for(TOPIC);
            let (events, _) = current.replay_retained(TOPIC, wm);
            let partial = events.len() / 2;
            hospital.catch_up_with(TOPIC, &events[..partial], false, mesh.now());
            trace.log_kv(
                mesh.now(),
                "subscriber crashed mid-catch-up",
                &[
                    ("applied_partial", TraceValue::from(partial)),
                    ("watermark", TraceValue::from(hospital.watermark_for(TOPIC))),
                ],
            );
            drop(hospital);
            hospital = durable_hospital(&hospital_journal, &hospital_snapshot, &facts);
            hospital.recover(mesh.now()).unwrap();
            trace.log_kv(
                mesh.now(),
                "subscriber recovered",
                &[("watermark", TraceValue::from(hospital.watermark_for(TOPIC)))],
            );
        }
        FaultRegime::IsolateLeader => {
            // Deposed, not dead: the leader is partitioned from both
            // followers. It never steps down on its own, so the mesh has
            // *two* leaders and `live_leader()` stays None — wait for a
            // follower to win instead.
            for peer in nodes.iter().filter(|n| n.id() != first_leader.id()) {
                mesh.partition(first_leader.id(), peer.id());
            }
            trace.log(mesh.now(), "leader isolated from both followers");
            drop(current);
            let mut follower_leader = None;
            for _ in 0..400 {
                mesh.step(25);
                if let Some(winner) = nodes
                    .iter()
                    .find(|n| n.id() != first_leader.id() && n.is_leader())
                {
                    follower_leader = Some(Arc::clone(winner));
                    break;
                }
            }
            let new_leader = follower_leader.expect("a follower must win the election");
            let promoted = durable_login(&new_leader, &facts);
            promoted.recover(mesh.now()).unwrap();
            trace.log_kv(
                mesh.now(),
                "promoted",
                &[("leader", TraceValue::from(new_leader.id().to_string()))],
            );
            current = promoted;
            // Heal after promotion; the deposed leader must rejoin as a
            // follower once it sees the higher term.
            for peer in nodes.iter().filter(|n| n.id() != first_leader.id()) {
                mesh.heal_partition(first_leader.id(), peer.id());
            }
            trace.log(mesh.now(), "partition healed");
        }
        FaultRegime::FlappyLinkRepair => {
            // One leader↔follower link flaps in 4-call runs while the
            // rest of the storm (plus scratch padding) lands. Every lag
            // the down runs open must close through entry-level repair:
            // zero full-state syncs, and the flapping must never depose
            // the leader or inflate the term.
            let leader = mesh.live_leader().expect("a live leader");
            let follower = nodes
                .iter()
                .find(|n| n.id() != leader.id())
                .expect("a follower")
                .clone();
            let before = follower.stats();
            let chunks_before = leader.stats().sync_chunks_sent;
            let term_before = leader.term();
            flap(&mesh, leader.id(), follower.id(), 4, &trace);
            for rmc in certs.iter().skip(k_pre).take(remaining) {
                revoke(&current, rmc, &mut acked);
            }
            remaining = 0;
            // Scratch padding guarantees appends land in down runs.
            let scratch = leader.replicated("scratch");
            for i in 0..12 {
                scratch
                    .append(format!("pad-{i};").as_bytes())
                    .expect("scratch append through the quorum");
                mesh.step(5);
            }
            flap(&mesh, leader.id(), follower.id(), 0, &trace);
            for _ in 0..40 {
                if follower.last_index() == leader.last_index() {
                    break;
                }
                mesh.step(leader.config().heartbeat_ms + 1);
            }
            let after = follower.stats();
            assert!(
                after.repairs_pulled > before.repairs_pulled,
                "flappy link never exercised entry repair"
            );
            assert_eq!(
                leader.stats().sync_chunks_sent,
                chunks_before,
                "within-tail lag must not start a state transfer from the leader"
            );
            assert_eq!(
                after.syncs_applied, before.syncs_applied,
                "within-tail lag must heal without a full-state sync"
            );
            trace.log_kv(
                mesh.now(),
                "flappy link healed via repair",
                &[
                    (
                        "repair_entries",
                        TraceValue::from(
                            after.repair_entries_applied - before.repair_entries_applied,
                        ),
                    ),
                    (
                        "repairs_pulled",
                        TraceValue::from(after.repairs_pulled - before.repairs_pulled),
                    ),
                    ("syncs_applied", TraceValue::from(after.syncs_applied)),
                ],
            );
            let survived = leader.is_leader() && leader.term() == term_before;
            term_storm_check = Some((
                survived,
                format!(
                    "leader survived flapping link: still_leader={} term {}->{}",
                    leader.is_leader(),
                    term_before,
                    leader.term()
                ),
            ));
        }
        FaultRegime::MidSyncLinkDrop => {
            // The follower is cut off while the storm plus padding push
            // the leader's 2-entry retained tail far past it; recovery
            // needs a chunked full sync. The link comes back *flapping*,
            // so the transfer is interrupted mid-flight and must resume
            // from the last acked chunk rather than restart.
            let leader = mesh.live_leader().expect("a live leader");
            let follower = nodes
                .iter()
                .find(|n| n.id() != leader.id())
                .expect("a follower")
                .clone();
            mesh.partition(leader.id(), follower.id());
            trace.log(mesh.now(), "follower partitioned from the leader");
            for rmc in certs.iter().skip(k_pre).take(remaining) {
                revoke(&current, rmc, &mut acked);
            }
            remaining = 0;
            let scratch = leader.replicated("scratch");
            for i in 0..6 {
                scratch
                    .append(format!("pad-{i};").as_bytes())
                    .expect("scratch append through the quorum");
                mesh.step(5);
            }
            let before = follower.stats();
            let leader_before = leader.stats();
            mesh.heal_partition(leader.id(), follower.id());
            flap(&mesh, leader.id(), follower.id(), 3, &trace);
            for _ in 0..200 {
                if follower.last_index() == leader.last_index() {
                    break;
                }
                mesh.step(leader.config().heartbeat_ms + 1);
            }
            flap(&mesh, leader.id(), follower.id(), 0, &trace);
            let after = follower.stats();
            let leader_after = leader.stats();
            assert!(
                after.syncs_applied > before.syncs_applied,
                "compacted tail must force a full-state sync"
            );
            assert!(
                leader_after.sync_resumes > leader_before.sync_resumes,
                "interrupted sync must resume, not restart (resumes {} -> {})",
                leader_before.sync_resumes,
                leader_after.sync_resumes
            );
            trace.log_kv(
                mesh.now(),
                "interrupted sync resumed",
                &[
                    (
                        "sync_chunks",
                        TraceValue::from(
                            leader_after.sync_chunks_sent - leader_before.sync_chunks_sent,
                        ),
                    ),
                    (
                        "sync_resumes",
                        TraceValue::from(leader_after.sync_resumes - leader_before.sync_resumes),
                    ),
                    ("syncs_applied", TraceValue::from(after.syncs_applied)),
                ],
            );
        }
        FaultRegime::IsolatedNodeTermStorm => {
            // A follower is fully isolated across many election
            // timeouts. With pre-vote (the default) it must keep probing
            // and failing without ever inflating its term, so the stable
            // majority never notices its rejoin.
            let leader = mesh.live_leader().expect("a live leader");
            let isolated = nodes
                .iter()
                .find(|n| n.id() != leader.id())
                .expect("a follower")
                .clone();
            let term_before = leader.term();
            let step_downs_before = leader.stats().step_downs;
            for peer in nodes.iter().filter(|n| n.id() != isolated.id()) {
                mesh.partition(isolated.id(), peer.id());
            }
            trace.log(mesh.now(), "follower isolated from the whole cluster");
            for rmc in certs.iter().skip(k_pre).take(remaining) {
                revoke(&current, rmc, &mut acked);
            }
            remaining = 0;
            for _ in 0..20 {
                mesh.step(25);
            }
            let blocked = isolated.stats().pre_votes_blocked;
            let term_held = isolated.term() <= term_before;
            for peer in nodes.iter().filter(|n| n.id() != isolated.id()) {
                mesh.heal_partition(isolated.id(), peer.id());
            }
            trace.log(mesh.now(), "isolation healed");
            rejoined_ok &= rejoin(&mesh, &isolated, &leader);
            let no_storm = term_held
                && blocked >= 1
                && leader.is_leader()
                && leader.term() == term_before
                && leader.stats().step_downs == step_downs_before;

            // Control cluster without pre-vote: the same isolation MUST
            // storm and depose on rejoin, or the check above has no
            // teeth. Its log stays empty — elections need no entries.
            let (mesh2, nodes2) = cluster_with(3, |cfg| cfg.pre_vote = false);
            let leader2 = settle(&mesh2);
            let follower2 = nodes2
                .iter()
                .find(|n| n.id() != leader2.id())
                .expect("a control follower")
                .clone();
            let term2_before = leader2.term();
            for peer in nodes2.iter().filter(|n| n.id() != follower2.id()) {
                mesh2.partition(follower2.id(), peer.id());
            }
            for _ in 0..20 {
                mesh2.step(25);
            }
            let inflated = follower2.term() > term2_before;
            for peer in nodes2.iter().filter(|n| n.id() != follower2.id()) {
                mesh2.heal_partition(follower2.id(), peer.id());
            }
            let mut deposed = false;
            for _ in 0..40 {
                mesh2.step(25);
                if leader2.stats().step_downs >= 1 {
                    deposed = true;
                    break;
                }
            }
            let control_leader = settle(&mesh2);
            trace.log_kv(
                mesh.now(),
                "term-storm verdicts",
                &[
                    ("control_deposed", TraceValue::from(deposed)),
                    ("control_inflated", TraceValue::from(inflated)),
                    ("pre_votes_blocked", TraceValue::from(blocked)),
                    ("term_held", TraceValue::from(term_held)),
                ],
            );
            term_storm_check = Some((
                no_storm && inflated && deposed,
                format!(
                    "pre-vote: term_held={term_held} blocked={blocked} leader_undeposed={no_storm}; \
                     control without pre-vote: inflated={inflated} deposed={deposed}"
                ),
            ));

            // Fencing probe, still on the control cluster: isolate its
            // (re-elected) leader past the lease window. It must report
            // itself fenced and refuse a write instead of serving from a
            // stale log.
            for peer in nodes2.iter().filter(|n| n.id() != control_leader.id()) {
                mesh2.partition(control_leader.id(), peer.id());
            }
            for _ in 0..10 {
                mesh2.step(25);
            }
            let fenced = control_leader.is_fenced(mesh2.now());
            let refused = control_leader
                .replicated("probe")
                .append(b"stale-write")
                .is_err();
            stale_leader_check = Some((
                fenced && refused,
                format!("quorum-less leader past lease: fenced={fenced} write_refused={refused}"),
            ));
            trace.log_kv(
                mesh.now(),
                "fencing probe",
                &[
                    ("fenced", TraceValue::from(fenced)),
                    ("write_refused", TraceValue::from(refused)),
                ],
            );
        }
        other => unreachable!("fault {other:?} is not a replicated regime"),
    }

    // Phase 3: the storm finishes on whichever instance now leads.
    for rmc in certs.iter().skip(acked.len()).take(remaining) {
        revoke(&current, rmc, &mut acked);
    }
    assert_eq!(acked.len(), REVOCATIONS);

    // One heartbeat before the books close. Commit rounds reach only a
    // quorum: the follower left out of the last rounds catches up on it,
    // and a deposed leader that heard no frame of the new term learns it.
    mesh.step(first_leader.config().heartbeat_ms + 1);

    // Every dead or deposed node rejoins and converges before the books
    // close.
    if let Some(leader) = mesh.live_leader() {
        for node in &nodes {
            let lagging = mesh.is_down(node.id()) || node.id() == first_leader.id();
            if lagging && node.id() != leader.id() {
                rejoined_ok &= rejoin(&mesh, node, &leader);
            }
        }
    } else {
        // All partitions healed and kills revived above; a missing live
        // leader here means the cluster never re-converged.
        rejoined_ok = false;
    }
    let final_leader = mesh.live_leader();

    // Final catch-up from the subscriber's durable watermark.
    let wm = hospital.watermark_for(TOPIC);
    let (events, complete) = current.replay_retained(TOPIC, wm);
    let report = hospital.catch_up_with(TOPIC, &events, complete, mesh.now());
    trace.log_kv(
        mesh.now(),
        "final catch-up",
        &[
            ("applied", TraceValue::from(report.applied)),
            ("complete", TraceValue::from(report.complete)),
            ("watermark", TraceValue::from(hospital.watermark_for(TOPIC))),
        ],
    );

    // --- Invariant report ---------------------------------------------
    let mut out = InvariantReport::new();

    out.record(
        NO_POST_DEADLINE_EXECUTION,
        true,
        "n/a: no admission controller in this topology (two-domain cells cover it)",
    );

    let registry = LocalRegistry::new();
    registry.register(&current);
    let stale_refused = registry
        .validate(&Credential::Rmc(certs[0].clone()), &alice(), mesh.now())
        .is_err();
    let live_honoured = registry
        .validate(
            &Credential::Rmc(certs[SESSIONS - 1].clone()),
            &alice(),
            mesh.now(),
        )
        .is_ok();
    out.record(
        NO_STALE_CERT_ACCEPTANCE,
        stale_refused && live_honoured,
        format!(
            "pre-fault-revoked cert refused={stale_refused}, unrevoked cert honoured={live_honoured}"
        ),
    );

    let (ring, ring_complete) = current.replay_retained(TOPIC, 0);
    let seqs: Vec<u64> = ring.iter().map(|e| e.topic_seq).collect();
    let contiguous = seqs == (1..=REVOCATIONS as u64).collect::<Vec<u64>>();
    out.record(
        GAP_FREE_RECOVERY,
        ring_complete && contiguous && report.complete,
        format!(
            "ring complete={ring_complete} seqs={seqs:?}; subscriber resync complete={}",
            report.complete
        ),
    );

    let lost: Vec<String> = acked
        .iter()
        .filter(|id| {
            !current
                .record(**id)
                .map(|r| matches!(r.status, CredStatus::Revoked { .. }))
                .unwrap_or(false)
        })
        .map(|id| id.to_string())
        .collect();
    let wm_final = hospital.watermark_for(TOPIC);
    out.record(
        NO_ACKED_EVENT_LOST,
        lost.is_empty() && wm_final == REVOCATIONS as u64,
        format!(
            "{}/{} acked revocations survive (lost: {lost:?}); subscriber watermark \
             {wm_final}/{REVOCATIONS}",
            acked.len() - lost.len(),
            acked.len()
        ),
    );

    // Degradation-consistent, quorum edition: the cluster ends with one
    // live leader, every node converged to its log, and the subscriber
    // watermark durable across a rebuild.
    let converged = final_leader.as_ref().is_some_and(|leader| {
        nodes.iter().all(|n| {
            !mesh.is_down(n.id())
                && n.last_index() == leader.last_index()
                && (n.id() == leader.id()) == n.is_leader()
        })
    });
    let journals_equal = final_leader.as_ref().is_some_and(|leader| {
        let golden = leader.region("journal").read().unwrap();
        nodes
            .iter()
            .all(|n| n.region("journal").read().unwrap() == golden)
    });
    drop(hospital);
    let rebuilt = durable_hospital(&hospital_journal, &hospital_snapshot, &facts);
    rebuilt.recover(mesh.now()).unwrap();
    let wm_durable = rebuilt.watermark_for(TOPIC) == REVOCATIONS as u64;
    out.record(
        DEGRADATION_CONSISTENT,
        rejoined_ok && converged && journals_equal && wm_durable,
        format!(
            "rejoined={rejoined_ok} converged={converged} journals_equal={journals_equal} \
             watermark_durable={wm_durable} leader={:?}",
            final_leader.as_ref().map(|l| l.id().to_string())
        ),
    );

    out.record(
        BYZANTINE_EVIDENCE_REJECTED,
        true,
        "n/a: no CIV notary in this topology (two-domain byzantine cells cover it)",
    );
    out.record(
        OVERLOAD_BACKPRESSURE,
        true,
        "n/a: no admission controller in this topology",
    );
    if let Some((holds, detail)) = term_storm_check {
        out.record(NO_TERM_STORM, holds, detail);
    }
    if let Some((holds, detail)) = stale_leader_check {
        out.record(NO_STALE_LEADER_READ, holds, detail);
    }

    trace.log_kv(
        mesh.now(),
        "final state",
        &[
            (
                "leader",
                TraceValue::from(format!(
                    "{:?}",
                    final_leader.as_ref().map(|l| l.id().to_string())
                )),
            ),
            ("revocations", TraceValue::from(acked.len())),
            ("watermark", TraceValue::from(wm_final)),
        ],
    );

    if let Some(reg) = &obs {
        let snap1 = reg.snapshot_json().unwrap_or_else(|| "null".to_string());
        let snap2 = reg.snapshot_json().unwrap_or_else(|| "null".to_string());
        let spans = reg.spans().lines();
        trace.log_kv(
            mesh.now(),
            "metrics snapshot",
            &[
                ("snapshot", TraceValue::Raw(snap1.clone())),
                ("spans", TraceValue::Raw(format!("[{}]", spans.join(",")))),
            ],
        );
        out.record(
            METRICS_DETERMINISTIC,
            snap1 == snap2 && snap1.starts_with("{\"counters\":") && !spans.is_empty(),
            format!(
                "snapshot stable over double render ({} bytes), {} spans captured",
                snap1.len(),
                spans.len()
            ),
        );
    }

    ScenarioRun {
        scenario,
        seed,
        trace: trace.lines(),
        report: out,
    }
}
