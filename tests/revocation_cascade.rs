//! Integration: Fig 5's active security at scale — revocation cascades
//! across services and domains, heartbeat-guarded caching, the
//! push-vs-poll comparison the architecture is built around, and the
//! causal span chain one traced revocation leaves.

use std::sync::Arc;

use oasis::core::ServiceJournal;
use oasis::events::{HeartbeatMonitor, SourceHealth, SourceId};
use oasis::prelude::*;
use oasis::store::{LocalMesh, ReplicaConfig, ReplicaNode, StorageBackend};
use oasis_core::CredentialKind;
use oasis_obs::{Recorder, Registry, TraceCtx};

/// Builds `depth` chained services, each in its own domain, where the
/// role at service i+1 requires the role at service i. Returns the
/// federation and the chain of RMCs.
fn chain(
    depth: usize,
) -> (
    Arc<Federation>,
    Vec<Arc<oasis_core::OasisService>>,
    Vec<oasis_core::cert::Rmc>,
) {
    let federation = Federation::new();
    let mut services = Vec::new();
    for i in 0..depth {
        let domain = Domain::new(format!("domain-{i}"), federation.bus().clone());
        federation.register(&domain);
        let svc = domain.create_service(format!("svc-{i}"));
        svc.set_validator(federation.validator_for(format!("domain-{i}")));
        svc.define_role("link", &[("u", ValueType::Id)], i == 0)
            .unwrap();
        if i == 0 {
            svc.add_activation_rule("link", vec![Term::var("U")], vec![], vec![])
                .unwrap();
        } else {
            svc.add_activation_rule(
                "link",
                vec![Term::var("U")],
                vec![Atom::prereq_at(
                    format!("svc-{}", i - 1),
                    "link",
                    vec![Term::var("U")],
                )],
                vec![0],
            )
            .unwrap();
            federation.add_sla(
                Sla::between(format!("domain-{i}"), format!("domain-{}", i - 1)).accept(
                    SlaClause {
                        issuer: format!("svc-{}", i - 1).into(),
                        name: "link".into(),
                        kind: CredentialKind::Rmc,
                    },
                ),
            );
        }
        services.push(svc);
    }

    let alice = PrincipalId::new("alice");
    let ctx = EnvContext::new(0);
    let mut rmcs: Vec<oasis_core::cert::Rmc> = Vec::new();
    for (i, svc) in services.iter().enumerate() {
        let presented: Vec<Credential> = rmcs
            .last()
            .map(|r| vec![Credential::Rmc(r.clone())])
            .unwrap_or_default();
        let rmc = svc
            .activate_role(
                &alice,
                &RoleName::new("link"),
                &[Value::id("alice")],
                &presented,
                &ctx,
            )
            .unwrap_or_else(|e| panic!("link {i}: {e}"));
        rmcs.push(rmc);
    }
    (federation, services, rmcs)
}

#[test]
fn cross_domain_chain_collapses_from_the_root() {
    let (_federation, services, rmcs) = chain(8);
    services[0].revoke_certificate(rmcs[0].crr.cert_id, "logout", 1);
    let alice = PrincipalId::new("alice");
    for (svc, rmc) in services.iter().zip(&rmcs) {
        assert!(
            svc.validate_own(&Credential::Rmc(rmc.clone()), &alice, 2)
                .is_err(),
            "{} should be revoked",
            rmc.crr
        );
    }
}

#[test]
fn cutting_the_chain_midway_preserves_the_prefix() {
    let (_federation, services, rmcs) = chain(8);
    services[4].revoke_certificate(rmcs[4].crr.cert_id, "mid cut", 1);
    let alice = PrincipalId::new("alice");
    for (i, (svc, rmc)) in services.iter().zip(&rmcs).enumerate() {
        let valid = svc
            .validate_own(&Credential::Rmc(rmc.clone()), &alice, 2)
            .is_ok();
        assert_eq!(valid, i < 4, "link {i}");
    }
}

#[test]
fn every_domain_civ_logged_the_cascade() {
    let (federation, services, rmcs) = chain(4);
    let before = federation.bus().stats();
    services[0].revoke_certificate(rmcs[0].crr.cert_id, "logout", 1);
    // 4 revocations happened, one per domain, and the federation's shared
    // bus delivered every one of them to every domain's service.
    let after = federation.bus().stats();
    assert_eq!(after.published - before.published, 4);
    assert_eq!(after.delivered - before.delivered, 4 * 4);
}

#[test]
fn push_invalidation_beats_ttl_polling() {
    // The architectural claim behind Fig 5: with an event channel, a cache
    // never serves a revoked credential; with TTL-only caching it keeps
    // serving it until the TTL lapses. Same cache, same TTL, same
    // callback path — the two relying services differ only in whether
    // the issuer publishes on their bus.
    let (federation, services, rmcs) = chain(2);
    let alice = PrincipalId::new("alice");
    let root = Credential::Rmc(rmcs[0].clone());

    let with_push = federation
        .domain(&oasis_core::DomainId::new("domain-1"))
        .unwrap()
        .create_service_with(ServiceConfig::new("relying-push").with_validation_cache(1_000));
    let ttl_only = OasisService::new(
        ServiceConfig::new("relying-ttl").with_validation_cache(1_000),
        Arc::new(FactStore::new()),
    );
    for relying in [&with_push, &ttl_only] {
        relying.set_validator(federation.validator_for("domain-1"));
        relying.validate_credential(&root, &alice, 0).unwrap();
    }

    services[0].revoke_certificate(rmcs[0].crr.cert_id, "logout", 10);

    // Pushed cache: denied immediately.
    assert!(with_push.validate_credential(&root, &alice, 11).is_err());
    // TTL cache: still vouching for a revoked credential…
    assert!(ttl_only.validate_credential(&root, &alice, 11).is_ok());
    // …for the remainder of its TTL, and not one tick longer.
    assert!(ttl_only.validate_credential(&root, &alice, 1_000).is_ok());
    assert!(ttl_only.validate_credential(&root, &alice, 1_001).is_err());

    let stats = |s: &oasis_core::OasisService| {
        let c = s.validation_cache_stats().unwrap();
        (c.hits, c.misses, c.invalidations)
    };
    assert_eq!(stats(&with_push), (0, 2, 1));
    assert_eq!(stats(&ttl_only), (2, 2, 0));
}

#[test]
fn heartbeats_tell_holders_when_to_distrust_the_channel() {
    // Fig 5 labels the inter-service edges "heartbeats or change events":
    // if the issuer goes silent, a holder must stop trusting its cache
    // even though no revocation arrived.
    let monitor = HeartbeatMonitor::new(3);
    let issuer = SourceId::new("svc-0");
    monitor.register(issuer.clone(), 10, 0);

    for t in [10, 20, 30] {
        monitor.beat(&issuer, t);
        assert_eq!(monitor.health(&issuer, t), Some(SourceHealth::Healthy));
    }
    // Partition: beats stop arriving.
    assert_eq!(monitor.health(&issuer, 45), Some(SourceHealth::Late));
    assert_eq!(monitor.health(&issuer, 100), Some(SourceHealth::Dead));
    assert_eq!(monitor.overdue(100).len(), 1);
}

#[test]
fn fanout_cascade_event_counts_scale_linearly() {
    // One root supporting N leaves across a service boundary: revoking the
    // root publishes exactly N+1 revocation events on the bus.
    let facts = Arc::new(FactStore::new());
    let bus: EventBus<CertEvent> = EventBus::new();
    let root_svc = OasisService::new(
        ServiceConfig::new("root").with_bus(bus.clone()),
        Arc::clone(&facts),
    );
    root_svc.define_role("root", &[], true).unwrap();
    root_svc
        .add_activation_rule("root", vec![], vec![], vec![])
        .unwrap();
    let leaf_svc = OasisService::new(
        ServiceConfig::new("leaf").with_bus(bus.clone()),
        Arc::clone(&facts),
    );
    leaf_svc
        .define_role("leaf", &[("n", ValueType::Int)], false)
        .unwrap();
    leaf_svc
        .add_activation_rule(
            "leaf",
            vec![Term::var("N")],
            vec![Atom::prereq_at("root", "root", vec![])],
            vec![0],
        )
        .unwrap();
    let registry = Arc::new(LocalRegistry::new());
    registry.register(&root_svc);
    registry.register(&leaf_svc);
    leaf_svc.set_validator(registry);

    let alice = PrincipalId::new("alice");
    let ctx = EnvContext::new(0);
    let root = root_svc
        .activate_role(&alice, &RoleName::new("root"), &[], &[], &ctx)
        .unwrap();
    let n = 64;
    for i in 0..n {
        leaf_svc
            .activate_role(
                &alice,
                &RoleName::new("leaf"),
                &[Value::Int(i)],
                &[Credential::Rmc(root.clone())],
                &ctx,
            )
            .unwrap();
    }

    let before = bus.stats().published;
    root_svc.revoke_certificate(root.crr.cert_id, "logout", 1);
    let published = bus.stats().published - before;
    assert_eq!(published, (n as u64) + 1);
    assert_eq!(leaf_svc.record_stats(), (0, n as usize, 0));
}

/// An integer field of a sorted-key span line.
fn span_u64(line: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    let rest = &line[line.find(&pat).unwrap() + pat.len()..];
    rest[..rest.find([',', '}']).unwrap()].parse().unwrap()
}

/// A string field of a sorted-key span line.
fn span_str<'a>(line: &'a str, key: &str) -> &'a str {
    let pat = format!("\"{key}\":\"");
    let rest = &line[line.find(&pat).unwrap() + pat.len()..];
    &rest[..rest.find('"').unwrap()]
}

#[test]
fn traced_revocation_is_one_causal_chain() {
    // The login issuer journals on a settled 3-node CIV, and a hospital
    // subscribes to its bus. One revocation under a client trace must
    // link client -> svc.revoke -> civ.append -> civ.follower_ack /
    // civ.commit, and svc.revoke -> svc.cascade, under one trace id.
    const TRACE_ID: u64 = 7_001;
    let registry = Arc::new(Registry::with_span_recording());
    let mesh = LocalMesh::new();
    let ids: Vec<String> = (0..3).map(|i| format!("civ{i}")).collect();
    for (i, id) in ids.iter().enumerate() {
        let peers = ids.iter().filter(|p| *p != id).cloned().collect();
        let cfg = ReplicaConfig::new(id.clone(), peers, format!("10.0.0.{i}:7450"));
        let node = Arc::new(ReplicaNode::new(cfg, Arc::new(mesh.clone())));
        node.set_obs(registry.as_ref() as &dyn Recorder, &format!("{id}.replica"));
        mesh.register(node);
    }
    let leader = (0..400)
        .find_map(|_| {
            mesh.step(25);
            mesh.live_leader()
        })
        .expect("a leader within 400 steps");
    let journal: Arc<dyn StorageBackend> = Arc::new(leader.replicated("journal"));
    let snapshot: Arc<dyn StorageBackend> = Arc::new(leader.replicated("snapshot"));
    let store = ServiceJournal::open(journal, snapshot).expect("replicated journal opens");

    let facts = Arc::new(FactStore::new());
    facts.define("password_ok", 1).unwrap();
    facts
        .insert("password_ok", vec![Value::id("alice")])
        .unwrap();
    let bus = EventBus::new();
    let login = OasisService::new(
        ServiceConfig::new("login")
            .with_journal(store)
            .with_bus(bus.clone()),
        Arc::clone(&facts),
    );
    login
        .define_role("logged_in", &[("u", ValueType::Id)], true)
        .unwrap();
    login
        .add_activation_rule(
            "logged_in",
            vec![Term::var("U")],
            vec![Atom::env_fact("password_ok", vec![Term::var("U")])],
            vec![0],
        )
        .unwrap();
    let hospital = OasisService::new(
        ServiceConfig::new("hospital").with_bus(bus),
        Arc::clone(&facts),
    );
    for svc in [&login, &hospital] {
        svc.set_obs(Arc::clone(&registry) as Arc<dyn Recorder>);
    }

    let rmc = login
        .activate_role(
            &PrincipalId::new("alice"),
            &RoleName::new("logged_in"),
            &[Value::id("alice")],
            &[],
            &EnvContext::new(mesh.now()),
        )
        .unwrap();
    let sink = (registry.as_ref() as &dyn Recorder).spans();
    let before = sink.len();
    mesh.step(1);
    let t = mesh.now();
    let client = sink.emit(TraceCtx::root(TRACE_ID), "client", "revoke.request", t, t);
    let revoked = {
        let _root = oasis_obs::scope(client);
        login.revoke_certificate(rmc.crr.cert_id, "traced", t)
    };
    assert!(revoked);

    let spans = sink.lines().split_off(before);
    let ids: Vec<u64> = spans.iter().map(|l| span_u64(l, "span")).collect();
    for line in &spans {
        assert_eq!(span_u64(line, "trace"), TRACE_ID, "span off-trace: {line}");
        let parent = span_u64(line, "parent");
        assert!(
            parent == 0 || ids.contains(&parent),
            "span parented outside the revocation: {line}"
        );
    }
    let mut hops: Vec<u64> = spans.iter().map(|l| span_u64(l, "hop")).collect();
    hops.sort_unstable();
    hops.dedup();
    let ops: Vec<&str> = spans.iter().map(|l| span_str(l, "op")).collect();
    assert!(hops.len() >= 4, "{} causal hops: {ops:?}", hops.len());
    for op in [
        "revoke.request",
        "svc.revoke",
        "civ.append",
        "civ.commit",
        "civ.follower_ack",
        "svc.cascade",
    ] {
        assert!(ops.contains(&op), "no {op} span: {ops:?}");
    }
    assert_eq!(
        ops.iter().filter(|&&op| op == "civ.append").count(),
        1,
        "one revocation, one quorum round: {ops:?}"
    );
}
