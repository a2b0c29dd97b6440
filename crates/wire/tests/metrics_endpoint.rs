//! The observability endpoint over real TCP: `Request::Metrics` bypasses
//! lane admission entirely, so a server whose every lane is saturated
//! still answers the snapshot that explains the saturation — and a
//! client-supplied trace context turns into server-side spans sharing
//! the client's trace id, also when the request waited in a lane queue.
//!
//! Determinism: as in `overload_e2e`, the flood is not raced — the tests
//! hold the saturated lanes' only permits through the server's own
//! admission controller, so every request's fate is decided, not timed.

use std::sync::Arc;
use std::time::{Duration, Instant};

use oasis_core::{
    Atom, Credential, Deadline, Lane, LaneConfig, OasisService, OverloadConfig, PrincipalId,
    ServiceConfig, Submission, Term, Value, ValueType,
};
use oasis_facts::FactStore;
use oasis_obs::{Recorder, Registry, TraceCtx};
use oasis_wire::{WireClient, WireServer};

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

/// Every lane down to one slot and no queue: three held permits saturate
/// the whole server.
fn all_lanes_tight() -> OverloadConfig {
    let mut cfg = OverloadConfig::default();
    for lane in [Lane::Control, Lane::Validation, Lane::Issuance] {
        *cfg.lane_mut(lane) = LaneConfig {
            limit: 1,
            queue_cap: 0,
        };
    }
    cfg
}

#[test]
fn flooded_server_still_answers_metrics_within_budget() {
    let service = login_service();
    let registry: Arc<Registry> = Arc::new(Registry::new());
    service.set_obs(registry.clone());
    let server = WireServer::bind(Arc::clone(&service), "127.0.0.1:0")
        .unwrap()
        .with_overload(all_lanes_tight());
    let controller = server.controller();
    let addr = server.serve_in_background().unwrap();

    let mut client = WireClient::connect(addr).unwrap().with_deadline_ms(60_000);
    client.ping().unwrap();

    // Saturate every lane: hold each one's only permit.
    let _permits: Vec<_> = [Lane::Control, Lane::Validation, Lane::Issuance]
        .into_iter()
        .map(|lane| match controller.submit(lane, Deadline::none()) {
            Submission::Admitted(p) => p,
            _ => panic!("free {lane:?} lane must admit"),
        })
        .collect();

    // Even control traffic is now shed...
    assert!(
        matches!(
            client.ping().unwrap_err(),
            oasis_wire::WireError::Overloaded { .. }
        ),
        "control lane should be saturated"
    );

    // ...but the metrics probe bypasses admission and answers promptly.
    let started = Instant::now();
    let snapshot = client.metrics().unwrap();
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(2),
        "metrics under flood took {elapsed:?}"
    );
    // The snapshot explains the flood: the overload controller's lane
    // series are adopted under the service's name.
    for lane in ["control", "validation", "issuance"] {
        for series in [
            format!("\"login.overload.{lane}.shed\":"),
            format!("\"login.overload.{lane}.running\":1"),
        ] {
            assert!(snapshot.contains(&series), "{series} missing: {snapshot}");
        }
    }
    assert!(
        snapshot.contains("\"login.overload.control.shed\":1"),
        "the shed ping is counted: {snapshot}"
    );
    assert!(snapshot.starts_with("{\"counters\":"), "{snapshot}");
}

#[test]
fn client_trace_context_parents_server_side_spans() {
    let service = login_service();
    let registry: Arc<Registry> = Arc::new(Registry::with_span_recording());
    service.set_obs(registry.clone());
    service.add_invocation_rule(
        "whoami",
        vec![Term::var("U")],
        vec![Atom::prereq("logged_in", vec![Term::var("U")])],
    );
    let server = WireServer::bind(Arc::clone(&service), "127.0.0.1:0").unwrap();
    let addr = server.serve_in_background().unwrap();

    let alice = PrincipalId::new("alice");
    let mut client = WireClient::connect(addr).unwrap().with_trace(TraceCtx {
        trace_id: 424_242,
        parent_span: 0,
        hop: 0,
    });
    let rmc = client
        .activate(&alice, "logged_in", vec![Value::id("alice")], vec![], 1)
        .unwrap();
    client
        .invoke(
            &alice,
            "whoami",
            vec![Value::id("alice")],
            vec![Credential::Rmc(rmc.clone())],
            2,
        )
        .unwrap();
    assert!(client.revoke(rmc.crr.cert_id.0, "logout", 3).unwrap());

    let lines = registry.spans().lines();
    let ours: Vec<&String> = lines
        .iter()
        .filter(|l| l.contains("\"trace\":424242"))
        .collect();
    assert!(
        ours.iter().any(|l| l.contains("\"op\":\"svc.activate\"")),
        "activation span should carry the client's trace id: {lines:?}"
    );
    assert!(
        ours.iter().any(|l| l.contains("\"op\":\"svc.invoke\"")),
        "invocation span should carry the client's trace id: {lines:?}"
    );
    assert!(
        ours.iter().any(|l| l.contains("\"op\":\"svc.revoke\"")),
        "revocation span should carry the client's trace id: {lines:?}"
    );

    // A connection with no trace context produces no spans.
    let before = registry.spans().len();
    let mut plain = WireClient::connect(addr).unwrap();
    plain.ping().unwrap();
    assert_eq!(registry.spans().len(), before);
}

#[test]
fn queued_request_keeps_the_client_trace_context() {
    let service = login_service();
    let registry: Arc<Registry> = Arc::new(Registry::with_span_recording());
    service.set_obs(registry.clone());
    let mut cfg = OverloadConfig::default();
    *cfg.lane_mut(Lane::Issuance) = LaneConfig {
        limit: 1,
        queue_cap: 4,
    };
    let server = WireServer::bind(Arc::clone(&service), "127.0.0.1:0")
        .unwrap()
        .with_overload(cfg);
    let controller = server.controller();
    let addr = server.serve_in_background().unwrap();

    // Hold the issuance lane's only permit, so the activation queues.
    let permit = match controller.submit(Lane::Issuance, Deadline::none()) {
        Submission::Admitted(p) => p,
        _ => panic!("free issuance lane must admit"),
    };
    let activation = std::thread::spawn(move || {
        let mut client = WireClient::connect(addr).unwrap().with_trace(TraceCtx {
            trace_id: 515_151,
            parent_span: 0,
            hop: 0,
        });
        client.activate(
            &PrincipalId::new("alice"),
            "logged_in",
            vec![Value::id("alice")],
            vec![],
            1,
        )
    });
    let deadline = Instant::now() + Duration::from_secs(10);
    while controller.stats().lane(Lane::Issuance).queue_depth != 1 {
        assert!(Instant::now() < deadline, "the activation never queued");
        std::thread::sleep(Duration::from_millis(1));
    }
    drop(permit);
    activation.join().unwrap().unwrap();

    let lines = registry.spans().lines();
    assert!(
        lines
            .iter()
            .any(|l| l.contains("\"trace\":515151") && l.contains("\"op\":\"svc.activate\"")),
        "the queued activation's span should carry the client's trace id: {lines:?}"
    );
}
