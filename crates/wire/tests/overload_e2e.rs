//! Deterministic overload behaviour over real TCP: a saturated lane sheds
//! with a retry hint while the other lanes keep answering, and the
//! `RemoteValidator` maps sheds to `OasisError::Overloaded` without
//! dropping its cached connection.
//!
//! Determinism: instead of racing a flood, the tests grab the server's
//! admission controller directly and *hold* the saturated lane's only
//! permit, so the wire request's fate is decided, not timed.

use std::sync::Arc;

use oasis_core::{
    Atom, Credential, CredentialValidator, Deadline, Lane, LaneConfig, OasisError, OasisService,
    OverloadConfig, PrincipalId, ServiceConfig, Submission, Term, Value, ValueType,
};
use oasis_facts::FactStore;
use oasis_wire::{RemoteValidator, WireClient, WireError, WireServer};

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

/// Validation lane: a single slot and no queue, so one held permit makes
/// the very next validation request shed.
fn tight_validation_config() -> OverloadConfig {
    let mut cfg = OverloadConfig::default();
    *cfg.lane_mut(Lane::Validation) = LaneConfig {
        limit: 1,
        queue_cap: 0,
    };
    cfg
}

#[test]
fn saturated_lane_sheds_while_control_keeps_answering() {
    let service = login_service();
    let server = WireServer::bind(Arc::clone(&service), "127.0.0.1:0")
        .unwrap()
        .with_overload(tight_validation_config());
    let controller = server.controller();
    let addr = server.serve_in_background().unwrap();

    let alice = PrincipalId::new("alice");
    let mut client = WireClient::connect(addr).unwrap().with_deadline_ms(60_000);
    let rmc = client
        .activate(&alice, "logged_in", vec![Value::id("alice")], vec![], 1)
        .unwrap();
    let cred = Credential::Rmc(rmc.clone());

    // Sanity: the validation lane answers while free.
    client.validate(&cred, &alice, 2).unwrap();

    // Saturate it: hold its only permit.
    let permit = match controller.submit(Lane::Validation, Deadline::none()) {
        Submission::Admitted(p) => p,
        _ => panic!("free lane must admit"),
    };

    // Validation is now shed, with a usable hint...
    let err = client.validate(&cred, &alice, 3).unwrap_err();
    match err {
        WireError::Overloaded { retry_after_ms } => assert!(retry_after_ms >= 1),
        other => panic!("expected Overloaded, got {other}"),
    }

    // ...while control traffic on the SAME connection still answers:
    // liveness and — the active-security point — revocation.
    client.ping().unwrap();
    assert!(client.revoke(rmc.crr.cert_id.0, "logout", 4).unwrap());

    // Shedding freed no permit and did no work: stats say shed, not run.
    let stats = controller.stats();
    assert_eq!(stats.lane(Lane::Validation).shed, 1);
    assert_eq!(stats.lane(Lane::Control).shed, 0);
    assert!(stats.lane(Lane::Control).admitted >= 2);

    // Releasing the permit reopens the lane (the shed was not sticky).
    drop(permit);
    let err = client.validate(&cred, &alice, 5).unwrap_err();
    assert!(
        matches!(err, WireError::Remote(ref m) if m.contains("revoked")),
        "post-revocation validation reaches the engine again: {err}"
    );
}

#[test]
fn remote_validator_surfaces_overload_and_keeps_its_connection() {
    let service = login_service();
    let server = WireServer::bind(Arc::clone(&service), "127.0.0.1:0")
        .unwrap()
        .with_overload(tight_validation_config());
    let controller = server.controller();
    let addr = server.serve_in_background().unwrap();

    let alice = PrincipalId::new("alice");
    let mut client = WireClient::connect(addr).unwrap();
    let rmc = client
        .activate(&alice, "logged_in", vec![Value::id("alice")], vec![], 1)
        .unwrap();
    let cred = Credential::Rmc(rmc);

    let validator = RemoteValidator::new();
    validator.add_issuer("login", addr);

    // Healthy path first, so a connection is cached.
    validator.validate(&cred, &alice, 2).unwrap();

    let permit = match controller.submit(Lane::Validation, Deadline::none()) {
        Submission::Admitted(p) => p,
        _ => panic!("free lane must admit"),
    };
    let err = validator.validate(&cred, &alice, 3).unwrap_err();
    match err {
        OasisError::Overloaded {
            ref service,
            retry_after_ms,
        } => {
            assert_eq!(service.as_str(), "login");
            assert!(retry_after_ms >= 1);
        }
        other => panic!("expected OasisError::Overloaded, got {other}"),
    }

    // The shed did not poison the cached connection: the next call reuses
    // it and succeeds (conns_accepted would grow on a re-dial).
    let conns_before = controller.stats().conns_accepted;
    drop(permit);
    validator.validate(&cred, &alice, 4).unwrap();
    let conns_after = controller.stats().conns_accepted;
    assert_eq!(conns_before, conns_after, "no re-dial after a shed");
}

#[test]
fn deadline_less_connection_is_shed_with_overloaded() {
    let service = login_service();
    let server = WireServer::bind(Arc::clone(&service), "127.0.0.1:0")
        .unwrap()
        .with_overload(tight_validation_config());
    let controller = server.controller();
    let addr = server.serve_in_background().unwrap();

    let alice = PrincipalId::new("alice");
    // No deadline: every frame on this connection is a bare request.
    let mut client = WireClient::connect(addr).unwrap();
    let rmc = client
        .activate(&alice, "logged_in", vec![Value::id("alice")], vec![], 1)
        .unwrap();
    let cred = Credential::Rmc(rmc);

    let _permit = match controller.submit(Lane::Validation, Deadline::none()) {
        Submission::Admitted(p) => p,
        _ => panic!("free lane must admit"),
    };

    // A shed is never dressed as an application error, which a caller
    // would take for a policy denial.
    match client.validate(&cred, &alice, 2).unwrap_err() {
        WireError::Overloaded { retry_after_ms } => assert!(retry_after_ms >= 1),
        other => panic!("expected Overloaded, got {other}"),
    }
}

#[test]
fn more_persistent_connections_than_workers_all_get_served() {
    let service = login_service();
    let cfg = OverloadConfig {
        workers: 2,
        ..Default::default()
    };
    let server = WireServer::bind(Arc::clone(&service), "127.0.0.1:0")
        .unwrap()
        .with_overload(cfg);
    let addr = server.serve_in_background().unwrap();

    // Four times as many live, persistent connections as workers. Under a
    // worker-per-connection design the third client would wait in the
    // accept queue forever; the multiplexed rotation serves them all.
    let alice = PrincipalId::new("alice");
    let mut clients: Vec<WireClient> = (0..8).map(|_| WireClient::connect(addr).unwrap()).collect();
    for round in 0..2 {
        for (i, client) in clients.iter_mut().enumerate() {
            client
                .ping()
                .unwrap_or_else(|e| panic!("round {round}, connection {i}: ping failed: {e}"));
        }
    }

    // The active-security point: a revocation arriving on the *last*
    // connection still goes through while every earlier connection stays
    // open and idle.
    let rmc = clients[0]
        .activate(&alice, "logged_in", vec![Value::id("alice")], vec![], 1)
        .unwrap();
    assert!(clients[7].revoke(rmc.crr.cert_id.0, "logout", 2).unwrap());
}

#[test]
fn idle_connections_are_closed_and_counted() {
    let service = login_service();
    let cfg = OverloadConfig {
        idle_conn_ms: 80,
        ..Default::default()
    };
    let server = WireServer::bind(Arc::clone(&service), "127.0.0.1:0")
        .unwrap()
        .with_overload(cfg);
    let controller = server.controller();
    let addr = server.serve_in_background().unwrap();

    let mut client = WireClient::connect(addr).unwrap();
    client.ping().unwrap();
    std::thread::sleep(std::time::Duration::from_millis(400));

    // The server reclaimed the idle connection's rotation slot; the next
    // call finds the socket closed (EOF or reset, depending on timing).
    let err = client.ping().unwrap_err();
    assert!(
        matches!(err, WireError::Closed | WireError::Io(_)),
        "expected a closed connection, got {err}"
    );
    assert!(controller.stats().conns_idle_closed >= 1);
}
