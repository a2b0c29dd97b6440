//! End-to-end: a real OASIS service served over localhost TCP, driven by
//! the blocking client — activation, invocation, validation callback, and
//! revocation all crossing the socket.

use std::sync::Arc;

use oasis_core::{Atom, Credential, OasisService, ServiceConfig, Term, Value, ValueType};
use oasis_facts::FactStore;
use oasis_wire::{WireClient, WireError, WireServer};

fn hospital() -> Arc<OasisService> {
    let facts = Arc::new(FactStore::new());
    facts.define("password_ok", 1).unwrap();
    facts
        .insert("password_ok", vec![Value::id("dr-jones")])
        .unwrap();
    facts.define("registered", 2).unwrap();
    facts
        .insert("registered", vec![Value::id("dr-jones"), Value::id("p1")])
        .unwrap();

    let svc = OasisService::new(ServiceConfig::new("hospital"), facts);
    svc.define_role("logged_in", &[("u", ValueType::Id)], true)
        .unwrap();
    svc.add_activation_rule(
        "logged_in",
        vec![Term::var("U")],
        vec![Atom::env_fact("password_ok", vec![Term::var("U")])],
        vec![0],
    )
    .unwrap();
    svc.define_role(
        "treating_doctor",
        &[("d", ValueType::Id), ("p", ValueType::Id)],
        false,
    )
    .unwrap();
    svc.add_activation_rule(
        "treating_doctor",
        vec![Term::var("D"), Term::var("P")],
        vec![
            Atom::prereq("logged_in", vec![Term::var("D")]),
            Atom::env_fact("registered", vec![Term::var("D"), Term::var("P")]),
        ],
        vec![0, 1],
    )
    .unwrap();
    svc.add_invocation_rule(
        "read_record",
        vec![Term::var("P")],
        vec![Atom::prereq(
            "treating_doctor",
            vec![Term::Wildcard, Term::var("P")],
        )],
    );
    svc
}

fn start_server(service: Arc<OasisService>) -> std::net::SocketAddr {
    WireServer::bind(service, "127.0.0.1:0")
        .unwrap()
        .serve_in_background()
        .unwrap()
}

#[test]
fn full_session_over_tcp() {
    let service = hospital();
    let addr = start_server(Arc::clone(&service));
    let mut client = WireClient::connect(addr).unwrap();
    client.ping().unwrap();

    let dr = oasis_core::PrincipalId::new("dr-jones");

    // Path 1–2: activate the initial role, then the dependent role.
    let login = client
        .activate(&dr, "logged_in", vec![Value::id("dr-jones")], vec![], 1)
        .unwrap();
    assert_eq!(login.role.as_str(), "logged_in");

    let treating = client
        .activate(
            &dr,
            "treating_doctor",
            vec![Value::id("dr-jones"), Value::id("p1")],
            vec![Credential::Rmc(login.clone())],
            2,
        )
        .unwrap();

    // Path 3–4: invoke, authorised by the parametrised RMC.
    let used = client
        .invoke(
            &dr,
            "read_record",
            vec![Value::id("p1")],
            vec![Credential::Rmc(treating.clone())],
            3,
        )
        .unwrap();
    assert_eq!(used, vec![treating.crr.clone()]);

    // Validation callback works across the wire.
    client
        .validate(&Credential::Rmc(treating.clone()), &dr, 4)
        .unwrap();

    // Revoking the root collapses the chain server-side; the callback now
    // reports the dependent certificate revoked.
    assert!(client.revoke(login.crr.cert_id.0, "logout", 5).unwrap());
    let err = client
        .validate(&Credential::Rmc(treating), &dr, 6)
        .unwrap_err();
    assert!(
        matches!(err, WireError::Remote(ref m) if m.contains("revoked")),
        "{err}"
    );
}

#[test]
fn denial_is_reported_as_remote_error() {
    let service = hospital();
    let addr = start_server(service);
    let mut client = WireClient::connect(addr).unwrap();
    let nurse = oasis_core::PrincipalId::new("nurse-no-password");
    let err = client
        .activate(
            &nurse,
            "logged_in",
            vec![Value::id("nurse-no-password")],
            vec![],
            1,
        )
        .unwrap_err();
    assert!(
        matches!(err, WireError::Remote(ref m) if m.contains("denied")),
        "{err}"
    );
}

#[test]
fn stolen_rmc_fails_validation_over_the_wire() {
    let service = hospital();
    let addr = start_server(service);
    let mut client = WireClient::connect(addr).unwrap();
    let dr = oasis_core::PrincipalId::new("dr-jones");
    let rmc = client
        .activate(&dr, "logged_in", vec![Value::id("dr-jones")], vec![], 1)
        .unwrap();
    // The thief presents the stolen certificate under their own identity.
    let thief = oasis_core::PrincipalId::new("mallory");
    let err = client
        .validate(&Credential::Rmc(rmc), &thief, 2)
        .unwrap_err();
    assert!(matches!(err, WireError::Remote(_)));
}

#[test]
fn many_concurrent_clients() {
    let service = hospital();
    let facts = Arc::clone(service.facts());
    for i in 0..20 {
        facts
            .insert("password_ok", vec![Value::id(format!("dr-{i}"))])
            .unwrap();
    }
    let addr = start_server(service);

    let mut handles = Vec::new();
    for i in 0..20 {
        handles.push(std::thread::spawn(move || {
            let mut client = WireClient::connect(addr).unwrap();
            let principal = oasis_core::PrincipalId::new(format!("dr-{i}"));
            client
                .activate(
                    &principal,
                    "logged_in",
                    vec![Value::id(format!("dr-{i}"))],
                    vec![],
                    1,
                )
                .unwrap()
        }));
    }
    let mut cert_ids = std::collections::HashSet::new();
    for handle in handles {
        let rmc = handle.join().unwrap();
        assert!(cert_ids.insert(rmc.crr.cert_id));
    }
    assert_eq!(cert_ids.len(), 20);
}

#[test]
fn server_side_context_factory_applies() {
    // A role gated on $now < 100, activated through the wire: the server
    // evaluates the rule at the virtual time the client sent.
    let facts = Arc::new(FactStore::new());
    let svc = OasisService::new(ServiceConfig::new("timed"), facts);
    svc.define_role("day_role", &[], true).unwrap();
    svc.add_activation_rule(
        "day_role",
        vec![],
        vec![Atom::compare(
            Term::var("$now"),
            oasis_core::CmpOp::Lt,
            Term::val(Value::Time(100)),
        )],
        vec![],
    )
    .unwrap();
    let addr = WireServer::bind(svc, "127.0.0.1:0")
        .unwrap()
        .serve_in_background()
        .unwrap();

    let mut client = WireClient::connect(addr).unwrap();
    let p = oasis_core::PrincipalId::new("p");
    assert!(client.activate(&p, "day_role", vec![], vec![], 50).is_ok());
    assert!(client
        .activate(&p, "day_role", vec![], vec![], 150)
        .is_err());
}
