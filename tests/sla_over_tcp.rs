//! Integration: the service-level agreement gates a cross-domain callback
//! over real TCP. A `login` issuer in domain `national` serves behind a
//! `WireServer`; a `hospital` service validates its RMCs through
//! `ResilientValidator(RemoteValidator)`, with and without an `SlaGate` in
//! front. The issuer's `login.wire.requests` series counts every callback
//! it serves (the test issues credentials in-process, so nothing else
//! reaches the server).

use std::sync::Arc;

use oasis::prelude::*;
use oasis::wire::{RemoteValidator, WireServer};
use oasis_core::{CredentialKind, ResilientValidator};
use oasis_obs::{Recorder, Registry};

#[test]
fn sla_gate_refuses_an_uncovered_foreign_role_before_any_callback() {
    // --- Domain `national`: the login issuer, on TCP ---------------------
    let login = OasisService::new(ServiceConfig::new("login"), Arc::new(FactStore::new()));
    for role in ["logged_in", "admin"] {
        login
            .define_role(role, &[("u", ValueType::Id)], true)
            .unwrap();
        login
            .add_activation_rule(role, vec![Term::var("U")], vec![], vec![])
            .unwrap();
    }
    let registry = Arc::new(Registry::new());
    login.set_obs(registry.clone());
    let requests = registry.counter("login.wire.requests");
    let addr = WireServer::bind(Arc::clone(&login), "127.0.0.1:0")
        .unwrap()
        .serve_in_background()
        .unwrap();

    let alice = PrincipalId::new("alice");
    let ctx = EnvContext::new(0);
    let rmc = |role: &str| {
        let rmc = login.activate_role(
            &alice,
            &RoleName::new(role),
            &[Value::id("alice")],
            &[],
            &ctx,
        );
        [Credential::Rmc(rmc.unwrap())]
    };
    let (admin, logged_in) = (rmc("admin"), rmc("logged_in"));

    // --- Domain `hospital`: a relying service naming `login::admin` ------
    let federation = Federation::new();
    federation.place("login", "national").unwrap();
    federation.add_sla(Sla::between("hospital", "national").accept(SlaClause {
        issuer: "login".into(),
        name: "logged_in".into(),
        kind: CredentialKind::Rmc,
    }));
    let ward = Domain::new("hospital", &federation).create_service("hospital.ward");
    for (method, role) in [("configure", "admin"), ("read_chart", "logged_in")] {
        ward.add_invocation_rule(
            method,
            vec![],
            vec![Atom::prereq_at("login", role, vec![Term::var("U")])],
        );
    }
    let remote = Arc::new(RemoteValidator::new());
    remote.add_issuer("login", addr);
    let callbacks: Arc<dyn CredentialValidator> = Arc::new(ResilientValidator::new(remote));
    let invoke = |method: &str, creds: &[Credential]| ward.invoke(&alice, method, &[], creds, &ctx);

    // Without the gate the relying side honours any role of a known
    // issuer: the `admin` RMC passes with one callback.
    ward.set_validator(callbacks.clone());
    invoke("configure", &admin).unwrap();
    assert_eq!(requests.get(), 1);

    // Behind the gate the uncovered `admin` RMC is refused, and the
    // issuer never hears of it.
    ward.set_validator(federation.gate("hospital", callbacks));
    let err = invoke("configure", &admin).unwrap_err();
    assert!(matches!(err, OasisError::InvocationDenied { .. }), "{err}");
    assert_eq!(requests.get(), 1, "a refused credential cost a callback");

    // The covered `logged_in` RMC still passes, with exactly one callback.
    invoke("read_chart", &logged_in).unwrap();
    assert_eq!(requests.get(), 2);
}
