//! Further active-security and concurrency behaviour: predicate-retained
//! memberships, ambient-environment gating, and thread-safety of the
//! service under concurrent sessions.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use oasis_core::{
    Atom, CmpOp, Credential, EnvContext, OasisError, OasisService, PrincipalId, RoleName,
    ServiceConfig, Term, Value, ValueType,
};
use oasis_facts::FactStore;

fn service() -> Arc<OasisService> {
    OasisService::new(ServiceConfig::new("svc"), Arc::new(FactStore::new()))
}

#[test]
fn predicate_membership_revoked_on_recheck() {
    let svc = service();
    svc.define_role("networked", &[], true).unwrap();
    svc.add_activation_rule(
        "networked",
        vec![],
        vec![Atom::predicate("link_up", vec![])],
        vec![0],
    )
    .unwrap();

    let link_up = Arc::new(AtomicBool::new(true));
    let flag = Arc::clone(&link_up);
    let ctx =
        EnvContext::new(0).with_predicate("link_up", move |_, _| flag.load(Ordering::Relaxed));

    let alice = PrincipalId::new("alice");
    let rmc = svc
        .activate_role(&alice, &RoleName::new("networked"), &[], &[], &ctx)
        .unwrap();

    // Sweep while the predicate holds: nothing happens.
    assert!(svc.recheck_memberships(&ctx.at(10)).is_empty());
    assert!(svc.record(rmc.crr.cert_id).unwrap().status.is_active());

    // The link drops; the next sweep deactivates the role.
    link_up.store(false, Ordering::Relaxed);
    let revoked = svc.recheck_memberships(&ctx.at(20));
    assert_eq!(revoked, vec![rmc.crr.clone()]);
}

#[test]
fn ambient_values_gate_activation_and_invocation() {
    // "the location or name of a computer" as an environmental constraint.
    let svc = service();
    svc.define_role("console_operator", &[], true).unwrap();
    svc.add_activation_rule(
        "console_operator",
        vec![],
        vec![Atom::compare(
            Term::var("$host"),
            CmpOp::Eq,
            Term::val(Value::id("control-room")),
        )],
        vec![],
    )
    .unwrap();
    svc.add_invocation_rule(
        "open_valve",
        vec![],
        vec![
            Atom::prereq("console_operator", vec![]),
            Atom::compare(
                Term::var("$host"),
                CmpOp::Eq,
                Term::val(Value::id("control-room")),
            ),
        ],
    );

    let alice = PrincipalId::new("alice");
    let at_console = EnvContext::new(0).with_ambient("host", Value::id("control-room"));
    let at_home = EnvContext::new(0).with_ambient("host", Value::id("laptop"));

    assert!(svc
        .activate_role(
            &alice,
            &RoleName::new("console_operator"),
            &[],
            &[],
            &at_home
        )
        .is_err());
    let rmc = svc
        .activate_role(
            &alice,
            &RoleName::new("console_operator"),
            &[],
            &[],
            &at_console,
        )
        .unwrap();

    // Even holding the RMC, the invocation itself is host-gated.
    assert!(svc
        .invoke(
            &alice,
            "open_valve",
            &[],
            &[Credential::Rmc(rmc.clone())],
            &at_console
        )
        .is_ok());
    assert!(svc
        .invoke(&alice, "open_valve", &[], &[Credential::Rmc(rmc)], &at_home)
        .is_err());
}

#[test]
fn concurrent_sessions_issue_distinct_certificates() {
    let facts = Arc::new(FactStore::new());
    facts.define("password_ok", 1).unwrap();
    let svc = OasisService::new(ServiceConfig::new("svc"), Arc::clone(&facts));
    svc.define_role("logged_in", &[("u", ValueType::Id)], true)
        .unwrap();
    svc.add_activation_rule(
        "logged_in",
        vec![Term::var("U")],
        vec![Atom::env_fact("password_ok", vec![Term::var("U")])],
        vec![0],
    )
    .unwrap();
    for i in 0..8 {
        facts
            .insert("password_ok", vec![Value::id(format!("user-{i}"))])
            .unwrap();
    }

    let mut handles = Vec::new();
    for i in 0..8 {
        let svc = Arc::clone(&svc);
        handles.push(std::thread::spawn(move || {
            let user = PrincipalId::new(format!("user-{i}"));
            let ctx = EnvContext::new(i);
            (0..50)
                .map(|_| {
                    svc.activate_role(
                        &user,
                        &RoleName::new("logged_in"),
                        &[Value::id(format!("user-{i}"))],
                        &[],
                        &ctx,
                    )
                    .unwrap()
                    .crr
                    .cert_id
                })
                .collect::<Vec<_>>()
        }));
    }
    let mut all_ids = std::collections::HashSet::new();
    for handle in handles {
        for id in handle.join().unwrap() {
            assert!(all_ids.insert(id), "duplicate certificate id {id}");
        }
    }
    assert_eq!(all_ids.len(), 400);
    assert_eq!(svc.record_stats().0, 400);
}

#[test]
fn concurrent_revocation_and_activation_do_not_deadlock() {
    let facts = Arc::new(FactStore::new());
    let svc = OasisService::new(ServiceConfig::new("svc"), Arc::clone(&facts));
    svc.define_role("root", &[], true).unwrap();
    svc.add_activation_rule("root", vec![], vec![], vec![])
        .unwrap();
    svc.define_role("leaf", &[("n", ValueType::Int)], false)
        .unwrap();
    svc.add_activation_rule(
        "leaf",
        vec![Term::var("N")],
        vec![Atom::prereq("root", vec![])],
        vec![0],
    )
    .unwrap();

    let alice = PrincipalId::new("alice");
    let ctx = EnvContext::new(0);
    let root = svc
        .activate_role(&alice, &RoleName::new("root"), &[], &[], &ctx)
        .unwrap();

    // One thread hammers activations, another revokes roots repeatedly.
    let activator = {
        let svc = Arc::clone(&svc);
        let root = root.clone();
        let alice = alice.clone();
        std::thread::spawn(move || {
            let ctx = EnvContext::new(1);
            let mut ok = 0;
            for n in 0..200 {
                if svc
                    .activate_role(
                        &alice,
                        &RoleName::new("leaf"),
                        &[Value::Int(n)],
                        std::slice::from_ref(&Credential::Rmc(root.clone())),
                        &ctx,
                    )
                    .is_ok()
                {
                    ok += 1;
                }
            }
            ok
        })
    };
    let revoker = {
        let svc = Arc::clone(&svc);
        std::thread::spawn(move || {
            // Revoke the root partway through the activator's run.
            std::thread::yield_now();
            svc.revoke_certificate(root.crr.cert_id, "race", 2)
        })
    };

    let activated = activator.join().unwrap();
    revoker.join().unwrap();
    // Whatever interleaving happened, the invariant stands: no active
    // leaf retains the revoked root.
    let (active, _revoked, _) = svc.record_stats();
    for record in svc.active_records() {
        for dep in svc.dependencies(record.crr.cert_id).unwrap() {
            assert!(
                svc.record(dep.cert_id).unwrap().status.is_active(),
                "active cert retains revoked dependency"
            );
        }
    }
    // Sanity: numbers add up (root + leaves in some split).
    assert!(active <= activated + 1);
}

/// A supporting credential revoked after the activation validated it but
/// before the new certificate's dependency edges exist: the issue path's
/// re-validation (the credential's standing; its MAC was checked moments
/// earlier) must notice, or the new role outlives its prerequisite. A
/// predicate in the rule body runs in exactly that window.
#[test]
fn prerequisite_revoked_mid_activation_is_caught_by_the_standing_recheck() {
    let svc = service();
    svc.define_role("root", &[], true).unwrap();
    svc.add_activation_rule("root", vec![], vec![], vec![])
        .unwrap();
    svc.define_role("leaf", &[], false).unwrap();
    svc.add_activation_rule(
        "leaf",
        vec![],
        vec![
            Atom::prereq("root", vec![]),
            Atom::predicate("revoke_root", vec![]),
        ],
        vec![0],
    )
    .unwrap();
    let alice = PrincipalId::new("alice");
    let root = svc
        .activate_role(
            &alice,
            &RoleName::new("root"),
            &[],
            &[],
            &EnvContext::new(0),
        )
        .unwrap();

    let revoker = Arc::clone(&svc);
    let root_id = root.crr.cert_id;
    let ctx = EnvContext::new(1).with_predicate("revoke_root", move |_, _| {
        revoker.revoke_certificate(root_id, "revoked mid-activation", 1);
        true
    });
    let leaf = svc.activate_role(
        &alice,
        &RoleName::new("leaf"),
        &[],
        &[Credential::Rmc(root)],
        &ctx,
    );
    assert!(
        matches!(leaf, Err(OasisError::ActivationDenied { .. })),
        "{leaf:?}"
    );
    assert!(
        svc.active_records().is_empty(),
        "no certificate stays active on a revoked root"
    );
}

#[test]
fn end_session_revokes_rmcs_but_not_appointments() {
    let facts = Arc::new(FactStore::new());
    let svc = OasisService::new(ServiceConfig::new("svc"), Arc::clone(&facts));
    svc.define_role("login", &[], true).unwrap();
    svc.add_activation_rule("login", vec![], vec![], vec![])
        .unwrap();
    svc.define_role("inner", &[], false).unwrap();
    svc.add_activation_rule(
        "inner",
        vec![],
        vec![Atom::prereq("login", vec![])],
        vec![0],
    )
    .unwrap();
    svc.grant_appointer("login", "badge").unwrap();

    let alice = PrincipalId::new("alice");
    let bob = PrincipalId::new("bob");
    let ctx = EnvContext::new(0);

    let alice_login = svc
        .activate_role(&alice, &RoleName::new("login"), &[], &[], &ctx)
        .unwrap();
    let alice_inner = svc
        .activate_role(
            &alice,
            &RoleName::new("inner"),
            &[],
            std::slice::from_ref(&Credential::Rmc(alice_login.clone())),
            &ctx,
        )
        .unwrap();
    let bob_login = svc
        .activate_role(&bob, &RoleName::new("login"), &[], &[], &ctx)
        .unwrap();
    // Alice appoints Bob before logging out.
    let badge = svc
        .issue_appointment(
            &alice,
            &[Credential::Rmc(alice_login.clone())],
            "badge",
            vec![],
            &bob,
            None,
            None,
            &ctx,
        )
        .unwrap();

    let revoked = svc.end_session(&alice, "logout", 10);
    // The root was revoked directly; the inner role may fall either to
    // the direct sweep or to the cascade — both end revoked.
    assert!(revoked >= 1);
    assert!(svc
        .validate_own(&Credential::Rmc(alice_login), &alice, 11)
        .is_err());
    assert!(svc
        .validate_own(&Credential::Rmc(alice_inner), &alice, 11)
        .is_err());
    // Bob's session and the appointment both survive.
    assert!(svc
        .validate_own(&Credential::Rmc(bob_login), &bob, 11)
        .is_ok());
    assert!(svc
        .validate_own(&Credential::Appointment(badge), &bob, 11)
        .is_ok());
    // Idempotent.
    assert_eq!(svc.end_session(&alice, "logout", 12), 0);
}

#[test]
fn compare_membership_with_fact_bound_expiry() {
    // A retained comparison whose right operand was bound from a fact at
    // activation time: `$now < Expiry` keeps re-evaluating with fresh
    // `$now` but frozen `Expiry`.
    let facts = Arc::new(FactStore::new());
    facts.define("contract_until", 2).unwrap();
    facts
        .insert("contract_until", vec![Value::id("alice"), Value::Time(100)])
        .unwrap();
    let svc = OasisService::new(ServiceConfig::new("svc"), Arc::clone(&facts));
    svc.define_role("contractor", &[("u", ValueType::Id)], true)
        .unwrap();
    svc.add_activation_rule(
        "contractor",
        vec![Term::var("U")],
        vec![
            Atom::env_fact("contract_until", vec![Term::var("U"), Term::var("End")]),
            Atom::compare(Term::var("$now"), CmpOp::Lt, Term::var("End")),
        ],
        vec![1],
    )
    .unwrap();

    let alice = PrincipalId::new("alice");
    let rmc = svc
        .activate_role(
            &alice,
            &RoleName::new("contractor"),
            &[Value::id("alice")],
            &[],
            &EnvContext::new(10),
        )
        .unwrap();

    assert!(svc.recheck_memberships(&EnvContext::new(99)).is_empty());
    let revoked = svc.recheck_memberships(&EnvContext::new(100));
    assert_eq!(revoked, vec![rmc.crr]);
}
