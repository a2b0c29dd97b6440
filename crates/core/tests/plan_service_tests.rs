//! Service-level behaviour of the compiled decision plans: a reordered
//! rule through the public API, epoch-skipped membership sweeps, the
//! prerequisite-role DAG, targeted re-checks, and plan statistics.

use std::sync::Arc;

use oasis_core::{
    Atom, CmpOp, CredStatus, Credential, EnvContext, OasisService, PrincipalId, RoleName,
    ServiceConfig, Term, Value, ValueType,
};
use oasis_facts::FactStore;

fn role(s: &str) -> RoleName {
    RoleName::new(s)
}

/// A world with a credential join under a comparison guard — the shape
/// the plan compiler reorders. (`plan_parity.rs` holds the plan for this
/// rule body to the reference solver.)
fn join_world() -> (Arc<OasisService>, PrincipalId) {
    let facts = FactStore::new();
    facts.define("registered", 2).unwrap();
    facts
        .insert("registered", vec![Value::id("d1"), Value::id("alice")])
        .unwrap();
    let svc = OasisService::new(ServiceConfig::new("ward"), Arc::new(facts));
    svc.define_role("doctor", &[("d", ValueType::Id)], true)
        .unwrap();
    svc.add_activation_rule("doctor", vec![Term::var("D")], vec![], vec![])
        .unwrap();
    svc.define_role("patient", &[("p", ValueType::Id)], false)
        .unwrap();
    svc.add_activation_rule(
        "patient",
        vec![Term::var("P")],
        vec![
            Atom::prereq("doctor", vec![Term::var("D")]),
            Atom::env_fact("registered", vec![Term::var("D"), Term::var("P")]),
            Atom::compare(Term::var("$now"), CmpOp::Lt, Term::val(Value::Time(100))),
        ],
        vec![0, 1],
    )
    .unwrap();
    svc.add_invocation_rule(
        "read",
        vec![Term::var("P")],
        vec![Atom::prereq("patient", vec![Term::var("P")])],
    );
    (svc, PrincipalId::new("alice"))
}

/// The reordered rule through the public API: the grant carries the
/// requested role and arguments, a missing fact row and a closed `$now`
/// window each deny, and the issued RMC authorises the invocation.
#[test]
fn service_level_parity_between_engines() {
    let (svc, alice) = join_world();
    let ctx = EnvContext::new(10);
    let doctor = svc
        .activate_role(&alice, &role("doctor"), &[Value::id("d1")], &[], &ctx)
        .unwrap();
    let presented = vec![Credential::Rmc(doctor)];

    let patient = svc
        .activate_role(
            &alice,
            &role("patient"),
            &[Value::id("alice")],
            &presented,
            &ctx,
        )
        .unwrap();
    assert_eq!(patient.role, role("patient"));
    assert_eq!(patient.args, vec![Value::id("alice")]);

    // Denied: no registration row for bob.
    let denied = svc.activate_role(
        &alice,
        &role("patient"),
        &[Value::id("bob")],
        &presented,
        &ctx,
    );
    assert!(denied.is_err());
    // Denied: the $now guard fails after the window closes.
    let expired = svc.activate_role(
        &alice,
        &role("patient"),
        &[Value::id("alice")],
        &presented,
        &EnvContext::new(200),
    );
    assert!(expired.is_err());
    let invoked = svc.invoke(
        &alice,
        "read",
        &[Value::id("alice")],
        &[Credential::Rmc(patient)],
        &ctx,
    );
    assert!(invoked.is_ok());
}

/// An unchanged fact epoch lets the sweep skip fact-only checks — but
/// time-sensitive checks still run, and a fact change re-arms the full
/// sweep.
#[test]
fn epoch_skip_spares_fact_only_checks_but_not_timed_ones() {
    let facts = Arc::new(FactStore::new());
    facts.define("registered", 1).unwrap();
    facts.insert("registered", vec![Value::id("u")]).unwrap();
    let svc = OasisService::new(ServiceConfig::new("sweep"), Arc::clone(&facts));
    let u = PrincipalId::new("u");
    for (name, timed) in [("member", false), ("timed", true)] {
        svc.define_role(name, &[("u", ValueType::Id)], true)
            .unwrap();
        let mut conditions = vec![Atom::env_fact("registered", vec![Term::var("U")])];
        let mut membership = vec![0];
        if timed {
            conditions.push(Atom::compare(
                Term::var("$now"),
                CmpOp::Lt,
                Term::val(Value::Time(100)),
            ));
            membership.push(1);
        }
        svc.add_activation_rule(name, vec![Term::var("U")], conditions, membership)
            .unwrap();
    }
    let ctx = EnvContext::new(0);
    let member = svc
        .activate_role(&u, &role("member"), &[Value::id("u")], &[], &ctx)
        .unwrap();
    let timed = svc
        .activate_role(&u, &role("timed"), &[Value::id("u")], &[], &ctx)
        .unwrap();

    // First sweep establishes the epoch watermark; the second runs at
    // the same epoch (fact-only checks skipped) — nothing may be
    // revoked either way while both checks hold.
    assert!(svc.recheck_memberships(&EnvContext::new(10)).is_empty());
    assert!(svc.recheck_memberships(&EnvContext::new(20)).is_empty());

    // Still the same epoch, but the window has closed: the timed check
    // must be evaluated despite the skip, the fact-only one spared.
    let revoked = svc.recheck_memberships(&EnvContext::new(150));
    assert_eq!(revoked, vec![timed.crr.clone()]);
    assert!(matches!(
        svc.record(member.crr.cert_id).unwrap().status,
        CredStatus::Active
    ));
}

/// `role_dependents` walks the local prerequisite DAG transitively.
#[test]
fn role_dependents_follow_the_prereq_dag() {
    let svc = OasisService::new(ServiceConfig::new("dag"), Arc::new(FactStore::new()));
    for name in ["base", "mid", "leaf", "other"] {
        svc.define_role(name, &[], name == "base" || name == "other")
            .unwrap();
    }
    svc.add_activation_rule("base", vec![], vec![], vec![])
        .unwrap();
    svc.add_activation_rule("other", vec![], vec![], vec![])
        .unwrap();
    svc.add_activation_rule("mid", vec![], vec![Atom::prereq("base", vec![])], vec![0])
        .unwrap();
    svc.add_activation_rule("leaf", vec![], vec![Atom::prereq("mid", vec![])], vec![0])
        .unwrap();

    assert_eq!(
        svc.role_dependents(&role("base")),
        vec![role("leaf"), role("mid")]
    );
    assert_eq!(svc.role_dependents(&role("mid")), vec![role("leaf")]);
    assert!(svc.role_dependents(&role("other")).is_empty());
}

/// A targeted re-check sweeps only the named roles (plus transitive
/// dependents); everything else keeps its grant until a full sweep.
#[test]
fn targeted_recheck_touches_only_dependent_roles() {
    let svc = OasisService::new(ServiceConfig::new("targeted"), Arc::new(FactStore::new()));
    let u = PrincipalId::new("u");
    for name in ["shift_a", "shift_b"] {
        svc.define_role(name, &[], true).unwrap();
        svc.add_activation_rule(
            name,
            vec![],
            vec![Atom::compare(
                Term::var("$now"),
                CmpOp::Lt,
                Term::val(Value::Time(100)),
            )],
            vec![0],
        )
        .unwrap();
    }
    let ctx = EnvContext::new(0);
    let a = svc
        .activate_role(&u, &role("shift_a"), &[], &[], &ctx)
        .unwrap();
    let b = svc
        .activate_role(&u, &role("shift_b"), &[], &[], &ctx)
        .unwrap();

    // Both windows are closed, but only shift_a is swept.
    let late = EnvContext::new(150);
    assert_eq!(
        svc.recheck_role_memberships(&[role("shift_a")], &late),
        vec![a.crr.clone()]
    );
    assert!(matches!(
        svc.record(b.crr.cert_id).unwrap().status,
        CredStatus::Active
    ));
    // The full sweep still catches the rest.
    assert_eq!(svc.recheck_memberships(&late), vec![b.crr.clone()]);
}

/// Plan statistics reflect compile-time analysis across the table.
#[test]
fn plan_stats_count_compile_time_analysis() {
    let facts = FactStore::new();
    facts.define("open", 1).unwrap();
    let svc = OasisService::new(ServiceConfig::new("stats"), Arc::new(facts));
    svc.define_role("r", &[("u", ValueType::Id)], true).unwrap();
    // Ground, fact-only.
    svc.add_activation_rule(
        "r",
        vec![Term::var("U")],
        vec![Atom::env_fact("open", vec![Term::var("U")])],
        vec![0],
    )
    .unwrap();
    // Provably unsatisfiable: a false constant comparison.
    svc.add_activation_rule(
        "r",
        vec![Term::var("U")],
        vec![Atom::compare(
            Term::val(Value::Int(2)),
            CmpOp::Lt,
            Term::val(Value::Int(1)),
        )],
        vec![],
    )
    .unwrap();
    // Time-sensitive and reordered: the guard hoists past the join.
    svc.add_activation_rule(
        "r",
        vec![Term::var("U")],
        vec![
            Atom::prereq("q", vec![Term::var("X")]),
            Atom::compare(Term::var("$now"), CmpOp::Lt, Term::val(Value::Time(5))),
        ],
        vec![0],
    )
    .unwrap();

    let stats = svc.plan_stats();
    assert_eq!(stats.total, 3);
    assert_eq!(stats.always_fail, 1);
    assert_eq!(stats.reordered, 1);
    // The fact-only rule reads only head slots; the folded always-fail
    // rule keeps no steps at all, which is vacuously ground.
    assert_eq!(stats.ground, 2);
    // Only the $now-guarded rule: the false constant comparison was
    // folded into `always_fail`, not kept as a runtime step.
    assert_eq!(stats.time_sensitive, 1);
}
