//! Integration: the full Fig 3 cross-domain EHR scenario, spanning
//! `oasis-core`, `oasis-domain` (federation, SLAs), `oasis-events`, and
//! `oasis-facts`, with the ECR cache of Fig 5 — the relying service's
//! validation cache — in front of the callback path.

use std::sync::Arc;

use oasis::prelude::*;
use oasis_core::CredentialKind;

struct World {
    hospital: Arc<Domain>,
    national: Arc<Domain>,
    records: Arc<oasis_core::OasisService>,
    ehr: Arc<oasis_core::OasisService>,
}

fn build() -> World {
    build_with(ServiceConfig::new("national-ehr.store"))
}

/// As [`build`], with the national EHR service built from `ehr_config`.
fn build_with(ehr_config: ServiceConfig) -> World {
    let federation = Federation::new();
    let hospital = Domain::new("st-marys", federation.bus().clone());
    let national = Domain::new("national-ehr", federation.bus().clone());
    federation.register(&hospital);
    federation.register(&national);

    let records = hospital.create_service("st-marys.records");
    records.set_validator(federation.validator_for("st-marys"));
    hospital.facts().define("on_shift", 1).unwrap();
    hospital.facts().define("registered", 2).unwrap();

    records
        .define_role("doctor_on_duty", &[("d", ValueType::Id)], true)
        .unwrap();
    records
        .add_activation_rule(
            "doctor_on_duty",
            vec![Term::var("D")],
            vec![Atom::env_fact("on_shift", vec![Term::var("D")])],
            vec![0],
        )
        .unwrap();
    records
        .define_role(
            "treating_doctor",
            &[("d", ValueType::Id), ("p", ValueType::Id)],
            false,
        )
        .unwrap();
    records
        .add_activation_rule(
            "treating_doctor",
            vec![Term::var("D"), Term::var("P")],
            vec![
                Atom::prereq("doctor_on_duty", vec![Term::var("D")]),
                Atom::env_fact("registered", vec![Term::var("D"), Term::var("P")]),
            ],
            vec![0, 1],
        )
        .unwrap();

    let ehr = national.create_service_with(ehr_config);
    ehr.set_validator(federation.validator_for("national-ehr"));
    national.facts().define("excluded", 2).unwrap();
    ehr.add_invocation_rule(
        "request_ehr",
        vec![Term::var("P")],
        vec![
            Atom::prereq_at(
                "st-marys.records",
                "treating_doctor",
                vec![Term::var("D"), Term::var("P")],
            ),
            Atom::env_not_fact("excluded", vec![Term::var("P"), Term::var("D")]),
        ],
    );

    federation.add_sla(Sla::between("national-ehr", "st-marys").accept(SlaClause {
        issuer: "st-marys.records".into(),
        name: "treating_doctor".into(),
        kind: CredentialKind::Rmc,
    }));

    World {
        hospital,
        national,
        records,
        ehr,
    }
}

fn treating_rmc(world: &World, doctor: &str, patient: &str) -> oasis_core::cert::Rmc {
    world
        .hospital
        .facts()
        .insert("on_shift", vec![Value::id(doctor)])
        .unwrap();
    world
        .hospital
        .facts()
        .insert("registered", vec![Value::id(doctor), Value::id(patient)])
        .unwrap();
    let dr = PrincipalId::new(doctor);
    let ctx = EnvContext::new(0);
    let duty = world
        .records
        .activate_role(
            &dr,
            &RoleName::new("doctor_on_duty"),
            &[Value::id(doctor)],
            &[],
            &ctx,
        )
        .unwrap();
    world
        .records
        .activate_role(
            &dr,
            &RoleName::new("treating_doctor"),
            &[Value::id(doctor), Value::id(patient)],
            &[Credential::Rmc(duty)],
            &ctx,
        )
        .unwrap()
}

#[test]
fn request_ehr_succeeds_under_sla_and_audits_originator() {
    let world = build();
    let rmc = treating_rmc(&world, "dr-jones", "pat-7");
    let dr = PrincipalId::new("dr-jones");

    let invocation = world
        .ehr
        .invoke(
            &dr,
            "request_ehr",
            &[Value::id("pat-7")],
            &[Credential::Rmc(rmc.clone())],
            &EnvContext::new(10),
        )
        .unwrap();
    assert_eq!(invocation.used, vec![rmc.crr.clone()]);
    // Fig 3: "the identity of the original requester can be recorded for
    // audit" — the audit entry carries the cross-domain credential.
    let audited = world.ehr.audit().entries_tagged("invoked");
    assert_eq!(audited.len(), 1);
    match &audited[0].kind {
        oasis_core::AuditKind::Invoked {
            credentials,
            principal,
            ..
        } => {
            assert_eq!(credentials, &vec![rmc.crr.clone()]);
            assert_eq!(principal, &dr);
        }
        other => panic!("wrong kind {other:?}"),
    }
}

#[test]
fn request_for_unrelated_patient_denied() {
    let world = build();
    let rmc = treating_rmc(&world, "dr-jones", "pat-7");
    let dr = PrincipalId::new("dr-jones");
    assert!(world
        .ehr
        .invoke(
            &dr,
            "request_ehr",
            &[Value::id("pat-8")],
            &[Credential::Rmc(rmc)],
            &EnvContext::new(10),
        )
        .is_err());
}

#[test]
fn patient_exclusion_enforced_at_national_service() {
    let world = build();
    let rmc = treating_rmc(&world, "dr-smith", "pat-9");
    world
        .national
        .facts()
        .insert("excluded", vec![Value::id("pat-9"), Value::id("dr-smith")])
        .unwrap();
    assert!(world
        .ehr
        .invoke(
            &PrincipalId::new("dr-smith"),
            "request_ehr",
            &[Value::id("pat-9")],
            &[Credential::Rmc(rmc)],
            &EnvContext::new(10),
        )
        .is_err());
}

#[test]
fn without_sla_the_same_request_is_refused() {
    // Build a parallel world with no SLA.
    let federation = Federation::new();
    let hospital = Domain::new("st-marys", federation.bus().clone());
    let national = Domain::new("national-ehr", federation.bus().clone());
    federation.register(&hospital);
    federation.register(&national);
    let records = hospital.create_service("st-marys.records");
    records
        .define_role("treating_doctor", &[("d", ValueType::Id)], true)
        .unwrap();
    records
        .add_activation_rule("treating_doctor", vec![Term::var("D")], vec![], vec![])
        .unwrap();
    let ehr = national.create_service("national-ehr.store");
    ehr.set_validator(federation.validator_for("national-ehr"));
    ehr.add_invocation_rule(
        "request_ehr",
        vec![],
        vec![Atom::prereq_at(
            "st-marys.records",
            "treating_doctor",
            vec![Term::Wildcard],
        )],
    );

    let dr = PrincipalId::new("dr");
    let rmc = records
        .activate_role(
            &dr,
            &RoleName::new("treating_doctor"),
            &[Value::id("dr")],
            &[],
            &EnvContext::new(0),
        )
        .unwrap();
    let err = ehr
        .invoke(
            &dr,
            "request_ehr",
            &[],
            &[Credential::Rmc(rmc)],
            &EnvContext::new(1),
        )
        .unwrap_err();
    assert!(matches!(err, OasisError::InvocationDenied { .. }));
    // The SLA refusal is visible in the audit as a rejected credential.
    assert_eq!(ehr.audit().entries_tagged("credential_rejected").len(), 1);
}

#[test]
fn ecr_cache_saves_callbacks_and_push_invalidates_across_domains() {
    // The national service keeps external credential records (Fig 5): its
    // validation cache, evicted by pushes on the federation's shared bus.
    let world =
        build_with(ServiceConfig::new("national-ehr.store").with_validation_cache(u64::MAX));
    let rmc = treating_rmc(&world, "dr-jones", "pat-7");
    let dr = PrincipalId::new("dr-jones");

    for t in 0..10 {
        world
            .ehr
            .invoke(
                &dr,
                "request_ehr",
                &[Value::id("pat-7")],
                &[Credential::Rmc(rmc.clone())],
                &EnvContext::new(10 + t),
            )
            .unwrap();
    }
    let stats = world.ehr.validation_cache_stats().unwrap();
    assert_eq!(stats.misses, 1, "only the first request called back");
    assert_eq!(stats.hits, 9);

    // Shift ends at the hospital: the fact retraction revokes the RMC
    // chain, the event crosses the domain boundary, and the cache entry
    // dies before the next request.
    world
        .hospital
        .facts()
        .retract("on_shift", &[Value::id("dr-jones")])
        .unwrap();
    assert!(world.ehr.validation_cache_stats().unwrap().invalidations >= 1);
    assert!(world
        .ehr
        .invoke(
            &dr,
            "request_ehr",
            &[Value::id("pat-7")],
            &[Credential::Rmc(rmc)],
            &EnvContext::new(50),
        )
        .is_err());
}
