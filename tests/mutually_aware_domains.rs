//! Integration: Sect. 5 — roving principals between mutually aware
//! domains (visiting doctor, reciprocal agreements, anonymity).

use oasis::prelude::*;
use oasis_core::CredentialKind;

struct World {
    federation: std::sync::Arc<Federation>,
    admin: std::sync::Arc<oasis_core::OasisService>,
    labs: std::sync::Arc<oasis_core::OasisService>,
}

fn build() -> World {
    let federation = Federation::new();
    let hospital = Domain::new("hospital", &federation);
    let institute = Domain::new("institute", &federation);

    let admin = hospital.create_service("hospital.admin");
    admin.set_validator(federation.validator_for("hospital"));
    hospital.facts().define("is_hr", 1).unwrap();
    admin
        .define_role("hr", &[("w", ValueType::Id)], true)
        .unwrap();
    admin
        .add_activation_rule(
            "hr",
            vec![Term::var("W")],
            vec![Atom::env_fact("is_hr", vec![Term::var("W")])],
            vec![],
        )
        .unwrap();
    admin.grant_appointer("hr", "employed_as_doctor").unwrap();

    let labs = institute.create_service("institute.labs");
    labs.set_validator(federation.validator_for("institute"));
    labs.define_role("visiting_doctor", &[("w", ValueType::Id)], true)
        .unwrap();
    labs.add_activation_rule(
        "visiting_doctor",
        vec![Term::var("W")],
        vec![Atom::appointment_from(
            "hospital.admin",
            "employed_as_doctor",
            vec![Term::var("W")],
        )],
        vec![0],
    )
    .unwrap();

    federation.add_sla(Sla::between("institute", "hospital").accept(SlaClause {
        issuer: "hospital.admin".into(),
        name: "employed_as_doctor".into(),
        kind: CredentialKind::Appointment,
    }));

    World {
        federation,
        admin,
        labs,
    }
}

fn employment(
    world: &World,
    doctor: &str,
    expires: Option<u64>,
) -> oasis_core::AppointmentCertificate {
    world
        .admin
        .facts()
        .insert("is_hr", vec![Value::id("hr-1")])
        .unwrap();
    let hr = PrincipalId::new("hr-1");
    let ctx = EnvContext::new(0);
    let hr_role = world
        .admin
        .activate_role(&hr, &RoleName::new("hr"), &[Value::id("hr-1")], &[], &ctx)
        .unwrap();
    world
        .admin
        .issue_appointment(
            &hr,
            &[Credential::Rmc(hr_role)],
            "employed_as_doctor",
            vec![Value::id(doctor)],
            &PrincipalId::new(doctor),
            expires,
            None,
            &ctx,
        )
        .unwrap()
}

#[test]
fn home_appointment_opens_visiting_role() {
    let world = build();
    let cert = employment(&world, "dr-j", None);
    let rmc = world
        .labs
        .activate_role(
            &PrincipalId::new("dr-j"),
            &RoleName::new("visiting_doctor"),
            &[Value::id("dr-j")],
            &[Credential::Appointment(cert)],
            &EnvContext::new(10),
        )
        .unwrap();
    assert_eq!(rmc.role.as_str(), "visiting_doctor");
}

#[test]
fn stolen_appointment_fails_at_the_away_domain() {
    let world = build();
    let cert = employment(&world, "dr-j", None);
    // Mallory presents dr-j's certificate with their own name in the
    // parameter slot: the variable in the rule unifies args with the
    // certificate, so the role would name dr-j — and the MAC check against
    // presenter "mallory" fails during validation anyway.
    let err = world
        .labs
        .activate_role(
            &PrincipalId::new("mallory"),
            &RoleName::new("visiting_doctor"),
            &[Value::id("mallory")],
            &[Credential::Appointment(cert)],
            &EnvContext::new(10),
        )
        .unwrap_err();
    assert!(matches!(err, OasisError::ActivationDenied { .. }));
    assert_eq!(
        world
            .labs
            .audit()
            .entries_tagged("credential_rejected")
            .len(),
        1
    );
}

#[test]
fn home_revocation_strips_visiting_role_across_domains() {
    let world = build();
    let cert = employment(&world, "dr-j", None);
    let dr = PrincipalId::new("dr-j");
    let rmc = world
        .labs
        .activate_role(
            &dr,
            &RoleName::new("visiting_doctor"),
            &[Value::id("dr-j")],
            &[Credential::Appointment(cert.clone())],
            &EnvContext::new(10),
        )
        .unwrap();
    assert!(world
        .labs
        .validate_own(&Credential::Rmc(rmc.clone()), &dr, 11)
        .is_ok());

    world
        .admin
        .revoke_certificate(cert.crr.cert_id, "employment terminated", 20);
    // The visiting RMC retained the appointment; the cross-domain event
    // collapsed it.
    let err = world
        .labs
        .validate_own(&Credential::Rmc(rmc), &dr, 21)
        .unwrap_err();
    assert!(err.to_string().contains("revoked"), "{err}");
}

#[test]
fn expired_appointment_cannot_reactivate_but_active_session_lapses_lazily() {
    let world = build();
    let cert = employment(&world, "dr-j", Some(100));
    let dr = PrincipalId::new("dr-j");
    world
        .labs
        .activate_role(
            &dr,
            &RoleName::new("visiting_doctor"),
            &[Value::id("dr-j")],
            &[Credential::Appointment(cert.clone())],
            &EnvContext::new(10),
        )
        .unwrap();

    // Past expiry: a *new* activation fails — and the failed validation
    // marks the certificate expired at the issuer, which cascades to the
    // visiting role issued earlier.
    let err = world
        .labs
        .activate_role(
            &dr,
            &RoleName::new("visiting_doctor"),
            &[Value::id("dr-j")],
            &[Credential::Appointment(cert.clone())],
            &EnvContext::new(101),
        )
        .unwrap_err();
    assert!(matches!(err, OasisError::ActivationDenied { .. }));
    let record = world.admin.record(cert.crr.cert_id).unwrap();
    assert!(matches!(
        record.status,
        oasis_core::CredStatus::Expired { .. }
    ));
}

#[test]
fn reciprocal_agreement_is_separate() {
    let world = build();
    // The institute→hospital direction was never agreed; an institute
    // credential presented at the hospital is refused.
    let labs_guest = {
        world.labs.define_role("researcher", &[], true).unwrap();
        world
            .labs
            .add_activation_rule("researcher", vec![], vec![], vec![])
            .unwrap();
        world
            .labs
            .activate_role(
                &PrincipalId::new("r-1"),
                &RoleName::new("researcher"),
                &[],
                &[],
                &EnvContext::new(0),
            )
            .unwrap()
    };
    world
        .admin
        .define_role("visiting_researcher", &[], true)
        .unwrap();
    world
        .admin
        .add_activation_rule(
            "visiting_researcher",
            vec![],
            vec![Atom::prereq_at("institute.labs", "researcher", vec![])],
            vec![],
        )
        .unwrap();
    let err = world
        .admin
        .activate_role(
            &PrincipalId::new("r-1"),
            &RoleName::new("visiting_researcher"),
            &[],
            &[Credential::Rmc(labs_guest.clone())],
            &EnvContext::new(1),
        )
        .unwrap_err();
    assert!(matches!(err, OasisError::ActivationDenied { .. }));

    // Sign the reciprocal agreement; now it works.
    world
        .federation
        .add_sla(Sla::between("hospital", "institute").accept(SlaClause {
            issuer: "institute.labs".into(),
            name: "researcher".into(),
            kind: CredentialKind::Rmc,
        }));
    assert!(world
        .admin
        .activate_role(
            &PrincipalId::new("r-1"),
            &RoleName::new("visiting_researcher"),
            &[],
            &[Credential::Rmc(labs_guest)],
            &EnvContext::new(2),
        )
        .is_ok());
}
