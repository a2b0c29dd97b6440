//! Integration: a multi-domain healthcare world configured entirely from
//! one policy document, then exercised end-to-end — the "formal
//! expression of policy and its automatic deployment" of Sect. 1.

use std::sync::Arc;

use oasis::prelude::*;
use oasis_core::CredentialKind;

const WORLD_POLICY: &str = r#"
# Hospital domain --------------------------------------------------------
service hospital.login {
  initial role logged_in(user: id);
  rule logged_in(U) <- env password_ok(U);
}

service hospital.records {
  role doctor_on_duty(doctor: id);
  role treating_doctor(doctor: id, patient: id);
  appointment assigned(doctor: id, patient: id);
  appointer doctor_on_duty may issue assigned;

  rule doctor_on_duty(D) <- prereq hospital.login::logged_in(D);

  rule treating_doctor(D, P) <-
      prereq doctor_on_duty(D),
      appointment assigned(D, P),
      env not excluded(P, D);

  invoke read_record(P) <- prereq treating_doctor(_, P);
  invoke write_record(P) <- prereq treating_doctor(_, P), env $now < @10000;
}

# National EHR domain ----------------------------------------------------
service national.ehr {
  invoke request_ehr(P) <-
      prereq hospital.records::treating_doctor(D, P),
      env not nationally_excluded(P, D);
}
"#;

struct World {
    login: Arc<oasis_core::OasisService>,
    records: Arc<oasis_core::OasisService>,
    ehr: Arc<oasis_core::OasisService>,
    hospital: Arc<Domain>,
    national: Arc<Domain>,
}

fn build() -> World {
    let policy = Policy::parse(WORLD_POLICY).expect("policy parses and checks");

    let federation = Federation::new();
    let hospital = Domain::new("hospital", &federation);
    let national = Domain::new("national", &federation);

    let login = hospital.create_service("hospital.login");
    let records = hospital.create_service("hospital.records");
    let ehr = national.create_service("national.ehr");
    for (domain, svc) in [
        ("hospital", &login),
        ("hospital", &records),
        ("national", &ehr),
    ] {
        policy.apply_to(svc).expect("policy applies");
        svc.set_validator(federation.validator_for(domain));
    }

    federation.add_sla(Sla::between("national", "hospital").accept(SlaClause {
        issuer: "hospital.records".into(),
        name: "treating_doctor".into(),
        kind: CredentialKind::Rmc,
    }));

    World {
        login,
        records,
        ehr,
        hospital,
        national,
    }
}

fn run_session(world: &World) -> (PrincipalId, oasis_core::cert::Rmc) {
    world
        .hospital
        .facts()
        .insert("password_ok", vec![Value::id("dr-a")])
        .unwrap();
    let dr = PrincipalId::new("dr-a");
    let ctx = EnvContext::new(100);
    let login = world
        .login
        .activate_role(
            &dr,
            &RoleName::new("logged_in"),
            &[Value::id("dr-a")],
            &[],
            &ctx,
        )
        .unwrap();
    let duty = world
        .records
        .activate_role(
            &dr,
            &RoleName::new("doctor_on_duty"),
            &[Value::id("dr-a")],
            &[Credential::Rmc(login)],
            &ctx,
        )
        .unwrap();
    let assignment = world
        .records
        .issue_appointment(
            &dr,
            &[Credential::Rmc(duty.clone())],
            "assigned",
            vec![Value::id("dr-a"), Value::id("p-1")],
            &dr,
            None,
            None,
            &ctx,
        )
        .unwrap();
    let treating = world
        .records
        .activate_role(
            &dr,
            &RoleName::new("treating_doctor"),
            &[Value::id("dr-a"), Value::id("p-1")],
            &[Credential::Rmc(duty), Credential::Appointment(assignment)],
            &ctx,
        )
        .unwrap();
    (dr, treating)
}

#[test]
fn policy_file_drives_the_full_scenario() {
    let world = build();
    let (dr, treating) = run_session(&world);
    let ctx = EnvContext::new(200);

    // Local invocation via policy-defined rule.
    world
        .records
        .invoke(
            &dr,
            "read_record",
            &[Value::id("p-1")],
            &[Credential::Rmc(treating.clone())],
            &ctx,
        )
        .unwrap();
    // Cross-domain invocation under the SLA.
    world
        .ehr
        .invoke(
            &dr,
            "request_ehr",
            &[Value::id("p-1")],
            &[Credential::Rmc(treating.clone())],
            &ctx,
        )
        .unwrap();
    // The time-window constraint in write_record applies.
    world
        .records
        .invoke(
            &dr,
            "write_record",
            &[Value::id("p-1")],
            &[Credential::Rmc(treating.clone())],
            &ctx,
        )
        .unwrap();
    assert!(world
        .records
        .invoke(
            &dr,
            "write_record",
            &[Value::id("p-1")],
            &[Credential::Rmc(treating)],
            &EnvContext::new(10_000),
        )
        .is_err());
}

#[test]
fn policy_declared_relations_back_dynamic_exceptions() {
    let world = build();
    let (dr, treating) = run_session(&world);
    // `excluded` was declared by the compiler from the policy text; the
    // default membership (retain all) means inserting the exclusion fact
    // revokes the role immediately.
    world
        .hospital
        .facts()
        .insert("excluded", vec![Value::id("p-1"), Value::id("dr-a")])
        .unwrap();
    assert!(world
        .records
        .invoke(
            &dr,
            "read_record",
            &[Value::id("p-1")],
            &[Credential::Rmc(treating)],
            &EnvContext::new(300),
        )
        .is_err());
}

#[test]
fn national_exclusion_is_independent_of_hospital_state() {
    let world = build();
    let (dr, treating) = run_session(&world);
    world
        .national
        .facts()
        .insert(
            "nationally_excluded",
            vec![Value::id("p-1"), Value::id("dr-a")],
        )
        .unwrap();
    // The national service refuses…
    assert!(world
        .ehr
        .invoke(
            &dr,
            "request_ehr",
            &[Value::id("p-1")],
            &[Credential::Rmc(treating.clone())],
            &EnvContext::new(300),
        )
        .is_err());
    // …while the hospital still allows.
    assert!(world
        .records
        .invoke(
            &dr,
            "read_record",
            &[Value::id("p-1")],
            &[Credential::Rmc(treating)],
            &EnvContext::new(300),
        )
        .is_ok());
}

#[test]
fn printed_policy_builds_an_equivalent_world() {
    // Deploy from the pretty-printed round trip and run the same session.
    let printed = Policy::parse(WORLD_POLICY).unwrap().to_text();
    let policy = Policy::parse(&printed).unwrap();

    let federation = Federation::new();
    let hospital = Domain::new("hospital", &federation);
    let login = hospital.create_service("hospital.login");
    policy.apply_to(&login).unwrap();
    hospital
        .facts()
        .insert("password_ok", vec![Value::id("dr-b")])
        .unwrap();
    assert!(login
        .activate_role(
            &PrincipalId::new("dr-b"),
            &RoleName::new("logged_in"),
            &[Value::id("dr-b")],
            &[],
            &EnvContext::new(0),
        )
        .is_ok());
}
