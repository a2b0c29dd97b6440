//! Fig 3 of the paper: an OASIS session with cross-domain calls.
//!
//! Run with `cargo run --example ehr_cross_domain`.
//!
//! A doctor active in the parametrised role
//! `treating_doctor(doctor_id, patient_id)` at her hospital asks the
//! hospital's EHR service for components of a patient's electronic health
//! record. The hospital EHR service invokes the *national* EHR service in
//! another domain (path 1), which validates the hospital's credentials
//! under a service-level agreement, records the originating doctor for
//! audit, checks the patient has not excluded this doctor, and returns the
//! record (path 2). The treatment note is then appended, audited, through
//! the same path (paths 3–4).

use oasis::prelude::*;
use oasis_core::CredentialKind;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- Two domains on a federated event fabric -------------------------
    let federation = Federation::new();
    let hospital = Domain::new("st-marys", &federation);
    let national = Domain::new("national-ehr", &federation);

    // --- The hospital domain ---------------------------------------------
    let records = hospital.create_service("st-marys.records");
    records.set_validator(federation.validator_for("st-marys"));
    hospital.facts().define("on_shift", 1)?;
    hospital.facts().define("registered", 2)?;

    records.define_role("doctor_on_duty", &[("doctor", ValueType::Id)], true)?;
    records.add_activation_rule(
        "doctor_on_duty",
        vec![Term::var("D")],
        vec![Atom::env_fact("on_shift", vec![Term::var("D")])],
        vec![0],
    )?;
    records.define_role(
        "treating_doctor",
        &[("doctor", ValueType::Id), ("patient", ValueType::Id)],
        false,
    )?;
    records.add_activation_rule(
        "treating_doctor",
        vec![Term::var("D"), Term::var("P")],
        vec![
            Atom::prereq("doctor_on_duty", vec![Term::var("D")]),
            Atom::env_fact("registered", vec![Term::var("D"), Term::var("P")]),
        ],
        vec![0, 1],
    )?;

    // --- The national domain ----------------------------------------------
    let ehr = national.create_service("national-ehr.store");
    ehr.set_validator(federation.validator_for("national-ehr"));
    national.facts().define("excluded", 2)?;

    // request-EHR(hospital_certificate, treating_doctor_certificate):
    // the treating_doctor RMC from the hospital domain is the credential;
    // its doctor/patient parameters feed the exclusion check, exactly as
    // Fig 3 annotates the call.
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
    ehr.add_invocation_rule(
        "append_to_ehr",
        vec![Term::var("P")],
        vec![Atom::prereq_at(
            "st-marys.records",
            "treating_doctor",
            vec![Term::var("D"), Term::var("P")],
        )],
    );

    // --- The service-level agreement ---------------------------------------
    // Without this clause the national service refuses the hospital RMC.
    federation.add_sla(Sla::between("national-ehr", "st-marys").accept(SlaClause {
        issuer: "st-marys.records".into(),
        name: "treating_doctor".into(),
        kind: CredentialKind::Rmc,
    }));

    // --- The session ---------------------------------------------------------
    hospital
        .facts()
        .insert("on_shift", vec![Value::id("dr-jones")])?;
    hospital.facts().insert(
        "registered",
        vec![Value::id("dr-jones"), Value::id("pat-7")],
    )?;

    let dr = PrincipalId::new("dr-jones");
    let ctx = EnvContext::new(100);

    let duty = records.activate_role(
        &dr,
        &RoleName::new("doctor_on_duty"),
        &[Value::id("dr-jones")],
        &[],
        &ctx,
    )?;
    let treating = records.activate_role(
        &dr,
        &RoleName::new("treating_doctor"),
        &[Value::id("dr-jones"), Value::id("pat-7")],
        &[Credential::Rmc(duty)],
        &ctx,
    )?;
    println!("hospital issued {treating}");

    // Path 1–2: request-EHR across the domain boundary.
    let fetched = ehr.invoke(
        &dr,
        "request_ehr",
        &[Value::id("pat-7")],
        &[Credential::Rmc(treating.clone())],
        &ctx,
    )?;
    println!(
        "national EHR returned record for pat-7; audit captured credentials {:?}",
        fetched.used
    );

    // Path 3–4: append the treatment record.
    ehr.invoke(
        &dr,
        "append_to_ehr",
        &[Value::id("pat-7")],
        &[Credential::Rmc(treating.clone())],
        &ctx,
    )?;
    println!("treatment note appended");

    // The patient exercises the Patients' Charter and excludes this doctor;
    // the next request is refused even though the RMC is still valid.
    national
        .facts()
        .insert("excluded", vec![Value::id("pat-7"), Value::id("dr-jones")])?;
    let refused = ehr.invoke(
        &dr,
        "request_ehr",
        &[Value::id("pat-7")],
        &[Credential::Rmc(treating.clone())],
        &ctx,
    );
    println!("after exclusion: {}", refused.unwrap_err());

    // End of shift back home: the hospital retracts on_shift, the RMC chain
    // collapses, and — through the shared event fabric — the national
    // domain's services learn of the revocation too.
    hospital
        .facts()
        .retract("on_shift", &[Value::id("dr-jones")])?;
    let stale = ehr.invoke(
        &dr,
        "append_to_ehr",
        &[Value::id("pat-7")],
        &[Credential::Rmc(treating)],
        &ctx,
    );
    println!("after shift end: {}", stale.unwrap_err());

    println!("\nnational EHR audit trail (notice the cross-domain credentials):");
    for entry in ehr.audit().entries() {
        println!("  {entry}");
    }
    Ok(())
}
