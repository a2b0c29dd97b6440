//! Sect. 5: OASIS for multiple, mutually-aware domains.
//!
//! Run with `cargo run --example visiting_doctor`.
//!
//! "A doctor employed in a hospital may need to work for a short time in
//! a research institute … the home domain's administrative service will
//! issue an appointment certificate to the doctor. This will serve as a
//! credential for entering the role `visiting_doctor` in the research
//! institute … The research institute would check the validity of the
//! appointment certificate during role activation by callback to the
//! hospital."
//!
//! Also shown: the group-membership scenario (any paid-up member of one
//! organisation may use the other — the Tate galleries analogy), where
//! the certificate deliberately carries **no personal identity fields**.

use oasis::prelude::*;
use oasis_core::CredentialKind;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let federation = Federation::new();
    let hospital = Domain::new("st-marys", &federation);
    let institute = Domain::new("crick-institute", &federation);

    // --- Home domain: the hospital's administrative service -----------------
    let admin = hospital.create_service("st-marys.admin");
    admin.set_validator(federation.validator_for("st-marys"));
    hospital.facts().define("hr_verified_md", 1)?;

    admin.define_role("hr_officer", &[("who", ValueType::Id)], true)?;
    admin.add_activation_rule(
        "hr_officer",
        vec![Term::var("W")],
        vec![Atom::env_fact("hr_verified_md", vec![Term::var("W")])],
        vec![],
    )?;
    // HR officers certify medical employment; the certificate is issued
    // "only to members of staff who can prove that they are academically
    // and professionally qualified in medicine" — modelled by the HR fact.
    admin.grant_appointer("hr_officer", "employed_as_doctor")?;

    // --- Away domain: the research institute -------------------------------
    let labs = institute.create_service("crick-institute.labs");
    labs.set_validator(federation.validator_for("crick-institute"));

    labs.define_role("guest", &[("who", ValueType::Id)], true)?;
    labs.add_activation_rule("guest", vec![Term::var("W")], vec![], vec![])?;
    labs.define_role("visiting_doctor", &[("who", ValueType::Id)], true)?;
    // The activation rule established by the SLA: the home appointment
    // certificate proves medical qualification.
    labs.add_activation_rule(
        "visiting_doctor",
        vec![Term::var("W")],
        vec![Atom::appointment_from(
            "st-marys.admin",
            "employed_as_doctor",
            vec![Term::var("W"), Term::val(Value::id("st-marys"))],
        )],
        vec![0], // revoking employment at home strips the visiting role
    )?;
    labs.add_invocation_rule(
        "use_sequencer",
        vec![],
        vec![Atom::prereq("visiting_doctor", vec![Term::Wildcard])],
    );

    // The reciprocal SLA clause (hospital ↔ institute agreement).
    federation.add_sla(
        Sla::between("crick-institute", "st-marys").accept(SlaClause {
            issuer: "st-marys.admin".into(),
            name: "employed_as_doctor".into(),
            kind: CredentialKind::Appointment,
        }),
    );

    // --- The story -----------------------------------------------------------
    hospital
        .facts()
        .insert("hr_verified_md", vec![Value::id("hr-1")])?;
    let hr = PrincipalId::new("hr-1");
    let dr = PrincipalId::new("dr-jones");
    let ctx = EnvContext::new(0);

    let hr_role = admin.activate_role(
        &hr,
        &RoleName::new("hr_officer"),
        &[Value::id("hr-1")],
        &[],
        &ctx,
    )?;
    let employment = admin.issue_appointment(
        &hr,
        &[Credential::Rmc(hr_role)],
        "employed_as_doctor",
        vec![Value::id("dr-jones"), Value::id("st-marys")],
        &dr,
        Some(10_000), // contract end date
        None,
        &ctx,
    )?;
    println!("home domain issued {employment}");

    // The doctor arrives at the institute and enters the visiting role; the
    // institute validates the certificate by callback to the hospital.
    let visiting = labs.activate_role(
        &dr,
        &RoleName::new("visiting_doctor"),
        &[Value::id("dr-jones")],
        &[Credential::Appointment(employment.clone())],
        &ctx,
    )?;
    println!("institute granted {visiting}");
    labs.invoke(
        &dr,
        "use_sequencer",
        &[],
        &[Credential::Rmc(visiting.clone())],
        &ctx,
    )?;
    println!("sequencer time booked");

    // A chancer with no home appointment gets only the guest role.
    let stranger = PrincipalId::new("somebody");
    let guest_only = labs.activate_role(
        &stranger,
        &RoleName::new("visiting_doctor"),
        &[Value::id("somebody")],
        &[],
        &ctx,
    );
    println!("stranger: {}", guest_only.unwrap_err());
    let guest = labs.activate_role(
        &stranger,
        &RoleName::new("guest"),
        &[Value::id("somebody")],
        &[],
        &ctx,
    )?;
    println!("stranger gets {guest}");

    // The hospital terminates the employment: the appointment is revoked at
    // the issuer, and the visiting role — whose membership rule retained
    // it — collapses across the domain boundary, immediately.
    admin.revoke_certificate(employment.crr.cert_id, "employment ended", 50);
    let after = labs.invoke(
        &dr,
        "use_sequencer",
        &[],
        &[Credential::Rmc(visiting)],
        &EnvContext::new(51),
    );
    println!("after employment ends: {}", after.unwrap_err());

    // --- Group membership, anonymously ------------------------------------
    // "The identity of the principal is not needed if proof of membership
    // is securely provable." The membership card certificate names the
    // organisation and period only.
    let tate_london = Domain::new("tate-london", &federation);
    let tate_stives = Domain::new("tate-st-ives", &federation);

    let london_desk = tate_london.create_service("tate-london.desk");
    london_desk.set_validator(federation.validator_for("tate-london"));
    let stives_desk = tate_stives.create_service("tate-st-ives.desk");
    stives_desk.set_validator(federation.validator_for("tate-st-ives"));

    london_desk.define_role("registrar", &[], true)?;
    london_desk.add_activation_rule("registrar", vec![], vec![], vec![])?;
    london_desk.grant_appointer("registrar", "friend_of_the_tate")?;

    stives_desk.define_role("friend", &[], true)?;
    stives_desk.add_activation_rule(
        "friend",
        vec![],
        vec![
            Atom::appointment_from(
                "tate-london.desk",
                "friend_of_the_tate",
                // organisation and membership period — no personal details
                vec![Term::val(Value::id("tate")), Term::var("Expiry")],
            ),
            Atom::compare(Term::var("$now"), CmpOp::Le, Term::var("Expiry")),
        ],
        vec![],
    )?;
    federation.add_sla(
        Sla::between("tate-st-ives", "tate-london").accept(SlaClause {
            issuer: "tate-london.desk".into(),
            name: "friend_of_the_tate".into(),
            kind: CredentialKind::Appointment,
        }),
    );

    let registrar = PrincipalId::new("registrar-1");
    let member = PrincipalId::new("art-lover-77");
    let reg_role =
        london_desk.activate_role(&registrar, &RoleName::new("registrar"), &[], &[], &ctx)?;
    let card = london_desk.issue_appointment(
        &registrar,
        &[Credential::Rmc(reg_role)],
        "friend_of_the_tate",
        vec![Value::id("tate"), Value::Time(500)],
        &member,
        Some(500),
        None,
        &ctx,
    )?;
    let friend = stives_desk.activate_role(
        &member,
        &RoleName::new("friend"),
        &[],
        &[Credential::Appointment(card.clone())],
        &EnvContext::new(100),
    )?;
    println!("\nfriend admitted at St Ives on a London card: {friend}");
    let lapsed = stives_desk.activate_role(
        &member,
        &RoleName::new("friend"),
        &[],
        &[Credential::Appointment(card)],
        &EnvContext::new(501),
    );
    println!("after membership lapses: {}", lapsed.unwrap_err());
    Ok(())
}
