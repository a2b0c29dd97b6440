//! Sect. 5's anonymity scenario: anonymous genetic testing under an
//! insurance scheme.
//!
//! Run with `cargo run --example anonymous_clinic`.
//!
//! "Someone who has paid for medical insurance may take certain genetic
//! tests anonymously. The insurance company's membership database contains
//! the members' data; the genetic clinic has no access to this. The
//! insurance company must not know the results of the genetic test, or
//! even that it has taken place. The clinic, for accounting purposes,
//! must ensure that the test is authorised under the scheme."
//!
//! Mechanics: the member holds a computer-readable membership card — an
//! appointment certificate naming only the scheme and expiry date. At the
//! clinic they activate `paid_up_patient` under a **pseudonym**. This
//! works because the card is re-issued bound to the pseudonymous id the
//! member chooses for the clinic visit (the paper's session-specific
//! principal ids, Sect. 4.1): the insurer can verify its own signature
//! without learning where the card was presented, and the clinic never
//! learns the real identity.

use oasis::prelude::*;
use oasis_core::CredentialKind;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let federation = Federation::new();
    let insurer = Domain::new("mutual-life", &federation);
    let clinic = Domain::new("helix-clinic", &federation);

    // --- The insurance company -------------------------------------------
    let membership = insurer.create_service("mutual-life.membership");
    membership.set_validator(federation.validator_for("mutual-life"));
    insurer.facts().define("premiums_paid", 1)?;

    membership.define_role("membership_clerk", &[], true)?;
    membership.add_activation_rule("membership_clerk", vec![], vec![], vec![])?;
    membership.grant_appointer("membership_clerk", "scheme_member")?;

    // --- The clinic ---------------------------------------------------------
    let testing = clinic.create_service("helix-clinic.testing");
    testing.set_validator(federation.validator_for("helix-clinic"));

    testing.define_role("paid_up_patient", &[], true)?;
    // Activation rule: the membership card plus the environmental
    // constraint that the test starts before the expiry date. No identity
    // parameter appears anywhere.
    testing.add_activation_rule(
        "paid_up_patient",
        vec![],
        vec![
            Atom::appointment_from(
                "mutual-life.membership",
                "scheme_member",
                vec![
                    Term::val(Value::id("gene-test-scheme")),
                    Term::var("Expiry"),
                ],
            ),
            Atom::compare(Term::var("$now"), CmpOp::Lt, Term::var("Expiry")),
        ],
        vec![],
    )?;
    testing.add_invocation_rule(
        "run_genetic_test",
        vec![],
        vec![Atom::prereq("paid_up_patient", vec![])],
    );

    federation.add_sla(
        Sla::between("helix-clinic", "mutual-life").accept(SlaClause {
            issuer: "mutual-life.membership".into(),
            name: "scheme_member".into(),
            kind: CredentialKind::Appointment,
        }),
    );

    // --- The story ------------------------------------------------------------
    let clerk = PrincipalId::new("clerk-5");
    let ctx = EnvContext::new(0);
    let clerk_role =
        membership.activate_role(&clerk, &RoleName::new("membership_clerk"), &[], &[], &ctx)?;

    // The member pays premiums under their real identity, but asks for the
    // card to be bound to a pseudonym of their choosing — the insurer
    // learns nothing from seeing the pseudonym later, and never does.
    let pseudonym = PrincipalId::new("patient-a81f");
    let card = membership.issue_appointment(
        &clerk,
        &[Credential::Rmc(clerk_role)],
        "scheme_member",
        vec![Value::id("gene-test-scheme"), Value::Time(1_000)],
        &pseudonym,
        Some(1_000),
        None,
        &ctx,
    )?;
    println!("membership card issued to pseudonym: {card}");

    // At the clinic: the card is validated at the issuing service (the
    // trusted third party) before role activation proceeds — the insurer
    // sees a validation callback for an opaque pseudonym, not a test.
    let patient_role = testing.activate_role(
        &pseudonym,
        &RoleName::new("paid_up_patient"),
        &[],
        &[Credential::Appointment(card.clone())],
        &EnvContext::new(100),
    )?;
    testing.invoke(
        &pseudonym,
        "run_genetic_test",
        &[],
        &[Credential::Rmc(patient_role)],
        &EnvContext::new(100),
    )?;
    println!("test authorised and run — clinic knows only `{pseudonym}`");

    // The clinic's books show an authorised test; nothing identifies the
    // member, and the insurer's audit shows only a card issuance.
    println!("\nclinic audit:");
    for entry in testing.audit().entries() {
        println!("  {entry}");
    }
    println!("insurer audit:");
    for entry in membership.audit().entries() {
        println!("  {entry}");
    }

    // After the scheme lapses the card stops working (environmental
    // constraint on the activation rule).
    let lapsed = testing.activate_role(
        &pseudonym,
        &RoleName::new("paid_up_patient"),
        &[],
        &[Credential::Appointment(card)],
        &EnvContext::new(2_000),
    );
    println!("\nafter expiry: {}", lapsed.unwrap_err());
    Ok(())
}
