//! Durable crash recovery, end to end: a hospital service journals
//! every security event, crashes with a torn final write, misses a
//! revocation published while it is down, and must — before granting
//! anything new — rebuild its state from the journal, catch up on the
//! missed revocation from the issuer's retained ring, collapse the
//! dependent role, and evict the stale validation cache entry.
//!
//! Deterministic per `CHAOS_SEED` (default 42): the seed sizes the torn
//! tail garbage. The run writes a JSONL trace to
//! `target/chaos/durable-trace-<seed>.jsonl` for post-mortem
//! inspection; CI uploads it when the job fails.

use std::sync::Arc;

use oasis::store::MemBackend;
use oasis_core::{
    Atom, CredStatus, Credential, EnvContext, LocalRegistry, OasisService, PrincipalId, RoleName,
    ServiceConfig, ServiceJournal, Term, Value, ValueType,
};
use oasis_events::EventBus;
use oasis_facts::FactStore;

fn alice() -> PrincipalId {
    PrincipalId::new("alice")
}

fn chaos_seed() -> u64 {
    std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

/// The login issuer on `bus`, retaining its revocation topic so that
/// crashed subscribers can resync the gap.
fn login_service(bus: &EventBus<oasis_core::CertEvent>) -> Arc<OasisService> {
    let facts = Arc::new(FactStore::new());
    facts.define("password_ok", 1).unwrap();
    facts
        .insert("password_ok", vec![Value::id("alice")])
        .unwrap();
    let svc = OasisService::new(
        ServiceConfig::new("login")
            .with_bus(bus.clone())
            .with_revocation_retention(128),
        facts,
    );
    svc.define_role("logged_in", &[("user", ValueType::Id)], true)
        .unwrap();
    svc.add_activation_rule(
        "logged_in",
        vec![Term::var("U")],
        vec![Atom::env_fact("password_ok", vec![Term::var("U")])],
        vec![],
    )
    .unwrap();
    svc
}

/// A hospital instance over the given journal backends — the "process"
/// we crash and restart. Policy is reinstalled on every start (policy
/// is configuration, not journalled state).
fn hospital_service(
    bus: &EventBus<oasis_core::CertEvent>,
    login: &Arc<OasisService>,
    journal: &MemBackend,
    snapshot: &MemBackend,
) -> Arc<OasisService> {
    let store =
        ServiceJournal::open(Arc::new(journal.clone()), Arc::new(snapshot.clone())).unwrap();
    let svc = OasisService::new(
        ServiceConfig::new("hospital")
            .with_bus(bus.clone())
            .with_validation_cache(1_000)
            .with_journal(store),
        Arc::new(FactStore::new()),
    );
    let registry = Arc::new(LocalRegistry::new());
    registry.register(login);
    svc.set_validator(registry);
    svc.define_role("doctor_on_duty", &[("doctor", ValueType::Id)], false)
        .unwrap();
    svc.add_activation_rule(
        "doctor_on_duty",
        vec![Term::var("D")],
        vec![Atom::prereq_at("login", "logged_in", vec![Term::var("D")])],
        vec![0],
    )
    .unwrap();
    svc
}

#[test]
fn crash_revocation_while_down_recover_catch_up() {
    let seed = chaos_seed();
    let mut trace: Vec<String> = Vec::new();
    let mut log = |tick: u64, event: &str| {
        trace.push(format!("{{\"tick\":{tick},\"event\":\"{event}\"}}"));
    };

    // One shared bus: the paper's event middleware. The issuer's
    // retained ring lives here and survives the hospital's crash.
    let bus: EventBus<oasis_core::CertEvent> = EventBus::new();
    let login = login_service(&bus);
    let journal = MemBackend::new();
    let snapshot = MemBackend::new();

    // --- Phase 1 (healthy): build up state, then crash ----------------
    let login_rmc = login
        .activate_role(
            &alice(),
            &RoleName::new("logged_in"),
            &[Value::id("alice")],
            &[],
            &EnvContext::new(1),
        )
        .unwrap();
    let doctor_crr;
    {
        let hospital = hospital_service(&bus, &login, &journal, &snapshot);
        doctor_crr = hospital
            .activate_role(
                &alice(),
                &RoleName::new("doctor_on_duty"),
                &[Value::id("alice")],
                &[Credential::Rmc(login_rmc.clone())],
                &EnvContext::new(2),
            )
            .unwrap()
            .crr;
        // Warm the validation cache so recovery has something to evict.
        hospital
            .validate_credential(&Credential::Rmc(login_rmc.clone()), &alice(), 3)
            .unwrap();
        log(
            3,
            "hospital granted doctor_on_duty and cached the validation",
        );
        // Crash: the instance drops here. Volatile state — records,
        // cache, the bus subscription — is gone; the journal survives.
    }

    // The crash tears the journal's final write: seed-sized garbage past
    // the last good frame models an append that never completed framing.
    let bytes = seed % 24 + 1;
    journal.append_garbage(&vec![0xA5u8; bytes as usize]);
    log(
        4,
        &format!("crash tore the journal tail ({bytes} garbage bytes)"),
    );

    // --- Phase 2 (down): the login session ends ------------------------
    // Nobody is subscribed; only the retained ring hears this.
    assert!(login.revoke_certificate(login_rmc.crr.cert_id, "compromised", 5));
    log(5, "login credential revoked while the hospital is down");

    // --- Phase 3 (restart): recover, catch up, only then grant ---------
    let hospital = hospital_service(&bus, &login, &journal, &snapshot);
    assert_eq!(hospital.record_stats(), (0, 0, 0), "fresh process is empty");
    let report = hospital.recover(6).unwrap();
    assert!(
        report.torn_tail_bytes > 0,
        "the torn tail was detected and healed"
    );
    assert_eq!(report.records_restored, 1, "the doctor record came back");
    assert_eq!(report.validations_restored, 1, "the cache entry came back");
    assert!(report.catchup_required);
    assert!(hospital.catchup_pending());
    log(6, "recovered from journal; catch-up pending");

    // Restored state still predates the revocation: the doctor record
    // is active and the cache holds the now-stale validation. While
    // catch-up is pending the cache must not answer on its own — the
    // issuer callback is consulted, and the live issuer says revoked.
    assert!(hospital
        .record(doctor_crr.cert_id)
        .unwrap()
        .status
        .is_active());
    assert!(
        hospital
            .validate_credential(&Credential::Rmc(login_rmc.clone()), &alice(), 7)
            .is_err(),
        "suspect cache must not serve a revoked credential"
    );
    log(
        7,
        "suspect cache bypassed; live issuer refused the credential",
    );

    // Catch up on the gap from the issuer's retained ring: the missed
    // revocation applies, collapsing the dependent doctor role and
    // evicting the cached validation — all before any new grant.
    let catchup = hospital.catch_up(&bus, "cred.revoked.login", 8);
    assert!(catchup.complete, "the ring retained the whole gap");
    assert_eq!(catchup.applied, 1);
    assert!(!hospital.catchup_pending());
    assert!(
        matches!(
            hospital.record(doctor_crr.cert_id).unwrap().status,
            CredStatus::Revoked { .. }
        ),
        "the dependent doctor role collapsed"
    );
    log(
        8,
        "catch-up applied the missed revocation; doctor collapsed",
    );

    // Only now does the first new grant happen — against fresh
    // authority, never on top of the stale pre-crash state.
    let fresh_login = login
        .activate_role(
            &alice(),
            &RoleName::new("logged_in"),
            &[Value::id("alice")],
            &[],
            &EnvContext::new(9),
        )
        .unwrap();
    let fresh_doctor = hospital
        .activate_role(
            &alice(),
            &RoleName::new("doctor_on_duty"),
            &[Value::id("alice")],
            &[Credential::Rmc(fresh_login)],
            &EnvContext::new(9),
        )
        .unwrap();
    assert!(
        fresh_doctor.crr.cert_id.0 > doctor_crr.cert_id.0,
        "recovered id space never collides"
    );
    log(9, "first new grant issued after catch-up");

    // Live delivery works again on the restarted subscription: a fresh
    // revocation cascades immediately, no catch-up involved.
    assert!(login.revoke_certificate(
        hospital.dependencies(fresh_doctor.crr.cert_id).unwrap()[0].cert_id,
        "logout",
        10
    ));
    assert!(matches!(
        hospital.record(fresh_doctor.crr.cert_id).unwrap().status,
        CredStatus::Revoked { .. }
    ));
    log(10, "live cascade works after recovery");

    // Resolved at run time: a copy of the tree that reuses a copied
    // `target/` writes under itself.
    let dir = std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(
            || env!("CARGO_MANIFEST_DIR").into(),
            std::path::PathBuf::from,
        )
        .join("../../target/chaos");
    if std::fs::create_dir_all(&dir).is_ok() {
        let _ = std::fs::write(
            dir.join(format!("durable-trace-{seed}.jsonl")),
            trace.join("\n") + "\n",
        );
    }
}

#[test]
fn recovery_is_deterministic_per_seed() {
    // Two cold starts from byte-identical journals must rebuild
    // byte-identical state.
    let bus: EventBus<oasis_core::CertEvent> = EventBus::new();
    let login = login_service(&bus);
    let journal = MemBackend::new();
    let snapshot = MemBackend::new();
    let login_rmc = login
        .activate_role(
            &alice(),
            &RoleName::new("logged_in"),
            &[Value::id("alice")],
            &[],
            &EnvContext::new(1),
        )
        .unwrap();
    {
        let hospital = hospital_service(&bus, &login, &journal, &snapshot);
        for _ in 0..5 {
            hospital
                .activate_role(
                    &alice(),
                    &RoleName::new("doctor_on_duty"),
                    &[Value::id("alice")],
                    &[Credential::Rmc(login_rmc.clone())],
                    &EnvContext::new(2),
                )
                .unwrap();
        }
    }
    let a = hospital_service(&bus, &login, &journal, &snapshot);
    let b = hospital_service(&bus, &login, &journal, &snapshot);
    let ra = a.recover(3).unwrap();
    let rb = b.recover(3).unwrap();
    assert_eq!(ra, rb);
    assert_eq!(a.record_stats(), b.record_stats());
    assert_eq!(a.watermarks(), b.watermarks());
}
