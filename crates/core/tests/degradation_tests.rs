//! Behavioural tests of the failure-aware validation layer: heartbeat
//! health driving cache trust, fail-safe refusal of suspect entries,
//! grace-period deactivation, and issuer recovery.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use oasis_core::cert::Rmc;
use oasis_core::{
    Atom, Credential, CredentialValidator, EnvContext, LocalRegistry, OasisError, OasisService,
    PrincipalId, RoleName, ServiceConfig, ServiceId, Term, Value, ValueType,
};
use oasis_events::SourceHealth;
use oasis_facts::FactStore;

/// A validator that answers through the registry while "up" and times out
/// while "down" — the unreachable-issuer switch for these tests.
struct GatedValidator {
    inner: Arc<LocalRegistry>,
    up: AtomicBool,
}

impl GatedValidator {
    fn set_up(&self, up: bool) {
        self.up.store(up, Ordering::SeqCst);
    }
}

impl CredentialValidator for GatedValidator {
    fn validate(
        &self,
        credential: &Credential,
        presenter: &PrincipalId,
        now: u64,
    ) -> Result<(), OasisError> {
        if self.up.load(Ordering::SeqCst) {
            self.inner.validate(credential, presenter, now)
        } else {
            Err(OasisError::IssuerTimeout(credential.issuer().clone()))
        }
    }
}

fn alice() -> PrincipalId {
    PrincipalId::new("alice")
}

fn login_id() -> ServiceId {
    ServiceId::new("login")
}

struct World {
    login: Arc<OasisService>,
    hospital: Arc<OasisService>,
    gate: Arc<GatedValidator>,
    login_rmc: Rmc,
}

/// A login issuer and a failure-aware hospital watching it every
/// `interval` ticks: cache TTL 100, dead after 3 missed intervals (from
/// tick 31 with no beats at interval 10), grace one interval.
fn world(interval: u64) -> World {
    let facts = Arc::new(FactStore::new());
    facts.define("password_ok", 1).unwrap();
    facts
        .insert("password_ok", vec![Value::id("alice")])
        .unwrap();

    let login = OasisService::new(ServiceConfig::new("login"), Arc::clone(&facts));
    login
        .define_role("logged_in", &[("user", ValueType::Id)], true)
        .unwrap();
    login
        .add_activation_rule(
            "logged_in",
            vec![Term::var("U")],
            vec![Atom::env_fact("password_ok", vec![Term::var("U")])],
            vec![0],
        )
        .unwrap();

    let hospital = OasisService::new(
        ServiceConfig::new("hospital")
            .with_validation_cache(100)
            .with_heartbeats(),
        Arc::clone(&facts),
    );
    hospital
        .define_role("doctor_on_duty", &[("doctor", ValueType::Id)], false)
        .unwrap();
    hospital
        .add_activation_rule(
            "doctor_on_duty",
            vec![Term::var("D")],
            vec![Atom::prereq_at("login", "logged_in", vec![Term::var("D")])],
            vec![0],
        )
        .unwrap();

    let registry = Arc::new(LocalRegistry::new());
    registry.register(&login);
    registry.register(&hospital);
    let gate = Arc::new(GatedValidator {
        inner: registry,
        up: AtomicBool::new(true),
    });
    hospital.set_validator(gate.clone());
    hospital.watch_issuer(&login_id(), interval, 0);

    let login_rmc = login
        .activate_role(
            &alice(),
            &RoleName::new("logged_in"),
            &[Value::id("alice")],
            &[],
            &EnvContext::new(0),
        )
        .unwrap();

    World {
        login,
        hospital,
        gate,
        login_rmc,
    }
}

#[test]
fn healthy_issuer_serves_cache_hits_without_callback() {
    let w = world(10);
    let cred = Credential::Rmc(w.login_rmc.clone());
    assert!(w.hospital.validate_credential(&cred, &alice(), 1).is_ok());
    // With the issuer down but healthy (beating), the cache answers.
    w.gate.set_up(false);
    w.hospital.issuer_beat(&login_id(), 2);
    assert!(w.hospital.validate_credential(&cred, &alice(), 3).is_ok());
    let stats = w.hospital.validation_cache_stats().unwrap();
    assert_eq!((stats.hits, stats.misses), (1, 1));
    assert_eq!(
        w.hospital
            .degradation_stats()
            .unwrap()
            .suspect_revalidations,
        0
    );
}

#[test]
fn late_issuer_forces_fresh_callback() {
    let w = world(10);
    let cred = Credential::Rmc(w.login_rmc.clone());
    assert!(w.hospital.validate_credential(&cred, &alice(), 1).is_ok());
    // No beats: from tick 11 the issuer is late, so the cached success is
    // suspect and a callback happens even within the cache TTL.
    assert_eq!(
        w.hospital.issuer_health(&login_id(), 15),
        Some(SourceHealth::Late)
    );
    assert!(w.hospital.validate_credential(&cred, &alice(), 15).is_ok());
    let ds = w.hospital.degradation_stats().unwrap();
    assert_eq!(ds.suspect_revalidations, 1);

    // Late AND unreachable: fail-safe refuses despite the fresh cache.
    w.gate.set_up(false);
    let err = w
        .hospital
        .validate_credential(&cred, &alice(), 16)
        .unwrap_err();
    assert!(matches!(err, OasisError::IssuerTimeout(_)));
    let ds = w.hospital.degradation_stats().unwrap();
    assert_eq!(ds.stale_refused, 1);
}

#[test]
fn dead_issuer_evicts_cache_and_requires_live_answer() {
    let w = world(10);
    let cred = Credential::Rmc(w.login_rmc.clone());
    assert!(w.hospital.validate_credential(&cred, &alice(), 1).is_ok());
    w.gate.set_up(false);
    // Tick 40: three intervals missed, the issuer is dead. The cached
    // entry (age 39, TTL 100) must not answer.
    assert_eq!(
        w.hospital.issuer_health(&login_id(), 40),
        Some(SourceHealth::Dead)
    );
    assert!(w.hospital.validate_credential(&cred, &alice(), 40).is_err());
    assert_eq!(w.hospital.degradation_stats().unwrap().dead_evictions, 1);
    // A live answer from a dead-looking issuer is fresh authority.
    w.gate.set_up(true);
    assert!(w.hospital.validate_credential(&cred, &alice(), 41).is_ok());
}

#[test]
fn fail_safe_degradation_revokes_dependents_after_grace() {
    let w = world(10);
    let duty = w
        .hospital
        .activate_role(
            &alice(),
            &RoleName::new("doctor_on_duty"),
            &[Value::id("alice")],
            &[Credential::Rmc(w.login_rmc.clone())],
            &EnvContext::new(0),
        )
        .unwrap();

    // Dead from tick 31; first observed dead by the tick at 35, so the
    // grace clock (10) starts there.
    assert!(w.hospital.tick_heartbeats(30).is_empty(), "still late");
    assert!(
        w.hospital.tick_heartbeats(35).is_empty(),
        "dead, inside grace"
    );
    assert!(w.hospital.tick_heartbeats(44).is_empty(), "grace not over");
    let revoked = w.hospital.tick_heartbeats(45);
    assert_eq!(revoked, vec![duty.crr.clone()], "grace expired: degraded");
    assert!(w
        .hospital
        .validate_own(&Credential::Rmc(duty.clone()), &alice(), 46)
        .is_err());
    let ds = w.hospital.degradation_stats().unwrap();
    assert_eq!((ds.degraded_issuers, ds.degraded_certs), (1, 1));
    assert!(
        w.hospital.tick_heartbeats(60).is_empty(),
        "degradation runs once per death"
    );

    // Recovery: the issuer beats again, and the role can be re-activated
    // against live authority — degraded roles do not resurrect by
    // themselves.
    w.hospital.issuer_beat(&login_id(), 61);
    assert_eq!(
        w.hospital.issuer_health(&login_id(), 62),
        Some(SourceHealth::Healthy)
    );
    assert_eq!(w.hospital.degradation_stats().unwrap().issuer_recoveries, 1);
    let again = w
        .hospital
        .activate_role(
            &alice(),
            &RoleName::new("doctor_on_duty"),
            &[Value::id("alice")],
            &[Credential::Rmc(w.login_rmc.clone())],
            &EnvContext::new(62),
        )
        .unwrap();
    assert_ne!(again.crr, duty.crr);
    drop(w.login);
}

#[test]
fn grace_is_one_heartbeat_interval() {
    let w = world(5);
    let duty = w
        .hospital
        .activate_role(
            &alice(),
            &RoleName::new("doctor_on_duty"),
            &[Value::id("alice")],
            &[Credential::Rmc(w.login_rmc.clone())],
            &EnvContext::new(0),
        )
        .unwrap();

    // Interval 5: dead from tick 16, first observed dead at 20, so the
    // dependents collapse 5 ticks later.
    assert!(w.hospital.tick_heartbeats(15).is_empty(), "still late");
    assert!(
        w.hospital.tick_heartbeats(20).is_empty(),
        "dead, inside grace"
    );
    assert!(w.hospital.tick_heartbeats(24).is_empty(), "grace not over");
    assert_eq!(w.hospital.tick_heartbeats(25), vec![duty.crr.clone()]);
    let ds = w.hospital.degradation_stats().unwrap();
    assert_eq!((ds.degraded_issuers, ds.degraded_certs), (1, 1));
}

#[test]
fn unwatched_issuer_keeps_plain_cache_semantics() {
    let w = world(10);
    // Deregistering is not exposed; use a hospital that never watched.
    let facts = Arc::new(FactStore::new());
    let plain = OasisService::new(
        ServiceConfig::new("plain")
            .with_validation_cache(100)
            .with_heartbeats(),
        facts,
    );
    let registry = Arc::new(LocalRegistry::new());
    registry.register(&w.login);
    plain.set_validator(registry);
    let cred = Credential::Rmc(w.login_rmc.clone());
    assert!(plain.validate_credential(&cred, &alice(), 1).is_ok());
    assert!(
        plain.validate_credential(&cred, &alice(), 50).is_ok(),
        "no heartbeat watch: TTL alone governs the cache"
    );
    assert_eq!(plain.issuer_health(&login_id(), 50), None);
    assert_eq!(plain.validation_cache_stats().unwrap().hits, 1);
}

#[test]
fn heartbeat_api_is_inert_without_configuration() {
    let facts = Arc::new(FactStore::new());
    let svc = OasisService::new(ServiceConfig::new("bare"), facts);
    assert!(!svc.watch_issuer(&login_id(), 10, 0));
    assert!(!svc.issuer_beat(&login_id(), 1));
    assert_eq!(svc.issuer_health(&login_id(), 1), None);
    assert_eq!(svc.degradation_stats(), None);
    assert!(svc.tick_heartbeats(100).is_empty());
}
