//! Concurrency and validation-cache behaviour of the sharded service.
//!
//! The service splits policy (read-mostly, `RwLock`) from certificate
//! records (lock-striped shards), and optionally memoises foreign
//! credential validations. These tests pin the observable contract:
//!
//! * a cache hit performs **zero** validator callbacks;
//! * a revocation event evicts the cached entry immediately, so the next
//!   validation goes back to the issuer and fails;
//! * activation / invocation / revocation racing across threads never
//!   deadlocks, never loses a cascade, and leaves the record stores in a
//!   consistent state at quiesce;
//! * no service lock is held across the issuer callback, so concurrent
//!   foreign validations are all inside it at once.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Duration;

use oasis_core::{
    Atom, CredStatus, Credential, CredentialValidator, EnvContext, LocalRegistry, OasisError,
    OasisService, PrincipalId, RoleName, ServiceConfig, Term, Value, ValueType,
};
use oasis_events::EventBus;
use oasis_facts::FactStore;

/// Wraps a real validator and counts how many callbacks reach it — the
/// cache is only allowed to skip this when it has a fresh entry.
struct CountingValidator {
    inner: Arc<LocalRegistry>,
    calls: AtomicUsize,
}

impl CountingValidator {
    fn new(inner: Arc<LocalRegistry>) -> Self {
        Self {
            inner,
            calls: AtomicUsize::new(0),
        }
    }

    fn calls(&self) -> usize {
        self.calls.load(Ordering::SeqCst)
    }
}

impl CredentialValidator for CountingValidator {
    fn validate(
        &self,
        credential: &Credential,
        presenter: &PrincipalId,
        now: u64,
    ) -> Result<(), OasisError> {
        self.calls.fetch_add(1, Ordering::SeqCst);
        self.inner.validate(credential, presenter, now)
    }
}

struct CacheWorld {
    facts: Arc<FactStore<Value>>,
    login: Arc<OasisService>,
    hospital: Arc<OasisService>,
    validator: Arc<CountingValidator>,
}

/// login.logged_in is a prerequisite for hospital.doctor_on_duty; the
/// hospital validates login's credentials through a counting validator
/// and memoises successes for `ttl` ticks.
fn cache_world(ttl: u64) -> CacheWorld {
    let facts = FactStore::new();
    facts.define("password_ok", 1).unwrap();
    let facts = Arc::new(facts);
    let bus = EventBus::new();

    let login = OasisService::new(
        ServiceConfig::new("login").with_bus(bus.clone()),
        Arc::clone(&facts),
    );
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
            .with_bus(bus.clone())
            .with_validation_cache(ttl),
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
    let validator = Arc::new(CountingValidator::new(registry));
    hospital.set_validator(Arc::clone(&validator) as Arc<dyn CredentialValidator>);

    CacheWorld {
        facts,
        login,
        hospital,
        validator,
    }
}

fn alice() -> PrincipalId {
    PrincipalId::new("alice")
}

/// Alice's `logged_in` RMC, issued by the world's login service.
fn alice_login(w: &CacheWorld) -> Credential {
    w.facts
        .insert("password_ok", vec![Value::id("alice")])
        .unwrap();
    let rmc = w
        .login
        .activate_role(
            &alice(),
            &RoleName::new("logged_in"),
            &[Value::id("alice")],
            &[],
            &EnvContext::new(1),
        )
        .unwrap();
    Credential::Rmc(rmc)
}

#[test]
fn cache_hit_performs_no_validator_callback() {
    let w = cache_world(100);
    let cred = alice_login(&w);

    // First validation misses the cache and reaches the issuer.
    w.hospital.validate_credential(&cred, &alice(), 1).unwrap();
    assert_eq!(w.validator.calls(), 1);

    // Every validation within the TTL is served from the cache: the
    // counting validator must see no further callbacks.
    for now in 2..50 {
        w.hospital
            .validate_credential(&cred, &alice(), now)
            .unwrap();
    }
    assert_eq!(
        w.validator.calls(),
        1,
        "cache hit must not call the validator"
    );

    let stats = w.hospital.validation_cache_stats().unwrap();
    assert_eq!(stats.misses, 1);
    assert_eq!(stats.hits, 48);

    // Past the TTL the entry is stale and the issuer is consulted again.
    w.hospital
        .validate_credential(&cred, &alice(), 500)
        .unwrap();
    assert_eq!(w.validator.calls(), 2);
}

#[test]
fn cache_is_per_presenter() {
    let w = cache_world(100);
    let cred = alice_login(&w);

    w.hospital.validate_credential(&cred, &alice(), 1).unwrap();
    assert_eq!(w.validator.calls(), 1);

    // A different presenter must not be served by alice's cached success:
    // the MAC binds the certificate to its holder, and so must the cache.
    let mallory = PrincipalId::new("mallory");
    assert!(w.hospital.validate_credential(&cred, &mallory, 2).is_err());
    assert_eq!(w.validator.calls(), 2);
}

#[test]
fn revocation_evicts_cached_validation() {
    let w = cache_world(1_000);
    let cred = alice_login(&w);

    w.hospital.validate_credential(&cred, &alice(), 1).unwrap();
    w.hospital.validate_credential(&cred, &alice(), 2).unwrap();
    assert_eq!(w.validator.calls(), 1);

    // Revoking at the issuer publishes `cred.revoked.login`; the
    // hospital's subscription must evict the cached entry immediately.
    assert!(w.login.revoke_certificate(cred.crr().cert_id, "logout", 3));

    let err = w
        .hospital
        .validate_credential(&cred, &alice(), 4)
        .unwrap_err();
    assert!(
        matches!(err, OasisError::InvalidCredential { .. }),
        "revoked credential must fail closed, got {err:?}"
    );
    // The failure came from a real callback, not a stale cache entry.
    assert_eq!(w.validator.calls(), 2);

    let stats = w.hospital.validation_cache_stats().unwrap();
    assert!(
        stats.invalidations >= 1,
        "revocation must evict, stats {stats:?}"
    );
}

#[test]
fn rejected_callback_is_never_cached() {
    let w = cache_world(100);
    let cred = alice_login(&w);
    // Start with a callback path that cannot reach the issuer.
    let registry = Arc::new(LocalRegistry::new());
    let validator = Arc::new(CountingValidator::new(Arc::clone(&registry)));
    w.hospital
        .set_validator(Arc::clone(&validator) as Arc<dyn CredentialValidator>);

    // Two failures for the same (credential, presenter): two callbacks,
    // nothing remembered in between.
    for now in [1, 2] {
        let err = w
            .hospital
            .validate_credential(&cred, &alice(), now)
            .unwrap_err();
        assert!(matches!(err, OasisError::NoValidator(_)), "{err:?}");
    }
    assert_eq!(validator.calls(), 2);

    // The same key then succeeds, and only the success is cached.
    registry.register(&w.login);
    w.hospital.validate_credential(&cred, &alice(), 3).unwrap();
    w.hospital.validate_credential(&cred, &alice(), 4).unwrap();
    assert_eq!(validator.calls(), 3);

    // An authoritative rejection (wrong presenter) is not cached either.
    let mallory = PrincipalId::new("mallory");
    for now in [5, 6] {
        let err = w
            .hospital
            .validate_credential(&cred, &mallory, now)
            .unwrap_err();
        assert!(matches!(err, OasisError::InvalidCredential { .. }));
    }
    assert_eq!(validator.calls(), 5);

    let stats = w.hospital.validation_cache_stats().unwrap();
    assert_eq!((stats.hits, stats.misses), (1, 5));
}

#[test]
fn cache_entry_lives_exactly_its_ttl_and_never_comes_from_the_future() {
    let ttl = 100;
    let w = cache_world(ttl);
    let cred = alice_login(&w);
    let t0 = 10;

    w.hospital.validate_credential(&cred, &alice(), t0).unwrap();
    assert_eq!(w.validator.calls(), 1);
    // Served at the last tick of the window…
    w.hospital
        .validate_credential(&cred, &alice(), t0 + ttl)
        .unwrap();
    assert_eq!(w.validator.calls(), 1);
    // …and not one tick later: the issuer is asked again, which rewrites
    // the entry at t0 + ttl + 1.
    w.hospital
        .validate_credential(&cred, &alice(), t0 + ttl + 1)
        .unwrap();
    assert_eq!(w.validator.calls(), 2);

    // The virtual clock is reset behind the entry: an answer recorded in
    // the future vouches for nothing.
    w.hospital.validate_credential(&cred, &alice(), t0).unwrap();
    assert_eq!(w.validator.calls(), 3);

    let stats = w.hospital.validation_cache_stats().unwrap();
    assert_eq!((stats.hits, stats.misses), (1, 3));
}

#[test]
fn cached_activation_still_collapses_on_revocation() {
    // End-to-end: activate through the cache, then revoke the
    // prerequisite — the dependent RMC must still be deactivated.
    let w = cache_world(1_000);
    w.facts
        .insert("password_ok", vec![Value::id("alice")])
        .unwrap();
    let ctx = EnvContext::new(1);
    let login_rmc = w
        .login
        .activate_role(
            &alice(),
            &RoleName::new("logged_in"),
            &[Value::id("alice")],
            &[],
            &ctx,
        )
        .unwrap();
    // Warm the cache, then activate using the (cached) foreign credential.
    w.hospital
        .validate_credential(&Credential::Rmc(login_rmc.clone()), &alice(), 1)
        .unwrap();
    let duty_rmc = w
        .hospital
        .activate_role(
            &alice(),
            &RoleName::new("doctor_on_duty"),
            &[Value::id("alice")],
            &[Credential::Rmc(login_rmc.clone())],
            &ctx,
        )
        .unwrap();

    assert!(w
        .login
        .revoke_certificate(login_rmc.crr.cert_id, "logout", 2));

    let record = w.hospital.record(duty_rmc.crr.cert_id).unwrap();
    assert!(
        matches!(record.status, CredStatus::Revoked { .. }),
        "cascade must revoke the dependent RMC, got {:?}",
        record.status
    );
}

// ---------------------------------------------------------------------------
// Multi-threaded stress
// ---------------------------------------------------------------------------

const THREADS: usize = 8;
const ROUNDS: usize = 20;

/// Holds each callback until `expected` callbacks are inside at once,
/// then delegates. If they never all arrive within five seconds, the
/// waiting callback and every later one fail as an issuer timeout.
struct Rendezvous {
    inner: Arc<LocalRegistry>,
    expected: usize,
    /// Callbacks that have entered, and whether one gave up waiting.
    state: Mutex<(usize, bool)>,
    entered: Condvar,
}

impl CredentialValidator for Rendezvous {
    fn validate(
        &self,
        credential: &Credential,
        presenter: &PrincipalId,
        now: u64,
    ) -> Result<(), OasisError> {
        let mut state = self.state.lock().unwrap();
        state.0 += 1;
        self.entered.notify_all();
        let (mut state, _) = self
            .entered
            .wait_timeout_while(state, Duration::from_secs(5), |(n, gave_up)| {
                *n < self.expected && !*gave_up
            })
            .unwrap();
        if state.1 || state.0 < self.expected {
            state.1 = true;
            self.entered.notify_all();
            return Err(OasisError::IssuerTimeout(credential.issuer().clone()));
        }
        drop(state);
        self.inner.validate(credential, presenter, now)
    }
}

#[test]
fn concurrent_foreign_validations_are_all_inside_the_callback_at_once() {
    // The issuer callback is a network round trip in a deployment: if the
    // service held a shard or global lock across it, validations would
    // queue behind one another instead of overlapping.
    let w = cache_world(100);
    let creds: Vec<(PrincipalId, Credential)> = (0..THREADS)
        .map(|t| {
            let me = PrincipalId::new(format!("dr-{t}"));
            w.facts
                .insert("password_ok", vec![Value::id(format!("dr-{t}"))])
                .unwrap();
            let rmc = w
                .login
                .activate_role(
                    &me,
                    &RoleName::new("logged_in"),
                    &[Value::id(format!("dr-{t}"))],
                    &[],
                    &EnvContext::new(1),
                )
                .unwrap();
            (me, Credential::Rmc(rmc))
        })
        .collect();
    let rendezvous = Arc::new(Rendezvous {
        inner: Arc::clone(&w.validator.inner),
        expected: THREADS,
        state: Mutex::new((0, false)),
        entered: Condvar::new(),
    });
    w.hospital
        .set_validator(Arc::clone(&rendezvous) as Arc<dyn CredentialValidator>);

    let handles: Vec<_> = creds
        .into_iter()
        .map(|(me, cred)| {
            let hospital = Arc::clone(&w.hospital);
            thread::spawn(move || hospital.validate_credential(&cred, &me, 2))
        })
        .collect();
    let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    assert_eq!(
        rendezvous.state.lock().unwrap().0,
        THREADS,
        "every validation reaches the issuer callback"
    );
    assert!(
        results.iter().all(Result::is_ok),
        "{THREADS} callbacks were never inside the validator at once: {results:?}"
    );
}

#[test]
fn concurrent_activate_invoke_revoke_is_consistent() {
    let facts = FactStore::new();
    facts.define("password_ok", 1).unwrap();
    let facts = Arc::new(facts);
    let bus = EventBus::new();

    let login = OasisService::new(
        ServiceConfig::new("login").with_bus(bus.clone()),
        Arc::clone(&facts),
    );
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
            .with_bus(bus.clone())
            .with_validation_cache(10),
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
    hospital.add_invocation_rule(
        "read_record",
        vec![Term::var("D")],
        vec![Atom::prereq("doctor_on_duty", vec![Term::var("D")])],
    );

    let registry = Arc::new(LocalRegistry::new());
    registry.register(&login);
    registry.register(&hospital);
    login.set_validator(registry.clone());
    hospital.set_validator(registry.clone());

    for t in 0..THREADS {
        facts
            .insert("password_ok", vec![Value::id(format!("doc{t}"))])
            .unwrap();
    }

    let issued = Arc::new(AtomicUsize::new(0));
    let invoked = Arc::new(AtomicUsize::new(0));
    let mut handles = Vec::new();
    for t in 0..THREADS {
        let login = Arc::clone(&login);
        let hospital = Arc::clone(&hospital);
        let issued = Arc::clone(&issued);
        let invoked = Arc::clone(&invoked);
        handles.push(thread::spawn(move || {
            let me = PrincipalId::new(format!("doc{t}"));
            let arg = Value::id(format!("doc{t}"));
            for round in 0..ROUNDS {
                let now = (t * ROUNDS + round) as u64;
                let ctx = EnvContext::new(now);
                let login_rmc = login
                    .activate_role(
                        &me,
                        &RoleName::new("logged_in"),
                        std::slice::from_ref(&arg),
                        &[],
                        &ctx,
                    )
                    .expect("login activation");
                let duty_rmc = hospital
                    .activate_role(
                        &me,
                        &RoleName::new("doctor_on_duty"),
                        std::slice::from_ref(&arg),
                        &[Credential::Rmc(login_rmc.clone())],
                        &ctx,
                    )
                    .expect("duty activation");
                issued.fetch_add(2, Ordering::SeqCst);
                // Use the role while another thread may be revoking its own
                // chain: a thread only revokes its own certificates, so this
                // invocation must succeed.
                hospital
                    .invoke(
                        &me,
                        "read_record",
                        std::slice::from_ref(&arg),
                        &[Credential::Rmc(duty_rmc.clone())],
                        &ctx,
                    )
                    .expect("invoke with live role");
                invoked.fetch_add(1, Ordering::SeqCst);
                // Revoke the root: the cascade must take down the duty RMC
                // even while other threads are mid-activation.
                assert!(login.revoke_certificate(login_rmc.crr.cert_id, "logout", now));
            }
        }));
    }
    // A monitor thread exercises the cross-shard sweeps (stats, expiry,
    // session views) concurrently with the writers.
    let monitor_hospital = Arc::clone(&hospital);
    let monitor_login = Arc::clone(&login);
    let monitor = thread::spawn(move || {
        for i in 0..200u64 {
            let (active, revoked, _) = monitor_hospital.record_stats();
            // Counts are a snapshot; they only ever grow in total.
            let _ = active + revoked;
            let _ = monitor_login.active_records();
            let _ = monitor_hospital.expire_certificates(i % 7);
        }
    });
    for h in handles {
        h.join().expect("worker thread panicked");
    }
    monitor.join().expect("monitor thread panicked");

    // Quiesce: every login certificate was revoked, and every dependent
    // hospital certificate must have been cascaded — no lost revocations.
    let (login_active, login_revoked, login_expired) = login.record_stats();
    assert_eq!(login_active, 0, "all login RMCs were revoked");
    assert_eq!(login_revoked + login_expired, THREADS * ROUNDS);

    let (hosp_active, hosp_revoked, hosp_expired) = hospital.record_stats();
    assert_eq!(
        hosp_active, 0,
        "revoking a login RMC must cascade to the dependent duty RMC"
    );
    assert_eq!(hosp_revoked + hosp_expired, THREADS * ROUNDS);

    assert_eq!(issued.load(Ordering::SeqCst), 2 * THREADS * ROUNDS);
    assert_eq!(invoked.load(Ordering::SeqCst), THREADS * ROUNDS);
    assert!(hospital.active_records().is_empty());
}

#[test]
fn concurrent_policy_reads_and_writes_do_not_block_certificates() {
    // Policy updates (write lock) interleaved with activations (read
    // lock + shard locks) must make progress on both sides.
    let facts = FactStore::new();
    facts.define("password_ok", 1).unwrap();
    let facts = Arc::new(facts);
    let svc = OasisService::new(ServiceConfig::new("login"), Arc::clone(&facts));
    svc.define_role("logged_in", &[("user", ValueType::Id)], true)
        .unwrap();
    svc.add_activation_rule(
        "logged_in",
        vec![Term::var("U")],
        vec![Atom::env_fact("password_ok", vec![Term::var("U")])],
        vec![0],
    )
    .unwrap();
    facts
        .insert("password_ok", vec![Value::id("alice")])
        .unwrap();

    let writer_svc = Arc::clone(&svc);
    let writer = thread::spawn(move || {
        for i in 0..50 {
            writer_svc
                .define_role(format!("extra{i}"), &[("x", ValueType::Id)], false)
                .unwrap();
        }
    });
    let reader_svc = Arc::clone(&svc);
    let reader = thread::spawn(move || {
        let me = PrincipalId::new("alice");
        for i in 0..50u64 {
            let rmc = reader_svc
                .activate_role(
                    &me,
                    &RoleName::new("logged_in"),
                    &[Value::id("alice")],
                    &[],
                    &EnvContext::new(i),
                )
                .unwrap();
            reader_svc.revoke_certificate(rmc.crr.cert_id, "done", i);
        }
    });
    writer.join().unwrap();
    reader.join().unwrap();

    assert_eq!(svc.roles().len(), 51);
    let (active, revoked, _) = svc.record_stats();
    assert_eq!((active, revoked), (0, 50));
}
