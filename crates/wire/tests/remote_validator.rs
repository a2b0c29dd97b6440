//! A genuinely distributed OASIS deployment: the issuing service runs
//! behind TCP in its own runtime thread, and a *synchronous* consumer
//! service performs its validation callbacks over the network through
//! [`RemoteValidator`] — the full Sect. 4 engineering picture.

use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use oasis_core::retry::RetryPolicy;
use oasis_core::{
    Atom, Credential, CredentialValidator, EnvContext, OasisError, OasisService, PrincipalId,
    ResilientValidator, RoleName, ServiceConfig, Term, Value, ValueType,
};
use oasis_facts::FactStore;
use oasis_wire::frame::{read_frame, write_frame};
use oasis_wire::{proto, RemoteValidator, WireClient, WireServer};

/// Starts the issuer ("login") service on a TCP socket served from a
/// background thread; returns its address and a handle to the service.
fn spawn_issuer() -> (SocketAddr, Arc<OasisService>) {
    let facts = Arc::new(FactStore::new());
    facts.define("password_ok", 1).unwrap();
    facts
        .insert("password_ok", vec![Value::id("alice")])
        .unwrap();
    let svc = OasisService::new(ServiceConfig::new("login"), facts);
    svc.define_role("logged_in", &[("u", ValueType::Id)], true)
        .unwrap();
    svc.add_activation_rule(
        "logged_in",
        vec![Term::var("U")],
        vec![Atom::env_fact("password_ok", vec![Term::var("U")])],
        vec![0],
    )
    .unwrap();

    let addr = WireServer::bind(Arc::clone(&svc), "127.0.0.1:0")
        .unwrap()
        .serve_in_background()
        .unwrap();
    (addr, svc)
}

/// A consumer service whose `member` role requires the remote login RMC.
fn consumer(validator: Arc<RemoteValidator>) -> Arc<OasisService> {
    let svc = OasisService::new(ServiceConfig::new("library"), Arc::new(FactStore::new()));
    svc.define_role("member", &[("u", ValueType::Id)], false)
        .unwrap();
    svc.add_activation_rule(
        "member",
        vec![Term::var("U")],
        vec![Atom::prereq_at("login", "logged_in", vec![Term::var("U")])],
        vec![0],
    )
    .unwrap();
    svc.set_validator(validator);
    svc
}

#[test]
fn cross_process_style_validation_over_tcp() {
    let (addr, _issuer) = spawn_issuer();
    let alice = PrincipalId::new("alice");

    // Alice logs in over the wire (as a real remote principal would).
    let mut client = WireClient::connect(addr).unwrap();
    let response = client
        .call(&proto::Request::Activate {
            principal: alice.clone(),
            role: "logged_in".into(),
            args: vec![Value::id("alice")],
            credentials: vec![],
            now: 1,
        })
        .unwrap();
    let login_rmc = match response {
        proto::Response::Activated { rmc } => *rmc,
        other => panic!("unexpected {other:?}"),
    };

    // The consumer service validates the foreign RMC by network callback.
    let validator = Arc::new(RemoteValidator::new());
    validator.add_issuer("login", addr);
    let library = consumer(validator);

    let member = library
        .activate_role(
            &alice,
            &RoleName::new("member"),
            &[Value::id("alice")],
            &[Credential::Rmc(login_rmc.clone())],
            &EnvContext::new(2),
        )
        .expect("network-validated activation succeeds");
    assert_eq!(member.role.as_str(), "member");

    // A thief presenting the stolen RMC is rejected — by the issuer, over
    // the network.
    let mallory = PrincipalId::new("mallory");
    assert!(library
        .activate_role(
            &mallory,
            &RoleName::new("member"),
            &[Value::id("mallory")],
            &[Credential::Rmc(login_rmc.clone())],
            &EnvContext::new(3),
        )
        .is_err());

    // Remote revocation propagates to the next callback.
    client
        .call(&proto::Request::Revoke {
            cert_id: login_rmc.crr.cert_id.0,
            reason: "logout".into(),
            now: 4,
        })
        .unwrap();
    assert!(library
        .activate_role(
            &alice,
            &RoleName::new("member"),
            &[Value::id("alice")],
            &[Credential::Rmc(login_rmc)],
            &EnvContext::new(5),
        )
        .is_err());
}

#[test]
fn unknown_issuer_is_refused_locally() {
    let validator = Arc::new(RemoteValidator::new());
    let library = consumer(validator);
    // A credential from an unregistered issuer never even dials.
    let secret = oasis_crypto::IssuerSecret::random();
    let fake = oasis_core::cert::Rmc::issue(
        &secret.current(),
        oasis_crypto::SecretEpoch(0),
        &PrincipalId::new("alice"),
        oasis_core::Crr::new("nowhere".into(), oasis_core::CertId(1)),
        RoleName::new("logged_in"),
        vec![Value::id("alice")],
        0,
        None,
    );
    assert!(library
        .activate_role(
            &PrincipalId::new("alice"),
            &RoleName::new("member"),
            &[Value::id("alice")],
            &[Credential::Rmc(fake)],
            &EnvContext::new(1),
        )
        .is_err());
}

#[test]
fn validator_redials_after_issuer_restart() {
    let (addr1, issuer1) = spawn_issuer();
    let alice = PrincipalId::new("alice");
    let rmc1 = issuer1
        .activate_role(
            &alice,
            &RoleName::new("logged_in"),
            &[Value::id("alice")],
            &[],
            &EnvContext::new(0),
        )
        .unwrap();

    let validator = Arc::new(RemoteValidator::new());
    validator.add_issuer("login", addr1);
    validator
        .validate(&Credential::Rmc(rmc1.clone()), &alice, 1)
        .unwrap();

    // "Restart": a new issuer process at a new address, with new secrets.
    let (addr2, issuer2) = spawn_issuer();
    let rmc2 = issuer2
        .activate_role(
            &alice,
            &RoleName::new("logged_in"),
            &[Value::id("alice")],
            &[],
            &EnvContext::new(0),
        )
        .unwrap();
    validator.add_issuer("login", addr2);

    // New certificates validate against the new instance; the old
    // instance's certificates are unknown to it.
    validator
        .validate(&Credential::Rmc(rmc2), &alice, 2)
        .unwrap();
    assert!(validator
        .validate(&Credential::Rmc(rmc1), &alice, 2)
        .is_err());
}

/// An RMC from an issuer called `login` that no real service backs: the
/// stubs below never check it.
fn stub_rmc() -> Credential {
    let secret = oasis_crypto::IssuerSecret::random();
    Credential::Rmc(oasis_core::cert::Rmc::issue(
        &secret.current(),
        oasis_crypto::SecretEpoch(0),
        &PrincipalId::new("alice"),
        oasis_core::Crr::new("login".into(), oasis_core::CertId(1)),
        RoleName::new("logged_in"),
        vec![Value::id("alice")],
        0,
        None,
    ))
}

/// The issuer accepts every connection and closes it at once, so every
/// callback fails on transport. `ResilientValidator` owns the retries:
/// four attempts are four dials, not four times the validator's own.
#[test]
fn callback_retries_have_one_owner() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let dials = Arc::new(AtomicUsize::new(0));
    let counted = Arc::clone(&dials);
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            // Counted before the close the validator waits for.
            counted.fetch_add(1, SeqCst);
            drop(stream);
        }
    });

    let remote = RemoteValidator::new();
    remote.add_issuer("login", addr);
    let validator = ResilientValidator::new(Arc::new(remote)).with_retry(RetryPolicy::immediate(4));
    let err = validator
        .validate(&stub_rmc(), &PrincipalId::new("alice"), 1)
        .unwrap_err();
    assert!(
        matches!(err, OasisError::NoValidator(_)),
        "a closed connection is not a timeout: {err:?}"
    );
    assert_eq!(dials.load(SeqCst), 4, "one dial per scheduled attempt");
}

/// The issuer answers `Valid` only once two requests are in flight (or
/// after 2 s): two callbacks at once must both reach it before either is
/// answered, which no lock held across the round trip would allow.
#[test]
fn concurrent_callbacks_overlap() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    // (requests in flight now, most ever in flight)
    let flight = Arc::new((Mutex::new((0usize, 0usize)), Condvar::new()));
    let stub = Arc::clone(&flight);
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let flight = Arc::clone(&stub);
            std::thread::spawn(move || {
                let mut stream = stream.unwrap();
                let (lock, arrived) = &*flight;
                while let Ok(Some(_)) = read_frame::<_, proto::Envelope>(&mut stream) {
                    let mut counts = lock.lock().unwrap();
                    counts.0 += 1;
                    counts.1 = counts.1.max(counts.0);
                    arrived.notify_all();
                    let (mut counts, _) = arrived
                        .wait_timeout_while(counts, Duration::from_secs(2), |c| c.1 < 2)
                        .unwrap();
                    counts.0 -= 1;
                    drop(counts);
                    write_frame(&mut stream, &proto::Response::Valid).unwrap();
                }
            });
        }
    });

    let validator = RemoteValidator::new();
    validator.add_issuer("login", addr);
    let cred = stub_rmc();
    let alice = PrincipalId::new("alice");
    std::thread::scope(|s| {
        let callbacks: Vec<_> = (0..2)
            .map(|_| s.spawn(|| validator.validate(&cred, &alice, 1)))
            .collect();
        for callback in callbacks {
            callback.join().unwrap().expect("the stub answers Valid");
        }
    });
    assert_eq!(
        flight.0.lock().unwrap().1,
        2,
        "both callbacks were in flight"
    );
}
