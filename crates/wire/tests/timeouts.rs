//! Deadline behaviour of the wire layer: read timeouts surfacing as
//! [`WireError::TimedOut`], and the [`RemoteValidator`] mapping a silent
//! issuer to [`OasisError::IssuerTimeout`].

use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::time::Duration;

use oasis_core::{CredentialValidator, OasisError, PrincipalId, RoleName, Value};
use oasis_wire::{RemoteValidator, WireClient, WireError, WireTimeouts};

/// A server that accepts connections and then says nothing, forever:
/// the shape of a partitioned or wedged issuer.
fn silent_server() -> (SocketAddr, TcpListener) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let accept = listener.try_clone().unwrap();
    std::thread::spawn(move || {
        // Hold accepted sockets open so the client blocks on read, not
        // on a reset.
        let mut held = Vec::new();
        while let Ok((stream, _)) = accept.accept() {
            held.push(stream);
        }
    });
    (addr, listener)
}

fn some_rmc() -> oasis_core::cert::Rmc {
    let secret = oasis_crypto::IssuerSecret::random();
    oasis_core::cert::Rmc::issue(
        &secret.current(),
        oasis_crypto::SecretEpoch(0),
        &PrincipalId::new("alice"),
        oasis_core::Crr::new("login".into(), oasis_core::CertId(1)),
        RoleName::new("logged_in"),
        vec![Value::id("alice")],
        0,
        None,
    )
}

#[test]
fn read_deadline_surfaces_as_timed_out() {
    let (addr, _listener) = silent_server();
    let mut client = WireClient::connect_with(
        addr,
        WireTimeouts {
            connect: Some(Duration::from_secs(2)),
            read: Some(Duration::from_millis(50)),
            write: Some(Duration::from_secs(2)),
        },
    )
    .unwrap();
    let err = client.ping().unwrap_err();
    assert!(
        matches!(err, WireError::TimedOut { op: "read" }),
        "expected read timeout, got {err:?}"
    );
    assert!(err.is_timeout());
}

#[test]
fn remote_validator_maps_silence_to_issuer_timeout() {
    let (addr, _listener) = silent_server();
    let validator =
        RemoteValidator::new().with_timeouts(WireTimeouts::all(Duration::from_millis(50)));
    validator.add_issuer("login", addr);

    let rmc = some_rmc();
    let started = std::time::Instant::now();
    let err = validator
        .validate(
            &oasis_core::Credential::Rmc(rmc),
            &PrincipalId::new("alice"),
            1,
        )
        .unwrap_err();
    assert!(
        matches!(err, OasisError::IssuerTimeout(ref id) if id.as_str() == "login"),
        "expected IssuerTimeout, got {err:?}"
    );
    // One attempt of ~50 ms: well under a second.
    assert!(started.elapsed() < Duration::from_secs(2));
}

#[test]
fn remote_validator_recovers_when_issuer_comes_back() {
    // Unroutable until registered: no listener at all → connection
    // refused (not a timeout) → NoValidator.
    let dead = {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap()
        // listener dropped: the port is closed.
    };
    let validator = Arc::new(
        RemoteValidator::new().with_timeouts(WireTimeouts::all(Duration::from_millis(200))),
    );
    validator.add_issuer("login", dead);
    let rmc = some_rmc();
    let err = validator
        .validate(
            &oasis_core::Credential::Rmc(rmc),
            &PrincipalId::new("alice"),
            1,
        )
        .unwrap_err();
    assert!(
        matches!(err, OasisError::NoValidator(_)),
        "refused connection is not a timeout: {err:?}"
    );
}
