//! A network-backed credential validator.
//!
//! The OASIS engine (`oasis-core`) is synchronous; validation callbacks
//! happen inside `activate_role`/`invoke`. When the issuer lives behind a
//! TCP socket, the callback must block on the network — which is exactly
//! what the paper's architecture expects of an "OASIS-aware service"
//! validating "via callback to the issuer" (Sect. 4). [`RemoteValidator`]
//! adapts the blocking [`WireClient`] to the
//! [`CredentialValidator`](oasis_core::CredentialValidator) trait, one
//! attempt per callback. Retries, their backoff and the circuit breaker
//! belong to the [`ResilientValidator`](oasis_core::ResilientValidator)
//! layered on top: a failed validation dials the issuer once per attempt
//! that layer schedules.

use std::collections::HashMap;
use std::io::ErrorKind;
use std::net::SocketAddr;

use parking_lot::Mutex;

use oasis_core::{Credential, CredentialValidator, OasisError, PrincipalId, ServiceId};

use crate::client::{WireClient, WireTimeouts};
use crate::error::WireError;
use crate::transport::resolve_hint;

/// Where an issuer lives, and the connections to it no callback is using.
struct Issuer {
    addr: SocketAddr,
    idle: Vec<WireClient>,
}

/// A [`CredentialValidator`] that performs validation callbacks over TCP
/// to a directory of issuer addresses.
///
/// A callback checks an idle connection to the issuer out of the
/// directory (or dials one) and makes its round trip with no lock held,
/// so concurrent callbacks overlap, each on its own connection.
///
/// Each callback is **one attempt**:
///
/// * An answer keeps the connection: acceptance, a rejection
///   ([`OasisError::InvalidCredential`]), a shed
///   ([`OasisError::Overloaded`] carrying the server's `retry_after_ms`)
///   or a server-side deadline expiry ([`OasisError::IssuerTimeout`]).
/// * A transport failure drops the connection and surfaces as
///   [`OasisError::IssuerTimeout`] when a deadline expired and
///   [`OasisError::NoValidator`] otherwise, both transient to the retry
///   owner above.
/// * Two steps inside an attempt are not retries. An idle connection the
///   issuer has since closed or reset is replaced by one fresh dial (the
///   callback never reached a live issuer). A replica follower's
///   `NotLeader { hint }` is followed once to the hinted leader, which
///   becomes the issuer's address. An unhinted `NotLeader` (an election
///   in progress) is [`OasisError::NoValidator`].
///
/// Every callback carries a deadline budget equal to the read deadline of
/// its [`WireTimeouts`], the point at which this validator stops
/// listening: a saturated issuer drops a callback nobody waits for
/// instead of executing it.
pub struct RemoteValidator {
    issuers: Mutex<HashMap<ServiceId, Issuer>>,
    timeouts: WireTimeouts,
}

impl std::fmt::Debug for RemoteValidator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteValidator")
            .field("issuers", &self.issuers.lock().len())
            .field("timeouts", &self.timeouts)
            .finish()
    }
}

impl Default for RemoteValidator {
    fn default() -> Self {
        Self::new()
    }
}

impl RemoteValidator {
    /// Creates an empty directory with the default socket deadlines
    /// ([`WireTimeouts::default`]: 5 s each).
    pub fn new() -> Self {
        Self {
            issuers: Mutex::new(HashMap::new()),
            timeouts: WireTimeouts::default(),
        }
    }

    /// Replaces the socket deadlines used for new connections. The read
    /// deadline is also the budget every callback carries.
    #[must_use]
    pub fn with_timeouts(mut self, timeouts: WireTimeouts) -> Self {
        self.timeouts = timeouts;
        self
    }

    /// Registers (or updates) the network address of an issuer, dropping
    /// the idle connections to its previous address.
    pub fn add_issuer(&self, id: impl Into<ServiceId>, addr: SocketAddr) {
        let issuer = Issuer {
            addr,
            idle: Vec::new(),
        };
        self.issuers.lock().insert(id.into(), issuer);
    }

    fn dial(&self, addr: SocketAddr) -> Result<WireClient, WireError> {
        let mut client = WireClient::connect_with(addr, self.timeouts)?;
        client.set_deadline_ms(self.timeouts.read.map(|read| read.as_millis() as u64));
        Ok(client)
    }

    /// One callback to `issuer` at `addr`, on the `cached` connection or
    /// a fresh dial.
    fn exchange(
        &self,
        issuer: &ServiceId,
        addr: SocketAddr,
        cached: Option<WireClient>,
        credential: &Credential,
        presenter: &PrincipalId,
        now: u64,
    ) -> Result<(), WireError> {
        let mut client = match cached {
            Some(mut client) => match client.validate(credential, presenter, now) {
                Err(e) if closed_by_peer(&e) => self.dial(addr)?,
                result => return self.check_in(issuer, addr, client, result),
            },
            None => self.dial(addr)?,
        };
        let result = client.validate(credential, presenter, now);
        self.check_in(issuer, addr, client, result)
    }

    /// Puts `client` back on the idle list if the issuer answered on it
    /// and still lives at `addr`, and passes `result` through.
    fn check_in(
        &self,
        issuer: &ServiceId,
        addr: SocketAddr,
        client: WireClient,
        result: Result<(), WireError>,
    ) -> Result<(), WireError> {
        let answered = matches!(
            result,
            Ok(())
                | Err(WireError::Remote(_)
                    | WireError::Overloaded { .. }
                    | WireError::DeadlineExceeded)
        );
        if answered {
            let mut issuers = self.issuers.lock();
            if let Some(entry) = issuers.get_mut(issuer).filter(|entry| entry.addr == addr) {
                entry.idle.push(client);
            }
        }
        result
    }
}

/// Whether an idle connection failed because the issuer had closed or
/// reset it (a restart, or its idle sweep) rather than by timing out.
fn closed_by_peer(error: &WireError) -> bool {
    match error {
        WireError::Closed => true,
        WireError::Io(e) => matches!(
            e.kind(),
            ErrorKind::ConnectionReset
                | ErrorKind::ConnectionAborted
                | ErrorKind::BrokenPipe
                | ErrorKind::UnexpectedEof
        ),
        _ => false,
    }
}

impl CredentialValidator for RemoteValidator {
    fn validate(
        &self,
        credential: &Credential,
        presenter: &PrincipalId,
        now: u64,
    ) -> Result<(), OasisError> {
        let issuer = credential.issuer();
        let (addr, cached) = {
            let mut issuers = self.issuers.lock();
            let entry = issuers
                .get_mut(issuer)
                .ok_or_else(|| OasisError::NoValidator(issuer.clone()))?;
            (entry.addr, entry.idle.pop())
        };
        let mut result = self.exchange(issuer, addr, cached, credential, presenter, now);
        // A follower of a replicated issuer named its leader: ask there,
        // and send later callbacks there too.
        if let Err(WireError::NotLeader { hint: Some(hint) }) = &result {
            if let Some(leader) = resolve_hint(hint) {
                self.add_issuer(issuer.clone(), leader);
                result = self.exchange(issuer, leader, None, credential, presenter, now);
            }
        }
        result.map_err(|error| match error {
            WireError::Remote(reason) => OasisError::InvalidCredential {
                crr: credential.crr().clone(),
                reason,
            },
            WireError::Overloaded { retry_after_ms } => OasisError::Overloaded {
                service: issuer.clone(),
                retry_after_ms,
            },
            e if matches!(e, WireError::DeadlineExceeded) || e.is_timeout() => {
                OasisError::IssuerTimeout(issuer.clone())
            }
            _ => OasisError::NoValidator(issuer.clone()),
        })
    }
}
