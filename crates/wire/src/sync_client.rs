//! A network-backed credential validator.
//!
//! The OASIS engine (`oasis-core`) is synchronous; validation callbacks
//! happen inside `activate_role`/`invoke`. When the issuer lives behind a
//! TCP socket, the callback must block on the network — which is exactly
//! what the paper's architecture expects of an "OASIS-aware service"
//! validating "via callback to the issuer" (Sect. 4). [`RemoteValidator`]
//! adapts the blocking [`WireClient`] to the
//! [`CredentialValidator`](oasis_core::CredentialValidator) trait with
//! one connection per issuer, re-dialled with capped exponential backoff
//! (the shared [`oasis_core::retry`] schedule) on transport failure.

use std::collections::HashMap;
use std::net::SocketAddr;

use parking_lot::Mutex;

use oasis_core::retry::{Backoff, RetryPolicy};
use oasis_core::{Credential, CredentialValidator, OasisError, PrincipalId, ServiceId};

use crate::client::{WireClient, WireTimeouts};
use crate::error::WireError;

/// The historical name for the synchronous client, kept for callers that
/// want to emphasise its blocking nature. [`WireClient`] *is* blocking.
pub type BlockingClient = WireClient;

/// A [`CredentialValidator`] that performs validation callbacks over TCP
/// to a directory of issuer addresses.
///
/// Connections are cached per issuer. On a transport error (broken pipe,
/// expired deadline) the connection is dropped and the call re-dialled
/// under the configured [`RetryPolicy`] — issuers restart, networks blip.
/// A *remote* answer (acceptance or rejection) is authoritative and never
/// retried. When retries are exhausted the error maps to
/// [`OasisError::IssuerTimeout`] if the last failure was a deadline
/// expiry, [`OasisError::NoValidator`] otherwise — both transient to the
/// [`ResilientValidator`](oasis_core::ResilientValidator) layered above.
///
/// Overload responses are different from transport failures: a shed
/// ([`WireError::Overloaded`]) or server-side deadline expiry
/// ([`WireError::DeadlineExceeded`]) proves the issuer is alive, so the
/// cached connection is *kept* (no re-dial) and the error surfaces
/// immediately — as [`OasisError::Overloaded`] carrying the server's
/// `retry_after_ms` hint, or [`OasisError::IssuerTimeout`]. Backing off
/// by the hint is the job of the `ResilientValidator` above, which also
/// keeps sheds out of the circuit-breaker accounting.
pub struct RemoteValidator {
    issuers: Mutex<HashMap<ServiceId, SocketAddr>>,
    connections: Mutex<HashMap<ServiceId, WireClient>>,
    timeouts: WireTimeouts,
    retry: RetryPolicy,
    deadline_ms: u64,
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
    /// Default per-call deadline budget. Generous — well past the socket
    /// read deadline, so it never fires first — but its presence marks
    /// every callback as envelope-aware, which is what lets an overloaded
    /// issuer answer with a structured `Overloaded { retry_after_ms }`
    /// instead of the legacy `Error` shape (see the
    /// [`proto` docs](crate::proto)).
    pub const DEFAULT_CALL_DEADLINE_MS: u64 = 30_000;

    /// Creates an empty directory with default socket deadlines, a single
    /// re-dial (the historical behaviour, now with a short pause before
    /// the second attempt), and the default call deadline
    /// ([`RemoteValidator::DEFAULT_CALL_DEADLINE_MS`]).
    pub fn new() -> Self {
        Self {
            issuers: Mutex::new(HashMap::new()),
            connections: Mutex::new(HashMap::new()),
            timeouts: WireTimeouts::default(),
            retry: RetryPolicy {
                max_attempts: 2,
                ..RetryPolicy::default()
            },
            deadline_ms: Self::DEFAULT_CALL_DEADLINE_MS,
        }
    }

    /// Propagates a deadline budget (ms) with every validation callback:
    /// a saturated issuer drops the callback once the budget lapses
    /// instead of answering long after the verifier stopped caring.
    #[must_use]
    pub fn with_call_deadline_ms(mut self, deadline_ms: u64) -> Self {
        self.deadline_ms = deadline_ms;
        self
    }

    /// Replaces the socket deadlines used for new connections.
    #[must_use]
    pub fn with_timeouts(mut self, timeouts: WireTimeouts) -> Self {
        self.timeouts = timeouts;
        self
    }

    /// Replaces the re-dial schedule.
    #[must_use]
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Registers (or updates) the network address of an issuer.
    pub fn add_issuer(&self, id: impl Into<ServiceId>, addr: SocketAddr) {
        let id = id.into();
        self.issuers.lock().insert(id.clone(), addr);
        // Any cached connection may point at a stale address.
        self.connections.lock().remove(&id);
    }

    fn try_validate(
        &self,
        issuer: &ServiceId,
        addr: SocketAddr,
        credential: &Credential,
        presenter: &PrincipalId,
        now: u64,
    ) -> Result<(), WireError> {
        let mut connections = self.connections.lock();
        let client = match connections.entry(issuer.clone()) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::hash_map::Entry::Vacant(e) => {
                let mut client = WireClient::connect_with(addr, self.timeouts)?;
                client.set_deadline_ms(Some(self.deadline_ms));
                e.insert(client)
            }
        };
        client.validate(credential, presenter, now)
    }
}

impl CredentialValidator for RemoteValidator {
    fn validate(
        &self,
        credential: &Credential,
        presenter: &PrincipalId,
        now: u64,
    ) -> Result<(), OasisError> {
        let issuer = credential.issuer().clone();
        let mut backoff = Backoff::new(self.retry);
        loop {
            // Re-read the directory each attempt: a `NotLeader` hint
            // below may have repointed this issuer at the new leader.
            let Some(addr) = self.issuers.lock().get(&issuer).copied() else {
                return Err(OasisError::NoValidator(issuer));
            };
            match self.try_validate(&issuer, addr, credential, presenter, now) {
                Ok(()) => return Ok(()),
                // The issuer answered: authoritative, never retried.
                Err(WireError::Remote(reason)) => {
                    return Err(OasisError::InvalidCredential {
                        crr: credential.crr().clone(),
                        reason,
                    })
                }
                // The issuer shed the request: it is alive and the
                // connection is good — keep it, surface the hint, and let
                // the resilience layer above time the retry.
                Err(WireError::Overloaded { retry_after_ms }) => {
                    return Err(OasisError::Overloaded {
                        service: issuer,
                        retry_after_ms,
                    })
                }
                // Our propagated budget ran out server-side; same shape
                // as a local deadline expiry. The connection stays good.
                Err(WireError::DeadlineExceeded) => return Err(OasisError::IssuerTimeout(issuer)),
                // The issuer is a replicated cluster and we dialled a
                // follower: repoint the directory at the hinted leader
                // (when given) and retry under the same schedule an
                // election would need to settle anyway.
                Err(WireError::NotLeader { hint }) => {
                    self.connections.lock().remove(&issuer);
                    if let Some(leader) = hint.as_deref().and_then(crate::transport::resolve_hint) {
                        self.issuers.lock().insert(issuer.clone(), leader);
                    }
                    match backoff.next_delay() {
                        Some(delay) => {
                            if !delay.is_zero() {
                                std::thread::sleep(delay);
                            }
                        }
                        None => return Err(OasisError::NoValidator(issuer)),
                    }
                }
                Err(transport) => {
                    // Broken or deadline-expired connection: drop it and
                    // re-dial after the backoff delay, if any remain.
                    self.connections.lock().remove(&issuer);
                    match backoff.next_delay() {
                        Some(delay) => {
                            if !delay.is_zero() {
                                std::thread::sleep(delay);
                            }
                        }
                        None => {
                            return Err(if transport.is_timeout() {
                                OasisError::IssuerTimeout(issuer)
                            } else {
                                OasisError::NoValidator(issuer)
                            })
                        }
                    }
                }
            }
        }
    }
}
