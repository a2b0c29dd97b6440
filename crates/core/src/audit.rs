//! The append-only audit log kept by every OASIS service.
//!
//! The paper requires audit at several points: cross-domain invocations
//! record the originating principal ("the identity of the original
//! requester can be recorded for audit", Sect. 3), and Sect. 6 builds its
//! trust proposal on *audit certificates* derived from interaction
//! records. [`AuditLog`] is the service-local base: an ordered, queryable
//! record of every security-relevant decision.

use std::fmt;

use crate::cert::Crr;
use crate::ids::{PrincipalId, RoleName};
use crate::value::Value;
use parking_lot::Mutex;

/// What a single audit entry records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuditKind {
    /// A role was activated and an RMC issued.
    RoleActivated {
        /// Who activated.
        principal: PrincipalId,
        /// The role.
        role: RoleName,
        /// The role parameters.
        args: Vec<Value>,
        /// The issued certificate.
        crr: Crr,
    },
    /// A role activation was refused.
    ActivationDenied {
        /// Who asked.
        principal: PrincipalId,
        /// The role.
        role: RoleName,
        /// Why.
        reason: String,
    },
    /// A method invocation was authorised.
    Invoked {
        /// Who invoked.
        principal: PrincipalId,
        /// The method.
        method: String,
        /// Invocation arguments.
        args: Vec<Value>,
        /// Credentials that authorised the call (for cross-domain audit).
        credentials: Vec<Crr>,
    },
    /// A method invocation was refused.
    InvocationDenied {
        /// Who asked.
        principal: PrincipalId,
        /// The method.
        method: String,
        /// Why.
        reason: String,
    },
    /// A presented credential failed validation.
    CredentialRejected {
        /// Presenting principal.
        principal: PrincipalId,
        /// The credential.
        crr: Crr,
        /// Why.
        reason: String,
    },
    /// An appointment certificate was issued.
    AppointmentIssued {
        /// The appointer (active in an appointer role).
        appointer: PrincipalId,
        /// The appointee the certificate names.
        appointee: PrincipalId,
        /// The appointment kind.
        name: String,
        /// The issued certificate.
        crr: Crr,
    },
    /// A certificate was revoked.
    CertRevoked {
        /// The certificate.
        crr: Crr,
        /// Why.
        reason: String,
    },
    /// A certificate lapsed at its expiry time.
    CertExpired {
        /// The certificate.
        crr: Crr,
    },
    /// The service rebuilt its state from the durability journal.
    Recovered {
        /// Journal events replayed after the snapshot.
        events_replayed: u64,
        /// Credential records restored (all statuses).
        records_restored: u64,
    },
    /// A transport-level fault the service survived (e.g. a transient
    /// `accept()` failure retried with backoff, or a fatal one that shut
    /// the listener down). Recorded so operators can distinguish "quiet
    /// because idle" from "quiet because the front door is failing".
    TransportFault {
        /// The failing operation (e.g. `"accept"`).
        op: String,
        /// The underlying error, stringified.
        detail: String,
    },
}

impl AuditKind {
    /// A short machine-friendly tag for the entry kind.
    pub fn tag(&self) -> &'static str {
        match self {
            AuditKind::RoleActivated { .. } => "role_activated",
            AuditKind::ActivationDenied { .. } => "activation_denied",
            AuditKind::Invoked { .. } => "invoked",
            AuditKind::InvocationDenied { .. } => "invocation_denied",
            AuditKind::CredentialRejected { .. } => "credential_rejected",
            AuditKind::AppointmentIssued { .. } => "appointment_issued",
            AuditKind::CertRevoked { .. } => "cert_revoked",
            AuditKind::CertExpired { .. } => "cert_expired",
            AuditKind::Recovered { .. } => "recovered",
            AuditKind::TransportFault { .. } => "transport_fault",
        }
    }
}

/// One audit entry: what happened, when, in sequence order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditEntry {
    /// Monotonic sequence number within this log.
    pub seq: u64,
    /// Virtual time the entry was recorded.
    pub at: u64,
    /// The event.
    pub kind: AuditKind,
}

impl fmt::Display for AuditEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{} t{} {}", self.seq, self.at, self.kind.tag())
    }
}

/// An append-only, thread-safe audit log.
///
/// # Example
///
/// ```
/// use oasis_core::{AuditKind, AuditLog, Crr, CertId, ServiceId};
///
/// let log = AuditLog::new();
/// log.record(5, AuditKind::CertRevoked {
///     crr: Crr::new(ServiceId::new("svc"), CertId(1)),
///     reason: "shift ended".into(),
/// });
/// assert_eq!(log.len(), 1);
/// assert_eq!(log.entries()[0].at, 5);
/// ```
#[derive(Debug, Default)]
pub struct AuditLog {
    entries: Mutex<Vec<AuditEntry>>,
}

impl AuditLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an entry at virtual time `at`, returning its sequence
    /// number.
    pub fn record(&self, at: u64, kind: AuditKind) -> u64 {
        let mut entries = self.entries.lock();
        let seq = entries.len() as u64;
        entries.push(AuditEntry { seq, at, kind });
        seq
    }

    /// A snapshot of all entries in order.
    pub fn entries(&self) -> Vec<AuditEntry> {
        self.entries.lock().clone()
    }

    /// Entries satisfying a predicate.
    pub fn entries_where(&self, f: impl Fn(&AuditEntry) -> bool) -> Vec<AuditEntry> {
        self.entries
            .lock()
            .iter()
            .filter(|e| f(e))
            .cloned()
            .collect()
    }

    /// Entries with the given kind tag (see [`AuditKind::tag`]).
    pub fn entries_tagged(&self, tag: &str) -> Vec<AuditEntry> {
        self.entries_where(|e| e.kind.tag() == tag)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.lock().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{CertId, ServiceId};

    fn crr(n: u64) -> Crr {
        Crr::new(ServiceId::new("svc"), CertId(n))
    }

    #[test]
    fn sequence_numbers_are_dense_and_ordered() {
        let log = AuditLog::new();
        for i in 0..5 {
            let seq = log.record(i * 10, AuditKind::CertExpired { crr: crr(i) });
            assert_eq!(seq, i);
        }
        let entries = log.entries();
        assert_eq!(entries.len(), 5);
        for (i, e) in entries.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
        }
    }

    #[test]
    fn filtering_by_tag() {
        let log = AuditLog::new();
        log.record(0, AuditKind::CertExpired { crr: crr(1) });
        log.record(
            1,
            AuditKind::CertRevoked {
                crr: crr(2),
                reason: "r".into(),
            },
        );
        log.record(2, AuditKind::CertExpired { crr: crr(3) });
        assert_eq!(log.entries_tagged("cert_expired").len(), 2);
        assert_eq!(log.entries_tagged("cert_revoked").len(), 1);
        assert_eq!(log.entries_tagged("invoked").len(), 0);
    }

    #[test]
    fn entries_where_predicate() {
        let log = AuditLog::new();
        log.record(10, AuditKind::CertExpired { crr: crr(1) });
        log.record(20, AuditKind::CertExpired { crr: crr(2) });
        assert_eq!(log.entries_where(|e| e.at >= 15).len(), 1);
    }

    #[test]
    fn empty_and_len() {
        let log = AuditLog::new();
        assert!(log.is_empty());
        log.record(0, AuditKind::CertExpired { crr: crr(1) });
        assert!(!log.is_empty());
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn display_form() {
        let log = AuditLog::new();
        log.record(7, AuditKind::CertExpired { crr: crr(1) });
        assert_eq!(log.entries()[0].to_string(), "#0 t7 cert_expired");
    }
}
