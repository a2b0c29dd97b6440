//! Client-side sessions: the principal's wallet of credentials.
//!
//! "Roles are activated within sessions. A session is started by
//! activating an initial role such as *logged in user*. Most roles have
//! activation conditions that require prerequisite roles and a session of
//! active roles is built up." (Sect. 1)
//!
//! The *authoritative* state — credential records, dependency tracking,
//! cascade revocation — lives with the issuing services (Fig 5); a
//! [`Session`] is the principal-side view: the certificates collected so
//! far, in dependency order, with helpers to present them as credentials
//! and to prune those the issuers no longer honour.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use oasis_json::{json_struct, JsonError};

use crate::cert::{Credential, Crr, Rmc};
use crate::ids::{PrincipalId, RoleName, ServiceId, SessionId};
use crate::validate::CredentialValidator;
use crate::value::Value;

static NEXT_SESSION: AtomicU64 = AtomicU64::new(1);

/// A principal's session: the credentials accumulated since activating an
/// initial role.
///
/// # Example
///
/// ```no_run
/// use oasis_core::{Session, PrincipalId};
///
/// let mut session = Session::start(PrincipalId::new("alice"));
/// // … activate roles at services, then:
/// // session.add_rmc(rmc);
/// // service.invoke(..., &session.credentials(), ...);
/// ```
#[derive(Debug)]
pub struct Session {
    id: SessionId,
    principal: PrincipalId,
    credentials: Vec<Credential>,
}

impl Session {
    /// Starts an empty session for `principal`.
    pub fn start(principal: PrincipalId) -> Self {
        Self {
            id: SessionId(NEXT_SESSION.fetch_add(1, Ordering::Relaxed)),
            principal,
            credentials: Vec::new(),
        }
    }

    /// The session id.
    pub fn id(&self) -> SessionId {
        self.id
    }

    /// The session's principal.
    pub fn principal(&self) -> &PrincipalId {
        &self.principal
    }

    /// Adds a role membership certificate obtained from a service.
    pub fn add_rmc(&mut self, rmc: Rmc) {
        self.credentials.push(Credential::Rmc(rmc));
    }

    /// Adds any credential (RMC or appointment certificate).
    pub fn add_credential(&mut self, credential: Credential) {
        self.credentials.push(credential);
    }

    /// Every credential held, in acquisition order — pass this to
    /// `activate_role` / `invoke`.
    pub fn credentials(&self) -> &[Credential] {
        &self.credentials
    }

    /// The RMC for `role` at `service`, if held.
    pub fn rmc_for(&self, service: &ServiceId, role: &RoleName) -> Option<&Rmc> {
        self.credentials.iter().find_map(|c| match c {
            Credential::Rmc(r) if r.crr.issuer == *service && r.role == *role => Some(r),
            _ => None,
        })
    }

    /// Removes a credential by its record reference; returns whether it
    /// was present.
    pub fn remove(&mut self, crr: &Crr) -> bool {
        let before = self.credentials.len();
        self.credentials.retain(|c| c.crr() != crr);
        self.credentials.len() != before
    }

    /// Asks the issuers (via `validator`) which credentials are still
    /// honoured and drops the rest. Returns the dropped record references.
    ///
    /// After a revocation cascade on the server side (Fig 5), this brings
    /// the client's wallet back in line with the authoritative state.
    pub fn prune_invalid(&mut self, validator: &dyn CredentialValidator, now: u64) -> Vec<Crr> {
        let principal = self.principal.clone();
        let mut dropped = Vec::new();
        self.credentials.retain(|c| {
            if validator.validate(c, &principal, now).is_ok() {
                true
            } else {
                dropped.push(c.crr().clone());
                false
            }
        });
        dropped
    }

    /// A summary of the currently held roles (service, role, parameters).
    pub fn view(&self) -> SessionView {
        let mut roles = Vec::new();
        for c in &self.credentials {
            if let Credential::Rmc(r) = c {
                roles.push((r.crr.issuer.clone(), r.role.clone(), r.args.clone()));
            }
        }
        SessionView {
            id: self.id,
            principal: self.principal.clone(),
            active_roles: roles,
        }
    }

    /// Number of credentials held.
    pub fn len(&self) -> usize {
        self.credentials.len()
    }

    /// Whether the wallet is empty.
    pub fn is_empty(&self) -> bool {
        self.credentials.is_empty()
    }

    /// Serialises the wallet (id, principal, credentials in order) to a
    /// JSON string, so a client can persist it across restarts and
    /// resume with [`Session::restore`] instead of re-activating every
    /// role from scratch.
    pub fn save(&self) -> String {
        oasis_json::to_string(self)
    }

    /// Restores a wallet saved by [`Session::save`]. The session keeps
    /// its original id. Restored credentials may have been revoked
    /// while the client was down — call [`Session::prune_invalid`]
    /// against the issuers before trusting the wallet.
    ///
    /// # Errors
    ///
    /// [`JsonError`] when the text is not valid saved-session JSON.
    pub fn restore(text: &str) -> Result<Self, JsonError> {
        oasis_json::from_str(text)
    }
}

json_struct! { Session { id, principal, credentials } }

/// A read-only summary of a session's active roles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionView {
    /// The session id.
    pub id: SessionId,
    /// The principal.
    pub principal: PrincipalId,
    /// `(service, role, parameters)` for each held RMC.
    pub active_roles: Vec<(ServiceId, RoleName, Vec<Value>)>,
}

impl fmt::Display for SessionView {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} ({})", self.id, self.principal)?;
        for (svc, role, args) in &self.active_roles {
            write!(f, "  {svc}.{role}(")?;
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{a}")?;
            }
            writeln!(f, ")")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cert::Rmc;
    use crate::ids::CertId;
    use oasis_crypto::{IssuerSecret, SecretEpoch};

    fn rmc(issuer: &str, id: u64, role: &str) -> Rmc {
        let secret = IssuerSecret::random();
        Rmc::issue(
            &secret.current(),
            SecretEpoch(0),
            &PrincipalId::new("alice"),
            Crr::new(ServiceId::new(issuer), CertId(id)),
            RoleName::new(role),
            vec![Value::id("x")],
            0,
            None,
        )
    }

    #[test]
    fn sessions_get_distinct_ids() {
        let a = Session::start(PrincipalId::new("a"));
        let b = Session::start(PrincipalId::new("b"));
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn wallet_accumulates_and_finds_rmcs() {
        let mut s = Session::start(PrincipalId::new("alice"));
        assert!(s.is_empty());
        s.add_rmc(rmc("login", 1, "logged_in"));
        s.add_rmc(rmc("hospital", 2, "doctor"));
        assert_eq!(s.len(), 2);
        assert!(s
            .rmc_for(&ServiceId::new("hospital"), &RoleName::new("doctor"))
            .is_some());
        assert!(s
            .rmc_for(&ServiceId::new("hospital"), &RoleName::new("nurse"))
            .is_none());
    }

    #[test]
    fn remove_by_crr() {
        let mut s = Session::start(PrincipalId::new("alice"));
        s.add_rmc(rmc("svc", 1, "r"));
        let crr = Crr::new(ServiceId::new("svc"), CertId(1));
        assert!(s.remove(&crr));
        assert!(!s.remove(&crr));
        assert!(s.is_empty());
    }

    #[test]
    fn view_lists_roles_in_order() {
        let mut s = Session::start(PrincipalId::new("alice"));
        s.add_rmc(rmc("login", 1, "logged_in"));
        s.add_rmc(rmc("hospital", 2, "doctor"));
        let view = s.view();
        assert_eq!(view.active_roles.len(), 2);
        assert_eq!(view.active_roles[0].1, RoleName::new("logged_in"));
        assert_eq!(view.active_roles[1].1, RoleName::new("doctor"));
        let shown = view.to_string();
        assert!(shown.contains("hospital.doctor(x)"));
    }

    #[test]
    fn wallet_save_restore_round_trips() {
        let mut s = Session::start(PrincipalId::new("alice"));
        s.add_rmc(rmc("login", 1, "logged_in"));
        s.add_rmc(rmc("hospital", 2, "doctor"));
        let saved = s.save();
        let back = Session::restore(&saved).unwrap();
        assert_eq!(back.id(), s.id());
        assert_eq!(back.principal(), s.principal());
        assert_eq!(back.credentials(), s.credentials());
        assert!(Session::restore("{not json").is_err());
    }

    #[test]
    fn prune_drops_what_the_validator_rejects() {
        struct RejectService(ServiceId);
        impl CredentialValidator for RejectService {
            fn validate(
                &self,
                credential: &Credential,
                _presenter: &PrincipalId,
                _now: u64,
            ) -> Result<(), crate::OasisError> {
                if credential.issuer() == &self.0 {
                    Err(crate::OasisError::InvalidCredential {
                        crr: credential.crr().clone(),
                        reason: "revoked".into(),
                    })
                } else {
                    Ok(())
                }
            }
        }

        let mut s = Session::start(PrincipalId::new("alice"));
        s.add_rmc(rmc("login", 1, "logged_in"));
        s.add_rmc(rmc("hospital", 2, "doctor"));
        let dropped = s.prune_invalid(&RejectService(ServiceId::new("hospital")), 0);
        assert_eq!(
            dropped,
            vec![Crr::new(ServiceId::new("hospital"), CertId(2))]
        );
        assert_eq!(s.len(), 1);
    }
}
