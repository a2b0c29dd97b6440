//! Credential validation by callback to the issuer.
//!
//! "An OASIS-aware service will validate a certificate presented as an
//! argument via callback to the issuer" (Sect. 4). [`CredentialValidator`]
//! abstracts that callback so the core engine works unchanged whether the
//! issuer is in-process ([`LocalRegistry`]) or across the network
//! (`oasis-wire`'s `RemoteValidator`), with `oasis-domain`'s `SlaGate` in
//! front (no callback for a foreign credential no service-level agreement
//! covers) or not. Caching of the callback's result, with revocation push,
//! is the relying service's own
//! ([`ServiceConfig::with_validation_cache`](crate::ServiceConfig::with_validation_cache)).

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Weak};

use parking_lot::RwLock;

use crate::cert::Credential;
use crate::error::OasisError;
use crate::ids::{PrincipalId, ServiceId};
use crate::service::OasisService;

/// Validates credentials by reaching their issuer.
pub trait CredentialValidator: Send + Sync {
    /// Validates `credential` as presented by `presenter` at virtual time
    /// `now`.
    ///
    /// # Errors
    ///
    /// [`OasisError::InvalidCredential`] when the certificate fails
    /// signature or status checks, [`OasisError::UnknownCertificate`] when
    /// the issuer has no record of it, [`OasisError::NoValidator`] when the
    /// issuer cannot be reached.
    fn validate(
        &self,
        credential: &Credential,
        presenter: &PrincipalId,
        now: u64,
    ) -> Result<(), OasisError>;
}

/// An in-process issuer directory: validation callbacks become direct
/// method calls on the registered [`OasisService`]s.
///
/// Holds weak references so a registry never keeps services alive.
#[derive(Default)]
pub struct LocalRegistry {
    services: RwLock<HashMap<ServiceId, Weak<OasisService>>>,
}

impl LocalRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a service as reachable for validation callbacks.
    pub fn register(&self, service: &Arc<OasisService>) {
        self.services
            .write()
            .insert(service.id().clone(), Arc::downgrade(service));
    }

    /// Looks up a registered service.
    pub fn service(&self, id: &ServiceId) -> Option<Arc<OasisService>> {
        self.services.read().get(id).and_then(Weak::upgrade)
    }

    /// Registered service ids, sorted.
    pub fn services(&self) -> Vec<ServiceId> {
        let mut ids: Vec<ServiceId> = self.services.read().keys().cloned().collect();
        ids.sort();
        ids
    }
}

impl fmt::Debug for LocalRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LocalRegistry")
            .field("services", &self.services())
            .finish()
    }
}

impl CredentialValidator for LocalRegistry {
    fn validate(
        &self,
        credential: &Credential,
        presenter: &PrincipalId,
        now: u64,
    ) -> Result<(), OasisError> {
        let issuer = credential.issuer();
        let service = self
            .service(issuer)
            .ok_or_else(|| OasisError::NoValidator(issuer.clone()))?;
        service.validate_own(credential, presenter, now)
    }
}
