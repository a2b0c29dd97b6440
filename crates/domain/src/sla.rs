//! Service-level agreements and the federation of domains.
//!
//! "Widely distributed services may establish agreements on the use of
//! one another's appointment certificates" (Sect. 1); cross-domain
//! invocations rest on "prior service-level agreements" (Sect. 3). A
//! credential from another domain is accepted **only** when a clause of
//! an SLA between the domains covers it; otherwise validation fails
//! before any callback is attempted.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use parking_lot::RwLock;

use oasis_core::{
    CertEvent, Credential, CredentialKind, CredentialValidator, DomainId, LocalRegistry,
    OasisError, OasisService, PrincipalId, ServiceId,
};
use oasis_events::EventBus;

/// One credential shape a consumer domain agrees to accept.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlaClause {
    /// The issuing service (in the producer domain).
    pub issuer: ServiceId,
    /// The role or appointment name.
    pub name: String,
    /// RMC or appointment certificate.
    pub kind: CredentialKind,
}

/// A directional service-level agreement: `consumer` accepts the listed
/// credentials issued inside `producer`. Mutual agreements (the paper's
/// hospital ↔ research-institute example) are two `Sla`s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sla {
    /// The domain doing the accepting.
    pub consumer: DomainId,
    /// The domain whose credentials are accepted.
    pub producer: DomainId,
    /// What exactly is accepted.
    pub clauses: Vec<SlaClause>,
}

impl Sla {
    /// Starts an agreement: `consumer` will accept from `producer`.
    pub fn between(consumer: impl Into<DomainId>, producer: impl Into<DomainId>) -> Self {
        Self {
            consumer: consumer.into(),
            producer: producer.into(),
            clauses: Vec::new(),
        }
    }

    /// Adds an accepted credential shape.
    #[must_use]
    pub fn accept(mut self, clause: SlaClause) -> Self {
        self.clauses.push(clause);
        self
    }

    /// Whether this agreement covers the given credential.
    pub fn covers(&self, credential: &Credential) -> bool {
        self.clauses.iter().any(|c| {
            c.issuer == *credential.issuer()
                && c.name == credential.name()
                && c.kind == credential.kind()
        })
    }
}

impl fmt::Display for Sla {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} accepts from {}:", self.consumer, self.producer)?;
        for c in &self.clauses {
            writeln!(f, "  {} {} issued by {}", c.kind, c.name, c.issuer)?;
        }
        Ok(())
    }
}

/// The SLA graph between domains, the domain each service lives in, the
/// in-process directory of those services, and the shared inter-domain
/// event bus (Fig 5's wide-area event channels) on which revocations cross
/// domain boundaries.
#[derive(Debug, Default)]
pub struct Federation {
    bus: EventBus<CertEvent>,
    registry: Arc<LocalRegistry>,
    homes: RwLock<HashMap<ServiceId, DomainId>>,
    slas: RwLock<Vec<Sla>>,
}

impl Federation {
    /// Creates an empty federation with a fresh shared bus.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// The shared inter-domain event bus.
    pub fn bus(&self) -> &EventBus<CertEvent> {
        &self.bus
    }

    /// Places `service` in `domain`.
    /// [`Domain::create_service`](crate::Domain::create_service) does this
    /// for the services it creates; a remote issuer reached over the wire
    /// is placed by hand, as deployment data beside its address.
    ///
    /// # Errors
    ///
    /// The domain already holding `service`, if that is another domain:
    /// an id has one home. Placing it again in the same domain is a no-op.
    pub fn place(
        &self,
        service: impl Into<ServiceId>,
        domain: impl Into<DomainId>,
    ) -> Result<(), DomainId> {
        let domain = domain.into();
        let mut homes = self.homes.write();
        let home = homes.entry(service.into()).or_insert(domain.clone());
        if *home != domain {
            return Err(home.clone());
        }
        Ok(())
    }

    /// Places `service` in `domain` and makes it reachable for in-process
    /// callbacks.
    pub(crate) fn join(&self, domain: &DomainId, service: &Arc<OasisService>) {
        if let Err(home) = self.place(service.id().clone(), domain.clone()) {
            let id = service.id();
            panic!("service `{id}` already lives in domain `{home}`");
        }
        self.registry.register(service);
    }

    /// Records an agreement.
    pub fn add_sla(&self, sla: Sla) {
        self.slas.write().push(sla);
    }

    /// Whether a service of `home` may present `credential` to its issuer:
    /// the issuer is placed, and is either at home or covered by an SLA.
    fn admits(&self, home: &DomainId, credential: &Credential) -> Result<(), OasisError> {
        let issuer = credential.issuer();
        let homes = self.homes.read();
        let producer = homes
            .get(issuer)
            .ok_or_else(|| OasisError::NoValidator(issuer.clone()))?;
        let covered = |sla: &Sla| {
            sla.consumer == *home && sla.producer == *producer && sla.covers(credential)
        };
        if producer == home || self.slas.read().iter().any(covered) {
            return Ok(());
        }
        Err(OasisError::InvalidCredential {
            crr: credential.crr().clone(),
            reason: format!(
                "no service-level agreement lets `{home}` accept `{}` from `{producer}`",
                credential.name()
            ),
        })
    }

    /// The gate for services of `home` in front of `inner`, the callback
    /// path to the issuers (a `RemoteValidator` behind a
    /// `ResilientValidator` on the wire, say).
    pub fn gate(
        self: &Arc<Self>,
        home: impl Into<DomainId>,
        inner: Arc<dyn CredentialValidator>,
    ) -> Arc<SlaGate> {
        Arc::new(SlaGate {
            federation: Arc::clone(self),
            home: home.into(),
            inner,
        })
    }

    /// The gate for services of `home` in front of the federation's own
    /// directory: callbacks go straight to the issuing service.
    pub fn validator_for(self: &Arc<Self>, home: impl Into<DomainId>) -> Arc<SlaGate> {
        self.gate(home, self.registry.clone())
    }
}

/// The cross-domain gate: a [`CredentialValidator`] that refuses a foreign
/// credential no SLA covers *before* its inner validator calls back to the
/// issuer. Built by [`Federation::gate`] or [`Federation::validator_for`].
///
/// * an issuer the federation has not placed: [`OasisError::NoValidator`];
/// * a foreign credential no clause covers: [`OasisError::InvalidCredential`];
/// * otherwise: whatever the inner validator answers.
pub struct SlaGate {
    // The federation holds services only weakly (its registry), so this
    // strong reference closes no cycle through a service's validator.
    federation: Arc<Federation>,
    home: DomainId,
    inner: Arc<dyn CredentialValidator>,
}

impl CredentialValidator for SlaGate {
    fn validate(
        &self,
        credential: &Credential,
        presenter: &PrincipalId,
        now: u64,
    ) -> Result<(), OasisError> {
        self.federation.admits(&self.home, credential)?;
        self.inner.validate(credential, presenter, now)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::Domain;
    use oasis_core::{EnvContext, RoleName};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Defines a parameterless `role` on `service` and issues it to `dr`.
    pub(crate) fn issue(service: &OasisService, role: &str, dr: &PrincipalId) -> Credential {
        service.define_role(role, &[], true).unwrap();
        service
            .add_activation_rule(role, vec![], vec![], vec![])
            .unwrap();
        let role = RoleName::new(role);
        let ctx = EnvContext::new(0);
        Credential::Rmc(service.activate_role(dr, &role, &[], &[], &ctx).unwrap())
    }

    /// `cred` as if issued by a service the federation never placed.
    fn from_nowhere(cred: Credential) -> Credential {
        let Credential::Rmc(mut rmc) = cred else {
            unreachable!()
        };
        rmc.crr.issuer = ServiceId::new("nowhere");
        Credential::Rmc(rmc)
    }

    /// Two domains: a hospital issuing `treating_doctor` RMCs and a
    /// national EHR domain that accepts them only under an SLA.
    fn setup() -> (Arc<Federation>, Arc<OasisService>, Credential, PrincipalId) {
        let federation = Federation::new();
        let records = Domain::new("hospital", &federation).create_service("records");
        let dr = PrincipalId::new("dr-jones");
        let rmc = issue(&records, "treating_doctor", &dr);
        (federation, records, rmc, dr)
    }

    /// `consumer` accepts `records`' `name` RMCs from `producer`.
    fn sla(consumer: &str, producer: &str, name: &str) -> Sla {
        Sla::between(consumer, producer).accept(SlaClause {
            issuer: "records".into(),
            name: name.into(),
            kind: CredentialKind::Rmc,
        })
    }

    #[test]
    fn foreign_credential_refused_without_sla() {
        let (federation, _records, cred, dr) = setup();
        let validator = federation.validator_for("national");
        let err = validator.validate(&cred, &dr, 1).unwrap_err();
        assert!(err.to_string().contains("service-level agreement"), "{err}");
    }

    #[test]
    fn sla_clause_admits_exactly_the_named_shape() {
        let (federation, _records, cred, dr) = setup();
        federation.add_sla(sla("national", "hospital", "treating_doctor"));
        let validator = federation.validator_for("national");
        assert!(validator.validate(&cred, &dr, 1).is_ok());
        // The MAC still binds the principal: a thief fails even with an SLA.
        assert!(validator
            .validate(&cred, &PrincipalId::new("mallory"), 1)
            .is_err());
    }

    #[test]
    fn sla_does_not_cover_other_names_or_kinds() {
        let (federation, _records, cred, dr) = setup();
        federation.add_sla(sla("national", "hospital", "nurse")); // different role
        let validator = federation.validator_for("national");
        assert!(validator.validate(&cred, &dr, 1).is_err());
    }

    #[test]
    fn sla_is_directional() {
        let (federation, _records, cred, dr) = setup();
        // The *reverse* agreement does not help.
        federation.add_sla(sla("hospital", "national", "treating_doctor"));
        let validator = federation.validator_for("national");
        assert!(validator.validate(&cred, &dr, 1).is_err());
    }

    #[test]
    fn home_credentials_need_no_sla() {
        let (federation, _records, cred, dr) = setup();
        let validator = federation.validator_for("hospital");
        assert!(validator.validate(&cred, &dr, 1).is_ok());
    }

    #[test]
    fn home_callback_binds_the_presenter_and_needs_a_federated_issuer() {
        let (federation, _records, cred, dr) = setup();
        let validator = federation.validator_for("hospital");
        // The callback ends at the issuing service itself: the right
        // presenter is accepted, a thief is refused.
        assert!(validator.validate(&cred, &dr, 1).is_ok());
        assert!(matches!(
            validator.validate(&cred, &PrincipalId::new("mallory"), 1),
            Err(OasisError::InvalidCredential { .. })
        ));

        // A live service that the federation has not placed: its (perfectly valid) credential has nobody to call
        // back to.
        let lab = OasisService::new(oasis_core::ServiceConfig::new("lab"), Arc::default());
        let tech = issue(&lab, "tech", &dr);
        assert!(lab.validate_own(&tech, &dr, 1).is_ok());
        assert!(matches!(
            validator.validate(&tech, &dr, 1),
            Err(OasisError::NoValidator(issuer)) if issuer == ServiceId::new("lab")
        ));
    }

    #[test]
    fn cross_domain_revocation_propagates_through_shared_bus() {
        let (federation, records, cred, dr) = setup();
        federation.add_sla(sla("national", "hospital", "treating_doctor"));
        let validator = federation.validator_for("national");
        validator.validate(&cred, &dr, 1).unwrap();

        // The hospital revokes; the event crosses on the federation's
        // shared bus and the next callback is refused at the issuer.
        let before = federation.bus().stats().published;
        records.revoke_certificate(cred.crr().cert_id, "shift over", 2);

        let err = validator.validate(&cred, &dr, 3).unwrap_err();
        assert!(err.to_string().contains("revoked"), "{err}");
        assert_eq!(federation.bus().stats().published, before + 1);
    }

    #[test]
    fn unknown_issuer_domain_fails() {
        let (federation, _records, cred, dr) = setup();
        let validator = federation.validator_for("national");
        assert!(matches!(
            validator.validate(&from_nowhere(cred), &dr, 1),
            Err(OasisError::NoValidator(_))
        ));
    }

    /// An inner validator that counts the callbacks the gate lets through.
    struct Counting {
        inner: Arc<dyn CredentialValidator>,
        calls: AtomicU64,
    }

    impl CredentialValidator for Counting {
        fn validate(
            &self,
            credential: &Credential,
            presenter: &PrincipalId,
            now: u64,
        ) -> Result<(), OasisError> {
            self.calls.fetch_add(1, Ordering::Relaxed);
            self.inner.validate(credential, presenter, now)
        }
    }

    #[test]
    fn gate_refuses_before_any_callback() {
        let (federation, _records, cred, dr) = setup();
        let counting = Arc::new(Counting {
            inner: federation.registry.clone(),
            calls: AtomicU64::new(0),
        });
        let gate = federation.gate("national", counting.clone());
        let calls = || counting.calls.load(Ordering::Relaxed);

        // Uncovered foreign credential: refused, no callback.
        assert!(matches!(
            gate.validate(&cred, &dr, 1),
            Err(OasisError::InvalidCredential { .. })
        ));
        assert_eq!(calls(), 0);

        // Covered: exactly one callback.
        federation.add_sla(sla("national", "hospital", "treating_doctor"));
        assert!(gate.validate(&cred, &dr, 1).is_ok());
        assert_eq!(calls(), 1);

        // Unplaced issuer: `NoValidator`, no callback.
        assert!(matches!(
            gate.validate(&from_nowhere(cred), &dr, 1),
            Err(OasisError::NoValidator(_))
        ));
        assert_eq!(calls(), 1);
    }

    #[test]
    fn federated_services_are_freed() {
        let federation = Federation::new();
        let records = Domain::new("hospital", &federation).create_service("records");
        records.set_validator(federation.validator_for("hospital"));
        let weak = Arc::downgrade(&records);
        drop(records);
        drop(federation);
        assert!(weak.upgrade().is_none(), "a service outlived every handle");
    }

    #[test]
    fn sla_display_lists_clauses() {
        let sla = Sla::between("a", "b").accept(SlaClause {
            issuer: "svc".into(),
            name: "doctor".into(),
            kind: CredentialKind::Appointment,
        });
        let text = sla.to_string();
        assert!(text.contains("a accepts from b"));
        assert!(text.contains("appointment doctor issued by svc"));
    }
}
