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
    CertEvent, Credential, CredentialKind, CredentialValidator, DomainId, OasisError, PrincipalId,
    ServiceId,
};
use oasis_events::EventBus;

use crate::domain::Domain;

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
    pub fn covers(&self, issuer: &ServiceId, name: &str, kind: CredentialKind) -> bool {
        self.clauses
            .iter()
            .any(|c| c.issuer == *issuer && c.name == name && c.kind == kind)
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

/// The registry of domains and the SLA graph between them.
///
/// The federation also owns the shared inter-domain event bus — the
/// wide-area event channels of Fig 5 — which member domains join so that
/// revocations propagate across domain boundaries.
pub struct Federation {
    bus: EventBus<CertEvent>,
    domains: RwLock<HashMap<DomainId, Arc<Domain>>>,
    slas: RwLock<Vec<Sla>>,
}

impl fmt::Debug for Federation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Federation")
            .field("domains", &self.domain_ids())
            .field("slas", &self.slas.read().len())
            .finish()
    }
}

impl Default for Federation {
    fn default() -> Self {
        Self {
            bus: EventBus::new(),
            domains: RwLock::new(HashMap::new()),
            slas: RwLock::new(Vec::new()),
        }
    }
}

impl Federation {
    /// Creates an empty federation with a fresh shared bus.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// The shared inter-domain event bus. Create member domains on this
    /// bus (`Domain::new(id, federation.bus().clone())`) so revocation
    /// events cross domain boundaries.
    pub fn bus(&self) -> &EventBus<CertEvent> {
        &self.bus
    }

    /// Adds a domain to the federation.
    pub fn register(&self, domain: &Arc<Domain>) {
        self.domains
            .write()
            .insert(domain.id().clone(), Arc::clone(domain));
    }

    /// Records an agreement.
    pub fn add_sla(&self, sla: Sla) {
        self.slas.write().push(sla);
    }

    /// Registered domain ids, sorted.
    pub fn domain_ids(&self) -> Vec<DomainId> {
        let mut ids: Vec<DomainId> = self.domains.read().keys().cloned().collect();
        ids.sort();
        ids
    }

    /// Looks up a domain.
    pub fn domain(&self, id: &DomainId) -> Option<Arc<Domain>> {
        self.domains.read().get(id).cloned()
    }

    /// Which domain a service belongs to.
    pub fn home_of(&self, service: &ServiceId) -> Option<Arc<Domain>> {
        self.domains
            .read()
            .values()
            .find(|d| d.owns(service))
            .cloned()
    }

    /// Whether `consumer` may accept this credential shape from `issuer`'s
    /// domain under some SLA.
    pub fn allows(
        &self,
        consumer: &DomainId,
        producer: &DomainId,
        issuer: &ServiceId,
        name: &str,
        kind: CredentialKind,
    ) -> bool {
        self.slas.read().iter().any(|sla| {
            sla.consumer == *consumer && sla.producer == *producer && sla.covers(issuer, name, kind)
        })
    }

    /// A validator for services of `home`: local credentials validate at
    /// their issuer directly; foreign credentials require a covering SLA
    /// and then validate by callback to the issuer in its own domain.
    pub fn validator_for(self: &Arc<Self>, home: impl Into<DomainId>) -> Arc<FederationValidator> {
        Arc::new(FederationValidator {
            federation: Arc::clone(self),
            home: home.into(),
        })
    }
}

/// The SLA-enforcing cross-domain validator produced by
/// [`Federation::validator_for`].
pub struct FederationValidator {
    // A strong reference: services hold their validator, and the validator
    // must keep the federation (and its SLA graph) reachable. No cycle —
    // the federation does not refer back to validators.
    federation: Arc<Federation>,
    home: DomainId,
}

impl fmt::Debug for FederationValidator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FederationValidator")
            .field("home", &self.home)
            .finish()
    }
}

impl CredentialValidator for FederationValidator {
    fn validate(
        &self,
        credential: &Credential,
        presenter: &PrincipalId,
        now: u64,
    ) -> Result<(), OasisError> {
        let federation = &self.federation;
        let issuer = credential.issuer();
        let Some(issuer_domain) = federation.home_of(issuer) else {
            return Err(OasisError::NoValidator(issuer.clone()));
        };

        if *issuer_domain.id() != self.home {
            // Cross-domain: only under a covering agreement.
            if !federation.allows(
                &self.home,
                issuer_domain.id(),
                issuer,
                credential.name(),
                credential.kind(),
            ) {
                return Err(OasisError::InvalidCredential {
                    crr: credential.crr().clone(),
                    reason: format!(
                        "no service-level agreement lets `{}` accept `{}` from `{}`",
                        self.home,
                        credential.name(),
                        issuer_domain.id()
                    ),
                });
            }
        }

        issuer_domain
            .service(issuer)
            .ok_or_else(|| OasisError::NoValidator(issuer.clone()))?
            .validate_own(credential, presenter, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oasis_core::{EnvContext, RoleName, Term, Value, ValueType};

    /// Two domains: a hospital issuing `treating_doctor` RMCs and a
    /// national EHR domain that accepts them only under an SLA.
    fn setup() -> (Arc<Federation>, Credential, PrincipalId) {
        let federation = Federation::new();
        let hospital = Domain::new("hospital", federation.bus().clone());
        let national = Domain::new("national", federation.bus().clone());
        federation.register(&hospital);
        federation.register(&national);

        let records = hospital.create_service("records");
        records
            .define_role(
                "treating_doctor",
                &[("d", ValueType::Id), ("p", ValueType::Id)],
                true,
            )
            .unwrap();
        records
            .add_activation_rule(
                "treating_doctor",
                vec![Term::var("D"), Term::var("P")],
                vec![],
                vec![],
            )
            .unwrap();
        let dr = PrincipalId::new("dr-jones");
        let rmc = records
            .activate_role(
                &dr,
                &RoleName::new("treating_doctor"),
                &[Value::id("dr-jones"), Value::id("p1")],
                &[],
                &EnvContext::new(0),
            )
            .unwrap();
        (federation, Credential::Rmc(rmc), dr)
    }

    #[test]
    fn foreign_credential_refused_without_sla() {
        let (federation, cred, dr) = setup();
        let validator = federation.validator_for("national");
        let err = validator.validate(&cred, &dr, 1).unwrap_err();
        assert!(err.to_string().contains("service-level agreement"), "{err}");
    }

    #[test]
    fn sla_clause_admits_exactly_the_named_shape() {
        let (federation, cred, dr) = setup();
        federation.add_sla(Sla::between("national", "hospital").accept(SlaClause {
            issuer: "records".into(),
            name: "treating_doctor".into(),
            kind: CredentialKind::Rmc,
        }));
        let validator = federation.validator_for("national");
        assert!(validator.validate(&cred, &dr, 1).is_ok());
        // The MAC still binds the principal: a thief fails even with an SLA.
        assert!(validator
            .validate(&cred, &PrincipalId::new("mallory"), 1)
            .is_err());
    }

    #[test]
    fn sla_does_not_cover_other_names_or_kinds() {
        let (federation, cred, dr) = setup();
        federation.add_sla(Sla::between("national", "hospital").accept(SlaClause {
            issuer: "records".into(),
            name: "nurse".into(), // different role
            kind: CredentialKind::Rmc,
        }));
        let validator = federation.validator_for("national");
        assert!(validator.validate(&cred, &dr, 1).is_err());
    }

    #[test]
    fn sla_is_directional() {
        let (federation, cred, dr) = setup();
        // The *reverse* agreement does not help.
        federation.add_sla(Sla::between("hospital", "national").accept(SlaClause {
            issuer: "records".into(),
            name: "treating_doctor".into(),
            kind: CredentialKind::Rmc,
        }));
        let validator = federation.validator_for("national");
        assert!(validator.validate(&cred, &dr, 1).is_err());
    }

    #[test]
    fn home_credentials_need_no_sla() {
        let (federation, cred, dr) = setup();
        let validator = federation.validator_for("hospital");
        assert!(validator.validate(&cred, &dr, 1).is_ok());
    }

    #[test]
    fn home_callback_binds_the_presenter_and_needs_a_federated_issuer() {
        let (federation, cred, dr) = setup();
        let validator = federation.validator_for("hospital");
        // The callback ends at the issuing service itself: the right
        // presenter is accepted, a thief is refused.
        assert!(validator.validate(&cred, &dr, 1).is_ok());
        assert!(matches!(
            validator.validate(&cred, &PrincipalId::new("mallory"), 1),
            Err(OasisError::InvalidCredential { .. })
        ));

        // A live service on the same bus that no registered domain owns:
        // its (perfectly valid) credential has nobody to call back to.
        let lab = oasis_core::OasisService::new(
            oasis_core::ServiceConfig::new("lab").with_bus(federation.bus().clone()),
            Arc::new(oasis_facts::FactStore::new()),
        );
        lab.define_role("tech", &[], true).unwrap();
        lab.add_activation_rule("tech", vec![], vec![], vec![])
            .unwrap();
        let tech = lab
            .activate_role(&dr, &RoleName::new("tech"), &[], &[], &EnvContext::new(0))
            .unwrap();
        let tech = Credential::Rmc(tech);
        assert!(lab.validate_own(&tech, &dr, 1).is_ok());
        assert!(matches!(
            validator.validate(&tech, &dr, 1),
            Err(OasisError::NoValidator(issuer)) if issuer == ServiceId::new("lab")
        ));
    }

    #[test]
    fn cross_domain_revocation_propagates_through_shared_bus() {
        let (federation, cred, dr) = setup();
        federation.add_sla(Sla::between("national", "hospital").accept(SlaClause {
            issuer: "records".into(),
            name: "treating_doctor".into(),
            kind: CredentialKind::Rmc,
        }));
        let validator = federation.validator_for("national");
        validator.validate(&cred, &dr, 1).unwrap();

        // The hospital revokes; the event crosses on the federation's
        // shared bus and the next callback is refused at the issuer.
        let hospital = federation.domain(&DomainId::new("hospital")).unwrap();
        let records = hospital.service(&ServiceId::new("records")).unwrap();
        let before = federation.bus().stats().published;
        records.revoke_certificate(cred.crr().cert_id, "shift over", 2);

        let err = validator.validate(&cred, &dr, 3).unwrap_err();
        assert!(err.to_string().contains("revoked"), "{err}");
        assert_eq!(federation.bus().stats().published, before + 1);
    }

    #[test]
    fn unknown_issuer_domain_fails() {
        let (federation, cred, dr) = setup();
        let mut foreign = match cred {
            Credential::Rmc(rmc) => rmc,
            _ => unreachable!(),
        };
        foreign.crr.issuer = ServiceId::new("nowhere");
        let validator = federation.validator_for("national");
        assert!(matches!(
            validator.validate(&Credential::Rmc(foreign), &dr, 1),
            Err(OasisError::NoValidator(_))
        ));
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
