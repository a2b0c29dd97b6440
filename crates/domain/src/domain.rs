//! An administrative domain: a named group of services sharing an event
//! bus and a fact store.

use std::sync::Arc;

use oasis_core::{DomainId, OasisService, ServiceConfig, ServiceId, Value};
use oasis_facts::FactStore;

use crate::sla::Federation;

/// An administrative domain (a hospital, a research institute, the
/// national EHR service…).
///
/// All services of a domain share one fact store (the domain's
/// environmental database) and the federation's event bus — that sharing
/// is the stand-in for the wide-area event channels of Fig 5.
#[derive(Debug)]
pub struct Domain {
    id: DomainId,
    federation: Arc<Federation>,
    facts: Arc<FactStore<Value>>,
}

impl Domain {
    /// Creates a domain inside `federation`, on its shared event bus.
    pub fn new(id: impl Into<DomainId>, federation: &Arc<Federation>) -> Arc<Self> {
        Arc::new(Self {
            id: id.into(),
            federation: Arc::clone(federation),
            facts: Arc::new(FactStore::new()),
        })
    }

    /// The domain's environmental fact store, shared by its services.
    pub fn facts(&self) -> &Arc<FactStore<Value>> {
        &self.facts
    }

    /// Creates a service inside this domain: it shares the domain bus and
    /// fact store, the federation places it here, and the federation's
    /// validators can call back to it.
    ///
    /// # Panics
    ///
    /// If the federation already places a service of this id in another
    /// domain (see [`Federation::place`]).
    pub fn create_service(&self, name: impl Into<ServiceId>) -> Arc<OasisService> {
        self.create_service_with(ServiceConfig::new(name))
    }

    /// As [`Domain::create_service`], and panicking alike, from a
    /// caller-built configuration (a relying service switching on its
    /// validation cache or issuer heartbeats, say). The domain sets only
    /// the bus.
    pub fn create_service_with(&self, config: ServiceConfig) -> Arc<OasisService> {
        let service = OasisService::new(
            config.with_bus(self.federation.bus().clone()),
            Arc::clone(&self.facts),
        );
        self.federation.join(&self.id, &service);
        service
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oasis_core::{CredentialValidator, PrincipalId};

    #[test]
    fn create_service_registers_everything() {
        let federation = Federation::new();
        let domain = Domain::new("hospital", &federation);
        let svc = domain.create_service("records");
        // Placed here: again in this domain is a no-op, elsewhere refused.
        assert_eq!(federation.place("records", "hospital"), Ok(()));
        assert_eq!(
            federation.place("records", "national"),
            Err(DomainId::new("hospital"))
        );
        // Registered: the domain's validator calls back to it.
        let p = PrincipalId::new("p");
        let rmc = crate::sla::tests::issue(&svc, "clerk", &p);
        let validator = federation.validator_for("hospital");
        assert!(validator.validate(&rmc, &p, 1).is_ok());
    }

    #[test]
    #[should_panic(expected = "`records` already lives in domain `hospital`")]
    fn a_service_id_has_one_home() {
        let federation = Federation::new();
        Domain::new("hospital", &federation).create_service("records");
        Domain::new("national", &federation).create_service("records");
    }

    #[test]
    fn services_share_the_domain_fact_store() {
        let domain = Domain::new("d", &Federation::new());
        let a = domain.create_service("a");
        let b = domain.create_service("b");
        a.facts().define("shared", 1).unwrap();
        assert!(b.facts().len("shared").is_ok());
        assert!(Arc::ptr_eq(domain.facts(), a.facts()));
        assert!(Arc::ptr_eq(a.facts(), b.facts()));
    }
}
