//! An administrative domain: a named group of services sharing an event
//! bus and a fact store.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use parking_lot::RwLock;

use oasis_core::{CertEvent, DomainId, OasisService, ServiceConfig, ServiceId, Value};
use oasis_events::EventBus;
use oasis_facts::FactStore;

/// An administrative domain (a hospital, a research institute, the
/// national EHR service…).
///
/// All services of a domain share one fact store (the domain's
/// environmental database) and one event bus. The bus may also be shared
/// *across* domains — that sharing is the stand-in for the wide-area
/// event channels of Fig 5.
pub struct Domain {
    id: DomainId,
    bus: EventBus<CertEvent>,
    facts: Arc<FactStore<Value>>,
    services: RwLock<HashMap<ServiceId, Arc<OasisService>>>,
}

impl fmt::Debug for Domain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Domain")
            .field("id", &self.id)
            .field("services", &self.service_ids())
            .finish()
    }
}

impl Domain {
    /// Creates a domain on the given (possibly shared) event bus.
    pub fn new(id: impl Into<DomainId>, bus: EventBus<CertEvent>) -> Arc<Self> {
        Arc::new(Self {
            id: id.into(),
            bus,
            facts: Arc::new(FactStore::new()),
            services: RwLock::new(HashMap::new()),
        })
    }

    /// The domain's identity.
    pub fn id(&self) -> &DomainId {
        &self.id
    }

    /// The domain's event bus.
    pub fn bus(&self) -> &EventBus<CertEvent> {
        &self.bus
    }

    /// The domain's environmental fact store, shared by its services.
    pub fn facts(&self) -> &Arc<FactStore<Value>> {
        &self.facts
    }

    /// Creates a service inside this domain: it shares the domain bus and
    /// fact store, and the domain's validators can call back to it.
    pub fn create_service(&self, name: impl Into<ServiceId>) -> Arc<OasisService> {
        self.create_service_with(ServiceConfig::new(name))
    }

    /// As [`Domain::create_service`], from a caller-built configuration
    /// (a relying service switching on its validation cache or issuer
    /// heartbeats, say). The domain sets only the bus.
    pub fn create_service_with(&self, config: ServiceConfig) -> Arc<OasisService> {
        let service = OasisService::new(config.with_bus(self.bus.clone()), Arc::clone(&self.facts));
        self.services
            .write()
            .insert(service.id().clone(), Arc::clone(&service));
        service
    }

    /// Looks up a service by id.
    pub fn service(&self, id: &ServiceId) -> Option<Arc<OasisService>> {
        self.services.read().get(id).cloned()
    }

    /// Ids of the domain's services, sorted.
    pub fn service_ids(&self) -> Vec<ServiceId> {
        let mut ids: Vec<ServiceId> = self.services.read().keys().cloned().collect();
        ids.sort();
        ids
    }

    /// Whether the given service belongs to this domain.
    pub fn owns(&self, id: &ServiceId) -> bool {
        self.services.read().contains_key(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_service_registers_everything() {
        let bus = EventBus::new();
        let domain = Domain::new("hospital", bus);
        let svc = domain.create_service("records");
        assert!(domain.owns(svc.id()));
        assert_eq!(domain.service_ids(), vec![ServiceId::new("records")]);
        assert!(domain.service(&ServiceId::new("records")).is_some());
        assert!(domain.service(&ServiceId::new("ghost")).is_none());
    }

    #[test]
    fn services_share_the_domain_fact_store() {
        let domain = Domain::new("d", EventBus::new());
        let a = domain.create_service("a");
        let b = domain.create_service("b");
        a.facts().define("shared", 1).unwrap();
        assert!(b.facts().len("shared").is_ok());
        assert!(Arc::ptr_eq(domain.facts(), a.facts()));
        assert!(Arc::ptr_eq(a.facts(), b.facts()));
    }
}
