//! OASIS — a reproduction of *Access Control and Trust in the Use of
//! Widely Distributed Services* (Bacon, Moody, Yao; Middleware 2001).
//!
//! This umbrella crate re-exports the whole system; depend on it to get
//! everything, or on the individual crates for narrower builds:
//!
//! | Crate | Contents |
//! |-------|----------|
//! | [`core`] | the OASIS model and engine: parametrised roles, Horn-clause activation rules, sessions, appointment, active security |
//! | [`events`] | the event middleware substrate: topics, inline callbacks, retained rings, heartbeats |
//! | [`crypto`] | certificate MACs, issuer secret rotation, Ed25519 challenge–response |
//! | [`facts`] | the environmental predicate database |
//! | [`policy`] | the textual policy language, checker, and compiler |
//! | [`domain`] | domains, service-level agreements, the federation and its SLA gate in front of any cross-domain validator |
//! | [`trust`] | audit certificates, interaction histories, risk assessment |
//! | [`sim`] | deterministic discrete-event simulation of distributed deployments |
//! | [`store`] | the durability layer: checksummed security-event journal and snapshots |
//! | [`wire`] | synchronous TCP transport for networked OASIS services |
//!
//! The repository's `examples/` directory walks through the paper's
//! scenarios (`cargo run --example quickstart`), and `crates/bench`
//! regenerates every figure-level experiment (`cargo bench`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use oasis_core as core;
pub use oasis_crypto as crypto;
pub use oasis_domain as domain;
pub use oasis_events as events;
pub use oasis_facts as facts;
pub use oasis_policy as policy;
pub use oasis_sim as sim;
pub use oasis_store as store;
pub use oasis_trust as trust;
pub use oasis_wire as wire;

/// The most commonly used items in one import.
///
/// ```
/// use oasis::prelude::*;
///
/// let facts = std::sync::Arc::new(FactStore::new());
/// let service = OasisService::new(ServiceConfig::new("demo"), facts);
/// assert_eq!(service.id().as_str(), "demo");
/// ```
pub mod prelude {
    pub use oasis_core::{
        Atom, CertEvent, CmpOp, CredStatus, Credential, CredentialValidator, Crr, EnvContext,
        LocalRegistry, OasisError, OasisService, PrincipalId, RoleName, ServiceConfig, ServiceId,
        Session, Term, Value, ValueType,
    };
    pub use oasis_domain::{Domain, Federation, Sla, SlaClause};
    pub use oasis_events::EventBus;
    pub use oasis_facts::FactStore;
    pub use oasis_policy::Policy;
}
