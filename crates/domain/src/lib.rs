//! Domains, service-level agreements, and cross-domain validation for
//! OASIS.
//!
//! The paper situates services inside *administrative domains* (hospitals,
//! primary care groups, a national EHR service…), and cross-domain
//! credentials are honoured only under a prior **service-level agreement**
//! (Sect. 3, 5). A [`Domain`] groups services on one event bus and one
//! fact store; a [`Federation`] holds the [`Sla`] graph between domains
//! and produces the validators that enforce it before calling back to the
//! issuer.
//!
//! Two neighbouring boxes of the paper's figures live elsewhere:
//!
//! * the **external credential record** cache of Fig 5 ("ECR") is the
//!   relying service's own validation cache
//!   ([`ServiceConfig::with_validation_cache`], push-evicted over the bus,
//!   heartbeat-guarded by [`ServiceConfig::with_heartbeats`]) — switch it
//!   on for an in-domain service with [`Domain::create_service_with`];
//! * a domain's **replicated CIV** (Sect. 4, ref \[10\]) is a service
//!   journalled over `oasis-store`'s quorum log (`ReplicatedStore`), served
//!   by `oasis-wire`'s `WireServer::with_replica`.
//!
//! [`ServiceConfig::with_validation_cache`]: oasis_core::ServiceConfig::with_validation_cache
//! [`ServiceConfig::with_heartbeats`]: oasis_core::ServiceConfig::with_heartbeats
//!
//! # Example
//!
//! ```no_run
//! use oasis_domain::{Domain, Federation, Sla, SlaClause};
//! use oasis_core::CredentialKind;
//!
//! let federation = Federation::new();
//! let hospital = Domain::new("hospital", federation.bus().clone());
//! let national = Domain::new("national-ehr", federation.bus().clone());
//! federation.register(&hospital);
//! federation.register(&national);
//! federation.add_sla(Sla::between("national-ehr", "hospital").accept(SlaClause {
//!     issuer: "hospital.records".into(),
//!     name: "treating_doctor".into(),
//!     kind: CredentialKind::Rmc,
//! }));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod domain;
mod sla;

pub use domain::Domain;
pub use sla::{Federation, FederationValidator, Sla, SlaClause};
