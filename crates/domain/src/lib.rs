//! Domains, service-level agreements, and cross-domain validation for
//! OASIS.
//!
//! The paper situates services inside *administrative domains* (hospitals,
//! primary care groups, a national EHR service…), and cross-domain
//! credentials are honoured only under a prior **service-level agreement**
//! (Sect. 3, 5). A [`Domain`] groups services on one event bus and one
//! fact store; a [`Federation`] places every service in its domain, holds
//! the [`Sla`] graph between domains, and hands out [`SlaGate`]s. A gate
//! is the one cross-domain check: it wraps any
//! [`CredentialValidator`](oasis_core::CredentialValidator) — the
//! federation's in-process directory ([`Federation::validator_for`]) or a
//! callback over the wire ([`Federation::gate`] in front of `oasis-wire`'s
//! `RemoteValidator`) — and refuses a foreign credential no agreement
//! covers before that validator calls back to the issuer.
//!
//! Fig 5's **external credential record** cache ("ECR") is the relying
//! service's own validation cache (`ServiceConfig::with_validation_cache`
//! through [`Domain::create_service_with`]: push-evicted over the bus,
//! heartbeat-guarded), and a domain's **replicated CIV** (Sect. 4, ref
//! \[10\]) is a service journalled over `oasis-store`'s quorum log, served
//! by `oasis-wire`'s `WireServer::with_replica`.
//!
//! # Example
//!
//! ```
//! use oasis_core::{Credential, CredentialKind, CredentialValidator, EnvContext};
//! use oasis_core::{PrincipalId, RoleName};
//! use oasis_domain::{Domain, Federation, Sla, SlaClause};
//!
//! let federation = Federation::new();
//! let hospital = Domain::new("hospital", &federation);
//! let records = hospital.create_service("hospital.records");
//! records.define_role("treating_doctor", &[], true)?;
//! records.add_activation_rule("treating_doctor", vec![], vec![], vec![])?;
//! let dr = PrincipalId::new("dr-jones");
//! let role = RoleName::new("treating_doctor");
//! let rmc = Credential::Rmc(records.activate_role(&dr, &role, &[], &[], &EnvContext::new(0))?);
//!
//! // The national EHR domain refuses the hospital's RMC, without calling
//! // back, until an agreement covers it.
//! let national = federation.validator_for("national-ehr");
//! assert!(national.validate(&rmc, &dr, 1).is_err());
//! federation.add_sla(Sla::between("national-ehr", "hospital").accept(SlaClause {
//!     issuer: "hospital.records".into(),
//!     name: "treating_doctor".into(),
//!     kind: CredentialKind::Rmc,
//! }));
//! national.validate(&rmc, &dr, 1)?;
//! # Ok::<(), oasis_core::OasisError>(())
//! ```
//!
//! # Over the wire
//!
//! A remote issuer is placed by hand, beside its address; the gate then
//! stands in front of the callback path to its wire server, so a
//! credential no agreement covers never leaves the domain.
//!
//! ```no_run
//! use std::sync::Arc;
//! use oasis_core::{CredentialKind, ResilientValidator};
//! use oasis_domain::{Domain, Federation, Sla, SlaClause};
//! use oasis_wire::RemoteValidator;
//!
//! let federation = Federation::new();
//! federation.place("hospital.records", "hospital").expect("one home");
//! let remote = RemoteValidator::new();
//! remote.add_issuer("hospital.records", "10.0.0.7:7000".parse()?);
//! let callbacks = ResilientValidator::new(Arc::new(remote));
//!
//! let national = Domain::new("national-ehr", &federation);
//! let ehr = national.create_service("national.ehr");
//! ehr.set_validator(federation.gate("national-ehr", Arc::new(callbacks)));
//! federation.add_sla(Sla::between("national-ehr", "hospital").accept(SlaClause {
//!     issuer: "hospital.records".into(),
//!     name: "treating_doctor".into(),
//!     kind: CredentialKind::Rmc,
//! }));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod domain;
mod sla;

pub use domain::Domain;
pub use sla::{Federation, Sla, SlaClause, SlaGate};
