//! OASIS role-based access control: the model and engine of
//! *Access Control and Trust in the Use of Widely Distributed Services*
//! (Bacon, Moody, Yao; Middleware 2001).
//!
//! OASIS differs from classical RBAC in ways this crate implements
//! directly:
//!
//! * **Roles are service-specific and parametrised** — an
//!   [`OasisService`] defines its own client roles ([`RoleDef`]) such as
//!   `treating_doctor(doctor_id, patient_id)`; there is no global role
//!   administration.
//! * **Credential-based role activation** — each role is guarded by
//!   [`ActivationRule`]s in Horn-clause form whose conditions are
//!   prerequisite roles, appointment certificates, and environmental
//!   constraints, evaluated with full unification over role parameters.
//! * **Sessions and active security** — activating an *initial role*
//!   starts a [`Session`]; further activations build a dependency forest.
//!   The *membership rule* (a subset of the activation conditions) is
//!   monitored continuously: when a supporting credential is revoked or an
//!   environmental fact is retracted, the role is deactivated at once and
//!   the dependent subtree collapses (Fig 5 of the paper), driven by the
//!   `oasis-events` bus rather than polling.
//! * **Appointment, not delegation** — roles may carry the privilege of
//!   issuing long-lived [`AppointmentCertificate`]s
//!   (qualifications, employment, membership) which other rules accept as
//!   credentials. The appointer need not hold the privileges conferred.
//! * **Protected certificates** — role membership certificates
//!   ([`Rmc`](cert::Rmc)) are MAC-protected and principal-specific
//!   (`F(principal_id, fields, SECRET)`, Fig 4) and carry a credential
//!   record reference ([`Crr`]) for validation by callback to the issuer.
//!
//! # Quick start
//!
//! ```
//! use oasis_core::{
//!     Atom, EnvContext, OasisService, RoleName, ServiceConfig, Term, Value,
//! };
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), oasis_core::OasisError> {
//! let facts = Arc::new(oasis_facts::FactStore::new());
//! let service = OasisService::new(ServiceConfig::new("login"), Arc::clone(&facts));
//!
//! // An initial role: no prerequisites, so activating it starts a session.
//! service.define_role("logged_in_user", &[("user", oasis_core::ValueType::Id)], true)?;
//! service.add_activation_rule(
//!     "logged_in_user",
//!     vec![Term::var("U")],
//!     vec![Atom::env_fact("password_ok", vec![Term::var("U")])],
//!     vec![],
//! )?;
//!
//! facts.define("password_ok", 1).ok();
//! facts.insert("password_ok", vec![Value::id("alice")]).unwrap();
//!
//! let ctx = EnvContext::new(0);
//! let rmc = service.activate_role(
//!     &"alice".into(),
//!     &RoleName::new("logged_in_user"),
//!     &[Value::id("alice")],
//!     &[],
//!     &ctx,
//! )?;
//! assert_eq!(rmc.role.as_str(), "logged_in_user");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod cert;
pub mod durable;
pub mod env;
mod error;
pub mod ids;
mod json;
pub mod overload;
pub mod pattern;
pub mod plan;
pub mod resilient;
pub mod retry;
pub mod role;
pub mod rule;
pub mod service;
pub mod session;
pub mod validate;
pub mod value;

pub use audit::{AuditEntry, AuditKind, AuditLog};
pub use cert::{
    AppointmentCertificate, CertEvent, CertEventKind, CredRecord, CredStatus, Credential,
    CredentialKind, Crr,
};
pub use durable::{
    CatchUpReport, RecoveryReport, SecurityEvent, ServiceJournal, ServiceSnapshot, SnapshotRecord,
    Watermark,
};
pub use env::{CmpOp, EnvContext};
pub use error::OasisError;
pub use ids::{CertId, DomainId, PrincipalId, RoleName, ServiceId, SessionId};
pub use overload::{
    AdmissionController, Clock, Deadline, Lane, LaneConfig, LaneSnapshot, ManualClock,
    OverloadConfig, OverloadStats, Permit, PollOutcome, Submission, Ticket, WallClock,
};
pub use pattern::{Bindings, Term, VarName};
pub use plan::{CheckPlan, CredIndex, PlanStats, RulePlan};
pub use resilient::{
    classify_error, BreakerConfig, ErrorClass, ResilientStats, ResilientValidator,
};
pub use retry::{Backoff, RetryPolicy};
pub use role::{ParamSchema, RoleDef};
pub use rule::{ActivationRule, Atom, InvocationRule, RuleId};
pub use service::{
    ActivationOutcome, DegradationPolicy, DegradationStats, HeartbeatConfig, OasisService,
    ServiceConfig, ValidationCacheStats,
};
pub use session::{Session, SessionView};
pub use validate::{CredentialValidator, LocalRegistry};
pub use value::{Value, ValueType};
