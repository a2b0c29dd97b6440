//! Indexed in-memory fact store backing OASIS environmental predicates.
//!
//! Role activation rules in the paper include *environmental constraints*
//! that are "ascertained by database lookup at some service": whether a
//! doctor has a patient registered under their care, whether a user belongs
//! to a group, whether a patient has excluded a specific doctor from their
//! record. This crate provides the database those predicates query: a
//! relation/tuple store with per-column hash indexes, wildcard queries, and
//! change notification.
//!
//! Change notification matters for *active security*: the membership rule
//! of a role may retain an environmental predicate, so when the underlying
//! fact is retracted (the patient deregisters) the role must be deactivated
//! immediately. [`FactStore::watch`] delivers the retraction synchronously
//! to the session monitor.
//!
//! The store is generic over the column value type `V`, so `oasis-core` can
//! use its own parameter `Value` without a dependency cycle.
//!
//! # Example
//!
//! ```
//! use oasis_facts::FactStore;
//!
//! let store: FactStore<String> = FactStore::new();
//! store.define("registered", 2).unwrap();
//! store
//!     .insert("registered", vec!["dr-jones".into(), "pat-7".into()])
//!     .unwrap();
//! assert!(store
//!     .contains("registered", &["dr-jones".to_string(), "pat-7".to_string()])
//!     .unwrap());
//! // Wildcard query: every patient of dr-jones.
//! let rows = store
//!     .query("registered", &[Some("dr-jones".to_string()), None])
//!     .unwrap();
//! assert_eq!(rows.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod relation;
mod store;

pub use error::FactError;
pub use store::{FactChange, FactStore};
