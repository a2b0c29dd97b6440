//! Event-based middleware substrate for OASIS active security.
//!
//! The OASIS architecture (Bacon, Moody, Yao; Middleware 2001) assumes an
//! *active* middleware platform — the Cambridge Event Architecture of
//! ref \[2\] — through which services are notified of relevant changes in
//! their environment without polling. Two mechanisms from the paper are
//! modelled here:
//!
//! * **Revocation push** (Fig 1, Fig 5): when service *C* issues a role
//!   membership certificate whose activation depended on credentials issued
//!   by services *A* and *B*, it subscribes to the topics on which *A* and
//!   *B* publish revocation or change events. A subscription is a callback
//!   ([`EventBus::subscribe_fn`]) that runs inline on the publisher's
//!   thread, so should a supporting credential be invalidated, *C* has
//!   collapsed the dependent role subtree before the publisher proceeds.
//!   Callbacks run in subscription order.
//! * **Heartbeats** (Fig 5): issuers emit periodic heartbeats; a verifier
//!   that misses heartbeats treats cached validation results as stale.
//!
//! The crate is deliberately generic: [`EventBus`] carries any message type,
//! and time is *virtual* (caller-supplied `u64` ticks) so that the
//! deterministic simulator in `oasis-sim` and the benchmarks can drive it
//! reproducibly.
//!
//! # Retained rings and catch-up replay
//!
//! Delivery alone cannot serve a subscriber that was *down* when an
//! event was published — exactly the crash window durable services must
//! close. [`EventBus::retain`] keeps a bounded per-topic ring of recent
//! events; a restarting subscriber compares its persisted
//! [`DeliveredEvent::topic_seq`] watermark against
//! [`EventBus::topic_seq`] and replays the gap with
//! [`EventBus::replay_after`], which also reports whether the replay is
//! gap-free or the ring has already evicted part of the range
//! ([`BusStats::retained_evictions`]).
//!
//! # Example
//!
//! ```
//! use std::sync::{Arc, Mutex};
//!
//! use oasis_events::{EventBus, Topic};
//!
//! let bus: EventBus<String> = EventBus::new();
//! let revoked = Arc::new(Mutex::new(Vec::new()));
//! let sink = Arc::clone(&revoked);
//! bus.subscribe_fn("cred.revoked.*", move |event| {
//!     sink.lock().unwrap().push(event.payload.clone());
//! })
//! .unwrap();
//! bus.publish(&Topic::new("cred.revoked.hospital"), "rmc-42".to_string());
//! assert_eq!(*revoked.lock().unwrap(), ["rmc-42"]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bus;
mod error;
mod heartbeat;
mod stats;
mod topic;

pub use bus::{CallbackId, DeliveredEvent, EventBus};
pub use error::EventError;
pub use heartbeat::{HeartbeatMonitor, SourceHealth, SourceId};
pub use stats::BusStats;
pub use topic::{Topic, TopicPattern};
