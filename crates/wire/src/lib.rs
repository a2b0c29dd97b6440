//! Networked OASIS services over TCP.
//!
//! The reproduction's substitution for the paper's middleware transport:
//! a length-prefixed JSON protocol over TCP exposing the four operations
//! of Fig 2 — role activation, invocation, validation callback, and
//! revocation — so that an OASIS session genuinely crosses process and
//! host boundaries. The transport is synchronous (blocking clients; a
//! bounded server worker pool that waits on epoll readiness for all its
//! connections, so the server is Linux-only), matching the synchronous
//! engine whose validation callbacks run inline. The server admits every
//! request through priority lanes with bounded queues and propagated
//! deadlines (see [`server`](WireServer) and `oasis_core::overload`), so a
//! validation flood is shed before it can starve revocation traffic.
//!
//! * [`frame`] — the wire framing (u32 length prefix, JSON payload).
//! * [`proto`] — the request/response message types.
//! * [`WireServer`] — hosts an [`OasisService`](oasis_core::OasisService).
//! * [`WireClient`] — a blocking client for principals and for remote
//!   validation callbacks: one typed call per request.
//! * [`FailoverClient`] — runs any [`WireClient`] call on the current
//!   leader of a replicated cluster.
//!
//! # Example
//!
//! ```no_run
//! # fn demo() -> Result<(), oasis_wire::WireError> {
//! use oasis_wire::WireClient;
//!
//! let mut client = WireClient::connect("127.0.0.1:7450")?;
//! client.ping()?;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod client;
mod conns;
mod error;
pub mod frame;
pub mod proto;
mod server;
mod sync_client;
mod transport;

pub use client::WireClient;
pub use error::WireError;
pub use server::WireServer;
pub use sync_client::RemoteValidator;
pub use transport::{FailoverClient, FailoverStats, WireTransport};
