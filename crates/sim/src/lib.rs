//! Deterministic discrete-event simulation of distributed OASIS
//! deployments.
//!
//! The paper's system ran on the authors' middleware over a real network;
//! reproducing the *distributed* behaviours (cross-domain callback
//! validation, revocation propagation, heartbeat staleness) on one
//! machine calls for a simulator: virtual time, seeded randomness, latency
//! models, message loss and partitions. Everything is deterministic for a
//! given seed, so experiments are exactly repeatable.
//!
//! * [`Simulation`] — the event loop: schedule closures at virtual times.
//! * [`Latency`] / [`LinkConfig`] / [`SimNet`] — network modelling with
//!   per-link latency distributions, loss, duplication, jitter,
//!   partitions, and node crashes.
//! * [`FaultPlan`] — scripted chaos: partitions, crashes, clock skews,
//!   Byzantine CIV turns, leader kills, link flaps and torn journal
//!   tails applied at fixed virtual times.
//! * [`Trace`] — canonical sorted-key JSONL event traces, the shared
//!   recorder behind the conformance harness's byte-identical replay
//!   parity.
//! * [`chaos_seed`] / [`derive_seed`] / [`scenario_seed`] — unified
//!   seed plumbing (`CONFORMANCE_SEED` / `CHAOS_SEED`) for every
//!   deterministic suite.
//! * [`Histogram`] — metric collection for the benchmark harness.
//!
//! # Example
//!
//! ```
//! use oasis_sim::Simulation;
//! use std::cell::Cell;
//! use std::rc::Rc;
//!
//! let mut sim = Simulation::new(42);
//! let fired = Rc::new(Cell::new(0u64));
//! let f = Rc::clone(&fired);
//! sim.schedule_in(10, move |sim| {
//!     f.set(sim.now());
//! });
//! sim.run();
//! assert_eq!(fired.get(), 10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fault;
mod histogram;
mod latency;
mod net;
mod seed;
mod sim;
mod trace;

pub use fault::{Fault, FaultPlan, JournalDamage};
pub use histogram::Histogram;
pub use latency::Latency;
pub use net::{LinkConfig, NodeId, SimNet};
pub use seed::{chaos_seed, derive_seed, scenario_seed, seed_from_env};
pub use sim::Simulation;
pub use trace::{escape_json, write_lines, Trace, TraceValue};
