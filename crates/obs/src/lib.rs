//! `oasis-obs` — unified metrics registry + end-to-end causal tracing.
//!
//! Before this crate, each subsystem carried a private ad-hoc `*Stats`
//! struct with hand-rolled JSON, and nothing correlated one request
//! across admission → compiled-plan activation → replicated append →
//! revocation fan-out. This crate is the one seam:
//!
//! * [`Recorder`] / [`Registry`] / [`NoopRecorder`] — named counters
//!   (thread-striped atomics), gauges, and fixed-bucket log2
//!   [`Histogram`]s with p50/p90/p99/p999 readout; one
//!   [`Recorder::snapshot_json`] returns the whole system as canonical
//!   sorted-key JSON.
//! * [`stats_set!`] — a component's stats as registry series: one field
//!   list declares the typed read and the handles, resolved in the
//!   component's own registry and shared into a caller's with
//!   [`Recorder::adopt`].
//! * [`TraceCtx`] / [`SpanSink`] — a three-integer causal context
//!   propagated in the wire envelope next to the deadline frame and in
//!   delivered bus events; inside a process it is the ambient context
//!   ([`scope`] pins it, [`current`] reads it), which the wire server
//!   pins around each request and plan activation, quorum append and
//!   cascade fan-out read. Spans serialize as sorted-key JSONL and are
//!   byte-deterministic under a virtual clock, so the conformance matrix
//!   replays them.
//! * [`encode`] — the canonical JSON encoder everything above (and
//!   `oasis-sim::Trace`) shares.
//!
//! This is a leaf crate (only `parking_lot`); every other crate in the
//! workspace may depend on it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod encode;
pub mod hist;
pub mod registry;
pub mod set;
pub mod span;

pub use encode::{escape_json, kv_json, render_fields, TraceValue};
pub use hist::Histogram;
pub use registry::{Counter, Gauge, Histo, NoopRecorder, Recorder, Registry};
pub use span::{current, scope, ScopeGuard, SpanSink, TraceCtx};
