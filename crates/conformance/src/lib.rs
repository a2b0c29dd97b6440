//! Scenario-matrix conformance harness with deterministic replay parity.
//!
//! The repository's one fault harness. Real deployments compose failure
//! regimes, so this crate runs the full
//! workload × fault × topology matrix ([`full_matrix`]) — an issuer
//! outage *during* a validation flood, a leader kill *during* a
//! revocation storm, clock skew while fail-safe degradation is
//! mid-flight, a Byzantine CIV under load — and holds every cell to the
//! same invariant set ([`invariant`]):
//!
//! 1. no post-deadline execution,
//! 2. no stale-certificate acceptance past the revocation watermark,
//! 3. gap-free recovery after every fault window,
//! 4. no acknowledged event lost,
//! 5. degradation/breaker state machines end consistent,
//! 6. Byzantine evidence rejected,
//!
//! plus a backpressure check on flooding cells. Each run is
//! seed-deterministic under a virtual clock and records a canonical
//! JSONL trace; replaying the same seed must reproduce the trace
//! byte-for-byte ([`compare_traces`]), so any nondeterminism in the
//! stack is itself a conformance failure. The harness's meta-test
//! perturbs one virtual-clock tick ([`Perturbation`]) and requires the
//! comparator to catch the divergence.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod invariant;
pub mod matrix;
pub mod parity;
mod replicated;
pub mod scenario;
pub mod shrink;

pub use engine::ScenarioRun;
pub use invariant::{InvariantCheck, InvariantReport, INVARIANT_NAMES};
pub use matrix::{cells_in, coverage, full_matrix, Coverage};
pub use parity::{compare_traces, Divergence, Perturbation};
pub use scenario::{Category, FaultRegime, Scenario, Topology, Workload};
pub use shrink::{ddmin, shrink_cell, ShrinkReport};

/// Extra per-cell check on top of [`INVARIANT_NAMES`]: flooding
/// workloads must shed (and still answer), non-flooding ones must not.
/// Under a two-domain flood, every revocation that arrives while the
/// issuer is up must also execute within its deadline budget, none shed
/// or expired on the Control lane.
pub const OVERLOAD_BACKPRESSURE: &str = "overload-backpressure-engaged";

/// Extra per-cell check on the replicated topology: an isolated node
/// must not inflate its term while cut off, and its rejoin must not
/// depose a stable leader (pre-vote absorbs the storm).
pub const NO_TERM_STORM: &str = "no-term-storm";

/// Extra per-cell check on the replicated topology: a leader that has
/// lost its commit quorum past the lease window must fence itself —
/// refuse writes — rather than serve from a stale log.
pub const NO_STALE_LEADER_READ: &str = "no-stale-leader-read";

/// Extra per-cell check on `Steady`-workload cells (both topologies):
/// the run carries a live `oasis-obs` registry with span recording on,
/// and its end-of-run snapshot renders byte-identically twice in a row.
/// The snapshot and the emitted spans are also embedded in the trace,
/// so the double-run replay parity check extends byte-determinism
/// across whole runs — any wall-clock leak into an instrumented hot
/// path becomes a conformance failure.
pub const METRICS_DETERMINISTIC: &str = "metrics-deterministic";

/// Runs one matrix cell under `base_seed`. The effective seed is
/// derived from the scenario *name* (`oasis_sim::scenario_seed`), so
/// every cell gets an independent deterministic stream and adding a
/// cell never reshuffles the others.
pub fn run_cell(scenario: Scenario, base_seed: u64) -> ScenarioRun {
    run_cell_perturbed(scenario, base_seed, None)
}

/// [`run_cell`] with an optional one-tick perturbation — the parity
/// meta-test's entry point. A perturbed run MUST produce a divergent
/// trace; anything else means the comparator (or the trace) is dead.
pub fn run_cell_perturbed(
    scenario: Scenario,
    base_seed: u64,
    perturb: Option<Perturbation>,
) -> ScenarioRun {
    let seed = oasis_sim::scenario_seed(base_seed, &scenario.name());
    match scenario.topology {
        Topology::TwoDomain => engine::run_two_domain(scenario, seed, perturb),
        Topology::ReplicatedCiv3 => replicated::run_replicated(scenario, seed, perturb),
    }
}
