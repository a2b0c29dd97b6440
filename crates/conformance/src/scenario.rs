//! The declarative scenario DSL: a scenario is one cell of the
//! conformance matrix — a workload, a fault regime, and a topology.
//!
//! The matrix is the repository's only fault harness. A regime alone
//! (an issuer crash, a validation flood, a leader kill) is a cell, and
//! so is each *product* of regimes: an issuer outage during a
//! validation flood, a leader kill during a revocation storm, clock
//! skew between domains while fail-safe degradation is mid-flight.
//! Every cell runs under the same seeded virtual clock, asserts the
//! same invariant set ([`invariant`](crate::invariant)), and must replay
//! byte-identically.

use std::fmt;

/// The load offered to the deployment while the fault regime plays out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// Heartbeats only — the control-plane baseline. No validations, no
    /// revocations; every data-plane invariant holds vacuously, which is
    /// itself worth pinning (a fault must not conjure activity).
    Quiet,
    /// One validation every 5 ticks plus a two-revocation trickle: the
    /// nominal clinic day.
    Steady,
    /// 3 validations/tick against 1/tick of admission capacity for 200
    /// ticks — the Validation lane must shed, the Control lane must not.
    ValidationFlood,
    /// A 14-certificate revocation burst (12 throwaway sessions plus two
    /// primary credentials with dependent duty roles at the hospital).
    RevocationStorm,
    /// The flood and the storm at once: shedding under revocation
    /// pressure.
    FloodAndStorm,
}

impl Workload {
    /// Short stable key used in scenario names and trace file names.
    pub fn key(self) -> &'static str {
        match self {
            Workload::Quiet => "quiet",
            Workload::Steady => "steady",
            Workload::ValidationFlood => "flood",
            Workload::RevocationStorm => "storm",
            Workload::FloodAndStorm => "flood+storm",
        }
    }

    /// Whether the workload saturates the admission controller.
    pub fn floods(self) -> bool {
        matches!(self, Workload::ValidationFlood | Workload::FloodAndStorm)
    }

    /// Whether the workload runs the full 14-revocation storm.
    pub fn storms(self) -> bool {
        matches!(self, Workload::RevocationStorm | Workload::FloodAndStorm)
    }
}

/// The scripted fault regime a scenario composes with its workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultRegime {
    /// No fault: the happy-path / boundary baseline the fault cells are
    /// compared against.
    None,
    /// The issuer process crashes at tick 90 and recovers at tick 160 —
    /// long enough for heartbeat death, fail-safe degradation, and a
    /// breaker trip if validations are flowing.
    IssuerOutage,
    /// Two short outages (60..85 and 120..145): the issuer flaps around
    /// the heartbeat death threshold instead of dying cleanly.
    FlappingIssuer,
    /// The issuer stays up but the inter-domain link is cut 70..130:
    /// callbacks, heartbeats, and revocation events all stop crossing.
    PartitionWindow,
    /// The issuer's clock jumps 200 ticks ahead at tick 40 (cleared at
    /// 200): revocations and events are stamped from the future.
    ClockSkewAhead,
    /// The issuer's clock falls 45 ticks behind at tick 40 (cleared at
    /// 200): event timestamps lag the relying domain's clock.
    ClockSkewBehind,
    /// The issuer domain's CIV turns Byzantine at tick 100: repudiates
    /// its history, whitewashes outcomes, forges certificates in the
    /// honest CIV's name, and fabricates interaction histories.
    ByzantineCiv,
    /// (Replicated topology) the quorum leader is killed mid-storm.
    KillLeader,
    /// (Replicated topology) two successive leader kills, the first
    /// victim revived before the second kill preserves quorum.
    KillLeaderTwice,
    /// (Replicated topology) the follower that acked the last commit
    /// round is killed mid-storm. Commit rounds reach only a quorum, so
    /// the next round must fall back to the follower left out — which
    /// repairs up to the in-flight entry and acks it — without a single
    /// `NoQuorum`.
    KillSyncFollower,
    /// (Replicated topology) the relying subscriber crashes midway
    /// through a catch-up resync and must resume from its durable
    /// watermark.
    SubscriberCrashMidCatchup,
    /// (Replicated topology) the leader is partitioned from both
    /// followers — deposed, not dead — and must rejoin as a follower.
    IsolateLeader,
    /// (Replicated topology) the leader↔follower link flaps in short
    /// up/down runs while the storm lands. The follower falls behind by
    /// a handful of entries each down run and must heal purely through
    /// entry-level log repair — zero full-state syncs — without the
    /// flapping ever deposing the leader.
    FlappyLinkRepair,
    /// (Replicated topology) a follower is partitioned long enough that
    /// the leader's retained tail compacts past it, forcing a chunked
    /// full-state sync — and the link then flaps mid-transfer. The sync
    /// session must *resume* from the last acked chunk, not restart.
    MidSyncLinkDrop,
    /// (Replicated topology) a follower is fully isolated for many
    /// election timeouts. With pre-vote it must not inflate its term or
    /// depose the stable leader on rejoin; a pre-vote-less control
    /// cluster demonstrates the storm, and its isolated leader must
    /// fence itself (refuse writes) once its lease lapses.
    IsolatedNodeTermStorm,
}

impl FaultRegime {
    /// Short stable key used in scenario names and trace file names.
    pub fn key(self) -> &'static str {
        match self {
            FaultRegime::None => "none",
            FaultRegime::IssuerOutage => "outage",
            FaultRegime::FlappingIssuer => "flap",
            FaultRegime::PartitionWindow => "partition",
            FaultRegime::ClockSkewAhead => "skew-ahead",
            FaultRegime::ClockSkewBehind => "skew-behind",
            FaultRegime::ByzantineCiv => "byzantine",
            FaultRegime::KillLeader => "kill-leader",
            FaultRegime::KillLeaderTwice => "kill-leader-2x",
            FaultRegime::KillSyncFollower => "kill-sync-follower",
            FaultRegime::SubscriberCrashMidCatchup => "crash-mid-catchup",
            FaultRegime::IsolateLeader => "isolate-leader",
            FaultRegime::FlappyLinkRepair => "flappy-link",
            FaultRegime::MidSyncLinkDrop => "mid-sync-drop",
            FaultRegime::IsolatedNodeTermStorm => "term-storm",
        }
    }

    /// Whether the regime makes the issuer unreachable for a window long
    /// enough that heartbeat death and fail-safe degradation must fire.
    pub fn causes_outage(self) -> bool {
        matches!(
            self,
            FaultRegime::IssuerOutage | FaultRegime::PartitionWindow
        )
    }

    /// Whether the regime leaves timestamps and reachability alone
    /// (degradation must then never engage).
    pub fn leaves_issuer_reachable(self) -> bool {
        matches!(
            self,
            FaultRegime::None
                | FaultRegime::ClockSkewAhead
                | FaultRegime::ClockSkewBehind
                | FaultRegime::ByzantineCiv
        )
    }
}

/// The deployment shape a scenario runs against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Topology {
    /// A single-instance login issuer and a failure-aware hospital,
    /// joined by a lossy, duplicating, jittery simulated link, with
    /// admission control in front of both.
    TwoDomain,
    /// A three-node quorum-replicated CIV hosting the durable issuer,
    /// with a durable relying subscriber catching up over its retained
    /// ring.
    ReplicatedCiv3,
}

impl Topology {
    /// Short stable key used in scenario names and trace file names.
    pub fn key(self) -> &'static str {
        match self {
            Topology::TwoDomain => "two-domain",
            Topology::ReplicatedCiv3 => "civ3",
        }
    }
}

/// Coverage category a scenario falls in; the matrix must keep at least
/// 30% of its cells outside `HappyPath`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// Nominal load, no fault.
    HappyPath,
    /// No fault, but load at or past the admission limits.
    Boundary,
    /// A fault under nominal load.
    FaultOnly,
    /// A fault composed with saturating or storming load — the cells
    /// this harness exists for.
    Combined,
    /// An actively malicious component, not merely a failed one.
    Byzantine,
}

impl Category {
    /// Short stable key for trace lines and coverage tables.
    pub fn key(self) -> &'static str {
        match self {
            Category::HappyPath => "happy-path",
            Category::Boundary => "boundary",
            Category::FaultOnly => "fault-only",
            Category::Combined => "combined",
            Category::Byzantine => "byzantine",
        }
    }
}

/// One cell of the conformance matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Scenario {
    /// The offered load.
    pub workload: Workload,
    /// The scripted fault regime.
    pub fault: FaultRegime,
    /// The deployment shape.
    pub topology: Topology,
}

impl Scenario {
    /// Builds a scenario cell.
    pub fn new(topology: Topology, workload: Workload, fault: FaultRegime) -> Self {
        Self {
            workload,
            fault,
            topology,
        }
    }

    /// The canonical scenario name: `topology/workload/fault`. Stable —
    /// it seeds the per-scenario RNG stream
    /// (`oasis_sim::scenario_seed`) and names the trace file, so
    /// renaming a scenario intentionally changes its schedule.
    pub fn name(&self) -> String {
        format!(
            "{}/{}/{}",
            self.topology.key(),
            self.workload.key(),
            self.fault.key()
        )
    }

    /// The trace-file-safe form of [`Scenario::name`] (no slashes).
    pub fn file_name(&self) -> String {
        self.name().replace(['/', '+'], "-")
    }

    /// Which coverage category the cell falls in.
    pub fn category(&self) -> Category {
        match (self.fault, self.workload) {
            (FaultRegime::ByzantineCiv, _) => Category::Byzantine,
            (FaultRegime::None, Workload::Quiet | Workload::Steady) => Category::HappyPath,
            (FaultRegime::None, _) => Category::Boundary,
            (_, Workload::Quiet | Workload::Steady) => Category::FaultOnly,
            _ => Category::Combined,
        }
    }

    /// Whether this cell counts as happy-path for the coverage floor.
    pub fn is_happy_path(&self) -> bool {
        self.category() == Category::HappyPath
    }
}

impl fmt::Display for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable_and_file_safe() {
        let s = Scenario::new(
            Topology::TwoDomain,
            Workload::FloodAndStorm,
            FaultRegime::IssuerOutage,
        );
        assert_eq!(s.name(), "two-domain/flood+storm/outage");
        assert_eq!(s.file_name(), "two-domain-flood-storm-outage");
        assert!(!s.file_name().contains('/'));
    }

    #[test]
    fn categories_partition_the_axes() {
        let cat = |w, f| Scenario::new(Topology::TwoDomain, w, f).category();
        assert_eq!(cat(Workload::Quiet, FaultRegime::None), Category::HappyPath);
        assert_eq!(
            cat(Workload::Steady, FaultRegime::None),
            Category::HappyPath
        );
        assert_eq!(
            cat(Workload::ValidationFlood, FaultRegime::None),
            Category::Boundary
        );
        assert_eq!(
            cat(Workload::Quiet, FaultRegime::IssuerOutage),
            Category::FaultOnly
        );
        assert_eq!(
            cat(Workload::FloodAndStorm, FaultRegime::PartitionWindow),
            Category::Combined
        );
        assert_eq!(
            cat(Workload::Quiet, FaultRegime::ByzantineCiv),
            Category::Byzantine
        );
    }

    #[test]
    fn outage_classification_matches_the_regime_windows() {
        assert!(FaultRegime::IssuerOutage.causes_outage());
        assert!(FaultRegime::PartitionWindow.causes_outage());
        assert!(!FaultRegime::FlappingIssuer.causes_outage());
        assert!(FaultRegime::ClockSkewAhead.leaves_issuer_reachable());
        assert!(FaultRegime::ByzantineCiv.leaves_issuer_reachable());
        assert!(!FaultRegime::IssuerOutage.leaves_issuer_reachable());
    }
}
