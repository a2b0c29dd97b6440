//! The conformance matrix: the full workload × fault × topology product
//! this repository commits to keeping green.

use crate::scenario::{Category, FaultRegime, Scenario, Topology, Workload};

/// Workloads available on the two-domain topology.
pub const TWO_DOMAIN_WORKLOADS: [Workload; 5] = [
    Workload::Quiet,
    Workload::Steady,
    Workload::ValidationFlood,
    Workload::RevocationStorm,
    Workload::FloodAndStorm,
];

/// Fault regimes available on the two-domain topology.
pub const TWO_DOMAIN_FAULTS: [FaultRegime; 7] = [
    FaultRegime::None,
    FaultRegime::IssuerOutage,
    FaultRegime::FlappingIssuer,
    FaultRegime::PartitionWindow,
    FaultRegime::ClockSkewAhead,
    FaultRegime::ClockSkewBehind,
    FaultRegime::ByzantineCiv,
];

/// Workloads available on the replicated-CIV topology (`Steady` is the
/// spaced trickle, `RevocationStorm` the back-to-back storm).
pub const REPLICATED_WORKLOADS: [Workload; 2] = [Workload::Steady, Workload::RevocationStorm];

/// Fault regimes available on the replicated-CIV topology.
pub const REPLICATED_FAULTS: [FaultRegime; 9] = [
    FaultRegime::None,
    FaultRegime::KillLeader,
    FaultRegime::KillLeaderTwice,
    FaultRegime::KillSyncFollower,
    FaultRegime::SubscriberCrashMidCatchup,
    FaultRegime::IsolateLeader,
    FaultRegime::FlappyLinkRepair,
    FaultRegime::MidSyncLinkDrop,
    FaultRegime::IsolatedNodeTermStorm,
];

/// The full matrix, in a fixed, stable order (topology-major, then
/// workload, then fault). 53 cells: 35 two-domain + 18 replicated.
pub fn full_matrix() -> Vec<Scenario> {
    let mut cells = Vec::new();
    for workload in TWO_DOMAIN_WORKLOADS {
        for fault in TWO_DOMAIN_FAULTS {
            cells.push(Scenario::new(Topology::TwoDomain, workload, fault));
        }
    }
    for workload in REPLICATED_WORKLOADS {
        for fault in REPLICATED_FAULTS {
            cells.push(Scenario::new(Topology::ReplicatedCiv3, workload, fault));
        }
    }
    cells
}

/// Coverage summary over a set of cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Coverage {
    /// Total cells.
    pub total: usize,
    /// Cells outside [`Category::HappyPath`].
    pub non_happy: usize,
}

impl Coverage {
    /// Non-happy-path share in percent (0 when the set is empty).
    pub fn non_happy_percent(&self) -> usize {
        (self.non_happy * 100).checked_div(self.total).unwrap_or(0)
    }
}

/// Computes the coverage summary of a cell set.
pub fn coverage(cells: &[Scenario]) -> Coverage {
    Coverage {
        total: cells.len(),
        non_happy: cells.iter().filter(|c| !c.is_happy_path()).count(),
    }
}

/// Cells in a given category, in matrix order.
pub fn cells_in(cells: &[Scenario], category: Category) -> Vec<Scenario> {
    cells
        .iter()
        .copied()
        .filter(|c| c.category() == category)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn matrix_meets_the_issue_floor() {
        let cells = full_matrix();
        assert!(
            cells.len() >= 30,
            "matrix has {} cells, need >= 30",
            cells.len()
        );
        let cov = coverage(&cells);
        assert!(
            cov.non_happy_percent() >= 30,
            "only {}% non-happy-path, need >= 30%",
            cov.non_happy_percent()
        );
    }

    #[test]
    fn matrix_is_exactly_the_axis_product() {
        let cells = full_matrix();
        assert_eq!(
            cells.len(),
            TWO_DOMAIN_WORKLOADS.len() * TWO_DOMAIN_FAULTS.len()
                + REPLICATED_WORKLOADS.len() * REPLICATED_FAULTS.len()
        );
    }

    #[test]
    fn scenario_names_are_unique() {
        let cells = full_matrix();
        let names: HashSet<String> = cells.iter().map(Scenario::name).collect();
        assert_eq!(names.len(), cells.len(), "duplicate scenario names");
    }

    #[test]
    fn every_category_is_populated() {
        let cells = full_matrix();
        for category in [
            Category::HappyPath,
            Category::Boundary,
            Category::FaultOnly,
            Category::Combined,
            Category::Byzantine,
        ] {
            assert!(
                !cells_in(&cells, category).is_empty(),
                "category {category:?} has no cells"
            );
        }
    }

    #[test]
    fn matrix_order_is_stable() {
        // The order seeds nothing by itself (each cell derives its seed
        // from its *name*), but a stable order keeps CI logs and
        // coverage tables diffable.
        let a = full_matrix();
        let b = full_matrix();
        assert_eq!(a, b);
        assert_eq!(a[0].name(), "two-domain/quiet/none");
        assert_eq!(a.last().unwrap().name(), "civ3/storm/term-storm");
    }
}
