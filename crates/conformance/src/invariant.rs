//! The shared invariant set every matrix cell asserts.
//!
//! A scenario run does not `assert!` inline — it *records* each
//! invariant's verdict with enough detail to debug a failure from the
//! CI artifact alone, and the test harness fails on any recorded
//! violation. This keeps one run's full report visible (an inline
//! assert would hide every invariant after the first broken one) and
//! lets vacuous cells (e.g. `Quiet` workloads with no revocations)
//! state *why* a check holds.

use std::fmt;

/// The canonical invariant names, in report order. Every scenario's
/// report contains exactly these checks.
pub const INVARIANT_NAMES: [&str; 6] = [
    NO_POST_DEADLINE_EXECUTION,
    NO_STALE_CERT_ACCEPTANCE,
    GAP_FREE_RECOVERY,
    NO_ACKED_EVENT_LOST,
    DEGRADATION_CONSISTENT,
    BYZANTINE_EVIDENCE_REJECTED,
];

/// No admitted request starts executing after its propagated deadline.
pub const NO_POST_DEADLINE_EXECUTION: &str = "no-post-deadline-execution";
/// No validation answers `Ok` for a certificate whose revocation the
/// relying service had already applied, and every revoked certificate
/// is refused once catch-up completes.
pub const NO_STALE_CERT_ACCEPTANCE: &str = "no-stale-cert-acceptance";
/// After every fault window closes, catch-up over the retained ring is
/// complete — contiguous sequence numbers, no gap, no reuse.
pub const GAP_FREE_RECOVERY: &str = "gap-free-recovery";
/// Every acknowledged revocation survives crashes, failovers and lost
/// deliveries: it is present at the relying side after final catch-up
/// and its dependent certificates are collapsed.
pub const NO_ACKED_EVENT_LOST: &str = "no-acked-event-lost";
/// The degradation and breaker state machines end consistent: the
/// breaker is closed, queues are drained, and degradation engaged
/// exactly when the regime warranted it.
pub const DEGRADATION_CONSISTENT: &str = "degradation-consistent";
/// Evidence from a Byzantine CIV never earns unsecured trust: forged
/// certificates fail validation and fabricated histories are held
/// below the `Proceed` threshold.
pub const BYZANTINE_EVIDENCE_REJECTED: &str = "byzantine-evidence-rejected";

/// One invariant's verdict for one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantCheck {
    /// Which invariant (one of [`INVARIANT_NAMES`]).
    pub name: &'static str,
    /// Whether it held.
    pub holds: bool,
    /// Supporting detail — the observed numbers on success, the
    /// counter-example on failure.
    pub detail: String,
}

impl fmt::Display for InvariantCheck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {}: {}",
            if self.holds { "ok" } else { "VIOLATED" },
            self.name,
            self.detail
        )
    }
}

/// The full invariant report of one scenario run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InvariantReport {
    /// Checks in [`INVARIANT_NAMES`] order.
    pub checks: Vec<InvariantCheck>,
}

impl InvariantReport {
    /// An empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one check.
    pub fn record(&mut self, name: &'static str, holds: bool, detail: impl Into<String>) {
        self.checks.push(InvariantCheck {
            name,
            holds,
            detail: detail.into(),
        });
    }

    /// Whether every recorded check held.
    pub fn all_hold(&self) -> bool {
        self.checks.iter().all(|c| c.holds)
    }

    /// The violated checks, in report order.
    pub fn violations(&self) -> Vec<&InvariantCheck> {
        self.checks.iter().filter(|c| !c.holds).collect()
    }

    /// Panics with every violation if any check failed — the harness's
    /// one assertion point per scenario.
    pub fn assert_all(&self, scenario: &str) {
        if self.all_hold() {
            return;
        }
        let mut msg = format!("scenario {scenario}: invariant violations:\n");
        for v in self.violations() {
            msg.push_str(&format!("  {v}\n"));
        }
        panic!("{msg}");
    }

    /// Whether the report covers the full canonical invariant set.
    pub fn is_complete(&self) -> bool {
        INVARIANT_NAMES
            .iter()
            .all(|name| self.checks.iter().any(|c| c.name == *name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_tracks_violations_and_completeness() {
        let mut report = InvariantReport::new();
        for name in INVARIANT_NAMES {
            report.record(name, true, "ok");
        }
        assert!(report.all_hold());
        assert!(report.is_complete());
        assert!(report.violations().is_empty());
        report.assert_all("demo"); // must not panic

        report.record(NO_ACKED_EVENT_LOST, false, "revocation 3 missing");
        assert!(!report.all_hold());
        assert_eq!(report.violations().len(), 1);
    }

    #[test]
    fn incomplete_report_is_detected() {
        let mut report = InvariantReport::new();
        report.record(NO_POST_DEADLINE_EXECUTION, true, "0 late starts");
        assert!(!report.is_complete());
    }

    #[test]
    #[should_panic(expected = "revocation 3 missing")]
    fn assert_all_panics_with_the_counter_example() {
        let mut report = InvariantReport::new();
        report.record(NO_ACKED_EVENT_LOST, false, "revocation 3 missing");
        report.assert_all("demo");
    }

    #[test]
    fn display_marks_verdicts() {
        let ok = InvariantCheck {
            name: GAP_FREE_RECOVERY,
            holds: true,
            detail: "seqs 1..=14".into(),
        };
        assert_eq!(ok.to_string(), "[ok] gap-free-recovery: seqs 1..=14");
        let bad = InvariantCheck {
            name: GAP_FREE_RECOVERY,
            holds: false,
            detail: "gap at 7".into(),
        };
        assert!(bad.to_string().starts_with("[VIOLATED]"));
    }
}
