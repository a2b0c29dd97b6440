//! Heartbeat monitoring over virtual time.
//!
//! Fig 5 of the paper labels the inter-service links "heartbeats or change
//! events": a service that caches the validity of a remote credential record
//! must notice when the issuer falls silent, because silence means missed
//! revocations. [`HeartbeatMonitor`] tracks the last beat of each source
//! against a per-source interval and classifies sources as healthy, late, or
//! dead.
//!
//! Time is virtual (`u64` ticks) so the monitor composes with the
//! deterministic simulator.

use std::collections::HashMap;
use std::fmt;

use parking_lot::RwLock;

/// Identifies a heartbeat source (typically a credential-issuing service).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SourceId(pub String);

impl SourceId {
    /// Creates a source id.
    pub fn new(name: impl Into<String>) -> Self {
        Self(name.into())
    }
}

impl fmt::Display for SourceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for SourceId {
    fn from(s: &str) -> Self {
        Self(s.to_string())
    }
}

/// Health classification of a source at some instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceHealth {
    /// Last beat within one interval.
    Healthy,
    /// Between one and `dead_after` intervals since the last beat; cached
    /// validations should be treated as suspect.
    Late,
    /// More than `dead_after` intervals since the last beat; cached
    /// validations must be discarded.
    Dead,
}

#[derive(Debug, Clone)]
struct SourceState {
    interval: u64,
    last_beat: u64,
}

/// Tracks heartbeats from many sources against per-source intervals.
///
/// # Example
///
/// ```
/// use oasis_events::{HeartbeatMonitor, SourceHealth, SourceId};
///
/// let monitor = HeartbeatMonitor::new(3);
/// let src = SourceId::new("hospital.civ");
/// monitor.register(src.clone(), 10, 0);
/// monitor.beat(&src, 8);
/// assert_eq!(monitor.health(&src, 15), Some(SourceHealth::Healthy));
/// assert_eq!(monitor.health(&src, 25), Some(SourceHealth::Late));
/// assert_eq!(monitor.health(&src, 100), Some(SourceHealth::Dead));
/// ```
#[derive(Debug)]
pub struct HeartbeatMonitor {
    sources: RwLock<HashMap<SourceId, SourceState>>,
    dead_after: u64,
}

impl HeartbeatMonitor {
    /// Creates a monitor that declares a source dead after `dead_after`
    /// missed intervals (must be ≥ 1; a value of 3 is typical).
    ///
    /// # Panics
    ///
    /// Panics if `dead_after` is zero.
    pub fn new(dead_after: u64) -> Self {
        assert!(dead_after >= 1, "dead_after must be at least 1");
        Self {
            sources: RwLock::new(HashMap::new()),
            dead_after,
        }
    }

    /// Registers (or re-registers) a source beating every `interval` ticks,
    /// with its first implicit beat at `now`.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn register(&self, source: SourceId, interval: u64, now: u64) {
        assert!(interval >= 1, "interval must be at least 1");
        self.sources.write().insert(
            source,
            SourceState {
                interval,
                last_beat: now,
            },
        );
    }

    /// Records a heartbeat from `source` at time `now`. Beats older than the
    /// last recorded beat are ignored (late-arriving network messages).
    /// Returns `false` if the source is unknown.
    pub fn beat(&self, source: &SourceId, now: u64) -> bool {
        let mut sources = self.sources.write();
        match sources.get_mut(source) {
            Some(state) => {
                if now > state.last_beat {
                    state.last_beat = now;
                }
                true
            }
            None => false,
        }
    }

    /// Classifies `source` at time `now`, or `None` if unregistered.
    pub fn health(&self, source: &SourceId, now: u64) -> Option<SourceHealth> {
        let sources = self.sources.read();
        let state = sources.get(source)?;
        Some(Self::classify(state, now, self.dead_after))
    }

    fn classify(state: &SourceState, now: u64, dead_after: u64) -> SourceHealth {
        let elapsed = now.saturating_sub(state.last_beat);
        if elapsed <= state.interval {
            SourceHealth::Healthy
        } else if elapsed <= state.interval * dead_after {
            SourceHealth::Late
        } else {
            SourceHealth::Dead
        }
    }

    /// All sources that are not [`SourceHealth::Healthy`] at `now`, with
    /// their classification.
    pub fn overdue(&self, now: u64) -> Vec<(SourceId, SourceHealth)> {
        let sources = self.sources.read();
        let mut out: Vec<(SourceId, SourceHealth)> = sources
            .iter()
            .filter_map(
                |(id, state)| match Self::classify(state, now, self.dead_after) {
                    SourceHealth::Healthy => None,
                    health => Some((id.clone(), health)),
                },
            )
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn monitor() -> (HeartbeatMonitor, SourceId) {
        let m = HeartbeatMonitor::new(3);
        let s = SourceId::new("issuer");
        m.register(s.clone(), 10, 0);
        (m, s)
    }

    #[test]
    fn fresh_source_is_healthy() {
        let (m, s) = monitor();
        assert_eq!(m.health(&s, 5), Some(SourceHealth::Healthy));
        assert_eq!(m.health(&s, 10), Some(SourceHealth::Healthy));
    }

    #[test]
    fn source_goes_late_then_dead() {
        let (m, s) = monitor();
        assert_eq!(m.health(&s, 11), Some(SourceHealth::Late));
        assert_eq!(m.health(&s, 30), Some(SourceHealth::Late));
        assert_eq!(m.health(&s, 31), Some(SourceHealth::Dead));
    }

    #[test]
    fn beat_restores_health() {
        let (m, s) = monitor();
        assert_eq!(m.health(&s, 40), Some(SourceHealth::Dead));
        assert!(m.beat(&s, 40));
        assert_eq!(m.health(&s, 45), Some(SourceHealth::Healthy));
    }

    #[test]
    fn stale_beat_does_not_rewind() {
        let (m, s) = monitor();
        m.beat(&s, 50);
        m.beat(&s, 20); // late-arriving older beat
        assert_eq!(m.health(&s, 55), Some(SourceHealth::Healthy));
    }

    #[test]
    fn unknown_source_reports_none() {
        let m = HeartbeatMonitor::new(3);
        assert_eq!(m.health(&SourceId::new("ghost"), 0), None);
        assert!(!m.beat(&SourceId::new("ghost"), 0));
    }

    #[test]
    fn overdue_lists_only_unhealthy() {
        let m = HeartbeatMonitor::new(2);
        m.register(SourceId::new("a"), 10, 0);
        m.register(SourceId::new("b"), 100, 0);
        m.register(SourceId::new("c"), 10, 0);
        m.beat(&SourceId::new("c"), 95);
        let overdue = m.overdue(100);
        assert_eq!(
            overdue,
            vec![(SourceId::new("a"), SourceHealth::Dead)],
            "a is dead, b and c are healthy"
        );
    }

    #[test]
    #[should_panic(expected = "interval")]
    fn zero_interval_rejected() {
        let m = HeartbeatMonitor::new(1);
        m.register(SourceId::new("x"), 0, 0);
    }

    #[test]
    fn boundary_ticks_classify_inclusively() {
        // interval 10, dead_after 3: elapsed ∈ [0,10] healthy,
        // (10,30] late, (30,∞) dead — boundaries belong to the milder
        // state.
        let (m, s) = monitor();
        assert_eq!(m.health(&s, 10), Some(SourceHealth::Healthy));
        assert_eq!(m.health(&s, 11), Some(SourceHealth::Late));
        assert_eq!(m.health(&s, 30), Some(SourceHealth::Late));
        assert_eq!(m.health(&s, 31), Some(SourceHealth::Dead));
    }

    #[test]
    fn beat_exactly_at_interval_stays_healthy() {
        let (m, s) = monitor();
        for t in [10, 20, 30, 40] {
            m.beat(&s, t);
        }
        assert_eq!(m.health(&s, 50), Some(SourceHealth::Healthy));
    }

    #[test]
    fn reregister_resets_the_beat_clock() {
        let (m, s) = monitor();
        assert_eq!(m.health(&s, 40), Some(SourceHealth::Dead));
        m.register(s.clone(), 10, 40);
        assert_eq!(m.health(&s, 45), Some(SourceHealth::Healthy));
        assert_eq!(m.sources.read().len(), 1, "re-registration is idempotent");
    }

    #[test]
    fn dead_source_beating_again_recovers_fully() {
        let (m, s) = monitor();
        assert_eq!(m.health(&s, 100), Some(SourceHealth::Dead));
        assert!(m.beat(&s, 100));
        assert_eq!(m.health(&s, 100), Some(SourceHealth::Healthy));
        // And the full lifecycle repeats from the new beat.
        assert_eq!(m.health(&s, 111), Some(SourceHealth::Late));
        assert_eq!(m.health(&s, 131), Some(SourceHealth::Dead));
        assert!(m.beat(&s, 140));
        assert_eq!(m.health(&s, 141), Some(SourceHealth::Healthy));
    }
}
