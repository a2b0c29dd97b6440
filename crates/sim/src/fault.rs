//! Scripted fault injection for chaos experiments.
//!
//! A [`FaultPlan`] is a deterministic schedule of faults — partitions,
//! heals, crashes, recoveries, clock skews and a Byzantine CIV — applied
//! as virtual time advances. Scripting the faults (rather than sampling
//! them) makes chaos runs exactly repeatable and lets a test assert on
//! *when* degradation and recovery must happen. The conformance matrix
//! (`oasis-conformance`) runs the plans in its two-domain runner. Faults
//! that act on something the plan cannot reach — a replica mesh's leader
//! or links, a storage backend's bytes — are applied by their driver
//! directly (the replicated runner, `tests/durable_recovery.rs`).
//!
//! # Crash durability
//!
//! [`Fault::Crash`] models fail-stop: the node's volatile state (record
//! maps, caches, bus subscriptions) is gone, but whatever its
//! durability journal had *acknowledged* survives. The driver models
//! this by dropping the service instance while keeping a cloned handle
//! to its storage backend, then handing the same handle to the
//! restarted instance after [`Fault::Recover`].

use std::collections::HashMap;

use crate::net::{NodeId, SimNet};

/// One scripted fault (or its inverse).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// Cut both directions between two nodes.
    Partition {
        /// One endpoint of the cut.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
    /// Restore both directions between two nodes.
    Heal {
        /// One endpoint of the healed link.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
    /// Crash a node: all its traffic drops until [`Fault::Recover`].
    Crash {
        /// The node that goes down.
        node: NodeId,
    },
    /// Bring a crashed node back up.
    Recover {
        /// The node that comes back.
        node: NodeId,
    },
    /// Skew `node`'s wall clock by `offset_ms` relative to virtual
    /// time — a cross-domain NTP drift. This has no direct network
    /// effect; the caller consults
    /// [`FaultPlan::clock_skew`] when stamping that node's timestamps
    /// (cert issue times, expiry checks). An `offset_ms` of zero clears
    /// the skew.
    ClockSkew {
        /// The node whose clock drifts.
        node: NodeId,
        /// Milliseconds ahead (positive) or behind (negative).
        offset_ms: i64,
    },
    /// Turn `node` — a Certification Instance Vault in the trust layer —
    /// Byzantine: from this tick it repudiates its notarisation history
    /// and emits forged or whitewashed audit certificates. The plan keeps
    /// no state for it: the caller reacts to the fault
    /// [`FaultPlan::apply_due`] returns by flipping the node's
    /// `oasis-trust` adapter into Byzantine mode.
    ByzantineCiv {
        /// The CIV that goes rogue.
        node: NodeId,
    },
}

/// A time-ordered script of faults to apply to a [`SimNet`].
///
/// Build the plan up front with the scheduling methods, then call
/// [`FaultPlan::apply_due`] from the simulation loop (or a scheduled
/// tick) to enact every fault whose time has come. Applied faults are
/// consumed; the returned list tells the driver what just happened.
///
/// # Example
///
/// ```
/// use oasis_sim::{Fault, FaultPlan, Latency, LinkConfig, SimNet, Simulation};
///
/// let mut sim = Simulation::new(1);
/// let mut net = SimNet::new(LinkConfig::clean(Latency::Constant(1)));
/// let mut plan = FaultPlan::new();
/// plan.partition_at(10, "issuer", "service");
/// plan.heal_at(20, "issuer", "service");
///
/// plan.apply_due(5, &mut net);
/// assert!(!net.is_partitioned("issuer", "service"));
/// plan.apply_due(10, &mut net);
/// assert!(net.is_partitioned("issuer", "service"));
/// plan.apply_due(25, &mut net);
/// assert!(!net.is_partitioned("issuer", "service"));
/// ```
#[derive(Debug, Default)]
pub struct FaultPlan {
    /// `(tick, fault)` pairs, kept sorted by tick (stable for equal
    /// ticks: insertion order breaks ties, so a same-tick crash+heal
    /// sequence applies in the order it was scripted).
    scheduled: Vec<(u64, Fault)>,
    skews: HashMap<NodeId, i64>,
}

impl FaultPlan {
    /// An empty plan: nothing ever fails.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules an arbitrary fault at `tick`.
    pub fn schedule(&mut self, tick: u64, fault: Fault) {
        let pos = self.scheduled.partition_point(|(t, _)| *t <= tick);
        self.scheduled.insert(pos, (tick, fault));
    }

    /// Schedules a partition between `a` and `b` at `tick`.
    pub fn partition_at(&mut self, tick: u64, a: impl Into<NodeId>, b: impl Into<NodeId>) {
        self.schedule(
            tick,
            Fault::Partition {
                a: a.into(),
                b: b.into(),
            },
        );
    }

    /// Schedules the heal of a partition at `tick`.
    pub fn heal_at(&mut self, tick: u64, a: impl Into<NodeId>, b: impl Into<NodeId>) {
        self.schedule(
            tick,
            Fault::Heal {
                a: a.into(),
                b: b.into(),
            },
        );
    }

    /// Schedules a node crash at `tick`.
    pub fn crash_at(&mut self, tick: u64, node: impl Into<NodeId>) {
        self.schedule(tick, Fault::Crash { node: node.into() });
    }

    /// Schedules a node recovery at `tick`.
    pub fn recover_at(&mut self, tick: u64, node: impl Into<NodeId>) {
        self.schedule(tick, Fault::Recover { node: node.into() });
    }

    /// Schedules a clock skew on `node` at `tick`; `offset_ms == 0`
    /// clears a previous skew.
    pub fn skew_clock_at(&mut self, tick: u64, node: impl Into<NodeId>, offset_ms: i64) {
        self.schedule(
            tick,
            Fault::ClockSkew {
                node: node.into(),
                offset_ms,
            },
        );
    }

    /// Schedules `node`'s CIV turning Byzantine at `tick`.
    pub fn byzantine_civ_at(&mut self, tick: u64, node: impl Into<NodeId>) {
        self.schedule(tick, Fault::ByzantineCiv { node: node.into() });
    }

    /// Applies (and consumes) every fault scheduled at or before `now`,
    /// in schedule order, returning what was applied. Network faults act
    /// on `net`; a clock skew updates the plan's own ledger, and
    /// [`Fault::ByzantineCiv`] only reaches the caller through the
    /// returned list.
    pub fn apply_due(&mut self, now: u64, net: &mut SimNet) -> Vec<Fault> {
        let due = self.scheduled.partition_point(|(t, _)| *t <= now);
        let applied: Vec<Fault> = self.scheduled.drain(..due).map(|(_, f)| f).collect();
        for fault in &applied {
            match fault {
                Fault::Partition { a, b } => net.partition(a.clone(), b.clone()),
                Fault::Heal { a, b } => net.heal(a.clone(), b.clone()),
                Fault::Crash { node } => net.crash(node.clone()),
                Fault::Recover { node } => net.recover(node.clone()),
                Fault::ClockSkew { node, offset_ms } => {
                    if *offset_ms == 0 {
                        self.skews.remove(node);
                    } else {
                        self.skews.insert(node.clone(), *offset_ms);
                    }
                }
                Fault::ByzantineCiv { .. } => {}
            }
        }
        applied
    }

    /// The current clock skew of `node` in milliseconds (0 = in sync).
    /// The driver adds this to virtual time whenever the skewed node
    /// stamps or compares a wall-clock timestamp.
    pub fn clock_skew(&self, node: &str) -> i64 {
        self.skews.get(node).copied().unwrap_or(0)
    }

    /// Faults not yet applied.
    pub fn pending(&self) -> usize {
        self.scheduled.len()
    }

    /// The unapplied schedule as `(tick, fault)` pairs, in application
    /// order. Take the snapshot *before* the first [`FaultPlan::apply_due`]
    /// to capture the whole script — applied faults are consumed and no
    /// longer appear. Feed subsets back through
    /// [`FaultPlan::from_schedule`] to replay a reduced scenario (the
    /// delta-debugging loop in `oasis-conformance` shrinks failing fault
    /// schedules this way).
    pub fn schedule_snapshot(&self) -> Vec<(u64, Fault)> {
        self.scheduled.clone()
    }

    /// Builds a fresh plan from an explicit `(tick, fault)` schedule —
    /// typically a subset of a [`FaultPlan::schedule_snapshot`]. Pairs
    /// may arrive in any order; same-tick pairs keep their relative
    /// order, matching the stable tie-break of incremental scheduling.
    pub fn from_schedule<I>(schedule: I) -> Self
    where
        I: IntoIterator<Item = (u64, Fault)>,
    {
        let mut plan = Self::new();
        for (tick, fault) in schedule {
            plan.schedule(tick, fault);
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::Latency;
    use crate::net::LinkConfig;

    fn net() -> SimNet {
        SimNet::new(LinkConfig::clean(Latency::Constant(1)))
    }

    #[test]
    fn faults_apply_at_their_tick_and_are_consumed() {
        let mut net = net();
        let mut plan = FaultPlan::new();
        plan.partition_at(10, "a", "b");
        plan.crash_at(20, "c");
        assert_eq!(plan.pending(), 2);

        assert!(plan.apply_due(9, &mut net).is_empty());
        assert!(!net.is_partitioned("a", "b"));

        let applied = plan.apply_due(10, &mut net);
        assert_eq!(
            applied,
            vec![Fault::Partition {
                a: "a".into(),
                b: "b".into()
            }]
        );
        assert!(net.is_partitioned("a", "b"));
        assert_eq!(plan.pending(), 1);

        // Past-due faults apply even if a tick was skipped.
        let applied = plan.apply_due(100, &mut net);
        assert_eq!(applied.len(), 1);
        assert!(net.is_crashed("c"));
        assert_eq!(plan.pending(), 0);
    }

    #[test]
    fn same_tick_faults_apply_in_script_order() {
        let mut net = net();
        let mut plan = FaultPlan::new();
        plan.crash_at(5, "x");
        plan.recover_at(5, "x");
        let applied = plan.apply_due(5, &mut net);
        assert_eq!(applied.len(), 2);
        assert!(!net.is_crashed("x"), "crash then recover nets out");
    }

    #[test]
    fn heal_and_recover_reverse_their_faults() {
        let mut net = net();
        let mut plan = FaultPlan::new();
        plan.partition_at(1, "a", "b");
        plan.crash_at(1, "i");
        plan.heal_at(2, "a", "b");
        plan.recover_at(3, "i");

        plan.apply_due(1, &mut net);
        assert!(net.is_partitioned("a", "b"));
        assert!(net.is_crashed("i"));
        plan.apply_due(2, &mut net);
        assert!(!net.is_partitioned("a", "b"));
        assert!(net.is_crashed("i"), "recover not due yet");
        plan.apply_due(3, &mut net);
        assert!(!net.is_crashed("i"));
    }

    #[test]
    fn clock_skew_is_tracked_and_clearable() {
        let mut net = net();
        let mut plan = FaultPlan::new();
        plan.skew_clock_at(5, "domB", 200);
        plan.skew_clock_at(9, "domB", -75);
        plan.skew_clock_at(12, "domB", 0);

        assert_eq!(plan.clock_skew("domB"), 0, "no skew before the tick");
        plan.apply_due(5, &mut net);
        assert_eq!(plan.clock_skew("domB"), 200);
        assert_eq!(plan.clock_skew("domA"), 0, "other nodes stay in sync");
        plan.apply_due(9, &mut net);
        assert_eq!(plan.clock_skew("domB"), -75, "reskew replaces");
        plan.apply_due(12, &mut net);
        assert_eq!(plan.clock_skew("domB"), 0, "zero offset clears");
        assert_eq!(net.stats(), (0, 0), "no traffic side effects");
    }

    #[test]
    fn schedule_round_trips_through_snapshot_and_subsets_replay() {
        let mut plan = FaultPlan::new();
        plan.partition_at(10, "a", "b");
        plan.crash_at(5, "c");
        plan.heal_at(20, "a", "b");

        let snapshot = plan.schedule_snapshot();
        assert_eq!(snapshot.len(), 3);
        assert_eq!(snapshot[0].0, 5, "snapshot is in application order");

        // Full round trip: the rebuilt plan applies identically.
        let mut rebuilt = FaultPlan::from_schedule(snapshot.clone());
        assert_eq!(rebuilt.schedule_snapshot(), snapshot);
        let mut net1 = net();
        let mut net2 = net();
        plan.apply_due(100, &mut net1);
        rebuilt.apply_due(100, &mut net2);
        assert_eq!(net1.is_partitioned("a", "b"), net2.is_partitioned("a", "b"));
        assert_eq!(net1.is_crashed("c"), net2.is_crashed("c"));

        // A subset replays only its own faults — the shrink loop's move.
        let subset: Vec<_> = snapshot.iter().filter(|(t, _)| *t != 5).cloned().collect();
        let mut reduced = FaultPlan::from_schedule(subset);
        let mut net3 = net();
        reduced.apply_due(100, &mut net3);
        assert!(!net3.is_crashed("c"), "dropped fault never fires");
        assert!(!net3.is_partitioned("a", "b"), "partition healed at 20");

        // Applied faults leave the snapshot: it captures what remains.
        assert!(plan.schedule_snapshot().is_empty());
    }
}
