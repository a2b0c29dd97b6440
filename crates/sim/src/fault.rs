//! Scripted fault injection for chaos experiments.
//!
//! A [`FaultPlan`] is a deterministic schedule of faults — partitions,
//! heals, crashes, recoveries, clock skews, a Byzantine CIV, leader
//! kills, flapping links and torn journal tails — applied as virtual
//! time advances. Scripting the faults (rather than sampling them)
//! makes chaos runs exactly repeatable and lets a test assert on *when*
//! degradation and recovery must happen. The conformance matrix
//! (`oasis-conformance`) runs the plans: its two-domain runner schedules
//! the network, clock and CIV faults, its replicated runner the leader
//! kills and link flaps, and `tests/durable_recovery.rs` the torn tail.
//!
//! # Crash durability
//!
//! [`Fault::Crash`] models fail-stop: the node's volatile state (record
//! maps, caches, bus subscriptions) is gone, but whatever its
//! durability journal had *acknowledged* survives. The driver models
//! this by dropping the service instance while keeping a cloned handle
//! to its storage backend, then handing the same handle to the
//! restarted instance after [`Fault::Recover`].
//!
//! Real crashes also tear the last disk write. [`Fault::TearJournalTail`]
//! scripts that: it accumulates as a [`JournalDamage`] descriptor which
//! the driver drains ([`FaultPlan::take_journal_damage`]) and applies
//! to the crashed node's backend (e.g. `MemBackend::append_garbage` in
//! `oasis-store`) *before* restarting it. Recovery must then heal the
//! tail: stop at the last valid record, never panic, never resurrect a
//! record past the damage point.

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
    /// Chop bytes off the end of a node's durability journal — the torn
    /// final write of a crash mid-append. Accumulates as
    /// [`JournalDamage::TornTail`] for the driver to apply to the
    /// node's storage backend.
    TearJournalTail {
        /// The node whose journal is torn.
        node: NodeId,
        /// How many bytes the torn write loses.
        bytes: u64,
    },
    /// Kill whichever member of `group` is the replication leader at
    /// the moment the fault fires. The plan cannot know the leader at
    /// scripting time (an earlier fault may already have forced a
    /// failover), so this accumulates as a pending kill that the
    /// driver resolves against live cluster state via
    /// [`FaultPlan::take_leader_kills`] and applies itself (e.g.
    /// `LocalMesh::kill` in `oasis-store`).
    KillLeader {
        /// The replication group to decapitate.
        group: Vec<NodeId>,
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
    /// Make the link between `a` and `b` flap: alternate between
    /// delivering and dropping in runs of `window` calls — the
    /// half-dead cable that keeps interrupting a long transfer. A
    /// `window` of zero steadies the link again. Like [`Fault::KillLeader`]
    /// this is driver-resolved: the plan cannot reach into a replica
    /// mesh, so flaps accumulate for the driver to drain via
    /// [`FaultPlan::take_link_flaps`] and apply (e.g.
    /// `LocalMesh::set_flappy` in `oasis-store`).
    FlappyPeerLink {
        /// One endpoint of the flapping link.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
        /// Calls per up/down run; zero restores a steady link.
        window: u64,
    },
}

/// Scripted damage to one node's durability journal, drained by the
/// driver via [`FaultPlan::take_journal_damage`] and applied to the
/// node's storage backend before restart.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalDamage {
    /// The tail of the journal is missing `bytes` bytes.
    TornTail {
        /// How many bytes to truncate from the end.
        bytes: u64,
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
    journal_damage: Vec<(NodeId, JournalDamage)>,
    leader_kills: Vec<Vec<NodeId>>,
    link_flaps: Vec<(NodeId, NodeId, u64)>,
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

    /// Schedules a torn journal tail at `tick` — usually the same tick
    /// as a [`FaultPlan::crash_at`] on the same node.
    pub fn tear_journal_at(&mut self, tick: u64, node: impl Into<NodeId>, bytes: u64) {
        self.schedule(
            tick,
            Fault::TearJournalTail {
                node: node.into(),
                bytes,
            },
        );
    }

    /// Schedules the kill of whichever member of `group` leads the
    /// replication group when the tick fires (driver-resolved — see
    /// [`Fault::KillLeader`]).
    pub fn kill_leader_at<I, N>(&mut self, tick: u64, group: I)
    where
        I: IntoIterator<Item = N>,
        N: Into<NodeId>,
    {
        self.schedule(
            tick,
            Fault::KillLeader {
                group: group.into_iter().map(Into::into).collect(),
            },
        );
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

    /// Schedules the link between `a` and `b` to start flapping at
    /// `tick` in runs of `window` calls (driver-resolved — see
    /// [`Fault::FlappyPeerLink`]).
    pub fn flap_link_at(
        &mut self,
        tick: u64,
        a: impl Into<NodeId>,
        b: impl Into<NodeId>,
        window: u64,
    ) {
        self.schedule(
            tick,
            Fault::FlappyPeerLink {
                a: a.into(),
                b: b.into(),
                window,
            },
        );
    }

    /// Applies (and consumes) every fault scheduled at or before `now`,
    /// in schedule order, returning what was applied. Network faults act
    /// on `net`; the rest update the plan's own ledgers (journal damage,
    /// leader kills, link flaps, clock skews) or, like
    /// [`Fault::ByzantineCiv`], only reach the caller through the
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
                Fault::TearJournalTail { node, bytes } => {
                    self.journal_damage
                        .push((node.clone(), JournalDamage::TornTail { bytes: *bytes }));
                }
                Fault::KillLeader { group } => {
                    self.leader_kills.push(group.clone());
                }
                Fault::ClockSkew { node, offset_ms } => {
                    if *offset_ms == 0 {
                        self.skews.remove(node);
                    } else {
                        self.skews.insert(node.clone(), *offset_ms);
                    }
                }
                Fault::ByzantineCiv { .. } => {}
                Fault::FlappyPeerLink { a, b, window } => {
                    self.link_flaps.push((a.clone(), b.clone(), *window));
                }
            }
        }
        applied
    }

    /// Drains the journal damage applied so far: `(node, damage)` in
    /// application order. The driver applies each to the node's storage
    /// backend before restarting the node.
    pub fn take_journal_damage(&mut self) -> Vec<(NodeId, JournalDamage)> {
        std::mem::take(&mut self.journal_damage)
    }

    /// Drains the pending leader kills: one group per fired
    /// [`Fault::KillLeader`], in application order. The driver looks
    /// up which group member currently leads and crashes it — the plan
    /// stays deterministic while the victim is resolved live.
    pub fn take_leader_kills(&mut self) -> Vec<Vec<NodeId>> {
        std::mem::take(&mut self.leader_kills)
    }

    /// Drains the pending link flaps: `(a, b, window)` per fired
    /// [`Fault::FlappyPeerLink`], in application order. A zero window
    /// means the driver should steady the link.
    pub fn take_link_flaps(&mut self) -> Vec<(NodeId, NodeId, u64)> {
        std::mem::take(&mut self.link_flaps)
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
    fn journal_damage_accumulates_and_drains() {
        let mut net = net();
        let mut plan = FaultPlan::new();
        plan.crash_at(5, "issuer");
        plan.tear_journal_at(5, "issuer", 3);

        plan.apply_due(4, &mut net);
        assert!(plan.take_journal_damage().is_empty());

        plan.apply_due(6, &mut net);
        assert!(net.is_crashed("issuer"));
        let damage = plan.take_journal_damage();
        assert_eq!(
            damage,
            vec![("issuer".into(), JournalDamage::TornTail { bytes: 3 })]
        );
        assert!(plan.take_journal_damage().is_empty(), "drained");
        assert_eq!(net.stats(), (0, 0), "no traffic side effects");
    }

    #[test]
    fn kill_leader_accumulates_for_the_driver_to_resolve() {
        let mut net = net();
        let mut plan = FaultPlan::new();
        plan.kill_leader_at(10, ["n0", "n1", "n2"]);

        plan.apply_due(9, &mut net);
        assert!(plan.take_leader_kills().is_empty());

        let applied = plan.apply_due(10, &mut net);
        assert_eq!(applied.len(), 1);
        // The plan does not pick a victim; the driver resolves the
        // live leader from the drained group.
        let kills = plan.take_leader_kills();
        let group: Vec<NodeId> = vec!["n0".into(), "n1".into(), "n2".into()];
        assert_eq!(kills, vec![group]);
        assert!(plan.take_leader_kills().is_empty(), "drained");
        assert_eq!(net.stats(), (0, 0), "no direct net side effects");
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
    fn link_flaps_accumulate_for_the_driver_to_resolve() {
        let mut net = net();
        let mut plan = FaultPlan::new();
        plan.flap_link_at(5, "leader", "f1", 3);
        plan.flap_link_at(9, "leader", "f1", 0);

        plan.apply_due(4, &mut net);
        assert!(plan.take_link_flaps().is_empty());

        plan.apply_due(5, &mut net);
        assert_eq!(
            plan.take_link_flaps(),
            vec![("leader".into(), "f1".into(), 3)]
        );
        assert!(plan.take_link_flaps().is_empty(), "drained");

        // A steady is a zero-window flap for the driver to clear.
        plan.apply_due(9, &mut net);
        assert_eq!(
            plan.take_link_flaps(),
            vec![("leader".into(), "f1".into(), 0)]
        );
        assert_eq!(net.stats(), (0, 0), "no direct net side effects");
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
