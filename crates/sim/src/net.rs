//! Network modelling: latency, loss, and partitions.

use std::collections::HashSet;

use crate::latency::Latency;
use crate::sim::Simulation;

/// A network node name (a domain or service in OASIS scenarios).
pub type NodeId = String;

/// The behaviour of every link in a [`SimNet`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkConfig {
    /// Delivery latency distribution.
    pub latency: Latency,
    /// Probability a message is silently dropped, in `[0, 1]`.
    pub loss: f64,
    /// Probability a delivered message arrives *twice* (with independent
    /// delays), in `[0, 1]` — retransmission ghosts.
    pub duplicate: f64,
    /// Extra uniformly-sampled delay in `[0, jitter]` ticks added to each
    /// delivery on top of the latency distribution.
    pub jitter: u64,
}

impl Default for LinkConfig {
    fn default() -> Self {
        Self {
            latency: Latency::Constant(1),
            loss: 0.0,
            duplicate: 0.0,
            jitter: 0,
        }
    }
}

impl LinkConfig {
    /// A clean link with the given latency model: no loss, no
    /// duplication, no jitter.
    pub fn clean(latency: Latency) -> Self {
        Self {
            latency,
            ..Self::default()
        }
    }

    /// The sampled delivery delay: latency plus jitter.
    fn delay(&self, rng: &mut impl rand::RngCore) -> u64 {
        let base = self.latency.sample(rng);
        if self.jitter == 0 {
            base
        } else {
            base.saturating_add(rand::Rng::random_range(rng, 0..=self.jitter))
        }
    }
}

/// A directed network between named nodes.
///
/// `SimNet` computes *when* (and whether) a message arrives; the message
/// itself is a closure run at delivery time, so any application state can
/// be touched. Partitioned pairs drop everything until healed.
///
/// # Example
///
/// ```
/// use oasis_sim::{Latency, LinkConfig, SimNet, Simulation};
/// use std::cell::Cell;
/// use std::rc::Rc;
///
/// let mut sim = Simulation::new(1);
/// let mut net = SimNet::new(LinkConfig::clean(Latency::Constant(7)));
/// let arrived = Rc::new(Cell::new(0));
/// let a = Rc::clone(&arrived);
/// net.send(&mut sim, "client", "server", move |sim| a.set(sim.now()));
/// sim.run();
/// assert_eq!(arrived.get(), 7);
/// ```
#[derive(Debug)]
pub struct SimNet {
    link: LinkConfig,
    partitioned: HashSet<(NodeId, NodeId)>,
    crashed: HashSet<NodeId>,
    sent: u64,
    dropped: u64,
    duplicated: u64,
}

impl SimNet {
    /// Creates a network where every link uses `link`.
    pub fn new(link: LinkConfig) -> Self {
        Self {
            link,
            partitioned: HashSet::new(),
            crashed: HashSet::new(),
            sent: 0,
            dropped: 0,
            duplicated: 0,
        }
    }

    /// Cuts both directions between `a` and `b`.
    pub fn partition(&mut self, a: impl Into<NodeId>, b: impl Into<NodeId>) {
        let (a, b) = (a.into(), b.into());
        self.partitioned.insert((a.clone(), b.clone()));
        self.partitioned.insert((b, a));
    }

    /// Restores both directions between `a` and `b`.
    pub fn heal(&mut self, a: impl Into<NodeId>, b: impl Into<NodeId>) {
        let (a, b) = (a.into(), b.into());
        self.partitioned.remove(&(a.clone(), b.clone()));
        self.partitioned.remove(&(b, a));
    }

    /// Whether `from → to` is currently cut.
    pub fn is_partitioned(&self, from: &str, to: &str) -> bool {
        self.partitioned
            .contains(&(from.to_string(), to.to_string()))
    }

    /// Crashes a node: until [`SimNet::recover`], every message from or
    /// to it is dropped.
    pub fn crash(&mut self, node: impl Into<NodeId>) {
        self.crashed.insert(node.into());
    }

    /// Brings a crashed node back; messages flow again. (Messages dropped
    /// while down stay dropped — a rebooted process has an empty socket.)
    pub fn recover(&mut self, node: impl Into<NodeId>) {
        self.crashed.remove(&node.into());
    }

    /// Whether `node` is currently crashed.
    pub fn is_crashed(&self, node: &str) -> bool {
        self.crashed.contains(node)
    }

    /// Sends a message: schedules `deliver` on `sim` after the network's
    /// sampled latency (plus jitter). Returns `false` if the message was
    /// lost, the link is partitioned, or either endpoint is crashed (in
    /// which case `deliver` never runs). A duplicating link may schedule
    /// `deliver` twice, with independently sampled delays — which is why
    /// the closure must be `Clone`.
    pub fn send(
        &mut self,
        sim: &mut Simulation,
        from: &str,
        to: &str,
        deliver: impl FnOnce(&mut Simulation) + Clone + 'static,
    ) -> bool {
        self.sent += 1;
        if self.is_partitioned(from, to) || self.is_crashed(from) || self.is_crashed(to) {
            self.dropped += 1;
            return false;
        }
        let config = self.link;
        if config.loss > 0.0 && sim.rng().next_u64() as f64 / u64::MAX as f64 <= config.loss {
            self.dropped += 1;
            return false;
        }
        let delay = config.delay(sim.rng());
        if config.duplicate > 0.0
            && (sim.rng().next_u64() as f64 / u64::MAX as f64) <= config.duplicate
        {
            self.duplicated += 1;
            let ghost_delay = config.delay(sim.rng());
            sim.schedule_in(ghost_delay, deliver.clone());
        }
        sim.schedule_in(delay, deliver);
        true
    }

    /// `(messages sent, messages dropped)` so far.
    pub fn stats(&self) -> (u64, u64) {
        (self.sent, self.dropped)
    }

    /// Messages delivered twice by duplicating links so far.
    pub fn duplicated(&self) -> u64 {
        self.duplicated
    }
}

// RngCore is needed for next_u64 in `send`.
use rand::RngCore as _;

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::{Cell, RefCell};
    use std::rc::Rc;

    fn lossless(latency: Latency) -> SimNet {
        SimNet::new(LinkConfig::clean(latency))
    }

    #[test]
    fn default_link_applies() {
        let mut sim = Simulation::new(0);
        let mut net = lossless(Latency::Constant(4));
        let at = Rc::new(Cell::new(0));
        let a = Rc::clone(&at);
        assert!(net.send(&mut sim, "x", "y", move |s| a.set(s.now())));
        sim.run();
        assert_eq!(at.get(), 4);
    }

    #[test]
    fn partition_blocks_and_heal_restores() {
        let mut sim = Simulation::new(0);
        let mut net = lossless(Latency::Constant(1));
        net.partition("a", "b");
        assert!(net.is_partitioned("a", "b"));
        assert!(net.is_partitioned("b", "a"));
        assert!(!net.send(&mut sim, "a", "b", |_| panic!("must not deliver")));
        sim.run();

        net.heal("a", "b");
        let ok = Rc::new(Cell::new(false));
        let o = Rc::clone(&ok);
        assert!(net.send(&mut sim, "a", "b", move |_| o.set(true)));
        sim.run();
        assert!(ok.get());
        assert_eq!(net.stats(), (2, 1));
    }

    #[test]
    fn full_loss_drops_everything() {
        let mut sim = Simulation::new(0);
        let mut net = SimNet::new(LinkConfig {
            latency: Latency::Constant(1),
            loss: 1.0,
            ..LinkConfig::default()
        });
        for _ in 0..10 {
            assert!(!net.send(&mut sim, "a", "b", |_| panic!("dropped")));
        }
        sim.run();
        assert_eq!(net.stats(), (10, 10));
    }

    #[test]
    fn crashed_node_drops_both_directions_until_recovery() {
        let mut sim = Simulation::new(0);
        let mut net = lossless(Latency::Constant(1));
        net.crash("b");
        assert!(net.is_crashed("b"));
        assert!(!net.send(&mut sim, "a", "b", |_| panic!("to crashed")));
        assert!(!net.send(&mut sim, "b", "a", |_| panic!("from crashed")));
        // Traffic not involving the crashed node is unaffected.
        let ok = Rc::new(Cell::new(false));
        let o = Rc::clone(&ok);
        assert!(net.send(&mut sim, "a", "c", move |_| o.set(true)));
        net.recover("b");
        let back = Rc::new(Cell::new(false));
        let b = Rc::clone(&back);
        assert!(net.send(&mut sim, "a", "b", move |_| b.set(true)));
        sim.run();
        assert!(ok.get() && back.get());
        assert_eq!(net.stats(), (4, 2));
    }

    #[test]
    fn duplicating_link_delivers_twice() {
        let mut sim = Simulation::new(9);
        let mut net = SimNet::new(LinkConfig {
            latency: Latency::Constant(1),
            duplicate: 1.0,
            ..LinkConfig::default()
        });
        let count = Rc::new(Cell::new(0u32));
        for _ in 0..5 {
            let c = Rc::clone(&count);
            assert!(net.send(&mut sim, "a", "b", move |_| c.set(c.get() + 1)));
        }
        sim.run();
        assert_eq!(count.get(), 10, "every message arrives twice");
        assert_eq!(net.duplicated(), 5);
        assert_eq!(net.stats(), (5, 0), "duplicates are not counted as sent");
    }

    #[test]
    fn jitter_spreads_delivery_times_deterministically() {
        let run = |seed| {
            let mut sim = Simulation::new(seed);
            let mut net = SimNet::new(LinkConfig {
                latency: Latency::Constant(5),
                jitter: 10,
                ..LinkConfig::default()
            });
            let times = Rc::new(RefCell::new(Vec::new()));
            for _ in 0..50 {
                let t = Rc::clone(&times);
                net.send(&mut sim, "a", "b", move |s| t.borrow_mut().push(s.now()));
            }
            sim.run();
            let arrivals = times.borrow().clone();
            arrivals
        };
        let a = run(4);
        assert_eq!(a, run(4), "same seed, same arrival times");
        assert!(a.iter().all(|&t| (5..=15).contains(&t)));
        let distinct: std::collections::HashSet<u64> = a.iter().copied().collect();
        assert!(distinct.len() > 1, "jitter actually varies delays");
    }

    #[test]
    fn partial_loss_is_probabilistic_but_deterministic_per_seed() {
        let run = |seed| {
            let mut sim = Simulation::new(seed);
            let mut net = SimNet::new(LinkConfig {
                latency: Latency::Constant(1),
                loss: 0.5,
                ..LinkConfig::default()
            });
            let delivered = Rc::new(Cell::new(0u32));
            for _ in 0..200 {
                let d = Rc::clone(&delivered);
                net.send(&mut sim, "a", "b", move |_| d.set(d.get() + 1));
            }
            sim.run();
            delivered.get()
        };
        let a = run(3);
        assert_eq!(a, run(3), "same seed, same outcome");
        assert!((50..150).contains(&a), "roughly half delivered: {a}");
    }
}
