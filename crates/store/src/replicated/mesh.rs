//! The deterministic in-process transport, with crash, partition and
//! flapping-link injection.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use super::{PeerReply, PeerRequest, ReplicaNode, ReplicationTransport};
use crate::error::StoreError;

#[derive(Default)]
struct MeshInner {
    nodes: BTreeMap<String, Arc<ReplicaNode>>,
    down: HashSet<String>,
    cut: HashSet<(String, String)>,
    /// Flapping links keyed by the normalised (sorted) endpoint pair:
    /// `(window, calls seen)`. The link alternates `window` successful
    /// calls then `window` failed calls, deterministically by count —
    /// no randomness, so replays are byte-identical.
    flappy: HashMap<(String, String), (u64, u64)>,
}

/// Normalised key for an undirected link.
fn link_key(a: &str, b: &str) -> (String, String) {
    if a <= b {
        (a.to_string(), b.to_string())
    } else {
        (b.to_string(), a.to_string())
    }
}

/// A deterministic in-process transport connecting [`ReplicaNode`]s
/// directly, with crash and partition injection — the replication
/// analogue of `oasis-sim`'s `SimNet`.
///
/// The mesh owns a virtual clock (milliseconds) that tests advance
/// explicitly; `call` delivers synchronously at the current virtual
/// time, so a whole failover is reproducible from a seed.
#[derive(Clone, Default)]
pub struct LocalMesh {
    inner: Arc<Mutex<MeshInner>>,
    clock: Arc<AtomicU64>,
}

impl LocalMesh {
    /// An empty mesh at virtual time 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `node` to the mesh under its configured id.
    pub fn register(&self, node: Arc<ReplicaNode>) {
        self.inner.lock().nodes.insert(node.id().to_string(), node);
    }

    /// The registered node with `id`, if any.
    pub fn node(&self, id: &str) -> Option<Arc<ReplicaNode>> {
        self.inner.lock().nodes.get(id).cloned()
    }

    /// Current virtual time in milliseconds.
    pub fn now(&self) -> u64 {
        self.clock.load(Ordering::SeqCst)
    }

    /// Advances virtual time by `ms` and returns the new time.
    pub fn advance(&self, ms: u64) -> u64 {
        self.clock.fetch_add(ms, Ordering::SeqCst) + ms
    }

    /// Marks `id` crashed: all traffic to and from it fails.
    pub fn kill(&self, id: &str) {
        self.inner.lock().down.insert(id.to_string());
    }

    /// Revives a crashed node (its volatile role state is whatever it
    /// was — a real restart would build a fresh node on the same
    /// backends instead).
    pub fn revive(&self, id: &str) {
        self.inner.lock().down.remove(id);
    }

    /// True when `id` is currently marked crashed.
    pub fn is_down(&self, id: &str) -> bool {
        self.inner.lock().down.contains(id)
    }

    /// Cuts the link between `a` and `b` in both directions.
    pub fn partition(&self, a: &str, b: &str) {
        let mut inner = self.inner.lock();
        inner.cut.insert((a.to_string(), b.to_string()));
        inner.cut.insert((b.to_string(), a.to_string()));
    }

    /// Restores the link between `a` and `b`.
    pub fn heal_partition(&self, a: &str, b: &str) {
        let mut inner = self.inner.lock();
        inner.cut.remove(&(a.to_string(), b.to_string()));
        inner.cut.remove(&(b.to_string(), a.to_string()));
    }

    /// Makes the `a`↔`b` link flap: `window` calls succeed, then
    /// `window` calls fail, repeating. Deterministic in the number of
    /// calls, not in time.
    pub fn set_flappy(&self, a: &str, b: &str, window: u64) {
        self.inner
            .lock()
            .flappy
            .insert(link_key(a, b), (window.max(1), 0));
    }

    /// Stops the `a`↔`b` link flapping.
    pub fn clear_flappy(&self, a: &str, b: &str) {
        self.inner.lock().flappy.remove(&link_key(a, b));
    }

    /// Ticks every live node once at the current virtual time, in id
    /// order (deterministic).
    pub fn tick_all(&self) {
        let now = self.now();
        for node in self.live_nodes() {
            node.tick(now);
        }
    }

    /// Advances time by `ms` then ticks every live node — one
    /// simulation step.
    pub fn step(&self, ms: u64) {
        self.advance(ms);
        self.tick_all();
    }

    /// The current leader among live nodes, if exactly one exists.
    pub fn live_leader(&self) -> Option<Arc<ReplicaNode>> {
        let mut leaders = self.live_nodes().into_iter().filter(|n| n.is_leader());
        match (leaders.next(), leaders.next()) {
            (Some(one), None) => Some(one),
            _ => None,
        }
    }

    /// The nodes not marked crashed, in id order.
    fn live_nodes(&self) -> Vec<Arc<ReplicaNode>> {
        let inner = self.inner.lock();
        inner
            .nodes
            .iter()
            .filter(|(id, _)| !inner.down.contains(*id))
            .map(|(_, n)| Arc::clone(n))
            .collect()
    }
}

impl ReplicationTransport for LocalMesh {
    fn call(&self, peer: &str, req: &PeerRequest) -> Result<PeerReply, StoreError> {
        let origin = req.origin();
        let node = {
            let mut inner = self.inner.lock();
            if inner.down.contains(origin) {
                return Err(StoreError::Io(format!("{origin}: node crashed")));
            }
            if inner.down.contains(peer) {
                return Err(StoreError::Io(format!("{peer}: node crashed")));
            }
            // Looking a link up builds owned keys: do it only while some
            // link is cut or flapping.
            if !inner.cut.is_empty() && inner.cut.contains(&(origin.into(), peer.into())) {
                return Err(StoreError::Io(format!("{origin}->{peer}: link cut")));
            }
            if !inner.flappy.is_empty() {
                if let Some((window, count)) = inner.flappy.get_mut(&link_key(origin, peer)) {
                    let n = *count;
                    *count += 1;
                    if (n / *window) % 2 == 1 {
                        return Err(StoreError::Io(format!("{origin}->{peer}: link flapping")));
                    }
                }
            }
            inner
                .nodes
                .get(peer)
                .cloned()
                .ok_or_else(|| StoreError::Io(format!("{peer}: unknown node")))?
        };
        // Deliver outside the mesh lock so concurrent calls (and the
        // peer's own transport use) cannot deadlock on it.
        Ok(node.handle(req, self.now()))
    }
}
