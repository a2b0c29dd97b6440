//! Quorum-replicated storage: a [`StorageBackend`] whose writes only
//! succeed once a majority of replica nodes hold them.
//!
//! PR 3 made the journal crash-safe; this module makes it
//! *node-loss*-safe, as the paper's ref \[10\] assumes of Certificate
//! Issuing & Validation services. The model is a deliberately small
//! Raft-style protocol specialised to OASIS's write pattern (an
//! append-mostly WAL plus a replace-on-snapshot blob):
//!
//! * **Named byte regions.** Each [`ReplicaNode`] hosts local backends
//!   keyed by region name (`"journal"`, `"snapshot"`, …). A
//!   [`ReplicatedStore`] is the per-region facade handed to
//!   `DurableStore`: reads are local, writes go through the quorum
//!   path. Replicating at the byte level means the whole
//!   journal/snapshot/truncation stack above replicates transparently.
//! * **Single leader, term-based election.** Exactly one node accepts
//!   writes per term. Followers answer [`StoreError::NotLeader`] with
//!   the current leader's client address so callers can re-dial.
//! * **Quorum commit.** A write is applied locally, sent as a
//!   [`PeerRequest::Replicate`] frame, and acknowledged to the caller
//!   only when `floor(n/2)+1` nodes (leader included) hold it —
//!   otherwise [`StoreError::NoQuorum`]. An acknowledged issuance or
//!   revocation therefore survives the loss of any single node.
//! * **Thrifty rounds.** A round sends its entry only to a *sync set*:
//!   the quorum−1 peers with the highest heads the leader last saw
//!   acked (ties in config order), plus any peer whose head is unknown
//!   or would trail the entry by a whole repair batch. The other peers
//!   are called in the same round only when the sync set falls short of
//!   a quorum. A follower left out catches up off the commit path —
//!   through the lag-bound round or the next heartbeat's nack, by the
//!   entry-level repair below — so its gap is never more than one
//!   [`PeerReply::RepairChunk`]. The commit waits on the sync set's
//!   round trip, not the slowest follower's.
//! * **Chained log hash.** Every entry folds `(index, region, op,
//!   bytes)` into a running 64-bit hash (first eight bytes of a
//!   SHA-256 chain). Followers verify `(prev_index, prev_hash)` before
//!   appending, which catches divergence that an index-only check
//!   misses — e.g. an old leader's unacknowledged entry occupying the
//!   same index as the new leader's committed one.
//! * **Entry-level log repair.** Every node retains a bounded tail of
//!   recent log entries (hash-chained). A follower that merely *lags*
//!   pulls the missing suffix from the leader with
//!   [`PeerRequest::Repair`] / [`PeerReply::RepairChunk`] batches and
//!   replays it entry by entry — no state transfer, bytes proportional
//!   to the gap.
//! * **Resumable chunked sync.** Only when the leader's tail has been
//!   compacted past the follower's head (or the logs truly diverged)
//!   does the leader fall back to a full state transfer — and then it
//!   ships every region in bounded, checksummed
//!   [`PeerRequest::SyncChunk`] frames. A mid-transfer link drop keeps
//!   the session; the next round resumes from the last acked chunk
//!   instead of restarting.
//! * **Election restriction.** A vote is granted only to candidates
//!   whose `(last_term, last_index)` is at least the voter's, so any
//!   winner's log contains every quorum-acknowledged entry (the vote
//!   quorum intersects the commit quorum).
//! * **Pre-vote.** Before standing, a candidate probes a quorum with a
//!   non-term-incrementing [`PeerRequest::PreVote`] round. Peers that
//!   still hear a live leader refuse, so a flapping or isolated node
//!   cannot storm terms and depose a stable leader when it rejoins.
//! * **Leader fencing.** A leader that cannot refresh a commit quorum
//!   within a lease window stops acking writes and serving repair
//!   catch-up ([`StoreError::NotLeader`] with no hint), closing the
//!   stale-leader window during asymmetric partitions. It keeps
//!   heartbeating, so a healed partition un-fences it (or deposes it
//!   via the new leader's higher term).
//!
//! Transport is abstracted behind [`ReplicationTransport`]: the
//! in-process [`LocalMesh`] (deterministic, fault-injectable — used by
//! tests, chaos suites, and benches) lives here; `oasis-wire` provides
//! the TCP implementation carrying these frames between real nodes.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use oasis_json::Json;
use parking_lot::Mutex;

use crate::backend::{MemBackend, StorageBackend};
use crate::error::StoreError;

mod election;
mod log;
mod mesh;
mod message;
mod repair;
mod sync;
#[cfg(test)]
mod tests;

pub use mesh::LocalMesh;
pub use message::{LogEntry, PeerReply, PeerRequest, RegionOp};

use sync::{PendingSync, SyncSession};

// ---------------------------------------------------------------------------
// Transport
// ---------------------------------------------------------------------------

/// Carries [`PeerRequest`]s between replica nodes.
///
/// `oasis-store` cannot depend on `oasis-wire` (the dependency points
/// the other way), so the TCP transport lives there; this crate ships
/// the deterministic in-process [`LocalMesh`] used by tests and
/// benches. A transport failure (crashed peer, cut link, timeout) is
/// an `Err` — the caller treats it as a missing ack, never fatal.
pub trait ReplicationTransport: Send + Sync {
    /// Delivers `req` to `peer` and returns its reply.
    fn call(&self, peer: &str, req: &PeerRequest) -> Result<PeerReply, StoreError>;

    /// One fan-out round: delivers `req` to each of `peers` and returns
    /// the replies in `peers` order. Every listed peer is contacted
    /// before any reply is acted on. The caller picks the peers: a
    /// heartbeat or election lists all of them, a commit round only its
    /// sync set (see [`ReplicaNode::replicate_op`]). The default calls
    /// the peers one after the other, in order — what a deterministic
    /// in-process transport wants; a networked transport overrides it
    /// to put the frame on every link before it waits for the first
    /// reply, so a round costs the slowest listed peer's round trip,
    /// not the sum of them.
    fn call_all(&self, peers: &[String], req: &PeerRequest) -> Vec<Result<PeerReply, StoreError>> {
        peers.iter().map(|peer| self.call(peer, req)).collect()
    }
}

// ---------------------------------------------------------------------------
// Replica node
// ---------------------------------------------------------------------------

/// A node's role in the current term.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Accepts no writes; answers `NotLeader` with the leader's hint.
    Follower,
    /// Standing for election in the current term.
    Candidate,
    /// The single node accepting writes this term.
    Leader,
}

/// Static configuration for one [`ReplicaNode`].
#[derive(Debug, Clone)]
pub struct ReplicaConfig {
    /// This node's id (must be unique across the cluster).
    pub id: String,
    /// The *other* nodes' ids (transport resolves ids to addresses).
    pub peers: Vec<String>,
    /// The address clients should dial when this node is leader —
    /// propagated in `NotLeader` rejections and heartbeat frames.
    pub client_hint: String,
    /// Leader heartbeat interval, in milliseconds of caller time.
    pub heartbeat_ms: u64,
    /// Base election timeout; each node adds a deterministic per-id
    /// skew in `[0, base)` so elections rarely collide.
    pub election_timeout_ms: u64,
    /// How many recent log entries each node retains for entry-level
    /// repair. A follower trailing by at most this many entries is
    /// healed by replaying the suffix; beyond it the leader falls back
    /// to a chunked full-state sync.
    pub retain_entries: usize,
    /// Payload bytes per [`PeerRequest::SyncChunk`] frame.
    pub sync_chunk_bytes: usize,
    /// When true (the default), [`ReplicaNode::start_election`] runs a
    /// non-term-incrementing pre-vote round first and stands only on a
    /// quorum of would-grants — an isolated node cannot storm terms.
    pub pre_vote: bool,
    /// Leader lease: a leader that has not refreshed a commit quorum
    /// within this window is *fenced* — it rejects writes and stops
    /// serving repair until contact is re-established.
    pub lease_ms: u64,
}

impl ReplicaConfig {
    /// A config with conventional timing (50ms heartbeat, 150ms base
    /// election timeout, 150ms leader lease), a 512-entry repair tail,
    /// 4 KiB sync chunks, and pre-vote enabled.
    pub fn new(id: impl Into<String>, peers: Vec<String>, client_hint: impl Into<String>) -> Self {
        Self {
            id: id.into(),
            peers,
            client_hint: client_hint.into(),
            heartbeat_ms: 50,
            election_timeout_ms: 150,
            retain_entries: 512,
            sync_chunk_bytes: 4096,
            pre_vote: true,
            lease_ms: 150,
        }
    }
}

oasis_obs::stats_set! {
    /// Counters exposed for tests, benches, and chaos traces, read from the
    /// node's registry series (shared by [`ReplicaNode::set_obs`]).
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct ReplicaStats / ReplicaSeries {
        /// Quorum rounds this node committed as leader — rounds, not
        /// records: one [`RegionOp`] is one round however many journal
        /// frames its bytes hold.
        committed: u64 = counter,
        /// Writes rejected because quorum was not reached.
        no_quorum: u64 = counter,
        /// Writes rejected because this node was not leader.
        not_leader: u64 = counter,
        /// Elections this node started.
        elections_started: u64 = counter,
        /// Elections this node won.
        elections_won: u64 = counter,
        /// Heartbeat rounds sent as leader.
        heartbeats_sent: u64 = counter,
        /// Full state transfers *completed* to diverged/compacted peers.
        syncs_sent: u64 = counter,
        /// Full state transfers applied as follower.
        syncs_applied: u64 = counter,
        /// Times this node observed a higher term and stepped down.
        step_downs: u64 = counter,
        /// Entry-level repair pulls this node initiated as a follower.
        repairs_pulled: u64 = counter,
        /// Log entries applied via entry-level repair (follower side).
        repair_entries_applied: u64 = counter,
        /// Repair batches served from the retained tail (leader side).
        repair_chunks_served: u64 = counter,
        /// Payload bytes served via entry-level repair (leader side).
        repair_bytes_served: u64 = counter,
        /// Sync chunk frames sent (including ones lost in transit).
        sync_chunks_sent: u64 = counter,
        /// Payload bytes shipped in sync chunk frames.
        sync_bytes_sent: u64 = counter,
        /// Sync sessions resumed from the last acked chunk after a
        /// mid-transfer failure (rather than restarted).
        sync_resumes: u64 = counter,
        /// Pre-vote rounds this node started.
        pre_votes_started: u64 = counter,
        /// Pre-vote rounds that failed to reach a quorum of would-grants
        /// (the node did not stand, and no term was consumed).
        pre_votes_blocked: u64 = counter,
        /// Transitions into the fenced state (lease expired as leader).
        fencings: u64 = counter,
        /// Writes rejected because this leader was fenced.
        fenced_rejects: u64 = counter,
    }
}

struct NodeState {
    term: u64,
    role: Role,
    voted_for: Option<String>,
    last_index: u64,
    last_term: u64,
    log_hash: u64,
    leader_id: Option<String>,
    leader_hint: Option<String>,
    /// Last time (caller clock, ms) we heard from a live leader, voted,
    /// or — as leader — sent a heartbeat round.
    last_heartbeat_ms: u64,
    /// Retained tail of recent log entries for entry-level repair. Each
    /// element is `(entry, chained hash *after* the entry)`.
    tail: VecDeque<(LogEntry, u64)>,
    /// The chained hash at the index just before the tail's first
    /// entry — the anchor a repairing follower must match to replay
    /// from the tail's start.
    tail_prev_hash: u64,
    /// Last time (caller clock, ms) this node, as leader, confirmed
    /// contact with a commit quorum. Drives the fencing lease.
    last_quorum_ms: u64,
    /// Latest caller clock observed in `tick`/`handle`; `replicate_op`
    /// has no clock parameter and reads this for the fencing check.
    clock_ms: u64,
    /// Edge latch so `fencings` counts transitions, not fenced ticks.
    fenced: bool,
    /// Inbound chunked sync in flight, if any.
    pending_sync: Option<PendingSync>,
    /// Leader side: each peer's log head as its last `ReplicateAck`
    /// reported it (heartbeat acks included), in `config.peers` order.
    /// `None` means unknown — never heard this term, or diverged and not
    /// yet re-synced. Cleared on every election win; picks each commit
    /// round's sync set.
    peer_heads: Vec<Option<u64>>,
}

/// The peers of a commit round, split as [`ReplicaNode`]'s `sync_set`
/// picks them, each in config order. Kept from round to round under the
/// write lock and rewritten only when the split changes, so a steady
/// round clones no peer name.
#[derive(Default)]
struct RoundPeers {
    sync_set: Vec<String>,
    others: Vec<String>,
}

/// Max log entries per [`PeerReply::RepairChunk`].
const REPAIR_BATCH: usize = 64;

/// True when a leader's quorum lease has lapsed: it must stop acking
/// writes and serving catch-up until it re-establishes contact.
fn fenced_now(st: &NodeState, cfg: &ReplicaConfig, now_ms: u64) -> bool {
    st.role == Role::Leader
        && !cfg.peers.is_empty()
        && now_ms.saturating_sub(st.last_quorum_ms) > cfg.lease_ms
}

/// One member of a replication group.
///
/// The node is clock-free: callers supply `now_ms` (real time in the
/// wire server, virtual time in tests and the simulator) to
/// [`ReplicaNode::tick`] and [`ReplicaNode::handle`]. All I/O goes
/// through the injected [`ReplicationTransport`].
pub struct ReplicaNode {
    config: ReplicaConfig,
    transport: Arc<dyn ReplicationTransport>,
    regions: Mutex<BTreeMap<String, Arc<dyn StorageBackend>>>,
    state: Mutex<NodeState>,
    /// Serialises the leader write path (reserve index → apply local →
    /// fan out) so entries replicate in index order.
    write: Mutex<RoundPeers>,
    meta: Option<Arc<dyn StorageBackend>>,
    metrics: oasis_obs::Registry,
    stats: ReplicaSeries,
    /// Outbound chunked sync sessions by peer (leader side).
    sync_sessions: Mutex<BTreeMap<String, SyncSession>>,
    /// Monotonic source of sync session ids (no wall clock: session
    /// ids must be deterministic under the virtual-time harness).
    sync_session_seq: AtomicU64,
    /// Causal span sink (no-op until [`ReplicaNode::set_obs`]).
    obs_sink: Mutex<oasis_obs::SpanSink>,
}

impl ReplicaNode {
    /// Creates a node in the follower role at term 0.
    pub fn new(config: ReplicaConfig, transport: Arc<dyn ReplicationTransport>) -> Self {
        let metrics = oasis_obs::Registry::new();
        let peer_heads = vec![None; config.peers.len()];
        Self {
            config,
            transport,
            regions: Mutex::new(BTreeMap::new()),
            state: Mutex::new(NodeState {
                term: 0,
                role: Role::Follower,
                voted_for: None,
                last_index: 0,
                last_term: 0,
                log_hash: 0,
                leader_id: None,
                leader_hint: None,
                last_heartbeat_ms: 0,
                tail: VecDeque::new(),
                tail_prev_hash: 0,
                last_quorum_ms: 0,
                clock_ms: 0,
                fenced: false,
                pending_sync: None,
                peer_heads,
            }),
            write: Mutex::default(),
            meta: None,
            stats: ReplicaSeries::resolve(&metrics, ""),
            metrics,
            sync_sessions: Mutex::new(BTreeMap::new()),
            sync_session_seq: AtomicU64::new(0),
            obs_sink: Mutex::new(oasis_obs::SpanSink::noop()),
        }
    }

    /// Persists election state (term, vote, log head) to `backend` and
    /// restores it now, so a restarted node cannot vote twice in a term
    /// it already voted in. An empty region is a node that never
    /// persisted anything, and starts fresh.
    ///
    /// # Errors
    ///
    /// Whatever reading `backend` fails with, and [`StoreError::Codec`]
    /// when its bytes are not the meta object this node writes (torn,
    /// truncated or foreign bytes, or an object without `term`): starting
    /// fresh from them would forget a vote already cast.
    pub fn with_meta(mut self, backend: Arc<dyn StorageBackend>) -> Result<Self, StoreError> {
        let bytes = backend.read()?;
        if !bytes.is_empty() {
            let torn = |why: &str| StoreError::Codec(format!("replica meta {why}"));
            let text = std::str::from_utf8(&bytes).map_err(|_| torn("is not UTF-8"))?;
            let json = Json::parse(text).map_err(|e| torn(&format!("is not JSON: {e}")))?;
            let u = |k: &str| json.get(k).and_then(Json::as_u64);
            let st = self.state.get_mut();
            st.term = u("term").ok_or_else(|| torn("has no `term`"))?;
            if let Some(i) = u("last_index") {
                st.last_index = i;
            }
            if let Some(t) = u("last_term") {
                st.last_term = t;
            }
            if let Some(h) = u("log_hash") {
                st.log_hash = h;
            }
            st.voted_for = json
                .get("voted_for")
                .and_then(Json::as_str)
                .map(str::to_string);
        }
        self.meta = Some(backend);
        Ok(self)
    }

    /// This node's id.
    pub fn id(&self) -> &str {
        &self.config.id
    }

    /// The static configuration this node was built with (hosts use the
    /// timing fields to pace their tick loop).
    pub fn config(&self) -> &ReplicaConfig {
        &self.config
    }

    /// The cluster size (peers plus this node).
    fn cluster_size(&self) -> usize {
        self.config.peers.len() + 1
    }

    /// Acks required to commit, this node included: `floor(n/2)+1`.
    pub fn quorum(&self) -> usize {
        self.cluster_size() / 2 + 1
    }

    /// Current role.
    pub fn role(&self) -> Role {
        self.state.lock().role
    }

    /// True when this node believes it is the leader.
    pub fn is_leader(&self) -> bool {
        self.role() == Role::Leader
    }

    /// Current term.
    pub fn term(&self) -> u64 {
        self.state.lock().term
    }

    /// Index of the last log entry applied locally.
    pub fn last_index(&self) -> u64 {
        self.state.lock().last_index
    }

    /// The address clients should dial to reach the current leader, if
    /// known (this node's own hint when it leads).
    pub fn leader_hint(&self) -> Option<String> {
        let st = self.state.lock();
        if st.role == Role::Leader {
            Some(self.config.client_hint.clone())
        } else {
            st.leader_hint.clone()
        }
    }

    /// Counters.
    pub fn stats(&self) -> ReplicaStats {
        self.stats.read()
    }

    /// Installs an observability recorder: this node's series are
    /// adopted into it under `name` and the leader write path
    /// emits causal spans (`civ.append`, `civ.follower_ack`,
    /// `civ.commit`) into the recorder's span sink whenever the caller
    /// carries an ambient [`oasis_obs::TraceCtx`].
    pub fn set_obs(self: &Arc<Self>, recorder: &dyn oasis_obs::Recorder, name: &str) {
        recorder.adopt(name, &self.metrics);
        *self.obs_sink.lock() = recorder.spans();
    }

    /// The local backend for `region`, a fresh in-memory one on first
    /// use. Reads through a [`ReplicatedStore`] resolve here.
    pub fn region(&self, name: &str) -> Arc<dyn StorageBackend> {
        let mut regions = self.regions.lock();
        if let Some(b) = regions.get(name) {
            return Arc::clone(b);
        }
        let backend: Arc<dyn StorageBackend> = Arc::new(MemBackend::new());
        regions.insert(name.to_string(), Arc::clone(&backend));
        backend
    }

    /// The quorum-replicated facade for `region`, usable anywhere a
    /// [`StorageBackend`] is.
    pub fn replicated(self: &Arc<Self>, name: &str) -> ReplicatedStore {
        // Ensure the region exists locally before anything writes.
        let _ = self.region(name);
        ReplicatedStore {
            node: Arc::clone(self),
            region: name.to_string(),
        }
    }

    /// Writes term, vote and log head to the meta region, if the node
    /// has one. A granted vote or a successful append ack leaves the node
    /// only after this succeeded; other callers send nothing that depends
    /// on it and leave a failure for the next write to retry.
    fn persist_meta(&self) -> Result<(), StoreError> {
        let Some(backend) = &self.meta else {
            return Ok(());
        };
        let json = {
            let st = self.state.lock();
            Json::obj(vec![
                ("term", Json::U64(st.term)),
                (
                    "voted_for",
                    match &st.voted_for {
                        Some(v) => Json::str(v.clone()),
                        None => Json::Null,
                    },
                ),
                ("last_index", Json::U64(st.last_index)),
                ("last_term", Json::U64(st.last_term)),
                ("log_hash", Json::U64(st.log_hash)),
            ])
        };
        backend.replace(oasis_json::to_string(&json).as_bytes())
    }

    /// Steps down to follower because a higher term was observed.
    fn step_down(&self, term: u64) {
        let mut st = self.state.lock();
        self.follow(&mut st, term);
        st.leader_id = None;
        drop(st);
        let _ = self.persist_meta();
    }

    /// Adopts `term` if it is higher than this node's (forgetting the
    /// vote cast in the old one) and becomes a follower.
    fn follow(&self, st: &mut NodeState, term: u64) {
        if term > st.term {
            st.term = term;
            st.voted_for = None;
        }
        if st.role != Role::Follower {
            st.role = Role::Follower;
            self.stats.step_downs.inc();
        }
    }

    /// Takes a frame from the leader of `term` (a
    /// [`PeerRequest::Replicate`] or a [`PeerRequest::SyncChunk`]):
    /// refuses a stale term, or a rival leader's frame in this node's own
    /// term; otherwise adopts a higher term, steps down to follower, and
    /// records the leader, its client hint and the heartbeat. Returns
    /// whether the frame was accepted.
    fn accept_leader(
        &self,
        st: &mut NodeState,
        term: u64,
        leader: &str,
        leader_hint: &str,
        now_ms: u64,
    ) -> bool {
        st.clock_ms = st.clock_ms.max(now_ms);
        if term < st.term || (term == st.term && st.role == Role::Leader) {
            return false;
        }
        self.follow(st, term);
        // Every heartbeat lands here: allocate only for a new leader.
        for (slot, value) in [
            (&mut st.leader_id, leader),
            (&mut st.leader_hint, leader_hint),
        ] {
            if slot.as_deref() != Some(value) {
                *slot = Some(value.to_string());
            }
        }
        st.last_heartbeat_ms = now_ms;
        true
    }

    /// Handles one peer request, returning the reply. `now_ms` is the
    /// caller's clock, used to reset the election timer.
    pub fn handle(&self, req: &PeerRequest, now_ms: u64) -> PeerReply {
        match req {
            PeerRequest::Replicate { .. } => self.on_replicate(req, now_ms),
            PeerRequest::LeaderClaim { .. } => self.on_leader_claim(req, now_ms),
            PeerRequest::PreVote { .. } => self.on_pre_vote(req, now_ms),
            PeerRequest::Repair { .. } => self.on_repair(req, now_ms),
            PeerRequest::SyncChunk { .. } => self.on_sync_chunk(req, now_ms),
        }
    }

    /// True when this node is a leader whose quorum lease has lapsed
    /// (it refuses writes and repair until contact is re-established).
    pub fn is_fenced(&self, now_ms: u64) -> bool {
        let st = self.state.lock();
        fenced_now(&st, &self.config, now_ms)
    }
}

// ---------------------------------------------------------------------------
// Replicated backend facade
// ---------------------------------------------------------------------------

/// The per-region [`StorageBackend`] facade over a [`ReplicaNode`].
///
/// Reads are local; `append`/`replace` go through the quorum write
/// path, so `DurableStore` journalling and snapshotting replicate
/// without knowing it.
#[derive(Clone)]
pub struct ReplicatedStore {
    node: Arc<ReplicaNode>,
    region: String,
}

impl ReplicatedStore {
    /// The node this store writes through.
    pub fn node(&self) -> &Arc<ReplicaNode> {
        &self.node
    }
}

impl StorageBackend for ReplicatedStore {
    fn read(&self) -> Result<Vec<u8>, StoreError> {
        self.node.region(&self.region).read()
    }

    fn append(&self, bytes: &[u8]) -> Result<(), StoreError> {
        self.node
            .replicate_op(&self.region, RegionOp::Append(bytes.to_vec()))
    }

    fn replace(&self, bytes: &[u8]) -> Result<(), StoreError> {
        self.node
            .replicate_op(&self.region, RegionOp::Replace(bytes.to_vec()))
    }
}
