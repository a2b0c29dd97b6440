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

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use oasis_crypto::hash::Sha256;
use oasis_crypto::HexBytes;
use oasis_json::{json_enum, json_struct, Json};
use parking_lot::Mutex;

use crate::backend::{MemBackend, StorageBackend};
use crate::error::StoreError;

// ---------------------------------------------------------------------------
// Wire messages
// ---------------------------------------------------------------------------

/// One replicated mutation of a named byte region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegionOp {
    /// Append bytes to the end of the region (journal record frames).
    Append(Vec<u8>),
    /// Atomically replace the whole region (snapshots, truncation).
    Replace(Vec<u8>),
}

/// One entry in the replicated log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogEntry {
    /// Position in the replicated log (1-based, strictly increasing).
    pub index: u64,
    /// The term the entry was created in. Repair can replay old
    /// entries under a newer leader's frame, so log completeness
    /// (`last_term`) must come from the entry, not the frame.
    pub term: u64,
    /// The region this entry mutates.
    pub region: String,
    /// The mutation.
    pub op: RegionOp,
}

/// A peer-to-peer replication request (leader → follower, or
/// candidate → voter).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PeerRequest {
    /// Leader pushes log entries (empty = heartbeat). The follower
    /// accepts only if its log head matches `(prev_index, prev_hash)`.
    Replicate {
        /// Leader's current term.
        term: u64,
        /// Leader's node id.
        leader: String,
        /// Address clients should dial to reach the leader.
        leader_hint: String,
        /// Log index the leader believes the follower is at.
        prev_index: u64,
        /// Chained log hash at `prev_index`.
        prev_hash: u64,
        /// Entries to append after `prev_index` (may be empty).
        entries: Vec<LogEntry>,
    },
    /// A candidate requests this node's vote for `term`.
    LeaderClaim {
        /// The term the candidate is standing for.
        term: u64,
        /// Candidate's node id.
        candidate: String,
        /// Address clients should dial if the candidate wins.
        candidate_hint: String,
        /// Index of the candidate's last log entry.
        last_index: u64,
        /// Term of the candidate's last log entry.
        last_term: u64,
    },
    /// A would-be candidate probes for support *without* incrementing
    /// any term: peers answer whether they would grant a vote for
    /// `term` (the candidate's current term + 1). No state changes on
    /// either side, so a flapping node cannot storm terms.
    PreVote {
        /// The term the candidate would stand for (current + 1).
        term: u64,
        /// Probing node's id.
        candidate: String,
        /// Index of the probing node's last log entry.
        last_index: u64,
        /// Term of the probing node's last log entry.
        last_term: u64,
    },
    /// A lagging follower pulls the missing log suffix from the
    /// leader's retained tail (entry-level repair).
    Repair {
        /// The term the follower observed from the leader's frame.
        term: u64,
        /// The pulling follower's id.
        follower: String,
        /// The follower's current `last_index`; the leader replies
        /// with entries strictly after it.
        from_index: u64,
        /// The follower's chained log hash at `from_index` — the
        /// leader verifies it against its own tail before serving, so
        /// a diverged log can never be "repaired" into place.
        from_hash: u64,
    },
    /// One bounded, checksummed chunk of a full state transfer —
    /// the fallback when the leader's tail was compacted past the
    /// follower's head or the logs diverged. Chunks are sequenced per
    /// session; a dropped link resumes from the last acked chunk.
    SyncChunk {
        /// Leader's current term.
        term: u64,
        /// Leader's node id.
        leader: String,
        /// Address clients should dial to reach the leader.
        leader_hint: String,
        /// Transfer session id (unique per leader per transfer).
        session: u64,
        /// Chunk sequence number within the session (0-based).
        seq: u64,
        /// Total chunks in the session.
        total: u64,
        /// Region this chunk belongs to (empty = head-only marker).
        region: String,
        /// Byte offset of this chunk within the region.
        offset: u64,
        /// The chunk payload.
        bytes: Vec<u8>,
        /// SHA-256 prefix checksum of `bytes`.
        checksum: u64,
        /// Log index after installing the full transfer.
        last_index: u64,
        /// Chained log hash after installing the full transfer.
        last_hash: u64,
        /// Term of the last log entry covered by the transfer.
        last_term: u64,
    },
}

/// A peer's reply to a [`PeerRequest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PeerReply {
    /// Reply to [`PeerRequest::Replicate`].
    ReplicateAck {
        /// The replier's current term (may exceed the sender's).
        term: u64,
        /// The replier's log index after handling the request.
        last_index: u64,
        /// The replier's chained log hash after handling the request —
        /// lets the leader distinguish pure lag (repairable from the
        /// tail) from divergence (needs a state transfer).
        log_hash: u64,
        /// True when the entries were appended (or heartbeat matched);
        /// false on term/prev mismatch.
        ok: bool,
    },
    /// Reply to [`PeerRequest::LeaderClaim`].
    Vote {
        /// The replier's current term.
        term: u64,
        /// Whether the vote was granted.
        granted: bool,
    },
    /// Reply to [`PeerRequest::PreVote`]. Purely advisory: neither
    /// side persists anything.
    PreVoteAck {
        /// The replier's current term.
        term: u64,
        /// Whether the replier would vote for the candidate.
        granted: bool,
    },
    /// Reply to [`PeerRequest::Repair`]: a bounded batch of log
    /// entries after `from_index`, or a refusal (`ok: false`) when the
    /// tail was compacted, the hash diverged, or the serving node is
    /// not the current unfenced leader.
    RepairChunk {
        /// The replier's current term.
        term: u64,
        /// False when the leader cannot serve entry-level repair —
        /// the follower's next nack triggers the chunked-sync fallback.
        ok: bool,
        /// Contiguous entries starting at `from_index + 1`.
        entries: Vec<LogEntry>,
        /// The leader's own last index (the pull target).
        last_index: u64,
    },
    /// Reply to [`PeerRequest::SyncChunk`].
    ChunkAck {
        /// The replier's current term.
        term: u64,
        /// Echo of the chunk sequence number.
        seq: u64,
        /// True when the chunk was staged (or the transfer installed).
        ok: bool,
    },
}

impl PeerRequest {
    /// The node id that originated this request.
    pub fn origin(&self) -> &str {
        match self {
            PeerRequest::Replicate { leader, .. } => leader,
            PeerRequest::LeaderClaim { candidate, .. } => candidate,
            PeerRequest::PreVote { candidate, .. } => candidate,
            PeerRequest::Repair { follower, .. } => follower,
            PeerRequest::SyncChunk { leader, .. } => leader,
        }
    }

    /// The term this request was sent in.
    pub fn term(&self) -> u64 {
        match self {
            PeerRequest::Replicate { term, .. }
            | PeerRequest::LeaderClaim { term, .. }
            | PeerRequest::PreVote { term, .. }
            | PeerRequest::Repair { term, .. }
            | PeerRequest::SyncChunk { term, .. } => *term,
        }
    }
}

// A region's bytes travel as one hex string, written straight into the
// frame and decoded straight from it: an entry is a journal record, and
// every replica of every append passes through here.
json_enum! { RegionOp { Append(bytes as HexBytes), Replace(bytes as HexBytes) } }
json_struct! { LogEntry { index, term, region, op } }

json_enum! { PeerRequest {
    Replicate { term, leader, leader_hint, prev_index, prev_hash, entries },
    LeaderClaim { term, candidate, candidate_hint, last_index, last_term },
    PreVote { term, candidate, last_index, last_term },
    Repair { term, follower, from_index, from_hash },
    SyncChunk {
        term, leader, leader_hint, session, seq, total, region, offset,
        bytes as HexBytes,
        checksum, last_index, last_hash, last_term,
    },
} }

json_enum! { PeerReply {
    ReplicateAck { term, last_index, log_hash, ok },
    Vote { term, granted },
    PreVoteAck { term, granted },
    RepairChunk { term, ok, entries, last_index },
    ChunkAck { term, seq, ok },
} }

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

/// Counters exposed for tests, benches, and chaos traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReplicaStats {
    /// Quorum rounds this node committed as leader — rounds, not
    /// records: one [`RegionOp`] is one round however many journal
    /// frames its bytes hold.
    pub committed: u64,
    /// Writes rejected because quorum was not reached.
    pub no_quorum: u64,
    /// Writes rejected because this node was not leader.
    pub not_leader: u64,
    /// Elections this node started.
    pub elections_started: u64,
    /// Elections this node won.
    pub elections_won: u64,
    /// Heartbeat rounds sent as leader.
    pub heartbeats_sent: u64,
    /// Full state transfers *completed* to diverged/compacted peers.
    pub syncs_sent: u64,
    /// Full state transfers applied as follower.
    pub syncs_applied: u64,
    /// Times this node observed a higher term and stepped down.
    pub step_downs: u64,
    /// Entry-level repair pulls this node initiated as a follower.
    pub repairs_pulled: u64,
    /// Log entries applied via entry-level repair (follower side).
    pub repair_entries_applied: u64,
    /// Repair batches served from the retained tail (leader side).
    pub repair_chunks_served: u64,
    /// Payload bytes served via entry-level repair (leader side).
    pub repair_bytes_served: u64,
    /// Sync chunk frames sent (including ones lost in transit).
    pub sync_chunks_sent: u64,
    /// Payload bytes shipped in sync chunk frames.
    pub sync_bytes_sent: u64,
    /// Sync sessions resumed from the last acked chunk after a
    /// mid-transfer failure (rather than restarted).
    pub sync_resumes: u64,
    /// Pre-vote rounds this node started.
    pub pre_votes_started: u64,
    /// Pre-vote rounds that failed to reach a quorum of would-grants
    /// (the node did not stand, and no term was consumed).
    pub pre_votes_blocked: u64,
    /// Transitions into the fenced state (lease expired as leader).
    pub fencings: u64,
    /// Writes rejected because this leader was fenced.
    pub fenced_rejects: u64,
}

impl ReplicaStats {
    /// Compact single-line JSON for chaos/conformance traces, keys
    /// sorted (rendered by the shared `oasis-obs` canonical encoder).
    pub fn trace_json(&self) -> String {
        oasis_obs::kv_json(&[
            ("committed", self.committed.into()),
            ("elections_started", self.elections_started.into()),
            ("elections_won", self.elections_won.into()),
            ("fenced_rejects", self.fenced_rejects.into()),
            ("fencings", self.fencings.into()),
            ("heartbeats_sent", self.heartbeats_sent.into()),
            ("no_quorum", self.no_quorum.into()),
            ("not_leader", self.not_leader.into()),
            ("pre_votes_blocked", self.pre_votes_blocked.into()),
            ("pre_votes_started", self.pre_votes_started.into()),
            ("repair_bytes_served", self.repair_bytes_served.into()),
            ("repair_chunks_served", self.repair_chunks_served.into()),
            ("repair_entries_applied", self.repair_entries_applied.into()),
            ("repairs_pulled", self.repairs_pulled.into()),
            ("step_downs", self.step_downs.into()),
            ("sync_bytes_sent", self.sync_bytes_sent.into()),
            ("sync_chunks_sent", self.sync_chunks_sent.into()),
            ("sync_resumes", self.sync_resumes.into()),
            ("syncs_applied", self.syncs_applied.into()),
            ("syncs_sent", self.syncs_sent.into()),
        ])
    }
}

/// A follower's in-progress inbound chunked sync session.
struct PendingSync {
    leader: String,
    session: u64,
    next_seq: u64,
    /// Region bytes staged so far, in arrival order. Nothing is
    /// installed until the final chunk lands, so a half-received
    /// transfer never leaves the node in a mixed state.
    staged: Vec<(String, Vec<u8>)>,
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
    /// reported it (heartbeat acks included). Absent means unknown —
    /// never heard this term, or diverged and not yet re-synced. Cleared
    /// on every election win; picks each commit round's sync set.
    peer_heads: BTreeMap<String, u64>,
}

/// Leader-side record of an outbound chunked sync, keyed by peer. Kept
/// across transport failures so a later retry resumes from `next`
/// instead of re-shipping acked chunks.
struct SyncSession {
    term: u64,
    session: u64,
    chunks: Vec<ChunkData>,
    next: usize,
    last_index: u64,
    last_hash: u64,
    last_term: u64,
}

struct ChunkData {
    region: String,
    offset: u64,
    bytes: Vec<u8>,
}

/// Max log entries per [`PeerReply::RepairChunk`].
const REPAIR_BATCH: usize = 64;

/// What one fan-out's `ReplicateAck`s added up to.
#[derive(Default)]
struct Tally {
    /// Peers that hold the round (or were just state-transferred).
    acks: usize,
    /// Peers that answered at the round's term.
    contacts: usize,
}

/// Folds one log entry into the running chained hash. The chain makes
/// `(prev_index, prev_hash)` a commitment to the entire log contents,
/// so two logs of equal length but divergent history cannot pass the
/// follower's pre-append check. The entry term is folded too: repair
/// replays old-term entries under a newer leader's frames, and the
/// hash must pin which term wrote each entry.
fn chain(prev: u64, entry: &LogEntry) -> u64 {
    let mut hash = Sha256::new();
    hash.update(&prev.to_le_bytes());
    hash.update(&entry.index.to_le_bytes());
    hash.update(&entry.term.to_le_bytes());
    hash.update(&(entry.region.len() as u32).to_le_bytes());
    hash.update(entry.region.as_bytes());
    let (tag, bytes) = match &entry.op {
        RegionOp::Append(b) => (1u8, b),
        RegionOp::Replace(b) => (2u8, b),
    };
    hash.update(&[tag]);
    hash.update(bytes);
    let digest = hash.finalize();
    u64::from_le_bytes(digest[..8].try_into().expect("8-byte prefix"))
}

/// First 8 LE bytes of SHA-256 — the per-chunk payload checksum.
fn checksum64(bytes: &[u8]) -> u64 {
    let digest = Sha256::digest(bytes);
    u64::from_le_bytes(digest[..8].try_into().expect("8-byte prefix"))
}

/// Pushes an applied entry onto the retained tail, compacting the
/// front past `retain` entries and advancing the anchor hash.
fn push_tail(st: &mut NodeState, entry: LogEntry, hash: u64, retain: usize) {
    st.tail.push_back((entry, hash));
    while st.tail.len() > retain.max(1) {
        let (_, h) = st.tail.pop_front().expect("non-empty tail");
        st.tail_prev_hash = h;
    }
}

/// The retained tail's `(entry, chained hash after it)` at `index`, if
/// the tail still holds that entry.
fn tail_at(st: &NodeState, index: u64) -> Option<&(LogEntry, u64)> {
    let first_covered = st.last_index - st.tail.len() as u64;
    st.tail.get(index.checked_sub(first_covered + 1)? as usize)
}

/// The chained hash at `index`, when the retained tail (or its anchor)
/// still covers it.
fn hash_at(st: &NodeState, index: u64) -> Option<u64> {
    if index == st.last_index - st.tail.len() as u64 {
        Some(st.tail_prev_hash)
    } else {
        tail_at(st, index).map(|(_, hash)| *hash)
    }
}

/// True when `st`'s log already holds a round's `entries` on top of
/// `(prev_index, prev_hash)` — a lagging follower whose repair pull
/// also fetched the round's in-flight entry, or a repeated frame.
fn holds_round(st: &NodeState, prev_index: u64, prev_hash: u64, entries: &[LogEntry]) -> bool {
    !entries.is_empty()
        && hash_at(st, prev_index) == Some(prev_hash)
        && entries
            .iter()
            .all(|e| tail_at(st, e.index).is_some_and(|(held, _)| held == e))
}

/// True when a leader's quorum lease has lapsed: it must stop acking
/// writes and serving catch-up until it re-establishes contact.
fn fenced_now(st: &NodeState, cfg: &ReplicaConfig, now_ms: u64) -> bool {
    st.role == Role::Leader
        && !cfg.peers.is_empty()
        && now_ms.saturating_sub(st.last_quorum_ms) > cfg.lease_ms
}

/// Deterministic per-id skew so two nodes' election timers rarely
/// expire in the same tick (FNV-1a over the id).
fn id_skew(id: &str, base: u64) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in id.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100000001b3);
    }
    if base == 0 {
        0
    } else {
        h % base
    }
}

type RegionFactory = Box<dyn Fn(&str) -> Arc<dyn StorageBackend> + Send + Sync>;

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
    region_factory: RegionFactory,
    state: Mutex<NodeState>,
    /// Serialises the leader write path (reserve index → apply local →
    /// fan out) so entries replicate in index order.
    write: Mutex<()>,
    meta: Option<Arc<dyn StorageBackend>>,
    stats: Mutex<ReplicaStats>,
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
        Self {
            config,
            transport,
            regions: Mutex::new(BTreeMap::new()),
            region_factory: Box::new(|_| Arc::new(MemBackend::new())),
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
                peer_heads: BTreeMap::new(),
            }),
            write: Mutex::new(()),
            meta: None,
            stats: Mutex::new(ReplicaStats::default()),
            sync_sessions: Mutex::new(BTreeMap::new()),
            sync_session_seq: AtomicU64::new(0),
            obs_sink: Mutex::new(oasis_obs::SpanSink::noop()),
        }
    }

    /// Replaces the factory used to create region backends on demand
    /// (default: fresh in-memory regions).
    pub fn with_region_factory<F>(mut self, factory: F) -> Self
    where
        F: Fn(&str) -> Arc<dyn StorageBackend> + Send + Sync + 'static,
    {
        self.region_factory = Box::new(factory);
        self
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
    pub fn cluster_size(&self) -> usize {
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
        *self.stats.lock()
    }

    /// Installs an observability recorder: this node's counters are
    /// registered as snapshot source `name` and the leader write path
    /// emits causal spans (`civ.append`, `civ.follower_ack`,
    /// `civ.commit`) into the recorder's span sink whenever the caller
    /// carries an ambient [`oasis_obs::TraceCtx`].
    pub fn set_obs(self: &Arc<Self>, recorder: &dyn oasis_obs::Recorder, name: &str) {
        let node = Arc::downgrade(self);
        recorder.register_source(
            name,
            Box::new(move || match node.upgrade() {
                Some(node) => node.stats().trace_json(),
                None => "null".to_string(),
            }),
        );
        *self.obs_sink.lock() = recorder.spans();
    }

    /// The local backend for `region`, created via the factory on
    /// first use. Reads through a [`ReplicatedStore`] resolve here.
    pub fn region(&self, name: &str) -> Arc<dyn StorageBackend> {
        let mut regions = self.regions.lock();
        if let Some(b) = regions.get(name) {
            return Arc::clone(b);
        }
        let backend = (self.region_factory)(name);
        regions.insert(name.to_string(), Arc::clone(&backend));
        backend
    }

    /// Registers an explicit local backend for `region` (e.g. a
    /// `FileBackend`); otherwise the factory creates one on demand.
    pub fn register_region(&self, name: &str, backend: Arc<dyn StorageBackend>) {
        self.regions.lock().insert(name.to_string(), backend);
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

    fn persist_meta(&self) {
        let Some(backend) = &self.meta else { return };
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
        // Meta persistence is best-effort: a failed write degrades the
        // node to at-most-once voting per process lifetime, it does not
        // block replication.
        let _ = backend.replace(oasis_json::to_string(&json).as_bytes());
    }

    fn apply_op(&self, region: &str, op: &RegionOp) -> Result<(), StoreError> {
        let backend = self.region(region);
        match op {
            RegionOp::Append(b) => backend.append(b),
            RegionOp::Replace(b) => backend.replace(b),
        }
    }

    /// Steps down to follower because a higher term was observed.
    fn step_down(&self, term: u64) {
        let mut st = self.state.lock();
        if term > st.term {
            st.term = term;
            st.voted_for = None;
        }
        if st.role != Role::Follower {
            st.role = Role::Follower;
            self.stats.lock().step_downs += 1;
        }
        st.leader_id = None;
        drop(st);
        self.persist_meta();
    }

    /// The leader write path: reserve the next index, apply locally,
    /// send the entry to the round's sync set, and require a majority
    /// of acks (self included). Only when the sync set falls short are
    /// the remaining peers called, in the same round.
    ///
    /// On a follower this fails fast with [`StoreError::NotLeader`]
    /// carrying the current leader's client hint. Without quorum the
    /// entry stays applied locally but *unacknowledged* — a later sync
    /// from the true leader overwrites it, which is exactly the
    /// semantics callers get from a torn write today.
    pub fn replicate_op(&self, region: &str, op: RegionOp) -> Result<(), StoreError> {
        let _write = self.write.lock();
        // Causal hop: when the caller is traced (ambient context from
        // the service's revocation path), record the append and pin its
        // child context so follower acks — which run synchronously on
        // this thread under an in-process transport — parent on it.
        let sink = self.obs_sink.lock().clone();
        let append_scope = if sink.is_recording() {
            oasis_obs::current().map(|trace| {
                let now = self.state.lock().clock_ms;
                let child = sink.emit(trace, &self.config.id, "civ.append", now, now);
                (child, oasis_obs::scope(child))
            })
        } else {
            None
        };
        let (term, prev_index, prev_hash, entry) = {
            let mut st = self.state.lock();
            if st.role != Role::Leader {
                self.stats.lock().not_leader += 1;
                return Err(StoreError::NotLeader {
                    hint: st.leader_hint.clone(),
                });
            }
            // Fencing: a leader whose quorum lease lapsed must not ack
            // writes it may no longer be able to commit — during an
            // asymmetric partition the rest of the cluster can have
            // elected a successor it cannot hear.
            if fenced_now(&st, &self.config, st.clock_ms) {
                self.stats.lock().fenced_rejects += 1;
                return Err(StoreError::NotLeader { hint: None });
            }
            let prev_index = st.last_index;
            let prev_hash = st.log_hash;
            let entry = LogEntry {
                index: prev_index + 1,
                term: st.term,
                region: region.to_string(),
                op,
            };
            // Apply locally before fan-out: the leader is always a
            // member of the commit quorum. A local failure aborts the
            // write before any peer sees it.
            self.apply_op(region, &entry.op)?;
            st.last_index = entry.index;
            st.last_term = st.term;
            let h = chain(prev_hash, &entry);
            st.log_hash = h;
            push_tail(&mut st, entry.clone(), h, self.config.retain_entries);
            (st.term, prev_index, prev_hash, entry)
        };
        self.persist_meta();

        let msg = PeerRequest::Replicate {
            term,
            leader: self.config.id.clone(),
            leader_hint: self.config.client_hint.clone(),
            prev_index,
            prev_hash,
            entries: vec![entry],
        };
        let needed = self.quorum();
        let mut acks = 1usize; // self
        let mut contacts = 1usize; // peers that answered at our term
        let (sync_set, others) = self.sync_set(prev_index + 1);
        for peers in [sync_set, others] {
            if acks >= needed || peers.is_empty() {
                continue;
            }
            let replies = self.transport.call_all(&peers, &msg);
            let Some(tally) = self.tally(term, &peers, replies) else {
                return Err(StoreError::NotLeader {
                    hint: self.state.lock().leader_hint.clone(),
                });
            };
            acks += tally.acks;
            contacts += tally.contacts;
        }
        if contacts >= needed {
            let mut st = self.state.lock();
            if st.role == Role::Leader && st.term == term {
                st.last_quorum_ms = st.last_quorum_ms.max(st.clock_ms);
            }
        }
        if acks >= needed {
            self.stats.lock().committed += 1;
            if let Some((child, _)) = &append_scope {
                let now = self.state.lock().clock_ms;
                sink.emit(*child, &self.config.id, "civ.commit", now, now);
            }
            Ok(())
        } else {
            self.stats.lock().no_quorum += 1;
            Err(StoreError::NoQuorum {
                needed,
                acked: acks,
            })
        }
    }

    /// Splits the peers for a round carrying entry `index` into the
    /// sync set and the rest, each in config order. The sync set is the
    /// quorum−1 peers with the highest known heads (ties in config
    /// order), plus every peer whose head is unknown or trails `index`
    /// by a whole repair batch: its pull of the gap, `index` included,
    /// is then exactly one [`PeerReply::RepairChunk`]. The batch is
    /// capped at the retained tail's length, so a peer left out can
    /// always heal by entry repair.
    fn sync_set(&self, index: u64) -> (Vec<String>, Vec<String>) {
        let st = self.state.lock();
        let batch = REPAIR_BATCH.min(self.config.retain_entries.max(1)) as u64;
        let heads: Vec<Option<u64>> = self
            .config
            .peers
            .iter()
            .map(|peer| st.peer_heads.get(peer).copied())
            .collect();
        let mut ranked: Vec<usize> = (0..heads.len()).collect();
        ranked.sort_by_key(|&i| (std::cmp::Reverse(heads[i]), i));
        ranked.truncate(self.quorum() - 1);
        let (mut sync_set, mut others) = (Vec::new(), Vec::new());
        for (i, peer) in self.config.peers.iter().enumerate() {
            let trailing = heads[i].is_none_or(|h| index.saturating_sub(h) >= batch);
            if ranked.contains(&i) || trailing {
                sync_set.push(peer.clone());
            } else {
                others.push(peer.clone());
            }
        }
        (sync_set, others)
    }

    /// Reads one fan-out's replies at `term`: records each answering
    /// peer's head, ends a finished sync session on an ack, and
    /// state-transfers a peer whose nack is not plain within-tail lag
    /// (a lagging follower pulls its own repair, so the leader must
    /// never full-sync it). `None` when a reply carried a higher term
    /// and this node stepped down. Caller holds the write lock.
    fn tally(
        &self,
        term: u64,
        peers: &[String],
        replies: Vec<Result<PeerReply, StoreError>>,
    ) -> Option<Tally> {
        let mut tally = Tally::default();
        for (peer, reply) in peers.iter().zip(replies) {
            let Ok(PeerReply::ReplicateAck {
                term: t,
                ok,
                last_index: peer_index,
                log_hash: peer_hash,
            }) = reply
            else {
                continue;
            };
            if t > term {
                self.step_down(t);
                return None;
            }
            tally.contacts += 1;
            let head = if ok {
                self.sync_sessions.lock().remove(peer);
                tally.acks += 1;
                Some(peer_index)
            } else if self.lag_repairable(peer_index, peer_hash) {
                Some(peer_index)
            } else if self.sync_peer(peer, term) {
                tally.acks += 1;
                Some(self.state.lock().last_index)
            } else {
                None
            };
            let mut st = self.state.lock();
            match head {
                Some(head) => st.peer_heads.insert(peer.clone(), head),
                None => st.peer_heads.remove(peer),
            };
        }
        Some(tally)
    }

    /// True when a nacking peer's `(last_index, log_hash)` sits on our
    /// retained tail — i.e. the peer is merely lagging and can heal by
    /// pulling the missing suffix. The leader must *not* full-sync such
    /// a peer: entry-level repair is strictly cheaper and the follower
    /// drives it.
    fn lag_repairable(&self, peer_index: u64, peer_hash: u64) -> bool {
        hash_at(&self.state.lock(), peer_index) == Some(peer_hash)
    }

    /// Pushes a chunked full-state transfer to one peer, resuming a
    /// same-term session from the last acked chunk when one survives a
    /// transport failure. Caller must hold the write lock so the
    /// region reads are a consistent cut. Returns true when the final
    /// chunk was acked.
    fn sync_peer(&self, peer: &str, term: u64) -> bool {
        {
            let mut sessions = self.sync_sessions.lock();
            let keep = sessions.get(peer).is_some_and(|s| s.term == term);
            if keep {
                if sessions.get(peer).expect("kept session").next > 0 {
                    self.stats.lock().sync_resumes += 1;
                }
            } else {
                sessions.remove(peer);
                let (last_index, last_hash, last_term) = {
                    let st = self.state.lock();
                    (st.last_index, st.log_hash, st.last_term)
                };
                let snapshot: Vec<(String, Vec<u8>)> = {
                    let regions = self.regions.lock();
                    regions
                        .iter()
                        .filter_map(|(name, b)| Some((name.clone(), b.read().ok()?)))
                        .collect()
                };
                let chunk_len = self.config.sync_chunk_bytes.max(1);
                let mut chunks = Vec::new();
                for (name, bytes) in &snapshot {
                    if bytes.is_empty() {
                        chunks.push(ChunkData {
                            region: name.clone(),
                            offset: 0,
                            bytes: Vec::new(),
                        });
                        continue;
                    }
                    let mut offset = 0usize;
                    while offset < bytes.len() {
                        let end = (offset + chunk_len).min(bytes.len());
                        chunks.push(ChunkData {
                            region: name.clone(),
                            offset: offset as u64,
                            bytes: bytes[offset..end].to_vec(),
                        });
                        offset = end;
                    }
                }
                if chunks.is_empty() {
                    // Head-only transfer: ship one sentinel chunk (the
                    // empty region name never names a real region) so
                    // the follower still adopts the log head.
                    chunks.push(ChunkData {
                        region: String::new(),
                        offset: 0,
                        bytes: Vec::new(),
                    });
                }
                let session = self.sync_session_seq.fetch_add(1, Ordering::SeqCst) + 1;
                sessions.insert(
                    peer.to_string(),
                    SyncSession {
                        term,
                        session,
                        chunks,
                        next: 0,
                        last_index,
                        last_hash,
                        last_term,
                    },
                );
            }
        }
        loop {
            let (msg, seq, total) = {
                let sessions = self.sync_sessions.lock();
                let Some(s) = sessions.get(peer) else {
                    return false;
                };
                let seq = s.next;
                if seq >= s.chunks.len() {
                    break;
                }
                let c = &s.chunks[seq];
                (
                    PeerRequest::SyncChunk {
                        term,
                        leader: self.config.id.clone(),
                        leader_hint: self.config.client_hint.clone(),
                        session: s.session,
                        seq: seq as u64,
                        total: s.chunks.len() as u64,
                        region: c.region.clone(),
                        offset: c.offset,
                        bytes: c.bytes.clone(),
                        checksum: checksum64(&c.bytes),
                        last_index: s.last_index,
                        last_hash: s.last_hash,
                        last_term: s.last_term,
                    },
                    seq,
                    s.chunks.len(),
                )
            };
            {
                let mut stats = self.stats.lock();
                stats.sync_chunks_sent += 1;
                if let PeerRequest::SyncChunk { bytes, .. } = &msg {
                    stats.sync_bytes_sent += bytes.len() as u64;
                }
            }
            match self.transport.call(peer, &msg) {
                Ok(PeerReply::ChunkAck {
                    term: t,
                    seq: aseq,
                    ok,
                }) => {
                    if t > term {
                        self.step_down(t);
                        self.sync_sessions.lock().remove(peer);
                        return false;
                    }
                    if !ok || aseq != seq as u64 {
                        // Follower restarted its inbound session or
                        // diverged: discard ours and retry next round.
                        self.sync_sessions.lock().remove(peer);
                        return false;
                    }
                    let mut sessions = self.sync_sessions.lock();
                    if let Some(s) = sessions.get_mut(peer) {
                        s.next = seq + 1;
                        if s.next >= total {
                            sessions.remove(peer);
                            drop(sessions);
                            self.stats.lock().syncs_sent += 1;
                            return true;
                        }
                    } else {
                        return false;
                    }
                }
                // Transport failure mid-transfer: keep the session so
                // the next round resumes from `next` instead of
                // restarting from chunk 0.
                _ => return false,
            }
        }
        self.sync_sessions.lock().remove(peer);
        self.stats.lock().syncs_sent += 1;
        true
    }

    /// Handles one peer request, returning the reply. `now_ms` is the
    /// caller's clock, used to reset the election timer.
    pub fn handle(&self, req: &PeerRequest, now_ms: u64) -> PeerReply {
        match req {
            PeerRequest::Replicate {
                term,
                leader,
                leader_hint,
                prev_index,
                prev_hash,
                entries,
            } => {
                enum Head {
                    Match,
                    Lag,
                    Diverged,
                }
                let head = {
                    let mut st = self.state.lock();
                    st.clock_ms = st.clock_ms.max(now_ms);
                    if *term < st.term || (*term == st.term && st.role == Role::Leader) {
                        return PeerReply::ReplicateAck {
                            term: st.term,
                            last_index: st.last_index,
                            log_hash: st.log_hash,
                            ok: false,
                        };
                    }
                    if *term > st.term {
                        st.term = *term;
                        st.voted_for = None;
                    }
                    if st.role != Role::Follower {
                        st.role = Role::Follower;
                        self.stats.lock().step_downs += 1;
                    }
                    st.leader_id = Some(leader.clone());
                    st.leader_hint = Some(leader_hint.clone());
                    st.last_heartbeat_ms = now_ms;
                    if *prev_index == st.last_index && *prev_hash == st.log_hash {
                        Head::Match
                    } else if *prev_index > st.last_index {
                        Head::Lag
                    } else {
                        Head::Diverged
                    }
                };
                self.persist_meta();
                if matches!(head, Head::Lag) {
                    // Behind the leader's frame: pull the missing
                    // suffix from its retained tail before deciding to
                    // nack. On success the head check below passes and
                    // this round's entries append cleanly.
                    self.pull_repair(leader, *term);
                }
                let mut st = self.state.lock();
                if *prev_index != st.last_index || *prev_hash != st.log_hash {
                    // Not at the frame's head. A log that already holds
                    // the round (the repair pull above also fetched the
                    // in-flight entry) acks it. Otherwise we diverged,
                    // repair was refused, or the link dropped mid-pull:
                    // the leader reads our head off this nack to
                    // classify lag vs divergence.
                    let reply = PeerReply::ReplicateAck {
                        term: st.term,
                        last_index: st.last_index,
                        log_hash: st.log_hash,
                        ok: holds_round(&st, *prev_index, *prev_hash, entries),
                    };
                    drop(st);
                    self.persist_meta();
                    return reply;
                }
                for entry in entries {
                    if self.apply_op(&entry.region, &entry.op).is_err() {
                        let reply = PeerReply::ReplicateAck {
                            term: st.term,
                            last_index: st.last_index,
                            log_hash: st.log_hash,
                            ok: false,
                        };
                        drop(st);
                        self.persist_meta();
                        return reply;
                    }
                    let h = chain(st.log_hash, entry);
                    st.log_hash = h;
                    st.last_index = entry.index;
                    st.last_term = entry.term;
                    push_tail(&mut st, entry.clone(), h, self.config.retain_entries);
                }
                let reply = PeerReply::ReplicateAck {
                    term: st.term,
                    last_index: st.last_index,
                    log_hash: st.log_hash,
                    ok: true,
                };
                let ack_now = st.clock_ms;
                drop(st);
                self.persist_meta();
                if !entries.is_empty() {
                    // Follower hop of a traced append: under an
                    // in-process transport the leader's ambient scope is
                    // still live on this thread.
                    let sink = self.obs_sink.lock().clone();
                    if sink.is_recording() {
                        if let Some(trace) = oasis_obs::current() {
                            sink.emit(trace, &self.config.id, "civ.follower_ack", ack_now, ack_now);
                        }
                    }
                }
                reply
            }
            PeerRequest::LeaderClaim {
                term,
                candidate,
                candidate_hint,
                last_index,
                last_term,
            } => {
                let mut st = self.state.lock();
                st.clock_ms = st.clock_ms.max(now_ms);
                if *term < st.term {
                    return PeerReply::Vote {
                        term: st.term,
                        granted: false,
                    };
                }
                if *term > st.term {
                    st.term = *term;
                    st.voted_for = None;
                    if st.role != Role::Follower {
                        st.role = Role::Follower;
                        self.stats.lock().step_downs += 1;
                    }
                }
                // Election restriction: only vote for candidates whose
                // log is at least as complete as ours, so the winner
                // holds every quorum-acknowledged entry.
                let up_to_date = (*last_term, *last_index) >= (st.last_term, st.last_index);
                let unvoted = st
                    .voted_for
                    .as_deref()
                    .is_none_or(|v| v == candidate.as_str());
                let granted = up_to_date && unvoted && st.role == Role::Follower;
                if granted {
                    st.voted_for = Some(candidate.clone());
                    st.leader_hint = Some(candidate_hint.clone());
                    st.last_heartbeat_ms = now_ms;
                }
                let reply = PeerReply::Vote {
                    term: st.term,
                    granted,
                };
                drop(st);
                self.persist_meta();
                reply
            }
            PeerRequest::PreVote {
                term,
                candidate: _,
                last_index,
                last_term,
            } => {
                // A pre-vote is a read-only poll: "would you vote for
                // me at `term`?" Nothing is recorded and no term moves,
                // so a partitioned node probing forever cannot disturb
                // the cluster.
                let mut st = self.state.lock();
                st.clock_ms = st.clock_ms.max(now_ms);
                let up_to_date = (*last_term, *last_index) >= (st.last_term, st.last_index);
                let leader_live = st.leader_id.is_some()
                    && now_ms.saturating_sub(st.last_heartbeat_ms)
                        < self.config.election_timeout_ms;
                let granted = *term > st.term
                    && up_to_date
                    && match st.role {
                        // A fenced leader knows it may already be
                        // deposed: let the majority side proceed.
                        Role::Leader => fenced_now(&st, &self.config, now_ms),
                        _ => !leader_live,
                    };
                PeerReply::PreVoteAck {
                    term: st.term,
                    granted,
                }
            }
            PeerRequest::Repair {
                term,
                follower: _,
                from_index,
                from_hash,
            } => {
                let mut st = self.state.lock();
                st.clock_ms = st.clock_ms.max(now_ms);
                if *term > st.term {
                    st.term = *term;
                    st.voted_for = None;
                    if st.role != Role::Follower {
                        st.role = Role::Follower;
                        self.stats.lock().step_downs += 1;
                    }
                    st.leader_id = None;
                    let reply = PeerReply::RepairChunk {
                        term: st.term,
                        ok: false,
                        entries: Vec::new(),
                        last_index: st.last_index,
                    };
                    drop(st);
                    self.persist_meta();
                    return reply;
                }
                let refuse = PeerReply::RepairChunk {
                    term: st.term,
                    ok: false,
                    entries: Vec::new(),
                    last_index: st.last_index,
                };
                // Serve only as the current-term, unfenced leader — a
                // stale or fenced leader replaying its tail could feed
                // a follower entries the real cluster has moved past.
                if st.role != Role::Leader
                    || *term != st.term
                    || fenced_now(&st, &self.config, now_ms)
                {
                    return refuse;
                }
                // Past our head, compacted (the follower needs a sync),
                // or diverged rather than lagging.
                if hash_at(&st, *from_index) != Some(*from_hash) {
                    return refuse;
                }
                let entries: Vec<LogEntry> = st
                    .tail
                    .iter()
                    .filter(|(e, _)| e.index > *from_index)
                    .take(REPAIR_BATCH)
                    .map(|(e, _)| e.clone())
                    .collect();
                let bytes: u64 = entries
                    .iter()
                    .map(|e| match &e.op {
                        RegionOp::Append(b) | RegionOp::Replace(b) => b.len() as u64,
                    })
                    .sum();
                {
                    let mut stats = self.stats.lock();
                    stats.repair_chunks_served += 1;
                    stats.repair_bytes_served += bytes;
                }
                PeerReply::RepairChunk {
                    term: st.term,
                    ok: true,
                    entries,
                    last_index: st.last_index,
                }
            }
            PeerRequest::SyncChunk {
                term,
                leader,
                leader_hint,
                session,
                seq,
                total,
                region,
                offset,
                bytes,
                checksum,
                last_index,
                last_hash,
                last_term,
            } => {
                let mut st = self.state.lock();
                st.clock_ms = st.clock_ms.max(now_ms);
                if *term < st.term || (*term == st.term && st.role == Role::Leader) {
                    return PeerReply::ChunkAck {
                        term: st.term,
                        seq: *seq,
                        ok: false,
                    };
                }
                if *term > st.term {
                    st.term = *term;
                    st.voted_for = None;
                }
                if st.role != Role::Follower {
                    st.role = Role::Follower;
                    self.stats.lock().step_downs += 1;
                }
                st.leader_id = Some(leader.clone());
                st.leader_hint = Some(leader_hint.clone());
                st.last_heartbeat_ms = now_ms;
                let nack = |st: &NodeState| PeerReply::ChunkAck {
                    term: st.term,
                    seq: *seq,
                    ok: false,
                };
                if checksum64(bytes) != *checksum {
                    st.pending_sync = None;
                    let reply = nack(&st);
                    drop(st);
                    self.persist_meta();
                    return reply;
                }
                let continues = st.pending_sync.as_ref().is_some_and(|p| {
                    p.leader == *leader && p.session == *session && p.next_seq == *seq
                });
                if !continues {
                    if *seq == 0 {
                        st.pending_sync = Some(PendingSync {
                            leader: leader.clone(),
                            session: *session,
                            next_seq: 0,
                            staged: Vec::new(),
                        });
                    } else {
                        // Mid-session chunk for a session we are not
                        // tracking: nack so the leader restarts.
                        st.pending_sync = None;
                        let reply = nack(&st);
                        drop(st);
                        self.persist_meta();
                        return reply;
                    }
                }
                // Region-name "" is the head-only sentinel; real
                // chunks must extend their region contiguously.
                if !region.is_empty() {
                    let staged_len = st
                        .pending_sync
                        .as_ref()
                        .expect("pending sync present")
                        .staged
                        .iter()
                        .find(|(n, _)| n == region)
                        .map_or(0, |(_, b)| b.len() as u64);
                    if staged_len != *offset {
                        st.pending_sync = None;
                        let reply = nack(&st);
                        drop(st);
                        self.persist_meta();
                        return reply;
                    }
                    let p = st.pending_sync.as_mut().expect("pending sync present");
                    if let Some((_, buf)) = p.staged.iter_mut().find(|(n, _)| n == region) {
                        buf.extend_from_slice(bytes);
                    } else {
                        p.staged.push((region.clone(), bytes.clone()));
                    }
                }
                st.pending_sync
                    .as_mut()
                    .expect("pending sync present")
                    .next_seq = *seq + 1;
                if *seq + 1 == *total {
                    // Final chunk: install the staged snapshot
                    // atomically with the shipped log head.
                    let staged = st.pending_sync.take().expect("pending sync present").staged;
                    let mut applied = true;
                    for (name, b) in &staged {
                        if self.region(name).replace(b).is_err() {
                            applied = false;
                            break;
                        }
                    }
                    if !applied {
                        let reply = nack(&st);
                        drop(st);
                        self.persist_meta();
                        return reply;
                    }
                    st.last_index = *last_index;
                    st.last_term = *last_term;
                    st.log_hash = *last_hash;
                    // The tail does not cover synced history: anchor an
                    // empty tail at the new head.
                    st.tail.clear();
                    st.tail_prev_hash = *last_hash;
                    self.stats.lock().syncs_applied += 1;
                }
                let reply = PeerReply::ChunkAck {
                    term: st.term,
                    seq: *seq,
                    ok: true,
                };
                drop(st);
                self.persist_meta();
                reply
            }
        }
    }

    /// Follower-side entry repair: pull the missing log suffix from
    /// `leader`'s retained tail in bounded batches until caught up or
    /// the link fails. Called with no locks held.
    fn pull_repair(&self, leader: &str, term: u64) {
        self.stats.lock().repairs_pulled += 1;
        loop {
            let (from_index, from_hash) = {
                let st = self.state.lock();
                (st.last_index, st.log_hash)
            };
            let msg = PeerRequest::Repair {
                term,
                follower: self.config.id.clone(),
                from_index,
                from_hash,
            };
            match self.transport.call(leader, &msg) {
                Ok(PeerReply::RepairChunk {
                    term: t,
                    ok,
                    entries,
                    last_index,
                }) => {
                    if t > term {
                        self.step_down(t);
                        return;
                    }
                    if !ok || entries.is_empty() {
                        break;
                    }
                    let mut applied = 0u64;
                    {
                        let mut st = self.state.lock();
                        for entry in &entries {
                            if entry.index != st.last_index + 1 {
                                break;
                            }
                            if self.apply_op(&entry.region, &entry.op).is_err() {
                                break;
                            }
                            let h = chain(st.log_hash, entry);
                            st.log_hash = h;
                            st.last_index = entry.index;
                            st.last_term = entry.term;
                            push_tail(&mut st, entry.clone(), h, self.config.retain_entries);
                            applied += 1;
                        }
                    }
                    self.stats.lock().repair_entries_applied += applied;
                    if applied == 0 {
                        break;
                    }
                    if self.state.lock().last_index >= last_index {
                        break;
                    }
                }
                _ => break,
            }
        }
        self.persist_meta();
    }

    /// Starts an election for the next term. Returns true when this
    /// node won and is now leader.
    ///
    /// With [`ReplicaConfig::pre_vote`] enabled (the default) the node
    /// first polls a quorum with a non-term-incrementing pre-vote and
    /// stands only when a majority would grant — so an isolated or
    /// flapping node never inflates its term and cannot depose a
    /// stable leader on rejoin.
    pub fn start_election(&self, now_ms: u64) -> bool {
        if self.config.pre_vote && !self.pre_vote_round(now_ms) {
            return false;
        }
        let (term, last_index, last_term) = {
            let mut st = self.state.lock();
            st.clock_ms = st.clock_ms.max(now_ms);
            st.term += 1;
            st.role = Role::Candidate;
            st.voted_for = Some(self.config.id.clone());
            st.leader_id = None;
            st.last_heartbeat_ms = now_ms;
            (st.term, st.last_index, st.last_term)
        };
        self.stats.lock().elections_started += 1;
        self.persist_meta();
        let msg = PeerRequest::LeaderClaim {
            term,
            candidate: self.config.id.clone(),
            candidate_hint: self.config.client_hint.clone(),
            last_index,
            last_term,
        };
        let mut grants = 1usize; // own vote
        for reply in self.transport.call_all(&self.config.peers, &msg) {
            if let Ok(PeerReply::Vote { term: t, granted }) = reply {
                if t > term {
                    self.step_down(t);
                    return false;
                }
                if granted {
                    grants += 1;
                }
            }
        }
        if grants < self.quorum() {
            return false;
        }
        {
            let mut st = self.state.lock();
            // A concurrent higher-term message may have demoted us
            // while votes were in flight.
            if st.term != term || st.role != Role::Candidate {
                return false;
            }
            st.role = Role::Leader;
            st.leader_id = Some(self.config.id.clone());
            st.leader_hint = Some(self.config.client_hint.clone());
            st.last_heartbeat_ms = now_ms;
            // A fresh mandate is a fresh lease, and no peer head is
            // known until the announcing heartbeat is answered.
            st.last_quorum_ms = now_ms;
            st.fenced = false;
            st.peer_heads.clear();
        }
        self.stats.lock().elections_won += 1;
        // Announce immediately so follower election timers reset.
        self.heartbeat_round(now_ms);
        true
    }

    /// The non-binding pre-vote poll. Returns true when a quorum would
    /// grant a vote at `term + 1`. No term is consumed either way.
    fn pre_vote_round(&self, now_ms: u64) -> bool {
        let (current, proposed, last_index, last_term) = {
            let st = self.state.lock();
            (st.term, st.term + 1, st.last_index, st.last_term)
        };
        self.stats.lock().pre_votes_started += 1;
        let msg = PeerRequest::PreVote {
            term: proposed,
            candidate: self.config.id.clone(),
            last_index,
            last_term,
        };
        let mut grants = 1usize; // would vote for ourselves
        for reply in self.transport.call_all(&self.config.peers, &msg) {
            if let Ok(PeerReply::PreVoteAck { term: t, granted }) = reply {
                if t > current {
                    self.step_down(t);
                    self.stats.lock().pre_votes_blocked += 1;
                    return false;
                }
                if granted {
                    grants += 1;
                }
            }
        }
        if grants >= self.quorum() {
            return true;
        }
        self.stats.lock().pre_votes_blocked += 1;
        // Back off a full election timeout before probing again so an
        // isolated node does not hammer the link every tick. The backoff
        // restarts the timer but is no word from a leader: forget the
        // leader, or this node would refuse a peer's pre-vote as if it
        // still heard one. (Commit rounds refresh only the sync set's
        // timers, so after a leader loss the followers time out at
        // different moments, each refusing the other's probe.)
        let mut st = self.state.lock();
        st.last_heartbeat_ms = now_ms;
        st.leader_id = None;
        false
    }

    /// One heartbeat fan-out round (leader only). Lagging followers
    /// pull entry repair off the heartbeat's nack; diverged or
    /// compacted-past followers get a chunked state transfer.
    fn heartbeat_round(&self, now_ms: u64) {
        let _write = self.write.lock();
        let (term, prev_index, prev_hash) = {
            let mut st = self.state.lock();
            if st.role != Role::Leader {
                return;
            }
            st.clock_ms = st.clock_ms.max(now_ms);
            st.last_heartbeat_ms = now_ms;
            (st.term, st.last_index, st.log_hash)
        };
        self.stats.lock().heartbeats_sent += 1;
        let msg = PeerRequest::Replicate {
            term,
            leader: self.config.id.clone(),
            leader_hint: self.config.client_hint.clone(),
            prev_index,
            prev_hash,
            entries: Vec::new(),
        };
        let replies = self.transport.call_all(&self.config.peers, &msg);
        let Some(tally) = self.tally(term, &self.config.peers, replies) else {
            return;
        };
        if 1 + tally.contacts >= self.quorum() {
            let mut st = self.state.lock();
            if st.role == Role::Leader && st.term == term {
                st.last_quorum_ms = st.last_quorum_ms.max(now_ms);
            }
        }
    }

    /// True when this node is a leader whose quorum lease has lapsed
    /// (it refuses writes and repair until contact is re-established).
    pub fn is_fenced(&self, now_ms: u64) -> bool {
        let st = self.state.lock();
        fenced_now(&st, &self.config, now_ms)
    }

    /// Advances the node's timers: leaders heartbeat (and latch the
    /// fencing state), followers and candidates start an election when
    /// the leader has gone quiet for more than the (id-skewed)
    /// election timeout.
    pub fn tick(&self, now_ms: u64) {
        let (role, last_heartbeat) = {
            let mut st = self.state.lock();
            st.clock_ms = st.clock_ms.max(now_ms);
            if st.role == Role::Leader {
                let f = fenced_now(&st, &self.config, now_ms);
                if f && !st.fenced {
                    st.fenced = true;
                    self.stats.lock().fencings += 1;
                }
                if !f {
                    st.fenced = false;
                }
            } else {
                st.fenced = false;
            }
            (st.role, st.last_heartbeat_ms)
        };
        match role {
            Role::Leader => {
                // A fenced leader keeps heartbeating: re-establishing
                // quorum contact is exactly what un-fences it.
                if now_ms.saturating_sub(last_heartbeat) >= self.config.heartbeat_ms {
                    self.heartbeat_round(now_ms);
                }
            }
            Role::Follower | Role::Candidate => {
                let timeout = self.config.election_timeout_ms
                    + id_skew(&self.config.id, self.config.election_timeout_ms);
                if now_ms.saturating_sub(last_heartbeat) >= timeout {
                    self.start_election(now_ms);
                }
            }
        }
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

// ---------------------------------------------------------------------------
// In-process mesh transport
// ---------------------------------------------------------------------------

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
        let nodes: Vec<Arc<ReplicaNode>> = {
            let inner = self.inner.lock();
            inner
                .nodes
                .iter()
                .filter(|(id, _)| !inner.down.contains(*id))
                .map(|(_, n)| Arc::clone(n))
                .collect()
        };
        for node in nodes {
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
        let inner = self.inner.lock();
        let leaders: Vec<Arc<ReplicaNode>> = inner
            .nodes
            .iter()
            .filter(|(id, _)| !inner.down.contains(*id))
            .map(|(_, n)| Arc::clone(n))
            .collect::<Vec<_>>()
            .into_iter()
            .filter(|n| n.is_leader())
            .collect();
        match leaders.as_slice() {
            [one] => Some(Arc::clone(one)),
            _ => None,
        }
    }
}

impl ReplicationTransport for LocalMesh {
    fn call(&self, peer: &str, req: &PeerRequest) -> Result<PeerReply, StoreError> {
        let origin = req.origin().to_string();
        let node = {
            let mut inner = self.inner.lock();
            if inner.down.contains(&origin) {
                return Err(StoreError::Io(format!("{origin}: node crashed")));
            }
            if inner.down.contains(peer) {
                return Err(StoreError::Io(format!("{peer}: node crashed")));
            }
            if inner.cut.contains(&(origin.clone(), peer.to_string())) {
                return Err(StoreError::Io(format!("{origin}->{peer}: link cut")));
            }
            if let Some((window, count)) = inner.flappy.get_mut(&link_key(&origin, peer)) {
                let n = *count;
                *count += 1;
                if (n / *window) % 2 == 1 {
                    return Err(StoreError::Io(format!("{origin}->{peer}: link flapping")));
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

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster_with(
        n: usize,
        tweak: impl Fn(&mut ReplicaConfig),
    ) -> (LocalMesh, Vec<Arc<ReplicaNode>>) {
        let mesh = LocalMesh::new();
        let ids: Vec<String> = (0..n).map(|i| format!("n{i}")).collect();
        let nodes: Vec<Arc<ReplicaNode>> = ids
            .iter()
            .enumerate()
            .map(|(i, id)| {
                let peers = ids.iter().filter(|p| *p != id).cloned().collect();
                let mut cfg =
                    ReplicaConfig::new(id.clone(), peers, format!("127.0.0.1:{}", 9100 + i));
                tweak(&mut cfg);
                let node = Arc::new(ReplicaNode::new(cfg, Arc::new(mesh.clone())));
                mesh.register(Arc::clone(&node));
                node
            })
            .collect();
        (mesh, nodes)
    }

    fn cluster(n: usize) -> (LocalMesh, Vec<Arc<ReplicaNode>>) {
        cluster_with(n, |_| {})
    }

    /// Drives ticks until exactly one live leader exists.
    fn settle(mesh: &LocalMesh) -> Arc<ReplicaNode> {
        for _ in 0..200 {
            mesh.step(25);
            if let Some(leader) = mesh.live_leader() {
                return leader;
            }
        }
        panic!("no leader elected after 200 steps");
    }

    #[test]
    fn message_json_round_trips() {
        let reqs = vec![
            PeerRequest::Replicate {
                term: 3,
                leader: "n0".into(),
                leader_hint: "127.0.0.1:9100".into(),
                prev_index: 7,
                prev_hash: 0xdeadbeef,
                entries: vec![LogEntry {
                    index: 8,
                    term: 3,
                    region: "journal".into(),
                    op: RegionOp::Append(vec![0, 1, 255]),
                }],
            },
            PeerRequest::LeaderClaim {
                term: 4,
                candidate: "n1".into(),
                candidate_hint: "127.0.0.1:9101".into(),
                last_index: 8,
                last_term: 3,
            },
            PeerRequest::PreVote {
                term: 5,
                candidate: "n2".into(),
                last_index: 8,
                last_term: 4,
            },
            PeerRequest::Repair {
                term: 4,
                follower: "n2".into(),
                from_index: 6,
                from_hash: 0xfeed,
            },
            PeerRequest::SyncChunk {
                term: 4,
                leader: "n1".into(),
                leader_hint: "127.0.0.1:9101".into(),
                session: 7,
                seq: 2,
                total: 5,
                region: "journal".into(),
                offset: 8192,
                bytes: vec![9, 8, 7],
                checksum: 0xabc,
                last_index: 8,
                last_hash: 99,
                last_term: 4,
            },
        ];
        for req in reqs {
            let text = oasis_json::to_string(&req);
            let back: PeerRequest = oasis_json::from_str(&text).unwrap();
            assert_eq!(back, req);
        }
        let replies = vec![
            PeerReply::ReplicateAck {
                term: 3,
                last_index: 8,
                log_hash: 0xbeef,
                ok: true,
            },
            PeerReply::Vote {
                term: 4,
                granted: false,
            },
            PeerReply::PreVoteAck {
                term: 5,
                granted: true,
            },
            PeerReply::RepairChunk {
                term: 4,
                ok: true,
                entries: vec![LogEntry {
                    index: 7,
                    term: 2,
                    region: "journal".into(),
                    op: RegionOp::Replace(vec![4, 2]),
                }],
                last_index: 8,
            },
            PeerReply::ChunkAck {
                term: 4,
                seq: 2,
                ok: true,
            },
        ];
        for reply in replies {
            let text = oasis_json::to_string(&reply);
            let back: PeerReply = oasis_json::from_str(&text).unwrap();
            assert_eq!(back, reply);
        }
    }

    #[test]
    fn election_settles_on_single_leader() {
        let (mesh, nodes) = cluster(3);
        let leader = settle(&mesh);
        assert_eq!(
            nodes.iter().filter(|n| n.is_leader()).count(),
            1,
            "exactly one leader"
        );
        assert!(leader.term() >= 1);
        // Followers learned the leader's client hint.
        for n in &nodes {
            if !n.is_leader() {
                assert_eq!(n.leader_hint(), leader.leader_hint());
            }
        }
    }

    /// The commit contract: a majority holds `bytes` in `region` when
    /// the write returns, and every node holds it one heartbeat later.
    fn assert_majority_then_all(
        mesh: &LocalMesh,
        nodes: &[Arc<ReplicaNode>],
        leader: &ReplicaNode,
        region: &str,
        bytes: &[u8],
    ) {
        let holders = || {
            nodes
                .iter()
                .filter(|n| {
                    n.region(region).read().unwrap() == bytes
                        && n.last_index() == leader.last_index()
                })
                .count()
        };
        assert!(holders() >= leader.quorum(), "a majority holds the write");
        mesh.step(leader.config.heartbeat_ms + 1);
        assert_eq!(
            holders(),
            nodes.len(),
            "every node holds it after a heartbeat"
        );
    }

    #[test]
    fn quorum_append_replicates_to_all_nodes() {
        let (mesh, nodes) = cluster(3);
        let leader = settle(&mesh);
        let store = leader.replicated("journal");
        store.append(b"rec-1").unwrap();
        store.append(b"rec-2").unwrap();
        assert_majority_then_all(&mesh, &nodes, &leader, "journal", b"rec-1rec-2");
        assert_eq!(leader.last_index(), 2);
        assert_eq!(leader.stats().committed, 2);
    }

    #[test]
    fn replace_replicates_too() {
        let (mesh, nodes) = cluster(3);
        let leader = settle(&mesh);
        let store = leader.replicated("snapshot");
        store.append(b"old").unwrap();
        store.replace(b"new-snapshot").unwrap();
        assert_majority_then_all(&mesh, &nodes, &leader, "snapshot", b"new-snapshot");
    }

    #[test]
    fn steady_rounds_contact_a_quorum_only() {
        const APPENDS: u64 = 200;
        let (mesh, nodes) = cluster(3);
        let leader = settle(&mesh);
        let store = leader.replicated("journal");
        // No ticks: every frame below is a commit round's.
        for i in 0..APPENDS {
            store.append(format!("r{i};").as_bytes()).unwrap();
        }
        assert_eq!(leader.stats().committed, APPENDS);
        let lazy = nodes
            .iter()
            .find(|n| n.last_index() < leader.last_index())
            .expect("one follower is left out of the rounds");
        // It caught up by one repair pull per lag-bound round, each pull
        // one chunk, never by a state transfer.
        let pulls = lazy.stats().repairs_pulled;
        let bound = APPENDS.div_ceil(REPAIR_BATCH as u64) + 1;
        assert!(
            pulls <= bound,
            "{pulls} repair pulls for {APPENDS} rounds (bound {bound})"
        );
        assert!(pulls >= 1);
        assert_eq!(leader.stats().repair_chunks_served, pulls);
        assert_eq!(lazy.stats().syncs_applied, 0);
        assert_eq!(leader.stats().sync_chunks_sent, 0);
    }

    #[test]
    fn lazy_follower_never_trails_more_than_a_repair_batch() {
        for n in [3, 5] {
            let (_mesh, nodes) = cluster(n);
            let leader = settle(&_mesh);
            let store = leader.replicated("journal");
            let mut max_trail = 0;
            for i in 0..300 {
                store.append(format!("r{i};").as_bytes()).unwrap();
                for f in &nodes {
                    max_trail = max_trail.max(leader.last_index() - f.last_index());
                }
            }
            assert_eq!(
                max_trail,
                REPAIR_BATCH as u64 - 1,
                "{n} nodes: a follower left out rejoins before it trails by a repair batch"
            );
            assert_eq!(leader.stats().no_quorum, 0);
            assert_eq!(leader.stats().sync_chunks_sent, 0);
        }
    }

    #[test]
    fn killing_the_sync_follower_commits_on_the_next_round() {
        let (mesh, nodes) = cluster(3);
        let leader = settle(&mesh);
        let store = leader.replicated("journal");
        for i in 0..10 {
            store.append(format!("r{i};").as_bytes()).unwrap();
        }
        let followers = || nodes.iter().filter(|n| n.id() != leader.id());
        let sync = followers()
            .find(|n| n.last_index() == leader.last_index())
            .expect("the follower that acked the last round");
        let lazy = followers().find(|n| n.id() != sync.id()).unwrap();
        assert!(lazy.last_index() < leader.last_index(), "left out so far");
        mesh.kill(sync.id());
        // The sync set fails, so the same round calls the lazy follower,
        // which repairs up to the in-flight entry and acks it.
        store.append(b"after-kill;").unwrap();
        assert_eq!(lazy.last_index(), leader.last_index());
        store.append(b"and-on;").unwrap();
        assert_eq!(leader.stats().no_quorum, 0);
        assert_eq!(
            lazy.region("journal").read().unwrap(),
            leader.region("journal").read().unwrap()
        );
    }

    #[test]
    fn leader_loss_after_thrifty_rounds_fails_over_promptly() {
        let (mesh, nodes) = cluster(3);
        let leader = settle(&mesh);
        let store = leader.replicated("journal");
        for i in 0..8 {
            mesh.step(5);
            store.append(format!("r{i};").as_bytes()).unwrap();
        }
        // Only the sync follower heard the last rounds, so the two
        // followers' election timers now expire apart. The one left out
        // is refused (stale log); its refusal must not make it refuse
        // the up-to-date follower's probe in turn.
        mesh.kill(leader.id());
        let killed_at = mesh.now();
        let successor = settle(&mesh);
        assert!(
            mesh.now() - killed_at <= 400,
            "failover took {} ms",
            mesh.now() - killed_at
        );
        assert_eq!(successor.last_index(), leader.last_index());
        assert!(nodes.iter().any(|n| Arc::ptr_eq(n, &successor)));
    }

    #[test]
    fn lagging_follower_that_catches_up_acks_the_round() {
        let (mesh, nodes) = cluster(3);
        let leader = settle(&mesh);
        let mut followers = nodes.iter().filter(|n| n.id() != leader.id());
        let (f1, f2) = (followers.next().unwrap(), followers.next().unwrap());
        let store = leader.replicated("journal");
        mesh.partition(leader.id(), f2.id());
        for i in 0..3 {
            store.append(format!("r{i};").as_bytes()).unwrap();
        }
        mesh.heal_partition(leader.id(), f2.id());
        mesh.kill(f1.id());
        // F2 trails by three entries: its repair pull fetches those and
        // the round's own entry, so its log holds the round and it must
        // ack — F2 is the only other member of the quorum.
        store.append(b"r3;").unwrap();
        assert_eq!(f2.last_index(), 4);
        assert_eq!(f2.last_index(), leader.last_index());
        assert_eq!(leader.stats().no_quorum, 0);
    }

    #[test]
    fn follower_rejects_writes_with_leader_hint() {
        let (mesh, nodes) = cluster(3);
        let leader = settle(&mesh);
        let follower = nodes.iter().find(|n| !n.is_leader()).unwrap();
        let store = follower.replicated("journal");
        match store.append(b"nope") {
            Err(StoreError::NotLeader { hint }) => {
                assert_eq!(hint, leader.leader_hint());
            }
            other => panic!("expected NotLeader, got {other:?}"),
        }
    }

    #[test]
    fn no_quorum_fails_the_write() {
        let (mesh, nodes) = cluster(3);
        let leader = settle(&mesh);
        let followers: Vec<&str> = nodes
            .iter()
            .filter(|n| !n.is_leader())
            .map(|n| n.id())
            .collect();
        for f in &followers {
            mesh.partition(leader.id(), f);
        }
        let store = leader.replicated("journal");
        match store.append(b"isolated") {
            Err(StoreError::NoQuorum { needed, acked }) => {
                assert_eq!(needed, 2);
                assert_eq!(acked, 1);
            }
            other => panic!("expected NoQuorum, got {other:?}"),
        }
    }

    #[test]
    fn crashed_follower_catches_up_via_entry_repair() {
        let (mesh, nodes) = cluster(3);
        let leader = settle(&mesh);
        let follower = nodes.iter().find(|n| !n.is_leader()).unwrap();
        mesh.kill(follower.id());
        let store = leader.replicated("journal");
        for i in 0..5 {
            store.append(format!("rec-{i}").as_bytes()).unwrap();
        }
        assert!(follower.last_index() < leader.last_index());
        mesh.revive(follower.id());
        // The next heartbeat's stale prev makes the follower pull the
        // missing suffix from the leader's retained tail — no
        // full-state transfer at all.
        mesh.step(leader.config.heartbeat_ms + 1);
        assert_eq!(follower.last_index(), leader.last_index());
        assert_eq!(
            follower.region("journal").read().unwrap(),
            leader.region("journal").read().unwrap()
        );
        let fs = follower.stats();
        assert!(fs.repairs_pulled >= 1, "follower pulled repair");
        assert_eq!(fs.repair_entries_applied, 5, "all 5 entries replayed");
        assert_eq!(fs.syncs_applied, 0, "no full-state sync applied");
        assert_eq!(leader.stats().sync_chunks_sent, 0, "no sync chunks sent");
    }

    #[test]
    fn compacted_tail_falls_back_to_chunked_sync() {
        let (mesh, nodes) = cluster_with(3, |cfg| {
            cfg.retain_entries = 2;
            cfg.sync_chunk_bytes = 4;
        });
        let leader = settle(&mesh);
        let follower = nodes.iter().find(|n| !n.is_leader()).unwrap();
        mesh.kill(follower.id());
        let store = leader.replicated("journal");
        for i in 0..6 {
            store.append(format!("r{i}").as_bytes()).unwrap();
        }
        mesh.revive(follower.id());
        // The follower trails by 6 > retain_entries=2, so its repair
        // pull is refused (compacted) and the leader ships a chunked
        // full-state sync instead — 12 journal bytes in 4-byte chunks.
        mesh.step(leader.config.heartbeat_ms + 1);
        assert_eq!(follower.last_index(), leader.last_index());
        assert_eq!(
            follower.region("journal").read().unwrap(),
            leader.region("journal").read().unwrap()
        );
        let fs = follower.stats();
        assert!(fs.syncs_applied >= 1, "full-state sync applied");
        assert_eq!(fs.repair_entries_applied, 0, "repair refused past tail");
        let ls = leader.stats();
        assert!(ls.sync_chunks_sent >= 3, "payload split into chunks");
        assert!(ls.syncs_sent >= 1, "transfer completed");
    }

    #[test]
    fn mid_transfer_link_drop_resumes_chunked_sync() {
        let (mesh, nodes) = cluster_with(3, |cfg| {
            cfg.retain_entries = 2;
            cfg.sync_chunk_bytes = 8;
        });
        let leader = settle(&mesh);
        let follower = nodes.iter().find(|n| !n.is_leader()).unwrap();
        mesh.kill(follower.id());
        let store = leader.replicated("journal");
        for i in 0..6 {
            store.append(format!("record-{i}").as_bytes()).unwrap();
        }
        mesh.revive(follower.id());
        // 48 journal bytes in 8-byte chunks = 6 chunks, over a link
        // that flaps every 3 calls: the transfer cannot finish in one
        // round and must survive by resuming, not restarting.
        mesh.set_flappy(leader.id(), follower.id(), 3);
        let mut converged = false;
        for _ in 0..80 {
            mesh.step(leader.config.heartbeat_ms + 1);
            if follower.last_index() == leader.last_index()
                && follower.region("journal").read().unwrap()
                    == leader.region("journal").read().unwrap()
            {
                converged = true;
                break;
            }
        }
        assert!(converged, "sync must complete across link flaps");
        mesh.clear_flappy(leader.id(), follower.id());
        let ls = leader.stats();
        assert!(ls.sync_resumes >= 1, "session resumed at least once");
        assert_eq!(ls.syncs_sent, 1, "exactly one transfer completed");
        assert_eq!(follower.stats().syncs_applied, 1, "installed exactly once");
    }

    #[test]
    fn flappy_link_heals_via_repair_without_sync() {
        let (mesh, nodes) = cluster(3);
        let leader = settle(&mesh);
        let follower = nodes.iter().find(|n| !n.is_leader()).unwrap();
        let term_before = leader.term();
        mesh.set_flappy(leader.id(), follower.id(), 4);
        let store = leader.replicated("scratch");
        for i in 0..12 {
            // Appends may commit on the other follower alone while the
            // flapped link is down — that's the lag repair later heals.
            let _ = store.append(format!("s{i}").as_bytes());
            mesh.step(5);
        }
        mesh.clear_flappy(leader.id(), follower.id());
        let mut converged = false;
        for _ in 0..20 {
            mesh.step(leader.config.heartbeat_ms + 1);
            if follower.last_index() == leader.last_index() {
                converged = true;
                break;
            }
        }
        assert!(converged, "flapped follower must converge");
        assert_eq!(
            follower.region("scratch").read().unwrap(),
            leader.region("scratch").read().unwrap()
        );
        // The whole episode healed through entry repair: the trail
        // never left the retained tail, so a full-state sync would be
        // a regression.
        assert!(follower.stats().repairs_pulled >= 1);
        assert_eq!(follower.stats().syncs_applied, 0);
        assert_eq!(leader.stats().sync_chunks_sent, 0);
        assert_eq!(leader.term(), term_before, "no term storm from flapping");
        assert!(leader.is_leader(), "leader undeposed");
    }

    #[test]
    fn pre_vote_prevents_isolated_node_term_storm() {
        let (mesh, nodes) = cluster(3);
        let leader = settle(&mesh);
        let isolated = nodes.iter().find(|n| !n.is_leader()).unwrap();
        let term_before = leader.term();
        let leader_step_downs = leader.stats().step_downs;
        let elections_before = isolated.stats().elections_started;
        for n in &nodes {
            if n.id() != isolated.id() {
                mesh.partition(isolated.id(), n.id());
            }
        }
        for _ in 0..20 {
            mesh.step(25);
        }
        // The isolated node kept probing but never consumed a term.
        assert_eq!(isolated.term(), term_before, "no term inflation");
        assert!(isolated.stats().pre_votes_blocked >= 1);
        assert_eq!(isolated.stats().elections_started, elections_before);
        // Heal: the node rejoins without disturbing the leader.
        for n in &nodes {
            if n.id() != isolated.id() {
                mesh.heal_partition(isolated.id(), n.id());
            }
        }
        for _ in 0..5 {
            mesh.step(leader.config.heartbeat_ms + 1);
        }
        assert!(leader.is_leader(), "leader survives the rejoin");
        assert_eq!(
            leader.stats().step_downs,
            leader_step_downs,
            "zero depositions with pre-vote"
        );
        assert_eq!(leader.term(), term_before);
    }

    #[test]
    fn term_storm_without_pre_vote_deposes_leader() {
        let (mesh, nodes) = cluster_with(3, |cfg| cfg.pre_vote = false);
        let leader = settle(&mesh);
        let isolated = nodes.iter().find(|n| !n.is_leader()).unwrap();
        let term_before = leader.term();
        for n in &nodes {
            if n.id() != isolated.id() {
                mesh.partition(isolated.id(), n.id());
            }
        }
        for _ in 0..20 {
            mesh.step(25);
        }
        // Without pre-vote every timeout burns a real term.
        assert!(isolated.term() > term_before, "terms inflated");
        assert!(isolated.stats().elections_started >= 1);
        for n in &nodes {
            if n.id() != isolated.id() {
                mesh.heal_partition(isolated.id(), n.id());
            }
        }
        // On rejoin the inflated term deposes the healthy leader: the
        // exact failure mode pre-vote exists to prevent.
        let mut deposed = false;
        for _ in 0..40 {
            mesh.step(25);
            if leader.stats().step_downs >= 1 {
                deposed = true;
                break;
            }
        }
        assert!(deposed, "stale high term must depose the leader");
        // The cluster still re-settles on a single leader afterwards.
        settle(&mesh);
    }

    #[test]
    fn fenced_leader_rejects_writes_and_repair() {
        let (mesh, nodes) = cluster(3);
        let leader = settle(&mesh);
        for n in &nodes {
            if n.id() != leader.id() {
                mesh.partition(leader.id(), n.id());
            }
        }
        // Step past the lease: the leader can no longer refresh a
        // commit quorum and must fence itself.
        for _ in 0..10 {
            mesh.step(25);
        }
        assert!(leader.is_fenced(mesh.now()), "lease lapsed");
        assert!(leader.stats().fencings >= 1, "fencing transition counted");
        let store = leader.replicated("journal");
        match store.append(b"stale-write") {
            Err(StoreError::NotLeader { hint }) => {
                assert_eq!(hint, None, "a fenced leader has no better hint");
            }
            other => panic!("fenced leader must reject writes, got {other:?}"),
        }
        assert!(leader.stats().fenced_rejects >= 1);
        // A fenced leader must not serve catch-up either: its tail may
        // be behind the real cluster's history.
        let reply = leader.handle(
            &PeerRequest::Repair {
                term: leader.term(),
                follower: "n9".into(),
                from_index: 0,
                from_hash: 0,
            },
            mesh.now(),
        );
        match reply {
            PeerReply::RepairChunk { ok, entries, .. } => {
                assert!(!ok, "fenced leader refuses repair");
                assert!(entries.is_empty());
            }
            other => panic!("expected RepairChunk, got {other:?}"),
        }
    }

    #[test]
    fn kill_leader_fails_over_and_keeps_acked_entries() {
        let (mesh, nodes) = cluster(3);
        let leader = settle(&mesh);
        let store = leader.replicated("journal");
        for i in 0..7 {
            store.append(format!("acked-{i}").as_bytes()).unwrap();
        }
        let acked_bytes = leader.region("journal").read().unwrap();
        mesh.kill(leader.id());
        let new_leader = settle(&mesh);
        assert_ne!(new_leader.id(), leader.id());
        assert!(new_leader.term() > leader.term() || !leader.is_leader());
        // Every quorum-acked byte survived the leader loss.
        assert_eq!(new_leader.region("journal").read().unwrap(), acked_bytes);
        // And the new leader keeps accepting writes with the survivor.
        new_leader
            .replicated("journal")
            .append(b"post-failover")
            .unwrap();
        let survivor = nodes
            .iter()
            .find(|n| n.id() != leader.id() && n.id() != new_leader.id())
            .unwrap();
        assert_eq!(
            survivor.region("journal").read().unwrap(),
            new_leader.region("journal").read().unwrap()
        );
    }

    #[test]
    fn deposed_leader_with_unacked_entries_is_overwritten() {
        let (mesh, nodes) = cluster(3);
        let leader = settle(&mesh);
        let store = leader.replicated("journal");
        store.append(b"committed").unwrap();
        // Isolate the leader, then let it accept a doomed write.
        let others: Vec<&str> = nodes
            .iter()
            .filter(|n| n.id() != leader.id())
            .map(|n| n.id())
            .collect();
        for o in &others {
            mesh.partition(leader.id(), o);
        }
        assert!(matches!(
            store.append(b"+doomed"),
            Err(StoreError::NoQuorum { .. })
        ));
        // The majority side elects a new leader (the isolated old
        // leader still believes it leads, so don't use live_leader)
        // and commits a different entry at the same log index.
        let mut found = None;
        for _ in 0..400 {
            mesh.step(25);
            if let Some(l) = nodes
                .iter()
                .find(|n| n.id() != leader.id() && n.is_leader())
            {
                found = Some(Arc::clone(l));
                break;
            }
        }
        let new_leader = found.expect("majority side must elect a new leader");
        new_leader.replicated("journal").append(b"+winner").unwrap();
        // Same last_index on both sides, different content: only the
        // chained hash can tell them apart.
        assert_eq!(leader.last_index(), new_leader.last_index());
        // Heal: the old leader rejoins, detects divergence on the next
        // heartbeat, and is state-transferred to the winner's log.
        for o in &others {
            mesh.heal_partition(leader.id(), o);
        }
        for _ in 0..10 {
            mesh.step(new_leader.config.heartbeat_ms + 1);
            if !leader.is_leader()
                && leader.region("journal").read().unwrap() == b"committed+winner".to_vec()
            {
                break;
            }
        }
        assert_eq!(
            leader.region("journal").read().unwrap(),
            b"committed+winner".to_vec()
        );
        assert!(!leader.is_leader());
    }

    #[test]
    fn stale_candidate_cannot_win_election() {
        let (mesh, nodes) = cluster(3);
        let leader = settle(&mesh);
        let store = leader.replicated("journal");
        // Find a follower, crash it, then commit entries it misses.
        let stale = nodes.iter().find(|n| !n.is_leader()).unwrap();
        mesh.kill(stale.id());
        store.append(b"while-you-were-out").unwrap();
        mesh.revive(stale.id());
        // The stale node forces an election before any heartbeat can
        // repair it: pre-vote already refuses it (stale log, live
        // leader), so no term is even consumed.
        let term_before = stale.term();
        let won = stale.start_election(mesh.now());
        assert!(!won, "stale candidate must not win");
        assert_eq!(stale.term(), term_before, "blocked at the pre-vote");
        assert!(stale.stats().pre_votes_blocked >= 1);
    }

    #[test]
    fn stale_candidate_loses_at_vote_stage_without_pre_vote() {
        let (mesh, nodes) = cluster_with(3, |cfg| cfg.pre_vote = false);
        let leader = settle(&mesh);
        let store = leader.replicated("journal");
        let stale = nodes.iter().find(|n| !n.is_leader()).unwrap();
        mesh.kill(stale.id());
        store.append(b"while-you-were-out").unwrap();
        mesh.revive(stale.id());
        // Without pre-vote the claim goes out for real — and the
        // election restriction refuses it at the vote stage.
        let term_before = stale.term();
        let won = stale.start_election(mesh.now());
        assert!(!won, "stale candidate must not win");
        assert!(stale.term() > term_before, "a real term was consumed");
    }

    #[test]
    fn meta_backend_restores_term_and_vote() {
        let meta = Arc::new(MemBackend::new());
        let mesh = LocalMesh::new();
        let mut cfg = ReplicaConfig::new("n0", vec!["n1".into()], "127.0.0.1:9100");
        // The lone unreachable peer would block a pre-vote quorum and
        // this test needs the term bump a lost election produces.
        cfg.pre_vote = false;
        let node = ReplicaNode::new(cfg.clone(), Arc::new(mesh.clone()))
            .with_meta(Arc::clone(&meta) as Arc<dyn StorageBackend>)
            .expect("the meta region reads");
        let node = Arc::new(node);
        mesh.register(Arc::clone(&node));
        // Losing an election still bumps and persists the term.
        node.start_election(0);
        let term = node.term();
        assert!(term >= 1);
        // A restarted node on the same meta backend resumes the term
        // and its own vote, so it cannot vote for someone else in a
        // term it already voted in.
        let restarted = ReplicaNode::new(cfg, Arc::new(mesh.clone()))
            .with_meta(Arc::clone(&meta) as Arc<dyn StorageBackend>)
            .expect("the meta region reads");
        assert_eq!(restarted.term(), term);
        let vote = restarted.handle(
            &PeerRequest::LeaderClaim {
                term,
                candidate: "n1".into(),
                candidate_hint: "x".into(),
                last_index: 0,
                last_term: 0,
            },
            0,
        );
        assert_eq!(
            vote,
            PeerReply::Vote {
                term,
                granted: false
            }
        );
    }

    #[test]
    fn restart_mid_election_does_not_double_vote() {
        let meta = Arc::new(MemBackend::new());
        let mesh = LocalMesh::new();
        let cfg = ReplicaConfig::new("n0", vec!["a".into(), "b".into()], "127.0.0.1:9100");
        let node = ReplicaNode::new(cfg.clone(), Arc::new(mesh.clone()))
            .with_meta(Arc::clone(&meta) as Arc<dyn StorageBackend>)
            .expect("the meta region reads");
        let claim = |candidate: &str| PeerRequest::LeaderClaim {
            term: 5,
            candidate: candidate.into(),
            candidate_hint: "x".into(),
            last_index: 0,
            last_term: 0,
        };
        // Vote for `a` in term 5, then crash before the election ends.
        assert_eq!(
            node.handle(&claim("a"), 0),
            PeerReply::Vote {
                term: 5,
                granted: true
            }
        );
        drop(node);
        let restarted = ReplicaNode::new(cfg, Arc::new(mesh.clone()))
            .with_meta(Arc::clone(&meta) as Arc<dyn StorageBackend>)
            .expect("the meta region reads");
        // The restarted node remembers its term-5 vote: `b` is refused…
        assert_eq!(
            restarted.handle(&claim("b"), 0),
            PeerReply::Vote {
                term: 5,
                granted: false
            }
        );
        // …while `a` re-asking (a retransmit) is still granted.
        assert_eq!(
            restarted.handle(&claim("a"), 0),
            PeerReply::Vote {
                term: 5,
                granted: true
            }
        );
    }

    #[test]
    fn torn_or_foreign_meta_is_refused_at_startup() {
        let cfg = ReplicaConfig::new("n0", vec!["a".into(), "b".into()], "127.0.0.1:9100");
        let open = |bytes: &[u8]| {
            let meta = Arc::new(MemBackend::new());
            meta.replace(bytes)
                .expect("a memory region takes any bytes");
            ReplicaNode::new(cfg.clone(), Arc::new(LocalMesh::new()))
                .with_meta(meta as Arc<dyn StorageBackend>)
        };
        let whole = br#"{"term":5,"voted_for":"a","last_index":0,"last_term":0,"log_hash":0}"#;
        for (what, bytes) in [
            ("torn JSON", &whole[..whole.len() / 2]),
            ("garbage", &b"\xff\x00not meta"[..]),
            ("an object without a term", &br#"{"voted_for":"a"}"#[..]),
        ] {
            match open(bytes) {
                Err(StoreError::Codec(_)) => {}
                Err(other) => panic!("{what}: refused with {other:?}, not a codec error"),
                Ok(node) => panic!("{what}: started at term {}", node.term()),
            }
        }
        let restored = open(whole).expect("the meta this node writes restores");
        assert_eq!(restored.term(), 5);
    }

    #[test]
    fn empty_meta_is_a_fresh_node() {
        let cfg = ReplicaConfig::new("n0", vec!["a".into(), "b".into()], "127.0.0.1:9100");
        let node = ReplicaNode::new(cfg, Arc::new(LocalMesh::new()))
            .with_meta(Arc::new(MemBackend::new()) as Arc<dyn StorageBackend>)
            .expect("an empty meta region is a fresh node");
        assert_eq!(node.term(), 0);
        assert_eq!(
            node.handle(
                &PeerRequest::LeaderClaim {
                    term: 1,
                    candidate: "a".into(),
                    candidate_hint: "x".into(),
                    last_index: 0,
                    last_term: 0,
                },
                0,
            ),
            PeerReply::Vote {
                term: 1,
                granted: true
            }
        );
    }

    #[test]
    fn no_meta_region_falls_back_to_per_process_voting() {
        // Without a meta backend the vote guard only spans the process
        // lifetime: a restart forgets the vote. This test documents
        // that weaker fallback semantic.
        let mesh = LocalMesh::new();
        let cfg = ReplicaConfig::new("n0", vec!["a".into(), "b".into()], "127.0.0.1:9100");
        let claim = |candidate: &str| PeerRequest::LeaderClaim {
            term: 5,
            candidate: candidate.into(),
            candidate_hint: "x".into(),
            last_index: 0,
            last_term: 0,
        };
        let node = ReplicaNode::new(cfg.clone(), Arc::new(mesh.clone()));
        assert_eq!(
            node.handle(&claim("a"), 0),
            PeerReply::Vote {
                term: 5,
                granted: true
            }
        );
        // Same process: the second candidate is still refused.
        assert_eq!(
            node.handle(&claim("b"), 0),
            PeerReply::Vote {
                term: 5,
                granted: false
            }
        );
        drop(node);
        // After a restart with no meta the vote is forgotten.
        let restarted = ReplicaNode::new(cfg, Arc::new(mesh.clone()));
        assert_eq!(
            restarted.handle(&claim("b"), 0),
            PeerReply::Vote {
                term: 5,
                granted: true
            }
        );
    }

    #[test]
    fn five_node_cluster_survives_two_follower_losses() {
        let (mesh, nodes) = cluster(5);
        let leader = settle(&mesh);
        let followers: Vec<&str> = nodes
            .iter()
            .filter(|n| !n.is_leader())
            .map(|n| n.id())
            .collect();
        mesh.kill(followers[0]);
        mesh.kill(followers[1]);
        let store = leader.replicated("journal");
        store.append(b"still-quorate").unwrap();
        assert_eq!(leader.stats().committed, 1);
        // A third loss breaks quorum.
        mesh.kill(followers[2]);
        assert!(matches!(
            store.append(b"not-any-more"),
            Err(StoreError::NoQuorum {
                needed: 3,
                acked: 2
            })
        ));
    }
}
