//! The replication protocol's frames: log entries, peer requests and
//! their replies, with their JSON encoding.

use oasis_crypto::HexBytes;
use oasis_json::{json_enum, json_struct};

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
