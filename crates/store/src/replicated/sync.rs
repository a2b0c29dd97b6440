//! Chunked state transfer, the fallback when repair cannot heal a
//! follower: resumable sessions of checksummed chunks.

use std::sync::atomic::Ordering;

use oasis_crypto::hash::Sha256;

use super::{PeerReply, PeerRequest, ReplicaNode};

/// A follower's in-progress inbound chunked sync session.
pub(super) struct PendingSync {
    leader: String,
    session: u64,
    next_seq: u64,
    /// Region bytes staged so far, in arrival order. Nothing is
    /// installed until the final chunk lands, so a half-received
    /// transfer never leaves the node in a mixed state.
    staged: Vec<(String, Vec<u8>)>,
}

/// Leader-side record of an outbound chunked sync, keyed by peer. Kept
/// across transport failures so a later retry resumes from `next`
/// instead of re-shipping acked chunks.
pub(super) struct SyncSession {
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

/// First 8 LE bytes of SHA-256 — the per-chunk payload checksum.
fn checksum64(bytes: &[u8]) -> u64 {
    let digest = Sha256::digest(bytes);
    u64::from_le_bytes(digest[..8].try_into().expect("8-byte prefix"))
}

impl ReplicaNode {
    /// Pushes a chunked full-state transfer to one peer, resuming a
    /// same-term session from the last acked chunk when one survives a
    /// transport failure. Caller must hold the write lock so the
    /// region reads are a consistent cut. Returns true when the final
    /// chunk was acked.
    pub(super) fn sync_peer(&self, peer: &str, term: u64) -> bool {
        {
            let mut sessions = self.sync_sessions.lock();
            let keep = sessions.get(peer).is_some_and(|s| s.term == term);
            if keep {
                if sessions.get(peer).expect("kept session").next > 0 {
                    self.stats.sync_resumes.inc();
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
                    // An empty region still ships one (empty) chunk.
                    let mut offset = 0;
                    loop {
                        let end = (offset + chunk_len).min(bytes.len());
                        chunks.push(ChunkData {
                            region: name.clone(),
                            offset: offset as u64,
                            bytes: bytes[offset..end].to_vec(),
                        });
                        offset = end;
                        if offset == bytes.len() {
                            break;
                        }
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
            let (msg, seq) = {
                let sessions = self.sync_sessions.lock();
                let Some(s) = sessions.get(peer) else {
                    return false;
                };
                let seq = s.next;
                if seq >= s.chunks.len() {
                    break;
                }
                let c = &s.chunks[seq];
                self.stats.sync_chunks_sent.inc();
                self.stats.sync_bytes_sent.add(c.bytes.len() as u64);
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
                )
            };
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
                    // The next turn sends the following chunk, or ends
                    // the transfer after the last one.
                    let mut sessions = self.sync_sessions.lock();
                    let Some(s) = sessions.get_mut(peer) else {
                        return false;
                    };
                    s.next = seq + 1;
                }
                // Transport failure mid-transfer: keep the session so
                // the next round resumes from `next` instead of
                // restarting from chunk 0.
                _ => return false,
            }
        }
        self.sync_sessions.lock().remove(peer);
        self.stats.syncs_sent.inc();
        true
    }

    /// Follower side of [`PeerRequest::SyncChunk`]: stage the chunk, and
    /// install the whole transfer on the last one.
    pub(super) fn on_sync_chunk(&self, req: &PeerRequest, now_ms: u64) -> PeerReply {
        let PeerRequest::SyncChunk {
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
        } = req
        else {
            unreachable!("`handle` dispatches by variant");
        };
        let mut st = self.state.lock();
        if !self.accept_leader(&mut st, *term, leader, leader_hint, now_ms) {
            return PeerReply::ChunkAck {
                term: st.term,
                seq: *seq,
                ok: false,
            };
        }
        let staged = 'stage: {
            let continues = st.pending_sync.as_ref().is_some_and(|p| {
                p.leader == *leader && p.session == *session && p.next_seq == *seq
            });
            if checksum64(bytes) != *checksum || (!continues && *seq != 0) {
                // A corrupt chunk, or a mid-session chunk for a session
                // we are not tracking: nack so the leader restarts.
                st.pending_sync = None;
                break 'stage false;
            }
            if !continues {
                st.pending_sync = Some(PendingSync {
                    leader: leader.clone(),
                    session: *session,
                    next_seq: 0,
                    staged: Vec::new(),
                });
            }
            let p = st.pending_sync.as_mut().expect("pending sync present");
            // Region-name "" is the head-only sentinel; real chunks must
            // extend their region contiguously.
            if !region.is_empty() {
                let buf = p.staged.iter_mut().find(|(n, _)| n == region);
                if buf.as_ref().map_or(0, |(_, b)| b.len() as u64) != *offset {
                    st.pending_sync = None;
                    break 'stage false;
                }
                match buf {
                    Some((_, buf)) => buf.extend_from_slice(bytes),
                    None => p.staged.push((region.clone(), bytes.clone())),
                }
            }
            p.next_seq = *seq + 1;
            if *seq + 1 < *total {
                break 'stage true;
            }
            // Final chunk: install the staged snapshot atomically with
            // the shipped log head.
            let staged = st.pending_sync.take().expect("pending sync present").staged;
            if staged
                .iter()
                .any(|(name, b)| self.region(name).replace(b).is_err())
            {
                break 'stage false;
            }
            st.last_index = *last_index;
            st.last_term = *last_term;
            st.log_hash = *last_hash;
            // The tail does not cover synced history: anchor an empty
            // tail at the new head.
            st.tail.clear();
            st.tail_prev_hash = *last_hash;
            self.stats.syncs_applied.inc();
            true
        };
        let term = st.term;
        drop(st);
        let persisted = self.persist_meta().is_ok();
        PeerReply::ChunkAck {
            term,
            seq: *seq,
            ok: staged && persisted,
        }
    }
}
