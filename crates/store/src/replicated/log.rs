//! The replicated log: the hash chain and retained tail, the leader's
//! write path and heartbeat, and the follower's append.

use std::cmp::Reverse;

use oasis_crypto::hash::Sha256;

use super::{
    fenced_now, LogEntry, NodeState, PeerReply, PeerRequest, RegionOp, ReplicaNode, Role,
    RoundPeers, REPAIR_BATCH,
};
use crate::error::StoreError;

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
pub(super) fn hash_at(st: &NodeState, index: u64) -> Option<u64> {
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

impl ReplicaNode {
    /// Appends `entry` to this node's log: applies its op to the local
    /// region, then advances the chained hash, the head and the retained
    /// tail. Every append goes through here: the leader's write, a
    /// follower's replicated entries, and repair. An entry that does not
    /// continue the log, or whose op the region rejects, leaves the log
    /// as it was.
    ///
    /// # Errors
    ///
    /// [`StoreError::Codec`] when `entry.index` is not `last_index + 1`;
    /// otherwise whatever the region's backend fails with.
    pub(super) fn append_entry(
        &self,
        st: &mut NodeState,
        entry: &LogEntry,
    ) -> Result<(), StoreError> {
        if entry.index != st.last_index + 1 {
            return Err(StoreError::Codec(format!(
                "log entry {} does not follow index {}",
                entry.index, st.last_index
            )));
        }
        let backend = self.region(&entry.region);
        match &entry.op {
            RegionOp::Append(b) => backend.append(b)?,
            RegionOp::Replace(b) => backend.replace(b)?,
        }
        let h = chain(st.log_hash, entry);
        st.log_hash = h;
        st.last_index = entry.index;
        st.last_term = entry.term;
        push_tail(st, entry.clone(), h, self.config.retain_entries);
        Ok(())
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
        let mut round = self.write.lock();
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
                self.stats.not_leader.inc();
                return Err(StoreError::NotLeader {
                    hint: st.leader_hint.clone(),
                });
            }
            // Fencing: a leader whose quorum lease lapsed must not ack
            // writes it may no longer be able to commit — during an
            // asymmetric partition the rest of the cluster can have
            // elected a successor it cannot hear.
            if fenced_now(&st, &self.config, st.clock_ms) {
                self.stats.fenced_rejects.inc();
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
            self.append_entry(&mut st, &entry)?;
            (st.term, prev_index, prev_hash, entry)
        };
        self.persist_meta()?;

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
        self.sync_set(&mut round, prev_index + 1);
        for peers in [&round.sync_set, &round.others] {
            if acks >= needed || peers.is_empty() {
                continue;
            }
            let replies = self.transport.call_all(peers, &msg);
            let Some(tally) = self.tally(term, peers, replies) else {
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
            self.stats.committed.inc();
            if let Some((child, _)) = &append_scope {
                let now = self.state.lock().clock_ms;
                sink.emit(*child, &self.config.id, "civ.commit", now, now);
            }
            Ok(())
        } else {
            self.stats.no_quorum.inc();
            Err(StoreError::NoQuorum {
                needed,
                acked: acks,
            })
        }
    }

    /// Splits the peers for a round carrying entry `index` into `round`'s
    /// sync set and the rest, each in config order. The sync set is the
    /// quorum−1 peers with the highest known heads (ties in config
    /// order), plus every peer whose head is unknown or trails `index`
    /// by a whole repair batch: its pull of the gap, `index` included,
    /// is then exactly one [`PeerReply::RepairChunk`]. The batch is
    /// capped at the retained tail's length, so a peer left out can
    /// always heal by entry repair.
    fn sync_set(&self, round: &mut RoundPeers, index: u64) {
        let st = self.state.lock();
        let batch = REPAIR_BATCH.min(self.config.retain_entries.max(1)) as u64;
        let heads = &st.peer_heads;
        let key = |i: usize| (Reverse(heads[i]), i);
        // A peer's place in the ranking, counted rather than sorted.
        let rank = |i: usize| (0..heads.len()).filter(|&j| key(j) < key(i)).count();
        let in_sync = |i: usize| {
            rank(i) < self.quorum() - 1 || heads[i].is_none_or(|h| index.saturating_sub(h) >= batch)
        };
        let split = |wanted: bool| {
            let peers = self.config.peers.iter().enumerate();
            peers
                .filter(move |&(i, _)| in_sync(i) == wanted)
                .map(|(_, peer)| peer)
        };
        assign(&mut round.sync_set, split(true));
        assign(&mut round.others, split(false));
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
            if let Some(slot) = self.config.peers.iter().position(|p| p == peer) {
                self.state.lock().peer_heads[slot] = head;
            }
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

    /// Follower side of [`PeerRequest::Replicate`]: append the leader's
    /// entries on a matching head, or nack with this node's head.
    pub(super) fn on_replicate(&self, req: &PeerRequest, now_ms: u64) -> PeerReply {
        let PeerRequest::Replicate {
            term,
            leader,
            leader_hint,
            prev_index,
            prev_hash,
            entries,
        } = req
        else {
            unreachable!("`handle` dispatches by variant");
        };
        let behind = {
            let mut st = self.state.lock();
            if !self.accept_leader(&mut st, *term, leader, leader_hint, now_ms) {
                return PeerReply::ReplicateAck {
                    term: st.term,
                    last_index: st.last_index,
                    log_hash: st.log_hash,
                    ok: false,
                };
            }
            *prev_index > st.last_index
        };
        let _ = self.persist_meta();
        if behind {
            // Behind the leader's frame: pull the missing
            // suffix from its retained tail before deciding to
            // nack. On success the head check below passes and
            // this round's entries append cleanly.
            self.pull_repair(leader, *term);
        }
        let mut st = self.state.lock();
        let at_head = *prev_index == st.last_index && *prev_hash == st.log_hash;
        let ok = if at_head {
            entries
                .iter()
                .all(|entry| self.append_entry(&mut st, entry).is_ok())
        } else {
            // Not at the frame's head. A log that already holds the
            // round (the repair pull above also fetched the in-flight
            // entry) acks it. Otherwise we diverged, repair was refused,
            // or the link dropped mid-pull: the leader reads our head off
            // this nack to classify lag vs divergence.
            holds_round(&st, *prev_index, *prev_hash, entries)
        };
        let (term, last_index, log_hash) = (st.term, st.last_index, st.log_hash);
        let ack_now = st.clock_ms;
        drop(st);
        let persisted = self.persist_meta().is_ok();
        if at_head && ok && !entries.is_empty() {
            // Follower hop of a traced append: under an in-process
            // transport the leader's ambient scope is still live on this
            // thread.
            let sink = self.obs_sink.lock().clone();
            if sink.is_recording() {
                if let Some(trace) = oasis_obs::current() {
                    sink.emit(trace, &self.config.id, "civ.follower_ack", ack_now, ack_now);
                }
            }
        }
        PeerReply::ReplicateAck {
            term,
            last_index,
            log_hash,
            ok: ok && persisted,
        }
    }

    /// One heartbeat fan-out round (leader only). Lagging followers
    /// pull entry repair off the heartbeat's nack; diverged or
    /// compacted-past followers get a chunked state transfer.
    pub(super) fn heartbeat_round(&self, now_ms: u64) {
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
        self.stats.heartbeats_sent.inc();
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
}

/// Makes `names` hold `wanted`, cloning the names only when it differs.
fn assign<'a>(names: &mut Vec<String>, wanted: impl Iterator<Item = &'a String> + Clone) {
    if !names.iter().eq(wanted.clone()) {
        names.clear();
        names.extend(wanted.cloned());
    }
}
