//! Leader election: votes, pre-votes, and the timers that start them.

use super::{fenced_now, PeerReply, PeerRequest, ReplicaNode, Role};

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

impl ReplicaNode {
    /// Voter side of [`PeerRequest::LeaderClaim`].
    pub(super) fn on_leader_claim(&self, req: &PeerRequest, now_ms: u64) -> PeerReply {
        let PeerRequest::LeaderClaim {
            term,
            candidate,
            candidate_hint,
            last_index,
            last_term,
        } = req
        else {
            unreachable!("`handle` dispatches by variant");
        };
        let mut st = self.state.lock();
        st.clock_ms = st.clock_ms.max(now_ms);
        if *term < st.term {
            return PeerReply::Vote {
                term: st.term,
                granted: false,
            };
        }
        if *term > st.term {
            self.follow(&mut st, *term);
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
        let term = st.term;
        drop(st);
        // A vote the meta region did not take is refused: after a
        // restart this node could grant the term again.
        let persisted = self.persist_meta().is_ok();
        PeerReply::Vote {
            term,
            granted: granted && persisted,
        }
    }

    /// Voter side of [`PeerRequest::PreVote`].
    pub(super) fn on_pre_vote(&self, req: &PeerRequest, now_ms: u64) -> PeerReply {
        let PeerRequest::PreVote {
            term,
            candidate: _,
            last_index,
            last_term,
        } = req
        else {
            unreachable!("`handle` dispatches by variant");
        };
        // A pre-vote is a read-only poll: "would you vote for
        // me at `term`?" Nothing is recorded and no term moves,
        // so a partitioned node probing forever cannot disturb
        // the cluster.
        let mut st = self.state.lock();
        st.clock_ms = st.clock_ms.max(now_ms);
        let up_to_date = (*last_term, *last_index) >= (st.last_term, st.last_index);
        let leader_live = st.leader_id.is_some()
            && now_ms.saturating_sub(st.last_heartbeat_ms) < self.config.election_timeout_ms;
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

    /// Starts an election for the next term. Returns true when this
    /// node won and is now leader.
    ///
    /// With [`ReplicaConfig::pre_vote`] enabled (the default) the node
    /// first polls a quorum with a non-term-incrementing pre-vote and
    /// stands only when a majority would grant — so an isolated or
    /// flapping node never inflates its term and cannot depose a
    /// stable leader on rejoin.
    ///
    /// [`ReplicaConfig::pre_vote`]: super::ReplicaConfig::pre_vote
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
        self.stats.elections_started.inc();
        // The claim carries this node's own vote: it leaves only once the
        // vote is on disk.
        if self.persist_meta().is_err() {
            return false;
        }
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
            st.peer_heads.fill(None);
        }
        self.stats.elections_won.inc();
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
        self.stats.pre_votes_started.inc();
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
                    self.stats.pre_votes_blocked.inc();
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
        self.stats.pre_votes_blocked.inc();
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
                    self.stats.fencings.inc();
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
