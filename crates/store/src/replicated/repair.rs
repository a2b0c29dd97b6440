//! Entry-level repair: a lagging follower pulls the missing suffix from
//! the leader's retained tail.

use super::log::hash_at;
use super::{
    fenced_now, LogEntry, PeerReply, PeerRequest, RegionOp, ReplicaNode, Role, REPAIR_BATCH,
};

impl ReplicaNode {
    /// Leader side of [`PeerRequest::Repair`]: serve a batch from the
    /// retained tail.
    pub(super) fn on_repair(&self, req: &PeerRequest, now_ms: u64) -> PeerReply {
        let PeerRequest::Repair {
            term,
            follower: _,
            from_index,
            from_hash,
        } = req
        else {
            unreachable!("`handle` dispatches by variant");
        };
        let mut st = self.state.lock();
        st.clock_ms = st.clock_ms.max(now_ms);
        let behind = *term > st.term;
        if behind {
            self.follow(&mut st, *term);
            st.leader_id = None;
        }
        let refuse = PeerReply::RepairChunk {
            term: st.term,
            ok: false,
            entries: Vec::new(),
            last_index: st.last_index,
        };
        if behind {
            drop(st);
            let _ = self.persist_meta();
            return refuse;
        }
        // Serve only as the current-term, unfenced leader — a
        // stale or fenced leader replaying its tail could feed
        // a follower entries the real cluster has moved past.
        if st.role != Role::Leader || *term != st.term || fenced_now(&st, &self.config, now_ms) {
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
        self.stats.repair_chunks_served.inc();
        self.stats.repair_bytes_served.add(bytes);
        PeerReply::RepairChunk {
            term: st.term,
            ok: true,
            entries,
            last_index: st.last_index,
        }
    }

    /// Follower-side entry repair: pull the missing log suffix from
    /// `leader`'s retained tail in bounded batches until caught up or
    /// the link fails. Called with no locks held.
    pub(super) fn pull_repair(&self, leader: &str, term: u64) {
        self.stats.repairs_pulled.inc();
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
                            if self.append_entry(&mut st, entry).is_err() {
                                break;
                            }
                            applied += 1;
                        }
                    }
                    self.stats.repair_entries_applied.add(applied);
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
        let _ = self.persist_meta();
    }
}
