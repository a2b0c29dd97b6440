//! Replication over TCP, and a leader-following client.
//!
//! Two adapters that connect the transport-agnostic replication core in
//! `oasis-store` to real sockets:
//!
//! * [`WireTransport`] — the cluster-internal side: implements
//!   [`ReplicationTransport`] by dialling each peer's `WireServer` and
//!   exchanging [`Request::Peer`]/[`Response::PeerAck`] frames. Give one
//!   to [`ReplicaNode::new`](oasis_store::ReplicaNode::new) and the
//!   quorum-replicated journal works across processes and hosts.
//! * [`FailoverClient`] — the client side: wraps a [`WireClient`] over a
//!   list of candidate replica addresses, follows
//!   [`Response::NotLeader`] hints to the current leader, and retries
//!   through elections under a capped-backoff
//!   [`RetryPolicy`](oasis_core::retry::RetryPolicy), so a caller sees
//!   one logical service instead of N nodes.

use std::collections::HashMap;
use std::net::{SocketAddr, ToSocketAddrs};

use parking_lot::Mutex;

use oasis_core::cert::Rmc;
use oasis_core::durable::CatchUpReport;
use oasis_core::retry::{Backoff, RetryPolicy};
use oasis_core::{CertEvent, Credential, OasisService, PrincipalId, Value};
use oasis_events::DeliveredEvent;
use oasis_store::{PeerReply, PeerRequest, ReplicationTransport, StoreError};

use crate::client::{WireClient, WireTimeouts};
use crate::error::WireError;
use crate::frame::encode_frame;
use crate::proto::{PeerFrame, Request, Response};

/// [`ReplicationTransport`] over TCP: resolves peer node ids to
/// addresses through a static directory and keeps one cached
/// [`WireClient`] per peer.
///
/// A fan-out round ([`ReplicationTransport::call_all`]) is pipelined:
/// the [`Request::Peer`](crate::proto::Request::Peer) frame is encoded
/// once and written to every peer before the first reply is read, so a
/// round costs the slowest peer's round trip rather than the sum. A
/// single [`ReplicationTransport::call`] is a round of one.
///
/// A transport error drops the cached connection (the peer may be
/// restarting) and surfaces as [`StoreError::Io`]; the replication core
/// treats the peer as unreachable for that round and the next round
/// re-dials. No retries happen here — the replication protocol already
/// tolerates lost rounds, and blocking a heartbeat fan-out on backoff
/// would slow every peer behind the broken one.
pub struct WireTransport {
    peers: HashMap<String, SocketAddr>,
    /// Idle connections. A round checks its peers' connections out and
    /// returns the ones that still work, so this lock is never held
    /// across socket I/O or a dial.
    connections: Mutex<HashMap<String, WireClient>>,
    timeouts: WireTimeouts,
}

impl std::fmt::Debug for WireTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WireTransport")
            .field("peers", &self.peers)
            .finish()
    }
}

impl WireTransport {
    /// Builds a transport over a `node id -> address` directory, using
    /// short per-operation deadlines (one second): replication rounds
    /// run on the leader's heartbeat cadence, so a slow peer must cost
    /// bounded time, not a default five-second stall per round.
    pub fn new(peers: impl IntoIterator<Item = (String, SocketAddr)>) -> Self {
        Self::with_timeouts(peers, WireTimeouts::all(std::time::Duration::from_secs(1)))
    }

    /// As [`WireTransport::new`] with explicit socket deadlines.
    pub fn with_timeouts(
        peers: impl IntoIterator<Item = (String, SocketAddr)>,
        timeouts: WireTimeouts,
    ) -> Self {
        Self {
            peers: peers.into_iter().collect(),
            connections: Mutex::new(HashMap::new()),
            timeouts,
        }
    }

    /// Writes `frame` to `peer`, on `cached` when the round found an
    /// idle connection and on a fresh dial otherwise.
    fn send(
        &self,
        peer: &str,
        cached: Option<WireClient>,
        frame: &[u8],
    ) -> Result<WireClient, StoreError> {
        let mut client = match cached {
            Some(client) => client,
            None => {
                let addr = self
                    .peers
                    .get(peer)
                    .ok_or_else(|| StoreError::Io(format!("unknown peer `{peer}`")))?;
                WireClient::connect_with(addr, self.timeouts).map_err(|e| peer_error(peer, &e))?
            }
        };
        client.send_frame(frame).map_err(|e| peer_error(peer, &e))?;
        Ok(client)
    }
}

fn peer_error(peer: &str, e: &WireError) -> StoreError {
    StoreError::Io(format!("peer `{peer}`: {e}"))
}

impl ReplicationTransport for WireTransport {
    fn call(&self, peer: &str, req: &PeerRequest) -> Result<PeerReply, StoreError> {
        self.call_all(&[peer.to_string()], req)
            .pop()
            .expect("one reply per peer")
    }

    fn call_all(&self, peers: &[String], req: &PeerRequest) -> Vec<Result<PeerReply, StoreError>> {
        let frame = match encode_frame(&PeerFrame(req)) {
            Ok(frame) => frame,
            Err(e) => return peers.iter().map(|peer| Err(peer_error(peer, &e))).collect(),
        };
        let cached: Vec<Option<WireClient>> = {
            let mut idle = self.connections.lock();
            peers.iter().map(|peer| idle.remove(peer)).collect()
        };
        // Connected peers first: a peer that must be dialled may be dead,
        // and its dial may take the whole connect deadline — the live
        // peers' frames are on the wire before that wait starts.
        let mut sent: Vec<Option<Result<WireClient, StoreError>>> = cached
            .into_iter()
            .zip(peers)
            .map(|(cached, peer)| cached.map(|client| self.send(peer, Some(client), &frame)))
            .collect();
        for (slot, peer) in sent.iter_mut().zip(peers) {
            slot.get_or_insert_with(|| self.send(peer, None, &frame));
        }
        // Whatever went wrong with a peer, its stream is suspect: only a
        // connection that answered goes back to the cache.
        sent.into_iter()
            .zip(peers)
            .map(|(link, peer)| {
                let mut client = link.expect("every peer was sent to")?;
                match client.recv() {
                    Ok(Response::PeerAck { reply }) => {
                        self.connections.lock().insert(peer.clone(), client);
                        Ok(reply)
                    }
                    Ok(other) => Err(peer_error(
                        peer,
                        &WireError::UnexpectedResponse(format!("{other:?}")),
                    )),
                    Err(e) => Err(peer_error(peer, &e)),
                }
            })
            .collect()
    }
}

/// A client over a replicated CIV cluster that always talks to the
/// leader.
///
/// Holds the candidate addresses of every replica. Each call dials (or
/// reuses) a connection; a [`WireError::NotLeader`] answer re-dials the
/// hinted leader address immediately, an unhinted one (mid-election)
/// rotates to the next candidate after a backoff delay, and transport
/// errors (dead node) likewise rotate. The whole chase is bounded by the
/// configured [`RetryPolicy`] — when the cluster genuinely has no
/// quorum, the caller gets the last error instead of an infinite loop.
/// This is the one retry owner for a cluster's clients: the
/// [`WireClient`] underneath makes one attempt per call.
pub struct FailoverClient {
    candidates: Vec<String>,
    /// Index into `candidates` to try next when no hint is available.
    cursor: usize,
    conn: Option<WireClient>,
    timeouts: WireTimeouts,
    retry: RetryPolicy,
    stats: FailoverStats,
}

/// Counters from a [`FailoverClient`]'s leader chase — the wire-side
/// trace hook: how many dials, hint follows, and candidate rotations a
/// scenario's failovers actually cost the client.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FailoverStats {
    /// Connection attempts (initial dials, re-dials, hint dials).
    pub dials: u64,
    /// `NotLeader` answers received from followers.
    pub not_leader_answers: u64,
    /// `NotLeader` hints successfully followed to a new leader.
    pub hint_follows: u64,
    /// Blind rotations to the next candidate (no usable hint).
    pub rotations: u64,
}

impl FailoverStats {
    /// Compact single-line JSON for chaos/conformance traces, keys
    /// sorted (shared `oasis-obs` encoder).
    pub fn trace_json(&self) -> String {
        oasis_obs::kv_json(&[
            ("dials", self.dials.into()),
            ("hint_follows", self.hint_follows.into()),
            ("not_leader_answers", self.not_leader_answers.into()),
            ("rotations", self.rotations.into()),
        ])
    }
}

impl std::fmt::Debug for FailoverClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FailoverClient")
            .field("candidates", &self.candidates)
            .field("connected", &self.conn.is_some())
            .finish()
    }
}

impl FailoverClient {
    /// A client over `candidates` (replica client addresses, any order)
    /// with default timeouts and the default retry schedule.
    pub fn new(candidates: impl IntoIterator<Item = impl Into<String>>) -> Self {
        Self {
            candidates: candidates.into_iter().map(Into::into).collect(),
            cursor: 0,
            conn: None,
            timeouts: WireTimeouts::default(),
            retry: RetryPolicy::default(),
            stats: FailoverStats::default(),
        }
    }

    /// A snapshot of the chase counters.
    pub fn stats(&self) -> FailoverStats {
        self.stats
    }

    /// Replaces the socket deadlines used when dialling.
    #[must_use]
    pub fn with_timeouts(mut self, timeouts: WireTimeouts) -> Self {
        self.timeouts = timeouts;
        self
    }

    /// Replaces the retry schedule bounding each leader chase.
    #[must_use]
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// The seed of each chase's backoff jitter: an FNV-1a fold of the
    /// candidate list, so two clients pointed at the same cluster
    /// de-synchronise their chase delays while each client's own
    /// schedule stays reproducible.
    fn jitter_seed(&self) -> u64 {
        let mut h: u64 = 0xcbf29ce484222325;
        for c in &self.candidates {
            for b in c.as_bytes() {
                h ^= u64::from(*b);
                h = h.wrapping_mul(0x100000001b3);
            }
            h ^= 0xff;
            h = h.wrapping_mul(0x100000001b3);
        }
        h
    }

    /// Connects to `addr`, replacing any cached connection.
    fn dial(&mut self, addr: &str) -> Result<(), WireError> {
        self.stats.dials += 1;
        self.conn = Some(WireClient::connect_with(addr, self.timeouts)?);
        Ok(())
    }

    /// Sleeps the chase's next backoff delay; `false`, without sleeping,
    /// once the schedule is spent.
    fn wait_for_retry(backoff: &mut Backoff) -> bool {
        backoff.next_delay().map(std::thread::sleep).is_some()
    }

    /// The next candidate address in rotation.
    fn next_candidate(&mut self) -> String {
        self.stats.rotations += 1;
        let addr = self.candidates[self.cursor % self.candidates.len()].clone();
        self.cursor = (self.cursor + 1) % self.candidates.len();
        addr
    }

    /// One request against the current leader, chasing `NotLeader` hints
    /// and rotating candidates under the retry schedule.
    ///
    /// # Errors
    ///
    /// The final error once the schedule is exhausted: transport errors,
    /// [`WireError::NotLeader`] when no leader emerged in time, or any
    /// authoritative server answer ([`WireError::Remote`],
    /// [`WireError::Overloaded`], [`WireError::DeadlineExceeded`]) which
    /// is returned immediately without retrying.
    pub fn call(&mut self, request: &Request) -> Result<Response, WireError> {
        assert!(
            !self.candidates.is_empty(),
            "FailoverClient needs at least one candidate address"
        );
        let mut backoff = Backoff::with_seed(self.retry, self.jitter_seed());
        loop {
            // Ensure a connection, rotating candidates on dial failure.
            if self.conn.is_none() {
                let addr = self.next_candidate();
                if let Err(dial_err) = self.dial(&addr) {
                    if Self::wait_for_retry(&mut backoff) {
                        continue;
                    }
                    return Err(dial_err);
                }
            }
            let conn = self.conn.as_mut().expect("connection established above");
            match conn.call(request) {
                Ok(response) => return Ok(response),
                Err(WireError::NotLeader { hint }) => {
                    // The follower is alive; only the *role* is wrong.
                    // A hint is followed for free (no backoff charge —
                    // it names the leader); without one the election is
                    // still settling, so wait before probing the next
                    // candidate.
                    self.stats.not_leader_answers += 1;
                    self.conn = None;
                    // Hinted leader unreachable falls through to the
                    // normal rotation below.
                    if hint.is_some_and(|leader| self.dial(&leader).is_ok()) {
                        self.stats.hint_follows += 1;
                        continue;
                    }
                    if !Self::wait_for_retry(&mut backoff) {
                        return Err(WireError::NotLeader { hint: None });
                    }
                }
                // Authoritative answers: the server executed (or
                // deliberately refused) the request. Never retried here.
                Err(
                    e @ (WireError::Remote(_)
                    | WireError::Overloaded { .. }
                    | WireError::DeadlineExceeded
                    | WireError::UnexpectedResponse(_)),
                ) => return Err(e),
                Err(transport) => {
                    // Dead or partitioned node: drop it, rotate.
                    self.conn = None;
                    if !Self::wait_for_retry(&mut backoff) {
                        return Err(transport);
                    }
                }
            }
        }
    }

    /// Liveness check against whichever node answers.
    ///
    /// # Errors
    ///
    /// As [`FailoverClient::call`].
    pub fn ping(&mut self) -> Result<(), WireError> {
        match self.call(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(WireError::UnexpectedResponse(format!("{other:?}"))),
        }
    }

    /// Activates a role at the cluster leader.
    ///
    /// # Errors
    ///
    /// As [`FailoverClient::call`].
    pub fn activate(
        &mut self,
        principal: &PrincipalId,
        role: &str,
        args: Vec<Value>,
        credentials: Vec<Credential>,
        now: u64,
    ) -> Result<Rmc, WireError> {
        let request = Request::Activate {
            principal: principal.clone(),
            role: role.to_string(),
            args,
            credentials,
            now,
        };
        match self.call(&request)? {
            Response::Activated { rmc } => Ok(*rmc),
            other => Err(WireError::UnexpectedResponse(format!("{other:?}"))),
        }
    }

    /// Revokes a certificate at the cluster leader.
    ///
    /// # Errors
    ///
    /// As [`FailoverClient::call`].
    pub fn revoke(&mut self, cert_id: u64, reason: &str, now: u64) -> Result<bool, WireError> {
        let request = Request::Revoke {
            cert_id,
            reason: reason.to_string(),
            now,
        };
        match self.call(&request)? {
            Response::Revoked { was_active } => Ok(was_active),
            other => Err(WireError::UnexpectedResponse(format!("{other:?}"))),
        }
    }

    /// Replays the leader's retained revocation ring after a watermark.
    ///
    /// # Errors
    ///
    /// As [`FailoverClient::call`].
    pub fn resync(
        &mut self,
        topic: &str,
        after_topic_seq: u64,
    ) -> Result<(Vec<DeliveredEvent<CertEvent>>, bool), WireError> {
        let request = Request::Resync {
            topic: topic.to_string(),
            after_topic_seq,
        };
        match self.call(&request)? {
            Response::Resynced { events, complete } => {
                Ok((events.into_iter().map(Into::into).collect(), complete))
            }
            other => Err(WireError::UnexpectedResponse(format!("{other:?}"))),
        }
    }

    /// One full catch-up cycle against the cluster: fetch the missed
    /// revocations after `service`'s watermark from whichever node leads
    /// and apply them (see [`WireClient::catch_up`]).
    ///
    /// # Errors
    ///
    /// As [`FailoverClient::call`].
    pub fn catch_up(
        &mut self,
        service: &OasisService,
        topic: &str,
        now: u64,
    ) -> Result<CatchUpReport, WireError> {
        let after = service.watermark_for(topic);
        let (events, complete) = self.resync(topic, after)?;
        Ok(service.catch_up_with(topic, &events, complete, now))
    }
}

/// Resolves a `host:port` hint string to a socket address.
pub(crate) fn resolve_hint(hint: &str) -> Option<SocketAddr> {
    hint.to_socket_addrs().ok()?.next()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    /// A permanently partitioned leader looks like candidates that
    /// never answer. The hint chase must terminate with a bounded
    /// error — max_attempts dial failures, each backoff-delayed — and
    /// not spin.
    #[test]
    fn hint_chase_terminates_when_leader_is_unreachable() {
        // Reserved port that nothing listens on: dials fail fast.
        let dead = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").expect("reserve");
            l.local_addr().expect("addr").to_string()
        };
        let policy = RetryPolicy {
            max_attempts: 3,
            base_delay: std::time::Duration::from_millis(1),
            max_delay: std::time::Duration::from_millis(2),
            total_delay_cap: std::time::Duration::from_millis(20),
            jitter: 0.25,
        };
        let mut client = FailoverClient::new([dead.clone(), dead])
            .with_timeouts(WireTimeouts {
                connect: Some(std::time::Duration::from_millis(50)),
                read: Some(std::time::Duration::from_millis(50)),
                write: Some(std::time::Duration::from_millis(50)),
            })
            .with_retry(policy);
        let started = Instant::now();
        let err = client.ping().expect_err("no leader can ever answer");
        assert!(
            matches!(err, WireError::Io(_) | WireError::TimedOut { .. }),
            "bounded transport error, got {err:?}"
        );
        assert!(
            started.elapsed() < std::time::Duration::from_secs(5),
            "chase must terminate promptly, took {:?}",
            started.elapsed()
        );
        // max_attempts dials happened (one per schedule slot, then the
        // schedule ran dry) — no unbounded spin.
        assert_eq!(client.stats().dials, 3);
    }

    /// The jitter seed is a pure function of the candidate list.
    #[test]
    fn jitter_seed_is_deterministic_per_candidate_list() {
        let a = FailoverClient::new(["10.0.0.1:1", "10.0.0.2:2"]);
        let b = FailoverClient::new(["10.0.0.1:1", "10.0.0.2:2"]);
        let c = FailoverClient::new(["10.0.0.2:2", "10.0.0.1:1"]);
        assert_eq!(a.jitter_seed(), b.jitter_seed());
        assert_ne!(a.jitter_seed(), c.jitter_seed(), "order-sensitive");
    }
}
