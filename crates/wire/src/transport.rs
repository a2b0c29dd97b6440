//! Replication over TCP, and a leader-following client.
//!
//! Two adapters that connect the transport-agnostic replication core in
//! `oasis-store` to real sockets:
//!
//! * [`WireTransport`] — the cluster-internal side: implements
//!   [`ReplicationTransport`] by dialling each peer's `WireServer` and
//!   exchanging [`Request::Peer`](crate::proto::Request::Peer) and
//!   [`Response::PeerAck`] frames. Give one to
//!   [`ReplicaNode::new`](oasis_store::ReplicaNode::new) and the
//!   quorum-replicated journal works across processes and hosts.
//! * [`FailoverClient`] — the client side: runs any [`WireClient`] call
//!   (`client.call(|c| c.ping())`) on the current leader of a list of
//!   candidate replica addresses, following [`Response::NotLeader`]
//!   hints and retrying through elections under one capped-backoff
//!   [`RetryPolicy`](oasis_core::retry::RetryPolicy) per call, so a
//!   caller sees one logical service instead of N nodes.

use std::collections::HashMap;
use std::net::{SocketAddr, ToSocketAddrs};
use std::time::Duration;

use parking_lot::Mutex;

use oasis_core::retry::{Backoff, RetryPolicy};
use oasis_store::{PeerReply, PeerRequest, ReplicationTransport, StoreError};

use crate::client::{WireClient, DEFAULT_TIMEOUT};
use crate::error::WireError;
use crate::frame::encode_frame;
use crate::proto::{PeerFrame, Response};

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
}

impl std::fmt::Debug for WireTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WireTransport")
            .field("peers", &self.peers)
            .finish()
    }
}

/// The socket deadline of a peer connection: replication rounds run on
/// the leader's heartbeat cadence, so a slow peer must cost bounded time,
/// not the default five-second stall per round.
const PEER_TIMEOUT: Duration = Duration::from_secs(1);

impl WireTransport {
    /// Builds a transport over a `node id -> address` directory, with a
    /// one-second socket deadline on every peer connection.
    pub fn new(peers: impl IntoIterator<Item = (String, SocketAddr)>) -> Self {
        Self {
            peers: peers.into_iter().collect(),
            connections: Mutex::new(HashMap::new()),
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
                WireClient::connect_with(addr, PEER_TIMEOUT).map_err(|e| peer_error(peer, &e))?
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
/// Holds the candidate addresses of every replica. Each
/// [`call`](FailoverClient::call) dials (or reuses) a connection and
/// runs a [`WireClient`] call on it. The first hinted
/// [`WireError::NotLeader`] answer of a call re-dials the hinted leader
/// immediately; every further hint, an unhinted answer (mid-election)
/// and a transport error (dead node) each wait a backoff delay first,
/// the last two rotating to the next candidate. The configured
/// [`RetryPolicy`] bounds the whole chase — whether the cluster has no
/// quorum or its nodes' hints lead in a circle, the caller gets the last
/// error instead of an infinite loop. This is the one retry owner for a
/// cluster's clients: the [`WireClient`] underneath makes one attempt
/// per call.
pub struct FailoverClient {
    candidates: Vec<String>,
    /// Index into `candidates` to try next when no hint is available.
    cursor: usize,
    conn: Option<WireClient>,
    timeout: Duration,
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
    /// with the default socket deadline (5 s) and the default retry
    /// schedule.
    pub fn new(candidates: impl IntoIterator<Item = impl Into<String>>) -> Self {
        Self {
            candidates: candidates.into_iter().map(Into::into).collect(),
            cursor: 0,
            conn: None,
            timeout: DEFAULT_TIMEOUT,
            retry: RetryPolicy::default(),
            stats: FailoverStats::default(),
        }
    }

    /// A snapshot of the chase counters.
    pub fn stats(&self) -> FailoverStats {
        self.stats
    }

    /// Replaces the socket deadline of the connections it dials.
    #[must_use]
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
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
        self.conn = Some(WireClient::connect_with(addr, self.timeout)?);
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

    /// Runs `op` on the current leader's connection, chasing
    /// `NotLeader` hints and rotating candidates under the retry
    /// schedule. `op` is any [`WireClient`] call —
    /// `client.call(|c| c.revoke(cert_id, "logout", now))`, or
    /// `client.call(|c| c.call(&request))` for a raw request — and runs
    /// once per attempt, so it must be safe to repeat after a failure.
    ///
    /// # Errors
    ///
    /// The final error once the schedule is exhausted: transport errors,
    /// or [`WireError::NotLeader`] when no leader emerged in time. An
    /// authoritative server answer ([`WireError::Remote`],
    /// [`WireError::Overloaded`], [`WireError::DeadlineExceeded`],
    /// [`WireError::UnexpectedResponse`]) is returned at once, never
    /// retried.
    pub fn call<T>(
        &mut self,
        mut op: impl FnMut(&mut WireClient) -> Result<T, WireError>,
    ) -> Result<T, WireError> {
        assert!(
            !self.candidates.is_empty(),
            "FailoverClient needs at least one candidate address"
        );
        let mut backoff = Backoff::with_seed(self.retry, self.jitter_seed());
        let mut hint_is_free = true;
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
            match op(conn) {
                Ok(value) => return Ok(value),
                Err(WireError::NotLeader { hint }) => {
                    // The follower is alive; only the *role* is wrong.
                    self.stats.not_leader_answers += 1;
                    self.conn = None;
                    if let Some(leader) = hint {
                        // The chase's first hint is followed at once: it
                        // names the leader. Every further one waits its
                        // turn on the schedule like a rotation, so nodes
                        // that name each other (or themselves) cannot
                        // keep the client dialling.
                        if !std::mem::take(&mut hint_is_free) && !Self::wait_for_retry(&mut backoff)
                        {
                            return Err(WireError::NotLeader { hint: Some(leader) });
                        }
                        // An unreachable hinted leader falls through to
                        // the normal rotation below.
                        if self.dial(&leader).is_ok() {
                            self.stats.hint_follows += 1;
                            continue;
                        }
                    }
                    // Without a usable hint the election is still
                    // settling: wait before probing the next candidate.
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
}

/// Resolves a `host:port` hint string to a socket address.
pub(crate) fn resolve_hint(hint: &str) -> Option<SocketAddr> {
    hint.to_socket_addrs().ok()?.next()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{read_frame, write_frame};
    use crate::proto::Envelope;
    use std::net::TcpListener;
    use std::time::Instant;

    /// Three attempts with millisecond delays: a chase that honours it
    /// ends in a few milliseconds.
    fn three_attempts() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 3,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(2),
            total_delay_cap: Duration::from_millis(20),
            jitter: 0.25,
        }
    }

    /// A permanently partitioned leader looks like candidates that
    /// never answer. The hint chase must terminate with a bounded
    /// error — max_attempts dial failures, each backoff-delayed — and
    /// not spin.
    #[test]
    fn hint_chase_terminates_when_leader_is_unreachable() {
        // Reserved port that nothing listens on: dials fail fast.
        let (_, dead) = listener();
        let mut client = FailoverClient::new([dead.clone(), dead])
            .with_timeout(Duration::from_millis(50))
            .with_retry(three_attempts());
        let started = Instant::now();
        let err = client
            .call(|c| c.ping())
            .expect_err("no leader can ever answer");
        assert!(
            matches!(err, WireError::Io(_) | WireError::TimedOut { .. }),
            "bounded transport error, got {err:?}"
        );
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "chase must terminate promptly, took {:?}",
            started.elapsed()
        );
        // max_attempts dials happened (one per schedule slot, then the
        // schedule ran dry) — no unbounded spin.
        assert_eq!(client.stats().dials, 3);
    }

    /// A fake replica that answers every request with `NotLeader` naming
    /// `hint`, serving one connection at a time on one thread; dropping
    /// it stops the thread.
    struct NotLeaderNode {
        addr: String,
        thread: Option<std::thread::JoinHandle<()>>,
    }

    impl NotLeaderNode {
        fn spawn(listener: TcpListener, hint: &str) -> Self {
            let addr = listener.local_addr().expect("addr").to_string();
            let answer = Response::NotLeader {
                hint: Some(hint.to_string()),
            };
            let thread = std::thread::spawn(move || {
                for mut stream in listener.incoming().flatten() {
                    stream.set_read_timeout(Some(Duration::from_secs(1))).ok();
                    let mut served = false;
                    while let Ok(Some(_)) = read_frame::<_, Envelope>(&mut stream) {
                        served = true;
                        if write_frame(&mut stream, &answer).is_err() {
                            break;
                        }
                    }
                    // A client always sends once it has dialled; a
                    // connection that hangs up without a request is the
                    // stop signal from `drop`.
                    if !served {
                        break;
                    }
                }
            });
            Self {
                addr,
                thread: Some(thread),
            }
        }
    }

    impl Drop for NotLeaderNode {
        fn drop(&mut self) {
            drop(std::net::TcpStream::connect(&self.addr));
            if let Some(thread) = self.thread.take() {
                let _ = thread.join();
            }
        }
    }

    fn listener() -> (TcpListener, String) {
        let l = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = l.local_addr().expect("addr").to_string();
        (l, addr)
    }

    /// Nodes that name each other, or a node that names itself, would
    /// keep a chase that follows every hint at once dialling forever.
    /// Only the first hint is free; `max_attempts` bounds the rest.
    #[test]
    fn hint_chase_is_bounded_by_the_retry_policy() {
        let ((a, a_addr), (b, b_addr), (c, c_addr)) = (listener(), listener(), listener());
        let _nodes = [
            NotLeaderNode::spawn(a, &b_addr),
            NotLeaderNode::spawn(b, &a_addr),
            NotLeaderNode::spawn(c, &c_addr),
        ];
        for (case, candidates) in [
            ("two nodes naming each other", vec![a_addr, b_addr]),
            ("a node naming itself", vec![c_addr]),
        ] {
            let (tx, rx) = std::sync::mpsc::channel();
            let chaser = std::thread::spawn(move || {
                let mut client = FailoverClient::new(candidates).with_retry(three_attempts());
                let result = client.call(|c| c.ping());
                let _ = tx.send((result, client.stats()));
            });
            let (result, stats) = rx
                .recv_timeout(Duration::from_secs(5))
                .unwrap_or_else(|_| panic!("{case}: no return within the 5 s watchdog"));
            chaser.join().expect("the chase thread finishes cleanly");
            assert!(
                matches!(result, Err(WireError::NotLeader { .. })),
                "{case}: {result:?}"
            );
            assert!(stats.hint_follows <= 3, "{case}: {stats:?}");
        }
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
