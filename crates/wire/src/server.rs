//! The server side: an [`OasisService`] behind a TCP listener, with
//! overload control.
//!
//! # Connections
//!
//! Connections are *multiplexed* across a fixed worker pool by kernel
//! readiness (no thread-per-connection: a connection flood cannot exhaust
//! threads). Every open connection is registered, one-shot, with one epoll
//! instance, and the workers themselves block in `epoll_wait` (the
//! connection table, `conns.rs`). The worker that wakes owns that
//! connection: it reads what has arrived (non-blocking, into the
//! connection's own buffer), serves the request if the frame is complete,
//! writes the answer and re-arms the descriptor — no dispatcher thread, no
//! hand-off. A parked connection costs a table slot and nothing else (no
//! thread, timer, buffer or periodic syscall), so a revocation arriving on
//! the Nth persistent connection is read as soon as a worker is free,
//! however many idle connections surround it. A peer that sends part of a
//! frame and stalls holds its buffer, not a worker, and is closed after
//! 5 s (`{id}.wire.stalled_closed`). When
//! [`OverloadConfig::accept_queue`] connections are already parked, new
//! ones are dropped at accept time and counted in
//! [`OverloadStats::conns_shed`](oasis_core::OverloadStats); connections
//! idle past [`OverloadConfig::idle_conn_ms`] are closed to reclaim their
//! slot (`conns_idle_closed`). Linux only (epoll).
//!
//! # Overload behaviour
//!
//! Every request passes the service's [`AdmissionController`]: it is
//! classified into a priority lane ([`Request::lane`]) —
//! revocation/resync/ping above validation above issuance — and either
//! granted an execution permit, queued in its lane's bounded queue, shed
//! with [`Response::Overloaded`] carrying a `retry_after_ms` hint, or
//! dropped with [`Response::DeadlineExceeded`] if its propagated deadline
//! passed first. A request is *never* executed after its deadline, and no
//! worker ever blocks on lane admission: the connection of a queued
//! request is parked unarmed, and its ticket is polled by every worker
//! that finishes a turn and, every 2 ms, by an idle one. A shed is always
//! `Overloaded`, whether or not the request carried a deadline: every
//! client parses it, and an application error ([`Response::Error`]) means
//! only that the service refused the request.
//!
//! Transient `accept()` failures (connection resets, fd exhaustion) are
//! retried with capped backoff and recorded through the audit hook
//! (`transport_fault` entries); only fatal listener errors stop the serve
//! loop.

use std::io::ErrorKind;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::Arc;
use std::thread::{Builder, Scope};
use std::time::{Duration, Instant};

use oasis_core::{
    AdmissionController, AuditKind, CertId, Deadline, EnvContext, OasisService, OverloadConfig,
    Permit, PollOutcome, RoleName, Submission,
};
use oasis_store::ReplicaNode;

use crate::conns::{Conn, ConnTable, PendingRequest};
use crate::error::WireError;
use crate::frame::encode_frame;
use crate::proto::{Envelope, Request, Response};

/// Bytes asked of the socket per `read`, into a buffer on each worker's
/// stack; a request is a few hundred.
const READ_CHUNK: usize = 4096;

/// Builds the evaluation context for a given client-supplied virtual
/// time. Servers install ambient values and custom predicates here.
pub type ContextFactory = Arc<dyn Fn(u64) -> EnvContext + Send + Sync>;

/// Hosts one OASIS service over TCP.
pub struct WireServer {
    service: Arc<OasisService>,
    listener: TcpListener,
    context: ContextFactory,
    controller: Arc<AdmissionController>,
    replica: Option<Arc<ReplicaNode>>,
}

impl std::fmt::Debug for WireServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WireServer")
            .field("service", self.service.id())
            .finish()
    }
}

impl WireServer {
    /// Binds to `addr` and prepares to serve `service` with a default
    /// context (no ambient values or predicates) and the default
    /// [`OverloadConfig`].
    ///
    /// # Errors
    ///
    /// [`WireError::Io`] if the address cannot be bound.
    pub fn bind(service: Arc<OasisService>, addr: &str) -> Result<Self, WireError> {
        Self::bind_with_context(service, addr, Arc::new(EnvContext::new))
    }

    /// As [`WireServer::bind`], with a custom [`ContextFactory`].
    ///
    /// # Errors
    ///
    /// [`WireError::Io`] if the address cannot be bound.
    pub fn bind_with_context(
        service: Arc<OasisService>,
        addr: &str,
        context: ContextFactory,
    ) -> Result<Self, WireError> {
        let listener = TcpListener::bind(addr)?;
        let controller = AdmissionController::new(OverloadConfig::default());
        service.set_overload(Arc::clone(&controller));
        Ok(Self {
            service,
            listener,
            context,
            controller,
            replica: None,
        })
    }

    /// Attaches a replicated-journal node, making this server one member
    /// of a CIV replica cluster:
    ///
    /// * [`Request::Peer`] frames (replication, election, sync) are
    ///   routed to the node, bypassing admission — shedding a heartbeat
    ///   under load would trigger a spurious election, exactly when the
    ///   cluster is least able to afford one;
    /// * every other request except `Ping` is refused with
    ///   [`Response::NotLeader`] (carrying the leader's client address
    ///   when known) unless this node currently leads — followers hold
    ///   replicas of the journal, not the live service state;
    /// * a background ticker drives heartbeats and election timeouts at
    ///   half the configured heartbeat interval.
    #[must_use]
    pub fn with_replica(mut self, node: Arc<ReplicaNode>) -> Self {
        self.replica = Some(node);
        self
    }

    /// Replaces the overload configuration (worker-pool size, accept
    /// queue bound, idle timeout, per-lane limits). The fresh controller is
    /// installed into the service so its stats stay reachable via
    /// [`OasisService::overload_stats`].
    #[must_use]
    pub fn with_overload(mut self, config: OverloadConfig) -> Self {
        self.controller = AdmissionController::new(config);
        self.service.set_overload(Arc::clone(&self.controller));
        self
    }

    /// The admission controller guarding this server. Grab a clone before
    /// [`serve`](Self::serve) consumes the server if you need live stats.
    pub fn controller(&self) -> Arc<AdmissionController> {
        Arc::clone(&self.controller)
    }

    /// The actual bound address (useful with port 0).
    ///
    /// # Errors
    ///
    /// [`WireError::Io`] if the socket refuses to report it.
    pub fn local_addr(&self) -> Result<std::net::SocketAddr, WireError> {
        Ok(self.listener.local_addr()?)
    }

    /// Accepts and serves connections until a fatal listener error, then
    /// stops its threads and returns. Connections are multiplexed across
    /// a fixed, named worker pool (`oasis-wire-worker-N`, plus
    /// `oasis-wire-ticker` on a replica); a protocol error terminates
    /// only its own connection. Transient `accept` failures are retried
    /// with capped backoff and audited; only fatal errors return.
    ///
    /// # Errors
    ///
    /// [`WireError::Io`] carrying the fatal `accept` error, or the failure
    /// to create the poller or a thread.
    pub fn serve(self) -> Result<(), WireError> {
        let recorder = self.service.obs_recorder();
        let id = self.service.id().as_str();
        let pool = Pool {
            table: ConnTable::new(&self.service, Arc::clone(&self.controller))?,
            requests: recorder.counter(&format!("{id}.wire.requests")),
            handle_us: recorder.histogram(&format!("{id}.wire.handle_us")),
            service: self.service,
            context: self.context,
            controller: self.controller,
            replica: self.replica,
            open: AtomicBool::new(true),
        };
        std::thread::scope(|scope| {
            let result = pool.run(scope, &self.listener);
            // Workers leave their wait one after another (each passes the
            // wake-up on); the scope joins them and the ticker.
            pool.open.store(false, SeqCst);
            pool.table.wake();
            result
        })
    }

    /// Spawns [`serve`](Self::serve) on a background thread and returns
    /// the bound address — the common pattern for tests and examples.
    ///
    /// # Errors
    ///
    /// [`WireError::Io`] if the socket refuses to report its address.
    pub fn serve_in_background(self) -> Result<std::net::SocketAddr, WireError> {
        let addr = self.local_addr()?;
        std::thread::spawn(move || {
            let _ = self.serve();
        });
        Ok(addr)
    }
}

/// Whether an `accept()` error is worth retrying. Resets of a pending
/// connection, interrupted syscalls, and resource exhaustion (fd or
/// buffer limits, which drain as connections close) are transient;
/// anything else (e.g. the listener socket itself is gone) is fatal.
fn transient_accept_error(e: &std::io::Error) -> bool {
    if matches!(
        e.kind(),
        ErrorKind::ConnectionAborted
            | ErrorKind::ConnectionReset
            | ErrorKind::Interrupted
            | ErrorKind::WouldBlock
            | ErrorKind::TimedOut
    ) {
        return true;
    }
    // Linux errnos not (portably) covered by ErrorKind: ENFILE (23),
    // EMFILE (24), ENOBUFS (105), ENOMEM (12) — load-induced, retryable.
    matches!(e.raw_os_error(), Some(12) | Some(23) | Some(24) | Some(105))
}

/// Everything the acceptor, the workers and the ticker share while
/// [`WireServer::serve`] runs.
struct Pool {
    service: Arc<OasisService>,
    context: ContextFactory,
    controller: Arc<AdmissionController>,
    replica: Option<Arc<ReplicaNode>>,
    table: ConnTable,
    // Wire-side instrumentation, resolved once from the service's recorder
    // (no-op handles when none is installed: an atomic no-op per event).
    // Wall-clock durations are recorded *only* in this crate — core and
    // store record virtual time, keeping conformance snapshots
    // deterministic. With the table's `conns_open`/`wakeups` and the lane
    // stats they tell a parked connection from a queued request from an
    // executing one.
    requests: oasis_obs::Counter,
    handle_us: oasis_obs::Histo,
    open: AtomicBool,
}

impl Pool {
    /// Starts the ticker and the workers, then accepts until a fatal error.
    fn run<'s>(
        &'s self,
        scope: &'s Scope<'s, '_>,
        listener: &TcpListener,
    ) -> Result<(), WireError> {
        if let Some(node) = &self.replica {
            // Heartbeats (as leader) and election timeouts (as follower)
            // both key off tick(); half the heartbeat interval keeps the
            // jitter of a sleeping thread well inside the election timeout.
            let pace = Duration::from_millis(node.config().heartbeat_ms.max(2) / 2);
            Builder::new()
                .name("oasis-wire-ticker".into())
                .spawn_scoped(scope, move || {
                    while self.open.load(SeqCst) {
                        node.tick(self.controller.now_ms());
                        std::thread::sleep(pace);
                    }
                })?;
        }
        for n in 0..self.controller.config().workers.max(1) {
            Builder::new()
                .name(format!("oasis-wire-worker-{n}"))
                .spawn_scoped(scope, || self.worker())?;
        }

        let mut consecutive_errors: u32 = 0;
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    consecutive_errors = 0;
                    self.table.admit(stream);
                }
                Err(e) if transient_accept_error(&e) => {
                    self.audit_fault("accept", &e);
                    let backoff =
                        Duration::from_millis((1u64 << consecutive_errors.min(7)).min(100));
                    consecutive_errors = consecutive_errors.saturating_add(1);
                    std::thread::sleep(backoff);
                }
                Err(e) => {
                    self.audit_fault("accept-fatal", &e);
                    return Err(WireError::Io(e));
                }
            }
        }
    }

    fn audit_fault(&self, op: &str, error: &std::io::Error) {
        self.service.audit().record(
            self.service.last_seen_now(),
            AuditKind::TransportFault {
                op: op.to_string(),
                detail: error.to_string(),
            },
        );
    }

    /// One worker: wait for a readable connection, own it for one turn,
    /// put it back; then poll the tickets queued in the lanes, which this
    /// turn's permit may have unblocked.
    fn worker(&self) {
        let mut scratch = [0u8; READ_CHUNK];
        while self.open.load(SeqCst) {
            let Ok(woke) = self.table.next() else {
                break;
            };
            if let Some((token, conn)) = woke {
                self.run_turn(token, conn, &mut scratch);
            }
            for token in self.table.queued() {
                if let Some(conn) = self.table.take(token) {
                    self.run_turn(token, conn, &mut scratch);
                }
            }
        }
        self.table.wake(); // the next worker's turn to notice the shutdown
    }

    fn run_turn(&self, token: usize, mut conn: Conn, scratch: &mut [u8]) {
        let keep = self.turn(&mut conn, scratch);
        self.table.put_back(token, conn, keep);
    }

    /// Serves what can be served on one connection without blocking on
    /// the peer or on lane admission. Returns whether the connection
    /// stays open.
    fn turn(&self, conn: &mut Conn, scratch: &mut [u8]) -> bool {
        let mut served = false;
        if let Some(pending) = conn.pending.take() {
            let response = match self.controller.poll(&pending.ticket) {
                PollOutcome::Waiting => {
                    conn.pending = Some(pending);
                    return true;
                }
                PollOutcome::Expired => Response::DeadlineExceeded,
                PollOutcome::Ready(permit) => {
                    self.execute(permit, pending.deadline, pending.request, pending.trace)
                }
            };
            if !self.respond(conn, &response) {
                return false;
            }
            served = true;
        }
        loop {
            loop {
                match conn.next_frame::<Envelope>(self.controller.now_ms()) {
                    Ok(Some(envelope)) => {
                        if !self.admit_one(conn, envelope) {
                            return false;
                        }
                        if conn.pending.is_some() {
                            return true;
                        }
                        served = true;
                    }
                    Ok(None) => break,
                    // Oversized or malformed: the stream cannot be trusted.
                    Err(_) => return false,
                }
            }
            // One read's worth of requests a turn, so a pipelining peer
            // cannot keep the worker. Re-arming reports whatever has
            // arrived meanwhile, which also saves the `read` that would
            // say "nothing".
            if served {
                return true;
            }
            match conn.fill(scratch, self.controller.now_ms()) {
                Ok(true) => {}
                Ok(false) => return true,
                Err(_) => return false,
            }
        }
    }

    /// Admission gate for one freshly read request: compute the absolute
    /// deadline at read time (so queueing counts against the client's
    /// budget), classify into a lane, and execute, park, or shed.
    fn admit_one(&self, conn: &mut Conn, envelope: Envelope) -> bool {
        // Observability probes bypass lane admission, deadline accounting,
        // and leader gating: the snapshot that explains a flood must be
        // answerable by any node exactly while the lanes are saturated, and
        // a follower's registry is as interesting as the leader's.
        if matches!(envelope.request, Request::Metrics) {
            let response = handle_request(&self.service, &self.context, Request::Metrics);
            return self.respond(conn, &response);
        }
        if let Some(node) = &self.replica {
            // Replication traffic bypasses admission entirely: a heartbeat
            // shed under load reads as a dead leader and forces an election
            // at the worst possible moment. Peer frames are small, cheap,
            // and bounded by cluster size, not client load.
            if let Request::Peer { req } = &envelope.request {
                let reply = node.handle(req, self.controller.now_ms());
                return self.respond(conn, &Response::PeerAck { reply });
            }
            // Followers hold journal replicas, not live service state:
            // everything except liveness checks must go to the leader. A
            // *fenced* leader (quorum lease lapsed during an asymmetric
            // partition) is gated the same way, with no hint — it cannot
            // know who, if anyone, succeeded it, and a stale read served
            // here could contradict the majority side.
            if !matches!(envelope.request, Request::Ping) {
                if !node.is_leader() {
                    let response = Response::NotLeader {
                        hint: node.leader_hint(),
                    };
                    return self.respond(conn, &response);
                }
                if node.is_fenced(self.controller.now_ms()) {
                    return self.respond(conn, &Response::NotLeader { hint: None });
                }
            }
        }
        let lane = envelope.request.lane();
        let deadline = Deadline::from_budget(self.controller.now_ms(), envelope.deadline_ms);
        let response = match self.controller.submit(lane, deadline) {
            Submission::Admitted(permit) => {
                self.execute(permit, deadline, envelope.request, envelope.trace)
            }
            Submission::Queued(ticket) => {
                conn.pending = Some(PendingRequest {
                    ticket,
                    deadline,
                    request: envelope.request,
                    trace: envelope.trace,
                });
                return true;
            }
            Submission::Shed { retry_after_ms } => Response::Overloaded { retry_after_ms },
            Submission::Expired => Response::DeadlineExceeded,
        };
        self.respond(conn, &response)
    }

    /// Run a granted request, re-checking the deadline so no request ever
    /// executes past it — the permit may have been granted in the same
    /// instant the deadline lapsed.
    fn execute(
        &self,
        permit: Permit,
        deadline: Deadline,
        request: Request,
        trace: Option<oasis_obs::TraceCtx>,
    ) -> Response {
        if deadline.expired(self.controller.now_ms()) {
            self.controller.note_expired_after_admit(permit.lane());
            return Response::DeadlineExceeded;
        }
        // Re-establish the client's causal context for the duration of the
        // request: service-side spans (svc.activate, svc.revoke, civ.*)
        // parent onto the client's span through the ambient scope.
        let _trace_scope = trace.map(oasis_obs::scope);
        self.requests.inc();
        let started = Instant::now();
        let response = handle_request(&self.service, &self.context, request);
        self.handle_us.observe(started.elapsed().as_micros() as u64);
        drop(permit);
        response
    }

    /// Write one response; a connection we cannot write to is closed.
    fn respond(&self, conn: &mut Conn, response: &Response) -> bool {
        let sent = encode_frame(response).is_ok_and(|frame| conn.send(&frame).is_ok());
        conn.last_active_ms = self.controller.now_ms();
        sent
    }
}

fn handle_request(
    service: &Arc<OasisService>,
    context: &ContextFactory,
    request: Request,
) -> Response {
    match request {
        Request::Ping => Response::Pong,
        Request::Activate {
            principal,
            role,
            args,
            credentials,
            now,
        } => {
            let ctx = context(now);
            match service.activate_role(&principal, &RoleName::new(role), &args, &credentials, &ctx)
            {
                Ok(rmc) => Response::Activated { rmc: Box::new(rmc) },
                Err(e) => Response::Error {
                    message: e.to_string(),
                },
            }
        }
        Request::Invoke {
            principal,
            method,
            args,
            credentials,
            now,
        } => {
            let ctx = context(now);
            match service.invoke(&principal, &method, &args, &credentials, &ctx) {
                Ok(invocation) => Response::Invoked {
                    used: invocation.used,
                },
                Err(e) => Response::Error {
                    message: e.to_string(),
                },
            }
        }
        Request::Validate {
            credential,
            presenter,
            now,
        } => match service.validate_own(&credential, &presenter, now) {
            Ok(()) => Response::Valid,
            Err(e) => Response::Error {
                message: e.to_string(),
            },
        },
        Request::Revoke {
            cert_id,
            reason,
            now,
        } => Response::Revoked {
            was_active: service.revoke_certificate(CertId(cert_id), &reason, now),
        },
        Request::Resync {
            topic,
            after_topic_seq,
        } => {
            let (events, complete) = service.replay_retained(&topic, after_topic_seq);
            Response::Resynced {
                events: events.into_iter().map(Into::into).collect(),
                complete,
            }
        }
        // Peer frames are answered in `admit_one` when a replica node is
        // attached; reaching here means this server is not a replica.
        Request::Peer { .. } => Response::Error {
            message: "replication is not enabled on this node".into(),
        },
        // Called straight from `admit_one` (admission bypass). A no-op
        // recorder has nothing to snapshot; `null` is still well-formed.
        Request::Metrics => Response::Metrics {
            snapshot: service
                .obs_recorder()
                .snapshot_json()
                .unwrap_or_else(|| "null".to_string()),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accept_error_classification() {
        for kind in [
            ErrorKind::ConnectionAborted,
            ErrorKind::ConnectionReset,
            ErrorKind::Interrupted,
            ErrorKind::WouldBlock,
            ErrorKind::TimedOut,
        ] {
            assert!(
                transient_accept_error(&std::io::Error::new(kind, "x")),
                "{kind:?} should be transient"
            );
        }
        // EMFILE: per-process fd limit hit — drains as connections close.
        assert!(transient_accept_error(&std::io::Error::from_raw_os_error(
            24
        )));
        // EBADF: the listener itself is broken — fatal.
        assert!(!transient_accept_error(&std::io::Error::from_raw_os_error(
            9
        )));
        assert!(!transient_accept_error(&std::io::Error::new(
            ErrorKind::PermissionDenied,
            "x"
        )));
    }
}
