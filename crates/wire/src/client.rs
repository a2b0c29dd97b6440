//! The client side: a call/return connection to a [`WireServer`](crate::WireServer).

use std::cell::RefCell;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use oasis_core::cert::Rmc;
use oasis_core::durable::CatchUpReport;
use oasis_core::{CertEvent, Credential, Crr, OasisService, PrincipalId, Value};
use oasis_events::DeliveredEvent;

use crate::error::WireError;
use crate::frame::{encode_frame, FrameBuf};
use crate::proto::{EnvelopeRef, Request, Response};

/// The default socket deadline of a connection: five seconds, generous
/// for a LAN callback, bounded enough that a partitioned issuer cannot
/// hang a validation forever.
pub(crate) const DEFAULT_TIMEOUT: Duration = Duration::from_secs(5);

/// A blocking OASIS client over TCP.
///
/// The engine (`oasis-core`) is synchronous — validation callbacks run
/// inside `activate_role`/`invoke` — so the client is synchronous too and
/// is usable directly from those callbacks.
///
/// Every call is one attempt on one connection: a failure is returned,
/// never retried. Retries belong to the caller's retry owner —
/// [`ResilientValidator`](oasis_core::ResilientValidator) over a
/// [`RemoteValidator`](crate::RemoteValidator) for callbacks,
/// [`FailoverClient`](crate::FailoverClient) for a replicated cluster.
pub struct WireClient {
    stream: TcpStream,
    /// Answer bytes read but not yet returned: an answer that has started
    /// to arrive, or answers behind the one returned. Empty, and holding
    /// no allocation, between answers: a read with nothing buffered lands
    /// in the thread's [`READ_BUF`].
    inbound: FrameBuf,
    /// Deadline budget attached to every call (see
    /// [`WireClient::set_deadline_ms`]).
    deadline_ms: Option<u64>,
    /// Causal trace context attached to every call (see
    /// [`WireClient::set_trace`]).
    trace: Option<oasis_obs::TraceCtx>,
}

/// Bytes asked of the socket at least per `read` while an answer is
/// incomplete (more when a larger answer's header is already in).
const READ_CHUNK: usize = 4096;

thread_local! {
    /// Where a client's read lands while nothing is buffered, kept for
    /// the thread's life: [`READ_CHUNK`] bytes, so one `read` usually
    /// carries a whole answer, header and payload, which is decoded where
    /// it landed, and may carry the next one too. One per thread, not per
    /// connection, because a thread waits on one answer at a time and
    /// bytes left over are copied out; so an idle connection holds no
    /// buffer at all.
    static READ_BUF: RefCell<Box<[u8]>> = RefCell::new(vec![0; READ_CHUNK].into_boxed_slice());
}

impl std::fmt::Debug for WireClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WireClient")
            .field("peer", &self.stream.peer_addr().ok())
            .finish()
    }
}

impl WireClient {
    /// Connects to a serving address with the default socket deadline
    /// (5 s).
    ///
    /// # Errors
    ///
    /// [`WireError::Io`] if the connection fails, or
    /// [`WireError::TimedOut`] if it does not complete in time.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, WireError> {
        Self::connect_with(addr, DEFAULT_TIMEOUT)
    }

    /// Connects with an explicit socket deadline: each resolved address
    /// is tried in turn under it, and it bounds every later read and
    /// write. An expired deadline surfaces as [`WireError::TimedOut`]
    /// naming the operation, so callers (notably
    /// [`RemoteValidator`](crate::RemoteValidator)) can classify the
    /// failure as transient.
    ///
    /// # Errors
    ///
    /// [`WireError::TimedOut`] when the deadline expires, [`WireError::Io`]
    /// for other socket failures (a zero `timeout` among them).
    pub fn connect_with(addr: impl ToSocketAddrs, timeout: Duration) -> Result<Self, WireError> {
        let mut last: Option<std::io::Error> = None;
        let mut connected = None;
        for candidate in addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&candidate, timeout) {
                Ok(s) => {
                    connected = Some(s);
                    break;
                }
                Err(e) => last = Some(e),
            }
        }
        let Some(stream) = connected else {
            let err = last.unwrap_or_else(|| {
                std::io::Error::new(ErrorKind::AddrNotAvailable, "address resolved to nothing")
            });
            return Err(WireError::Io(err).normalise_timeout("connect"));
        };
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        Ok(Self {
            stream,
            inbound: FrameBuf::default(),
            deadline_ms: None,
            trace: None,
        })
    }

    /// Sets the deadline budget (in ms) propagated with every subsequent
    /// call; `None` removes it. The server computes the absolute deadline
    /// when it reads the frame, counts queueing time against it, and
    /// answers [`WireError::DeadlineExceeded`] instead of executing a
    /// request whose budget ran out.
    pub fn set_deadline_ms(&mut self, deadline_ms: Option<u64>) {
        self.deadline_ms = deadline_ms;
    }

    /// Builder form of [`WireClient::set_deadline_ms`].
    #[must_use]
    pub fn with_deadline_ms(mut self, deadline_ms: u64) -> Self {
        self.deadline_ms = Some(deadline_ms);
        self
    }

    /// Sets the causal trace context propagated with every subsequent
    /// call (`None` removes it). The server re-establishes it as the
    /// ambient context around the request, so server-side spans parent
    /// onto the caller's span and share its trace id.
    pub fn set_trace(&mut self, trace: Option<oasis_obs::TraceCtx>) {
        self.trace = trace;
    }

    /// Builder form of [`WireClient::set_trace`].
    #[must_use]
    pub fn with_trace(mut self, trace: oasis_obs::TraceCtx) -> Self {
        self.trace = Some(trace);
        self
    }

    /// One request/response exchange, carrying the client's deadline
    /// budget (if any).
    ///
    /// # Errors
    ///
    /// Transport errors ([`WireError::TimedOut`] when a read or write
    /// deadline expires), [`WireError::Overloaded`] when the server shed
    /// the request, [`WireError::DeadlineExceeded`] when its budget ran
    /// out server-side, or [`WireError::Remote`] for an application error
    /// reported by the server.
    pub fn call(&mut self, request: &Request) -> Result<Response, WireError> {
        self.send(request)?;
        self.recv()
    }

    /// The first half of an exchange: writes `request` as one frame,
    /// with the client's deadline budget and trace context, and returns
    /// without waiting for the answer, which the next
    /// [`WireClient::recv`] reads. A caller with several connections
    /// sends on all of them before it receives on any.
    ///
    /// # Errors
    ///
    /// [`WireError::FrameTooLarge`], or transport errors
    /// ([`WireError::TimedOut`] when the write deadline expires).
    pub fn send(&mut self, request: &Request) -> Result<(), WireError> {
        // With neither a deadline nor a trace this is the bare request,
        // byte-identical to the pre-deadline format.
        let frame = encode_frame(&EnvelopeRef {
            deadline_ms: self.deadline_ms,
            request,
            trace: self.trace,
        })?;
        self.send_frame(&frame)
    }

    /// Writes an already encoded request frame (see
    /// [`encode_frame`]): a frame bound for several peers is encoded
    /// once.
    pub(crate) fn send_frame(&mut self, frame: &[u8]) -> Result<(), WireError> {
        self.stream
            .write_all(frame)
            .map_err(|e| WireError::Io(e).normalise_timeout("write"))
    }

    /// The second half of an exchange: reads the answer to the oldest
    /// request sent and not yet answered.
    ///
    /// # Errors
    ///
    /// As [`WireClient::call`].
    pub fn recv(&mut self) -> Result<Response, WireError> {
        let response = loop {
            if let Some(response) = self.inbound.next_frame::<Response>()? {
                break response;
            }
            if let Some(response) = self.read_answer()? {
                break response;
            }
        };
        match response {
            Response::Error { message } => Err(WireError::Remote(message)),
            Response::Overloaded { retry_after_ms } => {
                Err(WireError::Overloaded { retry_after_ms })
            }
            Response::DeadlineExceeded => Err(WireError::DeadlineExceeded),
            Response::NotLeader { hint } => Err(WireError::NotLeader { hint }),
            response => Ok(response),
        }
    }

    /// One read of the answer stream, and the answer it completed, if
    /// any. With nothing buffered the read lands in [`READ_BUF`] and an
    /// answer is decoded where it landed; the rest of an answer under way
    /// goes straight into the buffer that holds its start, asking for all
    /// of it at once. Each read waits at most the read deadline.
    fn read_answer(&mut self) -> Result<Option<Response>, WireError> {
        let landed = |read: std::io::Result<usize>| match read {
            Ok(0) => Err(WireError::Closed),
            Ok(n) => Ok(n),
            Err(e) if e.kind() == ErrorKind::Interrupted => Ok(0),
            Err(e) => Err(WireError::Io(e).normalise_timeout("read")),
        };
        if !self.inbound.is_empty() {
            landed(self.inbound.read_from(&mut self.stream, READ_CHUNK))?;
            return Ok(None);
        }
        READ_BUF.with_borrow_mut(|buf| {
            let n = landed(self.stream.read(buf))?;
            self.inbound.next_frame_after(&buf[..n])
        })
    }

    /// Liveness check.
    ///
    /// # Errors
    ///
    /// Transport errors, or [`WireError::UnexpectedResponse`].
    pub fn ping(&mut self) -> Result<(), WireError> {
        match self.call(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(WireError::UnexpectedResponse(format!("{other:?}"))),
        }
    }

    /// Fetches the server's metrics-registry snapshot (canonical
    /// sorted-key JSON). Served from the control lane with admission
    /// bypassed, so it answers even while the server sheds normal load.
    ///
    /// # Errors
    ///
    /// Transport errors, or [`WireError::UnexpectedResponse`].
    pub fn metrics(&mut self) -> Result<String, WireError> {
        match self.call(&Request::Metrics)? {
            Response::Metrics { snapshot } => Ok(snapshot),
            other => Err(WireError::UnexpectedResponse(format!("{other:?}"))),
        }
    }

    /// Activates a role at the remote service, returning the RMC.
    ///
    /// `now` is sent but not read: the server evaluates the request at its
    /// own clock.
    ///
    /// # Errors
    ///
    /// [`WireError::Remote`] carrying the service's denial, or transport
    /// errors.
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

    /// Invokes a method at the remote service; returns the credentials
    /// that authorised it.
    ///
    /// `now` is sent but not read: the server evaluates the request at its
    /// own clock.
    ///
    /// # Errors
    ///
    /// [`WireError::Remote`] carrying the denial, or transport errors.
    pub fn invoke(
        &mut self,
        principal: &PrincipalId,
        method: &str,
        args: Vec<Value>,
        credentials: Vec<Credential>,
        now: u64,
    ) -> Result<Vec<Crr>, WireError> {
        let request = Request::Invoke {
            principal: principal.clone(),
            method: method.to_string(),
            args,
            credentials,
            now,
        };
        match self.call(&request)? {
            Response::Invoked { used } => Ok(used),
            other => Err(WireError::UnexpectedResponse(format!("{other:?}"))),
        }
    }

    /// Validation callback: asks the issuer whether `credential` is good
    /// for `presenter`.
    ///
    /// `now` is sent but not read: the issuer judges expiry at its own
    /// clock.
    ///
    /// # Errors
    ///
    /// [`WireError::Remote`] with the rejection reason, or transport
    /// errors.
    pub fn validate(
        &mut self,
        credential: &Credential,
        presenter: &PrincipalId,
        now: u64,
    ) -> Result<(), WireError> {
        let request = Request::Validate {
            credential: Box::new(credential.clone()),
            presenter: presenter.clone(),
            now,
        };
        match self.call(&request)? {
            Response::Valid => Ok(()),
            other => Err(WireError::UnexpectedResponse(format!("{other:?}"))),
        }
    }

    /// Asks the issuer to revoke a certificate; returns whether it had
    /// been active.
    ///
    /// `now` is sent but not read: the issuer stamps the revocation with its
    /// own clock.
    ///
    /// # Errors
    ///
    /// Transport errors, or [`WireError::UnexpectedResponse`].
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

    /// Asks the remote publisher to replay its retained events on
    /// `topic` strictly after `after_topic_seq`. Returns the events
    /// (oldest first) and whether the replay was gap-free.
    ///
    /// # Errors
    ///
    /// Transport errors, or [`WireError::UnexpectedResponse`].
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

    /// One full catch-up cycle for a recovered service against a remote
    /// issuer: read `service`'s persisted watermark for `topic`, fetch
    /// the missed revocations from the issuer's retained ring, and
    /// apply them ([`OasisService::catch_up_with`]). Gap-free replays
    /// clear [`OasisService::catchup_pending`]; incomplete ones drop
    /// every cached validation for the issuer instead.
    ///
    /// One attempt, like every call on this client. A failed catch-up
    /// leaves the service's watermark and suspect cache as they were, so
    /// it can simply be run again;
    /// `failover.call(|c| c.catch_up(service, topic, now))` on a
    /// [`FailoverClient`](crate::FailoverClient) retries under a backoff
    /// schedule and follows a replicated issuer's leader.
    ///
    /// # Errors
    ///
    /// Transport errors, or [`WireError::UnexpectedResponse`].
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A client connected to a socket the test writes raw bytes to.
    fn pair(timeout: Duration) -> (WireClient, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = WireClient::connect_with(listener.local_addr().unwrap(), timeout).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nodelay(true).unwrap();
        (client, server)
    }

    #[test]
    fn recv_decodes_a_frame_split_across_two_writes() {
        let (mut client, mut server) = pair(Duration::from_millis(50));
        let frame = encode_frame(&Response::Revoked { was_active: true }).unwrap();
        let (head, tail) = frame.split_at(6);
        server.write_all(head).unwrap();
        // The first half alone is no answer: the read deadline expires
        // as before, and the bytes already read are kept.
        assert!(matches!(
            client.recv(),
            Err(WireError::TimedOut { op: "read" })
        ));
        server.write_all(tail).unwrap();
        assert_eq!(
            client.recv().unwrap(),
            Response::Revoked { was_active: true }
        );
    }

    #[test]
    fn recv_reads_an_answer_larger_than_a_chunk() {
        let (mut client, mut server) = pair(DEFAULT_TIMEOUT);
        let snapshot = "x".repeat(5 * READ_CHUNK);
        let frame = encode_frame(&Response::Metrics {
            snapshot: snapshot.clone(),
        })
        .unwrap();
        server.write_all(&frame).unwrap();
        assert_eq!(client.recv().unwrap(), Response::Metrics { snapshot });
    }

    #[test]
    fn recv_returns_two_frames_from_one_read_in_order() {
        let (mut client, mut server) = pair(DEFAULT_TIMEOUT);
        let mut both = encode_frame(&Response::Pong).unwrap();
        both.extend(encode_frame(&Response::Revoked { was_active: false }).unwrap());
        server.write_all(&both).unwrap();
        assert_eq!(client.recv().unwrap(), Response::Pong);
        assert_eq!(
            client.recv().unwrap(),
            Response::Revoked { was_active: false }
        );
        drop(server);
        assert!(matches!(client.recv(), Err(WireError::Closed)));
    }
}
