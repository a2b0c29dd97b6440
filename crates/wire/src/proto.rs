//! The request/response protocol.
//!
//! One request, one response, in order, per connection (pipelining is
//! permitted by the framing but the bundled client is call/return). There
//! are eight operations: `Activate`, `Invoke` and `Validate` are the paths
//! of Fig 2 and `Revoke` is the issuer-side revocation entry point of
//! Fig 5; `Resync` replays retained revocations after a watermark, `Peer`
//! carries replication traffic between CIV replicas, and `Ping` and
//! `Metrics` are liveness and the metrics snapshot.
//!
//! # Deadline envelope
//!
//! A client may wrap any request in `{"Deadline": {"ms": <budget>, "req":
//! <request>}}` to propagate a relative deadline budget in milliseconds
//! ([`Envelope`]). The server computes the absolute deadline when it
//! *reads* the frame, so time spent in the server's admission queues
//! counts against the budget, and drops the request without doing work
//! once the deadline passes ([`Response::DeadlineExceeded`]). The same
//! wrapper optionally carries a causal trace context (`"trace": {"hop",
//! "parent", "trace"}`) which the server re-establishes as the ambient
//! [`oasis_obs::TraceCtx`] around the request, so server-side spans
//! parent onto the client's.
//!
//! A request with neither a deadline nor a trace is written bare, with no
//! wrapper, and the server reads a bare request as an envelope without
//! either. That second request shape stays for two readers outside this
//! crate's control: the golden frames in `tests/golden/` pin it, and the
//! end-to-end benchmark's frozen layer pass writes a bare `Request` and
//! decodes it as an [`Envelope`].
//!
//! An answer has one shape per outcome whatever the request's shape: a
//! shed is always [`Response::Overloaded`], and [`Response::Error`] is an
//! application error, never a shed.

use oasis_core::cert::Rmc;
use oasis_core::{CertEvent, Credential, Crr, Lane, PrincipalId, Value};
use oasis_events::{DeliveredEvent, Topic};
use oasis_json::{json_enum, json_struct, FromJson, JsonError, Reader, ToJson};
use oasis_store::{PeerReply, PeerRequest};

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Activate `role(args)` (paths 1–2 of Fig 2).
    Activate {
        /// The requesting principal.
        principal: PrincipalId,
        /// Role name at the serving service.
        role: String,
        /// Role parameters.
        args: Vec<Value>,
        /// Presented credentials.
        credentials: Vec<Credential>,
        /// Decoded but not read: the server's clock is the request's time.
        /// Kept because the golden frames and the frozen benchmark encode it.
        now: u64,
    },
    /// Invoke `method(args)` (paths 3–4 of Fig 2).
    Invoke {
        /// The requesting principal.
        principal: PrincipalId,
        /// Method name.
        method: String,
        /// Invocation arguments.
        args: Vec<Value>,
        /// Presented credentials.
        credentials: Vec<Credential>,
        /// Decoded but not read: the server's clock is the request's time.
        /// Kept because the golden frames and the frozen benchmark encode it.
        now: u64,
    },
    /// Validation callback: is this credential (still) good for this
    /// presenter? Used by remote OASIS-aware services (Sect. 4).
    Validate {
        /// The credential in question.
        credential: Box<Credential>,
        /// Who presented it.
        presenter: PrincipalId,
        /// Decoded but not read: the server's clock is the request's time.
        /// Kept because the golden frames and the frozen benchmark encode it.
        now: u64,
    },
    /// Revoke a certificate this service issued.
    Revoke {
        /// Issuer-local certificate id.
        cert_id: u64,
        /// Reason, recorded for audit.
        reason: String,
        /// Decoded but not read: the server's clock is the request's time.
        /// Kept because the golden frames and the frozen benchmark encode it.
        now: u64,
    },
    /// Catch-up resync (Fig 5 across a crash): replay the revocation
    /// events this service retained on `topic` with per-topic sequence
    /// numbers greater than `after_topic_seq`. A subscriber that was
    /// down sends its persisted watermark here after recovery to close
    /// the delivery gap.
    Resync {
        /// The retained topic (`cred.revoked.<issuer>`).
        topic: String,
        /// The subscriber's watermark: replay strictly after this.
        after_topic_seq: u64,
    },
    /// Replica-to-replica traffic for the replicated journal backend:
    /// log replication (`Replicate`), elections (`PreVote` +
    /// `LeaderClaim`), entry-level log repair (`Repair`), and resumable
    /// chunked catch-up (`SyncChunk`). Cluster-internal — ordinary
    /// clients never send this.
    Peer {
        /// The replication protocol message.
        req: PeerRequest,
    },
    /// Liveness check.
    Ping,
    /// Observability snapshot: the server's metrics registry rendered as
    /// canonical sorted-key JSON. Control-lane, admission-bypassing, and
    /// deadline-exempt — a flooded server must still answer the probe
    /// that explains the flood.
    Metrics,
}

impl Request {
    /// The priority lane this request executes in under overload.
    /// Revocation, resync, and liveness traffic outranks validation,
    /// which outranks issuance: a delayed revocation extends the window
    /// in which a withdrawn credential still grants access (paper §5),
    /// while a shed validation or activation is cheap for the client to
    /// retry.
    pub fn lane(&self) -> Lane {
        match self {
            Request::Revoke { .. }
            | Request::Resync { .. }
            | Request::Peer { .. }
            | Request::Ping
            | Request::Metrics => Lane::Control,
            Request::Validate { .. } => Lane::Validation,
            Request::Activate { .. } | Request::Invoke { .. } => Lane::Issuance,
        }
    }
}

/// A request plus its optional relative deadline budget — the unit the
/// server actually reads off the wire. See the [module docs](self) for
/// the encoding.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Relative deadline budget in ms (`None` = no deadline). A budget of
    /// `0` means "only if instantaneous" and is already expired when the
    /// server admits it.
    pub deadline_ms: Option<u64>,
    /// The wrapped request.
    pub request: Request,
    /// Optional causal trace context, propagated so server-side spans
    /// parent onto the client's span.
    pub trace: Option<oasis_obs::TraceCtx>,
}

impl Envelope {
    /// An envelope with no deadline (encodes as the bare request).
    pub fn bare(request: Request) -> Self {
        Self {
            deadline_ms: None,
            request,
            trace: None,
        }
    }

    /// An envelope carrying a deadline budget.
    pub fn with_deadline(request: Request, deadline_ms: u64) -> Self {
        Self {
            deadline_ms: Some(deadline_ms),
            request,
            trace: None,
        }
    }

    /// Attaches a causal trace context to this envelope.
    #[must_use]
    pub fn with_trace(mut self, trace: oasis_obs::TraceCtx) -> Self {
        self.trace = Some(trace);
        self
    }
}

/// The frame an [`Envelope`] encodes to, around a request that is only
/// borrowed: what a client sends without cloning the request (credentials
/// included) into an envelope first. [`Envelope`] is the decoded, owning
/// form and encodes through this.
pub(crate) struct EnvelopeRef<'a> {
    pub(crate) deadline_ms: Option<u64>,
    pub(crate) request: &'a Request,
    pub(crate) trace: Option<oasis_obs::TraceCtx>,
}

impl ToJson for EnvelopeRef<'_> {
    fn write_json(&self, out: &mut String) {
        if self.deadline_ms.is_none() && self.trace.is_none() {
            // Byte-identical to the pre-deadline wire format.
            return self.request.write_json(out);
        }
        out.push_str("{\"Deadline\":{");
        if let Some(ms) = self.deadline_ms {
            out.push_str("\"ms\":");
            ms.write_json(out);
            out.push(',');
        }
        out.push_str("\"req\":");
        self.request.write_json(out);
        if let Some(trace) = self.trace {
            out.push_str(",\"trace\":");
            WireTrace::from(trace).write_json(out);
        }
        out.push_str("}}");
    }
}

/// An [`oasis_obs::TraceCtx`] under its wire keys (orphan rules keep the
/// conversion impls out of both `oasis-obs` and `oasis-json`).
struct WireTrace {
    hop: u32,
    parent: u64,
    trace: u64,
}

json_struct! { WireTrace { hop, parent, trace } }

impl From<oasis_obs::TraceCtx> for WireTrace {
    fn from(ctx: oasis_obs::TraceCtx) -> Self {
        Self {
            hop: ctx.hop,
            parent: ctx.parent_span,
            trace: ctx.trace_id,
        }
    }
}

impl From<WireTrace> for oasis_obs::TraceCtx {
    fn from(wire: WireTrace) -> Self {
        Self {
            trace_id: wire.trace,
            parent_span: wire.parent,
            hop: wire.hop,
        }
    }
}

impl ToJson for Envelope {
    fn write_json(&self, out: &mut String) {
        EnvelopeRef {
            deadline_ms: self.deadline_ms,
            request: &self.request,
            trace: self.trace,
        }
        .write_json(out);
    }
}

impl FromJson for Envelope {
    fn read_json(r: &mut Reader<'_>) -> Result<Self, JsonError> {
        // Only the `Deadline` tag opens the wrapper; a bare string or any
        // other tag is the request itself.
        if r.first_key().as_deref() != Some("Deadline") {
            return Request::read_json(r).map(Envelope::bare);
        }
        r.tagged("Envelope", |_, body| {
            // Both `ms` and `trace` are optional: a trace-only envelope
            // has no `ms`, a deadline-only one no `trace`, and old servers
            // ignore `trace` entirely.
            let (mut deadline_ms, mut request, mut trace) = (None, None, None);
            // (A first key is the tag of an object, so there is a body.)
            if let Some(body) = body {
                body.object(|r, key| {
                    match key {
                        "ms" if deadline_ms.is_none() => deadline_ms = Some(r.u64()?),
                        "req" if request.is_none() => request = Some(Request::read_json(r)?),
                        "trace" if trace.is_none() => {
                            trace = Some(WireTrace::read_json(r)?.into());
                        }
                        _ => r.skip()?,
                    }
                    Ok(())
                })?;
            }
            Ok(Envelope {
                deadline_ms,
                request: request.ok_or_else(|| JsonError::missing("req"))?,
                trace,
            })
        })
    }
}

/// A server-to-client reply.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Activation succeeded; here is the RMC.
    Activated {
        /// The issued role membership certificate.
        rmc: Box<Rmc>,
    },
    /// Invocation authorised and performed.
    Invoked {
        /// Credentials that authorised it (for client-side audit).
        used: Vec<Crr>,
    },
    /// The credential validated.
    Valid,
    /// Revocation processed.
    Revoked {
        /// Whether the certificate had been active.
        was_active: bool,
    },
    /// The requested slice of the retained revocation ring.
    Resynced {
        /// The retained events after the watermark, oldest first.
        events: Vec<RetainedEvent>,
        /// Whether the replay was gap-free. `false` means the ring had
        /// evicted part of the requested range; the subscriber must
        /// treat its cached validations for this issuer as suspect.
        complete: bool,
    },
    /// Answer to a [`Request::Peer`] replication message.
    PeerAck {
        /// The replication protocol reply.
        reply: PeerReply,
    },
    /// The addressed node is a replica follower (or an election is in
    /// progress): writes must go to the leader. Re-dial `hint` when
    /// present, or retry another candidate with backoff.
    NotLeader {
        /// The current leader's client address, when known.
        hint: Option<String>,
    },
    /// Liveness answer.
    Pong,
    /// Answer to [`Request::Metrics`]: the registry snapshot as one
    /// canonical sorted-key JSON document (already rendered server-side
    /// so the wire shape is stable across registry growth).
    Metrics {
        /// The rendered snapshot.
        snapshot: String,
    },
    /// The server shed the request without doing any work: the admission
    /// queue for its priority lane was full. Retry no sooner than the
    /// hint.
    Overloaded {
        /// Server-estimated queue-drain time in milliseconds.
        retry_after_ms: u64,
    },
    /// The request's propagated deadline passed before execution started;
    /// the server dropped it without doing work.
    DeadlineExceeded,
    /// The operation failed.
    Error {
        /// Human-readable failure description.
        message: String,
    },
}

/// One retained bus event in wire form — a
/// [`DeliveredEvent<CertEvent>`] flattened for transport.
#[derive(Debug, Clone, PartialEq)]
pub struct RetainedEvent {
    /// The concrete topic the event was published on.
    pub topic: String,
    /// Per-topic sequence number.
    pub topic_seq: u64,
    /// Bus-global sequence number.
    pub global_seq: u64,
    /// Publisher's virtual timestamp.
    pub timestamp: u64,
    /// The revocation event itself.
    pub payload: CertEvent,
}

impl From<DeliveredEvent<CertEvent>> for RetainedEvent {
    fn from(event: DeliveredEvent<CertEvent>) -> Self {
        Self {
            topic: event.topic.as_str().to_string(),
            topic_seq: event.topic_seq,
            global_seq: event.global_seq,
            timestamp: event.timestamp,
            payload: event.payload,
        }
    }
}

impl From<RetainedEvent> for DeliveredEvent<CertEvent> {
    fn from(event: RetainedEvent) -> Self {
        Self {
            topic: Topic::new(event.topic),
            topic_seq: event.topic_seq,
            global_seq: event.global_seq,
            timestamp: event.timestamp,
            payload: event.payload,
            // Catch-up replays are not part of the original causal
            // chain; they carry no trace context over the wire.
            trace: None,
        }
    }
}

json_struct! { RetainedEvent { topic, topic_seq, global_seq, timestamp, payload } }

/// [`Request::Peer`] by reference: encodes the same frame without owning
/// (or cloning) the replication message.
pub(crate) struct PeerFrame<'a>(pub(crate) &'a PeerRequest);

impl ToJson for PeerFrame<'_> {
    fn write_json(&self, out: &mut String) {
        out.push_str("{\"Peer\":{\"req\":");
        self.0.write_json(out);
        out.push_str("}}");
    }
}

json_enum! { Request {
    Activate { principal, role, args, credentials, now },
    Invoke { principal, method, args, credentials, now },
    Validate { credential, presenter, now },
    Revoke { cert_id, reason, now },
    Resync { topic, after_topic_seq },
    Peer { req },
    Ping,
    Metrics,
} }

json_enum! { Response {
    Activated { rmc },
    Invoked { used },
    Valid,
    Revoked { was_active },
    Resynced { events, complete },
    PeerAck { reply },
    NotLeader { hint },
    Pong,
    Metrics { snapshot },
    Overloaded { retry_after_ms },
    DeadlineExceeded,
    Error { message },
} }

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip_through_json() {
        let requests = vec![
            Request::Ping,
            Request::Activate {
                principal: PrincipalId::new("alice"),
                role: "doctor".into(),
                args: vec![Value::id("alice"), Value::Int(3)],
                credentials: vec![],
                now: 7,
            },
            Request::Revoke {
                cert_id: 9,
                reason: "logout".into(),
                now: 8,
            },
            Request::Resync {
                topic: "cred.revoked.login".into(),
                after_topic_seq: 41,
            },
            Request::Peer {
                req: PeerRequest::LeaderClaim {
                    term: 3,
                    candidate: "b".into(),
                    candidate_hint: "127.0.0.1:7451".into(),
                    last_index: 9,
                    last_term: 2,
                },
            },
        ];
        for req in requests {
            let json = oasis_json::to_string(&req);
            let back: Request = oasis_json::from_str(&json).unwrap();
            assert_eq!(req, back);
        }
    }

    #[test]
    fn envelopes_round_trip_and_bare_requests_still_parse() {
        // With a deadline: encodes as the Deadline wrapper.
        let env = Envelope::with_deadline(Request::Ping, 250);
        let json = oasis_json::to_string(&env);
        assert!(json.contains("Deadline"), "wrapper form: {json}");
        let back: Envelope = oasis_json::from_str(&json).unwrap();
        assert_eq!(env, back);

        // Without a deadline: encodes as the bare request (old format).
        let env = Envelope::bare(Request::Revoke {
            cert_id: 3,
            reason: "shift over".into(),
            now: 9,
        });
        let json = oasis_json::to_string(&env);
        assert!(!json.contains("Deadline"), "bare form: {json}");
        let back: Envelope = oasis_json::from_str(&json).unwrap();
        assert_eq!(env, back);

        // An old client's raw request parses as a deadline-less envelope.
        let raw = oasis_json::to_string(&Request::Ping);
        let back: Envelope = oasis_json::from_str(&raw).unwrap();
        assert_eq!(back, Envelope::bare(Request::Ping));
    }

    #[test]
    fn traced_envelopes_round_trip_in_every_combination() {
        let trace = oasis_obs::TraceCtx {
            trace_id: 77,
            parent_span: 3,
            hop: 2,
        };
        // Trace only (no deadline): wrapper with no "ms" field.
        let env = Envelope::bare(Request::Ping).with_trace(trace);
        let json = oasis_json::to_string(&env);
        assert!(
            json.contains("Deadline") && json.contains("trace"),
            "{json}"
        );
        assert!(!json.contains("\"ms\""), "{json}");
        let back: Envelope = oasis_json::from_str(&json).unwrap();
        assert_eq!(env, back);

        // Deadline + trace together.
        let env = Envelope::with_deadline(Request::Ping, 250).with_trace(trace);
        let back: Envelope = oasis_json::from_str(&oasis_json::to_string(&env)).unwrap();
        assert_eq!(env, back);

        // An old server's parser semantics: a deadline-only wrapper has
        // no "trace" field at all.
        let env = Envelope::with_deadline(Request::Ping, 250);
        assert!(!oasis_json::to_string(&env).contains("trace"));
    }

    #[test]
    fn frames_by_reference_equal_the_owning_forms() {
        let req = PeerRequest::PreVote {
            term: 4,
            candidate: "b".into(),
            last_index: 9,
            last_term: 3,
        };
        let request = Request::Peer { req: req.clone() };
        assert_eq!(
            oasis_json::to_string(&PeerFrame(&req)),
            oasis_json::to_string(&request)
        );
        let trace = oasis_obs::TraceCtx {
            trace_id: 77,
            parent_span: 3,
            hop: 2,
        };
        for (deadline_ms, trace) in [
            (None, None),
            (Some(250), None),
            (None, Some(trace)),
            (Some(0), Some(trace)),
        ] {
            let borrowed = EnvelopeRef {
                deadline_ms,
                request: &request,
                trace,
            };
            let text = oasis_json::to_string(&borrowed);
            let owned: Envelope = oasis_json::from_str(&text).unwrap();
            assert_eq!(owned.deadline_ms, deadline_ms);
            assert_eq!(owned.trace, trace);
            assert_eq!(owned.request, request);
            assert_eq!(oasis_json::to_string(&owned), text);
        }
    }

    #[test]
    fn metrics_request_and_response_round_trip() {
        let req = Request::Metrics;
        let back: Request = oasis_json::from_str(&oasis_json::to_string(&req)).unwrap();
        assert_eq!(req, back);
        assert_eq!(req.lane(), Lane::Control);

        let resp = Response::Metrics {
            snapshot: "{\"counters\":{}}".into(),
        };
        let back: Response = oasis_json::from_str(&oasis_json::to_string(&resp)).unwrap();
        assert_eq!(resp, back);
    }

    #[test]
    fn lane_classification_prioritises_control() {
        assert_eq!(Request::Ping.lane(), Lane::Control);
        assert_eq!(
            Request::Revoke {
                cert_id: 1,
                reason: String::new(),
                now: 0
            }
            .lane(),
            Lane::Control
        );
        assert_eq!(
            Request::Resync {
                topic: "t".into(),
                after_topic_seq: 0
            }
            .lane(),
            Lane::Control
        );
        assert_eq!(
            Request::Activate {
                principal: PrincipalId::new("a"),
                role: "r".into(),
                args: vec![],
                credentials: vec![],
                now: 0
            }
            .lane(),
            Lane::Issuance
        );
    }

    #[test]
    fn responses_round_trip_through_json() {
        let responses = vec![
            Response::Pong,
            Response::Valid,
            Response::DeadlineExceeded,
            Response::Overloaded { retry_after_ms: 75 },
            Response::Revoked { was_active: true },
            Response::PeerAck {
                reply: PeerReply::Vote {
                    term: 3,
                    granted: true,
                },
            },
            Response::NotLeader {
                hint: Some("127.0.0.1:7451".into()),
            },
            Response::NotLeader { hint: None },
            Response::Error {
                message: "no".into(),
            },
            Response::Invoked {
                used: vec![Crr::new(
                    oasis_core::ServiceId::new("svc"),
                    oasis_core::CertId(4),
                )],
            },
            Response::Resynced {
                events: vec![RetainedEvent {
                    topic: "cred.revoked.login".into(),
                    topic_seq: 42,
                    global_seq: 99,
                    timestamp: 7,
                    payload: CertEvent {
                        crr: Crr::new(oasis_core::ServiceId::new("login"), oasis_core::CertId(3)),
                        kind: oasis_core::CertEventKind::Revoked {
                            reason: "logout".into(),
                        },
                    },
                }],
                complete: false,
            },
        ];
        for resp in responses {
            let json = oasis_json::to_string(&resp);
            let back: Response = oasis_json::from_str(&json).unwrap();
            assert_eq!(resp, back);
        }
    }
}
