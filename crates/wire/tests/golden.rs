//! Wire compatibility with the tree-building codec this one replaced.
//!
//! `tests/golden/` was written by the encoder and decoder of commit
//! 0741a09 (the last one that built a `Json` tree per message) from the
//! values and mutations in this file:
//!
//! * `frames.txt` — `<case>\t<json>` per line (the printer escapes tabs,
//!   so none is inside the JSON): what that encoder printed for every
//!   case of [`for_each_case`];
//! * `parity.txt` — `<case>\t<mutated length>\t<verdict>` per line: every
//!   mutation of [`mutations`] applied to every frame, and what that
//!   decoder made of it (`-` refused, `=` decoded to the frame's own
//!   value, otherwise the decoded value printed again);
//! * `journal.region`, `snapshot.region` — the bytes a `Journal` and a
//!   `SnapshotStore` left in their backends for [`security_events`] and
//!   [`snapshot`].
//!
//! The files are evidence, not output: nothing here can rewrite them.

use std::fmt::Debug;
use std::sync::Arc;

use oasis_core::cert::{AppointmentCertificate, CredStatus, CredentialKind, Rmc};
use oasis_core::durable::{RetainedEntry, SnapshotRecord, Watermark};
use oasis_core::{
    Atom, CertEvent, CertEventKind, CertId, CmpOp, CredRecord, Credential, Crr, PrincipalId,
    RoleName, SecurityEvent, ServiceId, ServiceSnapshot, Term, Value,
};
use oasis_crypto::{KeyPair, MacSignature, SecretEpoch};
use oasis_json::{from_str, to_string, FromJson, Json, ToJson, MAX_DEPTH};
use oasis_store::replicated::{LogEntry, RegionOp};
use oasis_store::{Journal, MemBackend, PeerReply, PeerRequest, SnapshotStore, StorageBackend};
use oasis_wire::proto::{Envelope, Request, Response, RetainedEvent};

/// Every escape class of the printer, DEL (not escaped) and one-, two-,
/// three- and four-byte UTF-8.
const UGLY: &str = "q\" b\\ s/ \n\r\t\u{8}\u{c}\u{0}\u{1}\u{1f}\u{7f} é☃😀";

fn crr(issuer: &str, id: u64) -> Crr {
    Crr::new(ServiceId::new(issuer), CertId(id))
}

fn every_value() -> Vec<Value> {
    vec![
        Value::id("dr-1"),
        Value::str(UGLY),
        Value::str(""),
        Value::Int(i64::MIN),
        Value::Int(-1),
        Value::Int(i64::MAX),
        Value::Bool(false),
        Value::Time(0),
        Value::Time(u64::MAX),
    ]
}

fn rmc() -> Rmc {
    Rmc {
        crr: crr("hospital", 7),
        role: RoleName::new("treating_doctor"),
        args: every_value(),
        issued_at: 1_000,
        holder_key: Some(KeyPair::from_seed([3; 32]).public_key()),
        epoch: SecretEpoch(2),
        signature: MacSignature([0xAB; 32]),
    }
}

fn plain_rmc() -> Rmc {
    Rmc {
        crr: crr("login", u64::MAX),
        role: RoleName::new("logged_in"),
        args: vec![],
        issued_at: 0,
        holder_key: None,
        epoch: SecretEpoch(u64::MAX),
        signature: MacSignature([0; 32]),
    }
}

fn appointment(expires_at: Option<u64>) -> AppointmentCertificate {
    AppointmentCertificate {
        crr: crr("nhs", 12),
        name: "employed_as_doctor".into(),
        args: vec![Value::id("dr-1"), Value::str(UGLY)],
        issued_at: 5,
        expires_at,
        holder_key: expires_at.map(|_| KeyPair::from_seed([4; 32]).public_key()),
        epoch: SecretEpoch(0),
        signature: MacSignature([0x5A; 32]),
    }
}

fn credentials() -> Vec<Credential> {
    vec![
        Credential::Rmc(rmc()),
        Credential::Appointment(appointment(None)),
        Credential::Rmc(plain_rmc()),
        Credential::Appointment(appointment(Some(9_000))),
    ]
}

fn cert_event(issuer: &str, id: u64) -> CertEvent {
    CertEvent {
        crr: crr(issuer, id),
        kind: CertEventKind::Revoked {
            reason: UGLY.into(),
        },
    }
}

fn record(id: u64, status: CredStatus) -> CredRecord {
    CredRecord {
        crr: crr("hospital", id),
        principal: PrincipalId::new("alice"),
        kind: if id.is_multiple_of(2) {
            CredentialKind::Appointment
        } else {
            CredentialKind::Rmc
        },
        name: "treating_doctor".into(),
        args: every_value(),
        issued_at: 3,
        expires_at: id.is_multiple_of(2).then_some(500),
        status,
    }
}

fn every_atom() -> Vec<Atom> {
    let mut atoms = vec![
        Atom::Prereq {
            service: None,
            role: RoleName::new("logged_in"),
            args: vec![Term::var("uid"), Term::Wildcard],
        },
        Atom::Prereq {
            service: Some(ServiceId::new("login")),
            role: RoleName::new("logged_in"),
            args: vec![],
        },
        Atom::Appointment {
            issuer: Some(ServiceId::new("nhs")),
            name: "employed_as_doctor".into(),
            args: vec![Term::val(Value::id("dr-1"))],
        },
        Atom::Appointment {
            issuer: None,
            name: UGLY.into(),
            args: vec![Term::val(Value::Int(i64::MIN))],
        },
        Atom::EnvFact {
            relation: "on_duty".into(),
            args: vec![Term::var("uid")],
            negated: true,
        },
        Atom::EnvPredicate {
            name: "within_ward".into(),
            args: vec![Term::var("w"), Term::val(Value::Time(u64::MAX))],
        },
    ];
    for op in [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ] {
        atoms.push(Atom::EnvCompare {
            left: Term::var("t"),
            op,
            right: Term::val(Value::Time(100)),
        });
    }
    atoms
}

fn retained_entry(topic_seq: u64) -> RetainedEntry {
    RetainedEntry {
        topic: "cred.revoked.hospital".into(),
        topic_seq,
        global_seq: topic_seq + 10,
        timestamp: 21,
        event: cert_event("hospital", topic_seq),
    }
}

/// One of every journalled event, every credential status among them.
fn security_events() -> Vec<SecurityEvent> {
    vec![
        SecurityEvent::CertIssued {
            record: record(1, CredStatus::Active),
            depends_on: vec![crr("login", 1), crr("nhs", 12)],
            retained_checks: every_atom(),
        },
        SecurityEvent::CertIssued {
            record: record(
                2,
                CredStatus::Revoked {
                    reason: UGLY.into(),
                    at: u64::MAX,
                },
            ),
            depends_on: vec![],
            retained_checks: vec![],
        },
        SecurityEvent::CertIssued {
            record: record(3, CredStatus::Expired { at: 99 }),
            depends_on: vec![],
            retained_checks: vec![],
        },
        SecurityEvent::ValidationGranted {
            crr: crr("nhs", 12),
            presenter: PrincipalId::new("alice"),
            at: 7,
        },
        SecurityEvent::CertRevoked {
            cert_id: CertId(1),
            reason: UGLY.into(),
            at: 8,
        },
        SecurityEvent::CertExpired {
            cert_id: CertId(u64::MAX),
            at: 9,
        },
        SecurityEvent::RevocationApplied {
            topic: "cred.revoked.nhs".into(),
            topic_seq: 4,
            global_seq: 17,
            crr: crr("nhs", 12),
        },
        SecurityEvent::EpochChanged { epoch: 2, at: 10 },
        SecurityEvent::RetainedPublished {
            entry: retained_entry(3),
        },
    ]
}

fn snapshot() -> ServiceSnapshot {
    ServiceSnapshot {
        next_cert: 5,
        records: vec![
            SnapshotRecord {
                record: record(
                    4,
                    CredStatus::Revoked {
                        reason: "cascade".into(),
                        at: 11,
                    },
                ),
                depends_on: vec![crr("login", 2)],
                retained_checks: every_atom(),
            },
            SnapshotRecord {
                record: record(5, CredStatus::Active),
                depends_on: vec![],
                retained_checks: vec![],
            },
        ],
        watermarks: vec![Watermark {
            topic: "cred.revoked.login".into(),
            topic_seq: 3,
            global_seq: 12,
        }],
        retained: vec![retained_entry(1), retained_entry(2)],
    }
}

fn log_entry(index: u64, op: RegionOp) -> LogEntry {
    LogEntry {
        index,
        term: 3,
        region: "journal".into(),
        op,
    }
}

fn trace() -> oasis_obs::TraceCtx {
    oasis_obs::TraceCtx {
        trace_id: u64::MAX,
        parent_span: 3,
        hop: u32::MAX,
    }
}

/// What a test does with each case.
trait Visitor {
    fn case<T: ToJson + FromJson + PartialEq + Debug>(&mut self, name: &str, value: T);
}

/// Every message shape the protocol, the peer protocol, the journal and
/// the snapshot can carry, under the name its golden frame is filed by.
fn for_each_case(v: &mut impl Visitor) {
    let invoke = Request::Invoke {
        principal: PrincipalId::new("alice"),
        method: "read_record".into(),
        args: every_value(),
        credentials: credentials(),
        now: 42,
    };
    let validate = Request::Validate {
        credential: Box::new(Credential::Rmc(rmc())),
        presenter: PrincipalId::new(UGLY),
        now: u64::MAX,
    };
    v.case(
        "request.activate",
        Request::Activate {
            principal: PrincipalId::new("alice"),
            role: "treating_doctor".into(),
            args: every_value(),
            credentials: credentials(),
            now: 7,
        },
    );
    v.case(
        "request.activate.empty",
        Request::Activate {
            principal: PrincipalId::new(""),
            role: String::new(),
            args: vec![],
            credentials: vec![],
            now: 0,
        },
    );
    v.case("request.invoke", invoke.clone());
    v.case("request.validate", validate.clone());
    v.case(
        "request.revoke",
        Request::Revoke {
            cert_id: 9,
            reason: UGLY.into(),
            now: 8,
        },
    );
    v.case(
        "request.resync",
        Request::Resync {
            topic: "cred.revoked.login".into(),
            after_topic_seq: 41,
        },
    );
    v.case(
        "request.peer",
        Request::Peer {
            req: PeerRequest::PreVote {
                term: 4,
                candidate: "b".into(),
                last_index: 9,
                last_term: 3,
            },
        },
    );
    v.case("request.ping", Request::Ping);
    v.case("request.metrics", Request::Metrics);

    v.case("envelope.bare", Envelope::bare(invoke.clone()));
    v.case("envelope.bare.ping", Envelope::bare(Request::Ping));
    v.case(
        "envelope.deadline",
        Envelope::with_deadline(Request::Ping, 250),
    );
    v.case("envelope.deadline.zero", Envelope::with_deadline(invoke, 0));
    v.case(
        "envelope.trace",
        Envelope::bare(Request::Metrics).with_trace(trace()),
    );
    v.case(
        "envelope.both",
        Envelope::with_deadline(validate, 30_000).with_trace(trace()),
    );

    v.case(
        "response.activated",
        Response::Activated {
            rmc: Box::new(rmc()),
        },
    );
    v.case(
        "response.invoked",
        Response::Invoked {
            used: vec![crr("hospital", 7), crr("nhs", 12)],
        },
    );
    v.case("response.invoked.empty", Response::Invoked { used: vec![] });
    v.case("response.valid", Response::Valid);
    v.case("response.revoked", Response::Revoked { was_active: true });
    v.case(
        "response.resynced",
        Response::Resynced {
            events: vec![RetainedEvent {
                topic: "cred.revoked.login".into(),
                topic_seq: 42,
                global_seq: 99,
                timestamp: 7,
                payload: cert_event("login", 3),
            }],
            complete: false,
        },
    );
    v.case(
        "response.resynced.empty",
        Response::Resynced {
            events: vec![],
            complete: true,
        },
    );
    v.case(
        "response.peer_ack",
        Response::PeerAck {
            reply: PeerReply::Vote {
                term: 3,
                granted: true,
            },
        },
    );
    v.case(
        "response.not_leader",
        Response::NotLeader {
            hint: Some("127.0.0.1:7451".into()),
        },
    );
    v.case(
        "response.not_leader.none",
        Response::NotLeader { hint: None },
    );
    v.case("response.pong", Response::Pong);
    v.case(
        "response.metrics",
        Response::Metrics {
            snapshot: "{\"counters\":{\"a.b\":1}}".into(),
        },
    );
    v.case(
        "response.overloaded",
        Response::Overloaded { retry_after_ms: 75 },
    );
    v.case("response.deadline_exceeded", Response::DeadlineExceeded);
    v.case(
        "response.error",
        Response::Error {
            message: UGLY.into(),
        },
    );

    v.case(
        "peer.replicate",
        PeerRequest::Replicate {
            term: 3,
            leader: "a".into(),
            leader_hint: "127.0.0.1:7450".into(),
            prev_index: 8,
            prev_hash: u64::MAX,
            entries: vec![
                log_entry(9, RegionOp::Append((0..=255).collect())),
                log_entry(10, RegionOp::Replace(b"snapshot bytes".to_vec())),
                log_entry(11, RegionOp::Append(vec![])),
            ],
        },
    );
    v.case(
        "peer.replicate.heartbeat",
        PeerRequest::Replicate {
            term: 3,
            leader: "a".into(),
            leader_hint: String::new(),
            prev_index: 0,
            prev_hash: 0,
            entries: vec![],
        },
    );
    v.case(
        "peer.leader_claim",
        PeerRequest::LeaderClaim {
            term: 4,
            candidate: "b".into(),
            candidate_hint: "127.0.0.1:7451".into(),
            last_index: 9,
            last_term: 3,
        },
    );
    v.case(
        "peer.pre_vote",
        PeerRequest::PreVote {
            term: 4,
            candidate: "b".into(),
            last_index: 9,
            last_term: 3,
        },
    );
    v.case(
        "peer.repair",
        PeerRequest::Repair {
            term: 4,
            follower: "c".into(),
            from_index: 5,
            from_hash: 0xDEAD_BEEF,
        },
    );
    v.case(
        "peer.sync_chunk",
        PeerRequest::SyncChunk {
            term: 4,
            leader: "a".into(),
            leader_hint: "127.0.0.1:7450".into(),
            session: 77,
            seq: 1,
            total: 3,
            region: "journal".into(),
            offset: 4096,
            bytes: vec![0, 1, 0x7f, 0x80, 0xff],
            checksum: u64::MAX,
            last_index: 11,
            last_hash: 12,
            last_term: 3,
        },
    );
    v.case(
        "peer_reply.replicate_ack",
        PeerReply::ReplicateAck {
            term: 3,
            last_index: 11,
            log_hash: u64::MAX,
            ok: true,
        },
    );
    v.case(
        "peer_reply.vote",
        PeerReply::Vote {
            term: 4,
            granted: false,
        },
    );
    v.case(
        "peer_reply.pre_vote_ack",
        PeerReply::PreVoteAck {
            term: 4,
            granted: true,
        },
    );
    v.case(
        "peer_reply.repair_chunk",
        PeerReply::RepairChunk {
            term: 4,
            ok: true,
            entries: vec![log_entry(6, RegionOp::Append(vec![1, 2, 3]))],
            last_index: 11,
        },
    );
    v.case(
        "peer_reply.chunk_ack",
        PeerReply::ChunkAck {
            term: 4,
            seq: 1,
            ok: false,
        },
    );

    for (i, event) in security_events().into_iter().enumerate() {
        v.case(&format!("event.{i}"), event);
    }
    v.case("snapshot", snapshot());
    v.case("snapshot.empty", ServiceSnapshot::default());
}

fn golden(file: &str) -> Vec<u8> {
    let path = format!("{}/tests/golden/{file}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn golden_lines(file: &str) -> Vec<String> {
    String::from_utf8(golden(file))
        .expect("golden text is utf-8")
        .lines()
        .map(str::to_string)
        .collect()
}

/// The mutations of one frame whose fate the old decoder recorded in
/// `parity.txt`, in a fixed order. Each is applied at every object of
/// the document, outermost first.
fn mutations(frame: &Json) -> Vec<String> {
    let mut out = Vec::new();
    let objects = object_paths(frame);
    for path in &objects {
        let pairs = object_at(frame, path);
        // Keys in reverse order.
        let mut reversed = pairs.to_vec();
        reversed.reverse();
        out.push(with_object(frame, path, reversed));
        // An unknown key: scalar, nested, and deeper than the parser goes.
        for unknown in [
            Json::I64(1),
            Json::obj(vec![("k", Json::Arr(vec![Json::Null, Json::str(UGLY)]))]),
            nested(MAX_DEPTH + 1),
        ] {
            let mut extra = pairs.to_vec();
            extra.insert(0, ("zz_unknown".to_string(), unknown));
            out.push(with_object(frame, path, extra));
        }
        for (i, (key, value)) in pairs.iter().enumerate() {
            // The key again, after the first, with a value of another type.
            let mut repeated = pairs.to_vec();
            repeated.push((key.clone(), Json::Arr(vec![Json::Bool(true)])));
            out.push(with_object(frame, path, repeated));
            // The key removed.
            let mut removed = pairs.to_vec();
            removed.remove(i);
            out.push(with_object(frame, path, removed));
            // Null, and the numbers a `u64` must refuse, in its place.
            let mut stand_ins = vec![Json::Null];
            if matches!(value, Json::I64(_) | Json::U64(_)) {
                stand_ins.extend([Json::F64(1.0), Json::I64(-1), Json::F64(2e70)]);
            }
            for stand_in in stand_ins {
                let mut replaced = pairs.to_vec();
                replaced[i].1 = stand_in;
                out.push(with_object(frame, path, replaced));
            }
        }
    }
    out
}

/// `[[[…]]]`, `depth` arrays deep.
fn nested(depth: usize) -> Json {
    (0..depth).fold(Json::Null, |inner, _| Json::Arr(vec![inner]))
}

/// The path (child indices from the root) of every object in `json`.
fn object_paths(json: &Json) -> Vec<Vec<usize>> {
    fn walk(json: &Json, here: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        let children: Vec<&Json> = match json {
            Json::Obj(pairs) => {
                out.push(here.clone());
                pairs.iter().map(|(_, v)| v).collect()
            }
            Json::Arr(items) => items.iter().collect(),
            _ => return,
        };
        for (i, child) in children.into_iter().enumerate() {
            here.push(i);
            walk(child, here, out);
            here.pop();
        }
    }
    let mut out = Vec::new();
    walk(json, &mut Vec::new(), &mut out);
    out
}

fn object_at<'j>(json: &'j Json, path: &[usize]) -> &'j [(String, Json)] {
    let mut at = json;
    for &i in path {
        at = match at {
            Json::Obj(pairs) => &pairs[i].1,
            Json::Arr(items) => &items[i],
            _ => unreachable!("paths lead through containers"),
        };
    }
    at.as_obj().expect("path ends at an object")
}

/// `json` printed with the object at `path` replaced by `pairs`.
fn with_object(json: &Json, path: &[usize], pairs: Vec<(String, Json)>) -> String {
    fn rebuild(json: &Json, path: &[usize], pairs: Vec<(String, Json)>) -> Json {
        let Some((&i, rest)) = path.split_first() else {
            return Json::Obj(pairs);
        };
        let mut copy = json.clone();
        match &mut copy {
            Json::Obj(children) => children[i].1 = rebuild(&children[i].1, rest, pairs),
            Json::Arr(children) => children[i] = rebuild(&children[i], rest, pairs),
            _ => unreachable!("paths lead through containers"),
        }
        copy
    }
    rebuild(json, path, pairs).to_string()
}

/// `-` when `text` is refused, `=` when it decodes to what `frame` does,
/// else the decoded value printed again.
fn verdict<T: ToJson + FromJson>(frame: &str, text: &str) -> String {
    match from_str::<T>(text).map(|value| to_string(&value)) {
        Ok(printed) if printed == frame => "=".to_string(),
        Ok(printed) => printed,
        Err(_) => "-".to_string(),
    }
}

struct Frames {
    lines: std::vec::IntoIter<String>,
}

impl Visitor for Frames {
    fn case<T: ToJson + FromJson + PartialEq + Debug>(&mut self, name: &str, value: T) {
        let line = self.lines.next().expect("a golden frame per case");
        let (filed, frame) = line.split_once('\t').expect("`<case>\\t<json>`");
        assert_eq!(filed, name);
        assert_eq!(to_string(&value), frame, "{name}: encoder output moved");
        let back: T = from_str(frame).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(back, value, "{name}");
        // The document printer and the typed writers agree on every byte.
        assert_eq!(Json::parse(frame).unwrap().to_string(), frame, "{name}");

        // No prefix of a frame is a frame, and nothing may follow one.
        for cut in (0..frame.len()).filter(|&cut| frame.is_char_boundary(cut)) {
            assert!(from_str::<T>(&frame[..cut]).is_err(), "{name} cut at {cut}");
        }
        for tail in ["x", "{}", ",", "\u{0}"] {
            assert!(from_str::<T>(&format!("{frame}{tail}")).is_err(), "{name}");
        }
        let spaced: T = from_str(&format!(" \t\r\n{frame}\n ")).unwrap();
        assert_eq!(spaced, value, "{name}: whitespace around a frame");
    }
}

#[test]
fn frames_are_byte_equal_to_the_tree_encoders_and_decode_back() {
    let mut frames = Frames {
        lines: golden_lines("frames.txt").into_iter(),
    };
    for_each_case(&mut frames);
    assert!(frames.lines.next().is_none(), "a case per golden frame");
}

struct Parity {
    lines: std::vec::IntoIter<String>,
    frames: std::vec::IntoIter<String>,
    /// Mutations refused, decoded to the frame's value, and decoded to
    /// another value (a `null` in an optional field).
    refused: usize,
    same: usize,
    other: usize,
}

impl Visitor for Parity {
    fn case<T: ToJson + FromJson + PartialEq + Debug>(&mut self, name: &str, _value: T) {
        let line = self.frames.next().expect("a golden frame per case");
        let frame = line.split_once('\t').expect("`<case>\\t<json>`").1;
        for mutated in mutations(&Json::parse(frame).unwrap()) {
            let line = self.lines.next().expect("a parity line per mutation");
            let expected = format!("{name}\t{}\t", mutated.len());
            let expected = line
                .strip_prefix(&expected)
                .unwrap_or_else(|| panic!("{name}: the mutations moved: {line}"));
            let got = verdict::<T>(frame, &mutated);
            assert_eq!(got, expected, "{name}: {mutated}");
            match got.as_str() {
                "-" => self.refused += 1,
                "=" => self.same += 1,
                _ => self.other += 1,
            }
        }
    }
}

#[test]
fn mutated_frames_meet_the_tree_decoders_verdict() {
    let mut parity = Parity {
        lines: golden_lines("parity.txt").into_iter(),
        frames: golden_lines("frames.txt").into_iter(),
        refused: 0,
        same: 0,
        other: 0,
    };
    for_each_case(&mut parity);
    assert!(parity.lines.next().is_none(), "a mutation per parity line");
    assert!(parity.refused > 1_000 && parity.same > 1_000 && parity.other > 10);
}

/// The rules the recorded verdicts follow, spelled out on one frame.
#[test]
fn the_decoder_accepts_what_it_is_documented_to_accept() {
    let crr_text = r#"{"issuer":"svc","cert_id":4}"#;
    let expected = crr("svc", 4);
    for accepted in [
        r#"{"cert_id":4,"issuer":"svc"}"#,
        r#"{"issuer":"svc","cert_id":4,"issuer":7,"cert_id":"x"}"#,
        r#"{"x":{"y":[1,2.5e3,"😀"]},"issuer":"svc","cert_id":4}"#,
        r#" { "issuer" : "svc" , "cert_id" : 4 } "#,
        r#"{"iss\u0075er":"svc","cert_id":4}"#,
    ] {
        assert_eq!(from_str::<Crr>(accepted).unwrap(), expected, "{accepted}");
    }
    // `-0` is the integer 0 to the number grammar, so a `u64` takes it.
    let zero = from_str::<Crr>(r#"{"issuer":"svc","cert_id":-0}"#).unwrap();
    assert_eq!(zero, crr("svc", 0));
    // The unknown value sits one level down; its innermost `null` may be
    // at level `MAX_DEPTH` and no deeper.
    let unknown = |depth| format!(r#"{{"x":{},"issuer":"svc","cert_id":4}}"#, nested(depth));
    let (deepest_allowed, deep) = (unknown(MAX_DEPTH - 1), unknown(MAX_DEPTH));
    assert_eq!(from_str::<Crr>(&deepest_allowed).unwrap(), expected);
    for refused in [
        deep.as_str(),
        r#"{"issuer":"svc"}"#,
        r#"{"issuer":null,"cert_id":4}"#,
        r#"{"issuer":"svc","cert_id":null}"#,
        r#"{"issuer":"svc","cert_id":4.0}"#,
        r#"{"issuer":"svc","cert_id":-1}"#,
        r#"{"issuer":"svc","cert_id":2e70}"#,
        r#"{"issuer":"svc","cert_id":18446744073709551616}"#,
        r#"{"issuer":"svc","cert_id":04}"#,
        r#"{"issuer":"svc","cert_id":4,}"#,
        r#"{"issuer":"svc","cert_id":4,"x":[1,]}"#,
        r#"{"issuer":"svc","cert_id":4,"x":"\ud83d"}"#,
        r#"{"issuer":"svc","cert_id":4} x"#,
        r#"["svc",4]"#,
        "\"svc\"",
        "",
    ] {
        assert!(from_str::<Crr>(refused).is_err(), "{refused}");
    }
    assert_eq!(to_string(&expected), crr_text);

    // Options are required but nullable; only the envelope's `ms` and
    // `trace` (and a legacy snapshot's `retained`) may be absent.
    assert!(from_str::<Response>(r#"{"NotLeader":{}}"#).is_err());
    assert!(from_str::<Envelope>(r#"{"Deadline":{"req":"Ping"}}"#).is_ok());
    assert!(from_str::<Envelope>(r#"{"Deadline":{"ms":null,"req":"Ping"}}"#).is_err());
    assert!(from_str::<Envelope>(r#"{"Deadline":{"ms":1}}"#).is_err());
    assert!(from_str::<Envelope>(r#"{"Deadline":7}"#).is_err());
    // A variant is one key; unit variants are bare strings, not keys.
    assert!(from_str::<Request>(r#"{"Ping":null}"#).is_err());
    assert!(from_str::<Request>(r#"{"Resync":{"topic":"t","after_topic_seq":1},"x":1}"#).is_err());
    assert!(from_str::<Request>("{}").is_err());
    assert!(from_str::<Request>("\"Pong\"").is_err());
}

#[test]
fn invalid_utf8_is_refused_before_the_codec_sees_it() {
    use oasis_wire::frame::read_frame;
    let mut frame = 6u32.to_be_bytes().to_vec();
    frame.extend_from_slice(b"\"P\xffng\"");
    let err = read_frame::<_, Request>(&mut frame.as_slice()).unwrap_err();
    assert!(matches!(err, oasis_wire::WireError::Malformed(_)), "{err}");
}

#[test]
fn a_journal_and_a_snapshot_written_by_the_tree_encoder_recover() {
    let events = security_events();

    let old = Arc::new(MemBackend::new());
    old.append(&golden("journal.region")).unwrap();
    let (journal, tail) = Journal::<SecurityEvent>::open(old).unwrap();
    assert!(!tail.torn);
    let loaded = journal.load().unwrap();
    let recovered: Vec<SecurityEvent> = loaded.records.into_iter().map(|(_, e)| e).collect();
    assert_eq!(recovered, events);

    // The same events written now leave the same bytes: one batch, then
    // one at a time, as the fixture was written.
    let new = Arc::new(MemBackend::new());
    let (journal, _) = Journal::<SecurityEvent>::open(new.clone()).unwrap();
    let (batch, singles) = events.split_at(4);
    journal.append_batch(batch).unwrap();
    for event in singles {
        journal.append(event).unwrap();
    }
    assert_eq!(new.read().unwrap(), golden("journal.region"));

    let old = Arc::new(MemBackend::new());
    old.replace(&golden("snapshot.region")).unwrap();
    let loaded = SnapshotStore::<ServiceSnapshot>::new(old).load().unwrap();
    let (covered_seq, state) = loaded.snapshot.expect("the fixture holds a snapshot");
    assert_eq!((covered_seq, state), (9, snapshot()));
    let new = Arc::new(MemBackend::new());
    SnapshotStore::new(new.clone())
        .write(9, &snapshot())
        .unwrap();
    assert_eq!(new.read().unwrap(), golden("snapshot.region"));
}
