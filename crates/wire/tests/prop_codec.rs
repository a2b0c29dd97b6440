//! Properties of the single-pass codec over generated protocol values and
//! hostile input: every value survives `to_string` → `from_str`, the typed
//! writers and the document printer agree byte for byte, and no input —
//! random bytes, random text, or a valid frame with random damage — makes
//! a typed decoder panic or accept what the document parser refuses.

use std::fmt::Debug;

use proptest::prelude::*;
use proptest::TestRng;

use oasis_core::cert::{AppointmentCertificate, CredStatus, CredentialKind, Rmc};
use oasis_core::durable::RetainedEntry;
use oasis_core::{
    Atom, CertEvent, CertEventKind, CertId, CmpOp, CredRecord, Credential, Crr, PrincipalId,
    RoleName, SecurityEvent, ServiceId, Term, Value,
};
use oasis_crypto::{MacSignature, PublicKey, SecretEpoch};
use oasis_json::{from_str, to_string, FromJson, Json, ToJson};
use oasis_store::replicated::{LogEntry, RegionOp};
use oasis_store::{PeerReply, PeerRequest};
use oasis_wire::frame::read_frame;
use oasis_wire::proto::{Envelope, Request, Response, RetainedEvent};

// ---------------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------------

/// Integers from where encodings change: around zero, `i64::MAX` (the
/// printer's `I64`/`U64` seam) and `u64::MAX`, or anywhere.
fn num(rng: &mut TestRng) -> u64 {
    const EDGES: [u64; 7] = [0, 1, 9, 10, i64::MAX as u64, i64::MAX as u64 + 1, u64::MAX];
    match rng.below(3) {
        0 => EDGES[rng.below(EDGES.len())],
        1 => rng.below(1000) as u64,
        _ => rng.next_u64(),
    }
}

fn flag(rng: &mut TestRng) -> bool {
    rng.below(2) == 1
}

/// Short strings over every escape class, DEL and multi-byte UTF-8.
fn text(rng: &mut TestRng) -> String {
    const ALPHABET: [&str; 20] = [
        "a", "Z", "0", " ", "\"", "\\", "/", "\n", "\r", "\t", "\u{8}", "\u{c}", "\u{0}", "\u{1f}",
        "\u{7f}", "é", "☃", "😀", "{", ":",
    ];
    (0..rng.below(7))
        .map(|_| ALPHABET[rng.below(ALPHABET.len())])
        .collect()
}

fn some<T>(rng: &mut TestRng, make: impl FnOnce(&mut TestRng) -> T) -> Option<T> {
    flag(rng).then(|| make(rng))
}

fn several<T>(rng: &mut TestRng, mut make: impl FnMut(&mut TestRng) -> T) -> Vec<T> {
    (0..rng.below(4)).map(|_| make(rng)).collect()
}

fn bytes(rng: &mut TestRng) -> Vec<u8> {
    (0..rng.below(40)).map(|_| rng.next_u64() as u8).collect()
}

fn array<const N: usize>(rng: &mut TestRng) -> [u8; N] {
    std::array::from_fn(|_| rng.next_u64() as u8)
}

fn value(rng: &mut TestRng) -> Value {
    match rng.below(5) {
        0 => Value::id(text(rng)),
        1 => Value::str(text(rng)),
        2 => Value::Int(num(rng) as i64),
        3 => Value::Bool(flag(rng)),
        _ => Value::Time(num(rng)),
    }
}

fn crr(rng: &mut TestRng) -> Crr {
    Crr::new(ServiceId::new(text(rng)), CertId(num(rng)))
}

fn credential(rng: &mut TestRng) -> Credential {
    if flag(rng) {
        Credential::Rmc(rmc(rng))
    } else {
        Credential::Appointment(AppointmentCertificate {
            crr: crr(rng),
            name: text(rng),
            args: several(rng, value),
            issued_at: num(rng),
            expires_at: some(rng, num),
            holder_key: some(rng, |rng| PublicKey(array(rng))),
            epoch: SecretEpoch(num(rng)),
            signature: MacSignature(array(rng)),
        })
    }
}

fn rmc(rng: &mut TestRng) -> Rmc {
    Rmc {
        crr: crr(rng),
        role: RoleName::new(text(rng)),
        args: several(rng, value),
        issued_at: num(rng),
        holder_key: some(rng, |rng| PublicKey(array(rng))),
        epoch: SecretEpoch(num(rng)),
        signature: MacSignature(array(rng)),
    }
}

fn cert_event(rng: &mut TestRng) -> CertEvent {
    CertEvent {
        crr: crr(rng),
        kind: CertEventKind::Revoked { reason: text(rng) },
    }
}

fn log_entry(rng: &mut TestRng) -> LogEntry {
    LogEntry {
        index: num(rng),
        term: num(rng),
        region: text(rng),
        op: if flag(rng) {
            RegionOp::Append(bytes(rng))
        } else {
            RegionOp::Replace(bytes(rng))
        },
    }
}

fn peer_request(rng: &mut TestRng) -> PeerRequest {
    match rng.below(5) {
        0 => PeerRequest::Replicate {
            term: num(rng),
            leader: text(rng),
            leader_hint: text(rng),
            prev_index: num(rng),
            prev_hash: num(rng),
            entries: several(rng, log_entry),
        },
        1 => PeerRequest::LeaderClaim {
            term: num(rng),
            candidate: text(rng),
            candidate_hint: text(rng),
            last_index: num(rng),
            last_term: num(rng),
        },
        2 => PeerRequest::PreVote {
            term: num(rng),
            candidate: text(rng),
            last_index: num(rng),
            last_term: num(rng),
        },
        3 => PeerRequest::Repair {
            term: num(rng),
            follower: text(rng),
            from_index: num(rng),
            from_hash: num(rng),
        },
        _ => PeerRequest::SyncChunk {
            term: num(rng),
            leader: text(rng),
            leader_hint: text(rng),
            session: num(rng),
            seq: num(rng),
            total: num(rng),
            region: text(rng),
            offset: num(rng),
            bytes: bytes(rng),
            checksum: num(rng),
            last_index: num(rng),
            last_hash: num(rng),
            last_term: num(rng),
        },
    }
}

fn peer_reply(rng: &mut TestRng) -> PeerReply {
    match rng.below(5) {
        0 => PeerReply::ReplicateAck {
            term: num(rng),
            last_index: num(rng),
            log_hash: num(rng),
            ok: flag(rng),
        },
        1 => PeerReply::Vote {
            term: num(rng),
            granted: flag(rng),
        },
        2 => PeerReply::PreVoteAck {
            term: num(rng),
            granted: flag(rng),
        },
        3 => PeerReply::RepairChunk {
            term: num(rng),
            ok: flag(rng),
            entries: several(rng, log_entry),
            last_index: num(rng),
        },
        _ => PeerReply::ChunkAck {
            term: num(rng),
            seq: num(rng),
            ok: flag(rng),
        },
    }
}

fn request(rng: &mut TestRng) -> Request {
    match rng.below(8) {
        0 => Request::Activate {
            principal: PrincipalId::new(text(rng)),
            role: text(rng),
            args: several(rng, value),
            credentials: several(rng, credential),
            now: num(rng),
        },
        1 => Request::Invoke {
            principal: PrincipalId::new(text(rng)),
            method: text(rng),
            args: several(rng, value),
            credentials: several(rng, credential),
            now: num(rng),
        },
        2 => Request::Validate {
            credential: Box::new(credential(rng)),
            presenter: PrincipalId::new(text(rng)),
            now: num(rng),
        },
        3 => Request::Revoke {
            cert_id: num(rng),
            reason: text(rng),
            now: num(rng),
        },
        4 => Request::Resync {
            topic: text(rng),
            after_topic_seq: num(rng),
        },
        5 => Request::Peer {
            req: peer_request(rng),
        },
        6 => Request::Ping,
        _ => Request::Metrics,
    }
}

fn envelope(rng: &mut TestRng) -> Envelope {
    Envelope {
        deadline_ms: some(rng, num),
        request: request(rng),
        trace: some(rng, |rng| oasis_obs::TraceCtx {
            trace_id: num(rng),
            parent_span: num(rng),
            hop: num(rng) as u32,
        }),
    }
}

fn response(rng: &mut TestRng) -> Response {
    match rng.below(12) {
        0 => Response::Activated {
            rmc: Box::new(rmc(rng)),
        },
        1 => Response::Invoked {
            used: several(rng, crr),
        },
        2 => Response::Valid,
        3 => Response::Revoked {
            was_active: flag(rng),
        },
        4 => Response::Resynced {
            events: several(rng, |rng| RetainedEvent {
                topic: text(rng),
                topic_seq: num(rng),
                global_seq: num(rng),
                timestamp: num(rng),
                payload: cert_event(rng),
            }),
            complete: flag(rng),
        },
        5 => Response::PeerAck {
            reply: peer_reply(rng),
        },
        6 => Response::NotLeader {
            hint: some(rng, text),
        },
        7 => Response::Pong,
        8 => Response::Metrics {
            snapshot: text(rng),
        },
        9 => Response::Overloaded {
            retry_after_ms: num(rng),
        },
        10 => Response::DeadlineExceeded,
        _ => Response::Error { message: text(rng) },
    }
}

fn term(rng: &mut TestRng) -> Term {
    match rng.below(3) {
        0 => Term::val(value(rng)),
        1 => Term::var(text(rng)),
        _ => Term::Wildcard,
    }
}

fn atom(rng: &mut TestRng) -> Atom {
    const OPS: [CmpOp; 6] = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ];
    match rng.below(5) {
        0 => Atom::Prereq {
            service: some(rng, |rng| ServiceId::new(text(rng))),
            role: RoleName::new(text(rng)),
            args: several(rng, term),
        },
        1 => Atom::Appointment {
            issuer: some(rng, |rng| ServiceId::new(text(rng))),
            name: text(rng),
            args: several(rng, term),
        },
        2 => Atom::EnvFact {
            relation: text(rng),
            args: several(rng, term),
            negated: flag(rng),
        },
        3 => Atom::EnvCompare {
            left: term(rng),
            op: OPS[rng.below(OPS.len())],
            right: term(rng),
        },
        _ => Atom::EnvPredicate {
            name: text(rng),
            args: several(rng, term),
        },
    }
}

fn security_event(rng: &mut TestRng) -> SecurityEvent {
    match rng.below(7) {
        0 => SecurityEvent::CertIssued {
            record: CredRecord {
                crr: crr(rng),
                principal: PrincipalId::new(text(rng)),
                kind: if flag(rng) {
                    CredentialKind::Rmc
                } else {
                    CredentialKind::Appointment
                },
                name: text(rng),
                args: several(rng, value),
                issued_at: num(rng),
                expires_at: some(rng, num),
                status: match rng.below(3) {
                    0 => CredStatus::Active,
                    1 => CredStatus::Revoked {
                        reason: text(rng),
                        at: num(rng),
                    },
                    _ => CredStatus::Expired { at: num(rng) },
                },
            },
            depends_on: several(rng, crr),
            retained_checks: several(rng, atom),
        },
        1 => SecurityEvent::ValidationGranted {
            crr: crr(rng),
            presenter: PrincipalId::new(text(rng)),
            at: num(rng),
        },
        2 => SecurityEvent::CertRevoked {
            cert_id: CertId(num(rng)),
            reason: text(rng),
            at: num(rng),
        },
        3 => SecurityEvent::CertExpired {
            cert_id: CertId(num(rng)),
            at: num(rng),
        },
        4 => SecurityEvent::RevocationApplied {
            topic: text(rng),
            topic_seq: num(rng),
            global_seq: num(rng),
            crr: crr(rng),
        },
        5 => SecurityEvent::EpochChanged {
            epoch: num(rng),
            at: num(rng),
        },
        _ => SecurityEvent::RetainedPublished {
            entry: RetainedEntry {
                topic: text(rng),
                topic_seq: num(rng),
                global_seq: num(rng),
                timestamp: num(rng),
                event: cert_event(rng),
            },
        },
    }
}

/// `text` with a few random edits: bytes dropped, doubled, or replaced by
/// the characters JSON is made of. Mostly no longer a frame, sometimes
/// still one.
fn damaged(rng: &mut TestRng, text: &str) -> Vec<u8> {
    const SHRAPNEL: &[u8] = b"{}[]\",:\\ 0-9.eEnulltrue\xff\x00";
    let mut bytes = text.as_bytes().to_vec();
    for _ in 0..=rng.below(3) {
        if bytes.is_empty() {
            break;
        }
        let at = rng.below(bytes.len());
        match rng.below(3) {
            0 => drop(bytes.remove(at)),
            1 => bytes.insert(at, bytes[at]),
            _ => bytes[at] = SHRAPNEL[rng.below(SHRAPNEL.len())],
        }
    }
    bytes
}

// ---------------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------------

fn round_trips<T: ToJson + FromJson + PartialEq + Debug>(value: &T) {
    let text = to_string(value);
    let back: T = from_str(&text).unwrap_or_else(|e| panic!("{e}: {text}"));
    assert_eq!(&back, value, "{text}");
    let document = Json::parse(&text).unwrap_or_else(|e| panic!("{e}: {text}"));
    assert_eq!(document.to_string(), text);
}

/// A typed decoder may refuse what the document parser takes, never the
/// reverse; neither may panic. The same through the framing layer, which
/// is where bytes that are not UTF-8 are refused.
fn hostile<T: FromJson>(payload: &[u8]) {
    if let Ok(text) = std::str::from_utf8(payload) {
        if from_str::<T>(text).is_ok() {
            assert!(Json::parse(text).is_ok(), "{text}");
        }
    }
    let mut frame = (payload.len() as u32).to_be_bytes().to_vec();
    frame.extend_from_slice(payload);
    let framed = matches!(read_frame::<_, T>(&mut frame.as_slice()), Ok(Some(_)));
    let parsed = std::str::from_utf8(payload).is_ok_and(|text| from_str::<T>(text).is_ok());
    assert_eq!(framed, parsed);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn generated_values_round_trip_and_print_as_documents_do(
        envelope in BoxedStrategy::from_fn(envelope),
        response in BoxedStrategy::from_fn(response),
        peer_request in BoxedStrategy::from_fn(peer_request),
        peer_reply in BoxedStrategy::from_fn(peer_reply),
        event in BoxedStrategy::from_fn(security_event),
    ) {
        round_trips(&envelope);
        round_trips(&envelope.request);
        round_trips(&response);
        round_trips(&peer_request);
        round_trips(&peer_reply);
        round_trips(&event);
    }

    #[test]
    fn arbitrary_bytes_and_text_are_refused_or_parse_as_json_too(
        bytes in proptest::collection::vec(any::<u8>(), 0..120),
        text in "[ -~é☃\\n\\t]{0,80}",
        jsonish in "[{}\\[\\]\",:\\\\a-fnrtulsDP0-9.eE +-]{0,40}",
    ) {
        for payload in [bytes.as_slice(), text.as_bytes(), jsonish.as_bytes()] {
            hostile::<Envelope>(payload);
            hostile::<Response>(payload);
            hostile::<PeerRequest>(payload);
        }
    }

    #[test]
    fn damaged_frames_are_refused_or_parse_as_json_too(
        frames in BoxedStrategy::from_fn(|rng| {
            let texts = [
                to_string(&envelope(rng)),
                to_string(&response(rng)),
                to_string(&peer_request(rng)),
            ];
            texts.map(|text| damaged(rng, &text))
        }),
    ) {
        let [envelope, response, peer_request] = frames;
        hostile::<Envelope>(&envelope);
        hostile::<Response>(&response);
        hostile::<PeerRequest>(&peer_request);
        // Damage aimed at one type is noise to the others.
        hostile::<Response>(&envelope);
        hostile::<Envelope>(&peer_request);
    }
}
