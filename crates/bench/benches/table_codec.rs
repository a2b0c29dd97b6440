//! TAB-L — what one message costs the wire codec.
//!
//! Every request presents its credentials and every response is read on
//! the spot, so the codec is paid twice per call on each side. This table
//! takes the messages of one session lifecycle (login, enter role, invoke
//! with two RMCs, validate, revoke), their responses, a validation
//! callback inside its deadline envelope, and replication frames carrying
//! one 300-byte and one 1 000-byte journal entry, and reports for each:
//! frame bytes, encode and decode time (`encode_frame` /
//! `read_frame`, median of [`ROUNDS`] rounds of [`ITERS`]), and **heap
//! allocations per message**, counted by a [`GlobalAlloc`] wrapper so the
//! counts repeat exactly.
//!
//! Asserted: encoding allocates nothing but the frame buffer (one `alloc`;
//! its growth shows as `realloc`s), and decoding allocates the payload
//! buffer `read_frame` reads into plus no more than the decoded value
//! owns — what its `clone` allocates, plus one per identifier (a clone of
//! an `Arc<str>` identifier is a count bump; a decoder has to build it).
//! Text parameter values (`Value::Id`, `Value::Str`) hold `Arc<str>` too,
//! and count as identifiers.
//!
//! Emitted to `BENCH_codec.json`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

use oasis::core::cert::Rmc;
use oasis::core::{CertId, Credential, Crr, PrincipalId, RoleName, ServiceId, Value};
use oasis::crypto::{KeyPair, MacSignature, SecretEpoch};
use oasis::store::replicated::{LogEntry, RegionOp};
use oasis::store::PeerRequest;
use oasis::wire::frame::{encode_frame, read_frame};
use oasis::wire::proto::{Envelope, Request, Response};
use oasis_bench::{provenance_fields, table_header};
use oasis_json::{FromJson, ToJson};

const ROUNDS: usize = 9;
const ITERS: usize = 20_000;

/// The system allocator, counting calls. Statistics only: the counters
/// publish nothing, so `Relaxed`.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static REALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: the caller's obligations are `System.alloc`'s own.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this wrapper, with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REALLOCS.fetch_add(1, Relaxed);
        // SAFETY: as `dealloc`; `new_size` is the caller's to get right.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `(allocs, reallocs)` made by `f` on this thread's watch. The bench is
/// single-threaded, so nothing else allocates meanwhile.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, u64, T) {
    let before = (ALLOCS.load(Relaxed), REALLOCS.load(Relaxed));
    let out = f();
    (
        ALLOCS.load(Relaxed) - before.0,
        REALLOCS.load(Relaxed) - before.1,
        out,
    )
}

fn rmc(issuer: &str, role: &str, cert: u64, args: Vec<Value>) -> Rmc {
    Rmc {
        crr: Crr::new(ServiceId::new(issuer), CertId(cert)),
        role: RoleName::new(role),
        args,
        issued_at: 1_700_000_000,
        holder_key: Some(KeyPair::from_seed([3; 32]).public_key()),
        epoch: SecretEpoch(0),
        signature: MacSignature([0xAB; 32]),
    }
}

fn login_rmc() -> Rmc {
    rmc("hospital", "logged_in", 41, vec![Value::id("dr-17")])
}

fn doctor_rmc() -> Rmc {
    let args = vec![Value::id("dr-17"), Value::id("patient-204")];
    rmc("hospital", "treating_doctor", 42, args)
}

fn replicate(entry_bytes: usize) -> Request {
    Request::Peer {
        req: PeerRequest::Replicate {
            term: 3,
            leader: "a".into(),
            leader_hint: "127.0.0.1:7450".into(),
            prev_index: 1_041,
            prev_hash: 0x9E37_79B9_7F4A_7C15,
            entries: vec![LogEntry {
                index: 1_042,
                term: 3,
                region: "journal".into(),
                op: RegionOp::Append((0..entry_bytes).map(|i| i as u8).collect()),
            }],
        },
    }
}

/// The messages of the table, requests as the server reads them.
fn requests() -> Vec<(&'static str, Envelope)> {
    let principal = PrincipalId::new("dr-17");
    let validate = Request::Validate {
        credential: Box::new(Credential::Rmc(doctor_rmc())),
        presenter: principal.clone(),
        now: 1_700_000_004,
    };
    vec![
        (
            "login",
            Envelope::bare(Request::Activate {
                principal: principal.clone(),
                role: "logged_in".into(),
                args: vec![Value::id("dr-17")],
                credentials: vec![],
                now: 1_700_000_000,
            }),
        ),
        (
            "enter_role",
            Envelope::bare(Request::Activate {
                principal: principal.clone(),
                role: "treating_doctor".into(),
                args: vec![Value::id("dr-17"), Value::id("patient-204")],
                credentials: vec![Credential::Rmc(login_rmc())],
                now: 1_700_000_001,
            }),
        ),
        (
            "invoke",
            Envelope::bare(Request::Invoke {
                principal,
                method: "read_record".into(),
                args: vec![Value::id("patient-204")],
                credentials: vec![Credential::Rmc(login_rmc()), Credential::Rmc(doctor_rmc())],
                now: 1_700_000_002,
            }),
        ),
        ("validate", Envelope::bare(validate.clone())),
        (
            "revoke",
            Envelope::bare(Request::Revoke {
                cert_id: 42,
                reason: "logout".into(),
                now: 1_700_000_005,
            }),
        ),
        (
            "validate_enveloped",
            Envelope::with_deadline(validate, 30_000),
        ),
        ("replicate_300B", Envelope::bare(replicate(300))),
        ("replicate_1000B", Envelope::bare(replicate(1_000))),
    ]
}

fn responses() -> Vec<(&'static str, Response)> {
    vec![
        (
            "login",
            Response::Activated {
                rmc: Box::new(login_rmc()),
            },
        ),
        (
            "enter_role",
            Response::Activated {
                rmc: Box::new(doctor_rmc()),
            },
        ),
        (
            "invoke",
            Response::Invoked {
                used: vec![login_rmc().crr, doctor_rmc().crr],
            },
        ),
        ("validate", Response::Valid),
        ("revoke", Response::Revoked { was_active: true }),
    ]
}

/// Text values (`Value::Id`, `Value::Str`) among `args`: each holds an
/// `Arc<str>`, so it counts as an identifier.
fn text_values(args: &[Value]) -> u64 {
    args.iter()
        .filter(|v| matches!(v, Value::Id(_) | Value::Str(_)))
        .count() as u64
}

/// Identifiers (`Arc<str>` newtypes and text values) in a message: a
/// decoder allocates each, a clone none.
fn identifiers_in(credentials: &[Credential]) -> u64 {
    credentials
        .iter()
        .map(|c| match c {
            Credential::Rmc(_) => 2,         // issuer, role
            Credential::Appointment(_) => 1, // issuer
        } + text_values(c.args()))
        .sum()
}

fn request_identifiers(request: &Request) -> u64 {
    match request {
        Request::Activate {
            args, credentials, ..
        }
        | Request::Invoke {
            args, credentials, ..
        } => 1 + text_values(args) + identifiers_in(credentials),
        Request::Validate { credential, .. } => {
            1 + identifiers_in(std::slice::from_ref(credential))
        }
        _ => 0,
    }
}

fn response_identifiers(response: &Response) -> u64 {
    match response {
        Response::Activated { rmc } => 2 + text_values(&rmc.args),
        Response::Invoked { used } => used.len() as u64,
        _ => 0,
    }
}

struct Row {
    name: String,
    frame_bytes: usize,
    encode_ns: f64,
    decode_ns: f64,
    encode_allocs: u64,
    encode_reallocs: u64,
    decode_allocs: u64,
    decode_reallocs: u64,
    value_allocs: u64,
}

/// Median ns per call of `f` over [`ROUNDS`] rounds of [`ITERS`].
fn median_ns(mut f: impl FnMut()) -> f64 {
    let mut rounds: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..ITERS {
                f();
            }
            started.elapsed().as_nanos() as f64 / ITERS as f64
        })
        .collect();
    rounds.sort_by(f64::total_cmp);
    rounds[ROUNDS / 2]
}

fn measure<M>(name: String, message: &M, identifiers: u64) -> Row
where
    M: ToJson + FromJson + Clone + PartialEq + std::fmt::Debug,
{
    let frame = encode_frame(message).expect("message encodes");
    let (encode_allocs, encode_reallocs, again) = allocations(|| encode_frame(message));
    assert_eq!(again.expect("message encodes"), frame);
    let (decode_allocs, decode_reallocs, back) =
        allocations(|| read_frame::<_, M>(&mut frame.as_slice()));
    assert_eq!(back.expect("frame decodes").as_ref(), Some(message));
    let (clone_allocs, _, _) = allocations(|| black_box(message.clone()));
    let value_allocs = clone_allocs + identifiers;

    assert_eq!(
        encode_allocs, 1,
        "{name}: encoding allocates the frame buffer and nothing else"
    );
    // `read_frame` reads the payload into one buffer of its own.
    assert!(
        decode_allocs <= 1 + value_allocs,
        "{name}: decoding made {decode_allocs} allocations for a value that owns {value_allocs}"
    );

    Row {
        frame_bytes: frame.len(),
        encode_ns: median_ns(|| {
            black_box(encode_frame(black_box(message)).expect("message encodes"));
        }),
        decode_ns: median_ns(|| {
            black_box(read_frame::<_, M>(&mut black_box(frame.as_slice())).expect("frame decodes"));
        }),
        name,
        encode_allocs,
        encode_reallocs,
        decode_allocs,
        decode_reallocs,
        value_allocs,
    }
}

fn main() {
    table_header(
        "TAB-L: wire codec, per message",
        "one pass each way: encode allocates the frame only, decode only what the value owns",
        "message                        bytes  encode_ns  decode_ns  enc_alloc(+re)  dec_alloc(+re)  value_owns",
    );
    let mut rows = Vec::new();
    for (name, envelope) in requests() {
        let identifiers = request_identifiers(&envelope.request);
        rows.push(measure(format!("request.{name}"), &envelope, identifiers));
    }
    for (name, response) in responses() {
        let identifiers = response_identifiers(&response);
        rows.push(measure(format!("response.{name}"), &response, identifiers));
    }
    for r in &rows {
        println!(
            "{:<29} {:>6} {:>10.0} {:>10.0} {:>11}(+{}) {:>11}(+{}) {:>11}",
            r.name,
            r.frame_bytes,
            r.encode_ns,
            r.decode_ns,
            r.encode_allocs,
            r.encode_reallocs,
            r.decode_allocs,
            r.decode_reallocs,
            r.value_allocs,
        );
    }

    let lines: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"message\": \"{}\", \"frame_bytes\": {}, \"encode_ns\": {:.0}, \"decode_ns\": {:.0}, \
                 \"encode_allocs\": {}, \"encode_reallocs\": {}, \"decode_allocs\": {}, \
                 \"decode_reallocs\": {}, \"value_allocs\": {}}}",
                r.name,
                r.frame_bytes,
                r.encode_ns,
                r.decode_ns,
                r.encode_allocs,
                r.encode_reallocs,
                r.decode_allocs,
                r.decode_reallocs,
                r.value_allocs,
            )
        })
        .collect();
    let json = format!(
        "{{\n  {},\n  \"messages\": [\n{}\n  ]\n}}\n",
        provenance_fields("table_codec", ITERS, ROUNDS, "median of rounds"),
        lines.join(",\n"),
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_codec.json");
    std::fs::write(out, json).expect("write BENCH_codec.json");
    println!("\nwrote BENCH_codec.json");
}
