//! The layer pass: the same seeded lifecycles replayed single-threaded as
//! direct calls into each layer's public functions, every call wrapped in
//! a benchmark-side span. Nothing here is timed by the program under
//! test; the spans are recorded from outside, around the calls.

use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use oasis::core::cert::Rmc;
use oasis::core::{
    AdmissionController, CertEvent, CertEventKind, CertId, Deadline, Lane, OverloadConfig,
    SecurityEvent, ServiceJournal, Submission,
};
use oasis::events::Topic;
use oasis::prelude::*;
use oasis::store::StorageBackend;
use oasis::wire::frame::{read_frame, write_frame};
use oasis::wire::proto::{Envelope, Request, Response};
use oasis::wire::{RemoteValidator, WireClient};
use oasis_json::Json;

use crate::placement;
use crate::report::percentile_us;
use crate::workload::{Lifecycle, Lifecycles, Op, Workload, INVOKES, WARMUP_LIFECYCLES};
use crate::world::{build_services, issuer_secret, Services, World};

/// Lifecycles the layer pass replays (after its own untimed warm-up).
const LAYER_LIFECYCLES: usize = 200;
/// Calls per stand-alone probe.
const PROBE_CALLS: usize = 200;
/// Pings of the RTT probe; fewer, because one costs ~28 ms on
/// `parked_conns`.
const PING_CALLS: usize = 50;

/// One benchmark-side span. `parent` 0 marks a root.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub lifecycle_id: Option<u64>,
}

/// Spans held in memory until the pass ends.
pub struct Spans {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Spans::close`].
    fn open(&mut self, name: &str, parent: u64, lifecycle_id: Option<u64>) -> u64 {
        let id = self.spans.len() as u64 + 1;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            lifecycle_id,
        });
        id
    }

    fn close(&mut self, id: u64) -> u64 {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id as usize - 1];
        span.end_ns = end_ns;
        end_ns - span.start_ns
    }

    /// Runs `call` inside a leaf span; returns its result and duration.
    fn time<T>(
        &mut self,
        name: &str,
        parent: u64,
        lifecycle_id: Option<u64>,
        call: impl FnOnce() -> T,
    ) -> (T, u64) {
        let id = self.open(name, parent, lifecycle_id);
        let result = std::hint::black_box(call());
        (result, self.close(id))
    }

    /// Durations (ns) of every span called `name`.
    fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    }

    fn p50_us(&self, name: &str) -> f64 {
        percentile_us(&self.durations(name), 0.5).unwrap_or(0.0)
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let line = Json::obj(vec![
                ("id", Json::U64(s.id)),
                ("name", Json::str(s.name.clone())),
                ("start_ns", Json::U64(s.start_ns)),
                ("end_ns", Json::U64(s.end_ns)),
                ("parent", Json::U64(s.parent)),
                ("lifecycle_id", s.lifecycle_id.map_or(Json::Null, Json::U64)),
            ]);
            writeln!(file, "{line}")?;
        }
        file.flush()
    }
}

/// What the layer pass measured, before it is turned into named metrics.
#[derive(Debug, Default)]
pub struct LayerTimings {
    /// `core.service.<op>_us`, p50, by [`Op::idx`].
    pub service_us: [f64; 5],
    pub frame_encode_us: f64,
    pub frame_decode_us: f64,
    pub request_bytes: f64,
    pub response_bytes: f64,
    /// Dependents collapsed per revoke on granted lifecycles (must be 1).
    pub cascade_size: f64,
    /// Anything the pass found wrong (a denied lifecycle that cascaded, a
    /// granted one that did not).
    pub violations: Vec<String>,
    pub ping_rtt_us: f64,
    pub callback_us: f64,
    pub admit_us: f64,
    pub sign_us: f64,
    pub verify_us: f64,
    pub journal_append_us: f64,
    pub replicated_commit_us: f64,
    pub bus_publish_us: f64,
}

/// The request and response frames of one operation, encoded and decoded
/// against a `Vec<u8>` exactly as client and server would.
fn frames(
    spans: &mut Spans,
    op_span: u64,
    lc: u64,
    request: &Request,
    response: &Response,
    bytes: &mut (u64, u64),
) {
    let mut buf = Vec::new();
    // The client writes a bare request when it carries no deadline or
    // trace; the server always reads an `Envelope`.
    spans.time("wire.frame.encode", op_span, Some(lc), || {
        write_frame(&mut buf, request).expect("request encodes")
    });
    bytes.0 += buf.len() as u64;
    spans.time("wire.frame.decode", op_span, Some(lc), || {
        read_frame::<_, Envelope>(&mut buf.as_slice()).expect("request decodes")
    });
    buf.clear();
    spans.time("wire.frame.encode", op_span, Some(lc), || {
        write_frame(&mut buf, response).expect("response encodes")
    });
    bytes.1 += buf.len() as u64;
    spans.time("wire.frame.decode", op_span, Some(lc), || {
        read_frame::<_, Response>(&mut buf.as_slice()).expect("response decodes")
    });
}

fn revoked_records(sv: &Services) -> usize {
    sv.distinct().iter().map(|s| s.record_stats().1).sum()
}

fn error_response(e: &OasisError) -> Response {
    Response::Error {
        message: e.to_string(),
    }
}

/// The spans and byte counts one replayed lifecycle adds to. Without
/// `spans` (the pass's own warm-up) the calls are made bare.
struct Replay<'a> {
    spans: Option<&'a mut Spans>,
    /// The open `lifecycle` span.
    root: u64,
    lifecycle_id: u64,
    /// Request and response bytes framed so far.
    bytes: &'a mut (u64, u64),
}

impl Replay<'_> {
    /// One operation: the core call in its own span, then the frames that
    /// would have carried it. Returns the core call's result.
    fn op<T>(
        &mut self,
        op: Op,
        request: Request,
        call: impl FnOnce() -> T,
        response: impl FnOnce(&T) -> Response,
    ) -> T {
        let Some(spans) = self.spans.as_deref_mut() else {
            return call();
        };
        let lc = Some(self.lifecycle_id);
        let op_span = spans.open(&format!("op.{}", op.name()), self.root, lc);
        let name = format!("core.service.{}", op.name());
        let (result, _) = spans.time(&name, op_span, lc, call);
        frames(
            spans,
            op_span,
            self.lifecycle_id,
            &request,
            &response(&result),
            self.bytes,
        );
        spans.close(op_span);
        result
    }
}

/// One lifecycle as direct calls into the services.
fn replay(
    sv: &Services,
    lc: &Lifecycle,
    mut spans: Option<&mut Spans>,
    bytes: &mut (u64, u64),
    out: &mut LayerTimings,
    cascades: &mut Vec<u64>,
) {
    let now = 1_000 + lc.id;
    let ctx = EnvContext::new(now);
    let doctor = PrincipalId::new(lc.doctor.clone());
    let root = spans
        .as_deref_mut()
        .map_or(0, |s| s.open("lifecycle", 0, Some(lc.id)));
    let mut replay = Replay {
        spans,
        root,
        lifecycle_id: lc.id,
        bytes,
    };

    let activated = |r: &Result<Rmc, OasisError>| match r {
        Ok(rmc) => Response::Activated {
            rmc: Box::new(rmc.clone()),
        },
        Err(e) => error_response(e),
    };

    let login_args = vec![Value::id(lc.doctor.clone())];
    let login = replay
        .op(
            Op::Login,
            Request::Activate {
                principal: doctor.clone(),
                role: "logged_in".into(),
                args: login_args.clone(),
                credentials: vec![],
                now,
            },
            || {
                sv.login
                    .activate_role(&doctor, &RoleName::new("logged_in"), &login_args, &[], &ctx)
            },
            activated,
        )
        .expect("login activates in process");
    let login_cred = Credential::Rmc(login.clone());

    let treating_args = vec![Value::id(lc.doctor.clone()), Value::id(lc.patient.clone())];
    let treating = replay.op(
        Op::EnterRole,
        Request::Activate {
            principal: doctor.clone(),
            role: "treating_doctor".into(),
            args: treating_args.clone(),
            credentials: vec![login_cred.clone()],
            now,
        },
        || {
            sv.hospital.activate_role(
                &doctor,
                &RoleName::new("treating_doctor"),
                &treating_args,
                std::slice::from_ref(&login_cred),
                &ctx,
            )
        },
        activated,
    );
    if treating.is_ok() == lc.denied {
        out.violations.push(format!(
            "layer pass lifecycle {}: enter_role answered {treating:?}",
            lc.id
        ));
    }

    if let Ok(treating) = &treating {
        let treating_cred = Credential::Rmc(treating.clone());
        let both = vec![login_cred.clone(), treating_cred.clone()];
        let record = vec![Value::id(lc.patient.clone())];
        for _ in 0..INVOKES {
            replay
                .op(
                    Op::Invoke,
                    Request::Invoke {
                        principal: doctor.clone(),
                        method: "read_record".into(),
                        args: record.clone(),
                        credentials: both.clone(),
                        now,
                    },
                    || {
                        sv.hospital
                            .invoke(&doctor, "read_record", &record, &both, &ctx)
                    },
                    |r| match r {
                        Ok(invocation) => Response::Invoked {
                            used: invocation.used.clone(),
                        },
                        Err(e) => error_response(e),
                    },
                )
                .expect("invoke is authorised in process");
        }
        replay
            .op(
                Op::Validate,
                Request::Validate {
                    credential: Box::new(treating_cred.clone()),
                    presenter: doctor.clone(),
                    now,
                },
                || sv.hospital.validate_own(&treating_cred, &doctor, now),
                |r| match r {
                    Ok(()) => Response::Valid,
                    Err(e) => error_response(e),
                },
            )
            .expect("treating RMC validates in process");
    }

    let revoked_before = revoked_records(sv);
    let was_active = replay.op(
        Op::Revoke,
        Request::Revoke {
            cert_id: login.crr.cert_id.0,
            reason: "logout".into(),
            now,
        },
        || {
            sv.login
                .revoke_certificate(login.crr.cert_id, "logout", now)
        },
        |was_active| Response::Revoked {
            was_active: *was_active,
        },
    );
    let collapsed = (revoked_records(sv) - revoked_before) as u64 - u64::from(was_active);
    if collapsed != u64::from(treating.is_ok()) {
        out.violations.push(format!(
            "layer pass lifecycle {}: revoke collapsed {collapsed} dependents",
            lc.id
        ));
    }
    if treating.is_ok() {
        cascades.push(collapsed);
    }
    if let Some(spans) = replay.spans {
        spans.close(root);
    }
}

/// Replays client 0's lifecycles against an identically built in-process
/// world. On `cross_domain` the relying service reaches the issuer through
/// a `LocalRegistry`, so `core.service.enter_role_us` excludes the network
/// callback that `wire.sync_client.callback_us` measures on its own.
fn lifecycle_pass(workload: Workload, seed: u64, spans: &mut Spans, out: &mut LayerTimings) {
    let sv = build_services(workload, None);
    if workload == Workload::CrossDomain {
        let registry = LocalRegistry::new();
        registry.register(&sv.login);
        sv.hospital.set_validator(Arc::new(registry));
    }
    let mut lifecycles = Lifecycles::new(seed, 0);
    let mut bytes = (0, 0);
    let mut cascades = Vec::new();
    for lc in lifecycles.by_ref().take(WARMUP_LIFECYCLES) {
        replay(&sv, &lc, None, &mut bytes, out, &mut cascades);
    }
    bytes = (0, 0);
    cascades.clear();
    for lc in lifecycles.take(LAYER_LIFECYCLES) {
        replay(&sv, &lc, Some(spans), &mut bytes, out, &mut cascades);
    }

    for op in Op::ALL {
        out.service_us[op.idx()] = spans.p50_us(&format!("core.service.{}", op.name()));
    }
    // Two encodes and two decodes per operation: request and response.
    let ops = spans.durations("wire.frame.encode").len() as f64 / 2.0;
    let pair_p50 = |name: &str| {
        let singles = spans.durations(name);
        let pairs: Vec<u64> = singles.chunks(2).map(|p| p.iter().sum()).collect();
        percentile_us(&pairs, 0.5).unwrap_or(0.0)
    };
    out.frame_encode_us = pair_p50("wire.frame.encode");
    out.frame_decode_us = pair_p50("wire.frame.decode");
    out.request_bytes = bytes.0 as f64 / ops;
    out.response_bytes = bytes.1 as f64 / ops;
    out.cascade_size = cascades.iter().sum::<u64>() as f64 / cascades.len().max(1) as f64;
}

/// Times `calls` runs of `call` as leaf spans under one `probe.<name>`
/// root and returns their p50 in microseconds.
fn probe(spans: &mut Spans, name: &str, calls: usize, mut call: impl FnMut()) -> f64 {
    let root = spans.open(&format!("probe.{name}"), 0, None);
    for _ in 0..calls {
        spans.time(name, root, None, &mut call);
    }
    spans.close(root);
    spans.p50_us(name)
}

fn standalone_probes(spans: &mut Spans, out: &mut LayerTimings) {
    let controller = AdmissionController::new(OverloadConfig::default());
    out.admit_us = probe(
        spans,
        "core.overload.admit",
        PROBE_CALLS,
        || match controller.submit(Lane::Issuance, Deadline::none()) {
            Submission::Admitted(permit) => drop(permit),
            _ => panic!("an idle controller admits at once"),
        },
    );

    let secret = issuer_secret();
    let principal = PrincipalId::new("dr-0");
    let issue = || {
        Rmc::issue(
            &secret.current(),
            secret.current_epoch(),
            &principal,
            Crr::new("hospital".into(), CertId(1)),
            RoleName::new("treating_doctor"),
            vec![Value::id("dr-0"), Value::id("pat-0")],
            1_000,
            None,
        )
    };
    out.sign_us = probe(spans, "crypto.sign", PROBE_CALLS, || {
        std::hint::black_box(issue());
    });
    let rmc = issue();
    out.verify_us = probe(spans, "crypto.verify", PROBE_CALLS, || {
        assert!(rmc.verify(&secret.current(), &principal));
    });

    let journal = ServiceJournal::in_memory();
    let mut cert = 0;
    out.journal_append_us = probe(spans, "store.journal.append", PROBE_CALLS, || {
        cert += 1;
        journal
            .append(&SecurityEvent::CertRevoked {
                cert_id: CertId(cert),
                reason: "logout".into(),
                at: 1_000,
            })
            .expect("in-memory journal appends");
    });

    let bus: EventBus<CertEvent> = EventBus::new();
    bus.subscribe_fn("cred.revoked.*", |event| {
        std::hint::black_box(event);
    })
    .expect("pattern parses");
    let topic = Topic::new("cred.revoked.hospital");
    out.bus_publish_us = probe(spans, "events.bus.publish", PROBE_CALLS, || {
        let delivered = bus.publish_at(
            &topic,
            CertEvent {
                crr: Crr::new("hospital".into(), CertId(1)),
                kind: CertEventKind::Revoked {
                    reason: "logout".into(),
                },
            },
            1_000,
        );
        assert_eq!(delivered, 1);
    });
}

/// Probes that need the served deployment: ping RTT on a client's own
/// connection, the issuer callback (`cross_domain`), a quorum append on
/// the idle cluster's leader (`replicated_civ`).
fn world_probes(world: &World, conn: &mut WireClient, spans: &mut Spans, out: &mut LayerTimings) {
    out.ping_rtt_us = probe(spans, "wire.ping_rtt", PING_CALLS, || {
        conn.ping().expect("ping answers");
    });

    // The callback and the quorum append are made by server workers in the
    // timed run, so these two probes run on the deployment's CPUs.
    std::thread::scope(|scope| {
        scope.spawn(|| {
            placement::deployment_side();
            deployment_probes(world, spans, out);
        });
    });
}

fn deployment_probes(world: &World, spans: &mut Spans, out: &mut LayerTimings) {
    if world.workload == Workload::CrossDomain {
        let doctor = PrincipalId::new("dr-0");
        let mut issuer = WireClient::connect(world.login_addr).expect("probe connects");
        let login = issuer
            .activate(&doctor, "logged_in", vec![Value::id("dr-0")], vec![], 1_000)
            .expect("probe logs in");
        let cred = Credential::Rmc(login.clone());
        let remote = RemoteValidator::new();
        remote.add_issuer("login", world.login_addr);
        out.callback_us = probe(spans, "wire.sync_client.callback", PROBE_CALLS, || {
            remote
                .validate(&cred, &doctor, 1_000)
                .expect("issuer accepts its own RMC");
        });
        issuer
            .revoke(login.crr.cert_id.0, "probe done", 1_000)
            .expect("probe logs out");
    }

    if let Some(cluster) = &world.cluster {
        // A region of its own, so the journal the followers are compared
        // on is left alone.
        let region = cluster.nodes[cluster.leader].replicated("e2e-probe");
        out.replicated_commit_us = probe(spans, "store.replicated.commit", PROBE_CALLS, || {
            region.append(b"probe").expect("idle cluster commits");
        });
    }
}

/// The whole layer pass. `conn` is one of the run's own client
/// connections, idle now that the timed run is over.
pub fn run(world: &World, conn: &mut WireClient, seed: u64) -> (LayerTimings, Spans) {
    let mut spans = Spans::new();
    let mut out = LayerTimings::default();
    lifecycle_pass(world.workload, seed, &mut spans, &mut out);
    standalone_probes(&mut spans, &mut out);
    world_probes(world, conn, &mut spans, &mut out);
    (out, spans)
}
