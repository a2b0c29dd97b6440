//! TAB-K — observability cost and causal coverage (`oasis-obs`).
//!
//! Two claims, one table:
//!
//! * **Overhead**: the unified metrics registry (sharded atomic
//!   counters and log2 histograms) on the warm-activation hot path
//!   costs < 5% versus an explicit `NoopRecorder` baseline. Measured as
//!   min-of-rounds over interleaved baseline/instrumented rounds, each
//!   on a fresh world, so allocator state and record growth cancel.
//! * **Cascade**: one traced revocation against a 3-node replicated CIV
//!   with a live bus subscriber produces a causally-linked span chain —
//!   client → `svc.revoke` → `svc.cascade` (one per subscriber) and
//!   `civ.append` → `civ.follower_ack` ×2 + `civ.commit` — spanning ≥ 4
//!   distinct hop depths under a single trace id. Everything the
//!   cascade journals rides one quorum round flushed under
//!   `svc.revoke`, so the trace carries exactly one append/commit pair
//!   (8 spans) however many records that is. The per-hop latency breakdown is
//!   measured differentially: plain revoke, CIV-journaled revoke, and
//!   CIV + subscriber revoke isolate what each stage adds.
//!
//! Reported (also emitted to `BENCH_obs.json`, with the sample span log
//! in `BENCH_obs_spans.jsonl`): ns/activation for both recorders, the
//! overhead percentage, and the per-stage revocation breakdown.

use std::sync::Arc;
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use oasis::core::ServiceJournal;
use oasis::prelude::*;
use oasis::store::{LocalMesh, ReplicaConfig, ReplicaNode, StorageBackend};
use oasis_bench::{histogram_of, table_header, ServiceWorld};
use oasis_obs::{NoopRecorder, Recorder, Registry, TraceCtx};

const ROUNDS: usize = 7;
const WARMUP: usize = 300;
const ITERS: usize = 3_000;
const REVOCATIONS: usize = 96;
const TRACE_ID: u64 = 7_001;
const OVERHEAD_BUDGET_PCT: f64 = 5.0;

// ---------------------------------------------------------------------
// Overhead: warm activation under noop vs live recorder
// ---------------------------------------------------------------------

/// One fresh-world round: warm the `treating_doctor` activation path,
/// then time `iters` activations individually (nanoseconds each).
fn activation_round(recorder: Arc<dyn Recorder>, iters: usize) -> Vec<u64> {
    let w = ServiceWorld::new(8);
    w.service.set_obs(recorder);
    let doctor = PrincipalId::new("dr-0");
    let ctx = EnvContext::new(1_000);
    let login = w
        .service
        .activate_role(
            &doctor,
            &RoleName::new("logged_in"),
            &[Value::id("dr-0")],
            &[],
            &ctx,
        )
        .expect("login activates");
    let presented = vec![Credential::Rmc(login)];
    let params = [Value::id("dr-0"), Value::id("p0")];
    let activate = || {
        w.service
            .activate_role(
                &doctor,
                &RoleName::new("treating_doctor"),
                &params,
                &presented,
                &ctx,
            )
            .expect("warm activation succeeds")
    };
    for _ in 0..WARMUP {
        activate();
    }
    (0..iters)
        .map(|_| {
            let start = Instant::now();
            activate();
            start.elapsed().as_nanos() as u64
        })
        .collect()
}

struct OverheadResult {
    baseline_ns: Vec<u64>,
    instrumented_ns: Vec<u64>,
    overhead_pct: f64,
}

/// Interleaves baseline and instrumented rounds and keeps each
/// configuration's fastest round (min-of-rounds is robust to scheduler
/// noise; the instrumentation delta is systematic, so it survives).
fn measure_overhead() -> OverheadResult {
    let mut best_base: Option<Vec<u64>> = None;
    let mut best_instr: Option<Vec<u64>> = None;
    let keep_min = |best: &mut Option<Vec<u64>>, round: Vec<u64>| {
        let sum: u64 = round.iter().sum();
        if best.as_ref().is_none_or(|b| sum < b.iter().sum::<u64>()) {
            *best = Some(round);
        }
    };
    for _ in 0..ROUNDS {
        keep_min(
            &mut best_base,
            activation_round(Arc::new(NoopRecorder), ITERS),
        );
        keep_min(
            &mut best_instr,
            activation_round(Arc::new(Registry::new()), ITERS),
        );
    }
    let baseline_ns = best_base.unwrap();
    let instrumented_ns = best_instr.unwrap();
    let base_sum: u64 = baseline_ns.iter().sum();
    let instr_sum: u64 = instrumented_ns.iter().sum();
    let overhead_pct = (instr_sum as f64 - base_sum as f64) / base_sum as f64 * 100.0;
    OverheadResult {
        baseline_ns,
        instrumented_ns,
        overhead_pct,
    }
}

// ---------------------------------------------------------------------
// Cascade: one traced revocation across the replicated CIV
// ---------------------------------------------------------------------

fn cluster3() -> (LocalMesh, Vec<Arc<ReplicaNode>>) {
    let mesh = LocalMesh::new();
    let ids: Vec<String> = (0..3).map(|i| format!("civ{i}")).collect();
    let nodes: Vec<Arc<ReplicaNode>> = ids
        .iter()
        .enumerate()
        .map(|(i, id)| {
            let peers = ids.iter().filter(|p| *p != id).cloned().collect();
            let cfg = ReplicaConfig::new(id.clone(), peers, format!("10.0.0.{i}:7450"));
            let node = Arc::new(ReplicaNode::new(cfg, Arc::new(mesh.clone())));
            mesh.register(Arc::clone(&node));
            node
        })
        .collect();
    (mesh, nodes)
}

fn settle(mesh: &LocalMesh) -> Arc<ReplicaNode> {
    for _ in 0..400 {
        mesh.step(25);
        if let Some(leader) = mesh.live_leader() {
            return leader;
        }
    }
    panic!("no leader elected after 400 steps");
}

fn login_facts() -> Arc<FactStore<Value>> {
    let facts = Arc::new(FactStore::new());
    facts.define("password_ok", 1).unwrap();
    facts
        .insert("password_ok", vec![Value::id("alice")])
        .unwrap();
    facts
}

fn define_login(svc: &Arc<oasis::core::OasisService>) {
    svc.define_role("logged_in", &[("u", ValueType::Id)], true)
        .unwrap();
    svc.add_activation_rule(
        "logged_in",
        vec![Term::var("U")],
        vec![Atom::env_fact("password_ok", vec![Term::var("U")])],
        vec![0],
    )
    .unwrap();
}

/// The three revocation worlds of the differential breakdown. The mesh
/// must stay alive for the CIV-backed variants, so it rides along.
struct RevokeWorld {
    mesh: Option<LocalMesh>,
    login: Arc<oasis::core::OasisService>,
    _hospital: Option<Arc<oasis::core::OasisService>>,
    registry: Arc<Registry>,
}

/// `journaled` puts the login issuer's journal on a settled 3-node CIV;
/// `subscriber` adds a bus-attached relying service whose cascade ack
/// closes the fan-out loop.
fn revoke_world(journaled: bool, subscriber: bool) -> RevokeWorld {
    let facts = login_facts();
    let registry = Arc::new(Registry::with_span_recording());
    let bus: Option<EventBus<oasis::core::CertEvent>> = subscriber.then(EventBus::new);

    let (mesh, config) = if journaled {
        let (mesh, nodes) = cluster3();
        let leader = settle(&mesh);
        let journal: Arc<dyn StorageBackend> = Arc::new(leader.replicated("journal"));
        let snapshot: Arc<dyn StorageBackend> = Arc::new(leader.replicated("snapshot"));
        let store = ServiceJournal::open(journal, snapshot).expect("replicated journal opens");
        for node in &nodes {
            node.set_obs(
                registry.as_ref() as &dyn Recorder,
                &format!("{}.replica", node.id()),
            );
        }
        (
            Some(mesh),
            ServiceConfig::new("login")
                .with_journal(store)
                .with_revocation_retention(256),
        )
    } else {
        (None, ServiceConfig::new("login"))
    };
    let config = match &bus {
        Some(bus) => config.with_bus(bus.clone()),
        None => config,
    };
    let login = oasis::core::OasisService::new(config, Arc::clone(&facts));
    define_login(&login);
    login.set_obs(Arc::clone(&registry) as Arc<dyn Recorder>);

    let hospital = bus.as_ref().map(|bus| {
        let svc = oasis::core::OasisService::new(
            ServiceConfig::new("hospital").with_bus(bus.clone()),
            Arc::clone(&facts),
        );
        svc.set_obs(Arc::clone(&registry) as Arc<dyn Recorder>);
        svc
    });

    RevokeWorld {
        mesh,
        login,
        _hospital: hospital,
        registry,
    }
}

/// Issues `n` sessions and revokes each, returning wall-clock ns per
/// revocation (untraced: the ambient context is unset, so the span fast
/// path short-circuits and only the differential stages are timed).
fn revoke_latencies(w: &RevokeWorld, n: usize) -> Vec<u64> {
    let alice = PrincipalId::new("alice");
    let now = w.mesh.as_ref().map_or(0, |m| m.now());
    let certs: Vec<_> = (0..n)
        .map(|i| {
            w.login
                .activate_role(
                    &alice,
                    &RoleName::new("logged_in"),
                    &[Value::id("alice")],
                    &[],
                    &EnvContext::new(now + i as u64),
                )
                .expect("session activates")
        })
        .collect();
    certs
        .iter()
        .map(|rmc| {
            if let Some(mesh) = &w.mesh {
                mesh.step(1);
            }
            let t = w.mesh.as_ref().map_or(now, |m| m.now());
            let start = Instant::now();
            assert!(
                w.login.revoke_certificate(rmc.crr.cert_id, "bench", t),
                "revocation lands"
            );
            start.elapsed().as_nanos() as u64
        })
        .collect()
}

/// Extracts an integer field from a sorted-key span line.
fn span_u64(line: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    let rest = &line[line.find(&pat).unwrap() + pat.len()..];
    rest[..rest.find([',', '}']).unwrap()].parse().unwrap()
}

/// Extracts a string field from a sorted-key span line.
fn span_str<'a>(line: &'a str, key: &str) -> &'a str {
    let pat = format!("\"{key}\":\"");
    let rest = &line[line.find(&pat).unwrap() + pat.len()..];
    &rest[..rest.find('"').unwrap()]
}

struct CascadeResult {
    spans: Vec<String>,
    distinct_hops: usize,
    ops: Vec<String>,
    wall_ns: u64,
}

/// One fully-traced revocation on the CIV + subscriber world: the bench
/// emits the client root span, pins its child as the ambient context,
/// and lets the instrumented layers chain the rest.
fn traced_cascade(w: &RevokeWorld) -> CascadeResult {
    let alice = PrincipalId::new("alice");
    let mesh = w.mesh.as_ref().expect("cascade world is CIV-backed");
    let rmc = w
        .login
        .activate_role(
            &alice,
            &RoleName::new("logged_in"),
            &[Value::id("alice")],
            &[],
            &EnvContext::new(mesh.now()),
        )
        .expect("traced session activates");
    let sink = (w.registry.as_ref() as &dyn Recorder).spans();
    let before = sink.len();

    mesh.step(1);
    let t = mesh.now();
    let ctx = sink.emit(TraceCtx::root(TRACE_ID), "client", "revoke.request", t, t);
    let start = Instant::now();
    let revoked = {
        let _root = oasis_obs::scope(ctx);
        w.login
            .revoke_certificate(rmc.crr.cert_id, "bench cascade", t)
    };
    let wall_ns = start.elapsed().as_nanos() as u64;
    assert!(revoked, "traced revocation lands");

    let spans: Vec<String> = sink.lines().split_off(before);
    for line in &spans {
        assert_eq!(
            span_u64(line, "trace"),
            TRACE_ID,
            "cascade span off-trace: {line}"
        );
    }
    // Causal linkage: every non-root parent is a span emitted in this
    // cascade (the chain has no orphans).
    let ids: Vec<u64> = spans.iter().map(|l| span_u64(l, "span")).collect();
    for line in &spans {
        let parent = span_u64(line, "parent");
        assert!(
            parent == 0 || ids.contains(&parent),
            "span parented outside the cascade: {line}"
        );
    }
    let mut hops: Vec<u64> = spans.iter().map(|l| span_u64(l, "hop")).collect();
    hops.sort_unstable();
    hops.dedup();
    let mut ops: Vec<String> = spans
        .iter()
        .map(|l| span_str(l, "op").to_string())
        .collect();
    ops.sort();
    ops.dedup();
    CascadeResult {
        spans,
        distinct_hops: hops.len(),
        ops,
        wall_ns,
    }
}

// ---------------------------------------------------------------------
// The table
// ---------------------------------------------------------------------

fn obs_table() -> (String, Vec<String>) {
    table_header(
        "TAB-K observability: registry overhead + causal cascade",
        "metrics cost < 5% on the hot path; one trace id links client to subscriber ack",
        "series                         p50         mean",
    );

    let overhead = measure_overhead();
    let base = histogram_of(&overhead.baseline_ns);
    let instr = histogram_of(&overhead.instrumented_ns);
    println!(
        "{:<28} {:>7} ns  {:>9.1} ns",
        "activation noop_recorder",
        base.p50(),
        base.mean()
    );
    println!(
        "{:<28} {:>7} ns  {:>9.1} ns",
        "activation live_registry",
        instr.p50(),
        instr.mean()
    );
    println!(
        "instrumentation overhead: {:.2}% (budget {OVERHEAD_BUDGET_PCT}%)",
        overhead.overhead_pct
    );
    assert!(
        overhead.overhead_pct < OVERHEAD_BUDGET_PCT,
        "live registry costs {:.2}% on the warm-activation hot path, \
         budget is {OVERHEAD_BUDGET_PCT}%",
        overhead.overhead_pct
    );

    let plain = revoke_world(false, false);
    let civ = revoke_world(true, false);
    let full = revoke_world(true, true);
    let p_plain = histogram_of(&revoke_latencies(&plain, REVOCATIONS)).p50();
    let p_civ = histogram_of(&revoke_latencies(&civ, REVOCATIONS)).p50();
    let p_full = histogram_of(&revoke_latencies(&full, REVOCATIONS)).p50();
    let append_commit = p_civ.saturating_sub(p_plain);
    let fanout_ack = p_full.saturating_sub(p_civ);
    println!("revocation breakdown (p50, differential):");
    println!("  svc.revoke (plain)            {p_plain:>9} ns");
    println!("  + civ append/quorum commit    {append_commit:>9} ns");
    println!("  + bus fan-out/subscriber ack  {fanout_ack:>9} ns");

    let cascade = traced_cascade(&full);
    println!(
        "traced cascade: {} spans, {} distinct hops, ops {:?}, {} ns wall",
        cascade.spans.len(),
        cascade.distinct_hops,
        cascade.ops,
        cascade.wall_ns
    );
    assert!(
        cascade.distinct_hops >= 4,
        "cascade must span >= 4 causal hops, got {} ({:?})",
        cascade.distinct_hops,
        cascade.ops
    );
    for op in [
        "revoke.request",
        "svc.revoke",
        "civ.append",
        "civ.commit",
        "civ.follower_ack",
        "svc.cascade",
    ] {
        assert!(
            cascade.ops.iter().any(|o| o == op),
            "cascade is missing the {op} hop: {:?}",
            cascade.ops
        );
    }
    let rounds = cascade
        .spans
        .iter()
        .filter(|l| span_str(l, "op") == "civ.append")
        .count();
    assert_eq!(rounds, 1, "one revocation, one quorum round");

    let ops_json = cascade
        .ops
        .iter()
        .map(|o| format!("\"{o}\""))
        .collect::<Vec<_>>()
        .join(", ");
    let json = format!(
        "{{\n  \"bench\": \"table_obs\",\n  \"overhead\": {{\n    \
         \"baseline_p50_ns\": {}, \"baseline_mean_ns\": {:.1},\n    \
         \"instrumented_p50_ns\": {}, \"instrumented_mean_ns\": {:.1},\n    \
         \"overhead_pct\": {:.2}, \"budget_pct\": {OVERHEAD_BUDGET_PCT},\n    \
         \"rounds\": {ROUNDS}, \"iters_per_round\": {ITERS}\n  }},\n  \
         \"cascade\": {{\n    \"trace_id\": {TRACE_ID}, \"spans\": {}, \
         \"distinct_hops\": {},\n    \"ops\": [{ops_json}],\n    \
         \"p50_ns\": {{\n      \"svc_revoke\": {p_plain},\n      \
         \"civ_append_quorum_commit\": {append_commit},\n      \
         \"bus_fanout_subscriber_ack\": {fanout_ack},\n      \
         \"traced_total_wall\": {}\n    }}\n  }}\n}}\n",
        base.p50(),
        base.mean(),
        instr.p50(),
        instr.mean(),
        overhead.overhead_pct,
        cascade.spans.len(),
        cascade.distinct_hops,
        cascade.wall_ns,
    );
    (json, cascade.spans)
}

fn bench_obs(c: &mut Criterion) {
    let (json, spans) = obs_table();
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_obs.json");
    std::fs::write(out, json).expect("write BENCH_obs.json");
    println!("wrote {out}");
    let span_out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_obs_spans.jsonl");
    std::fs::write(span_out, spans.join("\n") + "\n").expect("write BENCH_obs_spans.jsonl");
    println!("wrote {span_out}");

    let mut group = c.benchmark_group("obs");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    group.bench_function(BenchmarkId::new("activation", "noop_recorder"), |b| {
        let w = ServiceWorld::new(8);
        w.service
            .set_obs(Arc::new(NoopRecorder) as Arc<dyn Recorder>);
        let doctor = PrincipalId::new("dr-0");
        let ctx = EnvContext::new(1_000);
        let login = w
            .service
            .activate_role(
                &doctor,
                &RoleName::new("logged_in"),
                &[Value::id("dr-0")],
                &[],
                &ctx,
            )
            .unwrap();
        let presented = vec![Credential::Rmc(login)];
        b.iter(|| {
            w.service.activate_role(
                &doctor,
                &RoleName::new("treating_doctor"),
                &[Value::id("dr-0"), Value::id("p0")],
                &presented,
                &ctx,
            )
        });
    });
    group.bench_function(BenchmarkId::new("activation", "live_registry"), |b| {
        let w = ServiceWorld::new(8);
        w.service
            .set_obs(Arc::new(Registry::new()) as Arc<dyn Recorder>);
        let doctor = PrincipalId::new("dr-0");
        let ctx = EnvContext::new(1_000);
        let login = w
            .service
            .activate_role(
                &doctor,
                &RoleName::new("logged_in"),
                &[Value::id("dr-0")],
                &[],
                &ctx,
            )
            .unwrap();
        let presented = vec![Credential::Rmc(login)];
        b.iter(|| {
            w.service.activate_role(
                &doctor,
                &RoleName::new("treating_doctor"),
                &[Value::id("dr-0"), Value::id("p0")],
                &presented,
                &ctx,
            )
        });
    });
    group.bench_function(BenchmarkId::new("primitives", "counter_inc"), |b| {
        let registry = Registry::new();
        let counter = (&registry as &dyn Recorder).counter("bench.ticks");
        b.iter(|| counter.inc());
    });
    group.bench_function(BenchmarkId::new("primitives", "histogram_observe"), |b| {
        let registry = Registry::new();
        let histo = (&registry as &dyn Recorder).histogram("bench.lat");
        let mut v = 0u64;
        b.iter(|| {
            v = v.wrapping_add(997);
            histo.observe(v & 0xFFFF);
        });
    });
    group.finish();
}

criterion_group!(benches, bench_obs);
criterion_main!(benches);
