//! TAB-E — crash-recovery time vs journal length, and the snapshot
//! trade-off.
//!
//! Sect. 7's active security makes a service's in-memory credential
//! state authoritative — so after a crash that state must be rebuilt
//! before the service answers anything. The durability layer offers two
//! knobs: replay the whole security-event journal, or load a periodic
//! snapshot and replay only the tail. This table measures cold-start
//! [`recover()`](oasis::core::OasisService::recover) wall time on the
//! full service (records, dependency edges, watermarks, validation
//! cache) as the journal grows:
//!
//! * `replay_1k` — 1 000-event journal, no snapshot: pure replay.
//! * `replay_10k` — 10 000-event journal, no snapshot: pure replay.
//! * `snapshot_10k` — the same 10 000 events, but a snapshot covers all
//!   except a 100-event tail: load + short replay.
//!
//! The event mix mirrors a live relying service: validation grants
//! dominate (the Sect. 4 hot path journals one `ValidationGranted` per
//! cache fill), with issuance and revocation churn layered in. That mix
//! is exactly where snapshots pay: cache-fill events vastly outnumber
//! the bounded record state they rebuild, so truncating them shrinks
//! the restart from O(journal) to O(state + tail).
//!
//! Reported (also emitted to `BENCH_recovery.json`): p50/p99 recovery
//! time per series and the snapshot speedup over full 10k replay.

use std::sync::Arc;
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use oasis::core::ServiceJournal;
use oasis::prelude::*;
use oasis::store::MemBackend;
use oasis_bench::{percentile, provenance_fields, table_header};

/// One doctor activation (a `CertIssued` event) per this many journal
/// events; the rest are validation-grant churn.
const ISSUE_EVERY: u64 = 8;

/// One revocation (cascade + edge removal on replay) per this many
/// journal events.
const REVOKE_EVERY: u64 = 64;

struct World {
    login: Arc<OasisService>,
    journal: MemBackend,
    snapshot: MemBackend,
    facts: Arc<FactStore<Value>>,
    /// Journal events written while populating.
    events: u64,
}

/// The relying hospital, cold-started over the world's backends: the
/// recovery subject. Policy is reinstalled on every start.
fn service(w: &World) -> Arc<OasisService> {
    let store = ServiceJournal::open(Arc::new(w.journal.clone()), Arc::new(w.snapshot.clone()))
        .expect("journal opens");
    let svc = OasisService::new(
        ServiceConfig::new("hospital")
            .with_validation_cache(100_000)
            .with_journal(store),
        Arc::clone(&w.facts),
    );
    let registry = Arc::new(LocalRegistry::new());
    registry.register(&w.login);
    svc.set_validator(registry);
    svc.define_role("doctor_on_duty", &[("d", ValueType::Id)], false)
        .unwrap();
    svc.add_activation_rule(
        "doctor_on_duty",
        vec![Term::var("D")],
        vec![Atom::prereq_at("login", "logged_in", vec![Term::var("D")])],
        vec![0],
    )
    .unwrap();
    svc
}

/// Builds a hospital journal holding exactly `events` security events
/// — validation grants, issues, and revocations — optionally
/// snapshotting so that only `tail` events remain to replay.
fn world(events: u64, snapshot_tail: Option<u64>) -> World {
    let facts = Arc::new(FactStore::new());
    facts.define("password_ok", 1).unwrap();
    facts
        .insert("password_ok", vec![Value::id("alice")])
        .unwrap();
    let login = OasisService::new(ServiceConfig::new("login"), Arc::clone(&facts));
    login
        .define_role("logged_in", &[("u", ValueType::Id)], true)
        .unwrap();
    login
        .add_activation_rule(
            "logged_in",
            vec![Term::var("U")],
            vec![Atom::env_fact("password_ok", vec![Term::var("U")])],
            vec![0],
        )
        .unwrap();
    let w = World {
        login,
        journal: MemBackend::new(),
        snapshot: MemBackend::new(),
        facts,
        events,
    };
    let svc = service(&w);
    let alice = PrincipalId::new("alice");
    let appended = || svc.journal_stats().expect("journalled").appended;
    let mut cut = false;
    let mut last_doctor = None;
    let mut i = 0u64;
    while appended() < events {
        // Snapshot once so that at most `tail` events follow it.
        if let Some(tail) = snapshot_tail {
            if !cut && appended() >= events - tail {
                svc.snapshot().expect("snapshot succeeds");
                cut = true;
            }
        }
        // Each login session is a fresh credential: validating it at
        // the hospital misses the cache, calls back, and journals one
        // `ValidationGranted`.
        let rmc = w
            .login
            .activate_role(
                &alice,
                &RoleName::new("logged_in"),
                &[Value::id("alice")],
                &[],
                &EnvContext::new(i),
            )
            .expect("login issuance");
        let cred = Credential::Rmc(rmc);
        svc.validate_credential(&cred, &alice, i)
            .expect("populate validation");
        if i.is_multiple_of(ISSUE_EVERY) && appended() < events {
            last_doctor = Some(
                svc.activate_role(
                    &alice,
                    &RoleName::new("doctor_on_duty"),
                    &[Value::id("alice")],
                    &[cred],
                    &EnvContext::new(i),
                )
                .expect("populate issuance")
                .crr
                .cert_id,
            );
        }
        if i.is_multiple_of(REVOKE_EVERY) && appended() < events {
            if let Some(cert) = last_doctor.take() {
                svc.revoke_certificate(cert, "bench churn", i);
            }
        }
        i += 1;
    }
    w
}

/// Cold-starts a fresh service over the world's backends `samples`
/// times, timing each full `recover()`; returns sorted nanoseconds and
/// the last recovery report for sanity checks.
fn measure(w: &World, samples: usize) -> (Vec<u64>, oasis::core::RecoveryReport) {
    let mut last = None;
    let mut lat: Vec<u64> = (0..samples)
        .map(|_| {
            let svc = service(w);
            let start = Instant::now();
            let report = svc.recover(1_000_000).expect("recovery succeeds");
            let elapsed = start.elapsed().as_nanos() as u64;
            last = Some(report);
            elapsed
        })
        .collect();
    lat.sort_unstable();
    (lat, last.unwrap())
}

struct Series {
    name: &'static str,
    events_in_journal: u64,
    events_replayed: u64,
    records_restored: u64,
    p50_ms: f64,
    p99_ms: f64,
    samples: usize,
}

fn recovery_table() -> String {
    const SAMPLES: usize = 15;
    const TAIL: u64 = 100;

    table_header(
        "TAB-E crash-recovery time vs journal length",
        "snapshots turn O(journal) restarts into O(tail) restarts",
        "series          journal   replayed       p50        p99",
    );

    let ms = |ns: u64| ns as f64 / 1_000_000.0;
    let mut series = Vec::new();
    for (name, events, tail) in [
        ("replay_1k", 1_000u64, None),
        ("replay_10k", 10_000, None),
        ("snapshot_10k", 10_000, Some(TAIL)),
    ] {
        let w = world(events, tail);
        let (lat, report) = measure(&w, SAMPLES);
        assert!(
            report.records_restored > 0,
            "{name}: recovery must restore records"
        );
        if tail.is_some() {
            assert!(
                report.snapshot_covered_seq > 0 && report.events_replayed <= TAIL,
                "{name}: snapshot must shorten the replay \
                 (covered {}, replayed {})",
                report.snapshot_covered_seq,
                report.events_replayed
            );
        } else {
            assert_eq!(
                report.events_replayed, w.events,
                "{name}: pure replay covers the whole journal"
            );
        }
        let s = Series {
            name,
            events_in_journal: w.events,
            events_replayed: report.events_replayed,
            records_restored: report.records_restored,
            p50_ms: ms(percentile(&lat, 50.0)),
            p99_ms: ms(percentile(&lat, 99.0)),
            samples: lat.len(),
        };
        println!(
            "{:<15} {:>7} {:>10} {:>8.2}ms {:>8.2}ms",
            s.name, s.events_in_journal, s.events_replayed, s.p50_ms, s.p99_ms
        );
        series.push(s);
    }

    let speedup = series[1].p50_ms / series[2].p50_ms.max(0.000_001);
    println!("snapshot speedup over full 10k replay p50: {speedup:.1}x");
    assert!(
        series[2].p50_ms < series[1].p50_ms,
        "a snapshot-covered restart must beat full replay: {:.2}ms vs {:.2}ms",
        series[2].p50_ms,
        series[1].p50_ms
    );

    let json_series = series
        .iter()
        .map(|s| {
            format!(
                "    {{\"name\": \"{}\", \"events_in_journal\": {}, \
                 \"events_replayed\": {}, \"records_restored\": {}, \
                 \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \"samples\": {}}}",
                s.name,
                s.events_in_journal,
                s.events_replayed,
                s.records_restored,
                s.p50_ms,
                s.p99_ms,
                s.samples
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    format!(
        "{{\n  {},\n  \"revoke_every\": {},\n  \"snapshot_tail\": {},\n  \"series\": [\n{}\n  ],\n  \"snapshot_speedup_p50\": {:.1}\n}}\n",
        provenance_fields("table_recovery", 1, SAMPLES, "p50 and p99 of rounds"),
        REVOKE_EVERY,
        TAIL,
        json_series,
        speedup,
    )
}

fn bench_recovery(c: &mut Criterion) {
    let json = recovery_table();
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_recovery.json");
    std::fs::write(out, json).expect("write BENCH_recovery.json");
    println!("wrote {out}");

    let mut group = c.benchmark_group("recovery");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    group.bench_function(BenchmarkId::new("recover", "replay_1k"), |b| {
        let w = world(1_000, None);
        b.iter(|| {
            let svc = service(&w);
            svc.recover(1_000_000).expect("recovery succeeds")
        });
    });
    group.bench_function(BenchmarkId::new("recover", "snapshot_10k"), |b| {
        let w = world(10_000, Some(100));
        b.iter(|| {
            let svc = service(&w);
            svc.recover(1_000_000).expect("recovery succeeds")
        });
    });
    group.finish();
}

criterion_group!(benches, bench_recovery);
criterion_main!(benches);
