//! Registry parity: every component's typed `stats()` read and the
//! registry series behind it are one set of numbers.
//!
//! After a seeded workload each field of a typed read — flattened from
//! its `Debug` rendering, so the check does not go through the macro
//! that declares the set — must equal exactly one series named
//! `<prefix>.<field>` in a registry the component was attached to, and
//! no series under that prefix may be left unmatched. Overload lanes are
//! named by `Lane::as_str`, and their two EWMAs are kept in microseconds
//! (`ewma_*_ms` reads `ewma_*_us / 1000`).

use std::collections::BTreeMap;
use std::fmt::Debug;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use oasis::core::cert::Rmc;
use oasis::core::{
    AdmissionController, Clock, Deadline, Lane, LaneConfig, LocalRegistry, ManualClock,
    OverloadConfig, PollOutcome, ResilientValidator, Submission,
};
use oasis::prelude::*;
use oasis::sim::derive_seed;
use oasis::store::{LocalMesh, ReplicaConfig, ReplicaNode, StorageBackend};
use oasis_core::retry::RetryPolicy;
use oasis_core::OasisError;
use oasis_obs::{Recorder, Registry};

const SEED: u64 = 42;

/// Flattens a `Debug` rendering of nested structs and arrays into
/// `(dotted path, number)` leaves; array elements are named by index.
fn leaves(debug: &str) -> Vec<(String, f64)> {
    let mut tokens = Vec::new();
    let mut word = String::new();
    for c in debug.chars() {
        if c.is_alphanumeric() || "_.-".contains(c) {
            word.push(c);
            continue;
        }
        if !word.is_empty() {
            tokens.push(std::mem::take(&mut word));
        }
        if "{}[]:".contains(c) {
            tokens.push(c.to_string());
        }
    }
    let mut out = Vec::new();
    value(&tokens, &mut 0, "", &mut out);
    out
}

fn value(tokens: &[String], pos: &mut usize, path: &str, out: &mut Vec<(String, f64)>) {
    let join = |name: &str| match path {
        "" => name.to_string(),
        _ => format!("{path}.{name}"),
    };
    if tokens[*pos] == "[" {
        *pos += 1;
        for i in 0.. {
            if tokens[*pos] == "]" {
                break;
            }
            value(tokens, pos, &join(&i.to_string()), out);
        }
    } else if tokens.get(*pos + 1).is_some_and(|t| t == "{") {
        *pos += 2;
        while tokens[*pos] != "}" {
            assert_eq!(tokens[*pos + 1], ":", "field `{}`", tokens[*pos]);
            let field = join(&tokens[*pos]);
            *pos += 2;
            value(tokens, pos, &field, out);
        }
    } else {
        let number = tokens[*pos]
            .parse()
            .unwrap_or_else(|_| panic!("`{}`", tokens[*pos]));
        out.push((path.to_string(), number));
    }
    *pos += 1;
}

/// The `counters` and `gauges` of a registry snapshot, by name.
fn series(registry: &Registry) -> BTreeMap<String, Vec<f64>> {
    let snapshot = registry.snapshot_json().expect("a registry keeps series");
    let mut out: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for section in ["\"counters\":{", "\"gauges\":{"] {
        let start = snapshot.find(section).expect("section present") + section.len();
        let body = &snapshot[start..start + snapshot[start..].find('}').unwrap()];
        for pair in body.split(',').filter(|p| !p.is_empty()) {
            let (name, value) = pair.rsplit_once(':').unwrap();
            out.entry(name.trim_matches('"').to_string())
                .or_default()
                .push(value.parse().unwrap());
        }
    }
    out
}

/// Lane names for overload arrays, the µs rule for the EWMAs.
fn series_name(path: &str) -> (String, f64) {
    let mut parts: Vec<String> = path.split('.').map(str::to_string).collect();
    if parts.first().is_some_and(|p| p == "lanes") {
        parts.remove(0);
        let lane: usize = parts[0].parse().unwrap();
        parts[0] = Lane::ALL[lane].as_str().to_string();
    }
    let last = parts.last_mut().unwrap();
    let scale = match last.strip_suffix("_ms") {
        Some(stem) if stem.starts_with("ewma_") => {
            *last = format!("{stem}_us");
            1000.0
        }
        _ => 1.0,
    };
    (parts.join("."), scale)
}

/// Asserts the typed read `typed` and the series under `prefix` in
/// `registry` are the same numbers, one to one. Returns the sum of the
/// typed fields, so callers can check the workload moved them.
fn assert_parity(registry: &Registry, prefix: &str, typed: &impl Debug) -> f64 {
    let all = series(registry);
    let typed = leaves(&format!("{typed:?}"));
    assert!(!typed.is_empty(), "{prefix}: no typed fields");
    let mut matched = Vec::new();
    for (path, value) in &typed {
        let (name, scale) = series_name(path);
        let name = format!("{prefix}.{name}");
        let found = all
            .get(&name)
            .unwrap_or_else(|| panic!("{prefix}: field `{path}` has no series `{name}`"));
        assert_eq!(found.len(), 1, "{name} is both a counter and a gauge");
        assert!(
            (found[0] - value * scale).abs() < 1e-6,
            "{name} = {} but the typed read says {value}",
            found[0]
        );
        matched.push(name);
    }
    let under: Vec<&String> = all
        .keys()
        .filter(|name| name.starts_with(&format!("{prefix}.")))
        .collect();
    for name in &under {
        assert!(
            matched.contains(name),
            "series {name} matches no typed field"
        );
    }
    assert_eq!(under.len(), typed.len(), "{prefix}: a field matched twice");
    typed.iter().map(|(_, v)| v).sum()
}

#[test]
fn debug_flattening_names_nested_leaves() {
    #[derive(Debug)]
    #[allow(dead_code)]
    struct Inner {
        a: u64,
        ewma_b_ms: f64,
    }
    #[derive(Debug)]
    #[allow(dead_code)]
    struct Outer {
        lanes: [Inner; 2],
        c: u32,
    }
    let outer = Outer {
        lanes: [
            Inner {
                a: 1,
                ewma_b_ms: 2.5,
            },
            Inner {
                a: 3,
                ewma_b_ms: 0.0,
            },
        ],
        c: 4,
    };
    assert_eq!(
        leaves(&format!("{outer:?}")),
        vec![
            ("lanes.0.a".to_string(), 1.0),
            ("lanes.0.ewma_b_ms".to_string(), 2.5),
            ("lanes.1.a".to_string(), 3.0),
            ("lanes.1.ewma_b_ms".to_string(), 0.0),
            ("c".to_string(), 4.0),
        ]
    );
    assert_eq!(
        series_name("lanes.1.ewma_b_ms"),
        ("validation.ewma_b_us".to_string(), 1000.0)
    );
}

#[test]
fn overload_gauges_track_every_lane_transition() {
    let mut config = OverloadConfig::default();
    for lane in Lane::ALL {
        *config.lane_mut(lane) = LaneConfig {
            limit: 1,
            queue_cap: 2,
        };
    }
    let clock = Arc::new(ManualClock::new(0));
    let ctrl = AdmissionController::with_clock(config, Arc::clone(&clock) as Arc<dyn Clock>);
    let registry = Registry::new();
    registry.adopt("ctrl", ctrl.metrics());
    // Parity, plus the validation lane's gauges against the state this
    // script drove it to: `(running, queue_depth, limit)`. A transition
    // that forgot to set a gauge leaves it stale here.
    let check = |step: &str, expected: (i64, i64, i64)| {
        assert_parity(&registry, "ctrl", &ctrl.stats());
        let gauge = |name: &str| registry.gauge(&format!("ctrl.validation.{name}")).get();
        let got = (gauge("running"), gauge("queue_depth"), gauge("limit"));
        assert_eq!(got, expected, "after {step}: (running, queue_depth, limit)");
    };
    check("fresh", (0, 0, 1));

    let lane = Lane::Validation;
    let held = match ctrl.submit(lane, Deadline::none()) {
        Submission::Admitted(p) => p,
        _ => panic!("a free lane admits"),
    };
    check("admit", (1, 0, 1));
    let queued = match ctrl.submit(lane, Deadline::none()) {
        Submission::Queued(t) => t,
        _ => panic!("limit 1 queues"),
    };
    let doomed = match ctrl.submit(lane, Deadline::at(30)) {
        Submission::Queued(t) => t,
        _ => panic!("queue has room"),
    };
    check("queue", (1, 2, 1));
    assert!(matches!(
        ctrl.submit(lane, Deadline::none()),
        Submission::Shed { .. }
    ));
    check("shed", (1, 2, 1));
    clock.set(30);
    assert!(matches!(ctrl.poll(&doomed), PollOutcome::Expired));
    check("expire", (1, 1, 1));
    clock.set(45);
    drop(held);
    check("complete slow", (0, 1, 1));
    assert_eq!(
        registry.gauge("ctrl.validation.ewma_latency_us").get(),
        45_000
    );
    let permit = match ctrl.poll(&queued) {
        PollOutcome::Ready(p) => p,
        _ => panic!("freed capacity grants the head"),
    };
    check("grant after queue wait", (1, 0, 1));
    let abandoned = match ctrl.submit(lane, Deadline::none()) {
        Submission::Queued(t) => t,
        _ => panic!("limit 1 queues"),
    };
    drop(abandoned);
    check("cancel", (1, 0, 1));
    clock.advance(3);
    drop(permit);
    check("complete fast", (0, 0, 1));
    assert!(matches!(
        ctrl.submit(
            Lane::Control,
            Deadline::from_budget(clock.now_ms(), Some(0))
        ),
        Submission::Expired
    ));
    ctrl.note_expired_after_admit(Lane::Issuance);
    ctrl.note_conn_accepted();
    ctrl.note_conn_shed();
    ctrl.note_conn_idle_closed();
    check("expired at admission, connections", (0, 0, 1));

    let snap = ctrl.stats();
    let v = snap.lane(lane);
    assert_eq!(
        (v.admitted, v.shed, v.expired, v.cancelled, v.completed),
        (2, 1, 1, 1, 2)
    );
    assert!(v.ewma_queue_wait_ms > 0.0 && v.ewma_latency_ms > 0.0);
    assert_eq!((v.running, v.queue_depth), (0, 0));
}

/// The unreachable-issuer switch: answers through the registry while up.
struct Gate {
    inner: Arc<LocalRegistry>,
    up: AtomicBool,
}

impl CredentialValidator for Gate {
    fn validate(
        &self,
        credential: &Credential,
        presenter: &PrincipalId,
        now: u64,
    ) -> Result<(), OasisError> {
        if self.up.load(Ordering::SeqCst) {
            self.inner.validate(credential, presenter, now)
        } else {
            Err(OasisError::IssuerTimeout(credential.issuer().clone()))
        }
    }
}

#[test]
fn cross_domain_service_series_match_its_typed_reads() {
    let facts = Arc::new(FactStore::new());
    facts.define("password_ok", 1).unwrap();
    let users: Vec<PrincipalId> = (0..4).map(|i| PrincipalId::new(format!("u{i}"))).collect();
    for u in &users {
        facts
            .insert("password_ok", vec![Value::id(u.as_str())])
            .unwrap();
    }
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
    let hospital = OasisService::new(
        ServiceConfig::new("hospital")
            .with_bus(login.bus().clone())
            .with_validation_cache(20)
            .with_heartbeats(),
        Arc::clone(&facts),
    );
    hospital
        .define_role("on_duty", &[("d", ValueType::Id)], false)
        .unwrap();
    hospital
        .add_activation_rule(
            "on_duty",
            vec![Term::var("D")],
            vec![Atom::prereq_at("login", "logged_in", vec![Term::var("D")])],
            vec![0],
        )
        .unwrap();
    hospital.add_invocation_rule(
        "read",
        vec![Term::var("D")],
        vec![Atom::prereq("on_duty", vec![Term::var("D")])],
    );
    let registry = Arc::new(LocalRegistry::new());
    registry.register(&login);
    let gate = Arc::new(Gate {
        inner: registry,
        up: AtomicBool::new(true),
    });
    let resilient = Arc::new(
        ResilientValidator::new(gate.clone())
            .with_retry(RetryPolicy {
                max_attempts: 2,
                ..RetryPolicy::default()
            })
            .with_sleeper(|_| {}),
    );
    hospital.set_validator(resilient.clone());
    hospital.watch_issuer(&ServiceId::new("login"), 5, 0);

    let obs = Arc::new(Registry::new());
    login.set_obs(Arc::clone(&obs) as Arc<dyn Recorder>);
    hospital.set_obs(Arc::clone(&obs) as Arc<dyn Recorder>);
    // The controller a server would adopt as `hospital.overload`.
    let ctrl = AdmissionController::new(OverloadConfig::default());
    obs.adopt("hospital.overload", ctrl.metrics());
    obs.adopt("resilient", resilient.metrics());

    let mut sessions: Vec<(usize, Rmc)> = Vec::new();
    let (mut ok, mut denied, mut invoked_ok, mut invoked_denied) = (0u64, 0u64, 0u64, 0u64);
    let mut revoked = 0u64;
    for now in 1..200u64 {
        let roll = derive_seed(SEED, now);
        let user = (roll % users.len() as u64) as usize;
        match (roll >> 8) % 8 {
            0 | 1 => {
                let rmc = login
                    .activate_role(
                        &users[user],
                        &RoleName::new("logged_in"),
                        &[Value::id(users[user].as_str())],
                        &[],
                        &EnvContext::new(now),
                    )
                    .unwrap();
                sessions.push((user, rmc));
            }
            2 | 3 => {
                let presented: Vec<Credential> = sessions
                    .iter()
                    .filter(|(u, _)| *u == user)
                    .map(|(_, r)| Credential::Rmc(r.clone()))
                    .collect();
                match hospital.activate_role(
                    &users[user],
                    &RoleName::new("on_duty"),
                    &[Value::id(users[user].as_str())],
                    &presented,
                    &EnvContext::new(now),
                ) {
                    Ok(duty) => {
                        ok += 1;
                        let inv = hospital.invoke(
                            &users[user],
                            "read",
                            &[Value::id(users[user].as_str())],
                            &[Credential::Rmc(duty)],
                            &EnvContext::new(now),
                        );
                        if inv.is_ok() {
                            invoked_ok += 1;
                        } else {
                            invoked_denied += 1;
                        }
                    }
                    Err(_) => denied += 1,
                }
            }
            4 => {
                if let Some((_, rmc)) = sessions.first() {
                    let _ = hospital.validate_credential(
                        &Credential::Rmc(rmc.clone()),
                        &users[sessions[0].0],
                        now,
                    );
                }
            }
            5 if !sessions.is_empty() => {
                let (_, rmc) = sessions.remove((roll >> 16) as usize % sessions.len());
                revoked += u64::from(login.revoke_certificate(rmc.crr.cert_id, "logout", now));
            }
            6 => gate
                .up
                .store(!(roll >> 20).is_multiple_of(3), Ordering::SeqCst),
            _ => {}
        }
        // The issuer beats except through a long silence mid-run.
        if !(60..110).contains(&now) && now.is_multiple_of(4) {
            hospital.issuer_beat(&ServiceId::new("login"), now);
        }
        hospital.tick_heartbeats(now);
    }

    let moved = [
        assert_parity(&obs, "hospital.plan", &hospital.plan_stats()),
        assert_parity(
            &obs,
            "hospital.vcache",
            &hospital.validation_cache_stats().unwrap(),
        ),
        assert_parity(
            &obs,
            "hospital.degradation",
            &hospital.degradation_stats().unwrap(),
        ),
        assert_parity(&obs, "hospital.bus", &hospital.bus().stats()),
        assert_parity(&obs, "hospital.overload", &ctrl.stats()),
        assert_parity(&obs, "resilient", &resilient.stats()),
    ];
    // Every set but the idle controller saw the workload.
    for (i, sum) in moved.iter().enumerate() {
        assert!(i == 4 || *sum > 0.0, "set {i} never moved");
    }
    let breaker = resilient.stats();
    assert!(breaker.breaker_opens > 0 && breaker.breaker_closes > 0);

    // The request counters, at the root of the service's registry.
    let counter = |name: &str| obs.counter(&format!("hospital.{name}")).get();
    assert_eq!(counter("activate.ok"), ok);
    assert_eq!(counter("activate.denied"), denied);
    assert_eq!(counter("invoke.ok"), invoked_ok);
    assert_eq!(counter("invoke.denied"), invoked_denied);
    assert!(ok > 0 && denied > 0, "both activation outcomes ran");
    assert!(revoked > 0);
    assert_eq!(obs.counter("login.revocations").get(), revoked);
}

#[test]
fn replica_series_match_their_typed_reads() {
    let mesh = LocalMesh::new();
    let obs = Registry::new();
    let ids: Vec<String> = (0..3).map(|i| format!("civ{i}")).collect();
    for (i, id) in ids.iter().enumerate() {
        let peers = ids.iter().filter(|p| *p != id).cloned().collect();
        let cfg = ReplicaConfig::new(id.clone(), peers, format!("10.0.0.{i}:7450"));
        let node = Arc::new(ReplicaNode::new(cfg, Arc::new(mesh.clone())));
        node.set_obs(&obs, &format!("{id}.replica"));
        mesh.register(node);
    }
    let leader = |mesh: &LocalMesh| {
        (0..400)
            .find_map(|_| {
                mesh.step(25);
                mesh.live_leader()
            })
            .expect("a leader within 400 steps")
    };
    for round in 0..40u64 {
        let roll = derive_seed(SEED, round);
        let lead = leader(&mesh);
        let store = lead.replicated("journal");
        let _ = store.append(format!("entry {round};").as_bytes());
        match roll % 6 {
            0 => {
                let victim = &ids[(roll >> 8) as usize % ids.len()];
                mesh.kill(victim);
                mesh.step(200);
                mesh.revive(victim);
            }
            1 => {
                let (a, b) = (&ids[0], &ids[1 + (roll >> 8) as usize % 2]);
                mesh.partition(a, b);
                mesh.step(100);
                mesh.heal_partition(a, b);
            }
            _ => mesh.step(25),
        }
    }
    let mut committed = 0;
    for id in &ids {
        let node = mesh.node(id).unwrap();
        assert_parity(&obs, &format!("{id}.replica"), &node.stats());
        committed += node.stats().committed;
    }
    assert!(committed > 0, "the workload committed");
}
