//! TAB-F — overload: goodput and revocation latency, shedding on vs off.
//!
//! A validation storm arrives at 3x the service's total capacity while
//! revocations trickle in. The pre-overload-control server (one FIFO
//! queue, no priorities, no deadlines) eventually answers everything —
//! but a revocation queued behind the whole backlog takes effect *after*
//! the flood, which is exactly the window an attacker with a stolen
//! credential wants (Sect. 5: revocation must take effect immediately).
//! The overload subsystem's priority lanes + shedding keep the Control
//! lane clear, so revocation-to-deactivation latency stays flat no
//! matter how hard validation floods.
//!
//! Both series run the same deterministic simulated flood (virtual
//! clock, seed 42) with the same total worker capacity; only the lane
//! structure differs:
//!
//! * `shedding_on` — Control/Validation/Issuance lanes, bounded queues,
//!   deadline budgets; excess validations shed with a retry hint.
//! * `shedding_off_fifo` — one lane, unbounded queue, no deadlines.
//!
//! Reported (also emitted to `BENCH_overload.json`): per-series goodput
//! (validations answered within their budget), sheds, p99
//! revocation-to-deactivation latency, and the shedding speedup — the
//! ISSUE acceptance criterion asserts the speedup is at least 10x. A
//! small criterion group prices the admission hot path itself.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use oasis::core::cert::Rmc;
use oasis::core::{
    AdmissionController, CertId, Clock, Deadline, Lane, LaneConfig, ManualClock, OverloadConfig,
    Permit, PollOutcome, Submission, Ticket,
};
use oasis::prelude::*;
use oasis::sim::{Histogram, Latency, LinkConfig, SimNet, Simulation};
use oasis_bench::table_header;

const PRINCIPALS: usize = 20;
/// Virtual ms an admitted request occupies a worker.
const SERVICE_TICKS: u64 = 4;
const FLOOD_TICKS: u64 = 1_000;
/// 3 arrivals/tick against 1/tick of capacity: a 3x overload.
const VALIDATIONS_PER_TICK: usize = 3;
const VALIDATION_BUDGET: u64 = 50;
const REVOCATION_BUDGET: u64 = 100;
const REVOCATION_START: u64 = 100;
const REVOCATION_STEP: u64 = 40;
const T_END: u64 = 4_200;
const SEED: u64 = 42;

enum Work {
    Validate(usize),
    Revoke(usize),
}

struct PendingReq {
    ticket: Ticket,
    arrived: u64,
    work: Work,
}

struct RunningReq {
    finish_at: u64,
    arrived: u64,
    permit: Option<Permit>,
    work: Work,
}

struct World {
    login: Arc<OasisService>,
    hospital: Arc<OasisService>,
    login_certs: Vec<Rmc>,
    duty_certs: Vec<CertId>,
}

fn build_world() -> World {
    let facts = Arc::new(FactStore::new());
    facts.define("password_ok", 1).unwrap();
    for i in 0..PRINCIPALS {
        facts
            .insert("password_ok", vec![Value::id(format!("dr-{i}"))])
            .unwrap();
    }

    let login = OasisService::new(ServiceConfig::new("login"), Arc::clone(&facts));
    login
        .define_role("logged_in", &[("user", ValueType::Id)], true)
        .unwrap();
    login
        .add_activation_rule(
            "logged_in",
            vec![Term::var("U")],
            vec![Atom::env_fact("password_ok", vec![Term::var("U")])],
            vec![0],
        )
        .unwrap();

    let hospital = OasisService::new(ServiceConfig::new("hospital"), Arc::clone(&facts));
    hospital
        .define_role("doctor_on_duty", &[("doctor", ValueType::Id)], false)
        .unwrap();
    hospital
        .add_activation_rule(
            "doctor_on_duty",
            vec![Term::var("D")],
            vec![Atom::prereq_at("login", "logged_in", vec![Term::var("D")])],
            vec![0],
        )
        .unwrap();

    let registry = Arc::new(LocalRegistry::new());
    registry.register(&login);
    hospital.set_validator(registry);

    let mut login_certs = Vec::with_capacity(PRINCIPALS);
    let mut duty_certs = Vec::with_capacity(PRINCIPALS);
    for i in 0..PRINCIPALS {
        let who = PrincipalId::new(format!("dr-{i}"));
        let rmc = login
            .activate_role(
                &who,
                &RoleName::new("logged_in"),
                &[Value::id(format!("dr-{i}"))],
                &[],
                &EnvContext::new(0),
            )
            .unwrap();
        let duty = hospital
            .activate_role(
                &who,
                &RoleName::new("doctor_on_duty"),
                &[Value::id(format!("dr-{i}"))],
                &[Credential::Rmc(rmc.clone())],
                &EnvContext::new(0),
            )
            .unwrap();
        login_certs.push(rmc);
        duty_certs.push(duty.crr.cert_id);
    }
    World {
        login,
        hospital,
        login_certs,
        duty_certs,
    }
}

/// Same total capacity (4 workers) either way; only the lane structure
/// differs. The shedding lanes are the ones the conformance matrix's
/// flood cells run (`crates/conformance/src/engine.rs`), where every
/// revocation must also execute within its deadline budget.
fn flood_config(shedding: bool) -> OverloadConfig {
    let mut cfg = OverloadConfig::default();
    if shedding {
        *cfg.lane_mut(Lane::Control) = LaneConfig::fixed(2, 256, 1_000);
        *cfg.lane_mut(Lane::Validation) = LaneConfig::fixed(2, 16, 1_000);
        *cfg.lane_mut(Lane::Issuance) = LaneConfig::fixed(1, 8, 1_000);
    } else {
        *cfg.lane_mut(Lane::Control) = LaneConfig::fixed(4, 1_000_000, 1_000_000);
    }
    cfg
}

#[derive(Default)]
struct FloodResult {
    /// Validations answered within VALIDATION_BUDGET of arrival.
    goodput: u64,
    answered: u64,
    shed: u64,
    p99_revocation: u64,
    revocations_within_budget: usize,
}

fn revocation_arrival(i: usize) -> u64 {
    REVOCATION_START + i as u64 * REVOCATION_STEP
}

fn run_flood(shedding: bool) -> FloodResult {
    let world = Rc::new(build_world());
    let clock = Arc::new(ManualClock::new(0));
    let ctrl = AdmissionController::with_clock(
        flood_config(shedding),
        Arc::clone(&clock) as Arc<dyn Clock>,
    );

    let mut sim = Simulation::new(SEED);
    let net = Rc::new(RefCell::new(SimNet::new(LinkConfig {
        latency: Latency::Constant(1),
        loss: 0.0,
        duplicate: 0.0,
        jitter: 1,
    })));

    let result = Rc::new(RefCell::new(FloodResult::default()));
    let deactivated = Rc::new(RefCell::new(vec![None::<u64>; PRINCIPALS]));
    let pending = Rc::new(RefCell::new(Vec::<PendingReq>::new()));
    let running = Rc::new(RefCell::new(Vec::<RunningReq>::new()));
    let feed = Rc::new(world.login.bus().subscribe("cred.revoked.#").unwrap());

    let mut next_validation = 0usize;
    for t in 1..=T_END {
        let world = Rc::clone(&world);
        let clock = Arc::clone(&clock);
        let ctrl = Arc::clone(&ctrl);
        let net = Rc::clone(&net);
        let result = Rc::clone(&result);
        let deactivated = Rc::clone(&deactivated);
        let pending = Rc::clone(&pending);
        let running = Rc::clone(&running);
        let feed = Rc::clone(&feed);

        let mut arrivals: Vec<Work> = Vec::new();
        if t <= FLOOD_TICKS {
            for _ in 0..VALIDATIONS_PER_TICK {
                arrivals.push(Work::Validate(next_validation % PRINCIPALS));
                next_validation += 1;
            }
        }
        for i in 0..PRINCIPALS {
            if revocation_arrival(i) == t {
                arrivals.push(Work::Revoke(i));
            }
        }

        sim.schedule_at(t, move |sim| {
            let now = sim.now();
            clock.set(now);

            // Completions.
            let finished: Vec<RunningReq> = {
                let mut run = running.borrow_mut();
                let mut done = Vec::new();
                let mut i = 0;
                while i < run.len() {
                    if run[i].finish_at <= now {
                        done.push(run.remove(i));
                    } else {
                        i += 1;
                    }
                }
                done
            };
            for mut req in finished {
                match req.work {
                    Work::Validate(i) => {
                        let who = PrincipalId::new(format!("dr-{i}"));
                        let cred = Credential::Rmc(world.login_certs[i].clone());
                        let _ = world.login.validate_own(&cred, &who, now);
                        let mut r = result.borrow_mut();
                        r.answered += 1;
                        if now - req.arrived <= VALIDATION_BUDGET {
                            r.goodput += 1;
                        }
                    }
                    Work::Revoke(i) => {
                        world.login.revoke_certificate(
                            world.login_certs[i].crr.cert_id,
                            "credential compromised",
                            now,
                        );
                    }
                }
                drop(req.permit.take());
            }

            // Queue polls (FIFO).
            {
                let mut pend = pending.borrow_mut();
                let mut i = 0;
                while i < pend.len() {
                    match ctrl.poll(&pend[i].ticket) {
                        PollOutcome::Waiting => i += 1,
                        PollOutcome::Ready(permit) => {
                            let req = pend.remove(i);
                            running.borrow_mut().push(RunningReq {
                                finish_at: now + SERVICE_TICKS,
                                arrived: req.arrived,
                                permit: Some(permit),
                                work: req.work,
                            });
                        }
                        PollOutcome::Expired => {
                            pend.remove(i);
                        }
                    }
                }
            }

            // Arrivals.
            for work in arrivals {
                let (lane, deadline) = if shedding {
                    match &work {
                        Work::Validate(_) => (
                            Lane::Validation,
                            Deadline::from_budget(now, Some(VALIDATION_BUDGET)),
                        ),
                        Work::Revoke(_) => (
                            Lane::Control,
                            Deadline::from_budget(now, Some(REVOCATION_BUDGET)),
                        ),
                    }
                } else {
                    (Lane::Control, Deadline::none())
                };
                match ctrl.submit(lane, deadline) {
                    Submission::Admitted(permit) => running.borrow_mut().push(RunningReq {
                        finish_at: now + SERVICE_TICKS,
                        arrived: now,
                        permit: Some(permit),
                        work,
                    }),
                    Submission::Queued(ticket) => pending.borrow_mut().push(PendingReq {
                        ticket,
                        arrived: now,
                        work,
                    }),
                    Submission::Shed { .. } => result.borrow_mut().shed += 1,
                    Submission::Expired => {}
                }
            }

            // Pump revocation events issuer → hospital.
            for ev in feed.drain() {
                let hospital = Arc::clone(&world.hospital);
                let topic = ev.topic.clone();
                net.borrow_mut().send(sim, "login", "hospital", move |sim| {
                    hospital.bus().publish_at(&topic, ev.payload, sim.now());
                });
            }

            // Detect duty deactivations.
            let mut d = deactivated.borrow_mut();
            for i in 0..PRINCIPALS {
                if d[i].is_some() || revocation_arrival(i) > now {
                    continue;
                }
                let revoked = world
                    .hospital
                    .record(world.duty_certs[i])
                    .map(|r| matches!(r.status, CredStatus::Revoked { .. }))
                    .unwrap_or(false);
                if revoked {
                    d[i] = Some(now);
                }
            }
        });
    }

    sim.run();

    let mut hist = Histogram::new();
    let mut within = 0usize;
    for (i, done) in deactivated.borrow().iter().enumerate() {
        let done = done.unwrap_or_else(|| panic!("revocation {i} never took effect"));
        let latency = done - revocation_arrival(i);
        if latency <= REVOCATION_BUDGET {
            within += 1;
        }
        hist.record(latency);
    }
    let mut out = result.borrow().clone_lite();
    out.p99_revocation = hist.quantile(0.99).unwrap();
    out.revocations_within_budget = within;
    out
}

impl FloodResult {
    fn clone_lite(&self) -> FloodResult {
        FloodResult {
            goodput: self.goodput,
            answered: self.answered,
            shed: self.shed,
            p99_revocation: self.p99_revocation,
            revocations_within_budget: self.revocations_within_budget,
        }
    }
}

fn overload_table() -> String {
    table_header(
        "TAB-F overload: priority lanes + shedding vs FIFO",
        "revocation latency must stay flat while validation floods",
        "series            goodput     shed   p99_revocation  within_budget",
    );

    let on = run_flood(true);
    let off = run_flood(false);

    for (name, s) in [("shedding_on", &on), ("shedding_off_fifo", &off)] {
        println!(
            "{:<17} {:>7} {:>8} {:>11} ticks  {:>7}/{}",
            name, s.goodput, s.shed, s.p99_revocation, s.revocations_within_budget, PRINCIPALS
        );
    }
    let speedup = off.p99_revocation as f64 / on.p99_revocation.max(1) as f64;
    println!("shedding p99 revocation speedup over FIFO: {speedup:.0}x");

    // The ISSUE acceptance criteria, asserted where the numbers are made.
    assert!(
        speedup >= 10.0,
        "shedding must improve p99 revocation latency by at least 10x \
         (got {:.1}x: {} vs {} ticks)",
        speedup,
        off.p99_revocation,
        on.p99_revocation
    );
    assert_eq!(
        on.revocations_within_budget, PRINCIPALS,
        "with shedding on, every revocation must land within its budget"
    );
    assert!(on.shed > 0, "the flood must actually shed");

    let series = [("shedding_on", &on), ("shedding_off_fifo", &off)]
        .iter()
        .map(|(name, s)| {
            format!(
                "    {{\"name\": \"{}\", \"goodput\": {}, \"answered\": {}, \"shed\": {}, \
                 \"p99_revocation_ticks\": {}, \"revocations_within_budget\": {}}}",
                name, s.goodput, s.answered, s.shed, s.p99_revocation, s.revocations_within_budget
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    format!(
        "{{\n  \"bench\": \"table_overload\",\n  \"seed\": {SEED},\n  \"flood_ticks\": {FLOOD_TICKS},\n  \"validations_per_tick\": {VALIDATIONS_PER_TICK},\n  \"service_ticks\": {SERVICE_TICKS},\n  \"revocation_budget_ticks\": {REVOCATION_BUDGET},\n  \"series\": [\n{series}\n  ],\n  \"p99_revocation_speedup\": {speedup:.1}\n}}\n",
    )
}

fn bench_overload(c: &mut Criterion) {
    let json = overload_table();
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_overload.json");
    std::fs::write(out, json).expect("write BENCH_overload.json");
    println!("wrote {out}");

    // The price of admission itself: what every request now pays on the
    // uncontended hot path, and what a shed costs under saturation.
    let mut group = c.benchmark_group("admission");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    group.bench_function(BenchmarkId::new("submit", "uncontended_grant"), |b| {
        let ctrl = AdmissionController::new(OverloadConfig::default());
        b.iter(|| {
            let s = ctrl.submit(Lane::Validation, Deadline::none());
            assert!(matches!(s, Submission::Admitted(_)));
        });
    });
    group.bench_function(BenchmarkId::new("submit", "saturated_shed"), |b| {
        let mut cfg = OverloadConfig::default();
        *cfg.lane_mut(Lane::Validation) = LaneConfig::fixed(1, 0, 1_000);
        let ctrl = AdmissionController::new(cfg);
        let _hold = match ctrl.submit(Lane::Validation, Deadline::none()) {
            Submission::Admitted(p) => p,
            _ => unreachable!(),
        };
        b.iter(|| {
            let s = ctrl.submit(Lane::Validation, Deadline::none());
            assert!(matches!(s, Submission::Shed { .. }));
        });
    });
    group.finish();
}

criterion_group!(benches, bench_overload);
criterion_main!(benches);
