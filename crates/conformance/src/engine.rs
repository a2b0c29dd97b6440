//! The two-domain scenario runner: a login issuer and a failure-aware
//! hospital joined by a lossy simulated link, composed with admission
//! control, fail-safe degradation, durable watermark catch-up, and —
//! in Byzantine cells — the trust layer.
//!
//! Everything runs under one seeded virtual clock
//! ([`oasis_sim::Simulation`]); the run records a canonical JSONL trace
//! ([`oasis_sim::Trace`]) and fills an [`InvariantReport`]
//! post-run. Revocation delivery between domains is modelled the way
//! the wire layer does it: the durable hospital *pulls* resyncs from
//! the issuer's retained ring over the faulty link
//! ([`OasisService::replay_retained`] →
//! [`OasisService::catch_up_with`]), so its per-topic watermark always
//! carries the issuer's sequence numbers and a lost or reordered pull
//! can never fabricate a gap.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use oasis_core::cert::Rmc;
use oasis_core::retry::RetryPolicy;
use oasis_core::{
    AdmissionController, Atom, BreakerConfig, Clock, CredStatus, Credential, CredentialValidator,
    Deadline, DegradationPolicy, EnvContext, HeartbeatConfig, Lane, LaneConfig, LocalRegistry,
    ManualClock, OasisError, OasisService, OverloadConfig, Permit, PollOutcome, PrincipalId,
    ResilientValidator, RoleName, ServiceConfig, ServiceId, ServiceJournal, Submission, Term,
    Ticket, Value, ValueType,
};
use oasis_events::SourceHealth;
use oasis_facts::FactStore;
use oasis_sim::{Fault, FaultPlan, Latency, LinkConfig, SimNet, Simulation, Trace, TraceValue};
use oasis_store::MemBackend;
use oasis_trust::{
    ByzantineCiv as RogueCiv, CivNotary, Decision, Outcome, RiskPolicy, TrustAssessor,
};

use crate::invariant::{
    InvariantReport, BYZANTINE_EVIDENCE_REJECTED, DEGRADATION_CONSISTENT, GAP_FREE_RECOVERY,
    NO_ACKED_EVENT_LOST, NO_POST_DEADLINE_EXECUTION, NO_STALE_CERT_ACCEPTANCE,
};
use crate::parity::Perturbation;
use crate::scenario::{FaultRegime, Scenario, Workload};
use crate::{METRICS_DETERMINISTIC, OVERLOAD_BACKPRESSURE};

/// Principals with a login credential and a dependent duty role.
const PRINCIPALS: usize = 6;
/// Throwaway sessions issued up front for revocation schedules.
const THROWAWAYS: usize = 12;
/// Virtual ticks an admitted request occupies a worker.
const SERVICE_TICKS: u64 = 2;
/// Deadline budget propagated with each validation.
const VALIDATION_BUDGET: u64 = 30;
/// Deadline budget propagated with each revocation request.
const REVOCATION_BUDGET: u64 = 60;
/// First tick of the post-fault settle probe window.
const PROBE_FROM: u64 = 240;
/// Last tick of the settle probe window.
const PROBE_TO: u64 = 365;
/// Tick of the guaranteed (fault-free) final catch-up.
const FINAL_CATCHUP: u64 = 370;
/// Last simulated tick.
const END: u64 = 380;

/// The issuer's revocation topic as the hospital subscribes to it.
const TOPIC: &str = "cred.revoked.login";

/// One finished scenario run: the canonical trace plus the invariant
/// report the harness asserts.
#[derive(Debug)]
pub struct ScenarioRun {
    /// The cell that ran.
    pub scenario: Scenario,
    /// The per-scenario seed actually used (derived from the base seed
    /// and the scenario name).
    pub seed: u64,
    /// Canonical JSONL trace lines.
    pub trace: Vec<String>,
    /// The shared invariant verdicts.
    pub report: InvariantReport,
}

enum Work {
    /// Validation callback for principal `i`'s login credential.
    Validate(usize),
    /// Revocation of target `i` (see `RevTargets`).
    Revoke(usize),
}

struct PendingReq {
    ticket: Ticket,
    deadline: Deadline,
    work: Work,
}

struct RunningReq {
    finish_at: u64,
    permit: Option<Permit>,
    work: Work,
}

#[derive(Default)]
struct Metrics {
    validations_ok: u64,
    validations_refused: u64,
    validations_shed: u64,
    validations_expired: u64,
    started_after_deadline: u64,
    stale_violations: Vec<String>,
    revocations_deferred: u64,
    /// Revocations shed or expired on the issuer's Control lane.
    revocation_retries: u64,
    /// Arrival tick of each revocation target, dropped once an issuer
    /// outage defers it: what remains arrived and ran while the issuer
    /// was up.
    revocation_arrived: BTreeMap<usize, u64>,
    /// Slowest arrival-to-execution latency among those revocations.
    slowest_revocation: u64,
    dead_seen: Option<u64>,
    degraded_total: u64,
    /// `(tick, probe_ok, breaker_state)` of the settle probe.
    settled: Option<(u64, bool, String)>,
    /// `(complete, applied, watermark)` of the final catch-up.
    final_catchup: Option<(bool, u64, u64)>,
}

/// Callback reachability switch: while the issuer is crashed or the
/// inter-domain link is cut, callbacks time out instead of answering.
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

fn who(i: usize) -> PrincipalId {
    PrincipalId::new(format!("dr-{i}"))
}

fn login_id() -> ServiceId {
    ServiceId::new("login")
}

fn hospital_id() -> ServiceId {
    ServiceId::new("hospital")
}

/// How many validations arrive at tick `t` under `workload`.
fn validations_at(workload: Workload, t: u64) -> usize {
    match workload {
        Workload::Quiet => 0,
        Workload::Steady => usize::from(t.is_multiple_of(5) && (10..=280).contains(&t)),
        Workload::ValidationFlood | Workload::FloodAndStorm => {
            if (20..=220).contains(&t) {
                3
            } else {
                0
            }
        }
        Workload::RevocationStorm => usize::from(t.is_multiple_of(5) && (10..=280).contains(&t)),
    }
}

/// The revocation arrival schedule: `(tick, target)` where targets
/// `0..THROWAWAYS` are throwaway sessions and `THROWAWAYS + i` is
/// primary `4 + i`'s login credential.
fn revocation_arrivals(workload: Workload, perturb: Option<Perturbation>) -> Vec<(u64, usize)> {
    let mut arrivals: Vec<(u64, usize)> = Vec::new();
    match workload {
        Workload::Quiet => {}
        Workload::Steady | Workload::ValidationFlood => {
            arrivals.push((80, 0));
            arrivals.push((150, 1));
        }
        Workload::RevocationStorm | Workload::FloodAndStorm => {
            for i in 0..THROWAWAYS {
                arrivals.push((60 + 6 * i as u64, i));
            }
            arrivals.push((100, THROWAWAYS));
            arrivals.push((120, THROWAWAYS + 1));
        }
    }
    if perturb == Some(Perturbation::DelayFirstRevocation) {
        if let Some(first) = arrivals.iter_mut().min_by_key(|(t, _)| *t) {
            first.0 += 1;
        }
    }
    arrivals
}

/// Installs the scripted fault windows for `fault` into `plan`.
fn script_faults(plan: &mut FaultPlan, fault: FaultRegime) {
    match fault {
        FaultRegime::None => {}
        FaultRegime::IssuerOutage => {
            plan.crash_at(90, "login");
            plan.recover_at(160, "login");
        }
        FaultRegime::FlappingIssuer => {
            plan.crash_at(60, "login");
            plan.recover_at(85, "login");
            plan.crash_at(120, "login");
            plan.recover_at(145, "login");
        }
        FaultRegime::PartitionWindow => {
            plan.partition_at(70, "login", "hospital");
            plan.heal_at(130, "login", "hospital");
        }
        FaultRegime::ClockSkewAhead => {
            plan.skew_clock_at(40, "login", 200);
            plan.skew_clock_at(200, "login", 0);
        }
        FaultRegime::ClockSkewBehind => {
            plan.skew_clock_at(40, "login", -45);
            plan.skew_clock_at(200, "login", 0);
        }
        FaultRegime::ByzantineCiv => {
            plan.byzantine_civ_at(100, "civ-login");
        }
        // Replication-only regimes never reach the two-domain runner.
        _ => unreachable!("fault {fault:?} is not a two-domain regime"),
    }
}

struct TrustWorld {
    honest: CivNotary,
    rogue: RogueCiv,
    alice_history: RefCell<Vec<oasis_trust::AuditCertificate>>,
    mallory_history: RefCell<Vec<oasis_trust::AuditCertificate>>,
    forged: RefCell<Vec<oasis_trust::AuditCertificate>>,
    fabricated: RefCell<Vec<oasis_trust::AuditCertificate>>,
}

impl TrustWorld {
    fn new() -> Self {
        Self {
            honest: CivNotary::new("civ-hospital"),
            rogue: RogueCiv::new("civ-login"),
            alice_history: RefCell::new(Vec::new()),
            mallory_history: RefCell::new(Vec::new()),
            forged: RefCell::new(Vec::new()),
            fabricated: RefCell::new(Vec::new()),
        }
    }
}

/// The scripted fault schedule a two-domain regime installs, as
/// `(tick, fault)` pairs — the unit of reduction for the shrink loop
/// ([`crate::shrink`]).
pub(crate) fn two_domain_schedule(fault: FaultRegime) -> Vec<(u64, Fault)> {
    let mut plan = FaultPlan::new();
    script_faults(&mut plan, fault);
    plan.schedule_snapshot()
}

/// Runs one two-domain cell. `seed` is the already-derived per-scenario
/// seed; `perturb` is only used by the harness's divergence meta-test.
pub(crate) fn run_two_domain(
    scenario: Scenario,
    seed: u64,
    perturb: Option<Perturbation>,
) -> ScenarioRun {
    run_two_domain_scheduled(scenario, seed, perturb, None)
}

/// [`run_two_domain`] with an explicit fault schedule overriding the
/// regime's scripted one — the shrink loop's entry point: it replays
/// the cell under ddmin-reduced sub-schedules to find the minimal one
/// that still fails.
pub(crate) fn run_two_domain_scheduled(
    scenario: Scenario,
    seed: u64,
    perturb: Option<Perturbation>,
    schedule: Option<Vec<(u64, Fault)>>,
) -> ScenarioRun {
    let workload = scenario.workload;
    let regime = scenario.fault;

    // --- World -------------------------------------------------------
    let facts = Arc::new(FactStore::new());
    facts.define("password_ok", 1).unwrap();
    for i in 0..PRINCIPALS {
        facts
            .insert("password_ok", vec![Value::id(format!("dr-{i}"))])
            .unwrap();
    }

    let login = OasisService::new(
        ServiceConfig::new("login").with_revocation_retention(64),
        Arc::clone(&facts),
    );
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

    let hospital_journal = MemBackend::new();
    let hospital_snapshot = MemBackend::new();
    let store = ServiceJournal::open(
        Arc::new(hospital_journal.clone()),
        Arc::new(hospital_snapshot.clone()),
    )
    .expect("hospital journal opens");
    let hospital = OasisService::new(
        ServiceConfig::new("hospital")
            .with_journal(store)
            .with_validation_cache(5)
            .with_heartbeats(HeartbeatConfig {
                dead_after: 3,
                grace: 10,
                policy: DegradationPolicy::FailSafe,
            }),
        Arc::clone(&facts),
    );
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

    // Steady cells run fully instrumented: a live metrics registry with
    // span recording on. Core paths record only virtual-time values, so
    // the end-of-run snapshot (embedded in the trace below) must replay
    // byte-identically — any wall-clock leak fails parity.
    let obs = (workload == Workload::Steady)
        .then(|| Arc::new(oasis_obs::Registry::with_span_recording()));
    if let Some(reg) = &obs {
        login.set_obs(Arc::clone(reg) as Arc<dyn oasis_obs::Recorder>);
        hospital.set_obs(Arc::clone(reg) as Arc<dyn oasis_obs::Recorder>);
    }

    let registry = Arc::new(LocalRegistry::new());
    registry.register(&login);
    let gate = Arc::new(Gate {
        inner: registry,
        up: AtomicBool::new(true),
    });
    let resilient = Arc::new(
        ResilientValidator::new(gate.clone() as Arc<dyn CredentialValidator>)
            .with_retry(RetryPolicy::immediate(2))
            .with_breaker(BreakerConfig {
                failure_threshold: 3,
                cooldown_ticks: 30,
            }),
    );
    hospital.set_validator(resilient.clone());
    hospital.watch_issuer(&login_id(), 10, 0);

    // Role state at t=0: every principal logged in and on duty, plus the
    // throwaway sessions the revocation schedules burn through.
    let mut login_certs: Vec<Rmc> = Vec::with_capacity(PRINCIPALS);
    let mut duty_certs = Vec::with_capacity(PRINCIPALS);
    for i in 0..PRINCIPALS {
        let rmc = login
            .activate_role(
                &who(i),
                &RoleName::new("logged_in"),
                &[Value::id(format!("dr-{i}"))],
                &[],
                &EnvContext::new(0),
            )
            .unwrap();
        let duty = hospital
            .activate_role(
                &who(i),
                &RoleName::new("doctor_on_duty"),
                &[Value::id(format!("dr-{i}"))],
                &[Credential::Rmc(rmc.clone())],
                &EnvContext::new(0),
            )
            .unwrap();
        login_certs.push(rmc);
        duty_certs.push(duty.crr.cert_id);
    }
    let throwaways: Vec<Rmc> = (0..THROWAWAYS)
        .map(|i| {
            login
                .activate_role(
                    &who(i % PRINCIPALS),
                    &RoleName::new("logged_in"),
                    &[Value::id(format!("dr-{}", i % PRINCIPALS))],
                    &[],
                    &EnvContext::new(1),
                )
                .unwrap()
        })
        .collect();
    // Revocation target table: `(credential, presenter index)` so the
    // post-run sweep can re-validate every revoked certificate.
    let rev_targets: Vec<(Rmc, usize)> = throwaways
        .iter()
        .enumerate()
        .map(|(i, rmc)| (rmc.clone(), i % PRINCIPALS))
        .chain([(login_certs[4].clone(), 4), (login_certs[5].clone(), 5)])
        .collect();

    // --- Admission control (virtual clock) ---------------------------
    let clock = Arc::new(ManualClock::new(0));
    let mut hosp_cfg = OverloadConfig::default();
    *hosp_cfg.lane_mut(Lane::Validation) = LaneConfig::fixed(2, 16, 1_000);
    let ctrl_hosp = AdmissionController::with_clock(hosp_cfg, Arc::clone(&clock) as Arc<dyn Clock>);
    let mut login_cfg = OverloadConfig::default();
    *login_cfg.lane_mut(Lane::Control) = LaneConfig::fixed(2, 256, 1_000);
    let ctrl_login =
        AdmissionController::with_clock(login_cfg, Arc::clone(&clock) as Arc<dyn Clock>);

    // --- Simulated network, faults, trust ----------------------------
    let mut sim = Simulation::new(seed);
    let net = Rc::new(RefCell::new(SimNet::new(LinkConfig {
        latency: Latency::Constant(1),
        loss: 0.03,
        duplicate: 0.05,
        jitter: 2,
    })));
    let plan = Rc::new(RefCell::new(match schedule {
        Some(schedule) => FaultPlan::from_schedule(schedule),
        None => {
            let mut plan = FaultPlan::new();
            script_faults(&mut plan, regime);
            plan
        }
    }));

    let trust = Rc::new(TrustWorld::new());
    let trace = Trace::new();
    let metrics = Rc::new(RefCell::new(Metrics::default()));
    let crashed = Rc::new(Cell::new(false));
    let partitioned = Rc::new(Cell::new(false));
    let pending_v = Rc::new(RefCell::new(Vec::<PendingReq>::new()));
    let running_v = Rc::new(RefCell::new(Vec::<RunningReq>::new()));
    let pending_r = Rc::new(RefCell::new(Vec::<PendingReq>::new()));
    let running_r = Rc::new(RefCell::new(Vec::<RunningReq>::new()));
    let deferred = Rc::new(RefCell::new(Vec::<usize>::new()));
    // Issuer-side revocation execution order (cert ids); index+1 is the
    // retained-ring topic sequence number.
    let executed = Rc::new(RefCell::new(Vec::<u64>::new()));
    // Tick each issuer revocation was *applied* at the hospital.
    let applied_at = Rc::new(RefCell::new(BTreeMap::<u64, u64>::new()));

    trace.log_kv(
        0,
        "scenario start",
        &[
            ("category", TraceValue::from(scenario.category().key())),
            ("fault", TraceValue::from(regime.key())),
            ("seed", TraceValue::from(seed)),
            ("topology", TraceValue::from(scenario.topology.key())),
            ("workload", TraceValue::from(workload.key())),
        ],
    );

    let rev_schedule = revocation_arrivals(workload, perturb);
    let mut next_validation = 0usize;
    for t in 1..=END {
        // This tick's arrivals, decided up front so the offered load is
        // a pure function of the scenario (the seed only drives the
        // link and fault timing interactions).
        let mut arrivals: Vec<Work> = Vec::new();
        for _ in 0..validations_at(workload, t) {
            arrivals.push(Work::Validate(next_validation % PRINCIPALS));
            next_validation += 1;
        }
        for (tick, target) in &rev_schedule {
            if *tick == t {
                arrivals.push(Work::Revoke(*target));
            }
        }

        let login = Arc::clone(&login);
        let hospital = Arc::clone(&hospital);
        let resilient = Arc::clone(&resilient);
        let gate = Arc::clone(&gate);
        let clock = Arc::clone(&clock);
        let ctrl_hosp = Arc::clone(&ctrl_hosp);
        let ctrl_login = Arc::clone(&ctrl_login);
        let net = Rc::clone(&net);
        let plan = Rc::clone(&plan);
        let trust = Rc::clone(&trust);
        let trace = trace.clone();
        let metrics = Rc::clone(&metrics);
        let crashed = Rc::clone(&crashed);
        let partitioned = Rc::clone(&partitioned);
        let pending_v = Rc::clone(&pending_v);
        let running_v = Rc::clone(&running_v);
        let pending_r = Rc::clone(&pending_r);
        let running_r = Rc::clone(&running_r);
        let deferred = Rc::clone(&deferred);
        let executed = Rc::clone(&executed);
        let applied_at = Rc::clone(&applied_at);
        let login_certs = login_certs.clone();
        let rev_targets = rev_targets.clone();
        let obs = obs.clone();

        sim.schedule_at(t, move |sim| {
            let now = sim.now();
            clock.set(now);

            // 1. Faults due this tick.
            for fault in plan.borrow_mut().apply_due(now, &mut net.borrow_mut()) {
                trace.log_kv(
                    now,
                    "fault",
                    &[("detail", TraceValue::from(format!("{fault:?}")))],
                );
                match &fault {
                    Fault::Crash { .. } => crashed.set(true),
                    Fault::Recover { .. } => crashed.set(false),
                    Fault::Partition { .. } => partitioned.set(true),
                    Fault::Heal { .. } => partitioned.set(false),
                    Fault::ByzantineCiv { .. } => {
                        trust.rogue.go_byzantine();
                        trace.log(now, "civ-login turned byzantine and repudiated its history");
                    }
                    _ => {}
                }
                gate.up
                    .store(!(crashed.get() || partitioned.get()), Ordering::SeqCst);
            }
            let skew = plan.borrow().clock_skew("login");
            let issuer_now = (now as i64 + skew).max(0) as u64;

            // 2. Completions: validation windows that end this tick run
            // the engine call against the hospital.
            let finish = |running: &Rc<RefCell<Vec<RunningReq>>>| -> Vec<RunningReq> {
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
            for mut req in finish(&running_v) {
                if let Work::Validate(i) = req.work {
                    let cred = Credential::Rmc(login_certs[i].clone());
                    let cert = login_certs[i].crr.cert_id.0;
                    let res = hospital.validate_credential(&cred, &who(i), now);
                    let mut m = metrics.borrow_mut();
                    if res.is_ok() {
                        m.validations_ok += 1;
                        if applied_at.borrow().get(&cert).is_some_and(|&at| at < now) {
                            m.stale_violations.push(format!(
                                "cert {cert} validated Ok at t{now} after its revocation \
                                 was applied at t{}",
                                applied_at.borrow()[&cert]
                            ));
                            drop(m);
                            trace.log_kv(
                                now,
                                "STALE ACCEPTANCE",
                                &[("cert", TraceValue::from(cert))],
                            );
                        }
                    } else {
                        m.validations_refused += 1;
                    }
                }
                drop(req.permit.take());
            }
            // ...and revocation windows execute at the (possibly skewed,
            // possibly crashed) issuer.
            for mut req in finish(&running_r) {
                if let Work::Revoke(target) = req.work {
                    if crashed.get() {
                        deferred.borrow_mut().push(target);
                        let mut m = metrics.borrow_mut();
                        m.revocations_deferred += 1;
                        m.revocation_arrived.remove(&target);
                        drop(m);
                        trace.log_kv(
                            now,
                            "revocation deferred (issuer down)",
                            &[("target", TraceValue::from(target))],
                        );
                    } else {
                        let cert = rev_targets[target].0.crr.cert_id;
                        // Instrumented cells run the revocation under a
                        // deterministic causal root (trace id = cert id),
                        // so svc.revoke and the bus cascade emit spans.
                        let _root = obs.as_ref().map(|_| {
                            oasis_obs::scope(oasis_obs::TraceCtx {
                                trace_id: cert.0,
                                parent_span: 0,
                                hop: 0,
                            })
                        });
                        login.revoke_certificate(cert, "conformance revocation", issuer_now);
                        executed.borrow_mut().push(cert.0);
                        let mut m = metrics.borrow_mut();
                        if let Some(&arrived) = m.revocation_arrived.get(&target) {
                            m.slowest_revocation = m.slowest_revocation.max(now - arrived);
                        }
                        drop(m);
                        trace.log_kv(
                            now,
                            "revocation executed",
                            &[
                                ("cert", TraceValue::from(cert.0)),
                                ("issuer_now", TraceValue::from(issuer_now)),
                                ("seq", TraceValue::from(executed.borrow().len())),
                                ("target", TraceValue::from(target)),
                            ],
                        );
                    }
                }
                drop(req.permit.take());
            }

            // 3. Queue polls: grants start an execution window, expired
            // tickets die in place (revocations retry with a fresh
            // deadline — the client's retry loop).
            {
                let mut pend = pending_v.borrow_mut();
                let mut i = 0;
                while i < pend.len() {
                    match ctrl_hosp.poll(&pend[i].ticket) {
                        PollOutcome::Waiting => i += 1,
                        PollOutcome::Ready(permit) => {
                            let req = pend.remove(i);
                            if req.deadline.expired(now) {
                                metrics.borrow_mut().started_after_deadline += 1;
                            }
                            running_v.borrow_mut().push(RunningReq {
                                finish_at: now + SERVICE_TICKS,
                                permit: Some(permit),
                                work: req.work,
                            });
                        }
                        PollOutcome::Expired => {
                            pend.remove(i);
                            metrics.borrow_mut().validations_expired += 1;
                        }
                    }
                }
            }
            if !crashed.get() {
                let mut pend = pending_r.borrow_mut();
                let mut i = 0;
                while i < pend.len() {
                    match ctrl_login.poll(&pend[i].ticket) {
                        PollOutcome::Waiting => i += 1,
                        PollOutcome::Ready(permit) => {
                            let req = pend.remove(i);
                            if req.deadline.expired(now) {
                                metrics.borrow_mut().started_after_deadline += 1;
                            }
                            running_r.borrow_mut().push(RunningReq {
                                finish_at: now + SERVICE_TICKS,
                                permit: Some(permit),
                                work: req.work,
                            });
                        }
                        PollOutcome::Expired => {
                            let req = pend.remove(i);
                            if let Work::Revoke(target) = req.work {
                                deferred.borrow_mut().push(target);
                                metrics.borrow_mut().revocation_retries += 1;
                                trace.log_kv(
                                    now,
                                    "revocation ticket expired, retrying",
                                    &[("target", TraceValue::from(target))],
                                );
                            }
                        }
                    }
                }
            }

            // 4. Arrivals. Deferred revocations re-arrive as soon as
            // the issuer is back.
            let mut revs: Vec<usize> = Vec::new();
            if !crashed.get() {
                revs.append(&mut deferred.borrow_mut());
            }
            for work in arrivals {
                match work {
                    Work::Validate(i) => {
                        let deadline = Deadline::from_budget(now, Some(VALIDATION_BUDGET));
                        match ctrl_hosp.submit(Lane::Validation, deadline) {
                            Submission::Admitted(permit) => {
                                running_v.borrow_mut().push(RunningReq {
                                    finish_at: now + SERVICE_TICKS,
                                    permit: Some(permit),
                                    work: Work::Validate(i),
                                })
                            }
                            Submission::Queued(ticket) => pending_v.borrow_mut().push(PendingReq {
                                ticket,
                                deadline,
                                work: Work::Validate(i),
                            }),
                            Submission::Shed { .. } => {
                                metrics.borrow_mut().validations_shed += 1;
                            }
                            Submission::Expired => {
                                metrics.borrow_mut().validations_expired += 1;
                            }
                        }
                    }
                    Work::Revoke(target) => {
                        metrics.borrow_mut().revocation_arrived.insert(target, now);
                        revs.push(target);
                    }
                }
            }
            for target in revs {
                if crashed.get() {
                    deferred.borrow_mut().push(target);
                    let mut m = metrics.borrow_mut();
                    m.revocations_deferred += 1;
                    m.revocation_arrived.remove(&target);
                    drop(m);
                    trace.log_kv(
                        now,
                        "revocation deferred (issuer down)",
                        &[("target", TraceValue::from(target))],
                    );
                    continue;
                }
                let deadline = Deadline::from_budget(now, Some(REVOCATION_BUDGET));
                match ctrl_login.submit(Lane::Control, deadline) {
                    Submission::Admitted(permit) => {
                        running_r.borrow_mut().push(RunningReq {
                            finish_at: now + SERVICE_TICKS,
                            permit: Some(permit),
                            work: Work::Revoke(target),
                        });
                        trace.log_kv(
                            now,
                            "revocation admitted",
                            &[("target", TraceValue::from(target))],
                        );
                    }
                    Submission::Queued(ticket) => pending_r.borrow_mut().push(PendingReq {
                        ticket,
                        deadline,
                        work: Work::Revoke(target),
                    }),
                    Submission::Shed { .. } | Submission::Expired => {
                        deferred.borrow_mut().push(target);
                        metrics.borrow_mut().revocation_retries += 1;
                        trace.log_kv(
                            now,
                            "revocation shed, retrying",
                            &[("target", TraceValue::from(target))],
                        );
                    }
                }
            }

            // 5. Heartbeats: login beats every 10 ticks over the link.
            if now.is_multiple_of(10) {
                let hospital = Arc::clone(&hospital);
                net.borrow_mut().send(sim, "login", "hospital", move |sim| {
                    hospital.issuer_beat(&login_id(), sim.now());
                });
            }

            // 6. Revocation resync: every 10 ticks the durable hospital
            // pulls the issuer's retained ring past its watermark — the
            // wire path's catch_up over the faulty link. A crashed
            // issuer or a cut link drops the pull; sequence numbers are
            // the issuer's own, so nothing can fabricate a gap.
            if now % 10 == 3 {
                let login = Arc::clone(&login);
                let hospital = Arc::clone(&hospital);
                let applied_at = Rc::clone(&applied_at);
                let trace = trace.clone();
                net.borrow_mut().send(sim, "hospital", "login", move |sim| {
                    let at = sim.now();
                    let wm = hospital.watermark_for(TOPIC);
                    let (events, complete) = login.replay_retained(TOPIC, wm);
                    if events.is_empty() {
                        return;
                    }
                    let rep = hospital.catch_up_with(TOPIC, &events, complete, at);
                    for ev in &events {
                        applied_at
                            .borrow_mut()
                            .entry(ev.payload.crr.cert_id.0)
                            .or_insert(at);
                    }
                    trace.log_kv(
                        at,
                        "resync applied",
                        &[
                            ("applied", TraceValue::from(rep.applied)),
                            ("watermark", TraceValue::from(hospital.watermark_for(TOPIC))),
                        ],
                    );
                });
            }

            // 7. Heartbeat sweeper: the hospital's maintenance tick.
            if now.is_multiple_of(5) {
                let mut m = metrics.borrow_mut();
                if m.dead_seen.is_none()
                    && hospital.issuer_health(&login_id(), now) == Some(SourceHealth::Dead)
                {
                    m.dead_seen = Some(now);
                    drop(m);
                    trace.log(now, "issuer login observed dead");
                    m = metrics.borrow_mut();
                }
                let revoked = hospital.tick_heartbeats(now);
                if !revoked.is_empty() {
                    m.degraded_total += revoked.len() as u64;
                    drop(m);
                    trace.log_kv(
                        now,
                        "degraded dependent certs",
                        &[("count", TraceValue::from(revoked.len()))],
                    );
                }
            }

            // 8. Trust-layer interactions (Byzantine cells only).
            if regime == FaultRegime::ByzantineCiv {
                if now.is_multiple_of(10) && (10..=280).contains(&now) {
                    let cert = trust.honest.notarise(
                        &who(0),
                        &hospital_id(),
                        "treatment",
                        Outcome::Fulfilled,
                        now,
                    );
                    trust.alice_history.borrow_mut().push(cert);
                }
                if now.is_multiple_of(10) && (10..=90).contains(&now) {
                    let outcome = if (now / 10) % 2 == 0 {
                        Outcome::Fulfilled
                    } else {
                        Outcome::ClientDefaulted
                    };
                    let cert = trust.rogue.notarise(
                        &PrincipalId::new("mallory"),
                        &hospital_id(),
                        "visit",
                        outcome,
                        now,
                    );
                    trust.mallory_history.borrow_mut().push(cert);
                }
                if now == 110 {
                    for _ in 0..3 {
                        if let Some(cert) = trust.rogue.forge_as(
                            &ServiceId::new("civ-hospital"),
                            &PrincipalId::new("mallory"),
                            &hospital_id(),
                            "forged-treatment",
                            Outcome::Fulfilled,
                            now,
                        ) {
                            trust.forged.borrow_mut().push(cert);
                        }
                    }
                    let mut fab = trust.rogue.fabricate_history(
                        &PrincipalId::new("mallory"),
                        &hospital_id(),
                        10,
                        now,
                    );
                    trust.fabricated.borrow_mut().append(&mut fab);
                    let (w, f, fab_n) = trust.rogue.attack_stats();
                    trace.log_kv(
                        now,
                        "byzantine attack wave",
                        &[
                            ("fabricated", TraceValue::from(fab_n)),
                            ("forged", TraceValue::from(f)),
                            ("whitewashed", TraceValue::from(w)),
                        ],
                    );
                }
                if now.is_multiple_of(10) && (120..=200).contains(&now) {
                    // Mallory keeps defaulting; the rogue CIV whitewashes.
                    let cert = trust.rogue.notarise(
                        &PrincipalId::new("mallory"),
                        &hospital_id(),
                        "visit",
                        Outcome::ClientDefaulted,
                        now,
                    );
                    trust.mallory_history.borrow_mut().push(cert);
                }
            }

            // 9. Settle probe: after every fault window closes, the
            // first healthy observation validates fresh authority and
            // checks the breaker closed.
            if (PROBE_FROM..=PROBE_TO).contains(&now)
                && metrics.borrow().settled.is_none()
                && hospital.issuer_health(&login_id(), now) == Some(SourceHealth::Healthy)
            {
                let cred = Credential::Rmc(login_certs[0].clone());
                let probe_ok = hospital.validate_credential(&cred, &who(0), now).is_ok();
                let breaker = resilient.breaker_state(&login_id()).to_string();
                metrics.borrow_mut().settled = Some((now, probe_ok, breaker.clone()));
                trace.log_kv(
                    now,
                    "settled",
                    &[
                        ("breaker", TraceValue::from(breaker)),
                        ("probe_ok", TraceValue::from(probe_ok)),
                    ],
                );
            }

            // 10. Final catch-up: by now every fault window is healed,
            // so this pull is direct (the response cannot be lost) and
            // must close any remaining gap.
            if now == FINAL_CATCHUP {
                let wm = hospital.watermark_for(TOPIC);
                let (events, complete) = login.replay_retained(TOPIC, wm);
                let rep = hospital.catch_up_with(TOPIC, &events, complete, now);
                for ev in &events {
                    applied_at
                        .borrow_mut()
                        .entry(ev.payload.crr.cert_id.0)
                        .or_insert(now);
                }
                let after = hospital.watermark_for(TOPIC);
                metrics.borrow_mut().final_catchup = Some((rep.complete, rep.applied, after));
                trace.log_kv(
                    now,
                    "final catch-up",
                    &[
                        ("applied", TraceValue::from(rep.applied)),
                        ("complete", TraceValue::from(rep.complete)),
                        ("watermark", TraceValue::from(after)),
                    ],
                );
            }

            // 11. End-of-run stats snapshot, canonical and sorted.
            if now == END {
                let m = metrics.borrow();
                let (sent, dropped) = net.borrow().stats();
                trace.log_kv(
                    now,
                    "final state",
                    &[
                        ("bus", TraceValue::Raw(hospital.bus().stats().trace_json())),
                        (
                            "ctrl_login",
                            TraceValue::Raw(ctrl_login.stats().trace_json()),
                        ),
                        (
                            "ctrl_validation",
                            TraceValue::Raw(ctrl_hosp.stats().trace_json()),
                        ),
                        (
                            "degradation",
                            TraceValue::Raw(
                                hospital
                                    .degradation_stats()
                                    .map(|d| d.trace_json())
                                    .unwrap_or_else(|| "null".into()),
                            ),
                        ),
                        ("net_dropped", TraceValue::from(dropped)),
                        (
                            "net_duplicated",
                            TraceValue::from(net.borrow().duplicated()),
                        ),
                        ("net_sent", TraceValue::from(sent)),
                        ("resilient", TraceValue::Raw(resilient.stats().trace_json())),
                        (
                            "revocations_executed",
                            TraceValue::from(executed.borrow().len()),
                        ),
                        ("validations_ok", TraceValue::from(m.validations_ok)),
                        (
                            "validations_refused",
                            TraceValue::from(m.validations_refused),
                        ),
                        ("validations_shed", TraceValue::from(m.validations_shed)),
                    ],
                );
                if let Some(reg) = &obs {
                    let snapshot = oasis_obs::Recorder::snapshot_json(
                        reg.as_ref() as &dyn oasis_obs::Recorder
                    )
                    .unwrap_or_else(|| "null".to_string());
                    let spans =
                        oasis_obs::Recorder::spans(reg.as_ref() as &dyn oasis_obs::Recorder)
                            .lines();
                    trace.log_kv(
                        now,
                        "metrics snapshot",
                        &[
                            ("snapshot", TraceValue::Raw(snapshot)),
                            ("spans", TraceValue::Raw(format!("[{}]", spans.join(",")))),
                        ],
                    );
                }
            }
        });
    }

    sim.run();

    // --- Invariant report ---------------------------------------------
    let mut report = InvariantReport::new();
    let m = metrics.borrow();
    let executed = executed.borrow();
    let n_executed = executed.len() as u64;

    report.record(
        NO_POST_DEADLINE_EXECUTION,
        m.started_after_deadline == 0,
        format!(
            "{} late starts ({} validations expired in queue, {} revocation retries)",
            m.started_after_deadline, m.validations_expired, m.revocation_retries
        ),
    );

    // Post-run sweep: after the final catch-up, every revoked
    // certificate must be refused at the hospital.
    let mut post_catchup_accepted: Vec<u64> = Vec::new();
    for (rmc, presenter) in &rev_targets {
        if !executed.contains(&rmc.crr.cert_id.0) {
            continue;
        }
        if hospital
            .validate_credential(&Credential::Rmc(rmc.clone()), &who(*presenter), END)
            .is_ok()
        {
            post_catchup_accepted.push(rmc.crr.cert_id.0);
        }
    }
    report.record(
        NO_STALE_CERT_ACCEPTANCE,
        m.stale_violations.is_empty() && post_catchup_accepted.is_empty(),
        if m.stale_violations.is_empty() && post_catchup_accepted.is_empty() {
            format!(
                "0 stale acceptances across {} served validations; all {} revoked certs \
                 refused after catch-up",
                m.validations_ok + m.validations_refused,
                n_executed
            )
        } else {
            format!(
                "in-run violations: {:?}; accepted after catch-up: {post_catchup_accepted:?}",
                m.stale_violations
            )
        },
    );

    let (ring, ring_complete) = login.replay_retained(TOPIC, 0);
    let ring_seqs: Vec<u64> = ring.iter().map(|e| e.topic_seq).collect();
    let contiguous = ring_seqs == (1..=n_executed).collect::<Vec<u64>>();
    let (catch_complete, _catch_applied, final_wm) = m.final_catchup.unwrap_or((false, 0, 0));
    report.record(
        GAP_FREE_RECOVERY,
        ring_complete && contiguous && catch_complete && final_wm == n_executed,
        format!(
            "ring complete={ring_complete} seqs={ring_seqs:?}; final catch-up \
             complete={catch_complete} watermark={final_wm}/{n_executed}"
        ),
    );

    let applied = applied_at.borrow();
    let missing_apply: Vec<u64> = executed
        .iter()
        .filter(|cert| !applied.contains_key(cert))
        .copied()
        .collect();
    let mut duty_not_collapsed: Vec<usize> = Vec::new();
    if scenario.workload.storms() {
        for i in [4usize, 5] {
            let collapsed = hospital
                .record(duty_certs[i])
                .map(|r| matches!(r.status, CredStatus::Revoked { .. }))
                .unwrap_or(false);
            if !collapsed {
                duty_not_collapsed.push(i);
            }
        }
    }
    report.record(
        NO_ACKED_EVENT_LOST,
        missing_apply.is_empty() && duty_not_collapsed.is_empty() && final_wm == n_executed,
        if n_executed == 0 {
            "vacuous: workload revoked nothing, and nothing was conjured".to_string()
        } else {
            format!(
                "{n_executed}/{n_executed} revocations applied at subscriber \
                 (missing: {missing_apply:?}); duty cascade pending for {duty_not_collapsed:?}"
            )
        },
    );

    let ds = hospital.degradation_stats().expect("heartbeats configured");
    let (settle_tick, probe_ok, breaker) =
        m.settled
            .clone()
            .unwrap_or((0, false, "never-settled".to_string()));
    let queues_drained = pending_v.borrow().is_empty()
        && running_v.borrow().is_empty()
        && pending_r.borrow().is_empty()
        && running_r.borrow().is_empty()
        && deferred.borrow().is_empty();
    let regime_consistent = if regime.leaves_issuer_reachable() {
        // Transient false suspicion is the failure detector's prerogative
        // over a lossy link (consecutive heartbeat losses); degrading
        // dependent certs without a real outage would not be — the grace
        // period exists exactly to absorb the false positives.
        ds.degraded_issuers == 0
    } else if regime.causes_outage() {
        m.dead_seen.is_some() && ds.issuer_recoveries >= 1
    } else {
        true // flapping: death observation is timing-marginal by design
    };
    report.record(
        DEGRADATION_CONSISTENT,
        ds.stale_served == 0
            && m.settled.is_some()
            && probe_ok
            && breaker == "closed"
            && queues_drained
            && regime_consistent,
        format!(
            "stale_served={} settled_at=t{settle_tick} probe_ok={probe_ok} breaker={breaker} \
             queues_drained={queues_drained} degraded_issuers={} recoveries={} dead_seen={:?}",
            ds.stale_served, ds.degraded_issuers, ds.issuer_recoveries, m.dead_seen
        ),
    );

    if regime == FaultRegime::ByzantineCiv {
        let rogue_id = ServiceId::new("civ-login");
        let forged = trust.forged.borrow();
        let forged_rejected =
            !forged.is_empty() && forged.iter().all(|c| !trust.honest.validate(c));
        let validate_any = |c: &oasis_trust::AuditCertificate| {
            if c.civ == rogue_id {
                trust.rogue.validate(c)
            } else {
                trust.honest.validate(c)
            }
        };
        let weight = |civ: &ServiceId| if *civ == rogue_id { 0.05 } else { 1.0 };
        let assessor = TrustAssessor::new(1_000);
        let policy = RiskPolicy::default();

        let mallory_evidence: Vec<oasis_trust::AuditCertificate> = trust
            .mallory_history
            .borrow()
            .iter()
            .chain(trust.fabricated.borrow().iter())
            .chain(forged.iter())
            .filter(|c| validate_any(c))
            .cloned()
            .collect();
        let mallory_score =
            assessor.score_client(&mallory_evidence, &PrincipalId::new("mallory"), END, weight);
        let mallory_decision = policy.decide(mallory_score);

        let alice_evidence: Vec<oasis_trust::AuditCertificate> = trust
            .alice_history
            .borrow()
            .iter()
            .filter(|c| validate_any(c))
            .cloned()
            .collect();
        let alice_score = assessor.score_client(&alice_evidence, &who(0), END, weight);
        let alice_decision = policy.decide(alice_score);

        trace.log_kv(
            END,
            "trust verdict",
            &[
                (
                    "alice",
                    TraceValue::from(format!(
                        "{alice_decision:?} ({:.4}/{:.2})",
                        alice_score.expectation, alice_score.evidence
                    )),
                ),
                ("forged_rejected", TraceValue::from(forged_rejected)),
                (
                    "mallory",
                    TraceValue::from(format!(
                        "{mallory_decision:?} ({:.4}/{:.2})",
                        mallory_score.expectation, mallory_score.evidence
                    )),
                ),
            ],
        );
        report.record(
            BYZANTINE_EVIDENCE_REJECTED,
            forged_rejected
                && mallory_decision != Decision::Proceed
                && alice_decision == Decision::Proceed,
            format!(
                "forged_rejected={forged_rejected}; mallory={mallory_decision:?} \
                 (expectation {:.4}, evidence {:.2}); alice={alice_decision:?} \
                 (expectation {:.4}, evidence {:.2})",
                mallory_score.expectation,
                mallory_score.evidence,
                alice_score.expectation,
                alice_score.evidence
            ),
        );
    } else {
        report.record(
            BYZANTINE_EVIDENCE_REJECTED,
            true,
            "n/a: no Byzantine CIV in this cell",
        );
    }

    // Under a flood the Control lane must still carry every revocation
    // that arrives while the issuer is up to execution within its budget,
    // none shed or expired on the way.
    let revocations_on_time =
        m.revocation_retries == 0 && m.slowest_revocation <= REVOCATION_BUDGET;
    report.record(
        OVERLOAD_BACKPRESSURE,
        if workload.floods() {
            m.validations_shed > 0 && m.validations_ok > 0 && revocations_on_time
        } else {
            m.validations_shed == 0
        },
        format!(
            "shed={} answered_ok={} refused={} (flooding={}); revocations: slowest \
             {}/{REVOCATION_BUDGET} ticks, {} shed or expired",
            m.validations_shed,
            m.validations_ok,
            m.validations_refused,
            workload.floods(),
            m.slowest_revocation,
            m.revocation_retries
        ),
    );

    if let Some(reg) = &obs {
        let snap1 = oasis_obs::Recorder::snapshot_json(reg.as_ref() as &dyn oasis_obs::Recorder)
            .unwrap_or_else(|| "null".to_string());
        let snap2 = oasis_obs::Recorder::snapshot_json(reg.as_ref() as &dyn oasis_obs::Recorder)
            .unwrap_or_else(|| "null".to_string());
        let spans = oasis_obs::Recorder::spans(reg.as_ref() as &dyn oasis_obs::Recorder).len();
        report.record(
            METRICS_DETERMINISTIC,
            snap1 == snap2 && snap1.starts_with("{\"counters\":") && spans > 0,
            format!(
                "snapshot stable over double render ({} bytes), {spans} spans captured",
                snap1.len()
            ),
        );
    }

    drop(m);
    drop(executed);
    drop(applied);
    ScenarioRun {
        scenario,
        seed,
        trace: trace.lines(),
        report,
    }
}
