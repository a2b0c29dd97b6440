//! Deadline math at the boundaries: zero budgets, deadlines already
//! expired at admission, and deadlines expiring *while queued* — the last
//! driven by a virtual clock so expiry is exact, not racy.

use std::sync::Arc;

use oasis_core::{
    AdmissionController, Atom, Clock, Deadline, Lane, LaneConfig, ManualClock, OasisService,
    OverloadConfig, PollOutcome, ServiceConfig, Submission, Term, Value, ValueType,
};
use oasis_facts::FactStore;
use oasis_wire::{WireClient, WireError, WireServer};

fn login_service() -> Arc<OasisService> {
    let facts = Arc::new(FactStore::new());
    facts.define("password_ok", 1).unwrap();
    facts
        .insert("password_ok", vec![Value::id("alice")])
        .unwrap();
    let svc = OasisService::new(ServiceConfig::new("login"), facts);
    svc.define_role("logged_in", &[("u", ValueType::Id)], true)
        .unwrap();
    svc.add_activation_rule(
        "logged_in",
        vec![Term::var("U")],
        vec![Atom::env_fact("password_ok", vec![Term::var("U")])],
        vec![0],
    )
    .unwrap();
    svc
}

fn controller_with_clock(lane_cfg: LaneConfig) -> (Arc<AdmissionController>, Arc<ManualClock>) {
    let mut cfg = OverloadConfig::default();
    for lane in Lane::ALL {
        *cfg.lane_mut(lane) = lane_cfg.clone();
    }
    let clock = Arc::new(ManualClock::new(0));
    let ctrl = AdmissionController::with_clock(cfg, Arc::clone(&clock) as Arc<dyn Clock>);
    (ctrl, clock)
}

// ---------------------------------------------------------------------
// Pure deadline arithmetic at the edges
// ---------------------------------------------------------------------

#[test]
fn deadline_boundaries() {
    // Budget 0: expired at the very instant it is computed.
    let d = Deadline::from_budget(100, Some(0));
    assert!(d.expired(100));
    assert_eq!(d.remaining_ms(100), Some(0));

    // The deadline instant itself is exclusive: expired exactly at `at`.
    let d = Deadline::from_budget(100, Some(50));
    assert!(!d.expired(149));
    assert!(d.expired(150));
    assert_eq!(d.remaining_ms(120), Some(30));
    assert_eq!(d.remaining_ms(200), Some(0), "remaining saturates at 0");

    // No budget: never expires.
    let d = Deadline::from_budget(100, None);
    assert!(!d.expired(u64::MAX));
    assert_eq!(d.remaining_ms(0), None);

    // A budget near u64::MAX must not wrap around into the past.
    let d = Deadline::from_budget(u64::MAX - 5, Some(u64::MAX));
    assert!(!d.expired(u64::MAX - 1));
}

// ---------------------------------------------------------------------
// Admission-time expiry (virtual clock)
// ---------------------------------------------------------------------

#[test]
fn already_expired_deadline_is_refused_at_admission() {
    let (ctrl, clock) = controller_with_clock(LaneConfig::fixed(4, 16, 50));
    clock.set(1_000);
    // An absolute deadline in the past...
    assert!(matches!(
        ctrl.submit(Lane::Validation, Deadline::at(999)),
        Submission::Expired
    ));
    // ...and one exactly at "now" (exclusive boundary) both refuse.
    assert!(matches!(
        ctrl.submit(Lane::Validation, Deadline::at(1_000)),
        Submission::Expired
    ));
    assert_eq!(ctrl.stats().lane(Lane::Validation).expired, 2);
    assert_eq!(ctrl.stats().lane(Lane::Validation).admitted, 0);
}

#[test]
fn deadline_expires_while_queued_virtual_clock() {
    let (ctrl, clock) = controller_with_clock(LaneConfig::fixed(1, 16, 50));
    // Occupy the lane's single slot with an unbounded request.
    let permit = match ctrl.submit(Lane::Control, Deadline::none()) {
        Submission::Admitted(p) => p,
        _ => panic!("empty lane must admit"),
    };
    // Queue a request with a 30-virtual-ms budget.
    let ticket = match ctrl.submit(
        Lane::Control,
        Deadline::from_budget(clock.now_ms(), Some(30)),
    ) {
        Submission::Queued(t) => t,
        _ => panic!("occupied lane must queue"),
    };
    clock.set(29);
    assert!(
        matches!(ctrl.poll(&ticket), PollOutcome::Waiting),
        "one tick before the deadline the ticket still waits"
    );
    clock.set(30);
    assert!(
        matches!(ctrl.poll(&ticket), PollOutcome::Expired),
        "the tick the deadline lapses, the queued ticket dies"
    );
    // Capacity freed later must NOT resurrect the expired ticket.
    drop(permit);
    assert!(matches!(ctrl.poll(&ticket), PollOutcome::Expired));
    let stats = ctrl.stats().lane(Lane::Control).clone();
    assert_eq!(stats.expired, 1, "counted exactly once");
    assert_eq!(stats.queue_depth, 0, "expired ticket left the queue");
}

// ---------------------------------------------------------------------
// Over the wire
// ---------------------------------------------------------------------

#[test]
fn zero_budget_is_deadline_exceeded_over_the_wire() {
    let addr = WireServer::bind(login_service(), "127.0.0.1:0")
        .unwrap()
        .serve_in_background()
        .unwrap();
    let mut client = WireClient::connect(addr).unwrap();

    // Without a deadline the call succeeds.
    client.ping().unwrap();

    // A zero budget is expired by the time the server admits it — always.
    client.set_deadline_ms(Some(0));
    let err = client.ping().unwrap_err();
    assert!(matches!(err, WireError::DeadlineExceeded), "{err}");

    // The connection survives the refusal; a generous budget succeeds.
    client.set_deadline_ms(Some(60_000));
    client.ping().unwrap();

    // Clearing the default restores the bare (legacy) frame format.
    client.set_deadline_ms(None);
    client.ping().unwrap();
}

#[test]
fn per_call_deadline_overrides_client_default() {
    let service = login_service();
    let addr = WireServer::bind(Arc::clone(&service), "127.0.0.1:0")
        .unwrap()
        .serve_in_background()
        .unwrap();
    let mut client = WireClient::connect(addr).unwrap().with_deadline_ms(60_000);
    let err = client
        .call_with_deadline(&oasis_wire::proto::Request::Ping, Some(0))
        .unwrap_err();
    assert!(matches!(err, WireError::DeadlineExceeded), "{err}");
    // The expired request was dropped before work: counted per lane.
    let stats = service
        .overload_stats()
        .expect("server installs controller");
    assert_eq!(stats.lane(Lane::Control).expired, 1);
}
