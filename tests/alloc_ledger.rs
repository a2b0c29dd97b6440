//! The allocation ledger: how many heap allocations one call into
//! `OasisService` makes on each step of a session lifecycle.
//!
//! A counting [`GlobalAlloc`] keeps a per-thread tally, so tests running
//! on other threads of this binary cannot disturb a count. The service
//! runs the end-to-end benchmark's hospital policy (a copy of its text)
//! through scripted lifecycles: login, enter a role (granted), enter it
//! again for an unregistered patient (denied), invoke, validate, and
//! revoke the login with the role RMC depending on it. Each call's inputs
//! are built before its counted region. Map and vector growth makes a
//! single call jump now and then, so the ledger is the *fewest*
//! allocations any call of a step made over the last lifecycles, and the
//! test holds each step to a ceiling.
//!
//! A second ledger row counts one quorum commit: a leader's
//! `replicate_op` of a journal-sized record on a three-node `LocalMesh`,
//! whose transport runs the follower's side of the round on the calling
//! thread, so the count covers both ends.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use oasis::prelude::*;
use oasis::store::{LocalMesh, RegionOp, ReplicaConfig, ReplicaNode};

/// The system allocator, counting the calls that hand out a new block
/// (`alloc`, `alloc_zeroed`, `realloc`) on the calling thread.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note_allocation() {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down; those calls go uncounted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract. The counter is a const-initialised
// thread-local `Cell` with no destructor, so touching it neither allocates
// nor re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller's obligations are `System.alloc`'s own.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: as `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this wrapper, with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        // SAFETY: as `dealloc`; `new_size` is the caller's to get right.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` made on this thread, and its result.
fn counted<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

/// The end-to-end benchmark's single-service hospital policy.
const HOSPITAL_POLICY: &str = r#"
service hospital {
  initial role logged_in(u: id);
  role treating_doctor(d: id, p: id);

  rule logged_in(U) <- ;

  rule treating_doctor(D, P) <-
      prereq logged_in(D),
      env registered(D, P),
      env not excluded(P, D);

  invoke read_record(P) <- prereq treating_doctor(_, P);
}
"#;

const DOCTORS: usize = 8;
const PATIENTS: usize = 16;
const LIFECYCLES: usize = 300;
/// The ledger reads the lifecycles after these.
const WARMUP: usize = 50;

/// One step of the lifecycle, in order, with its ceiling.
#[derive(Clone, Copy)]
enum Step {
    Login,
    EnterRole,
    EnterRoleDenied,
    Invoke,
    ValidateOwn,
    Revoke,
}

impl Step {
    const ALL: [Step; 6] = [
        Step::Login,
        Step::EnterRole,
        Step::EnterRoleDenied,
        Step::Invoke,
        Step::ValidateOwn,
        Step::Revoke,
    ];

    fn name(self) -> &'static str {
        match self {
            Step::Login => "login",
            Step::EnterRole => "enter_role (granted)",
            Step::EnterRoleDenied => "enter_role (denied)",
            Step::Invoke => "invoke",
            Step::ValidateOwn => "validate_own",
            Step::Revoke => "revoke (one dependent)",
        }
    }

    fn ceiling(self) -> u64 {
        match self {
            Step::Login => 12,
            Step::EnterRole => 40,
            Step::EnterRoleDenied => 14,
            Step::Invoke => 24,
            Step::ValidateOwn => 3,
            Step::Revoke => 20,
        }
    }
}

#[test]
fn one_lifecycle_allocates_within_its_ledger() {
    let facts = Arc::new(FactStore::new());
    let service = OasisService::new(
        ServiceConfig::new("hospital").with_bus(EventBus::new()),
        Arc::clone(&facts),
    );
    Policy::parse(HOSPITAL_POLICY)
        .expect("the hospital policy parses")
        .apply_to(&service)
        .expect("the hospital policy applies");
    for d in 0..DOCTORS {
        for p in 0..PATIENTS {
            facts
                .insert(
                    "registered",
                    vec![Value::id(format!("dr-{d}")), Value::id(format!("pat-{p}"))],
                )
                .expect("`registered` is declared by the policy");
        }
    }
    let logged_in = RoleName::new("logged_in");
    let treating = RoleName::new("treating_doctor");

    let mut ledger = [u64::MAX; Step::ALL.len()];
    for i in 0..LIFECYCLES {
        let mut note = |step: Step, n: u64| {
            if i >= WARMUP {
                let slot = &mut ledger[step as usize];
                *slot = (*slot).min(n);
            }
        };
        let now = 1_000 + i as u64;
        let ctx = EnvContext::new(now);
        let doctor = format!("dr-{}", i % DOCTORS);
        let principal = PrincipalId::new(doctor.as_str());
        let patient = Value::id(format!("pat-{}", i % PATIENTS));
        let stranger = Value::id(format!("pat-{}", PATIENTS + i % PATIENTS));

        let login_args = vec![Value::id(doctor.as_str())];
        let (n, login) =
            counted(|| service.activate_role(&principal, &logged_in, &login_args, &[], &ctx));
        note(Step::Login, n);
        let login = Credential::Rmc(login.expect("login is granted"));

        let presented = vec![login.clone()];
        let args = vec![Value::id(doctor.as_str()), patient.clone()];
        let (n, rmc) =
            counted(|| service.activate_role(&principal, &treating, &args, &presented, &ctx));
        note(Step::EnterRole, n);
        let rmc = Credential::Rmc(rmc.expect("a registered patient's doctor enters the role"));

        let args = vec![Value::id(doctor.as_str()), stranger];
        let (n, denied) =
            counted(|| service.activate_role(&principal, &treating, &args, &presented, &ctx));
        note(Step::EnterRoleDenied, n);
        assert!(denied.is_err(), "an unregistered patient is refused");

        let both = vec![login.clone(), rmc.clone()];
        let record = vec![patient];
        let (n, invoked) =
            counted(|| service.invoke(&principal, "read_record", &record, &both, &ctx));
        note(Step::Invoke, n);
        invoked.expect("the treating doctor reads the record");

        let (n, valid) = counted(|| service.validate_own(&rmc, &principal, now));
        note(Step::ValidateOwn, n);
        valid.expect("the role RMC validates");

        let cert_id = login.crr().cert_id;
        let (n, was_active) = counted(|| service.revoke_certificate(cert_id, "logout", now));
        note(Step::Revoke, n);
        assert!(was_active, "the login was active");
        assert!(
            service.validate_own(&rmc, &principal, now).is_err(),
            "revoking the login collapsed the role"
        );
    }

    println!(
        "allocation ledger: fewest allocations per call over lifecycles {WARMUP}..{LIFECYCLES}"
    );
    for step in Step::ALL {
        println!(
            "  {:<24} {:>3}  (ceiling {})",
            step.name(),
            ledger[step as usize],
            step.ceiling()
        );
    }
    for step in Step::ALL {
        let fewest = ledger[step as usize];
        assert!(
            fewest <= step.ceiling(),
            "{}: {fewest} allocations, ceiling {}",
            step.name(),
            step.ceiling()
        );
    }
}

/// Bytes per replicated record: a journal frame of one lifecycle step.
const RECORD_BYTES: usize = 300;
const APPENDS: usize = 300;
/// The fewest allocations one `replicate_op` may make.
const APPEND_CEILING: u64 = 10;

#[test]
fn replicated_append_allocates_within_its_ledger() {
    let mesh = LocalMesh::new();
    let ids = ["civ0", "civ1", "civ2"].map(String::from);
    for (i, id) in ids.iter().enumerate() {
        let peers = ids.iter().filter(|p| *p != id).cloned().collect();
        let config = ReplicaConfig::new(id.clone(), peers, format!("127.0.0.1:{}", 9100 + i));
        mesh.register(Arc::new(ReplicaNode::new(config, Arc::new(mesh.clone()))));
    }
    let leader = (0..200)
        .find_map(|_| {
            mesh.step(25);
            mesh.live_leader()
        })
        .expect("the mesh elects a leader");

    let mut fewest = u64::MAX;
    for i in 0..APPENDS {
        let op = RegionOp::Append(vec![i as u8; RECORD_BYTES]);
        let (n, committed) = counted(|| leader.replicate_op("journal", op));
        committed.expect("a healthy mesh commits");
        if i >= WARMUP {
            fewest = fewest.min(n);
        }
    }
    println!(
        "allocation ledger: fewest allocations per `replicate_op` over appends {WARMUP}..{APPENDS}"
    );
    println!(
        "  {:<24} {fewest:>3}  (ceiling {APPEND_CEILING})",
        "replicated append"
    );
    assert!(
        fewest <= APPEND_CEILING,
        "replicated append: {fewest} allocations, ceiling {APPEND_CEILING}"
    );
}
