//! One journal append per acknowledged revocation-side operation: the
//! revocation scope buffers everything a cascade journals and flushes it
//! as one batch, with the records the one-at-a-time code wrote, in the
//! order it wrote them.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;

use oasis_core::cert::Rmc;
use oasis_core::{
    Atom, CertId, Credential, EnvContext, OasisService, PrincipalId, RoleName, SecurityEvent,
    ServiceConfig, ServiceJournal, Term, Value, ValueType,
};
use oasis_facts::FactStore;
use oasis_store::{MemBackend, StorageBackend, StoreError};

/// A journal region that counts the appends reaching it (over a
/// replicated backend each would be a quorum round).
#[derive(Clone, Default)]
struct CountingBackend {
    region: MemBackend,
    appends: Arc<AtomicUsize>,
}

impl CountingBackend {
    fn appends(&self) -> usize {
        self.appends.load(Ordering::SeqCst)
    }
}

impl StorageBackend for CountingBackend {
    fn read(&self) -> Result<Vec<u8>, StoreError> {
        self.region.read()
    }
    fn append(&self, bytes: &[u8]) -> Result<(), StoreError> {
        self.appends.fetch_add(1, Ordering::SeqCst);
        self.region.append(bytes)
    }
    fn replace(&self, bytes: &[u8]) -> Result<(), StoreError> {
        self.region.replace(bytes)
    }
}

fn alice() -> PrincipalId {
    PrincipalId::new("alice")
}

/// `login` (initial) ← `r1` ← `r2` ← `r3`, each retaining its
/// prerequisite, plus a `badge` appointment `login` may issue.
fn install_chain_policy(svc: &OasisService) {
    svc.define_role("login", &[("n", ValueType::Int)], true)
        .unwrap();
    svc.add_activation_rule("login", vec![Term::var("N")], vec![], vec![])
        .unwrap();
    for (role, prereq) in [("r1", "login"), ("r2", "r1"), ("r3", "r2")] {
        svc.define_role(role, &[], false).unwrap();
        let prereq_args = if prereq == "login" {
            vec![Term::var("_N")]
        } else {
            vec![]
        };
        svc.add_activation_rule(
            role,
            vec![],
            vec![Atom::prereq(prereq, prereq_args)],
            vec![0],
        )
        .unwrap();
    }
    svc.grant_appointer("login", "badge").unwrap();
}

/// A journalled service that retains its own revocation topic, so every
/// revocation journals a `CertRevoked` *and* a `RetainedPublished`.
fn chain_service(journal: &CountingBackend, snapshot: &MemBackend) -> Arc<OasisService> {
    let store =
        ServiceJournal::open(Arc::new(journal.clone()), Arc::new(snapshot.clone())).unwrap();
    let svc = OasisService::new(
        ServiceConfig::new("svc")
            .with_journal(store)
            .with_revocation_retention(64),
        Arc::new(FactStore::new()),
    );
    install_chain_policy(&svc);
    svc
}

fn login(svc: &OasisService, n: i64) -> Rmc {
    svc.activate_role(
        &alice(),
        &RoleName::new("login"),
        &[Value::Int(n)],
        &[],
        &EnvContext::new(1),
    )
    .unwrap()
}

fn enter(svc: &OasisService, role: &str, with: &Rmc) -> Rmc {
    svc.activate_role(
        &alice(),
        &RoleName::new(role),
        &[],
        std::slice::from_ref(&Credential::Rmc(with.clone())),
        &EnvContext::new(1),
    )
    .unwrap()
}

/// Activates `login(n)` and `depth` roles chained under it; returns the
/// certificate ids root first.
fn chain(svc: &OasisService, n: i64, depth: usize) -> Vec<CertId> {
    let mut rmc = login(svc, n);
    let mut ids = vec![rmc.crr.cert_id];
    for role in ["r1", "r2", "r3"].iter().take(depth) {
        rmc = enter(svc, role, &rmc);
        ids.push(rmc.crr.cert_id);
    }
    ids
}

/// The journal's records after `skip`, as `kind:cert_id` tags, read back
/// through a fresh handle (so sequence numbers are re-validated: a scan
/// stops at the first one that does not increase).
fn journal_tags(journal: &CountingBackend, skip: usize) -> Vec<String> {
    let store = ServiceJournal::open(Arc::new(journal.clone()), Arc::new(MemBackend::new()))
        .expect("journal reopens");
    let recovered = store.load().unwrap();
    assert!(!recovered.tail.torn, "no torn tail");
    let seqs: Vec<u64> = recovered.events.iter().map(|(seq, _)| *seq).collect();
    assert!(seqs.windows(2).all(|w| w[0] < w[1]), "seqs {seqs:?}");
    recovered
        .events
        .iter()
        .skip(skip)
        .map(|(_, event)| match event {
            SecurityEvent::CertIssued { record, .. } => format!("issued:{}", record.crr.cert_id.0),
            SecurityEvent::CertRevoked { cert_id, .. } => format!("revoked:{}", cert_id.0),
            SecurityEvent::CertExpired { cert_id, .. } => format!("expired:{}", cert_id.0),
            SecurityEvent::RetainedPublished { entry } => {
                format!("retained:{}", entry.event.crr.cert_id.0)
            }
            other => format!("other:{other:?}"),
        })
        .collect()
}

#[test]
fn depth_three_cascade_is_one_append_in_the_unbatched_order() {
    let (jb, sb) = (CountingBackend::default(), MemBackend::new());
    let svc = chain_service(&jb, &sb);
    let ids = chain(&svc, 0, 3);
    assert_eq!(
        jb.appends(),
        4,
        "issuance stays one write-ahead append each"
    );

    assert!(svc.revoke_certificate(ids[0], "logout", 2));
    assert_eq!(svc.record_stats(), (0, 4, 0));

    // What the one-append-per-record code wrote: each certificate's
    // CertRevoked on the way down the cascade, each publication's
    // RetainedPublished on the way back up.
    let [a, b, c, d] = [ids[0].0, ids[1].0, ids[2].0, ids[3].0];
    let expected: Vec<String> = [
        ("revoked", a),
        ("revoked", b),
        ("revoked", c),
        ("revoked", d),
        ("retained", d),
        ("retained", c),
        ("retained", b),
        ("retained", a),
    ]
    .iter()
    .map(|(kind, id)| format!("{kind}:{id}"))
    .collect();
    assert_eq!(journal_tags(&jb, 4), expected);
    assert_eq!(jb.appends(), 5, "eight records, one append");
    assert_eq!(svc.journal_stats().unwrap().appended, 12);

    // The batch replays like the single records did.
    let restarted = chain_service(&jb, &sb);
    let report = restarted.recover(3).unwrap();
    assert_eq!(report.revocations_replayed, 4);
    assert_eq!(report.retained_restored, 4);
    assert_eq!(restarted.record_stats(), (0, 4, 0));
}

#[test]
fn end_session_over_k_roles_is_one_append() {
    let (jb, sb) = (CountingBackend::default(), MemBackend::new());
    let svc = chain_service(&jb, &sb);
    let mut issued = Vec::new();
    for n in 0..5 {
        issued.extend(chain(&svc, n, 1));
    }
    let before = jb.appends();
    assert_eq!(before, 10);

    // Five direct revocations; each login's dependent falls to the sweep
    // or to the cascade, whichever reaches it first.
    assert!(svc.end_session(&alice(), "logout", 2) >= 5);
    assert_eq!(svc.record_stats(), (0, 10, 0));
    assert_eq!(jb.appends(), before + 1);

    let tags = journal_tags(&jb, before);
    assert_eq!(tags.len(), 20);
    for id in issued {
        let revoked = tags.iter().position(|t| *t == format!("revoked:{}", id.0));
        let retained = tags.iter().position(|t| *t == format!("retained:{}", id.0));
        assert!(
            revoked.is_some() && revoked < retained,
            "{id:?} in {tags:?}"
        );
    }
}

#[test]
fn expiry_sweep_is_one_append() {
    let (jb, sb) = (CountingBackend::default(), MemBackend::new());
    let svc = chain_service(&jb, &sb);
    let appointer = login(&svc, 0);
    let bob = PrincipalId::new("bob");
    let mut badges = Vec::new();
    for _ in 0..4 {
        let badge = svc
            .issue_appointment(
                &alice(),
                &[Credential::Rmc(appointer.clone())],
                "badge",
                vec![],
                &bob,
                Some(5),
                None,
                &EnvContext::new(1),
            )
            .unwrap();
        badges.push(badge.crr.cert_id.0);
    }
    let before = jb.appends();
    assert_eq!(before, 5);

    assert_eq!(svc.expire_certificates(10), 4);
    assert_eq!(svc.record_stats(), (1, 0, 4));

    // Each expiry journals its record, then its publication, before the
    // sweep moves on — as it did one append at a time.
    let tags = journal_tags(&jb, before);
    assert_eq!(tags.len(), 8);
    let mut swept = Vec::new();
    for pair in tags.chunks(2) {
        let id = pair[0].strip_prefix("expired:").expect("expiry first");
        assert_eq!(pair[1], format!("retained:{id}"));
        swept.push(id.parse::<u64>().unwrap());
    }
    swept.sort_unstable();
    assert_eq!(swept, badges);
    assert_eq!(jb.appends(), before + 1);
}

#[test]
fn armed_crash_leaves_the_event_journalled_and_unapplied() {
    let (jb, sb) = (CountingBackend::default(), MemBackend::new());
    let ids;
    {
        let svc = chain_service(&jb, &sb);
        ids = chain(&svc, 0, 1);
        assert!(svc.chaos_arm_crash_after_journal());
        // The "crash": the call fails and nothing changed in memory...
        assert!(!svc.revoke_certificate(ids[0], "logout", 2));
        assert_eq!(svc.record_stats(), (2, 0, 0));
        // ...but the event reached the journal before the call returned.
        assert_eq!(journal_tags(&jb, 2), vec![format!("revoked:{}", ids[0].0)]);
    }
    let restarted = chain_service(&jb, &sb);
    let report = restarted.recover(3).unwrap();
    assert_eq!(report.revocations_replayed, 1);
    assert!(!restarted.record(ids[0]).unwrap().status.is_active());
}

#[test]
fn failed_flush_does_not_resurrect_the_certificate() {
    let (jb, sb) = (CountingBackend::default(), MemBackend::new());
    let svc = chain_service(&jb, &sb);
    let root = login(&svc, 0);
    let leaf = enter(&svc, "r1", &root);

    jb.region.poison("disk full");
    // Best effort: the revocation stands, the journal error is dropped.
    assert!(svc.revoke_certificate(root.crr.cert_id, "logout", 2));
    jb.region.heal();

    assert_eq!(svc.record_stats(), (0, 2, 0));
    for rmc in [&root, &leaf] {
        assert!(svc
            .validate_own(&Credential::Rmc(rmc.clone()), &alice(), 3)
            .is_err());
    }
    assert!(journal_tags(&jb, 2).is_empty(), "the whole batch was lost");

    // The scope closed with the failed flush: later operations journal.
    let next = login(&svc, 1);
    assert!(svc.revoke_certificate(next.crr.cert_id, "logout", 4));
    let tags = journal_tags(&jb, 2);
    assert_eq!(tags.len(), 3, "{tags:?}");
}

#[test]
fn concurrent_cascades_never_interleave_inside_a_batch() {
    let (jb, sb) = (CountingBackend::default(), MemBackend::new());
    let svc = chain_service(&jb, &sb);
    let slow = chain(&svc, 0, 1);
    let fast = chain(&svc, 1, 1);
    let issued = jb.appends();

    // Force the interleaving: the slow cascade parks inside its own
    // publication — its buffer holds records, nothing is flushed — until
    // the fast cascade has run start to finish on another thread.
    let (go_tx, go_rx) = mpsc::channel::<()>();
    let (done_tx, done_rx) = mpsc::channel::<()>();
    let slow_root = slow[0];
    let parked = std::sync::Mutex::new((go_tx, done_rx));
    svc.bus()
        .subscribe_fn("cred.revoked.#", move |event| {
            if event.payload.crr.cert_id == slow_root {
                let (go, done) = &*parked.lock().unwrap();
                go.send(()).unwrap();
                done.recv().unwrap();
            }
        })
        .unwrap();

    std::thread::scope(|threads| {
        let fast_root = fast[0];
        let svc = &svc;
        threads.spawn(move || {
            go_rx.recv().unwrap();
            assert!(svc.revoke_certificate(fast_root, "logout", 2));
            done_tx.send(()).unwrap();
        });
        assert!(svc.revoke_certificate(slow_root, "logout", 2));
    });

    let owner = |tag: &String| {
        let id: u64 = tag.split(':').nth(1).unwrap().parse().unwrap();
        if fast.iter().any(|c| c.0 == id) {
            "fast"
        } else {
            "slow"
        }
    };
    let tags = journal_tags(&jb, issued);
    let owners: Vec<&str> = tags.iter().map(owner).collect();
    assert_eq!(
        owners,
        ["fast", "fast", "fast", "fast", "slow", "slow", "slow", "slow"],
        "{tags:?}"
    );
    assert_eq!(jb.appends(), issued + 2, "one append per cascade");
}
