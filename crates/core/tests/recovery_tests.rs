//! Durability integration tests: write-ahead journalling, snapshot +
//! replay recovery, kill-during-commit healing, and gap-free
//! revocation catch-up from the bus's retained ring.

use std::sync::Arc;

use oasis_core::{
    Atom, CertId, CmpOp, CredStatus, EnvContext, OasisService, PrincipalId, RoleName,
    SecurityEvent, ServiceConfig, ServiceJournal, Term, Value, ValueType,
};
use oasis_events::EventBus;
use oasis_facts::FactStore;
use oasis_store::MemBackend;

fn alice() -> PrincipalId {
    PrincipalId::new("alice")
}

/// A login-style service with one initial role, built over `journal`.
fn durable_login(journal: ServiceJournal) -> Arc<OasisService> {
    let facts = Arc::new(FactStore::new());
    facts.define("password_ok", 1).unwrap();
    facts
        .insert("password_ok", vec![Value::id("alice")])
        .unwrap();
    let svc = OasisService::new(ServiceConfig::new("login").with_journal(journal), facts);
    install_login_policy(&svc);
    svc
}

fn install_login_policy(svc: &OasisService) {
    svc.define_role("logged_in", &[("user", ValueType::Id)], true)
        .unwrap();
    svc.add_activation_rule(
        "logged_in",
        vec![Term::var("U")],
        vec![Atom::env_fact("password_ok", vec![Term::var("U")])],
        vec![],
    )
    .unwrap();
}

fn mem_store() -> (ServiceJournal, MemBackend, MemBackend) {
    let journal = MemBackend::new();
    let snapshot = MemBackend::new();
    let store =
        ServiceJournal::open(Arc::new(journal.clone()), Arc::new(snapshot.clone())).unwrap();
    (store, journal, snapshot)
}

fn reopen(journal: &MemBackend, snapshot: &MemBackend) -> ServiceJournal {
    ServiceJournal::open(Arc::new(journal.clone()), Arc::new(snapshot.clone())).unwrap()
}

#[test]
fn issue_and_revoke_survive_a_restart() {
    let (store, jb, sb) = mem_store();
    let ctx = EnvContext::new(1);
    let crr_keep;
    let crr_gone;
    {
        let svc = durable_login(store);
        crr_keep = svc
            .activate_role(
                &alice(),
                &RoleName::new("logged_in"),
                &[Value::id("alice")],
                &[],
                &ctx,
            )
            .unwrap()
            .crr;
        let rmc2 = svc
            .activate_role(
                &alice(),
                &RoleName::new("logged_in"),
                &[Value::id("alice")],
                &[],
                &ctx,
            )
            .unwrap();
        crr_gone = rmc2.crr.clone();
        assert!(svc.revoke_certificate(crr_gone.cert_id, "logout", 2));
        // Service dropped here: all in-memory state is lost.
    }

    let svc = durable_login(reopen(&jb, &sb));
    assert_eq!(svc.record_stats(), (0, 0, 0), "fresh instance starts empty");
    let report = svc.recover(3).unwrap();
    assert_eq!(report.records_restored, 2);
    assert_eq!(report.revocations_replayed, 1);
    assert!(report.catchup_required);
    assert_eq!(svc.record_stats(), (1, 1, 0));
    assert!(svc.record(crr_keep.cert_id).unwrap().status.is_active());
    assert!(matches!(
        svc.record(crr_gone.cert_id).unwrap().status,
        CredStatus::Revoked { .. }
    ));

    // The next certificate id must not collide with recovered ones.
    let rmc3 = svc
        .activate_role(
            &alice(),
            &RoleName::new("logged_in"),
            &[Value::id("alice")],
            &[],
            &ctx,
        )
        .unwrap();
    assert!(rmc3.crr.cert_id.0 > crr_keep.cert_id.0.max(crr_gone.cert_id.0));
}

#[test]
fn kill_during_commit_is_healed_by_replay() {
    let (store, jb, sb) = mem_store();
    let ctx = EnvContext::new(1);
    {
        let svc = durable_login(store);
        // Crash between the journal append and the in-memory apply: the
        // issuance fails from the caller's point of view...
        assert!(svc.chaos_arm_crash_after_journal());
        let err = svc
            .activate_role(
                &alice(),
                &RoleName::new("logged_in"),
                &[Value::id("alice")],
                &[],
                &ctx,
            )
            .unwrap_err();
        assert!(err.to_string().contains("chaos"));
        assert_eq!(svc.record_stats(), (0, 0, 0));
    }

    // ...but the journal has the record, and recovery replays it. No
    // double-issue: exactly one record, and fresh ids skip past it.
    let svc = durable_login(reopen(&jb, &sb));
    let report = svc.recover(2).unwrap();
    assert_eq!(report.records_restored, 1);
    assert_eq!(svc.record_stats(), (1, 0, 0));

    // The revoke window: CertRevoked reaches the journal, then the
    // process dies still seeing the certificate active.
    let rmc = svc
        .activate_role(
            &alice(),
            &RoleName::new("logged_in"),
            &[Value::id("alice")],
            &[],
            &ctx,
        )
        .unwrap();
    assert!(svc.chaos_arm_crash_after_journal());
    assert!(!svc.revoke_certificate(rmc.crr.cert_id, "compromised", 3));
    assert!(svc.record(rmc.crr.cert_id).unwrap().status.is_active());
    drop(svc);

    // Replay lands the revocation exactly once, and replaying the same
    // journal again restores the same counts.
    let replay = || {
        let svc = durable_login(reopen(&jb, &sb));
        let report = svc.recover(4).unwrap();
        assert!(matches!(
            svc.record(rmc.crr.cert_id).unwrap().status,
            CredStatus::Revoked { .. }
        ));
        (
            report.records_restored,
            report.revocations_replayed,
            svc.record_stats(),
        )
    };
    let first = replay();
    assert_eq!(first, (2, 1, (1, 1, 0)));
    assert_eq!(replay(), first, "a second replay restores the same counts");
}

#[test]
fn snapshot_truncates_and_recovery_uses_it() {
    let (store, jb, sb) = mem_store();
    let ctx = EnvContext::new(1);
    {
        let svc = durable_login(store);
        for _ in 0..10 {
            svc.activate_role(
                &alice(),
                &RoleName::new("logged_in"),
                &[Value::id("alice")],
                &[],
                &ctx,
            )
            .unwrap();
        }
        let truncated = svc.snapshot().unwrap();
        assert_eq!(truncated, 10, "all ten issue events subsumed");
        // Two more after the snapshot stay in the journal.
        svc.activate_role(
            &alice(),
            &RoleName::new("logged_in"),
            &[Value::id("alice")],
            &[],
            &ctx,
        )
        .unwrap();
        svc.activate_role(
            &alice(),
            &RoleName::new("logged_in"),
            &[Value::id("alice")],
            &[],
            &ctx,
        )
        .unwrap();
    }

    let svc = durable_login(reopen(&jb, &sb));
    let report = svc.recover(2).unwrap();
    assert_eq!(report.snapshot_covered_seq, 10);
    assert!(!report.snapshot_corrupt);
    assert_eq!(report.events_replayed, 2);
    assert_eq!(report.records_restored, 12);
    assert_eq!(svc.record_stats(), (12, 0, 0));
}

/// A certificate's retained checks are stored once, inside its compiled
/// plan. Whichever way the record was installed — live issuance, snapshot
/// restore, journal replay — the snapshot and the journal event read back
/// exactly the atoms that were retained at issue, and both the plan (the
/// `$now` window) and the fact index (the retraction) still act on them
/// after recovery.
#[test]
fn retained_checks_round_trip_through_every_install_path() {
    let on_shift = || Atom::env_fact("on_shift", vec![Term::val(Value::id("alice"))]);
    let window = || Atom::compare(Term::var("$now"), CmpOp::Lt, Term::val(Value::Time(100)));
    // role → the membership indices of `on_shift(U), $now < 100` it
    // retains, and so the ground checks its certificates carry.
    let roles: [(&str, Vec<usize>, Vec<Atom>); 3] = [
        ("plain", vec![], vec![]),
        ("fact_only", vec![0], vec![on_shift()]),
        ("mixed", vec![0, 1], vec![on_shift(), window()]),
    ];
    let ward = |journal: ServiceJournal| {
        let facts = Arc::new(FactStore::new());
        facts.define("on_shift", 1).unwrap();
        facts.insert("on_shift", vec![Value::id("alice")]).unwrap();
        let svc = OasisService::new(ServiceConfig::new("ward").with_journal(journal), facts);
        for (name, membership, _) in &roles {
            svc.define_role(*name, &[("u", ValueType::Id)], true)
                .unwrap();
            svc.add_activation_rule(
                *name,
                vec![Term::var("U")],
                vec![Atom::env_fact("on_shift", vec![Term::var("U")]), window()],
                membership.clone(),
            )
            .unwrap();
        }
        svc
    };
    let issue = |svc: &OasisService, role: &str| {
        svc.activate_role(
            &alice(),
            &RoleName::new(role),
            &[Value::id("alice")],
            &[],
            &EnvContext::new(1),
        )
        .unwrap()
        .crr
        .cert_id
    };
    let retained_in_snapshot = |store: &ServiceJournal| -> Vec<(CertId, Vec<Atom>)> {
        let (_, snapshot) = store.load().unwrap().snapshot.expect("snapshot written");
        snapshot
            .records
            .into_iter()
            .map(|r| (r.record.crr.cert_id, r.retained_checks))
            .collect()
    };

    let (store, jb, sb) = mem_store();
    let mut issued: Vec<(CertId, Vec<Atom>)> = Vec::new();
    {
        let svc = ward(store);
        for (name, _, checks) in &roles {
            issued.push((issue(&svc, name), checks.clone()));
        }
        svc.snapshot().unwrap();
        // One more after the snapshot: recovered by replay, not restore.
        issued.push((issue(&svc, "mixed"), vec![on_shift(), window()]));
    }

    // On disk: three records in the snapshot, the fourth as a journal
    // event, each with the atoms retained at issue.
    let store = reopen(&jb, &sb);
    assert_eq!(retained_in_snapshot(&store), issued[..3]);
    let replayed: Vec<(CertId, Vec<Atom>)> = store
        .load()
        .unwrap()
        .events
        .into_iter()
        .filter_map(|(_, e)| match e {
            SecurityEvent::CertIssued {
                record,
                retained_checks,
                ..
            } => Some((record.crr.cert_id, retained_checks)),
            _ => None,
        })
        .collect();
    assert_eq!(replayed, issued[3..]);

    // Recovered: a fresh snapshot reads all four back out of the records
    // that restore and replay installed.
    let svc = ward(store);
    let report = svc.recover(2).unwrap();
    assert_eq!(report.records_restored, 4);
    svc.snapshot().unwrap();
    assert_eq!(retained_in_snapshot(&reopen(&jb, &sb)), issued);

    // The recompiled plans still guard the window...
    let [plain, fact_only, mixed_restored, mixed_replayed] =
        [issued[0].0, issued[1].0, issued[2].0, issued[3].0];
    let mut swept: Vec<CertId> = svc
        .recheck_memberships(&EnvContext::new(200))
        .into_iter()
        .map(|crr| crr.cert_id)
        .collect();
    swept.sort();
    assert_eq!(swept, vec![mixed_restored, mixed_replayed]);
    // ...and the rebuilt fact index still collapses on retraction.
    assert!(svc.record(fact_only).unwrap().status.is_active());
    svc.facts()
        .retract("on_shift", &[Value::id("alice")])
        .unwrap();
    assert!(matches!(
        svc.record(fact_only).unwrap().status,
        CredStatus::Revoked { .. }
    ));
    assert!(svc.record(plain).unwrap().status.is_active());
}

#[test]
fn auto_snapshot_kicks_in_at_the_configured_cadence() {
    let journal = MemBackend::new();
    let snapshot = MemBackend::new();
    let store =
        ServiceJournal::open(Arc::new(journal.clone()), Arc::new(snapshot.clone())).unwrap();
    let facts = Arc::new(FactStore::new());
    facts.define("password_ok", 1).unwrap();
    facts
        .insert("password_ok", vec![Value::id("alice")])
        .unwrap();
    let svc = OasisService::new(
        ServiceConfig::new("login")
            .with_journal(store)
            .with_snapshot_every(4),
        facts,
    );
    install_login_policy(&svc);
    let ctx = EnvContext::new(1);
    for _ in 0..9 {
        svc.activate_role(
            &alice(),
            &RoleName::new("logged_in"),
            &[Value::id("alice")],
            &[],
            &ctx,
        )
        .unwrap();
    }
    assert!(
        !snapshot.is_empty(),
        "a snapshot must have been written automatically"
    );
    let stats = svc.journal_stats().unwrap();
    assert!(stats.truncated_records > 0);
}

#[test]
fn catch_up_applies_revocations_published_while_down() {
    // Login (the issuer) publishes on a bus that retains its revocation
    // topic; hospital journals which events it has applied.
    let bus: EventBus<oasis_core::CertEvent> = EventBus::new();
    let login_facts = Arc::new(FactStore::new());
    login_facts.define("password_ok", 1).unwrap();
    login_facts
        .insert("password_ok", vec![Value::id("alice")])
        .unwrap();
    let login = OasisService::new(
        ServiceConfig::new("login")
            .with_bus(bus.clone())
            .with_revocation_retention(64),
        Arc::clone(&login_facts),
    );
    install_login_policy(&login);
    let ctx = EnvContext::new(1);
    let login_rmc = login
        .activate_role(
            &alice(),
            &RoleName::new("logged_in"),
            &[Value::id("alice")],
            &[],
            &ctx,
        )
        .unwrap();

    let hb = MemBackend::new();
    let hs = MemBackend::new();
    let hospital_store = ServiceJournal::open(Arc::new(hb.clone()), Arc::new(hs.clone())).unwrap();
    let hospital_crr;
    {
        let hospital = OasisService::new(
            ServiceConfig::new("hospital")
                .with_bus(bus.clone())
                .with_validation_cache(1_000)
                .with_journal(hospital_store),
            Arc::new(FactStore::new()),
        );
        let registry = Arc::new(oasis_core::LocalRegistry::new());
        registry.register(&login);
        hospital.set_validator(registry);
        hospital
            .define_role("doctor", &[("user", ValueType::Id)], false)
            .unwrap();
        hospital
            .add_activation_rule(
                "doctor",
                vec![Term::var("U")],
                vec![Atom::prereq_at("login", "logged_in", vec![Term::var("U")])],
                vec![0],
            )
            .unwrap();
        hospital_crr = hospital
            .activate_role(
                &alice(),
                &RoleName::new("doctor"),
                &[Value::id("alice")],
                &[oasis_core::Credential::Rmc(login_rmc.clone())],
                &ctx,
            )
            .unwrap()
            .crr;
        assert!(hospital
            .record(hospital_crr.cert_id)
            .unwrap()
            .status
            .is_active());
        // Hospital crashes here (dropped): its bus subscription dies
        // with it.
    }

    // While the hospital is down, the login session ends: the
    // revocation is published, retained in the ring, and delivered to
    // no one.
    assert!(login.revoke_certificate(login_rmc.crr.cert_id, "logged out", 5));

    // Restart the hospital from its journal and catch up on the gap.
    let hospital = OasisService::new(
        ServiceConfig::new("hospital")
            .with_bus(bus.clone())
            .with_validation_cache(1_000)
            .with_journal(
                ServiceJournal::open(Arc::new(hb.clone()), Arc::new(hs.clone())).unwrap(),
            ),
        Arc::new(FactStore::new()),
    );
    let report = hospital.recover(6).unwrap();
    assert!(report.catchup_required);
    assert!(hospital.catchup_pending());
    assert!(hospital
        .record(hospital_crr.cert_id)
        .unwrap()
        .status
        .is_active());

    let catchup = hospital.catch_up(&bus, "cred.revoked.login", 7);
    assert!(catchup.complete, "ring retained the whole gap");
    assert_eq!(catchup.applied, 1);
    assert!(!hospital.catchup_pending());
    // The dependent doctor role collapsed before any new grant.
    assert!(matches!(
        hospital.record(hospital_crr.cert_id).unwrap().status,
        CredStatus::Revoked { .. }
    ));

    // A second catch-up is a no-op: the watermark already covers it.
    let again = hospital.catch_up(&bus, "cred.revoked.login", 8);
    assert_eq!(again.applied, 0);
    assert!(again.complete);
}

#[test]
fn recovered_publisher_serves_gap_free_catch_up_from_restored_ring() {
    // The *publisher* crashes after revoking: its retained ring — the
    // thing subscribers catch up from — must be rebuilt from the
    // journal with the original sequence numbers, even on a brand-new
    // bus (the failed-over-replica case).
    let (store, jb, sb) = mem_store();
    let bus: EventBus<oasis_core::CertEvent> = EventBus::new();
    let facts = Arc::new(FactStore::new());
    facts.define("password_ok", 1).unwrap();
    facts
        .insert("password_ok", vec![Value::id("alice")])
        .unwrap();
    let ctx = EnvContext::new(1);
    let mut revoked = Vec::new();
    {
        let login = OasisService::new(
            ServiceConfig::new("login")
                .with_bus(bus)
                .with_revocation_retention(64)
                .with_journal(store),
            Arc::clone(&facts),
        );
        install_login_policy(&login);
        for i in 0..4 {
            let rmc = login
                .activate_role(
                    &alice(),
                    &RoleName::new("logged_in"),
                    &[Value::id("alice")],
                    &[],
                    &ctx,
                )
                .unwrap();
            if i % 2 == 0 {
                assert!(login.revoke_certificate(rmc.crr.cert_id, "logout", 2 + i));
                revoked.push(rmc.crr);
            }
        }
        // Publisher crashes here; the old bus (and its ring) dies too.
    }

    let fresh_bus: EventBus<oasis_core::CertEvent> = EventBus::new();
    let login = OasisService::new(
        ServiceConfig::new("login")
            .with_bus(fresh_bus.clone())
            .with_revocation_retention(64)
            .with_journal(reopen(&jb, &sb)),
        facts,
    );
    install_login_policy(&login);
    let report = login.recover(10).unwrap();
    assert_eq!(report.retained_restored, 2, "both publications restored");

    // A subscriber that had applied nothing asks for everything after 0:
    // the replay must be gap-free with the original numbering.
    let (events, complete) = login.replay_retained("cred.revoked.login", 0);
    assert!(complete, "restored ring has no gaps");
    assert_eq!(events.len(), 2);
    assert_eq!(
        events.iter().map(|e| e.topic_seq).collect::<Vec<_>>(),
        vec![1, 2]
    );
    assert_eq!(
        events
            .iter()
            .map(|e| e.payload.crr.clone())
            .collect::<Vec<_>>(),
        revoked
    );

    // New publications continue the sequence instead of colliding.
    let rmc = login
        .activate_role(
            &alice(),
            &RoleName::new("logged_in"),
            &[Value::id("alice")],
            &[],
            &ctx,
        )
        .unwrap();
    assert!(login.revoke_certificate(rmc.crr.cert_id, "logout", 11));
    let (events, complete) = login.replay_retained("cred.revoked.login", 2);
    assert!(complete);
    assert_eq!(events.len(), 1);
    assert_eq!(events[0].topic_seq, 3);

    // Snapshot subsumes the ring: a second recovery from the snapshot
    // alone restores all three entries.
    login.snapshot().unwrap();
    let login2 = OasisService::new(
        ServiceConfig::new("login")
            .with_bus(EventBus::new())
            .with_revocation_retention(64)
            .with_journal(reopen(&jb, &sb)),
        Arc::new(FactStore::new()),
    );
    let report = login2.recover(12).unwrap();
    assert_eq!(report.retained_restored, 3);
    let (events, complete) = login2.replay_retained("cred.revoked.login", 0);
    assert!(complete);
    assert_eq!(events.len(), 3);
}

#[test]
fn journal_append_failure_aborts_issuance() {
    // A store whose journal backend rejects appends after poisoning.
    let jb = MemBackend::new();
    let sb = MemBackend::new();
    let store = ServiceJournal::open(Arc::new(jb.clone()), Arc::new(sb)).unwrap();
    let svc = durable_login(store);
    let ctx = EnvContext::new(1);
    svc.activate_role(
        &alice(),
        &RoleName::new("logged_in"),
        &[Value::id("alice")],
        &[],
        &ctx,
    )
    .unwrap();
    jb.poison("disk full");
    let err = svc
        .activate_role(
            &alice(),
            &RoleName::new("logged_in"),
            &[Value::id("alice")],
            &[],
            &ctx,
        )
        .unwrap_err();
    assert!(matches!(err, oasis_core::OasisError::Journal(_)), "{err}");
    // But revocation still proceeds in memory even though the journal
    // is broken — safety over durability.
    let records = svc.active_records();
    assert!(svc.revoke_certificate(records[0].crr.cert_id, "logout", 2));
    assert_eq!(svc.record_stats().0, 0);
}

#[test]
fn recovery_without_a_journal_is_a_noop() {
    let facts = Arc::new(FactStore::new());
    let svc = OasisService::new(ServiceConfig::new("plain"), facts);
    let report = svc.recover(1).unwrap();
    assert_eq!(report, oasis_core::RecoveryReport::default());
    assert!(!svc.catchup_pending());
    assert!(svc.journal_stats().is_none());
}

#[test]
fn epoch_rotation_is_journalled() {
    let (store, jb, sb) = mem_store();
    let svc = durable_login(store);
    let epoch = svc.rotate_secret(4);
    assert!(epoch.0 > 0);
    drop(svc);
    let store = reopen(&jb, &sb);
    let recovered = store.load().unwrap();
    assert!(recovered.events.iter().any(
        |(_, e)| matches!(e, SecurityEvent::EpochChanged { epoch: ep, at: 4 } if *ep == epoch.0)
    ));
}
