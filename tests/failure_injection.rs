//! Integration: failure injection — issuer outages, lost revocation
//! events, partitions in the simulated network, and the defence layers
//! (fail-safe refusal, TTL backstops, heartbeats) the architecture
//! prescribes for each, on the relying service's own validation cache.
//! Replica crashes are exercised where the real replicated log lives:
//! the conformance matrix's `civ3` cells and `oasis-store`'s
//! `replicated` tests.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use oasis::events::{HeartbeatMonitor, SourceHealth, SourceId};
use oasis::prelude::*;
use oasis::sim::{Latency, LinkConfig, SimNet, Simulation};

fn guest_world() -> (Arc<oasis_core::OasisService>, Credential, PrincipalId) {
    let svc = Domain::new("d", &Federation::new()).create_service("svc");
    svc.define_role("guest", &[("u", ValueType::Id)], true)
        .unwrap();
    svc.add_activation_rule("guest", vec![Term::var("U")], vec![], vec![])
        .unwrap();
    let alice = PrincipalId::new("alice");
    let rmc = svc
        .activate_role(
            &alice,
            &RoleName::new("guest"),
            &[Value::id("alice")],
            &[],
            &EnvContext::new(0),
        )
        .unwrap();
    (svc, Credential::Rmc(rmc), alice)
}

/// A relying service that calls back to `issuer`. Built outside the
/// issuer's domain unless `config` carries its bus, so by default no
/// revocation event reaches it — the lost-event / partitioned-fabric case.
fn relying_on(
    issuer: &Arc<oasis_core::OasisService>,
    config: ServiceConfig,
) -> Arc<oasis_core::OasisService> {
    let relying = OasisService::new(config, Arc::new(FactStore::new()));
    let registry = Arc::new(LocalRegistry::new());
    registry.register(issuer);
    relying.set_validator(registry);
    relying
}

/// The callback path during an issuer outage: every call times out.
struct Unreachable;

impl CredentialValidator for Unreachable {
    fn validate(&self, credential: &Credential, _: &PrincipalId, _: u64) -> Result<(), OasisError> {
        Err(OasisError::IssuerTimeout(credential.issuer().clone()))
    }
}

#[test]
fn issuer_outage_refuses_the_suspect_entry_then_revocation_still_evicts_it() {
    // A silent issuer's cached validation is suspect, and a fail-safe
    // service refuses it rather than bridging the outage; the revocation
    // arrives over the domain bus while the callback path is down and
    // still evicts the entry.
    let (svc, cred, alice) = guest_world();
    let relying = relying_on(
        &svc,
        ServiceConfig::new("relying")
            .with_bus(svc.bus().clone())
            .with_validation_cache(100)
            .with_heartbeats(),
    );
    relying.watch_issuer(svc.id(), 10, 0);
    relying.validate_credential(&cred, &alice, 1).unwrap();

    // Issuer goes silent and unreachable; the suspect entry is refused.
    relying.set_validator(Arc::new(Unreachable));
    assert!(relying.validate_credential(&cred, &alice, 15).is_err());
    assert_eq!(relying.degradation_stats().unwrap().stale_refused, 1);

    // The issuer revokes; only the event channel still connects the two.
    svc.revoke_certificate(cred.crr().cert_id, "compromised", 16);
    assert_eq!(relying.validation_cache_stats().unwrap().invalidations, 1);

    // Nothing vouches for the revoked credential afterwards.
    assert!(relying.validate_credential(&cred, &alice, 17).is_err());
}

#[test]
fn lost_revocation_event_is_bounded_by_ttl_backstop() {
    // A cache whose push channel is gone (a lost event / partitioned
    // event fabric) keeps serving a revoked credential — but only until
    // its TTL, which bounds the damage.
    let (svc, cred, alice) = guest_world();
    let ttl = 50;
    let relying = relying_on(
        &svc,
        ServiceConfig::new("relying").with_validation_cache(ttl),
    );
    relying.validate_credential(&cred, &alice, 0).unwrap();
    svc.revoke_certificate(cred.crr().cert_id, "gone", 1);

    let stale_accepts = (2..200)
        .filter(|&t| relying.validate_credential(&cred, &alice, t).is_ok())
        .count() as u64;
    assert!(
        stale_accepts > 0,
        "without push there IS a staleness window"
    );
    assert!(
        stale_accepts <= ttl,
        "but it is bounded by the TTL: {stale_accepts} > {ttl}"
    );
    let stats = relying.validation_cache_stats().unwrap();
    assert_eq!(stats.hits, stale_accepts, "every stale accept was a hit");
    assert_eq!(stats.invalidations, 0, "no push ever arrived");
}

#[test]
fn partitioned_issuer_detected_by_heartbeats_in_simulation() {
    // Drive a heartbeat monitor from the discrete-event simulation: the
    // issuer beats every 10 ticks over the simulated network; a partition
    // at t=100 silences it, and the holder observes Late → Dead at the
    // prescribed thresholds.
    let mut sim = Simulation::new(5);
    let net = Rc::new(RefCell::new(SimNet::new(LinkConfig::clean(
        Latency::Constant(2),
    ))));
    let monitor = Rc::new(HeartbeatMonitor::new(3));
    let issuer = SourceId::new("issuer");
    monitor.register(issuer.clone(), 10, 0);

    // Issuer beats every 10 ticks until t=200.
    for t in (10..200).step_by(10) {
        let net = Rc::clone(&net);
        let monitor = Rc::clone(&monitor);
        let issuer = issuer.clone();
        sim.schedule_at(t, move |sim| {
            let monitor = Rc::clone(&monitor);
            let issuer = issuer.clone();
            net.borrow_mut().send(sim, "issuer", "holder", move |sim| {
                monitor.beat(&issuer, sim.now());
            });
        });
    }
    // Partition at t=100.
    {
        let net = Rc::clone(&net);
        sim.schedule_at(100, move |_| {
            net.borrow_mut().partition("issuer", "holder");
        });
    }
    // Observations.
    let observations = Rc::new(RefCell::new(Vec::new()));
    for t in [95u64, 105, 115, 140] {
        let monitor = Rc::clone(&monitor);
        let issuer = issuer.clone();
        let observations = Rc::clone(&observations);
        sim.schedule_at(t, move |sim| {
            observations
                .borrow_mut()
                .push((sim.now(), monitor.health(&issuer, sim.now()).unwrap()));
        });
    }
    sim.run();

    let obs = observations.borrow();
    assert_eq!(obs[0].1, SourceHealth::Healthy, "before the partition");
    // Last beat delivered was sent at t=90, arriving t=92. At t=105 the
    // monitor is inside one interval+slack; by 115 it is Late; by 140,
    // past 3 intervals, Dead.
    assert_eq!(obs[2].1, SourceHealth::Late, "one missed interval");
    assert_eq!(obs[3].1, SourceHealth::Dead, "silence past the threshold");
}

#[test]
fn heartbeat_guarded_cache_closes_the_lost_event_window() {
    // The full Fig 5 belt-and-braces configuration: a validation cache
    // that is push-invalidated AND heartbeat-guarded. When the event
    // channel fails silently (here: the relying service sits on a bus
    // the issuer does not publish to, modelling a partition), the
    // missing heartbeats alone stop the cache from vouching.
    let (svc, cred, alice) = guest_world();
    let relying = relying_on(
        &svc,
        ServiceConfig::new("relying")
            .with_validation_cache(u64::MAX)
            .with_heartbeats(),
    );
    relying.watch_issuer(svc.id(), 10, 0);

    relying.issuer_beat(svc.id(), 5);
    relying.validate_credential(&cred, &alice, 6).unwrap();
    relying.validate_credential(&cred, &alice, 7).unwrap();
    assert_eq!(relying.validation_cache_stats().unwrap().hits, 1);

    // Revocation happens; the push never reaches the relying service.
    svc.revoke_certificate(cred.crr().cert_id, "gone", 8);
    // …and the partition also stops the heartbeats. Once the issuer is
    // dead, its entries are evicted and the callback discovers the
    // revocation.
    assert!(
        relying.validate_credential(&cred, &alice, 9).is_ok(),
        "inside the heartbeat window the stale cache still answers — the bounded risk"
    );
    assert!(
        relying.validate_credential(&cred, &alice, 50).is_err(),
        "past the heartbeat window the guard forces a callback, which denies"
    );
    assert_eq!(relying.degradation_stats().unwrap().dead_evictions, 1);
}

#[test]
fn lossy_network_eventually_delivers_with_retries() {
    // A 40%-lossy link: a sender retrying every 5 ticks until acked gets
    // the revocation through; the simulation is deterministic per seed.
    let mut sim = Simulation::new(11);
    let net = Rc::new(RefCell::new(SimNet::new(LinkConfig {
        latency: Latency::Constant(1),
        loss: 0.4,
        ..LinkConfig::default()
    })));
    let delivered = Rc::new(RefCell::new(None::<u64>));

    fn attempt(
        sim: &mut Simulation,
        net: Rc<RefCell<SimNet>>,
        delivered: Rc<RefCell<Option<u64>>>,
    ) {
        if delivered.borrow().is_some() {
            return;
        }
        let ok = {
            let d2 = Rc::clone(&delivered);
            net.borrow_mut().send(sim, "a", "b", move |sim| {
                d2.borrow_mut().get_or_insert(sim.now());
            })
        };
        let _ = ok;
        let net2 = Rc::clone(&net);
        let d3 = Rc::clone(&delivered);
        sim.schedule_in(5, move |sim| attempt(sim, net2, d3));
    }

    {
        let net = Rc::clone(&net);
        let delivered = Rc::clone(&delivered);
        sim.schedule_at(0, move |sim| attempt(sim, net, delivered));
    }
    sim.run_until(1_000);
    assert!(
        delivered.borrow().is_some(),
        "retries must eventually deliver over a 40% lossy link"
    );
}
