//! FIG-5 — active security via an event infrastructure.
//!
//! Fig 5 shows credential records linked by event channels so that
//! revocation at one service collapses dependent credentials everywhere,
//! immediately, without polling. Two quantitative claims fall out of the
//! architecture and are measured here:
//!
//! 1. **Cascade cost scales with the number of dependents** (fan-out
//!    sweep): revoking a root with n dependents publishes n+1 events and
//!    revokes n+1 certificates, synchronously.
//! 2. **Push beats polling on staleness**: with event channels, the
//!    window in which a revoked credential is still accepted is zero; a
//!    TTL cache accepts it for up to TTL ticks — measured directly.
//!
//! Reported series: cascade latency vs fan-out and vs depth; staleness
//! (acceptances of a revoked credential) for push vs TTL ∈ {10, 100,
//! 1000}.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use oasis::prelude::*;
use oasis_bench::{table_header, ChainWorld};

/// Builds a root service plus one leaf service with `fanout` dependent
/// certificates, and returns a closure-friendly bundle.
struct FanoutWorld {
    root: Arc<oasis::core::OasisService>,
    leaves: Arc<oasis::core::OasisService>,
    root_rmc: oasis::core::cert::Rmc,
}

fn fanout_world(fanout: usize) -> FanoutWorld {
    let facts = Arc::new(FactStore::new());
    let bus: EventBus<CertEvent> = EventBus::new();
    let root = OasisService::new(
        ServiceConfig::new("root").with_bus(bus.clone()),
        Arc::clone(&facts),
    );
    root.define_role("root", &[], true).unwrap();
    root.add_activation_rule("root", vec![], vec![], vec![])
        .unwrap();
    let leaves = OasisService::new(
        ServiceConfig::new("leaves").with_bus(bus),
        Arc::clone(&facts),
    );
    leaves
        .define_role("leaf", &[("n", ValueType::Int)], false)
        .unwrap();
    leaves
        .add_activation_rule(
            "leaf",
            vec![Term::var("N")],
            vec![Atom::prereq_at("root", "root", vec![])],
            vec![0],
        )
        .unwrap();
    let registry = Arc::new(LocalRegistry::new());
    registry.register(&root);
    registry.register(&leaves);
    leaves.set_validator(registry);

    let alice = PrincipalId::new("alice");
    let ctx = EnvContext::new(0);
    let root_rmc = root
        .activate_role(&alice, &RoleName::new("root"), &[], &[], &ctx)
        .unwrap();
    for i in 0..fanout {
        leaves
            .activate_role(
                &alice,
                &RoleName::new("leaf"),
                &[Value::Int(i as i64)],
                std::slice::from_ref(&Credential::Rmc(root_rmc.clone())),
                &ctx,
            )
            .unwrap();
    }
    FanoutWorld {
        root,
        leaves,
        root_rmc,
    }
}

fn print_cascade_series() {
    table_header(
        "FIG-5 cascade (fan-out sweep)",
        "revoking one root collapses every dependent, synchronously, in one call",
        "fanout  revoked  wall-time",
    );
    for fanout in [1usize, 10, 100, 1_000, 10_000] {
        let world = fanout_world(fanout);
        let t0 = std::time::Instant::now();
        world
            .root
            .revoke_certificate(world.root_rmc.crr.cert_id, "logout", 1);
        let elapsed = t0.elapsed();
        let (active, revoked, _) = world.leaves.record_stats();
        assert_eq!(active, 0);
        println!("{fanout:>6}  {revoked:>7}  {elapsed:>9.2?}");
    }

    table_header(
        "FIG-5 cascade (depth sweep)",
        "a chain of n dependent roles collapses transitively from the root",
        "depth  revoked  wall-time",
    );
    for depth in [2usize, 8, 32, 128] {
        let world = ChainWorld::new(depth);
        let rmcs = world.activate_chain(&PrincipalId::new("alice"));
        let t0 = std::time::Instant::now();
        world
            .service
            .revoke_certificate(rmcs[0].crr.cert_id, "logout", 1);
        let elapsed = t0.elapsed();
        let (active, revoked, _) = world.service.record_stats();
        assert_eq!(active, 0);
        println!("{depth:>5}  {revoked:>7}  {elapsed:>9.2?}");
    }
}

fn print_staleness_series() {
    table_header(
        "FIG-5 push vs poll staleness",
        "event channels close the revocation window to zero; TTL caches accept a revoked credential until expiry",
        "mode       ttl   stale-accepts (of 1000 post-revocation checks)",
    );
    for (mode, push, ttl) in [
        ("push", true, 1_000u64),
        ("ttl", false, 10),
        ("ttl", false, 100),
        ("ttl", false, 1_000),
    ] {
        // The relying service: same cache, same TTL, same callback path.
        // With push it shares the root's bus; without, it sits on a
        // private one the root never publishes to — no event channel.
        let world = fanout_world(1);
        let alice = PrincipalId::new("alice");
        let config = ServiceConfig::new("relying").with_validation_cache(ttl);
        let relying = OasisService::new(
            if push {
                config.with_bus(world.root.bus().clone())
            } else {
                config
            },
            Arc::new(FactStore::new()),
        );
        let registry = Arc::new(LocalRegistry::new());
        registry.register(&world.root);
        relying.set_validator(registry);
        let cred = Credential::Rmc(world.root_rmc.clone());
        relying.validate_credential(&cred, &alice, 0).unwrap();
        world
            .root
            .revoke_certificate(world.root_rmc.crr.cert_id, "logout", 1);

        // 1000 checks at t = 2, 3, …: how many still accept?
        let stale = (2..1_002)
            .filter(|&t| relying.validate_credential(&cred, &alice, t).is_ok())
            .count() as u64;
        println!("{mode:<9}  {ttl:>4}  {stale:>6}");
        // An entry written at t = 0 is served while its age is <= ttl,
        // so the revocation at t = 1 is overlooked at t = 2..=ttl.
        assert_eq!(stale, if push { 0 } else { ttl - 1 });
    }
}

/// Simulated wide-area revocation windows: the issuer revokes at t=0;
/// `fanout` remote holders learn of it either by a pushed event (one
/// network delivery) or at their next poll (uniform phase within the
/// polling interval, plus the same network delivery). Returns the p99
/// staleness window in ticks.
fn simulated_window(
    latency: oasis::sim::Latency,
    fanout: usize,
    poll_interval: Option<u64>,
) -> u64 {
    use oasis::sim::{Histogram, LinkConfig, SimNet, Simulation};
    use rand::Rng;
    use std::cell::RefCell;
    use std::rc::Rc;

    let mut sim = Simulation::new(13);
    let windows = Rc::new(RefCell::new(Histogram::new()));
    for _ in 0..fanout {
        let windows = Rc::clone(&windows);
        let phase = poll_interval.map(|p| sim.rng().random_range(0..p));
        sim.schedule_at(0, move |sim| {
            let mut net = SimNet::new(LinkConfig::clean(latency));
            match phase {
                // Polling: the holder notices at its next poll tick, then
                // pays one round trip to learn the status.
                Some(wait) => {
                    let windows = Rc::clone(&windows);
                    sim.schedule_in(wait, move |sim| {
                        let mut net = SimNet::new(LinkConfig::clean(latency));
                        net.send(sim, "issuer", "holder", move |sim| {
                            windows.borrow_mut().record(sim.now());
                        });
                    });
                }
                // Push: one delivery.
                None => {
                    net.send(sim, "issuer", "holder", move |sim| {
                        windows.borrow_mut().record(sim.now());
                    });
                }
            }
        });
    }
    sim.run();
    let result = windows.borrow_mut().quantile(0.99).unwrap_or(0);
    result
}

fn print_simulated_window_series() {
    table_header(
        "FIG-5 simulated wide-area revocation window (fan-out 200, WAN latency, ticks ≈ 100µs)",
        "push-based event channels keep the revocation window at network latency; polling adds its interval",
        "mode        p99-window(ticks)",
    );
    let wan = oasis::sim::Latency::wan();
    println!("push        {:>17}", simulated_window(wan, 200, None));
    for interval in [1_000u64, 10_000, 60_000] {
        println!(
            "poll@{interval:<6} {:>17}",
            simulated_window(wan, 200, Some(interval))
        );
    }
}

fn bench(c: &mut Criterion) {
    print_cascade_series();
    print_staleness_series();
    print_simulated_window_series();

    let mut group = c.benchmark_group("fig5_cascade_fanout");
    group.sample_size(20);
    for fanout in [10usize, 100, 1_000] {
        group.bench_with_input(BenchmarkId::from_parameter(fanout), &fanout, |b, &n| {
            b.iter_with_setup(
                || fanout_world(n),
                |world| {
                    world
                        .root
                        .revoke_certificate(world.root_rmc.crr.cert_id, "logout", 1);
                },
            );
        });
    }
    group.finish();

    let mut group = c.benchmark_group("fig5_cascade_depth");
    group.sample_size(20);
    for depth in [8usize, 64] {
        group.bench_with_input(BenchmarkId::from_parameter(depth), &depth, |b, &d| {
            b.iter_with_setup(
                || {
                    let world = ChainWorld::new(d);
                    let rmcs = world.activate_chain(&PrincipalId::new("alice"));
                    (world, rmcs)
                },
                |(world, rmcs)| {
                    world
                        .service
                        .revoke_certificate(rmcs[0].crr.cert_id, "logout", 1);
                },
            );
        });
    }
    group.finish();

    // Membership-sweep ablation (DESIGN.md milestone 5): the cost of the
    // periodic recheck_memberships sweep vs the number of active
    // certificates retaining environmental conditions. This is the price
    // a service pays for time-window/predicate constraints, which cannot
    // be push-notified.
    let mut group = c.benchmark_group("fig5_membership_sweep");
    group.sample_size(20);
    for certs in [100usize, 1_000] {
        let facts = Arc::new(FactStore::new());
        let svc = OasisService::new(ServiceConfig::new("sweep"), facts);
        svc.define_role("timed", &[("n", ValueType::Int)], true)
            .unwrap();
        svc.add_activation_rule(
            "timed",
            vec![Term::var("N")],
            vec![Atom::compare(
                Term::var("$now"),
                oasis::core::CmpOp::Lt,
                Term::val(Value::Time(u64::MAX)),
            )],
            vec![0],
        )
        .unwrap();
        let alice = PrincipalId::new("alice");
        let ctx = EnvContext::new(0);
        for n in 0..certs {
            svc.activate_role(
                &alice,
                &RoleName::new("timed"),
                &[Value::Int(n as i64)],
                &[],
                &ctx,
            )
            .unwrap();
        }
        group.bench_with_input(BenchmarkId::from_parameter(certs), &certs, |b, _| {
            b.iter(|| {
                let revoked = svc.recheck_memberships(&EnvContext::new(1));
                assert!(revoked.is_empty());
            });
        });
    }
    group.finish();

    // Event-bus throughput underneath it all.
    let bus: EventBus<u64> = EventBus::new();
    let _subs: Vec<_> = (0..8)
        .map(|_| {
            bus.subscribe_bounded("t", 16, oasis::events::OverflowPolicy::DropOldest)
                .unwrap()
        })
        .collect();
    let topic = oasis::events::Topic::new("t");
    c.bench_function("fig5_bus_publish_fanout8", |b| {
        b.iter(|| bus.publish(&topic, 1));
    });
}

criterion_group! {
    // Bounded measurement: several benchmarks accumulate issuer-side
    // state (credential records, audit entries) per iteration, so the
    // sampling windows are kept short to bound memory on full runs.
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(1))
        .warm_up_time(std::time::Duration::from_millis(300));
    targets = bench
}
criterion_main!(benches);
