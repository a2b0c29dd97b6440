//! FIG-3 — an OASIS session with cross-domain calls.
//!
//! Fig 3's scenario sends request-EHR from a hospital domain to the
//! national EHR domain; the national service validates the hospital's
//! credential by callback. The architectural claim exercised here: with
//! validation caching (the ECR of Fig 5 — the relying service's own
//! validation cache) the callback cost is paid once per credential, so a
//! burst of n cross-domain calls does 1 callback instead of n; and under
//! simulated WAN latency the end-to-end difference is dominated by
//! exactly those callbacks.
//!
//! Reported series: (a) callbacks issued for a burst of n calls, cached
//! vs uncached; (b) simulated end-to-end latency of the Fig 3 exchange
//! under LAN/WAN latency models, cached vs uncached.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use oasis::prelude::*;
use oasis::sim::{Histogram, Latency, LinkConfig, SimNet, Simulation};
use oasis_bench::{table_header, CrossDomainWorld};

/// The national service's callback path with a counter in front: every
/// call that leaves the service for the issuer's domain is one callback.
struct CountedCallbacks {
    inner: Arc<dyn CredentialValidator>,
    calls: AtomicU64,
}

impl CredentialValidator for CountedCallbacks {
    fn validate(
        &self,
        credential: &Credential,
        presenter: &PrincipalId,
        now: u64,
    ) -> Result<(), OasisError> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.validate(credential, presenter, now)
    }
}

/// Callbacks issued by a burst of `burst` validations of one credential
/// at the national service, with its cache on or off: of the SLA-covered
/// `treating_doctor` RMC through request-EHR, or (`covered == false`) of
/// a `clerk` RMC no agreement covers. The counter sits under the SLA gate,
/// where a call leaves for the issuer's domain.
fn callbacks_for(burst: usize, cached: bool, covered: bool) -> u64 {
    let world = CrossDomainWorld::new(cached.then_some(u64::MAX));
    let issuer = Arc::new(LocalRegistry::new());
    issuer.register(&world.records);
    let callbacks = Arc::new(CountedCallbacks {
        inner: issuer,
        calls: AtomicU64::new(0),
    });
    world
        .ehr
        .set_validator(world.federation.gate("national", callbacks.clone()));
    let dr = PrincipalId::new("dr-a");
    let ctx = EnvContext::new(1);
    let creds = [Credential::Rmc(world.issue_treating("dr-a", "p-1"))];
    world.records.define_role("clerk", &[], true).unwrap();
    world
        .records
        .add_activation_rule("clerk", vec![], vec![], vec![])
        .unwrap();
    let clerk = world
        .records
        .activate_role(&dr, &RoleName::new("clerk"), &[], &[], &ctx)
        .map(Credential::Rmc)
        .unwrap();
    for _ in 0..burst {
        if covered {
            world
                .ehr
                .invoke(&dr, "request_ehr", &[Value::id("p-1")], &creds, &ctx)
                .unwrap();
        } else {
            let refused = world.ehr.validate_credential(&clerk, &dr, 1).unwrap_err();
            assert!(refused.to_string().contains("service-level agreement"));
        }
    }
    callbacks.calls.load(Ordering::Relaxed)
}

fn print_callback_series() {
    table_header(
        "FIG-3 cross-domain calls (callback amortisation)",
        "an ECR cache pays one validation callback per credential, not per call; \
         a credential no SLA covers pays none",
        "burst  callbacks(uncached)  callbacks(cached)  no_sla(uncached)  no_sla(cached)",
    );
    for burst in [1usize, 10, 100, 1_000] {
        let uncached = callbacks_for(burst, false, true);
        let cached = callbacks_for(burst, true, true);
        let no_sla = [false, true].map(|cached| callbacks_for(burst, cached, false));
        println!(
            "{burst:>5}  {uncached:>19}  {cached:>17}  {:>16}  {:>14}",
            no_sla[0], no_sla[1]
        );
        assert_eq!(uncached, burst as u64, "no cache: one callback per call");
        assert_eq!(cached, 1, "cache: one callback per credential");
        assert_eq!(no_sla, [0, 0], "no SLA: refused before any callback");
    }
}

/// Simulates the Fig 3 exchange end-to-end under a latency model:
/// client → ehr (request), ehr → hospital CIV (validation callback, only
/// on cache miss), hospital → ehr (validation reply), ehr → client.
/// Returns the completion-time histogram for `calls` sequential calls.
fn simulate_exchange(latency: Latency, calls: usize, cached: bool) -> Histogram {
    let mut sim = Simulation::new(7);
    let histogram = Rc::new(RefCell::new(Histogram::new()));

    // Validation state shared across calls (the cache).
    let validated = Rc::new(RefCell::new(false));

    for i in 0..calls {
        let start = (i as u64) * 10_000;
        let hist = Rc::clone(&histogram);
        let validated = Rc::clone(&validated);
        sim.schedule_at(start, move |sim| {
            // client → ehr
            let hist = Rc::clone(&hist);
            let validated = Rc::clone(&validated);
            let mut inner_net = SimNet::new(LinkConfig::clean(latency));
            inner_net.send(sim, "client", "ehr", move |sim| {
                let needs_callback = !(cached && *validated.borrow());
                let hist2 = Rc::clone(&hist);
                let mut net2 = SimNet::new(LinkConfig::clean(latency));
                if needs_callback {
                    let validated2 = Rc::clone(&validated);
                    net2.send(sim, "ehr", "hospital-civ", move |sim| {
                        *validated2.borrow_mut() = true;
                        let hist3 = Rc::clone(&hist2);
                        let mut net3 = SimNet::new(LinkConfig::clean(latency));
                        net3.send(sim, "hospital-civ", "ehr", move |sim| {
                            let hist4 = Rc::clone(&hist3);
                            let mut net4 = SimNet::new(LinkConfig::clean(latency));
                            net4.send(sim, "ehr", "client", move |sim| {
                                hist4.borrow_mut().record(sim.now() - start);
                            });
                        });
                    });
                } else {
                    net2.send(sim, "ehr", "client", move |sim| {
                        hist2.borrow_mut().record(sim.now() - start);
                    });
                }
            });
        });
    }
    sim.run();
    Rc::try_unwrap(histogram).unwrap().into_inner()
}

fn print_latency_series() {
    table_header(
        "FIG-3 cross-domain calls (simulated latency, 100 calls)",
        "under WAN latency the validation callback dominates; caching removes it",
        "link  mode      p50     p99",
    );
    for (name, latency) in [("LAN", Latency::lan()), ("WAN", Latency::wan())] {
        for (mode, cached) in [("callback", false), ("cached", true)] {
            let mut h = simulate_exchange(latency, 100, cached);
            println!(
                "{name:>4}  {mode:<8}  {:>6}  {:>6}",
                h.quantile(0.5).unwrap(),
                h.quantile(0.99).unwrap()
            );
        }
    }
}

fn bench(c: &mut Criterion) {
    print_callback_series();
    print_latency_series();

    // In-process timing of the real cross-domain invocation, cached vs not.
    let mut group = c.benchmark_group("fig3_cross_domain_invoke");
    for cached in [false, true] {
        let world = CrossDomainWorld::new(cached.then_some(u64::MAX));
        let rmc = world.issue_treating("dr-a", "p-1");
        let dr = PrincipalId::new("dr-a");
        let ctx = EnvContext::new(1);
        let creds = [Credential::Rmc(rmc)];
        group.bench_with_input(
            BenchmarkId::from_parameter(if cached { "cached" } else { "callback" }),
            &cached,
            |b, _| {
                b.iter(|| {
                    world
                        .ehr
                        .invoke(&dr, "request_ehr", &[Value::id("p-1")], &creds, &ctx)
                        .unwrap()
                });
            },
        );
    }
    group.finish();

    // Simulated exchange as a whole (deterministic, so measured once per
    // iteration batch).
    c.bench_function("fig3_sim_wan_100calls_cached", |b| {
        b.iter(|| simulate_exchange(Latency::wan(), 100, true));
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
