//! TAB-G — compiled decision plans vs the reference solver.
//!
//! A service decides with the plan compiled from each rule; `rule::solve`
//! is the reference the plans are held to. This experiment measures what
//! compilation buys, engine against engine on the same inputs, and what
//! the service then delivers through its public API:
//!
//! * decision throughput at 10/100/500 alternative rules per role:
//!   `solve` over the rules in trial order against `RulePlan::eval` over
//!   one `CredIndex`, same rules, same presented credentials (each probe
//!   rule joins two credential conditions under a ground guard that never
//!   holds — `solve` enumerates the join cross-product per rule before
//!   the guard fails, the plan hoists the guard ahead of the join and
//!   fails in one indexed fact probe). The service's own warm activation
//!   throughput on that policy is a separate column: it adds credential
//!   validation, signing and the record install to every decision;
//! * recheck storm over ~2 000 certificates with retained checks: `solve`
//!   against `CheckPlan::eval` over the same retained bodies, and the
//!   service's full membership sweep, cold (the fact epoch moved, every
//!   check runs) and warm (unchanged epoch, fact-only checks skipped).
//!   Each figure is the median of [`SWEEPS`] sweeps, with min and max;
//! * TAB-P, the policy pipeline (Sect. 1: formally expressed,
//!   automatically deployed policy): parse + check + compile into a
//!   fresh service for generated documents of 10 to 1 000 chained roles,
//!   median of [`SWEEPS`] runs with min and max.
//!
//! Emits `BENCH_policy.json` at the repo root and asserts the headline
//! acceptance bar: plans decide ≥10x faster than `solve` on the 100-rule
//! policy.
//!
//! Set `POLICY_BENCH_QUICK=1` (CI smoke) to shrink sizes and budgets.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use oasis::core::rule::solve;
use oasis::core::{ActivationRule, Bindings, CheckPlan, CredIndex, RulePlan};
use oasis::prelude::*;
use oasis_bench::{provenance_fields, table_header};

/// Sweeps per recheck figure.
const SWEEPS: usize = 15;

fn quick() -> bool {
    std::env::var("POLICY_BENCH_QUICK").is_ok_and(|v| v != "0")
}

/// A service whose `target` role has `rules` alternatives: all but the
/// last join two `badge` prerequisites under a ground `gate_flag` guard
/// that is never asserted, the last is satisfiable via a real
/// prerequisite RMC plus a fact lookup. The principal presents that RMC
/// buried among `filler` decoy `badge` RMCs (all genuinely issued by
/// the service, so validation passes).
///
/// The probe rules are the hot-path shape the plan compiler targets:
/// the reference solver evaluates left-to-right, so each probe costs a
/// filler x filler credential-join cross-product (a `Bindings` clone
/// per branch) before the trailing guard fails; the compiled plan
/// schedules the ground guard before the join and answers each probe
/// with a single indexed fact lookup.
fn alternatives_world(
    rules: usize,
    filler: usize,
) -> (Arc<OasisService>, PrincipalId, Vec<Credential>) {
    let facts = Arc::new(FactStore::new());
    facts.define("open", 1).unwrap();
    facts.define("registered", 1).unwrap();
    // The guard relation stays empty: every probe rule is unsatisfiable,
    // but only the compiled plan discovers that before the join.
    facts.define("gate_flag", 1).unwrap();
    facts.insert("open", vec![Value::id("alice")]).unwrap();
    facts
        .insert("registered", vec![Value::id("alice")])
        .unwrap();

    let service = OasisService::new(ServiceConfig::new("alt"), facts);
    let alice = PrincipalId::new("alice");
    let ctx = EnvContext::new(0);

    // The real prerequisite and the decoys, all issued properly.
    let mut presented: Vec<Credential> = Vec::new();
    service
        .define_role("entry", &[("u", ValueType::Id)], true)
        .unwrap();
    service
        .add_activation_rule(
            "entry",
            vec![Term::var("U")],
            vec![Atom::env_fact("open", vec![Term::var("U")])],
            vec![0],
        )
        .unwrap();
    service
        .define_role("badge", &[("t", ValueType::Id), ("u", ValueType::Id)], true)
        .unwrap();
    service
        .add_activation_rule(
            "badge",
            vec![Term::var("T"), Term::var("U")],
            vec![Atom::env_fact("open", vec![Term::var("U")])],
            vec![0],
        )
        .unwrap();
    for i in 0..filler {
        let rmc = service
            .activate_role(
                &alice,
                &RoleName::new("badge"),
                &[Value::id(format!("t{i}")), Value::id("alice")],
                &[],
                &ctx,
            )
            .unwrap();
        presented.push(Credential::Rmc(rmc));
    }
    let entry = service
        .activate_role(
            &alice,
            &RoleName::new("entry"),
            &[Value::id("alice")],
            &[],
            &ctx,
        )
        .unwrap();
    // Bury the useful credential in the middle of the presented set.
    presented.insert(filler / 2, Credential::Rmc(entry));

    service
        .define_role("target", &[("u", ValueType::Id)], false)
        .unwrap();
    for i in 0..rules.saturating_sub(1) {
        // Unsatisfiable, but only via the trailing ground guard: the
        // reference solver first enumerates every (badge, badge) pair —
        // a Bindings clone per branch — and fails the guard once per
        // pair; the compiled plan hoists the guard (it reads no join
        // output) and refutes the rule with one empty-relation probe.
        service
            .add_activation_rule(
                "target",
                vec![Term::var("U")],
                vec![
                    Atom::prereq("badge", vec![Term::var("X"), Term::Wildcard]),
                    Atom::prereq("badge", vec![Term::var("Y"), Term::Wildcard]),
                    Atom::env_fact("gate_flag", vec![Term::val(Value::Int(i as i64))]),
                ],
                vec![0],
            )
            .unwrap();
    }
    service
        .add_activation_rule(
            "target",
            vec![Term::var("U")],
            vec![
                Atom::prereq("entry", vec![Term::var("U")]),
                Atom::env_fact("registered", vec![Term::var("U")]),
            ],
            vec![0, 1],
        )
        .unwrap();

    (service, alice, presented)
}

/// Calls per second of `op` over a fixed wall-clock budget, after one
/// warm-up call.
fn throughput(budget: Duration, mut op: impl FnMut()) -> f64 {
    op();
    let mut ops = 0u64;
    let t0 = Instant::now();
    while t0.elapsed() < budget {
        for _ in 0..8 {
            op();
            ops += 1;
        }
    }
    ops as f64 / t0.elapsed().as_secs_f64()
}

/// Decisions per second on `target(alice)` for the reference solver, the
/// compiled plans, and the service's public API, in that order. The first
/// two run the service's own rule table over its own fact store; every
/// decision is checked to grant.
fn decision_throughputs(
    service: &OasisService,
    alice: &PrincipalId,
    presented: &[Credential],
    budget: Duration,
) -> [f64; 3] {
    let target = RoleName::new("target");
    let args = [Value::id("alice")];
    let ctx = EnvContext::new(1);
    let rules: Vec<ActivationRule> = service.activation_rules(&target);
    let plans: Vec<RulePlan> = rules
        .iter()
        .map(|r| RulePlan::compile(service.id(), &r.head_args, &r.conditions))
        .collect();
    let facts = service.facts();

    let solved = throughput(budget, || {
        let granted = rules.iter().any(|rule| {
            let mut seed = Bindings::new();
            seed.unify_all(&rule.head_args, &args)
                && solve(service.id(), &rule.conditions, seed, presented, facts, &ctx).is_some()
        });
        assert!(granted);
    });
    let planned = throughput(budget, || {
        // As the service does it: one index per request, every plan over it.
        let index = CredIndex::build(presented);
        let granted = plans
            .iter()
            .any(|plan| plan.eval(&args, &index, facts, &ctx).is_some());
        assert!(granted);
    });
    let served = throughput(budget, || {
        service
            .activate_role(alice, &target, &args, presented, &ctx)
            .unwrap();
    });
    [solved, planned, served]
}

/// A service holding `certs` active RMCs with retained membership
/// checks: half fact-only (`registered(u_i)` must stay asserted), half
/// additionally time-sensitive (`$now` window).
///
/// Also returns the retained body of every certificate as the service
/// holds it — the membership conditions with the head variable bound —
/// for the engine-against-engine sweep.
fn recheck_world(certs: usize) -> (Arc<OasisService>, Vec<Vec<Atom>>) {
    let facts = Arc::new(FactStore::new());
    facts.define("registered", 1).unwrap();
    // Bumped before each cold sweep; no rule reads it.
    facts.define("epoch_tick", 1).unwrap();
    let service = OasisService::new(ServiceConfig::new("sweep"), facts.clone());
    let window = || {
        Atom::compare(
            Term::var("$now"),
            CmpOp::Lt,
            Term::val(Value::Time(1_000_000)),
        )
    };
    service
        .define_role("member", &[("u", ValueType::Id)], true)
        .unwrap();
    service
        .add_activation_rule(
            "member",
            vec![Term::var("U")],
            vec![Atom::env_fact("registered", vec![Term::var("U")])],
            vec![0],
        )
        .unwrap();
    service
        .define_role("timed", &[("u", ValueType::Id)], true)
        .unwrap();
    service
        .add_activation_rule(
            "timed",
            vec![Term::var("U")],
            vec![Atom::env_fact("registered", vec![Term::var("U")]), window()],
            vec![0, 1],
        )
        .unwrap();
    let ctx = EnvContext::new(0);
    let mut retained = Vec::with_capacity(certs);
    for i in 0..certs {
        let user = Value::id(format!("u{i}"));
        facts.insert("registered", vec![user.clone()]).unwrap();
        let timed = i % 2 == 1;
        let role = if timed { "timed" } else { "member" };
        let mut body = vec![Atom::env_fact("registered", vec![Term::val(user.clone())])];
        if timed {
            body.push(window());
        }
        retained.push(body);
        service
            .activate_role(
                &PrincipalId::new(format!("u{i}")),
                &RoleName::new(role),
                &[user],
                &[],
                &ctx,
            )
            .unwrap();
    }
    (service, retained)
}

/// A valid policy with `roles` chained roles in one service: each role
/// needs its predecessor and a fact, and gates one method.
fn generate_policy(roles: usize) -> String {
    let mut text = String::from("service generated {\n");
    let _ = writeln!(text, "  initial role role0(u: id);");
    for i in 1..roles {
        let _ = writeln!(text, "  role role{i}(u: id);");
    }
    let _ = writeln!(text, "  rule role0(U) <- env fact0(U);");
    for i in 1..roles {
        let _ = writeln!(
            text,
            "  rule role{i}(U) <- prereq role{}(U), env fact{i}(U);",
            i - 1
        );
    }
    for i in 0..roles {
        let _ = writeln!(text, "  invoke method{i}(U) <- prereq role{i}(U);");
    }
    text.push_str("}\n");
    text
}

/// `[median, min, max]` wall-clock ms of [`SWEEPS`] runs of `sweep`;
/// `before` runs untimed ahead of each, with the sweep's number.
fn sweep_ms(mut before: impl FnMut(usize), mut sweep: impl FnMut(usize)) -> [f64; 3] {
    let mut ms: Vec<f64> = (0..SWEEPS)
        .map(|i| {
            before(i);
            let t0 = Instant::now();
            sweep(i);
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    ms.sort_by(f64::total_cmp);
    [ms[SWEEPS / 2], ms[0], ms[SWEEPS - 1]]
}

fn series() -> String {
    let quick = quick();
    let rule_counts: &[usize] = if quick { &[10, 100] } else { &[10, 100, 500] };
    let filler = 15usize;
    let budget = Duration::from_millis(if quick { 150 } else { 400 });

    table_header(
        "TAB-G compiled decision plans",
        "indexed plans turn per-request rule search into hash lookups",
        "rules  solve/s  plan/s  speedup  service-activations/s",
    );
    let mut solved = Vec::new();
    let mut planned = Vec::new();
    let mut served = Vec::new();
    let mut speedups = Vec::new();
    for &rules in rule_counts {
        let (service, alice, creds) = alternatives_world(rules, filler);
        let [ops_s, ops_p, ops_svc] = decision_throughputs(&service, &alice, &creds, budget);
        let speedup = ops_p / ops_s;
        println!("{rules:>5}  {ops_s:>7.0}  {ops_p:>6.0}  {speedup:>6.1}x  {ops_svc:>21.0}");
        solved.push(ops_s);
        planned.push(ops_p);
        served.push(ops_svc);
        speedups.push(speedup);
    }
    let at_100 = rule_counts.iter().position(|&r| r == 100).unwrap();
    assert!(
        speedups[at_100] >= 10.0,
        "acceptance: plans must decide ≥10x faster than solve at 100 rules, measured {:.1}x",
        speedups[at_100]
    );

    let certs = if quick { 400 } else { 2_000 };
    let (world, retained) = recheck_world(certs);
    let facts = world.facts();
    let plans: Vec<CheckPlan> = retained
        .iter()
        .map(|body| CheckPlan::new(world.id(), body.clone()))
        .collect();
    let empty_index = CredIndex::build(&[]);
    let ctx_at = |i: usize| EnvContext::new(1 + i as u64);
    let solve_sweep = sweep_ms(
        |_| {},
        |i| {
            let ctx = ctx_at(i);
            for body in &retained {
                assert!(solve(world.id(), body, Bindings::new(), &[], facts, &ctx).is_some());
            }
        },
    );
    let plan_sweep = sweep_ms(
        |_| {},
        |i| {
            let ctx = ctx_at(i);
            for plan in &plans {
                assert!(plan.eval(&empty_index, facts, &ctx));
            }
        },
    );
    let service_sweep = |i: usize| {
        let revoked = world.recheck_memberships(&ctx_at(i));
        assert!(revoked.is_empty(), "sweep must not revoke anything here");
    };
    // Cold: a fact changed since the last sweep, so every check runs.
    let cold_sweep = sweep_ms(
        |i| {
            facts
                .insert("epoch_tick", vec![Value::Int(i as i64)])
                .unwrap();
        },
        service_sweep,
    );
    // Warm: same epoch, later clock — fact-only checks skip, timed ones
    // re-run.
    let warm_sweep = sweep_ms(|_| {}, service_sweep);
    table_header(
        "TAB-G recheck storm",
        "membership sweep latency, median [min, max] ms; warm = unchanged fact epoch (fact-only checks skipped)",
        "certs  solve  plan  service-cold  service-warm",
    );
    let show = |[median, min, max]: [f64; 3]| format!("{median:.2} [{min:.2}, {max:.2}]");
    println!(
        "{certs:>5}  {}  {}  {}  {}",
        show(solve_sweep),
        show(plan_sweep),
        show(cold_sweep),
        show(warm_sweep)
    );
    let json = |[median, min, max]: [f64; 3]| {
        format!("{{\"median\": {median:.2}, \"min\": {min:.2}, \"max\": {max:.2}}}")
    };

    let role_counts: &[usize] = if quick {
        &[10, 100]
    } else {
        &[10, 100, 500, 1_000]
    };
    table_header(
        "TAB-P policy pipeline",
        "parse+check+compile stays fast as policies grow (linear in document size)",
        "roles  rules  pipeline ms",
    );
    let mut pipeline = Vec::new();
    for &roles in role_counts {
        let text = generate_policy(roles);
        let ms = sweep_ms(
            |_| {},
            |_| {
                let policy = Policy::parse(&text).unwrap();
                let service =
                    OasisService::new(ServiceConfig::new("generated"), Arc::new(FactStore::new()));
                policy.apply_to(&service).unwrap();
            },
        );
        println!("{roles:>5}  {:>5}  {}", roles * 2, show(ms));
        pipeline.push(format!("{{\"roles\": {roles}, \"ms\": {}}}", json(ms)));
    }

    let fmt = |xs: &[f64]| {
        xs.iter()
            .map(|v| format!("{v:.1}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    format!(
        "{{\n  {},\n  \"quick\": {},\n  \"throughput_window_ms\": {},\n  \"rule_counts\": [{}],\n  \"presented_credentials\": {},\n  \"solve_decisions_per_sec\": [{}],\n  \"plan_decisions_per_sec\": [{}],\n  \"speedup\": [{}],\n  \"service_activations_per_sec\": [{}],\n  \"recheck_certs\": {},\n  \"recheck_solve_ms\": {},\n  \"recheck_plan_ms\": {},\n  \"recheck_service_cold_ms\": {},\n  \"recheck_service_warm_ms\": {},\n  \"pipeline\": [{}]\n}}\n",
        provenance_fields("table_policy", 1, SWEEPS, "median of rounds"),
        quick,
        budget.as_millis(),
        rule_counts
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(", "),
        filler + 1,
        fmt(&solved),
        fmt(&planned),
        fmt(&speedups),
        fmt(&served),
        certs,
        json(solve_sweep),
        json(plan_sweep),
        json(cold_sweep),
        json(warm_sweep),
        pipeline.join(", "),
    )
}

fn bench(c: &mut Criterion) {
    let json = series();
    // Resolved at run time: a copy of the tree that reuses a copied
    // `target/` writes its own table, not the original's.
    let out = std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(
            || env!("CARGO_MANIFEST_DIR").into(),
            std::path::PathBuf::from,
        )
        .join("../../BENCH_policy.json");
    std::fs::write(&out, json).expect("write BENCH_policy.json");
    println!("wrote {}", out.display());

    // Criterion timings for the headline per-operation costs.
    let mut group = c.benchmark_group("policy_activation");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    let (service, alice, presented) = alternatives_world(100, 15);
    let target = RoleName::new("target");
    let args = [Value::id("alice")];
    let ctx = EnvContext::new(1);
    group.bench_function(BenchmarkId::new("service", "100rules"), |b| {
        b.iter(|| {
            service
                .activate_role(&alice, &target, &args, &presented, &ctx)
                .unwrap()
        });
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(1))
        .warm_up_time(Duration::from_millis(300));
    targets = bench
}
criterion_main!(benches);
