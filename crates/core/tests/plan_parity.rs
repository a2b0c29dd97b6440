//! Differential parity: the compiled decision-plan engine must agree
//! with the interpreted backtracking solver on *every* input — outcome,
//! bindings, and which credential satisfied which condition.
//!
//! A seed-deterministic generator builds random rule sets (prerequisite
//! and appointment joins, positive and negated facts, comparisons,
//! custom predicates, ambient variables, wildcards) over random
//! credential sets and fact stores, and every query runs through both
//! engines. Any divergence is a bug in the plan compiler or evaluator;
//! the failing seed is printed for replay.

use std::sync::Arc;

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use oasis_core::cert::{AppointmentCertificate, Credential, Crr, Rmc};
use oasis_core::rule::solve;
use oasis_core::{
    Atom, Bindings, CertId, CmpOp, CredIndex, EnvContext, OasisService, PlanStats, PrincipalId,
    RoleName, RulePlan, ServiceConfig, ServiceId, Term, Value,
};
use oasis_crypto::{IssuerSecret, SecretEpoch};
use oasis_facts::FactStore;

const CASES: u64 = 150;
const QUERIES_PER_CASE: usize = 8;

const ROLES: &[&str] = &["reader", "writer", "doctor", "nurse", "admin"];
const APPOINTMENTS: &[&str] = &["employed", "certified"];
const RELATIONS: &[(&str, usize)] = &[("registered", 2), ("open", 1), ("assigned", 3)];
const VARS: &[&str] = &["A", "B", "C", "D"];

struct Gen {
    rng: ChaCha8Rng,
}

impl Gen {
    fn pick<'a, T>(&mut self, pool: &'a [T]) -> &'a T {
        &pool[self.rng.random_range(0..pool.len())]
    }

    fn value(&mut self) -> Value {
        match self.rng.random_range(0..4u32) {
            0 => Value::id(format!("p{}", self.rng.random_range(0..4u32))),
            1 => Value::Int(self.rng.random_range(0..5i64)),
            2 => Value::Bool(self.rng.random_bool(0.5)),
            _ => Value::Time(self.rng.random_range(0..100u64)),
        }
    }

    /// A term for a condition position: mostly variables (joins), some
    /// constants, occasional wildcards and ambient variables.
    fn term(&mut self) -> Term {
        match self.rng.random_range(0..10u32) {
            0..=4 => Term::var(*self.pick(VARS)),
            5 => Term::Wildcard,
            6 => Term::var("$now"),
            7 => Term::var("$host"),
            _ => Term::val(self.value()),
        }
    }

    fn terms(&mut self, n: usize) -> Vec<Term> {
        (0..n).map(|_| self.term()).collect()
    }

    fn credential(&mut self, secret: &IssuerSecret, id: u64) -> Credential {
        let issuer = ServiceId::new(if self.rng.random_bool(0.7) {
            "svc"
        } else {
            "other"
        });
        let holder = PrincipalId::new(format!("u{}", self.rng.random_range(0..3u32)));
        let crr = Crr::new(issuer, CertId(id));
        let nargs = self.rng.random_range(0..3usize);
        let args: Vec<Value> = (0..nargs).map(|_| self.value()).collect();
        if self.rng.random_bool(0.7) {
            Credential::Rmc(Rmc::issue(
                &secret.current(),
                SecretEpoch(0),
                &holder,
                crr,
                RoleName::new(*self.pick(ROLES)),
                args,
                0,
                None,
            ))
        } else {
            Credential::Appointment(AppointmentCertificate::issue(
                &secret.current(),
                SecretEpoch(0),
                &holder,
                crr,
                (*self.pick(APPOINTMENTS)).to_string(),
                args,
                0,
                None,
                None,
            ))
        }
    }

    fn atom(&mut self) -> Atom {
        match self.rng.random_range(0..10u32) {
            0..=2 => {
                let nargs = self.rng.random_range(0..3usize);
                let service = match self.rng.random_range(0..3u32) {
                    0 => Some(ServiceId::new("other")),
                    1 => Some(ServiceId::new("svc")),
                    _ => None,
                };
                Atom::Prereq {
                    service,
                    role: RoleName::new(*self.pick(ROLES)),
                    args: self.terms(nargs),
                }
            }
            3..=4 => {
                let nargs = self.rng.random_range(0..3usize);
                Atom::Appointment {
                    issuer: self.rng.random_bool(0.5).then(|| ServiceId::new("svc")),
                    name: (*self.pick(APPOINTMENTS)).to_string(),
                    args: self.terms(nargs),
                }
            }
            5..=7 => {
                let (relation, arity) = *self.pick(RELATIONS);
                Atom::EnvFact {
                    relation: relation.to_string(),
                    args: self.terms(arity),
                    // ~30% negated, per the issue's test requirements.
                    negated: self.rng.random_bool(0.3),
                }
            }
            8 => Atom::EnvCompare {
                left: self.term(),
                op: *self.pick(&[
                    CmpOp::Eq,
                    CmpOp::Ne,
                    CmpOp::Lt,
                    CmpOp::Le,
                    CmpOp::Gt,
                    CmpOp::Ge,
                ]),
                right: self.term(),
            },
            _ => Atom::EnvPredicate {
                name: "small".to_string(),
                args: vec![self.term()],
            },
        }
    }

    /// A rule: head arguments and one to five conditions.
    fn rule(&mut self) -> (Vec<Term>, Vec<Atom>) {
        let head_arity = self.rng.random_range(0..3usize);
        let head_args = self.terms(head_arity);
        let nconds = self.rng.random_range(1..6usize);
        let conditions = (0..nconds).map(|_| self.atom()).collect();
        (head_args, conditions)
    }

    fn facts(&mut self) -> Arc<FactStore<Value>> {
        let facts = FactStore::new();
        for (name, arity) in RELATIONS {
            facts.define(*name, *arity).unwrap();
        }
        for _ in 0..self.rng.random_range(0..12u32) {
            let (name, arity) = *self.pick(RELATIONS);
            let tuple: Vec<Value> = (0..arity).map(|_| self.value()).collect();
            facts.insert(name, tuple).unwrap();
        }
        Arc::new(facts)
    }

    fn context(&mut self) -> EnvContext {
        let mut ctx = EnvContext::new(self.rng.random_range(0..100u64));
        if self.rng.random_bool(0.5) {
            let host = self.value();
            ctx = ctx.with_ambient("host", host);
        }
        if self.rng.random_bool(0.7) {
            ctx = ctx.with_predicate("small", |args, _ctx| {
                args.iter().all(|v| !matches!(v, Value::Int(i) if *i > 2))
            });
        }
        ctx
    }
}

/// One generated case: a rule set, credentials, facts, and a context;
/// every rule is queried with several argument vectors through both
/// engines. Returns how many queries were satisfiable, so the caller
/// can assert the suite exercises the success path, not just
/// `None == None`.
fn run_case(seed: u64) -> usize {
    let mut g = Gen {
        rng: ChaCha8Rng::seed_from_u64(seed),
    };
    let self_service = ServiceId::new("svc");
    let secret = IssuerSecret::random();

    let ncreds = g.rng.random_range(0..10usize);
    let creds: Vec<Credential> = (0..ncreds)
        .map(|i| g.credential(&secret, i as u64 + 1))
        .collect();
    let facts = g.facts();
    let ctx = g.context();
    let index = CredIndex::build(&creds);

    let mut satisfied = 0;
    let nrules = g.rng.random_range(1..6usize);
    for _ in 0..nrules {
        let (head_args, conditions) = g.rule();
        let head_arity = head_args.len();
        let plan = RulePlan::compile(&self_service, &head_args, &conditions);

        for _ in 0..QUERIES_PER_CASE {
            let args: Vec<Value> = (0..head_arity).map(|_| g.value()).collect();

            let interpreted = {
                let mut seed_bindings = Bindings::new();
                if seed_bindings.unify_all(&head_args, &args) {
                    solve(
                        &self_service,
                        &conditions,
                        seed_bindings,
                        &creds,
                        &facts,
                        &ctx,
                    )
                } else {
                    None
                }
            };
            let compiled = plan.eval(&args, &index, &facts, &ctx);

            assert_eq!(
                interpreted, compiled,
                "engines diverge (seed {seed})\nhead: {head_args:?}\nconditions: {conditions:?}\nargs: {args:?}"
            );
            satisfied += usize::from(compiled.is_some());
        }
    }
    satisfied
}

#[test]
fn compiled_plans_agree_with_reference_solver() {
    let satisfied: usize = (0..CASES).map(run_case).sum();
    // The generator must produce genuinely satisfiable queries — a suite
    // that only ever compares `None == None` proves nothing.
    assert!(
        satisfied >= 50,
        "only {satisfied} satisfiable queries across {CASES} cases; generator degenerated"
    );
}

/// The source-level reading of `PlanStats::ground`: the head and the
/// `$`-ambient names bind every variable the body reads. A body proved
/// unsatisfiable keeps no steps, so it counts as well.
fn fully_bound(head: &[Term], conditions: &[Atom], always_fail: bool) -> bool {
    let bound = |t: &Term| match t {
        Term::Var(v) => v.0.starts_with('$') || head.contains(t),
        _ => true,
    };
    always_fail
        || conditions.iter().all(|atom| match atom {
            Atom::Prereq { args, .. }
            | Atom::Appointment { args, .. }
            | Atom::EnvFact { args, .. }
            | Atom::EnvPredicate { args, .. } => args.iter().all(bound),
            Atom::EnvCompare { left, right, .. } => bound(left) && bound(right),
        })
}

/// The fold over a service's policy table that `plan_stats()` used to
/// compute: every installed rule's plan, compiled again from the table.
fn folded_plan_stats(svc: &OasisService, methods: &[&str]) -> PlanStats {
    let mut stats = PlanStats::default();
    let mut absorb = |head: &[Term], conditions: &[Atom]| {
        let plan = RulePlan::compile(svc.id(), head, conditions);
        stats.total += 1;
        stats.always_fail += u64::from(plan.is_always_fail());
        stats.ground += u64::from(fully_bound(head, conditions, plan.is_always_fail()));
        stats.reordered += u64::from(plan.was_reordered());
        stats.time_sensitive += u64::from(plan.is_time_sensitive());
    };
    for role in ROLES {
        for rule in svc.activation_rules(&RoleName::new(*role)) {
            absorb(&rule.head_args, &rule.conditions);
        }
    }
    for method in methods {
        for rule in svc.invocation_rules(method) {
            absorb(&rule.head_args, &rule.conditions);
        }
    }
    stats
}

/// `plan_stats()` counts plans as `add_*_rule` installs them; over the
/// generated rule sets it equals the fold over the policy table, and a
/// rule the service refuses is counted by neither.
#[test]
fn plan_counts_equal_the_fold_over_the_policy_table() {
    const METHODS: &[&str] = &["read", "write"];
    let mut installed = 0;
    for seed in 0..CASES {
        let mut g = Gen {
            rng: ChaCha8Rng::seed_from_u64(seed),
        };
        let svc = OasisService::new(ServiceConfig::new("svc"), g.facts());
        // The last role stays undefined: rules for it are refused.
        for role in &ROLES[..ROLES.len() - 1] {
            svc.define_role(*role, &[], false).unwrap();
        }
        for _ in 0..g.rng.random_range(1..8usize) {
            let (head, conditions) = g.rule();
            if g.rng.random_bool(0.6) {
                let role = *g.pick(ROLES);
                let membership = if g.rng.random_bool(0.2) {
                    vec![conditions.len()]
                } else {
                    vec![]
                };
                installed += usize::from(
                    svc.add_activation_rule(role, head, conditions, membership)
                        .is_ok(),
                );
            } else {
                svc.add_invocation_rule(*g.pick(METHODS), head, conditions);
                installed += 1;
            }
        }
        assert_eq!(
            svc.plan_stats(),
            folded_plan_stats(&svc, METHODS),
            "seed {seed}"
        );
    }
    assert!(
        installed >= CASES as usize,
        "only {installed} rules installed"
    );
}

/// The generator above only rarely produces satisfiable multi-join
/// rules; pin a hand-built family where solutions definitely exist so
/// parity is exercised on the success path too (bindings and `used`
/// compared, not just `None == None`).
#[test]
fn parity_on_satisfiable_rules() {
    let self_service = ServiceId::new("svc");
    let secret = IssuerSecret::random();
    let holder = PrincipalId::new("u");
    let mk_rmc = |id: u64, role: &str, args: Vec<Value>| {
        Credential::Rmc(Rmc::issue(
            &secret.current(),
            SecretEpoch(0),
            &holder,
            Crr::new(ServiceId::new("svc"), CertId(id)),
            RoleName::new(role),
            args,
            0,
            None,
        ))
    };
    let facts = FactStore::new();
    facts.define("registered", 2).unwrap();
    facts
        .insert("registered", vec![Value::id("d1"), Value::id("p1")])
        .unwrap();
    facts
        .insert("registered", vec![Value::id("d1"), Value::id("p2")])
        .unwrap();
    let ctx = EnvContext::new(10).with_ambient("host", Value::id("ward"));

    let creds = vec![
        mk_rmc(1, "doctor", vec![Value::id("d0")]),
        mk_rmc(2, "doctor", vec![Value::id("d1")]),
        mk_rmc(3, "on_duty", vec![Value::id("d1"), Value::id("ward")]),
    ];
    let index = CredIndex::build(&creds);

    let head = vec![Term::var("P")];
    let guard =
        |before: u64| Atom::compare(Term::var("$now"), CmpOp::Lt, Term::val(Value::Time(before)));
    // Each body with the credentials a `p1` query must use, by
    // `(condition, certificate id)`. The second is the rule
    // `plan_service_tests.rs` drives through the service.
    let bodies = [
        (
            vec![
                Atom::prereq("doctor", vec![Term::var("D")]),
                Atom::prereq("on_duty", vec![Term::var("D"), Term::var("$host")]),
                Atom::env_fact("registered", vec![Term::var("D"), Term::var("P")]),
                guard(50),
            ],
            vec![(0, 2), (1, 3)],
        ),
        (
            vec![
                Atom::prereq("doctor", vec![Term::var("D")]),
                Atom::env_fact("registered", vec![Term::var("D"), Term::var("P")]),
                guard(100),
            ],
            vec![(0, 2)],
        ),
    ];
    let closed = EnvContext::new(200).with_ambient("host", Value::id("ward"));
    for (conditions, expected_used) in bodies {
        let plan = RulePlan::compile(&self_service, &head, &conditions);
        assert!(plan.was_reordered());

        for p in ["p1", "p2", "p3"] {
            let args = vec![Value::id(p)];
            for (ctx, window_open) in [(&ctx, true), (&closed, false)] {
                let interpreted = {
                    let mut seed = Bindings::new();
                    assert!(seed.unify_all(&head, &args));
                    solve(&self_service, &conditions, seed, &creds, &facts, ctx)
                };
                let compiled = plan.eval(&args, &index, &facts, ctx);
                assert_eq!(interpreted, compiled, "diverged for {p}");
                assert_eq!(compiled.is_some(), window_open && p != "p3");
            }
        }

        // The satisfiable queries must have used the *same* credentials
        // in the same condition slots.
        let solution = plan
            .eval(&[Value::id("p1")], &index, &facts, &ctx)
            .expect("satisfiable");
        let used_ids: Vec<(usize, u64)> = solution
            .used
            .iter()
            .map(|(cond, crr)| (*cond, crr.cert_id.0))
            .collect();
        assert_eq!(used_ids, expected_used);
    }
}
