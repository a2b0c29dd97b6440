//! Compiled decision plans: how a service evaluates its rules.
//!
//! [`solve`](crate::rule::solve) interprets a rule body left-to-right,
//! scanning the presented credentials per credential atom and cloning the
//! whole substitution per backtrack point. That is the *reference*
//! semantics, kept for the tests to compare against; no service calls it.
//! This module compiles each rule **once, at rule-load time**, into the
//! [`RulePlan`] that every decision runs:
//!
//! * **Slot registers** — variables become integer slots into a flat
//!   `Vec<Option<Value>>`; backtracking undoes a write-trail instead of
//!   cloning a `HashMap`.
//! * **Credential indexing** — each credential atom carries a precomputed
//!   `(kind, issuer, name)` key (the implicit issuer is resolved at
//!   compile time); at evaluation the presented set is indexed once per
//!   request ([`CredIndex`]) and candidates are fetched by key, with a
//!   first-argument discrimination level for ground leading arguments.
//! * **Condition reordering** — pure tests (comparisons, predicates,
//!   negated facts, fully-ground lookups) are hoisted to run immediately
//!   after the last generator that can bind a variable they read, so
//!   failing branches are pruned before credential joins, not after.
//!   Generators keep their relative order, which preserves the *first*
//!   solution found — the parity invariant with `solve`.
//! * **Constant folding** — comparisons over two constants are evaluated
//!   at compile time; a test reading a variable no generator can ever
//!   bind marks the whole plan [always-fail](RulePlan::is_always_fail).
//! * **Ground fast path** — when every variable a body reads is bound by
//!   the head or the ambient environment, evaluation degenerates to a
//!   linear sequence of indexed membership checks with no unification
//!   machinery at all.
//!
//! Plans return the same [`Solution`] (bindings *and* per-condition
//! credential choices, in original condition order) as `solve` on every
//! input; the differential parity suite (`tests/plan_parity.rs`) holds
//! them to that.

use std::collections::{HashMap, HashSet};

use oasis_facts::FactStore;

use crate::cert::{Credential, CredentialKind, Crr};
use crate::env::{CmpOp, EnvContext};
use crate::ids::ServiceId;
use crate::pattern::{Bindings, Term, VarName};
use crate::rule::{Atom, Solution};
use crate::value::Value;

/// One argument position in a compiled step.
#[derive(Debug, Clone, PartialEq, Eq)]
enum PlanTerm {
    /// A constant; matches only itself.
    Const(Value),
    /// A slot register (compiled variable).
    Slot(usize),
    /// Matches anything, binds nothing (compiled wildcard).
    Ignore,
}

/// Compile-time credential lookup key: kind × issuer × role/appointment
/// name, with the rule's implicit issuer already resolved.
type CredKey = (CredentialKind, ServiceId, String);

/// One compiled condition. `orig` is the index of the source [`Atom`] in
/// the rule body — reordering changes execution order, never reporting
/// order.
#[derive(Debug, Clone)]
enum PlanStep {
    /// A credential join (prerequisite role or appointment certificate).
    Credential {
        orig: usize,
        key: CredKey,
        args: Vec<PlanTerm>,
    },
    /// A fact lookup (generator when positive with unbound slots, test
    /// otherwise).
    Fact {
        orig: usize,
        relation: String,
        args: Vec<PlanTerm>,
        negated: bool,
    },
    /// A comparison over two resolved terms.
    Compare {
        orig: usize,
        left: PlanTerm,
        op: CmpOp,
        right: PlanTerm,
    },
    /// A custom predicate call.
    Predicate {
        orig: usize,
        name: String,
        args: Vec<PlanTerm>,
    },
}

impl PlanStep {
    fn slot_args(&self) -> Vec<usize> {
        let collect = |terms: &[PlanTerm]| {
            terms
                .iter()
                .filter_map(|t| match t {
                    PlanTerm::Slot(s) => Some(*s),
                    _ => None,
                })
                .collect()
        };
        match self {
            PlanStep::Credential { args, .. }
            | PlanStep::Fact { args, .. }
            | PlanStep::Predicate { args, .. } => collect(args),
            PlanStep::Compare { left, right, .. } => collect(&[left.clone(), right.clone()]),
        }
    }

    /// Whether this step can *bind* a slot: a credential join or a
    /// positive fact lookup with at least one slot argument. (A slot that
    /// happens to be bound at run time merely makes the generator act as
    /// a filter — classifying it conservatively as a generator only means
    /// fewer tests are hoisted past it, never a semantic change.)
    fn is_generator(&self) -> bool {
        match self {
            PlanStep::Credential { args, .. } => {
                args.iter().any(|t| matches!(t, PlanTerm::Slot(_)))
            }
            PlanStep::Fact { args, negated, .. } => {
                !negated && args.iter().any(|t| matches!(t, PlanTerm::Slot(_)))
            }
            _ => false,
        }
    }

    /// A test that cannot resolve one of its terms can never pass:
    /// comparisons, predicates, and negated facts require every term
    /// resolved, so a compiled wildcard among them is a contradiction.
    fn has_unresolvable_ignore(&self) -> bool {
        match self {
            PlanStep::Compare { left, right, .. } => {
                matches!(left, PlanTerm::Ignore) || matches!(right, PlanTerm::Ignore)
            }
            PlanStep::Predicate { args, .. } => args.iter().any(|t| matches!(t, PlanTerm::Ignore)),
            PlanStep::Fact { args, negated, .. } => {
                *negated && args.iter().any(|t| matches!(t, PlanTerm::Ignore))
            }
            _ => false,
        }
    }

    fn orig(&self) -> usize {
        match self {
            PlanStep::Credential { orig, .. }
            | PlanStep::Fact { orig, .. }
            | PlanStep::Compare { orig, .. }
            | PlanStep::Predicate { orig, .. } => *orig,
        }
    }

    /// Scheduling cost class: cheap ground tests first within one anchor
    /// group.
    fn cost(&self) -> u8 {
        match self {
            PlanStep::Compare { .. } => 0,
            PlanStep::Predicate { .. } => 1,
            PlanStep::Fact { .. } => 2,
            PlanStep::Credential { .. } => 3,
        }
    }
}

/// How an ambient slot is filled before evaluation.
#[derive(Debug, Clone)]
enum AmbientKey {
    /// `$now` — always present, from the context clock.
    Now,
    /// `$name` — present only when the context carries ambient `name`.
    Named(String),
}

/// Slot allocator: first-appearance order over the head, then the body.
#[derive(Default)]
struct SlotAlloc {
    names: Vec<VarName>,
    index: HashMap<VarName, usize>,
}

impl SlotAlloc {
    fn slot(&mut self, name: &VarName) -> usize {
        if let Some(&s) = self.index.get(name) {
            return s;
        }
        let s = self.names.len();
        self.names.push(name.clone());
        self.index.insert(name.clone(), s);
        s
    }

    fn lower(&mut self, term: &Term) -> PlanTerm {
        match term {
            Term::Const(v) => PlanTerm::Const(v.clone()),
            Term::Var(name) => PlanTerm::Slot(self.slot(name)),
            Term::Wildcard => PlanTerm::Ignore,
        }
    }
}

/// A rule body compiled into an executable decision plan. See the
/// [module docs](self) for what compilation does; [`RulePlan::eval`] is
/// the drop-in replacement for seeding [`Bindings`] and calling
/// [`solve`](crate::rule::solve).
#[derive(Debug, Clone)]
pub struct RulePlan {
    head: Vec<PlanTerm>,
    steps: Vec<PlanStep>,
    slot_names: Vec<VarName>,
    /// `(slot, source)` for every `$`-variable slot, filled from the
    /// context before the steps run.
    ambient: Vec<(usize, AmbientKey)>,
    /// The body contains a test no generator can ever satisfy: the rule
    /// is unsatisfiable and evaluation returns `None` immediately.
    always_fail: bool,
    /// Every slot the body reads is bound by the head or the ambient
    /// environment — eligible for the linear no-unification fast path.
    ground: bool,
    /// Result depends on the clock, an ambient value, or a predicate (as
    /// opposed to fact state only).
    time_sensitive: bool,
    /// The compiled order differs from the source order.
    reordered: bool,
}

impl RulePlan {
    /// Compiles a rule body. `self_service` resolves the implicit issuer
    /// of local credential atoms — the same resolution `solve` performs
    /// per candidate, done once here.
    pub fn compile(self_service: &ServiceId, head_args: &[Term], conditions: &[Atom]) -> Self {
        let mut alloc = SlotAlloc::default();
        let head: Vec<PlanTerm> = head_args.iter().map(|t| alloc.lower(t)).collect();
        let head_slots: HashSet<usize> = head
            .iter()
            .filter_map(|t| match t {
                PlanTerm::Slot(s) => Some(*s),
                _ => None,
            })
            .collect();

        let mut lowered: Vec<PlanStep> = Vec::with_capacity(conditions.len());
        for (orig, atom) in conditions.iter().enumerate() {
            lowered.push(match atom {
                Atom::Prereq {
                    service,
                    role,
                    args,
                } => PlanStep::Credential {
                    orig,
                    key: (
                        CredentialKind::Rmc,
                        service.clone().unwrap_or_else(|| self_service.clone()),
                        role.as_str().to_string(),
                    ),
                    args: args.iter().map(|t| alloc.lower(t)).collect(),
                },
                Atom::Appointment { issuer, name, args } => PlanStep::Credential {
                    orig,
                    key: (
                        CredentialKind::Appointment,
                        issuer.clone().unwrap_or_else(|| self_service.clone()),
                        name.clone(),
                    ),
                    args: args.iter().map(|t| alloc.lower(t)).collect(),
                },
                Atom::EnvFact {
                    relation,
                    args,
                    negated,
                } => PlanStep::Fact {
                    orig,
                    relation: relation.clone(),
                    args: args.iter().map(|t| alloc.lower(t)).collect(),
                    negated: *negated,
                },
                Atom::EnvCompare { left, op, right } => PlanStep::Compare {
                    orig,
                    left: alloc.lower(left),
                    op: *op,
                    right: alloc.lower(right),
                },
                Atom::EnvPredicate { name, args } => PlanStep::Predicate {
                    orig,
                    name: name.clone(),
                    args: args.iter().map(|t| alloc.lower(t)).collect(),
                },
            });
        }

        let ambient: Vec<(usize, AmbientKey)> = alloc
            .names
            .iter()
            .enumerate()
            .filter_map(|(slot, name)| {
                let key = name.0.strip_prefix('$')?;
                Some((
                    slot,
                    if key == "now" {
                        AmbientKey::Now
                    } else {
                        AmbientKey::Named(key.to_string())
                    },
                ))
            })
            .collect();
        let ambient_slots: HashSet<usize> = ambient.iter().map(|(s, _)| *s).collect();

        // Reorder: generators stay in source order; each test is anchored
        // just after the last earlier generator that can bind a slot it
        // reads (or up front when only head/ambient slots are read).
        // Between that generator and the test's source position no step
        // can change the slots the test reads, so its outcome — and hence
        // the set of surviving branches and the first solution found — is
        // identical at either position.
        let mut always_fail = false;
        let mut generators: Vec<PlanStep> = Vec::new();
        // slot → ordinal (1-based) of the last generator writing it.
        let mut last_writer: HashMap<usize, usize> = HashMap::new();
        // anchored[g] = tests to run right after generator ordinal g
        // (g = 0 → before any generator).
        let mut anchored: Vec<Vec<PlanStep>> = vec![Vec::new()];
        for step in lowered {
            if step.is_generator() {
                for slot in step.slot_args() {
                    last_writer.insert(slot, generators.len() + 1);
                }
                generators.push(step);
                anchored.push(Vec::new());
                continue;
            }
            // Constant folding for comparisons.
            if let PlanStep::Compare {
                left: PlanTerm::Const(l),
                op,
                right: PlanTerm::Const(r),
                ..
            } = &step
            {
                if op.eval(l, r) {
                    continue; // tautology: drop the step
                }
                always_fail = true;
                break;
            }
            if step.has_unresolvable_ignore() {
                always_fail = true;
                break;
            }
            let reads = step.slot_args();
            // A read slot no head seed, ambient fill, or earlier
            // generator can ever bind makes the test — and the rule —
            // unsatisfiable, exactly as `solve` fails when it reaches
            // the unresolvable atom.
            if reads.iter().any(|s| {
                !head_slots.contains(s)
                    && !ambient_slots.contains(s)
                    && !last_writer.contains_key(s)
            }) {
                always_fail = true;
                break;
            }
            let anchor = reads
                .iter()
                .filter_map(|s| last_writer.get(s).copied())
                .max()
                .unwrap_or(0);
            anchored[anchor].push(step);
        }

        let mut steps: Vec<PlanStep> = Vec::new();
        if !always_fail {
            anchored[0].sort_by_key(|s| (s.cost(), s.orig()));
            steps.append(&mut anchored[0]);
            for (i, generator) in generators.into_iter().enumerate() {
                steps.push(generator);
                anchored[i + 1].sort_by_key(|s| (s.cost(), s.orig()));
                steps.append(&mut anchored[i + 1]);
            }
        }
        let reordered = steps.windows(2).any(|w| w[0].orig() > w[1].orig());

        let ground = steps
            .iter()
            .flat_map(|s| s.slot_args())
            .all(|s| head_slots.contains(&s) || ambient_slots.contains(&s));
        let time_sensitive = !ambient.is_empty()
            || steps
                .iter()
                .any(|s| matches!(s, PlanStep::Compare { .. } | PlanStep::Predicate { .. }));

        Self {
            head,
            steps,
            slot_names: alloc.names,
            ambient,
            always_fail,
            ground,
            time_sensitive,
            reordered,
        }
    }

    /// Whether compilation proved the body unsatisfiable.
    pub fn is_always_fail(&self) -> bool {
        self.always_fail
    }

    /// Whether the body qualifies for the fully-ground fast path.
    pub fn is_ground(&self) -> bool {
        self.ground
    }

    /// Whether the compiled order differs from the source order.
    pub fn was_reordered(&self) -> bool {
        self.reordered
    }

    /// Whether the outcome can change without a fact changing (clock,
    /// ambient values, custom predicates).
    pub fn is_time_sensitive(&self) -> bool {
        self.time_sensitive
    }

    /// Evaluates the plan for a request `head(args)`. Returns the same
    /// first [`Solution`] the interpreted engine finds: head unification
    /// failure, an ambient conflict, or an unsatisfiable body all yield
    /// `None`.
    pub fn eval(
        &self,
        args: &[Value],
        creds: &CredIndex<'_>,
        facts: &FactStore<Value>,
        ctx: &EnvContext,
    ) -> Option<Solution> {
        if self.always_fail || args.len() != self.head.len() {
            return None;
        }
        let mut slots: Vec<Option<Value>> = vec![None; self.slot_names.len()];
        for (term, value) in self.head.iter().zip(args) {
            match term {
                PlanTerm::Ignore => {}
                PlanTerm::Const(c) => {
                    if c != value {
                        return None;
                    }
                }
                PlanTerm::Slot(s) => match &slots[*s] {
                    Some(bound) if bound != value => return None,
                    _ => slots[*s] = Some(value.clone()),
                },
            }
        }
        for (slot, key) in &self.ambient {
            let value = match key {
                AmbientKey::Now => Value::Time(ctx.now()),
                AmbientKey::Named(name) => match ctx.ambient(name) {
                    Some(v) => v.clone(),
                    None => continue, // stays an ordinary free variable
                },
            };
            match &slots[*slot] {
                Some(bound) if *bound != value => return None,
                _ => slots[*slot] = Some(value),
            }
        }

        let mut used: Vec<(usize, Crr)> = Vec::new();
        let satisfied = if self.ground && slots.iter().all(Option::is_some) {
            self.eval_ground(&slots, &mut used, creds, facts, ctx)
        } else {
            let eval = Evaluator {
                plan: self,
                creds,
                facts,
                ctx,
            };
            let mut trail: Vec<usize> = Vec::new();
            eval.solve(0, &mut slots, &mut trail, &mut used)
        };
        satisfied.then(|| self.solution(&slots, used, ctx))
    }

    /// Linear evaluation for a body whose every slot is already bound:
    /// each step is a pure membership check; nothing binds, so nothing
    /// backtracks.
    fn eval_ground(
        &self,
        slots: &[Option<Value>],
        used: &mut Vec<(usize, Crr)>,
        creds: &CredIndex<'_>,
        facts: &FactStore<Value>,
        ctx: &EnvContext,
    ) -> bool {
        for step in &self.steps {
            match step {
                PlanStep::Credential { orig, key, args } => {
                    let first = args.first().and_then(|t| resolve(slots, t));
                    let found = creds
                        .candidates(key, first)
                        .iter()
                        .map(|&i| &creds.creds[i as usize])
                        .find(|c| {
                            c.args().len() == args.len()
                                && args
                                    .iter()
                                    .zip(c.args())
                                    .all(|(t, v)| resolve(slots, t).is_none_or(|r| r == v))
                        });
                    match found {
                        Some(cred) => used.push((*orig, cred.crr().clone())),
                        None => return false,
                    }
                }
                PlanStep::Fact {
                    relation,
                    args,
                    negated,
                    ..
                } => {
                    let pattern: Vec<Option<Value>> =
                        args.iter().map(|t| resolve(slots, t).cloned()).collect();
                    if *negated {
                        let Some(tuple) = pattern.into_iter().collect::<Option<Vec<Value>>>()
                        else {
                            return false;
                        };
                        if !matches!(facts.contains(relation, &tuple), Ok(false)) {
                            return false;
                        }
                    } else if !matches!(facts.exists(relation, &pattern), Ok(true)) {
                        return false;
                    }
                }
                PlanStep::Compare {
                    left, op, right, ..
                } => {
                    let (Some(l), Some(r)) = (resolve(slots, left), resolve(slots, right)) else {
                        return false;
                    };
                    if !op.eval(l, r) {
                        return false;
                    }
                }
                PlanStep::Predicate { name, args, .. } => {
                    let Some(values) = args
                        .iter()
                        .map(|t| resolve(slots, t).cloned())
                        .collect::<Option<Vec<Value>>>()
                    else {
                        return false;
                    };
                    if !ctx.eval_predicate(name, &values) {
                        return false;
                    }
                }
            }
        }
        used.sort_by_key(|(i, _)| *i);
        true
    }

    /// Reconstructs the `solve`-shaped [`Solution`]: `$now`, every
    /// ambient pair, and every bound slot, with credential uses in
    /// source-condition order.
    fn solution(
        &self,
        slots: &[Option<Value>],
        mut used: Vec<(usize, Crr)>,
        ctx: &EnvContext,
    ) -> Solution {
        used.sort_by_key(|(i, _)| *i);
        let mut bindings = Bindings::new();
        bindings.bind(VarName::new("$now"), Value::Time(ctx.now()));
        for (key, value) in ctx.ambient_iter() {
            bindings.bind(VarName::new(format!("${key}")), value.clone());
        }
        for (name, slot) in self.slot_names.iter().zip(slots) {
            if let Some(value) = slot {
                bindings.bind(name.clone(), value.clone());
            }
        }
        Solution { bindings, used }
    }
}

fn resolve<'s>(slots: &'s [Option<Value>], term: &'s PlanTerm) -> Option<&'s Value> {
    match term {
        PlanTerm::Const(v) => Some(v),
        PlanTerm::Slot(s) => slots[*s].as_ref(),
        PlanTerm::Ignore => None,
    }
}

fn unify(
    slots: &mut [Option<Value>],
    trail: &mut Vec<usize>,
    term: &PlanTerm,
    value: &Value,
) -> bool {
    match term {
        PlanTerm::Ignore => true,
        PlanTerm::Const(c) => c == value,
        PlanTerm::Slot(s) => match &slots[*s] {
            Some(bound) => bound == value,
            None => {
                slots[*s] = Some(value.clone());
                trail.push(*s);
                true
            }
        },
    }
}

fn undo(slots: &mut [Option<Value>], trail: &mut Vec<usize>, mark: usize) {
    for &s in &trail[mark..] {
        slots[s] = None;
    }
    trail.truncate(mark);
}

/// The backtracking evaluator over compiled steps: same search order as
/// `solve`, with trail-undo instead of substitution cloning.
struct Evaluator<'a> {
    plan: &'a RulePlan,
    creds: &'a CredIndex<'a>,
    facts: &'a FactStore<Value>,
    ctx: &'a EnvContext,
}

impl Evaluator<'_> {
    fn solve(
        &self,
        i: usize,
        slots: &mut Vec<Option<Value>>,
        trail: &mut Vec<usize>,
        used: &mut Vec<(usize, Crr)>,
    ) -> bool {
        let Some(step) = self.plan.steps.get(i) else {
            return true;
        };
        match step {
            PlanStep::Credential { orig, key, args } => {
                let candidates = {
                    let first = args.first().and_then(|t| resolve(slots, t));
                    self.creds.candidates(key, first)
                };
                for &ci in candidates {
                    let cred = &self.creds.creds[ci as usize];
                    let cred_args = cred.args();
                    if cred_args.len() != args.len() {
                        continue;
                    }
                    let mark = trail.len();
                    let mut matched = true;
                    for (t, v) in args.iter().zip(cred_args) {
                        if !unify(slots, trail, t, v) {
                            matched = false;
                            break;
                        }
                    }
                    if matched {
                        used.push((*orig, cred.crr().clone()));
                        if self.solve(i + 1, slots, trail, used) {
                            return true;
                        }
                        used.pop();
                    }
                    undo(slots, trail, mark);
                }
                false
            }
            PlanStep::Fact {
                relation,
                args,
                negated,
                ..
            } => {
                if *negated {
                    let Some(tuple) = args
                        .iter()
                        .map(|t| resolve(slots, t).cloned())
                        .collect::<Option<Vec<Value>>>()
                    else {
                        return false;
                    };
                    return matches!(self.facts.contains(relation, &tuple), Ok(false))
                        && self.solve(i + 1, slots, trail, used);
                }
                let mut unbound_slot = false;
                let pattern: Vec<Option<Value>> = args
                    .iter()
                    .map(|t| {
                        let v = resolve(slots, t).cloned();
                        if v.is_none() && matches!(t, PlanTerm::Slot(_)) {
                            unbound_slot = true;
                        }
                        v
                    })
                    .collect();
                if !unbound_slot {
                    // Only wildcards (if anything) are open: existence is
                    // enough, and every matching row leaves the slots
                    // identical, so one recursion decides for all rows.
                    return matches!(self.facts.exists(relation, &pattern), Ok(true))
                        && self.solve(i + 1, slots, trail, used);
                }
                let Ok(rows) = self.facts.query(relation, &pattern) else {
                    return false;
                };
                for row in rows {
                    let mark = trail.len();
                    let mut matched = true;
                    for (t, v) in args.iter().zip(&row) {
                        if !unify(slots, trail, t, v) {
                            matched = false;
                            break;
                        }
                    }
                    if matched && self.solve(i + 1, slots, trail, used) {
                        return true;
                    }
                    undo(slots, trail, mark);
                }
                false
            }
            PlanStep::Compare {
                left, op, right, ..
            } => {
                let ok = match (resolve(slots, left), resolve(slots, right)) {
                    (Some(l), Some(r)) => op.eval(l, r),
                    _ => false,
                };
                ok && self.solve(i + 1, slots, trail, used)
            }
            PlanStep::Predicate { name, args, .. } => {
                let Some(values) = args
                    .iter()
                    .map(|t| resolve(slots, t).cloned())
                    .collect::<Option<Vec<Value>>>()
                else {
                    return false;
                };
                self.ctx.eval_predicate(name, &values) && self.solve(i + 1, slots, trail, used)
            }
        }
    }
}

/// Counts of compiled plans by compile-time property, from
/// [`plan_stats`](../service/struct.OasisService.html#method.plan_stats).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanStats {
    /// Plans compiled (activation + invocation).
    pub total: usize,
    /// Plans proved unsatisfiable at compile time.
    pub always_fail: usize,
    /// Plans eligible for the fully-ground fast path.
    pub ground: usize,
    /// Plans whose step order differs from the source order.
    pub reordered: usize,
    /// Plans whose outcome can change without a fact change.
    pub time_sensitive: usize,
}

impl PlanStats {
    /// Folds one plan's properties into the counters.
    pub fn absorb(&mut self, plan: &RulePlan) {
        self.total += 1;
        self.always_fail += usize::from(plan.is_always_fail());
        self.ground += usize::from(plan.is_ground());
        self.reordered += usize::from(plan.was_reordered());
        self.time_sensitive += usize::from(plan.is_time_sensitive());
    }

    /// Compact single-line JSON, keys sorted (rendered by the shared
    /// `oasis-obs` canonical encoder).
    pub fn trace_json(&self) -> String {
        oasis_obs::kv_json(&[
            ("always_fail", self.always_fail.into()),
            ("ground", self.ground.into()),
            ("reordered", self.reordered.into()),
            ("time_sensitive", self.time_sensitive.into()),
            ("total", self.total.into()),
        ])
    }
}

/// A per-request index over the presented (validated) credentials:
/// buckets by `(kind, issuer, name)` with a first-argument discrimination
/// level. Built once per activation/invocation and shared by every rule
/// plan tried, where the reference solver scans the whole set per rule.
/// Bucket order preserves presentation order, so the first
/// candidate a plan tries is the first `solve` would accept.
pub struct CredIndex<'a> {
    creds: &'a [Credential],
    buckets: HashMap<CredKey, Bucket<'a>>,
}

#[derive(Default)]
struct Bucket<'a> {
    all: Vec<u32>,
    /// Credentials with ≥ 1 argument, keyed by their first argument.
    by_first: HashMap<&'a Value, Vec<u32>>,
}

impl<'a> CredIndex<'a> {
    /// Indexes a presented credential set.
    pub fn build(creds: &'a [Credential]) -> Self {
        let mut buckets: HashMap<CredKey, Bucket<'a>> = HashMap::new();
        for (i, cred) in creds.iter().enumerate() {
            let key = (cred.kind(), cred.issuer().clone(), cred.name().to_string());
            let bucket = buckets.entry(key).or_default();
            bucket.all.push(i as u32);
            if let Some(first) = cred.args().first() {
                bucket.by_first.entry(first).or_default().push(i as u32);
            }
        }
        Self { creds, buckets }
    }

    /// Number of indexed credentials.
    pub fn len(&self) -> usize {
        self.creds.len()
    }

    /// Whether the presented set is empty.
    pub fn is_empty(&self) -> bool {
        self.creds.is_empty()
    }

    /// Candidate credential positions for a key, discriminated by the
    /// resolved first argument when available.
    fn candidates(&self, key: &CredKey, first: Option<&Value>) -> &[u32] {
        match self.buckets.get(key) {
            None => &[],
            Some(bucket) => match first {
                Some(value) => bucket.by_first.get(value).map(Vec::as_slice).unwrap_or(&[]),
                None => &bucket.all,
            },
        }
    }
}

/// A compiled membership re-check: the retained (substituted) conditions
/// of one issued certificate, compiled once at issuance instead of
/// re-interpreted on every [`recheck_memberships`] sweep.
///
/// [`recheck_memberships`]: crate::service::OasisService::recheck_memberships
#[derive(Debug, Clone)]
pub struct CheckPlan {
    atoms: Vec<Atom>,
    plan: RulePlan,
}

impl CheckPlan {
    /// Compiles a retained-condition set (no head: retained atoms are
    /// ground up to `$`-variables and wildcards).
    pub fn compile(self_service: &ServiceId, atoms: Vec<Atom>) -> Self {
        let plan = RulePlan::compile(self_service, &[], &atoms);
        Self { atoms, plan }
    }

    /// The source atoms (the durable representation in snapshots and the
    /// journal — plans are never serialised).
    pub fn atoms(&self) -> &[Atom] {
        &self.atoms
    }

    /// Whether the checks read the clock, ambient values, or predicates.
    /// Fact-only checks cannot change while the fact epoch stands still.
    pub fn is_time_sensitive(&self) -> bool {
        self.plan.is_time_sensitive()
    }

    /// Evaluates the retained checks. `creds` is normally an empty index
    /// (credential dependencies are tracked by CRR, not re-checked here).
    pub fn eval(&self, creds: &CredIndex<'_>, facts: &FactStore<Value>, ctx: &EnvContext) -> bool {
        self.plan.eval(&[], creds, facts, ctx).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cert::Rmc;
    use crate::ids::{CertId, PrincipalId, RoleName};
    use crate::rule::solve;
    use oasis_crypto::{IssuerSecret, SecretEpoch};

    fn svc() -> ServiceId {
        ServiceId::new("svc")
    }

    fn rmc(issuer: &str, id: u64, role: &str, args: Vec<Value>) -> Credential {
        let secret = IssuerSecret::random();
        Credential::Rmc(Rmc::issue(
            &secret.current(),
            SecretEpoch(0),
            &PrincipalId::new("p"),
            Crr::new(ServiceId::new(issuer), CertId(id)),
            RoleName::new(role),
            args,
            0,
            None,
        ))
    }

    fn facts() -> FactStore<Value> {
        let f = FactStore::new();
        f.define("registered", 2).unwrap();
        f
    }

    /// Both engines on the same inputs must agree exactly.
    fn assert_parity(
        head: &[Term],
        conditions: &[Atom],
        args: &[Value],
        creds: &[Credential],
        facts: &FactStore<Value>,
        ctx: &EnvContext,
    ) -> bool {
        let interpreted = {
            let mut seed = Bindings::new();
            if seed.unify_all(head, args) {
                solve(&svc(), conditions, seed, creds, facts, ctx)
            } else {
                None
            }
        };
        let plan = RulePlan::compile(&svc(), head, conditions);
        let index = CredIndex::build(creds);
        let compiled = plan.eval(args, &index, facts, ctx);
        assert_eq!(interpreted, compiled, "plan disagrees with solve");
        compiled.is_some()
    }

    #[test]
    fn ground_fast_path_matches_solve() {
        let f = facts();
        f.insert("registered", vec![Value::id("d1"), Value::id("p1")])
            .unwrap();
        let head = [Term::var("D"), Term::var("P")];
        let conds = [
            Atom::env_fact("registered", vec![Term::var("D"), Term::var("P")]),
            Atom::prereq("doctor", vec![Term::var("D")]),
        ];
        let creds = [rmc("svc", 1, "doctor", vec![Value::id("d1")])];
        let plan = RulePlan::compile(&svc(), &head, &conds);
        assert!(plan.is_ground());
        assert!(assert_parity(
            &head,
            &conds,
            &[Value::id("d1"), Value::id("p1")],
            &creds,
            &f,
            &EnvContext::new(0),
        ));
        assert!(!assert_parity(
            &head,
            &conds,
            &[Value::id("d2"), Value::id("p1")],
            &creds,
            &f,
            &EnvContext::new(0),
        ));
    }

    #[test]
    fn reordering_hoists_tests_before_credential_joins() {
        let conds = [
            Atom::prereq("doctor", vec![Term::var("D")]),
            Atom::compare(Term::var("$now"), CmpOp::Lt, Term::val(Value::Time(100))),
        ];
        let plan = RulePlan::compile(&svc(), &[], &conds);
        assert!(
            plan.was_reordered(),
            "ambient compare should hoist to front"
        );
        let creds = [rmc("svc", 1, "doctor", vec![Value::id("d1")])];
        assert!(assert_parity(
            &[],
            &conds,
            &[],
            &creds,
            &facts(),
            &EnvContext::new(50)
        ));
        assert!(!assert_parity(
            &[],
            &conds,
            &[],
            &creds,
            &facts(),
            &EnvContext::new(150)
        ));
    }

    #[test]
    fn test_reading_generator_output_is_not_hoisted_past_it() {
        let f = facts();
        f.insert("registered", vec![Value::id("d1"), Value::id("p1")])
            .unwrap();
        f.insert("registered", vec![Value::id("d2"), Value::id("p2")])
            .unwrap();
        let conds = [
            Atom::env_fact("registered", vec![Term::var("D"), Term::var("P")]),
            Atom::compare(Term::var("P"), CmpOp::Eq, Term::val(Value::id("p2"))),
        ];
        let plan = RulePlan::compile(&svc(), &[], &conds);
        assert!(!plan.was_reordered());
        assert!(assert_parity(
            &[],
            &conds,
            &[],
            &[],
            &f,
            &EnvContext::new(0)
        ));
    }

    #[test]
    fn constant_folding() {
        let tautology = [Atom::compare(
            Term::val(Value::Int(1)),
            CmpOp::Lt,
            Term::val(Value::Int(2)),
        )];
        let plan = RulePlan::compile(&svc(), &[], &tautology);
        assert!(!plan.is_always_fail());
        assert!(assert_parity(
            &[],
            &tautology,
            &[],
            &[],
            &facts(),
            &EnvContext::new(0)
        ));

        let contradiction = [Atom::compare(
            Term::val(Value::Int(2)),
            CmpOp::Lt,
            Term::val(Value::Int(1)),
        )];
        let plan = RulePlan::compile(&svc(), &[], &contradiction);
        assert!(plan.is_always_fail());
        assert!(!assert_parity(
            &[],
            &contradiction,
            &[],
            &[],
            &facts(),
            &EnvContext::new(0)
        ));
    }

    #[test]
    fn unboundable_test_compiles_to_always_fail() {
        // X is never bound by head, ambient, or any generator.
        let conds = [Atom::compare(
            Term::var("X"),
            CmpOp::Eq,
            Term::val(Value::Int(1)),
        )];
        let plan = RulePlan::compile(&svc(), &[], &conds);
        assert!(plan.is_always_fail());
        assert!(!assert_parity(
            &[],
            &conds,
            &[],
            &[],
            &facts(),
            &EnvContext::new(0)
        ));
    }

    #[test]
    fn ambient_slot_is_not_always_fail() {
        // $host may be supplied by the context at run time.
        let conds = [Atom::compare(
            Term::var("$host"),
            CmpOp::Eq,
            Term::val(Value::id("ward-3")),
        )];
        let plan = RulePlan::compile(&svc(), &[], &conds);
        assert!(!plan.is_always_fail());
        let with = EnvContext::new(0).with_ambient("host", Value::id("ward-3"));
        assert!(assert_parity(&[], &conds, &[], &[], &facts(), &with));
        let without = EnvContext::new(0);
        assert!(!assert_parity(&[], &conds, &[], &[], &facts(), &without));
    }

    #[test]
    fn credential_backtracking_picks_same_first_solution() {
        let creds = [
            rmc("svc", 1, "on_duty", vec![Value::id("dA")]),
            rmc("svc", 2, "on_duty", vec![Value::id("dB")]),
            rmc("svc", 3, "assigned", vec![Value::id("dB"), Value::id("p")]),
        ];
        let conds = [
            Atom::prereq("on_duty", vec![Term::var("D")]),
            Atom::prereq("assigned", vec![Term::var("D"), Term::Wildcard]),
        ];
        assert!(assert_parity(
            &[],
            &conds,
            &[],
            &creds,
            &facts(),
            &EnvContext::new(0)
        ));
    }

    #[test]
    fn head_conflicts_and_arity_mismatches_fail() {
        let head = [Term::var("X"), Term::var("X")];
        let conds: [Atom; 0] = [];
        assert!(!assert_parity(
            &head,
            &conds,
            &[Value::Int(1), Value::Int(2)],
            &[],
            &facts(),
            &EnvContext::new(0),
        ));
        assert!(!assert_parity(
            &head,
            &conds,
            &[Value::Int(1)],
            &[],
            &facts(),
            &EnvContext::new(0),
        ));
        assert!(assert_parity(
            &head,
            &conds,
            &[Value::Int(1), Value::Int(1)],
            &[],
            &facts(),
            &EnvContext::new(0),
        ));
    }

    #[test]
    fn check_plan_time_sensitivity() {
        let sid = svc();
        let fact_only = CheckPlan::compile(
            &sid,
            vec![Atom::env_fact(
                "registered",
                vec![Term::val(Value::id("a")), Term::val(Value::id("b"))],
            )],
        );
        assert!(!fact_only.is_time_sensitive());
        let timed = CheckPlan::compile(
            &sid,
            vec![Atom::compare(
                Term::var("$now"),
                CmpOp::Lt,
                Term::val(Value::Time(9)),
            )],
        );
        assert!(timed.is_time_sensitive());
    }

    #[test]
    fn cred_index_discriminates_on_first_argument() {
        let creds = [
            rmc("svc", 1, "r", vec![Value::id("a")]),
            rmc("svc", 2, "r", vec![Value::id("b")]),
            rmc("svc", 3, "r", vec![Value::id("a")]),
        ];
        let index = CredIndex::build(&creds);
        let key = (CredentialKind::Rmc, svc(), "r".to_string());
        assert_eq!(index.candidates(&key, Some(&Value::id("a"))), &[0, 2]);
        assert_eq!(index.candidates(&key, Some(&Value::id("b"))), &[1]);
        assert_eq!(index.candidates(&key, None), &[0, 1, 2]);
        assert!(index
            .candidates(&(CredentialKind::Appointment, svc(), "r".to_string()), None)
            .is_empty());
    }
}
