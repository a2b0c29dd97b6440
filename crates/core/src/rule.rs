//! Activation and invocation rules in Horn-clause form, with the
//! resolution engine that evaluates them.
//!
//! "Activation of any role in OASIS is explicitly controlled by a role
//! activation rule. A role activation rule specifies, in Horn clause
//! logic, the conditions that a user must meet in order to activate the
//! role. The conditions may include prerequisite roles, appointment
//! credentials and environmental constraints." (Sect. 2)
//!
//! A rule's **membership rule** is the subset of its conditions that must
//! *remain* true while the role is active; it is expressed here as the
//! indices of the retained conditions.
//!
//! [`solve`] defines what a rule means, as a left-to-right backtracking
//! search: credential atoms choose among the presented (already validated)
//! certificates, fact atoms enumerate matching tuples from the service's
//! fact store (binding free variables), and comparisons/predicates test
//! fully-resolved values. The reserved variable `$now` is pre-bound to the
//! evaluation time, and each ambient value `k` of the [`EnvContext`] is
//! pre-bound as `$k`.
//!
//! `solve` is the *reference*, not the engine: a service never calls it.
//! Every activation, invocation and membership re-check evaluates the
//! [`RulePlan`](crate::plan::RulePlan) compiled from the rule when it was
//! installed, and the differential suites (`tests/plan_parity.rs`,
//! `tests/prop_core.rs`, the unit tests of [`plan`](crate::plan)) hold
//! those plans to `solve`'s answer on every input.

use std::fmt;

use oasis_facts::FactStore;

use crate::cert::{Credential, CredentialKind, Crr};
use crate::env::{CmpOp, EnvContext};
use crate::error::OasisError;
use crate::ids::{RoleName, ServiceId};
use crate::pattern::{Bindings, Term, VarName};
use crate::value::Value;

/// Identifies a rule within one service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RuleId(pub u64);

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rule-{}", self.0)
    }
}

/// One condition of a rule body.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Atom {
    /// The principal must hold an RMC for `role` issued by `service`
    /// (`None` = the service defining the rule).
    Prereq {
        /// Issuing service, or `None` for the defining service.
        service: Option<ServiceId>,
        /// Required role name.
        role: RoleName,
        /// Argument terms unified against the RMC's parameters.
        args: Vec<Term>,
    },
    /// The principal must hold an appointment certificate `name` issued by
    /// `issuer` (`None` = the defining service).
    Appointment {
        /// Issuing service, or `None` for the defining service.
        issuer: Option<ServiceId>,
        /// Appointment kind, e.g. `employed_as_doctor`.
        name: String,
        /// Argument terms unified against the certificate's parameters.
        args: Vec<Term>,
    },
    /// `relation(args)` must hold (or must not, when `negated`) in the
    /// service's fact store. Positive atoms may bind free variables;
    /// negated atoms must be fully bound when reached.
    EnvFact {
        /// Fact-store relation name.
        relation: String,
        /// Argument terms.
        args: Vec<Term>,
        /// Negation-as-failure.
        negated: bool,
    },
    /// A comparison between two resolved terms.
    EnvCompare {
        /// Left operand.
        left: Term,
        /// Operator.
        op: CmpOp,
        /// Right operand.
        right: Term,
    },
    /// A named custom predicate registered on the [`EnvContext`].
    EnvPredicate {
        /// Predicate name.
        name: String,
        /// Argument terms (must be fully bound when reached).
        args: Vec<Term>,
    },
}

impl Atom {
    /// Prerequisite role at the defining service.
    pub fn prereq(role: impl Into<RoleName>, args: Vec<Term>) -> Self {
        Atom::Prereq {
            service: None,
            role: role.into(),
            args,
        }
    }

    /// Prerequisite role at another service.
    pub fn prereq_at(
        service: impl Into<ServiceId>,
        role: impl Into<RoleName>,
        args: Vec<Term>,
    ) -> Self {
        Atom::Prereq {
            service: Some(service.into()),
            role: role.into(),
            args,
        }
    }

    /// Appointment certificate issued by the defining service.
    pub fn appointment(name: impl Into<String>, args: Vec<Term>) -> Self {
        Atom::Appointment {
            issuer: None,
            name: name.into(),
            args,
        }
    }

    /// Appointment certificate issued by another service.
    pub fn appointment_from(
        issuer: impl Into<ServiceId>,
        name: impl Into<String>,
        args: Vec<Term>,
    ) -> Self {
        Atom::Appointment {
            issuer: Some(issuer.into()),
            name: name.into(),
            args,
        }
    }

    /// Positive fact lookup.
    pub fn env_fact(relation: impl Into<String>, args: Vec<Term>) -> Self {
        Atom::EnvFact {
            relation: relation.into(),
            args,
            negated: false,
        }
    }

    /// Negated fact lookup (the tuple must be absent).
    pub fn env_not_fact(relation: impl Into<String>, args: Vec<Term>) -> Self {
        Atom::EnvFact {
            relation: relation.into(),
            args,
            negated: true,
        }
    }

    /// Comparison condition.
    pub fn compare(left: Term, op: CmpOp, right: Term) -> Self {
        Atom::EnvCompare { left, op, right }
    }

    /// Custom predicate condition.
    pub fn predicate(name: impl Into<String>, args: Vec<Term>) -> Self {
        Atom::EnvPredicate {
            name: name.into(),
            args,
        }
    }

    /// Whether this atom consumes a credential (prerequisite role or
    /// appointment certificate).
    pub fn is_credential(&self) -> bool {
        matches!(self, Atom::Prereq { .. } | Atom::Appointment { .. })
    }

    /// Whether this atom is specifically a *prerequisite role* condition
    /// (the kind whose absence makes a role *initial*, Sect. 2 — an
    /// appointment certificate is not a prerequisite role).
    pub fn is_credential_prereq(&self) -> bool {
        matches!(self, Atom::Prereq { .. })
    }
}

fn fmt_args(f: &mut fmt::Formatter<'_>, args: &[Term]) -> fmt::Result {
    write!(f, "(")?;
    for (i, a) in args.iter().enumerate() {
        if i > 0 {
            write!(f, ", ")?;
        }
        write!(f, "{a}")?;
    }
    write!(f, ")")
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Atom::Prereq {
                service,
                role,
                args,
            } => {
                write!(f, "prereq ")?;
                if let Some(s) = service {
                    write!(f, "{s}.")?;
                }
                write!(f, "{role}")?;
                fmt_args(f, args)
            }
            Atom::Appointment { issuer, name, args } => {
                write!(f, "appointment ")?;
                if let Some(s) = issuer {
                    write!(f, "{s}.")?;
                }
                write!(f, "{name}")?;
                fmt_args(f, args)
            }
            Atom::EnvFact {
                relation,
                args,
                negated,
            } => {
                write!(f, "env ")?;
                if *negated {
                    write!(f, "not ")?;
                }
                write!(f, "{relation}")?;
                fmt_args(f, args)
            }
            Atom::EnvCompare { left, op, right } => write!(f, "env {left} {op} {right}"),
            Atom::EnvPredicate { name, args } => {
                write!(f, "env ?{name}")?;
                fmt_args(f, args)
            }
        }
    }
}

/// A role activation rule: `role(head_args) ← conditions`, with the
/// membership rule given as the indices of the retained conditions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActivationRule {
    /// Rule identifier, unique within the defining service.
    pub id: RuleId,
    /// The role this rule activates.
    pub role: RoleName,
    /// Head argument terms, unified with the requested parameters.
    pub head_args: Vec<Term>,
    /// Horn-clause body.
    pub conditions: Vec<Atom>,
    /// Indices into `conditions` that must remain true while the role is
    /// active (the membership rule of Sect. 2).
    pub membership: Vec<usize>,
}

impl ActivationRule {
    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// [`OasisError::BadMembershipIndex`] if a membership index is out of
    /// range.
    pub fn validate(&self) -> Result<(), OasisError> {
        for &idx in &self.membership {
            if idx >= self.conditions.len() {
                return Err(OasisError::BadMembershipIndex {
                    rule: self.id,
                    index: idx,
                    conditions: self.conditions.len(),
                });
            }
        }
        Ok(())
    }
}

impl fmt::Display for ActivationRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.role)?;
        fmt_args(f, &self.head_args)?;
        write!(f, " <- ")?;
        for (i, c) in self.conditions.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

/// A service-use rule: the conditions for invoking `method(head_args)`
/// (paths 3–4 of Fig 2). Invocations are instantaneous, so there is no
/// membership component.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvocationRule {
    /// Rule identifier, unique within the defining service.
    pub id: RuleId,
    /// Method name this rule authorises.
    pub method: String,
    /// Head argument terms, unified with the invocation arguments.
    pub head_args: Vec<Term>,
    /// Horn-clause body.
    pub conditions: Vec<Atom>,
}

impl fmt::Display for InvocationRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invoke {}", self.method)?;
        fmt_args(f, &self.head_args)?;
        write!(f, " <- ")?;
        for (i, c) in self.conditions.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

/// A successful rule evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Solution {
    /// The final substitution.
    pub bindings: Bindings,
    /// Which presented credential satisfied each credential condition:
    /// `(condition index, credential CRR)`.
    pub used: Vec<(usize, Crr)>,
}

/// Evaluates a rule body against presented credentials, the fact store,
/// and the environment. Returns the first solution found, or `None`.
///
/// `self_service` resolves the implicit issuer of local atoms. The
/// credentials in `creds` must already have been *validated* (signature
/// checked against the presenting principal, issuer callback performed) —
/// [`solve`] is pure logic and does no cryptography.
pub fn solve(
    self_service: &ServiceId,
    conditions: &[Atom],
    seed: Bindings,
    creds: &[Credential],
    facts: &FactStore<Value>,
    ctx: &EnvContext,
) -> Option<Solution> {
    let mut seeded = seed;
    // Reserved ambient bindings: $now plus $k for each ambient value, so
    // they resolve in every atom kind (credential args, facts, compares,
    // predicates alike).
    if !seeded.bind(VarName::new("$now"), Value::Time(ctx.now())) {
        return None;
    }
    for (key, value) in ctx.ambient_iter() {
        if !seeded.bind(VarName::new(format!("${key}")), value.clone()) {
            return None;
        }
    }
    let mut step = SolveState {
        self_service,
        conditions,
        creds,
        facts,
        ctx,
    };
    // Ambient values; sorted for determinism.
    let mut used = Vec::new();
    step.solve_from(0, &mut seeded, &mut used)
        .then_some(Solution {
            bindings: seeded,
            used,
        })
}

struct SolveState<'a> {
    self_service: &'a ServiceId,
    conditions: &'a [Atom],
    creds: &'a [Credential],
    facts: &'a FactStore<Value>,
    ctx: &'a EnvContext,
}

impl SolveState<'_> {
    /// Attempts to satisfy conditions `idx..`, extending `bindings` and
    /// `used` in place. On failure both are restored to their state at
    /// entry.
    fn solve_from(
        &mut self,
        idx: usize,
        bindings: &mut Bindings,
        used: &mut Vec<(usize, Crr)>,
    ) -> bool {
        let Some(atom) = self.conditions.get(idx) else {
            return true; // all conditions satisfied
        };
        match atom {
            Atom::Prereq {
                service,
                role,
                args,
            } => self.solve_credential(
                idx,
                bindings,
                used,
                |cred| {
                    cred.kind() == CredentialKind::Rmc
                        && cred.name() == role.as_str()
                        && cred.issuer() == service.as_ref().unwrap_or(self.self_service)
                },
                args,
            ),
            Atom::Appointment { issuer, name, args } => self.solve_credential(
                idx,
                bindings,
                used,
                |cred| {
                    cred.kind() == CredentialKind::Appointment
                        && cred.name() == name
                        && cred.issuer() == issuer.as_ref().unwrap_or(self.self_service)
                },
                args,
            ),
            Atom::EnvFact {
                relation,
                args,
                negated,
            } => {
                if *negated {
                    // Negation as failure over fully bound tuples only.
                    let Some(tuple) = bindings.resolve_all(args) else {
                        return false;
                    };
                    match self.facts.contains(relation, &tuple) {
                        Ok(false) => self.solve_from(idx + 1, bindings, used),
                        _ => false,
                    }
                } else {
                    let pattern = bindings.resolve_pattern(args);
                    let Ok(rows) = self.facts.query(relation, &pattern) else {
                        return false;
                    };
                    for row in rows {
                        let snapshot = bindings.clone();
                        if bindings.unify_all(args, &row)
                            && self.solve_from(idx + 1, bindings, used)
                        {
                            return true;
                        }
                        *bindings = snapshot;
                    }
                    false
                }
            }
            Atom::EnvCompare { left, op, right } => {
                let (Some(l), Some(r)) = (bindings.resolve(left), bindings.resolve(right)) else {
                    return false;
                };
                op.eval(&l, &r) && self.solve_from(idx + 1, bindings, used)
            }
            Atom::EnvPredicate { name, args } => {
                let Some(values) = bindings.resolve_all(args) else {
                    return false;
                };
                self.ctx.eval_predicate(name, &values) && self.solve_from(idx + 1, bindings, used)
            }
        }
    }

    fn solve_credential(
        &mut self,
        idx: usize,
        bindings: &mut Bindings,
        used: &mut Vec<(usize, Crr)>,
        filter: impl Fn(&Credential) -> bool,
        args: &[Term],
    ) -> bool {
        for cred in self.creds.iter().filter(|c| filter(c)) {
            let snapshot = bindings.clone();
            if bindings.unify_all(args, cred.args()) {
                used.push((idx, cred.crr().clone()));
                if self.solve_from(idx + 1, bindings, used) {
                    return true;
                }
                used.pop();
            }
            *bindings = snapshot;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cert::Rmc;
    use crate::ids::{CertId, PrincipalId};
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

    fn appt(issuer: &str, id: u64, name: &str, args: Vec<Value>) -> Credential {
        let secret = IssuerSecret::random();
        Credential::Appointment(crate::cert::AppointmentCertificate::issue(
            &secret.current(),
            SecretEpoch(0),
            &PrincipalId::new("p"),
            Crr::new(ServiceId::new(issuer), CertId(id)),
            name.to_string(),
            args,
            0,
            None,
            None,
        ))
    }

    fn facts() -> FactStore<Value> {
        let f = FactStore::new();
        f.define("registered", 2).unwrap();
        f.define("excluded", 2).unwrap();
        f
    }

    #[test]
    fn empty_body_always_succeeds() {
        let sol = solve(
            &svc(),
            &[],
            Bindings::new(),
            &[],
            &facts(),
            &EnvContext::new(0),
        )
        .unwrap();
        assert!(sol.used.is_empty());
    }

    #[test]
    fn prereq_matches_local_rmc() {
        let cred = rmc("svc", 1, "doctor", vec![Value::id("d1")]);
        let sol = solve(
            &svc(),
            &[Atom::prereq("doctor", vec![Term::var("D")])],
            Bindings::new(),
            &[cred],
            &facts(),
            &EnvContext::new(0),
        )
        .unwrap();
        assert_eq!(sol.bindings.get_name("D"), Some(&Value::id("d1")));
        assert_eq!(sol.used.len(), 1);
        assert_eq!(sol.used[0].0, 0);
    }

    #[test]
    fn prereq_rejects_wrong_issuer() {
        let cred = rmc("other", 1, "doctor", vec![Value::id("d1")]);
        assert!(solve(
            &svc(),
            &[Atom::prereq("doctor", vec![Term::var("D")])],
            Bindings::new(),
            std::slice::from_ref(&cred),
            &facts(),
            &EnvContext::new(0),
        )
        .is_none());
        // But an explicit cross-service prereq accepts it.
        assert!(solve(
            &svc(),
            &[Atom::prereq_at("other", "doctor", vec![Term::var("D")])],
            Bindings::new(),
            &[cred],
            &facts(),
            &EnvContext::new(0),
        )
        .is_some());
    }

    #[test]
    fn appointment_vs_rmc_kinds_not_confused() {
        let cred = appt("svc", 1, "doctor", vec![]);
        assert!(
            solve(
                &svc(),
                &[Atom::prereq("doctor", vec![])],
                Bindings::new(),
                std::slice::from_ref(&cred),
                &facts(),
                &EnvContext::new(0),
            )
            .is_none(),
            "an appointment certificate must not satisfy a prereq atom"
        );
        assert!(solve(
            &svc(),
            &[Atom::appointment("doctor", vec![])],
            Bindings::new(),
            &[cred],
            &facts(),
            &EnvContext::new(0),
        )
        .is_some());
    }

    #[test]
    fn shared_variable_constrains_across_atoms() {
        // treating_doctor(D, P) needs on_duty(D) and assigned(D, P):
        // assignment for a different doctor must not match.
        let on_duty = rmc("svc", 1, "on_duty", vec![Value::id("d1")]);
        let assigned_wrong = appt("svc", 2, "assigned", vec![Value::id("d2"), Value::id("p1")]);
        let conditions = [
            Atom::prereq("on_duty", vec![Term::var("D")]),
            Atom::appointment("assigned", vec![Term::var("D"), Term::var("P")]),
        ];
        assert!(solve(
            &svc(),
            &conditions,
            Bindings::new(),
            &[on_duty.clone(), assigned_wrong],
            &facts(),
            &EnvContext::new(0),
        )
        .is_none());

        let assigned_right = appt("svc", 3, "assigned", vec![Value::id("d1"), Value::id("p1")]);
        let sol = solve(
            &svc(),
            &conditions,
            Bindings::new(),
            &[on_duty, assigned_right],
            &facts(),
            &EnvContext::new(0),
        )
        .unwrap();
        assert_eq!(sol.bindings.get_name("P"), Some(&Value::id("p1")));
        assert_eq!(sol.used.len(), 2);
    }

    #[test]
    fn backtracks_over_credential_choices() {
        // Two on_duty RMCs; only the second is consistent with the
        // assignment. The solver must backtrack.
        let duty_a = rmc("svc", 1, "on_duty", vec![Value::id("dA")]);
        let duty_b = rmc("svc", 2, "on_duty", vec![Value::id("dB")]);
        let assigned = appt("svc", 3, "assigned", vec![Value::id("dB"), Value::id("p")]);
        let sol = solve(
            &svc(),
            &[
                Atom::prereq("on_duty", vec![Term::var("D")]),
                Atom::appointment("assigned", vec![Term::var("D"), Term::Wildcard]),
            ],
            Bindings::new(),
            &[duty_a, duty_b, assigned],
            &facts(),
            &EnvContext::new(0),
        )
        .unwrap();
        assert_eq!(sol.bindings.get_name("D"), Some(&Value::id("dB")));
        assert_eq!(sol.used[0].1.cert_id, CertId(2));
    }

    #[test]
    fn fact_atom_binds_variables() {
        let f = facts();
        f.insert("registered", vec![Value::id("d1"), Value::id("p1")])
            .unwrap();
        f.insert("registered", vec![Value::id("d1"), Value::id("p2")])
            .unwrap();
        let sol = solve(
            &svc(),
            &[
                Atom::env_fact(
                    "registered",
                    vec![Term::val(Value::id("d1")), Term::var("P")],
                ),
                Atom::compare(Term::var("P"), CmpOp::Eq, Term::val(Value::id("p2"))),
            ],
            Bindings::new(),
            &[],
            &f,
            &EnvContext::new(0),
        )
        .unwrap();
        assert_eq!(
            sol.bindings.get_name("P"),
            Some(&Value::id("p2")),
            "solver must backtrack through fact rows"
        );
    }

    #[test]
    fn negated_fact_requires_absence() {
        let f = facts();
        f.insert("excluded", vec![Value::id("p1"), Value::id("d1")])
            .unwrap();
        let excluded = [Atom::env_not_fact(
            "excluded",
            vec![Term::val(Value::id("p1")), Term::val(Value::id("d1"))],
        )];
        assert!(solve(
            &svc(),
            &excluded,
            Bindings::new(),
            &[],
            &f,
            &EnvContext::new(0)
        )
        .is_none());
        let not_excluded = [Atom::env_not_fact(
            "excluded",
            vec![Term::val(Value::id("p1")), Term::val(Value::id("d2"))],
        )];
        assert!(solve(
            &svc(),
            &not_excluded,
            Bindings::new(),
            &[],
            &f,
            &EnvContext::new(0)
        )
        .is_some());
    }

    #[test]
    fn negated_fact_with_unbound_variable_fails_safely() {
        let f = facts();
        let body = [Atom::env_not_fact(
            "excluded",
            vec![Term::var("X"), Term::var("Y")],
        )];
        assert!(
            solve(&svc(), &body, Bindings::new(), &[], &f, &EnvContext::new(0)).is_none(),
            "unsafe negation must fail rather than succeed vacuously"
        );
    }

    #[test]
    fn now_variable_is_prebound() {
        let body = [Atom::compare(
            Term::var("$now"),
            CmpOp::Lt,
            Term::val(Value::Time(100)),
        )];
        assert!(solve(
            &svc(),
            &body,
            Bindings::new(),
            &[],
            &facts(),
            &EnvContext::new(50)
        )
        .is_some());
        assert!(solve(
            &svc(),
            &body,
            Bindings::new(),
            &[],
            &facts(),
            &EnvContext::new(150)
        )
        .is_none());
    }

    #[test]
    fn ambient_variable_resolves() {
        let ctx = EnvContext::new(0).with_ambient("host", Value::id("ward-3"));
        let body = [Atom::compare(
            Term::var("$host"),
            CmpOp::Eq,
            Term::val(Value::id("ward-3")),
        )];
        assert!(solve(&svc(), &body, Bindings::new(), &[], &facts(), &ctx).is_some());
        let body_bad = [Atom::compare(
            Term::var("$missing"),
            CmpOp::Eq,
            Term::val(Value::id("x")),
        )];
        assert!(solve(&svc(), &body_bad, Bindings::new(), &[], &facts(), &ctx).is_none());
    }

    #[test]
    fn predicate_atom_dispatches() {
        let ctx = EnvContext::new(0).with_predicate(
            "even",
            |args, _| matches!(args, [Value::Int(i)] if i % 2 == 0),
        );
        let ok = [Atom::predicate("even", vec![Term::val(Value::Int(4))])];
        assert!(solve(&svc(), &ok, Bindings::new(), &[], &facts(), &ctx).is_some());
        let bad = [Atom::predicate("even", vec![Term::val(Value::Int(3))])];
        assert!(solve(&svc(), &bad, Bindings::new(), &[], &facts(), &ctx).is_none());
        let unknown = [Atom::predicate("ghost", vec![])];
        assert!(solve(&svc(), &unknown, Bindings::new(), &[], &facts(), &ctx).is_none());
    }

    #[test]
    fn seed_bindings_constrain_solution() {
        let cred = rmc("svc", 1, "doctor", vec![Value::id("d1")]);
        let mut seed = Bindings::new();
        seed.bind(VarName::new("D"), Value::id("d2"));
        assert!(
            solve(
                &svc(),
                &[Atom::prereq("doctor", vec![Term::var("D")])],
                seed,
                &[cred],
                &facts(),
                &EnvContext::new(0),
            )
            .is_none(),
            "requested parameter d2 conflicts with credential d1"
        );
    }

    #[test]
    fn membership_index_validation() {
        let rule = ActivationRule {
            id: RuleId(1),
            role: RoleName::new("r"),
            head_args: vec![],
            conditions: vec![Atom::prereq("a", vec![])],
            membership: vec![1],
        };
        assert!(matches!(
            rule.validate(),
            Err(OasisError::BadMembershipIndex { index: 1, .. })
        ));
        let ok = ActivationRule {
            membership: vec![0],
            ..rule
        };
        assert!(ok.validate().is_ok());
    }

    #[test]
    fn atom_display_forms() {
        assert_eq!(
            Atom::prereq("doctor", vec![Term::var("D")]).to_string(),
            "prereq doctor(D)"
        );
        assert_eq!(
            Atom::appointment_from("admin", "employed", vec![]).to_string(),
            "appointment admin.employed()"
        );
        assert_eq!(
            Atom::env_not_fact("excluded", vec![Term::var("P"), Term::var("D")]).to_string(),
            "env not excluded(P, D)"
        );
        assert_eq!(
            Atom::compare(Term::var("X"), CmpOp::Le, Term::val(Value::Int(3))).to_string(),
            "env X <= 3"
        );
        assert_eq!(
            Atom::predicate("weekend", vec![]).to_string(),
            "env ?weekend()"
        );
    }

    #[test]
    fn multiple_identical_credentials_dont_duplicate_solutions() {
        // Using the same credential for two different atoms is allowed:
        // the paper places no linearity constraint on credentials.
        let cred = rmc("svc", 1, "doctor", vec![Value::id("d")]);
        let sol = solve(
            &svc(),
            &[
                Atom::prereq("doctor", vec![Term::var("D")]),
                Atom::prereq("doctor", vec![Term::var("D")]),
            ],
            Bindings::new(),
            &[cred],
            &facts(),
            &EnvContext::new(0),
        )
        .unwrap();
        assert_eq!(sol.used.len(), 2);
        assert_eq!(sol.used[0].1, sol.used[1].1);
    }
}
