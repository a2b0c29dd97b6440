//! Property: pretty-printing any well-formed policy AST and re-parsing it
//! yields the same AST (modulo source positions).

use proptest::prelude::*;

use oasis_core::{CmpOp, Term, Value, ValueType};
use oasis_policy::{
    AppointmentDecl, Condition, InvokeDecl, Policy, PolicyAst, RoleDecl, RuleDecl, ServiceBlock,
};

fn ident() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9_]{0,6}".prop_filter("not a keyword", |s| {
        ![
            "service",
            "role",
            "initial",
            "appointment",
            "appointer",
            "may",
            "issue",
            "rule",
            "invoke",
            "prereq",
            "env",
            "not",
            "membership",
            "true",
            "false",
        ]
        .contains(&s.as_str())
    })
}

fn var_name() -> impl Strategy<Value = String> {
    "[A-Z][a-zA-Z0-9_]{0,5}"
}

fn value_type() -> impl Strategy<Value = ValueType> {
    prop_oneof![
        Just(ValueType::Id),
        Just(ValueType::Str),
        Just(ValueType::Int),
        Just(ValueType::Bool),
        Just(ValueType::Time),
    ]
}

fn term() -> impl Strategy<Value = Term> {
    prop_oneof![
        var_name().prop_map(Term::var),
        Just(Term::Wildcard),
        ident().prop_map(|s| Term::Const(Value::id(s))),
        any::<i64>().prop_map(|i| Term::Const(Value::Int(i))),
        any::<bool>().prop_map(|b| Term::Const(Value::Bool(b))),
        any::<u64>().prop_map(|t| Term::Const(Value::Time(t))),
        "[a-zA-Z0-9 ]{0,8}".prop_map(|s| Term::Const(Value::str(s))),
    ]
}

fn params() -> impl Strategy<Value = Vec<(String, ValueType)>> {
    proptest::collection::vec((ident(), value_type()), 0..3).prop_map(|mut ps| {
        // Parameter names must be unique within a declaration.
        ps.sort_by(|a, b| a.0.cmp(&b.0));
        ps.dedup_by(|a, b| a.0 == b.0);
        ps
    })
}

fn cmp_op() -> impl Strategy<Value = CmpOp> {
    prop_oneof![
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
        Just(CmpOp::Lt),
        Just(CmpOp::Le),
        Just(CmpOp::Gt),
        Just(CmpOp::Ge),
    ]
}

fn args() -> impl Strategy<Value = Vec<Term>> {
    proptest::collection::vec(term(), 0..3)
}

/// Constant-only terms, for positions the safety checker requires to be
/// bound (predicate arguments).
fn const_term() -> impl Strategy<Value = Term> {
    prop_oneof![
        ident().prop_map(|s| Term::Const(Value::id(s))),
        any::<i64>().prop_map(|i| Term::Const(Value::Int(i))),
        any::<bool>().prop_map(|b| Term::Const(Value::Bool(b))),
        any::<u64>().prop_map(|t| Term::Const(Value::Time(t))),
    ]
}

fn const_args() -> impl Strategy<Value = Vec<Term>> {
    proptest::collection::vec(const_term(), 0..3)
}

fn condition() -> impl Strategy<Value = Condition> {
    use oasis_policy::ast::ConditionKind;
    prop_oneof![
        // Foreign prereq/appointment only: local ones are arity-checked
        // against declarations, which this generator does not coordinate.
        (ident(), ident(), args()).prop_map(|(svc, role, args)| Condition {
            kind: ConditionKind::Prereq {
                service: Some(svc),
                role,
                args,
            },
            pos: Default::default(),
        }),
        (ident(), ident(), args()).prop_map(|(svc, name, args)| Condition {
            kind: ConditionKind::Appointment {
                service: Some(svc),
                name,
                args,
            },
            pos: Default::default(),
        }),
        // Positive facts only: negated facts must satisfy the safety
        // analysis, which the generator does not coordinate.
        (ident(), args()).prop_map(|(relation, args)| Condition {
            kind: ConditionKind::Fact {
                relation,
                args,
                negated: false,
            },
            pos: Default::default(),
        }),
        (ident(), const_args()).prop_map(|(name, args)| Condition {
            kind: ConditionKind::Predicate { name, args },
            pos: Default::default(),
        }),
        // Comparisons of two literals are always safe.
        (any::<i64>(), cmp_op(), any::<i64>()).prop_map(|(l, op, r)| Condition {
            kind: ConditionKind::Compare {
                left: Term::Const(Value::Int(l)),
                op,
                right: Term::Const(Value::Int(r)),
            },
            pos: Default::default(),
        }),
    ]
}

prop_compose! {
    fn service_block()(
        name in ident(),
        roles in proptest::collection::vec((ident(), params(), any::<bool>()), 1..4),
        appointments in proptest::collection::vec((ident(), params()), 0..2),
        conditions in proptest::collection::vec(condition(), 0..4),
    ) -> ServiceBlock {
        // Dedup roles/appointments by name to satisfy the checker.
        let mut seen = std::collections::HashSet::new();
        let roles: Vec<RoleDecl> = roles
            .into_iter()
            .filter(|(n, _, _)| seen.insert(n.clone()))
            .map(|(name, params, initial)| RoleDecl {
                name,
                params,
                initial,
                pos: Default::default(),
            })
            .collect();
        let mut seen_a = std::collections::HashSet::new();
        let appointments: Vec<AppointmentDecl> = appointments
            .into_iter()
            .filter(|(n, _)| seen_a.insert(n.clone()))
            .map(|(name, params)| AppointmentDecl {
                name,
                params,
                pos: Default::default(),
            })
            .collect();

        // One rule per role, using only generator-safe conditions; head
        // args are fresh variables matching the declared arity (so the
        // checker's arity/type pass succeeds).
        let rules: Vec<RuleDecl> = roles
            .iter()
            .map(|r| RuleDecl {
                role: r.name.clone(),
                head_args: (0..r.params.len())
                    .map(|i| Term::var(format!("V{i}")))
                    .collect(),
                conditions: conditions.clone(),
                membership: if conditions.is_empty() {
                    None
                } else {
                    Some(vec![0])
                },
                pos: Default::default(),
            })
            .collect();

        let invocations = vec![InvokeDecl {
            method: "m".to_string(),
            head_args: vec![Term::var("X")],
            conditions: conditions.clone(),
            pos: Default::default(),
        }];

        ServiceBlock {
            name,
            pos: Default::default(),
            roles,
            appointments,
            appointers: Vec::new(),
            rules,
            invocations,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn print_parse_round_trip(blocks in proptest::collection::vec(service_block(), 1..3)) {
        // Service names must be unique.
        let mut seen = std::collections::HashSet::new();
        let services: Vec<ServiceBlock> = blocks
            .into_iter()
            .filter(|b| seen.insert(b.name.clone()))
            .collect();
        let ast = PolicyAst { services };

        let printed = oasis_policy::print_ast(&ast);
        let reparsed = match Policy::parse(&printed) {
            Ok(p) => p,
            Err(e) => {
                // The generator aims to produce only checkable policies;
                // any failure here is a genuine printer/parser bug.
                panic!("failed to reparse printed policy:\n{printed}\nerror: {e}");
            }
        };
        prop_assert_eq!(ast.normalized(), reparsed.ast().normalized(), "printed:\n{}", printed);
    }
}
