//! Semantic analysis: arity and type checking, duplicate detection,
//! membership validation, unsafe-negation detection, and
//! ungroundable-role (circular prerequisite) detection.
//!
//! These are the consistency checks the paper calls "crucial for any
//! large-scale deployment of policy … essential to maintain consistency
//! as policies evolve" (Sect. 1).

use std::collections::{HashMap, HashSet};

use oasis_core::{Term, ValueType};

use crate::ast::*;
use crate::error::PolicyError;

pub(crate) fn check(ast: &PolicyAst) -> Result<(), PolicyError> {
    for service in &ast.services {
        check_service(service)?;
    }
    Ok(())
}

fn value_type_name(t: ValueType) -> String {
    t.to_string()
}

fn term_literal_type(term: &Term) -> Option<ValueType> {
    match term {
        Term::Const(v) => Some(v.value_type()),
        _ => None,
    }
}

fn check_service(service: &ServiceBlock) -> Result<(), PolicyError> {
    // Duplicate declarations.
    let mut role_schemas: HashMap<&str, &Vec<(String, ValueType)>> = HashMap::new();
    for role in &service.roles {
        if role_schemas.insert(&role.name, &role.params).is_some() {
            return Err(PolicyError::Duplicate {
                pos: role.pos,
                service: service.name.clone(),
                name: role.name.clone(),
            });
        }
    }
    let mut appt_schemas: HashMap<&str, &Vec<(String, ValueType)>> = HashMap::new();
    for appt in &service.appointments {
        if appt_schemas.insert(&appt.name, &appt.params).is_some() {
            return Err(PolicyError::Duplicate {
                pos: appt.pos,
                service: service.name.clone(),
                name: appt.name.clone(),
            });
        }
    }

    // Appointer grants reference declared names.
    for grant in &service.appointers {
        if !role_schemas.contains_key(grant.role.as_str()) {
            return Err(PolicyError::UnknownRole {
                pos: grant.pos,
                service: service.name.clone(),
                role: grant.role.clone(),
            });
        }
        if !appt_schemas.contains_key(grant.appointment.as_str()) {
            return Err(PolicyError::UnknownAppointment {
                pos: grant.pos,
                service: service.name.clone(),
                name: grant.appointment.clone(),
            });
        }
    }

    // Rules.
    for rule in &service.rules {
        let Some(schema) = role_schemas.get(rule.role.as_str()) else {
            return Err(PolicyError::UnknownRole {
                pos: rule.pos,
                service: service.name.clone(),
                role: rule.role.clone(),
            });
        };
        check_args_against_schema(rule.pos, &rule.role, &rule.head_args, schema)?;
        check_conditions(
            service,
            &role_schemas,
            &appt_schemas,
            &rule.head_args,
            &rule.conditions,
        )?;
        if let Some(membership) = &rule.membership {
            for &idx in membership {
                if idx >= rule.conditions.len() {
                    return Err(PolicyError::MembershipRange {
                        pos: rule.pos,
                        index: idx,
                        conditions: rule.conditions.len(),
                    });
                }
            }
        }
    }

    // Invocation rules.
    for inv in &service.invocations {
        check_conditions(
            service,
            &role_schemas,
            &appt_schemas,
            &inv.head_args,
            &inv.conditions,
        )?;
    }

    check_groundability(service, &role_schemas)?;
    Ok(())
}

fn check_args_against_schema(
    pos: crate::error::Pos,
    name: &str,
    args: &[Term],
    schema: &[(String, ValueType)],
) -> Result<(), PolicyError> {
    if args.len() != schema.len() {
        return Err(PolicyError::Arity {
            pos,
            name: name.to_string(),
            expected: schema.len(),
            actual: args.len(),
        });
    }
    for (i, (arg, (_, ptype))) in args.iter().zip(schema).enumerate() {
        if let Some(literal) = term_literal_type(arg) {
            if literal != *ptype {
                return Err(PolicyError::ArgType {
                    pos,
                    name: name.to_string(),
                    index: i,
                    expected: value_type_name(*ptype),
                    actual: value_type_name(literal),
                });
            }
        }
    }
    Ok(())
}

fn term_vars(term: &Term) -> Option<&str> {
    match term {
        Term::Var(v) => Some(&v.0),
        _ => None,
    }
}

fn check_conditions(
    service: &ServiceBlock,
    role_schemas: &HashMap<&str, &Vec<(String, ValueType)>>,
    appt_schemas: &HashMap<&str, &Vec<(String, ValueType)>>,
    head_args: &[Term],
    conditions: &[Condition],
) -> Result<(), PolicyError> {
    // Safety analysis: track variables bound by the head or an earlier
    // positive (binding) condition.
    let mut bound: HashSet<String> = head_args
        .iter()
        .filter_map(term_vars)
        .map(str::to_string)
        .collect();
    // `$`-variables are pre-bound by the engine.
    let reserved = |v: &str| v.starts_with('$');

    for cond in conditions {
        match &cond.kind {
            ConditionKind::Prereq {
                service: svc,
                role,
                args,
            } => {
                // Local roles are checked against their declared schema;
                // foreign roles cannot be checked here.
                if svc.is_none() {
                    let Some(schema) = role_schemas.get(role.as_str()) else {
                        return Err(PolicyError::UnknownRole {
                            pos: cond.pos,
                            service: service.name.clone(),
                            role: role.clone(),
                        });
                    };
                    check_args_against_schema(cond.pos, role, args, schema)?;
                }
                bound.extend(args.iter().filter_map(term_vars).map(str::to_string));
            }
            ConditionKind::Appointment {
                service: svc,
                name,
                args,
            } => {
                if svc.is_none() {
                    let Some(schema) = appt_schemas.get(name.as_str()) else {
                        return Err(PolicyError::UnknownAppointment {
                            pos: cond.pos,
                            service: service.name.clone(),
                            name: name.clone(),
                        });
                    };
                    check_args_against_schema(cond.pos, name, args, schema)?;
                }
                bound.extend(args.iter().filter_map(term_vars).map(str::to_string));
            }
            ConditionKind::Fact { args, negated, .. } => {
                if *negated {
                    for var in args.iter().filter_map(term_vars) {
                        if !bound.contains(var) && !reserved(var) {
                            return Err(PolicyError::UnsafeNegation {
                                pos: cond.pos,
                                var: var.to_string(),
                            });
                        }
                    }
                } else {
                    bound.extend(args.iter().filter_map(term_vars).map(str::to_string));
                }
            }
            ConditionKind::Compare { left, right, .. } => {
                for var in [left, right].into_iter().filter_map(term_vars) {
                    if !bound.contains(var) && !reserved(var) {
                        return Err(PolicyError::UnsafeNegation {
                            pos: cond.pos,
                            var: var.to_string(),
                        });
                    }
                }
            }
            ConditionKind::Predicate { args, .. } => {
                for var in args.iter().filter_map(term_vars) {
                    if !bound.contains(var) && !reserved(var) {
                        return Err(PolicyError::UnsafeNegation {
                            pos: cond.pos,
                            var: var.to_string(),
                        });
                    }
                }
            }
        }
    }
    Ok(())
}

/// A role is *groundable* if some rule for it has every local prerequisite
/// groundable (appointments, environment conditions, and foreign-service
/// prerequisites are treated as externally satisfiable). Roles that are
/// not groundable can never be activated — a policy bug, reported as
/// [`PolicyError::UngroundableRole`].
fn check_groundability(
    service: &ServiceBlock,
    role_schemas: &HashMap<&str, &Vec<(String, ValueType)>>,
) -> Result<(), PolicyError> {
    let mut groundable: HashSet<&str> = HashSet::new();
    // Roles without any rule cannot be activated through policy at all; the
    // paper allows roles used purely as foreign-prerequisite targets, so we
    // only analyse roles that *have* rules.
    let with_rules: HashSet<&str> = service.rules.iter().map(|r| r.role.as_str()).collect();

    loop {
        let mut changed = false;
        for rule in &service.rules {
            if groundable.contains(rule.role.as_str()) {
                continue;
            }
            let ok = rule.conditions.iter().all(|c| match &c.kind {
                ConditionKind::Prereq {
                    service: None,
                    role,
                    ..
                } => {
                    groundable.contains(role.as_str())
                        // A local prereq on a role with no rules can never
                        // fire either, unless that role is undeclared
                        // (caught earlier) — treat "no rules" as dead.
                        || (!with_rules.contains(role.as_str())
                            && !role_schemas.contains_key(role.as_str()))
                }
                _ => true,
            });
            if ok {
                groundable.insert(rule.role.as_str());
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    for role in &with_rules {
        if !groundable.contains(role) {
            return Err(PolicyError::UngroundableRole {
                service: service.name.clone(),
                role: (*role).to_string(),
            });
        }
    }
    Ok(())
}

/// Collects every fact relation referenced by the block, with its arity —
/// used by the compiler to declare relations on the service's fact store.
pub(crate) fn referenced_relations(service: &ServiceBlock) -> Vec<(String, usize)> {
    let mut seen: HashMap<String, usize> = HashMap::new();
    let all_conditions = service
        .rules
        .iter()
        .flat_map(|r| r.conditions.iter())
        .chain(service.invocations.iter().flat_map(|i| i.conditions.iter()));
    for cond in all_conditions {
        if let ConditionKind::Fact { relation, args, .. } = &cond.kind {
            seen.entry(relation.clone()).or_insert(args.len());
        }
    }
    let mut out: Vec<(String, usize)> = seen.into_iter().collect();
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn check_src(src: &str) -> Result<(), PolicyError> {
        check(&parse(src).unwrap())
    }

    #[test]
    fn valid_policy_passes() {
        check_src(
            "service hospital {
               initial role logged_in(u: id);
               role doctor(d: id);
               appointment assigned(d: id, p: id);
               appointer doctor may issue assigned;
               rule logged_in(U) <- env password_ok(U);
               rule doctor(D) <- prereq logged_in(D);
               invoke read(P) <- prereq doctor(_), env registered(P);
             }",
        )
        .unwrap();
    }

    #[test]
    fn duplicate_role_rejected() {
        let err = check_src("service s { role r(); role r(); }").unwrap_err();
        assert!(matches!(err, PolicyError::Duplicate { .. }));
    }

    #[test]
    fn unknown_rule_target_rejected() {
        let err = check_src("service s { rule ghost() <- ; }").unwrap_err();
        assert!(matches!(err, PolicyError::UnknownRole { .. }));
    }

    #[test]
    fn unknown_local_prereq_rejected() {
        let err = check_src("service s { role r(); rule r() <- prereq ghost(); }").unwrap_err();
        assert!(matches!(err, PolicyError::UnknownRole { .. }));
    }

    #[test]
    fn foreign_prereq_not_checked_locally() {
        check_src("service s { role r(); rule r() <- prereq other::ghost(X, Y, Z); }").unwrap();
    }

    #[test]
    fn head_arity_checked() {
        let err = check_src("service s { role r(a: id); rule r() <- ; }").unwrap_err();
        assert!(matches!(
            err,
            PolicyError::Arity {
                expected: 1,
                actual: 0,
                ..
            }
        ));
    }

    #[test]
    fn literal_types_checked() {
        let err = check_src("service s { role r(a: id); rule r(42) <- ; }").unwrap_err();
        assert!(matches!(err, PolicyError::ArgType { index: 0, .. }));
    }

    #[test]
    fn appointment_arity_checked() {
        let err = check_src(
            "service s {
               role r();
               appointment card(m: id);
               rule r() <- appointment card(X, Y);
             }",
        )
        .unwrap_err();
        assert!(matches!(err, PolicyError::Arity { .. }));
    }

    #[test]
    fn membership_range_checked() {
        let err =
            check_src("service s { role r(); rule r() <- env f(x) membership [1]; }").unwrap_err();
        assert!(matches!(err, PolicyError::MembershipRange { index: 1, .. }));
    }

    #[test]
    fn unsafe_negation_detected() {
        let err =
            check_src("service s { role r(); rule r() <- env not excluded(X); }").unwrap_err();
        assert!(matches!(err, PolicyError::UnsafeNegation { .. }));
    }

    #[test]
    fn negation_safe_when_bound_by_head_or_earlier_atom() {
        check_src(
            "service s {
               role r(p: id);
               rule r(P) <- env reg(P, D), env not excluded(P, D);
             }",
        )
        .unwrap();
    }

    #[test]
    fn reserved_vars_are_always_safe() {
        check_src("service s { role r(); rule r() <- env $now < @100; }").unwrap();
    }

    #[test]
    fn unbound_compare_variable_rejected() {
        let err = check_src("service s { role r(); rule r() <- env X < 3; }").unwrap_err();
        assert!(matches!(err, PolicyError::UnsafeNegation { .. }));
    }

    #[test]
    fn circular_prerequisites_detected() {
        let err = check_src(
            "service s {
               role a(); role b();
               rule a() <- prereq b();
               rule b() <- prereq a();
             }",
        )
        .unwrap_err();
        assert!(matches!(err, PolicyError::UngroundableRole { .. }));
    }

    #[test]
    fn cycle_broken_by_alternative_rule_is_fine() {
        check_src(
            "service s {
               role a(); role b();
               rule a() <- prereq b();
               rule b() <- prereq a();
               rule b() <- env bootstrap(x);
             }",
        )
        .unwrap();
    }

    #[test]
    fn self_cycle_detected() {
        let err = check_src("service s { role a(); rule a() <- prereq a(); }").unwrap_err();
        assert!(matches!(err, PolicyError::UngroundableRole { .. }));
    }

    #[test]
    fn relations_collected_with_arity() {
        let ast = parse(
            "service s {
               role r(p: id);
               rule r(P) <- env reg(P, D), env not excl(P, D);
               invoke m(P) <- env audit_ok(P);
             }",
        )
        .unwrap();
        assert_eq!(
            referenced_relations(&ast.services[0]),
            vec![
                ("audit_ok".to_string(), 1),
                ("excl".to_string(), 2),
                ("reg".to_string(), 2)
            ]
        );
    }
}
