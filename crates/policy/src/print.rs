//! Pretty-printer producing canonical policy text.
//!
//! `parse(print(ast)) == ast` — verified by a round-trip property test.

use std::fmt::Write;

use oasis_core::{Term, Value};

use crate::ast::*;

pub(crate) fn print(ast: &PolicyAst) -> String {
    let mut out = String::new();
    for (i, service) in ast.services.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        print_service(&mut out, service);
    }
    out
}

fn print_service(out: &mut String, s: &ServiceBlock) {
    let _ = writeln!(out, "service {} {{", s.name);
    for role in &s.roles {
        let initial = if role.initial { "initial " } else { "" };
        let _ = writeln!(
            out,
            "  {initial}role {}({});",
            role.name,
            params_text(&role.params)
        );
    }
    for appt in &s.appointments {
        let _ = writeln!(
            out,
            "  appointment {}({});",
            appt.name,
            params_text(&appt.params)
        );
    }
    for grant in &s.appointers {
        let _ = writeln!(
            out,
            "  appointer {} may issue {};",
            grant.role, grant.appointment
        );
    }
    for rule in &s.rules {
        let _ = write!(
            out,
            "  rule {}({}) <- {}",
            rule.role,
            terms_text(&rule.head_args),
            conditions_text(&rule.conditions)
        );
        if let Some(membership) = &rule.membership {
            let indices: Vec<String> = membership.iter().map(ToString::to_string).collect();
            let _ = write!(out, " membership [{}]", indices.join(", "));
        }
        let _ = writeln!(out, ";");
    }
    for inv in &s.invocations {
        let _ = writeln!(
            out,
            "  invoke {}({}) <- {};",
            inv.method,
            terms_text(&inv.head_args),
            conditions_text(&inv.conditions)
        );
    }
    let _ = writeln!(out, "}}");
}

fn params_text(params: &[(String, oasis_core::ValueType)]) -> String {
    params
        .iter()
        .map(|(n, t)| format!("{n}: {t}"))
        .collect::<Vec<_>>()
        .join(", ")
}

fn terms_text(terms: &[Term]) -> String {
    terms.iter().map(term_text).collect::<Vec<_>>().join(", ")
}

fn term_text(term: &Term) -> String {
    match term {
        Term::Var(v) => v.0.clone(),
        Term::Wildcard => "_".to_string(),
        Term::Const(v) => value_text(v),
    }
}

fn value_text(v: &Value) -> String {
    match v {
        Value::Id(s) => s.to_string(),
        Value::Str(s) => format!("{s:?}"),
        Value::Int(i) => i.to_string(),
        Value::Bool(b) => b.to_string(),
        Value::Time(t) => format!("@{t}"),
    }
}

fn conditions_text(conditions: &[Condition]) -> String {
    conditions
        .iter()
        .map(condition_text)
        .collect::<Vec<_>>()
        .join(", ")
}

fn condition_text(cond: &Condition) -> String {
    match &cond.kind {
        ConditionKind::Prereq {
            service,
            role,
            args,
        } => match service {
            Some(svc) => format!("prereq {svc}::{role}({})", terms_text(args)),
            None => format!("prereq {role}({})", terms_text(args)),
        },
        ConditionKind::Appointment {
            service,
            name,
            args,
        } => match service {
            Some(svc) => format!("appointment {svc}::{name}({})", terms_text(args)),
            None => format!("appointment {name}({})", terms_text(args)),
        },
        ConditionKind::Fact {
            relation,
            args,
            negated,
        } => {
            let not = if *negated { "not " } else { "" };
            format!("env {not}{relation}({})", terms_text(args))
        }
        ConditionKind::Compare { left, op, right } => {
            format!(
                "env {} {} {}",
                term_text(left),
                op.symbol(),
                term_text(right)
            )
        }
        ConditionKind::Predicate { name, args } => {
            format!("env ?{name}({})", terms_text(args))
        }
    }
}
