//! Terms, variables and unification — the Horn-clause machinery.
//!
//! The paper specifies role activation rules "in Horn clause logic"
//! (Sect. 2). Conditions share variables: in
//!
//! ```text
//! treating_doctor(D, P) ← doctor_on_duty(D), assigned(D, P)
//! ```
//!
//! the variable `D` bound by the prerequisite role must agree with the `D`
//! in the appointment certificate. [`Term`] is one argument position of an
//! atom, and [`Bindings`] is the substitution built up while a rule is
//! evaluated.

use std::collections::HashMap;
use std::fmt;

use crate::value::Value;

/// A variable name within one rule's scope.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarName(pub String);

impl VarName {
    /// Creates a variable name.
    pub fn new(s: impl Into<String>) -> Self {
        Self(s.into())
    }
}

impl fmt::Display for VarName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// One argument position in a rule atom.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Term {
    /// A constant value; matches only itself.
    Const(Value),
    /// A variable; matches anything, consistently across the rule.
    Var(VarName),
    /// Matches anything, binding nothing ("don't care").
    Wildcard,
}

impl Term {
    /// Convenience constructor for a variable term.
    pub fn var(name: impl Into<String>) -> Self {
        Term::Var(VarName::new(name))
    }

    /// Convenience constructor for a constant term.
    pub fn val(value: impl Into<Value>) -> Self {
        Term::Const(value.into())
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Const(v) => write!(f, "{v}"),
            Term::Var(v) => write!(f, "{v}"),
            Term::Wildcard => f.write_str("_"),
        }
    }
}

impl From<Value> for Term {
    fn from(v: Value) -> Self {
        Term::Const(v)
    }
}

/// A substitution: the variable bindings accumulated during rule
/// evaluation.
///
/// # Example
///
/// ```
/// use oasis_core::{Bindings, Term, Value};
///
/// let mut b = Bindings::new();
/// assert!(b.unify(&Term::var("D"), &Value::id("dr-jones")));
/// // A second, conflicting use of D fails:
/// assert!(!b.unify(&Term::var("D"), &Value::id("dr-smith")));
/// assert_eq!(b.get_name("D"), Some(&Value::id("dr-jones")));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Bindings {
    map: HashMap<VarName, Value>,
}

impl Bindings {
    /// Creates an empty substitution.
    pub fn new() -> Self {
        Self::default()
    }

    /// Unifies one term against a concrete value, extending the
    /// substitution. Returns `false` (leaving the substitution unchanged)
    /// on mismatch.
    pub fn unify(&mut self, term: &Term, value: &Value) -> bool {
        match term {
            Term::Wildcard => true,
            Term::Const(c) => c == value,
            Term::Var(name) => match self.map.get(name) {
                Some(bound) => bound == value,
                None => {
                    self.map.insert(name.clone(), value.clone());
                    true
                }
            },
        }
    }

    /// Unifies a whole argument list; all-or-nothing (the substitution is
    /// unchanged on failure).
    pub fn unify_all(&mut self, terms: &[Term], values: &[Value]) -> bool {
        if terms.len() != values.len() {
            return false;
        }
        let mut trial = self.clone();
        for (t, v) in terms.iter().zip(values) {
            if !trial.unify(t, v) {
                return false;
            }
        }
        *self = trial;
        true
    }

    /// Resolves a term under this substitution: constants resolve to
    /// themselves, bound variables to their value, wildcards and unbound
    /// variables to `None`.
    pub fn resolve(&self, term: &Term) -> Option<Value> {
        match term {
            Term::Const(v) => Some(v.clone()),
            Term::Var(name) => self.map.get(name).cloned(),
            Term::Wildcard => None,
        }
    }

    /// Resolves every term, failing if any is unresolved.
    pub fn resolve_all(&self, terms: &[Term]) -> Option<Vec<Value>> {
        terms.iter().map(|t| self.resolve(t)).collect()
    }

    /// Resolves every term into a query pattern: unresolved positions
    /// become `None` (wildcards for the fact store).
    pub fn resolve_pattern(&self, terms: &[Term]) -> Vec<Option<Value>> {
        terms.iter().map(|t| self.resolve(t)).collect()
    }

    /// The value bound to a variable.
    pub fn get(&self, name: &VarName) -> Option<&Value> {
        self.map.get(name)
    }

    /// The value bound to a variable, by name string.
    pub fn get_name(&self, name: &str) -> Option<&Value> {
        self.map.get(&VarName::new(name))
    }

    /// Binds a variable directly (used to seed rule evaluation with the
    /// requested role parameters).
    pub fn bind(&mut self, name: VarName, value: Value) -> bool {
        match self.map.get(&name) {
            Some(bound) => bound == &value,
            None => {
                self.map.insert(name, value);
                true
            }
        }
    }

    /// Number of bound variables.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no variables are bound.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterates over `(variable, value)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&VarName, &Value)> {
        self.map.iter()
    }
}

impl fmt::Display for Bindings {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut pairs: Vec<_> = self.map.iter().collect();
        pairs.sort_by(|a, b| a.0.cmp(b.0));
        write!(f, "{{")?;
        for (i, (k, v)) in pairs.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{k}={v}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_match_only_themselves() {
        let mut b = Bindings::new();
        assert!(b.unify(&Term::val(Value::Int(3)), &Value::Int(3)));
        assert!(!b.unify(&Term::val(Value::Int(3)), &Value::Int(4)));
        assert!(b.is_empty(), "constant unification binds nothing");
    }

    #[test]
    fn wildcard_matches_everything_binds_nothing() {
        let mut b = Bindings::new();
        assert!(b.unify(&Term::Wildcard, &Value::id("x")));
        assert!(b.unify(&Term::Wildcard, &Value::Int(1)));
        assert!(b.is_empty());
    }

    #[test]
    fn variable_binds_then_constrains() {
        let mut b = Bindings::new();
        assert!(b.unify(&Term::var("X"), &Value::Int(1)));
        assert!(b.unify(&Term::var("X"), &Value::Int(1)));
        assert!(!b.unify(&Term::var("X"), &Value::Int(2)));
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn unify_all_is_atomic() {
        let mut b = Bindings::new();
        // Second position fails, so X must not remain bound.
        assert!(!b.unify_all(
            &[Term::var("X"), Term::val(Value::Int(9))],
            &[Value::Int(5), Value::Int(8)],
        ));
        assert!(b.is_empty());
        // Arity mismatch fails.
        assert!(!b.unify_all(&[Term::var("X")], &[]));
    }

    #[test]
    fn unify_all_shares_variables_across_positions() {
        let mut b = Bindings::new();
        assert!(!b.unify_all(
            &[Term::var("X"), Term::var("X")],
            &[Value::Int(1), Value::Int(2)],
        ));
        assert!(b.unify_all(
            &[Term::var("X"), Term::var("X")],
            &[Value::Int(1), Value::Int(1)],
        ));
    }

    #[test]
    fn resolve_behaviour() {
        let mut b = Bindings::new();
        b.bind(VarName::new("X"), Value::Int(1));
        assert_eq!(b.resolve(&Term::var("X")), Some(Value::Int(1)));
        assert_eq!(b.resolve(&Term::var("Y")), None);
        assert_eq!(b.resolve(&Term::Wildcard), None);
        assert_eq!(
            b.resolve(&Term::val(Value::Bool(true))),
            Some(Value::Bool(true))
        );
        assert_eq!(
            b.resolve_all(&[Term::var("X"), Term::var("Y")]),
            None,
            "resolve_all fails when any term is unresolved"
        );
        assert_eq!(
            b.resolve_pattern(&[Term::var("X"), Term::var("Y")]),
            vec![Some(Value::Int(1)), None],
        );
    }

    #[test]
    fn bind_conflicts_detected() {
        let mut b = Bindings::new();
        assert!(b.bind(VarName::new("X"), Value::Int(1)));
        assert!(b.bind(VarName::new("X"), Value::Int(1)));
        assert!(!b.bind(VarName::new("X"), Value::Int(2)));
    }

    #[test]
    fn display_is_sorted_and_stable() {
        let mut b = Bindings::new();
        b.bind(VarName::new("B"), Value::Int(2));
        b.bind(VarName::new("A"), Value::Int(1));
        assert_eq!(b.to_string(), "{A=1, B=2}");
    }
}
