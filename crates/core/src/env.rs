//! Environmental constraints: the context in which rules are evaluated.
//!
//! Activation rules "may include environmental constraints … the time of
//! day and the location or name of a computer … that the user is a member
//! of a group; this may be ascertained by database lookup at some service"
//! (Sect. 2). [`EnvContext`] carries the virtual clock, ambient named
//! values (host, location…), and registered custom predicates; fact-store
//! lookups go through the service's `oasis-facts` store.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::value::Value;

/// Comparison operators usable in rule conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

impl CmpOp {
    /// Applies the operator. Ordering comparisons require both operands to
    /// have the same type; values of different types are only ever `Ne`.
    pub fn eval(self, left: &Value, right: &Value) -> bool {
        match self {
            CmpOp::Eq => left == right,
            CmpOp::Ne => left != right,
            CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge => {
                if left.value_type() != right.value_type() {
                    return false;
                }
                match self {
                    CmpOp::Lt => left < right,
                    CmpOp::Le => left <= right,
                    CmpOp::Gt => left > right,
                    CmpOp::Ge => left >= right,
                    _ => unreachable!(),
                }
            }
        }
    }

    /// The symbolic form (`==`, `!=`, `<`, `<=`, `>`, `>=`).
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

impl std::str::FromStr for CmpOp {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "==" | "=" => Ok(CmpOp::Eq),
            "!=" => Ok(CmpOp::Ne),
            "<" => Ok(CmpOp::Lt),
            "<=" => Ok(CmpOp::Le),
            ">" => Ok(CmpOp::Gt),
            ">=" => Ok(CmpOp::Ge),
            other => Err(format!("unknown comparison operator `{other}`")),
        }
    }
}

/// A custom predicate: named boolean function over resolved values.
pub type PredicateFn = Arc<dyn Fn(&[Value], &EnvContext) -> bool + Send + Sync>;

/// The environment a rule is evaluated in.
///
/// # Example
///
/// ```
/// use oasis_core::{EnvContext, Value};
///
/// let ctx = EnvContext::new(1_000)
///     .with_ambient("host", Value::id("ward-3-terminal"))
///     .with_predicate("is_even", |args, _ctx| {
///         matches!(args, [Value::Int(i)] if i % 2 == 0)
///     });
/// assert_eq!(ctx.now(), 1_000);
/// assert_eq!(ctx.ambient("host"), Some(&Value::id("ward-3-terminal")));
/// ```
#[derive(Clone)]
pub struct EnvContext {
    now: u64,
    ambient: HashMap<String, Value>,
    predicates: HashMap<String, PredicateFn>,
}

impl EnvContext {
    /// Creates a context at virtual time `now`.
    pub fn new(now: u64) -> Self {
        Self {
            now,
            ambient: HashMap::new(),
            predicates: HashMap::new(),
        }
    }

    /// Adds an ambient named value (host, location, …).
    #[must_use]
    pub fn with_ambient(mut self, name: impl Into<String>, value: Value) -> Self {
        self.ambient.insert(name.into(), value);
        self
    }

    /// Registers a custom predicate.
    #[must_use]
    pub fn with_predicate(
        mut self,
        name: impl Into<String>,
        predicate: impl Fn(&[Value], &EnvContext) -> bool + Send + Sync + 'static,
    ) -> Self {
        self.predicates.insert(name.into(), Arc::new(predicate));
        self
    }

    /// The virtual time of evaluation.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Returns a copy of this context at a different time (membership
    /// re-checks reuse the ambient values and predicates).
    #[must_use]
    pub fn at(&self, now: u64) -> Self {
        let mut ctx = self.clone();
        ctx.now = now;
        ctx
    }

    /// Looks up an ambient value.
    pub fn ambient(&self, name: &str) -> Option<&Value> {
        self.ambient.get(name)
    }

    /// Iterates over all ambient `(name, value)` pairs in unspecified
    /// order.
    pub fn ambient_iter(&self) -> impl Iterator<Item = (&String, &Value)> {
        self.ambient.iter()
    }

    /// Evaluates a registered predicate; unknown predicates are `false`
    /// (deny by default).
    pub fn eval_predicate(&self, name: &str, args: &[Value]) -> bool {
        match self.predicates.get(name) {
            Some(p) => p(args, self),
            None => false,
        }
    }
}

impl fmt::Debug for EnvContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut preds: Vec<&String> = self.predicates.keys().collect();
        preds.sort();
        f.debug_struct("EnvContext")
            .field("now", &self.now)
            .field("ambient", &self.ambient)
            .field("predicates", &preds)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq_ne_work_across_types() {
        assert!(CmpOp::Eq.eval(&Value::Int(1), &Value::Int(1)));
        assert!(CmpOp::Ne.eval(&Value::Int(1), &Value::Time(1)));
        assert!(!CmpOp::Eq.eval(&Value::Int(1), &Value::Time(1)));
    }

    #[test]
    fn ordering_requires_same_type() {
        assert!(CmpOp::Lt.eval(&Value::Int(1), &Value::Int(2)));
        assert!(!CmpOp::Lt.eval(&Value::Int(1), &Value::Time(2)));
        assert!(CmpOp::Ge.eval(&Value::Time(5), &Value::Time(5)));
        assert!(CmpOp::Le.eval(&Value::str("a"), &Value::str("b")));
    }

    #[test]
    fn parse_round_trip() {
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            let parsed: CmpOp = op.symbol().parse().unwrap();
            assert_eq!(parsed, op);
        }
        assert!("~=".parse::<CmpOp>().is_err());
    }

    #[test]
    fn ambient_lookup() {
        let ctx = EnvContext::new(5).with_ambient("host", Value::id("h1"));
        assert_eq!(ctx.ambient("host"), Some(&Value::id("h1")));
        assert_eq!(ctx.ambient("missing"), None);
    }

    #[test]
    fn unknown_predicate_denies() {
        let ctx = EnvContext::new(0);
        assert!(!ctx.eval_predicate("ghost", &[]));
    }

    #[test]
    fn predicate_sees_context() {
        let ctx = EnvContext::new(42).with_predicate("after_dawn", |_args, ctx| ctx.now() >= 6);
        assert!(ctx.eval_predicate("after_dawn", &[]));
    }

    #[test]
    fn at_rebases_time_keeping_everything_else() {
        let ctx = EnvContext::new(1)
            .with_ambient("host", Value::id("h"))
            .with_predicate("yes", |_, _| true);
        let later = ctx.at(99);
        assert_eq!(later.now(), 99);
        assert_eq!(later.ambient("host"), Some(&Value::id("h")));
        assert!(later.eval_predicate("yes", &[]));
    }
}
