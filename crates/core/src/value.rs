//! Parameter values carried by parametrised roles and certificates.
//!
//! The paper motivates parametrised roles with examples whose parameters
//! are identifiers (doctor and patient ids, public keys, host names),
//! numbers, and times. [`Value`] covers those shapes; [`ValueType`] is the
//! schema side used by [`RoleDef`](crate::role::RoleDef) to type-check
//! activation requests.
//!
//! Text values are `Arc<str>`, as the identifiers of [`crate::ids`] are:
//! one activation repeats its role's parameters in the certificate, the
//! credential record, the retained conditions, the fact index and the
//! audit entry, and each of those copies is a count bump. Equality,
//! ordering and hashing are the text's own, so maps and sorted output
//! read as they would over `String`.

use std::fmt;
use std::sync::Arc;

/// A concrete role/certificate parameter value.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Value {
    /// An opaque identifier (principal, patient, hospital, key hash…).
    Id(Arc<str>),
    /// Free text.
    Str(Arc<str>),
    /// A signed integer.
    Int(i64),
    /// A boolean flag.
    Bool(bool),
    /// A point in virtual time (ticks).
    Time(u64),
}

impl Value {
    /// Convenience constructor for [`Value::Id`].
    pub fn id(s: impl AsRef<str>) -> Self {
        Value::Id(s.as_ref().into())
    }

    /// Convenience constructor for [`Value::Str`].
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(s.as_ref().into())
    }

    /// The type of this value.
    pub fn value_type(&self) -> ValueType {
        match self {
            Value::Id(_) => ValueType::Id,
            Value::Str(_) => ValueType::Str,
            Value::Int(_) => ValueType::Int,
            Value::Bool(_) => ValueType::Bool,
            Value::Time(_) => ValueType::Time,
        }
    }

    /// Canonical byte encoding for MAC input: a type tag followed by the
    /// payload. Distinct values never encode identically, and values of
    /// different types never collide (the tag differs).
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut number = [0; 8];
        let (tag, payload) = self.canonical_parts(&mut number);
        let mut bytes = Vec::with_capacity(1 + payload.len());
        bytes.push(tag);
        bytes.extend_from_slice(payload);
        bytes
    }

    /// [`Value::canonical_bytes`] without the buffer: the type tag, and
    /// the payload, which is the value's own text or its number written
    /// into `number`. A MAC streams the two as one field.
    pub(crate) fn canonical_parts<'a>(&'a self, number: &'a mut [u8; 8]) -> (u8, &'a [u8]) {
        match self {
            Value::Id(s) => (b'I', s.as_bytes()),
            Value::Str(s) => (b'S', s.as_bytes()),
            Value::Int(i) => {
                *number = i.to_le_bytes();
                (b'N', &number[..])
            }
            Value::Bool(v) => {
                number[0] = u8::from(*v);
                (b'B', &number[..1])
            }
            Value::Time(t) => {
                *number = t.to_le_bytes();
                (b'T', &number[..])
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Id(s) => write!(f, "{s}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Time(t) => write!(f, "t{t}"),
        }
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Id(s.into())
    }
}

/// The declared type of a role or certificate parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValueType {
    /// Opaque identifier.
    Id,
    /// Free text.
    Str,
    /// Signed integer.
    Int,
    /// Boolean.
    Bool,
    /// Virtual time.
    Time,
}

impl fmt::Display for ValueType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ValueType::Id => "id",
            ValueType::Str => "str",
            ValueType::Int => "int",
            ValueType::Bool => "bool",
            ValueType::Time => "time",
        };
        f.write_str(name)
    }
}

impl std::str::FromStr for ValueType {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "id" => Ok(ValueType::Id),
            "str" | "string" => Ok(ValueType::Str),
            "int" => Ok(ValueType::Int),
            "bool" => Ok(ValueType::Bool),
            "time" => Ok(ValueType::Time),
            other => Err(format!("unknown value type `{other}`")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_types_match() {
        assert_eq!(Value::id("x").value_type(), ValueType::Id);
        assert_eq!(Value::str("x").value_type(), ValueType::Str);
        assert_eq!(Value::Int(1).value_type(), ValueType::Int);
        assert_eq!(Value::Bool(true).value_type(), ValueType::Bool);
        assert_eq!(Value::Time(9).value_type(), ValueType::Time);
    }

    #[test]
    fn canonical_bytes_distinguish_types() {
        // Same payload text, different types — must not collide.
        assert_ne!(
            Value::id("x").canonical_bytes(),
            Value::str("x").canonical_bytes()
        );
        // Int 1 vs Time 1 — must not collide.
        assert_ne!(
            Value::Int(1).canonical_bytes(),
            Value::Time(1).canonical_bytes()
        );
    }

    #[test]
    fn canonical_bytes_distinguish_values() {
        assert_ne!(
            Value::Int(1).canonical_bytes(),
            Value::Int(2).canonical_bytes()
        );
        assert_ne!(
            Value::Bool(true).canonical_bytes(),
            Value::Bool(false).canonical_bytes()
        );
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::id("p-1").to_string(), "p-1");
        assert_eq!(Value::str("hi").to_string(), "\"hi\"");
        assert_eq!(Value::Int(-4).to_string(), "-4");
        assert_eq!(Value::Time(8).to_string(), "t8");
    }

    #[test]
    fn value_type_parse_round_trip() {
        for vt in [
            ValueType::Id,
            ValueType::Str,
            ValueType::Int,
            ValueType::Bool,
            ValueType::Time,
        ] {
            let parsed: ValueType = vt.to_string().parse().unwrap();
            assert_eq!(parsed, vt);
        }
        assert!("widget".parse::<ValueType>().is_err());
    }
}
