//! Canonical sorted-key JSON encoding.
//!
//! This is the single encoder behind every observability artifact in the
//! workspace: trace lines (`oasis-sim::Trace` delegates here) and span
//! records; registry snapshots follow the same rules. Canonical means:
//!
//! * keys serialize in lexicographic order (two logically identical
//!   records are textually identical regardless of call-site field order),
//! * strings are JSON-escaped,
//! * no whitespace, no trailing commas, no float formatting surprises —
//!   floats only enter via [`TraceValue::Raw`] fragments the caller has
//!   already rendered deterministically.
//!
//! Byte determinism is load-bearing: the conformance matrix replays every
//! scenario and asserts byte-identical traces, and registry snapshots are
//! embedded in those traces.

use std::collections::BTreeMap;

/// A field value in a canonical record.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceValue {
    /// An unsigned integer.
    U64(u64),
    /// A signed integer (clock skews are the usual tenant).
    I64(i64),
    /// A boolean.
    Bool(bool),
    /// A string; escaped on serialization.
    Str(String),
    /// Pre-serialized canonical JSON (e.g. a registry snapshot or a span
    /// list) embedded verbatim as a nested value. The caller is
    /// responsible for the fragment itself being canonical.
    Raw(String),
}

impl From<u64> for TraceValue {
    fn from(v: u64) -> Self {
        TraceValue::U64(v)
    }
}

impl From<usize> for TraceValue {
    fn from(v: usize) -> Self {
        TraceValue::U64(v as u64)
    }
}

impl From<u32> for TraceValue {
    fn from(v: u32) -> Self {
        TraceValue::U64(v as u64)
    }
}

impl From<i64> for TraceValue {
    fn from(v: i64) -> Self {
        TraceValue::I64(v)
    }
}

impl From<bool> for TraceValue {
    fn from(v: bool) -> Self {
        TraceValue::Bool(v)
    }
}

impl From<&str> for TraceValue {
    fn from(v: &str) -> Self {
        TraceValue::Str(v.to_string())
    }
}

impl From<String> for TraceValue {
    fn from(v: String) -> Self {
        TraceValue::Str(v)
    }
}

/// Escapes `s` for embedding in a JSON string literal.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders one already-sorted field map as a canonical JSON object.
pub fn render_fields(fields: &BTreeMap<&str, TraceValue>) -> String {
    let mut out = String::from("{");
    for (i, (key, value)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        out.push_str(&escape_json(key));
        out.push_str("\":");
        render_value(&mut out, value);
    }
    out.push('}');
    out
}

/// Renders loose key/value pairs as a canonical JSON object (pairs are
/// sorted here; a duplicate key keeps the last value, matching
/// `BTreeMap` insert semantics).
pub fn kv_json(pairs: &[(&str, TraceValue)]) -> String {
    let mut map: BTreeMap<&str, TraceValue> = BTreeMap::new();
    for (key, value) in pairs {
        map.insert(key, value.clone());
    }
    render_fields(&map)
}

fn render_value(out: &mut String, value: &TraceValue) {
    match value {
        TraceValue::U64(v) => out.push_str(&v.to_string()),
        TraceValue::I64(v) => out.push_str(&v.to_string()),
        TraceValue::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
        TraceValue::Str(v) => {
            out.push('"');
            out.push_str(&escape_json(v));
            out.push('"');
        }
        TraceValue::Raw(v) => out.push_str(v),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kv_json_sorts_keys() {
        let line = kv_json(&[
            ("zeta", 1u64.into()),
            ("alpha", "a".into()),
            ("mid", true.into()),
        ]);
        assert_eq!(line, r#"{"alpha":"a","mid":true,"zeta":1}"#);
    }

    #[test]
    fn kv_json_escapes_strings() {
        let line = kv_json(&[("note", "a\"b\\c\nd".into())]);
        assert_eq!(line, r#"{"note":"a\"b\\c\nd"}"#);
    }

    #[test]
    fn raw_embeds_verbatim_and_negative_renders() {
        let line = kv_json(&[
            ("stats", TraceValue::Raw(r#"{"a":1}"#.to_string())),
            ("skew", (-200i64).into()),
        ]);
        assert_eq!(line, r#"{"skew":-200,"stats":{"a":1}}"#);
    }

    #[test]
    fn duplicate_keys_keep_last() {
        let line = kv_json(&[("k", 1u64.into()), ("k", 2u64.into())]);
        assert_eq!(line, r#"{"k":2}"#);
    }
}
