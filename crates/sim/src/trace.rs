//! Canonical JSONL event traces shared by every chaos and conformance
//! suite.
//!
//! Until now each integration suite carried its own ad-hoc trace writer
//! (hand-interpolated JSON strings, per-file `target/chaos` plumbing).
//! That was survivable while traces were only post-mortem artifacts, but
//! the conformance harness promotes them to *oracles*: replaying a
//! scenario under its recorded seed must reproduce a **byte-identical**
//! trace. Byte identity needs a canonical serialization, so this module
//! gives every suite one recorder with:
//!
//! * **Sorted keys** — fields serialize in lexicographic key order, so
//!   two logically identical records are textually identical regardless
//!   of the order call sites listed their fields.
//! * **Proper escaping** — event text is JSON-escaped (the old writers
//!   interpolated `{fault:?}` debug strings verbatim, producing lines
//!   that were not even valid JSON).
//! * **One output convention** — `target/chaos/<name>-<seed>.jsonl`,
//!   the path CI's artifact-upload steps already collect.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::rc::Rc;

// The encoder itself (value type, escaping, sorted-key rendering) moved
// to the `oasis-obs` leaf crate so span logs and registry snapshots
// share the exact byte format; re-exported here for API compatibility.
pub use oasis_obs::{escape_json, TraceValue};

use oasis_obs::render_fields as render;

/// A cloneable recorder of canonical JSONL trace lines.
///
/// Clones share the underlying buffer (a `Trace` is a handle), so a
/// simulation can hand one to every scheduled closure. Traces are
/// single-threaded, like the discrete-event loop they record.
///
/// # Example
///
/// ```
/// use oasis_sim::Trace;
///
/// let trace = Trace::new();
/// trace.log(7, "issuer crashed");
/// trace.log_kv(9, "revocation executed", &[("seq", 3u64.into())]);
/// assert_eq!(
///     trace.lines(),
///     vec![
///         r#"{"event":"issuer crashed","tick":7}"#.to_string(),
///         r#"{"event":"revocation executed","seq":3,"tick":9}"#.to_string(),
///     ]
/// );
/// ```
#[derive(Debug, Clone, Default)]
pub struct Trace {
    lines: Rc<RefCell<Vec<String>>>,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `{"event":…,"tick":…}`.
    pub fn log(&self, tick: u64, event: &str) {
        self.log_kv(tick, event, &[]);
    }

    /// Records an event with extra fields; keys serialize sorted, and
    /// `event`/`tick` are ordinary fields (extra fields may not reuse
    /// those keys — the reserved pair wins).
    pub fn log_kv(&self, tick: u64, event: &str, fields: &[(&str, TraceValue)]) {
        let mut map: BTreeMap<&str, TraceValue> = BTreeMap::new();
        for (key, value) in fields {
            map.insert(key, value.clone());
        }
        map.insert("event", TraceValue::Str(event.to_string()));
        map.insert("tick", TraceValue::U64(tick));
        self.lines.borrow_mut().push(render(&map));
    }

    /// A snapshot of the recorded lines.
    pub fn lines(&self) -> Vec<String> {
        self.lines.borrow().clone()
    }

    /// Number of recorded lines.
    pub fn len(&self) -> usize {
        self.lines.borrow().len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.lines.borrow().is_empty()
    }

    /// Writes the trace to `target/chaos/<name>-<seed>.jsonl` (the
    /// convention CI's artifact uploads collect); returns the path, or
    /// `None` when the directory could not be created or written.
    pub fn write(&self, name: &str, seed: u64) -> Option<PathBuf> {
        write_lines(name, seed, &self.lines.borrow())
    }
}

/// Writes pre-rendered trace lines to `target/chaos/<name>-<seed>.jsonl`.
///
/// The free-function form exists for suites that accumulate plain
/// `Vec<String>` traces (e.g. returned across a scenario boundary for a
/// determinism comparison) and only need the shared output convention.
pub fn write_lines(name: &str, seed: u64, lines: &[String]) -> Option<PathBuf> {
    // Resolved at run time from the running package's manifest (every
    // workspace package sits two levels under the root): a copy of the
    // tree that reuses a copied `target/` writes under itself.
    let dir = std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| env!("CARGO_MANIFEST_DIR").into(), PathBuf::from)
        .join("../../target/chaos");
    std::fs::create_dir_all(&dir).ok()?;
    let path = dir.join(format!("{name}-{seed}.jsonl"));
    let body = if lines.is_empty() {
        String::new()
    } else {
        lines.join("\n") + "\n"
    };
    std::fs::write(&path, body).ok()?;
    Some(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_serialize_sorted_regardless_of_call_order() {
        let trace = Trace::new();
        trace.log_kv(
            5,
            "x",
            &[
                ("zeta", 1u64.into()),
                ("alpha", "a".into()),
                ("mid", true.into()),
            ],
        );
        assert_eq!(
            trace.lines(),
            vec![r#"{"alpha":"a","event":"x","mid":true,"tick":5,"zeta":1}"#.to_string()]
        );
    }

    #[test]
    fn event_text_is_escaped() {
        let trace = Trace::new();
        trace.log(1, "fault Partition { a: \"a\", b: \"b\" }");
        let line = trace.lines().remove(0);
        assert_eq!(
            line,
            r#"{"event":"fault Partition { a: \"a\", b: \"b\" }","tick":1}"#
        );
    }

    #[test]
    fn raw_values_embed_verbatim() {
        let trace = Trace::new();
        trace.log_kv(
            9,
            "final state",
            &[("stats", TraceValue::Raw(r#"{"a":1}"#.to_string()))],
        );
        assert_eq!(
            trace.lines(),
            vec![r#"{"event":"final state","stats":{"a":1},"tick":9}"#.to_string()]
        );
    }

    #[test]
    fn negative_and_control_values_render() {
        let trace = Trace::new();
        trace.log_kv(
            2,
            "skew",
            &[("offset_ms", (-200i64).into()), ("note", "a\nb".into())],
        );
        assert_eq!(
            trace.lines(),
            vec![r#"{"event":"skew","note":"a\nb","offset_ms":-200,"tick":2}"#.to_string()]
        );
    }

    #[test]
    fn clones_share_the_buffer() {
        let trace = Trace::new();
        let handle = trace.clone();
        handle.log(1, "via clone");
        assert_eq!(trace.len(), 1);
        assert!(!trace.is_empty());
        assert_eq!(
            trace.lines(),
            vec![r#"{"event":"via clone","tick":1}"#.to_string()]
        );
    }

    #[test]
    fn identical_sequences_render_byte_identically() {
        let record = |t: &Trace| {
            t.log(1, "start");
            t.log_kv(2, "step", &[("n", 4u64.into())]);
            t.log_kv(3, "end", &[("done", true.into())]);
        };
        let (a, b) = (Trace::new(), Trace::new());
        record(&a);
        record(&b);
        assert_eq!(a.lines(), b.lines());
    }
}
