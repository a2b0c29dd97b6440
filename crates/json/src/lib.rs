//! A small, dependency-free JSON library for the OASIS wire protocol.
//!
//! The wire crate frames messages as JSON text, and every message is
//! written and read in **one pass**: [`ToJson::write_json`] appends a
//! value's text to a `String`, and [`FromJson::read_json`] pulls a value
//! out of a [`Reader`] positioned in the text. No intermediate tree is
//! built in either direction. Protocol structs and externally tagged
//! enums get both impls from [`json_struct!`] and [`json_enum!`]; only
//! shapes the macros do not cover (optional keys, hex byte strings) are
//! written out against the [`Reader`] and the `write_*` functions here.
//!
//! [`Json`] is the value tree for *documents* — benchmark reports, metric
//! snapshots, a replica's persisted metadata — where the shape is not
//! known in advance. It is one implementor of the two traits among many:
//! [`Json::parse`] is `from_str::<Json>`, `Display` is `write_json`.
//!
//! # What a decoder accepts
//!
//! The same for every type the macros generate: object keys in any order;
//! of a repeated key the first occurrence; unknown keys, skipped but still
//! checked as strictly as anything else; a missing key is an error, and an
//! `Option` field is no exception (it must be present and may be `null`);
//! an enum is the bare string `"Variant"` or the one-key object
//! `{"Variant": body}`; integers must be integers in the field's range
//! (`1.0`, `-1` for a `u64` and `2e70` are refused); at most [`MAX_DEPTH`]
//! levels of nesting anywhere; nothing but whitespace after the value.
//!
//! Numbers are canonicalised: any integer that fits `i64` parses and
//! prints as [`Json::I64`]; integers above `i64::MAX` use [`Json::U64`];
//! everything else is [`Json::F64`]. The [`Json::as_i64`]/[`Json::as_u64`]
//! accessors bridge the two integer variants with range checks, so a
//! `u64` round-trips losslessly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::{self, Write as _};
use std::sync::Arc;

mod macros;
mod reader;

pub use reader::Reader;

/// Maximum nesting depth a reader will accept.
pub const MAX_DEPTH: usize = 128;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer representable as `i64` (the canonical integer form).
    I64(i64),
    /// An integer above `i64::MAX`.
    U64(u64),
    /// Any other number.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; key order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Self {
        Json::Str(s.into())
    }

    /// Builds an object from key/value pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Self {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// The value as an `i64`, if integral and in range.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::I64(i) => Some(*i),
            Json::U64(u) => i64::try_from(*u).ok(),
            _ => None,
        }
    }

    /// The value as a `u64`, if integral and non-negative.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::I64(i) => u64::try_from(*i).ok(),
            Json::U64(u) => Some(*u),
            _ => None,
        }
    }

    /// The value as an `f64`, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::I64(i) => Some(*i as f64),
            Json::U64(u) => Some(*u as f64),
            Json::F64(x) => Some(*x),
            _ => None,
        }
    }

    /// The string payload, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an `Arr`.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The key/value pairs, if this is an `Obj`.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Looks up `key` in an object (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// Parses a JSON document. Trailing non-whitespace is an error.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        from_str(text)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&to_string(self))
    }
}

impl ToJson for Json {
    fn write_json(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => b.write_json(out),
            Json::I64(i) => write_i64(out, *i),
            Json::U64(u) => write_u64(out, *u),
            Json::F64(x) => x.write_json(out),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => items.write_json(out),
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, k);
                    out.push(':');
                    v.write_json(out);
                }
                out.push('}');
            }
        }
    }
}

impl FromJson for Json {
    fn read_json(r: &mut Reader<'_>) -> Result<Self, JsonError> {
        match r.peek() {
            Some(b'n') => r.null().map(|()| Json::Null),
            Some(b't' | b'f') => r.bool().map(Json::Bool),
            Some(b'"') => r.str().map(|s| Json::Str(s.into_owned())),
            Some(b'[') => Vec::read_json(r).map(Json::Arr),
            Some(b'{') => {
                let mut pairs = Vec::new();
                r.object(|r, key| {
                    pairs.push((key.to_string(), Json::read_json(r)?));
                    Ok(())
                })?;
                Ok(Json::Obj(pairs))
            }
            Some(b'-' | b'0'..=b'9') => r.number(),
            _ => Err(JsonError::expected("a JSON value")),
        }
    }
}

/// Appends `s` as a JSON string literal. Bytes that need no escape leave
/// in runs, one `push_str` per run; every escaped byte is ASCII, so a run
/// always ends on a character boundary.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    let mut run_start = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[run_start..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            0x08 => out.push_str("\\b"),
            0x0C => out.push_str("\\f"),
            _ => write!(out, "\\u{b:04x}").expect("formatting into a String cannot fail"),
        }
        run_start = i + 1;
    }
    out.push_str(&s[run_start..]);
    out.push('"');
}

/// Appends `value` in decimal, digit for digit what `Display` prints,
/// without going through `fmt`.
pub fn write_u64(out: &mut String, mut value: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (value % 10) as u8;
        value /= 10;
        if value == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("decimal digits are ascii"));
}

/// Appends `value` in decimal, as [`write_u64`] does.
pub fn write_i64(out: &mut String, value: i64) {
    if value < 0 {
        out.push('-');
    }
    write_u64(out, value.unsigned_abs());
}

/// A parse or conversion failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    message: String,
}

impl JsonError {
    /// Creates an error with the given message.
    pub fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }

    /// Shorthand for "expected X" conversion failures.
    pub fn expected(what: &str) -> Self {
        Self::new(format!("expected {what}"))
    }

    /// A required object key that the text does not have.
    pub fn missing(key: &str) -> Self {
        Self::new(format!("missing field `{key}`"))
    }

    /// A tag that names no variant of `what`, or names one of the other
    /// form (a bare string for a variant with a body, or the reverse).
    pub fn unknown_variant(what: &str, tag: &str) -> Self {
        Self::new(format!("unknown {what} variant `{tag}`"))
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for JsonError {}

/// A value that can write itself as JSON text.
pub trait ToJson {
    /// Appends the JSON text of `self` to `out`.
    fn write_json(&self, out: &mut String);
}

/// A value that can read itself from JSON text.
pub trait FromJson: Sized {
    /// Reads one value at `r`'s position, failing with a descriptive
    /// error on a syntax error or a shape mismatch.
    fn read_json(r: &mut Reader<'_>) -> Result<Self, JsonError>;
}

/// Serialises a value to a JSON string.
pub fn to_string<T: ToJson + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    value.write_json(&mut out);
    out
}

/// Parses a JSON string into a value. Trailing non-whitespace is an error.
pub fn from_str<T: FromJson>(text: &str) -> Result<T, JsonError> {
    let mut reader = Reader::new(text);
    let value = T::read_json(&mut reader)?;
    reader.finish()?;
    Ok(value)
}

impl ToJson for bool {
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl FromJson for bool {
    fn read_json(r: &mut Reader<'_>) -> Result<Self, JsonError> {
        r.bool()
    }
}

impl ToJson for str {
    fn write_json(&self, out: &mut String) {
        write_str(out, self);
    }
}

impl ToJson for String {
    fn write_json(&self, out: &mut String) {
        write_str(out, self);
    }
}

impl FromJson for String {
    fn read_json(r: &mut Reader<'_>) -> Result<Self, JsonError> {
        r.str().map(|s| s.into_owned())
    }
}

impl ToJson for Arc<str> {
    fn write_json(&self, out: &mut String) {
        write_str(out, self);
    }
}

impl FromJson for Arc<str> {
    /// One allocation, like `String`'s: the shared text is built straight
    /// from the borrowed input.
    fn read_json(r: &mut Reader<'_>) -> Result<Self, JsonError> {
        r.str().map(|s| Arc::from(&*s))
    }
}

macro_rules! int_json {
    ($($wide:ident via $write:ident: $($t:ty),*;)*) => {$($(
        impl ToJson for $t {
            fn write_json(&self, out: &mut String) {
                // Lossless: every `$t` fits `$wide`.
                $write(out, *self as $wide);
            }
        }

        impl FromJson for $t {
            fn read_json(r: &mut Reader<'_>) -> Result<Self, JsonError> {
                <$t>::try_from(r.$wide()?).map_err(|_| JsonError::expected(stringify!($t)))
            }
        }
    )*)*};
}

int_json! {
    u64 via write_u64: u8, u16, u32, u64, usize;
    i64 via write_i64: i8, i16, i32, i64, isize;
}

impl ToJson for f64 {
    fn write_json(&self, out: &mut String) {
        const INFALLIBLE: &str = "formatting into a String cannot fail";
        let x = *self;
        if !x.is_finite() {
            out.push_str("null");
        } else if x.fract() == 0.0 && x.abs() < 1e15 {
            // Rust's `Display` for `f64` round-trips; keep the `.0` that
            // marks an integral value as a float.
            write!(out, "{x:.1}").expect(INFALLIBLE);
        } else {
            write!(out, "{x}").expect(INFALLIBLE);
        }
    }
}

impl FromJson for f64 {
    fn read_json(r: &mut Reader<'_>) -> Result<Self, JsonError> {
        r.f64()
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, item) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            item.write_json(out);
        }
        out.push(']');
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn read_json(r: &mut Reader<'_>) -> Result<Self, JsonError> {
        let mut items = Vec::new();
        r.array(|r| {
            items.push(T::read_json(r)?);
            Ok(())
        })?;
        Ok(items)
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn read_json(r: &mut Reader<'_>) -> Result<Self, JsonError> {
        if r.peek() == Some(b'n') {
            r.null().map(|()| None)
        } else {
            T::read_json(r).map(Some)
        }
    }
}

impl<T: ToJson> ToJson for Box<T> {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl<T: FromJson> FromJson for Box<T> {
    fn read_json(r: &mut Reader<'_>) -> Result<Self, JsonError> {
        T::read_json(r).map(Box::new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("42").unwrap(), Json::I64(42));
        assert_eq!(Json::parse("-7").unwrap(), Json::I64(-7));
        assert_eq!(Json::parse("1.5").unwrap(), Json::F64(1.5));
        assert_eq!(Json::parse("\"hi\"").unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn big_u64_survives() {
        let max = u64::MAX.to_string();
        let parsed = Json::parse(&max).unwrap();
        assert_eq!(parsed, Json::U64(u64::MAX));
        assert_eq!(parsed.as_u64(), Some(u64::MAX));
        assert_eq!(parsed.to_string(), max);
    }

    #[test]
    fn integer_canonicalisation_makes_equality_work() {
        // A u64 that fits i64 encodes as I64, so parse(print(x)) == x.
        let v = Json::parse(&to_string(&5u64)).unwrap();
        assert_eq!(v, Json::I64(5));
        assert_eq!(from_str::<u64>(&v.to_string()).unwrap(), 5);
        assert_eq!(from_str::<i64>(&Json::U64(5).to_string()).unwrap(), 5);
    }

    #[test]
    fn string_escapes_round_trip() {
        let ugly = "quote\" slash\\ newline\n tab\t null\u{0} snowman☃";
        let text = Json::Str(ugly.into()).to_string();
        assert_eq!(Json::parse(&text).unwrap(), Json::Str(ugly.into()));
    }

    /// The printer this crate shipped before strings left in runs: one
    /// `write` per character. Kept as the reference the run-wise writer
    /// must match byte for byte (journal frames and wire frames are
    /// compared across versions).
    fn escaped_per_char(s: &str) -> String {
        let mut out = String::from("\"");
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                '\u{08}' => out.push_str("\\b"),
                '\u{0C}' => out.push_str("\\f"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    #[test]
    fn run_wise_escaping_matches_the_per_character_writer() {
        let every_control: String = (0u8..0x20).map(char::from).collect();
        for s in [
            "",
            "plain ascii run",
            "\"",
            "\\",
            "\"\"\\\\",
            "ends with quote\"",
            "\"starts with quote",
            "line\nfeed\rreturn\ttab\u{08}bs\u{0C}ff",
            every_control.as_str(),
            "\u{7f}del is not escaped",
            "é☃😀 multi-byte",
            "☃\"☃\\☃\n☃\u{1}☃",
            "\u{0}\u{1f}é\u{0}",
        ] {
            assert_eq!(to_string(s), escaped_per_char(s), "{s:?}");
            assert_eq!(Json::parse(&to_string(s)).unwrap(), Json::str(s), "{s:?}");
        }
        // Keys go through the same writer.
        let obj = Json::obj(vec![("k\"\n☃", Json::Null)]);
        assert_eq!(
            obj.to_string(),
            format!("{{{}:null}}", escaped_per_char("k\"\n☃"))
        );
    }

    #[test]
    fn unicode_escapes_parse() {
        assert_eq!(Json::parse("\"\\u2603\"").unwrap(), Json::Str("☃".into()));
        // Surrogate pair for 😀 (U+1F600).
        assert_eq!(
            Json::parse("\"\\ud83d\\ude00\"").unwrap(),
            Json::Str("😀".into())
        );
        assert!(Json::parse("\"\\ud83d\"").is_err());
    }

    #[test]
    fn objects_and_arrays_round_trip() {
        let v = Json::obj(vec![
            ("name", Json::str("alice")),
            ("tags", Json::Arr(vec![Json::I64(1), Json::Null])),
            ("nested", Json::obj(vec![("ok", Json::Bool(true))])),
        ]);
        let text = v.to_string();
        assert_eq!(Json::parse(&text).unwrap(), v);
        assert_eq!(v.get("name").unwrap().as_str(), Some("alice"));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn whitespace_tolerated_garbage_rejected() {
        assert!(Json::parse(" { \"a\" : [ 1 , 2 ] } ").is_ok());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("01").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("{{{").is_err());
        assert!(Json::parse("").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn depth_limit_enforced() {
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        assert!(Json::parse(&deep).is_err());
        let ok = "[".repeat(MAX_DEPTH - 2) + &"]".repeat(MAX_DEPTH - 2);
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn trait_round_trips() {
        assert_eq!(to_string(&vec![1u32, 2, 3]), "[1,2,3]");
        let back: Vec<u32> = from_str("[1,2,3]").unwrap();
        assert_eq!(back, vec![1, 2, 3]);
        let opt: Option<String> = from_str("null").unwrap();
        assert_eq!(opt, None);
        let opt: Option<String> = from_str("\"x\"").unwrap();
        assert_eq!(opt, Some("x".to_string()));
        assert!(from_str::<u32>("\"not a number\"").is_err());
        assert!(from_str::<u8>("300").is_err());
        assert!(from_str::<u64>("-1").is_err());
    }

    #[test]
    fn float_printing_round_trips() {
        for x in [1.5f64, -0.25, 1e300, 3.0, 1234567890.0] {
            let text = Json::F64(x).to_string();
            let back = Json::parse(&text).unwrap();
            assert_eq!(back.as_f64(), Some(x), "{text}");
        }
    }

    #[test]
    fn integers_print_as_display_does() {
        for u in [
            0,
            9,
            10,
            99,
            100,
            i64::MAX as u64,
            i64::MAX as u64 + 1,
            u64::MAX,
        ] {
            assert_eq!(to_string(&u), u.to_string());
            assert_eq!(Json::U64(u).to_string(), u.to_string());
        }
        for i in [0, -1, 1, -10, i64::MIN, i64::MIN + 1, i64::MAX] {
            assert_eq!(to_string(&i), i.to_string());
        }
        assert_eq!(to_string(&u8::MAX), "255");
        assert_eq!(to_string(&i8::MIN), "-128");
        assert_eq!(to_string(&usize::MAX), usize::MAX.to_string());
    }

    #[test]
    fn strings_are_borrowed_unless_escaped() {
        use std::borrow::Cow;
        let mut r = Reader::new(r#" "plain é☃" "#);
        assert!(matches!(r.str().unwrap(), Cow::Borrowed("plain é☃")));
        r.finish().unwrap();
        let mut r = Reader::new(r#""a\nb\u00e9""#);
        assert!(matches!(r.str().unwrap(), Cow::Owned(s) if s == "a\nbé"));
        assert!(Reader::new("7").str().is_err());
        assert!(
            Reader::new("\"a\u{1}b\"").str().is_err(),
            "raw control character"
        );
    }

    #[derive(Debug, PartialEq)]
    struct Point {
        x: u32,
        label: Option<String>,
        raw: Vec<u8>,
    }

    /// Bytes as one string of `.` and `#`, to show an `as` codec.
    struct Bits;

    impl Bits {
        fn write_json(bytes: &[u8], out: &mut String) {
            let text: String = bytes
                .iter()
                .map(|b| if *b == 0 { '.' } else { '#' })
                .collect();
            write_str(out, &text);
        }

        fn read_json(r: &mut Reader<'_>) -> Result<Vec<u8>, JsonError> {
            Ok(r.str()?.bytes().map(|b| u8::from(b == b'#')).collect())
        }
    }

    crate::json_struct! { Point { x, label, raw as Bits } }

    #[derive(Debug, PartialEq)]
    enum Shape {
        Dot(Point),
        Mask(Vec<u8>),
        Line { from: Point, to: Point },
        Empty,
        Unknown,
        Origin,
    }

    crate::json_enum! { Shape {
        Dot(p),
        Mask(bits as Bits),
        Line { from, to },
        Empty,
        Unknown = "?",
        Origin = null,
    } }

    fn point(x: u32) -> Point {
        Point {
            x,
            label: None,
            raw: vec![0, 1],
        }
    }

    #[test]
    fn generated_impls_write_and_read_every_shape() {
        let p = r#"{"x":1,"label":null,"raw":".#"}"#;
        for (shape, text) in [
            (Shape::Dot(point(1)), format!(r#"{{"Dot":{p}}}"#)),
            (Shape::Mask(vec![1, 0]), r##"{"Mask":"#."}"##.to_string()),
            (
                Shape::Line {
                    from: point(1),
                    to: point(1),
                },
                format!(r#"{{"Line":{{"from":{p},"to":{p}}}}}"#),
            ),
            (Shape::Empty, r#""Empty""#.to_string()),
            (Shape::Unknown, r#""?""#.to_string()),
            (Shape::Origin, r#"{"Origin":null}"#.to_string()),
        ] {
            assert_eq!(to_string(&shape), text);
            assert_eq!(from_str::<Shape>(&text).unwrap(), shape);
            assert_eq!(Json::parse(&text).unwrap().to_string(), text);
        }
        // A `= null` variant takes any body, checked like any other value.
        assert_eq!(
            from_str::<Shape>(r#"{"Origin":[1,{}]}"#).unwrap(),
            Shape::Origin
        );
        assert!(from_str::<Shape>(r#"{"Origin":[1,]}"#).is_err());
        // A variant has one form only.
        for refused in [
            r#""Origin""#,
            r#""Dot""#,
            r#""Unknown""#,
            r#"{"Empty":null}"#,
            r#"{"?":null}"#,
            r#"{"Nope":1}"#,
            r#"{}"#,
            r#"{"Empty":null,"Empty":null}"#,
            "7",
        ] {
            assert!(from_str::<Shape>(refused).is_err(), "{refused}");
        }
    }

    #[test]
    fn struct_readers_follow_the_documented_rules() {
        let p = point(1);
        for accepted in [
            r#"{"raw":".#","label":null,"x":1}"#,
            r#"{"x":1,"x":"second","label":null,"label":7,"raw":".#"}"#,
            r#"{"x":1,"extra":{"deep":[true,false,null,-1.5e3,"s"]},"label":null,"raw":".#"}"#,
        ] {
            assert_eq!(from_str::<Point>(accepted).unwrap(), p, "{accepted}");
        }
        for (refused, because) in [
            (r#"{"x":1,"raw":".#"}"#, "missing field `label`"),
            (r#"{"x":null,"label":null,"raw":".#"}"#, "bad number"),
            (r#"{"x":1.0,"label":null,"raw":".#"}"#, "expected u64"),
            (r#"{"x":-1,"label":null,"raw":".#"}"#, "expected u64"),
            (
                r#"{"x":4294967296,"label":null,"raw":".#"}"#,
                "expected u32",
            ),
            (
                r#"{"x":1,"label":null,"raw":".#","extra":[1,]}"#,
                "unexpected input",
            ),
            (
                r#"{"x":1,"label":null,"raw":".#"} ,"#,
                "trailing characters",
            ),
            ("[]", "missing field `x`"),
            ("null", "missing field `x`"),
        ] {
            let err = from_str::<Point>(refused).unwrap_err().to_string();
            assert!(err.contains(because), "{refused}: {err}");
        }
    }

    #[test]
    fn depth_is_counted_across_typed_readers_and_skipped_values() {
        // `[[…[1]…]]`: the number sits `arrays` levels down.
        let nested = |arrays: usize| "[".repeat(arrays) + "1" + &"]".repeat(arrays);
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        assert!(Json::parse(&nested(MAX_DEPTH + 1)).is_err());
        // The same text under an unknown key one level down.
        let skipped = |arrays| format!(r#"{{"x":1,"label":null,"raw":"","u":{}}}"#, nested(arrays));
        assert!(from_str::<Point>(&skipped(MAX_DEPTH - 1)).is_ok());
        assert!(from_str::<Point>(&skipped(MAX_DEPTH)).is_err());
        // And through typed readers all the way down.
        type Deep = Vec<Vec<Vec<Option<Box<Json>>>>>;
        let typed = |arrays| format!("[[[{}]]]", nested(arrays));
        assert!(from_str::<Deep>(&typed(MAX_DEPTH - 3)).is_ok());
        assert!(from_str::<Deep>(&typed(MAX_DEPTH - 2)).is_err());
    }

    #[test]
    fn first_key_looks_without_moving() {
        let mut r = Reader::new(r#" { "Dea\u0064line" : 1 } "#);
        assert_eq!(r.first_key().as_deref(), Some("Deadline"));
        assert_eq!(
            Json::read_json(&mut r).unwrap().get("Deadline"),
            Some(&Json::I64(1))
        );
        for keyless in ["{}", "\"Ping\"", "[{\"a\":1}]", "", "{7:1}"] {
            assert_eq!(Reader::new(keyless).first_key(), None, "{keyless}");
        }
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        /// An arbitrary document, at most `depth` containers deep.
        fn document(depth: u32) -> BoxedStrategy<Json> {
            let scalar = prop_oneof![
                Just(Json::Null),
                any::<bool>().prop_map(Json::Bool),
                any::<i64>().prop_map(Json::I64),
                (i64::MAX as u64 + 1..=u64::MAX).prop_map(Json::U64),
                any::<i32>().prop_map(|x| Json::F64(f64::from(x) / 8.0 + 0.0625)),
                "[ -~\\n\\t\u{0}\u{1f}é☃😀]{0,12}".prop_map(Json::Str),
            ];
            if depth == 0 {
                return scalar.boxed();
            }
            let inner = document(depth - 1);
            prop_oneof![
                scalar,
                proptest::collection::vec(inner.clone(), 0..4).prop_map(Json::Arr),
                proptest::collection::vec(("[ -~\\n☃]{0,6}", inner), 0..4).prop_map(Json::Obj),
            ]
            .boxed()
        }

        proptest! {
            #[test]
            fn documents_round_trip_and_skip_as_they_parse(doc in document(3)) {
                let text = doc.to_string();
                prop_assert_eq!(&Json::parse(&text).unwrap(), &doc);
                let mut r = Reader::new(&text);
                r.skip().unwrap();
                r.finish().unwrap();
                // Every proper prefix is refused, by the parser and by `skip`.
                for cut in (0..text.len()).filter(|&cut| text.is_char_boundary(cut)) {
                    let number = matches!(doc, Json::I64(_) | Json::U64(_) | Json::F64(_));
                    if !number {
                        prop_assert!(Json::parse(&text[..cut]).is_err(), "{}", &text[..cut]);
                    }
                    let mut r = Reader::new(&text[..cut]);
                    let skipped = r.skip().and_then(|()| r.finish()).is_ok();
                    prop_assert_eq!(skipped, Json::parse(&text[..cut]).is_ok());
                }
            }

            #[test]
            fn arbitrary_text_never_panics_and_skip_agrees_with_parse(text in "\\PC{0,40}") {
                let mut r = Reader::new(&text);
                let skipped = r.skip().and_then(|()| r.finish()).is_ok();
                prop_assert_eq!(skipped, Json::parse(&text).is_ok());
            }

            #[test]
            fn arbitrary_strings_round_trip(s in ".*") {
                let text = Json::Str(s.clone()).to_string();
                prop_assert_eq!(&text, &escaped_per_char(&s));
                prop_assert_eq!(Json::parse(&text).unwrap(), Json::Str(s));
            }

            #[test]
            fn arbitrary_u64_round_trip(x in proptest::prelude::any::<u64>()) {
                let text = to_string(&x);
                prop_assert_eq!(&text, &x.to_string());
                let back: u64 = crate::from_str(&text).unwrap();
                prop_assert_eq!(back, x);
            }

            #[test]
            fn arbitrary_i64_round_trip(x in proptest::prelude::any::<i64>()) {
                let text = to_string(&x);
                prop_assert_eq!(&text, &x.to_string());
                let back: i64 = crate::from_str(&text).unwrap();
                prop_assert_eq!(back, x);
            }
        }
    }
}
