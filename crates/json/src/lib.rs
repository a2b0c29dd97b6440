//! A small, dependency-free JSON library for the OASIS wire protocol.
//!
//! The wire crate frames messages as JSON; this crate supplies the value
//! tree ([`Json`]), a strict parser ([`Json::parse`]) with a recursion
//! depth cap, a compact printer ([`Json::to_string`] via `Display`), and
//! the [`ToJson`]/[`FromJson`] conversion traits that protocol types
//! implement by hand.
//!
//! Numbers are canonicalised: any integer that fits `i64` parses and
//! prints as [`Json::I64`]; integers above `i64::MAX` use [`Json::U64`];
//! everything else is [`Json::F64`]. The [`Json::as_i64`]/[`Json::as_u64`]
//! accessors bridge the two integer variants with range checks, so a
//! `u64` round-trips losslessly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

/// Maximum nesting depth the parser will accept.
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

    /// The boolean payload, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
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

    /// Looks up a required object field, with a descriptive error.
    pub fn field(&self, key: &str) -> Result<&Json, JsonError> {
        self.get(key)
            .ok_or_else(|| JsonError::new(format!("missing field `{key}`")))
    }

    /// Parses a JSON document. Trailing non-whitespace is an error.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(JsonError::new(format!(
                "trailing characters at byte {}",
                p.pos
            )));
        }
        Ok(value)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::I64(i) => write!(f, "{i}"),
            Json::U64(u) => write!(f, "{u}"),
            Json::F64(x) => {
                if x.is_finite() {
                    // Ryu-free shortest-ish form: Rust's Display for f64 is
                    // round-trippable.
                    if x.fract() == 0.0 && x.abs() < 1e15 {
                        write!(f, "{x:.1}")
                    } else {
                        write!(f, "{x}")
                    }
                } else {
                    f.write_str("null")
                }
            }
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    item.fmt(f)?;
                }
                f.write_str("]")
            }
            Json::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    f.write_str(":")?;
                    v.fmt(f)?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Writes `s` as a JSON string literal. Bytes that need no escape leave
/// in runs, one `write_str` per run; every escaped byte is ASCII, so a run
/// always ends on a character boundary.
fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    let mut run_start = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        f.write_str(&s[run_start..i])?;
        match b {
            b'"' => f.write_str("\\\"")?,
            b'\\' => f.write_str("\\\\")?,
            b'\n' => f.write_str("\\n")?,
            b'\r' => f.write_str("\\r")?,
            b'\t' => f.write_str("\\t")?,
            0x08 => f.write_str("\\b")?,
            0x0C => f.write_str("\\f")?,
            _ => write!(f, "\\u{b:04x}")?,
        }
        run_start = i + 1;
    }
    f.write_str(&s[run_start..])?;
    f.write_str("\"")
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
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(JsonError::new(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(JsonError::new(format!(
                "invalid literal at byte {}",
                self.pos
            )))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(JsonError::new("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            _ => Err(JsonError::new(format!(
                "unexpected input at byte {}",
                self.pos
            ))),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => {
                    return Err(JsonError::new(format!(
                        "expected `,` or `]` at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => {
                    return Err(JsonError::new(format!(
                        "expected `,` or `}}` at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: copy a run of plain bytes at once.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| JsonError::new("invalid utf-8 in string"))?;
                out.push_str(chunk);
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                Some(_) => {
                    return Err(JsonError::new(format!(
                        "control character in string at byte {}",
                        self.pos
                    )))
                }
                None => return Err(JsonError::new("unterminated string")),
            }
        }
    }

    fn escape(&mut self) -> Result<char, JsonError> {
        let b = self
            .peek()
            .ok_or_else(|| JsonError::new("unterminated escape"))?;
        self.pos += 1;
        Ok(match b {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{08}',
            b'f' => '\u{0C}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let hi = self.hex4()?;
                if (0xD800..0xDC00).contains(&hi) {
                    // Surrogate pair.
                    if self.peek() == Some(b'\\') {
                        self.pos += 1;
                        self.eat(b'u')?;
                        let lo = self.hex4()?;
                        if !(0xDC00..0xE000).contains(&lo) {
                            return Err(JsonError::new("invalid low surrogate"));
                        }
                        let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                        char::from_u32(code)
                            .ok_or_else(|| JsonError::new("invalid surrogate pair"))?
                    } else {
                        return Err(JsonError::new("unpaired surrogate"));
                    }
                } else {
                    char::from_u32(hi).ok_or_else(|| JsonError::new("invalid \\u escape"))?
                }
            }
            _ => return Err(JsonError::new(format!("invalid escape `\\{}`", b as char))),
        })
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let b = self
                .peek()
                .ok_or_else(|| JsonError::new("truncated \\u escape"))?;
            let digit = match b {
                b'0'..=b'9' => (b - b'0') as u32,
                b'a'..=b'f' => (b - b'a' + 10) as u32,
                b'A'..=b'F' => (b - b'A' + 10) as u32,
                _ => return Err(JsonError::new("bad hex digit in \\u escape")),
            };
            code = code * 16 + digit;
            self.pos += 1;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        if !matches!(self.peek(), Some(b'0'..=b'9')) {
            return Err(JsonError::new(format!("bad number at byte {start}")));
        }
        // Leading-zero rule: "0" may not be followed by another digit.
        if self.peek() == Some(b'0') {
            self.pos += 1;
            if matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(JsonError::new(format!(
                    "leading zero in number at byte {start}"
                )));
            }
        } else {
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(JsonError::new("digits required after decimal point"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(JsonError::new("digits required in exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number chars are ascii");
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::I64(i));
            }
            if !negative {
                if let Ok(u) = text.parse::<u64>() {
                    return Ok(Json::U64(u));
                }
            }
        }
        text.parse::<f64>()
            .map(Json::F64)
            .map_err(|_| JsonError::new(format!("unparseable number `{text}`")))
    }
}

/// Conversion of a Rust value into a [`Json`] tree.
pub trait ToJson {
    /// Builds the JSON representation.
    fn to_json(&self) -> Json;
}

/// Conversion of a [`Json`] tree back into a Rust value.
pub trait FromJson: Sized {
    /// Reads the value, failing with a descriptive error on shape mismatch.
    fn from_json(json: &Json) -> Result<Self, JsonError>;
}

/// Serialises a value to a JSON string.
pub fn to_string<T: ToJson + ?Sized>(value: &T) -> String {
    value.to_json().to_string()
}

/// Parses a JSON string into a value.
pub fn from_str<T: FromJson>(text: &str) -> Result<T, JsonError> {
    T::from_json(&Json::parse(text)?)
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl FromJson for Json {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(json.clone())
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        json.as_bool().ok_or_else(|| JsonError::expected("bool"))
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        json.as_str()
            .map(str::to_string)
            .ok_or_else(|| JsonError::expected("string"))
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

macro_rules! int_from_json {
    ($($t:ty => $as:ident),* $(,)?) => {$(
        impl FromJson for $t {
            fn from_json(json: &Json) -> Result<Self, JsonError> {
                json.$as()
                    .and_then(|v| <$t>::try_from(v).ok())
                    .ok_or_else(|| JsonError::expected(stringify!($t)))
            }
        }
    )*};
}

macro_rules! small_int_to_json {
    ($($t:ty),* $(,)?) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::I64(*self as i64)
            }
        }
    )*};
}

macro_rules! wide_uint_to_json {
    ($($t:ty),* $(,)?) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                match i64::try_from(*self) {
                    Ok(i) => Json::I64(i),
                    Err(_) => Json::U64(*self as u64),
                }
            }
        }
    )*};
}

small_int_to_json!(u8, u16, u32, i8, i16, i32, i64, isize);
wide_uint_to_json!(u64, usize);
int_from_json!(u8 => as_u64, u16 => as_u64, u32 => as_u64, u64 => as_u64, usize => as_u64);
int_from_json!(i8 => as_i64, i16 => as_i64, i32 => as_i64, i64 => as_i64, isize => as_i64);

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::F64(*self)
    }
}

impl FromJson for f64 {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        json.as_f64().ok_or_else(|| JsonError::expected("number"))
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        json.as_arr()
            .ok_or_else(|| JsonError::expected("array"))?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        match json {
            Json::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

impl<T: ToJson> ToJson for Box<T> {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

impl<T: FromJson> FromJson for Box<T> {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        T::from_json(json).map(Box::new)
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
        let v = 5u64.to_json();
        assert_eq!(v, Json::I64(5));
        assert_eq!(u64::from_json(&v).unwrap(), 5);
        assert_eq!(i64::from_json(&Json::U64(5)).unwrap(), 5);
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
        assert!(v.field("missing").is_err());
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

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn arbitrary_strings_round_trip(s in ".*") {
                let text = Json::Str(s.clone()).to_string();
                prop_assert_eq!(&text, &escaped_per_char(&s));
                prop_assert_eq!(Json::parse(&text).unwrap(), Json::Str(s));
            }

            #[test]
            fn arbitrary_u64_round_trip(x in proptest::prelude::any::<u64>()) {
                let text = x.to_json().to_string();
                let back: u64 = crate::from_str(&text).unwrap();
                prop_assert_eq!(back, x);
            }

            #[test]
            fn arbitrary_i64_round_trip(x in proptest::prelude::any::<i64>()) {
                let text = x.to_json().to_string();
                let back: i64 = crate::from_str(&text).unwrap();
                prop_assert_eq!(back, x);
            }
        }
    }
}
