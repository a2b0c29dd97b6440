//! The pull reader: the one JSON grammar of this crate.
//!
//! A [`FromJson`](crate::FromJson) implementation asks the [`Reader`] for
//! the value it expects next and gets it straight from the text; nothing
//! is built in between. [`Json`] is read through the same calls, so the
//! document parser and the typed decoders accept the same syntax: RFC 8259
//! with whitespace, no leading zeros, strict escapes and surrogate pairs,
//! and at most [`MAX_DEPTH`] levels of nesting counted across every nested
//! reader call, skipped values included.

use std::borrow::Cow;

use crate::{Json, JsonError, MAX_DEPTH};

/// A cursor over one JSON text. After any call returns an error the
/// reader's position is unspecified: give the text up.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    text: &'a str,
    pos: usize,
    /// Containers open around the cursor.
    depth: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`.
    pub fn new(text: &'a str) -> Self {
        Self {
            text,
            pos: 0,
            depth: 0,
        }
    }

    /// Ends the read: anything but whitespace after the value is an error.
    pub fn finish(mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos == self.text.len() {
            Ok(())
        } else {
            Err(self.error_here("trailing characters"))
        }
    }

    fn error_here(&self, what: &str) -> JsonError {
        JsonError::new(format!("{what} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.byte() {
            self.pos += 1;
        }
    }

    /// The byte under the cursor.
    fn byte(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.byte() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error_here(&format!("expected `{}`", b as char)))
        }
    }

    /// Moves to the first byte of the next value and returns it, refusing
    /// a value nested deeper than [`MAX_DEPTH`].
    fn value_start(&mut self) -> Result<Option<u8>, JsonError> {
        if self.depth > MAX_DEPTH {
            return Err(JsonError::new("nesting too deep"));
        }
        self.skip_ws();
        Ok(self.byte())
    }

    /// The first byte of the next value (`None` at the end of the text),
    /// for choosing how to read it.
    pub fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.byte()
    }

    /// The first key of the next value when that is an object with one,
    /// without moving: how [`tagged`](Self::tagged) text is told apart
    /// before it is read.
    pub fn first_key(&self) -> Option<Cow<'a, str>> {
        let mut probe = self.clone();
        if probe.peek() != Some(b'{') {
            return None;
        }
        probe.pos += 1;
        probe.skip_ws();
        probe.string().ok()
    }

    fn literal(&mut self, word: &str) -> Result<(), JsonError> {
        self.value_start()?;
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(self.error_here("invalid literal"))
        }
    }

    /// Reads `null`.
    pub fn null(&mut self) -> Result<(), JsonError> {
        self.literal("null")
    }

    /// Reads `true` or `false`.
    pub fn bool(&mut self) -> Result<bool, JsonError> {
        match self.peek() {
            Some(b't') => self.literal("true").map(|()| true),
            Some(b'f') => self.literal("false").map(|()| false),
            _ => Err(JsonError::expected("bool")),
        }
    }

    /// Reads an integer that fits `u64`; a fraction, an exponent or a
    /// minus sign on anything but zero is refused.
    pub fn u64(&mut self) -> Result<u64, JsonError> {
        if let Some(value) = self.plain_integer(u64::MAX)? {
            return Ok(value);
        }
        self.number()?
            .as_u64()
            .ok_or_else(|| JsonError::expected("u64"))
    }

    /// Reads an integer that fits `i64`; fractions and exponents are
    /// refused.
    pub fn i64(&mut self) -> Result<i64, JsonError> {
        if let Some(value) = self.plain_integer(i64::MAX as u64)? {
            return Ok(value as i64);
        }
        self.number()?
            .as_i64()
            .ok_or_else(|| JsonError::expected("i64"))
    }

    /// The common integer read straight from the text: an unsigned run of
    /// digits, without a leading zero, a fraction or an exponent, whose
    /// value is at most `max`. Anything else (a sign, `01`, `1.0`, `1e3`,
    /// a larger value, no digit at all) is left where it is, for
    /// [`number`](Self::number) to read or refuse exactly as it always
    /// has.
    fn plain_integer(&mut self, max: u64) -> Result<Option<u64>, JsonError> {
        self.value_start()?;
        let rest = &self.text.as_bytes()[self.pos..];
        let run = rest.iter().take_while(|b| b.is_ascii_digit()).count();
        // Nineteen digits always fit a `u64`; twenty may not.
        if run == 0 || run > 19 || (run > 1 && rest[0] == b'0') {
            return Ok(None);
        }
        if let Some(b'.' | b'e' | b'E') = rest.get(run) {
            return Ok(None);
        }
        let value = rest[..run]
            .iter()
            .fold(0u64, |n, d| n * 10 + u64::from(d - b'0'));
        if value > max {
            return Ok(None);
        }
        self.pos += run;
        Ok(Some(value))
    }

    /// Reads any number.
    pub fn f64(&mut self) -> Result<f64, JsonError> {
        self.number()?
            .as_f64()
            .ok_or_else(|| JsonError::expected("number"))
    }

    /// Reads a string: borrowed from the text unless it holds an escape.
    pub fn str(&mut self) -> Result<Cow<'a, str>, JsonError> {
        if self.value_start()? == Some(b'"') {
            self.string()
        } else {
            Err(JsonError::expected("string"))
        }
    }

    /// Reads an array, calling `item` once per element; `item` must read
    /// (or [`skip`](Self::skip)) exactly that element.
    pub fn array(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        if self.value_start()? != Some(b'[') {
            return Err(JsonError::expected("array"));
        }
        self.pos += 1;
        self.depth += 1;
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(());
        }
        loop {
            item(self)?;
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(());
                }
                _ => return Err(self.error_here("expected `,` or `]`")),
            }
        }
    }

    /// Reads an object, calling `field` with each key in text order;
    /// `field` must read (or [`skip`](Self::skip)) exactly that key's
    /// value. Repeated keys are each reported. A value that is not an
    /// object has no fields: it is skipped whole, as [`Json::get`] answers
    /// `None` on one, so a struct reader reports its first field missing.
    pub fn object(
        &mut self,
        mut field: impl FnMut(&mut Self, &str) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        if self.value_start()? != Some(b'{') {
            return self.skip();
        }
        self.pos += 1;
        self.depth += 1;
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            field(self, &key)?;
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(());
                }
                _ => return Err(self.error_here("expected `,` or `}`")),
            }
        }
    }

    /// Reads an externally tagged value: the bare string `"Tag"`, for
    /// which `variant` gets no body, or the one-key object `{"Tag": body}`,
    /// for which it must read (or [`skip`](Self::skip)) the body. An object
    /// with no key or with more than one is refused; `what` names the type
    /// in errors.
    pub fn tagged<T>(
        &mut self,
        what: &str,
        variant: impl FnOnce(&str, Option<&mut Self>) -> Result<T, JsonError>,
    ) -> Result<T, JsonError> {
        let single = || JsonError::new(format!("expected single-variant {what} object"));
        match self.value_start()? {
            Some(b'"') => variant(&self.string()?, None),
            Some(b'{') => {
                self.pos += 1;
                self.depth += 1;
                if self.peek() != Some(b'"') {
                    return Err(single());
                }
                let tag = self.string()?;
                self.skip_ws();
                self.eat(b':')?;
                let value = variant(&tag, Some(self))?;
                if self.peek() != Some(b'}') {
                    return Err(single());
                }
                self.pos += 1;
                self.depth -= 1;
                Ok(value)
            }
            _ => Err(JsonError::new(format!("expected {what} object"))),
        }
    }

    /// Reads past the next value, whatever it is, checking it as strictly
    /// as if it had been asked for.
    pub fn skip(&mut self) -> Result<(), JsonError> {
        match self.peek() {
            Some(b'n') => self.null(),
            Some(b't' | b'f') => self.bool().map(drop),
            Some(b'"') => self.str().map(drop),
            Some(b'[') => self.array(Self::skip),
            Some(b'{') => self.object(|r, _| r.skip()),
            Some(b'-' | b'0'..=b'9') => self.number().map(drop),
            _ => Err(self.error_here("unexpected input")),
        }
    }

    /// The string literal under the cursor.
    fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.eat(b'"')?;
        let mut owned: Option<String> = None;
        loop {
            let start = self.pos;
            self.pos += special_offset(&self.text.as_bytes()[start..]);
            // A run ends before an ASCII byte or at the end of the text:
            // on a character boundary.
            let run = &self.text[start..self.pos];
            match self.byte() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(match owned {
                        None => Cow::Borrowed(run),
                        Some(mut out) => {
                            out.push_str(run);
                            Cow::Owned(out)
                        }
                    });
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let out = owned.get_or_insert_with(String::new);
                    out.push_str(run);
                    out.push(self.escape()?);
                }
                Some(_) => return Err(self.error_here("control character in string")),
                None => return Err(JsonError::new("unterminated string")),
            }
        }
    }

    fn escape(&mut self) -> Result<char, JsonError> {
        let b = self
            .byte()
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
                    if self.byte() != Some(b'\\') {
                        return Err(JsonError::new("unpaired surrogate"));
                    }
                    self.pos += 1;
                    self.eat(b'u')?;
                    let lo = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err(JsonError::new("invalid low surrogate"));
                    }
                    let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                    char::from_u32(code).ok_or_else(|| JsonError::new("invalid surrogate pair"))?
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
            let digit = self
                .byte()
                .ok_or_else(|| JsonError::new("truncated \\u escape"))?;
            let digit = char::from(digit)
                .to_digit(16)
                .ok_or_else(|| JsonError::new("bad hex digit in \\u escape"))?;
            code = code * 16 + digit;
            self.pos += 1;
        }
        Ok(code)
    }

    fn digits(&mut self) -> bool {
        let start = self.pos;
        while let Some(b'0'..=b'9') = self.byte() {
            self.pos += 1;
        }
        self.pos > start
    }

    /// The number under the cursor, canonicalised as the crate docs say:
    /// `I64` when it fits, `U64` above that, `F64` otherwise.
    pub(crate) fn number(&mut self) -> Result<Json, JsonError> {
        self.value_start()?;
        let start = self.pos;
        let negative = self.byte() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        // Leading-zero rule: "0" may not be followed by another digit.
        if self.byte() == Some(b'0') {
            self.pos += 1;
            if let Some(b'0'..=b'9') = self.byte() {
                return Err(JsonError::new(format!(
                    "leading zero in number at byte {start}"
                )));
            }
        } else if !self.digits() {
            return Err(JsonError::new(format!("bad number at byte {start}")));
        }
        let mut is_float = false;
        if self.byte() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            if !self.digits() {
                return Err(JsonError::new("digits required after decimal point"));
            }
        }
        if let Some(b'e' | b'E') = self.byte() {
            is_float = true;
            self.pos += 1;
            if let Some(b'+' | b'-') = self.byte() {
                self.pos += 1;
            }
            if !self.digits() {
                return Err(JsonError::new("digits required in exponent"));
            }
        }
        let text = &self.text[start..self.pos];
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

/// Whether a string literal's run of plain text ends at `b`: a quote, a
/// backslash or a control character.
fn is_special(b: u8) -> bool {
    b == b'"' || b == b'\\' || b < 0x20
}

/// The offset of the first [special](is_special) byte of `bytes`, or its
/// length when there is none. Eight bytes are tested at a time: a byte
/// `b` of the word `w` sets its high bit in `(w - 0x01..01) & !w & 0x80..80`
/// when it is zero, so `w` XOR a repeated quote or backslash flags those,
/// and `(w - 0x20..20) & !w & 0x80..80` flags every byte below `0x20`. A
/// borrow can only flag a byte above one already flagged, so the lowest
/// flag (little-endian: the lowest set bit) is the first special byte.
fn special_offset(bytes: &[u8]) -> usize {
    const ONES: u64 = u64::from_le_bytes([0x01; 8]);
    const HIGH: u64 = u64::from_le_bytes([0x80; 8]);
    let zero_bytes = |w: u64| w.wrapping_sub(ONES) & !w;
    let mut chunks = bytes.chunks_exact(8);
    let mut offset = 0;
    for chunk in &mut chunks {
        let w = u64::from_le_bytes(chunk.try_into().expect("chunks of eight"));
        let flags = (zero_bytes(w ^ (ONES * u64::from(b'"')))
            | zero_bytes(w ^ (ONES * u64::from(b'\\')))
            | (w.wrapping_sub(ONES * 0x20) & !w))
            & HIGH;
        if flags != 0 {
            return offset + (flags.trailing_zeros() / 8) as usize;
        }
        offset += 8;
    }
    let tail = chunks.remainder();
    offset
        + tail
            .iter()
            .position(|&b| is_special(b))
            .unwrap_or(tail.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The string reader as it was before the word-at-a-time scan: the
    /// reference the scan must agree with, byte for byte.
    fn bytewise_string<'a>(r: &mut Reader<'a>) -> Result<Cow<'a, str>, JsonError> {
        r.eat(b'"')?;
        let mut owned: Option<String> = None;
        loop {
            let start = r.pos;
            let rest = &r.text.as_bytes()[start..];
            r.pos += rest
                .iter()
                .position(|&b| is_special(b))
                .unwrap_or(rest.len());
            let run = &r.text[start..r.pos];
            match r.byte() {
                Some(b'"') => {
                    r.pos += 1;
                    return Ok(match owned {
                        None => Cow::Borrowed(run),
                        Some(mut out) => {
                            out.push_str(run);
                            Cow::Owned(out)
                        }
                    });
                }
                Some(b'\\') => {
                    r.pos += 1;
                    let out = owned.get_or_insert_with(String::new);
                    out.push_str(run);
                    out.push(r.escape()?);
                }
                Some(_) => return Err(r.error_here("control character in string")),
                None => return Err(JsonError::new("unterminated string")),
            }
        }
    }

    /// What a read left behind: the value and where the cursor stopped, or
    /// the error's text.
    fn outcome<T>(r: &Reader<'_>, read: Result<T, JsonError>) -> Result<(T, usize), String> {
        read.map(|v| (v, r.pos)).map_err(|e| e.to_string())
    }

    /// Pieces a generated string literal is built from: plain ASCII,
    /// quotes, valid and invalid escapes, control bytes and multi-byte
    /// UTF-8, so every kind of byte lands at every offset of a word.
    const PIECES: [&str; 20] = [
        "a",
        "bcdefgh",
        "\"",
        "\\",
        "\\\"",
        "\\\\",
        "\\n",
        "\\/",
        "\\u00e9",
        "\\ud83d\\ude00",
        "\\ud83d",
        "\\udc00",
        "\\x",
        "\\u12g4",
        "\u{1}",
        "\u{1f}",
        "\t",
        "é",
        "中",
        "😀",
    ];

    proptest! {
        #[test]
        fn string_scan_agrees_with_the_bytewise_scan(
            pad in 0usize..8,
            pieces in proptest::collection::vec(0usize..PIECES.len(), 0..24),
            close in any::<bool>(),
        ) {
            let mut text = String::from("\"");
            text.push_str(&"~".repeat(pad));
            for &i in &pieces {
                text.push_str(PIECES[i]);
            }
            if close {
                text.push_str("\" ,");
            }
            let mut fast = Reader::new(&text);
            let got = fast.string();
            let mut slow = Reader::new(&text);
            let want = bytewise_string(&mut slow);
            prop_assert_eq!(outcome(&fast, got), outcome(&slow, want));
        }

        #[test]
        fn word_scan_finds_the_first_special_byte(
            bytes in proptest::collection::vec(any::<u8>(), 0..40),
        ) {
            let want = bytes.iter().position(|&b| is_special(b)).unwrap_or(bytes.len());
            prop_assert_eq!(special_offset(&bytes), want);
        }

        #[test]
        fn integer_reads_agree_with_the_number_grammar(
            sign in 0usize..3,
            digits in proptest::collection::vec(0u8..10, 0..22),
            suffix in 0usize..5,
        ) {
            let mut text = ["", "-", " "][sign].to_string();
            text.extend(digits.iter().map(|d| char::from(b'0' + d)));
            text.push_str(["", ".5", "e3", ",", "x"][suffix]);
            assert_integer_reads_unchanged(&text);
        }
    }

    /// `u64` and `i64` give the value, the cursor and the error they gave
    /// when every integer went through [`Reader::number`].
    fn assert_integer_reads_unchanged(text: &str) {
        let mut r = Reader::new(text);
        let got = r.u64();
        let mut reference = Reader::new(text);
        let want = reference
            .number()
            .and_then(|n| n.as_u64().ok_or_else(|| JsonError::expected("u64")));
        assert_eq!(
            outcome(&r, got),
            outcome(&reference, want),
            "u64 of {text:?}"
        );

        let mut r = Reader::new(text);
        let got = r.i64();
        let mut reference = Reader::new(text);
        let want = reference
            .number()
            .and_then(|n| n.as_i64().ok_or_else(|| JsonError::expected("i64")));
        assert_eq!(
            outcome(&r, got),
            outcome(&reference, want),
            "i64 of {text:?}"
        );
    }

    #[test]
    fn integer_edge_cases_keep_their_answers() {
        let cases = [
            "0",
            "00",
            "-0",
            "-1",
            "01",
            "1.0",
            "1e3",
            "1E3",
            "7,",
            " 42 ",
            "",
            "-",
            "x",
            "1000000000000000000",
            "9999999999999999999",
            "10000000000000000000",
            "99999999999999999999",
            "9223372036854775807",
            "9223372036854775808",
            "-9223372036854775808",
            "18446744073709551615",
            "18446744073709551616",
        ];
        for text in cases {
            assert_integer_reads_unchanged(text);
        }
        assert_eq!(Reader::new("18446744073709551615").u64().unwrap(), u64::MAX);
        assert!(Reader::new("18446744073709551616").u64().is_err());
        assert_eq!(Reader::new("-0").u64().unwrap(), 0);
        assert!(Reader::new("00").u64().is_err());
        assert!(Reader::new("1.0").i64().is_err());
    }
}
