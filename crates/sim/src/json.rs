//! Flat JSON-lines codec: a tiny builder/parser pair over one-line
//! objects of numbers, booleans, strings and number arrays, because the
//! build environment vendors no JSON dependency. It is the one codec
//! behind both the interval telemetry lines
//! ([`interval_to_jsonl`](crate::interval_to_jsonl)) and the sweep
//! store's journal in `hipster-core` (cell names, seeds, panic messages).
//!
//! Determinism contract: [`JsonObj::render`] writes fields in insertion
//! order with Rust's shortest-round-trip `f64` formatting, so equal
//! objects always produce identical bytes and `parse → render` is the
//! identity on every line this module emits. `u64` values (seeds, FNV
//! digests) are carried as decimal *strings*: a JSON number parsed
//! through `f64` would silently lose bits above 2⁵³.

use std::fmt::Write as _;

/// A value in the flat-object grammar.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// A finite number, or NaN for a literal `null`.
    Num(f64),
    /// `true` / `false`.
    Bool(bool),
    /// A string (escaped on render).
    Str(String),
    /// An array of numbers.
    Arr(Vec<f64>),
}

/// A flat, ordered JSON object: one line on disk, field order fixed by
/// insertion so rendering is deterministic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JsonObj {
    fields: Vec<(String, JsonValue)>,
}

impl JsonObj {
    /// An empty object.
    pub fn new() -> Self {
        JsonObj { fields: Vec::new() }
    }

    /// Appends a number field (non-finite values render as `null` and
    /// parse back as NaN).
    pub fn num(mut self, key: &str, v: f64) -> Self {
        self.fields.push((key.to_owned(), JsonValue::Num(v)));
        self
    }

    /// Appends a `u64` field, carried exactly as a decimal string.
    pub fn u64(mut self, key: &str, v: u64) -> Self {
        self.fields
            .push((key.to_owned(), JsonValue::Str(v.to_string())));
        self
    }

    /// Appends a boolean field.
    pub fn bool(mut self, key: &str, v: bool) -> Self {
        self.fields.push((key.to_owned(), JsonValue::Bool(v)));
        self
    }

    /// Appends a string field.
    pub fn str(mut self, key: &str, v: &str) -> Self {
        self.fields
            .push((key.to_owned(), JsonValue::Str(v.to_owned())));
        self
    }

    /// Appends a number-array field.
    pub fn arr(mut self, key: &str, vs: &[f64]) -> Self {
        self.fields
            .push((key.to_owned(), JsonValue::Arr(vs.to_vec())));
        self
    }

    /// Prepends a string field (used to stamp the `"cell"` envelope on an
    /// already-built payload).
    pub fn prepend_str(mut self, key: &str, v: &str) -> Self {
        self.fields
            .insert(0, (key.to_owned(), JsonValue::Str(v.to_owned())));
        self
    }

    /// The raw field by key (first occurrence).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// A number field.
    pub fn get_num(&self, key: &str) -> Option<f64> {
        match self.get(key)? {
            JsonValue::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// A `u64` field (decimal string, or an exactly-integral number).
    pub fn get_u64(&self, key: &str) -> Option<u64> {
        match self.get(key)? {
            JsonValue::Str(s) => s.parse().ok(),
            JsonValue::Num(x) => {
                (x.is_finite() && *x >= 0.0 && x.fract() == 0.0 && *x <= 2f64.powi(53))
                    .then_some(*x as u64)
            }
            _ => None,
        }
    }

    /// A string field.
    pub fn get_str(&self, key: &str) -> Option<&str> {
        match self.get(key)? {
            JsonValue::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// A boolean field.
    pub fn get_bool(&self, key: &str) -> Option<bool> {
        match self.get(key)? {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// A number-array field.
    pub fn get_arr(&self, key: &str) -> Option<&[f64]> {
        match self.get(key)? {
            JsonValue::Arr(xs) => Some(xs.as_slice()),
            _ => None,
        }
    }

    /// Renders the object as a single JSON line (no trailing newline).
    pub fn render(&self) -> String {
        let mut w = ObjWriter::with_capacity(128);
        for (k, v) in &self.fields {
            match v {
                JsonValue::Num(x) => w.num(k, *x),
                JsonValue::Bool(b) => w.bool(k, *b),
                JsonValue::Str(s) => w.str(k, s),
                JsonValue::Arr(xs) => w.arr(k, xs),
            }
        }
        w.finish()
    }

    /// Parses one line of the flat grammar. Returns `None` on malformed
    /// input — never panics (torn journal tails land here).
    pub fn parse(line: &str) -> Option<JsonObj> {
        let mut p = Parser {
            bytes: line.trim().as_bytes(),
            pos: 0,
        };
        p.expect(b'{')?;
        let mut fields = Vec::new();
        p.skip_ws();
        if p.peek() == Some(b'}') {
            p.pos += 1;
        } else {
            loop {
                let key = p.string()?;
                p.expect(b':')?;
                let value = p.value()?;
                fields.push((key, value));
                p.skip_ws();
                match p.next_byte()? {
                    b',' => continue,
                    b'}' => break,
                    _ => return None,
                }
            }
        }
        p.skip_ws();
        (p.pos == p.bytes.len()).then_some(JsonObj { fields })
    }
}

/// Writes one flat object field by field, with no intermediate
/// [`JsonObj`]: the one key, number, `null` and array formatter behind
/// both [`JsonObj::render`] and
/// [`interval_to_jsonl`](crate::interval_to_jsonl).
pub(crate) struct ObjWriter {
    out: String,
}

impl ObjWriter {
    /// Opens an object in a buffer of `capacity` bytes.
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        let mut out = String::with_capacity(capacity);
        out.push('{');
        ObjWriter { out }
    }

    /// Writes `"key":`, preceded by a comma unless it is the first field
    /// (the buffer then holds only the opening brace).
    fn key(&mut self, key: &str) {
        if self.out.len() > 1 {
            self.out.push(',');
        }
        self.out.push('"');
        escape_into(&mut self.out, key);
        self.out.push_str("\":");
    }

    /// A number field; non-finite values render as `null`.
    pub(crate) fn num(&mut self, key: &str, x: f64) {
        self.key(key);
        push_num(&mut self.out, x);
    }

    /// A boolean field.
    pub(crate) fn bool(&mut self, key: &str, b: bool) {
        self.key(key);
        self.out.push_str(if b { "true" } else { "false" });
    }

    /// A string field (escaped).
    pub(crate) fn str(&mut self, key: &str, s: &str) {
        self.key(key);
        self.out.push('"');
        escape_into(&mut self.out, s);
        self.out.push('"');
    }

    /// A number-array field; non-finite elements render as `null`.
    pub(crate) fn arr(&mut self, key: &str, xs: &[f64]) {
        self.key(key);
        self.out.push('[');
        for (i, &x) in xs.iter().enumerate() {
            if i > 0 {
                self.out.push(',');
            }
            push_num(&mut self.out, x);
        }
        self.out.push(']');
    }

    /// Closes the object and returns the line (no trailing newline).
    pub(crate) fn finish(mut self) -> String {
        self.out.push('}');
        self.out
    }
}

/// Shortest-round-trip `f64` formatting; `Display` would print `NaN` or
/// `inf`, which is not JSON, so non-finite values write `null` (and parse
/// back as NaN).
fn push_num(out: &mut String, x: f64) {
    if x.is_finite() {
        let _ = write!(out, "{x}");
    } else {
        out.push_str("null");
    }
}

/// Escapes a string body for embedding between JSON quotes.
fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.peek().is_some_and(|b| b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn next_byte(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn expect(&mut self, b: u8) -> Option<()> {
        self.skip_ws();
        (self.next_byte()? == b).then_some(())
    }

    fn string(&mut self) -> Option<String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.next_byte()? {
                b'"' => break,
                b'\\' => match self.next_byte()? {
                    b'"' => s.push('"'),
                    b'\\' => s.push('\\'),
                    b'/' => s.push('/'),
                    b'n' => s.push('\n'),
                    b'r' => s.push('\r'),
                    b't' => s.push('\t'),
                    b'b' => s.push('\u{8}'),
                    b'f' => s.push('\u{c}'),
                    b'u' => {
                        let end = self.pos + 4;
                        let hex = std::str::from_utf8(self.bytes.get(self.pos..end)?).ok()?;
                        let code = u32::from_str_radix(hex, 16).ok()?;
                        s.push(char::from_u32(code)?);
                        self.pos = end;
                    }
                    _ => return None,
                },
                // Multi-byte UTF-8: copy the whole scalar through.
                b if b < 0x80 => s.push(b as char),
                b => {
                    let width = match b {
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        0xf0..=0xf7 => 4,
                        _ => return None,
                    };
                    let start = self.pos - 1;
                    let end = start + width;
                    let chunk = std::str::from_utf8(self.bytes.get(start..end)?).ok()?;
                    s.push_str(chunk);
                    self.pos = end;
                }
            }
        }
        Some(s)
    }

    fn number(&mut self) -> Option<f64> {
        self.skip_ws();
        if self.peek() == Some(b'n') {
            let end = self.pos + 4;
            if self.bytes.get(self.pos..end) == Some(b"null".as_slice()) {
                self.pos = end;
                return Some(f64::NAN);
            }
            return None;
        }
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()?
            .parse()
            .ok()
    }

    fn value(&mut self) -> Option<JsonValue> {
        self.skip_ws();
        match self.peek()? {
            b'"' => Some(JsonValue::Str(self.string()?)),
            b't' | b'f' => {
                let want: &[u8] = if self.peek() == Some(b't') {
                    b"true"
                } else {
                    b"false"
                };
                let end = self.pos + want.len();
                if self.bytes.get(self.pos..end) == Some(want) {
                    self.pos = end;
                    Some(JsonValue::Bool(want == b"true"))
                } else {
                    None
                }
            }
            b'[' => {
                self.pos += 1;
                let mut xs = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Some(JsonValue::Arr(xs));
                }
                loop {
                    xs.push(self.number()?);
                    self.skip_ws();
                    match self.next_byte()? {
                        b',' => continue,
                        b']' => break,
                        _ => return None,
                    }
                }
                Some(JsonValue::Arr(xs))
            }
            _ => Some(JsonValue::Num(self.number()?)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_is_byte_identical() {
        let obj = JsonObj::new()
            .u64("seed", u64::MAX)
            .str("name", "sweep/Memcached/2B-1.15@0.63")
            .num("tail_s", 0.004123456789)
            .bool("ok", true)
            .arr("busy", &[0.5, 0.25, f64::NAN]);
        let line = obj.render();
        let back = JsonObj::parse(&line).expect("parses");
        assert_eq!(back.render(), line);
        assert_eq!(back.get_u64("seed"), Some(u64::MAX));
        assert_eq!(back.get_str("name"), Some("sweep/Memcached/2B-1.15@0.63"));
        assert_eq!(back.get_num("tail_s"), Some(0.004123456789));
        assert_eq!(back.get_bool("ok"), Some(true));
        let busy = back.get_arr("busy").unwrap();
        assert_eq!(&busy[..2], &[0.5, 0.25]);
        assert!(busy[2].is_nan());
    }

    #[test]
    fn strings_escape_and_unescape() {
        let nasty = "panic: \"boom\"\n\tat line 3 \\ {json} \u{1}é漢";
        let line = JsonObj::new().str("panic", nasty).render();
        assert!(!line.contains('\n'), "{line}");
        let back = JsonObj::parse(&line).expect("parses");
        assert_eq!(back.get_str("panic"), Some(nasty));
        assert_eq!(back.render(), line);
    }

    #[test]
    fn malformed_lines_are_none_not_panics() {
        for bad in [
            "",
            "{",
            "}",
            "{\"a\"}",
            "{\"a\":}",
            "{\"a\":1,}",
            "{\"a\":\"unterminated",
            "{\"a\":\"bad\\escape\"}",
            "{\"a\":1} trailing",
            "[1,2]",
            "{\"a\":{\"nested\":1}}",
            "not json at all",
            "{\"a\":tru}",
        ] {
            assert!(JsonObj::parse(bad).is_none(), "{bad:?}");
        }
    }

    #[test]
    fn u64_never_loses_bits() {
        for v in [0u64, 1, 2u64.pow(53) + 1, u64::MAX - 1, u64::MAX] {
            let line = JsonObj::new().u64("v", v).render();
            assert_eq!(JsonObj::parse(&line).unwrap().get_u64("v"), Some(v));
        }
        // Integral f64 numbers are accepted too (small counters).
        let obj = JsonObj::new().num("v", 42.0);
        assert_eq!(obj.get_u64("v"), Some(42));
        assert_eq!(JsonObj::new().num("v", 0.5).get_u64("v"), None);
    }

    #[test]
    fn empty_object_round_trips() {
        let line = JsonObj::new().render();
        assert_eq!(line, "{}");
        assert_eq!(JsonObj::parse("{}"), Some(JsonObj::new()));
    }
}
