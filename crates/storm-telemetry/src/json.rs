//! Minimal hand-rolled JSON support (the repo vendors no serde): a
//! string escaper used by the exporters, a [`Writer`] that emits compact
//! JSON text straight into one `String`, and a [`Value`] model with one
//! strict parser for the self-contained artifacts the workspace emits and
//! replays (DST repro files, cluster checkpoints). [`render`] writes a
//! [`Value`] through the same [`Writer`], so separators and escaping have
//! one implementation. [`validate_json`] is the parser with the value
//! thrown away, so what validates is exactly what parses. Numbers keep
//! their source token so 64-bit seeds round-trip without `f64` precision
//! loss.

use std::fmt::{Display, Write as _};

/// Append `s` to `out` with JSON string escaping (quotes, backslashes,
/// and control characters).
pub fn escape_into(out: &mut String, s: &str) {
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

/// Compact JSON text, written straight into one `String` with no value
/// tree in between. Separators need no position tracking: a comma goes
/// before every value and key unless the text is empty or ends in `[`,
/// `{` or `:` — a scalar always ends in a digit, a letter or a quote.
#[derive(Debug, Default)]
pub struct Writer {
    out: String,
}

impl Writer {
    /// The text written so far.
    pub fn finish(self) -> String {
        self.out
    }

    fn sep(&mut self) {
        if !matches!(self.out.as_bytes().last(), None | Some(b'[' | b'{' | b':')) {
            self.out.push(',');
        }
    }

    /// `null`.
    pub fn null(&mut self) {
        self.sep();
        self.out.push_str("null");
    }

    /// `true` or `false`.
    pub fn bool(&mut self, b: bool) {
        self.sep();
        self.out.push_str(if b { "true" } else { "false" });
    }

    /// A number, as `n` displays: an integer, or a number token.
    pub fn num(&mut self, n: impl Display) {
        self.sep();
        let _ = write!(self.out, "{n}");
    }

    /// A string, quoted and escaped.
    pub fn str(&mut self, s: &str) {
        self.sep();
        self.out.push('"');
        escape_into(&mut self.out, s);
        self.out.push('"');
    }

    /// An object member's key; write its value next.
    pub fn key(&mut self, k: &str) {
        self.str(k);
        self.out.push(':');
    }

    /// An array whose elements `items` writes.
    pub fn arr(&mut self, items: impl FnOnce(&mut Self)) {
        self.sep();
        self.out.push('[');
        items(self);
        self.out.push(']');
    }

    /// An object whose keys and values `members` writes.
    pub fn obj(&mut self, members: impl FnOnce(&mut Self)) {
        self.sep();
        self.out.push('{');
        members(self);
        self.out.push('}');
    }

    /// A parsed [`Value`], member order as held.
    pub fn value(&mut self, value: &Value) {
        match value {
            Value::Null => self.null(),
            Value::Bool(b) => self.bool(*b),
            Value::Num(tok) => self.num(tok),
            Value::Str(s) => self.str(s),
            Value::Arr(items) => self.arr(|w| items.iter().for_each(|v| w.value(v))),
            Value::Obj(members) => self.obj(|w| {
                for (k, v) in members {
                    w.key(k);
                    w.value(v);
                }
            }),
        }
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number, kept as its source token (integer-exact round-trips).
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source key order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Object member lookup.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `u64`, if it is an integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(tok) => tok.parse().ok(),
            _ => None,
        }
    }

    /// The value as `i64`, if it is an integral number.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Num(tok) => tok.parse().ok(),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Required-member helpers for artifact decoding: error out with the
    /// member path instead of panicking on malformed input.
    pub fn req(&self, key: &str) -> Result<&Value, String> {
        self.get(key)
            .ok_or_else(|| format!("missing member {key:?}"))
    }

    /// Required `u64` member.
    pub fn req_u64(&self, key: &str) -> Result<u64, String> {
        self.req(key)?
            .as_u64()
            .ok_or_else(|| format!("member {key:?} is not a u64"))
    }

    /// Required string member.
    pub fn req_str(&self, key: &str) -> Result<&str, String> {
        self.req(key)?
            .as_str()
            .ok_or_else(|| format!("member {key:?} is not a string"))
    }
}

/// Nesting limit for arrays and objects, so hostile input cannot
/// exhaust the stack.
const MAX_DEPTH: usize = 128;

/// Parse a JSON document: one value with nothing but whitespace around
/// it. The grammar is strict — numbers are `-?digits(.digits)?
/// ([eE][+-]?digits)?`, strings accept exactly the JSON escapes and no
/// raw control characters, and nesting stops at 128 levels — and one
/// pass over the input suffices. Errors carry a byte offset.
pub fn parse(input: &str) -> Result<Value, String> {
    let mut p = Parser { s: input, i: 0 };
    let value = p.value(0)?;
    p.skip_ws();
    if p.i != input.len() {
        return Err(p.err("trailing data"));
    }
    Ok(value)
}

/// Check that `s` is a single well-formed JSON value (see [`parse`]).
pub fn validate_json(s: &str) -> Result<(), String> {
    parse(s).map(|_| ())
}

struct Parser<'a> {
    s: &'a str,
    i: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.i)
    }

    fn peek(&self) -> Option<u8> {
        self.s.as_bytes().get(self.i).copied()
    }

    fn eat(&mut self, c: u8) -> bool {
        let hit = self.peek() == Some(c);
        self.i += usize::from(hit);
        hit
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn literal(&mut self, lit: &str, value: Value) -> Result<Value, String> {
        if self.s[self.i..].starts_with(lit) {
            self.i += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn digits(&mut self) -> Result<(), String> {
        let start = self.i;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.i += 1;
        }
        if self.i == start {
            Err(self.err("expected digits"))
        } else {
            Ok(())
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.i;
        self.eat(b'-');
        self.digits()?;
        if self.eat(b'.') {
            self.digits()?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.i += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.i += 1;
            }
            self.digits()?;
        }
        Ok(Value::Num(self.s[start..self.i].to_string()))
    }

    /// A string at the opening quote. Runs of plain characters are copied
    /// as whole slices: each run ends at an ASCII byte, so it lies on
    /// `char` boundaries of the already-valid UTF-8 input.
    fn string(&mut self) -> Result<String, String> {
        self.i += 1;
        let mut out = String::new();
        let s = self.s;
        loop {
            let run = s.as_bytes()[self.i..]
                .iter()
                .position(|&c| c == b'"' || c == b'\\' || c < 0x20)
                .ok_or_else(|| self.err("unterminated string"))?;
            out.push_str(&s[self.i..self.i + run]);
            self.i += run;
            match s.as_bytes()[self.i] {
                b'"' => {
                    self.i += 1;
                    return Ok(out);
                }
                b'\\' => self.i += 1,
                _ => return Err(self.err("raw control character in string")),
            }
            out.push(match self.peek() {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'u') => {
                    let code = self
                        .s
                        .get(self.i + 1..self.i + 5)
                        .filter(|h| h.bytes().all(|c| c.is_ascii_hexdigit()))
                        .and_then(|h| u32::from_str_radix(h, 16).ok())
                        .ok_or_else(|| self.err("bad \\u escape"))?;
                    self.i += 4;
                    char::from_u32(code).unwrap_or('\u{FFFD}')
                }
                _ => return Err(self.err("bad escape")),
            });
            self.i += 1;
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, String> {
        self.i += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            if self.eat(b']') {
                return Ok(Value::Arr(items));
            }
            if !self.eat(b',') {
                return Err(self.err("expected ',' or ']'"));
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, String> {
        self.i += 1;
        let mut members = Vec::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Ok(Value::Obj(members));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected a string key"));
            }
            let key = self.string()?;
            self.skip_ws();
            if !self.eat(b':') {
                return Err(self.err("expected ':'"));
            }
            members.push((key, self.value(depth + 1)?));
            self.skip_ws();
            if self.eat(b'}') {
                return Ok(Value::Obj(members));
            }
            if !self.eat(b',') {
                return Err(self.err("expected ',' or '}'"));
            }
        }
    }
}

/// Render a [`Value`] as compact JSON (deterministic: member order is the
/// order held in the value).
pub fn render(value: &Value) -> String {
    let mut w = Writer::default();
    w.value(value);
    w.finish()
}

/// Convenience constructor for a JSON number from any displayable value.
pub fn num(n: impl std::fmt::Display) -> Value {
    Value::Num(n.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_round_trips_a_document() {
        let doc = Value::Obj(vec![
            ("name".into(), Value::Str("two-node \"launch\"".into())),
            ("seed".into(), num(u64::MAX)),
            ("delta".into(), num(-42)),
            (
                "ties".into(),
                Value::Arr(vec![num(0), num(3), Value::Null, Value::Bool(true)]),
            ),
            ("empty".into(), Value::Obj(vec![])),
        ]);
        let text = render(&doc);
        validate_json(&text).unwrap();
        let back = parse(&text).unwrap();
        assert_eq!(back, doc);
        // 64-bit integers survive exactly (no f64 round-trip).
        assert_eq!(back.req_u64("seed").unwrap(), u64::MAX);
        assert_eq!(back.get("delta").unwrap().as_i64(), Some(-42));
        assert_eq!(back.req_str("name").unwrap(), "two-node \"launch\"");
    }

    #[test]
    fn value_parser_rejects_malformed_input() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":1} trailing").is_err());
        assert!(parse("\"unterminated").is_err());
        let missing = Value::Obj(vec![]);
        assert!(missing.req_u64("absent").is_err());
    }

    #[test]
    fn accepts_well_formed_json() {
        for ok in [
            "null",
            "true",
            "-12.5e+3",
            "\"a\\n\\u00e9b\"",
            "[]",
            "{}",
            "[1, [2, {\"k\": \"v\"}], false]",
            "  {\"a\": {\"b\": [1, 2, 3]}}  ",
        ] {
            validate_json(ok).unwrap_or_else(|e| panic!("{ok}: {e}"));
        }
    }

    #[test]
    fn rejects_malformed_json() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "{\"a\": 1} x",
            "\"unterminated",
            "nul",
            "01x",
            "\"bad \\q escape\"",
        ] {
            assert!(validate_json(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let err = parse(&"[".repeat(100_000)).unwrap_err();
        assert!(err.contains("nesting too deep"), "{err}");
        let ok = format!("{}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        parse(&ok).unwrap();
        let over = format!("[{ok}]");
        assert!(parse(&over).is_err());
    }

    #[test]
    fn numbers_follow_the_strict_grammar() {
        for bad in ["1-2", "-", "--5", "1e", "[1.2.3]", "1.", ".5", "+1", "1e+"] {
            assert!(parse(bad).is_err(), "parse accepted {bad}");
            assert!(validate_json(bad).is_err(), "validate_json accepted {bad}");
        }
        for ok in ["0", "-0", "12", "-1.5", "2e10", "2E-3", "1.25e+2"] {
            assert_eq!(parse(ok), Ok(Value::Num(ok.into())), "{ok}");
        }
    }

    #[test]
    fn strings_decode_every_json_escape() {
        let v = parse(r#""\"\\\/\b\f\n\r\téA""#).unwrap();
        assert_eq!(v.as_str(), Some("\"\\/\u{8}\u{c}\n\r\té\u{41}"));
        assert_eq!(parse(r#""a€b\n€""#).unwrap().as_str(), Some("a€b\n€"));
        for bad in [r#""\u12g4""#, r#""\u12""#, "\"raw\ttab\"", r#""\x""#] {
            assert!(parse(bad).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn writer_places_separators_without_tracking_position() {
        let mut w = Writer::default();
        w.obj(|w| {
            w.key("a");
            w.arr(|w| {
                w.num(1);
                w.arr(|_| {});
                w.obj(|_| {});
                w.str("x[");
                w.null();
            });
            w.key("b:");
            w.bool(false);
            w.key("c");
            w.obj(|w| {
                w.key("d");
                w.num(-2);
            });
        });
        assert_eq!(
            w.finish(),
            r#"{"a":[1,[],{},"x[",null],"b:":false,"c":{"d":-2}}"#
        );
    }

    #[test]
    fn escape_round_trips_through_validator() {
        let mut s = String::from("\"");
        escape_into(&mut s, "line\nquote\" back\\slash tab\t ctl\u{1} é");
        s.push('"');
        validate_json(&s).unwrap();
    }
}
