//! JSON for the places the workspace reads it: dim-serve request bodies
//! and the tests that check the committed `BENCH_*.json` files.
//!
//! [`parse_value`] turns text into a [`Value`] tree. [`write_string`] is
//! the one string escaper, shared with dim-serve's hand-built response
//! bodies and the dim-obs and dim-lint JSON reports. No program writes a
//! whole tree back, so the compact tree writer lives with the round-trip
//! tests that use it as their generator.

use std::fmt;

/// Objects and arrays may nest at most this deep. The parser recurses once
/// per level, so the limit keeps hostile input (`[[[[…`) from overflowing a
/// worker's stack; deeper input is an [`Error`].
const MAX_DEPTH: usize = 64;

/// A parsed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// A boolean.
    Bool(bool),
    /// Any number (integers round-trip exactly up to 2^53).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, fields in document order.
    Obj(Vec<(String, Value)>),
}

/// A parse error.
#[derive(Debug, Clone, PartialEq)]
pub struct Error(pub String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.0)
    }
}

impl std::error::Error for Error {}

// ---- string escaper --------------------------------------------------------

/// Appends `s` to `out` as a JSON string literal, quotes included.
pub fn write_string(s: &str, out: &mut String) {
    out.push('"');
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
    out.push('"');
}

// ---- parser ----------------------------------------------------------------

/// Parses JSON text into a [`Value`] tree.
pub fn parse_value(s: &str) -> Result<Value, Error> {
    let chars: Vec<char> = s.chars().collect();
    let mut p = Parser { chars, pos: 0, depth: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.chars.len() {
        return Err(Error(format!("trailing input at char {}", p.pos)));
    }
    Ok(v)
}

struct Parser {
    chars: Vec<char>,
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl Parser {
    fn skip_ws(&mut self) {
        while matches!(self.chars.get(self.pos), Some(c) if c.is_whitespace()) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn expect(&mut self, c: char) -> Result<(), Error> {
        self.skip_ws();
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error(format!("expected {c:?} at char {}, found {:?}", self.pos, self.peek())))
        }
    }

    fn literal(&mut self, word: &str) -> bool {
        let end = self.pos + word.chars().count();
        if end <= self.chars.len()
            && self.chars[self.pos..end].iter().collect::<String>() == word
        {
            self.pos = end;
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some('n') if self.literal("null") => Ok(Value::Null),
            Some('t') if self.literal("true") => Ok(Value::Bool(true)),
            Some('f') if self.literal("false") => Ok(Value::Bool(false)),
            Some('"') => Ok(Value::Str(self.string()?)),
            Some(c @ ('[' | '{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(Error(format!(
                        "nesting deeper than {MAX_DEPTH} at char {}",
                        self.pos
                    )));
                }
                self.depth += 1;
                let v = if c == '[' { self.array() } else { self.object() };
                self.depth -= 1;
                v
            }
            Some(c) if c == '-' || c.is_ascii_digit() => self.number(),
            other => Err(Error(format!("unexpected {other:?} at char {}", self.pos))),
        }
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(',') => self.pos += 1,
                Some(']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                other => {
                    return Err(Error(format!("expected , or ] found {other:?}")));
                }
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.pos += 1;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some('}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(':')?;
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(',') => self.pos += 1,
                Some('}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                other => {
                    return Err(Error(format!("expected , or }} found {other:?}")));
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        if self.peek() != Some('"') {
            return Err(Error(format!("expected string at char {}", self.pos)));
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            let c = self.peek().ok_or_else(|| Error("unterminated string".into()))?;
            self.pos += 1;
            match c {
                '"' => return Ok(out),
                '\\' => {
                    let esc = self.peek().ok_or_else(|| Error("bad escape".into()))?;
                    self.pos += 1;
                    match esc {
                        '"' => out.push('"'),
                        '\\' => out.push('\\'),
                        '/' => out.push('/'),
                        'n' => out.push('\n'),
                        'r' => out.push('\r'),
                        't' => out.push('\t'),
                        'b' => out.push('\u{0008}'),
                        'f' => out.push('\u{000C}'),
                        'u' => {
                            let hi = self.hex4()?;
                            // Surrogate pairs.
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                if !(self.literal("\\u")) {
                                    return Err(Error("lone high surrogate".into()));
                                }
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(Error("bad low surrogate".into()));
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error(format!("bad codepoint {code:#x}")))?,
                            );
                        }
                        other => return Err(Error(format!("bad escape \\{other}"))),
                    }
                }
                c => out.push(c),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let mut code = 0u32;
        for _ in 0..4 {
            let c = self.peek().ok_or_else(|| Error("bad \\u escape".into()))?;
            self.pos += 1;
            code = code * 16
                + c.to_digit(16).ok_or_else(|| Error(format!("bad hex digit {c:?}")))?;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some('-') {
            self.pos += 1;
        }
        while matches!(self.chars.get(self.pos), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some('.') {
            self.pos += 1;
            while matches!(self.chars.get(self.pos), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some('e') | Some('E')) {
            self.pos += 1;
            if matches!(self.peek(), Some('+') | Some('-')) {
                self.pos += 1;
            }
            while matches!(self.chars.get(self.pos), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text: String = self.chars[start..self.pos].iter().collect();
        text.parse::<f64>().map(Value::Num).map_err(|_| Error(format!("bad number {text:?}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Writes a value as compact JSON: the round-trip tests' generator.
    fn to_string(value: &Value) -> String {
        let mut out = String::new();
        write_value(value, &mut out);
        out
    }

    fn write_value(v: &Value, out: &mut String) {
        match v {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) => write_number(*n, out),
            Value::Str(s) => write_string(s, out),
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_value(item, out);
                }
                out.push(']');
            }
            Value::Obj(fields) => {
                out.push('{');
                for (i, (k, val)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(k, out);
                    out.push(':');
                    write_value(val, out);
                }
                out.push('}');
            }
        }
    }

    fn write_number(n: f64, out: &mut String) {
        if !n.is_finite() {
            // JSON has no NaN/Inf; they are written as null.
            out.push_str("null");
            return;
        }
        if n == n.trunc() && n.abs() < 9.007_199_254_740_992e15 {
            out.push_str(&format!("{}", n as i64));
        } else {
            out.push_str(&format!("{n}"));
        }
    }

    #[test]
    fn value_roundtrip() {
        let v = Value::Obj(vec![
            ("a".into(), Value::Num(1.5)),
            ("b".into(), Value::Arr(vec![Value::Null, Value::Bool(true)])),
            ("zh".into(), Value::Str("千克 \"quoted\"\n".into())),
        ]);
        assert_eq!(parse_value(&to_string(&v)).unwrap(), v);
    }

    #[test]
    fn integers_have_no_decimal_point() {
        assert_eq!(to_string(&Value::Num(42.0)), "42");
    }

    #[test]
    fn floats_roundtrip_shortest() {
        for x in [0.1, 1.0 / 3.0, 1e-12, 123456.789] {
            let Value::Num(back) = parse_value(&to_string(&Value::Num(x))).unwrap() else {
                panic!()
            };
            assert_eq!(back, x);
        }
    }

    #[test]
    fn string_escaping_covers_controls() {
        let mut out = String::new();
        write_string("a\"b\\c\nd\u{1}米", &mut out);
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001米\"");
    }

    #[test]
    fn unicode_escapes_parse() {
        let v = parse_value(r#""千克 😀""#).unwrap();
        assert_eq!(v, Value::Str("千克 😀".into()));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_value("{").is_err());
        assert!(parse_value("[1,]").is_err());
        assert!(parse_value("hello").is_err());
        assert!(parse_value("1 2").is_err());
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nested = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(parse_value(&nested(MAX_DEPTH)).is_ok());
        let err = parse_value(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.to_string().starts_with("json error: nesting deeper than 64"), "{err}");
        let obj = "{\"k\":".repeat(MAX_DEPTH + 1) + "1" + &"}".repeat(MAX_DEPTH + 1);
        assert!(parse_value(&obj).is_err());
    }

    #[test]
    fn deeply_nested_input_is_an_error_on_a_default_stack() {
        // A plain spawned thread has the default stack a server worker
        // gets; without the depth cap this input overflows it and aborts.
        let body = "[".repeat(65_000);
        let parsed = std::thread::spawn(move || parse_value(&body).is_err()).join();
        assert_eq!(parsed.ok(), Some(true));
    }

    /// Builds a finite tree from a flat list of draws: each draw picks a
    /// node kind, a number and a string, and containers take their children
    /// from the draws that follow.
    fn tree(draws: &mut std::slice::Iter<'_, (u8, f64, String)>, depth: usize) -> Value {
        let Some((tag, x, s)) = draws.next() else { return Value::Null };
        let width = s.chars().count() % 4;
        match tag % 8 {
            0 => Value::Null,
            1 => Value::Bool(*x < 0.0),
            2 => Value::Num(x.round()),
            3 => Value::Num(*x),
            4 => Value::Num(x * 1e-300),
            5 if depth < 4 => Value::Arr((0..width).map(|_| tree(draws, depth + 1)).collect()),
            6 if depth < 4 => Value::Obj(
                (0..width).map(|i| (format!("{s}{i}"), tree(draws, depth + 1))).collect(),
            ),
            _ => Value::Str(s.clone()),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn written_values_parse_back_equal(
            draws in prop::collection::vec(
                (0u8..8, -1e18f64..1e18, "[\u{0}-\u{1f}\"\\\\/a-z 米😀]{0,6}"),
                1..24,
            )
        ) {
            let v = tree(&mut draws.iter(), 0);
            prop_assert_eq!(parse_value(&to_string(&v)).unwrap(), v);
        }
    }
}
