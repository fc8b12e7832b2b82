//! A minimal, dependency-free JSON value, writer, and parser.
//!
//! This is the one JSON implementation the workspace shares: metric
//! snapshots, span/event lines, `IoStats::to_value`, `lobctl` and
//! lobbench all use it, so producer and consumer can never drift apart.
//!
//! Numbers are carried as `f64` (exact for integers up to 2⁵³, far above
//! any counter this workspace produces) and written back as integers
//! whenever they are whole. Object members preserve insertion order.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; members keep insertion order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member of an object by key (`None` for non-objects/missing keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this value is one.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as a `u64`, if it is a whole non-negative number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            #[expect(
                clippy::cast_possible_truncation,
                reason = "the guard admits only whole numbers in 0..=9.0e15"
            )]
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 9.0e15 => Some(*n as u64),
            _ => None,
        }
    }

    /// The string, if this value is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array elements, if this value is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The object members, if this value is an object.
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// Serialize into `out`.
    pub fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::Num(n) => write_num(*n, out),
            Value::Str(s) => write_escaped(s, out),
            Value::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Value::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_escaped(k, out);
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Serialize to a fresh string.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Value {
        Value::Num(n as f64)
    }
}

impl From<f64> for Value {
    fn from(n: f64) -> Value {
        Value::Num(n)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(s)
    }
}

fn write_num(n: f64, out: &mut String) {
    if !n.is_finite() {
        // JSON has no NaN/Inf; null is the conventional stand-in.
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() <= 9.0e15 {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "the branch admits only whole numbers within ±9.0e15"
        )]
        let whole = n as i64;
        let _ = write!(out, "{whole}");
    } else {
        let _ = write!(out, "{n}");
    }
}

/// Write `s` as a JSON string literal, escaping per RFC 8259.
pub fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
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
    out.push('"');
}

/// Where and why parsing failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte index of the error in the input.
    pub at: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parse one JSON document; trailing whitespace is allowed, trailing
/// content is an error.
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        at: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.at != p.bytes.len() {
        return Err(p.err("trailing content after JSON value"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            at: self.at,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.at).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.at += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", char::from(b))))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.at += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.eat(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.at += 1;
            return Ok(Value::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let val = self.value()?;
            members.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(Value::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.at;
        if self.peek() == Some(b'-') {
            self.at += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.at += 1;
        }
        if self.peek() == Some(b'.') {
            self.at += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.at += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.at += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.at += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.at += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.at])
            .map_err(|_| self.err("invalid UTF-8 in number"))?;
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.err("malformed number"))
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.at;
            // Fast path: run of plain bytes.
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.at += 1;
            }
            if self.at > start {
                match std::str::from_utf8(&self.bytes[start..self.at]) {
                    Ok(s) => out.push_str(s),
                    Err(_) => return Err(self.err("invalid UTF-8 in string")),
                }
            }
            match self.peek() {
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.at += 1;
                    self.escape(&mut out)?;
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn escape(&mut self, out: &mut String) -> Result<(), ParseError> {
        let b = self.peek().ok_or_else(|| self.err("dangling escape"))?;
        self.at += 1;
        match b {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'b' => out.push('\u{8}'),
            b'f' => out.push('\u{c}'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'u' => {
                let hi = self.hex4()?;
                let code = if (0xD800..0xDC00).contains(&hi) {
                    // Surrogate pair: require \uXXXX for the low half.
                    if self.peek() == Some(b'\\') {
                        self.at += 1;
                        self.eat(b'u')?;
                        let lo = self.hex4()?;
                        0x10000 + ((hi - 0xD800) << 10) + (lo.wrapping_sub(0xDC00) & 0x3FF)
                    } else {
                        hi
                    }
                } else {
                    hi
                };
                out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
            }
            _ => return Err(self.err("unknown escape")),
        }
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut v: u32 = 0;
        for _ in 0..4 {
            let b = self.peek().ok_or_else(|| self.err("short \\u escape"))?;
            let d = match b {
                b'0'..=b'9' => u32::from(b - b'0'),
                b'a'..=b'f' => u32::from(b - b'a') + 10,
                b'A'..=b'F' => u32::from(b - b'A') + 10,
                _ => return Err(self.err("bad hex digit in \\u escape")),
            };
            v = v * 16 + d;
            self.at += 1;
        }
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(text: &str) -> Value {
        let v = parse(text).unwrap();
        let again = parse(&v.to_json()).unwrap();
        assert_eq!(v, again, "write/parse must round-trip for {text}");
        v
    }

    #[test]
    fn scalars() {
        assert_eq!(roundtrip("null"), Value::Null);
        assert_eq!(roundtrip("true"), Value::Bool(true));
        assert_eq!(roundtrip("false"), Value::Bool(false));
        assert_eq!(roundtrip("42"), Value::Num(42.0));
        assert_eq!(roundtrip("-7"), Value::Num(-7.0));
        assert_eq!(roundtrip("2.5"), Value::Num(2.5));
        assert_eq!(roundtrip("1e3"), Value::Num(1000.0));
        assert_eq!(roundtrip("\"hi\""), Value::Str("hi".to_string()));
    }

    #[test]
    fn integers_print_without_fraction() {
        assert_eq!(Value::Num(3.0).to_json(), "3");
        assert_eq!(Value::Num(3.5).to_json(), "3.5");
        assert_eq!(Value::from(12_345_678_901u64).to_json(), "12345678901");
    }

    #[test]
    fn containers_and_order() {
        let v = roundtrip(r#"{"b": [1, 2, {"x": null}], "a": "z"}"#);
        assert_eq!(v.get("a").and_then(Value::as_str), Some("z"));
        let arr = v.get("b").and_then(Value::as_arr).unwrap();
        assert_eq!(arr.len(), 3);
        // Insertion order is preserved: "b" first.
        assert_eq!(v.as_obj().unwrap()[0].0, "b");
    }

    #[test]
    fn string_escapes() {
        let v = roundtrip(r#""a\"b\\c\nd\teAé""#);
        assert_eq!(v.as_str(), Some("a\"b\\c\nd\teAé"));
        // Control characters are escaped on the way out.
        let s = Value::Str("x\u{1}y".to_string()).to_json();
        assert_eq!(s, "\"x\\u0001y\"");
        // Surrogate pair.
        let v = parse(r#""😀""#).unwrap();
        assert_eq!(v.as_str(), Some("😀"));
    }

    #[test]
    fn unicode_passthrough() {
        let v = roundtrip("\"héllo wörld ★\"");
        assert_eq!(v.as_str(), Some("héllo wörld ★"));
    }

    #[test]
    fn errors_carry_position() {
        for bad in ["", "{", "[1,", "\"abc", "{\"a\" 1}", "tru", "12 34", "{,}"] {
            let e = parse(bad).unwrap_err();
            assert!(e.at <= bad.len(), "{bad}: {e}");
            assert!(!e.message.is_empty());
        }
    }

    #[test]
    fn numeric_accessors() {
        let v = parse("{\"n\": 12, \"f\": 1.5, \"neg\": -1}").unwrap();
        assert_eq!(v.get("n").and_then(Value::as_u64), Some(12));
        assert_eq!(v.get("f").and_then(Value::as_u64), None);
        assert_eq!(v.get("neg").and_then(Value::as_u64), None);
        assert_eq!(v.get("f").and_then(Value::as_num), Some(1.5));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn nan_writes_as_null() {
        assert_eq!(Value::Num(f64::NAN).to_json(), "null");
    }
}
