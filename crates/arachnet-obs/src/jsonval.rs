//! Minimal recursive-descent JSON parser for the observability tooling.
//!
//! The repo is std-only (PR 1 rule), yet three features need to *read*
//! JSON back: the `repro diff` regression sentinel (two `METRICS_*.json`
//! documents), journal recovery ([`crate::read_journal`]), and the Chrome
//! trace well-formedness tests. This parser covers exactly the JSON the
//! repo emits — objects, arrays, strings with the escapes
//! [`crate::json_escape`] produces, `f64` numbers, booleans, `null` — and
//! rejects trailing garbage, so a truncated document never half-parses.

use std::collections::BTreeMap;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`; the repo never emits integers
    /// beyond 2^53 in documents it reads back).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object. Key order is normalized (BTreeMap) — the repo's emitters
    /// already sort keys, and `repro diff` compares by key, not position.
    Obj(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// Object member lookup (`None` for non-objects / absent keys).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The number inside, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The string inside, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The bool inside, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, JsonValue>> {
        match self {
            JsonValue::Obj(m) => Some(m),
            _ => None,
        }
    }
}

/// Parse failure: byte offset plus a short reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input at which parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub reason: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.reason)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    src: &'a str,
    /// Byte offset into `src`; only ever advanced past ASCII bytes or whole
    /// runs that end before one, so it always sits on a char boundary.
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, reason: impl Into<String>) -> Result<T, JsonError> {
        Err(JsonError {
            offset: self.pos,
            reason: reason.into(),
        })
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(format!("expected '{}'", b as char))
        }
    }

    fn literal(&mut self, lit: &str, v: JsonValue) -> Result<JsonValue, JsonError> {
        if self.src[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(v)
        } else {
            self.err(format!("expected `{lit}`"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        if depth > 64 {
            return self.err("nesting too deep");
        }
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => self.err(format!("unexpected byte 0x{c:02x}")),
            None => self.err("unexpected end of input"),
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(out));
        }
        loop {
            out.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(out));
                }
                _ => return self.err("expected ',' or ']'"),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut out = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(out));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value(depth + 1)?;
            out.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(out));
                }
                _ => return self.err("expected ',' or '}'"),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            // Exactly four ASCII hex digits (`from_str_radix`
                            // would also take a sign, as in `\u+041`).
                            let digits = self.src.as_bytes().get(self.pos + 1..self.pos + 5);
                            let hex = digits.and_then(|h| {
                                h.iter().try_fold(0u32, |acc, &b| {
                                    Some(acc * 16 + char::from(b).to_digit(16)?)
                                })
                            });
                            // Surrogate pairs are rejected rather than
                            // recombined: nothing in the repo emits them.
                            match hex.and_then(char::from_u32) {
                                Some(c) => {
                                    out.push(c);
                                    self.pos += 4;
                                }
                                None => return self.err("bad \\u escape"),
                            }
                        }
                        _ => return self.err("bad escape"),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return self.err("raw control character in string"),
                Some(_) => {
                    // Copy the whole run up to the next quote, escape or
                    // control byte in one slice. Those stop bytes are ASCII,
                    // so both ends of the run are char boundaries.
                    let start = self.pos;
                    while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                        self.pos += 1;
                    }
                    out.push_str(&self.src[start..self.pos]);
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        match self.src[start..self.pos].parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(JsonValue::Num(v)),
            _ => {
                self.pos = start;
                self.err("malformed number")
            }
        }
    }
}

/// Parses one complete JSON document; trailing non-whitespace is an error,
/// so a torn tail ("{\"a\":1" with the close brace missing) never parses.
pub fn parse_json(input: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser { src: input, pos: 0 };
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != input.len() {
        return p.err("trailing garbage after document");
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_shapes_the_repo_emits() {
        let doc = r#"{"experiment":"dyn-churn","partial":false,"metrics":{"a":1,"h":{"count":3,"mean":2.5},"neg":-4.25,"nil":null,"big":1e300}}"#;
        let v = parse_json(doc).unwrap();
        assert_eq!(v.get("experiment").unwrap().as_str(), Some("dyn-churn"));
        assert_eq!(v.get("partial").unwrap().as_bool(), Some(false));
        let m = v.get("metrics").unwrap();
        assert_eq!(m.get("a").unwrap().as_f64(), Some(1.0));
        assert_eq!(m.get("h").unwrap().get("mean").unwrap().as_f64(), Some(2.5));
        assert_eq!(m.get("neg").unwrap().as_f64(), Some(-4.25));
        assert_eq!(m.get("nil"), Some(&JsonValue::Null));
        assert_eq!(m.get("big").unwrap().as_f64(), Some(1e300));
    }

    #[test]
    fn arrays_strings_and_escapes_roundtrip() {
        let v = parse_json(r#"[1, "a\"b\\c\nd", true, {"u":"A"}, []]"#).unwrap();
        let arr = v.as_arr().unwrap();
        assert_eq!(arr.len(), 5);
        assert_eq!(arr[1].as_str(), Some("a\"b\\c\nd"));
        assert_eq!(arr[3].get("u").unwrap().as_str(), Some("A"));
        // Everything json_escape produces parses back to the original.
        let raw = "tricky \"quoted\" \\ line\nbreak\ttab \u{1}";
        let doc = format!("\"{}\"", crate::json_escape(raw));
        assert_eq!(parse_json(&doc).unwrap().as_str(), Some(raw));
    }

    #[test]
    fn torn_and_malformed_documents_are_rejected() {
        for bad in [
            "",
            "{",
            "{\"a\":1",
            "{\"a\":1} extra",
            "[1,]",
            "{\"a\"}",
            "\"unterminated",
            "nul",
            "--5",
            "{\"a\":NaN}",
            "\"\\u+041\"",
            "\"\\u004\"",
        ] {
            assert!(parse_json(bad).is_err(), "{bad:?} must not parse");
        }
        let e = parse_json("{\"a\":1").unwrap_err();
        assert!(e.to_string().contains("invalid JSON"), "{e}");
    }
}
