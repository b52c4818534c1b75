//! Minimal JSON reader/writer for the workspace's persistence formats.
//!
//! The build environment is offline (no `serde`), so the plan-cache
//! snapshot ([`crate::plan_cache::PlanCache::to_json`]) and the fleet
//! trace format (`rankmap-fleet`) serialize through this hand-rolled
//! module instead. It supports exactly the JSON the workspace emits:
//! objects, arrays, strings (with `\uXXXX` escapes), `f64`/`u64` numbers,
//! booleans, and `null`.
//!
//! Numbers round-trip losslessly: Rust's `f64` `Display` is
//! shortest-roundtrip, so `parse(format!("{v}"))` recovers the exact
//! bits for every finite value. Non-finite floats have no JSON
//! representation and serialize as `null` (typed readers then fail
//! loudly instead of producing an unparseable file) — encode them as
//! bit patterns where exactness matters (see the plan cache).

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (stored as `f64`; integers up to 2^53 are exact —
    /// use [`Json::as_u64`] for values written from integers).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Keys are sorted (BTreeMap) so serialization is
    /// deterministic.
    Obj(BTreeMap<String, Json>),
}

/// A parse or validation failure: what went wrong and where.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset into the input, or [`JsonError::SEMANTIC`] for errors
    /// about valid JSON whose *content* is wrong (a platform mismatch,
    /// say) — those print without a misleading byte position.
    pub offset: usize,
}

impl JsonError {
    /// Offset sentinel for semantic (non-positional) errors.
    pub const SEMANTIC: usize = usize::MAX;

    /// A semantic error: the JSON parsed fine, its content is invalid.
    pub fn semantic(message: impl Into<String>) -> Self {
        Self { message: message.into(), offset: Self::SEMANTIC }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.offset == Self::SEMANTIC {
            write!(f, "{}", self.message)
        } else {
            write!(f, "JSON error at byte {}: {}", self.offset, self.message)
        }
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// The value as an object, if it is one.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer number that
    /// fits `f64` exactly (≤ 2^53).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 9.007199254740992e15 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// Convenience: member `key` of an object value.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj().and_then(|m| m.get(key))
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                // JSON has no representation for non-finite values; emit
                // null rather than a token (`inf`/`NaN`) that no parser —
                // including this module's — accepts. Typed readers then
                // see a loud type mismatch instead of an unreadable file.
                if !n.is_finite() {
                    out.push_str("null");
                    return;
                }
                // Shortest-roundtrip formatting; integers print bare
                // (except -0.0, whose sign the integer path would drop).
                if n.fract() == 0.0 && n.abs() < 1.0e15 && !(*n == 0.0 && n.is_sign_negative())
                {
                    let _ = fmt::Write::write_fmt(out, format_args!("{}", *n as i64));
                } else {
                    let _ = fmt::Write::write_fmt(out, format_args!("{n}"));
                }
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Compact serialization (no whitespace, sorted object keys) —
/// `value.to_string()` is the snapshot format.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

/// Builds an object from key/value pairs (insertion order is irrelevant —
/// objects serialize with sorted keys).
pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = fmt::Write::write_fmt(out, format_args!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Nesting ceiling: the parser recurses per container level, so corrupt
/// input of repeated `[`/`{` must error before it can exhaust the stack.
/// The workspace's formats nest 3–4 levels deep.
const MAX_DEPTH: usize = 128;

/// Parses one JSON value from `input` (trailing whitespace allowed,
/// anything else is an error; nesting deeper than 128 levels is
/// rejected).
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let bytes = input.as_bytes();
    let mut p = Parser { bytes, pos: 0, depth: 0 };
    let value = p.value()?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError { message: message.to_string(), offset: self.pos }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), JsonError> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", c as char)))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn enter(&mut self) -> Result<(), JsonError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        Ok(())
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.enter()?;
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.enter()?;
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    /// Reads 4 hex digits of a `\uXXXX` escape.
    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        // Exactly four hex digits: `from_str_radix` alone would also take
        // a leading `+`.
        let mut code = 0;
        for &b in &self.bytes[self.pos..self.pos + 4] {
            let digit = char::from(b).to_digit(16).ok_or_else(|| self.err("invalid \\u escape"))?;
            code = code << 4 | digit;
        }
        self.pos += 4;
        Ok(code)
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(c) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let code = self.hex4()?;
                            let ch = match code {
                                // A high surrogate must pair with a low
                                // one: non-BMP characters (emoji in a
                                // trace label, say) can only be escaped
                                // this way by standard serializers.
                                0xD800..=0xDBFF => {
                                    if self.peek() != Some(b'\\')
                                        || self.bytes.get(self.pos + 1) != Some(&b'u')
                                    {
                                        return Err(self.err("unpaired high surrogate"));
                                    }
                                    self.pos += 2;
                                    let low = self.hex4()?;
                                    if !(0xDC00..=0xDFFF).contains(&low) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let scalar =
                                        0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                    char::from_u32(scalar)
                                        .ok_or_else(|| self.err("invalid surrogate pair"))?
                                }
                                0xDC00..=0xDFFF => {
                                    return Err(self.err("unpaired low surrogate"))
                                }
                                _ => char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid \\u escape"))?,
                            };
                            out.push(ch);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => {
                    // Re-decode the UTF-8 sequence starting at c.
                    let start = self.pos - 1;
                    let len = utf8_len(c);
                    if start + len > self.bytes.len() {
                        return Err(self.err("invalid UTF-8 in string"));
                    }
                    let s = std::str::from_utf8(&self.bytes[start..start + len])
                        .map_err(|_| self.err("invalid UTF-8 in string"))?;
                    out.push_str(s);
                    self.pos = start + len;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        text.parse::<f64>()
            .ok()
            // An overflowing literal (1e999) parses to inf; accepting it
            // would break the finite-Num invariant and re-serialize to a
            // token this parser itself rejects.
            .filter(|n| n.is_finite())
            .map(Json::Num)
            .ok_or_else(|| JsonError {
                message: format!("invalid number '{text}'"),
                offset: start,
            })
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_nested_values() {
        let v = obj([
            ("name", Json::Str("fleet".into())),
            ("count", Json::Num(3.0)),
            ("rates", Json::Arr(vec![Json::Num(0.5), Json::Num(1.25e-3)])),
            ("on", Json::Bool(true)),
            ("none", Json::Null),
        ]);
        let text = v.to_string();
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn floats_roundtrip_bit_exactly() {
        for &x in &[0.1, 1.0 / 3.0, f64::MIN_POSITIVE, 12345.6789e-200, -0.0] {
            let text = Json::Num(x).to_string();
            let back = parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} mangled through {text}");
        }
    }

    #[test]
    fn integers_print_bare() {
        assert_eq!(Json::Num(42.0).to_string(), "42");
        assert_eq!(Json::Num(-7.0).to_string(), "-7");
    }

    #[test]
    fn strings_escape_and_unescape() {
        let s = "line\nbreak \"quoted\" back\\slash\ttab ünïcode";
        let text = Json::Str(s.into()).to_string();
        assert_eq!(parse(&text).unwrap().as_str().unwrap(), s);
    }

    #[test]
    fn surrogate_pairs_decode_to_non_bmp_characters() {
        // Standard serializers (Python json.dumps, serde default ASCII
        // mode) escape non-BMP characters as surrogate pairs.
        let v = parse("\"\\ud83d\\ude80-run\"").unwrap();
        assert_eq!(v.as_str().unwrap(), "🚀-run");
        assert!(parse("\"\\ud83d\"").is_err(), "lone high surrogate");
        assert!(parse("\"\\ude80\"").is_err(), "lone low surrogate");
        assert!(parse("\"\\ud83d\\u0041\"").is_err(), "bad low half");
    }

    #[test]
    fn non_finite_numbers_serialize_as_null() {
        assert_eq!(Json::Num(f64::INFINITY).to_string(), "null");
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        // ...which parses back, just not as a number.
        assert_eq!(parse(&Json::Num(f64::NAN).to_string()).unwrap(), Json::Null);
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse("{} x").is_err());
        assert!(parse("[1, 2,]").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn deep_nesting_errors_instead_of_overflowing() {
        let bomb = "[".repeat(100_000);
        let err = parse(&bomb).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
        // Balanced-but-deep input is rejected the same way.
        let deep = format!("{}{}", "[".repeat(200), "]".repeat(200));
        assert!(parse(&deep).is_err());
        // Sane depths still parse.
        let ok = format!("{}1{}", "[".repeat(20), "]".repeat(20));
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn overflowing_number_literals_are_rejected() {
        assert!(parse("1e999").is_err());
        assert!(parse("-1e999").is_err());
        assert!(parse("1e308").is_ok(), "large finite values still parse");
    }

    #[test]
    fn u64_accessor_guards_range_and_fraction() {
        assert_eq!(parse("9007199254740992").unwrap().as_u64(), Some(1u64 << 53));
        assert_eq!(parse("1.5").unwrap().as_u64(), None);
        assert_eq!(parse("-1").unwrap().as_u64(), None);
    }

    #[test]
    fn object_keys_sorted_deterministically() {
        let a = parse(r#"{"b":1,"a":2}"#).unwrap();
        let b = parse(r#"{"a":2,"b":1}"#).unwrap();
        assert_eq!(a.to_string(), b.to_string());
    }
}
