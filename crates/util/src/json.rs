//! A strict, allocation-friendly JSON value with a position-reporting
//! parser and compact/pretty serializers.
//!
//! Object member order is preserved (members are a `Vec`, not a map), so
//! serialization round-trips byte-for-byte modulo whitespace and number
//! formatting. Numbers are stored as `f64`; integral values within the
//! exactly-representable range print without a fractional part.
//!
//! Parsing is recursive, so nesting is capped at [`MAX_DEPTH`] levels: a
//! document nested deeper is refused with [`JsonErrorKind::TooDeep`]
//! instead of overflowing the thread's stack.
//!
//! ```rust
//! use ad_util::Json;
//!
//! let v = Json::parse(r#"{"name": "resnet", "layers": [1, 2, 3]}"#).unwrap();
//! assert_eq!(v.get("name").and_then(Json::as_str), Some("resnet"));
//! assert_eq!(v.get("layers").unwrap().as_array().unwrap().len(), 3);
//! assert!(Json::parse("{oops").is_err());
//! ```

use std::fmt;

/// A JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; member order is preserved.
    Obj(Vec<(String, Json)>),
}

/// Deepest nesting of arrays and objects [`Json::parse`] accepts. The
/// documents this workspace reads (hardware configs, graphs, requests,
/// plans) nest fewer than ten levels. Each level costs ≈ 2 KiB of stack in
/// a debug build (a few hundred bytes optimized), so 64 levels parse and
/// serialize within a 256 KiB thread stack in either profile.
pub const MAX_DEPTH: usize = 64;

/// Why a parse failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JsonErrorKind {
    /// The text is not valid JSON.
    Syntax,
    /// Arrays and objects nest deeper than [`MAX_DEPTH`].
    TooDeep,
}

/// A parse failure with 1-based source coordinates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What kind of failure this is.
    pub kind: JsonErrorKind,
    /// 1-based line of the offending byte.
    pub line: usize,
    /// 1-based column of the offending byte.
    pub col: usize,
    /// What the parser expected or found.
    pub msg: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}, column {}: {}", self.line, self.col, self.msg)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses a complete JSON document (trailing non-whitespace is an error).
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] pinpointing the first offending byte.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("unexpected trailing characters"));
        }
        Ok(v)
    }

    /// Member lookup on an object; `None` for other variants or a missing key.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The payload as a non-negative integer, if it is one exactly.
    // Guarded: only integral values within 2^53 are cast.
    #[allow(clippy::cast_possible_truncation)]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => Some(*n as u64),
            _ => None,
        }
    }

    /// [`Json::as_u64`] narrowed to `usize`.
    #[allow(clippy::cast_possible_truncation)] // 2^53-bounded, see `as_u64`
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().map(|v| v as usize)
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// Compact serialization (no whitespace).
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty serialization with two-space indentation.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_number(out, *n),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => write_seq(
                out,
                indent,
                depth,
                '[',
                ']',
                items.len(),
                |out, i, depth| {
                    items[i].write(out, indent, depth);
                },
            ),
            Json::Obj(members) => write_seq(
                out,
                indent,
                depth,
                '{',
                '}',
                members.len(),
                |out, i, depth| {
                    let (k, v) = &members[i];
                    write_string(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth);
                },
            ),
        }
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::Num(v as f64)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::Num(v as f64)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Num(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Self {
        Json::Str(v)
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(width) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', width * (depth + 1)));
        }
        item(out, i, depth + 1);
    }
    if let Some(width) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', width * depth));
    }
    out.push(close);
}

// Guarded: the integral branch only fires within ±2^53.
#[allow(clippy::cast_possible_truncation)]
fn write_number(out: &mut String, n: f64) {
    if !n.is_finite() {
        // JSON has no NaN/Inf; clamp to null, the least-surprising encoding.
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() <= 2f64.powi(53) {
        out.push_str(&format!("{}", n as i64));
    } else {
        out.push_str(&format!("{n}"));
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the current position.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: impl Into<String>) -> JsonError {
        let mut line = 1;
        let mut col = 1;
        for &b in &self.bytes[..self.pos.min(self.bytes.len())] {
            if b == b'\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
        }
        JsonError {
            kind: JsonErrorKind::Syntax,
            line,
            col,
            msg: msg.into(),
        }
    }

    /// Opens an array or object one level deeper, refusing to nest past
    /// [`MAX_DEPTH`].
    fn enter(&mut self) -> Result<(), JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(JsonError {
                kind: JsonErrorKind::TooDeep,
                ..self.err(format!("nesting deeper than {MAX_DEPTH} levels"))
            });
        }
        self.depth += 1;
        Ok(())
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
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
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.enter()?;
                let v = self.array();
                self.depth -= 1;
                v
            }
            Some(b'{') => {
                self.enter()?;
                let v = self.object();
                self.depth -= 1;
                v
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected character `{}`", c as char))),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        if self.peek() != Some(b'"') {
            return Err(self.err("expected string"));
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("invalid \\u escape"))?;
                            // Surrogate pairs are not supported; BMP only.
                            let c = char::from_u32(hex)
                                .ok_or_else(|| self.err("invalid \\u codepoint"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(self.err("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (multi-byte sequences pass
                    // through unvalidated: the input is already &str).
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && self.bytes[self.pos] & 0xC0 == 0x80 {
                        self.pos += 1;
                    }
                    out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or(""));
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err(format!("invalid number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse(" false ").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("42").unwrap(), Json::Num(42.0));
        assert_eq!(Json::parse("-2.5e2").unwrap(), Json::Num(-250.0));
        assert_eq!(Json::parse("\"hi\"").unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = Json::parse(r#"{"a": [1, {"b": null}], "c": "x"}"#).unwrap();
        assert_eq!(v.get("c").and_then(Json::as_str), Some("x"));
        let a = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(a[0].as_u64(), Some(1));
        assert_eq!(a[1].get("b"), Some(&Json::Null));
    }

    #[test]
    fn preserves_member_order() {
        let v = Json::parse(r#"{"z": 1, "a": 2, "m": 3}"#).unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, vec!["z", "a", "m"]);
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = Json::Str("line\nquote\"backslash\\tab\tunicode\u{1}".into());
        let text = original.to_compact();
        assert_eq!(Json::parse(&text).unwrap(), original);
    }

    #[test]
    fn rejects_malformed_input_with_position() {
        let e = Json::parse("{\"a\": 1,\n  oops}").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.col > 1);
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1, 2").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse("{\"a\" 1}").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn pretty_and_compact_round_trip() {
        let v = Json::parse(r#"{"nums": [1, 2.5], "flag": true, "none": null}"#).unwrap();
        assert_eq!(Json::parse(&v.to_pretty()).unwrap(), v);
        assert_eq!(Json::parse(&v.to_compact()).unwrap(), v);
        assert!(v.to_pretty().contains('\n'));
        assert!(!v.to_compact().contains('\n'));
    }

    #[test]
    fn integers_print_without_fraction() {
        assert_eq!(Json::Num(3.0).to_compact(), "3");
        assert_eq!(Json::Num(3.5).to_compact(), "3.5");
        assert_eq!(Json::Num(-7.0).to_compact(), "-7");
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nest = |open: &str, close: &str, n: usize| open.repeat(n) + "0" + &close.repeat(n);
        assert!(Json::parse(&nest("[", "]", MAX_DEPTH)).is_ok());
        assert!(Json::parse(&nest("{\"a\":", "}", MAX_DEPTH)).is_ok());
        for text in [
            nest("[", "]", MAX_DEPTH + 1),
            nest("{\"a\":", "}", MAX_DEPTH + 1),
            "[".repeat(100_000),
        ] {
            let e = Json::parse(&text).unwrap_err();
            assert_eq!(e.kind, JsonErrorKind::TooDeep);
            assert_eq!(e.line, 1);
        }
        let e = Json::parse("{\"a\": [1, }").unwrap_err();
        assert_eq!(e.kind, JsonErrorKind::Syntax);
    }

    #[test]
    fn accessors_reject_wrong_variants() {
        let v = Json::parse("[1]").unwrap();
        assert_eq!(v.get("x"), None);
        assert_eq!(v.as_str(), None);
        assert_eq!(Json::Num(1.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
    }
}
