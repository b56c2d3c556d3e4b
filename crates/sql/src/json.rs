//! A minimal, dependency-free JSON value type with a parser and a compact
//! writer — the wire format shared by the server protocol and the CLI's
//! `--json` output mode.
//!
//! The build environment is offline (no `serde_json`), so this module is
//! the single serialization point for every machine-readable report shape:
//! both the `starling-server` protocol and `starling --json` build their
//! output through [`Json`], which is what keeps the two from drifting.
//!
//! Design notes:
//!
//! * objects preserve **insertion order** (a `Vec` of pairs, not a map), so
//!   serialized output is deterministic and diffs cleanly;
//! * integers and floats are kept apart ([`Json::Int`] vs [`Json::Float`]);
//!   64-bit digests do not fit `i64`/`f64` losslessly and are serialized as
//!   fixed-width hex **strings** by convention;
//! * the parser is a strict recursive-descent over bytes with a depth limit
//!   (malicious nesting cannot overflow the stack) and full `\uXXXX` escape
//!   handling including surrogate pairs.

use std::fmt;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number without fraction or exponent, within `i64`.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; pairs keep insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from key/value pairs (insertion order preserved).
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// An array from values.
    pub fn arr(items: impl IntoIterator<Item = Json>) -> Json {
        Json::Arr(items.into_iter().collect())
    }

    /// Member lookup on an object (`None` for other variants or a missing
    /// key; first match wins on duplicate keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
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

    /// The integer payload, if this is an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The integer payload as a `usize`, if this is a non-negative integer.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_i64().and_then(|i| usize::try_from(i).ok())
    }

    /// The numeric payload widened to `f64`, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Whether this is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Parses a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    pub fn parse(src: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            src,
            bytes: src.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(v)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}
impl From<i64> for Json {
    fn from(i: i64) -> Json {
        Json::Int(i)
    }
}
impl From<usize> for Json {
    fn from(n: usize) -> Json {
        // Counts in practice are far below i64::MAX; saturate rather than
        // silently wrap if one ever is not.
        Json::Int(i64::try_from(n).unwrap_or(i64::MAX))
    }
}
impl From<f64> for Json {
    fn from(f: f64) -> Json {
        Json::Float(f)
    }
}
impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_owned())
    }
}
impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(o: Option<T>) -> Json {
        o.map_or(Json::Null, Into::into)
    }
}
impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Json {
        Json::Arr(v)
    }
}

/// A 64-bit digest rendered in the wire convention: a fixed-width hex
/// string (JSON numbers cannot carry a `u64` losslessly).
pub fn digest_json(d: u64) -> Json {
    Json::Str(format!("{d:016x}"))
}

impl fmt::Display for Json {
    /// Compact single-line rendering (the newline-delimited protocol
    /// depends on values never containing a raw newline).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_value(f, self)
    }
}

/// Writes `v`'s compact rendering straight into `f`: the one encoder
/// behind [`Json`]'s `Display`.
fn write_value(f: &mut fmt::Formatter<'_>, v: &Json) -> fmt::Result {
    match v {
        Json::Null => f.write_str("null"),
        Json::Bool(b) => f.write_str(if *b { "true" } else { "false" }),
        Json::Int(i) => write_int(f, *i),
        // Guarantee a re-parseable number (Rust prints `1` for 1.0).
        Json::Float(x) if x.is_finite() => {
            if x.fract() == 0.0 && x.abs() < 1e15 {
                write!(f, "{x:.1}")
            } else {
                write!(f, "{x}")
            }
        }
        // NaN/inf have no JSON representation.
        Json::Float(_) => f.write_str("null"),
        Json::Str(s) => write_escaped(f, s),
        Json::Arr(items) => {
            f.write_str("[")?;
            for (i, v) in items.iter().enumerate() {
                if i > 0 {
                    f.write_str(",")?;
                }
                write_value(f, v)?;
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
                write_value(f, v)?;
            }
            f.write_str("}")
        }
    }
}

/// Decimal digits of `i`, most significant first, without `fmt`'s
/// integer machinery.
fn write_int(f: &mut fmt::Formatter<'_>, i: i64) -> fmt::Result {
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    let mut n = i.unsigned_abs();
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    if i < 0 {
        f.write_str("-")?;
    }
    f.write_str(std::str::from_utf8(&buf[at..]).expect("ASCII digits are valid UTF-8"))
}

/// Per byte: 0 if a string literal carries it as is, else the character
/// after the backslash of its escape (`u` for `\u00XX`).
const ESCAPE: [u8; 256] = {
    let mut table = [0u8; 256];
    let mut b = 0;
    while b < 0x20 {
        table[b] = b'u';
        b += 1;
    }
    table[0x08] = b'b';
    table[0x09] = b't';
    table[0x0A] = b'n';
    table[0x0C] = b'f';
    table[0x0D] = b'r';
    table[b'"' as usize] = b'"';
    table[b'\\' as usize] = b'\\';
    table
};

/// `s` as a JSON string literal. Only `"`, `\` and bytes below 0x20 are
/// escaped; every run of bytes between two of them is copied in one step.
/// They are all ASCII, so no run splits a UTF-8 sequence.
fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    f.write_str("\"")?;
    let mut run = 0;
    for (at, &b) in s.as_bytes().iter().enumerate() {
        let escape = ESCAPE[usize::from(b)];
        if escape == 0 {
            continue;
        }
        f.write_str(&s[run..at])?;
        let seq = [
            b'\\',
            escape,
            b'0',
            b'0',
            HEX[usize::from(b >> 4)],
            HEX[usize::from(b & 0xF)],
        ];
        let len = if escape == b'u' { seq.len() } else { 2 };
        f.write_str(std::str::from_utf8(&seq[..len]).expect("escapes are ASCII"))?;
        run = at + 1;
    }
    f.write_str(&s[run..])?;
    f.write_str("\"")
}

/// A parse failure: byte offset plus message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input.
    pub pos: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Nesting depth bound: deeper input is rejected, not recursed into.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: impl Into<String>) -> JsonError {
        JsonError {
            pos: self.pos,
            message: msg.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.lit("null", Json::Null),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected `{}`", c as char))),
            None => Err(self.err("unexpected end of input")),
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
                _ => return Err(self.err("expected `,` or `]`")),
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
            let val = self.value(depth + 1)?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
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
                        Some(b'b') => out.push('\u{08}'),
                        Some(b'f') => out.push('\u{0C}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require \uXXXX low half.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.eat(b'u')?;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(cp)
                                        .ok_or_else(|| self.err("invalid surrogate pair"))?
                                } else {
                                    return Err(self.err("lone high surrogate"));
                                }
                            } else if (0xDC00..0xE000).contains(&hi) {
                                return Err(self.err("lone low surrogate"));
                            } else {
                                char::from_u32(hi).ok_or_else(|| self.err("invalid \\u escape"))?
                            };
                            out.push(c);
                            continue; // hex4 advanced past the digits
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // Copy the run up to the next quote, backslash or
                    // control byte (the bytes the writer escapes) in one
                    // step. Those are all ASCII, so the run ends on a char
                    // boundary of the `&str` input.
                    let start = self.pos;
                    let run = self.bytes[start..]
                        .iter()
                        .position(|&b| ESCAPE[usize::from(b)] != 0)
                        .unwrap_or(self.bytes.len() - start);
                    self.pos = start + run;
                    out.push_str(&self.src[start..self.pos]);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let c = self
                .peek()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = (c as char)
                .to_digit(16)
                .ok_or_else(|| self.err("bad hex digit in \\u escape"))?;
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut float = false;
        if self.peek() == Some(b'.') {
            float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("ASCII digits are valid UTF-8");
        if !float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| self.err(format!("bad number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        for src in ["null", "true", "false", "0", "-17", "3.5", "\"hi\""] {
            let v = Json::parse(src).unwrap();
            assert_eq!(v.to_string(), src, "{src}");
        }
    }

    #[test]
    fn object_preserves_insertion_order() {
        let v = Json::obj([("z", Json::Int(1)), ("a", Json::Int(2))]);
        assert_eq!(v.to_string(), "{\"z\":1,\"a\":2}");
        let back = Json::parse(&v.to_string()).unwrap();
        assert_eq!(back, v);
        assert_eq!(back.get("a").and_then(Json::as_i64), Some(2));
        assert_eq!(back.get("missing"), None);
    }

    #[test]
    fn nested_structures() {
        let src = r#"{"a":[1,2,{"b":null}],"c":{"d":[true,false]},"e":"x"}"#;
        let v = Json::parse(src).unwrap();
        assert_eq!(v.to_string(), src);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
    }

    #[test]
    fn string_escapes() {
        let v = Json::parse(r#""a\"b\\c\ndAé""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\ndAé"));
        // Re-serialization escapes what must be escaped.
        let s = Json::Str("line\nquote\"tab\tctrl\u{01}".into()).to_string();
        assert_eq!(s, "\"line\\nquote\\\"tab\\tctrl\\u0001\"");
        assert_eq!(
            Json::parse(&s).unwrap().as_str(),
            Some("line\nquote\"tab\tctrl\u{01}")
        );
    }

    #[test]
    fn surrogate_pairs() {
        let v = Json::parse(r#""😀""#).unwrap();
        assert_eq!(v.as_str(), Some("😀"));
        assert!(Json::parse(r#""\ud83d""#).is_err());
        assert!(Json::parse(r#""\udc00""#).is_err());
    }

    #[test]
    fn rejects_garbage() {
        for src in ["", "{", "[1,", "{\"a\"}", "1 2", "nul", "{'a':1}", "[1]]"] {
            assert!(Json::parse(src).is_err(), "{src}");
        }
    }

    #[test]
    fn depth_limit() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(Json::parse(&deep).is_err());
        let ok = "[".repeat(50) + &"]".repeat(50);
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn numbers() {
        assert_eq!(
            Json::parse("9007199254740993").unwrap(),
            Json::Int(9007199254740993)
        );
        assert!(matches!(Json::parse("1e3").unwrap(), Json::Float(_)));
        assert!(matches!(
            Json::parse("99999999999999999999").unwrap(),
            Json::Float(_)
        ));
        // Floats serialize re-parseably.
        assert_eq!(Json::Float(2.0).to_string(), "2.0");
        assert_eq!(Json::Float(f64::NAN).to_string(), "null");
    }

    #[test]
    fn digest_convention() {
        assert_eq!(digest_json(0xdead).to_string(), "\"000000000000dead\"");
    }

    #[test]
    fn from_impls() {
        assert_eq!(Json::from(3usize), Json::Int(3));
        assert_eq!(Json::from(Some("x")), Json::Str("x".into()));
        assert_eq!(Json::from(None::<i64>), Json::Null);
    }

    #[test]
    fn malformed_strings_fail_at_the_same_offsets() {
        for (src, pos, message) in [
            ("\"abé", 5, "unterminated string"),
            ("[\"ok\",\"a\u{1}b\"]", 8, "raw control character in string"),
            ("{\"k\\q\":1}", 4, "invalid escape"),
        ] {
            let err = Json::parse(src).unwrap_err();
            assert_eq!((err.pos, err.message.as_str()), (pos, message), "{src:?}");
        }
    }

    /// The char-at-a-time writer the byte-level one replaced: the
    /// differential tests hold the encoder to its output byte for byte.
    struct Reference<'a>(&'a Json);

    impl fmt::Display for Reference<'_> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self.0 {
                Json::Null => f.write_str("null"),
                Json::Bool(b) => f.write_str(if *b { "true" } else { "false" }),
                Json::Int(i) => write!(f, "{i}"),
                Json::Float(x) if x.is_finite() => {
                    if x.fract() == 0.0 && x.abs() < 1e15 {
                        write!(f, "{x:.1}")
                    } else {
                        write!(f, "{x}")
                    }
                }
                Json::Float(_) => f.write_str("null"),
                Json::Str(s) => reference_escaped(f, s),
                Json::Arr(items) => {
                    f.write_str("[")?;
                    for (i, v) in items.iter().enumerate() {
                        if i > 0 {
                            f.write_str(",")?;
                        }
                        write!(f, "{}", Reference(v))?;
                    }
                    f.write_str("]")
                }
                Json::Obj(pairs) => {
                    f.write_str("{")?;
                    for (i, (k, v)) in pairs.iter().enumerate() {
                        if i > 0 {
                            f.write_str(",")?;
                        }
                        reference_escaped(f, k)?;
                        f.write_str(":")?;
                        write!(f, "{}", Reference(v))?;
                    }
                    f.write_str("}")
                }
            }
        }
    }

    fn reference_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
        f.write_str("\"")?;
        for c in s.chars() {
            match c {
                '"' => f.write_str("\\\"")?,
                '\\' => f.write_str("\\\\")?,
                '\n' => f.write_str("\\n")?,
                '\r' => f.write_str("\\r")?,
                '\t' => f.write_str("\\t")?,
                '\u{08}' => f.write_str("\\b")?,
                '\u{0C}' => f.write_str("\\f")?,
                c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                c => write!(f, "{c}")?,
            }
        }
        f.write_str("\"")
    }

    /// splitmix64: seeded, dependency-free.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn pick<T: Copy>(&mut self, from: &[T]) -> T {
            from[self.below(from.len())]
        }
    }

    /// Every byte that needs escaping, the ASCII neighbours that do not,
    /// and 2-, 3- and 4-byte UTF-8.
    fn string(rng: &mut Rng) -> String {
        const PIECES: &[&str] = &[
            "a",
            "Z9",
            " ",
            "/",
            "'",
            "\"",
            "\\",
            "\u{7f}",
            "é",
            "ß",
            "\u{7ff}",
            "\u{800}",
            "€",
            "\u{ffff}",
            "😀",
            "\u{10ffff}",
        ];
        let mut s = String::new();
        for _ in 0..rng.below(8) {
            if rng.below(3) == 0 {
                s.push(char::from(rng.below(0x20) as u8));
            } else {
                s.push_str(rng.pick(PIECES));
            }
        }
        s
    }

    fn value(rng: &mut Rng, depth: usize, floats: bool) -> Json {
        const INTS: &[i64] = &[i64::MIN, i64::MIN + 1, -1, 0, 1, 9, 10, i64::MAX];
        const FLOATS: &[f64] = &[
            -0.0,
            0.0,
            1e15,
            -1e15,
            1e-7,
            0.1,
            2.0,
            123_456.789,
            1e300,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        match rng.below(if depth == 0 { 5 } else { 7 }) {
            0 => Json::Null,
            1 => Json::Bool(rng.below(2) == 0),
            2 if rng.below(2) == 0 => Json::Int(rng.pick(INTS)),
            2 => Json::Int(rng.next() as i64 >> rng.below(64)),
            3 if floats && rng.below(2) == 0 => Json::Float(rng.pick(FLOATS)),
            3 if floats => Json::Float(f64::from_bits(rng.next())),
            3 => Json::Int(rng.next() as i64),
            4 => Json::Str(string(rng)),
            5 => Json::Arr(
                (0..rng.below(5))
                    .map(|_| value(rng, depth - 1, floats))
                    .collect(),
            ),
            _ => Json::Obj(
                (0..rng.below(5))
                    .map(|_| (string(rng), value(rng, depth - 1, floats)))
                    .collect(),
            ),
        }
    }

    /// Arrays and objects alternating `depth` levels deep around `leaf`.
    fn nested(depth: usize, leaf: Json) -> Json {
        (0..depth).fold(leaf, |inner, level| {
            if level % 2 == 0 {
                Json::Arr(vec![Json::Null, inner])
            } else {
                Json::Obj(vec![(String::new(), inner)])
            }
        })
    }

    #[test]
    fn writer_matches_the_reference_on_random_trees() {
        let mut rng = Rng(42);
        for _ in 0..2_000 {
            let v = value(&mut rng, 4, true);
            assert_eq!(v.to_string(), Reference(&v).to_string(), "{v:?}");
            let exact = value(&mut rng, 4, false);
            let text = exact.to_string();
            assert_eq!(text, Reference(&exact).to_string(), "{exact:?}");
            assert_eq!(Json::parse(&text).unwrap(), exact, "{text}");
        }
    }

    #[test]
    fn writer_matches_the_reference_on_every_escape_and_at_depth() {
        let every: String = (0u32..0x300).filter_map(char::from_u32).collect();
        let all = Json::Obj(vec![
            (every.clone(), Json::Str(every.clone())),
            (String::new(), Json::Str(String::new())),
            ("😀\u{10ffff}".into(), Json::Int(i64::MIN)),
        ]);
        let deep = nested(100, all.clone());
        for v in [all, deep] {
            let text = v.to_string();
            assert_eq!(text, Reference(&v).to_string());
            assert_eq!(Json::parse(&text).unwrap(), v);
        }
        assert_eq!(
            Json::Str("\u{0}\u{1f}\u{7f}".into()).to_string(),
            "\"\\u0000\\u001f\u{7f}\""
        );
    }
}
