//! A minimal JSON value with writer and parser.
//!
//! The workspace is built offline with no serde available, so it
//! hand-rolls the small JSON surface its wire documents,
//! databases and `BENCH_*.json` artefacts need: objects, arrays,
//! strings, numbers and booleans. A number written as plain digits is
//! a [`Json::Num`], kept exact as `u64` (widths, depths, stimulus
//! words, counters); one with a sign, fraction or exponent is a
//! [`Json::Float`] (timings, rates, ratios).
//!
//! `{}` renders a value on one line; `{:#}` renders it indented, two
//! spaces per level, for committed artefacts.

use std::fmt::{self, Write as _};

/// Deepest nesting of arrays and objects [`Json::parse`] accepts.
/// The parser recurses once per level, so the bound keeps a hostile
/// line of brackets from overflowing the stack.
pub const MAX_DEPTH: usize = 128;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer written as plain digits.
    Num(u64),
    /// Any other number. Finite values render with `{:?}`, so they
    /// always carry a `.` or an `e` and parse back as `Float`;
    /// non-finite values render as `null`.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, insertion-ordered.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a key in an object.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a number.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is a number of either form.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n as f64),
            Json::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Builds an object from `(key, value)` pairs, in order.
    #[must_use]
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Returns a byte offset and message for malformed input, for a
    /// number out of range, and for nesting deeper than
    /// [`MAX_DEPTH`].
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }
}

pub(crate) fn write_escaped<W: fmt::Write + ?Sized>(f: &mut W, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, f.alternate().then_some(0))
    }
}

impl Json {
    /// Writes the value; `indent` is the nesting level in the `{:#}`
    /// form and `None` in the one-line form.
    fn write(&self, f: &mut fmt::Formatter<'_>, indent: Option<usize>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => write!(f, "{n}"),
            Json::Float(x) if x.is_finite() => write!(f, "{x:?}"),
            Json::Float(_) => f.write_str("null"),
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => write_seq(f, indent, "[]", items.iter().map(|v| (None, v))),
            Json::Obj(pairs) => write_seq(
                f,
                indent,
                "{}",
                pairs.iter().map(|(k, v)| (Some(k.as_str()), v)),
            ),
        }
    }
}

/// Writes an array (every key `None`) or an object between the two
/// characters of `delims`.
fn write_seq<'a>(
    f: &mut fmt::Formatter<'_>,
    indent: Option<usize>,
    delims: &str,
    items: impl Iterator<Item = (Option<&'a str>, &'a Json)>,
) -> fmt::Result {
    let newline = |f: &mut fmt::Formatter<'_>, level: usize| write!(f, "\n{:1$}", "", 2 * level);
    f.write_str(&delims[..1])?;
    let mut empty = true;
    for (key, value) in items {
        if !empty {
            f.write_char(',')?;
        }
        empty = false;
        if let Some(level) = indent {
            newline(f, level + 1)?;
        }
        if let Some(key) = key {
            write_escaped(f, key)?;
            f.write_str(if indent.is_some() { ": " } else { ":" })?;
        }
        value.write(f, indent.map(|level| level + 1))?;
    }
    if let (Some(level), false) = (indent, empty) {
        newline(f, level)?;
    }
    f.write_str(&delims[1..])
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&c) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {pos}", c as char))
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        let Some(&b) = bytes.get(*pos) else {
            return Err("unterminated string".into());
        };
        *pos += 1;
        match b {
            b'"' => return Ok(out),
            b'\\' => {
                let Some(&esc) = bytes.get(*pos) else {
                    return Err("unterminated escape".into());
                };
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let hex = bytes
                            .get(*pos..*pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| "bad \\u escape".to_owned())?;
                        *pos += 4;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    other => return Err(format!("unsupported escape `\\{}`", other as char)),
                }
            }
            b => {
                // Re-join multi-byte UTF-8 sequences.
                let start = *pos - 1;
                let len = match b {
                    0x00..=0x7f => 1,
                    0xc0..=0xdf => 2,
                    0xe0..=0xef => 3,
                    _ => 4,
                };
                let chunk = bytes
                    .get(start..start + len)
                    .and_then(|c| std::str::from_utf8(c).ok())
                    .ok_or("invalid UTF-8 in string")?;
                out.push_str(chunk);
                *pos = start + len;
            }
        }
    }
}

/// Parses one value; `depth` counts the arrays and objects around it.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    if depth == MAX_DEPTH && matches!(bytes.get(*pos), Some(b'[' | b'{')) {
        return Err(format!("nesting deeper than {MAX_DEPTH} at byte {pos}"));
    }
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {pos}")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos, depth + 1)?;
                pairs.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {pos}")),
                }
            }
        }
        Some(b't') if bytes[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if bytes[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if bytes[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(bytes, pos),
        Some(&c) => Err(format!("unexpected byte `{}` at {pos}", c as char)),
    }
}

/// Reads `-? digits (. digits)? ([eE] [+-]? digits)?`. Plain digits
/// stay an exact [`Json::Num`]; any other form is a [`Json::Float`].
fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    let skip = |pos: &mut usize, set: &[u8]| {
        let hit = bytes.get(*pos).is_some_and(|b| set.contains(b));
        *pos += usize::from(hit);
        hit
    };
    let digits = |pos: &mut usize| {
        let first = *pos;
        while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        (*pos > first)
            .then_some(())
            .ok_or_else(|| format!("expected a digit at byte {pos}"))
    };
    let mut float = skip(pos, b"-");
    digits(pos)?;
    if skip(pos, b".") {
        float = true;
        digits(pos)?;
    }
    if skip(pos, b"eE") {
        float = true;
        skip(pos, b"+-");
        digits(pos)?;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("number bytes are ASCII");
    let out_of_range = || format!("number out of range at byte {start}");
    if float {
        let x: f64 = text.parse().map_err(|_| out_of_range())?;
        x.is_finite()
            .then_some(Json::Float(x))
            .ok_or_else(out_of_range)
    } else {
        text.parse().map(Json::Num).map_err(|_| out_of_range())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_document() {
        let doc = Json::Obj(vec![
            ("name".into(), Json::Str("queue \"q\"\n".into())),
            ("count".into(), Json::Num(42)),
            ("ok".into(), Json::Bool(true)),
            ("none".into(), Json::Null),
            (
                "cycles".into(),
                Json::Arr(vec![
                    Json::Arr(vec![Json::Num(1), Json::Num(0)]),
                    Json::Arr(vec![]),
                ]),
            ),
        ]);
        let text = doc.to_string();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back, doc);
        assert_eq!(back.get("count").and_then(Json::as_u64), Some(42));
        assert_eq!(
            back.get("name").and_then(Json::as_str),
            Some("queue \"q\"\n")
        );
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(Json::parse("{\"a\":").is_err());
        assert!(Json::parse("[1,2,]").is_err());
        assert!(Json::parse("[1] trailing").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn parses_whitespace_and_unicode() {
        let v = Json::parse(" { \"k\" : [ 1 , \"caf\u{e9}\" ] } ").unwrap();
        assert_eq!(
            v.get("k").and_then(Json::as_arr).map(<[Json]>::len),
            Some(2)
        );
        let esc = Json::parse("\"\\u00e9\"").unwrap();
        assert_eq!(esc.as_str(), Some("\u{e9}"));
    }

    #[test]
    fn floats_round_trip_bit_for_bit() {
        for x in [-1.0, -273.15, 0.1, 2.0, 1e300, f64::MIN_POSITIVE, -0.0] {
            let text = Json::Float(x).to_string();
            assert!(
                text.contains(['.', 'e']),
                "{text} must read back as a float"
            );
            match Json::parse(&text) {
                Ok(Json::Float(back)) => assert_eq!(back.to_bits(), x.to_bits(), "{text}"),
                other => panic!("{text} parsed as {other:?}"),
            }
        }
        assert_eq!(Json::parse("-1"), Ok(Json::Float(-1.0)));
        assert_eq!(Json::parse("25E-1"), Ok(Json::Float(2.5)));
        assert_eq!(Json::parse("7").unwrap().as_f64(), Some(7.0));
    }

    #[test]
    fn non_finite_floats_render_as_null() {
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(Json::Float(x).to_string(), "null");
        }
        assert!(Json::parse("1e400").is_err(), "overflow is out of range");
    }

    #[test]
    fn integers_stay_exact() {
        let text = u64::MAX.to_string();
        assert_eq!(Json::parse(&text), Ok(Json::Num(u64::MAX)));
        assert_eq!(Json::Num(u64::MAX).to_string(), text);
        assert!(Json::parse("18446744073709551616").is_err());
        for bad in ["-", "1.", ".5", "1e", "-x", "1e+"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        assert!(Json::parse(&nested(MAX_DEPTH + 1)).is_err());
        let objects = format!(
            "{}1{}",
            "{\"k\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(Json::parse(&objects).is_err());
        assert!(Json::parse(&"[".repeat(100_000)).is_err());
    }

    #[test]
    fn pretty_form_parses_back_to_the_same_value() {
        let doc = Json::obj([
            ("schema", Json::Str("s".into())),
            ("empty", Json::Arr(vec![])),
            ("rows", Json::Arr(vec![Json::Num(1), Json::Float(0.5)])),
            ("inner", Json::obj([("k", Json::Null)])),
        ]);
        let pretty = format!("{doc:#}");
        assert!(pretty.starts_with("{\n  \"schema\": \"s\",\n  \"empty\": [],\n"));
        assert_eq!(Json::parse(&pretty), Ok(doc.clone()));
        assert_eq!(
            doc.to_string(),
            "{\"schema\":\"s\",\"empty\":[],\"rows\":[1,0.5],\"inner\":{\"k\":null}}"
        );
    }
}
