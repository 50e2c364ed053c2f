//! A minimal JSON value, one streaming writer and one pull scanner.
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
//!
//! Every JSON text in the workspace is written by [`JsonWriter`] and
//! read by one scanner. `Display` writes a [`Json`] through the
//! writer; code on a hot path (the service's response, the design
//! hash) calls the writer directly and builds no tree. [`Json::parse`]
//! builds a tree from the scanner's tokens; the wire decoder pulls the
//! same tokens and keeps stimulus rows as integers.

use hdp_hdl::{LogicVector, MAX_WIDTH};
use std::fmt;

/// Deepest nesting of arrays and objects the scanner accepts.
/// Building a tree recurses once per level, so the bound keeps a
/// hostile line of brackets from overflowing the stack.
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
        let mut scanner = Scanner::new(text);
        let value = scanner.tree()?;
        scanner.finish()?;
        Ok(value)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let pretty = f.alternate();
        JsonWriter::with_layout(f, pretty).value(self)
    }
}

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

/// A streaming JSON writer over any [`fmt::Write`] sink.
///
/// Values are written in document order with no tree in between:
/// open a container, write its keys and values, close it. The writer
/// places the commas (and, in the pretty layout, the newlines and
/// two-space indents). Strings are escaped in runs: the bytes between
/// two characters that need an escape go out in one `write_str`.
///
/// [`Json`]'s `Display` writes through it, so a value written here
/// call by call and the same value built as a [`Json`] and printed
/// give the same bytes. Every method returns the sink's error.
///
/// ```
/// use hdp_conform::json::{Json, JsonWriter};
///
/// let mut w = JsonWriter::new(String::new());
/// w.begin_obj().unwrap();
/// w.key("rows").unwrap();
/// w.begin_arr().unwrap();
/// w.str("a\"b").unwrap();
/// w.num(7).unwrap();
/// w.end_arr().unwrap();
/// w.end_obj().unwrap();
/// let text = w.into_inner();
/// assert_eq!(text, r#"{"rows":["a\"b",7]}"#);
/// assert_eq!(Json::parse(&text).unwrap().to_string(), text);
/// ```
#[derive(Debug)]
pub struct JsonWriter<W> {
    out: W,
    pretty: bool,
    /// One entry per open array or object: whether it holds an item.
    open: Vec<bool>,
    /// A key was just written; the next value completes its member.
    after_key: bool,
}

impl<W: fmt::Write> JsonWriter<W> {
    /// A writer of the one-line form (`{}`). `Display` writes the
    /// indented form (`{:#}`) through the same writer.
    pub fn new(out: W) -> Self {
        Self::with_layout(out, false)
    }

    fn with_layout(out: W, pretty: bool) -> Self {
        Self {
            out,
            pretty,
            open: Vec::new(),
            after_key: false,
        }
    }

    /// The sink, with everything written so far.
    pub fn into_inner(self) -> W {
        self.out
    }

    /// Opens an object.
    pub fn begin_obj(&mut self) -> fmt::Result {
        self.open_container('{')
    }

    /// Closes the innermost object.
    pub fn end_obj(&mut self) -> fmt::Result {
        self.close_container('}')
    }

    /// Opens an array.
    pub fn begin_arr(&mut self) -> fmt::Result {
        self.open_container('[')
    }

    /// Closes the innermost array.
    pub fn end_arr(&mut self) -> fmt::Result {
        self.close_container(']')
    }

    /// Writes an object key; the next value written is its value.
    pub fn key(&mut self, key: &str) -> fmt::Result {
        self.item()?;
        self.escaped(key)?;
        self.out.write_str(if self.pretty { ": " } else { ":" })?;
        self.after_key = true;
        Ok(())
    }

    /// Writes a string value.
    pub fn str(&mut self, s: &str) -> fmt::Result {
        self.item()?;
        self.escaped(s)
    }

    /// Writes an exact integer value.
    pub fn num(&mut self, n: u64) -> fmt::Result {
        self.item()?;
        write!(self.out, "{n}")
    }

    /// Writes a float value: `{:?}` when finite, `null` otherwise.
    pub fn float(&mut self, x: f64) -> fmt::Result {
        self.item()?;
        if x.is_finite() {
            write!(self.out, "{x:?}")
        } else {
            self.out.write_str("null")
        }
    }

    /// Writes a four-state vector as a string value: its bits MSB
    /// first, `X` for an unknown bit and `Z` for an undriven one, the
    /// characters of [`LogicVector::to_bit_string`]. None of them
    /// needs an escape, so the cell is written straight from the
    /// vector's value/unknown/Z words: a vector with no `X` or `Z`
    /// is copied eight bits at a time out of a static table of
    /// precomputed cells, with no per-bit work.
    pub fn vector(&mut self, v: &LogicVector) -> fmt::Result {
        self.item()?;
        let (value, unknown, highz) = v.raw_masks();
        let width = v.width();
        if unknown | highz != 0 {
            return self.four_state(width, value, unknown, highz);
        }
        // The leading `width % 8` bits (all 8 when the width is a
        // multiple of 8) with the opening quote, then each lower byte.
        let top = (width - 1) / 8 * 8;
        let lead = width - top;
        let at = SMALL_AT[lead] + (value >> top) as usize * (lead + 2);
        if top == 0 {
            return self.out.write_str(&SMALL_CELLS[at..at + lead + 2]);
        }
        self.out.write_str(&SMALL_CELLS[at..=at + lead])?;
        for low in (0..top).step_by(8).rev() {
            self.out.write_str(byte_bits(value >> low))?;
        }
        self.out.write_char('"')
    }

    /// Writes a vector with an `X` or `Z` bit: built on the stack from
    /// the closing quote leftwards, eight bits a step, and written in
    /// one call.
    fn four_state(&mut self, width: usize, value: u64, unknown: u64, highz: u64) -> fmt::Result {
        let mut buf = [b'"'; MAX_WIDTH + 2];
        let close = MAX_WIDTH + 1;
        for low in (0..width).step_by(8) {
            let byte = |plane: u64| (plane >> low) as u8;
            let chars = if byte(unknown | highz) == 0 {
                byte_bits(value >> low)
                    .as_bytes()
                    .try_into()
                    .expect("8 bits")
            } else {
                four_state_byte(byte(value), byte(unknown), byte(highz))
            };
            buf[close - low - 8..close - low].copy_from_slice(&chars);
        }
        // The top byte wrote left of the first bit; the quote goes over it.
        let open = close - width - 1;
        buf[open] = b'"';
        let cell = std::str::from_utf8(&buf[open..]).expect("bit characters are ASCII");
        self.out.write_str(cell)
    }

    /// Writes a boolean value.
    pub fn bool(&mut self, b: bool) -> fmt::Result {
        self.item()?;
        self.out.write_str(if b { "true" } else { "false" })
    }

    /// Writes `null`.
    pub fn null(&mut self) -> fmt::Result {
        self.item()?;
        self.out.write_str("null")
    }

    /// Writes a whole [`Json`] value.
    pub fn value(&mut self, value: &Json) -> fmt::Result {
        match value {
            Json::Null => self.null(),
            Json::Bool(b) => self.bool(*b),
            Json::Num(n) => self.num(*n),
            Json::Float(x) => self.float(*x),
            Json::Str(s) => self.str(s),
            Json::Arr(items) => {
                self.begin_arr()?;
                for item in items {
                    self.value(item)?;
                }
                self.end_arr()
            }
            Json::Obj(pairs) => {
                self.begin_obj()?;
                for (key, item) in pairs {
                    self.key(key)?;
                    self.value(item)?;
                }
                self.end_obj()
            }
        }
    }

    /// Starts one item: the comma after its predecessor and, in the
    /// pretty layout, its line. A value after a key is part of the
    /// key's item.
    fn item(&mut self) -> fmt::Result {
        if std::mem::take(&mut self.after_key) {
            return Ok(());
        }
        let Some(has_items) = self.open.last_mut() else {
            return Ok(());
        };
        let comma = std::mem::replace(has_items, true);
        if comma {
            self.out.write_char(',')?;
        }
        if self.pretty {
            self.newline(self.open.len())?;
        }
        Ok(())
    }

    fn open_container(&mut self, opener: char) -> fmt::Result {
        self.item()?;
        self.open.push(false);
        self.out.write_char(opener)
    }

    fn close_container(&mut self, closer: char) -> fmt::Result {
        let had_items = self.open.pop().unwrap_or(false);
        if self.pretty && had_items {
            self.newline(self.open.len())?;
        }
        self.out.write_char(closer)
    }

    fn newline(&mut self, level: usize) -> fmt::Result {
        write!(self.out, "\n{:1$}", "", 2 * level)
    }

    /// Writes `s` quoted, escaping `"`, `\\` and control characters.
    fn escaped(&mut self, s: &str) -> fmt::Result {
        self.out.write_char('"')?;
        let mut run = 0;
        for (i, b) in s.bytes().enumerate() {
            let escape = match b {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\r' => "\\r",
                b'\t' => "\\t",
                0..=0x1f => "",
                _ => continue,
            };
            // Every byte that ends a run is ASCII, so each run is
            // whole characters.
            self.out.write_str(&s[run..i])?;
            if escape.is_empty() {
                write!(self.out, "\\u{b:04x}")?;
            } else {
                self.out.write_str(escape)?;
            }
            run = i + 1;
        }
        self.out.write_str(&s[run..])?;
        self.out.write_char('"')
    }
}

/// Where the cells of each width up to 8 start in [`SMALL_CELLS`].
const SMALL_AT: [usize; 10] = {
    let mut at = [0; 10];
    let mut width = 1;
    while width <= 8 {
        at[width + 1] = at[width] + (1 << width) * (width + 2);
        width += 1;
    }
    at
};

/// Every defined vector of 1 to 8 bits as its quoted cell, by width,
/// then by value.
const SMALL_BYTES: [u8; SMALL_AT[9]] = {
    let mut bytes = [b'"'; SMALL_AT[9]];
    let mut width = 1;
    while width <= 8 {
        let mut value = 0;
        while value < 1 << width {
            let at = SMALL_AT[width] + value * (width + 2);
            let mut i = 0;
            while i < width {
                bytes[at + 1 + i] = if value >> (width - 1 - i) & 1 != 0 {
                    b'1'
                } else {
                    b'0'
                };
                i += 1;
            }
            value += 1;
        }
        width += 1;
    }
    bytes
};

const SMALL_CELLS: &str = match std::str::from_utf8(&SMALL_BYTES) {
    Ok(cells) => cells,
    Err(_) => panic!("bit characters are ASCII"),
};

/// The eight characters of the low byte of `bits`, MSB first.
fn byte_bits(bits: u64) -> &'static str {
    let at = SMALL_AT[8] + (bits & 0xff) as usize * 10 + 1;
    &SMALL_CELLS[at..at + 8]
}

/// The eight characters of a byte with an `X` or `Z` bit, MSB first:
/// `Z` over `X` over the value bit, as [`LogicVector`] ranks them.
fn four_state_byte(value: u8, unknown: u8, highz: u8) -> [u8; 8] {
    let mut chars = [b'0'; 8];
    for (i, c) in chars.iter_mut().enumerate() {
        let bit = |plane: u8| plane >> (7 - i) & 1 != 0;
        *c = if bit(highz) {
            b'Z'
        } else if bit(unknown) {
            b'X'
        } else if bit(value) {
            b'1'
        } else {
            b'0'
        };
    }
    chars
}

// ---------------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------------

/// What [`Scanner::token`] read: a whole scalar, or the opening
/// bracket of an array or object whose contents the caller then
/// steps through with [`Scanner::elem`] or [`Scanner::key`].
#[derive(Debug)]
pub(crate) enum Token {
    Null,
    Bool(bool),
    Num(u64),
    Float(f64),
    Str(String),
    Arr,
    Obj,
}

/// A pull scanner over one JSON text: the caller asks for the next
/// token, element or key, and decides what to keep. [`Json::parse`]
/// keeps everything as a tree; the wire decoder
/// ([`crate::wire::parse_submission`]) reads stimulus rows straight
/// into integers. Both get the same string and number rules, the same
/// error messages at the same byte offsets, and the same
/// [`MAX_DEPTH`] bound.
pub(crate) struct Scanner<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the position.
    depth: usize,
}

impl<'a> Scanner<'a> {
    pub(crate) fn new(text: &'a str) -> Self {
        Self {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    /// Reads the next value's first token. An array or object is
    /// opened (and counts against [`MAX_DEPTH`]) but not read.
    pub(crate) fn token(&mut self) -> Result<Token, String> {
        self.skip_ws();
        let pos = self.pos;
        let Some(&b) = self.bytes.get(pos) else {
            return Err("unexpected end of input".into());
        };
        let rest = &self.bytes[pos..];
        let (token, len) = match b {
            b'[' | b'{' => {
                if self.depth == MAX_DEPTH {
                    return Err(format!("nesting deeper than {MAX_DEPTH} at byte {pos}"));
                }
                self.depth += 1;
                (if b == b'[' { Token::Arr } else { Token::Obj }, 1)
            }
            b'"' => return Ok(Token::Str(self.string()?)),
            b't' if rest.starts_with(b"true") => (Token::Bool(true), 4),
            b'f' if rest.starts_with(b"false") => (Token::Bool(false), 5),
            b'n' if rest.starts_with(b"null") => (Token::Null, 4),
            b'0'..=b'9' | b'-' => return self.number(),
            c => return Err(format!("unexpected byte `{}` at {pos}", c as char)),
        };
        self.pos += len;
        Ok(token)
    }

    /// Steps into the next element of the innermost open array, of
    /// which `index` elements were read: `true` when one follows
    /// (read it with [`Scanner::token`]), `false` once the `]` is
    /// consumed.
    pub(crate) fn elem(&mut self, index: usize) -> Result<bool, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b']') => {
                self.pos += 1;
                self.depth -= 1;
                Ok(false)
            }
            _ if index == 0 => Ok(true),
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            _ => Err(format!("expected `,` or `]` at byte {}", self.pos)),
        }
    }

    /// Reads the elements of the array [`Scanner::token`] just opened
    /// into `row`, as long as each is plain digits that fit a `u64`, in
    /// one loop over the bytes. At the first element it does not take
    /// (a sign, a fraction or exponent, a number past `u64::MAX`,
    /// anything but a number, or a separator other than `,` or `]`)
    /// it stops just after the last element it took, so
    /// [`Scanner::elem`] with index `row.len()` and [`Scanner::token`]
    /// read on from there with their own error texts and byte
    /// offsets. `true` once the array's `]` is consumed.
    pub(crate) fn uints(&mut self, row: &mut Vec<u64>) -> bool {
        let bytes = self.bytes;
        let ws = |mut pos: usize| {
            while matches!(bytes.get(pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
                pos += 1;
            }
            pos
        };
        loop {
            let mut pos = ws(self.pos);
            match bytes.get(pos) {
                Some(b']') => {
                    self.pos = pos + 1;
                    self.depth -= 1;
                    return true;
                }
                Some(b',') if !row.is_empty() => pos = ws(pos + 1),
                _ if row.is_empty() => {}
                _ => return false,
            }
            let first = pos;
            let mut n = 0u64;
            while let Some(d) = bytes
                .get(pos)
                .map(|b| b.wrapping_sub(b'0'))
                .filter(|&d| d < 10)
            {
                let Some(next) = n.checked_mul(10).and_then(|n| n.checked_add(u64::from(d))) else {
                    return false;
                };
                n = next;
                pos += 1;
            }
            if pos == first || matches!(bytes.get(pos), Some(b'.' | b'e' | b'E')) {
                return false;
            }
            row.push(n);
            self.pos = pos;
        }
    }

    /// Reads the next key of the innermost open object, of which
    /// `index` members were read, up to and including its `:`; `None`
    /// once the `}` is consumed.
    pub(crate) fn key(&mut self, index: usize) -> Result<Option<String>, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'}') => {
                self.pos += 1;
                self.depth -= 1;
                return Ok(None);
            }
            _ if index == 0 => {}
            Some(b',') => self.pos += 1,
            _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
        }
        self.skip_ws();
        let key = self.string()?;
        self.skip_ws();
        self.expect(b':')?;
        Ok(Some(key))
    }

    /// Reads the next value whole, as a tree.
    pub(crate) fn tree(&mut self) -> Result<Json, String> {
        let token = self.token()?;
        self.tree_from(token)
    }

    /// Finishes reading a value whose first token was `token`.
    pub(crate) fn tree_from(&mut self, token: Token) -> Result<Json, String> {
        Ok(match token {
            Token::Null => Json::Null,
            Token::Bool(b) => Json::Bool(b),
            Token::Num(n) => Json::Num(n),
            Token::Float(x) => Json::Float(x),
            Token::Str(s) => Json::Str(s),
            Token::Arr => {
                let mut items = Vec::new();
                while self.elem(items.len())? {
                    items.push(self.tree()?);
                }
                Json::Arr(items)
            }
            Token::Obj => {
                let mut pairs = Vec::new();
                while let Some(key) = self.key(pairs.len())? {
                    let value = self.tree()?;
                    pairs.push((key, value));
                }
                Json::Obj(pairs)
            }
        })
    }

    /// Checks that only whitespace follows the document's value.
    pub(crate) fn finish(&mut self) -> Result<(), String> {
        self.skip_ws();
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(format!("trailing data at byte {}", self.pos))
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.bytes.get(self.pos) == Some(&c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", c as char, self.pos))
        }
    }

    /// Reads a string, copying the runs between escapes whole.
    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let run = self.pos;
            while self
                .bytes
                .get(self.pos)
                .is_some_and(|&b| b != b'"' && b != b'\\')
            {
                self.pos += 1;
            }
            // A run starts after an ASCII byte or a whole `\u`
            // escape and ends before one, so it is whole characters.
            out.push_str(&self.text[run..self.pos]);
            let Some(&b) = self.bytes.get(self.pos) else {
                return Err("unterminated string".into());
            };
            self.pos += 1;
            if b == b'"' {
                return Ok(out);
            }
            let Some(&esc) = self.bytes.get(self.pos) else {
                return Err("unterminated escape".into());
            };
            self.pos += 1;
            match esc {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'u' => {
                    let hex = self
                        .bytes
                        .get(self.pos..self.pos + 4)
                        .and_then(|h| std::str::from_utf8(h).ok())
                        .ok_or("truncated \\u escape")?;
                    let code =
                        u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape".to_owned())?;
                    self.pos += 4;
                    out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                }
                other => return Err(format!("unsupported escape `\\{}`", other as char)),
            }
        }
    }

    /// Reads `-? digits (. digits)? ([eE] [+-]? digits)?`. Plain
    /// digits stay an exact [`Token::Num`], accumulated as they are
    /// read; any other form is a [`Token::Float`].
    fn number(&mut self) -> Result<Token, String> {
        let start = self.pos;
        let mut float = self.skip(b"-");
        let first = self.pos;
        let mut pos = first;
        let mut exact = Some(0u64);
        while let Some(d) = self
            .bytes
            .get(pos)
            .map(|b| b.wrapping_sub(b'0'))
            .filter(|&d| d < 10)
        {
            exact = exact
                .and_then(|n| n.checked_mul(10))
                .and_then(|n| n.checked_add(u64::from(d)));
            pos += 1;
        }
        self.pos = pos;
        if pos == first {
            return Err(format!("expected a digit at byte {pos}"));
        }
        if !float && !matches!(self.bytes.get(pos), Some(b'.' | b'e' | b'E')) {
            return exact
                .map(Token::Num)
                .ok_or_else(|| format!("number out of range at byte {start}"));
        }
        if self.skip(b".") {
            float = true;
            self.digits()?;
        }
        if self.skip(b"eE") {
            float = true;
            self.skip(b"+-");
            self.digits()?;
        }
        let out_of_range = || format!("number out of range at byte {start}");
        if float {
            let x: f64 = self.text[start..self.pos]
                .parse()
                .map_err(|_| out_of_range())?;
            x.is_finite()
                .then_some(Token::Float(x))
                .ok_or_else(out_of_range)
        } else {
            exact.map(Token::Num).ok_or_else(out_of_range)
        }
    }

    /// Consumes one byte of `set`, if the next byte is one.
    fn skip(&mut self, set: &[u8]) -> bool {
        let hit = self.bytes.get(self.pos).is_some_and(|b| set.contains(b));
        self.pos += usize::from(hit);
        hit
    }

    fn digits(&mut self) -> Result<(), String> {
        let first = self.pos;
        while self.bytes.get(self.pos).is_some_and(u8::is_ascii_digit) {
            self.pos += 1;
        }
        if self.pos > first {
            Ok(())
        } else {
            Err(format!("expected a digit at byte {}", self.pos))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The writer `JsonWriter` replaced, frozen: a recursive walk that
    /// escapes one character at a time.
    mod tree_writer {
        use super::super::Json;
        use std::fmt::{self, Write};

        fn escaped(f: &mut String, s: &str) -> fmt::Result {
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

        pub fn write(f: &mut String, v: &Json, indent: Option<usize>) -> fmt::Result {
            match v {
                Json::Null => f.write_str("null"),
                Json::Bool(b) => write!(f, "{b}"),
                Json::Num(n) => write!(f, "{n}"),
                Json::Float(x) if x.is_finite() => write!(f, "{x:?}"),
                Json::Float(_) => f.write_str("null"),
                Json::Str(s) => escaped(f, s),
                Json::Arr(items) => seq(f, indent, "[]", items.iter().map(|v| (None, v))),
                Json::Obj(pairs) => seq(
                    f,
                    indent,
                    "{}",
                    pairs.iter().map(|(k, v)| (Some(k.as_str()), v)),
                ),
            }
        }

        fn seq<'a>(
            f: &mut String,
            indent: Option<usize>,
            delims: &str,
            items: impl Iterator<Item = (Option<&'a str>, &'a Json)>,
        ) -> fmt::Result {
            let newline = |f: &mut String, level: usize| write!(f, "\n{:1$}", "", 2 * level);
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
                    escaped(f, key)?;
                    f.write_str(if indent.is_some() { ": " } else { ":" })?;
                }
                write(f, value, indent.map(|level| level + 1))?;
            }
            if let (Some(level), false) = (indent, empty) {
                newline(f, level)?;
            }
            f.write_str(&delims[1..])
        }
    }

    #[test]
    fn streaming_writer_matches_the_tree_writer_byte_for_byte() {
        let every_escape =
            "q\"uote\\back\nnl\rcr\ttab\u{0}\u{1}\u{1f}\u{7f} caf\u{e9} \u{2713} \u{1f600}\"";
        let doc = Json::obj([
            (every_escape, Json::Str(every_escape.into())),
            ("", Json::Str(String::new())),
            ("empty_arr", Json::Arr(vec![])),
            ("empty_obj", Json::Obj(vec![])),
            (
                "mixed",
                Json::Arr(vec![
                    Json::Null,
                    Json::Bool(true),
                    Json::Bool(false),
                    Json::Num(u64::MAX),
                    Json::Float(-0.5),
                    Json::Float(f64::NAN),
                    Json::Arr(vec![Json::Arr(vec![]), Json::obj([("k", Json::Num(0))])]),
                ]),
            ),
            (
                "nested",
                Json::obj([("a", Json::obj([("b", Json::Arr(vec![Json::Num(1)]))]))]),
            ),
        ]);
        let values = [
            doc.clone(),
            Json::Arr(vec![doc.clone(), doc]),
            Json::Str(every_escape.into()),
            Json::Num(7),
            Json::Arr(vec![]),
        ];
        for value in &values {
            for indent in [None, Some(0)] {
                let mut frozen = String::new();
                tree_writer::write(&mut frozen, value, indent).unwrap();
                let streamed = if indent.is_some() {
                    format!("{value:#}")
                } else {
                    value.to_string()
                };
                assert_eq!(streamed, frozen);
            }
        }
    }

    #[test]
    fn vector_cells_render_as_their_bit_strings() {
        // A splitmix64 stream for the mixed masks.
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let top = 1u64 << 63;
        for width in 1..=MAX_WIDTH {
            let mut planes = vec![
                (0, 0, 0),
                (u64::MAX, 0, 0),
                (0, u64::MAX, 0),
                (0, 0, u64::MAX),
                (top, 0, 0),
                (top | 1, top, 0),
                (0, 0, top),
                (u64::MAX, top, 1),
            ];
            for _ in 0..32 {
                planes.push((next(), next(), next()));
                // Sparse X and Z, so most bytes stay defined.
                planes.push((next(), next() & next() & next(), next() & next() & next()));
            }
            for (value, unknown, highz) in planes {
                let v = LogicVector::from_raw_masks(width, value, unknown, highz).unwrap();
                let mut w = JsonWriter::new(String::new());
                w.begin_arr().unwrap();
                w.vector(&v).unwrap();
                w.vector(&v).unwrap();
                w.end_arr().unwrap();
                let bits = v.to_bit_string();
                assert_eq!(
                    w.into_inner(),
                    format!("[\"{bits}\",\"{bits}\"]"),
                    "width {width}, planes {value:#x}/{unknown:#x}/{highz:#x}"
                );
            }
        }
    }

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
