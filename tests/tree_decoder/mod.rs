//! The job decoder the one-pass scanner replaced, frozen as the
//! reference of the differential tests: a recursive-descent parser
//! builds the whole document as a `Json` tree, then the case and the
//! options are read off the tree. `hdp::service::parse_job` must
//! return exactly what this returns, errors included.
//!
//! Each test binary that declares `mod tree_decoder;` gets its own
//! copy, so helpers unused by one binary are expected.

#![allow(dead_code)]

use hdp::conform::json::MAX_DEPTH;
use hdp::conform::wire::{parse_spec, WireError, SCHEMA};
use hdp::conform::{Case, Json, Stimulus};
use hdp::service::JobOptions;
use hdp::sim::SchedMode;

fn bad(path: impl Into<String>, detail: impl Into<String>) -> WireError {
    WireError::Field {
        path: path.into(),
        detail: detail.into(),
    }
}

/// Parses one submission line into its case and options.
pub fn parse_job(text: &str) -> Result<(Case, JobOptions), WireError> {
    let case = parse_case(text)?;
    let doc = parse(text).map_err(|detail| WireError::Syntax { detail })?;
    let mut opts = JobOptions::default();
    if let Some(options) = doc.get("options") {
        if let Some(mode) = options.get("mode") {
            opts.mode =
                mode.as_str()
                    .and_then(SchedMode::parse)
                    .ok_or_else(|| WireError::Field {
                        path: "options.mode".into(),
                        detail: format!("unknown mode {:?}", mode.as_str()),
                    })?;
        }
        for (key, slot) in [
            ("vcd", &mut opts.vcd as &mut bool),
            ("telemetry", &mut opts.telemetry),
            ("verify", &mut opts.verify),
            ("span", &mut opts.span),
        ] {
            if let Some(v) = options.get(key) {
                *slot = v.as_bool().ok_or_else(|| WireError::Field {
                    path: format!("options.{key}"),
                    detail: "not a boolean".into(),
                })?;
            }
        }
    }
    Ok((case, opts))
}

/// Parses a v1 document into a case.
pub fn parse_case(text: &str) -> Result<Case, WireError> {
    let doc = parse(text).map_err(|detail| WireError::Syntax { detail })?;
    match doc.get("schema").and_then(Json::as_str) {
        Some(s) if s == SCHEMA => {}
        found => {
            return Err(WireError::Schema {
                found: found.map(str::to_owned),
            })
        }
    }
    Ok(Case {
        spec: parse_spec(doc.get("design").ok_or_else(|| bad("design", "missing"))?)?,
        stimulus: parse_stimulus(
            doc.get("stimulus")
                .ok_or_else(|| bad("stimulus", "missing"))?,
        )?,
    })
}

fn num_field(obj: &Json, parent: &str, key: &str) -> Result<u64, WireError> {
    obj.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| bad(format!("{parent}.{key}"), "missing or non-numeric"))
}

fn parse_stimulus(obj: &Json) -> Result<Stimulus, WireError> {
    let inputs = obj
        .get("inputs")
        .and_then(Json::as_arr)
        .ok_or_else(|| bad("stimulus.inputs", "missing or not an array"))?
        .iter()
        .map(|item| {
            let name = item
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| bad("stimulus.inputs", "input without a string `name`"))?;
            Ok((
                name.to_owned(),
                num_field(item, "stimulus.inputs", "width")? as usize,
            ))
        })
        .collect::<Result<Vec<_>, WireError>>()?;
    let cycles = obj
        .get("cycles")
        .and_then(Json::as_arr)
        .ok_or_else(|| bad("stimulus.cycles", "missing or not an array"))?
        .iter()
        .map(|row| {
            row.as_arr()
                .ok_or_else(|| bad("stimulus.cycles", "non-array stimulus row"))?
                .iter()
                .map(|v| {
                    v.as_u64()
                        .ok_or_else(|| bad("stimulus.cycles", "non-numeric stimulus value"))
                })
                .collect::<Result<Vec<_>, _>>()
        })
        .collect::<Result<Vec<_>, _>>()?;
    if cycles.iter().any(|row| row.len() != inputs.len()) {
        return Err(bad(
            "stimulus.cycles",
            format!(
                "row length does not match the {} declared inputs",
                inputs.len()
            ),
        ));
    }
    Ok(Stimulus { inputs, cycles })
}

/// Parses a JSON document into a tree.
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

/// Asserts that the scanner-built `Json::parse` and the one-pass
/// `parse_job` return what the frozen tree decoder returns on `text`.
pub fn assert_same_decode(text: &str) {
    assert_eq!(
        Json::parse(text),
        parse(text),
        "Json::parse differs on {text:?}"
    );
    assert_eq!(
        hdp::service::parse_job(text),
        parse_job(text),
        "parse_job differs on {text:?}"
    );
}
