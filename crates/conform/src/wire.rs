//! The `hdp-conform-repro-v1` wire format.
//!
//! This module is the stable, documented home of the JSON interchange
//! format that started life as the conformance engine's reproducer
//! files and is now also the submission format of the `hdp-service`
//! job server. A document is a single JSON object with these fields:
//!
//! | field        | type   | required | meaning                                   |
//! |--------------|--------|----------|-------------------------------------------|
//! | `schema`     | string | yes      | always [`SCHEMA`] (`hdp-conform-repro-v1`)|
//! | `design`     | object | yes      | a design-space point (see below)          |
//! | `stimulus`   | object | yes      | per-cycle input vectors (see below)       |
//! | `seed`       | number | no       | RNG seed the case was sampled from        |
//! | `divergence` | object | no       | oracle disagreement report (repro files)  |
//!
//! The `design` object carries every [`DesignSpec`] axis —
//! `family` (index into [`FAMILIES`]), `data_width`, `depth`,
//! `addr_width`, `key_width`, `wide`, `write_side` and the `ops`
//! array of method-port names — plus redundant human-readable
//! `label`/`kind`/`target` strings that parsers ignore. Designs with
//! a non-trivial clock-domain ratio additionally carry `wr_period`
//! and `rd_period` (integer domain periods in base steps); both
//! default to 1 when absent, and serialisation omits them at the
//! default so pre-existing single-clock documents — and their content
//! addresses — are unchanged. The
//! `stimulus` object has an `inputs` array of `{name, width}` port
//! descriptors and a `cycles` array of per-cycle value rows, one
//! number per input in declaration order.
//!
//! Two document flavours share the schema:
//!
//! * **Reproducers** ([`repro_to_json`]) additionally record the
//!   sampling `seed` and the observed `divergence`; they are committed
//!   under `tests/repros/` and replayed as regression tests.
//! * **Jobs** ([`job_to_json`]) are bare `design` + `stimulus`
//!   submissions for the simulation service.
//!
//! [`parse_case`] accepts both flavours (extra fields are ignored),
//! never panics on malformed input, and reports the first problem as
//! a structured [`WireError`].
//!
//! # Content addressing
//!
//! [`design_hash`] derives a 32-hex-digit content address from the
//! canonical serialised form of a design point. The service's plan
//! cache keys on it: two submissions hash alike exactly when their
//! design axes are identical, so a compiled schedule validated for
//! one can be reused for the other. The hash is part of the wire
//! contract — it must stay stable across releases, and a pinned
//! literal in this module's tests enforces that.
//!
//! [`DesignSpec`]: hdp_metagen::sampler::DesignSpec
//! [`FAMILIES`]: hdp_metagen::sampler::FAMILIES

use crate::json::{Json, JsonWriter, Scanner, Token};
use crate::oracle::{Divergence, Stimulus};
use crate::shrink::Case;
use hdp_metagen::sampler::{DesignSpec, FAMILIES};
use hdp_metagen::{MethodOp, OpSet};
use std::error::Error;
use std::fmt;

/// The schema identifier every v1 document carries.
pub const SCHEMA: &str = "hdp-conform-repro-v1";

/// A structured parse failure for a v1 wire document.
///
/// Exactly one error is reported per parse — the first problem
/// encountered. The enum is `#[non_exhaustive]`: future format
/// revisions may add variants without a semver break.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum WireError {
    /// The text is not syntactically valid JSON.
    Syntax {
        /// The underlying parser's description (includes a byte
        /// offset where available).
        detail: String,
    },
    /// The document's `schema` field is missing or names a different
    /// format.
    Schema {
        /// The schema string found, if any.
        found: Option<String>,
    },
    /// A required field is missing, has the wrong JSON type, or holds
    /// an out-of-range value.
    Field {
        /// Dotted path of the offending field (e.g. `design.family`).
        path: String,
        /// What was wrong with it.
        detail: String,
    },
    /// A submission line ran past the reader's length cap before its
    /// newline; the rest of it was never read.
    LineTooLong {
        /// The cap, in bytes.
        limit: usize,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Syntax { detail } => write!(f, "malformed JSON: {detail}"),
            WireError::Schema { found: Some(s) } => {
                write!(f, "not an `{SCHEMA}` document (schema is `{s}`)")
            }
            WireError::Schema { found: None } => {
                write!(f, "not an `{SCHEMA}` document (no `schema` field)")
            }
            WireError::Field { path, detail } => write!(f, "bad field `{path}`: {detail}"),
            WireError::LineTooLong { limit } => {
                write!(f, "line is longer than the {limit}-byte limit")
            }
        }
    }
}

impl Error for WireError {}

fn bad(path: impl Into<String>, detail: impl Into<String>) -> WireError {
    WireError::Field {
        path: path.into(),
        detail: detail.into(),
    }
}

// ---------------------------------------------------------------------------
// Serialisation
// ---------------------------------------------------------------------------

fn ops_to_json(ops: OpSet) -> Json {
    Json::Arr(
        ops.iter()
            .map(|op| Json::Str(op.port_name().to_owned()))
            .collect(),
    )
}

/// Serialises a design-space point as the wire `design` object.
///
/// The canonical form — field order, label strings and all — feeds
/// [`design_hash`], so it must not change observably for specs that
/// already round-trip.
#[must_use]
pub fn spec_to_json(spec: &DesignSpec) -> Json {
    let mut fields = vec![
        ("label".to_owned(), Json::Str(spec.label())),
        ("kind".to_owned(), Json::Str(spec.kind().to_owned())),
        ("target".to_owned(), Json::Str(spec.target().to_owned())),
        ("family".to_owned(), Json::Num(spec.family as u64)),
        ("data_width".to_owned(), Json::Num(spec.data_width as u64)),
        ("depth".to_owned(), Json::Num(spec.depth as u64)),
        ("addr_width".to_owned(), Json::Num(spec.addr_width as u64)),
        ("key_width".to_owned(), Json::Num(spec.key_width as u64)),
        ("wide".to_owned(), Json::Num(spec.wide as u64)),
        ("write_side".to_owned(), Json::Bool(spec.write_side)),
    ];
    // The clock-domain axes are emitted only when they deviate from
    // the synchronous default, so every pre-existing single-clock
    // document (and its content address) is byte-identical.
    if spec.wr_period != 1 || spec.rd_period != 1 {
        fields.push(("wr_period".to_owned(), Json::Num(spec.wr_period)));
        fields.push(("rd_period".to_owned(), Json::Num(spec.rd_period)));
    }
    fields.push(("ops".to_owned(), ops_to_json(spec.ops)));
    Json::Obj(fields)
}

/// Serialises a stimulus as the wire `stimulus` object.
#[must_use]
pub fn stimulus_to_json(stim: &Stimulus) -> Json {
    Json::Obj(vec![
        (
            "inputs".to_owned(),
            Json::Arr(
                stim.inputs
                    .iter()
                    .map(|(name, width)| {
                        Json::Obj(vec![
                            ("name".to_owned(), Json::Str(name.clone())),
                            ("width".to_owned(), Json::Num(*width as u64)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "cycles".to_owned(),
            Json::Arr(
                stim.cycles
                    .iter()
                    .map(|row| Json::Arr(row.iter().map(|&v| Json::Num(v)).collect()))
                    .collect(),
            ),
        ),
    ])
}

/// Serialises a divergence report as the wire `divergence` object.
#[must_use]
pub fn divergence_to_json(d: &Divergence) -> Json {
    Json::Obj(vec![
        ("cycle".to_owned(), Json::Num(d.cycle as u64)),
        (
            "port".to_owned(),
            d.port.clone().map_or(Json::Null, Json::Str),
        ),
        (
            "details".to_owned(),
            Json::Arr(
                d.details
                    .iter()
                    .map(|(oracle, value)| {
                        Json::Obj(vec![
                            ("oracle".to_owned(), Json::Str(oracle.clone())),
                            ("value".to_owned(), Json::Str(value.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("report".to_owned(), Json::Str(d.to_string())),
    ])
}

/// Serialises a diverging case — plus the divergence it produced and
/// the seed it came from — as a self-contained reproducer document.
#[must_use]
pub fn repro_to_json(seed: u64, case: &Case, divergence: &Divergence) -> String {
    Json::Obj(vec![
        ("schema".to_owned(), Json::Str(SCHEMA.into())),
        ("seed".to_owned(), Json::Num(seed)),
        ("design".to_owned(), spec_to_json(&case.spec)),
        ("stimulus".to_owned(), stimulus_to_json(&case.stimulus)),
        ("divergence".to_owned(), divergence_to_json(divergence)),
    ])
    .to_string()
}

/// Serialises a bare design + stimulus pair as a service job
/// document (no seed, no divergence).
#[must_use]
pub fn job_to_json(case: &Case) -> String {
    Json::Obj(vec![
        ("schema".to_owned(), Json::Str(SCHEMA.into())),
        ("design".to_owned(), spec_to_json(&case.spec)),
        ("stimulus".to_owned(), stimulus_to_json(&case.stimulus)),
    ])
    .to_string()
}

// ---------------------------------------------------------------------------
// Content addressing
// ---------------------------------------------------------------------------

const FNV_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
const FNV_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

/// A [`fmt::Write`] sink that folds every written byte into a 128-bit
/// FNV-1a hash, so serialised output can be content-addressed without
/// materialising the string.
struct Fnv128Writer {
    hash: u128,
}

impl Fnv128Writer {
    fn new() -> Self {
        Self { hash: FNV_OFFSET }
    }
}

impl fmt::Write for Fnv128Writer {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for &b in s.as_bytes() {
            self.hash ^= u128::from(b);
            self.hash = self.hash.wrapping_mul(FNV_PRIME);
        }
        Ok(())
    }
}

/// Streams the same bytes `spec_to_json(spec).to_string()` would
/// produce, without building the intermediate tree. [`design_hash`]
/// sits on the service's per-job cache-lookup path, so the canonical
/// serialisation is written straight into the hash sink; the
/// `streamed_hash_matches_the_tree_serialisation` test pins the two
/// forms together.
fn write_spec_canonical<W: fmt::Write>(w: &mut JsonWriter<W>, spec: &DesignSpec) -> fmt::Result {
    w.begin_obj()?;
    w.key("label")?;
    w.str(&spec.label())?;
    w.key("kind")?;
    w.str(spec.kind())?;
    w.key("target")?;
    w.str(spec.target())?;
    for (key, n) in [
        ("family", spec.family),
        ("data_width", spec.data_width),
        ("depth", spec.depth),
        ("addr_width", spec.addr_width),
        ("key_width", spec.key_width),
        ("wide", spec.wide),
    ] {
        w.key(key)?;
        w.num(n as u64)?;
    }
    w.key("write_side")?;
    w.bool(spec.write_side)?;
    if spec.wr_period != 1 || spec.rd_period != 1 {
        w.key("wr_period")?;
        w.num(spec.wr_period)?;
        w.key("rd_period")?;
        w.num(spec.rd_period)?;
    }
    w.key("ops")?;
    w.begin_arr()?;
    for op in spec.ops.iter() {
        w.str(op.port_name())?;
    }
    w.end_arr()?;
    w.end_obj()
}

/// The content address of a design-space point: 32 lowercase hex
/// digits derived from the canonical [`spec_to_json`] serialisation
/// (the serialised bytes are streamed straight into a 128-bit FNV-1a
/// hash — this sits on the service's per-job lookup path).
///
/// Two specs hash alike exactly when every design axis matches, so
/// the hash is a sound cache key for per-design artefacts (compiled
/// schedules, validated netlists). Stable across processes, runs and
/// releases — see the pinned-literal test in this module.
#[must_use]
pub fn design_hash(spec: &DesignSpec) -> String {
    let mut w = JsonWriter::new(Fnv128Writer::new());
    write_spec_canonical(&mut w, spec).expect("hashing writer never fails");
    format!("{:032x}", w.into_inner().hash)
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

fn num_field(obj: &Json, parent: &str, key: &str) -> Result<u64, WireError> {
    obj.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| bad(format!("{parent}.{key}"), "missing or non-numeric"))
}

/// An optional numeric field: absent means `default`, present must be
/// numeric.
fn opt_num_field(obj: &Json, parent: &str, key: &str, default: u64) -> Result<u64, WireError> {
    match obj.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_u64()
            .ok_or_else(|| bad(format!("{parent}.{key}"), "non-numeric")),
    }
}

/// Parses a wire `design` object back into a [`DesignSpec`].
///
/// This is the inverse of [`spec_to_json`]: redundant `label`/`kind`/
/// `target` strings are ignored, the clock-domain periods default to
/// 1 when absent, the family index is range-checked against
/// [`FAMILIES`], and every size axis is held to its family's bounds
/// ([`DesignSpec::validate`]) before anything is sized from it. Exposed so other consumers of the canonical design
/// encoding (the characterisation database in `hdp-synth`) parse it
/// identically to the conformance stack.
///
/// # Errors
///
/// [`WireError::Field`] for a missing, mistyped or out-of-range axis.
pub fn parse_spec(obj: &Json) -> Result<DesignSpec, WireError> {
    let mut ops = OpSet::new();
    for item in obj
        .get("ops")
        .and_then(Json::as_arr)
        .ok_or_else(|| bad("design.ops", "missing or not an array"))?
    {
        let name = item
            .as_str()
            .ok_or_else(|| bad("design.ops", "non-string op name"))?;
        let op = MethodOp::ALL
            .into_iter()
            .find(|op| op.port_name() == name)
            .ok_or_else(|| bad("design.ops", format!("unknown op `{name}`")))?;
        ops = ops.with(op);
    }
    let family = num_field(obj, "design", "family")? as usize;
    if family >= FAMILIES.len() {
        return Err(bad(
            "design.family",
            format!("{family} out of range (< {})", FAMILIES.len()),
        ));
    }
    let spec = DesignSpec {
        family,
        data_width: num_field(obj, "design", "data_width")? as usize,
        depth: num_field(obj, "design", "depth")? as usize,
        addr_width: num_field(obj, "design", "addr_width")? as usize,
        key_width: num_field(obj, "design", "key_width")? as usize,
        wide: num_field(obj, "design", "wide")? as usize,
        write_side: obj
            .get("write_side")
            .and_then(Json::as_bool)
            .ok_or_else(|| bad("design.write_side", "missing or non-boolean"))?,
        ops,
        wr_period: opt_num_field(obj, "design", "wr_period", 1)?,
        rd_period: opt_num_field(obj, "design", "rd_period", 1)?,
    };
    spec.validate()
        .map_err(|e| bad(format!("design.{}", e.axis), e.to_string()))?;
    Ok(spec)
}

/// The first `stimulus` member, as the one-pass decoder left it:
/// `inputs` as a tree, `cycles` already read into rows (or the first
/// problem found in them). A `stimulus` that is not an object leaves
/// both `None`.
#[derive(Default)]
struct StimulusDraft {
    inputs: Option<Json>,
    cycles: Option<Result<Vec<Vec<u64>>, WireError>>,
}

impl StimulusDraft {
    /// Reads a `stimulus` value; keys after the first of each name
    /// are checked for syntax and dropped, as [`Json::get`] would
    /// never see them.
    fn read(sc: &mut Scanner<'_>) -> Result<Self, String> {
        let mut draft = Self::default();
        match sc.token()? {
            Token::Obj => {
                let mut n = 0;
                while let Some(key) = sc.key(n)? {
                    n += 1;
                    match key.as_str() {
                        "inputs" if draft.inputs.is_none() => draft.inputs = Some(sc.tree()?),
                        "cycles" if draft.cycles.is_none() => {
                            draft.cycles = Some(read_cycles(sc)?);
                        }
                        _ => drop(sc.tree()?),
                    }
                }
            }
            other => drop(sc.tree_from(other)?),
        }
        Ok(draft)
    }

    /// Checks the draft in the order a tree walk would: the inputs,
    /// then the rows, then their lengths.
    fn finish(self) -> Result<Stimulus, WireError> {
        let inputs = self
            .inputs
            .as_ref()
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
        let cycles = self
            .cycles
            .ok_or_else(|| bad("stimulus.cycles", "missing or not an array"))??;
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
}

/// Reads a `cycles` value straight into rows of integers. The outer
/// error is a syntax error; the inner one is the first row or value
/// that is not what a row holds, found while the rest of the value is
/// still read for syntax.
fn read_cycles(sc: &mut Scanner<'_>) -> Result<Result<Vec<Vec<u64>>, WireError>, String> {
    let token = sc.token()?;
    if !matches!(token, Token::Arr) {
        sc.tree_from(token)?;
        return Ok(Err(bad("stimulus.cycles", "missing or not an array")));
    }
    let mut rows: Vec<Vec<u64>> = Vec::new();
    let mut problem = None;
    let mut n = 0;
    while sc.elem(n)? {
        n += 1;
        let token = sc.token()?;
        if !matches!(token, Token::Arr) {
            sc.tree_from(token)?;
            problem.get_or_insert_with(|| bad("stimulus.cycles", "non-array stimulus row"));
            continue;
        }
        let mut row = Vec::with_capacity(rows.last().map_or(0, Vec::len));
        // Plain integers take the one-loop path; the token path reads
        // on from the first element that is not one.
        let closed = sc.uints(&mut row);
        while !closed && sc.elem(row.len())? {
            match sc.token()? {
                Token::Num(v) => row.push(v),
                other => {
                    sc.tree_from(other)?;
                    problem.get_or_insert_with(|| {
                        bad("stimulus.cycles", "non-numeric stimulus value")
                    });
                    // Keep the element count for `elem`; the row is
                    // dropped below.
                    row.push(0);
                }
            }
        }
        if problem.is_none() {
            rows.push(row);
        }
    }
    Ok(problem.map_or(Ok(rows), Err))
}

/// Decodes a v1 document in one pass: the runnable [`Case`] plus the
/// document's `options` member, if it has one (the job server's
/// per-job options; [`parse_case`] drops it).
///
/// The scanner reads the text once. `stimulus.cycles` goes straight
/// into the case's rows; only the small `schema`, `design`,
/// `stimulus.inputs` and `options` members become [`Json`] trees.
/// The result is the one a tree walk of the whole document gives:
/// a syntax error anywhere wins, then the schema, the design and the
/// stimulus are checked in that order, and of two members with one
/// name the first counts.
///
/// # Errors
///
/// The first [`WireError`] in that order.
pub fn parse_submission(text: &str) -> Result<(Case, Option<Json>), WireError> {
    let syntax = |detail| WireError::Syntax { detail };
    let mut sc = Scanner::new(text);
    let (mut schema, mut design, mut stimulus, mut options) = (None, None, None, None);
    match sc.token().map_err(syntax)? {
        Token::Obj => {
            let mut n = 0;
            while let Some(key) = sc.key(n).map_err(syntax)? {
                n += 1;
                let slot = match key.as_str() {
                    "schema" => &mut schema,
                    "design" => &mut design,
                    "options" => &mut options,
                    "stimulus" if stimulus.is_none() => {
                        stimulus = Some(StimulusDraft::read(&mut sc).map_err(syntax)?);
                        continue;
                    }
                    _ => {
                        sc.tree().map_err(syntax)?;
                        continue;
                    }
                };
                let value = sc.tree().map_err(syntax)?;
                slot.get_or_insert(value);
            }
        }
        other => drop(sc.tree_from(other).map_err(syntax)?),
    }
    sc.finish().map_err(syntax)?;
    match schema.as_ref().and_then(Json::as_str) {
        Some(s) if s == SCHEMA => {}
        found => {
            return Err(WireError::Schema {
                found: found.map(str::to_owned),
            })
        }
    }
    let spec = parse_spec(design.as_ref().ok_or_else(|| bad("design", "missing"))?)?;
    let stimulus = stimulus
        .ok_or_else(|| bad("stimulus", "missing"))?
        .finish()?;
    Ok((Case { spec, stimulus }, options))
}

/// Parses a v1 document (reproducer or job) into a runnable [`Case`].
///
/// Extra fields — `seed`, `divergence`, anything a future revision
/// adds — are ignored. Never panics on malformed input.
///
/// # Errors
///
/// The first [`WireError`] encountered, in document order.
pub fn parse_case(text: &str) -> Result<Case, WireError> {
    parse_submission(text).map(|(case, _)| case)
}

/// Parses a document and returns the `seed` field, if present.
///
/// # Errors
///
/// [`WireError::Syntax`] if the text is not JSON at all.
pub fn parse_seed(text: &str) -> Result<Option<u64>, WireError> {
    let doc = Json::parse(text).map_err(|detail| WireError::Syntax { detail })?;
    Ok(doc.get("seed").and_then(Json::as_u64))
}

/// Replays a reproducer document: re-runs the oracle stack on its
/// case and returns the observed divergence, if it still reproduces.
///
/// # Errors
///
/// Propagates parse failures; a conforming replay returns `Ok(None)`
/// (the underlying bug was fixed — delete the reproducer).
pub fn replay(text: &str) -> Result<Option<Divergence>, WireError> {
    Ok(parse_case(text)?.check())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdp_metagen::sampler::sample_spec;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_case(seed: u64, cycles: usize) -> Case {
        let mut rng = StdRng::seed_from_u64(seed);
        let spec = sample_spec(&mut rng);
        let netlist = spec.instantiate().unwrap();
        let stimulus = Stimulus::sample(&netlist, cycles, &mut rng);
        Case { spec, stimulus }
    }

    #[test]
    fn reproducer_round_trips() {
        let case = sample_case(21, 5);
        let divergence = Divergence {
            cycle: 2,
            port: Some("data".into()),
            details: vec![
                ("full_sweep".into(), "\"00\"".into()),
                ("vhdl_interp".into(), "\"01\"".into()),
            ],
        };
        let text = repro_to_json(21, &case, &divergence);
        let back = parse_case(&text).unwrap();
        assert_eq!(back.spec, case.spec);
        assert_eq!(back.stimulus, case.stimulus);
        assert_eq!(parse_seed(&text).unwrap(), Some(21));
        // And the document carries the human-readable report.
        assert!(text.contains("conformance mismatch at cycle #2"));
    }

    #[test]
    fn job_round_trips_without_seed() {
        let case = sample_case(77, 3);
        let text = job_to_json(&case);
        let back = parse_case(&text).unwrap();
        assert_eq!(back, case);
        assert_eq!(parse_seed(&text).unwrap(), None);
        assert!(!text.contains("divergence"));
    }

    #[test]
    fn replay_of_conforming_case_returns_none() {
        let case = sample_case(33, 4);
        let divergence = Divergence {
            cycle: 0,
            port: None,
            details: vec![],
        };
        let text = repro_to_json(33, &case, &divergence);
        assert_eq!(replay(&text).unwrap(), None);
    }

    #[test]
    fn rejects_foreign_documents_with_schema_errors() {
        assert_eq!(parse_case("{}"), Err(WireError::Schema { found: None }));
        assert_eq!(
            parse_case("{\"schema\":\"something-else\"}"),
            Err(WireError::Schema {
                found: Some("something-else".into())
            })
        );
        assert!(matches!(
            parse_case("not json"),
            Err(WireError::Syntax { .. })
        ));
    }

    #[test]
    fn reports_field_paths() {
        let case = sample_case(5, 2);
        let good = job_to_json(&case);
        // Drop the design object entirely.
        let doc = Json::parse(&good).unwrap();
        let Json::Obj(pairs) = doc else {
            unreachable!()
        };
        let without_design = Json::Obj(
            pairs
                .iter()
                .filter(|(k, _)| k != "design")
                .cloned()
                .collect(),
        )
        .to_string();
        assert_eq!(parse_case(&without_design), Err(bad("design", "missing")));
        // An out-of-range family index is caught before it can panic
        // downstream accessors.
        let with_bad_family = good.replace(
            &format!("\"family\":{}", case.spec.family),
            "\"family\":999",
        );
        match parse_case(&with_bad_family) {
            Err(WireError::Field { path, .. }) => assert_eq!(path, "design.family"),
            other => panic!("expected a field error, got {other:?}"),
        }
    }

    #[test]
    fn fractional_and_negative_axes_are_field_errors() {
        let case = sample_case(5, 2);
        let good = job_to_json(&case);
        let depth = format!("\"depth\":{}", case.spec.depth);
        assert!(good.contains(&depth));
        // 2^40 is numeric but over every family's depth bound: it is
        // rejected before any generator sizes a memory from it.
        for value in ["1.5", "-1", "1099511627776"] {
            let text = good.replace(&depth, &format!("\"depth\":{value}"));
            match parse_case(&text) {
                Err(WireError::Field { path, .. }) => assert_eq!(path, "design.depth"),
                other => panic!("depth {value}: expected a field error, got {other:?}"),
            }
        }
    }

    #[test]
    fn rejects_ragged_stimulus_rows() {
        let case = sample_case(9, 2);
        let mut ragged = case.clone();
        ragged.stimulus.cycles[0].push(0);
        let text = job_to_json(&ragged);
        match parse_case(&text) {
            Err(WireError::Field { path, .. }) => assert_eq!(path, "stimulus.cycles"),
            other => panic!("expected a field error, got {other:?}"),
        }
    }

    #[test]
    fn design_hash_is_stable_and_content_addressed() {
        let case = sample_case(21, 1);
        // Same value across calls and across an unrelated clone.
        assert_eq!(design_hash(&case.spec), design_hash(&case.spec.clone()));
        // Any axis change moves the hash.
        let mut other = case.spec.clone();
        other.data_width += 1;
        assert_ne!(design_hash(&case.spec), design_hash(&other));
        // Round-tripping through the wire format preserves it.
        let back = parse_case(&job_to_json(&case)).unwrap();
        assert_eq!(design_hash(&back.spec), design_hash(&case.spec));
    }

    #[test]
    fn design_hash_literal_is_pinned() {
        // The hash is part of the wire contract: if this test breaks,
        // the canonical serialisation changed and every persisted
        // cache key goes stale. Do not update the literal casually.
        let spec = DesignSpec {
            family: 5,
            data_width: 8,
            depth: 4,
            addr_width: 8,
            key_width: 4,
            wide: 16,
            write_side: false,
            ops: OpSet::new().with(MethodOp::Empty).with(MethodOp::Size),
            wr_period: 1,
            rd_period: 1,
        };
        assert_eq!(design_hash(&spec), "e2e88e2d98719295caa553b7c241c387");
    }

    #[test]
    fn async_fifo_design_hash_literal_is_pinned() {
        // The multi-clock axes join the canonical form only when
        // non-trivial; this pins the serialisation of a ratio'd spec.
        let spec = DesignSpec {
            family: 11,
            data_width: 8,
            depth: 4,
            addr_width: 8,
            key_width: 4,
            wide: 0,
            write_side: false,
            ops: OpSet::new(),
            wr_period: 2,
            rd_period: 3,
        };
        let text = spec_to_json(&spec).to_string();
        assert!(text.contains("\"wr_period\":2,\"rd_period\":3"), "{text}");
        assert_eq!(design_hash(&spec), "c801a7866e213b3359ad7e16fae0d236");
    }

    #[test]
    fn default_periods_are_omitted_and_round_trip() {
        let mut spec = sample_case(21, 1).spec;
        spec.wr_period = 1;
        spec.rd_period = 1;
        let case = Case {
            spec,
            stimulus: Stimulus {
                inputs: vec![],
                cycles: vec![],
            },
        };
        let text = job_to_json(&case);
        assert!(!text.contains("wr_period"), "{text}");
        let back = parse_case(&text).unwrap();
        assert_eq!(back.spec.wr_period, 1);
        assert_eq!(back.spec.rd_period, 1);
    }

    #[test]
    fn streamed_hash_matches_the_tree_serialisation() {
        // `design_hash` streams the canonical bytes directly; this
        // pins it to the `spec_to_json` tree it must mirror.
        for seed in 0..64 {
            let spec = sample_case(seed, 1).spec;
            let mut streamed = JsonWriter::new(String::new());
            write_spec_canonical(&mut streamed, &spec).unwrap();
            assert_eq!(
                streamed.into_inner(),
                spec_to_json(&spec).to_string(),
                "seed {seed}"
            );
        }
    }

    /// A tiny deterministic generator for the mutation fuzzer (no
    /// reliance on the `rand` crate's stability guarantees).
    struct Lcg(u64);
    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 33
        }
    }

    #[test]
    fn fuzz_truncated_documents_never_panic() {
        let case = sample_case(13, 4);
        let divergence = Divergence {
            cycle: 1,
            port: Some("q".into()),
            details: vec![("full_sweep".into(), "\"0\"".into())],
        };
        let text = repro_to_json(13, &case, &divergence);
        for end in 0..text.len() {
            if !text.is_char_boundary(end) {
                continue;
            }
            // Every proper prefix must be a clean error, never a panic.
            assert!(
                parse_case(&text[..end]).is_err(),
                "prefix of length {end} parsed"
            );
        }
        assert!(parse_case(&text).is_ok());
    }

    #[test]
    fn fuzz_mutated_documents_never_panic() {
        let case = sample_case(17, 3);
        let text = job_to_json(&case);
        let bytes = text.as_bytes();
        let mut lcg = Lcg(0x5eed);
        for _ in 0..500 {
            let mut mutated = bytes.to_vec();
            let idx = (lcg.next() as usize) % mutated.len();
            mutated[idx] = (lcg.next() & 0xff) as u8;
            let Ok(s) = String::from_utf8(mutated) else {
                continue;
            };
            // Ok or Err are both fine; panicking or hanging is not.
            let _ = parse_case(&s);
        }
    }

    #[test]
    fn fuzz_byte_deletions_never_panic() {
        let case = sample_case(19, 2);
        let text = job_to_json(&case);
        for i in 0..text.len() {
            let mut mutated = text.as_bytes().to_vec();
            mutated.remove(i);
            if let Ok(s) = String::from_utf8(mutated) {
                let _ = parse_case(&s);
            }
        }
    }
}
