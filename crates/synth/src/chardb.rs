//! The `hdp-chardb-v1` characterisation database.
//!
//! §3.4 of the paper argues that because components are generated
//! automatically, *every* container×target×parameter point can be
//! characterised — area, access time, power — and that table should
//! drive the implementation decision. [`characterize_spec`] costs one
//! point; this module makes such points a
//! **persistent, schema-validated, queryable database** so a sweep
//! run once (see the `chardb_sweep` bench driver) can answer
//! constraint queries forever after, including over the `hdp-service`
//! `select` wire verb.
//!
//! # File format
//!
//! A database file is a single JSON document, written one point per
//! line so plain-text diffs and merges stay readable:
//!
//! ```json
//! {"schema":"hdp-chardb-v1","points":[
//! {"design":{...},"board":"xsb300e","ffs":8,"luts":22,"brams":0,
//!  "clk_khz":68000,"access_cycles":1,"power_uw":15234},
//! ...
//! ]}
//! ```
//!
//! The `design` object is the canonical `hdp-conform-repro-v1`
//! design encoding ([`hdp_conform::wire::spec_to_json`]), so the
//! database shares its content-addressing with the service's plan
//! cache: a record's key is `design_hash(spec)@board`. Metrics are
//! stored as integers (`clk_khz`, `power_uw`) because the wire JSON
//! layer is integer-only; the convenience accessors
//! [`CharRecord::clk_mhz`] and [`CharRecord::power_mw`] convert back.
//!
//! Loading validates the schema string, every design object, metric
//! sanity (a zero clock or zero access count is corrupt) and key
//! uniqueness; each failure is a named [`CharDbError`] variant, never
//! a panic.

use crate::board::Xsb300e;
use crate::power::estimate_mw;
use crate::{synthesize, SynthReport};
use hdp_conform::json::Json;
use hdp_conform::wire::{design_hash, parse_spec, spec_to_json};
use hdp_hdl::prim::Prim;
use hdp_hdl::HdlError;
use hdp_metagen::sampler::DesignSpec;
use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

/// The schema identifier every v1 database carries.
pub const CHARDB_SCHEMA: &str = "hdp-chardb-v1";

/// LUT/FF-cell equivalent of one 4-kbit Block SelectRAM, for the
/// scalar area figure [`CharRecord::area_cells`]: 4096 bits at the
/// 16 bits a LUT provides as distributed RAM.
pub const BRAM_AREA_CELLS: u64 = 256;

/// A structured failure of database parsing, loading or appending.
///
/// The enum is `#[non_exhaustive]`: future revisions may add variants
/// without a semver break.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CharDbError {
    /// The file could not be read or written.
    Io {
        /// The offending path.
        path: String,
        /// The OS error description.
        detail: String,
    },
    /// The text is not syntactically valid JSON.
    Syntax {
        /// The underlying parser's description.
        detail: String,
    },
    /// The document's `schema` field is missing or names a different
    /// format (including a future major version of this one).
    Schema {
        /// The schema string found, if any.
        found: Option<String>,
    },
    /// A required field is missing, has the wrong JSON type, or holds
    /// an out-of-range or insane value.
    Field {
        /// Dotted path of the offending field
        /// (e.g. `points[3].clk_khz`).
        path: String,
        /// What was wrong with it.
        detail: String,
    },
    /// Two records with the same `design_hash(spec)@board` key
    /// disagree on their metrics — the database would be ambiguous.
    Conflict {
        /// The contested key.
        key: String,
        /// Which metrics disagree.
        detail: String,
    },
}

impl fmt::Display for CharDbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CharDbError::Io { path, detail } => write!(f, "chardb io `{path}`: {detail}"),
            CharDbError::Syntax { detail } => write!(f, "malformed chardb JSON: {detail}"),
            CharDbError::Schema { found: Some(s) } => {
                write!(f, "not an `{CHARDB_SCHEMA}` database (schema is `{s}`)")
            }
            CharDbError::Schema { found: None } => {
                write!(f, "not an `{CHARDB_SCHEMA}` database (no `schema` field)")
            }
            CharDbError::Field { path, detail } => write!(f, "bad field `{path}`: {detail}"),
            CharDbError::Conflict { key, detail } => {
                write!(f, "conflicting records for `{key}`: {detail}")
            }
        }
    }
}

impl std::error::Error for CharDbError {}

fn bad(path: impl Into<String>, detail: impl Into<String>) -> CharDbError {
    CharDbError::Field {
        path: path.into(),
        detail: detail.into(),
    }
}

/// One characterised point of the design space: a design
/// specification, the board it was costed for, and the §3.4 metric
/// triple (area, access time, power) plus the achievable clock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CharRecord {
    /// The design-space point (family, widths, depths, ops…).
    pub spec: DesignSpec,
    /// The board the cost model ran for (`"xsb300e"`).
    pub board: String,
    /// Flip-flop count, device macros included.
    pub ffs: usize,
    /// 4-input LUT count.
    pub luts: usize,
    /// Block SelectRAM count.
    pub brams: usize,
    /// Achievable clock in kHz (integer so the wire JSON stays
    /// integer-only; see [`CharRecord::clk_mhz`]).
    pub clk_khz: u64,
    /// Cycles for one element access in steady state.
    pub access_cycles: u32,
    /// Estimated power at the achievable clock, in µW (see
    /// [`CharRecord::power_mw`]).
    pub power_uw: u64,
}

impl CharRecord {
    /// The record's database key: `design_hash(spec)@board`, sharing
    /// the content address of the service's plan cache.
    #[must_use]
    pub fn key(&self) -> String {
        format!("{}@{}", design_hash(&self.spec), self.board)
    }

    /// Scalar area figure for comparisons and the Pareto frontier:
    /// `ffs + luts + brams × `[`BRAM_AREA_CELLS`].
    #[must_use]
    pub fn area_cells(&self) -> u64 {
        self.ffs as u64 + self.luts as u64 + self.brams as u64 * BRAM_AREA_CELLS
    }

    /// The achievable clock in MHz.
    #[must_use]
    pub fn clk_mhz(&self) -> f64 {
        self.clk_khz as f64 / 1000.0
    }

    /// The estimated power in mW.
    #[must_use]
    pub fn power_mw(&self) -> f64 {
        self.power_uw as f64 / 1000.0
    }

    /// Whether the record passes the integrity floor: an empty board
    /// name is corrupt, and so are a clock and an access count of
    /// zero.
    fn validate(&self, path: &str) -> Result<(), CharDbError> {
        if self.board.is_empty() {
            return Err(bad(format!("{path}.board"), "empty board name"));
        }
        if self.clk_khz == 0 {
            return Err(bad(format!("{path}.clk_khz"), "zero clock"));
        }
        if self.access_cycles == 0 {
            return Err(bad(format!("{path}.access_cycles"), "zero access cycles"));
        }
        Ok(())
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("design".to_owned(), spec_to_json(&self.spec)),
            ("board".to_owned(), Json::Str(self.board.clone())),
            ("ffs".to_owned(), Json::Num(self.ffs as u64)),
            ("luts".to_owned(), Json::Num(self.luts as u64)),
            ("brams".to_owned(), Json::Num(self.brams as u64)),
            ("clk_khz".to_owned(), Json::Num(self.clk_khz)),
            (
                "access_cycles".to_owned(),
                Json::Num(u64::from(self.access_cycles)),
            ),
            ("power_uw".to_owned(), Json::Num(self.power_uw)),
        ])
    }

    fn from_json(obj: &Json, path: &str) -> Result<Self, CharDbError> {
        let num = |key: &str| -> Result<u64, CharDbError> {
            obj.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| bad(format!("{path}.{key}"), "missing or non-numeric"))
        };
        let spec = parse_spec(
            obj.get("design")
                .ok_or_else(|| bad(format!("{path}.design"), "missing"))?,
        )
        .map_err(|e| bad(format!("{path}.design"), e.to_string()))?;
        let record = CharRecord {
            spec,
            board: obj
                .get("board")
                .and_then(Json::as_str)
                .ok_or_else(|| bad(format!("{path}.board"), "missing or non-string"))?
                .to_owned(),
            ffs: num("ffs")? as usize,
            luts: num("luts")? as usize,
            brams: num("brams")? as usize,
            clk_khz: num("clk_khz")?,
            access_cycles: u32::try_from(num("access_cycles")?)
                .map_err(|_| bad(format!("{path}.access_cycles"), "out of range"))?,
            power_uw: num("power_uw")?,
        };
        record.validate(path)?;
        Ok(record)
    }
}

/// One table row: the width x depth grid point and the fixed-width
/// cost columns first, the label last, so rows line up whatever the
/// label's length (labels of families 0, 2 and 3 leave depth out).
impl fmt::Display for CharRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:>2}b x{:<4} on {:<8} | {:>4} FF {:>4} LUT {:>2} BRAM | {:>5.1} MHz | {:>2} cyc | {:>6.1} mW | {}",
            self.spec.data_width,
            self.spec.depth,
            self.board,
            self.ffs,
            self.luts,
            self.brams,
            self.clk_mhz(),
            self.access_cycles,
            self.power_mw(),
            self.spec.label()
        )
    }
}

/// One constraint axis of a [`Query`]. [`Axis::ALL`] is the order a
/// record is tested in, and a rejected record is charged to the first
/// axis it fails. Variants are declared in that order, so
/// `axis as usize` is the axis's index in [`Axis::ALL`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    /// Container kind.
    Kind,
    /// Minimum element width.
    Width,
    /// Minimum capacity.
    Depth,
    /// Minimum achievable clock.
    Clock,
    /// Maximum scalar area.
    Area,
    /// Maximum block RAM count.
    Brams,
    /// Maximum power.
    Power,
    /// Maximum cycles per access.
    Access,
}

impl Axis {
    /// Every axis, in test order.
    pub const ALL: [Axis; 8] = [
        Axis::Kind,
        Axis::Width,
        Axis::Depth,
        Axis::Clock,
        Axis::Area,
        Axis::Brams,
        Axis::Power,
        Axis::Access,
    ];

    /// The name of the rejection count charged to this axis, as the
    /// `select` verb reports it.
    #[must_use]
    pub fn rejection(self) -> &'static str {
        match self {
            Axis::Kind => "wrong_kind",
            Axis::Width => "too_narrow",
            Axis::Depth => "too_shallow",
            Axis::Clock => "too_slow",
            Axis::Area => "too_big",
            Axis::Brams => "too_many_brams",
            Axis::Power => "too_hungry",
            Axis::Access => "over_budget",
        }
    }
}

/// A constraint set over characterised points — the paper's "region
/// of interest given a certain set of constraints". Minima of 0 and
/// absent kinds or maxima leave their axis unconstrained.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Query {
    /// Container kind (`"queue"`, `"stack"`, …) the point must have.
    pub kind: Option<String>,
    /// Minimum element width in bits.
    pub min_data_width: usize,
    /// Minimum capacity in elements.
    pub min_depth: usize,
    /// Minimum achievable clock in kHz.
    pub min_clk_khz: u64,
    /// Maximum scalar area ([`CharRecord::area_cells`]).
    pub max_area_cells: Option<u64>,
    /// Maximum Block SelectRAM count.
    pub max_brams: Option<usize>,
    /// Maximum power in µW.
    pub max_power_uw: Option<u64>,
    /// Maximum cycles per element access.
    pub max_access_cycles: Option<u32>,
}

impl Query {
    /// Whether a record satisfies the constraint on one axis.
    fn passes(&self, axis: Axis, r: &CharRecord) -> bool {
        match axis {
            Axis::Kind => self.kind.as_deref().is_none_or(|k| r.spec.kind() == k),
            Axis::Width => r.spec.data_width >= self.min_data_width,
            Axis::Depth => r.spec.depth >= self.min_depth,
            Axis::Clock => r.clk_khz >= self.min_clk_khz,
            Axis::Area => self.max_area_cells.is_none_or(|m| r.area_cells() <= m),
            Axis::Brams => self.max_brams.is_none_or(|m| r.brams <= m),
            Axis::Power => self.max_power_uw.is_none_or(|m| r.power_uw <= m),
            Axis::Access => self.max_access_cycles.is_none_or(|m| r.access_cycles <= m),
        }
    }

    /// The first axis, in [`Axis::ALL`] order, that a record fails.
    pub(crate) fn first_failure(&self, r: &CharRecord) -> Option<Axis> {
        Axis::ALL.into_iter().find(|&axis| !self.passes(axis, r))
    }

    /// Whether a record satisfies every constraint.
    #[must_use]
    pub fn matches(&self, r: &CharRecord) -> bool {
        self.first_failure(r).is_none()
    }

    /// Serialises the query as a wire JSON object: the kind when
    /// present, every minimum, and the maxima that are present.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let num = |v: usize| Json::Num(v as u64);
        let mut fields = Vec::new();
        if let Some(kind) = &self.kind {
            fields.push(("kind", Json::Str(kind.clone())));
        }
        fields.extend([
            ("min_data_width", num(self.min_data_width)),
            ("min_depth", num(self.min_depth)),
            ("min_clk_khz", Json::Num(self.min_clk_khz)),
        ]);
        let maxima = [
            ("max_area_cells", self.max_area_cells),
            ("max_brams", self.max_brams.map(|m| m as u64)),
            ("max_power_uw", self.max_power_uw),
            ("max_access_cycles", self.max_access_cycles.map(u64::from)),
        ];
        fields.extend(
            maxima
                .into_iter()
                .filter_map(|(key, m)| Some((key, Json::Num(m?)))),
        );
        Json::obj(fields)
    }

    /// Parses the `constraints` object of a `select` request: `kind`
    /// is required, minima default to 0 and absent maxima stay
    /// unconstrained.
    ///
    /// # Errors
    ///
    /// A `constraints.field: problem` description of the first bad
    /// field.
    pub fn from_json(obj: &Json) -> Result<Self, String> {
        let kind = obj
            .get("kind")
            .and_then(Json::as_str)
            .ok_or("constraints.kind: missing or non-string")?
            .to_owned();
        let opt = |key: &str| -> Result<Option<u64>, String> {
            match obj.get(key) {
                None | Some(Json::Null) => Ok(None),
                Some(v) => v
                    .as_u64()
                    .map(Some)
                    .ok_or_else(|| format!("constraints.{key}: non-numeric")),
            }
        };
        Ok(Self {
            kind: Some(kind),
            min_data_width: opt("min_data_width")?.unwrap_or(0) as usize,
            min_depth: opt("min_depth")?.unwrap_or(0) as usize,
            min_clk_khz: opt("min_clk_khz")?.unwrap_or(0),
            max_area_cells: opt("max_area_cells")?,
            max_brams: opt("max_brams")?.map(|m| m as usize),
            max_power_uw: opt("max_power_uw")?,
            max_access_cycles: opt("max_access_cycles")?
                .map(|v| {
                    u32::try_from(v)
                        .map_err(|_| "constraints.max_access_cycles: out of range".to_owned())
                })
                .transpose()?,
        })
    }
}

/// The characterisation database: an insertion-ordered record store
/// with a unique-key index, (de)serialisable as the versioned
/// [`CHARDB_SCHEMA`] plain-text format.
#[derive(Debug, Clone, Default)]
pub struct CharDb {
    records: Vec<CharRecord>,
    index: BTreeMap<String, usize>,
}

impl CharDb {
    /// An empty database.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of records.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the database holds no records.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// All records in insertion order.
    #[must_use]
    pub fn records(&self) -> &[CharRecord] {
        &self.records
    }

    /// Looks up a record by its `design_hash@board` key.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&CharRecord> {
        self.index.get(key).map(|&i| &self.records[i])
    }

    /// Appends one record. Returns `Ok(true)` when it was inserted,
    /// `Ok(false)` when an identical record was already present (the
    /// append is idempotent).
    ///
    /// # Errors
    ///
    /// [`CharDbError::Conflict`] when a record with the same key but
    /// *different* metrics exists — the database never silently
    /// overwrites a measurement.
    ///
    /// # Example
    ///
    /// ```
    /// use hdp_synth::board::Xsb300e;
    /// use hdp_synth::chardb::{characterize_spec, CharDb};
    /// use hdp_metagen::sampler::DesignSpec;
    /// use hdp_metagen::{MethodOp, OpSet};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let spec = DesignSpec {
    ///     family: 5, // queue over an embedded FIFO core
    ///     data_width: 8,
    ///     depth: 4,
    ///     addr_width: 8,
    ///     key_width: 4,
    ///     wide: 0,
    ///     write_side: false,
    ///     ops: OpSet::of(&[MethodOp::Push, MethodOp::Pop]),
    ///     wr_period: 1,
    ///     rd_period: 1,
    /// };
    /// let record = characterize_spec(&spec, &Xsb300e::new())?;
    /// let mut db = CharDb::new();
    /// assert!(db.append(record.clone())?);   // inserted
    /// assert!(!db.append(record.clone())?);  // identical duplicate
    /// assert_eq!(db.len(), 1);
    /// assert_eq!(db.get(&record.key()), Some(&record));
    /// # Ok(())
    /// # }
    /// ```
    pub fn append(&mut self, record: CharRecord) -> Result<bool, CharDbError> {
        let key = record.key();
        if let Some(&i) = self.index.get(&key) {
            let existing = &self.records[i];
            if *existing == record {
                return Ok(false);
            }
            return Err(CharDbError::Conflict {
                key,
                detail: format!(
                    "stored {}/{}/{} cells {} kHz {} µW vs appended {}/{}/{} cells {} kHz {} µW",
                    existing.ffs,
                    existing.luts,
                    existing.brams,
                    existing.clk_khz,
                    existing.power_uw,
                    record.ffs,
                    record.luts,
                    record.brams,
                    record.clk_khz,
                    record.power_uw
                ),
            });
        }
        self.index.insert(key, self.records.len());
        self.records.push(record);
        Ok(true)
    }

    /// Merges another database into this one (idempotent: identical
    /// records are skipped). Returns how many records were newly
    /// added.
    ///
    /// # Errors
    ///
    /// [`CharDbError::Conflict`] on the first key whose metrics
    /// disagree between the two databases; records before it are
    /// already merged.
    pub fn merge(&mut self, other: &CharDb) -> Result<usize, CharDbError> {
        let mut added = 0;
        for record in &other.records {
            if self.append(record.clone())? {
                added += 1;
            }
        }
        Ok(added)
    }

    /// All records satisfying a [`Query`], in insertion order.
    ///
    /// # Example
    ///
    /// ```
    /// use hdp_synth::board::Xsb300e;
    /// use hdp_synth::chardb::{characterize_spec, CharDb, Query};
    /// use hdp_metagen::sampler::DesignSpec;
    /// use hdp_metagen::{MethodOp, OpSet};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let board = Xsb300e::new();
    /// let mut db = CharDb::new();
    /// for family in [0, 1] { // read buffer over FIFO core vs SRAM
    ///     let spec = DesignSpec {
    ///         family,
    ///         data_width: 8,
    ///         depth: 4,
    ///         addr_width: 16,
    ///         key_width: 4,
    ///         wide: 0,
    ///         write_side: false,
    ///         ops: OpSet::of(&[MethodOp::Pop]),
    ///         wr_period: 1,
    ///         rd_period: 1,
    ///     };
    ///     db.append(characterize_spec(&spec, &board)?)?;
    /// }
    /// // Single-cycle access rules out the external SRAM target.
    /// let fast = db.query(&Query {
    ///     max_access_cycles: Some(1),
    ///     ..Query::default()
    /// });
    /// assert_eq!(fast.len(), 1);
    /// assert_eq!(fast[0].spec.target(), "fifo_core");
    /// # Ok(())
    /// # }
    /// ```
    #[must_use]
    pub fn query(&self, q: &Query) -> Vec<&CharRecord> {
        self.records.iter().filter(|r| q.matches(r)).collect()
    }

    /// The Pareto frontier over (area, access time, power): records
    /// not dominated by any other record that is no worse on all
    /// three axes and strictly better on at least one.
    ///
    /// # Example
    ///
    /// ```
    /// use hdp_synth::board::Xsb300e;
    /// use hdp_synth::chardb::{characterize_spec, CharDb};
    /// use hdp_metagen::sampler::DesignSpec;
    /// use hdp_metagen::{MethodOp, OpSet};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let board = Xsb300e::new();
    /// let mut db = CharDb::new();
    /// for family in [0, 1] {
    ///     let spec = DesignSpec {
    ///         family,
    ///         data_width: 8,
    ///         depth: 512, // deep enough that the FIFO core needs a block RAM
    ///         addr_width: 16,
    ///         key_width: 4,
    ///         wide: 0,
    ///         write_side: false,
    ///         ops: OpSet::of(&[MethodOp::Pop]),
    ///         wr_period: 1,
    ///         rd_period: 1,
    ///     };
    ///     db.append(characterize_spec(&spec, &board)?)?;
    /// }
    /// // The FIFO core is the fast point, the SRAM the cheap point:
    /// // neither dominates, so both sit on the frontier.
    /// assert_eq!(db.pareto().len(), 2);
    /// # Ok(())
    /// # }
    /// ```
    #[must_use]
    pub fn pareto(&self) -> Vec<&CharRecord> {
        let metric = |r: &CharRecord| (r.area_cells(), u64::from(r.access_cycles), r.power_uw);
        self.records
            .iter()
            .filter(|r| {
                let (a, t, p) = metric(r);
                !self.records.iter().any(|o| {
                    let (oa, ot, op) = metric(o);
                    oa <= a && ot <= t && op <= p && (oa < a || ot < t || op < p)
                })
            })
            .collect()
    }

    /// Coverage counts per `(kind, target)` family, for sweep
    /// summaries and smoke checks.
    #[must_use]
    pub fn coverage(&self) -> BTreeMap<(&'static str, &'static str), usize> {
        let mut counts = BTreeMap::new();
        for r in &self.records {
            *counts.entry((r.spec.kind(), r.spec.target())).or_insert(0) += 1;
        }
        counts
    }

    /// Serialises the database as the [`CHARDB_SCHEMA`] plain-text
    /// format: valid JSON, one record per line.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = format!("{{\"schema\":\"{CHARDB_SCHEMA}\",\"points\":[");
        for (i, record) in self.records.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str(&record.to_json().to_string());
        }
        out.push_str("\n]}\n");
        out
    }

    /// Parses a database from its serialised text, running the full
    /// integrity pass: schema check, per-record field validation,
    /// metric sanity and key uniqueness.
    ///
    /// # Errors
    ///
    /// [`CharDbError::Syntax`] for malformed JSON,
    /// [`CharDbError::Schema`] for a foreign or missing schema
    /// string, [`CharDbError::Field`] for a bad record, and
    /// [`CharDbError::Conflict`] for duplicate keys with differing
    /// metrics.
    pub fn parse(text: &str) -> Result<Self, CharDbError> {
        let doc = Json::parse(text).map_err(|detail| CharDbError::Syntax { detail })?;
        match doc.get("schema").and_then(Json::as_str) {
            Some(s) if s == CHARDB_SCHEMA => {}
            found => {
                return Err(CharDbError::Schema {
                    found: found.map(str::to_owned),
                })
            }
        }
        let points = doc
            .get("points")
            .and_then(Json::as_arr)
            .ok_or_else(|| bad("points", "missing or not an array"))?;
        let mut db = CharDb::new();
        for (i, point) in points.iter().enumerate() {
            db.append(CharRecord::from_json(point, &format!("points[{i}]"))?)?;
        }
        Ok(db)
    }

    /// Writes the database to a file.
    ///
    /// # Errors
    ///
    /// [`CharDbError::Io`] on filesystem failures.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), CharDbError> {
        let path = path.as_ref();
        std::fs::write(path, self.to_text()).map_err(|e| CharDbError::Io {
            path: path.display().to_string(),
            detail: e.to_string(),
        })
    }

    /// Reads and validates a database file ([`CharDb::parse`]).
    ///
    /// # Errors
    ///
    /// [`CharDbError::Io`] on filesystem failures, otherwise as
    /// [`CharDb::parse`].
    pub fn load(path: impl AsRef<Path>) -> Result<Self, CharDbError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path).map_err(|e| CharDbError::Io {
            path: path.display().to_string(),
            detail: e.to_string(),
        })?;
        Self::parse(&text)
    }
}

/// Cycles for one element access in steady state, per family — the
/// access-time axis of the §3.4 triple, and the only place it is
/// defined: stream cores answer in one cycle, on-chip block RAM needs
/// issue + data, the external SRAM pays the req/ack round trip, and
/// the Gray-code CDC queue pays the two-flop synchroniser.
#[must_use]
pub fn access_cycles_for(spec: &DesignSpec, board: &Xsb300e) -> u32 {
    match spec.family {
        1 => 2 * board.sram_latency_cycles + 2,
        6 | 7 | 11 => 2,
        _ => 1,
    }
}

/// Characterises one sampled design point on a board: instantiate,
/// synthesize, add the cost of any open-form device macro the wrapper
/// targets, and estimate power at the achievable clock — one
/// [`CharRecord`] ready for [`CharDb::append`].
///
/// Open-form wrappers (the Figure 4 `rbuffer_fifo`/`wbuffer_fifo`
/// and the open `stack_lifo`) talk to their core over a `p_*`
/// interface, so the macro is costed separately here; the closed
/// families embed the macro in the netlist and need no correction.
/// This is the one per-family cost model: the
/// [`characterize`](crate::characterize) sweep and the `chardb_sweep`
/// driver both run through it.
///
/// # Errors
///
/// Propagates generator and synthesis failures.
pub fn characterize_spec(spec: &DesignSpec, board: &Xsb300e) -> Result<CharRecord, HdlError> {
    let netlist = spec.instantiate()?;
    let wrapper = synthesize(&netlist)?;
    let report = match spec.family {
        // Open-form FIFO wrappers: add the dual-clock core macro and
        // clamp to its 125 MHz rating.
        0 | 2 => {
            let core = crate::map::prim_cost(&Prim::FifoMacro {
                depth: spec.depth,
                width: spec.data_width,
            });
            SynthReport {
                ffs: wrapper.ffs + core.ffs,
                luts: wrapper.luts + core.luts,
                brams: wrapper.brams + core.brams,
                clk_mhz: wrapper.clk_mhz.min(125.0),
            }
        }
        // Open-form LIFO wrapper: the stack core is rated 150 MHz.
        3 => {
            let core = crate::map::prim_cost(&Prim::LifoMacro {
                depth: spec.depth,
                width: spec.data_width,
            });
            SynthReport {
                ffs: wrapper.ffs + core.ffs,
                luts: wrapper.luts + core.luts,
                brams: wrapper.brams + core.brams,
                clk_mhz: wrapper.clk_mhz.min(150.0),
            }
        }
        _ => wrapper,
    };
    let power_mw = estimate_mw(
        crate::map::ResourceReport {
            ffs: report.ffs,
            luts: report.luts,
            brams: report.brams,
        },
        report.clk_mhz,
        0.125,
    );
    Ok(CharRecord {
        spec: spec.clone(),
        board: "xsb300e".to_owned(),
        ffs: report.ffs,
        luts: report.luts,
        brams: report.brams,
        clk_khz: (report.clk_mhz * 1000.0).round() as u64,
        access_cycles: access_cycles_for(spec, board),
        power_uw: (power_mw * 1000.0).round() as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdp_metagen::{MethodOp, OpSet};

    fn spec(family: usize) -> DesignSpec {
        DesignSpec {
            family,
            data_width: 8,
            depth: 4,
            addr_width: 16,
            key_width: 4,
            wide: if family == 10 { 16 } else { 0 },
            write_side: false,
            ops: match family {
                0 | 1 => OpSet::of(&[MethodOp::Pop, MethodOp::Empty]),
                2 => OpSet::of(&[MethodOp::Push, MethodOp::Full]),
                3..=5 => OpSet::of(&[MethodOp::Push, MethodOp::Pop]),
                6 => OpSet::of(&[MethodOp::Read, MethodOp::Write]),
                7 => OpSet::of(&[MethodOp::Read, MethodOp::Write]),
                _ => OpSet::new(),
            },
            wr_period: if family == 11 { 2 } else { 1 },
            rd_period: if family == 11 { 3 } else { 1 },
        }
    }

    fn small_db() -> CharDb {
        let board = Xsb300e::new();
        let mut db = CharDb::new();
        for family in 0..hdp_metagen::sampler::FAMILIES.len() {
            db.append(characterize_spec(&spec(family), &board).unwrap())
                .unwrap();
        }
        db
    }

    #[test]
    fn every_family_characterizes() {
        let db = small_db();
        assert_eq!(db.len(), hdp_metagen::sampler::FAMILIES.len());
        for r in db.records() {
            assert!(r.clk_khz > 0, "{r}");
            assert!(r.power_uw >= 15_000, "{r}: below static floor");
            assert!(r.access_cycles >= 1, "{r}");
        }
    }

    #[test]
    fn open_form_wrappers_carry_their_core_macro() {
        let board = Xsb300e::new();
        // The open rbuffer and the closed queue target the same FIFO
        // core; both must pay for it (FFs from the macro's pointers).
        let open = characterize_spec(&spec(0), &board).unwrap();
        assert!(open.clk_mhz() <= 125.0);
        assert!(open.ffs > 0, "macro cost missing from open form");
        let sram = characterize_spec(&spec(1), &board).unwrap();
        assert_eq!(sram.access_cycles, 2 * board.sram_latency_cycles + 2);
        assert_eq!(open.access_cycles, 1);
    }

    #[test]
    fn round_trips_through_text() {
        let db = small_db();
        let text = db.to_text();
        let back = CharDb::parse(&text).unwrap();
        assert_eq!(back.records(), db.records());
        // One record per line between the header and the footer.
        assert_eq!(text.lines().count(), db.len() + 2);
    }

    #[test]
    fn append_is_idempotent_and_conflicts_are_named() {
        let board = Xsb300e::new();
        let mut db = CharDb::new();
        let r = characterize_spec(&spec(5), &board).unwrap();
        assert!(db.append(r.clone()).unwrap());
        assert!(!db.append(r.clone()).unwrap());
        assert_eq!(db.len(), 1);
        let mut forged = r;
        forged.luts += 1;
        match db.append(forged) {
            Err(CharDbError::Conflict { key, .. }) => assert!(key.ends_with("@xsb300e")),
            other => panic!("expected a conflict, got {other:?}"),
        }
    }

    #[test]
    fn merge_is_idempotent() {
        let db = small_db();
        let mut merged = CharDb::new();
        assert_eq!(merged.merge(&db).unwrap(), db.len());
        assert_eq!(merged.merge(&db).unwrap(), 0);
        assert_eq!(merged.len(), db.len());
    }

    #[test]
    fn rejects_wrong_schema_and_corrupt_text() {
        assert!(matches!(
            CharDb::parse("not json"),
            Err(CharDbError::Syntax { .. })
        ));
        match CharDb::parse("{\"points\":[]}") {
            Err(CharDbError::Schema { found: None }) => {}
            other => panic!("expected a schema error, got {other:?}"),
        }
        match CharDb::parse("{\"schema\":\"hdp-chardb-v2\",\"points\":[]}") {
            Err(CharDbError::Schema { found: Some(s) }) => assert_eq!(s, "hdp-chardb-v2"),
            other => panic!("expected a schema error, got {other:?}"),
        }
        // A zero clock is corrupt data, not a slow design.
        let board = Xsb300e::new();
        let mut db = CharDb::new();
        let r = characterize_spec(&spec(5), &board).unwrap();
        let needle = format!("\"clk_khz\":{}", r.clk_khz);
        db.append(r).unwrap();
        let corrupt = db.to_text().replace(&needle, "\"clk_khz\":0");
        match CharDb::parse(&corrupt) {
            Err(CharDbError::Field { path, .. }) => assert_eq!(path, "points[0].clk_khz"),
            other => panic!("expected a field error, got {other:?}"),
        }
    }

    #[test]
    fn queries_filter_on_every_axis() {
        let db = small_db();
        let queues = db.query(&Query {
            kind: Some("queue".into()),
            ..Query::default()
        });
        assert!(queues.iter().all(|r| r.spec.kind() == "queue"));
        assert!(queues.len() >= 2); // fifo_core and async_fifo targets
        let fast = db.query(&Query {
            max_access_cycles: Some(1),
            ..Query::default()
        });
        assert!(fast.iter().all(|r| r.access_cycles == 1));
        let none = db.query(&Query {
            min_clk_khz: 10_000_000,
            ..Query::default()
        });
        assert!(none.is_empty());
        let no_bram = db.query(&Query {
            max_brams: Some(0),
            ..Query::default()
        });
        assert!(no_bram.iter().all(|r| r.brams == 0));
        assert!(no_bram.len() < db.len(), "some family needs a block RAM");
    }

    #[test]
    fn pareto_frontier_is_nonempty_and_nondominated() {
        let db = small_db();
        let frontier = db.pareto();
        assert!(!frontier.is_empty());
        for f in &frontier {
            for o in db.records() {
                let dominates = o.area_cells() <= f.area_cells()
                    && u64::from(o.access_cycles) <= u64::from(f.access_cycles)
                    && o.power_uw <= f.power_uw
                    && (o.area_cells() < f.area_cells()
                        || o.access_cycles < f.access_cycles
                        || o.power_uw < f.power_uw);
                assert!(!dominates, "{o} dominates frontier point {f}");
            }
        }
    }

    #[test]
    fn coverage_counts_family_axes() {
        let db = small_db();
        let cov = db.coverage();
        assert_eq!(cov.values().sum::<usize>(), db.len());
        assert_eq!(cov.get(&("queue", "async_fifo")), Some(&1));
    }

    #[test]
    fn save_and_load_round_trip() {
        let db = small_db();
        let path = std::env::temp_dir().join("hdp_chardb_roundtrip.json");
        db.save(&path).unwrap();
        let back = CharDb::load(&path).unwrap();
        assert_eq!(back.records(), db.records());
        std::fs::remove_file(&path).ok();
        match CharDb::load(std::env::temp_dir().join("hdp_chardb_missing.json")) {
            Err(CharDbError::Io { .. }) => {}
            other => panic!("expected io error, got {other:?}"),
        }
    }
}
