//! Automatic target selection over the characterisation database.
//!
//! §3.4's punchline: once every container×target×parameter point is
//! characterised, the implementation decision the paper made by hand
//! — "which physical target should this container use, given my
//! constraints?" — becomes a database query. [`auto_select`] is that
//! query: given a [`Query`] (container kind, minimum
//! width/depth/clock, maxima for area, block RAMs, power and access
//! cycles), it scans a [`CharDb`] and returns the *cheapest*
//! satisfying record, with cost ordered lexicographically by (area,
//! power, access cycles) and ties broken deterministically by record
//! key.
//!
//! An unsatisfiable constraint set is a structured answer, not a
//! failure: [`Selection::NoTarget`] reports how many candidates each
//! constraint axis eliminated, which is exactly what a user needs to
//! relax the right one. [`Query::to_json`]/[`Query::from_json`] and
//! [`Selection::to_json`] carry the `hdp-service`
//! `{"verb":"select"}` wire verb.

use crate::chardb::{Axis, CharDb, CharRecord, Query};
use hdp_conform::json::Json;
use std::cmp::Ordering;
use std::fmt;

/// Why the candidate pool drained: per-axis elimination counts over
/// the whole database, in [`Axis::ALL`] order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Rejections {
    /// Records inspected (the database size).
    pub considered: usize,
    /// Records charged to each axis, indexed in [`Axis::ALL`] order.
    pub by_axis: [usize; Axis::ALL.len()],
}

impl Rejections {
    /// Records eliminated by one axis.
    #[must_use]
    pub fn count(&self, axis: Axis) -> usize {
        self.by_axis[axis as usize]
    }

    /// `(rejection name, count)` for every axis, in test order.
    fn named(&self) -> impl Iterator<Item = (&'static str, usize)> + '_ {
        Axis::ALL
            .into_iter()
            .map(|axis| (axis.rejection(), self.count(axis)))
    }

    /// The `rejected` object of a no-target answer.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(self.named().map(|(name, n)| (name, Json::Num(n as u64))))
    }
}

impl fmt::Display for Rejections {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "no satisfying target among {} records (",
            self.considered
        )?;
        for (i, (name, n)) in self.named().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            write!(f, "{sep}{} {n}", name.replace('_', " "))?;
        }
        write!(f, ")")
    }
}

/// The outcome of [`auto_select`]: either the cheapest satisfying
/// record, or a structured account of why no record satisfies.
#[derive(Debug, Clone, PartialEq)]
pub enum Selection {
    /// A target was found: the winning record and its key.
    Target {
        /// The winner's `design_hash@board` database key.
        key: String,
        /// The winning characterised point.
        record: CharRecord,
    },
    /// No record satisfies the constraints.
    NoTarget(Rejections),
}

impl Selection {
    /// Serialises the outcome as a wire JSON object
    /// (`selected: true/false` plus the winner's axes and metrics, or
    /// the rejection counts).
    #[must_use]
    pub fn to_json(&self) -> Json {
        match self {
            Selection::Target { key, record } => Json::obj([
                ("selected", Json::Bool(true)),
                ("key", Json::Str(key.clone())),
                ("kind", Json::Str(record.spec.kind().to_owned())),
                ("target", Json::Str(record.spec.target().to_owned())),
                ("label", Json::Str(record.spec.label())),
                ("board", Json::Str(record.board.clone())),
                ("ffs", Json::Num(record.ffs as u64)),
                ("luts", Json::Num(record.luts as u64)),
                ("brams", Json::Num(record.brams as u64)),
                ("area_cells", Json::Num(record.area_cells())),
                ("clk_khz", Json::Num(record.clk_khz)),
                ("access_cycles", Json::Num(u64::from(record.access_cycles))),
                ("power_uw", Json::Num(record.power_uw)),
            ]),
            Selection::NoTarget(r) => Json::obj([
                ("selected", Json::Bool(false)),
                ("considered", Json::Num(r.considered as u64)),
                ("rejected", r.to_json()),
            ]),
        }
    }
}

impl fmt::Display for Selection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Selection::Target { key, record } => {
                write!(f, "selected {} [{key}]\n  {record}", record.spec.target())
            }
            Selection::NoTarget(r) => write!(f, "{r}"),
        }
    }
}

/// The selection cost of a record: (area, power, access cycles).
fn cost(r: &CharRecord) -> (u64, u64, u32) {
    (r.area_cells(), r.power_uw, r.access_cycles)
}

/// Picks the cheapest database record satisfying the constraints —
/// the paper's manual implementation decision, automated.
///
/// Each record is tested on the axes of [`Axis::ALL`] in order and a
/// rejection is charged to the *first* axis it fails, so the
/// [`Rejections`] counts sum to `considered` on a miss. Among the
/// survivors, cost is compared lexicographically by
/// (area, power, access cycles); exact ties fall back to the record
/// key, so the result is deterministic regardless of database order.
/// Keys are only built to break such a tie.
///
/// # Example
///
/// ```
/// use hdp_synth::board::Xsb300e;
/// use hdp_synth::chardb::{characterize_spec, Axis, CharDb, Query};
/// use hdp_synth::select::{auto_select, Selection};
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
/// // A single-cycle access budget forces the FIFO-core target.
/// let fast = auto_select(&db, &Query {
///     kind: Some("read_buffer".into()),
///     max_access_cycles: Some(1),
///     ..Query::default()
/// });
/// match fast {
///     Selection::Target { record, .. } => {
///         assert_eq!(record.spec.target(), "fifo_core");
///     }
///     Selection::NoTarget(_) => unreachable!(),
/// }
/// // An impossible clock floor is a structured miss, not a panic.
/// let miss = auto_select(&db, &Query {
///     kind: Some("read_buffer".into()),
///     min_clk_khz: 10_000_000,
///     ..Query::default()
/// });
/// assert!(matches!(miss, Selection::NoTarget(r) if r.count(Axis::Clock) == 2));
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn auto_select(db: &CharDb, q: &Query) -> Selection {
    let mut rej = Rejections {
        considered: db.len(),
        ..Rejections::default()
    };
    let mut best: Option<&CharRecord> = None;
    for r in db.records() {
        if let Some(axis) = q.first_failure(r) {
            rej.by_axis[axis as usize] += 1;
            continue;
        }
        let cheaper = best.is_none_or(|b| match cost(r).cmp(&cost(b)) {
            Ordering::Less => true,
            Ordering::Greater => false,
            Ordering::Equal => r.key() < b.key(),
        });
        if cheaper {
            best = Some(r);
        }
    }
    match best {
        Some(record) => Selection::Target {
            key: record.key(),
            record: record.clone(),
        },
        None => Selection::NoTarget(rej),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::board::Xsb300e;
    use crate::chardb::characterize_spec;
    use hdp_metagen::sampler::DesignSpec;
    use hdp_metagen::{MethodOp, OpSet};

    fn rbuffer_spec(family: usize, addr_width: usize, depth: usize) -> DesignSpec {
        DesignSpec {
            family,
            data_width: 8,
            depth,
            addr_width,
            key_width: 4,
            wide: 0,
            write_side: false,
            ops: OpSet::of(&[MethodOp::Pop]),
            wr_period: 1,
            rd_period: 1,
        }
    }

    /// Read buffers over the FIFO core and over SRAM at one depth.
    fn two_target_db(depth: usize) -> CharDb {
        let board = Xsb300e::new();
        let mut db = CharDb::new();
        for family in [0, 1] {
            db.append(characterize_spec(&rbuffer_spec(family, 16, depth), &board).unwrap())
                .unwrap();
        }
        db
    }

    fn read_buffers() -> Query {
        Query {
            kind: Some("read_buffer".into()),
            ..Query::default()
        }
    }

    fn rejections(db: &CharDb, q: &Query) -> Rejections {
        match auto_select(db, q) {
            Selection::NoTarget(r) => r,
            Selection::Target { key, .. } => panic!("expected no target, got {key}"),
        }
    }

    #[test]
    fn exactly_one_satisfying_target_wins() {
        let db = two_target_db(4);
        // The access budget leaves only the FIFO core.
        let sel = auto_select(
            &db,
            &Query {
                max_access_cycles: Some(1),
                ..read_buffers()
            },
        );
        match sel {
            Selection::Target { ref record, .. } => {
                assert_eq!(record.spec.target(), "fifo_core");
            }
            Selection::NoTarget(r) => panic!("no target: {r:?}"),
        }
        // Unconstrained, the smallest-area point wins.
        let cheapest = db
            .records()
            .iter()
            .min_by_key(|r| (r.area_cells(), r.power_uw, r.access_cycles))
            .unwrap()
            .key();
        match auto_select(&db, &read_buffers()) {
            Selection::Target { ref key, .. } => assert_eq!(*key, cheapest),
            Selection::NoTarget(r) => panic!("no target: {r:?}"),
        }
    }

    #[test]
    fn unsatisfiable_is_structured_and_counts_sum() {
        let db = two_target_db(4);
        let r = rejections(
            &db,
            &Query {
                min_clk_khz: 10_000_000,
                ..read_buffers()
            },
        );
        assert_eq!(r.considered, 2);
        assert_eq!(r.by_axis.iter().sum::<usize>(), r.considered);
        assert_eq!(r.count(Axis::Clock), 2);
        // A kind nothing in the db has.
        let r = rejections(
            &db,
            &Query {
                kind: Some("assoc_array".into()),
                ..Query::default()
            },
        );
        assert_eq!(r.count(Axis::Kind), 2);
    }

    #[test]
    fn brams_are_charged_after_area_and_before_power() {
        // At depth 512 the FIFO core needs a block RAM; the SRAM
        // target needs none.
        let db = two_target_db(512);
        let [fifo, sram] = db.records() else {
            panic!("two records expected");
        };
        assert!(fifo.brams > 0 && sram.brams == 0);
        let no_bram = Query {
            max_brams: Some(0),
            ..read_buffers()
        };
        match auto_select(&db, &no_bram) {
            Selection::Target { record, .. } => assert_eq!(record.spec.target(), "sram"),
            Selection::NoTarget(r) => panic!("no target: {r:?}"),
        }
        // Over the area cap too: charged to area, which comes first.
        let r = rejections(
            &db,
            &Query {
                max_area_cells: Some(sram.area_cells() - 1),
                ..no_bram.clone()
            },
        );
        assert_eq!(r.count(Axis::Area), 2);
        assert_eq!(r.count(Axis::Brams), 0);
        // Over the power cap too: charged to brams, which comes first;
        // the SRAM point fails on power alone.
        let r = rejections(
            &db,
            &Query {
                max_power_uw: Some(1),
                ..no_bram
            },
        );
        assert_eq!(r.count(Axis::Brams), 1);
        assert_eq!(r.count(Axis::Power), 1);
        for (i, axis) in Axis::ALL.into_iter().enumerate() {
            assert_eq!(axis as usize, i, "{axis:?} indexes by_axis");
        }
        let rejected = r.to_json();
        assert_eq!(
            rejected.get("too_many_brams").and_then(Json::as_u64),
            Some(1)
        );
        let names: Vec<&str> = match &rejected {
            Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            other => panic!("not an object: {other}"),
        };
        assert_eq!(
            names,
            [
                "wrong_kind",
                "too_narrow",
                "too_shallow",
                "too_slow",
                "too_big",
                "too_many_brams",
                "too_hungry",
                "over_budget"
            ]
        );
        assert!(
            r.to_string()
                .contains("too big 0, too many brams 1, too hungry 1"),
            "{r}"
        );
    }

    #[test]
    fn ties_break_deterministically_by_key() {
        // Two SRAM rbuffers differing only in the (cost-irrelevant)
        // external address width: identical metrics, different keys.
        let board = Xsb300e::new();
        let a = characterize_spec(&rbuffer_spec(1, 12, 4), &board).unwrap();
        let b = characterize_spec(&rbuffer_spec(1, 13, 4), &board).unwrap();
        assert_eq!((a.ffs, a.luts, a.power_uw), (b.ffs, b.luts, b.power_uw));
        let expect = a.key().min(b.key());
        for order in [[&a, &b], [&b, &a]] {
            let mut db = CharDb::new();
            for r in order {
                db.append(r.clone()).unwrap();
            }
            match auto_select(&db, &read_buffers()) {
                Selection::Target { key, .. } => assert_eq!(key, expect),
                Selection::NoTarget(r) => panic!("no target: {r:?}"),
            }
        }
    }

    #[test]
    fn constraints_round_trip_through_json() {
        let full = Query {
            kind: Some("queue".into()),
            min_data_width: 8,
            min_depth: 4,
            min_clk_khz: 50_000,
            max_area_cells: Some(500),
            max_brams: Some(1),
            max_power_uw: Some(20_000),
            max_access_cycles: Some(2),
        };
        let back = Query::from_json(&full.to_json()).unwrap();
        assert_eq!(back, full);
        let sparse = Query {
            kind: Some("stack".into()),
            ..Query::default()
        };
        let back = Query::from_json(&sparse.to_json()).unwrap();
        assert_eq!(back, sparse);
        // The echo of a request without `max_brams` is unchanged.
        assert_eq!(
            Query {
                max_access_cycles: Some(1),
                ..sparse
            }
            .to_json()
            .to_string(),
            "{\"kind\":\"stack\",\"min_data_width\":0,\"min_depth\":0,\
             \"min_clk_khz\":0,\"max_access_cycles\":1}"
        );
        // kind is mandatory, numbers must be numbers, and the access
        // budget must fit a u32.
        let err = |text: &str| Query::from_json(&Json::parse(text).unwrap()).unwrap_err();
        assert_eq!(err("{}"), "constraints.kind: missing or non-string");
        assert_eq!(
            err("{\"kind\":\"queue\",\"max_brams\":\"none\"}"),
            "constraints.max_brams: non-numeric"
        );
        assert_eq!(
            err("{\"kind\":\"queue\",\"max_access_cycles\":4294967296}"),
            "constraints.max_access_cycles: out of range"
        );
    }

    #[test]
    fn selection_json_carries_the_outcome() {
        let db = two_target_db(4);
        let doc = auto_select(&db, &read_buffers()).to_json();
        assert_eq!(doc.get("selected").and_then(Json::as_bool), Some(true));
        assert!(doc.get("key").and_then(Json::as_str).is_some());
        assert!(doc.get("area_cells").and_then(Json::as_u64).is_some());
        let miss = auto_select(
            &db,
            &Query {
                kind: Some("vector".into()),
                ..Query::default()
            },
        );
        let doc = miss.to_json();
        assert_eq!(doc.get("selected").and_then(Json::as_bool), Some(false));
        assert_eq!(
            doc.get("rejected")
                .and_then(|r| r.get("wrong_kind"))
                .and_then(Json::as_u64),
            Some(2)
        );
    }
}
