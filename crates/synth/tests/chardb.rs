//! Integration tests for the characterisation database: the pinned
//! `hdp-chardb-v1` fixture (schema stability), file round-trips,
//! merge idempotence, named rejection errors, and `auto_select`
//! against data that went through disk.
//!
//! The fixture under `tests/fixtures/chardb_v1.json` was generated
//! once (`chardb_sweep --count 12 --seed 7`) and is committed as a
//! compatibility contract: if the serialisation format, the cost
//! model, or the canonical spec encoding changes, these tests fail
//! and the schema version must be bumped instead.

use hdp_conform::Json;
use hdp_synth::board::Xsb300e;
use hdp_synth::chardb::{characterize_spec, Axis, CharDb, CharDbError, Query, CHARDB_SCHEMA};
use hdp_synth::select::{auto_select, Selection};

const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/chardb_v1.json");
/// The committed 1200-point catalog and its sweep summary, at the
/// repository root.
const CATALOG: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../chardb.json");
const CATALOG_SUMMARY: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_chardb.json");

fn fixture_db() -> CharDb {
    CharDb::load(FIXTURE).expect("pinned fixture must load")
}

#[test]
fn pinned_fixture_loads_and_round_trips_byte_identically() {
    let text = std::fs::read_to_string(FIXTURE).unwrap();
    assert!(
        text.starts_with(&format!("{{\"schema\":\"{CHARDB_SCHEMA}\",\"points\":[")),
        "header line is part of the schema contract"
    );
    let db = CharDb::parse(&text).unwrap();
    assert_eq!(db.len(), 12, "one point per design family");
    // Serialisation is canonical: parse → to_text reproduces the
    // committed bytes exactly.
    assert_eq!(db.to_text(), text);
}

#[test]
fn pinned_fixture_metrics_are_stable() {
    let db = fixture_db();
    // Two rows pinned value-for-value: a register-target FIFO and the
    // multi-clock async FIFO. A cost-model change that moves either
    // must bump the schema version rather than silently reshape
    // every committed database.
    let fifo = &db.records()[0];
    assert_eq!(fifo.spec.label(), "rbuffer_fifo w=8 ops=empty+pop");
    assert_eq!(
        (fifo.ffs, fifo.luts, fifo.brams),
        (10, 21, 0),
        "resource pin"
    );
    assert_eq!(
        (fifo.clk_khz, fifo.access_cycles, fifo.power_uw),
        (125_000, 1, 15_373),
        "timing/power pin"
    );
    let async_fifo = &db.records()[11];
    assert_eq!(async_fifo.spec.label(), "async_fifo w=16 d=8 ratio=3:1");
    assert_eq!(
        (async_fifo.ffs, async_fifo.luts, async_fifo.brams),
        (160, 172, 0)
    );
    assert_eq!(
        (
            async_fifo.clk_khz,
            async_fifo.access_cycles,
            async_fifo.power_uw
        ),
        (77_519, 2, 17_347)
    );
    // The index agrees with the record list.
    for record in db.records() {
        assert_eq!(db.get(&record.key()), Some(record));
    }
}

#[test]
fn append_save_load_query_round_trip() {
    let mut db = fixture_db();
    // Grow the loaded database with a freshly characterised point and
    // push it through disk.
    let board = Xsb300e::new();
    let spec = db.records()[0].spec.clone();
    let mut wider = spec;
    wider.data_width = 32;
    let record = characterize_spec(&wider, &board).unwrap();
    assert!(db.append(record).unwrap(), "new point must insert");

    let path = std::env::temp_dir().join(format!("hdp_chardb_it_{}.json", std::process::id()));
    db.save(&path).unwrap();
    let reloaded = CharDb::load(&path).unwrap();
    std::fs::remove_file(&path).ok();

    assert_eq!(reloaded.len(), db.len());
    // Query results survive the disk round-trip exactly.
    let q = Query {
        kind: Some("read_buffer".to_owned()),
        min_data_width: 8,
        ..Query::default()
    };
    let before: Vec<String> = db.query(&q).iter().map(|r| r.key()).collect();
    let after: Vec<String> = reloaded.query(&q).iter().map(|r| r.key()).collect();
    assert_eq!(before, after);
    assert_eq!(
        before.len(),
        2,
        "original rbuffer_fifo plus the w=32 variant"
    );
}

#[test]
fn merge_is_idempotent() {
    let fixture = fixture_db();
    let mut db = CharDb::new();
    assert_eq!(db.merge(&fixture).unwrap(), 12);
    assert_eq!(db.merge(&fixture).unwrap(), 0, "second merge adds nothing");
    assert_eq!(db.to_text(), fixture.to_text());
}

#[test]
fn wrong_version_and_corrupt_inputs_are_named_errors() {
    let text = std::fs::read_to_string(FIXTURE).unwrap();

    let v2 = text.replace(CHARDB_SCHEMA, "hdp-chardb-v2");
    match CharDb::parse(&v2) {
        Err(CharDbError::Schema { found: Some(found) }) => assert_eq!(found, "hdp-chardb-v2"),
        other => panic!("wrong version must be a Schema error, got {other:?}"),
    }

    assert!(
        matches!(
            CharDb::parse("{\"points\":[]}"),
            Err(CharDbError::Schema { found: None })
        ),
        "missing schema field is a Schema error"
    );
    assert!(
        matches!(CharDb::parse("not json"), Err(CharDbError::Syntax { .. })),
        "unparseable text is a Syntax error"
    );
    let zero_clock = text.replacen("\"clk_khz\":125000", "\"clk_khz\":0", 1);
    match CharDb::parse(&zero_clock) {
        Err(CharDbError::Field { path, .. }) => assert_eq!(path, "points[0].clk_khz"),
        other => panic!("invalid metric must be a Field error, got {other:?}"),
    }

    let no_board = text.replacen("\"board\":\"xsb300e\"", "\"board\":\"\"", 1);
    match CharDb::parse(&no_board) {
        Err(CharDbError::Field { path, .. }) => assert_eq!(path, "points[0].board"),
        other => panic!("an empty board must be a Field error, got {other:?}"),
    }
    let deep = format!(
        "{{\"schema\":\"{CHARDB_SCHEMA}\",\"points\":{}",
        "[".repeat(100_000)
    );
    assert!(
        matches!(CharDb::parse(&deep), Err(CharDbError::Syntax { .. })),
        "nesting past the parser's bound is a Syntax error"
    );

    match CharDb::load("/nonexistent/chardb.json") {
        Err(CharDbError::Io { path, .. }) => assert!(path.contains("nonexistent")),
        other => panic!("missing file must be an Io error, got {other:?}"),
    }
}

#[test]
fn auto_select_answers_over_reloaded_data() {
    let db = fixture_db();
    // Only one queue in the fixture is at least 8 bits wide: the
    // async FIFO.
    let c = Query {
        kind: Some("queue".to_owned()),
        min_data_width: 8,
        ..Query::default()
    };
    match auto_select(&db, &c) {
        Selection::Target { record, .. } => {
            assert_eq!(record.spec.target(), "async_fifo");
            assert_eq!(record.spec.data_width, 16);
        }
        Selection::NoTarget(rej) => panic!("expected a target, got rejections {rej:?}"),
    }
    // Unsatisfiable depth: every rejection is attributed and the
    // counts cover the whole catalog.
    let impossible = Query {
        kind: Some("queue".to_owned()),
        min_depth: 1000,
        ..Query::default()
    };
    match auto_select(&db, &impossible) {
        Selection::NoTarget(rej) => {
            assert_eq!(rej.considered, 12);
            assert_eq!(rej.count(Axis::Kind), 10);
            assert_eq!(rej.count(Axis::Depth), 2);
        }
        Selection::Target { key, .. } => panic!("depth 1000 cannot be satisfied, got {key}"),
    }

    // The two transcripts of docs/CHARACTERIZATION.md §3, answered
    // from the committed catalog.
    let catalog = CharDb::load(CATALOG).expect("committed catalog must load");
    let queues = Query {
        kind: Some("queue".to_owned()),
        min_data_width: 8,
        min_depth: 8,
        max_access_cycles: Some(1),
        ..Query::default()
    };
    match auto_select(&catalog, &queues) {
        Selection::Target { key, record } => {
            assert_eq!(key, "3e37b31e32bf95827f1b9835710a6ecb@xsb300e");
            assert_eq!(record.spec.label(), "queue_fifo w=9 d=8 ops=empty");
        }
        Selection::NoTarget(rej) => panic!("expected a target, got rejections {rej:?}"),
    }
    let deep = Query {
        min_depth: 16,
        ..queues
    };
    match auto_select(&catalog, &deep) {
        Selection::NoTarget(rej) => {
            assert_eq!(rej.considered, 1200);
            let expect = [
                ("wrong_kind", 1000),
                ("too_narrow", 91),
                ("too_shallow", 109),
                ("too_slow", 0),
                ("too_big", 0),
                ("too_many_brams", 0),
                ("too_hungry", 0),
                ("over_budget", 0),
            ];
            let doc = rej.to_json();
            for (name, n) in expect {
                assert_eq!(doc.get(name).and_then(Json::as_u64), Some(n), "{name}");
            }
        }
        Selection::Target { key, .. } => panic!("no queue is 16 deep, got {key}"),
    }
}

#[test]
fn committed_catalog_matches_its_summary() {
    let db = CharDb::load(CATALOG).expect("committed catalog must load and validate");
    let summary = Json::parse(&std::fs::read_to_string(CATALOG_SUMMARY).unwrap()).unwrap();
    assert_eq!(
        summary.get("schema").and_then(Json::as_str),
        Some("hdp-bench-chardb-v1")
    );
    assert_eq!(
        summary.get("unique_points").and_then(Json::as_u64),
        Some(db.len() as u64),
        "chardb.json and BENCH_chardb.json come from one sweep"
    );
}
