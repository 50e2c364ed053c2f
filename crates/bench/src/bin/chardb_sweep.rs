//! Scaled §3.4 characterisation sweep: thousands of metagen-sampled
//! designs through `synthesize` + `estimate_mw`, persisted as an
//! `hdp-chardb-v1` database.
//!
//! The family axis is round-robined ([`sample_spec_in`]) so every
//! `(kind, target)` pair gets `count / 12` points regardless of seed,
//! and the whole batch is sharded across `pool::run_sharded` workers.
//! The run is deterministic for a fixed `--seed`: specs are drawn
//! from one sequential RNG stream before sharding, and the sharded
//! characterisation is pure, so the emitted database is byte-identical
//! at any `--threads` value.
//!
//! ```text
//! chardb_sweep [--count N] [--seed N] [--threads N]
//!              [--out FILE] [--summary FILE]
//! ```
//!
//! Writes the database to `--out` (default `chardb.json`) and a
//! `BENCH_chardb.json` summary (points/sec, family×target coverage,
//! plus a demonstration `select` answer). Exits non-zero when any
//! point fails to characterise, when a family ends up uncovered, or
//! when the demonstration query finds no target.

use hdp_conform::Json;
use hdp_metagen::sampler::{sample_spec_in, FAMILIES};
use hdp_service::pool::run_sharded;
use hdp_synth::board::Xsb300e;
use hdp_synth::chardb::{characterize_spec, CharDb, Query};
use hdp_synth::select::{auto_select, Selection};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::ExitCode;

const SUMMARY_JSON: &str = "BENCH_chardb.json";
const SUMMARY_SCHEMA: &str = "hdp-bench-chardb-v1";

struct Args {
    count: usize,
    seed: u64,
    threads: usize,
    out: String,
    summary: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        count: 1200,
        seed: 42,
        threads: 4,
        out: "chardb.json".to_owned(),
        summary: SUMMARY_JSON.to_owned(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut text = |flag: &str| it.next().ok_or_else(|| format!("{flag} expects a value"));
        match flag.as_str() {
            "--out" => args.out = text("--out")?,
            "--summary" => args.summary = text("--summary")?,
            "--count" => {
                args.count = text("--count")?
                    .parse::<usize>()
                    .map_err(|e| format!("--count: {e}"))?
                    .max(1);
            }
            "--seed" => {
                args.seed = text("--seed")?
                    .parse::<u64>()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--threads" => {
                args.threads = text("--threads")?
                    .parse::<usize>()
                    .map_err(|e| format!("--threads: {e}"))?
                    .max(1);
            }
            other => {
                return Err(format!(
                    "unknown argument `{other}` (expected --count/--seed/--threads/--out/--summary)"
                ))
            }
        }
    }
    Ok(args)
}

#[allow(clippy::cast_precision_loss, clippy::too_many_lines)]
fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("chardb_sweep: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Phase 1: draw the whole batch from one sequential RNG stream so
    // the spec list (and therefore the database) is a pure function
    // of (seed, count), independent of the thread count.
    let mut rng = StdRng::seed_from_u64(args.seed);
    let specs: Vec<_> = (0..args.count)
        .map(|i| sample_spec_in(&mut rng, i % FAMILIES.len()))
        .collect();

    // Phase 2: characterise, sharded.
    let board = Xsb300e::new();
    let started = std::time::Instant::now();
    let results = run_sharded(specs, args.threads, |spec| {
        let label = spec.label();
        (label, characterize_spec(&spec, &board))
    });
    let elapsed = started.elapsed().as_secs_f64();

    // Phase 3: assemble the database.
    let mut db = CharDb::new();
    let mut errors = 0usize;
    let mut duplicates = 0usize;
    for (label, result) in results {
        match result {
            Ok(record) => match db.append(record) {
                Ok(true) => {}
                Ok(false) => duplicates += 1,
                Err(e) => {
                    eprintln!("chardb_sweep: {label}: {e}");
                    errors += 1;
                }
            },
            Err(e) => {
                eprintln!("chardb_sweep: {label}: {e}");
                errors += 1;
            }
        }
    }
    let coverage = db.coverage();
    let families_covered = coverage.len();
    let points_per_sec = args.count as f64 / elapsed.max(1e-9);

    if let Err(e) = db.save(&args.out) {
        eprintln!("chardb_sweep: {e}");
        return ExitCode::FAILURE;
    }

    // A demonstration of the §3.4 decision the database automates:
    // the cheapest queue target that still answers in one cycle.
    let demo = Query {
        kind: Some("queue".to_owned()),
        min_data_width: 8,
        min_depth: 4,
        max_access_cycles: Some(1),
        ..Query::default()
    };
    let selection = auto_select(&db, &demo);

    let count = |n: usize| Json::Num(n as u64);
    let summary = Json::obj([
        ("schema", Json::Str(SUMMARY_SCHEMA.into())),
        ("seed", Json::Num(args.seed)),
        ("threads", count(args.threads)),
        ("requested_points", count(args.count)),
        ("unique_points", count(db.len())),
        ("duplicates", count(duplicates)),
        ("errors", count(errors)),
        ("elapsed_s", Json::Float(elapsed)),
        ("points_per_sec", Json::Float(points_per_sec)),
        ("families", count(FAMILIES.len())),
        ("families_covered", count(families_covered)),
        (
            "coverage",
            Json::obj(
                coverage
                    .iter()
                    .map(|((kind, target), n)| (format!("{kind}/{target}"), count(*n))),
            ),
        ),
        ("select_demo", selection.to_json()),
    ]);
    let summary = format!("{summary:#}\n");
    if let Err(e) = std::fs::write(&args.summary, &summary) {
        eprintln!("chardb_sweep: cannot write {}: {e}", args.summary);
        return ExitCode::FAILURE;
    }
    print!("{summary}");
    eprintln!(
        "chardb_sweep: {} unique points ({} duplicates, {} errors) in {:.2}s ({:.0} points/s) -> {}",
        db.len(),
        duplicates,
        errors,
        elapsed,
        points_per_sec,
        args.out
    );
    eprintln!("chardb_sweep: demo query: {selection}");

    let mut ok = true;
    if errors > 0 {
        eprintln!("chardb_sweep: FAIL: {errors} points failed to characterise");
        ok = false;
    }
    // Round-robined sampling must cover every (kind, target) pair
    // that is distinct; FAMILIES has repeated pairs (the iterator
    // rows), so compare against the distinct set.
    let distinct: std::collections::BTreeSet<_> = FAMILIES.iter().collect();
    if families_covered < distinct.len() {
        eprintln!(
            "chardb_sweep: FAIL: only {families_covered} of {} family pairs covered",
            distinct.len()
        );
        ok = false;
    }
    if matches!(selection, Selection::NoTarget(_)) {
        eprintln!("chardb_sweep: FAIL: demo select query found no target");
        ok = false;
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
