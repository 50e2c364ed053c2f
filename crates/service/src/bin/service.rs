//! The `service` CLI: serve, submit, select, metrics.
//!
//! ```text
//! service serve   [--addr HOST:PORT] [--threads N] [--cache N]
//!                 [--obs off|counters|sample] [--catalog FILE]
//! service submit  [--addr HOST:PORT] [FILE ...]
//! service select  --kind KIND [--catalog FILE | --addr HOST:PORT]
//!                 [--min-width N] [--min-depth N] [--min-clk-khz N]
//!                 [--max-area N] [--max-power-uw N] [--max-access N]
//! service metrics [--addr HOST:PORT] [--json]
//! ```
//!
//! `serve` runs the job server in the foreground until killed; by
//! default it samples (`--obs sample`): per-stage latency histograms
//! and span timing on every job. `--catalog` loads an `hdp-chardb-v1`
//! characterisation database and enables the `select` wire verb.
//! `submit` reads newline-delimited job documents from the given
//! files (or stdin when none) and prints one response per line.
//! `select` answers one §3.4 implementation-selection query — the
//! cheapest characterised target satisfying the constraints — either
//! locally against `--catalog FILE` or over the wire against a
//! running server's catalog, printing an `hdp-service-select-v1`
//! document. `metrics` fetches a live
//! `hdp-service-metrics-v6` snapshot from a running server via the
//! `stats` verb and renders it Prometheus-style (`--json` prints the
//! raw snapshot document instead).

use hdp_conform::Json;
use hdp_service::job::SELECT_SCHEMA;
use hdp_service::metrics::{MetricsSnapshot, ObsMode};
use hdp_service::{serve, submit, Service};
use hdp_synth::{auto_select, CharDb, Query};
use std::io::Read;
use std::process::ExitCode;
use std::sync::Arc;

fn value(it: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
    it.next().ok_or_else(|| format!("{flag} expects a value"))
}

fn num(it: &mut impl Iterator<Item = String>, flag: &str) -> Result<u64, String> {
    value(it, flag)?
        .parse::<u64>()
        .map_err(|e| format!("{flag}: {e}"))
}

fn cmd_serve(mut it: impl Iterator<Item = String>) -> Result<(), String> {
    let mut addr = "127.0.0.1:7501".to_owned();
    let mut threads = 4usize;
    let mut cache = 256usize;
    let mut obs = ObsMode::Sampled;
    let mut catalog: Option<String> = None;
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--addr" => addr = value(&mut it, "--addr")?,
            "--threads" => threads = num(&mut it, "--threads")?.max(1) as usize,
            "--cache" => cache = num(&mut it, "--cache")? as usize,
            "--obs" => obs = ObsMode::parse(&value(&mut it, "--obs")?)?,
            "--catalog" => catalog = Some(value(&mut it, "--catalog")?),
            other => return Err(format!("serve: unknown argument `{other}`")),
        }
    }
    let service = Arc::new(Service::with_obs(cache, obs));
    let mut catalog_note = String::new();
    if let Some(path) = &catalog {
        let db = CharDb::load(path).map_err(|e| e.to_string())?;
        catalog_note = format!(", catalog {} points", db.len());
        service.set_catalog(Arc::new(db));
    }
    let handle = serve(addr.as_str(), service, threads).map_err(|e| e.to_string())?;
    eprintln!(
        "service: listening on {} ({threads} workers, cache capacity {cache}, obs {}{catalog_note})",
        handle.addr(),
        obs.label()
    );
    // Foreground server: park until killed. The handle's drop logic
    // never runs, which is fine — the process exit tears it down.
    loop {
        std::thread::park();
    }
}

fn cmd_submit(mut it: impl Iterator<Item = String>) -> Result<(), String> {
    let mut addr = "127.0.0.1:7501".to_owned();
    let mut files = Vec::new();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--addr" => addr = value(&mut it, "--addr")?,
            other => files.push(other.to_owned()),
        }
    }
    let mut lines = Vec::new();
    if files.is_empty() {
        let mut text = String::new();
        std::io::stdin()
            .read_to_string(&mut text)
            .map_err(|e| format!("stdin: {e}"))?;
        lines.extend(text.lines().map(str::to_owned));
    } else {
        for file in &files {
            let text = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
            lines.extend(text.lines().map(str::to_owned));
        }
    }
    lines.retain(|l| !l.trim().is_empty());
    if lines.is_empty() {
        return Err("submit: no job documents given".to_owned());
    }
    let responses = submit(addr.as_str(), &lines).map_err(|e| e.to_string())?;
    for response in responses {
        println!("{response}");
    }
    Ok(())
}

fn cmd_select(mut it: impl Iterator<Item = String>) -> Result<(), String> {
    let mut addr = "127.0.0.1:7501".to_owned();
    let mut catalog: Option<String> = None;
    let mut constraints = Query::default();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--addr" => addr = value(&mut it, "--addr")?,
            "--catalog" => catalog = Some(value(&mut it, "--catalog")?),
            "--kind" => constraints.kind = Some(value(&mut it, "--kind")?),
            "--min-width" => {
                constraints.min_data_width = num(&mut it, "--min-width")? as usize;
            }
            "--min-depth" => constraints.min_depth = num(&mut it, "--min-depth")? as usize,
            "--min-clk-khz" => constraints.min_clk_khz = num(&mut it, "--min-clk-khz")?,
            "--max-area" => constraints.max_area_cells = Some(num(&mut it, "--max-area")?),
            "--max-power-uw" => {
                constraints.max_power_uw = Some(num(&mut it, "--max-power-uw")?);
            }
            "--max-access" => {
                let n = num(&mut it, "--max-access")?;
                constraints.max_access_cycles =
                    Some(u32::try_from(n).map_err(|_| format!("--max-access: {n} too large"))?);
            }
            other => return Err(format!("select: unknown argument `{other}`")),
        }
    }
    if constraints.kind.is_none() {
        return Err("select: --kind is required (e.g. --kind queue)".to_owned());
    }
    match catalog {
        // Local mode: load the database and answer in-process,
        // printing the same document shape the wire verb returns.
        Some(path) => {
            let db = CharDb::load(&path).map_err(|e| e.to_string())?;
            let selection = auto_select(&db, &constraints);
            let doc = Json::obj([
                ("schema", Json::Str(SELECT_SCHEMA.into())),
                ("catalog_points", Json::Num(db.len() as u64)),
                ("constraints", constraints.to_json()),
                ("result", selection.to_json()),
            ]);
            println!("{doc}");
            eprintln!("service select: {selection}");
        }
        // Wire mode: ask a running server's catalog.
        None => {
            let line = Json::obj([
                ("verb", Json::Str("select".into())),
                ("constraints", constraints.to_json()),
            ])
            .to_string();
            let responses = submit(addr.as_str(), &[line]).map_err(|e| format!("{addr}: {e}"))?;
            let response = responses
                .first()
                .ok_or_else(|| "select: empty response".to_owned())?;
            println!("{response}");
        }
    }
    Ok(())
}

fn cmd_metrics(mut it: impl Iterator<Item = String>) -> Result<(), String> {
    let mut addr = "127.0.0.1:7501".to_owned();
    let mut raw_json = false;
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--addr" => addr = value(&mut it, "--addr")?,
            "--json" => raw_json = true,
            other => return Err(format!("metrics: unknown argument `{other}`")),
        }
    }
    let responses = submit(addr.as_str(), &["{\"verb\":\"stats\"}".to_owned()])
        .map_err(|e| format!("{addr}: {e}"))?;
    let line = responses
        .first()
        .ok_or_else(|| "metrics: empty response".to_owned())?;
    if raw_json {
        println!("{line}");
        return Ok(());
    }
    let doc = Json::parse(line).map_err(|e| format!("metrics: bad snapshot: {e}"))?;
    let snapshot = MetricsSnapshot::from_json(&doc)?;
    print!("{}", snapshot.render_text());
    Ok(())
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let result = match args.next().as_deref() {
        Some("serve") => cmd_serve(args),
        Some("submit") => cmd_submit(args),
        Some("select") => cmd_select(args),
        Some("metrics") => cmd_metrics(args),
        Some(other) => Err(format!(
            "unknown subcommand `{other}` (expected serve/submit/select/metrics)"
        )),
        None => Err("usage: service <serve|submit|select|metrics> [options]".to_owned()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("service: {e}");
            ExitCode::FAILURE
        }
    }
}
