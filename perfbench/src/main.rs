//! The hdp benchmark: one named workload from a seed, every output
//! checked, every end-to-end metric printed by name with its unit.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload svc_warm_short --seed 42 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` is the
//! separate traced run that times the public calls into each layer.
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. Any wrong output
//! makes the run exit with code 1; bad arguments or a set-up failure
//! with code 2. See `perfbench/README.md`.

mod measure;
mod svc;
mod table3;

use measure::{
    end_to_end, per_layer, Budget, Layers, Metric, OpLog, OP_MEAN_US, PER_LAYER, SHARE_OF_OP,
};
use std::fmt::Write as _;
use std::process::ExitCode;

/// Seconds of the Table 3 run that follows a service workload's traced
/// window.
const TABLE3_PROBE_S: f64 = 2.0;

/// The workloads, by the names `--workload` takes.
pub const WORKLOADS: [&str; 5] = [
    "svc_warm_short",
    "svc_warm_mid",
    "svc_warm_long",
    "svc_churn",
    "table3_frames",
];

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    budget: Budget,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 42;
    let mut budget = Budget::Seconds(10.0);
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(format!("unknown workload {value}; one of {WORKLOADS:?}")),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| bad(&e))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad(&"outside (0, 600]"));
                }
                budget = Budget::Seconds(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"not 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        budget,
        trace,
    })
}

/// One run's result, ready to print.
#[derive(Debug)]
struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    /// Human-readable lines printed before the JSON line.
    lines: Vec<String>,
}

fn no_tamper<T>(_: &mut [T]) {}

fn shape(workload: &str) -> svc::Shape {
    match workload {
        "svc_warm_short" => svc::WARM_SHORT,
        "svc_warm_mid" => svc::WARM_MID,
        "svc_warm_long" => svc::WARM_LONG,
        _ => svc::CHURN,
    }
}

fn run(args: &Args) -> Result<Report, String> {
    let is_table3 = args.workload == "table3_frames";
    if args.trace {
        let (log, layers, spans) = if is_table3 {
            let t = table3::run_traced(args.seed, args.budget)?;
            (t.log, t.layers, t.spans)
        } else {
            let mut t = svc::run_traced(shape(&args.workload), args.seed, args.budget)?;
            // The device models and the Table 3 generator lie on no
            // service path; a short Table 3 run after the window
            // measures them, so every layer is measured on every
            // workload `BENCHMARK.json` lists.
            let probe = table3::run_traced(args.seed, Budget::Seconds(TABLE3_PROBE_S))?;
            for (name, value) in probe.layers {
                if table3::own_layer(name) {
                    t.layers.insert(name, value);
                }
            }
            t.log.absorb(&probe.log);
            (t.log, t.layers, t.spans)
        };
        let metrics = per_layer(&layers);
        let mut lines = summary(&args.workload, &log);
        lines.extend(layer_report(&metrics, &layers, is_table3));
        let path = spans_path(&args.workload, args.seed);
        match std::fs::create_dir_all(path.parent().expect("path has a directory"))
            .and_then(|()| std::fs::write(&path, spans.chrome_trace()))
        {
            Ok(()) => lines.push(format!(
                "{} spans written to {}",
                spans.len(),
                path.display()
            )),
            Err(e) => lines.push(format!("spans not written to {}: {e}", path.display())),
        }
        return Ok(Report {
            attempted: log.attempted(),
            failed: log.failed,
            metrics,
            lines,
        });
    }
    let (log, setup_s, counts) = if is_table3 {
        let r = table3::run(args.seed, args.budget, no_tamper)?;
        let counts = format!("cycles per round {}", r.cycles_per_round);
        (r.log, r.setup_s, counts)
    } else {
        let r = svc::run(shape(&args.workload), args.seed, args.budget, no_tamper)?;
        let counts = format!(
            "cache hits {} misses {} evictions {} plans installed {}",
            r.cache.hits, r.cache.misses, r.cache.evictions, r.cache.plans_installed
        );
        (r.log, r.setup_s, counts)
    };
    let metrics = end_to_end(&log, setup_s);
    let mut lines = summary(&args.workload, &log);
    lines.push(counts);
    for m in &metrics {
        lines.push(format!("{} = {} {}", m.name, m.value, m.unit));
    }
    lines.push(format!("error_ratio = {} ratio", error_ratio(&log)));
    Ok(Report {
        attempted: log.attempted(),
        failed: log.failed,
        metrics,
        lines,
    })
}

fn error_ratio(log: &OpLog) -> f64 {
    log.failed as f64 / log.attempted().max(1) as f64
}

fn summary(workload: &str, log: &OpLog) -> Vec<String> {
    vec![format!(
        "{workload}: {} ops attempted, {} failed, {} latency samples, {:.3} s timed",
        log.attempted(),
        log.failed,
        log.latencies.len(),
        log.elapsed.as_secs_f64()
    )]
}

/// The traced-run table: each per-layer metric, the share of the mean
/// traced op for per-op times, and the end-to-end metric it should move.
/// Table 3 layers measured after a service window get no share: they
/// are no part of its op.
fn layer_report(metrics: &[Metric], layers: &Layers, is_table3: bool) -> Vec<String> {
    let op_us = layers.get(OP_MEAN_US).copied().unwrap_or(0.0);
    let mut lines = vec![
        format!("mean traced op {op_us:.3} us"),
        format!(
            "{:<40} {:>14} {:<6} {:>7}  {:<18} {:<17} on",
            "metric", "value", "unit", "share", "layer", "moves"
        ),
    ];
    for (m, spec) in metrics.iter().zip(&PER_LAYER) {
        let of_op = SHARE_OF_OP.contains(&spec.name) && table3::own_layer(spec.name) == is_table3;
        let share = if of_op && m.value != 0.0 {
            format!("{:.1}%", 100.0 * m.value / op_us)
        } else {
            String::new()
        };
        lines.push(format!(
            "{:<40} {:>14.4} {:<6} {:>7}  {:<18} {:<17} {}",
            m.name, m.value, m.unit, share, spec.layer, spec.moves, spec.on
        ));
    }
    lines
}

fn spans_path(workload: &str, seed: u64) -> std::path::PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
    std::path::Path::new(&dir)
        .join("perfbench")
        .join(format!("spans-{workload}-{seed}.json"))
}

/// The result line: a JSON object with `correct`, `attempted`, `failed`
/// and `metrics`.
fn result_json(report: &Report) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.failed == 0,
        report.attempted,
        report.failed
    );
    for (i, m) in report.metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    for line in &report.lines {
        println!("{line}");
    }
    println!("{}", result_json(&report));
    if report.failed > 0 || report.attempted == 0 {
        eprintln!(
            "perfbench: {} of {} ops produced wrong output",
            report.failed, report.attempted
        );
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests;
