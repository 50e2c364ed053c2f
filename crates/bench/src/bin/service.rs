//! Service throughput benchmark: cold vs warm plan cache.
//!
//! Submits a fixed-seed batch of distinct designs to an in-process
//! [`hdp_service::Service`] twice and records sustained designs/sec
//! for both passes in `BENCH_service.json`. The first pass compiles
//! every design (all cache misses); the second pass reuses every
//! cached plan (all hits). The run fails — exits non-zero — when the
//! warm pass is not bit-identical to the cold pass, when the
//! second-pass hit ratio does not exceed `--min-hit-ratio`, when the
//! warm/cold speedup falls below `--min-speedup`, or when the
//! observability plane's warm-pass overhead (counters on vs fully
//! disabled) exceeds `--max-obs-overhead` percent.
//!
//! ```text
//! service [--designs N] [--cycles N] [--seed N] [--threads N]
//!         [--reps N] [--min-hit-ratio F%] [--min-speedup F%]
//!         [--max-obs-overhead F%] [--out FILE]
//! ```
//!
//! The ratio flags take integer percentages (`--min-speedup 200` =
//! warm must sustain at least 2x cold) so the CLI stays integer-only
//! like the other bench drivers.

use hdp_service::bench::{run, BenchConfig};
use std::process::ExitCode;

const SUMMARY_JSON: &str = "BENCH_service.json";

struct Args {
    config: BenchConfig,
    min_hit_pct: u64,
    min_speedup_pct: u64,
    max_obs_overhead_pct: Option<u64>,
    out: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        config: BenchConfig::default(),
        min_hit_pct: 90,
        min_speedup_pct: 100,
        max_obs_overhead_pct: None,
        out: SUMMARY_JSON.to_owned(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--out" {
            args.out = it.next().ok_or("--out expects a value")?;
            continue;
        }
        let mut value = |flag: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} expects a value"))?
                .parse::<u64>()
                .map_err(|e| format!("{flag}: {e}"))
        };
        match flag.as_str() {
            "--designs" => args.config.designs = value("--designs")?.max(1) as usize,
            "--cycles" => args.config.cycles = value("--cycles")?.max(1) as usize,
            "--seed" => args.config.seed = value("--seed")?,
            "--threads" => args.config.threads = value("--threads")?.max(1) as usize,
            "--reps" => args.config.reps = value("--reps")?.max(1) as usize,
            "--min-hit-ratio" => args.min_hit_pct = value("--min-hit-ratio")?,
            "--min-speedup" => args.min_speedup_pct = value("--min-speedup")?,
            "--max-obs-overhead" => {
                args.max_obs_overhead_pct = Some(value("--max-obs-overhead")?);
            }
            other => {
                return Err(format!(
                    "unknown argument `{other}` (expected --designs/--cycles/--seed/--threads/--reps/--min-hit-ratio/--min-speedup/--max-obs-overhead/--out)"
                ))
            }
        }
    }
    // The warm pass only hits when the cache can hold the whole batch.
    args.config.cache_capacity = args.config.cache_capacity.max(args.config.designs);
    Ok(args)
}

#[allow(clippy::cast_precision_loss)]
fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("service bench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let report = match run(&args.config) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("service bench: job failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let text = format!("{:#}\n", report.to_json());
    if let Err(e) = std::fs::write(&args.out, &text) {
        eprintln!("service bench: cannot write {}: {e}", args.out);
        return ExitCode::FAILURE;
    }
    print!("{text}");

    let second_pass_ratio = report.warm_hit_ratio;
    eprintln!(
        "service bench: {} designs x {} cycles, cold {:.1}/s warm {:.1}/s (x{:.2}), second-pass hit ratio {:.3}, obs overhead {:.2}%",
        report.config.designs,
        report.config.cycles,
        report.cold_rate(),
        report.warm_rate(),
        report.speedup(),
        second_pass_ratio,
        report.obs_overhead_pct,
    );

    let mut ok = true;
    if !report.identical {
        eprintln!("service bench: FAIL: warm trace diverged from cold trace");
        ok = false;
    }
    if second_pass_ratio * 100.0 <= args.min_hit_pct as f64 {
        eprintln!(
            "service bench: FAIL: second-pass hit ratio {:.3} not above {}%",
            second_pass_ratio, args.min_hit_pct
        );
        ok = false;
    }
    if report.speedup() * 100.0 < args.min_speedup_pct as f64 {
        eprintln!(
            "service bench: FAIL: warm speedup x{:.2} below {}%",
            report.speedup(),
            args.min_speedup_pct
        );
        ok = false;
    }
    if let Some(max_pct) = args.max_obs_overhead_pct {
        if report.obs_overhead_pct > max_pct as f64 {
            eprintln!(
                "service bench: FAIL: observability overhead {:.2}% above {max_pct}%",
                report.obs_overhead_pct
            );
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
