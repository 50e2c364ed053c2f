//! Differential conformance fuzzer.
//!
//! Samples random designs from the metagen design space, runs each
//! through the six-oracle conformance stack (`hdp-conform`), shrinks
//! any diverging case to a minimal reproducer and writes it next to
//! the summary as `conform_repro_<n>.json`. Every design also goes
//! through the 64-lane engine (`check_lanes`) with its own
//! [`LANE_STIMULI`] stimuli, each lane against its scalar run; designs
//! outside the lane engine's scope (a second clock domain, tri-state
//! nets) are counted as not packed. The run summary lands in
//! `BENCH_conform.json`; the process exits non-zero when any
//! divergence survives, scalar or lane, so CI can gate on it directly.
//!
//! ```text
//! conform [--seed N] [--count N] [--budget-ms N] [--cycles N]
//! ```
//!
//! `--budget-ms` stops sampling early once the wall-clock budget is
//! spent (the case in flight is finished, never abandoned), so smoke
//! jobs get a hard upper bound on runtime.

use hdp_conform::{check_lanes, shrink, Case, Json, Stimulus};
use hdp_metagen::sampler::sample_spec;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

const SUMMARY_JSON: &str = "BENCH_conform.json";
const SUMMARY_SCHEMA: &str = "hdp-bench-conform-v5";

/// Lane stimuli per design: one packed run checks this many scalar
/// runs of the same length as the scalar oracle stack's.
const LANE_STIMULI: usize = 8;

/// Mixed into the seed for the lane stimuli, so they come from their
/// own stream and the scalar stack samples the same designs and
/// stimuli as without the lane pass.
const LANE_SEED_SALT: u64 = 0x1A7E_5EED;

struct Args {
    seed: u64,
    count: usize,
    budget_ms: Option<u64>,
    cycles: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seed: 0xC0F0,
        count: 200,
        budget_ms: None,
        cycles: 12,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} expects a value"))?
                .parse::<u64>()
                .map_err(|e| format!("{flag}: {e}"))
        };
        match flag.as_str() {
            "--seed" => args.seed = value("--seed")?,
            "--count" => args.count = value("--count")? as usize,
            "--budget-ms" => args.budget_ms = Some(value("--budget-ms")?),
            "--cycles" => args.cycles = (value("--cycles")? as usize).max(1),
            other => {
                return Err(format!(
                    "unknown argument `{other}` (expected --seed/--count/--budget-ms/--cycles)"
                ))
            }
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("conform: {e}");
            return ExitCode::FAILURE;
        }
    };
    let start = Instant::now();
    let mut rng = StdRng::seed_from_u64(args.seed);
    let mut lane_rng = StdRng::seed_from_u64(args.seed ^ LANE_SEED_SALT);
    let mut kinds: BTreeMap<String, u64> = BTreeMap::new();
    let mut targets: BTreeMap<String, u64> = BTreeMap::new();
    let mut divergences = Vec::new();
    let mut lane_divergences = Vec::new();
    let mut checked = 0usize;
    let mut packed = 0u64;

    for index in 0..args.count {
        if let Some(budget) = args.budget_ms {
            if start.elapsed().as_millis() as u64 >= budget {
                break;
            }
        }
        let spec = sample_spec(&mut rng);
        let label = spec.label();
        *kinds.entry(spec.kind().to_owned()).or_insert(0) += 1;
        *targets.entry(spec.target().to_owned()).or_insert(0) += 1;
        let netlist = spec.instantiate();
        let stimulus = match &netlist {
            Ok(netlist) => Stimulus::sample(netlist, args.cycles, &mut rng),
            // A generator failure still goes through Case::check so it
            // is reported (and serialised) like any other divergence.
            Err(_) => Stimulus {
                inputs: vec![],
                cycles: vec![vec![]],
            },
        };
        if let Ok(netlist) = &netlist {
            let stims: Vec<Stimulus> = (0..LANE_STIMULI)
                .map(|_| Stimulus::sample(netlist, args.cycles, &mut lane_rng))
                .collect();
            match check_lanes(netlist, &stims) {
                Ok(None) => packed += 1,
                Ok(Some(divergence)) => {
                    eprintln!("conform: LANE DIVERGENCE in {label}\n  {divergence}");
                    lane_divergences.push(Json::obj([
                        ("index", Json::Num(index as u64)),
                        ("design", Json::Str(label.clone())),
                        ("report", Json::Str(divergence.to_string())),
                    ]));
                }
                Err(_) => {} // outside the lane engine's scope
            }
        }
        let case = Case { spec, stimulus };
        checked += 1;
        if case.check().is_none() {
            continue;
        }
        let (minimal, divergence) = shrink(&case);
        let divergence = divergence.expect("a diverging case shrinks to a diverging case");
        let path = format!("conform_repro_{index}.json");
        let doc = hdp_conform::wire::repro_to_json(args.seed, &minimal, &divergence);
        if let Err(e) = std::fs::write(&path, &doc) {
            eprintln!("conform: cannot write {path}: {e}");
        }
        eprintln!("conform: DIVERGENCE in {label} -> {path}\n  {divergence}");
        divergences.push(Json::obj([
            ("index", Json::Num(index as u64)),
            ("design", Json::Str(label)),
            ("reproducer", Json::Str(path)),
            ("report", Json::Str(divergence.to_string())),
        ]));
    }

    let count_map = |map: &BTreeMap<String, u64>| {
        Json::obj(map.iter().map(|(k, v)| (k.as_str(), Json::Num(*v))))
    };
    let n_div = divergences.len() + lane_divergences.len();
    let oracles = hdp_conform::ORACLE_LABELS.map(|l| Json::Str(l.to_owned()));
    let summary = Json::obj([
        ("schema", Json::Str(SUMMARY_SCHEMA.to_owned())),
        ("seed", Json::Num(args.seed)),
        ("requested", Json::Num(args.count as u64)),
        ("checked", Json::Num(checked as u64)),
        ("cycles_per_design", Json::Num(args.cycles as u64)),
        ("elapsed_ms", Json::Num(start.elapsed().as_millis() as u64)),
        ("oracles", Json::Arr(oracles.into())),
        ("kinds", count_map(&kinds)),
        ("targets", count_map(&targets)),
        ("divergences", Json::Arr(divergences)),
        ("lane_stimuli_per_design", Json::Num(LANE_STIMULI as u64)),
        ("lanes_packed", Json::Num(packed)),
        ("lane_divergences", Json::Arr(lane_divergences)),
    ]);
    let text = format!("{summary:#}\n");
    if let Err(e) = std::fs::write(SUMMARY_JSON, &text) {
        eprintln!("conform: cannot write {SUMMARY_JSON}: {e}");
        return ExitCode::FAILURE;
    }
    print!("{text}");
    eprintln!(
        "conform: {checked} designs x {} cycles x {} oracles, {packed} lane-packed x \
         {LANE_STIMULI} stimuli, in {} ms, {n_div} divergence(s)",
        args.cycles,
        hdp_conform::ORACLE_LABELS.len(),
        start.elapsed().as_millis(),
    );
    if n_div == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
