//! Telemetry profile of the blur design: runs the same frame workload
//! under the full-sweep and lowered scheduler modes with full
//! instrumentation, checks the cross-mode telemetry invariants, and
//! writes
//! `BENCH_profile.json` (counter summary) plus
//! `BENCH_profile.trace.json` (Chrome trace-event spans, loadable in
//! `chrome://tracing` / Perfetto).
//!
//! `profile --validate` re-reads the two artefacts, parses both as
//! JSON and checks them against the expected schema — the CI
//! telemetry smoke job runs the profile and then the validator.

use hdp_bench::{build_design_sim, run_design_sim, DesignSimSpec};
use hdp_conform::Json;
use hdp_core::pixel::{Frame, PixelFormat};
use hdp_metagen::design::{DesignKind, DesignParams, Style};
use hdp_sim::{SchedMode, SimStats, TelemetryLevel};

const WIDTH: usize = 32;
const HEIGHT: usize = 8;
const GAP: u32 = 1;
const PROFILE_JSON: &str = "BENCH_profile.json";
const TRACE_JSON: &str = "BENCH_profile.trace.json";
const PROFILE_SCHEMA: &str = "hdp-bench-profile-v2";
/// Components and signals listed per mode, busiest first.
const TOP: usize = 8;

fn profile_mode(frame: &Frame, mode: SchedMode) -> SimStats {
    let spec = DesignSimSpec::new(
        DesignKind::Blur,
        Style::Pattern,
        DesignParams::small(32),
        frame.pixels().to_vec(),
    )
    .gap(GAP)
    .out_len((WIDTH - 2) * (HEIGHT - 2))
    .mode(mode)
    .telemetry(TelemetryLevel::Full);
    let (mut sim, sink) = build_design_sim(&spec).expect("design builds");
    let budget = frame.pixels().len() as u64 * u64::from(GAP + 1) * 4 + 2000;
    std::hint::black_box(run_design_sim(&mut sim, sink, budget));
    sim.stats()
}

fn mode_json(stats: &SimStats) -> Json {
    let mut comps: Vec<_> = stats.components.iter().collect();
    comps.sort_by(|a, b| b.evals.cmp(&a.evals).then_with(|| a.name.cmp(&b.name)));
    let comps = comps.iter().take(TOP).map(|c| {
        Json::obj([
            ("name", Json::Str(c.name.clone())),
            ("evals", Json::Num(c.evals)),
            ("skips", Json::Num(c.skips)),
            ("eval_ns", Json::Num(c.eval_ns)),
        ])
    });
    let mut sigs: Vec<_> = stats.signals.iter().filter(|s| s.drives > 0).collect();
    sigs.sort_by(|a, b| b.toggles.cmp(&a.toggles).then_with(|| a.name.cmp(&b.name)));
    let sigs = sigs.iter().take(TOP).map(|s| {
        Json::obj([
            ("name", Json::Str(s.name.clone())),
            ("toggles", Json::Num(s.toggles)),
            ("drives", Json::Num(s.drives)),
        ])
    });
    let causes = stats.fallback_cause_counts();
    Json::obj([
        ("steps", Json::Num(stats.steps)),
        ("settles", Json::Num(stats.settles)),
        ("delta_passes", Json::Num(stats.passes)),
        ("max_passes_per_settle", Json::Num(stats.max_passes)),
        ("total_evals", Json::Num(stats.total_evals())),
        ("total_toggles", Json::Num(stats.total_toggles())),
        ("total_drives", Json::Num(stats.total_drives())),
        ("max_wake", Json::Num(stats.max_wake)),
        ("fallback_settles", Json::Num(stats.fallback_settles)),
        ("lowered_settles", Json::Num(stats.lowered_settles)),
        ("ops_executed", Json::Num(stats.ops_executed)),
        (
            "fallback_causes",
            Json::obj(causes.map(|(c, n)| (c.label(), Json::Num(n)))),
        ),
        (
            "notes",
            Json::Arr(stats.notes.iter().cloned().map(Json::Str).collect()),
        ),
        ("trace_spans", Json::Num(stats.trace.len() as u64)),
        ("components_by_evals", Json::Arr(comps.collect())),
        ("signals_by_toggles", Json::Arr(sigs.collect())),
    ])
}

/// Parses both artefacts and checks them against their schema.
/// Returns a list of problems (empty = valid).
fn validate_texts(profile: &str, trace: &str) -> Vec<String> {
    let parse =
        |name: &str, text: &str| Json::parse(text).map_err(|e| format!("{name}: not JSON: {e}"));
    match (parse(PROFILE_JSON, profile), parse(TRACE_JSON, trace)) {
        (Ok(profile), Ok(trace)) => validate_artifacts(&profile, &trace),
        (profile, trace) => profile.err().into_iter().chain(trace.err()).collect(),
    }
}

/// Checks the profile summary against its schema: the envelope
/// strings, the workload, both invariants, every mode's counter set
/// — with the lowered counters (`lowered_settles`, `ops_executed`)
/// pinned per scheduler mode — and the trace a Chrome trace-event
/// object with complete-event spans.
fn validate_artifacts(profile: &Json, trace: &Json) -> Vec<String> {
    let mut problems = Vec::new();
    for (key, want) in [
        ("schema", PROFILE_SCHEMA),
        ("telemetry_level", "Full"),
        ("trace_file", TRACE_JSON),
    ] {
        if profile.get(key).and_then(Json::as_str) != Some(want) {
            problems.push(format!("{PROFILE_JSON}: {key} is not {want:?}"));
        }
    }
    if profile
        .get("workload")
        .and_then(|w| w.get("design"))
        .is_none()
    {
        problems.push(format!("{PROFILE_JSON}: missing workload"));
    }
    for key in ["toggle_counts_mode_invariant", "lowered_evals_within_sweep"] {
        if profile.get("invariants").and_then(|i| i.get(key)) != Some(&Json::Bool(true)) {
            problems.push(format!("{PROFILE_JSON}: invariant {key} is not true"));
        }
    }
    for mode in SchedMode::ALL {
        let label = mode.label();
        let Some(section) = profile.get("modes").and_then(|m| m.get(label)) else {
            problems.push(format!("{PROFILE_JSON}: missing mode section {label}"));
            continue;
        };
        for key in [
            "settles",
            "lowered_settles",
            "fallback_settles",
            "ops_executed",
            "total_evals",
            "total_toggles",
            "fallback_causes",
            "components_by_evals",
            "signals_by_toggles",
        ] {
            if section.get(key).is_none() {
                problems.push(format!("{PROFILE_JSON}: mode {label} missing {key}"));
            }
        }
        // Only the lowered mode executes op streams.
        for key in ["lowered_settles", "ops_executed"] {
            let count = section.get(key).and_then(Json::as_u64);
            if mode == SchedMode::Lowered && count == Some(0) {
                problems.push(format!("{PROFILE_JSON}: lowered mode reports zero {key}"));
            } else if mode != SchedMode::Lowered && count.is_some_and(|n| n > 0) {
                problems.push(format!(
                    "{PROFILE_JSON}: mode {label} reports {key} but never lowers"
                ));
            }
        }
    }
    let Some(events) = trace.get("traceEvents").and_then(Json::as_arr) else {
        problems.push(format!("{TRACE_JSON}: not a trace-event object"));
        return problems;
    };
    if trace.get("displayTimeUnit").is_none() {
        problems.push(format!("{TRACE_JSON}: missing displayTimeUnit"));
    }
    if !events
        .iter()
        .any(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
    {
        problems.push(format!("{TRACE_JSON}: no complete-event spans"));
    }
    problems
}

fn validate_existing() -> ! {
    let profile = std::fs::read_to_string(PROFILE_JSON)
        .unwrap_or_else(|e| panic!("cannot read {PROFILE_JSON}: {e}"));
    let trace = std::fs::read_to_string(TRACE_JSON)
        .unwrap_or_else(|e| panic!("cannot read {TRACE_JSON}: {e}"));
    let problems = validate_texts(&profile, &trace);
    if problems.is_empty() {
        println!("{PROFILE_JSON} and {TRACE_JSON} match the expected schema");
        std::process::exit(0);
    }
    for p in &problems {
        eprintln!("schema violation: {p}");
    }
    std::process::exit(1);
}

fn main() {
    if std::env::args().any(|a| a == "--validate") {
        validate_existing();
    }
    let frame = Frame::noise(WIDTH, HEIGHT, PixelFormat::Gray8, 11);

    let sweep = profile_mode(&frame, SchedMode::FullSweep);
    let lowered = profile_mode(&frame, SchedMode::Lowered);

    // Cross-mode telemetry invariants (the same invariants the test
    // suite proves on the proptest families, checked here on the real
    // blur workload): settled toggle activity is identical in both
    // modes because the waveforms are bit-identical. The full sweep
    // evaluates everything every pass, so the rank walk never
    // evaluates more.
    assert_eq!(
        lowered.total_toggles(),
        sweep.total_toggles(),
        "lowered toggle counts must match the full sweep"
    );
    assert!(
        lowered.lowered_settles > 0,
        "the lowered mode must settle on the op-stream walk"
    );
    assert!(
        lowered.total_evals() <= sweep.total_evals(),
        "lowered evals must not exceed the sweep's"
    );

    println!("Telemetry profile — blur {WIDTH}x{HEIGHT}, gap {GAP}, level Full");
    println!();
    print!("{}", sweep.report());
    println!();
    println!(
        "  cross-mode: sweep evals {} | lowered evals {} | toggles {} (both modes)",
        sweep.total_evals(),
        lowered.total_evals(),
        sweep.total_toggles()
    );

    let summary = Json::obj([
        ("schema", Json::Str(PROFILE_SCHEMA.into())),
        (
            "workload",
            Json::obj([
                ("design", Json::Str("blur".into())),
                ("width", Json::Num(WIDTH as u64)),
                ("height", Json::Num(HEIGHT as u64)),
                ("gap", Json::Num(GAP.into())),
            ]),
        ),
        ("telemetry_level", Json::Str("Full".into())),
        (
            "modes",
            Json::obj([
                ("full_sweep", mode_json(&sweep)),
                ("lowered", mode_json(&lowered)),
            ]),
        ),
        (
            "invariants",
            Json::obj([
                ("toggle_counts_mode_invariant", Json::Bool(true)),
                ("lowered_evals_within_sweep", Json::Bool(true)),
            ]),
        ),
        ("trace_file", Json::Str(TRACE_JSON.into())),
    ]);
    let json = format!("{summary:#}\n");

    // The full sweep's spans go to the trace artefact: one scheduler
    // thread, step > pass > eval nesting.
    let trace = sweep.chrome_trace();
    let problems = validate_texts(&json, &trace);
    assert!(
        problems.is_empty(),
        "schema self-check failed: {problems:?}"
    );
    std::fs::write(PROFILE_JSON, &json).expect("write profile json");
    std::fs::write(TRACE_JSON, &trace).expect("write trace json");
    println!();
    println!(
        "wrote {PROFILE_JSON} and {TRACE_JSON} ({} spans)",
        sweep.trace.len()
    );
}
