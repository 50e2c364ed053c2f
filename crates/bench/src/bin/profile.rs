//! Telemetry profile of the blur design: runs the same frame workload
//! under the full-sweep, event-driven and lowered scheduler modes with
//! full instrumentation, checks the cross-mode telemetry
//! invariants, and writes
//! `BENCH_profile.json` (counter summary) plus
//! `BENCH_profile.trace.json` (Chrome trace-event spans, loadable in
//! `chrome://tracing` / Perfetto).
//!
//! `profile --validate` re-reads the two artefacts and checks them
//! against the expected schema — the CI telemetry smoke job runs the
//! profile and then the validator.

use hdp_bench::{build_design_sim, run_design_sim, DesignSimSpec};
use hdp_core::pixel::{Frame, PixelFormat};
use hdp_metagen::design::{DesignKind, DesignParams, Style};
use hdp_sim::telemetry::json_string;
use hdp_sim::{SchedMode, SimStats, TelemetryLevel};
use std::fmt::Write as _;

const WIDTH: usize = 32;
const HEIGHT: usize = 8;
const GAP: u32 = 1;
const PROFILE_JSON: &str = "BENCH_profile.json";
const TRACE_JSON: &str = "BENCH_profile.trace.json";

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

fn mode_json(label: &str, stats: &SimStats) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "    \"{label}\": {{");
    let _ = writeln!(out, "      \"steps\": {},", stats.steps);
    let _ = writeln!(out, "      \"settles\": {},", stats.settles);
    let _ = writeln!(out, "      \"delta_passes\": {},", stats.passes);
    let _ = writeln!(
        out,
        "      \"max_passes_per_settle\": {},",
        stats.max_passes
    );
    let _ = writeln!(out, "      \"total_evals\": {},", stats.total_evals());
    let _ = writeln!(out, "      \"total_toggles\": {},", stats.total_toggles());
    let _ = writeln!(out, "      \"total_drives\": {},", stats.total_drives());
    let _ = writeln!(out, "      \"max_wake\": {},", stats.max_wake);
    let _ = writeln!(
        out,
        "      \"fallback_settles\": {},",
        stats.fallback_settles
    );
    let _ = writeln!(out, "      \"lowered_settles\": {},", stats.lowered_settles);
    let _ = writeln!(out, "      \"ops_executed\": {},", stats.ops_executed);
    let causes: Vec<String> = stats
        .fallback_cause_counts()
        .map(|(cause, n)| format!("\"{}\": {n}", cause.label()))
        .collect();
    let _ = writeln!(out, "      \"fallback_causes\": {{{}}},", causes.join(", "));
    let notes: Vec<String> = stats.notes.iter().map(|n| json_string(n)).collect();
    let _ = writeln!(out, "      \"notes\": [{}],", notes.join(","));
    let _ = writeln!(out, "      \"trace_spans\": {},", stats.trace.len());
    out.push_str("      \"components_by_evals\": [\n");
    let mut comps: Vec<_> = stats.components.iter().collect();
    comps.sort_by(|a, b| b.evals.cmp(&a.evals).then_with(|| a.name.cmp(&b.name)));
    let top = comps.len().min(8);
    for (i, c) in comps.iter().take(top).enumerate() {
        let sep = if i + 1 == top { "" } else { "," };
        let _ = writeln!(
            out,
            "        {{\"name\": {}, \"evals\": {}, \"skips\": {}, \"eval_ns\": {}}}{sep}",
            json_string(&c.name),
            c.evals,
            c.skips,
            c.eval_ns
        );
    }
    out.push_str("      ],\n");
    out.push_str("      \"signals_by_toggles\": [\n");
    let mut sigs: Vec<_> = stats.signals.iter().filter(|s| s.drives > 0).collect();
    sigs.sort_by(|a, b| b.toggles.cmp(&a.toggles).then_with(|| a.name.cmp(&b.name)));
    let top = sigs.len().min(8);
    for (i, s) in sigs.iter().take(top).enumerate() {
        let sep = if i + 1 == top { "" } else { "," };
        let _ = writeln!(
            out,
            "        {{\"name\": {}, \"toggles\": {}, \"drives\": {}}}{sep}",
            json_string(&s.name),
            s.toggles,
            s.drives
        );
    }
    out.push_str("      ]\n");
    out.push_str("    }");
    out
}

/// The text of one mode's object inside the profile summary (from
/// its label to the closing brace at mode indentation).
fn mode_section<'a>(profile: &'a str, label: &str) -> Option<&'a str> {
    let start = profile.find(&format!("\"{label}\": {{"))?;
    let rest = &profile[start..];
    let end = rest.find("\n    }")?;
    Some(&rest[..end])
}

/// A numeric field's value inside one mode section.
fn field_u64(section: &str, key: &str) -> Option<u64> {
    let pos = section.find(&format!("\"{key}\": "))?;
    let rest = &section[pos + key.len() + 4..];
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// Checks the profile summary against its schema: every required key
/// present, the modes object complete — with the per-mode lowered
/// counters (`lowered_settles`, `ops_executed`, `fallback_causes`)
/// pinned per scheduler mode — and the trace file a Chrome
/// trace-event object. Returns a list of problems (empty = valid).
fn validate_artifacts(profile: &str, trace: &str) -> Vec<String> {
    let mut problems = Vec::new();
    for key in [
        "\"bench\": \"profile\"",
        "\"workload\"",
        "\"telemetry_level\": \"Full\"",
        "\"modes\"",
        "\"lowered_settles\"",
        "\"ops_executed\"",
        "\"total_evals\"",
        "\"total_toggles\"",
        "\"components_by_evals\"",
        "\"signals_by_toggles\"",
        "\"invariants\"",
        "\"toggle_counts_mode_invariant\": true",
        "\"sweep_evals_upper_bound\": true",
        "\"trace_file\"",
    ] {
        if !profile.contains(key) {
            problems.push(format!("{PROFILE_JSON}: missing {key}"));
        }
    }
    // Per-mode schema: every mode section carries the full counter
    // set, and the lowered counters are pinned to the scheduler that
    // produced them — only the lowered mode executes op streams.
    for label in SchedMode::ALL.map(SchedMode::label) {
        let Some(section) = mode_section(profile, label) else {
            problems.push(format!("{PROFILE_JSON}: missing mode section {label}"));
            continue;
        };
        for key in [
            "settles",
            "lowered_settles",
            "fallback_settles",
            "ops_executed",
            "fallback_causes",
        ] {
            if !section.contains(&format!("\"{key}\"")) {
                problems.push(format!("{PROFILE_JSON}: mode {label} missing {key}"));
            }
        }
        let lowered_settles = field_u64(section, "lowered_settles");
        let ops_executed = field_u64(section, "ops_executed");
        if label == "lowered" {
            if lowered_settles == Some(0) {
                problems.push(format!(
                    "{PROFILE_JSON}: lowered mode reports zero lowered_settles"
                ));
            }
            if ops_executed == Some(0) {
                problems.push(format!(
                    "{PROFILE_JSON}: lowered mode reports zero ops_executed"
                ));
            }
        } else {
            if lowered_settles.is_some_and(|n| n > 0) {
                problems.push(format!(
                    "{PROFILE_JSON}: mode {label} reports lowered_settles but never lowers"
                ));
            }
            if ops_executed.is_some_and(|n| n > 0) {
                problems.push(format!(
                    "{PROFILE_JSON}: mode {label} reports ops_executed but never lowers"
                ));
            }
        }
    }
    if profile.matches('{').count() != profile.matches('}').count() {
        problems.push(format!("{PROFILE_JSON}: unbalanced braces"));
    }
    if !trace.trim_start().starts_with("{\"traceEvents\":[") {
        problems.push(format!("{TRACE_JSON}: not a trace-event object"));
    }
    if !trace.contains("\"displayTimeUnit\"") {
        problems.push(format!("{TRACE_JSON}: missing displayTimeUnit"));
    }
    if !trace.contains("\"ph\":\"X\"") {
        problems.push(format!("{TRACE_JSON}: no complete-event spans"));
    }
    for (name, text) in [(PROFILE_JSON, profile), (TRACE_JSON, trace)] {
        if text.matches('[').count() != text.matches(']').count() {
            problems.push(format!("{name}: unbalanced brackets"));
        }
    }
    problems
}

fn validate_existing() -> ! {
    let profile = std::fs::read_to_string(PROFILE_JSON)
        .unwrap_or_else(|e| panic!("cannot read {PROFILE_JSON}: {e}"));
    let trace = std::fs::read_to_string(TRACE_JSON)
        .unwrap_or_else(|e| panic!("cannot read {TRACE_JSON}: {e}"));
    let problems = validate_artifacts(&profile, &trace);
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
    let event = profile_mode(&frame, SchedMode::EventDriven);
    let lowered = profile_mode(&frame, SchedMode::Lowered);

    // Cross-mode telemetry invariants (the same invariants the test
    // suite proves on the proptest families, checked here on the real
    // blur workload): settled toggle activity is identical in every
    // mode because the waveforms are bit-identical. The full sweep
    // evaluates everything every pass, so its eval count is the upper
    // bound the others are measured against.
    for (label, stats) in [("event", &event), ("lowered", &lowered)] {
        assert_eq!(
            stats.total_toggles(),
            sweep.total_toggles(),
            "{label} toggle counts must match the full sweep"
        );
    }
    assert!(
        lowered.lowered_settles > 0,
        "the lowered mode must settle on the op-stream walk"
    );
    assert!(
        sweep.total_evals() >= event.total_evals(),
        "the sweep is the eval-count upper bound"
    );

    println!("Telemetry profile — blur {WIDTH}x{HEIGHT}, gap {GAP}, level Full");
    println!();
    print!("{}", event.report());
    println!();
    println!(
        "  cross-mode: sweep evals {} | event evals {} | lowered evals {} | toggles {} (all modes)",
        sweep.total_evals(),
        event.total_evals(),
        lowered.total_evals(),
        event.total_toggles()
    );

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"profile\",\n");
    let _ = writeln!(
        json,
        "  \"workload\": {{\"design\": \"blur\", \"width\": {WIDTH}, \"height\": {HEIGHT}, \"gap\": {GAP}}},"
    );
    json.push_str("  \"telemetry_level\": \"Full\",\n");
    json.push_str("  \"modes\": {\n");
    let _ = writeln!(json, "{},", mode_json("full_sweep", &sweep));
    let _ = writeln!(json, "{},", mode_json("event_driven", &event));
    let _ = writeln!(json, "{}", mode_json("lowered", &lowered));
    json.push_str("  },\n");
    json.push_str("  \"invariants\": {\n");
    json.push_str("    \"toggle_counts_mode_invariant\": true,\n");
    json.push_str("    \"sweep_evals_upper_bound\": true\n");
    json.push_str("  },\n");
    let _ = writeln!(json, "  \"trace_file\": {}", json_string(TRACE_JSON));
    json.push_str("}\n");

    // The event-driven run's spans go to the trace artefact: one
    // scheduler thread, step > pass > eval nesting.
    let trace = event.chrome_trace();
    let problems = validate_artifacts(&json, &trace);
    assert!(
        problems.is_empty(),
        "schema self-check failed: {problems:?}"
    );
    std::fs::write(PROFILE_JSON, &json).expect("write profile json");
    std::fs::write(TRACE_JSON, &trace).expect("write trace json");
    println!();
    println!(
        "wrote {PROFILE_JSON} and {TRACE_JSON} ({} spans)",
        event.trace.len()
    );
}
