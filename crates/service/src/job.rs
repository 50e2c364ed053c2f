//! The service's JSON request/response layer.
//!
//! A request is one `hdp-conform-repro-v1` document per line — the
//! exact format the conformance engine's reproducers use
//! ([`hdp_conform::wire`]) — optionally extended with an `options`
//! object the wire parser ignores:
//!
//! ```json
//! {"schema": "hdp-conform-repro-v1", "design": {…}, "stimulus": {…},
//!  "options": {"mode": "lowered", "vcd": false,
//!              "telemetry": false, "verify": false}}
//! ```
//!
//! | option      | values                                          | default   |
//! |-------------|-------------------------------------------------|-----------|
//! | `mode`      | `lowered`, `full_sweep`                         | `lowered` |
//! | `vcd`       | return a VCD waveform                           | `false`   |
//! | `telemetry` | return a telemetry summary                      | `false`   |
//! | `verify`    | re-run cache-free under full sweep and compare  | `false`   |
//! | `span`      | return the job's per-stage server-side timeline | `false`   |
//!
//! [`parse_job`] reads a line once: the wire decoder
//! ([`wire::parse_submission`]) pulls tokens from one scanner, puts
//! `stimulus.cycles` straight into the case's rows, and hands back the
//! case and the `options` member together. Only the small `design`,
//! `stimulus.inputs` and `options` members are built as [`Json`]
//! trees.
//!
//! Besides job submissions, the layer answers two control verbs:
//!
//! * `{"verb": "stats"}` returns the service's live
//!   [`hdp-service-metrics-v6`](crate::metrics::METRICS_SCHEMA)
//!   snapshot — counters, cache state and latency histograms — as a
//!   single-line document.
//! * `{"verb": "select", "constraints": {…}}` answers a §3.4
//!   implementation-selection query against the server's
//!   characterisation catalog ([`hdp_synth::CharDb`], installed via
//!   [`Service::set_catalog`](crate::exec::Service::set_catalog)):
//!   the cheapest recorded target satisfying the constraints, as an
//!   [`hdp-service-select-v1`](SELECT_SCHEMA) document wrapping
//!   [`hdp_synth::Selection`]. Control verbs never count as jobs.
//!
//! A response is one `hdp-service-result-v1` JSON document per line:
//! `design_hash`, `cache` (`"hit"`/`"miss"`), `plan_installed` (the
//! job ran on an op stream an earlier job built), the output `ports`,
//! the per-cycle `trace` of bit-strings, and the optional `telemetry` /
//! `vcd` / `verified` sections.
//! [`outcome_to_json`] streams it through one
//! [`JsonWriter`] into a `String` sized up front, with room for the
//! newline the server appends. The trace is one flat buffer of
//! four-state cells ([`Trace`](crate::exec::Trace)); each cell is
//! written straight from its value/unknown/Z words
//! ([`JsonWriter::vector`]), eight bits at a time, and no bit-string
//! is ever built.
//! Failures produce `{"schema": "hdp-service-result-v1", "error":
//! {…}}` with the failing `stage` (`wire`, `build` or `sim`; `panic`
//! when the server caught a panicking handler; `busy` when the
//! server's accept queue had no place for the connection).

use crate::exec::{JobOptions, JobOutcome, ServiceError};
use crate::metrics::Counter;
use crate::obs::Stage;
use hdp_conform::json::JsonWriter;
use hdp_conform::wire::{self, WireError};
use hdp_conform::{Case, Json};
use hdp_sim::{SchedMode, SimStats};
use hdp_synth::{auto_select, Query, Selection};
use std::fmt;
use std::time::Instant;

/// The schema identifier of every response document.
pub const RESULT_SCHEMA: &str = "hdp-service-result-v1";

/// The schema identifier of every `select` verb response document.
pub const SELECT_SCHEMA: &str = "hdp-service-select-v1";

/// Parses one submission line: the wire case plus the service
/// options, in one pass over the line
/// ([`wire::parse_submission`]).
///
/// # Errors
///
/// [`WireError`] for a malformed document or an unknown mode string.
pub fn parse_job(text: &str) -> Result<(Case, JobOptions), WireError> {
    let (case, options) = wire::parse_submission(text)?;
    let mut opts = JobOptions::default();
    if let Some(options) = options {
        if let Some(mode) = options.get("mode") {
            opts.mode =
                mode.as_str()
                    .and_then(SchedMode::parse)
                    .ok_or_else(|| WireError::Field {
                        path: "options.mode".into(),
                        detail: format!("unknown mode {:?}", mode.as_str()),
                    })?;
        }
        for (key, slot) in [
            ("vcd", &mut opts.vcd as &mut bool),
            ("telemetry", &mut opts.telemetry),
            ("verify", &mut opts.verify),
            ("span", &mut opts.span),
        ] {
            if let Some(v) = options.get(key) {
                *slot = v.as_bool().ok_or_else(|| WireError::Field {
                    path: format!("options.{key}"),
                    detail: "not a boolean".into(),
                })?;
            }
        }
    }
    Ok((case, opts))
}

/// Renders a completed job as a response document, streamed into one
/// `String` sized for it up front.
#[must_use]
pub fn outcome_to_json(out: &JobOutcome) -> String {
    let mut w = JsonWriter::new(String::with_capacity(response_bytes(out)));
    write_outcome(&mut w, out).expect("writing to a String never fails");
    w.into_inner()
}

/// A close upper estimate of a response's length plus the newline
/// the server appends to it (`server.rs::send_line`), so the `String`
/// is never regrown: the fixed members, the strings as escaped, one
/// `"bits",` per port per cycle and the optional sections.
fn response_bytes(out: &JobOutcome) -> usize {
    let ports: usize = out
        .ports
        .iter()
        .map(|(name, _)| escaped_len(name) + 24)
        .sum();
    let row: usize = 2 + out.ports.iter().map(|&(_, width)| width + 3).sum::<usize>();
    // The telemetry section: nine counters and the fallback causes.
    let stats = if out.stats.is_some() { 512 } else { 0 };
    let vcd = out.vcd.as_deref().map_or(0, escaped_len);
    let span = if out.span.is_some() { 4096 } else { 0 };
    let strings = escaped_len(&out.label) + escaped_len(&out.design_hash);
    512 + strings + ports + out.trace.len() * row + stats + vcd + span
}

/// The length of `s` as [`JsonWriter`] escapes it, quotes left out.
fn escaped_len(s: &str) -> usize {
    s.len()
        + s.bytes()
            .map(|b| match b {
                b'"' | b'\\' | b'\n' | b'\r' | b'\t' => 1,
                0..=0x1f => 5,
                _ => 0,
            })
            .sum::<usize>()
}

fn write_outcome<W: fmt::Write>(w: &mut JsonWriter<W>, out: &JobOutcome) -> fmt::Result {
    w.begin_obj()?;
    w.key("schema")?;
    w.str(RESULT_SCHEMA)?;
    w.key("design_hash")?;
    w.str(&out.design_hash)?;
    w.key("label")?;
    w.str(&out.label)?;
    w.key("cache")?;
    w.str(if out.cache_hit { "hit" } else { "miss" })?;
    w.key("plan_installed")?;
    w.bool(out.plan_installed)?;
    w.key("cycles")?;
    w.num(out.cycles as u64)?;
    w.key("ports")?;
    w.begin_arr()?;
    for (name, width) in &out.ports {
        w.begin_obj()?;
        w.key("name")?;
        w.str(name)?;
        w.key("width")?;
        w.num(*width as u64)?;
        w.end_obj()?;
    }
    w.end_arr()?;
    w.key("trace")?;
    w.begin_arr()?;
    for row in out.trace.iter() {
        w.begin_arr()?;
        for v in row {
            w.vector(v)?;
        }
        w.end_arr()?;
    }
    w.end_arr()?;
    if let Some(stats) = &out.stats {
        w.key("telemetry")?;
        write_stats(w, stats)?;
    }
    if let Some(vcd) = &out.vcd {
        w.key("vcd")?;
        w.str(vcd)?;
    }
    if let Some(verified) = out.verified {
        w.key("verified")?;
        w.bool(verified)?;
    }
    if let Some(span) = &out.span {
        w.key("span")?;
        w.begin_obj()?;
        w.key("total_ns")?;
        w.num(span.total_ns())?;
        w.key("stages")?;
        w.begin_arr()?;
        for s in &span.stages {
            w.begin_obj()?;
            w.key("stage")?;
            w.str(s.stage.label())?;
            w.key("ts_ns")?;
            w.num(s.ts_ns)?;
            w.key("dur_ns")?;
            w.num(s.dur_ns)?;
            w.end_obj()?;
        }
        w.end_arr()?;
        w.key("chrome_trace")?;
        w.str(&span.chrome_trace())?;
        w.end_obj()?;
    }
    w.end_obj()
}

fn write_stats<W: fmt::Write>(w: &mut JsonWriter<W>, stats: &SimStats) -> fmt::Result {
    w.begin_obj()?;
    for (key, n) in [
        ("steps", stats.steps),
        ("settles", stats.settles),
        ("delta_passes", stats.passes),
        ("total_evals", stats.total_evals()),
        ("total_toggles", stats.total_toggles()),
        ("lowered_settles", stats.lowered_settles),
        ("ops_executed", stats.ops_executed),
        ("fallback_settles", stats.fallback_settles),
        ("plan_installs", stats.plan_installs),
    ] {
        w.key(key)?;
        w.num(n)?;
    }
    w.key("fallback_causes")?;
    w.begin_obj()?;
    for (cause, n) in stats.fallback_cause_counts() {
        w.key(cause.label())?;
        w.num(n)?;
    }
    w.end_obj()?;
    w.end_obj()
}

/// Renders a failed job as a response document.
#[must_use]
pub fn error_to_json(err: &ServiceError) -> String {
    let stage = match err {
        ServiceError::Wire(_) => "wire",
        ServiceError::Build { .. } => "build",
        ServiceError::Sim { .. } => "sim",
        ServiceError::Panic { .. } => "panic",
        ServiceError::Busy { .. } => "busy",
    };
    Json::Obj(vec![
        ("schema".to_owned(), Json::Str(RESULT_SCHEMA.into())),
        (
            "error".to_owned(),
            Json::Obj(vec![
                ("stage".to_owned(), Json::Str(stage.into())),
                ("message".to_owned(), Json::Str(err.to_string())),
            ]),
        ),
    ])
    .to_string()
}

/// Runs one submission line end to end against a service: parse,
/// execute, render. Infallible by construction — failures render as
/// error documents. The `{"verb": "stats"}` control line answers
/// with the live metrics snapshot instead of running a job.
#[must_use]
pub fn handle_line(service: &crate::exec::Service, line: &str) -> String {
    if let Some(response) = handle_verb(service, line) {
        return response;
    }
    let metrics = service.metrics();
    let sampled = metrics.mode().sampled();
    let parse_started = sampled.then(Instant::now);
    let parsed = parse_job(line);
    if let Some(started) = parse_started {
        metrics.record_stage_ns(Stage::Parse, elapsed_ns(started));
    }
    match parsed {
        Ok((case, opts)) => match service.run_case(&case, &opts) {
            Ok(outcome) => {
                let render_started = sampled.then(Instant::now);
                let response = outcome_to_json(&outcome);
                if let Some(started) = render_started {
                    metrics.record_stage_ns(Stage::Render, elapsed_ns(started));
                }
                response
            }
            Err(e) => error_to_json(&e),
        },
        Err(e) => {
            metrics.inc(Counter::ErrorsWire);
            error_to_json(&ServiceError::Wire(e))
        }
    }
}

/// Answers a control verb (`{"verb": "stats"}` or
/// `{"verb": "select"}`), or `None` when the line is a job
/// submission. The substring pre-check keeps the job path free of a
/// second parse attempt.
fn handle_verb(service: &crate::exec::Service, line: &str) -> Option<String> {
    if !line.contains("\"verb\"") {
        return None;
    }
    let doc = Json::parse(line).ok()?;
    match doc.get("verb").and_then(Json::as_str)? {
        "stats" => {
            service.metrics().inc(Counter::StatsRequests);
            Some(service.metrics_snapshot().to_json())
        }
        "select" => Some(answer_select(service, &doc)),
        other => {
            service.metrics().inc(Counter::ErrorsWire);
            Some(error_to_json(&ServiceError::Wire(WireError::Field {
                path: "verb".into(),
                detail: format!("unknown verb {other:?}"),
            })))
        }
    }
}

/// Answers one `select` verb request: parse the constraints, run
/// [`auto_select`] against the installed catalog, wrap the
/// [`Selection`] in a [`SELECT_SCHEMA`] document. A request counts as
/// a hit or a no-target only when it actually reached the optimiser —
/// malformed constraints and a missing catalog render as error
/// documents and count as neither, so
/// `select_hits + select_no_target <= select_requests` always holds.
fn answer_select(service: &crate::exec::Service, doc: &Json) -> String {
    let metrics = service.metrics();
    metrics.inc(Counter::SelectRequests);
    let bad = |path: &str, detail: String| {
        metrics.inc(Counter::ErrorsWire);
        error_to_json(&ServiceError::Wire(WireError::Field {
            path: path.into(),
            detail,
        }))
    };
    let Some(constraints_doc) = doc.get("constraints") else {
        return bad("constraints", "missing constraints object".into());
    };
    let constraints = match Query::from_json(constraints_doc) {
        Ok(c) => c,
        Err(detail) => return bad("constraints", detail),
    };
    let Some(catalog) = service.catalog() else {
        return bad(
            "verb",
            "no characterisation catalog installed (serve with --catalog FILE)".into(),
        );
    };
    let selection = auto_select(&catalog, &constraints);
    metrics.inc(match selection {
        Selection::Target { .. } => Counter::SelectHits,
        Selection::NoTarget(_) => Counter::SelectNoTarget,
    });
    Json::obj([
        ("schema", Json::Str(SELECT_SCHEMA.into())),
        ("catalog_points", Json::Num(catalog.len() as u64)),
        ("constraints", constraints.to_json()),
        ("result", selection.to_json()),
    ])
    .to_string()
}

fn elapsed_ns(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Service;
    use hdp_conform::Stimulus;
    use hdp_hdl::MAX_WIDTH;
    use hdp_metagen::sampler::{sample_spec, sample_spec_in, FAMILIES};
    use hdp_synth::board::Xsb300e;
    use hdp_synth::{characterize_spec, CharDb};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn small_catalog() -> CharDb {
        let mut rng = StdRng::seed_from_u64(5);
        let board = Xsb300e::new();
        let mut db = CharDb::new();
        for family in 0..FAMILIES.len() {
            let spec = sample_spec_in(&mut rng, family);
            let record = characterize_spec(&spec, &board).unwrap();
            let _ = db.append(record);
        }
        db
    }

    fn job_line(seed: u64, cycles: usize, options: &str) -> String {
        let mut rng = StdRng::seed_from_u64(seed);
        let spec = sample_spec(&mut rng);
        let netlist = spec.instantiate().unwrap();
        let stimulus = Stimulus::sample(&netlist, cycles, &mut rng);
        with_options(&wire::job_to_json(&Case { spec, stimulus }), options)
    }

    /// A job document with an `options` member appended, unless
    /// `options` is empty.
    fn with_options(doc: &str, options: &str) -> String {
        if options.is_empty() {
            doc.to_owned()
        } else {
            format!(
                "{},\"options\":{}}}",
                doc.strip_suffix('}').unwrap(),
                options
            )
        }
    }

    /// The renderer `outcome_to_json` replaced, frozen: it clones the
    /// whole outcome into a `Json` tree and prints the tree.
    fn tree_outcome_to_json(out: &JobOutcome) -> String {
        let str_json = |s: &str| Json::Str(s.to_owned());
        let mut fields = vec![
            ("schema".to_owned(), str_json(RESULT_SCHEMA)),
            ("design_hash".to_owned(), str_json(&out.design_hash)),
            ("label".to_owned(), str_json(&out.label)),
            (
                "cache".to_owned(),
                str_json(if out.cache_hit { "hit" } else { "miss" }),
            ),
            ("plan_installed".to_owned(), Json::Bool(out.plan_installed)),
            ("cycles".to_owned(), Json::Num(out.cycles as u64)),
            (
                "ports".to_owned(),
                Json::Arr(
                    out.ports
                        .iter()
                        .map(|(name, width)| {
                            Json::obj([
                                ("name", str_json(name)),
                                ("width", Json::Num(*width as u64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "trace".to_owned(),
                Json::Arr(
                    out.trace
                        .iter()
                        .map(|row| {
                            Json::Arr(row.iter().map(|v| Json::Str(v.to_bit_string())).collect())
                        })
                        .collect(),
                ),
            ),
        ];
        if let Some(stats) = &out.stats {
            let causes = stats
                .fallback_cause_counts()
                .map(|(cause, n)| (cause.label().to_owned(), Json::Num(n)));
            fields.push((
                "telemetry".to_owned(),
                Json::obj([
                    ("steps", Json::Num(stats.steps)),
                    ("settles", Json::Num(stats.settles)),
                    ("delta_passes", Json::Num(stats.passes)),
                    ("total_evals", Json::Num(stats.total_evals())),
                    ("total_toggles", Json::Num(stats.total_toggles())),
                    ("lowered_settles", Json::Num(stats.lowered_settles)),
                    ("ops_executed", Json::Num(stats.ops_executed)),
                    ("fallback_settles", Json::Num(stats.fallback_settles)),
                    ("plan_installs", Json::Num(stats.plan_installs)),
                    ("fallback_causes", Json::Obj(causes.collect())),
                ]),
            ));
        }
        if let Some(vcd) = &out.vcd {
            fields.push(("vcd".to_owned(), str_json(vcd)));
        }
        if let Some(verified) = out.verified {
            fields.push(("verified".to_owned(), Json::Bool(verified)));
        }
        if let Some(span) = &out.span {
            let stages = span.stages.iter().map(|s| {
                Json::obj([
                    ("stage", str_json(s.stage.label())),
                    ("ts_ns", Json::Num(s.ts_ns)),
                    ("dur_ns", Json::Num(s.dur_ns)),
                ])
            });
            fields.push((
                "span".to_owned(),
                Json::obj([
                    ("total_ns", Json::Num(span.total_ns())),
                    ("stages", Json::Arr(stages.collect())),
                    ("chrome_trace", Json::Str(span.chrome_trace())),
                ]),
            ));
        }
        Json::Obj(fields).to_string()
    }

    #[test]
    fn streamed_response_matches_the_tree_renderer_byte_for_byte() {
        let service = Service::new(4);
        let options = [
            "",
            "{\"telemetry\":true}",
            "{\"vcd\":true}",
            "{\"verify\":true,\"span\":true}",
            "{\"mode\":\"full_sweep\",\"telemetry\":true,\"vcd\":true,\"verify\":true,\"span\":true}",
        ];
        let mut sections = 0;
        for seed in 0..24 {
            let line = job_line(
                seed,
                1 + seed as usize % 9,
                options[seed as usize % options.len()],
            );
            let (case, opts) = parse_job(&line).unwrap();
            let out = service.run_case(&case, &opts).unwrap();
            sections += usize::from(out.vcd.as_ref().is_some_and(|v| v.contains('\n')))
                + usize::from(
                    out.span
                        .as_ref()
                        .is_some_and(|s| s.chrome_trace().contains('"')),
                );
            assert_eq!(
                outcome_to_json(&out),
                tree_outcome_to_json(&out),
                "seed {seed}"
            );
        }
        assert!(sections > 0, "the VCD and span sections were rendered");

        // Labels and port names that need every escape the writer has.
        let (case, opts) = parse_job(&job_line(
            5,
            3,
            "{\"telemetry\":true,\"span\":true,\"vcd\":true}",
        ))
        .unwrap();
        let mut out = service.run_case(&case, &opts).unwrap();
        let hostile =
            "q\"uote\\back\nnl\rcr\ttab\u{0}\u{1}\u{1f}\u{7f} caf\u{e9} \u{2713} \u{1f600}";
        out.label = hostile.to_owned();
        out.design_hash = format!("{hostile}#");
        for (i, (name, _)) in out.ports.iter_mut().enumerate() {
            *name = format!("{hostile}{i}");
        }
        out.verified = Some(false);
        assert_eq!(outcome_to_json(&out), tree_outcome_to_json(&out));
        assert_eq!(
            Json::parse(&outcome_to_json(&out))
                .unwrap()
                .get("label")
                .and_then(Json::as_str),
            Some(hostile)
        );
    }

    #[test]
    fn response_buffer_holds_the_response_and_its_newline() {
        let service = Service::new(64);
        let options = [
            "",
            "{\"telemetry\":true}",
            "{\"vcd\":true}",
            "{\"verify\":true}",
            "{\"span\":true}",
            "{\"mode\":\"full_sweep\",\"telemetry\":true,\"vcd\":true,\"verify\":true,\"span\":true}",
        ];
        let mut widest = 0;
        for seed in 0..36u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut spec = sample_spec_in(&mut rng, seed as usize % FAMILIES.len());
            // Widen the data path up to 64 bits where the family allows.
            let mut wide = spec.clone();
            wide.data_width = [spec.data_width, 17, 32, 63, 64][seed as usize % 5];
            if wide.validate().is_ok() && wide.instantiate().is_ok() {
                spec = wide;
            }
            let netlist = spec.instantiate().unwrap();
            let stimulus = Stimulus::sample(&netlist, 1 + (seed as usize * 37) % 300, &mut rng);
            let job = wire::job_to_json(&Case { spec, stimulus });
            for opts in options {
                let (case, opts) = parse_job(&with_options(&job, opts)).unwrap();
                // Cold (for the first option set), then warm.
                for _ in 0..2 {
                    let out = service.run_case(&case, &opts).unwrap();
                    widest = out.ports.iter().map(|&(_, w)| w).fold(widest, usize::max);
                    let rendered = outcome_to_json(&out).len();
                    assert!(
                        response_bytes(&out) > rendered,
                        "seed {seed}, {opts:?}: {} bytes reserved for a {rendered}-byte \
                         response and its newline",
                        response_bytes(&out)
                    );
                }
            }
        }
        assert_eq!(widest, MAX_WIDTH, "the jobs reach 64-bit ports");
    }

    #[test]
    fn parses_options() {
        let line = job_line(
            3,
            4,
            "{\"mode\":\"full_sweep\",\"vcd\":true,\"verify\":true}",
        );
        let (_, opts) = parse_job(&line).unwrap();
        assert_eq!(opts.mode, SchedMode::FullSweep);
        assert!(opts.vcd);
        assert!(opts.verify);
        assert!(!opts.telemetry);
        // The removed modes are rejected by name, not silently mapped.
        for gone in ["parallel", "compiled", "event_driven"] {
            let line = job_line(3, 4, &format!("{{\"mode\":\"{gone}\"}}"));
            assert!(
                matches!(
                    parse_job(&line),
                    Err(WireError::Field { path, .. }) if path == "options.mode"
                ),
                "mode {gone:?} must be a wire error"
            );
        }
    }

    #[test]
    fn defaults_to_lowered_mode() {
        let line = job_line(3, 4, "");
        let (_, opts) = parse_job(&line).unwrap();
        assert_eq!(opts, JobOptions::default());
        assert_eq!(opts.mode, SchedMode::Lowered);
    }

    #[test]
    fn parses_lowered_mode() {
        let line = job_line(3, 4, "{\"mode\":\"lowered\"}");
        let (_, opts) = parse_job(&line).unwrap();
        assert_eq!(opts.mode, SchedMode::Lowered);
    }

    #[test]
    fn rejects_unknown_mode() {
        let line = job_line(3, 4, "{\"mode\":\"warp\"}");
        assert!(matches!(
            parse_job(&line),
            Err(WireError::Field { path, .. }) if path == "options.mode"
        ));
    }

    #[test]
    fn handle_line_round_trips_a_job() {
        let service = Service::new(4);
        let line = job_line(21, 6, "{\"telemetry\":true}");
        let cold = handle_line(&service, &line);
        let warm = handle_line(&service, &line);
        let cold_doc = Json::parse(&cold).unwrap();
        let warm_doc = Json::parse(&warm).unwrap();
        assert_eq!(
            cold_doc.get("schema").and_then(Json::as_str),
            Some(RESULT_SCHEMA)
        );
        assert_eq!(cold_doc.get("cache").and_then(Json::as_str), Some("miss"));
        assert_eq!(warm_doc.get("cache").and_then(Json::as_str), Some("hit"));
        assert_eq!(cold_doc.get("trace"), warm_doc.get("trace"));
        assert!(cold_doc.get("telemetry").is_some());
    }

    #[test]
    fn select_verb_answers_from_the_catalog() {
        let service = Service::new(4);
        service.set_catalog(Arc::new(small_catalog()));
        let hit = handle_line(
            &service,
            "{\"verb\":\"select\",\"constraints\":{\"kind\":\"queue\"}}",
        );
        let doc = Json::parse(&hit).unwrap();
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some(SELECT_SCHEMA)
        );
        let result = doc.get("result").unwrap();
        assert_eq!(result.get("selected"), Some(&Json::Bool(true)));
        assert_eq!(result.get("kind").and_then(Json::as_str), Some("queue"));

        // An unachievable clock gets a structured no-target answer,
        // not an error document.
        let miss = handle_line(
            &service,
            "{\"verb\":\"select\",\"constraints\":{\"kind\":\"queue\",\"min_clk_khz\":10000000000}}",
        );
        let miss_doc = Json::parse(&miss).unwrap();
        assert!(miss_doc.get("error").is_none());
        assert_eq!(
            miss_doc.get("result").and_then(|r| r.get("selected")),
            Some(&Json::Bool(false))
        );
        assert_eq!(
            miss_doc
                .get("result")
                .and_then(|r| r.get("rejected"))
                .and_then(|r| r.get("too_many_brams"))
                .and_then(Json::as_u64),
            Some(0),
            "the clock floor is tested before the block-RAM cap"
        );

        // The optional block-RAM cap is echoed and honoured.
        let capped = handle_line(
            &service,
            "{\"verb\":\"select\",\"constraints\":{\"kind\":\"queue\",\"max_brams\":0}}",
        );
        let capped_doc = Json::parse(&capped).unwrap();
        assert_eq!(
            capped_doc
                .get("constraints")
                .and_then(|c| c.get("max_brams"))
                .and_then(Json::as_u64),
            Some(0)
        );
        let capped_result = capped_doc.get("result").unwrap();
        assert_eq!(capped_result.get("selected"), Some(&Json::Bool(true)));
        assert_eq!(capped_result.get("brams").and_then(Json::as_u64), Some(0));

        let m = service.metrics();
        assert_eq!(m.get(Counter::SelectRequests), 3);
        assert_eq!(m.get(Counter::SelectHits), 2);
        assert_eq!(m.get(Counter::SelectNoTarget), 1);
        assert_eq!(m.get(Counter::JobsTotal), 0, "control verbs are not jobs");
        let snap = Json::parse(&service.metrics_snapshot().to_json()).unwrap();
        let problems = crate::metrics::validate_snapshot(&snap);
        assert!(
            problems.is_empty(),
            "snapshot invariants broke: {problems:?}"
        );
    }

    #[test]
    fn select_without_a_catalog_or_constraints_is_a_wire_error() {
        let service = Service::new(4);
        for line in [
            // No catalog installed.
            "{\"verb\":\"select\",\"constraints\":{\"kind\":\"queue\"}}",
            // Missing constraints object.
            "{\"verb\":\"select\"}",
            // A non-numeric block-RAM cap.
            "{\"verb\":\"select\",\"constraints\":{\"kind\":\"queue\",\"max_brams\":\"none\"}}",
        ] {
            let response = handle_line(&service, line);
            let doc = Json::parse(&response).unwrap();
            assert_eq!(
                doc.get("error")
                    .and_then(|e| e.get("stage"))
                    .and_then(Json::as_str),
                Some("wire"),
                "line {line:?} must fail at the wire stage"
            );
        }
        let m = service.metrics();
        assert_eq!(m.get(Counter::SelectRequests), 3);
        assert_eq!(
            m.get(Counter::SelectHits) + m.get(Counter::SelectNoTarget),
            0,
            "requests that never reach the optimiser count as neither"
        );
    }

    #[test]
    fn an_assoc_key_that_overflows_the_slot_word_is_a_field_error() {
        // Key, data and valid bit must fit one 64-bit slot word: with
        // 60 data bits the widest key is 3, and a 9-bit key is refused
        // at the wire, not by the generator.
        let mut rng = StdRng::seed_from_u64(7);
        let mut spec = sample_spec_in(&mut rng, 7);
        let netlist = spec.instantiate().unwrap();
        let stimulus = Stimulus::sample(&netlist, 2, &mut rng);
        spec.data_width = 60;
        spec.key_width = 9;
        let line = wire::job_to_json(&Case { spec, stimulus });
        assert!(matches!(
            parse_job(&line),
            Err(WireError::Field { path, .. }) if path == "design.key_width"
        ));
        let service = Service::new(4);
        let doc = Json::parse(&handle_line(&service, &line)).unwrap();
        let error = doc.get("error").unwrap();
        assert_eq!(error.get("stage").and_then(Json::as_str), Some("wire"));
        let message = error.get("message").and_then(Json::as_str).unwrap();
        assert!(message.contains("design.key_width"), "{message}");
        assert_eq!(service.metrics().get(Counter::ErrorsBuild), 0);
    }

    #[test]
    fn handle_line_reports_errors_as_documents() {
        let service = Service::new(4);
        let response = handle_line(&service, "not json at all");
        let doc = Json::parse(&response).unwrap();
        assert_eq!(
            doc.get("error")
                .and_then(|e| e.get("stage"))
                .and_then(Json::as_str),
            Some("wire")
        );
    }

    #[test]
    fn deeply_nested_line_is_an_error_document_not_an_abort() {
        let service = Service::new(4);
        let line = "[".repeat(100_000);
        assert!(matches!(parse_job(&line), Err(WireError::Syntax { .. })));
        let doc = Json::parse(&handle_line(&service, &line)).unwrap();
        assert_eq!(
            doc.get("error")
                .and_then(|e| e.get("stage"))
                .and_then(Json::as_str),
            Some("wire")
        );
        assert_eq!(service.metrics().get(Counter::ErrorsWire), 1);
    }
}
