//! End-to-end tests of the service observability plane.
//!
//! Everything here goes through the public surface (`hdp::prelude`):
//! the metrics snapshot of a fixed workload reconciles exactly
//! (cache hits + misses == jobs, histogram bucket sums == jobs,
//! p99 >= p50), the counters-only mode records no timings, the
//! `stats` wire verb serves a schema-valid live snapshot over TCP,
//! per-job spans render as Perfetto-loadable Chrome traces, and the
//! disabled mode's job path is observably identical.

use hdp::metagen::sampler::sample_spec;
use hdp::prelude::*;
use hdp::service::metrics::Counter;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn sample_case(seed: u64, cycles: usize) -> Case {
    let mut rng = StdRng::seed_from_u64(seed);
    let spec = sample_spec(&mut rng);
    let netlist = spec.instantiate().expect("sampled design instantiates");
    let stimulus = WireStimulus::sample(&netlist, cycles, &mut rng);
    Case { spec, stimulus }
}

/// Distinct designs found by scanning seeds (metagen may sample the
/// same design for nearby seeds).
fn distinct_cases(count: usize, cycles: usize) -> Vec<Case> {
    let mut seen = std::collections::HashSet::new();
    let mut cases = Vec::new();
    let mut seed = 0u64;
    while cases.len() < count {
        let case = sample_case(seed, cycles);
        if seen.insert(design_hash(&case.spec)) {
            cases.push(case);
        }
        seed += 1;
    }
    cases
}

#[test]
fn sampled_snapshot_reconciles_on_a_fixed_workload() {
    let service = Service::with_obs(16, ObsMode::Sampled);
    let cases = distinct_cases(6, 5);
    let opts = JobOptions::default();
    for case in &cases {
        service.run_case(case, &opts).unwrap(); // cold: 6 misses
    }
    for case in &cases {
        service.run_case(case, &opts).unwrap(); // warm: 6 hits
    }

    let snap = service.metrics_snapshot();
    let jobs = snap.counter(Counter::JobsTotal);
    assert_eq!(jobs, 12);
    assert_eq!(snap.counter(Counter::JobsOk), 12);
    assert_eq!(snap.counter(Counter::ModeLowered), 12);
    let cache = snap.cache.as_ref().expect("snapshot carries the cache");
    assert_eq!(cache.hits + cache.misses, jobs);
    assert_eq!((cache.hits, cache.misses), (6, 6));
    assert!(cache.bytes_resident > 0);
    assert_eq!(
        cache.bytes_inserted,
        cache.bytes_evicted + cache.bytes_resident
    );

    // Histogram invariants: every job lands in exactly one bucket of
    // the total-stage histogram, and quantiles are monotonic.
    let total = snap.stage(Stage::Total).expect("total histogram present");
    assert_eq!(total.count(), jobs, "one total-stage sample per job");
    assert_eq!(total.buckets.iter().sum::<u64>(), jobs);
    assert!(total.quantile_ns(0.99) >= total.quantile_ns(0.50));
    let execute = snap.stage(Stage::Execute).unwrap();
    assert_eq!(execute.count(), jobs, "every job times its execute stage");

    // Sampled mode absorbs simulator telemetry on every job.
    assert!(snap.counter(Counter::SimSettles) > 0);
    assert!(
        snap.counter(Counter::SimLoweredSettles) > 0,
        "default lowered mode settles on op streams"
    );
    assert!(snap.counter(Counter::SimOpsExecuted) > 0);

    // The full snapshot document passes its own validator.
    let doc = Json::parse(&snap.to_json()).expect("snapshot renders valid JSON");
    assert_eq!(validate_snapshot(&doc), Vec::<String>::new());
}

#[test]
fn counters_mode_records_no_timings_and_few_atomics() {
    // The default (Counters) service: counters move, histograms do
    // not — the job fast path never reads a clock.
    let service = Service::new(8);
    let case = sample_case(3, 5);
    let opts = JobOptions::default();

    let before: Vec<u64> = Counter::ALL
        .iter()
        .map(|&c| service.metrics().get(c))
        .collect();
    service.run_case(&case, &opts).unwrap();
    let after: Vec<u64> = Counter::ALL
        .iter()
        .map(|&c| service.metrics().get(c))
        .collect();

    // Counter-of-counters: the whole observability cost of one job in
    // counters mode is a handful of relaxed atomic increments.
    let increments: u64 = after.iter().zip(&before).map(|(a, b)| a - b).sum();
    assert!(
        (1..=6).contains(&increments),
        "one counters-mode job should cost a few atomic increments, measured {increments}"
    );

    let snap = service.metrics_snapshot();
    assert_eq!(snap.counter(Counter::JobsTotal), 1);
    for (stage, hist) in &snap.stages {
        assert_eq!(
            hist.count(),
            0,
            "counters mode must not time stage {}",
            stage.label()
        );
    }
    assert!(
        snap.counter(Counter::SimSettles) == 0,
        "counters mode does not force simulator telemetry"
    );

    // Disabled mode records nothing at all.
    let silent = Service::with_obs(8, ObsMode::Disabled);
    silent.run_case(&case, &opts).unwrap();
    let snap = silent.metrics_snapshot();
    assert!(Counter::ALL.iter().all(|&c| snap.counter(c) == 0));
}

#[test]
fn requested_span_rides_the_outcome_and_renders_chrome_trace() {
    let service = Service::new(8); // counters mode: span is per-job opt-in
    let case = sample_case(9, 6);
    let opts = JobOptions {
        span: true,
        ..JobOptions::default()
    };
    let out = service.run_case(&case, &opts).unwrap();
    let span = out.span.expect("span requested");
    for stage in [
        Stage::CacheLookup,
        Stage::Build,
        Stage::Execute,
        Stage::Publish,
        Stage::Total,
    ] {
        assert!(
            span.stage_ns(stage).is_some(),
            "span must record {}",
            stage.label()
        );
    }
    assert!(span.total_ns() >= span.stage_ns(Stage::Execute).unwrap());
    let trace = span.chrome_trace();
    assert!(trace.starts_with("{\"traceEvents\":["));
    assert!(trace.contains("\"ph\":\"X\""));
    assert!(trace.contains("\"name\":\"execute\""));
    assert!(trace.contains("\"displayTimeUnit\""));

    // Without the option the outcome stays span-free.
    let out = service.run_case(&case, &JobOptions::default()).unwrap();
    assert!(out.span.is_none());
}

#[test]
fn stats_verb_serves_a_valid_snapshot_over_tcp() {
    let service = Arc::new(Service::with_obs(8, ObsMode::Sampled));
    let handle = serve("127.0.0.1:0", Arc::clone(&service), 2).unwrap();
    let addr = handle.addr();

    let case = sample_case(21, 5);
    let job = hdp::conform::wire::job_to_json(&case);
    let lines = vec![job.clone(), job, "{\"verb\":\"stats\"}".to_owned()];
    let responses = submit(addr, &lines).unwrap();
    assert_eq!(responses.len(), 3);

    let warm = Json::parse(&responses[1]).unwrap();
    assert_eq!(warm.get("cache").and_then(Json::as_str), Some("hit"));

    let doc = Json::parse(&responses[2]).expect("stats verb answers JSON");
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some(METRICS_SCHEMA)
    );
    assert_eq!(validate_snapshot(&doc), Vec::<String>::new());
    let snap = MetricsSnapshot::from_json(&doc).unwrap();
    assert_eq!(snap.counter(Counter::JobsTotal), 2);
    assert_eq!(snap.counter(Counter::StatsRequests), 1);
    assert!(snap.counter(Counter::ConnectionsTotal) >= 1);
    let cache = snap.cache.unwrap();
    assert_eq!((cache.hits, cache.misses), (1, 1));

    // The snapshot renders Prometheus-style text client-side.
    let text = snap.render_text();
    assert!(text.contains("hdp_service_jobs_total 2"));
    assert!(text.contains("hdp_service_cache_hits 1"));
    assert!(text.contains("hdp_service_stage_latency_ns_count{stage=\"total\"} 2"));

    handle.shutdown();
}

#[test]
fn unknown_verbs_become_wire_errors() {
    let service = Arc::new(Service::new(8));
    let handle = serve("127.0.0.1:0", Arc::clone(&service), 1).unwrap();
    let responses = submit(handle.addr(), &["{\"verb\":\"selfdestruct\"}".to_owned()]).unwrap();
    let doc = Json::parse(&responses[0]).unwrap();
    assert_eq!(
        doc.get("error")
            .and_then(|e| e.get("stage"))
            .and_then(Json::as_str),
        Some("wire")
    );
    assert_eq!(service.metrics().get(Counter::ErrorsWire), 1);
    handle.shutdown();
}

#[test]
fn fallback_causes_are_typed_in_telemetry_documents() {
    // A lowered-mode job with telemetry: its per-settle fallbacks are
    // attributed to a typed cause, not just a prose note. A fresh
    // simulator pays at least one schedule rebuild.
    let service = Service::new(8);
    let case = sample_case(5, 6);
    let opts = JobOptions {
        mode: SchedMode::Lowered,
        telemetry: true,
        ..JobOptions::default()
    };
    let out = service.run_case(&case, &opts).unwrap();
    let stats = out.stats.expect("telemetry requested");
    assert!(stats.fallback_cause(FallbackCause::Rebuild) >= 1);
    let settle_shaped: u64 = stats
        .fallback_cause_counts()
        .filter(|(c, _)| {
            !matches!(
                c,
                FallbackCause::LoweredComponent | FallbackCause::MultiDomain
            )
        })
        .map(|(_, n)| n)
        .sum();
    assert_eq!(
        settle_shaped, stats.fallback_settles,
        "settle-shaped causes must account for every fallback settle"
    );
}
