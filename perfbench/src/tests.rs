//! The benchmark's own checks. Run with
//! `cargo test --release --offline --manifest-path perfbench/Cargo.toml`.

use super::*;
use std::collections::HashSet;

fn corrupt_first_job(jobs: &mut [svc::Job]) {
    jobs[0].expected = svc::trace_member(&[vec!["corrupted".into()]]);
}

fn corrupt_first_frame(frames: &mut [Vec<u64>]) {
    frames[0][0] ^= 1;
}

#[test]
fn a_corrupted_reference_fails_the_run() {
    // Every design is drawn, so the corrupted one is hit in 200 jobs.
    let r = svc::run(svc::WARM_SHORT, 7, Budget::Ops(200), corrupt_first_job).unwrap();
    assert!(r.log.failed > 0, "a wrong trace must count as a failed op");
    assert!(r.log.correct > 0, "the other designs still pass");

    let t = table3::run(7, Budget::Ops(2), corrupt_first_frame).unwrap();
    assert_eq!(t.log.failed, 2, "every round holds the corrupted frame");

    let report = Report {
        attempted: r.log.attempted(),
        failed: r.log.failed,
        metrics: Vec::new(),
        lines: Vec::new(),
    };
    assert!(result_json(&report).starts_with("{\"correct\": false,"));
}

#[test]
fn clean_runs_have_no_errors() {
    for shape in [svc::WARM_SHORT, svc::CHURN] {
        let r = svc::run(shape, 11, Budget::Ops(300), no_tamper).unwrap();
        assert_eq!(r.log.failed, 0);
        assert_eq!(r.log.attempted(), 300);
    }
    let t = table3::run(11, Budget::Ops(1), no_tamper).unwrap();
    assert_eq!(t.log.failed, 0);
}

#[test]
fn one_seed_repeats_its_counts() {
    let a = svc::run(svc::CHURN, 42, Budget::Ops(2000), no_tamper).unwrap();
    let b = svc::run(svc::CHURN, 42, Budget::Ops(2000), no_tamper).unwrap();
    assert_eq!(a.cache, b.cache, "hits, misses and evictions repeat");
    assert!(
        a.cache.misses > 0 && a.cache.evictions > 0,
        "churn misses and evicts"
    );
    assert_eq!(a.log.cycles, b.log.cycles);
    assert_eq!(a.log.cycles, 2000 * 6, "cycles per op are fixed");

    let layer = |t: &measure::Layers, name: &str| t[name];
    let s1 = svc::run_traced(svc::WARM_SHORT, 42, Budget::Ops(256)).unwrap();
    let s2 = svc::run_traced(svc::WARM_SHORT, 42, Budget::Ops(256)).unwrap();
    assert_eq!(
        layer(&s1.layers, "sim.ops_per_cycle"),
        layer(&s2.layers, "sim.ops_per_cycle")
    );
    for name in ["cache.lookups", "cache.hit_ratio"] {
        assert_eq!(layer(&s1.layers, name), layer(&s2.layers, name), "{name}");
    }

    let t1 = table3::run_traced(42, Budget::Ops(4)).unwrap();
    let t2 = table3::run_traced(42, Budget::Ops(4)).unwrap();
    for name in ["table3.cycles_per_round", "sim.ops_per_cycle"] {
        assert_eq!(layer(&t1.layers, name), layer(&t2.layers, name), "{name}");
    }
    assert!(layer(&t1.layers, "table3.cycles_per_round") > 0.0);
}

#[test]
fn another_seed_draws_another_design_set() {
    let hashes = |seed| -> HashSet<String> {
        svc::sample_cases(svc::WARM_SHORT, seed)
            .unwrap()
            .iter()
            .map(|c| hdp_conform::wire::design_hash(&c.spec))
            .collect()
    };
    assert_eq!(hashes(1), hashes(1));
    assert_ne!(hashes(1), hashes(2));
    let families: HashSet<usize> = svc::sample_cases(svc::WARM_SHORT, 1)
        .unwrap()
        .iter()
        .map(|c| c.spec.family)
        .collect();
    assert_eq!(families.len(), hdp_metagen::sampler::FAMILIES.len());
}

#[test]
fn traced_runs_report_every_layer() {
    let t = svc::run_traced(svc::CHURN, 3, Budget::Ops(512)).unwrap();
    assert_eq!(t.log.failed, 0);
    let metrics = per_layer(&t.layers);
    assert_eq!(metrics.len(), PER_LAYER.len());
    assert!(t.layers["cache.evictions"] > 0.0);
    assert!(t.layers["sim.compile_us"] > 0.0, "churn misses are timed");
    let accounted = t.layers["trace.accounted_ratio"];
    assert!((0.5..1.5).contains(&accounted), "accounted {accounted}");
}

#[test]
fn benchmark_json_lists_the_metrics_printed() {
    let spec = std::fs::read_to_string("../BENCHMARK.json").unwrap();
    for name in PER_LAYER.iter().map(|m| m.name) {
        assert!(spec.contains(&format!("\"name\": \"{name}\"")), "{name}");
    }
    for (name, unit) in measure::END_TO_END {
        assert!(
            spec.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "{name}"
        );
    }
    let listed: Vec<&str> = spec
        .split("{\"name\": \"")
        .filter_map(|rest| rest.split_once("\", \"why\"").map(|(name, _)| name))
        .collect();
    assert!(listed.len() >= 2, "{listed:?}");
    for workload in listed {
        assert!(WORKLOADS.contains(&workload), "{workload}");
    }
}

#[test]
fn arguments_parse_and_reject() {
    let argv = |s: &str| -> Vec<String> { s.split_whitespace().map(str::to_owned).collect() };
    let a = parse_args(&argv(
        "--workload svc_churn --seed 9 --seconds 2.5 --trace 1",
    ))
    .unwrap();
    assert_eq!(
        (a.workload.as_str(), a.seed, a.trace),
        ("svc_churn", 9, true)
    );
    assert!(parse_args(&argv("--workload nope")).is_err());
    assert!(parse_args(&argv("--workload svc_churn --trace 2")).is_err());
    assert!(parse_args(&argv("--seed 1")).is_err());
}


#[test]
fn warm_mid_responses_fit_one_buffered_write() {
    // The server writes a response through an 8 KiB `BufWriter`. A
    // longer one leaves in two writes, and Nagle's algorithm holds the
    // second until the client's delayed ACK: the `svc_warm_long` stall.
    let service = hdp_service::Service::new(svc::WARM_MID.capacity);
    for seed in 1..=20 {
        for case in svc::sample_cases(svc::WARM_MID, seed).unwrap() {
            let line = hdp_conform::wire::job_to_json(&case);
            let response = hdp_service::handle_line(&service, &line);
            assert!(response.len() + 1 < 8192, "{}", case.spec.label());
        }
    }
}
