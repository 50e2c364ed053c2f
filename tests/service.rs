//! End-to-end tests of the simulation service and its plan cache.
//!
//! Everything here goes through the public surface (`hdp::prelude` /
//! `hdp::service`): cache hit/miss/eviction as observed by a client,
//! content-hash stability across processes, bit-identity between
//! cached and cold execution under every scheduling mode, concurrent
//! submissions of the same design racing to publish its template or to
//! lower its op stream, and hostile input: out-of-range size fields
//! and oversized lines come back as named errors while the server
//! keeps answering.

mod tree_decoder;

use hdp::metagen::sampler::{sample_spec, sample_spec_in, FAMILIES};
use hdp::prelude::*;
use hdp::service::server::MAX_LINE_BYTES;
use hdp::service::{handle_line, RESULT_SCHEMA};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{Read, Write};
use std::net::TcpStream;
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
fn cache_counts_hits_and_misses_through_the_service() {
    let service = Service::new(8);
    let case = sample_case(11, 6);
    let opts = JobOptions::default();
    let cold = service.run_case(&case, &opts).unwrap();
    let warm = service.run_case(&case, &opts).unwrap();
    assert!(!cold.cache_hit);
    assert!(warm.cache_hit);
    let stats = service.cache_stats();
    assert_eq!((stats.hits, stats.misses, stats.insertions), (1, 1, 1));
    assert!((stats.hit_ratio() - 0.5).abs() < 1e-9);
}

#[test]
fn lru_eviction_is_visible_to_clients() {
    let service = Service::new(2);
    let cases = distinct_cases(3, 4);
    let opts = JobOptions::default();
    // Fill the two slots, then touch the first design to refresh it.
    service.run_case(&cases[0], &opts).unwrap();
    service.run_case(&cases[1], &opts).unwrap();
    assert!(service.run_case(&cases[0], &opts).unwrap().cache_hit);
    // A third design evicts the LRU entry — design 1, not design 0.
    service.run_case(&cases[2], &opts).unwrap();
    assert_eq!(service.cache_stats().evictions, 1);
    assert!(service.run_case(&cases[0], &opts).unwrap().cache_hit);
    assert!(
        !service.run_case(&cases[1], &opts).unwrap().cache_hit,
        "design 1 was the LRU victim"
    );
    assert_eq!(service.cache_len(), 2);
}

#[test]
fn design_hash_is_stable_and_content_addressed() {
    let case = sample_case(42, 4);
    // Stable across repeated hashing and independent of the stimulus.
    assert_eq!(design_hash(&case.spec), design_hash(&case.spec));
    let service = Service::new(4);
    let out = service.run_case(&case, &JobOptions::default()).unwrap();
    assert_eq!(out.design_hash, design_hash(&case.spec));
    // A different design gets a different address.
    let other = distinct_cases(2, 4).pop().unwrap();
    if design_hash(&other.spec) != design_hash(&case.spec) {
        let out2 = service.run_case(&other, &JobOptions::default()).unwrap();
        assert_ne!(out2.design_hash, out.design_hash);
    }
}

#[test]
fn cached_execution_is_bit_identical_across_all_sched_modes() {
    let cases = distinct_cases(4, 8);
    for mode in SchedMode::ALL {
        let opts = JobOptions {
            mode,
            ..JobOptions::default()
        };
        let service = Service::new(16);
        for case in &cases {
            let cold = service.run_case(case, &opts).unwrap();
            let warm = service.run_case(case, &opts).unwrap();
            assert!(!cold.cache_hit);
            assert!(warm.cache_hit, "{mode:?}: second submission must hit");
            assert_eq!(
                cold.trace,
                warm.trace,
                "{mode:?}: cached trace diverged on {}",
                case.spec.label()
            );
            assert_eq!(cold.ports, warm.ports);
        }
    }
}

#[test]
fn cached_compiled_execution_matches_the_reference_oracle() {
    let service = Service::new(8);
    let case = sample_case(77, 10);
    let opts = JobOptions {
        verify: true,
        ..JobOptions::default()
    };
    service.run_case(&case, &opts).unwrap();
    let warm = service.run_case(&case, &opts).unwrap();
    assert!(warm.cache_hit);
    assert_eq!(
        warm.verified,
        Some(true),
        "cached execution must match a cache-free full-sweep run"
    );
}

/// Submits `case` from eight threads at once under default options.
fn race(service: &Arc<Service>, case: &Case) -> Vec<JobOutcome> {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let service = Arc::clone(service);
                let case = case.clone();
                s.spawn(move || service.run_case(&case, &JobOptions::default()).unwrap())
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

#[test]
fn concurrent_same_design_submissions_agree() {
    let service = Arc::new(Service::new(8));
    let case = sample_case(123, 8);
    let outcomes = race(&service, &case);
    // Whoever lost the publish race still simulated correctly; every
    // trace must be identical and the cache holds exactly one entry.
    for o in &outcomes {
        assert_eq!(o.trace, outcomes[0].trace);
        assert_eq!(o.design_hash, outcomes[0].design_hash);
    }
    assert_eq!(service.cache_len(), 1);
    let stats = service.cache_stats();
    assert_eq!(stats.hits + stats.misses, 8);
    assert!(stats.misses >= 1);
}

#[test]
fn concurrent_lowered_hits_on_an_unlowered_entry_agree() {
    // A full-sweep miss publishes a template no job has lowered yet, so
    // the first lowered hits race to lower its shared op stream.
    let service = Arc::new(Service::new(8));
    let case = sample_case(123, 8);
    let full_sweep = JobOptions {
        mode: SchedMode::FullSweep,
        ..JobOptions::default()
    };
    let primer = service.run_case(&case, &full_sweep).unwrap();
    assert!(!primer.cache_hit && !primer.plan_installed);
    let outcomes = race(&service, &case);
    for o in &outcomes {
        assert!(o.cache_hit);
        assert_eq!(o.trace, primer.trace);
    }
    let installed = outcomes.iter().filter(|o| o.plan_installed).count();
    assert_eq!(
        installed, 7,
        "exactly one racer lowers; the rest run on its stream"
    );
    assert_eq!(service.cache_stats().insertions, 1);
}

#[test]
fn server_round_trip_shares_the_cache_between_clients() {
    let handle = serve("127.0.0.1:0", Arc::new(Service::new(8)), 2).unwrap();
    let job = job_to_json(&sample_case(7, 6));
    let first = submit(handle.addr(), std::slice::from_ref(&job)).unwrap();
    let second = submit(handle.addr(), std::slice::from_ref(&job)).unwrap();
    let cold = Json::parse(&first[0]).unwrap();
    let warm = Json::parse(&second[0]).unwrap();
    assert_eq!(cold.get("cache").and_then(Json::as_str), Some("miss"));
    assert_eq!(warm.get("cache").and_then(Json::as_str), Some("hit"));
    assert_eq!(cold.get("trace"), warm.get("trace"));
    handle.shutdown();
}

/// A job line for `family` whose design field `field` is set to
/// `value` (added when the document omits it).
fn job_with_design_field(family: usize, field: &str, value: u64) -> String {
    let mut rng = StdRng::seed_from_u64(family as u64);
    let spec = sample_spec_in(&mut rng, family);
    let netlist = spec.instantiate().expect("sampled design instantiates");
    let stimulus = WireStimulus::sample(&netlist, 2, &mut rng);
    let Json::Obj(mut doc) = Json::parse(&job_to_json(&Case { spec, stimulus })).unwrap() else {
        unreachable!("a job is an object")
    };
    let (_, Json::Obj(design)) = doc.iter_mut().find(|(k, _)| k == "design").unwrap() else {
        unreachable!("the design is an object")
    };
    match design.iter_mut().find(|(k, _)| k == field) {
        Some((_, slot)) => *slot = Json::Num(value),
        None => design.push((field.to_owned(), Json::Num(value))),
    }
    Json::Obj(doc).to_string()
}

fn error_path(doc: &Json) -> Option<&str> {
    doc.get("error")?.get("message")?.as_str()
}

/// Every numeric design field of every family, at 0, 1, each power of
/// two and `u64::MAX`, is answered with a result document — a trace
/// or a named error — and never with a panic or an aborting
/// allocation. Each line also decodes exactly as the frozen tree
/// decoder decodes it.
#[test]
fn every_size_field_at_every_extreme_is_answered_with_a_document() {
    let service = Service::new(4);
    let values: Vec<u64> = std::iter::once(0)
        .chain((0..64).map(|k| 1u64 << k))
        .chain(std::iter::once(u64::MAX))
        .collect();
    let fields = [
        "family",
        "data_width",
        "depth",
        "addr_width",
        "key_width",
        "wide",
        "wr_period",
        "rd_period",
    ];
    let (mut traces, mut errors) = (0, 0);
    for family in 0..FAMILIES.len() {
        for field in fields {
            for &value in &values {
                let line = job_with_design_field(family, field, value);
                tree_decoder::assert_same_decode(&line);
                let response = handle_line(&service, &line);
                let doc = Json::parse(&response)
                    .unwrap_or_else(|e| panic!("family {family} {field}={value}: {e}"));
                assert_eq!(
                    doc.get("schema").and_then(Json::as_str),
                    Some(RESULT_SCHEMA),
                    "family {family} {field}={value}: {response}"
                );
                if doc.get("trace").is_some() {
                    traces += 1;
                } else {
                    errors += 1;
                }
            }
        }
    }
    // Both kinds of answer occur: in-bound values still run.
    assert!(traces > 0 && errors > 0, "{traces} traces, {errors} errors");
}

/// Lines no job should survive — one past the line cap, and a
/// vector whose depth (2^40) would once have aborted the process —
/// leave a server with an idle client still answering.
#[test]
fn hostile_lines_and_an_idle_client_leave_the_server_answering() {
    let handle = serve("127.0.0.1:0", Arc::new(Service::new(8)), 2).unwrap();
    let addr = handle.addr();
    // Holds one of the two workers for the whole test.
    let idle = TcpStream::connect(addr).unwrap();

    let mut hostile = TcpStream::connect(addr).unwrap();
    hostile
        .set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .unwrap();
    hostile.write_all(&vec![b'x'; MAX_LINE_BYTES + 1]).unwrap();
    let mut reply = String::new();
    hostile.read_to_string(&mut reply).unwrap();
    let refused = Json::parse(reply.trim_end()).unwrap();
    assert!(
        error_path(&refused).is_some_and(|m| m.contains("byte limit")),
        "{reply}"
    );

    let deep = job_with_design_field(6, "depth", 1 << 40);
    let lines = vec![deep, job_to_json(&sample_case(7, 6))];
    let responses = submit(addr, &lines).unwrap();
    let rejected = Json::parse(&responses[0]).unwrap();
    assert!(
        error_path(&rejected).is_some_and(|m| m.contains("design.depth")),
        "{}",
        responses[0]
    );
    let ok = Json::parse(&responses[1]).unwrap();
    let reference = sample_case(7, 6);
    let cold = Service::new(1)
        .run_case(&reference, &JobOptions::default())
        .unwrap();
    let expected = Json::parse(&hdp::service::job::outcome_to_json(&cold)).unwrap();
    assert_eq!(ok.get("trace"), expected.get("trace"));
    drop(idle);
    handle.shutdown();
}
