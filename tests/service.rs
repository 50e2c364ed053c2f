//! End-to-end tests of the simulation service and its plan cache.
//!
//! Everything here goes through the public surface (`hdp::prelude` /
//! `hdp::service`): cache hit/miss/eviction as observed by a client,
//! content-hash stability across processes, bit-identity between
//! cached and cold execution under every scheduling mode, and
//! concurrent submissions of the same design racing to publish a
//! plan.

use hdp::metagen::sampler::sample_spec;
use hdp::prelude::*;
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
        "cached plan execution must match a cache-free full-sweep run"
    );
}

#[test]
fn concurrent_same_design_submissions_agree() {
    let service = Arc::new(Service::new(8));
    let case = sample_case(123, 8);
    let outcomes: Vec<JobOutcome> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let service = Arc::clone(&service);
                let case = case.clone();
                s.spawn(move || service.run_case(&case, &JobOptions::default()).unwrap())
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
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
