//! A warm job's allocations do not grow with its cycle count. Running
//! a cached design (`Service::run_case`) and rendering its response
//! (`outcome_to_json`) make the same number of heap allocations at 64
//! and at 1 024 cycles: the trace is one buffer sized before the first
//! cycle and the response one `String` sized before the first byte.
//!
//! Parsing the line (`parse_job`) still allocates once per stimulus
//! row: `Stimulus::cycles` is a `Vec<Vec<u64>>`, a layout that test
//! code outside this crate builds as a struct literal, so a flat
//! stimulus waits for those callers to read rows through an accessor.
//! That count is pinned here too, so it cannot grow unnoticed.
//!
//! The test binary counts every allocation its own thread makes through
//! a counting global allocator, so it lives in a file of its own.

use hdp_conform::wire::job_to_json;
use hdp_conform::{Case, Stimulus};
use hdp_metagen::sampler::sample_spec_in;
use hdp_service::job::outcome_to_json;
use hdp_service::{parse_job, Service};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
}

/// The allocations of a warm job of `cycles` cycles on one design of
/// `family`: `(parse_job, run_case + outcome_to_json)`.
fn warm_job_allocations(family: usize, cycles: usize) -> (u64, u64) {
    let mut rng = StdRng::seed_from_u64(29);
    let spec = sample_spec_in(&mut rng, family);
    let netlist = spec.instantiate().unwrap();
    let stimulus = Stimulus::sample(&netlist, cycles, &mut rng);
    let line = job_to_json(&Case { spec, stimulus });
    let service = Service::new(4);
    // Cold, then warm once, so the template is cached with its op stream.
    for _ in 0..2 {
        let (case, opts) = parse_job(&line).unwrap();
        let _ = outcome_to_json(&service.run_case(&case, &opts).unwrap());
    }
    let before = allocations();
    let (case, opts) = parse_job(&line).unwrap();
    let parsed = allocations() - before;
    let before = allocations();
    let out = service.run_case(&case, &opts).unwrap();
    let response = outcome_to_json(&out);
    let ran = allocations() - before;
    assert!(out.cache_hit && out.plan_installed);
    assert_eq!(out.trace.len(), cycles);
    assert!(response.len() > cycles);
    (parsed, ran)
}

#[test]
fn a_warm_job_allocates_nothing_per_cycle() {
    for family in [0, 2, 5] {
        let (parse_short, run_short) = warm_job_allocations(family, 64);
        let (parse_long, run_long) = warm_job_allocations(family, 1024);
        assert_eq!(
            run_short, run_long,
            "family {family}: run_case + outcome_to_json allocated {run_short} times at 64 \
             cycles and {run_long} at 1 024"
        );
        // One `Vec` per stimulus row, plus the few regrowths of the
        // list of rows (four doublings from 64 to 1 024 rows).
        let per_row = 1024 - 64;
        assert!(
            (per_row..=per_row + 10).contains(&(parse_long - parse_short)),
            "family {family}: parse_job allocated {parse_short} times at 64 cycles and \
             {parse_long} at 1 024"
        );
    }
}
