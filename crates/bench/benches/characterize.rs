//! Times the §3.4 characterisation sweep and the component
//! generators it drives. Run with `cargo bench -p hdp-bench --bench
//! characterize`; each line is the median and IQR per iteration.

use hdp_bench::timing::{report, sample, SAMPLES};
use hdp_metagen::arbiter_gen::{arbiter, Policy};
use hdp_metagen::container_gen::{rbuffer_fifo, rbuffer_sram, ContainerParams};
use hdp_metagen::iterator_gen::read_width_adapter;
use hdp_metagen::ops::OpSet;
use hdp_synth::characterize::{sweep, SweepGrid};
use hdp_synth::Xsb300e;
use std::hint::black_box;

fn main() {
    let board = Xsb300e::new();
    report(
        "characterize/default_grid",
        &sample(SAMPLES, || {
            sweep(black_box(&board), &SweepGrid::default()).unwrap()
        }),
    );

    let params = ContainerParams::paper_default();
    report(
        "component_gen/rbuffer_fifo",
        &sample(SAMPLES, || {
            rbuffer_fifo(black_box(params), OpSet::figure4()).unwrap()
        }),
    );
    report(
        "component_gen/rbuffer_sram",
        &sample(SAMPLES, || {
            rbuffer_sram(black_box(params), OpSet::figure4()).unwrap()
        }),
    );
    report(
        "component_gen/read_width_adapter_24_8",
        &sample(SAMPLES, || {
            read_width_adapter("it", black_box(24), 8).unwrap()
        }),
    );
    report(
        "component_gen/arbiter_rr_4",
        &sample(SAMPLES, || {
            arbiter("arb", black_box(4), 16, 8, Policy::RoundRobin).unwrap()
        }),
    );
}
