//! Criterion bench over cycle-accurate simulation throughput: the
//! generated Table 3 netlists interpreted against the board models,
//! and the model-level (hand-written component) pipeline for
//! comparison.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use hdp_bench::{build_design_sim, run_design_batch, run_design_sim, DesignSimSpec};
use hdp_core::golden::PixelOp;
use hdp_core::model::{Algorithm, VideoPipelineModel};
use hdp_core::pixel::{Frame, PixelFormat};
use hdp_metagen::design::{DesignKind, DesignParams, Style};
use hdp_sim::SchedMode;
use std::hint::black_box;

fn bench_netlist_sim(c: &mut Criterion) {
    let mut group = c.benchmark_group("netlist_sim_frame");
    let frame = Frame::noise(32, 8, PixelFormat::Gray8, 9);
    let n = frame.pixels().len();
    group.throughput(Throughput::Elements(n as u64));
    for (kind, gap, out_len) in [
        (DesignKind::Saa2vga1, 0u32, n),
        (DesignKind::Blur, 1, (32 - 2) * (8 - 2)),
    ] {
        group.bench_function(kind.label().replace(' ', ""), |b| {
            b.iter(|| {
                let spec = DesignSimSpec::new(
                    kind,
                    Style::Pattern,
                    DesignParams::small(32),
                    frame.pixels().to_vec(),
                )
                .gap(gap)
                .out_len(out_len);
                let (mut sim, sink) = build_design_sim(&spec).unwrap();
                let budget = n as u64 * u64::from(gap + 1) * 4 + 2000;
                black_box(run_design_sim(&mut sim, sink, budget))
            })
        });
    }
    group.finish();
}

fn bench_model_sim(c: &mut Criterion) {
    let mut group = c.benchmark_group("model_sim_frame");
    let frame = Frame::noise(32, 8, PixelFormat::Gray8, 10);
    group.throughput(Throughput::Elements(frame.pixels().len() as u64));
    group.bench_function("saa2vga_fifo", |b| {
        let model = VideoPipelineModel::new(
            "m",
            PixelFormat::Gray8,
            32,
            8,
            Algorithm::Transform(PixelOp::Identity),
        )
        .unwrap();
        b.iter(|| black_box(model.process_frame(&frame).unwrap()))
    });
    group.bench_function("blur_line_buffer", |b| {
        let model = VideoPipelineModel::new("m", PixelFormat::Gray8, 32, 8, Algorithm::Blur)
            .unwrap()
            .with_source_gap(1);
        b.iter(|| black_box(model.process_frame(&frame).unwrap()))
    });
    group.finish();
}

/// Three-way scheduling-mode matrix on the blur-filter workload:
/// legacy full-sweep/full-eval, event-driven + incremental netlist
/// evaluation, and the lowered rank walk. All configurations are
/// asserted bit-identical before any time is measured.
fn bench_sched_modes(c: &mut Criterion) {
    let mut group = c.benchmark_group("sched_mode_blur_frame");
    let frame = Frame::noise(32, 8, PixelFormat::Gray8, 11);
    let n = frame.pixels().len();
    let out_len = (32 - 2) * (8 - 2);
    let gap = 1u32;
    let budget = n as u64 * u64::from(gap + 1) * 4 + 2000;
    let run = |mode: SchedMode, incremental: bool| {
        let spec = DesignSimSpec::new(
            DesignKind::Blur,
            Style::Pattern,
            DesignParams::small(32),
            frame.pixels().to_vec(),
        )
        .gap(gap)
        .out_len(out_len)
        .mode(mode)
        .incremental(incremental);
        let (mut sim, sink) = build_design_sim(&spec).unwrap();
        run_design_sim(&mut sim, sink, budget)
    };
    let reference = run(SchedMode::FullSweep, false);
    for mode in [SchedMode::EventDriven, SchedMode::Lowered] {
        assert_eq!(
            run(mode, true),
            reference,
            "{} must agree bit for bit with the full sweep",
            mode.label()
        );
    }
    group.throughput(Throughput::Elements(n as u64));
    group.bench_function("sweep", |b| {
        b.iter(|| black_box(run(SchedMode::FullSweep, false)))
    });
    group.bench_function("event", |b| {
        b.iter(|| black_box(run(SchedMode::EventDriven, true)))
    });
    group.bench_function("lowered", |b| {
        b.iter(|| black_box(run(SchedMode::Lowered, true)))
    });
    group.finish();
}

/// Frame-throughput batch: eight independent blur simulations, run on
/// one worker vs. the machine's available parallelism via
/// `run_design_batch`. Equality of every frame against the
/// single-threaded batch is asserted before timing.
fn bench_sched_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("sched_mode_blur_batch");
    let frame = Frame::noise(32, 8, PixelFormat::Gray8, 12);
    let n = frame.pixels().len();
    let out_len = (32 - 2) * (8 - 2);
    let gap = 1u32;
    let budget = n as u64 * u64::from(gap + 1) * 4 + 2000;
    const BATCH: usize = 8;
    let build_batch = || {
        let spec = DesignSimSpec::new(
            DesignKind::Blur,
            Style::Pattern,
            DesignParams::small(32),
            frame.pixels().to_vec(),
        )
        .gap(gap)
        .out_len(out_len)
        .mode(SchedMode::EventDriven);
        (0..BATCH)
            .map(|_| build_design_sim(&spec).unwrap())
            .collect::<Vec<_>>()
    };
    assert_eq!(
        run_design_batch(build_batch(), budget, 1),
        run_design_batch(build_batch(), budget, 8),
        "batch frames must not depend on worker count"
    );
    group.throughput(Throughput::Elements((n * BATCH) as u64));
    group.bench_function("threads_1", |b| {
        b.iter(|| black_box(run_design_batch(build_batch(), budget, 1)))
    });
    group.bench_function("threads_8", |b| {
        b.iter(|| black_box(run_design_batch(build_batch(), budget, 8)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_netlist_sim,
    bench_model_sim,
    bench_sched_modes,
    bench_sched_batch
);
criterion_main!(benches);
