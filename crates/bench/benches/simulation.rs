//! Times cycle-accurate simulation: the generated Table 3 netlists
//! interpreted against the board models, the model-level
//! (hand-written component) pipeline for comparison, the two
//! scheduler modes and the multi-design batch runner. Run with `cargo
//! bench -p hdp-bench --bench simulation`; each line is the median and
//! IQR per iteration (one frame, or one batch of frames).

use hdp_bench::timing::{report, sample, sample_with, SAMPLES};
use hdp_bench::{build_design_sim, run_design_batch, run_design_sim, DesignSimSpec};
use hdp_core::golden::PixelOp;
use hdp_core::model::{Algorithm, VideoPipelineModel};
use hdp_core::pixel::{Frame, PixelFormat};
use hdp_metagen::design::{DesignKind, DesignParams, Style};
use hdp_sim::SchedMode;

/// A 32x8 blur frame spec with one idle cycle between pixels.
fn blur_spec(frame: &Frame) -> DesignSimSpec {
    DesignSimSpec::new(
        DesignKind::Blur,
        Style::Pattern,
        DesignParams::small(32),
        frame.pixels().to_vec(),
    )
    .gap(1)
    .out_len((32 - 2) * (8 - 2))
}

/// The cycle budget of one frame of `frame` at the given gap.
fn budget(frame: &Frame, gap: u32) -> u64 {
    frame.pixels().len() as u64 * u64::from(gap + 1) * 4 + 2000
}

fn netlist_sim() {
    let frame = Frame::noise(32, 8, PixelFormat::Gray8, 9);
    let n = frame.pixels().len();
    for (kind, gap, out_len) in [
        (DesignKind::Saa2vga1, 0u32, n),
        (DesignKind::Blur, 1, (32 - 2) * (8 - 2)),
    ] {
        let spec = DesignSimSpec::new(
            kind,
            Style::Pattern,
            DesignParams::small(32),
            frame.pixels().to_vec(),
        )
        .gap(gap)
        .out_len(out_len);
        let name = format!("netlist_sim_frame/{}", kind.label().replace(' ', ""));
        report(
            &name,
            &sample(SAMPLES, || {
                let (mut sim, sink) = build_design_sim(&spec).unwrap();
                run_design_sim(&mut sim, sink, budget(&frame, gap))
            }),
        );
    }
}

fn model_sim() {
    let frame = Frame::noise(32, 8, PixelFormat::Gray8, 10);
    let fifo = VideoPipelineModel::new(
        "m",
        PixelFormat::Gray8,
        32,
        8,
        Algorithm::Transform(PixelOp::Identity),
    )
    .unwrap();
    report(
        "model_sim_frame/saa2vga_fifo",
        &sample(SAMPLES, || fifo.process_frame(&frame).unwrap()),
    );
    let blur = VideoPipelineModel::new("m", PixelFormat::Gray8, 32, 8, Algorithm::Blur)
        .unwrap()
        .with_source_gap(1);
    report(
        "model_sim_frame/blur_line_buffer",
        &sample(SAMPLES, || blur.process_frame(&frame).unwrap()),
    );
}

/// The scheduler modes on the blur frame, the sweep under both
/// interpreter strategies, asserted bit-identical to the
/// evaluate-everything sweep before any time is measured. Only the
/// runs are timed: each sample builds its simulator untimed.
fn sched_modes() {
    let frame = Frame::noise(32, 8, PixelFormat::Gray8, 11);
    let build = |mode: SchedMode, incremental: bool| {
        let spec = blur_spec(&frame).mode(mode).incremental(incremental);
        build_design_sim(&spec).unwrap()
    };
    let budget = budget(&frame, 1);
    let run = |mode: SchedMode, incremental: bool| {
        let (mut sim, sink) = build(mode, incremental);
        run_design_sim(&mut sim, sink, budget)
    };
    let reference = run(SchedMode::FullSweep, false);
    for mode in SchedMode::ALL {
        assert_eq!(
            run(mode, true),
            reference,
            "{} must agree bit for bit with the full sweep",
            mode.label()
        );
    }
    for (mode, incremental) in [
        (SchedMode::FullSweep, false),
        (SchedMode::FullSweep, true),
        (SchedMode::Lowered, true),
    ] {
        let interpreter = if incremental {
            "incremental"
        } else {
            "eval_all"
        };
        report(
            &format!("sched_mode_blur_frame/{}/{interpreter}", mode.label()),
            &sample_with(
                SAMPLES,
                || build(mode, incremental),
                |(mut sim, sink)| run_design_sim(&mut sim, sink, budget),
            ),
        );
    }
}

/// Eight independent blur simulations on one worker and on eight
/// through `run_design_batch`, asserted equal before timing. Only the
/// batch run is timed, not the builds.
fn sched_batch() {
    const BATCH: usize = 8;
    let frame = Frame::noise(32, 8, PixelFormat::Gray8, 12);
    let spec = blur_spec(&frame).mode(SchedMode::FullSweep);
    let build_batch = || {
        (0..BATCH)
            .map(|_| build_design_sim(&spec).unwrap())
            .collect::<Vec<_>>()
    };
    let budget = budget(&frame, 1);
    assert_eq!(
        run_design_batch(build_batch(), budget, 1),
        run_design_batch(build_batch(), budget, 8),
        "batch frames must not depend on worker count"
    );
    for threads in [1, 8] {
        report(
            &format!("sched_mode_blur_batch/threads_{threads}"),
            &sample_with(SAMPLES, build_batch, |sims| {
                run_design_batch(sims, budget, threads)
            }),
        );
    }
}

fn main() {
    netlist_sim();
    model_sim();
    sched_modes();
    sched_batch();
}
