//! The `table3_frames` workload: the paper's own Table 3 designs, no
//! service code.
//!
//! One op is one round: a frame through each of the six netlists
//! (saa2vga 1, saa2vga 2 and blur, each in pattern and custom style).
//! Single frames differ by about 20x between designs, so a whole round
//! keeps per-op latency uniform.

use crate::measure::{
    block_done, mean_us, minor_faults, ns, Budget, Layers, OpLog, Spans, OP_MEAN_US, SETUP_REPS,
};
use hdp_bench::{build_design_sim, run_design_sim, DesignSimSpec};
use hdp_core::golden::{blur3x3, BlurBorder};
use hdp_core::pixel::{Frame, PixelFormat};
use hdp_metagen::design::{generate, DesignKind, DesignParams, Style};
use hdp_sim::{SchedMode, Simulator, TelemetryLevel};
use std::time::Instant;

/// Frame size: 32 pixels by 8 lines of Gray8 noise.
const WIDTH: usize = 32;
const HEIGHT: usize = 8;

/// The round, with each netlist's name and its `ns_per_cycle` metric.
const ROUND: [(DesignKind, Style, &str, &str); 6] = [
    (
        DesignKind::Saa2vga1,
        Style::Pattern,
        "saa2vga1_pattern",
        "table3.saa2vga1_pattern.ns_per_cycle",
    ),
    (
        DesignKind::Saa2vga1,
        Style::Custom,
        "saa2vga1_custom",
        "table3.saa2vga1_custom.ns_per_cycle",
    ),
    (
        DesignKind::Saa2vga2,
        Style::Pattern,
        "saa2vga2_pattern",
        "table3.saa2vga2_pattern.ns_per_cycle",
    ),
    (
        DesignKind::Saa2vga2,
        Style::Custom,
        "saa2vga2_custom",
        "table3.saa2vga2_custom.ns_per_cycle",
    ),
    (
        DesignKind::Blur,
        Style::Pattern,
        "blur_pattern",
        "table3.blur_pattern.ns_per_cycle",
    ),
    (
        DesignKind::Blur,
        Style::Custom,
        "blur_custom",
        "table3.blur_custom.ns_per_cycle",
    ),
];

/// Whether a per-layer metric is one only this workload reaches.
pub fn own_layer(name: &str) -> bool {
    name.starts_with("table3.") || matches!(name, "metagen.generate_us" | "sim.device_eval_share")
}

/// The pattern-over-custom ratios, one per pair of [`ROUND`] entries.
const RATIO_NAMES: [&str; 3] = [
    "table3.saa2vga1.pattern_over_custom",
    "table3.saa2vga2.pattern_over_custom",
    "table3.blur.pattern_over_custom",
];

/// One Table 3 netlist of the round.
struct Design {
    name: &'static str,
    spec: DesignSimSpec,
    budget: u64,
}

fn noise_frame(seed: u64) -> Frame {
    Frame::noise(WIDTH, HEIGHT, PixelFormat::Gray8, seed)
}

/// The timed set-up: the frame and the six simulation specs.
fn set_up(seed: u64) -> Vec<Design> {
    let frame = noise_frame(seed);
    ROUND
        .iter()
        .map(|&(kind, style, name, _)| {
            // Inter-pixel gaps as in the `table3` binary.
            let (gap, out_len) = match kind {
                DesignKind::Saa2vga1 => (0, frame.pixels().len()),
                DesignKind::Saa2vga2 => (39, frame.pixels().len()),
                DesignKind::Blur => (1, (WIDTH - 2) * (HEIGHT - 2)),
            };
            let spec = DesignSimSpec::new(
                kind,
                style,
                DesignParams::small(WIDTH),
                frame.pixels().to_vec(),
            )
            .gap(gap)
            .out_len(out_len)
            .mode(SchedMode::Lowered);
            Design {
                name,
                spec,
                budget: frame.pixels().len() as u64 * u64::from(gap + 1) * 4 + 4000,
            }
        })
        .collect()
}

/// The golden frames, in [`ROUND`] order. Not part of `setup_s`.
fn golden(seed: u64) -> Result<Vec<Vec<u64>>, String> {
    let frame = noise_frame(seed);
    let blurred = blur3x3(&frame, BlurBorder::Crop)
        .map_err(|e| format!("golden blur: {e}"))?
        .into_pixels();
    Ok(ROUND
        .iter()
        .map(|&(kind, ..)| match kind {
            DesignKind::Blur => blurred.clone(),
            DesignKind::Saa2vga1 | DesignKind::Saa2vga2 => frame.pixels().to_vec(),
        })
        .collect())
}

/// One design's frame: whether it matched, the finished simulation, and
/// the instants before the build, between build and run, and after.
struct FrameRun {
    matched: bool,
    sim: Simulator,
    at: [Instant; 3],
}

fn frame_of(design: &Design, spec: &DesignSimSpec, golden: &[u64]) -> Result<FrameRun, String> {
    let t0 = Instant::now();
    let (mut sim, sink) = build_design_sim(spec).map_err(|e| format!("{}: {e}", design.name))?;
    let t1 = Instant::now();
    let frame = run_design_sim(&mut sim, sink, design.budget);
    Ok(FrameRun {
        matched: frame == golden,
        sim,
        at: [t0, t1, Instant::now()],
    })
}

/// One untimed round.
fn prime(designs: &[Design]) -> Result<(), String> {
    for d in designs {
        let (mut sim, sink) = build_design_sim(&d.spec).map_err(|e| format!("{}: {e}", d.name))?;
        let _ = run_design_sim(&mut sim, sink, d.budget);
    }
    Ok(())
}

/// What an untraced run measured.
pub struct Run {
    /// The timed window.
    pub log: OpLog,
    /// Median set-up seconds.
    pub setup_s: f64,
    /// Simulated cycles of one round (the same in every round).
    pub cycles_per_round: u64,
}

/// Runs one untraced window, cut into [`SETUP_REPS`] slices each
/// preceded by a fresh set-up, as on the service workloads. `tamper`
/// may alter the golden frames before the window starts.
///
/// # Errors
///
/// Generation or wiring failures.
pub fn run(seed: u64, budget: Budget, tamper: fn(&mut [Vec<u64>])) -> Result<Run, String> {
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut log = OpLog::default();
    let mut cycles_per_round = None;
    let mut golden_frames = Vec::new();
    for slice in 0..SETUP_REPS {
        let started = Instant::now();
        let designs = set_up(seed);
        prime(&designs)?;
        setups.push(started.elapsed().as_secs_f64());
        if slice == 0 {
            golden_frames = golden(seed)?;
            tamper(&mut golden_frames);
        }
        let budget = budget.slice(slice, SETUP_REPS);
        let (started, first) = (Instant::now(), log.attempted());
        while !budget.done(log.attempted() - first, started) {
            let op_start = Instant::now();
            let (mut ok, mut cycles) = (true, 0);
            for (d, golden) in designs.iter().zip(&golden_frames) {
                let run = frame_of(d, &d.spec, golden)?;
                ok &= run.matched;
                cycles += run.sim.cycle();
            }
            let latency = op_start.elapsed();
            ok &= *cycles_per_round.get_or_insert(cycles) == cycles;
            log.push(latency, ok, cycles);
        }
        log.elapsed += started.elapsed();
    }
    Ok(Run {
        log,
        setup_s: crate::measure::median(&setups),
        cycles_per_round: cycles_per_round.unwrap_or(0),
    })
}

/// Rounds of `generate` timed after the window for `metagen.generate_us`.
const GENERATE_ROUNDS: usize = 20;

/// What a traced run measured.
pub struct Traced {
    /// Every op of the run.
    pub log: OpLog,
    /// Per-layer values.
    pub layers: Layers,
    /// The recorded spans.
    pub spans: Spans,
}

/// Runs one traced window: untraced and traced blocks alternate. A
/// traced round builds each simulation with counter telemetry and
/// times `build_design_sim` and the run to a frame separately. After
/// the window, one round at full telemetry gives the device share of
/// component evaluation time, and `generate` is timed on its own.
///
/// # Errors
///
/// Generation or wiring failures.
pub fn run_traced(seed: u64, budget: Budget) -> Result<Traced, String> {
    let designs = set_up(seed);
    prime(&designs)?;
    let golden = golden(seed)?;
    let counted: Vec<DesignSimSpec> = designs
        .iter()
        .map(|d| d.spec.clone().telemetry(TelemetryLevel::Counters))
        .collect();

    let mut spans = Spans::new();
    let mut log = OpLog::default();
    let mut run_ns = [0u64; 6];
    let mut run_cycles = [0u64; 6];
    let (mut build_ns, mut round_ns) = (Vec::new(), Vec::new());
    let (mut steps, mut settles, mut lowered, mut ops, mut evals) = (0u64, 0u64, 0u64, 0u64, 0u64);
    let (mut plain_ops, mut plain_ns, mut plain_faults) = (0u64, 0u64, 0u64);
    let (mut traced_ops, mut traced_ns) = (0u64, 0u64);
    let mut cycles_per_round = None;
    let mut traced_block = true;
    let started = Instant::now();
    while !budget.done(log.attempted(), started) {
        let block_start = Instant::now();
        let faults = minor_faults();
        let mut n = 0u64;
        while !block_done(budget, n, block_start) && !budget.done(log.attempted(), started) {
            let op_start = Instant::now();
            let root = if traced_block {
                spans.root("op", op_start, log.attempted())
            } else {
                0
            };
            let (mut ok, mut cycles, mut built) = (true, 0, 0);
            for (i, d) in designs.iter().enumerate() {
                let spec = if traced_block { &counted[i] } else { &d.spec };
                let run = frame_of(d, spec, &golden[i])?;
                ok &= run.matched;
                cycles += run.sim.cycle();
                if traced_block {
                    let [t0, t1, t2] = run.at;
                    spans.child("table3.build", t0, t1, root);
                    spans.child(d.name, t1, t2, root);
                    built += ns(t1 - t0);
                    run_ns[i] += ns(t2 - t1);
                    run_cycles[i] += run.sim.cycle();
                    let stats = run.sim.stats();
                    steps += stats.steps;
                    settles += stats.settles;
                    lowered += stats.lowered_settles;
                    ops += stats.ops_executed;
                    evals += stats.total_evals();
                }
            }
            let latency = op_start.elapsed();
            if traced_block {
                spans.close(root, Instant::now());
                build_ns.push(built);
                round_ns.push(ns(latency));
            }
            ok &= *cycles_per_round.get_or_insert(cycles) == cycles;
            log.push(latency, ok, cycles);
            n += 1;
        }
        let block_ns = ns(block_start.elapsed());
        if traced_block {
            traced_ops += n;
            traced_ns += block_ns;
        } else {
            plain_ops += n;
            plain_ns += block_ns;
            plain_faults += minor_faults() - faults;
        }
        traced_block = !traced_block;
    }
    log.elapsed = started.elapsed();

    let mut layers = Layers::new();
    let mut per_cycle = [0f64; 6];
    for (i, &(.., metric)) in ROUND.iter().enumerate() {
        per_cycle[i] = run_ns[i] as f64 / run_cycles[i] as f64;
        layers.insert(metric, per_cycle[i]);
    }
    for (i, name) in RATIO_NAMES.iter().enumerate() {
        layers.insert(name, per_cycle[2 * i] / per_cycle[2 * i + 1]);
    }
    let total_run: u64 = run_ns.iter().sum();
    let total_cycles: u64 = run_cycles.iter().sum();
    layers.insert("sim.ns_per_cycle", total_run as f64 / total_cycles as f64);
    layers.insert("table3.build_us", mean_us(&build_ns));
    layers.insert(OP_MEAN_US, mean_us(&round_ns));
    let traced = round_ns.len() as f64;
    layers.insert(
        "trace.accounted_ratio",
        (build_ns.iter().sum::<u64>() + total_run) as f64 / round_ns.iter().sum::<u64>() as f64,
    );
    layers.insert("sim.settles_per_op", settles as f64 / traced);
    layers.insert("sim.lowered_settle_ratio", lowered as f64 / settles as f64);
    layers.insert("sim.ops_per_cycle", ops as f64 / steps as f64);
    layers.insert("sim.evals_per_cycle", evals as f64 / steps as f64);
    layers.insert(
        "table3.cycles_per_round",
        cycles_per_round.unwrap_or(0) as f64,
    );
    layers.insert(
        "proc.minor_faults_per_op",
        plain_faults as f64 / plain_ops as f64,
    );
    let plain_rate = plain_ops as f64 / plain_ns as f64;
    let traced_rate = traced_ops as f64 / traced_ns as f64;
    layers.insert(
        "trace.overhead_pct",
        (plain_rate / traced_rate - 1.0) * 100.0,
    );
    layers.insert(
        "sim.device_eval_share",
        device_eval_share(&designs, &golden)?,
    );
    layers.insert("metagen.generate_us", generate_us()?);
    Ok(Traced { log, layers, spans })
}

/// Share of component evaluation time spent in the device models
/// (every component but the design netlist `dut`), over one round at
/// full telemetry.
fn device_eval_share(designs: &[Design], golden: &[Vec<u64>]) -> Result<f64, String> {
    let (mut device, mut all) = (0u64, 0u64);
    for (d, golden) in designs.iter().zip(golden) {
        let spec = d.spec.clone().telemetry(TelemetryLevel::Full);
        for c in frame_of(d, &spec, golden)?.sim.stats().components {
            all += c.eval_ns;
            if c.name != "dut" {
                device += c.eval_ns;
            }
        }
    }
    Ok(device as f64 / all as f64)
}

/// Mean microseconds of the six `generate` calls of one round.
fn generate_us() -> Result<f64, String> {
    let mut rounds = Vec::with_capacity(GENERATE_ROUNDS);
    for _ in 0..GENERATE_ROUNDS {
        let started = Instant::now();
        for &(kind, style, name, _) in &ROUND {
            let design = generate(kind, style, DesignParams::small(WIDTH))
                .map_err(|e| format!("{name}: {e}"))?;
            std::hint::black_box(design);
        }
        rounds.push(ns(started.elapsed()));
    }
    Ok(mean_us(&rounds))
}
