//! Scheduling-mode matrix, the start of the perf trajectory record:
//! times the blur-filter frame workload under the full-sweep and
//! lowered schedulers, separates the mechanisms behind the difference
//! into paired figures, and times the 64-way bit-parallel
//! [`LaneBatch`] engine against scalar runs; writes the numbers to
//! `BENCH_sched_modes.json`.
//!
//! Every configuration is asserted bit-identical against the
//! evaluate-everything full-sweep reference before any time is
//! measured; every lane of the packed run is asserted bit-identical
//! against its own scalar full-sweep run. Every figure is a
//! [`hdp_bench::timing`] sample (median and quartiles) of runs only:
//! each simulator is built and reset outside the timed region. The
//! mechanism figures time their two sides in alternating pairs and
//! report the per-pair ratio, each isolating one mechanism:
//!
//! * `incremental_over_eval_all` — the incremental netlist
//!   interpreter over the evaluate-everything one, both on the full
//!   sweep;
//! * `lowered_over_full_sweep` — the lowered scheduler (rank walk and
//!   op streams) over the full sweep, both with the incremental
//!   interpreter.
//!
//! The process exits non-zero when the median per-pair, per-lane
//! speedup of the packed lanes over the scalar full-sweep run falls
//! below `LOWERED_SPEEDUP_FLOOR` (8x).

use hdp_bench::timing::{paired, paired_with, Sample, SAMPLES};
use hdp_bench::{build_design_sim, run_design_sim, DesignSimSpec};
use hdp_conform::Json;
use hdp_core::pixel::{Frame, PixelFormat};
use hdp_hdl::prim::{GateOp, Prim};
use hdp_hdl::{Entity, LogicVector, Netlist, PortDir};
use hdp_metagen::design::{DesignKind, DesignParams, Style};
use hdp_sim::{
    ComponentId, LaneBatch, NetlistComponent, SchedMode, Simulator, TelemetryLevel, LANES,
};
use std::process::ExitCode;

const WIDTH: usize = 32;
const HEIGHT: usize = 8;
const GAP: u32 = 1;
/// Lane workload shape: a feed-forward add/xor pipeline.
const LANE_STAGES: usize = 24;
const LANE_WIDTH: usize = 16;
const LANE_CYCLES: usize = 256;
const SUMMARY_JSON: &str = "BENCH_sched_modes.json";
/// Runs on a shared 2-vCPU host measure a median per-pair speedup of
/// about 95x per packed lane. The floor sits well below that, so a
/// noisy shared runner cannot fail an honest run, while a real
/// regression of the lowered/lane path cannot pass.
const LOWERED_SPEEDUP_FLOOR: f64 = 8.0;

fn build(frame: &Frame, mode: SchedMode, incremental: bool) -> (Simulator, ComponentId) {
    let spec = DesignSimSpec::new(
        DesignKind::Blur,
        Style::Pattern,
        DesignParams::small(32),
        frame.pixels().to_vec(),
    )
    .gap(GAP)
    .out_len((WIDTH - 2) * (HEIGHT - 2))
    .mode(mode)
    .incremental(incremental);
    build_design_sim(&spec).expect("design builds")
}

fn budget(frame: &Frame) -> u64 {
    frame.pixels().len() as u64 * u64::from(GAP + 1) * 4 + 2000
}

/// The 64-way lane workload: `LANE_STAGES` Fibonacci-style add/xor
/// stages feeding a register, `dout` tapping the last combinational
/// net. Entirely feed-forward, so the lane engine packs it exactly.
fn lane_pipeline() -> Netlist {
    let width = LANE_WIDTH;
    let entity = Entity::builder("pipe")
        .port("din", PortDir::In, width)
        .unwrap()
        .port("dout", PortDir::Out, width)
        .unwrap()
        .build()
        .unwrap();
    let mut nl = Netlist::new(entity);
    let din = nl.add_net("din", width).unwrap();
    let q = nl.add_net("q", width).unwrap();
    let mut prev = din;
    let mut older = q;
    for i in 0..LANE_STAGES {
        let sum = nl.add_net(format!("s{i}"), width).unwrap();
        nl.add_cell(
            format!("u_add{i}"),
            Prim::Add { width },
            vec![prev, older],
            vec![sum],
        )
        .unwrap();
        let mix = nl.add_net(format!("x{i}"), width).unwrap();
        nl.add_cell(
            format!("u_xor{i}"),
            Prim::Gate {
                op: GateOp::Xor,
                width,
            },
            vec![sum, prev],
            vec![mix],
        )
        .unwrap();
        older = prev;
        prev = mix;
    }
    nl.add_cell(
        "u_reg",
        Prim::Reg {
            width,
            has_enable: false,
            reset_value: 0,
        },
        vec![prev],
        vec![q],
    )
    .unwrap();
    nl.bind_port("din", din).unwrap();
    nl.bind_port("dout", prev).unwrap();
    nl
}

/// One scalar full-sweep run of the lane workload, returning the
/// settled `dout` trace.
fn scalar_lane_run(nl: &Netlist, stim: &[u64]) -> Vec<LogicVector> {
    let mut sim = Simulator::with_mode(SchedMode::FullSweep);
    let din = sim.add_signal("din", LANE_WIDTH).unwrap();
    let dout = sim.add_signal("dout", LANE_WIDTH).unwrap();
    let comp = NetlistComponent::new(
        "dut",
        nl.clone(),
        sim.bus(),
        &[("din", din), ("dout", dout)],
    )
    .unwrap();
    sim.add_component(comp);
    let mut trace = Vec::with_capacity(stim.len());
    for (c, &v) in stim.iter().enumerate() {
        sim.poke(din, v).unwrap();
        if c == 0 {
            sim.reset().unwrap();
        } else {
            sim.settle().unwrap();
        }
        trace.push(sim.peek(dout).unwrap());
        sim.step().unwrap();
    }
    trace
}

/// One packed run: all 64 stimuli advanced by the same settles and
/// ticks. Returns per-lane `dout` traces.
fn packed_lane_run(nl: &Netlist, stims: &[Vec<u64>]) -> Vec<Vec<LogicVector>> {
    let mut lanes = LaneBatch::new("lanes", nl).unwrap();
    lanes.reset();
    let cycles = stims[0].len();
    let mut traces = vec![Vec::with_capacity(cycles); stims.len()];
    for c in 0..cycles {
        for (k, stim) in stims.iter().enumerate() {
            lanes.poke("din", k, stim[c]).unwrap();
        }
        lanes.settle();
        for (k, t) in traces.iter_mut().enumerate() {
            t.push(lanes.peek("dout", k).unwrap());
        }
        lanes.tick().unwrap();
    }
    traces
}

/// `median [q1, q3]` of a figure.
fn fmt(s: &Sample) -> String {
    format!("{:>8.3} [{:.3}, {:.3}]", s.median, s.q1, s.q3)
}

fn main() -> ExitCode {
    let frame = Frame::noise(WIDTH, HEIGHT, PixelFormat::Gray8, 11);
    let budget = budget(&frame);
    let run = |(mut sim, sink): (Simulator, ComponentId)| run_design_sim(&mut sim, sink, budget);

    // Bit-identity gate: no timing without agreement.
    let reference = run(build(&frame, SchedMode::FullSweep, false));
    for mode in SchedMode::ALL {
        assert_eq!(
            run(build(&frame, mode, true)),
            reference,
            "{} must match the evaluate-everything full sweep bit for bit",
            mode.label()
        );
    }

    println!("Scheduling-mode matrix — blur 32x8, gap {GAP} (median [IQR] of {SAMPLES} samples)");
    println!();
    // Runs only, in alternating pairs; timed runs stay at
    // TelemetryLevel::Off (the zero-cost default).
    let interpreter = paired_with(
        SAMPLES,
        (|| build(&frame, SchedMode::FullSweep, true), run),
        (|| build(&frame, SchedMode::FullSweep, false), run),
    );
    let scheduler = paired_with(
        SAMPLES,
        (|| build(&frame, SchedMode::Lowered, true), run),
        (|| build(&frame, SchedMode::FullSweep, true), run),
    );
    let single = [
        ("full_sweep_eval_all", interpreter.b.scaled(1e3)),
        ("full_sweep", scheduler.b.scaled(1e3)),
        ("lowered", scheduler.a.scaled(1e3)),
    ];
    for (label, ms) in &single {
        println!("  {label:<20} {} ms/frame", fmt(ms));
    }
    println!();
    let mechanisms = [
        ("incremental_over_eval_all", interpreter.speedup),
        ("lowered_over_full_sweep", scheduler.speedup),
    ];
    for (label, ratio) in &mechanisms {
        println!("  {label:<26} {}x (per pair)", fmt(ratio));
    }
    // A separate instrumented run per mode records the activity shape
    // behind each number: activity totals and the rank walk's share of
    // the settles.
    let shapes = SchedMode::ALL.map(|mode| {
        let (mut sim, sink) = build(&frame, mode, true);
        sim.set_telemetry(TelemetryLevel::Counters);
        std::hint::black_box(run_design_sim(&mut sim, sink, budget));
        let stats = sim.stats();
        let shape = Json::obj([
            ("evals", Json::Num(stats.total_evals())),
            ("delta_passes", Json::Num(stats.passes)),
            ("max_wake", Json::Num(stats.max_wake)),
            ("toggles", Json::Num(stats.total_toggles())),
            ("fallback_settles", Json::Num(stats.fallback_settles)),
            ("lowered_settles", Json::Num(stats.lowered_settles)),
            ("ops_executed", Json::Num(stats.ops_executed)),
        ]);
        (mode.label(), shape)
    });

    // 64-way lane engine: one packed run carries 64 independent
    // stimuli, refereed lane by lane against scalar full-sweep runs
    // before any timing.
    let pipe = lane_pipeline();
    let mut stims: Vec<Vec<u64>> = Vec::with_capacity(LANES);
    let mut state = 0x243F_6A88_85A3_08D3u64;
    for _ in 0..LANES {
        let mut lane = Vec::with_capacity(LANE_CYCLES);
        for _ in 0..LANE_CYCLES {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            lane.push(state & ((1 << LANE_WIDTH) - 1));
        }
        stims.push(lane);
    }
    let packed_traces = packed_lane_run(&pipe, &stims);
    for (k, stim) in stims.iter().enumerate() {
        assert_eq!(
            packed_traces[k],
            scalar_lane_run(&pipe, stim),
            "lane {k} must match its scalar full-sweep run bit for bit"
        );
    }
    let lanes = paired(
        SAMPLES,
        || packed_lane_run(&pipe, &stims),
        || scalar_lane_run(&pipe, &stims[0]),
    );
    let (packed_ms, scalar_ms) = (lanes.a.scaled(1e3), lanes.b.scaled(1e3));
    // One packed run does the work of `LANES` scalar runs.
    let lane_speedup = lanes.speedup.scaled(LANES as f64);
    println!();
    println!(
        "  lane64 pipeline ({LANE_STAGES} stages x {LANE_WIDTH} bits, {LANE_CYCLES} cycles): \
         packed {} ms for {LANES} lanes, scalar full-sweep {} ms/run",
        fmt(&packed_ms),
        fmt(&scalar_ms)
    );
    println!(
        "  lane speedup {}x vs the scalar full sweep (per packed lane, per pair)",
        fmt(&lane_speedup)
    );

    let num = |n: usize| Json::Num(n as u64);
    let report = Json::obj([
        ("schema", Json::Str("hdp-bench-sched-modes-v3".into())),
        (
            "workload",
            Json::obj([
                ("design", Json::Str("blur".into())),
                ("width", num(WIDTH)),
                ("height", num(HEIGHT)),
                ("gap", Json::Num(GAP.into())),
                ("samples", num(SAMPLES)),
            ]),
        ),
        (
            "single_sim_ms_per_frame",
            Json::obj(single.map(|(label, ms)| (label, ms.to_json()))),
        ),
        (
            "mechanisms",
            Json::obj(mechanisms.map(|(label, ratio)| (label, ratio.to_json()))),
        ),
        ("telemetry", Json::obj(shapes)),
        (
            "lane64",
            Json::obj([
                ("stages", num(LANE_STAGES)),
                ("width", num(LANE_WIDTH)),
                ("cycles", num(LANE_CYCLES)),
                ("lanes", num(LANES)),
                ("packed_ms", packed_ms.to_json()),
                ("scalar_sweep_ms", scalar_ms.to_json()),
            ]),
        ),
        ("lane_speedup_vs_sweep", lane_speedup.to_json()),
    ]);
    std::fs::write(SUMMARY_JSON, format!("{report:#}\n")).expect("write BENCH_sched_modes.json");
    println!("wrote {SUMMARY_JSON}");
    let lane_speedup = lane_speedup.median;
    if lane_speedup.is_nan() || lane_speedup < LOWERED_SPEEDUP_FLOOR {
        eprintln!(
            "sched_modes: FAIL: lane_speedup_vs_sweep {lane_speedup:.2} below the floor {LOWERED_SPEEDUP_FLOOR}"
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
