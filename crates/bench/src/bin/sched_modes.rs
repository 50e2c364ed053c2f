//! Scheduling-mode performance matrix, the start of the perf
//! trajectory record: times the blur-filter frame workload under the
//! full-sweep, event-driven and lowered schedulers, plus the
//! multi-design batch runner at 1 and N worker threads and the 64-way
//! bit-parallel [`LaneBatch`] engine, and writes the numbers to
//! `BENCH_sched_modes.json`.
//!
//! Every configuration is asserted bit-identical against the
//! full-sweep reference before any time is measured; every lane of
//! the packed run is asserted bit-identical against its own scalar
//! event-driven run. Every figure is a [`hdp_bench::timing`] sample
//! (median and quartiles); the packed and scalar lane runs are timed
//! in alternating pairs. The process exits non-zero when the median
//! per-pair, per-lane speedup over the scalar event-driven run falls
//! below `LOWERED_SPEEDUP_FLOOR` (8x).

use hdp_bench::timing::{paired, sample, sample_with, Sample, SAMPLES};
use hdp_bench::{build_design_sim, run_design_batch, run_design_sim, DesignSimSpec};
use hdp_conform::Json;
use hdp_core::pixel::{Frame, PixelFormat};
use hdp_hdl::prim::{GateOp, Prim};
use hdp_hdl::{Entity, LogicVector, Netlist, PortDir};
use hdp_metagen::design::{DesignKind, DesignParams, Style};
use hdp_sim::{LaneBatch, NetlistComponent, SchedMode, Simulator, TelemetryLevel, LANES};
use std::process::ExitCode;

const WIDTH: usize = 32;
const HEIGHT: usize = 8;
const GAP: u32 = 1;
const BATCH: usize = 8;
/// Lane workload shape: a feed-forward add/xor pipeline.
const LANE_STAGES: usize = 24;
const LANE_WIDTH: usize = 16;
const LANE_CYCLES: usize = 256;
const SUMMARY_JSON: &str = "BENCH_sched_modes.json";
/// Runs on a shared 2-vCPU host measure a median per-pair speedup of
/// about 60x per packed lane. The floor sits well below that, so a
/// noisy shared runner cannot fail an honest run, while a real
/// regression of the lowered/lane path cannot pass.
const LOWERED_SPEEDUP_FLOOR: f64 = 8.0;

fn build(
    frame: &Frame,
    mode: SchedMode,
    incremental: bool,
) -> (hdp_sim::Simulator, hdp_sim::ComponentId) {
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

/// One scalar event-driven run of the lane workload, returning the
/// settled `dout` trace.
fn scalar_lane_run(nl: &Netlist, stim: &[u64]) -> Vec<LogicVector> {
    let mut sim = Simulator::with_mode(SchedMode::EventDriven);
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
    let host = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    // Always record a >=2-worker point, even on single-core hosts
    // (there it measures scheduling overhead rather than speedup).
    let threads = host.clamp(2, 8);

    // Bit-identity gate: no timing without agreement.
    let reference = {
        let (mut sim, sink) = build(&frame, SchedMode::FullSweep, false);
        run_design_sim(&mut sim, sink, budget)
    };
    for mode in [SchedMode::EventDriven, SchedMode::Lowered] {
        let (mut sim, sink) = build(&frame, mode, true);
        assert_eq!(
            run_design_sim(&mut sim, sink, budget),
            reference,
            "{} must match the full sweep bit for bit",
            mode.label()
        );
    }

    println!("Scheduling-mode matrix — blur 32x8, gap {GAP} (median [IQR] of {SAMPLES} samples)");
    println!();
    // Timed runs stay at TelemetryLevel::Off (the zero-cost default);
    // a separate instrumented run per mode records the activity shape
    // behind each number: activity totals and the rank walk's share of
    // the settles. The full sweep runs the legacy evaluate-everything
    // interpreter as the baseline.
    let mut single = Vec::new();
    let mut shapes = Vec::new();
    for mode in SchedMode::ALL {
        let label = mode.label();
        let incremental = mode != SchedMode::FullSweep;
        let ms = sample(SAMPLES, || {
            let (mut sim, sink) = build(&frame, mode, incremental);
            run_design_sim(&mut sim, sink, budget)
        })
        .scaled(1e3);
        println!("  {label:<14} {} ms/frame", fmt(&ms));
        single.push((label, ms.to_json()));
        let (mut sim, sink) = build(&frame, mode, incremental);
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
        shapes.push((label, shape));
    }

    // Batch: the frame-throughput workload. Built once per timing run
    // inside the closure so construction cost is paid equally.
    let batch_frames_1 = run_design_batch(
        (0..BATCH)
            .map(|_| build(&frame, SchedMode::EventDriven, true))
            .collect(),
        budget,
        1,
    );
    let batch_frames_n = run_design_batch(
        (0..BATCH)
            .map(|_| build(&frame, SchedMode::EventDriven, true))
            .collect(),
        budget,
        threads,
    );
    assert_eq!(
        batch_frames_1, batch_frames_n,
        "batch results must not depend on worker count"
    );
    println!();
    let mut batch = Vec::new();
    // Simulations are consumed by a batch run; they are rebuilt for
    // every call, and only the run itself is timed.
    for t in [1usize, threads] {
        let ms = sample_with(
            SAMPLES,
            || {
                (0..BATCH)
                    .map(|_| build(&frame, SchedMode::EventDriven, true))
                    .collect::<Vec<_>>()
            },
            |sims| run_design_batch(sims, budget, t),
        )
        .scaled(1e3);
        println!("  batch x{BATCH}, {t:>2} thread(s) {} ms", fmt(&ms));
        batch.push((t, ms));
    }
    let speedup = batch[0].1.median / batch[1].1.median;
    println!();
    if host == 1 {
        println!(
            "  batch thread-scaling skipped: single-core host (x{BATCH} on {} threads measured {speedup:.2}x, overhead only)",
            batch[1].0
        );
    } else {
        println!(
            "  batch speedup {speedup:.2}x on {} threads (event-driven baseline)",
            batch[1].0
        );
    }

    // 64-way lane engine: one packed run carries 64 independent
    // stimuli, refereed lane by lane against scalar event-driven runs
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
            "lane {k} must match its scalar event-driven run bit for bit"
        );
    }
    let lanes = paired(
        SAMPLES,
        || packed_lane_run(&pipe, &stims),
        || scalar_lane_run(&pipe, &stims[0]),
    );
    let (packed_ms, scalar_ms) = (lanes.a.scaled(1e3), lanes.b.scaled(1e3));
    // One packed run does the work of `LANES` scalar runs.
    let lowered_speedup = lanes.speedup.scaled(LANES as f64);
    println!();
    println!(
        "  lane64 pipeline ({LANE_STAGES} stages x {LANE_WIDTH} bits, {LANE_CYCLES} cycles): \
         packed {} ms for {LANES} lanes, scalar event-driven {} ms/run",
        fmt(&packed_ms),
        fmt(&scalar_ms)
    );
    println!(
        "  lowered speedup {}x vs event-driven (per packed lane, per pair)",
        fmt(&lowered_speedup)
    );

    let num = |n: usize| Json::Num(n as u64);
    let mut batch_json = vec![
        ("designs".to_owned(), num(BATCH)),
        ("mode".to_owned(), Json::Str("event_driven".into())),
    ];
    batch_json.extend(
        batch
            .iter()
            .map(|(t, ms)| (format!("threads_{t}_ms"), ms.to_json())),
    );
    let report = Json::obj([
        ("schema", Json::Str("hdp-bench-sched-modes-v2".into())),
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
        ("single_sim_ms_per_frame", Json::obj(single)),
        ("batch", Json::Obj(batch_json)),
        ("telemetry", Json::obj(shapes)),
        (
            "lane64",
            Json::obj([
                ("stages", num(LANE_STAGES)),
                ("width", num(LANE_WIDTH)),
                ("cycles", num(LANE_CYCLES)),
                ("lanes", num(LANES)),
                ("packed_ms", packed_ms.to_json()),
                ("scalar_event_ms", scalar_ms.to_json()),
            ]),
        ),
        ("lowered_speedup_vs_event", lowered_speedup.to_json()),
        // A one-worker host cannot measure thread scaling; a sub-1.0
        // "speedup" there is scheduling overhead, not a regression.
        (
            "batch_speedup",
            if host == 1 {
                Json::Str("skipped_single_core".into())
            } else {
                Json::Float(speedup)
            },
        ),
        ("batch_threads", num(threads)),
        ("host_threads", num(host)),
    ]);
    std::fs::write(SUMMARY_JSON, format!("{report:#}\n")).expect("write BENCH_sched_modes.json");
    println!("wrote {SUMMARY_JSON}");
    let lowered_speedup = lowered_speedup.median;
    if lowered_speedup.is_nan() || lowered_speedup < LOWERED_SPEEDUP_FLOOR {
        eprintln!(
            "sched_modes: FAIL: lowered_speedup_vs_event {lowered_speedup:.2} below the floor {LOWERED_SPEEDUP_FLOOR}"
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
