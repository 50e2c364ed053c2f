//! Fixed-seed differential conformance sweep.
//!
//! Samples 200 designs from the metagen design space — including the
//! multi-clock `async_fifo` family — and demands that all five
//! oracles — the two simulator scheduling modes, the lowered mode
//! again on the rank walk, the levelized netlist path and the VHDL-text
//! interpreter — agree bit-for-bit on every
//! output, every cycle. This is the committed, deterministic slice of
//! what the `conform` fuzz binary explores with arbitrary seeds.

use hdp::conform::{check, check_lanes, shrink, Case, Stimulus};
use hdp::hdl::prim::Prim;
use hdp::hdl::{Entity, LogicVector, Netlist, PortDir};
use hdp::metagen::sampler::{sample_spec, sample_spec_in, DesignSpec, FAMILIES, RATIOS};
use hdp::metagen::OpSet;
use hdp::sim::devices::Sram;
use hdp::sim::vcd::VcdRecorder;
use hdp::sim::{
    BusAccess, Component, ComponentId, NetlistComponent, SchedMode, Sensitivity, SignalBus,
    SignalId, SimError, SimStats, Simulator, TelemetryLevel,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeSet;

const SEED: u64 = 0xC0F0;
const COUNT: usize = 200;
const CYCLES: usize = 10;

#[test]
fn two_hundred_sampled_designs_conform_across_all_oracles() {
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut kinds = BTreeSet::new();
    let mut targets = BTreeSet::new();
    let mut failures = Vec::new();
    for index in 0..COUNT {
        let spec = sample_spec(&mut rng);
        kinds.insert(spec.kind().to_owned());
        targets.insert(spec.target().to_owned());
        let label = spec.label();
        let netlist = spec
            .instantiate()
            .unwrap_or_else(|e| panic!("design #{index} ({label}) failed to generate: {e}"));
        let stimulus = Stimulus::sample(&netlist, CYCLES, &mut rng);
        if let Some(divergence) = check(&netlist, &stimulus) {
            // Shrink before reporting so the assertion message is a
            // ready-made minimal reproducer.
            let (minimal, d) = shrink(&Case { spec, stimulus });
            let d = d.expect("diverging case still diverges after shrinking");
            failures.push(format!(
                "design #{index} ({label}), shrunk to {} over {} cycle(s): {d} (original: {divergence})",
                minimal.spec.label(),
                minimal.stimulus.cycles.len(),
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "{} of {COUNT} designs diverged:\n{}",
        failures.len(),
        failures.join("\n")
    );
    // The fixed seed must exercise the whole design space: every
    // container kind and every physical target goes through every
    // oracle, including the VHDL interpreter.
    let expect = |label: &str, set: &BTreeSet<String>, want: &[&str]| {
        for item in want {
            assert!(
                set.contains(*item),
                "{label} `{item}` never sampled: {set:?}"
            );
        }
    };
    expect(
        "kind",
        &kinds,
        &[
            "read_buffer",
            "write_buffer",
            "stack",
            "queue",
            "vector",
            "assoc_array",
            "iterator",
        ],
    );
    expect(
        "target",
        &targets,
        &[
            "fifo_core",
            "lifo_core",
            "sram",
            "block_ram",
            "registers",
            "async_fifo",
        ],
    );
}

/// The 64-way lane engine against per-lane full-sweep referees over
/// its own fixed-seed sample: every lane of every packable design must
/// match its scalar run, and the packed designs must cover every
/// sequential primitive and the truth table. Only designs outside the
/// lane engine's scope (a second clock domain) fall back.
#[test]
fn two_hundred_sampled_designs_conform_lane_packed() {
    const LANE_SEED: u64 = 0x1A7E;
    const STIMULI: usize = 8;
    const LANE_CYCLES: usize = 12;
    let mut rng = StdRng::seed_from_u64(LANE_SEED);
    let mut packed = 0;
    let mut prims = BTreeSet::new();
    let mut failures = Vec::new();
    for index in 0..COUNT {
        let spec = sample_spec(&mut rng);
        let label = spec.label();
        let netlist = spec
            .instantiate()
            .unwrap_or_else(|e| panic!("design #{index} ({label}) failed to generate: {e}"));
        let stims: Vec<Stimulus> = (0..STIMULI)
            .map(|_| Stimulus::sample(&netlist, LANE_CYCLES, &mut rng))
            .collect();
        match check_lanes(&netlist, &stims) {
            Ok(None) => {
                packed += 1;
                prims.extend(netlist.cells().iter().map(|c| c.prim().mnemonic()));
            }
            Ok(Some(d)) => failures.push(format!("design #{index} ({label}): {d}")),
            Err(_) => {} // outside the lane engine's scope
        }
    }
    assert!(
        failures.is_empty(),
        "{} of {COUNT} designs diverged lane-packed:\n{}",
        failures.len(),
        failures.join("\n")
    );
    assert!(packed >= 150, "only {packed} of {COUNT} designs packed");
    for prim in ["reg", "bram", "fifo", "lifo", "table"] {
        assert!(
            prims.contains(prim),
            "no packed design has a `{prim}` cell: {prims:?}"
        );
    }
}

/// Every `wr:rd` period ratio the sampler draws, at two depths, must
/// conform across the full six-oracle stack: the deterministic
/// multi-domain interleaving has to come out bit-identical whether
/// the ticks are dispatched by the full sweep, the
/// lowered op streams (which fall back to interpreted ticks on
/// partial firings), the levelized path or the VHDL-text
/// interpreter's per-rail clock stepping.
#[test]
fn async_fifo_conforms_across_all_period_ratios() {
    let mut rng = StdRng::seed_from_u64(0xCDC);
    let mut failures = Vec::new();
    for &(wr_period, rd_period) in &RATIOS {
        for depth in [2usize, 4] {
            let spec = DesignSpec {
                family: 11,
                data_width: 4,
                depth,
                addr_width: 8,
                key_width: 8,
                wide: 0,
                write_side: false,
                ops: OpSet::new(),
                wr_period,
                rd_period,
            };
            let label = spec.label();
            let netlist = spec
                .instantiate()
                .unwrap_or_else(|e| panic!("{label} failed to generate: {e}"));
            // 18 base steps cover three full lcm(2,3)=6 interleaving
            // periods of the largest ratio in the table.
            let stimulus = Stimulus::sample(&netlist, 18, &mut rng);
            if let Some(d) = check(&netlist, &stimulus) {
                failures.push(format!("{label}: {d}"));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{} async_fifo points diverged:\n{}",
        failures.len(),
        failures.join("\n")
    );
}

// ---------------------------------------------------------------------
// The direct path and the rank walk
// ---------------------------------------------------------------------
//
// A `Lowered` simulator whose one component is a lowered netlist settles
// that unit straight on its planes (the direct path); any second
// component — here a VCD recorder — puts it on the rank walk. Both must
// match the full sweep bit for bit, count alike, and fail alike.

/// How a run ended: the settled outputs of every cycle, the first error
/// with the cycle that raised it, the telemetry and the VCD text (when a
/// recorder was attached).
#[derive(Debug, PartialEq)]
struct PathRun {
    trace: Vec<Vec<LogicVector>>,
    error: Option<(usize, String)>,
    stats: SimStats,
    vcd: Option<String>,
}

/// A simulator of `netlist` in `mode`, one signal per port, plus the
/// extra components `extras` adds over the port signals. Returns the
/// simulator and the stimulus and output signals.
fn path_sim(
    netlist: &Netlist,
    mode: SchedMode,
    inputs: &[(String, usize)],
    extras: impl FnOnce(&mut Simulator, &[(String, SignalId)]),
) -> (Simulator, Vec<SignalId>, Vec<SignalId>) {
    let mut sim = Simulator::with_mode(mode);
    sim.set_telemetry(TelemetryLevel::Counters);
    let mut ports = Vec::new();
    let mut outs = Vec::new();
    for port in netlist.entity().ports() {
        let id = sim.add_signal(port.name(), port.width()).unwrap();
        ports.push((port.name().to_owned(), id));
        if port.dir() != PortDir::In {
            outs.push(id);
        }
    }
    let refs: Vec<(&str, SignalId)> = ports.iter().map(|(n, id)| (n.as_str(), *id)).collect();
    let dut = NetlistComponent::new("dut", netlist.clone(), sim.bus(), &refs).unwrap();
    sim.add_component(dut);
    extras(&mut sim, &ports);
    let ins = inputs
        .iter()
        .map(|(name, _)| ports.iter().find(|(n, _)| n == name).unwrap().1)
        .collect();
    (sim, ins, outs)
}

/// Drives `rows` with the oracle protocol (poke, reset on cycle 0 or
/// settle, sample, clock edge) and stops at the first error.
fn drive_rows(
    mut sim: Simulator,
    ins: &[SignalId],
    outs: &[SignalId],
    rows: &[Vec<u64>],
    vcd: Option<ComponentId>,
) -> PathRun {
    let mut trace = Vec::new();
    let mut error = None;
    for (cycle, row) in rows.iter().enumerate() {
        for (&id, &v) in ins.iter().zip(row) {
            sim.poke(id, v).unwrap();
        }
        let settled = if cycle == 0 {
            sim.reset()
        } else {
            sim.settle()
        };
        if let Err(e) = settled {
            error = Some((cycle, e.to_string()));
            break;
        }
        trace.push(outs.iter().map(|&id| sim.peek(id).unwrap()).collect());
        if let Err(e) = sim.step() {
            error = Some((cycle, e.to_string()));
            break;
        }
    }
    let vcd = vcd.map(|id| sim.component::<VcdRecorder>(id).unwrap().render(sim.bus()));
    PathRun {
        trace,
        error,
        stats: sim.stats(),
        vcd,
    }
}

/// Runs `netlist` under `stim` in `mode`, alone or beside a VCD recorder
/// watching every port.
fn run_path(netlist: &Netlist, stim: &Stimulus, mode: SchedMode, record: bool) -> PathRun {
    let mut vcd = None;
    let (sim, ins, outs) = path_sim(netlist, mode, &stim.inputs, |sim, ports| {
        if record {
            let watched = ports.iter().map(|&(_, id)| id).collect();
            vcd = Some(sim.add_component(VcdRecorder::new("vcd", watched)));
        }
    });
    drive_rows(sim, &ins, &outs, &stim.cycles, vcd)
}

/// A component that reads nothing, drives nothing and has no clock
/// edge. Beside a design it changes no wake-up, so the only difference
/// it makes is the path: the rank walk instead of the direct path. (A
/// VCD recorder has an edge, which makes the settle after every edge do
/// work even for a combinational design.)
struct Bystander;

impl Component for Bystander {
    fn name(&self) -> &str {
        "bystander"
    }
    fn eval(&mut self, _bus: &mut dyn BusAccess) -> Result<(), SimError> {
        Ok(())
    }
    fn tick(&mut self, _bus: &mut SignalBus) -> Result<(), SimError> {
        Ok(())
    }
    fn sensitivity(&self) -> Sensitivity {
        Sensitivity::Signals(Vec::new())
    }
    fn is_clocked(&self) -> bool {
        false
    }
}

/// The `async_fifo` family at one `wr:rd` period ratio.
fn async_fifo_spec(depth: usize, wr_period: u64, rd_period: u64) -> DesignSpec {
    DesignSpec {
        family: 11,
        data_width: 4,
        depth,
        addr_width: 8,
        key_width: 8,
        wide: 0,
        write_side: false,
        ops: OpSet::new(),
        wr_period,
        rd_period,
    }
}

/// What the two lowered paths must agree on: the settle counts, the
/// dut's evaluations and every signal's toggles and drives.
#[derive(Debug, PartialEq)]
struct Counts {
    settles: u64,
    lowered_settles: u64,
    fallback_settles: u64,
    ops_executed: u64,
    dut_evals: u64,
    /// `(name, toggles, drives)` per signal.
    signals: Vec<(String, u64, u64)>,
}

fn counts(stats: &SimStats) -> Counts {
    let dut = stats.components.iter().find(|c| c.name == "dut").unwrap();
    Counts {
        settles: stats.settles,
        lowered_settles: stats.lowered_settles,
        fallback_settles: stats.fallback_settles,
        ops_executed: stats.ops_executed,
        dut_evals: dut.evals,
        signals: stats
            .signals
            .iter()
            .map(|s| (s.name.clone(), s.toggles, s.drives))
            .collect(),
    }
}

#[test]
fn sampled_designs_match_the_full_sweep_on_the_direct_path_and_the_rank_walk() {
    const DIRECT_SEED: u64 = 0xD1EC;
    const DIRECT_CYCLES: usize = 64;
    let mut rng = StdRng::seed_from_u64(DIRECT_SEED);
    let mut specs: Vec<DesignSpec> = (0..COUNT).map(|_| sample_spec(&mut rng)).collect();
    specs.extend(RATIOS.iter().map(|&(wr, rd)| async_fifo_spec(4, wr, rd)));
    let mut failures = Vec::new();
    let mut errors = 0;
    for (index, spec) in specs.iter().enumerate() {
        let label = spec.label();
        let netlist = spec.instantiate().unwrap();
        let stim = Stimulus::sample(&netlist, DIRECT_CYCLES, &mut rng);
        let reference = run_path(&netlist, &stim, SchedMode::FullSweep, true);
        let direct = run_path(&netlist, &stim, SchedMode::Lowered, false);
        let walk = run_path(&netlist, &stim, SchedMode::Lowered, true);
        errors += usize::from(reference.error.is_some());
        for (path, run) in [("direct path", &direct), ("rank walk", &walk)] {
            if (&run.trace, &run.error) != (&reference.trace, &reference.error) {
                let cycle = run
                    .trace
                    .iter()
                    .zip(&reference.trace)
                    .position(|(a, b)| a != b);
                failures.push(format!(
                    "design #{index} ({label}) on the {path}: first differing cycle {cycle:?}, \
                     error {:?} against the full sweep's {:?}",
                    run.error, reference.error
                ));
            }
        }
        if walk.vcd != reference.vcd {
            failures.push(format!("design #{index} ({label}): rank-walk VCD differs"));
        }
        assert!(
            direct.stats.lowered_settles > 0,
            "{label} never settled lowered"
        );
    }
    assert!(
        failures.is_empty(),
        "{} of {} designs diverged:\n{}",
        failures.len(),
        specs.len(),
        failures.join("\n")
    );
    // Most sampled stimuli stay inside the protocols for 64 cycles.
    assert!(
        errors < specs.len() / 2,
        "{errors} runs stopped on an error"
    );
}

#[test]
fn direct_path_and_rank_walk_count_alike_in_every_family() {
    let mut rng = StdRng::seed_from_u64(0xC0DE);
    for family in 0..FAMILIES.len() {
        let spec = sample_spec_in(&mut rng, family);
        let label = spec.label();
        let netlist = spec.instantiate().unwrap();
        let stim = Stimulus::sample(&netlist, 64, &mut rng);
        let direct = run_path(&netlist, &stim, SchedMode::Lowered, false);
        let (sim, ins, outs) = path_sim(&netlist, SchedMode::Lowered, &stim.inputs, |sim, _| {
            sim.add_component(Bystander);
        });
        let walk = drive_rows(sim, &ins, &outs, &stim.cycles, None);
        assert_eq!(direct.trace, walk.trace, "{label}");
        assert_eq!(direct.error, walk.error, "{label}");
        assert_eq!(counts(&direct.stats), counts(&walk.stats), "{label}");
        assert!(direct.stats.ops_executed > 0, "{label}");
    }
}

/// A one-cell design: a FIFO macro of depth 2 behind `push`, `pop` and
/// `wdata`, showing `front`, `empty` and `full`.
fn fifo_design() -> Netlist {
    let entity = Entity::builder("fifo2")
        .port("push", PortDir::In, 1)
        .unwrap()
        .port("pop", PortDir::In, 1)
        .unwrap()
        .port("wdata", PortDir::In, 8)
        .unwrap()
        .port("front", PortDir::Out, 8)
        .unwrap()
        .port("empty", PortDir::Out, 1)
        .unwrap()
        .port("full", PortDir::Out, 1)
        .unwrap()
        .build()
        .unwrap();
    let mut nl = Netlist::new(entity);
    let mut net = |name: &str, width| nl.add_net(name, width).unwrap();
    let [push, pop, empty, full] = ["push", "pop", "empty", "full"].map(|n| net(n, 1));
    let [wdata, front] = ["wdata", "front"].map(|n| net(n, 8));
    nl.add_cell(
        "u_fifo",
        Prim::FifoMacro { depth: 2, width: 8 },
        vec![push, pop, wdata],
        vec![front, empty, full],
    )
    .unwrap();
    for (p, n) in [
        ("push", push),
        ("pop", pop),
        ("wdata", wdata),
        ("front", front),
        ("empty", empty),
        ("full", full),
    ] {
        nl.bind_port(p, n).unwrap();
    }
    nl
}

/// A bus master that passes `req_in`/`we_in`/`addr_in`/`wdata_in`
/// through to an external SRAM's `req`/`we`/`addr`/`wdata` pins.
fn sram_master() -> Netlist {
    let mut entity = Entity::builder("master");
    for (name, dir, width) in [
        ("req_in", PortDir::In, 1),
        ("we_in", PortDir::In, 1),
        ("addr_in", PortDir::In, 4),
        ("wdata_in", PortDir::In, 8),
        ("req", PortDir::Out, 1),
        ("we", PortDir::Out, 1),
        ("addr", PortDir::Out, 4),
        ("wdata", PortDir::Out, 8),
    ] {
        entity = entity.port(name, dir, width).unwrap();
    }
    let mut nl = Netlist::new(entity.build().unwrap());
    for (name, width) in [("req", 1), ("we", 1), ("addr", 4), ("wdata", 8)] {
        let a = nl.add_net(format!("{name}_in"), width).unwrap();
        let y = nl.add_net(name, width).unwrap();
        nl.add_cell(format!("u_{name}"), Prim::Buf { width }, vec![a], vec![y])
            .unwrap();
        nl.bind_port(&format!("{name}_in"), a).unwrap();
        nl.bind_port(name, y).unwrap();
    }
    nl
}

#[test]
fn protocol_errors_are_raised_alike_on_both_paths() {
    // FIFO overflow: a third push into a FIFO of depth 2. The design
    // alone takes the direct path.
    let fifo = fifo_design();
    let pushes = Stimulus {
        inputs: vec![("push".into(), 1), ("pop".into(), 1), ("wdata".into(), 8)],
        cycles: (0..6).map(|c| vec![u64::from(c >= 2), 0, c]).collect(),
    };
    let reference = run_path(&fifo, &pushes, SchedMode::FullSweep, false);
    let error = reference.error.clone().expect("the FIFO overflows");
    assert_eq!(error.0, 4);
    assert!(
        error.1.contains("push on full fifo `u_fifo`"),
        "{}",
        error.1
    );
    for record in [false, true] {
        let run = run_path(&fifo, &pushes, SchedMode::Lowered, record);
        assert_eq!(
            (&run.trace, &run.error),
            (&reference.trace, &reference.error)
        );
    }
    // The same stimulus in one `run_rows` call with telemetry off: the
    // direct path's whole-stimulus loop.
    let (mut sim, ins, outs) = path_sim(&fifo, SchedMode::Lowered, &pushes.inputs, |_, _| {});
    sim.set_telemetry(TelemetryLevel::Off);
    let mut trace = Vec::new();
    let (cycle, e) = sim
        .run_rows(&ins, &pushes.cycles, &outs, |row| trace.push(row.to_vec()))
        .unwrap_err();
    assert_eq!(
        (&trace, Some((cycle, e.to_string()))),
        (&reference.trace, reference.error.clone())
    );
    // Every oracle, the whole-stimulus run included, fails alike.
    assert_eq!(check(&fifo, &pushes), None);

    // SRAM handshake: the master drops `req` while the SRAM model is
    // mid-transaction. The SRAM model is a second component, so this
    // design is on the rank walk with or without a recorder.
    let master = sram_master();
    let rows = Stimulus {
        inputs: vec![
            ("req_in".into(), 1),
            ("we_in".into(), 1),
            ("addr_in".into(), 4),
            ("wdata_in".into(), 8),
        ],
        cycles: (0..8)
            .map(|c| vec![u64::from((2..4).contains(&c)), 0, 3, 0])
            .collect(),
    };
    let run = |mode, record: bool| {
        let mut vcd = None;
        let (sim, ins, outs) = path_sim(&master, mode, &rows.inputs, |sim, ports| {
            let pin = |name: &str| ports.iter().find(|(n, _)| n == name).unwrap().1;
            let ack = sim.add_signal("ack", 1).unwrap();
            let rdata = sim.add_signal("rdata", 8).unwrap();
            sim.add_component(Sram::new(
                "u_sram",
                4,
                8,
                4,
                pin("req"),
                pin("we"),
                pin("addr"),
                pin("wdata"),
                ack,
                rdata,
            ));
            if record {
                let watched = ports.iter().map(|&(_, id)| id).collect();
                vcd = Some(sim.add_component(VcdRecorder::new("vcd", watched)));
            }
        });
        drive_rows(sim, &ins, &outs, &rows.cycles, vcd)
    };
    let reference = run(SchedMode::FullSweep, false);
    let error = reference.error.clone().expect("the handshake breaks");
    assert_eq!(error.0, 4);
    assert!(
        error.1.contains("req dropped mid-transaction"),
        "{}",
        error.1
    );
    for record in [false, true] {
        let got = run(SchedMode::Lowered, record);
        assert_eq!(
            (&got.trace, &got.error),
            (&reference.trace, &reference.error)
        );
        assert!(got.stats.lowered_settles > 0);
    }
}

#[test]
fn committed_reproducers_replay_and_still_parse() {
    // Divergences found by the fuzzer are committed under
    // tests/repros/ and must keep parsing; a reproducer that no
    // longer diverges marks a fixed bug and should be deleted.
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/repros");
    if !dir.is_dir() {
        return; // No outstanding divergences.
    }
    for entry in std::fs::read_dir(&dir).expect("readable repros dir") {
        let path = entry.expect("readable entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("readable reproducer");
        let divergence = hdp::conform::wire::replay(&text)
            .unwrap_or_else(|e| panic!("{}: malformed reproducer: {e}", path.display()));
        assert!(
            divergence.is_some(),
            "{}: no longer diverges — the bug it pinned is fixed; delete it",
            path.display()
        );
    }
}
