//! A lowered cycle makes no heap allocation: the direct path of a lone
//! lowered unit (single- and multi-rate), the rank walk, the op replay,
//! the presentation of sequential outputs and the clock edge all run on
//! buffers sized before the first cycle. The same holds for a
//! whole-stimulus `Simulator::run_rows` call on a lone unit, whose
//! allocations do not grow with its row count, and for a cycle of the
//! 64-lane engine.
//!
//! The test binary counts every allocation its own thread makes through
//! a counting global allocator, so it lives in a file of its own.

use hdp_hdl::prim::{GateOp, Prim};
use hdp_hdl::{Entity, LogicVector, Netlist, PortDir};
use hdp_sim::{
    BusAccess, Component, LaneBatch, NetlistComponent, SchedMode, Sensitivity, SignalBus, SignalId,
    SimError, Simulator, LANES,
};
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

/// Every sequential primitive behind one set of ports: a FIFO and a
/// LIFO on `push`/`pop`/`wdata`, a block RAM written with `wdata` at a
/// free-running counter, and a truth table over the two strobes.
fn design() -> Netlist {
    let entity = Entity::builder("every_seq")
        .port("push", PortDir::In, 1)
        .unwrap()
        .port("pop", PortDir::In, 1)
        .unwrap()
        .port("wdata", PortDir::In, 8)
        .unwrap()
        .port("front", PortDir::Out, 8)
        .unwrap()
        .port("top", PortDir::Out, 8)
        .unwrap()
        .port("ram", PortDir::Out, 8)
        .unwrap()
        .port("mode", PortDir::Out, 2)
        .unwrap()
        .build()
        .unwrap();
    let mut nl = Netlist::new(entity);
    let mut net = |name: &str, width| nl.add_net(name, width).unwrap();
    let [push, pop] = ["push", "pop"].map(|n| net(n, 1));
    let [wdata, front, top, ram] = ["wdata", "front", "top", "ram"].map(|n| net(n, 8));
    let [f_empty, f_full, l_empty, l_full, busy] =
        ["f_empty", "f_full", "l_empty", "l_full", "busy"].map(|n| net(n, 1));
    let [q, q1] = ["q", "q1"].map(|n| net(n, 4));
    let [addr, mode] = ["addr", "mode"].map(|n| net(n, 2));
    nl.add_cell(
        "u_fifo",
        Prim::FifoMacro { depth: 4, width: 8 },
        vec![push, pop, wdata],
        vec![front, f_empty, f_full],
    )
    .unwrap();
    nl.add_cell(
        "u_lifo",
        Prim::LifoMacro { depth: 4, width: 8 },
        vec![push, pop, wdata],
        vec![top, l_empty, l_full],
    )
    .unwrap();
    nl.add_cell(
        "u_count",
        Prim::Reg {
            width: 4,
            has_enable: false,
            reset_value: 0,
        },
        vec![q1],
        vec![q],
    )
    .unwrap();
    nl.add_cell("u_inc", Prim::Inc { width: 4 }, vec![q], vec![q1])
        .unwrap();
    nl.add_cell(
        "u_addr",
        Prim::Slice {
            in_width: 4,
            low: 1,
            len: 2,
        },
        vec![q],
        vec![addr],
    )
    .unwrap();
    nl.add_cell(
        "u_ram",
        Prim::BlockRam {
            addr_width: 2,
            data_width: 8,
        },
        vec![push, addr, wdata, addr],
        vec![ram],
    )
    .unwrap();
    nl.add_cell(
        "u_busy",
        Prim::Gate {
            op: GateOp::Or,
            width: 1,
        },
        vec![push, pop],
        vec![busy],
    )
    .unwrap();
    nl.add_cell(
        "u_mode",
        Prim::TruthTable {
            in_widths: vec![1, 1],
            out_width: 2,
            table: vec![0, 1, 2, 3],
        },
        vec![busy, f_empty],
        vec![mode],
    )
    .unwrap();
    for (p, n) in [
        ("push", push),
        ("pop", pop),
        ("wdata", wdata),
        ("front", front),
        ("top", top),
        ("ram", ram),
        ("mode", mode),
    ] {
        nl.bind_port(p, n).unwrap();
    }
    nl
}

/// Cycle `c`'s stimulus row: `push`, `pop`, `wdata`.
fn row(c: u64) -> [u64; 3] {
    [
        u64::from(c % 4 != 3),
        u64::from(!c.is_multiple_of(4)),
        c & 0xFF,
    ]
}

/// One cycle of the service's protocol: poke the row, reset on cycle 0
/// or settle, sample the outputs, clock edge.
fn cycle(sim: &mut Simulator, ins: &[SignalId], outs: &[SignalId], c: u64, sink: &mut u64) {
    let row = row(c);
    for (&id, v) in ins.iter().zip(row) {
        sim.poke(id, v).unwrap();
    }
    if c == 0 {
        sim.reset().unwrap();
    } else {
        sim.settle().unwrap();
    }
    for &id in outs {
        let v: LogicVector = sim.peek(id).unwrap();
        *sink = sink.wrapping_add(v.to_u64().unwrap_or(u64::MAX));
    }
    sim.step().unwrap();
}

/// A component that does nothing: beside the design it puts the
/// simulator on the rank walk instead of the direct path.
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

/// Runs 64 warm-up cycles, then returns the allocations of the next
/// `n` cycles.
fn cycle_allocations(
    sim: &mut Simulator,
    ins: &[SignalId],
    outs: &[SignalId],
    n: u64,
    sink: &mut u64,
) -> u64 {
    // Warm up: build the schedule, lower the design and let every
    // buffer reach its working size.
    for c in 0..64 {
        cycle(sim, ins, outs, c, sink);
    }
    let before = allocations();
    for c in 64..64 + n {
        cycle(sim, ins, outs, c, sink);
    }
    allocations() - before
}

/// A lowered simulator of [`design`], and its input and output signals.
fn every_seq_sim() -> (Simulator, Vec<SignalId>, Vec<SignalId>) {
    let mut sim = Simulator::with_mode(SchedMode::Lowered);
    let mut map = Vec::new();
    for (name, width) in [
        ("push", 1),
        ("pop", 1),
        ("wdata", 8),
        ("front", 8),
        ("top", 8),
        ("ram", 8),
        ("mode", 2),
    ] {
        map.push((name, sim.add_signal(name, width).unwrap()));
    }
    let dut = NetlistComponent::new("dut", design(), sim.bus(), &map).unwrap();
    sim.add_component(dut);
    let ins: Vec<SignalId> = map[..3].iter().map(|&(_, id)| id).collect();
    let outs: Vec<SignalId> = map[3..].iter().map(|&(_, id)| id).collect();
    (sim, ins, outs)
}

#[test]
fn a_single_rate_lowered_cycle_makes_no_heap_allocation() {
    // The design alone: the direct path.
    let (mut sim, ins, outs) = every_seq_sim();
    let mut sink = 0u64;
    let made = cycle_allocations(&mut sim, &ins, &outs, 256, &mut sink);
    assert_eq!(made, 0, "256 direct-path cycles allocated {made} times");
    assert!(sim.compile_fallback_reason().is_none());
    assert_ne!(sink, 0);
    // Beside a second component: the rank walk.
    let (mut sim, ins, outs) = every_seq_sim();
    sim.add_component(Bystander);
    let made = cycle_allocations(&mut sim, &ins, &outs, 256, &mut sink);
    assert_eq!(made, 0, "256 rank-walk cycles allocated {made} times");
    assert!(sim.compile_fallback_reason().is_none());
}

/// [`design`]'s FIFO, counter and block RAM again, with the counter in
/// a second domain `half` of period 2 (only registers may leave `clk`),
/// so every other step fires `clk` alone.
fn two_rate_design() -> Netlist {
    let entity = Entity::builder("two_rate")
        .port("push", PortDir::In, 1)
        .unwrap()
        .port("pop", PortDir::In, 1)
        .unwrap()
        .port("wdata", PortDir::In, 8)
        .unwrap()
        .port("front", PortDir::Out, 8)
        .unwrap()
        .port("ram", PortDir::Out, 8)
        .unwrap()
        .port("count", PortDir::Out, 4)
        .unwrap()
        .build()
        .unwrap();
    let mut nl = Netlist::new(entity);
    let half = nl.add_domain("half", 2).unwrap();
    let mut net = |name: &str, width| nl.add_net(name, width).unwrap();
    let [push, pop, f_empty, f_full] = ["push", "pop", "f_empty", "f_full"].map(|n| net(n, 1));
    let [wdata, front, ram] = ["wdata", "front", "ram"].map(|n| net(n, 8));
    let [q, q1] = ["q", "q1"].map(|n| net(n, 4));
    let addr = net("addr", 2);
    nl.add_cell(
        "u_fifo",
        Prim::FifoMacro { depth: 4, width: 8 },
        vec![push, pop, wdata],
        vec![front, f_empty, f_full],
    )
    .unwrap();
    nl.add_cell_in_domain(
        "u_count",
        Prim::Reg {
            width: 4,
            has_enable: false,
            reset_value: 0,
        },
        vec![q1],
        vec![q],
        half,
    )
    .unwrap();
    nl.add_cell("u_inc", Prim::Inc { width: 4 }, vec![q], vec![q1])
        .unwrap();
    nl.add_cell(
        "u_addr",
        Prim::Slice {
            in_width: 4,
            low: 1,
            len: 2,
        },
        vec![q],
        vec![addr],
    )
    .unwrap();
    nl.add_cell(
        "u_ram",
        Prim::BlockRam {
            addr_width: 2,
            data_width: 8,
        },
        vec![push, addr, wdata, addr],
        vec![ram],
    )
    .unwrap();
    for (p, n) in [
        ("push", push),
        ("pop", pop),
        ("wdata", wdata),
        ("front", front),
        ("ram", ram),
        ("count", q),
    ] {
        nl.bind_port(p, n).unwrap();
    }
    nl
}

/// The allocations of one `run_rows` call over `n` rows on a fresh
/// simulator from `build`, with a sink that only sums.
fn run_rows_allocations(build: fn() -> (Simulator, Vec<SignalId>, Vec<SignalId>), n: u64) -> u64 {
    let (mut sim, ins, outs) = build();
    let rows: Vec<[u64; 3]> = (0..n).map(row).collect();
    let mut sink = 0u64;
    let before = allocations();
    sim.run_rows(&ins, &rows, &outs, |sampled| {
        for v in sampled {
            sink = sink.wrapping_add(v.to_u64().unwrap_or(u64::MAX));
        }
    })
    .unwrap();
    let made = allocations() - before;
    assert!(sim.compile_fallback_reason().is_none());
    assert_eq!(sim.cycle(), n);
    assert_ne!(sink, 0);
    made
}

#[test]
fn a_whole_stimulus_run_allocates_nothing_per_row() {
    for build in [every_seq_sim, two_rate_sim] {
        let short = run_rows_allocations(build, 64);
        let long = run_rows_allocations(build, 1024);
        assert_eq!(
            short, long,
            "64 rows allocated {short} times, 1024 rows {long}"
        );
    }
}

/// A lowered simulator of [`two_rate_design`], and its input and output
/// signals.
fn two_rate_sim() -> (Simulator, Vec<SignalId>, Vec<SignalId>) {
    let mut sim = Simulator::with_mode(SchedMode::Lowered);
    let mut map = Vec::new();
    for (name, width) in [
        ("push", 1),
        ("pop", 1),
        ("wdata", 8),
        ("front", 8),
        ("ram", 8),
        ("count", 4),
    ] {
        map.push((name, sim.add_signal(name, width).unwrap()));
    }
    let dut = NetlistComponent::new("dut", two_rate_design(), sim.bus(), &map).unwrap();
    sim.add_component(dut);
    let ins: Vec<SignalId> = map[..3].iter().map(|&(_, id)| id).collect();
    let outs: Vec<SignalId> = map[3..].iter().map(|&(_, id)| id).collect();
    (sim, ins, outs)
}

#[test]
fn a_two_rate_direct_path_cycle_makes_no_heap_allocation() {
    let (mut sim, ins, outs) = two_rate_sim();
    let mut sink = 0u64;
    let made = cycle_allocations(&mut sim, &ins, &outs, 24, &mut sink);
    assert_eq!(made, 0, "24 two-rate cycles allocated {made} times");
    assert!(sim.compile_fallback_reason().is_none());
    // 88 steps, the `half` domain fired on 44 of them.
    let count = sim.peek(outs[2]).unwrap().to_u64();
    assert_eq!(count, Some(44 % 16));
    assert_ne!(sink, 0);
}

#[test]
fn a_lane_batch_cycle_makes_no_heap_allocation() {
    let mut lanes = LaneBatch::new("lanes", &design()).unwrap();
    lanes.reset();
    let mut sink = 0u64;
    // Shared strobes: per-lane strobe phases would pop an empty FIFO.
    let mut cycle = |lanes: &mut LaneBatch, c: u64| {
        lanes.poke_all("push", u64::from(c % 4 != 3)).unwrap();
        lanes
            .poke_all("pop", u64::from(!c.is_multiple_of(4)))
            .unwrap();
        for lane in 0..LANES {
            lanes.poke("wdata", lane, (c + lane as u64) & 0xFF).unwrap();
        }
        lanes.settle();
        for port in ["front", "top", "ram", "mode"] {
            let v = lanes.peek(port, c as usize % LANES).unwrap();
            sink = sink.wrapping_add(v.to_u64().unwrap_or(u64::MAX));
        }
        lanes.tick().unwrap();
    };
    for c in 0..64 {
        cycle(&mut lanes, c);
    }
    let before = allocations();
    for c in 64..320 {
        cycle(&mut lanes, c);
    }
    let made = allocations() - before;
    assert_eq!(made, 0, "256 lane cycles allocated {made} times");
    assert_ne!(sink, 0);
}
