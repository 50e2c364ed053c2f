//! Cycle-accurate interpretation of generated netlists.

use crate::lower::LoweredProgram;
use crate::{BusAccess, ClockDomain, Component, Sensitivity, SignalBus, SignalId, SimError};
use hdp_hdl::prim::Prim;
use hdp_hdl::{CellId, LogicVector, NetId, Netlist, PortDir};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::{Arc, OnceLock};

/// A netlist's lowered op stream, or why it cannot lower: built once
/// and shared by every clone of the component.
type SharedLowering = Arc<OnceLock<Result<Arc<LoweredProgram>, String>>>;

/// Where a clock edge reads the settled values of sequential cell
/// inputs: the interpreter's net cache, a lowered unit's planes, or one
/// lane of the lane engine's bit columns.
pub(crate) trait EdgeInputs {
    /// The settled four-state value of a net.
    fn value(&self, net: usize) -> LogicVector;
    /// The settled value of a net as a word; `None` if any bit is X or Z.
    fn word(&self, net: usize) -> Option<u64>;
}

impl EdgeInputs for [LogicVector] {
    fn value(&self, net: usize) -> LogicVector {
        self[net]
    }

    fn word(&self, net: usize) -> Option<u64> {
        self[net].to_u64()
    }
}

/// The clock domains that present an edge at one step.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Firing<'a> {
    /// Every domain.
    All,
    /// The named domains ([`Component::tick_domains`]).
    Named(&'a [&'a str]),
    /// The domains whose period divides base step `t`: the scheduler's
    /// `ClockDomain::fires_at`, read off the netlist's own domain table
    /// (a simulator rejects a domain declared with two periods), so no
    /// name list is built.
    At(u64),
}

impl Firing<'_> {
    fn fires(self, domain: &hdp_hdl::ClockDomain) -> bool {
        match self {
            Firing::All => true,
            Firing::Named(names) => names.contains(&domain.name()),
            Firing::At(t) => t.is_multiple_of(domain.period().max(1)),
        }
    }
}

/// Per-cell state of sequential primitives: the one macro model, run by
/// the interpreter, the lowered engine and, one copy per lane, the lane
/// engine.
#[derive(Debug, Clone)]
pub(crate) enum SeqState {
    None,
    Reg(LogicVector),
    Bram {
        mem: Vec<Option<u64>>,
        out: Option<u64>,
    },
    /// A FIFO or LIFO macro. Both pop and present at the front; a FIFO
    /// pushes at the back, a LIFO at the front.
    Queue {
        depth: usize,
        lifo: bool,
        data: VecDeque<u64>,
    },
}

impl SeqState {
    /// The power-on state of a cell: an all-X register, an empty queue,
    /// a block RAM with nothing written; `None` for combinational cells.
    pub(crate) fn new(prim: &Prim) -> Self {
        match prim {
            Prim::Reg { width, .. } => {
                SeqState::Reg(LogicVector::unknown(*width).expect("validated"))
            }
            Prim::BlockRam { addr_width, .. } => SeqState::Bram {
                mem: vec![None; 1 << addr_width],
                out: None,
            },
            Prim::FifoMacro { depth, .. } | Prim::LifoMacro { depth, .. } => SeqState::Queue {
                depth: *depth,
                lifo: matches!(prim, Prim::LifoMacro { .. }),
                data: VecDeque::new(),
            },
            _ => SeqState::None,
        }
    }

    /// Reset: a register takes its reset value, a queue empties and a
    /// block RAM's read port goes undefined (its contents survive).
    pub(crate) fn reset(&mut self, prim: &Prim) {
        match (self, prim) {
            (
                SeqState::Reg(v),
                Prim::Reg {
                    width, reset_value, ..
                },
            ) => *v = LogicVector::from_u64(*reset_value, *width).expect("validated reset"),
            (SeqState::Bram { out, .. }, _) => *out = None,
            (SeqState::Queue { data, .. }, _) => data.clear(),
            _ => {}
        }
    }
}

/// Hands `emit` the `(net index, value)` pairs sequential cell `ci`
/// presents on its output nets from `state`, in pin order: the one
/// presentation of sequential state, shared by the interpreter
/// ([`NetlistComponent::eval`]), the lowered engine (`lower::exec_walk`)
/// and each lane of the lane engine. Nothing for combinational cells.
/// A callback rather than an iterator: nothing is built per cell, which
/// the lowered engine pays for on every walk after an edge.
pub(crate) fn seq_outputs(
    netlist: &Netlist,
    ci: usize,
    state: &SeqState,
    mut emit: impl FnMut(usize, LogicVector),
) {
    let outs = netlist.cells()[ci].outputs();
    let flag = |b: bool| LogicVector::from_u64(u64::from(b), 1).expect("1 bit");
    let word = |w: Option<u64>| {
        let width = netlist.net(outs[0]).width();
        w.map_or_else(
            || LogicVector::unknown(width),
            |v| LogicVector::from_u64(v, width),
        )
        .expect("stored words fit their width")
    };
    match state {
        SeqState::None => {}
        SeqState::Reg(v) => emit(outs[0].index(), *v),
        SeqState::Bram { out, .. } => emit(outs[0].index(), word(*out)),
        SeqState::Queue { depth, data, .. } => {
            emit(outs[0].index(), word(data.front().copied()));
            emit(outs[1].index(), flag(data.is_empty()));
            emit(outs[2].index(), flag(data.len() >= *depth));
        }
    }
}

/// Runs an [`hdp_hdl::Netlist`] as a simulated [`Component`].
///
/// This is how the designs emitted by the metaprogramming generator
/// are exercised against the board device models: the same netlist
/// that `hdp-synth` maps onto Spartan-IIE resources is interpreted
/// here, cell by cell, with full four-state semantics.
///
/// Entity ports are wired to simulator signals through the map given
/// at construction. `inout` ports are not supported by the interpreter
/// (the generated designs talk to the external SRAM through separate
/// `in`/`out` pins plus the req/ack handshake, as in Figure 5).
///
/// ## Incremental evaluation
///
/// The interpreter keeps a levelized view of the combinational cells
/// (their position in the topological order is their *rank*). After
/// the first full evaluation, each [`Component::eval`] re-evaluates
/// only the fanout cone of what actually changed — input nets that
/// latched a new value and outputs of sequential cells after a clock
/// edge — draining a rank-ordered worklist so every cell still sees
/// fully settled inputs. This makes a settle pass cost proportional to
/// activity rather than to design size, and is bit-identical to the
/// full sweep (the rank order is exactly the full sweep's visit
/// order over the affected cells).
///
/// The component is `Clone`: a pristine (never-evaluated) instance
/// can be cloned per job as a cheap template — the netlist is shared
/// behind an `Arc` and the derived state vectors memcpy, skipping
/// re-levelization and port re-wiring entirely. The lowered op stream
/// is shared the same way: whichever clone a [`crate::SchedMode::Lowered`]
/// simulator settles first lowers the netlist, and every other clone,
/// earlier or later, runs on that one program.
#[derive(Clone)]
pub struct NetlistComponent {
    name: String,
    netlist: Arc<Netlist>,
    /// (port index in entity, sim signal) pairs.
    port_wiring: Vec<(String, PortDir, hdp_hdl::NetId, SignalId)>,
    /// The op stream lowered from `netlist` and `port_wiring`, which
    /// never change after construction.
    lowered: SharedLowering,
    topo: Vec<CellId>,
    net_values: Vec<LogicVector>,
    seq_state: Vec<SeqState>,
    /// Nets driven by at least one combinational cell (pre-set to `Z`
    /// each full eval so tri-state resolution works).
    comb_driven: Vec<bool>,
    /// Topological rank of each combinational cell (`usize::MAX` for
    /// sequential cells, which never enter the worklist).
    rank: Vec<usize>,
    /// net index -> combinational cells reading it.
    fanout: Vec<Vec<usize>>,
    /// net index -> combinational cells driving it (len > 1 marks a
    /// shared tri-state net whose drivers must co-evaluate).
    comb_drivers: Vec<Vec<usize>>,
    /// Indices of sequential cells (Reg / BlockRam / Fifo / Lifo).
    seq_cells: Vec<usize>,
    /// Worklist of scheduled combinational cells, drained in rank order.
    heap: BinaryHeap<Reverse<(usize, usize)>>,
    /// Whether a cell is currently on the worklist.
    queued: Vec<bool>,
    /// Scratch stack for transitive co-driver scheduling.
    sched_stack: Vec<usize>,
    /// Monotonic eval counter; a shared net is `Z`-reset the first time
    /// a driver writes it in a given wave.
    wave: u64,
    net_wave: Vec<u64>,
    /// Run the legacy whole-netlist evaluation once (construction,
    /// reset, white-box mutation).
    full_eval: bool,
    /// Incremental evaluation enabled (the default). Off, every eval
    /// re-runs the whole netlist — the reference path, kept for
    /// differential testing and as a benchmark baseline.
    incremental: bool,
    /// A clock edge happened: sequential outputs must be re-presented.
    seq_dirty: bool,
    /// The lowered engine ran this component's last settle: its planes
    /// hold the settled nets and `net_values` is stale, so the next
    /// clock edge must sample the planes. Cleared by every interpreted
    /// [`Component::eval`].
    planes_current: bool,
    /// Per-net activity counting enabled (off by default: the change
    /// sites then pay one bool check).
    track_activity: bool,
    /// net index -> observed value changes (the per-net switching
    /// activity of the generated design). Sized on first enable.
    activity: Vec<u64>,
    /// Pre-eval snapshot scratch for full evaluations, which rewrite
    /// every net and so must diff rather than count at change sites.
    activity_snapshot: Vec<LogicVector>,
}

impl std::fmt::Debug for NetlistComponent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetlistComponent")
            .field("name", &self.name)
            .field("entity", &self.netlist.entity().name())
            .field("cells", &self.netlist.cells().len())
            .finish()
    }
}

impl NetlistComponent {
    /// Wraps a validated netlist, wiring each entity port to a
    /// simulator signal.
    ///
    /// # Errors
    ///
    /// Returns the netlist's own validation failure, a
    /// [`SimError::Protocol`] for an unmapped or unsupported port, or a
    /// width mismatch between a port and its signal.
    pub fn new(
        name: impl Into<String>,
        netlist: Netlist,
        bus: &SignalBus,
        port_map: &[(&str, SignalId)],
    ) -> Result<Self, SimError> {
        hdp_hdl::validate::check(&netlist)?;
        Self::new_prevalidated(name, Arc::new(netlist), bus, port_map)
    }

    /// Like [`NetlistComponent::new`] but skips the netlist validation
    /// pass, for netlists already validated by an earlier `new` — e.g.
    /// a content-addressed design cache replaying the same netlist for
    /// every stimulus. Port wiring is still fully checked.
    ///
    /// # Errors
    ///
    /// A [`SimError::Protocol`] for an unmapped or unsupported port, a
    /// width mismatch between a port and its signal, or a
    /// combinational cycle (levelization runs either way).
    pub fn new_prevalidated(
        name: impl Into<String>,
        netlist: Arc<Netlist>,
        bus: &SignalBus,
        port_map: &[(&str, SignalId)],
    ) -> Result<Self, SimError> {
        let name = name.into();
        let topo = netlist.comb_topo_order()?;
        let mut port_wiring = Vec::new();
        for port in netlist.entity().ports() {
            if port.dir() == PortDir::InOut {
                return Err(SimError::Protocol {
                    component: name,
                    message: format!(
                        "inout port `{}` is not supported by the netlist interpreter",
                        port.name()
                    ),
                });
            }
            let Some(&(_, signal)) = port_map.iter().find(|(p, _)| *p == port.name()) else {
                return Err(SimError::Protocol {
                    component: name,
                    message: format!("port `{}` is not mapped to a signal", port.name()),
                });
            };
            if bus.width(signal)? != port.width() {
                return Err(SimError::SignalWidth {
                    signal: bus.name(signal)?.to_owned(),
                    expected: port.width(),
                    found: bus.width(signal)?,
                });
            }
            let net = netlist
                .port_net(port.name())
                .expect("validated netlist binds every port");
            port_wiring.push((port.name().to_owned(), port.dir(), net, signal));
        }
        for (p, _) in port_map {
            if netlist.entity().port(p).is_none() {
                return Err(SimError::Protocol {
                    component: name,
                    message: format!("mapped port `{p}` does not exist on the entity"),
                });
            }
        }
        let net_values: Vec<LogicVector> = netlist
            .nets()
            .iter()
            .map(|n| LogicVector::unknown(n.width()).expect("net widths validated"))
            .collect();
        let mut comb_driven = vec![false; netlist.nets().len()];
        let mut fanout: Vec<Vec<usize>> = vec![Vec::new(); netlist.nets().len()];
        let mut comb_drivers: Vec<Vec<usize>> = vec![Vec::new(); netlist.nets().len()];
        let mut seq_cells = Vec::new();
        let mut seq_state = Vec::with_capacity(netlist.cells().len());
        for (ci, cell) in netlist.cells().iter().enumerate() {
            let state = SeqState::new(cell.prim());
            if matches!(state, SeqState::None) {
                for &net in cell.outputs() {
                    comb_driven[net.index()] = true;
                    comb_drivers[net.index()].push(ci);
                }
                for &net in cell.inputs() {
                    fanout[net.index()].push(ci);
                }
            } else {
                seq_cells.push(ci);
            }
            seq_state.push(state);
        }
        let mut rank = vec![usize::MAX; netlist.cells().len()];
        for (pos, &ci) in topo.iter().enumerate() {
            rank[ci.index()] = pos;
        }
        let queued = vec![false; netlist.cells().len()];
        let net_wave = vec![0; netlist.nets().len()];
        Ok(Self {
            name,
            netlist,
            port_wiring,
            lowered: SharedLowering::default(),
            topo,
            net_values,
            seq_state,
            comb_driven,
            rank,
            fanout,
            comb_drivers,
            seq_cells,
            heap: BinaryHeap::new(),
            queued,
            sched_stack: Vec::new(),
            wave: 0,
            net_wave,
            full_eval: true,
            incremental: true,
            seq_dirty: true,
            planes_current: false,
            track_activity: false,
            activity: Vec::new(),
            activity_snapshot: Vec::new(),
        })
    }

    /// Enables or disables incremental evaluation (on by default).
    /// Disabled, every settle pass re-evaluates the whole netlist in
    /// topological order — bit-identical, just slower.
    pub fn set_incremental(&mut self, enabled: bool) {
        self.incremental = enabled;
        if !enabled {
            self.full_eval = true;
        }
    }

    /// The wrapped netlist.
    #[must_use]
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// This netlist's op stream, lowered on the first call by any clone
    /// of this component and shared by all of them after. The flag says
    /// whether this call did the lowering.
    pub(crate) fn lowered_program(&self) -> (&Result<Arc<LoweredProgram>, String>, bool) {
        let mut lowered_here = false;
        let prog = self.lowered.get_or_init(|| {
            lowered_here = true;
            LoweredProgram::try_lower(&self.netlist, &self.port_wiring).map(Arc::new)
        });
        (prog, lowered_here)
    }

    /// Estimated resident bytes of the shared op stream: zero until some
    /// clone has lowered it. A cache-sizing estimate, not an allocator
    /// measurement.
    #[must_use]
    pub fn lowered_bytes(&self) -> u64 {
        match self.lowered.get() {
            Some(Ok(prog)) => prog.estimate_bytes(),
            _ => 0,
        }
    }

    /// Indices of the sequential cells, in cell order.
    pub(crate) fn seq_cells(&self) -> &[usize] {
        &self.seq_cells
    }

    /// Records that the lowered engine settled this component: the
    /// unit's planes now hold every settled net. The interpreter's net
    /// cache is stale from here on, so a later interpreted evaluation
    /// (fallback, mode switch) recomputes every net, and the next clock
    /// edge samples the planes ([`NetlistComponent::lowered_tick`]).
    pub(crate) fn mark_lowered_settle(&mut self) {
        self.full_eval = true;
        self.planes_current = true;
    }

    /// Whether the lowered engine ran this component's last settle, so
    /// its unit's planes, not the net cache, hold the settled nets.
    pub(crate) fn planes_current(&self) -> bool {
        self.planes_current
    }

    /// The clock edge of a lowered unit. It samples `planes` when the
    /// lowered engine ran the last settle, and the net cache when an
    /// interpreted (full-sweep) settle did: an edge always samples the
    /// settle that came before it, whichever engine ran it.
    pub(crate) fn lowered_tick(
        &mut self,
        planes: &impl EdgeInputs,
        firing: Firing<'_>,
    ) -> Result<(), SimError> {
        if !self.planes_current {
            return self.tick_cells(firing);
        }
        self.seq_dirty = true;
        clock_edge(
            &self.name,
            &self.netlist,
            &self.seq_cells,
            &mut self.seq_state,
            planes,
            firing,
        )
    }

    /// The interpreter's value of an internal net, for white-box
    /// assertions. After a settle the lowered engine ran, the settled
    /// values live in its planes and this cache is stale: read nets
    /// through [`crate::Simulator::net_value`], which picks whichever
    /// engine settled last.
    #[must_use]
    pub fn net_value(&self, name: &str) -> Option<LogicVector> {
        let id = self.netlist.find_net(name)?;
        Some(self.net_values[id.index()])
    }

    /// Enables or disables per-net activity counting (off by default).
    /// While enabled, every observed net-value change — input latches,
    /// sequential outputs after a clock edge, combinational settles —
    /// increments that net's counter, giving generated designs the
    /// same switching-activity profile telemetry gives top-level
    /// signals. Counts accumulated so far are retained across toggles.
    pub fn set_activity_tracking(&mut self, enabled: bool) {
        self.track_activity = enabled;
        if enabled && self.activity.len() != self.netlist.nets().len() {
            self.activity.resize(self.netlist.nets().len(), 0);
        }
    }

    /// The accumulated value-change count of an internal net, or
    /// `None` for an unknown net. Zero until
    /// [`NetlistComponent::set_activity_tracking`] is enabled.
    #[must_use]
    pub fn net_activity(&self, name: &str) -> Option<u64> {
        let id = self.netlist.find_net(name)?;
        Some(self.activity.get(id.index()).copied().unwrap_or(0))
    }

    /// All per-net activity counters as `(net name, changes)` pairs in
    /// net declaration order. Empty until activity tracking has been
    /// enabled.
    #[must_use]
    pub fn net_activity_table(&self) -> Vec<(&str, u64)> {
        self.netlist
            .nets()
            .iter()
            .zip(self.activity.iter())
            .map(|(net, &count)| (net.name(), count))
            .collect()
    }

    /// Hands `emit` the values sequential cell `ci` presents on its
    /// output nets ([`seq_outputs`] over this component's state).
    pub(crate) fn seq_outputs(&self, ci: usize, emit: impl FnMut(usize, LogicVector)) {
        seq_outputs(&self.netlist, ci, &self.seq_state[ci], emit);
    }

    fn drive_seq_outputs(&mut self) {
        for &ci in &self.seq_cells {
            let net_values = &mut self.net_values;
            seq_outputs(&self.netlist, ci, &self.seq_state[ci], |net, v| {
                net_values[net] = v;
            });
        }
    }

    /// Puts a combinational cell on the rank-ordered worklist, along
    /// with (transitively) every co-driver of its shared output nets —
    /// a shared tri-state net is only correct when all its drivers
    /// contribute to the same resolution wave.
    fn schedule_cell(&mut self, cell: usize) {
        self.sched_stack.push(cell);
        while let Some(ci) = self.sched_stack.pop() {
            if self.queued[ci] {
                continue;
            }
            self.queued[ci] = true;
            self.heap.push(Reverse((self.rank[ci], ci)));
            let n_outs = self.netlist.cells()[ci].outputs().len();
            for k in 0..n_outs {
                let net = self.netlist.cells()[ci].outputs()[k].index();
                if self.comb_drivers[net].len() > 1 {
                    for j in 0..self.comb_drivers[net].len() {
                        self.sched_stack.push(self.comb_drivers[net][j]);
                    }
                }
            }
        }
    }

    /// Schedules every combinational reader of a net.
    fn schedule_net_fanout(&mut self, net: usize) {
        for k in 0..self.fanout[net].len() {
            let reader = self.fanout[net][k];
            self.schedule_cell(reader);
        }
    }

    /// Legacy whole-netlist evaluation: every cell, in topological
    /// order. Used for the first pass after construction, reset or
    /// white-box mutation; also the reference the incremental path
    /// must match bit for bit.
    fn eval_full(&mut self, bus: &mut dyn BusAccess) -> Result<(), SimError> {
        // Full evaluation rewrites every net (tri-states are pre-set to
        // Z), so activity must be measured as a pre/post diff.
        if self.track_activity {
            self.activity_snapshot.clear();
            self.activity_snapshot.extend_from_slice(&self.net_values);
        }
        // 1. Latch input ports into their nets.
        for (_, dir, net, signal) in &self.port_wiring {
            if *dir == PortDir::In {
                self.net_values[net.index()] = bus.read(*signal)?;
            }
        }
        // 2. Present sequential outputs.
        self.drive_seq_outputs();
        // 3. Pre-release tri-state buses.
        for (ni, driven) in self.comb_driven.iter().enumerate() {
            if *driven {
                let width = self.net_values[ni].width();
                self.net_values[ni] = LogicVector::high_z(width).expect("validated");
            }
        }
        // 4. Evaluate combinational cells in topological order.
        for idx in 0..self.topo.len() {
            let ci = self.topo[idx];
            let cell = &self.netlist.cells()[ci.index()];
            let inputs: Vec<LogicVector> = cell
                .inputs()
                .iter()
                .map(|n| self.net_values[n.index()])
                .collect();
            let outputs = cell.prim().eval_comb(&inputs).map_err(SimError::from)?;
            for (&net, value) in cell.outputs().iter().zip(outputs) {
                let slot = &mut self.net_values[net.index()];
                *slot = slot.resolve(&value).map_err(SimError::from)?;
            }
        }
        // 5. Drive output ports.
        for (_, dir, net, signal) in &self.port_wiring {
            if *dir == PortDir::Out {
                bus.drive(*signal, self.net_values[net.index()])?;
            }
        }
        if self.track_activity {
            for (ni, old) in self.activity_snapshot.iter().enumerate() {
                if self.net_values[ni] != *old {
                    self.activity[ni] += 1;
                }
            }
        }
        // The netlist is now fully settled from current inputs and
        // state: later passes only need the fanout of future changes.
        self.heap.clear();
        self.queued.iter_mut().for_each(|q| *q = false);
        self.full_eval = false;
        self.seq_dirty = false;
        Ok(())
    }

    /// Incremental evaluation: re-run only the fanout cone of changed
    /// input nets and (after a clock edge) changed sequential outputs.
    fn eval_incremental(&mut self, bus: &mut dyn BusAccess) -> Result<(), SimError> {
        self.wave += 1;
        // 1. Latch input ports, scheduling readers of changed nets.
        for pi in 0..self.port_wiring.len() {
            let (dir, net, signal) = {
                let w = &self.port_wiring[pi];
                (w.1, w.2, w.3)
            };
            if dir == PortDir::In {
                let new = bus.read(signal)?;
                if new != self.net_values[net.index()] {
                    self.net_values[net.index()] = new;
                    if self.track_activity {
                        self.activity[net.index()] += 1;
                    }
                    self.schedule_net_fanout(net.index());
                }
            }
        }
        // 2. After a clock edge, re-present sequential outputs.
        if self.seq_dirty {
            self.seq_dirty = false;
            for i in 0..self.seq_cells.len() {
                let ci = self.seq_cells[i];
                // A cell presents at most three nets; schedule the
                // readers of those that changed once they are stored.
                let (mut changed, mut n) = ([0usize; 3], 0);
                let (net_values, activity) = (&mut self.net_values, &mut self.activity);
                let track = self.track_activity;
                seq_outputs(&self.netlist, ci, &self.seq_state[ci], |net, v| {
                    if v != net_values[net] {
                        net_values[net] = v;
                        if track {
                            activity[net] += 1;
                        }
                        changed[n] = net;
                        n += 1;
                    }
                });
                for &net in &changed[..n] {
                    self.schedule_net_fanout(net);
                }
            }
        }
        // 3. Drain the worklist in rank order. Rank order guarantees a
        // reader runs after every (scheduled) driver of its inputs, so
        // each cell sees settled values exactly as in the full sweep.
        while let Some(Reverse((_, ci))) = self.heap.pop() {
            self.queued[ci] = false;
            let cell = &self.netlist.cells()[ci];
            let inputs: Vec<LogicVector> = cell
                .inputs()
                .iter()
                .map(|n| self.net_values[n.index()])
                .collect();
            let out_nets: Vec<usize> = cell.outputs().iter().map(|n| n.index()).collect();
            let outputs = cell.prim().eval_comb(&inputs).map_err(SimError::from)?;
            for (&net, value) in out_nets.iter().zip(outputs) {
                let old = self.net_values[net];
                let new = if self.comb_drivers[net].len() > 1 {
                    // Shared net: Z-reset once per wave, then resolve
                    // each co-driver's contribution (all of them are
                    // scheduled together by `schedule_cell`).
                    let base = if self.net_wave[net] == self.wave {
                        old
                    } else {
                        self.net_wave[net] = self.wave;
                        LogicVector::high_z(old.width()).expect("validated")
                    };
                    base.resolve(&value).map_err(SimError::from)?
                } else {
                    value
                };
                if new != old {
                    self.net_values[net] = new;
                    if self.track_activity {
                        self.activity[net] += 1;
                    }
                    self.schedule_net_fanout(net);
                }
            }
        }
        // 4. Drive output ports (the bus deduplicates unchanged values).
        for (_, dir, net, signal) in &self.port_wiring {
            if *dir == PortDir::Out {
                bus.drive(*signal, self.net_values[net.index()])?;
            }
        }
        Ok(())
    }

    /// The interpreter's clock edge ([`Component::tick`] with every
    /// domain, [`Component::tick_domains`] with the firing ones): samples
    /// the net cache.
    fn tick_cells(&mut self, firing: Firing<'_>) -> Result<(), SimError> {
        debug_assert!(
            !self.planes_current,
            "the lowered engine settled last: tick through `lowered_tick`"
        );
        self.seq_dirty = true;
        clock_edge(
            &self.name,
            &self.netlist,
            &self.seq_cells,
            &mut self.seq_state,
            &self.net_values[..],
            firing,
        )
    }
}

/// One clock edge over the sequential cells whose domain fires,
/// sampling their inputs from `inputs`. This is the one
/// sequential model of every engine: the interpreter passes its net
/// cache, the lowered engine its planes, and the lane engine one lane
/// of its bit columns per call (its macros only). Protocol errors name the
/// component and the cell; their text is built only when one is raised.
pub(crate) fn clock_edge<I: EdgeInputs + ?Sized>(
    component: &str,
    netlist: &Netlist,
    seq_cells: &[usize],
    seq_state: &mut [SeqState],
    inputs: &I,
    firing: Firing<'_>,
) -> Result<(), SimError> {
    let protocol = |message: String| SimError::Protocol {
        component: component.to_owned(),
        message,
    };
    let strobe = |net: NetId| inputs.word(net.index()) == Some(1);
    let word = |net: NetId, kind: &str, what: &str| {
        let name = || netlist.net(net).name();
        let err = || protocol(format!("undefined {kind}{what} on net `{}`", name()));
        inputs.word(net.index()).ok_or_else(err)
    };
    for &ci in seq_cells {
        if !firing.fires(&netlist.domains()[netlist.cell_domains()[ci]]) {
            continue;
        }
        let cell = &netlist.cells()[ci];
        let ins = cell.inputs();
        match (cell.prim(), &mut seq_state[ci]) {
            (Prim::Reg { has_enable, .. }, SeqState::Reg(v)) if !has_enable || strobe(ins[1]) => {
                *v = inputs.value(ins[0].index());
            }
            (Prim::BlockRam { .. }, SeqState::Bram { mem, out }) => {
                if strobe(ins[0]) {
                    let addr = word(ins[1], "", "write address")?;
                    let data = word(ins[2], "", "write data")?;
                    mem[addr as usize] = Some(data);
                }
                *out = inputs
                    .word(ins[3].index())
                    .and_then(|addr| mem[addr as usize]);
            }
            (_, SeqState::Queue { depth, lifo, data }) => {
                let kind = if *lifo { "lifo" } else { "fifo" };
                let pop = strobe(ins[1]);
                let push = strobe(ins[0]);
                let wdata = push
                    .then(|| word(ins[2], kind, " write data"))
                    .transpose()?;
                if pop && data.pop_front().is_none() {
                    return Err(protocol(format!("pop on empty {kind} `{}`", cell.name())));
                }
                if let Some(d) = wdata {
                    if data.len() >= *depth {
                        return Err(protocol(format!("push on full {kind} `{}`", cell.name())));
                    }
                    if *lifo {
                        data.push_front(d);
                    } else {
                        data.push_back(d);
                    }
                }
            }
            _ => {}
        }
    }
    Ok(())
}

impl Component for NetlistComponent {
    fn name(&self) -> &str {
        &self.name
    }

    fn eval(&mut self, bus: &mut dyn BusAccess) -> Result<(), SimError> {
        self.planes_current = false;
        if self.full_eval || !self.incremental {
            self.eval_full(bus)
        } else {
            self.eval_incremental(bus)
        }
    }

    fn tick(&mut self, _bus: &mut SignalBus) -> Result<(), SimError> {
        self.tick_cells(Firing::All)
    }

    fn clock_domains(&self) -> Vec<ClockDomain> {
        self.netlist
            .domains()
            .iter()
            .map(|d| ClockDomain::new(d.name(), d.period()))
            .collect()
    }

    fn tick_domains(&mut self, _bus: &mut SignalBus, firing: &[&str]) -> Result<(), SimError> {
        self.tick_cells(Firing::Named(firing))
    }

    fn reset(&mut self, _bus: &mut SignalBus) -> Result<(), SimError> {
        for (state, cell) in self.seq_state.iter_mut().zip(self.netlist.cells()) {
            state.reset(cell.prim());
        }
        self.full_eval = true;
        self.seq_dirty = true;
        Ok(())
    }

    fn sensitivity(&self) -> Sensitivity {
        Sensitivity::Signals(
            self.port_wiring
                .iter()
                .filter(|(_, dir, _, _)| *dir == PortDir::In)
                .map(|&(_, _, _, signal)| signal)
                .collect(),
        )
    }

    fn is_clocked(&self) -> bool {
        !self.seq_cells.is_empty()
    }

    fn drives(&self) -> Option<Vec<SignalId>> {
        Some(
            self.port_wiring
                .iter()
                .filter(|(_, dir, _, _)| *dir != PortDir::In)
                .map(|&(_, _, _, signal)| signal)
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Simulator;
    use hdp_hdl::prim::Prim;
    use hdp_hdl::Entity;

    /// Counter netlist: q' = q + 1 via Reg + Inc.
    fn counter_netlist() -> Netlist {
        let entity = Entity::builder("counter")
            .port("q", PortDir::Out, 8)
            .unwrap()
            .build()
            .unwrap();
        let mut nl = Netlist::new(entity);
        let q = nl.add_net("q", 8).unwrap();
        let d = nl.add_net("d", 8).unwrap();
        nl.add_cell(
            "u_reg",
            Prim::Reg {
                width: 8,
                has_enable: false,
                reset_value: 0,
            },
            vec![d],
            vec![q],
        )
        .unwrap();
        nl.add_cell("u_inc", Prim::Inc { width: 8 }, vec![q], vec![d])
            .unwrap();
        nl.bind_port("q", q).unwrap();
        nl
    }

    #[test]
    fn counter_netlist_counts() {
        let mut sim = Simulator::new();
        let q = sim.add_signal("q", 8).unwrap();
        let dut = NetlistComponent::new("dut", counter_netlist(), sim.bus(), &[("q", q)]).unwrap();
        sim.add_component(dut);
        let mon = sim.add_component(crate::probe::Monitor::with_capacity("mon_q", q, 7));
        sim.reset().unwrap();
        assert_eq!(sim.peek(q).unwrap().to_u64(), Some(0));
        sim.run(7).unwrap();
        assert_eq!(sim.peek(q).unwrap().to_u64(), Some(7));
        // The monitor samples the settled pre-edge value each cycle.
        sim.component::<crate::probe::Monitor>(mon)
            .unwrap()
            .expect_values(&[0, 1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn unmapped_port_is_rejected() {
        let sim = Simulator::new();
        let err = NetlistComponent::new("dut", counter_netlist(), sim.bus(), &[]).unwrap_err();
        assert!(matches!(err, SimError::Protocol { .. }));
    }

    #[test]
    fn extra_mapped_port_is_rejected() {
        let mut sim = Simulator::new();
        let q = sim.add_signal("q", 8).unwrap();
        let x = sim.add_signal("x", 8).unwrap();
        let err = NetlistComponent::new(
            "dut",
            counter_netlist(),
            sim.bus(),
            &[("q", q), ("nope", x)],
        )
        .unwrap_err();
        assert!(matches!(err, SimError::Protocol { .. }));
    }

    #[test]
    fn width_mismatched_signal_is_rejected() {
        let mut sim = Simulator::new();
        let q = sim.add_signal("q", 4).unwrap();
        let err =
            NetlistComponent::new("dut", counter_netlist(), sim.bus(), &[("q", q)]).unwrap_err();
        assert!(matches!(err, SimError::SignalWidth { .. }));
    }

    /// A fifo-macro wrapper netlist for protocol tests.
    fn fifo_netlist(depth: usize) -> Netlist {
        let entity = Entity::builder("f")
            .port("push", PortDir::In, 1)
            .unwrap()
            .port("pop", PortDir::In, 1)
            .unwrap()
            .port("wdata", PortDir::In, 8)
            .unwrap()
            .port("rdata", PortDir::Out, 8)
            .unwrap()
            .port("empty", PortDir::Out, 1)
            .unwrap()
            .port("full", PortDir::Out, 1)
            .unwrap()
            .build()
            .unwrap();
        let mut nl = Netlist::new(entity);
        let push = nl.add_net("push", 1).unwrap();
        let pop = nl.add_net("pop", 1).unwrap();
        let wdata = nl.add_net("wdata", 8).unwrap();
        let rdata = nl.add_net("rdata", 8).unwrap();
        let empty = nl.add_net("empty", 1).unwrap();
        let full = nl.add_net("full", 1).unwrap();
        nl.add_cell(
            "u_fifo",
            Prim::FifoMacro { depth, width: 8 },
            vec![push, pop, wdata],
            vec![rdata, empty, full],
        )
        .unwrap();
        for (p, n) in [
            ("push", push),
            ("pop", pop),
            ("wdata", wdata),
            ("rdata", rdata),
            ("empty", empty),
            ("full", full),
        ] {
            nl.bind_port(p, n).unwrap();
        }
        nl
    }

    #[test]
    fn fifo_macro_behaves_like_device() {
        let mut sim = Simulator::new();
        let push = sim.add_signal("push", 1).unwrap();
        let pop = sim.add_signal("pop", 1).unwrap();
        let wdata = sim.add_signal("wdata", 8).unwrap();
        let rdata = sim.add_signal("rdata", 8).unwrap();
        let empty = sim.add_signal("empty", 1).unwrap();
        let full = sim.add_signal("full", 1).unwrap();
        let dut = NetlistComponent::new(
            "dut",
            fifo_netlist(4),
            sim.bus(),
            &[
                ("push", push),
                ("pop", pop),
                ("wdata", wdata),
                ("rdata", rdata),
                ("empty", empty),
                ("full", full),
            ],
        )
        .unwrap();
        sim.add_component(dut);
        sim.poke(push, 0).unwrap();
        sim.poke(pop, 0).unwrap();
        sim.poke(wdata, 0).unwrap();
        sim.reset().unwrap();
        assert_eq!(sim.peek(empty).unwrap().to_u64(), Some(1));
        sim.poke(push, 1).unwrap();
        sim.poke(wdata, 0x33).unwrap();
        sim.step().unwrap();
        sim.poke(push, 0).unwrap();
        sim.settle().unwrap();
        assert_eq!(sim.peek(rdata).unwrap().to_u64(), Some(0x33));
        assert_eq!(sim.peek(empty).unwrap().to_u64(), Some(0));
        // Pop on empty after draining is a protocol error.
        sim.poke(pop, 1).unwrap();
        sim.step().unwrap();
        let err = sim.step().unwrap_err();
        assert!(matches!(err, SimError::Protocol { .. }));
    }

    #[test]
    fn lifo_macro_reverses_order() {
        let entity = Entity::builder("l")
            .port("push", PortDir::In, 1)
            .unwrap()
            .port("pop", PortDir::In, 1)
            .unwrap()
            .port("wdata", PortDir::In, 8)
            .unwrap()
            .port("rdata", PortDir::Out, 8)
            .unwrap()
            .port("empty", PortDir::Out, 1)
            .unwrap()
            .port("full", PortDir::Out, 1)
            .unwrap()
            .build()
            .unwrap();
        let mut nl = Netlist::new(entity);
        let push = nl.add_net("push", 1).unwrap();
        let pop = nl.add_net("pop", 1).unwrap();
        let wdata = nl.add_net("wdata", 8).unwrap();
        let rdata = nl.add_net("rdata", 8).unwrap();
        let empty = nl.add_net("empty", 1).unwrap();
        let full = nl.add_net("full", 1).unwrap();
        nl.add_cell(
            "u_lifo",
            Prim::LifoMacro { depth: 4, width: 8 },
            vec![push, pop, wdata],
            vec![rdata, empty, full],
        )
        .unwrap();
        for (p, n) in [
            ("push", push),
            ("pop", pop),
            ("wdata", wdata),
            ("rdata", rdata),
            ("empty", empty),
            ("full", full),
        ] {
            nl.bind_port(p, n).unwrap();
        }
        let mut sim = Simulator::new();
        let push_s = sim.add_signal("push", 1).unwrap();
        let pop_s = sim.add_signal("pop", 1).unwrap();
        let wdata_s = sim.add_signal("wdata", 8).unwrap();
        let rdata_s = sim.add_signal("rdata", 8).unwrap();
        let empty_s = sim.add_signal("empty", 1).unwrap();
        let full_s = sim.add_signal("full", 1).unwrap();
        let dut = NetlistComponent::new(
            "dut",
            nl,
            sim.bus(),
            &[
                ("push", push_s),
                ("pop", pop_s),
                ("wdata", wdata_s),
                ("rdata", rdata_s),
                ("empty", empty_s),
                ("full", full_s),
            ],
        )
        .unwrap();
        sim.add_component(dut);
        sim.poke(push_s, 0).unwrap();
        sim.poke(pop_s, 0).unwrap();
        sim.poke(wdata_s, 0).unwrap();
        sim.reset().unwrap();
        for v in [5u64, 6, 7] {
            sim.poke(push_s, 1).unwrap();
            sim.poke(wdata_s, v).unwrap();
            sim.step().unwrap();
        }
        sim.poke(push_s, 0).unwrap();
        let mut seen = Vec::new();
        for _ in 0..3 {
            sim.settle().unwrap();
            seen.push(sim.peek(rdata_s).unwrap().to_u64().unwrap());
            sim.poke(pop_s, 1).unwrap();
            sim.step().unwrap();
            sim.poke(pop_s, 0).unwrap();
        }
        assert_eq!(seen, vec![7, 6, 5]);
        sim.settle().unwrap();
        assert_eq!(sim.peek(empty_s).unwrap().to_u64(), Some(1));
    }

    #[test]
    fn net_activity_counts_changes() {
        let mut sim = Simulator::new();
        let q = sim.add_signal("q", 8).unwrap();
        let mut dut =
            NetlistComponent::new("dut", counter_netlist(), sim.bus(), &[("q", q)]).unwrap();
        dut.set_activity_tracking(true);
        let id = sim.add_component(dut);
        sim.reset().unwrap();
        sim.run(5).unwrap();
        let dut = sim.component::<NetlistComponent>(id).unwrap();
        // q changes on reset (X -> 0) and once per clock edge.
        let q_act = dut.net_activity("q").unwrap();
        let d_act = dut.net_activity("d").unwrap();
        assert!(q_act >= 5, "q toggled at least once per cycle: {q_act}");
        assert!(d_act >= 5, "d follows q: {d_act}");
        assert!(dut.net_activity("nonexistent").is_none());
        let table = dut.net_activity_table();
        assert_eq!(table.len(), 2);
        assert!(table.iter().any(|&(n, c)| n == "q" && c == q_act));
    }

    #[test]
    fn net_activity_off_by_default() {
        let mut sim = Simulator::new();
        let q = sim.add_signal("q", 8).unwrap();
        let dut = NetlistComponent::new("dut", counter_netlist(), sim.bus(), &[("q", q)]).unwrap();
        let id = sim.add_component(dut);
        sim.reset().unwrap();
        sim.run(3).unwrap();
        let dut = sim.component::<NetlistComponent>(id).unwrap();
        assert_eq!(dut.net_activity("q"), Some(0));
        assert!(dut.net_activity_table().is_empty());
    }

    #[test]
    fn second_domain_register_ticks_at_its_own_rate() {
        // Two independent counters in one netlist: `u_fast` on the
        // default clk, `u_slow` in an `rd` domain firing every second
        // base step.
        let entity = Entity::builder("two")
            .port("qf", PortDir::Out, 8)
            .unwrap()
            .port("qs", PortDir::Out, 8)
            .unwrap()
            .build()
            .unwrap();
        let mut nl = Netlist::new(entity);
        let qf = nl.add_net("qf", 8).unwrap();
        let df = nl.add_net("df", 8).unwrap();
        let qs = nl.add_net("qs", 8).unwrap();
        let ds = nl.add_net("ds", 8).unwrap();
        let rd = nl.add_domain("rd", 2).unwrap();
        let reg = |v| Prim::Reg {
            width: 8,
            has_enable: false,
            reset_value: v,
        };
        nl.add_cell("u_fast", reg(0), vec![df], vec![qf]).unwrap();
        nl.add_cell_in_domain("u_slow", reg(0), vec![ds], vec![qs], rd)
            .unwrap();
        nl.add_cell("i_f", Prim::Inc { width: 8 }, vec![qf], vec![df])
            .unwrap();
        nl.add_cell("i_s", Prim::Inc { width: 8 }, vec![qs], vec![ds])
            .unwrap();
        nl.bind_port("qf", qf).unwrap();
        nl.bind_port("qs", qs).unwrap();
        let mut sim = Simulator::new();
        let qf_s = sim.add_signal("qf", 8).unwrap();
        let qs_s = sim.add_signal("qs", 8).unwrap();
        let dut =
            NetlistComponent::new("dut", nl, sim.bus(), &[("qf", qf_s), ("qs", qs_s)]).unwrap();
        sim.add_component(dut);
        sim.reset().unwrap();
        sim.run(6).unwrap();
        assert_eq!(sim.peek(qf_s).unwrap().to_u64(), Some(6));
        // `rd` fires at t = 0, 2, 4 — three edges in six steps.
        assert_eq!(sim.peek(qs_s).unwrap().to_u64(), Some(3));
    }

    #[test]
    fn net_value_white_box_probe() {
        let mut sim = Simulator::new();
        let q = sim.add_signal("q", 8).unwrap();
        let dut = NetlistComponent::new("dut", counter_netlist(), sim.bus(), &[("q", q)]).unwrap();
        let id = sim.add_component(dut);
        sim.reset().unwrap();
        sim.run(3).unwrap();
        let dut = sim.component::<NetlistComponent>(id).unwrap();
        assert_eq!(dut.net_value("q").unwrap().to_u64(), Some(3));
        assert_eq!(dut.net_value("d").unwrap().to_u64(), Some(4));
        assert!(dut.net_value("nonexistent").is_none());
    }

    #[test]
    fn simulator_net_value_reads_whichever_engine_settled_last() {
        let probe = |mode| {
            let mut sim = Simulator::with_mode(mode);
            let q = sim.add_signal("q", 8).unwrap();
            let dut =
                NetlistComponent::new("dut", counter_netlist(), sim.bus(), &[("q", q)]).unwrap();
            let id = sim.add_component(dut);
            sim.reset().unwrap();
            sim.run(5).unwrap();
            assert_eq!(sim.peek(q).unwrap().to_u64(), Some(5), "{mode:?}");
            let net = |name| sim.net_value(id, name).and_then(|v| v.to_u64());
            (net("q"), net("d"), sim.net_value(id, "nonexistent"))
        };
        for mode in crate::SchedMode::ALL {
            assert_eq!(probe(mode), (Some(5), Some(6), None), "{mode:?}");
        }
        // A component that is not a netlist has no nets.
        let mut sim = Simulator::new();
        let q = sim.add_signal("q", 8).unwrap();
        let other = sim.add_component(crate::probe::Monitor::with_capacity("mon", q, 1));
        assert!(sim.net_value(other, "q").is_none());
    }
}
