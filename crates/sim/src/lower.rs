//! Verilator-style lowering of frozen netlists to flat word-level op
//! streams: one front end, two back ends.
//!
//! A validated [`crate::NetlistComponent`] interprets its netlist: every
//! settle walks `Cell`/`Prim` structures, materialises `Vec<LogicVector>`
//! pin arrays and dispatches through `eval_comb`. This module stages that
//! interpretation out. The front end (`LoweredProgram::lower_netlist`)
//! translates the netlist alone, once, into a `Vec<LoweredOp>` — masked
//! AND/OR/XOR/NOT/MUX/shift/compare/add ops over net indices — ordered by
//! the same combinational topological order the interpreter uses, with
//! the net masks and the multiply-driven (`shared_z`) nets beside it.
//!
//! The scalar back end ([`LoweredProgram::try_lower`] binds the ports)
//! keeps each net's three planes (`value`/`unknown`/`highz`, one u64
//! word each) side by side in a flat scratch. [`settle_planes`] is one
//! settle on the planes alone: it latches the input ports, and unless
//! the input memo hits it presents the sequential state and replays
//! the stream with no `Prim` dispatch, no per-pin `LogicVector` vectors
//! and no heap scheduling. The output ports are the caller's: on the
//! rank walk [`exec_settle`] reads and drives the ports on the live
//! signal bus exactly like the interpreter's `eval_full`; a simulator
//! whose one component is the unit stores them on that bus instead (the
//! scheduler's direct path). Either way the result is bit-identical by
//! construction (each op implements the word-parallel form of the
//! corresponding `Prim::eval_comb` X/Z semantics, including `Not`'s
//! whole-word poisoning and the tri-state resolve fold). Its sequential
//! half is the interpreter's: `SeqState` is presented into the planes
//! through the interpreter's own `seq_outputs`, and a clock edge reads
//! cell inputs straight from the planes ([`Planes`]). Nothing is
//! written back between the two.
//!
//! The lane back end, [`LaneBatch`], runs the same ops for throughput:
//! 64 independent stimulus runs are packed one-per-bit into u64 columns
//! (bit `k` of every column belongs to lane `k`), so a single settle
//! advances 64 simulations at once. Arithmetic ripples carries across
//! bit columns; X propagation uses a defined-plane per column.
//! Registers keep lane-packed column state; block RAMs, FIFOs and LIFOs
//! keep the interpreter's `SeqState` per lane and tick through its clock
//! edge. Designs the lane engine cannot pack exactly (tri-state nets,
//! `inout` ports) are rejected at construction and fall back to scalar
//! runs.

use crate::error::SimError;
use crate::netlist_sim::{clock_edge, seq_outputs, EdgeInputs, Firing, NetlistComponent, SeqState};
use crate::signal::{SignalBus, SignalId};
use hdp_hdl::prim::{CmpKind, GateOp, Prim};
use hdp_hdl::{HdlError, LogicVector, NetId, Netlist, PortDir};

/// Number of independent simulation lanes a [`LaneBatch`] packs into
/// each u64 bit column.
pub const LANES: usize = 64;

/// The enumeration cap `Prim::eval_comb` applies to undefined truth
/// table inputs; the lowered executors must give up at the same point
/// to stay bit-identical.
const MAX_X_ENUM: usize = 10;

fn width_mask(width: usize) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// One flat word-level operation of a lowered settle.
///
/// Operands are net indices into the program's scratch planes. `out`
/// nets with several combinational drivers carry `resolve: true`, which
/// folds the op result into the pre-released net with the four-state
/// resolution rule instead of overwriting it — the word-level form of
/// the interpreter's `slot.resolve(&value)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum LoweredOp {
    /// Constant drive (planes captured from the `Const` primitive).
    Const {
        out: u32,
        v: u64,
        u: u64,
        z: u64,
        resolve: bool,
    },
    /// Plane-for-plane copy (`Buf`; passes `Z` through).
    Buf {
        a: u32,
        out: u32,
        resolve: bool,
    },
    /// Whole-word complement; any undefined input bit poisons the word.
    Not {
        a: u32,
        out: u32,
        resolve: bool,
    },
    /// Bitwise gate with dominance (`0` for AND, `1` for OR).
    Gate {
        op: GateOp,
        a: u32,
        b: u32,
        out: u32,
        resolve: bool,
    },
    ReduceOr {
        a: u32,
        out: u32,
        resolve: bool,
    },
    ReduceAnd {
        a: u32,
        out: u32,
        resolve: bool,
    },
    Add {
        a: u32,
        b: u32,
        out: u32,
        resolve: bool,
    },
    Sub {
        a: u32,
        b: u32,
        out: u32,
        resolve: bool,
    },
    Inc {
        a: u32,
        out: u32,
        resolve: bool,
    },
    Cmp {
        kind: CmpKind,
        a: u32,
        b: u32,
        out: u32,
        resolve: bool,
    },
    /// Way select; out-of-range or undefined select poisons the word.
    Mux {
        sel: u32,
        ins: Vec<u32>,
        out: u32,
        resolve: bool,
    },
    /// Plane shift-and-mask (`Slice`).
    Slice {
        a: u32,
        low: u8,
        out: u32,
        resolve: bool,
    },
    /// MSB-first shift-or over `(net, width)` pairs (`Concat`).
    Concat {
        ins: Vec<(u32, u32)>,
        out: u32,
        resolve: bool,
    },
    /// Ternary truth-table lookup with bounded X enumeration. Input
    /// `(net, width)` pairs are LSB-first in index order (the reverse
    /// of the pin order, matching `Prim::eval_comb`).
    Table {
        ins: Vec<(u32, u32)>,
        table: Vec<u64>,
        out: u32,
        resolve: bool,
    },
    /// Tri-state buffer: enable 1 passes, 0 releases to Z, X poisons.
    TriBuf {
        en: u32,
        a: u32,
        out: u32,
        resolve: bool,
    },
}

impl LoweredOp {
    /// The net the op writes, and whether it resolves into it.
    fn output(&self) -> (u32, bool) {
        match *self {
            LoweredOp::Const { out, resolve, .. }
            | LoweredOp::Buf { out, resolve, .. }
            | LoweredOp::Not { out, resolve, .. }
            | LoweredOp::Gate { out, resolve, .. }
            | LoweredOp::ReduceOr { out, resolve, .. }
            | LoweredOp::ReduceAnd { out, resolve, .. }
            | LoweredOp::Add { out, resolve, .. }
            | LoweredOp::Sub { out, resolve, .. }
            | LoweredOp::Inc { out, resolve, .. }
            | LoweredOp::Cmp { out, resolve, .. }
            | LoweredOp::Mux { out, resolve, .. }
            | LoweredOp::Slice { out, resolve, .. }
            | LoweredOp::Concat { out, resolve, .. }
            | LoweredOp::Table { out, resolve, .. }
            | LoweredOp::TriBuf { out, resolve, .. } => (out, resolve),
        }
    }
}

/// A frozen design lowered to a flat word-level op stream.
///
/// Value-independent: the program captures net layout, masks and ops
/// but no simulation state, so every clone of one
/// [`NetlistComponent`] shares it (the service's content-addressed
/// cache hands every job of a design such a clone).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct LoweredProgram {
    /// One width mask per net (index = `NetId::index()`).
    pub(crate) masks: Vec<u64>,
    /// Nets with more than one combinational driver, pre-released to
    /// all-Z before every op walk.
    pub(crate) shared_z: Vec<u32>,
    /// The op stream, in combinational topological order.
    pub(crate) ops: Vec<LoweredOp>,
    /// `In` ports as `(net, signal)`, in wiring order.
    pub(crate) in_ports: Vec<(u32, SignalId)>,
    /// `Out` ports as `(net, signal)`, in wiring order.
    pub(crate) out_ports: Vec<(u32, SignalId)>,
}

/// The value, unknown and high-Z planes of one net, side by side: a
/// settle reads and writes a net's three words together.
type NetPlanes = (u64, u64, u64);

/// Per-simulator mutable state of one lowered component: the net
/// planes, persisted across settles. After a lowered settle they, not
/// the interpreter's net cache, hold the state the next edge samples,
/// and their `In`-port nets are the input memo that lets an unchanged
/// wake skip the op walk (nothing but the latch writes those nets).
#[derive(Debug, Clone)]
pub(crate) struct LoweredScratch {
    /// `(value, unknown, high-Z)` per net (index = `NetId::index()`).
    pub(crate) nets: Vec<NetPlanes>,
    /// Forces the next exec to re-run the ops and re-present the
    /// sequential outputs (set after construction and clock edges, and
    /// by [`settle_planes`] whenever the planes are not current).
    pub(crate) dirty: bool,
    /// Op walks run on these planes.
    #[cfg(test)]
    pub(crate) walks: u64,
}

/// A lowered unit's settled planes as the inputs of a clock edge
/// (`NetlistComponent::lowered_tick`), in place of the interpreter's
/// net cache.
pub(crate) struct Planes<'a>(pub(crate) &'a LoweredProgram, pub(crate) &'a LoweredScratch);

impl EdgeInputs for Planes<'_> {
    fn value(&self, net: usize) -> LogicVector {
        let width = self.0.masks[net].count_ones() as usize;
        let (v, u, z) = self.1.nets[net];
        LogicVector::from_raw_masks(width, v, u, z).expect("valid width")
    }

    fn word(&self, net: usize) -> Option<u64> {
        let (v, u, z) = self.1.nets[net];
        ((u | z) & self.0.masks[net] == 0).then_some(v)
    }
}

impl LoweredScratch {
    pub(crate) fn new(prog: &LoweredProgram) -> Self {
        Self {
            // Nets start all-X, like the interpreter's unknown-filled
            // net cache.
            nets: prog.masks.iter().map(|&m| (0, m, 0)).collect(),
            dirty: true,
            #[cfg(test)]
            walks: 0,
        }
    }
}

/// Four-state resolution of `new` into the existing planes, the
/// word-parallel form of `LogicVector::resolve`: Z yields, agreement
/// keeps the value, conflict and X produce X.
#[inline]
fn resolve_planes(m: u64, (va, ua, za): NetPlanes, (vb, ub, zb): NetPlanes) -> NetPlanes {
    let da = m & !(ua | za);
    let db = m & !(ub | zb);
    let agree = da & db & !(va ^ vb);
    let def = (db & za) | (da & zb) | agree;
    let z = za & zb;
    let v = (vb & za) | (va & zb) | (va & agree);
    (v & def, m & !(def | z), z)
}

#[inline]
fn store(scratch: &mut LoweredScratch, masks: &[u64], out: u32, planes: NetPlanes, resolve: bool) {
    let o = out as usize;
    scratch.nets[o] = if resolve {
        resolve_planes(masks[o], scratch.nets[o], planes)
    } else {
        planes
    };
}

/// Ternary truth-table lookup, the one enumeration of both lowered
/// engines. It mirrors `Prim::eval_comb` bit for bit: the same LSB-first
/// index assembly over the `(net, width)` inputs, the same `MAX_X_ENUM`
/// give-up. `word(net, width)` reads a net as its value bits and its
/// undefined bits. Returns the output bits that are 1, and those that
/// are 0, under every enumerated index; both are empty past the cap (all
/// X).
fn table_lookup(
    ins: &[(u32, u32)],
    table: &[u64],
    mask: u64,
    word: impl Fn(usize, u32) -> (u64, u64),
) -> (u64, u64) {
    let mut known: u64 = 0;
    let mut x_positions = [0u32; MAX_X_ENUM];
    let mut n_x = 0;
    let mut bit_pos = 0u32;
    for &(net, width) in ins {
        let (value, undef) = word(net as usize, width);
        for i in 0..width {
            if undef >> i & 1 == 1 {
                if n_x == MAX_X_ENUM {
                    return (0, 0);
                }
                x_positions[n_x] = bit_pos;
                n_x += 1;
            } else if value >> i & 1 == 1 {
                known |= 1 << bit_pos;
            }
            bit_pos += 1;
        }
    }
    let x_positions = &x_positions[..n_x];
    let mut ones = mask;
    let mut zeros = mask;
    for combo in 0..(1u64 << n_x) {
        let mut index = known;
        for (i, &pos) in x_positions.iter().enumerate() {
            if combo >> i & 1 == 1 {
                index |= 1 << pos;
            }
        }
        let word = table[index as usize];
        ones &= word;
        zeros &= !word;
    }
    (ones, zeros)
}

/// Ternary truth-table evaluation on raw planes ([`table_lookup`]).
fn eval_table(ins: &[(u32, u32)], table: &[u64], mask: u64, nets: &[NetPlanes]) -> NetPlanes {
    let (ones, zeros) = table_lookup(ins, table, mask, |n, _| {
        let (v, u, z) = nets[n];
        (v, u | z)
    });
    (ones, mask & !(ones | zeros), 0)
}

/// Executes one op against the scratch planes.
#[inline]
fn exec_op(op: &LoweredOp, prog: &LoweredProgram, s: &mut LoweredScratch) {
    let masks = &prog.masks;
    let nets = &s.nets;
    let planes = match op {
        LoweredOp::Const { v, u, z, .. } => (*v, *u, *z),
        LoweredOp::Buf { a, .. } => nets[*a as usize],
        LoweredOp::Not { a, out, .. } => {
            let (va, ua, za) = nets[*a as usize];
            let m = masks[*out as usize];
            if (ua | za) & m != 0 {
                (0, m, 0)
            } else {
                (!va & m, 0, 0)
            }
        }
        LoweredOp::Gate { op, a, b, out, .. } => {
            let (va, ua, za) = nets[*a as usize];
            let (vb, ub, zb) = nets[*b as usize];
            let m = masks[*out as usize];
            let da = m & !(ua | za);
            let db = m & !(ub | zb);
            match op {
                GateOp::And => {
                    let one = va & vb;
                    let zero = (da & !va) | (db & !vb);
                    (one, m & !(one | zero & m), 0)
                }
                GateOp::Or => {
                    let one = (va | vb) & m;
                    let zero = da & !va & db & !vb;
                    (one, m & !(one | zero), 0)
                }
                GateOp::Xor => {
                    let dd = da & db;
                    ((va ^ vb) & dd, m & !dd, 0)
                }
            }
        }
        LoweredOp::ReduceOr { a, .. } => {
            let ai = *a as usize;
            let (va, ua, za) = nets[ai];
            let am = masks[ai];
            if va & am != 0 {
                (1, 0, 0)
            } else if (ua | za) & am != 0 {
                (0, 1, 0)
            } else {
                (0, 0, 0)
            }
        }
        LoweredOp::ReduceAnd { a, .. } => {
            let ai = *a as usize;
            let (va, ua, za) = nets[ai];
            let am = masks[ai];
            let da = am & !(ua | za);
            if da & !va != 0 {
                (0, 0, 0)
            } else if (ua | za) & am != 0 {
                (0, 1, 0)
            } else {
                (1, 0, 0)
            }
        }
        LoweredOp::Add { a, b, out, .. } => {
            let (va, ua, za) = nets[*a as usize];
            let (vb, ub, zb) = nets[*b as usize];
            let m = masks[*out as usize];
            if (ua | za | ub | zb) & m != 0 {
                (0, m, 0)
            } else {
                (va.wrapping_add(vb) & m, 0, 0)
            }
        }
        LoweredOp::Sub { a, b, out, .. } => {
            let (va, ua, za) = nets[*a as usize];
            let (vb, ub, zb) = nets[*b as usize];
            let m = masks[*out as usize];
            if (ua | za | ub | zb) & m != 0 {
                (0, m, 0)
            } else {
                (va.wrapping_sub(vb) & m, 0, 0)
            }
        }
        LoweredOp::Inc { a, out, .. } => {
            let (va, ua, za) = nets[*a as usize];
            let m = masks[*out as usize];
            if (ua | za) & m != 0 {
                (0, m, 0)
            } else {
                (va.wrapping_add(1) & m, 0, 0)
            }
        }
        LoweredOp::Cmp { kind, a, b, .. } => {
            let ai = *a as usize;
            let (va, ua, za) = nets[ai];
            let (vb, ub, zb) = nets[*b as usize];
            if (ua | za | ub | zb) & masks[ai] != 0 {
                (0, 1, 0)
            } else {
                let y = match kind {
                    CmpKind::Eq => va == vb,
                    CmpKind::Ne => va != vb,
                    CmpKind::Lt => va < vb,
                    CmpKind::Ge => va >= vb,
                };
                (u64::from(y), 0, 0)
            }
        }
        LoweredOp::Mux { sel, ins, out, .. } => {
            let si = *sel as usize;
            let (vs, us, zs) = nets[si];
            let m = masks[*out as usize];
            if (us | zs) & masks[si] != 0 {
                (0, m, 0)
            } else {
                ins.get(vs as usize)
                    .map_or((0, m, 0), |&n| nets[n as usize])
            }
        }
        LoweredOp::Slice { a, low, out, .. } => {
            let (va, ua, za) = nets[*a as usize];
            let m = masks[*out as usize];
            (va >> low & m, ua >> low & m, za >> low & m)
        }
        LoweredOp::Concat { ins, .. } => {
            let (mut v, mut u, mut z) = (0u64, 0u64, 0u64);
            for &(n, w) in ins {
                let (vn, un, zn) = nets[n as usize];
                v = v << w | vn;
                u = u << w | un;
                z = z << w | zn;
            }
            (v, u, z)
        }
        LoweredOp::Table {
            ins, table, out, ..
        } => eval_table(ins, table, masks[*out as usize], nets),
        LoweredOp::TriBuf { en, a, out, .. } => {
            let (ve, ue, ze) = nets[*en as usize];
            if (ue | ze) & 1 != 0 {
                (0, masks[*out as usize], 0)
            } else if ve & 1 == 1 {
                nets[*a as usize]
            } else {
                (0, 0, masks[*out as usize])
            }
        }
    };
    let (out, resolve) = op.output();
    store(s, masks, out, planes, resolve);
}

/// Latches the `In`-port values `read` returns into their nets and
/// reports whether the op walk must run: not when neither the inputs nor
/// the sequential state changed since the last walk (the input memo), in
/// which case the planes already hold this settle.
pub(crate) fn latch_inputs(
    prog: &LoweredProgram,
    scratch: &mut LoweredScratch,
    read: impl Fn(SignalId) -> Result<LogicVector, SimError>,
) -> Result<bool, SimError> {
    let mut changed = scratch.dirty;
    for &(net, signal) in &prog.in_ports {
        let planes = match read(signal) {
            Ok(value) => value.raw_masks(),
            Err(e) => {
                // Ports latched so far have had no walk: force one.
                scratch.dirty = true;
                return Err(e);
            }
        };
        let latched = &mut scratch.nets[net as usize];
        if *latched != planes {
            *latched = planes;
            changed = true;
        }
    }
    Ok(changed)
}

/// The walk of one lowered settle, once the `In` ports are latched:
/// presents sequential outputs (the interpreter's own `seq_outputs`),
/// pre-releases the shared tri-state nets, replays the op stream and
/// marks the component as settled on its planes. Returns the number of
/// word ops executed.
///
/// The outputs are presented only while the scratch is `dirty`, the
/// one state in which the sequential state may have moved since the
/// planes last showed it (an edge, a fallback, a fresh unit). A
/// validated netlist drives each sequential output net from its cell
/// alone, so nothing else writes those planes in between.
pub(crate) fn exec_walk(
    prog: &LoweredProgram,
    scratch: &mut LoweredScratch,
    comp: &mut NetlistComponent,
) -> u64 {
    if scratch.dirty {
        for &ci in comp.seq_cells() {
            comp.seq_outputs(ci, |net, value| scratch.nets[net] = value.raw_masks());
        }
    }
    for &n in &prog.shared_z {
        let n = n as usize;
        scratch.nets[n] = (0, 0, prog.masks[n]);
    }
    // The flat op walk — the hot loop.
    for op in &prog.ops {
        exec_op(op, prog, scratch);
    }
    // The planes now hold every settled net, sequential inputs
    // included: the next clock edge samples them there.
    comp.mark_lowered_settle();
    scratch.dirty = false;
    #[cfg(test)]
    {
        scratch.walks += 1;
    }
    prog.ops.len() as u64
}

/// Settles one lowered component on its planes alone: latches the `In`
/// ports from `read` and walks unless the input memo hits. Nothing is
/// written back into the interpreter: the planes stay the settled state
/// until the next interpreted eval, and the clock edge reads them
/// through [`Planes`]. Returns the number of word ops executed (`0` on
/// a memo hit). The `Out` ports are the caller's: the rank walk drives
/// them onto the bus ([`exec_settle`]); a simulator whose one
/// component is this unit stores them on the bus directly.
///
/// The input memo holds only while the planes are the component's
/// settled state: once an interpreted eval has run (a fallback settle,
/// a mode switch, a reset), the next settle presents and walks in full.
pub(crate) fn settle_planes(
    prog: &LoweredProgram,
    scratch: &mut LoweredScratch,
    comp: &mut NetlistComponent,
    read: impl Fn(SignalId) -> Result<LogicVector, SimError>,
) -> Result<u64, SimError> {
    if !comp.planes_current() {
        scratch.dirty = true;
    }
    Ok(if latch_inputs(prog, scratch, read)? {
        exec_walk(prog, scratch, comp)
    } else {
        0
    })
}

/// Settles one lowered component against the live bus on the rank
/// walk: the drop-in replacement for `NetlistComponent::eval`. It is
/// [`settle_planes`] with its port I/O on `bus` — phase for phase the
/// interpreter's `eval_full`, on flat planes. The `Out` ports are
/// driven on every wake, memo hit or not, like the interpreter, so
/// shared-bus resolution sees every driver's contribution. Returns the
/// number of word ops executed.
pub(crate) fn exec_settle(
    prog: &LoweredProgram,
    scratch: &mut LoweredScratch,
    comp: &mut NetlistComponent,
    bus: &mut SignalBus,
) -> Result<u64, SimError> {
    let ops = settle_planes(prog, scratch, comp, |signal| bus.read(signal))?;
    for &(net, signal) in &prog.out_ports {
        bus.drive(signal, Planes(prog, scratch).value(net as usize))?;
    }
    Ok(ops)
}

impl LoweredProgram {
    /// The front end both back ends share. It lowers the netlist alone:
    /// net masks, the combinational topological order, the count of
    /// combinational drivers per net (behind `shared_z` and `resolve`)
    /// and the one `Prim` → [`LoweredOp`] match. The ports stay unbound:
    /// [`LoweredProgram::try_lower`] binds them for the scalar back end,
    /// and [`LaneBatch`] runs the ops over bit columns.
    fn lower_netlist(netlist: &Netlist) -> Result<Self, HdlError> {
        let nets = netlist.nets();
        let masks: Vec<u64> = nets.iter().map(|n| width_mask(n.width())).collect();
        let topo = netlist.comb_topo_order()?;

        // Count combinational drivers per net to find shared
        // (tri-state) nets, which are pre-released and resolve-folded.
        let mut comb_drivers = vec![0u32; nets.len()];
        for cell in netlist.cells() {
            if cell.prim().is_sequential() {
                continue;
            }
            for out in cell.outputs() {
                comb_drivers[out.index()] += 1;
            }
        }
        let shared_z: Vec<u32> = comb_drivers
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 1)
            .map(|(n, _)| n as u32)
            .collect();

        let mut ops = Vec::with_capacity(topo.len());
        for &ci in &topo {
            let cell = netlist.cell(ci);
            let ins = cell.inputs();
            let outs = cell.outputs();
            let out = outs[0].index() as u32;
            let resolve = comb_drivers[outs[0].index()] > 1;
            let op = match cell.prim() {
                Prim::Const { value } => {
                    let (v, u, z) = value.raw_masks();
                    LoweredOp::Const {
                        out,
                        v,
                        u,
                        z,
                        resolve,
                    }
                }
                Prim::Buf { .. } => LoweredOp::Buf {
                    a: ins[0].index() as u32,
                    out,
                    resolve,
                },
                Prim::Not { .. } => LoweredOp::Not {
                    a: ins[0].index() as u32,
                    out,
                    resolve,
                },
                Prim::Gate { op, .. } => LoweredOp::Gate {
                    op: *op,
                    a: ins[0].index() as u32,
                    b: ins[1].index() as u32,
                    out,
                    resolve,
                },
                Prim::ReduceOr { .. } => LoweredOp::ReduceOr {
                    a: ins[0].index() as u32,
                    out,
                    resolve,
                },
                Prim::ReduceAnd { .. } => LoweredOp::ReduceAnd {
                    a: ins[0].index() as u32,
                    out,
                    resolve,
                },
                Prim::Add { .. } => LoweredOp::Add {
                    a: ins[0].index() as u32,
                    b: ins[1].index() as u32,
                    out,
                    resolve,
                },
                Prim::Sub { .. } => LoweredOp::Sub {
                    a: ins[0].index() as u32,
                    b: ins[1].index() as u32,
                    out,
                    resolve,
                },
                Prim::Inc { .. } => LoweredOp::Inc {
                    a: ins[0].index() as u32,
                    out,
                    resolve,
                },
                Prim::Cmp { kind, .. } => LoweredOp::Cmp {
                    kind: *kind,
                    a: ins[0].index() as u32,
                    b: ins[1].index() as u32,
                    out,
                    resolve,
                },
                Prim::Mux { .. } => LoweredOp::Mux {
                    sel: ins[0].index() as u32,
                    ins: ins[1..].iter().map(|n| n.index() as u32).collect(),
                    out,
                    resolve,
                },
                Prim::Slice { low, .. } => LoweredOp::Slice {
                    a: ins[0].index() as u32,
                    low: *low as u8,
                    out,
                    resolve,
                },
                Prim::Concat { .. } => LoweredOp::Concat {
                    ins: ins
                        .iter()
                        .map(|n| (n.index() as u32, nets[n.index()].width() as u32))
                        .collect(),
                    out,
                    resolve,
                },
                Prim::TruthTable { table, .. } => LoweredOp::Table {
                    // eval_comb assembles the index LSB-first from the
                    // reversed pin list.
                    ins: ins
                        .iter()
                        .rev()
                        .map(|n| (n.index() as u32, nets[n.index()].width() as u32))
                        .collect(),
                    table: table.clone(),
                    out,
                    resolve,
                },
                Prim::TriBuf { .. } => LoweredOp::TriBuf {
                    en: ins[0].index() as u32,
                    a: ins[1].index() as u32,
                    out,
                    resolve,
                },
                Prim::Reg { .. }
                | Prim::BlockRam { .. }
                | Prim::FifoMacro { .. }
                | Prim::LifoMacro { .. } => continue,
            };
            ops.push(op);
        }

        Ok(Self {
            masks,
            shared_z,
            ops,
            in_ports: Vec::new(),
            out_ports: Vec::new(),
        })
    }

    /// Lowers a validated netlist plus its port wiring into an op
    /// stream: the shared front end, then the scalar back end's port
    /// binding. Infallible for anything `NetlistComponent` accepts —
    /// the component has already rejected inout ports and
    /// combinational cycles — but returns a reason string for shapes
    /// that cannot be lowered so callers can fall back and report.
    pub(crate) fn try_lower(
        netlist: &Netlist,
        port_wiring: &[(String, PortDir, hdp_hdl::NetId, SignalId)],
    ) -> Result<Self, String> {
        let mut prog =
            Self::lower_netlist(netlist).map_err(|e| format!("combinational cycle: {e}"))?;
        for (_, dir, net, signal) in port_wiring {
            let port = (net.index() as u32, *signal);
            match dir {
                PortDir::In => prog.in_ports.push(port),
                PortDir::Out => {
                    // Two drives of one signal in one settle resolve on
                    // the bus; a lone unit on the direct path stores
                    // its ports instead, so it must own each signal.
                    if prog.out_ports.iter().any(|&(_, s)| s == *signal) {
                        return Err("two `Out` ports drive one signal".into());
                    }
                    prog.out_ports.push(port);
                }
                PortDir::InOut => return Err("inout port cannot be lowered".into()),
            }
        }
        Ok(prog)
    }

    /// Rough resident bytes of the program: each backing vector's
    /// element count times its element size.
    pub(crate) fn estimate_bytes(&self) -> u64 {
        let bytes = std::mem::size_of::<Self>()
            + self.masks.len() * std::mem::size_of::<u64>()
            + self.shared_z.len() * std::mem::size_of::<u32>()
            + self.ops.len() * std::mem::size_of::<LoweredOp>()
            + (self.in_ports.len() + self.out_ports.len()) * std::mem::size_of::<(u32, SignalId)>();
        bytes as u64
    }
}

// ---------------------------------------------------------------------
// 64-way bit-parallel lane engine
// ---------------------------------------------------------------------

/// All-ones when bit 0 of `bit` is set, else zero: one bit broadcast to
/// every lane of a column.
fn splat(bit: u64) -> u64 {
    (bit & 1).wrapping_neg()
}

/// The lane engine's nets: one `val`/`def` (value, defined) column pair
/// per net bit, bit `k` of each column belonging to lane `k`. Net `n`
/// occupies its width in columns from `base[n]`. There is no Z plane:
/// [`LaneBatch::new`] refuses every source of Z.
#[derive(Debug, Clone)]
struct Columns {
    val: Vec<u64>,
    def: Vec<u64>,
    base: Vec<u32>,
}

/// Lane `lane` of the `w` columns from `b`, as value and undefined bits.
fn gather(val: &[u64], def: &[u64], b: usize, w: usize, lane: usize) -> (u64, u64) {
    let (mut v, mut u) = (0u64, 0u64);
    for i in 0..w {
        v |= (val[b + i] >> lane & 1) << i;
        u |= (!def[b + i] >> lane & 1) << i;
    }
    (v, u)
}

impl Columns {
    /// Writes `value` into lane `lane` of net `net`.
    fn scatter(&mut self, net: usize, lane: usize, value: LogicVector) {
        let (v, u, z) = value.raw_masks();
        let b = self.base[net] as usize;
        let m = !(1u64 << lane);
        for i in 0..value.width() {
            self.val[b + i] = self.val[b + i] & m | (v >> i & 1) << lane;
            self.def[b + i] = self.def[b + i] & m | (!(u | z) >> i & 1) << lane;
        }
    }
}

/// One lane of the columns, read as the inputs of the interpreter's
/// clock edge.
struct Lane<'a> {
    cols: &'a Columns,
    masks: &'a [u64],
    lane: usize,
}

impl Lane<'_> {
    /// The width of `net` and this lane's value and undefined bits of it.
    fn bits(&self, net: usize) -> (usize, u64, u64) {
        let w = self.masks[net].count_ones() as usize;
        let c = self.cols;
        let (v, u) = gather(&c.val, &c.def, c.base[net] as usize, w, self.lane);
        (w, v, u)
    }
}

impl EdgeInputs for Lane<'_> {
    fn value(&self, net: usize) -> LogicVector {
        let (w, v, u) = self.bits(net);
        LogicVector::from_raw_masks(w, v, u, 0).expect("valid width")
    }

    fn word(&self, net: usize) -> Option<u64> {
        let (_, v, u) = self.bits(net);
        (u == 0).then_some(v)
    }
}

/// Executes one op of the front end's stream over bit columns: 64 lanes
/// at once, with the X semantics of [`exec_op`] per lane. `resolve` is
/// always false here and `TriBuf` never occurs ([`LaneBatch::new`]
/// refuses shared nets and tri-state buffers).
#[allow(clippy::too_many_lines)]
fn exec_lane_op(op: &LoweredOp, masks: &[u64], cols: &mut Columns) {
    let Columns { val, def, base } = cols;
    let col = |n: u32| base[n as usize] as usize;
    let width = |n: u32| masks[n as usize].count_ones() as usize;
    // Lanes with any undefined bit in the `w` columns at `a`.
    let undef = |def: &[u64], a: usize, w: usize| def[a..a + w].iter().fold(0, |p, d| p | !d);
    match op {
        LoweredOp::Const { out, v, u, .. } => {
            let o = col(*out);
            for i in 0..width(*out) {
                val[o + i] = splat(v >> i);
                def[o + i] = !splat(u >> i);
            }
        }
        LoweredOp::Buf { a, out, .. } => {
            let (a, o, w) = (col(*a), col(*out), width(*out));
            val.copy_within(a..a + w, o);
            def.copy_within(a..a + w, o);
        }
        LoweredOp::Slice { a, low, out, .. } => {
            let (a, o, w) = (col(*a) + *low as usize, col(*out), width(*out));
            val.copy_within(a..a + w, o);
            def.copy_within(a..a + w, o);
        }
        LoweredOp::Concat { ins, out, .. } => {
            // MSB-first pins: the first input occupies the top columns.
            let mut top = col(*out) + width(*out);
            for &(n, w) in ins {
                let (a, w) = (col(n), w as usize);
                top -= w;
                val.copy_within(a..a + w, top);
                def.copy_within(a..a + w, top);
            }
        }
        LoweredOp::Not { a, out, .. } => {
            let (a, o, w) = (col(*a), col(*out), width(*out));
            let pois = undef(def, a, w);
            for i in 0..w {
                def[o + i] = !pois;
                val[o + i] = !val[a + i] & !pois;
            }
        }
        LoweredOp::Gate { op, a, b, out, .. } => {
            let (a, b, o) = (col(*a), col(*b), col(*out));
            for i in 0..width(*out) {
                let (va, da) = (val[a + i], def[a + i]);
                let (vb, db) = (val[b + i], def[b + i]);
                let (v, d) = match op {
                    GateOp::And => {
                        let one = va & vb;
                        (one, one | (da & !va) | (db & !vb))
                    }
                    GateOp::Or => {
                        let one = va | vb;
                        (one, one | (da & !va & db & !vb))
                    }
                    GateOp::Xor => {
                        let dd = da & db;
                        ((va ^ vb) & dd, dd)
                    }
                };
                val[o + i] = v;
                def[o + i] = d;
            }
        }
        LoweredOp::ReduceOr { a, out, .. } => {
            let (a, o, w) = (col(*a), col(*out), width(*a));
            let one = val[a..a + w].iter().fold(0, |p, v| p | v);
            val[o] = one;
            def[o] = one | !undef(def, a, w);
        }
        LoweredOp::ReduceAnd { a, out, .. } => {
            let (a, o, w) = (col(*a), col(*out), width(*a));
            let zero = (a..a + w).fold(0, |p, c| p | def[c] & !val[c]);
            let alldef = !undef(def, a, w);
            val[o] = alldef & !zero;
            def[o] = zero | alldef;
        }
        LoweredOp::Add { a, b, out, .. } | LoweredOp::Sub { a, b, out, .. } => {
            // Ripple carry across the columns; a - b is a + !b + 1.
            let sub = matches!(op, LoweredOp::Sub { .. });
            let (a, b, o, w) = (col(*a), col(*b), col(*out), width(*out));
            let pois = undef(def, a, w) | undef(def, b, w);
            let inv = splat(u64::from(sub));
            let mut carry = inv;
            for i in 0..w {
                let (va, vb) = (val[a + i], val[b + i] ^ inv);
                val[o + i] = (va ^ vb ^ carry) & !pois;
                def[o + i] = !pois;
                carry = (va & vb) | (carry & (va ^ vb));
            }
        }
        LoweredOp::Inc { a, out, .. } => {
            let (a, o, w) = (col(*a), col(*out), width(*out));
            let pois = undef(def, a, w);
            let mut carry = u64::MAX;
            for i in 0..w {
                let va = val[a + i];
                val[o + i] = (va ^ carry) & !pois;
                def[o + i] = !pois;
                carry &= va;
            }
        }
        LoweredOp::Cmp {
            kind, a, b, out, ..
        } => {
            let (a, b, o, w) = (col(*a), col(*b), col(*out), width(*a));
            let pois = undef(def, a, w) | undef(def, b, w);
            let y = match kind {
                CmpKind::Eq | CmpKind::Ne => {
                    let eq = (0..w).fold(u64::MAX, |eq, i| eq & !(val[a + i] ^ val[b + i]));
                    if *kind == CmpKind::Eq {
                        eq
                    } else {
                        !eq
                    }
                }
                CmpKind::Lt | CmpKind::Ge => {
                    let (mut lt, mut decided) = (0u64, 0u64);
                    for i in (0..w).rev() {
                        let diff = val[a + i] ^ val[b + i];
                        lt |= diff & !decided & !val[a + i];
                        decided |= diff;
                    }
                    if *kind == CmpKind::Lt {
                        lt
                    } else {
                        !lt
                    }
                }
            };
            val[o] = y & !pois;
            def[o] = !pois;
        }
        LoweredOp::Mux { sel, ins, out, .. } => {
            let (s, sw, o, w) = (col(*sel), width(*sel), col(*out), width(*out));
            let sd = !undef(def, s, sw);
            val[o..o + w].fill(0);
            def[o..o + w].fill(0);
            for (j, &n) in ins.iter().enumerate() {
                // Lanes whose (defined) select equals j.
                let eq = (0..sw).fold(sd, |eq, i| eq & !(val[s + i] ^ splat((j >> i) as u64)));
                if eq == 0 {
                    continue;
                }
                let a = col(n);
                for i in 0..w {
                    val[o + i] |= eq & val[a + i];
                    def[o + i] |= eq & def[a + i];
                }
            }
        }
        LoweredOp::Table {
            ins, table, out, ..
        } => {
            let (o, w) = (col(*out), width(*out));
            let mask = masks[*out as usize];
            let (mut out_v, mut out_d) = ([0u64; 64], [0u64; 64]);
            for lane in 0..LANES {
                let word = |n: usize, w: u32| gather(val, def, base[n] as usize, w as usize, lane);
                let (ones, zeros) = table_lookup(ins, table, mask, word);
                for i in 0..w {
                    out_v[i] |= (ones >> i & 1) << lane;
                    out_d[i] |= ((ones | zeros) >> i & 1) << lane;
                }
            }
            val[o..o + w].copy_from_slice(&out_v[..w]);
            def[o..o + w].copy_from_slice(&out_d[..w]);
        }
        LoweredOp::TriBuf { .. } => unreachable!("LaneBatch::new refuses tri-state buffers"),
    }
}

/// A register of a [`LaneBatch`], the lane engine's speed path: its
/// state is lane-packed like the nets, so presenting it and clocking it
/// are masked column copies.
#[derive(Debug, Clone)]
struct LaneReg {
    /// First columns of the `d` input, the enable (if any) and `q`.
    d: usize,
    en: Option<usize>,
    q: usize,
    reset_value: u64,
    /// State columns (value, defined), one per bit.
    val: Vec<u64>,
    def: Vec<u64>,
}

/// A 64-way bit-parallel simulation of one design: 64 independent
/// stimulus lanes packed one-per-bit into u64 columns, advanced by a
/// single lowered settle per delta and a single tick per clock edge.
///
/// The combinational half is the scalar lowered engine's op stream (one
/// front end, `LoweredProgram`) executed over bit columns. Registers
/// keep lane-packed column state; block RAMs, FIFOs and LIFOs keep the
/// interpreter's state once per lane and tick through its clock edge, so
/// a macro behaves, and fails, exactly as in the scalar engines.
///
/// The engine covers exactly the designs whose four-state behaviour it
/// can reproduce bit for bit with a value/defined column pair:
/// tri-state primitives, shared (multiply-driven) nets, `inout` ports
/// and high-Z constants are rejected by [`LaneBatch::new`] — such
/// designs keep the scalar path. X propagation (undefined arithmetic
/// poisoning, mux select poisoning, truth-table ternary enumeration)
/// follows `Prim::eval_comb` exactly, per lane.
///
/// Protocol: poke input ports ([`LaneBatch::poke`]), [`LaneBatch::settle`],
/// read settled outputs ([`LaneBatch::peek`]), then [`LaneBatch::tick`]
/// for the clock edge — the same cycle discipline as [`crate::Simulator`].
#[derive(Debug, Clone)]
pub struct LaneBatch {
    name: String,
    netlist: Netlist,
    /// The front end's program, ports unbound.
    prog: LoweredProgram,
    cols: Columns,
    regs: Vec<LaneReg>,
    /// Block RAM, FIFO and LIFO cells, in cell order.
    macros: Vec<usize>,
    /// Per lane, the interpreter's state of every macro (`None` for
    /// every other cell).
    lane_state: Vec<Vec<SeqState>>,
    in_ports: Vec<(String, usize, usize)>,
    out_ports: Vec<(String, usize, usize)>,
    settles: u64,
}

impl LaneBatch {
    /// Compiles a validated netlist into a lane-packed column program.
    ///
    /// # Errors
    ///
    /// [`SimError::Protocol`] when the design cannot be lane-packed
    /// exactly: tri-state primitives, multiply-driven nets, `inout`
    /// ports, high-Z constants, a combinational cycle, or a second
    /// clock domain (lanes advance every lane on one shared edge).
    pub fn new(name: impl Into<String>, netlist: &Netlist) -> Result<Self, SimError> {
        let name = name.into();
        let refuse = |what: String| SimError::Protocol {
            component: name.clone(),
            message: format!("lane packing refused: {what}"),
        };
        if netlist.is_multi_domain() {
            let culprit = netlist
                .cell_domains()
                .iter()
                .position(|&d| d != 0)
                .map_or_else(
                    || format!("domain `{}` is declared", netlist.domains()[1].name()),
                    |ci| {
                        format!(
                            "cell `{}` is clocked by domain `{}`",
                            netlist.cells()[ci].name(),
                            netlist.domains()[netlist.cell_domains()[ci]].name()
                        )
                    },
                );
            return Err(refuse(format!(
                "{culprit} (lanes share one clock edge; multi-domain designs need the \
                 scalar scheduler)"
            )));
        }
        let prog = LoweredProgram::lower_netlist(netlist).map_err(|e| refuse(e.to_string()))?;
        let nets = netlist.nets();
        if let Some(&n) = prog.shared_z.first() {
            return Err(refuse(format!(
                "net `{}` has multiple drivers (tri-state bus)",
                nets[n as usize].name()
            )));
        }
        for cell in netlist.cells() {
            match cell.prim() {
                Prim::TriBuf { .. } => {
                    return Err(refuse(format!("tri-state buffer `{}`", cell.name())));
                }
                Prim::Const { value } if value.raw_masks().2 != 0 => {
                    return Err(refuse(format!(
                        "constant `{}` drives high-Z bits",
                        cell.name()
                    )));
                }
                _ => {}
            }
        }
        let mut in_ports = Vec::new();
        let mut out_ports = Vec::new();
        for binding in netlist.bindings() {
            let dir = netlist
                .entity()
                .port(binding.port())
                .expect("binding validated against entity")
                .dir();
            let net = binding.net().index();
            let entry = (binding.port().to_owned(), net, nets[net].width());
            match dir {
                PortDir::In => in_ports.push(entry),
                PortDir::Out => out_ports.push(entry),
                PortDir::InOut => {
                    return Err(refuse(format!("inout port `{}`", binding.port())));
                }
            }
        }

        let mut base = Vec::with_capacity(nets.len());
        let mut n_cols = 0u32;
        for net in nets {
            base.push(n_cols);
            n_cols += net.width() as u32;
        }
        let col = |n: NetId| base[n.index()] as usize;
        let mut regs = Vec::new();
        let mut state = Vec::with_capacity(netlist.cells().len());
        for cell in netlist.cells() {
            if let Prim::Reg {
                width,
                has_enable,
                reset_value,
            } = *cell.prim()
            {
                let (ins, outs) = (cell.inputs(), cell.outputs());
                regs.push(LaneReg {
                    d: col(ins[0]),
                    en: has_enable.then(|| col(ins[1])),
                    q: col(outs[0]),
                    reset_value,
                    val: vec![0; width],
                    def: vec![0; width],
                });
                state.push(SeqState::None);
            } else {
                state.push(SeqState::new(cell.prim()));
            }
        }
        let macros = (0..state.len())
            .filter(|&ci| !matches!(state[ci], SeqState::None))
            .collect();
        Ok(Self {
            name,
            netlist: netlist.clone(),
            prog,
            cols: Columns {
                val: vec![0; n_cols as usize],
                def: vec![0; n_cols as usize],
                base,
            },
            regs,
            macros,
            lane_state: vec![state; LANES],
            in_ports,
            out_ports,
            settles: 0,
        })
    }

    /// The engine's instance name (used in protocol errors).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Input port names, in binding order.
    #[must_use]
    pub fn input_ports(&self) -> Vec<&str> {
        self.in_ports.iter().map(|(n, _, _)| n.as_str()).collect()
    }

    /// Output port names, in binding order.
    #[must_use]
    pub fn output_ports(&self) -> Vec<&str> {
        self.out_ports.iter().map(|(n, _, _)| n.as_str()).collect()
    }

    /// Settles run since construction (one per [`LaneBatch::settle`]).
    #[must_use]
    pub fn settles(&self) -> u64 {
        self.settles
    }

    fn protocol(&self, message: String) -> SimError {
        SimError::Protocol {
            component: self.name.clone(),
            message,
        }
    }

    /// The net and width of input port `port`, after checking that
    /// `value` fits it.
    fn find_in(&self, port: &str, value: u64) -> Result<(usize, usize), SimError> {
        let &(_, net, w) = self
            .in_ports
            .iter()
            .find(|(n, _, _)| n == port)
            .ok_or_else(|| self.protocol(format!("unknown input port `{port}`")))?;
        if w < 64 && value >> w != 0 {
            return Err(self.protocol(format!("value {value:#x} exceeds {w}-bit port `{port}`")));
        }
        Ok((net, w))
    }

    fn check_lane(&self, lane: usize) -> Result<(), SimError> {
        if lane < LANES {
            Ok(())
        } else {
            Err(self.protocol(format!("lane {lane} out of range")))
        }
    }

    /// Drives a defined value on an input port of one lane. The value
    /// persists until the next poke, like a simulator poke.
    ///
    /// # Errors
    ///
    /// [`SimError::Protocol`] for an unknown port, lane or oversized
    /// value.
    pub fn poke(&mut self, port: &str, lane: usize, value: u64) -> Result<(), SimError> {
        let (net, w) = self.find_in(port, value)?;
        self.check_lane(lane)?;
        let value = LogicVector::from_u64(value, w).expect("checked to fit");
        self.cols.scatter(net, lane, value);
        Ok(())
    }

    /// Drives the same defined value on an input port of every lane.
    ///
    /// # Errors
    ///
    /// As [`LaneBatch::poke`].
    pub fn poke_all(&mut self, port: &str, value: u64) -> Result<(), SimError> {
        let (net, w) = self.find_in(port, value)?;
        let b = self.cols.base[net] as usize;
        for i in 0..w {
            self.cols.val[b + i] = splat(value >> i);
            self.cols.def[b + i] = u64::MAX;
        }
        Ok(())
    }

    /// Reads the settled four-state value of an output (or input) port
    /// in one lane.
    ///
    /// # Errors
    ///
    /// [`SimError::Protocol`] for an unknown port or lane.
    pub fn peek(&self, port: &str, lane: usize) -> Result<LogicVector, SimError> {
        let &(_, net, _) = self
            .out_ports
            .iter()
            .chain(self.in_ports.iter())
            .find(|(n, _, _)| n == port)
            .ok_or_else(|| self.protocol(format!("unknown port `{port}`")))?;
        self.check_lane(lane)?;
        Ok(self.lane(lane).value(net))
    }

    fn lane(&self, lane: usize) -> Lane<'_> {
        Lane {
            cols: &self.cols,
            masks: &self.prog.masks,
            lane,
        }
    }

    /// Restores power-on state in every lane: registers to their reset
    /// values, FIFOs/LIFOs empty, RAM read ports undefined. Poked
    /// inputs are cleared back to undefined.
    pub fn reset(&mut self) {
        self.cols.val.fill(0);
        self.cols.def.fill(0);
        for r in &mut self.regs {
            for (i, (v, d)) in r.val.iter_mut().zip(&mut r.def).enumerate() {
                *v = splat(r.reset_value >> i);
                *d = u64::MAX;
            }
        }
        for state in &mut self.lane_state {
            for (s, cell) in state.iter_mut().zip(self.netlist.cells()) {
                s.reset(cell.prim());
            }
        }
    }

    /// Settles all 64 lanes: presents sequential outputs and runs the
    /// op stream once in topological order (a feed-forward netlist
    /// needs exactly one sweep).
    pub fn settle(&mut self) {
        self.settles += 1;
        let cols = &mut self.cols;
        for r in &self.regs {
            let w = r.val.len();
            cols.val[r.q..r.q + w].copy_from_slice(&r.val);
            cols.def[r.q..r.q + w].copy_from_slice(&r.def);
        }
        for &ci in &self.macros {
            for (lane, state) in self.lane_state.iter().enumerate() {
                seq_outputs(&self.netlist, ci, &state[ci], |net, value| {
                    cols.scatter(net, lane, value);
                });
            }
        }
        // The hot loop: every op advances 64 lanes at once.
        for op in &self.prog.ops {
            exec_lane_op(op, &self.prog.masks, cols);
        }
    }

    /// Clock edge across all 64 lanes: samples settled values into
    /// sequential state, matching `NetlistComponent::tick` per lane.
    /// A protocol error is the interpreter's, suffixed with the lane;
    /// the first macro in cell order that fails reports its lowest
    /// failing lane.
    ///
    /// # Errors
    ///
    /// [`SimError::Protocol`] on FIFO/LIFO misuse or undefined RAM
    /// write strobes, exactly like the interpreter.
    pub fn tick(&mut self) -> Result<(), SimError> {
        for ci in &self.macros {
            for (lane, state) in self.lane_state.iter_mut().enumerate() {
                let inputs = Lane {
                    cols: &self.cols,
                    masks: &self.prog.masks,
                    lane,
                };
                let cell = std::slice::from_ref(ci);
                clock_edge(&self.name, &self.netlist, cell, state, &inputs, Firing::All).map_err(
                    |e| match e {
                        SimError::Protocol { component, message } => SimError::Protocol {
                            component,
                            message: format!("{message} (lane {lane})"),
                        },
                        e => e,
                    },
                )?;
            }
        }
        let (val, def) = (&self.cols.val, &self.cols.def);
        for r in &mut self.regs {
            // Load mask per lane: enable defined and 1 (or no enable
            // pin at all).
            let load = r.en.map_or(u64::MAX, |e| val[e] & def[e]);
            for i in 0..r.val.len() {
                r.val[i] = val[r.d + i] & load | r.val[i] & !load;
                r.def[i] = def[r.d + i] & load | r.def[i] & !load;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdp_hdl::{Bit, Entity, Netlist, PortDir};

    /// Builds a one-cell netlist `y = prim(a, b, ...)` with the given
    /// input widths, returning the netlist.
    fn one_cell(prim: Prim) -> Netlist {
        let in_w = prim.input_widths();
        let out_w = prim.output_widths();
        let mut b = Entity::builder("t");
        for (i, w) in in_w.iter().enumerate() {
            b = b.port(&format!("a{i}"), PortDir::In, *w).unwrap();
        }
        for (i, w) in out_w.iter().enumerate() {
            b = b.port(&format!("y{i}"), PortDir::Out, *w).unwrap();
        }
        let entity = b.build().unwrap();
        let mut nl = Netlist::new(entity);
        let ins: Vec<_> = in_w
            .iter()
            .enumerate()
            .map(|(i, w)| nl.add_net(format!("a{i}"), *w).unwrap())
            .collect();
        let outs: Vec<_> = out_w
            .iter()
            .enumerate()
            .map(|(i, w)| nl.add_net(format!("y{i}"), *w).unwrap())
            .collect();
        nl.add_cell("u", prim, ins.clone(), outs.clone()).unwrap();
        for (i, n) in ins.iter().enumerate() {
            nl.bind_port(&format!("a{i}"), *n).unwrap();
        }
        for (i, n) in outs.iter().enumerate() {
            nl.bind_port(&format!("y{i}"), *n).unwrap();
        }
        nl
    }

    /// Every four-state assignment of `width` bits (4^width vectors).
    fn all_vectors(width: usize) -> Vec<LogicVector> {
        let mut out = Vec::new();
        let n = 4usize.pow(width as u32);
        for code in 0..n {
            let mut v = LogicVector::unknown(width).unwrap();
            let mut c = code;
            for i in 0..width {
                let bit = match c % 4 {
                    0 => Bit::Zero,
                    1 => Bit::One,
                    2 => Bit::X,
                    _ => Bit::Z,
                };
                v.set(i, bit).unwrap();
                c /= 4;
            }
            out.push(v);
        }
        out
    }

    /// Golden check: the lowered op for `prim` must reproduce
    /// `eval_comb` on every four-state input combination.
    fn golden(prim: Prim) {
        let nl = one_cell(prim.clone());
        let wiring: Vec<(String, PortDir, hdp_hdl::NetId, SignalId)> = nl
            .bindings()
            .iter()
            .map(|b| {
                (
                    b.port().to_owned(),
                    nl.entity().port(b.port()).unwrap().dir(),
                    b.net(),
                    SignalId(0),
                )
            })
            .collect();
        let prog = LoweredProgram::try_lower(&nl, &wiring).unwrap();
        let in_w = prim.input_widths();
        let mut combos: Vec<Vec<LogicVector>> = vec![Vec::new()];
        for w in &in_w {
            let mut next = Vec::new();
            for c in &combos {
                for v in all_vectors(*w) {
                    let mut c = c.clone();
                    c.push(v);
                    next.push(c);
                }
            }
            combos = next;
        }
        let mut scratch = LoweredScratch::new(&prog);
        for combo in combos {
            // Write inputs straight into the input nets.
            for (k, v) in combo.iter().enumerate() {
                let (net, _) = prog.in_ports[k];
                scratch.nets[net as usize] = v.raw_masks();
            }
            for op in &prog.ops {
                exec_op(op, &prog, &mut scratch);
            }
            let expect = prim.eval_comb(&combo).unwrap();
            for (k, e) in expect.iter().enumerate() {
                let (net, _) = prog.out_ports[k];
                let (v, u, z) = scratch.nets[net as usize];
                let got = LogicVector::from_raw_masks(e.width(), v, u, z).unwrap();
                assert_eq!(got, *e, "{prim:?} on {combo:?}");
            }
        }
    }

    #[test]
    fn golden_buf_and_not() {
        golden(Prim::Buf { width: 2 });
        golden(Prim::Not { width: 2 });
    }

    #[test]
    fn golden_gates() {
        for op in [GateOp::And, GateOp::Or, GateOp::Xor] {
            golden(Prim::Gate { op, width: 2 });
        }
    }

    #[test]
    fn golden_reductions() {
        golden(Prim::ReduceOr { width: 2 });
        golden(Prim::ReduceAnd { width: 2 });
    }

    #[test]
    fn golden_arithmetic() {
        golden(Prim::Add { width: 2 });
        golden(Prim::Sub { width: 2 });
        golden(Prim::Inc { width: 3 });
    }

    #[test]
    fn golden_compares() {
        for kind in [CmpKind::Eq, CmpKind::Ne, CmpKind::Lt, CmpKind::Ge] {
            golden(Prim::Cmp { kind, width: 2 });
        }
    }

    #[test]
    fn golden_mux_slice_concat() {
        golden(Prim::Mux { width: 2, ways: 2 });
        golden(Prim::Slice {
            in_width: 3,
            low: 1,
            len: 2,
        });
        golden(Prim::Concat { widths: vec![2, 1] });
    }

    #[test]
    fn golden_truth_table() {
        golden(Prim::TruthTable {
            in_widths: vec![2, 1],
            out_width: 2,
            table: vec![0, 3, 1, 2, 2, 1, 3, 0],
        });
    }

    #[test]
    fn truth_table_gives_up_where_eval_comb_does() {
        // An 11-bit index: 9, 10 and 11 undefined bits straddle the
        // `MAX_X_ENUM` enumeration cap. A uniform table stays defined
        // exactly while the X bits are enumerated.
        let mixed: Vec<u64> = (0..2048u64).map(|i| ((i * 0x9E37) >> 5) & 0x7).collect();
        for table in [mixed, vec![5; 2048]] {
            let prim = Prim::TruthTable {
                in_widths: vec![6, 5],
                out_width: 3,
                table: table.clone(),
            };
            for n_x in [0, 1, 9, 10, 11] {
                let x = (1u64 << n_x) - 1;
                let known = 0b101_1010_0110u64 & !x;
                let hi = LogicVector::from_raw_masks(6, known >> 5, x >> 5, 0).unwrap();
                let lo = LogicVector::from_raw_masks(5, known, x, 0).unwrap();
                let expect = prim.eval_comb(&[hi, lo]).unwrap()[0];
                // Nets 0 (`hi`) and 1 (`lo`), pins LSB-first.
                let planes = [hi.raw_masks(), lo.raw_masks()];
                let (gv, gu, gz) = eval_table(&[(1, 5), (0, 6)], &table, 0x7, &planes);
                let got = LogicVector::from_raw_masks(3, gv, gu, gz).unwrap();
                assert_eq!(got, expect, "{n_x} X bits");
                if table[0] == 5 {
                    assert_eq!(got.to_u64().is_some(), n_x <= MAX_X_ENUM, "{n_x} X bits");
                }
                // The lane engine enumerates the same way: the X bits
                // are a port it never pokes.
                if n_x > 0 {
                    let mut lanes =
                        LaneBatch::new("pack", &table_behind_ports(&table, n_x)).unwrap();
                    lanes.reset();
                    lanes.poke_all("k", known >> n_x).unwrap();
                    lanes.settle();
                    for lane in [0, LANES - 1] {
                        let got = lanes.peek("y", lane).unwrap();
                        assert_eq!(got, expect, "{n_x} X bits, lane {lane}");
                    }
                }
            }
        }
    }

    /// `y = table(hi, lo)` over an 11-bit index `{hi, lo}`, the low 11
    /// bits of `{k, x}`: port `k` (`12 - n_x` bits) above port `x`
    /// (`n_x` bits).
    fn table_behind_ports(table: &[u64], n_x: usize) -> Netlist {
        let entity = Entity::builder("tt")
            .port("k", PortDir::In, 12 - n_x)
            .unwrap()
            .port("x", PortDir::In, n_x)
            .unwrap()
            .port("y", PortDir::Out, 3)
            .unwrap()
            .build()
            .unwrap();
        let mut nl = Netlist::new(entity);
        let k = nl.add_net("k", 12 - n_x).unwrap();
        let x = nl.add_net("x", n_x).unwrap();
        let index = nl.add_net("index", 12).unwrap();
        let hi = nl.add_net("hi", 6).unwrap();
        let lo = nl.add_net("lo", 5).unwrap();
        let y = nl.add_net("y", 3).unwrap();
        let concat = Prim::Concat {
            widths: vec![12 - n_x, n_x],
        };
        nl.add_cell("u_cat", concat, vec![k, x], vec![index])
            .unwrap();
        for (name, low, len, net) in [("u_hi", 5, 6, hi), ("u_lo", 0, 5, lo)] {
            let slice = Prim::Slice {
                in_width: 12,
                low,
                len,
            };
            nl.add_cell(name, slice, vec![index], vec![net]).unwrap();
        }
        let tt = Prim::TruthTable {
            in_widths: vec![6, 5],
            out_width: 3,
            table: table.to_vec(),
        };
        nl.add_cell("u_tt", tt, vec![hi, lo], vec![y]).unwrap();
        for (port, net) in [("k", k), ("x", x), ("y", y)] {
            nl.bind_port(port, net).unwrap();
        }
        nl
    }

    #[test]
    fn golden_tribuf() {
        golden(Prim::TriBuf { width: 2 });
    }

    #[test]
    fn resolve_matches_logicvector_resolve() {
        for a in all_vectors(2) {
            for b in all_vectors(2) {
                let expect = a.resolve(&b).unwrap();
                let (v, u, z) = resolve_planes(0b11, a.raw_masks(), b.raw_masks());
                let got = LogicVector::from_raw_masks(2, v, u, z).unwrap();
                assert_eq!(got, expect, "resolve({a}, {b})");
            }
        }
    }

    /// A 4-bit accumulator netlist: q' = q + in, y = q.
    fn accumulator() -> Netlist {
        let entity = Entity::builder("acc")
            .port("din", PortDir::In, 4)
            .unwrap()
            .port("q", PortDir::Out, 4)
            .unwrap()
            .build()
            .unwrap();
        let mut nl = Netlist::new(entity);
        let din = nl.add_net("din", 4).unwrap();
        let q = nl.add_net("q", 4).unwrap();
        let d = nl.add_net("d", 4).unwrap();
        nl.add_cell("u_add", Prim::Add { width: 4 }, vec![q, din], vec![d])
            .unwrap();
        nl.add_cell(
            "u_reg",
            Prim::Reg {
                width: 4,
                has_enable: false,
                reset_value: 0,
            },
            vec![d],
            vec![q],
        )
        .unwrap();
        nl.bind_port("din", din).unwrap();
        nl.bind_port("q", q).unwrap();
        nl
    }

    #[test]
    fn lane_batch_accumulates_independently_per_lane() {
        let nl = accumulator();
        let mut lanes = LaneBatch::new("pack", &nl).unwrap();
        lanes.reset();
        // Lane k adds k every cycle; after 5 cycles q == 5k mod 16.
        for _ in 0..5 {
            for k in 0..LANES {
                lanes.poke("din", k, (k as u64) & 0xF).unwrap();
            }
            lanes.settle();
            lanes.tick().unwrap();
        }
        lanes.settle();
        for k in 0..LANES {
            let q = lanes.peek("q", k).unwrap().to_u64().unwrap();
            assert_eq!(q, (5 * k as u64) & 0xF, "lane {k}");
        }
    }

    #[test]
    fn lane_batch_matches_unpacked_reference_lanes() {
        // Lane k of the packed run must equal an unpacked run with
        // stimulus k.
        let nl = accumulator();
        let mut lanes = LaneBatch::new("pack", &nl).unwrap();
        lanes.reset();
        let stim = |k: u64, cycle: u64| (k * 3 + cycle * 7) & 0xF;
        let cycles = 8;
        for c in 0..cycles {
            for k in 0..LANES {
                lanes.poke("din", k, stim(k as u64, c)).unwrap();
            }
            lanes.settle();
            lanes.tick().unwrap();
        }
        lanes.settle();
        for k in 0..LANES {
            let mut single = LaneBatch::new("single", &nl).unwrap();
            single.reset();
            for c in 0..cycles {
                single.poke("din", 0, stim(k as u64, c)).unwrap();
                single.settle();
                single.tick().unwrap();
            }
            single.settle();
            assert_eq!(
                lanes.peek("q", k).unwrap(),
                single.peek("q", 0).unwrap(),
                "lane {k} must be independent"
            );
        }
    }

    #[test]
    fn lane_batch_undefined_inputs_poison_per_lane() {
        let nl = accumulator();
        let mut lanes = LaneBatch::new("pack", &nl).unwrap();
        lanes.reset();
        // Only lane 3 gets a defined input; every other lane's adder
        // output is poisoned but the register still holds its reset
        // value until ticked.
        lanes.poke("din", 3, 2).unwrap();
        lanes.settle();
        assert_eq!(lanes.peek("q", 3).unwrap().to_u64(), Some(0));
        lanes.tick().unwrap();
        lanes.settle();
        assert_eq!(lanes.peek("q", 3).unwrap().to_u64(), Some(2));
        assert_eq!(lanes.peek("q", 7).unwrap().to_u64(), None, "lane 7 is X");
    }

    #[test]
    fn lane_batch_refuses_tristate() {
        let nl = one_cell(Prim::TriBuf { width: 2 });
        let err = LaneBatch::new("pack", &nl).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("tri-state"), "{msg}");
        assert!(msg.contains("`u`"), "{msg}");
    }

    #[test]
    fn lane_batch_refuses_high_z_constants() {
        let nl = one_cell(Prim::Const {
            value: LogicVector::high_z(2).unwrap(),
        });
        let err = LaneBatch::new("pack", &nl).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("high-Z"), "{msg}");
        assert!(msg.contains("`u`"), "{msg}");
    }

    #[test]
    fn lane_batch_refuses_multiply_driven_nets() {
        let entity = Entity::builder("sharednet")
            .port("a", PortDir::In, 2)
            .unwrap()
            .port("y", PortDir::Out, 2)
            .unwrap()
            .build()
            .unwrap();
        let mut nl = Netlist::new(entity);
        let a = nl.add_net("a", 2).unwrap();
        let shared = nl.add_net("merged", 2).unwrap();
        nl.add_cell("u_buf_a", Prim::Buf { width: 2 }, vec![a], vec![shared])
            .unwrap();
        nl.add_cell("u_buf_b", Prim::Not { width: 2 }, vec![a], vec![shared])
            .unwrap();
        nl.bind_port("a", a).unwrap();
        nl.bind_port("y", shared).unwrap();
        let err = LaneBatch::new("pack", &nl).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("multiple drivers"), "{msg}");
        assert!(msg.contains("`merged`"), "{msg}");
    }

    #[test]
    fn lane_batch_refuses_inout_ports() {
        let entity = Entity::builder("pad")
            .port("io", PortDir::InOut, 1)
            .unwrap()
            .build()
            .unwrap();
        let mut nl = Netlist::new(entity);
        let io = nl.add_net("io", 1).unwrap();
        nl.bind_port("io", io).unwrap();
        let err = LaneBatch::new("pack", &nl).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("inout"), "{msg}");
        assert!(msg.contains("`io`"), "{msg}");
    }

    #[test]
    fn lane_batch_refuses_multi_domain_netlists() {
        let entity = Entity::builder("cdc")
            .port("q", PortDir::Out, 4)
            .unwrap()
            .build()
            .unwrap();
        let mut nl = Netlist::new(entity);
        let d = nl.add_net("d", 4).unwrap();
        let q = nl.add_net("q", 4).unwrap();
        let wr = nl.add_domain("wr", 2).unwrap();
        nl.add_cell_in_domain(
            "u_wr_reg",
            Prim::Reg {
                width: 4,
                has_enable: false,
                reset_value: 0,
            },
            vec![d],
            vec![q],
            wr,
        )
        .unwrap();
        nl.add_cell("u_inc", Prim::Inc { width: 4 }, vec![q], vec![d])
            .unwrap();
        nl.bind_port("q", q).unwrap();
        let err = LaneBatch::new("pack", &nl).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("u_wr_reg"), "{msg}");
        assert!(msg.contains("`wr`"), "{msg}");
    }

    #[test]
    fn lane_batch_fifo_protocol_error_names_the_lane() {
        let entity = Entity::builder("f")
            .port("push", PortDir::In, 1)
            .unwrap()
            .port("pop", PortDir::In, 1)
            .unwrap()
            .port("din", PortDir::In, 4)
            .unwrap()
            .port("front", PortDir::Out, 4)
            .unwrap()
            .build()
            .unwrap();
        let mut nl = Netlist::new(entity);
        let push = nl.add_net("push", 1).unwrap();
        let pop = nl.add_net("pop", 1).unwrap();
        let din = nl.add_net("din", 4).unwrap();
        let front = nl.add_net("front", 4).unwrap();
        let empty = nl.add_net("empty", 1).unwrap();
        let full = nl.add_net("full", 1).unwrap();
        nl.add_cell(
            "u_fifo",
            Prim::FifoMacro { depth: 2, width: 4 },
            vec![push, pop, din],
            vec![front, empty, full],
        )
        .unwrap();
        nl.bind_port("push", push).unwrap();
        nl.bind_port("pop", pop).unwrap();
        nl.bind_port("din", din).unwrap();
        nl.bind_port("front", front).unwrap();
        let mut lanes = LaneBatch::new("pack", &nl).unwrap();
        lanes.reset();
        lanes.poke_all("push", 0).unwrap();
        lanes.poke_all("pop", 0).unwrap();
        lanes.poke("pop", 5, 1).unwrap();
        lanes.settle();
        let err = lanes.tick().unwrap_err();
        assert!(
            err.to_string().contains("pop on empty fifo") && err.to_string().contains("lane 5"),
            "{err}"
        );
    }

    use crate::sched::{SchedMode, Simulator};
    use crate::telemetry::TelemetryLevel;

    /// A simulator around the accumulator netlist in the given mode.
    fn acc_sim(mode: SchedMode) -> (Simulator, SignalId, SignalId) {
        let mut sim = Simulator::with_mode(mode);
        let din = sim.add_signal("din", 4).unwrap();
        let q = sim.add_signal("q", 4).unwrap();
        let dut = NetlistComponent::new("dut", accumulator(), sim.bus(), &[("din", din), ("q", q)])
            .unwrap();
        sim.add_component(dut);
        sim.reset().unwrap();
        (sim, din, q)
    }

    #[test]
    fn lowered_mode_is_bit_identical_to_the_sweep() {
        let (mut sw, sw_din, sw_q) = acc_sim(SchedMode::FullSweep);
        let (mut lo, lo_din, lo_q) = acc_sim(SchedMode::Lowered);
        lo.set_telemetry(TelemetryLevel::Counters);
        for c in 0..20u64 {
            let v = (c * 5 + 3) & 0xF;
            sw.poke(sw_din, v).unwrap();
            lo.poke(lo_din, v).unwrap();
            sw.step().unwrap();
            lo.step().unwrap();
            assert_eq!(sw.peek(sw_q).unwrap(), lo.peek(lo_q).unwrap(), "cycle {c}");
        }
        let stats = lo.stats();
        assert!(stats.lowered_settles > 0, "lowered walk must have run");
        assert!(stats.ops_executed > 0, "word ops must have executed");
    }

    #[test]
    fn only_a_lone_lowered_unit_takes_the_direct_path() {
        let (mut sim, din, q) = acc_sim(SchedMode::Lowered);
        let (mut reference, rdin, rq) = acc_sim(SchedMode::FullSweep);
        let cycle = |sim: &mut Simulator, reference: &mut Simulator, c: u64| {
            sim.poke(din, c & 0xF).unwrap();
            reference.poke(rdin, c & 0xF).unwrap();
            sim.step().unwrap();
            reference.step().unwrap();
            assert_eq!(sim.peek(q).unwrap(), reference.peek(rq).unwrap(), "{c}");
        };
        for c in 0..4 {
            cycle(&mut sim, &mut reference, c);
        }
        assert!(sim.on_direct_path());
        // Poking the unit's own output gives that signal a second
        // driver: the rank walk takes over, and hands back once the
        // poke is gone.
        sim.poke(q, 3).unwrap();
        reference.poke(rq, 3).unwrap();
        cycle(&mut sim, &mut reference, 4);
        assert!(!sim.on_direct_path());
        sim.unpoke(q);
        reference.unpoke(rq);
        for c in 5..9 {
            cycle(&mut sim, &mut reference, c);
        }
        assert!(sim.on_direct_path());
        // A second component puts the design on the rank walk.
        let en = sim.add_signal("en", 1).unwrap();
        let y = sim.add_signal("y", 4).unwrap();
        sim.add_component(Clamp { en, y });
        sim.poke(en, 1).unwrap();
        for c in 9..12 {
            sim.poke(din, c).unwrap();
            sim.step().unwrap();
        }
        assert!(!sim.on_direct_path());
        assert_eq!(sim.peek(y).unwrap().to_u64(), Some(0));
    }

    #[test]
    fn two_out_ports_on_one_signal_resolve_in_every_mode() {
        // `y1 = x` and `y2 = !x` both drive `y`: every mode resolves the
        // two drives to X. Such a unit keeps interpreted evaluation.
        let entity = Entity::builder("fork")
            .port("x", PortDir::In, 1)
            .unwrap()
            .port("y1", PortDir::Out, 1)
            .unwrap()
            .port("y2", PortDir::Out, 1)
            .unwrap()
            .build()
            .unwrap();
        let mut nl = Netlist::new(entity);
        let [x, y1, y2] = ["x", "y1", "y2"].map(|n| nl.add_net(n, 1).unwrap());
        nl.add_cell("u_buf", Prim::Buf { width: 1 }, vec![x], vec![y1])
            .unwrap();
        nl.add_cell("u_not", Prim::Not { width: 1 }, vec![x], vec![y2])
            .unwrap();
        for (p, n) in [("x", x), ("y1", y1), ("y2", y2)] {
            nl.bind_port(p, n).unwrap();
        }
        let run = |mode| {
            let mut sim = Simulator::with_mode(mode);
            let xs = sim.add_signal("x", 1).unwrap();
            let y = sim.add_signal("y", 1).unwrap();
            let map = [("x", xs), ("y1", y), ("y2", y)];
            let dut = NetlistComponent::new("dut", nl.clone(), sim.bus(), &map).unwrap();
            sim.add_component(dut);
            sim.set_telemetry(TelemetryLevel::Counters);
            sim.reset().unwrap();
            let mut seen = Vec::new();
            for c in 0..4 {
                sim.poke(xs, c & 1).unwrap();
                sim.step().unwrap();
                seen.push(sim.peek(y).unwrap());
            }
            (seen, sim.stats())
        };
        let (reference, _) = run(SchedMode::FullSweep);
        assert_eq!(reference, vec![LogicVector::unknown(1).unwrap(); 4]);
        let (lowered, stats) = run(SchedMode::Lowered);
        assert_eq!(lowered, reference);
        assert!(stats.notes.iter().any(|n| n.contains("two `Out` ports")));
    }

    #[test]
    fn settles_after_a_reset_present_the_reset_state() {
        // After a reset the planes still hold the pre-reset accumulator,
        // and the inputs have not changed: the input memo must not
        // answer. The first reset records the poke's driver link, so the
        // settle after it rebuilds the plan; the second is a plain
        // wake-all settle.
        let run = |mode| {
            let (mut sim, din, q) = acc_sim(mode);
            let mut seen = Vec::new();
            for _ in 0..2 {
                for _ in 0..3 {
                    sim.poke(din, 3).unwrap();
                    sim.step().unwrap();
                }
                sim.reset().unwrap();
                for _ in 0..2 {
                    sim.poke(din, 3).unwrap();
                    sim.settle().unwrap();
                    seen.push(sim.peek(q).unwrap().to_u64());
                }
            }
            seen
        };
        assert_eq!(run(SchedMode::Lowered), run(SchedMode::FullSweep));
        assert_eq!(run(SchedMode::Lowered), vec![Some(0); 4]);
    }

    #[test]
    fn lowered_memo_skips_ops_on_unchanged_inputs() {
        let (mut sim, din, _q) = acc_sim(SchedMode::Lowered);
        sim.set_telemetry(TelemetryLevel::Counters);
        sim.poke(din, 1).unwrap();
        sim.settle().unwrap();
        sim.poke(din, 2).unwrap();
        sim.settle().unwrap();
        let after_change = sim.stats().ops_executed;
        assert!(after_change > 0);
        sim.settle().unwrap();
        assert_eq!(
            sim.stats().ops_executed,
            after_change,
            "an unchanged settle must not replay the op stream"
        );
    }

    #[test]
    fn a_clone_runs_on_the_op_stream_its_sibling_lowered() {
        let mut donor = Simulator::with_mode(SchedMode::Lowered);
        let din = donor.add_signal("din", 4).unwrap();
        let q = donor.add_signal("q", 4).unwrap();
        let template =
            NetlistComponent::new("dut", accumulator(), donor.bus(), &[("din", din), ("q", q)])
                .unwrap();
        donor.add_component(template.clone());
        donor.reset().unwrap();
        for c in 0..4u64 {
            donor.poke(din, c & 0xF).unwrap();
            donor.step().unwrap();
        }
        assert!(
            template.lowered_bytes() > 0,
            "the donor's settle lowered it"
        );

        // Same signal ids in the same order, so the template's wiring holds.
        let mut warm = Simulator::with_mode(SchedMode::Lowered);
        let (wdin, wq) = (
            warm.add_signal("din", 4).unwrap(),
            warm.add_signal("q", 4).unwrap(),
        );
        warm.set_telemetry(TelemetryLevel::Counters);
        warm.add_component(template.clone());
        warm.reset().unwrap();
        let (mut reference, rdin, rq) = acc_sim(SchedMode::FullSweep);
        for c in 0..12u64 {
            let v = (c * 7 + 1) & 0xF;
            warm.poke(wdin, v).unwrap();
            reference.poke(rdin, v).unwrap();
            warm.step().unwrap();
            reference.step().unwrap();
            assert_eq!(
                warm.peek(wq).unwrap(),
                reference.peek(rq).unwrap(),
                "cycle {c}"
            );
        }
        let stats = warm.stats();
        assert_eq!(stats.plan_installs, 1, "the clone lowered nothing itself");
        assert!(
            stats.lowered_settles > 0,
            "the shared stream must execute lowered, not interpreted"
        );
    }

    // The lowered clock edge: the sequential half ticks from the
    // planes, samples whichever engine settled last, and raises the
    // interpreter's protocol errors at the same cycle with the same
    // text in every mode.

    use crate::telemetry::FallbackCause;
    use crate::{BusAccess, Component, Sensitivity, SignalBus};

    /// One stimulus row: a value per `In` port, `None` for all-X.
    type Row = Vec<Option<u64>>;

    /// The sampled outputs per cycle, and the first error with its cycle.
    type Run = (Vec<Vec<LogicVector>>, Option<(usize, String)>);

    /// A simulator around `nl` in `mode`, one signal per entity port
    /// (same name, same width). Returns the `In` and `Out` signals in
    /// port order.
    fn port_sim(nl: Netlist, mode: SchedMode) -> (Simulator, Vec<SignalId>, Vec<SignalId>) {
        let mut sim = Simulator::with_mode(mode);
        let (mut ins, mut outs, mut map) = (Vec::new(), Vec::new(), Vec::new());
        for port in nl.entity().ports() {
            let id = sim.add_signal(port.name(), port.width()).unwrap();
            match port.dir() {
                PortDir::In => ins.push(id),
                _ => outs.push(id),
            }
            map.push((port.name().to_owned(), id));
        }
        let map: Vec<(&str, SignalId)> = map.iter().map(|(p, id)| (p.as_str(), *id)).collect();
        let dut = NetlistComponent::new("dut", nl, sim.bus(), &map).unwrap();
        sim.add_component(dut);
        sim.set_telemetry(TelemetryLevel::Counters);
        (sim, ins, outs)
    }

    /// Pokes one row (`None` pokes all-X).
    fn poke_row(sim: &mut Simulator, ins: &[SignalId], row: &Row) {
        for (&id, v) in ins.iter().zip(row) {
            match v {
                Some(v) => sim.poke(id, *v).unwrap(),
                None => {
                    let width = sim.bus().width(id).unwrap();
                    sim.poke_vector(id, LogicVector::unknown(width).unwrap())
                        .unwrap();
                }
            }
        }
    }

    /// Runs `rows` with the service's cycle protocol (poke, reset on
    /// cycle 0 or settle, sample the outputs, clock edge). Returns the
    /// samples and the first error with the cycle that raised it.
    fn run_rows(sim: &mut Simulator, ins: &[SignalId], outs: &[SignalId], rows: &[Row]) -> Run {
        let mut trace = Vec::new();
        for (cycle, row) in rows.iter().enumerate() {
            poke_row(sim, ins, row);
            let res = if cycle == 0 {
                sim.reset()
            } else {
                sim.settle()
            };
            if let Err(e) = res {
                return (trace, Some((cycle, e.to_string())));
            }
            trace.push(outs.iter().map(|&id| sim.peek(id).unwrap()).collect());
            if let Err(e) = sim.step() {
                return (trace, Some((cycle, e.to_string())));
            }
        }
        (trace, None)
    }

    /// Runs `rows` through `nl` in every mode and asserts the traces
    /// and the first errors agree; returns the `Lowered` run's result
    /// and stats.
    fn same_in_every_mode(nl: &Netlist, rows: &[Row]) -> (Run, crate::SimStats) {
        let (mut sim, ins, outs) = port_sim(nl.clone(), SchedMode::FullSweep);
        let reference = run_rows(&mut sim, &ins, &outs, rows);
        let (mut sim, ins, outs) = port_sim(nl.clone(), SchedMode::Lowered);
        let got = run_rows(&mut sim, &ins, &outs, rows);
        assert_eq!(got, reference, "lowered against the full sweep");
        let stats = sim.stats();
        assert!(stats.lowered_settles > 0, "the rank walk ran");
        (got, stats)
    }

    /// Rows of `n` idle cycles (every input 0) followed by `tail`.
    fn after_idle(n: usize, width: usize, tail: &[Row]) -> Vec<Row> {
        let mut rows = vec![vec![Some(0); width]; n];
        rows.extend_from_slice(tail);
        rows
    }

    /// Asserts the lowered edge raises `message` at `cycle`, as the
    /// interpreter does.
    fn fails_alike(nl: &Netlist, rows: &[Row], cycle: usize, message: &str) {
        let ((_, err), _) = same_in_every_mode(nl, rows);
        let (at, text) = err.expect("the stimulus breaks the protocol");
        assert_eq!(at, cycle, "{text}");
        assert!(text.contains(message), "{text}");
    }

    #[test]
    fn queue_protocol_errors_match_across_modes() {
        let push = |v| vec![Some(1), Some(0), Some(v)];
        let pop = vec![Some(0), Some(1), Some(0)];
        for (prim, kind) in [
            (Prim::FifoMacro { depth: 2, width: 8 }, "fifo"),
            (Prim::LifoMacro { depth: 2, width: 8 }, "lifo"),
        ] {
            let nl = one_cell(prim);
            let full = after_idle(2, 3, &[push(1), push(2), push(3)]);
            fails_alike(&nl, &full, 4, &format!("push on full {kind} `u`"));
            let empty = after_idle(2, 3, &[push(1), pop.clone(), pop.clone()]);
            fails_alike(&nl, &empty, 4, &format!("pop on empty {kind} `u`"));
            let x_data = after_idle(2, 3, &[vec![Some(1), Some(0), None]]);
            fails_alike(
                &nl,
                &x_data,
                2,
                &format!("undefined {kind} write data on net `a2`"),
            );
        }
    }

    #[test]
    fn block_ram_undefined_write_port_matches_across_modes() {
        let nl = one_cell(Prim::BlockRam {
            addr_width: 3,
            data_width: 8,
        });
        // Pins: we, waddr, wdata, raddr.
        let write = |a, d| vec![Some(1), a, d, Some(0)];
        let rows = after_idle(2, 4, &[write(Some(2), Some(9)), write(None, Some(1))]);
        fails_alike(&nl, &rows, 3, "undefined write address on net `a1`");
        let rows = after_idle(2, 4, &[write(Some(2), Some(9)), write(Some(3), None)]);
        fails_alike(&nl, &rows, 3, "undefined write data on net `a2`");
        // A clean run reads back what was written, in every mode.
        let read = |a| vec![Some(0), Some(0), Some(0), Some(a)];
        let rows = after_idle(1, 4, &[write(Some(5), Some(42)), read(5), read(5)]);
        let ((trace, err), _) = same_in_every_mode(&nl, &rows);
        assert!(err.is_none());
        assert_eq!(trace[3][0].to_u64(), Some(42));
    }

    /// Runs one stimulus per lane (`rows(lane)`, all of one length)
    /// through a [`LaneBatch`] named like [`port_sim`]'s component, with
    /// the cycle protocol of [`run_rows`]. Returns the first error with
    /// its cycle. A `None` leaves the port as it was, so an X port must
    /// stay `None` from cycle 0 (the lane engine cannot poke X).
    fn lane_rows(nl: &Netlist, rows: impl Fn(usize) -> Vec<Row>) -> Option<(usize, String)> {
        let names: Vec<&str> = nl
            .entity()
            .ports()
            .iter()
            .filter(|p| p.dir() == PortDir::In)
            .map(|p| p.name())
            .collect();
        let stims: Vec<Vec<Row>> = (0..LANES).map(rows).collect();
        let mut lanes = LaneBatch::new("dut", nl).unwrap();
        lanes.reset();
        for cycle in 0..stims[0].len() {
            for (lane, stim) in stims.iter().enumerate() {
                for (name, v) in names.iter().zip(&stim[cycle]) {
                    if let Some(v) = v {
                        lanes.poke(name, lane, *v).unwrap();
                    }
                }
            }
            lanes.settle();
            if let Err(e) = lanes.tick() {
                return Some((cycle, e.to_string()));
            }
        }
        None
    }

    /// The interpreter's first error for `rows`, with its cycle.
    fn interpreter_error(nl: &Netlist, rows: &[Row]) -> (usize, String) {
        let (mut sim, ins, outs) = port_sim(nl.clone(), SchedMode::FullSweep);
        let (_, err) = run_rows(&mut sim, &ins, &outs, rows);
        err.expect("the stimulus breaks the protocol")
    }

    #[test]
    fn lane_protocol_errors_are_the_interpreters_plus_the_lane() {
        let x = None;
        let (on, off) = (Some(1), Some(0));
        let bram = one_cell(Prim::BlockRam {
            addr_width: 3,
            data_width: 8,
        });
        // Pins: we, waddr, wdata, raddr (BRAM); push, pop, wdata (queues).
        let mut cases = vec![
            (
                bram.clone(),
                vec![vec![off, x, off, off], vec![on, x, Some(9), off]],
            ),
            (
                bram,
                vec![vec![off, off, x, off], vec![on, Some(3), x, off]],
            ),
        ];
        for prim in [
            Prim::FifoMacro { depth: 2, width: 8 },
            Prim::LifoMacro { depth: 2, width: 8 },
        ] {
            let nl = one_cell(prim);
            let push = |v| vec![on, off, Some(v)];
            cases.push((nl.clone(), vec![vec![off, off, x], vec![on, off, x]]));
            cases.push((nl.clone(), vec![vec![off, off, off], vec![off, on, off]]));
            cases.push((nl, vec![push(1), push(2), push(3)]));
        }
        for (nl, bad) in cases {
            let (cycle, message) = interpreter_error(&nl, &bad);
            let idle = vec![vec![off; bad[0].len()]; bad.len()];
            for lane in [0, 29, LANES - 1] {
                let got = lane_rows(&nl, |k| if k == lane { bad.clone() } else { idle.clone() });
                assert_eq!(got, Some((cycle, format!("{message} (lane {lane})"))));
            }
        }
    }

    #[test]
    fn two_failing_lanes_report_the_first_cell_then_the_lowest_lane() {
        let entity = Entity::builder("two")
            .port("push", PortDir::In, 1)
            .unwrap()
            .port("pop_first", PortDir::In, 1)
            .unwrap()
            .port("pop_second", PortDir::In, 1)
            .unwrap()
            .port("din", PortDir::In, 4)
            .unwrap()
            .port("front", PortDir::Out, 4)
            .unwrap()
            .build()
            .unwrap();
        let mut nl = Netlist::new(entity);
        let mut net = |name: &str, width| nl.add_net(name, width).unwrap();
        let [push, pop_first, pop_second] = ["push", "pop_first", "pop_second"].map(|n| net(n, 1));
        let [din, front, front2] = ["din", "front", "front2"].map(|n| net(n, 4));
        let [e1, f1, e2, f2] = ["e1", "f1", "e2", "f2"].map(|n| net(n, 1));
        let fifo = Prim::FifoMacro { depth: 2, width: 4 };
        nl.add_cell(
            "u_first",
            fifo.clone(),
            vec![push, pop_first, din],
            vec![front, e1, f1],
        )
        .unwrap();
        nl.add_cell(
            "u_second",
            fifo,
            vec![push, pop_second, din],
            vec![front2, e2, f2],
        )
        .unwrap();
        for (port, n) in [
            ("push", push),
            ("pop_first", pop_first),
            ("pop_second", pop_second),
            ("din", din),
            ("front", front),
        ] {
            nl.bind_port(port, n).unwrap();
        }
        // Lanes 40 and 50 pop `u_first` on empty, lanes 3 and 40 pop
        // `u_second`: the report is `u_first`'s lowest lane, 40.
        let stim = |first: bool, second: bool| {
            let row = vec![
                Some(0),
                Some(u64::from(first)),
                Some(u64::from(second)),
                Some(0),
            ];
            vec![vec![Some(0); 4], row]
        };
        let bad = stim(true, true);
        let (cycle, message) = interpreter_error(&nl, &bad);
        assert!(message.contains("`u_first`"), "{message}");
        let got = lane_rows(&nl, |lane| {
            stim(lane == 40 || lane == 50, lane == 3 || lane == 40)
        });
        assert_eq!(got, Some((cycle, format!("{message} (lane 40)"))));
    }

    #[test]
    fn first_edge_after_reset_samples_the_reset_settle() {
        // Cycle 0 resets through a full-sweep settle (the planes
        // are still all-X), and its edge pushes defined data: reading
        // the planes there would raise "undefined fifo write data".
        let nl = one_cell(Prim::FifoMacro { depth: 4, width: 8 });
        let rows: Vec<Row> = (0..8u64)
            .map(|c| {
                let pop = (4..7).contains(&c);
                vec![Some(u64::from(c < 3)), Some(u64::from(pop)), Some(c + 10)]
            })
            .collect();
        let ((trace, err), stats) = same_in_every_mode(&nl, &rows);
        assert!(err.is_none(), "{err:?}");
        assert_eq!(trace[4][0].to_u64(), Some(10), "the cycle-0 push landed");
        assert!(stats.fallback_cause(FallbackCause::Rebuild) > 0);
        // A mid-run reset is a wake-all settle followed by the same
        // kind of edge.
        let mid = |mode| {
            let (mut sim, ins, outs) = port_sim(nl.clone(), mode);
            let (mut trace, _) = run_rows(&mut sim, &ins, &outs, &rows[..5]);
            poke_row(&mut sim, &ins, &vec![Some(1), Some(0), Some(77)]);
            sim.reset().unwrap();
            sim.step().unwrap();
            poke_row(&mut sim, &ins, &vec![Some(0), Some(0), Some(0)]);
            sim.settle().unwrap();
            trace.push(outs.iter().map(|&id| sim.peek(id).unwrap()).collect());
            (trace, sim.stats().fallback_cause(FallbackCause::WakeAll))
        };
        let (reference, _) = mid(SchedMode::FullSweep);
        let (lowered, wake_alls) = mid(SchedMode::Lowered);
        assert_eq!(lowered, reference);
        assert!(wake_alls > 0, "the mid-run reset settled by sweep");
    }

    #[test]
    fn edges_across_mode_switches_sample_the_last_settle() {
        let nl = one_cell(Prim::FifoMacro { depth: 4, width: 8 });
        let rows: Vec<Row> = (0..24u64)
            .map(|c| {
                vec![
                    Some(u64::from(c % 4 != 3)),
                    Some(u64::from(c % 4 != 0)),
                    Some(c),
                ]
            })
            .collect();
        let run = |switches: &[(usize, bool, SchedMode)]| {
            let (mut sim, ins, outs) = port_sim(nl.clone(), SchedMode::Lowered);
            let mut trace = Vec::new();
            for (cycle, row) in rows.iter().enumerate() {
                poke_row(&mut sim, &ins, row);
                // Switch before the settle, or between the settle and
                // the edge.
                let switch = |sim: &mut Simulator, after_settle: bool| {
                    for &(at, after, mode) in switches {
                        if at == cycle && after == after_settle {
                            sim.set_mode(mode);
                        }
                    }
                };
                switch(&mut sim, false);
                if cycle == 0 {
                    sim.reset().unwrap();
                } else {
                    sim.settle().unwrap();
                }
                switch(&mut sim, true);
                trace.push(
                    outs.iter()
                        .map(|&id| sim.peek(id).unwrap())
                        .collect::<Vec<_>>(),
                );
                sim.step().unwrap();
            }
            (trace, sim.stats())
        };
        let (reference, _) = run(&[(0, false, SchedMode::FullSweep)]);
        let (switched, stats) = run(&[
            (5, false, SchedMode::FullSweep),
            (8, true, SchedMode::Lowered),
            (12, true, SchedMode::FullSweep),
            (15, false, SchedMode::Lowered),
            (19, true, SchedMode::FullSweep),
            (20, false, SchedMode::Lowered),
        ]);
        assert_eq!(switched, reference);
        assert!(stats.fallback_cause(FallbackCause::WakeAll) >= 3);
        assert!(stats.lowered_settles > 0);
    }

    /// A two-clock FIFO of depth 4 and width 8: a register file and
    /// the write pointer in `clk`, the read pointer in `rd` (period
    /// `rd_period`), each pointer crossing through a two-register
    /// synchroniser. Ports: push, pop, wdata in; rdata, full, empty out.
    fn async_fifo(rd_period: u64) -> Netlist {
        let entity = Entity::builder("afifo")
            .port("push", PortDir::In, 1)
            .unwrap()
            .port("pop", PortDir::In, 1)
            .unwrap()
            .port("wdata", PortDir::In, 8)
            .unwrap()
            .port("rdata", PortDir::Out, 8)
            .unwrap()
            .port("full", PortDir::Out, 1)
            .unwrap()
            .port("empty", PortDir::Out, 1)
            .unwrap()
            .build()
            .unwrap();
        let mut nl = Netlist::new(entity);
        let rd = nl.add_domain("rd", rd_period).unwrap();
        let mut net = |name: &str, w| nl.add_net(name, w).unwrap();
        let [push, pop, wdata, rdata, full, empty] = [
            ("push", 1),
            ("pop", 1),
            ("wdata", 8),
            ("rdata", 8),
            ("full", 1),
            ("empty", 1),
        ]
        .map(|(n, w)| net(n, w));
        let [wp, wp1, rp, rp1, wp_s1, wp_s2, rp_s1, rp_s2] =
            ["wp", "wp1", "rp", "rp1", "wp_s1", "wp_s2", "rp_s1", "rp_s2"].map(|n| net(n, 3));
        let [do_push, do_pop, not_full, not_empty] =
            ["do_push", "do_pop", "not_full", "not_empty"].map(|n| net(n, 1));
        let [used, four, wsel, rsel] =
            [("used", 3), ("four", 3), ("wsel", 2), ("rsel", 2)].map(|(n, w)| net(n, w));
        let reg = |width, has_enable| Prim::Reg {
            width,
            has_enable,
            reset_value: 0,
        };
        nl.add_cell("u_wp", reg(3, true), vec![wp1, do_push], vec![wp])
            .unwrap();
        nl.add_cell("u_wp1", Prim::Inc { width: 3 }, vec![wp], vec![wp1])
            .unwrap();
        nl.add_cell_in_domain("u_rp", reg(3, true), vec![rp1, do_pop], vec![rp], rd)
            .unwrap();
        nl.add_cell("u_rp1", Prim::Inc { width: 3 }, vec![rp], vec![rp1])
            .unwrap();
        nl.add_cell_in_domain("u_wp_s1", reg(3, false), vec![wp], vec![wp_s1], rd)
            .unwrap();
        nl.add_cell_in_domain("u_wp_s2", reg(3, false), vec![wp_s1], vec![wp_s2], rd)
            .unwrap();
        nl.add_cell("u_rp_s1", reg(3, false), vec![rp], vec![rp_s1])
            .unwrap();
        nl.add_cell("u_rp_s2", reg(3, false), vec![rp_s1], vec![rp_s2])
            .unwrap();
        let cmp = |kind| Prim::Cmp { kind, width: 3 };
        let and = Prim::Gate {
            op: GateOp::And,
            width: 1,
        };
        nl.add_cell(
            "u_used",
            Prim::Sub { width: 3 },
            vec![wp, rp_s2],
            vec![used],
        )
        .unwrap();
        let four_v = LogicVector::from_u64(4, 3).unwrap();
        nl.add_cell("u_four", Prim::Const { value: four_v }, vec![], vec![four])
            .unwrap();
        nl.add_cell("u_full", cmp(CmpKind::Eq), vec![used, four], vec![full])
            .unwrap();
        nl.add_cell(
            "u_nfull",
            Prim::Not { width: 1 },
            vec![full],
            vec![not_full],
        )
        .unwrap();
        nl.add_cell("u_push", and.clone(), vec![push, not_full], vec![do_push])
            .unwrap();
        nl.add_cell("u_empty", cmp(CmpKind::Eq), vec![rp, wp_s2], vec![empty])
            .unwrap();
        nl.add_cell(
            "u_nempty",
            Prim::Not { width: 1 },
            vec![empty],
            vec![not_empty],
        )
        .unwrap();
        nl.add_cell("u_pop", and.clone(), vec![pop, not_empty], vec![do_pop])
            .unwrap();
        let slice = Prim::Slice {
            in_width: 3,
            low: 0,
            len: 2,
        };
        nl.add_cell("u_wsel", slice.clone(), vec![wp], vec![wsel])
            .unwrap();
        nl.add_cell("u_rsel", slice, vec![rp], vec![rsel]).unwrap();
        let mut words = Vec::new();
        for k in 0..4u64 {
            let [hit, we, word] = [("hit", 1), ("we", 1), ("word", 8)]
                .map(|(n, w)| nl.add_net(format!("{n}{k}"), w).unwrap());
            let kv = nl.add_net(format!("k{k}"), 2).unwrap();
            let value = LogicVector::from_u64(k, 2).unwrap();
            nl.add_cell(format!("u_k{k}"), Prim::Const { value }, vec![], vec![kv])
                .unwrap();
            nl.add_cell(
                format!("u_hit{k}"),
                Prim::Cmp {
                    kind: CmpKind::Eq,
                    width: 2,
                },
                vec![wsel, kv],
                vec![hit],
            )
            .unwrap();
            nl.add_cell(
                format!("u_we{k}"),
                and.clone(),
                vec![do_push, hit],
                vec![we],
            )
            .unwrap();
            nl.add_cell(
                format!("u_mem{k}"),
                reg(8, true),
                vec![wdata, we],
                vec![word],
            )
            .unwrap();
            words.push(word);
        }
        let mut mux_ins = vec![rsel];
        mux_ins.extend(words);
        nl.add_cell(
            "u_rdata",
            Prim::Mux { width: 8, ways: 4 },
            mux_ins,
            vec![rdata],
        )
        .unwrap();
        for (p, n) in [
            ("push", push),
            ("pop", pop),
            ("wdata", wdata),
            ("rdata", rdata),
            ("full", full),
            ("empty", empty),
        ] {
            nl.bind_port(p, n).unwrap();
        }
        nl
    }

    #[test]
    fn async_fifo_with_partial_firing_matches_the_full_sweep() {
        let mut seed = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for rd_period in [2, 3] {
            let rows: Vec<Row> = (0..64)
                .map(|_| {
                    let r = next();
                    vec![Some(r & 1), Some(r >> 1 & 1), Some(r >> 8 & 0xFF)]
                })
                .collect();
            let ((trace, err), stats) = same_in_every_mode(&async_fifo(rd_period), &rows);
            assert!(err.is_none(), "{err:?}");
            assert!(
                trace.iter().any(|t| t[1].to_u64() == Some(1)),
                "the fifo fills"
            );
            assert!(
                stats.fallback_cause(FallbackCause::MultiDomain) > 0,
                "steps fired only `clk`"
            );
        }
    }

    #[test]
    fn settle_with_nothing_pending_does_no_work() {
        let (mut sim, din, _q) = acc_sim(SchedMode::Lowered);
        sim.set_telemetry(TelemetryLevel::Counters);
        for c in 0..4 {
            sim.poke(din, c).unwrap();
            sim.step().unwrap();
        }
        let before = sim.stats();
        sim.settle().unwrap();
        let after = sim.stats();
        assert_eq!(after.ops_executed, before.ops_executed, "0 ops");
        assert_eq!(after.total_evals(), before.total_evals(), "0 evals");
        assert_eq!(after.settles, before.settles + 1);
        assert_eq!(after.lowered_settles, before.lowered_settles + 1);
        assert_eq!(after.passes, before.passes + 1);
        assert_eq!(after.fallback_settles, before.fallback_settles);
        // A poke makes the next settle do work again.
        sim.poke(din, 9).unwrap();
        sim.settle().unwrap();
        assert!(sim.stats().ops_executed > after.ops_executed);
    }

    /// Drives `y` to 0 while `en` is high: a co-driver of a signal the
    /// testbench also pokes.
    struct Clamp {
        en: SignalId,
        y: SignalId,
    }

    impl Component for Clamp {
        fn name(&self) -> &str {
            "clamp"
        }
        fn eval(&mut self, bus: &mut dyn BusAccess) -> Result<(), SimError> {
            if bus.read(self.en)?.to_u64() == Some(1) {
                bus.drive_u64(self.y, 0)?;
            }
            Ok(())
        }
        fn tick(&mut self, _bus: &mut SignalBus) -> Result<(), SimError> {
            Ok(())
        }
        fn sensitivity(&self) -> Sensitivity {
            Sensitivity::Signals(vec![self.en])
        }
        fn drives(&self) -> Option<Vec<SignalId>> {
            Some(vec![self.y])
        }
        fn is_clocked(&self) -> bool {
            false
        }
    }

    #[test]
    fn poked_signal_with_a_second_driver_keeps_the_rank_walk_trace() {
        // The accumulator adds `din`, which the testbench pokes and
        // `Clamp` also drives. Replace semantics re-drive the poke at
        // every settle; the resolved value (1 against 0 is X) and the
        // accumulator's history must not depend on the mode, nor on
        // settles that have nothing pending.
        let run = |mode| {
            let mut sim = Simulator::with_mode(mode);
            let din = sim.add_signal("din", 4).unwrap();
            let q = sim.add_signal("q", 4).unwrap();
            let en = sim.add_signal("en", 1).unwrap();
            let dut =
                NetlistComponent::new("dut", accumulator(), sim.bus(), &[("din", din), ("q", q)])
                    .unwrap();
            sim.add_component(dut);
            sim.add_component(Clamp { en, y: din });
            sim.set_telemetry(TelemetryLevel::Counters);
            sim.poke(en, 0).unwrap();
            sim.poke(din, 1).unwrap();
            sim.reset().unwrap();
            let mut trace = Vec::new();
            for cycle in 0..12u64 {
                if cycle == 3 || cycle == 7 {
                    sim.poke(en, 1).unwrap();
                }
                if cycle == 5 {
                    sim.poke(en, 0).unwrap();
                    sim.reset().unwrap();
                }
                if cycle == 9 {
                    sim.poke(en, 0).unwrap();
                }
                sim.settle().unwrap();
                sim.settle().unwrap();
                trace.push((sim.peek(din).unwrap(), sim.peek(q).unwrap()));
                sim.step().unwrap();
            }
            (trace, sim.stats())
        };
        let text = |trace: &[(LogicVector, LogicVector)]| -> Vec<String> {
            trace.iter().map(|(d, q)| format!("{d}{q}")).collect()
        };
        let (reference, _) = run(SchedMode::FullSweep);
        let (lowered, stats) = run(SchedMode::Lowered);
        assert!(stats.lowered_settles > 0);
        assert!(stats.fallback_settles < stats.settles);
        // The settled `din` is the same in every mode: the poke alone,
        // or 1 against 0, which is X.
        let din = |t: &[(LogicVector, LogicVector)]| t.iter().map(|p| p.0).collect::<Vec<_>>();
        assert_eq!(din(&lowered), din(&reference));
        // What the accumulator adds while `din` is X differs: the rank
        // walk evaluates the clamp (a writer) before the accumulator (a
        // reader), so the accumulator reads the resolved X; the sweep
        // re-drives the poke at the start of each pass and evaluates in
        // registration order, so it reads the poked 1. The lowered
        // trace is pinned as the rank walk produces it.
        let expected = [
            "\"0001\"\"0000\"",
            "\"0001\"\"0001\"",
            "\"0001\"\"0010\"",
            "\"000X\"\"0011\"",
            "\"000X\"\"XXXX\"",
            "\"0001\"\"0000\"",
            "\"0001\"\"0001\"",
            "\"000X\"\"0010\"",
            "\"000X\"\"XXXX\"",
            "\"0001\"\"XXXX\"",
            "\"0001\"\"XXXX\"",
            "\"0001\"\"XXXX\"",
        ];
        assert_eq!(text(&lowered), expected);
        assert_eq!(text(&reference)[4], "\"000X\"\"0100\"");
    }
}
