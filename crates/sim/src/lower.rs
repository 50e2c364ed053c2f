//! Verilator-style lowering of frozen netlists to flat word-level op
//! streams, plus the 64-way bit-parallel lane engine built on the same
//! translation.
//!
//! A validated [`crate::NetlistComponent`] interprets its netlist: every
//! settle walks `Cell`/`Prim` structures, materialises `Vec<LogicVector>`
//! pin arrays and dispatches through `eval_comb`. This module stages that
//! interpretation out. [`LoweredProgram::try_lower`] translates the
//! netlist once into a `Vec<LoweredOp>` — masked AND/OR/XOR/NOT/MUX/
//! shift/compare/add ops whose operands are word indices into a flat
//! triple-plane scratch (`value`/`unknown`/`highz`, one u64 word per
//! net) — ordered by the same combinational topological order the
//! interpreter uses. [`exec_settle`] then replays the stream with no
//! `Prim` dispatch, no per-pin `LogicVector` vectors and no heap
//! scheduling, reading input ports and driving output ports through the
//! scheduler's bus exactly like the interpreter's `eval_full`, so the
//! result is bit-identical by construction (each op implements the
//! word-parallel form of the corresponding `Prim::eval_comb` X/Z
//! semantics, including `Not`'s whole-word poisoning and the tri-state
//! resolve fold).
//!
//! The sequential half has one model, the interpreter's: its
//! `SeqState` is presented into the planes through the interpreter's
//! own `seq_outputs`, and a clock edge reads cell inputs straight from
//! the planes ([`Planes`]). Nothing is written back between the two.
//!
//! The second half, [`LaneBatch`], exploits the same translation for
//! throughput: 64 independent stimulus runs are packed one-per-bit into
//! u64 columns (bit `k` of every column belongs to lane `k`), so a
//! single settle of the column program advances 64 simulations at once.
//! Sequential state is kept per lane; arithmetic ripples carries across
//! bit columns; X propagation uses a defined-plane per column. Designs
//! the lane engine cannot pack exactly (tri-state nets, `inout` ports)
//! are rejected at construction and fall back to scalar runs.

use crate::error::SimError;
use crate::netlist_sim::{EdgeInputs, NetlistComponent};
use crate::signal::{BusAccess, SignalId};
use hdp_hdl::prim::{CmpKind, GateOp, Prim};
use hdp_hdl::{LogicVector, Netlist, PortDir};
use std::collections::VecDeque;
use std::sync::Arc;

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

/// A frozen design lowered to a flat word-level op stream.
///
/// Value-independent: the program captures net layout, masks and ops
/// but no simulation state, so it can ride inside a
/// [`crate::CompiledPlan`] and be reused by every job of the same
/// design (the service's content-addressed cache does exactly that).
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
    /// Cell count of the source netlist, for install-time validation.
    pub(crate) n_cells: u32,
}

/// Per-simulator mutable state of one lowered component: the net
/// planes (persisted across settles; after a lowered settle they, not
/// the interpreter's net cache, hold the state the next edge samples)
/// plus the input memo that lets an unchanged wake skip the op walk.
#[derive(Debug, Clone)]
pub(crate) struct LoweredScratch {
    pub(crate) v: Vec<u64>,
    pub(crate) u: Vec<u64>,
    pub(crate) z: Vec<u64>,
    in_cache: Vec<(u64, u64, u64)>,
    in_tmp: Vec<(u64, u64, u64)>,
    /// Forces the next exec to re-run the ops (set after construction,
    /// clock edges and event-driven fallbacks).
    pub(crate) dirty: bool,
}

/// A lowered unit's settled planes as the inputs of a clock edge
/// (`NetlistComponent::lowered_tick`), in place of the interpreter's
/// net cache.
pub(crate) struct Planes<'a>(pub(crate) &'a LoweredProgram, pub(crate) &'a LoweredScratch);

impl EdgeInputs for Planes<'_> {
    fn value(&self, net: usize) -> LogicVector {
        let (width, s) = (self.0.masks[net].count_ones() as usize, self.1);
        LogicVector::from_raw_masks(width, s.v[net], s.u[net], s.z[net]).expect("valid width")
    }

    fn word(&self, net: usize) -> Option<u64> {
        let s = self.1;
        ((s.u[net] | s.z[net]) & self.0.masks[net] == 0).then_some(s.v[net])
    }
}

impl LoweredScratch {
    pub(crate) fn new(prog: &LoweredProgram) -> Self {
        let n = prog.masks.len();
        Self {
            // Nets start all-X, like the interpreter's unknown-filled
            // net cache.
            v: vec![0; n],
            u: prog.masks.clone(),
            z: vec![0; n],
            in_cache: vec![(u64::MAX, u64::MAX, u64::MAX); prog.in_ports.len()],
            in_tmp: Vec::with_capacity(prog.in_ports.len()),
            dirty: true,
        }
    }
}

/// Four-state resolution of `new` into the existing planes, the
/// word-parallel form of `LogicVector::resolve`: Z yields, agreement
/// keeps the value, conflict and X produce X.
#[inline]
fn resolve_planes(
    m: u64,
    (va, ua, za): (u64, u64, u64),
    (vb, ub, zb): (u64, u64, u64),
) -> (u64, u64, u64) {
    let da = m & !(ua | za);
    let db = m & !(ub | zb);
    let agree = da & db & !(va ^ vb);
    let def = (db & za) | (da & zb) | agree;
    let z = za & zb;
    let v = (vb & za) | (va & zb) | (va & agree);
    (v & def, m & !(def | z), z)
}

#[inline]
fn store(
    scratch: &mut LoweredScratch,
    masks: &[u64],
    out: u32,
    planes: (u64, u64, u64),
    resolve: bool,
) {
    let o = out as usize;
    let (v, u, z) = if resolve {
        resolve_planes(masks[o], (scratch.v[o], scratch.u[o], scratch.z[o]), planes)
    } else {
        planes
    };
    scratch.v[o] = v;
    scratch.u[o] = u;
    scratch.z[o] = z;
}

/// Ternary truth-table evaluation on raw planes; mirrors the
/// enumeration in `Prim::eval_comb` bit for bit (same LSB-first index
/// assembly, same `MAX_X_ENUM` give-up).
fn eval_table(
    ins: &[(u32, u32)],
    table: &[u64],
    mask: u64,
    v: &[u64],
    u: &[u64],
    z: &[u64],
) -> (u64, u64, u64) {
    let mut known: u64 = 0;
    let mut x_positions = [0u32; MAX_X_ENUM];
    let mut n_x = 0;
    let mut bit_pos = 0u32;
    for &(net, width) in ins {
        let n = net as usize;
        let undef = u[n] | z[n];
        for i in 0..width {
            if undef >> i & 1 == 1 {
                if n_x == MAX_X_ENUM {
                    return (0, mask, 0);
                }
                x_positions[n_x] = bit_pos;
                n_x += 1;
            } else if v[n] >> i & 1 == 1 {
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
    (ones, mask & !(ones | zeros), 0)
}

/// Executes one op against the scratch planes.
#[inline]
fn exec_op(op: &LoweredOp, prog: &LoweredProgram, s: &mut LoweredScratch) {
    let masks = &prog.masks;
    match op {
        LoweredOp::Const {
            out,
            v,
            u,
            z,
            resolve,
        } => store(s, masks, *out, (*v, *u, *z), *resolve),
        LoweredOp::Buf { a, out, resolve } => {
            let a = *a as usize;
            let planes = (s.v[a], s.u[a], s.z[a]);
            store(s, masks, *out, planes, *resolve);
        }
        LoweredOp::Not { a, out, resolve } => {
            let ai = *a as usize;
            let m = masks[*out as usize];
            let planes = if (s.u[ai] | s.z[ai]) & m != 0 {
                (0, m, 0)
            } else {
                (!s.v[ai] & m, 0, 0)
            };
            store(s, masks, *out, planes, *resolve);
        }
        LoweredOp::Gate {
            op,
            a,
            b,
            out,
            resolve,
        } => {
            let (ai, bi) = (*a as usize, *b as usize);
            let m = masks[*out as usize];
            let da = m & !(s.u[ai] | s.z[ai]);
            let db = m & !(s.u[bi] | s.z[bi]);
            let (va, vb) = (s.v[ai], s.v[bi]);
            let planes = match op {
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
            };
            store(s, masks, *out, planes, *resolve);
        }
        LoweredOp::ReduceOr { a, out, resolve } => {
            let ai = *a as usize;
            let am = masks[ai];
            let planes = if s.v[ai] & am != 0 {
                (1, 0, 0)
            } else if (s.u[ai] | s.z[ai]) & am != 0 {
                (0, 1, 0)
            } else {
                (0, 0, 0)
            };
            store(s, masks, *out, planes, *resolve);
        }
        LoweredOp::ReduceAnd { a, out, resolve } => {
            let ai = *a as usize;
            let am = masks[ai];
            let da = am & !(s.u[ai] | s.z[ai]);
            let planes = if da & !s.v[ai] != 0 {
                (0, 0, 0)
            } else if (s.u[ai] | s.z[ai]) & am != 0 {
                (0, 1, 0)
            } else {
                (1, 0, 0)
            };
            store(s, masks, *out, planes, *resolve);
        }
        LoweredOp::Add { a, b, out, resolve } => {
            let (ai, bi) = (*a as usize, *b as usize);
            let m = masks[*out as usize];
            let planes = if (s.u[ai] | s.z[ai] | s.u[bi] | s.z[bi]) & m != 0 {
                (0, m, 0)
            } else {
                (s.v[ai].wrapping_add(s.v[bi]) & m, 0, 0)
            };
            store(s, masks, *out, planes, *resolve);
        }
        LoweredOp::Sub { a, b, out, resolve } => {
            let (ai, bi) = (*a as usize, *b as usize);
            let m = masks[*out as usize];
            let planes = if (s.u[ai] | s.z[ai] | s.u[bi] | s.z[bi]) & m != 0 {
                (0, m, 0)
            } else {
                (s.v[ai].wrapping_sub(s.v[bi]) & m, 0, 0)
            };
            store(s, masks, *out, planes, *resolve);
        }
        LoweredOp::Inc { a, out, resolve } => {
            let ai = *a as usize;
            let m = masks[*out as usize];
            let planes = if (s.u[ai] | s.z[ai]) & m != 0 {
                (0, m, 0)
            } else {
                (s.v[ai].wrapping_add(1) & m, 0, 0)
            };
            store(s, masks, *out, planes, *resolve);
        }
        LoweredOp::Cmp {
            kind,
            a,
            b,
            out,
            resolve,
        } => {
            let (ai, bi) = (*a as usize, *b as usize);
            let am = masks[ai];
            let planes = if (s.u[ai] | s.z[ai] | s.u[bi] | s.z[bi]) & am != 0 {
                (0, 1, 0)
            } else {
                let (va, vb) = (s.v[ai], s.v[bi]);
                let y = match kind {
                    CmpKind::Eq => va == vb,
                    CmpKind::Ne => va != vb,
                    CmpKind::Lt => va < vb,
                    CmpKind::Ge => va >= vb,
                };
                (u64::from(y), 0, 0)
            };
            store(s, masks, *out, planes, *resolve);
        }
        LoweredOp::Mux {
            sel,
            ins,
            out,
            resolve,
        } => {
            let si = *sel as usize;
            let sm = masks[si];
            let m = masks[*out as usize];
            let planes = if (s.u[si] | s.z[si]) & sm != 0 {
                (0, m, 0)
            } else {
                let idx = s.v[si] as usize;
                match ins.get(idx) {
                    Some(&n) => {
                        let n = n as usize;
                        (s.v[n], s.u[n], s.z[n])
                    }
                    None => (0, m, 0),
                }
            };
            store(s, masks, *out, planes, *resolve);
        }
        LoweredOp::Slice {
            a,
            low,
            out,
            resolve,
        } => {
            let ai = *a as usize;
            let m = masks[*out as usize];
            let planes = (s.v[ai] >> low & m, s.u[ai] >> low & m, s.z[ai] >> low & m);
            store(s, masks, *out, planes, *resolve);
        }
        LoweredOp::Concat { ins, out, resolve } => {
            let (mut v, mut u, mut z) = (0u64, 0u64, 0u64);
            for &(n, w) in ins {
                let n = n as usize;
                v = v << w | s.v[n];
                u = u << w | s.u[n];
                z = z << w | s.z[n];
            }
            store(s, masks, *out, (v, u, z), *resolve);
        }
        LoweredOp::Table {
            ins,
            table,
            out,
            resolve,
        } => {
            let m = masks[*out as usize];
            let planes = eval_table(ins, table, m, &s.v, &s.u, &s.z);
            store(s, masks, *out, planes, *resolve);
        }
        LoweredOp::TriBuf {
            en,
            a,
            out,
            resolve,
        } => {
            let (ei, ai) = (*en as usize, *a as usize);
            let m = masks[*out as usize];
            let planes = if (s.u[ei] | s.z[ei]) & 1 != 0 {
                (0, m, 0)
            } else if s.v[ei] & 1 == 1 {
                (s.v[ai], s.u[ai], s.z[ai])
            } else {
                (0, 0, m)
            };
            store(s, masks, *out, planes, *resolve);
        }
    }
}

/// Settles one lowered component against the scheduler bus: the
/// drop-in replacement for `NetlistComponent::eval` on the compiled
/// rank walk. Reads `In` ports, presents sequential outputs (the
/// interpreter's own `seq_outputs`), walks the op stream and drives
/// `Out` ports — phase for phase the interpreter's `eval_full`, on flat
/// planes. Nothing is written back into the interpreter: the planes
/// stay the settled state until the next interpreted eval, and the
/// clock edge reads them through [`Planes`]. When neither the inputs
/// nor the sequential state changed since the last walk, the ops are skipped
/// and the (provably unchanged) outputs are just re-driven, which keeps
/// shared-bus resolution waves intact. Returns the number of word ops
/// executed (`0` on a memo hit).
pub(crate) fn exec_settle(
    prog: &LoweredProgram,
    scratch: &mut LoweredScratch,
    comp: &mut NetlistComponent,
    bus: &mut impl BusAccess,
) -> Result<u64, SimError> {
    // 1. Read input ports and compare against the memo.
    scratch.in_tmp.clear();
    let mut changed = scratch.dirty;
    for (k, &(_, signal)) in prog.in_ports.iter().enumerate() {
        let planes = bus.read(signal)?.raw_masks();
        if scratch.in_cache[k] != planes {
            changed = true;
        }
        scratch.in_tmp.push(planes);
    }
    let mut ops = 0u64;
    if changed {
        for (k, &(net, _)) in prog.in_ports.iter().enumerate() {
            let (v, u, z) = scratch.in_tmp[k];
            scratch.in_cache[k] = (v, u, z);
            let n = net as usize;
            scratch.v[n] = v;
            scratch.u[n] = u;
            scratch.z[n] = z;
        }
        // 2. Present sequential outputs.
        for &ci in comp.seq_cells() {
            for (net, value) in comp.seq_outputs(ci) {
                let (v, u, z) = value.raw_masks();
                scratch.v[net] = v;
                scratch.u[net] = u;
                scratch.z[net] = z;
            }
        }
        // 3. Pre-release shared tri-state nets.
        for &n in &prog.shared_z {
            let n = n as usize;
            scratch.v[n] = 0;
            scratch.u[n] = 0;
            scratch.z[n] = prog.masks[n];
        }
        // 4. The flat op walk — the hot loop.
        for op in &prog.ops {
            exec_op(op, prog, scratch);
        }
        ops = prog.ops.len() as u64;
        // The planes now hold every settled net, sequential inputs
        // included: the next clock edge samples them there.
        comp.mark_lowered_settle();
        scratch.dirty = false;
    }
    // 5. Drive output ports (every wake, like the interpreter, so
    // shared-signal resolution sees every driver's contribution).
    for &(net, signal) in &prog.out_ports {
        let n = net as usize;
        let width = prog.masks[n].count_ones() as usize;
        let value = LogicVector::from_raw_masks(width, scratch.v[n], scratch.u[n], scratch.z[n])
            .map_err(SimError::from)?;
        bus.drive(signal, value)?;
    }
    Ok(ops)
}

impl LoweredProgram {
    /// Lowers a validated netlist plus its port wiring into an op
    /// stream. Infallible for anything `NetlistComponent` accepts —
    /// the component has already rejected inout ports and
    /// combinational cycles — but returns a reason string for shapes
    /// that cannot be lowered so callers can fall back and report.
    pub(crate) fn try_lower(
        netlist: &Netlist,
        port_wiring: &[(String, PortDir, hdp_hdl::NetId, SignalId)],
    ) -> Result<Self, String> {
        let nets = netlist.nets();
        let masks: Vec<u64> = nets.iter().map(|n| width_mask(n.width())).collect();
        let topo = netlist
            .comb_topo_order()
            .map_err(|e| format!("combinational cycle: {e}"))?;

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

        let mut in_ports = Vec::new();
        let mut out_ports = Vec::new();
        for (_, dir, net, signal) in port_wiring {
            match dir {
                PortDir::In => in_ports.push((net.index() as u32, *signal)),
                PortDir::Out => out_ports.push((net.index() as u32, *signal)),
                PortDir::InOut => {
                    return Err("inout port cannot be lowered".into());
                }
            }
        }

        Ok(Self {
            masks,
            shared_z,
            ops,
            in_ports,
            out_ports,
            n_cells: netlist.cells().len() as u32,
        })
    }

    /// Whether this program still matches a component (used when a
    /// cached plan is installed into a fresh simulator).
    pub(crate) fn matches(&self, comp: &NetlistComponent) -> bool {
        let netlist = comp.netlist();
        netlist.cells().len() as u32 == self.n_cells && netlist.nets().len() == self.masks.len()
    }
}

// ---------------------------------------------------------------------
// 64-way bit-parallel lane engine
// ---------------------------------------------------------------------

/// One column operation of a [`LaneBatch`] program. Operands are
/// *column* indices: column `c` holds one bit of one net across all 64
/// lanes (`val` plane plus `def` plane; no Z plane — tri-state designs
/// are rejected at construction, and without tri-state sources no Z
/// can arise).
#[derive(Debug, Clone)]
enum ColOp {
    Const {
        out: u32,
        w: u32,
        bits: u64,
        xbits: u64,
    },
    Copy {
        a: u32,
        out: u32,
        w: u32,
    },
    Not {
        a: u32,
        out: u32,
        w: u32,
    },
    Gate {
        op: GateOp,
        a: u32,
        b: u32,
        out: u32,
        w: u32,
    },
    ReduceOr {
        a: u32,
        out: u32,
        w: u32,
    },
    ReduceAnd {
        a: u32,
        out: u32,
        w: u32,
    },
    Add {
        a: u32,
        b: u32,
        out: u32,
        w: u32,
    },
    Sub {
        a: u32,
        b: u32,
        out: u32,
        w: u32,
    },
    Inc {
        a: u32,
        out: u32,
        w: u32,
    },
    Cmp {
        kind: CmpKind,
        a: u32,
        sw: u32,
        b: u32,
        out: u32,
    },
    Mux {
        sel: u32,
        sw: u32,
        ins: Vec<u32>,
        out: u32,
        w: u32,
    },
    /// Per-output-column source list (Concat is pure wiring).
    Wire {
        srcs: Vec<u32>,
        out: u32,
    },
    Table {
        ins: Vec<(u32, u32)>,
        table: Arc<Vec<u64>>,
        out: u32,
        w: u32,
    },
}

/// Pending column writes from sequential presentation: net offset,
/// width, and one `(value, defined)` plane pair per bit column.
type SeqWrites = Vec<(u32, u32, Vec<(u64, u64)>)>;

/// Per-lane sequential state of one cell.
#[derive(Debug, Clone)]
enum LaneSeq {
    Reg {
        d: u32,
        en: Option<u32>,
        out: u32,
        w: u32,
        /// State bit columns (value/defined), lane-packed like nets.
        sv: Vec<u64>,
        sd: Vec<u64>,
        reset_value: u64,
    },
    Bram {
        /// Cell instance name, for protocol errors.
        cell: String,
        we: u32,
        waddr: u32,
        aw: u32,
        wdata: u32,
        raddr: u32,
        out: u32,
        w: u32,
        mem: Vec<Vec<Option<u64>>>,
        rdout: Vec<Option<u64>>,
    },
    Fifo {
        /// Cell instance name, for protocol errors.
        cell: String,
        push: u32,
        pop: u32,
        wdata: u32,
        front: u32,
        empty: u32,
        full: u32,
        w: u32,
        depth: usize,
        data: Vec<VecDeque<u64>>,
    },
    Lifo {
        /// Cell instance name, for protocol errors.
        cell: String,
        push: u32,
        pop: u32,
        wdata: u32,
        top: u32,
        empty: u32,
        full: u32,
        w: u32,
        depth: usize,
        data: Vec<Vec<u64>>,
    },
}

/// A 64-way bit-parallel simulation of one design: 64 independent
/// stimulus lanes packed one-per-bit into u64 columns, advanced by a
/// single lowered settle per delta and a single tick per clock edge.
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
    /// Column planes: bit `k` of a word belongs to lane `k`.
    val: Vec<u64>,
    def: Vec<u64>,
    /// First column of each net.
    base: Vec<u32>,
    ops: Vec<ColOp>,
    seq: Vec<LaneSeq>,
    in_ports: Vec<(String, usize, usize)>,
    out_ports: Vec<(String, usize, usize)>,
    settles: u64,
    ticks: u64,
}

fn lane_bit(word: u64, lane: usize) -> u64 {
    word >> lane & 1
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
        let refuse = |message: String| SimError::Protocol {
            component: name.clone(),
            message,
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
                "lane packing refused: {culprit} (lanes share one clock edge; multi-domain \
                 designs need the event-driven scheduler)"
            )));
        }
        let nets = netlist.nets();
        let topo = netlist
            .comb_topo_order()
            .map_err(|e| refuse(format!("lane packing refused: {e}")))?;

        let mut comb_drivers = vec![0u32; nets.len()];
        for cell in netlist.cells() {
            if cell.prim().is_sequential() {
                continue;
            }
            for out in cell.outputs() {
                comb_drivers[out.index()] += 1;
            }
        }
        if let Some((n, _)) = comb_drivers.iter().enumerate().find(|&(_, &c)| c > 1) {
            return Err(refuse(format!(
                "lane packing refused: net `{}` has multiple drivers (tri-state bus)",
                nets[n].name()
            )));
        }

        // Column layout: one (val, def) u64 pair per net bit.
        let mut base = Vec::with_capacity(nets.len());
        let mut cols = 0u32;
        for net in nets {
            base.push(cols);
            cols += net.width() as u32;
        }

        let mut ops = Vec::with_capacity(topo.len());
        for &ci in &topo {
            let cell = netlist.cell(ci);
            let ins = cell.inputs();
            let outs = cell.outputs();
            let nb = |i: usize| base[ins[i].index()];
            let nw = |i: usize| nets[ins[i].index()].width() as u32;
            let out = base[outs[0].index()];
            let w = nets[outs[0].index()].width() as u32;
            let op = match cell.prim() {
                Prim::Const { value } => {
                    let (v, u, z) = value.raw_masks();
                    if z != 0 {
                        return Err(refuse(format!(
                            "lane packing refused: constant `{}` drives high-Z bits",
                            cell.name()
                        )));
                    }
                    ColOp::Const {
                        out,
                        w,
                        bits: v,
                        xbits: u,
                    }
                }
                Prim::Buf { .. } => ColOp::Copy { a: nb(0), out, w },
                Prim::Not { .. } => ColOp::Not { a: nb(0), out, w },
                Prim::Gate { op, .. } => ColOp::Gate {
                    op: *op,
                    a: nb(0),
                    b: nb(1),
                    out,
                    w,
                },
                Prim::ReduceOr { .. } => ColOp::ReduceOr {
                    a: nb(0),
                    out,
                    w: nw(0),
                },
                Prim::ReduceAnd { .. } => ColOp::ReduceAnd {
                    a: nb(0),
                    out,
                    w: nw(0),
                },
                Prim::Add { .. } => ColOp::Add {
                    a: nb(0),
                    b: nb(1),
                    out,
                    w,
                },
                Prim::Sub { .. } => ColOp::Sub {
                    a: nb(0),
                    b: nb(1),
                    out,
                    w,
                },
                Prim::Inc { .. } => ColOp::Inc { a: nb(0), out, w },
                Prim::Cmp { kind, .. } => ColOp::Cmp {
                    kind: *kind,
                    a: nb(0),
                    sw: nw(0),
                    b: nb(1),
                    out,
                },
                Prim::Mux { .. } => ColOp::Mux {
                    sel: nb(0),
                    sw: nw(0),
                    ins: (1..ins.len()).map(nb).collect(),
                    out,
                    w,
                },
                Prim::Slice { low, .. } => ColOp::Copy {
                    a: nb(0) + *low as u32,
                    out,
                    w,
                },
                Prim::Concat { .. } => {
                    // MSB-first pins: the first input occupies the top
                    // columns of the output.
                    let mut srcs = vec![0u32; w as usize];
                    let mut top = w;
                    for (i, _) in ins.iter().enumerate() {
                        let iw = nw(i);
                        top -= iw;
                        for j in 0..iw {
                            srcs[(top + j) as usize] = nb(i) + j;
                        }
                    }
                    ColOp::Wire { srcs, out }
                }
                Prim::TruthTable { table, .. } => ColOp::Table {
                    ins: ins
                        .iter()
                        .rev()
                        .map(|n| (base[n.index()], nets[n.index()].width() as u32))
                        .collect(),
                    table: Arc::new(table.clone()),
                    out,
                    w,
                },
                Prim::TriBuf { .. } => {
                    return Err(refuse(format!(
                        "lane packing refused: tri-state buffer `{}`",
                        cell.name()
                    )));
                }
                Prim::Reg { .. }
                | Prim::BlockRam { .. }
                | Prim::FifoMacro { .. }
                | Prim::LifoMacro { .. } => continue,
            };
            ops.push(op);
        }

        let mut seq = Vec::new();
        for cell in netlist.cells() {
            let ins = cell.inputs();
            let outs = cell.outputs();
            match cell.prim() {
                Prim::Reg {
                    width,
                    has_enable,
                    reset_value,
                } => seq.push(LaneSeq::Reg {
                    d: base[ins[0].index()],
                    en: has_enable.then(|| base[ins[1].index()]),
                    out: base[outs[0].index()],
                    w: *width as u32,
                    sv: vec![0; *width],
                    sd: vec![0; *width],
                    reset_value: *reset_value,
                }),
                Prim::BlockRam {
                    addr_width,
                    data_width,
                } => seq.push(LaneSeq::Bram {
                    cell: cell.name().to_owned(),
                    we: base[ins[0].index()],
                    waddr: base[ins[1].index()],
                    aw: *addr_width as u32,
                    wdata: base[ins[2].index()],
                    raddr: base[ins[3].index()],
                    out: base[outs[0].index()],
                    w: *data_width as u32,
                    mem: vec![vec![None; 1 << addr_width]; LANES],
                    rdout: vec![None; LANES],
                }),
                Prim::FifoMacro { depth, width } => seq.push(LaneSeq::Fifo {
                    cell: cell.name().to_owned(),
                    push: base[ins[0].index()],
                    pop: base[ins[1].index()],
                    wdata: base[ins[2].index()],
                    front: base[outs[0].index()],
                    empty: base[outs[1].index()],
                    full: base[outs[2].index()],
                    w: *width as u32,
                    depth: *depth,
                    data: vec![VecDeque::new(); LANES],
                }),
                Prim::LifoMacro { depth, width } => seq.push(LaneSeq::Lifo {
                    cell: cell.name().to_owned(),
                    push: base[ins[0].index()],
                    pop: base[ins[1].index()],
                    wdata: base[ins[2].index()],
                    top: base[outs[0].index()],
                    empty: base[outs[1].index()],
                    full: base[outs[2].index()],
                    w: *width as u32,
                    depth: *depth,
                    data: vec![Vec::new(); LANES],
                }),
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
                    return Err(refuse(format!(
                        "lane packing refused: inout port `{}`",
                        binding.port()
                    )));
                }
            }
        }

        Ok(Self {
            name,
            val: vec![0; cols as usize],
            def: vec![0; cols as usize],
            base,
            ops,
            seq,
            in_ports,
            out_ports,
            settles: 0,
            ticks: 0,
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

    fn find_in(&self, port: &str) -> Result<(usize, usize), SimError> {
        self.in_ports
            .iter()
            .find(|(n, _, _)| n == port)
            .map(|&(_, net, w)| (net, w))
            .ok_or_else(|| SimError::Protocol {
                component: self.name.clone(),
                message: format!("unknown input port `{port}`"),
            })
    }

    /// Drives a defined value on an input port of one lane. The value
    /// persists until the next poke, like a simulator poke.
    ///
    /// # Errors
    ///
    /// [`SimError::Protocol`] for an unknown port, lane or oversized
    /// value.
    pub fn poke(&mut self, port: &str, lane: usize, value: u64) -> Result<(), SimError> {
        let (net, w) = self.find_in(port)?;
        if lane >= LANES {
            return Err(SimError::Protocol {
                component: self.name.clone(),
                message: format!("lane {lane} out of range"),
            });
        }
        if w < 64 && value >> w != 0 {
            return Err(SimError::Protocol {
                component: self.name.clone(),
                message: format!("value {value:#x} exceeds {w}-bit port `{port}`"),
            });
        }
        let b = self.base[net] as usize;
        let m = 1u64 << lane;
        for i in 0..w {
            if value >> i & 1 == 1 {
                self.val[b + i] |= m;
            } else {
                self.val[b + i] &= !m;
            }
            self.def[b + i] |= m;
        }
        Ok(())
    }

    /// Drives the same defined value on an input port of every lane.
    ///
    /// # Errors
    ///
    /// As [`LaneBatch::poke`].
    pub fn poke_all(&mut self, port: &str, value: u64) -> Result<(), SimError> {
        let (net, w) = self.find_in(port)?;
        if w < 64 && value >> w != 0 {
            return Err(SimError::Protocol {
                component: self.name.clone(),
                message: format!("value {value:#x} exceeds {w}-bit port `{port}`"),
            });
        }
        let b = self.base[net] as usize;
        for i in 0..w {
            self.val[b + i] = if value >> i & 1 == 1 { u64::MAX } else { 0 };
            self.def[b + i] = u64::MAX;
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
        let (net, w) = self
            .out_ports
            .iter()
            .chain(self.in_ports.iter())
            .find(|(n, _, _)| n == port)
            .map(|&(_, net, w)| (net, w))
            .ok_or_else(|| SimError::Protocol {
                component: self.name.clone(),
                message: format!("unknown port `{port}`"),
            })?;
        if lane >= LANES {
            return Err(SimError::Protocol {
                component: self.name.clone(),
                message: format!("lane {lane} out of range"),
            });
        }
        let b = self.base[net] as usize;
        let (mut v, mut u) = (0u64, 0u64);
        for i in 0..w {
            v |= lane_bit(self.val[b + i], lane) << i;
            u |= (1 - lane_bit(self.def[b + i], lane)) << i;
        }
        LogicVector::from_raw_masks(w, v, u, 0).map_err(SimError::from)
    }

    fn gather(&self, col: u32, w: u32, lane: usize) -> (u64, bool) {
        let b = col as usize;
        let (mut v, mut defined) = (0u64, true);
        for i in 0..w as usize {
            v |= lane_bit(self.val[b + i], lane) << i;
            defined &= lane_bit(self.def[b + i], lane) == 1;
        }
        (v, defined)
    }

    /// Restores power-on state in every lane: registers to their reset
    /// values, FIFOs/LIFOs empty, RAM read ports undefined. Poked
    /// inputs are cleared back to undefined.
    pub fn reset(&mut self) {
        for word in &mut self.val {
            *word = 0;
        }
        for word in &mut self.def {
            *word = 0;
        }
        for s in &mut self.seq {
            match s {
                LaneSeq::Reg {
                    sv,
                    sd,
                    reset_value,
                    ..
                } => {
                    for (i, col) in sv.iter_mut().enumerate() {
                        *col = if *reset_value >> i & 1 == 1 {
                            u64::MAX
                        } else {
                            0
                        };
                    }
                    for col in sd.iter_mut() {
                        *col = u64::MAX;
                    }
                }
                LaneSeq::Bram { rdout, .. } => {
                    for o in rdout.iter_mut() {
                        *o = None;
                    }
                }
                LaneSeq::Fifo { data, .. } => {
                    for d in data.iter_mut() {
                        d.clear();
                    }
                }
                LaneSeq::Lifo { data, .. } => {
                    for d in data.iter_mut() {
                        d.clear();
                    }
                }
            }
        }
    }

    fn present_seq(&mut self) {
        // Split borrows: sequential presentation writes whole columns.
        let mut writes: SeqWrites = Vec::new();
        for s in &self.seq {
            match s {
                LaneSeq::Reg { out, w, sv, sd, .. } => {
                    let cols = (0..*w as usize).map(|i| (sv[i], sd[i])).collect();
                    writes.push((*out, *w, cols));
                }
                LaneSeq::Bram { out, w, rdout, .. } => {
                    writes.push((*out, *w, lane_cols(rdout, *w)));
                }
                LaneSeq::Fifo {
                    front,
                    empty,
                    full,
                    w,
                    depth,
                    data,
                    ..
                } => {
                    let fronts: Vec<Option<u64>> =
                        data.iter().map(|d| d.front().copied()).collect();
                    writes.push((*front, *w, lane_cols(&fronts, *w)));
                    let empties: Vec<Option<u64>> =
                        data.iter().map(|d| Some(u64::from(d.is_empty()))).collect();
                    writes.push((*empty, 1, lane_cols(&empties, 1)));
                    let fulls: Vec<Option<u64>> = data
                        .iter()
                        .map(|d| Some(u64::from(d.len() >= *depth)))
                        .collect();
                    writes.push((*full, 1, lane_cols(&fulls, 1)));
                }
                LaneSeq::Lifo {
                    top,
                    empty,
                    full,
                    w,
                    depth,
                    data,
                    ..
                } => {
                    let tops: Vec<Option<u64>> = data.iter().map(|d| d.last().copied()).collect();
                    writes.push((*top, *w, lane_cols(&tops, *w)));
                    let empties: Vec<Option<u64>> =
                        data.iter().map(|d| Some(u64::from(d.is_empty()))).collect();
                    writes.push((*empty, 1, lane_cols(&empties, 1)));
                    let fulls: Vec<Option<u64>> = data
                        .iter()
                        .map(|d| Some(u64::from(d.len() >= *depth)))
                        .collect();
                    writes.push((*full, 1, lane_cols(&fulls, 1)));
                }
            }
        }
        for (out, w, cols) in writes {
            let b = out as usize;
            for (i, (v, d)) in cols.into_iter().enumerate().take(w as usize) {
                self.val[b + i] = v;
                self.def[b + i] = d;
            }
        }
    }

    /// Settles all 64 lanes: presents sequential outputs and runs the
    /// column program once in topological order (a feed-forward netlist
    /// needs exactly one sweep).
    pub fn settle(&mut self) {
        self.settles += 1;
        self.present_seq();
        // The hot loop: every op advances 64 lanes at once.
        let mut ops = std::mem::take(&mut self.ops);
        for op in &ops {
            self.exec_col_op(op);
        }
        std::mem::swap(&mut self.ops, &mut ops);
    }

    #[allow(clippy::too_many_lines)]
    fn exec_col_op(&mut self, op: &ColOp) {
        match op {
            ColOp::Const {
                out,
                w,
                bits,
                xbits,
            } => {
                let b = *out as usize;
                for i in 0..*w as usize {
                    self.val[b + i] = if bits >> i & 1 == 1 { u64::MAX } else { 0 };
                    self.def[b + i] = if xbits >> i & 1 == 1 { 0 } else { u64::MAX };
                }
            }
            ColOp::Copy { a, out, w } => {
                let (a, b) = (*a as usize, *out as usize);
                for i in 0..*w as usize {
                    self.val[b + i] = self.val[a + i];
                    self.def[b + i] = self.def[a + i];
                }
            }
            ColOp::Not { a, out, w } => {
                let (a, b) = (*a as usize, *out as usize);
                let mut pois = 0u64;
                for i in 0..*w as usize {
                    pois |= !self.def[a + i];
                }
                for i in 0..*w as usize {
                    self.def[b + i] = !pois;
                    self.val[b + i] = !self.val[a + i] & !pois;
                }
            }
            ColOp::Gate { op, a, b, out, w } => {
                let (a, bb, o) = (*a as usize, *b as usize, *out as usize);
                for i in 0..*w as usize {
                    let (va, da) = (self.val[a + i], self.def[a + i]);
                    let (vb, db) = (self.val[bb + i], self.def[bb + i]);
                    let (v, d) = match op {
                        GateOp::And => {
                            let one = va & vb;
                            let zero = (da & !va) | (db & !vb);
                            (one, one | zero)
                        }
                        GateOp::Or => {
                            let one = va | vb;
                            let zero = da & !va & db & !vb;
                            (one, one | zero)
                        }
                        GateOp::Xor => {
                            let dd = da & db;
                            ((va ^ vb) & dd, dd)
                        }
                    };
                    self.val[o + i] = v;
                    self.def[o + i] = d;
                }
            }
            ColOp::ReduceOr { a, out, w } => {
                let (a, o) = (*a as usize, *out as usize);
                let (mut one, mut alldef) = (0u64, u64::MAX);
                for i in 0..*w as usize {
                    one |= self.val[a + i];
                    alldef &= self.def[a + i];
                }
                self.val[o] = one;
                self.def[o] = one | alldef;
            }
            ColOp::ReduceAnd { a, out, w } => {
                let (a, o) = (*a as usize, *out as usize);
                let (mut zero, mut alldef) = (0u64, u64::MAX);
                for i in 0..*w as usize {
                    zero |= self.def[a + i] & !self.val[a + i];
                    alldef &= self.def[a + i];
                }
                self.val[o] = alldef & !zero;
                self.def[o] = zero | alldef;
            }
            ColOp::Add { a, b, out, w } => {
                let (a, bb, o) = (*a as usize, *b as usize, *out as usize);
                let mut pois = 0u64;
                for i in 0..*w as usize {
                    pois |= !self.def[a + i] | !self.def[bb + i];
                }
                let mut carry = 0u64;
                for i in 0..*w as usize {
                    let (va, vb) = (self.val[a + i], self.val[bb + i]);
                    self.val[o + i] = (va ^ vb ^ carry) & !pois;
                    self.def[o + i] = !pois;
                    carry = (va & vb) | (carry & (va ^ vb));
                }
            }
            ColOp::Sub { a, b, out, w } => {
                let (a, bb, o) = (*a as usize, *b as usize, *out as usize);
                let mut pois = 0u64;
                for i in 0..*w as usize {
                    pois |= !self.def[a + i] | !self.def[bb + i];
                }
                let mut carry = u64::MAX;
                for i in 0..*w as usize {
                    let (va, nb) = (self.val[a + i], !self.val[bb + i]);
                    self.val[o + i] = (va ^ nb ^ carry) & !pois;
                    self.def[o + i] = !pois;
                    carry = (va & nb) | (carry & (va ^ nb));
                }
            }
            ColOp::Inc { a, out, w } => {
                let (a, o) = (*a as usize, *out as usize);
                let mut pois = 0u64;
                for i in 0..*w as usize {
                    pois |= !self.def[a + i];
                }
                let mut carry = u64::MAX;
                for i in 0..*w as usize {
                    let va = self.val[a + i];
                    self.val[o + i] = (va ^ carry) & !pois;
                    self.def[o + i] = !pois;
                    carry &= va;
                }
            }
            ColOp::Cmp {
                kind,
                a,
                sw,
                b,
                out,
            } => {
                let (a, bb, o) = (*a as usize, *b as usize, *out as usize);
                let mut pois = 0u64;
                for i in 0..*sw as usize {
                    pois |= !self.def[a + i] | !self.def[bb + i];
                }
                let y = match kind {
                    CmpKind::Eq | CmpKind::Ne => {
                        let mut eq = u64::MAX;
                        for i in 0..*sw as usize {
                            eq &= !(self.val[a + i] ^ self.val[bb + i]);
                        }
                        if *kind == CmpKind::Eq {
                            eq
                        } else {
                            !eq
                        }
                    }
                    CmpKind::Lt | CmpKind::Ge => {
                        let (mut lt, mut decided) = (0u64, 0u64);
                        for i in (0..*sw as usize).rev() {
                            let diff = self.val[a + i] ^ self.val[bb + i];
                            lt |= diff & !decided & !self.val[a + i];
                            decided |= diff;
                        }
                        if *kind == CmpKind::Lt {
                            lt
                        } else {
                            !lt
                        }
                    }
                };
                self.val[o] = y & !pois;
                self.def[o] = !pois;
            }
            ColOp::Mux {
                sel,
                sw,
                ins,
                out,
                w,
            } => {
                let (sc, o) = (*sel as usize, *out as usize);
                let mut sd = u64::MAX;
                for i in 0..*sw as usize {
                    sd &= self.def[sc + i];
                }
                for i in 0..*w as usize {
                    self.val[o + i] = 0;
                    self.def[o + i] = 0;
                }
                for (j, &inb) in ins.iter().enumerate() {
                    // Lanes whose (defined) select equals j.
                    let mut eq = sd;
                    for i in 0..*sw as usize {
                        let jb = if j >> i & 1 == 1 { u64::MAX } else { 0 };
                        eq &= !(self.val[sc + i] ^ jb);
                    }
                    if eq == 0 {
                        continue;
                    }
                    let inb = inb as usize;
                    for i in 0..*w as usize {
                        self.val[o + i] |= eq & self.val[inb + i];
                        self.def[o + i] |= eq & self.def[inb + i];
                    }
                }
            }
            ColOp::Wire { srcs, out } => {
                let o = *out as usize;
                for (i, &src) in srcs.iter().enumerate() {
                    self.val[o + i] = self.val[src as usize];
                    self.def[o + i] = self.def[src as usize];
                }
            }
            ColOp::Table { ins, table, out, w } => {
                let o = *out as usize;
                let mask = width_mask(*w as usize);
                let mut out_v = [0u64; 64];
                let mut out_d = [0u64; 64];
                for lane in 0..LANES {
                    let m = 1u64 << lane;
                    let mut known = 0u64;
                    let mut x_positions: Vec<u32> = Vec::new();
                    let mut bit_pos = 0u32;
                    for &(col, width) in ins {
                        let c = col as usize;
                        for i in 0..width as usize {
                            if self.def[c + i] & m == 0 {
                                x_positions.push(bit_pos);
                            } else if self.val[c + i] & m != 0 {
                                known |= 1 << bit_pos;
                            }
                            bit_pos += 1;
                        }
                    }
                    let (ones, zeros) = if x_positions.len() > MAX_X_ENUM {
                        (0, 0)
                    } else {
                        let (mut ones, mut zeros) = (mask, mask);
                        for combo in 0..(1u64 << x_positions.len()) {
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
                    };
                    for i in 0..*w as usize {
                        if ones >> i & 1 == 1 {
                            out_v[i] |= m;
                            out_d[i] |= m;
                        } else if zeros >> i & 1 == 1 {
                            out_d[i] |= m;
                        }
                    }
                }
                let w = *w as usize;
                self.val[o..o + w].copy_from_slice(&out_v[..w]);
                self.def[o..o + w].copy_from_slice(&out_d[..w]);
            }
        }
    }

    /// Clock edge across all 64 lanes: samples settled values into
    /// sequential state, matching `NetlistComponent::tick` per lane
    /// (including protocol errors, reported with the offending lane).
    ///
    /// # Errors
    ///
    /// [`SimError::Protocol`] on FIFO/LIFO misuse or undefined RAM
    /// write strobes, exactly like the interpreter.
    pub fn tick(&mut self) -> Result<(), SimError> {
        self.ticks += 1;
        let mut seq = std::mem::take(&mut self.seq);
        let result = self.tick_seq(&mut seq);
        self.seq = seq;
        result
    }

    fn tick_seq(&mut self, seq: &mut [LaneSeq]) -> Result<(), SimError> {
        for s in seq.iter_mut() {
            match s {
                LaneSeq::Reg {
                    d, en, w, sv, sd, ..
                } => {
                    // Load mask per lane: enable defined and 1 (or no
                    // enable pin at all).
                    let le = match en {
                        Some(ec) => {
                            let e = *ec as usize;
                            self.val[e] & self.def[e]
                        }
                        None => u64::MAX,
                    };
                    let dc = *d as usize;
                    for i in 0..*w as usize {
                        sv[i] = (self.val[dc + i] & le) | (sv[i] & !le);
                        sd[i] = (self.def[dc + i] & le) | (sd[i] & !le);
                    }
                }
                LaneSeq::Bram {
                    cell,
                    we,
                    waddr,
                    aw,
                    wdata,
                    raddr,
                    w,
                    mem,
                    rdout,
                    ..
                } => {
                    let wec = *we as usize;
                    let strobe = self.val[wec] & self.def[wec];
                    for lane in 0..LANES {
                        let write = strobe >> lane & 1 == 1;
                        if write {
                            let (a, ad) = self.gather(*waddr, *aw, lane);
                            if !ad {
                                return Err(self.lane_err(lane, cell, "undefined write address"));
                            }
                            let (dv, dd) = self.gather(*wdata, *w, lane);
                            if !dd {
                                return Err(self.lane_err(lane, cell, "undefined write data"));
                            }
                            mem[lane][a as usize] = Some(dv);
                        }
                        let (ra, rd) = self.gather(*raddr, *aw, lane);
                        rdout[lane] = if rd { mem[lane][ra as usize] } else { None };
                    }
                }
                LaneSeq::Fifo {
                    cell,
                    push,
                    pop,
                    wdata,
                    w,
                    depth,
                    data,
                    ..
                } => {
                    let (pc, qc) = (*push as usize, *pop as usize);
                    let pushes = self.val[pc] & self.def[pc];
                    let pops = self.val[qc] & self.def[qc];
                    for (lane, d) in data.iter_mut().enumerate() {
                        let wd = if pushes >> lane & 1 == 1 {
                            let (dv, dd) = self.gather(*wdata, *w, lane);
                            if !dd {
                                return Err(self.lane_err(lane, cell, "undefined fifo write data"));
                            }
                            Some(dv)
                        } else {
                            None
                        };
                        if pops >> lane & 1 == 1 && d.pop_front().is_none() {
                            return Err(self.lane_err(lane, cell, "pop on empty fifo"));
                        }
                        if let Some(v) = wd {
                            if d.len() >= *depth {
                                return Err(self.lane_err(lane, cell, "push on full fifo"));
                            }
                            d.push_back(v);
                        }
                    }
                }
                LaneSeq::Lifo {
                    cell,
                    push,
                    pop,
                    wdata,
                    w,
                    depth,
                    data,
                    ..
                } => {
                    let (pc, qc) = (*push as usize, *pop as usize);
                    let pushes = self.val[pc] & self.def[pc];
                    let pops = self.val[qc] & self.def[qc];
                    for (lane, d) in data.iter_mut().enumerate() {
                        let wd = if pushes >> lane & 1 == 1 {
                            let (dv, dd) = self.gather(*wdata, *w, lane);
                            if !dd {
                                return Err(self.lane_err(lane, cell, "undefined lifo write data"));
                            }
                            Some(dv)
                        } else {
                            None
                        };
                        if pops >> lane & 1 == 1 && d.pop().is_none() {
                            return Err(self.lane_err(lane, cell, "pop on empty lifo"));
                        }
                        if let Some(v) = wd {
                            if d.len() >= *depth {
                                return Err(self.lane_err(lane, cell, "push on full lifo"));
                            }
                            d.push(v);
                        }
                    }
                }
            }
        }
        Ok(())
    }

    fn lane_err(&self, lane: usize, cell: &str, what: &str) -> SimError {
        SimError::Protocol {
            component: self.name.clone(),
            message: format!("{what} `{cell}` (lane {lane})"),
        }
    }
}

/// Transposes per-lane optional words into `(val, def)` bit columns.
fn lane_cols(values: &[Option<u64>], w: u32) -> Vec<(u64, u64)> {
    let mut cols = vec![(0u64, 0u64); w as usize];
    for (lane, v) in values.iter().enumerate() {
        if let Some(v) = v {
            let m = 1u64 << lane;
            for (i, col) in cols.iter_mut().enumerate() {
                if v >> i & 1 == 1 {
                    col.0 |= m;
                }
                col.1 |= m;
            }
        }
    }
    cols
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
                let (pv, pu, pz) = v.raw_masks();
                scratch.v[net as usize] = pv;
                scratch.u[net as usize] = pu;
                scratch.z[net as usize] = pz;
            }
            for op in &prog.ops {
                exec_op(op, &prog, &mut scratch);
            }
            let expect = prim.eval_comb(&combo).unwrap();
            for (k, e) in expect.iter().enumerate() {
                let (net, _) = prog.out_ports[k];
                let n = net as usize;
                let got = LogicVector::from_raw_masks(
                    e.width(),
                    scratch.v[n],
                    scratch.u[n],
                    scratch.z[n],
                )
                .unwrap();
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
                let (v, u, z) = (
                    planes.map(|p| p.0),
                    planes.map(|p| p.1),
                    planes.map(|p| p.2),
                );
                let (gv, gu, gz) = eval_table(&[(1, 5), (0, 6)], &table, 0x7, &v, &u, &z);
                let got = LogicVector::from_raw_masks(3, gv, gu, gz).unwrap();
                assert_eq!(got, expect, "{n_x} X bits");
                if table[0] == 5 {
                    assert_eq!(got.to_u64().is_some(), n_x <= MAX_X_ENUM, "{n_x} X bits");
                }
            }
        }
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
    fn lowered_mode_is_bit_identical_to_event_driven() {
        let (mut ev, ev_din, ev_q) = acc_sim(SchedMode::EventDriven);
        let (mut lo, lo_din, lo_q) = acc_sim(SchedMode::Lowered);
        lo.set_telemetry(TelemetryLevel::Counters);
        for c in 0..20u64 {
            let v = (c * 5 + 3) & 0xF;
            ev.poke(ev_din, v).unwrap();
            lo.poke(lo_din, v).unwrap();
            ev.step().unwrap();
            lo.step().unwrap();
            assert_eq!(ev.peek(ev_q).unwrap(), lo.peek(lo_q).unwrap(), "cycle {c}");
        }
        let stats = lo.stats();
        assert!(stats.lowered_settles > 0, "lowered walk must have run");
        assert!(stats.ops_executed > 0, "word ops must have executed");
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
    fn lowered_plan_round_trips_through_export_and_install() {
        let (mut cold, cold_din, _cold_q) = acc_sim(SchedMode::Lowered);
        for c in 0..4u64 {
            cold.poke(cold_din, c & 0xF).unwrap();
            cold.step().unwrap();
        }
        let plan = cold.export_plan().expect("a lowered sim exports a plan");
        assert!(
            plan.lowered_components() > 0,
            "the plan must carry the lowered op stream"
        );

        let (mut warm, wdin, wq) = acc_sim(SchedMode::Lowered);
        warm.set_telemetry(TelemetryLevel::Counters);
        warm.install_plan(&plan).unwrap();
        assert_eq!(
            warm.mode(),
            SchedMode::Lowered,
            "warm sims keep lowered mode"
        );

        let (mut reference, rdin, rq) = acc_sim(SchedMode::EventDriven);
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
        assert!(
            warm.stats().lowered_settles > 0,
            "the installed plan must execute lowered, not interpreted"
        );
    }

    #[test]
    fn installing_a_plan_mid_run_refills_the_planes_before_an_edge() {
        let (mut cold, din, _) = acc_sim(SchedMode::Lowered);
        for c in 0..4u64 {
            cold.poke(din, c).unwrap();
            cold.step().unwrap();
        }
        let plan = cold.export_plan().unwrap();
        let (mut warm, wdin, wq) = acc_sim(SchedMode::Lowered);
        let (mut reference, rdin, rq) = acc_sim(SchedMode::EventDriven);
        for c in 0..12u64 {
            // No poke right after the install: the edge that follows
            // must not sample the installed unit's empty planes.
            if c != 6 {
                warm.poke(wdin, c + 1).unwrap();
                reference.poke(rdin, c + 1).unwrap();
            }
            warm.step().unwrap();
            reference.step().unwrap();
            if c == 5 {
                warm.install_plan(&plan).unwrap();
            }
            assert_eq!(
                warm.peek(wq).unwrap(),
                reference.peek(rq).unwrap(),
                "cycle {c}"
            );
        }
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
        for mode in [SchedMode::EventDriven, SchedMode::Lowered] {
            let (mut sim, ins, outs) = port_sim(nl.clone(), mode);
            let got = run_rows(&mut sim, &ins, &outs, rows);
            assert_eq!(got, reference, "{mode:?} against the full sweep");
            if mode == SchedMode::Lowered {
                let stats = sim.stats();
                assert!(stats.lowered_settles > 0, "the rank walk ran");
                return (got, stats);
            }
        }
        unreachable!("the loop returns on the lowered run")
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

    #[test]
    fn first_edge_after_reset_samples_the_reset_settle() {
        // Cycle 0 resets through an event-driven settle (the planes
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
        assert!(wake_alls > 0, "the mid-run reset settled event-driven");
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
            (5, false, SchedMode::EventDriven),
            (8, true, SchedMode::Lowered),
            (12, true, SchedMode::FullSweep),
            (15, false, SchedMode::Lowered),
            (19, true, SchedMode::EventDriven),
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
        assert_eq!(din(&lowered), din(&run(SchedMode::EventDriven).0));
        // What the accumulator adds while `din` is X differs: the rank
        // walk evaluates the clamp (a writer) before the accumulator (a
        // reader), so the accumulator reads the resolved X; the delta
        // loops re-drive the poke at the start of each pass and
        // evaluate in registration order, so it reads the poked 1. The
        // lowered trace is pinned as the rank walk produces it.
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
