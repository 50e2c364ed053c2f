//! RTL construction helpers and FSM lowering — the template engine
//! behind every generator in this crate.
//!
//! The paper's metamodels contain "parameterized code fragments";
//! here a fragment is a call against [`Rtl`], a thin gensym-ing layer
//! over [`hdp_hdl::Netlist`], and control behaviour is described as a
//! transition *function* lowered by [`lower_fsm`] into a state
//! register plus truth-table logic (exactly what synthesis would
//! produce from a VHDL `case` process).

use hdp_hdl::prim::{CmpKind, GateOp, Prim};
use hdp_hdl::{HdlError, LogicVector, NetId, Netlist};

/// RTL construction context: wraps a netlist and generates unique
/// net/cell names.
///
/// # Example
///
/// ```
/// use hdp_hdl::{Entity, Netlist, PortDir};
/// use hdp_metagen::fsm::Rtl;
///
/// # fn main() -> Result<(), hdp_hdl::HdlError> {
/// let entity = Entity::builder("twice_plus_one")
///     .port("a", PortDir::In, 8)?
///     .port("y", PortDir::Out, 8)?
///     .build()?;
/// let mut netlist = Netlist::new(entity);
/// let a = netlist.add_net("a", 8)?;
/// let mut rtl = Rtl::new(&mut netlist);
/// let doubled = rtl.add(a, a)?;
/// let y = rtl.inc(doubled)?;
/// netlist.bind_port("a", a)?;
/// netlist.bind_port("y", y)?;
/// hdp_hdl::validate::check(&netlist)?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Rtl<'a> {
    netlist: &'a mut Netlist,
    counter: usize,
}

impl<'a> Rtl<'a> {
    /// Wraps a netlist for RTL construction.
    pub fn new(netlist: &'a mut Netlist) -> Self {
        let counter = netlist.nets().len() + netlist.cells().len();
        Self { netlist, counter }
    }

    /// The wrapped netlist.
    #[must_use]
    pub fn netlist(&mut self) -> &mut Netlist {
        self.netlist
    }

    fn fresh(&mut self, hint: &str) -> String {
        self.counter += 1;
        format!("{hint}_{}", self.counter)
    }

    fn width(&self, net: NetId) -> usize {
        self.netlist.net(net).width()
    }

    /// Creates a fresh unconnected net (for register feedback loops).
    ///
    /// # Errors
    ///
    /// Propagates netlist errors.
    pub fn wire(&mut self, hint: &str, width: usize) -> Result<NetId, HdlError> {
        let name = self.fresh(hint);
        self.netlist.add_net(name, width)
    }

    fn unary(&mut self, hint: &str, prim: Prim, a: NetId) -> Result<NetId, HdlError> {
        let out_w = prim.output_widths()[0];
        let y = self.wire(hint, out_w)?;
        let cell = self.fresh(&format!("u_{hint}"));
        self.netlist.add_cell(cell, prim, vec![a], vec![y])?;
        Ok(y)
    }

    fn binary(&mut self, hint: &str, prim: Prim, a: NetId, b: NetId) -> Result<NetId, HdlError> {
        let out_w = prim.output_widths()[0];
        let y = self.wire(hint, out_w)?;
        let cell = self.fresh(&format!("u_{hint}"));
        self.netlist.add_cell(cell, prim, vec![a, b], vec![y])?;
        Ok(y)
    }

    /// A constant driver.
    ///
    /// # Errors
    ///
    /// Propagates width/overflow errors.
    pub fn constant(&mut self, value: u64, width: usize) -> Result<NetId, HdlError> {
        let y = self.wire("const", width)?;
        let cell = self.fresh("u_const");
        self.netlist.add_cell(
            cell,
            Prim::Const {
                value: LogicVector::from_u64(value, width)?,
            },
            vec![],
            vec![y],
        )?;
        Ok(y)
    }

    /// A buffer (wrapper) — free after synthesis.
    ///
    /// # Errors
    ///
    /// Propagates netlist errors.
    pub fn buf(&mut self, a: NetId) -> Result<NetId, HdlError> {
        let w = self.width(a);
        self.unary("buf", Prim::Buf { width: w }, a)
    }

    /// Drives an existing net with a buffer of `src` (for binding to
    /// already-created output nets).
    ///
    /// # Errors
    ///
    /// Propagates netlist errors.
    pub fn buf_into(&mut self, dst: NetId, src: NetId) -> Result<(), HdlError> {
        let w = self.width(src);
        let cell = self.fresh("u_buf");
        self.netlist
            .add_cell(cell, Prim::Buf { width: w }, vec![src], vec![dst])?;
        Ok(())
    }

    /// Bitwise NOT.
    ///
    /// # Errors
    ///
    /// Propagates netlist errors.
    pub fn not(&mut self, a: NetId) -> Result<NetId, HdlError> {
        let w = self.width(a);
        self.unary("not", Prim::Not { width: w }, a)
    }

    /// Bitwise AND.
    ///
    /// # Errors
    ///
    /// Propagates netlist errors.
    pub fn and(&mut self, a: NetId, b: NetId) -> Result<NetId, HdlError> {
        let w = self.width(a);
        self.binary(
            "and",
            Prim::Gate {
                op: GateOp::And,
                width: w,
            },
            a,
            b,
        )
    }

    /// Bitwise OR.
    ///
    /// # Errors
    ///
    /// Propagates netlist errors.
    pub fn or(&mut self, a: NetId, b: NetId) -> Result<NetId, HdlError> {
        let w = self.width(a);
        self.binary(
            "or",
            Prim::Gate {
                op: GateOp::Or,
                width: w,
            },
            a,
            b,
        )
    }

    /// Bitwise XOR.
    ///
    /// # Errors
    ///
    /// Propagates netlist errors.
    pub fn xor(&mut self, a: NetId, b: NetId) -> Result<NetId, HdlError> {
        let w = self.width(a);
        self.binary(
            "xor",
            Prim::Gate {
                op: GateOp::Xor,
                width: w,
            },
            a,
            b,
        )
    }

    /// Adder.
    ///
    /// # Errors
    ///
    /// Propagates netlist errors.
    pub fn add(&mut self, a: NetId, b: NetId) -> Result<NetId, HdlError> {
        let w = self.width(a);
        self.binary("add", Prim::Add { width: w }, a, b)
    }

    /// Subtractor.
    ///
    /// # Errors
    ///
    /// Propagates netlist errors.
    pub fn sub(&mut self, a: NetId, b: NetId) -> Result<NetId, HdlError> {
        let w = self.width(a);
        self.binary("sub", Prim::Sub { width: w }, a, b)
    }

    /// Incrementer.
    ///
    /// # Errors
    ///
    /// Propagates netlist errors.
    pub fn inc(&mut self, a: NetId) -> Result<NetId, HdlError> {
        let w = self.width(a);
        self.unary("inc", Prim::Inc { width: w }, a)
    }

    /// Equality against a constant.
    ///
    /// # Errors
    ///
    /// Propagates netlist errors.
    pub fn eq_const(&mut self, a: NetId, value: u64) -> Result<NetId, HdlError> {
        let w = self.width(a);
        let k = self.constant(value, w)?;
        self.binary(
            "eq",
            Prim::Cmp {
                kind: CmpKind::Eq,
                width: w,
            },
            a,
            k,
        )
    }

    /// Comparison of two nets.
    ///
    /// # Errors
    ///
    /// Propagates netlist errors.
    pub fn cmp(&mut self, kind: CmpKind, a: NetId, b: NetId) -> Result<NetId, HdlError> {
        let w = self.width(a);
        self.binary("cmp", Prim::Cmp { kind, width: w }, a, b)
    }

    /// Two-way multiplexer: `sel == 0 -> d0`, `sel == 1 -> d1`.
    ///
    /// # Errors
    ///
    /// Propagates netlist errors.
    pub fn mux2(&mut self, sel: NetId, d0: NetId, d1: NetId) -> Result<NetId, HdlError> {
        let w = self.width(d0);
        let y = self.wire("mux", w)?;
        let cell = self.fresh("u_mux");
        self.netlist.add_cell(
            cell,
            Prim::Mux { width: w, ways: 2 },
            vec![sel, d0, d1],
            vec![y],
        )?;
        Ok(y)
    }

    /// N-way multiplexer: `sel` picks among `inputs` (in order).
    ///
    /// # Errors
    ///
    /// Propagates netlist errors.
    pub fn mux(&mut self, sel: NetId, inputs: &[NetId]) -> Result<NetId, HdlError> {
        let w = self.width(inputs[0]);
        let y = self.wire("mux", w)?;
        let cell = self.fresh("u_mux");
        let mut pins = vec![sel];
        pins.extend_from_slice(inputs);
        self.netlist.add_cell(
            cell,
            Prim::Mux {
                width: w,
                ways: inputs.len(),
            },
            pins,
            vec![y],
        )?;
        Ok(y)
    }

    /// Bit-slice.
    ///
    /// # Errors
    ///
    /// Propagates netlist errors.
    pub fn slice(&mut self, a: NetId, low: usize, len: usize) -> Result<NetId, HdlError> {
        let w = self.width(a);
        self.unary(
            "slice",
            Prim::Slice {
                in_width: w,
                low,
                len,
            },
            a,
        )
    }

    /// Concatenation, most significant first.
    ///
    /// # Errors
    ///
    /// Propagates netlist errors.
    pub fn concat(&mut self, parts: &[NetId]) -> Result<NetId, HdlError> {
        let widths: Vec<usize> = parts.iter().map(|&n| self.width(n)).collect();
        let total = widths.iter().sum();
        let y = self.wire("cat", total)?;
        let cell = self.fresh("u_cat");
        self.netlist
            .add_cell(cell, Prim::Concat { widths }, parts.to_vec(), vec![y])?;
        Ok(y)
    }

    /// Zero-extends a net to `width` bits.
    ///
    /// # Errors
    ///
    /// [`HdlError::InvalidWidth`] when `width` is narrower than the
    /// net; propagates netlist errors.
    pub fn zext(&mut self, a: NetId, width: usize) -> Result<NetId, HdlError> {
        let aw = self.width(a);
        if aw == width {
            return Ok(a);
        }
        if width < aw {
            return Err(HdlError::InvalidWidth { width });
        }
        let zeros = self.constant(0, width - aw)?;
        self.concat(&[zeros, a])
    }

    /// A register driving the pre-created net `q` from `d`, with
    /// optional enable and a reset value.
    ///
    /// # Errors
    ///
    /// Propagates netlist errors.
    pub fn reg_into(
        &mut self,
        q: NetId,
        d: NetId,
        en: Option<NetId>,
        reset_value: u64,
    ) -> Result<(), HdlError> {
        let w = self.width(d);
        let cell = self.fresh("u_reg");
        let (prim, inputs) = match en {
            Some(en) => (
                Prim::Reg {
                    width: w,
                    has_enable: true,
                    reset_value,
                },
                vec![d, en],
            ),
            None => (
                Prim::Reg {
                    width: w,
                    has_enable: false,
                    reset_value,
                },
                vec![d],
            ),
        };
        self.netlist.add_cell(cell, prim, inputs, vec![q])?;
        Ok(())
    }

    /// A register with a fresh output net.
    ///
    /// # Errors
    ///
    /// Propagates netlist errors.
    pub fn reg(
        &mut self,
        d: NetId,
        en: Option<NetId>,
        reset_value: u64,
    ) -> Result<NetId, HdlError> {
        let w = self.width(d);
        let q = self.wire("q", w)?;
        self.reg_into(q, d, en, reset_value)?;
        Ok(q)
    }

    /// Like [`Rtl::reg_into`], but the register is clocked by the
    /// netlist clock domain at `domain` (an index from
    /// [`Netlist::add_domain`]) instead of the default `clk`.
    ///
    /// # Errors
    ///
    /// Propagates netlist errors (including unknown domain indices).
    pub fn reg_into_in_domain(
        &mut self,
        q: NetId,
        d: NetId,
        en: Option<NetId>,
        reset_value: u64,
        domain: usize,
    ) -> Result<(), HdlError> {
        let w = self.width(d);
        let cell = self.fresh("u_reg");
        let (prim, inputs) = match en {
            Some(en) => (
                Prim::Reg {
                    width: w,
                    has_enable: true,
                    reset_value,
                },
                vec![d, en],
            ),
            None => (
                Prim::Reg {
                    width: w,
                    has_enable: false,
                    reset_value,
                },
                vec![d],
            ),
        };
        self.netlist
            .add_cell_in_domain(cell, prim, inputs, vec![q], domain)?;
        Ok(())
    }

    /// A register in clock domain `domain` with a fresh output net.
    ///
    /// # Errors
    ///
    /// Propagates netlist errors (including unknown domain indices).
    pub fn reg_in_domain(
        &mut self,
        d: NetId,
        en: Option<NetId>,
        reset_value: u64,
        domain: usize,
    ) -> Result<NetId, HdlError> {
        let w = self.width(d);
        let q = self.wire("q", w)?;
        self.reg_into_in_domain(q, d, en, reset_value, domain)?;
        Ok(q)
    }

    /// A raw truth-table node over the given inputs.
    ///
    /// # Errors
    ///
    /// Propagates netlist errors (including table-size validation).
    pub fn table(
        &mut self,
        inputs: &[NetId],
        out_width: usize,
        table: Vec<u64>,
    ) -> Result<NetId, HdlError> {
        let in_widths: Vec<usize> = inputs.iter().map(|&n| self.width(n)).collect();
        let y = self.wire("tt", out_width)?;
        let cell = self.fresh("u_tt");
        self.netlist.add_cell(
            cell,
            Prim::TruthTable {
                in_widths,
                out_width,
                table,
            },
            inputs.to_vec(),
            vec![y],
        )?;
        Ok(y)
    }
}

/// Number of state bits for `n_states` states.
#[must_use]
pub fn state_bits(n_states: usize) -> usize {
    usize::max(
        1,
        usize::BITS as usize - (n_states - 1).leading_zeros() as usize,
    )
}

/// Lowers a Moore/Mealy finite state machine into a state register
/// plus a truth-table node.
///
/// `logic(state, inputs)` is evaluated for every combination of state
/// encoding and input values and must return `(next_state, outputs)`.
/// Unreachable state encodings recover to `reset_state`. The returned
/// pair is `(state_net, output_net)`; outputs are combinational
/// (Mealy) — register them with [`Rtl::reg`] for Moore timing.
///
/// # Errors
///
/// Returns [`HdlError::InvalidWidth`] if the combined input width
/// exceeds the truth-table bound (20 bits), plus ordinary netlist
/// errors.
pub fn lower_fsm(
    rtl: &mut Rtl<'_>,
    n_states: usize,
    reset_state: u64,
    inputs: &[NetId],
    out_width: usize,
    logic: impl Fn(u64, &[u64]) -> (u64, u64),
) -> Result<(NetId, NetId), HdlError> {
    let sb = state_bits(n_states);
    let state = rtl.wire("state", sb)?;
    let in_widths: Vec<usize> = inputs.iter().map(|&n| rtl.width(n)).collect();
    let total_in: usize = sb + in_widths.iter().sum::<usize>();
    if total_in > 20 {
        return Err(HdlError::InvalidWidth { width: total_in });
    }
    let table_out_width = sb + out_width;
    let mut table = Vec::with_capacity(1 << total_in);
    for combo in 0..(1u64 << total_in) {
        // Decode: the state is the most significant field, then the
        // inputs in order (matching TruthTable's MSB-first indexing).
        let mut rest = combo;
        let mut fields = vec![0u64; in_widths.len()];
        for (i, &w) in in_widths.iter().enumerate().rev() {
            fields[i] = rest & ((1 << w) - 1);
            rest >>= w;
        }
        let s = rest;
        let (next, outs) = if s < n_states as u64 {
            logic(s, &fields)
        } else {
            (reset_state, 0)
        };
        assert!(
            next < n_states as u64,
            "fsm logic returned out-of-range state {next}"
        );
        assert!(
            out_width == 64 || outs >> out_width == 0,
            "fsm logic returned out-of-range outputs {outs:#x}"
        );
        table.push((next << out_width) | outs);
    }
    let mut table_inputs = vec![state];
    table_inputs.extend_from_slice(inputs);
    let tt = rtl.table(&table_inputs, table_out_width, table)?;
    let next_state = rtl.slice(tt, out_width, sb)?;
    let outputs = if out_width > 0 {
        rtl.slice(tt, 0, out_width)?
    } else {
        tt
    };
    rtl.reg_into(state, next_state, None, reset_state)?;
    Ok((state, outputs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdp_hdl::{Entity, PortDir};
    use hdp_sim::{NetlistComponent, Simulator};

    fn shell(out_width: usize) -> Netlist {
        let entity = Entity::builder("dut")
            .port("go", PortDir::In, 1)
            .unwrap()
            .port("y", PortDir::Out, out_width)
            .unwrap()
            .build()
            .unwrap();
        Netlist::new(entity)
    }

    #[test]
    fn state_bits_formula() {
        assert_eq!(state_bits(2), 1);
        assert_eq!(state_bits(3), 2);
        assert_eq!(state_bits(4), 2);
        assert_eq!(state_bits(5), 3);
    }

    #[test]
    fn rtl_builders_produce_valid_netlists() {
        let mut nl = shell(8);
        let go = nl.add_net("go", 1).unwrap();
        let mut rtl = Rtl::new(&mut nl);
        let k = rtl.constant(5, 8).unwrap();
        let k2 = rtl.inc(k).unwrap();
        let sum = rtl.add(k, k2).unwrap();
        let picked = rtl.mux2(go, sum, k).unwrap();
        let y = rtl.buf(picked).unwrap();
        nl.bind_port("go", go).unwrap();
        nl.bind_port("y", y).unwrap();
        hdp_hdl::validate::check(&nl).unwrap();
    }

    /// A two-state toggle FSM: when `go`, alternate between emitting
    /// 1 and 2.
    #[test]
    fn lowered_fsm_simulates_correctly() {
        let mut nl = shell(2);
        let go = nl.add_net("go", 1).unwrap();
        let mut rtl = Rtl::new(&mut nl);
        let (_, out) = lower_fsm(&mut rtl, 2, 0, &[go], 2, |s, ins| {
            let go = ins[0] == 1;
            match (s, go) {
                (0, true) => (1, 0b01),
                (1, true) => (0, 0b10),
                (s, _) => (s, 0),
            }
        })
        .unwrap();
        nl.bind_port("go", go).unwrap();
        nl.bind_port("y", out).unwrap();
        hdp_hdl::validate::check(&nl).unwrap();

        let mut sim = Simulator::new();
        let go_s = sim.add_signal("go", 1).unwrap();
        let y_s = sim.add_signal("y", 2).unwrap();
        let dut = NetlistComponent::new("dut", nl, sim.bus(), &[("go", go_s), ("y", y_s)]).unwrap();
        sim.add_component(dut);
        sim.poke(go_s, 0).unwrap();
        sim.reset().unwrap();
        assert_eq!(sim.peek(y_s).unwrap().to_u64(), Some(0));
        sim.poke(go_s, 1).unwrap();
        sim.settle().unwrap();
        assert_eq!(sim.peek(y_s).unwrap().to_u64(), Some(0b01)); // state 0, go
        sim.step().unwrap();
        assert_eq!(sim.peek(y_s).unwrap().to_u64(), Some(0b10)); // state 1, go
        sim.step().unwrap();
        assert_eq!(sim.peek(y_s).unwrap().to_u64(), Some(0b01)); // back to 0
    }

    #[test]
    fn fsm_rejects_oversized_tables() {
        let mut nl = shell(1);
        let go = nl.add_net("go", 1).unwrap();
        let mut rtl = Rtl::new(&mut nl);
        let wide = rtl.wire("wide", 32).unwrap();
        let err = lower_fsm(&mut rtl, 2, 0, &[wide], 1, |_, _| (0, 0));
        assert!(matches!(err, Err(HdlError::InvalidWidth { .. })));
        let _ = go;
    }

    #[test]
    fn counter_from_rtl_helpers() {
        // q' = q + 1 when en.
        let entity = Entity::builder("ctr")
            .port("en", PortDir::In, 1)
            .unwrap()
            .port("q", PortDir::Out, 4)
            .unwrap()
            .build()
            .unwrap();
        let mut nl = Netlist::new(entity);
        let en = nl.add_net("en", 1).unwrap();
        let q = nl.add_net("q", 4).unwrap();
        let mut rtl = Rtl::new(&mut nl);
        let d = rtl.inc(q).unwrap();
        rtl.reg_into(q, d, Some(en), 0).unwrap();
        nl.bind_port("en", en).unwrap();
        nl.bind_port("q", q).unwrap();
        let mut sim = Simulator::new();
        let en_s = sim.add_signal("en", 1).unwrap();
        let q_s = sim.add_signal("q", 4).unwrap();
        let dut = NetlistComponent::new("dut", nl, sim.bus(), &[("en", en_s), ("q", q_s)]).unwrap();
        sim.add_component(dut);
        sim.poke(en_s, 1).unwrap();
        sim.reset().unwrap();
        sim.run(5).unwrap();
        assert_eq!(sim.peek(q_s).unwrap().to_u64(), Some(5));
        sim.poke(en_s, 0).unwrap();
        sim.run(3).unwrap();
        assert_eq!(sim.peek(q_s).unwrap().to_u64(), Some(5));
    }

    #[test]
    fn zext_pads_high_bits() {
        let mut nl = shell(8);
        let go = nl.add_net("go", 1).unwrap();
        let mut rtl = Rtl::new(&mut nl);
        let k = rtl.constant(0x3, 2).unwrap();
        let wide = rtl.zext(k, 8).unwrap();
        let y = rtl.buf(wide).unwrap();
        nl.bind_port("go", go).unwrap();
        nl.bind_port("y", y).unwrap();
        let mut sim = Simulator::new();
        let go_s = sim.add_signal("go", 1).unwrap();
        let y_s = sim.add_signal("y", 8).unwrap();
        let dut = NetlistComponent::new("dut", nl, sim.bus(), &[("go", go_s), ("y", y_s)]).unwrap();
        sim.add_component(dut);
        sim.poke(go_s, 0).unwrap();
        sim.reset().unwrap();
        assert_eq!(sim.peek(y_s).unwrap().to_u64(), Some(3));
    }
}
