//! Seeded sampling of the metamodel design space.
//!
//! The differential conformance engine (`hdp-conform`) needs
//! random-but-valid points of the design space the paper spans:
//! container kind × width/depth × operation subset × iterator kind ×
//! physical target. This module provides that sampler, plus the two
//! *closed* container specialisations it needs — [`queue_fifo`] and
//! [`stack_lifo_closed`] embed their FIFO/LIFO macro inside the
//! component (with guarded strobes), so the emitted VHDL contains
//! `fifo_core`/`lifo_core` instantiations and exercises the
//! interpreter's component-instance path.
//!
//! Sampling is deterministic: the same [`StdRng`] seed yields the
//! same sequence of designs, which is what makes fuzz failures
//! reproducible from a single `--seed` value.

use crate::container_gen::{rbuffer_fifo, rbuffer_sram, wbuffer_fifo, ContainerParams};
use crate::iterator_gen::{
    forward_iterator, read_width_adapter, stack_iterators, write_width_adapter,
};
use crate::ops::{MethodOp, OpSet};
use crate::stack_gen::{stack_lifo, vector_bram};
use hdp_hdl::prim::Prim;
use hdp_hdl::{Entity, HdlError, Netlist, PortDir};
use rand::rngs::StdRng;
use rand::Rng;

/// Generates the queue container with its FIFO core *embedded*: the
/// closed form of the Figure 4 wrapper, where the physical target
/// lives inside the component instead of behind a `p_*` interface.
///
/// Push/pop strobes are guarded by the core's `full`/`empty` flags,
/// so the component never violates the core's protocol regardless of
/// stimulus. Operations: `push` (+`wdata`), `pop` (head on `data`),
/// `empty`, `full` — pruned to the requested [`OpSet`].
///
/// # Errors
///
/// Propagates netlist-construction failures; rejects an empty op set.
pub fn queue_fifo(params: ContainerParams, ops: OpSet) -> Result<Netlist, HdlError> {
    closed_core("queue_fifo", params, ops, false)
}

/// Generates the stack container with its LIFO core embedded — the
/// closed counterpart of [`stack_lifo`], same guarded interface with
/// `lifo_core` inside.
///
/// # Errors
///
/// Propagates netlist-construction failures; rejects an empty op set.
pub fn stack_lifo_closed(params: ContainerParams, ops: OpSet) -> Result<Netlist, HdlError> {
    closed_core("stack_lifo_closed", params, ops, true)
}

fn closed_core(
    name: &str,
    params: ContainerParams,
    ops: OpSet,
    lifo: bool,
) -> Result<Netlist, HdlError> {
    if ops.is_empty() {
        return Err(HdlError::Unconnected {
            context: format!("{name} with an empty operation set"),
        });
    }
    let w = params.data_width;
    let depth = params.depth;
    let mut builder = Entity::builder(name).group("methods");
    for op in [
        MethodOp::Empty,
        MethodOp::Full,
        MethodOp::Push,
        MethodOp::Pop,
    ] {
        if ops.contains(op) {
            builder = builder.port(op.port_name(), PortDir::In, 1)?;
        }
    }
    let entity = builder
        .group("params")
        .port("wdata", PortDir::In, w)?
        .port("data", PortDir::Out, w)?
        .port("done", PortDir::Out, 1)?
        .build()?;
    let mut nl = Netlist::new(entity);
    let wdata = nl.add_net("wdata", w)?;
    let data = nl.add_net("data", w)?;
    let done = nl.add_net("done", 1)?;
    for (p, n) in [("wdata", wdata), ("data", data), ("done", done)] {
        nl.bind_port(p, n)?;
    }
    let mut rtl = crate::fsm::Rtl::new(&mut nl);
    let empty = rtl.wire("empty", 1)?;
    let full = rtl.wire("full", 1)?;
    let rdata = rtl.wire("rdata", w)?;
    let not_empty = rtl.not(empty)?;
    let not_full = rtl.not(full)?;
    let zero = rtl.constant(0, 1)?;
    let mut done_expr = zero;
    let push_net = if ops.contains(MethodOp::Push) {
        let m_push = rtl.netlist().add_net("m_push", 1)?;
        rtl.netlist().bind_port("m_push", m_push)?;
        let ok = rtl.and(m_push, not_full)?;
        done_expr = rtl.or(done_expr, ok)?;
        ok
    } else {
        zero
    };
    let pop_net = if ops.contains(MethodOp::Pop) {
        let m_pop = rtl.netlist().add_net("m_pop", 1)?;
        rtl.netlist().bind_port("m_pop", m_pop)?;
        let ok = rtl.and(m_pop, not_empty)?;
        done_expr = rtl.or(done_expr, ok)?;
        ok
    } else {
        zero
    };
    if ops.contains(MethodOp::Empty) {
        let m_empty = rtl.netlist().add_net("m_empty", 1)?;
        rtl.netlist().bind_port("m_empty", m_empty)?;
        let ans = rtl.and(m_empty, empty)?;
        done_expr = rtl.or(done_expr, ans)?;
    }
    if ops.contains(MethodOp::Full) {
        let m_full = rtl.netlist().add_net("m_full", 1)?;
        rtl.netlist().bind_port("m_full", m_full)?;
        let ans = rtl.and(m_full, full)?;
        done_expr = rtl.or(done_expr, ans)?;
    }
    rtl.buf_into(data, rdata)?;
    rtl.buf_into(done, done_expr)?;
    let prim = if lifo {
        Prim::LifoMacro { depth, width: w }
    } else {
        Prim::FifoMacro { depth, width: w }
    };
    rtl.netlist().add_cell(
        "u_core",
        prim,
        vec![push_net, pop_net, wdata],
        vec![rdata, empty, full],
    )?;
    hdp_hdl::validate::check(&nl)?;
    Ok(nl)
}

/// One sampled point of the design space.
#[derive(Debug)]
pub struct SampledDesign {
    /// The re-instantiable specification this design came from.
    pub spec: DesignSpec,
    /// Human-readable description, e.g. `queue_fifo w=3 d=4 ops=push+pop`.
    pub label: String,
    /// The container-kind axis (`read_buffer`, `write_buffer`,
    /// `queue`, `stack`, `vector`, `assoc_array`, or `iterator` for
    /// the standalone iterator components).
    pub kind: &'static str,
    /// The physical-target axis (`fifo_core`, `lifo_core`, `sram`,
    /// `block_ram`, `registers` for iterator wrappers, or
    /// `async_fifo` for the clock-domain-crossing queue).
    pub target: &'static str,
    /// The generated, validated netlist.
    pub netlist: Netlist,
}

/// The `(kind, target)` families the sampler draws from — every
/// Table 1 container row mapped onto its physical target, plus the
/// standalone iterator components.
pub const FAMILIES: [(&str, &str); 12] = [
    ("read_buffer", "fifo_core"),
    ("read_buffer", "sram"),
    ("write_buffer", "fifo_core"),
    ("stack", "lifo_core"),
    ("stack", "lifo_core"), // closed form, core embedded
    ("queue", "fifo_core"),
    ("vector", "block_ram"),
    ("assoc_array", "block_ram"),
    ("iterator", "registers"), // forward wrapper
    ("iterator", "registers"), // stack iterator pair
    ("iterator", "registers"), // width adapters
    ("queue", "async_fifo"),   // Gray-coded clock-domain crossing
];

/// The `wr:rd` integer period ratios the sampler draws for the
/// `async_fifo` family — both directions of 1:1, 1:2 and 1:3, plus
/// the coprime 2:3 pair, so the conformance sweep exercises every
/// interleaving class the deterministic multi-domain scheduler
/// distinguishes.
pub const RATIOS: [(u64, u64); 7] = [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2)];

/// How far past the largest generated value [`DesignSpec::validate`]
/// lets an axis reach: a spec may be `HEADROOM` times larger than
/// anything [`sample_spec_in`] or the §3.4 characterisation sweep
/// (`SweepGrid::default` in hdp-synth) produces for its family.
const HEADROOM: usize = 4;

/// The deepest design [`sample_spec_in`] draws.
const SAMPLED_MAX_DEPTH: usize = 8;

/// The families the characterisation sweep covers, and the deepest
/// design it generates for them.
const SWEPT_FAMILIES: [usize; 5] = [0, 1, 2, 3, 6];
const SWEPT_MAX_DEPTH: usize = 1024;

/// The widest narrow side [`sample_spec_in`] draws for the width
/// adapters (family 10).
const SAMPLED_MAX_NARROW: usize = 8;

/// The longest period [`RATIOS`] draws.
const SAMPLED_MAX_PERIOD: u64 = 3;

/// A [`DesignSpec`] axis over its family's bound (see
/// [`DesignSpec::validate`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// The offending field, as named in the wire `design` object.
    pub axis: &'static str,
    /// Its value.
    pub value: u64,
    /// The largest value the family accepts.
    pub max: u64,
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} = {} exceeds this family's limit of {}",
            self.axis, self.value, self.max
        )
    }
}

impl std::error::Error for SpecError {}

/// A point of the design space as parameters, separate from the
/// netlist it instantiates — so the conformance shrinker can mutate
/// depth/width and re-generate, and so reproducers can be stored as
/// plain data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DesignSpec {
    /// Index into [`FAMILIES`].
    pub family: usize,
    /// Element width in bits (1–16 for containers; the narrow side of
    /// width adapters).
    pub data_width: usize,
    /// Capacity in elements.
    pub depth: usize,
    /// External address-bus width (`rbuffer_sram` only).
    pub addr_width: usize,
    /// Key width (`assoc_bram` only).
    pub key_width: usize,
    /// Wide-side width (width adapters only; a multiple of
    /// `data_width`).
    pub wide: usize,
    /// Width adapters: write-side FSM instead of read-side.
    pub write_side: bool,
    /// The operation subset (container families only).
    pub ops: OpSet,
    /// Write-domain period in base steps (`async_fifo` only; 1
    /// elsewhere).
    pub wr_period: u64,
    /// Read-domain period in base steps (`async_fifo` only; 1
    /// elsewhere).
    pub rd_period: u64,
}

impl DesignSpec {
    /// The container-kind axis label.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        FAMILIES[self.family].0
    }

    /// The physical-target axis label.
    #[must_use]
    pub fn target(&self) -> &'static str {
        FAMILIES[self.family].1
    }

    /// A short human-readable description.
    #[must_use]
    pub fn label(&self) -> String {
        let w = self.data_width;
        let d = self.depth;
        let ops = ops_suffix(self.ops);
        match self.family {
            0 => format!("rbuffer_fifo w={w} ops={ops}"),
            1 => format!("rbuffer_sram w={w} d={d} aw={} ops={ops}", self.addr_width),
            2 => format!("wbuffer_fifo w={w} ops={ops}"),
            3 => format!("stack_lifo w={w} ops={ops}"),
            4 => format!("stack_lifo_closed w={w} d={d} ops={ops}"),
            5 => format!("queue_fifo w={w} d={d} ops={ops}"),
            6 => format!("vector_bram w={w} d={d} ops={ops}"),
            7 => format!("assoc_bram w={w} d={d} k={} ops={ops}", self.key_width),
            8 => format!("forward_iterator w={w}"),
            9 => format!("stack_iterators w={w}"),
            10 => {
                let side = if self.write_side { "write" } else { "read" };
                format!("{side}_width_adapter {}->{w}", self.wide)
            }
            _ => format!(
                "async_fifo w={w} d={d} ratio={}:{}",
                self.wr_period, self.rd_period
            ),
        }
    }

    /// Checks every size axis against its family's upper bound, so a
    /// spec read from outside the process is rejected before
    /// [`DesignSpec::instantiate`] sizes any memory from it. A bound is
    /// four times the largest value the sampler or the §3.4 sweep
    /// generates for the family. Every width axis stops at the HDL's
    /// net limit ([`hdp_hdl::MAX_WIDTH`], also four times the
    /// sampler's 16 bits); width adapters draw their narrow side from
    /// 1–8 bits. An associative container (family 7) also bounds its
    /// key width so that key, data and valid bit fit the generator's
    /// 64-bit slot word. Only upper bounds are checked: a zero width or
    /// a key narrower than the address is a generator error, and the
    /// committed reproducers pin such specs as findings.
    ///
    /// # Errors
    ///
    /// The first axis over its bound, `family` first.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.family >= FAMILIES.len() {
            return Err(SpecError {
                axis: "family",
                value: self.family as u64,
                max: FAMILIES.len() as u64 - 1,
            });
        }
        let deepest = if SWEPT_FAMILIES.contains(&self.family) {
            SWEPT_MAX_DEPTH
        } else {
            SAMPLED_MAX_DEPTH
        };
        let widest = hdp_hdl::MAX_WIDTH as u64;
        let data_width = if self.family == 10 {
            (SAMPLED_MAX_NARROW * HEADROOM) as u64
        } else {
            widest
        };
        let period = SAMPLED_MAX_PERIOD * HEADROOM as u64;
        for (axis, value, max) in [
            ("data_width", self.data_width as u64, data_width),
            ("depth", self.depth as u64, (deepest * HEADROOM) as u64),
            ("addr_width", self.addr_width as u64, widest),
            ("key_width", self.key_width as u64, widest),
            ("wide", self.wide as u64, widest),
            ("wr_period", self.wr_period, period),
            ("rd_period", self.rd_period, period),
        ] {
            if value > max {
                return Err(SpecError { axis, value, max });
            }
        }
        // Key, data and valid bit share the generator's 64-bit slot word.
        let slot_key = (widest - 1).saturating_sub(self.data_width as u64);
        if self.family == 7 && self.key_width as u64 > slot_key {
            return Err(SpecError {
                axis: "key_width",
                value: self.key_width as u64,
                max: slot_key,
            });
        }
        Ok(())
    }

    /// Generates the netlist for this specification.
    ///
    /// # Errors
    ///
    /// Propagates generator failures — not expected for specs built
    /// by [`sample_spec`]; a failure here is itself a conformance
    /// finding.
    pub fn instantiate(&self) -> Result<Netlist, HdlError> {
        let params = ContainerParams {
            data_width: self.data_width,
            depth: self.depth,
            addr_width: self.addr_width,
        };
        let w = self.data_width;
        match self.family {
            0 => rbuffer_fifo(params, self.ops),
            1 => rbuffer_sram(params, self.ops),
            2 => wbuffer_fifo(params, self.ops),
            3 => stack_lifo(params, self.ops),
            4 => stack_lifo_closed(params, self.ops),
            5 => queue_fifo(params, self.ops),
            6 => vector_bram(params, self.ops),
            7 => crate::assoc_gen::assoc_bram(params, self.key_width, self.ops),
            8 => forward_iterator("fwd_it", w),
            9 => stack_iterators("stack_it", w),
            10 => {
                if self.write_side {
                    write_width_adapter("wr_adapt", self.wide, w)
                } else {
                    read_width_adapter("rd_adapt", self.wide, w)
                }
            }
            _ => crate::cdc_gen::async_fifo(&crate::cdc_gen::AsyncFifoParams {
                data_width: w,
                addr_width: crate::fsm::state_bits(self.depth.max(2)),
                wr_period: self.wr_period,
                rd_period: self.rd_period,
            }),
        }
    }
}

/// Picks a non-empty random subset of `pool`.
fn sample_ops(rng: &mut StdRng, pool: &[MethodOp]) -> OpSet {
    let mut set = OpSet::new();
    for &op in pool {
        if rng.gen_range(0..2u32) == 1 {
            set = set.with(op);
        }
    }
    if set.is_empty() {
        set = set.with(pool[rng.gen_range(0..pool.len())]);
    }
    set
}

fn ops_suffix(ops: OpSet) -> String {
    ops.iter()
        .map(|op| &op.port_name()[2..])
        .collect::<Vec<_>>()
        .join("+")
}

/// Samples one random-but-valid design specification.
///
/// Every family in [`FAMILIES`] is drawn with equal probability;
/// widths span 1–16 bits and depths 2–8 elements, with each family's
/// structural constraints (e.g. the associative array's key width)
/// respected by construction.
pub fn sample_spec(rng: &mut StdRng) -> DesignSpec {
    let family = rng.gen_range(0..FAMILIES.len());
    sample_spec_in(rng, family)
}

/// Samples the non-family axes of a specification for a *fixed*
/// family — the stratified form of [`sample_spec`] used by the
/// characterisation sweep, which round-robins the family axis to
/// guarantee even coverage instead of leaving it to chance.
///
/// Draws exactly the random values [`sample_spec`] draws after its
/// family pick, so `sample_spec` delegates here and fixed-seed
/// sequences are unchanged.
///
/// # Panics
///
/// When `family` is not an index into [`FAMILIES`].
pub fn sample_spec_in(rng: &mut StdRng, family: usize) -> DesignSpec {
    assert!(
        family < FAMILIES.len(),
        "family {family} out of range (< {})",
        FAMILIES.len()
    );
    let data_width = rng.gen_range(1..=16usize);
    let depth = rng.gen_range(2..=8usize);
    let addr_width = rng.gen_range(8..=16usize);
    let ops = match family {
        0 | 1 => sample_ops(rng, &[MethodOp::Empty, MethodOp::Size, MethodOp::Pop]),
        2 => sample_ops(rng, &[MethodOp::Full, MethodOp::Push]),
        3..=5 => sample_ops(
            rng,
            &[
                MethodOp::Empty,
                MethodOp::Full,
                MethodOp::Push,
                MethodOp::Pop,
            ],
        ),
        6 => sample_ops(
            rng,
            &[
                MethodOp::Read,
                MethodOp::Write,
                MethodOp::Inc,
                MethodOp::Dec,
                MethodOp::Index,
            ],
        ),
        7 => sample_ops(rng, &[MethodOp::Read, MethodOp::Write]),
        _ => OpSet::new(),
    };
    let aw = crate::fsm::state_bits(depth.next_power_of_two().max(2));
    let key_width = rng.gen_range(aw..=16usize);
    let (data_width, wide) = if family == 10 {
        let narrow = rng.gen_range(1..=8usize);
        (narrow, narrow * rng.gen_range(2..=4usize))
    } else {
        (data_width, 0)
    };
    // The CDC queue constrains depth to a power of two (its pointers
    // carry exactly one wrap bit) and draws a period ratio for its
    // `wr`/`rd` domain pair.
    let (depth, (wr_period, rd_period)) = if family == 11 {
        (
            [2usize, 4, 8][rng.gen_range(0..3usize)],
            RATIOS[rng.gen_range(0..RATIOS.len())],
        )
    } else {
        (depth, (1, 1))
    };
    DesignSpec {
        family,
        data_width,
        depth,
        addr_width,
        key_width,
        wide,
        write_side: rng.gen_range(0..2u32) == 1,
        ops,
        wr_period,
        rd_period,
    }
}

/// Samples one random-but-valid design: [`sample_spec`] plus
/// instantiation.
///
/// # Errors
///
/// Propagates generator failures (see [`DesignSpec::instantiate`]).
pub fn sample_design(rng: &mut StdRng) -> Result<SampledDesign, HdlError> {
    let spec = sample_spec(rng);
    let netlist = spec.instantiate()?;
    Ok(SampledDesign {
        label: spec.label(),
        kind: spec.kind(),
        target: spec.target(),
        netlist,
        spec,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use std::collections::BTreeSet;

    #[test]
    fn sampling_is_deterministic() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..40 {
            let da = sample_design(&mut a).unwrap();
            let db = sample_design(&mut b).unwrap();
            assert_eq!(da.label, db.label);
            assert_eq!(da.netlist.cells().len(), db.netlist.cells().len());
        }
    }

    #[test]
    fn an_assoc_key_must_fit_the_slot_word_beside_the_data() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut spec = sample_spec_in(&mut rng, 7);
        spec.data_width = 60;
        spec.key_width = 3;
        assert_eq!(spec.validate(), Ok(()));
        spec.key_width = 9;
        assert_eq!(
            spec.validate(),
            Err(SpecError {
                axis: "key_width",
                value: 9,
                max: 3
            })
        );
        // The generator names the summed slot width, not the key's.
        let err = spec.instantiate().unwrap_err().to_string();
        assert!(err.contains("70"), "{err}");
        // Other families keep their own key width bound.
        spec.family = 6;
        assert_eq!(spec.validate(), Ok(()));
    }

    #[test]
    fn sampled_specs_are_within_bounds_and_oversized_ones_are_not() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..500 {
            let spec = sample_spec(&mut rng);
            assert_eq!(spec.validate(), Ok(()), "{}", spec.label());
        }
        let mut deep = sample_spec_in(&mut rng, 6);
        deep.depth = 1 << 40;
        assert_eq!(
            deep.validate(),
            Err(SpecError {
                axis: "depth",
                value: 1 << 40,
                max: 4096
            })
        );
        deep.family = FAMILIES.len();
        assert_eq!(deep.validate().unwrap_err().axis, "family");
    }

    #[test]
    fn stratified_sampling_matches_the_family_draw() {
        // `sample_spec` must equal "draw the family, then delegate" —
        // this pins the split point so fixed-seed conformance
        // sequences survive the stratified refactor.
        let mut a = StdRng::seed_from_u64(97);
        let mut b = StdRng::seed_from_u64(97);
        for _ in 0..50 {
            let spec = sample_spec(&mut a);
            let family = b.gen_range(0..FAMILIES.len());
            assert_eq!(spec, sample_spec_in(&mut b, family));
        }
    }

    #[test]
    fn stratified_sampling_covers_every_family_in_one_round() {
        let mut rng = StdRng::seed_from_u64(1);
        for family in 0..FAMILIES.len() {
            let spec = sample_spec_in(&mut rng, family);
            assert_eq!(spec.family, family);
            spec.instantiate().unwrap();
        }
    }

    #[test]
    fn samples_cover_all_kinds_and_targets() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut kinds = BTreeSet::new();
        let mut targets = BTreeSet::new();
        for _ in 0..200 {
            let d = sample_design(&mut rng).unwrap();
            kinds.insert(d.kind);
            targets.insert(d.target);
        }
        for kind in [
            "read_buffer",
            "write_buffer",
            "queue",
            "stack",
            "vector",
            "assoc_array",
        ] {
            assert!(kinds.contains(kind), "kind {kind} never sampled");
        }
        for target in ["fifo_core", "lifo_core", "sram", "block_ram", "async_fifo"] {
            assert!(targets.contains(target), "target {target} never sampled");
        }
    }

    #[test]
    fn sampled_async_fifos_pass_the_cdc_lint() {
        let mut rng = StdRng::seed_from_u64(23);
        let mut seen = 0;
        while seen < 5 {
            let d = sample_design(&mut rng).unwrap();
            if d.spec.family != 11 {
                continue;
            }
            seen += 1;
            assert!(d.netlist.is_multi_domain(), "{}", d.label);
            let violations = hdp_hdl::cdc::lint(&d.netlist);
            assert!(violations.is_empty(), "{}: {violations:?}", d.label);
        }
    }

    #[test]
    fn sampled_designs_emit_vhdl() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..60 {
            let d = sample_design(&mut rng).unwrap();
            let text = hdp_hdl::vhdl::emit_component(&d.netlist, "generated").unwrap();
            assert!(text.contains("entity"), "{}", d.label);
        }
    }

    #[test]
    fn closed_queue_round_trips_data() {
        use hdp_sim::{NetlistComponent, Simulator};
        let params = ContainerParams {
            data_width: 8,
            depth: 4,
            addr_width: 16,
        };
        let ops = OpSet::of(&[
            MethodOp::Push,
            MethodOp::Pop,
            MethodOp::Empty,
            MethodOp::Full,
        ]);
        let nl = queue_fifo(params, ops).unwrap();
        let mut sim = Simulator::new();
        let mut sig = |n: &str, w: usize| sim.add_signal(n, w).unwrap();
        let m_push = sig("m_push", 1);
        let m_pop = sig("m_pop", 1);
        let m_empty = sig("m_empty", 1);
        let m_full = sig("m_full", 1);
        let wdata = sig("wdata", 8);
        let data = sig("data", 8);
        let done = sig("done", 1);
        let dut = NetlistComponent::new(
            "q",
            nl,
            sim.bus(),
            &[
                ("m_empty", m_empty),
                ("m_full", m_full),
                ("m_push", m_push),
                ("m_pop", m_pop),
                ("wdata", wdata),
                ("data", data),
                ("done", done),
            ],
        )
        .unwrap();
        sim.add_component(dut);
        for s in [m_push, m_pop, m_empty, m_full, wdata] {
            sim.poke(s, 0).unwrap();
        }
        sim.reset().unwrap();
        for v in [5u64, 6, 7] {
            sim.poke(m_push, 1).unwrap();
            sim.poke(wdata, v).unwrap();
            sim.step().unwrap();
        }
        sim.poke(m_push, 0).unwrap();
        sim.poke(m_pop, 1).unwrap();
        let mut seen = Vec::new();
        for _ in 0..3 {
            sim.settle().unwrap();
            assert_eq!(sim.peek(done).unwrap().to_u64(), Some(1));
            seen.push(sim.peek(data).unwrap().to_u64().unwrap());
            sim.step().unwrap();
        }
        // FIFO order, unlike the stack's reversal.
        assert_eq!(seen, vec![5, 6, 7]);
    }

    #[test]
    fn closed_stack_guards_against_overflow() {
        use hdp_sim::{NetlistComponent, Simulator};
        let params = ContainerParams {
            data_width: 4,
            depth: 2,
            addr_width: 16,
        };
        let nl = stack_lifo_closed(params, OpSet::of(&[MethodOp::Push, MethodOp::Full])).unwrap();
        let mut sim = Simulator::new();
        let mut sig = |n: &str, w: usize| sim.add_signal(n, w).unwrap();
        let m_push = sig("m_push", 1);
        let m_full = sig("m_full", 1);
        let wdata = sig("wdata", 4);
        let data = sig("data", 4);
        let done = sig("done", 1);
        let dut = NetlistComponent::new(
            "s",
            nl,
            sim.bus(),
            &[
                ("m_full", m_full),
                ("m_push", m_push),
                ("wdata", wdata),
                ("data", data),
                ("done", done),
            ],
        )
        .unwrap();
        sim.add_component(dut);
        for s in [m_push, m_full, wdata] {
            sim.poke(s, 0).unwrap();
        }
        sim.reset().unwrap();
        // Push past capacity: the guard drops the extra pushes, and
        // done deasserts, instead of a core protocol violation.
        sim.poke(m_push, 1).unwrap();
        for v in 0..4u64 {
            sim.poke(wdata, v).unwrap();
            sim.settle().unwrap();
            let expect_ok = v < 2;
            assert_eq!(
                sim.peek(done).unwrap().to_u64(),
                Some(u64::from(expect_ok)),
                "push #{v}"
            );
            sim.step().unwrap();
        }
        sim.poke(m_push, 0).unwrap();
        sim.poke(m_full, 1).unwrap();
        sim.settle().unwrap();
        assert_eq!(sim.peek(done).unwrap().to_u64(), Some(1));
    }
}
