//! # hdp-synth — technology mapping and the XSB-300E cost model
//!
//! The paper's Table 3 reports post-synthesis FFs, LUTs, block RAMs
//! and clock frequency on the XESS XSB-300E board (a Xilinx
//! Spartan-IIE XC2S300E). This crate replaces the vendor toolchain
//! with a deterministic model over the same primitives:
//!
//! * [`optimize`] — netlist clean-up, most importantly **wrapper
//!   dissolution**: the iterator wrappers of the pattern-based designs
//!   "are only wrappers that will be dissolved at the time of
//!   synthesizing the design" (§4); this pass is that dissolution, so
//!   the pattern-vs-custom comparison measures real residual overhead.
//! * [`map`] — resource mapping: every primitive has a
//!   Spartan-II-calibrated FF / 4-LUT / Block SelectRAM cost
//!   (documented per primitive); vendor FIFO cores are costed as the
//!   dual-clock macros the board needs (the SAA7113 decoder runs on
//!   its own pixel clock).
//! * [`timing`] — a register-to-register critical-path model giving
//!   an achievable clock estimate.
//! * [`power`] — an activity-based dynamic-power estimate, part of
//!   the §3.4 design-space characterisation.
//! * [`chardb`] — the §3.4 characterisation: "we characterized all
//!   the physical devices available in the target platform ... we
//!   obtained information about data access times for every
//!   container, area, power consumption". [`characterize_spec`] is
//!   the one per-family cost model; the versioned `hdp-chardb-v1`
//!   database persists its records with append/merge/load, integrity
//!   checks, a Pareto frontier and [`Query`], the one constraint
//!   type.
//! * [`characterize`] — the paper-shaped exhibit: a
//!   container×target×width×depth grid run through
//!   [`characterize_spec`], with CSV export.
//! * [`select`] — [`select::auto_select`]: the §3.4 implementation
//!   decision automated — the cheapest database record satisfying a
//!   [`Query`], served by `hdp-service` as the `select` verb.
//! * [`board`] — the XSB-300E device limits.
//!
//! The absolute numbers of a model never equal a vendor tool's; the
//! calibration here targets the *shape* of Table 3 (see
//! EXPERIMENTS.md), which is what carries the paper's claims.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod board;
pub mod characterize;
pub mod chardb;
pub mod map;
pub mod optimize;
pub mod power;
pub mod select;
pub mod timing;

pub use board::{Xsb300e, XC2S300E};
pub use chardb::{characterize_spec, Axis, CharDb, CharDbError, CharRecord, Query, CHARDB_SCHEMA};
pub use map::{map_resources, ResourceReport};
pub use optimize::dissolve_wrappers;
pub use select::{auto_select, Selection};
pub use timing::{critical_path_ns, fmax_mhz};

use hdp_hdl::{HdlError, Netlist};

/// A complete synthesis result: the Table 3 row for one design.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SynthReport {
    /// Flip-flop count.
    pub ffs: usize,
    /// 4-input LUT count.
    pub luts: usize,
    /// Block SelectRAM count.
    pub brams: usize,
    /// Achievable clock frequency estimate in MHz.
    pub clk_mhz: f64,
}

impl std::fmt::Display for SynthReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} FFs, {} LUTs, {} block RAM, {:.0} MHz",
            self.ffs, self.luts, self.brams, self.clk_mhz
        )
    }
}

/// Synthesizes a netlist: dissolve wrappers, map resources, analyse
/// timing.
///
/// # Errors
///
/// Propagates structural validation failures — only valid netlists
/// can be synthesized.
///
/// # Example
///
/// ```
/// use hdp_hdl::{Entity, Netlist, PortDir};
/// use hdp_hdl::prim::Prim;
///
/// # fn main() -> Result<(), hdp_hdl::HdlError> {
/// let entity = Entity::builder("inc8")
///     .port("a", PortDir::In, 8)?
///     .port("y", PortDir::Out, 8)?
///     .build()?;
/// let mut nl = Netlist::new(entity);
/// let a = nl.add_net("a", 8)?;
/// let y = nl.add_net("y", 8)?;
/// nl.add_cell("u0", Prim::Inc { width: 8 }, vec![a], vec![y])?;
/// nl.bind_port("a", a)?;
/// nl.bind_port("y", y)?;
/// let report = hdp_synth::synthesize(&nl)?;
/// assert_eq!(report.ffs, 0);
/// assert!(report.luts > 0);
/// # Ok(())
/// # }
/// ```
pub fn synthesize(netlist: &Netlist) -> Result<SynthReport, HdlError> {
    hdp_hdl::validate::check(netlist)?;
    let optimized = dissolve_wrappers(netlist)?;
    let resources = map_resources(&optimized);
    let clk = fmax_mhz(&optimized)?;
    Ok(SynthReport {
        ffs: resources.ffs,
        luts: resources.luts,
        brams: resources.brams,
        clk_mhz: clk,
    })
}
