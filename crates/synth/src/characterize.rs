//! Design-space characterisation (§3.4).
//!
//! "Since components are generated automatically, it is feasible to
//! generate versions of each one for every physical target and range
//! of configuration parameters. This characterization of the design
//! space would delimit the region of interest given a certain set of
//! constraints."
//!
//! [`sweep`] is the small, paper-shaped exhibit of that idea: a
//! read/write-buffer, stack and vector container×target grid over
//! widths and depths, each point costed by
//! [`characterize_spec`] — the same per-family cost model the
//! `hdp-chardb-v1` database and the `chardb_sweep` driver use. A
//! [`Query`](crate::chardb::Query) then delimits the region of
//! interest, and [`to_csv`] exports the table for plotting. For
//! anything beyond a quick table, the persistent database in
//! [`crate::chardb`] and the [`crate::select::auto_select`] optimiser
//! answer the same questions over thousands of sampled points — see
//! `docs/CHARACTERIZATION.md`.

use crate::board::Xsb300e;
use crate::chardb::{characterize_spec, CharRecord};
use crate::{synthesize, SynthReport};
use hdp_hdl::HdlError;
use hdp_metagen::design;
use hdp_metagen::ops::{MethodOp, OpSet};
use hdp_metagen::sampler::DesignSpec;

/// The parameter grid of a sweep.
#[derive(Debug, Clone)]
pub struct SweepGrid {
    /// Element widths to characterise.
    pub data_widths: Vec<usize>,
    /// Capacities to characterise.
    pub depths: Vec<usize>,
}

impl Default for SweepGrid {
    fn default() -> Self {
        Self {
            data_widths: vec![8, 16, 24],
            depths: vec![64, 256, 512, 1024],
        }
    }
}

/// The sampler families the sweep covers, each with the operation set
/// it is generated with: read buffer over a FIFO core and over
/// external SRAM (the Figure 4 set), write buffer over a FIFO core,
/// stack over a LIFO core, vector over block RAM.
fn sweep_families() -> [(usize, OpSet); 5] {
    use MethodOp::{Dec, Empty, Full, Inc, Index, Pop, Push, Read, Write};
    [
        (0, OpSet::figure4()),
        (1, OpSet::figure4()),
        (2, OpSet::of(&[Push, Full])),
        (3, OpSet::of(&[Push, Pop, Empty, Full])),
        (6, OpSet::of(&[Read, Write, Inc, Dec, Index])),
    ]
}

/// Runs the characterisation sweep on the given board: one
/// [`characterize_spec`] record per grid point and family, widths
/// outermost.
///
/// # Errors
///
/// Propagates generator and synthesis failures.
pub fn sweep(board: &Xsb300e, grid: &SweepGrid) -> Result<Vec<CharRecord>, HdlError> {
    let mut records = Vec::new();
    for &data_width in &grid.data_widths {
        for &depth in &grid.depths {
            for (family, ops) in sweep_families() {
                let spec = DesignSpec {
                    family,
                    data_width,
                    depth,
                    addr_width: 16,
                    key_width: 0,
                    wide: 0,
                    write_side: false,
                    ops,
                    wr_period: 1,
                    rd_period: 1,
                };
                records.push(characterize_spec(&spec, board)?);
            }
        }
    }
    Ok(records)
}

/// Serialises records as CSV (header plus one row per record), for
/// external plotting of the design space.
#[must_use]
pub fn to_csv(records: &[CharRecord]) -> String {
    let mut out = String::from(
        "kind,target,data_width,depth,ffs,luts,brams,clk_mhz,access_cycles,power_mw\n",
    );
    for r in records {
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{:.1},{},{:.2}\n",
            r.spec.kind(),
            r.spec.target(),
            r.spec.data_width,
            r.spec.depth,
            r.ffs,
            r.luts,
            r.brams,
            r.clk_mhz(),
            r.access_cycles,
            r.power_mw()
        ));
    }
    out
}

/// Synthesizes all six Table 3 rows (three designs × two styles) with
/// the paper's default parameters — the core of the Table 3
/// experiment.
///
/// # Errors
///
/// Propagates generator and synthesis failures.
pub fn table3_rows() -> Result<Vec<(design::DesignKind, design::Style, SynthReport)>, HdlError> {
    let mut rows = Vec::new();
    for kind in design::DesignKind::ALL {
        for style in [design::Style::Pattern, design::Style::Custom] {
            let d = design::generate(kind, style, design::DesignParams::paper_default())?;
            rows.push((kind, style, synthesize(&d.netlist)?));
        }
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chardb::Query;
    use hdp_metagen::design::{DesignKind, Style};

    fn one_width(depths: Vec<usize>) -> Vec<CharRecord> {
        let grid = SweepGrid {
            data_widths: vec![8],
            depths,
        };
        sweep(&Xsb300e::new(), &grid).unwrap()
    }

    fn find<'a>(records: &'a [CharRecord], kind: &str, target: &str) -> &'a CharRecord {
        records
            .iter()
            .find(|r| r.spec.kind() == kind && r.spec.target() == target)
            .unwrap()
    }

    #[test]
    fn sweep_covers_the_grid() {
        let records = one_width(vec![64, 512]);
        // 5 container/target combinations x 2 depths.
        assert_eq!(records.len(), 10);
        assert!(records.iter().all(|r| r.clk_khz > 0));
    }

    #[test]
    fn the_grids_largest_points_pass_the_wire_bounds() {
        let grid = SweepGrid::default();
        let corner = SweepGrid {
            data_widths: vec![*grid.data_widths.iter().max().unwrap()],
            depths: vec![*grid.depths.iter().max().unwrap()],
        };
        for record in sweep(&Xsb300e::new(), &corner).unwrap() {
            assert_eq!(record.spec.validate(), Ok(()), "{}", record.spec.label());
        }
    }

    #[test]
    fn sram_container_uses_no_bram_fifo_does() {
        let records = one_width(vec![512]);
        let fifo = find(&records, "read_buffer", "fifo_core");
        let sram = find(&records, "read_buffer", "sram");
        assert!(fifo.brams > 0);
        assert_eq!(sram.brams, 0);
        // The paper's trade-off: the FIFO is the fast point, the SRAM
        // the cheap point.
        assert!(fifo.access_cycles < sram.access_cycles);
        assert!(fifo.ffs > sram.ffs);
    }

    #[test]
    fn csv_export_has_header_and_rows() {
        let records = one_width(vec![64]);
        let csv = to_csv(&records);
        let mut lines = csv.lines();
        assert!(lines.next().unwrap().starts_with("kind,target"));
        assert_eq!(lines.count(), records.len());
        assert!(csv.contains("read_buffer,fifo_core,8,64,"));
    }

    #[test]
    fn queries_delimit_regions_of_interest() {
        let records = one_width(vec![512]);
        let region =
            |q: &Query| -> Vec<&CharRecord> { records.iter().filter(|r| q.matches(r)).collect() };
        let no_bram = region(&Query {
            max_brams: Some(0),
            ..Query::default()
        });
        assert!(!no_bram.is_empty());
        assert!(no_bram.iter().all(|r| r.brams == 0));
        let fast = region(&Query {
            max_access_cycles: Some(1),
            ..Query::default()
        });
        // Single-cycle access points are the stream cores.
        assert!(fast
            .iter()
            .all(|r| r.spec.target() == "fifo_core" || r.spec.target() == "lifo_core"));
        assert!(!fast.is_empty());
    }

    #[test]
    fn table3_shape_holds() {
        let rows = table3_rows().unwrap();
        assert_eq!(rows.len(), 6);
        let get = |k: DesignKind, s: Style| {
            rows.iter()
                .find(|(kk, ss, _)| *kk == k && *ss == s)
                .map(|(_, _, r)| *r)
                .unwrap()
        };
        let s1p = get(DesignKind::Saa2vga1, Style::Pattern);
        let s1c = get(DesignKind::Saa2vga1, Style::Custom);
        let s2p = get(DesignKind::Saa2vga2, Style::Pattern);
        let blur_p = get(DesignKind::Blur, Style::Pattern);
        let blur_c = get(DesignKind::Blur, Style::Custom);
        // Row 1: 2 block RAMs, pattern == custom after dissolution.
        assert_eq!(s1p.brams, 2);
        assert_eq!(s1p.ffs, s1c.ffs, "wrappers must dissolve");
        assert_eq!(s1p.luts, s1c.luts);
        // Row 2: no block RAM, smaller than row 1 in FFs (the paper's
        // 147 vs 69 relation).
        assert_eq!(s2p.brams, 0);
        assert!(s2p.ffs < s1p.ffs, "{} !< {}", s2p.ffs, s1p.ffs);
        // Row 3: blur is the big design.
        assert!(blur_p.ffs > s1p.ffs);
        assert!(blur_p.luts > s1p.luts);
        assert_eq!(blur_p.brams, blur_c.brams);
        // Negligible overhead everywhere (<= 2% or a few cells).
        for (p, c) in [(s1p, s1c), (blur_p, blur_c)] {
            let dl = p.luts.abs_diff(c.luts);
            assert!(dl * 50 <= c.luts.max(50), "LUT delta {dl} too large");
        }
    }
}
