//! Cross-crate synthesis invariants: the Table 3 claims as tests.

use hdp::metagen::design::{generate, DesignKind, DesignParams, Style};
use hdp::synth::{dissolve_wrappers, map_resources, synthesize, XC2S300E};

#[test]
fn every_design_fits_the_xc2s300e() {
    for kind in DesignKind::ALL {
        for style in [Style::Pattern, Style::Custom] {
            let d = generate(kind, style, DesignParams::paper_default()).unwrap();
            let r = map_resources(&dissolve_wrappers(&d.netlist).unwrap());
            assert!(
                XC2S300E.fits(r),
                "{} {:?} does not fit: {:?}",
                kind.label(),
                style,
                r
            );
        }
    }
}

#[test]
fn pattern_overhead_is_negligible() {
    // The paper's headline claim, per design: pattern-based and
    // custom implementations cost essentially the same after the
    // iterator wrappers dissolve.
    for kind in DesignKind::ALL {
        let p = synthesize(
            &generate(kind, Style::Pattern, DesignParams::paper_default())
                .unwrap()
                .netlist,
        )
        .unwrap();
        let c = synthesize(
            &generate(kind, Style::Custom, DesignParams::paper_default())
                .unwrap()
                .netlist,
        )
        .unwrap();
        assert_eq!(p.brams, c.brams, "{}", kind.label());
        let ff_delta = p.ffs.abs_diff(c.ffs);
        let lut_delta = p.luts.abs_diff(c.luts);
        // Within ~15% (the FIFO and blur rows are exactly equal; the
        // SRAM row differs by the fused-FSM encoding).
        assert!(
            ff_delta * 100 <= c.ffs.max(20) * 15,
            "{}: FF {} vs {}",
            kind.label(),
            p.ffs,
            c.ffs
        );
        assert!(
            lut_delta * 100 <= c.luts.max(20) * 15,
            "{}: LUT {} vs {}",
            kind.label(),
            p.luts,
            c.luts
        );
    }
}

#[test]
fn wrappers_fully_dissolve_in_the_fifo_design() {
    // saa2vga 1: pattern == custom exactly, because the only
    // difference is wrapper buffers.
    let p = synthesize(
        &generate(
            DesignKind::Saa2vga1,
            Style::Pattern,
            DesignParams::paper_default(),
        )
        .unwrap()
        .netlist,
    )
    .unwrap();
    let c = synthesize(
        &generate(
            DesignKind::Saa2vga1,
            Style::Custom,
            DesignParams::paper_default(),
        )
        .unwrap()
        .netlist,
    )
    .unwrap();
    assert_eq!(p.ffs, c.ffs);
    assert_eq!(p.luts, c.luts);
    assert_eq!(p.brams, c.brams);
    assert!((p.clk_mhz - c.clk_mhz).abs() < 1e-9);
}

#[test]
fn table3_row_relations() {
    let report = |kind| {
        synthesize(
            &generate(kind, Style::Pattern, DesignParams::paper_default())
                .unwrap()
                .netlist,
        )
        .unwrap()
    };
    let s1 = report(DesignKind::Saa2vga1);
    let s2 = report(DesignKind::Saa2vga2);
    let blur = report(DesignKind::Blur);
    // Block RAM column: 2 / 0 / 2, as in the paper.
    assert_eq!(s1.brams, 2);
    assert_eq!(s2.brams, 0);
    assert_eq!(blur.brams, 2);
    // "The first one (the FIFO implementation) provides maximum
    // performance at the highest cost. The SRAM implementation is
    // much smaller."
    assert!(s2.ffs < s1.ffs);
    // Blur is the largest design.
    assert!(blur.ffs > s1.ffs);
    assert!(blur.luts > s1.luts);
    // All designs land in the working-clock class of the board.
    for (name, r) in [("saa2vga1", s1), ("saa2vga2", s2), ("blur", blur)] {
        assert!(
            (40.0..=200.0).contains(&r.clk_mhz),
            "{name}: {} MHz",
            r.clk_mhz
        );
    }
}

#[test]
fn dissolution_only_removes_wrappers() {
    use hdp::hdl::prim::Prim;
    for kind in DesignKind::ALL {
        let d = generate(kind, Style::Pattern, DesignParams::paper_default()).unwrap();
        let before = d.netlist.cells().len();
        let bufs = d
            .netlist
            .cells()
            .iter()
            .filter(|c| matches!(c.prim(), Prim::Buf { .. }))
            .count();
        let after = dissolve_wrappers(&d.netlist).unwrap().cells().len();
        assert_eq!(after, before - bufs, "{}", kind.label());
    }
}

#[test]
fn synthesis_is_deterministic() {
    let a = synthesize(
        &generate(
            DesignKind::Blur,
            Style::Pattern,
            DesignParams::paper_default(),
        )
        .unwrap()
        .netlist,
    )
    .unwrap();
    let b = synthesize(
        &generate(
            DesignKind::Blur,
            Style::Pattern,
            DesignParams::paper_default(),
        )
        .unwrap()
        .netlist,
    )
    .unwrap();
    assert_eq!(a, b);
}

#[test]
fn design_space_sweep_is_pinned() {
    use hdp::synth::characterize::{sweep, to_csv, SweepGrid};
    use hdp::synth::{CharRecord, Query, Xsb300e};

    // The §3.4 exhibit: five container/target families over three
    // widths and four depths.
    let records = sweep(&Xsb300e::new(), &SweepGrid::default()).unwrap();
    assert_eq!(records.len(), 60);
    // `design_space`'s three regions of interest.
    let region = |q: Query| records.iter().filter(|r| q.matches(r)).count();
    let no_bram = Query {
        max_brams: Some(0),
        ..Query::default()
    };
    let one_cycle = Query {
        max_access_cycles: Some(1),
        ..Query::default()
    };
    let power_budget = Query {
        max_power_uw: Some(18_000),
        ..Query::default()
    };
    assert_eq!(region(no_bram), 18);
    assert_eq!(region(one_cycle), 36);
    assert_eq!(region(power_budget), 57);
    // The EXPERIMENTS.md sample rows, 8 bits x 512, with the clock
    // in whole MHz and the power in tenths of a mW as printed.
    let row = |target: &str| -> &CharRecord {
        records
            .iter()
            .find(|r| {
                r.spec.kind() == "read_buffer"
                    && r.spec.target() == target
                    && (r.spec.data_width, r.spec.depth) == (8, 512)
            })
            .unwrap()
    };
    let fifo = row("fifo_core");
    assert_eq!((fifo.ffs, fifo.luts, fifo.brams), (78, 94, 1));
    assert_eq!(fifo.clk_mhz().round(), 105.0);
    assert_eq!(fifo.access_cycles, 1);
    assert_eq!((fifo.power_mw() * 10.0).round(), 170.0);
    let sram = row("sram");
    assert_eq!((sram.ffs, sram.luts, sram.brams), (47, 86, 0));
    assert_eq!(sram.clk_mhz().round(), 69.0);
    assert_eq!(sram.access_cycles, 6);
    // `design_space --csv`: a header and one line per point.
    assert_eq!(to_csv(&records).lines().count(), 61);
}
