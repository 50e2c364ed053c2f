//! Times the Table 3 flow: generating and synthesizing each design in
//! both styles, one line per table row and style, so regressions in
//! the generator or the mapper show per design. Run with `cargo bench
//! -p hdp-bench --bench table3_synthesis`; each line is the median and
//! IQR per iteration.

use hdp_bench::timing::{report, sample, SAMPLES};
use hdp_metagen::design::{generate, DesignKind, DesignParams, Style};
use hdp_synth::synthesize;
use std::hint::black_box;

fn main() {
    for kind in DesignKind::ALL {
        for style in [Style::Pattern, Style::Custom] {
            let name = format!("{}_{:?}", kind.label().replace(' ', ""), style);
            report(
                &format!("generate/{name}"),
                &sample(SAMPLES, || {
                    generate(
                        black_box(kind),
                        black_box(style),
                        DesignParams::paper_default(),
                    )
                    .unwrap()
                }),
            );
            let design = generate(kind, style, DesignParams::paper_default()).unwrap();
            report(
                &format!("synthesize/{name}"),
                &sample(SAMPLES, || synthesize(black_box(&design.netlist)).unwrap()),
            );
        }
    }

    let design = generate(
        DesignKind::Saa2vga2,
        Style::Pattern,
        DesignParams::paper_default(),
    )
    .unwrap();
    report(
        "dissolve_wrappers/saa2vga2",
        &sample(SAMPLES, || {
            hdp_synth::dissolve_wrappers(black_box(&design.netlist)).unwrap()
        }),
    );
}
