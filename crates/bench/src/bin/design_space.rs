//! Regenerates the §3.4 design-space characterisation: every
//! container×target×parameter implementation on the XSB-300E, with
//! area, access time and power, plus constraint-driven regions of
//! interest.

use hdp_synth::characterize::{sweep, to_csv, SweepGrid};
use hdp_synth::{CharRecord, Query, Xsb300e};

fn main() {
    let board = Xsb300e::new();
    let records = sweep(&board, &SweepGrid::default()).expect("sweep runs");
    if std::env::args().any(|a| a == "--csv") {
        print!("{}", to_csv(&records));
        return;
    }
    println!(
        "design-space characterisation on the {} ({} points)",
        board.device.name,
        records.len()
    );
    println!();
    // Open-form labels omit the depth of the external core, so every
    // row leads with its grid point.
    let row = |r: &CharRecord| format!("{:>2}b x{:<4} {r}", r.spec.data_width, r.spec.depth);
    for r in &records {
        println!("{}", row(r));
    }
    println!();
    for (label, query) in [
        (
            "cost-driven (no block RAM)",
            Query {
                max_brams: Some(0),
                ..Query::default()
            },
        ),
        (
            "performance-driven (1 cycle/access)",
            Query {
                max_access_cycles: Some(1),
                ..Query::default()
            },
        ),
        (
            "power budget (<= 18 mW)",
            Query {
                max_power_uw: Some(18_000),
                ..Query::default()
            },
        ),
    ] {
        let region: Vec<_> = records.iter().filter(|r| query.matches(r)).collect();
        println!("region of interest: {label} — {} points", region.len());
        for r in region {
            println!("  {}", row(r));
        }
        println!();
    }
}
