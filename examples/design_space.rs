//! The §3.4 design-space characterisation: generate every
//! container×target×parameter implementation, tabulate area, access
//! time and power, and delimit regions of interest under constraints.
//!
//! ```text
//! cargo run --example design_space
//! ```

use hdp::synth::characterize::{sweep, SweepGrid};
use hdp::synth::{CharRecord, Query, Xsb300e};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let board = Xsb300e::new();
    let records = sweep(&board, &SweepGrid::default())?;

    println!(
        "characterised {} implementations on the {}:",
        records.len(),
        board.device.name
    );
    println!();
    // Open-form labels omit the depth of the external core, so every
    // row leads with its grid point.
    let row = |r: &CharRecord| format!("{:>2}b x{:<4} {r}", r.spec.data_width, r.spec.depth);
    for r in &records {
        println!("  {}", row(r));
    }

    for (label, query) in [
        (
            "no block RAM (cost-driven)",
            Query {
                max_brams: Some(0),
                ..Query::default()
            },
        ),
        (
            "one access per cycle (performance-driven)",
            Query {
                max_access_cycles: Some(1),
                ..Query::default()
            },
        ),
    ] {
        println!();
        println!("region of interest: {label}");
        for r in records.iter().filter(|r| query.matches(r)) {
            println!("  {}", row(r));
        }
    }
    Ok(())
}
