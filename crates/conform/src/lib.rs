//! Differential conformance engine for the hardware-design-pattern
//! stack.
//!
//! This crate closes the loop between the pattern generators
//! (`hdp-metagen`), the simulator (`hdp-sim`) and the VHDL emitter
//! (`hdp-hdl`): it samples random-but-valid designs from the metagen
//! design space, drives each one with random stimulus through five
//! independent oracles, and demands bit-for-bit agreement every
//! cycle on every output port:
//!
//! 1. `full_sweep` — the simulator re-evaluating every component
//!    per delta cycle, with the incremental netlist interpreter (the
//!    reference),
//! 2. `lowered` — the lowered engine on a one-component simulator
//!    (the direct path: the flat word-level op stream settles straight
//!    on its planes instead of the netlist interpreter),
//! 3. `lowered_walk` — the same engine with an inert second component
//!    attached, so every settle takes the levelized rank walk over the
//!    signal bus,
//! 4. `levelized` — the full sweep with the non-incremental
//!    [`NetlistComponent`] (every pass evaluates the whole netlist),
//! 5. `vhdl_interp` — an interpreter executing the *emitted VHDL
//!    text* ([`hdp_hdl::interp::VhdlInterp`]), so the comparison
//!    covers the emitter as well as the netlist semantics.
//!
//! [`check_lanes`] adds a throughput-oriented sixth angle: up to 64
//! random stimuli packed one-per-bit into a single
//! [`hdp_sim::LaneBatch`] run, each lane refereed against its own
//! scalar full-sweep simulation. Designs the lane engine cannot
//! pack — tri-state nets, `inout` ports, multi-clock-domain
//! netlists — are reported as out-of-scope, not as failures.
//!
//! Diverging cases are shrunk greedily ([`mod@shrink`]) to minimal
//! reproducers and serialised as self-contained JSON documents in the
//! versioned [`wire`] format that replay as regression tests. The
//! same wire format carries job submissions for the `hdp-service`
//! simulation server.
//!
//! [`NetlistComponent`]: hdp_sim::NetlistComponent
//!
//! # Example
//!
//! ```
//! use hdp_conform::{check, Stimulus};
//! use hdp_metagen::sampler::sample_spec;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let spec = sample_spec(&mut rng);
//! let netlist = spec.instantiate().unwrap();
//! let stimulus = Stimulus::sample(&netlist, 8, &mut rng);
//! assert!(check(&netlist, &stimulus).is_none(), "oracles diverged");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod oracle;
pub mod shrink;
pub mod wire;

pub use json::Json;
pub use oracle::{check, check_lanes, Divergence, Stimulus, ORACLE_LABELS};
pub use shrink::{shrink, Case};
pub use wire::WireError;
