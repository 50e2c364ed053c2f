//! # hdp — Model Reuse through Hardware Design Patterns
//!
//! A full reproduction of *"Model Reuse through Hardware Design
//! Patterns"* (F. Rincón, F. Moya, J. Barba, J. C. López — DATE
//! 2005): the hardware **Iterator** pattern, the STL-inspired basic
//! component library built on it, the metaprogramming VHDL generator,
//! and the complete evaluation of the paper — reproduced over a
//! cycle-accurate simulator and a Spartan-IIE synthesis cost model
//! instead of the original XSB-300E board.
//!
//! This facade crate re-exports the workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`hdl`] | `hdp-hdl` | logic values, entities, netlists, VHDL emission |
//! | [`sim`] | `hdp-sim` | delta-cycle simulator and board device models |
//! | [`pattern`] | `hdp-core` | the iterator pattern, containers, algorithms, system model |
//! | [`metagen`] | `hdp-metagen` | the metaprogramming code generator |
//! | [`synth`] | `hdp-synth` | technology mapping, timing, power, characterisation |
//! | [`conform`] | `hdp-conform` | differential conformance fuzzing across simulator oracles and an executable VHDL model |
//! | [`service`] | `hdp-service` | simulation-as-a-service job server whose content-addressed cache holds one interpreter per design, sharing its lowered op stream |
//!
//! For day-to-day use, [`prelude`] re-exports the simulation and
//! service surface in one import:
//!
//! ```
//! use hdp::prelude::*;
//!
//! # fn main() -> Result<(), SimError> {
//! let mut sim = SimBuilder::with_mode(SchedMode::FullSweep).build()?;
//! sim.set_telemetry(TelemetryLevel::Counters);
//! assert_eq!(sim.stats().steps, 0);
//! # Ok(())
//! # }
//! ```
//!
//! ## Quickstart
//!
//! Build the paper's Figure 3 model, run a frame through it, retarget
//! the containers from FIFOs to external SRAM without touching the
//! model, and run the same frame again:
//!
//! ```
//! use hdp::pattern::golden::PixelOp;
//! use hdp::pattern::model::{Algorithm, VideoPipelineModel};
//! use hdp::pattern::pixel::{Frame, PixelFormat};
//! use hdp::pattern::spec::PhysicalTarget;
//!
//! # fn main() -> Result<(), hdp::pattern::CoreError> {
//! let frame = Frame::gradient(8, 6, PixelFormat::Gray8);
//! let model = VideoPipelineModel::new(
//!     "saa2vga",
//!     PixelFormat::Gray8,
//!     8,
//!     6,
//!     Algorithm::Transform(PixelOp::Identity),
//! )?;
//! // Over FIFO cores (the saa2vga 1 configuration).
//! let out = model.process_frame(&frame)?;
//! assert_eq!(out, frame);
//! // Same model, containers over external SRAM (saa2vga 2): "this
//! // change does not really affect the model".
//! let retargeted = model
//!     .retarget_input(PhysicalTarget::ExternalSram { latency: 2 })
//!     .retarget_output(PhysicalTarget::ExternalSram { latency: 2 })
//!     .with_source_gap(15);
//! let out = retargeted.process_frame(&frame)?;
//! assert_eq!(out, frame);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use hdp_conform as conform;
pub use hdp_hdl as hdl;
pub use hdp_metagen as metagen;
pub use hdp_service as service;
pub use hdp_sim as sim;
pub use hdp_synth as synth;

/// The paper's primary contribution: the iterator pattern and the
/// basic component library (`hdp-core`).
pub use hdp_core as pattern;

/// The one-import surface for simulating and serving designs.
///
/// Brings in the simulator construction and scheduling types, the
/// probing helpers, the `hdp-conform-repro-v1` wire format, and the
/// service client — everything the `examples/` directory needs
/// without deep crate paths.
pub mod prelude {
    pub use hdp_conform::wire::{design_hash, job_to_json, parse_case, repro_to_json};
    pub use hdp_conform::{
        check_lanes, Case, Divergence, Json, Stimulus as WireStimulus, WireError,
    };
    pub use hdp_service::{
        serve, submit, validate_snapshot, CacheStats, CachedDesign, JobOptions, JobOutcome,
        JobSpan, MetricsRegistry, MetricsSnapshot, ObsMode, PlanCache, ServerHandle, Service,
        ServiceError, Stage, METRICS_SCHEMA,
    };
    pub use hdp_sim::probe::{Monitor, Stimulus};
    pub use hdp_sim::vcd::VcdRecorder;
    pub use hdp_sim::{
        FallbackCause, LaneBatch, SchedMode, SimBuilder, SimError, SimStats, Simulator,
        TelemetryLevel, LANES,
    };
}
