//! Simulation-as-a-service for the hdp design-pattern library.
//!
//! The conformance engine showed that a generated design plus a
//! sampled stimulus is a complete, serialisable job
//! ([`hdp_conform::wire`]). This crate turns that observation into a
//! service: a long-running job server that accepts
//! `hdp-conform-repro-v1` documents, simulates them, and answers with
//! traces, waveforms and telemetry — amortising design compilation
//! across every stimulus ever submitted for the same design.
//!
//! The layers, bottom up:
//!
//! - [`pool`] — a generic sharded worker pool over scoped threads,
//!   deterministic and order-preserving.
//! - [`cache`] — the content-addressed LRU [`cache::PlanCache`]: one
//!   pristine [`hdp_sim::NetlistComponent`] per design, which holds the
//!   validated netlist and shares its lowered op stream with every
//!   clone, keyed by [`hdp_conform::wire::design_hash`].
//! - [`exec`] — the [`Service`]: runs one job ([`Service::run_case`])
//!   or a sharded batch ([`Service::run_batch`]) against the shared
//!   cache, with optional VCD capture, telemetry and oracle
//!   verification.
//! - [`job`] — the JSON request/response layer
//!   (`hdp-service-result-v1`), including the `stats` and `select`
//!   control verbs (the latter answers §3.4 implementation-selection
//!   queries against an installed [`hdp_synth::CharDb`] catalog).
//! - [`server`] — newline-delimited JSON over TCP, plain `std::net`
//!   and `std::thread`.
//! - [`obs`] / [`metrics`] — the observability plane: per-job
//!   [`obs::JobSpan`] stage tracing (Chrome-trace renderable) and the
//!   service-wide [`metrics::MetricsRegistry`] of counters, gauges and
//!   log2 latency histograms, served live by the `stats` wire verb.
//!
//! ```no_run
//! use hdp_service::{serve, Service};
//! use std::sync::Arc;
//!
//! let handle = serve("127.0.0.1:7501", Arc::new(Service::new(256)), 4)?;
//! println!("serving on {}", handle.addr());
//! # Ok::<(), std::io::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod exec;
pub mod job;
pub mod metrics;
pub mod obs;
pub mod pool;
pub mod server;

pub use cache::{CacheStats, CachedDesign, PlanCache};
pub use exec::{JobOptions, JobOutcome, Service, ServiceError, Trace};
pub use job::{handle_line, parse_job, RESULT_SCHEMA, SELECT_SCHEMA};
pub use metrics::{
    validate_snapshot, Counter, MetricsRegistry, MetricsSnapshot, ObsMode, METRICS_SCHEMA,
};
pub use obs::{JobSpan, SpanBuilder, Stage};
pub use pool::run_sharded;
pub use server::{serve, submit, ServerHandle};
