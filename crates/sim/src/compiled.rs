//! The rank walk's schedule: the ahead-of-time levelized evaluation
//! order and its reusable, value-free export.
//!
//! [`crate::SchedMode::Lowered`] freezes a settled design into a
//! [`CompiledSchedule`]: components are sorted into static ranks by
//! longest combinational path so one in-order walk over the live
//! [`crate::SignalBus`] reaches the fixpoint a delta-cycle loop would.
//! The schedule is built and owned by the scheduler in `sched.rs`;
//! this module holds the pure data structures.

use crate::lower::LoweredProgram;
use crate::SignalId;
use std::sync::Arc;

/// A reusable snapshot of a validated compiled schedule: everything
/// the compile step derives from a design that is *independent of
/// signal values* — the levelized component order, the per-rank
/// counts, and the `(signal, driver)` links the validation settle
/// discovered.
///
/// Exported from a simulator whose [`crate::SchedMode::Lowered`]
/// schedule is active ([`crate::Simulator::export_plan`]) and
/// installed into a *freshly built* simulator of the same design
/// ([`crate::Simulator::install_plan`]), skipping the levelization
/// step entirely. The plan carries a structural signature (signal
/// names/widths, component names, sensitivities, clocking and
/// declared drives) so installation into a different design is
/// rejected instead of silently mis-scheduling. Settled values are
/// bit-identical with or without plan reuse: the installed schedule
/// is byte-for-byte the one a cold compile would have produced.
///
/// This is the unit a content-addressed plan cache stores —
/// compile a design once, then simulate millions of stimuli against
/// installed copies of the plan (see `hdp-service`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledPlan {
    /// Structural signature of the source design
    /// ([`crate::Simulator::design_signature`]).
    pub(crate) signature: u64,
    /// Signal count at export time.
    pub(crate) n_sigs: usize,
    /// Component count at export time.
    pub(crate) n_comps: usize,
    /// Every `(signal slot, driver component)` link the source bus
    /// had observed, in slot order.
    pub(crate) links: Vec<(u32, u32)>,
    /// Component indices sorted by `(rank, registration order)`.
    pub(crate) order: Vec<u32>,
    /// Component count per levelized rank.
    pub(crate) rank_counts: Vec<u64>,
    /// Per-component lowered op-stream programs (`None` where the
    /// component keeps interpreted evaluation), indexed by component
    /// registration order; empty when the exporter had not lowered
    /// its components yet. Value-free like
    /// the rest of the plan, so the service's content-addressed cache
    /// hands warm jobs a ready-to-run op stream and the lowering
    /// translation happens once per design, not once per job.
    pub(crate) lowered: Vec<Option<Arc<LoweredProgram>>>,
}

impl CompiledPlan {
    /// The structural signature of the design this plan was compiled
    /// from. [`crate::Simulator::install_plan`] refuses a plan whose
    /// signature does not match the target simulator.
    #[must_use]
    pub fn signature(&self) -> u64 {
        self.signature
    }

    /// Component count per levelized rank (index = rank).
    #[must_use]
    pub fn rank_counts(&self) -> &[u64] {
        &self.rank_counts
    }

    /// Number of components the plan schedules.
    #[must_use]
    pub fn components(&self) -> usize {
        self.n_comps
    }

    /// Number of signals the plan's source design declared.
    #[must_use]
    pub fn signals(&self) -> usize {
        self.n_sigs
    }

    /// Number of components the plan carries a lowered op-stream
    /// program for (zero when the plan was exported from a
    /// non-lowered simulator).
    #[must_use]
    pub fn lowered_components(&self) -> usize {
        self.lowered.iter().filter(|p| p.is_some()).count()
    }

    /// Rough resident-memory estimate of this plan in bytes: the
    /// backing vectors' element counts times their element sizes,
    /// including each lowered program's op stream. An estimate for
    /// cache-sizing gauges, not an allocator measurement.
    #[must_use]
    pub fn estimate_bytes(&self) -> u64 {
        let base = std::mem::size_of::<Self>()
            + self.links.len() * std::mem::size_of::<(u32, u32)>()
            + self.order.len() * std::mem::size_of::<u32>()
            + self.rank_counts.len() * std::mem::size_of::<u64>()
            + self.lowered.len() * std::mem::size_of::<Option<Arc<LoweredProgram>>>();
        let lowered: usize = self
            .lowered
            .iter()
            .flatten()
            .map(|p| {
                p.masks.len() * std::mem::size_of::<u64>()
                    + p.shared_z.len() * std::mem::size_of::<u32>()
                    + p.ops.len() * std::mem::size_of::<crate::lower::LoweredOp>()
                    + (p.in_ports.len() + p.out_ports.len())
                        * std::mem::size_of::<(u32, SignalId)>()
            })
            .sum();
        (base + lowered) as u64
    }
}

/// A frozen evaluation plan: components sorted into levelized ranks,
/// plus the per-settle wake marks the walk needs. Signal values are
/// not here: the walk reads and drives the live [`crate::SignalBus`].
///
/// The wake marks are epoch-tagged rather than cleared, so starting a
/// settle is O(1) in the design size.
#[derive(Debug)]
pub(crate) struct CompiledSchedule {
    /// Component indices sorted by `(rank, registration order)`.
    pub(crate) order: Vec<u32>,
    /// How many components sit at each rank (diagnostics/telemetry).
    pub(crate) rank_counts: Vec<u64>,
    /// Current settle epoch for `woken`.
    epoch: u64,
    /// Per-component epoch marking "already queued for evaluation this
    /// settle".
    woken: Vec<u64>,
}

impl CompiledSchedule {
    pub(crate) fn new(order: Vec<u32>, rank_counts: Vec<u64>) -> Self {
        let n_comps = order.len();
        Self {
            order,
            rank_counts,
            epoch: 0,
            woken: vec![0; n_comps],
        }
    }

    /// Opens a new settle: bumping the epoch un-wakes every component.
    pub(crate) fn begin_settle(&mut self) {
        self.epoch += 1;
    }

    /// Queues a component for evaluation this settle (idempotent).
    pub(crate) fn wake(&mut self, comp: usize) {
        self.woken[comp] = self.epoch;
    }

    /// Whether a component has been queued this settle.
    pub(crate) fn is_woken(&self, comp: usize) -> bool {
        self.woken[comp] == self.epoch
    }
}
