//! The rank walk's schedule: the ahead-of-time levelized evaluation
//! order.
//!
//! [`crate::SchedMode::Lowered`] freezes a settled design into a
//! [`CompiledSchedule`]: components are sorted into static ranks by
//! longest combinational path so one in-order walk over the live
//! [`crate::SignalBus`] reaches the fixpoint a delta-cycle loop would.
//! The schedule is built and owned by the scheduler in `sched.rs`;
//! this module holds the pure data structures.

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
