//! Job execution against the plan cache.
//!
//! A job is a [`Case`] (design-space point + stimulus) plus
//! [`JobOptions`]. Execution is one [`Simulator::run_rows`] call, which
//! runs the conformance engine's oracle protocol cycle for cycle — poke
//! the row, reset on cycle 0 / settle otherwise, record the settled
//! output ports, clock edge — so a service trace is directly comparable
//! to any oracle trace. An untraced lowered job (no telemetry, no VCD)
//! runs its cycles after the first straight on the design's op-stream
//! planes, one op walk per cycle. Each sampled row is appended to the
//! job's [`Trace`], one flat buffer of cycles × outputs cells sized
//! before the first cycle, so the cycle loop allocates nothing.
//!
//! The cache closes the reuse loop:
//!
//! * **miss** — instantiate the spec, validate it while wiring the
//!   interpreter, simulate (the default lowered mode translates the
//!   interpreter into a word-level op stream on its first settle),
//!   then publish a pristine clone of the interpreter under the
//!   design's content address. The clone shares the op stream the
//!   run just built;
//! * **hit** — clone the cached template, skipping metagen
//!   instantiation, validation, wiring and the lowering pass. The
//!   first settle still levelizes the one- or two-component design,
//!   which costs one Kahn pass.
//!
//! Cached and cold execution are bit-identical: a warm job is a cold
//! job minus the lowering pass, and the cycle protocol never changes.
//! The `verify` option re-runs every job against a cache-free
//! full-sweep reference and compares traces to prove it.

use crate::cache::{CacheStats, CachedDesign, PlanCache};
use crate::metrics::{CacheSection, Counter, MetricsRegistry, MetricsSnapshot, ObsMode};
use crate::obs::{timed, JobSpan, SpanBuilder, Stage};
use crate::pool::run_sharded_observed;
use hdp_conform::wire::{design_hash, WireError};
use hdp_conform::{Case, Stimulus};
use hdp_hdl::{LogicVector, Netlist, PortDir};
use hdp_metagen::sampler::FAMILIES;
use hdp_sim::vcd::VcdRecorder;
use hdp_sim::{
    NetlistComponent, SchedMode, SignalId, SimError, SimStats, Simulator, TelemetryLevel,
};
use std::error::Error;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// A failure while accepting or running a job.
#[derive(Debug)]
#[non_exhaustive]
pub enum ServiceError {
    /// The submission document did not parse.
    Wire(WireError),
    /// The design could not be generated or wired.
    Build {
        /// What went wrong.
        message: String,
    },
    /// The simulation failed mid-run.
    Sim {
        /// The stimulus cycle that failed (0-based).
        cycle: usize,
        /// The simulator's error.
        source: SimError,
    },
    /// The handler panicked; the server caught it at the job boundary.
    Panic {
        /// The panic payload, when it was a string.
        message: String,
    },
    /// The server's accept queue was full; the connection was refused
    /// before any line of it was read.
    Busy {
        /// The queue's capacity, in connections.
        capacity: usize,
    },
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Wire(e) => write!(f, "bad submission: {e}"),
            ServiceError::Build { message } => write!(f, "design build failed: {message}"),
            ServiceError::Sim { cycle, source } => {
                write!(f, "simulation failed at cycle #{cycle}: {source}")
            }
            ServiceError::Panic { message } => write!(f, "job handler panicked: {message}"),
            ServiceError::Busy { capacity } => write!(
                f,
                "server busy: all {capacity} places in the accept queue are taken"
            ),
        }
    }
}

impl Error for ServiceError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ServiceError::Wire(e) => Some(e),
            ServiceError::Sim { source, .. } => Some(source),
            ServiceError::Build { .. } | ServiceError::Panic { .. } | ServiceError::Busy { .. } => {
                None
            }
        }
    }
}

impl From<WireError> for ServiceError {
    fn from(e: WireError) -> Self {
        ServiceError::Wire(e)
    }
}

/// Per-job execution options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobOptions {
    /// Scheduler mode. The default, [`SchedMode::Lowered`], is the
    /// mode that runs the cached template's word-level op stream; the
    /// cache still serves templates to the others.
    pub mode: SchedMode,
    /// Record and return a VCD waveform of every port.
    pub vcd: bool,
    /// Collect telemetry counters and return a summary.
    pub telemetry: bool,
    /// Re-run the job cache-free under the full-sweep reference
    /// scheduler and compare traces bit for bit.
    pub verify: bool,
    /// Record this job's per-stage [`JobSpan`] and return it in the
    /// outcome, even when the service is not sampling.
    pub span: bool,
}

impl Default for JobOptions {
    fn default() -> Self {
        Self {
            mode: SchedMode::Lowered,
            vcd: false,
            telemetry: false,
            verify: false,
            span: false,
        }
    }
}

/// The result of one executed job.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// Content address of the design ([`design_hash`]).
    pub design_hash: String,
    /// Human-readable design label.
    pub label: String,
    /// Whether the design was served from the cache.
    pub cache_hit: bool,
    /// Whether the job's lowered unit ran on an op stream an earlier
    /// job built ([`Simulator::plan_installs`]; always `false` on a
    /// miss and in [`SchedMode::FullSweep`]).
    pub plan_installed: bool,
    /// The design's non-input ports as `(name, width)`, in entity
    /// order — the columns of `trace`.
    pub ports: Vec<(String, usize)>,
    /// Settled four-state values, one row per stimulus cycle, one
    /// vector per port, as the simulator left them, in one flat
    /// allocation sized before the first cycle ([`Trace`]). No
    /// bit-string is made here:
    /// [`outcome_to_json`](crate::job::outcome_to_json) writes each
    /// cell MSB first (`X` marks undefined bits, `Z` undriven ones)
    /// straight from its value/unknown/Z words, and a trace compares
    /// equal to the rendered rows (`Vec<Vec<String>>`) it stands for.
    pub trace: Trace,
    /// Stimulus cycles executed.
    pub cycles: usize,
    /// Telemetry summary, when requested.
    pub stats: Option<SimStats>,
    /// VCD waveform text, when requested.
    pub vcd: Option<String>,
    /// Outcome of the cold-reference comparison, when requested.
    pub verified: Option<bool>,
    /// The job's server-side stage timeline, when requested
    /// ([`JobOptions::span`]).
    pub span: Option<JobSpan>,
}

/// A job's settled output trace, stored flat: one row per stimulus
/// cycle, one cell per output port, row-major in one `Vec` sized up
/// front. Clients see only rows of cells: [`Trace::iter`] yields each
/// row as a slice, so the storage can change without them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Cells per row: the number of output ports.
    width: usize,
    rows: usize,
    cells: Vec<LogicVector>,
}

impl Trace {
    /// An empty trace of `width`-cell rows with room for `rows` rows.
    pub(crate) fn with_capacity(width: usize, rows: usize) -> Self {
        Self {
            width,
            rows: 0,
            cells: Vec::with_capacity(width * rows),
        }
    }

    /// Appends one row of `width` cells.
    pub(crate) fn push_row(&mut self, row: &[LogicVector]) {
        debug_assert_eq!(row.len(), self.width, "a trace row has one cell per port");
        self.cells.extend_from_slice(row);
        self.rows += 1;
    }

    /// The number of rows (stimulus cycles).
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows
    }

    /// Whether the trace has no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// The rows in cycle order, each a slice of one cell per port.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[LogicVector]> + '_ {
        (0..self.rows).map(move |r| &self.cells[r * self.width..(r + 1) * self.width])
    }
}

/// A trace equals the bit-strings it renders as, row for row
/// ([`LogicVector`]'s `PartialEq<String>`), compared without
/// rendering.
impl PartialEq<Vec<Vec<String>>> for Trace {
    fn eq(&self, other: &Vec<Vec<String>>) -> bool {
        self.len() == other.len()
            && self
                .iter()
                .zip(other)
                .all(|(row, strings)| row == strings.as_slice())
    }
}

/// A simulator wired for one job.
struct BuiltSim {
    sim: Simulator,
    inputs: Vec<SignalId>,
    outputs: Vec<(String, SignalId)>,
    recorder: Option<hdp_sim::ComponentId>,
}

/// The interpreter a job runs: a clone of the cached template on a
/// hit, or one wired afresh from an instantiated netlist on a miss.
enum Dut<'a> {
    Template(&'a NetlistComponent),
    Fresh(Arc<Netlist>),
}

/// Builds a simulator for one job. Signal ids are assigned
/// deterministically (entity port order from a fresh simulator), so a
/// template wired against one job's bus is valid for every job of the
/// same design. On a miss the netlist is validated and a fresh
/// template is built — and returned, so the caller can publish it. The
/// job's component and that template are clones of each other, so they
/// share one op stream: the job's first lowered settle builds it for
/// every later hit.
fn build_sim(
    dut: Dut<'_>,
    stim: &Stimulus,
    mode: SchedMode,
    telemetry: TelemetryLevel,
    want_vcd: bool,
) -> Result<(BuiltSim, Option<Arc<NetlistComponent>>), ServiceError> {
    let build_err = |message: String| ServiceError::Build { message };
    let netlist: &Netlist = match &dut {
        Dut::Template(t) => t.netlist(),
        Dut::Fresh(n) => n,
    };
    let mut sim = Simulator::with_mode(mode);
    sim.set_telemetry(telemetry);
    let mut bindings: Vec<(String, SignalId)> = Vec::new();
    let mut outputs = Vec::new();
    for port in netlist.entity().ports() {
        let id = sim
            .add_signal(port.name(), port.width())
            .map_err(|e| build_err(e.to_string()))?;
        bindings.push((port.name().to_owned(), id));
        if port.dir() != PortDir::In {
            outputs.push((port.name().to_owned(), id));
        }
    }
    let inputs = stim
        .inputs
        .iter()
        .map(|(name, _)| {
            bindings
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, id)| id)
                .ok_or_else(|| build_err(format!("stimulus input `{name}` is not a port")))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let (comp, built_template) = match dut {
        Dut::Template(t) => (t.clone(), None),
        Dut::Fresh(netlist) => {
            let binding_refs: Vec<(&str, SignalId)> =
                bindings.iter().map(|(n, id)| (n.as_str(), *id)).collect();
            hdp_hdl::validate::check(&netlist).map_err(|e| build_err(e.to_string()))?;
            let comp = NetlistComponent::new_prevalidated("dut", netlist, sim.bus(), &binding_refs)
                .map_err(|e| build_err(e.to_string()))?;
            let t = Arc::new(comp.clone());
            (comp, Some(t))
        }
    };
    sim.add_component(comp);
    let recorder = want_vcd.then(|| {
        let watched: Vec<SignalId> = bindings.iter().map(|&(_, id)| id).collect();
        sim.add_component(VcdRecorder::new("vcd", watched))
    });
    Ok((
        BuiltSim {
            sim,
            inputs,
            outputs,
            recorder,
        },
        built_template,
    ))
}

/// Drives the stimulus through a built simulator with the oracle
/// protocol in one [`Simulator::run_rows`] call, returning the settled
/// output trace. Each sampled row is appended to the trace's one
/// buffer, so the drive allocates nothing per cycle.
fn drive(built: &mut BuiltSim, stim: &Stimulus) -> Result<Trace, ServiceError> {
    let outputs: Vec<SignalId> = built.outputs.iter().map(|&(_, id)| id).collect();
    let mut trace = Trace::with_capacity(outputs.len(), stim.cycles.len());
    built
        .sim
        .run_rows(&built.inputs, &stim.cycles, &outputs, |row| {
            trace.push_row(row);
        })
        .map_err(|(cycle, source)| ServiceError::Sim { cycle, source })?;
    Ok(trace)
}

/// The simulation service: a plan cache plus the execution engine and
/// its metrics plane.
///
/// `Service` is `Sync` — one instance is shared by every worker of a
/// [server](crate::server) or batch run. The cache lock is held only
/// for lookups and insertions, never across a simulation; the
/// [`MetricsRegistry`] is lock-free.
#[derive(Debug)]
pub struct Service {
    cache: Mutex<PlanCache>,
    metrics: MetricsRegistry,
    catalog: Mutex<Option<Arc<hdp_synth::CharDb>>>,
}

impl Service {
    /// A service whose cache holds at most `cache_capacity` designs,
    /// recording monotonic counters ([`ObsMode::Counters`]).
    #[must_use]
    pub fn new(cache_capacity: usize) -> Self {
        Self::with_obs(cache_capacity, ObsMode::Counters)
    }

    /// A service with an explicit observability mode:
    /// [`ObsMode::Disabled`] for benchmarking the bare job path,
    /// [`ObsMode::Sampled`] for stage histograms, spans and
    /// simulator-telemetry absorption on every job.
    #[must_use]
    pub fn with_obs(cache_capacity: usize, obs: ObsMode) -> Self {
        Self {
            cache: Mutex::new(PlanCache::new(cache_capacity)),
            metrics: MetricsRegistry::new(obs),
            catalog: Mutex::new(None),
        }
    }

    /// Installs a characterisation catalog, enabling the `select`
    /// wire verb. Replaces any previously installed catalog; the
    /// `Arc` lets every in-flight query keep a consistent snapshot
    /// while a newer catalog is swapped in.
    pub fn set_catalog(&self, catalog: Arc<hdp_synth::CharDb>) {
        *self.lock_catalog() = Some(catalog);
    }

    /// The installed characterisation catalog, if any.
    #[must_use]
    pub fn catalog(&self) -> Option<Arc<hdp_synth::CharDb>> {
        self.lock_catalog().clone()
    }

    /// The catalog slot. A panic while it was held cannot leave it
    /// half-written (it is one `Option<Arc>` store), so a poisoned
    /// lock is taken over, not propagated.
    pub(crate) fn lock_catalog(&self) -> MutexGuard<'_, Option<Arc<hdp_synth::CharDb>>> {
        self.catalog.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The plan cache. It is locked only around [`PlanCache`] calls,
    /// none of which panics midway through an update, so a lock
    /// poisoned by a panicking job still guards a consistent cache
    /// and is taken over: the next job is answered as usual.
    pub(crate) fn lock_cache(&self) -> MutexGuard<'_, PlanCache> {
        self.cache.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The live metrics plane.
    #[must_use]
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Cache counters since construction.
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        self.lock_cache().stats()
    }

    /// Number of designs currently cached.
    #[must_use]
    pub fn cache_len(&self) -> usize {
        self.lock_cache().len()
    }

    /// A complete metrics snapshot: the registry's counters, gauges
    /// and histograms with the cache section stitched in from
    /// [`PlanCache::stats`]. This is the document behind the `stats`
    /// wire verb and the `hdp-service metrics` CLI.
    #[must_use]
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.metrics.snapshot();
        let cache = self.lock_cache();
        let stats = cache.stats();
        snap.cache = Some(CacheSection {
            hits: stats.hits,
            misses: stats.misses,
            insertions: stats.insertions,
            evictions: stats.evictions,
            bytes_inserted: stats.bytes_inserted,
            bytes_evicted: stats.bytes_evicted,
            bytes_resident: cache.bytes_resident(),
            len: cache.len() as u64,
            capacity: cache.capacity() as u64,
        });
        snap
    }

    /// Executes one job.
    ///
    /// # Errors
    ///
    /// [`ServiceError`] when the design cannot be built or the
    /// simulation fails; see the module docs for the cache protocol.
    pub fn run_case(&self, case: &Case, opts: &JobOptions) -> Result<JobOutcome, ServiceError> {
        // Reject before the job is counted: a rejected submission
        // never reaches the cache, so counting it in `jobs_total`
        // would break the `hits + misses == jobs_total` invariant.
        if case.spec.family >= FAMILIES.len() {
            self.metrics.inc(Counter::JobsRejected);
            return Err(ServiceError::Build {
                message: format!("design family index {} is out of range", case.spec.family),
            });
        }
        let mut span = (self.metrics.mode().sampled() || opts.span).then(SpanBuilder::new);
        let result = self.run_accepted(case, opts, &mut span);
        match &result {
            Ok(out) => {
                self.metrics.inc(Counter::JobsOk);
                self.metrics.inc(Counter::for_mode(opts.mode));
                if out.plan_installed {
                    self.metrics.inc(Counter::PlansInstalled);
                }
                if opts.vcd {
                    self.metrics.inc(Counter::JobsVcd);
                }
                if opts.verify {
                    self.metrics.inc(Counter::JobsVerify);
                }
                if out.verified == Some(false) {
                    self.metrics.inc(Counter::VerifyFailures);
                }
            }
            Err(ServiceError::Sim { .. }) => {
                self.metrics.inc(Counter::ErrorsSim);
                self.metrics.inc(Counter::for_mode(opts.mode));
            }
            Err(_) => {
                self.metrics.inc(Counter::ErrorsBuild);
                self.metrics.inc(Counter::for_mode(opts.mode));
            }
        }
        match result {
            Ok(mut out) => {
                if let Some(builder) = span {
                    let job_span = builder.finish();
                    for stage in &job_span.stages {
                        self.metrics.record_stage_ns(stage.stage, stage.dur_ns);
                    }
                    if opts.span {
                        out.span = Some(job_span);
                    }
                }
                Ok(out)
            }
            Err(e) => {
                // Errored jobs still record their timeline — a latency
                // regression visible only on failures is still real.
                if let Some(builder) = span {
                    let job_span = builder.finish();
                    for stage in &job_span.stages {
                        self.metrics.record_stage_ns(stage.stage, stage.dur_ns);
                    }
                }
                Err(e)
            }
        }
    }

    /// The accepted-job path: everything after the family-range
    /// check. `jobs_total` is incremented exactly at the cache
    /// lookup, so `cache hits + misses == jobs_total` by construction.
    fn run_accepted(
        &self,
        case: &Case,
        opts: &JobOptions,
        span: &mut Option<SpanBuilder>,
    ) -> Result<JobOutcome, ServiceError> {
        let label = case.spec.label();
        let (hash, cached) = timed(span, Stage::CacheLookup, || {
            let hash = design_hash(&case.spec);
            self.metrics.inc(Counter::JobsTotal);
            let cached = self.lock_cache().lookup(&hash);
            (hash, cached)
        });
        let cache_hit = cached.is_some();

        // Sampled services run every job with simulator counters on,
        // so settles / executed ops / fallback causes aggregate into
        // the service-wide metrics.
        let telemetry = if opts.telemetry || self.metrics.mode().sampled() {
            TelemetryLevel::Counters
        } else {
            TelemetryLevel::Off
        };
        let (mut built, built_template) = timed(span, Stage::Build, || {
            let dut = match &cached {
                Some(design) => Dut::Template(&design.template),
                None => Dut::Fresh(Arc::new(case.spec.instantiate().map_err(|e| {
                    ServiceError::Build {
                        message: e.to_string(),
                    }
                })?)),
            };
            build_sim(dut, &case.stimulus, opts.mode, telemetry, opts.vcd)
        })?;

        let trace = timed(span, Stage::Execute, || drive(&mut built, &case.stimulus))?;
        let plan_installed = built.sim.plan_installs() > 0;

        // Publish the template on a miss. It shares the op stream this
        // run built, so every later hit skips the lowering pass.
        timed(span, Stage::Publish, || {
            if let Some(template) = built_template {
                self.lock_cache()
                    .insert(hash.clone(), CachedDesign { template });
            }
        });

        let verified = timed(span, Stage::Verify, || {
            if !opts.verify {
                return Ok::<_, ServiceError>(None);
            }
            let cold_netlist = case.spec.instantiate().map_err(|e| ServiceError::Build {
                message: e.to_string(),
            })?;
            let (mut cold, _) = build_sim(
                Dut::Fresh(Arc::new(cold_netlist)),
                &case.stimulus,
                SchedMode::FullSweep,
                TelemetryLevel::Off,
                false,
            )?;
            Ok(Some(drive(&mut cold, &case.stimulus)? == trace))
        })?;

        let stats = (telemetry != TelemetryLevel::Off).then(|| built.sim.stats());
        if let Some(stats) = &stats {
            self.metrics.absorb_sim_stats(stats);
        }
        let vcd = built.recorder.map(|id| {
            built
                .sim
                .component::<VcdRecorder>(id)
                .expect("recorder present")
                .render(built.sim.bus())
        });
        Ok(JobOutcome {
            design_hash: hash,
            label,
            cache_hit,
            plan_installed,
            ports: built
                .outputs
                .iter()
                .map(|(n, id)| (n.clone(), built.sim.bus().width(*id).unwrap_or(0)))
                .collect(),
            trace,
            cycles: case.stimulus.cycles.len(),
            stats: opts.telemetry.then(|| stats.clone()).flatten(),
            vcd,
            verified,
            span: None,
        })
    }

    /// Executes a batch of jobs on a sharded worker pool, sharing
    /// this service's cache. Results come back in input order; each
    /// shard reports its busy time and item count to the metrics
    /// plane (busy time only when sampling — it is a clock read).
    #[must_use]
    pub fn run_batch(
        &self,
        cases: Vec<Case>,
        opts: &JobOptions,
        threads: usize,
    ) -> Vec<Result<JobOutcome, ServiceError>> {
        let sampled = self.metrics.mode().sampled();
        run_sharded_observed(
            cases,
            threads,
            |case| self.run_case(&case, opts),
            |shard, busy_ns, items| {
                self.metrics
                    .record_shard(shard, if sampled { busy_ns } else { 0 }, items);
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdp_metagen::sampler::sample_spec;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_case(seed: u64, cycles: usize) -> Case {
        let mut rng = StdRng::seed_from_u64(seed);
        let spec = sample_spec(&mut rng);
        let netlist = spec.instantiate().unwrap();
        let stimulus = Stimulus::sample(&netlist, cycles, &mut rng);
        Case { spec, stimulus }
    }

    #[test]
    fn second_submission_hits_and_matches() {
        let service = Service::new(8);
        let case = sample_case(42, 10);
        let opts = JobOptions::default();
        let cold = service.run_case(&case, &opts).unwrap();
        let warm = service.run_case(&case, &opts).unwrap();
        assert!(!cold.cache_hit);
        assert!(warm.cache_hit);
        assert!(warm.plan_installed || cold.trace.is_empty());
        assert_eq!(cold.trace, warm.trace, "cached run must be bit-identical");
        assert_eq!(cold.design_hash, warm.design_hash);
        let stats = service.cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn lowered_default_executes_op_streams_and_hits_warm() {
        let service = Service::new(8);
        let case = sample_case(42, 10);
        let opts = JobOptions {
            telemetry: true,
            ..JobOptions::default()
        };
        assert_eq!(opts.mode, SchedMode::Lowered);
        let cold = service.run_case(&case, &opts).unwrap();
        let warm = service.run_case(&case, &opts).unwrap();
        assert!(warm.cache_hit && warm.plan_installed);
        assert_eq!(
            cold.trace, warm.trace,
            "warm lowered run must be bit-identical"
        );
        let stats = warm.stats.expect("telemetry requested");
        assert!(
            stats.lowered_settles > 0,
            "the warm job must settle on the lowered op-stream walk"
        );
    }

    #[test]
    fn verify_option_confirms_against_the_reference() {
        let service = Service::new(8);
        let case = sample_case(7, 6);
        let opts = JobOptions {
            verify: true,
            ..JobOptions::default()
        };
        let out = service.run_case(&case, &opts).unwrap();
        assert_eq!(out.verified, Some(true));
    }

    #[test]
    fn a_warm_vcd_job_runs_on_the_cached_stream() {
        let service = Service::new(8);
        let case = sample_case(11, 5);
        let opts = JobOptions {
            vcd: true,
            ..JobOptions::default()
        };
        let cold = service.run_case(&case, &opts).unwrap();
        let warm = service.run_case(&case, &opts).unwrap();
        let vcd = cold.vcd.expect("vcd requested");
        assert!(vcd.contains("$var wire"));
        assert!(!cold.plan_installed && warm.cache_hit && warm.plan_installed);
        assert_eq!(cold.trace, warm.trace);
        assert_eq!(Some(vcd), warm.vcd, "the waveform is byte-identical");
    }

    #[test]
    fn batch_shares_the_cache_across_workers() {
        let service = Service::new(8);
        let case = sample_case(99, 8);
        let cases: Vec<Case> = (0..6).map(|_| case.clone()).collect();
        let results = service.run_batch(cases, &JobOptions::default(), 3);
        let outcomes: Vec<_> = results.into_iter().map(Result::unwrap).collect();
        let reference = &outcomes[0].trace;
        for out in &outcomes {
            assert_eq!(&out.trace, reference);
        }
        let stats = service.cache_stats();
        assert_eq!(stats.hits + stats.misses, 6);
        assert!(stats.hits >= 1, "same design must eventually hit");
    }

    /// The multi-clock `async_fifo` family rides through the service
    /// like any other design: the family-range gate admits it, the
    /// cold run executes (falling back from lowered op streams to
    /// interpreted ticks on partial firings), the warm run serves the
    /// cached artefacts bit-identically, and the trace is independent
    /// of the scheduler mode.
    #[test]
    fn async_fifo_jobs_run_and_cache_across_modes() {
        use hdp_metagen::sampler::DesignSpec;
        use hdp_metagen::OpSet;
        let service = Service::new(8);
        let mut rng = StdRng::seed_from_u64(0xF1F0);
        let spec = DesignSpec {
            family: 11,
            data_width: 4,
            depth: 4,
            addr_width: 8,
            key_width: 8,
            wide: 0,
            write_side: false,
            ops: OpSet::new(),
            wr_period: 2,
            rd_period: 3,
        };
        let netlist = spec.instantiate().unwrap();
        let stimulus = Stimulus::sample(&netlist, 12, &mut rng);
        let case = Case { spec, stimulus };
        let cold = service.run_case(&case, &JobOptions::default()).unwrap();
        let warm = service.run_case(&case, &JobOptions::default()).unwrap();
        assert!(!cold.cache_hit);
        assert!(warm.cache_hit);
        assert_eq!(cold.trace, warm.trace);
        assert!(!cold.trace.is_empty());
        let full = service
            .run_case(
                &case,
                &JobOptions {
                    mode: SchedMode::FullSweep,
                    ..JobOptions::default()
                },
            )
            .unwrap();
        assert_eq!(cold.trace, full.trace, "trace must be mode-independent");
    }
}
