//! The clocked delta-cycle scheduler.
//!
//! Two interchangeable scheduling strategies share one set of
//! semantics (see [`SchedMode`]):
//!
//! * **Full sweep** (default) — every component is evaluated in every
//!   delta pass until no signal changes. It is the executable
//!   reference model, and the one delta loop: the lowered mode falls
//!   back to it, and is required (and property-tested) to produce
//!   bit-identical signal traces. A [`crate::NetlistComponent`]
//!   evaluated with inputs that did not change is cheap by default
//!   (its interpreter is incremental), so sweeping costs little over
//!   evaluating only the components a change woke.
//! * **Lowered** — after a validation settle the design is frozen
//!   ahead of time: components are levelized into static ranks by
//!   combinational depth, and every subsequent settle is a single
//!   in-order walk of the rank schedule over the live [`SignalBus`]
//!   (one pass) instead of a delta-cycle loop. The walk evaluates only
//!   components a change woke, read off their declared
//!   [`crate::Sensitivity`]. On that walk every
//!   [`crate::NetlistComponent`] executes a flat word-level op stream
//!   straight against `u64` value/unknown/high-Z planes: no virtual
//!   `eval` dispatch, no `BusAccess` reads per net, no `LogicVector`
//!   materialisation between cells. Components that are not netlist
//!   interpreters (or whose shape cannot lower) keep their virtual
//!   `eval` on the same walk. A design whose one component is a
//!   lowered netlist (every service job without a VCD recorder) skips
//!   the walk too: `poke`, `settle`, `step` and `peek` run that unit
//!   straight on its planes, with no wake set and no pass (the direct
//!   path, `settle_direct`); its counts and traces are the walk's. A
//!   whole stimulus run on such a design through
//!   [`Simulator::run_rows`], with telemetry off, walks its ops once per
//!   cycle: the walk after each edge folds into the next row's. Designs
//!   the levelizer cannot order (combinational cycles,
//!   [`Sensitivity::Always`]) fall back transparently — and
//!   permanently — to the full sweep; an invalidated schedule (newly
//!   discovered driver, added components) falls back for one settle
//!   and rebuilds.

use crate::compiled::CompiledSchedule;
use crate::lower::{
    exec_settle, exec_walk, latch_inputs, settle_planes, LoweredProgram, LoweredScratch, Planes,
};
use crate::netlist_sim::{EdgeInputs as _, Firing, NetlistComponent};
use crate::signal::DRIVER_POKE;
use crate::telemetry::{
    ComponentStats, FallbackCause, SignalStats, SimStats, Telemetry, TelemetryLevel, TraceEvent,
};
use crate::{ClockDomain, Component, Sensitivity, SignalBus, SignalId, SimError, DEFAULT_CLOCK};
use hdp_hdl::LogicVector;
use std::any::Any;
use std::sync::Arc;
use std::time::Instant;

/// Maximum settle iterations before declaring non-convergence.
const DELTA_LIMIT: usize = 64;

/// How many oscillating signals a non-convergence report names.
const OSCILLATION_REPORT_CAP: usize = 8;

/// Scheduling strategy of a [`Simulator`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedMode {
    /// Evaluate every component in every delta pass until no signal
    /// changes (the reference mode, and the lowered mode's fallback).
    #[default]
    FullSweep,
    /// Ahead-of-time compiled evaluation with netlist interpreters
    /// lowered to flat word-level op streams. After a validation
    /// settle the design is frozen into a levelized schedule
    /// (components sorted into static ranks by longest combinational
    /// path), and each settle becomes one in-order walk over the
    /// signal bus — no delta-cycle loop — that evaluates only the
    /// components a change woke. Each [`crate::NetlistComponent`] is
    /// translated once into a `Vec<LoweredOp>` over per-net `u64`
    /// value/unknown/high-Z planes, and its slot in the walk executes
    /// that straight-line stream — no per-cell virtual dispatch, no
    /// `BusAccess` facade between cells, no `LogicVector` allocation
    /// on the hot path. Clock edges run the interpreter's one
    /// sequential model (register, block RAM, FIFO and LIFO state with
    /// their protocol checks and error texts), sampling cell inputs
    /// straight from the settled planes. Components that are not netlist
    /// interpreters — or whose shape cannot lower (e.g. inout ports) —
    /// keep their virtual `eval` on the same walk. When the design is
    /// one lowered netlist and nothing else, each settle runs that
    /// netlist's op stream directly, without the walk around it.
    ///
    /// Settled values, VCD traces, telemetry toggle totals and error
    /// reports are bit-identical to [`SchedMode::FullSweep`], which
    /// it falls back to transparently: *permanently* for designs
    /// that cannot be levelized — a combinational cycle, or any
    /// component declaring [`Sensitivity::Always`] (see
    /// [`Simulator::compile_fallback_reason`]) — and for *one settle*
    /// whenever the frozen schedule is invalidated (a drive by a
    /// component the schedule had not seen drive that signal, added
    /// components or signals, or direct device mutation through
    /// [`Simulator::component_mut`]), after which it rebuilds.
    Lowered,
}

impl SchedMode {
    /// Every mode, in the order benches and reports list them.
    pub const ALL: [SchedMode; 2] = [SchedMode::FullSweep, SchedMode::Lowered];

    /// The mode's wire and report name: `full_sweep` or `lowered`.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SchedMode::FullSweep => "full_sweep",
            SchedMode::Lowered => "lowered",
        }
    }

    /// Parses a [`SchedMode::label`]; `None` for any other string.
    #[must_use]
    pub fn parse(label: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|m| m.label() == label)
    }
}

/// Handle to a component instance owned by a [`Simulator`], returned
/// by [`Simulator::add_component`] and usable with
/// [`Simulator::component`] to inspect device state after a run (e.g.
/// the frames collected by a [`crate::devices::VideoOut`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ComponentId(usize);

/// `Send` is a supertrait so whole simulators can move to worker
/// threads (the service's sharded pool runs one simulator per job).
trait AnyComponent: Component + Send {
    fn as_any(&self) -> &dyn Any;
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

impl<T: Component + Send + Any> AnyComponent for T {
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// The frozen state of [`SchedMode::Lowered`]: the schedule itself
/// (or the reason none could be built) plus the design snapshot it was
/// built from, so any later growth of the design is detected cheaply.
struct ActivePlan {
    /// `SignalBus::len` at build time.
    n_sigs: usize,
    /// Component count at build time.
    n_comps: usize,
    /// `SignalBus::driver_link_count` at build time. The count is
    /// monotonic, so any newly discovered `(signal, component)` pair —
    /// including one the rank walk itself drives — invalidates the
    /// plan.
    links: usize,
    /// The levelized schedule, or the human-readable reason the design
    /// cannot be levelized (permanent full-sweep fallback).
    sched: Result<CompiledSchedule, String>,
}

/// One component's lowered op-stream program plus its reusable scratch
/// planes. The program is the component's shared one
/// ([`NetlistComponent`] lowers once for all its clones); the planes
/// are this simulator's own.
struct LoweredUnit {
    prog: Arc<LoweredProgram>,
    scratch: LoweredScratch,
}

/// The netlist interpreter behind a lowered unit.
fn interpreter(c: &mut Box<dyn AnyComponent>) -> &mut NetlistComponent {
    let c = (**c).as_any_mut().downcast_mut();
    c.expect("a lowered unit is built from a NetlistComponent")
}

/// A synchronous single-clock simulator.
///
/// Owns the [`SignalBus`] and the component instances and advances
/// them cycle by cycle. See the crate-level example, and
/// [`SimBuilder`] for construction that freezes the sensitivity tables
/// before the first step.
#[derive(Default)]
pub struct Simulator {
    bus: SignalBus,
    components: Vec<Box<dyn AnyComponent>>,
    /// Values poked by the testbench, re-driven at the start of every
    /// settle iteration so they behave like external pad drivers.
    pokes: Vec<(SignalId, LogicVector)>,
    cycle: u64,
    mode: SchedMode,
    /// Sensitivity tables, valid while `tables_ready`.
    tables_ready: bool,
    /// signal index -> components sensitive to it.
    watchers: Vec<Vec<usize>>,
    /// Components evaluated in every pass: declared `Always` plus any
    /// promoted for sharing a signal with another driver.
    always: Vec<usize>,
    /// Components with clock-edge behaviour.
    clocked: Vec<usize>,
    /// Sticky co-driver promotions (survive table rebuilds).
    promoted: Vec<bool>,
    /// Components to wake at the next settle.
    seeds: Vec<usize>,
    /// Signals poked since the last settle (their watchers get woken).
    poked_signals: Vec<SignalId>,
    /// Wake every component at the next settle (reset, mode switch,
    /// late additions).
    wake_all: bool,
    /// Whether any component declared [`Sensitivity::Always`] — such
    /// components may read arbitrary signals, so no static rank order
    /// is safe and [`SchedMode::Lowered`] falls back to the sweep.
    has_always: bool,
    /// The frozen plan for [`SchedMode::Lowered`], built after a
    /// validation settle. `None` until the first lowered settle or
    /// after invalidation.
    compiled: Option<ActivePlan>,
    /// Per-component lowered op-stream programs, index-aligned with
    /// `components`. `None` entries evaluate through the virtual
    /// `eval` path on the rank walk (not a netlist interpreter, or a
    /// shape that cannot lower).
    lowered: Vec<Option<LoweredUnit>>,
    /// Whether `lowered` is current for the component set.
    lowered_ready: bool,
    /// Lowered units whose op stream an earlier simulator built.
    plan_installs: u64,
    /// Clock domains registered directly on the simulator with
    /// [`Simulator::add_clock_domain`] (testbench-level declarations),
    /// merged with component declarations into `domains`.
    extra_domains: Vec<ClockDomain>,
    /// The merged clock-domain table, valid while `domains_ready`:
    /// index 0 is always the default `clk`/period-1 domain, further
    /// entries in first-declaration order. A domain named by several
    /// components must carry one period everywhere.
    domains: Vec<ClockDomain>,
    /// Whether `domains` is current for the component set.
    domains_ready: bool,
    /// True when every merged domain has period 1: every step fires
    /// every domain and the tick phase takes the exact historical
    /// single-clock path.
    single_rate: bool,
    /// Telemetry counters (all mutation behind a level check; zero
    /// counter traffic at [`TelemetryLevel::Off`]).
    telemetry: Telemetry,
    /// Set by the direct path, cleared by the rank walk.
    #[cfg(test)]
    on_direct: bool,
}

impl std::fmt::Debug for Simulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("signals", &self.bus.len())
            .field("components", &self.components.len())
            .field("cycle", &self.cycle)
            .field("mode", &self.mode)
            .finish()
    }
}

impl Simulator {
    /// Creates an empty simulator with the default (full-sweep)
    /// scheduler.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty simulator with an explicit scheduling mode.
    #[must_use]
    pub fn with_mode(mode: SchedMode) -> Self {
        Simulator {
            mode,
            ..Self::default()
        }
    }

    /// The active scheduling mode.
    #[must_use]
    pub fn mode(&self) -> SchedMode {
        self.mode
    }

    /// Switches scheduling mode. Safe at any point: the next settle
    /// re-evaluates everything once to re-synchronise.
    pub fn set_mode(&mut self, mode: SchedMode) {
        if self.mode != mode {
            self.mode = mode;
            self.wake_all = true;
        }
    }

    /// Declares a signal.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::DuplicateSignal`] or a width error.
    pub fn add_signal(
        &mut self,
        name: impl Into<String>,
        width: usize,
    ) -> Result<SignalId, SimError> {
        let id = self.bus.add(name, width)?;
        if self.tables_ready {
            self.watchers.push(Vec::new());
        }
        Ok(id)
    }

    /// Adds a component instance, returning a handle for later
    /// inspection with [`Simulator::component`]. Components must be
    /// [`Send`] so a whole simulator can move to a worker thread.
    ///
    /// Adding a component invalidates the frozen sensitivity tables;
    /// they are rebuilt lazily at the next settle. Prefer registering
    /// everything up front (see [`SimBuilder`]).
    pub fn add_component(&mut self, component: impl Component + Send + 'static) -> ComponentId {
        self.components.push(Box::new(component));
        self.tables_ready = false;
        self.lowered_ready = false;
        self.domains_ready = false;
        self.wake_all = true;
        ComponentId(self.components.len() - 1)
    }

    /// Declares a clock domain at the simulator level, e.g. for a
    /// testbench that drives [`Component::tick_domains`] semantics
    /// without a netlist. Component-declared domains (see
    /// [`Component::clock_domains`]) are merged in automatically; a
    /// name declared twice must carry the same period everywhere.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Protocol`] for a zero period or a period
    /// conflict with an earlier declaration.
    pub fn add_clock_domain(
        &mut self,
        name: impl Into<String>,
        period: u64,
    ) -> Result<(), SimError> {
        let name = name.into();
        if period == 0 {
            return Err(SimError::Protocol {
                component: "simulator".into(),
                message: format!("clock domain `{name}` has period 0"),
            });
        }
        if name == DEFAULT_CLOCK && period != 1 {
            return Err(SimError::Protocol {
                component: "simulator".into(),
                message: "the default `clk` domain is fixed at period 1".into(),
            });
        }
        if let Some(prev) = self.extra_domains.iter().find(|d| d.name == name) {
            if prev.period != period {
                return Err(SimError::Protocol {
                    component: "simulator".into(),
                    message: format!(
                        "clock domain `{name}` redeclared with period {period} (was {})",
                        prev.period
                    ),
                });
            }
            return Ok(());
        }
        self.extra_domains.push(ClockDomain::new(name, period));
        self.domains_ready = false;
        Ok(())
    }

    /// The merged clock-domain table: the default `clk` first, then
    /// every domain declared by [`Simulator::add_clock_domain`] or a
    /// component, in first-declaration order.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Protocol`] if two declarations disagree on
    /// a domain's period.
    pub fn clock_domains(&mut self) -> Result<&[ClockDomain], SimError> {
        self.ensure_domains()?;
        Ok(&self.domains)
    }

    /// Rebuilds the merged domain table if stale.
    fn ensure_domains(&mut self) -> Result<(), SimError> {
        if self.domains_ready {
            return Ok(());
        }
        let mut domains = vec![ClockDomain::default_clock()];
        let merge = |domains: &mut Vec<ClockDomain>, d: ClockDomain, who: &str| match domains
            .iter()
            .find(|x| x.name == d.name)
        {
            Some(prev) if prev.period != d.period => Err(SimError::Protocol {
                component: who.to_owned(),
                message: format!(
                    "clock domain `{}` declared with period {} but already registered \
                         with period {}",
                    d.name, d.period, prev.period
                ),
            }),
            Some(_) => Ok(()),
            None => {
                if d.period == 0 {
                    return Err(SimError::Protocol {
                        component: who.to_owned(),
                        message: format!("clock domain `{}` has period 0", d.name),
                    });
                }
                domains.push(d);
                Ok(())
            }
        };
        for d in self.extra_domains.clone() {
            merge(&mut domains, d, "simulator")?;
        }
        for c in &self.components {
            for d in c.clock_domains() {
                merge(&mut domains, d, c.name())?;
            }
        }
        self.single_rate = domains.iter().all(|d| d.period == 1);
        self.domains = domains;
        self.domains_ready = true;
        Ok(())
    }

    /// Downcasts a component back to its concrete type, e.g. to read
    /// the frames a [`crate::devices::VideoOut`] collected.
    ///
    /// Returns `None` if the handle is stale or `T` is not the type
    /// that was added.
    #[must_use]
    pub fn component<T: Component + 'static>(&self, id: ComponentId) -> Option<&T> {
        // Explicit deref: `.as_any()` on the Box would resolve the
        // blanket impl for `Box<dyn AnyComponent>` itself.
        (**self.components.get(id.0)?).as_any().downcast_ref::<T>()
    }

    /// Mutable variant of [`Simulator::component`], e.g. to preload a
    /// [`crate::devices::Sram`] between runs.
    ///
    /// Mutating device state behind the scheduler's back is treated
    /// like a reset for wake-up purposes: every component is
    /// re-evaluated at the next settle.
    #[must_use]
    pub fn component_mut<T: Component + 'static>(&mut self, id: ComponentId) -> Option<&mut T> {
        self.wake_all = true;
        (**self.components.get_mut(id.0)?)
            .as_any_mut()
            .downcast_mut::<T>()
    }

    /// The settled value of an internal net of a
    /// [`NetlistComponent`], for white-box assertions: read from the
    /// lowered unit's planes when the lowered engine ran the
    /// component's last settle, and from the interpreter's net cache
    /// otherwise, so it is the same in every [`SchedMode`].
    ///
    /// Returns `None` for a stale handle, a component that is not a
    /// netlist interpreter, or a net the netlist does not have.
    #[must_use]
    pub fn net_value(&self, id: ComponentId, net: &str) -> Option<LogicVector> {
        let comp = self.component::<NetlistComponent>(id)?;
        match self.lowered.get(id.0).and_then(Option::as_ref) {
            Some(unit) if comp.planes_current() => {
                let net = comp.netlist().find_net(net)?;
                Some(Planes(&unit.prog, &unit.scratch).value(net.index()))
            }
            _ => comp.net_value(net),
        }
    }

    /// The number of clock cycles executed since the last reset.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Switches the telemetry level. Safe at any point; counters
    /// accumulated so far are retained. See [`TelemetryLevel`] for
    /// the overhead of each level.
    pub fn set_telemetry(&mut self, level: TelemetryLevel) {
        self.telemetry.set_level(level);
        self.telemetry.ensure_components(self.components.len());
        self.bus.set_telemetry(level.enabled());
    }

    /// The active telemetry level.
    #[must_use]
    pub fn telemetry_level(&self) -> TelemetryLevel {
        self.telemetry.level
    }

    /// Snapshots the telemetry counters into a [`SimStats`].
    ///
    /// Empty when telemetry is [`TelemetryLevel::Off`]. Cheap enough
    /// to call between runs; the counters keep accumulating.
    #[must_use]
    pub fn stats(&self) -> SimStats {
        if !self.telemetry.on() {
            return SimStats::default();
        }
        let t = &self.telemetry;
        let components: Vec<ComponentStats> = self
            .components
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let evals = t.comp_evals.get(i).copied().unwrap_or(0);
                ComponentStats {
                    name: c.name().to_owned(),
                    evals,
                    skips: t.passes.saturating_sub(evals),
                    eval_ns: t.comp_ns.get(i).copied().unwrap_or(0),
                }
            })
            .collect();
        let signals: Vec<SignalStats> = (0..self.bus.len())
            .map(|slot| {
                let (name, toggles, drives) = self.bus.slot_telemetry(slot);
                SignalStats {
                    name: name.to_owned(),
                    toggles,
                    drives,
                }
            })
            .collect();
        let last_wake_sets: Vec<Vec<String>> = t
            .wake_ring
            .iter()
            .map(|set| {
                set.iter()
                    .map(|&i| {
                        self.components
                            .get(i)
                            .map_or_else(|| format!("component #{i}"), |c| c.name().to_owned())
                    })
                    .collect()
            })
            .collect();
        let compiled_ranks = self
            .compiled
            .as_ref()
            .and_then(|p| p.sched.as_ref().ok())
            .map(|s| s.rank_counts.clone())
            .unwrap_or_default();
        let mut notes = t.notes.clone();
        if let Some(reason) = self.compile_fallback_reason() {
            notes.push(format!(
                "lowered: permanently falling back to the full sweep — {reason}"
            ));
        }
        SimStats {
            level: t.level,
            steps: t.steps,
            settles: t.settles,
            passes: t.passes,
            max_passes: t.max_passes,
            total_wake: t.total_wake,
            max_wake: t.max_wake,
            components,
            signals,
            fallback_settles: t.fallback_settles,
            fallback_causes: t.fallback_causes,
            lowered_settles: t.lowered_settles,
            ops_executed: t.ops_executed,
            plan_installs: self.plan_installs,
            compiled_ranks,
            notes,
            last_wake_sets,
            trace: t.trace.clone(),
            trace_dropped: t.trace_dropped,
        }
    }

    /// Immutable access to the signal bus (for monitors).
    #[must_use]
    pub fn bus(&self) -> &SignalBus {
        &self.bus
    }

    /// Reads a signal's current value.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownSignal`] for a stale id.
    pub fn peek(&self, id: SignalId) -> Result<LogicVector, SimError> {
        self.bus.read(id)
    }

    /// Drives a signal from the testbench with a defined integer value.
    ///
    /// The value persists (it is re-driven each settle pass) until the
    /// next `poke` of the same signal or [`Simulator::unpoke`].
    ///
    /// # Errors
    ///
    /// Returns width or unknown-signal errors.
    pub fn poke(&mut self, id: SignalId, value: u64) -> Result<(), SimError> {
        let width = self.bus.width(id)?;
        let v = LogicVector::from_u64(value, width).map_err(SimError::from)?;
        self.set_poke(id, v);
        Ok(())
    }

    /// Drives a signal from the testbench with an arbitrary logic value.
    ///
    /// # Errors
    ///
    /// Returns width or unknown-signal errors.
    pub fn poke_vector(&mut self, id: SignalId, value: LogicVector) -> Result<(), SimError> {
        let width = self.bus.width(id)?;
        if width != value.width() {
            return Err(SimError::SignalWidth {
                signal: self.bus.name(id)?.to_owned(),
                expected: width,
                found: value.width(),
            });
        }
        self.set_poke(id, value);
        Ok(())
    }

    /// Records a poke of a width-checked value.
    fn set_poke(&mut self, id: SignalId, value: LogicVector) {
        match self.pokes.iter_mut().find(|(s, _)| *s == id) {
            Some((_, v)) => *v = value,
            None => self.pokes.push((id, value)),
        }
        self.poked_signals.push(id);
    }

    /// Stops driving a previously poked signal.
    ///
    /// The signal holds its last value until something else drives it.
    pub fn unpoke(&mut self, id: SignalId) {
        self.pokes.retain(|(s, _)| *s != id);
    }

    /// Applies synchronous reset to every component and settles.
    ///
    /// # Errors
    ///
    /// Propagates component errors and non-convergence.
    pub fn reset(&mut self) -> Result<(), SimError> {
        self.cycle = 0;
        for (i, c) in self.components.iter_mut().enumerate() {
            self.bus.set_driver(i);
            c.reset(&mut self.bus)?;
        }
        self.bus.set_driver(DRIVER_POKE);
        self.wake_all = true;
        self.settle()
    }

    /// Settles combinational logic to a fixpoint without advancing the
    /// clock. Useful after poking inputs mid-cycle.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NoConvergence`] on a zero-delay loop, or the
    /// first component error.
    pub fn settle(&mut self) -> Result<(), SimError> {
        match self.mode {
            SchedMode::FullSweep => self.settle_sweep(),
            SchedMode::Lowered => self.settle_compiled(),
        }
    }

    /// The delta loop: every component, every pass, until no signal
    /// changes. The reference settle, and the lowered mode's fallback.
    fn settle_sweep(&mut self) -> Result<(), SimError> {
        self.ensure_tables()?;
        // A full sweep subsumes any pending targeted wake-ups.
        self.seeds.clear();
        self.poked_signals.clear();
        self.wake_all = false;
        let telemetry_on = self.telemetry.on();
        if telemetry_on {
            self.telemetry.settles += 1;
            self.telemetry.ensure_components(self.components.len());
        }
        let mut pass_count: u64 = 0;
        for _ in 0..DELTA_LIMIT {
            self.bus.begin_pass();
            self.bus.set_driver(DRIVER_POKE);
            for (id, value) in &self.pokes {
                self.bus.drive(*id, *value)?;
            }
            let n = self.components.len();
            if telemetry_on {
                pass_count += 1;
                self.telemetry.record_pass(0..n);
            }
            let pass_t0 = self.telemetry.timed().then(|| self.telemetry.now_ns());
            for (i, c) in self.components.iter_mut().enumerate() {
                self.bus.set_driver(i);
                let started = self.telemetry.timed().then(Instant::now);
                c.eval(&mut self.bus)?;
                if telemetry_on {
                    self.telemetry.record_eval_since(i, started, c.name());
                }
            }
            if let Some(t0) = pass_t0 {
                self.telemetry.push_span(TraceEvent {
                    name: format!("pass ({n} woken)"),
                    cat: "pass",
                    ts_ns: t0,
                    dur_ns: self.telemetry.now_ns().saturating_sub(t0),
                    tid: 0,
                });
            }
            if telemetry_on {
                self.bus.count_pass_toggles();
            }
            self.promote_co_drivers();
            if !self.bus.any_changed() {
                if telemetry_on {
                    self.telemetry.max_passes = self.telemetry.max_passes.max(pass_count);
                }
                return Ok(());
            }
        }
        if telemetry_on {
            self.telemetry.max_passes = self.telemetry.max_passes.max(pass_count);
        }
        Err(self.no_convergence())
    }

    /// Promotes the drivers of every signal that just gained a second
    /// driver into `always`. The sweep evaluates them all anyway; a
    /// later rank walk must wake them together too, or its single pass
    /// would resolve a partial set of contributions.
    fn promote_co_drivers(&mut self) {
        for slot in self.bus.take_new_shared() {
            for &d in self.bus.slot_drivers(slot) {
                if d != DRIVER_POKE && !self.promoted[d] {
                    self.promoted[d] = true;
                    self.always.push(d);
                }
            }
        }
    }

    /// Lowered settle: one walk of the frozen rank schedule, with
    /// transparent full-sweep fallback whenever the plan is missing,
    /// stale, unbuildable, or a full re-evaluation is pending.
    fn settle_compiled(&mut self) -> Result<(), SimError> {
        self.ensure_tables()?;
        self.ensure_lowered();
        let fresh = self.compiled.as_ref().is_some_and(|p| {
            p.n_sigs == self.bus.len()
                && p.n_comps == self.components.len()
                && p.links == self.bus.driver_link_count()
        });
        if !fresh {
            // (Re)build: sweep one settle so the bus's driver links
            // record every writer the current state exercises, then
            // freeze the schedule from the settled design.
            self.compiled = None;
            if self.telemetry.on() {
                self.telemetry
                    .record_fallback_settle(FallbackCause::Rebuild);
            }
            self.settle_sweep()?;
            self.build_compiled();
            return Ok(());
        }
        if self.wake_all {
            // A full re-evaluation was requested (reset, mode switch,
            // device mutation): the sweep is one.
            if self.telemetry.on() {
                self.telemetry
                    .record_fallback_settle(FallbackCause::WakeAll);
            }
            return self.settle_sweep();
        }
        // Nothing pending: the walk would wake no component, and its
        // re-drive of the pokes changes nothing (a second driver of a
        // poked signal is promoted into `always`, so each poked signal
        // already holds its poke). Count the settle as the walk would.
        let idle = self.seeds.is_empty() && self.poked_signals.is_empty() && self.always.is_empty();
        if idle && matches!(&self.compiled, Some(ActivePlan { sched: Ok(_), .. })) {
            if self.telemetry.on() {
                self.telemetry.settles += 1;
                self.telemetry.lowered_settles += 1;
                self.telemetry.record_pass([]);
                self.telemetry.max_passes = self.telemetry.max_passes.max(1);
            }
            return Ok(());
        }
        if self.direct_ready() {
            return self.settle_direct();
        }
        let mut plan = self.compiled.take().expect("freshness implies a plan");
        let res = match &mut plan.sched {
            Err(_) => {
                // Permanent fallback (cycle / Always): the sweep, with
                // the same observable semantics.
                if self.telemetry.on() {
                    self.telemetry
                        .record_fallback_settle(FallbackCause::NonLevelizable);
                }
                self.settle_sweep()
            }
            Ok(sched) => match self.run_compiled(sched, plan.links) {
                Ok(true) => Ok(()),
                Ok(false) => {
                    // The walk observed a drive the schedule was not
                    // built with and rolled its pass back. The bus has
                    // recorded the link (so the stale plan is rebuilt
                    // next settle); re-run this settle as a sweep.
                    if self.telemetry.on() {
                        self.telemetry
                            .record_fallback_settle(FallbackCause::StaleDriver);
                        self.telemetry.note_once(
                            "lowered: schedule invalidated by a newly discovered driver; \
                             settle re-ran as a full sweep and the schedule will be rebuilt",
                        );
                    }
                    self.settle_sweep()
                }
                Err(e) => Err(e),
            },
        };
        self.compiled = Some(plan);
        res
    }

    /// Executes one settle as a single pass over the live bus, walking
    /// the levelized schedule.
    ///
    /// Returns `Ok(true)` on success, `Ok(false)` if an evaluation
    /// recorded a driver link beyond the schedule's `links` (the pass
    /// is rolled back; the caller falls back), or the first component
    /// error.
    ///
    /// Correctness of the single pass: every reader of a signal is
    /// ranked strictly above all of the signal's writers, and `eval`
    /// is required to be a pure function of signal values and
    /// registered state — so by the time a component evaluates, every
    /// input it can observe already has its fixpoint value, and one
    /// rank-ordered walk reaches the same fixpoint the delta loop
    /// would. The bus resolves multi-driver signals with its
    /// first-drive-replaces / later-drives-resolve rule, and
    /// [`hdp_hdl::LogicVector::resolve`] is commutative and
    /// associative, so fold order cannot change settled values. Being
    /// one pass, the bus's own bookkeeping gives each signal one
    /// toggle when its settled value moved, its drive count and its
    /// last changer.
    fn run_compiled(
        &mut self,
        sched: &mut CompiledSchedule,
        links: usize,
    ) -> Result<bool, SimError> {
        #[cfg(test)]
        {
            self.on_direct = false;
        }
        sched.begin_settle();
        let telemetry_on = self.telemetry.on();
        if telemetry_on {
            self.telemetry.ensure_components(self.components.len());
        }
        let mut evaluated: Vec<usize> = Vec::new();
        let Simulator {
            components,
            bus,
            pokes,
            watchers,
            always,
            seeds,
            poked_signals,
            telemetry,
            lowered,
            ..
        } = self;
        bus.begin_pass();
        // Wake set: pending seeds (tick aftermath), watchers of poked
        // signals, and the always/promoted list. Peeked, not drained:
        // they are cleared once the walk completes.
        for &i in seeds.iter() {
            sched.wake(i);
        }
        for id in poked_signals.iter() {
            for &w in &watchers[id.index()] {
                sched.wake(w);
            }
        }
        for &i in always.iter() {
            sched.wake(i);
        }
        // Testbench pokes land first, with replace semantics, just as
        // they open every pass of the sweep.
        bus.set_driver(DRIVER_POKE);
        for (id, value) in pokes.iter() {
            bus.drive(*id, *value)?;
        }
        // Wakes the watchers of every slot that changed since `cursor`.
        // The raw change list, not the settled-change filter: a slot a
        // later resolve restored still woke its readers.
        let mut cursor = 0usize;
        let wake_changed = |bus: &SignalBus, sched: &mut CompiledSchedule, cursor: &mut usize| {
            let changed = bus.changed_this_pass();
            for &slot in &changed[*cursor..] {
                for &w in &watchers[slot] {
                    sched.wake(w);
                }
            }
            *cursor = changed.len();
        };
        wake_changed(bus, sched, &mut cursor);
        // The rank walk. Readers rank above writers, so waking a
        // watcher always targets a component later in the order.
        for k in 0..sched.order.len() {
            let i = sched.order[k] as usize;
            if !sched.is_woken(i) {
                continue;
            }
            if telemetry_on {
                evaluated.push(i);
            }
            let started = telemetry.timed().then(Instant::now);
            let mut lowered_ops = 0u64;
            bus.set_driver(i);
            let res = match lowered.get_mut(i).and_then(Option::as_mut) {
                Some(unit) => {
                    let comp = interpreter(&mut components[i]);
                    exec_settle(&unit.prog, &mut unit.scratch, comp, bus)
                        .map(|ops| lowered_ops = ops)
                }
                None => components[i].eval(bus),
            };
            if telemetry_on {
                telemetry.record_eval_since(i, started, components[i].name());
                telemetry.ops_executed += lowered_ops;
            }
            res?;
            // A drive the schedule was not built with (a conditional
            // drive firing for the first time) invalidates the
            // levelization: the new writer may sit at a later rank than
            // its readers. Undo the pass; the settle re-runs as a sweep.
            if bus.driver_link_count() != links {
                bus.rollback_pass();
                return Ok(false);
            }
            wake_changed(bus, sched, &mut cursor);
        }
        if telemetry_on {
            telemetry.settles += 1;
            telemetry.lowered_settles += 1;
            telemetry.record_pass(evaluated);
            telemetry.max_passes = telemetry.max_passes.max(1);
            bus.count_pass_toggles();
        }
        seeds.clear();
        poked_signals.clear();
        Ok(true)
    }

    /// Whether the next lowered settle can take the direct path: the
    /// design is one component, it lowered, and no signal the testbench
    /// pokes has a second driver (whose resolution order the rank walk
    /// pins). The plan's shape alone decides; there is no switch.
    fn direct_ready(&self) -> bool {
        self.components.len() == 1
            && matches!(self.lowered.first(), Some(Some(_)))
            && matches!(&self.compiled, Some(ActivePlan { sched: Ok(_), .. }))
            && self.pokes.iter().all(|(id, _)| {
                let drivers = self.bus.slot_drivers(id.index());
                drivers.iter().all(|&d| d == DRIVER_POKE)
            })
    }

    /// The direct path: one settle of a simulator whose only component
    /// is a lowered unit, run straight on the unit's planes. The pokes
    /// and the unit's `Out` ports are stored on the bus, so `peek`,
    /// `bus()` and the clock edge see them; there is no wake set and no
    /// pass. Each observable count is the rank walk's: the unit
    /// evaluates when the walk would wake it (after an edge, on a poked
    /// or changed input, or promoted), the input memo and the idle
    /// early return are the same, and every drive and toggle lands on
    /// the same signal.
    fn settle_direct(&mut self) -> Result<(), SimError> {
        let telemetry_on = self.telemetry.on();
        if telemetry_on {
            self.telemetry.ensure_components(1);
        }
        #[cfg(test)]
        {
            self.on_direct = true;
        }
        let Simulator {
            components,
            bus,
            pokes,
            watchers,
            always,
            seeds,
            poked_signals,
            telemetry,
            lowered,
            ..
        } = self;
        let Some(Some(unit)) = lowered.first_mut() else {
            unreachable!("the direct path runs a lowered unit");
        };
        let watched = |id: &SignalId| !watchers[id.index()].is_empty();
        let mut woken =
            !seeds.is_empty() || !always.is_empty() || poked_signals.iter().any(watched);
        // Testbench pokes land first, with replace semantics. Only a
        // signal poked since the last settle can have moved; with
        // telemetry on, the rest are stored too, to count the drive the
        // walk's re-drive would.
        for (id, value) in pokes.iter() {
            if (telemetry_on || poked_signals.contains(id))
                && bus.store(*id, *value, DRIVER_POKE)?
                && watched(id)
            {
                woken = true;
            }
        }
        if woken {
            let started = telemetry.timed().then(Instant::now);
            let comp = interpreter(&mut components[0]);
            let ops = settle_planes(&unit.prog, &mut unit.scratch, comp, |id| bus.read(id))?;
            for &(net, signal) in &unit.prog.out_ports {
                let value = Planes(&unit.prog, &unit.scratch).value(net as usize);
                bus.store(signal, value, 0)?;
            }
            if telemetry_on {
                telemetry.record_eval_since(0, started, components[0].name());
                telemetry.ops_executed += ops;
            }
        }
        if telemetry_on {
            telemetry.settles += 1;
            telemetry.lowered_settles += 1;
            telemetry.record_pass(0..usize::from(woken));
            telemetry.max_passes = telemetry.max_passes.max(1);
        }
        seeds.clear();
        poked_signals.clear();
        Ok(())
    }

    /// Freezes the current (settled) design into an active plan:
    /// levelizes the components if possible, records the reason if
    /// not, and snapshots the design shape for staleness detection.
    fn build_compiled(&mut self) {
        let plan = ActivePlan {
            n_sigs: self.bus.len(),
            n_comps: self.components.len(),
            links: self.bus.driver_link_count(),
            sched: self.try_levelize(),
        };
        self.compiled = Some(plan);
    }

    /// (Re)derives the per-component lowered units. Every
    /// [`NetlistComponent`] runs the flat word-level program its clones
    /// share, lowering it here if no clone has yet; anything else — or
    /// a netlist shape that cannot lower — keeps its virtual `eval` on
    /// the rank walk, with the reason recorded as a telemetry note.
    fn ensure_lowered(&mut self) {
        if self.lowered_ready && self.lowered.len() == self.components.len() {
            return;
        }
        let mut units = Vec::with_capacity(self.components.len());
        let mut fallbacks: Vec<String> = Vec::new();
        for (i, c) in self.components.iter().enumerate() {
            let Some(nc) = (**c).as_any().downcast_ref::<NetlistComponent>() else {
                units.push(None);
                continue;
            };
            let unit = match nc.lowered_program() {
                (Ok(prog), lowered_here) => {
                    // A unit this simulator already held was counted then.
                    let held = self.lowered.get(i).and_then(Option::as_ref);
                    if !lowered_here && !held.is_some_and(|u| Arc::ptr_eq(&u.prog, prog)) {
                        self.plan_installs += 1;
                    }
                    Some(LoweredUnit {
                        prog: Arc::clone(prog),
                        scratch: LoweredScratch::new(prog),
                    })
                }
                (Err(reason), _) => {
                    fallbacks.push(format!(
                        "lowered: component `{}` keeps interpreted eval — {reason}",
                        c.name()
                    ));
                    None
                }
            };
            units.push(unit);
        }
        self.lowered = units;
        self.lowered_ready = true;
        if self.telemetry.on() {
            for note in &fallbacks {
                self.telemetry.record_cause(FallbackCause::LoweredComponent);
                self.telemetry.note_once(note);
            }
        }
    }

    /// Attempts to levelize the design: writers per signal are the
    /// drivers the bus observed (the build settle evaluated every
    /// component once) unioned with each component's declared
    /// [`Component::drives`] — the declaration covers conditional
    /// drives that have not fired yet. Readers come from the
    /// sensitivity tables. Kahn's algorithm with longest-path ranks
    /// then orders components by combinational depth; any cycle (or an
    /// [`Sensitivity::Always`] component, whose reads are unknown)
    /// makes the design non-levelizable.
    fn try_levelize(&self) -> Result<CompiledSchedule, String> {
        let n = self.components.len();
        if self.has_always {
            let name = self
                .components
                .iter()
                .find(|c| matches!(c.sensitivity(), Sensitivity::Always))
                .map_or_else(|| "?".to_owned(), |c| c.name().to_owned());
            return Err(format!(
                "component `{name}` declares Sensitivity::Always (undeclared reads), \
                 so no static evaluation order is safe"
            ));
        }
        // Per component: in-degree, then longest-path rank.
        let mut node = vec![(0usize, 0usize); n];
        let mut edges: Vec<Vec<u32>> = vec![Vec::new(); n];
        // The self-loop reported is the first in signal order, observed
        // drivers before declared ones: `(signal, declared, writer)`.
        let mut self_loop: Option<(usize, bool, usize)> = None;
        let mut add_writer = |s: usize, w: usize, declared: bool| {
            for &r in &self.watchers[s] {
                if r == w {
                    if self_loop.is_none_or(|(s0, d0, _)| (s, declared) < (s0, d0)) {
                        self_loop = Some((s, declared, w));
                    }
                    continue;
                }
                edges[w].push(u32::try_from(r).unwrap_or(u32::MAX));
                node[r].0 += 1;
            }
        };
        for s in 0..self.bus.len() {
            for &d in self.bus.slot_drivers(s) {
                if d != DRIVER_POKE && d < n {
                    add_writer(s, d, false);
                }
            }
        }
        // A declared drive the bus also saw adds its edges twice; Kahn's
        // pass counts a repeated edge in and out alike.
        for (i, c) in self.components.iter().enumerate() {
            for id in c.drives().unwrap_or_default() {
                if id.index() < self.bus.len() {
                    add_writer(id.index(), i, true);
                }
            }
        }
        if let Some((s, _, w)) = self_loop {
            return Err(format!(
                "combinational cycle: `{}` reads a signal it drives (`{}`)",
                self.components[w].name(),
                self.bus.name(SignalId(s)).unwrap_or("?")
            ));
        }
        // Kahn's queue, in topological order, becomes the rank order.
        let index = |i: usize| u32::try_from(i).unwrap_or(u32::MAX);
        let mut order: Vec<u32> = Vec::with_capacity(n);
        order.extend((0..n).filter(|&i| node[i].0 == 0).map(index));
        let mut head = 0;
        while head < order.len() {
            let w = order[head] as usize;
            head += 1;
            for &r in &edges[w] {
                let r = r as usize;
                node[r].1 = node[r].1.max(node[w].1 + 1);
                node[r].0 -= 1;
                if node[r].0 == 0 {
                    order.push(index(r));
                }
            }
        }
        if order.len() < n {
            let stuck: Vec<String> = (0..n)
                .filter(|&i| node[i].0 > 0)
                .take(4)
                .map(|i| format!("`{}`", self.components[i].name()))
                .collect();
            let extra = n - order.len() - stuck.len().min(n - order.len());
            let more = if extra > 0 {
                format!(" (+{extra} more)")
            } else {
                String::new()
            };
            return Err(format!(
                "combinational cycle through {}{more}",
                stuck.join(", ")
            ));
        }
        order.sort_by_key(|&i| (node[i as usize].1, i));
        let depth = node
            .iter()
            .map(|&(_, rank)| rank)
            .max()
            .map_or(0, |m| m + 1);
        let mut rank_counts = vec![0u64; depth];
        for &(_, rank) in &node {
            rank_counts[rank] += 1;
        }
        Ok(CompiledSchedule::new(order, rank_counts))
    }

    /// Switches to [`SchedMode::Lowered`] and builds the schedule
    /// immediately (the build settle runs now rather than lazily at
    /// the next settle). Returns whether a rank schedule is
    /// active; `false` means the design cannot be levelized and every
    /// settle will transparently use the full sweep — see
    /// [`Simulator::compile_fallback_reason`] for why. Results are
    /// bit-identical either way.
    ///
    /// # Errors
    ///
    /// Propagates errors from the validation settle.
    pub fn compile(&mut self) -> Result<bool, SimError> {
        self.set_mode(SchedMode::Lowered);
        self.settle()?;
        // The wake-all fallback path defers the build to the next
        // settle; force it now so callers get a definitive answer.
        if self.compiled.is_none() {
            self.build_compiled();
        }
        Ok(self.compiled.as_ref().is_some_and(|p| p.sched.is_ok()))
    }

    /// Why [`SchedMode::Lowered`] permanently fell back to
    /// the full sweep, if it did. `None` while a rank
    /// schedule is active, or before one was ever built.
    #[must_use]
    pub fn compile_fallback_reason(&self) -> Option<&str> {
        self.compiled
            .as_ref()
            .and_then(|p| p.sched.as_ref().err().map(String::as_str))
    }

    /// How many of this simulator's lowered units run on an op stream
    /// an earlier simulator built: a [`NetlistComponent`] lowers once,
    /// and every clone of it shares the program, so a job whose design
    /// came from a cache of pristine components skips the lowering pass.
    /// Counted whatever the telemetry level;
    /// [`SimStats::plan_installs`] reports the same number when
    /// telemetry is on.
    #[must_use]
    pub fn plan_installs(&self) -> u64 {
        self.plan_installs
    }

    /// Builds the non-convergence report from the last pass's dirty set.
    fn no_convergence(&self) -> SimError {
        let oscillating = self
            .bus
            .dirty_slots()
            .iter()
            .take(OSCILLATION_REPORT_CAP)
            .map(|&slot| {
                let name = self
                    .bus
                    .name(SignalId(slot))
                    .unwrap_or("<unknown>")
                    .to_owned();
                let driver = match self.bus.last_changer(slot) {
                    DRIVER_POKE => "testbench".to_owned(),
                    i => self
                        .components
                        .get(i)
                        .map_or_else(|| format!("component #{i}"), |c| c.name().to_owned()),
                };
                format!("`{name}` (last driven by `{driver}`)")
            })
            .collect();
        SimError::NoConvergence {
            limit: DELTA_LIMIT,
            oscillating,
        }
    }

    /// Rebuilds the sensitivity tables if stale, validating every
    /// declared signal id.
    fn ensure_tables(&mut self) -> Result<(), SimError> {
        if self.tables_ready {
            return Ok(());
        }
        self.watchers = vec![Vec::new(); self.bus.len()];
        self.always.clear();
        self.clocked.clear();
        self.has_always = false;
        self.promoted.resize(self.components.len(), false);
        for (i, c) in self.components.iter().enumerate() {
            match c.sensitivity() {
                Sensitivity::Always => {
                    self.always.push(i);
                    self.has_always = true;
                }
                Sensitivity::Signals(mut signals) => {
                    if self.promoted[i] {
                        self.always.push(i);
                    }
                    // Dedup the declared list up front; the watcher
                    // vectors then never need a linear containment
                    // scan, which was quadratic on high-fan-in
                    // components.
                    signals.sort_unstable();
                    signals.dedup();
                    for s in signals {
                        self.watchers
                            .get_mut(s.index())
                            .ok_or(SimError::UnknownSignal { index: s.index() })?
                            .push(i);
                    }
                }
            }
            if c.is_clocked() {
                self.clocked.push(i);
            }
        }
        self.tables_ready = true;
        Ok(())
    }

    /// Executes one full clock cycle: settle, then clock edge.
    ///
    /// # Errors
    ///
    /// Propagates settle and component errors.
    pub fn step(&mut self) -> Result<(), SimError> {
        let telemetry_on = self.telemetry.on();
        let step_t0 = self.telemetry.timed().then(|| self.telemetry.now_ns());
        if telemetry_on {
            self.telemetry.steps += 1;
        }
        self.ensure_domains()?;
        // A step where every domain presents an edge takes the exact
        // historical tick path; a single-rate design (all periods 1)
        // always does, so the multi-domain machinery costs it nothing.
        let cycle = self.cycle;
        let all_fire = self.single_rate || self.domains.iter().all(|d| d.fires_at(cycle));
        // Lowered units read the firing set off their netlist's domain
        // periods; only `Component::tick_domains` needs the names, built
        // on first use.
        let unit_firing = if all_fire {
            Firing::All
        } else {
            Firing::At(cycle)
        };
        let mut names: Option<Vec<&str>> = None;
        self.settle()?;
        // Track tick-phase drives on a clean pass so their watchers can
        // be woken (no in-repo tick drives signals, but the contract
        // allows it).
        self.bus.begin_pass();
        match self.mode {
            SchedMode::FullSweep => {
                for (i, c) in self.components.iter_mut().enumerate() {
                    self.bus.set_driver(i);
                    if all_fire {
                        c.tick(&mut self.bus)?;
                    } else {
                        let firing =
                            names.get_or_insert_with(|| firing_names(&self.domains, cycle));
                        c.tick_domains(&mut self.bus, firing)?;
                    }
                }
            }
            SchedMode::Lowered => {
                for idx in 0..self.clocked.len() {
                    let i = self.clocked[idx];
                    self.bus.set_driver(i);
                    match self.lowered.get(i).and_then(Option::as_ref) {
                        // A lowered unit ticks the interpreter's
                        // sequential model on its own planes.
                        Some(unit) => {
                            let planes = Planes(&unit.prog, &unit.scratch);
                            interpreter(&mut self.components[i])
                                .lowered_tick(&planes, unit_firing)?;
                        }
                        None if all_fire => self.components[i].tick(&mut self.bus)?,
                        None => {
                            let firing =
                                names.get_or_insert_with(|| firing_names(&self.domains, cycle));
                            self.components[i].tick_domains(&mut self.bus, firing)?;
                        }
                    }
                }
                // The edge changed registered state: wake every clocked
                // component, plus watchers of anything tick drove.
                self.seeds.extend_from_slice(&self.clocked);
                for slot in self.bus.dirty_slots() {
                    self.seeds.extend_from_slice(&self.watchers[slot]);
                }
                // A clock edge advanced every clocked interpreter's
                // sequential state, which a lowered program's input memo
                // cannot see: force those op streams to re-run. On a
                // partial-firing multi-rate step the memos are
                // surrendered even for components whose domains sat out
                // — the honest cost of domain filtering, surfaced as a
                // fallback cause rather than hidden.
                if !all_fire && telemetry_on {
                    self.telemetry.record_cause(FallbackCause::MultiDomain);
                }
                for idx in 0..self.clocked.len() {
                    let i = self.clocked[idx];
                    if let Some(unit) = self.lowered.get_mut(i).and_then(Option::as_mut) {
                        unit.scratch.dirty = true;
                    }
                }
            }
        }
        self.bus.set_driver(DRIVER_POKE);
        if telemetry_on {
            // The clock edge's drives land on their own pass; count the
            // settled changes before the post-edge settle resets the
            // dirty tracking. Tick order is identical in every mode, so
            // these toggles stay mode-identical too.
            self.bus.count_pass_toggles();
        }
        self.cycle += 1;
        // Settle again so post-edge outputs are observable immediately.
        let res = self.settle();
        if let Some(t0) = step_t0 {
            self.telemetry.push_span(TraceEvent {
                name: format!("cycle {}", self.cycle),
                cat: "step",
                ts_ns: t0,
                dur_ns: self.telemetry.now_ns().saturating_sub(t0),
                tid: 0,
            });
        }
        res
    }

    /// Executes `n` clock cycles.
    ///
    /// # Errors
    ///
    /// Propagates the first error; earlier cycles remain applied.
    pub fn run(&mut self, n: u64) -> Result<(), SimError> {
        for _ in 0..n {
            self.step()?;
        }
        Ok(())
    }

    /// Runs until `predicate` returns `true` (checked after each cycle)
    /// or `max_cycles` elapse. Returns `true` if the predicate fired.
    ///
    /// # Errors
    ///
    /// Propagates simulation errors.
    pub fn run_until(
        &mut self,
        max_cycles: u64,
        mut predicate: impl FnMut(&SignalBus) -> bool,
    ) -> Result<bool, SimError> {
        for _ in 0..max_cycles {
            self.step()?;
            if predicate(&self.bus) {
                return Ok(true);
            }
        }
        Ok(false)
    }
}

/// How a whole-stimulus run reaches a lone lowered unit's planes
/// ([`Simulator::run_rows`] on the direct path), resolved once per run.
struct DirectPorts {
    /// `(stimulus column, net)` for each `In` port a column drives; when
    /// two columns name one signal, the later column's word is latched,
    /// as its poke would win.
    latch: Vec<(usize, u32)>,
    /// The `Out`-port net of each sampled output, in sample order.
    sample: Vec<u32>,
    /// The width of each stimulus column's signal, for `poke`'s check.
    widths: Vec<usize>,
    /// The words the stimulus columns hold: the row last latched.
    held: Vec<LogicVector>,
}

impl Simulator {
    /// Runs a whole stimulus with the oracle cycle protocol, one call per
    /// job. For each row it pokes the row's words into `inputs` (in
    /// order, as many as the row has), resets on the first row and
    /// settles on the others, hands the settled values of `outputs` to
    /// `sink`, and then [`step`](Simulator::step)s.
    ///
    /// The outcome is the per-cycle loop's, call for call: the rows the
    /// sink sees, the first error and the row that raised it, and the
    /// simulator afterwards (every signal, net, [`cycle`](Self::cycle),
    /// [`stats`](Self::stats) and rank schedule).
    ///
    /// One case runs faster. Take a [`SchedMode::Lowered`] simulator
    /// whose one component is a lowered netlist, with telemetry
    /// [`TelemetryLevel::Off`], where `inputs` are the unit's `In`
    /// ports and `outputs` its `Out` ports. After the first row, each
    /// row runs straight on the unit's planes. The ports are resolved
    /// once. The row is latched with `poke`'s width check, and the ops
    /// are walked once per cycle: the walk after each clock edge folds
    /// into the next row's walk, since nothing reads the bus between
    /// the two. The sampled values come off the `Out` planes, and the
    /// edge is the unit's own. On return, and on error, the run writes
    /// the pokes and outputs back and runs the last post-edge settle.
    /// Any other simulator runs the per-cycle protocol.
    ///
    /// ```
    /// use hdp_sim::{SimBuilder, devices::FifoCore};
    ///
    /// # fn main() -> Result<(), hdp_sim::SimError> {
    /// let mut b = SimBuilder::new();
    /// let push = b.signal("push", 1)?;
    /// let pop = b.signal("pop", 1)?;
    /// let wdata = b.signal("wdata", 8)?;
    /// let rdata = b.signal("rdata", 8)?;
    /// let empty = b.signal("empty", 1)?;
    /// let full = b.signal("full", 1)?;
    /// b.component(FifoCore::new("u_fifo", 16, 8, push, pop, wdata, rdata, empty, full));
    /// let mut sim = b.build()?;
    /// // push, wdata, pop
    /// let rows = [[1, 0x42, 0], [0, 0, 0], [0, 0, 1]];
    /// let mut fronts = Vec::new();
    /// sim.run_rows(&[push, wdata, pop], &rows, &[rdata], |sampled| {
    ///     fronts.push(sampled[0].to_u64());
    /// })
    /// .map_err(|(_row, e)| e)?;
    /// assert_eq!(fronts[1], Some(0x42));
    /// assert_eq!(sim.cycle(), 3);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// The first error, with the 0-based row that raised it. The sink has
    /// seen the rows before it, and the row itself when its clock edge
    /// failed.
    pub fn run_rows<R: AsRef<[u64]>>(
        &mut self,
        inputs: &[SignalId],
        rows: impl IntoIterator<Item = R>,
        outputs: &[SignalId],
        mut sink: impl FnMut(&[LogicVector]),
    ) -> Result<(), (usize, SimError)> {
        let mut rows = rows.into_iter();
        let Some(first) = rows.next() else {
            return Ok(());
        };
        let mut sampled = Vec::with_capacity(outputs.len());
        self.protocol_cycle(
            true,
            inputs,
            first.as_ref(),
            outputs,
            &mut sampled,
            &mut sink,
        )
        .map_err(|e| (0, e))?;
        if let Some(ports) = self.direct_ports(inputs, outputs) {
            return self.run_direct(ports, inputs, rows, &mut sampled, &mut sink);
        }
        for (cycle, row) in (1..).zip(rows) {
            self.protocol_cycle(
                false,
                inputs,
                row.as_ref(),
                outputs,
                &mut sampled,
                &mut sink,
            )
            .map_err(|e| (cycle, e))?;
        }
        Ok(())
    }

    /// One cycle of the oracle protocol through the public calls.
    fn protocol_cycle(
        &mut self,
        first: bool,
        inputs: &[SignalId],
        row: &[u64],
        outputs: &[SignalId],
        sampled: &mut Vec<LogicVector>,
        sink: &mut impl FnMut(&[LogicVector]),
    ) -> Result<(), SimError> {
        for (&id, &value) in inputs.iter().zip(row) {
            self.poke(id, value)?;
        }
        if first {
            self.reset()?;
        } else {
            self.settle()?;
        }
        sampled.clear();
        for &id in outputs {
            sampled.push(self.peek(id)?);
        }
        sink(sampled);
        self.step()
    }

    /// The ports of a run that may continue on the direct path, or
    /// `None`. Asked after the first row's `step`, which leaves every
    /// column poked, the plan built and nothing pending: the next settle
    /// must be a direct one, the columns must be the unit's `In` ports
    /// and the outputs its `Out` ports, and no signal may be both.
    fn direct_ports(&self, inputs: &[SignalId], outputs: &[SignalId]) -> Option<DirectPorts> {
        if self.mode != SchedMode::Lowered || self.telemetry.on() || !self.direct_ready() {
            return None;
        }
        let prog = &self.lowered.first()?.as_ref()?.prog;
        if prog
            .in_ports
            .iter()
            .any(|&(_, s)| prog.out_ports.iter().any(|&(_, o)| o == s))
        {
            return None;
        }
        let mut latch = Vec::new();
        for &(net, signal) in &prog.in_ports {
            if let Some(k) = inputs.iter().rposition(|&id| id == signal) {
                latch.push((k, net));
            }
        }
        let mut widths = Vec::with_capacity(inputs.len());
        let mut held = Vec::with_capacity(inputs.len());
        for id in inputs {
            prog.in_ports.iter().find(|&&(_, s)| s == *id)?;
            widths.push(self.bus.width(*id).ok()?);
            held.push(self.pokes.iter().find(|(s, _)| s == id)?.1);
        }
        let sample = outputs
            .iter()
            .map(|id| {
                let port = prog.out_ports.iter().find(|&&(_, s)| s == *id);
                port.map(|&(net, _)| net)
            })
            .collect::<Option<_>>()?;
        Some(DirectPorts {
            latch,
            sample,
            widths,
            held,
        })
    }

    /// Rows 1.. of [`Simulator::run_rows`] on the unit's planes. Per
    /// row: check and latch the words, walk when they or the sequential
    /// state moved (the input memo), sample the `Out` planes, clock
    /// edge. The bus is left alone until [`Simulator::finish_direct`].
    fn run_direct<R: AsRef<[u64]>>(
        &mut self,
        mut ports: DirectPorts,
        inputs: &[SignalId],
        rows: impl Iterator<Item = R>,
        sampled: &mut Vec<LogicVector>,
        sink: &mut impl FnMut(&[LogicVector]),
    ) -> Result<(), (usize, SimError)> {
        #[cfg(test)]
        {
            self.on_direct = true;
        }
        let mut next = ports.held.clone();
        let mut cycle = 1;
        let clocked = !self.clocked.is_empty();
        for row in rows {
            next.copy_from_slice(&ports.held);
            for (k, (&value, &width)) in row.as_ref().iter().zip(&ports.widths).enumerate() {
                match LogicVector::from_u64(value, width) {
                    Ok(v) => next[k] = v,
                    Err(e) => {
                        // `poke` fails here: the last row has settled
                        // after its edge, and this row's earlier words
                        // are poked.
                        if cycle > 1 {
                            self.finish_direct(inputs, &ports.held)
                                .map_err(|e| (cycle - 1, e))?;
                        }
                        for (&id, &v) in inputs.iter().zip(&next).take(k) {
                            self.set_poke(id, v);
                        }
                        return Err((cycle, SimError::from(e)));
                    }
                }
            }
            std::mem::swap(&mut ports.held, &mut next);
            let Simulator {
                components,
                bus,
                lowered,
                domains,
                single_rate,
                cycle: sim_cycle,
                ..
            } = self;
            let unit = lowered[0]
                .as_mut()
                .expect("the direct path runs a lowered unit");
            let comp = interpreter(&mut components[0]);
            if !comp.planes_current() {
                // An interpreted settle ran last (the reset's sweep):
                // take every port off the bus and walk, as
                // `settle_planes` would.
                unit.scratch.dirty = true;
                latch_inputs(&unit.prog, &mut unit.scratch, |id| bus.read(id))
                    .map_err(|e| (cycle, e))?;
            }
            let mut changed = unit.scratch.dirty;
            for &(k, net) in &ports.latch {
                let planes = ports.held[k].raw_masks();
                let latched = &mut unit.scratch.nets[net as usize];
                if *latched != planes {
                    *latched = planes;
                    changed = true;
                }
            }
            if changed {
                exec_walk(&unit.prog, &mut unit.scratch, comp);
            }
            sampled.clear();
            let planes = Planes(&unit.prog, &unit.scratch);
            sampled.extend(ports.sample.iter().map(|&net| planes.value(net as usize)));
            sink(sampled);
            if clocked {
                let t = *sim_cycle;
                let firing = if *single_rate || domains.iter().all(|d| d.fires_at(t)) {
                    Firing::All
                } else {
                    Firing::At(t)
                };
                if let Err(e) = comp.lowered_tick(&planes, firing) {
                    // As `step` leaves it: no post-edge settle.
                    self.finish_direct(inputs, &ports.held)
                        .map_err(|e| (cycle, e))?;
                    return Err((cycle, e));
                }
                unit.scratch.dirty = true;
            }
            *sim_cycle += 1;
            cycle += 1;
        }
        if cycle > 1 {
            self.finish_direct(inputs, &ports.held)
                .map_err(|e| (cycle - 1, e))?;
        }
        Ok(())
    }

    /// Hands a direct run's state back to the bus once a row has run:
    /// the words the columns hold become the pokes again, and one direct
    /// settle, with the clocked unit woken as an edge wakes it, stores
    /// them and the `Out` ports. It walks when the last edge left the
    /// sequential state unwalked (the post-edge settle of the last
    /// `step`), and not after an edge that failed.
    fn finish_direct(&mut self, inputs: &[SignalId], held: &[LogicVector]) -> Result<(), SimError> {
        for (&id, &v) in inputs.iter().zip(held) {
            self.set_poke(id, v);
        }
        self.seeds.extend_from_slice(&self.clocked);
        self.settle()
    }
}

#[cfg(test)]
impl Simulator {
    /// Whether the last lowered settle that did work ran on the direct
    /// path rather than the rank walk.
    pub(crate) fn on_direct_path(&self) -> bool {
        self.on_direct
    }
}

/// The names of the domains that fire at base step `t`, for
/// [`Component::tick_domains`].
fn firing_names(domains: &[ClockDomain], t: u64) -> Vec<&str> {
    domains
        .iter()
        .filter(|d| d.fires_at(t))
        .map(|d| d.name.as_str())
        .collect()
}

/// Builder-style construction of a [`Simulator`].
///
/// Registers signals, components and initial pokes up front, then
/// [`SimBuilder::build`] freezes the sensitivity tables once,
/// validates every declared sensitivity against the signal set, and
/// applies power-on reset — so the returned simulator never rebuilds
/// tables mid-run.
///
/// ```
/// use hdp_sim::{SimBuilder, devices::FifoCore};
///
/// # fn main() -> Result<(), hdp_sim::SimError> {
/// let mut b = SimBuilder::new();
/// let push = b.signal("push", 1)?;
/// let pop = b.signal("pop", 1)?;
/// let wdata = b.signal("wdata", 8)?;
/// let rdata = b.signal("rdata", 8)?;
/// let empty = b.signal("empty", 1)?;
/// let full = b.signal("full", 1)?;
/// b.component(FifoCore::new("u_fifo", 4, 8, push, pop, wdata, rdata, empty, full));
/// b.poke(push, 0)?;
/// b.poke(pop, 0)?;
/// b.poke(wdata, 0)?;
/// let mut sim = b.build()?; // tables frozen, reset applied
/// assert_eq!(sim.peek(empty)?.to_u64(), Some(1));
/// sim.step()?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct SimBuilder {
    sim: Simulator,
}

impl SimBuilder {
    /// Starts an empty builder (full-sweep mode).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts an empty builder with an explicit scheduling mode.
    #[must_use]
    pub fn with_mode(mode: SchedMode) -> Self {
        SimBuilder {
            sim: Simulator::with_mode(mode),
        }
    }

    /// Declares a signal.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::DuplicateSignal`] or a width error.
    pub fn signal(&mut self, name: impl Into<String>, width: usize) -> Result<SignalId, SimError> {
        self.sim.add_signal(name, width)
    }

    /// Registers a component.
    pub fn component(&mut self, component: impl Component + Send + 'static) -> ComponentId {
        self.sim.add_component(component)
    }

    /// Enables telemetry at `level` from the very first settle (the
    /// power-on reset in [`SimBuilder::build`] is already counted).
    pub fn telemetry(&mut self, level: TelemetryLevel) -> &mut Self {
        self.sim.set_telemetry(level);
        self
    }

    /// Sets an initial testbench drive, applied from the first settle.
    ///
    /// # Errors
    ///
    /// Returns width or unknown-signal errors.
    pub fn poke(&mut self, id: SignalId, value: u64) -> Result<(), SimError> {
        self.sim.poke(id, value)
    }

    /// Sets an initial testbench drive with an arbitrary logic value.
    ///
    /// # Errors
    ///
    /// Returns width or unknown-signal errors.
    pub fn poke_vector(&mut self, id: SignalId, value: LogicVector) -> Result<(), SimError> {
        self.sim.poke_vector(id, value)
    }

    /// Freezes the sensitivity tables, validates them, applies
    /// power-on reset and returns the ready simulator.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownSignal`] if a component declared
    /// sensitivity to a signal that does not exist, plus any reset or
    /// settle error.
    pub fn build(mut self) -> Result<Simulator, SimError> {
        self.sim.ensure_tables()?;
        self.sim.reset()?;
        Ok(self.sim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BusAccess;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// A register: q <= d on every edge.
    struct Reg {
        name: String,
        d: SignalId,
        q: SignalId,
        state: u64,
    }

    impl Component for Reg {
        fn name(&self) -> &str {
            &self.name
        }
        fn eval(&mut self, bus: &mut dyn BusAccess) -> Result<(), SimError> {
            bus.drive_u64(self.q, self.state)
        }
        fn tick(&mut self, bus: &mut SignalBus) -> Result<(), SimError> {
            self.state = bus.read_u64(self.d, &self.name)?;
            Ok(())
        }
        fn reset(&mut self, _bus: &mut SignalBus) -> Result<(), SimError> {
            self.state = 0;
            Ok(())
        }
        fn sensitivity(&self) -> Sensitivity {
            Sensitivity::Signals(vec![])
        }
    }

    /// Combinational +1.
    struct Inc {
        name: String,
        a: SignalId,
        y: SignalId,
        evals: Option<Arc<AtomicUsize>>,
    }

    impl Component for Inc {
        fn name(&self) -> &str {
            &self.name
        }
        fn eval(&mut self, bus: &mut dyn BusAccess) -> Result<(), SimError> {
            if let Some(evals) = &self.evals {
                evals.fetch_add(1, Ordering::Relaxed);
            }
            let a = bus.read(self.a)?;
            if let Some(v) = a.to_u64() {
                bus.drive_u64(self.y, (v + 1) & 0xFF)?;
            }
            Ok(())
        }
        fn tick(&mut self, _bus: &mut SignalBus) -> Result<(), SimError> {
            Ok(())
        }
        fn sensitivity(&self) -> Sensitivity {
            Sensitivity::Signals(vec![self.a])
        }
        fn is_clocked(&self) -> bool {
            false
        }
    }

    fn counter_sim(mode: SchedMode) -> (Simulator, SignalId) {
        let mut sim = Simulator::with_mode(mode);
        let q = sim.add_signal("q", 8).unwrap();
        let d = sim.add_signal("d", 8).unwrap();
        sim.add_component(Reg {
            name: "r".into(),
            d,
            q,
            state: 0,
        });
        sim.add_component(Inc {
            name: "i".into(),
            a: q,
            y: d,
            evals: None,
        });
        sim.reset().unwrap();
        (sim, q)
    }

    #[test]
    fn counter_from_reg_and_inc() {
        // q -> inc -> d -> reg -> q : a classic counter loop broken by
        // the register.
        for mode in SchedMode::ALL {
            let (mut sim, q) = counter_sim(mode);
            assert_eq!(sim.peek(q).unwrap().to_u64(), Some(0));
            sim.run(5).unwrap();
            assert_eq!(sim.peek(q).unwrap().to_u64(), Some(5));
            assert_eq!(sim.cycle(), 5);
        }
    }

    #[test]
    fn poke_persists_across_cycles() {
        for mode in SchedMode::ALL {
            let mut sim = Simulator::with_mode(mode);
            let d = sim.add_signal("d", 8).unwrap();
            let q = sim.add_signal("q", 8).unwrap();
            sim.add_component(Reg {
                name: "r".into(),
                d,
                q,
                state: 0,
            });
            sim.reset().unwrap();
            sim.poke(d, 42).unwrap();
            sim.run(3).unwrap();
            assert_eq!(sim.peek(q).unwrap().to_u64(), Some(42));
        }
    }

    #[test]
    fn zero_delay_loop_is_detected() {
        // Two combinational inverters in a loop: y = x+1, x = y+1 never
        // converges.
        for mode in SchedMode::ALL {
            let mut sim2 = Simulator::with_mode(mode);
            let x2 = sim2.add_signal("x", 8).unwrap();
            let y2 = sim2.add_signal("y", 8).unwrap();
            sim2.add_component(Inc {
                name: "a".into(),
                a: x2,
                y: y2,
                evals: None,
            });
            sim2.add_component(Inc {
                name: "b".into(),
                a: y2,
                y: x2,
                evals: None,
            });
            // Seed the loop with a defined value so it oscillates.
            sim2.poke(x2, 0).unwrap();
            sim2.settle().ok(); // poked variant may resolve to X, that's fine
            sim2.unpoke(x2);
            let err = sim2.settle();
            // Either the loop oscillates (NoConvergence) or collapses to X
            // (converged); both are acceptable outcomes for an illegal
            // netlist, but an infinite hang is not. The poked case must not
            // hang either.
            match err {
                Ok(()) | Err(SimError::NoConvergence { .. }) => {}
                Err(other) => panic!("unexpected error {other}"),
            }
        }
    }

    #[test]
    fn no_convergence_report_names_loop_signals() {
        // An unambiguous oscillator: y = x+1 and x = y+1 with defined
        // seed values and no poke interference after the first settle.
        let mut sim = Simulator::new();
        let x = sim.add_signal("x", 8).unwrap();
        let y = sim.add_signal("y", 8).unwrap();
        sim.add_component(Inc {
            name: "a".into(),
            a: x,
            y,
            evals: None,
        });
        sim.add_component(Inc {
            name: "b".into(),
            a: y,
            y: x,
            evals: None,
        });
        sim.poke(x, 0).unwrap();
        sim.settle().ok();
        sim.unpoke(x);
        if let Err(SimError::NoConvergence { oscillating, .. }) = sim.settle() {
            assert!(!oscillating.is_empty(), "report must name signals");
            let text = oscillating.join(", ");
            assert!(
                text.contains("`x`") || text.contains("`y`"),
                "report names the loop wires: {text}"
            );
            assert!(
                text.contains("`a`") || text.contains("`b`"),
                "report names the drivers: {text}"
            );
        }
    }

    #[test]
    fn run_until_fires_predicate() {
        let mut sim = Simulator::new();
        let q = sim.add_signal("q", 8).unwrap();
        let d = sim.add_signal("d", 8).unwrap();
        sim.add_component(Reg {
            name: "r".into(),
            d,
            q,
            state: 0,
        });
        sim.add_component(Inc {
            name: "i".into(),
            a: q,
            y: d,
            evals: None,
        });
        sim.reset().unwrap();
        let hit = sim
            .run_until(100, |bus| bus.read(q).unwrap().to_u64() == Some(10))
            .unwrap();
        assert!(hit);
        assert_eq!(sim.cycle(), 10);
    }

    #[test]
    fn run_until_gives_up() {
        let mut sim = Simulator::new();
        let q = sim.add_signal("q", 8).unwrap();
        sim.poke(q, 0).unwrap();
        let hit = sim
            .run_until(5, |bus| bus.read(q).unwrap().to_u64() == Some(1))
            .unwrap();
        assert!(!hit);
    }

    #[test]
    fn the_walk_skips_unaffected_components() {
        let mut sim = Simulator::with_mode(SchedMode::Lowered);
        let a = sim.add_signal("a", 8).unwrap();
        let y = sim.add_signal("y", 8).unwrap();
        let evals = Arc::new(AtomicUsize::new(0));
        sim.add_component(Inc {
            name: "i".into(),
            a,
            y,
            evals: Some(Arc::clone(&evals)),
        });
        sim.poke(a, 1).unwrap();
        sim.reset().unwrap();
        let after_reset = evals.load(Ordering::Relaxed);
        assert!(after_reset >= 1, "reset evaluates everything once");
        // Nothing the component is sensitive to changes across idle
        // cycles, and it is not clocked: zero further evaluations.
        sim.run(10).unwrap();
        assert_eq!(
            evals.load(Ordering::Relaxed),
            after_reset,
            "idle cycles must not re-eval"
        );
        // A poke on the watched signal wakes it again.
        sim.poke(a, 7).unwrap();
        sim.settle().unwrap();
        assert!(evals.load(Ordering::Relaxed) > after_reset);
        assert_eq!(sim.peek(y).unwrap().to_u64(), Some(8));
    }

    #[test]
    fn shared_signal_promotes_both_drivers() {
        /// Drives `bus_sig` with `value` while `sel == me`, else `Z`.
        struct TriState {
            name: String,
            sel: SignalId,
            bus_sig: SignalId,
            me: u64,
            value: u64,
        }
        impl Component for TriState {
            fn name(&self) -> &str {
                &self.name
            }
            fn eval(&mut self, bus: &mut dyn BusAccess) -> Result<(), SimError> {
                if bus.read(self.sel)?.to_u64() == Some(self.me) {
                    bus.drive_u64(self.bus_sig, self.value)
                } else {
                    bus.drive(
                        self.bus_sig,
                        LogicVector::high_z(8).map_err(SimError::from)?,
                    )
                }
            }
            fn tick(&mut self, _bus: &mut SignalBus) -> Result<(), SimError> {
                Ok(())
            }
            fn sensitivity(&self) -> Sensitivity {
                Sensitivity::Signals(vec![self.sel])
            }
            fn is_clocked(&self) -> bool {
                false
            }
        }
        for mode in SchedMode::ALL {
            let mut sim = Simulator::with_mode(mode);
            let sel = sim.add_signal("sel", 1).unwrap();
            let shared = sim.add_signal("shared", 8).unwrap();
            sim.add_component(TriState {
                name: "t0".into(),
                sel,
                bus_sig: shared,
                me: 0,
                value: 0x11,
            });
            sim.add_component(TriState {
                name: "t1".into(),
                sel,
                bus_sig: shared,
                me: 1,
                value: 0x22,
            });
            sim.poke(sel, 0).unwrap();
            sim.reset().unwrap();
            assert_eq!(sim.peek(shared).unwrap().to_u64(), Some(0x11));
            sim.poke(sel, 1).unwrap();
            sim.settle().unwrap();
            assert_eq!(sim.peek(shared).unwrap().to_u64(), Some(0x22));
            sim.poke(sel, 0).unwrap();
            sim.settle().unwrap();
            assert_eq!(sim.peek(shared).unwrap().to_u64(), Some(0x11));
        }
    }

    #[test]
    fn the_walk_wakes_readers_of_a_drive_a_resolve_undid() {
        /// On every `sel` change, releases `y` to `Z` and drives 0x11
        /// back over it within the same evaluation.
        struct Handover {
            sel: SignalId,
            y: SignalId,
        }
        impl Component for Handover {
            fn name(&self) -> &str {
                "handover"
            }
            fn eval(&mut self, bus: &mut dyn BusAccess) -> Result<(), SimError> {
                bus.drive(self.y, LogicVector::high_z(8).map_err(SimError::from)?)?;
                bus.drive_u64(self.y, 0x11)
            }
            fn tick(&mut self, _bus: &mut SignalBus) -> Result<(), SimError> {
                Ok(())
            }
            fn sensitivity(&self) -> Sensitivity {
                Sensitivity::Signals(vec![self.sel])
            }
            fn is_clocked(&self) -> bool {
                false
            }
        }
        // The walk wakes the readers of every slot that moved during its
        // pass, even one a later resolve restored, and settles to the
        // sweep's values.
        let reader_evals = |mode| {
            let mut sim = Simulator::with_mode(mode);
            let sel = sim.add_signal("sel", 1).unwrap();
            let y = sim.add_signal("y", 8).unwrap();
            let z = sim.add_signal("z", 8).unwrap();
            sim.add_component(Handover { sel, y });
            let evals = Arc::new(AtomicUsize::new(0));
            sim.add_component(Inc {
                name: "reader".into(),
                a: y,
                y: z,
                evals: Some(Arc::clone(&evals)),
            });
            sim.poke(sel, 0).unwrap();
            sim.reset().unwrap();
            let before = evals.load(Ordering::Relaxed);
            sim.poke(sel, 1).unwrap();
            sim.settle().unwrap();
            assert_eq!(sim.peek(z).unwrap().to_u64(), Some(0x12));
            evals.load(Ordering::Relaxed) - before
        };
        reader_evals(SchedMode::FullSweep);
        assert_eq!(reader_evals(SchedMode::Lowered), 1);
    }

    #[test]
    fn builder_freezes_tables_and_resets() {
        let mut b = SimBuilder::new();
        let q = b.signal("q", 8).unwrap();
        let d = b.signal("d", 8).unwrap();
        b.component(Reg {
            name: "r".into(),
            d,
            q,
            state: 3,
        });
        b.component(Inc {
            name: "i".into(),
            a: q,
            y: d,
            evals: None,
        });
        let mut sim = b.build().unwrap();
        // Reset applied by build: register state cleared and settled.
        assert_eq!(sim.peek(q).unwrap().to_u64(), Some(0));
        sim.run(4).unwrap();
        assert_eq!(sim.peek(q).unwrap().to_u64(), Some(4));
    }

    #[test]
    fn builder_rejects_unknown_sensitivity_signal() {
        struct Liar {
            bogus: SignalId,
        }
        impl Component for Liar {
            fn name(&self) -> &str {
                "liar"
            }
            fn eval(&mut self, _bus: &mut dyn BusAccess) -> Result<(), SimError> {
                Ok(())
            }
            fn tick(&mut self, _bus: &mut SignalBus) -> Result<(), SimError> {
                Ok(())
            }
            fn sensitivity(&self) -> Sensitivity {
                Sensitivity::Signals(vec![self.bogus])
            }
        }
        let mut b = SimBuilder::new();
        b.component(Liar {
            bogus: SignalId(99),
        });
        assert!(matches!(
            b.build(),
            Err(SimError::UnknownSignal { index: 99 })
        ));
    }

    #[test]
    fn mode_switch_mid_run_stays_consistent() {
        let (mut sim, q) = counter_sim(SchedMode::FullSweep);
        sim.run(3).unwrap();
        sim.set_mode(SchedMode::Lowered);
        sim.run(3).unwrap();
        sim.set_mode(SchedMode::FullSweep);
        sim.run(3).unwrap();
        sim.set_mode(SchedMode::Lowered);
        sim.run(3).unwrap();
        assert_eq!(sim.peek(q).unwrap().to_u64(), Some(12));
    }

    /// Builds `n` independent counters in one simulator.
    fn multi_counter_sim(mode: SchedMode, n: usize) -> (Simulator, Vec<SignalId>) {
        let mut sim = Simulator::with_mode(mode);
        let mut qs = Vec::new();
        for k in 0..n {
            let q = sim.add_signal(format!("q{k}"), 8).unwrap();
            let d = sim.add_signal(format!("d{k}"), 8).unwrap();
            sim.add_component(Reg {
                name: format!("r{k}"),
                d,
                q,
                state: 0,
            });
            sim.add_component(Inc {
                name: format!("i{k}"),
                a: q,
                y: d,
                evals: None,
            });
            qs.push(q);
        }
        sim.reset().unwrap();
        (sim, qs)
    }

    #[test]
    fn component_error_is_reported_in_every_mode() {
        struct Faulty {
            in_sig: SignalId,
        }
        impl Component for Faulty {
            fn name(&self) -> &str {
                "faulty"
            }
            fn eval(&mut self, bus: &mut dyn BusAccess) -> Result<(), SimError> {
                // Reads an X signal as an integer: protocol error.
                bus.read_u64(self.in_sig, "faulty")?;
                Ok(())
            }
            fn tick(&mut self, _bus: &mut SignalBus) -> Result<(), SimError> {
                Ok(())
            }
            fn sensitivity(&self) -> Sensitivity {
                Sensitivity::Signals(vec![self.in_sig])
            }
            fn is_clocked(&self) -> bool {
                false
            }
        }
        for mode in SchedMode::ALL {
            let mut sim = Simulator::with_mode(mode);
            let x = sim.add_signal("x", 4).unwrap();
            sim.add_component(Faulty { in_sig: x });
            assert!(
                matches!(sim.reset(), Err(SimError::Protocol { .. })),
                "{mode:?}"
            );
        }
    }

    #[test]
    fn debug_format_mentions_counts() {
        let sim = Simulator::new();
        assert!(format!("{sim:?}").contains("components"));
    }

    /// `y = a + 1` while `sel` is 1, else `y = 0`: a quiescent
    /// component that becomes half of a zero-delay oscillator when
    /// enabled. Two of these back to back oscillate forever.
    struct GatedInc {
        name: String,
        sel: SignalId,
        a: SignalId,
        y: SignalId,
    }

    impl Component for GatedInc {
        fn name(&self) -> &str {
            &self.name
        }
        fn eval(&mut self, bus: &mut dyn BusAccess) -> Result<(), SimError> {
            if bus.read(self.sel)?.to_u64() == Some(1) {
                let a = bus.read(self.a)?.to_u64().unwrap_or(0);
                bus.drive_u64(self.y, (a + 1) & 0xFF)
            } else {
                bus.drive_u64(self.y, 0)
            }
        }
        fn tick(&mut self, _bus: &mut SignalBus) -> Result<(), SimError> {
            Ok(())
        }
        fn sensitivity(&self) -> Sensitivity {
            Sensitivity::Signals(vec![self.sel, self.a])
        }
        fn is_clocked(&self) -> bool {
            false
        }
    }

    /// `n` independent gated oscillator pairs, quiescent (all `sel`
    /// poked to 0) and settled after reset.
    fn oscillator_farm(mode: SchedMode, n: usize) -> (Simulator, Vec<SignalId>) {
        let mut sim = Simulator::with_mode(mode);
        let mut sels = Vec::new();
        for k in 0..n {
            let sel = sim.add_signal(format!("sel{k}"), 1).unwrap();
            let x = sim.add_signal(format!("x{k}"), 8).unwrap();
            let y = sim.add_signal(format!("y{k}"), 8).unwrap();
            sim.add_component(GatedInc {
                name: format!("a{k}"),
                sel,
                a: x,
                y,
            });
            sim.add_component(GatedInc {
                name: format!("b{k}"),
                sel,
                a: y,
                y: x,
            });
            sim.poke(sel, 0).unwrap();
            sels.push(sel);
        }
        sim.reset().unwrap();
        (sim, sels)
    }

    #[test]
    fn no_convergence_report_identical_across_modes() {
        // Enable eight oscillators at once. The resulting
        // NoConvergence must name the same signals and drivers in
        // every mode: the report is built from the bus's dirty set,
        // which every scheduler leaves bit-identical.
        let mut reports = Vec::new();
        for mode in SchedMode::ALL {
            let (mut sim, sels) = oscillator_farm(mode, 8);
            for sel in &sels {
                sim.poke(*sel, 1).unwrap();
            }
            let err = sim.settle().unwrap_err();
            assert!(
                matches!(err, SimError::NoConvergence { .. }),
                "{mode:?}: expected NoConvergence, got {err}"
            );
            reports.push((mode, err));
        }
        let (ref_mode, reference) = &reports[0];
        for (mode, err) in &reports[1..] {
            assert_eq!(
                err, reference,
                "{mode:?} must report the same oscillation as {ref_mode:?}"
            );
        }
    }

    #[test]
    fn no_convergence_forensics_capture_wake_sets() {
        let (mut sim, sels) = oscillator_farm(SchedMode::FullSweep, 2);
        sim.set_telemetry(TelemetryLevel::Counters);
        for sel in &sels {
            sim.poke(*sel, 1).unwrap();
        }
        sim.settle().unwrap_err();
        let stats = sim.stats();
        assert_eq!(
            stats.last_wake_sets.len(),
            crate::telemetry::WAKE_FORENSICS_DEPTH
        );
        let last = stats.last_wake_sets.last().unwrap();
        assert!(
            last.iter()
                .any(|name| name.starts_with('a') || name.starts_with('b')),
            "forensics name the chasing components: {last:?}"
        );
    }

    #[test]
    fn telemetry_off_leaves_stats_empty() {
        let (mut sim, _) = counter_sim(SchedMode::FullSweep);
        sim.run(20).unwrap();
        assert_eq!(sim.telemetry_level(), TelemetryLevel::Off);
        let stats = sim.stats();
        assert!(stats.is_empty());
        assert_eq!(stats, SimStats::default());
    }

    #[test]
    fn telemetry_counters_accumulate() {
        let (mut sim, _) = counter_sim(SchedMode::FullSweep);
        sim.set_telemetry(TelemetryLevel::Counters);
        sim.run(10).unwrap();
        let stats = sim.stats();
        assert_eq!(stats.steps, 10);
        assert!(
            stats.settles >= 20,
            "two settles per step: {}",
            stats.settles
        );
        assert!(stats.passes >= stats.settles);
        assert!(stats.total_evals() > 0);
        assert!(stats.total_toggles() > 0, "a counter toggles every cycle");
        assert!(stats.max_wake >= 1);
        let report = stats.report();
        assert!(report.contains('r') && report.contains('i'), "{report}");
        // Counters level records no spans.
        assert!(stats.trace.is_empty());
        let r = &stats.components[0];
        assert_eq!(r.name, "r");
        assert!(r.evals > 0);
        assert_eq!(r.eval_ns, 0, "no clock reads below Full");
    }

    #[test]
    fn telemetry_toggles_identical_across_all_modes() {
        let runs: Vec<SimStats> = SchedMode::ALL
            .into_iter()
            .map(|mode| {
                let (mut sim, _) = multi_counter_sim(mode, 8);
                sim.set_telemetry(TelemetryLevel::Counters);
                sim.run(25).unwrap();
                sim.stats()
            })
            .collect();
        let reference = &runs[0];
        for stats in &runs[1..] {
            assert_eq!(stats.total_toggles(), reference.total_toggles());
            for (s, rs) in stats.signals.iter().zip(&reference.signals) {
                assert_eq!(
                    (s.name.as_str(), s.toggles),
                    (rs.name.as_str(), rs.toggles),
                    "settled toggle activity is mode-invariant"
                );
            }
        }
        // Drive counts are eval-proportional: strictly higher under the
        // full sweep (every component re-drives every pass).
        let (sweep, lowered) = (&runs[0], &runs[1]);
        assert!(sweep.total_drives() > lowered.total_drives());
    }

    #[test]
    fn telemetry_full_records_spans() {
        let (mut sim, _) = multi_counter_sim(SchedMode::FullSweep, 8);
        sim.set_telemetry(TelemetryLevel::Full);
        sim.run(5).unwrap();
        let stats = sim.stats();
        assert!(!stats.trace.is_empty());
        let cats: std::collections::HashSet<&str> = stats.trace.iter().map(|ev| ev.cat).collect();
        assert!(cats.contains("step"), "{cats:?}");
        assert!(cats.contains("pass"), "{cats:?}");
        assert!(cats.contains("eval"), "{cats:?}");
        assert!(
            stats.components.iter().any(|c| c.eval_ns > 0),
            "Full level accumulates eval time"
        );
        let json = stats.chrome_trace();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn builder_telemetry_covers_reset() {
        let mut b = SimBuilder::new();
        let q = b.signal("q", 8).unwrap();
        let d = b.signal("d", 8).unwrap();
        b.component(Reg {
            name: "r".into(),
            d,
            q,
            state: 0,
        });
        b.component(Inc {
            name: "i".into(),
            a: q,
            y: d,
            evals: None,
        });
        b.telemetry(TelemetryLevel::Counters);
        let sim = b.build().unwrap();
        let stats = sim.stats();
        assert!(stats.settles > 0, "power-on reset settle is counted");
        assert!(stats.total_evals() > 0);
    }

    #[test]
    fn compile_levelizes_a_counter_and_reports_ranks() {
        let (mut sim, q) = counter_sim(SchedMode::Lowered);
        sim.set_telemetry(TelemetryLevel::Counters);
        assert!(sim.compile().unwrap(), "a registered counter levelizes");
        assert!(sim.compile_fallback_reason().is_none());
        sim.run(10).unwrap();
        assert_eq!(sim.peek(q).unwrap().to_u64(), Some(10));
        let stats = sim.stats();
        assert!(stats.lowered_settles > 0, "settles use the rank walk");
        // Reg (reads nothing) at rank 0, Inc (reads q) at rank 1.
        assert_eq!(stats.compiled_ranks, vec![1, 1]);
        assert!(
            stats.notes.is_empty(),
            "no fallback notes: {:?}",
            stats.notes
        );
        assert!(stats.report().contains("rank-walk settles"));
    }

    #[test]
    fn lowered_falls_back_permanently_on_combinational_cycle() {
        // The gated oscillator pair is a static cycle (a reads x and
        // drives y; b reads y and drives x) even while quiescent.
        let (mut sim, sels) = oscillator_farm(SchedMode::Lowered, 1);
        sim.set_telemetry(TelemetryLevel::Counters);
        assert!(!sim.compile().unwrap(), "a static cycle cannot levelize");
        let reason = sim.compile_fallback_reason().unwrap();
        assert!(reason.contains("combinational cycle"), "{reason}");
        // The fallback is transparent: runs keep working and results
        // are bit-identical to a plain full-sweep simulation.
        let (mut reference, ref_sels) = oscillator_farm(SchedMode::FullSweep, 1);
        sim.run(5).unwrap();
        reference.run(5).unwrap();
        assert_eq!(
            sim.peek(sels[0]).unwrap(),
            reference.peek(ref_sels[0]).unwrap()
        );
        let stats = sim.stats();
        assert_eq!(stats.lowered_settles, 0, "no rank walks ever ran");
        assert!(stats.fallback_settles > 0);
        assert!(
            stats
                .notes
                .iter()
                .any(|n| n.contains("permanently falling back")),
            "stats must surface the reason: {:?}",
            stats.notes
        );
    }

    #[test]
    fn the_self_loop_reported_is_the_first_in_signal_order() {
        /// Reads `read`; drives 0 onto `drive`; declares `declare`.
        struct Loop {
            name: &'static str,
            read: SignalId,
            drive: Option<SignalId>,
            declare: Option<SignalId>,
        }
        impl Component for Loop {
            fn name(&self) -> &str {
                self.name
            }
            fn eval(&mut self, bus: &mut dyn BusAccess) -> Result<(), SimError> {
                self.drive.map_or(Ok(()), |y| bus.drive_u64(y, 0))
            }
            fn tick(&mut self, _bus: &mut SignalBus) -> Result<(), SimError> {
                Ok(())
            }
            fn sensitivity(&self) -> Sensitivity {
                Sensitivity::Signals(vec![self.read])
            }
            fn is_clocked(&self) -> bool {
                false
            }
            fn drives(&self) -> Option<Vec<SignalId>> {
                self.declare.map(|s| vec![s])
            }
        }
        // `late` only declares its loop, on the lower signal; `eager`'s
        // loop is one the bus saw. Signal order picks `late`.
        let mut sim = Simulator::new();
        let p = sim.add_signal("p", 1).unwrap();
        let q = sim.add_signal("q", 1).unwrap();
        sim.add_component(Loop {
            name: "eager",
            read: q,
            drive: Some(q),
            declare: None,
        });
        sim.add_component(Loop {
            name: "late",
            read: p,
            drive: None,
            declare: Some(p),
        });
        assert!(!sim.compile().unwrap());
        assert_eq!(
            sim.compile_fallback_reason(),
            Some("combinational cycle: `late` reads a signal it drives (`p`)")
        );
    }

    #[test]
    fn lowered_falls_back_permanently_on_always_sensitivity() {
        struct Sweeper {
            y: SignalId,
        }
        impl Component for Sweeper {
            fn name(&self) -> &str {
                "sweeper"
            }
            fn eval(&mut self, bus: &mut dyn BusAccess) -> Result<(), SimError> {
                bus.drive_u64(self.y, 1)
            }
            fn tick(&mut self, _bus: &mut SignalBus) -> Result<(), SimError> {
                Ok(())
            }
            // Default sensitivity: Sensitivity::Always.
        }
        let mut sim = Simulator::with_mode(SchedMode::Lowered);
        let y = sim.add_signal("y", 1).unwrap();
        sim.add_component(Sweeper { y });
        sim.reset().unwrap();
        assert!(!sim.compile().unwrap());
        let reason = sim.compile_fallback_reason().unwrap();
        assert!(reason.contains("Sensitivity::Always"), "{reason}");
        assert!(reason.contains("sweeper"), "{reason}");
        sim.run(3).unwrap();
        assert_eq!(sim.peek(y).unwrap().to_u64(), Some(1));
    }

    #[test]
    fn lowered_rebuilds_after_new_driver_discovery() {
        /// Drives `y` only while `en` is high — invisible to the
        /// schedule build when constructed with `en` low, and with no
        /// `drives()` declaration to warn the levelizer.
        struct LateDriver {
            en: SignalId,
            y: SignalId,
        }
        impl Component for LateDriver {
            fn name(&self) -> &str {
                "late"
            }
            fn eval(&mut self, bus: &mut dyn BusAccess) -> Result<(), SimError> {
                if bus.read(self.en)?.to_u64() == Some(1) {
                    bus.drive_u64(self.y, 1)?;
                }
                Ok(())
            }
            fn tick(&mut self, _bus: &mut SignalBus) -> Result<(), SimError> {
                Ok(())
            }
            fn sensitivity(&self) -> Sensitivity {
                Sensitivity::Signals(vec![self.en])
            }
            fn is_clocked(&self) -> bool {
                false
            }
        }
        let mut sim = Simulator::with_mode(SchedMode::Lowered);
        let en = sim.add_signal("en", 1).unwrap();
        let y = sim.add_signal("y", 1).unwrap();
        sim.add_component(LateDriver { en, y });
        sim.poke(en, 0).unwrap();
        sim.set_telemetry(TelemetryLevel::Counters);
        sim.reset().unwrap();
        assert!(
            sim.compile().unwrap(),
            "levelizes while the drive is hidden"
        );
        // Enabling the driver mid-run invalidates the schedule: the
        // walk rolls its pass back, the settle re-runs as a sweep, and
        // the link is recorded for the rebuild.
        sim.poke(en, 1).unwrap();
        sim.settle().unwrap();
        assert_eq!(sim.peek(y).unwrap().to_u64(), Some(1));
        let notes = sim.stats().notes;
        assert!(
            notes.iter().any(|n| n.contains("newly discovered driver")),
            "{notes:?}"
        );
        // Next settle rebuilds the plan (a sweep), the one after walks
        // the rebuilt schedule.
        sim.settle().unwrap();
        let before = sim.stats().lowered_settles;
        sim.settle().unwrap();
        assert!(sim.stats().lowered_settles > before, "rank walks resume");
        assert!(sim.compile_fallback_reason().is_none());
    }

    #[test]
    fn a_first_poke_after_the_build_keeps_the_rank_walk() {
        // `c` is poked for the first time after the plan was built. A
        // testbench driver orders no ranks, so the walk neither aborts
        // nor leaves the plan to be rebuilt.
        let mut sim = Simulator::with_mode(SchedMode::Lowered);
        let a = sim.add_signal("a", 8).unwrap();
        let c = sim.add_signal("c", 8).unwrap();
        let y = sim.add_signal("y", 8).unwrap();
        let z = sim.add_signal("z", 8).unwrap();
        for (name, a, y) in [("i0", a, y), ("i1", y, z)] {
            sim.add_component(Inc {
                name: name.into(),
                a,
                y,
                evals: None,
            });
        }
        sim.set_telemetry(TelemetryLevel::Counters);
        sim.poke(a, 4).unwrap();
        sim.reset().unwrap();
        let before = sim.stats();
        sim.poke(a, 5).unwrap();
        sim.poke(c, 1).unwrap();
        sim.settle().unwrap();
        sim.settle().unwrap();
        let after = sim.stats();
        assert_eq!(sim.peek(z).unwrap().to_u64(), Some(7));
        assert_eq!(after.fallback_settles, before.fallback_settles);
        assert_eq!(after.lowered_settles, before.lowered_settles + 2);
    }

    /// Drives `y` from `a` only while `go` is high, with no `drives()`
    /// declaration: its first drive is a link the schedule never saw.
    struct LateCopy {
        go: SignalId,
        a: SignalId,
        y: SignalId,
    }

    impl Component for LateCopy {
        fn name(&self) -> &str {
            "late"
        }
        fn eval(&mut self, bus: &mut dyn BusAccess) -> Result<(), SimError> {
            if bus.read(self.go)?.to_u64() == Some(1) {
                let a = bus.read(self.a)?;
                bus.drive(self.y, a)?;
            }
            Ok(())
        }
        fn tick(&mut self, _bus: &mut SignalBus) -> Result<(), SimError> {
            Ok(())
        }
        fn sensitivity(&self) -> Sensitivity {
            Sensitivity::Signals(vec![self.go, self.a])
        }
        fn is_clocked(&self) -> bool {
            false
        }
    }

    #[test]
    fn stale_driver_walk_rolls_the_bus_back_before_the_rerun() {
        // `Inc` reads `y` and ranks first: the schedule never saw
        // `LateCopy` drive `y`. When `go` rises, the walk drives `go`
        // and `y`, then aborts on the new link. The sweep that re-runs
        // the settle must start from the bus as it was, so that `go`
        // and `y` change (and toggle) again and `Inc` sees `y`.
        let run = |mode| {
            let mut sim = Simulator::with_mode(mode);
            let go = sim.add_signal("go", 1).unwrap();
            let a = sim.add_signal("a", 8).unwrap();
            let y = sim.add_signal("y", 8).unwrap();
            let z = sim.add_signal("z", 8).unwrap();
            sim.add_component(Inc {
                name: "inc".into(),
                a: y,
                y: z,
                evals: None,
            });
            sim.add_component(LateCopy { go, a, y });
            let rec = sim.add_component(crate::vcd::VcdRecorder::new("vcd", vec![go, a, y, z]));
            sim.set_telemetry(TelemetryLevel::Counters);
            sim.poke(go, 0).unwrap();
            sim.poke(a, 40).unwrap();
            sim.reset().unwrap();
            sim.step().unwrap();
            sim.poke(go, 1).unwrap();
            sim.settle().unwrap();
            let stats = sim.stats();
            let values: Vec<LogicVector> = [go, a, y, z].map(|s| sim.peek(s).unwrap()).into();
            let toggles: Vec<(String, u64)> = stats
                .signals
                .iter()
                .map(|s| (s.name.clone(), s.toggles))
                .collect();
            sim.run(3).unwrap();
            let vcd = sim
                .component::<crate::vcd::VcdRecorder>(rec)
                .unwrap()
                .render(sim.bus());
            (values, toggles, vcd, stats)
        };
        let (values, toggles, vcd, _) = run(SchedMode::FullSweep);
        assert_eq!(values[3].to_u64(), Some(41), "inc saw the late drive");
        let (lo_values, lo_toggles, lo_vcd, stats) = run(SchedMode::Lowered);
        assert_eq!(stats.fallback_cause(FallbackCause::StaleDriver), 1);
        assert_eq!(lo_values, values);
        assert_eq!(lo_toggles, toggles);
        assert_eq!(lo_vcd, vcd);
    }

    #[test]
    fn edge_after_a_stale_driver_fallback_samples_that_settle() {
        // A register loads `a0` when `a1` is high. `a0` is driven only
        // by `LateCopy`, first at cycle 4: that settle's walk aborts
        // and re-runs as a sweep, and the edge after it must load the
        // value the sweep computed (the planes still hold `a0 = X`,
        // `a1 = 0`).
        let run = |mode| {
            let entity = hdp_hdl::Entity::builder("r")
                .port("a0", hdp_hdl::PortDir::In, 8)
                .and_then(|b| b.port("a1", hdp_hdl::PortDir::In, 1))
                .and_then(|b| b.port("y0", hdp_hdl::PortDir::Out, 8))
                .and_then(|b| b.build())
                .unwrap();
            let mut nl = hdp_hdl::Netlist::new(entity);
            let [d, en, q] = [("a0", 8), ("a1", 1), ("y0", 8)].map(|(n, w)| {
                let net = nl.add_net(n, w).unwrap();
                nl.bind_port(n, net).unwrap();
                net
            });
            let reg = hdp_hdl::prim::Prim::Reg {
                width: 8,
                has_enable: true,
                reset_value: 3,
            };
            nl.add_cell("u", reg, vec![d, en], vec![q]).unwrap();
            let mut sim = Simulator::with_mode(mode);
            let go = sim.add_signal("go", 1).unwrap();
            let a = sim.add_signal("a", 8).unwrap();
            let d = sim.add_signal("a0", 8).unwrap();
            let en = sim.add_signal("a1", 1).unwrap();
            let q = sim.add_signal("y0", 8).unwrap();
            let dut =
                NetlistComponent::new("dut", nl, sim.bus(), &[("a0", d), ("a1", en), ("y0", q)])
                    .unwrap();
            sim.add_component(dut);
            sim.add_component(LateCopy { go, a, y: d });
            sim.set_telemetry(TelemetryLevel::Counters);
            let mut trace = Vec::new();
            for cycle in 0..8u64 {
                sim.poke(go, u64::from(cycle >= 4)).unwrap();
                sim.poke(a, 40 + cycle).unwrap();
                sim.poke(en, u64::from(cycle >= 4)).unwrap();
                if cycle == 0 {
                    sim.reset().unwrap();
                } else {
                    sim.settle().unwrap();
                }
                trace.push(sim.peek(q).unwrap());
                sim.step().unwrap();
            }
            (trace, sim.stats())
        };
        let (reference, _) = run(SchedMode::FullSweep);
        assert_eq!(reference[4].to_u64(), Some(3), "reset value until the load");
        assert_eq!(reference[5].to_u64(), Some(44), "loads the late drive");
        let (lowered, stats) = run(SchedMode::Lowered);
        assert_eq!(lowered, reference);
        assert!(stats.fallback_cause(FallbackCause::StaleDriver) > 0);
        assert!(stats.lowered_settles > 0);
    }

    #[test]
    fn lowered_vcd_trace_is_bit_identical_to_the_sweep() {
        let render = |mode: SchedMode| -> String {
            let mut sim = Simulator::with_mode(mode);
            let q = sim.add_signal("q", 8).unwrap();
            let d = sim.add_signal("d", 8).unwrap();
            sim.add_component(Reg {
                name: "r".into(),
                d,
                q,
                state: 0,
            });
            sim.add_component(Inc {
                name: "i".into(),
                a: q,
                y: d,
                evals: None,
            });
            let rec = sim.add_component(crate::vcd::VcdRecorder::new("vcd", vec![q, d]));
            sim.reset().unwrap();
            if mode == SchedMode::Lowered {
                assert!(sim.compile().unwrap());
            }
            sim.run(8).unwrap();
            sim.component::<crate::vcd::VcdRecorder>(rec)
                .unwrap()
                .render(sim.bus())
        };
        assert_eq!(render(SchedMode::Lowered), render(SchedMode::FullSweep));
    }

    /// A counter that advances only when its declared domain fires.
    struct DomainReg {
        name: String,
        domain: ClockDomain,
        q: SignalId,
        state: u64,
    }

    impl Component for DomainReg {
        fn name(&self) -> &str {
            &self.name
        }
        fn eval(&mut self, bus: &mut dyn BusAccess) -> Result<(), SimError> {
            bus.drive_u64(self.q, self.state)
        }
        fn tick(&mut self, _bus: &mut SignalBus) -> Result<(), SimError> {
            self.state += 1;
            Ok(())
        }
        fn clock_domains(&self) -> Vec<ClockDomain> {
            vec![self.domain.clone()]
        }
        fn tick_domains(&mut self, bus: &mut SignalBus, firing: &[&str]) -> Result<(), SimError> {
            if firing.contains(&self.domain.name.as_str()) {
                self.tick(bus)
            } else {
                Ok(())
            }
        }
        fn reset(&mut self, _bus: &mut SignalBus) -> Result<(), SimError> {
            self.state = 0;
            Ok(())
        }
        fn sensitivity(&self) -> Sensitivity {
            Sensitivity::Signals(vec![])
        }
    }

    #[test]
    fn multi_domain_interleaving_is_mode_identical() {
        let run = |mode: SchedMode| -> Vec<(u64, u64)> {
            let mut sim = Simulator::with_mode(mode);
            let qf = sim.add_signal("q_fast", 8).unwrap();
            let qs = sim.add_signal("q_slow", 8).unwrap();
            sim.add_component(DomainReg {
                name: "fast".into(),
                domain: ClockDomain::default_clock(),
                q: qf,
                state: 0,
            });
            sim.add_component(DomainReg {
                name: "slow".into(),
                domain: ClockDomain::new("slow", 3),
                q: qs,
                state: 0,
            });
            sim.reset().unwrap();
            let mut trace = Vec::new();
            for _ in 0..12 {
                sim.step().unwrap();
                trace.push((
                    sim.peek(qf).unwrap().to_u64().unwrap(),
                    sim.peek(qs).unwrap().to_u64().unwrap(),
                ));
            }
            trace
        };
        let reference = run(SchedMode::FullSweep);
        // `slow` fires at t = 0, 3, 6, 9 — four edges in twelve steps.
        assert_eq!(reference[11], (12, 4));
        for mode in SchedMode::ALL {
            assert_eq!(run(mode), reference, "{mode:?}");
        }
    }

    #[test]
    fn clock_domain_period_conflict_is_reported() {
        let mut sim = Simulator::new();
        let qa = sim.add_signal("qa", 8).unwrap();
        let qb = sim.add_signal("qb", 8).unwrap();
        sim.add_component(DomainReg {
            name: "a".into(),
            domain: ClockDomain::new("wr", 2),
            q: qa,
            state: 0,
        });
        sim.add_component(DomainReg {
            name: "b".into(),
            domain: ClockDomain::new("wr", 3),
            q: qb,
            state: 0,
        });
        let err = sim.step().unwrap_err();
        assert!(err.to_string().contains("wr"), "{err}");
    }

    #[test]
    fn simulator_level_domain_declarations_validate() {
        let mut sim = Simulator::new();
        assert!(sim.add_clock_domain("rd", 0).is_err());
        assert!(sim.add_clock_domain("clk", 2).is_err());
        sim.add_clock_domain("rd", 3).unwrap();
        sim.add_clock_domain("rd", 3).unwrap(); // same-period redeclare is fine
        assert!(sim.add_clock_domain("rd", 4).is_err());
        let domains = sim.clock_domains().unwrap().to_vec();
        assert_eq!(domains.len(), 2);
        assert_eq!(domains[1], ClockDomain::new("rd", 3));
    }

    // --- `run_rows` against the hand-written per-cycle loop ---

    use hdp_hdl::prim::{GateOp, Prim};
    use hdp_hdl::{Entity, Netlist, PortDir};

    /// A run's sampled rows and its outcome.
    type RunResult = (Vec<Vec<LogicVector>>, Result<(), (usize, SimError)>);

    /// A lone lowered netlist and its stimulus and sampled signals.
    struct Dut {
        sim: Simulator,
        id: ComponentId,
        ins: Vec<SignalId>,
        outs: Vec<SignalId>,
    }

    /// Wires `nl` alone into a lowered simulator; the `In` ports are
    /// the stimulus columns and the others the sampled outputs, in
    /// entity order.
    fn dut(nl: &Netlist, telemetry: TelemetryLevel) -> Dut {
        let mut sim = Simulator::with_mode(SchedMode::Lowered);
        sim.set_telemetry(telemetry);
        let mut map = Vec::new();
        let (mut ins, mut outs) = (Vec::new(), Vec::new());
        for port in nl.entity().ports() {
            let id = sim.add_signal(port.name(), port.width()).unwrap();
            map.push((port.name(), id));
            if port.dir() == PortDir::In {
                ins.push(id);
            } else {
                outs.push(id);
            }
        }
        let comp = NetlistComponent::new("dut", nl.clone(), sim.bus(), &map).unwrap();
        let id = sim.add_component(comp);
        Dut { sim, id, ins, outs }
    }

    /// One cycle of the oracle protocol, call by call.
    fn protocol_step(
        d: &mut Dut,
        cycle: usize,
        row: &[u64],
        trace: &mut Vec<Vec<LogicVector>>,
    ) -> Result<(), SimError> {
        for (&id, &v) in d.ins.iter().zip(row) {
            d.sim.poke(id, v)?;
        }
        if cycle == 0 {
            d.sim.reset()?;
        } else {
            d.sim.settle()?;
        }
        let sampled = d.outs.iter().map(|&id| d.sim.peek(id));
        trace.push(sampled.collect::<Result<_, _>>()?);
        d.sim.step()
    }

    fn per_cycle(d: &mut Dut, rows: &[Vec<u64>]) -> RunResult {
        let mut trace = Vec::new();
        for (cycle, row) in rows.iter().enumerate() {
            if let Err(e) = protocol_step(d, cycle, row, &mut trace) {
                return (trace, Err((cycle, e)));
            }
        }
        (trace, Ok(()))
    }

    fn whole_run(d: &mut Dut, rows: &[Vec<u64>]) -> RunResult {
        let mut trace = Vec::new();
        let outs = d.outs.clone();
        let res = d
            .sim
            .run_rows(&d.ins, rows, &outs, |row| trace.push(row.to_vec()));
        (trace, res)
    }

    /// Every signal, every net, the cycle, the stats and the plan.
    fn assert_same_state(a: &Dut, b: &Dut) {
        for slot in 0..a.sim.bus.len() {
            let id = SignalId(slot);
            assert_eq!(a.sim.peek(id), b.sim.peek(id), "signal #{slot}");
        }
        let nl = a.sim.component::<NetlistComponent>(a.id).unwrap().netlist();
        for net in nl.nets() {
            let name = net.name();
            assert_eq!(
                a.sim.net_value(a.id, name),
                b.sim.net_value(b.id, name),
                "net `{name}`"
            );
        }
        assert_eq!(a.sim.cycle(), b.sim.cycle());
        assert_eq!(a.sim.stats(), b.sim.stats());
        assert_eq!(plan_shape(&a.sim), plan_shape(&b.sim));
    }

    /// What the plan was built from and what it holds.
    #[derive(Debug, PartialEq)]
    struct PlanShape {
        /// `(n_sigs, n_comps, links)` of the active plan, if one is built.
        snapshot: Option<(usize, usize, usize)>,
        /// The rank order and rank shape, if the design levelized.
        sched: Option<(Vec<u32>, Vec<u64>)>,
        /// Every `(signal, driver)` link the bus has observed, by slot.
        drivers: Vec<Vec<usize>>,
        /// Each component's lowered program, by content.
        lowered: Vec<Option<LoweredProgram>>,
    }

    /// The active plan, the bus's driver links and the lowered programs.
    fn plan_shape(sim: &Simulator) -> PlanShape {
        let plan = sim.compiled.as_ref();
        PlanShape {
            snapshot: plan.map(|p| (p.n_sigs, p.n_comps, p.links)),
            sched: plan
                .and_then(|p| p.sched.as_ref().ok())
                .map(|s| (s.order.clone(), s.rank_counts.clone())),
            drivers: (0..sim.bus.len())
                .map(|s| sim.bus.slot_drivers(s).to_vec())
                .collect(),
            lowered: sim
                .lowered
                .iter()
                .map(|u| u.as_ref().map(|u| (*u.prog).clone()))
                .collect(),
        }
    }

    /// Runs `rows` through the per-cycle loop and through `run_rows`
    /// on two copies of `nl`, checks that both agree, and returns the
    /// outcome and the simulators (reference first).
    fn agree(nl: &Netlist, telemetry: TelemetryLevel, rows: &[Vec<u64>]) -> (RunResult, Dut, Dut) {
        let mut reference = dut(nl, telemetry);
        let mut run = dut(nl, telemetry);
        let expected = per_cycle(&mut reference, rows);
        let got = whole_run(&mut run, rows);
        assert_eq!(got, expected);
        assert_same_state(&reference, &run);
        // Both continue alike: the pokes and the pending wakes agree.
        reference.sim.settle().unwrap();
        run.sim.settle().unwrap();
        assert_same_state(&reference, &run);
        (got, reference, run)
    }

    /// A FIFO of depth 2 on `push`/`pop`/`wdata` and a free-running
    /// 4-bit counter, which moves on every edge whatever the inputs.
    fn fifo_counter(counter_period: Option<u64>) -> Netlist {
        let entity = Entity::builder("fifo_counter")
            .port("push", PortDir::In, 1)
            .unwrap()
            .port("pop", PortDir::In, 1)
            .unwrap()
            .port("wdata", PortDir::In, 8)
            .unwrap()
            .port("front", PortDir::Out, 8)
            .unwrap()
            .port("empty", PortDir::Out, 1)
            .unwrap()
            .port("count", PortDir::Out, 4)
            .unwrap()
            .build()
            .unwrap();
        let mut nl = Netlist::new(entity);
        let half = counter_period.map(|p| nl.add_domain("half", p).unwrap());
        let mut net = |name: &str, width| nl.add_net(name, width).unwrap();
        let [push, pop, empty, full] = ["push", "pop", "empty", "full"].map(|n| net(n, 1));
        let [wdata, front] = ["wdata", "front"].map(|n| net(n, 8));
        let [q, q1] = ["q", "q1"].map(|n| net(n, 4));
        nl.add_cell(
            "u_fifo",
            Prim::FifoMacro { depth: 2, width: 8 },
            vec![push, pop, wdata],
            vec![front, empty, full],
        )
        .unwrap();
        let reg = Prim::Reg {
            width: 4,
            has_enable: false,
            reset_value: 0,
        };
        match half {
            Some(domain) => nl.add_cell_in_domain("u_count", reg, vec![q1], vec![q], domain),
            None => nl.add_cell("u_count", reg, vec![q1], vec![q]),
        }
        .unwrap();
        nl.add_cell("u_inc", Prim::Inc { width: 4 }, vec![q], vec![q1])
            .unwrap();
        for (p, n) in [
            ("push", push),
            ("pop", pop),
            ("wdata", wdata),
            ("front", front),
            ("empty", empty),
            ("count", q),
        ] {
            nl.bind_port(p, n).unwrap();
        }
        nl
    }

    /// A push, a pop and two idle cycles, over and over; the second
    /// idle row repeats the first.
    fn legal_rows(n: u64) -> Vec<Vec<u64>> {
        (0..n)
            .map(|c| {
                let wdata = if c % 4 == 3 { c - 1 } else { c } & 0xFF;
                vec![u64::from(c % 4 == 0), u64::from(c % 4 == 1), wdata]
            })
            .collect()
    }

    /// Op walks run on a lone unit's planes.
    fn walks(d: &Dut) -> u64 {
        d.sim.lowered[0].as_ref().unwrap().scratch.walks
    }

    #[test]
    fn run_rows_matches_the_per_cycle_loop_on_the_direct_path() {
        let (outcome, reference, run) =
            agree(&fifo_counter(None), TelemetryLevel::Off, &legal_rows(40));
        assert!(outcome.1.is_ok());
        assert_eq!(run.sim.cycle(), 40);
        // The post-edge walk folded into the next row's: one walk a
        // cycle, where the per-cycle loop walks after the edge too.
        assert!(walks(&run) < walks(&reference));
    }

    #[test]
    fn run_rows_raises_a_fifo_overflow_where_the_per_cycle_loop_does() {
        // Two pushes fill the FIFO, so the third edge pushes on full.
        let mut rows = legal_rows(9);
        rows.extend((0..6).map(|c| vec![1, 0, c]));
        let ((trace, res), reference, run) = agree(&fifo_counter(None), TelemetryLevel::Off, &rows);
        let (cycle, err) = res.unwrap_err();
        assert!(walks(&run) < walks(&reference));
        assert!(err.to_string().contains("push on full"), "{err}");
        assert!((9..15).contains(&cycle), "{cycle}");
        // The failing row was sampled before its edge raised.
        assert_eq!(trace.len(), cycle + 1);
    }

    #[test]
    fn run_rows_raises_a_value_overflow_where_poke_does() {
        let mut rows = legal_rows(12);
        rows[7][2] = 0x1FF;
        let ((trace, res), reference, run) = agree(&fifo_counter(None), TelemetryLevel::Off, &rows);
        let (cycle, err) = res.unwrap_err();
        assert_eq!(cycle, 7);
        assert!(matches!(err, SimError::Hdl(_)), "{err}");
        assert_eq!(trace.len(), 7);
        assert!(walks(&run) < walks(&reference));
    }

    #[test]
    fn run_rows_matches_the_per_cycle_loop_on_a_multi_rate_design() {
        let (outcome, reference, run) =
            agree(&fifo_counter(Some(2)), TelemetryLevel::Off, &legal_rows(33));
        assert!(outcome.1.is_ok());
        assert!(walks(&run) < walks(&reference));
        assert!(!run.sim.single_rate);
        // 33 edges, the counter's domain fired on 17 of them.
        let count = reference.outs[2];
        assert_eq!(run.sim.peek(count).unwrap().to_u64(), Some(17 % 16));
    }

    #[test]
    fn run_rows_keeps_the_input_memo_on_a_combinational_design() {
        let entity = Entity::builder("and2")
            .port("a", PortDir::In, 4)
            .unwrap()
            .port("b", PortDir::In, 4)
            .unwrap()
            .port("y", PortDir::Out, 4)
            .unwrap()
            .build()
            .unwrap();
        let mut nl = Netlist::new(entity);
        let [a, b, y] = ["a", "b", "y"].map(|n| nl.add_net(n, 4).unwrap());
        let and = Prim::Gate {
            op: GateOp::And,
            width: 4,
        };
        nl.add_cell("u_and", and, vec![a, b], vec![y]).unwrap();
        for (p, n) in [("a", a), ("b", b), ("y", y)] {
            nl.bind_port(p, n).unwrap();
        }
        // Each row is held for three cycles.
        let rows: Vec<Vec<u64>> = (0..30u64).map(|c| vec![c / 3 % 16, 0xA]).collect();
        let (outcome, reference, run) = agree(&nl, TelemetryLevel::Off, &rows);
        assert!(outcome.1.is_ok());
        assert_eq!(walks(&run), walks(&reference));
        assert_eq!(walks(&run), 10, "one walk per distinct row after the reset");
    }

    /// A free-running 4-bit counter with no inputs; with `fifo`, it also
    /// pushes itself into a FIFO of depth 2 on every odd count, which
    /// overflows on the third such edge.
    fn input_less(fifo: bool) -> Netlist {
        let mut entity = Entity::builder("counter")
            .port("count", PortDir::Out, 4)
            .unwrap();
        if fifo {
            entity = entity.port("front", PortDir::Out, 4).unwrap();
        }
        let mut nl = Netlist::new(entity.build().unwrap());
        let [q, q1] = ["q", "q1"].map(|n| nl.add_net(n, 4).unwrap());
        let reg = Prim::Reg {
            width: 4,
            has_enable: false,
            reset_value: 0,
        };
        nl.add_cell("u_count", reg, vec![q1], vec![q]).unwrap();
        nl.add_cell("u_inc", Prim::Inc { width: 4 }, vec![q], vec![q1])
            .unwrap();
        nl.bind_port("count", q).unwrap();
        if fifo {
            let [push, pop, empty, full] =
                ["push", "pop", "empty", "full"].map(|n| nl.add_net(n, 1).unwrap());
            let front = nl.add_net("front", 4).unwrap();
            let low = Prim::Slice {
                in_width: 4,
                low: 0,
                len: 1,
            };
            nl.add_cell("u_odd", low, vec![q], vec![push]).unwrap();
            let zero = LogicVector::from_u64(0, 1).unwrap();
            nl.add_cell("u_pop", Prim::Const { value: zero }, vec![], vec![pop])
                .unwrap();
            let macro_ = Prim::FifoMacro { depth: 2, width: 4 };
            nl.add_cell(
                "u_fifo",
                macro_,
                vec![push, pop, q],
                vec![front, empty, full],
            )
            .unwrap();
            nl.bind_port("front", front).unwrap();
        }
        nl
    }

    #[test]
    fn run_rows_settles_after_the_last_edge_without_inputs() {
        // Only the edge can wake the unit, so the last post-edge settle
        // must walk without a poke to wake it.
        let rows = vec![Vec::new(); 21];
        let (outcome, reference, run) = agree(&input_less(false), TelemetryLevel::Off, &rows);
        assert!(outcome.1.is_ok());
        // Without inputs the per-cycle loop walks only after each edge.
        assert_eq!(walks(&run), walks(&reference));
        assert_eq!(run.sim.peek(run.outs[0]).unwrap().to_u64(), Some(21 % 16));
        // An edge that fails still leaves its row's outputs on the bus.
        let ((trace, res), _, _) = agree(&input_less(true), TelemetryLevel::Off, &rows);
        let (cycle, err) = res.unwrap_err();
        assert!(err.to_string().contains("push on full"), "{err}");
        assert_eq!((cycle, trace.len()), (5, 6));
    }

    #[test]
    fn run_rows_with_counters_matches_the_per_cycle_stats() {
        let mut rows = legal_rows(20);
        rows.extend((0..4).map(|c| vec![1, 0, c]));
        let ((_, res), reference, run) =
            agree(&fifo_counter(None), TelemetryLevel::Counters, &rows);
        assert!(res.is_err());
        assert_eq!(
            walks(&run),
            walks(&reference),
            "telemetry keeps the per-cycle path"
        );
        let stats = run.sim.stats();
        assert_eq!(stats, reference.sim.stats());
        assert!(stats.steps > 0 && stats.lowered_settles > 0);
    }

    #[test]
    fn clones_of_one_component_share_one_op_stream() {
        let nl = fifo_counter(None);
        let rows = legal_rows(24);
        let mut cold = dut(&nl, TelemetryLevel::Counters);
        let template = cold
            .sim
            .component::<NetlistComponent>(cold.id)
            .unwrap()
            .clone();
        let mut warm = dut(&nl, TelemetryLevel::Counters);
        *warm.sim.component_mut::<NetlistComponent>(warm.id).unwrap() = template;
        let cold_run = whole_run(&mut cold, &rows);
        let warm_run = whole_run(&mut warm, &rows);
        assert_eq!(cold_run, warm_run);
        let prog = |d: &Dut| Arc::clone(&d.sim.lowered[0].as_ref().unwrap().prog);
        assert!(Arc::ptr_eq(&prog(&cold), &prog(&warm)));
        assert_eq!((cold.sim.plan_installs(), warm.sim.plan_installs()), (0, 1));
        // A warm run is a cold run minus the lowering pass.
        let mut stats = warm.sim.stats();
        assert_eq!(stats.plan_installs, 1);
        stats.plan_installs = 0;
        assert_eq!(stats, cold.sim.stats());
        // A component built on its own lowers on its own.
        let mut fresh = dut(&nl, TelemetryLevel::Off);
        whole_run(&mut fresh, &rows).1.unwrap();
        assert!(!Arc::ptr_eq(&prog(&cold), &prog(&fresh)));
        assert_eq!(fresh.sim.plan_installs(), 0);
    }
}
