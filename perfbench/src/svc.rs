//! The job-service workloads (`svc_*`).
//!
//! All load comes from one client thread over one loopback TCP
//! connection with one request outstanding — a closed loop, like the
//! repo's own `submit` — against an in-process `hdp_service::serve`
//! with one worker. The server receives only the generated job lines.

use crate::measure::{
    block_done, mean_us, minor_faults, ns, quantile, Budget, Layers, OpLog, Spans, OP_MEAN_US,
    SETUP_REPS,
};
use hdp_conform::wire::{design_hash, job_to_json};
use hdp_conform::{Case, Json, Stimulus};
use hdp_hdl::PortDir;
use hdp_metagen::sampler::{sample_spec_in, FAMILIES};
use hdp_service::job::outcome_to_json;
use hdp_service::{handle_line, parse_job, serve, Counter, ObsMode, ServerHandle, Service, Stage};
use hdp_sim::{NetlistComponent, SchedMode, SignalId, Simulator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Instant;

/// The shape of one service workload.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Distinct designs in the job set.
    pub designs: usize,
    /// Stimulus cycles per job.
    pub cycles: usize,
    /// Plan-cache capacity of the service.
    pub capacity: usize,
    /// Size of the hot set that takes [`HOT_PCT`] percent of the jobs;
    /// `None` draws every job uniformly.
    pub hot: Option<usize>,
}

/// The service's dispatch regime: many short jobs on a primed cache.
pub const WARM_SHORT: Shape = Shape {
    designs: 32,
    cycles: 6,
    capacity: 64,
    hot: None,
};

/// Jobs long enough that the cycle loop and trace capture dominate,
/// short enough that every response fits the server's 8 KiB write
/// buffer (the widest sampled design renders about 75 bytes a cycle).
pub const WARM_MID: Shape = Shape {
    designs: 16,
    cycles: 96,
    capacity: 32,
    hot: None,
};

/// 1024-cycle jobs on a primed cache. Their responses (about 29 KB)
/// outgrow the server's write buffer and leave in two writes, so the
/// round trip is mostly the wait for the client's delayed ACK.
pub const WARM_LONG: Shape = Shape {
    designs: 16,
    cycles: 1024,
    capacity: 32,
    hot: None,
};

/// More designs than cache slots: about a fifth of the jobs miss and
/// evict.
pub const CHURN: Shape = Shape {
    designs: 256,
    cycles: 6,
    capacity: 32,
    hot: Some(16),
};

/// Share of jobs drawn from the hot set, in percent.
const HOT_PCT: u64 = 80;
/// Priming jobs for a workload with a hot set: enough to bring the
/// cache to its steady mix of hot and cold entries.
const HOT_PRIMING_JOBS: usize = 256;

/// One design of the job set with everything needed to check it.
pub struct Job {
    /// The wire line, newline-terminated.
    pub line: String,
    /// The full-sweep reference trace.
    pub reference: Vec<Vec<String>>,
    /// The reference trace as it must appear in a response document.
    pub expected: String,
}

/// Samples the workload's designs: families round-robin so every one
/// of them appears, pairwise-distinct design hashes, one stimulus each.
///
/// # Errors
///
/// A sampled design that fails to instantiate.
pub fn sample_cases(shape: Shape, seed: u64) -> Result<Vec<Case>, String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seen = HashSet::new();
    let mut cases = Vec::with_capacity(shape.designs);
    while cases.len() < shape.designs {
        let spec = sample_spec_in(&mut rng, cases.len() % FAMILIES.len());
        if !seen.insert(design_hash(&spec)) {
            continue;
        }
        let netlist = spec
            .instantiate()
            .map_err(|e| format!("{}: {e}", spec.label()))?;
        let stimulus = Stimulus::sample(&netlist, shape.cycles, &mut rng);
        cases.push(Case { spec, stimulus });
    }
    Ok(cases)
}

/// The deterministic job sequence of a workload.
struct Picker {
    rng: StdRng,
    shape: Shape,
}

impl Picker {
    fn new(shape: Shape, seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
            shape,
        }
    }

    fn next(&mut self) -> usize {
        match self.shape.hot {
            Some(hot) if self.rng.gen_range(0..100u64) < HOT_PCT => self.rng.gen_range(0..hot),
            _ => self.rng.gen_range(0..self.shape.designs),
        }
    }
}

fn job_seed(seed: u64) -> u64 {
    seed ^ 0x6a6f_6273
}

/// Design indices of the priming pass: every design once, or a run of
/// the workload's own mix when it has a hot set.
fn priming_order(shape: Shape, seed: u64) -> Vec<usize> {
    match shape.hot {
        None => (0..shape.designs).collect(),
        Some(_) => {
            let mut picker = Picker::new(shape, seed ^ 0x7072_696d);
            (0..HOT_PRIMING_JOBS).map(|_| picker.next()).collect()
        }
    }
}

/// Runs one case under the full-sweep scheduler with the oracle cycle
/// protocol, independently of the service, and renders its trace.
fn reference_trace(case: &Case) -> Result<Vec<Vec<String>>, String> {
    let err = |e: &dyn std::fmt::Display| format!("reference for {}: {e}", case.spec.label());
    let netlist = case.spec.instantiate().map_err(|e| err(&e))?;
    let mut sim = Simulator::with_mode(SchedMode::FullSweep);
    let mut bindings: Vec<(String, SignalId)> = Vec::new();
    let mut outputs = Vec::new();
    for port in netlist.entity().ports() {
        let id = sim
            .add_signal(port.name(), port.width())
            .map_err(|e| err(&e))?;
        bindings.push((port.name().to_owned(), id));
        if port.dir() != PortDir::In {
            outputs.push(id);
        }
    }
    let inputs = case
        .stimulus
        .inputs
        .iter()
        .map(|(name, _)| {
            bindings
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, id)| id)
                .ok_or_else(|| err(&format!("input `{name}` is not a port")))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let refs: Vec<(&str, SignalId)> = bindings.iter().map(|(n, id)| (n.as_str(), *id)).collect();
    let dut = NetlistComponent::new("dut", netlist, sim.bus(), &refs).map_err(|e| err(&e))?;
    sim.add_component(dut);
    let mut trace = Vec::with_capacity(case.stimulus.cycles.len());
    for (cycle, row) in case.stimulus.cycles.iter().enumerate() {
        for (&id, &value) in inputs.iter().zip(row) {
            sim.poke(id, value).map_err(|e| err(&e))?;
        }
        if cycle == 0 {
            sim.reset().map_err(|e| err(&e))?;
        } else {
            sim.settle().map_err(|e| err(&e))?;
        }
        let row = outputs
            .iter()
            .map(|&id| sim.peek(id).map(|v| v.to_bit_string()))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| err(&e))?;
        trace.push(row);
        sim.step().map_err(|e| err(&e))?;
    }
    Ok(trace)
}

/// The `"trace":[…]` member a correct response document contains.
pub fn trace_member(trace: &[Vec<String>]) -> String {
    let rows = Json::Arr(
        trace
            .iter()
            .map(|row| Json::Arr(row.iter().cloned().map(Json::Str).collect()))
            .collect(),
    );
    format!("\"trace\":{rows}")
}

/// Computes the reference of every case. Not part of `setup_s`.
fn reference_jobs(cases: Vec<Case>) -> Result<Vec<Job>, String> {
    cases
        .into_iter()
        .map(|case| {
            let reference = reference_trace(&case)?;
            Ok(Job {
                line: job_to_json(&case) + "\n",
                expected: trace_member(&reference),
                reference,
            })
        })
        .collect()
}

/// One connection's client side.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    response: String,
}

impl Client {
    fn connect(handle: &ServerHandle) -> Result<Self, String> {
        let writer = TcpStream::connect(handle.addr()).map_err(|e| format!("connect: {e}"))?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| format!("clone: {e}"))?);
        Ok(Self {
            reader,
            writer,
            response: String::new(),
        })
    }

    /// Sends one newline-terminated line and reads the whole response
    /// line.
    fn call(&mut self, line: &str) -> Result<&str, String> {
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("write: {e}"))?;
        self.response.clear();
        match self.reader.read_line(&mut self.response) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(_) => Ok(self.response.trim_end()),
            Err(e) => Err(format!("read: {e}")),
        }
    }
}

/// A running server with its one client. The client is declared first
/// so it closes before the server joins its worker.
struct Rig {
    client: Client,
    handle: ServerHandle,
}

impl Rig {
    fn shutdown(self) {
        let Rig { client, handle } = self;
        drop(client);
        handle.shutdown();
    }
}

/// The timed set-up: sample the designs, bind the server, run the
/// priming pass.
fn set_up(shape: Shape, seed: u64, obs: ObsMode) -> Result<(Vec<Case>, Rig), String> {
    let cases = sample_cases(shape, seed)?;
    let lines: Vec<String> = cases.iter().map(|c| job_to_json(c) + "\n").collect();
    let service = Arc::new(Service::with_obs(shape.capacity, obs));
    let handle = serve("127.0.0.1:0", service, 1).map_err(|e| format!("bind: {e}"))?;
    let mut client = Client::connect(&handle)?;
    for idx in priming_order(shape, seed) {
        let response = client.call(&lines[idx])?;
        if response.contains("\"error\"") {
            return Err(format!("priming job failed: {response}"));
        }
    }
    Ok((cases, Rig { client, handle }))
}

/// Cache counters that must repeat exactly for one seed and op count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheCounts {
    /// Lookups that found the design.
    pub hits: u64,
    /// Lookups that did not.
    pub misses: u64,
    /// Entries evicted.
    pub evictions: u64,
    /// Cached plans installed.
    pub plans_installed: u64,
}

fn cache_counts(service: &Service) -> CacheCounts {
    let stats = service.cache_stats();
    CacheCounts {
        hits: stats.hits,
        misses: stats.misses,
        evictions: stats.evictions,
        plans_installed: service.metrics().get(Counter::PlansInstalled),
    }
}

impl CacheCounts {
    fn plus(self, other: CacheCounts) -> CacheCounts {
        CacheCounts {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            evictions: self.evictions + other.evictions,
            plans_installed: self.plans_installed + other.plans_installed,
        }
    }

    fn since(self, before: CacheCounts) -> CacheCounts {
        CacheCounts {
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            evictions: self.evictions - before.evictions,
            plans_installed: self.plans_installed - before.plans_installed,
        }
    }
}

/// What an untraced run measured.
pub struct Run {
    /// The timed window.
    pub log: OpLog,
    /// Median set-up seconds.
    pub setup_s: f64,
    /// Cache counters over the timed window.
    pub cache: CacheCounts,
}

/// Runs one untraced window. The window is cut into [`SETUP_REPS`]
/// slices, each on a freshly set-up server, so the set-ups whose median
/// is `setup_s` are spread over the run instead of bunched at its start.
/// `tamper` may alter the references before the window starts (the
/// tests corrupt one to prove the check bites).
///
/// # Errors
///
/// Set-up, connection or reference failures.
pub fn run(shape: Shape, seed: u64, budget: Budget, tamper: fn(&mut [Job])) -> Result<Run, String> {
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut jobs = Vec::new();
    let mut picker = Picker::new(shape, job_seed(seed));
    let mut log = OpLog::default();
    let mut cache = CacheCounts::default();
    for slice in 0..SETUP_REPS {
        let started = Instant::now();
        let (cases, mut rig) = set_up(shape, seed, ObsMode::Counters)?;
        setups.push(started.elapsed().as_secs_f64());
        if slice == 0 {
            jobs = reference_jobs(cases)?;
            tamper(&mut jobs);
        }
        let budget = budget.slice(slice, SETUP_REPS);
        let before = cache_counts(rig.handle.service());
        let (started, first) = (Instant::now(), log.attempted());
        while !budget.done(log.attempted() - first, started) {
            let job = &jobs[picker.next()];
            let sent = Instant::now();
            let response = rig.client.call(&job.line)?;
            let latency = sent.elapsed();
            let ok = response.contains(&job.expected);
            log.push(latency, ok, shape.cycles as u64);
        }
        log.elapsed += started.elapsed();
        cache = cache.plus(cache_counts(rig.handle.service()).since(before));
        rig.shutdown();
    }
    Ok(Run {
        log,
        setup_s: crate::measure::median(&setups),
        cache,
    })
}

/// Per-op samples of the traced run.
#[derive(Default)]
struct Samples {
    round_trip: Vec<u64>,
    handle_line: Vec<u64>,
    parse: Vec<u64>,
    lookup: Vec<u64>,
    build: Vec<u64>,
    execute: Vec<u64>,
    publish: Vec<u64>,
    other: Vec<u64>,
    render: Vec<u64>,
    response_bytes: u64,
    instantiate: Vec<u64>,
    validate: Vec<u64>,
    compile: Vec<u64>,
    cycles: u64,
    steps: u64,
    settles: u64,
    lowered_settles: u64,
    fallback_settles: u64,
    ops_executed: u64,
    evals: u64,
}

/// Times the layers a cache miss pays, through their public calls:
/// metagen instantiation, netlist validation and schedule compilation.
fn time_miss_layers(case: &Case, samples: &mut Samples) -> Result<(), String> {
    let err = |e: &dyn std::fmt::Display| format!("miss layers of {}: {e}", case.spec.label());
    let started = Instant::now();
    let netlist = Arc::new(case.spec.instantiate().map_err(|e| err(&e))?);
    samples.instantiate.push(ns(started.elapsed()));
    let started = Instant::now();
    hdp_hdl::validate::check(&netlist).map_err(|e| err(&e))?;
    samples.validate.push(ns(started.elapsed()));
    let mut sim = Simulator::with_mode(SchedMode::Lowered);
    let mut bindings = Vec::new();
    for port in netlist.entity().ports() {
        let id = sim
            .add_signal(port.name(), port.width())
            .map_err(|e| err(&e))?;
        bindings.push((port.name(), id));
    }
    let dut = NetlistComponent::new_prevalidated("dut", Arc::clone(&netlist), sim.bus(), &bindings)
        .map_err(|e| err(&e))?;
    sim.add_component(dut);
    let started = Instant::now();
    sim.compile().map_err(|e| err(&e))?;
    samples.compile.push(ns(started.elapsed()));
    Ok(())
}

/// Runs one job through the in-process split service: `parse_job`,
/// `Service::run_case` with its stage timeline, `outcome_to_json`.
/// Returns whether the trace matched the reference.
fn split_job(
    service: &Service,
    job: &Job,
    samples: &mut Samples,
    spans: &mut Spans,
    root: usize,
) -> Result<bool, String> {
    let line = job.line.trim_end();
    let t0 = Instant::now();
    let (case, mut opts) = parse_job(line).map_err(|e| format!("parse: {e}"))?;
    let t1 = Instant::now();
    opts.span = true;
    opts.telemetry = true;
    let mut out = service
        .run_case(&case, &opts)
        .map_err(|e| format!("run_case: {e}"))?;
    let t2 = Instant::now();
    let span = out.span.take().unwrap_or_default();
    let stats = out.stats.take().unwrap_or_default();
    let response = outcome_to_json(&out);
    let t3 = Instant::now();

    samples.parse.push(ns(t1 - t0));
    samples.render.push(ns(t3 - t2));
    samples.response_bytes += response.len() as u64 + 1;
    spans.child("job.parse", t0, t1, root);
    let run_case = spans.child("exec.run_case", t1, t2, root);
    spans.child("job.render", t2, t3, root);
    let mut staged = 0;
    for stage in &span.stages {
        let slot = match stage.stage {
            Stage::CacheLookup => &mut samples.lookup,
            Stage::Build => &mut samples.build,
            Stage::Execute => &mut samples.execute,
            Stage::Publish => &mut samples.publish,
            _ => continue,
        };
        slot.push(stage.dur_ns);
        staged += stage.dur_ns;
        spans.child_at(stage.stage.label(), run_case, stage.ts_ns, stage.dur_ns);
    }
    samples.other.push(ns(t2 - t1).saturating_sub(staged));
    samples.cycles += out.cycles as u64;
    samples.steps += stats.steps;
    samples.settles += stats.settles;
    samples.lowered_settles += stats.lowered_settles;
    samples.fallback_settles += stats.fallback_settles;
    samples.ops_executed += stats.ops_executed;
    samples.evals += stats.total_evals();
    if !out.cache_hit {
        time_miss_layers(&case, samples)?;
    }
    Ok(out.trace == job.reference)
}

/// What a traced run measured.
pub struct Traced {
    /// Every op of the run, traced and untraced blocks alike.
    pub log: OpLog,
    /// Per-layer values.
    pub layers: Layers,
    /// The recorded spans.
    pub spans: Spans,
}

/// Runs one traced window: untraced and traced blocks alternate. A
/// traced op sends the job over TCP to an `ObsMode::Sampled` server,
/// then through `handle_line` on an identically primed in-process
/// service, then through the split path on a third one, each call
/// wrapped by the benchmark's own timers.
///
/// # Errors
///
/// Set-up, connection or reference failures.
pub fn run_traced(shape: Shape, seed: u64, budget: Budget) -> Result<Traced, String> {
    let (cases, mut rig) = set_up(shape, seed, ObsMode::Sampled)?;
    let jobs = reference_jobs(cases)?;
    let line_service = Service::with_obs(shape.capacity, ObsMode::Sampled);
    let split_service = Service::with_obs(shape.capacity, ObsMode::Sampled);
    let mut samples = Samples::default();
    let mut spans = Spans::new();
    for idx in priming_order(shape, seed) {
        let _ = handle_line(&line_service, jobs[idx].line.trim_end());
        split_job(&split_service, &jobs[idx], &mut samples, &mut spans, 0)?;
    }
    // Of the priming pass keep only the miss-layer timings: on a warm
    // workload they are the only misses there are.
    samples = Samples {
        instantiate: std::mem::take(&mut samples.instantiate),
        validate: std::mem::take(&mut samples.validate),
        compile: std::mem::take(&mut samples.compile),
        ..Samples::default()
    };

    let mut picker = Picker::new(shape, job_seed(seed));
    let before = cache_counts(rig.handle.service());
    let mut log = OpLog::default();
    let (mut plain_ops, mut plain_ns, mut plain_faults) = (0u64, 0u64, 0u64);
    let (mut traced_ops, mut traced_ns) = (0u64, 0u64);
    let mut pending: Vec<usize> = Vec::new();
    let mut traced_block = true;
    let started = Instant::now();
    while !budget.done(log.attempted(), started) {
        if traced_block {
            // Replay the untraced block into the in-process services,
            // outside any timed block, so all three caches stay alike.
            for idx in pending.drain(..) {
                let _ = handle_line(&line_service, jobs[idx].line.trim_end());
                let (case, opts) =
                    parse_job(jobs[idx].line.trim_end()).map_err(|e| format!("parse: {e}"))?;
                let _ = split_service.run_case(&case, &opts);
            }
        }
        let block_start = Instant::now();
        let faults = minor_faults();
        let mut n = 0u64;
        while !block_done(budget, n, block_start) && !budget.done(log.attempted(), started) {
            let idx = picker.next();
            let job = &jobs[idx];
            let op = log.attempted();
            let sent = Instant::now();
            let ok = rig.client.call(&job.line)?.contains(&job.expected);
            let answered = Instant::now();
            if traced_block {
                let root = spans.root("op", sent, op);
                spans.child("server.round_trip", sent, answered, root);
                samples.round_trip.push(ns(answered - sent));
                // Whichever in-process run goes first finds the caches
                // colder; alternating keeps the two comparable.
                let (mut line_ok, mut split_ok) = (true, true);
                for handle_first in [op % 2 == 0, op % 2 == 1] {
                    if handle_first {
                        let t0 = Instant::now();
                        let response = handle_line(&line_service, job.line.trim_end());
                        let t1 = Instant::now();
                        spans.child("job.handle_line", t0, t1, root);
                        samples.handle_line.push(ns(t1 - t0));
                        line_ok = response.contains(&job.expected);
                    } else {
                        split_ok = split_job(&split_service, job, &mut samples, &mut spans, root)?;
                    }
                }
                spans.close(root, Instant::now());
                log.push(
                    answered - sent,
                    ok && line_ok && split_ok,
                    shape.cycles as u64,
                );
            } else {
                pending.push(idx);
                log.push(answered - sent, ok, shape.cycles as u64);
            }
            n += 1;
        }
        let block_ns = ns(block_start.elapsed());
        if traced_block {
            traced_ops += n;
            traced_ns += block_ns;
        } else {
            plain_ops += n;
            plain_ns += block_ns;
            plain_faults += minor_faults() - faults;
        }
        traced_block = !traced_block;
    }
    log.elapsed = started.elapsed();
    let cache = cache_counts(rig.handle.service()).since(before);
    rig.shutdown();

    let mut layers = Layers::new();
    let s = &samples;
    let rt_mean = mean_us(&s.round_trip);
    let mut rt = s.round_trip.clone();
    rt.sort_unstable();
    let mut hl = s.handle_line.clone();
    hl.sort_unstable();
    layers.insert("server.round_trip_us", quantile(&rt, 0.5) / 1e3);
    layers.insert(
        "server.socket_us",
        (quantile(&rt, 0.5) - quantile(&hl, 0.5)) / 1e3,
    );
    let parts = [
        ("job.parse_us", &s.parse),
        ("exec.lookup_us", &s.lookup),
        ("exec.build_us", &s.build),
        ("exec.execute_us", &s.execute),
        ("exec.publish_us", &s.publish),
        ("exec.other_us", &s.other),
        ("job.render_us", &s.render),
    ];
    // `exec.other_us` is what `run_case` leaves outside its stages, a
    // remainder by construction, so it counts towards no coverage.
    let mut named = 0.0;
    for (name, samples) in parts {
        let us = mean_us(samples);
        if name != "exec.other_us" {
            named += us;
        }
        layers.insert(name, us);
    }
    layers.insert("trace.accounted_ratio", named / mean_us(&s.handle_line));
    layers.insert(OP_MEAN_US, rt_mean);
    let traced = s.round_trip.len() as f64;
    layers.insert("job.response_bytes", s.response_bytes as f64 / traced);
    let lookups = cache.hits + cache.misses;
    layers.insert("cache.lookups", lookups as f64);
    layers.insert("cache.hit_ratio", cache.hits as f64 / lookups as f64);
    layers.insert("cache.evictions", cache.evictions as f64);
    layers.insert(
        "cache.plan_install_ratio",
        cache.plans_installed as f64 / cache.hits as f64,
    );
    layers.insert("metagen.instantiate_us", mean_us(&s.instantiate));
    layers.insert("hdl.validate_us", mean_us(&s.validate));
    layers.insert("sim.compile_us", mean_us(&s.compile));
    layers.insert(
        "sim.ns_per_cycle",
        s.execute.iter().sum::<u64>() as f64 / s.cycles as f64,
    );
    layers.insert("sim.settles_per_op", s.settles as f64 / traced);
    layers.insert(
        "sim.lowered_settle_ratio",
        s.lowered_settles as f64 / s.settles as f64,
    );
    layers.insert(
        "sim.fallback_settles_per_job",
        s.fallback_settles as f64 / traced,
    );
    layers.insert("sim.ops_per_cycle", s.ops_executed as f64 / s.steps as f64);
    layers.insert("sim.evals_per_cycle", s.evals as f64 / s.steps as f64);
    layers.insert(
        "proc.minor_faults_per_op",
        plain_faults as f64 / plain_ops as f64,
    );
    let plain_rate = plain_ops as f64 / plain_ns as f64;
    let traced_rate = traced_ops as f64 / traced_ns as f64;
    layers.insert(
        "trace.overhead_pct",
        (plain_rate / traced_rate - 1.0) * 100.0,
    );
    Ok(Traced { log, layers, spans })
}
