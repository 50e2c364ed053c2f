//! Measurement plumbing shared by every workload: the run budget, the
//! per-op log behind the end-to-end metrics, the metric tables, process
//! counters read from `/proc`, and the in-memory span recorder of the
//! traced run.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// How long a timed window lasts: wall seconds for a measured run, or a
/// fixed op count where counts must repeat exactly (the tests).
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Stop at the first op boundary after this much wall time.
    Seconds(f64),
    /// Stop after exactly this many ops.
    #[cfg_attr(not(test), allow(dead_code))]
    Ops(u64),
}

impl Budget {
    /// Whether a window that started at `started` and has run `ops` ops
    /// is over.
    pub fn done(self, ops: u64, started: Instant) -> bool {
        match self {
            Budget::Seconds(s) => started.elapsed().as_secs_f64() >= s,
            Budget::Ops(n) => ops >= n,
        }
    }

    /// Slice `index` of `count` equal slices of this budget.
    pub fn slice(self, index: usize, count: usize) -> Budget {
        match self {
            Budget::Seconds(s) => Budget::Seconds(s / count as f64),
            Budget::Ops(n) => {
                let (i, k) = (index as u64, count as u64);
                Budget::Ops(n * (i + 1) / k - n * i / k)
            }
        }
    }
}

/// Traced runs alternate untraced and traced blocks of this length, so
/// a host speed change lands on both sides of the overhead ratio.
pub const BLOCK: Duration = Duration::from_millis(250);
/// Block length in ops when the budget counts ops.
pub const BLOCK_OPS: u64 = 2;

/// Whether the current block is over.
pub fn block_done(budget: Budget, ops_in_block: u64, started: Instant) -> bool {
    match budget {
        Budget::Seconds(_) => started.elapsed() >= BLOCK,
        Budget::Ops(_) => ops_in_block >= BLOCK_OPS,
    }
}

/// Set-up repetitions per run, one before each slice of the timed
/// window; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Sub-buckets per power of two of [`LatencyHist`]: latencies below
/// 2^12 ns are exact, longer ones are kept to 1 part in 4096.
const SUB_BITS: u32 = 12;
/// Buckets enough for 2^40 ns (about 18 minutes).
const BUCKETS: usize = (40 - SUB_BITS as usize + 1) << SUB_BITS;

/// A log-linear latency histogram. Its memory does not grow with the op
/// count, so the process's peak RSS does not either.
#[derive(Debug)]
pub struct LatencyHist {
    counts: Vec<u32>,
    total: u64,
}

impl Default for LatencyHist {
    fn default() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }
}

impl LatencyHist {
    fn bucket(ns: u64) -> usize {
        let exp = 63 - ns.max(1).leading_zeros();
        if exp < SUB_BITS {
            return ns as usize;
        }
        let shift = exp - SUB_BITS;
        let sub = (ns >> shift) as usize - (1 << SUB_BITS);
        (((shift as usize + 1) << SUB_BITS) + sub).min(BUCKETS - 1)
    }

    /// The midpoint of a bucket's range, in nanoseconds.
    fn value(bucket: usize) -> f64 {
        let shift = (bucket >> SUB_BITS).saturating_sub(1);
        let low = if bucket < 1 << SUB_BITS {
            bucket as u64
        } else {
            ((bucket & ((1 << SUB_BITS) - 1)) as u64 + (1 << SUB_BITS)) << shift
        };
        low as f64 + ((1u64 << shift) - 1) as f64 / 2.0
    }

    /// Records one latency.
    pub fn push(&mut self, ns: u64) {
        self.counts[Self::bucket(ns)] += 1;
        self.total += 1;
    }

    /// Latencies recorded.
    pub fn len(&self) -> u64 {
        self.total
    }

    /// The `q` quantile (nearest rank) in nanoseconds, or 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((self.total as f64 * q).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (bucket, &count) in self.counts.iter().enumerate() {
            seen += u64::from(count);
            if seen >= rank {
                return Self::value(bucket);
            }
        }
        unreachable!("the counts sum to the total")
    }
}

/// Everything the end-to-end metrics derive from.
#[derive(Debug, Default)]
pub struct OpLog {
    /// Host latency of every attempted op.
    pub latencies: LatencyHist,
    /// Ops whose outputs matched the reference.
    pub correct: u64,
    /// Ops with an error document or an output that differs from the
    /// reference.
    pub failed: u64,
    /// Simulated clock cycles of the correct ops.
    pub cycles: u64,
    /// The timed window.
    pub elapsed: Duration,
}

impl OpLog {
    /// Records one op.
    pub fn push(&mut self, latency: Duration, ok: bool, cycles: u64) {
        self.latencies.push(ns(latency));
        if ok {
            self.correct += 1;
            self.cycles += cycles;
        } else {
            self.failed += 1;
        }
    }

    /// Adds another log's op counts to this one's; its latencies and
    /// timed window stay apart.
    pub fn absorb(&mut self, other: &OpLog) {
        self.correct += other.correct;
        self.failed += other.failed;
    }

    /// Ops attempted.
    pub fn attempted(&self) -> u64 {
        self.correct + self.failed
    }

    /// Correct ops per timed second.
    pub fn ops_per_s(&self) -> f64 {
        self.correct as f64 / self.elapsed.as_secs_f64()
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The end-to-end metrics, in report order, with their units.
pub const END_TO_END: [(&str, &str); 6] = [
    ("ops_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p90_us", "us"),
    ("sim_cycles_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(log: &OpLog, setup_s: f64) -> Vec<Metric> {
    let values = [
        log.ops_per_s(),
        log.latencies.quantile(0.5) / 1e3,
        log.latencies.quantile(0.9) / 1e3,
        log.cycles as f64 / log.elapsed.as_secs_f64(),
        setup_s,
        peak_rss_mb(),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric {
            name: name.to_owned(),
            value,
            unit,
        })
        .collect()
}

/// One per-layer metric: its name and unit, the layer it times, and
/// which end-to-end metric it should move on which workload.
pub struct LayerMetric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Layer (crate or module) it measures.
    pub layer: &'static str,
    /// The end-to-end metric it should move.
    pub moves: &'static str,
    /// The workload on which it should move it.
    pub on: &'static str,
}

const fn lm(
    name: &'static str,
    unit: &'static str,
    layer: &'static str,
    moves: &'static str,
    on: &'static str,
) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        layer,
        moves,
        on,
    }
}

/// Every per-layer metric a traced run reports. A workload that does
/// not pass through a layer reports 0 for it: no time is spent there.
pub const PER_LAYER: [LayerMetric; 39] = [
    lm(
        "server.round_trip_us",
        "us",
        "server",
        "latency_p50_us",
        "svc_warm_short",
    ),
    lm(
        "server.socket_us",
        "us",
        "server",
        "latency_p50_us",
        "svc_warm_short",
    ),
    lm(
        "job.parse_us",
        "us",
        "job, conform::wire",
        "latency_p50_us",
        "svc_warm_short",
    ),
    lm("job.render_us", "us", "job", "ops_per_s", "svc_warm_mid"),
    lm(
        "job.response_bytes",
        "bytes",
        "job",
        "ops_per_s",
        "svc_warm_mid",
    ),
    lm(
        "exec.lookup_us",
        "us",
        "exec, cache",
        "latency_p50_us",
        "svc_warm_short",
    ),
    lm(
        "exec.build_us",
        "us",
        "exec, cache",
        "latency_p50_us",
        "svc_warm_short",
    ),
    lm(
        "exec.execute_us",
        "us",
        "exec, sim",
        "sim_cycles_per_s",
        "svc_warm_mid",
    ),
    lm(
        "exec.publish_us",
        "us",
        "exec, cache",
        "ops_per_s",
        "svc_churn",
    ),
    lm(
        "exec.other_us",
        "us",
        "exec",
        "latency_p50_us",
        "svc_warm_short",
    ),
    lm("cache.lookups", "count", "cache", "ops_per_s", "svc_churn"),
    lm(
        "cache.hit_ratio",
        "ratio",
        "cache",
        "ops_per_s",
        "svc_churn",
    ),
    lm(
        "cache.evictions",
        "count",
        "cache",
        "ops_per_s",
        "svc_churn",
    ),
    lm(
        "cache.plan_install_ratio",
        "ratio",
        "cache",
        "ops_per_s",
        "svc_churn",
    ),
    lm(
        "metagen.instantiate_us",
        "us",
        "metagen",
        "latency_p90_us",
        "svc_churn",
    ),
    lm(
        "hdl.validate_us",
        "us",
        "hdl",
        "latency_p90_us",
        "svc_churn",
    ),
    lm("sim.compile_us", "us", "sim", "latency_p90_us", "svc_churn"),
    lm(
        "sim.ns_per_cycle",
        "ns",
        "sim",
        "sim_cycles_per_s",
        "svc_warm_mid",
    ),
    lm(
        "sim.settles_per_op",
        "count",
        "sim",
        "sim_cycles_per_s",
        "svc_warm_mid",
    ),
    lm(
        "sim.lowered_settle_ratio",
        "ratio",
        "sim",
        "sim_cycles_per_s",
        "svc_warm_mid",
    ),
    lm(
        "sim.fallback_settles_per_job",
        "count",
        "sim",
        "sim_cycles_per_s",
        "svc_warm_mid",
    ),
    lm(
        "sim.ops_per_cycle",
        "count",
        "sim",
        "sim_cycles_per_s",
        "svc_warm_mid",
    ),
    lm(
        "sim.evals_per_cycle",
        "count",
        "sim",
        "sim_cycles_per_s",
        "svc_warm_mid",
    ),
    lm(
        "table3.saa2vga1_pattern.ns_per_cycle",
        "ns",
        "sim, devices",
        "sim_cycles_per_s",
        "table3_frames",
    ),
    lm(
        "table3.saa2vga1_custom.ns_per_cycle",
        "ns",
        "sim, devices",
        "sim_cycles_per_s",
        "table3_frames",
    ),
    lm(
        "table3.saa2vga2_pattern.ns_per_cycle",
        "ns",
        "sim, devices",
        "sim_cycles_per_s",
        "table3_frames",
    ),
    lm(
        "table3.saa2vga2_custom.ns_per_cycle",
        "ns",
        "sim, devices",
        "sim_cycles_per_s",
        "table3_frames",
    ),
    lm(
        "table3.blur_pattern.ns_per_cycle",
        "ns",
        "sim, devices",
        "sim_cycles_per_s",
        "table3_frames",
    ),
    lm(
        "table3.blur_custom.ns_per_cycle",
        "ns",
        "sim, devices",
        "sim_cycles_per_s",
        "table3_frames",
    ),
    lm(
        "table3.saa2vga1.pattern_over_custom",
        "ratio",
        "sim",
        "none",
        "table3_frames",
    ),
    lm(
        "table3.saa2vga2.pattern_over_custom",
        "ratio",
        "sim",
        "none",
        "table3_frames",
    ),
    lm(
        "table3.blur.pattern_over_custom",
        "ratio",
        "sim",
        "none",
        "table3_frames",
    ),
    lm(
        "table3.build_us",
        "us",
        "bench, sim",
        "latency_p50_us",
        "table3_frames",
    ),
    lm(
        "metagen.generate_us",
        "us",
        "metagen::design",
        "latency_p50_us",
        "table3_frames",
    ),
    lm(
        "sim.device_eval_share",
        "ratio",
        "sim::devices",
        "sim_cycles_per_s",
        "table3_frames",
    ),
    lm(
        "table3.cycles_per_round",
        "count",
        "sim",
        "exact check",
        "table3_frames",
    ),
    lm(
        "proc.minor_faults_per_op",
        "count",
        "process",
        "latency_p90_us",
        "svc_warm_mid, table3_frames",
    ),
    lm(
        "trace.overhead_pct",
        "%",
        "benchmark",
        "none",
        "every workload",
    ),
    lm(
        "trace.accounted_ratio",
        "ratio",
        "benchmark",
        "none",
        "every workload",
    ),
];

/// Per-layer values filled in by a traced run, by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// The [`Layers`] entry holding the mean traced op in microseconds, the
/// base of every share the traced report prints. Not a reported metric.
pub const OP_MEAN_US: &str = "op.mean_us";

/// The per-op layer times whose shares of the mean traced op the report
/// prints; on a service workload they and the socket sum to the round
/// trip.
pub const SHARE_OF_OP: [&str; 10] = [
    "server.socket_us",
    "job.parse_us",
    "exec.lookup_us",
    "exec.build_us",
    "exec.execute_us",
    "exec.publish_us",
    "exec.other_us",
    "job.render_us",
    "table3.build_us",
    "metagen.generate_us",
];

/// The per-layer metrics of a traced run, in [`PER_LAYER`] order; a
/// layer the workload never reached reports 0.
pub fn per_layer(layers: &Layers) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|m| Metric {
            name: m.name.to_owned(),
            value: layers.get(m.name).copied().unwrap_or(0.0),
            unit: m.unit,
        })
        .collect()
}

/// The `q` quantile of sorted samples (nearest rank), or 0 when empty.
pub fn quantile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

/// The median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Mean of nanosecond samples, in microseconds.
pub fn mean_us(samples_ns: &[u64]) -> f64 {
    if samples_ns.is_empty() {
        0.0
    } else {
        samples_ns.iter().sum::<u64>() as f64 / samples_ns.len() as f64 / 1e3
    }
}

/// A duration in whole nanoseconds.
pub fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Minor page faults of this process so far (`/proc/self/stat` field
/// 10), or 0 where `/proc` is unavailable.
pub fn minor_faults() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may hold spaces; the fields after it do not.
    stat.rsplit_once(')')
        .and_then(|(_, rest)| rest.split_whitespace().nth(7))
        .and_then(|f| f.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set (`VmHWM`) of this process in MiB, or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One recorded span of the traced run.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What the span wraps.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the parent span plus one; 0 for a root.
    pub parent: usize,
    /// The op the span belongs to.
    pub op: u64,
}

/// Spans kept in memory and written out once the run has ended.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    dropped: u64,
}

/// Spans kept per run; later ones are counted, not stored.
const MAX_SPANS: usize = 200_000;

impl Spans {
    /// A recorder whose epoch is now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            dropped: 0,
        }
    }

    fn push(&mut self, span: Span) -> usize {
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return 0;
        }
        self.spans.push(span);
        self.spans.len()
    }

    fn since_epoch(&self, t: Instant) -> u64 {
        ns(t.saturating_duration_since(self.epoch))
    }

    /// Opens the root span of op `op`; returns the handle its children
    /// and [`Spans::close`] take (0 once the recorder is full).
    pub fn root(&mut self, name: &'static str, start: Instant, op: u64) -> usize {
        let start_ns = self.since_epoch(start);
        self.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: 0,
            op,
        })
    }

    /// Ends a span opened with [`Spans::root`].
    pub fn close(&mut self, handle: usize, end: Instant) {
        let end_ns = self.since_epoch(end);
        if let Some(span) = handle.checked_sub(1).and_then(|i| self.spans.get_mut(i)) {
            span.end_ns = end_ns;
        }
    }

    /// Records `[start, end)` under `parent`; nothing when `parent` is 0.
    pub fn child(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: usize,
    ) -> usize {
        let start_ns = self.since_epoch(start);
        let dur_ns = self.since_epoch(end).saturating_sub(start_ns);
        self.push_child(name, parent, |_| start_ns, dur_ns)
    }

    /// Records a child given as an offset into its parent's start and a
    /// duration; nothing when `parent` is 0.
    pub fn child_at(&mut self, name: &'static str, parent: usize, ts_ns: u64, dur_ns: u64) {
        self.push_child(name, parent, |base| base + ts_ns, dur_ns);
    }

    fn push_child(
        &mut self,
        name: &'static str,
        parent: usize,
        start_ns: impl FnOnce(u64) -> u64,
        dur_ns: u64,
    ) -> usize {
        let Some(base) = parent.checked_sub(1).and_then(|i| self.spans.get(i)) else {
            return 0;
        };
        let (start_ns, op) = (start_ns(base.start_ns), base.op);
        self.push(Span {
            name,
            start_ns,
            end_ns: start_ns + dur_ns,
            parent,
            op,
        })
    }

    /// Number of spans kept.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// The spans as Chrome trace-event JSON (loads in Perfetto).
    pub fn chrome_trace(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"op\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                i + 1,
                s.parent,
                s.op
            );
        }
        let _ = write!(out, "],\"dropped\":{}}}", self.dropped);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.9), 90.0);
        assert_eq!(quantile(&[], 0.9), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);

        let mut hist = LatencyHist::default();
        assert_eq!(hist.quantile(0.5), 0.0);
        for ns in [100, 4095, 4096, 123_456_789] {
            hist.push(ns);
        }
        assert_eq!(hist.quantile(0.25), 100.0);
        assert_eq!(hist.quantile(0.5), 4095.0);
        assert_eq!(hist.quantile(0.75), 4096.0);
        let long = hist.quantile(1.0);
        assert!((long - 123_456_789.0).abs() / 123_456_789.0 < 1.0 / 4096.0);
    }

    #[test]
    fn proc_counters_read_this_process() {
        let before = minor_faults();
        let touched = vec![1u8; 8 << 20];
        std::hint::black_box(&touched);
        assert!(minor_faults() > before, "touching 8 MiB faults pages in");
        assert!(peak_rss_mb() >= 8.0);
    }

    #[test]
    fn spans_nest_and_render() {
        let mut spans = Spans::new();
        let t0 = Instant::now();
        let root = spans.root("op", t0, 7);
        spans.child_at("child", root, 0, 5);
        spans.close(root, Instant::now());
        assert_eq!(spans.child("orphan", t0, t0, 0), 0, "no parent, no span");
        let json = spans.chrome_trace();
        assert_eq!(spans.len(), 2);
        assert!(json.contains("\"name\":\"child\""));
        assert!(json.contains("\"parent\":1,\"op\":7"));
    }
}
