//! Counters, histograms, quantile sketches, and the aggregated
//! [`MetricsReport`].

use crate::sketch::CycleSketch;
use std::fmt::Write as _;

/// Monotonic counters. Every variant is a plain occurrence or cycle/byte
/// total; derived ratios (memo hit-rate, DRAM-bound share) are computed
/// by [`MetricsReport`] at render time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Counter {
    /// Requests admitted to a queue.
    Arrivals,
    /// Requests finished.
    Completions,
    /// Scheduler invocations (arrival/completion triggers).
    SchedulingEvents,
    /// Running tenants resized or preempted (paid §IV-C costs).
    Reconfigurations,
    /// PREMA context switches.
    Preemptions,
    /// Cycles spent draining pipelines during reconfiguration.
    DrainCycles,
    /// Cycles spent checkpointing in-flight tiles.
    CheckpointCycles,
    /// Cycles spent swapping fission configurations.
    ConfigSwapCycles,
    /// Cycles spent re-streaming weights after reconfiguration.
    RefillCycles,
    /// Bytes checkpointed across all reconfigurations.
    CheckpointBytes,
    /// Compiler timing-memo cache hits.
    MemoHits,
    /// Compiler timing-memo cache misses (entries computed).
    MemoMisses,
    /// Distinct layer shapes after dedup.
    DistinctShapes,
    /// Layer-table entries compiled (layers × allocations).
    LayersCompiled,
    /// Layer cycles classified as DRAM-bandwidth-bound.
    DramBoundCycles,
    /// Layer cycles classified as compute-bound.
    ComputeBoundCycles,
    /// Fabric dispatcher routing decisions.
    DispatchDecisions,
    /// Epoch-synchronized fabric rounds executed.
    FabricRounds,
    /// Completions that met their deadline in the integer cycle domain
    /// (`finish_cycle <= deadline_cycle`).
    QosMet,
}

impl Counter {
    /// Every counter, in declaration (report) order; `ALL[c as usize] == c`.
    pub const ALL: [Counter; 19] = [
        Counter::Arrivals,
        Counter::Completions,
        Counter::SchedulingEvents,
        Counter::Reconfigurations,
        Counter::Preemptions,
        Counter::DrainCycles,
        Counter::CheckpointCycles,
        Counter::ConfigSwapCycles,
        Counter::RefillCycles,
        Counter::CheckpointBytes,
        Counter::MemoHits,
        Counter::MemoMisses,
        Counter::DistinctShapes,
        Counter::LayersCompiled,
        Counter::DramBoundCycles,
        Counter::ComputeBoundCycles,
        Counter::DispatchDecisions,
        Counter::FabricRounds,
        Counter::QosMet,
    ];

    /// Stable snake_case name (JSON keys, text report rows).
    pub fn name(self) -> &'static str {
        match self {
            Counter::Arrivals => "arrivals",
            Counter::Completions => "completions",
            Counter::SchedulingEvents => "scheduling_events",
            Counter::Reconfigurations => "reconfigurations",
            Counter::Preemptions => "preemptions",
            Counter::DrainCycles => "drain_cycles",
            Counter::CheckpointCycles => "checkpoint_cycles",
            Counter::ConfigSwapCycles => "config_swap_cycles",
            Counter::RefillCycles => "refill_cycles",
            Counter::CheckpointBytes => "checkpoint_bytes",
            Counter::MemoHits => "memo_hits",
            Counter::MemoMisses => "memo_misses",
            Counter::DistinctShapes => "distinct_shapes",
            Counter::LayersCompiled => "layers_compiled",
            Counter::DramBoundCycles => "dram_bound_cycles",
            Counter::ComputeBoundCycles => "compute_bound_cycles",
            Counter::DispatchDecisions => "dispatch_decisions",
            Counter::FabricRounds => "fabric_rounds",
            Counter::QosMet => "qos_met",
        }
    }
}

/// Histogram-sampled metrics (distributions, not totals).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Metric {
    /// Queued (unallocated) tenants at each scheduling event.
    QueueDepth,
    /// Allocated-subarray share of the chip, percent, at each
    /// scheduling event.
    OccupancyPct,
    /// Granted allocation sizes (subarrays) at grant time.
    AllocationSize,
    /// Queue-wait lengths, cycles.
    QueueWaitCycles,
    /// Per-reconfiguration total overhead, cycles.
    ReconfigCycles,
    /// Per-layer effective MAC utilization (0–1) from the timing model.
    Utilization,
    /// End-to-end request latency, cycles (sketch-observed).
    LatencyCycles,
    /// Per-node backlog estimate at round boundaries, cycles
    /// (sketch-observed).
    NodeBacklogCycles,
    /// Per-node in-flight tenant count at round boundaries
    /// (sketch-observed).
    NodeQueueDepth,
}

impl Metric {
    /// Every metric, in declaration (report) order; `ALL[m as usize] == m`.
    pub const ALL: [Metric; 9] = [
        Metric::QueueDepth,
        Metric::OccupancyPct,
        Metric::AllocationSize,
        Metric::QueueWaitCycles,
        Metric::ReconfigCycles,
        Metric::Utilization,
        Metric::LatencyCycles,
        Metric::NodeBacklogCycles,
        Metric::NodeQueueDepth,
    ];

    /// Stable snake_case name (JSON keys, text report rows).
    pub fn name(self) -> &'static str {
        match self {
            Metric::QueueDepth => "queue_depth",
            Metric::OccupancyPct => "occupancy_pct",
            Metric::AllocationSize => "allocation_size",
            Metric::QueueWaitCycles => "queue_wait_cycles",
            Metric::ReconfigCycles => "reconfig_cycles",
            Metric::Utilization => "utilization",
            Metric::LatencyCycles => "latency_cycles",
            Metric::NodeBacklogCycles => "node_backlog_cycles",
            Metric::NodeQueueDepth => "node_queue_depth",
        }
    }
}

/// Number of log₂ buckets per histogram.
pub const HISTOGRAM_BUCKETS: usize = 16;

/// A fixed-size log₂ histogram with count/sum/min/max sidecars.
///
/// Bucket 0 holds values `< 1`; bucket *i* (for `i ≥ 1`) holds values in
/// `[2^(i-1), 2^i)`; the last bucket additionally absorbs everything
/// larger. Deterministic: bucketing is pure integer/float math on the
/// sampled value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Histogram {
    /// Samples observed.
    pub count: u64,
    /// Sum of samples.
    pub sum: f64,
    /// Smallest sample (`f64::INFINITY` when empty).
    pub min: f64,
    /// Largest sample (`f64::NEG_INFINITY` when empty).
    pub max: f64,
    /// Log₂ buckets (see type docs).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            buckets: [0; HISTOGRAM_BUCKETS],
        }
    }

    /// Records one sample (negative samples clamp into bucket 0).
    pub fn record(&mut self, value: f64) {
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.buckets[Self::bucket_of(value)] += 1;
    }

    /// The bucket index a value lands in.
    pub fn bucket_of(value: f64) -> usize {
        if !(value >= 1.0) {
            return 0;
        }
        // floor(log2(v)) + 1 without float log: count the integer bits.
        let bits = 64 - (value as u64).leading_zeros() as usize;
        bits.min(HISTOGRAM_BUCKETS - 1)
    }

    /// Merges another histogram into this one (bucket-wise sum; used
    /// when combining per-node reports in the cluster fabric).
    pub fn merge(&mut self, other: &Self) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += *o;
        }
    }

    /// Mean of the samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

/// Number of [`Counter`] variants.
const COUNTERS: usize = Counter::ALL.len();
const _: () = assert!(COUNTERS <= 32, "the touched mask is a u32");

/// Number of [`Metric`] variants.
const METRICS: usize = Metric::ALL.len();

/// Aggregated counters, histograms and quantile sketches of one run,
/// renderable as an aligned text table or a JSON object.
///
/// This is also the live aggregate the recording and stats collectors
/// update on every hook, so it is laid out flat: counters and histograms
/// are arrays indexed by the enum discriminant, and a metric's
/// [`CycleSketch`] (~15 KB) is boxed on its first observation. A counter
/// is present once added to (even by 0, tracked in a touched mask), a
/// histogram once sampled, a sketch once observed; iteration is enum
/// order. Absent keys render and compare exactly as if never created.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsReport {
    /// Total events recorded alongside the aggregates.
    pub events: u64,
    counters: [u64; COUNTERS],
    /// Bit `c as usize` set once counter `c` has been added to.
    touched: u32,
    /// An empty (`count == 0`) histogram is an absent one.
    histograms: [Histogram; METRICS],
    sketches: [Option<Box<CycleSketch>>; METRICS],
}

impl Default for MetricsReport {
    fn default() -> Self {
        Self {
            events: 0,
            counters: [0; COUNTERS],
            touched: 0,
            histograms: [Histogram::new(); METRICS],
            sketches: Default::default(),
        }
    }
}

impl MetricsReport {
    /// Adds `delta` to a counter, creating it (at 0) if absent.
    #[inline]
    pub fn add(&mut self, c: Counter, delta: u64) {
        self.counters[c as usize] += delta;
        self.touched |= 1 << c as u32;
    }

    /// Records one histogram sample.
    #[inline]
    pub fn sample(&mut self, m: Metric, value: f64) {
        self.histograms[m as usize].record(value);
    }

    /// Observes one cycle sample into the metric's sketch, boxing the
    /// sketch on the metric's first observation.
    #[inline]
    pub fn observe(&mut self, m: Metric, cycles: u64) {
        self.sketches[m as usize]
            .get_or_insert_with(Box::default)
            .record(cycles);
    }

    /// The value of one counter (0 when never incremented).
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    /// The histogram for one metric, if any samples were recorded.
    pub fn histogram(&self, m: Metric) -> Option<&Histogram> {
        Some(&self.histograms[m as usize]).filter(|h| !h.is_empty())
    }

    /// The quantile sketch for one metric, if any samples were observed.
    pub fn sketch(&self, m: Metric) -> Option<&CycleSketch> {
        self.sketches[m as usize].as_deref()
    }

    /// The counters added to so far, in enum order.
    pub fn counters(&self) -> impl Iterator<Item = (Counter, u64)> + '_ {
        Counter::ALL
            .into_iter()
            .filter(|&c| self.touched & (1 << c as u32) != 0)
            .map(|c| (c, self.counters[c as usize]))
    }

    /// The sampled histograms, in enum order.
    pub fn histograms(&self) -> impl Iterator<Item = (Metric, &Histogram)> + '_ {
        Metric::ALL
            .into_iter()
            .filter_map(|m| self.histogram(m).map(|h| (m, h)))
    }

    /// The observed sketches, in enum order.
    pub fn sketches(&self) -> impl Iterator<Item = (Metric, &CycleSketch)> + '_ {
        Metric::ALL
            .into_iter()
            .filter_map(|m| self.sketch(m).map(|s| (m, s)))
    }

    /// Whether nothing was recorded: no events and no counter, histogram
    /// or sketch.
    pub fn is_empty(&self) -> bool {
        self.events == 0
            && self.touched == 0
            && self.histograms().next().is_none()
            && self.sketches().next().is_none()
    }

    /// Merges another report into this one: counters and event totals
    /// add, histograms and sketches merge bucket-wise, each key merged
    /// into an empty one when absent here. Deterministic — enum-order
    /// iteration and commutative integer sums — so merging per-node
    /// reports in node-id order yields the same bytes at any
    /// `PLANARIA_JOBS`.
    pub fn merge(&mut self, other: &Self) {
        for (a, b) in self.counters.iter_mut().zip(&other.counters) {
            *a += b;
        }
        self.touched |= other.touched;
        for (m, h) in other.histograms() {
            self.histograms[m as usize].merge(h);
        }
        for (m, s) in other.sketches() {
            self.sketches[m as usize]
                .get_or_insert_with(Box::default)
                .merge(s);
        }
        self.events += other.events;
    }

    /// Compiler memo hit-rate in [0, 1] (`None` when the memo was never
    /// consulted).
    pub fn memo_hit_rate(&self) -> Option<f64> {
        let hits = self.counter(Counter::MemoHits);
        let misses = self.counter(Counter::MemoMisses);
        let total = hits + misses;
        if total == 0 {
            None
        } else {
            Some(hits as f64 / total as f64)
        }
    }

    /// Share of layer cycles that were DRAM-bound, in [0, 1] (`None`
    /// when the timing model was not instrumented).
    pub fn dram_bound_share(&self) -> Option<f64> {
        let d = self.counter(Counter::DramBoundCycles);
        let c = self.counter(Counter::ComputeBoundCycles);
        let total = d + c;
        if total == 0 {
            None
        } else {
            Some(d as f64 / total as f64)
        }
    }

    /// Renders an aligned, human-readable report.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== telemetry report ({} events) ==", self.events);
        if self.touched != 0 {
            let _ = writeln!(out, "counters:");
            for (c, v) in self.counters() {
                let _ = writeln!(out, "  {:<22} {v}", c.name());
            }
        }
        if let Some(rate) = self.memo_hit_rate() {
            let _ = writeln!(out, "  {:<22} {:.1}%", "memo_hit_rate", rate * 100.0);
        }
        if let Some(share) = self.dram_bound_share() {
            let _ = writeln!(out, "  {:<22} {:.1}%", "dram_bound_share", share * 100.0);
        }
        if self.histograms().next().is_some() {
            let _ = writeln!(out, "histograms (count / mean / min / max):");
            for (m, h) in self.histograms() {
                let _ = writeln!(
                    out,
                    "  {:<22} {} / {:.3} / {:.3} / {:.3}",
                    m.name(),
                    h.count,
                    h.mean(),
                    if h.is_empty() { 0.0 } else { h.min },
                    if h.is_empty() { 0.0 } else { h.max },
                );
            }
        }
        if self.sketches().next().is_some() {
            let _ = writeln!(out, "sketches (count / p50 / p99 / min / max, cycles):");
            for (m, s) in self.sketches() {
                let _ = writeln!(
                    out,
                    "  {:<22} {} / {} / {} / {} / {}",
                    m.name(),
                    s.count(),
                    s.value_at_ratio(50, 100).unwrap_or(0),
                    s.value_at_ratio(99, 100).unwrap_or(0),
                    s.min().unwrap_or(0),
                    s.max().unwrap_or(0),
                );
            }
        }
        out
    }

    /// Renders the report as a JSON object (stable key order).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{");
        let _ = write!(out, "\"events\":{}", self.events);
        out.push_str(",\"counters\":{");
        for (i, (c, v)) in self.counters().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{v}", c.name());
        }
        out.push('}');
        if let Some(rate) = self.memo_hit_rate() {
            let _ = write!(out, ",\"memo_hit_rate\":{}", fmt_f64(rate));
        }
        if let Some(share) = self.dram_bound_share() {
            let _ = write!(out, ",\"dram_bound_share\":{}", fmt_f64(share));
        }
        out.push_str(",\"histograms\":{");
        for (i, (m, h)) in self.histograms().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{}\":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":[",
                m.name(),
                h.count,
                fmt_f64(h.sum),
                fmt_f64(if h.is_empty() { 0.0 } else { h.min }),
                fmt_f64(if h.is_empty() { 0.0 } else { h.max }),
            );
            for (j, b) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{b}");
            }
            out.push_str("]}");
        }
        out.push('}');
        out.push_str(",\"sketches\":{");
        for (i, (m, s)) in self.sketches().enumerate() {
            if i > 0 {
                out.push(',');
            }
            // Summary only — the 1920 raw buckets stay in-process.
            let _ = write!(
                out,
                "\"{}\":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p90\":{},\"p99\":{}}}",
                m.name(),
                s.count(),
                s.sum(),
                s.min().unwrap_or(0),
                s.max().unwrap_or(0),
                s.value_at_ratio(50, 100).unwrap_or(0),
                s.value_at_ratio(90, 100).unwrap_or(0),
                s.value_at_ratio(99, 100).unwrap_or(0),
            );
        }
        out.push_str("}}");
        out
    }
}

/// Formats an `f64` as JSON (finite guaranteed by construction; callers
/// only pass sums/means of finite samples).
pub(crate) fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        // `{}` on f64 never produces exponents for our magnitudes, and
        // always includes a leading digit; it is valid JSON as-is.
        s
    } else {
        String::from("0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucketing_is_log2() {
        assert_eq!(Histogram::bucket_of(0.0), 0);
        assert_eq!(Histogram::bucket_of(-3.0), 0);
        assert_eq!(Histogram::bucket_of(0.9), 0);
        assert_eq!(Histogram::bucket_of(1.0), 1);
        assert_eq!(Histogram::bucket_of(1.9), 1);
        assert_eq!(Histogram::bucket_of(2.0), 2);
        assert_eq!(Histogram::bucket_of(3.0), 2);
        assert_eq!(Histogram::bucket_of(4.0), 3);
        assert_eq!(Histogram::bucket_of(1e18), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn histogram_tracks_aggregates() {
        let mut h = Histogram::new();
        for v in [1.0, 2.0, 3.0, 10.0] {
            h.record(v);
        }
        assert_eq!(h.count, 4);
        assert!((h.mean() - 4.0).abs() < 1e-12);
        assert_eq!(h.min, 1.0);
        assert_eq!(h.max, 10.0);
        assert_eq!(h.buckets.iter().sum::<u64>(), 4);
    }

    #[test]
    fn report_renders_text_and_json() {
        let mut r = MetricsReport::default();
        r.events = 3;
        r.add(Counter::Arrivals, 2);
        r.add(Counter::MemoHits, 3);
        r.add(Counter::MemoMisses, 1);
        r.sample(Metric::QueueDepth, 2.0);
        let text = r.render_text();
        assert!(text.contains("arrivals"));
        assert!(text.contains("memo_hit_rate"));
        assert!(text.contains("queue_depth"));
        let json = r.render_json();
        assert!(json.contains("\"arrivals\":2"));
        assert!(json.contains("\"memo_hit_rate\":0.75"));
        // The JSON must parse with the in-crate parser.
        let parsed = crate::json::parse(&json).expect("report JSON parses");
        assert!(parsed.get("counters").is_some());
    }

    #[test]
    fn reports_merge_deterministically() {
        let mut a = MetricsReport::default();
        a.events = 2;
        a.add(Counter::Arrivals, 3);
        a.sample(Metric::QueueDepth, 4.0);
        a.observe(Metric::LatencyCycles, 100);

        let mut b = MetricsReport::default();
        b.events = 1;
        b.add(Counter::Arrivals, 2);
        b.add(Counter::Completions, 5);
        b.sample(Metric::QueueDepth, 8.0);
        b.observe(Metric::LatencyCycles, 200);

        let mut ab = a.clone();
        ab.merge(&b);
        assert_eq!(ab.events, 3);
        assert_eq!(ab.counter(Counter::Arrivals), 5);
        assert_eq!(ab.counter(Counter::Completions), 5);
        // lint: merged above, the histogram and sketch both exist
        assert_eq!(ab.histogram(Metric::QueueDepth).unwrap().count, 2);
        let s = ab.sketch(Metric::LatencyCycles).expect("sketch merged");
        assert_eq!(s.count(), 2);
        assert_eq!(s.max(), Some(200));
        // Merge must commute bucket-wise: b.merge(a) gives the same
        // aggregate state.
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        // Sketch summaries land in both renderings.
        assert!(ab.render_text().contains("latency_cycles"));
        let json = ab.render_json();
        assert!(json.contains("\"latency_cycles\":{\"count\":2"));
        let parsed = crate::json::parse(&json).expect("merged report JSON parses");
        assert!(parsed.get("sketches").is_some());
    }

    #[test]
    fn variant_tables_are_indexed_by_discriminant() {
        for (i, c) in Counter::ALL.into_iter().enumerate() {
            assert_eq!(c as usize, i, "{c:?}");
        }
        for (i, m) in Metric::ALL.into_iter().enumerate() {
            assert_eq!(m as usize, i, "{m:?}");
        }
    }

    #[test]
    fn derived_ratios_absent_without_samples() {
        let r = MetricsReport::default();
        assert_eq!(r.memo_hit_rate(), None);
        assert_eq!(r.dram_bound_share(), None);
        assert_eq!(r.counter(Counter::Arrivals), 0);
        assert!(r.histogram(Metric::QueueDepth).is_none());
    }
}
