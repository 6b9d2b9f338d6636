//! The [`Collector`] trait and its implementations.

use crate::event::{Event, SimMeta, TimedEvent};
use crate::metrics::{Counter, Metric, MetricsReport};
use crate::sketch::CycleSketch;
use planaria_model::units::Cycles;

/// A sink for simulation telemetry.
///
/// Engines are generic over `C: Collector` and call these hooks
/// unconditionally; the whole point of the trait is that the
/// [`NullCollector`] implementation inlines every hook to a no-op, so
/// the uninstrumented path costs nothing and produces bit-identical
/// results. Implementations that do record must be deterministic: no
/// wall clock, no entropy, enum-ordered aggregation.
///
/// Call [`is_enabled`](Collector::is_enabled) before *constructing*
/// non-trivial event payloads (placement bitmasks, breakdowns) so the
/// disabled path skips even the argument computation.
pub trait Collector {
    /// Whether this collector records anything (gates payload
    /// construction at call sites).
    fn is_enabled(&self) -> bool;

    /// Announces the run's clock and chip size (once, at run start).
    fn set_meta(&mut self, meta: SimMeta);

    /// Records one event at simulation time `ts` (cycles since the
    /// run's first arrival).
    fn record(&mut self, ts: Cycles, event: Event);

    /// Adds `delta` to a monotonic counter.
    fn add(&mut self, counter: Counter, delta: u64);

    /// Records one histogram sample.
    fn sample(&mut self, metric: Metric, value: f64);

    /// Observes one exact integer cycle sample into the metric's
    /// streaming quantile sketch ([`CycleSketch`]): O(1) per sample,
    /// O(buckets) memory, so percentiles survive runs whose completion
    /// vectors are never materialized. Defaults to a no-op so existing
    /// collectors outside this crate are unaffected.
    fn observe(&mut self, _metric: Metric, _cycles: u64) {}
}

/// The disabled path: every method is an inlined no-op, so an engine
/// compiled against `NullCollector` is the uninstrumented engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullCollector;

impl Collector for NullCollector {
    #[inline(always)]
    fn is_enabled(&self) -> bool {
        false
    }

    #[inline(always)]
    fn set_meta(&mut self, _meta: SimMeta) {}

    #[inline(always)]
    fn record(&mut self, _ts: Cycles, _event: Event) {}

    #[inline(always)]
    fn add(&mut self, _counter: Counter, _delta: u64) {}

    #[inline(always)]
    fn sample(&mut self, _metric: Metric, _value: f64) {}

    #[inline(always)]
    fn observe(&mut self, _metric: Metric, _cycles: u64) {}
}

/// A deterministic in-memory recorder: events in arrival order, counters,
/// histograms and sketches in one flat [`MetricsReport`] aggregate.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecordingCollector {
    meta: SimMeta,
    events: Vec<TimedEvent>,
    /// The aggregates; its `events` total tracks `events.len()`.
    agg: MetricsReport,
}

impl RecordingCollector {
    /// An empty recorder (meta defaults to an identity clock until the
    /// engine announces the real one).
    pub fn new() -> Self {
        Self::default()
    }

    /// The announced run metadata.
    pub fn meta(&self) -> SimMeta {
        self.meta
    }

    /// All recorded events in recording order.
    pub fn events(&self) -> &[TimedEvent] {
        &self.events
    }

    /// The sketch for one metric, if any samples were observed.
    pub fn sketch(&self, m: Metric) -> Option<&CycleSketch> {
        self.agg.sketch(m)
    }

    /// The value of one counter (0 when never incremented).
    pub fn counter(&self, c: Counter) -> u64 {
        self.agg.counter(c)
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.agg.is_empty()
    }

    /// Counters, histograms, and sketches as a [`MetricsReport`].
    pub fn report(&self) -> MetricsReport {
        self.agg.clone()
    }
}

impl Collector for RecordingCollector {
    #[inline]
    fn is_enabled(&self) -> bool {
        true
    }

    fn set_meta(&mut self, meta: SimMeta) {
        self.meta = meta;
    }

    fn record(&mut self, ts: Cycles, event: Event) {
        self.events.push(TimedEvent { ts, event });
        self.agg.events += 1;
    }

    #[inline]
    fn add(&mut self, counter: Counter, delta: u64) {
        self.agg.add(counter, delta);
    }

    #[inline]
    fn sample(&mut self, metric: Metric, value: f64) {
        self.agg.sample(metric, value);
    }

    #[inline]
    fn observe(&mut self, metric: Metric, cycles: u64) {
        self.agg.observe(metric, cycles);
    }
}

/// An aggregates-only collector for flat-memory runs: `is_enabled()` is
/// `true` so engines *do* construct payloads and fire hooks, but
/// [`record`](Collector::record) only counts the event and drops the
/// payload — no per-event storage. Counters, histograms, and quantile
/// sketches accumulate exactly as in [`RecordingCollector`], so a
/// 10^6-request fabric run can report p50/p99/SLA with O(buckets)
/// memory: one boxed sketch per observed metric, nothing else on the
/// heap.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatsCollector {
    meta: SimMeta,
    agg: MetricsReport,
}

impl StatsCollector {
    /// An empty aggregates-only collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// The announced run metadata.
    pub fn meta(&self) -> SimMeta {
        self.meta
    }

    /// Events seen (and dropped) so far.
    pub fn events(&self) -> u64 {
        self.agg.events
    }

    /// The value of one counter (0 when never incremented).
    pub fn counter(&self, c: Counter) -> u64 {
        self.agg.counter(c)
    }

    /// The sketch for one metric, if any samples were observed.
    pub fn sketch(&self, m: Metric) -> Option<&CycleSketch> {
        self.agg.sketch(m)
    }

    /// Counters, histograms, and sketches as a [`MetricsReport`].
    pub fn report(&self) -> MetricsReport {
        self.agg.clone()
    }
}

impl Collector for StatsCollector {
    #[inline]
    fn is_enabled(&self) -> bool {
        true
    }

    fn set_meta(&mut self, meta: SimMeta) {
        self.meta = meta;
    }

    #[inline]
    fn record(&mut self, _ts: Cycles, _event: Event) {
        self.agg.events += 1;
    }

    #[inline]
    fn add(&mut self, counter: Counter, delta: u64) {
        self.agg.add(counter, delta);
    }

    #[inline]
    fn sample(&mut self, metric: Metric, value: f64) {
        self.agg.sample(metric, value);
    }

    #[inline]
    fn observe(&mut self, metric: Metric, cycles: u64) {
        self.agg.observe(metric, cycles);
    }
}

/// Forwarding impl so engines can hand a borrowed collector down to
/// helpers without re-borrow gymnastics.
impl<C: Collector> Collector for &mut C {
    #[inline(always)]
    fn is_enabled(&self) -> bool {
        (**self).is_enabled()
    }

    #[inline(always)]
    fn set_meta(&mut self, meta: SimMeta) {
        (**self).set_meta(meta);
    }

    #[inline(always)]
    fn record(&mut self, ts: Cycles, event: Event) {
        (**self).record(ts, event);
    }

    #[inline(always)]
    fn add(&mut self, counter: Counter, delta: u64) {
        (**self).add(counter, delta);
    }

    #[inline(always)]
    fn sample(&mut self, metric: Metric, value: f64) {
        (**self).sample(metric, value);
    }

    #[inline(always)]
    fn observe(&mut self, metric: Metric, cycles: u64) {
        (**self).observe(metric, cycles);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use planaria_model::DnnId;

    #[test]
    fn null_collector_is_disabled_and_stateless() {
        let mut c = NullCollector;
        assert!(!c.is_enabled());
        c.set_meta(SimMeta {
            freq_hz: 1e9,
            total_subarrays: 16,
        });
        c.record(
            Cycles::new(1),
            Event::Arrival {
                tenant: 0,
                dnn: DnnId::ResNet50,
            },
        );
        c.add(Counter::Arrivals, 1);
        c.sample(Metric::QueueDepth, 1.0);
        // A unit struct has no state to mutate; the calls must compile
        // away. (The engine-level bit-identity proof lives in
        // `planaria-core`'s tests.)
        assert_eq!(c, NullCollector);
    }

    #[test]
    fn recording_collector_accumulates_deterministically() {
        let mut c = RecordingCollector::new();
        assert!(c.is_enabled());
        assert!(c.is_empty());
        c.set_meta(SimMeta {
            freq_hz: 700e6,
            total_subarrays: 16,
        });
        c.add(Counter::Arrivals, 1);
        c.add(Counter::Arrivals, 2);
        c.sample(Metric::QueueDepth, 3.0);
        c.record(
            Cycles::new(5),
            Event::Completion {
                tenant: 7,
                latency: Cycles::new(5),
            },
        );
        assert_eq!(c.counter(Counter::Arrivals), 3);
        assert_eq!(c.counter(Counter::Completions), 0);
        assert_eq!(c.len(), 1);
        assert_eq!(c.meta().total_subarrays, 16);
        let report = c.report();
        assert_eq!(report.events, 1);
        assert_eq!(report.counter(Counter::Arrivals), 3);
        // lint: the sample above guarantees the histogram exists
        assert_eq!(report.histogram(Metric::QueueDepth).unwrap().count, 1);
    }

    #[test]
    fn borrowed_collectors_forward() {
        let mut c = RecordingCollector::new();
        {
            let fwd = &mut c;
            assert!(fwd.is_enabled());
            fwd.add(Counter::Completions, 4);
            fwd.observe(Metric::LatencyCycles, 120);
        }
        assert_eq!(c.counter(Counter::Completions), 4);
        assert_eq!(
            c.sketch(Metric::LatencyCycles).map(|s| s.count()),
            Some(1),
            "observe must forward through &mut C"
        );
    }

    #[test]
    fn stats_collector_aggregates_without_storing_events() {
        let mut c = StatsCollector::new();
        assert!(c.is_enabled());
        c.set_meta(SimMeta {
            freq_hz: 700e6,
            total_subarrays: 16,
        });
        for i in 0..1000u64 {
            c.record(
                Cycles::new(i),
                Event::Completion {
                    tenant: i,
                    latency: Cycles::new(i),
                },
            );
            c.observe(Metric::LatencyCycles, i);
        }
        c.add(Counter::Completions, 1000);
        c.sample(Metric::QueueDepth, 2.0);
        assert_eq!(c.events(), 1000, "events are counted, not stored");
        assert_eq!(c.counter(Counter::Completions), 1000);
        let r = c.report();
        assert_eq!(r.events, 1000);
        let s = r.sketch(Metric::LatencyCycles).expect("latency sketch");
        assert_eq!(s.count(), 1000);
        assert_eq!(s.max(), Some(999));
        // Same observations through a RecordingCollector produce the
        // identical sketch — the aggregates path drops only the events.
        let mut rec = RecordingCollector::new();
        for i in 0..1000u64 {
            rec.observe(Metric::LatencyCycles, i);
        }
        assert_eq!(
            rec.sketch(Metric::LatencyCycles),
            r.sketch(Metric::LatencyCycles)
        );
    }
}
