//! The flat [`MetricsReport`] aggregate against a `BTreeMap` model.
//!
//! The model is the aggregate as it stood before the flat layout: three
//! enum-keyed `BTreeMap`s updated through `entry().or_default()` and
//! rendered by iterating the maps. SplitMix64 sequences of `add`
//! (including zero deltas, which still create the key), `sample` (NaN,
//! negative and huge values included), `observe` and `record` drive both
//! the model and the real collectors; some keys are never touched, and
//! reports are merged in both directions. Renderings must be
//! byte-identical and every accessor must agree, bit for bit.

use planaria_model::units::Cycles;
use planaria_model::{DnnId, SplitMix64};
use planaria_telemetry::{
    Collector, Counter, CycleSketch, Event, Histogram, Metric, MetricsReport, RecordingCollector,
    StatsCollector,
};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The pre-flat aggregate, kept verbatim as the reference.
#[derive(Debug, Clone, Default)]
struct Model {
    counters: BTreeMap<Counter, u64>,
    histograms: BTreeMap<Metric, Histogram>,
    sketches: BTreeMap<Metric, CycleSketch>,
    events: u64,
}

impl Model {
    fn add(&mut self, counter: Counter, delta: u64) {
        *self.counters.entry(counter).or_insert(0) += delta;
    }

    fn sample(&mut self, metric: Metric, value: f64) {
        self.histograms.entry(metric).or_default().record(value);
    }

    fn observe(&mut self, metric: Metric, cycles: u64) {
        self.sketches.entry(metric).or_default().record(cycles);
    }

    fn counter(&self, c: Counter) -> u64 {
        self.counters.get(&c).copied().unwrap_or(0)
    }

    fn merge(&mut self, other: &Self) {
        for (c, v) in &other.counters {
            *self.counters.entry(*c).or_insert(0) += v;
        }
        for (m, h) in &other.histograms {
            self.histograms.entry(*m).or_default().merge(h);
        }
        for (m, s) in &other.sketches {
            self.sketches.entry(*m).or_default().merge(s);
        }
        self.events += other.events;
    }

    fn ratio(&self, num: Counter, other: Counter) -> Option<f64> {
        let (a, b) = (self.counter(num), self.counter(other));
        (a + b != 0).then(|| a as f64 / (a + b) as f64)
    }

    fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== telemetry report ({} events) ==", self.events);
        if !self.counters.is_empty() {
            let _ = writeln!(out, "counters:");
            for (c, v) in &self.counters {
                let _ = writeln!(out, "  {:<22} {v}", c.name());
            }
        }
        if let Some(rate) = self.ratio(Counter::MemoHits, Counter::MemoMisses) {
            let _ = writeln!(out, "  {:<22} {:.1}%", "memo_hit_rate", rate * 100.0);
        }
        if let Some(share) = self.ratio(Counter::DramBoundCycles, Counter::ComputeBoundCycles) {
            let _ = writeln!(out, "  {:<22} {:.1}%", "dram_bound_share", share * 100.0);
        }
        if !self.histograms.is_empty() {
            let _ = writeln!(out, "histograms (count / mean / min / max):");
            for (m, h) in &self.histograms {
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
        if !self.sketches.is_empty() {
            let _ = writeln!(out, "sketches (count / p50 / p99 / min / max, cycles):");
            for (m, s) in &self.sketches {
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

    fn render_json(&self) -> String {
        let mut out = String::from("{");
        let _ = write!(out, "\"events\":{}", self.events);
        out.push_str(",\"counters\":{");
        for (i, (c, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{v}", c.name());
        }
        out.push('}');
        if let Some(rate) = self.ratio(Counter::MemoHits, Counter::MemoMisses) {
            let _ = write!(out, ",\"memo_hit_rate\":{}", fmt_f64(rate));
        }
        if let Some(share) = self.ratio(Counter::DramBoundCycles, Counter::ComputeBoundCycles) {
            let _ = write!(out, ",\"dram_bound_share\":{}", fmt_f64(share));
        }
        out.push_str(",\"histograms\":{");
        for (i, (m, h)) in self.histograms.iter().enumerate() {
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
        for (i, (m, s)) in self.sketches.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
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

fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        String::from("0")
    }
}

/// A histogram's exact state, with floats as bits (a NaN sum must
/// compare equal to itself).
fn hist_bits(h: &Histogram) -> (u64, u64, u64, u64, Vec<u64>) {
    (
        h.count,
        h.sum.to_bits(),
        h.min.to_bits(),
        h.max.to_bits(),
        h.buckets.to_vec(),
    )
}

/// Asserts the flat report and the model agree on every rendering and
/// every accessor, including keys neither ever touched.
fn assert_agrees(flat: &MetricsReport, model: &Model, ctx: &str) {
    assert_eq!(flat.render_text(), model.render_text(), "{ctx}: text");
    assert_eq!(flat.render_json(), model.render_json(), "{ctx}: json");
    assert_eq!(flat.events, model.events, "{ctx}: events");
    for c in Counter::ALL {
        assert_eq!(flat.counter(c), model.counter(c), "{ctx}: {c:?}");
    }
    assert_eq!(
        flat.counters().collect::<Vec<_>>(),
        model
            .counters
            .iter()
            .map(|(&c, &v)| (c, v))
            .collect::<Vec<_>>(),
        "{ctx}: counter keys"
    );
    for m in Metric::ALL {
        assert_eq!(
            flat.histogram(m).map(hist_bits),
            model.histograms.get(&m).map(hist_bits),
            "{ctx}: histogram {m:?}"
        );
        assert_eq!(
            flat.sketch(m),
            model.sketches.get(&m),
            "{ctx}: sketch {m:?}"
        );
    }
    assert_eq!(
        flat.memo_hit_rate().map(f64::to_bits),
        model
            .ratio(Counter::MemoHits, Counter::MemoMisses)
            .map(f64::to_bits)
    );
}

/// A sample value: mostly ordinary, sometimes NaN, negative, zero,
/// fractional or huge.
fn value(rng: &mut SplitMix64) -> f64 {
    match rng.next_below(8) {
        0 => f64::NAN,
        1 => -(rng.next_f64() * 1e6),
        2 => 1e300 * (1.0 + rng.next_f64()),
        3 => 0.0,
        4 => rng.next_f64(),
        _ => rng.next_below(1 << 20) as f64,
    }
}

/// A cycle observation: small exact values, mid-range, or near `u64::MAX`.
fn cycles(rng: &mut SplitMix64) -> u64 {
    match rng.next_below(4) {
        0 => rng.next_below(64),
        1 => u64::MAX - rng.next_below(1 << 20),
        _ => rng.next_below(1 << 40),
    }
}

/// Drives a stats collector, a recording collector and the model through
/// one random sequence. Only the first `keys` counters and metrics are
/// ever touched, so the rest stay absent.
fn drive(
    rng: &mut SplitMix64,
    ops: usize,
    keys: usize,
) -> (StatsCollector, RecordingCollector, Model) {
    let (mut stats, mut rec, mut model) = (
        StatsCollector::new(),
        RecordingCollector::new(),
        Model::default(),
    );
    let counters = &Counter::ALL[..keys.min(Counter::ALL.len())];
    let metrics = &Metric::ALL[..keys.min(Metric::ALL.len())];
    for _ in 0..ops {
        match rng.next_below(4) {
            0 => {
                let c = counters[rng.next_below(counters.len() as u64) as usize];
                let delta = if rng.next_bool(0.3) {
                    0
                } else {
                    rng.next_below(1 << 32)
                };
                stats.add(c, delta);
                rec.add(c, delta);
                model.add(c, delta);
            }
            1 => {
                let m = metrics[rng.next_below(metrics.len() as u64) as usize];
                let v = value(rng);
                stats.sample(m, v);
                rec.sample(m, v);
                model.sample(m, v);
            }
            2 => {
                let m = metrics[rng.next_below(metrics.len() as u64) as usize];
                let v = cycles(rng);
                stats.observe(m, v);
                rec.observe(m, v);
                model.observe(m, v);
            }
            _ => {
                let event = Event::Arrival {
                    tenant: rng.next_u64(),
                    dnn: DnnId::ALL[0],
                };
                stats.record(Cycles::new(1), event.clone());
                rec.record(Cycles::new(1), event);
                model.events += 1;
            }
        }
    }
    (stats, rec, model)
}

#[test]
fn flat_aggregate_matches_the_btreemap_model() {
    let mut rng = SplitMix64::new(0xf1a7_a66e_9a7e_0001);
    for case in 0..200 {
        let ops = rng.next_below(120) as usize;
        let keys = rng.next_range(1, 20) as usize;
        let (stats, rec, model) = drive(&mut rng, ops, keys);
        let ctx = format!("case {case} ({ops} ops, {keys} keys)");
        assert_agrees(&stats.report(), &model, &format!("{ctx} stats"));
        assert_agrees(&rec.report(), &model, &format!("{ctx} recording"));
        assert_eq!(rec.len() as u64, model.events, "{ctx}");
        assert_eq!(
            rec.is_empty(),
            model.events == 0
                && model.counters.is_empty()
                && model.histograms.is_empty()
                && model.sketches.is_empty(),
            "{ctx}: emptiness"
        );

        // Merge both ways, and into an empty report.
        let ops = rng.next_below(120) as usize;
        let keys = rng.next_range(1, 20) as usize;
        let (other, _, other_model) = drive(&mut rng, ops, keys);
        let mut ab = stats.report();
        ab.merge(&other.report());
        let mut ab_model = model.clone();
        ab_model.merge(&other_model);
        assert_agrees(&ab, &ab_model, &format!("{ctx} merged"));
        let mut ba = other.report();
        ba.merge(&stats.report());
        let mut ba_model = other_model.clone();
        ba_model.merge(&model);
        assert_agrees(&ba, &ba_model, &format!("{ctx} merged reversed"));
        let mut empty = MetricsReport::default();
        empty.merge(&stats.report());
        let mut empty_model = Model::default();
        empty_model.merge(&model);
        assert_agrees(&empty, &empty_model, &format!("{ctx} merged into empty"));
    }
}
