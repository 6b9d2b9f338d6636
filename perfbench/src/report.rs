//! Metric definitions, summary statistics and output formatting.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// One metric the benchmark reports.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// End-to-end metrics: the share of the baseline median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
    /// Per-layer metrics: which end-to-end metric this layer should move,
    /// on which workload.
    pub moves: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        moves: "",
    }
}

const fn layer(name: &'static str, unit: &'static str, moves: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "lower",
        bound: None,
        moves,
    }
}

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("requests_per_s", "req/s", "higher", 0.25),
    e2e("peak_heap_mb", "MB", "lower", 0.1),
    e2e("run_p50_ms", "ms", "lower", 0.25),
    e2e("run_p99_ms", "ms", "lower", 0.25),
];

const CHIP: &str = "requests_per_s on chip-bursty";
const FLEET: &str = "requests_per_s on fleet-stream";
const SWEEP: &str = "run_p50_ms and run_p99_ms on paper-sweep";

/// Per-layer metrics, printed by every traced run. Layers a workload
/// never enters read 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    layer(
        "core.reschedule_calls",
        "count",
        "requests_per_s on chip-bursty; run_p50_ms on paper-sweep",
    ),
    layer(
        "core.reschedule_s",
        "s",
        "requests_per_s on chip-bursty (most of its wall time); run_p50_ms on paper-sweep",
    ),
    layer("core.reschedule_p50_ns", "ns", CHIP),
    layer("core.reschedule_p99_ns", "ns", CHIP),
    layer(
        "core.tenants_per_call",
        "tenants",
        "requests_per_s on chip-bursty; about zero per-tenant work on fleet-stream",
    ),
    layer("core.route_calls", "count", FLEET),
    layer("core.route_s", "s", FLEET),
    layer("prema.reschedule_calls", "count", SWEEP),
    layer("prema.reschedule_s", "s", SWEEP),
    layer("prema.reschedule_p99_ns", "ns", SWEEP),
    layer(
        "sim.events",
        "count",
        "requests_per_s on chip-bursty and fleet-stream; run_p50_ms on paper-sweep",
    ),
    layer(
        "sim.kernel_self_s",
        "s",
        "requests_per_s on chip-bursty and fleet-stream; run_p50_ms on paper-sweep",
    ),
    layer(
        "sim.kernel_ns_per_event",
        "ns",
        "requests_per_s on chip-bursty and fleet-stream; run_p50_ms on paper-sweep",
    ),
    layer("sim.fabric_rounds", "count", FLEET),
    layer("sim.fabric_round_s", "s", FLEET),
    layer("sim.fabric_serial_s", "s", FLEET),
    layer("sim.fabric_imbalance", "ratio", FLEET),
    layer("telemetry.hook_calls", "count", FLEET),
    layer("telemetry.hook_s", "s", FLEET),
    layer("workload.trace_pulls", "count", FLEET),
    layer("workload.trace_s", "s", FLEET),
    layer(
        "workload.trace_generate_s",
        "s",
        "run_p50_ms on paper-sweep",
    ),
    layer(
        "workload.sink_records",
        "count",
        "requests_per_s and peak_heap_mb on chip-bursty",
    ),
    layer(
        "workload.sink_record_s",
        "s",
        "requests_per_s and peak_heap_mb on chip-bursty",
    ),
    layer(
        "workload.spill_bytes",
        "bytes",
        "requests_per_s and peak_heap_mb on chip-bursty",
    ),
    layer(
        "workload.spill_replay_s",
        "s",
        "requests_per_s and peak_heap_mb on chip-bursty",
    ),
    layer("compiler.library_build_s", "s", "setup_s on every workload"),
    layer(
        "trace_overhead_frac",
        "frac",
        "the traced run's cost over the untraced run on the same workload",
    ),
];

/// Per-layer metric values of one traced repetition, keyed by name.
pub type Layers = BTreeMap<&'static str, f64>;

/// Every per-layer metric at 0.
pub fn zero_layers() -> Layers {
    PER_LAYER.iter().map(|m| (m.name, 0.0)).collect()
}

/// Median (mean of the middle pair for even counts); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` (0–100); 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// The commit the checkout was built from: `.git/HEAD` resolved through
/// loose or packed refs, or `"unknown"` outside a git checkout.
pub fn commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = std::fs::read_to_string(git.join(name)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                l.strip_suffix(name)
                    .map(|id| id.trim().to_string())
                    .filter(|id| !id.is_empty())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// A number as JSON (non-finite values become `null`).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// `{"name": {"value": v, "unit": "u"}, ...}` in `defs` order.
pub fn json_metrics(defs: &[MetricDef], values: &BTreeMap<&'static str, f64>) -> String {
    let mut s = String::from("{");
    for (i, m) in defs.iter().enumerate() {
        let v = values.get(m.name).copied().unwrap_or(0.0);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_num(v),
            m.unit
        );
    }
    s.push('}');
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 50.0), 2.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 99.0), 4.0);
        assert_eq!(percentile(&[], 99.0), 0.0);
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<_> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
