//! Extension — fabric-scale geometry design-space exploration: chip
//! shapes and fleet compositions as points on a Pareto surface.
//!
//! Not a paper figure: the paper fixes one chip (128×128 PEs, 16
//! subarrays in 4 pods) and explores *allocation* within it; this
//! extension treats the geometry itself as the free variable. Two
//! sweeps share one table:
//!
//! 1. **Single-chip shapes** — every [`named_sweep`] point (granule
//!    16/32/64, 1–8 fission pods, halved/doubled DRAM bandwidth, the
//!    monolithic strawman) runs the same contended trace on a one-node
//!    fabric.
//! 2. **Fleet compositions** — equal-PE-budget four-node fleets:
//!    homogeneous baselines (4× fine latency chips, 4× paper chips,
//!    4× coarse throughput chips) against heterogeneous big.LITTLE
//!    mixes, all under [`DispatchPolicy::GeometryAware`] routing,
//!    across two traffic mixes.
//!
//! Every row reports throughput (kernel events/s of simulated time,
//! deterministic), the p99 latency tail, SLA satisfaction, energy per
//! request, the chip-area proxy from [`AreaPowerBreakdown`], and the
//! headline Pareto ratio `sla_per_area`. Two outcomes are the point of
//! the table. Positive: at the mixed-QoS saturation knee the
//! latency+paper hybrid (`fleet-het2f2m`) beats *every* homogeneous
//! fleet of the same total PE budget on SLA-met-per-unit-area —
//! geometry-aware routing keeps tight-deadline requests on the
//! fine-granule pair while the paper chips absorb the relaxed bulk, so
//! the fleet holds near-fine SLA at below-fine area. Negative: the
//! textbook fine+coarse mix (`fleet-het2f2c`) *loses* — a
//! four-tenant-slot coarse chip collapses under the light-model share
//! of the traffic long before its area saving pays back, which is
//! itself a design-space result the single-chip rows corroborate.
//!
//! Traces stream through the flat-memory stats path
//! ([`Cluster::run_stats`](planaria_core::Cluster::run_stats)):
//! completions are never materialized, and all percentiles come from
//! streaming sketches.

use planaria_arch::{named_sweep, AcceleratorConfig};
use planaria_bench::ResultTable;
use planaria_core::{DispatchPolicy, FabricTuning, GeoFleet};
use planaria_energy::AreaPowerBreakdown;
use planaria_telemetry::{Counter, Metric};
use planaria_workload::{LatencyStats, QosLevel, Scenario, TraceConfig};

/// Arrival rate for the one-node shape sweep: near the paper chip's
/// saturation point, so shape differences show up in the SLA column
/// rather than hiding under idle headroom.
const SINGLE_LAMBDA: f64 = 250.0;

/// Requests per sweep point: 2×10^5 by default (the table has 18 rows;
/// a full run stays in minutes), overridable with
/// `PLANARIA_EXT_REQUESTS`; `PLANARIA_BENCH_SMOKE=1` drops to 2 000 for
/// CI smoke runs.
fn requests() -> usize {
    if let Some(n) = std::env::var("PLANARIA_EXT_REQUESTS")
        .ok()
        .and_then(|v| v.parse().ok())
    {
        return n;
    }
    let smoke = std::env::var("PLANARIA_BENCH_SMOKE").is_ok_and(|v| v == "1");
    if smoke {
        2_000
    } else {
        200_000
    }
}

/// Summed area proxy across a fleet's nodes (relative units calibrated
/// to Fig. 19).
fn fleet_area(fleet: &GeoFleet) -> f64 {
    fleet
        .configs()
        .iter()
        .map(|cfg| AreaPowerBreakdown::for_config(cfg).total_area())
        .sum()
}

/// Runs one sweep point and appends its Pareto row.
fn run_point(
    table: &mut ResultTable,
    name: &str,
    traffic: &str,
    fleet: &GeoFleet,
    scenario: Scenario,
    qos: QosLevel,
    lambda: f64,
    n: usize,
) {
    let cfg = TraceConfig::new(scenario, qos, lambda, n, 0x9e0);
    let start = std::time::Instant::now();
    let (cs, stats) = fleet
        .cluster(DispatchPolicy::GeometryAware)
        .run_stats(cfg.stream(), &FabricTuning::default());
    eprintln!("[{name}/{traffic}: {:.1}s]", start.elapsed().as_secs_f64());
    assert_eq!(cs.completed as usize, n, "{name} lost requests");
    let freq_hz = fleet.configs()[0].freq_hz;
    let lat = cs
        .metrics
        .sketch(Metric::LatencyCycles)
        .and_then(|s| LatencyStats::from_sketch(s, freq_hz))
        .expect("latency sketch populated");
    let sla_rate = cs.metrics.counter(Counter::QosMet) as f64 / cs.completed as f64;
    let area = fleet_area(fleet);
    let events_per_s = stats.events as f64 / cs.makespan;
    let mj_per_req = cs.total_energy.to_joules() * 1e3 / cs.completed as f64;
    table.row(vec![
        name.to_string(),
        traffic.to_string(),
        fleet.len().to_string(),
        fleet.total_pes().to_string(),
        format!("{area:.2}"),
        format!("{events_per_s:.0}"),
        format!("{:.3}", lat.p99 * 1e3),
        format!("{sla_rate:.4}"),
        format!("{mj_per_req:.3}"),
        format!("{:.5}", sla_rate / area),
    ]);
}

fn main() {
    let n = requests();
    let mut table = ResultTable::new(
        format!("Ext: geometry design space, {n} streamed requests per point"),
        &[
            "geometry",
            "traffic",
            "nodes",
            "pes",
            "area",
            "events_per_s",
            "p99_ms",
            "sla_rate",
            "mj_per_req",
            "sla_per_area",
        ],
    );

    // Sweep 1: single-chip shapes under one contended trace.
    for point in named_sweep() {
        let fleet = GeoFleet::new(&[point.cfg]).expect("named sweep points are valid");
        run_point(
            &mut table,
            point.name,
            "mixed",
            &fleet,
            Scenario::C,
            QosLevel::Medium,
            SINGLE_LAMBDA,
            n,
        );
    }

    // Sweep 2: equal-budget four-node fleets (4 × 16 384 PEs each).
    let fine = AcceleratorConfig::latency_tuned();
    let mid = AcceleratorConfig::planaria();
    let coarse = AcceleratorConfig::throughput_tuned();
    let fleets: [(&str, Vec<AcceleratorConfig>); 6] = [
        ("fleet-fine4", vec![fine; 4]),
        ("fleet-mid4", vec![mid; 4]),
        ("fleet-coarse4", vec![coarse; 4]),
        ("fleet-het2f2m", vec![fine, fine, mid, mid]),
        ("fleet-het2f2c", vec![fine, fine, coarse, coarse]),
        ("fleet-het2f1m1c", vec![fine, fine, mid, coarse]),
    ];
    // Two traffic mixes: "mixed" (QoS-M at the fleet saturation knee,
    // where deadline pressure splits by model weight) and "tight"
    // (QoS-H, every deadline 16× harder at a rate the fleets can hold).
    let mixes: [(&str, Scenario, QosLevel, f64); 2] = [
        ("mixed", Scenario::C, QosLevel::Medium, 2_450.0),
        ("tight", Scenario::C, QosLevel::Hard, 1_500.0),
    ];
    for (traffic, scenario, qos, lambda) in mixes {
        for (name, cfgs) in &fleets {
            let fleet = GeoFleet::new(cfgs).expect("fleet geometries are valid");
            run_point(&mut table, name, traffic, &fleet, scenario, qos, lambda, n);
        }
    }
    table.emit("ext_geometry");
}
