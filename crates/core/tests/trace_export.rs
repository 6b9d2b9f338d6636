//! Golden round-trip and bit-identity tests for the telemetry path.
//!
//! 1. A contended multi-tenant run must export a Chrome trace that the
//!    in-repo validator accepts, and that parses back with the expected
//!    structure (multiple tenant processes, nested/disjoint spans,
//!    globally monotonic timestamps — the validator enforces the last
//!    two).
//! 2. The collector hooks must be invisible to the simulation:
//!    `run` (NullCollector) and `run_with_collector(RecordingCollector)`
//!    must produce bit-identical results.
//! 3. The `planaria-cli simulate --timeline 1` report (occupancy strip,
//!    reconfiguration count, mean occupancy) rendered from a
//!    `RecordingCollector` is pinned byte-for-byte.

use planaria_arch::AcceleratorConfig;
use planaria_core::PlanariaEngine;
use planaria_prema::PremaEngine;
use planaria_telemetry::{
    chrome_trace, mean_occupancy, occupancy_tsv, reconfigurations, render_occupancy,
    validate_chrome_trace, Event, RecordingCollector,
};
use planaria_workload::{QosLevel, Scenario, SimResult, TraceConfig};

/// A contended trace: all nine models arriving faster than the
/// 16-subarray chip can absorb, forcing queueing and reallocation.
fn contended_workload() -> Vec<planaria_workload::Request> {
    TraceConfig::new(Scenario::C, QosLevel::Medium, 2000.0, 40, 42).generate()
}

/// Collapses a result into exact bit patterns (f64 `to_bits`), so "equal"
/// means *identical*, not merely within float tolerance.
fn bits(r: &SimResult) -> Vec<u64> {
    let mut v = vec![r.makespan.to_bits(), r.total_energy.as_pj().to_bits()];
    for c in &r.completions {
        v.push(c.request.id);
        v.push(c.request.arrival.to_bits());
        v.push(c.finish.to_bits());
        v.push(c.energy.as_pj().to_bits());
    }
    v
}

#[test]
fn contended_run_exports_a_valid_chrome_trace() {
    let engine = PlanariaEngine::new(AcceleratorConfig::planaria());
    let workload = contended_workload();
    let mut rec = RecordingCollector::new();
    engine.run_with_collector(&workload, &mut rec);

    let json = chrome_trace(&rec);
    let stats = validate_chrome_trace(&json).expect("exported trace must validate");
    assert!(stats.complete > 0, "expected exec/queue spans");
    assert!(stats.instants > 0, "expected arrival/completion instants");
    assert!(stats.counters > 0, "expected occupancy counters");
    assert!(
        stats.processes > 2,
        "expected the chip plus multiple tenant processes, got {}",
        stats.processes
    );
    // Structural markers of the track layout.
    for marker in [
        "\"process_name\"",
        "subarray 00",
        "lifecycle",
        "occupancy",
        "queued",
        "arrival",
        "complete",
    ] {
        assert!(json.contains(marker), "trace JSON missing {marker:?}");
    }

    // The recording itself must show contention: at least one queue wait
    // with nonzero duration, and at least one allocation shrink/regrow.
    let events: Vec<&Event> = rec.events().iter().map(|t| &t.event).collect();
    assert!(
        events
            .iter()
            .any(|e| matches!(e, Event::QueueWait { duration, .. } if !duration.is_zero())),
        "expected a nonzero queue wait under contention"
    );
    assert!(
        events
            .iter()
            .any(|e| matches!(e, Event::Allocation { from, to, .. } if *from > 0 && *to > 0 && from != to)),
        "expected a mid-flight reallocation under contention"
    );

    // The occupancy timeline covers the same run.
    let tsv = occupancy_tsv(&rec);
    assert!(tsv.lines().count() > 2, "expected occupancy samples");
}

#[test]
fn prema_contended_run_exports_a_valid_chrome_trace() {
    let engine = PremaEngine::new_default();
    let workload = contended_workload();
    let mut rec = RecordingCollector::new();
    engine.run_with_collector(&workload, &mut rec);
    let stats = validate_chrome_trace(&chrome_trace(&rec)).expect("PREMA trace must validate too");
    assert!(stats.complete > 0);
    assert!(stats.processes > 2);
    // The temporal baseline preempts under contention.
    assert!(
        rec.events()
            .iter()
            .any(|t| matches!(t.event, Event::Preemption { .. })),
        "expected PREMA preemptions under contention"
    );
}

#[test]
fn planaria_results_are_bit_identical_across_collectors() {
    let engine = PlanariaEngine::new(AcceleratorConfig::planaria());
    let workload = contended_workload();

    let plain = engine.run(&workload);
    let mut rec = RecordingCollector::new();
    let recorded = engine.run_with_collector(&workload, &mut rec);

    assert_eq!(
        bits(&plain),
        bits(&recorded),
        "RecordingCollector changed results"
    );
    assert!(rec.len() > 0);
}

#[test]
fn prema_results_are_bit_identical_across_collectors() {
    let engine = PremaEngine::new_default();
    let workload = contended_workload();
    let plain = engine.run(&workload);
    let mut rec = RecordingCollector::new();
    let recorded = engine.run_with_collector(&workload, &mut rec);
    assert_eq!(
        bits(&plain),
        bits(&recorded),
        "RecordingCollector changed results"
    );
    assert!(rec.len() > 0);
}

#[test]
fn chrome_export_is_byte_deterministic_across_runs() {
    let engine = PlanariaEngine::new(AcceleratorConfig::planaria());
    let workload = contended_workload();
    let export = |engine: &PlanariaEngine| {
        let mut rec = RecordingCollector::new();
        engine.run_with_collector(&workload, &mut rec);
        (chrome_trace(&rec), occupancy_tsv(&rec))
    };
    let (j1, t1) = export(&engine);
    let (j2, t2) = export(&engine);
    assert_eq!(j1, j2, "Chrome export must be byte-deterministic");
    assert_eq!(t1, t2, "occupancy TSV must be byte-deterministic");
}

/// The two report lines `planaria-cli simulate --timeline 1` prints for
/// Workload-C QoS-M, 200 requests, seed 1 at `lambda` q/s.
fn timeline_report(lambda: f64) -> String {
    let engine = PlanariaEngine::new(AcceleratorConfig::planaria());
    let trace = TraceConfig::new(Scenario::C, QosLevel::Medium, lambda, 200, 1).generate();
    let mut rec = RecordingCollector::new();
    engine.run_with_collector(&trace, &mut rec);
    format!(
        "{}\nreconfigurations: {}, mean occupancy: {:.0}%",
        render_occupancy(&rec, 64),
        reconfigurations(&rec),
        mean_occupancy(&rec) * 100.0
    )
}

#[test]
fn simulate_timeline_report_is_pinned() {
    // The default `simulate --timeline 1` run (60 q/s) and a contended
    // one (200 q/s).
    assert_eq!(
        timeline_report(60.0),
        "occupancy [0.0000s..3.2923s] \
         0000000000090000000000000000000900900009000000000000000000000000\n\
         reconfigurations: 56, mean occupancy: 10%"
    );
    assert_eq!(
        timeline_report(200.0),
        "occupancy [0.0000s..0.9879s] \
         9090000009090000900900000009090990900009890000000000000000090000\n\
         reconfigurations: 178, mean occupancy: 32%"
    );
}
