//! The cluster observability plane's end-to-end contracts:
//!
//! 1. **Bit-identity** — threading collectors through the fabric changes
//!    nothing: the recorded run's `SimResult` digests equal to the plain
//!    run, at `PLANARIA_JOBS=1` and `=4` alike.
//! 2. **Trace validity** — the merged multi-process Chrome trace (one
//!    process per node, nested pod-energy counter tracks) passes the
//!    in-repo structural validator.
//! 3. **Sketch accuracy** — the streaming latency sketch's p99 matches
//!    the materialized nearest-rank oracle within the documented
//!    `≤ 1/32` relative bucket bound.
//! 4. **Flat-path fidelity** — `Cluster::run_stats` (no completion
//!    vector) reports the same counts, QoS satisfaction, and sketch as
//!    the materialized run.
//!
//! Everything lives in one `#[test]` because `PLANARIA_JOBS` is process
//! state: a single test function serializes the env mutations.

use planaria_arch::AcceleratorConfig;
use planaria_core::{Cluster, DispatchPolicy, FabricTuning, PlanariaEngine};
use planaria_parallel::JOBS_ENV;
use planaria_sim::SimClock;
use planaria_telemetry::{cluster_chrome_trace, validate_chrome_trace, Counter, Metric};
use planaria_workload::{QosLevel, Request, Scenario, TraceConfig};

/// Runs `f` with `PLANARIA_JOBS` pinned to `jobs`.
fn with_jobs<R>(jobs: &str, f: impl FnOnce() -> R) -> R {
    std::env::set_var(JOBS_ENV, jobs);
    let r = f();
    std::env::remove_var(JOBS_ENV);
    r
}

#[test]
fn observability_plane_is_transparent_valid_and_accurate() {
    let engine = PlanariaEngine::new(AcceleratorConfig::planaria());
    let freq_hz = engine.library().config().freq_hz;
    let trace: Vec<Request> =
        TraceConfig::new(Scenario::C, QosLevel::Medium, 300.0, 60, 0xab5).generate();
    let nodes = 3;
    let policy = DispatchPolicy::JoinShortestQueue;
    let tuning = FabricTuning::default();

    // 1. Bit-identity: plain vs recorded, jobs 1 vs 4.
    let cluster = || Cluster::uniform(&engine, nodes, policy);
    let plain_digest = with_jobs("1", || {
        cluster().run(trace.iter().copied(), &tuning).0.digest()
    });
    for jobs in ["1", "4"] {
        let (r, _, _) = with_jobs(jobs, || {
            cluster().run_recorded(trace.iter().copied(), &tuning)
        });
        assert_eq!(
            r.digest(),
            plain_digest,
            "recorded fabric digest differs at jobs={jobs}"
        );
    }

    // 2. Trace validity: node processes and pod counter tracks present.
    let (result, stats, rec) = with_jobs("2", || {
        cluster().run_recorded(trace.iter().copied(), &tuning)
    });
    assert!(stats.rounds > 0);
    let json = cluster_chrome_trace(&rec);
    let tstats = validate_chrome_trace(&json).expect("merged cluster trace validates");
    // Fabric process + one per node.
    assert_eq!(tstats.processes as usize, nodes + 1);
    assert!(tstats.counters > 0, "energy/load counter tracks missing");
    assert!(
        json.contains("pod 00 energy_pj"),
        "pod energy track missing"
    );

    // 3. Sketch p99 vs materialized nearest-rank oracle.
    let merged = rec.merged_report();
    let sketch = merged
        .sketch(Metric::LatencyCycles)
        .expect("latency sketch recorded");
    assert_eq!(sketch.count(), trace.len() as u64);
    let clock = SimClock::new(trace[0].arrival, freq_hz);
    let mut lats: Vec<u64> = result
        .completions
        .iter()
        .map(|c| {
            clock
                .cycles_from_seconds(c.finish)
                .saturating_sub(clock.cycles_from_seconds(c.request.arrival))
                .get()
        })
        .collect();
    lats.sort_unstable();
    let rank = (lats.len() * 99).div_ceil(100).clamp(1, lats.len());
    let truth = lats[rank - 1];
    let got = sketch.value_at_ratio(99, 100).expect("non-empty sketch");
    // ±2 cycles absorbs the seconds→cycles re-quantization of finish
    // timestamps; the 1/32 term is the sketch's documented bucket bound.
    assert!(got + 2 >= truth, "sketch p99 {got} under oracle {truth}");
    assert!(
        got <= truth + truth / 32 + 2,
        "sketch p99 {got} above bound for oracle {truth}"
    );

    // 4. Flat path: same counts/QoS/sketch without completion vectors.
    let (cs, _) = with_jobs("2", || cluster().run_stats(trace.iter().copied(), &tuning));
    assert_eq!(cs.completed, trace.len() as u64);
    assert!((cs.makespan - result.makespan).abs() < 1e-12);
    let qos_met = result.completions.iter().filter(|c| c.met_qos()).count() as u64;
    // The kernel judges QoS in integer cycles, the oracle in float
    // seconds; at the boundary they may disagree by a request.
    let stats_qos = cs.metrics.counter(Counter::QosMet);
    assert!(
        stats_qos.abs_diff(qos_met) <= 1,
        "flat-path QoS count {stats_qos} vs materialized {qos_met}"
    );
    let flat_sketch = cs
        .metrics
        .sketch(Metric::LatencyCycles)
        .expect("flat-path latency sketch");
    assert_eq!(flat_sketch.count(), sketch.count());
    assert_eq!(
        flat_sketch.value_at_ratio(99, 100),
        sketch.value_at_ratio(99, 100),
        "flat-path sketch differs from recorded sketch"
    );
}
