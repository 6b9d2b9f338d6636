//! Geometry equivalence: chip shape is a runtime value, so the fabric
//! must be a faithful wrapper at every shape — a single-node fabric at
//! geometry G is bit-identical to the standalone engine at G, and a
//! heterogeneous fleet is byte-deterministic at any `PLANARIA_JOBS`.

use planaria_arch::AcceleratorConfig;
use planaria_core::{DispatchPolicy, FabricTuning, GeoFleet, PlanariaEngine};
use planaria_parallel::JOBS_ENV;
use planaria_workload::{QosLevel, Scenario, TraceConfig};

/// Runs `f` with `PLANARIA_JOBS` pinned to `jobs`.
fn with_jobs<R>(jobs: &str, f: impl FnOnce() -> R) -> R {
    std::env::set_var(JOBS_ENV, jobs);
    let r = f();
    std::env::remove_var(JOBS_ENV);
    r
}

#[test]
fn single_node_fabric_matches_standalone_engine_at_every_geometry() {
    let two_pods = AcceleratorConfig::builder()
        .pods(2)
        .crossbar_derate()
        .build()
        .expect("valid geometry");
    let fine_two_pods = AcceleratorConfig::builder()
        .subarray_dim(16)
        .pods(2)
        .crossbar_derate()
        .build()
        .expect("valid geometry");
    let shapes = [
        AcceleratorConfig::with_granularity(16),
        AcceleratorConfig::with_granularity(32),
        AcceleratorConfig::with_granularity(64),
        two_pods,
        fine_two_pods,
    ];
    for cfg in shapes {
        let trace = TraceConfig::new(Scenario::C, QosLevel::Medium, 120.0, 40, 3).generate();
        let direct = PlanariaEngine::new(cfg).run(&trace);
        let fleet = GeoFleet::new(&[cfg]).expect("valid single-node fleet");
        let (fabric, _) = fleet
            .cluster(DispatchPolicy::LeastWork)
            .run(trace.iter().copied(), &FabricTuning::default());
        assert_eq!(
            direct.digest(),
            fabric.digest(),
            "fabric diverges from engine at granule {} / {} pods",
            cfg.subarray_dim,
            cfg.num_pods()
        );
        assert_eq!(direct.total_energy, fabric.total_energy);
        assert_eq!(direct.makespan.to_bits(), fabric.makespan.to_bits());
    }
}

#[test]
fn heterogeneous_fleet_is_byte_deterministic_across_job_counts() {
    let fleet = GeoFleet::new(&[
        AcceleratorConfig::latency_tuned(),
        AcceleratorConfig::planaria(),
        AcceleratorConfig::throughput_tuned(),
        AcceleratorConfig::planaria(),
    ])
    .expect("valid fleet");
    let trace = TraceConfig::new(Scenario::C, QosLevel::Medium, 400.0, 80, 11).generate();
    let run = |jobs: &str| {
        with_jobs(jobs, || {
            let (r, stats) = fleet
                .cluster(DispatchPolicy::GeometryAware)
                .run(trace.iter().copied(), &FabricTuning::default());
            (
                r.digest(),
                r.total_energy,
                r.makespan.to_bits(),
                stats.events,
            )
        })
    };
    let serial = run("1");
    assert_eq!(
        serial,
        run("2"),
        "hetero fleet differs between jobs=1 and jobs=2"
    );

    // The flat-memory stats path must agree with itself across job
    // counts too (it is what ext_geometry sweeps at scale).
    let stats_run = |jobs: &str| {
        with_jobs(jobs, || {
            let (cs, _) = fleet
                .cluster(DispatchPolicy::GeometryAware)
                .run_stats(trace.iter().copied(), &FabricTuning::default());
            (cs.completed, cs.total_energy, cs.makespan.to_bits())
        })
    };
    assert_eq!(
        stats_run("1"),
        stats_run("2"),
        "hetero stats path differs between jobs=1 and jobs=2"
    );
}
