//! Geometry equivalence: chip shape is a runtime value, so the fabric
//! must be a faithful wrapper at every shape — a single-node fabric at
//! geometry G is bit-identical to the standalone engine at G, and a
//! heterogeneous fleet is byte-deterministic at any `PLANARIA_JOBS`.

use planaria_arch::AcceleratorConfig;
use planaria_core::{DispatchPolicy, FabricTuning, GeoFleet, PlanariaEngine};
use planaria_parallel::JOBS_ENV;
use planaria_telemetry::Event;
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

/// FNV-1a over little-endian words (the same mixing as the result digest).
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for byte in w.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[test]
fn pod_energy_attribution_is_pinned_across_pod_shapes() {
    // One pod per subarray on a chip wider than a u64 mask (80
    // subarrays), next to the paper chip's four-subarray pods: the kernel's
    // per-pod energy attribution is pinned bit for bit, event by event.
    let wide = AcceleratorConfig::builder()
        .pe_array(160, 128)
        .subarray_dim(16)
        .subarrays_per_pod(1)
        .build()
        .expect("valid geometry");
    assert_eq!((wide.num_subarrays(), wide.num_pods()), (80, 80));
    let fleet = GeoFleet::new(&[AcceleratorConfig::planaria(), wide]).expect("valid fleet");
    let trace = TraceConfig::new(Scenario::C, QosLevel::Medium, 300.0, 60, 5).generate();
    let (result, _, rec) = fleet
        .cluster(DispatchPolicy::GeometryAware)
        .run_recorded(trace.iter().copied(), &FabricTuning::default());
    assert_eq!(result.completions.len(), 60);
    let mut words = Vec::new();
    let mut wide_pods = 0;
    for (&node, c) in &rec.nodes {
        for e in c.events() {
            if let Event::PodEnergy { pod, energy } = e.event {
                if node == 1 {
                    wide_pods = wide_pods.max(pod + 1);
                }
                words.extend([
                    u64::from(node),
                    e.ts.get(),
                    u64::from(pod),
                    energy.as_pj().to_bits(),
                ]);
            }
        }
    }
    assert!(wide_pods > 64, "attribution must reach pods past bit 63");
    assert_eq!((words.len() / 4, fnv(words)), (1000, 0xb117_fad2_2fc5_d47e));
}
