//! Cluster-fabric determinism: a multi-node fabric run must be
//! bit-identical at any `PLANARIA_JOBS` setting, for every dispatch
//! policy. The fabric fans nodes out via `par_map` inside each
//! epoch-synchronized round, so this pins the core claim of the
//! parallel design — per-node event sequences are fixed by the serial
//! dispatcher before any node advances, making worker count invisible
//! to the simulation.
//!
//! Everything lives in one `#[test]` because `PLANARIA_JOBS` is process
//! state: a single test function serializes the env mutations (and this
//! file is its own process, so other test binaries are unaffected).

use planaria_core::{Cluster, DispatchPolicy, FabricTuning, PlanariaEngine};
use planaria_parallel::JOBS_ENV;
use planaria_workload::{QosLevel, Scenario, SimResult, TraceConfig};

/// Runs `f` with `PLANARIA_JOBS` pinned to `jobs`.
fn with_jobs<R>(jobs: &str, f: impl FnOnce() -> R) -> R {
    std::env::set_var(JOBS_ENV, jobs);
    let r = f();
    std::env::remove_var(JOBS_ENV);
    r
}

#[test]
fn fabric_runs_are_bit_identical_across_job_counts() {
    let engine = PlanariaEngine::new(planaria_arch::AcceleratorConfig::planaria());
    // Enough load that all 5 nodes stay busy and the dispatcher's
    // feedback (for JSQ/P2C/QoS-aware) actually varies across rounds.
    let trace = TraceConfig::new(Scenario::C, QosLevel::Medium, 600.0, 600, 99).generate();
    let nodes = 5;

    for policy in DispatchPolicy::ALL {
        let run = |jobs: &str| -> SimResult {
            with_jobs(jobs, || {
                Cluster::uniform(&engine, nodes, policy)
                    .run(trace.iter().copied(), &FabricTuning::default())
                    .0
            })
        };
        let serial = run("1");
        assert_eq!(
            serial.completions.len(),
            trace.len(),
            "{policy:?}: fabric lost requests"
        );
        for jobs in ["2", "4", "8"] {
            let parallel = run(jobs);
            assert_eq!(
                serial.digest(),
                parallel.digest(),
                "{policy:?}: fabric output differs between jobs=1 and jobs={jobs}"
            );
            // digest() is the cheap summary; on mismatch the line above
            // fires first, and this keeps the guarantee honest if the
            // digest ever collides.
            assert_eq!(serial.completions, parallel.completions, "{policy:?}");
            assert_eq!(
                serial.makespan.to_bits(),
                parallel.makespan.to_bits(),
                "{policy:?}"
            );
        }
    }
}
