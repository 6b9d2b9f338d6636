//! Cluster-fabric scaling: aggregate events/s of a 12-node fabric as the
//! worker count sweeps 1 → 12, with every point asserted bit-identical
//! to the serial (jobs=1) run.
//!
//! The fabric's epoch-synchronized design means worker count changes
//! only wall-clock, never results — the `digest()` asserts below turn
//! that claim into a measured invariant on every bench run. Speedup is
//! bounded by the host's logical cores (recorded in the JSON as
//! `host_logical_cores`): on a single-core runner every jobs setting
//! collapses to serial execution and speedup stays ≈ 1×, while the
//! >4× aggregate-throughput target is reached on hosts with ≥ 8 cores,
//! where twelve busy nodes amortize the per-round join.
//!
//! Writes `results/BENCH_cluster.json`. `PLANARIA_BENCH_SMOKE=1` runs a
//! reduced trace and jobs sweep (CI smoke) and does not overwrite the
//! JSON record.

use planaria_arch::AcceleratorConfig;
use planaria_bench::time_per_iter;
use planaria_core::{Cluster, DispatchPolicy, FabricTuning, PlanariaEngine};
use planaria_workload::{QosLevel, Scenario, TraceConfig};
use std::fmt::Write as _;
use std::hint::black_box;

const NODES: usize = 12;

/// A rate high enough to keep all 12 nodes busy: roughly 12× the
/// per-node saturation rate of the fig16 sweep, Scenario C's heavy mix.
fn cluster_cfg(requests: usize) -> TraceConfig {
    TraceConfig::new(Scenario::C, QosLevel::Medium, 4_000.0, requests, 0xfab).with_burstiness(3.0)
}

fn main() {
    let smoke = std::env::var("PLANARIA_BENCH_SMOKE").is_ok_and(|v| v == "1");
    let engine = PlanariaEngine::new(AcceleratorConfig::planaria());
    let (requests, iters): (usize, u32) = if smoke { (2_000, 1) } else { (100_000, 2) };
    let jobs_sweep: &[usize] = if smoke { &[1, 2] } else { &[1, 2, 4, 8, 12] };
    let trace = cluster_cfg(requests).generate();

    let run = || {
        Cluster::uniform(&engine, NODES, DispatchPolicy::LeastWork)
            .run(trace.iter().copied(), &FabricTuning::default())
    };

    // Serial reference: results at every jobs setting must digest equal.
    std::env::set_var(planaria_parallel::JOBS_ENV, "1");
    let (reference, stats) = run();
    assert_eq!(
        reference.completions.len(),
        requests,
        "fabric lost requests"
    );

    let mut record: Vec<(String, f64)> = Vec::new();
    println!(
        "{NODES}-node fabric, {requests} requests, {} kernel events, {} rounds",
        stats.events, stats.rounds
    );
    println!(
        "{:<6} {:>12} {:>15} {:>9}",
        "jobs", "s/iter", "agg ev/s", "speedup"
    );
    let mut serial_time = 0.0f64;
    for &jobs in jobs_sweep {
        std::env::set_var(planaria_parallel::JOBS_ENV, jobs.to_string());
        let t = time_per_iter(iters, || {
            let (result, _) = black_box(run());
            assert_eq!(
                result.digest(),
                reference.digest(),
                "fabric output differs between jobs=1 and jobs={jobs}"
            );
        });
        if jobs == 1 {
            serial_time = t;
        }
        let ev_per_s = stats.events as f64 / t;
        let speedup = serial_time / t;
        println!("{jobs:<6} {t:>12.4} {ev_per_s:>15.1} {speedup:>8.2}x");
        record.push((format!("events_per_s_jobs_{jobs}"), ev_per_s));
        record.push((format!("speedup_jobs_{jobs}"), speedup));
    }
    std::env::remove_var(planaria_parallel::JOBS_ENV);
    record.push(("kernel_events".to_string(), stats.events as f64));
    record.push(("dispatch_rounds".to_string(), stats.rounds as f64));

    if smoke {
        println!("[smoke mode: results/BENCH_cluster.json left untouched]");
        return;
    }
    let mut s = String::from("{\n");
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let _ = writeln!(s, "  \"host_logical_cores\": {cores},");
    let _ = writeln!(s, "  \"nodes\": {NODES},");
    let _ = writeln!(s, "  \"requests\": {requests},");
    for (i, (k, v)) in record.iter().enumerate() {
        let comma = if i + 1 == record.len() { "" } else { "," };
        let _ = writeln!(s, "  \"{k}\": {v:.3}{comma}");
    }
    s.push_str("}\n");
    let path = planaria_bench::results_dir().join("BENCH_cluster.json");
    match std::fs::create_dir_all(planaria_bench::results_dir())
        .and_then(|()| std::fs::write(&path, s))
    {
        Ok(()) => println!("[written {}]", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}
