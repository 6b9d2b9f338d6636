//! `planaria-cli simulate` — run a multi-tenant workload on one node.

use crate::args::{parse_qos, parse_scenario, ArgError, Args};
use planaria_arch::AcceleratorConfig;
use planaria_core::PlanariaEngine;
use planaria_prema::PremaEngine;
use planaria_telemetry::{mean_occupancy, reconfigurations, render_occupancy, RecordingCollector};
use planaria_workload::{
    fairness, meets_sla, violation_rate, QosLevel, Scenario, SimResult, TraceConfig,
};

/// Runs `--requests N` (default 200) Poisson arrivals at `--lambda` q/s
/// (default 60) from `--scenario` (default C) at `--qos` (default M) on
/// `--system planaria|prema` (default planaria). `--timeline 1` prints the
/// chip-occupancy strip (Planaria only).
pub fn simulate(args: &Args) -> Result<(), ArgError> {
    let scenario: Scenario = parse_scenario(args.flag("scenario").unwrap_or("C"))?;
    let qos: QosLevel = parse_qos(args.flag("qos").unwrap_or("M"))?;
    let lambda = args.rate_or("lambda", 60.0)?;
    let requests: usize = args.flag_or("requests", 200)?;
    let seed: u64 = args.flag_or("seed", 1)?;
    let system = args.flag("system").unwrap_or("planaria");
    let timeline: u32 = args.flag_or("timeline", 0)?;
    if requests == 0 {
        return Err(ArgError("--requests must be positive".into()));
    }

    let trace = TraceConfig::new(scenario, qos, lambda, requests, seed).generate();
    println!("{scenario} {qos} | {requests} requests at {lambda} q/s (seed {seed}) on {system}");

    let (result, isolated): (SimResult, _) = match system {
        "planaria" => {
            eprintln!("compiling planaria library...");
            let engine = PlanariaEngine::new(AcceleratorConfig::planaria());
            let iso = engine.library().isolated_latencies();
            if timeline != 0 {
                let mut rec = RecordingCollector::new();
                let r = engine.run_with_collector(&trace, &mut rec);
                println!("{}", render_occupancy(&rec, 64));
                println!(
                    "reconfigurations: {}, mean occupancy: {:.0}%",
                    reconfigurations(&rec),
                    mean_occupancy(&rec) * 100.0
                );
                (r, iso)
            } else {
                (engine.run(&trace), iso)
            }
        }
        "prema" => {
            eprintln!("compiling prema library...");
            let engine = PremaEngine::new_default();
            let iso = engine.library().isolated_latencies();
            (engine.run(&trace), iso)
        }
        other => {
            return Err(ArgError(format!(
                "unknown --system '{other}'; one of planaria, prema"
            )))
        }
    };

    println!("mean latency     : {:.2} ms", result.mean_latency() * 1e3);
    println!(
        "QoS violations   : {:.1}%",
        violation_rate(&result.completions) * 100.0
    );
    println!(
        "meets MLPerf SLA : {}",
        if meets_sla(&result.completions) {
            "yes"
        } else {
            "no"
        }
    );
    println!(
        "fairness         : {:.4}",
        fairness(&result.completions, &isolated)
    );
    println!(
        "energy           : {:.2} J",
        result.total_energy.to_joules()
    );
    println!("makespan         : {:.3} s", result.makespan);
    Ok(())
}
