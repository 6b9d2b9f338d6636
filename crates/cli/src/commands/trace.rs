//! `planaria-cli trace` — run a workload with full telemetry and export a
//! Chrome trace (plus metrics / occupancy timeline), and
//! `planaria-cli validate-trace` — structurally check an exported trace.

use crate::args::{parse_qos, parse_scenario, ArgError, Args};
use planaria_arch::AcceleratorConfig;
use planaria_core::PlanariaEngine;
use planaria_prema::PremaEngine;
use planaria_telemetry::{chrome_trace, occupancy_tsv, validate_chrome_trace, RecordingCollector};
use planaria_workload::TraceConfig;

/// Runs one instrumented simulation and writes its exports.
///
/// Flags mirror `simulate`: `--scenario`, `--qos`, `--lambda`,
/// `--requests`, `--seed`, `--system planaria|prema`. Output flags:
/// `--trace-out PATH` (Chrome trace JSON, self-validated before writing),
/// `--metrics-out PATH` (metrics report JSON), `--occupancy-out PATH`
/// (occupancy TSV). Without output flags, prints the metrics report.
///
/// # Errors
///
/// Returns an error on unparsable flags, an invalid generated trace
/// (internal bug), or an unwritable output path.
pub fn trace(args: &Args) -> Result<(), ArgError> {
    let scenario = parse_scenario(args.flag("scenario").unwrap_or("A"))?;
    let qos = parse_qos(args.flag("qos").unwrap_or("S"))?;
    let lambda = args.rate_or("lambda", 100.0)?;
    let requests: usize = args.flag_or("requests", 40)?;
    let seed: u64 = args.flag_or("seed", 1)?;
    let system = args.flag("system").unwrap_or("planaria");
    if requests == 0 {
        return Err(ArgError("--requests must be positive".into()));
    }

    let workload = TraceConfig::new(scenario, qos, lambda, requests, seed).generate();
    eprintln!("compiling {system} library...");
    let mut rec = RecordingCollector::new();
    match system {
        "planaria" => {
            let engine = PlanariaEngine::new(AcceleratorConfig::planaria());
            engine.run_with_collector(&workload, &mut rec);
        }
        "prema" => {
            let engine = PremaEngine::new_default();
            engine.run_with_collector(&workload, &mut rec);
        }
        other => {
            return Err(ArgError(format!(
                "unknown --system '{other}'; one of planaria, prema"
            )))
        }
    }

    println!(
        "{scenario} {qos} | {requests} requests at {lambda} q/s (seed {seed}) on {system}: \
         {} events recorded",
        rec.len()
    );

    if let Some(path) = args.flag("trace-out") {
        let json = chrome_trace(&rec);
        let stats = validate_chrome_trace(&json)
            .map_err(|e| ArgError(format!("internal: exported trace is invalid: {e}")))?;
        std::fs::write(path, &json).map_err(|e| ArgError(format!("cannot write {path}: {e}")))?;
        println!(
            "wrote {path}: {} events ({} spans, {} instants, {} counters) across {} processes",
            stats.events, stats.complete, stats.instants, stats.counters, stats.processes
        );
    }
    if let Some(path) = args.flag("occupancy-out") {
        std::fs::write(path, occupancy_tsv(&rec))
            .map_err(|e| ArgError(format!("cannot write {path}: {e}")))?;
        println!("wrote {path}");
    }
    let report = rec.report();
    if let Some(path) = args.flag("metrics-out") {
        std::fs::write(path, report.render_json())
            .map_err(|e| ArgError(format!("cannot write {path}: {e}")))?;
        println!("wrote {path}");
    }
    print!("{}", report.render_text());
    Ok(())
}

/// Validates a Chrome trace JSON file produced by `trace` (or anything
/// else claiming the format).
///
/// # Errors
///
/// Returns an error when the path is missing/unreadable or the trace
/// violates a structural invariant.
pub fn validate_trace(args: &Args) -> Result<(), ArgError> {
    let Some(path) = args.positional(0) else {
        return Err(ArgError("validate-trace expects a file path".into()));
    };
    let text =
        std::fs::read_to_string(path).map_err(|e| ArgError(format!("cannot read {path}: {e}")))?;
    let stats = validate_chrome_trace(&text).map_err(|e| ArgError(format!("{path}: {e}")))?;
    println!(
        "{path}: valid — {} events ({} spans, {} instants, {} counters, {} metadata) \
         across {} processes",
        stats.events,
        stats.complete,
        stats.instants,
        stats.counters,
        stats.metadata,
        stats.processes
    );
    Ok(())
}
