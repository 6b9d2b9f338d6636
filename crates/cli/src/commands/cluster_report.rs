//! `planaria-cli cluster-report` — run a multi-node fabric with full
//! telemetry and report per-node and merged metrics, the streaming-
//! sketch percentiles against the exact oracle, and (optionally) the
//! merged multi-process Chrome trace.

use crate::args::{parse_qos, parse_scenario, ArgError, Args};
use planaria_arch::AcceleratorConfig;
use planaria_core::{Cluster, DispatchPolicy, FabricTuning, PlanariaEngine};
use planaria_telemetry::{cluster_chrome_trace, validate_chrome_trace, Counter, Metric};
use planaria_workload::{LatencyStats, TraceConfig};
use std::fmt::Write as _;

/// Resolves a dispatch-policy name (case/punctuation-insensitive).
///
/// # Errors
///
/// Returns an error listing valid names when nothing matches.
pub fn parse_policy(name: &str) -> Result<DispatchPolicy, ArgError> {
    let norm = |s: &str| {
        s.chars()
            .filter(|c| c.is_ascii_alphanumeric())
            .collect::<String>()
            .to_ascii_lowercase()
    };
    let target = norm(name);
    DispatchPolicy::ALL
        .into_iter()
        .find(|p| norm(&format!("{p:?}")) == target)
        .ok_or_else(|| {
            let names: Vec<String> = DispatchPolicy::ALL
                .iter()
                .map(|p| format!("{p:?}"))
                .collect();
            ArgError(format!(
                "unknown --policy '{name}'; one of {}",
                names.join(", ")
            ))
        })
}

/// Runs an instrumented cluster and reports per-node/merged metrics.
///
/// Flags: `--nodes N` (default 4), `--policy NAME` (default LeastWork),
/// plus the workload flags of `simulate` (`--scenario`, `--qos`,
/// `--lambda`, `--requests`, `--seed`). Output flags: `--json-out PATH`
/// (machine-readable report), `--trace-out PATH` (merged multi-process
/// Chrome trace, self-validated before writing).
///
/// # Errors
///
/// Returns an error on unparsable flags, an internally invalid trace, or
/// an unwritable output path.
pub fn cluster_report(args: &Args) -> Result<(), ArgError> {
    let nodes: usize = args.flag_or("nodes", 4)?;
    let policy = parse_policy(args.flag("policy").unwrap_or("LeastWork"))?;
    let scenario = parse_scenario(args.flag("scenario").unwrap_or("C"))?;
    let qos = parse_qos(args.flag("qos").unwrap_or("M"))?;
    let lambda = args.rate_or("lambda", 200.0)?;
    let requests: usize = args.flag_or("requests", 100)?;
    let seed: u64 = args.flag_or("seed", 1)?;
    if nodes == 0 || requests == 0 {
        return Err(ArgError("--nodes and --requests must be positive".into()));
    }

    let cfg = TraceConfig::new(scenario, qos, lambda, requests, seed);
    eprintln!("compiling planaria library...");
    let engine = PlanariaEngine::new(AcceleratorConfig::planaria());
    let freq_hz = engine.library().config().freq_hz;
    let (result, stats, rec) = Cluster::uniform(&engine, nodes, policy)
        .run_recorded(cfg.stream(), &FabricTuning::default());

    let merged = rec.merged_report();
    let sketch_stats = merged
        .sketch(Metric::LatencyCycles)
        .and_then(|s| LatencyStats::from_sketch(s, freq_hz));
    let oracle = result.latency_stats();
    let sla_met = result.completions.iter().filter(|c| c.met_qos()).count();

    println!(
        "cluster-report: {nodes} nodes, {policy:?} | {scenario} {qos} | {requests} requests \
         at {lambda} q/s (seed {seed})"
    );
    println!(
        "  completed {} | sla {sla_met}/{requests} | makespan {:.4}s | energy {:.3}J | \
         {} kernel events over {} rounds",
        result.completions.len(),
        result.makespan,
        result.total_energy.to_joules(),
        stats.events,
        stats.rounds,
    );
    if let (Some(sk), Some(or)) = (sketch_stats, oracle) {
        println!(
            "  latency  p50 {:.3}ms  p99 {:.3}ms  mean {:.3}ms  (streaming sketch)",
            sk.p50 * 1e3,
            sk.p99 * 1e3,
            sk.mean * 1e3
        );
        println!(
            "  oracle   p50 {:.3}ms  p99 {:.3}ms  mean {:.3}ms  (materialized nearest-rank)",
            or.p50 * 1e3,
            or.p99 * 1e3,
            or.mean * 1e3
        );
    }

    println!("  per-node (events / arrivals / completions / p99 ms):");
    let mut node_rows = String::new();
    for (node, sink) in &rec.nodes {
        let report = sink.report();
        let p99_ms = report
            .sketch(Metric::LatencyCycles)
            .and_then(|s| s.value_at_ratio(99, 100))
            .map_or(0.0, |c| c as f64 / freq_hz * 1e3);
        println!(
            "    node {node:02}: {:>6} / {:>5} / {:>5} / {p99_ms:.3}",
            sink.len(),
            report.counter(Counter::Arrivals),
            report.counter(Counter::Completions),
        );
        if !node_rows.is_empty() {
            node_rows.push(',');
        }
        let _ = write!(
            node_rows,
            "{{\"node\":{node},\"events\":{},\"arrivals\":{},\"completions\":{},\
             \"p99_ms\":{p99_ms:.6}}}",
            sink.len(),
            report.counter(Counter::Arrivals),
            report.counter(Counter::Completions),
        );
    }

    if let Some(path) = args.flag("trace-out") {
        let json = cluster_chrome_trace(&rec);
        let tstats = validate_chrome_trace(&json)
            .map_err(|e| ArgError(format!("internal: exported trace is invalid: {e}")))?;
        std::fs::write(path, &json).map_err(|e| ArgError(format!("cannot write {path}: {e}")))?;
        println!(
            "wrote {path}: {} events ({} spans, {} instants, {} counters) across {} processes",
            tstats.events, tstats.complete, tstats.instants, tstats.counters, tstats.processes
        );
    }
    if let Some(path) = args.flag("json-out") {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"config\":{{\"nodes\":{nodes},\"policy\":\"{policy:?}\",\
             \"scenario\":\"{scenario}\",\"qos\":\"{qos}\",\"lambda\":{lambda},\
             \"requests\":{requests},\"seed\":{seed}}},"
        );
        let _ = write!(
            out,
            "\"summary\":{{\"completed\":{},\"sla_met\":{sla_met},\"makespan_s\":{:.9},\
             \"energy_j\":{:.9},\"events\":{},\"rounds\":{}",
            result.completions.len(),
            result.makespan,
            result.total_energy.to_joules(),
            stats.events,
            stats.rounds,
        );
        if let (Some(sk), Some(or)) = (sketch_stats, oracle) {
            let _ = write!(
                out,
                ",\"sketch_p50_ms\":{:.6},\"sketch_p99_ms\":{:.6},\"sketch_mean_ms\":{:.6},\
                 \"oracle_p50_ms\":{:.6},\"oracle_p99_ms\":{:.6},\"oracle_mean_ms\":{:.6}",
                sk.p50 * 1e3,
                sk.p99 * 1e3,
                sk.mean * 1e3,
                or.p50 * 1e3,
                or.p99 * 1e3,
                or.mean * 1e3,
            );
        }
        let _ = write!(out, "}},\"nodes\":[{node_rows}],\"metrics\":");
        out.push_str(&merged.render_json());
        out.push('}');
        std::fs::write(path, &out).map_err(|e| ArgError(format!("cannot write {path}: {e}")))?;
        println!("wrote {path}");
    }
    print!("{}", merged.render_text());
    Ok(())
}
