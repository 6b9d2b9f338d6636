//! Benchmark harness regenerating every table and figure of the Planaria
//! evaluation (§VI).
//!
//! Each experiment is a binary (`cargo run --release -p planaria-bench
//! --bin <experiment>`); all of them print the paper-style table to stdout
//! and write a TSV next to the repository's `results/` directory:
//!
//! | binary | reproduces |
//! |---|---|
//! | `fig12_throughput` | Fig. 12 — max QPS meeting SLA, Planaria vs PREMA |
//! | `fig13_sla` | Fig. 13 — SLA satisfaction rate at a fixed rate |
//! | `fig14_fairness` | Fig. 14 — fairness, normalized to PREMA |
//! | `fig15_energy` | Fig. 15 — total workload energy |
//! | `fig16_scaleout` | Fig. 16 — min #nodes for 99 % SLA |
//! | `fig17_isolated` | Fig. 17 — isolated speedup & energy reduction |
//! | `fig18_granularity` | Fig. 18 — EDP vs fission granularity |
//! | `table2_sensitivity` | Table II — layer → fission-config histogram |
//! | `fig19_breakdown` | Fig. 19 — area/power breakdown |
//! | `ablation_omnidirectional` | §IV-A ablation — OD links on/off |
//! | `ablation_scheduler` | §V ablation — PREMA policy vs FCFS vs SJF |
//! | `ablation_pod_memory` | §III-C — pod reorganization vs strawmen |
//!
//! Criterion benches (`cargo bench -p planaria-bench`) measure the
//! simulator's own kernels (layer timing, compilation, engine event loop,
//! scheduler decisions).

pub mod workqueue;

use planaria_arch::AcceleratorConfig;
use planaria_compiler::CompiledLibrary;
use planaria_core::PlanariaEngine;
use planaria_parallel::{effective_jobs, par_map};
use planaria_prema::{Policy, PremaEngine};
use planaria_telemetry::{chrome_trace, validate_chrome_trace, RecordingCollector};
use planaria_workload::{QosLevel, Scenario, TraceConfig};
use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

/// Requests per workload instance (long enough that sustained overload is
/// visible against the QoS bounds).
pub const TRACE_LEN: usize = 400;

/// Seeds used for throughput probing.
pub const PROBE_SEEDS: [u64; 3] = [11, 23, 47];

/// Seeds used for satisfaction-rate estimation.
pub fn rate_seeds() -> Vec<u64> {
    (100..130).collect()
}

/// Floor of the throughput bisection (a result here means "no probed rate
/// meets the SLA").
pub const THROUGHPUT_FLOOR: f64 = 0.5;
/// Ceiling of the throughput bisection.
pub const THROUGHPUT_CEIL: f64 = 20_000.0;
/// Bisection refinement steps.
pub const THROUGHPUT_ITERS: u32 = 18;

/// The two systems under comparison, compiled once.
pub struct Systems {
    /// Planaria node (fission + Algorithm 1).
    pub planaria: PlanariaEngine,
    /// PREMA baseline node (monolithic + token scheduling).
    pub prema: PremaEngine,
}

impl Systems {
    /// Compiles both systems' libraries.
    pub fn new() -> Self {
        Self {
            planaria: PlanariaEngine::new(AcceleratorConfig::planaria()),
            prema: PremaEngine::new(AcceleratorConfig::monolithic(), Policy::Prema),
        }
    }
}

impl Default for Systems {
    fn default() -> Self {
        Self::new()
    }
}

/// Compiled library for a configuration, shared across experiment helpers.
pub fn library(cfg: AcceleratorConfig) -> CompiledLibrary {
    CompiledLibrary::new(cfg)
}

/// The `scenario × QoS` grid every figure sweeps, in emission order.
pub fn grid() -> Vec<(Scenario, QosLevel)> {
    Scenario::ALL
        .into_iter()
        .flat_map(|s| QosLevel::ALL.into_iter().map(move |q| (s, q)))
        .collect()
}

/// Fans an experiment cell out over the `scenario × QoS` grid on the
/// deterministic [`planaria_parallel`] pool and returns
/// `((scenario, qos), result)` pairs in emission order.
///
/// Grid cells are independent simulations; the pool joins results in
/// input-index order, so the emitted table is bit-identical at any
/// `PLANARIA_JOBS` setting. Nested fan-outs inside `f` (per-seed probes in
/// [`planaria_workload::max_throughput`], per-node sweeps in Fig. 16) run
/// inline on the worker thread, so parallelism never compounds.
pub fn par_grid<R, F>(f: F) -> Vec<((Scenario, QosLevel), R)>
where
    R: Send,
    F: Fn(Scenario, QosLevel) -> R + Sync,
{
    let cells = grid();
    let results = par_map(cells.clone(), effective_jobs(), |(s, q)| f(s, q));
    cells.into_iter().zip(results).collect()
}

/// The standard workload configuration for `(scenario, qos, lambda,
/// seed)` — the single definition both the materialized and streamed run
/// paths draw from.
pub fn trace_config(scenario: Scenario, qos: QosLevel, lambda: f64, seed: u64) -> TraceConfig {
    TraceConfig::new(scenario, qos, lambda, TRACE_LEN, seed)
}

/// A standard materialized trace for `(scenario, qos, lambda, seed)`.
pub fn trace(
    scenario: Scenario,
    qos: QosLevel,
    lambda: f64,
    seed: u64,
) -> Vec<planaria_workload::Request> {
    trace_config(scenario, qos, lambda, seed).generate()
}

/// Whether experiment binaries should feed the engines through the lazy
/// `TraceConfig::stream()` path instead of materialized request Vecs
/// (`PLANARIA_STREAM_TRACES=1`). Results are bit-identical either way —
/// CI byte-diffs the figure TSVs under both settings.
pub fn stream_traces() -> bool {
    std::env::var("PLANARIA_STREAM_TRACES").is_ok_and(|v| v == "1")
}

/// Runs one workload cell on the Planaria engine, honoring
/// [`stream_traces`].
pub fn run_planaria(
    sys: &Systems,
    scenario: Scenario,
    qos: QosLevel,
    lambda: f64,
    seed: u64,
) -> planaria_workload::SimResult {
    let cfg = trace_config(scenario, qos, lambda, seed);
    if stream_traces() {
        sys.planaria.run_streamed(cfg.stream())
    } else {
        sys.planaria.run(&cfg.generate())
    }
}

/// Runs one workload cell on the PREMA baseline, honoring
/// [`stream_traces`].
pub fn run_prema(
    sys: &Systems,
    scenario: Scenario,
    qos: QosLevel,
    lambda: f64,
    seed: u64,
) -> planaria_workload::SimResult {
    let cfg = trace_config(scenario, qos, lambda, seed);
    if stream_traces() {
        sys.prema.run_streamed(cfg.stream())
    } else {
        sys.prema.run(&cfg.generate())
    }
}

/// Maximum SLA-meeting arrival rate for Planaria.
pub fn planaria_throughput(sys: &Systems, scenario: Scenario, qos: QosLevel) -> f64 {
    planaria_workload::max_throughput(
        |lambda, seed| run_planaria(sys, scenario, qos, lambda, seed).completions,
        &PROBE_SEEDS,
        THROUGHPUT_FLOOR,
        THROUGHPUT_CEIL,
        THROUGHPUT_ITERS,
    )
}

/// Maximum SLA-meeting arrival rate for PREMA.
pub fn prema_throughput(sys: &Systems, scenario: Scenario, qos: QosLevel) -> f64 {
    planaria_workload::max_throughput(
        |lambda, seed| run_prema(sys, scenario, qos, lambda, seed).completions,
        &PROBE_SEEDS,
        THROUGHPUT_FLOOR,
        THROUGHPUT_CEIL,
        THROUGHPUT_ITERS,
    )
}

/// The shared probe rate for Figs. 13–15: both systems observed under the
/// same arrival rate (the paper's "for the same throughput 1/λ"), chosen as
/// the geometric mean of the two capacities so the comparison loads PREMA
/// past saturation while Planaria keeps headroom.
pub fn probe_rate(thr_planaria: f64, thr_prema: f64) -> f64 {
    (thr_planaria.max(THROUGHPUT_FLOOR) * thr_prema.max(THROUGHPUT_FLOOR)).sqrt()
}

/// A formatted results table that prints to stdout and serializes to TSV.
#[derive(Debug, Clone)]
pub struct ResultTable {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl ResultTable {
    /// Starts a table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header arity).
    ///
    /// # Panics
    ///
    /// Panics on arity mismatch.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Renders an aligned text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |cells: &[String], widths: &[usize]| {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", line(&self.headers, &widths));
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }

    /// Prints to stdout and writes `results/<name>.tsv` at the workspace
    /// root (best-effort: IO failures only emit a warning so experiment
    /// output is never lost).
    pub fn emit(&self, name: &str) {
        print!("{}", self.render());
        let mut tsv = self.headers.join("\t");
        tsv.push('\n');
        for row in &self.rows {
            tsv.push_str(&row.join("\t"));
            tsv.push('\n');
        }
        let path = results_dir().join(format!("{name}.tsv"));
        if let Err(e) = fs::create_dir_all(results_dir()).and_then(|()| fs::write(&path, tsv)) {
            eprintln!("warning: could not write {}: {e}", path.display());
        } else {
            println!("[written {}]", path.display());
        }
    }
}

/// The workspace `results/` directory.
pub fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

/// Parses `--trace-out PATH` (or `--trace-out=PATH`) from the current
/// binary's argv, if present.
pub fn trace_out_arg() -> Option<String> {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--trace-out" {
            return args.next();
        }
        if let Some(rest) = a.strip_prefix("--trace-out=") {
            return Some(rest.to_string());
        }
    }
    None
}

/// If the binary was invoked with `--trace-out PATH`, replays one
/// representative contended cell (Workload-C, QoS-M, 200 q/s, 60
/// requests, seed 1) on the Planaria engine with a recording collector
/// and writes the self-validated Chrome trace to `PATH`.
///
/// The experiment's own measurement loops are untouched — they keep
/// running with [`planaria_telemetry::NullCollector`] via the plain
/// `run` path, so emitted tables are unaffected by the flag.
pub fn export_trace_if_requested(sys: &Systems) {
    let Some(path) = trace_out_arg() else {
        return;
    };
    let workload = TraceConfig::new(Scenario::C, QosLevel::Medium, 200.0, 60, 1).generate();
    let mut rec = RecordingCollector::new();
    sys.planaria.run_with_collector(&workload, &mut rec);
    let json = chrome_trace(&rec);
    match validate_chrome_trace(&json) {
        Ok(stats) => {
            if let Err(e) = fs::write(&path, &json) {
                eprintln!("warning: could not write {path}: {e}");
            } else {
                println!(
                    "[trace written {path}: {} events ({} spans) across {} processes]",
                    stats.events, stats.complete, stats.processes
                );
            }
        }
        Err(e) => eprintln!("warning: trace export invalid, not writing {path}: {e}"),
    }
}

/// Formats a throughput ratio, marking PREMA-at-floor cells the way the
/// paper dashes out infeasible baselines.
pub fn ratio_label(planaria: f64, prema: f64) -> String {
    if prema <= THROUGHPUT_FLOOR * 1.01 {
        format!(
            ">={:.1}x (baseline below floor)",
            planaria / THROUGHPUT_FLOOR
        )
    } else {
        format!("{:.1}x", planaria / prema)
    }
}

/// The bench binaries' timing loop: runs `f` once as a warmup (which
/// also warms the compiled tables), then `iters` more times, and returns
/// the mean wall-clock seconds per timed iteration.
pub fn time_per_iter(iters: u32, mut f: impl FnMut()) -> f64 {
    f();
    let start = std::time::Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_secs_f64() / f64::from(iters)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = ResultTable::new("demo", &["a", "bb"]);
        t.row(vec!["1".into(), "2".into()]);
        let r = t.render();
        assert!(r.contains("== demo =="));
        assert!(r.contains("a"));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn row_arity_checked() {
        let mut t = ResultTable::new("demo", &["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn probe_rate_is_geometric_mean() {
        assert!((probe_rate(100.0, 4.0) - 20.0).abs() < 1e-9);
    }

    #[test]
    fn ratio_label_marks_floor() {
        assert!(ratio_label(50.0, 0.5).starts_with(">="));
        assert_eq!(ratio_label(50.0, 10.0), "5.0x");
    }
}
