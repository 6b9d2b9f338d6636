//! Command-line entry point of the simulator benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload chip-bursty|fleet-stream|paper-sweep|all \
//!     [--seed N] [--seconds S] [--trace 0|1] [--out DIR] \
//!     [--scale full|tiny] [--golden-dir DIR]
//! ```
//!
//! Run from the repository root. For each workload (`all` runs the three
//! in turn) prints every metric by name with its unit, one per line, and
//! then one JSON object with the keys `correct`, `attempted`, `failed` and
//! `metrics`: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. `--out` also writes each workload's metrics,
//! a provenance block and the traced spans to a JSON file in DIR.
//! Exits 1 when any exactness check fails, 2 on a usage error.

use planaria_perfbench::report::{self, json_metrics, json_num, END_TO_END, PER_LAYER};
use planaria_perfbench::{reference, run, Options, Scale, Summary, Workload};
use planaria_telemetry::json::escape;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Scratch root for spill files, inside the checkout the benchmark runs
/// from; each process works in its own subdirectory.
const TMP_ROOT: &str = ".bench_tmp";

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: perfbench --workload chip-bursty|fleet-stream|paper-sweep|all [--seed N] \
         [--seconds S] [--trace 0|1] [--out DIR] [--scale full|tiny] \
         [--golden-dir DIR]"
    );
    ExitCode::from(2)
}

/// Parsed command line: the options, the workloads to run in turn, and
/// the optional output directory.
type Parsed = (Options, Vec<Workload>, Option<PathBuf>);

fn parse(args: &[String]) -> Result<Parsed, String> {
    let mut workloads = Vec::new();
    let mut opts = Options {
        workload: Workload::ChipBursty,
        seed: reference::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
        golden_dir: PathBuf::from("results/golden"),
        tmp_dir: PathBuf::from(TMP_ROOT),
    };
    let mut out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" if value == "all" => workloads = Workload::ALL.to_vec(),
            "--workload" => {
                workloads = vec![Workload::parse(value).ok_or_else(|| bad("unknown workload"))?]
            }
            "--seed" => opts.seed = value.parse().map_err(|_| bad("want an integer"))?,
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad("want a non-negative number"))?
            }
            "--trace" => {
                opts.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("want 0 or 1")),
                }
            }
            "--scale" => {
                opts.scale = match value {
                    "full" => Scale::Full,
                    "tiny" => Scale::Tiny,
                    _ => return Err(bad("want full or tiny")),
                }
            }
            "--out" => out = Some(PathBuf::from(value)),
            "--golden-dir" => opts.golden_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if workloads.is_empty() {
        return Err("--workload is required".into());
    }
    Ok((opts, workloads, out))
}

/// Commit, host cores, worker count, seed and digest format.
fn provenance(opts: &Options, cores: usize, jobs: usize) -> String {
    format!(
        "{{\"commit\": \"{}\", \"host_cores\": {cores}, \"planaria_jobs\": {jobs}, \
         \"seed\": {}, \"digest_version\": {}}}",
        escape(&report::commit(Path::new("."))),
        opts.seed,
        planaria_workload::DIGEST_VERSION
    )
}

/// Writes one workload's report, provenance and spans as JSON.
fn write_out(path: &Path, opts: &Options, prov: &str, s: &Summary) -> std::io::Result<()> {
    let defs = if opts.trace { PER_LAYER } else { END_TO_END };
    let mut doc = String::new();
    let _ = write!(
        doc,
        "{{\n  \"workload\": \"{}\",\n  \"trace\": {},\n  \"provenance\": {prov},\n  \
         \"correct\": {},\n  \"attempted\": {},\n  \"failed\": {},\n  \"metrics\": {},\n  \"notes\": [",
        opts.workload.name(),
        u8::from(opts.trace),
        s.correct,
        s.attempted,
        s.failed,
        json_metrics(defs, &s.metrics)
    );
    for (i, n) in s.notes.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(doc, "{sep}\"{}\"", escape(n));
    }
    doc.push_str("],\n  \"spans\": [");
    for (i, sp) in s.spans.iter().enumerate() {
        let sep = if i == 0 { "\n    " } else { ",\n    " };
        let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            doc,
            "{sep}{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
            sp.name, sp.start_ns, sp.end_ns
        );
    }
    doc.push_str("\n  ]\n}\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, doc)
}

/// Runs one workload and prints its report; returns whether every check
/// passed.
fn run_one(mut opts: Options, cores: usize, out: Option<&Path>) -> bool {
    // One process on one worker (see the crate docs). Set while no other
    // thread exists.
    let jobs = 1;
    std::env::set_var(planaria_parallel::JOBS_ENV, jobs.to_string());

    // Spill files live in a private directory under the scratch root,
    // created before set-up and removed at the end.
    opts.tmp_dir =
        Path::new(TMP_ROOT).join(format!("{}-{}", opts.workload.name(), std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&opts.tmp_dir) {
        eprintln!("error: cannot create {}: {e}", opts.tmp_dir.display());
        return false;
    }
    let summary = run(&opts);
    let _ = std::fs::remove_dir_all(&opts.tmp_dir);
    let _ = std::fs::remove_dir(TMP_ROOT);

    let prov = provenance(&opts, cores, jobs);
    println!(
        "# {} seed={} seconds={} trace={}",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace)
    );
    println!("# provenance {prov}");
    for n in &summary.notes {
        println!("# {n}");
    }
    let defs = if opts.trace { PER_LAYER } else { END_TO_END };
    for m in defs {
        let v = summary.metrics.get(m.name).copied().unwrap_or(0.0);
        let moves = if m.moves.is_empty() {
            String::new()
        } else {
            format!("  (moves {})", m.moves)
        };
        println!("{:<28} {:>22} {}{moves}", m.name, json_num(v), m.unit);
    }
    println!(
        "{:<28} {:>22} ({} of {} operations)",
        "failed_frac",
        json_num(summary.failed as f64 / summary.attempted.max(1) as f64),
        summary.failed,
        summary.attempted
    );
    let mut ok = summary.correct;
    if let Some(dir) = out {
        let path = dir.join(format!(
            "{}-seed{}-trace{}.json",
            opts.workload.name(),
            opts.seed,
            u8::from(opts.trace)
        ));
        if let Err(e) = write_out(&path, &opts, &prov, &summary) {
            eprintln!("error: cannot write {}: {e}", path.display());
            ok = false;
        }
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        summary.correct,
        summary.attempted,
        summary.failed,
        json_metrics(defs, &summary.metrics)
    );
    ok
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (opts, workloads, out) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => return usage(&e),
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut ok = true;
    for workload in workloads {
        let opts = Options {
            workload,
            ..opts.clone()
        };
        ok &= run_one(opts, cores, out.as_deref());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
