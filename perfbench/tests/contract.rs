//! The benchmark's own contract: `BENCHMARK.json` names exactly what the
//! command prints, and every workload passes its exactness gate at a tiny
//! size, traced and untraced.

use planaria_perfbench::report::{MetricDef, END_TO_END, PER_LAYER};
use planaria_perfbench::Workload;
use planaria_telemetry::json::{parse, Json};
use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives one level below the repository root")
        .to_path_buf()
}

fn benchmark_json() -> Json {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    parse(&text).expect("BENCHMARK.json parses")
}

fn strings(list: &Json, key: &str) -> Vec<String> {
    list.as_arr()
        .expect("a list")
        .iter()
        .map(|e| e.get(key).and_then(Json::as_str).expect(key).to_string())
        .collect()
}

fn assert_metrics_listed(listed: &Json, defs: &[MetricDef]) {
    let listed = listed.as_arr().expect("a metric list");
    assert_eq!(listed.len(), defs.len(), "metric count");
    for (entry, def) in listed.iter().zip(defs) {
        let field = |k: &str| entry.get(k).and_then(Json::as_str).map(str::to_string);
        assert_eq!(field("name").as_deref(), Some(def.name));
        assert_eq!(field("unit").as_deref(), Some(def.unit), "{}", def.name);
        assert_eq!(field("better").as_deref(), Some(def.better), "{}", def.name);
        assert_eq!(
            entry.get("bound").and_then(Json::as_num),
            def.bound,
            "{}",
            def.name
        );
    }
}

#[test]
fn benchmark_json_names_what_the_command_prints() {
    let doc = benchmark_json();
    assert_eq!(
        strings(doc.get("workloads").expect("workloads"), "name"),
        Workload::ALL.map(|w| w.name().to_string())
    );
    assert_metrics_listed(doc.get("end_to_end").expect("end_to_end"), END_TO_END);
    assert_metrics_listed(doc.get("per_layer").expect("per_layer"), PER_LAYER);
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is an end-to-end metric");
    assert!(END_TO_END.iter().all(|m| m
        .bound
        .is_some_and(|b| b > 0.0 && b <= setup.bound.unwrap_or(0.0))));
}

/// Runs the benchmark binary from the repository root; returns its exit
/// code and standard output.
fn bench(args: &[&str], golden: &Path) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_planaria-perfbench"))
        .args(args)
        .arg("--golden-dir")
        .arg(golden)
        .current_dir(repo_root())
        .output()
        .expect("run the benchmark binary");
    (
        out.status.code(),
        String::from_utf8(out.stdout).expect("utf-8 output"),
    )
}

/// The last line's `(correct, attempted, failed, metric names and units)`.
fn result_line(stdout: &str) -> (bool, u64, u64, Vec<(String, String)>) {
    let last = stdout.lines().last().expect("some output");
    let doc = parse(last).expect("the last line is JSON");
    let Json::Obj(fields) = &doc else {
        panic!("the last line is an object")
    };
    let keys: Vec<&str> = fields.keys().map(String::as_str).collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    let Some(Json::Bool(correct)) = doc.get("correct") else {
        panic!("correct is a bool")
    };
    let count = |k: &str| doc.get(k).and_then(Json::as_num).expect(k) as u64;
    let Some(Json::Obj(metrics)) = doc.get("metrics") else {
        panic!("metrics is an object")
    };
    let metrics = metrics
        .iter()
        .map(|(name, m)| {
            let unit = m.get("unit").and_then(Json::as_str).expect("unit");
            assert!(m.get("value").and_then(Json::as_num).is_some(), "{name}");
            (name.clone(), unit.to_string())
        })
        .collect();
    (*correct, count("attempted"), count("failed"), metrics)
}

/// `(name, unit)` pairs, sorted by name as the parsed object is.
fn names_and_units(defs: &[MetricDef]) -> Vec<(String, String)> {
    let mut v: Vec<_> = defs
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect();
    v.sort();
    v
}

fn run_tiny(workload: Workload, trace: &str) {
    let golden = repo_root().join("results/golden");
    let (code, stdout) = bench(
        &[
            "--workload",
            workload.name(),
            "--seed",
            "3",
            "--seconds",
            "0",
            "--trace",
            trace,
            "--scale",
            "tiny",
        ],
        &golden,
    );
    let (correct, attempted, failed, metrics) = result_line(&stdout);
    assert!(correct && failed == 0 && attempted > 0, "{stdout}");
    assert_eq!(code, Some(0), "{stdout}");
    let defs = if trace == "1" { PER_LAYER } else { END_TO_END };
    assert_eq!(metrics, names_and_units(defs));
}

#[test]
fn chip_bursty_passes_the_exactness_gate() {
    run_tiny(Workload::ChipBursty, "0");
    run_tiny(Workload::ChipBursty, "1");
}

#[test]
fn fleet_stream_passes_the_exactness_gate() {
    run_tiny(Workload::FleetStream, "0");
    run_tiny(Workload::FleetStream, "1");
}

#[test]
fn paper_sweep_passes_the_exactness_gate() {
    run_tiny(Workload::PaperSweep, "0");
    run_tiny(Workload::PaperSweep, "1");
}

#[test]
fn a_wrong_golden_cell_fails_the_run() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("wrong-golden");
    std::fs::create_dir_all(&dir).expect("create golden copy");
    let golden = repo_root().join("results/golden");
    for f in ["fig12_throughput.tsv", "fig13_sla.tsv"] {
        let text = std::fs::read_to_string(golden.join(f)).expect("read golden");
        // Every planaria satisfaction rate of 100% becomes 99%.
        std::fs::write(dir.join(f), text.replace("\t100%\t", "\t99%\t")).expect("write copy");
    }
    let (code, stdout) = bench(
        &[
            "--workload",
            "paper-sweep",
            "--seconds",
            "0",
            "--scale",
            "tiny",
        ],
        &dir,
    );
    let (correct, attempted, failed, _) = result_line(&stdout);
    assert!(!correct && failed > 0 && failed <= attempted, "{stdout}");
    assert_eq!(code, Some(1));
}

#[test]
fn usage_errors_print_no_result() {
    let (code, stdout) = bench(&["--workload", "no-such-workload"], Path::new("."));
    assert_eq!(code, Some(2));
    assert!(stdout.is_empty());
}
