//! Std-only micro-benchmarks of the simulator's own kernels: per-layer
//! timing evaluation, whole-network compilation, scheduler decisions, and
//! the multi-tenant event loop. These quantify the cost of regenerating
//! the paper's experiments.
//!
//! Runs under `cargo bench -p planaria-bench`; uses a plain
//! `Instant`-based harness so the workspace stays free of external
//! dependencies and builds offline. (This is wall-clock measurement
//! infrastructure, not simulation logic, so `Instant::now` is fine here —
//! the `planaria-checks` determinism lint only polices simulation crates.)

use planaria_arch::{AcceleratorConfig, Arrangement};
use planaria_bench::time_per_iter;
use planaria_compiler::{compile, compile_uncached, CompiledLibrary};
use planaria_core::{min_slack_cycles, schedule_tasks_spatially, PlanariaEngine, SchedTask};
use planaria_model::{ConvSpec, DnnId, LayerOp};
use planaria_parallel::{effective_jobs, par_map};
use planaria_prema::PremaEngine;
use planaria_timing::{time_layer, ExecContext};
use planaria_workload::{QosLevel, Scenario, TraceConfig};
use std::fmt::Write as _;
use std::hint::black_box;

/// Runs `f` for `iters` iterations, reports mean latency per iteration,
/// and returns it in seconds (for the machine-readable record).
fn bench(name: &str, iters: u32, f: impl FnMut()) -> f64 {
    let per_iter = time_per_iter(iters, f);
    let (scaled, unit) = if per_iter >= 1e-3 {
        (per_iter * 1e3, "ms")
    } else {
        (per_iter * 1e6, "us")
    };
    println!("{name:<44} {scaled:>10.3} {unit}/iter  ({iters} iters)");
    per_iter
}

fn bench_layer_timing() {
    let cfg = AcceleratorConfig::planaria();
    let ctx = ExecContext::full_chip(&cfg);
    let conv = LayerOp::Conv(ConvSpec::new(256, 512, 3, 3, 1, 1, 28, 28));
    bench("timing/conv_layer_all_arrangements", 200, || {
        for arr in Arrangement::enumerate(16) {
            black_box(time_layer(&ctx, black_box(&conv), arr));
        }
    });
}

fn bench_compile(record: &mut Vec<(String, f64)>) {
    let cfg = AcceleratorConfig::planaria();
    let net = DnnId::ResNet50.build();
    let cold = bench("compiler/resnet50_16_tables_uncached", 10, || {
        black_box(compile_uncached(&cfg, black_box(&net)));
    });
    let memo = bench("compiler/resnet50_16_tables_memoized", 20, || {
        black_box(compile(&cfg, black_box(&net)));
    });
    record.push(("compile_resnet50_uncached_s".into(), cold));
    record.push(("compile_resnet50_memoized_s".into(), memo));
    record.push(("memoization_speedup".into(), cold / memo));
}

/// Full nine-network library compilation: single-threaded vs the pool at
/// the host's effective job count (on a 1-core host the two coincide and
/// only the memoization win shows).
fn bench_library_compile(record: &mut Vec<(String, f64)>) {
    let cfg = AcceleratorConfig::planaria();
    // The pre-memoization baseline: every network compiled with the
    // reference (memo-free) per-layer search, serially.
    let cold = bench("compiler/library_compile_uncached", 3, || {
        for id in DnnId::ALL {
            black_box(compile_uncached(&cfg, &id.build()));
        }
    });
    let serial = bench("compiler/library_compile_jobs1", 3, || {
        black_box(CompiledLibrary::with_jobs(cfg, 1));
    });
    let jobs = effective_jobs();
    let par = bench(&format!("compiler/library_compile_jobs{jobs}"), 3, || {
        black_box(CompiledLibrary::with_jobs(cfg, jobs));
    });
    record.push(("library_compile_uncached_s".into(), cold));
    record.push(("library_compile_jobs1_s".into(), serial));
    record.push(("library_compile_jobs_effective_s".into(), par));
    record.push(("library_memoization_speedup".into(), cold / serial));
    record.push(("library_parallel_speedup".into(), serial / par));
}

/// `par_map` scaling on a CPU-bound kernel (layer timing over all
/// arrangements), at 1/2/4 workers. Scaling beyond the host's core count
/// only adds scheduling overhead, which this bench makes visible.
fn bench_par_map_scaling(record: &mut Vec<(String, f64)>) {
    let cfg = AcceleratorConfig::planaria();
    let ctx = ExecContext::full_chip(&cfg);
    let items: Vec<u64> = (0..32).collect();
    for jobs in [1usize, 2, 4] {
        let name = format!("parallel/par_map_layer_timing_jobs{jobs}");
        let t = bench(&name, 5, || {
            black_box(par_map(items.clone(), jobs, |i| {
                let conv = LayerOp::Conv(ConvSpec::new(64 + i, 128, 3, 3, 1, 1, 28, 28));
                Arrangement::enumerate(16)
                    .into_iter()
                    .map(|arr| time_layer(&ctx, &conv, arr).cycles)
                    .max()
            }));
        });
        record.push((format!("par_map_layer_timing_jobs{jobs}_s"), t));
    }
}

/// Writes the machine-readable record the PR acceptance asks for:
/// `results/BENCH_compile.json`, keyed measurement → seconds (or ratio),
/// plus the host's core count so speedups can be judged in context.
fn emit_json(record: &[(String, f64)]) {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"host_logical_cores\": {cores},");
    let _ = writeln!(s, "  \"effective_jobs\": {},", effective_jobs());
    for (i, (k, v)) in record.iter().enumerate() {
        let comma = if i + 1 == record.len() { "" } else { "," };
        let _ = writeln!(s, "  \"{k}\": {v:.9}{comma}");
    }
    s.push_str("}\n");
    let path = planaria_bench::results_dir().join("BENCH_compile.json");
    match std::fs::create_dir_all(planaria_bench::results_dir())
        .and_then(|()| std::fs::write(&path, s))
    {
        Ok(()) => println!("[written {}]", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

fn bench_scheduler() {
    let cfg = AcceleratorConfig::planaria();
    let nets: Vec<_> = DnnId::ALL
        .iter()
        .map(|id| compile(&cfg, &id.build()))
        .collect();
    let tasks: Vec<SchedTask<'_>> = nets
        .iter()
        .enumerate()
        .map(|(i, n)| SchedTask {
            priority: (i as u32 % 11) + 1,
            slack: ((0.005 + 0.001 * i as f64) * cfg.freq_hz) as i64,
            done: 0.1 * i as f64 / 9.0,
            compiled: n,
        })
        .collect();
    bench("scheduler/algorithm1_nine_tasks", 2000, || {
        black_box(schedule_tasks_spatially(
            black_box(&tasks),
            16,
            min_slack_cycles(cfg.freq_hz),
        ));
    });
}

fn bench_engines() {
    let planaria = PlanariaEngine::new(AcceleratorConfig::planaria());
    let prema = PremaEngine::new_default();
    let trace = TraceConfig::new(Scenario::C, QosLevel::Medium, 100.0, 200, 1).generate();
    bench("engine/planaria_200_requests", 10, || {
        black_box(planaria.run(&trace));
    });
    bench("engine/prema_200_requests", 10, || {
        black_box(prema.run(&trace));
    });
}

fn main() {
    let mut record = Vec::new();
    bench_layer_timing();
    bench_compile(&mut record);
    bench_library_compile(&mut record);
    bench_par_map_scaling(&mut record);
    bench_scheduler();
    bench_engines();
    emit_json(&record);
}
