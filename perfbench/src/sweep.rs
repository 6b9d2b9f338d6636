//! `paper-sweep`: the Fig. 12 throughput bisection and the Fig. 13 SLA
//! sweep over the full scenario × QoS grid, on both engines — thousands
//! of 400-request simulations, each short enough that its fixed cost
//! outweighs backlog depth. It is the one workload where PREMA's policy
//! runs.
//!
//! A repetition is one pass over the grid, computed with
//! `planaria_bench`'s definitions (`trace_config`, `PROBE_SEEDS`,
//! `rate_seeds`, `probe_rate`, `ratio_label`, the bisection bounds) and
//! `planaria_workload`'s `max_throughput` and `sla_satisfaction_rate`.
//! Each simulation makes the calls `run_planaria` / `run_prema` make —
//! `TraceConfig::generate`, then `planaria_sim::run` with the engine's
//! policy and a `NullCollector` — with both boundaries wrapped. Every cell
//! is compared with the committed goldens. The seed only shuffles the order
//! the cells run in: the goldens fix the simulations themselves.

use crate::probe::{generate, Acc, Meter, Timed};
use crate::report::zero_layers;
use crate::{Bench, Options, Rep, Scale};
use planaria_arch::AcceleratorConfig;
use planaria_bench::{
    grid, probe_rate, rate_seeds, ratio_label, trace_config, PROBE_SEEDS, THROUGHPUT_CEIL,
    THROUGHPUT_FLOOR, THROUGHPUT_ITERS,
};
use planaria_compiler::CompiledLibrary;
use planaria_core::PlanariaEngine;
use planaria_model::SplitMix64;
use planaria_prema::{Policy, PremaEngine};
use planaria_telemetry::NullCollector;
use planaria_workload::{max_throughput, sla_satisfaction_rate, Completion, QosLevel, Scenario};
use std::collections::BTreeMap;
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// Which engine a simulation runs on.
#[derive(Debug, Clone, Copy)]
enum Engine {
    Planaria,
    Prema,
}

/// Golden rows keyed by `(workload, qos)`.
type Golden = BTreeMap<(String, String), String>;

/// Reads a golden TSV (header skipped), read-only.
fn read_golden(path: &std::path::Path) -> Result<Golden, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(text
        .lines()
        .skip(1)
        .filter_map(|line| {
            let mut cols = line.split('\t');
            let key = (cols.next()?.to_string(), cols.next()?.to_string());
            Some((key, line.to_string()))
        })
        .collect())
}

/// What one pass accumulated across its simulations.
#[derive(Debug, Default)]
struct Pass {
    runs: u64,
    failed_runs: u64,
    requests: u64,
    run_ms: Vec<f64>,
    run_s: f64,
    generate: Acc,
    core: Acc,
    prema: Acc,
    spans: Vec<(&'static str, Instant, Instant, Option<usize>)>,
}

/// A set-up `paper-sweep` run.
pub struct Sweep {
    planaria: PlanariaEngine,
    prema: PremaEngine,
    cells: Vec<(Scenario, QosLevel)>,
    fig12: Golden,
    fig13: Golden,
}

impl Sweep {
    /// Compiles both engines' libraries and reads the goldens. Returns
    /// the seconds spent compiling alongside.
    pub fn setup(opts: &Options) -> Result<(Self, f64), String> {
        let t = Instant::now();
        let planaria = CompiledLibrary::new(AcceleratorConfig::planaria());
        let monolithic = CompiledLibrary::new(AcceleratorConfig::monolithic());
        let library_s = t.elapsed().as_secs_f64();
        let mut cells = grid();
        // Fisher-Yates shuffle of the cell order.
        let mut rng = SplitMix64::new(opts.seed);
        for i in (1..cells.len()).rev() {
            let j = usize::try_from(rng.next_below(i as u64 + 1)).map_err(|e| e.to_string())?;
            cells.swap(i, j);
        }
        if opts.scale == Scale::Tiny {
            cells.truncate(1);
        }
        Ok((
            Self {
                planaria: PlanariaEngine::with_library(planaria),
                prema: PremaEngine::with_library(monolithic, Policy::Prema),
                cells,
                fig12: read_golden(&opts.golden_dir.join("fig12_throughput.tsv"))?,
                fig13: read_golden(&opts.golden_dir.join("fig13_sla.tsv"))?,
            },
            library_s,
        ))
    }

    /// One simulation: `run_planaria` / `run_prema` with both boundaries
    /// wrapped.
    fn run<const ON: bool>(
        &self,
        engine: Engine,
        cell: (Scenario, QosLevel),
        lambda: f64,
        seed: u64,
        pass: &Mutex<Pass>,
    ) -> Vec<Completion> {
        let (mut gen_acc, mut policy_acc) = (Acc::default(), Acc::default());
        let start = Instant::now();
        let trace = generate::<ON>(
            &trace_config(cell.0, cell.1, lambda, seed),
            &mut Meter::new(&mut gen_acc),
        );
        let result = match engine {
            Engine::Planaria => planaria_sim::run(
                self.planaria.library().config(),
                &trace,
                &mut Timed::<_, ON>::new(
                    self.planaria.spatial_policy(),
                    Meter::new(&mut policy_acc),
                ),
                &mut NullCollector,
            ),
            Engine::Prema => planaria_sim::run(
                self.prema.library().config(),
                &trace,
                &mut Timed::<_, ON>::new(self.prema.node_policy(), Meter::new(&mut policy_acc)),
                &mut NullCollector,
            ),
        };
        let end = Instant::now();
        // Merged once per simulation, after it ends.
        let mut p = pass.lock().unwrap_or_else(PoisonError::into_inner);
        p.runs += 1;
        p.failed_runs += u64::from(result.completions.len() != trace.len());
        p.requests += trace.len() as u64;
        p.run_ms.push(end.duration_since(start).as_secs_f64() * 1e3);
        if ON {
            p.run_s += end.duration_since(start).as_secs_f64();
            p.generate.merge(&gen_acc);
            match engine {
                Engine::Planaria => p.core.merge(&policy_acc),
                Engine::Prema => p.prema.merge(&policy_acc),
            }
            p.spans.push(("sweep.run", start, end, None));
        }
        result.completions
    }

    /// One grid cell: both throughputs (Fig. 12), then both satisfaction
    /// rates at the shared probe rate (Fig. 13). Returns both TSV rows.
    fn cell<const ON: bool>(
        &self,
        cell: (Scenario, QosLevel),
        pass: &Mutex<Pass>,
    ) -> (String, String) {
        let throughput = |engine| {
            max_throughput(
                |lambda, seed| self.run::<ON>(engine, cell, lambda, seed, pass),
                &PROBE_SEEDS,
                THROUGHPUT_FLOOR,
                THROUGHPUT_CEIL,
                THROUGHPUT_ITERS,
            )
        };
        let (thr_p, thr_r) = (throughput(Engine::Planaria), throughput(Engine::Prema));
        let lambda = probe_rate(thr_p, thr_r);
        let rate = |engine| {
            sla_satisfaction_rate(
                |seed| self.run::<ON>(engine, cell, lambda, seed, pass),
                &rate_seeds(),
            )
        };
        let (p, r) = (rate(Engine::Planaria), rate(Engine::Prema));
        let (s, q) = cell;
        (
            format!(
                "{s}\t{q}\t{thr_p:.1}\t{thr_r:.1}\t{}",
                ratio_label(thr_p, thr_r)
            ),
            format!(
                "{s}\t{q}\t{lambda:.1}\t{:.0}%\t{:.0}%\t+{:.0}pp",
                p * 100.0,
                r * 100.0,
                (p - r) * 100.0
            ),
        )
    }
}

impl Bench for Sweep {
    /// Every pass runs the same grid: the goldens fix its inputs.
    fn rep<const ON: bool>(&mut self, _batch: u64) -> Rep {
        let pass = Mutex::new(Pass::default());
        let mut rows = BTreeMap::new();
        let mut failed_cells = Vec::new();
        let mut failed = 0u64;
        let floor = crate::alloc::window();
        let start = Instant::now();
        for &cell in &self.cells {
            let runs_so_far = || pass.lock().unwrap_or_else(PoisonError::into_inner).runs;
            let before = runs_so_far();
            let got = crate::guarded(|| self.cell::<ON>(cell, &pass));
            let runs = runs_so_far() - before;
            let key = (cell.0.to_string(), cell.1.to_string());
            let matches = got.as_ref().is_ok_and(|(r12, r13)| {
                self.fig12.get(&key) == Some(r12) && self.fig13.get(&key) == Some(r13)
            });
            if !matches {
                // Every simulation of a wrong cell counts as failed.
                failed += runs.max(1);
                failed_cells.push(format!("{}/{}: {got:?}", key.0, key.1));
            }
            rows.insert(key, got.unwrap_or_default());
        }
        let end = Instant::now();
        let peak_bytes = crate::alloc::peak_above(floor);
        let pass = pass.into_inner().unwrap_or_else(PoisonError::into_inner);

        let outcome = if failed_cells.is_empty() {
            format!("{} cells equal to the goldens", rows.len())
        } else {
            format!(
                "cells differing from the goldens: {}",
                failed_cells.join("; ")
            )
        };
        let mut layers = zero_layers();
        if ON {
            let events = (pass.core.count() + pass.prema.count()) as f64;
            let kernel_self =
                pass.run_s - pass.generate.total_s() - pass.core.total_s() - pass.prema.total_s();
            for (name, v) in [
                ("core.reschedule_calls", pass.core.count() as f64),
                ("core.reschedule_s", pass.core.total_s()),
                ("core.reschedule_p50_ns", pass.core.percentile_ns(50)),
                ("core.reschedule_p99_ns", pass.core.percentile_ns(99)),
                (
                    "core.tenants_per_call",
                    pass.core.tenants as f64 / (pass.core.count().max(1)) as f64,
                ),
                ("prema.reschedule_calls", pass.prema.count() as f64),
                ("prema.reschedule_s", pass.prema.total_s()),
                ("prema.reschedule_p99_ns", pass.prema.percentile_ns(99)),
                ("sim.events", events),
                ("sim.kernel_self_s", kernel_self),
                (
                    "sim.kernel_ns_per_event",
                    kernel_self * 1e9 / events.max(1.0),
                ),
                ("workload.trace_generate_s", pass.generate.total_s()),
            ] {
                layers.insert(name, v);
            }
        }
        Rep {
            outcome,
            requests: pass.requests,
            start,
            end,
            peak_bytes,
            run_ms: pass.run_ms,
            attempted: pass.runs.max(1),
            failed: (failed + pass.failed_runs).min(pass.runs.max(1)),
            layers,
            spans: pass.spans,
        }
    }

    fn verify(&mut self, outcome: &str) -> Result<(), String> {
        // Every cell was byte-compared with the goldens inside each pass.
        if outcome.contains("differing") {
            Err(outcome.to_string())
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Workload;
    use planaria_bench::{run_planaria, run_prema, Systems};
    use std::path::Path;

    #[test]
    fn wrapped_runs_equal_the_bench_helpers() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        let opts = Options {
            workload: Workload::PaperSweep,
            seed: 1,
            seconds: 0.0,
            trace: false,
            scale: Scale::Tiny,
            golden_dir: root.join("results/golden"),
            tmp_dir: root.join(".bench_tmp"),
        };
        let (sweep, _) = Sweep::setup(&opts).expect("set up");
        let sys = Systems::new();
        let pass = Mutex::new(Pass::default());
        let (s, q) = (Scenario::C, QosLevel::Medium);
        for (lambda, seed) in [(90.0, 11), (600.0, 104)] {
            let bench_p = run_planaria(&sys, s, q, lambda, seed).completions;
            let bench_r = run_prema(&sys, s, q, lambda, seed).completions;
            assert_eq!(
                sweep.run::<false>(Engine::Planaria, (s, q), lambda, seed, &pass),
                bench_p
            );
            assert_eq!(
                sweep.run::<true>(Engine::Planaria, (s, q), lambda, seed, &pass),
                bench_p
            );
            assert_eq!(
                sweep.run::<false>(Engine::Prema, (s, q), lambda, seed, &pass),
                bench_r
            );
            assert_eq!(
                sweep.run::<true>(Engine::Prema, (s, q), lambda, seed, &pass),
                bench_r
            );
        }
        let pass = pass.into_inner().expect("no panic");
        assert_eq!((pass.runs, pass.failed_runs), (8, 0));
        assert!(pass.core.count() > 0 && pass.prema.count() > 0);
    }
}
