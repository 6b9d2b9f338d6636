//! `chip-bursty`: one paper chip under the bursty QoS-H Scenario-C trace
//! (λ = 500 req/s, burstiness 6). Bursts keep a deep backlog of live
//! tenants, so Algorithm 1 dominates. Each simulation is streamed, retires
//! through `SpillSink`, and is digested by replaying its spill from disk.
//!
//! A repetition is a batch of simulations, each on its own trace seed
//! drawn from `--seed`. It is the workload's operation: `run_p50_ms` and
//! `run_p99_ms` are taken over repetition times, and a repetition fails
//! when any of its simulations does.

use crate::probe::{Acc, Meter, Timed};
use crate::report::zero_layers;
use crate::{fingerprint, reference, sim_seeds, Bench, Options, Rep, Scale};
use planaria_arch::AcceleratorConfig;
use planaria_compiler::CompiledLibrary;
use planaria_core::PlanariaEngine;
use planaria_model::units::Picojoules;
use planaria_sim::{run_streamed_sink, NodeSummary};
use planaria_telemetry::NullCollector;
use planaria_workload::{DigestBuilder, QosLevel, Scenario, SpillSink, TraceConfig};
use std::io;
use std::path::PathBuf;
use std::time::Instant;

/// `(simulations per repetition, requests per simulation)`.
pub fn size(scale: Scale) -> (usize, usize) {
    match scale {
        Scale::Full => (40, 5_000),
        Scale::Tiny => (2, 1_000),
    }
}

/// The workload's trace: the kernel and scale benches' bursty trace.
pub fn trace_config(requests: usize, seed: u64) -> TraceConfig {
    TraceConfig::new(Scenario::C, QosLevel::Hard, 500.0, requests, seed).with_burstiness(6.0)
}

/// A set-up `chip-bursty` run.
pub struct Chip {
    engine: PlanariaEngine,
    sims: usize,
    requests: usize,
    seed: u64,
    spill_dir: PathBuf,
}

/// One simulation's exactness fingerprint.
fn sim_outcome(requests: u64, digest: u64) -> String {
    format!("{requests}:{digest:#018x}")
}

/// Replays a finished spill into a digest, recombining the id-order
/// dynamic energy with the kernel's static energy — the association
/// `SimResult::digest` uses. Returns the digest and the records replayed.
fn replay(spill: SpillSink, summary: &NodeSummary) -> io::Result<(u64, u64)> {
    let mut reader = spill.finish()?;
    let mut digest = DigestBuilder::new(summary.completed);
    let mut dynamic = Picojoules::ZERO;
    let mut replayed = 0u64;
    while let Some(c) = reader.try_next()? {
        digest.completion(&c);
        dynamic += c.energy;
        replayed += 1;
    }
    Ok((
        digest.finish(dynamic + summary.static_energy, summary.makespan),
        replayed,
    ))
}

impl Chip {
    /// Compiles the paper chip's library and builds the engine. Returns
    /// the seconds spent compiling alongside.
    pub fn setup(opts: &Options) -> Result<(Self, f64), String> {
        let t = Instant::now();
        let library = CompiledLibrary::new(AcceleratorConfig::planaria());
        let library_s = t.elapsed().as_secs_f64();
        let (sims, requests) = size(opts.scale);
        Ok((
            Self {
                engine: PlanariaEngine::with_library(library),
                sims,
                requests,
                seed: opts.seed,
                spill_dir: opts.tmp_dir.clone(),
            },
            library_s,
        ))
    }

    /// The traces of batch `batch`.
    fn traces(&self, batch: u64) -> Vec<TraceConfig> {
        sim_seeds(self.seed, batch, self.sims)
            .map(|s| trace_config(self.requests, s))
            .collect()
    }

    fn outcome(&self, sims: &[String]) -> String {
        format!(
            "sims={} requests={} fingerprint={:#018x}",
            sims.len(),
            sims.len() * self.requests,
            fingerprint(sims)
        )
    }
}

impl Bench for Chip {
    fn rep<const ON: bool>(&mut self, batch: u64) -> Rep {
        let traces = self.traces(batch);
        let (mut policy_acc, mut trace_acc, mut sink_acc) =
            (Acc::default(), Acc::default(), Acc::default());
        let cfg = *self.engine.library().config();
        let mut sims = Vec::with_capacity(traces.len());
        let mut spans = Vec::new();
        let (mut failed, mut spill_bytes, mut run_s, mut replay_s) = (0u64, 0u64, 0.0, 0.0);

        let floor = crate::alloc::window();
        let start = Instant::now();
        for trace in &traces {
            let mut policy =
                Timed::<_, ON>::new(self.engine.spatial_policy(), Meter::new(&mut policy_acc));
            let stream = Timed::<_, ON>::new(trace.stream(), Meter::new(&mut trace_acc));
            let sink =
                Timed::<_, ON>::new(SpillSink::new(&self.spill_dir), Meter::new(&mut sink_acc));
            let sim_start = Instant::now();
            let (sink, summary) =
                run_streamed_sink(&cfg, stream, &mut policy, &mut NullCollector, sink);
            let run_end = Instant::now();
            let spill = sink.into_inner();
            spill_bytes += spill.recorded * planaria_workload::sink::RECORD_BYTES as u64;
            let replayed = replay(spill, &summary);
            let sim_end = Instant::now();

            let requests = trace.requests as u64;
            match replayed {
                Ok((digest, n)) => {
                    failed += u64::from(n != requests || summary.completed != requests);
                    sims.push(sim_outcome(n, digest));
                }
                Err(e) => {
                    failed += 1;
                    sims.push(format!("spill replay failed: {e}"));
                }
            }
            if ON {
                run_s += run_end.duration_since(sim_start).as_secs_f64();
                replay_s += sim_end.duration_since(run_end).as_secs_f64();
                let sim = spans.len();
                spans.push(("chip.sim", sim_start, sim_end, None));
                spans.push(("chip.spill_replay", run_end, sim_end, Some(sim)));
            }
        }
        let end = Instant::now();
        let peak_bytes = crate::alloc::peak_above(floor);

        let mut layers = zero_layers();
        if ON {
            let children = policy_acc.total_s() + trace_acc.total_s() + sink_acc.total_s();
            let events = policy_acc.count() as f64;
            let kernel_self = run_s - children;
            for (name, v) in [
                ("core.reschedule_calls", policy_acc.count() as f64),
                ("core.reschedule_s", policy_acc.total_s()),
                ("core.reschedule_p50_ns", policy_acc.percentile_ns(50)),
                ("core.reschedule_p99_ns", policy_acc.percentile_ns(99)),
                (
                    "core.tenants_per_call",
                    policy_acc.tenants as f64 / events.max(1.0),
                ),
                // The kernel calls `reschedule` once per wake-up.
                ("sim.events", events),
                ("sim.kernel_self_s", kernel_self),
                (
                    "sim.kernel_ns_per_event",
                    kernel_self * 1e9 / events.max(1.0),
                ),
                ("workload.trace_pulls", trace_acc.count() as f64),
                ("workload.trace_s", trace_acc.total_s()),
                ("workload.sink_records", sink_acc.count() as f64),
                ("workload.sink_record_s", sink_acc.total_s()),
                ("workload.spill_bytes", spill_bytes as f64),
                ("workload.spill_replay_s", replay_s),
            ] {
                layers.insert(name, v);
            }
        }
        Rep {
            outcome: self.outcome(&sims),
            requests: (traces.len() * self.requests) as u64,
            start,
            end,
            peak_bytes,
            run_ms: vec![end.duration_since(start).as_secs_f64() * 1e3],
            attempted: 1,
            failed: u64::from(failed > 0),
            layers,
            spans,
        }
    }

    fn verify(&mut self, outcome: &str) -> Result<(), String> {
        // Independent path: each trace simulated in memory and digested
        // from its completion vector.
        let cfg = *self.engine.library().config();
        let sims: Vec<String> = self
            .traces(0)
            .iter()
            .map(|trace| {
                let result = planaria_sim::run_streamed(
                    &cfg,
                    trace.stream(),
                    &mut self.engine.spatial_policy(),
                    &mut NullCollector,
                );
                sim_outcome(result.completions.len() as u64, result.digest())
            })
            .collect();
        let in_memory = self.outcome(&sims);
        if in_memory != outcome {
            return Err(format!("spill replay {outcome} != in-memory {in_memory}"));
        }
        reference::check("chip-bursty", self.seed, self.requests, outcome)
    }
}
