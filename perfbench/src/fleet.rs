//! `fleet-stream`: eight identical paper chips behind `LeastWork`
//! dispatch, Scenario C at QoS-M and λ = 2500 req/s, streamed through the
//! flat-memory stats path (per-node `StatsCollector`, no completion
//! vector). Fewer than one live tenant per reschedule, so dispatch, fabric
//! rounds, trace pulls and telemetry carry the run.
//!
//! A repetition is a batch of simulations, each on its own trace seed
//! drawn from `--seed`, with as many requests in all as the `ext_dispatch`
//! run. It is the workload's operation: `run_p50_ms` and `run_p99_ms` are
//! taken over repetition times, and a repetition fails when any of its
//! simulations does. Each simulation makes exactly the calls
//! `run_cluster_stats` makes, with every boundary wrapped; verification
//! re-runs `run_cluster_stats` itself on two workers and requires the same
//! stats.

use crate::probe::{Acc, FabricClock, Meter, RoundSlice, Site, Timed};
use crate::report::zero_layers;
use crate::{fingerprint, reference, sim_seeds, Bench, Options, Rep, Scale};
use planaria_arch::AcceleratorConfig;
use planaria_compiler::CompiledLibrary;
use planaria_core::{
    run_cluster_stats, ClusterDispatcher, DispatchPolicy, FabricTuning, PlanariaEngine,
};
use planaria_model::units::Picojoules;
use planaria_sim::run_fabric_summary;
use planaria_telemetry::{Metric, MetricsReport, StatsCollector};
use planaria_workload::{QosLevel, Scenario, TraceConfig};
use std::collections::BTreeMap;
use std::time::Instant;

/// Nodes in the fleet.
pub const NODES: usize = 8;

/// Collector hooks are timed one call in this many (see [`crate::probe`]).
const HOOK_SAMPLING: u64 = 16;

/// `(simulations per repetition, requests per simulation)`.
pub fn size(scale: Scale) -> (usize, usize) {
    match scale {
        Scale::Full => (40, 25_000),
        Scale::Tiny => (2, 2_000),
    }
}

/// The workload's trace: the `ext_dispatch` extension's setup.
pub fn trace_config(requests: usize, seed: u64) -> TraceConfig {
    TraceConfig::new(Scenario::C, QosLevel::Medium, 2_500.0, requests, seed)
}

/// A set-up `fleet-stream` run.
pub struct Fleet {
    engine: PlanariaEngine,
    sims: usize,
    requests: usize,
    seed: u64,
}

/// One simulation's exactness fingerprint.
fn sim_outcome(
    completed: u64,
    energy: Picojoules,
    makespan: f64,
    metrics: &MetricsReport,
) -> String {
    let latency = metrics.sketch(Metric::LatencyCycles);
    let p = |n| latency.and_then(|s| s.value_at_ratio(n, 100)).unwrap_or(0);
    format!(
        "{completed}:{:#018x}:{:#018x}:{}:{}",
        energy.as_pj().to_bits(),
        makespan.to_bits(),
        p(50),
        p(99)
    )
}

impl Fleet {
    /// Compiles the chip's library, builds the engine and one dispatcher.
    /// Returns the seconds spent compiling alongside.
    pub fn setup(opts: &Options) -> Result<(Self, f64), String> {
        let t = Instant::now();
        let library = CompiledLibrary::new(AcceleratorConfig::planaria());
        let library_s = t.elapsed().as_secs_f64();
        let engine = PlanariaEngine::with_library(library);
        // Dispatcher construction (per-network work tables) is set-up
        // cost; each simulation then builds its own from the same tables.
        std::hint::black_box(ClusterDispatcher::new(
            engine.library(),
            NODES,
            DispatchPolicy::LeastWork,
        ));
        let (sims, requests) = size(opts.scale);
        Ok((
            Self {
                engine,
                sims,
                requests,
                seed: opts.seed,
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

/// Per-round imbalance ratios from one simulation's node round slices. A
/// node's busy span in a round runs from its first timed call to its last;
/// the ratio of the slowest node's span to the mean is the share of a
/// parallel round the other workers would spend waiting at the barrier.
fn imbalance(nodes: &[Vec<RoundSlice>]) -> Vec<f64> {
    let mut by_round: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for slices in nodes {
        for s in slices {
            by_round.entry(s.epoch).or_default().push(s.span_ns());
        }
    }
    by_round
        .values()
        .filter_map(|spans| {
            let max = *spans.iter().max()? as f64;
            let mean = spans.iter().sum::<u64>() as f64 / NODES as f64;
            (mean > 0.0).then(|| max / mean)
        })
        .collect()
}

/// Merges one node's policy and collector slices round by round.
fn merge_node(a: &[RoundSlice], b: &[RoundSlice]) -> Vec<RoundSlice> {
    let mut by_round: BTreeMap<u64, RoundSlice> = BTreeMap::new();
    for s in a.iter().chain(b) {
        by_round
            .entry(s.epoch)
            .and_modify(|m| {
                m.first = m.first.min(s.first);
                m.last = m.last.max(s.last);
            })
            .or_insert(*s);
    }
    by_round.into_values().collect()
}

/// Traced totals of one repetition.
#[derive(Default)]
struct Tally {
    policy: Vec<Acc>,
    hooks: Vec<Acc>,
    fabric: Acc,
    route: Acc,
    trace: Acc,
    events: u64,
    rounds: u64,
    round_s: f64,
    serial_s: f64,
    /// Wall time inside `run_fabric_summary`.
    fabric_s: f64,
    imbalance: Vec<f64>,
}

impl Tally {
    /// Folds the round slices of the simulation that just ended into the
    /// totals, and clears them for the next one.
    fn close_sim(&mut self, wall_s: f64) {
        let nodes: Vec<_> = self
            .policy
            .iter()
            .zip(&self.hooks)
            .map(|(p, h)| merge_node(&p.rounds, &h.rounds))
            .collect();
        self.imbalance.extend(imbalance(&nodes));
        let round_s: f64 = self
            .fabric
            .rounds
            .iter()
            .map(|r| r.span_ns() as f64 * 1e-9)
            .sum();
        self.round_s += round_s;
        self.serial_s += wall_s - round_s;
        for a in self.policy.iter_mut().chain(&mut self.hooks) {
            a.rounds.clear();
        }
        self.fabric.rounds.clear();
    }
}

impl Bench for Fleet {
    fn rep<const ON: bool>(&mut self, batch: u64) -> Rep {
        let traces = self.traces(batch);
        let mut t = Tally {
            policy: vec![Acc::default(); NODES],
            hooks: vec![Acc::default(); NODES],
            ..Tally::default()
        };
        let cfg = *self.engine.library().config();
        let cfgs = vec![cfg; NODES];
        let mut sims = Vec::with_capacity(traces.len());
        let mut spans = Vec::new();
        let mut failed = 0u64;

        // The benchmark's own accumulators stay below the floor.
        let floor = crate::alloc::window();
        let start = Instant::now();
        for trace in &traces {
            let clock = FabricClock::new();
            let policies: Vec<_> = t
                .policy
                .iter_mut()
                .map(|a| {
                    Timed::<_, ON>::new(
                        self.engine.spatial_policy(),
                        Meter::at(a, Site::Node(&clock)),
                    )
                })
                .collect();
            let sinks: Vec<_> = t
                .hooks
                .iter_mut()
                .map(|a| {
                    Timed::<_, ON>::new(
                        StatsCollector::new(),
                        Meter::sampled(a, Site::Node(&clock), HOOK_SAMPLING),
                    )
                })
                .collect();
            let mut fabric = Timed::<_, ON>::new(
                StatsCollector::new(),
                Meter::sampled(&mut t.fabric, Site::Barrier(&clock), HOOK_SAMPLING),
            );
            let mut dispatcher = Timed::<_, ON>::new(
                ClusterDispatcher::new(self.engine.library(), NODES, DispatchPolicy::LeastWork),
                Meter::at(&mut t.route, Site::Serial(&clock)),
            );
            let stream = Timed::<_, ON>::new(
                trace.stream(),
                Meter::at(&mut t.trace, Site::Serial(&clock)),
            );

            let sim_start = Instant::now();
            let (summary, stats, sinks) = run_fabric_summary(
                &cfgs,
                policies,
                stream,
                &mut dispatcher,
                &FabricTuning::default(),
                &mut fabric,
                sinks,
            );
            let fabric_end = Instant::now();
            let mut metrics = fabric.inner().report();
            for sink in &sinks {
                metrics.merge(&sink.inner().report());
            }
            let sim_end = Instant::now();
            drop((fabric, dispatcher, sinks));

            let wall_s = sim_end.duration_since(sim_start).as_secs_f64();
            failed += u64::from(summary.completed != trace.requests as u64);
            sims.push(sim_outcome(
                summary.completed,
                summary.total_energy,
                summary.makespan,
                &metrics,
            ));
            if ON {
                let sim = spans.len();
                spans.push(("fleet.sim", sim_start, sim_end, None));
                spans.extend(
                    t.fabric
                        .rounds
                        .iter()
                        .map(|r| ("fleet.round", r.first, r.last, Some(sim))),
                );
                t.events += stats.events;
                t.rounds += stats.rounds;
                t.fabric_s += fabric_end.duration_since(sim_start).as_secs_f64();
                // The wrappers must see exactly the fabric's rounds.
                failed += u64::from(t.fabric.rounds.len() as u64 != stats.rounds);
                t.close_sim(wall_s);
            }
        }
        let end = Instant::now();
        let peak_bytes = crate::alloc::peak_above(floor);

        let mut layers = zero_layers();
        if ON {
            let mut policy = Acc::default();
            let mut hooks = t.fabric.clone();
            for a in &t.policy {
                policy.merge(a);
            }
            for a in &t.hooks {
                hooks.merge(a);
            }
            // The policy wrappers must see exactly the kernel's wake-ups.
            failed += u64::from(policy.count() != t.events);
            let events = t.events as f64;
            // Everything the fabric did outside the timed boundaries (on
            // one worker, node work is serial wall time too).
            let kernel_self_s = t.fabric_s
                - (policy.total_s() + hooks.total_s() + t.route.total_s() + t.trace.total_s());
            let imbalance = t.imbalance.iter().sum::<f64>() / t.imbalance.len().max(1) as f64;
            for (name, v) in [
                ("core.reschedule_calls", policy.count() as f64),
                ("core.reschedule_s", policy.total_s()),
                ("core.reschedule_p50_ns", policy.percentile_ns(50)),
                ("core.reschedule_p99_ns", policy.percentile_ns(99)),
                (
                    "core.tenants_per_call",
                    policy.tenants as f64 / events.max(1.0),
                ),
                ("core.route_calls", t.route.count() as f64),
                ("core.route_s", t.route.total_s()),
                ("sim.events", events),
                ("sim.kernel_self_s", kernel_self_s),
                (
                    "sim.kernel_ns_per_event",
                    kernel_self_s * 1e9 / events.max(1.0),
                ),
                ("sim.fabric_rounds", t.rounds as f64),
                ("sim.fabric_round_s", t.round_s),
                ("sim.fabric_serial_s", t.serial_s),
                ("sim.fabric_imbalance", imbalance),
                ("telemetry.hook_calls", hooks.count() as f64),
                ("telemetry.hook_s", hooks.total_s()),
                ("workload.trace_pulls", t.trace.count() as f64),
                ("workload.trace_s", t.trace.total_s()),
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

    fn verify(&mut self, outcome_seen: &str) -> Result<(), String> {
        // Independent path: the library's own entry point, on two workers —
        // the fabric's results may not depend on the worker count.
        let jobs = std::env::var(planaria_parallel::JOBS_ENV).ok();
        std::env::set_var(planaria_parallel::JOBS_ENV, "2");
        let sims: Vec<String> = self
            .traces(0)
            .iter()
            .map(|trace| {
                let (cs, _) = run_cluster_stats(
                    &self.engine,
                    NODES,
                    trace.stream(),
                    DispatchPolicy::LeastWork,
                    &FabricTuning::default(),
                );
                sim_outcome(cs.completed, cs.total_energy, cs.makespan, &cs.metrics)
            })
            .collect();
        match jobs {
            Some(j) => std::env::set_var(planaria_parallel::JOBS_ENV, j),
            None => std::env::remove_var(planaria_parallel::JOBS_ENV),
        }
        let parallel = self.outcome(&sims);
        if parallel != outcome_seen {
            return Err(format!(
                "one worker {outcome_seen} != run_cluster_stats on two {parallel}"
            ));
        }
        reference::check("fleet-stream", self.seed, self.requests, outcome_seen)
    }
}
