//! The PREMA node engine: one task at a time on a monolithic 128×128
//! systolic accelerator, scheduled by the token-based policy.
//!
//! The integer-cycle event loop — admission, work advancement, exact
//! completion detection, retirement — lives in [`planaria_sim`]; this
//! module keeps only PREMA's *decisions*: token accrual, the
//! threshold + shortest-job pick, and the context-switch cost a
//! preemption charges to the incoming job.
//!
//! Tokens live in the tenant record ([`PolicyMemo::Tokens`]) as a bank
//! of the tenant's finished waits; a waiting tenant's current count is
//! [`tokens_at`] its bank, priority and `queued_since`. That is exact
//! because on a PREMA node `queued_since` marks the start of every wait:
//! the kernel sets it at admission (where the first reschedule runs),
//! and this policy resets it at each preemption and banks the wait when
//! the tenant is picked to run. The monolithic chip maps onto
//! the kernel as "the runner holds every subarray" (`alloc = total`),
//! so retirement, busy-time and completion logic are shared with
//! Planaria verbatim.

use crate::policy::{pick_with_threshold, tokens_at, Policy, PolicyTask};
use planaria_arch::{AcceleratorConfig, Arrangement};
use planaria_compiler::{CompiledDnn, CompiledLibrary};
use planaria_sim::{full_mask, EnginePolicy, PolicyMemo, SimClock, SimState, TenantState};
use planaria_telemetry::{Collector, Counter, Event, Metric, NullCollector};
use planaria_timing::{reconfiguration_cycles, ExecContext};
use planaria_workload::{Request, SimResult};
use std::sync::Arc;

/// A single node running the PREMA baseline.
#[derive(Debug, Clone)]
pub struct PremaEngine {
    library: CompiledLibrary,
    policy: Policy,
    /// Starvation threshold, seconds of priority-weighted waiting
    /// (converted to token units once per run).
    token_threshold: f64,
}

impl PremaEngine {
    /// Builds the engine with the paper's baseline hardware (monolithic
    /// TPU-like array, same budget as Planaria) and the PREMA policy.
    pub fn new_default() -> Self {
        Self::new(AcceleratorConfig::monolithic(), Policy::Prema)
    }

    /// Builds the engine with an explicit configuration and policy (FCFS /
    /// SJF are used by the scheduler ablation). Compilation goes through
    /// the process-wide [`CompiledLibrary::shared_for`] cache, so many
    /// engines on one geometry share a single compile.
    pub fn new(cfg: AcceleratorConfig, policy: Policy) -> Self {
        Self {
            library: CompiledLibrary::clone(&CompiledLibrary::shared_for(&cfg)),
            policy,
            token_threshold: crate::policy::TOKEN_THRESHOLD,
        }
    }

    /// Overrides the starvation token threshold, in seconds of
    /// priority-weighted waiting (sensitivity-study hook).
    pub fn with_token_threshold(mut self, threshold: f64) -> Self {
        self.token_threshold = threshold;
        self
    }

    /// Builds over an existing library (must be compiled for a monolithic
    /// configuration to be a faithful PREMA baseline).
    pub fn with_library(library: CompiledLibrary, policy: Policy) -> Self {
        Self {
            library,
            policy,
            token_threshold: crate::policy::TOKEN_THRESHOLD,
        }
    }

    /// The compiled library backing this engine.
    pub fn library(&self) -> &CompiledLibrary {
        &self.library
    }

    /// Simulates one trace (must be sorted by arrival time).
    ///
    /// # Panics
    ///
    /// Panics if the trace is not sorted by arrival.
    pub fn run(&self, trace: &[Request]) -> SimResult {
        self.run_with_collector(trace, &mut NullCollector)
    }

    /// Simulates one trace, streaming telemetry into `c`.
    ///
    /// The simulation never branches on the collector: with
    /// [`NullCollector`] every hook inlines to a no-op and the results are
    /// bit-identical to [`run`](Self::run).
    ///
    /// # Panics
    ///
    /// Panics if the trace is not sorted by arrival.
    pub fn run_with_collector<C: Collector>(&self, trace: &[Request], c: &mut C) -> SimResult {
        let cfg = *self.library.config();
        let mut policy = self.temporal_policy(&cfg);
        planaria_sim::run(&cfg, trace, &mut policy, c)
    }

    /// [`run`](Self::run) over a pull-based request source: requests are
    /// drawn lazily, so resident request memory is O(live tenants) and the
    /// results are bit-identical to the materialized path.
    ///
    /// # Panics
    ///
    /// Panics if the source yields arrivals out of order.
    pub fn run_streamed<I: IntoIterator<Item = Request>>(&self, requests: I) -> SimResult {
        let cfg = *self.library.config();
        let mut policy = self.temporal_policy(&cfg);
        planaria_sim::run_streamed(&cfg, requests, &mut policy, &mut NullCollector)
    }

    /// A fresh kernel policy for one simulation run (or one cluster
    /// node): token-based temporal multiplexing with this engine's
    /// threshold and its own private token state. Heterogeneous cluster
    /// fabrics mix these with Planaria's spatial policy.
    pub fn node_policy(&self) -> TemporalPolicy<'_> {
        self.temporal_policy(self.library.config())
    }

    fn temporal_policy(&self, cfg: &AcceleratorConfig) -> TemporalPolicy<'_> {
        let total = cfg.num_subarrays();
        TemporalPolicy {
            library: &self.library,
            policy: self.policy,
            threshold: SimClock::for_config(cfg)
                .duration_cycles(self.token_threshold)
                .get(),
            ctx: ExecContext::full_chip(cfg),
            mono: Arrangement::monolithic(total),
            mask: full_mask(total),
            total,
            running: None,
        }
    }
}

/// The PREMA scheduling policy plugged into the kernel: token-based
/// temporal multiplexing of the whole chip.
pub struct TemporalPolicy<'a> {
    library: &'a CompiledLibrary,
    policy: Policy,
    /// Starvation bar in token units (priority-weighted cycles).
    threshold: u64,
    ctx: ExecContext,
    mono: Arrangement,
    /// The whole-chip placement bitmask every runner owns.
    mask: u128,
    total: u32,
    /// Request id of the current occupant, if any.
    running: Option<u64>,
}

/// Tokens `t` banked over its finished waits.
fn banked(t: &TenantState) -> u64 {
    match t.memo {
        PolicyMemo::Tokens(tokens) => tokens,
        _ => 0,
    }
}

impl EnginePolicy for TemporalPolicy<'_> {
    fn compiled_for(&mut self, request: &Request) -> Arc<CompiledDnn> {
        self.library.shared(request.dnn)
    }

    fn admit_subarrays(&self) -> u32 {
        // The monolithic baseline has exactly one configuration table;
        // seed work accounting with it directly (never rescaled).
        self.total
    }

    fn reschedule<C: Collector>(&mut self, sim: &mut SimState, c: &mut C) {
        let now = sim.now;
        // The kernel retired the runner: the chip is free again.
        let running_idx = self.running.and_then(|id| sim.index_of(id));
        if running_idx.is_none() {
            self.running = None;
        }

        // Policy decision (a scheduling event fired), in one pass over
        // the tenants. Waiting tenants count their current wait on top
        // of their bank; the runner does not collect.
        let tasks = sim.tenants.iter().enumerate().map(|(i, t)| PolicyTask {
            index: i,
            tokens: if Some(i) == running_idx {
                banked(t)
            } else {
                tokens_at(banked(t), t.request.priority, t.queued_since, now)
            },
            arrival: t.arrival_cycle,
            remaining: t.remaining(),
        });
        let chosen_idx = pick_with_threshold(self.policy, tasks, self.threshold);
        let chosen_id = chosen_idx.map(|i| sim.tenants[i].request.id);
        if chosen_id != self.running {
            if let Some(cur) = running_idx {
                // The incumbent loses the accelerator mid-flight.
                if c.is_enabled() {
                    let t = &sim.tenants[cur];
                    c.record(
                        now,
                        Event::ExecSlice {
                            tenant: t.request.id,
                            subarrays: self.total,
                            mask: self.mask,
                            start: t.slice_start,
                            duration: now.saturating_sub(t.slice_start),
                        },
                    );
                    c.record(
                        now,
                        Event::Allocation {
                            tenant: t.request.id,
                            from: self.total,
                            to: 0,
                            mask: 0,
                        },
                    );
                }
                let t = &mut sim.tenants[cur];
                t.queued_since = now;
                t.alloc = 0;
                t.mask = 0;
            }
            if let Some(next) = chosen_idx {
                // Context switch: checkpoint the preempted job's tile and
                // restore the incoming job's weights/pipeline.
                if let Some(cur) = running_idx {
                    let cost = {
                        let t = &sim.tenants[cur];
                        let pos = t.compiled.table(self.total).position(t.fraction_done());
                        reconfiguration_cycles(&self.ctx, self.mono, self.mono, pos.tile_bytes)
                    };
                    if c.is_enabled() {
                        c.record(
                            now,
                            Event::Preemption {
                                preempted: sim.tenants[cur].request.id,
                                incoming: sim.tenants[next].request.id,
                                overhead: cost.total(),
                            },
                        );
                        c.add(Counter::Preemptions, 1);
                        c.sample(Metric::ReconfigCycles, cost.total().as_f64());
                    }
                    sim.tenants[next].overhead += cost.total();
                }
                let t = &mut sim.tenants[next];
                // The wait ends: bank it.
                t.memo = PolicyMemo::Tokens(tokens_at(
                    banked(t),
                    t.request.priority,
                    t.queued_since,
                    now,
                ));
                if c.is_enabled() {
                    let wait = now.saturating_sub(t.queued_since);
                    c.record(
                        now,
                        Event::QueueWait {
                            tenant: t.request.id,
                            start: t.queued_since,
                            duration: wait,
                        },
                    );
                    c.record(
                        now,
                        Event::Allocation {
                            tenant: t.request.id,
                            from: 0,
                            to: self.total,
                            mask: self.mask,
                        },
                    );
                    c.sample(Metric::QueueWaitCycles, wait.as_f64());
                    c.sample(Metric::AllocationSize, f64::from(self.total));
                }
                t.slice_start = now;
                t.alloc = self.total;
                t.mask = self.mask;
            }
            self.running = chosen_id;
        }
        if c.is_enabled() {
            c.add(Counter::SchedulingEvents, 1);
            let waiting = sim.tenants.len() - usize::from(self.running.is_some());
            c.sample(Metric::QueueDepth, waiting as f64);
            c.sample(
                Metric::OccupancyPct,
                if self.running.is_some() { 100.0 } else { 0.0 },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use planaria_model::units::Cycles;
    use planaria_model::DnnId;
    use planaria_workload::{Completion, QosLevel, Scenario, TraceConfig};
    use std::collections::BTreeMap;

    fn engine() -> PremaEngine {
        PremaEngine::new_default()
    }

    #[test]
    fn lone_task_runs_at_monolithic_isolated_speed() {
        let e = engine();
        let r = Request {
            id: 0,
            dnn: DnnId::GoogLeNet,
            arrival: 0.0,
            priority: 5,
            qos: 1.0,
        };
        let result = e.run(&[r]);
        let iso = e.library.isolated_latency(DnnId::GoogLeNet);
        let lat = result.completions[0].latency();
        assert!((lat / iso - 1.0).abs() < 0.01, "lat {lat} iso {iso}");
    }

    #[test]
    fn temporal_sharing_serializes_two_tasks() {
        let e = engine();
        let iso = e.library.isolated_latency(DnnId::ResNet50);
        let mk = |id| Request {
            id,
            dnn: DnnId::ResNet50,
            arrival: 0.0,
            priority: 5,
            qos: 1.0,
        };
        let result = e.run(&[mk(0), mk(1)]);
        let worst = result
            .completions
            .iter()
            .map(Completion::latency)
            .fold(0.0, f64::max);
        // Second task waits for the first: worst latency ≈ 2x isolated.
        assert!(worst > 1.8 * iso, "worst {worst} iso {iso}");
    }

    #[test]
    fn all_policies_complete_everything() {
        for policy in [Policy::Prema, Policy::Fcfs, Policy::Sjf] {
            let e = PremaEngine::new(AcceleratorConfig::monolithic(), policy);
            let trace = TraceConfig::new(Scenario::A, QosLevel::Soft, 30.0, 25, 7).generate();
            let r = e.run(&trace);
            assert_eq!(r.completions.len(), 25, "{policy:?}");
        }
    }

    #[test]
    fn high_priority_waits_less_under_prema() {
        // Saturate with low-priority heavy jobs plus one priority-11 job;
        // its wait should be shorter than under FCFS.
        let mk = |id, arrival, dnn, priority| Request {
            id,
            dnn,
            arrival,
            priority,
            qos: 10.0,
        };
        let mut trace = vec![
            mk(0, 0.000, DnnId::SsdResNet34, 1),
            mk(1, 0.001, DnnId::SsdResNet34, 1),
            mk(2, 0.002, DnnId::SsdResNet34, 1),
            mk(3, 0.003, DnnId::ResNet50, 11),
        ];
        trace.sort_by(|a, b| a.arrival.partial_cmp(&b.arrival).unwrap());
        let prema = PremaEngine::new_default().run(&trace);
        let fcfs = PremaEngine::new(AcceleratorConfig::monolithic(), Policy::Fcfs).run(&trace);
        let lat = |r: &SimResult| {
            r.completions
                .iter()
                .find(|c| c.request.id == 3)
                .unwrap()
                .latency()
        };
        assert!(
            lat(&prema) < lat(&fcfs),
            "prema {} vs fcfs {}",
            lat(&prema),
            lat(&fcfs)
        );
    }

    #[test]
    #[should_panic(expected = "sorted by arrival")]
    fn unsorted_trace_rejected() {
        let mut trace = TraceConfig::new(Scenario::B, QosLevel::Soft, 10.0, 5, 3).generate();
        trace.reverse();
        let _ = engine().run(&trace);
    }

    /// Wraps the PREMA policy and, after every decision, reckons each
    /// tenant's queued cycles from the allocations it observes: a wait
    /// starts at arrival or when the tenant loses the chip, and ends when
    /// it gets the chip back.
    struct WaitLedger<'a> {
        inner: TemporalPolicy<'a>,
        /// Per request id: cycles queued so far, the open wait's start,
        /// and how many times the tenant was picked to run.
        waits: BTreeMap<u64, (u64, Option<Cycles>, u32)>,
        resumed: usize,
    }

    impl EnginePolicy for WaitLedger<'_> {
        fn compiled_for(&mut self, request: &Request) -> Arc<CompiledDnn> {
            self.inner.compiled_for(request)
        }

        fn admit_subarrays(&self) -> u32 {
            self.inner.admit_subarrays()
        }

        fn reschedule<C: Collector>(&mut self, sim: &mut SimState, c: &mut C) {
            self.inner.reschedule(sim, c);
            for t in &sim.tenants {
                let (queued, since, runs) =
                    self.waits
                        .entry(t.request.id)
                        .or_insert((0, Some(t.arrival_cycle), 0));
                match (*since, t.alloc > 0) {
                    (Some(start), true) => {
                        *queued += (sim.now - start).get();
                        *since = None;
                        *runs += 1;
                        if *runs > 1 {
                            self.resumed += 1;
                        }
                        // Picked to run: the bank holds every wait so far.
                        let expected = u64::from(t.request.priority) * *queued;
                        assert_eq!(t.memo, PolicyMemo::Tokens(expected), "{}", t.request.id);
                    }
                    (None, false) => *since = Some(sim.now),
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn resumed_tenants_keep_the_tokens_they_banked() {
        let e = engine();
        let trace = TraceConfig::new(Scenario::A, QosLevel::Soft, 200.0, 30, 5).generate();
        let mut ledger = WaitLedger {
            inner: e.node_policy(),
            waits: BTreeMap::new(),
            resumed: 0,
        };
        let r = planaria_sim::run(
            e.library().config(),
            &trace,
            &mut ledger,
            &mut NullCollector,
        );
        assert_eq!(r, e.run(&trace), "the ledger must not change the run");
        assert!(ledger.resumed > 0, "the trace must preempt and resume");
    }

    #[test]
    fn preemptions_show_up_in_telemetry() {
        // Two heavy jobs plus a late short high-priority one: PREMA must
        // preempt at least once, and the kernel-side events must balance.
        let e = engine();
        let trace = TraceConfig::new(Scenario::A, QosLevel::Soft, 200.0, 30, 5).generate();
        let mut c = planaria_telemetry::RecordingCollector::new();
        let r = e.run_with_collector(&trace, &mut c);
        assert_eq!(r.completions.len(), 30);
        let report = c.report();
        assert_eq!(report.counter(Counter::Arrivals), 30);
        assert_eq!(report.counter(Counter::Completions), 30);
        assert!(report.counter(Counter::Preemptions) > 0);
    }
}
