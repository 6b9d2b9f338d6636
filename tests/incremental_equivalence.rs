//! Incremental Algorithm 1 is *result-exact*: the dirty-set scheduler
//! (tenant-resident floors, band and saturated fastpaths) must produce
//! bit-identical results to a full `ESTIMATERESOURCES` rescan from 1 at
//! every scheduling event — and the streamed trace path must be
//! bit-identical to the materialized one.
//!
//! The comparison is the strongest observable the engines expose: the
//! full `RecordingCollector` event stream — every kind, including each
//! allocation change, placement mask, exec slice, reconfiguration and
//! queue interval — plus its counters and the exact `SimResult`. If any
//! event's allocations, placements or hints diverged, the streams would
//! differ at that event.

use planaria::arch::AcceleratorConfig;
use planaria::core::{CompiledLibrary, PlanariaEngine, SchedulingMode};
use planaria::model::SplitMix64;
use planaria::telemetry::{Event, RecordingCollector};
use planaria::workload::{QosLevel, Scenario, TraceConfig};

fn scenarios() -> [Scenario; 3] {
    [Scenario::A, Scenario::B, Scenario::C]
}

fn qos_levels() -> [QosLevel; 3] {
    [QosLevel::Soft, QosLevel::Medium, QosLevel::Hard]
}

/// SplitMix64-randomized workload grid: each case draws scenario, QoS,
/// arrival rate, burstiness and seed from the property RNG, sized so a
/// trace produces ~10^3 scheduling events (arrival + completion each).
fn random_cases(rng: &mut SplitMix64, n: usize) -> Vec<TraceConfig> {
    (0..n)
        .map(|_| {
            let scenario = scenarios()[rng.next_below(3) as usize];
            let qos = qos_levels()[rng.next_below(3) as usize];
            let lambda = rng.next_range(30, 400) as f64;
            let requests = rng.next_range(300, 500) as usize;
            let seed = rng.next_u64();
            let cfg = TraceConfig::new(scenario, qos, lambda, requests, seed);
            if rng.next_bool(0.5) {
                cfg.with_burstiness(1.0 + rng.next_f64() * 7.0)
            } else {
                cfg
            }
        })
        .collect()
}

/// A fixed case in the bursty QoS-H regime: bursts build a saturated
/// backlog whose memo floors sit at the whole chip, so the oracle checks
/// the saturated-floor memo arm event by event (the random grid may never
/// build such a backlog).
fn saturated_case() -> TraceConfig {
    TraceConfig::new(Scenario::C, QosLevel::Hard, 500.0, 500, 1).with_burstiness(6.0)
}

/// A fixed sparse case: at this rate most scheduling events see a single
/// live tenant, so the oracle checks the lone-tenant arm (the whole chip,
/// no estimate) event by event.
fn sparse_case() -> TraceConfig {
    TraceConfig::new(Scenario::C, QosLevel::Medium, 60.0, 400, 7)
}

/// Share of the arrival/completion instants leaving any tenant live that
/// leave exactly one (the tenants a scheduling event at that instant
/// sees; an empty chip is not scheduled at all).
fn lone_share(rec: &RecordingCollector) -> f64 {
    let (mut live, mut instants, mut lone) = (0i64, 0u32, 0u32);
    let events = rec.events();
    for (i, e) in events.iter().enumerate() {
        match e.event {
            Event::Arrival { .. } => live += 1,
            Event::Completion { .. } => live -= 1,
            _ => continue,
        }
        let last_at_instant = events[i + 1..]
            .iter()
            .find(|n| matches!(n.event, Event::Arrival { .. } | Event::Completion { .. }))
            .map_or(true, |n| n.ts != e.ts);
        if last_at_instant && live > 0 {
            instants += 1;
            lone += u32::from(live == 1);
        }
    }
    f64::from(lone) / f64::from(instants.max(1))
}

#[test]
fn sparse_case_mostly_schedules_a_lone_tenant() {
    let engine = PlanariaEngine::new(AcceleratorConfig::planaria());
    let mut rec = RecordingCollector::new();
    engine.run_with_collector(&sparse_case().generate(), &mut rec);
    let share = lone_share(&rec);
    assert!(share > 0.8, "lone-tenant share {share}");
}

#[test]
fn incremental_matches_full_rescan_oracle_at_every_event() {
    let library = CompiledLibrary::new(AcceleratorConfig::planaria());
    let mut rng = SplitMix64::new(0x14c0_5eed_face_0001);
    for mode in [SchedulingMode::Spatial, SchedulingMode::ExclusiveFifo] {
        let incremental = PlanariaEngine::with_library(library.clone())
            .with_mode(mode)
            .with_incremental(true);
        let oracle = PlanariaEngine::with_library(library.clone())
            .with_mode(mode)
            .with_incremental(false);
        for cfg in random_cases(&mut rng, 4)
            .into_iter()
            .chain([saturated_case(), sparse_case()])
        {
            let trace = cfg.generate();
            let (mut t_inc, mut t_full) = (RecordingCollector::new(), RecordingCollector::new());
            let r_inc = incremental.run_with_collector(&trace, &mut t_inc);
            let r_full = oracle.run_with_collector(&trace, &mut t_full);
            assert_eq!(
                r_inc.completions, r_full.completions,
                "{mode:?} {cfg:?}: completions diverged"
            );
            assert_eq!(
                r_inc.total_energy, r_full.total_energy,
                "{mode:?} {cfg:?}: energy diverged"
            );
            assert_eq!(
                r_inc.makespan, r_full.makespan,
                "{mode:?} {cfg:?}: makespan diverged"
            );
            assert_eq!(
                t_inc.events().len(),
                t_full.events().len(),
                "{mode:?} {cfg:?}: event counts diverged"
            );
            for (i, (a, b)) in t_inc.events().iter().zip(t_full.events()).enumerate() {
                assert_eq!(a, b, "{mode:?} {cfg:?}: event #{i} diverged");
            }
            assert_eq!(
                t_inc.report(),
                t_full.report(),
                "{mode:?} {cfg:?}: counters, histograms or sketches diverged"
            );
        }
    }
}

#[test]
fn streamed_path_is_bit_identical_to_materialized() {
    let library = CompiledLibrary::new(AcceleratorConfig::planaria());
    let engine = PlanariaEngine::with_library(library.clone());
    let prema = planaria::prema::PremaEngine::new_default();
    let mut rng = SplitMix64::new(0x57_12ea_a1);
    for cfg in random_cases(&mut rng, 3) {
        let trace = cfg.generate();
        let materialized = engine.run(&trace);
        let streamed = engine.run_streamed(cfg.stream());
        assert_eq!(
            materialized.completions, streamed.completions,
            "{cfg:?}: planaria streamed completions diverged"
        );
        assert_eq!(materialized.total_energy, streamed.total_energy, "{cfg:?}");
        assert_eq!(materialized.makespan, streamed.makespan, "{cfg:?}");
        let pm = prema.run(&trace);
        let ps = prema.run_streamed(cfg.stream());
        assert_eq!(
            pm.completions, ps.completions,
            "{cfg:?}: prema streamed completions diverged"
        );
        assert_eq!(pm.total_energy, ps.total_energy, "{cfg:?}");
        assert_eq!(pm.makespan, ps.makespan, "{cfg:?}");
    }
}

#[test]
fn incremental_streamed_matches_full_rescan_materialized() {
    // The two tentpole axes composed: lazily streamed requests through the
    // incremental scheduler vs the fully materialized full-rescan path.
    let library = CompiledLibrary::new(AcceleratorConfig::planaria());
    let fast = PlanariaEngine::with_library(library.clone()).with_incremental(true);
    let slow = PlanariaEngine::with_library(library.clone()).with_incremental(false);
    let cfg =
        TraceConfig::new(Scenario::C, QosLevel::Medium, 250.0, 600, 0xabcd).with_burstiness(4.0);
    let a = fast.run_streamed(cfg.stream());
    let b = slow.run(&cfg.generate());
    assert_eq!(a.completions, b.completions);
    assert_eq!(a.total_energy, b.total_energy);
    assert_eq!(a.makespan, b.makespan);
}
