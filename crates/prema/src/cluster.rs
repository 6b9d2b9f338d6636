//! Heterogeneous clusters: Planaria fission nodes and PREMA monolithic
//! nodes side by side behind one online dispatcher.
//!
//! The fabric is policy-generic — each node owns any [`EnginePolicy`] —
//! so a mixed fleet is just a per-node choice between Planaria's spatial
//! Algorithm 1 and PREMA's temporal token scheduler. Both chips run the
//! paper's common budget (same frequency), so they share the fabric
//! clock; per-node configurations still differ (16 fission subarrays vs
//! one monolithic array).

use crate::engine::{PremaEngine, TemporalPolicy};
use planaria_compiler::CompiledDnn;
use planaria_core::{Cluster, DispatchPolicy, PlanariaEngine, SpatialPolicy};
use planaria_sim::{EnginePolicy, SimState};
use planaria_telemetry::Collector;
use planaria_workload::Request;
use std::sync::Arc;

/// Which engine a heterogeneous cluster node runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// A Planaria node: dynamic fission, spatial Algorithm 1.
    Spatial,
    /// A PREMA node: monolithic chip, temporal token scheduling.
    Temporal,
}

/// A per-node policy that is either Planaria's or PREMA's, delegating
/// every kernel hook to whichever it wraps.
pub enum MixedPolicy<'a> {
    /// Planaria spatial scheduling on this node.
    Spatial(SpatialPolicy<'a>),
    /// PREMA temporal scheduling on this node.
    Temporal(TemporalPolicy<'a>),
}

impl EnginePolicy for MixedPolicy<'_> {
    fn compiled_for(&mut self, request: &Request) -> Arc<CompiledDnn> {
        match self {
            MixedPolicy::Spatial(p) => p.compiled_for(request),
            MixedPolicy::Temporal(p) => p.compiled_for(request),
        }
    }

    fn admit_subarrays(&self) -> u32 {
        match self {
            MixedPolicy::Spatial(p) => p.admit_subarrays(),
            MixedPolicy::Temporal(p) => p.admit_subarrays(),
        }
    }

    fn reschedule<C: Collector>(&mut self, sim: &mut SimState, c: &mut C) {
        match self {
            MixedPolicy::Spatial(p) => p.reschedule(sim, c),
            MixedPolicy::Temporal(p) => p.reschedule(sim, c),
        }
    }
}

/// A heterogeneous cluster laid out by `layout`: node `i` runs
/// `spatial` or `temporal` according to `layout[i]`, behind one online
/// dispatcher whose work estimates come from each node's own library — a
/// Planaria node advertises its fission chip's full-chip cycle counts, a
/// PREMA node its monolithic chip's — so LeastWork horizons and QoS
/// tightness reflect the hardware actually serving each node. A
/// recorded run shows the two node kinds as separate Chrome-trace
/// processes.
///
/// # Panics
///
/// Panics if `layout` is empty. Running it panics if the two engines'
/// clock frequencies differ.
pub fn mixed_cluster<'a>(
    spatial: &'a PlanariaEngine,
    temporal: &'a PremaEngine,
    layout: &[NodeKind],
    policy: DispatchPolicy,
) -> Cluster<MixedPolicy<'a>> {
    Cluster::new(
        layout.iter().map(|kind| match kind {
            NodeKind::Spatial => (
                spatial.library(),
                MixedPolicy::Spatial(spatial.spatial_policy()),
            ),
            NodeKind::Temporal => (
                temporal.library(),
                MixedPolicy::Temporal(temporal.node_policy()),
            ),
        }),
        policy,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Policy;
    use planaria_arch::AcceleratorConfig;
    use planaria_core::FabricTuning;
    use planaria_workload::{QosLevel, Scenario, TraceConfig};

    fn engines() -> (PlanariaEngine, PremaEngine) {
        (
            PlanariaEngine::new(AcceleratorConfig::planaria()),
            PremaEngine::new(AcceleratorConfig::monolithic(), Policy::Prema),
        )
    }

    #[test]
    fn single_temporal_node_equals_prema_engine() {
        let (planaria, prema) = engines();
        let trace = TraceConfig::new(Scenario::B, QosLevel::Soft, 100.0, 12, 3).generate();
        let direct = prema.run(&trace);
        let (mixed, _) = mixed_cluster(
            &planaria,
            &prema,
            &[NodeKind::Temporal],
            DispatchPolicy::RoundRobin,
        )
        .run(trace.iter().copied(), &FabricTuning::default());
        assert_eq!(direct.completions, mixed.completions);
        assert_eq!(direct.total_energy, mixed.total_energy);
        assert_eq!(direct.makespan.to_bits(), mixed.makespan.to_bits());
    }

    #[test]
    fn single_spatial_node_equals_planaria_engine() {
        let (planaria, prema) = engines();
        let trace = TraceConfig::new(Scenario::B, QosLevel::Soft, 100.0, 12, 3).generate();
        let direct = planaria.run(&trace);
        let (mixed, _) = mixed_cluster(
            &planaria,
            &prema,
            &[NodeKind::Spatial],
            DispatchPolicy::LeastWork,
        )
        .run(trace.iter().copied(), &FabricTuning::default());
        assert_eq!(direct.completions, mixed.completions);
        assert_eq!(direct.total_energy, mixed.total_energy);
    }

    #[test]
    fn recorded_mixed_fleet_matches_unrecorded_and_traces_validate() {
        let (planaria, prema) = engines();
        let trace = TraceConfig::new(Scenario::B, QosLevel::Medium, 200.0, 20, 5).generate();
        let layout = [NodeKind::Spatial, NodeKind::Temporal];
        let (plain, _) = mixed_cluster(
            &planaria,
            &prema,
            &layout,
            DispatchPolicy::JoinShortestQueue,
        )
        .run(trace.iter().copied(), &FabricTuning::default());
        let (rec_result, _, rec) = mixed_cluster(
            &planaria,
            &prema,
            &layout,
            DispatchPolicy::JoinShortestQueue,
        )
        .run_recorded(trace.iter().copied(), &FabricTuning::default());
        assert_eq!(plain.completions, rec_result.completions);
        assert_eq!(plain.total_energy, rec_result.total_energy);
        assert_eq!(rec.nodes.len(), 2);
        let json = planaria_telemetry::cluster_chrome_trace(&rec);
        let stats = planaria_telemetry::validate_chrome_trace(&json).expect("trace validates");
        assert!(stats.events > 0);
    }

    #[test]
    fn mixed_fleet_completes_everything_under_every_policy() {
        let (planaria, prema) = engines();
        let trace = TraceConfig::new(Scenario::C, QosLevel::Medium, 250.0, 30, 7).generate();
        let layout = [
            NodeKind::Spatial,
            NodeKind::Temporal,
            NodeKind::Spatial,
            NodeKind::Temporal,
        ];
        for policy in DispatchPolicy::ALL {
            let (r, stats) = mixed_cluster(&planaria, &prema, &layout, policy)
                .run(trace.iter().copied(), &FabricTuning::default());
            assert_eq!(r.completions.len(), 30, "{policy:?}");
            assert!(stats.events > 0, "{policy:?}");
        }
    }
}
