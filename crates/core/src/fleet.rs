//! Heterogeneous-geometry fleets: per-node chip shapes behind one
//! online dispatcher.
//!
//! A [`GeoFleet`] is the big.LITTLE deployment the geometry sweep
//! explores — e.g. two coarse-granule throughput chips plus two
//! fine-granule latency chips, all on one clock. Construction validates
//! every node geometry and the shared-clock invariant up front
//! ([`planaria_arch::validate_fleet`]), compiles each distinct geometry
//! exactly once (the [`CompiledLibrary::shared_for`] cache), and the
//! dispatcher reads per-node capacity and per-node work estimates
//! instead of assuming uniform chips.

use crate::cluster::{Cluster, DispatchPolicy};
use crate::engine::{PlanariaEngine, SpatialPolicy};
use planaria_arch::{AcceleratorConfig, GeometryError};

/// A fleet of Planaria nodes with per-node chip geometries.
#[derive(Debug, Clone)]
pub struct GeoFleet {
    engines: Vec<PlanariaEngine>,
}

impl GeoFleet {
    /// Builds a fleet with one node per configuration, validating each
    /// geometry and the fleet's shared-clock invariant before anything
    /// compiles. Identical configurations share one compiled library.
    ///
    /// # Errors
    ///
    /// Returns the first [`GeometryError`] a node geometry violates, or
    /// [`GeometryError::MixedClockFrequency`] when clocks disagree.
    ///
    /// # Panics
    ///
    /// Panics if `cfgs` is empty.
    pub fn new(cfgs: &[AcceleratorConfig]) -> Result<Self, GeometryError> {
        assert!(!cfgs.is_empty(), "fleet needs at least one node");
        planaria_arch::validate_fleet(cfgs)?;
        let engines = cfgs.iter().map(|cfg| PlanariaEngine::new(*cfg)).collect();
        Ok(Self { engines })
    }

    /// Number of nodes in the fleet.
    pub fn len(&self) -> usize {
        self.engines.len()
    }

    /// Whether the fleet has no nodes (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.engines.is_empty()
    }

    /// The per-node engines, in node order.
    pub fn engines(&self) -> &[PlanariaEngine] {
        &self.engines
    }

    /// The per-node configurations, in node order.
    pub fn configs(&self) -> Vec<AcceleratorConfig> {
        self.engines.iter().map(|e| *e.library().config()).collect()
    }

    /// Total MAC units across the fleet (the equal-budget yardstick of
    /// the geometry sweep's fleet comparisons).
    pub fn total_pes(&self) -> u64 {
        self.engines
            .iter()
            .map(|e| e.library().config().total_pes())
            .sum()
    }

    /// The fleet as a [`Cluster`]: one Algorithm 1 node per geometry,
    /// routed by a dispatcher whose work estimates come from each node's
    /// own compiled tables.
    pub fn cluster(&self, policy: DispatchPolicy) -> Cluster<SpatialPolicy<'_>> {
        Cluster::new(
            self.engines
                .iter()
                .map(|e| (e.library(), e.spatial_policy())),
            policy,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use planaria_arch::GeometryError;
    use planaria_sim::FabricTuning;
    use planaria_workload::{QosLevel, Scenario, TraceConfig};

    fn mixed_fleet() -> GeoFleet {
        GeoFleet::new(&[
            AcceleratorConfig::throughput_tuned(),
            AcceleratorConfig::planaria(),
            AcceleratorConfig::latency_tuned(),
        ])
        .expect("valid fleet")
    }

    #[test]
    fn construction_validates_geometry_and_clock() {
        let mut bad = AcceleratorConfig::planaria();
        bad.subarray_dim = 48;
        assert!(matches!(
            GeoFleet::new(&[AcceleratorConfig::planaria(), bad]),
            Err(GeometryError::NonDivisorDim { dim: 48, .. })
        ));
        let mut fast = AcceleratorConfig::planaria();
        fast.freq_hz *= 2.0;
        assert!(matches!(
            GeoFleet::new(&[AcceleratorConfig::planaria(), fast]),
            Err(GeometryError::MixedClockFrequency { node: 1, .. })
        ));
    }

    #[test]
    fn equal_pe_budget_across_shapes() {
        let fleet = mixed_fleet();
        assert_eq!(fleet.len(), 3);
        assert_eq!(fleet.total_pes(), 3 * 16_384);
    }

    #[test]
    fn heterogeneous_fleet_completes_under_every_policy() {
        let fleet = mixed_fleet();
        let trace = TraceConfig::new(Scenario::C, QosLevel::Medium, 250.0, 30, 7).generate();
        for policy in DispatchPolicy::ALL {
            let (r, stats) = fleet
                .cluster(policy)
                .run(trace.iter().copied(), &FabricTuning::default());
            assert_eq!(r.completions.len(), 30, "{policy:?}");
            assert!(stats.events > 0, "{policy:?}");
        }
    }

    #[test]
    fn stats_path_matches_materialized() {
        let fleet = mixed_fleet();
        let trace = TraceConfig::new(Scenario::B, QosLevel::Medium, 200.0, 24, 5).generate();
        let tuning = FabricTuning::default();
        let (mat, _) = fleet
            .cluster(DispatchPolicy::GeometryAware)
            .run(trace.iter().copied(), &tuning);
        let (cs, _) = fleet
            .cluster(DispatchPolicy::GeometryAware)
            .run_stats(trace.iter().copied(), &tuning);
        assert_eq!(cs.completed as usize, mat.completions.len());
        assert_eq!(cs.total_energy, mat.total_energy);
        assert_eq!(cs.makespan.to_bits(), mat.makespan.to_bits());
    }

    #[test]
    fn single_node_fleet_equals_engine() {
        let fleet = GeoFleet::new(&[AcceleratorConfig::latency_tuned()]).expect("valid");
        let trace = TraceConfig::new(Scenario::B, QosLevel::Soft, 100.0, 15, 9).generate();
        let direct = PlanariaEngine::new(AcceleratorConfig::latency_tuned()).run(&trace);
        let (fleet_r, _) = fleet
            .cluster(DispatchPolicy::LeastWork)
            .run(trace.iter().copied(), &FabricTuning::default());
        assert_eq!(direct.completions, fleet_r.completions);
        assert_eq!(direct.total_energy, fleet_r.total_energy);
        assert_eq!(direct.makespan.to_bits(), fleet_r.makespan.to_bits());
    }
}
