//! Planaria's primary contribution: the spatial task scheduler
//! (Algorithm 1) and the multi-tenant fission runtime.
//!
//! The [`engine::PlanariaEngine`] is a discrete-event simulator of one
//! Planaria-equipped node: requests arrive (Poisson traces from
//! `planaria-workload`), the scheduler fissions the chip into logical
//! accelerators sized per task, and tasks progress tile-by-tile using the
//! configuration tables from `planaria-compiler`. Scheduling events fire on
//! every task arrival and completion, exactly as §V prescribes; allocation
//! changes take effect at tile boundaries and pay the reconfiguration cost
//! of §IV-C.
//!
//! [`Cluster`] adds the scaled-out multi-node setting of Fig. 16.
//!
//! # Example
//!
//! ```
//! use planaria_arch::AcceleratorConfig;
//! use planaria_core::PlanariaEngine;
//! use planaria_workload::{QosLevel, Scenario, TraceConfig};
//!
//! let engine = PlanariaEngine::new(AcceleratorConfig::planaria());
//! let trace = TraceConfig::new(Scenario::B, QosLevel::Soft, 50.0, 20, 1).generate();
//! let result = engine.run(&trace);
//! assert_eq!(result.completions.len(), 20);
//! ```

pub mod cluster;
pub mod engine;
pub mod fleet;
pub mod sched_state;
pub mod scheduler;

pub use cluster::{
    min_nodes_for_sla, run_cluster_stats, Cluster, ClusterDispatcher, ClusterStats, DispatchPolicy,
};
pub use engine::{PlanariaEngine, SchedulingMode, SpatialPolicy};
pub use fleet::GeoFleet;
pub use planaria_compiler::CompiledLibrary;
pub use planaria_model::units::{Bytes, Cycles, Picojoules};
pub use planaria_model::SplitMix64;
pub use planaria_sim::{FabricStats, FabricTuning, NodeLoad};
pub use sched_state::Seed;
pub use scheduler::{
    allocate_spatially_into, min_slack_cycles, schedule_tasks_spatially, AllocScratch, SchedTask,
};
