//! PREMA baseline (Choi & Rhu, HPCA 2020): temporal multi-tenancy on a
//! monolithic systolic accelerator.
//!
//! Re-implemented from the PREMA paper's description for the comparison in
//! §VI: the same compute/memory/frequency budget as Planaria (128×128 PEs,
//! 12 MB buffers, 700 MHz) but one task at a time, chosen by PREMA's
//! *token-based* policy — tokens accrue with priority × wait time, the
//! highest-token tasks form a candidate set, and the shortest predicted job
//! among them runs next (preempting the incumbent at a checkpoint
//! boundary).
//!
//! [`policy`] also provides FCFS and SJF for scheduler ablations.
//!
//! # Example
//!
//! ```
//! use planaria_prema::PremaEngine;
//! use planaria_workload::{QosLevel, Scenario, TraceConfig};
//!
//! let engine = PremaEngine::new_default();
//! let trace = TraceConfig::new(Scenario::A, QosLevel::Soft, 20.0, 10, 1).generate();
//! let result = engine.run(&trace);
//! assert_eq!(result.completions.len(), 10);
//! ```

pub mod cluster;
pub mod engine;
pub mod policy;

pub use cluster::{mixed_cluster, MixedPolicy, NodeKind};
pub use engine::{PremaEngine, TemporalPolicy};
pub use policy::{pick_with_threshold, Policy, TOKEN_THRESHOLD};
