//! INFaaS multi-tenant workloads and evaluation metrics (§VI-A).
//!
//! This crate generates the paper's three workload scenarios and computes
//! its four evaluation metrics:
//!
//! * **Throughput** — the maximum Poisson arrival rate (queries/second)
//!   at which the system still satisfies the MLPerf server SLA
//!   (99 % of vision tasks, 97 % of translation tasks within their QoS
//!   latency bound), found by binary search;
//! * **SLA satisfaction rate** — the fraction of workload instances meeting
//!   that SLA at a fixed arrival rate;
//! * **Fairness** — PREMA's min-ratio progress metric
//!   `min_{i,j} PP_i / PP_j` with
//!   `PP_i = (T_isolated / T_multitenant) / (priority_i / Σ priority)`;
//! * **Energy** — total joules per workload (computed by the engines;
//!   aggregated here).
//!
//! # Example
//!
//! ```
//! use planaria_workload::{QosLevel, Scenario, TraceConfig};
//!
//! let trace = TraceConfig::new(Scenario::C, QosLevel::Medium, 40.0, 64, 7).generate();
//! assert_eq!(trace.len(), 64);
//! assert!(trace.windows(2).all(|w| w[0].arrival <= w[1].arrival));
//! ```

pub mod metrics;
pub mod qos;
pub mod request;
pub mod sink;
pub mod trace;

pub use metrics::{fairness, max_throughput, meets_sla, sla_satisfaction_rate, violation_rate};
pub use qos::{qos_bound, QosLevel};
pub use request::{
    digest_version, Completion, DigestBuilder, LatencyStats, Request, SimResult, DIGEST_VERSION,
};
pub use sink::{CompletionSink, DiscardSink, SpillReader, SpillSink, VecSink};
pub use trace::{Scenario, TraceConfig, TraceStream};
