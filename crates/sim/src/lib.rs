//! `planaria-sim`: the deterministic integer-cycle discrete-event kernel
//! shared by the Planaria and PREMA engines.
//!
//! The paper's scheduler is event-triggered — task arrival and task
//! completion (§V). Both engines used to hand-roll that event loop in
//! float seconds, duplicating tenant state, arrival dequeue, completion
//! scans and `seconds × freq → round()` conversions. This crate factors
//! the loop out once and owns time as integer
//! [`Cycles`](planaria_model::units::Cycles) end-to-end:
//!
//! - [`EventQueue`]: a tiered event queue (a near ring of cycle buckets
//!   over a far heap) keyed `(Cycles, EventKind, seq)` so pop order is a
//!   total order — independent of insertion order for distinct events,
//!   FIFO for identical ones.
//! - [`TenantState`]: the shared per-request record (work accounting in
//!   exact cycles, reconfiguration overhead owed, accrued energy,
//!   queue/slice timestamps, placement mask, and the policy-owned
//!   [`PolicyMemo`]).
//! - [`SimClock`]: the *only* place seconds and cycles meet. Engines and
//!   the kernel never do float time arithmetic; conversion happens once
//!   at the trace/`SimResult` boundary (enforced by the `planaria-checks`
//!   time-domain lint, which allowlists exactly `clock.rs`).
//! - [`run`]: the event loop. Engines plug in as [`EnginePolicy`]
//!   implementations that keep only their scheduling decision logic.
//! - [`NodeKernel`] + [`run_fabric_with`]: the loop reified as a resumable
//!   per-node kernel, and the epoch-synchronized multi-node drive that
//!   fans a cluster of them out across cores behind an online
//!   [`Dispatcher`] — bit-deterministic at any worker count.
//!
//! Completion detection is exact — a tenant is done when its integer
//! work counter reaches the table total and its overhead is burned; no
//! `DONE_EPS`-style float tolerance. Completion queue entries are
//! invalidated by per-tenant epochs instead of being removed, so a
//! scheduling decision pushes only the estimates it changed rather than
//! running an O(T) min-scan per event.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
mod fabric;
mod kernel;
pub mod oracle;
mod queue;
mod slab;
mod tenant;

pub use clock::SimClock;
pub use fabric::{
    run_fabric_summary, run_fabric_with, Dispatcher, FabricStats, FabricSummary, FabricTuning,
    NodeLoad,
};
pub use kernel::{
    run, run_streamed, run_streamed_sink, EnginePolicy, NodeKernel, NodeSummary, SimState,
};
pub use queue::{EventKind, EventQueue};
pub use tenant::{full_mask, subarray_mask, PolicyMemo, TenantState};
