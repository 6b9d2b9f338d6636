//! The shared per-request record and placement bitmask helpers.

use planaria_arch::Allocation;
use planaria_compiler::CompiledDnn;
use planaria_model::units::{Cycles, Picojoules};
use planaria_workload::Request;
use std::sync::Arc;

/// Physical-placement bitmask over up to 128 subarrays (bit *i* set ⇔
/// subarray *i* owned); 0 for an unplaced tenant. The 128-granule limit
/// is checked once, when the [`Chip`](planaria_arch::Chip) is built.
pub fn subarray_mask(p: Option<&Allocation>) -> u128 {
    p.map_or(0, Allocation::mask)
}

/// Every subarray bit set for a chip of `n` subarrays (a monolithic
/// baseline owns the whole chip).
///
/// # Panics
///
/// Panics if `n > 128`.
pub fn full_mask(n: u32) -> u128 {
    assert!(n <= 128, "chip of {n} subarrays does not fit a u128 mask");
    if n == 128 {
        u128::MAX
    } else {
        (1u128 << n) - 1
    }
}

/// Per-tenant state owned by the scheduling policy.
///
/// The kernel sets it to [`PolicyMemo::Empty`] at admission and never
/// reads it. It lives in the tenant record, so it moves with the tenant
/// through `swap_remove` retirement and is dropped when the tenant
/// retires: no policy keeps a side table keyed by request id. A tenant
/// lives on one node under one policy, so one variant serves each engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PolicyMemo {
    /// Nothing recorded yet.
    #[default]
    Empty,
    /// Algorithm 1's last `ESTIMATERESOURCES` answer (classified by
    /// `planaria_core::sched_state`).
    Floor {
        /// The estimate, in subarrays.
        floor: u32,
        /// `work_done` when it was recorded (clean only while unchanged).
        done: Cycles,
        /// `work_total` when it was recorded (clean only while unchanged).
        total: Cycles,
        /// `predict_cycles(floor)` then, reusable verbatim while clean.
        fit: Cycles,
    },
    /// PREMA's tokens banked over the tenant's finished waits.
    Tokens(u64),
}

/// One live request inside the kernel: work accounting in exact integer
/// cycles plus the bookkeeping both engines share.
///
/// Progress is `work_done / work_total` cycles under the *current*
/// configuration table; switching tables rescales `work_done` so the
/// completed work **fraction** is preserved (the paper's tables report
/// whole-network latency per subarray count, so fraction is the
/// table-independent quantity).
#[derive(Debug, Clone)]
pub struct TenantState {
    /// The request being served.
    pub request: Request,
    /// Its compiled configuration tables (shared with the library).
    pub compiled: Arc<CompiledDnn>,
    /// Arrival, in kernel cycles since the run origin.
    pub arrival_cycle: Cycles,
    /// QoS deadline, in kernel cycles since the run origin.
    pub deadline_cycle: Cycles,
    /// Current allocation in subarrays (0 = queued).
    pub alloc: u32,
    /// Physical placement on the ring (engines that model placement).
    pub placement: Option<Allocation>,
    /// Placement bitmask for telemetry, kept in sync by the policy.
    pub mask: u128,
    /// Work completed under the current table, cycles.
    pub work_done: Cycles,
    /// Total work of the current table, cycles.
    pub work_total: Cycles,
    /// Dynamic energy of the whole network under the current table.
    pub table_energy: Picojoules,
    /// Reconfiguration overhead owed before progress resumes.
    pub overhead: Cycles,
    /// Dynamic energy accrued so far.
    pub energy: Picojoules,
    /// When the current queue wait began (telemetry; PREMA also accrues
    /// tokens from it).
    pub queued_since: Cycles,
    /// When the current execution slice began (telemetry only).
    pub slice_start: Cycles,
    /// Scheduler state owned by the policy; the kernel never reads it.
    pub memo: PolicyMemo,
    /// Completion-estimate generation (kernel internal).
    pub(crate) epoch: u64,
    /// The completion cycle currently in the heap, if any.
    pub(crate) scheduled_completion: Option<Cycles>,
}

impl TenantState {
    /// A freshly admitted tenant at time `now`, seeded with the table
    /// for `admit_subarrays` granules (any table is exact here — zero
    /// completed work rescales to zero).
    pub(crate) fn new(
        request: Request,
        compiled: Arc<CompiledDnn>,
        admit_subarrays: u32,
        arrival_cycle: Cycles,
        deadline_cycle: Cycles,
        now: Cycles,
    ) -> Self {
        let (work_total, table_energy) = {
            let table = compiled.table(admit_subarrays);
            (table.total_cycles(), table.total_energy())
        };
        Self {
            request,
            compiled,
            arrival_cycle,
            deadline_cycle,
            alloc: 0,
            placement: None,
            mask: 0,
            work_done: Cycles::ZERO,
            work_total,
            table_energy,
            overhead: Cycles::ZERO,
            energy: Picojoules::ZERO,
            queued_since: now,
            slice_start: now,
            memo: PolicyMemo::Empty,
            epoch: 0,
            scheduled_completion: None,
        }
    }

    /// Completed work fraction ∈ [0, 1].
    pub fn fraction_done(&self) -> f64 {
        if self.work_total.is_zero() {
            1.0
        } else {
            self.work_done.as_f64() / self.work_total.as_f64()
        }
    }

    /// Cycles until completion at the current allocation (overhead owed
    /// plus outstanding table work).
    pub fn remaining(&self) -> Cycles {
        self.overhead + self.work_total.saturating_sub(self.work_done)
    }

    /// Exact completion test: all work done and all overhead burned. No
    /// float epsilon — `work_done` reaches `work_total` by integer
    /// arithmetic.
    pub fn is_done(&self) -> bool {
        self.overhead.is_zero() && self.work_done >= self.work_total
    }

    /// Consumes `cycles` of execution: overhead burns first, then table
    /// progress accrues (with pro-rata dynamic energy).
    pub(crate) fn advance(&mut self, mut cycles: Cycles) {
        if !self.overhead.is_zero() {
            let burn = self.overhead.min(cycles);
            self.overhead -= burn;
            cycles -= burn;
        }
        if cycles.is_zero() {
            return;
        }
        let before = self.work_done;
        self.work_done = (self.work_done + cycles).min(self.work_total);
        let delta = self.work_done.saturating_sub(before);
        if !delta.is_zero() {
            self.energy += (delta.as_f64() / self.work_total.as_f64()) * self.table_energy;
        }
    }

    /// Switches to a configuration table of `total` cycles and `energy`
    /// whole-network dynamic energy.
    ///
    /// The completed work *fraction* is preserved via exact `u128`
    /// integer rescaling (truncating, mirroring the table's own
    /// `remaining_cycles` quantisation). When the total is unchanged the
    /// work counters are untouched, so single-table engines (the
    /// monolithic PREMA baseline) stay drift-free across preemptions.
    pub fn switch_table(&mut self, total: Cycles, energy: Picojoules) {
        if total != self.work_total {
            let scaled = if self.work_total.is_zero() {
                0u128
            } else {
                u128::from(self.work_done.get()) * u128::from(total.get())
                    / u128::from(self.work_total.get())
            };
            self.work_done = Cycles::new(u64::try_from(scaled).unwrap_or(u64::MAX));
            self.work_total = total;
        }
        self.table_energy = energy;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use planaria_arch::{AcceleratorConfig, Chip};

    #[test]
    fn masks_cover_the_allocation() {
        let cfg = AcceleratorConfig::planaria();
        let mut chip = Chip::new(cfg);
        let p = chip.place(4).expect("empty chip places");
        let m = subarray_mask(Some(&p));
        assert_eq!(m.count_ones(), 4);
        assert_eq!(subarray_mask(None), 0);
    }

    #[test]
    fn full_mask_sets_exactly_n_bits() {
        assert_eq!(full_mask(0), 0);
        assert_eq!(full_mask(1), 0b1);
        assert_eq!(full_mask(16), 0xffff);
        assert_eq!(full_mask(64), u128::from(u64::MAX));
        assert_eq!(full_mask(128), u128::MAX);
        assert_eq!(full_mask(127).count_ones(), 127);
    }

    #[test]
    fn subarray_ids_beyond_63_get_distinct_bits() {
        // Regression for the old u64 mask: ids ≥ 63 used to alias into
        // bit 63. A 128-granule chip must give every subarray its own bit.
        let cfg = AcceleratorConfig::with_granularity(16);
        assert!(cfg.num_subarrays() >= 64, "need a chip wider than 64");
        let mut chip = Chip::new(cfg);
        let n = cfg.num_subarrays();
        let p = chip.place(n).expect("whole chip places");
        let m = subarray_mask(Some(&p));
        assert_eq!(
            m.count_ones(),
            n,
            "every subarray id must map to a distinct bit"
        );
        assert_eq!(m, full_mask(n));
    }

    fn demo_tenant(total: u64, energy: f64) -> TenantState {
        let compiled = Arc::new(planaria_compiler::compile(
            &AcceleratorConfig::planaria(),
            &planaria_model::DnnId::TinyYolo.build(),
        ));
        let mut t = TenantState::new(
            Request {
                id: 0,
                dnn: planaria_model::DnnId::TinyYolo,
                arrival: 0.0,
                priority: 5,
                qos: 1.0,
            },
            compiled,
            1,
            Cycles::ZERO,
            Cycles::new(1000),
            Cycles::ZERO,
        );
        t.work_total = Cycles::new(total);
        t.table_energy = Picojoules::from_joules(energy);
        t
    }

    #[test]
    fn the_record_stays_small() {
        // The tenant `Vec` dominates a short run's peak heap, so the
        // record carries one 32 B policy memo and nothing wider.
        let size = std::mem::size_of::<TenantState>();
        assert!(size <= 208, "TenantState grew to {size} B");
    }

    #[test]
    fn advance_burns_overhead_before_progress() {
        let mut t = demo_tenant(100, 1.0);
        t.overhead = Cycles::new(30);
        t.advance(Cycles::new(50));
        assert_eq!(t.overhead, Cycles::ZERO);
        assert_eq!(t.work_done, Cycles::new(20));
        assert_eq!(t.remaining(), Cycles::new(80));
        assert!(!t.is_done());
        t.advance(Cycles::new(200));
        assert!(t.is_done());
        assert_eq!(t.work_done, Cycles::new(100));
        assert!((t.energy.to_joules() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn switch_table_preserves_fraction_exactly() {
        let mut t = demo_tenant(1000, 1.0);
        t.advance(Cycles::new(250));
        assert!((t.fraction_done() - 0.25).abs() < 1e-12);
        t.switch_table(Cycles::new(400), Picojoules::from_joules(2.0));
        assert_eq!(t.work_done, Cycles::new(100));
        assert_eq!(t.work_total, Cycles::new(400));
        assert!((t.fraction_done() - 0.25).abs() < 1e-12);
        // Same-total switch is a no-op on the counters.
        t.switch_table(Cycles::new(400), Picojoules::from_joules(3.0));
        assert_eq!(t.work_done, Cycles::new(100));
    }
}
