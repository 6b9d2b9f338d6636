//! Algorithm 1's per-tenant floor memo: the dirty-set classification
//! behind incremental rescheduling.
//!
//! Every scheduling event re-runs `ESTIMATERESOURCES` over all live
//! tenants. The scan is monotone — with a tenant's work counters frozen
//! (`done`/`total` unchanged) and slack only shrinking, the minimal
//! fitting subarray count can only grow — so the previous event's result
//! is a *proven floor* for the next (see
//! [`SchedTask::estimate_resources_from`]). Each memo entry also carries
//! the predicted cycles *at* the floor (`fit`), so most entries answer
//! without a scan. "Clean" means `done`/`total` are unchanged since the
//! entry was recorded, so `fit` is still `predict_cycles(floor)`:
//!
//! * entry clean and `fit <= slack` (band fastpath) — the memoized
//!   `(floor, fit)` **is** the answer: floor still fits, and minimality is
//!   inherited from the wider earlier slack. Zero table lookups.
//! * entry clean, `fit > slack`, and `floor` is the whole chip (saturated)
//!   — the answer is again `(floor, fit)`: the floor proves no smaller
//!   count fits, and a scan from the chip total returns
//!   `(total, predict_cycles(total))` whether or not it fits — which is
//!   the memoized `fit`. Zero table lookups. On a saturated backlog this
//!   is the common case (85% of tenant visits on a bursty QoS-H chip,
//!   against 4.9% for the band fastpath).
//! * entry clean, `fit > slack`, floor below the chip — scan upward from
//!   `floor + 1`: `floor` is the sound lower bound and the memoized `fit`
//!   already shows it misses.
//! * entry dirty (the tenant progressed, switched tables, or is new) —
//!   scan from 1, exactly like a fresh rescan.
//!
//! All four cases return the same estimate a full rescan would (the
//! soundness argument is in DESIGN.md §5f and pinned by the
//! `incremental_equivalence` property test), so the incremental scheduler
//! is result-exact, not approximate.
//!
//! # Storage
//!
//! The entry is the tenant's own [`PolicyMemo::Floor`] field. The kernel
//! empties it at admission and never reads it; it moves with the tenant
//! when `swap_remove` retirement reorders the live list, and it is
//! dropped with the tenant. So there is nothing to key and nothing to
//! prune: reading a memo is a field load on a record the estimate loop
//! already has in hand, and refreshing it is a field store.
//!
//! [`SchedTask::estimate_resources_from`]: crate::scheduler::SchedTask::estimate_resources_from

use planaria_model::units::Cycles;
use planaria_sim::PolicyMemo;

/// How to seed a tenant's `ESTIMATERESOURCES` scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Seed {
    /// The memoized estimate is exact as-is (band fastpath or saturated
    /// floor); no scan, no table lookups. Carries `(floor, fit)`.
    Exact(u32, Cycles),
    /// Scan upward from this proven lower bound (1 when no clean memo
    /// exists).
    Floor(u32),
}

/// Classifies a tenant whose work counters read `done`/`total` against
/// its `memo` on a chip of `subarrays`: [`Seed::Exact`] when the entry is
/// clean and its fit still meets `slack` or its floor is already the
/// whole chip, [`Seed::Floor`] one past the floor when clean but tight,
/// and `Floor(1)` when dirty or absent.
pub fn seed(memo: PolicyMemo, done: Cycles, total: Cycles, slack: i64, subarrays: u32) -> Seed {
    match memo {
        PolicyMemo::Floor {
            floor,
            done: d,
            total: t,
            fit,
        } if d == done && t == total => {
            if fit.get() as i64 <= slack || floor >= subarrays {
                Seed::Exact(floor, fit)
            } else {
                Seed::Floor(floor + 1)
            }
        }
        _ => Seed::Floor(1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cy(v: u64) -> Cycles {
        Cycles::new(v)
    }

    /// Chip size for the unit tests: floors below it are not saturated.
    const CHIP: u32 = 16;

    /// The memo `ESTIMATERESOURCES` leaves behind.
    fn memo(floor: u32, done: u64, total: u64, fit: u64) -> PolicyMemo {
        PolicyMemo::Floor {
            floor,
            done: cy(done),
            total: cy(total),
            fit: cy(fit),
        }
    }

    #[test]
    fn seed_without_memo_scans_from_one() {
        assert_eq!(
            seed(PolicyMemo::Empty, cy(0), cy(100), 50, CHIP),
            Seed::Floor(1)
        );
        // Another policy's state is no memo either.
        assert_eq!(
            seed(PolicyMemo::Tokens(9), cy(0), cy(100), 50, CHIP),
            Seed::Floor(1)
        );
    }

    #[test]
    fn clean_entry_with_fitting_slack_is_exact() {
        let m = memo(4, 10, 100, 40);
        assert_eq!(seed(m, cy(10), cy(100), 40, CHIP), Seed::Exact(4, cy(40)));
        assert_eq!(seed(m, cy(10), cy(100), 1000, CHIP), Seed::Exact(4, cy(40)));
    }

    #[test]
    fn clean_entry_with_tight_slack_degrades_to_floor() {
        // The memoized fit shows `predict(4)` misses, so the scan starts
        // one past the floor.
        let m = memo(4, 10, 100, 40);
        assert_eq!(seed(m, cy(10), cy(100), 39, CHIP), Seed::Floor(5));
    }

    #[test]
    fn clean_entry_at_the_chip_total_is_exact_even_when_tight() {
        // Saturated: no count below the chip fits, and a scan from the
        // total returns `(total, predict(total))` = the memo.
        let m = memo(CHIP, 10, 100, 40);
        assert_eq!(
            seed(m, cy(10), cy(100), 39, CHIP),
            Seed::Exact(CHIP, cy(40))
        );
        assert_eq!(
            seed(m, cy(10), cy(100), -5, CHIP),
            Seed::Exact(CHIP, cy(40))
        );
        // One below the chip is not saturated: scan the last count.
        let m = memo(CHIP - 1, 10, 100, 40);
        assert_eq!(seed(m, cy(10), cy(100), 39, CHIP), Seed::Floor(CHIP));
    }

    #[test]
    fn dirty_work_counters_invalidate() {
        let m = memo(4, 10, 100, 40);
        // Progress dirties the entry ...
        assert_eq!(seed(m, cy(20), cy(100), 1000, CHIP), Seed::Floor(1));
        // ... and so does a table switch (total changed).
        assert_eq!(seed(m, cy(10), cy(90), 1000, CHIP), Seed::Floor(1));
        // A dirty entry at the chip total is not saturated either.
        let m = memo(CHIP, 10, 100, 40);
        assert_eq!(seed(m, cy(11), cy(100), 39, CHIP), Seed::Floor(1));
    }
}
