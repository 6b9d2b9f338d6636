//! Persistent per-tenant scheduler state: the id-keyed dirty-set floor
//! memoization behind incremental Algorithm 1.
//!
//! Every scheduling event re-runs `ESTIMATERESOURCES` over all live
//! tenants. The scan is monotone — with a tenant's work counters frozen
//! (`done`/`total` unchanged) and slack only shrinking, the minimal
//! fitting subarray count can only grow — so the previous event's result
//! is a *proven floor* for the next (see
//! [`SchedTask::estimate_resources_from`]). The engine used to memoize
//! those floors positionally, aligned with `sim.tenants`; any
//! `swap_remove` retirement reordered the list and silently degraded the
//! moved tenants back to floor 1 (correct, but a full O(total) rescan per
//! victim per event). This module keys the memo by **request id** instead,
//! so floors survive arbitrary reordering, and extends each entry with the
//! predicted cycles *at* the floor (`fit`), so most entries answer
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
//! Request ids are assigned monotonically, so the id-keyed map is stored
//! as a dense ring window `[base, base + window.len())` of `Option`
//! slots: `seed` and `record` are O(1) array probes — critical, because
//! they run once per tenant per scheduling event, and a tree lookup
//! there costs as much as the short table scan it memoizes away.
//! Resident size is O(live id span): `prune` retires dead entries and
//! advances `base` to the oldest live id once the dead outnumber the
//! live by a fixed slack, so single retirements cost nothing and the
//! sweep is amortized. Lookups below `base` (long-retired ids) simply
//! miss, which is always sound — a miss means a fresh scan from 1.
//!
//! [`SchedTask::estimate_resources_from`]: crate::scheduler::SchedTask::estimate_resources_from

use planaria_model::units::Cycles;
use std::collections::VecDeque;

/// One memoized `ESTIMATERESOURCES` result for one request id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FloorEntry {
    /// The estimate returned at the last event the entry was refreshed.
    pub floor: u32,
    /// `work_done` observed then (clean only while unchanged).
    pub done: Cycles,
    /// `work_total` observed then (clean only while unchanged).
    pub total: Cycles,
    /// `predict_cycles(floor)` then — reusable verbatim while clean.
    pub fit: Cycles,
}

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

/// Entries are pruned once they outnumber live tenants by this much; the
/// slack amortizes the O(entries) sweep over many retirements.
const PRUNE_SLACK: usize = 64;

/// The persistent id-keyed floor memo (one per [`SpatialPolicy`] run).
///
/// Stored as a dense ring window over the monotone id space (see the
/// module docs): slot `i` of `window` holds the entry for request id
/// `base + i`.
///
/// [`SpatialPolicy`]: crate::engine::PlanariaEngine
#[derive(Debug, Clone, Default)]
pub struct SchedState {
    /// Request id of `window[0]`.
    base: u64,
    /// One slot per id in `[base, base + window.len())`; `None` = absent.
    window: VecDeque<Option<FloorEntry>>,
    /// Number of `Some` slots (live + not-yet-pruned retired entries).
    occupied: usize,
}

impl SchedState {
    /// An empty memo.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of memoized entries (live + not-yet-pruned retired).
    pub fn len(&self) -> usize {
        self.occupied
    }

    /// Whether the memo is empty.
    pub fn is_empty(&self) -> bool {
        self.occupied == 0
    }

    /// The memoized entry for a request id, if any (test/diagnostic hook).
    pub fn entry(&self, id: u64) -> Option<&FloorEntry> {
        let idx = usize::try_from(id.checked_sub(self.base)?).ok()?;
        self.window.get(idx)?.as_ref()
    }

    /// Classifies tenant `id` against its memo on a chip of `subarrays`:
    /// [`Seed::Exact`] when the entry is clean and its fit still meets
    /// `slack` or its floor is already the whole chip, [`Seed::Floor`]
    /// one past the floor when clean but tight, and `Floor(1)` when dirty
    /// or absent. One O(1) window probe.
    pub fn seed(&self, id: u64, done: Cycles, total: Cycles, slack: i64, subarrays: u32) -> Seed {
        match self.entry(id) {
            Some(e) if e.done == done && e.total == total => {
                if e.fit.get() as i64 <= slack || e.floor >= subarrays {
                    Seed::Exact(e.floor, e.fit)
                } else {
                    Seed::Floor(e.floor + 1)
                }
            }
            _ => Seed::Floor(1),
        }
    }

    /// Refreshes the memo for `id` after this event's estimate. Existing
    /// slots are overwritten in place; a new id extends the window by its
    /// distance past the current end (amortized O(1) under monotone id
    /// admission). Ids older than the window base are long retired and
    /// dropped on the floor — a later `seed` for them misses, which is
    /// sound (miss = fresh scan from 1).
    pub fn record(&mut self, id: u64, floor: u32, done: Cycles, total: Cycles, fit: Cycles) {
        let Some(off) = id.checked_sub(self.base) else {
            return;
        };
        let Ok(idx) = usize::try_from(off) else {
            return;
        };
        while self.window.len() <= idx {
            self.window.push_back(None);
        }
        let slot = &mut self.window[idx];
        if slot.is_none() {
            self.occupied += 1;
        }
        *slot = Some(FloorEntry {
            floor,
            done,
            total,
            fit,
        });
    }

    /// Drops entries for retired requests once they outnumber the live set
    /// by [`PRUNE_SLACK`] — amortized cleanup so single retirements cost
    /// nothing. Dead interior slots become holes; the window then shrinks
    /// from both ends, advancing `base` to the oldest live id. `is_live`
    /// answers whether a request id is still resident.
    pub fn prune<F: Fn(u64) -> bool>(&mut self, live: usize, is_live: F) {
        if self.occupied <= live + PRUNE_SLACK {
            return;
        }
        for (i, slot) in self.window.iter_mut().enumerate() {
            if slot.is_some() && !is_live(self.base + i as u64) {
                *slot = None;
                self.occupied -= 1;
            }
        }
        while matches!(self.window.front(), Some(None)) {
            self.window.pop_front();
            self.base += 1;
        }
        while matches!(self.window.back(), Some(None)) {
            self.window.pop_back();
        }
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

    #[test]
    fn seed_without_memo_scans_from_one() {
        let s = SchedState::new();
        assert_eq!(s.seed(7, cy(0), cy(100), 50, CHIP), Seed::Floor(1));
    }

    #[test]
    fn clean_entry_with_fitting_slack_is_exact() {
        let mut s = SchedState::new();
        s.record(7, 4, cy(10), cy(100), cy(40));
        assert_eq!(s.seed(7, cy(10), cy(100), 40, CHIP), Seed::Exact(4, cy(40)));
        assert_eq!(
            s.seed(7, cy(10), cy(100), 1000, CHIP),
            Seed::Exact(4, cy(40))
        );
    }

    #[test]
    fn clean_entry_with_tight_slack_degrades_to_floor() {
        // The memoized fit shows `predict(4)` misses, so the scan starts
        // one past the floor.
        let mut s = SchedState::new();
        s.record(7, 4, cy(10), cy(100), cy(40));
        assert_eq!(s.seed(7, cy(10), cy(100), 39, CHIP), Seed::Floor(5));
    }

    #[test]
    fn clean_entry_at_the_chip_total_is_exact_even_when_tight() {
        // Saturated: no count below the chip fits, and a scan from the
        // total returns `(total, predict(total))` = the memo.
        let mut s = SchedState::new();
        s.record(7, CHIP, cy(10), cy(100), cy(40));
        assert_eq!(
            s.seed(7, cy(10), cy(100), 39, CHIP),
            Seed::Exact(CHIP, cy(40))
        );
        assert_eq!(
            s.seed(7, cy(10), cy(100), -5, CHIP),
            Seed::Exact(CHIP, cy(40))
        );
        // One below the chip is not saturated: scan the last count.
        s.record(8, CHIP - 1, cy(10), cy(100), cy(40));
        assert_eq!(s.seed(8, cy(10), cy(100), 39, CHIP), Seed::Floor(CHIP));
    }

    #[test]
    fn dirty_work_counters_invalidate() {
        let mut s = SchedState::new();
        s.record(7, 4, cy(10), cy(100), cy(40));
        // Progress dirties the entry ...
        assert_eq!(s.seed(7, cy(20), cy(100), 1000, CHIP), Seed::Floor(1));
        // ... and so does a table switch (total changed).
        assert_eq!(s.seed(7, cy(10), cy(90), 1000, CHIP), Seed::Floor(1));
        // A dirty entry at the chip total is not saturated either.
        s.record(9, CHIP, cy(10), cy(100), cy(40));
        assert_eq!(s.seed(9, cy(11), cy(100), 39, CHIP), Seed::Floor(1));
    }

    #[test]
    fn floors_survive_swap_remove_reorder() {
        // Regression for the position-based `HintEntry` hazard: retiring a
        // tenant `swap_remove`s the live list, moving the last tenant into
        // the vacated slot. The positional memo then mismatched ids and
        // silently reset the moved tenant's floor to 1. Id-keyed entries
        // are order-independent: after tenant 0 retires, tenants 1 and 2
        // keep their exact floors no matter where they now sit.
        let mut s = SchedState::new();
        s.record(0, 2, cy(5), cy(50), cy(30));
        s.record(1, 6, cy(0), cy(80), cy(70));
        s.record(2, 3, cy(9), cy(40), cy(20));
        // Tenant 0 completes; 2 is swapped into its position. Lookups are
        // by id, so position never enters the contract.
        assert_eq!(s.seed(2, cy(9), cy(40), 25, CHIP), Seed::Exact(3, cy(20)));
        assert_eq!(s.seed(1, cy(0), cy(80), 70, CHIP), Seed::Exact(6, cy(70)));
        // The retired id is eventually pruned; survivors stay.
        for id in 100..200 {
            s.record(id, 1, cy(0), cy(1), cy(1));
        }
        let live = [1u64, 2];
        s.prune(2, |id| live.contains(&id));
        assert_eq!(s.len(), 2);
        assert_eq!(s.seed(1, cy(0), cy(80), 70, CHIP), Seed::Exact(6, cy(70)));
        assert_eq!(s.seed(0, cy(5), cy(50), 1000, CHIP), Seed::Floor(1));
    }

    #[test]
    fn prune_is_amortized() {
        let mut s = SchedState::new();
        for id in 0..10 {
            s.record(id, 1, cy(0), cy(1), cy(1));
        }
        // Below the slack: nothing dropped even with zero live tenants.
        s.prune(0, |_| false);
        assert_eq!(s.len(), 10);
        // Past the slack: retired entries go.
        for id in 10..80 {
            s.record(id, 1, cy(0), cy(1), cy(1));
        }
        s.prune(4, |id| id < 4);
        assert_eq!(s.len(), 4);
    }
}
