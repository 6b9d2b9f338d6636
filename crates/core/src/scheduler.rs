//! Algorithm 1: spatial scheduling for Planaria (§V).
//!
//! The scheduler runs in two stages. First, `ESTIMATERESOURCES` finds the
//! minimum subarray count meeting each task's QoS slack (via configuration-
//! table lookups). Then, if the minima fit on the chip, `ALLOCATEFITTASKS`
//! distributes the spare subarrays proportionally to a
//! `priority / remaining-time` score; otherwise `ALLOCATEUNFITTASKS` ranks
//! tasks by `priority / (slack × estimate)` and packs the chip greedily,
//! leaving the rest queued.
//!
//! Since the discrete-event kernel refactor, time flows through the
//! scheduler in integer cycles: slack is signed cycles to the deadline and
//! predictions are table cycles. (The scores stay `f64` — they are
//! dimensionless ratios, and because every term scales by the same clock,
//! the ranking is identical to the old seconds-based one.)

use planaria_compiler::CompiledDnn;
use planaria_model::units::Cycles;

/// Scheduler view of one task in the queue (running or waiting).
#[derive(Debug, Clone, Copy)]
pub struct SchedTask<'a> {
    /// Task priority (1..=11).
    pub priority: u32,
    /// Remaining slack to the QoS deadline, cycles (negative when the
    /// deadline has already passed).
    pub slack: i64,
    /// Completed work fraction ∈ [0, 1].
    pub done: f64,
    /// The task's compiled configuration tables.
    pub compiled: &'a CompiledDnn,
}

impl SchedTask<'_> {
    /// Predicted remaining cycles on `subarrays` granules (the
    /// `PREDICTTIME` table lookup).
    pub fn predict_cycles(&self, subarrays: u32) -> Cycles {
        self.compiled.table(subarrays).remaining_cycles(self.done)
    }

    /// [`predict_cycles`](Self::predict_cycles) in seconds, for
    /// presentation at the simulation boundary (examples, reports).
    pub fn predict_time(&self, subarrays: u32, freq_hz: f64) -> f64 {
        self.predict_cycles(subarrays).as_f64() / freq_hz
    }

    /// `ESTIMATERESOURCES`: the minimum subarray count whose predicted
    /// remaining cycles fit the slack; the full chip when none does.
    pub fn estimate_resources(&self, total: u32) -> u32 {
        self.estimate_resources_from(1, total)
    }

    /// [`estimate_resources`](Self::estimate_resources) scanning upward
    /// from `floor` instead of 1.
    ///
    /// Passing a `floor` above the true minimum changes the answer, so the
    /// floor must be a *proven lower bound*. The engines derive one from
    /// monotonicity: for a queued task, `done` is frozen (so every
    /// `predict_cycles(s)` is unchanged) while `slack = deadline − now`
    /// only shrinks as time advances — therefore the minimal fitting `s`
    /// can only grow between scheduling events, and the previous event's
    /// estimate is an exact floor for the next. That turns the per-event
    /// estimate scan from `O(total)` table lookups into `O(1)` for the
    /// queued majority without changing a single allocation.
    pub fn estimate_resources_from(&self, floor: u32, total: u32) -> u32 {
        self.estimate_resources_with_fit(floor, total).0
    }

    /// [`estimate_resources_from`](Self::estimate_resources_from) that also
    /// returns the predicted remaining cycles *at* the returned estimate —
    /// the quantity `ALLOCATEFITTASKS` divides by. Returning it here lets
    /// the fit path reuse the scan's last table lookup instead of
    /// re-querying, and lets the engines memoize it per tenant (the
    /// [`sched_state`](crate::sched_state) band fastpath): when
    /// a memoized `(estimate, fit)` still satisfies `fit <= slack`, the
    /// whole estimate phase is O(1) with **zero** table lookups.
    ///
    /// When no subarray count fits the slack, the estimate is `total` and
    /// the fit is `predict_cycles(total)` — exactly what the fit path
    /// would look up.
    pub fn estimate_resources_with_fit(&self, floor: u32, total: u32) -> (u32, Cycles) {
        let mut last = Cycles::ZERO;
        for s in floor.clamp(1, total)..=total {
            last = self.predict_cycles(s);
            if last.get() as i64 <= self.slack {
                return (s, last);
            }
        }
        (total, last)
    }
}

/// Minimum slack used by the unfit-path urgency score: 1 µs expressed in
/// cycles of the given clock. Past-deadline tasks rank as most urgent
/// without a division blow-up (same clamp the old seconds-based scheduler
/// applied at `1e-6 s`). At the paper's 700 MHz this is exactly the 700
/// cycles the scheduler historically hardcoded; deriving it from the
/// clock keeps the clamp meaning "one microsecond" on every geometry
/// (e.g. 595 cycles on a crossbar-derated 595 MHz chip).
pub fn min_slack_cycles(freq_hz: f64) -> i64 {
    ((freq_hz / 1e6) as i64).max(1)
}

/// `SCHEDULETASKSSPATIALLY`: returns the subarray allocation for each task,
/// aligned with the input slice (0 = stay queued). The allocations always
/// sum to at most `total`. `min_slack` is the urgency-score clamp in
/// cycles — pass [`min_slack_cycles`] of the chip's clock.
pub fn schedule_tasks_spatially(tasks: &[SchedTask<'_>], total: u32, min_slack: i64) -> Vec<u32> {
    schedule_tasks_spatially_hinted(tasks, total, &[], min_slack).0
}

/// [`schedule_tasks_spatially`] with per-task estimate floors, returning
/// `(allocations, estimates)` so the caller can seed the next call's
/// floors (see [`SchedTask::estimate_resources_from`] for when a floor is
/// sound). `floors` may be empty (all 1) or aligned with `tasks`; the
/// returned estimates are aligned with `tasks`.
///
/// This is the convenient materializing wrapper; the engines' hot loop
/// calls [`allocate_spatially_into`] directly with reusable scratch
/// buffers so steady-state events allocate nothing.
pub fn schedule_tasks_spatially_hinted(
    tasks: &[SchedTask<'_>],
    total: u32,
    floors: &[u32],
    min_slack: i64,
) -> (Vec<u32>, Vec<u32>) {
    if tasks.is_empty() {
        return (Vec::new(), Vec::new());
    }
    let mut estimates = Vec::with_capacity(tasks.len());
    let mut fit = Vec::with_capacity(tasks.len());
    let mut priorities = Vec::with_capacity(tasks.len());
    let mut slacks = Vec::with_capacity(tasks.len());
    for (i, t) in tasks.iter().enumerate() {
        let (e, f) = t.estimate_resources_with_fit(floors.get(i).copied().unwrap_or(1), total);
        estimates.push(e);
        fit.push(f);
        priorities.push(t.priority);
        slacks.push(t.slack);
    }
    let mut alloc = Vec::new();
    let mut scratch = AllocScratch::default();
    allocate_spatially_into(
        &priorities,
        &slacks,
        &estimates,
        &fit,
        total,
        min_slack,
        &mut alloc,
        &mut scratch,
    );
    (alloc, estimates)
}

/// Reusable working memory for [`allocate_spatially_into`]. Owned by the
/// caller (the engines keep one per policy), so repeated scheduling events
/// reuse the same buffers instead of allocating fresh `Vec`s: once the
/// buffers have grown to the live-tenant high-water mark, allocation runs
/// with zero heap traffic.
#[derive(Debug, Clone, Default)]
pub struct AllocScratch {
    scores: Vec<f64>,
    fractional: Vec<(usize, f64)>,
    order: Vec<usize>,
}

/// The allocation phase of Algorithm 1 over plain columnar inputs, writing
/// into a caller-owned output buffer.
///
/// The estimate phase (`ESTIMATERESOURCES`) is the caller's: `estimates[i]`
/// is task *i*'s minimum subarray count and `fit[i]` the predicted
/// remaining cycles at that count (both from
/// [`SchedTask::estimate_resources_with_fit`], possibly memoized). Given
/// those, this function needs no table access at all — it is the pure
/// `ALLOCATEFITTASKS` / `ALLOCATEUNFITTASKS` arithmetic of §V, bit-for-bit
/// identical to the materializing wrappers above.
///
/// `alloc` is cleared and refilled aligned with the inputs; allocations
/// always sum to at most `total`. `min_slack` is the unfit-path urgency
/// clamp in cycles ([`min_slack_cycles`] of the chip's clock).
pub fn allocate_spatially_into(
    priorities: &[u32],
    slacks: &[i64],
    estimates: &[u32],
    fit: &[Cycles],
    total: u32,
    min_slack: i64,
    alloc: &mut Vec<u32>,
    scratch: &mut AllocScratch,
) {
    alloc.clear();
    if estimates.is_empty() {
        return;
    }
    let need: u32 = estimates.iter().sum();
    if need <= total {
        allocate_fit_into(priorities, estimates, fit, total, alloc, scratch);
    } else {
        allocate_unfit_into(
            priorities, slacks, estimates, total, min_slack, alloc, scratch,
        );
    }
}

/// `ALLOCATEFITTASKS`: everyone gets their minimum; the spare subarrays are
/// split proportionally to `priority / remaining-time`.
fn allocate_fit_into(
    priorities: &[u32],
    estimates: &[u32],
    fit: &[Cycles],
    total: u32,
    alloc: &mut Vec<u32>,
    scratch: &mut AllocScratch,
) {
    alloc.extend_from_slice(estimates);
    let mut spare = total - estimates.iter().sum::<u32>();
    if spare == 0 {
        return;
    }
    scratch.scores.clear();
    scratch.scores.extend(
        priorities
            .iter()
            .zip(fit)
            .map(|(&p, f)| f64::from(p) / f.as_f64().max(1.0)),
    );
    let sum: f64 = scratch.scores.iter().sum();
    // Integer proportional share; remainders go to the largest fractions.
    scratch.fractional.clear();
    for (i, score) in scratch.scores.iter().enumerate() {
        let share = score / sum * f64::from(spare);
        let whole = share.floor() as u32;
        alloc[i] += whole;
        scratch.fractional.push((i, share - share.floor()));
    }
    spare -= scratch
        .fractional
        .iter()
        .map(|&(i, _)| alloc[i] - estimates[i])
        .sum::<u32>();
    // Same stable-to-unstable translation as the unfit path: the pairs
    // are pushed in index order, so an index tiebreak reproduces the
    // stable descending-by-fraction order exactly, without the stable
    // sort's allocation (fractions are finite: `share` is a ratio of
    // finite non-NaN terms).
    scratch.fractional.sort_unstable_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.0.cmp(&b.0))
    });
    for &(i, _) in scratch.fractional.iter() {
        if spare == 0 {
            break;
        }
        alloc[i] += 1;
        spare -= 1;
    }
}

/// `ALLOCATEUNFITTASKS`: rank by `priority / (slack × estimate)` and pack
/// the chip; the last packed task may receive a partial grant, everyone
/// else waits.
///
/// The urgency scores are evaluated once into scratch and the sort
/// compares the precomputed values. The pre-overhaul code evaluated the
/// score closure inside the comparator — two fresh divisions per
/// comparison, roughly `2·n·log n` score evaluations per event where `n`
/// evaluations suffice. A saturated node takes this path on almost every
/// event (a deep backlog keeps `Σ estimates > total`), which made the
/// comparator the hottest arithmetic in the whole per-event path. The
/// comparator sees bit-identical `f64` values either way and the sort is
/// stable, so the packing order — and therefore every allocation — is
/// unchanged; [`reference::allocate_spatially_reference_into`] keeps the
/// old body alive and the `unfit_path_matches_reference_*` property test
/// pins the two together.
fn allocate_unfit_into(
    priorities: &[u32],
    slacks: &[i64],
    estimates: &[u32],
    total: u32,
    min_slack: i64,
    alloc: &mut Vec<u32>,
    scratch: &mut AllocScratch,
) {
    scratch.scores.clear();
    scratch.scores.extend((0..estimates.len()).map(|i| {
        // Tasks already past their deadline get the most urgent score.
        let slack = slacks[i].max(min_slack) as f64;
        f64::from(priorities[i]) / (slack * f64::from(estimates[i]))
    }));
    // The reference's *stable* descending sort over `0..n` is exactly a
    // sort by the total key `(score desc, index asc)` — the index
    // tiebreak encodes stability, and because that key is a *strict*
    // total order (scores are finite: priority ≥ 1, slack clamped ≥
    // `min_slack` ≥ 1, estimate ≥ 1; ties fall to the distinct indices),
    // the sorted permutation is unique no matter what order the sort
    // starts from. That licenses a warm start: `scratch.order` still
    // holds the *previous* event's sorted permutation, and urgency ranks
    // drift slowly between events (all slacks shrink by the same `dt`;
    // crossings are rare), so after a cheap fix-up for the changed tenant
    // count it is nearly sorted already. An adaptive insertion sort then
    // finishes in ~`n` comparisons on the steady state instead of the
    // ~`n·log n` branch-missing comparisons a from-scratch sort pays —
    // and this sort runs on essentially every event of a saturated node.
    //
    // The fix-up keeps the invariant "`order` is a permutation of
    // `0..n`": entries `>= n` (tenants retired since the last unfit
    // event) are dropped, missing high indices (tenants admitted since)
    // are appended. A `swap_remove` retirement relabels the moved tenant,
    // which displaces at most one entry per retirement — exactly the
    // near-sorted case insertion sort absorbs in O(displacement).
    let n = estimates.len();
    if scratch.order.len() > n {
        scratch.order.retain(|&i| i < n);
    } else {
        scratch.order.extend(scratch.order.len()..n);
    }
    let scores = &scratch.scores;
    // `a` packs before `b`: strictly greater urgency, or equal urgency
    // and earlier index (the stability tiebreak). NaN is unreachable
    // (finite scores), so `partial_cmp`'s `None` falls into the index
    // arm harmlessly.
    let before = |a: usize, b: usize| match scores[a].partial_cmp(&scores[b]) {
        Some(std::cmp::Ordering::Greater) => true,
        Some(std::cmp::Ordering::Less) => false,
        _ => a < b,
    };
    let ord = &mut scratch.order;
    for i in 1..n {
        let v = ord[i];
        let mut j = i;
        while j > 0 && before(v, ord[j - 1]) {
            ord[j] = ord[j - 1];
            j -= 1;
        }
        ord[j] = v;
    }
    alloc.resize(estimates.len(), 0);
    let mut remaining = total;
    for &i in scratch.order.iter() {
        if remaining == 0 {
            break;
        }
        let grant = estimates[i].min(remaining);
        alloc[i] = grant;
        remaining -= grant;
    }
}

/// The pre-overhaul allocation arithmetic, retained verbatim.
///
/// `planaria-sim`'s `oracle` module keeps the replaced kernel containers
/// (plain heap, `BTreeMap` index) alive so the hot-path overhaul stays
/// testable and measurable against exactly what it replaced; this module
/// is the allocator leg of the same preservation on the scheduler side.
/// The *whole* pre-overhaul reschedule body lives on as
/// `SpatialPolicy::reschedule_reference` in `planaria-core`'s engine
/// (eager estimate views, unfiltered placement sorts), selected by
/// `with_reference_hot_path`; that body calls
/// [`allocate_spatially_reference_into`] here, which carries the
/// pre-overhaul unfit allocator — scores evaluated inside the sort
/// comparator over a fresh `0..n` — while the fit path is shared by both
/// lanes (its sort swap is order-preserving, so sharing only speeds the
/// baseline up — the conservative direction for the race). The kernel
/// bench's baseline lane runs through that complete path, so
/// `BENCH_kernel.json` measures new-hot-path vs pre-PR-hot-path rather
/// than new-vs-new, and the property tests below pin the two allocator
/// implementations bit-for-bit.
pub mod reference {
    use super::{allocate_fit_into, AllocScratch, Cycles};

    /// Pre-overhaul [`allocate_spatially_into`](super::allocate_spatially_into):
    /// identical dispatch, comparator-evaluated unfit scores.
    pub fn allocate_spatially_reference_into(
        priorities: &[u32],
        slacks: &[i64],
        estimates: &[u32],
        fit: &[Cycles],
        total: u32,
        min_slack: i64,
        alloc: &mut Vec<u32>,
        scratch: &mut AllocScratch,
    ) {
        alloc.clear();
        if estimates.is_empty() {
            return;
        }
        let need: u32 = estimates.iter().sum();
        if need <= total {
            allocate_fit_into(priorities, estimates, fit, total, alloc, scratch);
        } else {
            allocate_unfit_reference_into(
                priorities, slacks, estimates, total, min_slack, alloc, scratch,
            );
        }
    }

    /// The pre-overhaul unfit body: the score closure runs inside the
    /// comparator, twice per comparison.
    fn allocate_unfit_reference_into(
        priorities: &[u32],
        slacks: &[i64],
        estimates: &[u32],
        total: u32,
        min_slack: i64,
        alloc: &mut Vec<u32>,
        scratch: &mut AllocScratch,
    ) {
        scratch.order.clear();
        scratch.order.extend(0..estimates.len());
        let score = |i: usize| {
            let slack = slacks[i].max(min_slack) as f64;
            f64::from(priorities[i]) / (slack * f64::from(estimates[i]))
        };
        scratch.order.sort_by(|&a, &b| {
            score(b)
                .partial_cmp(&score(a))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        alloc.resize(estimates.len(), 0);
        let mut remaining = total;
        for &i in scratch.order.iter() {
            if remaining == 0 {
                break;
            }
            let grant = estimates[i].min(remaining);
            alloc[i] = grant;
            remaining -= grant;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use planaria_arch::AcceleratorConfig;
    use planaria_compiler::compile;
    use planaria_model::DnnId;

    /// The urgency clamp at the paper clock, used by every test below.
    const PAPER_MIN_SLACK: i64 = 700;

    fn compiled(id: DnnId) -> planaria_compiler::CompiledDnn {
        compile(&AcceleratorConfig::planaria(), &id.build())
    }

    #[test]
    fn min_slack_is_one_microsecond_of_the_clock() {
        // Exactly the historical hardcoded 700 at the paper's 700 MHz —
        // the derivation is behavior-preserving by construction.
        assert_eq!(
            min_slack_cycles(AcceleratorConfig::planaria().freq_hz),
            PAPER_MIN_SLACK
        );
        // The crossbar-derated fine-granule chip runs at 595 MHz.
        assert_eq!(
            min_slack_cycles(AcceleratorConfig::with_granularity(16).freq_hz),
            595
        );
        // Degenerate clocks still clamp above zero.
        assert_eq!(min_slack_cycles(1.0), 1);
    }

    /// Seconds → cycles at the Planaria clock, for readable test slacks.
    fn cy(seconds: f64) -> i64 {
        (seconds * AcceleratorConfig::planaria().freq_hz) as i64
    }

    #[test]
    fn estimate_is_minimal() {
        let c = compiled(DnnId::TinyYolo);
        let isolated_full = c.table(16).total_cycles().get() as i64;
        let t = SchedTask {
            priority: 5,
            slack: isolated_full * 20, // loose: smallest allocations work
            done: 0.0,
            compiled: &c,
        };
        let est_loose = t.estimate_resources(16);
        let tight = SchedTask {
            slack: isolated_full + isolated_full / 20,
            ..t
        };
        let est_tight = tight.estimate_resources(16);
        assert!(est_loose <= est_tight);
        assert!(est_loose >= 1 && est_tight <= 16);
    }

    #[test]
    fn hopeless_slack_caps_at_full_chip() {
        let c = compiled(DnnId::SsdResNet34);
        let t = SchedTask {
            priority: 5,
            slack: cy(-1.0),
            done: 0.0,
            compiled: &c,
        };
        assert_eq!(t.estimate_resources(16), 16);
    }

    #[test]
    fn single_task_gets_whole_chip() {
        let c = compiled(DnnId::ResNet50);
        let t = SchedTask {
            priority: 5,
            slack: cy(10.0),
            done: 0.0,
            compiled: &c,
        };
        let alloc = schedule_tasks_spatially(&[t], 16, PAPER_MIN_SLACK);
        assert_eq!(alloc, vec![16]);
    }

    #[test]
    fn allocations_never_exceed_chip() {
        let nets: Vec<_> = [
            DnnId::ResNet50,
            DnnId::TinyYolo,
            DnnId::MobileNetV1,
            DnnId::Gnmt,
        ]
        .iter()
        .map(|&id| compiled(id))
        .collect();
        for slack_s in [0.001, 0.01, 0.1, 1.0] {
            let tasks: Vec<SchedTask> = nets
                .iter()
                .enumerate()
                .map(|(i, c)| SchedTask {
                    priority: (i as u32 % 11) + 1,
                    slack: cy(slack_s),
                    done: 0.1 * i as f64,
                    compiled: c,
                })
                .collect();
            let alloc = schedule_tasks_spatially(&tasks, 16, PAPER_MIN_SLACK);
            assert!(
                alloc.iter().sum::<u32>() <= 16,
                "slack {slack_s}: {alloc:?}"
            );
        }
    }

    #[test]
    fn fit_path_spreads_spare_by_priority() {
        let a = compiled(DnnId::TinyYolo);
        let b = compiled(DnnId::TinyYolo);
        let mk = |priority, c| SchedTask {
            priority,
            slack: cy(10.0), // very loose: both estimate 1
            done: 0.0,
            compiled: c,
        };
        let alloc = schedule_tasks_spatially(&[mk(11, &a), mk(1, &b)], 16, PAPER_MIN_SLACK);
        assert_eq!(alloc.iter().sum::<u32>(), 16);
        assert!(
            alloc[0] > alloc[1],
            "high priority should get the larger share: {alloc:?}"
        );
    }

    #[test]
    fn unfit_path_prefers_urgent_high_priority() {
        let heavy = compiled(DnnId::SsdResNet34);
        // Three heavy tasks with slack just above the full-chip isolated
        // latency: estimates are 16 each; only the best-scored one fits.
        let iso = heavy.table(16).total_cycles().get() as i64;
        let mk = |priority, slack| SchedTask {
            priority,
            slack,
            done: 0.0,
            compiled: &heavy,
        };
        let tight = iso + iso / 50;
        let tasks = [mk(1, tight), mk(11, tight), mk(5, tight)];
        let alloc = schedule_tasks_spatially(&tasks, 16, PAPER_MIN_SLACK);
        assert_eq!(alloc[1], 16, "priority 11 should win: {alloc:?}");
        assert_eq!(alloc[0] + alloc[2], 0);
    }

    #[test]
    fn seconds_prediction_matches_cycles_at_the_clock() {
        let c = compiled(DnnId::TinyYolo);
        let t = SchedTask {
            priority: 5,
            slack: cy(1.0),
            done: 0.5,
            compiled: &c,
        };
        let freq = AcceleratorConfig::planaria().freq_hz;
        let secs = t.predict_time(8, freq);
        assert!((secs * freq - t.predict_cycles(8).as_f64()).abs() < 1e-6);
    }

    #[test]
    fn empty_queue_yields_empty_allocation() {
        assert!(schedule_tasks_spatially(&[], 16, PAPER_MIN_SLACK).is_empty());
    }

    #[test]
    fn hinted_with_unit_floors_matches_plain() {
        let nets: Vec<_> = [DnnId::ResNet50, DnnId::TinyYolo, DnnId::Gnmt]
            .iter()
            .map(|&id| compiled(id))
            .collect();
        for slack_s in [0.001, 0.01, 0.1] {
            let tasks: Vec<SchedTask> = nets
                .iter()
                .enumerate()
                .map(|(i, c)| SchedTask {
                    priority: (i as u32 % 11) + 1,
                    slack: cy(slack_s),
                    done: 0.2 * i as f64,
                    compiled: c,
                })
                .collect();
            let plain = schedule_tasks_spatially(&tasks, 16, PAPER_MIN_SLACK);
            let (hinted, estimates) =
                schedule_tasks_spatially_hinted(&tasks, 16, &[1, 1, 1], PAPER_MIN_SLACK);
            assert_eq!(plain, hinted, "slack {slack_s}");
            for (t, &e) in tasks.iter().zip(&estimates) {
                assert_eq!(e, t.estimate_resources(16), "slack {slack_s}");
            }
        }
    }

    #[test]
    fn unfit_path_matches_reference_arithmetic_over_random_queues() {
        // The hot allocator precomputes the urgency scores the reference
        // evaluates inside its comparator; the two must produce the same
        // allocation vector bit-for-bit on any queue shape — including
        // score ties (equal priority/slack/estimate triples), which the
        // stable sort must break identically.
        let mut rng = planaria_model::SplitMix64::new(0xA110C);
        for round in 0..500 {
            let n = 1 + rng.next_below(40) as usize;
            let mut priorities = Vec::with_capacity(n);
            let mut slacks = Vec::with_capacity(n);
            let mut estimates = Vec::with_capacity(n);
            let mut fit = Vec::with_capacity(n);
            for _ in 0..n {
                // Coarse buckets force frequent exact ties.
                priorities.push(1 + rng.next_below(4) as u32);
                // Spans negative (past-deadline) through positive slack.
                slacks.push(rng.next_below(8) as i64 * 1_000 - 2_000);
                estimates.push(1 + rng.next_below(4) as u32);
                fit.push(Cycles::new(rng.next_below(10_000)));
            }
            let total = 1 + rng.next_below(16) as u32;
            let mut hot = Vec::new();
            let mut old = Vec::new();
            let mut s1 = AllocScratch::default();
            let mut s2 = AllocScratch::default();
            allocate_spatially_into(
                &priorities,
                &slacks,
                &estimates,
                &fit,
                total,
                PAPER_MIN_SLACK,
                &mut hot,
                &mut s1,
            );
            reference::allocate_spatially_reference_into(
                &priorities,
                &slacks,
                &estimates,
                &fit,
                total,
                PAPER_MIN_SLACK,
                &mut old,
                &mut s2,
            );
            assert_eq!(hot, old, "round {round}: n={n} total={total}");
        }
    }

    #[test]
    fn earlier_estimate_is_a_sound_floor_under_shrinking_slack() {
        // The engine's memoization contract: with `done` frozen and slack
        // only shrinking, an earlier estimate used as the floor for a
        // later (tighter-slack) scan returns the same estimate as a full
        // scan from 1.
        let c = compiled(DnnId::ResNet50);
        let iso = c.table(16).total_cycles().get() as i64;
        let mut prev_floor = 1u32;
        for k in (1..=24).rev() {
            let t = SchedTask {
                priority: 5,
                slack: iso * i64::from(k) / 8, // monotonically shrinking
                done: 0.3,
                compiled: &c,
            };
            let full = t.estimate_resources(16);
            let hinted = t.estimate_resources_from(prev_floor, 16);
            assert_eq!(full, hinted, "k={k} floor={prev_floor}");
            assert!(hinted >= prev_floor);
            prev_floor = hinted;
        }
    }
}
