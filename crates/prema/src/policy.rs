//! Temporal scheduling policies for the monolithic baseline.
//!
//! Since the discrete-event kernel refactor the policy operates in the
//! integer-cycle domain: tokens accrue as `priority × waited-cycles`
//! (`u64`), FCFS compares arrival cycles and SJF compares exact remaining
//! cycles. The starvation threshold stays a seconds-valued knob at the
//! engine API ([`TOKEN_THRESHOLD`]); the engine converts it to token
//! units once per run (tokens scale with the clock, so the conversion is
//! just `seconds × freq_hz` — the ranking is identical to the old
//! seconds-based policy).

use planaria_model::units::Cycles;

/// A waiting task's tokens at `now`: the `banked` tokens of its finished
/// waits plus `priority × (now − waiting_since)` for the current one.
///
/// Accrual is linear and saturating, so banking once per wait is exact:
/// for non-negative terms, a chain of saturating adds equals one
/// saturating sum, and re-accruing at every event (the policy as
/// published) gives the same count as this closed form.
pub fn tokens_at(banked: u64, priority: u32, waiting_since: Cycles, now: Cycles) -> u64 {
    let waited = now.saturating_sub(waiting_since);
    banked.saturating_add(u64::from(priority).saturating_mul(waited.get()))
}

/// Temporal scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Policy {
    /// PREMA: token threshold + shortest-estimated-job-first among
    /// candidates.
    Prema,
    /// First-come first-served, non-preemptive ordering.
    Fcfs,
    /// Shortest predicted remaining job first (preemptive).
    Sjf,
}

/// View of one task for the policy decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PolicyTask {
    /// Index in the caller's task list.
    pub index: usize,
    /// Accumulated tokens (priority-weighted waiting cycles).
    pub tokens: u64,
    /// Arrival cycle (for FCFS).
    pub arrival: Cycles,
    /// Predicted remaining work, cycles.
    pub remaining: Cycles,
}

/// Default starvation threshold, **seconds** of priority-weighted waiting.
/// Tokens accrue at `priority` per cycle, so the engine converts this knob
/// to token units with one `seconds × freq_hz` multiply per run; a
/// median-priority (6) task crosses the threshold after ~10 ms of
/// queueing. (`ext_prema_threshold` sweeps this knob to show the baseline
/// is not adversarially tuned.)
pub const TOKEN_THRESHOLD: f64 = 0.06;

/// Picks the next task to occupy the accelerator in one pass over
/// `tasks`; `None` when the queue is empty. `threshold` is the
/// starvation bar in token units (priority-weighted cycles), used only by
/// [`Policy::Prema`]. Ties go to the first task in the caller's order.
pub fn pick_with_threshold<I>(policy: Policy, tasks: I, threshold: u64) -> Option<usize>
where
    I: IntoIterator<Item = PolicyTask>,
{
    let tasks = tasks.into_iter();
    match policy {
        Policy::Fcfs => tasks.min_by_key(|t| t.arrival).map(|t| t.index),
        Policy::Sjf => tasks.min_by_key(|t| t.remaining).map(|t| t.index),
        Policy::Prema => {
            // Starved tasks (tokens over the threshold) form the candidate
            // set, shortest predicted job first; with nobody starved the
            // policy degenerates to throughput-maximizing SJF over the
            // whole queue. Both minima are tracked at once; the strict
            // `<` keeps the first of equal ones.
            let shorter = |best: Option<PolicyTask>, t: PolicyTask| {
                best.is_none_or(|b| t.remaining < b.remaining)
            };
            let mut shortest = None;
            let mut shortest_starved = None;
            for t in tasks {
                if shorter(shortest, t) {
                    shortest = Some(t);
                }
                if t.tokens >= threshold && shorter(shortest_starved, t) {
                    shortest_starved = Some(t);
                }
            }
            shortest_starved.or(shortest).map(|t| t.index)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task(index: usize, tokens: u64, arrival: u64, remaining: u64) -> PolicyTask {
        PolicyTask {
            index,
            tokens,
            arrival: Cycles::new(arrival),
            remaining: Cycles::new(remaining),
        }
    }

    #[test]
    fn tokens_accrue_with_priority_and_time() {
        assert_eq!(tokens_at(0, 5, Cycles::ZERO, Cycles::new(2)), 10);
        assert_eq!(tokens_at(0, 5, Cycles::ZERO, Cycles::new(3)), 15);
        // A later wait adds to the bank of the earlier ones.
        assert_eq!(tokens_at(15, 5, Cycles::new(7), Cycles::new(9)), 25);
        // Not yet waiting (or waiting since now): the bank alone.
        assert_eq!(tokens_at(15, 5, Cycles::new(9), Cycles::new(9)), 15);
    }

    #[test]
    fn accrual_saturates_instead_of_overflowing() {
        assert_eq!(
            tokens_at(u64::MAX - 1, 11, Cycles::ZERO, Cycles::new(u64::MAX)),
            u64::MAX
        );
        assert_eq!(
            tokens_at(u64::MAX, 1, Cycles::ZERO, Cycles::new(1)),
            u64::MAX
        );
    }

    #[test]
    fn fcfs_takes_earliest_arrival() {
        let tasks = [task(0, 0, 5, 1), task(1, 100, 2, 9)];
        assert_eq!(pick_with_threshold(Policy::Fcfs, tasks, 50), Some(1));
    }

    #[test]
    fn sjf_takes_shortest() {
        let tasks = [task(0, 0, 5, 1), task(1, 100, 2, 9)];
        assert_eq!(pick_with_threshold(Policy::Sjf, tasks, 50), Some(0));
    }

    #[test]
    fn prema_prefers_short_job_among_starved_candidates() {
        // Tasks 1 and 2 are starved (tokens over the threshold); task 2 is
        // shorter. Task 0 has few tokens and is excluded even though it is
        // shortest overall.
        let tasks = [task(0, 1, 0, 10), task(1, 100, 0, 900), task(2, 95, 0, 200)];
        assert_eq!(pick_with_threshold(Policy::Prema, tasks, 50), Some(2));
    }

    #[test]
    fn prema_runs_sjf_when_nobody_is_starved() {
        let tasks = [task(0, 10, 0, 500), task(1, 20, 0, 200)];
        assert_eq!(pick_with_threshold(Policy::Prema, tasks, 50), Some(1));
    }

    #[test]
    fn ties_resolve_to_the_first_task() {
        // Deterministic tie-break: equal minima pick the earliest index in
        // the caller's list (the kernel's admission order).
        let tasks = [task(3, 0, 7, 4), task(9, 0, 7, 4)];
        assert_eq!(pick_with_threshold(Policy::Fcfs, tasks, 50), Some(3));
        assert_eq!(pick_with_threshold(Policy::Sjf, tasks, 50), Some(3));
        assert_eq!(pick_with_threshold(Policy::Prema, tasks, 50), Some(3));
    }

    #[test]
    fn empty_queue_picks_nothing() {
        assert_eq!(pick_with_threshold(Policy::Prema, [], 50), None);
    }

    /// The two-pass definition the single pass replaced: filter the
    /// starved tasks, fall back to the whole queue when none is, then take
    /// the first minimum.
    fn pick_two_pass(policy: Policy, tasks: &[PolicyTask], threshold: u64) -> Option<usize> {
        match policy {
            Policy::Fcfs => tasks.iter().min_by_key(|t| t.arrival).map(|t| t.index),
            Policy::Sjf => tasks.iter().min_by_key(|t| t.remaining).map(|t| t.index),
            Policy::Prema => {
                let starved: Vec<&PolicyTask> =
                    tasks.iter().filter(|t| t.tokens >= threshold).collect();
                let candidates: Vec<&PolicyTask> = if starved.is_empty() {
                    tasks.iter().collect()
                } else {
                    starved
                };
                candidates
                    .iter()
                    .min_by_key(|t| t.remaining)
                    .map(|t| t.index)
            }
        }
    }

    #[test]
    fn single_pass_pick_matches_the_two_pass_definition() {
        // Values drawn from tiny ranges so equal `remaining`, `tokens` and
        // `arrival` values are the norm: every tie-break is exercised.
        let mut rng = planaria_model::SplitMix64::new(0x5eed_0013);
        for case in 0..2000 {
            let n = (rng.next_u64() % 9) as usize;
            let tasks: Vec<PolicyTask> = (0..n)
                .map(|i| {
                    task(
                        i,
                        rng.next_u64() % 4,
                        rng.next_u64() % 3,
                        rng.next_u64() % 3,
                    )
                })
                .collect();
            for threshold in [0, 2, u64::MAX] {
                for policy in [Policy::Prema, Policy::Fcfs, Policy::Sjf] {
                    assert_eq!(
                        pick_with_threshold(policy, tasks.iter().copied(), threshold),
                        pick_two_pass(policy, &tasks, threshold),
                        "case {case}: {policy:?} threshold {threshold} over {tasks:?}"
                    );
                }
            }
        }
    }
}
