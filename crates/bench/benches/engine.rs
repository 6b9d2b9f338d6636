//! Event-loop throughput: the float-seconds pre-refactor engine vs the
//! integer-cycle discrete-event kernel, at 10/100/1000 concurrent tenants.
//!
//! The `legacy` module below is a faithful transcription of the engine as
//! it stood before the `planaria-sim` extraction (telemetry hooks
//! stripped — both sides are measured on their collector-free hot path):
//! float-seconds event times with a `DONE_EPS` completion tolerance, a
//! linear min-scan over tenants for the next completion, and a fresh
//! `ESTIMATERESOURCES` table scan for every tenant at every scheduling
//! event. The kernel replaces these with an integer-cycle binary heap and
//! slack-monotone estimate memoization; this bench quantifies the win as
//! events/second (one event = one arrival or one completion) and writes
//! `results/BENCH_engine.json`.
//!
//! `PLANARIA_BENCH_SMOKE=1` runs the small sizes only (CI smoke) and does
//! not overwrite the JSON record.

use planaria_arch::AcceleratorConfig;
use planaria_bench::time_per_iter;
use planaria_compiler::CompiledLibrary;
use planaria_core::PlanariaEngine;
use planaria_model::DnnId;
use planaria_workload::Request;
use std::fmt::Write as _;
use std::hint::black_box;

/// The pre-refactor float-time engine, kept verbatim (minus telemetry) as
/// the measurement baseline. This is measurement infrastructure, not
/// simulation logic shipped to users; the shipping engines live on the
/// integer-cycle kernel and are linted against these idioms.
mod legacy {
    use planaria_arch::{AcceleratorConfig, Allocation, Arrangement, Chip};
    use planaria_compiler::{CompiledDnn, CompiledLibrary};
    use planaria_energy::EnergyModel;
    use planaria_model::units::{Cycles, Picojoules};
    use planaria_timing::{reconfiguration_cycles, ExecContext};
    use planaria_workload::{Completion, Request, SimResult};

    /// Work-fraction tolerance for completion detection (old engine).
    const DONE_EPS: f64 = 1e-9;

    /// Scheduler view of one task, seconds-based (old scheduler).
    #[derive(Debug, Clone, Copy)]
    struct SchedTaskSec<'a> {
        priority: u32,
        /// Remaining slack to the QoS deadline, seconds.
        slack: f64,
        done: f64,
        compiled: &'a CompiledDnn,
    }

    impl SchedTaskSec<'_> {
        fn predict_time(&self, subarrays: u32, freq_hz: f64) -> f64 {
            self.compiled
                .table(subarrays)
                .remaining_cycles(self.done)
                .as_f64()
                / freq_hz
        }

        fn estimate_resources(&self, total: u32, freq_hz: f64) -> u32 {
            for s in 1..=total {
                if self.predict_time(s, freq_hz) <= self.slack {
                    return s;
                }
            }
            total
        }
    }

    fn schedule_tasks_spatially(tasks: &[SchedTaskSec<'_>], total: u32, freq_hz: f64) -> Vec<u32> {
        if tasks.is_empty() {
            return Vec::new();
        }
        let estimates: Vec<u32> = tasks
            .iter()
            .map(|t| t.estimate_resources(total, freq_hz))
            .collect();
        let need: u32 = estimates.iter().sum();
        if need <= total {
            allocate_fit_tasks(tasks, &estimates, total, freq_hz)
        } else {
            allocate_unfit_tasks(tasks, &estimates, total)
        }
    }

    fn allocate_fit_tasks(
        tasks: &[SchedTaskSec<'_>],
        estimates: &[u32],
        total: u32,
        freq_hz: f64,
    ) -> Vec<u32> {
        let mut alloc = estimates.to_vec();
        let mut spare = total - estimates.iter().sum::<u32>();
        if spare == 0 {
            return alloc;
        }
        let scores: Vec<f64> = tasks
            .iter()
            .zip(estimates)
            .map(|(t, &e)| f64::from(t.priority) / t.predict_time(e, freq_hz).max(1e-9))
            .collect();
        let sum: f64 = scores.iter().sum();
        let mut fractional: Vec<(usize, f64)> = Vec::with_capacity(tasks.len());
        for (i, score) in scores.iter().enumerate() {
            let share = score / sum * f64::from(spare);
            let whole = share.floor() as u32;
            alloc[i] += whole;
            fractional.push((i, share - share.floor()));
        }
        spare -= fractional
            .iter()
            .map(|&(i, _)| alloc[i] - estimates[i])
            .sum::<u32>();
        fractional.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        for (i, _) in fractional {
            if spare == 0 {
                break;
            }
            alloc[i] += 1;
            spare -= 1;
        }
        alloc
    }

    fn allocate_unfit_tasks(tasks: &[SchedTaskSec<'_>], estimates: &[u32], total: u32) -> Vec<u32> {
        let mut order: Vec<usize> = (0..tasks.len()).collect();
        let score = |i: usize| {
            let slack = tasks[i].slack.max(1e-6);
            f64::from(tasks[i].priority) / (slack * f64::from(estimates[i]))
        };
        order.sort_by(|&a, &b| {
            score(b)
                .partial_cmp(&score(a))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut alloc = vec![0u32; tasks.len()];
        let mut remaining = total;
        for i in order {
            if remaining == 0 {
                break;
            }
            let grant = estimates[i].min(remaining);
            alloc[i] = grant;
            remaining -= grant;
        }
        alloc
    }

    #[derive(Debug, Clone)]
    struct Tenant {
        request: Request,
        done: f64,
        alloc: u32,
        placement: Option<Allocation>,
        overhead_cycles: f64,
        energy: Picojoules,
    }

    /// The pre-refactor Planaria engine (spatial mode, collector-free).
    pub struct LegacyEngine {
        library: CompiledLibrary,
    }

    impl LegacyEngine {
        pub fn with_library(library: CompiledLibrary) -> Self {
            Self { library }
        }

        fn cfg(&self) -> &AcceleratorConfig {
            self.library.config()
        }

        pub fn run(&self, trace: &[Request]) -> SimResult {
            assert!(
                trace.windows(2).all(|w| w[0].arrival <= w[1].arrival),
                "trace must be sorted by arrival time"
            );
            let cfg = *self.cfg();
            let freq = cfg.freq_hz;
            let total = cfg.num_subarrays();
            let em = EnergyModel::for_config(&cfg);

            let mut tenants: Vec<Tenant> = Vec::new();
            let mut completions: Vec<Completion> = Vec::new();
            let mut next_arrival = 0usize;
            let mut now = trace.first().map_or(0.0, |r| r.arrival);
            let start = now;
            let mut busy_seconds = 0.0f64;

            while next_arrival < trace.len() || !tenants.is_empty() {
                let arrival_t = trace.get(next_arrival).map(|r| r.arrival);
                let completion_t = tenants
                    .iter()
                    .filter(|t| t.alloc > 0)
                    .map(|t| now + self.remaining_seconds(t, freq))
                    .fold(None::<f64>, |acc, x| Some(acc.map_or(x, |a: f64| a.min(x))));
                let t_next = match (arrival_t, completion_t) {
                    (Some(a), Some(c)) => a.min(c),
                    (Some(a), None) => a,
                    (None, Some(c)) => c,
                    (None, None) => break,
                };

                let dt = (t_next - now).max(0.0);
                if tenants.iter().any(|t| t.alloc > 0) {
                    busy_seconds += dt;
                }
                let dt_cycles = dt * freq;
                for t in &mut tenants {
                    if t.alloc > 0 {
                        self.advance(t, dt_cycles);
                    }
                }
                now = t_next;

                while next_arrival < trace.len() && trace[next_arrival].arrival <= now + 1e-12 {
                    tenants.push(Tenant {
                        request: trace[next_arrival],
                        done: 0.0,
                        alloc: 0,
                        placement: None,
                        overhead_cycles: 0.0,
                        energy: Picojoules::ZERO,
                    });
                    next_arrival += 1;
                }

                let mut i = 0;
                while i < tenants.len() {
                    if tenants[i].done >= 1.0 - DONE_EPS {
                        let t = tenants.swap_remove(i);
                        completions.push(Completion {
                            request: t.request,
                            finish: now,
                            energy: t.energy,
                        });
                    } else {
                        i += 1;
                    }
                }

                self.reschedule(&mut tenants, now, total, freq);
            }

            completions.sort_by_key(|c| c.request.id);
            let makespan = (now - start).max(0.0);
            let dynamic: Picojoules = completions.iter().map(|c| c.energy).sum();
            SimResult {
                completions,
                total_energy: dynamic + em.static_energy(busy_seconds),
                makespan,
            }
        }

        fn remaining_seconds(&self, t: &Tenant, freq: f64) -> f64 {
            let table = self.library.get(t.request.dnn).table(t.alloc);
            (t.overhead_cycles + table.remaining_cycles(t.done).as_f64()) / freq
        }

        fn advance(&self, t: &mut Tenant, mut cycles: f64) {
            if t.overhead_cycles > 0.0 {
                let burn = t.overhead_cycles.min(cycles);
                t.overhead_cycles -= burn;
                cycles -= burn;
            }
            if cycles <= 0.0 {
                return;
            }
            let table = self.library.get(t.request.dnn).table(t.alloc);
            let before = t.done;
            t.done = table.advance(t.done, Cycles::new(cycles.round() as u64));
            if t.done > 1.0 - DONE_EPS {
                t.done = 1.0;
            }
            t.energy += (t.done - before) * table.total_energy();
        }

        fn reschedule(&self, tenants: &mut [Tenant], now: f64, total: u32, freq: f64) {
            if tenants.is_empty() {
                return;
            }
            let views: Vec<SchedTaskSec<'_>> = tenants
                .iter()
                .map(|t| SchedTaskSec {
                    priority: t.request.priority,
                    slack: t.request.deadline() - now,
                    done: t.done,
                    compiled: self.library.get(t.request.dnn),
                })
                .collect();
            let alloc = schedule_tasks_spatially(&views, total, freq);
            let cfg = self.cfg();

            let mut chip = Chip::new(*cfg);
            let mut keep = vec![false; tenants.len()];
            for (i, (t, &a)) in tenants.iter().zip(&alloc).enumerate() {
                let kept_count = a == t.alloc || (t.alloc > 0 && a == t.alloc + 1);
                if kept_count && t.alloc > 0 {
                    if let Some(p) = t.placement {
                        if p.len() == t.alloc {
                            let claimed = chip.claim(p);
                            debug_assert!(claimed);
                            keep[i] = true;
                        }
                    }
                }
            }
            let mut placements: Vec<Option<Allocation>> = tenants
                .iter()
                .enumerate()
                .map(|(i, t)| if keep[i] { t.placement } else { None })
                .collect();
            let mut order: Vec<usize> = (0..tenants.len()).filter(|&i| !keep[i]).collect();
            order.sort_by_key(|&i| std::cmp::Reverse(alloc[i]));
            let mut defrag_needed = false;
            for &i in &order {
                if alloc[i] == 0 {
                    continue;
                }
                match chip.place(alloc[i]) {
                    Some(p) => placements[i] = Some(p),
                    None => {
                        defrag_needed = true;
                        break;
                    }
                }
            }
            let mut migrated = vec![false; tenants.len()];
            if defrag_needed {
                chip.reset();
                let mut all: Vec<usize> = (0..tenants.len()).collect();
                all.sort_by_key(|&i| std::cmp::Reverse(alloc[i]));
                placements.fill(None);
                for &i in &all {
                    if alloc[i] == 0 {
                        continue;
                    }
                    let p = chip
                        .place(alloc[i])
                        .expect("defragmented ring always packs");
                    if keep[i] && tenants[i].placement.is_some_and(|old| old != p) {
                        migrated[i] = true;
                        keep[i] = false;
                    }
                    placements[i] = Some(p);
                }
            }

            for (i, (t, &a)) in tenants.iter_mut().zip(&alloc).enumerate() {
                t.placement = placements[i].take();
                if a == t.alloc && !migrated[i] {
                    continue;
                }
                if t.alloc > 0 && a == t.alloc + 1 && !migrated[i] {
                    continue;
                }
                if t.alloc > 0 && t.done > 0.0 && t.done < 1.0 {
                    let old_table = self.library.get(t.request.dnn).table(t.alloc);
                    let pos = old_table.position(t.done);
                    let old_arr = old_table.layers()[pos.layer].arrangement;
                    let new_arr = if a > 0 {
                        Arrangement::monolithic(a)
                    } else {
                        old_arr
                    };
                    let ctx = ExecContext::for_allocation(cfg, t.alloc.max(1));
                    let cost = reconfiguration_cycles(&ctx, old_arr, new_arr, pos.tile_bytes);
                    t.overhead_cycles += (pos.cycles_to_boundary + cost.total()).as_f64();
                } else if a > 0 && t.alloc == 0 {
                    t.overhead_cycles += 16.0;
                }
                t.alloc = a;
            }
        }
    }
}

/// SplitMix64 (same mixer the workload generator uses) so the burst
/// traces are deterministic across hosts.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// A burst of `n` near-simultaneous requests (1 µs stagger): every tenant
/// is live at once, so each scheduling event sees ~`n` tenants — the
/// regime where per-event costs dominate.
fn burst_trace(n: usize, seed: u64) -> Vec<Request> {
    let mut rng = SplitMix64(seed);
    (0..n)
        .map(|i| {
            let r = rng.next();
            Request {
                id: i as u64,
                dnn: DnnId::ALL[(r % DnnId::ALL.len() as u64) as usize],
                arrival: i as f64 * 1e-6,
                priority: ((r >> 8) % 11 + 1) as u32,
                // 5–55 ms QoS bound: tight under burst contention, so the
                // unfit path and full estimate scans dominate (the old
                // engine's worst case).
                qos: 0.005 + ((r >> 16) % 1000) as f64 * 5e-5,
            }
        })
        .collect()
}

fn main() {
    let smoke = std::env::var("PLANARIA_BENCH_SMOKE").is_ok_and(|v| v == "1");
    let cfg = AcceleratorConfig::planaria();
    let library = CompiledLibrary::new(cfg);
    let legacy = legacy::LegacyEngine::with_library(library.clone());
    let kernel = PlanariaEngine::with_library(library);

    let sizes: &[(usize, u32)] = if smoke {
        &[(10, 3), (100, 2)]
    } else {
        &[(10, 60), (100, 12), (1000, 3)]
    };

    let mut record: Vec<(String, f64)> = Vec::new();
    println!(
        "{:<10} {:>14} {:>14} {:>9}",
        "tenants", "legacy ev/s", "kernel ev/s", "speedup"
    );
    for &(n, iters) in sizes {
        let trace = burst_trace(n, 0x5eed + n as u64);
        let events = 2.0 * n as f64; // one arrival + one completion each
        let t_legacy = time_per_iter(iters, || {
            black_box(legacy.run(black_box(&trace)));
        });
        let t_kernel = time_per_iter(iters, || {
            black_box(kernel.run(black_box(&trace)));
        });
        let (ev_legacy, ev_kernel) = (events / t_legacy, events / t_kernel);
        let speedup = t_legacy / t_kernel;
        println!("{n:<10} {ev_legacy:>14.1} {ev_kernel:>14.1} {speedup:>8.2}x");
        record.push((format!("legacy_events_per_s_{n}"), ev_legacy));
        record.push((format!("kernel_events_per_s_{n}"), ev_kernel));
        record.push((format!("speedup_{n}"), speedup));
    }

    // Cross-check: both engines agree on what happened (the golden tests
    // pin this precisely; here we just guard the bench itself against
    // drifting into comparing different simulations).
    let trace = burst_trace(100, 7);
    let (a, b) = (legacy.run(&trace), kernel.run(&trace));
    assert_eq!(a.completions.len(), b.completions.len());
    assert!(
        (a.makespan - b.makespan).abs() <= 1e-4 * a.makespan.max(1e-9),
        "legacy {} vs kernel {} makespan",
        a.makespan,
        b.makespan
    );

    if smoke {
        println!("[smoke mode: results/BENCH_engine.json left untouched]");
        return;
    }
    let mut s = String::from("{\n");
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let _ = writeln!(s, "  \"host_logical_cores\": {cores},");
    for (i, (k, v)) in record.iter().enumerate() {
        let comma = if i + 1 == record.len() { "" } else { "," };
        let _ = writeln!(s, "  \"{k}\": {v:.3}{comma}");
    }
    s.push_str("}\n");
    let path = planaria_bench::results_dir().join("BENCH_engine.json");
    match std::fs::create_dir_all(planaria_bench::results_dir())
        .and_then(|()| std::fs::write(&path, s))
    {
        Ok(()) => println!("[written {}]", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}
