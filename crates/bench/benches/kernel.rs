//! Kernel hot-path race: the pre-overhaul reference kernel (one plain
//! `BinaryHeap` + `BTreeMap` tenant index, kept alive in
//! `planaria_sim::oracle`) vs the tiered-queue + slab hot path, at
//! 10^4 / 10^5 / 10^6 bursty requests.
//!
//! The baseline lane is the complete pre-overhaul hot path: the oracle
//! kernel's containers *and* the pre-overhaul scheduling body preserved
//! verbatim behind `SpatialPolicy::with_reference_hot_path` (eager
//! estimate views, full-list placement sorts, comparator-evaluated
//! unfit scores), so the reported speedup is new-vs-pre-PR, not
//! new-vs-new — the lane reproduces the throughput the seed commit
//! recorded in `results/BENCH_scale.json` on this host.
//!
//! The workload is the scale bench's bursty QoS-Hard Scenario-C trace:
//! bursts keep a deep backlog of queued tenants, every scheduling event
//! re-estimates completion times, and each re-estimate strands a stale
//! entry in the event queue. The legacy heap carries those corpses to
//! the top before discarding them; the tiered queue counts them in its
//! stale ledger and compacts, so resident size tracks the *live* event
//! population. Both paths are result-exact (asserted below on every
//! size; pinned precisely by `tests/kernel_equivalence.rs`).
//!
//! The bench also drives the flat-memory exactness path end-to-end:
//! a streamed run through `SpillSink` (on-disk sorted runs, k-way merge
//! replay) must digest bit-identically to the in-memory result, and the
//! 10^7-request spill run must complete with peak residency that is flat
//! in the trace length — both measured with the counting allocator.
//!
//! Writes `results/BENCH_kernel.json`. `PLANARIA_BENCH_SMOKE=1` runs
//! small sizes only (CI smoke) and does not overwrite the JSON record.

use planaria_arch::AcceleratorConfig;
use planaria_bench::time_per_iter;
use planaria_compiler::CompiledLibrary;
use planaria_core::PlanariaEngine;
use planaria_model::units::Picojoules;
use planaria_sim::oracle::run_reference;
use planaria_sim::run_streamed_sink;
use planaria_telemetry::NullCollector;
use planaria_workload::{Completion, DigestBuilder, QosLevel, Scenario, SpillSink, TraceConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Byte-counting allocator so the spill run's peak residency is measured
/// in-process, without OS-level RSS noise.
struct CountingAlloc;

static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let live = LIVE.fetch_add(layout.size() as u64, Ordering::Relaxed) + layout.size() as u64;
        PEAK.fetch_max(live, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        let live = LIVE.fetch_add(new_size as u64, Ordering::Relaxed) + new_size as u64;
        PEAK.fetch_max(live, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Peak live bytes above the starting level during `f`.
fn peak_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let floor = LIVE.load(Ordering::Relaxed);
    PEAK.store(floor, Ordering::Relaxed);
    let r = f();
    (PEAK.load(Ordering::Relaxed).saturating_sub(floor), r)
}

/// The scale bench's bursty high-churn trace (see `benches/scale.rs`):
/// deep backlogs maximize queue pressure and stale-entry churn.
fn bursty_cfg(requests: usize) -> TraceConfig {
    TraceConfig::new(Scenario::C, QosLevel::Hard, 500.0, requests, 0x5ca1e).with_burstiness(6.0)
}

/// Replays a finished spill sink into a streaming digest, recombining
/// the id-order dynamic energy sum with the kernel's static component —
/// the same float association `SimResult::digest` sees.
fn spill_digest(
    sink: SpillSink,
    completed: u64,
    static_energy: Picojoules,
    makespan: f64,
) -> (u64, u64) {
    let reader = sink.finish().expect("open spill replay");
    let mut b = DigestBuilder::new(completed);
    let mut replayed = 0u64;
    let mut dynamic = Picojoules::ZERO;
    for c in reader {
        let c: Completion = c;
        b.completion(&c);
        dynamic += c.energy;
        replayed += 1;
    }
    (b.finish(dynamic + static_energy, makespan), replayed)
}

fn main() {
    let smoke = std::env::var("PLANARIA_BENCH_SMOKE").is_ok_and(|v| v == "1");
    let library = CompiledLibrary::new(AcceleratorConfig::planaria());
    let engine = PlanariaEngine::with_library(library);
    let cfg = *engine.library().config();

    let sizes: &[(usize, u32)] = if smoke {
        &[(2_000, 2)]
    } else {
        &[(10_000, 4), (100_000, 2), (1_000_000, 1)]
    };

    let mut record: Vec<(String, f64)> = Vec::new();
    println!(
        "{:<10} {:>15} {:>15} {:>9}",
        "requests", "legacy ev/s", "tiered ev/s", "speedup"
    );
    for &(n, iters) in sizes {
        let trace = bursty_cfg(n).generate();
        let events = 2.0 * n as f64; // one arrival + one completion each
        let t_legacy = time_per_iter(iters, || {
            let mut policy = engine.spatial_policy().with_reference_hot_path();
            black_box(run_reference(
                &cfg,
                black_box(&trace),
                &mut policy,
                &mut NullCollector,
            ));
        });
        let t_tiered = time_per_iter(iters, || {
            black_box(engine.run(black_box(&trace)));
        });
        // Exactness guard: the bench must never drift into racing two
        // different simulations.
        let mut policy = engine.spatial_policy().with_reference_hot_path();
        let reference = run_reference(&cfg, &trace, &mut policy, &mut NullCollector);
        let tiered = engine.run(&trace);
        assert_eq!(
            reference.completions, tiered.completions,
            "tiered kernel diverged from the reference at n={n}"
        );
        assert_eq!(reference.digest(), tiered.digest(), "n={n}");
        let (ev_legacy, ev_tiered) = (events / t_legacy, events / t_tiered);
        let speedup = t_legacy / t_tiered;
        println!("{n:<10} {ev_legacy:>15.1} {ev_tiered:>15.1} {speedup:>8.2}x");
        record.push((format!("legacy_events_per_s_{n}"), ev_legacy));
        record.push((format!("tiered_events_per_s_{n}"), ev_tiered));
        record.push((format!("speedup_{n}"), speedup));
    }

    // Spill-sink exactness: the streamed on-disk path must digest
    // bit-identically to the in-memory result.
    let n_eq = if smoke { 10_000 } else { 100_000 };
    let eq_cfg = bursty_cfg(n_eq);
    let spill_dir = std::env::temp_dir().join("planaria-kernel-bench");
    std::fs::create_dir_all(&spill_dir).expect("create spill dir");
    let mem_digest = engine.run_streamed(eq_cfg.stream()).digest();
    let mut policy = engine.spatial_policy();
    let (sink, summary) = run_streamed_sink(
        &cfg,
        eq_cfg.stream(),
        &mut policy,
        &mut NullCollector,
        SpillSink::new(&spill_dir),
    );
    let (disk_digest, replayed) = spill_digest(
        sink,
        summary.completed,
        summary.static_energy,
        summary.makespan,
    );
    assert_eq!(replayed, n_eq as u64, "spill replay lost records");
    assert_eq!(
        disk_digest, mem_digest,
        "spill replay digest diverged from the in-memory path at n={n_eq}"
    );
    println!("spill exactness @ {n_eq}: digest {disk_digest:#018x} == in-memory");

    // Flat-memory ceiling: a spill-sink streamed run at the largest
    // scale. Peak residency must be flat in the trace length — the
    // in-memory completions vector alone would be ~48 B x n.
    let n_spill = if smoke { 20_000 } else { 10_000_000 };
    let spill_cfg = bursty_cfg(n_spill);
    let vec_bytes = (n_spill * std::mem::size_of::<Completion>()) as u64;
    let start = Instant::now();
    let (peak_spill, (sink, summary)) = peak_during(|| {
        let mut policy = engine.spatial_policy();
        run_streamed_sink(
            &cfg,
            spill_cfg.stream(),
            &mut policy,
            &mut NullCollector,
            SpillSink::new(&spill_dir),
        )
    });
    let t_spill = start.elapsed().as_secs_f64();
    assert_eq!(summary.completed, n_spill as u64);
    drop(sink.finish().expect("open spill replay")); // delete run files
    let ev_spill = 2.0 * n_spill as f64 / t_spill;
    println!(
        "spill streamed {n_spill}: {ev_spill:.1} ev/s, peak {peak_spill} B \
         (in-memory completions alone: {vec_bytes} B)"
    );
    record.push((format!("spill_events_per_s_{n_spill}"), ev_spill));
    record.push((format!("spill_peak_bytes_{n_spill}"), peak_spill as f64));
    record.push((
        format!("in_memory_completions_bytes_{n_spill}"),
        vec_bytes as f64,
    ));

    if smoke {
        println!("[smoke mode: results/BENCH_kernel.json left untouched]");
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
    let path = planaria_bench::results_dir().join("BENCH_kernel.json");
    match std::fs::create_dir_all(planaria_bench::results_dir())
        .and_then(|()| std::fs::write(&path, s))
    {
        Ok(()) => println!("[written {}]", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}
