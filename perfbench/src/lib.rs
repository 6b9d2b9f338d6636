//! The Planaria simulator's benchmark: three canonical workloads, the
//! host-side end-to-end metrics a user of the simulator sees, and a
//! traced run that splits the time across the simulator's layers.
//!
//! Workloads (each generated from `--seed`):
//!
//! - [`chip`] `chip-bursty` — one paper chip under a deep-backlog bursty
//!   trace, streamed, retired through `SpillSink` and digested by replaying
//!   the spill from disk;
//! - [`fleet`] `fleet-stream` — an 8-node fabric behind `LeastWork`
//!   dispatch on the flat-memory stats path;
//! - [`sweep`] `paper-sweep` — the Fig. 12 and Fig. 13 grids on both
//!   engines, checked cell by cell against the committed goldens.
//!
//! Every workload is measured on one worker thread (`PLANARIA_JOBS=1`): on
//! a small shared host, two barrier-synchronised fabric workers turn each
//! scheduling hiccup of the host into a stalled round. In five alternating
//! runs on a 2-core VM, the fleet's throughput spread (interquartile range
//! over median) was 0.61 on two workers and 0.05 on one. One worker
//! does not shield a run from the host's own speed, though: when that
//! drifts, every workload's times drift with it. The fleet's two-worker
//! path is still run, in its verification.
//!
//! Every layer is timed from outside, by wrapping the trait boundaries the
//! simulator exposes ([`probe`]); the untraced run goes through the same
//! wrappers with timing compiled out, so both runs make the same calls and
//! produce the same results.

pub mod alloc;
pub mod chip;
pub mod fleet;
pub mod probe;
pub mod reference;
pub mod report;
pub mod sweep;

use report::{median, percentile, Layers};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One chip, bursty deep-backlog trace, spill sink.
    ChipBursty,
    /// Eight-node fabric, streamed, stats-only.
    FleetStream,
    /// Fig. 12 and Fig. 13 grids on both engines.
    PaperSweep,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::ChipBursty,
        Workload::FleetStream,
        Workload::PaperSweep,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ChipBursty => "chip-bursty",
            Workload::FleetStream => "fleet-stream",
            Workload::PaperSweep => "paper-sweep",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input size: `Full` for measurement, `Tiny` for the benchmark's tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured size.
    Full,
    /// A quick size that still passes every exactness check.
    Tiny,
}

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed the workload's inputs are made from.
    pub seed: u64,
    /// Seconds of measured repetitions.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    /// Input size.
    pub scale: Scale,
    /// Directory holding `fig12_throughput.tsv` and `fig13_sla.tsv`.
    pub golden_dir: PathBuf,
    /// Scratch directory for spill files (created and removed by the
    /// caller).
    pub tmp_dir: PathBuf,
}

/// One repetition's result.
#[derive(Debug, Clone)]
pub struct Rep {
    /// What the repetition computed, compared exactly across repetitions,
    /// across traced and untraced runs, and against references.
    pub outcome: String,
    /// Requests simulated.
    pub requests: u64,
    /// Start of the timed span (first request pulled).
    pub start: Instant,
    /// End of the timed span (digest or stats in hand).
    pub end: Instant,
    /// Peak live heap above the pre-run floor, bytes.
    pub peak_bytes: u64,
    /// Host time per operation (a simulation run on `paper-sweep`, the
    /// repetition itself elsewhere), milliseconds.
    pub run_ms: Vec<f64>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// Per-layer metrics (traced repetitions only).
    pub layers: Layers,
    /// Coarse child spans (traced repetitions only): name, start, end and
    /// the index of the enclosing child span (`None`: the repetition).
    pub spans: Vec<(&'static str, Instant, Instant, Option<usize>)>,
}

impl Rep {
    /// Seconds in the timed span.
    pub fn wall_s(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64()
    }
}

/// A workload ready to run.
pub trait Bench {
    /// One repetition over input batch `batch` (the same batch always
    /// gets the same inputs); `ON` turns the layer timing on.
    fn rep<const ON: bool>(&mut self, batch: u64) -> Rep;

    /// Checks batch 0's outcome against a recorded reference and an
    /// independent computation.
    fn verify(&mut self, outcome: &str) -> Result<(), String>;
}

/// A span for the output file, in nanoseconds since the run began.
#[derive(Debug, Clone)]
pub struct Span {
    /// What the span covers.
    pub name: &'static str,
    /// Start, ns since the run began.
    pub start_ns: u64,
    /// End, ns since the run began.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

/// Everything a run measured.
#[derive(Debug, Clone)]
pub struct Summary {
    /// Every check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Sample counts and failures, one line each.
    pub notes: Vec<String>,
    /// Coarse spans of the traced repetitions.
    pub spans: Vec<Span>,
}

/// The trace seeds of batch `batch`: draws `batch·n .. (batch+1)·n` of a
/// generator seeded with `seed`, one per simulation.
pub fn sim_seeds(seed: u64, batch: u64, n: usize) -> impl Iterator<Item = u64> {
    let mut rng = planaria_model::SplitMix64::new(seed);
    let skip = usize::try_from(batch)
        .unwrap_or(usize::MAX)
        .saturating_mul(n);
    (0..skip.saturating_add(n))
        .map(move |_| rng.next_u64())
        .skip(skip)
}

/// FNV-1a over per-simulation outcome lines: one exact fingerprint for a
/// repetition of several simulations.
pub fn fingerprint(lines: &[String]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in lines.iter().flat_map(|l| l.bytes().chain([b'\n'])) {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Set-ups per run, at least; `setup_s` is their median.
const SETUPS: usize = 15;
/// Measured repetitions per run, at least, however long they take.
const MIN_REPS: u64 = 3;

/// Runs the workload named in `opts`.
pub fn run(opts: &Options) -> Summary {
    match opts.workload {
        Workload::ChipBursty => measure(opts, || chip::Chip::setup(opts)),
        Workload::FleetStream => measure(opts, || fleet::Fleet::setup(opts)),
        Workload::PaperSweep => measure(opts, || sweep::Sweep::setup(opts)),
    }
}

/// A failed run that measured nothing.
fn broken(note: String) -> Summary {
    Summary {
        correct: false,
        attempted: 1,
        failed: 1,
        metrics: BTreeMap::new(),
        notes: vec![note],
        spans: Vec::new(),
    }
}

/// Runs `f`, turning a panic into an error message.
fn guarded<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| {
        p.downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic".into())
    })
}

/// Operation counts and failure notes of one run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Tally {
    /// Counts a repetition's operations; a panic counts as one failed
    /// operation.
    fn take(&mut self, rep: Result<Rep, String>, kind: &str) -> Option<Rep> {
        match rep {
            Ok(rep) => {
                self.attempted += rep.attempted;
                self.failed += rep.failed;
                Some(rep)
            }
            Err(e) => {
                self.attempted += 1;
                self.failed += 1;
                self.notes.push(format!("{kind} repetition panicked: {e}"));
                None
            }
        }
    }
}

/// The measurement protocol shared by every workload: set up, run the
/// warm-up batch 0, then fresh batches until `opts.seconds` have passed —
/// each batch twice in a traced run, untraced then traced, with equal
/// outcomes required — and finally verify batch 0's outcome.
///
/// The workload is set up again before each measured batch (and at the
/// end, up to `SETUPS`), and only the first set-up is kept: the host's
/// speed drifts over seconds, so set-ups spread over the run sample the
/// same host as the batches do, where set-ups made back to back at the
/// start would sample its first few milliseconds only.
fn measure<B: Bench>(opts: &Options, setup: impl Fn() -> Result<(B, f64), String>) -> Summary {
    let origin = Instant::now();
    // Seconds per set-up, and of that the library compile.
    let (mut setup_s, mut library_s) = (Vec::new(), Vec::new());
    let mut set_up = || {
        let t = Instant::now();
        let (b, lib) = guarded(&setup).and_then(|r| r)?;
        setup_s.push(t.elapsed().as_secs_f64());
        library_s.push(lib);
        Ok::<B, String>(b)
    };
    let mut bench = match set_up() {
        Ok(b) => b,
        Err(e) => return broken(format!("set-up failed: {e}")),
    };

    let mut t = Tally::default();
    // Batch 0 warms caches up; it is also the batch `verify` checks.
    let Some(warm) = t.take(guarded(|| bench.rep::<false>(0)), "warm-up") else {
        return broken(t.notes.join("; "));
    };
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let t0 = Instant::now();
    // Set-ups so far: the first, then one per measured batch.
    let mut setups = 1;
    for batch in 1.. {
        if batch > MIN_REPS && t0.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
        setups += 1;
        if let Err(e) = set_up() {
            return broken(format!("set-up failed: {e}"));
        }
        let Some(p) = t.take(guarded(|| bench.rep::<false>(batch)), "untraced") else {
            continue;
        };
        if opts.trace {
            if let Some(r) = t.take(guarded(|| bench.rep::<true>(batch)), "traced") {
                if r.outcome != p.outcome {
                    t.failed += r.attempted.saturating_sub(r.failed);
                    t.notes.push(format!(
                        "batch {batch}: traced {} != untraced {}",
                        r.outcome, p.outcome
                    ));
                }
                traced.push(r);
            }
        }
        plain.push(p);
    }
    for _ in setups..SETUPS {
        if let Err(e) = set_up() {
            return broken(format!("set-up failed: {e}"));
        }
    }
    if let Err(e) = guarded(|| bench.verify(&warm.outcome)).and_then(|r| r) {
        t.notes.push(format!("verification failed: {e}"));
        t.failed = t.attempted;
    }
    let Tally {
        attempted,
        failed,
        mut notes,
    } = t;
    notes.push(format!("batch 0 outcome: {}", warm.outcome));

    let mut metrics = BTreeMap::new();
    let mut spans = Vec::new();
    let wall = |reps: &[Rep]| median(&reps.iter().map(Rep::wall_s).collect::<Vec<_>>());
    if opts.trace {
        for def in report::PER_LAYER {
            let values: Vec<f64> = traced
                .iter()
                .filter_map(|r| r.layers.get(def.name).copied())
                .collect();
            metrics.insert(def.name, median(&values));
        }
        metrics.insert("compiler.library_build_s", median(&library_s));
        metrics.insert("trace_overhead_frac", wall(&traced) / wall(&plain) - 1.0);
        notes.push(format!(
            "per-layer values: median of {} traced repetitions (each alternated with an untraced one)",
            traced.len()
        ));
        let ns = |t: Instant| probe::nanos(t.saturating_duration_since(origin));
        for rep in &traced {
            let base = spans.len();
            spans.push(Span {
                name: opts.workload.name(),
                start_ns: ns(rep.start),
                end_ns: ns(rep.end),
                parent: None,
            });
            spans.extend(rep.spans.iter().map(|&(name, a, b, parent)| Span {
                name,
                start_ns: ns(a),
                end_ns: ns(b),
                parent: Some(parent.map_or(base, |p| base + 1 + p)),
            }));
        }
    } else {
        // Requests over the summed timed spans, not a median of per-batch
        // rates: when the host's speed flips between two levels, a median
        // jumps with whichever level held the majority of the run, while
        // the ratio moves in proportion to the time spent at each.
        let requests: u64 = plain.iter().map(|r| r.requests).sum();
        let timed_s: f64 = plain.iter().map(Rep::wall_s).sum();
        let peaks: Vec<f64> = plain.iter().map(|r| r.peak_bytes as f64 / 1e6).collect();
        let runs: Vec<f64> = plain
            .iter()
            .flat_map(|r| r.run_ms.iter().copied())
            .collect();
        metrics.insert("setup_s", median(&setup_s));
        metrics.insert("requests_per_s", requests as f64 / timed_s);
        metrics.insert("peak_heap_mb", median(&peaks));
        metrics.insert("run_p50_ms", percentile(&runs, 50.0));
        metrics.insert("run_p99_ms", percentile(&runs, 99.0));
        notes.push(format!(
            "setup_s: median of {} set-ups spread over the run",
            setup_s.len()
        ));
        notes.push(format!(
            "requests_per_s: {requests} requests over {} repetitions, {timed_s:.3} s timed; \
             peak_heap_mb: their median",
            plain.len()
        ));
        notes.push(format!(
            "run_p50_ms, run_p99_ms: nearest rank over {} operations \
             (simulation runs on paper-sweep, repetitions elsewhere)",
            runs.len()
        ));
    }
    Summary {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        notes,
        spans,
    }
}
