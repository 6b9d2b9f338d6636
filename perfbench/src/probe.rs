//! Outside-in layer timing: transparent wrappers around the trait
//! boundaries the simulator already exposes.
//!
//! [`Timed`] wraps one value and implements whichever of the boundary
//! traits the wrapped value implements — `EnginePolicy`, `Dispatcher`,
//! `Iterator` (trace pulls), `CompletionSink` and `Collector` — by
//! forwarding every call. It is generic over `const ON: bool`:
//!
//! - `ON = false` is a plain forward the optimiser inlines away, so the
//!   untraced run makes exactly the calls the traced run makes;
//! - `ON = true` counts each call, stamps it before and after and feeds
//!   its duration, less the clock's own cost, into a [`CycleSketch`]
//!   (log-linear histogram, in nanoseconds) held by the wrapper's [`Acc`].
//!
//! A meter can time one call in `n` instead of every call and scale its
//! total by the call count: the fleet's collector hooks take ~20 ns each
//! and fire ~21 times per request, so timing every one would cost more
//! than the hooks themselves.
//!
//! Each wrapper owns a mutable borrow of its own `Acc` — one per fleet
//! node — and callers merge them after the run, so no accumulator is ever
//! shared between workers.

use planaria_compiler::CompiledDnn;
use planaria_model::units::Cycles;
use planaria_sim::{Dispatcher, EnginePolicy, NodeLoad, SimClock, SimState};
use planaria_telemetry::{Collector, Counter, CycleSketch, Event, Metric, SimMeta};
use planaria_workload::{Completion, CompletionSink, Request, TraceConfig};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Whole nanoseconds in `d`, saturating.
pub fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// One node's activity inside one fabric round: the first timed call's
/// start and the last timed call's end. For the fabric's own collector,
/// `first..last` is the round's parallel phase (last serial call to the
/// round barrier).
#[derive(Debug, Clone, Copy)]
pub struct RoundSlice {
    /// Rounds completed before this slice began.
    pub epoch: u64,
    /// Start of the first timed call in the round.
    pub first: Instant,
    /// End of the last timed call in the round.
    pub last: Instant,
}

impl RoundSlice {
    /// `last - first`, in nanoseconds.
    pub fn span_ns(&self) -> u64 {
        nanos(self.last.saturating_duration_since(self.first))
    }
}

/// What one wrapper measured.
#[derive(Debug, Clone, Default)]
pub struct Acc {
    /// Calls made.
    pub calls: u64,
    /// Nanoseconds of each timed call.
    pub timed: CycleSketch,
    /// Live tenants summed over `reschedule` calls (policy wrappers).
    pub tenants: u64,
    /// Per-round activity (fleet wrappers).
    pub rounds: Vec<RoundSlice>,
}

impl Acc {
    /// Calls made.
    pub fn count(&self) -> u64 {
        self.calls
    }

    /// Seconds spent inside the calls: the timed calls' total, scaled up
    /// to every call when only one in `n` was timed.
    pub fn total_s(&self) -> f64 {
        let timed = self.timed.count();
        if timed == 0 {
            return 0.0;
        }
        self.timed.sum() as f64 * 1e-9 * self.calls as f64 / timed as f64
    }

    /// Nearest-rank per-call percentile of the timed calls, nanoseconds
    /// (0 when none).
    pub fn percentile_ns(&self, p: u64) -> f64 {
        self.timed.value_at_ratio(p, 100).unwrap_or(0) as f64
    }

    /// Folds `other`'s calls and tenant tally into this one.
    pub fn merge(&mut self, other: &Acc) {
        self.calls += other.calls;
        self.timed.merge(&other.timed);
        self.tenants += other.tenants;
    }

    fn note_round(&mut self, epoch: u64, first: Instant, last: Instant) {
        match self.rounds.last_mut() {
            Some(r) if r.epoch == epoch => r.last = last,
            _ => self.rounds.push(RoundSlice { epoch, first, last }),
        }
    }
}

/// Round bookkeeping shared by the wrappers of one fabric run.
///
/// The epoch is advanced by the fabric collector's wrapper at each round
/// barrier, on the fabric's own thread while no node is running; node
/// wrappers on the workers only read it to tag their activity. The serial
/// stamp is written and read on the fabric's own thread only. Both are
/// tags that publish no other data, so `Relaxed` suffices (worker threads
/// are spawned after the barrier's store, which orders it before them).
#[derive(Debug)]
pub struct FabricClock {
    base: Instant,
    epoch: AtomicU64,
    serial_end_ns: AtomicU64,
}

impl FabricClock {
    /// A clock whose serial stamp starts at "now".
    pub fn new() -> Self {
        Self {
            base: Instant::now(),
            epoch: AtomicU64::new(0),
            serial_end_ns: AtomicU64::new(0),
        }
    }

    fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    fn stamp_serial(&self, at: Instant) {
        self.serial_end_ns
            .store(nanos(at.duration_since(self.base)), Ordering::Relaxed);
    }

    fn serial_end(&self) -> Instant {
        self.base + Duration::from_nanos(self.serial_end_ns.load(Ordering::Relaxed))
    }
}

impl Default for FabricClock {
    fn default() -> Self {
        Self::new()
    }
}

/// Where a wrapper sits, for the fabric's round accounting.
#[derive(Debug, Clone, Copy)]
pub enum Site<'a> {
    /// No round accounting (single-chip runs).
    Plain,
    /// Inside a fleet node: activity is tagged with the round epoch.
    Node(&'a FabricClock),
    /// On the fabric's serial dispatch path: stamps the end of each call.
    Serial(&'a FabricClock),
    /// The fabric collector: closes a round at each `RoundBarrier`.
    Barrier(&'a FabricClock),
}

/// The clock's own cost inside one stamped interval, nanoseconds: the
/// median of back-to-back stamp pairs, measured once per process and
/// subtracted from every timed call.
fn clock_cost_ns() -> u64 {
    static COST: OnceLock<u64> = OnceLock::new();
    *COST.get_or_init(|| {
        let mut pairs: Vec<u64> = (0..1001)
            .map(|_| {
                let a = Instant::now();
                nanos(Instant::now().duration_since(a))
            })
            .collect();
        pairs.sort_unstable();
        pairs[pairs.len() / 2]
    })
}

/// A wrapper's handle on its accumulator.
#[derive(Debug)]
pub struct Meter<'a> {
    acc: &'a mut Acc,
    site: Site<'a>,
    every: u64,
    /// Calls left until the next timed one.
    countdown: u64,
    clock_cost: u64,
}

impl<'a> Meter<'a> {
    /// A meter timing every call, without round accounting.
    pub fn new(acc: &'a mut Acc) -> Self {
        Self::at(acc, Site::Plain)
    }

    /// A meter timing every call at a fabric site.
    pub fn at(acc: &'a mut Acc, site: Site<'a>) -> Self {
        Self::sampled(acc, site, 1)
    }

    /// A meter timing one call in `every` at a fabric site (`Node` or
    /// `Barrier`: the serial stamp needs every call).
    pub fn sampled(acc: &'a mut Acc, site: Site<'a>, every: u64) -> Self {
        debug_assert!(every == 1 || !matches!(site, Site::Serial(_)));
        Self {
            acc,
            site,
            every: every.max(1),
            countdown: 1,
            clock_cost: clock_cost_ns(),
        }
    }

    /// Runs `f`, counting it and (one call in `every`) timing it when `ON`.
    #[inline(always)]
    pub fn time<const ON: bool, R>(&mut self, f: impl FnOnce() -> R) -> R {
        if !ON {
            return f();
        }
        self.acc.calls += 1;
        self.countdown -= 1;
        if self.countdown > 0 {
            return f();
        }
        self.countdown = self.every;
        let start = Instant::now();
        let r = f();
        let end = Instant::now();
        let ns = nanos(end.duration_since(start)).saturating_sub(self.clock_cost);
        self.acc.timed.record(ns);
        match self.site {
            Site::Plain | Site::Barrier(_) => {}
            Site::Node(clock) => self.acc.note_round(clock.epoch(), start, end),
            Site::Serial(clock) => clock.stamp_serial(end),
        }
        r
    }

    /// At a `RoundBarrier`: records the round's parallel phase (last
    /// serial call to now) and advances the epoch.
    fn close_round(&mut self) {
        if let Site::Barrier(clock) = self.site {
            let epoch = clock.epoch();
            self.acc
                .note_round(epoch, clock.serial_end(), Instant::now());
            clock.epoch.store(epoch + 1, Ordering::Relaxed);
        }
    }
}

/// [`TraceConfig::generate`], timed when `ON`.
pub fn generate<const ON: bool>(cfg: &TraceConfig, meter: &mut Meter<'_>) -> Vec<Request> {
    meter.time::<ON, _>(|| cfg.generate())
}

/// A transparent, optionally timed wrapper around one boundary value.
#[derive(Debug)]
pub struct Timed<'a, T, const ON: bool> {
    inner: T,
    meter: Meter<'a>,
}

impl<'a, T, const ON: bool> Timed<'a, T, ON> {
    /// Wraps `inner`, accounting into `meter`.
    pub fn new(inner: T, meter: Meter<'a>) -> Self {
        Self { inner, meter }
    }

    /// The wrapped value.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// Unwraps the value.
    pub fn into_inner(self) -> T {
        self.inner
    }
}

impl<T: EnginePolicy, const ON: bool> EnginePolicy for Timed<'_, T, ON> {
    #[inline(always)]
    fn compiled_for(&mut self, request: &Request) -> Arc<CompiledDnn> {
        self.inner.compiled_for(request)
    }

    #[inline(always)]
    fn admit_subarrays(&self) -> u32 {
        self.inner.admit_subarrays()
    }

    #[inline(always)]
    fn reschedule<C: Collector>(&mut self, sim: &mut SimState, c: &mut C) {
        if ON {
            self.meter.acc.tenants += sim.tenants.len() as u64;
        }
        let inner = &mut self.inner;
        self.meter.time::<ON, _>(|| inner.reschedule(sim, c));
    }
}

impl<T: Dispatcher, const ON: bool> Dispatcher for Timed<'_, T, ON> {
    #[inline(always)]
    fn route(&mut self, req: &Request, at: Cycles, clock: &SimClock, loads: &[NodeLoad]) -> usize {
        let inner = &mut self.inner;
        self.meter
            .time::<ON, _>(|| inner.route(req, at, clock, loads))
    }

    #[inline(always)]
    fn feedback(&self) -> bool {
        self.inner.feedback()
    }
}

impl<T: Iterator, const ON: bool> Iterator for Timed<'_, T, ON> {
    type Item = T::Item;

    #[inline(always)]
    fn next(&mut self) -> Option<T::Item> {
        let inner = &mut self.inner;
        self.meter.time::<ON, _>(|| inner.next())
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl<T: CompletionSink, const ON: bool> CompletionSink for Timed<'_, T, ON> {
    #[inline(always)]
    fn record(&mut self, completion: Completion, latency: Cycles) {
        let inner = &mut self.inner;
        self.meter
            .time::<ON, _>(|| inner.record(completion, latency));
    }
}

impl<T: Collector, const ON: bool> Collector for Timed<'_, T, ON> {
    #[inline(always)]
    fn is_enabled(&self) -> bool {
        self.inner.is_enabled()
    }

    /// Untimed: called once per run, outside the per-event path (and, in
    /// the fabric, before the first round begins).
    fn set_meta(&mut self, meta: SimMeta) {
        self.inner.set_meta(meta);
    }

    #[inline(always)]
    fn record(&mut self, ts: Cycles, event: Event) {
        if ON && matches!(event, Event::RoundBarrier { .. }) {
            self.meter.close_round();
        }
        let inner = &mut self.inner;
        self.meter.time::<ON, _>(|| inner.record(ts, event));
    }

    #[inline(always)]
    fn add(&mut self, counter: Counter, delta: u64) {
        let inner = &mut self.inner;
        self.meter.time::<ON, _>(|| inner.add(counter, delta));
    }

    #[inline(always)]
    fn sample(&mut self, metric: Metric, value: f64) {
        let inner = &mut self.inner;
        self.meter.time::<ON, _>(|| inner.sample(metric, value));
    }

    #[inline(always)]
    fn observe(&mut self, metric: Metric, cycles: u64) {
        let inner = &mut self.inner;
        self.meter.time::<ON, _>(|| inner.observe(metric, cycles));
    }
}
