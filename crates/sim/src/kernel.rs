//! The discrete-event loop: pop event → advance → admit → retire →
//! reschedule → refresh completion estimates.

use crate::clock::SimClock;
use crate::queue::{EventKind, EventQueue};
use crate::slab::TenantSlab;
use crate::tenant::TenantState;
use planaria_arch::AcceleratorConfig;
use planaria_compiler::CompiledDnn;
use planaria_energy::EnergyModel;
use planaria_model::units::{Cycles, Picojoules};
use planaria_telemetry::{Collector, Counter, Event, Metric};
use planaria_workload::{Completion, CompletionSink, Request, SimResult, VecSink};
use std::sync::Arc;

/// Widest placement mask (and thus pod count) a kernel can track.
const MAX_PODS: usize = 128;

/// A scheduling policy plugged into the kernel.
///
/// The kernel owns time, tenant admission, work advancement, completion
/// detection and retirement; the policy owns *decisions*: which tenants
/// hold how many subarrays, what reconfiguration overhead a change
/// costs, and the engine-specific telemetry those decisions emit.
pub trait EnginePolicy {
    /// The compiled network a new arrival will execute.
    fn compiled_for(&mut self, request: &Request) -> Arc<CompiledDnn>;

    /// Subarray count whose configuration table seeds a new tenant's
    /// work accounting (rescaled exactly on the first allocation, so any
    /// valid table works; single-table engines return their only one).
    fn admit_subarrays(&self) -> u32 {
        1
    }

    /// Reacts to a scheduling event at `sim.now` (an arrival and/or
    /// completion just processed): reassign `alloc`/`placement`/`mask`,
    /// charge reconfiguration `overhead`, switch tables, and emit
    /// engine-specific telemetry.
    fn reschedule<C: Collector>(&mut self, sim: &mut SimState, c: &mut C);
}

/// Kernel-owned simulation state visible to policies.
#[derive(Debug)]
pub struct SimState {
    cfg: AcceleratorConfig,
    clock: SimClock,
    /// Current simulation time, cycles since the run origin.
    pub now: Cycles,
    /// Live tenants (running or queued), in admission order modulo
    /// `swap_remove` retirement — policies must not reorder this list
    /// (stable tie-breaks depend on it).
    pub tenants: Vec<TenantState>,
    pub(crate) index: TenantSlab,
}

impl SimState {
    /// A fresh state for one node (crate-internal: the oracle reference
    /// kernel in [`crate::oracle`] builds one to drive real policies).
    pub(crate) fn new_for(cfg: AcceleratorConfig, clock: SimClock) -> Self {
        Self {
            cfg,
            clock,
            now: Cycles::ZERO,
            tenants: Vec::new(),
            index: TenantSlab::new(),
        }
    }

    /// The accelerator configuration of this run.
    pub fn config(&self) -> &AcceleratorConfig {
        &self.cfg
    }

    /// The run's clock (for boundary conversions only).
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Total subarrays on the chip.
    pub fn total_subarrays(&self) -> u32 {
        self.cfg.num_subarrays()
    }

    /// Index of the live tenant serving request `id`, if any. One O(1)
    /// slab probe (hot: runs once per popped completion entry).
    pub fn index_of(&self, id: u64) -> Option<usize> {
        self.index.get(id)
    }
}

/// Whether a popped queue entry is still live: the hoisted stale-epoch
/// check. This is the *single* validity predicate — the pop path, the
/// same-cycle coalescing drain, and [`EventQueue::compact`] all consult
/// it, so a superseded completion can never reach the policy callback
/// path through any of the three, and compaction removes exactly the
/// entries the pop path would have skipped.
///
/// A free function (not a method) so callers can borrow `sim` while
/// holding `&mut` on the queue.
fn event_is_valid(sim: &SimState, next_arrival: usize, kind: &EventKind) -> bool {
    match kind {
        EventKind::Arrival { index } => *index == next_arrival,
        EventKind::Completion { tenant, epoch } => sim
            .index_of(*tenant)
            .is_some_and(|i| sim.tenants[i].epoch == *epoch),
    }
}

/// A resumable single-node discrete-event kernel.
///
/// The loop that [`run_streamed`] used to own inline now lives behind a
/// struct so a multi-node fabric can hold one kernel per node, feed each
/// an inbox of dispatched requests, and advance them in bounded rounds
/// (see [`crate::fabric`]). A `NodeKernel` driven once with no bound is
/// exactly the old streamed loop — `run_streamed` is a thin wrapper —
/// and driving it in bounded slices processes the *same* events at the
/// *same* cycles in the *same* order, because events are pure wake-ups:
/// a bound only decides how far this call walks the heap, never what is
/// in it.
#[derive(Debug)]
pub struct NodeKernel<S: CompletionSink = VecSink> {
    sim: SimState,
    queue: EventQueue,
    /// Where retirements go: an in-memory vector ([`VecSink`], the
    /// default behind [`NodeKernel::into_result`]), a quantile sketch, a
    /// disk spill, or nothing at all
    /// ([`DiscardSink`](planaria_workload::DiscardSink), the flat-memory
    /// path behind [`NodeKernel::into_summary`]). A type parameter, so
    /// the per-retirement call inlines with zero dispatch cost.
    sink: S,
    em: EnergyModel,
    /// The one not-yet-admitted arrival pulled from the source.
    pending: Option<Request>,
    last_arrival: f64,
    next_arrival: usize,
    /// Whether an arrival event for `pending` is already in the heap
    /// (avoids re-pushing a duplicate wake-up on every event).
    arrival_queued: bool,
    busy: Cycles,
    /// Cycle of the first admitted arrival: this node's makespan origin.
    origin: Option<Cycles>,
    events: u64,
    completed: u64,
    summary_energy: Picojoules,
    /// Cumulative dynamic energy attributed to each subarray pod
    /// (picojoules), maintained only while the collector is enabled.
    pod_pj: [f64; MAX_PODS],
    /// The value last exported per pod, so counter samples are emitted
    /// only when a pod's total moved.
    pod_emitted: [f64; MAX_PODS],
    /// Subarrays per pod (at least 1): the mask stride of one pod.
    per_pod: u32,
    /// The low `per_pod` bits: one pod's slice of a placement mask.
    pod_bits: u128,
    /// Pods whose energy totals are exported (capped at [`MAX_PODS`]).
    pods: u32,
}

/// Aggregate view of a finished node when completions are not kept
/// (see [`NodeKernel::into_summary`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NodeSummary {
    /// Requests retired.
    pub completed: u64,
    /// Dynamic plus static energy over the node's busy span.
    pub total_energy: Picojoules,
    /// The static (leakage) component of `total_energy` alone — exposed
    /// so streamed exactness paths can recombine it with a dynamic sum
    /// taken in a canonical order (the spill replay digests dynamic
    /// energy in request-id order, exactly as
    /// [`into_result`](NodeKernel::into_result) does).
    pub static_energy: Picojoules,
    /// Seconds from the node's first admitted arrival to its last event.
    pub makespan: f64,
}

impl NodeKernel<VecSink> {
    /// A fresh kernel for one node on a (possibly shared) clock,
    /// keeping every completion in memory (the [`VecSink`] default).
    pub fn new(cfg: &AcceleratorConfig, clock: SimClock) -> Self {
        Self::with_sink(cfg, clock, VecSink::default())
    }

    /// Finalizes the node into a [`SimResult`].
    ///
    /// Makespan is measured from this node's *own* first admitted
    /// arrival (on a shared fabric clock a node that starts late is not
    /// charged for the lead-in), matching the per-node semantics the
    /// serial cluster had. Static energy accrues while the chip serves
    /// tenants — idle gaps between requests belong to whatever the node
    /// does next.
    pub fn into_result(self) -> SimResult {
        debug_assert!(self.is_idle(), "node finalized with work outstanding");
        let mut completions = self.sink.completions;
        completions.sort_by_key(|c| c.request.id);
        let dynamic: Picojoules = completions.iter().map(|c| c.energy).sum();
        let active = self
            .sim
            .now
            .saturating_sub(self.origin.unwrap_or(Cycles::ZERO));
        SimResult {
            completions,
            total_energy: dynamic
                + self
                    .em
                    .static_energy(self.sim.clock.span_seconds(self.busy)),
            makespan: self.sim.clock.span_seconds(active),
        }
    }
}

impl<S: CompletionSink> NodeKernel<S> {
    /// A fresh kernel retiring into `sink` (see [`CompletionSink`] for
    /// the menu: vector, sketch, disk spill, discard).
    pub fn with_sink(cfg: &AcceleratorConfig, clock: SimClock, sink: S) -> Self {
        let per_pod = cfg.subarrays_per_pod.max(1);
        Self {
            sim: SimState::new_for(*cfg, clock),
            queue: EventQueue::new(),
            sink,
            em: EnergyModel::for_config(cfg),
            pending: None,
            last_arrival: f64::NEG_INFINITY,
            next_arrival: 0,
            arrival_queued: false,
            busy: Cycles::ZERO,
            origin: None,
            events: 0,
            completed: 0,
            summary_energy: Picojoules::ZERO,
            pod_pj: [0.0; MAX_PODS],
            pod_emitted: [0.0; MAX_PODS],
            per_pod,
            pod_bits: 1u128.checked_shl(per_pod).map_or(u128::MAX, |b| b - 1),
            // `num_pods`, without its division by zero on a hand-built
            // config with no pod size.
            pods: (cfg.num_subarrays() / per_pod).clamp(1, MAX_PODS as u32),
        }
    }

    /// Requests retired so far.
    pub fn completed_count(&self) -> u64 {
        self.completed
    }

    /// Current simulation time of this node, cycles since the clock
    /// origin.
    pub fn now(&self) -> Cycles {
        self.sim.now
    }

    /// Live (running or queued) tenants on this node.
    pub fn live_tenants(&self) -> usize {
        self.sim.tenants.len()
    }

    /// Total work left across live tenants, in cycles — the load signal
    /// feedback dispatchers read at epoch barriers.
    pub fn outstanding_cycles(&self) -> Cycles {
        self.sim.tenants.iter().map(TenantState::remaining).sum()
    }

    /// Whether the node holds no pending arrival and no live tenants.
    pub fn is_idle(&self) -> bool {
        self.pending.is_none() && self.sim.tenants.is_empty()
    }

    /// Wake-ups processed so far (the fabric's aggregate throughput
    /// denominator).
    pub fn events_processed(&self) -> u64 {
        self.events
    }

    /// Pulls the next request from the source, enforcing arrival order.
    fn pull<F: FnMut() -> Option<Request>>(&mut self, src: &mut F) {
        self.pending = src();
        if let Some(next) = &self.pending {
            assert!(
                next.arrival >= self.last_arrival,
                "trace must be sorted by arrival time"
            );
            self.last_arrival = next.arrival;
        }
    }

    /// Pops the next *valid* event strictly before `bound`: stale heap
    /// entries — superseded completion estimates (epoch mismatch),
    /// estimates for retired tenants, already-admitted arrivals — are
    /// skipped.
    ///
    /// Same-cycle coalescing: once a valid event fixes the wake-up cycle,
    /// every remaining heap entry at that cycle is drained in the same
    /// pass. Events are pure wake-ups — admission is driven by the trace
    /// cursor and retirement by the exact `is_done` scan — so when *k*
    /// arrivals and completions land on one `Cycles` timestamp the kernel
    /// advances once, admits/retires them all, and invokes `reschedule`
    /// once. The `(Cycles, EventKind, seq)` heap order is unchanged: the
    /// first valid entry at the cycle still decides the wake-up exactly
    /// as before, and the drained entries carry no payload the loop body
    /// would have read.
    ///
    /// Entries at or after `bound` stay in the heap untouched, so a
    /// bounded walk followed by another call is indistinguishable from
    /// one unbounded walk.
    ///
    /// The returned flag reports whether any *valid* completion entry —
    /// the wake-up itself or a same-cycle coalesced drain — was consumed
    /// at this cycle. That flag is the retirement gate's evidence: a
    /// tenant holding subarrays reaches `is_done` exactly when `now`
    /// hits its `scheduled_completion` (the estimate-refresh invariant
    /// keeps `scheduled_completion = now + remaining` whenever
    /// `alloc > 0`, and `advance` burns cycle-for-cycle), and that cycle
    /// always carries the tenant's current-epoch — hence valid — queue
    /// entry. So no valid completion at this cycle means no running
    /// tenant can have finished here.
    fn next_event_before(&mut self, bound: Option<Cycles>) -> Option<(Cycles, bool)> {
        loop {
            let head = self.queue.next_at()?;
            if bound.is_some_and(|b| head >= b) {
                return None;
            }
            let (at, kind) = self.queue.pop()?;
            if event_is_valid(&self.sim, self.next_arrival, &kind) {
                let mut completion_due = matches!(kind, EventKind::Completion { .. });
                while self.queue.next_at() == Some(at) {
                    if let Some((_, drained)) = self.queue.pop() {
                        if event_is_valid(&self.sim, self.next_arrival, &drained) {
                            completion_due |= matches!(drained, EventKind::Completion { .. });
                        } else {
                            self.queue.note_stale_consumed();
                        }
                    }
                }
                return Some((at, completion_due));
            }
            // A superseded entry left the queue: balance the stale
            // ledger so `should_compact` tracks the live population.
            self.queue.note_stale_consumed();
        }
    }

    /// Advances the node until the event heap is exhausted (or, with a
    /// bound, until the next event would land at or past `bound`),
    /// drawing arrivals lazily from `src`.
    ///
    /// The loop body is the kernel contract: pop event → advance work →
    /// admit due arrivals → retire finished tenants → `reschedule` →
    /// refresh completion estimates.
    pub fn advance<P: EnginePolicy, C: Collector, F: FnMut() -> Option<Request>>(
        &mut self,
        bound: Option<Cycles>,
        src: &mut F,
        policy: &mut P,
        c: &mut C,
    ) {
        if self.pending.is_none() {
            self.pull(src);
        }
        if !self.arrival_queued {
            if let Some(r) = &self.pending {
                self.queue.push(
                    self.sim.clock.cycles_from_seconds(r.arrival),
                    EventKind::Arrival {
                        index: self.next_arrival,
                    },
                );
                self.arrival_queued = true;
            }
        }

        let track_pods = c.is_enabled();
        while let Some((t_next, completion_due)) = self.next_event_before(bound) {
            self.events += 1;
            // Advance every allocated tenant to the event time. The chip
            // is busy whenever anyone holds subarrays. With telemetry on,
            // each tenant's dynamic-energy delta is attributed evenly
            // across the subarrays it holds, accumulated per pod. The
            // mask is walked one pod at a time, adding the share once per
            // subarray held in the pod: each pod gets the same adds in the
            // same order as a walk bit by bit, so the totals are
            // bit-exact, without a division per bit. `advance(0)` is a
            // no-op for every tenant (and contributes no busy span), so a
            // zero-width step skips the scan whole.
            let dt = t_next.saturating_sub(self.sim.now);
            if !dt.is_zero() {
                let mut any_allocated = false;
                for t in &mut self.sim.tenants {
                    if t.alloc > 0 {
                        any_allocated = true;
                        if track_pods {
                            let before = t.energy.as_pj();
                            t.advance(dt);
                            let delta = t.energy.as_pj() - before;
                            if delta > 0.0 && t.mask != 0 {
                                let share = delta / f64::from(t.mask.count_ones());
                                let mut m = t.mask;
                                let mut pod = 0;
                                while m != 0 {
                                    for _ in 0..(m & self.pod_bits).count_ones() {
                                        self.pod_pj[pod] += share;
                                    }
                                    m = m.checked_shr(self.per_pod).unwrap_or(0);
                                    pod += 1;
                                }
                            }
                        } else {
                            t.advance(dt);
                        }
                    }
                }
                if any_allocated {
                    self.busy += dt;
                }
            }
            self.sim.now = t_next;

            // Admit every arrival due now; keep exactly one future
            // arrival event outstanding.
            let mut maybe_done = completion_due;
            while let Some(req) = self.pending {
                let at = self.sim.clock.cycles_from_seconds(req.arrival);
                if at > self.sim.now {
                    if !self.arrival_queued {
                        self.queue.push(
                            at,
                            EventKind::Arrival {
                                index: self.next_arrival,
                            },
                        );
                        self.arrival_queued = true;
                    }
                    break;
                }
                if self.origin.is_none() {
                    self.origin = Some(at);
                }
                if c.is_enabled() {
                    c.record(
                        self.sim.now,
                        Event::Arrival {
                            tenant: req.id,
                            dnn: req.dnn,
                        },
                    );
                    c.add(Counter::Arrivals, 1);
                }
                let compiled = policy.compiled_for(&req);
                let deadline = self.sim.clock.cycles_from_seconds(req.deadline());
                self.sim.index.insert(req.id, self.sim.tenants.len());
                self.sim.tenants.push(TenantState::new(
                    req,
                    compiled,
                    policy.admit_subarrays(),
                    at,
                    deadline,
                    self.sim.now,
                ));
                // A degenerate zero-work request is done the moment it is
                // admitted, without ever owning a completion entry — the
                // one way `is_done` can flip outside a completion cycle.
                maybe_done |= self.sim.tenants.last().is_some_and(TenantState::is_done);
                self.next_arrival += 1;
                self.arrival_queued = false;
                self.pull(src);
            }

            // Retire finished tenants (ascending swap_remove scan,
            // preserving the admission-order prefix that stable
            // scheduling relies on). The scan runs only when this cycle
            // could have finished someone: a valid completion entry was
            // consumed (see `next_event_before`) or a zero-work admit
            // arrived done. On pure-arrival cycles — half of a saturated
            // node's events — the O(live) sweep is provably a no-op and
            // is skipped; the oracle kernel runs it unconditionally and
            // the equivalence suite pins the results byte-for-byte.
            let mut retired_any = false;
            let mut i = 0;
            while maybe_done && i < self.sim.tenants.len() {
                if self.sim.tenants[i].is_done() {
                    let t = self.sim.tenants.swap_remove(i);
                    self.sim.index.remove(t.request.id);
                    if let Some(moved) = self.sim.tenants.get(i) {
                        self.sim.index.insert(moved.request.id, i);
                    }
                    // A retiring tenant whose current-epoch completion
                    // entry has not matured yet (estimate strictly in the
                    // future) leaves that entry permanently dead in the
                    // queue. With the estimate-refresh invariant this
                    // cannot happen — a tenant finishes exactly when its
                    // estimate matures — but the guard keeps the stale
                    // ledger exact under any policy behavior.
                    if t.scheduled_completion.is_some_and(|sc| sc > self.sim.now) {
                        self.queue.note_stale();
                    }
                    retired_any = true;
                    let latency = self.sim.now.saturating_sub(t.arrival_cycle);
                    if c.is_enabled() {
                        if t.alloc > 0 {
                            c.record(
                                self.sim.now,
                                Event::ExecSlice {
                                    tenant: t.request.id,
                                    subarrays: t.alloc,
                                    mask: t.mask,
                                    start: t.slice_start,
                                    duration: self.sim.now.saturating_sub(t.slice_start),
                                },
                            );
                        }
                        c.record(
                            self.sim.now,
                            Event::Completion {
                                tenant: t.request.id,
                                latency,
                            },
                        );
                        c.add(Counter::Completions, 1);
                        c.observe(Metric::LatencyCycles, latency.get());
                        if self.sim.now <= t.deadline_cycle {
                            c.add(Counter::QosMet, 1);
                        }
                    }
                    self.completed += 1;
                    self.summary_energy += t.energy;
                    self.sink.record(
                        Completion {
                            request: t.request,
                            finish: self.sim.clock.to_seconds(self.sim.now),
                            energy: t.energy,
                        },
                        latency,
                    );
                } else {
                    i += 1;
                }
            }
            // Export pod energy counters only when a completion closed
            // this event and a pod's cumulative total actually moved.
            if track_pods && retired_any {
                for pod in 0..self.pods {
                    let cur = self.pod_pj[pod as usize];
                    if cur != self.pod_emitted[pod as usize] {
                        self.pod_emitted[pod as usize] = cur;
                        c.record(
                            self.sim.now,
                            Event::PodEnergy {
                                pod,
                                energy: Picojoules::new(cur),
                            },
                        );
                    }
                }
            }

            // Not an equality: duplicate request ids are tolerated (the
            // loop is positional), and duplicates share one index slot.
            debug_assert!(
                self.sim.index.len() <= self.sim.tenants.len(),
                "tenant slab out of sync with the live list"
            );

            // A scheduling event fired: let the policy reassign the chip.
            policy.reschedule(&mut self.sim, c);

            // Refresh completion estimates. `now + remaining` is
            // invariant under plain advancement, so an estimate changes
            // only when the policy touched the tenant; superseded heap
            // entries are invalidated by the epoch bump rather than
            // removed.
            for t in &mut self.sim.tenants {
                let target = if t.alloc > 0 {
                    Some(self.sim.now + t.remaining())
                } else {
                    None
                };
                if target != t.scheduled_completion {
                    // The epoch bump supersedes the tenant's previous
                    // entry. It is still physically queued exactly when
                    // the old estimate lies strictly in the future (an
                    // estimate at `now` was consumed as this event's
                    // wake-up or coalesced drain), so only then does the
                    // stale ledger grow.
                    if t.scheduled_completion.is_some_and(|sc| sc > self.sim.now) {
                        self.queue.note_stale();
                    }
                    t.scheduled_completion = target;
                    t.epoch = t.epoch.wrapping_add(1);
                    if let Some(at) = target {
                        self.queue.push(
                            at,
                            EventKind::Completion {
                                tenant: t.request.id,
                                epoch: t.epoch,
                            },
                        );
                    }
                }
            }

            // Compact once the superseded population dominates the
            // queue: one sweep drops every dead entry, so resident size
            // tracks live events instead of every estimate ever pushed.
            // Removal is invisible to pop order — the predicate is the
            // same hoisted validity check the pop path applies, and
            // invalidity is permanent (epochs only grow, retired ids
            // never return, the arrival cursor only advances).
            if self.queue.should_compact() {
                let sim = &self.sim;
                let next_arrival = self.next_arrival;
                self.queue
                    .compact(|kind| event_is_valid(sim, next_arrival, kind));
            }
        }
    }

    /// Finalizes the node into aggregate tallies only — the counterpart
    /// of [`into_result`](NodeKernel::into_result) for sink-driven runs
    /// where no completion vector exists. Dynamic energy is summed in
    /// retirement order (vs. request-id order in `into_result`), so the
    /// two paths agree to float associativity, not bit-for-bit; exactness
    /// paths recombine `static_energy` with their own canonical-order
    /// dynamic sum instead.
    pub fn into_summary(self) -> NodeSummary {
        self.into_sink().1
    }

    /// Finalizes the node, handing back the sink alongside the aggregate
    /// tallies — how spill and sketch runs recover what they recorded.
    pub fn into_sink(self) -> (S, NodeSummary) {
        debug_assert!(self.is_idle(), "node finalized with work outstanding");
        debug_assert!(
            self.sim.index.is_empty(),
            "tenant index out of sync with the live list"
        );
        let active = self
            .sim
            .now
            .saturating_sub(self.origin.unwrap_or(Cycles::ZERO));
        let static_energy = self
            .em
            .static_energy(self.sim.clock.span_seconds(self.busy));
        (
            self.sink,
            NodeSummary {
                completed: self.completed,
                total_energy: self.summary_energy + static_energy,
                static_energy,
                makespan: self.sim.clock.span_seconds(active),
            },
        )
    }
}

/// Runs the discrete-event loop over `trace` with `policy`, streaming
/// telemetry into `c`.
///
/// Seconds appear only at the boundary: arrivals and deadlines are
/// converted to cycles on admission, and [`Completion::finish`] /
/// [`SimResult::makespan`] / static energy are converted back once at
/// the end.
///
/// # Panics
///
/// Panics if the trace is not sorted by arrival time.
pub fn run<P: EnginePolicy, C: Collector>(
    cfg: &AcceleratorConfig,
    trace: &[Request],
    policy: &mut P,
    c: &mut C,
) -> SimResult {
    assert!(
        trace.windows(2).all(|w| w[0].arrival <= w[1].arrival),
        "trace must be sorted by arrival time"
    );
    run_streamed(cfg, trace.iter().copied(), policy, c)
}

/// [`run`] over a pull-based request source instead of a materialized
/// slice: requests are drawn lazily, one at a time, so resident request
/// memory is O(live tenants) — a million-request
/// [`TraceStream`](planaria_workload::TraceStream) never exists as a
/// `Vec`. The kernel keeps exactly one not-yet-due arrival outstanding
/// (the `pending` cursor); everything else about the loop — admission,
/// advancement, retirement, rescheduling — is byte-identical to the
/// slice path, and `run(&v)` is definitionally
/// `run_streamed(v.iter().copied())`.
///
/// # Panics
///
/// Panics if the source yields arrivals out of order (checked
/// incrementally as requests are pulled).
pub fn run_streamed<P: EnginePolicy, C: Collector, I: IntoIterator<Item = Request>>(
    cfg: &AcceleratorConfig,
    requests: I,
    policy: &mut P,
    c: &mut C,
) -> SimResult {
    let mut source = requests.into_iter();
    // The first request is pulled eagerly to anchor the clock origin; it
    // re-enters the kernel through the source closure below.
    let mut head: Option<Request> = source.next();
    let clock = SimClock::new(head.map_or(0.0, |r| r.arrival), cfg.freq_hz);
    c.set_meta(clock.meta(cfg.num_subarrays()));

    let mut node = NodeKernel::new(cfg, clock);
    node.advance(
        None,
        &mut || head.take().or_else(|| source.next()),
        policy,
        c,
    );
    node.into_result()
}

/// [`run_streamed`] retiring into an arbitrary [`CompletionSink`]
/// instead of an in-memory vector: the fully flat-memory exactness path.
/// With a [`SpillSink`](planaria_workload::SpillSink) a 10⁷-request run
/// holds O(live tenants + one spill buffer) regardless of trace length,
/// and the returned sink replays every completion in request-id order
/// (fixed-memory latency percentiles come from a
/// [`StatsCollector`](planaria_telemetry::StatsCollector) passed as `c`,
/// not from the sink). Scheduling is identical to
/// [`run_streamed`] — the sink only decides what is *remembered* — and
/// the returned [`NodeSummary`] carries the aggregate tallies plus the
/// split-out static energy the digest replay needs.
///
/// # Panics
///
/// Panics if the source yields arrivals out of order.
pub fn run_streamed_sink<
    P: EnginePolicy,
    C: Collector,
    I: IntoIterator<Item = Request>,
    S: CompletionSink,
>(
    cfg: &AcceleratorConfig,
    requests: I,
    policy: &mut P,
    c: &mut C,
    sink: S,
) -> (S, NodeSummary) {
    let mut source = requests.into_iter();
    let mut head: Option<Request> = source.next();
    let clock = SimClock::new(head.map_or(0.0, |r| r.arrival), cfg.freq_hz);
    c.set_meta(clock.meta(cfg.num_subarrays()));

    let mut node = NodeKernel::with_sink(cfg, clock, sink);
    node.advance(
        None,
        &mut || head.take().or_else(|| source.next()),
        policy,
        c,
    );
    node.into_sink()
}

#[cfg(test)]
mod tests {
    use super::*;
    use planaria_model::DnnId;
    use planaria_telemetry::{NullCollector, RecordingCollector};

    /// A minimal policy: the oldest queued tenant gets the whole chip.
    struct WholeChipFifo {
        library: planaria_compiler::CompiledLibrary,
    }

    impl EnginePolicy for WholeChipFifo {
        fn compiled_for(&mut self, request: &Request) -> Arc<CompiledDnn> {
            self.library.shared(request.dnn)
        }

        fn reschedule<C: Collector>(&mut self, sim: &mut SimState, _c: &mut C) {
            let total = sim.total_subarrays();
            if sim.tenants.iter().any(|t| t.alloc > 0) {
                return;
            }
            let Some(i) = sim
                .tenants
                .iter()
                .enumerate()
                .min_by_key(|(_, t)| t.arrival_cycle)
                .map(|(i, _)| i)
            else {
                return;
            };
            let t = &mut sim.tenants[i];
            t.alloc = total;
            let (wt, en) = {
                let table = t.compiled.table(total);
                (table.total_cycles(), table.total_energy())
            };
            t.switch_table(wt, en);
            t.slice_start = sim.now;
        }
    }

    fn policy() -> WholeChipFifo {
        WholeChipFifo {
            library: planaria_compiler::CompiledLibrary::new(
                planaria_arch::AcceleratorConfig::planaria(),
            ),
        }
    }

    fn req(id: u64, arrival: f64) -> Request {
        Request {
            id,
            dnn: DnnId::TinyYolo,
            arrival,
            priority: 5,
            qos: 1.0,
        }
    }

    #[test]
    fn empty_trace_yields_empty_result() {
        let cfg = planaria_arch::AcceleratorConfig::planaria();
        let r = run(&cfg, &[], &mut policy(), &mut NullCollector);
        assert!(r.completions.is_empty());
        assert_eq!(r.makespan, 0.0);
    }

    #[test]
    fn serial_fifo_completes_everything_in_admission_order() {
        let cfg = planaria_arch::AcceleratorConfig::planaria();
        let trace = vec![req(0, 0.0), req(1, 0.0), req(2, 0.001)];
        let mut c = RecordingCollector::new();
        let r = run(&cfg, &trace, &mut policy(), &mut c);
        assert_eq!(r.completions.len(), 3);
        for (i, done) in r.completions.iter().enumerate() {
            assert_eq!(done.request.id, i as u64);
            assert!(done.finish >= done.request.arrival);
        }
        assert!(r.makespan > 0.0);
        assert!(r.total_energy > Picojoules::ZERO);
        // Completions serialize: each one finishes before the next starts.
        assert!(r.completions[0].finish <= r.completions[1].finish);
        use planaria_telemetry::Counter as Ct;
        let report = c.report();
        assert_eq!(report.counter(Ct::Arrivals), 3);
        assert_eq!(report.counter(Ct::Completions), 3);
    }

    #[test]
    #[should_panic(expected = "sorted by arrival")]
    fn unsorted_trace_rejected() {
        let cfg = planaria_arch::AcceleratorConfig::planaria();
        let trace = vec![req(0, 1.0), req(1, 0.0)];
        let _ = run(&cfg, &trace, &mut policy(), &mut NullCollector);
    }

    #[test]
    fn makespan_counts_from_first_arrival() {
        let cfg = planaria_arch::AcceleratorConfig::planaria();
        let late = vec![req(0, 5.0)];
        let r = run(&cfg, &late, &mut policy(), &mut NullCollector);
        assert_eq!(r.completions.len(), 1);
        // Finish is absolute; makespan is relative to the first arrival.
        assert!(r.completions[0].finish >= 5.0);
        assert!(
            r.makespan < 1.0,
            "makespan {} must exclude the 5 s lead-in",
            r.makespan
        );
    }
}
