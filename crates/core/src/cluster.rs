//! Scaled-out serving: multiple Planaria nodes behind an online
//! dispatcher (the Fig. 16 experiment).
//!
//! Each DNN task is mapped to a single chip (§VI-B1: "each DNN task is
//! mapped to a single chip instead of being distributed across multiple
//! nodes"). A [`Cluster`] streams requests through a
//! [`ClusterDispatcher`] into the multi-node fabric
//! ([`planaria_sim::run_fabric_with`]): one independent kernel plus one
//! policy per node, advanced in epoch-synchronized rounds so the nodes
//! fan out across cores while the result stays byte-identical at any
//! worker count.
//!
//! Dispatch accounting lives in the [`Cycles`] domain: the LeastWork
//! horizon per node is integer cycles on the fabric clock, and the work
//! estimate is the compiled full-chip cycle count from the timing memo
//! (`table(total).total_cycles()`), not a float-seconds latency requery.

use crate::engine::{PlanariaEngine, SpatialPolicy};
use planaria_arch::AcceleratorConfig;
use planaria_compiler::CompiledLibrary;
use planaria_model::units::{Cycles, Picojoules};
use planaria_model::{DnnId, SplitMix64};
use planaria_sim::{
    run_fabric_summary, run_fabric_with, Dispatcher, EnginePolicy, FabricStats, FabricTuning,
    NodeLoad, SimClock,
};
use planaria_telemetry::{
    ClusterRecording, MetricsReport, NullCollector, RecordingCollector, StatsCollector,
};
use planaria_workload::{Request, SimResult};

/// Policy for spreading requests over the cluster's nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DispatchPolicy {
    /// Send each request to the node with the least outstanding estimated
    /// work (compiled full-chip cycle counts as the estimate).
    #[default]
    LeastWork,
    /// Cycle through nodes in arrival order.
    RoundRobin,
    /// Pin each network to a fixed node (weight locality: a node serves a
    /// model subset and never reloads foreign weights).
    DnnAffinity,
    /// Join the node with the fewest requests in flight (live tenants at
    /// the last barrier plus requests routed since).
    JoinShortestQueue,
    /// Sample two nodes uniformly and join the less loaded of the pair —
    /// the classic O(1) approximation of shortest-queue.
    PowerOfTwo,
    /// Deadline-aware routing: requests whose QoS budget is tight
    /// relative to their compiled work go to the least-loaded node;
    /// relaxed requests round-robin.
    QosAware,
    /// Geometry-aware routing for heterogeneous fleets: tight-deadline
    /// requests join the least-loaded node among those exposing the most
    /// fission granules (fine-granule chips carve out a logical
    /// accelerator soonest), relaxed requests the least-loaded among the
    /// coarsest nodes (big systolic granules serve batch traffic
    /// cheapest). The class preference is soft: when the preferred class
    /// runs much deeper than the emptiest node in the fleet the request
    /// spills to plain shortest-queue, so a skewed tight/relaxed mix
    /// cannot strand half the fleet idle. On a homogeneous fleet every
    /// node ties and this is exactly
    /// [`JoinShortestQueue`](DispatchPolicy::JoinShortestQueue).
    GeometryAware,
}

impl DispatchPolicy {
    /// Every dispatch policy, for sweeps and determinism tests.
    pub const ALL: [DispatchPolicy; 7] = [
        DispatchPolicy::LeastWork,
        DispatchPolicy::RoundRobin,
        DispatchPolicy::DnnAffinity,
        DispatchPolicy::JoinShortestQueue,
        DispatchPolicy::PowerOfTwo,
        DispatchPolicy::QosAware,
        DispatchPolicy::GeometryAware,
    ];
}

/// Fixed seed for the power-of-two sampler: routing must be a pure
/// function of the arrival stream, so every run draws the same sequence.
const POWER_OF_TWO_SEED: u64 = 0x9e37_79b9_7f4a_7c15;

/// A request is QoS-tight when its whole budget is under this many times
/// its full-chip compiled latency — it cannot afford to queue behind
/// much, so [`DispatchPolicy::QosAware`] sends it to the emptiest node.
const QOS_TIGHT_FACTOR: u64 = 8;

/// Queue-depth slack before [`DispatchPolicy::GeometryAware`] spills a
/// request out of its preferred granularity class: the preferred node
/// may run this many requests deeper than the fleet's emptiest node
/// before shortest-queue takes over.
const GEOMETRY_SPILL_SLACK: usize = 2;

/// The online routing state behind every [`DispatchPolicy`], plugged
/// into the fabric as its [`Dispatcher`].
///
/// All state is in the cycle domain or integer counters: LeastWork
/// horizons are [`Cycles`] on the fabric clock, work estimates come from
/// the compiled timing tables once at construction, and the
/// power-of-two sampler is a seeded [`SplitMix64`].
#[derive(Debug, Clone)]
pub struct ClusterDispatcher {
    policy: DispatchPolicy,
    nodes: usize,
    nodes_u64: u64,
    /// Full-chip work per node per network: `work[node]` is indexed by
    /// [`DnnId::ALL`] position and holds that node's compiled full-chip
    /// cycle counts. Uniform fleets carry identical rows, so every
    /// homogeneous routing decision is unchanged from the
    /// single-geometry dispatcher.
    work: Vec<Vec<Cycles>>,
    /// Per-network best-case work across the fleet (the fastest node's
    /// full-chip cycles) — the geometry-independent yardstick the
    /// QoS-tightness tests compare deadlines against.
    min_work: Vec<Cycles>,
    /// LeastWork: when each node is estimated to drain, fabric-clock
    /// cycles.
    horizons: Vec<Cycles>,
    rr: usize,
    rng: SplitMix64,
}

impl ClusterDispatcher {
    /// A dispatcher over `nodes` identical nodes compiled in `library`.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    pub fn new(library: &CompiledLibrary, nodes: usize, policy: DispatchPolicy) -> Self {
        assert!(nodes > 0, "cluster needs at least one node");
        let libraries = vec![library; nodes];
        Self::heterogeneous(&libraries, policy)
    }

    /// A dispatcher over nodes with per-node geometries: `libraries[i]`
    /// is node `i`'s compiled library, and every work estimate is looked
    /// up in the owning node's tables — a coarse-granule node and a
    /// fine-granule node advertise different full-chip cycle counts for
    /// the same network.
    ///
    /// # Panics
    ///
    /// Panics if `libraries` is empty.
    pub fn heterogeneous(libraries: &[&CompiledLibrary], policy: DispatchPolicy) -> Self {
        let nodes = libraries.len();
        assert!(nodes > 0, "cluster needs at least one node");
        let work: Vec<Vec<Cycles>> = libraries
            .iter()
            .map(|lib| {
                let total = lib.config().num_subarrays();
                DnnId::ALL
                    .iter()
                    .map(|&id| lib.get(id).table(total).total_cycles())
                    .collect()
            })
            .collect();
        let min_work = (0..DnnId::ALL.len())
            .map(|d| work.iter().map(|row| row[d]).min().unwrap_or(Cycles::ZERO))
            .collect();
        Self {
            policy,
            nodes,
            // lint: node counts are small; usize always fits u64 here
            nodes_u64: u64::try_from(nodes).expect("node count fits u64"),
            work,
            min_work,
            horizons: vec![Cycles::ZERO; nodes],
            rr: 0,
            rng: SplitMix64::new(POWER_OF_TWO_SEED),
        }
    }

    fn dnn_index(dnn: DnnId) -> usize {
        DnnId::ALL.iter().position(|&id| id == dnn).unwrap_or(0)
    }

    /// In-flight key: live tenants at the last barrier plus requests
    /// routed since, ties broken by remaining backlog.
    fn in_flight(load: &NodeLoad) -> (usize, Cycles) {
        (load.tenants + load.routed, load.backlog)
    }

    fn least_loaded(loads: &[NodeLoad]) -> usize {
        loads
            .iter()
            .enumerate()
            .min_by_key(|(_, l)| Self::in_flight(l))
            .map_or(0, |(i, _)| i)
    }

    /// Least-loaded node among those whose granule count matches the
    /// fleet extreme: the finest chips (most subarrays) when `fine`,
    /// the coarsest otherwise. Homogeneous fleets tie everywhere, so
    /// this reduces to [`least_loaded`](Self::least_loaded).
    fn least_loaded_by_granularity(loads: &[NodeLoad], fine: bool) -> usize {
        let pick = loads.iter().map(|l| l.subarrays);
        let target = if fine {
            pick.max().unwrap_or(0)
        } else {
            pick.min().unwrap_or(0)
        };
        loads
            .iter()
            .enumerate()
            .filter(|(_, l)| l.subarrays == target)
            .min_by_key(|(_, l)| Self::in_flight(l))
            .map_or(0, |(i, _)| i)
    }

    fn next_round_robin(&mut self) -> usize {
        let t = self.rr;
        self.rr = (self.rr + 1) % self.nodes;
        t
    }
}

impl Dispatcher for ClusterDispatcher {
    fn route(&mut self, req: &Request, at: Cycles, clock: &SimClock, loads: &[NodeLoad]) -> usize {
        match self.policy {
            DispatchPolicy::LeastWork => {
                let target = self
                    .horizons
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, h)| **h)
                    .map_or(0, |(i, _)| i);
                // The chosen node's own estimate: heterogeneous chips
                // advertise different full-chip cycle counts.
                let work = self.work[target][Self::dnn_index(req.dnn)];
                self.horizons[target] = self.horizons[target].max(at) + work;
                target
            }
            DispatchPolicy::RoundRobin => self.next_round_robin(),
            DispatchPolicy::DnnAffinity => Self::dnn_index(req.dnn) % self.nodes,
            DispatchPolicy::JoinShortestQueue => Self::least_loaded(loads),
            DispatchPolicy::PowerOfTwo => {
                let a = usize::try_from(self.rng.next_below(self.nodes_u64))
                    // lint: next_below(n) < n <= usize::MAX
                    .expect("sample fits usize");
                let b = usize::try_from(self.rng.next_below(self.nodes_u64))
                    // lint: next_below(n) < n <= usize::MAX
                    .expect("sample fits usize");
                if Self::in_flight(&loads[b]) < Self::in_flight(&loads[a]) {
                    b
                } else {
                    a
                }
            }
            DispatchPolicy::QosAware => {
                let work = self.min_work[Self::dnn_index(req.dnn)];
                let budget = clock.duration_cycles(req.qos);
                if budget < work.saturating_mul(QOS_TIGHT_FACTOR) {
                    Self::least_loaded(loads)
                } else {
                    self.next_round_robin()
                }
            }
            DispatchPolicy::GeometryAware => {
                let work = self.min_work[Self::dnn_index(req.dnn)];
                let budget = clock.duration_cycles(req.qos);
                let tight = budget < work.saturating_mul(QOS_TIGHT_FACTOR);
                let preferred = Self::least_loaded_by_granularity(loads, tight);
                let fallback = Self::least_loaded(loads);
                let depth = |i: usize| loads[i].tenants + loads[i].routed;
                if depth(preferred) > depth(fallback).saturating_add(GEOMETRY_SPILL_SLACK) {
                    fallback
                } else {
                    preferred
                }
            }
        }
    }

    /// Only the queue-feedback policies read the barrier load snapshot;
    /// the open-loop ones are batched by count alone.
    fn feedback(&self) -> bool {
        matches!(
            self.policy,
            DispatchPolicy::JoinShortestQueue
                | DispatchPolicy::PowerOfTwo
                | DispatchPolicy::QosAware
                | DispatchPolicy::GeometryAware
        )
    }
}

/// Aggregate result of the flat-memory cluster path: counts, energy and
/// percentile sketches without ever materializing a completion vector.
#[derive(Debug, Clone, Default)]
pub struct ClusterStats {
    /// Requests retired across all nodes.
    pub completed: u64,
    /// Dynamic plus static energy summed over nodes in node-id order.
    pub total_energy: Picojoules,
    /// Slowest node's makespan, seconds.
    pub makespan: f64,
    /// Fabric counters merged with every node's counters, histograms and
    /// quantile sketches (latency percentiles live in
    /// [`Metric::LatencyCycles`](planaria_telemetry::Metric::LatencyCycles)).
    pub metrics: MetricsReport,
}

/// Nodes behind one online [`ClusterDispatcher`], ready to serve one
/// request stream through the multi-node fabric.
///
/// Node `i` runs its own policy on the chip its compiled library was
/// built for, and the dispatcher reads every work estimate from the
/// owning node's tables. Built by [`uniform`](Cluster::uniform) (N
/// identical Planaria nodes), [`GeoFleet::cluster`](crate::GeoFleet::cluster)
/// (per-node geometries) or `planaria_prema::mixed_cluster` (Planaria
/// and PREMA nodes side by side). The three runs schedule identically
/// and differ only in what they keep: every completion
/// ([`run`](Cluster::run)), every completion plus every telemetry event
/// ([`run_recorded`](Cluster::run_recorded)), or aggregate tallies and
/// sketches only ([`run_stats`](Cluster::run_stats)). Each is
/// byte-deterministic at any `PLANARIA_JOBS`.
pub struct Cluster<P> {
    cfgs: Vec<AcceleratorConfig>,
    policies: Vec<P>,
    dispatcher: ClusterDispatcher,
}

impl<'a> Cluster<SpatialPolicy<'a>> {
    /// `nodes` identical Planaria nodes, each running `engine`'s
    /// Algorithm 1 with private scheduling state.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    pub fn uniform(engine: &'a PlanariaEngine, nodes: usize, policy: DispatchPolicy) -> Self {
        Self::new(
            (0..nodes).map(|_| (engine.library(), engine.spatial_policy())),
            policy,
        )
    }
}

impl<P: EnginePolicy + Send> Cluster<P> {
    /// One node per `(library, policy)` pair, in node order, routed by
    /// `policy`.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is empty.
    pub fn new<'l, N>(nodes: N, policy: DispatchPolicy) -> Self
    where
        N: IntoIterator<Item = (&'l CompiledLibrary, P)>,
    {
        let (libraries, policies): (Vec<&CompiledLibrary>, Vec<P>) = nodes.into_iter().unzip();
        Self {
            cfgs: libraries.iter().map(|lib| *lib.config()).collect(),
            dispatcher: ClusterDispatcher::heterogeneous(&libraries, policy),
            policies,
        }
    }

    /// Serves `requests` (a slice's `iter().copied()` or a lazy
    /// [`TraceStream`](planaria_workload::TraceStream), routed online and
    /// never materialized), keeping every completion.
    ///
    /// # Panics
    ///
    /// Panics if the source yields arrivals out of order or the nodes'
    /// clock frequencies differ.
    pub fn run<I: IntoIterator<Item = Request>>(
        mut self,
        requests: I,
        tuning: &FabricTuning,
    ) -> (SimResult, FabricStats) {
        let sinks = vec![NullCollector; self.policies.len()];
        let (result, stats, _) = run_fabric_with(
            &self.cfgs,
            self.policies,
            requests,
            &mut self.dispatcher,
            tuning,
            &mut NullCollector,
            sinks,
        );
        (result, stats)
    }

    /// [`run`](Self::run) with full telemetry: the fabric's dispatch
    /// decisions, round barriers and load gauges land in
    /// [`ClusterRecording::fabric`], each node's kernel events
    /// (arrivals, exec slices, completions, pod energy) in its own
    /// recorder, keyed by node id.
    ///
    /// # Panics
    ///
    /// As [`run`](Self::run).
    pub fn run_recorded<I: IntoIterator<Item = Request>>(
        mut self,
        requests: I,
        tuning: &FabricTuning,
    ) -> (SimResult, FabricStats, ClusterRecording) {
        let mut rec = ClusterRecording::new();
        let sinks = vec![RecordingCollector::new(); self.policies.len()];
        let (result, stats, sinks) = run_fabric_with(
            &self.cfgs,
            self.policies,
            requests,
            &mut self.dispatcher,
            tuning,
            &mut rec.fabric,
            sinks,
        );
        rec.nodes = (0u32..).zip(sinks).collect();
        (result, stats, rec)
    }

    /// The O(live tenants)-memory run: nodes keep only aggregate tallies
    /// plus streaming sketches, so a 10^6-request run reports p50/p99
    /// latency and QoS satisfaction without a completion vector.
    ///
    /// # Panics
    ///
    /// As [`run`](Self::run).
    pub fn run_stats<I: IntoIterator<Item = Request>>(
        mut self,
        requests: I,
        tuning: &FabricTuning,
    ) -> (ClusterStats, FabricStats) {
        let mut fabric = StatsCollector::new();
        let sinks = vec![StatsCollector::new(); self.policies.len()];
        let (summary, stats, sinks) = run_fabric_summary(
            &self.cfgs,
            self.policies,
            requests,
            &mut self.dispatcher,
            tuning,
            &mut fabric,
            sinks,
        );
        let mut metrics = fabric.report();
        for sink in &sinks {
            metrics.merge(&sink.report());
        }
        (
            ClusterStats {
                completed: summary.completed,
                total_energy: summary.total_energy,
                makespan: summary.makespan,
                metrics,
            },
            stats,
        )
    }
}

/// `Cluster::uniform(engine, nodes, policy).run_stats(requests, tuning)`.
///
/// # Panics
///
/// Panics if `nodes` is zero or the source yields arrivals out of order.
pub fn run_cluster_stats<I: IntoIterator<Item = Request>>(
    engine: &PlanariaEngine,
    nodes: usize,
    requests: I,
    policy: DispatchPolicy,
    tuning: &FabricTuning,
) -> (ClusterStats, FabricStats) {
    Cluster::uniform(engine, nodes, policy).run_stats(requests, tuning)
}

/// The minimum number of nodes achieving the SLA on every probe seed
/// (Fig. 16), up to `max_nodes`; `None` when even `max_nodes` fail.
pub fn min_nodes_for_sla<F>(run: F, max_nodes: usize) -> Option<usize>
where
    F: Fn(usize) -> bool,
{
    (1..=max_nodes).find(|&n| run(n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use planaria_arch::AcceleratorConfig;
    use planaria_workload::{meets_sla, QosLevel, Scenario, TraceConfig};

    fn run(
        e: &PlanariaEngine,
        nodes: usize,
        trace: &[Request],
        policy: DispatchPolicy,
    ) -> SimResult {
        Cluster::uniform(e, nodes, policy)
            .run(trace.iter().copied(), &FabricTuning::default())
            .0
    }

    /// Splits a trace over `nodes` according to `policy` — the offline
    /// projection of the online dispatcher, kept as the routing reference.
    ///
    /// For the open-loop policies (LeastWork, RoundRobin, DnnAffinity) this
    /// is exactly the routing the fabric performs: their decisions depend
    /// only on the arrival stream and dispatcher-local state. The feedback
    /// policies are projected with an empty load snapshot (only the
    /// dispatcher's own routed counts feed back), so the split shows their
    /// no-load balancing behavior.
    fn dispatch(
        engine: &PlanariaEngine,
        nodes: usize,
        trace: &[Request],
        policy: DispatchPolicy,
    ) -> Vec<Vec<Request>> {
        let clock = SimClock::new(
            trace.first().map_or(0.0, |r| r.arrival),
            engine.library().config().freq_hz,
        );
        let mut d = ClusterDispatcher::new(engine.library(), nodes, policy);
        // The projection is over identical nodes; stamp their (uniform)
        // capacity so geometry-reading policies see real values.
        let load0 = NodeLoad {
            subarrays: engine.library().config().num_subarrays(),
            pes: engine.library().config().total_pes(),
            ..NodeLoad::default()
        };
        let mut loads = vec![load0; nodes];
        let mut per_node: Vec<Vec<Request>> = vec![Vec::new(); nodes];
        for r in trace {
            let at = clock.cycles_from_seconds(r.arrival);
            let target = d.route(r, at, &clock, &loads);
            loads[target].routed += 1;
            per_node[target].push(*r);
        }
        per_node
    }

    #[test]
    fn cluster_preserves_all_requests() {
        let e = PlanariaEngine::new(AcceleratorConfig::planaria());
        let trace = TraceConfig::new(Scenario::B, QosLevel::Soft, 300.0, 30, 5).generate();
        let r = run(&e, 3, &trace, DispatchPolicy::LeastWork);
        assert_eq!(r.completions.len(), 30);
    }

    #[test]
    fn every_policy_preserves_all_requests() {
        let e = PlanariaEngine::new(AcceleratorConfig::planaria());
        let trace = TraceConfig::new(Scenario::C, QosLevel::Medium, 250.0, 40, 11).generate();
        for policy in DispatchPolicy::ALL {
            let r = run(&e, 4, &trace, policy);
            assert_eq!(r.completions.len(), 40, "{policy:?}");
            let ids: Vec<u64> = r.completions.iter().map(|c| c.request.id).collect();
            assert!(ids.windows(2).all(|w| w[0] < w[1]), "{policy:?} sorted");
        }
    }

    #[test]
    fn more_nodes_help_under_overload() {
        let e = PlanariaEngine::new(AcceleratorConfig::planaria());
        // Heavy overload of SSD-R requests.
        let trace = TraceConfig::new(Scenario::A, QosLevel::Soft, 120.0, 40, 5).generate();
        let one = run(&e, 1, &trace, DispatchPolicy::LeastWork);
        let four = run(&e, 4, &trace, DispatchPolicy::LeastWork);
        assert!(
            four.completions.iter().map(|c| c.latency()).sum::<f64>()
                < one.completions.iter().map(|c| c.latency()).sum::<f64>()
        );
    }

    #[test]
    fn min_nodes_search_is_monotone_first_true() {
        assert_eq!(min_nodes_for_sla(|n| n >= 3, 8), Some(3));
        assert_eq!(min_nodes_for_sla(|_| false, 4), None);
    }

    #[test]
    fn dispatch_policies_partition_the_trace() {
        let e = PlanariaEngine::new(AcceleratorConfig::planaria());
        let trace = TraceConfig::new(Scenario::C, QosLevel::Soft, 100.0, 45, 4).generate();
        for policy in DispatchPolicy::ALL {
            let split = dispatch(&e, 3, &trace, policy);
            assert_eq!(split.iter().map(Vec::len).sum::<usize>(), 45, "{policy:?}");
        }
        // Affinity really pins networks: every node sees a disjoint set.
        let split = dispatch(&e, 3, &trace, DispatchPolicy::DnnAffinity);
        for (i, node) in split.iter().enumerate() {
            for (j, other) in split.iter().enumerate() {
                if i == j {
                    continue;
                }
                for r in node {
                    assert!(
                        !other.iter().any(|o| o.dnn == r.dnn),
                        "network {} on two nodes",
                        r.dnn
                    );
                }
            }
        }
    }

    #[test]
    fn round_robin_balances_counts() {
        let e = PlanariaEngine::new(AcceleratorConfig::planaria());
        let trace = TraceConfig::new(Scenario::A, QosLevel::Soft, 50.0, 30, 8).generate();
        let split = dispatch(&e, 3, &trace, DispatchPolicy::RoundRobin);
        assert!(split.iter().all(|n| n.len() == 10));
    }

    #[test]
    fn open_loop_dispatch_matches_fabric_routing() {
        // The offline projection and the online fabric must route
        // identically for the open-loop policies: per-node completion
        // counts equal the offline split sizes.
        let e = PlanariaEngine::new(AcceleratorConfig::planaria());
        let trace = TraceConfig::new(Scenario::B, QosLevel::Medium, 200.0, 36, 6).generate();
        for policy in [
            DispatchPolicy::LeastWork,
            DispatchPolicy::RoundRobin,
            DispatchPolicy::DnnAffinity,
        ] {
            let split = dispatch(&e, 3, &trace, policy);
            let fabric = run(&e, 3, &trace, policy);
            assert_eq!(
                fabric.completions.len(),
                split.iter().map(Vec::len).sum::<usize>(),
                "{policy:?}"
            );
            // Every request completes on the node the projection picked:
            // check via per-node id sets.
            for (node, sub) in split.iter().enumerate() {
                for r in sub {
                    assert!(
                        fabric.completions.iter().any(|c| c.request.id == r.id),
                        "{policy:?}: id {} (node {node}) lost",
                        r.id
                    );
                }
            }
        }
    }

    #[test]
    fn single_node_cluster_equals_engine() {
        // Exact equality: one fabric node on the same clock origin must
        // reproduce the engine bit-for-bit — completions, energy and
        // makespan.
        let e = PlanariaEngine::new(AcceleratorConfig::planaria());
        let trace = TraceConfig::new(Scenario::B, QosLevel::Soft, 100.0, 15, 9).generate();
        let direct = e.run(&trace);
        let cluster = run(&e, 1, &trace, DispatchPolicy::LeastWork);
        assert_eq!(direct.completions, cluster.completions);
        assert_eq!(direct.total_energy, cluster.total_energy);
        assert_eq!(direct.makespan.to_bits(), cluster.makespan.to_bits());
        assert!(meets_sla(&direct.completions) == meets_sla(&cluster.completions));
    }

    #[test]
    fn streamed_cluster_equals_materialized() {
        let e = PlanariaEngine::new(AcceleratorConfig::planaria());
        let cfg = TraceConfig::new(Scenario::C, QosLevel::Medium, 300.0, 50, 12);
        let trace = cfg.generate();
        for policy in DispatchPolicy::ALL {
            let mat = run(&e, 3, &trace, policy);
            let (streamed, _) =
                Cluster::uniform(&e, 3, policy).run(cfg.stream(), &FabricTuning::default());
            assert_eq!(mat.completions, streamed.completions, "{policy:?}");
            assert_eq!(mat.total_energy, streamed.total_energy, "{policy:?}");
        }
    }

    #[test]
    fn recorded_cluster_matches_unrecorded_and_captures_per_node_events() {
        let e = PlanariaEngine::new(AcceleratorConfig::planaria());
        let cfg = TraceConfig::new(Scenario::B, QosLevel::Medium, 200.0, 24, 6);
        let trace = cfg.generate();
        let plain = run(&e, 3, &trace, DispatchPolicy::JoinShortestQueue);
        let (rec_result, stats, rec) = Cluster::uniform(&e, 3, DispatchPolicy::JoinShortestQueue)
            .run_recorded(trace.iter().copied(), &FabricTuning::default());
        // Recording changes nothing about scheduling.
        assert_eq!(plain.completions, rec_result.completions);
        assert_eq!(plain.total_energy, rec_result.total_energy);
        assert_eq!(plain.makespan.to_bits(), rec_result.makespan.to_bits());
        assert!(stats.rounds > 0);
        // The fabric recorder saw every dispatch decision; the node
        // recorders saw every completion between them.
        assert_eq!(rec.nodes.len(), 3);
        let merged = rec.merged_report();
        assert_eq!(
            merged.counter(planaria_telemetry::Counter::DispatchDecisions),
            24
        );
        let sketch = merged
            .sketch(planaria_telemetry::Metric::LatencyCycles)
            .expect("latency sketch recorded");
        assert_eq!(sketch.count(), 24);
    }

    #[test]
    fn stats_cluster_matches_materialized_percentiles() {
        let e = PlanariaEngine::new(AcceleratorConfig::planaria());
        let trace = TraceConfig::new(Scenario::C, QosLevel::Soft, 250.0, 40, 9).generate();
        let mat = run(&e, 2, &trace, DispatchPolicy::LeastWork);
        let (cs, _) = Cluster::uniform(&e, 2, DispatchPolicy::LeastWork)
            .run_stats(trace.iter().copied(), &FabricTuning::default());
        assert_eq!(cs.completed, 40);
        assert_eq!(mat.completions.len(), 40);
        assert!((cs.makespan - mat.makespan).abs() < 1e-12);
        // Sketch p99 over-reports by at most 1/32 relative to the exact
        // nearest-rank oracle on the materialized completions.
        let sketch = cs
            .metrics
            .sketch(planaria_telemetry::Metric::LatencyCycles)
            .expect("latency sketch");
        assert_eq!(sketch.count(), 40);
        let clock = SimClock::new(trace[0].arrival, e.library().config().freq_hz);
        let mut lat: Vec<Cycles> = mat
            .completions
            .iter()
            .map(|c| {
                clock
                    .cycles_from_seconds(c.finish)
                    .saturating_sub(clock.cycles_from_seconds(c.request.arrival))
            })
            .collect();
        lat.sort();
        let rank = (lat.len() * 99).div_ceil(100).clamp(1, lat.len());
        let truth = lat[rank - 1].get();
        let got = sketch.value_at_ratio(99, 100).expect("non-empty sketch");
        assert!(
            got >= truth.saturating_sub(2),
            "p99 {got} below oracle {truth}"
        );
        assert!(
            got <= truth + truth / 32 + 2,
            "p99 {got} above bound for {truth}"
        );
    }

    #[test]
    fn qos_aware_splits_tight_from_relaxed() {
        // Hard QoS budgets are tight multiples of the compiled latency,
        // so QosAware must least-load at least some requests; with a
        // huge budget everything round-robins.
        let e = PlanariaEngine::new(AcceleratorConfig::planaria());
        let trace = TraceConfig::new(Scenario::A, QosLevel::Soft, 50.0, 30, 8).generate();
        let relaxed: Vec<Request> = trace.iter().map(|r| Request { qos: 1e3, ..*r }).collect();
        let split = dispatch(&e, 3, &relaxed, DispatchPolicy::QosAware);
        // All relaxed → pure round-robin balance.
        assert!(split.iter().all(|n| n.len() == 10), "relaxed = round-robin");
    }
}
