//! Cluster-wide recordings and the multi-process Chrome trace layout.
//!
//! A fabric run produces one recording per node plus one for the fabric
//! itself (dispatch decisions, round barriers, load gauges). This module
//! holds them together ([`ClusterRecording`]), merges their metrics
//! deterministically (node-id order, commutative bucket sums), and
//! renders the whole cluster as one Chrome trace:
//!
//! * **pid 0 — the fabric**: dispatch instants, round-barrier instants,
//!   and per-node `node NN tenants` / `node NN backlog` counter tracks
//!   replayed from [`Event::NodeGauge`];
//! * **pid `node + 1` — one process per node**: per-subarray ownership
//!   spans fanned out from [`Event::ExecSlice`] masks, an `occupancy`
//!   counter replayed from allocations/completions, arrival/completion
//!   instants, and nested `pod NN energy_pj` counter tracks from
//!   [`Event::PodEnergy`].
//!
//! All nodes share the fabric's arrival clock, but may run at different
//! frequencies (heterogeneous fleets), so events are merged by their
//! *rendered* microsecond timestamps — `f64::total_cmp`, ties broken by
//! deterministic push order — keeping the output globally monotonic and
//! byte-deterministic.

use crate::chrome::meta_event;
use crate::collector::RecordingCollector;
use crate::event::Event;
use crate::metrics::{fmt_f64, MetricsReport};
use planaria_model::units::Cycles;
use std::collections::BTreeMap;

/// The fabric pseudo-process id (nodes are `node + 1`).
const FABRIC_PID: u64 = 0;
/// Thread id of a process's primary track.
const MAIN_TID: u64 = 0;

/// Per-node recordings plus the fabric's own, merged deterministically.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ClusterRecording {
    /// The fabric collector: dispatch decisions, round barriers, gauges.
    pub fabric: RecordingCollector,
    /// Per-node collectors, keyed by node id (deterministic order).
    pub nodes: BTreeMap<u32, RecordingCollector>,
}

impl ClusterRecording {
    /// An empty cluster recording.
    pub fn new() -> Self {
        Self::default()
    }

    /// The metrics of one node, if it recorded anything.
    pub fn node_report(&self, node: u32) -> Option<MetricsReport> {
        self.nodes.get(&node).map(RecordingCollector::report)
    }

    /// Fabric plus all node metrics merged in node-id order. Merging is
    /// commutative enum-ordered bucket-wise sums, so the result is
    /// byte-deterministic at any `PLANARIA_JOBS`.
    pub fn merged_report(&self) -> MetricsReport {
        let mut out = self.fabric.report();
        for rec in self.nodes.values() {
            out.merge(&rec.report());
        }
        out
    }

    /// Total events recorded across the fabric and all nodes.
    pub fn len(&self) -> usize {
        self.fabric.len()
            + self
                .nodes
                .values()
                .map(RecordingCollector::len)
                .sum::<usize>()
    }

    /// Whether nothing was recorded anywhere.
    pub fn is_empty(&self) -> bool {
        self.fabric.is_empty() && self.nodes.values().all(RecordingCollector::is_empty)
    }
}

/// Converts a cluster recording into multi-process Chrome trace JSON
/// (see the module docs for the layout). Always validates against
/// [`validate_chrome_trace`](crate::validate_chrome_trace).
pub fn cluster_chrome_trace(rec: &ClusterRecording) -> String {
    let mut head: Vec<String> = Vec::new();
    head.push(meta_event(FABRIC_PID, None, "process_name", "fabric"));
    head.push(meta_event(
        FABRIC_PID,
        Some(MAIN_TID),
        "thread_name",
        "dispatch",
    ));
    for (node, nrec) in &rec.nodes {
        let pid = u64::from(*node) + 1;
        head.push(meta_event(
            pid,
            None,
            "process_name",
            &format!("node {node:02}"),
        ));
        head.push(meta_event(pid, Some(MAIN_TID), "thread_name", "chip"));
        for s in 0..nrec.meta().total_subarrays {
            head.push(meta_event(
                pid,
                Some(u64::from(s) + 1),
                "thread_name",
                &format!("subarray {s:02}"),
            ));
        }
    }

    // Body events keyed by (rendered µs, push order): heterogeneous
    // fleets may run nodes at different frequencies, so global
    // monotonicity is established in the rendered time domain.
    let mut body: Vec<(f64, usize, String)> = Vec::new();
    let push = |body: &mut Vec<(f64, usize, String)>, at: f64, line: String| {
        let seq = body.len();
        body.push((at, seq, line));
    };

    let fabric_freq = rec.fabric.meta().freq_hz;
    let us_at = |c: Cycles, freq: f64| -> f64 { c.as_f64() * 1e6 / freq };
    for te in rec.fabric.events() {
        let at = us_at(te.ts, fabric_freq);
        match te.event {
            Event::Dispatch {
                tenant,
                node,
                tenants,
                backlog,
                routed,
                ..
            } => {
                let line = format!(
                    "{{\"name\":\"dispatch n{node:02}\",\"ph\":\"i\",\"s\":\"g\",\"pid\":{FABRIC_PID},\"tid\":{MAIN_TID},\"ts\":{at:.6},\"args\":{{\"tenant\":{tenant},\"node\":{node},\"tenants\":{tenants},\"backlog_cycles\":{},\"routed\":{routed}}}}}",
                    backlog.get()
                );
                push(&mut body, at, line);
            }
            Event::RoundBarrier { seq } => {
                let line = format!(
                    "{{\"name\":\"round_barrier\",\"ph\":\"i\",\"s\":\"g\",\"pid\":{FABRIC_PID},\"tid\":{MAIN_TID},\"ts\":{at:.6},\"args\":{{\"seq\":{seq}}}}}"
                );
                push(&mut body, at, line);
            }
            Event::NodeGauge {
                node,
                tenants,
                backlog,
            } => {
                let t = format!(
                    "{{\"name\":\"node {node:02} tenants\",\"ph\":\"C\",\"pid\":{FABRIC_PID},\"tid\":{MAIN_TID},\"ts\":{at:.6},\"args\":{{\"tenants\":{tenants}}}}}"
                );
                push(&mut body, at, t);
                let b = format!(
                    "{{\"name\":\"node {node:02} backlog\",\"ph\":\"C\",\"pid\":{FABRIC_PID},\"tid\":{MAIN_TID},\"ts\":{at:.6},\"args\":{{\"backlog_cycles\":{}}}}}",
                    backlog.get()
                );
                push(&mut body, at, b);
            }
            _ => {}
        }
    }

    for (node, nrec) in &rec.nodes {
        let pid = u64::from(*node) + 1;
        let freq = nrec.meta().freq_hz;
        // Live allocation per tenant, replayed for the node's occupancy
        // counter track.
        let mut live: BTreeMap<u64, u32> = BTreeMap::new();
        let occupancy = |live: &BTreeMap<u64, u32>, at: f64| -> String {
            let used: u32 = live.values().sum();
            format!(
                "{{\"name\":\"occupancy\",\"ph\":\"C\",\"pid\":{pid},\"tid\":{MAIN_TID},\"ts\":{at:.6},\"args\":{{\"subarrays\":{used}}}}}"
            )
        };
        for te in nrec.events() {
            let at = us_at(te.ts, freq);
            match te.event {
                Event::Arrival { tenant, .. } => {
                    let line = format!(
                        "{{\"name\":\"arrival\",\"ph\":\"i\",\"s\":\"t\",\"pid\":{pid},\"tid\":{MAIN_TID},\"ts\":{at:.6},\"args\":{{\"tenant\":{tenant}}}}}"
                    );
                    push(&mut body, at, line);
                }
                Event::Allocation { tenant, to, .. } => {
                    if to == 0 {
                        live.remove(&tenant);
                    } else {
                        live.insert(tenant, to);
                    }
                    push(&mut body, at, occupancy(&live, at));
                }
                Event::ExecSlice {
                    mask,
                    start,
                    duration,
                    tenant,
                    ..
                } => {
                    let s_at = us_at(start, freq);
                    let dur = us_at(start + duration, freq) - s_at;
                    // One ownership span per held subarray track.
                    for s in 0..128u64 {
                        if mask & (1u128 << s) != 0 {
                            let line = format!(
                                "{{\"name\":\"tenant {tenant}\",\"ph\":\"X\",\"pid\":{pid},\"tid\":{},\"ts\":{s_at:.6},\"dur\":{dur:.6}}}",
                                s + 1
                            );
                            push(&mut body, s_at, line);
                        }
                    }
                }
                Event::Completion { tenant, latency } => {
                    let line = format!(
                        "{{\"name\":\"complete\",\"ph\":\"i\",\"s\":\"t\",\"pid\":{pid},\"tid\":{MAIN_TID},\"ts\":{at:.6},\"args\":{{\"tenant\":{tenant},\"latency_cycles\":{}}}}}",
                        latency.get()
                    );
                    push(&mut body, at, line);
                    if live.remove(&tenant).is_some() {
                        push(&mut body, at, occupancy(&live, at));
                    }
                }
                Event::PodEnergy { pod, energy } => {
                    let line = format!(
                        "{{\"name\":\"pod {pod:02} energy_pj\",\"ph\":\"C\",\"pid\":{pid},\"tid\":{MAIN_TID},\"ts\":{at:.6},\"args\":{{\"pj\":{}}}}}",
                        fmt_f64(energy.as_pj())
                    );
                    push(&mut body, at, line);
                }
                Event::Preemption {
                    preempted,
                    incoming,
                    overhead,
                } => {
                    let line = format!(
                        "{{\"name\":\"preempted\",\"ph\":\"i\",\"s\":\"t\",\"pid\":{pid},\"tid\":{MAIN_TID},\"ts\":{at:.6},\"args\":{{\"preempted\":{preempted},\"incoming\":{incoming},\"overhead_cycles\":{}}}}}",
                        overhead.get()
                    );
                    push(&mut body, at, line);
                }
                // Queue waits, layer slices, and compiler events stay in
                // the single-node exporter; reconfig details likewise.
                _ => {}
            }
        }
    }

    body.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));

    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    for line in head.iter().chain(body.iter().map(|(_, _, l)| l)) {
        if !first {
            out.push(',');
        }
        first = false;
        out.push('\n');
        out.push_str(line);
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::Collector;
    use crate::event::SimMeta;
    use crate::metrics::{Counter, Metric};
    use planaria_model::units::Picojoules;
    use planaria_model::DnnId;

    fn demo_cluster() -> ClusterRecording {
        let mut rec = ClusterRecording::new();
        rec.fabric.set_meta(SimMeta {
            freq_hz: 1e6,
            total_subarrays: 0,
        });
        rec.fabric.record(
            Cycles::ZERO,
            Event::Dispatch {
                tenant: 0,
                dnn: DnnId::ResNet50,
                node: 0,
                tenants: 0,
                backlog: Cycles::ZERO,
                routed: 1,
            },
        );
        rec.fabric.add(Counter::DispatchDecisions, 1);
        rec.fabric.record(
            Cycles::new(50),
            Event::NodeGauge {
                node: 0,
                tenants: 1,
                backlog: Cycles::new(150),
            },
        );
        rec.fabric
            .record(Cycles::new(50), Event::RoundBarrier { seq: 1 });
        rec.fabric.add(Counter::FabricRounds, 1);

        let mut node = RecordingCollector::new();
        node.set_meta(SimMeta {
            freq_hz: 1e6,
            total_subarrays: 4,
        });
        node.record(
            Cycles::ZERO,
            Event::Arrival {
                tenant: 0,
                dnn: DnnId::ResNet50,
            },
        );
        node.record(
            Cycles::ZERO,
            Event::Allocation {
                tenant: 0,
                from: 0,
                to: 4,
                mask: 0b1111,
            },
        );
        node.record(
            Cycles::new(100),
            Event::PodEnergy {
                pod: 0,
                energy: Picojoules::new(12.5),
            },
        );
        node.record(
            Cycles::new(200),
            Event::ExecSlice {
                tenant: 0,
                subarrays: 4,
                mask: 0b1111,
                start: Cycles::ZERO,
                duration: Cycles::new(200),
            },
        );
        node.record(
            Cycles::new(200),
            Event::Completion {
                tenant: 0,
                latency: Cycles::new(200),
            },
        );
        node.observe(Metric::LatencyCycles, 200);
        node.add(Counter::Completions, 1);
        rec.nodes.insert(0, node);
        rec
    }

    #[test]
    fn cluster_trace_validates_with_node_and_pod_tracks() {
        let rec = demo_cluster();
        let json = cluster_chrome_trace(&rec);
        let stats = crate::validate::validate_chrome_trace(&json).expect("valid cluster trace");
        assert!(stats.events > 0);
        assert!(stats.processes >= 2, "fabric + one node process");
        assert!(stats.counters >= 4, "gauge + occupancy + pod energy");
        assert!(json.contains("\"fabric\""));
        assert!(json.contains("node 00"));
        assert!(json.contains("dispatch n00"));
        assert!(json.contains("round_barrier"));
        assert!(json.contains("node 00 backlog"));
        assert!(json.contains("pod 00 energy_pj"));
        // Deterministic bytes.
        assert_eq!(json, cluster_chrome_trace(&rec));
    }

    #[test]
    fn merged_report_combines_fabric_and_nodes() {
        let rec = demo_cluster();
        let merged = rec.merged_report();
        assert_eq!(merged.counter(Counter::DispatchDecisions), 1);
        assert_eq!(merged.counter(Counter::FabricRounds), 1);
        assert_eq!(merged.counter(Counter::Completions), 1);
        assert_eq!(
            merged.sketch(Metric::LatencyCycles).map(|s| s.count()),
            Some(1)
        );
        assert_eq!(rec.len(), 8, "3 fabric + 5 node events");
        assert!(!rec.is_empty());
        let node = rec.node_report(0).expect("node 0 recorded");
        assert_eq!(node.counter(Counter::Completions), 1);
        assert_eq!(rec.node_report(7), None);
    }
}
