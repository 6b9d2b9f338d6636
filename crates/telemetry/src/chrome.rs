//! Exporters and occupancy analyses: Chrome trace-event JSON, a TSV
//! occupancy timeline, and the text occupancy strip, reconfiguration
//! count and mean occupancy of `planaria-cli simulate --timeline`.
//!
//! The Chrome format (loadable in Perfetto or `chrome://tracing`) maps
//! the recording onto:
//!
//! * **pid 0 — the chip**: one thread ("track") per subarray pod, each
//!   showing which tenant owned that subarray when (`X` complete events
//!   fanned out from [`Event::ExecSlice`] placement masks), plus an
//!   `occupancy` counter track replayed from allocation events and a
//!   `model` track for timing/compiler events;
//! * **pid `tenant + 1` — one process per tenant**: the request
//!   lifecycle (arrival instant, queued span, exec spans, reconfig and
//!   preemption instants, completion instant).
//!
//! Timestamps are converted from [`Cycles`] to microseconds exactly
//! once, here, using the recording's [`SimMeta`] clock; events are
//! sorted by cycle count (ties broken by recording order) so the output
//! is globally monotonic and byte-deterministic.

use crate::collector::RecordingCollector;
use crate::event::{Event, TimedEvent};
use crate::json::escape;
use planaria_model::units::Cycles;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The chip pseudo-process id.
const CHIP_PID: u64 = 0;
/// Thread id of the chip's model/compiler track.
const MODEL_TID: u64 = 0;
/// Thread id of a tenant's lifecycle track (within its own process).
const LIFE_TID: u64 = 0;

/// Converts a recording into Chrome trace-event JSON.
///
/// The output always validates against
/// [`validate_chrome_trace`](crate::validate_chrome_trace) (the golden
/// tests in `planaria-core` enforce this round trip).
pub fn chrome_trace(rec: &RecordingCollector) -> String {
    let meta = rec.meta();
    let us_val = |c: Cycles| -> f64 { c.as_f64() * 1e6 / meta.freq_hz };
    let us = |c: Cycles| -> String { format!("{:.6}", us_val(c)) };
    // Span durations are derived from the *end* cycle's µs value so that
    // back-to-back spans (end cycle == successor's start cycle) keep
    // `ts + dur == successor ts` up to decimal-formatting rounding (the
    // validator allows exactly that sub-cycle slop).
    let dur_us = |start: Cycles, duration: Cycles| -> String {
        format!("{:.6}", us_val(start + duration) - us_val(start))
    };

    // Metadata: name the chip process, its per-subarray tracks, and one
    // process per tenant (discovered from arrivals).
    let mut head: Vec<String> = Vec::new();
    head.push(meta_event(CHIP_PID, None, "process_name", "chip"));
    head.push(meta_event(
        CHIP_PID,
        Some(MODEL_TID),
        "thread_name",
        "model",
    ));
    for s in 0..meta.total_subarrays {
        head.push(meta_event(
            CHIP_PID,
            Some(u64::from(s) + 1),
            "thread_name",
            &format!("subarray {s:02}"),
        ));
    }
    for te in rec.events() {
        if let Event::Arrival { tenant, dnn } = te.event {
            head.push(meta_event(
                tenant + 1,
                None,
                "process_name",
                &format!("tenant {tenant} ({})", dnn.name()),
            ));
            head.push(meta_event(
                tenant + 1,
                Some(LIFE_TID),
                "thread_name",
                "lifecycle",
            ));
        }
    }

    // Content events, keyed by (start cycles, generation order) so the
    // emitted stream is monotonic in `ts`.
    let mut body: Vec<(Cycles, usize, String)> = Vec::new();
    let push = |body: &mut Vec<(Cycles, usize, String)>, at: Cycles, line: String| {
        let seq = body.len();
        body.push((at, seq, line));
    };
    // Live allocation per tenant, replayed for the occupancy counter.
    let mut live: BTreeMap<u64, u32> = BTreeMap::new();
    for te in rec.events() {
        let ts = te.ts;
        match te.event {
            Event::Arrival { tenant, .. } => {
                let line = format!(
                    "{{\"name\":\"arrival\",\"ph\":\"i\",\"s\":\"p\",\"pid\":{},\"tid\":{LIFE_TID},\"ts\":{}}}",
                    tenant + 1,
                    us(ts)
                );
                push(&mut body, ts, line);
            }
            Event::QueueWait {
                tenant,
                start,
                duration,
            } => {
                let line = format!(
                    "{{\"name\":\"queued\",\"ph\":\"X\",\"pid\":{},\"tid\":{LIFE_TID},\"ts\":{},\"dur\":{},\"args\":{{\"cycles\":{}}}}}",
                    tenant + 1,
                    us(start),
                    dur_us(start, duration),
                    duration.get()
                );
                push(&mut body, start, line);
            }
            Event::Allocation {
                tenant, from, to, ..
            } => {
                let line = format!(
                    "{{\"name\":\"allocation\",\"ph\":\"i\",\"s\":\"t\",\"pid\":{},\"tid\":{LIFE_TID},\"ts\":{},\"args\":{{\"from\":{from},\"to\":{to}}}}}",
                    tenant + 1,
                    us(ts)
                );
                push(&mut body, ts, line);
                replay(&mut live, &te.event);
                let used: u32 = live.values().sum();
                let counter = format!(
                    "{{\"name\":\"occupancy\",\"ph\":\"C\",\"pid\":{CHIP_PID},\"tid\":{MODEL_TID},\"ts\":{},\"args\":{{\"subarrays\":{used}}}}}",
                    us(ts)
                );
                push(&mut body, ts, counter);
            }
            Event::ExecSlice {
                tenant,
                subarrays,
                mask,
                start,
                duration,
            } => {
                let line = format!(
                    "{{\"name\":\"exec x{subarrays}\",\"ph\":\"X\",\"pid\":{},\"tid\":{LIFE_TID},\"ts\":{},\"dur\":{},\"args\":{{\"subarrays\":{subarrays},\"mask\":\"{mask:#x}\"}}}}",
                    tenant + 1,
                    us(start),
                    dur_us(start, duration)
                );
                push(&mut body, start, line);
                // One slice per owned subarray pod on the chip process.
                for s in 0..128u64 {
                    if mask & (1u128 << s) != 0 {
                        let line = format!(
                            "{{\"name\":\"tenant {tenant}\",\"ph\":\"X\",\"pid\":{CHIP_PID},\"tid\":{},\"ts\":{},\"dur\":{}}}",
                            s + 1,
                            us(start),
                            dur_us(start, duration)
                        );
                        push(&mut body, start, line);
                    }
                }
            }
            Event::Reconfig {
                tenant,
                boundary,
                drain,
                checkpoint,
                config_swap,
                refill,
                checkpoint_bytes,
            } => {
                let total = boundary + drain + checkpoint + config_swap + refill;
                let line = format!(
                    "{{\"name\":\"reconfig\",\"ph\":\"i\",\"s\":\"t\",\"pid\":{},\"tid\":{LIFE_TID},\"ts\":{},\"args\":{{\"boundary_cycles\":{},\"drain_cycles\":{},\"checkpoint_cycles\":{},\"config_swap_cycles\":{},\"refill_cycles\":{},\"total_cycles\":{},\"checkpoint_bytes\":{}}}}}",
                    tenant + 1,
                    us(ts),
                    boundary.get(),
                    drain.get(),
                    checkpoint.get(),
                    config_swap.get(),
                    refill.get(),
                    total.get(),
                    checkpoint_bytes.get()
                );
                push(&mut body, ts, line);
            }
            Event::Preemption {
                preempted,
                incoming,
                overhead,
            } => {
                let line = format!(
                    "{{\"name\":\"preempted\",\"ph\":\"i\",\"s\":\"t\",\"pid\":{},\"tid\":{LIFE_TID},\"ts\":{},\"args\":{{\"incoming\":{incoming},\"overhead_cycles\":{}}}}}",
                    preempted + 1,
                    us(ts),
                    overhead.get()
                );
                push(&mut body, ts, line);
            }
            Event::Completion { tenant, latency } => {
                let line = format!(
                    "{{\"name\":\"complete\",\"ph\":\"i\",\"s\":\"p\",\"pid\":{},\"tid\":{LIFE_TID},\"ts\":{},\"args\":{{\"latency_cycles\":{}}}}}",
                    tenant + 1,
                    us(ts),
                    latency.get()
                );
                push(&mut body, ts, line);
                replay(&mut live, &te.event);
                let used: u32 = live.values().sum();
                let counter = format!(
                    "{{\"name\":\"occupancy\",\"ph\":\"C\",\"pid\":{CHIP_PID},\"tid\":{MODEL_TID},\"ts\":{},\"args\":{{\"subarrays\":{used}}}}}",
                    us(ts)
                );
                push(&mut body, ts, counter);
            }
            Event::LayerSlice {
                layer,
                start,
                duration,
                tiles,
                dram_bound,
            } => {
                let line = format!(
                    "{{\"name\":\"layer {layer}\",\"ph\":\"X\",\"pid\":{CHIP_PID},\"tid\":{MODEL_TID},\"ts\":{},\"dur\":{},\"args\":{{\"tiles\":{tiles},\"dram_bound\":{dram_bound}}}}}",
                    us(start),
                    dur_us(start, duration)
                );
                push(&mut body, start, line);
            }
            Event::TableCompiled {
                subarrays,
                layers,
                distinct_shapes,
            } => {
                let line = format!(
                    "{{\"name\":\"table x{subarrays}\",\"ph\":\"i\",\"s\":\"g\",\"pid\":{CHIP_PID},\"tid\":{MODEL_TID},\"ts\":{},\"args\":{{\"layers\":{layers},\"distinct_shapes\":{distinct_shapes}}}}}",
                    us(ts)
                );
                push(&mut body, ts, line);
            }
            // Fabric-level events: when a single recording carries them
            // (the fabric's own collector), they render onto the chip
            // process's model track. The dedicated multi-process cluster
            // layout lives in [`crate::cluster::cluster_chrome_trace`].
            Event::Dispatch {
                tenant,
                node,
                tenants,
                backlog,
                routed,
                ..
            } => {
                let line = format!(
                    "{{\"name\":\"dispatch n{node:02}\",\"ph\":\"i\",\"s\":\"g\",\"pid\":{CHIP_PID},\"tid\":{MODEL_TID},\"ts\":{},\"args\":{{\"tenant\":{tenant},\"node\":{node},\"tenants\":{tenants},\"backlog_cycles\":{},\"routed\":{routed}}}}}",
                    us(ts),
                    backlog.get()
                );
                push(&mut body, ts, line);
            }
            Event::RoundBarrier { seq } => {
                let line = format!(
                    "{{\"name\":\"round_barrier\",\"ph\":\"i\",\"s\":\"g\",\"pid\":{CHIP_PID},\"tid\":{MODEL_TID},\"ts\":{},\"args\":{{\"seq\":{seq}}}}}",
                    us(ts)
                );
                push(&mut body, ts, line);
            }
            Event::NodeGauge {
                node,
                tenants,
                backlog,
            } => {
                let line = format!(
                    "{{\"name\":\"node {node:02} load\",\"ph\":\"C\",\"pid\":{CHIP_PID},\"tid\":{MODEL_TID},\"ts\":{},\"args\":{{\"tenants\":{tenants},\"backlog_cycles\":{}}}}}",
                    us(ts),
                    backlog.get()
                );
                push(&mut body, ts, line);
            }
            Event::PodEnergy { pod, energy } => {
                let line = format!(
                    "{{\"name\":\"pod {pod:02} energy_pj\",\"ph\":\"C\",\"pid\":{CHIP_PID},\"tid\":{MODEL_TID},\"ts\":{},\"args\":{{\"pj\":{}}}}}",
                    us(ts),
                    crate::metrics::fmt_f64(energy.as_pj())
                );
                push(&mut body, ts, line);
            }
        }
    }
    body.sort_by_key(|(at, seq, _)| (*at, *seq));

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

pub(crate) fn meta_event(pid: u64, tid: Option<u64>, kind: &str, name: &str) -> String {
    let mut s = format!("{{\"name\":\"{kind}\",\"ph\":\"M\",\"pid\":{pid}");
    if let Some(tid) = tid {
        let _ = write!(s, ",\"tid\":{tid}");
    }
    let _ = write!(s, ",\"args\":{{\"name\":\"{}\"}}}}", escape(name));
    s
}

/// Renders the chip-occupancy timeline as TSV: one row per allocation
/// change or completion, with exact cycle timestamps and the derived
/// seconds/percent columns.
pub fn occupancy_tsv(rec: &RecordingCollector) -> String {
    let meta = rec.meta();
    let total = meta.total_subarrays.max(1);
    let mut live: BTreeMap<u64, u32> = BTreeMap::new();
    let mut out = String::from("cycles\ttime_s\tused_subarrays\toccupancy_pct\n");
    for te in rec.events() {
        if replay(&mut live, &te.event) {
            let used: u32 = live.values().sum();
            let _ = writeln!(
                out,
                "{}\t{:.9}\t{used}\t{:.2}",
                te.ts.get(),
                te.ts.seconds_at(meta.freq_hz),
                f64::from(used) * 100.0 / f64::from(total)
            );
        }
    }
    out
}

/// The scheduling events the occupancy analyses replay: arrivals,
/// allocation changes and completions. Other kinds (exec slices, pod
/// energy, ...) carry their own timestamps and would stretch the span.
fn occupancy_events(rec: &RecordingCollector) -> impl Iterator<Item = &TimedEvent> {
    rec.events().iter().filter(|te| {
        matches!(
            te.event,
            Event::Arrival { .. } | Event::Allocation { .. } | Event::Completion { .. }
        )
    })
}

/// Replays one event into the live per-tenant allocation map (a queued
/// tenant, `to == 0`, holds nothing). Returns whether occupancy may have
/// changed: on every allocation change, and on the completion of a
/// tenant that held subarrays.
fn replay(live: &mut BTreeMap<u64, u32>, event: &Event) -> bool {
    match *event {
        Event::Allocation { tenant, to: 0, .. } => {
            live.remove(&tenant);
            true
        }
        Event::Allocation { tenant, to, .. } => {
            live.insert(tenant, to);
            true
        }
        Event::Completion { tenant, .. } => live.remove(&tenant).is_some(),
        _ => false,
    }
}

/// Number of allocation changes that resized or preempted a *running*
/// tenant (`from > 0` and `from != to`). Unlike
/// [`Counter::Reconfigurations`](crate::Counter::Reconfigurations),
/// which counts only the resizes that paid the §IV-C cost, this counts
/// every such change the scheduler made.
pub fn reconfigurations(rec: &RecordingCollector) -> usize {
    rec.events()
        .iter()
        .filter(
            |te| matches!(te.event, Event::Allocation { from, to, .. } if from > 0 && from != to),
        )
        .count()
}

/// Time-weighted mean chip occupancy (allocated subarrays / total) from
/// the first to the last arrival, allocation change or completion.
pub fn mean_occupancy(rec: &RecordingCollector) -> f64 {
    let total = f64::from(rec.meta().total_subarrays.max(1));
    let mut live: BTreeMap<u64, u32> = BTreeMap::new();
    let mut last_t: Option<Cycles> = None;
    let mut acc = 0.0;
    let mut span = 0.0;
    for te in occupancy_events(rec) {
        if let Some(prev) = last_t {
            let dt = te.ts.saturating_sub(prev).as_f64();
            let used: u32 = live.values().sum();
            acc += dt * f64::from(used) / total;
            span += dt;
        }
        last_t = Some(te.ts);
        replay(&mut live, &te.event);
    }
    if span > 0.0 {
        acc / span
    } else {
        0.0
    }
}

/// Renders a coarse text strip of chip occupancy: `buckets` columns,
/// each the occupancy decile (0-9) sampled mid-column, prefixed by the
/// span's bounds in seconds.
pub fn render_occupancy(rec: &RecordingCollector, buckets: usize) -> String {
    let events: Vec<&TimedEvent> = occupancy_events(rec).collect();
    let (c0, c1) = match (events.first(), events.last()) {
        (Some(first), Some(last)) if buckets > 0 => (first.ts, last.ts),
        _ => return String::from("(empty trace)"),
    };
    let meta = rec.meta();
    let span = (c1.as_f64() - c0.as_f64()).max(1e-12);
    let mut live: BTreeMap<u64, u32> = BTreeMap::new();
    let mut pending = events.iter().peekable();
    let freq = if meta.freq_hz > 0.0 {
        meta.freq_hz
    } else {
        1.0
    };
    let mut out = format!(
        "occupancy [{:.4}s..{:.4}s] ",
        c0.seconds_at(freq),
        c1.seconds_at(freq)
    );
    for b in 0..buckets {
        let t = c0.as_f64() + span * (b as f64 + 0.5) / buckets as f64;
        while let Some(te) = pending.next_if(|te| te.ts.as_f64() <= t) {
            replay(&mut live, &te.event);
        }
        let used: u32 = live.values().sum();
        let decile = (u64::from(used) * 9 / u64::from(meta.total_subarrays.max(1))).min(9);
        let _ = write!(out, "{decile}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::Collector;
    use crate::event::SimMeta;
    use planaria_model::units::Bytes;
    use planaria_model::DnnId;

    fn demo_recording() -> RecordingCollector {
        let mut c = RecordingCollector::new();
        c.set_meta(SimMeta {
            freq_hz: 1e6, // 1 cycle == 1 µs, keeps expectations readable
            total_subarrays: 4,
        });
        c.record(
            Cycles::ZERO,
            Event::Arrival {
                tenant: 0,
                dnn: DnnId::ResNet50,
            },
        );
        c.record(
            Cycles::ZERO,
            Event::Allocation {
                tenant: 0,
                from: 0,
                to: 4,
                mask: 0b1111,
            },
        );
        c.record(
            Cycles::ZERO,
            Event::QueueWait {
                tenant: 0,
                start: Cycles::ZERO,
                duration: Cycles::ZERO,
            },
        );
        c.record(
            Cycles::new(100),
            Event::Reconfig {
                tenant: 0,
                boundary: Cycles::new(3),
                drain: Cycles::new(4),
                checkpoint: Cycles::new(5),
                config_swap: Cycles::new(6),
                refill: Cycles::new(7),
                checkpoint_bytes: Bytes::new(1024),
            },
        );
        c.record(
            Cycles::new(100),
            Event::ExecSlice {
                tenant: 0,
                subarrays: 4,
                mask: 0b1111,
                start: Cycles::ZERO,
                duration: Cycles::new(100),
            },
        );
        c.record(
            Cycles::new(200),
            Event::Completion {
                tenant: 0,
                latency: Cycles::new(200),
            },
        );
        c
    }

    /// Two tenants sharing a 16-subarray chip at 1 Hz (one cycle == one
    /// second keeps expectations readable), plus a late exec slice that
    /// the occupancy analyses must ignore.
    fn occupancy_recording() -> RecordingCollector {
        let mut c = RecordingCollector::new();
        c.set_meta(SimMeta {
            freq_hz: 1.0,
            total_subarrays: 16,
        });
        let events = [
            (
                0,
                Event::Arrival {
                    tenant: 0,
                    dnn: DnnId::ResNet50,
                },
            ),
            (
                0,
                Event::Allocation {
                    tenant: 0,
                    from: 0,
                    to: 16,
                    mask: 0xffff,
                },
            ),
            (
                1,
                Event::Arrival {
                    tenant: 1,
                    dnn: DnnId::Gnmt,
                },
            ),
            (
                1,
                Event::Allocation {
                    tenant: 0,
                    from: 16,
                    to: 8,
                    mask: 0xff,
                },
            ),
            (
                1,
                Event::Allocation {
                    tenant: 1,
                    from: 0,
                    to: 8,
                    mask: 0xff00,
                },
            ),
            (
                2,
                Event::Completion {
                    tenant: 0,
                    latency: Cycles::new(2),
                },
            ),
            (
                3,
                Event::Completion {
                    tenant: 1,
                    latency: Cycles::new(2),
                },
            ),
            (
                9,
                Event::ExecSlice {
                    tenant: 1,
                    subarrays: 8,
                    mask: 0xff00,
                    start: Cycles::new(1),
                    duration: Cycles::new(8),
                },
            ),
        ];
        for (ts, event) in events {
            c.record(Cycles::new(ts), event);
        }
        c
    }

    #[test]
    fn reconfigurations_count_running_resizes_only() {
        // Only tenant 0's 16 -> 8 resize is a reconfiguration; initial
        // grants from 0 are fresh starts.
        assert_eq!(reconfigurations(&occupancy_recording()), 1);
    }

    #[test]
    fn occupancy_accounts_time_weighted() {
        // [0,1): 16/16; [1,2): 16/16 (8+8); [2,3): 8/16 → mean = 5/6.
        let occ = mean_occupancy(&occupancy_recording());
        assert!((occ - (1.0 + 1.0 + 0.5) / 3.0).abs() < 1e-9, "got {occ}");
    }

    #[test]
    fn timeline_renders_with_requested_width() {
        let s = render_occupancy(&occupancy_recording(), 10);
        assert!(s.starts_with("occupancy [0.0000s..3.0000s] "), "{s}");
        let digits: String = s.chars().rev().take(10).collect();
        assert!(digits.chars().all(|c| c.is_ascii_digit()));
    }

    #[test]
    fn empty_trace_renders_placeholder() {
        let empty = RecordingCollector::new();
        assert_eq!(render_occupancy(&empty, 8), "(empty trace)");
        assert_eq!(render_occupancy(&occupancy_recording(), 0), "(empty trace)");
        assert_eq!(mean_occupancy(&empty), 0.0);
    }

    #[test]
    fn export_validates_and_contains_tracks() {
        let rec = demo_recording();
        let json = chrome_trace(&rec);
        let stats = crate::validate::validate_chrome_trace(&json).expect("valid trace");
        assert!(stats.events > 0);
        assert!(stats.complete >= 5, "exec slice fans out to 4 pods + life");
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("tenant 0 (ResNet-50)"));
        assert!(json.contains("subarray 00"));
        assert!(json.contains("occupancy"));
    }

    #[test]
    fn export_is_deterministic() {
        let rec = demo_recording();
        assert_eq!(chrome_trace(&rec), chrome_trace(&rec));
    }

    #[test]
    fn occupancy_tsv_replays_allocations() {
        let rec = demo_recording();
        let tsv = occupancy_tsv(&rec);
        let lines: Vec<&str> = tsv.lines().collect();
        assert_eq!(lines[0], "cycles\ttime_s\tused_subarrays\toccupancy_pct");
        // Allocation to 4/4 then completion back to 0.
        assert!(lines[1].starts_with("0\t"));
        assert!(lines[1].ends_with("4\t100.00"));
        assert!(lines[2].ends_with("0\t0.00"));
    }
}
