//! Property-style tests (deterministic, `SplitMix64`-driven) on the core
//! data structures and model invariants: timing monotonicity, scheduler
//! resource conservation, fission-shape algebra, and configuration-register
//! round-trips.

use planaria::arch::subarray::ConfigWord;
use planaria::arch::{AcceleratorConfig, Allocation, Arrangement, Chip, GeometryBuilder};
use planaria::compiler::compile;
use planaria::core::{min_slack_cycles, schedule_tasks_spatially, SchedTask};
use planaria::model::{ConvSpec, DnnBuilder, Domain, GemmShape, LayerOp, MatMulSpec};
use planaria::timing::{time_layer, ExecContext};
use planaria::SplitMix64;
use std::sync::OnceLock;

const CASES: usize = 64;

fn cfg() -> AcceleratorConfig {
    AcceleratorConfig::planaria()
}

/// Every ordered factorization of `s` is enumerated, exactly once, and
/// consumes exactly `s` subarrays.
#[test]
fn arrangement_enumeration_is_exact() {
    for s in 1u32..=16 {
        let all = Arrangement::enumerate(s);
        for a in &all {
            assert_eq!(a.subarrays(), s);
        }
        let mut dedup = all.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len());
        // Cross-check the count against a brute-force triple loop.
        let mut brute = 0;
        for g in 1..=s {
            for r in 1..=s {
                for c in 1..=s {
                    if g * r * c == s {
                        brute += 1;
                    }
                }
            }
        }
        assert_eq!(all.len(), brute);
    }
}

/// The 6-bit configuration word round-trips for all values and fanout
/// never exceeds four links.
#[test]
fn config_word_roundtrip() {
    for bits in 0u8..64 {
        let w = ConfigWord::decode(bits);
        assert_eq!(w.encode(), bits);
        assert!(w.fanout() <= 4);
    }
}

/// GEMM timing: cycles are positive, MAC count is preserved, and
/// utilization never exceeds 1.
#[test]
fn gemm_timing_sane() {
    let mut rng = SplitMix64::new(0x9e3a_11);
    let ctx = ExecContext::full_chip(&cfg());
    let arrs = Arrangement::enumerate(16);
    for case in 0..CASES {
        let m = rng.next_range(1, 4095);
        let k = rng.next_range(1, 2047);
        let n = rng.next_range(1, 2047);
        let arr = arrs[rng.next_below(arrs.len() as u64) as usize];
        let op = LayerOp::MatMul(MatMulSpec::new(m, k, n));
        let t = time_layer(&ctx, &op, arr);
        assert!(!t.cycles.is_zero(), "case {case}");
        assert_eq!(
            t.counts.mac_ops,
            GemmShape::new(m, k, n).macs(),
            "case {case}"
        );
        assert!(
            t.utilization <= 1.0 + 1e-9,
            "case {case}: util {}",
            t.utilization
        );
        assert!(t.tiles >= 1, "case {case}");
        assert!(t.cycles_per_tile.get() >= 1, "case {case}");
    }
}

/// More compute never hurts: doubling both cluster-grid dimensions of a
/// GEMM's arrangement never increases cycle count.
#[test]
fn bigger_arrays_never_slower() {
    let mut rng = SplitMix64::new(0xb16a_44);
    let ctx = ExecContext::full_chip(&cfg());
    for case in 0..CASES {
        let m = rng.next_range(64, 4095);
        let k = rng.next_range(16, 1023);
        let n = rng.next_range(16, 1023);
        let op = LayerOp::MatMul(MatMulSpec::new(m, k, n));
        let small = time_layer(&ctx, &op, Arrangement::new(1, 1, 1));
        let big = time_layer(&ctx, &op, Arrangement::new(1, 2, 2));
        // Allow fill-latency noise on tiny workloads.
        assert!(
            big.cycles.get() <= small.cycles.get() + 256,
            "case {case}: 2x2 ({}) slower than 1x1 ({})",
            big.cycles,
            small.cycles
        );
    }
}

/// The spatial scheduler never allocates more subarrays than exist, never
/// allocates zero to everyone when the chip is free, and is deterministic.
#[test]
fn scheduler_conserves_resources() {
    static COMPILED: OnceLock<planaria::compiler::CompiledDnn> = OnceLock::new();
    let compiled = COMPILED.get_or_init(|| {
        let mut b = DnnBuilder::new("prop-net", Domain::ImageClassification);
        b.push(
            "c1",
            LayerOp::Conv(ConvSpec::new(32, 64, 3, 3, 1, 1, 56, 56)),
        );
        b.push(
            "c2",
            LayerOp::Conv(ConvSpec::new(64, 64, 3, 3, 2, 1, 56, 56)),
        );
        compile(&cfg(), &b.build())
    });
    let mut rng = SplitMix64::new(0x5c4e_d0);
    for case in 0..CASES {
        let n = rng.next_range(1, 5) as usize;
        let tasks: Vec<SchedTask> = (0..n)
            .map(|_| SchedTask {
                priority: rng.next_range(1, 11) as u32,
                // 0.1–50 ms of slack, expressed in 700 MHz cycles.
                slack: rng.next_range(1, 500) as i64 * 70_000,
                done: rng.next_f64() * 0.99,
                compiled,
            })
            .collect();
        let alloc = schedule_tasks_spatially(&tasks, 16, min_slack_cycles(cfg().freq_hz));
        assert_eq!(alloc.len(), tasks.len(), "case {case}");
        assert!(alloc.iter().sum::<u32>() <= 16, "case {case}");
        assert!(
            alloc.iter().any(|&a| a > 0),
            "case {case}: someone must run"
        );
        let again = schedule_tasks_spatially(&tasks, 16, min_slack_cycles(cfg().freq_hz));
        assert_eq!(alloc, again, "case {case}");
    }
}

/// Chip placement: place/release round-trips restore the free count and
/// placements never overlap.
#[test]
fn chip_placement_is_consistent() {
    let mut rng = SplitMix64::new(0x91ace);
    for case in 0..CASES {
        let mut chip = Chip::new(cfg());
        let mut placed = Vec::new();
        let tenants = rng.next_range(1, 5) as usize;
        for tenant in 0..tenants {
            let s = rng.next_range(1, 5) as u32;
            if let Some(a) = chip.place(s) {
                placed.push((tenant as u64, a));
            }
        }
        // No subarray owned by two tenants.
        let mut owned: Vec<u32> = placed
            .iter()
            .flat_map(|(_, a)| a.subarrays().map(|s| s.0))
            .collect();
        let before = owned.len();
        owned.sort_unstable();
        owned.dedup();
        assert_eq!(owned.len(), before, "case {case}: overlapping placements");
        // Release everything: chip is whole again.
        for (t, a) in &placed {
            assert_eq!(chip.release(*a), a.len(), "case {case}, tenant {t}");
        }
        assert_eq!(chip.free(), 16, "case {case}");
    }
}

/// A per-subarray first-fit model of the ring: the placement rule the
/// bitmask `Chip` must reproduce segment for segment.
struct NaiveRing {
    busy: Vec<bool>,
}

impl NaiveRing {
    fn total(&self) -> u32 {
        self.busy.len() as u32
    }

    fn is_free(&self, start: u32, count: u32) -> bool {
        (0..count).all(|i| !self.busy[((start + i) % self.total()) as usize])
    }

    fn set(&mut self, a: Allocation, busy: bool) {
        for id in a.subarrays() {
            self.busy[id.0 as usize] = busy;
        }
    }

    fn place(&mut self, count: u32) -> Option<Allocation> {
        let n = self.total();
        if count == 0 || count > n {
            return None;
        }
        let start = (0..n).find(|&s| self.is_free(s, count))?;
        let a = Allocation::contiguous(start, count, n);
        self.set(a, true);
        Some(a)
    }

    fn claim(&mut self, a: Allocation) -> bool {
        let (start, count) = (a.subarrays().next().unwrap().0, a.len());
        let ok = self.is_free(start, count);
        if ok {
            self.set(a, true);
        }
        ok
    }
}

/// Bitmask placement: over random place/claim/release sequences the
/// `Chip` returns exactly the segment a per-subarray first-fit scan
/// would, on 16-, 64- and 128-granule rings (wrap-around across the top
/// bit and whole-chip requests included).
#[test]
fn bitmask_placement_matches_naive_first_fit() {
    let wide = GeometryBuilder::new()
        .pe_array(128, 256)
        .subarray_dim(16)
        .pods(16)
        .build()
        .unwrap();
    let mut rng = SplitMix64::new(0x0b17_0a5c);
    for geometry in [cfg(), AcceleratorConfig::with_granularity(16), wide] {
        let n = geometry.num_subarrays();
        for case in 0..CASES {
            let mut chip = Chip::new(geometry);
            let mut ring = NaiveRing {
                busy: vec![false; n as usize],
            };
            let mut held: Vec<Allocation> = Vec::new();
            for step in 0..64 {
                let ctx = format!("n={n} case {case} step {step}");
                match rng.next_below(4) {
                    0 | 1 => {
                        // Mostly small requests, sometimes the whole chip.
                        let count = if rng.next_below(8) == 0 {
                            n
                        } else {
                            rng.next_range(1, u64::from(n / 4)) as u32
                        };
                        let got = chip.place(count);
                        assert_eq!(got, ring.place(count), "{ctx}: place {count}");
                        held.extend(got);
                    }
                    2 => {
                        // Start anywhere, so segments wrap past the top bit.
                        let start = rng.next_below(u64::from(n)) as u32;
                        let count = rng.next_range(1, u64::from(n / 2)) as u32;
                        let a = Allocation::contiguous(start, count, n);
                        let ok = chip.claim(a);
                        assert_eq!(ok, ring.claim(a), "{ctx}: claim {a:?}");
                        if ok {
                            held.push(a);
                        }
                    }
                    _ => {
                        if !held.is_empty() {
                            let a = held.swap_remove(rng.next_below(held.len() as u64) as usize);
                            assert_eq!(chip.release(a), a.len(), "{ctx}: release {a:?}");
                            ring.set(a, false);
                        }
                    }
                }
                let free = ring.busy.iter().filter(|b| !**b).count() as u32;
                assert_eq!(chip.free(), free, "{ctx}: free count");
            }
        }
        // Deterministic wrap: with only the ring's two ends free, the
        // first fit is the segment that crosses the top bit.
        let mut chip = Chip::new(geometry);
        assert!(chip.claim(Allocation::contiguous(4, n - 8, n)));
        let wrap = chip.place(8).expect("the ends form one free run");
        assert_eq!(wrap, Allocation::contiguous(n - 4, 8, n));
        assert_eq!(wrap.mask(), (0b1111 << (n - 4)) | 0b1111);
        // Whole-chip request on an empty ring.
        chip.reset();
        let all = chip.place(n).expect("an empty ring holds the whole chip");
        assert_eq!(all, Allocation::contiguous(0, n, n));
        assert_eq!(chip.free(), 0);
    }
}

/// Conv output geometry: output dims never exceed input dims (stride >= 1,
/// same-or-valid padding) and the GEMM view is consistent.
#[test]
fn conv_geometry() {
    let mut rng = SplitMix64::new(0xc0_47e0);
    const KERNELS: [u64; 4] = [1, 3, 5, 7];
    for case in 0..CASES {
        let in_ch = rng.next_range(1, 63);
        let out_ch = rng.next_range(1, 63);
        let k = KERNELS[rng.next_below(4) as usize];
        let stride = rng.next_range(1, 2);
        let hw = rng.next_range(8, 63);
        let pad = k / 2;
        let c = ConvSpec::new(in_ch, out_ch, k, k, stride, pad, hw, hw);
        assert!(c.out_h() <= hw, "case {case}");
        let g = c.gemm();
        assert_eq!(g.m, c.out_h() * c.out_w(), "case {case}");
        assert_eq!(g.k, in_ch * k * k, "case {case}");
        assert_eq!(g.n, out_ch, "case {case}");
    }
}

/// The discrete-event kernel's heap yields a total event order that is
/// independent of insertion order: `(cycle, kind, seq)` keys sort by time
/// first, arrivals before completions at the same cycle, and payload
/// tie-breaks make equal-time events deterministic.
#[test]
fn event_queue_order_is_insertion_independent() {
    use planaria::sim::{EventKind, EventQueue};
    use planaria::Cycles;
    let mut rng = SplitMix64::new(0xeeee_5eed);
    for case in 0..CASES {
        let n = rng.next_range(2, 64) as usize;
        let mut events: Vec<(Cycles, EventKind)> = (0..n)
            .map(|_| {
                let at = Cycles::new(rng.next_below(50));
                let kind = if rng.next_bool(0.3) {
                    EventKind::Arrival {
                        index: rng.next_below(8) as usize,
                    }
                } else {
                    EventKind::Completion {
                        tenant: rng.next_below(8),
                        epoch: rng.next_below(4),
                    }
                };
                (at, kind)
            })
            .collect();
        let drain = |evs: &[(Cycles, EventKind)]| {
            let mut q = EventQueue::new();
            for &(at, kind) in evs {
                q.push(at, kind);
            }
            let mut out = Vec::new();
            while let Some(e) = q.pop() {
                out.push(e);
            }
            out
        };
        let reference = drain(&events);
        // Times never decrease; arrivals precede completions at a cycle.
        for w in reference.windows(2) {
            assert!(w[0].0 <= w[1].0, "case {case}: time went backwards");
            if w[0].0 == w[1].0 {
                let rank = |k: &EventKind| match k {
                    EventKind::Arrival { .. } => 0,
                    EventKind::Completion { .. } => 1,
                };
                assert!(
                    rank(&w[0].1) <= rank(&w[1].1),
                    "case {case}: completion popped before same-cycle arrival"
                );
            }
        }
        // Fisher–Yates shuffles: every permutation drains identically.
        for _ in 0..4 {
            for i in (1..events.len()).rev() {
                let j = rng.next_below(i as u64 + 1) as usize;
                events.swap(i, j);
            }
            assert_eq!(
                drain(&events),
                reference,
                "case {case}: drain order depends on insertion order"
            );
        }
    }
}
