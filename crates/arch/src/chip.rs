//! Chip-level view: subarray identity, placement of logical accelerators,
//! and the allocation bookkeeping the runtime performs (Fig. 10).
//!
//! Subarrays are numbered 0–15 around the global rings; a logical
//! accelerator occupies a *contiguous* segment (with wrap-around) so that
//! its activation/partial-sum chains traverse only enabled ring links. The
//! paper's example of a logical accelerator straddling Fission Pods 0 and 3
//! is exactly such a wrapped segment.

use crate::config::AcceleratorConfig;
use crate::geometry::MAX_MASK_SUBARRAYS;
use std::fmt;

/// Identifier of one physical subarray on the chip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SubarrayId(pub u32);

impl SubarrayId {
    /// The Fission Pod containing this subarray.
    pub fn pod(&self, cfg: &AcceleratorConfig) -> u32 {
        self.0 / cfg.subarrays_per_pod
    }
}

impl fmt::Display for SubarrayId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SA{}", self.0)
    }
}

/// A contiguous (mod ring size) set of subarrays owned by one tenant: the
/// ring segment of `count` subarrays starting at `start` on a ring of
/// `total`. Plain data — placing a tenant never touches the heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Allocation {
    start: u32,
    count: u32,
    total: u32,
}

impl Allocation {
    /// Creates an allocation from a starting subarray and a count, wrapping
    /// around the ring of `total` subarrays.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero or exceeds `total`, or if `total` exceeds
    /// [`MAX_MASK_SUBARRAYS`].
    pub fn contiguous(start: u32, count: u32, total: u32) -> Self {
        assert!(count > 0 && count <= total, "invalid allocation size");
        assert!(
            total <= MAX_MASK_SUBARRAYS,
            "a ring of {total} subarrays does not fit a u128 placement mask"
        );
        Self {
            start: start % total,
            count,
            total,
        }
    }

    /// The subarrays owned, in ring order from the segment's start.
    pub fn subarrays(&self) -> impl Iterator<Item = SubarrayId> {
        let Self {
            start,
            count,
            total,
        } = *self;
        (0..count).map(move |i| SubarrayId((start + i) % total))
    }

    /// Placement bitmask: bit *i* set ⇔ subarray *i* owned.
    pub fn mask(&self) -> u128 {
        ring_run(self.start, self.count, self.total)
    }

    /// Number of subarrays owned.
    pub fn len(&self) -> u32 {
        self.count
    }

    /// Whether the allocation is empty (never true for constructed values).
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Number of distinct Fission Pods spanned — each spanned pod
    /// contributes one DRAM channel to this tenant.
    pub fn pods_spanned(&self, cfg: &AcceleratorConfig) -> u32 {
        // Pod indices are below the subarray count, so they fit the mask.
        let pods = self
            .subarrays()
            .fold(0u128, |m, id| m | (1u128 << id.pod(cfg)));
        pods.count_ones()
    }

    /// DRAM channels reachable by this tenant (one per spanned pod).
    pub fn dram_channels(&self, cfg: &AcceleratorConfig) -> u32 {
        self.pods_spanned(cfg)
    }
}

/// The low `n` bits set (`n <= 128`).
fn low_bits(n: u32) -> u128 {
    u128::MAX.checked_shr(128 - n).unwrap_or(0)
}

/// Bitmask of the ring segment `[start, start + count)` mod `total`
/// (`start < total`, `count <= total <= 128`): the run of `count` low bits
/// rotated left by `start` within a `total`-bit word.
fn ring_run(start: u32, count: u32, total: u32) -> u128 {
    let run = low_bits(count);
    let wrapped = run.checked_shr(total - start).unwrap_or(0);
    ((run << start) | wrapped) & low_bits(total)
}

/// Runtime placement state of the chip: which subarrays are busy, one bit
/// per subarray.
#[derive(Debug, Clone)]
pub struct Chip {
    cfg: AcceleratorConfig,
    total: u32,
    busy: u128,
}

impl Chip {
    /// Creates an idle chip.
    ///
    /// # Panics
    ///
    /// Panics if the chip has more than [`MAX_MASK_SUBARRAYS`] subarrays
    /// ([`GeometryBuilder`](crate::GeometryBuilder) never builds one).
    pub fn new(cfg: AcceleratorConfig) -> Self {
        let total = cfg.num_subarrays();
        assert!(
            total <= MAX_MASK_SUBARRAYS,
            "chip of {total} subarrays does not fit a u128 placement mask"
        );
        Self {
            cfg,
            total,
            busy: 0,
        }
    }

    /// The chip configuration.
    pub fn config(&self) -> &AcceleratorConfig {
        &self.cfg
    }

    /// Total subarrays.
    pub fn total(&self) -> u32 {
        self.total
    }

    /// Subarrays not owned by any tenant.
    pub fn free(&self) -> u32 {
        self.total - self.busy.count_ones()
    }

    /// Places a tenant on `count` subarrays, choosing the first contiguous
    /// free segment (with wrap-around), lowest start first. Returns the
    /// allocation, or `None` if no contiguous segment of that size is free.
    pub fn place(&mut self, count: u32) -> Option<Allocation> {
        let total = self.total;
        if count == 0 || count > total {
            return None;
        }
        let (start, run) = (0..total)
            .map(|s| (s, ring_run(s, count, total)))
            .find(|&(_, run)| run & self.busy == 0)?;
        self.busy |= run;
        Some(Allocation {
            start,
            count,
            total,
        })
    }

    /// Claims a specific pre-computed allocation if every one of its
    /// subarrays is free; returns whether the claim succeeded. Used by the
    /// runtime to keep stable tenants on their segments across scheduling
    /// events.
    pub fn claim(&mut self, alloc: Allocation) -> bool {
        let mask = alloc.mask();
        if self.busy & mask != 0 {
            return false;
        }
        self.busy |= mask;
        true
    }

    /// Releases the subarrays of `alloc`; returns how many were busy.
    pub fn release(&mut self, alloc: Allocation) -> u32 {
        let freed = self.busy & alloc.mask();
        self.busy &= !freed;
        freed.count_ones()
    }

    /// Clears all placements.
    pub fn reset(&mut self) {
        self.busy = 0;
    }

    /// Whether a subarray is owned by some tenant.
    pub fn is_busy(&self, id: SubarrayId) -> bool {
        id.0 < self.total && (self.busy >> id.0) & 1 == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chip() -> Chip {
        Chip::new(AcceleratorConfig::planaria())
    }

    fn ids(a: &Allocation) -> Vec<u32> {
        a.subarrays().map(|s| s.0).collect()
    }

    #[test]
    fn contiguous_allocation_wraps() {
        let a = Allocation::contiguous(14, 4, 16);
        assert_eq!(ids(&a), vec![14, 15, 0, 1]);
        assert_eq!(a.mask(), 0b1100_0000_0000_0011);
    }

    #[test]
    fn masks_wrap_across_bit_127() {
        let a = Allocation::contiguous(126, 4, 128);
        assert_eq!(ids(&a), vec![126, 127, 0, 1]);
        assert_eq!(a.mask(), (0b11 << 126) | 0b11);
        assert_eq!(Allocation::contiguous(5, 128, 128).mask(), u128::MAX);
        assert_eq!(Allocation::contiguous(0, 16, 16).mask(), 0xffff);
    }

    #[test]
    fn wrapped_allocation_spans_pods_like_paper_example() {
        // Fission Pod-0's subarrays plus two from Fission Pod-3 (§IV-C).
        let cfg = AcceleratorConfig::planaria();
        let a = Allocation::contiguous(12, 6, 16); // SA12..15 (pod 3), SA0..1 (pod 0)
        assert_eq!(a.pods_spanned(&cfg), 2);
        assert_eq!(a.dram_channels(&cfg), 2);
    }

    #[test]
    fn place_and_release_roundtrip() {
        let mut c = chip();
        let a = c.place(6).unwrap();
        assert_eq!(a.len(), 6);
        assert_eq!(c.free(), 10);
        assert!(a.subarrays().all(|id| c.is_busy(id)));
        assert_eq!(c.release(a), 6);
        assert_eq!(c.free(), 16);
        assert!(!c.is_busy(SubarrayId(0)));
    }

    #[test]
    fn placement_fails_when_fragmented_beyond_repair() {
        let mut c = chip();
        // Four 2-subarray tenants: first-fit packs them into SA0..8.
        for start in [0u32, 2, 4, 6] {
            assert!(!c.is_busy(SubarrayId(start)));
            assert_eq!(c.place(2), Some(Allocation::contiguous(start, 2, 16)));
        }
        // 8 free remain, all contiguous in SA8..16; ask for more than that.
        assert!(c.place(9).is_none());
        assert!(c.place(8).is_some());
        assert_eq!(c.free(), 0);
    }

    #[test]
    fn zero_or_oversized_requests_rejected() {
        let mut c = chip();
        assert!(c.place(0).is_none());
        assert!(c.place(17).is_none());
    }

    #[test]
    fn claim_succeeds_only_on_free_segments() {
        let mut c = chip();
        let seg = Allocation::contiguous(2, 4, 16);
        assert!(c.claim(seg));
        assert!(c.is_busy(SubarrayId(3)));
        // Overlapping claim fails and must not partially take ownership.
        let overlap = Allocation::contiguous(5, 3, 16);
        assert!(!c.claim(overlap));
        assert!(!c.is_busy(SubarrayId(6)));
        // Disjoint claim works, including wrap-around.
        let wrap = Allocation::contiguous(14, 4, 16);
        assert!(c.claim(wrap));
        assert_eq!(c.free(), 16 - 4 - 4);
    }

    #[test]
    #[should_panic(expected = "does not fit a u128 placement mask")]
    fn chips_wider_than_the_mask_are_rejected() {
        let mut cfg = AcceleratorConfig::planaria();
        cfg.pe_rows = 32 * 16;
        cfg.pe_cols = 32 * 16;
        let _ = Chip::new(cfg);
    }
}
