//! Set-associative LRU cache model.
//!
//! The simulator models a per-compute-unit L1 backed by a per-CU *slice* of
//! the shared L2 (real GPUs hash addresses across L2 slices; giving each CU
//! a private slice of `l2_bytes / compute_units` is the standard
//! approximation that keeps the model embarrassingly parallel). Lookups are
//! performed at cache-line granularity on the *transactions* produced by the
//! coalescer, not on individual lane accesses.

use crate::device::DeviceProfile;

/// Outcome of a single cache-hierarchy lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheLevel {
    L1,
    L2,
    Dram,
}

/// One set-associative LRU cache level.
///
/// Tags are full line addresses; LRU is tracked with a monotonically
/// increasing access counter per way (simple and branch-friendly; set sizes
/// are tiny so a linear scan per lookup is faster than fancier structures).
#[derive(Debug, Clone)]
pub struct CacheModel {
    sets: usize,
    ways: usize,
    line_shift: u32,
    /// `sets * ways` entries; `u64::MAX` means invalid.
    tags: Vec<u64>,
    /// Last-access stamp per entry.
    stamps: Vec<u64>,
    clock: u64,
    hits: u64,
    misses: u64,
    /// Set by the first insert after a flush; a clean cache has every tag
    /// invalid and every stamp zero, so flushing it again is a no-op.
    dirty: bool,
}

impl CacheModel {
    /// Builds a cache of `bytes` capacity with `ways` associativity and
    /// `line_bytes` lines. Capacity is rounded down to a whole number of
    /// sets; a cache smaller than one set degenerates to a single set.
    pub fn new(bytes: u64, ways: u32, line_bytes: u32) -> Self {
        assert!(line_bytes.is_power_of_two(), "line size must be 2^k");
        let ways = ways.max(1) as usize;
        let lines = (bytes / line_bytes as u64).max(1) as usize;
        // Round the set count down to a power of two (capacity is never
        // overstated; an already-power-of-two count is kept exactly).
        let raw_sets = (lines / ways).max(1);
        let sets = if raw_sets.is_power_of_two() {
            raw_sets
        } else {
            raw_sets.next_power_of_two() / 2
        };
        let sets = sets.max(1);
        CacheModel {
            sets,
            ways,
            line_shift: line_bytes.trailing_zeros(),
            tags: vec![u64::MAX; sets * ways],
            stamps: vec![0; sets * ways],
            clock: 0,
            hits: 0,
            misses: 0,
            dirty: false,
        }
    }

    /// Convenience: the L1 geometry of `profile`.
    pub fn l1(profile: &DeviceProfile) -> Self {
        Self::new(
            profile.l1_bytes as u64,
            profile.l1_assoc,
            profile.line_bytes,
        )
    }

    /// Convenience: one per-CU slice of the L2 of `profile`.
    pub fn l2_slice(profile: &DeviceProfile) -> Self {
        Self::new(
            (profile.l2_bytes / profile.compute_units as u64).max(profile.line_bytes as u64),
            profile.l2_assoc,
            profile.line_bytes,
        )
    }

    /// Looks up the line containing `addr`, inserting it on miss.
    /// Returns whether the access hit.
    pub fn access(&mut self, addr: u64) -> bool {
        let line = addr >> self.line_shift;
        let set = (line as usize) & (self.sets - 1);
        let base = set * self.ways;
        self.clock += 1;
        let slots = &mut self.tags[base..base + self.ways];
        if let Some(w) = slots.iter().position(|&t| t == line) {
            self.stamps[base + w] = self.clock;
            self.hits += 1;
            return true;
        }
        // Miss: evict LRU way.
        let mut victim = 0;
        let mut oldest = u64::MAX;
        for w in 0..self.ways {
            let s = self.stamps[base + w];
            if self.tags[base + w] == u64::MAX {
                victim = w;
                break;
            }
            if s < oldest {
                oldest = s;
                victim = w;
            }
        }
        self.tags[base + victim] = line;
        self.stamps[base + victim] = self.clock;
        self.misses += 1;
        self.dirty = true;
        false
    }

    /// Invalidates all lines (kernel-boundary flush for L1, which GPUs do
    /// not keep coherent across kernels). Idempotent, and free when nothing
    /// was inserted since the last flush.
    pub fn flush(&mut self) {
        if !self.dirty {
            return;
        }
        self.tags.fill(u64::MAX);
        self.stamps.fill(0);
        self.dirty = false;
    }

    pub fn hits(&self) -> u64 {
        self.hits
    }

    pub fn misses(&self) -> u64 {
        self.misses
    }

    pub fn reset_counters(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }

    /// Capacity in lines (sets × ways).
    pub fn lines(&self) -> usize {
        self.sets * self.ways
    }
}

/// A two-level hierarchy: per-CU L1 in front of a per-CU L2 slice.
#[derive(Debug, Clone)]
pub struct CacheHierarchy {
    pub l1: CacheModel,
    pub l2: CacheModel,
}

impl CacheHierarchy {
    pub fn for_cu(profile: &DeviceProfile) -> Self {
        CacheHierarchy {
            l1: CacheModel::l1(profile),
            l2: CacheModel::l2_slice(profile),
        }
    }

    /// Services one transaction; returns the level that satisfied it.
    pub fn access(&mut self, addr: u64) -> CacheLevel {
        if self.l1.access(addr) {
            CacheLevel::L1
        } else if self.l2.access(addr) {
            CacheLevel::L2
        } else {
            CacheLevel::Dram
        }
    }

    /// Flush L1 only (per-kernel boundary); L2 persists across kernels.
    /// The queue calls this when the CU next runs a workgroup, not after
    /// every launch: nothing reads an L1 between the two points, so a CU
    /// that sits launches out owes one flush, not one per launch.
    pub fn kernel_boundary(&mut self) {
        self.l1.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_access_hits() {
        let mut c = CacheModel::new(1024, 2, 32);
        assert!(!c.access(0));
        assert!(c.access(0));
        assert!(c.access(4)); // same line
        assert!(!c.access(32)); // next line
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 2);
    }

    #[test]
    fn lru_eviction_order() {
        // 2 ways, 1 set: capacity = 2 lines of 32B -> 64B total.
        let mut c = CacheModel::new(64, 2, 32);
        assert_eq!(c.lines(), 2);
        c.access(0); // miss, insert line 0
        c.access(64); // miss, insert line 2 (same set: only 1 set)
        c.access(0); // hit, line 0 becomes MRU
        c.access(128); // miss, evicts line 2 (LRU)
        assert!(c.access(0), "line 0 must have survived");
        assert!(!c.access(64), "line 2 must have been evicted");
    }

    #[test]
    fn flush_clears_contents_not_counters() {
        let mut c = CacheModel::new(1024, 4, 32);
        c.access(0);
        c.access(0);
        c.flush();
        assert!(!c.access(0));
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 2);
    }

    #[test]
    fn working_set_within_capacity_all_hits_second_pass() {
        let mut c = CacheModel::new(4096, 4, 64);
        let lines: Vec<u64> = (0..32).map(|i| i * 64).collect();
        for &a in &lines {
            c.access(a);
        }
        c.reset_counters();
        for &a in &lines {
            assert!(c.access(a));
        }
        assert_eq!(c.hits(), 32);
    }

    #[test]
    fn hierarchy_l2_catches_l1_misses() {
        let prof = DeviceProfile::host_test();
        let mut h = CacheHierarchy::for_cu(&prof);
        // Touch more lines than L1 (1 KiB / 32B = 32 lines) but fewer than
        // the L2 slice (16 KiB / 4 CUs = 4 KiB = 128 lines).
        let lines: Vec<u64> = (0..64u64).map(|i| i * 32).collect();
        for &a in &lines {
            h.access(a);
        }
        h.kernel_boundary(); // L1 flushed, L2 keeps lines
        let mut l2_hits = 0;
        for &a in &lines {
            if h.access(a) == CacheLevel::L2 {
                l2_hits += 1;
            }
        }
        assert!(
            l2_hits > 48,
            "most lines should be served from L2, got {l2_hits}"
        );
    }

    #[test]
    fn degenerate_small_cache_is_single_set() {
        let mut c = CacheModel::new(16, 8, 32);
        assert!(c.lines() >= 1);
        c.access(0);
        let _ = c.access(0);
    }
}
