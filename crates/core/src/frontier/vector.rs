//! Vector (append-queue) frontier — the Gunrock-style layout (§4, Fig. 2).
//!
//! Discovered vertices are appended through an atomic tail counter.
//! Duplicates are *not* prevented (vertex 3 in the paper's Figure 2), so
//! frameworks using this layout need a post-processing pass to remove
//! them, and capacity must grow with the duplicate-inflated frontier —
//! both costs the bitmap layouts avoid. Growth reallocates at 2×, which
//! is the memory-spike behaviour visible in Figure 9.

use sygraph_sim::{DeviceBuffer, ItemCtx, Queue, SimResult};

use crate::frontier::Frontier;
use crate::types::VertexId;

/// Append-vector frontier with explicit capacity management.
pub struct VectorFrontier {
    n: usize,
    items: DeviceBuffer<u32>,
    size: DeviceBuffer<u32>,
    high_water: std::sync::atomic::AtomicUsize,
}

impl VectorFrontier {
    /// Creates a frontier over `n` vertices with initial `capacity` slots.
    pub fn with_capacity(q: &Queue, n: usize, capacity: usize) -> SimResult<Self> {
        Ok(VectorFrontier {
            n,
            items: q.malloc_device::<u32>(capacity.max(1))?,
            size: q.malloc_device::<u32>(1)?,
            high_water: std::sync::atomic::AtomicUsize::new(capacity.max(1)),
        })
    }

    /// Current element count, including duplicates.
    pub fn len(&self) -> usize {
        self.size.load(0) as usize
    }

    /// Whether the vector holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Slot capacity.
    pub fn capacity_slots(&self) -> usize {
        self.items.len()
    }

    /// Device bytes currently held.
    pub fn device_bytes(&self) -> u64 {
        self.items.bytes() + 4
    }

    /// Device-side append (atomic tail bump). The caller must have
    /// guaranteed capacity (see [`VectorFrontier::ensure_capacity`]), as
    /// Gunrock does by sizing the output with a degree scan first.
    pub fn append_lane(&self, lane: &mut ItemCtx<'_>, v: VertexId) {
        let idx = lane.fetch_add(&self.size, 0, 1) as usize;
        debug_assert!(
            idx < self.items.len(),
            "vector frontier overflow: {idx} >= {}",
            self.items.len()
        );
        lane.store(&self.items, idx, v);
    }

    /// Device-side append that reports instead of overflowing: returns
    /// `false` (and stores nothing) when the reserved slot is past
    /// capacity. Lets bounded consumers (the hybrid frontier's item list)
    /// detect overflow and fall back rather than corrupt memory. The tail
    /// counter still advances, so `len()` is only trustworthy while every
    /// append returned `true`.
    pub fn append_lane_checked(&self, lane: &mut ItemCtx<'_>, v: VertexId) -> bool {
        let idx = lane.fetch_add(&self.size, 0, 1) as usize;
        if idx < self.items.len() {
            lane.store(&self.items, idx, v);
            true
        } else {
            false
        }
    }

    /// Host-side append that reports instead of asserting on overflow.
    pub fn try_insert_host(&self, v: VertexId) -> bool {
        let idx = self.size.fetch_add(0, 1) as usize;
        if idx < self.items.len() {
            self.items.store(idx, v);
            true
        } else {
            false
        }
    }

    /// Overwrites the element count (after a compaction kernel).
    pub fn set_len(&self, len: usize) {
        self.size.store(0, len as u32);
    }

    pub fn items(&self) -> &DeviceBuffer<u32> {
        &self.items
    }

    /// The device tail counter (conversion kernels append through it).
    pub(crate) fn size_buffer(&self) -> &DeviceBuffer<u32> {
        &self.size
    }

    /// Grows (2× policy) until at least `needed` slots exist: allocates
    /// the new buffer, copies, then frees the old one — transiently
    /// holding both, which is the realloc memory spike of Figure 9.
    pub fn ensure_capacity(&mut self, q: &Queue, needed: usize) -> SimResult<()> {
        if needed <= self.items.len() {
            return Ok(());
        }
        let mut cap = self.items.len().max(1);
        while cap < needed {
            cap *= 2;
        }
        let bigger = q.malloc_device::<u32>(cap)?;
        q.copy(&self.items, &bigger);
        let old = std::mem::replace(&mut self.items, bigger);
        q.free(old);
        self.note_high_water();
        Ok(())
    }

    /// Empties the frontier *and* returns its buffer to `capacity` slots —
    /// the between-supersteps reset that keeps a transient duplicate burst
    /// from pinning peak memory. Also records the high-water marker.
    pub fn reset(&mut self, q: &Queue, capacity: usize) -> SimResult<()> {
        self.note_high_water();
        self.set_len(0);
        let target = capacity.max(1);
        if target < self.items.len() {
            q.mark(format!(
                "vector_high_water_bytes:{}",
                self.high_water_bytes()
            ));
            let fresh = q.malloc_device::<u32>(target)?;
            let old = std::mem::replace(&mut self.items, fresh);
            q.free(old);
        }
        Ok(())
    }

    /// Largest slot capacity this frontier has ever held.
    pub fn high_water_slots(&self) -> usize {
        self.high_water
            .load(std::sync::atomic::Ordering::Relaxed)
            .max(self.items.len())
    }

    /// [`VectorFrontier::high_water_slots`] in bytes (items buffer only).
    pub fn high_water_bytes(&self) -> u64 {
        (self.high_water_slots() * std::mem::size_of::<u32>()) as u64
    }

    fn note_high_water(&self) {
        self.high_water
            .fetch_max(self.items.len(), std::sync::atomic::Ordering::Relaxed);
    }
}

impl Frontier for VectorFrontier {
    fn capacity(&self) -> usize {
        self.n
    }

    fn insert_host(&self, v: VertexId) {
        let idx = self.size.fetch_add(0, 1) as usize;
        assert!(idx < self.items.len(), "host insert overflow");
        self.items.store(idx, v);
    }

    fn contains_host(&self, v: VertexId) -> bool {
        let len = self.len();
        (0..len).any(|i| self.items.load(i) == v)
    }

    /// Clearing a vector frontier is O(1): reset the tail counter.
    fn clear(&self, _q: &Queue) {
        self.size.store(0, 0);
    }

    /// Element count *including duplicates* — what a vector-frontier
    /// framework actually observes before post-processing.
    fn count(&self, _q: &Queue) -> usize {
        self.len()
    }

    fn to_sorted_vec(&self) -> Vec<VertexId> {
        let len = self.len().min(self.items.len());
        let mut v: Vec<u32> = self.items.to_vec()[..len].to_vec();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Requires `capacity_slots() >= n`; callers grow first.
    fn fill_all(&self, q: &Queue) {
        assert!(self.items.len() >= self.n, "grow before fill_all");
        let items = &self.items;
        q.parallel_for("vector_fill_all", self.n, |lane, i| {
            lane.store(items, i, i as u32);
        });
        self.set_len(self.n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sygraph_sim::{Device, DeviceProfile, TraceKind};

    fn queue() -> Queue {
        Queue::new(Device::new(DeviceProfile::host_test()))
    }

    #[test]
    fn append_and_read_back() {
        let q = queue();
        let f = VectorFrontier::with_capacity(&q, 100, 16).unwrap();
        f.insert_host(5);
        f.insert_host(3);
        f.insert_host(5); // duplicate is kept
        assert_eq!(f.len(), 3);
        assert_eq!(f.count(&q), 3, "count sees duplicates");
        assert_eq!(f.to_sorted_vec(), vec![3, 5], "sorted view dedups");
        assert!(f.contains_host(3));
        assert!(!f.contains_host(4));
    }

    #[test]
    fn device_append() {
        let q = queue();
        let f = VectorFrontier::with_capacity(&q, 1000, 1000).unwrap();
        q.parallel_for("app", 500, |ctx, i| {
            f.append_lane(ctx, i as u32);
        });
        assert_eq!(f.len(), 500);
        assert_eq!(f.to_sorted_vec().len(), 500);
    }

    #[test]
    fn clear_is_constant_time_reset() {
        let q = queue();
        let f = VectorFrontier::with_capacity(&q, 10, 10).unwrap();
        f.insert_host(1);
        let kernels_before = q.profiler().kernel_count();
        f.clear(&q);
        assert_eq!(q.profiler().kernel_count(), kernels_before, "no kernel");
        assert_eq!(f.len(), 0);
    }

    #[test]
    fn growth_doubles_and_preserves_contents() {
        let q = queue();
        let mut f = VectorFrontier::with_capacity(&q, 100, 4).unwrap();
        f.insert_host(9);
        f.insert_host(8);
        f.ensure_capacity(&q, 50).unwrap();
        assert!(f.capacity_slots() >= 50);
        assert_eq!(f.capacity_slots(), 64, "2x growth policy");
        assert_eq!(f.to_sorted_vec(), vec![8, 9]);
    }

    #[test]
    fn growth_spike_visible_in_mem_events() {
        let q = queue();
        let mut f = VectorFrontier::with_capacity(&q, 100, 4).unwrap();
        f.ensure_capacity(&q, 100).unwrap();
        // alloc(items) + alloc(size) + alloc(bigger) + free(old)
        let (freed, peak_during) = q
            .profiler()
            .fold((false, 0), |(freed, peak), e| match e.kind {
                TraceKind::Mem {
                    delta_bytes,
                    usage_after,
                    ..
                } => (freed || delta_bytes < 0, peak.max(usage_after)),
                _ => (freed, peak),
            });
        assert!(freed, "old buffer freed");
        assert!(peak_during >= (4 + 128) * 4, "both buffers coexisted");
    }

    #[test]
    fn reset_empties_and_restores_baseline_capacity() {
        let q = queue();
        let mut f = VectorFrontier::with_capacity(&q, 1000, 8).unwrap();
        f.ensure_capacity(&q, 512).unwrap();
        for v in 0..100u32 {
            f.insert_host(v);
        }
        f.reset(&q, 8).unwrap();
        assert!(f.is_empty());
        assert_eq!(f.capacity_slots(), 8, "buffer back at baseline");
        assert_eq!(f.high_water_slots(), 512, "spike retained in stats");
        assert!(f.high_water_bytes() >= 512 * 4);
    }

    #[test]
    fn growth_can_oom() {
        let mut prof = DeviceProfile::host_test();
        prof.vram_bytes = 2048;
        let q = Queue::new(Device::new(prof));
        let mut f = VectorFrontier::with_capacity(&q, 100, 64).unwrap();
        assert!(f.ensure_capacity(&q, 100_000).is_err());
    }
}
