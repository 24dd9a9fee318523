//! Sparse (item-list) frontier: a duplicate-free vertex list built on
//! [`VectorFrontier`] plus a visited bitmap used for dedup-on-insert.
//!
//! The dense layouts pay a per-superstep cost proportional to the bitmap
//! extent — even the two-layer compaction scans `⌈n/b²⌉` second-layer
//! words when only three vertices are active. This layout instead hands
//! `advance` an explicit list whose length *is* the frontier population:
//! on high-diameter road graphs (thousands of supersteps, tiny
//! wavefronts) the fixed scans disappear entirely. Inserts go through the
//! bitmap first (atomic OR); only the lane that freshly sets a bit
//! appends, so the list never holds duplicates — the property the fused
//! advance+compute path and the visit-edge tail rely on.

use std::sync::atomic::{AtomicU32, Ordering};

use sygraph_sim::{DeviceBuffer, ItemCtx, Queue};

use crate::frontier::bitmap::BitmapStorage;
use crate::frontier::convert;
use crate::frontier::rep::{RepKind, SparseView};
use crate::frontier::vector::VectorFrontier;
use crate::frontier::word::{locate, Word};
use crate::frontier::{BitmapLike, ClearUnits, Frontier};
use crate::types::VertexId;

/// Duplicate-free item-list frontier over `n` vertices.
///
/// The list has `n` slots, so a list rebuilt from the bitmap can never
/// overflow; the bitmap stays authoritative at all times and the list
/// mirrors it exactly until a removal marks it stale.
pub struct SparseFrontier<W: Word> {
    storage: BitmapStorage<W>,
    list: VectorFrontier,
    /// 1 ⇒ the list no longer mirrors the bitmap (a removal happened, or
    /// the words were rewritten wholesale by a set-operator).
    stale: DeviceBuffer<u32>,
    /// Representation currently presented (0 = dense, 1 = sparse). The
    /// engine's `adopt_rep` toggles it; forced-dense runs take the plain
    /// word-walk even though the list is maintained.
    mode: AtomicU32,
}

impl<W: Word> SparseFrontier<W> {
    /// Creates an empty frontier over `n` vertices.
    pub fn new(q: &Queue, n: usize) -> sygraph_sim::SimResult<Self> {
        let storage = BitmapStorage::new(q, n)?;
        let list = VectorFrontier::with_capacity(q, n, n.max(1))?;
        let stale = q.malloc_device::<u32>(1)?;
        stale.store(0, 0);
        Ok(SparseFrontier {
            storage,
            list,
            stale,
            mode: AtomicU32::new(1),
        })
    }

    /// Device bytes held by this frontier (bitmap + list + stale flag).
    pub fn device_bytes(&self) -> u64 {
        self.storage.device_bytes() + self.list.device_bytes() + self.stale.bytes()
    }

    fn list_valid(&self) -> bool {
        self.stale.load(0) == 0
    }

    /// Rebuilds the item list from the bitmap (device-side conversion).
    fn resparsify(&self, q: &Queue) {
        self.stale.store(0, 0);
        convert::sparsify(
            q,
            &self.storage.words,
            self.list.items(),
            self.list.size_buffer(),
            &self.stale,
        );
        // The list has n slots and the bitmap at most n set bits, so the
        // overflow arm (which would re-set `stale`) is unreachable.
        debug_assert!(self.list_valid());
    }
}

impl<W: Word> Frontier for SparseFrontier<W> {
    fn capacity(&self) -> usize {
        self.storage.len()
    }

    fn insert_host(&self, v: VertexId) {
        let old = self.storage.insert_host(v);
        if !old.test_bit(locate::<W>(v).1) {
            self.list.try_insert_host(v);
        }
    }

    fn contains_host(&self, v: VertexId) -> bool {
        self.storage.contains_host(v)
    }

    fn clear(&self, q: &Queue) {
        self.storage.clear_kernel(q);
        self.list.set_len(0);
        self.stale.store(0, 0);
    }

    fn count(&self, q: &Queue) -> usize {
        if self.list_valid() {
            // Duplicate-free list ⇒ its length is the population, no
            // kernel needed.
            self.list.len()
        } else {
            self.storage.count_kernel(q, "frontier_count")
        }
    }

    fn to_sorted_vec(&self) -> Vec<VertexId> {
        self.storage.to_sorted_vec()
    }

    fn fill_all(&self, q: &Queue) {
        self.storage.fill_all_kernel(q);
        self.list.fill_all(q);
        self.stale.store(0, 0);
    }
}

impl<W: Word> BitmapLike<W> for SparseFrontier<W> {
    fn num_words(&self) -> usize {
        self.storage.num_words()
    }

    fn words(&self) -> &DeviceBuffer<W> {
        &self.storage.words
    }

    fn insert_lane(&self, lane: &mut ItemCtx<'_>, v: VertexId) {
        self.insert_lane_checked(lane, v);
    }

    fn insert_lane_checked(&self, lane: &mut ItemCtx<'_>, v: VertexId) -> bool {
        let (wi, b) = locate::<W>(v);
        let old = lane.fetch_or(&self.storage.words, wi, W::one_bit(b));
        let fresh = !old.test_bit(b);
        if fresh && !self.list.append_lane_checked(lane, v) {
            // Only reachable through remove→reinsert cycles, which marked
            // the list stale already; keep the flag set for good measure.
            // fetch_or: several lanes may overflow in the same launch.
            lane.fetch_or(&self.stale, 0, 1);
        }
        fresh
    }

    fn remove_lane(&self, lane: &mut ItemCtx<'_>, v: VertexId) {
        let (wi, b) = locate::<W>(v);
        lane.fetch_and(&self.storage.words, wi, W::one_bit(b).not());
        lane.fetch_or(&self.stale, 0, 1);
    }

    /// No dense compaction structure: a forced-dense advance walks every
    /// word (the §4.1 single-layer behaviour).
    fn compact(&self, _q: &Queue) -> Option<(usize, &DeviceBuffer<u32>)> {
        None
    }

    /// O(population): zero only the words the (exact) list touches.
    fn lazy_clear_units(&self) -> Option<ClearUnits<'_>> {
        self.list_valid().then(|| {
            let (items, len) = (self.list.items(), self.list.len());
            convert::clear_listed(items, len, &self.storage.words, None)
        })
    }

    fn lazy_cleared(&self) {
        self.list.set_len(0);
    }

    fn empty_like(&self, q: &Queue) -> Option<Box<dyn BitmapLike<W>>> {
        Some(Box::new(Self::new(q, self.capacity()).ok()?))
    }

    fn rep_kind(&self) -> RepKind {
        if self.mode.load(Ordering::Relaxed) == 1 {
            RepKind::Sparse
        } else {
            RepKind::Dense
        }
    }

    fn sparse_view(&self, _q: &Queue) -> Option<SparseView<'_>> {
        if self.mode.load(Ordering::Relaxed) == 1 && self.list_valid() {
            Some(SparseView {
                items: self.list.items(),
                len: self.list.len(),
            })
        } else {
            None
        }
    }

    fn list_probe(&self) -> Option<Option<usize>> {
        Some(self.list_valid().then(|| self.list.len()))
    }

    fn adopt_rep(&self, q: &Queue, kind: RepKind) -> RepKind {
        match kind {
            RepKind::Dense => {
                self.mode.store(0, Ordering::Relaxed);
                RepKind::Dense
            }
            RepKind::Sparse => {
                if !self.list_valid() {
                    self.resparsify(q);
                }
                self.mode.store(1, Ordering::Relaxed);
                RepKind::Sparse
            }
        }
    }

    /// Word-wise writes bypassed the insert path: the list is stale until
    /// the next `adopt_rep(Sparse)` re-sparsifies.
    fn rebuild_from_words(&self, q: &Queue) {
        let _ = q;
        self.stale.store(0, 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sygraph_sim::{Device, DeviceProfile};

    fn queue() -> Queue {
        Queue::new(Device::new(DeviceProfile::host_test()))
    }

    #[test]
    fn dedup_on_insert_keeps_list_exact() {
        let q = queue();
        let f = SparseFrontier::<u32>::new(&q, 1000).unwrap();
        q.parallel_for("ins", 64, |ctx, i| {
            // every vertex inserted twice
            f.insert_lane(ctx, (i % 32) as u32 * 7);
        });
        assert_eq!(f.count(&q), 32, "duplicates suppressed");
        let view = f.sparse_view(&q).expect("list valid");
        assert_eq!(view.len, 32, "one list entry per vertex");
        assert_eq!(f.to_sorted_vec().len(), 32);
    }

    #[test]
    fn removal_marks_stale_and_adopt_rebuilds() {
        let q = queue();
        let f = SparseFrontier::<u64>::new(&q, 500).unwrap();
        for v in [3u32, 40, 300] {
            f.insert_host(v);
        }
        q.parallel_for("rm", 1, |ctx, _| f.remove_lane(ctx, 40));
        assert!(f.sparse_view(&q).is_none(), "stale list withdrawn");
        assert_eq!(f.adopt_rep(&q, RepKind::Sparse), RepKind::Sparse);
        let view = f.sparse_view(&q).expect("rebuilt");
        assert_eq!(view.len, 2);
        assert_eq!(f.to_sorted_vec(), vec![3, 300]);
    }

    #[test]
    fn lazy_clear_is_population_proportional_and_complete() {
        let q = queue();
        let f = SparseFrontier::<u32>::new(&q, 100_000).unwrap();
        for v in [5u32, 77, 31_000] {
            f.insert_host(v);
        }
        f.lazy_clear(&q);
        assert!(f.is_empty(&q));
        assert_eq!(f.count(&q), 0);
        // usable afterwards
        f.insert_host(9);
        assert_eq!(f.to_sorted_vec(), vec![9]);
    }

    #[test]
    fn forced_dense_withdraws_view() {
        let q = queue();
        let f = SparseFrontier::<u32>::new(&q, 64).unwrap();
        f.insert_host(1);
        assert!(f.sparse_view(&q).is_some());
        assert_eq!(f.adopt_rep(&q, RepKind::Dense), RepKind::Dense);
        assert!(f.sparse_view(&q).is_none());
        assert_eq!(f.rep_kind(), RepKind::Dense);
        assert_eq!(f.adopt_rep(&q, RepKind::Sparse), RepKind::Sparse);
        assert_eq!(f.sparse_view(&q).unwrap().len, 1);
    }

    #[test]
    fn fill_all_keeps_list_exact() {
        let q = queue();
        let f = SparseFrontier::<u32>::new(&q, 300).unwrap();
        f.fill_all(&q);
        assert_eq!(f.count(&q), 300);
        assert_eq!(f.sparse_view(&q).unwrap().len, 300);
    }
}
