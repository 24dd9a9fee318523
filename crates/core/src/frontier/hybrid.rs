//! Hybrid frontier: the two-layer bitmap with a bounded item list riding
//! alongside, switching representation per superstep.
//!
//! The bitmap (and its second layer) is *always* maintained, so going
//! sparse→dense is free; the list is maintained opportunistically on the
//! insert path (one extra atomic append per freshly-set bit), so going
//! dense→sparse is usually free too. The list is bounded — large
//! frontiers overflow it and the frontier simply stays dense, which is
//! also the regime where dense wins. This is the GraphBLAST switching
//! model expressed as one Gunrock-style frontier object: the engine asks
//! for a representation per superstep ([`BitmapLike::adopt_rep`]) based
//! on the population count it already syncs for convergence.

use std::sync::atomic::{AtomicU32, Ordering};

use sygraph_sim::{DeviceBuffer, ItemCtx, Queue};

use crate::frontier::convert;
use crate::frontier::rep::{RepKind, SparseView};
use crate::frontier::two_layer::TwoLayerFrontier;
use crate::frontier::vector::VectorFrontier;
use crate::frontier::word::Word;
use crate::frontier::{BitmapLike, ClearUnits, Frontier};
use crate::types::VertexId;

/// Item-list capacity: an eighth of the vertex count (floor 64). The
/// auto policy exits sparse at n/32 active vertices, so a frontier the
/// policy could ever want sparse fits with 4× slack — and the slack
/// bounds the memory overhead at half a byte per vertex.
pub fn sparse_capacity(n: usize) -> usize {
    (n / 8).max(64)
}

/// Two-layer bitmap + bounded item list, representation chosen per
/// superstep.
pub struct HybridFrontier<W: Word> {
    inner: TwoLayerFrontier<W>,
    list: VectorFrontier,
    /// 1 ⇒ an append ran past the list's capacity; the list is invalid
    /// until rebuilt (sticky across supersteps until a clear/rebuild).
    overflow: DeviceBuffer<u32>,
    /// 1 ⇒ a removal (or wholesale word rewrite) desynced the list.
    stale: DeviceBuffer<u32>,
    /// Representation currently presented (0 = dense, 1 = sparse).
    mode: AtomicU32,
    /// 1 ⇒ inserts keep the list in sync. Adopting `Dense` drops this to
    /// 0 (marking the list stale in the same breath), so dense-phase
    /// supersteps insert at exactly the two-layer bitmap's cost — the
    /// bounded list only taxes the supersteps that can use it.
    maintain: AtomicU32,
}

impl<W: Word> HybridFrontier<W> {
    /// Creates an empty frontier over `n` vertices.
    pub fn new(q: &Queue, n: usize) -> sygraph_sim::SimResult<Self> {
        let inner = TwoLayerFrontier::new(q, n)?;
        let list = VectorFrontier::with_capacity(q, n, sparse_capacity(n))?;
        let overflow = q.malloc_device::<u32>(1)?;
        let stale = q.malloc_device::<u32>(1)?;
        overflow.store(0, 0);
        stale.store(0, 0);
        Ok(HybridFrontier {
            inner,
            list,
            overflow,
            stale,
            mode: AtomicU32::new(0),
            maintain: AtomicU32::new(1),
        })
    }

    /// Device bytes held (bitmap layers + list + flags).
    pub fn device_bytes(&self) -> u64 {
        self.inner.device_bytes()
            + self.list.device_bytes()
            + self.overflow.bytes()
            + self.stale.bytes()
    }

    /// The dense half, for consumers that want the two-layer API
    /// (invariant checks in tests).
    pub fn dense(&self) -> &TwoLayerFrontier<W> {
        &self.inner
    }

    fn list_valid(&self) -> bool {
        self.overflow.load(0) == 0 && self.stale.load(0) == 0
    }

    fn reset_list_flags(&self) {
        self.list.set_len(0);
        self.overflow.store(0, 0);
        self.stale.store(0, 0);
        self.maintain.store(1, Ordering::Relaxed);
    }
}

impl<W: Word> Frontier for HybridFrontier<W> {
    fn capacity(&self) -> usize {
        self.inner.capacity()
    }

    fn insert_host(&self, v: VertexId) {
        if !self.inner.contains_host(v) {
            self.inner.insert_host(v);
            if !self.list.try_insert_host(v) {
                self.overflow.store(0, 1);
            }
        }
    }

    fn contains_host(&self, v: VertexId) -> bool {
        self.inner.contains_host(v)
    }

    fn clear(&self, q: &Queue) {
        self.inner.clear(q);
        self.reset_list_flags();
    }

    fn count(&self, q: &Queue) -> usize {
        if self.list_valid() {
            self.list.len()
        } else {
            self.inner.count(q)
        }
    }

    fn is_empty(&self, q: &Queue) -> bool {
        if self.list_valid() {
            self.list.is_empty()
        } else {
            self.inner.is_empty(q)
        }
    }

    fn to_sorted_vec(&self) -> Vec<VertexId> {
        self.inner.to_sorted_vec()
    }

    /// Activates everything. The full vertex set never fits the bounded
    /// list, so this simply overflows it: the frontier starts dense —
    /// exactly right for CC-style all-active starts.
    fn fill_all(&self, q: &Queue) {
        self.inner.fill_all(q);
        self.list.set_len(0);
        self.overflow.store(0, 1);
        self.stale.store(0, 0);
    }
}

impl<W: Word> BitmapLike<W> for HybridFrontier<W> {
    fn num_words(&self) -> usize {
        self.inner.num_words()
    }

    fn words(&self) -> &DeviceBuffer<W> {
        self.inner.words()
    }

    fn insert_lane(&self, lane: &mut ItemCtx<'_>, v: VertexId) {
        self.insert_lane_checked(lane, v);
    }

    fn insert_lane_checked(&self, lane: &mut ItemCtx<'_>, v: VertexId) -> bool {
        let fresh = self.inner.insert_lane_checked(lane, v);
        // List upkeep is per-insert device work the dense phases must not
        // pay: with `maintain` off (engine adopted `Dense`) this is a pure
        // bitmap insert. While maintaining, the overflow short-circuit
        // caps what an exploding superstep pays once the list fills — one
        // (cached) flag load instead of a dead reservation per insert.
        // Atomic load/or on the overflow flag: other lanes may be raising
        // it in this same launch (a plain load/store pair would race).
        if fresh
            && self.maintain.load(Ordering::Relaxed) == 1
            && lane.load_atomic(&self.overflow, 0) == 0
            && !self.list.append_lane_checked(lane, v)
        {
            lane.fetch_or(&self.overflow, 0, 1);
        }
        fresh
    }

    fn remove_lane(&self, lane: &mut ItemCtx<'_>, v: VertexId) {
        self.inner.remove_lane(lane, v);
        lane.fetch_or(&self.stale, 0, 1);
    }

    fn compact(&self, q: &Queue) -> Option<(usize, &DeviceBuffer<u32>)> {
        self.inner.compact(q)
    }

    /// Lazy clear, representation-aware: with a valid list this is
    /// O(population) — zero the exact words the entries touch (and the
    /// small second layer wholesale), the scan-free clear that motivates
    /// the sparse rep ([`convert::clear_listed`]); an empty list has
    /// nothing on the device to zero. Without one, the dense lazy clear
    /// when the last superstep ran dense (its compaction offsets are
    /// fresh), and no lazy form otherwise.
    fn lazy_clear_units(&self) -> Option<ClearUnits<'_>> {
        if self.list_valid() {
            let len = self.list.len();
            let layer2 = (len > 0).then(|| self.inner.layer2());
            let words = self.inner.words();
            Some(convert::clear_listed(self.list.items(), len, words, layer2))
        } else if self.mode.load(Ordering::Relaxed) == 0 {
            self.inner.lazy_clear_units()
        } else {
            None
        }
    }

    fn lazy_cleared(&self) {
        self.reset_list_flags();
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
        (self.overflow.load(0) == 0).then(|| self.list_valid().then(|| self.list.len()))
    }

    fn adopt_rep(&self, q: &Queue, kind: RepKind) -> RepKind {
        match kind {
            RepKind::Dense => {
                self.mode.store(0, Ordering::Relaxed);
                // Stop paying for the list; it is stale from here on.
                if self.maintain.swap(0, Ordering::Relaxed) == 1 {
                    self.stale.store(0, 1);
                }
                RepKind::Dense
            }
            RepKind::Sparse => {
                if self.overflow.load(0) != 0 {
                    // The overflow flag is a population proof: at least
                    // capacity-many fresh inserts happened since the last
                    // clear, so the rebuild below would only re-overflow.
                    // Refuse without paying its scan — this is exactly the
                    // post-explosion superstep, where the estimate the
                    // policy used is one step behind the wavefront.
                    self.mode.store(0, Ordering::Relaxed);
                    self.maintain.store(0, Ordering::Relaxed);
                    return RepKind::Dense;
                }
                if !self.list_valid() {
                    // Rebuild the list from the bitmap (dense→sparse
                    // conversion kernel). Population larger than the
                    // list re-overflows and we stay dense.
                    self.reset_list_flags();
                    convert::sparsify(
                        q,
                        self.inner.words(),
                        self.list.items(),
                        self.list.size_buffer(),
                        &self.overflow,
                    );
                    if self.overflow.load(0) != 0 {
                        self.mode.store(0, Ordering::Relaxed);
                        self.maintain.store(0, Ordering::Relaxed);
                        return RepKind::Dense;
                    }
                }
                self.mode.store(1, Ordering::Relaxed);
                self.maintain.store(1, Ordering::Relaxed);
                RepKind::Sparse
            }
        }
    }

    /// Word-wise writes bypassed the insert path: re-derive the second
    /// layer now, mark the list stale until the next sparse adoption.
    fn rebuild_from_words(&self, q: &Queue) {
        crate::frontier::ops::rebuild_layer2(q, &self.inner);
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
    fn tracks_list_while_small_and_overflows_gracefully() {
        let q = queue();
        let n = 4096;
        let f = HybridFrontier::<u32>::new(&q, n).unwrap();
        assert_eq!(sparse_capacity(n), 512);
        q.parallel_for("ins", 100, |ctx, i| {
            f.insert_lane(ctx, i as u32 * 3);
        });
        assert_eq!(f.adopt_rep(&q, RepKind::Sparse), RepKind::Sparse);
        assert_eq!(f.sparse_view(&q).unwrap().len, 100);
        f.dense().check_invariant().unwrap();
        // now blow past the list capacity
        q.parallel_for("ins2", n, |ctx, i| {
            f.insert_lane(ctx, i as u32);
        });
        assert_eq!(
            f.adopt_rep(&q, RepKind::Sparse),
            RepKind::Dense,
            "overflowed population refuses sparse"
        );
        assert!(f.sparse_view(&q).is_none());
        assert_eq!(f.count(&q), n);
    }

    #[test]
    fn sparse_lazy_clear_empties_both_layers() {
        let q = queue();
        let f = HybridFrontier::<u64>::new(&q, 100_000).unwrap();
        for v in [1u32, 63, 64, 9_999, 77_777] {
            f.insert_host(v);
        }
        f.adopt_rep(&q, RepKind::Sparse);
        f.lazy_clear(&q);
        f.dense().check_invariant().unwrap();
        assert!(f.is_empty(&q));
        let (nz, _) = f.compact(&q).unwrap();
        assert_eq!(nz, 0);
        // usable afterwards
        f.insert_host(5);
        assert_eq!(f.to_sorted_vec(), vec![5]);
    }

    #[test]
    fn fill_all_goes_dense() {
        let q = queue();
        let f = HybridFrontier::<u32>::new(&q, 1000).unwrap();
        f.fill_all(&q);
        assert_eq!(f.adopt_rep(&q, RepKind::Sparse), RepKind::Dense);
        assert_eq!(f.count(&q), 1000);
        f.dense().check_invariant().unwrap();
    }

    #[test]
    fn adopt_rebuilds_after_removal() {
        let q = queue();
        let f = HybridFrontier::<u32>::new(&q, 640).unwrap();
        for v in 0..10u32 {
            f.insert_host(v);
        }
        q.parallel_for("rm", 1, |ctx, _| f.remove_lane(ctx, 4));
        assert!(f.sparse_view(&q).is_none(), "stale list withdrawn");
        assert_eq!(f.adopt_rep(&q, RepKind::Sparse), RepKind::Sparse);
        let view = f.sparse_view(&q).unwrap();
        assert_eq!(view.len, 9);
        f.dense().check_invariant().unwrap();
    }

    #[test]
    fn dense_mode_lazy_clear_uses_compaction() {
        let q = queue();
        let f = HybridFrontier::<u32>::new(&q, 10_000).unwrap();
        f.fill_all(&q); // overflow → dense
        f.adopt_rep(&q, RepKind::Dense);
        f.compact(&q).unwrap();
        f.lazy_clear(&q);
        f.dense().check_invariant().unwrap();
        assert!(f.is_empty(&q));
    }

    #[test]
    fn host_seed_then_device_growth_stays_consistent() {
        let q = queue();
        let f = HybridFrontier::<u32>::new(&q, 2048).unwrap();
        f.insert_host(7);
        f.insert_host(7); // idempotent
        f.adopt_rep(&q, RepKind::Sparse);
        assert_eq!(f.sparse_view(&q).unwrap().len, 1);
        q.parallel_for("grow", 50, |ctx, i| {
            f.insert_lane(ctx, 100 + i as u32);
        });
        assert_eq!(f.count(&q), 51);
        f.dense().check_invariant().unwrap();
    }
}
