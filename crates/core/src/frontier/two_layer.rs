//! The Two-Layer Bitmap (2LB) frontier — the paper's §4.3 contribution.
//!
//! On top of the first-layer bitmap, a second layer holds one bit per
//! first-layer word, set whenever that word is non-zero. Before each
//! `advance`, a compaction kernel maps GPU threads onto second-layer words
//! and appends the offsets of non-zero first-layer words to a global
//! buffer; the advance then only schedules workgroups over those offsets,
//! so all-zero words (Figure 5a) never waste a workgroup.

use sygraph_sim::{DeviceBuffer, ItemCtx, Queue, SubgroupCtx, MAX_SUBGROUP};

use crate::frontier::bitmap::BitmapStorage;
use crate::frontier::convert;
use crate::frontier::word::{locate, slab_mask, words_for, zero_run, Word};
use crate::frontier::{BitmapLike, ClearUnits, Frontier};
use crate::types::VertexId;

/// Two-layer bitmap frontier over `n` vertices.
///
/// Size: `⌈n/b⌉` first-layer words plus `⌈n/b²⌉` second-layer words plus
/// the offsets buffer — still a small constant factor over one bit per
/// vertex.
pub struct TwoLayerFrontier<W: Word> {
    storage: BitmapStorage<W>,
    layer2: DeviceBuffer<W>,
    offsets: DeviceBuffer<u32>,
    offsets_count: DeviceBuffer<u32>,
}

impl<W: Word> TwoLayerFrontier<W> {
    /// Creates an empty frontier over `n` vertices.
    pub fn new(q: &Queue, n: usize) -> sygraph_sim::SimResult<Self> {
        let storage = BitmapStorage::new(q, n)?;
        let nw = storage.num_words();
        Ok(TwoLayerFrontier {
            storage,
            layer2: q.malloc_device::<W>(words_for::<W>(nw))?,
            offsets: q.malloc_device::<u32>(nw)?,
            offsets_count: q.malloc_device::<u32>(1)?,
        })
    }

    /// Device bytes held by this frontier: the sum of every constituent
    /// buffer — first layer (words + count scratch), second layer, offsets
    /// buffer and its count.
    pub fn device_bytes(&self) -> u64 {
        self.storage.device_bytes()
            + self.layer2.bytes()
            + self.offsets.bytes()
            + self.offsets_count.bytes()
    }

    /// The second-layer word array.
    pub fn layer2(&self) -> &DeviceBuffer<W> {
        &self.layer2
    }

    /// The counted-compaction scratch `(offsets, count)` from the last
    /// [`BitmapLike::compact`]. The lane-frontier overlay reuses it to
    /// lazily clear exactly the lane words shadowing non-zero union words.
    pub(crate) fn compaction_buffers(&self) -> (&DeviceBuffer<u32>, &DeviceBuffer<u32>) {
        (&self.offsets, &self.offsets_count)
    }

    /// Checks the 2LB invariant host-side: second-layer bit `i` is set iff
    /// first-layer word `i` is non-zero. Used by tests and debug builds.
    pub fn check_invariant(&self) -> Result<(), String> {
        let words = self.storage.words.to_vec();
        let l2 = self.layer2.to_vec();
        for (wi, w) in words.iter().enumerate() {
            let (l2i, l2b) = locate::<W>(wi as u32);
            let marked = l2[l2i].test_bit(l2b);
            if !w.is_zero() && !marked {
                return Err(format!("word {wi} non-zero but layer2 bit clear"));
            }
            if w.is_zero() && marked {
                return Err(format!("word {wi} zero but layer2 bit set"));
            }
        }
        Ok(())
    }
}

impl<W: Word> Frontier for TwoLayerFrontier<W> {
    fn capacity(&self) -> usize {
        self.storage.len()
    }

    fn insert_host(&self, v: VertexId) {
        let old = self.storage.insert_host(v);
        if old.is_zero() {
            let (wi, _) = locate::<W>(v);
            let (l2i, l2b) = locate::<W>(wi as u32);
            self.layer2.fetch_or(l2i, W::one_bit(l2b));
        }
    }

    fn contains_host(&self, v: VertexId) -> bool {
        self.storage.contains_host(v)
    }

    /// Single fused kernel clearing both layers (the 2LB layout keeps
    /// frontier maintenance to one launch per superstep).
    fn clear(&self, q: &Queue) {
        let words = &self.storage.words;
        let layer2 = &self.layer2;
        let l2_len = layer2.len();
        q.parallel_for("frontier_clear", words.len(), |lane, i| {
            lane.store(words, i, W::ZERO);
            if i < l2_len {
                lane.store(layer2, i, W::ZERO);
            }
        });
    }

    fn count(&self, q: &Queue) -> usize {
        self.storage.count_kernel(q, "frontier_count")
    }

    /// Emptiness via the second layer only — `⌈n/b²⌉` words instead of
    /// `⌈n/b⌉`, one of the 2LB layout's cheap wins.
    fn is_empty(&self, q: &Queue) -> bool {
        let layer2 = &self.layer2;
        let flag = &self.offsets_count;
        flag.store(0, 0);
        q.parallel_for("frontier_empty_check", layer2.len(), |lane, i| {
            if !lane.load(layer2, i).is_zero() {
                // fetch_or: many lanes may raise the flag concurrently.
                lane.fetch_or(flag, 0, 1);
            }
        });
        flag.load(0) == 0
    }

    fn to_sorted_vec(&self) -> Vec<VertexId> {
        self.storage.to_sorted_vec()
    }

    fn fill_all(&self, q: &Queue) {
        self.storage.fill_all_kernel(q);
        // Rebuild the second layer to match: exactly the words that hold
        // at least one valid vertex are non-zero.
        let num_words = (self.storage.len() as u32).div_ceil(W::BITS);
        let layer2 = &self.layer2;
        q.parallel_for("layer2_fill_all", self.layer2.len(), |lane, i| {
            let first = i as u32 * W::BITS;
            let w = if first + W::BITS <= num_words {
                W::ZERO.not()
            } else if first >= num_words {
                W::ZERO
            } else {
                let mut m = W::ZERO;
                for b in 0..(num_words - first) {
                    m = m.or(W::one_bit(b));
                }
                m
            };
            lane.store(layer2, i, w);
        });
    }
}

impl<W: Word> BitmapLike<W> for TwoLayerFrontier<W> {
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
        if old.is_zero() {
            // First bit of this word: mark it in the second layer.
            let (l2i, l2b) = locate::<W>(wi as u32);
            lane.fetch_or(&self.layer2, l2i, W::one_bit(l2b));
        }
        !old.test_bit(b)
    }

    fn remove_lane(&self, lane: &mut ItemCtx<'_>, v: VertexId) {
        let (wi, b) = locate::<W>(v);
        let old = lane.fetch_and(&self.storage.words, wi, W::one_bit(b).not());
        let new = old.and(W::one_bit(b).not());
        if new.is_zero() && !old.is_zero() {
            // Word became empty: reset the second-layer bit (§4.3).
            let (l2i, l2b) = locate::<W>(wi as u32);
            lane.fetch_and(&self.layer2, l2i, W::one_bit(l2b).not());
        }
    }

    /// The pre-advance compaction kernel: one lane per second-layer
    /// word, appending the offsets of its set bits (= non-zero first-layer
    /// words) to the offsets buffer, one reservation per subgroup
    /// ([`convert::append_set_bits`]).
    fn compact(&self, q: &Queue) -> Option<(usize, &DeviceBuffer<u32>)> {
        self.offsets_count.store(0, 0);
        convert::append_set_bits(
            q,
            "frontier_compact",
            &self.layer2,
            &self.offsets,
            &self.offsets_count,
            None,
        );
        Some((self.offsets_count.load(0) as usize, &self.offsets))
    }

    /// Lazy clear (superstep engine, §4.3 discussion): instead of sweeping
    /// all `⌈n/b⌉` first-layer words, zero only the words the last
    /// [`BitmapLike::compact`] found non-zero, plus the (much smaller)
    /// second layer: `max(nz, ⌈n/b²⌉)` lanes versus `⌈n/b⌉` — on sparse
    /// frontiers a handful of words instead of the whole bitmap.
    fn lazy_clear_units(&self) -> Option<ClearUnits<'_>> {
        let nz = self.offsets_count.load(0) as usize;
        let (words, layer2, offsets) = (&self.storage.words, &self.layer2, &self.offsets);
        let l2_len = layer2.len();
        let body = move |sg: &mut SubgroupCtx<'_, '_>, first: usize| {
            let sgw = sg.width() as usize;
            if first < nz {
                let mask = slab_mask(sgw, first, nz);
                let mut at = [0usize; MAX_SUBGROUP];
                sg.load(
                    offsets,
                    mask,
                    |lane| first + lane as usize,
                    |lane, wi| at[lane as usize] = wi as usize,
                );
                sg.store(words, mask, |lane| (at[lane as usize], W::ZERO));
            }
            if first < l2_len {
                zero_run(sg, layer2, first, l2_len.min(first + sgw));
            }
        };
        Some(ClearUnits::new("frontier_lazy_clear", nz.max(l2_len), body))
    }

    fn empty_like(&self, q: &Queue) -> Option<Box<dyn BitmapLike<W>>> {
        Some(Box::new(Self::new(q, self.capacity()).ok()?))
    }

    /// Recomputes the second layer from the (rewritten) first layer.
    fn rebuild_from_words(&self, q: &Queue) {
        crate::frontier::ops::rebuild_layer2(q, self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontier::bucket::{self, BucketPool, BucketSpec, DegreeOf};
    use sygraph_sim::{Device, DeviceProfile};

    fn queue() -> Queue {
        Queue::new(Device::new(DeviceProfile::host_test()))
    }

    #[test]
    fn device_bytes_equals_sum_of_constituent_buffers() {
        let q = queue();
        let allocated = || {
            q.profiler().fold(0i64, |sum, e| match e.kind {
                sygraph_sim::TraceKind::Mem { delta_bytes, .. } => sum + delta_bytes,
                _ => sum,
            })
        };
        let before = allocated();
        let f = TwoLayerFrontier::<u32>::new(&q, 10_000).unwrap();
        let after = allocated();
        assert_eq!(
            f.device_bytes(),
            (after - before) as u64,
            "device_bytes must account for every constituent allocation \
             (words + count scratch + layer2 + offsets + offsets count)"
        );
        // And against the layout formula directly: the offsets count is a
        // real u32 buffer, not a hard-coded constant.
        let nw = 10_000usize.div_ceil(32);
        let expected = (nw * 4) + 4 + (nw.div_ceil(32) * 4) + (nw * 4) + 4;
        assert_eq!(f.device_bytes(), expected as u64);
    }

    #[test]
    fn insert_maintains_layer2() {
        let q = queue();
        let f = TwoLayerFrontier::<u32>::new(&q, 10_000).unwrap();
        for v in [0, 1, 64, 999, 5000] {
            f.insert_host(v);
        }
        f.check_invariant().unwrap();
        assert_eq!(f.count(&q), 5);
        assert_eq!(f.to_sorted_vec(), vec![0, 1, 64, 999, 5000]);
    }

    #[test]
    fn compact_yields_nonzero_word_offsets() {
        let q = queue();
        let f = TwoLayerFrontier::<u32>::new(&q, 10_000).unwrap();
        // vertices in words 0, 2, and 100
        f.insert_host(5);
        f.insert_host(6);
        f.insert_host(70);
        f.insert_host(3205);
        let (n, offsets) = f.compact(&q).unwrap();
        assert_eq!(n, 3);
        let mut offs = offsets.to_vec()[..n].to_vec();
        offs.sort_unstable();
        assert_eq!(offs, vec![0, 2, 100]);
    }

    #[test]
    fn compact_empty_frontier() {
        let q = queue();
        let f = TwoLayerFrontier::<u64>::new(&q, 1000).unwrap();
        let (n, _) = f.compact(&q).unwrap();
        assert_eq!(n, 0);
    }

    #[test]
    fn device_insert_sets_layer2_once() {
        let q = queue();
        let f = TwoLayerFrontier::<u32>::new(&q, 4096).unwrap();
        q.parallel_for("ins", 4096, |ctx, v| {
            if v % 3 == 0 {
                f.insert_lane(ctx, v as u32);
            }
        });
        f.check_invariant().unwrap();
        assert_eq!(f.count(&q), 4096 / 3 + 1);
    }

    #[test]
    fn device_remove_clears_layer2_when_word_empties() {
        let q = queue();
        let f = TwoLayerFrontier::<u32>::new(&q, 128).unwrap();
        f.insert_host(40); // word 1, alone
        f.insert_host(0);
        f.insert_host(1); // word 0, two bits
        q.parallel_for("rm", 1, |ctx, _| {
            f.remove_lane(ctx, 40);
            f.remove_lane(ctx, 0);
        });
        f.check_invariant().unwrap();
        assert_eq!(f.to_sorted_vec(), vec![1]);
    }

    #[test]
    fn lazy_clear_after_compact_empties_frontier() {
        let q = queue();
        let f = TwoLayerFrontier::<u32>::new(&q, 10_000).unwrap();
        f.insert_host(5);
        f.insert_host(70);
        f.insert_host(3205);
        f.compact(&q).unwrap();
        f.lazy_clear(&q);
        f.check_invariant().unwrap();
        assert!(f.is_empty(&q));
        let (nz, _) = f.compact(&q).unwrap();
        assert_eq!(nz, 0);
        // the frontier stays fully usable afterwards
        f.insert_host(42);
        assert_eq!(f.to_sorted_vec(), vec![42]);
    }

    #[test]
    fn insert_lane_checked_reports_first_insert_only() {
        let q = queue();
        let f = TwoLayerFrontier::<u32>::new(&q, 128).unwrap();
        let firsts = q.malloc_device::<u32>(1).unwrap();
        q.parallel_for("ins", 8, |ctx, _| {
            if f.insert_lane_checked(ctx, 7) {
                ctx.fetch_add(&firsts, 0, 1);
            }
        });
        assert_eq!(firsts.load(0), 1, "exactly one lane saw the fresh bit");
        assert_eq!(f.to_sorted_vec(), vec![7]);
    }

    #[test]
    fn clear_resets_both_layers() {
        let q = queue();
        let f = TwoLayerFrontier::<u64>::new(&q, 5000).unwrap();
        for v in 0..1000 {
            f.insert_host(v);
        }
        f.clear(&q);
        f.check_invariant().unwrap();
        assert!(f.is_empty(&q));
        let (n, _) = f.compact(&q).unwrap();
        assert_eq!(n, 0);
    }

    #[test]
    fn fill_all_activates_everything() {
        let q = queue();
        let f = TwoLayerFrontier::<u32>::new(&q, 1000).unwrap();
        f.fill_all(&q);
        f.check_invariant().unwrap();
        assert_eq!(f.count(&q), 1000);
        let (nz, _) = f.compact(&q).unwrap();
        assert_eq!(nz, 1000_usize.div_ceil(32));
        assert!(f.contains_host(999));
    }

    #[test]
    fn fill_all_exact_word_boundary() {
        let q = queue();
        let f = TwoLayerFrontier::<u64>::new(&q, 128).unwrap();
        f.fill_all(&q);
        f.check_invariant().unwrap();
        assert_eq!(f.count(&q), 128);
    }

    #[test]
    fn compact_binned_partitions_by_degree() {
        let q = queue();
        let f = TwoLayerFrontier::<u32>::new(&q, 256).unwrap();
        for v in [2, 10, 40, 200] {
            f.insert_host(v);
        }
        let spec = BucketSpec {
            small_max: 4,
            large_min: 32,
            chunk: 32,
        };
        let pool = BucketPool::new(&q, 256, 4096, &spec).unwrap();
        // degree = vertex id: 2 small, 10 medium, 40 → 2 chunks,
        // 200 → 7 chunks
        let (nz, offsets) = f.compact(&q).unwrap();
        let degree_is_id: DegreeOf<'_> = &|lane, v| {
            lane.compute(1);
            v
        };
        let counts = bucket::bin_compacted(&q, f.words(), offsets, nz, &pool, degree_is_id, &spec);
        // vertices 2 and 10 share word 0; 40 is in word 1, 200 in word 6
        assert_eq!(nz, 3);
        assert_eq!(counts.small, 1);
        assert_eq!(counts.medium, 1);
        assert_eq!(counts.large, 2 + 7);
    }

    #[test]
    fn u64_locate_consistency() {
        let q = queue();
        let f = TwoLayerFrontier::<u64>::new(&q, 100_000).unwrap();
        f.insert_host(99_999);
        f.check_invariant().unwrap();
        assert!(f.contains_host(99_999));
        let (n, offsets) = f.compact(&q).unwrap();
        assert_eq!(n, 1);
        assert_eq!(offsets.load(0), 99_999 / 64);
    }
}
