//! W-lane frontier for batched multi-source traversal (MS-BFS-style
//! bit-packing, ROADMAP item 2).
//!
//! A [`LaneFrontier`] packs a `width`-bit *source-lane mask* per vertex
//! beside an ordinary two-layer union bitmap: bit `l` of vertex `v`'s mask
//! says "`v` is on source `l`'s frontier". One advance pass over the
//! *union* frontier then expands up to `width` concurrent rooted
//! traversals — the per-edge cost is one lane-word load plus bitwise mask
//! arithmetic, shared across every source whose wavefront happens to pass
//! through that edge this superstep.
//!
//! Layout: lane masks live in a flat `u64` array, `64 / width` vertices
//! per word (`width` ∈ {8, 16, 32, 64}, so masks never straddle words).
//! The union bitmap is the ordinary [`TwoLayerFrontier`]: vertex `v` is
//! set iff its lane mask is non-zero, so the engine's counted compaction,
//! bucketed balancing and push/pull direction machinery all apply to the
//! batched advance unchanged.
//!
//! The division of labour with the engine: the [`BitmapLike`] insert
//! family touches the *union* layer only; lane masks are written by the
//! engine's multi-source wrapper (an atomic OR of the accept mask into
//! the destination's lane word, in the same kernel as the union insert)
//! or host-side via [`BitmapLike::insert_host_masked`].

use sygraph_sim::{DeviceBuffer, ItemCtx, Queue};

use crate::frontier::two_layer::TwoLayerFrontier;
use crate::frontier::word::{zero_run, Word};
use crate::frontier::{BitmapLike, Frontier};
use crate::types::VertexId;

/// Locates vertex `v`'s lane mask: `(word index, bit shift)` into the
/// packed `u64` lane array for a frontier of `width` lanes per vertex.
#[inline]
pub fn lane_locate(v: VertexId, width: u32) -> (usize, u32) {
    let bit = v as u64 * width as u64;
    ((bit >> 6) as usize, (bit & 63) as u32)
}

/// Number of `u64` lane words needed for `n` vertices at `width` lanes
/// per vertex.
#[inline]
pub fn lane_words(n: usize, width: u32) -> usize {
    (n * width as usize).div_ceil(64)
}

/// A non-owning view of a frontier's packed lane masks — cheap aliases
/// of the underlying buffers, safe to move into advance functors without
/// borrowing the frontier itself.
pub struct LaneView {
    /// Bit-packed lane words (`64 / width` vertices per word).
    pub lanes: DeviceBuffer<u64>,
    /// Lanes per vertex: 8, 16, 32 or 64.
    pub width: u32,
}

impl Clone for LaneView {
    fn clone(&self) -> Self {
        LaneView {
            lanes: self.lanes.alias(),
            width: self.width,
        }
    }
}

impl LaneView {
    /// All-ones mask over `width` lanes.
    #[inline]
    pub fn mask_all(width: u32) -> u64 {
        if width == 64 {
            u64::MAX
        } else {
            (1u64 << width) - 1
        }
    }

    /// Host-side read of vertex `v`'s lane mask.
    pub fn host_mask(&self, v: VertexId) -> u64 {
        let (w, s) = lane_locate(v, self.width);
        (self.lanes.load(w) >> s) & Self::mask_all(self.width)
    }
}

/// Two-layer union bitmap plus a `width`-bit lane mask per vertex (see
/// the module docs). Always presents as `Dense` to the representation
/// policy: the lane overlay has no sparse item list, and `adopt_rep`'s
/// default refusal keeps the engine's policy honest about it.
///
/// It also declines to be the engine's spare ([`BitmapLike::empty_like`]
/// stays `None`), so a batched engine rotates a pair and launches
/// `lane_lazy_clear` at every rotate: a third `n × width / 8` overlay is
/// +1.2 % of a 32-lane batch's device peak, most of the benchmark's 0.02
/// `dev_mem_peak_mb` bound, for a kernel that is 5 % of a batch (ROADMAP
/// item 3 carries the re-baseline that would lift this).
pub struct LaneFrontier<W: Word> {
    base: TwoLayerFrontier<W>,
    lanes: DeviceBuffer<u64>,
    width: u32,
}

impl<W: Word> LaneFrontier<W> {
    /// Creates an empty `width`-lane frontier over `n` vertices.
    /// `width` must be one of 8, 16, 32, 64 (masks never straddle lane
    /// words, and whole union words map to whole runs of lane words).
    pub fn new(q: &Queue, n: usize, width: u32) -> sygraph_sim::SimResult<Self> {
        assert!(
            matches!(width, 8 | 16 | 32 | 64),
            "lane width must be 8, 16, 32 or 64 (got {width})"
        );
        Ok(LaneFrontier {
            base: TwoLayerFrontier::new(q, n)?,
            lanes: q.malloc_device::<u64>(lane_words(n, width).max(1))?,
            width,
        })
    }

    /// Lanes per vertex.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Device bytes held: the union two-layer bitmap plus the lane array.
    pub fn device_bytes(&self) -> u64 {
        self.base.device_bytes() + self.lanes.bytes()
    }

    /// Checks the overlay invariant host-side: a vertex's union bit is
    /// set iff its lane mask is non-zero. (The engine's wrapper inserts
    /// the union bit in the same kernel as the lane OR, so the two can
    /// only diverge through a bug.)
    pub fn check_invariant(&self) -> Result<(), String> {
        self.base.check_invariant()?;
        let members = self.base.to_sorted_vec();
        let view = LaneView {
            lanes: self.lanes.alias(),
            width: self.width,
        };
        for v in 0..self.base.capacity() as u32 {
            let mask = view.host_mask(v);
            let in_union = members.binary_search(&v).is_ok();
            if mask != 0 && !in_union {
                return Err(format!(
                    "vertex {v}: lane mask {mask:#x} but union bit clear"
                ));
            }
            if mask == 0 && in_union {
                return Err(format!("vertex {v}: union bit set but lane mask zero"));
            }
        }
        Ok(())
    }
}

impl<W: Word> Frontier for LaneFrontier<W> {
    fn capacity(&self) -> usize {
        self.base.capacity()
    }

    /// Host-side insert lands on lane 0 — the single-source degenerate
    /// case. Multi-source seeding goes through
    /// [`BitmapLike::insert_host_masked`].
    fn insert_host(&self, v: VertexId) {
        self.insert_host_masked(v, 1);
    }

    fn contains_host(&self, v: VertexId) -> bool {
        self.base.contains_host(v)
    }

    fn clear(&self, q: &Queue) {
        let lanes = &self.lanes;
        q.parallel_for("lane_clear", lanes.len(), |lane, i| {
            lane.store(lanes, i, 0u64);
        });
        self.base.clear(q);
    }

    fn count(&self, q: &Queue) -> usize {
        self.base.count(q)
    }

    fn is_empty(&self, q: &Queue) -> bool {
        self.base.is_empty(q)
    }

    fn to_sorted_vec(&self) -> Vec<VertexId> {
        self.base.to_sorted_vec()
    }

    /// Activates every vertex on every lane (all `width` bits set).
    fn fill_all(&self, q: &Queue) {
        let n = self.base.capacity();
        let width = self.width;
        let vpw = (64 / width) as usize; // vertices per lane word
        let lanes = &self.lanes;
        q.parallel_for("lane_fill_all", lanes.len(), |lane, i| {
            let first = i * vpw;
            let valid = n.saturating_sub(first).min(vpw) as u32;
            let bits = valid * width;
            let m = if bits >= 64 {
                u64::MAX
            } else {
                (1u64 << bits) - 1
            };
            lane.store(lanes, i, m);
        });
        self.base.fill_all(q);
    }
}

impl<W: Word> BitmapLike<W> for LaneFrontier<W> {
    fn num_words(&self) -> usize {
        self.base.num_words()
    }

    fn words(&self) -> &DeviceBuffer<W> {
        self.base.words()
    }

    /// Union-layer insert only — lane masks are the multi-source
    /// wrapper's responsibility (see the module docs).
    fn insert_lane(&self, lane: &mut ItemCtx<'_>, v: VertexId) {
        self.base.insert_lane(lane, v);
    }

    fn insert_lane_checked(&self, lane: &mut ItemCtx<'_>, v: VertexId) -> bool {
        self.base.insert_lane_checked(lane, v)
    }

    /// Removes the vertex from the union layer *and* zeroes its whole
    /// lane mask.
    fn remove_lane(&self, lane: &mut ItemCtx<'_>, v: VertexId) {
        let (w, s) = lane_locate(v, self.width);
        lane.fetch_and(&self.lanes, w, !(LaneView::mask_all(self.width) << s));
        self.base.remove_lane(lane, v);
    }

    fn compact(&self, q: &Queue) -> Option<(usize, &DeviceBuffer<u32>)> {
        self.base.compact(q)
    }

    /// Lazy clear extended to the lane overlay, one launch for all three
    /// layers: a subgroup takes one union word the last
    /// [`BitmapLike::compact`] found non-zero, zeroes it, and its lanes
    /// store zeros over the *consecutive* lane words shadowing it (the
    /// overlay invariant guarantees no lane bits live outside them); the
    /// subgroups past the offsets zero the second layer. Alignment holds
    /// because `W::BITS × width` is always a multiple of 64.
    fn lazy_clear(&self, q: &Queue) {
        let (offsets, count) = self.base.compaction_buffers();
        let nz = count.load(0) as usize;
        // Lane words per union word: W::BITS vertices × width bits / 64.
        let lwpu = (W::BITS * self.width / 64) as usize;
        let (words, layer2, lanes) = (self.base.words(), self.base.layer2(), &self.lanes);
        let sgw = q.profile().preferred_subgroup as usize;
        let units = nz + layer2.len().div_ceil(sgw);
        q.parallel_for_subgroups("lane_lazy_clear", units, |sg, unit| {
            if unit < nz {
                let wi = sg.load_uniform(offsets, unit) as usize;
                sg.store_uniform(words, wi, W::ZERO);
                zero_run(sg, lanes, wi * lwpu, lanes.len().min((wi + 1) * lwpu));
            } else {
                let first = (unit - nz) * sgw;
                zero_run(sg, layer2, first, layer2.len().min(first + sgw));
            }
        });
    }

    fn rebuild_from_words(&self, q: &Queue) {
        self.base.rebuild_from_words(q);
    }

    fn lane_view(&self) -> Option<LaneView> {
        Some(LaneView {
            lanes: self.lanes.alias(),
            width: self.width,
        })
    }

    fn insert_host_masked(&self, v: VertexId, mask: u64) {
        let m = mask & LaneView::mask_all(self.width);
        if m == 0 {
            return;
        }
        let (w, s) = lane_locate(v, self.width);
        self.lanes.fetch_or(w, m << s);
        self.base.insert_host(v);
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
    fn lane_locate_packs_without_straddling() {
        // 8 lanes: 8 vertices per word.
        assert_eq!(lane_locate(0, 8), (0, 0));
        assert_eq!(lane_locate(7, 8), (0, 56));
        assert_eq!(lane_locate(8, 8), (1, 0));
        // 64 lanes: one vertex per word.
        assert_eq!(lane_locate(3, 64), (3, 0));
        assert_eq!(lane_words(100, 32), 50);
        assert_eq!(lane_words(3, 64), 3);
        assert_eq!(lane_words(9, 8), 2);
    }

    #[test]
    fn masked_insert_roundtrips_and_keeps_union_in_sync() {
        let q = queue();
        let f = LaneFrontier::<u32>::new(&q, 1000, 16).unwrap();
        f.insert_host_masked(5, 0b1010);
        f.insert_host_masked(5, 0b0001);
        f.insert_host_masked(999, 1 << 15);
        let view = f.lane_view().unwrap();
        assert_eq!(view.host_mask(5), 0b1011);
        assert_eq!(view.host_mask(999), 1 << 15);
        assert_eq!(view.host_mask(6), 0);
        assert_eq!(f.to_sorted_vec(), vec![5, 999]);
        f.check_invariant().unwrap();
    }

    #[test]
    fn mask_is_truncated_to_width() {
        let q = queue();
        let f = LaneFrontier::<u64>::new(&q, 64, 8).unwrap();
        f.insert_host_masked(3, u64::MAX);
        assert_eq!(f.lane_view().unwrap().host_mask(3), 0xFF);
        // Neighbour masks in the same word must be untouched.
        assert_eq!(f.lane_view().unwrap().host_mask(2), 0);
        assert_eq!(f.lane_view().unwrap().host_mask(4), 0);
        // An all-out-of-width mask inserts nothing.
        let g = LaneFrontier::<u64>::new(&q, 64, 8).unwrap();
        g.insert_host_masked(3, 0xFF00);
        assert!(g.to_sorted_vec().is_empty());
    }

    #[test]
    fn clear_and_lazy_clear_reset_lane_words() {
        let q = queue();
        for width in [8u32, 16, 32, 64] {
            let f = LaneFrontier::<u32>::new(&q, 500, width).unwrap();
            for v in [0u32, 33, 150, 499] {
                f.insert_host_masked(v, 0b11);
            }
            // Lazy path: compact first (as the engine does pre-advance).
            f.compact(&q);
            f.lazy_clear(&q);
            f.check_invariant().unwrap();
            assert!(f.is_empty(&q));
            for v in [0u32, 33, 150, 499] {
                assert_eq!(f.lane_view().unwrap().host_mask(v), 0, "width {width}");
            }
            // Full clear path.
            f.insert_host_masked(42, 1);
            f.clear(&q);
            assert!(f.is_empty(&q));
            assert_eq!(f.lane_view().unwrap().host_mask(42), 0);
        }
    }

    #[test]
    fn fill_all_sets_every_lane_of_every_vertex() {
        let q = queue();
        let f = LaneFrontier::<u32>::new(&q, 70, 16).unwrap();
        f.fill_all(&q);
        f.check_invariant().unwrap();
        assert_eq!(f.count(&q), 70);
        let view = f.lane_view().unwrap();
        assert_eq!(view.host_mask(0), 0xFFFF);
        assert_eq!(view.host_mask(69), 0xFFFF);
    }

    #[test]
    fn remove_lane_zeroes_the_whole_mask() {
        let q = queue();
        let f = LaneFrontier::<u32>::new(&q, 64, 32).unwrap();
        f.insert_host_masked(1, 0xF0F0);
        f.insert_host_masked(2, 0x1);
        q.parallel_for("rm", 1, |ctx, _| {
            f.remove_lane(ctx, 1);
        });
        assert_eq!(f.lane_view().unwrap().host_mask(1), 0);
        assert_eq!(f.lane_view().unwrap().host_mask(2), 1);
        assert_eq!(f.to_sorted_vec(), vec![2]);
        f.check_invariant().unwrap();
    }

    #[test]
    fn device_wrapper_style_or_composes_with_union_insert() {
        // Mimic the engine's multi-source wrapper: lane OR + union insert
        // in one kernel, then verify the overlay invariant.
        let q = queue();
        let f = LaneFrontier::<u32>::new(&q, 256, 8).unwrap();
        let view = f.lane_view().unwrap();
        let lanes = view.lanes;
        q.parallel_for("wrap", 256, |ctx, v| {
            if v % 5 == 0 {
                let (w, s) = lane_locate(v as u32, 8);
                let old = ctx.fetch_or(&lanes, w, 0b11u64 << s);
                if 0b11 & !(old >> s) != 0 {
                    f.insert_lane_checked(ctx, v as u32);
                }
            }
        });
        f.check_invariant().unwrap();
        assert_eq!(f.count(&q), 256 / 5 + 1);
        assert_eq!(f.lane_view().unwrap().host_mask(10), 0b11);
    }
}
