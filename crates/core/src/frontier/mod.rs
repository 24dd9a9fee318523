//! Frontier data layouts.
//!
//! The frontier — the set of active vertices of a superstep — is the
//! paper's central data structure. Four layouts are provided:
//!
//! * [`TwoLayerFrontier`] — the paper's contribution (§4.3): a bitmap plus
//!   a second bitmap layer marking non-empty words, compacted into an
//!   offsets buffer before each `advance` so workgroups only visit
//!   non-zero words.
//! * [`BitmapFrontier`] — the single-layer bitmap of §4.1 (the ablation
//!   baseline of Figure 7).
//! * [`BoolmapFrontier`] — one byte per vertex, as in Grus; 8× the memory
//!   of a bitmap (§4.1 discussion).
//! * [`VectorFrontier`] — the Gunrock-style append vector used by the
//!   baseline frameworks (duplicates allowed, post-processing required).
//! * [`SparseFrontier`] — a duplicate-free item list (dedup-on-insert via a
//!   visited bitmap): advance cost proportional to the frontier population
//!   instead of the bitmap extent.
//! * [`HybridFrontier`] — two-layer bitmap plus a bounded item list,
//!   switching representation per superstep (GraphBLAST-style
//!   sparse/dense masks behind Gunrock's one-frontier-object API).

pub mod bitmap;
pub mod boolmap;
pub mod bucket;
pub mod convert;
pub mod exchange;
pub mod hybrid;
pub mod lanes;
pub mod ops;
pub mod rep;
pub mod sparse;
pub mod two_layer;
pub mod vector;
pub mod word;

pub use bitmap::BitmapFrontier;
pub use boolmap::BoolmapFrontier;
pub use bucket::{BucketCounts, BucketPool, BucketSpec};
pub use exchange::{ChannelMail, ExchangeConfig, ExchangeTally, FrontierExchange, HaloMsg};
pub use hybrid::HybridFrontier;
pub use lanes::{lane_locate, lane_words, LaneFrontier, LaneView};
pub use rep::{RepKind, SparseView};
pub use sparse::SparseFrontier;
pub use two_layer::TwoLayerFrontier;
pub use vector::VectorFrontier;
pub use word::{locate, words_for, Word};

use sygraph_sim::{DeviceBuffer, ItemCtx, Queue, SubgroupCtx};

use crate::types::VertexId;

/// Profiler names of the frontier-maintenance kernels (everything a
/// superstep launches besides `advance*` and the algorithm's own
/// compute), each with who pays for it: the dense bitmap
/// (`two_layer`), the sparse item list (`sparse`, `hybrid`, `convert`)
/// or the pull direction's unvisited set (`engine`).
const MAINTENANCE_KERNELS: [(&str, &str); 5] = [
    ("frontier_compact", "dense"),
    ("frontier_lazy_clear", "dense"),
    ("frontier_sparsify", "sparse"),
    ("frontier_sparse_lazy_clear", "sparse"),
    ("unvisited_subtract", "pull"),
];

/// Who pays for the maintenance kernel `name` (`dense|sparse|pull`);
/// `None` for every other kernel. The CLI's `--profile` split and the
/// bench's pipeline-cycle sums both read the table through this.
pub fn maintenance_payer(name: &str) -> Option<&'static str> {
    MAINTENANCE_KERNELS
        .iter()
        .find(|(kernel, _)| *kernel == name)
        .map(|(_, payer)| *payer)
}

/// One slab of a [`ClearUnits`]: `(subgroup, first lane)`.
type SlabFn<'a> = dyn Fn(&mut SubgroupCtx<'_, '_>, usize) + Sync + 'a;

/// The device half of a frontier's lazy clear as independent subgroup
/// slabs, so it can run as a launch of its own ([`ClearUnits::launch`]) or
/// as the tail workgroups of another one (the advance shells, when the
/// superstep engine retires a frontier). Slab `k` is
/// `body(sg, k * sg.width())`: the subgroup clears what lanes
/// `first .. first + width` of `lanes` stand for, whatever the width of
/// the launch it finds itself in. Whoever runs the slabs owes the frontier
/// a [`BitmapLike::lazy_cleared`] afterwards.
pub struct ClearUnits<'a> {
    /// Kernel name of the stand-alone launch.
    name: &'static str,
    /// Lanes of work; zero when there is nothing on the device to clear.
    lanes: usize,
    body: Box<SlabFn<'a>>,
}

impl<'a> ClearUnits<'a> {
    pub(crate) fn new(
        name: &'static str,
        lanes: usize,
        body: impl Fn(&mut SubgroupCtx<'_, '_>, usize) + Sync + 'a,
    ) -> Self {
        ClearUnits {
            name,
            lanes,
            body: Box::new(body),
        }
    }

    /// Slabs of a launch whose subgroups are `width` lanes wide.
    pub fn slabs(&self, width: usize) -> usize {
        self.lanes.div_ceil(width)
    }

    /// Runs slab `k` of a launch `width` lanes wide on `sg`.
    pub fn run(&self, sg: &mut SubgroupCtx<'_, '_>, k: usize) {
        let first = k * sg.width() as usize;
        (self.body)(sg, first);
    }

    /// Launches the units alone, under their own name.
    pub fn launch(&self, q: &Queue) {
        if self.lanes > 0 {
            let width = q.profile().preferred_subgroup as usize;
            q.parallel_for_subgroups(self.name, self.slabs(width), |sg, k| self.run(sg, k));
        }
    }
}

/// Operations common to every frontier layout.
pub trait Frontier: Sync {
    /// Number of representable vertices.
    fn capacity(&self) -> usize;
    /// Host-side insert (setup; e.g. seeding the BFS source).
    fn insert_host(&self, v: VertexId);
    /// Host-side membership test.
    fn contains_host(&self, v: VertexId) -> bool;
    /// Clears all elements (device kernel — its cost is part of the
    /// algorithm, as in Listing 1 line 19).
    fn clear(&self, q: &Queue);
    /// Number of active elements (device kernel + host read-back).
    fn count(&self, q: &Queue) -> usize;
    /// `count(q) == 0`.
    fn is_empty(&self, q: &Queue) -> bool {
        self.count(q) == 0
    }
    /// Sorted, deduplicated active vertices (host-side; verification).
    fn to_sorted_vec(&self) -> Vec<VertexId>;
    /// Activates every vertex (device kernel) — e.g. the initial frontier
    /// of label-propagation Connected Components.
    fn fill_all(&self, q: &Queue);
}

/// Bitmap-shaped frontiers usable as `advance` input/output: expose their
/// word array, per-lane insert/remove, and (for the two-layer layout) the
/// pre-advance compaction step.
pub trait BitmapLike<W: Word>: Frontier {
    /// Words in the first layer.
    fn num_words(&self) -> usize;
    /// The first-layer word array.
    fn words(&self) -> &DeviceBuffer<W>;
    /// Device-side insert from a kernel lane (atomic OR; updates the
    /// second layer when present).
    fn insert_lane(&self, lane: &mut ItemCtx<'_>, v: VertexId);
    /// Like [`BitmapLike::insert_lane`], but reports whether this lane's
    /// atomic OR was the one that set the bit. Exactly one inserting lane
    /// observes `true` per vertex per superstep — the property the fused
    /// advance+compute path relies on to run the compute functor exactly
    /// once per newly-activated vertex.
    fn insert_lane_checked(&self, lane: &mut ItemCtx<'_>, v: VertexId) -> bool;
    /// Device-side remove from a kernel lane (atomic AND-NOT; clears the
    /// second-layer bit when the word empties).
    fn remove_lane(&self, lane: &mut ItemCtx<'_>, v: VertexId);
    /// Runs the pre-advance compaction (second layer → offsets buffer).
    /// Returns `Some((nonzero_word_count, offsets))` for two-layer
    /// frontiers, `None` when the advance must visit every word.
    fn compact(&self, q: &Queue) -> Option<(usize, &DeviceBuffer<u32>)>;
    /// The lazy clear, stated once per layout: the slabs that empty the
    /// frontier touching only what its last [`compact`] (or its exact item
    /// list) says is set. **Precondition:** no insertions since then — the
    /// engine satisfies this because a superstep's inserts all go to the
    /// *other* frontier. `None` when the layout has no lazy form, or none
    /// right now (a stale list): the caller takes the full [`clear`].
    ///
    /// [`compact`]: BitmapLike::compact
    /// [`clear`]: Frontier::clear
    fn lazy_clear_units(&self) -> Option<ClearUnits<'_>> {
        None
    }

    /// The host half of the lazy clear (list length, validity flags), for
    /// whoever ran [`lazy_clear_units`](BitmapLike::lazy_clear_units).
    fn lazy_cleared(&self) {}

    /// Launches [`lazy_clear_units`](BitmapLike::lazy_clear_units) alone,
    /// or the full clear when there are none.
    fn lazy_clear(&self, q: &Queue) {
        match self.lazy_clear_units() {
            Some(units) => {
                units.launch(q);
                self.lazy_cleared();
            }
            None => self.clear(q),
        }
    }

    /// An empty frontier of this layout and capacity: the third buffer of
    /// the superstep engine's ring, which lets a retired frontier's lazy
    /// clear ride the next advance launch. `None` when the layout declines
    /// (the engine then clears at the rotate, as with a pair) or the
    /// allocation fails.
    fn empty_like(&self, q: &Queue) -> Option<Box<dyn BitmapLike<W>>> {
        let _ = q;
        None
    }

    /// The representation this frontier currently presents to the
    /// operators. Bitmap layouts are always dense; [`SparseFrontier`] and
    /// [`HybridFrontier`] override.
    fn rep_kind(&self) -> RepKind {
        RepKind::Dense
    }

    /// The frontier's sparse item-list view, when it maintains one that is
    /// currently exact (duplicate-free and mirroring the bitmap). `None`
    /// means the consumer must take the dense (word-walking) path. Reading
    /// the list length costs the one host sync the dense path would have
    /// spent on its compaction count.
    fn sparse_view(&self, q: &Queue) -> Option<SparseView<'_>> {
        let _ = q;
        None
    }

    /// What asking this frontier to go sparse would find, read host-side
    /// with no device work: `None` — it would refuse (the layout has no
    /// item list, or its bounded list overflowed); `Some(None)` — it would
    /// rebuild a stale list; `Some(Some(len))` — its list is current and
    /// holds `len` entries. The engine plans a superstep from this before
    /// it asks for anything ([`BitmapLike::adopt_rep`]).
    fn list_probe(&self) -> Option<Option<usize>> {
        None
    }

    /// Asks the frontier to present `kind` for the upcoming superstep,
    /// running a conversion kernel if its current state requires one.
    /// Returns the representation actually adopted — a frontier may
    /// refuse (pure bitmaps are always dense; a hybrid whose population
    /// overflowed its list capacity stays dense).
    fn adopt_rep(&self, q: &Queue, kind: RepKind) -> RepKind {
        let _ = (q, kind);
        RepKind::Dense
    }

    /// Re-derives secondary state (second bitmap layer, sparse item list)
    /// after the first-layer words were rewritten wholesale — the
    /// obligation frontier set-operators discharge on their output (see
    /// [`ops::apply`]). Plain bitmaps have nothing to rebuild.
    fn rebuild_from_words(&self, q: &Queue) {
        let _ = q;
    }

    /// The frontier's packed per-vertex source-lane masks, when it carries
    /// them beside the union bitmap ([`LaneFrontier`]); `None` for
    /// single-source layouts. The view's buffers are non-owning aliases,
    /// safe to move into advance functors.
    fn lane_view(&self) -> Option<LaneView> {
        None
    }

    /// Host-side insert carrying a source-lane mask (multi-source
    /// seeding). Single-source layouts ignore the mask and insert the
    /// vertex plainly.
    fn insert_host_masked(&self, v: VertexId, mask: u64) {
        let _ = mask;
        self.insert_host(v);
    }
}

/// Swaps two frontiers (Listing 1 line 18: `frontier::swap(in, out)`).
pub fn swap<F>(a: &mut F, b: &mut F) {
    std::mem::swap(a, b);
}
