//! The `advance` primitive (§3.1, §4.2): expands a frontier by visiting
//! every edge of every active vertex, applying a user functor per edge
//! and inserting accepted destinations into the output frontier.
//!
//! One advance is a *side* under a *schedule shell*:
//!
//! * The [`Side`] is the direction, statically dispatched. [`Push`] walks
//!   the out-edges of frontier vertices; [`Pull`] has candidate vertices
//!   scan their in-edges against the frontier bitmap (§3.4). A side
//!   supplies the degree lookup, the lane-serial row scan and the
//!   subgroup-cooperative row scan — nothing else differs by direction.
//! * The four shells are the load-balancing schedules (§4.2), each one
//!   `q.launch`: the **word walk** ([`walk_words`]) maps subgroups onto
//!   bitmap words, the **slab** gives every lane one listed vertex, the
//!   **list** gives every subgroup one, and **chunks** gives every
//!   workgroup one neighbor range of a hub.
//!
//! The degree-bucketed dispatch ([`Launch::bucketed`]) bins the active
//! vertices by the side's degree and runs slab / list / chunks over the
//! three bands. Every (shell, side) pair reaches an edge through the same
//! per-edge tail, which is what keeps the schedules bit-identical: they
//! only differ in *which lane* reaches an edge, never in what happens to
//! it.
//!
//! ## The word walk (workgroup-mapped, §4.2)
//!
//! Each workgroup owns `subgroups_per_wg × coarsening` bitmap words. On
//! the push side every subgroup processes its words in two stages
//! (Figure 4b):
//!
//! 1. **Compaction** — subgroup collectives (ballot + exclusive scan)
//!    compact the word's set bits (active vertices) into local memory;
//! 2. **Cooperative expansion** — for each compacted vertex, all lanes of
//!    the subgroup stride over its neighbor list together, so a
//!    high-degree vertex is processed by the full SIMD width without any
//!    cross-subgroup synchronization (Figure 4c).
//!
//! With the two-layer layout the word list comes pre-compacted from
//! [`crate::frontier::BitmapLike::compact`], so no workgroup is ever
//! scheduled onto an all-zero word (Figure 5a).

use std::sync::atomic::{AtomicBool, Ordering};

use sygraph_sim::{
    full_mask, DeviceBuffer, Event, GroupCtx, ItemCtx, LaunchConfig, Queue, SubgroupCtx,
    MAX_SUBGROUP,
};

use crate::frontier::bucket::{self, BucketPool, BucketSpec};
use crate::frontier::word::{for_each_pass, locate, Word};
use crate::frontier::{BitmapLike, ClearUnits};
use crate::graph::traits::DeviceGraphView;
use crate::inspector::{inspect, Balancing, DegreeProfile, OptConfig, Tuning};
use crate::operators::no_launch;
use crate::types::{EdgeId, VertexId, Weight};

/// The advance functor: `(lane, src, dst, edge, weight) -> bool`,
/// mirroring the paper's `Functor(src, dst, edge_id, weight) -> Bool`.
/// The lane context gives the lambda accounted access to user data
/// (e.g. the BFS distance array).
pub trait AdvanceFunctor:
    Fn(&mut ItemCtx<'_>, VertexId, VertexId, EdgeId, Weight) -> bool + Sync
{
}
impl<F> AdvanceFunctor for F where
    F: Fn(&mut ItemCtx<'_>, VertexId, VertexId, EdgeId, Weight) -> bool + Sync
{
}

/// A compute functor fused into the advance kernel: runs on each vertex the
/// moment its frontier bit is first set, inside the expanding kernel — the
/// superstep engine's replacement for a separate full-range `compute` pass.
pub type FusedCompute<'a> = &'a (dyn Fn(&mut ItemCtx<'_>, VertexId) + Sync);

/// Candidate enumeration for a pull-direction advance (§3.4, Beamer-style
/// bottom-up traversal): which vertices scan their in-edges against the
/// input frontier bitmap.
pub enum PullScope<'a, W: Word> {
    /// Scan only the given candidate set (typically the engine-maintained
    /// unvisited bitmap). Each candidate *adopts* on its first accepted
    /// frontier in-edge — the scan early-exits and the candidate is
    /// removed from the set in-kernel. Only valid for visit-once
    /// algorithms whose functor is read-only (BFS-style): edges after the
    /// first accepted one are never offered to the functor.
    Unvisited(&'a dyn BitmapLike<W>),
    /// Scan every vertex's in-edges with no early exit: the functor sees
    /// exactly the edge set a push step would offer (every edge whose
    /// source is in the frontier), so this scope is safe for any functor —
    /// label-propagation style algorithms (CC) use it.
    AllVertices,
}

/// Unified builder over every vertex-frontier advance variant.
///
/// ```ignore
/// let (ev, words) = Advance::new(&q, &g, &input)
///     .output(&out)            // omit to discard accepted destinations
///     .tuning(&t)              // omit to let the inspector tune
///     .fuse(&|l, v| { ... })   // optional: compute fused into the kernel
///     .run(|l, src, dst, e, w| ...);
/// ```
///
/// `run` always reports the counted compaction result: `Some(n_nonzero)`
/// under the two-layer layout (`Some(0)` ⇒ the input frontier was empty, so
/// superstep loops converge without a separate count kernel), `None` for
/// single-layer bitmaps.
pub struct Advance<'a, W: Word, G: DeviceGraphView + ?Sized> {
    q: &'a Queue,
    graph: &'a G,
    /// `None` means "treat every vertex as active".
    input: Option<&'a dyn BitmapLike<W>>,
    /// The input's work list when the caller measured it already
    /// ([`Advance::measured`]); otherwise `run` measures it.
    items: Option<Items<'a, W>>,
    output: Option<&'a dyn BitmapLike<W>>,
    tuning: Option<&'a Tuning>,
    fused: Option<FusedCompute<'a>>,
    pool: Option<&'a BucketPool>,
    pull: Option<PullScope<'a, W>>,
}

impl<'a, W: Word, G: DeviceGraphView + ?Sized> Advance<'a, W, G> {
    /// An advance expanding `input` over the out-edges of `graph`.
    pub fn new(q: &'a Queue, graph: &'a G, input: &'a dyn BitmapLike<W>) -> Self {
        Advance {
            input: Some(input),
            ..Self::all_vertices(q, graph)
        }
    }

    /// An advance expanding an input already [`Measured`]: it walks the
    /// measured work list, so the input is not compacted a second time.
    pub(crate) fn measured(q: &'a Queue, graph: &'a G, input: Measured<'a, W>) -> Self {
        Advance {
            input: Some(input.frontier),
            items: Some(input.items),
            ..Self::all_vertices(q, graph)
        }
    }

    /// An advance treating *every* vertex as active (e.g. PageRank's
    /// scatter sweep, or Betweenness Centrality initialization).
    pub fn all_vertices(q: &'a Queue, graph: &'a G) -> Self {
        Advance {
            q,
            graph,
            input: None,
            items: None,
            output: None,
            tuning: None,
            fused: None,
            pool: None,
            pull: None,
        }
    }

    /// Stores accepted destinations in `out`. Without an output, the
    /// functor still runs per edge but destinations are discarded.
    pub fn output(mut self, out: &'a dyn BitmapLike<W>) -> Self {
        self.output = Some(out);
        self
    }

    /// Uses explicit tuning instead of the inspector's default.
    pub fn tuning(mut self, t: &'a Tuning) -> Self {
        self.tuning = Some(t);
        self
    }

    /// Reuses caller-owned bucket buffers for the degree-bucketed dispatch
    /// (the superstep engine pools these across supersteps). Without a
    /// pool, a bucketed advance allocates transient buffers; if even that
    /// fails the advance silently degrades to the workgroup-mapped path,
    /// which needs no extra memory and computes the same result.
    pub fn pool(mut self, pool: Option<&'a BucketPool>) -> Self {
        self.pool = pool;
        self
    }

    /// Fuses a compute functor into the advance kernel: it runs exactly
    /// once per *newly inserted* output vertex (first-setter wins via
    /// [`BitmapLike::insert_lane_checked`]), eliminating the separate
    /// full-capacity `compute` kernel and its host sync. Requires an
    /// [`output`](Advance::output) frontier to deduplicate against.
    pub fn fuse(mut self, compute: FusedCompute<'a>) -> Self {
        self.fused = Some(compute);
        self
    }

    /// Runs this advance in the *pull* direction: instead of expanding the
    /// input frontier's out-edges, the `scope`'s candidate vertices scan
    /// their in-edges against the input frontier's membership bitmap (a
    /// single bit probe per edge under the 2LB layout). The functor sees
    /// `(src, dst)` exactly as in push — `src` is the frontier-resident
    /// in-neighbor, `dst` the candidate — but `edge` is the pull view's
    /// edge id, not the push view's id for the same logical edge.
    ///
    /// The graph's pull view must already be resident
    /// ([`DeviceGraphView::ensure_pull`] returned `Ok(true)`); the counted
    /// result still reports the *input* frontier's compaction, so
    /// superstep convergence works unchanged.
    pub fn pull(mut self, scope: PullScope<'a, W>) -> Self {
        self.pull = Some(scope);
        self
    }

    /// Launches the advance. Returns the completion event plus the counted
    /// compaction result (see the type-level docs).
    pub fn run(self, functor: impl AdvanceFunctor) -> (Event, Option<usize>) {
        let (ev, counted, _) = self.run_carrying(None, functor);
        (ev, counted)
    }

    /// [`run`](Advance::run) with `tail` — the lazy clear of a frontier
    /// that is neither this advance's input nor its output — carried as
    /// tail workgroups of the first schedule shell launched
    /// ([`Shell::launch`]). The third result says whether one was.
    pub fn run_carrying(
        self,
        tail: Option<&ClearUnits<'_>>,
        functor: impl AdvanceFunctor,
    ) -> (Event, Option<usize>, bool) {
        assert!(
            self.fused.is_none() || self.output.is_some(),
            "Advance::fuse requires an output frontier to deduplicate against"
        );
        let derived;
        let tuning = match self.tuning {
            Some(t) => t,
            None => {
                derived = inspect(
                    self.q.profile(),
                    &OptConfig::all(),
                    self.graph.vertex_count(),
                );
                &derived
            }
        };
        let cx = Launch {
            shell: Shell::new(self.q, tail),
            graph: self.graph,
            tuning,
            output: self.output,
            fused: self.fused,
            functor: &functor,
        };
        let q = self.q;
        let measure = |input| self.items.unwrap_or_else(|| Items::of(q, input));
        let (ev, counted) = match (self.pull, self.input) {
            (Some(scope), input) => {
                let input = input.expect("a pull advance needs an input frontier to probe");
                cx.pull(input, measure(input).counted(), scope, self.pool)
            }
            (None, Some(input)) => cx.frontier(measure(input), self.pool),
            (None, None) => {
                let items = Items::all_vertices(self.graph);
                let ev = cx.bucketed(&Push, &items, self.pool);
                (ev.unwrap_or_else(|| cx.walk(&Push, &items)), None)
            }
        };
        (ev, counted, cx.shell.carried.into_inner())
    }
}

// ---------------------------------------------------------------------------
// Work lists
// ---------------------------------------------------------------------------

/// A frontier measured ahead of its advance, for a caller that must know
/// the population before it builds the advance (the superstep engine
/// picks the direction from it): the work list an advance would take —
/// the item list when the frontier presents one, its compacted words
/// otherwise — ready to hand over with [`Advance::measured`].
pub(crate) struct Measured<'a, W: Word> {
    frontier: &'a dyn BitmapLike<W>,
    items: Items<'a, W>,
}

impl<'a, W: Word> Measured<'a, W> {
    /// Measures `frontier`: the one host read-back of its advance (a
    /// compaction kernel when it runs as a bitmap, a host read of the
    /// list length when it is listed).
    pub(crate) fn of(q: &Queue, frontier: &'a dyn BitmapLike<W>) -> Self {
        let items = Items::of(q, frontier);
        Measured { frontier, items }
    }

    /// A bound on the population: exact when listed, `nonzero_words ×
    /// W::BITS` when compacted — `W::BITS`, the storage word the
    /// compaction counts, never the narrower logical MSI width. `None`
    /// for single-layer bitmaps, which have no counted compaction.
    pub(crate) fn population(&self) -> Option<usize> {
        match self.items {
            Items::Compacted { nz, .. } => Some(nz.saturating_mul(W::BITS as usize)),
            ref items => items.counted(),
        }
    }
}

/// What a schedule shell runs over. The binning kernel reads every form
/// but the single-layer `Flat` (which has no counted compaction to
/// schedule it over) and leaves the same three degree buckets whichever it
/// read, so the expansion kernels downstream cannot tell the
/// representations apart — the load-balancing and representation axes
/// compose freely.
enum Items<'a, W: Word> {
    /// A sparse frontier's duplicate-free vertex list.
    List {
        items: &'a DeviceBuffer<u32>,
        len: usize,
    },
    /// The `nz` non-zero words of a two-layer bitmap, by offset.
    Compacted {
        words: &'a DeviceBuffer<W>,
        offsets: &'a DeviceBuffer<u32>,
        nz: usize,
    },
    /// Every word of a single-layer bitmap, zeros included.
    Flat {
        words: &'a DeviceBuffer<W>,
        n_words: usize,
    },
    /// Every vertex active: `n_words` all-ones words, nothing loaded.
    All { n_words: usize },
}

impl<'a, W: Word> Items<'a, W> {
    /// `f`'s bitmap words, compacted when it has a second layer.
    fn words_of(q: &Queue, f: &'a dyn BitmapLike<W>) -> Self {
        match f.compact(q) {
            Some((nz, offsets)) => {
                let words = f.words();
                Items::Compacted { words, offsets, nz }
            }
            None => {
                let (words, n_words) = (f.words(), f.num_words());
                Items::Flat { words, n_words }
            }
        }
    }

    /// `f` as a work list: when `f` presents a valid item list the bitmap
    /// scan is skipped entirely and the list length *is* the population,
    /// read back with no kernel at all; otherwise its words, compacted.
    fn of(q: &Queue, f: &'a dyn BitmapLike<W>) -> Self {
        match f.sparse_view(q) {
            Some(view) => Items::List {
                items: view.items,
                len: view.len,
            },
            None => Self::words_of(q, f),
        }
    }

    /// The counted result of an advance over this list: list entries,
    /// non-zero words, or `None` for the uncounted forms.
    fn counted(&self) -> Option<usize> {
        match *self {
            Items::List { len, .. } => Some(len),
            Items::Compacted { nz, .. } => Some(nz),
            Items::Flat { .. } | Items::All { .. } => None,
        }
    }

    fn all_vertices<G: DeviceGraphView + ?Sized>(graph: &G) -> Self {
        let n_words = graph.vertex_count().div_ceil(W::BITS as usize);
        Items::All { n_words }
    }

    /// Schedule positions of a word walk over these items.
    fn n_words(&self) -> usize {
        match *self {
            Items::Compacted { nz, .. } => nz,
            Items::Flat { n_words, .. } | Items::All { n_words } => n_words,
            Items::List { .. } => unreachable!("vertex lists run through the list shell"),
        }
    }

    /// Maps schedule position `pos` to its `(word_idx, word)` pair.
    #[inline]
    fn resolve(&self, sg: &mut SubgroupCtx<'_, '_>, pos: usize) -> (usize, W) {
        match *self {
            Items::Compacted { words, offsets, .. } => {
                let word_idx = sg.load_uniform(offsets, pos) as usize;
                (word_idx, sg.load_uniform(words, word_idx))
            }
            Items::Flat { words, .. } => (pos, sg.load_uniform(words, pos)),
            Items::All { .. } => (pos, W::ZERO.not()),
            Items::List { .. } => unreachable!("vertex lists run through the list shell"),
        }
    }
}

// ---------------------------------------------------------------------------
// The launch context and the two sides
// ---------------------------------------------------------------------------

/// Where the schedule shells submit: the queue, and the retired frontier's
/// lazy clear waiting for a launch to ride.
struct Shell<'a> {
    q: &'a Queue,
    tail: Option<&'a ClearUnits<'a>>,
    /// Set by the launch that took the tail. Atomic only because the
    /// kernels borrow the whole [`Launch`]; the submitting thread alone
    /// touches it.
    carried: AtomicBool,
}

impl<'a> Shell<'a> {
    fn new(q: &'a Queue, tail: Option<&'a ClearUnits<'a>>) -> Self {
        let carried = AtomicBool::new(false);
        Shell { q, tail, carried }
    }

    /// The one `q.launch` of the four shells. The first launch to come by
    /// takes the tail: the workgroups past the shell's own run the clear's
    /// slabs, one per subgroup. The cleared frontier is neither read nor
    /// written by `shell`, so the two halves share a launch and nothing
    /// else.
    fn launch(&self, mut cfg: LaunchConfig, shell: impl Fn(&mut GroupCtx<'_>) + Sync) -> Event {
        let first = || !self.carried.swap(true, Ordering::Relaxed);
        let Some(tail) = self.tail.filter(|_| first()) else {
            return self.q.launch(cfg, shell);
        };
        let own = cfg.workgroups;
        let sgs = (cfg.wg_size / cfg.sg_size) as usize;
        let slabs = tail.slabs(cfg.sg_size as usize);
        cfg.workgroups += slabs.div_ceil(sgs);
        self.q.launch(cfg, |ctx| {
            if ctx.group_id < own {
                return shell(ctx);
            }
            let base = (ctx.group_id - own) * sgs;
            ctx.for_each_subgroup(|sg| {
                let slab = base + sg.sg_id() as usize;
                if slab < slabs {
                    tail.run(sg, slab);
                }
            });
        })
    }
}

/// Everything the kernels of one advance share.
struct Launch<'a, W: Word, G: DeviceGraphView + ?Sized, F: AdvanceFunctor> {
    shell: Shell<'a>,
    graph: &'a G,
    tuning: &'a Tuning,
    output: Option<&'a dyn BitmapLike<W>>,
    fused: Option<FusedCompute<'a>>,
    functor: &'a F,
}

/// The direction of an advance: where a vertex's row lives and how a lane
/// or a subgroup scans it.
trait Side<W: Word>: Sync {
    /// Kernel name of the word walk.
    const WALK: &'static str;
    /// Kernel names of the small / medium / large bucket shells.
    const BUCKETS: [&'static str; 3];
    /// Local-memory slots the word walk reserves per bitmap word.
    const WORD_SLOTS: usize;

    /// The degree histogram `Balancing::Auto` consults on this side.
    fn profile<G: DeviceGraphView + ?Sized>(graph: &G) -> Option<&DegreeProfile>;

    /// `v`'s edge-index range, loaded by one lane.
    fn row<G: DeviceGraphView + ?Sized>(
        graph: &G,
        lane: &mut ItemCtx<'_>,
        v: VertexId,
    ) -> (u32, u32);

    /// `v`'s edge-index range, loaded uniformly across the subgroup.
    fn row_uniform<G: DeviceGraphView + ?Sized>(
        graph: &G,
        sg: &mut SubgroupCtx<'_, '_>,
        v: VertexId,
    ) -> (u32, u32);

    /// One lane walks `v`'s edges `[lo, hi)` serially.
    fn scan_serial<G: DeviceGraphView + ?Sized, F: AdvanceFunctor>(
        &self,
        cx: &Launch<'_, W, G, F>,
        item: &mut ItemCtx<'_>,
        v: VertexId,
        lo: u32,
        hi: u32,
    );

    /// All lanes of `sg` walk `v`'s edges `[lo, hi)` together, a subgroup
    /// width per round, moving `stride` edges between rounds.
    fn scan_cooperative<G: DeviceGraphView + ?Sized, F: AdvanceFunctor>(
        &self,
        cx: &Launch<'_, W, G, F>,
        sg: &mut SubgroupCtx<'_, '_>,
        v: VertexId,
        lo: u32,
        hi: u32,
        stride: u32,
    );

    /// Expands the set bits `bits` of one bitmap `word` whose bit 0 is
    /// vertex `first`. `local_base` is this bit range's region of local
    /// memory (one u32 slot per bit, when `WORD_SLOTS` reserves any).
    fn expand_word<G: DeviceGraphView + ?Sized, F: AdvanceFunctor>(
        &self,
        cx: &Launch<'_, W, G, F>,
        sg: &mut SubgroupCtx<'_, '_>,
        first: VertexId,
        word: W,
        bits: (u32, u32),
        local_base: usize,
    );
}

/// Push: frontier vertices expand their out-edges.
struct Push;

impl<W: Word> Side<W> for Push {
    const WALK: &'static str = "advance";
    const BUCKETS: [&'static str; 3] = ["advance_small", "advance_medium", "advance_large"];
    const WORD_SLOTS: usize = W::BITS as usize;

    fn profile<G: DeviceGraphView + ?Sized>(graph: &G) -> Option<&DegreeProfile> {
        graph.degree_profile()
    }

    #[inline]
    fn row<G: DeviceGraphView + ?Sized>(
        graph: &G,
        lane: &mut ItemCtx<'_>,
        v: VertexId,
    ) -> (u32, u32) {
        graph.row_bounds(lane, v)
    }

    #[inline]
    fn row_uniform<G: DeviceGraphView + ?Sized>(
        graph: &G,
        sg: &mut SubgroupCtx<'_, '_>,
        v: VertexId,
    ) -> (u32, u32) {
        graph.row_bounds_uniform(sg, v)
    }

    #[inline]
    fn scan_serial<G: DeviceGraphView + ?Sized, F: AdvanceFunctor>(
        &self,
        cx: &Launch<'_, W, G, F>,
        item: &mut ItemCtx<'_>,
        v: VertexId,
        lo: u32,
        hi: u32,
    ) {
        for e in lo..hi {
            cx.visit_edge(item, v, e);
        }
    }

    #[inline]
    fn scan_cooperative<G: DeviceGraphView + ?Sized, F: AdvanceFunctor>(
        &self,
        cx: &Launch<'_, W, G, F>,
        sg: &mut SubgroupCtx<'_, '_>,
        v: VertexId,
        lo: u32,
        hi: u32,
        stride: u32,
    ) {
        let sgw = sg.width();
        let mut e = lo;
        while e < hi {
            let lanes = (hi - e).min(sgw);
            sg.lanes(full_mask(lanes), |lane, item| {
                cx.visit_edge(item, v, e + lane)
            });
            e += stride;
        }
    }

    /// Stage ① compacts the active bits into local memory; stage ② has
    /// all lanes cooperatively expand each compacted vertex. Under MSI the
    /// range is the whole word; without it the subgroup's slice is
    /// narrower than the subgroup and lanes idle (the inefficiency MSI
    /// removes).
    fn expand_word<G: DeviceGraphView + ?Sized, F: AdvanceFunctor>(
        &self,
        cx: &Launch<'_, W, G, F>,
        sg: &mut SubgroupCtx<'_, '_>,
        first: VertexId,
        word: W,
        bits: (u32, u32),
        local_base: usize,
    ) {
        let sgw = sg.width();
        let n = cx.graph.vertex_count() as u32;
        let mut count = 0u32;
        let mut positions = [0u32; MAX_SUBGROUP];
        for_each_pass(sg, word, first, n, bits, |sg, pass_first, active| {
            let pass_count = sg.exclusive_scan_add(
                full_mask(sgw),
                |lane| (active >> lane & 1) as u32,
                &mut positions,
            );
            let base = local_base as u32 + count;
            sg.local_scatter(active, |lane| {
                (
                    (base + positions[lane as usize]) as usize,
                    pass_first + lane,
                )
            });
            count += pass_count;
        });
        for k in 0..count {
            let v = sg.local_read(local_base + k as usize);
            let (lo, hi) = cx.graph.row_bounds_uniform(sg, v);
            self.scan_cooperative(cx, sg, v, lo, hi, sgw);
        }
    }
}

/// Pull (§3.4 direction optimization, Beamer bottom-up): candidate
/// vertices scan their in-edges, probing each source against the input
/// frontier bitmap (one word load + bit test under 2LB).
struct Pull<'a, W: Word> {
    /// The input frontier's bitmap words.
    fin_words: &'a DeviceBuffer<W>,
    /// The candidate set under adopt-once semantics: a candidate adopts on
    /// its first accepted frontier in-edge, abandons the rest of its scan
    /// and is retired from this set in-kernel. `None` scans every in-edge
    /// of every vertex with no early exit.
    unvisited: Option<&'a dyn BitmapLike<W>>,
}

impl<W: Word> Pull<'_, W> {
    /// Whether in-edge `e` of `v` leaves a frontier vertex *and* the
    /// functor accepts it.
    #[inline]
    fn probe<G: DeviceGraphView + ?Sized, F: AdvanceFunctor>(
        &self,
        cx: &Launch<'_, W, G, F>,
        item: &mut ItemCtx<'_>,
        v: VertexId,
        e: EdgeId,
    ) -> bool {
        let u = cx.graph.in_edge_src(item, e);
        let (wi, b) = locate::<W>(u);
        item.compute(2);
        if !item.load(self.fin_words, wi).test_bit(b) {
            return false;
        }
        let w = cx.graph.in_edge_weight(item, e);
        (cx.functor)(item, u, v, e, w)
    }

    /// Inserts an adopting candidate into the output and retires it from
    /// the unvisited set.
    #[inline]
    fn adopt<G: DeviceGraphView + ?Sized, F: AdvanceFunctor>(
        &self,
        cx: &Launch<'_, W, G, F>,
        item: &mut ItemCtx<'_>,
        v: VertexId,
    ) {
        cx.accept(item, v);
        if let Some(unv) = self.unvisited {
            unv.remove_lane(item, v);
        }
    }
}

impl<W: Word> Side<W> for Pull<'_, W> {
    const WALK: &'static str = "advance_pull";
    const BUCKETS: [&'static str; 3] = [
        "advance_pull_small",
        "advance_pull_medium",
        "advance_pull_large",
    ];
    const WORD_SLOTS: usize = 0;

    fn profile<G: DeviceGraphView + ?Sized>(graph: &G) -> Option<&DegreeProfile> {
        graph.in_degree_profile()
    }

    #[inline]
    fn row<G: DeviceGraphView + ?Sized>(
        graph: &G,
        lane: &mut ItemCtx<'_>,
        v: VertexId,
    ) -> (u32, u32) {
        graph.in_row_bounds(lane, v)
    }

    #[inline]
    fn row_uniform<G: DeviceGraphView + ?Sized>(
        graph: &G,
        sg: &mut SubgroupCtx<'_, '_>,
        v: VertexId,
    ) -> (u32, u32) {
        graph.in_row_bounds_uniform(sg, v)
    }

    /// Beamer's standard bottom-up shape: the early exit keeps the
    /// expected scan short on scale-free graphs.
    #[inline]
    fn scan_serial<G: DeviceGraphView + ?Sized, F: AdvanceFunctor>(
        &self,
        cx: &Launch<'_, W, G, F>,
        item: &mut ItemCtx<'_>,
        v: VertexId,
        lo: u32,
        hi: u32,
    ) {
        for e in lo..hi {
            if self.probe(cx, item, v, e) {
                self.adopt(cx, item, v);
                if self.unvisited.is_some() {
                    break;
                }
            }
        }
    }

    /// Under adopt-once, each round's frontier hits are balloted and the
    /// lowest hitting lane adopts — the subgroup then abandons the rest of
    /// the range (the cooperative form of Beamer's early exit). Chunks of
    /// one in-hub cannot coordinate that exit across workgroups; each
    /// adopts independently and the checked insert keeps it exactly-once.
    fn scan_cooperative<G: DeviceGraphView + ?Sized, F: AdvanceFunctor>(
        &self,
        cx: &Launch<'_, W, G, F>,
        sg: &mut SubgroupCtx<'_, '_>,
        v: VertexId,
        lo: u32,
        hi: u32,
        stride: u32,
    ) {
        let sgw = sg.width();
        let adopt_once = self.unvisited.is_some();
        let mut e = lo;
        while e < hi {
            let lanes = (hi - e).min(sgw);
            let mut hits = [false; MAX_SUBGROUP];
            sg.lanes(full_mask(lanes), |lane, item| {
                let hit = self.probe(cx, item, v, e + lane);
                if adopt_once {
                    // Accepted edges only vote here; the winning lane adopts
                    // after the ballot so exactly one adoption happens.
                    hits[lane as usize] = hit;
                } else if hit {
                    self.adopt(cx, item, v);
                }
            });
            if adopt_once {
                let mask = sg.ballot(|lane| hits[lane as usize]);
                if mask != 0 {
                    sg.lanes(1u64 << mask.trailing_zeros(), |_lane, item| {
                        self.adopt(cx, item, v);
                    });
                    return;
                }
            }
            e += stride;
        }
    }

    /// Each set bit is scanned serially by its own lane.
    fn expand_word<G: DeviceGraphView + ?Sized, F: AdvanceFunctor>(
        &self,
        cx: &Launch<'_, W, G, F>,
        sg: &mut SubgroupCtx<'_, '_>,
        first: VertexId,
        word: W,
        bits: (u32, u32),
        _local_base: usize,
    ) {
        let n = cx.graph.vertex_count() as u32;
        for_each_pass(sg, word, first, n, bits, |sg, pass_first, active| {
            sg.lanes(active, |lane, item| {
                let v = pass_first + lane;
                let (lo, hi) = cx.graph.in_row_bounds(item, v);
                self.scan_serial(cx, item, v, lo, hi);
            });
        });
    }
}

// ---------------------------------------------------------------------------
// The four schedule shells
// ---------------------------------------------------------------------------

/// Shell 1, the word walk: subgroups map onto bitmap words. `items`
/// resolves a schedule position to a `(word_idx, word)` pair and `expand`
/// processes one non-zero word's bit range
/// (`expand(sg, word_idx, word, bits, local_base)`), with `slots` u32s of
/// local memory reserved per word.
///
/// Unsplit (MSI on — the word fits a subgroup), every subgroup owns
/// `coarsening` whole words. `split` (MSI off) is §4.2's base mapping: a
/// workgroup owns each word and subgroup `i` takes bit slice `i` — wasting
/// lanes whenever the slice is narrower than the subgroup (Figure 5b).
fn walk_words<W: Word>(
    shell: &Shell<'_>,
    tuning: &Tuning,
    name: &'static str,
    slots: usize,
    split: bool,
    items: &Items<'_, W>,
    expand: impl Fn(&mut SubgroupCtx<'_, '_>, usize, W, (u32, u32), usize) + Sync,
) -> Event {
    debug_assert_eq!(tuning.sg_size.min(64), tuning.sg_size);
    let sgs = tuning.subgroups_per_wg as usize;
    let coarsening = tuning.coarsening as usize;
    let wpg = if split { coarsening } else { sgs * coarsening };
    let n_words = items.n_words();
    let groups = n_words.div_ceil(wpg.max(1));
    if groups == 0 {
        // Zero-vertex graph or empty word list: nothing to schedule.
        return no_launch(shell.q);
    }
    let bits_per_sg = if split {
        W::BITS.div_ceil(sgs as u32)
    } else {
        W::BITS
    };
    let cfg = LaunchConfig::new(name, groups, tuning.wg_size(), tuning.sg_size)
        .with_local_mem((wpg * slots * 4) as u32);
    shell.launch(cfg, |ctx| {
        let base = ctx.group_id * wpg;
        ctx.for_each_subgroup(|sg| {
            let (first_slot, bit_lo) = if split {
                (0, sg.sg_id() * bits_per_sg)
            } else {
                (sg.sg_id() as usize * coarsening, 0)
            };
            let bit_hi = (bit_lo + bits_per_sg).min(W::BITS);
            for c in 0..coarsening {
                let slot = first_slot + c;
                if base + slot >= n_words {
                    break;
                }
                let (word_idx, word) = items.resolve(sg, base + slot);
                if word.is_zero() {
                    // Figure 5a: a scheduled subgroup with no work (flat
                    // bitmaps only — compacted positions are non-zero).
                    sg.compute(1);
                    continue;
                }
                if bit_lo >= W::BITS {
                    continue;
                }
                let local_base = slot * slots + bit_lo as usize;
                expand(sg, word_idx, word, (bit_lo, bit_hi), local_base);
            }
        });
    })
}

impl<W: Word, G: DeviceGraphView + ?Sized, F: AdvanceFunctor> Launch<'_, W, G, F> {
    /// Inserts an accepted vertex into the output. The fused compute runs
    /// only on the lane whose atomic OR first set the bit, giving the
    /// same exactly-once-per-vertex semantics as a separate compute pass
    /// over the output frontier.
    #[inline]
    fn accept(&self, item: &mut ItemCtx<'_>, v: VertexId) {
        if let Some(out) = self.output {
            if out.insert_lane_checked(item, v) {
                if let Some(fc) = self.fused {
                    fc(item, v);
                }
            }
        }
    }

    /// The per-edge tail every push schedule shares: load the edge, run
    /// the functor, accept the destination.
    #[inline]
    fn visit_edge(&self, item: &mut ItemCtx<'_>, src: VertexId, eid: EdgeId) {
        let dst = self.graph.edge_dest(item, eid);
        let w = self.graph.edge_weight(item, eid);
        item.compute(2);
        if (self.functor)(item, src, dst, eid, w) {
            self.accept(item, dst);
        }
    }

    /// The word walk over a vertex bitmap, expanded by `side`.
    fn walk<S: Side<W>>(&self, side: &S, items: &Items<'_, W>) -> Event {
        let t = self.tuning;
        let split = t.word_bits > t.sg_size;
        walk_words(
            &self.shell,
            t,
            S::WALK,
            S::WORD_SLOTS,
            split,
            items,
            |sg, word_idx, word, bits, local_base| {
                let first = word_idx as u32 * W::BITS;
                side.expand_word(self, sg, first, word, bits, local_base)
            },
        )
    }

    /// Shell 2, the slab: one lane per listed vertex, walking its whole
    /// (short) row serially — cooperative expansion would idle
    /// `sg_size − 1` lanes per leaf vertex.
    fn slab<S: Side<W>>(
        &self,
        side: &S,
        name: &'static str,
        items: &DeviceBuffer<u32>,
        n_items: usize,
    ) -> Event {
        let t = self.tuning;
        let sgw = t.sg_size as usize;
        let coarsening = t.coarsening as usize;
        // Each subgroup covers `coarsening` lane-wide slabs of vertices.
        let per_sg = sgw * coarsening;
        let vpg = per_sg * t.subgroups_per_wg as usize;
        let groups = n_items.div_ceil(vpg.max(1));
        let cfg = LaunchConfig::new(name, groups, t.wg_size(), t.sg_size);
        self.shell.launch(cfg, |ctx| {
            let base = ctx.group_id * vpg;
            ctx.for_each_subgroup(|sg| {
                for c in 0..coarsening {
                    let slab = base + sg.sg_id() as usize * per_sg + c * sgw;
                    if slab >= n_items {
                        break;
                    }
                    let lanes = (n_items - slab).min(sgw) as u32;
                    sg.lanes(full_mask(lanes), |lane, item| {
                        let v = item.load(items, slab + lane as usize);
                        let (lo, hi) = S::row(self.graph, item, v);
                        side.scan_serial(self, item, v, lo, hi);
                    });
                }
            });
        })
    }

    /// Shell 3, the list: one subgroup per listed vertex, all lanes
    /// striding its row together — the word walk's cooperative expansion
    /// minus the bitmap walk. Serves the medium degree bucket and a sparse
    /// frontier's item list alike.
    fn list<S: Side<W>>(
        &self,
        side: &S,
        name: &'static str,
        items: &DeviceBuffer<u32>,
        n_items: usize,
    ) -> Event {
        let t = self.tuning;
        let coarsening = t.coarsening as usize;
        let vpg = t.subgroups_per_wg as usize * coarsening;
        let groups = n_items.div_ceil(vpg.max(1));
        let cfg = LaunchConfig::new(name, groups, t.wg_size(), t.sg_size);
        self.shell.launch(cfg, |ctx| {
            let base = ctx.group_id * vpg;
            ctx.for_each_subgroup(|sg| {
                for c in 0..coarsening {
                    let pos = base + sg.sg_id() as usize * coarsening + c;
                    if pos >= n_items {
                        break;
                    }
                    let v = sg.load_uniform(items, pos);
                    let (lo, hi) = S::row_uniform(self.graph, sg, v);
                    side.scan_cooperative(self, sg, v, lo, hi, sg.width());
                }
            });
        })
    }

    /// Shell 4, chunks: one *workgroup* per neighbor chunk. A hub's edge
    /// mass was pre-split into `chunk`-sized ranges by the binning kernel,
    /// so its chunks land on different workgroups — and, under the cyclic
    /// workgroup→CU striping, on different compute units — instead of
    /// serializing one subgroup (the Figure 4c pathology on power-law
    /// graphs). All subgroups of the group stride the chunk together.
    fn chunks<S: Side<W>>(
        &self,
        side: &S,
        name: &'static str,
        pool: &BucketPool,
        n_entries: usize,
        chunk: u32,
    ) -> Event {
        let t = self.tuning;
        let cfg = LaunchConfig::new(name, n_entries, t.wg_size(), t.sg_size);
        self.shell.launch(cfg, |ctx| {
            let entry = ctx.group_id;
            ctx.for_each_subgroup(|sg| {
                let v = sg.load_uniform(&pool.large_v, entry);
                let ci = sg.load_uniform(&pool.large_c, entry);
                let (lo, hi) = S::row_uniform(self.graph, sg, v);
                let clo = lo + ci * chunk;
                let chi = (clo + chunk).min(hi);
                // Subgroup `i` starts at lane-slab `i`; the whole workgroup
                // advances `wg_size` edges per round.
                let start = clo + sg.sg_id() * t.sg_size;
                side.scan_cooperative(self, sg, v, start, chi, t.wg_size());
            });
        })
    }

    /// The degree-bucketed dispatch (§4.2 hybrid load balancing): when
    /// the balancing policy picks it for this graph, bin the active
    /// vertices by the side's degree and run up to three kernels, each
    /// shaped for its band — slab for leaves, list for the middle, chunks
    /// for hubs. The binning pass schedules over the positions the word
    /// walk would ([`Items::resolve`]) or over the vertex list. `None`
    /// when the policy stays workgroup-mapped, when `items` is a
    /// single-layer bitmap, or when no bucket buffers could be obtained:
    /// the caller then takes the unbucketed shell, which needs no extra
    /// memory and computes the identical result.
    fn bucketed<S: Side<W>>(
        &self,
        side: &S,
        items: &Items<'_, W>,
        pool: Option<&BucketPool>,
    ) -> Option<Event> {
        let (q, t) = (self.shell.q, self.tuning);
        if matches!(items, Items::Flat { .. })
            || t.effective_balancing(S::profile(self.graph)) != Balancing::Bucketed
        {
            return None;
        }
        let spec = BucketSpec::from_tuning(t);
        let n = self.graph.vertex_count();
        let m = self.graph.edge_count();
        // Caller-provided pool when it fits, else a transient allocation for
        // this advance only; allocation failure degrades, never errors.
        let transient;
        let pool = match pool {
            Some(p) if p.fits(n, m, &spec) => p,
            _ => {
                transient = BucketPool::new(q, n, m, &spec).ok()?;
                &transient
            }
        };
        let nv = n as u32;
        let degree_of = |lane: &mut ItemCtx<'_>, v: VertexId| -> u32 {
            if v >= nv {
                return 0; // tail bits past the last vertex
            }
            let (lo, hi) = S::row(self.graph, lane, v);
            hi - lo
        };
        let counts = match *items {
            Items::List { items, len } => bucket::bin_list(q, items, len, pool, &degree_of, &spec),
            _ => {
                let word_at = |sg: &mut SubgroupCtx<'_, '_>, pos| items.resolve(sg, pos);
                bucket::bin_words(q, items.n_words(), word_at, pool, &degree_of, &spec)
            }
        };
        let [small, medium, large] = S::BUCKETS;
        let mut last = no_launch(q);
        if counts.small > 0 {
            last = self.slab(side, small, &pool.small, counts.small as usize);
        }
        if counts.medium > 0 {
            last = self.list(side, medium, &pool.medium, counts.medium as usize);
        }
        if counts.large > 0 {
            last = self.chunks(side, large, pool, counts.large as usize, spec.chunk);
        }
        Some(last)
    }

    /// Push dispatch over the measured input: pick the shell. The counted
    /// result reports list entries when sparse, non-zero words when
    /// dense; `Some(0)` means "converged" to superstep loops either way
    /// and launches nothing.
    fn frontier(&self, items: Items<'_, W>, pool: Option<&BucketPool>) -> (Event, Option<usize>) {
        let counted = items.counted();
        if counted == Some(0) {
            return (no_launch(self.shell.q), counted);
        }
        let ev = match self.bucketed(&Push, &items, pool) {
            Some(ev) => ev,
            None => match items {
                Items::List { items, len } => self.list(&Push, "advance_sparse", items, len),
                words => self.walk(&Push, &words),
            },
        };
        (ev, counted)
    }

    /// Pull dispatch: given the input's count (from the same single host
    /// readback the push path makes — its compaction also refreshes the
    /// metadata the input's lazy clear will use), enumerate candidates
    /// and pick the shell over them.
    fn pull(
        &self,
        input: &dyn BitmapLike<W>,
        counted: Option<usize>,
        scope: PullScope<'_, W>,
        pool: Option<&BucketPool>,
    ) -> (Event, Option<usize>) {
        if counted == Some(0) {
            return (no_launch(self.shell.q), counted);
        }
        let (items, unvisited) = match scope {
            PullScope::Unvisited(cand) => {
                let items = Items::words_of(self.shell.q, cand);
                if items.counted() == Some(0) {
                    // No candidate can adopt: the pull kernel is free.
                    return (no_launch(self.shell.q), counted);
                }
                (items, Some(cand))
            }
            PullScope::AllVertices => (Items::all_vertices(self.graph), None),
        };
        let side = Pull {
            fin_words: input.words(),
            unvisited,
        };
        let ev = self.bucketed(&side, &items, pool);
        (ev.unwrap_or_else(|| self.walk(&side, &items)), counted)
    }
}

// ---------------------------------------------------------------------------
// Edge-frontier advance (the paper's edge frontier view)
// ---------------------------------------------------------------------------

/// `advance::edges(G, InEdges, OutVertices, src_of, Functor)` — expands an
/// *edge* frontier: every set bit is an edge id; the functor sees the
/// edge's endpoints and decides whether the destination joins the output
/// *vertex* frontier.
///
/// Edge frontiers trade the per-vertex neighborhood imbalance of vertex
/// frontiers for perfectly uniform lanes (one edge each) plus an
/// edge→source lookup — build it once with
/// [`crate::graph::DeviceCsr::build_edge_sources`] and pass
/// `|l, e| l.load(&srcs, e as usize)` as `src_of`.
pub fn edges<W: Word, G: DeviceGraphView + ?Sized>(
    q: &Queue,
    graph: &G,
    input: &dyn BitmapLike<W>,
    output: &dyn BitmapLike<W>,
    tuning: &Tuning,
    src_of: impl Fn(&mut ItemCtx<'_>, EdgeId) -> VertexId + Sync,
    functor: impl AdvanceFunctor,
) -> (Event, Option<usize>) {
    let m = graph.edge_count() as u32;
    let items = Items::words_of(q, input);
    let counted = items.counted();
    if counted == Some(0) {
        return (no_launch(q), counted);
    }
    // One lane per set bit: edge frontiers are uniform by design, so the
    // walk is never split and needs no local memory.
    let expand = |sg: &mut SubgroupCtx<'_, '_>, word_idx: usize, word: W, bits, _| {
        let first_edge = word_idx as u32 * W::BITS;
        for_each_pass(sg, word, first_edge, m, bits, |sg, pass_first, mask| {
            sg.lanes(mask, |lane, item| {
                let e = pass_first + lane;
                let src = src_of(item, e);
                let dst = graph.edge_dest(item, e);
                let w = graph.edge_weight(item, e);
                item.compute(2);
                if functor(item, src, dst, e, w) {
                    output.insert_lane(item, dst);
                }
            });
        });
    };
    let shell = Shell::new(q, None);
    let ev = walk_words(&shell, tuning, "advance_edges", 0, false, &items, expand);
    (ev, counted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontier::{BitmapFrontier, Frontier, SparseFrontier, TwoLayerFrontier};
    use crate::graph::device::DeviceCsr;
    use crate::graph::host::CsrHost;
    use crate::inspector::{inspect, OptConfig};
    use sygraph_sim::{Device, DeviceProfile};

    /// Kernel names launched on `q` after the first `skip` records.
    fn kernel_names_after(q: &Queue, skip: usize) -> Vec<String> {
        q.profiler().kernels()[skip..]
            .iter()
            .map(|k| k.name.clone())
            .collect()
    }

    /// Tuning forcing the bucketed path with test-sized thresholds:
    /// degree ≤ 2 small, 3..=7 medium, ≥ 8 large (chunks of 8).
    fn bucket_tuning(q: &Queue, n: usize) -> Tuning {
        let mut t = inspect(q.profile(), &OptConfig::all(), n);
        t.balancing = Balancing::Bucketed;
        t.small_max_degree = 2;
        t.large_min_degree = 8;
        t
    }

    /// Hub 0 → 1..=20 (large), 1 → 2 (small), 2 → {3,4,5} (medium).
    fn mixed_degree_graph(q: &Queue) -> DeviceCsr {
        let mut edges: Vec<(u32, u32)> = (1..=20).map(|v| (0, v)).collect();
        edges.push((1, 2));
        edges.extend([(2, 3), (2, 4), (2, 5)]);
        DeviceCsr::upload(q, &CsrHost::from_edges(22, &edges)).unwrap()
    }

    fn queue() -> Queue {
        Queue::new(Device::new(DeviceProfile::host_test()))
    }

    fn tuning(q: &Queue, n: usize) -> Tuning {
        inspect(q.profile(), &OptConfig::all(), n)
    }

    fn star_graph(q: &Queue) -> DeviceCsr {
        // 0 -> 1..=20 (high-degree hub), 21 isolated
        let edges: Vec<(u32, u32)> = (1..=20).map(|v| (0, v)).collect();
        DeviceCsr::upload(q, &CsrHost::from_edges(22, &edges)).unwrap()
    }

    #[test]
    fn advance_expands_neighbors_two_layer() {
        let q = queue();
        let g = star_graph(&q);
        let mut t = tuning(&q, 22);
        t.word_bits = 32;
        let input = TwoLayerFrontier::<u32>::new(&q, 22).unwrap();
        let output = TwoLayerFrontier::<u32>::new(&q, 22).unwrap();
        input.insert_host(0);
        Advance::new(&q, &g, &input)
            .output(&output)
            .tuning(&t)
            .run(|_l, _s, _d, _e, _w| true);
        output.check_invariant().unwrap();
        assert_eq!(output.to_sorted_vec(), (1..=20).collect::<Vec<u32>>());
    }

    #[test]
    fn advance_expands_neighbors_plain_bitmap() {
        let q = queue();
        let g = star_graph(&q);
        let t = tuning(&q, 22);
        let input = BitmapFrontier::<u32>::new(&q, 22).unwrap();
        let output = BitmapFrontier::<u32>::new(&q, 22).unwrap();
        input.insert_host(0);
        Advance::new(&q, &g, &input)
            .output(&output)
            .tuning(&t)
            .run(|_l, _s, _d, _e, _w| true);
        assert_eq!(output.to_sorted_vec(), (1..=20).collect::<Vec<u32>>());
    }

    #[test]
    fn functor_filters_destinations() {
        let q = queue();
        let g = star_graph(&q);
        let t = tuning(&q, 22);
        let input = TwoLayerFrontier::<u32>::new(&q, 22).unwrap();
        let output = TwoLayerFrontier::<u32>::new(&q, 22).unwrap();
        input.insert_host(0);
        Advance::new(&q, &g, &input)
            .output(&output)
            .tuning(&t)
            .run(|_l, _s, d, _e, _w| d % 2 == 0);
        assert_eq!(
            output.to_sorted_vec(),
            (1..=20).filter(|v| v % 2 == 0).collect::<Vec<u32>>()
        );
    }

    #[test]
    fn functor_sees_src_edge_and_weight() {
        let q = queue();
        let h = CsrHost::from_edges_weighted(3, &[(0, 1), (1, 2)], Some(&[2.5, 7.5]));
        let g = DeviceCsr::upload(&q, &h).unwrap();
        let t = tuning(&q, 3);
        let input = TwoLayerFrontier::<u32>::new(&q, 3).unwrap();
        let output = TwoLayerFrontier::<u32>::new(&q, 3).unwrap();
        input.insert_host(1);
        let seen = q.malloc_device::<f32>(1).unwrap();
        let srcs = q.malloc_device::<u32>(1).unwrap();
        Advance::new(&q, &g, &input)
            .output(&output)
            .tuning(&t)
            .run(|l, s, _d, e, w| {
                l.fetch_add_f32(&seen, 0, w + e as f32);
                l.fetch_add(&srcs, 0, s);
                true
            });
        assert_eq!(seen.load(0), 7.5 + 1.0);
        assert_eq!(srcs.load(0), 1);
        assert_eq!(output.to_sorted_vec(), vec![2]);
    }

    #[test]
    fn duplicate_discoveries_coalesce_into_one_bit() {
        // Two sources both point at vertex 3: bitmap output holds it once.
        let q = queue();
        let h = CsrHost::from_edges(4, &[(0, 3), (1, 3)]);
        let g = DeviceCsr::upload(&q, &h).unwrap();
        let t = tuning(&q, 4);
        let input = TwoLayerFrontier::<u32>::new(&q, 4).unwrap();
        let output = TwoLayerFrontier::<u32>::new(&q, 4).unwrap();
        input.insert_host(0);
        input.insert_host(1);
        Advance::new(&q, &g, &input)
            .output(&output)
            .tuning(&t)
            .run(|_l, _s, _d, _e, _w| true);
        assert_eq!(output.count(&q), 1);
        output.check_invariant().unwrap();
    }

    #[test]
    fn discard_variant_runs_functor_without_output() {
        let q = queue();
        let g = star_graph(&q);
        let t = tuning(&q, 22);
        let input = TwoLayerFrontier::<u32>::new(&q, 22).unwrap();
        input.insert_host(0);
        let visits = q.malloc_device::<u32>(1).unwrap();
        Advance::new(&q, &g, &input)
            .tuning(&t)
            .run(|l, _s, _d, _e, _w| {
                l.fetch_add(&visits, 0, 1);
                false
            });
        assert_eq!(visits.load(0), 20);
    }

    #[test]
    fn vertices_advance_covers_all() {
        let q = queue();
        // chain 0 -> 1 -> 2 -> ... -> 9
        let edges: Vec<(u32, u32)> = (0..9).map(|v| (v, v + 1)).collect();
        let g = DeviceCsr::upload(&q, &CsrHost::from_edges(10, &edges)).unwrap();
        let t = tuning(&q, 10);
        let output = TwoLayerFrontier::<u32>::new(&q, 10).unwrap();
        Advance::all_vertices(&q, &g)
            .output(&output)
            .tuning(&t)
            .run(|_l, _s, _d, _e, _w| true);
        assert_eq!(output.to_sorted_vec(), (1..10).collect::<Vec<u32>>());
        let visits = q.malloc_device::<u32>(1).unwrap();
        Advance::<u32, _>::all_vertices(&q, &g)
            .tuning(&t)
            .run(|l, _s, _d, _e, _w| {
                l.fetch_add(&visits, 0, 1);
                false
            });
        assert_eq!(visits.load(0), 9, "one visit per edge");
    }

    #[test]
    fn wide_word_with_narrow_subgroup_multi_pass() {
        // 64-bit words on an 8-lane subgroup: 8 compaction passes.
        let q = queue();
        let edges: Vec<(u32, u32)> = (0..63).map(|v| (v, v + 1)).collect();
        let g = DeviceCsr::upload(&q, &CsrHost::from_edges(64, &edges)).unwrap();
        let t = tuning(&q, 64); // host device: sg 8; MSI gives word_bits 8? no: min(sg,64)=8 -> but W is u64 here
        let input = BitmapFrontier::<u64>::new(&q, 64).unwrap();
        let output = BitmapFrontier::<u64>::new(&q, 64).unwrap();
        for v in 0..64 {
            input.insert_host(v);
        }
        Advance::new(&q, &g, &input)
            .output(&output)
            .tuning(&t)
            .run(|_l, _s, _d, _e, _w| true);
        assert_eq!(output.to_sorted_vec(), (1..64).collect::<Vec<u32>>());
    }

    #[test]
    fn counted_advance_reports_nonzero_words() {
        let q = queue();
        let g = star_graph(&q);
        let t = tuning(&q, 22);
        let input = TwoLayerFrontier::<u32>::new(&q, 22).unwrap();
        let output = TwoLayerFrontier::<u32>::new(&q, 22).unwrap();
        // empty input: Some(0), no kernels beyond the compaction
        let (_, words) = Advance::new(&q, &g, &input)
            .output(&output)
            .tuning(&t)
            .run(|_l, _s, _d, _e, _w| true);
        assert_eq!(words, Some(0));
        input.insert_host(0);
        input.insert_host(21); // same 32-bit word as vertex 0
        let (_, words) = Advance::new(&q, &g, &input)
            .output(&output)
            .tuning(&t)
            .run(|_l, _s, _d, _e, _w| true);
        assert_eq!(words, Some(1));
        // plain bitmaps have no compaction: None
        let flat_in = BitmapFrontier::<u32>::new(&q, 22).unwrap();
        let flat_out = BitmapFrontier::<u32>::new(&q, 22).unwrap();
        let (_, words) = Advance::new(&q, &g, &flat_in)
            .output(&flat_out)
            .tuning(&t)
            .run(|_l, _s, _d, _e, _w| true);
        assert_eq!(words, None);
    }

    #[test]
    fn edge_frontier_advance() {
        let q = queue();
        // 0->1 (e0), 0->2 (e1), 1->3 (e2), 2->3 (e3)
        let h = CsrHost::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let g = DeviceCsr::upload(&q, &h).unwrap();
        let srcs = g.build_edge_sources(&q).unwrap();
        assert_eq!(srcs.to_vec(), vec![0, 0, 1, 2]);
        let t = tuning(&q, 4);
        // frontier over EDGES (4 of them)
        let edge_in = TwoLayerFrontier::<u32>::new(&q, 4).unwrap();
        let vert_out = TwoLayerFrontier::<u32>::new(&q, 4).unwrap();
        edge_in.insert_host(1); // edge 0->2
        edge_in.insert_host(2); // edge 1->3
        let seen_srcs = q.malloc_device::<u32>(1).unwrap();
        let (_, nz) = edges(
            &q,
            &g,
            &edge_in,
            &vert_out,
            &t,
            |l, e| l.load(&srcs, e as usize),
            |l, s, _d, _e, _w| {
                l.fetch_add(&seen_srcs, 0, s);
                true
            },
        );
        assert_eq!(nz, Some(1));
        assert_eq!(vert_out.to_sorted_vec(), vec![2, 3]);
        assert_eq!(
            seen_srcs.load(0),
            1,
            "functor saw both sources (ids 0 and 1)"
        );
    }

    #[test]
    fn edge_frontier_advance_plain_bitmap_and_filter() {
        let q = queue();
        let edges_list: Vec<(u32, u32)> = (0..50).map(|v| (v, (v + 1) % 50)).collect();
        let h = CsrHost::from_edges(50, &edges_list);
        let g = DeviceCsr::upload(&q, &h).unwrap();
        let srcs = g.build_edge_sources(&q).unwrap();
        let t = tuning(&q, 50);
        let edge_in = BitmapFrontier::<u64>::new(&q, 50).unwrap();
        let vert_out = BitmapFrontier::<u64>::new(&q, 50).unwrap();
        for e in 0..50 {
            edge_in.insert_host(e);
        }
        let (_, nz) = edges(
            &q,
            &g,
            &edge_in,
            &vert_out,
            &t,
            |l, e| l.load(&srcs, e as usize),
            |_l, _s, d, _e, _w| d % 2 == 0,
        );
        assert_eq!(nz, None, "plain bitmap has no compaction");
        assert_eq!(
            vert_out.to_sorted_vec(),
            (0..50).filter(|v| v % 2 == 0).collect::<Vec<u32>>()
        );
    }

    #[test]
    fn two_queues_advance_independently() {
        // §3.1: "some operations can run asynchronously, such as two
        // advance functions on separate graphs" — two queues have
        // independent timelines and state.
        let qa = queue();
        let qb = queue();
        let ga = star_graph(&qa);
        let gb = star_graph(&qb);
        let t = tuning(&qa, 22);
        let (ia, oa) = (
            TwoLayerFrontier::<u32>::new(&qa, 22).unwrap(),
            TwoLayerFrontier::<u32>::new(&qa, 22).unwrap(),
        );
        let (ib, ob) = (
            TwoLayerFrontier::<u32>::new(&qb, 22).unwrap(),
            TwoLayerFrontier::<u32>::new(&qb, 22).unwrap(),
        );
        ia.insert_host(0);
        ib.insert_host(0);
        let (ea, _) = Advance::new(&qa, &ga, &ia)
            .output(&oa)
            .tuning(&t)
            .run(|_l, _s, _d, _e, _w| true);
        let (eb, _) = Advance::new(&qb, &gb, &ib)
            .output(&ob)
            .tuning(&t)
            .run(|_l, _s, d, _e, _w| d < 10);
        ea.wait();
        eb.wait();
        assert_eq!(oa.to_sorted_vec().len(), 20);
        assert_eq!(ob.to_sorted_vec().len(), 9);
        // each queue only saw its own kernels
        assert!(qa.profiler().kernel_count() >= 1);
        assert!(qb.profiler().kernel_count() >= 1);
    }

    #[test]
    fn empty_frontier_is_cheap_with_two_layer() {
        let q = queue();
        let g = star_graph(&q);
        let t = tuning(&q, 22);
        let input = TwoLayerFrontier::<u32>::new(&q, 22).unwrap();
        let output = TwoLayerFrontier::<u32>::new(&q, 22).unwrap();
        Advance::new(&q, &g, &input)
            .output(&output)
            .tuning(&t)
            .run(|_l, _s, _d, _e, _w| true);
        assert!(output.is_empty(&q));
    }

    #[test]
    fn builder_defaults_tuning_via_inspector() {
        let q = queue();
        let g = star_graph(&q);
        let input = TwoLayerFrontier::<u32>::new(&q, 22).unwrap();
        let output = TwoLayerFrontier::<u32>::new(&q, 22).unwrap();
        input.insert_host(0);
        Advance::new(&q, &g, &input)
            .output(&output)
            .run(|_l, _s, _d, _e, _w| true);
        assert_eq!(output.to_sorted_vec(), (1..=20).collect::<Vec<u32>>());
    }

    #[test]
    fn fused_compute_runs_once_per_new_vertex() {
        let q = queue();
        // Two sources both point at 3; a chain edge reaches 2: the fused
        // functor must fire once for 3 (despite two discovering edges) and
        // once for 2.
        let h = CsrHost::from_edges(4, &[(0, 3), (1, 3), (0, 2)]);
        let g = DeviceCsr::upload(&q, &h).unwrap();
        let t = tuning(&q, 4);
        let input = TwoLayerFrontier::<u32>::new(&q, 4).unwrap();
        let output = TwoLayerFrontier::<u32>::new(&q, 4).unwrap();
        input.insert_host(0);
        input.insert_host(1);
        let fired = q.malloc_device::<u32>(4).unwrap();
        Advance::new(&q, &g, &input)
            .output(&output)
            .tuning(&t)
            .fuse(&|l, v| {
                l.fetch_add(&fired, v as usize, 1);
            })
            .run(|_l, _s, _d, _e, _w| true);
        assert_eq!(fired.to_vec(), vec![0, 0, 1, 1]);
        assert_eq!(output.to_sorted_vec(), vec![2, 3]);
    }

    #[test]
    fn fused_skips_already_set_destinations() {
        let q = queue();
        let g = star_graph(&q);
        let t = tuning(&q, 22);
        let input = TwoLayerFrontier::<u32>::new(&q, 22).unwrap();
        let output = TwoLayerFrontier::<u32>::new(&q, 22).unwrap();
        input.insert_host(0);
        // Pre-populate half the destinations: fused compute must not fire
        // for them (their bits were already set).
        for v in (1..=20).filter(|v| v % 2 == 0) {
            output.insert_host(v);
        }
        let fired = q.malloc_device::<u32>(1).unwrap();
        Advance::new(&q, &g, &input)
            .output(&output)
            .tuning(&t)
            .fuse(&|l, _v| {
                l.fetch_add(&fired, 0, 1);
            })
            .run(|_l, _s, _d, _e, _w| true);
        assert_eq!(fired.load(0), 10, "only first-time insertions fire");
    }

    #[test]
    #[should_panic(expected = "output frontier")]
    fn fuse_without_output_panics() {
        let q = queue();
        let g = star_graph(&q);
        let input = TwoLayerFrontier::<u32>::new(&q, 22).unwrap();
        input.insert_host(0);
        Advance::new(&q, &g, &input)
            .fuse(&|_l, _v| {})
            .run(|_l, _s, _d, _e, _w| true);
    }

    #[test]
    fn bucketed_matches_workgroup_mapped() {
        let q = queue();
        let g = mixed_degree_graph(&q);
        let t_wg = tuning(&q, 22);
        let t_bk = bucket_tuning(&q, 22);
        let run = |t: &Tuning| {
            let input = TwoLayerFrontier::<u32>::new(&q, 22).unwrap();
            let output = TwoLayerFrontier::<u32>::new(&q, 22).unwrap();
            for v in [0, 1, 2] {
                input.insert_host(v);
            }
            let (_, nz) = Advance::new(&q, &g, &input)
                .output(&output)
                .tuning(t)
                .run(|_l, _s, d, _e, _w| d != 7);
            (output.words().to_vec(), nz)
        };
        let (wg_words, wg_nz) = run(&t_wg);
        let (bk_words, bk_nz) = run(&t_bk);
        assert_eq!(wg_words, bk_words, "output frontiers bit-identical");
        assert_eq!(wg_nz, bk_nz);
    }

    #[test]
    fn bucketed_launches_only_nonempty_buckets() {
        let q = queue();
        let g = mixed_degree_graph(&q);
        let t = bucket_tuning(&q, 22);
        let input = TwoLayerFrontier::<u32>::new(&q, 22).unwrap();
        let output = TwoLayerFrontier::<u32>::new(&q, 22).unwrap();
        input.insert_host(1); // degree 1 → small bucket only
        let before = q.profiler().kernel_count();
        Advance::new(&q, &g, &input)
            .output(&output)
            .tuning(&t)
            .run(|_l, _s, _d, _e, _w| true);
        let names = kernel_names_after(&q, before);
        assert!(names.contains(&"advance_bucket_bin".to_string()));
        assert!(names.contains(&"advance_small".to_string()));
        assert!(!names.contains(&"advance_medium".to_string()));
        assert!(!names.contains(&"advance_large".to_string()));
        assert_eq!(output.to_sorted_vec(), vec![2]);
    }

    #[test]
    fn bucketed_large_chunks_cover_whole_adjacency() {
        let q = queue();
        // hub with degree 100 → 13 chunks of 8 under bucket_tuning
        let edges: Vec<(u32, u32)> = (1..=100).map(|v| (0, v)).collect();
        let g = DeviceCsr::upload(&q, &CsrHost::from_edges(101, &edges)).unwrap();
        let t = bucket_tuning(&q, 101);
        let input = TwoLayerFrontier::<u32>::new(&q, 101).unwrap();
        let output = TwoLayerFrontier::<u32>::new(&q, 101).unwrap();
        input.insert_host(0);
        let visits = q.malloc_device::<u32>(1).unwrap();
        Advance::new(&q, &g, &input)
            .output(&output)
            .tuning(&t)
            .run(|l, _s, _d, _e, _w| {
                l.fetch_add(&visits, 0, 1);
                true
            });
        assert_eq!(visits.load(0), 100, "each edge visited exactly once");
        assert_eq!(output.to_sorted_vec(), (1..=100).collect::<Vec<u32>>());
    }

    #[test]
    fn auto_bins_a_skewed_graph_whatever_the_frontier() {
        let q = queue();
        // hub 0 → 1..=30 plus leaves scattered over five bitmap words;
        // enough quiet words (n = 512 → 16 windows) that the hub's window
        // clears the Auto clustering bar.
        let mut edges: Vec<(u32, u32)> = (1..=30).map(|v| (0, v)).collect();
        for v in [33u32, 65, 97, 129] {
            edges.push((v, v + 1));
        }
        let skewed = DeviceCsr::upload(&q, &CsrHost::from_edges(512, &edges)).unwrap();
        let ring: Vec<(u32, u32)> = (0..512).map(|v| (v, (v + 1) % 512)).collect();
        let uniform = DeviceCsr::upload(&q, &CsrHost::from_edges(512, &ring)).unwrap();
        let mut t = tuning(&q, 512);
        t.word_bits = 32;
        t.balancing = Balancing::Auto;
        t.small_max_degree = 2;
        t.large_min_degree = 16; // hub (30) qualifies
        let run_and_names = |g: &DeviceCsr, actives: &[u32]| {
            let input = TwoLayerFrontier::<u32>::new(&q, 512).unwrap();
            let output = TwoLayerFrontier::<u32>::new(&q, 512).unwrap();
            for &v in actives {
                input.insert_host(v);
            }
            let before = q.profiler().kernel_count();
            Advance::new(&q, g, &input)
                .output(&output)
                .tuning(&t)
                .run(|_l, _s, _d, _e, _w| true);
            kernel_names_after(&q, before)
        };
        // The hub alone is one non-zero word, and the one that most needs
        // its edges spread: no volume bar stands in the way.
        for actives in [&[0u32, 33, 65, 97, 129][..], &[0]] {
            let names = run_and_names(&skewed, actives);
            assert!(names.contains(&"advance_bucket_bin".to_string()));
            assert!(names.contains(&"advance_large".to_string()));
            assert!(!names.contains(&"advance".to_string()));
        }
        // A uniform graph stays workgroup-mapped at any volume.
        let names = run_and_names(&uniform, &[0, 33, 65, 97, 129]);
        assert!(!names.contains(&"advance_bucket_bin".to_string()));
        assert!(names.contains(&"advance".to_string()));
    }

    #[test]
    fn all_vertices_offers_each_edge_once_under_every_balancing() {
        // Hub 0 → 1..=200 plus scattered leaves on 517 vertices (skewed,
        // and the last all-ones word has 27 tail bits); a 256-vertex ring
        // with chords (uniform, whole words); a 70-vertex chain (uniform,
        // tail bits).
        let mut hub: Vec<(u32, u32)> = (1..=200).map(|v| (0, v)).collect();
        hub.extend((210..500).step_by(7).map(|v| (v, v + 1)));
        hub.extend([(516, 3), (516, 4), (516, 5)]);
        let ring: Vec<(u32, u32)> = (0..256u32)
            .flat_map(|v| [(v, (v + 1) % 256), (v, (v + 9) % 256)])
            .collect();
        let chain: Vec<(u32, u32)> = (0..69).map(|v| (v, v + 1)).collect();
        for (n, edges, skewed) in [(517, hub, true), (256, ring, false), (70, chain, false)] {
            let q = Queue::with_sanitizer(Device::new(DeviceProfile::host_test()), 0x5EED);
            let g = DeviceCsr::upload(&q, &CsrHost::from_edges(n, &edges)).unwrap();
            let m = g.edge_count();
            for balancing in [
                Balancing::WorkgroupMapped,
                Balancing::Bucketed,
                Balancing::Auto,
            ] {
                let t = Tuning {
                    balancing,
                    ..bucket_tuning(&q, n)
                };
                let offered = q.malloc_device::<u32>(m).unwrap();
                q.fill(&offered, 0);
                let before = q.profiler().kernel_count();
                Advance::<u32, _>::all_vertices(&q, &g)
                    .tuning(&t)
                    .run(|l, u, v, e, _w| {
                        // The edge id names the edge: its endpoints must be
                        // the graph's, whichever lane got here.
                        assert_eq!(g.edge_dest(l, e), v);
                        let (lo, hi) = g.row_bounds(l, u);
                        assert!((lo..hi).contains(&e));
                        l.fetch_add(&offered, e as usize, 1);
                        false
                    });
                assert_eq!(offered.to_vec(), vec![1; m], "n={n} {balancing:?}");
                let names = kernel_names_after(&q, before);
                let binned =
                    balancing == Balancing::Bucketed || (balancing == Balancing::Auto && skewed);
                assert_eq!(
                    names.contains(&"advance_bucket_bin".to_string()),
                    binned,
                    "n={n} {balancing:?}: {names:?}"
                );
                assert_eq!(names.contains(&"advance".to_string()), !binned);
            }
            let san = q.sanitizer().unwrap();
            assert!(san.is_clean(), "n={n}:\n{}", san.report());
        }
    }

    #[test]
    fn empty_frontier_launches_only_the_compaction() {
        let q = queue();
        let g = star_graph(&q);
        for t in [tuning(&q, 22), bucket_tuning(&q, 22)] {
            let input = TwoLayerFrontier::<u32>::new(&q, 22).unwrap();
            let output = TwoLayerFrontier::<u32>::new(&q, 22).unwrap();
            let before = q.profiler().kernel_count();
            let (_, nz) = Advance::new(&q, &g, &input)
                .output(&output)
                .tuning(&t)
                .run(|_l, _s, _d, _e, _w| true);
            assert_eq!(nz, Some(0));
            assert_eq!(
                kernel_names_after(&q, before),
                vec!["frontier_compact".to_string()],
                "no empty advance grid may be launched"
            );
        }
    }

    #[test]
    fn zero_vertex_graph_launches_nothing() {
        let q = queue();
        let g = DeviceCsr::upload(&q, &CsrHost::from_edges(0, &[])).unwrap();
        let t = tuning(&q, 1);
        let output = TwoLayerFrontier::<u32>::new(&q, 1).unwrap();
        let before = q.profiler().kernel_count();
        Advance::<u32, _>::all_vertices(&q, &g)
            .output(&output)
            .tuning(&t)
            .run(|_l, _s, _d, _e, _w| true);
        assert_eq!(q.profiler().kernel_count(), before);
    }

    #[test]
    fn fused_fires_once_per_vertex_across_buckets() {
        let q = queue();
        // 0 → 2..=21 (large bucket), 1 → 2 (small bucket): vertex 2 is
        // discovered by both paths but the fused compute runs once.
        let mut edges: Vec<(u32, u32)> = (2..=21).map(|v| (0, v)).collect();
        edges.push((1, 2));
        let g = DeviceCsr::upload(&q, &CsrHost::from_edges(22, &edges)).unwrap();
        let t = bucket_tuning(&q, 22);
        let input = TwoLayerFrontier::<u32>::new(&q, 22).unwrap();
        let output = TwoLayerFrontier::<u32>::new(&q, 22).unwrap();
        input.insert_host(0);
        input.insert_host(1);
        let fired = q.malloc_device::<u32>(22).unwrap();
        Advance::new(&q, &g, &input)
            .output(&output)
            .tuning(&t)
            .fuse(&|l, v| {
                l.fetch_add(&fired, v as usize, 1);
            })
            .run(|_l, _s, _d, _e, _w| true);
        let fired = fired.to_vec();
        for (v, &count) in fired.iter().enumerate().take(22).skip(2) {
            assert_eq!(count, 1, "vertex {v} fused exactly once");
        }
    }

    #[test]
    fn pooled_buffers_are_reused() {
        let q = queue();
        let g = mixed_degree_graph(&q);
        let t = bucket_tuning(&q, 22);
        let spec = BucketSpec::from_tuning(&t);
        let pool = BucketPool::new(&q, 22, g.edge_count(), &spec).unwrap();
        let input = TwoLayerFrontier::<u32>::new(&q, 22).unwrap();
        let output = TwoLayerFrontier::<u32>::new(&q, 22).unwrap();
        for v in [0, 1, 2] {
            input.insert_host(v);
        }
        Advance::new(&q, &g, &input)
            .output(&output)
            .tuning(&t)
            .pool(Some(&pool))
            .run(|_l, _s, _d, _e, _w| true);
        assert_eq!(output.to_sorted_vec(), (1..=20).collect::<Vec<u32>>());
        let counts = pool.read_counts();
        assert_eq!(counts.small, 1, "pool holds the last binning result");
        assert_eq!(counts.medium, 1);
        assert!(counts.large >= 3, "hub split into ≥3 chunks of 8");
    }

    #[test]
    fn sparse_input_skips_compaction_and_matches_dense() {
        let q = queue();
        let g = star_graph(&q);
        let t = tuning(&q, 22);
        let dense_in = TwoLayerFrontier::<u32>::new(&q, 22).unwrap();
        let dense_out = TwoLayerFrontier::<u32>::new(&q, 22).unwrap();
        dense_in.insert_host(0);
        Advance::new(&q, &g, &dense_in)
            .output(&dense_out)
            .tuning(&t)
            .run(|_l, _s, d, _e, _w| d != 7);

        let sparse_in = SparseFrontier::<u32>::new(&q, 22).unwrap();
        let sparse_out = SparseFrontier::<u32>::new(&q, 22).unwrap();
        sparse_in.insert_host(0);
        let before = q.profiler().kernel_count();
        let (_, counted) = Advance::new(&q, &g, &sparse_in)
            .output(&sparse_out)
            .tuning(&t)
            .run(|_l, _s, d, _e, _w| d != 7);
        let names = kernel_names_after(&q, before);
        assert_eq!(counted, Some(1), "counted result is the list length");
        assert!(names.contains(&"advance_sparse".to_string()));
        assert!(
            !names
                .iter()
                .any(|n| n == "frontier_compact" || n == "advance"),
            "sparse dispatch must skip the bitmap scan: {names:?}"
        );
        assert_eq!(sparse_out.words().to_vec(), dense_out.words().to_vec());
    }

    #[test]
    fn sparse_empty_input_launches_nothing() {
        let q = queue();
        let g = star_graph(&q);
        let t = tuning(&q, 22);
        let input = SparseFrontier::<u32>::new(&q, 22).unwrap();
        let output = SparseFrontier::<u32>::new(&q, 22).unwrap();
        let before = q.profiler().kernel_count();
        let (_, counted) = Advance::new(&q, &g, &input)
            .output(&output)
            .tuning(&t)
            .run(|_l, _s, _d, _e, _w| true);
        assert_eq!(counted, Some(0));
        assert_eq!(
            q.profiler().kernel_count(),
            before,
            "an empty sparse frontier costs zero kernels — not even a compaction"
        );
    }

    #[test]
    fn sparse_input_through_bucketed_path_matches() {
        let q = queue();
        let g = mixed_degree_graph(&q);
        let t = bucket_tuning(&q, 22);
        let run_dense = || {
            let input = TwoLayerFrontier::<u32>::new(&q, 22).unwrap();
            let output = TwoLayerFrontier::<u32>::new(&q, 22).unwrap();
            for v in [0, 1, 2] {
                input.insert_host(v);
            }
            let (_, nz) = Advance::new(&q, &g, &input)
                .output(&output)
                .tuning(&t)
                .run(|_l, _s, d, _e, _w| d != 7);
            (output.words().to_vec(), nz)
        };
        let run_sparse = || {
            let input = SparseFrontier::<u32>::new(&q, 22).unwrap();
            let output = SparseFrontier::<u32>::new(&q, 22).unwrap();
            for v in [0, 1, 2] {
                input.insert_host(v);
            }
            let before = q.profiler().kernel_count();
            let (_, counted) = Advance::new(&q, &g, &input)
                .output(&output)
                .tuning(&t)
                .run(|_l, _s, d, _e, _w| d != 7);
            let names = kernel_names_after(&q, before);
            assert!(names.contains(&"advance_bucket_bin".to_string()));
            assert!(!names.contains(&"frontier_compact".to_string()));
            (output.words().to_vec(), counted)
        };
        let (dense_words, _) = run_dense();
        let (sparse_words, counted) = run_sparse();
        assert_eq!(dense_words, sparse_words, "bit-identical across reps");
        assert_eq!(counted, Some(3), "three active vertices in the list");
    }

    /// A pull-capable graph (CSR + CSC) over the given edges, with the
    /// CSC view already resident (the engine does this lazily, at
    /// the first planned pull; a bare operator test does it up front).
    fn pull_graph(q: &Queue, n: usize, edges: &[(u32, u32)]) -> crate::graph::Graph {
        let g = crate::graph::Graph::with_pull(q, &CsrHost::from_edges(n, edges)).unwrap();
        assert!(matches!(g.ensure_pull(q), Ok(true)));
        g
    }

    #[test]
    fn pull_all_vertices_matches_push() {
        let q = queue();
        let edges: Vec<(u32, u32)> = (1..=20).map(|v| (0, v)).collect();
        let g = pull_graph(&q, 22, &edges);
        // Workgroup-mapped, and binned by in-degree: the all-vertices
        // candidate list goes through the bucketed dispatch like any other.
        for (t, kernel) in [
            (tuning(&q, 22), "advance_pull"),
            (bucket_tuning(&q, 22), "advance_pull_small"),
        ] {
            let input = TwoLayerFrontier::<u32>::new(&q, 22).unwrap();
            input.insert_host(0);
            let push_out = TwoLayerFrontier::<u32>::new(&q, 22).unwrap();
            Advance::new(&q, &g, &input)
                .output(&push_out)
                .tuning(&t)
                .run(|_l, _s, _d, _e, _w| true);

            let pull_out = TwoLayerFrontier::<u32>::new(&q, 22).unwrap();
            let before = q.profiler().kernel_count();
            Advance::new(&q, &g, &input)
                .output(&pull_out)
                .tuning(&t)
                .pull(PullScope::AllVertices)
                .run(|_l, _s, _d, _e, _w| true);
            assert!(
                kernel_names_after(&q, before).contains(&kernel.to_string()),
                "the pull kernel family must carry the scan"
            );
            pull_out.check_invariant().unwrap();
            assert_eq!(pull_out.to_sorted_vec(), push_out.to_sorted_vec());
        }
    }

    #[test]
    fn pull_unvisited_adopts_and_removes_candidates() {
        // Frontier {0}; candidates {1, 2, 3, 6}. Only 1 and 2 have a
        // frontier parent: they adopt (into the output) and leave the
        // candidate set in-kernel; 3 (no in-edges) and 6 (parent 5 not in
        // the frontier) stay candidates. The candidate set is walked by
        // its compaction when two-layer, word by word when single-layer.
        let q = queue();
        let g = pull_graph(&q, 8, &[(0, 1), (0, 2), (5, 6)]);
        let t = tuning(&q, 8);
        let two_layer = TwoLayerFrontier::<u32>::new(&q, 8).unwrap();
        let single_layer = BitmapFrontier::<u32>::new(&q, 8).unwrap();
        let candidate_sets: [&dyn BitmapLike<u32>; 2] = [&two_layer, &single_layer];
        for unvisited in candidate_sets {
            let input = TwoLayerFrontier::<u32>::new(&q, 8).unwrap();
            input.insert_host(0);
            for v in [1, 2, 3, 6] {
                unvisited.insert_host(v);
            }
            let output = TwoLayerFrontier::<u32>::new(&q, 8).unwrap();
            Advance::new(&q, &g, &input)
                .output(&output)
                .tuning(&t)
                .pull(PullScope::Unvisited(unvisited))
                .run(|_l, _s, _d, _e, _w| true);
            output.check_invariant().unwrap();
            assert_eq!(output.to_sorted_vec(), vec![1, 2]);
            assert_eq!(unvisited.to_sorted_vec(), vec![3, 6]);
        }
        two_layer.check_invariant().unwrap();
    }

    #[test]
    fn pull_counted_result_is_the_input_compaction() {
        // The pull contract counts the INPUT frontier's compaction (the
        // number read back to size nothing — it rides along so the engine
        // can test convergence and feed its estimates without an extra
        // sync): two set bits in different words count two nonzero words.
        let q = queue();
        let g = pull_graph(&q, 200, &[(0, 1), (130, 131)]);
        let t = tuning(&q, 200);
        let input = TwoLayerFrontier::<u64>::new(&q, 200).unwrap();
        input.insert_host(0);
        input.insert_host(130);
        let output = TwoLayerFrontier::<u64>::new(&q, 200).unwrap();
        let (_, counted) = Advance::new(&q, &g, &input)
            .output(&output)
            .tuning(&t)
            .pull(PullScope::AllVertices)
            .run(|_l, _s, _d, _e, _w| true);
        assert_eq!(counted, Some(2), "two nonzero input words");
        assert_eq!(output.to_sorted_vec(), vec![1, 131]);
    }

    #[test]
    fn bucketed_pull_matches_wg_mapped_pull() {
        // In-degree spread across all three buckets: vertex 0 is an
        // in-hub (20), vertex 7 is medium (3), vertex 3 is a leaf (1).
        let q = queue();
        let mut edges: Vec<(u32, u32)> = (1..=20).map(|v| (v, 0)).collect();
        edges.push((1, 3));
        edges.extend([(8, 7), (9, 7), (10, 7)]);
        let g = pull_graph(&q, 21, &edges);

        let run_with = |t: &Tuning| {
            let input = TwoLayerFrontier::<u32>::new(&q, 21).unwrap();
            for v in 1..=20 {
                input.insert_host(v);
            }
            let unvisited = TwoLayerFrontier::<u32>::new(&q, 21).unwrap();
            for v in [0, 3, 7] {
                unvisited.insert_host(v);
            }
            let output = TwoLayerFrontier::<u32>::new(&q, 21).unwrap();
            let before = q.profiler().kernel_count();
            Advance::new(&q, &g, &input)
                .output(&output)
                .tuning(t)
                .pull(PullScope::Unvisited(&unvisited))
                .run(|_l, _s, _d, _e, _w| true);
            output.check_invariant().unwrap();
            assert_eq!(unvisited.count(&q), 0, "every candidate adopts");
            (output.to_sorted_vec(), kernel_names_after(&q, before))
        };

        let (plain, _) = run_with(&tuning(&q, 21));
        let (bucketed, names) = run_with(&bucket_tuning(&q, 21));
        assert_eq!(plain, bucketed, "balancing must not change adoptions");
        assert_eq!(plain, vec![0, 3, 7]);
        for k in [
            "advance_pull_small",
            "advance_pull_medium",
            "advance_pull_large",
        ] {
            assert!(names.contains(&k.to_string()), "missing {k} in {names:?}");
        }
    }
}
