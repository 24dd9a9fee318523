//! The superstep execution engine: owns the advance → compute → swap →
//! clear cycle that every frontier algorithm in §3.4 hand-rolled before.
//!
//! One [`SuperstepEngine::step`] performs a whole BSP superstep with a
//! *single* host-visible synchronization:
//!
//! 1. **Advance** — expands the input frontier through the graph. Under
//!    the two-layer layout the pre-advance compaction's word count doubles
//!    as the convergence check (`Some(0)` ⇒ the frontier is empty), so no
//!    separate count kernel or extra host read-back is needed.
//! 2. **Compute** — either *fused* into the advance kernel (the functor
//!    runs the moment a destination bit is first set, via
//!    [`BitmapLike::insert_lane_checked`]), or as a follow-up
//!    [`compute::over_compacted`] pass sized by the output frontier's
//!    non-zero words rather than its full capacity.
//! 3. **Rotate** — [`SuperstepEngine::rotate`] turns a ring of three
//!    frontiers: the output becomes the input, an already-empty spare
//!    becomes the output, and the old input is *retired* — garbage nobody
//!    reads. Its lazy clear (only the words the superstep's compaction or
//!    item list found set: [`BitmapLike::lazy_clear_units`], valid because
//!    every insert of the superstep went to the other frontier) rides the
//!    next superstep's first advance launch as tail workgroups, so it is
//!    off the critical path and a third buffer is all it costs.
//!
//! Per superstep on the two-layer layout this is 2 kernels fused
//! (compact, advance+compute+clear) versus 4+ for the classic unfused
//! sequence, 1 on an item list — and exactly one host sync (the compaction
//! count) either way. Events are chained internally; the engine only
//! surfaces the per-step convergence result.
//!
//! [`SuperstepEngine::step`] and its batched twin
//! [`SuperstepEngine::step_multi`] land under one contract: the engine
//! owns the recovery session (checkpoint, retries, OOM rung, resumes) and
//! the cancellation check, so every caller's loop is
//! `while engine.step(..)? { engine.rotate()? }`.

pub mod multi_device;
pub mod recovery;

use sygraph_sim::{
    DeviceBuffer, ItemCtx, PlanInputs, Queue, Retire, SimError, SimResult, TraceKind,
};

use crate::frontier::bucket::BucketPool;
use crate::frontier::lanes::{lane_locate, LaneView};
use crate::frontier::word::Word;
use crate::frontier::{swap, BitmapLike, Frontier, RepKind, TwoLayerFrontier};
use crate::graph::traits::DeviceGraphView;
use crate::inspector::{Balancing, Direction, Representation, Tuning};
use crate::operators::advance::{Advance, Measured, PullScope};
use crate::operators::compute;
use crate::types::{EdgeId, VertexId, Weight};

pub use multi_device::{HaloLink, MultiDeviceEngine, SuperstepExchange};
pub use recovery::{retry, CheckpointState, EngineCheckpoint, LaneCheckpoint, RecoveryPolicy};

/// Which candidate set the engine hands a *pull*-direction superstep
/// (see [`PullScope`]). Chosen once per engine by the algorithm — the
/// per-superstep push/pull decision itself belongs to the engine
/// ([`Tuning::plan`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PullCandidates {
    /// Every vertex scans its in-edges: the functor sees exactly the edge
    /// set a push superstep would offer, so any functor is safe
    /// (label-propagation algorithms like CC). With no early exit it never
    /// scans fewer edges than push, so only a forced
    /// [`Direction::Pull`] runs it; `Auto` stays push under this scope.
    #[default]
    AllVertices,
    /// Only the engine-maintained unvisited set scans, each candidate
    /// adopting on its first accepted in-edge and leaving the set
    /// in-kernel. Valid for visit-once algorithms with read-only advance
    /// functors (BFS-style): edges past the first accepted one are never
    /// offered.
    Unvisited,
}

/// Iteration-aware advance functor:
/// `(lane, iter, src, dst, edge, weight) -> bool`.
pub trait StepAdvance:
    Fn(&mut ItemCtx<'_>, u32, VertexId, VertexId, EdgeId, Weight) -> bool + Sync
{
}
impl<F> StepAdvance for F where
    F: Fn(&mut ItemCtx<'_>, u32, VertexId, VertexId, EdgeId, Weight) -> bool + Sync
{
}

/// Object-safe spelling of [`StepAdvance`], for callers that hold one
/// functor per partition behind a uniform type (the multi-device engine).
pub type StepAdvanceDyn<'f> =
    dyn Fn(&mut ItemCtx<'_>, u32, VertexId, VertexId, EdgeId, Weight) -> bool + Sync + 'f;

/// Iteration-aware compute functor: `(lane, iter, vertex)`. Passed as
/// `Option<&dyn StepComputeDyn>`; `None` means the algorithm has no
/// compute phase (e.g. SSSP relaxes inside the advance functor).
pub type StepComputeDyn<'f> = dyn Fn(&mut ItemCtx<'_>, u32, VertexId) + Sync + 'f;

/// Convenience for advance-only algorithms: `engine.step(f, NO_COMPUTE)`.
pub const NO_COMPUTE: Option<&StepComputeDyn<'static>> = None;

/// Lane-masked advance functor for batched multi-source supersteps:
/// `(lane, iter, src, dst, edge, weight, mask) -> accept_mask`.
///
/// `mask` is the set of source lanes on whose frontier `src` currently
/// sits (already intersected with the engine's live-lane set); the
/// functor returns the subset of those lanes accepting the edge. The
/// engine intersects the result back with `mask`, so returning a
/// superset is harmless.
pub trait LaneAdvance:
    Fn(&mut ItemCtx<'_>, u32, VertexId, VertexId, EdgeId, Weight, u64) -> u64 + Sync
{
}
impl<F> LaneAdvance for F where
    F: Fn(&mut ItemCtx<'_>, u32, VertexId, VertexId, EdgeId, Weight, u64) -> u64 + Sync
{
}

/// Lane-masked compute functor: `(lane, iter, vertex, fresh_mask)`, run
/// the moment `fresh_mask`'s lanes first land on `vertex` this superstep
/// (each `(vertex, lane)` pair fires exactly once — the lane-word
/// `fetch_or` plays the role [`BitmapLike::insert_lane_checked`] plays
/// for single-source fused compute).
pub type LaneComputeDyn<'f> = dyn Fn(&mut ItemCtx<'_>, u32, VertexId, u64) + Sync + 'f;

/// Host-side hook run after each landed superstep's advance+compute,
/// before the rotate: `(queue, iter, output_frontier)`. May launch kernels
/// and insert vertices into the output frontier (e.g. Connected
/// Components' shortcutting pass re-activating vertices whose label chain
/// collapsed). Installed with [`SuperstepEngine::post_step`].
pub type PostStep<'a, W> = &'a dyn Fn(&Queue, u32, &dyn BitmapLike<W>);

/// The engine's recovery state for the run: the latest checkpoint, the
/// transient retries spent on the current superstep (reset when it
/// lands), and the OOM rung and resume count, which persist.
#[derive(Default)]
struct Session {
    checkpoint: Option<EngineCheckpoint>,
    retries: u32,
    oom_rung: u32,
    resumes: u32,
}

/// The superstep engine. Owns the frontier ring — the input, the output
/// and, where the layout offers one, the spare that lets a retired input
/// be cleared inside the next advance launch — and the
/// advance→compute→rotate cycle; algorithms supply functors and
/// (optionally) inspect or reseed the input and output between steps.
pub struct SuperstepEngine<'a, W: Word, G: DeviceGraphView + ?Sized> {
    q: &'a Queue,
    graph: &'a G,
    tuning: Tuning,
    fin: Box<dyn BitmapLike<W>>,
    fout: Box<dyn BitmapLike<W>>,
    /// The ring's third frontier, asked of the layout at the first
    /// [`rotate`](SuperstepEngine::rotate) ([`BitmapLike::empty_like`]):
    /// while `retire` is set it holds the retired input, otherwise it is
    /// empty. `None` after `spare_asked` means the layout declined (or the
    /// device had no room) and the engine rotates a pair.
    spare: Option<Box<dyn BitmapLike<W>>>,
    spare_asked: bool,
    /// The clear the retired frontier still owes: `Some(fresh)` from the
    /// rotate that retired it until an advance carries its lazy clear (or
    /// the next rotate launches the clear alone), `fresh` being whether
    /// its compaction metadata can still be trusted — a recovery in
    /// between says it cannot, and the clear is then a full one.
    retire: Option<bool>,
    fused: bool,
    mark_prefix: String,
    max_iters: usize,
    diverge_msg: String,
    iter: u32,
    /// Whether `fin`'s compaction metadata is fresh (set by [`step`]: the
    /// advance compacted `fin` and every insert since went to `fout`), so
    /// the next [`rotate`] may clear it lazily.
    ///
    /// [`step`]: SuperstepEngine::step
    /// [`rotate`]: SuperstepEngine::rotate
    lazy_ok: bool,
    /// Bucket buffers shared by every superstep's degree-bucketed advance
    /// (satellite of the §4.2 hybrid dispatch: allocate once per engine,
    /// not once per `advance`). Allocated on the first superstep;
    /// `pool_attempted` stops us retrying a failed allocation every step.
    bucket_pool: Option<BucketPool>,
    pool_attempted: bool,
    /// Representation the input frontier ran under last superstep, the
    /// hysteresis state of [`Tuning::plan`]. The engine asks the frontier
    /// to adopt what the plan says — layouts that can't (plain bitmaps,
    /// two-layer) are planned `Dense` and nothing changes.
    rep: RepKind,
    /// Estimated input-frontier population for the next rep decision:
    /// the counted-compaction result the engine already reads back for
    /// convergence — exact entries under sparse, `nz_words × word_bits`
    /// under dense — so the policy costs no extra host round-trip.
    last_estimate: usize,
    /// Forward population estimate for the frontier the last superstep
    /// *wrote* (i.e. this superstep's input): what the output-side
    /// adoption was decided on. Folded into the next rep decision so a
    /// wavefront that just exploded — the one case `last_estimate`, being
    /// one step behind, always mispredicts — is not asked to go sparse
    /// and pay a doomed list rebuild.
    predicted: usize,
    /// The input frontier's exact population, once a probe has read it off
    /// a current list. The input is immutable until the rotate, so the
    /// number outlives the list: a retried superstep plans from it although
    /// the repair in between left the list stale.
    listed: Option<usize>,
    /// Candidate-set policy for pull supersteps (engine-level direction
    /// optimization); set once via [`SuperstepEngine::pull_scope`].
    pull_scope: PullCandidates,
    /// Direction the last superstep ran (`false` = push). Feeds the
    /// Beamer hysteresis in [`Tuning::plan`].
    pulling: bool,
    /// Sticky opt-out: set when the graph has no pull view, building one
    /// failed, or the OOM ladder forced push. Never cleared within a run.
    pull_disabled: bool,
    /// Whether any pull superstep has launched (gates the force-push OOM
    /// rung so push-only runs keep the pre-existing ladder).
    pull_engaged: bool,
    /// The engine-maintained unvisited set ([`PullCandidates::Unvisited`]):
    /// seeded `all − fin` before the first superstep, shrunk in-kernel by
    /// pull adoptions and by the push advance removing each accepted
    /// destination in-functor.
    unvisited: Option<TwoLayerFrontier<W>>,
    /// Algorithm buffers to capture in checkpoints (registered via
    /// [`SuperstepEngine::checkpoint_state`]); without them a
    /// `DeviceLost` cannot be recovered from.
    ckpt_state: Option<&'a [&'a dyn CheckpointState]>,
    /// Batched multi-source state ([`SuperstepEngine::multi_source`]):
    /// `None` for ordinary single-source engines.
    multi: Option<MultiState>,
    /// The hook [`SuperstepEngine::post_step`] installed.
    post: Option<PostStep<'a, W>>,
    /// Recovery state every superstep lands under (`land`, `recover`).
    session: Session,
}

/// Engine-side state of a batched multi-source run.
struct MultiState {
    /// Lanes per vertex (8, 16, 32 or 64).
    width: u32,
    /// Lanes not yet retired. A lane retires when a superstep produces no
    /// fresh frontier bit for it; retired lanes are masked out of every
    /// functor's lane mask, so late lanes never pay for finished ones.
    live: u64,
    /// One-word device scratch: the advance ORs each fresh mask in, and
    /// the post-step bookkeeping reads it to retire drained lanes. Reset
    /// only *after* a successful superstep's read (never per attempt):
    /// kernels are all-or-nothing, so across transient retries the OR
    /// accumulates exactly the surviving attempt's fresh lanes.
    alive: DeviceBuffer<u64>,
}

impl<'a, W: Word, G: DeviceGraphView + ?Sized> SuperstepEngine<'a, W, G> {
    /// Creates an engine over a seeded input frontier and an empty output
    /// frontier (both supplied by the caller, so any
    /// [`BitmapLike`] layout works).
    pub fn new(
        q: &'a Queue,
        graph: &'a G,
        tuning: Tuning,
        fin: Box<dyn BitmapLike<W>>,
        fout: Box<dyn BitmapLike<W>>,
    ) -> Self {
        SuperstepEngine {
            q,
            graph,
            tuning,
            fin,
            fout,
            spare: None,
            spare_asked: false,
            retire: None,
            fused: false,
            mark_prefix: "superstep".into(),
            max_iters: usize::MAX,
            diverge_msg: "superstep loop failed to converge".into(),
            iter: 0,
            lazy_ok: false,
            bucket_pool: None,
            pool_attempted: false,
            rep: RepKind::Dense,
            // Engines start from seed frontiers (a vertex or two), so the
            // first Auto decision leans sparse; frontiers that can't go
            // sparse (or whose bounded list overflowed, e.g. after
            // `fill_all`) adopt back to dense on their own.
            last_estimate: 0,
            predicted: 0,
            listed: None,
            pull_scope: PullCandidates::default(),
            pulling: false,
            pull_disabled: false,
            pull_engaged: false,
            unvisited: None,
            ckpt_state: None,
            multi: None,
            post: None,
            session: Session::default(),
        }
    }

    /// Switches the engine into batched multi-source mode: the frontier
    /// pair must be [`LaneFrontier`]s of this `width` (∈ {8, 16, 32,
    /// 64}), and `live` names the lanes actually carrying a source.
    /// Supersteps then run through
    /// [`step_multi`](SuperstepEngine::step_multi).
    ///
    /// Pins the pull scope to [`PullCandidates::AllVertices`]: the
    /// adopt-once [`PullCandidates::Unvisited`] scan stops offering a
    /// vertex's in-edges after its *first* accepted lane, which would
    /// starve the other lanes. Batched supersteps therefore pull only
    /// under a forced [`Direction::Pull`].
    ///
    /// [`LaneFrontier`]: crate::frontier::LaneFrontier
    pub fn multi_source(mut self, width: u32, live: u64) -> SimResult<Self> {
        assert!(
            matches!(width, 8 | 16 | 32 | 64),
            "lane width must be 8, 16, 32 or 64 (got {width})"
        );
        let alive = self.q.malloc_device::<u64>(1)?;
        alive.store(0, 0);
        self.pull_scope = PullCandidates::AllVertices;
        self.multi = Some(MultiState {
            width,
            live: live & LaneView::mask_all(width),
            alive,
        });
        Ok(self)
    }

    /// Lanes not yet retired (all-zero once every source converged).
    /// Zero for single-source engines.
    pub fn live_lanes(&self) -> u64 {
        self.multi.as_ref().map_or(0, |m| m.live)
    }

    /// Allocates the engine-owned bucket pool on the first superstep,
    /// when the balancing policy bins on this graph at all
    /// ([`BucketPool::for_graph`]). Kept out of `new` so engines on
    /// `WorkgroupMapped` tuning (or on graphs with no clustered hubs under
    /// `Auto`) never pay the allocation — which also keeps OOM behaviour
    /// identical to the pre-bucketing engine for those runs.
    fn ensure_bucket_pool(&mut self) {
        if !self.pool_attempted {
            self.pool_attempted = true;
            self.bucket_pool = BucketPool::for_graph(self.q, self.graph, &self.tuning);
        }
    }

    /// Fuses the compute functor into the advance kernel (see the module
    /// docs). Off by default; a bit-identical but cheaper execution for
    /// compute functors that depend only on `(iter, vertex)`.
    pub fn fused(mut self, yes: bool) -> Self {
        self.fused = yes;
        self
    }

    /// Profiler-marker prefix: each superstep records `"{prefix}{iter}"`.
    pub fn mark_prefix(mut self, prefix: impl Into<String>) -> Self {
        self.mark_prefix = prefix.into();
        self
    }

    /// Sets the candidate set pull supersteps enumerate. The default,
    /// [`PullCandidates::AllVertices`], is safe for every functor;
    /// visit-once algorithms (BFS) opt into
    /// [`PullCandidates::Unvisited`] for the Beamer-style early-exit
    /// scan. Has no effect unless the tuning's [`Direction`] policy and
    /// the graph's pull view let a superstep actually run pull.
    pub fn pull_scope(mut self, scope: PullCandidates) -> Self {
        self.pull_scope = scope;
        self
    }

    /// Registers the algorithm buffers checkpoints must capture (e.g.
    /// BFS's distance buffer). Required for `DeviceLost` recovery; the
    /// buffers' contents are snapshot host-side, never via kernels.
    pub fn checkpoint_state(mut self, state: &'a [&'a dyn CheckpointState]) -> Self {
        self.ckpt_state = Some(state);
        self
    }

    /// Errors out of [`rotate`](SuperstepEngine::rotate) with `msg` once
    /// the iteration count exceeds `n` (divergence guard).
    pub fn max_iters(mut self, n: usize, msg: impl Into<String>) -> Self {
        self.max_iters = n;
        self.diverge_msg = msg.into();
        self
    }

    /// Runs `hook` after every superstep that lands with no fault pending
    /// (see [`PostStep`]). It must be idempotent: a fault in it re-runs
    /// the whole superstep, hook included.
    pub fn post_step(mut self, hook: PostStep<'a, W>) -> Self {
        self.post = Some(hook);
        self
    }

    /// Supersteps completed so far.
    pub fn iteration(&self) -> u32 {
        self.iter
    }

    /// Checkpoint resumes performed so far.
    pub fn resumes(&self) -> u32 {
        self.session.resumes
    }

    /// The current input frontier.
    pub fn input(&self) -> &dyn BitmapLike<W> {
        self.fin.as_ref()
    }

    /// The current output frontier.
    pub fn output(&self) -> &dyn BitmapLike<W> {
        self.fout.as_ref()
    }

    /// `unv −= sub`, word-wise (AND-NOT), then layer-2 rebuild. One-time
    /// seeding cost only: steady-state maintenance rides inside the
    /// advance (push supersteps remove accepted destinations in-functor,
    /// pull supersteps remove adoptions in-kernel), so no per-superstep
    /// full sweep ever runs.
    fn subtract_words(q: &Queue, unv: &TwoLayerFrontier<W>, sub: &dyn BitmapLike<W>) {
        let uw = unv.words();
        let sw = sub.words();
        let nw = unv.num_words().min(sub.num_words());
        q.parallel_for("unvisited_subtract", nw, |lane, i| {
            let a: W = lane.load(uw, i);
            let b: W = lane.load(sw, i);
            lane.store(uw, i, a.and(b.not()));
            lane.compute(1);
        });
        unv.rebuild_from_words(q);
    }

    /// Allocates and seeds the unvisited set (`all − fin`) before the
    /// first superstep of an engine that may pull with
    /// [`PullCandidates::Unvisited`]. Seeding at iteration 0 — rather
    /// than at the first pull superstep — keeps the set *exact*: every
    /// later accepted push edge removes its destination in-functor,
    /// every pull adoption removes in-kernel.
    fn seed_unvisited(&mut self) {
        if self.iter != 0
            || self.pull_disabled
            || self.unvisited.is_some()
            || self.pull_scope != PullCandidates::Unvisited
            || self.tuning.direction == Direction::Push
            || !self.graph.supports_pull()
        {
            return;
        }
        match TwoLayerFrontier::<W>::new(self.q, self.graph.vertex_count()) {
            Ok(unv) => {
                unv.fill_all(self.q);
                Self::subtract_words(self.q, &unv, self.fin.as_ref());
                self.unvisited = Some(unv);
            }
            // No memory for the candidate set: run the whole traversal
            // push-side rather than fail.
            Err(_) => self.pull_disabled = true,
        }
    }

    /// The body of one superstep: advance (with compute fused in or
    /// following as an [`compute::over_compacted`] pass) and the single
    /// convergence check. Returns `false` if the input frontier was empty.
    /// Blind to injected faults — `land` drains them.
    fn superstep(
        &mut self,
        advance_f: impl StepAdvance,
        compute_f: Option<&StepComputeDyn<'_>>,
    ) -> bool {
        let iter = self.iter;
        let mark = format!("{}{}", self.mark_prefix, iter);
        self.q.trace(Some(iter), TraceKind::Mark(mark));
        self.ensure_bucket_pool();
        self.seed_unvisited();
        // Plan the representation from what the engine already holds
        // host-side — last superstep's counted compaction, the input's
        // list length where that is a free read, the graph's load-time
        // profile — and have both frontiers adopt it *before* anything is
        // measured, because the measure and the dispatch key off the
        // adopted layout. Then measure the input once (the superstep's one
        // host read-back) and plan the direction from that: the count of
        // the frontier about to be expanded, not of the one before it.
        debug_assert_eq!(self.fin.capacity(), self.fout.capacity());
        let probe = self.fin.list_probe();
        self.listed = probe.and_then(|len| len.or(self.listed));
        let profile = self.graph.degree_profile();
        let scoped = self.pull_scope == PullCandidates::Unvisited;
        let mut inputs = PlanInputs {
            last_estimate: self.last_estimate,
            measured: None,
            predicted: self.predicted,
            capacity: self.fin.capacity(),
            n: self.graph.vertex_count(),
            prev_sparse: self.rep == RepKind::Sparse,
            prev_pull: self.pulling,
            pull_available: !self.pull_disabled
                && self.graph.supports_pull()
                && (!scoped || self.unvisited.is_some()),
            pull_exits_early: scoped,
            listable: probe.is_some(),
            listed: self.listed,
            max_degree: profile.map_or(0, |p| p.max_degree),
            word_skew: profile.map_or(0.0, |p| p.word_skew),
        };
        let mut plan = self.tuning.represent(&inputs);
        let adopted = self.fin.adopt_rep(self.q, RepKind::of(plan.sparse_in));
        self.fout.adopt_rep(self.q, RepKind::of(plan.sparse_out));
        self.predicted = plan.predicted;
        let work = Measured::of(self.q, self.fin.as_ref());
        inputs.measured = work.population();
        plan.pull = self.tuning.pulls(&inputs);
        // The first superstep that pulls makes the graph's CSC view
        // resident; a failure pins the engine to push for the rest of the
        // run (a planned pull already implies the rest of
        // `pull_available`).
        let pull = plan.pull && {
            let ready = matches!(self.graph.ensure_pull(self.q), Ok(true));
            self.pull_disabled |= !ready;
            ready
        };
        // Keep the unvisited set exact at O(accepted edges), not O(n):
        // on push supersteps every accepted destination is removed
        // in-functor (idempotent atomic AND-NOT, so duplicate accepts are
        // harmless). A pull superstep removes its adoptions inside the
        // pull kernel instead, and a full-sweep subtract here would cost
        // more than the advance itself on a long-diameter road graph.
        let unv_push = if pull { None } else { self.unvisited.as_ref() };
        let adv = |l: &mut ItemCtx<'_>, s: VertexId, d: VertexId, e: EdgeId, w: Weight| {
            let accepted = advance_f(l, iter, s, d, e, w);
            if accepted {
                if let Some(unv) = unv_push {
                    unv.remove_lane(l, d);
                }
            }
            accepted
        };
        if pull {
            self.pull_engaged = true;
        }
        // The retired frontier's lazy clear rides this advance when its
        // metadata is fresh and the layout can state it; otherwise it
        // waits for the next rotate.
        let tail = match (self.retire, &self.spare) {
            (Some(true), Some(spare)) => spare.lazy_clear_units(),
            _ => None,
        };
        let fused_wrap;
        let mut builder = Advance::measured(self.q, self.graph, work)
            .output(self.fout.as_ref())
            .tuning(&self.tuning)
            .pool(self.bucket_pool.as_ref());
        if pull {
            builder = builder.pull(match (self.pull_scope, self.unvisited.as_ref()) {
                (PullCandidates::Unvisited, Some(unv)) => {
                    PullScope::Unvisited(unv as &dyn BitmapLike<W>)
                }
                _ => PullScope::AllVertices,
            });
        }
        if let (true, Some(cf)) = (self.fused, compute_f) {
            fused_wrap = move |l: &mut ItemCtx<'_>, v: VertexId| cf(l, iter, v);
            builder = builder.fuse(&fused_wrap);
        }
        let (ev, _, carried) = builder.run_carrying(tail.as_ref(), adv);
        ev.wait();
        let offered = tail.is_some();
        drop(tail);
        // An injected fault mid-superstep leaves skipped kernels behind:
        // the compaction count is stale and must not drive convergence,
        // representation or estimate decisions. Report "not converged" and
        // leave interpretation to the recovery layer (`land` drains it);
        // with no fault plan attached this check is free.
        if self.q.fault_pending() {
            self.distrust_metadata();
            return true;
        }
        let retired = match (&self.spare, self.retire) {
            (Some(spare), Some(_)) if carried => {
                spare.lazy_cleared();
                self.retire = None;
                Retire::Inline
            }
            (Some(_), Some(_)) if offered => Retire::Standalone("no-launch"),
            (Some(_), Some(_)) => Retire::Standalone("not-fresh"),
            (None, _) if self.spare_asked => Retire::Standalone("declined"),
            _ => Retire::None,
        };
        // The measure feeds the next representation decision. Single-layer
        // bitmaps have none — pin the estimate at capacity so Auto never
        // goes sparse.
        let measured = inputs.measured;
        self.last_estimate = measured.unwrap_or(self.fin.capacity());
        // The one host-visible check of the superstep: the measure
        // (already read back to size the launch) doubles as the
        // convergence test. Single-layer bitmaps have no compaction and
        // fall back to an emptiness kernel.
        if measured == Some(0) || (measured.is_none() && self.fin.is_empty(self.q)) {
            return false;
        }
        self.rep = adopted;
        self.pulling = pull;
        let ran = TraceKind::Plan {
            inputs,
            plan,
            sparse: adopted == RepKind::Sparse,
            pull,
            retired,
        };
        self.q.trace(Some(iter), ran);
        if !self.fused {
            if let Some(cf) = compute_f {
                compute::over_compacted(self.q, self.fout.as_ref(), |l, v| cf(l, iter, v)).wait();
            }
        }
        self.lazy_ok = true;
        true
    }

    /// Runs one superstep: advance (with compute fused in or following as
    /// an [`compute::over_compacted`] pass), the single convergence check
    /// and the [`post_step`](SuperstepEngine::post_step) hook. Returns
    /// `Ok(false)` if the input frontier was empty — the algorithm has
    /// converged and nothing was launched — `Ok(true)` after a full
    /// superstep, in which case the caller advances the cycle with
    /// [`rotate`](SuperstepEngine::rotate).
    ///
    /// The superstep lands under the tuning's [`RecoveryPolicy`]: a fault
    /// is retried, degraded around or resumed from a checkpoint (`land`)
    /// until the superstep completes — its effects are a partial,
    /// idempotent prefix, safe to re-run from the unchanged input frontier
    /// — or surfaces as `Err` when the policy does not cover it. Under the
    /// all-off default every fault does. A fired cancel token is `Err`
    /// too. Never `Err` with no fault plan and no token attached.
    pub fn step(
        &mut self,
        advance_f: impl StepAdvance,
        compute_f: Option<&StepComputeDyn<'_>>,
    ) -> SimResult<bool> {
        self.land(|e| e.superstep(&advance_f, compute_f))
    }

    /// One batched multi-source superstep: expands every live lane's
    /// frontier through one advance over the *union* frontier. Per edge
    /// the engine reads the source's packed lane mask (one `u64` load),
    /// hands the live subset to `advance_f`, ORs the accepted lanes into
    /// the destination's mask, and — for lanes whose bit was *fresh* —
    /// fires `compute_f` and marks the lane alive. After the advance,
    /// lanes that produced no fresh bit retire: they are masked out of
    /// every subsequent lane mask, so the only per-superstep cost of a
    /// finished source is one AND.
    ///
    /// Composes with everything [`step`](SuperstepEngine::step) does —
    /// bucketed balancing, representation policy (lane frontiers pin
    /// dense), push/pull direction selection (pull adopts per-lane via
    /// the same mask arithmetic), and the same landing contract, with
    /// lane-aware checkpoints that capture the per-vertex masks and the
    /// live-lane set — because the union frontier *is* a two-layer bitmap
    /// underneath. Functors must be lane-idempotent (the batched BFS
    /// family is: depth stamps are guarded by the fresh mask).
    pub fn step_multi(
        &mut self,
        advance_f: impl LaneAdvance,
        compute_f: Option<&LaneComputeDyn<'_>>,
    ) -> SimResult<bool> {
        self.land(|e| e.lane_superstep(&advance_f, compute_f))
    }

    /// The body of [`step_multi`](SuperstepEngine::step_multi): wraps the
    /// lane functor into an ordinary one, runs [`superstep`] and retires
    /// drained lanes. Re-built per attempt: a resume rewinds the live set.
    ///
    /// [`superstep`]: SuperstepEngine::superstep
    fn lane_superstep(
        &mut self,
        advance_f: impl LaneAdvance,
        compute_f: Option<&LaneComputeDyn<'_>>,
    ) -> bool {
        let ms = self
            .multi
            .as_ref()
            .expect("step_multi requires SuperstepEngine::multi_source");
        let width = ms.width;
        let live = ms.live;
        let alive = ms.alive.alias();
        let li = self
            .fin
            .lane_view()
            .expect("multi-source engines take LaneFrontier inputs")
            .lanes;
        let lo = self
            .fout
            .lane_view()
            .expect("multi-source engines take LaneFrontier outputs")
            .lanes;
        let mask_all = LaneView::mask_all(width);
        let iter = self.iter;
        let wrapped = move |l: &mut ItemCtx<'_>,
                            it: u32,
                            u: VertexId,
                            v: VertexId,
                            e: EdgeId,
                            w: Weight|
              -> bool {
            let (uw, us) = lane_locate(u, width);
            // Input masks are stable for the whole superstep (all writes
            // go to the output's lane words), so a plain load suffices.
            let m = (l.load::<u64>(&li, uw) >> us) & mask_all & live;
            if m == 0 {
                return false;
            }
            let acc = advance_f(l, it, u, v, e, w, m) & m;
            if acc == 0 {
                return false;
            }
            let (vw, vs) = lane_locate(v, width);
            // Most hub-superstep edges rediscover lanes already on v's
            // output mask, and sorted adjacency packs consecutive
            // destinations into shared lane words — a blind fetch_or
            // serializes those subgroups. One atomic load skips the OR
            // (and the union insert) when nothing would be fresh; bits
            // are only ever added during a superstep, so a stale read
            // errs toward a redundant OR, never a missed fresh bit.
            let cur = l.load_atomic::<u64>(&lo, vw);
            if acc & !(cur >> vs) == 0 {
                return false;
            }
            let old = l.fetch_or(&lo, vw, acc << vs);
            let fresh = acc & !(old >> vs) & mask_all;
            if fresh == 0 {
                // Lanes already on v's output mask: the union bit is set
                // too, so skip the union insert (and the compute).
                return false;
            }
            if let Some(cf) = compute_f {
                cf(l, it, v, fresh);
            }
            // Every fresh edge targets the same scratch word, so a blind
            // fetch_or would serialize whole subgroups on hub supersteps.
            // The atomic-load guard may read a stale word and issue a
            // redundant OR — harmless — but once the word covers `fresh`
            // (almost immediately) the atomic disappears entirely.
            if fresh & !l.load_atomic::<u64>(&alive, 0) != 0 {
                l.fetch_or(&alive, 0, fresh);
            }
            true
        };
        let stepped = self.superstep(wrapped, NO_COMPUTE);
        // A fault mid-superstep leaves the alive scratch a partial OR —
        // hand off to the recovery layer without retiring anything (and
        // without resetting the scratch: retries accumulate into it).
        if stepped && !self.q.fault_pending() {
            let ms = self.multi.as_mut().expect("checked above");
            let alive_mask = ms.alive.load(0) & live;
            ms.alive.store(0, 0);
            let retired = (live & !alive_mask).count_ones();
            ms.live = alive_mask;
            let census = TraceKind::Lanes {
                active: alive_mask.count_ones(),
                retired,
            };
            self.q.trace(Some(iter), census);
        }
        stepped
    }

    /// The one superstep contract behind [`step`](SuperstepEngine::step)
    /// and [`step_multi`](SuperstepEngine::step_multi), in order:
    ///
    /// 1. A fault latched *before* the superstep means kernels outside the
    ///    retry domain (setup fills, frontier seeds) were silently skipped
    ///    — state a re-run of the superstep cannot repair; absorbed, the
    ///    run would "converge" on uninitialized buffers. It surfaces as
    ///    is. Algorithms run their idempotent setup under [`retry`], so a
    ///    clean entry is the norm even under fault injection.
    /// 2. At the policy's `checkpoint_every` cadence, a checkpoint; and
    ///    before every attempt at that cadence (every superstep when
    ///    checkpointing is off), the cancellation check — `recover` never
    ///    retries `Cancelled`, so a deadline or drain aborts at once.
    /// 3. The attempt, then the post-step hook if it went live cleanly.
    /// 4. A fault either latched is drained into `recover` — transient
    ///    retry with backoff, the OOM degradation ladder, `DeviceLost`
    ///    resume from the checkpoint — and the superstep is attempted
    ///    again, until it lands or the policy gives up.
    fn land(&mut self, mut attempt: impl FnMut(&mut Self) -> bool) -> SimResult<bool> {
        if let Some(e) = self.q.take_fault() {
            return Err(e);
        }
        let every = self.tuning.recovery.checkpoint_every;
        if every > 0 && self.iter.is_multiple_of(every) {
            self.session.checkpoint = Some(self.take_checkpoint());
        }
        loop {
            if self.iter.is_multiple_of(every.max(1)) {
                self.q.check_cancelled()?;
            }
            let live = attempt(self);
            let mut fault = self.q.take_fault();
            if let (true, None, Some(hook)) = (live, &fault, self.post) {
                hook(self.q, self.iter, self.fout.as_ref());
                fault = self.q.take_fault();
            }
            let Some(e) = fault else {
                self.session.retries = 0;
                return Ok(live);
            };
            self.distrust_metadata();
            self.recover(e)?;
        }
    }

    /// Turns the ring: the output becomes the input, the (empty) spare the
    /// output, and the old input is retired into the spare's place, its
    /// clear owed to the next superstep's advance launch. Only a clear no
    /// advance carried — it launched nothing, or a recovery left the
    /// metadata untrusted — is launched here, alone, before the turn. A
    /// layout without a spare swaps the pair and clears the new output
    /// (the old input) at once, lazily when its metadata is fresh.
    ///
    /// A fault during the turn skipped the one clear it launches, and in
    /// ring and pair alike that was the clear of what is now the output
    /// frontier: it goes through the recovery policy, then that frontier
    /// is cleared in full — it holds no legitimate inserts yet, so a full
    /// clear is always safe. (A checkpoint resume resets both frontiers
    /// itself.) `Err` when the policy gives up, or with the
    /// [`max_iters`](SuperstepEngine::max_iters) message once the
    /// iteration count passes it.
    pub fn rotate(&mut self) -> SimResult<()> {
        if !self.spare_asked {
            self.spare_asked = true;
            self.spare = self.fin.empty_like(self.q);
        }
        self.clear_retired();
        swap(&mut self.fin, &mut self.fout);
        if let Some(spare) = &mut self.spare {
            swap(&mut self.fout, spare);
        }
        self.retire = Some(self.lazy_ok);
        if self.spare.is_none() {
            self.clear_retired();
        }
        self.lazy_ok = false;
        self.listed = None;
        self.iter += 1;
        while let Some(e) = self.q.take_fault() {
            if !self.recover(e)? {
                self.fout.clear(self.q);
            }
        }
        if self.iter as usize > self.max_iters {
            return Err(SimError::Algorithm(self.diverge_msg.clone()));
        }
        Ok(())
    }

    /// Launches the clear the retired frontier (the spare, or without one
    /// the output) still owes, alone: the only place a frontier is cleared
    /// outside an advance launch.
    fn clear_retired(&mut self) {
        let Some(fresh) = self.retire.take() else {
            return;
        };
        let retired = self.spare.as_ref().unwrap_or(&self.fout);
        if fresh {
            retired.lazy_clear(self.q);
        } else {
            retired.clear(self.q);
        }
    }

    /// Like [`rotate`](SuperstepEngine::rotate), but *retains* the old
    /// input frontier (returning it) and installs `fresh` as the new
    /// output — Brandes-style algorithms keep each level's frontier for
    /// the backward sweep. Launches nothing.
    pub fn rotate_retaining(&mut self, fresh: Box<dyn BitmapLike<W>>) -> Box<dyn BitmapLike<W>> {
        let retained = std::mem::replace(&mut self.fin, std::mem::replace(&mut self.fout, fresh));
        self.lazy_ok = false;
        self.listed = None;
        self.iter += 1;
        retained
    }

    /// Consumes the engine and returns its `(input, output)` frontier
    /// pair — callers recycling frontier allocations across rooted passes
    /// (Brandes BC) reclaim the boxes instead of dropping them. The spare,
    /// if the run grew one, is dropped: it may hold an uncleared input.
    pub fn into_frontiers(self) -> (Box<dyn BitmapLike<W>>, Box<dyn BitmapLike<W>>) {
        (self.fin, self.fout)
    }

    /// Drives [`step`](SuperstepEngine::step) +
    /// [`rotate`](SuperstepEngine::rotate) to convergence, returning the
    /// superstep count.
    pub fn run(
        &mut self,
        advance_f: impl StepAdvance,
        compute_f: Option<&StepComputeDyn<'_>>,
    ) -> SimResult<u32> {
        while self.step(&advance_f, compute_f)? {
            self.rotate()?;
        }
        Ok(self.iter)
    }

    // ---- fault recovery ---------------------------------------------------

    /// Handles one drained fault per the tuning's [`RecoveryPolicy`],
    /// against the session's counters and checkpoint. Returns `Ok(true)`
    /// when recovery restored the checkpoint (the frontiers were reset),
    /// and `Ok(false)` when the caller should simply re-attempt.
    /// Propagates the fault when the policy is exhausted or does not
    /// cover it.
    fn recover(&mut self, e: SimError) -> SimResult<bool> {
        /// Resume attempts per run: `DeviceLost` fires once per planned
        /// ordinal, so this only guards against a pathological plan.
        const MAX_RESUMES: u32 = 8;
        let policy = self.tuning.recovery;
        match e {
            SimError::Transient { .. } => {
                if self.session.retries >= policy.max_retries {
                    return Err(e);
                }
                self.session.retries += 1;
                self.q
                    .advance_clock_ns(policy.backoff(self.session.retries));
                self.repair_frontiers();
                self.trace_recovery("transient", "retry", self.session.retries);
                Ok(false)
            }
            SimError::OutOfMemory { .. } => {
                if !policy.degrade_on_oom {
                    return Err(e);
                }
                // Rung 0, taken only when direction optimization is live:
                // give back the unvisited set's buffers and pin the run to
                // push. Direction optimization is purely an optimization —
                // push computes the same result — so it is the first thing
                // to go, before the pre-existing ladder. Push-only runs
                // never see this rung and keep the old ladder unchanged.
                if self.pull_engaged && !self.pull_disabled {
                    self.pull_disabled = true;
                    self.unvisited = None;
                    self.pulling = false;
                    self.tuning.direction = Direction::Push;
                    self.repair_frontiers();
                    self.trace_recovery("oom", "force-push", 1);
                    return Ok(false);
                }
                let action = match self.session.oom_rung {
                    0 => {
                        // Rung 1: give back the bucket pool's buffers and
                        // stop dispatching bucketed.
                        self.bucket_pool = None;
                        self.pool_attempted = true;
                        self.tuning.balancing = Balancing::WorkgroupMapped;
                        "drop-bucket-pool"
                    }
                    1 => {
                        // Rung 2: force the representation minimizing
                        // device_bytes — dense drops list maintenance.
                        self.tuning.representation = Representation::Dense;
                        "force-dense"
                    }
                    2 => {
                        // Rung 3: halve per-lane work memory by disabling
                        // coarsening.
                        self.tuning.coarsening = 1;
                        "shrink-coarsening"
                    }
                    _ => return Err(e),
                };
                self.session.oom_rung += 1;
                self.repair_frontiers();
                self.trace_recovery("oom", action, self.session.oom_rung);
                Ok(false)
            }
            SimError::DeviceLost { .. } => {
                if self.session.resumes >= MAX_RESUMES {
                    return Err(e);
                }
                let Some(ck) = self.session.checkpoint.take() else {
                    return Err(e);
                };
                self.session.resumes += 1;
                self.restore_checkpoint(&ck);
                self.session.checkpoint = Some(ck);
                self.trace_recovery("device-lost", "resume", self.session.resumes);
                Ok(true)
            }
            other => Err(other),
        }
    }

    /// Re-establishes frontier invariants after a fault: a skipped
    /// conversion kernel can leave a hybrid frontier's host-side mode
    /// flags ahead of its device state, so rebuild the derived layers from
    /// the bitmap words (the ground truth — inserts land there first) and
    /// force the clears still owed — the input's, and a retired
    /// frontier's whose launch may be among the skipped — to full ones.
    fn repair_frontiers(&mut self) {
        self.fin.rebuild_from_words(self.q);
        self.fout.rebuild_from_words(self.q);
        if let Some(unv) = &self.unvisited {
            unv.rebuild_from_words(self.q);
        }
        self.distrust_metadata();
    }

    /// No compaction count or item list read before this point may size a
    /// lazy clear any more.
    fn distrust_metadata(&mut self) {
        self.lazy_ok = false;
        self.retire = self.retire.map(|_| false);
    }

    /// Captures a checkpoint of the engine at the current superstep
    /// boundary. Entirely host-side: no kernels run, nothing is committed
    /// to the simulated clock or the profiler.
    fn take_checkpoint(&self) -> EngineCheckpoint {
        let frontier = self.fin.to_sorted_vec();
        // A multi-source engine also captures each member's lane mask and
        // the live-lane set — membership alone would resume every member
        // on lane 0.
        let lanes = self.multi.as_ref().and_then(|ms| {
            let view = self.fin.lane_view()?;
            Some(LaneCheckpoint {
                live: ms.live,
                masks: frontier.iter().map(|&v| view.host_mask(v)).collect(),
            })
        });
        EngineCheckpoint {
            iteration: self.iter,
            frontier,
            pulling: self.pulling,
            unvisited: self.unvisited.as_ref().map(|u| u.to_sorted_vec()),
            state: self
                .ckpt_state
                .map_or_else(Vec::new, |bufs| bufs.iter().map(|b| b.snapshot()).collect()),
            lanes,
        }
    }

    /// Revives the queue and rewinds the engine to `ck`: registered state
    /// buffers are restored word-for-word, the frontier pair is reset and
    /// reseeded, and memory accounting is recomputed from the allocation
    /// ledger so it cannot drift across restores.
    fn restore_checkpoint(&mut self, ck: &EngineCheckpoint) {
        self.q.revive();
        if let Some(bufs) = self.ckpt_state {
            for (buf, words) in bufs.iter().zip(&ck.state) {
                buf.restore(words);
            }
        }
        self.fin.clear(self.q);
        self.fout.clear(self.q);
        match (&ck.lanes, self.multi.as_mut()) {
            (Some(lc), Some(ms)) => {
                for (&v, &m) in ck.frontier.iter().zip(&lc.masks) {
                    self.fin.insert_host_masked(v, m);
                }
                ms.live = lc.live;
                ms.alive.store(0, 0);
            }
            _ => {
                for &v in &ck.frontier {
                    self.fin.insert_host(v);
                }
            }
        }
        self.iter = ck.iteration;
        self.distrust_metadata();
        self.rep = self.fin.rep_kind();
        self.last_estimate = ck.frontier.len();
        self.predicted = ck.frontier.len();
        self.listed = None;
        // Rewind the direction state: the hysteresis flag and, when the
        // checkpoint carried one, the unvisited set's exact membership.
        // If its buffers cannot be (re-)allocated on the revived device,
        // degrade to push rather than fail the resume.
        self.pulling = ck.pulling;
        match &ck.unvisited {
            None => self.unvisited = None,
            Some(members) => {
                if self.unvisited.is_none() {
                    self.unvisited =
                        TwoLayerFrontier::<W>::new(self.q, self.graph.vertex_count()).ok();
                }
                match &self.unvisited {
                    Some(unv) => {
                        unv.clear(self.q);
                        for &v in members {
                            unv.insert_host(v);
                        }
                    }
                    None => {
                        self.pull_disabled = true;
                        self.pulling = false;
                    }
                }
            }
        }
        self.q.device().recompute_mem_accounting();
    }

    fn trace_recovery(&self, fault: &str, action: &str, attempt: u32) {
        let kind = TraceKind::Recovery {
            fault: fault.into(),
            action: action.into(),
            attempt,
        };
        self.q.trace(Some(self.iter), kind);
    }
}

/// Fixed-point iteration driver for sweep-style algorithms without a
/// frontier convergence condition (PageRank's residual test): marks
/// `"{mark_prefix}{iter}"` and calls `body(q, iter)` until it returns
/// `Ok(false)` or `max_iters` is reached. Returns the iteration count.
///
/// Each sweep runs under [`retry`], the cancellation check and the mark
/// inside every attempt: a transient or synthetic-OOM fault re-runs the
/// *same* sweep, so the body must be restartable — reset its per-sweep
/// accumulators at the top and commit its persistent state in a single
/// launch at the end, so a skipped launch prefix leaves the persistent
/// state untouched. An attached [`CancelToken`] aborts before the next
/// sweep, the per-iteration granularity the engine's supersteps have.
///
/// [`CancelToken`]: sygraph_sim::CancelToken
pub fn fixed_point(
    q: &Queue,
    policy: &RecoveryPolicy,
    max_iters: u32,
    mark_prefix: &str,
    mut body: impl FnMut(&Queue, u32) -> SimResult<bool>,
) -> SimResult<u32> {
    let mut iter = 0u32;
    while iter < max_iters {
        let proceed = retry(q, policy, || {
            q.check_cancelled()?;
            q.trace(Some(iter), TraceKind::Mark(format!("{mark_prefix}{iter}")));
            body(q, iter)
        })??;
        iter += 1;
        if !proceed {
            break;
        }
    }
    Ok(iter)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontier::{BitmapFrontier, Frontier, TwoLayerFrontier};
    use crate::graph::device::DeviceCsr;
    use crate::graph::host::CsrHost;
    use crate::inspector::{inspect, OptConfig};
    use crate::types::INF_DIST;
    use sygraph_sim::{Device, DeviceProfile};

    fn queue() -> Queue {
        Queue::new(Device::new(DeviceProfile::host_test()))
    }

    fn chain(q: &Queue, n: u32) -> DeviceCsr {
        let edges: Vec<(u32, u32)> = (0..n - 1).map(|v| (v, v + 1)).collect();
        DeviceCsr::upload(q, &CsrHost::from_edges(n as usize, &edges)).unwrap()
    }

    fn bfs_via_engine(q: &Queue, g: &DeviceCsr, n: usize, fused: bool) -> (Vec<u32>, u32) {
        let tuning = inspect(q.profile(), &OptConfig::all(), n);
        let dist = q.malloc_device::<u32>(n).unwrap();
        q.fill(&dist, INF_DIST);
        dist.store(0, 0);
        let fin = Box::new(TwoLayerFrontier::<u32>::new(q, n).unwrap());
        let fout = Box::new(TwoLayerFrontier::<u32>::new(q, n).unwrap());
        fin.insert_host(0);
        let mut engine = SuperstepEngine::new(q, g, tuning, fin, fout)
            .fused(fused)
            .mark_prefix("ebfs_iter")
            .max_iters(n + 1, "test BFS diverged");
        let iters = engine
            .run(
                |l, _i, _u, v, _e, _w| l.load(&dist, v as usize) == INF_DIST,
                Some(&|l, i, v| l.store(&dist, v as usize, i + 1)),
            )
            .unwrap();
        (dist.to_vec(), iters)
    }

    #[test]
    fn engine_bfs_matches_expected_distances() {
        let q = queue();
        let g = chain(&q, 6);
        let (dist, iters) = bfs_via_engine(&q, &g, 6, false);
        assert_eq!(dist, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(iters, 6, "5 expansion levels + final empty check");
    }

    #[test]
    fn fused_and_unfused_are_bit_identical() {
        let q = queue();
        let g = chain(&q, 40);
        let (a, ia) = bfs_via_engine(&q, &g, 40, false);
        let (b, ib) = bfs_via_engine(&q, &g, 40, true);
        assert_eq!(a, b);
        assert_eq!(ia, ib);
    }

    #[test]
    fn fused_superstep_launches_fewer_kernels() {
        let q = queue();
        let g = chain(&q, 32);
        let k0 = q.profiler().kernel_count();
        let (_, iters_unfused) = bfs_via_engine(&q, &g, 32, false);
        let k1 = q.profiler().kernel_count();
        let (_, iters_fused) = bfs_via_engine(&q, &g, 32, true);
        let k2 = q.profiler().kernel_count();
        assert_eq!(iters_unfused, iters_fused);
        let unfused = k1 - k0;
        let fused = k2 - k1;
        assert!(
            fused < unfused,
            "fused path must launch strictly fewer kernels ({fused} vs {unfused})"
        );
        // Per full superstep: compact + advance(+fused compute) + lazy
        // clear = 3 fused, versus compact + advance + compute's
        // (compact + kernel) + lazy clear = 5 unfused.
        let supersteps = (iters_fused as usize).max(1);
        assert!(fused / supersteps < unfused / supersteps);
    }

    #[test]
    fn lazy_clear_keeps_frontier_correct_across_steps() {
        // Random-ish fan-out graph: rotating with lazy clears must leave
        // no stale bits behind.
        let q = queue();
        let n = 200u32;
        let edges: Vec<(u32, u32)> = (0..n)
            .flat_map(|v| {
                [
                    (v, (v * 7 + 3) % n),
                    (v, (v * 13 + 11) % n),
                    (v, (v + 1) % n),
                ]
            })
            .collect();
        let g = DeviceCsr::upload(&q, &CsrHost::from_edges(n as usize, &edges)).unwrap();
        let (dist_engine, _) = bfs_via_engine(&q, &g, n as usize, true);
        // Reference: host BFS.
        let mut want = vec![INF_DIST; n as usize];
        want[0] = 0;
        let mut queue_ = std::collections::VecDeque::from([0u32]);
        let host = CsrHost::from_edges(n as usize, &edges);
        while let Some(u) = queue_.pop_front() {
            let (lo, hi) = (host.offsets[u as usize], host.offsets[u as usize + 1]);
            for e in lo..hi {
                let v = host.indices[e as usize];
                if want[v as usize] == INF_DIST {
                    want[v as usize] = want[u as usize] + 1;
                    queue_.push_back(v);
                }
            }
        }
        assert_eq!(dist_engine, want);
    }

    #[test]
    fn single_layer_bitmap_falls_back_cleanly() {
        let q = queue();
        let n = 20usize;
        let g = chain(&q, n as u32);
        let tuning = inspect(q.profile(), &OptConfig::baseline(), n);
        let dist = q.malloc_device::<u32>(n).unwrap();
        q.fill(&dist, INF_DIST);
        dist.store(0, 0);
        let fin = Box::new(BitmapFrontier::<u64>::new(&q, n).unwrap());
        let fout = Box::new(BitmapFrontier::<u64>::new(&q, n).unwrap());
        fin.insert_host(0);
        let mut engine = SuperstepEngine::new(&q, &g, tuning, fin, fout)
            .fused(true)
            .max_iters(n + 1, "diverged");
        let iters = engine
            .run(
                |l, _i, _u, v, _e, _w| l.load(&dist, v as usize) == INF_DIST,
                Some(&|l, i, v| l.store(&dist, v as usize, i + 1)),
            )
            .unwrap();
        assert_eq!(iters, 20);
        assert_eq!(dist.to_vec(), (0..20).collect::<Vec<u32>>());
    }

    #[test]
    fn post_step_hook_reactivates_vertices() {
        // A hook that keeps re-inserting vertex 0 for three extra rounds:
        // the engine must keep stepping until the hook stops.
        let q = queue();
        let g = chain(&q, 4);
        let tuning = inspect(q.profile(), &OptConfig::all(), 4);
        let fin = Box::new(TwoLayerFrontier::<u32>::new(&q, 4).unwrap());
        let fout = Box::new(TwoLayerFrontier::<u32>::new(&q, 4).unwrap());
        fin.insert_host(0);
        let reseed = |_q: &Queue, iter: u32, out: &dyn BitmapLike<u32>| {
            if iter < 3 {
                out.insert_host(0);
            }
        };
        let mut engine = SuperstepEngine::new(&q, &g, tuning, fin, fout)
            .max_iters(64, "diverged")
            .post_step(&reseed);
        let iters = engine
            .run(|_l, _i, _u, _v, _e, _w| false, NO_COMPUTE)
            .unwrap();
        // steps at iter 0,1,2 re-seed; step at iter 3 produces nothing;
        // step at iter 4 sees an empty frontier and converges.
        assert_eq!(iters, 4);
    }

    #[test]
    fn rotate_retaining_keeps_levels() {
        let q = queue();
        let g = chain(&q, 5);
        let tuning = inspect(q.profile(), &OptConfig::all(), 5);
        let fin = Box::new(TwoLayerFrontier::<u32>::new(&q, 5).unwrap());
        let fout = Box::new(TwoLayerFrontier::<u32>::new(&q, 5).unwrap());
        fin.insert_host(0);
        let seen = q.malloc_device::<u32>(5).unwrap();
        let mut engine = SuperstepEngine::new(&q, &g, tuning, fin, fout);
        let mut levels: Vec<Box<dyn BitmapLike<u32>>> = Vec::new();
        while engine
            .step(
                |l, _i, _u, v, _e, _w| l.fetch_or(&seen, v as usize, 1) == 0,
                NO_COMPUTE,
            )
            .unwrap()
        {
            let fresh = Box::new(TwoLayerFrontier::<u32>::new(&q, 5).unwrap());
            levels.push(engine.rotate_retaining(fresh));
        }
        assert_eq!(levels.len(), 5, "every level retained, deepest included");
        for (d, level) in levels.iter().enumerate() {
            assert_eq!(level.to_sorted_vec(), vec![d as u32]);
        }
    }

    #[test]
    fn bucketed_engine_matches_and_pools_buffers() {
        use crate::inspector::Balancing;
        let q = queue();
        // Hub 0 → 1..=40, then a chain off vertex 1: several supersteps,
        // the first of which is hub-dominated.
        let mut edges: Vec<(u32, u32)> = (1..=40).map(|v| (0, v)).collect();
        edges.extend([(1, 41), (41, 42), (42, 43)]);
        let g = DeviceCsr::upload(&q, &CsrHost::from_edges(44, &edges)).unwrap();
        let bfs = |balancing: Balancing| {
            let mut t = inspect(q.profile(), &OptConfig::all(), 44);
            t.balancing = balancing;
            t.small_max_degree = 2;
            t.large_min_degree = 8;
            let dist = q.malloc_device::<u32>(44).unwrap();
            q.fill(&dist, INF_DIST);
            dist.store(0, 0);
            let fin = Box::new(TwoLayerFrontier::<u32>::new(&q, 44).unwrap());
            let fout = Box::new(TwoLayerFrontier::<u32>::new(&q, 44).unwrap());
            fin.insert_host(0);
            let mut engine = SuperstepEngine::new(&q, &g, t, fin, fout).max_iters(64, "diverged");
            let allocs_now = || q.profiler().count(|k| matches!(k, TraceKind::Mem { .. }));
            let allocs_before = allocs_now();
            let iters = engine
                .run(
                    |l, _i, _u, v, _e, _w| l.load(&dist, v as usize) == INF_DIST,
                    Some(&|l, i, v| l.store(&dist, v as usize, i + 1)),
                )
                .unwrap();
            let allocs = allocs_now() - allocs_before;
            (dist.to_vec(), iters, allocs)
        };
        let (d_wg, i_wg, allocs_wg) = bfs(Balancing::WorkgroupMapped);
        let (d_bk, i_bk, allocs_bk) = bfs(Balancing::Bucketed);
        assert_eq!(d_wg, d_bk, "balancing must not change BFS results");
        assert_eq!(i_wg, i_bk);
        // Without a bucket pool the run's only allocation is the ring's
        // spare; the bucketed run adds the pool and nothing else.
        assert!(
            allocs_wg <= 5,
            "spare frontier allocated once per engine (5 buffers), not per \
             superstep; saw {allocs_wg} allocations"
        );
        assert!(
            allocs_bk - allocs_wg <= 5,
            "bucket pool allocated once per engine (5 buffers), not per \
             superstep; saw {} allocations",
            allocs_bk - allocs_wg
        );
    }

    /// BFS over `edges` with the frontier pair matching the requested
    /// representation policy (mirroring what `make_frontier` hands the
    /// algorithms). Returns distances, superstep count, switch count and
    /// the log's per-superstep representation trace.
    fn bfs_with_rep(
        rep: crate::inspector::Representation,
        edges: &[(u32, u32)],
        n: usize,
    ) -> (Vec<u32>, u32, u32, Vec<sygraph_sim::RepEvent>) {
        use crate::frontier::{HybridFrontier, SparseFrontier};
        use crate::inspector::Representation;
        let q = queue();
        let g = DeviceCsr::upload(&q, &CsrHost::from_edges(n, edges)).unwrap();
        let tuning = inspect(q.profile(), &OptConfig::with_representation(rep), n);
        let dist = q.malloc_device::<u32>(n).unwrap();
        q.fill(&dist, INF_DIST);
        dist.store(0, 0);
        let (fin, fout): (Box<dyn BitmapLike<u32>>, Box<dyn BitmapLike<u32>>) = match rep {
            Representation::Dense => (
                Box::new(TwoLayerFrontier::<u32>::new(&q, n).unwrap()),
                Box::new(TwoLayerFrontier::<u32>::new(&q, n).unwrap()),
            ),
            Representation::Sparse => (
                Box::new(SparseFrontier::<u32>::new(&q, n).unwrap()),
                Box::new(SparseFrontier::<u32>::new(&q, n).unwrap()),
            ),
            Representation::Auto => (
                Box::new(HybridFrontier::<u32>::new(&q, n).unwrap()),
                Box::new(HybridFrontier::<u32>::new(&q, n).unwrap()),
            ),
        };
        fin.insert_host(0);
        let mut engine =
            SuperstepEngine::new(&q, &g, tuning, fin, fout).max_iters(n + 2, "rep BFS diverged");
        engine
            .run(
                |l, _i, _u, v, _e, _w| l.load(&dist, v as usize) == INF_DIST,
                Some(&|l, i, v| l.store(&dist, v as usize, i + 1)),
            )
            .unwrap();
        let events = q.profiler().rep_events();
        let switches = events.iter().filter(|e| e.switched).count() as u32;
        (dist.to_vec(), engine.iteration(), switches, events)
    }

    /// Chain into a 4-way split whose branches each fan 10 wide, staying
    /// 40 wide one more level: the frontier sequence is 1, 1, 4, 40, 40
    /// with max degree 10, small enough that the one-word hub guard never
    /// forces dense — only the exact count of 40 > 640/32 does, at the
    /// hysteresis exit.
    fn fan_edges() -> (Vec<(u32, u32)>, usize) {
        let mut edges: Vec<(u32, u32)> = vec![(0, 1)];
        edges.extend((2..6).map(|v| (1u32, v)));
        for v in 2..6u32 {
            edges.extend((0..10).map(|t| (v, 10 + (v - 2) * 10 + t)));
        }
        edges.extend((10..50).map(|v| (v, v + 100)));
        (edges, 640)
    }

    #[test]
    fn representation_policies_are_bit_identical() {
        use crate::inspector::Representation;
        let (edges, n) = fan_edges();
        let (d_dense, i_dense, s_dense, _) = bfs_with_rep(Representation::Dense, &edges, n);
        let (d_sparse, i_sparse, s_sparse, ev_sparse) =
            bfs_with_rep(Representation::Sparse, &edges, n);
        let (d_auto, i_auto, s_auto, _) = bfs_with_rep(Representation::Auto, &edges, n);
        assert_eq!(d_dense, d_sparse, "sparse BFS must be bit-identical");
        assert_eq!(d_dense, d_auto, "auto BFS must be bit-identical");
        assert_eq!(i_dense, i_sparse);
        assert_eq!(i_dense, i_auto);
        assert_eq!(s_dense, 0, "dense policy never switches");
        assert_eq!(s_sparse, 0, "forced sparse never switches");
        assert!(s_auto >= 1, "auto must switch on the widening fan");
        assert!(ev_sparse.iter().all(|e| e.rep == "sparse"));
    }

    #[test]
    fn auto_handles_list_overflow_by_falling_back_dense() {
        use crate::inspector::Representation;
        // 33 mid-degree parents — wider than one word, so the hub guard
        // stays out of it — fan to 3300 targets. The output estimate
        // (33 ≤ n/32) keeps the output's list live, the 3300 inserts
        // overflow its n/8 = 512 slots, and the next adoption refuses
        // sparse on the overflow proof alone: the wide superstep runs
        // dense and correctness is unaffected.
        let n = 4096usize;
        let mut edges: Vec<(u32, u32)> = vec![(0, 1)];
        edges.extend((2..35).map(|v| (1u32, v)));
        for p in 2..35u32 {
            edges.extend((0..100).map(|t| (p, 100 + (p - 2) * 100 + t)));
        }
        let (d_auto, _, _, events) = bfs_with_rep(Representation::Auto, &edges, n);
        let (d_dense, _, _, _) = bfs_with_rep(Representation::Dense, &edges, n);
        assert_eq!(d_auto, d_dense);
        assert_eq!(
            events.last().map(|e| e.rep.as_str()),
            Some("dense"),
            "the 3300-wide superstep must have run dense after overflow"
        );
    }

    #[test]
    fn max_iters_guard_errors() {
        let q = queue();
        // Self-loop keeps the frontier alive forever.
        let g = DeviceCsr::upload(&q, &CsrHost::from_edges(2, &[(0, 0)])).unwrap();
        let tuning = inspect(q.profile(), &OptConfig::all(), 2);
        let fin = Box::new(TwoLayerFrontier::<u32>::new(&q, 2).unwrap());
        let fout = Box::new(TwoLayerFrontier::<u32>::new(&q, 2).unwrap());
        fin.insert_host(0);
        let mut engine =
            SuperstepEngine::new(&q, &g, tuning, fin, fout).max_iters(5, "went forever");
        let err = engine
            .run(|_l, _i, _u, _v, _e, _w| true, NO_COMPUTE)
            .unwrap_err();
        assert!(matches!(err, SimError::Algorithm(m) if m == "went forever"));
    }

    #[test]
    fn fixed_point_runs_until_body_stops() {
        let q = queue();
        let mut sum = 0u32;
        let iters = fixed_point(&q, &RecoveryPolicy::default(), 100, "fp_iter", |_q, i| {
            sum += i;
            Ok(i < 4)
        })
        .unwrap();
        assert_eq!(iters, 5);
        assert_eq!(sum, 10, "0+1+2+3+4");
        let marked = |k: &TraceKind| matches!(k, TraceKind::Mark(label) if label == "fp_iter4");
        assert_eq!(q.profiler().count(marked), 1);
    }

    #[test]
    fn fixed_point_respects_max_iters() {
        let q = queue();
        let iters =
            fixed_point(&q, &RecoveryPolicy::default(), 3, "fp", |_q, _i| Ok(true)).unwrap();
        assert_eq!(iters, 3);
    }

    // --- engine-level direction optimization ---

    use crate::graph::Graph;

    /// Deterministic fan-out graph (3 out-edges per vertex) whose BFS
    /// wavefront explodes past `n / alpha` within a few supersteps.
    fn wide_host(n: u32) -> CsrHost {
        let edges: Vec<(u32, u32)> = (0..n)
            .flat_map(|v| {
                [
                    (v, (v * 7 + 3) % n),
                    (v, (v * 13 + 11) % n),
                    (v, (v + 1) % n),
                ]
            })
            .collect();
        CsrHost::from_edges(n as usize, &edges)
    }

    /// BFS through the engine with an explicit direction policy and the
    /// `Unvisited` pull scope. Returns (distances, supersteps).
    fn bfs_direction<G: DeviceGraphView + ?Sized>(
        q: &Queue,
        g: &G,
        n: usize,
        direction: Direction,
    ) -> (Vec<u32>, u32) {
        let mut tuning = inspect(q.profile(), &OptConfig::all(), n);
        tuning.direction = direction;
        let dist = q.malloc_device::<u32>(n).unwrap();
        q.fill(&dist, INF_DIST);
        dist.store(0, 0);
        let fin = Box::new(TwoLayerFrontier::<u32>::new(q, n).unwrap());
        let fout = Box::new(TwoLayerFrontier::<u32>::new(q, n).unwrap());
        fin.insert_host(0);
        let mut engine = SuperstepEngine::new(q, g, tuning, fin, fout)
            .mark_prefix("dirbfs_iter")
            .max_iters(n + 1, "direction-test BFS diverged")
            .pull_scope(PullCandidates::Unvisited);
        let iters = engine
            .run(
                |l, _i, _u, v, _e, _w| l.load_atomic(&dist, v as usize) == INF_DIST,
                Some(&|l, i, v| l.store_atomic(&dist, v as usize, i + 1)),
            )
            .unwrap();
        (dist.to_vec(), iters)
    }

    #[test]
    fn all_direction_policies_are_bit_identical() {
        let q = queue();
        let host = wide_host(256);
        let g = Graph::with_pull(&q, &host).unwrap();
        let (push, ip) = bfs_direction(&q, &g, 256, Direction::Push);
        let (pull, il) = bfs_direction(&q, &g, 256, Direction::Pull);
        let (auto, ia) = bfs_direction(&q, &g, 256, Direction::Auto);
        assert_eq!(push, pull);
        assert_eq!(push, auto);
        assert_eq!(ip, il);
        assert_eq!(ip, ia);
    }

    #[test]
    fn forced_pull_uses_pull_kernels_only() {
        let q = queue();
        let host = wide_host(128);
        let g = Graph::with_pull(&q, &host).unwrap();
        let (_, iters) = bfs_direction(&q, &g, 128, Direction::Pull);
        let dirs = q.profiler().direction_events();
        assert_eq!(dirs.len() as u32, iters);
        assert!(
            dirs.iter().all(|e| e.direction == "pull" && !e.switched),
            "{dirs:?}"
        );
        assert!(
            q.profiler()
                .kernels()
                .iter()
                .any(|k| k.name.starts_with("advance_pull")),
            "pull supersteps must launch the pull kernel family"
        );
    }

    #[test]
    fn engine_without_pull_view_degrades_to_push() {
        // Forcing pull on a plain CSR must not error: the engine pins
        // itself to push and the traversal completes unchanged.
        let q = queue();
        let host = wide_host(96);
        let g = DeviceCsr::upload(&q, &host).unwrap();
        let (dist, _) = bfs_direction(&q, &g, 96, Direction::Pull);
        let g2 = Graph::with_pull(&q, &host).unwrap();
        let (want, _) = bfs_direction(&q, &g2, 96, Direction::Push);
        assert_eq!(dist, want);
        let dirs = q.profiler().direction_events();
        assert!(
            dirs.iter().all(|e| e.direction == "push" && !e.switched),
            "{dirs:?}"
        );
    }

    #[test]
    fn unvisited_set_stays_exact_across_push_supersteps() {
        // Chain: Auto never reaches the pull threshold, so every
        // superstep pushes — but the engine must still keep the seeded
        // unvisited set in sync (subtracting each output), because a
        // later explosion could engage pull at any superstep.
        let q = queue();
        let edges: Vec<(u32, u32)> = (0..99).map(|v| (v, v + 1)).collect();
        let host = CsrHost::from_edges(100, &edges);
        let g = Graph::with_pull(&q, &host).unwrap();

        let tuning = inspect(q.profile(), &OptConfig::all(), 100);
        let dist = q.malloc_device::<u32>(100).unwrap();
        q.fill(&dist, INF_DIST);
        dist.store(0, 0);
        let fin = Box::new(TwoLayerFrontier::<u32>::new(&q, 100).unwrap());
        let fout = Box::new(TwoLayerFrontier::<u32>::new(&q, 100).unwrap());
        fin.insert_host(0);
        let mut engine = SuperstepEngine::new(&q, &g, tuning, fin, fout)
            .mark_prefix("unv_iter")
            .max_iters(101, "diverged")
            .pull_scope(PullCandidates::Unvisited);
        let mut steps = 0u32;
        while engine
            .step(
                |l, _i, _u, v, _e, _w| l.load_atomic(&dist, v as usize) == INF_DIST,
                Some(&|l, i, v| l.store_atomic(&dist, v as usize, i + 1)),
            )
            .unwrap()
        {
            steps += 1;
            // Superstep k discovers vertex k+1, so after the k-th step
            // (1-based `steps`) the unvisited set is exactly steps+1..n.
            let unv = engine
                .unvisited
                .as_ref()
                .expect("seeded at superstep 0")
                .to_sorted_vec();
            assert_eq!(
                unv,
                (steps + 1..100).collect::<Vec<u32>>(),
                "after step {steps}"
            );
            engine.rotate().unwrap();
        }
    }

    // ---- batched multi-source mode -------------------------------------

    use crate::frontier::{lane_words, LaneFrontier};

    /// Single-source engine BFS from an arbitrary source (the serial
    /// reference the batched runs are checked against).
    fn bfs_from(q: &Queue, g: &DeviceCsr, n: usize, src: u32) -> Vec<u32> {
        let tuning = inspect(q.profile(), &OptConfig::all(), n);
        let dist = q.malloc_device::<u32>(n).unwrap();
        q.fill(&dist, INF_DIST);
        dist.store(src as usize, 0);
        let fin = Box::new(TwoLayerFrontier::<u32>::new(q, n).unwrap());
        let fout = Box::new(TwoLayerFrontier::<u32>::new(q, n).unwrap());
        fin.insert_host(src);
        let mut engine = SuperstepEngine::new(q, g, tuning, fin, fout)
            .mark_prefix("sbfs_iter")
            .max_iters(n + 1, "serial BFS diverged");
        engine
            .run(
                |l, _i, _u, v, _e, _w| l.load_atomic(&dist, v as usize) == INF_DIST,
                Some(&|l, i, v| l.store_atomic(&dist, v as usize, i + 1)),
            )
            .unwrap();
        dist.to_vec()
    }

    /// Batched engine BFS: per-lane depths in a `n × width` buffer plus a
    /// lane-packed visited array (the same shape `algos::multi` uses).
    struct MultiBfs {
        depth: DeviceBuffer<u32>,
        vis: DeviceBuffer<u64>,
        width: u32,
        live: u64,
    }

    impl MultiBfs {
        fn seed(q: &Queue, n: usize, sources: &[u32], width: u32) -> (Self, LaneFrontier<u32>) {
            assert!(sources.len() <= width as usize);
            let depth = q.malloc_device::<u32>(n * width as usize).unwrap();
            q.fill(&depth, INF_DIST);
            let vis = q.malloc_device::<u64>(lane_words(n, width).max(1)).unwrap();
            q.fill(&vis, 0u64);
            let fin = LaneFrontier::<u32>::new(q, n, width).unwrap();
            let mut live = 0u64;
            for (i, &s) in sources.iter().enumerate() {
                live |= 1 << i;
                fin.insert_host_masked(s, 1 << i);
                depth.store(s as usize * width as usize + i, 0);
                let (vw, vs) = lane_locate(s, width);
                vis.fetch_or(vw, 1u64 << (vs + i as u32));
            }
            (
                MultiBfs {
                    depth,
                    vis,
                    width,
                    live,
                },
                fin,
            )
        }

        /// Accepts the lanes that have not visited `v`.
        fn adv(&self) -> impl LaneAdvance + '_ {
            let width = self.width;
            move |l: &mut ItemCtx<'_>,
                  _i: u32,
                  _u: VertexId,
                  v: VertexId,
                  _e: EdgeId,
                  _w: Weight,
                  m: u64| {
                let (vw, vs) = lane_locate(v, width);
                m & !((l.load_atomic::<u64>(&self.vis, vw) >> vs) & LaneView::mask_all(width))
            }
        }

        /// Marks the fresh lanes visited and stamps their depths.
        fn cmp(&self) -> impl Fn(&mut ItemCtx<'_>, u32, VertexId, u64) + Sync + '_ {
            let width = self.width as usize;
            move |l: &mut ItemCtx<'_>, i: u32, v: VertexId, fresh: u64| {
                let (vw, vs) = lane_locate(v, self.width);
                l.fetch_or(&self.vis, vw, fresh << vs);
                let mut f = fresh;
                while f != 0 {
                    let b = f.trailing_zeros() as usize;
                    l.store_atomic(&self.depth, v as usize * width + b, i + 1);
                    f &= f - 1;
                }
            }
        }

        fn run(&self, engine: &mut SuperstepEngine<'_, u32, DeviceCsr>) -> SimResult<u32> {
            let (adv, cmp) = (self.adv(), self.cmp());
            while engine.step_multi(&adv, Some(&cmp))? {
                engine.rotate()?;
            }
            Ok(engine.iteration())
        }

        /// Lane `i`'s distance vector.
        fn lane(&self, n: usize, i: usize) -> Vec<u32> {
            let all = self.depth.to_vec();
            (0..n).map(|v| all[v * self.width as usize + i]).collect()
        }
    }

    #[test]
    fn multi_source_bfs_matches_serial_runs() {
        let q = queue();
        let host = wide_host(256);
        let g = DeviceCsr::upload(&q, &host).unwrap();
        let sources = [0u32, 17, 99, 100, 255];
        for width in [8u32, 32] {
            let q2 = queue();
            let g2 = DeviceCsr::upload(&q2, &host).unwrap();
            let (mb, fin) = MultiBfs::seed(&q2, 256, &sources, width);
            let fout = LaneFrontier::<u32>::new(&q2, 256, width).unwrap();
            let tuning = inspect(q2.profile(), &OptConfig::all(), 256);
            let mut engine = SuperstepEngine::new(&q2, &g2, tuning, Box::new(fin), Box::new(fout))
                .mark_prefix("mbfs_iter")
                .max_iters(257, "multi BFS diverged")
                .multi_source(width, mb.live)
                .unwrap();
            mb.run(&mut engine).unwrap();
            assert_eq!(engine.live_lanes(), 0, "every lane must retire");
            for (i, &s) in sources.iter().enumerate() {
                assert_eq!(
                    mb.lane(256, i),
                    bfs_from(&q, &g, 256, s),
                    "lane {i} (source {s}, width {width})"
                );
            }
        }
    }

    #[test]
    fn lane_census_is_monotone_and_retires_every_lane() {
        let q = queue();
        let g = chain(&q, 64);
        // Sources at different depths from the chain end retire at
        // different supersteps.
        let sources = [56u32, 32, 0];
        let (mb, fin) = MultiBfs::seed(&q, 64, &sources, 8);
        let fout = LaneFrontier::<u32>::new(&q, 64, 8).unwrap();
        let tuning = inspect(q.profile(), &OptConfig::all(), 64);
        let mut engine = SuperstepEngine::new(&q, &g, tuning, Box::new(fin), Box::new(fout))
            .mark_prefix("census_iter")
            .max_iters(65, "diverged")
            .multi_source(8, mb.live)
            .unwrap();
        mb.run(&mut engine).unwrap();
        // (active, retired) per batched superstep.
        let census = q.profiler().select(|e| match e.kind {
            TraceKind::Lanes { active, retired } => Some((active, retired)),
            _ => None,
        });
        assert!(!census.is_empty());
        assert!(
            census.windows(2).all(|w| w[1].0 <= w[0].0),
            "active lanes must be non-increasing: {census:?}"
        );
        assert_eq!(census.last().unwrap().0, 0);
        assert_eq!(
            census.iter().map(|c| c.1).sum::<u32>(),
            3,
            "each lane retires exactly once"
        );
        // The chain tails differ by 24 supersteps, so the census must
        // show staggered retirement, not one mass exit.
        assert!(census.iter().filter(|c| c.1 > 0).count() >= 2);
        assert_eq!(engine.live_lanes(), 0);
    }

    #[test]
    fn lane_checkpoint_restores_mid_batch() {
        let q = queue();
        let host = wide_host(128);
        let g = DeviceCsr::upload(&q, &host).unwrap();
        let sources = [0u32, 5, 77];
        let (mb, fin) = MultiBfs::seed(&q, 128, &sources, 8);
        let fout = LaneFrontier::<u32>::new(&q, 128, 8).unwrap();
        let tuning = inspect(q.profile(), &OptConfig::all(), 128);
        let ckpt_bufs: [&dyn CheckpointState; 2] = [&mb.depth, &mb.vis];
        let mut engine = SuperstepEngine::new(&q, &g, tuning, Box::new(fin), Box::new(fout))
            .mark_prefix("ck_iter")
            .max_iters(129, "diverged")
            .checkpoint_state(&ckpt_bufs)
            .multi_source(8, mb.live)
            .unwrap();

        // Run two supersteps by hand, checkpoint, finish, and keep the
        // converged depths as the baseline.
        let (adv, cmp) = (mb.adv(), mb.cmp());
        for _ in 0..2 {
            assert!(engine.step_multi(&adv, Some(&cmp)).unwrap());
            engine.rotate().unwrap();
        }
        let ck = engine.take_checkpoint();
        assert_eq!(ck.iteration, 2);
        let lanes = ck.lanes.as_ref().expect("multi engines checkpoint lanes");
        assert_eq!(lanes.masks.len(), ck.frontier.len());
        assert!(lanes.masks.iter().all(|&m| m != 0));
        let frontier_at_ck = ck.frontier.clone();
        let live_at_ck = lanes.live;
        while engine.step_multi(&adv, Some(&cmp)).unwrap() {
            engine.rotate().unwrap();
        }
        let baseline: Vec<u32> = mb.depth.to_vec();

        // Restore: frontier membership, masks and live lanes rewind, and
        // re-running converges to bit-identical depths.
        engine.restore_checkpoint(&ck);
        assert_eq!(engine.iteration(), 2);
        assert_eq!(engine.live_lanes(), live_at_ck);
        let fin_now = engine.input();
        assert_eq!(fin_now.to_sorted_vec(), frontier_at_ck);
        let view = fin_now.lane_view().unwrap();
        for (v, m) in frontier_at_ck.iter().zip(&lanes.masks) {
            assert_eq!(view.host_mask(*v), *m, "vertex {v} mask");
        }
        while engine.step_multi(&adv, Some(&cmp)).unwrap() {
            engine.rotate().unwrap();
        }
        assert_eq!(mb.depth.to_vec(), baseline);
        assert_eq!(engine.live_lanes(), 0);
    }
}
