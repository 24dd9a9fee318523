//! Degree buckets for the hybrid advance (§4.2 load balancing).
//!
//! A binning kernel walks the advance's work list — the non-zero word
//! offsets of a counted compaction, a sparse item list, or every vertex —
//! and sorts each active vertex into one of three buckets by degree:
//!
//! * **small** (`d ≤ small_max`): one lane walks the whole adjacency —
//!   cooperative expansion would waste `sg_size − 1` lanes on it.
//! * **medium** (`small_max < d < large_min`): subgroup-cooperative, the
//!   original workgroup-mapped expansion.
//! * **large** (`d ≥ large_min`): the adjacency is split into
//!   `chunk`-sized neighbor ranges and each range becomes its own work
//!   item, so one hub's edge mass spreads across many workgroups — and
//!   therefore many compute units — instead of serializing on one.
//!
//! The buffers live in a [`BucketPool`] so the superstep engine can reuse
//! them across supersteps instead of reallocating per `advance`.

use sygraph_sim::{DeviceBuffer, ItemCtx, Queue, SimResult, SubgroupCtx, MAX_SUBGROUP};

use crate::frontier::word::{for_each_pass, slab_mask, Word};
use crate::graph::traits::DeviceGraphView;
use crate::inspector::{Balancing, Tuning};
use crate::types::VertexId;

/// Per-lane degree lookup the binning kernel uses (the `Advance` builder
/// derives it from the graph's row offsets, keeping this module
/// representation-agnostic).
pub type DegreeOf<'a> = &'a (dyn Fn(&mut ItemCtx<'_>, VertexId) -> u32 + Sync);

/// Degree thresholds + chunk size of a bucketed dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BucketSpec {
    /// Inclusive upper degree bound of the small (lane-mapped) bucket.
    pub small_max: u32,
    /// Inclusive lower degree bound of the large (chunked) bucket.
    pub large_min: u32,
    /// Neighbor-range chunk size for large vertices (≥ 1).
    pub chunk: u32,
}

impl BucketSpec {
    pub fn from_tuning(t: &Tuning) -> Self {
        BucketSpec {
            small_max: t.small_max_degree,
            large_min: t.large_min_degree.max(t.small_max_degree + 1),
            chunk: t.large_chunk(),
        }
    }
}

/// Host-visible result of a binning pass. `large` counts *chunk entries*,
/// not vertices — a degree-10·chunk hub contributes 10.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BucketCounts {
    pub small: u32,
    pub medium: u32,
    pub large: u32,
}

impl BucketCounts {
    pub fn total(&self) -> u64 {
        self.small as u64 + self.medium as u64 + self.large as u64
    }
}

/// Device buffers backing the three buckets, pooled across supersteps.
pub struct BucketPool {
    /// Vertex ids with degree ≤ `small_max`.
    pub small: DeviceBuffer<u32>,
    /// Vertex ids in the subgroup-cooperative band.
    pub medium: DeviceBuffer<u32>,
    /// Vertex id of each large-bucket chunk entry.
    pub large_v: DeviceBuffer<u32>,
    /// Chunk index (0-based within the vertex's adjacency) per entry.
    pub large_c: DeviceBuffer<u32>,
    /// Three append counters: small, medium, large.
    pub counts: DeviceBuffer<u32>,
    vertex_capacity: usize,
    large_capacity: usize,
}

/// Worst-case large-bucket entries for a graph with `m` edges: every edge
/// mass split into `chunk`-sized ranges, plus one partial chunk per
/// possible hub (`m / large_min` vertices can reach the threshold).
fn large_capacity_for(m: usize, spec: &BucketSpec) -> usize {
    m / spec.chunk.max(1) as usize + m / spec.large_min.max(1) as usize + 1
}

impl BucketPool {
    /// Allocates buckets sized for a graph with `n` vertices and `m`
    /// edges under `spec`. Small/medium can hold every vertex; the large
    /// buffers hold the worst-case chunk count.
    pub fn new(q: &Queue, n: usize, m: usize, spec: &BucketSpec) -> SimResult<Self> {
        let vcap = n.max(1);
        let lcap = large_capacity_for(m, spec);
        Ok(BucketPool {
            small: q.malloc_device::<u32>(vcap)?,
            medium: q.malloc_device::<u32>(vcap)?,
            large_v: q.malloc_device::<u32>(lcap)?,
            large_c: q.malloc_device::<u32>(lcap)?,
            counts: q.malloc_device::<u32>(3)?,
            vertex_capacity: vcap,
            large_capacity: lcap,
        })
    }

    /// The pool a run of advances over `graph` shares (the superstep
    /// engine's supersteps, PageRank's sweeps), or `None` when the
    /// balancing policy never bins on this graph — such runs pay no
    /// allocation — or the allocation fails: every advance then degrades
    /// to the workgroup-mapped path on its own.
    pub fn for_graph<G: DeviceGraphView + ?Sized>(
        q: &Queue,
        graph: &G,
        t: &Tuning,
    ) -> Option<Self> {
        if t.effective_balancing(graph.degree_profile()) != Balancing::Bucketed {
            return None;
        }
        let spec = BucketSpec::from_tuning(t);
        BucketPool::new(q, graph.vertex_count(), graph.edge_count(), &spec).ok()
    }

    /// Whether this pool can serve a graph of `n` vertices / `m` edges
    /// under `spec` (pools are per-engine, but `Advance` double-checks
    /// before trusting a caller-provided pool).
    pub fn fits(&self, n: usize, m: usize, spec: &BucketSpec) -> bool {
        n.max(1) <= self.vertex_capacity && large_capacity_for(m, spec) <= self.large_capacity
    }

    /// Device bytes held by the pool.
    pub fn device_bytes(&self) -> u64 {
        self.small.bytes()
            + self.medium.bytes()
            + self.large_v.bytes()
            + self.large_c.bytes()
            + self.counts.bytes()
    }

    /// Reads the three bucket counters back to the host.
    pub fn read_counts(&self) -> BucketCounts {
        BucketCounts {
            small: self.counts.load(0),
            medium: self.counts.load(1),
            large: self.counts.load(2),
        }
    }
}

/// Zeroes the three append counters ahead of a binning pass.
fn reset_counts(pool: &BucketPool) {
    for k in 0..3 {
        pool.counts.store(k, 0);
    }
}

/// The append protocol both binning passes share. Each `active` lane of
/// the subgroup holds one vertex (`vertex_of(lane)`), looks its degree up
/// and votes in the three band ballots; every non-empty band then takes
/// its slots with one [`SubgroupCtx::reserve`] — large-bucket lanes ask
/// for a whole adjacency's `⌈d / chunk⌉` entries — and scatters.
/// Degree-0 vertices (and tail bits past the last vertex) join no band.
fn bin_lanes(
    sg: &mut SubgroupCtx<'_, '_>,
    active: u64,
    pool: &BucketPool,
    spec: &BucketSpec,
    degree_of: DegreeOf<'_>,
    vertex_of: impl Fn(&mut ItemCtx<'_>, u32) -> VertexId,
) {
    let mut verts = [0u32; MAX_SUBGROUP];
    let mut degs = [0u32; MAX_SUBGROUP];
    sg.lanes(active, |lane, item| {
        let v = vertex_of(item, lane);
        verts[lane as usize] = v;
        degs[lane as usize] = degree_of(item, v);
        item.compute(2);
    });
    let mut band = |lo: u32, hi: u32| {
        sg.ballot(|lane| active >> lane & 1 != 0 && (lo..hi).contains(&degs[lane as usize]))
    };
    let small = band(1, spec.small_max + 1);
    let medium = band(spec.small_max + 1, spec.large_min);
    let large = band(spec.large_min, u32::MAX);
    let mut slot = [0u32; MAX_SUBGROUP];
    for (k, mask, bucket) in [(0, small, &pool.small), (1, medium, &pool.medium)] {
        if mask != 0 {
            let base = sg.reserve(&pool.counts, k, mask, |_| 1, &mut slot);
            sg.store(bucket, mask, |lane| {
                let l = lane as usize;
                ((base + slot[l]) as usize, verts[l])
            });
        }
    }
    if large != 0 {
        let chunks = |lane: u32| degs[lane as usize].div_ceil(spec.chunk);
        let base = sg.reserve(&pool.counts, 2, large, chunks, &mut slot);
        // Each lane writes its own run of chunk entries; the subgroup
        // loops until its longest run is out.
        for c in 0.. {
            let writing = large & sg.ballot(|lane| c < chunks(lane));
            if writing == 0 {
                break;
            }
            let at = |lane: u32| (base + slot[lane as usize] + c) as usize;
            sg.store(&pool.large_v, writing, |lane| {
                (at(lane), verts[lane as usize])
            });
            sg.store(&pool.large_c, writing, |lane| (at(lane), c));
        }
    }
}

/// The binning kernel over bitmap words: one subgroup per schedule
/// position, lanes on the bits of the `(word_idx, word)` pair `word_at`
/// resolves it to (`W::BITS / sg` ballot passes); every pass appends its
/// active vertices to the bucket their degree selects through
/// [`bin_lanes`]. `word_at` is the resolution the word walk itself uses,
/// so the binning pass and the unbucketed advance schedule over the same
/// positions: the compacted non-zero words of a two-layer bitmap, or one
/// all-ones word per position when every vertex is active. An empty
/// domain costs nothing extra.
pub fn bin_words<W: Word>(
    q: &Queue,
    positions: usize,
    word_at: impl Fn(&mut SubgroupCtx<'_, '_>, usize) -> (usize, W) + Sync,
    pool: &BucketPool,
    degree_of: DegreeOf<'_>,
    spec: &BucketSpec,
) -> BucketCounts {
    reset_counts(pool);
    if positions == 0 {
        return BucketCounts::default();
    }
    q.parallel_for_subgroups("advance_bucket_bin", positions, |sg, pos| {
        let (word_idx, word) = word_at(sg, pos);
        let first = word_idx as u32 * W::BITS;
        let whole = (0, W::BITS);
        for_each_pass(
            sg,
            word,
            first,
            u32::MAX,
            whole,
            |sg, pass_first, active| {
                bin_lanes(sg, active, pool, spec, degree_of, |_, lane| {
                    pass_first + lane
                });
            },
        );
    });
    pool.read_counts()
}

/// [`bin_words`] over the `nz` offsets a counted compaction just produced.
pub fn bin_compacted<W: Word>(
    q: &Queue,
    words: &DeviceBuffer<W>,
    offsets: &DeviceBuffer<u32>,
    nz: usize,
    pool: &BucketPool,
    degree_of: DegreeOf<'_>,
    spec: &BucketSpec,
) -> BucketCounts {
    let word_at = |sg: &mut SubgroupCtx<'_, '_>, pos: usize| {
        let word_idx = sg.load_uniform(offsets, pos) as usize;
        (word_idx, sg.load_uniform(words, word_idx))
    };
    bin_words(q, nz, word_at, pool, degree_of, spec)
}

/// Binning over a sparse item list: one subgroup per `sg` list entries
/// (entries are duplicate-free vertex ids, so no bit-walk is needed).
/// Shares the bucket layout and append protocol with [`bin_compacted`] —
/// the three expansion kernels cannot tell which binning pass filled the
/// pool.
pub fn bin_list(
    q: &Queue,
    items: &DeviceBuffer<u32>,
    len: usize,
    pool: &BucketPool,
    degree_of: DegreeOf<'_>,
    spec: &BucketSpec,
) -> BucketCounts {
    reset_counts(pool);
    if len == 0 {
        return BucketCounts::default();
    }
    let sgw = q.profile().preferred_subgroup as usize;
    q.parallel_for_subgroups("advance_bucket_bin", len.div_ceil(sgw), |sg, unit| {
        let first = unit * sgw;
        let active = slab_mask(sgw, first, len);
        bin_lanes(sg, active, pool, spec, degree_of, |item, lane| {
            item.load(items, first + lane as usize)
        });
    });
    pool.read_counts()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontier::{BitmapLike, Frontier, TwoLayerFrontier};
    use sygraph_sim::{Device, DeviceProfile};

    fn queue() -> Queue {
        Queue::new(Device::new(DeviceProfile::host_test()))
    }

    const SPEC: BucketSpec = BucketSpec {
        small_max: 4,
        large_min: 16,
        chunk: 16,
    };

    /// Synthetic degrees: v → v (vertex id doubles as its degree).
    fn degree_is_id(lane: &mut ItemCtx<'_>, v: VertexId) -> u32 {
        lane.compute(1);
        v
    }

    #[test]
    fn bins_by_degree_with_chunked_large() {
        let q = queue();
        let f = TwoLayerFrontier::<u32>::new(&q, 256).unwrap();
        // degree 0 (dropped), 3 (small), 4 (small), 5 (medium),
        // 15 (medium), 16 (one chunk), 40 (3 chunks of 16)
        for v in [0, 3, 4, 5, 15, 16, 40] {
            f.insert_host(v);
        }
        let (nz, offsets) = f.compact(&q).unwrap();
        let pool = BucketPool::new(&q, 256, 4096, &SPEC).unwrap();
        let c = bin_compacted(&q, f.words(), offsets, nz, &pool, &degree_is_id, &SPEC);
        assert_eq!(
            c,
            BucketCounts {
                small: 2,
                medium: 2,
                large: 4
            }
        );

        let mut small = pool.small.to_vec()[..c.small as usize].to_vec();
        small.sort_unstable();
        assert_eq!(small, vec![3, 4]);
        let mut medium = pool.medium.to_vec()[..c.medium as usize].to_vec();
        medium.sort_unstable();
        assert_eq!(medium, vec![5, 15]);
        let mut large: Vec<(u32, u32)> = pool.large_v.to_vec()[..c.large as usize]
            .iter()
            .zip(&pool.large_c.to_vec()[..c.large as usize])
            .map(|(&v, &ci)| (v, ci))
            .collect();
        large.sort_unstable();
        assert_eq!(large, vec![(16, 0), (40, 0), (40, 1), (40, 2)]);
    }

    #[test]
    fn bin_list_matches_bin_compacted() {
        let q = queue();
        let f = TwoLayerFrontier::<u32>::new(&q, 256).unwrap();
        for v in [0, 3, 4, 5, 15, 16, 40] {
            f.insert_host(v);
        }
        let (nz, offsets) = f.compact(&q).unwrap();
        let pool = BucketPool::new(&q, 256, 4096, &SPEC).unwrap();
        let from_words = bin_compacted(&q, f.words(), offsets, nz, &pool, &degree_is_id, &SPEC);

        let items = q.malloc_device::<u32>(8).unwrap();
        for (i, v) in [0u32, 3, 4, 5, 15, 16, 40].iter().enumerate() {
            items.store(i, *v);
        }
        let pool_l = BucketPool::new(&q, 256, 4096, &SPEC).unwrap();
        let from_list = bin_list(&q, &items, 7, &pool_l, &degree_is_id, &SPEC);
        assert_eq!(from_words, from_list);

        let sorted = |b: &DeviceBuffer<u32>, c: u32| {
            let mut v = b.to_vec()[..c as usize].to_vec();
            v.sort_unstable();
            v
        };
        assert_eq!(
            sorted(&pool.small, from_words.small),
            sorted(&pool_l.small, from_list.small)
        );
        assert_eq!(
            sorted(&pool.medium, from_words.medium),
            sorted(&pool_l.medium, from_list.medium)
        );
        assert_eq!(
            sorted(&pool.large_v, from_words.large),
            sorted(&pool_l.large_v, from_list.large)
        );
    }

    #[test]
    fn empty_list_bins_nothing_without_launch() {
        let q = queue();
        let items = q.malloc_device::<u32>(1).unwrap();
        let pool = BucketPool::new(&q, 256, 1024, &SPEC).unwrap();
        let launched = q.profiler().kernel_count();
        let c = bin_list(&q, &items, 0, &pool, &degree_is_id, &SPEC);
        assert_eq!(c.total(), 0);
        assert_eq!(q.profiler().kernel_count(), launched);
    }

    #[test]
    fn empty_frontier_bins_nothing_without_launch() {
        let q = queue();
        let f = TwoLayerFrontier::<u64>::new(&q, 256).unwrap();
        let (nz, offsets) = f.compact(&q).unwrap();
        let pool = BucketPool::new(&q, 256, 1024, &SPEC).unwrap();
        let launched = q.profiler().kernel_count();
        let c = bin_compacted(&q, f.words(), offsets, nz, &pool, &degree_is_id, &SPEC);
        assert_eq!(c.total(), 0);
        assert_eq!(
            q.profiler().kernel_count(),
            launched,
            "nz == 0 must not launch the binning kernel"
        );
    }

    #[test]
    fn pool_capacity_bounds_worst_case_chunks() {
        let q = queue();
        let pool = BucketPool::new(&q, 100, 10_000, &SPEC).unwrap();
        assert!(pool.fits(100, 10_000, &SPEC));
        assert!(!pool.fits(101, 10_000, &SPEC));
        assert!(!pool.fits(100, 1_000_000, &SPEC));
        // A tighter spec (smaller chunks) needs more entries than the
        // pool reserved.
        let tight = BucketSpec { chunk: 1, ..SPEC };
        assert!(!pool.fits(100, 10_000, &tight));
    }
}
