//! Property tests on the frontier-upkeep kernels (compaction, conversion,
//! degree binning, second-layer rebuild, the lazy clears, compute over an
//! item list). Each kernel reserves once per subgroup and appends in an
//! order of its own, so its output is compared as a *multiset* with what
//! the plain one-lane-per-element protocol yields, computed here on the
//! host — over word patterns that stress the collectives (all-ones,
//! single-bit, empty and random words, a partial tail word), both word
//! widths and subgroup widths 16, 32 and 64.

use proptest::prelude::*;
use sygraph::prelude::*;
use sygraph_core::frontier::bucket::{bin_compacted, bin_list};
use sygraph_core::frontier::{convert, BucketPool, BucketSpec, LaneFrontier};
use sygraph_core::operators::compute;

const SUBGROUPS: [u32; 3] = [16, 32, 64];

fn queue(sg: u32) -> Queue {
    let mut profile = DeviceProfile::v100s();
    profile.subgroup_sizes = vec![sg];
    profile.preferred_subgroup = sg;
    Queue::new(Device::new(profile))
}

/// A 64-vertex stretch of the vertex range: empty, full, one bit, or noise.
fn stretch() -> impl Strategy<Value = u64> {
    prop_oneof![
        3 => Just(0u64),
        2 => Just(u64::MAX),
        2 => (0..64u32).prop_map(|b| 1u64 << b),
        3 => (0..u64::MAX).prop_map(|x| x.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
    ]
}

/// `(n, members)`: a vertex range whose last word is partial unless
/// `trim` is 0, and the set bits of `stretches` that fall inside it.
fn vertex_set(stretches: &[u64], trim: usize) -> (usize, Vec<u32>) {
    let n = (stretches.len() * 64 - trim).max(1);
    let members = (0..n as u32)
        .filter(|&v| stretches[v as usize / 64] >> (v % 64) & 1 != 0)
        .collect();
    (n, members)
}

fn sorted(mut xs: Vec<u32>) -> Vec<u32> {
    xs.sort_unstable();
    xs
}

/// Degrees that land in every band of [`SPEC`], zero included.
fn degree(v: u32) -> u32 {
    (v.wrapping_mul(2_654_435_761) >> 7) % 45
}

const SPEC: BucketSpec = BucketSpec {
    small_max: 4,
    large_min: 16,
    chunk: 8,
};

/// Small, medium and `(vertex, chunk)` large entries of a filled pool.
fn buckets(pool: &BucketPool) -> (Vec<u32>, Vec<u32>, Vec<(u32, u32)>) {
    let c = pool.read_counts();
    let head = |b: &sygraph_sim::DeviceBuffer<u32>, k: u32| b.to_vec()[..k as usize].to_vec();
    let mut large: Vec<(u32, u32)> = head(&pool.large_v, c.large)
        .into_iter()
        .zip(head(&pool.large_c, c.large))
        .collect();
    large.sort_unstable();
    (
        sorted(head(&pool.small, c.small)),
        sorted(head(&pool.medium, c.medium)),
        large,
    )
}

fn check_word_width<W: Word>(sg: u32, stretches: &[u64], trim: usize) -> Result<(), TestCaseError> {
    let q = queue(sg);
    let (n, members) = vertex_set(stretches, trim);
    let fail = TestCaseError::fail;

    // Counted compaction: the offsets are the non-zero words, each once.
    let dense = TwoLayerFrontier::<W>::new(&q, n).unwrap();
    for &v in &members {
        dense.insert_host(v);
    }
    let (nz, offsets) = dense.compact(&q).unwrap();
    let mut want_words: Vec<u32> = members.iter().map(|v| v / W::BITS).collect();
    want_words.dedup();
    prop_assert_eq!(sorted(offsets.to_vec()[..nz].to_vec()), want_words);

    // Dense -> sparse: the items are the members, each once; a list too
    // short keeps `cap` distinct members, counts them all and says so.
    for cap in [n, members.len() / 2] {
        let items = q.malloc_device::<u32>(cap.max(1)).unwrap();
        let len = q.malloc_device::<u32>(1).unwrap();
        let overflow = q.malloc_device::<u32>(1).unwrap();
        overflow.store(0, 0);
        convert::sparsify::<W>(&q, dense.words(), &items, &len, &overflow);
        prop_assert_eq!(len.load(0) as usize, members.len());
        prop_assert_eq!(overflow.load(0) == 1, members.len() > items.len());
        let kept = sorted(items.to_vec()[..members.len().min(items.len())].to_vec());
        prop_assert!(kept.windows(2).all(|w| w[0] < w[1]), "duplicate item");
        prop_assert!(kept.iter().all(|v| members.binary_search(v).is_ok()));
        if cap == n {
            prop_assert_eq!(&kept, &members);
        }
    }

    // Degree binning, from the compacted words and from an item list.
    let mut want = (Vec::new(), Vec::new(), Vec::new());
    for &v in &members {
        match degree(v) {
            0 => {}
            d if d <= SPEC.small_max => want.0.push(v),
            d if d < SPEC.large_min => want.1.push(v),
            d => want.2.extend((0..d.div_ceil(SPEC.chunk)).map(|c| (v, c))),
        }
    }
    let degree_of = |lane: &mut sygraph_sim::ItemCtx<'_>, v: u32| {
        lane.compute(1);
        degree(v)
    };
    let pool = BucketPool::new(&q, n, 45 * n, &SPEC).unwrap();
    bin_compacted(&q, dense.words(), offsets, nz, &pool, &degree_of, &SPEC);
    prop_assert_eq!(&buckets(&pool), &want);
    let list = q.malloc_device::<u32>(n).unwrap();
    list.copy_from_slice(&members);
    bin_list(&q, &list, members.len(), &pool, &degree_of, &SPEC);
    prop_assert_eq!(&buckets(&pool), &want);

    // Second-layer rebuild after word-wise writes that bypassed inserts.
    let rebuilt = TwoLayerFrontier::<W>::new(&q, n).unwrap();
    rebuilt.insert_host(0); // a stale second-layer bit the rebuild must drop
    rebuilt.words().copy_from_slice(&dense.words().to_vec());
    rebuild_layer2(&q, &rebuilt);
    rebuilt.check_invariant().map_err(fail)?;
    prop_assert_eq!(rebuilt.layer2().to_vec(), dense.layer2().to_vec());

    // Lane overlay: one launch empties lane words, union words, layer 2.
    for width in [8, 16, 32, 64] {
        let lanes = LaneFrontier::<W>::new(&q, n, width).unwrap();
        for &v in &members {
            lanes.insert_host_masked(v, 1 << (v % width));
        }
        lanes.compact(&q);
        lanes.lazy_clear(&q);
        lanes.check_invariant().map_err(fail)?;
        prop_assert!(lanes.to_sorted_vec().is_empty());
        let view = lanes.lane_view().unwrap();
        prop_assert!(view.lanes.to_vec().iter().all(|&w| w == 0));
        prop_assert!(lanes.compact(&q).unwrap().0 == 0, "layer 2 left set");
    }

    // Sparse lazy clear and compute over the list, on both list layouts
    // (a hybrid whose list overflowed takes its dense paths instead).
    let hybrid = HybridFrontier::<W>::new(&q, n).unwrap();
    let sparse = SparseFrontier::<W>::new(&q, n).unwrap();
    let layouts: [&dyn BitmapLike<W>; 2] = [&hybrid, &sparse];
    for f in layouts {
        for &v in &members {
            f.insert_host(v);
        }
        f.adopt_rep(&q, RepKind::Sparse);
        let visits = q.malloc_device::<u32>(n).unwrap();
        q.fill(&visits, 0);
        compute::over_compacted(&q, f, |lane, v| {
            lane.fetch_add(&visits, v as usize, 1);
        });
        let visited: Vec<u32> = (0..n as u32)
            .filter(|&v| visits.load(v as usize) > 0)
            .collect();
        prop_assert_eq!(&visited, &members);
        prop_assert!(visits.to_vec().iter().all(|&c| c <= 1), "visited twice");
        f.compact(&q);
        f.lazy_clear(&q);
        prop_assert!(f.words().to_vec().iter().all(|w| w.is_zero()));
        prop_assert!(f.is_empty(&q));
    }
    hybrid.dense().check_invariant().map_err(fail)?;
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn upkeep_kernels_match_the_per_lane_protocol(
        stretches in prop::collection::vec(stretch(), 1..40),
        trim in 0..64usize,
    ) {
        for sg in SUBGROUPS {
            check_word_width::<u32>(sg, &stretches, trim)?;
            check_word_width::<u64>(sg, &stretches, trim)?;
        }
    }
}

/// The shapes the collectives are most likely to get wrong, pinned: one
/// full word, one bit in the last (partial) word, and nothing at all.
#[test]
fn upkeep_kernels_on_the_corner_shapes() {
    for sg in SUBGROUPS {
        for (stretches, trim) in [
            (vec![u64::MAX], 0),
            (vec![0, 0, 1 << 20], 43),
            (vec![0, 0], 7),
            (vec![u64::MAX; 33], 1),
        ] {
            check_word_width::<u32>(sg, &stretches, trim).unwrap();
            check_word_width::<u64>(sg, &stretches, trim).unwrap();
        }
    }
}
