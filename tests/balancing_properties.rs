//! Property tests for the degree-aware load-balancing strategies: every
//! `Balancing` policy must be an *implementation detail* — same visited
//! sets, same distances, same frontier words — never an observable one.
//!
//! Three layers of evidence:
//! 1. generator suite (R-MAT, road, web stand-ins): BFS and SSSP results
//!    bit-identical across strategies, BC within its declared class
//!    (`sygraph_algos::Algo::determinism`; its atomic float accumulation order
//!    legitimately changes);
//! 2. proptest on random graphs: the raw `advance` output frontier is
//!    word-for-word identical between workgroup-mapped and bucketed
//!    dispatch, on both word widths;
//! 3. proptest on the binning kernel: buckets partition the frontier —
//!    every active vertex with degree > 0 lands in exactly one bucket and
//!    large vertices contribute exactly `ceil(d / chunk)` chunk entries.

use proptest::prelude::*;
use sygraph::prelude::*;
use sygraph_core::frontier::{bucket, BucketPool, BucketSpec};

fn queue() -> Queue {
    Queue::new(Device::new(DeviceProfile::v100s()))
}

const STRATEGIES: [Balancing; 3] = [
    Balancing::WorkgroupMapped,
    Balancing::Bucketed,
    Balancing::Auto,
];

/// BFS/SSSP bit-identical and BC tolerance-equal across all strategies on
/// one dataset, from its highest-degree vertex (worst-case imbalance).
fn check_dataset(ds: &sygraph_gen::Dataset) {
    let src = (0..ds.host.vertex_count() as u32)
        .max_by_key(|&v| ds.host.degree(v))
        .unwrap();
    let mut base: Option<(Vec<u32>, Vec<f32>, Vec<f32>)> = None;
    for s in STRATEGIES {
        let q = queue();
        let g = DeviceCsr::upload(&q, &ds.host).unwrap();
        let opts = OptConfig::with_balancing(s);
        let bfs = sygraph_algos::bfs::run(&q, &g, src, &opts).unwrap().values;
        let sssp = sygraph_algos::sssp::run(&q, &g, src, &opts).unwrap().values;
        let bc = sygraph_algos::bc::run(&q, &g, src, &opts).unwrap().values;
        match &base {
            None => base = Some((bfs, sssp, bc)),
            Some((b0, s0, c0)) => {
                assert_eq!(b0, &bfs, "BFS diverged on {} under {s:?}", ds.key);
                assert_eq!(s0, &sssp, "SSSP diverged on {} under {s:?}", ds.key);
                assert!(
                    sygraph_algos::Algo::Bc.determinism().agrees_f32(c0, &bc),
                    "BC diverged on {} under {s:?}",
                    ds.key
                );
            }
        }
    }
}

#[test]
fn strategies_agree_on_rmat() {
    check_dataset(&sygraph_gen::datasets::kron(sygraph_gen::Scale::Test));
}

#[test]
fn strategies_agree_on_road() {
    check_dataset(&sygraph_gen::datasets::road_ca(sygraph_gen::Scale::Test));
}

#[test]
fn strategies_agree_on_web() {
    check_dataset(&sygraph_gen::datasets::indochina(sygraph_gen::Scale::Test));
}

#[test]
fn strategies_agree_on_social() {
    check_dataset(&sygraph_gen::datasets::hollywood(sygraph_gen::Scale::Test));
}

const N: usize = 96;

/// Tuning forcing the bucketed path with thresholds small enough that
/// random test graphs populate all three buckets.
fn forced_tuning(q: &Queue, balancing: Balancing) -> Tuning {
    let mut t = inspect(q.profile(), &OptConfig::all(), N);
    t.balancing = balancing;
    t.small_max_degree = 2;
    t.large_min_degree = 8;
    t
}

/// One raw advance (functor always true) under the given tuning; returns
/// the output frontier's words.
fn advance_words<W: Word>(edges: &[(u32, u32)], frontier: &[u32], balancing: Balancing) -> Vec<W> {
    let q = queue();
    let host = CsrHost::from_edges(N, edges);
    let g = DeviceCsr::upload(&q, &host).unwrap();
    let tuning = forced_tuning(&q, balancing);
    let fin = TwoLayerFrontier::<W>::new(&q, N).unwrap();
    let fout = TwoLayerFrontier::<W>::new(&q, N).unwrap();
    for &v in frontier {
        fin.insert_host(v);
    }
    let (ev, _) = Advance::new(&q, &g, &fin)
        .output(&fout)
        .tuning(&tuning)
        .run(|_l, _u, _v, _e, _w| true);
    ev.wait();
    fout.words().to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn bucketed_advance_is_bit_identical(
        edges in prop::collection::vec((0..N as u32, 0..N as u32), 0..300),
        frontier in prop::collection::vec(0..N as u32, 1..24),
    ) {
        let wg32 = advance_words::<u32>(&edges, &frontier, Balancing::WorkgroupMapped);
        let bk32 = advance_words::<u32>(&edges, &frontier, Balancing::Bucketed);
        prop_assert_eq!(wg32, bk32, "u32 frontier words diverge");
        let wg64 = advance_words::<u64>(&edges, &frontier, Balancing::WorkgroupMapped);
        let bk64 = advance_words::<u64>(&edges, &frontier, Balancing::Bucketed);
        prop_assert_eq!(wg64, bk64, "u64 frontier words diverge");
    }

    #[test]
    fn binning_partitions_the_frontier(
        edges in prop::collection::vec((0..N as u32, 0..N as u32), 0..400),
        frontier in prop::collection::vec(0..N as u32, 1..32),
    ) {
        let q = queue();
        let host = CsrHost::from_edges(N, &edges);
        let f = TwoLayerFrontier::<u32>::new(&q, N).unwrap();
        for &v in &frontier {
            f.insert_host(v);
        }
        let spec = BucketSpec { small_max: 2, large_min: 8, chunk: 8 };
        let pool = BucketPool::new(&q, N, host.edge_count().max(1), &spec).unwrap();
        let degree = |v: u32| host.degree(v);
        let (nz, offsets) = f.compact(&q).unwrap();
        let counts =
            bucket::bin_compacted(&q, f.words(), offsets, nz, &pool, &|_l, v| degree(v), &spec);
        // Expected partition, computed on the host from the dedup'd
        // frontier (the bitmap dedups; the raw `frontier` vec may not).
        let mut active: Vec<u32> = frontier.clone();
        active.sort_unstable();
        active.dedup();
        let small = active.iter().filter(|&&v| (1..=2).contains(&degree(v))).count();
        let medium = active.iter().filter(|&&v| (3..8).contains(&degree(v))).count();
        let chunks: u32 = active
            .iter()
            .map(|&v| degree(v))
            .filter(|&d| d >= 8)
            .map(|d| d.div_ceil(8))
            .sum();
        prop_assert_eq!(counts.small as usize, small);
        prop_assert_eq!(counts.medium as usize, medium);
        prop_assert_eq!(counts.large, chunks);
    }
}
