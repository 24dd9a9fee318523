//! Property tests for the frontier-representation layer: the `Representation`
//! policy (dense bitmap / sparse item list / density-adaptive auto) must be
//! an *implementation detail* — same visited sets, same distances, same
//! labels — never an observable one.
//!
//! Three layers of evidence:
//! 1. generator suite (R-MAT, road, web, social stand-ins): BFS, SSSP and
//!    CC results bit-identical across representations, BC within its
//!    declared class (`sygraph_algos::Algo::determinism`; its atomic float
//!    accumulation order legitimately changes);
//! 2. proptest on random vertex sets: the dense→sparse→dense conversion
//!    kernel round-trip reproduces the bitmap exactly, on both word
//!    widths, and the sparse list is duplicate-free;
//! 3. proptest on random graphs: a raw advance from a sparse input
//!    produces frontier words identical to the dense advance's.

use proptest::prelude::*;
use sygraph::prelude::*;
use sygraph_core::frontier::convert;

fn queue() -> Queue {
    Queue::new(Device::new(DeviceProfile::v100s()))
}

const REPRESENTATIONS: [Representation; 3] = [
    Representation::Dense,
    Representation::Sparse,
    Representation::Auto,
];

/// (bfs, sssp, cc, bc) result vectors of one run, compared across policies.
type AlgoResults = (Vec<u32>, Vec<f32>, Vec<u32>, Vec<f32>);

/// BFS/SSSP/CC bit-identical and BC tolerance-equal across all
/// representation policies on one dataset, from its highest-degree vertex.
fn check_dataset(ds: &sygraph_gen::Dataset) {
    let src = (0..ds.host.vertex_count() as u32)
        .max_by_key(|&v| ds.host.degree(v))
        .unwrap();
    let und = ds.undirected();
    let mut base: Option<AlgoResults> = None;
    for r in REPRESENTATIONS {
        let q = queue();
        let g = DeviceCsr::upload(&q, &ds.host).unwrap();
        let gu = DeviceCsr::upload(&q, &und).unwrap();
        let opts = OptConfig::with_representation(r);
        let bfs = sygraph_algos::bfs::run(&q, &g, src, &opts).unwrap().values;
        let sssp = sygraph_algos::sssp::run(&q, &g, src, &opts).unwrap().values;
        let cc = sygraph_algos::cc::run(&q, &gu, &opts).unwrap().values;
        let bc = sygraph_algos::bc::run(&q, &g, src, &opts).unwrap().values;
        match &base {
            None => base = Some((bfs, sssp, cc, bc)),
            Some((b0, s0, l0, c0)) => {
                assert_eq!(b0, &bfs, "BFS diverged on {} under {r:?}", ds.key);
                assert_eq!(s0, &sssp, "SSSP diverged on {} under {r:?}", ds.key);
                assert_eq!(l0, &cc, "CC diverged on {} under {r:?}", ds.key);
                assert!(
                    sygraph_algos::Algo::Bc.determinism().agrees_f32(c0, &bc),
                    "BC diverged on {} under {r:?}",
                    ds.key
                );
            }
        }
    }
}

#[test]
fn representations_agree_on_rmat() {
    check_dataset(&sygraph_gen::datasets::kron(sygraph_gen::Scale::Test));
}

#[test]
fn representations_agree_on_road() {
    check_dataset(&sygraph_gen::datasets::road_ca(sygraph_gen::Scale::Test));
}

#[test]
fn representations_agree_on_web() {
    check_dataset(&sygraph_gen::datasets::indochina(sygraph_gen::Scale::Test));
}

#[test]
fn representations_agree_on_social() {
    check_dataset(&sygraph_gen::datasets::hollywood(sygraph_gen::Scale::Test));
}

/// The auto policy actually exercises the sparse machinery on a
/// high-diameter graph: BFS on the road stand-in must run some supersteps
/// on the item list and report the representation trace through the
/// profiler.
#[test]
fn auto_goes_sparse_on_the_road_grid() {
    let ds = sygraph_gen::datasets::road_ca(sygraph_gen::Scale::Test);
    let q = queue();
    let g = DeviceCsr::upload(&q, &ds.host).unwrap();
    let opts = OptConfig::with_representation(Representation::Auto);
    sygraph_algos::bfs::run(&q, &g, 0, &opts).unwrap();
    let events = q.profiler().rep_events();
    assert!(
        events.iter().any(|e| e.rep == "sparse"),
        "auto BFS on the road grid never left the dense bitmap"
    );
    assert!(
        events.iter().any(|e| e.switched),
        "the widening wavefront must force at least one representation switch"
    );
}

const N: usize = 96;

/// Converts `vertices` dense → sparse on word width `W` and checks the
/// list against the bitmap it was built from.
fn roundtrip_exact<W: Word>(q: &Queue, vertices: &[u32]) {
    let dense = TwoLayerFrontier::<W>::new(q, N).unwrap();
    for &v in vertices {
        dense.insert_host(v);
    }
    let items = q.malloc_device::<u32>(N).unwrap();
    let len = q.malloc_device::<u32>(1).unwrap();
    let overflow = q.malloc_device::<u32>(1).unwrap();
    overflow.store(0, 0);
    convert::sparsify::<W>(q, dense.words(), &items, &len, &overflow);
    assert_eq!(overflow.load(0), 0, "capacity n can never overflow");
    // The list is an exact, duplicate-free enumeration of the set bits.
    let mut got = items.to_vec()[..len.load(0) as usize].to_vec();
    got.sort_unstable();
    assert_eq!(got, dense.to_sorted_vec(), "sparsify lost or invented bits");
}

/// One raw advance (functor always true) from either a sparse or a dense
/// input frontier; returns the output frontier's words.
fn advance_words_rep<W: Word>(edges: &[(u32, u32)], frontier: &[u32], sparse: bool) -> Vec<W> {
    let q = queue();
    let host = CsrHost::from_edges(N, edges);
    let g = DeviceCsr::upload(&q, &host).unwrap();
    let tuning = inspect(q.profile(), &OptConfig::all(), N);
    let fin: Box<dyn BitmapLike<W>> = if sparse {
        Box::new(SparseFrontier::<W>::new(&q, N).unwrap())
    } else {
        Box::new(TwoLayerFrontier::<W>::new(&q, N).unwrap())
    };
    let fout = TwoLayerFrontier::<W>::new(&q, N).unwrap();
    for &v in frontier {
        fin.insert_host(v);
    }
    if sparse {
        assert_eq!(fin.adopt_rep(&q, RepKind::Sparse), RepKind::Sparse);
    }
    let (ev, _) = Advance::new(&q, &g, fin.as_ref())
        .output(&fout)
        .tuning(&tuning)
        .run(|_l, _u, _v, _e, _w| true);
    ev.wait();
    fout.words().to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn conversion_round_trips_exactly(
        vertices in prop::collection::vec(0..N as u32, 0..64),
    ) {
        let q = queue();
        roundtrip_exact::<u32>(&q, &vertices);
        roundtrip_exact::<u64>(&q, &vertices);
    }

    #[test]
    fn sparse_advance_is_bit_identical(
        edges in prop::collection::vec((0..N as u32, 0..N as u32), 0..300),
        frontier in prop::collection::vec(0..N as u32, 1..24),
    ) {
        let d32 = advance_words_rep::<u32>(&edges, &frontier, false);
        let s32 = advance_words_rep::<u32>(&edges, &frontier, true);
        prop_assert_eq!(d32, s32, "u32 frontier words diverge");
        let d64 = advance_words_rep::<u64>(&edges, &frontier, false);
        let s64 = advance_words_rep::<u64>(&edges, &frontier, true);
        prop_assert_eq!(d64, s64, "u64 frontier words diverge");
    }
}
