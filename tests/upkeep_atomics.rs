//! The frontier-upkeep rule, checked on whole algorithm runs: an upkeep
//! kernel reserves once per subgroup, so none of them may report a cycle
//! of same-address atomic serialisation, the sparse lazy clear issues at
//! most one atomic per list entry, and neither the results nor the
//! sanitizer can tell the difference. BFS (fused and unfused), SSSP and
//! an 8-lane `bfs_multi` run on test-scale road-CA and kron under
//! `OptConfig::all()` — and on kron once more with the balancing forced
//! to `Bucketed`, because `Auto` stays workgroup-mapped on a graph this
//! small and the binning kernel would go unvisited.

use std::collections::BTreeSet;

use sygraph_algos::{bfs, multi, reference, sssp};
use sygraph_bench::{hub_source, scaled_profile};
use sygraph_core::graph::Graph;
use sygraph_core::inspector::{Balancing, OptConfig};
use sygraph_gen::{datasets, Dataset, Scale};
use sygraph_sim::{Device, DeviceProfile, KernelRecord, Queue};

/// Upkeep kernels that must never serialise on an atomic.
const CONFLICT_FREE: [&str; 5] = [
    "advance_bucket_bin",
    "frontier_compact",
    "frontier_sparsify",
    "layer2_rebuild",
    "lane_lazy_clear",
];

const LANES: u32 = 8;

fn suite() -> [(Dataset, OptConfig); 3] {
    [
        (datasets::road_ca(Scale::Test), OptConfig::all()),
        (datasets::kron(Scale::Test), OptConfig::all()),
        (
            datasets::kron(Scale::Test),
            OptConfig::with_balancing(Balancing::Bucketed),
        ),
    ]
}

fn device(ds: &Dataset) -> std::sync::Arc<Device> {
    Device::new(scaled_profile(&DeviceProfile::v100s(), ds))
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Runs the four algorithms on `q`, each checked bit for bit against the
/// host reference, and returns the kernels of every run (the queue is
/// reset between runs).
fn run_all(q: &Queue, ds: &Dataset, opts: &OptConfig) -> Vec<KernelRecord> {
    let g = Graph::new(q, &ds.host).unwrap();
    let src = hub_source(&ds.host);
    let want_bfs = reference::bfs(&ds.host, src);
    let mut kernels = Vec::new();
    let mut drain = |q: &Queue| {
        kernels.extend(q.profiler().kernels());
        q.reset();
    };

    let got = bfs::run(q, &g, src, opts).unwrap();
    assert_eq!(got.values, want_bfs, "bfs on {}", ds.key);
    // The unfused BFS is the run the sparse-clear bound is stated on.
    let sparse_clear_atomics: u64 = q
        .profiler()
        .kernels()
        .iter()
        .filter(|k| k.name == "frontier_sparse_lazy_clear")
        .map(|k| k.stats.totals.atomics)
        .sum();
    let reached = want_bfs.iter().filter(|&&d| d != u32::MAX).count();
    assert!(
        sparse_clear_atomics <= reached as u64,
        "{}: frontier_sparse_lazy_clear issued {sparse_clear_atomics} atomics \
         for {reached} vertices reached — more than one per list entry",
        ds.key
    );
    drain(q);

    let got = bfs::run_fused(q, &g, src, opts).unwrap();
    assert_eq!(got.values, want_bfs, "fused bfs on {}", ds.key);
    drain(q);

    let got = sssp::run(q, &g.csr, src, opts).unwrap();
    let want = reference::dijkstra(&ds.host, src);
    assert_eq!(bits(&got.values), bits(&want), "sssp on {}", ds.key);
    drain(q);

    let n = ds.host.vertex_count() as u32;
    let sources: Vec<u32> = (0..LANES).map(|l| (src + l * (n / LANES)) % n).collect();
    let got = multi::bfs_multi(q, &g.csr, &sources, LANES, opts).unwrap();
    for (s, dist) in got.sources.iter().zip(&got.per_source) {
        assert_eq!(dist, &reference::bfs(&ds.host, *s), "bfs_multi lane {s}");
    }
    drain(q);
    kernels
}

#[test]
fn upkeep_kernels_never_serialise_on_an_atomic() {
    let mut seen = BTreeSet::new();
    for (ds, opts) in suite() {
        let q = Queue::new(device(&ds));
        let kernels = run_all(&q, &ds, &opts);
        for k in kernels.iter().filter(|k| CONFLICT_FREE.contains(&&*k.name)) {
            seen.insert(k.name.clone());
            assert_eq!(
                k.stats.totals.atomic_conflict_cycles, 0,
                "{} on {} serialised (launch #{})",
                k.name, ds.key, k.seq
            );
        }
    }
    // The suite has to reach the kernels it vouches for. Conversion and
    // rebuild only run on a representation switch or a set operation, so
    // those two are driven directly in `conversion_kernels_are_conflict_free`.
    for name in ["advance_bucket_bin", "frontier_compact", "lane_lazy_clear"] {
        assert!(seen.contains(name), "no run launched {name}");
    }
}

#[test]
fn conversion_kernels_are_conflict_free() {
    use sygraph_core::frontier::{BitmapLike, Frontier, HybridFrontier, RepKind};
    let q = Queue::new(Device::new(DeviceProfile::v100s()));
    let n = 40_000;
    let f = HybridFrontier::<u32>::new(&q, n).unwrap();
    let g = HybridFrontier::<u32>::new(&q, n).unwrap();
    let out = HybridFrontier::<u32>::new(&q, n).unwrap();
    for v in (0..n as u32).filter(|v| v % 37 < 2) {
        f.insert_host(v);
        g.insert_host((v + 1) % n as u32);
    }
    // A set operation rewrites the words: layer 2 is rebuilt and the next
    // sparse adoption re-derives the list from the bitmap.
    sygraph_core::frontier::ops::union(&q, &f, &g, &out);
    assert_eq!(out.adopt_rep(&q, RepKind::Sparse), RepKind::Sparse);
    assert_eq!(out.sparse_view(&q).unwrap().len, out.to_sorted_vec().len());
    out.dense().check_invariant().unwrap();
    for name in ["layer2_rebuild", "frontier_sparsify"] {
        let launches: Vec<_> = q
            .profiler()
            .kernels()
            .into_iter()
            .filter(|k| k.name == name)
            .collect();
        assert!(!launches.is_empty(), "{name} never ran");
        for k in launches {
            assert_eq!(k.stats.totals.atomic_conflict_cycles, 0, "{name}");
        }
    }
}

#[test]
fn rewritten_kernels_are_sanitizer_clean() {
    for (ds, opts) in suite() {
        let q = Queue::with_sanitizer(device(&ds), 0x5EED);
        run_all(&q, &ds, &opts);
        let san = q.sanitizer().unwrap();
        assert!(
            san.is_clean(),
            "sanitizer findings on {}:\n{}",
            ds.key,
            san.report()
        );
    }
}
