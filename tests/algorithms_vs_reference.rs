//! Cross-crate integration: every device algorithm × every frontier
//! layout × every generated dataset family, validated against the host
//! reference implementations.

use sygraph::prelude::*;
use sygraph_algos::reference;
use sygraph_core::inspector::OptConfig;
use sygraph_gen::{datasets, Scale};

fn queue() -> Queue {
    Queue::new(Device::new(DeviceProfile::v100s()))
}

fn test_suite() -> Vec<sygraph_gen::Dataset> {
    datasets::paper_suite(Scale::Test)
}

#[test]
fn bfs_matches_reference_on_every_dataset() {
    for d in test_suite() {
        let q = queue();
        let g = Graph::new(&q, &d.host).unwrap();
        for src in [0u32, (d.host.vertex_count() / 2) as u32] {
            let got = sygraph::algos::bfs::run(&q, &g.csr, src, &OptConfig::all()).unwrap();
            assert_eq!(
                got.values,
                reference::bfs(&d.host, src),
                "BFS mismatch on {} from {src}",
                d.key
            );
        }
    }
}

#[test]
fn bfs_all_ablation_configs_agree() {
    let d = datasets::kron(Scale::Test);
    let q = queue();
    let g = Graph::new(&q, &d.host).unwrap();
    let want = reference::bfs(&d.host, 0);
    for (label, opts) in OptConfig::ablation_suite() {
        let got = sygraph::algos::bfs::run(&q, &g.csr, 0, &opts).unwrap();
        assert_eq!(got.values, want, "config {label} wrong");
    }
}

#[test]
fn sssp_matches_dijkstra_on_weighted_roads() {
    for d in [
        datasets::road_ca(Scale::Test),
        datasets::road_usa(Scale::Test),
    ] {
        let q = queue();
        let g = Graph::new(&q, &d.host).unwrap();
        let got = sygraph::algos::sssp::run(&q, &g.csr, 0, &OptConfig::all()).unwrap();
        let want = reference::dijkstra(&d.host, 0);
        for (v, (a, b)) in got.values.iter().zip(want.iter()).enumerate() {
            assert!(
                (a.is_infinite() && b.is_infinite()) || (a - b).abs() < 1e-3,
                "{}: vertex {v}: {a} vs {b}",
                d.key
            );
        }
    }
}

#[test]
fn delta_stepping_agrees_with_bellman_ford() {
    let d = datasets::road_ca(Scale::Test);
    let q = queue();
    let g = Graph::new(&q, &d.host).unwrap();
    let bf = sygraph::algos::sssp::run(&q, &g.csr, 3, &OptConfig::all()).unwrap();
    for delta in [0.5f32, 2.0, 50.0] {
        let ds = sygraph::algos::delta::run(&q, &g.csr, 3, &OptConfig::all(), delta).unwrap();
        for (v, (a, b)) in bf.values.iter().zip(ds.values.iter()).enumerate() {
            assert!(
                (a.is_infinite() && b.is_infinite()) || (a - b).abs() < 1e-3,
                "Δ={delta} vertex {v}: {a} vs {b}"
            );
        }
    }
}

#[test]
fn cc_matches_union_find_on_every_dataset() {
    for d in test_suite() {
        let und = d.undirected();
        let q = queue();
        let g = Graph::new(&q, &und).unwrap();
        let got = sygraph::algos::cc::run(&q, &g.csr, &OptConfig::all()).unwrap();
        assert_eq!(
            got.values,
            reference::connected_components(&und),
            "CC mismatch on {}",
            d.key
        );
    }
}

#[test]
fn bc_matches_brandes_on_scale_free_and_road() {
    for d in [datasets::kron(Scale::Test), datasets::road_ca(Scale::Test)] {
        let q = queue();
        let g = Graph::new(&q, &d.host).unwrap();
        let got = sygraph::algos::bc::run(&q, &g.csr, 1, &OptConfig::all()).unwrap();
        let want = reference::betweenness_from(&d.host, 1);
        for (v, (a, b)) in got.values.iter().zip(want.iter()).enumerate() {
            assert!(
                (a - b).abs() < 1e-2 * (1.0 + b.abs()),
                "{}: vertex {v}: {a} vs {b}",
                d.key
            );
        }
    }
}

#[test]
fn dobfs_matches_bfs_on_scale_free() {
    let d = datasets::hollywood(Scale::Test);
    let q = queue();
    let g = Graph::with_pull(&q, &d.host).unwrap();
    let want = reference::bfs(&d.host, 0);
    let got = sygraph::algos::dobfs::run(&q, &g, 0, &OptConfig::all()).unwrap();
    assert_eq!(got.values, want);
}

#[test]
fn pagerank_mass_is_conserved_on_web_graph() {
    let d = datasets::indochina(Scale::Test);
    let q = queue();
    let g = Graph::new(&q, &d.host).unwrap();
    let got = sygraph::algos::pagerank::run(
        &q,
        &g.csr,
        &OptConfig::all(),
        sygraph::algos::pagerank::PagerankParams {
            max_iters: 30,
            tol: 0.0,
            ..Default::default()
        },
    )
    .unwrap();
    let sum: f32 = got.values.iter().sum();
    assert!((sum - 1.0).abs() < 1e-2, "rank mass {sum}");
    let want = reference::pagerank(&d.host, 0.85, 30);
    for (v, (a, b)) in got.values.iter().zip(want.iter()).enumerate() {
        assert!((a - b).abs() < 1e-3, "vertex {v}: {a} vs {b}");
    }
}

#[test]
fn pagerank_agrees_under_every_balancing() {
    use sygraph::algos::pagerank::{run, PagerankParams};
    use sygraph_core::graph::CsrHost;
    use sygraph_core::inspector::Balancing;

    // A hub whose 600 successors are all dangling (and cluster into its
    // own ID window, so `Auto` bins this graph), a long cycle through the
    // hub, and some 750 isolated vertices.
    let mut edges: Vec<(u32, u32)> = (1..=600).map(|v| (0, v)).collect();
    edges.extend((700..1400).map(|v| (v, v + 1)));
    edges.push((1400, 0));
    let dangling = CsrHost::from_edges(2048, &edges);
    let class = sygraph_algos::Algo::Pagerank.determinism();
    for (name, host) in [
        ("kron", datasets::kron(Scale::Test).host),
        ("hub", dangling),
    ] {
        // Stop after exactly SWEEPS sweeps, on a tolerance halfway (in
        // ratio) between the host reference's residuals on either side, so
        // f32 accumulation noise cannot move the count.
        const SWEEPS: u32 = 6;
        let residual = |k: u32| -> f32 {
            let (a, b) = (
                reference::pagerank(&host, 0.85, k - 1),
                reference::pagerank(&host, 0.85, k),
            );
            a.iter().zip(&b).map(|(x, y)| (x - y).abs()).sum()
        };
        let (before, after) = (residual(SWEEPS - 1), residual(SWEEPS));
        assert!(
            after * 1.5 < before,
            "{name}: residuals {before} -> {after}"
        );
        let params = PagerankParams {
            tol: (before * after).sqrt(),
            ..Default::default()
        };
        let want = reference::pagerank(&host, 0.85, SWEEPS);
        let mut first: Option<Vec<f32>> = None;
        for balancing in [
            Balancing::WorkgroupMapped,
            Balancing::Bucketed,
            Balancing::Auto,
        ] {
            let q = queue();
            let g = Graph::new(&q, &host).unwrap();
            let opts = OptConfig::with_balancing(balancing);
            let got = run(&q, &g.csr, &opts, params).unwrap();
            let binned = q
                .profiler()
                .kernels()
                .iter()
                .any(|k| k.name == "advance_bucket_bin");
            let expect_binned =
                balancing == Balancing::Bucketed || (balancing == Balancing::Auto && name == "hub");
            assert_eq!(binned, expect_binned, "{name} under {balancing:?}");
            assert_eq!(got.iterations, SWEEPS, "{name} {balancing:?}");
            let l1: f32 = got
                .values
                .iter()
                .zip(&want)
                .map(|(a, b)| (a - b).abs())
                .sum();
            assert!(l1 < 1e-4, "{name} {balancing:?}: L1 error {l1}");
            let first = first.get_or_insert_with(|| got.values.clone());
            assert!(
                class.agrees_f32(first, &got.values),
                "{name}: {balancing:?} left the declared class"
            );
        }
    }
}

#[test]
fn results_identical_across_device_profiles() {
    let d = datasets::twitter(Scale::Test);
    let mut all = Vec::new();
    for profile in DeviceProfile::paper_machines() {
        let q = Queue::new(Device::new(profile));
        let g = Graph::new(&q, &d.host).unwrap();
        let got = sygraph::algos::bfs::run(&q, &g.csr, 0, &OptConfig::all()).unwrap();
        all.push(got.values);
    }
    assert_eq!(all[0], all[1]);
    assert_eq!(all[1], all[2]);
}
