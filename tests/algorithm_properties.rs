//! Property-based tests on the algorithms: device results must equal the
//! host references on arbitrary random graphs, and structural invariants
//! (triangle inequality on BFS levels, CC labels as equivalence classes,
//! UDT reachability preservation) must hold.

use proptest::prelude::*;
use sygraph::prelude::*;
use sygraph_algos::reference;
use sygraph_baselines::{AlgoKind, Framework, TigrLike};
use sygraph_core::inspector::OptConfig;

fn queue() -> Queue {
    Queue::new(Device::new(DeviceProfile::host_test()))
}

/// Arbitrary directed graph: vertex count + edge pairs.
fn graph_strategy(max_n: u32, max_m: usize) -> impl Strategy<Value = (u32, Vec<(u32, u32)>)> {
    (2..max_n).prop_flat_map(move |n| {
        let edges = prop::collection::vec((0..n, 0..n), 0..max_m);
        (Just(n), edges)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn bfs_equals_reference_on_arbitrary_graphs((n, edges) in graph_strategy(80, 300)) {
        let host = CsrHost::from_edges(n as usize, &edges);
        let q = queue();
        let g = Graph::new(&q, &host).unwrap();
        let got = sygraph::algos::bfs::run(&q, &g.csr, 0, &OptConfig::all()).unwrap();
        prop_assert_eq!(got.values, reference::bfs(&host, 0));
    }

    #[test]
    fn bfs_level_sets_are_consistent((n, edges) in graph_strategy(60, 200)) {
        // every reached vertex v (level > 0) has a predecessor at level-1
        let host = CsrHost::from_edges(n as usize, &edges);
        let q = queue();
        let g = Graph::new(&q, &host).unwrap();
        let dist = sygraph::algos::bfs::run(&q, &g.csr, 0, &OptConfig::all()).unwrap().values;
        let t = host.transpose().unwrap();
        for v in 0..n {
            let d = dist[v as usize];
            if d != u32::MAX && d > 0 {
                let has_parent = t.neighbors(v).iter().any(|&u| dist[u as usize] == d - 1);
                prop_assert!(has_parent, "vertex {} at level {} has no parent", v, d);
            }
        }
    }

    #[test]
    fn sssp_respects_edge_relaxation((n, edges) in graph_strategy(50, 150)) {
        // final distances admit no relaxable edge (Bellman-Ford fixpoint)
        let weights: Vec<f32> = (0..edges.len()).map(|i| 0.5 + (i % 7) as f32).collect();
        let host = CsrHost::from_edges_weighted(n as usize, &edges, Some(&weights));
        let q = queue();
        let g = Graph::new(&q, &host).unwrap();
        let dist = sygraph::algos::sssp::run(&q, &g.csr, 0, &OptConfig::all()).unwrap().values;
        for u in 0..n {
            let du = dist[u as usize];
            if !du.is_finite() { continue; }
            let ws = host.neighbor_weights(u).unwrap();
            for (k, &v) in host.neighbors(u).iter().enumerate() {
                prop_assert!(
                    dist[v as usize] <= du + ws[k] + 1e-3,
                    "edge {}->{} relaxable", u, v
                );
            }
        }
    }

    #[test]
    fn cc_labels_are_component_constant((n, edges) in graph_strategy(60, 150)) {
        let host = CsrHost::from_edges(n as usize, &edges).to_undirected().unwrap();
        let q = queue();
        let g = Graph::new(&q, &host).unwrap();
        let labels = sygraph::algos::cc::run(&q, &g.csr, &OptConfig::all()).unwrap().values;
        // same label across every edge, and label is the component min
        for u in 0..n {
            for &v in host.neighbors(u) {
                prop_assert_eq!(labels[u as usize], labels[v as usize]);
            }
            prop_assert!(labels[u as usize] <= u);
        }
        // the vertex carrying the label belongs to the component
        for u in 0..n {
            let l = labels[u as usize];
            prop_assert_eq!(labels[l as usize], l, "label root must be its own label");
        }
    }

    #[test]
    fn udt_preserves_reachability((n, edges) in graph_strategy(50, 200)) {
        // Tigr's UDT transform must not change BFS results.
        let host = CsrHost::from_edges(n as usize, &edges);
        let q = queue();
        let mut tigr = TigrLike::new();
        tigr.prepare(&q, &host).unwrap();
        let rec = tigr.run(&q, AlgoKind::Bfs, 0).unwrap();
        match rec.values {
            sygraph_algos::Values::U32(d) => {
                prop_assert_eq!(d, reference::bfs(&host, 0));
            }
            _ => prop_assert!(false, "wrong value type"),
        }
    }

    #[test]
    fn bc_is_nonnegative_and_zero_on_sinks((n, edges) in graph_strategy(40, 120)) {
        let host = CsrHost::from_edges(n as usize, &edges);
        let q = queue();
        let g = Graph::new(&q, &host).unwrap();
        let bc = sygraph::algos::bc::run(&q, &g.csr, 0, &OptConfig::all()).unwrap().values;
        for (v, &x) in bc.iter().enumerate() {
            prop_assert!(x >= 0.0, "negative dependency at {}", v);
            if host.degree(v as u32) == 0 {
                prop_assert_eq!(x, 0.0, "sink {} cannot lie on a shortest path", v);
            }
        }
    }
}
