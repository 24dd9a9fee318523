//! Output verification against `sygraph_algos::reference`, run outside the
//! timed spans. Each algorithm is checked in its determinism class:
//! BFS, CC, SSSP and every multi-source or partitioned BFS lane must be
//! bit-equal to the host reference; BC and PageRank accumulate f32 atomics
//! in schedule order and are checked within a stated tolerance.

use std::collections::HashMap;

use sygraph_algos::reference;
use sygraph_core::graph::CsrHost;

use crate::spec::{BC_REL_TOL, PAGERANK_L1_TOL};

/// What an op computed, as much of it as verification needs.
#[derive(Debug, Clone)]
pub enum Output {
    Bfs {
        src: u32,
        dist: Vec<u32>,
    },
    Sssp {
        src: u32,
        dist: Vec<f32>,
    },
    /// Labels on the symmetrized graph.
    Cc {
        labels: Vec<u32>,
    },
    Bc {
        src: u32,
        delta: Vec<f32>,
    },
    Pagerank {
        iterations: u32,
        ranks: Vec<f32>,
    },
    /// One distance vector per source, in source order.
    BfsLanes {
        sources: Vec<u32>,
        dist: Vec<Vec<u32>>,
    },
}

/// Reference results for one host graph, computed once per distinct
/// request and reused (repeat requests and replays ask again).
pub struct Oracle<'g> {
    host: &'g CsrHost,
    /// Symmetrized graph CC ran on, where the workload runs CC.
    undirected: Option<&'g CsrHost>,
    bfs: HashMap<u32, Vec<u32>>,
    sssp: HashMap<u32, Vec<f32>>,
    bc: HashMap<u32, Vec<f32>>,
    cc: Option<Vec<u32>>,
    pagerank: HashMap<u32, Vec<f32>>,
}

impl<'g> Oracle<'g> {
    pub fn new(host: &'g CsrHost, undirected: Option<&'g CsrHost>) -> Oracle<'g> {
        Oracle {
            host,
            undirected,
            bfs: HashMap::new(),
            sssp: HashMap::new(),
            bc: HashMap::new(),
            cc: None,
            pagerank: HashMap::new(),
        }
    }

    fn bfs_ok(&mut self, src: u32, dist: &[u32]) -> bool {
        let host = self.host;
        self.bfs
            .entry(src)
            .or_insert_with(|| reference::bfs(host, src))
            == dist
    }

    /// `Ok` when `out` is correct in its determinism class, else what
    /// differed.
    pub fn check(&mut self, out: &Output) -> Result<(), String> {
        let host = self.host;
        match out {
            Output::Bfs { src, dist } => self
                .bfs_ok(*src, dist)
                .then_some(())
                .ok_or_else(|| format!("bfs from {src} differs from reference::bfs")),
            Output::BfsLanes { sources, dist } => {
                if sources.len() != dist.len() {
                    return Err(format!(
                        "{} lanes returned for {} sources",
                        dist.len(),
                        sources.len()
                    ));
                }
                for (src, lane) in sources.iter().zip(dist) {
                    if !self.bfs_ok(*src, lane) {
                        return Err(format!("bfs lane from {src} differs from reference::bfs"));
                    }
                }
                Ok(())
            }
            Output::Sssp { src, dist } => {
                let want = self
                    .sssp
                    .entry(*src)
                    .or_insert_with(|| reference::dijkstra(host, *src));
                bits_eq(want, dist)
                    .then_some(())
                    .ok_or_else(|| format!("sssp from {src} differs from reference::dijkstra"))
            }
            Output::Cc { labels } => {
                let und = self
                    .undirected
                    .expect("workload ran cc without a symmetrized graph");
                let want = self
                    .cc
                    .get_or_insert_with(|| reference::connected_components(und));
                (want == labels)
                    .then_some(())
                    .ok_or_else(|| "cc labels differ from reference::connected_components".into())
            }
            Output::Bc { src, delta } => {
                let want = self
                    .bc
                    .entry(*src)
                    .or_insert_with(|| reference::betweenness_from(host, *src));
                let worst = rel_error(want, delta);
                (worst <= BC_REL_TOL).then_some(()).ok_or_else(|| {
                    format!("bc from {src}: relative error {worst:.2e} exceeds {BC_REL_TOL:.0e}")
                })
            }
            Output::Pagerank { iterations, ranks } => {
                let want = self
                    .pagerank
                    .entry(*iterations)
                    .or_insert_with(|| reference::pagerank(host, 0.85, *iterations));
                let l1 = l1_distance(want, ranks);
                (l1 <= PAGERANK_L1_TOL).then_some(()).ok_or_else(|| {
                    format!(
                        "pagerank ({iterations} sweeps): L1 distance {l1:.2e} exceeds {PAGERANK_L1_TOL:.0e}"
                    )
                })
            }
        }
    }
}

fn bits_eq(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Largest `|got − want| / (1 + |want|)`; infinite on a length mismatch.
fn rel_error(want: &[f32], got: &[f32]) -> f64 {
    if want.len() != got.len() {
        return f64::INFINITY;
    }
    want.iter()
        .zip(got)
        .map(|(&w, &g)| ((g - w).abs() / (1.0 + w.abs())) as f64)
        .fold(
            0.0,
            |worst, e| if e > worst || e.is_nan() { e } else { worst },
        )
}

/// `Σ |got − want|`; infinite on a length mismatch.
fn l1_distance(want: &[f32], got: &[f32]) -> f64 {
    if want.len() != got.len() {
        return f64::INFINITY;
    }
    want.iter()
        .zip(got)
        .map(|(&w, &g)| (g as f64 - w as f64).abs())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path() -> CsrHost {
        CsrHost::from_edges(4, &[(0, 1), (1, 0), (1, 2), (2, 1)])
    }

    #[test]
    fn exact_classes_reject_one_wrong_value() {
        let host = path();
        let mut oracle = Oracle::new(&host, Some(&host));
        let inf = sygraph_core::types::INF_DIST;
        let good = Output::Bfs {
            src: 0,
            dist: vec![0, 1, 2, inf],
        };
        assert!(oracle.check(&good).is_ok());
        let bad = Output::Bfs {
            src: 0,
            dist: vec![0, 1, 3, inf],
        };
        assert!(oracle.check(&bad).is_err());
        let lanes = Output::BfsLanes {
            sources: vec![0, 2],
            dist: vec![vec![0, 1, 2, inf], vec![2, 1, 0, inf]],
        };
        assert!(oracle.check(&lanes).is_ok());
        let cc = Output::Cc {
            labels: vec![0, 0, 0, 3],
        };
        assert!(oracle.check(&cc).is_ok());
        let sssp = Output::Sssp {
            src: 0,
            dist: vec![0.0, 1.0, 2.0, f32::INFINITY],
        };
        assert!(oracle.check(&sssp).is_ok());
    }

    #[test]
    fn tolerance_classes_accept_rounding_and_reject_errors() {
        let host = path();
        let mut oracle = Oracle::new(&host, None);
        let near = Output::Bc {
            src: 0,
            delta: vec![0.0, 1.0 + 1e-5, 0.0, 0.0],
        };
        assert!(oracle.check(&near).is_ok());
        let far = Output::Bc {
            src: 0,
            delta: vec![0.0, 1.01, 0.0, 0.0],
        };
        assert!(oracle.check(&far).is_err());
        let want = reference::pagerank(&host, 0.85, 5);
        let mut ranks = want.clone();
        ranks[0] += 1e-6;
        let near = Output::Pagerank {
            iterations: 5,
            ranks: ranks.clone(),
        };
        assert!(oracle.check(&near).is_ok());
        ranks[0] += 1e-3;
        let far = Output::Pagerank {
            iterations: 5,
            ranks,
        };
        assert!(oracle.check(&far).is_err());
    }
}
