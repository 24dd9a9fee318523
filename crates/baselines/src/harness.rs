//! The common framework harness: every comparator (and SYgraph itself)
//! implements [`Framework`], so the figure/table generators can run the
//! same (algorithm, dataset, source) grid over all of them and compare
//! both results (correctness) and modelled cost (performance).

use serde::{Deserialize, Serialize};
use sygraph_algos::{Algo, Values};
use sygraph_core::graph::CsrHost;
use sygraph_core::types::VertexId;
use sygraph_sim::{Queue, SimResult};

/// The four evaluated algorithms (Figure 8 rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AlgoKind {
    Bc,
    Bfs,
    Cc,
    Sssp,
}

impl AlgoKind {
    pub fn all() -> [AlgoKind; 4] {
        [AlgoKind::Bc, AlgoKind::Bfs, AlgoKind::Cc, AlgoKind::Sssp]
    }

    pub fn name(&self) -> &'static str {
        match self {
            AlgoKind::Bc => "BC",
            AlgoKind::Bfs => "BFS",
            AlgoKind::Cc => "CC",
            AlgoKind::Sssp => "SSSP",
        }
    }

    /// The catalogue entry behind the row.
    pub fn algo(&self) -> Algo {
        match self {
            AlgoKind::Bc => Algo::Bc,
            AlgoKind::Bfs => Algo::Bfs,
            AlgoKind::Cc => Algo::Cc,
            AlgoKind::Sssp => Algo::Sssp,
        }
    }

    /// CC runs on the symmetrized graph and ignores the source.
    pub fn needs_undirected(&self) -> bool {
        self.algo().needs_undirected()
    }
}

/// One algorithm execution's outcome.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Modelled device time of the algorithm proper (ms) — the paper's
    /// "WOP" quantity.
    pub algo_ms: f64,
    /// Supersteps executed.
    pub iterations: u32,
    /// Per-vertex results for validation.
    pub values: Values,
}

/// A graph framework under evaluation.
pub trait Framework {
    /// Display name as used in the figures.
    fn name(&self) -> &'static str;

    /// Uploads `host` and performs any one-time preprocessing
    /// (Tigr's UDT, SEP-Graph's statistics/CSC). Must be called before
    /// [`Framework::run`].
    fn prepare(&mut self, q: &Queue, host: &CsrHost) -> SimResult<()>;

    /// One-time preprocessing cost in ms (0 for SYgraph and Gunrock,
    /// per Table 1). The paper's "WPP" adds this to `algo_ms`.
    fn prep_ms(&self) -> f64;

    /// Runs `algo` from `src` (ignored by CC).
    fn run(&mut self, q: &Queue, algo: AlgoKind, src: VertexId) -> SimResult<RunRecord>;
}

/// Validates a framework's output against the host references.
pub fn validate_against_reference(
    host: &CsrHost,
    algo: AlgoKind,
    src: VertexId,
    got: &Values,
) -> Result<(), String> {
    use sygraph_algos::reference;
    match (algo, got) {
        (AlgoKind::Bfs, Values::U32(d)) => {
            let want = reference::bfs(host, src);
            (d == &want)
                .then_some(())
                .ok_or_else(|| "BFS distances mismatch".into())
        }
        (AlgoKind::Cc, Values::U32(l)) => {
            let want = reference::connected_components(host);
            (l == &want)
                .then_some(())
                .ok_or_else(|| "CC labels mismatch".into())
        }
        (AlgoKind::Sssp, Values::F32(d)) => {
            let want = reference::dijkstra(host, src);
            for (v, (a, b)) in d.iter().zip(want.iter()).enumerate() {
                let ok = (a.is_infinite() && b.is_infinite()) || (a - b).abs() < 1e-3;
                if !ok {
                    return Err(format!("SSSP mismatch at {v}: {a} vs {b}"));
                }
            }
            Ok(())
        }
        (AlgoKind::Bc, Values::F32(d)) => {
            let want = reference::betweenness_from(host, src);
            for (v, (a, b)) in d.iter().zip(want.iter()).enumerate() {
                if (a - b).abs() > 1e-2 * (1.0 + b.abs()) {
                    return Err(format!("BC mismatch at {v}: {a} vs {b}"));
                }
            }
            Ok(())
        }
        _ => Err("value type does not match algorithm".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn algo_kind_metadata() {
        assert_eq!(AlgoKind::all().len(), 4);
        assert!(AlgoKind::Cc.needs_undirected());
        assert!(!AlgoKind::Bfs.needs_undirected());
        assert_eq!(AlgoKind::Sssp.name(), "SSSP");
    }
}
