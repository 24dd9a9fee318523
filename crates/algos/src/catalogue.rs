//! The algorithm catalogue: what each single-run algorithm is called,
//! what it needs from its caller, what it returns and how far two runs
//! of it may differ, declared once. The CLI, the service, the benches,
//! the comparison harness and the fault tests all dispatch through
//! [`Algo::run`] and read the same table; an algorithm added here is
//! added everywhere.

use serde::Serialize;
use sygraph_core::graph::Graph;
use sygraph_core::inspector::OptConfig;
use sygraph_core::types::VertexId;
use sygraph_sim::{Queue, SimResult};

use crate::common::AlgoResult;
use crate::determinism::Determinism;
use crate::{bc, bfs, cc, delta, dobfs, kcore, pagerank, sssp, triangles};

/// The single-run algorithms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algo {
    Bfs,
    Sssp,
    Cc,
    Bc,
    Pagerank,
    Dobfs,
    Delta,
    Triangles,
    Kcore,
}

impl Algo {
    /// Every algorithm, in the order the CLI's usage text lists them.
    pub const ALL: [Algo; 9] = [
        Algo::Bfs,
        Algo::Sssp,
        Algo::Cc,
        Algo::Bc,
        Algo::Pagerank,
        Algo::Dobfs,
        Algo::Delta,
        Algo::Triangles,
        Algo::Kcore,
    ];

    /// The algorithm with wire name `name` (a [`label`](Algo::label), or
    /// one of the aliases `delta-sssp` and `pr`).
    pub fn parse(name: &str) -> Option<Algo> {
        match name {
            "delta-sssp" => Some(Algo::Delta),
            "pr" => Some(Algo::Pagerank),
            _ => Algo::ALL.into_iter().find(|a| a.label() == name),
        }
    }

    /// Canonical wire name.
    pub fn label(self) -> &'static str {
        match self {
            Algo::Bfs => "bfs",
            Algo::Sssp => "sssp",
            Algo::Cc => "cc",
            Algo::Bc => "bc",
            Algo::Pagerank => "pagerank",
            Algo::Dobfs => "dobfs",
            Algo::Delta => "delta",
            Algo::Triangles => "triangles",
            Algo::Kcore => "kcore",
        }
    }

    /// The labels of `algos` joined by `|`, as usage and error texts list
    /// them.
    pub fn labels(algos: &[Algo]) -> String {
        let labels: Vec<&str> = algos.iter().map(|a| a.label()).collect();
        labels.join("|")
    }

    /// Whether the algorithm is rooted: it reads [`Args::source`], which
    /// must then be a vertex of the graph.
    pub fn needs_source(self) -> bool {
        matches!(
            self,
            Algo::Bfs | Algo::Sssp | Algo::Bc | Algo::Dobfs | Algo::Delta
        )
    }

    /// Whether the input must be symmetric for the result to mean what
    /// the algorithm's name says.
    pub fn needs_undirected(self) -> bool {
        matches!(self, Algo::Cc | Algo::Triangles | Algo::Kcore)
    }

    /// Whether the graph must carry a pull (CSC) view
    /// ([`Graph::with_pull`]); the others run on any graph and use the
    /// view when it is there and `opts.direction` allows.
    pub fn needs_pull(self) -> bool {
        matches!(self, Algo::Dobfs)
    }

    /// How far two runs on the same input may differ. BC and PageRank
    /// accumulate with `fetch_add_f32`, whose summation order follows
    /// the workgroup and host-thread schedule; the others are
    /// min-combine or level-stamp fixpoints and integer counts, which no
    /// order can change.
    pub fn determinism(self) -> Determinism {
        match self {
            Algo::Bc | Algo::Pagerank => Determinism::Tolerance(1e-4),
            _ => Determinism::BitExact,
        }
    }

    /// Whether [`crate::partitioned`] has a multi-device driver for it.
    pub fn has_partitioned_driver(self) -> bool {
        matches!(self, Algo::Bfs | Algo::Sssp | Algo::Cc)
    }

    /// Whether [`crate::multi`] has a W-lane kernel whose lanes are
    /// bit-identical to rooted runs of it (`bc_multi` is not: it is
    /// tolerance-class like `bc`).
    pub fn has_lane_kernel(self) -> bool {
        matches!(self, Algo::Bfs)
    }

    /// Runs the algorithm's entry point. BFS, CC and DOBFS see the whole
    /// graph, so a pull view takes part when `opts.direction` allows;
    /// the rest run on the push (CSR) view.
    pub fn run(self, q: &Queue, g: &Graph, args: Args, opts: &OptConfig) -> SimResult<Output> {
        let Args { source, delta } = args;
        Ok(match self {
            Algo::Bfs => bfs::run(q, g, source, opts)?.into(),
            Algo::Sssp => sssp::run(q, &g.csr, source, opts)?.into(),
            Algo::Cc => cc::run(q, g, opts)?.into(),
            Algo::Bc => bc::run(q, &g.csr, source, opts)?.into(),
            Algo::Pagerank => pagerank::run(q, &g.csr, opts, Default::default())?.into(),
            Algo::Dobfs => dobfs::run(q, g, source, opts)?.into(),
            Algo::Delta => delta::run(q, &g.csr, source, opts, delta)?.into(),
            Algo::Triangles => triangles::run(q, &g.csr, opts)?.into(),
            Algo::Kcore => kcore::run(q, &g.csr, delta as u32, opts)?.into(),
        })
    }
}

impl std::fmt::Display for Algo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The union of what the entry points take beside the graph and the
/// options; each reads the fields it needs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Args {
    /// Source vertex of a rooted algorithm.
    pub source: VertexId,
    /// Bucket width Δ of `delta`; `kcore` peels to its integer part.
    pub delta: f32,
}

impl Default for Args {
    /// Vertex 0 and Δ = 2, the CLI's and the service's defaults.
    fn default() -> Self {
        Args {
            source: 0,
            delta: 2.0,
        }
    }
}

impl Args {
    /// The defaults, rooted at `source`.
    pub fn rooted(source: VertexId) -> Self {
        Args {
            source,
            ..Args::default()
        }
    }
}

/// Per-vertex values of a run, in whichever element type the algorithm
/// produces.
#[derive(Debug, Clone, PartialEq)]
pub enum Values {
    U32(Vec<u32>),
    F32(Vec<f32>),
}

impl Values {
    pub fn len(&self) -> usize {
        match self {
            Values::U32(v) => v.len(),
            Values::F32(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Exact bit-level equality (distinguishes NaN payloads and signed
    /// zeros, unlike `PartialEq` on floats).
    pub fn bits_eq(&self, other: &Values) -> bool {
        self.agrees(other, Determinism::BitExact)
    }

    /// Whether `other` is an acceptable re-run of `self` under `class`
    /// (see [`Determinism::agrees_f32`]).
    pub fn agrees(&self, other: &Values, class: Determinism) -> bool {
        match (self, other) {
            (Values::U32(a), Values::U32(b)) => class.agrees_u32(a, b),
            (Values::F32(a), Values::F32(b)) => class.agrees_f32(a, b),
            _ => false,
        }
    }
}

impl From<Vec<u32>> for Values {
    fn from(v: Vec<u32>) -> Self {
        Values::U32(v)
    }
}

impl From<Vec<f32>> for Values {
    fn from(v: Vec<f32>) -> Self {
        Values::F32(v)
    }
}

// Hand-written so the wire shape is a flat array (the CLI's and the
// service's `"values": [...]`), not the derive's `{"U32": [...]}` tagging.
impl Serialize for Values {
    fn serialize_value(&self) -> serde::Value {
        match self {
            Values::U32(v) => v.serialize_value(),
            Values::F32(v) => v.serialize_value(),
        }
    }
}

/// What [`Algo::run`] returns: an [`AlgoResult`] with the element type
/// folded into [`Values`].
#[derive(Debug, Clone)]
pub struct Output {
    pub values: Values,
    /// Supersteps executed.
    pub iterations: u32,
    /// Modelled device time of the run, in milliseconds.
    pub sim_ms: f64,
}

impl<T> From<AlgoResult<T>> for Output
where
    Values: From<Vec<T>>,
{
    fn from(r: AlgoResult<T>) -> Self {
        Output {
            values: r.values.into(),
            iterations: r.iterations,
            sim_ms: r.sim_ms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use sygraph_core::graph::CsrHost;
    use sygraph_sim::{Device, DeviceProfile};

    #[test]
    fn names_round_trip_and_aliases_parse() {
        for algo in Algo::ALL {
            assert_eq!(Algo::parse(algo.label()), Some(algo));
        }
        assert_eq!(Algo::parse("delta-sssp"), Some(Algo::Delta));
        assert_eq!(Algo::parse("pr"), Some(Algo::Pagerank));
        assert_eq!(Algo::parse("tarjan"), None);
        assert_eq!(
            Algo::labels(&Algo::ALL),
            "bfs|sssp|cc|bc|pagerank|dobfs|delta|triangles|kcore"
        );
    }

    #[test]
    fn tolerance_is_relative_to_the_largest_finite_value() {
        let class = Determinism::Tolerance(1e-4);
        let a = Values::F32(vec![1000.0, 1.0, f32::INFINITY]);
        let near = Values::F32(vec![1000.05, 1.05, f32::INFINITY]);
        let far = Values::F32(vec![1000.2, 1.0, f32::INFINITY]);
        let finite = Values::F32(vec![1000.0, 1.0, f32::MAX]);
        assert!(a.agrees(&near, class), "0.05 is within 1e-4 of 1000");
        assert!(!a.agrees(&far, class));
        assert!(!a.agrees(&finite, class), "an infinity matches only itself");
        assert!(!a.agrees(&near, Determinism::BitExact));
        assert!(a.agrees(&a.clone(), Determinism::BitExact));
    }

    #[test]
    fn float_bit_identity_is_stricter_than_eq() {
        let a = Values::F32(vec![0.0]);
        let b = Values::F32(vec![-0.0]);
        assert_eq!(a, b); // IEEE equality
        assert!(!a.bits_eq(&b)); // bit identity
    }

    /// Two triangles sharing vertex 2, a tail 4-5-6 and an isolated 7,
    /// symmetric, with distinct weights.
    fn small_graph() -> CsrHost {
        let edges = [
            (0, 1),
            (1, 2),
            (2, 0),
            (2, 3),
            (3, 4),
            (4, 2),
            (4, 5),
            (5, 6),
        ];
        let weights: Vec<f32> = (0..edges.len()).map(|i| 1.0 + i as f32 * 0.5).collect();
        CsrHost::from_edges_weighted(8, &edges, Some(&weights))
            .to_undirected()
            .unwrap()
    }

    fn device_graph(host: &CsrHost) -> (Queue, Graph) {
        let q = Queue::new(Device::new(DeviceProfile::host_test()));
        let g = Graph::with_pull(&q, host).unwrap();
        (q, g)
    }

    /// The entry point `algo`'s arm of [`Algo::run`] names, called by
    /// hand.
    fn direct(algo: Algo, q: &Queue, g: &Graph, args: Args, opts: &OptConfig) -> Values {
        let Args { source, delta } = args;
        match algo {
            Algo::Bfs => bfs::run(q, g, source, opts).unwrap().values.into(),
            Algo::Sssp => sssp::run(q, &g.csr, source, opts).unwrap().values.into(),
            Algo::Cc => cc::run(q, g, opts).unwrap().values.into(),
            Algo::Bc => bc::run(q, &g.csr, source, opts).unwrap().values.into(),
            Algo::Pagerank => pagerank::run(q, &g.csr, opts, Default::default())
                .unwrap()
                .values
                .into(),
            Algo::Dobfs => dobfs::run(q, g, source, opts).unwrap().values.into(),
            Algo::Delta => delta::run(q, &g.csr, source, opts, delta)
                .unwrap()
                .values
                .into(),
            Algo::Triangles => triangles::run(q, &g.csr, opts).unwrap().values.into(),
            Algo::Kcore => kcore::run(q, &g.csr, delta as u32, opts)
                .unwrap()
                .values
                .into(),
        }
    }

    #[test]
    fn every_entry_runs_its_entry_point_and_matches_the_reference() {
        let host = small_graph();
        let opts = OptConfig::all();
        let args = Args::rooted(1);
        for algo in Algo::ALL {
            let (q, g) = device_graph(&host);
            let got = algo.run(&q, &g, args, &opts).unwrap();
            let (q, g) = device_graph(&host);
            let by_hand = direct(algo, &q, &g, args, &opts);
            // Eight vertices fit one workgroup, which one host thread
            // runs lane by lane, so even the tolerance-class sums repeat
            // bit for bit.
            assert!(got.values.bits_eq(&by_hand), "{algo}: catalogue vs direct");

            let want: Values = match algo {
                Algo::Bfs | Algo::Dobfs => reference::bfs(&host, 1).into(),
                Algo::Sssp | Algo::Delta => reference::dijkstra(&host, 1).into(),
                Algo::Cc => reference::connected_components(&host).into(),
                Algo::Bc => reference::betweenness_from(&host, 1).into(),
                Algo::Pagerank => reference::pagerank(&host, 0.85, 100).into(),
                Algo::Triangles => vec![1, 1, 2, 1, 1, 0, 0, 0].into(),
                Algo::Kcore => kcore::reference(&host, 2).into(),
            };
            assert!(
                want.agrees(&got.values, algo.determinism()),
                "{algo}: {got:?} vs {want:?}"
            );
        }
    }
}
