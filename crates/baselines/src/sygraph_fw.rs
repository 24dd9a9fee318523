//! SYgraph itself, wrapped in the common [`Framework`] harness.
//! No preprocessing, no post-processing (Table 1).

use sygraph_algos::Args;
use sygraph_core::graph::{CsrHost, Graph};
use sygraph_core::inspector::OptConfig;
use sygraph_core::types::VertexId;
use sygraph_sim::{Queue, SimResult};

use crate::harness::{AlgoKind, Framework, RunRecord};

/// SYgraph under the harness.
pub struct SygraphFramework {
    opts: OptConfig,
    graph: Option<Graph>,
}

impl SygraphFramework {
    pub fn new(opts: OptConfig) -> Self {
        SygraphFramework { opts, graph: None }
    }

    fn graph(&self) -> &Graph {
        self.graph.as_ref().expect("prepare() not called")
    }
}

impl Default for SygraphFramework {
    fn default() -> Self {
        Self::new(OptConfig::all())
    }
}

impl Framework for SygraphFramework {
    fn name(&self) -> &'static str {
        "SYgraph"
    }

    fn prepare(&mut self, q: &Queue, host: &CsrHost) -> SimResult<()> {
        self.graph = Some(Graph::new(q, host)?);
        Ok(())
    }

    fn prep_ms(&self) -> f64 {
        0.0
    }

    fn run(&mut self, q: &Queue, algo: AlgoKind, src: VertexId) -> SimResult<RunRecord> {
        let args = Args::rooted(src);
        let r = algo.algo().run(q, self.graph(), args, &self.opts)?;
        Ok(RunRecord {
            algo_ms: r.sim_ms,
            iterations: r.iterations,
            values: r.values,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::validate_against_reference;
    use sygraph_sim::{Device, DeviceProfile};

    #[test]
    fn all_algorithms_validate() {
        let host = CsrHost::from_edges_weighted(
            6,
            &[
                (0, 1),
                (1, 0),
                (1, 2),
                (2, 1),
                (2, 3),
                (3, 2),
                (4, 5),
                (5, 4),
            ],
            Some(&[1.0; 8]),
        );
        for algo in AlgoKind::all() {
            let q = Queue::new(Device::new(DeviceProfile::host_test()));
            let mut fw = SygraphFramework::default();
            fw.prepare(&q, &host).unwrap();
            let rec = fw.run(&q, algo, 0).unwrap();
            validate_against_reference(&host, algo, 0, &rec.values).unwrap();
            assert!(rec.algo_ms > 0.0);
        }
    }
}
