//! Direction-Optimizing BFS (Beamer et al.), the push/pull hybrid the
//! paper notes is possible atop SYgraph (§3.4: "it is also possible to
//! use both push and pull techniques as per Beamer et al.").
//!
//! Since direction optimization moved into the [`SuperstepEngine`]
//! (`Tuning::direction` plus the engine-maintained
//! unvisited set), this module is a thin preset over [`crate::bfs`]: it
//! checks the graph carries a pull (CSC) view, defaults the direction
//! policy to `Auto`, and runs the ordinary BFS engine cycle — the engine
//! decides per superstep whether to push (frontier scans out-edges) or
//! pull (unvisited candidates scan in-edges, adopting on first parent).
//!
//! [`SuperstepEngine`]: sygraph_core::engine::SuperstepEngine

use sygraph_core::graph::{DeviceGraphView, Graph};
use sygraph_core::inspector::{Direction, OptConfig};
use sygraph_core::types::VertexId;
use sygraph_sim::{Queue, SimError, SimResult};

use crate::bfs::engine_run;
use crate::common::AlgoResult;
use crate::dispatch_by_word;

/// Runs direction-optimizing BFS from `src`. The graph must carry a pull
/// (CSC) view — build it with [`Graph::with_pull`] — otherwise a typed
/// [`SimError::Unsupported`] is returned (no assert).
///
/// The preset honours `opts.direction` when it already enables pull
/// (`Auto`/`Pull`) and upgrades an explicit `Push` to `Auto`: asking for
/// direction-*optimizing* BFS opts into the hybrid.
pub fn run(q: &Queue, g: &Graph, src: VertexId, opts: &OptConfig) -> SimResult<AlgoResult<u32>> {
    if !g.supports_pull() {
        return Err(SimError::Unsupported(
            "direction-optimizing BFS needs a pull (CSC) view; build the \
             graph with Graph::with_pull"
                .into(),
        ));
    }
    let mut opts = *opts;
    if opts.direction == Direction::Push {
        opts.direction = Direction::Auto;
    }
    // Fused distance stamp, as the hand-rolled version always ran.
    dispatch_by_word!(
        q,
        &opts,
        g.vertex_count(),
        engine_run::<Graph>(q, g, src, &opts, true, "dobfs_iter")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use sygraph_core::graph::CsrHost;
    use sygraph_sim::{Device, DeviceProfile};

    fn queue() -> Queue {
        Queue::new(Device::new(DeviceProfile::host_test()))
    }

    fn random_host(seed: u64, n: u32, m: usize) -> CsrHost {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(seed);
        let edges: Vec<(u32, u32)> = (0..m)
            .map(|_| (rng.random_range(0..n), rng.random_range(0..n)))
            .collect();
        CsrHost::from_edges(n as usize, &edges)
    }

    #[test]
    fn auto_preset_switches_and_matches_reference() {
        // A hub-heavy random graph explodes by superstep 2: the preset's
        // Auto upgrade must actually take the pull path (visible in the
        // trace) and still match the host reference. Forced Pull/Auto ×
        // rep × dataset bit-identity lives in tests/direction_properties.
        let host = random_host(7, 300, 4000);
        let q = queue();
        let g = Graph::with_pull(&q, &host).unwrap();
        let got = run(&q, &g, 0, &OptConfig::all()).unwrap();
        assert_eq!(got.values, reference::bfs(&host, 0));
        let dirs = q.profiler().direction_events();
        for want in ["push", "pull"] {
            assert!(dirs.iter().any(|e| e.direction == want), "no {want}");
        }
    }

    #[test]
    fn missing_pull_view_is_a_typed_error() {
        let host = CsrHost::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let q = queue();
        let g = Graph::new(&q, &host).unwrap();
        let err = run(&q, &g, 0, &OptConfig::all()).unwrap_err();
        assert!(matches!(err, SimError::Unsupported(_)), "got {err:?}");
    }
}
