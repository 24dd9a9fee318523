//! Breadth-First Search, following the paper's Listing 1: an `advance`
//! expands the frontier through unvisited vertices, a `compute` stamps
//! their distances, then the frontiers swap — the cycle the
//! [`SuperstepEngine`] owns.
//!
//! Direction optimization (Beamer-style push/pull) belongs to the engine:
//! BFS merely registers the [`PullCandidates::Unvisited`] scope. On a
//! graph with a pull (CSC) view and a tuning whose `direction` policy
//! allows it, wide supersteps run bottom-up automatically; on a plain
//! [`DeviceCsr`](sygraph_core::graph::DeviceCsr) every superstep pushes,
//! exactly as before.

use sygraph_core::engine::{retry, CheckpointState, PullCandidates, StepAdvance, SuperstepEngine};
use sygraph_core::frontier::Word;
use sygraph_core::graph::DeviceGraphView;
use sygraph_core::inspector::{OptConfig, Tuning};
use sygraph_core::types::{EdgeId, VertexId, Weight, INF_DIST};
use sygraph_sim::{DeviceBuffer, ItemCtx, Queue, SimResult};

use crate::common::{make_frontier, AlgoResult};
use crate::dispatch_by_word;

/// Runs BFS from `src`, returning hop distances (unreached = `INF_DIST`).
/// The distance stamp runs as a separate `compute` pass per superstep.
pub fn run<G: DeviceGraphView + ?Sized>(
    q: &Queue,
    g: &G,
    src: VertexId,
    opts: &OptConfig,
) -> SimResult<AlgoResult<u32>> {
    dispatch_by_word!(
        q,
        opts,
        g.vertex_count(),
        engine_run::<G>(q, g, src, opts, false, "bfs_iter")
    )
}

/// Like [`run`], but fuses the distance stamp into the advance kernel:
/// one fewer kernel and host sync per superstep, bit-identical results.
pub fn run_fused<G: DeviceGraphView + ?Sized>(
    q: &Queue,
    g: &G,
    src: VertexId,
    opts: &OptConfig,
) -> SimResult<AlgoResult<u32>> {
    dispatch_by_word!(
        q,
        opts,
        g.vertex_count(),
        engine_run::<G>(q, g, src, opts, true, "bfs_iter")
    )
}

/// BFS's advance functor over the level buffer `dist`: keep unvisited
/// destinations (Listing 1 lines 9-13). A read-only membership test, so
/// pull supersteps may adopt on the first parent and early-exit.
///
/// Access to `dist` is atomic here and in [`stamp_level`]: in the fused
/// path the stamp runs in the same launch as this check, so lanes read
/// cells other lanes are writing. Racing lanes all write the same
/// `iter + 1` (a benign same-value race on real GPUs, made explicit).
pub fn unvisited(dist: &DeviceBuffer<u32>) -> impl StepAdvance + '_ {
    move |l: &mut ItemCtx<'_>, _iter: u32, _u: VertexId, v: VertexId, _e: EdgeId, _w: Weight| {
        l.load_atomic(dist, v as usize) == INF_DIST
    }
}

/// BFS's compute functor: stamp a newly reached vertex with its level
/// (Listing 1 lines 14-17).
pub fn stamp_level(
    dist: &DeviceBuffer<u32>,
) -> impl Fn(&mut ItemCtx<'_>, u32, VertexId) + Sync + '_ {
    move |l: &mut ItemCtx<'_>, iter: u32, v: VertexId| l.store_atomic(dist, v as usize, iter + 1)
}

/// The engine cycle shared by [`run`], [`run_fused`] and the
/// direction-optimizing preset ([`crate::dobfs`]): only the tuning (and
/// the marker prefix) differ between them.
pub(crate) fn engine_run<W: Word, G: DeviceGraphView + ?Sized>(
    q: &Queue,
    g: &G,
    src: VertexId,
    opts: &OptConfig,
    fused: bool,
    mark_prefix: &str,
    tuning: &Tuning,
) -> SimResult<AlgoResult<u32>> {
    let n = g.vertex_count();
    assert!((src as usize) < n, "source out of range");
    let t0 = q.now_ns();

    let dist = q.malloc_device::<u32>(n)?;
    let fin = make_frontier::<W>(q, n, opts)?;
    let fout = make_frontier::<W>(q, n, opts)?;
    retry(q, &opts.recovery, || {
        q.fill(&dist, INF_DIST);
        dist.store(src as usize, 0);
        fin.insert_host(src);
    })?;

    // The engine owns the swap/clear cycle and the single convergence
    // check per superstep. The distance buffer is BFS's whole recoverable
    // state: registering it lets DeviceLost recovery resume from the
    // engine's checkpoints.
    let ckpt: [&dyn CheckpointState; 1] = [&dist];
    // BFS visits each vertex once, so pull supersteps may run the Beamer
    // bottom-up scan over the unvisited set.
    let mut engine = SuperstepEngine::new(q, g, *tuning, fin, fout)
        .fused(fused)
        .mark_prefix(mark_prefix)
        .max_iters(n + 1, "BFS failed to converge")
        .pull_scope(PullCandidates::Unvisited)
        .checkpoint_state(&ckpt);
    let iterations = engine.run(unvisited(&dist), Some(&stamp_level(&dist)))?;

    Ok(AlgoResult {
        values: dist.to_vec(),
        iterations,
        sim_ms: (q.now_ns() - t0) / 1e6,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use sygraph_core::graph::{CsrHost, DeviceCsr};
    use sygraph_sim::{Device, DeviceProfile, TraceKind};

    fn queue() -> Queue {
        Queue::new(Device::new(DeviceProfile::host_test()))
    }

    fn check_against_reference(host: &CsrHost, src: u32, opts: &OptConfig) {
        let q = queue();
        let g = DeviceCsr::upload(&q, host).unwrap();
        let got = run(&q, &g, src, opts).unwrap();
        assert_eq!(got.values, reference::bfs(host, src));
        assert!(got.sim_ms > 0.0);
    }

    #[test]
    fn chain_graph_all_layouts() {
        let host = CsrHost::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
        for (_, opts) in OptConfig::ablation_suite() {
            check_against_reference(&host, 0, &opts);
        }
    }

    #[test]
    fn star_and_unreachable() {
        let host = CsrHost::from_edges(6, &[(0, 1), (0, 2), (0, 3), (4, 5)]);
        check_against_reference(&host, 0, &OptConfig::all());
    }

    #[test]
    fn iteration_count_equals_eccentricity_plus_one() {
        let q = queue();
        let host = CsrHost::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let g = DeviceCsr::upload(&q, &host).unwrap();
        let out = run(&q, &g, 0, &OptConfig::all()).unwrap();
        assert_eq!(out.iterations, 5, "4 expansion levels + final empty check");
        assert_eq!(out.values, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn random_graph_matches_reference() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(42);
        let n = 300;
        let edges: Vec<(u32, u32)> = (0..1500)
            .map(|_| (rng.random_range(0..n), rng.random_range(0..n)))
            .collect();
        let host = CsrHost::from_edges(n as usize, &edges);
        check_against_reference(&host, 0, &OptConfig::all());
        check_against_reference(&host, 17, &OptConfig::baseline());
    }

    #[test]
    fn fused_matches_unfused_bit_identically() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(99);
        let n = 250;
        let edges: Vec<(u32, u32)> = (0..1800)
            .map(|_| (rng.random_range(0..n), rng.random_range(0..n)))
            .collect();
        let host = CsrHost::from_edges(n as usize, &edges);
        let q = queue();
        let g = DeviceCsr::upload(&q, &host).unwrap();
        for (_, opts) in OptConfig::ablation_suite() {
            let a = run(&q, &g, 0, &opts).unwrap();
            let b = run_fused(&q, &g, 0, &opts).unwrap();
            assert_eq!(a.values, b.values);
            assert_eq!(a.iterations, b.iterations);
        }
    }

    #[test]
    fn fused_launches_strictly_fewer_kernels_per_superstep() {
        let q = queue();
        let edges: Vec<(u32, u32)> = (0..63).map(|v| (v, v + 1)).collect();
        let host = CsrHost::from_edges(64, &edges);
        let g = DeviceCsr::upload(&q, &host).unwrap();
        let k0 = q.profiler().kernel_count();
        let unfused = run(&q, &g, 0, &OptConfig::all()).unwrap();
        let k1 = q.profiler().kernel_count();
        let fused = run_fused(&q, &g, 0, &OptConfig::all()).unwrap();
        let k2 = q.profiler().kernel_count();
        assert_eq!(unfused.iterations, fused.iterations);
        let per_step_unfused = (k1 - k0) as f64 / unfused.iterations as f64;
        let per_step_fused = (k2 - k1) as f64 / fused.iterations as f64;
        assert!(
            per_step_fused < per_step_unfused,
            "fused {per_step_fused:.2} vs unfused {per_step_unfused:.2} kernels/superstep"
        );
    }

    #[test]
    fn profiler_markers_per_iteration() {
        let q = queue();
        let host = CsrHost::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let g = DeviceCsr::upload(&q, &host).unwrap();
        let out = run(&q, &g, 0, &OptConfig::all()).unwrap();
        // one marker per expansion plus the final empty-frontier check
        let marker = |k: &TraceKind| matches!(k, TraceKind::Mark(m) if m.starts_with("bfs_iter"));
        assert_eq!(q.profiler().count(marker) as u32, out.iterations + 1);
    }
}
