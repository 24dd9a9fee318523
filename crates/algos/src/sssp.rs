//! Single-Source Shortest Path via Bellman-Ford (§3.4): the advance phase
//! resembles BFS, relaxing distances with an atomic min; vertices whose
//! distance improved re-enter the frontier. The paper's SSSP deliberately
//! omits Δ-stepping — that optimization lives in [`crate::delta`].

use sygraph_core::engine::{retry, CheckpointState, StepAdvance, SuperstepEngine, NO_COMPUTE};
use sygraph_core::frontier::Word;
use sygraph_core::graph::{DeviceCsr, DeviceGraphView};
use sygraph_core::inspector::{OptConfig, Tuning};
use sygraph_core::types::{EdgeId, VertexId, Weight, INF_WEIGHT};
use sygraph_sim::{DeviceBuffer, ItemCtx, Queue, SimResult};

use crate::common::{make_frontier, AlgoResult};
use crate::dispatch_by_word;

/// Runs Bellman-Ford SSSP from `src`, returning weighted distances
/// (unreached = `f32::INFINITY`). Unweighted graphs use unit weights.
pub fn run(
    q: &Queue,
    g: &DeviceCsr,
    src: VertexId,
    opts: &OptConfig,
) -> SimResult<AlgoResult<f32>> {
    dispatch_by_word!(q, opts, g.vertex_count(), run_impl(q, g, src, opts))
}

/// The Bellman-Ford relaxation over the distance buffer `dist`, as an
/// advance functor: accept `v` when the edge improved its distance.
///
/// `dist[u]` is read atomically: other lanes may be relaxing u's own
/// distance (fetch_min) in this same launch. A stale read only delays
/// convergence by a superstep; it never corrupts a distance.
pub fn relax(dist: &DeviceBuffer<f32>) -> impl StepAdvance + '_ {
    move |l: &mut ItemCtx<'_>, _iter: u32, u: VertexId, v: VertexId, _e: EdgeId, w: Weight| {
        let du = l.load_atomic(dist, u as usize);
        let nd = du + w;
        let old = l.fetch_min_f32(dist, v as usize, nd);
        nd < old
    }
}

fn run_impl<W: Word>(
    q: &Queue,
    g: &DeviceCsr,
    src: VertexId,
    opts: &OptConfig,
    tuning: &Tuning,
) -> SimResult<AlgoResult<f32>> {
    let n = g.vertex_count();
    assert!((src as usize) < n, "source out of range");
    let t0 = q.now_ns();

    let dist = q.malloc_device::<f32>(n)?;
    let fin = make_frontier::<W>(q, n, opts)?;
    let fout = make_frontier::<W>(q, n, opts)?;
    retry(q, &opts.recovery, || {
        q.fill(&dist, INF_WEIGHT);
        dist.store(src as usize, 0.0);
        fin.insert_host(src);
    })?;

    // The relaxation lives entirely in the advance functor — no compute
    // phase, so fusion has nothing to add.
    let ckpt: [&dyn CheckpointState; 1] = [&dist];
    let mut engine = SuperstepEngine::new(q, g, *tuning, fin, fout)
        .mark_prefix("sssp_iter")
        .max_iters(
            n + 1,
            "Bellman-Ford exceeded |V| iterations (negative cycle?)",
        )
        .checkpoint_state(&ckpt);
    let iterations = engine.run(relax(&dist), NO_COMPUTE)?;

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
    use sygraph_core::graph::CsrHost;
    use sygraph_sim::{Device, DeviceProfile};

    fn queue() -> Queue {
        Queue::new(Device::new(DeviceProfile::host_test()))
    }

    fn check(host: &CsrHost, src: u32) {
        let q = queue();
        let g = DeviceCsr::upload(&q, host).unwrap();
        let got = run(&q, &g, src, &OptConfig::all()).unwrap();
        let want = reference::dijkstra(host, src);
        for (v, (a, b)) in got.values.iter().zip(want.iter()).enumerate() {
            if b.is_infinite() {
                assert!(a.is_infinite(), "vertex {v}: {a} vs inf");
            } else {
                assert!((a - b).abs() < 1e-4, "vertex {v}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn weighted_shortcut_beats_direct_edge() {
        let host = CsrHost::from_edges_weighted(
            4,
            &[(0, 1), (0, 2), (2, 1), (1, 3)],
            Some(&[10.0, 1.0, 2.0, 1.0]),
        );
        check(&host, 0);
    }

    #[test]
    fn unweighted_matches_bfs_hops() {
        let q = queue();
        let host = CsrHost::from_edges(5, &[(0, 1), (1, 2), (2, 3), (0, 4)]);
        let g = DeviceCsr::upload(&q, &host).unwrap();
        let got = run(&q, &g, 0, &OptConfig::all()).unwrap();
        assert_eq!(got.values, vec![0.0, 1.0, 2.0, 3.0, 1.0]);
    }

    #[test]
    fn random_weighted_matches_dijkstra() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(7);
        let n = 200u32;
        let edges: Vec<(u32, u32)> = (0..1200)
            .map(|_| (rng.random_range(0..n), rng.random_range(0..n)))
            .collect();
        let weights: Vec<f32> = (0..1200).map(|_| rng.random_range(0.1..10.0f32)).collect();
        let host = CsrHost::from_edges_weighted(n as usize, &edges, Some(&weights));
        check(&host, 0);
        check(&host, 99);
    }

    #[test]
    fn plain_bitmap_layout_agrees() {
        let host = CsrHost::from_edges_weighted(
            4,
            &[(0, 1), (0, 2), (2, 3), (1, 3)],
            Some(&[4.0, 1.0, 1.0, 1.0]),
        );
        let q = queue();
        let g = DeviceCsr::upload(&q, &host).unwrap();
        let a = run(&q, &g, 0, &OptConfig::all()).unwrap();
        let b = run(&q, &g, 0, &OptConfig::baseline()).unwrap();
        assert_eq!(a.values, b.values);
        assert_eq!(a.values, vec![0.0, 4.0, 1.0, 2.0]);
    }
}
