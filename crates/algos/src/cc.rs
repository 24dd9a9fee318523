//! Connected Components via label propagation (§3.4, after Stergiou et
//! al.): every vertex starts with its own id as label and pushes the
//! minimum along edges until no label changes. The input must be
//! symmetric (undirected) for component semantics; use
//! [`sygraph_core::graph::CsrHost::to_undirected`] first if needed.

use sygraph_core::engine::{retry, CheckpointState, StepAdvance, SuperstepEngine, NO_COMPUTE};
use sygraph_core::frontier::{BitmapLike, Word};
use sygraph_core::graph::DeviceGraphView;
use sygraph_core::inspector::{OptConfig, Tuning};
use sygraph_core::types::{EdgeId, VertexId, Weight};
use sygraph_sim::{DeviceBuffer, ItemCtx, Queue, SimResult};

use crate::common::{make_frontier, AlgoResult};
use crate::dispatch_by_word;

/// Runs label-propagation CC; returns per-vertex component labels
/// (the minimum vertex id of each component).
///
/// On a graph with a pull (CSC) view, the engine may run wide supersteps
/// in the pull direction under the default
/// [`PullCandidates::AllVertices`](sygraph_core::engine::PullCandidates)
/// scope — safe here because the functor sees exactly the push edge set
/// (CC inputs are symmetric, so CSC enumerates the same edges as CSR).
pub fn run<G: DeviceGraphView + ?Sized>(
    q: &Queue,
    g: &G,
    opts: &OptConfig,
) -> SimResult<AlgoResult<u32>> {
    dispatch_by_word!(q, opts, g.vertex_count(), run_impl::<G>(q, g, opts, false))
}

/// Label propagation with Stergiou-style *shortcutting*: after each
/// propagation superstep, a `compute` pass replaces every label by its
/// label's label (`l[v] ← l[l[v]]`), collapsing label chains so minima
/// travel exponentially fast. On high-diameter graphs this cuts the
/// superstep count from O(diameter) to roughly O(log diameter) rounds of
/// useful work (the paper's CC follows Stergiou et al., which is built
/// on exactly this idea).
pub fn run_shortcutting<G: DeviceGraphView + ?Sized>(
    q: &Queue,
    g: &G,
    opts: &OptConfig,
) -> SimResult<AlgoResult<u32>> {
    dispatch_by_word!(q, opts, g.vertex_count(), run_impl::<G>(q, g, opts, true))
}

/// Label propagation over `labels`, as an advance functor: push the
/// source's label along the edge and accept `v` when it lowered `v`'s.
///
/// `labels[u]` is read atomically: neighbours may be lowering it via
/// fetch_min in this same launch; a stale value only costs an extra
/// superstep of propagation.
pub fn propagate_min(labels: &DeviceBuffer<u32>) -> impl StepAdvance + '_ {
    move |l: &mut ItemCtx<'_>, _iter: u32, u: VertexId, v: VertexId, _e: EdgeId, _w: Weight| {
        let lu = l.load_atomic(labels, u as usize);
        let old = l.fetch_min(labels, v as usize, lu);
        lu < old
    }
}

/// The body of [`run`] and, with `shortcut`, of [`run_shortcutting`]: the
/// two differ in the post-step hook and the marker prefix.
fn run_impl<W: Word, G: DeviceGraphView + ?Sized>(
    q: &Queue,
    g: &G,
    opts: &OptConfig,
    shortcut: bool,
    tuning: &Tuning,
) -> SimResult<AlgoResult<u32>> {
    let n = g.vertex_count();
    let t0 = q.now_ns();

    let labels = q.malloc_device::<u32>(n)?;
    let fin = make_frontier::<W>(q, n, opts)?;
    let fout = make_frontier::<W>(q, n, opts)?;
    // Every vertex starts by distributing its label to its neighbors.
    retry(q, &opts.recovery, || {
        q.parallel_for("cc_init", n, |l, v| {
            l.store(&labels, v, v as u32);
        });
        fin.fill_all(q);
    })?;

    let (mark_prefix, diverge_msg) = if shortcut {
        ("ccs_iter", "shortcutting CC diverged")
    } else {
        ("cc_iter", "CC failed to converge")
    };
    // Shortcut pass (post-step hook): chase label chains to their root
    // (pointer jumping, as in union-find's find). A change re-activates
    // the vertex so the shortened label keeps propagating.
    // All labels[] traffic in the shortcut pass is atomic: lanes chase
    // chains through cells other lanes are rewriting in the same launch.
    // A racing write only ever replaces a label with a smaller one from
    // the same chain, so any interleaving converges to the same roots.
    let shortcut_pass = |q: &Queue, _iter: u32, out: &dyn BitmapLike<W>| {
        q.parallel_for("cc_shortcut", n, |l, v| {
            let start = l.load_atomic(&labels, v);
            let mut root = start;
            loop {
                let next = l.load_atomic(&labels, root as usize);
                if next >= root {
                    break;
                }
                root = next;
                l.compute(2);
            }
            if root < start {
                l.store_atomic(&labels, v, root);
                out.insert_lane(l, v as u32);
            }
        });
    };
    let ckpt: [&dyn CheckpointState; 1] = [&labels];
    let mut engine = SuperstepEngine::new(q, g, *tuning, fin, fout)
        .mark_prefix(mark_prefix)
        .max_iters(n + 1, diverge_msg)
        .checkpoint_state(&ckpt);
    if shortcut {
        engine = engine.post_step(&shortcut_pass);
    }
    let iterations = engine.run(propagate_min(&labels), NO_COMPUTE)?;

    Ok(AlgoResult {
        values: labels.to_vec(),
        iterations,
        sim_ms: (q.now_ns() - t0) / 1e6,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use sygraph_core::graph::{CsrHost, DeviceCsr};
    use sygraph_sim::{Device, DeviceProfile};

    fn queue() -> Queue {
        Queue::new(Device::new(DeviceProfile::host_test()))
    }

    fn check(host: &CsrHost) {
        let q = queue();
        let g = DeviceCsr::upload(&q, host).unwrap();
        let got = run(&q, &g, &OptConfig::all()).unwrap();
        assert_eq!(got.values, reference::connected_components(host));
    }

    #[test]
    fn two_components_and_isolated() {
        // {0,1,2} u {3,4}, 5 isolated
        let host = CsrHost::from_edges(6, &[(0, 1), (1, 2), (3, 4)])
            .to_undirected()
            .unwrap();
        check(&host);
    }

    #[test]
    fn single_chain() {
        let edges: Vec<(u32, u32)> = (0..19).map(|v| (v, v + 1)).collect();
        let host = CsrHost::from_edges(20, &edges).to_undirected().unwrap();
        let q = queue();
        let g = DeviceCsr::upload(&q, &host).unwrap();
        let got = run(&q, &g, &OptConfig::all()).unwrap();
        assert!(got.values.iter().all(|&l| l == 0), "one component");
    }

    #[test]
    fn random_graph_matches_union_find() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(11);
        let n = 400u32;
        // sparse: expect several components
        let edges: Vec<(u32, u32)> = (0..300)
            .map(|_| (rng.random_range(0..n), rng.random_range(0..n)))
            .collect();
        let host = CsrHost::from_edges(n as usize, &edges)
            .to_undirected()
            .unwrap();
        check(&host);
    }

    #[test]
    fn shortcutting_matches_plain_cc_with_fewer_iterations() {
        // A chain whose vertex ids are shuffled, so min-labels cannot ride
        // the simulator's ascending word sweep: plain label propagation
        // needs many supersteps, shortcutting collapses the chains.
        use rand::prelude::*;
        let n = 256u32;
        let mut perm: Vec<u32> = (0..n).collect();
        perm.shuffle(&mut StdRng::seed_from_u64(4));
        let edges: Vec<(u32, u32)> = (0..n as usize - 1)
            .map(|i| (perm[i], perm[i + 1]))
            .collect();
        let host = CsrHost::from_edges(n as usize, &edges)
            .to_undirected()
            .unwrap();
        let q = queue();
        let g = DeviceCsr::upload(&q, &host).unwrap();
        let plain = run(&q, &g, &OptConfig::all()).unwrap();
        let short = run_shortcutting(&q, &g, &OptConfig::all()).unwrap();
        assert_eq!(plain.values, short.values);
        assert_eq!(short.values, reference::connected_components(&host));
        assert!(
            short.iterations < plain.iterations,
            "shortcutting {} vs plain {} supersteps",
            short.iterations,
            plain.iterations
        );
    }

    #[test]
    fn shortcutting_correct_on_random_graph() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(23);
        let n = 300u32;
        let edges: Vec<(u32, u32)> = (0..250)
            .map(|_| (rng.random_range(0..n), rng.random_range(0..n)))
            .collect();
        let host = CsrHost::from_edges(n as usize, &edges)
            .to_undirected()
            .unwrap();
        let q = queue();
        let g = DeviceCsr::upload(&q, &host).unwrap();
        let got = run_shortcutting(&q, &g, &OptConfig::all()).unwrap();
        assert_eq!(got.values, reference::connected_components(&host));
    }

    #[test]
    fn all_layouts_agree() {
        let host = CsrHost::from_edges(8, &[(0, 1), (2, 3), (4, 5), (5, 6)])
            .to_undirected()
            .unwrap();
        let q = queue();
        let g = DeviceCsr::upload(&q, &host).unwrap();
        let a = run(&q, &g, &OptConfig::all()).unwrap();
        let b = run(&q, &g, &OptConfig::baseline()).unwrap();
        assert_eq!(a.values, b.values);
    }
}
