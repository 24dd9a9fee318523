//! PageRank on the SYgraph primitives — an extra workload demonstrating
//! API generality beyond the paper's four evaluation algorithms (its §3.1
//! motivates frontier operators with graph machine-learning uses).
//!
//! Push-style power iteration: an all-vertices `advance` scatters each
//! vertex's damped rank share to its successors, through the same
//! degree-balanced dispatch as a traversal's supersteps; dangling mass and
//! the teleport term are folded in by a `compute` pass; iteration stops
//! when the L1 delta drops below `tol` or after `max_iters` sweeps.

use sygraph_core::engine::{fixed_point, retry};
use sygraph_core::frontier::BucketPool;
use sygraph_core::graph::{DeviceCsr, DeviceGraphView};
use sygraph_core::inspector::{OptConfig, Tuning};
use sygraph_core::operators::advance::Advance;
use sygraph_sim::{full_mask, Queue, SimResult, MAX_SUBGROUP};

use crate::common::AlgoResult;
use crate::dispatch_by_word;

/// PageRank parameters.
#[derive(Debug, Clone, Copy)]
pub struct PagerankParams {
    pub damping: f32,
    pub max_iters: u32,
    /// Stop when the L1 rank change falls below this.
    pub tol: f32,
}

impl Default for PagerankParams {
    fn default() -> Self {
        PagerankParams {
            damping: 0.85,
            max_iters: 100,
            tol: 1e-6,
        }
    }
}

/// Runs PageRank; returns per-vertex ranks summing to ~1.
pub fn run(
    q: &Queue,
    g: &DeviceCsr,
    opts: &OptConfig,
    params: PagerankParams,
) -> SimResult<AlgoResult<f32>> {
    dispatch_by_word!(q, opts, g.vertex_count(), run_impl(q, g, params))
}

fn run_impl<W: sygraph_core::frontier::Word>(
    q: &Queue,
    g: &DeviceCsr,
    params: PagerankParams,
    tuning: &Tuning,
) -> SimResult<AlgoResult<f32>> {
    let n = g.vertex_count();
    let nf = n as f32;
    let t0 = q.now_ns();

    let rank = q.malloc_device::<f32>(n)?;
    let next = q.malloc_device::<f32>(n)?;
    // share[v] = damping * rank[v] / deg(v), precomputed per sweep so the
    // advance functor does one load per edge.
    let share = q.malloc_device::<f32>(n)?;
    let dangling = q.malloc_device::<f32>(1)?;
    let l1_delta = q.malloc_device::<f32>(1)?;
    // One set of bucket buffers for every sweep's advance.
    let pool = BucketPool::for_graph(q, g, tuning);
    retry(q, &tuning.recovery, || {
        q.fill(&rank, 1.0 / nf);
    })?;

    // Each sweep resets its accumulators (`next`, `dangling`,
    // `l1_delta`) up front and commits `rank` in the single trailing
    // `pr_apply` launch, so a faulted sweep leaves `rank` untouched and
    // re-runs cleanly under `fixed_point`'s retry contract. Both scalar
    // accumulators take one add per subgroup, never one per vertex.
    let d = params.damping;
    let sgw = q.profile().preferred_subgroup as usize;
    let slabs = n.div_ceil(sgw);
    let slab_mask = |first: usize| full_mask((n - first).min(sgw) as u32);
    let iterations = fixed_point(
        q,
        &tuning.recovery,
        params.max_iters,
        "pr_iter",
        |q, _iter| {
            q.fill(&next, 0.0);
            dangling.store(0, 0.0);
            l1_delta.store(0, 0.0);
            q.parallel_for_subgroups("pr_share", slabs, |sg, slab| {
                let first = slab * sgw;
                let mask = slab_mask(first);
                let mut ranks = [0.0f32; MAX_SUBGROUP];
                let mut degs = [0u32; MAX_SUBGROUP];
                sg.lanes(mask, |lane, l| {
                    let v = first + lane as usize;
                    let (lo, hi) = g.row_bounds(l, v as u32);
                    let r = l.load(&rank, v);
                    let deg = hi - lo;
                    let s = if deg == 0 { 0.0 } else { d * r / deg as f32 };
                    l.store(&share, v, s);
                    l.compute(4);
                    (ranks[lane as usize], degs[lane as usize]) = (r, deg);
                });
                let dead_ends = mask & sg.ballot(|lane| degs[lane as usize] == 0);
                sg.accumulate_f32(&dangling, 0, dead_ends, |lane| ranks[lane as usize]);
            });
            let (ev, _) = Advance::<W, _>::all_vertices(q, g)
                .tuning(tuning)
                .pool(pool.as_ref())
                .run(|l, u, v, _e, _w| {
                    let s = l.load(&share, u as usize);
                    l.fetch_add_f32(&next, v as usize, s);
                    false
                });
            ev.wait();
            let dang = dangling.load(0);
            q.parallel_for_subgroups("pr_apply", slabs, |sg, slab| {
                let first = slab * sgw;
                let mask = slab_mask(first);
                let mut moved = [0.0f32; MAX_SUBGROUP];
                sg.lanes(mask, |lane, l| {
                    let v = first + lane as usize;
                    let base = (1.0 - d) / nf + d * dang / nf;
                    let newv = l.load(&next, v) + base;
                    let old = l.load(&rank, v);
                    l.store(&rank, v, newv);
                    moved[lane as usize] = (newv - old).abs();
                    l.compute(6);
                });
                sg.accumulate_f32(&l1_delta, 0, mask, |lane| moved[lane as usize]);
            });
            Ok(l1_delta.load(0) >= params.tol)
        },
    )?;

    Ok(AlgoResult {
        values: rank.to_vec(),
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

    #[test]
    fn matches_host_power_iteration() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(21);
        let n = 100u32;
        let edges: Vec<(u32, u32)> = (0..600)
            .map(|_| (rng.random_range(0..n), rng.random_range(0..n)))
            .collect();
        let host = CsrHost::from_edges(n as usize, &edges);
        let q = queue();
        let g = DeviceCsr::upload(&q, &host).unwrap();
        let params = PagerankParams {
            max_iters: 40,
            tol: 0.0,
            ..Default::default()
        };
        let got = run(&q, &g, &OptConfig::all(), params).unwrap();
        let want = reference::pagerank(&host, 0.85, 40);
        for (v, (a, b)) in got.values.iter().zip(want.iter()).enumerate() {
            assert!((a - b).abs() < 1e-4, "vertex {v}: {a} vs {b}");
        }
    }

    #[test]
    fn ranks_sum_to_one() {
        let host = CsrHost::from_edges(5, &[(0, 1), (1, 2), (2, 0), (3, 0)]);
        let q = queue();
        let g = DeviceCsr::upload(&q, &host).unwrap();
        let got = run(&q, &g, &OptConfig::all(), PagerankParams::default()).unwrap();
        let sum: f32 = got.values.iter().sum();
        assert!((sum - 1.0).abs() < 1e-3, "sum {sum}");
    }

    #[test]
    fn tolerance_stops_early() {
        let host = CsrHost::from_edges(4, &[(0, 1), (1, 0), (2, 3), (3, 2)]);
        let q = queue();
        let g = DeviceCsr::upload(&q, &host).unwrap();
        let got = run(
            &q,
            &g,
            &OptConfig::all(),
            PagerankParams {
                tol: 1e-3,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(
            got.iterations < 100,
            "converged in {} iters",
            got.iterations
        );
    }
}
