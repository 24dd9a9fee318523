//! Δ-stepping SSSP (Meyer & Sanders), in the near/far-pile formulation
//! used by GPU implementations. The paper explicitly does **not** use
//! this optimization (§3.4 cites it as related work); it is provided as
//! an extension and ablated against plain Bellman-Ford in the benches.
//!
//! Vertices whose tentative distance falls below the current threshold go
//! to the *near* pile and are relaxed immediately; the rest wait in the
//! *far* pile until the threshold advances by Δ.

use sygraph_core::engine::retry;
use sygraph_core::frontier::{swap, Word};
use sygraph_core::graph::{DeviceCsr, DeviceGraphView};
use sygraph_core::inspector::{OptConfig, Tuning};
use sygraph_core::operators::advance::Advance;
use sygraph_core::operators::filter;
use sygraph_core::types::{VertexId, INF_WEIGHT};
use sygraph_sim::{Queue, SimError, SimResult};

use crate::common::{make_frontier, AlgoResult};
use crate::dispatch_by_word;

/// Runs Δ-stepping SSSP from `src` with bucket width `delta`.
pub fn run(
    q: &Queue,
    g: &DeviceCsr,
    src: VertexId,
    opts: &OptConfig,
    delta: f32,
) -> SimResult<AlgoResult<f32>> {
    assert!(delta > 0.0, "delta must be positive");
    dispatch_by_word!(q, opts, g.vertex_count(), run_impl(q, g, src, opts, delta))
}

fn run_impl<W: Word>(
    q: &Queue,
    g: &DeviceCsr,
    src: VertexId,
    opts: &OptConfig,
    delta: f32,
    tuning: &Tuning,
) -> SimResult<AlgoResult<f32>> {
    let n = g.vertex_count();
    assert!((src as usize) < n, "source out of range");
    let t0 = q.now_ns();

    let dist = q.malloc_device::<f32>(n)?;
    let mut near = make_frontier::<W>(q, n, opts)?;
    let mut near_next = make_frontier::<W>(q, n, opts)?;
    let far = make_frontier::<W>(q, n, opts)?;
    let scratch = make_frontier::<W>(q, n, opts)?;
    retry(q, &opts.recovery, || {
        q.fill(&dist, INF_WEIGHT);
        dist.store(src as usize, 0.0);
        near.insert_host(src);
    })?;

    let mut threshold = delta;
    let mut iter = 0u32;
    let max_iters = 4 * n as u32 + 16;
    loop {
        // Drain the near pile at the current threshold.
        while !near.is_empty(q) {
            // Δ-stepping runs outside the engine, so it owns the
            // superstep-boundary cancellation check the engine would make.
            q.check_cancelled()?;
            q.mark(format!("delta_iter{iter}"));
            let (ev, _) = Advance::new(q, g, near.as_ref())
                .tuning(tuning)
                .run(|l, u, v, _e, w| {
                    let du = l.load(&dist, u as usize);
                    let nd = du + w;
                    let old = l.fetch_min_f32(&dist, v as usize, nd);
                    if nd < old {
                        if nd < threshold {
                            near_next.insert_lane(l, v);
                        } else {
                            far.insert_lane(l, v);
                        }
                    }
                    false
                });
            ev.wait();
            // A skipped advance would read as an empty `near_next` and
            // silently truncate the traversal; surface it instead. (The
            // relaxation itself is monotone, but the promote step below
            // is not re-runnable, so the whole loop takes barrier
            // semantics rather than retries.)
            q.fault_barrier()?;
            swap(&mut near, &mut near_next);
            near_next.clear(q);
            iter += 1;
            if iter > max_iters {
                return Err(SimError::Algorithm("delta-stepping diverged".into()));
            }
        }
        if far.is_empty(q) {
            break;
        }
        // Advance the threshold and promote ready far vertices. A far
        // vertex may have been improved below the *old* threshold since
        // insertion; the distance test handles both cases.
        threshold += delta;
        scratch.clear(q);
        filter::external(q, far.as_ref(), scratch.as_ref(), |l, v| {
            l.load(&dist, v as usize) < threshold
        })
        .wait();
        filter::inplace(q, far.as_ref(), |l, v| {
            l.load(&dist, v as usize) >= threshold
        })
        .wait();
        // scratch holds the promoted set; near is empty after the drain,
        // so copy the promoted vertices in.
        filter::external(q, scratch.as_ref(), near.as_ref(), |_l, _v| true).wait();
        // The promote sequence moves vertices from `far` through
        // `scratch` into `near`; a fault between the two filters would
        // drop the promoted set on a re-run, so it can only fail typed.
        q.fault_barrier()?;
        iter += 1;
        if iter > max_iters {
            return Err(SimError::Algorithm("delta-stepping diverged".into()));
        }
    }

    // Catches a fault latched at a census launch (`is_empty`), whose
    // stale count could have ended either loop early.
    q.fault_barrier()?;
    Ok(AlgoResult {
        values: dist.to_vec(),
        iterations: iter,
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

    fn check(host: &CsrHost, src: u32, delta: f32) {
        let q = queue();
        let g = DeviceCsr::upload(&q, host).unwrap();
        let got = run(&q, &g, src, &OptConfig::all(), delta).unwrap();
        let want = reference::dijkstra(host, src);
        for (v, (a, b)) in got.values.iter().zip(want.iter()).enumerate() {
            if b.is_infinite() {
                assert!(a.is_infinite(), "vertex {v}");
            } else {
                assert!((a - b).abs() < 1e-4, "vertex {v}: {a} vs {b} (Δ={delta})");
            }
        }
    }

    #[test]
    fn weighted_diamond_various_deltas() {
        let host = CsrHost::from_edges_weighted(
            4,
            &[(0, 1), (0, 2), (2, 1), (1, 3)],
            Some(&[10.0, 1.0, 2.0, 1.0]),
        );
        for d in [0.5, 2.0, 100.0] {
            check(&host, 0, d);
        }
    }

    #[test]
    fn random_weighted_matches_dijkstra() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(99);
        let n = 150u32;
        let edges: Vec<(u32, u32)> = (0..900)
            .map(|_| (rng.random_range(0..n), rng.random_range(0..n)))
            .collect();
        let weights: Vec<f32> = (0..900).map(|_| rng.random_range(0.5..5.0f32)).collect();
        let host = CsrHost::from_edges_weighted(n as usize, &edges, Some(&weights));
        check(&host, 0, 1.0);
        check(&host, 42, 3.0);
    }

    #[test]
    fn huge_delta_degenerates_to_bellman_ford() {
        let host = CsrHost::from_edges_weighted(3, &[(0, 1), (1, 2)], Some(&[1.0, 1.0]));
        check(&host, 0, 1e9);
    }
}
