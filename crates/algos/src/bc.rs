//! Betweenness Centrality via Brandes' algorithm (§3.4): a forward BFS
//! from the source counts shortest paths (`sigma`) and records each
//! level's frontier; a backward sweep over the levels accumulates
//! dependencies (`delta`). Returns the per-vertex dependency contribution
//! of the given source (summing over sources yields exact BC).

use sygraph_core::engine::{retry, RecoveryPolicy, SuperstepEngine, NO_COMPUTE};
use sygraph_core::frontier::{BitmapLike, Word};
use sygraph_core::graph::{DeviceCsr, DeviceGraphView};
use sygraph_core::inspector::{OptConfig, Tuning};
use sygraph_core::operators::advance::Advance;
use sygraph_core::operators::compute;
use sygraph_core::types::{VertexId, INF_DIST};
use sygraph_sim::{Queue, SimResult};

use crate::common::{make_frontier, AlgoResult};
use crate::dispatch_by_word;

/// Runs single-source Brandes BC from `src`.
pub fn run(
    q: &Queue,
    g: &DeviceCsr,
    src: VertexId,
    opts: &OptConfig,
) -> SimResult<AlgoResult<f32>> {
    Ok(run_many(q, g, &[src], opts)?
        .pop()
        .expect("one source, one result"))
}

/// Runs one rooted Brandes pass per source, sharing a single scratch
/// allocation set (depth/sigma/delta plus a recycled frontier pool)
/// across every pass — the allocation ledger shows one footprint, not
/// per-source alloc/free churn. Results are bit-identical to calling
/// [`run`] once per source.
pub fn run_many(
    q: &Queue,
    g: &DeviceCsr,
    sources: &[VertexId],
    opts: &OptConfig,
) -> SimResult<Vec<AlgoResult<f32>>> {
    dispatch_by_word!(
        q,
        opts,
        g.vertex_count(),
        run_many_impl(q, g, sources, opts)
    )
}

fn run_many_impl<W: Word>(
    q: &Queue,
    g: &DeviceCsr,
    sources: &[VertexId],
    opts: &OptConfig,
    tuning: &Tuning,
) -> SimResult<Vec<AlgoResult<f32>>> {
    let n = g.vertex_count();
    // One scratch set for every rooted pass.
    let depth = q.malloc_device::<u32>(n)?;
    let sigma = q.malloc_device::<f32>(n)?;
    let delta = q.malloc_device::<f32>(n)?;
    // Frontier pool: passes return their level frontiers (cleared) here,
    // so steady state allocates nothing.
    let mut pool: Vec<Box<dyn BitmapLike<W>>> = Vec::new();
    let mut out = Vec::with_capacity(sources.len());
    // The sigma accumulation is a `fetch_add`, not a monotone min, so a
    // partially-run superstep is not safe to retry: the forward engine
    // runs under the all-off policy and an injected fault fails the pass
    // typed (the idempotent setup keeps `opts.recovery`).
    let mut fwd_tuning = *tuning;
    fwd_tuning.recovery = RecoveryPolicy::default();

    for &src in sources {
        assert!((src as usize) < n, "source out of range");
        let t0 = q.now_ns();

        // Forward phase: BFS levels, counting shortest paths. Every
        // level's frontier is retained (`rotate_retaining`) for the
        // backward sweep.
        let take = |pool: &mut Vec<Box<dyn BitmapLike<W>>>| match pool.pop() {
            Some(f) => Ok(f),
            None => make_frontier::<W>(q, n, opts),
        };
        let mut levels: Vec<Box<dyn BitmapLike<W>>> = Vec::new();
        let fin = take(&mut pool)?;
        let fout = take(&mut pool)?;
        retry(q, &opts.recovery, || {
            q.fill(&depth, INF_DIST);
            q.fill(&sigma, 0.0);
            q.fill(&delta, 0.0);
            depth.store(src as usize, 0);
            sigma.store(src as usize, 1.0);
            fin.insert_host(src);
        })?;
        // Brandes retains each level, so the loop rotates by hand.
        let mut engine = SuperstepEngine::new(q, g, fwd_tuning, fin, fout).mark_prefix("bc_fwd");
        while engine.step(
            |l, d, u, v, _e, _w| {
                let old = l.fetch_min(&depth, v as usize, d + 1);
                if old > d {
                    // v is on a shortest path through u: accumulate sigma.
                    let su = l.load(&sigma, u as usize);
                    l.fetch_add_f32(&sigma, v as usize, su);
                    old == INF_DIST
                } else {
                    false
                }
            },
            NO_COMPUTE,
        )? {
            let fresh = take(&mut pool)?;
            levels.push(engine.rotate_retaining(fresh));
        }
        let d = engine.iteration();

        // Backward phase: accumulate dependencies level by level, deepest
        // first (the deepest level has delta 0 by definition).
        for (level, frontier) in levels.iter().enumerate().rev().skip(1) {
            q.mark(format!("bc_bwd{level}"));
            let next_depth = level as u32 + 1;
            let (ev, _) =
                Advance::new(q, g, frontier.as_ref())
                    .tuning(tuning)
                    .run(|l, u, v, _e, _w| {
                        if l.load(&depth, v as usize) == next_depth {
                            let su = l.load(&sigma, u as usize);
                            let sv = l.load(&sigma, v as usize);
                            let dv = l.load(&delta, v as usize);
                            l.fetch_add_f32(&delta, u as usize, su / sv * (1.0 + dv));
                        }
                        false
                    });
            ev.wait();
            // Dependency accumulation is additive; a skipped level could
            // only be caught here, never repaired by re-running.
            q.fault_barrier()?;
        }

        // The source's own dependency does not count.
        compute::execute_all(q, n, |l, v| {
            if v == src {
                l.store(&delta, v as usize, 0.0);
            }
        })
        .wait();
        q.fault_barrier()?;

        out.push(AlgoResult {
            values: delta.to_vec(),
            iterations: d,
            sim_ms: (q.now_ns() - t0) / 1e6,
        });

        // Recycle this pass's frontiers. The engine pair converged empty
        // (convergence means an empty input, and the output was freshly
        // installed); level frontiers still hold their bits and are
        // cleared before pooling.
        let (fin, fout) = engine.into_frontiers();
        for f in levels {
            f.clear(q);
            pool.push(f);
        }
        pool.push(fin);
        pool.push(fout);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use sygraph_core::graph::CsrHost;
    use sygraph_sim::{Device, DeviceProfile, TraceKind};

    fn queue() -> Queue {
        Queue::new(Device::new(DeviceProfile::host_test()))
    }

    fn check(host: &CsrHost, src: u32) {
        let q = queue();
        let g = DeviceCsr::upload(&q, host).unwrap();
        let got = run(&q, &g, src, &OptConfig::all()).unwrap();
        let want = reference::betweenness_from(host, src);
        for (v, (a, b)) in got.values.iter().zip(want.iter()).enumerate() {
            assert!(
                (a - b).abs() < 1e-3 * (1.0 + b.abs()),
                "vertex {v}: {a} vs {b} (src {src})"
            );
        }
    }

    #[test]
    fn path_graph_center_dependency() {
        // 0 -> 1 -> 2 -> 3: from 0, delta(1)=2 (paths to 2 and 3), delta(2)=1.
        let host = CsrHost::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let q = queue();
        let g = DeviceCsr::upload(&q, &host).unwrap();
        let got = run(&q, &g, 0, &OptConfig::all()).unwrap();
        assert_eq!(got.values, vec![0.0, 2.0, 1.0, 0.0]);
        check(&host, 0);
    }

    #[test]
    fn diamond_splits_dependency() {
        // 0 -> {1,2} -> 3: two shortest paths to 3; each middle gets 0.5 + 1.
        let host = CsrHost::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let q = queue();
        let g = DeviceCsr::upload(&q, &host).unwrap();
        let got = run(&q, &g, 0, &OptConfig::all()).unwrap();
        assert_eq!(got.values, vec![0.0, 0.5, 0.5, 0.0]);
    }

    #[test]
    fn random_graphs_match_reference() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(3);
        let n = 120u32;
        let edges: Vec<(u32, u32)> = (0..600)
            .map(|_| (rng.random_range(0..n), rng.random_range(0..n)))
            .collect();
        let host = CsrHost::from_edges(n as usize, &edges);
        for src in [0, 5, 77] {
            check(&host, src);
        }
    }

    #[test]
    fn run_many_matches_per_source_runs() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(11);
        let n = 90u32;
        let edges: Vec<(u32, u32)> = (0..450)
            .map(|_| (rng.random_range(0..n), rng.random_range(0..n)))
            .collect();
        let host = CsrHost::from_edges(n as usize, &edges);
        let sources = [0u32, 13, 42, 89];
        let q = queue();
        let g = DeviceCsr::upload(&q, &host).unwrap();
        let batch = run_many(&q, &g, &sources, &OptConfig::all()).unwrap();
        for (i, &src) in sources.iter().enumerate() {
            let q1 = queue();
            let g1 = DeviceCsr::upload(&q1, &host).unwrap();
            let solo = run(&q1, &g1, src, &OptConfig::all()).unwrap();
            assert_eq!(batch[i].values, solo.values, "source {src}");
            assert_eq!(batch[i].iterations, solo.iterations);
        }
    }

    #[test]
    fn run_many_reuses_one_scratch_set_across_passes() {
        // The satellite regression: rooted passes share depth/sigma/delta
        // and a recycled frontier pool, so (a) the MemTracker peak of a
        // 4-pass batch equals the 1-pass peak, and (b) repeating the same
        // source allocates nothing after the first pass — the allocation
        // ledger has identical length in both runs.
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(5);
        let n = 100u32;
        let edges: Vec<(u32, u32)> = (0..500)
            .map(|_| (rng.random_range(0..n), rng.random_range(0..n)))
            .collect();
        let host = CsrHost::from_edges(n as usize, &edges);

        let q1 = queue();
        let g1 = DeviceCsr::upload(&q1, &host).unwrap();
        run_many(&q1, &g1, &[7], &OptConfig::all()).unwrap();
        let peak1 = q1.device().mem_peak();
        let allocs = |q: &Queue| q.profiler().count(|k| matches!(k, TraceKind::Mem { .. }));
        let allocs1 = allocs(&q1);

        let q4 = queue();
        let g4 = DeviceCsr::upload(&q4, &host).unwrap();
        let results = run_many(&q4, &g4, &[7, 7, 7, 7], &OptConfig::all()).unwrap();
        assert_eq!(
            q4.device().mem_peak(),
            peak1,
            "batched passes must not widen the memory peak"
        );
        assert_eq!(
            allocs(&q4),
            allocs1,
            "passes after the first must allocate nothing"
        );
        for r in &results[1..] {
            assert_eq!(
                r.values, results[0].values,
                "recycled scratch must not leak state"
            );
        }

        // Distinct sources reach different depths (level counts differ),
        // so the pool may grow — but the peak must stay within one
        // frontier of the deepest single pass, never per-source churn.
        let qd = queue();
        let gd = DeviceCsr::upload(&qd, &host).unwrap();
        let sources = [0u32, 13, 42, 89];
        run_many(&qd, &gd, &sources, &OptConfig::all()).unwrap();
        let deepest = sources
            .iter()
            .map(|&s| {
                let qs = queue();
                let gs = DeviceCsr::upload(&qs, &host).unwrap();
                run_many(&qs, &gs, &[s], &OptConfig::all()).unwrap();
                qs.device().mem_peak()
            })
            .max()
            .unwrap();
        assert_eq!(
            qd.device().mem_peak(),
            deepest,
            "multi-source peak equals the deepest pass's peak"
        );
    }

    #[test]
    fn undirected_star_center_has_high_bc() {
        let host = CsrHost::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)])
            .to_undirected()
            .unwrap();
        let q = queue();
        let g = DeviceCsr::upload(&q, &host).unwrap();
        let got = run(&q, &g, 1, &OptConfig::all()).unwrap();
        // From leaf 1, all paths to 2,3,4 pass through hub 0.
        assert_eq!(got.values[0], 3.0);
        check(&host, 1);
    }
}
