//! Batched multi-source traversal (MS-BFS-style bit-packing): one engine
//! run expands up to W concurrent sources through W-bit lane masks packed
//! beside the two-layer frontier (see `frontier::lanes` and DESIGN.md
//! §13).
//!
//! The win over serial rooted passes is twofold. Launch overhead and
//! frontier maintenance (compaction, lazy clear, census) are paid once
//! per *union* superstep instead of once per source per level — a batch
//! runs `max_s D(s)` supersteps, not `Σ_s D(s)`. And the per-edge work of
//! coincident wavefronts collapses into bitwise mask arithmetic: an edge
//! on the frontier of k sources costs one lane-word load plus ANDs, not k
//! functor invocations.
//!
//! Entry points: [`bfs_multi`] (per-lane depths), [`bc_multi`] (Brandes
//! dependencies, W-wide forward sigma counting + W-wide backward
//! accumulation), and the [`closeness_multi`] / [`reachability_multi`]
//! wrappers over the batched BFS distances.

use sygraph_core::engine::{retry, CheckpointState, RecoveryPolicy, SuperstepEngine};
use sygraph_core::frontier::{
    lane_locate, lane_words, locate, BitmapLike, LaneFrontier, LaneView, Word,
};
use sygraph_core::graph::{DeviceCsr, DeviceGraphView, Graph};
use sygraph_core::inspector::{OptConfig, Tuning};
use sygraph_core::operators::advance::Advance;
use sygraph_core::operators::compute;
use sygraph_core::types::{VertexId, INF_DIST};
use sygraph_sim::{Queue, SimResult};

use crate::dispatch_by_word;

/// Result of a batched multi-source run: one value vector per source, in
/// the order the sources were given.
#[derive(Debug, Clone)]
pub struct MultiResult<T> {
    /// The sources, batch order preserved.
    pub sources: Vec<VertexId>,
    /// `per_source[i][v]` = the value of vertex `v` under source `i`.
    pub per_source: Vec<Vec<T>>,
    /// Union supersteps executed, summed over batches.
    pub iterations: u32,
    /// Batches run (`⌈sources / width⌉`).
    pub batches: u32,
    /// Modelled device time of the whole run, in milliseconds.
    pub sim_ms: f64,
}

/// Closeness centrality of a batch of sources (harmonic-free classic
/// definition over the reachable set).
#[derive(Debug, Clone)]
pub struct ClosenessResult {
    pub sources: Vec<VertexId>,
    /// `scores[i]` = `(reached_i − 1) / Σ dist_i` over the vertices
    /// source `i` reaches (0 when it reaches nothing but itself).
    pub scores: Vec<f32>,
    pub iterations: u32,
    pub sim_ms: f64,
}

fn live_mask(k: usize) -> u64 {
    if k >= 64 {
        u64::MAX
    } else {
        (1u64 << k) - 1
    }
}

/// Batched BFS: runs `sources` in chunks of `width` lanes (`width` ∈
/// {8, 16, 32, 64}) and returns each source's distance vector,
/// bit-identical to `width` separate [`crate::bfs::run`] calls. Honours
/// `opts.recovery` — checkpoints capture the packed lane state, so a
/// mid-batch `DeviceLost` resumes without restarting the batch.
pub fn bfs_multi(
    q: &Queue,
    g: &DeviceCsr,
    sources: &[VertexId],
    width: u32,
    opts: &OptConfig,
) -> SimResult<MultiResult<u32>> {
    dispatch_by_word!(
        q,
        opts,
        g.vertex_count(),
        bfs_multi_impl(q, g, sources, width)
    )
}

fn bfs_multi_impl<W: Word>(
    q: &Queue,
    g: &DeviceCsr,
    sources: &[VertexId],
    width: u32,
    tuning: &Tuning,
) -> SimResult<MultiResult<u32>> {
    let n = g.vertex_count();
    for &s in sources {
        assert!((s as usize) < n, "source out of range");
    }
    let t0 = q.now_ns();
    let w = width as usize;
    // One scratch set for every batch: per-lane depths (`v*width + lane`)
    // and the packed visited lanes mirroring the frontier layout.
    let depth = q.malloc_device::<u32>(n * w)?;
    let vis = q.malloc_device::<u64>(lane_words(n, width).max(1))?;
    let ckpt: [&dyn CheckpointState; 2] = [&depth, &vis];
    let mut fin: Box<dyn BitmapLike<W>> = Box::new(LaneFrontier::<W>::new(q, n, width)?);
    let mut fout: Box<dyn BitmapLike<W>> = Box::new(LaneFrontier::<W>::new(q, n, width)?);

    let mut per_source: Vec<Vec<u32>> = Vec::with_capacity(sources.len());
    let mut iterations = 0u32;
    let mut batches = 0u32;
    for chunk in sources.chunks(w) {
        batches += 1;
        retry(q, &tuning.recovery, || {
            q.fill(&depth, INF_DIST);
            q.fill(&vis, 0u64);
            fin.clear(q);
            fout.clear(q);
            for (i, &s) in chunk.iter().enumerate() {
                fin.insert_host_masked(s, 1 << i);
                depth.store(s as usize * w + i, 0);
                let (vw, vs) = lane_locate(s, width);
                vis.fetch_or(vw, 1u64 << (vs + i as u32));
            }
        })?;
        let mut engine = SuperstepEngine::new(q, g, *tuning, fin, fout)
            .mark_prefix("bfs_multi_iter")
            .max_iters(n + 1, "multi-source BFS failed to converge")
            .checkpoint_state(&ckpt)
            .multi_source(width, live_mask(chunk.len()))?;
        while engine.step_multi(
            |l, _i, _u, v, _e, _w, m| {
                let (vw, vs) = lane_locate(v, width);
                m & !((l.load_atomic::<u64>(&vis, vw) >> vs) & LaneView::mask_all(width))
            },
            Some(&|l, i, v, fresh| {
                let (vw, vs) = lane_locate(v, width);
                l.fetch_or(&vis, vw, fresh << vs);
                let mut f = fresh;
                while f != 0 {
                    let b = f.trailing_zeros() as usize;
                    l.store_atomic(&depth, v as usize * w + b, i + 1);
                    f &= f - 1;
                }
            }),
        )? {
            engine.rotate()?;
        }
        iterations += engine.iteration();
        let all = depth.to_vec();
        for i in 0..chunk.len() {
            per_source.push((0..n).map(|v| all[v * w + i]).collect());
        }
        (fin, fout) = engine.into_frontiers();
    }

    Ok(MultiResult {
        sources: sources.to_vec(),
        per_source,
        iterations,
        batches,
        sim_ms: (q.now_ns() - t0) / 1e6,
    })
}

/// Batched Brandes BC: one W-wide forward pass counts per-lane shortest
/// paths (`sigma`), retaining each union level's lane frontier; one
/// W-wide backward sweep accumulates per-lane dependencies (`delta`).
/// Each source's vector matches [`crate::bc::run`] to float tolerance
/// (the lane adds associate differently than the serial pass).
///
/// When `g` is pull-capable ([`Graph::with_pull`]) the backward sweep
/// scans the *deeper* level's in-edges through the CSC mirror, so the
/// lanes of a cooperating subgroup write their dependency atomics to
/// distinct `delta` rows; push-only graphs fall back to an out-edge scan
/// whose atomics contend on the shared parent row.
pub fn bc_multi(
    q: &Queue,
    g: &Graph,
    sources: &[VertexId],
    width: u32,
    opts: &OptConfig,
) -> SimResult<MultiResult<f32>> {
    dispatch_by_word!(
        q,
        opts,
        g.vertex_count(),
        bc_multi_impl(q, g, sources, width)
    )
}

fn bc_multi_impl<W: Word>(
    q: &Queue,
    g: &Graph,
    sources: &[VertexId],
    width: u32,
    tuning: &Tuning,
) -> SimResult<MultiResult<f32>> {
    let n = g.vertex_count();
    for &s in sources {
        assert!((s as usize) < n, "source out of range");
    }
    let t0 = q.now_ns();
    let w = width as usize;
    let mask_all = LaneView::mask_all(width);
    // One scratch set across batches: per-lane depth/sigma/delta plus the
    // packed visited lanes, and a pool recycling level frontiers.
    let depth = q.malloc_device::<u32>(n * w)?;
    let sigma = q.malloc_device::<f32>(n * w)?;
    let delta = q.malloc_device::<f32>(n * w)?;
    let coef = q.malloc_device::<f32>(n * w)?;
    // The backward sweep wants in-edges (see below); build the CSC once so
    // every batch shares it. Push-only graphs take the out-edge fallback.
    let csc: Option<&DeviceCsr> = if g.ensure_pull(q)? {
        g.pull_view()
    } else {
        None
    };
    let vis = q.malloc_device::<u64>(lane_words(n, width).max(1))?;
    let mut pool: Vec<Box<dyn BitmapLike<W>>> = Vec::new();
    let mut fin: Box<dyn BitmapLike<W>> = Box::new(LaneFrontier::<W>::new(q, n, width)?);
    let mut fout: Box<dyn BitmapLike<W>> = Box::new(LaneFrontier::<W>::new(q, n, width)?);

    // Sigma counting is additive, so a partially-run superstep is not
    // safe to retry: the forward engine runs under the all-off policy and
    // an injected fault fails the batch typed (setup keeps the caller's).
    let mut fwd_tuning = *tuning;
    fwd_tuning.recovery = RecoveryPolicy::default();
    let mut per_source: Vec<Vec<f32>> = Vec::with_capacity(sources.len());
    let mut iterations = 0u32;
    let mut batches = 0u32;
    for chunk in sources.chunks(w) {
        batches += 1;
        let live = live_mask(chunk.len());
        retry(q, &tuning.recovery, || {
            q.fill(&depth, INF_DIST);
            q.fill(&sigma, 0.0);
            q.fill(&delta, 0.0);
            q.fill(&coef, 0.0);
            q.fill(&vis, 0u64);
            fin.clear(q);
            fout.clear(q);
            for (i, &s) in chunk.iter().enumerate() {
                fin.insert_host_masked(s, 1 << i);
                depth.store(s as usize * w + i, 0);
                sigma.store(s as usize * w + i, 1.0);
                let (vw, vs) = lane_locate(s, width);
                vis.fetch_or(vw, 1u64 << (vs + i as u32));
            }
        })?;
        // Merge each superstep's discoveries into `vis` before the rotate
        // — the *next* superstep's accept masks must see them, this one's
        // must not.
        let merge_vis = |q: &Queue, _iter: u32, out: &dyn BitmapLike<W>| {
            let out_lanes = out
                .lane_view()
                .expect("multi engines carry lane frontiers")
                .lanes;
            compute::over_compacted(q, out, |l, v| {
                let (vw, vs) = lane_locate(v, width);
                let m = (l.load::<u64>(&out_lanes, vw) >> vs) & mask_all;
                l.fetch_or(&vis, vw, m << vs);
            })
            .wait();
        };
        let mut engine = SuperstepEngine::new(q, &g.csr, fwd_tuning, fin, fout)
            .mark_prefix("bc_multi_fwd")
            .post_step(&merge_vis)
            .multi_source(width, live)?;

        // Forward: the accept mask is `m` minus the lanes that visited
        // `v` in an *earlier* superstep — `vis` is stable during the
        // superstep (merged from the output frontier between supersteps),
        // so every shortest-path edge's sigma contribution lands exactly
        // once, even when several same-superstep parents discover `v`.
        let mut levels: Vec<Box<dyn BitmapLike<W>>> = Vec::new();
        while engine.step_multi(
            |l, _i, u, v, _e, _w, m| {
                let (vw, vs) = lane_locate(v, width);
                let acc = m & !((l.load::<u64>(&vis, vw) >> vs) & mask_all);
                let mut a = acc;
                while a != 0 {
                    let b = a.trailing_zeros() as usize;
                    let su = l.load(&sigma, u as usize * w + b);
                    l.fetch_add_f32(&sigma, v as usize * w + b, su);
                    a &= a - 1;
                }
                acc
            },
            Some(&|l, i, v, fresh| {
                let mut f = fresh;
                while f != 0 {
                    let b = f.trailing_zeros() as usize;
                    l.store_atomic(&depth, v as usize * w + b, i + 1);
                    f &= f - 1;
                }
            }),
        )? {
            let fresh = match pool.pop() {
                Some(f) => f,
                None => Box::new(LaneFrontier::<W>::new(q, n, width)?),
            };
            levels.push(engine.rotate_retaining(fresh));
        }
        iterations += engine.iteration();

        // Backward, deepest level first: an edge u→v is a shortest-path
        // DAG edge for exactly the lanes holding u at level d and v at
        // level d+1 — one AND of two lane masks. Each level runs three
        // kernels: fold the deeper vertices' `(1 + delta) / sigma` into a
        // per-(vertex, lane) coefficient, accumulate coefficients along
        // DAG edges, then scale the sums by `sigma_u`. The factored form
        // `delta_u = sigma_u * sum_v (1 + delta_v) / sigma_v` touches two
        // floats per (edge, lane) in the edge scan instead of four — the
        // edge scan is the pass's hot loop, the vertex passes are noise.
        for d in (0..levels.len().saturating_sub(1)).rev() {
            q.mark(format!("bc_multi_bwd{d}"));
            let lv = levels[d + 1].lane_view().expect("lane level").lanes;
            let lvp = lv.alias();
            let sigma_p = sigma.alias();
            let delta_p = delta.alias();
            let coef_p = coef.alias();
            compute::over_compacted(q, levels[d + 1].as_ref(), move |l, v| {
                let (vw, vs) = lane_locate(v, width);
                let mut m = (l.load::<u64>(&lvp, vw) >> vs) & mask_all;
                while m != 0 {
                    let b = m.trailing_zeros() as usize;
                    let i = v as usize * w + b;
                    let dv = l.load(&delta_p, i);
                    let sv = l.load(&sigma_p, i);
                    l.store(&coef_p, i, (1.0 + dv) / sv);
                    m &= m - 1;
                }
            })
            .wait();

            let lu = levels[d].lane_view().expect("lane level").lanes;
            let coef_b = coef.alias();
            let delta_b = delta.alias();
            let ev = if let Some(csc) = csc {
                // In-edge scan from the deeper level: the subgroup expands
                // one `v` cooperatively, so `coef[v*w..]` is one uniform,
                // line-coalesced row, and each lane's `delta` atomic lands
                // on its own in-neighbour's row — no two lanes of an
                // instruction share an address, so nothing serializes.
                // The union bitmap of the shallower level (1 bit/vertex,
                // L1-resident, exact by the lane overlay invariant)
                // rejects in-neighbours at the wrong depth before the
                // 8-byte scattered lane-word load.
                let uni = levels[d].words().alias();
                let (ev, _) = Advance::new(q, csc, levels[d + 1].as_ref())
                    .tuning(tuning)
                    .run(move |l, v, u, _e, _w| {
                        let (bw, bb) = locate::<W>(u);
                        if !l.load::<W>(&uni, bw).test_bit(bb) {
                            return false;
                        }
                        let (uw, us) = lane_locate(u, width);
                        let (vw, vs) = lane_locate(v, width);
                        let mu = (l.load::<u64>(&lu, uw) >> us) & mask_all;
                        let mv = (l.load::<u64>(&lv, vw) >> vs) & mask_all;
                        let mut m = mu & mv;
                        while m != 0 {
                            let b = m.trailing_zeros() as usize;
                            let c = l.load(&coef_b, v as usize * w + b);
                            l.fetch_add_f32(&delta_b, u as usize * w + b, c);
                            m &= m - 1;
                        }
                        false
                    });
                ev
            } else {
                // Out-edge fallback: prefilter on the deeper level's union
                // bitmap, then accumulate. Cooperating lanes share `u`
                // here, so their k-th atomics all target delta[u*w + k-th
                // set bit] — identical addresses that serialize. Starting
                // each lane's bit walk at a different rotation keeps
                // same-instruction atomics on distinct row slots.
                let uni = levels[d + 1].words().alias();
                let (ev, _) = Advance::new(q, &g.csr, levels[d].as_ref())
                    .tuning(tuning)
                    .run(move |l, u, v, _e, _w| {
                        let (bw, bb) = locate::<W>(v);
                        if !l.load::<W>(&uni, bw).test_bit(bb) {
                            return false;
                        }
                        let (uw, us) = lane_locate(u, width);
                        let (vw, vs) = lane_locate(v, width);
                        let mu = (l.load::<u64>(&lu, uw) >> us) & mask_all;
                        let mv = (l.load::<u64>(&lv, vw) >> vs) & mask_all;
                        let m = mu & mv;
                        if m == 0 {
                            return false;
                        }
                        let rot = l.global_id as u32 % width;
                        let hi = m & (mask_all << rot);
                        for mut part in [hi, m & !hi] {
                            while part != 0 {
                                let b = part.trailing_zeros() as usize;
                                let c = l.load(&coef_b, v as usize * w + b);
                                l.fetch_add_f32(&delta_b, u as usize * w + b, c);
                                part &= part - 1;
                            }
                        }
                        false
                    });
                ev
            };
            ev.wait();

            // Finalize this level's dependencies: every (u, lane) pair
            // lives in exactly one level, so a plain scale here cannot
            // race with the shallower levels still to come.
            let lus = levels[d].lane_view().expect("lane level").lanes;
            let sigma_s = sigma.alias();
            let delta_s = delta.alias();
            compute::over_compacted(q, levels[d].as_ref(), move |l, v| {
                let (vw, vs) = lane_locate(v, width);
                let mut m = (l.load::<u64>(&lus, vw) >> vs) & mask_all;
                while m != 0 {
                    let b = m.trailing_zeros() as usize;
                    let i = v as usize * w + b;
                    let dv = l.load(&delta_s, i);
                    let su = l.load(&sigma_s, i);
                    // Deep grid-like graphs overflow f32 sigma to ∞; the
                    // device accumulator drops the serial pass's ∞/∞ = NaN
                    // contributions, leaving its delta 0 there. The
                    // factored sum is exactly 0 too (each (1+δ)/∞ term
                    // is 0), so skipping the 0·∞ = NaN scale lands on the
                    // same value the serial pass reports.
                    let scaled = dv * su;
                    if !scaled.is_nan() {
                        l.store(&delta_s, i, scaled);
                    }
                    m &= m - 1;
                }
            })
            .wait();
            // Additive dependency accumulation: detect skipped level
            // kernels here, never retry them.
            q.fault_barrier()?;
        }

        // A source's own dependency does not count.
        for (i, &s) in chunk.iter().enumerate() {
            delta.store(s as usize * w + i, 0.0);
        }

        let all = delta.to_vec();
        for i in 0..chunk.len() {
            per_source.push((0..n).map(|v| all[v * w + i]).collect());
        }
        // Recycle every frontier for the next batch.
        for f in levels {
            f.clear(q);
            pool.push(f);
        }
        (fin, fout) = engine.into_frontiers();
    }

    Ok(MultiResult {
        sources: sources.to_vec(),
        per_source,
        iterations,
        batches,
        sim_ms: (q.now_ns() - t0) / 1e6,
    })
}

/// Closeness centrality of each source, from one batched BFS:
/// `C(s) = (reached − 1) / Σ_{v reachable, v≠s} dist(s, v)`.
pub fn closeness_multi(
    q: &Queue,
    g: &DeviceCsr,
    sources: &[VertexId],
    width: u32,
    opts: &OptConfig,
) -> SimResult<ClosenessResult> {
    let bfs = bfs_multi(q, g, sources, width, opts)?;
    let scores = bfs
        .per_source
        .iter()
        .zip(&bfs.sources)
        .map(|(dist, &s)| {
            let mut sum = 0u64;
            let mut reached = 0u64;
            for (v, &d) in dist.iter().enumerate() {
                if d != INF_DIST && v as VertexId != s {
                    sum += d as u64;
                    reached += 1;
                }
            }
            if sum == 0 {
                0.0
            } else {
                reached as f32 / sum as f32
            }
        })
        .collect();
    Ok(ClosenessResult {
        sources: bfs.sources,
        scores,
        iterations: bfs.iterations,
        sim_ms: bfs.sim_ms,
    })
}

/// Multi-source reachability from one batched BFS:
/// `per_source[i][v]` = whether source `i` reaches vertex `v`.
pub fn reachability_multi(
    q: &Queue,
    g: &DeviceCsr,
    sources: &[VertexId],
    width: u32,
    opts: &OptConfig,
) -> SimResult<MultiResult<bool>> {
    let bfs = bfs_multi(q, g, sources, width, opts)?;
    Ok(MultiResult {
        sources: bfs.sources,
        per_source: bfs
            .per_source
            .iter()
            .map(|dist| dist.iter().map(|&d| d != INF_DIST).collect())
            .collect(),
        iterations: bfs.iterations,
        batches: bfs.batches,
        sim_ms: bfs.sim_ms,
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

    fn random_host(seed: u64, n: u32, m: usize) -> CsrHost {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(seed);
        let edges: Vec<(u32, u32)> = (0..m)
            .map(|_| (rng.random_range(0..n), rng.random_range(0..n)))
            .collect();
        CsrHost::from_edges(n as usize, &edges)
    }

    #[test]
    fn batched_bfs_matches_reference_per_lane() {
        let host = random_host(21, 200, 1400);
        let q = queue();
        let g = DeviceCsr::upload(&q, &host).unwrap();
        let sources = [0u32, 3, 50, 120, 199];
        let got = bfs_multi(&q, &g, &sources, 8, &OptConfig::all()).unwrap();
        assert_eq!(got.batches, 1);
        for (i, &s) in sources.iter().enumerate() {
            assert_eq!(got.per_source[i], reference::bfs(&host, s), "source {s}");
        }
    }

    #[test]
    fn batching_splits_into_chunks_and_still_matches() {
        let host = random_host(22, 150, 900);
        let q = queue();
        let g = DeviceCsr::upload(&q, &host).unwrap();
        // 11 sources at width 8: two batches.
        let sources: Vec<u32> = (0..11).map(|i| (i * 13) % 150).collect();
        let got = bfs_multi(&q, &g, &sources, 8, &OptConfig::all()).unwrap();
        assert_eq!(got.batches, 2);
        for (i, &s) in sources.iter().enumerate() {
            assert_eq!(got.per_source[i], reference::bfs(&host, s), "source {s}");
        }
    }

    #[test]
    fn batched_bc_matches_reference_within_tolerance() {
        // A directed random graph: the in-edge (CSC) backward sweep and
        // the out-edge fallback must both match the reference, so the
        // transpose path is checked against real asymmetry.
        let host = random_host(23, 120, 700);
        let sources = [0u32, 17, 60, 119];
        for pull in [false, true] {
            let q = queue();
            let g = if pull {
                Graph::with_pull(&q, &host).unwrap()
            } else {
                Graph::new(&q, &host).unwrap()
            };
            let got = bc_multi(&q, &g, &sources, 8, &OptConfig::all()).unwrap();
            for (i, &s) in sources.iter().enumerate() {
                let want = reference::betweenness_from(&host, s);
                for (v, (a, b)) in got.per_source[i].iter().zip(want.iter()).enumerate() {
                    assert!(
                        (a - b).abs() < 1e-3 * (1.0 + b.abs()),
                        "pull {pull} source {s} vertex {v}: {a} vs {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn closeness_and_reachability_agree_with_bfs() {
        let host = random_host(24, 100, 300);
        let q = queue();
        let g = DeviceCsr::upload(&q, &host).unwrap();
        let sources = [5u32, 40];
        let close = closeness_multi(&q, &g, &sources, 8, &OptConfig::all()).unwrap();
        let reach = reachability_multi(&q, &g, &sources, 8, &OptConfig::all()).unwrap();
        for (i, &s) in sources.iter().enumerate() {
            let dist = reference::bfs(&host, s);
            let reached: Vec<bool> = dist.iter().map(|&d| d != INF_DIST).collect();
            assert_eq!(reach.per_source[i], reached, "source {s}");
            let sum: u64 = dist
                .iter()
                .enumerate()
                .filter(|&(v, &d)| d != INF_DIST && v as u32 != s)
                .map(|(_, &d)| d as u64)
                .sum();
            let cnt = reached
                .iter()
                .enumerate()
                .filter(|&(v, &r)| r && v as u32 != s)
                .count() as f32;
            let want = if sum == 0 { 0.0 } else { cnt / sum as f32 };
            assert!((close.scores[i] - want).abs() < 1e-6, "source {s}");
        }
    }

    #[test]
    fn width64_uses_full_mask() {
        let host = random_host(25, 80, 400);
        let q = queue();
        let g = DeviceCsr::upload(&q, &host).unwrap();
        let sources: Vec<u32> = (0..64).map(|i| (i * 7) % 80).collect();
        let got = bfs_multi(&q, &g, &sources, 64, &OptConfig::all()).unwrap();
        assert_eq!(got.batches, 1);
        for (i, &s) in sources.iter().enumerate() {
            assert_eq!(got.per_source[i], reference::bfs(&host, s), "lane {i}");
        }
    }
}
