//! SEP-Graph-like framework: hybrid push/pull execution with per-iteration
//! mode selection, using vector frontiers deduplicated through
//! vector→bitmap→vector conversions (§2.2: "SEP-graph switches between
//! vector and bitmap layouts to remove duplicate nodes").
//!
//! Modelled costs match the paper's observations:
//! * a preprocessing pass builds degree statistics and the CSC needed for
//!   pull mode (shorter than Tigr's transform, §5.2);
//! * every iteration pays a mode-selection pass ("this adaptability ...
//!   introduces a runtime overhead sometimes surpassing the algorithm's
//!   computational cost");
//! * the initial allocation burst (graph + CSC + frontiers) is the
//!   early memory spike of Figure 9, and pull mode's full-vertex scans
//!   are the mid-run spike on roadNet-CA;
//! * like Gunrock, BC snapshots one full-capacity frontier per level —
//!   OOM on road-USA (Table 6).
//!
//! CC: the paper "couldn't find any implementation compatible with
//! SEP-Graph"; `run(Cc, ..)` returns [`SimError::Unsupported`].

use sygraph_algos::Values;
use sygraph_core::frontier::{BitmapFrontier, BitmapLike, Frontier, VectorFrontier};
use sygraph_core::graph::{CsrHost, DeviceCsr, DeviceGraphView};
use sygraph_core::types::{VertexId, INF_DIST, INF_WEIGHT};
use sygraph_sim::{Queue, SimError, SimResult};

use crate::harness::{AlgoKind, Framework, RunRecord};
use crate::vecops::{advance_vector, bitmap_to_vector, frontier_degree_sum, vector_to_bitmap};

/// SEP-Graph-like comparator.
#[derive(Default)]
pub struct SepGraphLike {
    csr: Option<DeviceCsr>,
    csc: Option<DeviceCsr>,
    prep_ms: f64,
    /// Push→pull switch threshold: pull when `frontier > n / threshold`.
    pub pull_threshold: usize,
}

impl SepGraphLike {
    pub fn new() -> Self {
        SepGraphLike {
            pull_threshold: 16,
            ..Default::default()
        }
    }

    fn csr(&self) -> &DeviceCsr {
        self.csr.as_ref().expect("prepare() not called")
    }

    fn csc(&self) -> &DeviceCsr {
        self.csc.as_ref().expect("prepare() not called")
    }

    /// The per-iteration mode-selection pass: inspects frontier degrees
    /// to choose push vs pull. Its kernel cost is the adaptive runtime
    /// overhead the paper describes.
    fn select_mode(&self, q: &Queue, fin: &VectorFrontier, n: usize) -> SimResult<bool> {
        let _deg = frontier_degree_sum(q, self.csr(), fin)?;
        Ok(fin.len() > n / self.pull_threshold.max(1))
    }
}

impl Framework for SepGraphLike {
    fn name(&self) -> &'static str {
        "SEP-Graph"
    }

    fn prepare(&mut self, q: &Queue, host: &CsrHost) -> SimResult<()> {
        let t0 = q.now_ns();
        self.csr = Some(DeviceCsr::upload(q, host)?);
        // Pull mode needs the reverse graph.
        let csc_host = host.transpose()?;
        self.csc = Some(DeviceCsr::upload(q, &csc_host)?);
        // Degree-statistics and edge-partitioning passes used by the path
        // selector — device kernels, so SEP's preprocessing stays well
        // below Tigr's host-side transform (§5.2).
        let g = self.csr.as_ref().unwrap();
        let stats = q.malloc_device::<u32>(4)?;
        let offsets = &g.row_offsets;
        q.parallel_for("sep_stats", host.vertex_count(), |l, v| {
            let lo = l.load(offsets, v);
            let hi = l.load(offsets, v + 1);
            l.fetch_max(&stats, 0, hi - lo);
            l.fetch_add(&stats, 1, hi - lo);
            l.compute(2);
        });
        let cols = &g.col_indices;
        q.parallel_for("sep_partition", host.edge_count(), |l, e| {
            let _dst = l.load(cols, e);
            l.compute(3); // bucket classification
        });
        self.prep_ms = (q.now_ns() - t0) / 1e6;
        Ok(())
    }

    fn prep_ms(&self) -> f64 {
        self.prep_ms
    }

    fn run(&mut self, q: &Queue, algo: AlgoKind, src: VertexId) -> SimResult<RunRecord> {
        match algo {
            AlgoKind::Bfs => self.bfs(q, src),
            AlgoKind::Sssp => self.sssp(q, src),
            AlgoKind::Cc => Err(SimError::Unsupported(
                "no CC implementation compatible with SEP-Graph".into(),
            )),
            AlgoKind::Bc => self.bc(q, src),
        }
    }
}

/// Scratch shared by the SEP supersteps.
struct SepScratch {
    fin: VectorFrontier,
    raw: VectorFrontier,
    bitmap: BitmapFrontier<u32>,
}

impl SepScratch {
    fn new(q: &Queue, n: usize) -> SimResult<Self> {
        Ok(SepScratch {
            fin: VectorFrontier::with_capacity(q, n, n.max(16))?,
            raw: VectorFrontier::with_capacity(q, n, 16)?,
            bitmap: BitmapFrontier::<u32>::new(q, n)?,
        })
    }

    /// Push superstep: advance into `raw` (duplicates), then dedup via a
    /// bitmap round-trip back into `fin`.
    fn push_superstep(
        &mut self,
        q: &Queue,
        g: &DeviceCsr,
        functor: impl crate::vecops::VecAdvanceFunctor,
    ) -> SimResult<usize> {
        let deg = frontier_degree_sum(q, g, &self.fin)?;
        self.raw.ensure_capacity(q, deg.max(1))?;
        self.raw.clear(q);
        advance_vector(q, "sep_push", g, &self.fin, Some(&self.raw), functor);
        vector_to_bitmap(q, &self.raw, &self.bitmap);
        self.fin.ensure_capacity(q, self.raw.len().max(1))?;
        bitmap_to_vector(q, &self.bitmap, &self.fin);
        Ok(self.fin.len())
    }
}

impl SepGraphLike {
    fn bfs(&self, q: &Queue, src: VertexId) -> SimResult<RunRecord> {
        let n = self.csr().vertex_count();
        let t0 = q.now_ns();
        let dist = q.malloc_device::<u32>(n)?;
        q.fill(&dist, INF_DIST);
        dist.store(src as usize, 0);
        let mut s = SepScratch::new(q, n)?;
        s.fin.insert_host(src);
        let mut iter = 0u32;
        loop {
            q.mark(format!("sep_bfs_iter{iter}"));
            let pull = self.select_mode(q, &s.fin, n)?;
            let next = iter + 1;
            let len = if pull {
                // Pull: scan in-edges of unvisited vertices against the
                // current frontier bitmap.
                vector_to_bitmap(q, &s.fin, &s.bitmap);
                let csc = self.csc();
                let words = s.bitmap.words();
                s.raw.ensure_capacity(q, n)?;
                s.raw.clear(q);
                let raw = &s.raw;
                q.parallel_for("sep_pull", n, |l, v| {
                    if l.load(&dist, v) != INF_DIST {
                        return;
                    }
                    let (lo, hi) = csc.row_bounds(l, v as u32);
                    for e in lo..hi {
                        let u = csc.edge_dest(l, e);
                        let wi = (u / 32) as usize;
                        if l.load(words, wi) & (1 << (u % 32)) != 0 {
                            l.store(&dist, v, next);
                            raw.append_lane(l, v as u32);
                            break;
                        }
                    }
                });
                std::mem::swap(&mut s.fin, &mut s.raw);
                s.fin.len()
            } else {
                let len = s.push_superstep(q, self.csr(), |l, _u, v, _e, _w| {
                    l.load(&dist, v as usize) == INF_DIST
                })?;
                let items = s.fin.items();
                q.parallel_for("sep_stamp", len, |l, i| {
                    let v = l.load(items, i) as usize;
                    l.store(&dist, v, next);
                });
                len
            };
            iter += 1;
            if len == 0 {
                break;
            }
            if iter as usize > n + 1 {
                return Err(SimError::Algorithm("sep bfs diverged".into()));
            }
        }
        Ok(RunRecord {
            algo_ms: (q.now_ns() - t0) / 1e6,
            iterations: iter,
            values: Values::U32(dist.to_vec()),
        })
    }

    fn sssp(&self, q: &Queue, src: VertexId) -> SimResult<RunRecord> {
        let n = self.csr().vertex_count();
        let t0 = q.now_ns();
        let dist = q.malloc_device::<f32>(n)?;
        q.fill(&dist, INF_WEIGHT);
        dist.store(src as usize, 0.0);
        let mut s = SepScratch::new(q, n)?;
        s.fin.insert_host(src);
        let mut iter = 0u32;
        loop {
            q.mark(format!("sep_sssp_iter{iter}"));
            let pull = self.select_mode(q, &s.fin, n)?;
            let len = if pull {
                // Pull relaxation: every vertex recomputes its best
                // in-distance; improved vertices form the next frontier.
                let csc = self.csc();
                s.raw.ensure_capacity(q, n)?;
                s.raw.clear(q);
                let raw = &s.raw;
                q.parallel_for("sep_pull_sssp", n, |l, v| {
                    let (lo, hi) = csc.row_bounds(l, v as u32);
                    let mut best = f32::INFINITY;
                    for e in lo..hi {
                        let u = csc.edge_dest(l, e);
                        let w = csc.edge_weight(l, e);
                        let du = l.load(&dist, u as usize);
                        if du + w < best {
                            best = du + w;
                        }
                        l.compute(2);
                    }
                    if best < l.load(&dist, v) {
                        l.store(&dist, v, best);
                        raw.append_lane(l, v as u32);
                    }
                });
                std::mem::swap(&mut s.fin, &mut s.raw);
                s.fin.len()
            } else {
                s.push_superstep(q, self.csr(), |l, u, v, _e, w| {
                    let du = l.load(&dist, u as usize);
                    let nd = du + w;
                    let old = l.fetch_min_f32(&dist, v as usize, nd);
                    nd < old
                })?
            };
            iter += 1;
            if len == 0 {
                break;
            }
            if iter as usize > 4 * n + 16 {
                return Err(SimError::Algorithm("sep sssp diverged".into()));
            }
        }
        Ok(RunRecord {
            algo_ms: (q.now_ns() - t0) / 1e6,
            iterations: iter,
            values: Values::F32(dist.to_vec()),
        })
    }

    fn bc(&self, q: &Queue, src: VertexId) -> SimResult<RunRecord> {
        let g = self.csr();
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
        let mut s = SepScratch::new(q, n)?;
        s.fin.insert_host(src);
        let mut levels: Vec<VectorFrontier> = Vec::new();
        let mut d = 0u32;
        loop {
            q.mark(format!("sep_bc_fwd{d}"));
            // level snapshot at the usual ×2 slack capacity, never shrunk
            // (the road-graph OOM source, as in Gunrock)
            let snap = VectorFrontier::with_capacity(q, n, (2 * n).max(16))?;
            let items = s.fin.items();
            let len = s.fin.len();
            q.parallel_for("sep_bc_snapshot", len, |l, i| {
                let v = l.load(items, i);
                snap.append_lane(l, v);
            });
            levels.push(snap);
            let next_d = d + 1;
            let len = s.push_superstep(q, g, |l, u, v, _e, _w| {
                let old = l.fetch_min(&depth, v as usize, next_d);
                if old >= next_d {
                    let su = l.load(&sigma, u as usize);
                    l.fetch_add_f32(&sigma, v as usize, su);
                    old == INF_DIST
                } else {
                    false
                }
            })?;
            if len == 0 {
                break;
            }
            d += 1;
            if d as usize > n + 1 {
                return Err(SimError::Algorithm("sep bc diverged".into()));
            }
        }
        for (level, frontier) in levels.iter().enumerate().rev().skip(1) {
            q.mark(format!("sep_bc_bwd{level}"));
            let next_depth = level as u32 + 1;
            advance_vector(q, "sep_bc_back", g, frontier, None, |l, u, v, _e, _w| {
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

    fn check(host: &CsrHost, src: u32, algos: &[AlgoKind]) {
        for &algo in algos {
            let q = Queue::new(Device::new(DeviceProfile::host_test()));
            let mut fw = SepGraphLike::new();
            fw.prepare(&q, host).unwrap();
            let rec = fw.run(&q, algo, src).unwrap();
            validate_against_reference(host, algo, src, &rec.values)
                .unwrap_or_else(|e| panic!("SEP {}: {e}", algo.name()));
            assert!(fw.prep_ms() > 0.0, "SEP has preprocessing");
        }
    }

    #[test]
    fn correct_on_small_graph() {
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
        check(&host, 0, &[AlgoKind::Bfs, AlgoKind::Sssp, AlgoKind::Bc]);
    }

    #[test]
    fn pull_mode_engages_on_dense_graph() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(77);
        let n = 120u32;
        let edges: Vec<(u32, u32)> = (0..3000)
            .map(|_| (rng.random_range(0..n), rng.random_range(0..n)))
            .collect();
        let host = CsrHost::from_edges(n as usize, &edges);
        // dense: the frontier quickly exceeds n/16 so pull runs
        check(&host, 0, &[AlgoKind::Bfs, AlgoKind::Sssp]);
    }

    #[test]
    fn cc_is_unsupported() {
        let host = CsrHost::from_edges(3, &[(0, 1), (1, 0)]);
        let q = Queue::new(Device::new(DeviceProfile::host_test()));
        let mut fw = SepGraphLike::new();
        fw.prepare(&q, &host).unwrap();
        match fw.run(&q, AlgoKind::Cc, 0) {
            Err(SimError::Unsupported(_)) => {}
            other => panic!("expected Unsupported, got {other:?}"),
        }
    }

    #[test]
    fn bc_correct_on_random_graph() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(8);
        let n = 90u32;
        let mut edges: Vec<(u32, u32)> = Vec::new();
        for _ in 0..400 {
            let (u, v) = (rng.random_range(0..n), rng.random_range(0..n));
            edges.push((u, v));
        }
        let host = CsrHost::from_edges(n as usize, &edges);
        check(&host, 1, &[AlgoKind::Bc]);
    }
}
