//! Tigr-like framework: a Uniform-Degree Tree (UDT) preprocessing step
//! splits every high-degree vertex into virtual nodes of degree ≤ K, then
//! algorithms run *topology-driven* over the virtual node array with
//! per-vertex active flags — no frontier data structure at all (§2.2).
//!
//! Modelled costs match the paper's observations:
//! * preprocessing is a host-side graph transformation, charged at a
//!   CPU-speed analytic cost (the `>99×` WPP entries of Table 6);
//! * the virtual adjacency is *padded* to K slots per virtual node (the
//!   GPU-friendly layout), which is why Tigr uses 14 GB where SYgraph
//!   uses 280 MB on roadNet-CA (Figure 9);
//! * every iteration sweeps all virtual nodes, so huge-diameter road
//!   graphs pay diameter × |V| work — Tigr's weak spot — while
//!   low-diameter scale-free graphs are efficiently load-balanced.

use sygraph_algos::Values;
use sygraph_core::frontier::{BoolmapFrontier, Frontier};
use sygraph_core::graph::CsrHost;
use sygraph_core::types::{VertexId, INF_DIST, INF_WEIGHT};
use sygraph_sim::{DeviceBuffer, Queue, SimError, SimResult};

use crate::harness::{AlgoKind, Framework, RunRecord};

/// Maximum virtual-node degree after the UDT split.
pub const UDT_K: usize = 64;

/// Modelled host-side transform cost: passes over edges and vertices at
/// CPU memory speed.
const PREP_NS_PER_EDGE: f64 = 25.0;
const PREP_NS_PER_VERTEX: f64 = 10.0;

/// The uploaded UDT representation.
struct UdtGraph {
    n: usize,
    vnum: usize,
    /// Owner (real vertex) of each virtual node.
    vowner: DeviceBuffer<u32>,
    /// Valid neighbor count of each virtual node (≤ K).
    vdeg: DeviceBuffer<u32>,
    /// Padded adjacency: `vnum × K` slots.
    vadj: DeviceBuffer<u32>,
    /// Padded weights, present iff the input was weighted.
    vweights: Option<DeviceBuffer<f32>>,
}

/// Tigr-like comparator.
#[derive(Default)]
pub struct TigrLike {
    udt: Option<UdtGraph>,
    prep_ms: f64,
}

impl TigrLike {
    pub fn new() -> Self {
        Self::default()
    }

    fn udt(&self) -> &UdtGraph {
        self.udt.as_ref().expect("prepare() not called")
    }
}

impl Framework for TigrLike {
    fn name(&self) -> &'static str {
        "Tigr"
    }

    fn prepare(&mut self, q: &Queue, host: &CsrHost) -> SimResult<()> {
        let n = host.vertex_count();
        let m = host.edge_count();
        // Host-side UDT split.
        let mut vowner = Vec::new();
        let mut vdeg = Vec::new();
        let mut vadj: Vec<u32> = Vec::new();
        let mut vweights: Option<Vec<f32>> = host.weights.as_ref().map(|_| Vec::new());
        for v in 0..n as u32 {
            let nbrs = host.neighbors(v);
            let ws = host.neighbor_weights(v);
            let chunks = nbrs.len().div_ceil(UDT_K).max(1);
            for c in 0..chunks {
                let lo = c * UDT_K;
                let hi = (lo + UDT_K).min(nbrs.len());
                vowner.push(v);
                vdeg.push((hi - lo) as u32);
                let mut slot = [0u32; UDT_K];
                slot[..hi - lo].copy_from_slice(&nbrs[lo..hi]);
                vadj.extend_from_slice(&slot);
                if let (Some(out), Some(ws)) = (vweights.as_mut(), ws) {
                    let mut wslot = [0f32; UDT_K];
                    wslot[..hi - lo].copy_from_slice(&ws[lo..hi]);
                    out.extend_from_slice(&wslot);
                }
            }
        }
        let vnum = vowner.len();
        let d_owner = q.malloc_device::<u32>(vnum)?;
        d_owner.copy_from_slice(&vowner);
        let d_deg = q.malloc_device::<u32>(vnum)?;
        d_deg.copy_from_slice(&vdeg);
        let d_adj = q.malloc_device::<u32>(vnum * UDT_K)?;
        d_adj.copy_from_slice(&vadj);
        let d_w = match vweights {
            Some(ws) => {
                let b = q.malloc_device::<f32>(vnum * UDT_K)?;
                b.copy_from_slice(&ws);
                Some(b)
            }
            None => None,
        };
        self.udt = Some(UdtGraph {
            n,
            vnum,
            vowner: d_owner,
            vdeg: d_deg,
            vadj: d_adj,
            vweights: d_w,
        });
        // Analytic host transform cost (three passes over the edges, one
        // over the vertices, at CPU memory speed).
        self.prep_ms = (m as f64 * PREP_NS_PER_EDGE + n as f64 * PREP_NS_PER_VERTEX) / 1e6;
        Ok(())
    }

    fn prep_ms(&self) -> f64 {
        self.prep_ms
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

impl TigrLike {
    /// Topology-driven superstep: sweep *all* virtual nodes; process the
    /// neighbors of those whose owner is active.
    fn sweep(
        &self,
        q: &Queue,
        name: &'static str,
        fin: &BoolmapFrontier,
        body: impl Fn(&mut sygraph_sim::ItemCtx<'_>, u32, u32, f32) + Sync,
    ) {
        let udt = self.udt();
        let vowner = &udt.vowner;
        let vdeg = &udt.vdeg;
        let vadj = &udt.vadj;
        let vweights = udt.vweights.as_ref();
        q.parallel_for(name, udt.vnum, |l, i| {
            let owner = l.load(vowner, i);
            if !fin.test_lane(l, owner) {
                return;
            }
            let deg = l.load(vdeg, i) as usize;
            for k in 0..deg {
                let nbr = l.load(vadj, i * UDT_K + k);
                let w = match vweights {
                    Some(ws) => l.load(ws, i * UDT_K + k),
                    None => 1.0,
                };
                body(l, owner, nbr, w);
                l.compute(2);
            }
        });
    }

    fn bfs(&self, q: &Queue, src: VertexId) -> SimResult<RunRecord> {
        let udt = self.udt();
        let n = udt.n;
        let t0 = q.now_ns();
        let dist = q.malloc_device::<u32>(n)?;
        q.fill(&dist, INF_DIST);
        dist.store(src as usize, 0);
        let mut fin = BoolmapFrontier::new(q, n)?;
        let mut fout = BoolmapFrontier::new(q, n)?;
        fin.insert_host(src);
        let mut iter = 0u32;
        loop {
            q.mark(format!("tigr_bfs_iter{iter}"));
            let next = iter + 1;
            self.sweep(q, "tigr_bfs", &fin, |l, _u, v, _w| {
                if l.load(&dist, v as usize) == INF_DIST {
                    // benign race: all writers store the same level
                    l.store(&dist, v as usize, next);
                    fout.insert_lane(l, v);
                }
            });
            std::mem::swap(&mut fin, &mut fout);
            fout.clear(q);
            iter += 1;
            if fin.is_empty(q) {
                break;
            }
            if iter as usize > n + 1 {
                return Err(SimError::Algorithm("tigr bfs diverged".into()));
            }
        }
        Ok(RunRecord {
            algo_ms: (q.now_ns() - t0) / 1e6,
            iterations: iter,
            values: Values::U32(dist.to_vec()),
        })
    }

    fn sssp(&self, q: &Queue, src: VertexId) -> SimResult<RunRecord> {
        let udt = self.udt();
        let n = udt.n;
        let t0 = q.now_ns();
        let dist = q.malloc_device::<f32>(n)?;
        q.fill(&dist, INF_WEIGHT);
        dist.store(src as usize, 0.0);
        let mut fin = BoolmapFrontier::new(q, n)?;
        let mut fout = BoolmapFrontier::new(q, n)?;
        fin.insert_host(src);
        let mut iter = 0u32;
        loop {
            q.mark(format!("tigr_sssp_iter{iter}"));
            self.sweep(q, "tigr_sssp", &fin, |l, u, v, w| {
                let du = l.load(&dist, u as usize);
                let nd = du + w;
                let old = l.fetch_min_f32(&dist, v as usize, nd);
                if nd < old {
                    fout.insert_lane(l, v);
                }
            });
            std::mem::swap(&mut fin, &mut fout);
            fout.clear(q);
            iter += 1;
            if fin.is_empty(q) {
                break;
            }
            if iter as usize > 4 * n + 16 {
                return Err(SimError::Algorithm("tigr sssp diverged".into()));
            }
        }
        Ok(RunRecord {
            algo_ms: (q.now_ns() - t0) / 1e6,
            iterations: iter,
            values: Values::F32(dist.to_vec()),
        })
    }

    fn cc(&self, q: &Queue) -> SimResult<RunRecord> {
        let udt = self.udt();
        let n = udt.n;
        let t0 = q.now_ns();
        let labels = q.malloc_device::<u32>(n)?;
        q.parallel_for("tigr_cc_init", n, |l, v| l.store(&labels, v, v as u32));
        let mut fin = BoolmapFrontier::new(q, n)?;
        let mut fout = BoolmapFrontier::new(q, n)?;
        fin.fill_all(q);
        let mut iter = 0u32;
        loop {
            q.mark(format!("tigr_cc_iter{iter}"));
            self.sweep(q, "tigr_cc", &fin, |l, u, v, _w| {
                let lu = l.load(&labels, u as usize);
                let old = l.fetch_min(&labels, v as usize, lu);
                if lu < old {
                    fout.insert_lane(l, v);
                }
            });
            std::mem::swap(&mut fin, &mut fout);
            fout.clear(q);
            iter += 1;
            if fin.is_empty(q) {
                break;
            }
            if iter as usize > n + 1 {
                return Err(SimError::Algorithm("tigr cc diverged".into()));
            }
        }
        Ok(RunRecord {
            algo_ms: (q.now_ns() - t0) / 1e6,
            iterations: iter,
            values: Values::U32(labels.to_vec()),
        })
    }

    fn bc(&self, q: &Queue, src: VertexId) -> SimResult<RunRecord> {
        let udt = self.udt();
        let n = udt.n;
        let t0 = q.now_ns();
        let depth = q.malloc_device::<u32>(n)?;
        let sigma = q.malloc_device::<f32>(n)?;
        let delta = q.malloc_device::<f32>(n)?;
        q.fill(&depth, INF_DIST);
        q.fill(&sigma, 0.0);
        q.fill(&delta, 0.0);
        depth.store(src as usize, 0);
        sigma.store(src as usize, 1.0);
        let mut fin = BoolmapFrontier::new(q, n)?;
        let mut fout = BoolmapFrontier::new(q, n)?;
        fin.insert_host(src);
        let mut d = 0u32;
        // forward
        loop {
            q.mark(format!("tigr_bc_fwd{d}"));
            let next = d + 1;
            self.sweep(q, "tigr_bc_fwd", &fin, |l, u, v, _w| {
                let old = l.fetch_min(&depth, v as usize, next);
                if old >= next {
                    let su = l.load(&sigma, u as usize);
                    l.fetch_add_f32(&sigma, v as usize, su);
                    if old == INF_DIST {
                        fout.insert_lane(l, v);
                    }
                }
            });
            std::mem::swap(&mut fin, &mut fout);
            fout.clear(q);
            if fin.is_empty(q) {
                break;
            }
            d += 1;
            if d as usize > n + 1 {
                return Err(SimError::Algorithm("tigr bc diverged".into()));
            }
        }
        // backward: one full virtual-node sweep per level (depth array
        // selects the level — no stored frontiers, but diameter sweeps).
        let levels = d; // deepest level with vertices
        let active = BoolmapFrontier::new(q, n)?;
        active.fill_all(q);
        for level in (0..levels).rev() {
            q.mark(format!("tigr_bc_bwd{level}"));
            let next_depth = level + 1;
            self.sweep(q, "tigr_bc_bwd", &active, |l, u, v, _w| {
                if l.load(&depth, u as usize) == level && l.load(&depth, v as usize) == next_depth {
                    let su = l.load(&sigma, u as usize);
                    let sv = l.load(&sigma, v as usize);
                    let dv = l.load(&delta, v as usize);
                    l.fetch_add_f32(&delta, u as usize, su / sv * (1.0 + dv));
                }
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
            let mut fw = TigrLike::new();
            fw.prepare(&q, host).unwrap();
            let rec = fw.run(&q, algo, src).unwrap();
            validate_against_reference(host, algo, src, &rec.values)
                .unwrap_or_else(|e| panic!("Tigr {}: {e}", algo.name()));
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
        check_all(&host, 0);
    }

    #[test]
    fn correct_with_high_degree_splits() {
        // hub with degree 200 > K forces multi-virtual-node splits
        let mut edges: Vec<(u32, u32)> = (1..=200).map(|v| (0, v)).collect();
        edges.extend((1..=200).map(|v| (v, 0)));
        let host = CsrHost::from_edges(201, &edges);
        check_all(&host, 5);
    }

    #[test]
    fn udt_has_preprocessing_cost_and_padded_memory() {
        let host = CsrHost::from_edges(100, &[(0, 1), (1, 0)]);
        let q = Queue::new(Device::new(DeviceProfile::host_test()));
        let mut fw = TigrLike::new();
        fw.prepare(&q, &host).unwrap();
        assert!(fw.prep_ms() > 0.0);
        // padded adjacency: ~100 virtual nodes x 64 slots x 4B
        assert!(
            q.device().mem_used() >= 100 * UDT_K as u64 * 4,
            "padding should dominate: {}",
            q.device().mem_used()
        );
    }

    #[test]
    fn virtual_node_count() {
        let mut edges: Vec<(u32, u32)> = (1..=130).map(|v| (0, v)).collect();
        edges.push((1, 0));
        let host = CsrHost::from_edges(131, &edges);
        let q = Queue::new(Device::new(DeviceProfile::host_test()));
        let mut fw = TigrLike::new();
        fw.prepare(&q, &host).unwrap();
        // vertex 0: deg 130 -> 3 virtual nodes; others 1 each
        assert_eq!(fw.udt().vnum, 3 + 130);
    }
}
