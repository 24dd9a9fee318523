//! Partitioned multi-device BFS / SSSP / CC.
//!
//! Each algorithm shards the graph with
//! [`PartitionedGraph`](sygraph_core::graph::PartitionedGraph), keeps one
//! state buffer per partition over the *local* ID space (owned prefix +
//! halo tail), and runs the
//! [`MultiDeviceEngine`](sygraph_core::engine::MultiDeviceEngine) BSP
//! loop. Halo entries are *replicas*: the local advance stamps them like
//! any destination, the exchange ships the replica value to the owner,
//! and the owner min-merges. All three algorithms are min-combine
//! fixpoints (BFS level, SSSP distance, CC label), so the merge order
//! never shows in the result — partitioned runs are bit-identical to the
//! single-device reference path (see `tests/multi_device.rs`).
//!
//! The advance and compute functors are the single-device ones
//! ([`bfs::unvisited`], [`bfs::stamp_level`], [`sssp::relax`],
//! [`cc::propagate_min`]), built over each shard's local-ID state buffer —
//! the partitioned path adds plumbing, never new arithmetic.

use sygraph_core::engine::{
    CheckpointState, HaloLink, MultiDeviceEngine, StepAdvanceDyn, StepComputeDyn, SuperstepExchange,
};
use sygraph_core::frontier::exchange::{ExchangeConfig, ExchangeTally};
use sygraph_core::frontier::Word;
use sygraph_core::graph::{DeviceCsr, DevicePartition, PartitionedGraph};
use sygraph_core::inspector::{OptConfig, Tuning};
use sygraph_core::types::{VertexId, INF_DIST, INF_WEIGHT};
use sygraph_sim::{DeviceBuffer, DeviceScalar, Queue, SimResult};

use crate::{bfs, cc, dispatch_by_word, sssp};

/// Result of a partitioned run: the gathered global values plus the
/// exchange accounting the single-device [`crate::common::AlgoResult`]
/// has no place for.
pub struct PartitionedResult<T> {
    /// Per-vertex values in *global* ID order (owner entries; halo
    /// replicas are discarded).
    pub values: Vec<T>,
    /// Global supersteps until the union frontier emptied.
    pub supersteps: u32,
    /// Simulated wall time: the slowest device's clock delta.
    pub sim_ms: f64,
    /// Exchange totals across the run.
    pub exchange: ExchangeTally,
    /// Per-superstep exchange summaries (supersteps that moved bytes).
    pub per_superstep: Vec<SuperstepExchange>,
    /// Checkpoint resumes taken across all partitions (device-lost
    /// recovery; 0 on a clean run).
    pub resumes: u32,
}

/// A state value's trip through the exchange: to the 64 bits a halo
/// message carries, and back.
type Wire<T> = (fn(T) -> u64, fn(u64) -> T);

trait HaloValue: DeviceScalar + PartialOrd {
    const WIRE: Wire<Self>;
}

/// BFS levels and CC labels travel as themselves.
impl HaloValue for u32 {
    const WIRE: Wire<u32> = (u64::from, |bits| bits as u32);
}

/// SSSP distances travel as IEEE bits.
impl HaloValue for f32 {
    const WIRE: Wire<f32> = (|d| d.to_bits() as u64, |bits| f32::from_bits(bits as u32));
}

/// Min-merge link over per-partition state.
struct MinLink<'a, T: HaloValue> {
    state: &'a [DeviceBuffer<T>],
}

impl<T: HaloValue> HaloLink for MinLink<'_, T> {
    fn replica(&self, part: usize, lid: u32) -> u64 {
        (T::WIRE.0)(self.state[part].load(lid as usize))
    }

    fn merge(&self, part: usize, lid: u32, value: u64) -> bool {
        let v = (T::WIRE.1)(value);
        let lower = v < self.state[part].load(lid as usize);
        if lower {
            self.state[part].store(lid as usize, v);
        }
        lower
    }
}

type MakeAdvance<T> = for<'d> fn(&'d DeviceBuffer<T>) -> Box<StepAdvanceDyn<'d>>;
type MakeCompute<T> = for<'d> fn(&'d DeviceBuffer<T>) -> Box<StepComputeDyn<'d>>;

/// What tells the three algorithms apart; [`run`] is the rest.
struct Program<T: HaloValue> {
    /// Marker prefix of the engines' kernels.
    mark: &'static str,
    /// Initial state of one shard, over its local ID space.
    init: fn(&Queue, &DevicePartition, &DeviceBuffer<T>),
    /// Rooted run: the source and its initial value. `None` starts every
    /// owned vertex active.
    root: Option<(VertexId, T)>,
    advance: MakeAdvance<T>,
    compute: Option<MakeCompute<T>>,
}

/// Partitioned BFS from `src`: hop distances, `INF_DIST` when unreached.
/// `queues.len()` must equal `pg.part_count()`.
pub fn bfs(
    queues: &[Queue],
    pg: &PartitionedGraph,
    src: VertexId,
    opts: &OptConfig,
    excfg: ExchangeConfig,
) -> SimResult<PartitionedResult<u32>> {
    let program = Program {
        mark: "mbfs",
        init: |q, _, dist| _ = q.fill(dist, INF_DIST),
        root: Some((src, 0)),
        advance: |dist| Box::new(bfs::unvisited(dist)),
        compute: Some(|dist| Box::new(bfs::stamp_level(dist))),
    };
    run(queues, pg, opts, excfg, program)
}

/// Partitioned Bellman-Ford SSSP from `src`: weighted distances,
/// `f32::INFINITY` when unreached. Unweighted shards relax unit weights.
pub fn sssp(
    queues: &[Queue],
    pg: &PartitionedGraph,
    src: VertexId,
    opts: &OptConfig,
    excfg: ExchangeConfig,
) -> SimResult<PartitionedResult<f32>> {
    let program = Program {
        mark: "msssp",
        init: |q, _, dist| _ = q.fill(dist, INF_WEIGHT),
        root: Some((src, 0.0)),
        advance: |dist| Box::new(sssp::relax(dist)),
        compute: None,
    };
    run(queues, pg, opts, excfg, program)
}

/// Partitioned label-propagation CC over a symmetric graph: per-vertex
/// minimum-ID component labels. (Plain propagation, not shortcutting —
/// pointer jumping chases label chains through *global* random access,
/// which a shard cannot do; the min-label fixpoint is identical.)
pub fn cc(
    queues: &[Queue],
    pg: &PartitionedGraph,
    opts: &OptConfig,
    excfg: ExchangeConfig,
) -> SimResult<PartitionedResult<u32>> {
    let program = Program {
        mark: "mcc",
        // Every local slot (owned and halo alike) starts as its *global*
        // ID: exactly the single-device `labels[v] = v` seeding,
        // shard-local.
        init: |_, part, labels| labels.copy_from_slice(&part.local_to_global),
        root: None,
        advance: |labels| Box::new(cc::propagate_min(labels)),
        compute: None,
    };
    run(queues, pg, opts, excfg, program)
}

fn run<T: HaloValue>(
    queues: &[Queue],
    pg: &PartitionedGraph,
    opts: &OptConfig,
    excfg: ExchangeConfig,
    program: Program<T>,
) -> SimResult<PartitionedResult<T>> {
    dispatch_by_word!(
        queues[0],
        opts,
        pg.n,
        run_impl::<T>(queues, pg, excfg, program)
    )
}

/// The one driver: shard upload, per-shard state, engines, BSP loop,
/// gather.
fn run_impl<W: Word, T: HaloValue>(
    queues: &[Queue],
    pg: &PartitionedGraph,
    excfg: ExchangeConfig,
    program: Program<T>,
    tuning: &Tuning,
) -> SimResult<PartitionedResult<T>> {
    let slowest_ns = || queues.iter().map(Queue::now_ns).fold(0.0, f64::max);
    let graphs = (pg.parts.iter().zip(queues))
        .map(|(part, q)| DeviceCsr::upload(q, &part.local_graph))
        .collect::<SimResult<Vec<DeviceCsr>>>()?;
    // Clock the traversal only: single-device `sim_ms` starts after the
    // caller's graph upload, so the partitioned number must too.
    let t0 = slowest_ns();

    let mut state = Vec::with_capacity(pg.part_count());
    for (part, q) in pg.parts.iter().zip(queues) {
        let buf = q.malloc_device::<T>(part.local_len().max(1))?;
        (program.init)(q, part, &buf);
        state.push(buf);
    }

    let ckpt: Vec<Vec<&dyn CheckpointState>> = state
        .iter()
        .map(|d| vec![d as &dyn CheckpointState])
        .collect();
    let mut mde =
        MultiDeviceEngine::<W>::new(pg, queues, &graphs, *tuning, excfg, &ckpt, program.mark)?;
    match program.root {
        Some((src, value)) => {
            assert!((src as usize) < pg.n, "source out of range");
            state[pg.owner_of(src) as usize].store(pg.owner_local_of(src) as usize, value);
            mde.seed(src);
        }
        None => mde.seed_all_owned(),
    }

    let advances: Vec<_> = state.iter().map(program.advance).collect();
    let computes: Vec<_> = state
        .iter()
        .map(|d| program.compute.map(|f| f(d)))
        .collect();
    let adv_refs: Vec<&StepAdvanceDyn<'_>> = advances.iter().map(|b| b.as_ref()).collect();
    let comp_refs: Vec<Option<&StepComputeDyn<'_>>> =
        computes.iter().map(|b| b.as_deref()).collect();

    let supersteps = mde.run(&adv_refs, &comp_refs, &MinLink { state: &state })?;
    let locals: Vec<Vec<T>> = state.iter().map(|d| d.to_vec()).collect();
    Ok(PartitionedResult {
        values: pg.gather(&locals),
        supersteps,
        sim_ms: (slowest_ns() - t0) / 1e6,
        exchange: mde.exchange_total(),
        per_superstep: mde.exchange_per_superstep().to_vec(),
        resumes: mde.resumes(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use sygraph_core::graph::{CsrHost, PartitionSpec};
    use sygraph_sim::{Device, DeviceProfile, TraceKind};

    fn queues(n: usize) -> Vec<Queue> {
        (0..n)
            .map(|_| Queue::new(Device::new(DeviceProfile::host_test())))
            .collect()
    }

    fn chain_and_branches() -> CsrHost {
        CsrHost::from_edges(
            8,
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 4),
                (0, 5),
                (5, 6),
                (2, 6),
                (6, 7),
            ],
        )
    }

    #[test]
    fn bfs_matches_reference_across_device_counts() {
        let host = chain_and_branches();
        let want = reference::bfs(&host, 0);
        for parts in [1u32, 2, 3, 4] {
            for spec in [PartitionSpec::Hash, PartitionSpec::Range] {
                let pg = PartitionedGraph::build(&host, spec, parts);
                let qs = queues(parts as usize);
                let got = bfs(&qs, &pg, 0, &OptConfig::all(), ExchangeConfig::default()).unwrap();
                assert_eq!(got.values, want, "{} × {parts}", spec.label());
            }
        }
    }

    #[test]
    fn single_partition_needs_no_exchange() {
        let host = chain_and_branches();
        let pg = PartitionedGraph::build(&host, PartitionSpec::Hash, 1);
        let qs = queues(1);
        let got = bfs(&qs, &pg, 0, &OptConfig::all(), ExchangeConfig::default()).unwrap();
        assert_eq!(got.exchange.bytes, 0);
        assert_eq!(got.exchange.msgs, 0);
        assert!(got.per_superstep.is_empty());
    }

    #[test]
    fn sssp_matches_single_device_bitwise() {
        let host = CsrHost::from_edges_weighted(
            6,
            &[(0, 1), (0, 2), (2, 1), (1, 3), (3, 4), (2, 5), (5, 4)],
            Some(&[10.0, 1.0, 2.0, 1.0, 0.5, 9.0, 0.25]),
        );
        let q1 = queues(1);
        let g = DeviceCsr::upload(&q1[0], &host).unwrap();
        let single = crate::sssp::run(&q1[0], &g, 0, &OptConfig::all()).unwrap();
        for parts in [2u32, 3] {
            let pg = PartitionedGraph::build(&host, PartitionSpec::Range, parts);
            let qs = queues(parts as usize);
            let got = sssp(&qs, &pg, 0, &OptConfig::all(), ExchangeConfig::default()).unwrap();
            let a: Vec<u32> = got.values.iter().map(|v| v.to_bits()).collect();
            let b: Vec<u32> = single.values.iter().map(|v| v.to_bits()).collect();
            assert_eq!(a, b, "{parts} parts");
        }
    }

    #[test]
    fn cc_matches_reference_on_undirected_graph() {
        let host = CsrHost::from_edges(7, &[(0, 1), (1, 2), (3, 4), (5, 6)])
            .to_undirected()
            .unwrap();
        let want = reference::connected_components(&host);
        for spec in [PartitionSpec::Hash, PartitionSpec::Range] {
            let pg = PartitionedGraph::build(&host, spec, 3);
            let qs = queues(3);
            let got = cc(&qs, &pg, &OptConfig::all(), ExchangeConfig::default()).unwrap();
            assert_eq!(got.values, want, "{}", spec.label());
        }
    }

    #[test]
    fn exchange_bytes_flow_on_a_cross_partition_edge() {
        // 0 -> 1 with 0 and 1 on different partitions: one superstep must
        // ship exactly one activation.
        let host = CsrHost::from_edges(2, &[(0, 1)]);
        let pg = PartitionedGraph::build(&host, PartitionSpec::Range, 2);
        let qs = queues(2);
        let got = bfs(&qs, &pg, 0, &OptConfig::all(), ExchangeConfig::default()).unwrap();
        assert_eq!(got.values, vec![0, 1]);
        assert_eq!(got.exchange.msgs, 1);
        assert!(got.exchange.bytes > 0);
        assert_eq!(got.per_superstep.len(), 1);
        assert_eq!(got.per_superstep[0].accepted, 1);
        // The sender's log carries the exchange.
        let sent = |k: &TraceKind| matches!(k, TraceKind::Exchange { msgs: 1, .. });
        assert_eq!(qs[pg.owner_of(0) as usize].profiler().count(sent), 1);
    }
}
