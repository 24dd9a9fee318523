//! Multi-device integration matrix: partitioned BFS/SSSP/CC must be
//! bit-identical to the single-device algorithms across the 4-dataset
//! suite × {hash, range} × {1, 2, 4, 8} devices (values, not superstep
//! counts — the stale-layer-2 harvest adds a near-empty drain superstep
//! by design). A `DeviceLost` injected on one partition mid-run must
//! resume from that partition's boundary checkpoint and land on the same
//! values, without recovery events on any other partition.

use sygraph_algos::{bfs, cc, partitioned, sssp};
use sygraph_bench::sample_useful_sources;
use sygraph_core::engine::RecoveryPolicy;
use sygraph_core::frontier::exchange::ExchangeConfig;
use sygraph_core::graph::{CsrHost, DeviceCsr, PartitionSpec, PartitionedGraph};
use sygraph_core::inspector::OptConfig;
use sygraph_gen::{datasets, Dataset, Scale};
use sygraph_sim::{Device, DeviceProfile, FaultPlan, Queue};

mod common;

fn four_datasets() -> Vec<Dataset> {
    vec![
        datasets::road_ca(Scale::Test),
        datasets::hollywood(Scale::Test),
        datasets::indochina(Scale::Test),
        datasets::kron(Scale::Test),
    ]
}

fn queues(devices: u32) -> Vec<Queue> {
    (0..devices)
        .map(|_| Queue::new(Device::new(DeviceProfile::host_test())))
        .collect()
}

const DEVICE_COUNTS: [u32; 4] = [1, 2, 4, 8];
const SPECS: [PartitionSpec; 2] = [PartitionSpec::Hash, PartitionSpec::Range];

/// Single-device baseline values, bit-normalized to `u64` (f32 via
/// `to_bits`) so the matrix comparison is exact equality.
fn single_device(
    host: &CsrHost,
    undirected: &CsrHost,
    src: u32,
    opts: &OptConfig,
) -> [Vec<u64>; 3] {
    let q = Queue::new(Device::new(DeviceProfile::host_test()));
    let g = DeviceCsr::upload(&q, host).unwrap();
    let b = bfs::run(&q, &g, src, opts).unwrap();
    let s = sssp::run(&q, &g, src, opts).unwrap();
    let gu = DeviceCsr::upload(&q, undirected).unwrap();
    let c = cc::run(&q, &gu, opts).unwrap();
    [
        b.values.into_iter().map(u64::from).collect(),
        s.values
            .into_iter()
            .map(|v| u64::from(v.to_bits()))
            .collect(),
        c.values.into_iter().map(u64::from).collect(),
    ]
}

#[test]
fn partitioned_matrix_is_bit_identical_to_single_device() {
    let opts = OptConfig::all();
    let excfg = ExchangeConfig::default();
    for ds in four_datasets() {
        let undirected = ds.host.to_undirected().unwrap();
        let src = sample_useful_sources(&ds.host, 1, 42)[0];
        let base = single_device(&ds.host, &undirected, src, &opts);
        for spec in SPECS {
            for devices in DEVICE_COUNTS {
                let ctx = format!("{} × {:?} × {devices} devices", ds.name, spec);
                let pg = PartitionedGraph::build(&ds.host, spec, devices);
                let qs = queues(devices);
                let b = partitioned::bfs(&qs, &pg, src, &opts, excfg).unwrap();
                let got: Vec<u64> = b.values.into_iter().map(u64::from).collect();
                assert_eq!(got, base[0], "{ctx}: BFS diverged");
                if devices == 1 {
                    assert_eq!(b.exchange.bytes, 0, "{ctx}: 1 device never exchanges");
                }

                let qs = queues(devices);
                let s = partitioned::sssp(&qs, &pg, src, &opts, excfg).unwrap();
                let got: Vec<u64> = s
                    .values
                    .into_iter()
                    .map(|v| u64::from(v.to_bits()))
                    .collect();
                assert_eq!(got, base[1], "{ctx}: SSSP diverged");

                let pgu = PartitionedGraph::build(&undirected, spec, devices);
                let qs = queues(devices);
                let c = partitioned::cc(&qs, &pgu, &opts, excfg).unwrap();
                let got: Vec<u64> = c.values.into_iter().map(u64::from).collect();
                assert_eq!(got, base[2], "{ctx}: CC diverged");
            }
        }
    }
}

#[test]
fn device_lost_on_one_partition_resumes_without_disturbing_the_others() {
    let ds = datasets::road_ca(Scale::Test);
    let src = sample_useful_sources(&ds.host, 1, 42)[0];
    let mut opts = OptConfig::all();
    // Boundary-cadence checkpoints: the multi-device engine checkpoints
    // every superstep whenever checkpointing is on (see its module docs).
    opts.recovery = RecoveryPolicy::resilient(3, 1);
    let excfg = ExchangeConfig::default();
    let devices = 4u32;
    let pg = PartitionedGraph::build(&ds.host, PartitionSpec::Hash, devices);

    // Fault-free baseline, remembering each queue's launch counts so the
    // injection lands mid-loop on the busiest partition.
    let clean_qs = queues(devices);
    let clean = partitioned::bfs(&clean_qs, &pg, src, &opts, excfg).unwrap();
    assert_eq!(clean.resumes, 0);
    let (target, _) = clean_qs
        .iter()
        .map(|q| q.profiler().kernel_count())
        .enumerate()
        .max_by_key(|&(_, k)| k)
        .unwrap();
    let ordinal = common::first_launch(&clean_qs[target], 2);

    // Same run with partition `target`'s device dying mid-loop.
    let plan = FaultPlan::parse(&format!("lost@{ordinal}")).unwrap();
    let faulted_qs: Vec<Queue> = (0..devices as usize)
        .map(|p| {
            let dev = Device::new(DeviceProfile::host_test());
            if p == target {
                Queue::with_faults(dev, plan.clone())
            } else {
                Queue::new(dev)
            }
        })
        .collect();
    let recovered = partitioned::bfs(&faulted_qs, &pg, src, &opts, excfg).unwrap();

    assert_eq!(
        recovered.values, clean.values,
        "resumed run must be bit-identical to the fault-free run"
    );
    assert!(recovered.resumes >= 1, "the lost device must have resumed");
    for (p, q) in faulted_qs.iter().enumerate() {
        let events = common::recoveries(q).len();
        if p == target {
            assert!(events >= 1, "partition {p} should log its recovery");
        } else {
            assert_eq!(
                events, 0,
                "partition {p} was healthy and must stay undisturbed"
            );
        }
    }
}

#[test]
fn device_counts_beyond_vertices_still_converge() {
    // More partitions than vertices: some shards own nothing and must
    // still keep superstep alignment through to global convergence.
    let host = CsrHost::from_edges(3, &[(0, 1), (1, 2)]);
    let pg = PartitionedGraph::build(&host, PartitionSpec::Range, 8);
    let qs = queues(8);
    let r = partitioned::bfs(&qs, &pg, 0, &OptConfig::all(), ExchangeConfig::default()).unwrap();
    assert_eq!(r.values, vec![0, 1, 2]);
}
