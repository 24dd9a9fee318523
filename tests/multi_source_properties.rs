//! Multi-source batching properties: a W-lane batched run must be
//! indistinguishable (bit-identical for BFS distances, tolerance-bounded
//! for BC's float dependencies) from W sequential rooted runs, across the
//! 4-dataset suite × frontier representation × traversal direction — and
//! the equivalence must survive a mid-batch device-lost fault recovered
//! from a lane-aware checkpoint, and hold under the device-memory
//! sanitizer with zero findings.

use sygraph_algos::{bc, bfs, multi};
use sygraph_bench::sample_useful_sources;
use sygraph_core::engine::RecoveryPolicy;
use sygraph_core::graph::{DeviceCsr, Graph};
use sygraph_core::inspector::{Direction, OptConfig, Representation};
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

const REPS: [Representation; 3] = [
    Representation::Dense,
    Representation::Sparse,
    Representation::Auto,
];
const DIRS: [Direction; 2] = [Direction::Push, Direction::Auto];

fn opts_for(rep: Representation, dir: Direction) -> OptConfig {
    let mut opts = OptConfig::with_representation(rep);
    opts.direction = dir;
    opts
}

fn queue() -> Queue {
    Queue::new(Device::new(DeviceProfile::host_test()))
}

#[test]
fn batched_bfs_is_bit_identical_to_sequential_runs() {
    for ds in four_datasets() {
        let sources = sample_useful_sources(&ds.host, 8, 42);
        for rep in REPS {
            for dir in DIRS {
                let opts = opts_for(rep, dir);
                let ctx = format!("{} under {rep:?}/{dir:?}", ds.name);

                let q = queue();
                let g = DeviceCsr::upload(&q, &ds.host).unwrap();
                let batched = multi::bfs_multi(&q, &g, &sources, 8, &opts)
                    .unwrap_or_else(|e| panic!("{ctx}: batched run failed: {e}"));

                for (i, &s) in sources.iter().enumerate() {
                    let qs = queue();
                    let gs = DeviceCsr::upload(&qs, &ds.host).unwrap();
                    let solo = bfs::run(&qs, &gs, s, &opts).unwrap();
                    assert_eq!(
                        batched.per_source[i], solo.values,
                        "{ctx}: lane {i} (source {s}) diverged from the rooted run"
                    );
                }
            }
        }
    }
}

#[test]
fn batched_bc_matches_sequential_runs_within_tolerance() {
    for ds in four_datasets() {
        let sources = sample_useful_sources(&ds.host, 4, 7);
        for rep in REPS {
            for dir in DIRS {
                let opts = opts_for(rep, dir);
                let ctx = format!("{} under {rep:?}/{dir:?}", ds.name);

                let q = queue();
                // Half the matrix runs the CSC (in-edge) backward sweep,
                // half the push-only fallback — both must match serial.
                let g = if matches!(dir, Direction::Auto) {
                    Graph::with_pull(&q, &ds.host).unwrap()
                } else {
                    Graph::new(&q, &ds.host).unwrap()
                };
                let batched = multi::bc_multi(&q, &g, &sources, 8, &opts)
                    .unwrap_or_else(|e| panic!("{ctx}: batched run failed: {e}"));

                for (i, &s) in sources.iter().enumerate() {
                    let qs = queue();
                    let gs = DeviceCsr::upload(&qs, &ds.host).unwrap();
                    let solo = bc::run(&qs, &gs, s, &opts).unwrap();
                    assert!(
                        sygraph_algos::Algo::Bc
                            .determinism()
                            .agrees_f32(&solo.values, &batched.per_source[i]),
                        "{ctx}: lane {i} (source {s}) left BC's declared class"
                    );
                }
            }
        }
    }
}

#[test]
fn width_32_batch_matches_width_8_chunking() {
    // The same 32 sources through one 32-lane batch and four 8-lane
    // batches: identical distances either way (and to the rooted runs).
    let ds = datasets::kron(Scale::Test);
    let sources = sample_useful_sources(&ds.host, 32, 3);
    let opts = OptConfig::all();

    let q32 = queue();
    let g32 = DeviceCsr::upload(&q32, &ds.host).unwrap();
    let wide = multi::bfs_multi(&q32, &g32, &sources, 32, &opts).unwrap();
    assert_eq!(wide.batches, 1);

    let q8 = queue();
    let g8 = DeviceCsr::upload(&q8, &ds.host).unwrap();
    let narrow = multi::bfs_multi(&q8, &g8, &sources, 8, &opts).unwrap();
    assert_eq!(narrow.batches, 4);

    assert_eq!(wide.per_source, narrow.per_source);
    let qs = queue();
    let gs = DeviceCsr::upload(&qs, &ds.host).unwrap();
    let solo = bfs::run(&qs, &gs, sources[17], &opts).unwrap();
    assert_eq!(wide.per_source[17], solo.values);
}

#[test]
fn mid_batch_device_lost_resumes_bit_identically() {
    // A device-lost fault mid-batch restores the packed lane state (per
    // lane masks and the live set) from the lane-aware checkpoint; the
    // resumed batch must finish bit-identical to the fault-free one.
    let ds = datasets::hollywood(Scale::Test);
    let sources = sample_useful_sources(&ds.host, 8, 42);
    let mut opts = OptConfig::all();
    opts.recovery = RecoveryPolicy::resilient(3, 2);

    let clean = queue();
    let g = DeviceCsr::upload(&clean, &ds.host).unwrap();
    let base = multi::bfs_multi(&clean, &g, &sources, 8, &opts).unwrap();
    // The top of superstep 2: past the first checkpoint, with lanes still
    // in flight.
    let ordinal = common::first_launch(&clean, 2);
    let plan = FaultPlan::parse(&format!("lost@{ordinal}")).unwrap();
    let q = Queue::with_faults(Device::new(DeviceProfile::host_test()), plan);
    let gf = DeviceCsr::upload(&q, &ds.host).unwrap();
    let recovered = multi::bfs_multi(&q, &gf, &sources, 8, &opts).unwrap();

    assert_eq!(
        recovered.per_source, base.per_source,
        "recovered batch diverged from the fault-free batch"
    );
    assert_eq!(
        common::recoveries(&q).len(),
        1,
        "exactly one device-lost recovery expected"
    );
}

#[test]
fn batched_runs_are_sanitizer_clean() {
    // The lane kernels (lane fill/clear, masked advance, lane-aware lazy
    // clear, vis merges) under full shadow tracking + shuffled
    // re-execution: no out-of-bounds, no use-after-free, no data races,
    // no workgroup-order dependence.
    let ds = datasets::road_ca(Scale::Test);
    let sources = sample_useful_sources(&ds.host, 8, 42);
    let q = Queue::with_sanitizer(Device::new(DeviceProfile::host_test()), 0xBADC0DE);
    let g = Graph::with_pull(&q, &ds.host).unwrap();
    let bfs_batched = multi::bfs_multi(&q, &g.csr, &sources, 8, &OptConfig::all()).unwrap();
    multi::bc_multi(&q, &g, &sources[..4], 8, &OptConfig::all()).unwrap();
    let san = q.sanitizer().expect("sanitizing queue");
    assert!(san.is_clean(), "sanitizer findings:\n{}", san.report());

    // And the sanitized run computes the same distances.
    let qp = queue();
    let gp = DeviceCsr::upload(&qp, &ds.host).unwrap();
    let plain = multi::bfs_multi(&qp, &gp, &sources, 8, &OptConfig::all()).unwrap();
    assert_eq!(bfs_batched.per_source, plain.per_source);
}
