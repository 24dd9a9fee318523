//! Direction-optimization properties across the integration surface:
//! every direction policy × every frontier representation × the 4-dataset
//! suite must be bit-identical (Beamer's hybrid changes which edges get
//! *scanned*, never which vertices get visited or what value they get);
//! Auto must not flap between directions, and must switch to pull on the
//! superstep whose own frontier crosses n/4; and the recovery machinery must
//! compose with pull — a checkpoint resume mid-pull and the OOM
//! force-push rung both land on the fault-free answer.

use sygraph_algos::{bfs, cc, reference};
use sygraph_bench::sample_useful_sources;
use sygraph_core::engine::RecoveryPolicy;
use sygraph_core::graph::{CsrHost, Graph};
use sygraph_core::inspector::{Direction, OptConfig, Representation, DIRECTION_ALPHA};
use sygraph_gen::{datasets, Dataset, Scale};
use sygraph_sim::{Device, DeviceProfile, FaultPlan, Queue, TraceKind};

mod common;
use common::{first_launch, recoveries};

fn four_datasets() -> Vec<Dataset> {
    vec![
        datasets::road_ca(Scale::Test),
        datasets::hollywood(Scale::Test),
        datasets::indochina(Scale::Test),
        datasets::kron(Scale::Test),
    ]
}

const DIRECTIONS: [Direction; 3] = [Direction::Push, Direction::Pull, Direction::Auto];
const REPS: [Representation; 3] = [
    Representation::Dense,
    Representation::Sparse,
    Representation::Auto,
];

fn opts(rep: Representation, dir: Direction) -> OptConfig {
    let mut o = OptConfig::with_representation(rep);
    o.direction = dir;
    o
}

fn queue() -> Queue {
    Queue::new(Device::new(DeviceProfile::host_test()))
}

#[test]
fn bfs_is_bit_identical_under_every_direction_and_representation() {
    let mut configs: Vec<(String, OptConfig)> = REPS
        .iter()
        .flat_map(|&rep| {
            DIRECTIONS
                .iter()
                .map(move |&dir| (format!("{dir:?}/{rep:?}"), opts(rep, dir)))
        })
        .collect();
    // MSI off: the bitmap word is wider than the subgroup, so the pull
    // word walk splits each candidate word across a workgroup's subgroups.
    let no_msi_pull = OptConfig {
        direction: Direction::Pull,
        ..OptConfig::baseline()
    };
    configs.push(("Pull/baseline".into(), no_msi_pull));
    for ds in four_datasets() {
        let src = sample_useful_sources(&ds.host, 1, 42)[0];
        let want = reference::bfs(&ds.host, src);
        for (label, o) in &configs {
            let q = queue();
            let g = Graph::with_pull(&q, &ds.host).unwrap();
            let got = bfs::run(&q, &g, src, o).unwrap();
            assert_eq!(got.values, want, "BFS diverged on {} under {label}", ds.key);
            if !o.msi {
                assert!(
                    q.profiler()
                        .kernels()
                        .iter()
                        .any(|k| k.name == "advance_pull"),
                    "{}: the MSI-off configuration must run pull supersteps",
                    ds.key
                );
            }
        }
    }
}

#[test]
fn cc_is_bit_identical_under_every_direction_and_representation() {
    for ds in four_datasets() {
        let und = ds.undirected();
        let want = reference::connected_components(&und);
        for rep in REPS {
            for dir in DIRECTIONS {
                let q = queue();
                let g = Graph::with_pull(&q, &und).unwrap();
                let got = cc::run(&q, &g, &opts(rep, dir)).unwrap();
                assert_eq!(
                    got.values, want,
                    "CC diverged on {} under {dir:?}/{rep:?}",
                    ds.key
                );
            }
        }
    }
}

#[test]
fn auto_traces_every_superstep_and_never_flaps() {
    for ds in four_datasets() {
        let q = queue();
        let g = Graph::with_pull(&q, &ds.host).unwrap();
        let src = sample_useful_sources(&ds.host, 1, 42)[0];
        let got = bfs::run(&q, &g, src, &opts(Representation::Auto, Direction::Auto)).unwrap();
        let dirs = q.profiler().direction_events();
        assert_eq!(
            dirs.len() as u32,
            got.iterations,
            "{}: one direction event per live superstep",
            ds.key
        );
        assert_eq!(dirs[0].direction, "push", "{}: BFS starts push", ds.key);
        let switches = dirs.iter().filter(|e| e.switched).count();
        assert!(
            switches <= 2,
            "{}: Beamer hysteresis must not flap ({switches} switches: {:?})",
            ds.key,
            dirs.iter()
                .map(|e| e.direction.as_str())
                .collect::<Vec<_>>()
        );
    }
}

/// The fault-free values of a pulling BFS and the launch ordinal that
/// opens its superstep `step`, for placing a fault mid-run.
fn pull_baseline(ds: &Dataset, src: u32, opts: &OptConfig, step: usize) -> (Vec<u32>, u64) {
    let q = queue();
    let g = Graph::with_pull(&q, &ds.host).unwrap();
    let values = bfs::run(&q, &g, src, opts).unwrap().values;
    assert!(
        q.profiler()
            .direction_events()
            .iter()
            .any(|e| e.direction == "pull"),
        "baseline must actually exercise the pull path"
    );
    (values, first_launch(&q, step))
}

#[test]
fn checkpoint_resume_mid_pull_is_bit_identical() {
    // Forced pull keeps every superstep on the pull path, so a device
    // loss at the top of superstep 2 lands mid-pull: the checkpoint must
    // carry the direction state and the unvisited set across the resume.
    let ds = datasets::hollywood(Scale::Test);
    let src = sample_useful_sources(&ds.host, 1, 42)[0];
    let mut o = opts(Representation::Auto, Direction::Pull);
    o.recovery = RecoveryPolicy::resilient(3, 4);
    let (values, ordinal) = pull_baseline(&ds, src, &o, 2);
    assert_eq!(values, reference::bfs(&ds.host, src));

    let plan = FaultPlan::parse(&format!("lost@{ordinal}")).unwrap();
    let q = Queue::with_faults(Device::new(DeviceProfile::host_test()), plan);
    let g = Graph::with_pull(&q, &ds.host).unwrap();
    let got = bfs::run(&q, &g, src, &o).unwrap();
    assert_eq!(got.values, values, "resume diverged from fault-free");
    let events = recoveries(&q);
    assert_eq!(events.len(), 1, "exactly one resume: {events:?}");
    assert_eq!(events[0].0, "device-lost");
    assert!(
        q.profiler()
            .direction_events()
            .iter()
            .any(|e| e.direction == "pull"),
        "the resumed run must still pull"
    );
}

#[test]
fn oom_mid_pull_takes_the_force_push_rung_and_recovers() {
    // A synthetic OOM while pull is engaged must take the ladder's
    // direction rung first — give back the unvisited set, pin the rest of
    // the run to push — and still land on the fault-free answer.
    let ds = datasets::kron(Scale::Test);
    let src = sample_useful_sources(&ds.host, 1, 42)[0];
    let mut o = opts(Representation::Auto, Direction::Pull);
    o.recovery = RecoveryPolicy::resilient(3, 4);
    let (values, ordinal) = pull_baseline(&ds, src, &o, 1);

    let plan = FaultPlan::parse(&format!("oom@{ordinal}")).unwrap();
    let q = Queue::with_faults(Device::new(DeviceProfile::host_test()), plan);
    let g = Graph::with_pull(&q, &ds.host).unwrap();
    let got = bfs::run(&q, &g, src, &o).unwrap();
    assert_eq!(got.values, values, "force-push diverged from fault-free");
    let events = recoveries(&q);
    assert!(
        events
            .iter()
            .any(|(fault, action)| fault == "oom" && action == "force-push"),
        "expected the force-push OOM rung, got {events:?}"
    );
    let dirs = q.profiler().direction_events();
    assert_eq!(
        dirs.last().map(|e| e.direction.as_str()),
        Some("push"),
        "after the rung the run must finish push-side: {dirs:?}"
    );
}

/// Pull supersteps recorded by a run's direction trace.
fn pull_supersteps(q: &Queue) -> usize {
    let dirs = q.profiler().direction_events();
    dirs.iter().filter(|e| e.direction == "pull").count()
}

/// A chain into a fan: 0 → 1 → 200 leaves, each leaf → one more vertex,
/// over 640 vertices. From vertex 0 the frontier runs 1, 1, 200, 200: it
/// jumps from one vertex past n/4 (160) in a single superstep.
fn fan() -> CsrHost {
    let mut edges = vec![(0u32, 1u32)];
    edges.extend((2..202).map(|v| (1, v)));
    edges.extend((2..202).map(|v| (v, v + 200)));
    CsrHost::from_edges(640, &edges)
}

#[test]
fn auto_pulls_only_where_the_scan_can_exit_early() {
    // CC hands pull supersteps every vertex and every in-edge: under
    // `Auto` that is never fewer edges than push, so it never pulls, and
    // a forced pull still does.
    let all = OptConfig::all();
    for ds in [
        datasets::kron(Scale::Test),
        datasets::hollywood(Scale::Test),
    ] {
        let und = ds.undirected();
        let q = queue();
        let g = Graph::with_pull(&q, &und).unwrap();
        let auto = cc::run(&q, &g, &all).unwrap();
        assert_eq!(pull_supersteps(&q), 0, "{}: CC under Auto", ds.key);

        let q = queue();
        let g = Graph::with_pull(&q, &und).unwrap();
        let forced = cc::run(&q, &g, &OptConfig::with_direction(Direction::Pull)).unwrap();
        assert_eq!(pull_supersteps(&q), forced.iterations as usize);
        assert_eq!(auto.values, forced.values);
    }
}

#[test]
fn auto_bfs_pulls_from_the_superstep_whose_own_frontier_crosses_alpha() {
    // BFS over the adopt-once unvisited set switches to pull on the first
    // superstep whose *own* measured input exceeds n/4 — not on the one
    // after it, which a plan from the previous superstep's count picks.
    let sampled = |ds: Dataset| {
        let src = sample_useful_sources(&ds.host, 1, 42)[0];
        (ds.key, ds.host, src)
    };
    for (key, host, src) in [
        sampled(datasets::kron(Scale::Test)),
        sampled(datasets::hollywood(Scale::Test)),
        ("fan", fan(), 0),
    ] {
        let q = queue();
        let g = Graph::with_pull(&q, &host).unwrap();
        let got = bfs::run_fused(&q, &g, src, &OptConfig::all()).unwrap();
        assert_eq!(got.values, reference::bfs(&host, src), "{key}");
        let steps = q.profiler().select(|e| match e.kind {
            TraceKind::Plan { inputs, pull, .. } => {
                let measured = inputs.measured.expect("two-layer inputs are measured");
                Some((measured > inputs.n / DIRECTION_ALPHA as usize, pull))
            }
            _ => None,
        });
        let first_pull = steps.iter().position(|s| s.1);
        let first_wide = steps.iter().position(|s| s.0);
        assert!(first_pull.is_some(), "{key}: BFS never pulled");
        assert_eq!(first_pull, first_wide, "{key}: {steps:?}");
    }
}
