//! The trace log is enough to score the policy offline, and its views say
//! what the log says.
//!
//! * *Tables* — `Tuning::plan` is a pure function of `PlanInputs`, so its
//!   thresholds, both hysteresis bands and the hub guard are pinned by
//!   rows of plain data: no queue, no graph.
//! * *Replay* — for BFS, SSSP and CC on the four test-scale datasets under
//!   every representation × direction policy, every `Plan` event the
//!   engine recorded satisfies `tuning.plan(&inputs) == plan`, its
//!   direction taken from the input's own recorded measure.
//!   What the plan says became of the retired frontier agrees with the
//!   launches around it.
//! * *Views* — `rep_events()` / `direction_events()` have one entry per
//!   `Plan` event, flag a switch exactly where the value differs from the
//!   previous superstep of the same run, and `kernels()` is in `seq`
//!   order.

use sygraph_algos::{Algo, Args};
use sygraph_bench::sample_useful_sources;
use sygraph_core::engine::SuperstepEngine;
use sygraph_core::frontier::{BitmapLike, HybridFrontier};
use sygraph_core::graph::{CsrHost, DeviceCsr, DeviceGraphView, Graph};
use sygraph_core::inspector::{
    inspect, Direction, OptConfig, Representation, Tuning, DIRECTION_ALPHA, DIRECTION_BETA,
    SPARSE_ENTER_DIV, SPARSE_EXIT_DIV,
};
use sygraph_core::types::INF_DIST;
use sygraph_gen::{datasets, Scale};
use sygraph_sim::{Device, DeviceProfile, Plan, PlanInputs, Queue, TraceKind};

mod common;

/// A superstep about which nothing is known yet: everything the plan may
/// use is available, nothing has run.
fn fresh(capacity: usize) -> PlanInputs {
    PlanInputs {
        last_estimate: 0,
        measured: None,
        predicted: 0,
        capacity,
        n: capacity,
        prev_sparse: false,
        prev_pull: false,
        pull_available: true,
        pull_exits_early: true,
        listable: true,
        listed: None,
        max_degree: 0,
        word_skew: 0.0,
    }
}

fn v100(opts: &OptConfig) -> Tuning {
    inspect(&DeviceProfile::v100s(), opts, 1 << 20)
}

#[test]
fn representation_hysteresis_table() {
    let auto = v100(&OptConfig::all());
    let n = 6400;
    let (enter, exit) = (n / SPARSE_ENTER_DIV as usize, n / SPARSE_EXIT_DIV as usize);
    assert_eq!((enter, exit), (100, 200), "a 2x band");
    let dense = v100(&OptConfig::with_representation(Representation::Dense));
    let sparse = v100(&OptConfig::with_representation(Representation::Sparse));
    // (tuning, last_estimate, predicted, prev_sparse, listable) -> sparse_in
    let rows = [
        // Dense stays dense until the estimate drops to the entry bar.
        (&auto, enter + 1, 0, false, true, false),
        (&auto, enter, 0, false, true, true),
        // Sparse stays sparse inside the band and exits only above the
        // (2x higher) exit bar.
        (&auto, exit, 0, true, true, true),
        (&auto, exit + 1, 0, true, true, false),
        // The larger of the previous count and the forward estimate decides: a
        // wavefront predicted to explode is not asked to go sparse.
        (&auto, 0, enter + 1, false, true, false),
        (&auto, 0, enter, false, true, true),
        // Forced policies ignore the estimate...
        (&dense, 0, 0, true, true, false),
        (&sparse, n, n, false, true, true),
        // ...but no policy lists a frontier that cannot.
        (&sparse, 0, 0, true, false, false),
        (&auto, 0, 0, true, false, false),
    ];
    for (t, last_estimate, predicted, prev_sparse, listable, want) in rows {
        let i = PlanInputs {
            last_estimate,
            predicted,
            prev_sparse,
            listable,
            ..fresh(n)
        };
        assert_eq!(t.plan(&i).sparse_in, want, "{i:?}");
    }
}

#[test]
fn output_side_follows_the_exact_population_and_the_hub_guard() {
    let t = v100(&OptConfig::all());
    let n = 6400; // enter 100, exit 200
    let word = t.word_bits as usize;
    // (listed, max_degree) -> (predicted, sparse_out), input listed sparse
    let rows = [
        // A frontier no wider than one word may hide a hub: its degree is
        // added to the forward estimate.
        (Some(1), 150, 151, true),
        (Some(word), 300, word + 300, false),
        // Wider than a word: the exact population alone.
        (Some(word + 1), 300, word + 1, true),
        (Some(200), 0, 200, true),
        (Some(201), 0, 201, false),
    ];
    for (listed, max_degree, predicted, sparse_out) in rows {
        let i = PlanInputs {
            listed,
            max_degree,
            ..fresh(n)
        };
        let plan = t.plan(&i);
        assert!(plan.sparse_in, "{i:?}");
        assert_eq!(
            (plan.predicted, plan.sparse_out),
            (predicted, sparse_out),
            "{i:?}"
        );
    }
    // A dense input has no exact count: the estimate stands in, and the
    // output enters sparse only under the (lower) entry bar.
    let i = PlanInputs {
        last_estimate: 150,
        listed: Some(3),
        ..fresh(n)
    };
    let plan = t.plan(&i);
    assert_eq!(
        (plan.sparse_in, plan.predicted, plan.sparse_out),
        (false, 150, false)
    );
}

#[test]
fn direction_hysteresis_table() {
    let auto = v100(&OptConfig::all());
    let n = 2400;
    let (enter, exit) = (n / DIRECTION_ALPHA as usize, n / DIRECTION_BETA as usize);
    assert_eq!((enter, exit), (600, 100), "a 6x band");
    let push = v100(&OptConfig::with_direction(Direction::Push));
    let pull = v100(&OptConfig::with_direction(Direction::Pull));
    // (tuning, measured, prev_pull, available, exits_early) -> pull
    let mut rows = vec![
        // Pushing: stays push at the boundary, pulls just above it.
        (&auto, enter, false, true, true, false),
        (&auto, enter + 1, false, true, true, true),
        // Pulling: stays pull at the exit boundary, pushes just below it.
        (&auto, exit, true, true, true, true),
        (&auto, exit - 1, true, true, true, false),
        // Auto pulls only where the scan can exit early; a forced pull
        // takes the all-vertices scan too.
        (&auto, n, false, true, false, false),
        (&pull, 0, false, true, false, true),
        // Nothing pulls without a pull view.
        (&auto, n, true, false, true, false),
        (&pull, n, true, false, true, false),
    ];
    // Inside the band both directions are sticky: a population hovering
    // at either threshold cannot flap.
    for pop in [exit, (exit + enter) / 2, enter] {
        rows.push((&auto, pop, true, true, true, true));
        rows.push((&auto, pop, false, true, true, false));
    }
    // Forced directions ignore the population.
    for pop in [0, 100, n] {
        rows.push((&push, pop, true, true, true, false));
        rows.push((&pull, pop, false, true, true, true));
    }
    for (t, measured, prev_pull, pull_available, pull_exits_early, want) in rows {
        let i = PlanInputs {
            measured: Some(measured),
            // Neither the previous superstep's count nor the forward
            // estimate may reach the direction rule.
            last_estimate: n - measured,
            predicted: n,
            prev_pull,
            pull_available,
            pull_exits_early,
            ..fresh(n)
        };
        assert_eq!(t.plan(&i).pull, want, "{i:?}");
    }
    // A single-layer bitmap has no measure: the previous count decides.
    for (last_estimate, want) in [(enter, false), (enter + 1, true)] {
        let i = PlanInputs {
            last_estimate,
            ..fresh(n)
        };
        assert_eq!(auto.plan(&i).pull, want, "{i:?}");
    }
    // Two rows that differ only in the measure, on either side of the
    // entry bar: the direction flips, the representation half does not
    // move — it is decided before the input is measured.
    let below = PlanInputs {
        measured: Some(enter),
        last_estimate: enter,
        predicted: enter,
        listed: Some(enter),
        ..fresh(n)
    };
    let above = PlanInputs {
        measured: Some(enter + 1),
        ..below
    };
    let (b, a) = (auto.plan(&below), auto.plan(&above));
    assert_eq!((b.pull, a.pull), (false, true));
    assert_eq!(
        (b.sparse_in, b.sparse_out, b.predicted),
        (a.sparse_in, a.sparse_out, a.predicted)
    );
}

#[test]
fn balancing_is_resolved_from_the_recorded_profile() {
    let t = v100(&OptConfig::all());
    let hub = t.large_min_degree;
    // (max_degree, word_skew) -> bucketed
    for (max_degree, word_skew, want) in [
        (hub, 8.0, true),
        (hub - 1, 40.0, false),
        (hub * 4, 7.9, false),
        (0, 0.0, false),
    ] {
        let i = PlanInputs {
            max_degree,
            word_skew,
            ..fresh(1 << 20)
        };
        assert_eq!(t.plan(&i).bucketed, want, "{i:?}");
    }
}

/// Chain into a 4-way split whose branches each fan 10 wide, staying 40
/// wide one more level: the frontier sequence is 1, 1, 4, 40, 40 with max
/// degree 10, over 640 vertices.
fn fan_edges() -> Vec<(u32, u32)> {
    let mut edges: Vec<(u32, u32)> = vec![(0, 1)];
    edges.extend((2..6).map(|v| (1u32, v)));
    for v in 2..6u32 {
        edges.extend((0..10).map(|t| (v, 10 + (v - 2) * 10 + t)));
    }
    edges.extend((10..50).map(|v| (v, v + 100)));
    edges
}

#[test]
fn auto_representation_switches_at_the_hysteresis_exit() {
    // The rows the engine must gather on the fan, and what the plan makes
    // of them: supersteps 0-3 run sparse (populations 1, 1, 4 and 40 —
    // the 40-wide step still *enters* on the lagged estimate, and up to a
    // word's width the hub guard adds the max degree of 10); its exact
    // count of 40 > 640/32 turns the output dense, and superstep 4 runs
    // dense on a list that was never written. Each superstep measures its
    // own input: the list length, and at superstep 4 the compaction's two
    // non-zero 32-bit words (vertices 110..150), 64.
    let n = 640;
    let q = Queue::new(Device::new(DeviceProfile::host_test()));
    let g = DeviceCsr::upload(&q, &CsrHost::from_edges(n, &fan_edges())).unwrap();
    let t = inspect(q.profile(), &OptConfig::all(), n);
    assert_eq!(t.word_bits, 8);
    let profile = g.degree_profile().unwrap();
    assert_eq!(profile.max_degree, 10);
    let row = |last_estimate, predicted, prev_sparse, listed, measured| PlanInputs {
        last_estimate,
        measured: Some(measured),
        predicted,
        prev_sparse,
        listed,
        pull_available: false,
        pull_exits_early: false,
        max_degree: 10,
        word_skew: profile.word_skew,
        ..fresh(n)
    };
    let plan = |sparse_in, sparse_out, predicted| Plan {
        sparse_in,
        sparse_out,
        pull: false,
        bucketed: false,
        predicted,
    };
    let table = [
        (row(0, 0, false, Some(1), 1), plan(true, true, 11)),
        (row(1, 11, true, Some(1), 1), plan(true, true, 11)),
        (row(1, 11, true, Some(4), 4), plan(true, true, 14)),
        (row(4, 14, true, Some(40), 40), plan(true, false, 40)),
        (row(40, 40, true, None, 64), plan(false, false, 40)),
    ];
    for (inputs, want) in &table {
        assert_eq!(t.plan(inputs), *want, "{inputs:?}");
    }

    let dist = q.malloc_device::<u32>(n).unwrap();
    q.fill(&dist, INF_DIST);
    dist.store(0, 0);
    let fin: Box<dyn BitmapLike<u32>> = Box::new(HybridFrontier::<u32>::new(&q, n).unwrap());
    let fout: Box<dyn BitmapLike<u32>> = Box::new(HybridFrontier::<u32>::new(&q, n).unwrap());
    fin.insert_host(0);
    let mut engine = SuperstepEngine::new(&q, &g, t, fin, fout).max_iters(n, "fan BFS diverged");
    let iters = engine
        .run(
            |l, _i, _u, v, _e, _w| l.load(&dist, v as usize) == INF_DIST,
            Some(&|l, i, v| l.store(&dist, v as usize, i + 1)),
        )
        .unwrap();
    assert_eq!(iters, 5);
    let recorded: Vec<(PlanInputs, Plan)> = plans(&q).into_iter().map(|p| (p.1, p.2)).collect();
    assert_eq!(recorded, table, "the engine gathers the table's rows");
    let reps = q.profiler().rep_events();
    let trace: Vec<&str> = reps.iter().map(|e| e.rep.as_str()).collect();
    assert_eq!(trace, ["sparse", "sparse", "sparse", "sparse", "dense"]);
    let switched: Vec<u32> = reps
        .iter()
        .filter(|e| e.switched)
        .map(|e| e.superstep)
        .collect();
    assert_eq!(switched, [4], "one switch, at the exit");
}

/// Every `Plan` event of `q`: `(superstep, inputs, plan, sparse, pull)`.
fn plans(q: &Queue) -> Vec<(u32, PlanInputs, Plan, bool, bool)> {
    q.profiler().select(|e| match e.kind {
        TraceKind::Plan {
            inputs,
            plan,
            sparse,
            pull,
            ..
        } => Some((e.superstep, inputs, plan, sparse, pull)),
        _ => None,
    })
}

#[test]
fn recorded_plans_replay_and_the_views_agree_with_the_log() {
    let reps = [
        Representation::Dense,
        Representation::Sparse,
        Representation::Auto,
    ];
    let dirs = [Direction::Push, Direction::Pull, Direction::Auto];
    let (mut pulled, mut listed, mut inline, mut alone) = (0, 0, 0, 0);
    for ds in [
        datasets::road_ca(Scale::Test),
        datasets::hollywood(Scale::Test),
        datasets::indochina(Scale::Test),
        datasets::kron(Scale::Test),
    ] {
        let host = ds.host.to_undirected().unwrap();
        let src = sample_useful_sources(&ds.host, 1, 42)[0];
        for (rep, dir) in reps.iter().flat_map(|r| dirs.iter().map(move |d| (*r, *d))) {
            let mut opts = OptConfig::with_representation(rep);
            opts.direction = dir;
            // One queue for the three algorithms: the views must keep
            // their runs apart.
            let q = Queue::new(Device::new(DeviceProfile::host_test()));
            let g = Graph::with_pull(&q, &host).unwrap();
            let tuning = inspect(q.profile(), &opts, host.vertex_count());
            let mut supersteps = 0;
            for algo in [Algo::Bfs, Algo::Sssp, Algo::Cc] {
                supersteps += algo
                    .run(&q, &g, Args::rooted(src), &opts)
                    .unwrap()
                    .iterations;
            }
            let ctx = format!("{} under {rep:?}/{dir:?}", ds.key);

            // Replay: the log alone reproduces every decision, and with no
            // fault in play the device refuses none.
            let log = plans(&q);
            assert_eq!(
                log.len() as u32,
                supersteps,
                "{ctx}: one plan per landed superstep"
            );
            for (superstep, inputs, plan, sparse, pull) in &log {
                assert!(inputs.measured.is_some(), "{ctx} @{superstep}: unmeasured");
                assert_eq!(tuning.plan(inputs), *plan, "{ctx} @{superstep}: {inputs:?}");
                assert_eq!(
                    (*sparse, *pull),
                    (plan.sparse_in, plan.pull),
                    "{ctx} @{superstep}"
                );
            }
            pulled += log.iter().filter(|p| p.4).count();
            listed += log.iter().filter(|p| p.3).count();
            common::assert_retires_match_the_launches(&q, &ctx);
            let (carried, reasons) = common::retire_census(&q);
            inline += carried;
            alone += reasons.len();

            // Views: one entry per plan; a switch is a change from the
            // previous superstep of the same run.
            let (rep_view, dir_view) = (q.profiler().rep_events(), q.profiler().direction_events());
            assert_eq!(
                (rep_view.len(), dir_view.len()),
                (log.len(), log.len()),
                "{ctx}"
            );
            let mut prev: Option<(u32, bool, bool)> = None;
            for ((p, r), d) in log.iter().zip(&rep_view).zip(&dir_view) {
                let (superstep, _, _, sparse, pull) = *p;
                if superstep == 0 {
                    prev = None;
                }
                assert_eq!((r.superstep, d.superstep), (superstep, superstep), "{ctx}");
                assert_eq!(
                    r.rep,
                    if sparse { "sparse" } else { "dense" },
                    "{ctx} @{superstep}"
                );
                assert_eq!(
                    d.direction,
                    if pull { "pull" } else { "push" },
                    "{ctx} @{superstep}"
                );
                assert_eq!(
                    r.switched,
                    prev.is_some_and(|p| p.1 != sparse),
                    "{ctx} @{superstep}"
                );
                assert_eq!(
                    d.switched,
                    prev.is_some_and(|p| p.2 != pull),
                    "{ctx} @{superstep}"
                );
                if let Some((before, ..)) = prev {
                    assert_eq!(superstep, before + 1, "{ctx}: the trace is per superstep");
                }
                prev = Some((superstep, sparse, pull));
            }
            let kernels = q.profiler().kernels();
            assert_eq!(kernels.len(), q.profiler().kernel_count());
            assert!(
                kernels.windows(2).all(|w| w[0].seq + 1 == w[1].seq),
                "{ctx}: kernels() out of seq order"
            );
        }
    }
    assert!(
        pulled > 0 && listed > 0 && inline > 0 && alone > 0,
        "the sweep must exercise both axes and both ways to retire a frontier"
    );
}
