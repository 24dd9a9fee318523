//! The frontier ring, read off the trace log: a retired input's clear
//! rides the next advance launch, and a clear launched on its own always
//! has its reason beside it in the log.
//!
//! On test-scale road-CA under every representation policy, and on kron
//! under `auto` and `bucketed` balancing and under a forced pull, BFS
//! (fused and unfused) and SSSP must land every superstep after the first
//! with no stand-alone frontier clear — unless the superstep's `Plan`
//! names why (no advance shell launched; a layout without a spare) — and
//! a fused BFS on an item list is exactly one launch per superstep.
//! Values are checked against the host references; that they are those of
//! the two-frontier engine is what the representation, direction,
//! balancing, multi-device and multi-source suites hold, unchanged.

use sygraph_algos::{bfs, reference, sssp};
use sygraph_bench::hub_source;
use sygraph_core::graph::Graph;
use sygraph_core::inspector::{Balancing, Direction, OptConfig, Representation};
use sygraph_gen::{datasets, Dataset, Scale};
use sygraph_sim::{Device, DeviceProfile, Queue};

mod common;
use common::{assert_retires_match_the_launches, landed_steps, retire_census};

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Runs fused BFS, unfused BFS and SSSP from the hub under `opts`, each on
/// its own queue (the graph with a pull view or without) and checked
/// against the host reference, and hands every queue to `check`.
fn each_run(ds: &Dataset, pull_view: bool, opts: &OptConfig, check: impl Fn(&Queue, &str)) {
    let src = hub_source(&ds.host);
    let fresh = || {
        let q = Queue::new(Device::new(DeviceProfile::host_test()));
        let g = if pull_view {
            Graph::with_pull(&q, &ds.host)
        } else {
            Graph::new(&q, &ds.host)
        };
        (q, g.unwrap())
    };
    let want = reference::bfs(&ds.host, src);
    let (q, g) = fresh();
    assert_eq!(bfs::run_fused(&q, &g, src, opts).unwrap().values, want);
    check(&q, "fused bfs");
    let (q, g) = fresh();
    assert_eq!(bfs::run(&q, &g, src, opts).unwrap().values, want);
    check(&q, "bfs");
    let (q, g) = fresh();
    let got = sssp::run(&q, &g.csr, src, opts).unwrap();
    assert_eq!(bits(&got.values), bits(&reference::dijkstra(&ds.host, src)));
    check(&q, "sssp");
}

#[test]
fn road_supersteps_carry_their_clear_under_every_representation() {
    let ds = datasets::road_ca(Scale::Test);
    for rep in [
        Representation::Auto,
        Representation::Sparse,
        Representation::Dense,
    ] {
        let opts = OptConfig::with_representation(rep);
        each_run(&ds, false, &opts, |q, algo| {
            let ctx = format!("{algo} on {} under {rep:?}", ds.key);
            assert_retires_match_the_launches(q, &ctx);
            let (inline, reasons) = retire_census(q);
            let steps = landed_steps(q);
            assert!(steps.len() > 10, "{ctx}: a road run is many supersteps");
            assert_eq!(
                (inline, reasons.as_slice()),
                (steps.len() - 1, &[][..]),
                "{ctx}: every push superstep has a launch to ride"
            );
            if algo == "fused bfs" && rep == Representation::Sparse {
                // Item list in, item list out: no compaction, no compute
                // pass, no clear — the advance is the superstep.
                for step in &steps {
                    assert_eq!(
                        (step.advance.as_slice(), step.rest.len()),
                        (&["advance_sparse".to_string()][..], 0),
                        "{ctx} @{}",
                        step.superstep
                    );
                }
            }
        });
    }
}

#[test]
fn skewed_supersteps_carry_their_clear_under_every_schedule() {
    let ds = datasets::kron(Scale::Test);
    let mut pull = OptConfig::with_direction(Direction::Pull);
    pull.balancing = Balancing::Bucketed;
    let cases = [
        ("auto", OptConfig::all()),
        ("bucketed", OptConfig::with_balancing(Balancing::Bucketed)),
        ("pull", OptConfig::with_direction(Direction::Pull)),
        ("bucketed pull", pull),
    ];
    for (name, opts) in cases {
        each_run(&ds, true, &opts, |q, algo| {
            let ctx = format!("{algo} on {} under {name}", ds.key);
            assert_retires_match_the_launches(q, &ctx);
            let (inline, reasons) = retire_census(q);
            assert!(inline > 0, "{ctx}: no superstep carried a clear");
            // A pull superstep whose candidate set has emptied launches no
            // shell; nothing else on this graph may leave a clear behind.
            assert!(
                reasons.iter().all(|&why| why == "no-launch"),
                "{ctx}: {reasons:?}"
            );
            assert!(
                reasons.is_empty() || name.contains("pull"),
                "{ctx}: a push superstep left {reasons:?}"
            );
        });
    }
}
