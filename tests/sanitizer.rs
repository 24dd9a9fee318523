//! Sanitizer end-to-end tests: negative tests inject each defect class
//! (out-of-bounds, use-after-free, non-atomic write/write and read/write
//! races, order dependence) into toy kernels and assert the right
//! classification; the all-clear suite then runs BFS/SSSP/CC over the
//! 4-dataset suite under every frontier representation and requires zero
//! findings.

use std::panic::{catch_unwind, AssertUnwindSafe};

use sygraph_algos::{bfs, cc, sssp};
use sygraph_bench::sample_useful_sources;
use sygraph_core::graph::DeviceCsr;
use sygraph_core::inspector::{OptConfig, Representation};
use sygraph_gen::{datasets, Dataset, Scale};
use sygraph_sim::{Device, DeviceProfile, FindingKind, LaunchConfig, Queue};

mod common;

fn sanitized_queue() -> Queue {
    Queue::with_sanitizer(Device::new(DeviceProfile::host_test()), 0xBADC0DE)
}

#[test]
fn detects_out_of_bounds() {
    let q = sanitized_queue();
    let buf = q.malloc_device::<u32>(4).unwrap();
    // Lanes 4..8 write past the end; the shadow tracker classifies the
    // access before the always-on bounds check aborts the launch.
    let result = catch_unwind(AssertUnwindSafe(|| {
        q.parallel_for("oob_toy", 8, |lane, i| {
            lane.store(&buf, i, i as u32);
        });
    }));
    assert!(result.is_err(), "OOB access still panics under --sanitize");
    let findings = q.sanitizer().unwrap().findings();
    let oob: Vec<_> = findings
        .iter()
        .filter(|f| f.kind == FindingKind::OutOfBounds)
        .collect();
    assert!(!oob.is_empty(), "expected an OutOfBounds finding");
    let f = oob[0];
    assert_eq!(f.kernel, "oob_toy");
    assert_eq!(f.alloc, Some(sygraph_sim::AllocKind::Device));
    assert_eq!(f.index, Some(4), "first offending element");
    assert_eq!(f.agents.len(), 1, "OOB names the offending (wg, lane)");
}

#[test]
fn detects_use_after_free() {
    let q = sanitized_queue();
    let buf = q.malloc_device::<u32>(8).unwrap();
    let dangling = buf.alias();
    drop(buf);
    let sink = q.malloc_device::<u32>(8).unwrap();
    q.parallel_for("uaf_toy", 8, |lane, i| {
        let v = lane.load(&dangling, i);
        lane.store(&sink, i, v);
    });
    let findings = q.sanitizer().unwrap().findings();
    let uaf: Vec<_> = findings
        .iter()
        .filter(|f| f.kind == FindingKind::UseAfterFree)
        .collect();
    assert!(!uaf.is_empty(), "expected a UseAfterFree finding");
    assert_eq!(uaf[0].kernel, "uaf_toy");
    assert_eq!(uaf[0].alloc, Some(sygraph_sim::AllocKind::Device));
    assert!(
        uaf[0].detail.contains("gen"),
        "report names the allocation generation: {}",
        uaf[0].detail
    );
    assert!(
        !findings.iter().any(|f| f.kind == FindingKind::OutOfBounds),
        "a dangling view is not an OOB"
    );
}

#[test]
fn detects_write_write_race() {
    let q = sanitized_queue();
    let buf = q.malloc_device::<u32>(4).unwrap();
    q.parallel_for("ww_toy", 64, |lane, _i| {
        lane.store(&buf, 0, 1);
    });
    let findings = q.sanitizer().unwrap().findings();
    let ww: Vec<_> = findings
        .iter()
        .filter(|f| f.kind == FindingKind::RaceWriteWrite)
        .collect();
    assert_eq!(ww.len(), 1, "one deduplicated WW finding: {findings:?}");
    let f = ww[0];
    assert_eq!(f.kernel, "ww_toy");
    assert_eq!(f.alloc, Some(sygraph_sim::AllocKind::Device));
    assert_eq!(f.index, Some(0));
    assert_eq!(f.agents.len(), 2, "both conflicting (wg, lane) pairs named");
    assert_ne!(f.agents[0], f.agents[1]);
}

#[test]
fn detects_read_write_race() {
    let q = sanitized_queue();
    let buf = q.malloc_device::<u32>(4).unwrap();
    let sink = q.malloc_device::<u32>(64).unwrap();
    // Exactly one non-atomic writer; everyone else reads the same cell.
    q.parallel_for("rw_toy", 64, |lane, i| {
        if i == 0 {
            lane.store(&buf, 0, 7);
        } else {
            let v = lane.load(&buf, 0);
            lane.store(&sink, i, v);
        }
    });
    let findings = q.sanitizer().unwrap().findings();
    let rw: Vec<_> = findings
        .iter()
        .filter(|f| f.kind == FindingKind::RaceReadWrite)
        .collect();
    assert_eq!(rw.len(), 1, "one deduplicated RW finding: {findings:?}");
    assert_eq!(rw[0].kernel, "rw_toy");
    assert_eq!(rw[0].agents.len(), 2);
}

#[test]
fn atomic_contention_is_not_a_race() {
    let q = sanitized_queue();
    let buf = q.malloc_device::<u32>(1).unwrap();
    q.parallel_for("atomic_toy", 256, |lane, _i| {
        lane.fetch_add(&buf, 0, 1);
        let _ = lane.load_atomic(&buf, 0);
    });
    assert_eq!(buf.load(0), 256);
    let san = q.sanitizer().unwrap();
    assert!(
        san.is_clean(),
        "atomic-only contention must be clean: {}",
        san.report()
    );
}

#[test]
fn detects_order_dependence_via_shuffled_rerun() {
    // Single CU so workgroups run strictly in order within each pass;
    // the only order variation is the sanitizer's seeded shuffle.
    let mut prof = DeviceProfile::host_test();
    prof.compute_units = 1;
    let q = Queue::with_sanitizer(Device::new(prof), 0xBADC0DE);
    let buf = q.malloc_device::<u32>(1).unwrap();
    let cfg = LaunchConfig::new("order_toy", 16, 8, 8);
    // Every workgroup stores its own id to buf[0]: last writer wins, so
    // the result depends on workgroup execution order.
    q.launch(cfg, |ctx| {
        let g = ctx.group_id;
        ctx.for_each_subgroup(|sg| {
            if sg.sg_id() == 0 {
                sg.store_uniform(&buf, 0, g as u32);
            }
        });
    });
    let findings = q.sanitizer().unwrap().findings();
    assert!(
        findings
            .iter()
            .any(|f| f.kind == FindingKind::RaceWriteWrite),
        "the cross-workgroup WW race triggers the re-run: {findings:?}"
    );
    assert!(
        findings
            .iter()
            .any(|f| f.kind == FindingKind::OrderDependence),
        "shuffled re-run must diff: {findings:?}"
    );
    assert_eq!(
        buf.load(0),
        15,
        "first-run result is restored after the diagnostic re-run"
    );
}

// ---------------------------------------------------------------------------
// All-clear: the shipping algorithms over the 4-dataset suite must report
// zero findings under every frontier representation.
// ---------------------------------------------------------------------------

fn four_datasets() -> Vec<Dataset> {
    vec![
        datasets::road_ca(Scale::Test),
        datasets::hollywood(Scale::Test),
        datasets::indochina(Scale::Test),
        datasets::kron(Scale::Test),
    ]
}

#[test]
fn bfs_sssp_cc_all_clear_on_dataset_suite() {
    for ds in four_datasets() {
        let src = sample_useful_sources(&ds.host, 1, 42)[0];
        let undirected = ds.host.to_undirected().unwrap();
        for rep in [
            Representation::Dense,
            Representation::Sparse,
            Representation::Auto,
        ] {
            let opts = OptConfig::with_representation(rep);

            let q = sanitized_queue();
            let g = DeviceCsr::upload(&q, &ds.host).unwrap();
            bfs::run(&q, &g, src, &opts).unwrap();
            bfs::run_fused(&q, &g, src, &opts).unwrap();
            sssp::run(&q, &g, src, &opts).unwrap();
            let san = q.sanitizer().unwrap();
            assert!(
                san.is_clean(),
                "BFS/SSSP on {} under {rep:?}: {}",
                ds.name,
                san.report()
            );
            // The all-clear has to cover the merged launch: advance
            // workgroups and a retired frontier's clear in one kernel.
            assert!(
                common::retire_census(&q).0 > 0,
                "BFS/SSSP on {} under {rep:?} never retired a frontier inline",
                ds.name
            );

            // CC needs symmetric input; run it on its own queue so a
            // finding is attributable to one algorithm.
            let q = sanitized_queue();
            let g = DeviceCsr::upload(&q, &undirected).unwrap();
            cc::run(&q, &g, &opts).unwrap();
            cc::run_shortcutting(&q, &g, &opts).unwrap();
            let san = q.sanitizer().unwrap();
            assert!(
                san.is_clean(),
                "CC on {} under {rep:?}: {}",
                ds.name,
                san.report()
            );
            assert!(
                common::retire_census(&q).0 > 0,
                "CC on {} under {rep:?} never retired a frontier inline",
                ds.name
            );
        }
    }
}
