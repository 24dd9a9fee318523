//! Property-based tests on the superstep engine: a fused engine run must
//! be bit-identical — same frontier contents after every superstep, same
//! final per-vertex values, same superstep count — to the hand-written
//! unfused operator sequence (advance, then a separate `compute` pass,
//! then swap + clear) it replaces, across every ablation configuration
//! and random graphs.

use proptest::prelude::*;
use sygraph::prelude::*;
use sygraph_core::operators::compute;

fn queue() -> Queue {
    Queue::new(Device::new(DeviceProfile::host_test()))
}

const N: usize = 80;

fn make<W: Word>(q: &Queue, opts: &OptConfig) -> Box<dyn BitmapLike<W>> {
    if opts.two_layer {
        Box::new(TwoLayerFrontier::<W>::new(q, N).unwrap())
    } else {
        Box::new(BitmapFrontier::<W>::new(q, N).unwrap())
    }
}

/// BFS through the fused engine: distance stamps run inside the advance
/// kernel. Returns (distances, per-superstep frontier snapshots).
fn run_fused<W: Word>(
    q: &Queue,
    g: &DeviceCsr,
    src: u32,
    opts: &OptConfig,
) -> (Vec<u32>, Vec<Vec<u32>>) {
    let n = g.vertex_count();
    let tuning = inspect(q.profile(), opts, n);
    let dist = q.malloc_device::<u32>(n).unwrap();
    q.fill(&dist, INF_DIST);
    dist.store(src as usize, 0);
    let fin = make::<W>(q, opts);
    let fout = make::<W>(q, opts);
    fin.insert_host(src);
    let mut engine = SuperstepEngine::new(q, g, tuning, fin, fout).fused(true);
    let mut snaps = Vec::new();
    while engine
        .step(
            |l, _iter, _u, v, _e, _w| l.load(&dist, v as usize) == INF_DIST,
            Some(&|l, iter, v| l.store(&dist, v as usize, iter + 1)),
        )
        .unwrap()
    {
        snaps.push(engine.output().to_sorted_vec());
        engine.rotate().unwrap();
    }
    (dist.to_vec(), snaps)
}

/// The same BFS as the unfused operator sequence the engine replaces:
/// `advance` into the output frontier, a separate `compute` pass stamping
/// distances, then swap + full clear.
fn run_unfused<W: Word>(
    q: &Queue,
    g: &DeviceCsr,
    src: u32,
    opts: &OptConfig,
) -> (Vec<u32>, Vec<Vec<u32>>) {
    let n = g.vertex_count();
    let tuning = inspect(q.profile(), opts, n);
    let dist = q.malloc_device::<u32>(n).unwrap();
    q.fill(&dist, INF_DIST);
    dist.store(src as usize, 0);
    let mut fin = make::<W>(q, opts);
    let mut fout = make::<W>(q, opts);
    fin.insert_host(src);
    let mut snaps = Vec::new();
    let mut iter = 0u32;
    loop {
        let (ev, words) = Advance::new(q, g, fin.as_ref())
            .output(fout.as_ref())
            .tuning(&tuning)
            .run(|l, _u, v, _e, _w| l.load(&dist, v as usize) == INF_DIST);
        ev.wait();
        if words == Some(0) || (words.is_none() && fin.is_empty(q)) {
            break;
        }
        compute::execute(q, fout.as_ref(), |l, v| {
            l.store(&dist, v as usize, iter + 1);
        })
        .wait();
        snaps.push(fout.to_sorted_vec());
        swap(&mut fin, &mut fout);
        fout.clear(q);
        iter += 1;
    }
    (dist.to_vec(), snaps)
}

fn check_all_configs(edges: &[(u32, u32)], src: u32) -> Result<(), TestCaseError> {
    let host = CsrHost::from_edges(N, edges);
    // The load-balancing policy is part of the configuration space too:
    // the fused/unfused equivalence must hold on the bucketed dispatch
    // path, not just the workgroup-mapped one.
    let mut configs = OptConfig::ablation_suite();
    configs.push(("Bucketed", OptConfig::with_balancing(Balancing::Bucketed)));
    configs.push(("AutoLB", OptConfig::with_balancing(Balancing::Auto)));
    for (label, opts) in configs {
        let q = queue();
        let g = DeviceCsr::upload(&q, &host).unwrap();
        let (fd, fs) = run_fused::<u32>(&q, &g, src, &opts);
        let (ud, us) = run_unfused::<u32>(&q, &g, src, &opts);
        prop_assert_eq!(&fd, &ud, "distances diverge under {}", label);
        prop_assert_eq!(&fs, &us, "frontier sequences diverge under {}", label);
    }
    // The word width is also part of the configuration space: re-check
    // the full-optimization config on 64-bit words.
    let q = queue();
    let g = DeviceCsr::upload(&q, &host).unwrap();
    let opts = OptConfig::all();
    let (fd, fs) = run_fused::<u64>(&q, &g, src, &opts);
    let (ud, us) = run_unfused::<u64>(&q, &g, src, &opts);
    prop_assert_eq!(fd, ud, "distances diverge on u64 words");
    prop_assert_eq!(fs, us, "frontier sequences diverge on u64 words");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn fused_engine_is_bit_identical_to_unfused_operators(
        edges in prop::collection::vec((0..N as u32, 0..N as u32), 0..240),
        src in 0..N as u32,
    ) {
        check_all_configs(&edges, src)?;
    }

    #[test]
    fn fused_engine_identical_on_chain_heavy_graphs(
        chains in prop::collection::vec(0..N as u32 - 1, 1..40),
        src in 0..N as u32,
    ) {
        // Long paths exercise many supersteps with tiny frontiers — the
        // regime where lazy clears and counted convergence earn their keep.
        let edges: Vec<(u32, u32)> = chains.iter().map(|&v| (v, v + 1)).collect();
        check_all_configs(&edges, src)?;
    }
}
