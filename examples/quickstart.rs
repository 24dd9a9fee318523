//! Quickstart: the paper's Listing 1 BFS, written against the public API.
//!
//! The superstep engine owns the advance→compute→swap→clear cycle that
//! Listing 1 spells out by hand: the compute functor is fused into the
//! advance kernel (it runs the moment a vertex first enters the output
//! frontier), convergence comes from the counted frontier compaction, and
//! the cleared frontier only touches the words the superstep dirtied.
//!
//! Run with: `cargo run --release --example quickstart`

use sygraph::prelude::*;

fn main() {
    // A queue bound to a simulated NVIDIA V100S (paper machine A).
    let q = Queue::new(Device::new(DeviceProfile::v100s()));

    // A small diamond-and-tail graph.
    let host = CsrHost::from_edges(7, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6)]);
    let graph = Graph::new(&q, &host).expect("upload");
    let n = graph.vertex_count();

    // The device inspector tunes word width / subgroup / coarsening.
    let tuning = inspect(q.profile(), &OptConfig::all(), n);
    println!(
        "device: {} — word {} bits, subgroup {}, coarsening {}",
        q.profile().name,
        tuning.word_bits,
        tuning.sg_size,
        tuning.coarsening
    );

    // Listing 1's state: distances plus the ping-pong frontier pair.
    let dist = q.malloc_device::<u32>(n).expect("alloc");
    q.fill(&dist, u32::MAX);
    dist.store(0, 0);

    let fin = TwoLayerFrontier::<u32>::new(&q, n).unwrap();
    let fout = TwoLayerFrontier::<u32>::new(&q, n).unwrap();
    fin.insert_host(0);

    // Listing 1's loop, as one engine run: the advance functor accepts
    // each still-unvisited destination, and the fused compute stamps its
    // distance inside the same kernel launch.
    let mut engine = SuperstepEngine::new(&q, &graph.csr, tuning, Box::new(fin), Box::new(fout))
        .fused(true)
        .mark_prefix("bfs_iter")
        .max_iters(n + 1, "BFS failed to converge");
    let iters = engine
        .run(
            |l, _iter, _u, v, _e, _w| l.load(&dist, v as usize) == u32::MAX,
            Some(&|l, iter, v| l.store(&dist, v as usize, iter + 1)),
        )
        .expect("bfs");

    println!(
        "BFS finished in {iters} supersteps, {:.3} simulated ms",
        q.elapsed_ms()
    );
    for (v, d) in dist.to_vec().iter().enumerate() {
        println!("  dist[{v}] = {d}");
    }
    assert_eq!(dist.to_vec(), vec![0, 1, 1, 2, 3, 4, 5]);
    println!("matches the expected distances ✓");
}
