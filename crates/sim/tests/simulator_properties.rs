//! Property-based tests of the simulator's models: the coalescer against
//! a set-based reference, the LRU cache against a naive model, cost-model
//! monotonicity, and functional determinism of parallel kernels.

use std::collections::{HashSet, VecDeque};

use proptest::prelude::*;
use sygraph_sim::cache::CacheModel;
use sygraph_sim::coalesce::Coalescer;
use sygraph_sim::{Device, DeviceProfile, Queue, TraceKind};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn coalescer_matches_set_of_lines(
        accesses in prop::collection::vec((0u64..1 << 20, 1u32..16), 1..64),
        shift in 5u32..8,
    ) {
        let line = 1u32 << shift;
        let mut c = Coalescer::new(line);
        c.begin();
        let mut want = HashSet::new();
        for &(addr, bytes) in &accesses {
            c.lane(addr, bytes);
            let mut a = addr & !(line as u64 - 1);
            while a < addr + bytes as u64 {
                want.insert(a);
                a += line as u64;
            }
        }
        let mut got = HashSet::new();
        let n = c.flush(|base| { got.insert(base); });
        prop_assert_eq!(n as usize, want.len());
        prop_assert_eq!(got, want);
    }

    #[test]
    fn cache_matches_naive_lru(addrs in prop::collection::vec(0u64..4096, 1..200)) {
        // 4 sets x 2 ways of 32B lines, compared against a brute-force
        // fully-explicit per-set LRU queue.
        let mut cache = CacheModel::new(256, 2, 32);
        let mut sets: Vec<VecDeque<u64>> = vec![VecDeque::new(); 4];
        for &a in &addrs {
            let line = a >> 5;
            let set = (line & 3) as usize;
            let q = &mut sets[set];
            let want_hit = q.contains(&line);
            if want_hit {
                q.retain(|&l| l != line);
            } else if q.len() == 2 {
                q.pop_front();
            }
            q.push_back(line);
            let got_hit = cache.access(a);
            prop_assert_eq!(got_hit, want_hit, "addr {}", a);
        }
    }

    #[test]
    fn parallel_for_is_deterministic_functionally(n in 1usize..3000) {
        let run = || {
            let q = Queue::new(Device::new(DeviceProfile::host_test()));
            let buf = q.malloc_device::<u64>(n).unwrap();
            q.parallel_for("det", n, |l, i| {
                l.store(&buf, i, (i * i + 7) as u64);
            });
            buf.to_vec()
        };
        prop_assert_eq!(run(), run());
    }

    #[test]
    fn simulated_time_is_additive_and_positive(k in 1usize..8) {
        let q = Queue::new(Device::new(DeviceProfile::host_test()));
        let buf = q.malloc_device::<u32>(512).unwrap();
        let mut last_end = 0.0;
        for _ in 0..k {
            let ev = q.fill(&buf, 1);
            prop_assert!(ev.start_ns >= last_end - 1e-9, "in-order queue");
            prop_assert!(ev.end_ns > ev.start_ns);
            last_end = ev.end_ns;
        }
        prop_assert!((q.now_ns() - last_end).abs() < 1e-6);
    }

    #[test]
    fn more_work_never_costs_less(n in 64usize..2048) {
        // A kernel over 4n items models at least the time of one over n.
        let time_for = |items: usize| {
            let q = Queue::new(Device::new(DeviceProfile::host_test()));
            let buf = q.malloc_device::<u32>(items).unwrap();
            q.parallel_for("w", items, |l, i| {
                l.store(&buf, i, 1);
                l.compute(4);
            })
            .duration_ms()
        };
        prop_assert!(time_for(4 * n) >= time_for(n) * 0.999);
    }
}

#[test]
fn concurrent_atomics_from_many_workgroups_are_exact() {
    // Heavy cross-workgroup contention must still sum exactly (the
    // simulator uses real atomics under the hood).
    let q = Queue::new(Device::new(DeviceProfile::host_test()));
    let acc = q.malloc_device::<u64>(4).unwrap();
    let n = 50_000;
    q.parallel_for("hammer", n, |l, i| {
        l.fetch_add(&acc, i % 4, 1u64);
    });
    let v = acc.to_vec();
    assert_eq!(v.iter().sum::<u64>(), n as u64);
    for x in v {
        assert_eq!(x, n as u64 / 4);
    }
}

#[test]
fn kernel_stats_survive_profiler_snapshot() {
    let q = Queue::new(Device::new(DeviceProfile::host_test()));
    let buf = q.malloc_device::<u32>(4096).unwrap();
    q.parallel_for("traffic", 4096, |l, i| {
        let _ = l.load(&buf, i);
    });
    let kernels = q.profiler().kernels();
    assert_eq!(kernels.len(), 1);
    let s = &kernels[0].stats;
    assert!(s.totals.transactions() > 0);
    assert!(s.occupancy > 0.0 && s.occupancy <= 1.0);
    assert!(s.exec_ns > 0.0);
    let dram = q.profiler().fold(0, |sum, e| match &e.kind {
        TraceKind::Kernel(k) => sum + k.stats.totals.dram_bytes,
        _ => sum,
    });
    assert_eq!(dram, s.totals.dram_bytes, "the fold sees the single record");
}
