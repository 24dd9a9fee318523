//! The simulator-only contract of the launch host path: what
//! `Queue::launch` skips on the host (idle CUs, flushes of clean L1s) must
//! not move one simulated statistic.
//!
//! The reference here is the model as it was before those shortcuts: an
//! eager-flush set-associative LRU cache, every CU of the device visited
//! and flushed on every launch, and `cost::finalize` over one aggregate
//! per CU, idle ones included.

use std::sync::Mutex;

use proptest::prelude::*;
use sygraph_sim::cache::CacheModel;
use sygraph_sim::cost::{self, CuAgg};
use sygraph_sim::{
    Device, DeviceBuffer, DeviceProfile, FindingKind, GroupStats, KernelStats, LaunchConfig, Queue,
};

/// Eager-flush reference: the same policy as `CacheModel` (full-line tags,
/// first invalid way else least-recent stamp), with a flush that always
/// clears everything. Geometries passed in are exact powers of two, so no
/// rounding rule is needed.
struct EagerCache {
    sets: usize,
    ways: usize,
    line_shift: u32,
    tags: Vec<u64>,
    stamps: Vec<u64>,
    clock: u64,
    hits: u64,
    misses: u64,
}

impl EagerCache {
    fn new(bytes: u64, ways: u32, line_bytes: u32) -> Self {
        let ways = ways as usize;
        let sets = (bytes / line_bytes as u64) as usize / ways;
        assert!(sets.is_power_of_two() && line_bytes.is_power_of_two());
        EagerCache {
            sets,
            ways,
            line_shift: line_bytes.trailing_zeros(),
            tags: vec![u64::MAX; sets * ways],
            stamps: vec![0; sets * ways],
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    fn access(&mut self, addr: u64) -> bool {
        let line = addr >> self.line_shift;
        let base = (line as usize & (self.sets - 1)) * self.ways;
        self.clock += 1;
        let set = base..base + self.ways;
        if let Some(w) = set.clone().find(|&w| self.tags[w] == line) {
            self.stamps[w] = self.clock;
            self.hits += 1;
            return true;
        }
        let victim = set
            .clone()
            .find(|&w| self.tags[w] == u64::MAX)
            .or_else(|| set.min_by_key(|&w| self.stamps[w]))
            .unwrap();
        self.tags[victim] = line;
        self.stamps[victim] = self.clock;
        self.misses += 1;
        false
    }

    fn flush(&mut self) {
        self.tags.fill(u64::MAX);
        self.stamps.fill(0);
    }
}

const GEOMETRIES: [(u64, u32, u32); 4] = [(64, 2, 32), (1024, 2, 32), (4096, 4, 64), (512, 1, 32)];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// (a) Lazy flush is unobservable: same hit/miss sequence, same
    /// counters, under any interleaving of accesses and flushes,
    /// back-to-back flushes and flushes of a never-touched cache included.
    #[test]
    fn lazy_flush_matches_eager_flush(
        geometry in 0..GEOMETRIES.len(),
        ops in prop::collection::vec((0..6u32, 0..8192u64), 0..600),
    ) {
        let (bytes, ways, line) = GEOMETRIES[geometry];
        let mut lazy = CacheModel::new(bytes, ways, line);
        let mut eager = EagerCache::new(bytes, ways, line);
        prop_assert_eq!(lazy.lines(), eager.sets * eager.ways);
        for (step, &(kind, addr)) in ops.iter().enumerate() {
            if kind == 0 {
                lazy.flush();
                eager.flush();
            } else {
                // Few distinct lines, so sets fill up and evict.
                let addr = addr % (4 * bytes);
                prop_assert_eq!(lazy.access(addr), eager.access(addr), "step {}", step);
            }
        }
        prop_assert_eq!(lazy.hits(), eager.hits);
        prop_assert_eq!(lazy.misses(), eager.misses);
    }
}

/// Element indices workgroup `g` of launch `launch` loads. Drawn from 128
/// lines and repeated within the group, so launches see L1 hits, L2 hits
/// left by earlier launches on the same CU, and DRAM misses.
fn loads(launch: usize, g: usize) -> Vec<usize> {
    let mut x = (launch as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ g as u64;
    let mut out = Vec::new();
    for _ in 0..6 {
        x ^= x >> 29;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let i = (x >> 40) as usize % 1024;
        out.extend([i, i]);
    }
    out
}

/// One CU of the reference device.
struct RefCu {
    l1: EagerCache,
    l2: EagerCache,
}

/// The launch as the unshortened model runs it: every CU flushed and
/// visited, workgroup `g` on CU `g % cus`, one aggregate per CU.
fn reference_launch(
    profile: &DeviceProfile,
    cus: &mut [RefCu],
    cfg: &LaunchConfig,
    launch: usize,
    buf: &DeviceBuffer<u32>,
) -> KernelStats {
    let aggs: Vec<CuAgg> = cus
        .iter_mut()
        .enumerate()
        .map(|(cu, caches)| {
            caches.l1.flush();
            let mut agg = CuAgg::default();
            for g in (cu..cfg.workgroups).step_by(profile.compute_units as usize) {
                let mut stats = GroupStats::default();
                for i in loads(launch, g) {
                    // One uniform load: a full-width instruction, one line.
                    stats.active_lanes += cfg.sg_size as u64;
                    stats.lane_slots += cfg.sg_size as u64;
                    stats.compute_cycles += 1;
                    let addr = buf.addr_of(i);
                    if caches.l1.access(addr) {
                        stats.l1_hits += 1;
                    } else if caches.l2.access(addr) {
                        stats.l2_hits += 1;
                    } else {
                        stats.dram_transactions += 1;
                        stats.dram_bytes += profile.line_bytes as u64;
                    }
                }
                agg.add_group(profile, cfg, &stats);
            }
            agg
        })
        .collect();
    assert_eq!(aggs.len(), profile.compute_units as usize);
    cost::finalize(profile, cfg, &aggs)
}

fn assert_bit_equal(got: &KernelStats, want: &KernelStats, what: &str) {
    assert_eq!(got.totals, want.totals, "{what}: totals");
    assert_eq!(got.workgroups, want.workgroups, "{what}: workgroups");
    for (name, a, b) in [
        ("exec_ns", got.exec_ns, want.exec_ns),
        ("overhead_ns", got.overhead_ns, want.overhead_ns),
        ("occupancy", got.occupancy, want.occupancy),
        (
            "max_group_cycles",
            got.max_group_cycles,
            want.max_group_cycles,
        ),
        (
            "mean_group_cycles",
            got.mean_group_cycles,
            want.mean_group_cycles,
        ),
    ] {
        assert_eq!(a.to_bits(), b.to_bits(), "{what}: {name} {a} vs {b}");
    }
}

/// (b) Launches smaller than the device, after every CU's L1 was dirtied,
/// produce the statistics of the all-CU, flush-every-launch model bit for
/// bit; so does the full-width launch that follows CUs sitting out.
#[test]
fn partial_launches_match_all_cu_eager_model() {
    let profile = DeviceProfile::host_test();
    let cus = profile.compute_units as usize;
    let q = Queue::new(Device::new(profile.clone()));
    let buf = q.malloc_device::<u32>(1024).unwrap();
    let mut reference: Vec<RefCu> = (0..cus)
        .map(|_| RefCu {
            l1: EagerCache::new(
                profile.l1_bytes as u64,
                profile.l1_assoc,
                profile.line_bytes,
            ),
            l2: EagerCache::new(
                profile.l2_bytes / cus as u64,
                profile.l2_assoc,
                profile.line_bytes,
            ),
        })
        .collect();

    // The first launch dirties every L1; the rest leave CUs idle for one
    // or more launches before `cus + 1` and `2 * cus` reach them again.
    let widths = [2 * cus, 1, 2, 0, cus + 1, 1, 2 * cus];
    for (launch, &workgroups) in widths.iter().enumerate() {
        let cfg = LaunchConfig::new(format!("launch{launch}"), workgroups, 8, 8);
        let want = reference_launch(&profile, &mut reference, &cfg, launch, &buf);
        q.launch(cfg, |ctx| {
            let g = ctx.group_id;
            ctx.for_each_subgroup(|sg| {
                for i in loads(launch, g) {
                    let _: u32 = sg.load_uniform(&buf, i);
                }
            });
        });
        let got = q.profiler().kernels().pop().unwrap().stats;
        assert_bit_equal(&got, &want, &format!("{workgroups}-workgroup launch"));
    }
    // The sequence must have exercised what it is about.
    let all = q.profiler().kernels();
    assert!(all.iter().any(|k| k.stats.totals.l1_hits > 0));
    assert!(all[1..].iter().any(|k| k.stats.totals.l2_hits > 0));
    assert!(all.iter().any(|k| k.stats.totals.dram_transactions > 0));
}

/// (c) The sanitizer's shuffled re-run (`order = Some(perm)`) still runs
/// every workgroup exactly once when the launch leaves CUs idle.
#[test]
fn shuffled_rerun_visits_every_workgroup_once_below_cu_count() {
    let profile = DeviceProfile::host_test();
    let workgroups = profile.compute_units as usize - 1;
    let q = Queue::with_sanitizer(Device::new(profile), 0xBADC0DE);
    let buf = q.malloc_device::<u32>(1).unwrap();
    // Host-side witness: the re-run's device writes are rolled back.
    let order = Mutex::new(Vec::new());
    q.launch(LaunchConfig::new("ww_toy", workgroups, 8, 8), |ctx| {
        let g = ctx.group_id;
        order.lock().unwrap().push(g);
        // Last writer wins: a write/write race, which triggers the re-run.
        ctx.for_each_subgroup(|sg| sg.store_uniform(&buf, 0, g as u32));
    });
    let findings = q.sanitizer().unwrap().findings();
    assert!(
        findings
            .iter()
            .any(|f| f.kind == FindingKind::RaceWriteWrite),
        "the launch must be flagged for the re-run to happen: {findings:?}"
    );
    // The two passes run one after the other, so each half of the log is
    // one pass.
    let order = order.into_inner().unwrap();
    assert_eq!(order.len(), 2 * workgroups);
    for pass in order.chunks(workgroups) {
        let mut seen = pass.to_vec();
        seen.sort_unstable();
        assert_eq!(seen, (0..workgroups).collect::<Vec<_>>());
    }
}
