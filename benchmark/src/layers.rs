//! Per-layer numbers read from the simulator's public records: sums over
//! `KernelRecord::stats`, grouped by kernel-name family (the Gunrock-style
//! per-operator split), and the engine's policy traces.

use std::time::Instant;

use sygraph_sim::profiler::{DirectionEvent, KernelRecord, RepEvent};
use sygraph_sim::{Device, DeviceProfile, Queue};

use crate::util::percentile;

/// Operator family of a kernel, from its launch name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// `core::operators::advance` launches.
    Advance,
    /// `core::operators::{compute, filter}` launches.
    ComputeFilter,
    /// `core::frontier` upkeep: compaction, clears, layer-2 rebuilds,
    /// lane masks, the unvisited set.
    FrontierMaint,
    /// Algorithm-owned kernels (fills, `pr_apply`, `cc_init`, ...).
    Other,
}

pub fn family(kernel_name: &str) -> Family {
    let starts = |prefixes: &[&str]| prefixes.iter().any(|p| kernel_name.starts_with(p));
    if starts(&["advance"]) {
        Family::Advance
    } else if starts(&["compute", "filter"]) {
        Family::ComputeFilter
    } else if starts(&["frontier_", "layer2_", "lane_", "unvisited_"]) {
        Family::FrontierMaint
    } else {
        Family::Other
    }
}

/// Exact counts of `ops` traced ops and what they cost the host: per
/// launch, and per edge of the graphs they ran on.
pub fn engine_metrics(
    ops: usize,
    launches: u64,
    supersteps: u64,
    wall_ms: f64,
    edges: f64,
) -> Vec<(&'static str, f64)> {
    let ops = ops.max(1) as f64;
    vec![
        ("sim.launches_per_op", launches as f64 / ops),
        ("core.engine.supersteps_per_op", supersteps as f64 / ops),
        (
            "core.engine.kernels_per_superstep",
            launches as f64 / supersteps.max(1) as f64,
        ),
        (
            "sim.host_us_per_launch",
            wall_ms * 1e3 / launches.max(1) as f64,
        ),
        ("sim.host_ns_per_edge", wall_ms * 1e6 / edges.max(1.0)),
        (
            "sim.host_medges_per_s",
            edges / 1e6 / (wall_ms / 1e3).max(1e-9),
        ),
    ]
}

/// `sim.launch_host_us`: the fixed host cost of one launch, from 2000
/// empty one-item kernels on an idle queue of `profile`.
pub fn launch_host_us(profile: &DeviceProfile) -> f64 {
    const LAUNCHES: usize = 2000;
    let idle = Queue::new(Device::new(profile.clone()));
    let t = Instant::now();
    for _ in 0..LAUNCHES {
        idle.parallel_for("noop", 1, |_, _| {});
    }
    t.elapsed().as_secs_f64() * 1e6 / LAUNCHES as f64
}

/// Running sums over the kernel records of the traced ops.
#[derive(Debug, Default)]
pub struct KernelAgg {
    launches: u64,
    overhead_ns: f64,
    exec_ns: f64,
    dram_bytes: u64,
    l1_hits: u64,
    l2_hits: u64,
    dram_transactions: u64,
    atomic_conflict_cycles: u64,
    active_lanes: u64,
    lane_slots: u64,
    /// Σ occupancy × exec_ns (time-weighted mean numerator).
    occupancy_ns: f64,
    /// `load_imbalance()` of every advance launch.
    advance_imbalance: Vec<f64>,
    advance_ns: f64,
    advance_launches: u64,
    compute_filter_ns: f64,
    maint_ns: f64,
    maint_launches: u64,
}

impl KernelAgg {
    pub fn add(&mut self, records: &[KernelRecord]) {
        for k in records {
            let s = &k.stats;
            self.launches += 1;
            self.overhead_ns += s.overhead_ns;
            self.exec_ns += s.exec_ns;
            self.dram_bytes += s.totals.dram_bytes;
            self.l1_hits += s.totals.l1_hits;
            self.l2_hits += s.totals.l2_hits;
            self.dram_transactions += s.totals.dram_transactions;
            self.atomic_conflict_cycles += s.totals.atomic_conflict_cycles;
            self.active_lanes += s.totals.active_lanes;
            self.lane_slots += s.totals.lane_slots;
            self.occupancy_ns += s.occupancy * s.exec_ns;
            match family(&k.name) {
                Family::Advance => {
                    self.advance_ns += s.total_ns();
                    self.advance_launches += 1;
                    self.advance_imbalance.push(s.load_imbalance());
                }
                Family::ComputeFilter => self.compute_filter_ns += s.total_ns(),
                Family::FrontierMaint => {
                    self.maint_ns += s.total_ns();
                    self.maint_launches += 1;
                }
                Family::Other => {}
            }
        }
    }

    /// The `sim.*` cost-model terms and the `core.*` operator split, per
    /// op over `ops` operations.
    pub fn metrics(&self, ops: usize) -> Vec<(&'static str, f64)> {
        let ops = ops.max(1) as f64;
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let total_ns = self.overhead_ns + self.exec_ns;
        let launches = self.launches as f64;
        vec![
            (
                "sim.launch_overhead_share",
                ratio(self.overhead_ns, total_ns),
            ),
            ("sim.dram_mb_per_op", self.dram_bytes as f64 / 1e6 / ops),
            (
                "sim.l1_hit_rate",
                ratio(
                    self.l1_hits as f64,
                    (self.l1_hits + self.l2_hits + self.dram_transactions) as f64,
                ),
            ),
            (
                "sim.l2_hit_rate",
                ratio(
                    self.l2_hits as f64,
                    (self.l2_hits + self.dram_transactions) as f64,
                ),
            ),
            (
                "sim.atomic_conflict_mcycles_per_op",
                self.atomic_conflict_cycles as f64 / 1e6 / ops,
            ),
            (
                "sim.idle_lane_share",
                1.0 - ratio(self.active_lanes as f64, self.lane_slots as f64).min(1.0),
            ),
            ("sim.occupancy_mean", ratio(self.occupancy_ns, self.exec_ns)),
            (
                "sim.load_imbalance_p95",
                percentile(&self.advance_imbalance, 95.0).unwrap_or(0.0),
            ),
            (
                "core.operators.advance_ms_per_op",
                self.advance_ns / 1e6 / ops,
            ),
            (
                "core.operators.compute_filter_ms_per_op",
                self.compute_filter_ns / 1e6 / ops,
            ),
            ("core.frontier.maint_ms_per_op", self.maint_ns / 1e6 / ops),
            (
                "core.operators.advance_launch_share",
                ratio(self.advance_launches as f64, launches),
            ),
            (
                "core.frontier.maint_launch_share",
                ratio(self.maint_launches as f64, launches),
            ),
        ]
    }
}

/// Running counts over the engine's per-superstep policy traces.
#[derive(Debug, Default)]
pub struct PolicyAgg {
    direction_steps: u64,
    pull_steps: u64,
    rep_steps: u64,
    sparse_steps: u64,
    switches: u64,
}

impl PolicyAgg {
    pub fn add(&mut self, directions: &[DirectionEvent], reps: &[RepEvent]) {
        self.direction_steps += directions.len() as u64;
        self.pull_steps += directions.iter().filter(|e| e.direction == "pull").count() as u64;
        self.rep_steps += reps.len() as u64;
        self.sparse_steps += reps.iter().filter(|e| e.rep == "sparse").count() as u64;
        self.switches += directions.iter().filter(|e| e.switched).count() as u64
            + reps.iter().filter(|e| e.switched).count() as u64;
    }

    pub fn metrics(&self, ops: usize) -> Vec<(&'static str, f64)> {
        let share = |num: u64, den: u64| {
            if den > 0 {
                num as f64 / den as f64
            } else {
                0.0
            }
        };
        vec![
            (
                "core.engine.pull_superstep_share",
                share(self.pull_steps, self.direction_steps),
            ),
            (
                "core.engine.sparse_superstep_share",
                share(self.sparse_steps, self.rep_steps),
            ),
            (
                "core.engine.policy_switches_per_op",
                self.switches as f64 / ops.max(1) as f64,
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_names_map_to_operator_families() {
        assert_eq!(family("advance_pull"), Family::Advance);
        assert_eq!(family("compute_compacted"), Family::ComputeFilter);
        assert_eq!(family("filter_inplace"), Family::ComputeFilter);
        assert_eq!(family("frontier_compact"), Family::FrontierMaint);
        assert_eq!(family("layer2_rebuild"), Family::FrontierMaint);
        assert_eq!(family("lane_lazy_clear"), Family::FrontierMaint);
        assert_eq!(family("unvisited_subtract"), Family::FrontierMaint);
        assert_eq!(family("pr_apply"), Family::Other);
    }
}
