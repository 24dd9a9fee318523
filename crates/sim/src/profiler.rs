//! Execution profiler: per-kernel records, memory events and phase markers.
//!
//! The profiler is the measurement instrument behind the paper's evaluation
//! artifacts: Figure 8/10 read total simulated times, Table 5 reads peak
//! per-kernel L1 hit rate and occupancy, Figure 9 reads DRAM traffic and
//! allocation footprint grouped by phase markers (one marker per BFS
//! iteration).

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::stats::KernelStats;

/// One kernel launch as recorded by the profiler.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KernelRecord {
    pub name: String,
    /// Launch sequence number within the queue.
    pub seq: u64,
    /// Simulated start time (ns).
    pub start_ns: f64,
    /// Simulated end time (ns).
    pub end_ns: f64,
    pub stats: KernelStats,
}

/// A device memory allocation/free event.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MemEvent {
    pub t_ns: f64,
    /// Positive for alloc, negative for free.
    pub delta_bytes: i64,
    /// Device memory in use after the event.
    pub usage_after: u64,
    pub tag: String,
}

/// A named phase marker (e.g. one per BFS iteration).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Marker {
    pub label: String,
    pub t_ns: f64,
    /// Number of kernels recorded before this marker.
    pub kernel_watermark: usize,
}

/// One superstep's frontier-representation choice, as recorded by the
/// engine: which representation the input frontier ran under and whether
/// that was a switch from the previous superstep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RepEvent {
    pub t_ns: f64,
    /// Superstep index within the engine run (0-based).
    pub superstep: u32,
    /// Representation label ("dense" / "sparse").
    pub rep: String,
    /// Whether this superstep changed representation.
    pub switched: bool,
}

/// One superstep's traversal-direction choice, as recorded by the engine:
/// whether the advance ran push (frontier scans out-edges) or pull
/// (unvisited candidates scan in-edges) and whether that was a switch from
/// the previous superstep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DirectionEvent {
    pub t_ns: f64,
    /// Superstep index within the engine run (0-based).
    pub superstep: u32,
    /// Direction label ("push" / "pull").
    pub direction: String,
    /// Whether this superstep changed direction.
    pub switched: bool,
}

/// One recovery action taken by the engine in response to an injected (or
/// real) fault: a transient retry, an OOM degradation rung, or a
/// checkpoint resume after device loss.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RecoveryEvent {
    pub t_ns: f64,
    /// Superstep index at which the fault was handled (0-based).
    pub superstep: u32,
    /// Fault class ("transient" / "oom" / "device-lost").
    pub fault: String,
    /// Action taken ("retry" / a degradation rung label / "resume").
    pub action: String,
    /// 1-based attempt counter within this fault class.
    pub attempt: u32,
}

/// One batched multi-source superstep's lane census, as recorded by the
/// engine: how many source lanes were still live after the superstep and
/// how many retired during it (their frontier emptied).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LaneEvent {
    pub t_ns: f64,
    /// Superstep index within the engine run (0-based).
    pub superstep: u32,
    /// Live lanes after the superstep's retirements.
    pub active: u32,
    /// Lanes that retired during this superstep.
    pub retired: u32,
}

/// One superstep-boundary frontier exchange on one channel (an ordered
/// partition pair), as recorded by the multi-device engine: how many halo
/// words changed, how many halo activations they carried, and the bytes
/// the interconnect moved for them (words + indices + value payload).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExchangeEvent {
    pub t_ns: f64,
    /// Global superstep index within the multi-device run (0-based).
    pub superstep: u32,
    /// Sending partition (the one this profiler's queue drives).
    pub src_part: u32,
    /// Receiving partition.
    pub dst_part: u32,
    /// Non-zero halo words scanned out of the sender's output frontier.
    pub words: u64,
    /// Halo activations (set bits) delivered on this channel.
    pub msgs: u64,
    /// Modelled interconnect bytes for this channel.
    pub bytes: u64,
}

#[derive(Debug, Default)]
struct Inner {
    kernels: Vec<KernelRecord>,
    mem_events: Vec<MemEvent>,
    markers: Vec<Marker>,
    rep_events: Vec<RepEvent>,
    direction_events: Vec<DirectionEvent>,
    recovery_events: Vec<RecoveryEvent>,
    lane_events: Vec<LaneEvent>,
    exchange_events: Vec<ExchangeEvent>,
}

/// Thread-safe profiler attached to a queue.
#[derive(Debug, Default)]
pub struct Profiler {
    inner: Mutex<Inner>,
}

impl Profiler {
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn record_kernel(&self, rec: KernelRecord) {
        self.inner.lock().kernels.push(rec);
    }

    pub(crate) fn record_mem(&self, ev: MemEvent) {
        self.inner.lock().mem_events.push(ev);
    }

    /// Inserts a phase marker at time `t_ns`.
    pub fn mark(&self, label: impl Into<String>, t_ns: f64) {
        let mut inner = self.inner.lock();
        let watermark = inner.kernels.len();
        inner.markers.push(Marker {
            label: label.into(),
            t_ns,
            kernel_watermark: watermark,
        });
    }

    /// Snapshot of all kernel records.
    pub fn kernels(&self) -> Vec<KernelRecord> {
        self.inner.lock().kernels.clone()
    }

    /// Snapshot of memory events.
    pub fn mem_events(&self) -> Vec<MemEvent> {
        self.inner.lock().mem_events.clone()
    }

    /// Snapshot of markers.
    pub fn markers(&self) -> Vec<Marker> {
        self.inner.lock().markers.clone()
    }

    /// Records a frontier-representation choice for one superstep.
    pub fn record_rep(&self, t_ns: f64, superstep: u32, rep: &str, switched: bool) {
        self.inner.lock().rep_events.push(RepEvent {
            t_ns,
            superstep,
            rep: rep.to_string(),
            switched,
        });
    }

    /// Snapshot of representation events.
    pub fn rep_events(&self) -> Vec<RepEvent> {
        self.inner.lock().rep_events.clone()
    }

    /// Number of representation *switches* recorded (events with
    /// `switched == true`).
    pub fn rep_switch_count(&self) -> usize {
        self.inner
            .lock()
            .rep_events
            .iter()
            .filter(|e| e.switched)
            .count()
    }

    /// Records a traversal-direction choice for one superstep.
    pub fn record_direction(&self, t_ns: f64, superstep: u32, direction: &str, switched: bool) {
        self.inner.lock().direction_events.push(DirectionEvent {
            t_ns,
            superstep,
            direction: direction.to_string(),
            switched,
        });
    }

    /// Snapshot of direction events.
    pub fn direction_events(&self) -> Vec<DirectionEvent> {
        self.inner.lock().direction_events.clone()
    }

    /// Number of direction *switches* recorded (events with
    /// `switched == true`).
    pub fn direction_switch_count(&self) -> usize {
        self.inner
            .lock()
            .direction_events
            .iter()
            .filter(|e| e.switched)
            .count()
    }

    /// Records a fault-recovery action.
    pub fn record_recovery(&self, ev: RecoveryEvent) {
        self.inner.lock().recovery_events.push(ev);
    }

    /// Snapshot of recovery events.
    pub fn recovery_events(&self) -> Vec<RecoveryEvent> {
        self.inner.lock().recovery_events.clone()
    }

    /// Number of recovery events recorded so far.
    pub fn recovery_count(&self) -> usize {
        self.inner.lock().recovery_events.len()
    }

    /// Records one batched superstep's lane census.
    pub fn record_lane(&self, t_ns: f64, superstep: u32, active: u32, retired: u32) {
        self.inner.lock().lane_events.push(LaneEvent {
            t_ns,
            superstep,
            active,
            retired,
        });
    }

    /// Snapshot of lane events.
    pub fn lane_events(&self) -> Vec<LaneEvent> {
        self.inner.lock().lane_events.clone()
    }

    /// Total lane retirements recorded so far.
    pub fn lane_retired_count(&self) -> u32 {
        self.inner
            .lock()
            .lane_events
            .iter()
            .map(|e| e.retired)
            .sum()
    }

    /// Records one superstep-boundary exchange channel.
    pub fn record_exchange(&self, ev: ExchangeEvent) {
        self.inner.lock().exchange_events.push(ev);
    }

    /// Snapshot of exchange events.
    pub fn exchange_events(&self) -> Vec<ExchangeEvent> {
        self.inner.lock().exchange_events.clone()
    }

    /// Total interconnect bytes across all recorded exchanges.
    pub fn exchange_byte_total(&self) -> u64 {
        self.inner
            .lock()
            .exchange_events
            .iter()
            .map(|e| e.bytes)
            .sum()
    }

    /// Number of kernels recorded so far.
    pub fn kernel_count(&self) -> usize {
        self.inner.lock().kernels.len()
    }

    /// Total DRAM bytes moved by all recorded kernels.
    pub fn total_dram_bytes(&self) -> u64 {
        self.inner
            .lock()
            .kernels
            .iter()
            .map(|k| k.stats.totals.dram_bytes)
            .sum()
    }

    /// Peak L1 hit rate over kernels matching `filter` that performed at
    /// least `min_transactions` memory transactions (tiny kernels are
    /// noise, as in NCU reports).
    pub fn peak_l1_hit_rate(&self, filter: impl Fn(&str) -> bool, min_transactions: u64) -> f64 {
        self.inner
            .lock()
            .kernels
            .iter()
            .filter(|k| filter(&k.name) && k.stats.totals.transactions() >= min_transactions)
            .map(|k| k.stats.l1_hit_rate())
            .fold(0.0, f64::max)
    }

    /// Peak achieved occupancy over kernels matching `filter`.
    pub fn peak_occupancy(&self, filter: impl Fn(&str) -> bool) -> f64 {
        self.inner
            .lock()
            .kernels
            .iter()
            .filter(|k| filter(&k.name))
            .map(|k| k.stats.occupancy)
            .fold(0.0, f64::max)
    }

    /// Worst (largest) load imbalance — max/mean per-workgroup cycles —
    /// over kernels matching `filter`. Returns 1.0 when nothing matches:
    /// an absent kernel cannot be imbalanced.
    pub fn worst_load_imbalance(&self, filter: impl Fn(&str) -> bool) -> f64 {
        self.inner
            .lock()
            .kernels
            .iter()
            .filter(|k| filter(&k.name))
            .map(|k| k.stats.load_imbalance())
            .fold(1.0, f64::max)
    }

    /// DRAM bytes per phase: slices kernel records at marker watermarks.
    /// Returns `(label, bytes)` per phase; kernels after the last marker
    /// are attributed to a trailing `"(tail)"` phase if any exist.
    pub fn dram_bytes_by_phase(&self) -> Vec<(String, u64)> {
        let inner = self.inner.lock();
        let mut out = Vec::new();
        let mut start = 0usize;
        let mut prev_label: Option<&str> = None;
        for m in &inner.markers {
            if let Some(label) = prev_label {
                let bytes: u64 = inner.kernels[start..m.kernel_watermark]
                    .iter()
                    .map(|k| k.stats.totals.dram_bytes)
                    .sum();
                out.push((label.to_string(), bytes));
            }
            start = m.kernel_watermark;
            prev_label = Some(&m.label);
        }
        if let Some(label) = prev_label {
            let bytes: u64 = inner.kernels[start..]
                .iter()
                .map(|k| k.stats.totals.dram_bytes)
                .sum();
            out.push((label.to_string(), bytes));
        }
        out
    }

    /// Clears all records. A long-running caller that reuses one queue (a
    /// service worker) calls this at each job boundary: what the profiler
    /// holds afterwards is that job's alone, and the streams stay bounded.
    pub fn reset(&self) {
        let mut inner = self.inner.lock();
        inner.kernels.clear();
        inner.mem_events.clear();
        inner.markers.clear();
        inner.rep_events.clear();
        inner.direction_events.clear();
        inner.recovery_events.clear();
        inner.lane_events.clear();
        inner.exchange_events.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{GroupStats, KernelStats};

    fn krec(name: &str, seq: u64, l1: u64, dram: u64, occ: f64) -> KernelRecord {
        KernelRecord {
            name: name.into(),
            seq,
            start_ns: seq as f64,
            end_ns: seq as f64 + 1.0,
            stats: KernelStats {
                totals: GroupStats {
                    l1_hits: l1,
                    dram_transactions: dram,
                    dram_bytes: dram * 128,
                    ..Default::default()
                },
                occupancy: occ,
                ..Default::default()
            },
        }
    }

    #[test]
    fn peak_metrics_respect_filters() {
        let p = Profiler::new();
        p.record_kernel(krec("advance", 0, 90, 10, 0.9));
        p.record_kernel(krec("advance", 1, 10, 90, 0.7));
        p.record_kernel(krec("tiny", 2, 1, 0, 0.99));
        let peak = p.peak_l1_hit_rate(|n| n == "advance", 50);
        assert!((peak - 0.9).abs() < 1e-9);
        // The tiny kernel is excluded by the transaction floor.
        let all = p.peak_l1_hit_rate(|_| true, 50);
        assert!((all - 0.9).abs() < 1e-9);
        assert!((p.peak_occupancy(|n| n == "tiny") - 0.99).abs() < 1e-9);
    }

    #[test]
    fn phase_attribution() {
        let p = Profiler::new();
        p.mark("iter0", 0.0);
        p.record_kernel(krec("a", 0, 0, 10, 0.5));
        p.record_kernel(krec("b", 1, 0, 5, 0.5));
        p.mark("iter1", 2.0);
        p.record_kernel(krec("c", 2, 0, 1, 0.5));
        let phases = p.dram_bytes_by_phase();
        assert_eq!(phases.len(), 2);
        assert_eq!(phases[0], ("iter0".to_string(), 15 * 128));
        assert_eq!(phases[1], ("iter1".to_string(), 128));
    }

    #[test]
    fn worst_imbalance_respects_filter() {
        let p = Profiler::new();
        let mut a = krec("advance", 0, 0, 10, 0.5);
        a.stats.max_group_cycles = 900.0;
        a.stats.mean_group_cycles = 100.0;
        let mut b = krec("compute", 1, 0, 10, 0.5);
        b.stats.max_group_cycles = 200.0;
        b.stats.mean_group_cycles = 100.0;
        p.record_kernel(a);
        p.record_kernel(b);
        assert!((p.worst_load_imbalance(|n| n == "advance") - 9.0).abs() < 1e-9);
        assert!((p.worst_load_imbalance(|n| n == "compute") - 2.0).abs() < 1e-9);
        // No matches -> neutral 1.0.
        assert!((p.worst_load_imbalance(|n| n == "absent") - 1.0).abs() < 1e-9);
    }

    #[test]
    fn totals_and_reset() {
        let p = Profiler::new();
        p.record_kernel(krec("a", 0, 0, 10, 0.5));
        assert_eq!(p.total_dram_bytes(), 1280);
        assert_eq!(p.kernel_count(), 1);
        p.record_rep(0.0, 0, "dense", false);
        p.reset();
        assert_eq!(p.kernel_count(), 0);
        assert_eq!(p.total_dram_bytes(), 0);
        assert!(p.rep_events().is_empty());
    }

    #[test]
    fn rep_events_count_switches() {
        let p = Profiler::new();
        p.record_rep(0.0, 0, "dense", false);
        p.record_rep(1.0, 1, "sparse", true);
        p.record_rep(2.0, 2, "sparse", false);
        p.record_rep(3.0, 3, "dense", true);
        assert_eq!(p.rep_events().len(), 4);
        assert_eq!(p.rep_switch_count(), 2);
        assert_eq!(p.rep_events()[1].rep, "sparse");
        assert_eq!(p.rep_events()[3].superstep, 3);
    }
}
