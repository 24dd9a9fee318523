//! The trace log: one ordered record of everything a queue did and every
//! decision the engine took on it.
//!
//! A [`Profiler`] is a single `Vec` of [`TraceEvent`]s in record order,
//! written by [`Profiler::record`] (through `Queue::trace`, which stamps
//! the simulated clock) and read by a snapshot ([`Profiler::events`]), a
//! filter ([`Profiler::select`]) or a fold ([`Profiler::fold`]). Nothing
//! is kept beside it, because the order already says it: the launches of
//! a phase are the `Kernel` events between its `Mark` and the next, and a
//! switch is a `Plan` whose value differs from the one it was planned
//! from. The seven kinds, and the paper artefact that reads each:
//!
//! | kind       | written by                         | read by |
//! |------------|------------------------------------|---------|
//! | `Kernel`   | `Queue` at every launch            | Figures 8/10 (simulated time), Table 5 (peak L1 hit rate, occupancy), the balancing ablation (load imbalance) |
//! | `Mem`      | `Queue` at every alloc / free      | Figure 9's allocation footprint |
//! | `Mark`     | `Queue::mark`, once per iteration  | Figure 9's per-iteration DRAM traffic ([`Profiler::dram_bytes_by_phase`]) |
//! | `Plan`     | the engine, once per landed superstep | the representation and direction ablations (§3.2's inspector at work), `--profile`'s traces |
//! | `Recovery` | the engine's fault handling        | the fault matrix and the service-resilience grid |
//! | `Lanes`    | batched multi-source supersteps    | the multi-source scaling table (lanes retired) |
//! | `Exchange` | the multi-device engine            | the multi-device scaling table (interconnect bytes) |
//!
//! `superstep` is the step the engine last announced on this queue:
//! engine-written events carry it, queue-written ones (`Kernel`, `Mem`,
//! plain marks) inherit it from the event before them.

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

/// Everything a superstep's [`Plan`] is a function of, gathered by the
/// engine from host-side state: no field needs the queue, the frontier or
/// the graph to be read again, so a recorded decision can be replayed
/// from the log alone. All but `measured` are known before the superstep
/// launches anything and decide the representation; `measured` is read
/// once the input has adopted it, and decides the direction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanInputs {
    /// Measured bound on the previous input frontier's population (the
    /// count its advance read back for convergence).
    pub last_estimate: usize,
    /// Measured bound on *this* superstep's input population, read after
    /// the input adopted its representation: the list length when it is
    /// listed, `nonzero_words × word_bits` from its counted compaction
    /// otherwise. `None` for single-layer bitmaps, which have no measure.
    pub measured: Option<usize>,
    /// Forward estimate the previous plan made for this superstep's input.
    pub predicted: usize,
    /// Vertices a frontier of this run can hold.
    pub capacity: usize,
    /// Vertices in the graph.
    pub n: usize,
    /// Whether the last landed superstep's input ran as an item list.
    pub prev_sparse: bool,
    /// Whether the last landed superstep pulled.
    pub prev_pull: bool,
    /// Whether a pull superstep could run at all: the graph has a pull
    /// view, nothing has pinned the run to push, the candidate set exists.
    pub pull_available: bool,
    /// Whether a pull scan stops at a vertex's first accepted in-edge
    /// (the adopt-once candidate set) — the only pull that can beat push.
    pub pull_exits_early: bool,
    /// Whether the input frontier can present an item list (it has one
    /// and it has not overflowed).
    pub listable: bool,
    /// The input's exact population, when its list is current and the
    /// length is a free host read.
    pub listed: Option<usize>,
    /// The graph's maximum out-degree (0 when it has no degree profile).
    pub max_degree: u32,
    /// The graph's hub clustering (0 when it has no degree profile).
    pub word_skew: f64,
}

/// How one superstep runs: what `Tuning::plan` answers for a
/// [`PlanInputs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Plan {
    /// The input frontier runs as an item list (else as bitmap words).
    pub sparse_in: bool,
    /// The output frontier keeps its item list while it is written.
    pub sparse_out: bool,
    /// The advance pulls (else pushes). The only field that reads
    /// [`PlanInputs::measured`].
    pub pull: bool,
    /// The balancing policy, resolved for this graph, bins by degree.
    pub bucketed: bool,
    /// Forward estimate of the output's population: the next superstep's
    /// [`PlanInputs::predicted`].
    pub predicted: usize,
}

/// What became of the frontier the rotate before a superstep retired (the
/// input of the superstep before it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Retire {
    /// Nothing was waiting: the run's first superstep, or the caller kept
    /// the frontier (`rotate_retaining`).
    None,
    /// Its lazy clear ran as the tail workgroups of this superstep's first
    /// advance-shell launch.
    Inline,
    /// Its clear is a launch of its own, and why: `declined` — the layout
    /// offers no third buffer, so the rotate cleared it before this
    /// superstep; `no-launch` — this superstep's advance launched no
    /// shell; `not-fresh` — a recovery (or a list gone stale) left no lazy
    /// form. The last two run at the next rotate.
    Standalone(&'static str),
}

/// What a [`TraceEvent`] records.
#[derive(Debug, Clone)]
pub enum TraceKind {
    /// A kernel launch.
    Kernel(KernelRecord),
    /// A device allocation (`delta_bytes > 0`) or free, and the memory in
    /// use after it.
    Mem {
        delta_bytes: i64,
        usage_after: u64,
        tag: String,
    },
    /// A named phase marker (e.g. one per BFS iteration).
    Mark(String),
    /// One landed superstep: what the engine knew, what it decided, and
    /// what then ran. `sparse` / `pull` are the input representation the
    /// frontier adopted and the direction the advance took; they differ
    /// from `plan` only where the device refused it (a stale item list
    /// re-overflowed on rebuild, the pull view could not be made resident).
    /// `retired` is how the previous superstep's input is being cleared.
    Plan {
        inputs: PlanInputs,
        plan: Plan,
        sparse: bool,
        pull: bool,
        retired: Retire,
    },
    /// One recovery action: `fault` is `transient` / `oom` /
    /// `device-lost`, `action` is `retry`, a degradation rung or `resume`,
    /// `attempt` counts from 1 within the fault class.
    Recovery {
        fault: String,
        action: String,
        attempt: u32,
    },
    /// One batched multi-source superstep's census: lanes still live after
    /// it and lanes that retired during it.
    Lanes { active: u32, retired: u32 },
    /// One superstep-boundary exchange channel of the multi-device engine:
    /// halo words changed, activations carried and modelled interconnect
    /// bytes, from the partition this queue drives to `dst_part`.
    Exchange {
        src_part: u32,
        dst_part: u32,
        words: u64,
        msgs: u64,
        bytes: u64,
    },
}

/// One entry of the trace log.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Simulated time of the record (a launch's start).
    pub t_ns: f64,
    /// Superstep the event belongs to (see the module docs).
    pub superstep: u32,
    pub kind: TraceKind,
}

/// The frontier representation one superstep's input ran under: a view of
/// the log's `Plan` events.
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

/// The traversal direction one superstep's advance ran: a view of the
/// log's `Plan` events.
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

/// Thread-safe trace log attached to a queue.
#[derive(Debug, Default)]
pub struct Profiler {
    log: Mutex<Vec<TraceEvent>>,
}

impl Profiler {
    /// Appends one event. `superstep: None` inherits the step of the event
    /// before it (0 on an empty log).
    pub fn record(&self, t_ns: f64, superstep: Option<u32>, kind: TraceKind) {
        let mut log = self.log.lock();
        let superstep = superstep.unwrap_or_else(|| log.last().map_or(0, |e| e.superstep));
        log.push(TraceEvent {
            t_ns,
            superstep,
            kind,
        });
    }

    /// Snapshot of the whole log, in record order.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.log.lock().clone()
    }

    /// Folds `f` over the log in record order, without copying it.
    pub fn fold<A>(&self, init: A, f: impl FnMut(A, &TraceEvent) -> A) -> A {
        self.log.lock().iter().fold(init, f)
    }

    /// What `pick` takes from each event, in record order.
    pub fn select<T>(&self, pick: impl Fn(&TraceEvent) -> Option<T>) -> Vec<T> {
        self.log.lock().iter().filter_map(pick).collect()
    }

    /// Number of events whose kind satisfies `of`.
    pub fn count(&self, of: impl Fn(&TraceKind) -> bool) -> usize {
        self.fold(0, |n, e| n + usize::from(of(&e.kind)))
    }

    /// The log's launches, in `seq` order.
    pub fn kernels(&self) -> Vec<KernelRecord> {
        self.select(|e| match &e.kind {
            TraceKind::Kernel(k) => Some(k.clone()),
            _ => None,
        })
    }

    /// Number of kernels recorded so far.
    pub fn kernel_count(&self) -> usize {
        self.count(|k| matches!(k, TraceKind::Kernel(_)))
    }

    /// The input representation of every landed superstep, one entry per
    /// `Plan` event. `switched` compares what ran with what the plan was
    /// made from; superstep 0 never switches.
    pub fn rep_events(&self) -> Vec<RepEvent> {
        self.select(|e| match &e.kind {
            TraceKind::Plan { inputs, sparse, .. } => Some(RepEvent {
                t_ns: e.t_ns,
                superstep: e.superstep,
                rep: if *sparse { "sparse" } else { "dense" }.into(),
                switched: e.superstep > 0 && *sparse != inputs.prev_sparse,
            }),
            _ => None,
        })
    }

    /// The direction of every landed superstep; see
    /// [`Profiler::rep_events`].
    pub fn direction_events(&self) -> Vec<DirectionEvent> {
        self.select(|e| match &e.kind {
            TraceKind::Plan { inputs, pull, .. } => Some(DirectionEvent {
                t_ns: e.t_ns,
                superstep: e.superstep,
                direction: if *pull { "pull" } else { "push" }.into(),
                switched: e.superstep > 0 && *pull != inputs.prev_pull,
            }),
            _ => None,
        })
    }

    /// The largest `metric` over the log's launches, starting from
    /// `floor`; launches for which `metric` is `None` are skipped (tiny
    /// kernels are noise, as in NCU reports).
    pub fn peak(&self, floor: f64, metric: impl Fn(&KernelRecord) -> Option<f64>) -> f64 {
        self.fold(floor, |best, e| match &e.kind {
            TraceKind::Kernel(k) => metric(k).map_or(best, |m| best.max(m)),
            _ => best,
        })
    }

    /// DRAM bytes per phase: each marker opens a phase that owns the
    /// launches up to the next one. Launches before the first marker
    /// belong to no phase.
    pub fn dram_bytes_by_phase(&self) -> Vec<(String, u64)> {
        self.fold(Vec::new(), |mut out, e| {
            match &e.kind {
                TraceKind::Mark(label) => out.push((label.clone(), 0)),
                TraceKind::Kernel(k) => {
                    if let Some((_, bytes)) = out.last_mut() {
                        *bytes += k.stats.totals.dram_bytes;
                    }
                }
                _ => {}
            }
            out
        })
    }

    /// Clears the log. A long-running caller that reuses one queue (a
    /// service worker) calls this at each job boundary: what the profiler
    /// holds afterwards is that job's alone, and the log stays bounded.
    pub fn reset(&self) {
        self.log.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{GroupStats, KernelStats};

    fn krec(p: &Profiler, name: &str, seq: u64, l1: u64, dram: u64, occ: f64) {
        let rec = KernelRecord {
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
        };
        p.record(rec.start_ns, None, TraceKind::Kernel(rec));
    }

    #[test]
    fn peak_skips_what_the_metric_declines() {
        let p = Profiler::default();
        krec(&p, "advance", 0, 90, 10, 0.9);
        krec(&p, "advance", 1, 10, 90, 0.7);
        krec(&p, "tiny", 2, 1, 0, 0.99);
        // The tiny kernel is excluded by the transaction floor.
        let l1 =
            |k: &KernelRecord| (k.stats.totals.transactions() >= 50).then(|| k.stats.l1_hit_rate());
        assert!((p.peak(0.0, l1) - 0.9).abs() < 1e-9);
        let occ = |k: &KernelRecord| (k.name == "tiny").then_some(k.stats.occupancy);
        assert!((p.peak(0.0, occ) - 0.99).abs() < 1e-9);
        // Nothing matches -> the floor.
        assert_eq!(p.peak(1.0, |_| None), 1.0);
    }

    #[test]
    fn phases_fall_out_of_log_order() {
        let p = Profiler::default();
        krec(&p, "setup", 0, 0, 99, 0.5);
        p.record(0.0, None, TraceKind::Mark("iter0".into()));
        krec(&p, "a", 1, 0, 10, 0.5);
        krec(&p, "b", 2, 0, 5, 0.5);
        p.record(2.0, None, TraceKind::Mark("iter1".into()));
        krec(&p, "c", 3, 0, 1, 0.5);
        p.record(3.0, None, TraceKind::Mark("iter2".into()));
        let phases = p.dram_bytes_by_phase();
        assert_eq!(phases.len(), 3);
        assert_eq!(phases[0], ("iter0".to_string(), 15 * 128));
        assert_eq!(phases[1], ("iter1".to_string(), 128));
        assert_eq!(phases[2], ("iter2".to_string(), 0));
    }

    #[test]
    fn queue_written_events_inherit_the_announced_superstep() {
        let p = Profiler::default();
        krec(&p, "setup", 0, 0, 1, 0.5);
        p.record(1.0, Some(3), TraceKind::Mark("step3".into()));
        krec(&p, "advance", 1, 0, 1, 0.5);
        p.record(
            2.0,
            Some(3),
            TraceKind::Lanes {
                active: 2,
                retired: 1,
            },
        );
        let steps: Vec<u32> = p.events().iter().map(|e| e.superstep).collect();
        assert_eq!(steps, vec![0, 3, 3, 3]);
        assert_eq!(p.kernel_count(), 2);
        assert_eq!(p.count(|k| matches!(k, TraceKind::Lanes { .. })), 1);
        p.reset();
        assert!(p.events().is_empty());
        assert_eq!(p.kernel_count(), 0);
    }
}
