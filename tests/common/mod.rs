//! Readers of a queue's trace log shared by the integration suites.
#![allow(dead_code)]

use std::ops::Range;

use sygraph_sim::{Queue, TraceKind};

/// The launch ordinals of the `k`-th marked step recorded on `q` (0-based:
/// the launches between its `k`-th marker and the next; empty when the
/// step launched nothing, as a sparse run's final convergence check does).
pub fn step_launches(q: &Queue, k: usize) -> Range<u64> {
    // Launches recorded before each marker, then before the end of the log.
    let (mut launches, mut starts) = (0u64, Vec::new());
    for e in q.profiler().events() {
        match e.kind {
            TraceKind::Mark(_) => starts.push(launches),
            TraceKind::Kernel(_) => launches += 1,
            _ => {}
        }
    }
    starts.push(launches);
    assert!(k + 1 < starts.len(), "no marked step {k} in the log");
    starts[k]..starts[k + 1]
}

/// The launch ordinal that opens superstep `k` of the fault-free run
/// recorded on `q`. Fault plans take their ordinals from here rather than
/// from a fraction of the run's total launch count: the in-place
/// relaxations run one superstep more or fewer with the thread schedule,
/// so a fraction can land past the end of a shorter run, while the early
/// supersteps exist under every schedule.
pub fn first_launch(q: &Queue, k: usize) -> u64 {
    let step = step_launches(q, k);
    assert!(!step.is_empty(), "superstep {k} launched nothing");
    step.start
}

/// The `(fault, action)` of every recovery the engine took on `q`.
pub fn recoveries(q: &Queue) -> Vec<(String, String)> {
    q.profiler().select(|e| match &e.kind {
        TraceKind::Recovery { fault, action, .. } => Some((fault.clone(), action.clone())),
        _ => None,
    })
}
