//! Readers of a queue's trace log shared by the integration suites.
#![allow(dead_code)]

use std::ops::Range;

use sygraph_sim::{Queue, Retire, TraceKind};

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

/// One landed superstep as the log shows it: how the input of the
/// superstep before it was retired, and the launches either side of its
/// `Plan` event.
pub struct Landed {
    pub superstep: u32,
    pub retired: Retire,
    /// Launch names from the superstep's marker to its plan: the advance.
    pub advance: Vec<String>,
    /// Launch names from the plan to the next marker: an unfused compute
    /// pass, a post-step hook, and the rotate's stand-alone clear if any.
    pub rest: Vec<String>,
}

/// Every landed superstep recorded on `q`, in order. A faulted attempt
/// records a marker and no plan, so its launches are dropped with it.
pub fn landed_steps(q: &Queue) -> Vec<Landed> {
    let (mut steps, mut advance, mut planned) = (Vec::<Landed>::new(), Vec::new(), false);
    for e in q.profiler().events() {
        match e.kind {
            TraceKind::Mark(_) => {
                advance.clear();
                planned = false;
            }
            TraceKind::Kernel(k) if planned => steps.last_mut().unwrap().rest.push(k.name),
            TraceKind::Kernel(k) => advance.push(k.name),
            TraceKind::Plan { retired, .. } => {
                planned = true;
                steps.push(Landed {
                    superstep: e.superstep,
                    retired,
                    advance: std::mem::take(&mut advance),
                    rest: Vec::new(),
                });
            }
            _ => {}
        }
    }
    steps
}

/// How many landed supersteps on `q` had their predecessor's input
/// cleared inside their advance launch, and the reasons given by those
/// whose clear was a launch of its own.
pub fn retire_census(q: &Queue) -> (usize, Vec<&'static str>) {
    let (mut inline, mut reasons) = (0, Vec::new());
    for step in landed_steps(q) {
        match step.retired {
            Retire::Inline => inline += 1,
            Retire::Standalone(why) => reasons.push(why),
            Retire::None => {}
        }
    }
    (inline, reasons)
}

/// Whether `name` is a frontier clear launched on its own (the full clear
/// of a single-layer bitmap or an item-list frontier is a `fill`).
pub fn is_clear(name: &str) -> bool {
    name.ends_with("_clear") || name == "fill"
}

/// Checks every `Plan` event's `retired` against the launches around it:
/// a stand-alone clear sits between two landed supersteps exactly where
/// one of them names the reason, an inline clear has an advance launch to
/// ride, and `no-launch` means there was none.
pub fn assert_retires_match_the_launches(q: &Queue, ctx: &str) {
    let steps = landed_steps(q);
    for (k, cur) in steps.iter().enumerate() {
        let at = format!("{ctx} @{}: {:?}", cur.superstep, cur.retired);
        // A schedule shell, as opposed to the binning pass before them.
        let shell = |n: &String| n.starts_with("advance") && n != "advance_bucket_bin";
        let advanced = cur.advance.iter().any(shell);
        match cur.retired {
            Retire::Inline => assert!(advanced, "{at} had no advance launch to ride"),
            Retire::Standalone("no-launch") => assert!(!advanced, "{at} but an advance ran"),
            _ => {}
        }
        // The rotate between the superstep before and this one.
        let Some(prev) = k.checked_sub(1).map(|p| &steps[p]) else {
            continue;
        };
        // Another run's first superstep, or one landed again after a
        // fault past its plan: no rotate lies between the two.
        if cur.superstep != prev.superstep + 1 {
            continue;
        }
        let owed = matches!(prev.retired, Retire::Standalone("no-launch" | "not-fresh"))
            || cur.retired == Retire::Standalone("declined");
        let cleared = prev.rest.iter().any(|n| is_clear(n));
        assert_eq!(
            cleared, owed,
            "{at}: after {:?}, the rotate launched {:?}",
            prev.retired, prev.rest
        );
    }
}
