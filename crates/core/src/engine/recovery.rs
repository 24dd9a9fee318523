//! Self-healing policy for the superstep engine: retry, OOM degradation
//! and checkpoint/resume.
//!
//! A [`RecoveryPolicy`] (carried on [`Tuning`](crate::inspector::Tuning),
//! overridable per engine) tells [`SuperstepEngine`] how to respond to the
//! three fault classes the simulator can surface:
//!
//! * **Transient** launch failures — re-run the superstep from its input
//!   frontier, which is immutable until `rotate`. Inserts are idempotent
//!   bitmap ORs and the algorithms' functors are monotone, so re-running
//!   unions correctly with whatever the failed attempt already did.
//! * **OutOfMemory** — degrade along a ladder, re-attempting after each
//!   rung: (1) drop the bucketed-balancing pools and fall back to
//!   workgroup-mapped advance, (2) force the dense representation (no
//!   sparse list maintenance, the layout minimizing `device_bytes`),
//!   (3) shrink coarsening to 1.
//! * **DeviceLost** (sticky) — revive the queue and resume from the most
//!   recent [`EngineCheckpoint`], taken every `checkpoint_every`
//!   supersteps. Checkpoints capture the input frontier, the iteration
//!   counter and every algorithm buffer registered through
//!   [`CheckpointState`] — entirely host-side, so an idle policy has zero
//!   effect on the simulated clock or the profiler's kernel stream.
//!
//! [`SuperstepEngine`]: crate::engine::SuperstepEngine

use serde::{Deserialize, Serialize};
use sygraph_sim::{DeviceBuffer, DeviceScalar, Queue, SimError, SimResult};

use crate::types::VertexId;

/// How the engine responds to faults. The default is all-disabled: every
/// fault propagates as an error, exactly as before this layer existed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecoveryPolicy {
    /// Transient-fault retries per superstep (0 = propagate immediately).
    pub max_retries: u32,
    /// Simulated-time backoff before the first retry; it doubles with
    /// each further one (see [`RecoveryPolicy::backoff`]).
    pub backoff_ns: u64,
    /// Walk the degradation ladder on OOM instead of propagating.
    pub degrade_on_oom: bool,
    /// Take an [`EngineCheckpoint`] every `k` supersteps (0 = never);
    /// required for `DeviceLost` recovery.
    pub checkpoint_every: u32,
}

impl RecoveryPolicy {
    /// A policy with every recovery mechanism on: `retries` transient
    /// retries (1 µs base backoff), the OOM ladder, and a checkpoint
    /// every `checkpoint_every` supersteps.
    pub fn resilient(retries: u32, checkpoint_every: u32) -> Self {
        RecoveryPolicy {
            max_retries: retries,
            backoff_ns: 1_000,
            degrade_on_oom: true,
            checkpoint_every,
        }
    }

    /// Simulated nanoseconds to wait before retry `k` (1-based):
    /// `backoff_ns << (k - 1)`, the doubling capped at 2^16.
    pub fn backoff(&self, k: u32) -> f64 {
        (self.backoff_ns << (k - 1).min(16)) as f64
    }

    /// Whether any recovery mechanism is enabled.
    pub fn enabled(&self) -> bool {
        self.max_retries > 0 || self.degrade_on_oom || self.checkpoint_every > 0
    }
}

/// Runs `attempt` until it completes with no injected fault latched: a
/// transient or synthetic-OOM fault re-runs it whole, after the policy's
/// backoff, up to `policy.max_retries` times; any other fault, or an
/// exhausted budget, propagates. The attempt must be restartable —
/// idempotent setup (fills, stores, bitmap-OR inserts) or a sweep that
/// resets its accumulators first and commits in its last launch. With no
/// fault plan attached this is one call to `attempt`. Algorithm setup and
/// [`fixed_point`]'s sweeps run under it; supersteps have the engine's
/// fuller contract.
///
/// [`fixed_point`]: crate::engine::fixed_point
pub fn retry<T>(
    q: &Queue,
    policy: &RecoveryPolicy,
    mut attempt: impl FnMut() -> T,
) -> SimResult<T> {
    let mut retries = 0u32;
    loop {
        let out = attempt();
        let Some(e) = q.take_fault() else {
            return Ok(out);
        };
        let retryable = matches!(e, SimError::Transient { .. } | SimError::OutOfMemory { .. });
        if !retryable || retries >= policy.max_retries {
            return Err(e);
        }
        retries += 1;
        q.advance_clock_ns(policy.backoff(retries));
    }
}

/// Algorithm state that must survive a `DeviceLost`: the distance/label
/// buffers of BFS/SSSP/CC implement this (via the blanket impl for any
/// `DeviceBuffer`) and are registered with
/// [`SuperstepEngine::checkpoint_state`](crate::engine::SuperstepEngine::checkpoint_state).
/// Snapshot and restore are host-side word copies — no kernels run.
pub trait CheckpointState: Sync {
    fn snapshot(&self) -> Vec<u64>;
    fn restore(&self, words: &[u64]);
}

impl<T: DeviceScalar> CheckpointState for DeviceBuffer<T> {
    fn snapshot(&self) -> Vec<u64> {
        self.snapshot_words()
    }

    fn restore(&self, words: &[u64]) {
        self.restore_words(words)
    }
}

/// A consistent engine snapshot taken at a superstep boundary (before the
/// superstep ran): enough to deterministically re-execute from
/// `iteration` after the device is lost.
#[derive(Debug, Clone)]
pub struct EngineCheckpoint {
    /// Superstep the engine was about to run.
    pub iteration: u32,
    /// The input frontier's members at that boundary.
    pub frontier: Vec<VertexId>,
    /// Whether the previous superstep ran in the pull direction (feeds
    /// the Beamer hysteresis after a resume).
    pub pulling: bool,
    /// Members of the engine-maintained unvisited set, when the engine
    /// was tracking one (direction optimization with
    /// [`PullCandidates::Unvisited`](crate::engine::PullCandidates)).
    pub unvisited: Option<Vec<VertexId>>,
    /// Word images of every registered [`CheckpointState`] buffer, in
    /// registration order.
    pub state: Vec<Vec<u64>>,
    /// Lane state of a batched multi-source engine (None for
    /// single-source runs): the live-lane set plus each frontier member's
    /// source-lane mask, parallel to `frontier`.
    pub lanes: Option<LaneCheckpoint>,
}

/// Per-lane engine state captured alongside the frontier membership when
/// the engine runs in batched multi-source mode.
#[derive(Debug, Clone)]
pub struct LaneCheckpoint {
    /// Bitmask of lanes not yet retired at the checkpoint boundary.
    pub live: u64,
    /// `frontier[i]`'s source-lane mask, in the same order.
    pub masks: Vec<u64>,
}
