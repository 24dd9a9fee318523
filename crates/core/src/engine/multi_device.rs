//! BSP execution across N simulated devices: one [`SuperstepEngine`] per
//! partition, run superstep-aligned with a frontier exchange at every
//! boundary.
//!
//! The global cycle per superstep:
//!
//! 1. **Step** — each partition runs one local superstep over its shard,
//!    landing it under its engine's own recovery session. Remote
//!    destinations are *halo rows*: the advance sets their bits and
//!    stamps value replicas, all in device-local memory. When the policy
//!    checkpoints at all, every engine checkpoints at *every* exchange
//!    boundary (its local `checkpoint_every` is pinned to 1), so a
//!    `DeviceLost` on one device resumes *that partition's current
//!    superstep* without disturbing the others. Resuming an older
//!    superstep would replay local work without the remote activations it
//!    had received, so the cadence is mandatory here, not a tuning choice.
//! 2. **Harvest** — the halo tail of each output frontier is word-diffed
//!    ([`FrontierExchange::harvest`]): non-zero words only, decoded to
//!    `(owner, owner_local, replica_value)` mail, then zeroed so halo
//!    bits never re-enter the local frontier cycle.
//! 3. **Barrier** — every queue's clock advances to the slowest
//!    partition's, plus the collective's modelled interconnect time; an
//!    `Exchange` trace event per non-empty channel lands in the sender's
//!    log.
//! 4. **Rotate + merge** — all partitions rotate (keeping `iter` aligned
//!    across devices — distance stamps read it), then each drains its
//!    mailbox and min-merges the values through the algorithm's
//!    [`HaloLink`], activating improved vertices in its input frontier.
//!
//! Convergence is the global union count: every partition's step found an
//! empty frontier *and* no mail was posted. All three partitioned
//! algorithms (BFS/SSSP/CC) reduce their cross-device combine to a `min`,
//! which is associative and commutative — partitioned runs are
//! bit-identical to single-device runs (property-tested).

use sygraph_sim::{Queue, SimError, SimResult, TraceKind};

use crate::engine::{CheckpointState, StepAdvanceDyn, StepComputeDyn, SuperstepEngine};
use crate::frontier::exchange::{ExchangeConfig, ExchangeTally, FrontierExchange};
use crate::frontier::word::Word;
use crate::frontier::TwoLayerFrontier;
use crate::graph::partition::PartitionedGraph;
use crate::graph::DeviceCsr;
use crate::inspector::{Direction, Representation, Tuning};

/// Algorithm-side value plumbing for the exchange: how to read a halo
/// *replica* on the sender and min-merge it at the owner. Values travel
/// as `u64` (u32 states zero-extend, f32 distances ship their bits).
pub trait HaloLink {
    /// Sender-side replica value of local vertex `lid` on partition `p`.
    fn replica(&self, part: usize, lid: u32) -> u64;
    /// Merges `value` into owner partition `part` at local vertex `lid`;
    /// returns `true` when the value improved (the owner re-activates the
    /// vertex). Must be a min-style combine for cross-device determinism.
    fn merge(&self, part: usize, lid: u32, value: u64) -> bool;
}

/// One superstep's global exchange summary, kept for reporting.
#[derive(Debug, Clone, Copy)]
pub struct SuperstepExchange {
    pub superstep: u32,
    pub words: u64,
    pub msgs: u64,
    pub bytes: u64,
    /// Activations the merges actually accepted (≤ `msgs`).
    pub accepted: u64,
}

/// The multi-device driver: owns one engine per partition and the
/// exchange between them. Frontiers are pinned dense two-layer and the
/// direction pinned push — halo rows have no local in-edges, so a pull
/// superstep could never discover them; both pins are documented
/// engine-policy, not tuning suggestions.
pub struct MultiDeviceEngine<'a, W: Word> {
    pg: &'a PartitionedGraph,
    queues: &'a [Queue],
    engines: Vec<SuperstepEngine<'a, W, DeviceCsr>>,
    exchange: FrontierExchange,
    per_superstep: Vec<SuperstepExchange>,
    supersteps: u32,
}

impl<'a, W: Word> MultiDeviceEngine<'a, W> {
    /// Builds one engine per partition. `graphs[p]` must be the uploaded
    /// shard of `pg.parts[p]` on `queues[p]`; `ckpt_state` is either
    /// empty (no recovery state) or one slice of registered buffers per
    /// partition.
    pub fn new(
        pg: &'a PartitionedGraph,
        queues: &'a [Queue],
        graphs: &'a [DeviceCsr],
        tuning: Tuning,
        cfg: ExchangeConfig,
        ckpt_state: &'a [Vec<&'a dyn CheckpointState>],
        mark_prefix: &str,
    ) -> SimResult<Self> {
        let parts = pg.part_count();
        assert_eq!(queues.len(), parts, "one queue per partition");
        assert_eq!(graphs.len(), parts, "one uploaded shard per partition");
        assert!(
            ckpt_state.is_empty() || ckpt_state.len() == parts,
            "checkpoint state is per-partition or absent"
        );
        let mut local_tuning = tuning;
        local_tuning.direction = Direction::Push;
        local_tuning.representation = Representation::Dense;
        // Checkpoint at every exchange boundary or not at all (module docs).
        local_tuning.recovery.checkpoint_every = tuning.recovery.checkpoint_every.min(1);

        let mut engines = Vec::with_capacity(parts);
        for p in 0..parts {
            let n_local = pg.parts[p].local_len().max(1);
            let fin: Box<TwoLayerFrontier<W>> =
                Box::new(TwoLayerFrontier::new(&queues[p], n_local)?);
            let fout: Box<TwoLayerFrontier<W>> =
                Box::new(TwoLayerFrontier::new(&queues[p], n_local)?);
            let mut e = SuperstepEngine::new(&queues[p], &graphs[p], local_tuning, fin, fout)
                .fused(true)
                .mark_prefix(format!("{mark_prefix}_p{p}_"));
            if let Some(state) = ckpt_state.get(p) {
                e = e.checkpoint_state(state.as_slice());
            }
            engines.push(e);
        }
        Ok(MultiDeviceEngine {
            pg,
            queues,
            engines,
            exchange: FrontierExchange::new(parts, cfg),
            per_superstep: Vec::new(),
            supersteps: 0,
        })
    }

    /// Seeds global vertex `v` into its owner's input frontier.
    pub fn seed(&self, v: u32) {
        let p = self.pg.owner_of(v) as usize;
        self.engines[p]
            .input()
            .insert_host(self.pg.owner_local_of(v));
    }

    /// Activates every *owned* vertex on every partition (CC-style
    /// all-active seeding; halo rows stay inactive — they have no local
    /// out-edges and their owners activate themselves).
    pub fn seed_all_owned(&self) {
        for (p, part) in self.pg.parts.iter().enumerate() {
            let f = self.engines[p].input();
            for lid in 0..part.owned {
                f.insert_host(lid);
            }
        }
    }

    /// Per-partition engine access (tests inspect iteration alignment).
    pub fn engine(&self, p: usize) -> &SuperstepEngine<'a, W, DeviceCsr> {
        &self.engines[p]
    }

    /// Exchange totals across the whole run.
    pub fn exchange_total(&self) -> ExchangeTally {
        self.exchange.total()
    }

    /// Per-superstep exchange summaries (non-empty supersteps only).
    pub fn exchange_per_superstep(&self) -> &[SuperstepExchange] {
        &self.per_superstep
    }

    /// Checkpoint resumes taken across all partitions.
    pub fn resumes(&self) -> u32 {
        self.engines.iter().map(|e| e.resumes()).sum()
    }

    /// Runs the partitioned BSP loop to global convergence, returning the
    /// number of global supersteps (the final stale-layer-2 drain rounds
    /// count too — compare *values*, not superstep counts, against a
    /// single-device run). `advances[p]` /
    /// `computes[p]` are partition `p`'s functors over *local* IDs;
    /// `link` is the algorithm's replica/merge plumbing.
    pub fn run(
        &mut self,
        advances: &[&StepAdvanceDyn<'_>],
        computes: &[Option<&StepComputeDyn<'_>>],
        link: &dyn HaloLink,
    ) -> SimResult<u32> {
        let parts = self.engines.len();
        assert_eq!(advances.len(), parts);
        assert_eq!(computes.len(), parts);
        loop {
            // 1. Local supersteps.
            let mut any_live = false;
            for p in 0..parts {
                any_live |= self.engines[p].step(advances[p], computes[p])?;
            }

            // 2. Word-diff halo harvest into the mailboxes.
            let iter = self.supersteps;
            let mut tally = SuperstepExchange {
                superstep: iter,
                words: 0,
                msgs: 0,
                bytes: 0,
                accepted: 0,
            };
            for p in 0..parts {
                let part = &self.pg.parts[p];
                let channels = {
                    let fout = self.engines[p].output();
                    self.exchange
                        .harvest(part, fout, &|lid| link.replica(p, lid))
                };
                // The zeroed halo words keep their second-layer bits: a
                // stale layer-2 bit only makes the next compaction visit
                // a zero word (and delays convergence by one near-empty
                // superstep at the end of the run), both cheaper than a
                // full `layer2_rebuild` sweep here every superstep. The
                // lazy clear the rotate owes this frontier retires the stale bits.
                for ch in channels {
                    tally.words += ch.words;
                    tally.msgs += ch.msgs;
                    tally.bytes += ch.bytes;
                    let sent = TraceKind::Exchange {
                        src_part: p as u32,
                        dst_part: ch.dst_part,
                        words: ch.words,
                        msgs: ch.msgs,
                        bytes: ch.bytes,
                    };
                    self.queues[p].trace(Some(iter), sent);
                }
            }

            // Global convergence: nothing ran, nothing to deliver.
            if !any_live && !self.exchange.pending() {
                return Ok(self.supersteps);
            }

            // 3. BSP barrier: everyone waits for the slowest clock, then
            // pays the collective's transfer time.
            let t_max = self
                .queues
                .iter()
                .map(|q| q.now_ns())
                .fold(f64::NEG_INFINITY, f64::max);
            let xfer_ns = self.exchange.transfer_ns(tally.bytes);
            for q in self.queues {
                q.advance_clock_ns(t_max - q.now_ns() + xfer_ns);
            }

            // 4. Rotate all partitions — including converged ones, so
            // `iter` stays aligned across devices (distance stamps read
            // it) — then deliver the mail.
            for p in 0..parts {
                self.engines[p].rotate()?;
            }
            for p in 0..parts {
                for m in self.exchange.drain(p) {
                    if link.merge(p, m.owner_local, m.value) {
                        self.engines[p].input().insert_host(m.owner_local);
                        tally.accepted += 1;
                    }
                }
            }
            if tally.bytes > 0 {
                self.per_superstep.push(tally);
            }

            self.supersteps += 1;
            // Every algorithm run here is a fixpoint that settles in O(n)
            // supersteps; more means it never will.
            if self.supersteps as usize > 2 * self.pg.n + 16 {
                return Err(SimError::Algorithm(
                    "partitioned superstep loop failed to converge".into(),
                ));
            }
        }
    }
}
