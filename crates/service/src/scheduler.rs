//! The service and its job ledger: a submission front end, a pool of
//! worker threads that each own one simulated device queue, and one
//! state machine between them.
//!
//! Every job is `Queued → Running → Done | Failed`, or ends at admission
//! as `Done` (cache hit) or `Rejected`. All of that state — the job
//! table, the pending queue, the pause/drain/shutdown flags, the
//! in-flight count, the per-worker cancel tokens, the service-time EWMA
//! and the counters — lives in one `Ledger` behind one mutex, which
//! both condvars wait on. A job changes state only in one of four
//! places, and each of them wakes whoever waits on the change:
//!
//! - `Ledger::admit` — a cache hit completes at once with zero device
//!   time; a job whose modelled peak ([`modeled_peak_bytes`]) exceeds
//!   the per-job budget or the device's free capacity stops at
//!   `Rejected`; a full queue refuses with [`ServiceError::Overloaded`]
//!   (`Retry-After` from the EWMA); anything else is `Queued` under the
//!   [`CacheKey`] it was admitted with and, if it has one, its deadline.
//! - `claim` — a worker takes the head job; a coalescible head
//!   (single-source BFS) also takes every pending job with the same
//!   graph, version and algorithm up to the lane width, waiting out the
//!   batching window for stragglers. The batch turns `Running` under one
//!   [`CancelToken`] carrying its earliest deadline. Per-lane output is
//!   bit-identical to a serial rooted run, so batching shows only in the
//!   metrics.
//! - `Ledger::settle` — the batch's outcome lands: values, metrics and
//!   cache entries (one per lane) for `Done`; a typed error for
//!   `Failed`, where a cancelled pass is attributed per job to its own
//!   deadline or to the drain that cut it off.
//! - `Ledger::shed` — a queued job fails without running: its deadline
//!   passed, or a drain reached its own.
//!
//! Workers survive their jobs (DESIGN.md §16): a panic or a device lost
//! beyond the recovery policy's reach fails the batch typed and rebuilds
//! the worker's device state; consecutive rebuilds trip a per-worker
//! circuit breaker (quarantine for `breaker_open_ms`, then one half-open
//! probe batch).

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sygraph_algos::{multi, Args};
use sygraph_core::engine::RecoveryPolicy;
use sygraph_core::graph::{validate_sources, CsrHost};
use sygraph_core::inspector::{Direction, OptConfig};
use sygraph_sim::{CancelToken, Device, DeviceProfile, FaultPlan, Queue, SimError, TraceKind};

use crate::cache::{CacheKey, CachedResult, ResultCache};
use crate::error::{ServiceError, ServiceResult};
use crate::job::{
    admitted, coalescible, Algo, JobMetrics, JobRecord, JobRequest, JobState, JobValues,
};
use crate::registry::{DeviceMirror, RegisterOptions, RegisteredGraph, Registry};

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Simulated device profile each worker instantiates.
    pub profile: DeviceProfile,
    /// Worker threads (= simulated device queues).
    pub workers: usize,
    /// How long a worker holding an underfull coalescible batch waits
    /// for stragglers, in milliseconds. 0 = batch only what is already
    /// pending at claim time (deterministic; what the bench uses).
    pub batch_window_ms: u64,
    /// Maximum lanes per coalesced pass; must be 8, 16, 32 or 64.
    pub batch_width: u32,
    /// Per-job modelled peak scratch budget in bytes. `None` = the
    /// device's full capacity.
    pub job_mem_budget: Option<u64>,
    /// Result-cache capacity in entries (0 disables caching).
    pub cache_entries: usize,
    /// Start with the queue paused: jobs accumulate until
    /// [`Service::resume`], letting tests and benches stage a burst
    /// deterministically.
    pub start_paused: bool,
    /// Submission-queue bound (0 = unbounded). Overflow is refused with
    /// a typed 429; `ready()` flips unready at 3/4 of this.
    pub max_queue: usize,
    /// Server-side default deadline applied when a request carries no
    /// `timeout_ms`. `None` = no deadline.
    pub default_timeout_ms: Option<u64>,
    /// Cap on client-supplied `timeout_ms`.
    pub max_timeout_ms: u64,
    /// Fault plan attached to every worker's device queue (chaos / CI
    /// smoke). `None` = clean devices.
    pub fault_plan: Option<FaultPlan>,
    /// Engine recovery policy jobs run under (retry/backoff, OOM
    /// degradation ladder, checkpoint cadence — which is also the
    /// deadline-check cadence).
    pub recovery: RecoveryPolicy,
    /// Default drain deadline for [`Service::drain`] callers that use
    /// the configured value (the CLI's SIGTERM path).
    pub drain_deadline_ms: u64,
    /// Consecutive worker rebuilds that trip the per-worker circuit
    /// breaker (0 disables the breaker).
    pub breaker_threshold: u32,
    /// How long a tripped worker stays quarantined before its half-open
    /// probe.
    pub breaker_open_ms: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            profile: DeviceProfile::host_test(),
            workers: 2,
            batch_window_ms: 0,
            batch_width: 32,
            job_mem_budget: None,
            cache_entries: 1024,
            start_paused: false,
            max_queue: 1024,
            default_timeout_ms: None,
            max_timeout_ms: 300_000,
            fault_plan: None,
            recovery: RecoveryPolicy::default(),
            drain_deadline_ms: 5_000,
            breaker_threshold: 3,
            breaker_open_ms: 250,
        }
    }
}

impl ServiceConfig {
    pub fn validate(&self) -> ServiceResult<()> {
        if self.workers == 0 {
            return Err(ServiceError::BadRequest("workers must be >= 1".into()));
        }
        if !matches!(self.batch_width, 8 | 16 | 32 | 64) {
            return Err(ServiceError::BadRequest(format!(
                "batch_width must be 8|16|32|64, got {}",
                self.batch_width
            )));
        }
        Ok(())
    }

    /// Queue depth above which `ready()` reports unready (3/4 of the
    /// bound; the gap between high water and the bound absorbs the burst
    /// that is already in flight at the balancer).
    pub fn high_water(&self) -> usize {
        (self.max_queue * 3 / 4).max(1)
    }
}

/// Peak-scratch model for admission control, in bytes: an upper bound on
/// what a job allocates beyond the resident graph, so a pass never
/// exceeds the figure it was admitted on (BC excepted, below). Every
/// device buffer is charged
/// in 256-B blocks and 32-bit frontier words are assumed (64-bit words
/// halve the offsets buffer). The terms:
///
/// * a **two-layer bitmap** is words + count scratch, the second layer,
///   compaction offsets + their count; a **hybrid** adds the bounded item
///   list (`n / 8` entries, at least 64), its length and two flags;
/// * the superstep engine runs a **ring of three** hybrids (input, output
///   and the spare that lets a retired input be cleared inside the next
///   advance launch); a lane frontier declines the spare, so a batched
///   BFS holds two lane overlays; BC keeps the engine's pair plus one
///   retained frontier per BFS level, and the level count is not known at
///   admission: it keeps the flat `4n` allowance it has always had, which
///   a high-diameter graph outruns (a road grid retains hundreds of
///   levels) — a bound needs a depth estimate taken at registration
///   (ROADMAP item 5);
/// * the **bucket pool** of the degree-bucketed dispatch holds two vertex
///   lists and two chunk lists of `2m / large_min + 1` entries
///   (`large_min ≥ 128` on every profile);
/// * BFS may also hold the pull direction's **unvisited set**, one more
///   two-layer bitmap.
///
/// `lanes` scales the multi-source BFS layout (per-lane depth rows,
/// packed visited lanes, one lane overlay per frontier).
///
/// # Panics
/// On an algorithm outside [`ADMITTED`](crate::job::ADMITTED): there is
/// no request to price.
pub fn modeled_peak_bytes(algo: Algo, n: u64, m: u64, lanes: u32) -> u64 {
    let lanes = lanes.max(1) as u64;
    let buf = |bytes: u64| bytes.div_ceil(256).max(1) * 256;
    let (scalar, per_vertex) = (buf(4), buf(4 * n));
    let layer = buf(4 * n.div_ceil(32));
    let two_layer = 2 * layer + buf(4 * n.div_ceil(1024)) + 2 * scalar;
    let hybrid = two_layer + buf(4 * (n / 8).max(64)) + 3 * scalar;
    let pool = 2 * per_vertex + 2 * buf(m / 16 + 4) + scalar;
    let lane_words = buf(8 * (n * lanes).div_ceil(64));
    let state = match algo {
        Algo::Bfs if lanes > 1 => {
            // depth rows + visited lanes + two lane frontiers + alive word.
            buf(4 * n * lanes) + lane_words + 2 * (two_layer + lane_words) + scalar
        }
        Algo::Bfs => per_vertex + 3 * hybrid + two_layer,
        Algo::Sssp | Algo::Cc => per_vertex + 3 * hybrid,
        // distances + the near / next / far / scratch piles.
        Algo::Delta => per_vertex + 4 * hybrid,
        // depth + sigma + delta + the engine's pair + the level allowance.
        Algo::Bc => 4 * per_vertex + 2 * hybrid,
        // rank + next + share + the dangling and residual cells.
        Algo::Pagerank => 3 * per_vertex + 2 * scalar,
        Algo::Dobfs | Algo::Triangles | Algo::Kcore => {
            panic!("the service does not admit {algo}, so it has no memory model")
        }
    };
    state + pool
}

/// Point-in-time statistics snapshot.
#[derive(Debug, Clone, serde::Serialize)]
pub struct StatsSnapshot {
    pub jobs_done: u64,
    pub jobs_failed: u64,
    pub jobs_rejected: u64,
    pub jobs_timeout: u64,
    pub jobs_shed: u64,
    pub coalesced_batches: u64,
    pub coalesced_jobs: u64,
    pub device_ms: f64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_hit_ratio: f64,
    pub cache_entries: u64,
    pub cache_evictions: u64,
    pub queue_depth: u64,
    pub worker_rebuilds: u64,
    pub breaker_trips: u64,
    pub breaker_probes: u64,
    pub workers_quarantined: u64,
    pub draining: bool,
}

/// Outcome of a graceful drain: what finished, what had to be cut off.
#[derive(Debug, Clone)]
pub struct DrainReport {
    /// Every job (queued + in-flight at drain start) reached a terminal
    /// state before the drain deadline.
    pub clean: bool,
    /// Queued jobs failed with a typed `draining` record at the
    /// deadline.
    pub shed_queued: usize,
    /// Workers whose in-flight batch was cancelled at the deadline.
    pub cancelled_in_flight: usize,
    /// Totals at snapshot time.
    pub jobs_done: u64,
    pub jobs_failed: u64,
    /// Terminal job records, id-ascending.
    pub records: Vec<JobRecord>,
}

// ---------------------------------------------------------------------------
// The ledger
// ---------------------------------------------------------------------------

/// A job as the table holds it: the public record with `values` left
/// `None`, plus the finished values, which a cache entry for the same
/// result shares instead of copying.
#[derive(Clone)]
struct StoredJob {
    record: JobRecord,
    values: Option<Arc<JobValues>>,
}

impl StoredJob {
    /// The public record. This is where the value vector is copied, so
    /// callers clone the `StoredJob` under the lock and convert outside.
    fn into_record(self) -> JobRecord {
        JobRecord {
            values: self.values.as_deref().cloned(),
            ..self.record
        }
    }
}

/// One job between admission and its terminal state.
struct PendingJob {
    id: u64,
    /// What the job computes: the cache entry a hit would have come from
    /// and the result will be stored under, and — graph, version, algo —
    /// what a batch-mate has to share.
    key: CacheKey,
    coalesce: bool,
    enqueued_at: Instant,
    /// Wall-clock deadline (admission time + effective timeout).
    deadline: Option<Instant>,
    /// Effective timeout in ms (for the typed error), 0 when none.
    timeout_ms: u64,
}

impl PendingJob {
    fn expired(&self, now: Instant) -> bool {
        self.deadline.is_some_and(|d| now >= d)
    }

    fn deadline_exceeded(&self) -> ServiceError {
        ServiceError::DeadlineExceeded {
            timeout_ms: self.timeout_ms,
        }
    }
}

/// What [`claim`] hands a worker: jobs that are now `Running`.
struct Batch {
    jobs: Vec<PendingJob>,
    /// Lane width of the multi-source pass (used when `jobs.len() > 1`).
    width: u32,
    /// Cancels the pass at the earliest deadline in `jobs`, or when a
    /// drain fires it.
    token: CancelToken,
}

/// What a batch produced on the device, before it is attributed to jobs.
struct Ran {
    /// One value vector per job, in `Batch::jobs` order.
    per_job: Vec<JobValues>,
    iterations: u32,
    sim_ms: f64,
    kernel_launches: u64,
    mem_peak_bytes: u64,
    recovery_events: u64,
    wall_ns: u64,
}

/// The `/stats` counters that the ledger owns.
#[derive(Clone, Copy, Default)]
struct Counters {
    jobs_done: u64,
    jobs_failed: u64,
    jobs_rejected: u64,
    /// Jobs that blew their deadline (shed from the queue or aborted
    /// mid-run).
    jobs_timeout: u64,
    /// Submissions refused at the door with 429 (queue full).
    jobs_shed: u64,
    coalesced_batches: u64,
    coalesced_jobs: u64,
    /// Modelled device nanoseconds spent executing (each coalesced batch
    /// counted once).
    device_ns: u64,
    /// Worker device rebuilds (panic or sticky device-lost).
    worker_rebuilds: u64,
    /// Circuit-breaker trips (a worker entering quarantine).
    breaker_trips: u64,
    /// Half-open probe batches after quarantine.
    breaker_probes: u64,
    /// Workers quarantined right now (a gauge).
    workers_quarantined: u64,
}

/// All job state of the service; see the module docs for the four
/// transitions that change it.
struct Ledger {
    jobs: HashMap<u64, StoredJob>,
    pending: VecDeque<PendingJob>,
    paused: bool,
    draining: bool,
    shutdown: bool,
    /// Jobs a worker has taken off the queue and not yet settled.
    in_flight: usize,
    next_id: u64,
    /// EWMA of wall-clock service time per job, in ns (drives the
    /// `Retry-After` hint). 0 until the first batch lands.
    service_ns_ewma: u64,
    /// Per worker, the token of the batch it is running; a drain fires
    /// them at its deadline.
    cancels: Vec<Option<CancelToken>>,
    counters: Counters,
}

/// What the front end and the workers share.
struct Shared {
    cfg: ServiceConfig,
    /// Per-job modelled peak budget in bytes.
    job_budget: u64,
    registry: Registry,
    cache: ResultCache,
    ledger: Mutex<Ledger>,
    /// Wakes workers: new work, pause/resume, drain, shutdown.
    work_cv: Condvar,
    /// Wakes `wait`, `wait_idle` and `drain`: a job turned terminal.
    done_cv: Condvar,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, Ledger> {
        // Nothing panics with the ledger locked (workers run jobs
        // outside it, under `catch_unwind`); if it ever happens, every
        // transition still leaves the ledger structurally sound.
        self.ledger.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// A well-formed request, priced: everything `admit` needs that can be
/// worked out without the ledger.
struct Priced {
    key: CacheKey,
    modeled_bytes: u64,
    /// `min(per-job budget, device capacity − resident graphs)`.
    budget_bytes: u64,
}

impl Ledger {
    fn idle(&self) -> bool {
        self.pending.is_empty() && self.in_flight == 0
    }

    fn record_mut(&mut self, id: u64) -> &mut StoredJob {
        self.jobs
            .get_mut(&id)
            .expect("records are never removed from the table")
    }

    /// Admission: the new job is `Done` (cache hit), `Rejected` (over
    /// budget) or `Queued`; a full queue refuses it without a record.
    /// Nobody can be waiting on an id that has not been returned yet, so
    /// only the workers are woken, and only for a queued job.
    fn admit(&mut self, sh: &Shared, request: JobRequest, priced: Priced) -> ServiceResult<u64> {
        let cfg = &sh.cfg;
        let Priced {
            key,
            modeled_bytes,
            budget_bytes,
        } = priced;
        let id = self.next_id;
        let mut record = JobRecord::queued(id, request, key.version);
        record.metrics.modeled_peak_bytes = modeled_bytes;
        let mut values = None;
        // A hit does no device work, so it cannot be admission-rejected,
        // never waits for a worker, and needs no deadline.
        let hit = match record.request.no_cache {
            Some(true) => None,
            _ => sh.cache.get(&key),
        };
        if let Some(hit) = hit {
            record.state = JobState::Done;
            record.metrics = JobMetrics {
                iterations: hit.iterations,
                cache_hit: true,
                batch_size: 1,
                ..JobMetrics::default()
            };
            values = Some(hit.values.clone());
            self.counters.jobs_done += 1;
        } else if modeled_bytes > budget_bytes {
            record.fail(
                JobState::Rejected,
                &ServiceError::AdmissionRejected {
                    modeled_bytes,
                    budget_bytes,
                },
            );
            self.counters.jobs_rejected += 1;
        } else if cfg.max_queue > 0 && self.pending.len() >= cfg.max_queue {
            self.counters.jobs_shed += 1;
            let queued = self.pending.len();
            return Err(ServiceError::Overloaded {
                queued,
                limit: cfg.max_queue,
                retry_after_ms: self.retry_after_ms(cfg.workers, queued),
            });
        } else {
            // Effective deadline: client timeout capped by the server
            // max, else the server default.
            let timeout_ms = record
                .request
                .timeout_ms
                .or(cfg.default_timeout_ms)
                .map(|t| t.min(cfg.max_timeout_ms));
            let now = Instant::now();
            self.pending.push_back(PendingJob {
                id,
                coalesce: coalescible(key.algo) && !record.request.no_coalesce.unwrap_or(false),
                key,
                enqueued_at: now,
                deadline: timeout_ms.map(|t| now + Duration::from_millis(t)),
                timeout_ms: timeout_ms.unwrap_or(0),
            });
            sh.work_cv.notify_all();
        }
        self.next_id += 1;
        self.jobs.insert(id, StoredJob { record, values });
        Ok(id)
    }

    /// `Retry-After` hint from the service-time EWMA: time for the
    /// current backlog to drain across the worker pool, clamped to
    /// [100 ms, 60 s]. Before any job has landed the EWMA is unknown and
    /// the hint defaults to 1 s.
    fn retry_after_ms(&self, workers: usize, queued: usize) -> u64 {
        if self.service_ns_ewma == 0 {
            return 1_000;
        }
        let rounds = queued as u64 / workers.max(1) as u64 + 1;
        (rounds.saturating_mul(self.service_ns_ewma) / 1_000_000).clamp(100, 60_000)
    }

    /// `Queued → Failed` for jobs already taken off the queue: `why`
    /// gives each its typed error (its own deadline, or the drain).
    fn shed<'a>(
        &mut self,
        sh: &Shared,
        jobs: impl IntoIterator<Item = &'a PendingJob>,
        why: impl Fn(&PendingJob) -> ServiceError,
    ) {
        for p in jobs {
            self.fail(p.id, &why(p));
        }
        sh.done_cv.notify_all();
    }

    /// [`Ledger::shed`] for every pending job whose deadline has passed.
    fn shed_expired(&mut self, sh: &Shared) {
        let now = Instant::now();
        if !self.pending.iter().any(|p| p.expired(now)) {
            return;
        }
        let (late, live): (VecDeque<_>, VecDeque<_>) = std::mem::take(&mut self.pending)
            .into_iter()
            .partition(|p| p.expired(now));
        self.pending = live;
        self.shed(sh, &late, PendingJob::deadline_exceeded);
    }

    /// Marks a live record `Failed` with `err`'s typed fields, counted
    /// under the class the error belongs to.
    fn fail(&mut self, id: u64, err: &ServiceError) {
        let record = &mut self.record_mut(id).record;
        debug_assert!(!record.state.is_terminal(), "job {id} settled twice");
        record.fail(JobState::Failed, err);
        match err {
            ServiceError::DeadlineExceeded { .. } => self.counters.jobs_timeout += 1,
            _ => self.counters.jobs_failed += 1,
        }
    }

    /// `Running → Done | Failed` for a whole batch, and the worker's
    /// hand-back of everything [`claim`] gave it: the in-flight count,
    /// its cancel slot, and whether it had to rebuild its device.
    fn settle(
        &mut self,
        sh: &Shared,
        widx: usize,
        batch: Batch,
        outcome: ServiceResult<Ran>,
        rebuilt: bool,
    ) {
        let lanes = batch.jobs.len();
        self.cancels[widx] = None;
        self.in_flight -= lanes;
        self.counters.worker_rebuilds += rebuilt as u64;
        match outcome {
            Ok(ran) => {
                let per_job_ns = ran.wall_ns / lanes as u64;
                self.service_ns_ewma = match self.service_ns_ewma {
                    0 => per_job_ns,
                    old => (old * 4 + per_job_ns) / 5,
                };
                self.counters.device_ns += (ran.sim_ms * 1e6) as u64;
                if lanes > 1 {
                    self.counters.coalesced_batches += 1;
                    self.counters.coalesced_jobs += lanes as u64;
                }
                self.counters.jobs_done += lanes as u64;
                for (p, values) in batch.jobs.into_iter().zip(ran.per_job) {
                    let values = Arc::new(values);
                    let job = self.record_mut(p.id);
                    if !job.record.request.no_cache.unwrap_or(false) {
                        let result = CachedResult {
                            values: values.clone(),
                            iterations: ran.iterations,
                            sim_ms: ran.sim_ms,
                        };
                        sh.cache.put(p.key, result);
                    }
                    job.record.state = JobState::Done;
                    job.record.metrics = JobMetrics {
                        iterations: ran.iterations,
                        sim_ms: ran.sim_ms,
                        kernel_launches: ran.kernel_launches,
                        mem_peak_bytes: ran.mem_peak_bytes,
                        modeled_peak_bytes: job.record.metrics.modeled_peak_bytes,
                        cache_hit: false,
                        coalesced: lanes > 1,
                        batch_size: lanes as u32,
                        recovery_events: ran.recovery_events,
                    };
                    job.values = Some(values);
                }
            }
            // The engine aborted at a checkpoint boundary. Per job,
            // decide what the cancellation was: its own deadline, or the
            // drain deadline cutting the batch off.
            Err(ServiceError::Device(SimError::Cancelled { .. })) => {
                let now = Instant::now();
                for p in &batch.jobs {
                    let err = if p.expired(now) {
                        p.deadline_exceeded()
                    } else {
                        ServiceError::Draining
                    };
                    self.fail(p.id, &err);
                }
            }
            Err(e) => {
                for p in &batch.jobs {
                    self.fail(p.id, &e);
                }
            }
        }
        sh.done_cv.notify_all();
    }
}

/// `Queued → Running`: blocks until there is work, then takes the head
/// job — or, from a coalescible head, a batch — off the queue. Jobs whose
/// deadline passed are shed, not handed out. `None` on shutdown.
fn claim(sh: &Shared, widx: usize) -> Option<Batch> {
    let mut led = sh.lock();
    loop {
        loop {
            if led.shutdown {
                return None;
            }
            led.shed_expired(sh);
            if !led.paused && !led.pending.is_empty() {
                break;
            }
            led = sh.work_cv.wait(led).unwrap_or_else(|e| e.into_inner());
        }
        // Off the queue is in flight, window included: `idle` must not
        // hold while a batch is still forming.
        let head = led.pending.pop_front().expect("pending checked non-empty");
        led.in_flight += 1;
        let mut jobs = vec![head];
        let mut width = 1;
        if jobs[0].coalesce {
            width = sh.registry.get(&jobs[0].key.graph).map_or(1, |reg| {
                lane_width(
                    reg.vertex_count() as u64,
                    reg.edge_count() as u64,
                    sh.cfg.batch_width,
                    sh.job_budget,
                )
            });
            let window_ends = jobs[0].enqueued_at + Duration::from_millis(sh.cfg.batch_window_ms);
            loop {
                // Move currently-pending mates into the batch.
                let mut i = 0;
                while i < led.pending.len() && jobs.len() < width as usize {
                    let (p, head) = (&led.pending[i].key, &jobs[0].key);
                    if led.pending[i].coalesce
                        && (&p.graph, p.version, p.algo) == (&head.graph, head.version, head.algo)
                    {
                        jobs.push(led.pending.remove(i).expect("index in bounds"));
                        led.in_flight += 1;
                    } else {
                        i += 1;
                    }
                }
                // A draining service stops waiting for stragglers: nothing
                // new is being admitted, so the window can only add latency.
                if jobs.len() >= width as usize || led.paused || led.shutdown || led.draining {
                    break;
                }
                let now = Instant::now();
                if now >= window_ends {
                    break;
                }
                led = sh
                    .work_cv
                    .wait_timeout(led, window_ends - now)
                    .unwrap_or_else(|e| e.into_inner())
                    .0;
            }
        }
        // A mate that aged out during the window is shed alone; left in,
        // its deadline would cancel the whole pass.
        let now = Instant::now();
        let (late, jobs): (Vec<_>, Vec<_>) = jobs.into_iter().partition(|p| p.expired(now));
        if !late.is_empty() {
            led.in_flight -= late.len();
            led.shed(sh, &late, PendingJob::deadline_exceeded);
        }
        if jobs.is_empty() {
            continue;
        }
        for p in &jobs {
            led.record_mut(p.id).record.state = JobState::Running;
        }
        let token = match jobs.iter().filter_map(|p| p.deadline).min() {
            Some(deadline) => CancelToken::with_deadline(deadline),
            None => CancelToken::new(),
        };
        led.cancels[widx] = Some(token.clone());
        return Some(Batch { jobs, width, token });
    }
}

/// Largest supported lane width (8|16|32|64) that is ≤ `cap` and whose
/// modelled batch peak fits `budget`; 1 when even 8 lanes do not fit.
fn lane_width(n: u64, m: u64, cap: u32, budget: u64) -> u32 {
    [8u32, 16, 32, 64]
        .into_iter()
        .filter(|&w| w <= cap && modeled_peak_bytes(Algo::Bfs, n, m, w) <= budget)
        .max()
        .unwrap_or(1)
}

// ---------------------------------------------------------------------------
// The service
// ---------------------------------------------------------------------------

/// The assembled service: graph registry, result cache, job ledger and
/// worker pool. Shared via `Arc`; the HTTP layer holds one.
pub struct Service {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Service {
    /// Builds the registry and cache and spins up the worker pool.
    pub fn start(config: ServiceConfig) -> ServiceResult<Service> {
        config.validate()?;
        let shared = Arc::new(Shared {
            job_budget: config.job_mem_budget.unwrap_or(config.profile.vram_bytes),
            registry: Registry::new(),
            cache: ResultCache::new(config.cache_entries),
            ledger: Mutex::new(Ledger {
                jobs: HashMap::new(),
                pending: VecDeque::new(),
                paused: config.start_paused,
                draining: false,
                shutdown: false,
                in_flight: 0,
                next_id: 1,
                service_ns_ewma: 0,
                cancels: vec![None; config.workers],
                counters: Counters::default(),
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            cfg: config,
        });
        let workers = (0..shared.cfg.workers)
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("sygraph-worker-{i}"))
                    .spawn(move || worker_loop(shared, i))
                    .expect("spawn worker")
            })
            .collect();
        Ok(Service {
            shared,
            workers: Mutex::new(workers),
        })
    }

    pub fn config(&self) -> &ServiceConfig {
        &self.shared.cfg
    }

    pub fn cache(&self) -> &ResultCache {
        &self.shared.cache
    }

    pub fn registry(&self) -> &Registry {
        &self.shared.registry
    }

    /// Registers (or re-registers) a graph; see [`Registry::register`].
    pub fn register_graph(
        &self,
        name: &str,
        host: CsrHost,
        options: RegisterOptions,
    ) -> ServiceResult<Arc<RegisteredGraph>> {
        self.shared.registry.register(name, host, options)
    }

    /// All registered graphs, name-sorted.
    pub fn graphs(&self) -> Vec<Arc<RegisteredGraph>> {
        self.shared.registry.list()
    }

    /// True while the service can take more work: not shut down, not
    /// draining, and the queue below the high-water mark. An external
    /// balancer polls this to steer load away before the 429s start.
    pub fn ready(&self) -> bool {
        let cfg = &self.shared.cfg;
        let led = self.shared.lock();
        !led.shutdown
            && !led.draining
            && (cfg.max_queue == 0 || led.pending.len() < cfg.high_water())
    }

    /// Validates and submits a job. Well-formed requests always get an
    /// id; admission-rejected jobs come back with an id too, their
    /// record already terminal at [`JobState::Rejected`]. Malformed
    /// requests (unknown algorithm, unknown graph, missing or
    /// out-of-range source, non-positive Δ) are refused with the typed
    /// error instead — nothing is queued, nothing panics. A full queue
    /// refuses with [`ServiceError::Overloaded`] (429 + Retry-After); a
    /// draining service with [`ServiceError::Draining`] (503).
    pub fn submit(&self, request: JobRequest) -> ServiceResult<u64> {
        let sh = &*self.shared;
        // Pricing needs no lock; its verdict is read after the stop
        // flags, so a stopping service answers 503 to anything.
        let priced = self.price(&request);
        let mut led = sh.lock();
        if led.shutdown {
            return Err(ServiceError::ShuttingDown);
        }
        if led.draining {
            return Err(ServiceError::Draining);
        }
        led.admit(sh, request, priced?)
    }

    /// Checks a request against the registry and models its peak memory.
    fn price(&self, request: &JobRequest) -> ServiceResult<Priced> {
        let sh = &*self.shared;
        let algo = admitted(&request.algo)?;
        let reg = sh.registry.get(&request.graph)?;
        let n = reg.vertex_count();
        let source = match (algo.needs_source(), request.source) {
            (false, _) => None,
            (true, None) => {
                let msg = format!("{} requires a source", algo.label());
                return Err(ServiceError::BadRequest(msg));
            }
            (true, Some(src)) => {
                validate_sources(n, &[src]).map_err(|e| ServiceError::BadRequest(e.to_string()))?;
                Some(src)
            }
        };
        let delta_bits = match algo {
            Algo::Delta => {
                let d = request.delta.unwrap_or(2.0);
                if d <= 0.0 || d.is_nan() {
                    let msg = format!("delta must be positive, got {d}");
                    return Err(ServiceError::BadRequest(msg));
                }
                Some(d.to_bits())
            }
            _ => None,
        };
        let resident = sh.registry.resident_bytes();
        let free = sh.cfg.profile.vram_bytes.saturating_sub(resident);
        Ok(Priced {
            modeled_bytes: modeled_peak_bytes(algo, n as u64, reg.edge_count() as u64, 1),
            budget_bytes: sh.job_budget.min(free),
            key: CacheKey {
                graph: reg.name.clone(),
                version: reg.version,
                algo,
                source,
                delta_bits,
            },
        })
    }

    /// Snapshot of a job record.
    pub fn job(&self, id: u64) -> Option<JobRecord> {
        let job = self.shared.lock().jobs.get(&id).cloned();
        job.map(StoredJob::into_record)
    }

    /// All job ids, ascending (listing endpoint).
    pub fn job_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.shared.lock().jobs.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Blocks until `id` reaches a terminal state; `None` for unknown ids.
    pub fn wait(&self, id: u64) -> Option<JobRecord> {
        let sh = &*self.shared;
        let mut led = sh.lock();
        loop {
            let job = led.jobs.get(&id)?;
            if job.record.state.is_terminal() {
                let job = job.clone();
                drop(led);
                return Some(job.into_record());
            }
            led = sh.done_cv.wait(led).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Blocks until the queue is empty and no job is executing.
    pub fn wait_idle(&self) {
        let sh = &*self.shared;
        let mut led = sh.lock();
        while !led.idle() {
            led = sh.done_cv.wait(led).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Pauses job claiming (submissions still queue; already-running
    /// batches finish).
    pub fn pause(&self) {
        self.set_paused(true);
    }

    /// Resumes job claiming.
    pub fn resume(&self) {
        self.set_paused(false);
    }

    fn set_paused(&self, paused: bool) {
        self.shared.lock().paused = paused;
        self.shared.work_cv.notify_all();
    }

    pub fn stats(&self) -> StatsSnapshot {
        let (c, queue_depth, draining) = {
            let led = self.shared.lock();
            (led.counters, led.pending.len() as u64, led.draining)
        };
        let cache = &self.shared.cache;
        StatsSnapshot {
            jobs_done: c.jobs_done,
            jobs_failed: c.jobs_failed,
            jobs_rejected: c.jobs_rejected,
            jobs_timeout: c.jobs_timeout,
            jobs_shed: c.jobs_shed,
            coalesced_batches: c.coalesced_batches,
            coalesced_jobs: c.coalesced_jobs,
            device_ms: c.device_ns as f64 / 1e6,
            cache_hits: cache.hits(),
            cache_misses: cache.misses(),
            cache_hit_ratio: cache.hit_ratio(),
            cache_entries: cache.len() as u64,
            cache_evictions: cache.evictions(),
            queue_depth,
            worker_rebuilds: c.worker_rebuilds,
            breaker_trips: c.breaker_trips,
            breaker_probes: c.breaker_probes,
            workers_quarantined: c.workers_quarantined,
            draining,
        }
    }

    /// Graceful drain: stop admissions (new submissions get a typed
    /// `Draining` 503), unpause, let queued and in-flight jobs finish.
    /// At `deadline`, still-queued jobs are failed with a `draining`
    /// record and in-flight batches are cancelled through their tokens
    /// (the engine aborts at its next checkpoint boundary). Afterwards
    /// the workers are joined and every terminal record is snapshotted.
    pub fn drain(&self, deadline: Duration) -> DrainReport {
        let sh = &*self.shared;
        let deadline_at = Instant::now() + deadline;
        let mut led = sh.lock();
        led.draining = true;
        // Drain means "finish everything": a paused queue would never
        // empty.
        led.paused = false;
        sh.work_cv.notify_all();

        let mut shed_queued = 0;
        let mut cancelled_in_flight = 0;
        let mut cut_off = false;
        while !led.idle() {
            let now = Instant::now();
            led = if cut_off {
                sh.done_cv.wait(led).unwrap_or_else(|e| e.into_inner())
            } else if now >= deadline_at {
                cut_off = true;
                let leftovers: Vec<PendingJob> = led.pending.drain(..).collect();
                shed_queued = leftovers.len();
                led.shed(sh, &leftovers, |_| ServiceError::Draining);
                for token in led.cancels.iter().flatten() {
                    token.cancel();
                    cancelled_in_flight += 1;
                }
                led
            } else {
                let waited = sh.done_cv.wait_timeout(led, deadline_at - now);
                waited.unwrap_or_else(|e| e.into_inner()).0
            };
        }
        drop(led);

        self.shutdown();

        let led = sh.lock();
        let terminal = |j: &&StoredJob| j.record.state.is_terminal();
        let jobs: Vec<StoredJob> = led.jobs.values().filter(terminal).cloned().collect();
        let (jobs_done, jobs_failed) = (led.counters.jobs_done, led.counters.jobs_failed);
        drop(led);
        let mut records: Vec<JobRecord> = jobs.into_iter().map(StoredJob::into_record).collect();
        records.sort_by_key(|r| r.id);
        DrainReport {
            clean: !cut_off,
            shed_queued,
            cancelled_in_flight,
            jobs_done,
            jobs_failed,
            records,
        }
    }

    /// Hard stop: refuses new work, wakes and joins every worker. Pending
    /// jobs stay `Queued` in the table — prefer [`Service::drain`] in
    /// servers, which completes or terminally fails them.
    pub fn shutdown(&self) {
        self.shared.lock().shutdown = true;
        self.shared.work_cv.notify_all();
        let mut workers = self.workers.lock().unwrap_or_else(|e| e.into_inner());
        for h in workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.shutdown();
    }
}

// ---------------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------------

/// Builds a worker's device queue, attaching the configured fault plan.
fn build_worker_queue(cfg: &ServiceConfig) -> Queue {
    let device = Device::new(cfg.profile.clone());
    match &cfg.fault_plan {
        Some(plan) => Queue::with_faults(device, plan.clone()),
        None => Queue::new(device),
    }
}

fn worker_loop(sh: Arc<Shared>, widx: usize) {
    let mut q = build_worker_queue(&sh.cfg);
    let mut mirror = DeviceMirror::new();
    // Consecutive rebuilds since the last healthy batch; reaching the
    // breaker threshold quarantines this worker.
    let mut consecutive_rebuilds = 0u32;
    loop {
        let threshold = sh.cfg.breaker_threshold;
        if threshold > 0 && consecutive_rebuilds >= threshold {
            if !quarantine(&sh) {
                return;
            }
            // Half-open: one rebuild away from re-tripping, one healthy
            // batch away from closing.
            consecutive_rebuilds = threshold - 1;
        }

        let Some(batch) = claim(&sh, widx) else {
            return; // shutdown
        };
        let run = AssertUnwindSafe(|| execute(&sh, &q, &mut mirror, &batch));
        let (outcome, panicked) = match catch_unwind(run) {
            Ok(outcome) => (outcome, false),
            Err(_) => {
                let msg = "worker panicked while executing the job".to_string();
                (Err(ServiceError::Device(SimError::Algorithm(msg))), true)
            }
        };
        q.set_cancel_token(None);

        // A panic leaves the device state mid-kernel garbage; a sticky
        // pending fault (device lost beyond the recovery policy's reach)
        // leaves the queue refusing every launch. Both need a rebuild.
        let rebuild = panicked || q.fault_pending();
        if rebuild {
            q = build_worker_queue(&sh.cfg);
            mirror = DeviceMirror::new();
            consecutive_rebuilds += 1;
        } else {
            consecutive_rebuilds = 0;
        }
        sh.lock().settle(&sh, widx, batch, outcome, rebuild);
    }
}

/// Circuit open: sits out `breaker_open_ms`, then returns `true` for
/// exactly one half-open probe batch (a failed probe lands back here).
/// `false` when the service shut down meanwhile.
fn quarantine(sh: &Shared) -> bool {
    let until = Instant::now() + Duration::from_millis(sh.cfg.breaker_open_ms);
    let mut led = sh.lock();
    led.counters.breaker_trips += 1;
    led.counters.workers_quarantined += 1;
    while !led.shutdown {
        let now = Instant::now();
        if now >= until {
            break;
        }
        let waited = sh.work_cv.wait_timeout(led, until - now);
        led = waited.unwrap_or_else(|e| e.into_inner()).0;
    }
    let probe = !led.shutdown;
    led.counters.workers_quarantined -= 1;
    led.counters.breaker_probes += probe as u64;
    probe
}

/// Runs a claimed batch on this worker's queue. Touches no job state:
/// the outcome goes back to the ledger through [`Ledger::settle`].
fn execute(sh: &Shared, q: &Queue, mirror: &mut DeviceMirror, batch: &Batch) -> ServiceResult<Ran> {
    let head = &batch.jobs[0].key;
    // Re-resolve the graph; it may have been superseded since admission.
    let reg = sh.registry.get(&head.graph)?;
    if reg.version != head.version {
        return Err(ServiceError::NotFound(format!(
            "graph {:?} version {} superseded by {} before the job ran",
            head.graph, head.version, reg.version
        )));
    }
    let graph = mirror.resolve(q, &reg)?;
    q.set_cancel_token(Some(batch.token.clone()));

    // Per-job metric scoping on this worker's reused queue: the worker
    // runs one batch at a time, so the profiler and the device ledger
    // are ours to reset, and what they hold at the end is this batch's.
    q.profiler().reset();
    q.device().reset_mem_peak();
    let used_before = q.device().mem_used();
    let opts = OptConfig {
        recovery: sh.cfg.recovery,
        ..OptConfig::all()
    };

    let wall_start = Instant::now();
    let (per_job, iterations, sim_ms) = if batch.jobs.len() > 1 {
        let sources: Vec<u32> = batch.jobs.iter().filter_map(|p| p.key.source).collect();
        let r = multi::bfs_multi(q, &graph.csr, &sources, batch.width, &opts)?;
        let per_job = r.per_source.into_iter().map(JobValues::U32).collect();
        (per_job, r.iterations, r.sim_ms)
    } else {
        // A job that could have ridden in a lane batch runs on the push
        // view even when a pull mirror is resident: that is the rooted
        // run `bfs_multi`'s lanes are bit-identical to, so coalescing
        // stays unobservable in the values.
        let mut opts = opts;
        if coalescible(head.algo) {
            opts.direction = Direction::Push;
        }
        let args = Args {
            source: head.source.unwrap_or(0),
            delta: head
                .delta_bits
                .map_or(Args::default().delta, f32::from_bits),
        };
        let r = head.algo.run(q, &graph, args, &opts)?;
        (vec![r.values], r.iterations, r.sim_ms)
    };
    Ok(Ran {
        per_job,
        iterations,
        sim_ms,
        kernel_launches: q.profiler().kernel_count() as u64,
        mem_peak_bytes: q.device().mem_peak().saturating_sub(used_before),
        recovery_events: q
            .profiler()
            .count(|k| matches!(k, TraceKind::Recovery { .. })) as u64,
        wall_ns: wall_start.elapsed().as_nanos() as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A worker reuses one queue for its lifetime; after each batch its
    /// profiler must hold that batch's launches and nothing older, or
    /// the process grows by one record per launch forever.
    #[test]
    fn worker_profiler_holds_the_last_batch_only() {
        let service = Service::start(ServiceConfig::default()).unwrap();
        let edges: Vec<(u32, u32)> = (0..63).map(|v| (v, v + 1)).collect();
        let host = CsrHost::from_edges(64, &edges);
        let reg = service
            .register_graph("line", host, RegisterOptions::default())
            .unwrap();
        let sh = &*service.shared;
        let q = build_worker_queue(&sh.cfg);
        let mut mirror = DeviceMirror::new();
        let batch_from = |source: u32| Batch {
            jobs: vec![PendingJob {
                id: 0,
                key: CacheKey {
                    graph: reg.name.clone(),
                    version: reg.version,
                    algo: Algo::Bfs,
                    source: Some(source),
                    delta_bits: None,
                },
                coalesce: false,
                enqueued_at: Instant::now(),
                deadline: None,
                timeout_ms: 0,
            }],
            width: 1,
            token: CancelToken::new(),
        };
        let long = execute(sh, &q, &mut mirror, &batch_from(0)).unwrap();
        let short = execute(sh, &q, &mut mirror, &batch_from(60)).unwrap();
        assert!(short.kernel_launches > 0);
        assert!(long.kernel_launches > short.kernel_launches);
        assert_eq!(q.profiler().kernel_count() as u64, short.kernel_launches);
    }
}
