//! Concurrent job scheduler: a shared submission queue drained by worker
//! threads, each owning one simulated device queue.
//!
//! The pieces the ISSUE names live here:
//!
//! - **Admission control** — at submit time the job's peak scratch
//!   memory is modelled ([`modeled_peak_bytes`]) and checked against the
//!   per-job budget and the device's free capacity; oversized jobs stop
//!   at `Rejected` instead of OOMing a worker mid-run.
//! - **Request coalescing** — when a worker claims a coalescible head
//!   job (single-source BFS), it folds every compatible pending request
//!   (same graph, same version, coalescing not opted out) into one
//!   W-lane multi-source pass, waiting up to the batching window for
//!   stragglers, then demuxes the per-lane vectors back to the
//!   individual jobs. Per-lane output is bit-identical to a serial
//!   rooted run (the PR-7 lane property), so callers cannot observe
//!   whether their job was batched — except in the metrics.
//! - **Result caching** — before queueing, the scheduler consults the
//!   [`ResultCache`]; a hit completes the job immediately with zero
//!   device time. Workers store what they compute (including every lane
//!   of a coalesced batch, under single-source keys).
//!
//! The resilience layer (DESIGN.md §16) adds:
//!
//! - **Deadlines** — every job may carry one (client `timeout_ms` capped
//!   by `max_timeout_ms`, else `default_timeout_ms`). Expired queued
//!   jobs are shed at claim time; running jobs are aborted by a
//!   [`CancelToken`] the engine polls at superstep-checkpoint
//!   boundaries. Both produce a typed `deadline-exceeded` record.
//! - **Backpressure** — the submission queue is bounded by `max_queue`;
//!   overflow is refused with [`ServiceError::Overloaded`] carrying a
//!   `Retry-After` hint from the measured per-job service-time EWMA, and
//!   [`Scheduler::ready`] flips unready above the high-water mark.
//! - **Fault-wired workers** — an optional [`FaultPlan`] attaches to
//!   every worker queue, so injected transient/OOM/device-lost faults
//!   exercise the engine's recovery ladder *in service*. A worker whose
//!   device dies (or whose job panics) rebuilds its device state;
//!   repeated consecutive rebuilds trip a per-worker circuit breaker
//!   (quarantine for `breaker_open_ms`, then a half-open probe batch).
//! - **Graceful drain** — [`Scheduler::drain`] stops admissions (typed
//!   `Draining` 503), lets queued and in-flight work finish up to a
//!   deadline, cancels whatever is still running, and returns a snapshot
//!   of every terminal job record.
//!
//! Workers survive algorithm panics: a panicking job is recorded as
//! `Failed` and the worker rebuilds its device state, so one poisoned
//! request cannot take the service down.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::RwLock;
use sygraph_algos::common::AlgoResult;
use sygraph_algos::{bc, bfs, cc, delta, multi, pagerank, sssp};
use sygraph_core::engine::RecoveryPolicy;
use sygraph_core::graph::{validate_sources, Graph};
use sygraph_core::inspector::OptConfig;
use sygraph_sim::{CancelToken, Device, DeviceProfile, FaultPlan, Queue, SimError};

use crate::cache::{CacheKey, CachedResult, ResultCache};
use crate::error::{ServiceError, ServiceResult};
use crate::job::{Algo, JobMetrics, JobRecord, JobRequest, JobState, JobValues};
use crate::registry::{DeviceMirror, Registry};

/// Scheduler / service configuration.
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
    /// [`Scheduler::resume`], letting tests and benches stage a burst
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
    /// Default drain deadline for [`Scheduler::drain`] callers that use
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

/// Coarse peak-scratch model for admission control, in bytes. Counts the
/// algorithm's value/state arrays plus double-buffered two-layer
/// frontiers; deliberately a little generous so a pass never exceeds the
/// admitted figure by more than slack. `lanes` scales the multi-source
/// BFS layout (per-lane depth rows + packed lane masks).
pub fn modeled_peak_bytes(algo: Algo, n: u64, _m: u64, lanes: u32) -> u64 {
    let lanes = lanes.max(1) as u64;
    // Two in/out frontiers, each a two-layer bitmap plus compaction
    // scratch: ~1 byte/vertex covers every word width used.
    let frontier = 2 * n + 256;
    let state = match algo {
        // depth rows (4B per lane per vertex) + packed visited lanes.
        Algo::Bfs => lanes * 4 * n + lanes * n / 4 + lanes * frontier / 2,
        Algo::Sssp => 4 * n,
        // distances + bucket tags.
        Algo::DeltaSssp => 8 * n,
        Algo::Cc => 4 * n,
        // depth + sigma + delta + retained per-level frontier pool.
        Algo::Bc => 12 * n + 4 * n,
        // rank + next + share + scalars.
        Algo::Pagerank => 12 * n + 64,
    };
    state + frontier
}

/// One queued unit of work. Carries the match fields for coalescing so
/// workers never need the job table while holding the queue lock.
struct PendingJob {
    id: u64,
    graph: String,
    version: u64,
    algo: Algo,
    source: u32,
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
}

struct SchedState {
    pending: VecDeque<PendingJob>,
    paused: bool,
    draining: bool,
    shutdown: bool,
    in_flight: usize,
}

/// Monotone counters exposed to `/stats` and the bench.
#[derive(Debug, Default)]
pub struct Counters {
    pub jobs_done: AtomicU64,
    pub jobs_failed: AtomicU64,
    pub jobs_rejected: AtomicU64,
    /// Jobs that blew their deadline (shed from the queue or aborted
    /// mid-run).
    pub jobs_timeout: AtomicU64,
    /// Submissions refused at the door with 429 (queue full).
    pub jobs_shed: AtomicU64,
    pub coalesced_batches: AtomicU64,
    pub coalesced_jobs: AtomicU64,
    /// Total modelled device nanoseconds spent executing (each
    /// coalesced batch counted once).
    pub device_ns: AtomicU64,
    /// Worker device rebuilds (panic or sticky device-lost).
    pub worker_rebuilds: AtomicU64,
    /// Circuit-breaker trips (a worker entering quarantine).
    pub breaker_trips: AtomicU64,
    /// Half-open probe batches after quarantine.
    pub breaker_probes: AtomicU64,
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

/// A job as the table holds it: the public record with `values` left
/// `None`, plus the finished values, which a cache entry for the same
/// result shares instead of copying.
struct StoredJob {
    record: JobRecord,
    values: Option<Arc<JobValues>>,
}

impl StoredJob {
    /// The public record, with the shared values copied out.
    fn to_record(&self) -> JobRecord {
        JobRecord {
            values: self.values.as_deref().cloned(),
            ..self.record.clone()
        }
    }
}

struct Shared {
    registry: Arc<Registry>,
    cache: Arc<ResultCache>,
    jobs: RwLock<HashMap<u64, StoredJob>>,
    state: StdMutex<SchedState>,
    /// Wakes workers: new work, pause/resume, shutdown.
    work_cv: Condvar,
    /// Wakes completion waiters (`wait`, `wait_idle`).
    done_cv: Condvar,
    next_id: AtomicU64,
    counters: Counters,
    /// Workers currently quarantined by their circuit breaker (gauge).
    quarantined: AtomicU64,
    /// EWMA of wall-clock service time per job, in ns (drives the
    /// `Retry-After` hint). 0 until the first batch lands.
    service_ns_ewma: AtomicU64,
    /// Per-worker slot holding the cancel token of the batch the worker
    /// is currently running; drain fires them at its deadline.
    active_cancels: Vec<StdMutex<Option<CancelToken>>>,
    cfg: ServiceConfig,
}

/// The scheduler: submission front end plus the worker pool.
pub struct Scheduler {
    shared: Arc<Shared>,
    workers: StdMutex<Vec<JoinHandle<()>>>,
}

impl Scheduler {
    pub fn new(
        cfg: ServiceConfig,
        registry: Arc<Registry>,
        cache: Arc<ResultCache>,
    ) -> ServiceResult<Scheduler> {
        cfg.validate()?;
        let shared = Arc::new(Shared {
            registry,
            cache,
            jobs: RwLock::new(HashMap::new()),
            state: StdMutex::new(SchedState {
                pending: VecDeque::new(),
                paused: cfg.start_paused,
                draining: false,
                shutdown: false,
                in_flight: 0,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            next_id: AtomicU64::new(1),
            counters: Counters::default(),
            quarantined: AtomicU64::new(0),
            service_ns_ewma: AtomicU64::new(0),
            active_cancels: (0..cfg.workers).map(|_| StdMutex::new(None)).collect(),
            cfg: cfg.clone(),
        });
        let workers = (0..cfg.workers)
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("sygraph-worker-{i}"))
                    .spawn(move || worker_loop(shared, i))
                    .expect("spawn worker")
            })
            .collect();
        Ok(Scheduler {
            shared,
            workers: StdMutex::new(workers),
        })
    }

    pub fn config(&self) -> &ServiceConfig {
        &self.shared.cfg
    }

    /// True while the service can take more work: not shut down, not
    /// draining, and the queue below the high-water mark. An external
    /// balancer polls this to steer load away before the 429s start.
    pub fn ready(&self) -> bool {
        let st = lock(&self.shared.state);
        if st.shutdown || st.draining {
            return false;
        }
        self.shared.cfg.max_queue == 0 || st.pending.len() < self.shared.cfg.high_water()
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
        {
            let st = lock(&self.shared.state);
            if st.shutdown {
                return Err(ServiceError::ShuttingDown);
            }
            if st.draining {
                return Err(ServiceError::Draining);
            }
        }
        let algo = Algo::parse(&request.algo)?;
        let reg = self.shared.registry.get(&request.graph)?;
        let n = reg.vertex_count();

        let source = if algo.needs_source() {
            let src = request.source.ok_or_else(|| {
                ServiceError::BadRequest(format!("{} requires a source", algo.label()))
            })?;
            validate_sources(n, &[src]).map_err(|e| ServiceError::BadRequest(e.to_string()))?;
            Some(src)
        } else {
            None
        };
        let delta_bits = match algo {
            Algo::DeltaSssp => {
                let d = request.delta.unwrap_or(2.0);
                if d <= 0.0 || d.is_nan() {
                    return Err(ServiceError::BadRequest(format!(
                        "delta must be positive, got {d}"
                    )));
                }
                Some(d.to_bits())
            }
            _ => None,
        };

        let id = self.shared.next_id.fetch_add(1, Ordering::SeqCst);
        let mut record = JobRecord::queued(id, request.clone(), reg.version);

        // Cache lookup first: a hit does no device work, so it cannot
        // be admission-rejected, never waits for a worker, and needs no
        // deadline.
        let no_cache = request.no_cache.unwrap_or(false);
        let key = CacheKey {
            graph: reg.name.clone(),
            version: reg.version,
            algo,
            source,
            delta_bits,
        };
        if !no_cache {
            if let Some(hit) = self.shared.cache.get(&key) {
                record.state = JobState::Done;
                record.metrics = JobMetrics {
                    iterations: hit.iterations,
                    sim_ms: 0.0,
                    cache_hit: true,
                    batch_size: 1,
                    ..JobMetrics::default()
                };
                self.shared
                    .counters
                    .jobs_done
                    .fetch_add(1, Ordering::Relaxed);
                self.finish(record, Some(hit.values.clone()));
                return Ok(id);
            }
        }

        // Admission control against the modelled single-job peak.
        let modeled = modeled_peak_bytes(algo, n as u64, reg.edge_count() as u64, 1);
        let budget = self.job_budget();
        let free = self
            .shared
            .cfg
            .profile
            .vram_bytes
            .saturating_sub(self.shared.registry.resident_bytes());
        if modeled > budget || modeled > free {
            let limit = budget.min(free);
            let err = ServiceError::AdmissionRejected {
                modeled_bytes: modeled,
                budget_bytes: limit,
            };
            record.state = JobState::Rejected;
            record.error = Some(err.to_string());
            record.error_kind = Some(err.kind().to_string());
            record.http_status = Some(err.http_status());
            record.metrics.modeled_peak_bytes = modeled;
            self.shared
                .counters
                .jobs_rejected
                .fetch_add(1, Ordering::Relaxed);
            self.finish(record, None);
            return Ok(id);
        }
        record.metrics.modeled_peak_bytes = modeled;

        // Effective deadline: client timeout capped by the server max,
        // else the server default.
        let cfg = &self.shared.cfg;
        let timeout_ms = match request.timeout_ms {
            Some(t) => Some(t.min(cfg.max_timeout_ms)),
            None => cfg.default_timeout_ms.map(|t| t.min(cfg.max_timeout_ms)),
        };
        let deadline = timeout_ms.map(|t| Instant::now() + Duration::from_millis(t));

        let mut st = lock(&self.shared.state);
        // Re-check under the lock: drain/shutdown may have started while
        // we validated.
        if st.shutdown {
            return Err(ServiceError::ShuttingDown);
        }
        if st.draining {
            return Err(ServiceError::Draining);
        }
        if cfg.max_queue > 0 && st.pending.len() >= cfg.max_queue {
            let queued = st.pending.len();
            drop(st);
            self.shared
                .counters
                .jobs_shed
                .fetch_add(1, Ordering::Relaxed);
            return Err(ServiceError::Overloaded {
                queued,
                limit: cfg.max_queue,
                retry_after_ms: self.retry_after_ms(queued),
            });
        }
        self.shared.jobs.write().insert(
            id,
            StoredJob {
                record,
                values: None,
            },
        );
        st.pending.push_back(PendingJob {
            id,
            graph: reg.name.clone(),
            version: reg.version,
            algo,
            source: source.unwrap_or(0),
            coalesce: algo.coalescible() && !request.no_coalesce.unwrap_or(false),
            enqueued_at: Instant::now(),
            deadline,
            timeout_ms: timeout_ms.unwrap_or(0),
        });
        drop(st);
        self.shared.work_cv.notify_all();
        Ok(id)
    }

    /// `Retry-After` hint from the service-time EWMA: time for the
    /// current backlog to drain across the worker pool, clamped to
    /// [100 ms, 60 s]. Before any job has landed the EWMA is unknown and
    /// the hint defaults to 1 s.
    fn retry_after_ms(&self, queued: usize) -> u64 {
        let ewma_ns = self.shared.service_ns_ewma.load(Ordering::Relaxed);
        if ewma_ns == 0 {
            return 1_000;
        }
        let workers = self.shared.cfg.workers.max(1) as u64;
        let drain_ns = (queued as u64 / workers + 1).saturating_mul(ewma_ns);
        (drain_ns / 1_000_000).clamp(100, 60_000)
    }

    /// Records a job that completed without ever being queued.
    fn finish(&self, record: JobRecord, values: Option<Arc<JobValues>>) {
        self.shared
            .jobs
            .write()
            .insert(record.id, StoredJob { record, values });
        self.shared.done_cv.notify_all();
    }

    fn job_budget(&self) -> u64 {
        self.shared
            .cfg
            .job_mem_budget
            .unwrap_or(self.shared.cfg.profile.vram_bytes)
    }

    /// Snapshot of a job record.
    pub fn job(&self, id: u64) -> Option<JobRecord> {
        self.shared.jobs.read().get(&id).map(StoredJob::to_record)
    }

    /// All job ids, ascending (listing endpoint).
    pub fn job_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.shared.jobs.read().keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Blocks until `id` reaches a terminal state; `None` for unknown ids.
    pub fn wait(&self, id: u64) -> Option<JobRecord> {
        loop {
            match self.shared.jobs.read().get(&id) {
                None => return None,
                Some(job) if terminal(job.record.state) => return Some(job.to_record()),
                Some(_) => {}
            }
            let st = lock(&self.shared.state);
            let _ = self
                .shared
                .done_cv
                .wait_timeout(st, Duration::from_millis(20));
        }
    }

    /// Blocks until the queue is empty and no job is executing.
    pub fn wait_idle(&self) {
        loop {
            let st = lock(&self.shared.state);
            if st.pending.is_empty() && st.in_flight == 0 {
                return;
            }
            let _ = self
                .shared
                .done_cv
                .wait_timeout(st, Duration::from_millis(20));
        }
    }

    /// Pauses claiming (already-running batches finish).
    pub fn pause(&self) {
        lock(&self.shared.state).paused = true;
        self.shared.work_cv.notify_all();
    }

    /// Resumes claiming.
    pub fn resume(&self) {
        lock(&self.shared.state).paused = false;
        self.shared.work_cv.notify_all();
    }

    pub fn stats(&self) -> StatsSnapshot {
        let c = &self.shared.counters;
        let (queue_depth, draining) = {
            let st = lock(&self.shared.state);
            (st.pending.len() as u64, st.draining)
        };
        StatsSnapshot {
            jobs_done: c.jobs_done.load(Ordering::Relaxed),
            jobs_failed: c.jobs_failed.load(Ordering::Relaxed),
            jobs_rejected: c.jobs_rejected.load(Ordering::Relaxed),
            jobs_timeout: c.jobs_timeout.load(Ordering::Relaxed),
            jobs_shed: c.jobs_shed.load(Ordering::Relaxed),
            coalesced_batches: c.coalesced_batches.load(Ordering::Relaxed),
            coalesced_jobs: c.coalesced_jobs.load(Ordering::Relaxed),
            device_ms: c.device_ns.load(Ordering::Relaxed) as f64 / 1e6,
            cache_hits: self.shared.cache.hits(),
            cache_misses: self.shared.cache.misses(),
            cache_hit_ratio: self.shared.cache.hit_ratio(),
            cache_entries: self.shared.cache.len() as u64,
            cache_evictions: self.shared.cache.evictions(),
            queue_depth,
            worker_rebuilds: c.worker_rebuilds.load(Ordering::Relaxed),
            breaker_trips: c.breaker_trips.load(Ordering::Relaxed),
            breaker_probes: c.breaker_probes.load(Ordering::Relaxed),
            workers_quarantined: self.shared.quarantined.load(Ordering::Relaxed),
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
        let deadline_at = Instant::now() + deadline;
        {
            let mut st = lock(&self.shared.state);
            st.draining = true;
            // Drain means "finish everything": a paused queue would
            // never empty.
            st.paused = false;
        }
        self.shared.work_cv.notify_all();

        let mut shed_queued = 0usize;
        let mut cancelled_in_flight = 0usize;
        let mut cut_off = false;
        loop {
            let mut st = lock(&self.shared.state);
            if st.pending.is_empty() && st.in_flight == 0 {
                break;
            }
            if !cut_off && Instant::now() >= deadline_at {
                cut_off = true;
                let leftovers: Vec<PendingJob> = st.pending.drain(..).collect();
                shed_queued = leftovers.len();
                let ids: Vec<u64> = leftovers.iter().map(|p| p.id).collect();
                fail_ids(&self.shared, &ids, &ServiceError::Draining);
                for slot in &self.shared.active_cancels {
                    if let Some(tok) = &*lock(slot) {
                        tok.cancel();
                        cancelled_in_flight += 1;
                    }
                }
            }
            let _ = self
                .shared
                .done_cv
                .wait_timeout(st, Duration::from_millis(10));
        }

        self.shutdown();

        let jobs = self.shared.jobs.read();
        let mut records: Vec<JobRecord> = jobs
            .values()
            .filter(|j| terminal(j.record.state))
            .map(StoredJob::to_record)
            .collect();
        drop(jobs);
        records.sort_by_key(|r| r.id);
        let c = &self.shared.counters;
        DrainReport {
            clean: !cut_off,
            shed_queued,
            cancelled_in_flight,
            jobs_done: c.jobs_done.load(Ordering::Relaxed),
            jobs_failed: c.jobs_failed.load(Ordering::Relaxed),
            records,
        }
    }

    /// Stops accepting work, wakes and joins every worker. Pending jobs
    /// stay `Queued` in the table — use [`Scheduler::drain`] for the
    /// graceful variant that completes or terminally fails them.
    pub fn shutdown(&self) {
        lock(&self.shared.state).shutdown = true;
        self.shared.work_cv.notify_all();
        self.shared.done_cv.notify_all();
        let mut workers = lock(&self.workers);
        for h in workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn terminal(state: JobState) -> bool {
    matches!(
        state,
        JobState::Done | JobState::Failed | JobState::Rejected
    )
}

fn lock<T>(m: &StdMutex<T>) -> std::sync::MutexGuard<'_, T> {
    // Workers catch panics, so poisoning is all but impossible; if it
    // ever happens the protected state is still structurally sound.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

// ---------------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------------

/// Largest supported lane width (8|16|32|64) that is ≤ `cap` and whose
/// modelled batch peak fits `budget`; 1 when even 8 lanes do not fit.
fn admissible_width(n: u64, m: u64, cap: u32, budget: u64) -> u32 {
    let mut width = 0;
    for w in [8u32, 16, 32, 64] {
        if w <= cap && modeled_peak_bytes(Algo::Bfs, n, m, w) <= budget {
            width = w;
        }
    }
    width.max(1)
}

/// Builds a worker's device queue, attaching the configured fault plan.
fn build_worker_queue(shared: &Shared) -> Queue {
    let device = Device::new(shared.cfg.profile.clone());
    match &shared.cfg.fault_plan {
        Some(plan) => Queue::with_faults(device, plan.clone()),
        None => Queue::new(device),
    }
}

fn worker_loop(shared: Arc<Shared>, widx: usize) {
    let mut q = build_worker_queue(&shared);
    let mut mirror = DeviceMirror::new();
    // Consecutive rebuilds since the last healthy batch; reaching the
    // breaker threshold quarantines this worker.
    let mut consecutive_rebuilds = 0u32;
    loop {
        let threshold = shared.cfg.breaker_threshold;
        if threshold > 0 && consecutive_rebuilds >= threshold {
            // Circuit open: quarantine, then come back half-open with
            // exactly one probe batch. A failed probe lands back here.
            shared
                .counters
                .breaker_trips
                .fetch_add(1, Ordering::Relaxed);
            shared.quarantined.fetch_add(1, Ordering::Relaxed);
            let opened = Instant::now();
            let open_for = Duration::from_millis(shared.cfg.breaker_open_ms);
            let mut st = lock(&shared.state);
            while !st.shutdown {
                let elapsed = opened.elapsed();
                if elapsed >= open_for {
                    break;
                }
                let (guard, _) = shared
                    .work_cv
                    .wait_timeout(st, open_for - elapsed)
                    .unwrap_or_else(|e| e.into_inner());
                st = guard;
            }
            let stop = st.shutdown;
            drop(st);
            shared.quarantined.fetch_sub(1, Ordering::Relaxed);
            if stop {
                return;
            }
            shared
                .counters
                .breaker_probes
                .fetch_add(1, Ordering::Relaxed);
            // Half-open: one rebuild away from re-tripping, one healthy
            // batch away from closing.
            consecutive_rebuilds = threshold - 1;
        }

        let batch = match claim(&shared) {
            Some(batch) => batch,
            None => return, // shutdown
        };
        let panicked = {
            let run = AssertUnwindSafe(|| execute(&shared, &q, &mut mirror, &batch, widx));
            catch_unwind(run).is_err()
        };
        if panicked {
            fail_batch(&shared, &batch, "worker panicked while executing the job");
        }
        // Clear the drain-cancellation slot and any leftover token on
        // the queue (harmless when execute already did).
        *lock(&shared.active_cancels[widx]) = None;
        q.set_cancel_token(None);

        // A panic leaves the device state mid-kernel garbage; a sticky
        // pending fault (device lost beyond the recovery policy's reach)
        // leaves the queue refusing every launch. Both need a rebuild.
        let rebuild = panicked || q.fault_pending();
        if rebuild {
            q = build_worker_queue(&shared);
            mirror = DeviceMirror::new();
            shared
                .counters
                .worker_rebuilds
                .fetch_add(1, Ordering::Relaxed);
            consecutive_rebuilds += 1;
        } else {
            consecutive_rebuilds = 0;
        }

        let mut st = lock(&shared.state);
        st.in_flight -= batch.len();
        drop(st);
        shared.done_cv.notify_all();
    }
}

/// Fails every expired job currently in `pending`, removing it from the
/// queue. Called with the scheduler state locked.
fn shed_expired(shared: &Shared, st: &mut SchedState) {
    let now = Instant::now();
    if !st.pending.iter().any(|p| p.expired(now)) {
        return;
    }
    let mut kept = VecDeque::with_capacity(st.pending.len());
    for p in st.pending.drain(..) {
        if p.expired(now) {
            fail_ids(
                shared,
                &[p.id],
                &ServiceError::DeadlineExceeded {
                    timeout_ms: p.timeout_ms,
                },
            );
        } else {
            kept.push_back(p);
        }
    }
    st.pending = kept;
}

/// Claims the next unit of work: one job, or a coalesced batch grown
/// from a coalescible head. Expired queued jobs are shed (typed
/// `deadline-exceeded`) before anything is handed out. Returns `None`
/// on shutdown.
fn claim(shared: &Shared) -> Option<Vec<PendingJob>> {
    let mut st = lock(&shared.state);
    loop {
        if st.shutdown {
            return None;
        }
        shed_expired(shared, &mut st);
        if !st.paused && !st.pending.is_empty() {
            break;
        }
        st = shared.work_cv.wait(st).unwrap_or_else(|e| e.into_inner());
    }
    let head = st.pending.pop_front().expect("pending checked non-empty");
    let mut batch = vec![head];
    if batch[0].coalesce {
        let budget = shared
            .cfg
            .job_mem_budget
            .unwrap_or(shared.cfg.profile.vram_bytes);
        let reg = shared.registry.get(&batch[0].graph).ok();
        let width = reg
            .map(|r| {
                admissible_width(
                    r.vertex_count() as u64,
                    r.edge_count() as u64,
                    shared.cfg.batch_width,
                    budget,
                )
            })
            .unwrap_or(1) as usize;
        let window = Duration::from_millis(shared.cfg.batch_window_ms);
        let deadline = batch[0].enqueued_at + window;
        loop {
            // Drain currently-pending mates into the batch.
            let mut i = 0;
            while i < st.pending.len() && batch.len() < width {
                let p = &st.pending[i];
                if p.coalesce
                    && p.graph == batch[0].graph
                    && p.version == batch[0].version
                    && p.algo == batch[0].algo
                {
                    batch.push(st.pending.remove(i).expect("index in bounds"));
                } else {
                    i += 1;
                }
            }
            // A draining service stops waiting for stragglers: nothing
            // new is being admitted, so the window can only add latency.
            if batch.len() >= width || st.paused || st.shutdown || st.draining {
                break;
            }
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let (guard, _) = shared
                .work_cv
                .wait_timeout(st, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            st = guard;
        }
    }
    st.in_flight += batch.len();
    Some(batch)
}

fn mark_running(shared: &Shared, batch: &[&PendingJob]) {
    let mut jobs = shared.jobs.write();
    for p in batch {
        if let Some(job) = jobs.get_mut(&p.id) {
            job.record.state = JobState::Running;
        }
    }
}

fn fail_batch(shared: &Shared, batch: &[PendingJob], msg: &str) {
    let err = ServiceError::Device(SimError::Algorithm(msg.to_string()));
    let ids: Vec<u64> = batch.iter().map(|p| p.id).collect();
    fail_ids(shared, &ids, &err);
}

/// Marks the given (non-terminal) records `Failed` with `err`'s typed
/// fields, bumping the counter the error class belongs to.
fn fail_ids(shared: &Shared, ids: &[u64], err: &ServiceError) {
    let msg = err.to_string();
    let counter = match err {
        ServiceError::DeadlineExceeded { .. } => &shared.counters.jobs_timeout,
        _ => &shared.counters.jobs_failed,
    };
    let mut jobs = shared.jobs.write();
    for id in ids {
        if let Some(rec) = jobs.get_mut(id).map(|j| &mut j.record) {
            if !terminal(rec.state) {
                rec.state = JobState::Failed;
                rec.error = Some(msg.clone());
                rec.error_kind = Some(err.kind().to_string());
                rec.http_status = Some(err.http_status());
                counter.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
    drop(jobs);
    shared.done_cv.notify_all();
}

/// Executes a claimed batch on this worker's queue.
fn execute(
    shared: &Shared,
    q: &Queue,
    mirror: &mut DeviceMirror,
    batch: &[PendingJob],
    widx: usize,
) {
    // Shed batch members whose deadline passed between claim and here
    // (e.g. mates that expired during the coalescing window).
    let now = Instant::now();
    let mut live: Vec<&PendingJob> = Vec::with_capacity(batch.len());
    for p in batch {
        if p.expired(now) {
            fail_ids(
                shared,
                &[p.id],
                &ServiceError::DeadlineExceeded {
                    timeout_ms: p.timeout_ms,
                },
            );
        } else {
            live.push(p);
        }
    }
    if live.is_empty() {
        return;
    }
    mark_running(shared, &live);

    // Re-resolve the graph; it may have been superseded since submit.
    let reg = match shared.registry.get(&live[0].graph) {
        Ok(reg) if reg.version == live[0].version => reg,
        Ok(reg) => {
            let msg = format!(
                "graph {:?} version {} superseded by {} before the job ran",
                live[0].graph, live[0].version, reg.version
            );
            return fail_live(shared, &live, ServiceError::NotFound(msg));
        }
        Err(e) => return fail_live(shared, &live, e),
    };
    let graph = match mirror.resolve(q, &reg) {
        Ok(g) => g,
        Err(e) => return fail_live(shared, &live, e),
    };

    // Cancellation: the batch runs under one token whose deadline is the
    // earliest live deadline (coalesced mates share a pass, so the
    // tightest deadline governs). The token is also published to the
    // drain path, which fires it when the drain deadline passes.
    let batch_deadline = live.iter().filter_map(|p| p.deadline).min();
    let token = match batch_deadline {
        Some(d) => CancelToken::with_deadline(d),
        None => CancelToken::new(),
    };
    q.set_cancel_token(Some(token.clone()));
    *lock(&shared.active_cancels[widx]) = Some(token);

    // Per-job metric scoping on this worker's reused queue: a profiler
    // epoch (kernel/recovery counts) plus a peak-watermark reset (the
    // worker runs one batch at a time, so the device ledger is ours).
    let epoch = q.profiler().begin_epoch();
    q.device().reset_mem_peak();
    let used_before = q.device().mem_used();
    let opts = OptConfig {
        recovery: shared.cfg.recovery,
        ..OptConfig::all()
    };

    let wall_start = Instant::now();
    let coalesced = live.len() > 1;
    let outcome: Result<BatchOutcome, ServiceError> = if coalesced {
        let sources: Vec<u32> = live.iter().map(|p| p.source).collect();
        let width = admissible_width(
            reg.vertex_count() as u64,
            reg.edge_count() as u64,
            shared.cfg.batch_width,
            shared
                .cfg
                .job_mem_budget
                .unwrap_or(shared.cfg.profile.vram_bytes),
        );
        multi::bfs_multi(q, &graph.csr, &sources, width, &opts)
            .map(|r| BatchOutcome {
                per_job: r.per_source.into_iter().map(JobValues::U32).collect(),
                iterations: r.iterations,
                sim_ms: r.sim_ms,
            })
            .map_err(ServiceError::from)
    } else {
        run_single(shared, q, &graph, live[0], &opts).map(|(values, iterations, sim_ms)| {
            BatchOutcome {
                per_job: vec![values],
                iterations,
                sim_ms,
            }
        })
    };

    // Detach the token before result handling: the batch is no longer
    // cancellable, and drain must not fire a token for finished work.
    q.set_cancel_token(None);
    *lock(&shared.active_cancels[widx]) = None;

    let outcome = match outcome {
        Ok(o) => o,
        Err(ServiceError::Device(SimError::Cancelled { .. })) => {
            // The engine aborted at a checkpoint boundary. Per job,
            // decide what the cancellation was: its own deadline, or the
            // drain deadline cutting the batch off.
            let now = Instant::now();
            for p in &live {
                let err = if p.expired(now) {
                    ServiceError::DeadlineExceeded {
                        timeout_ms: p.timeout_ms,
                    }
                } else {
                    ServiceError::Draining
                };
                fail_ids(shared, &[p.id], &err);
            }
            return;
        }
        Err(e) => return fail_live(shared, &live, e),
    };

    // Service-time EWMA (wall clock per job) for the Retry-After hint.
    let per_job_ns = (wall_start.elapsed().as_nanos() as u64) / live.len().max(1) as u64;
    let old = shared.service_ns_ewma.load(Ordering::Relaxed);
    let next = if old == 0 {
        per_job_ns
    } else {
        (old * 4 + per_job_ns) / 5
    };
    shared.service_ns_ewma.store(next, Ordering::Relaxed);

    let mem_peak = q.device().mem_peak().saturating_sub(used_before);
    let kernel_launches = q.profiler().kernel_count_since(&epoch) as u64;
    let recovery_events = q.profiler().recovery_count_since(&epoch) as u64;
    shared
        .counters
        .device_ns
        .fetch_add((outcome.sim_ms * 1e6) as u64, Ordering::Relaxed);
    if coalesced {
        shared
            .counters
            .coalesced_batches
            .fetch_add(1, Ordering::Relaxed);
        shared
            .counters
            .coalesced_jobs
            .fetch_add(live.len() as u64, Ordering::Relaxed);
    }

    // Store lanes in the cache, then complete the records.
    let mut jobs = shared.jobs.write();
    for (p, values) in live.iter().zip(outcome.per_job) {
        let Some(job) = jobs.get_mut(&p.id) else {
            continue;
        };
        let values = Arc::new(values);
        let rec = &mut job.record;
        if !rec.request.no_cache.unwrap_or(false) {
            shared.cache.put(
                CacheKey {
                    graph: p.graph.clone(),
                    version: p.version,
                    algo: p.algo,
                    source: if p.algo.needs_source() {
                        Some(p.source)
                    } else {
                        None
                    },
                    delta_bits: match p.algo {
                        Algo::DeltaSssp => Some(rec.request.delta.unwrap_or(2.0).to_bits()),
                        _ => None,
                    },
                },
                CachedResult {
                    values: values.clone(),
                    iterations: outcome.iterations,
                    sim_ms: outcome.sim_ms,
                },
            );
        }
        rec.state = JobState::Done;
        rec.metrics = JobMetrics {
            iterations: outcome.iterations,
            sim_ms: outcome.sim_ms,
            kernel_launches,
            mem_peak_bytes: mem_peak,
            modeled_peak_bytes: rec.metrics.modeled_peak_bytes,
            cache_hit: false,
            coalesced,
            batch_size: live.len() as u32,
            recovery_events,
        };
        job.values = Some(values);
        shared.counters.jobs_done.fetch_add(1, Ordering::Relaxed);
    }
    drop(jobs);
    shared.done_cv.notify_all();
}

struct BatchOutcome {
    per_job: Vec<JobValues>,
    iterations: u32,
    sim_ms: f64,
}

fn fail_live(shared: &Shared, live: &[&PendingJob], err: ServiceError) {
    let ids: Vec<u64> = live.iter().map(|p| p.id).collect();
    fail_ids(shared, &ids, &err);
}

/// Runs one non-coalesced job. BFS runs on the push (CSR) view even
/// when a pull mirror is resident, keeping serial output exactly the
/// baseline that `bfs_multi` lanes are bit-identical to — coalescing
/// must be unobservable in the values.
fn run_single(
    shared: &Shared,
    q: &Queue,
    graph: &Graph,
    p: &PendingJob,
    opts: &OptConfig,
) -> ServiceResult<(JobValues, u32, f64)> {
    fn unpack<T>(
        r: AlgoResult<T>,
        wrap: impl FnOnce(Vec<T>) -> JobValues,
    ) -> (JobValues, u32, f64) {
        (wrap(r.values), r.iterations, r.sim_ms)
    }
    let rec_delta = shared
        .jobs
        .read()
        .get(&p.id)
        .and_then(|j| j.record.request.delta)
        .unwrap_or(2.0);
    Ok(match p.algo {
        Algo::Bfs => unpack(bfs::run(q, &graph.csr, p.source, opts)?, JobValues::U32),
        Algo::Sssp => unpack(sssp::run(q, &graph.csr, p.source, opts)?, JobValues::F32),
        Algo::DeltaSssp => unpack(
            delta::run(q, &graph.csr, p.source, opts, rec_delta)?,
            JobValues::F32,
        ),
        Algo::Cc => unpack(cc::run(q, graph, opts)?, JobValues::U32),
        Algo::Bc => unpack(bc::run(q, &graph.csr, p.source, opts)?, JobValues::F32),
        Algo::Pagerank => unpack(
            pagerank::run(q, &graph.csr, opts, Default::default())?,
            JobValues::F32,
        ),
    })
}
