//! The two service experiments, end to end through `sygraph-service`:
//! `service_throughput` (request coalescing and result caching, on the
//! modelled clock) and `service_resilience` (a load × fault-rate chaos
//! grid against a live HTTP server, on the host clock).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use serde_json::json;
use sygraph_core::engine::RecoveryPolicy;
use sygraph_gen::{datasets, Dataset};
use sygraph_service::{
    HttpServer, JobRecord, JobRequest, JobState, JobValues, RegisterOptions, Service, ServiceConfig,
};
use sygraph_sim::FaultPlan;

use crate::report::{Clock, Report, Table, Verdict};
use crate::{geomean, sample_useful_sources, scaled_profile, Context};

/// Starts a service under `cfg` with `ds` registered under its key.
fn start(ds: &Dataset, cfg: ServiceConfig) -> Result<Service, String> {
    let service = Service::start(cfg).map_err(|e| format!("start service: {e}"))?;
    let registered = service.register_graph(ds.key, ds.host.clone(), RegisterOptions::default());
    registered.map_err(|e| format!("register {}: {e}", ds.key))?;
    Ok(service)
}

fn submit_bfs(
    service: &Service,
    ds: &Dataset,
    source: u32,
    no_cache: bool,
    no_coalesce: bool,
) -> Result<u64, String> {
    let mut req = JobRequest::rooted(ds.key, "bfs", source);
    req.no_cache = Some(no_cache);
    req.no_coalesce = Some(no_coalesce);
    service.submit(req).map_err(|e| format!("submit: {e}"))
}

/// Waits for `id` and returns its record if the job is done.
fn finished(service: &Service, id: u64) -> Result<JobRecord, String> {
    let rec = service.wait(id).ok_or(format!("job {id} has no record"))?;
    match rec.state {
        JobState::Done => Ok(rec),
        _ => Err(format!("job {id} failed: {:?}", rec.error)),
    }
}

const N_JOBS: usize = 32;
const BATCH_WIDTH: u32 = 32;
const SWEEP_JOBS: usize = 40;
const WARM_POOL: usize = 8;

fn throughput_cfg(ctx: &Context, ds: &Dataset, start_paused: bool) -> ServiceConfig {
    ServiceConfig {
        profile: scaled_profile(&ctx.profile, ds),
        workers: 1, // one device queue: serial vs coalesced is apples to apples
        batch_window_ms: 0,
        batch_width: BATCH_WIDTH,
        job_mem_budget: None,
        cache_entries: 4096,
        start_paused,
        ..ServiceConfig::default()
    }
}

/// Runs `sources` as uncached BFS jobs through the paused service;
/// returns the modelled device ms, the per-source values and the number
/// of coalesced batches formed.
fn burst(
    service: &Service,
    ds: &Dataset,
    sources: &[u32],
    no_coalesce: bool,
) -> Result<(f64, Vec<Option<JobValues>>, u64), String> {
    let before = service.stats();
    let mut ids = Vec::new();
    for &s in sources {
        ids.push(submit_bfs(service, ds, s, true, no_coalesce)?);
    }
    service.resume();
    service.wait_idle();
    service.pause();
    let after = service.stats();
    let mut values = Vec::new();
    for id in ids {
        values.push(finished(service, id)?.values);
    }
    let batches = after.coalesced_batches - before.coalesced_batches;
    Ok((after.device_ms - before.device_ms, values, batches))
}

/// Service throughput: 32 single-source BFS requests go through the
/// service twice — coalescing opted out (serial rooted passes), then
/// folded into W-lane multi-source batches — and the modelled device
/// time of each mode yields queries/sec; the two modes' values must be
/// bit-identical (coalescing must be unobservable in the results). A
/// cache sweep then replays a query mix at target hit ratios
/// {0, 0.5, 0.9} on a live (unpaused) service. Its device time follows
/// which requests happen to share a batch, which follows thread timing,
/// so those two columns are host-clock.
pub fn throughput(ctx: &Context) -> Result<Report, String> {
    let mut table = Table::new("datasets")
        .label("dataset")
        .count("vertices")
        .count("edges")
        .modelled("serial_device_ms", 6)
        .modelled("serial_qps", 1)
        .modelled("coalesced_device_ms", 6)
        .modelled("coalesced_qps", 1)
        .count("batches")
        .modelled("speedup", 4);
    let mut sweep = Table::new("cache_sweep")
        .label("dataset")
        .label("target_ratio")
        .modelled("achieved_ratio", 4)
        .host("device_ms", 6)
        .host("effective_qps", 1);
    let mut speedups = Vec::new();
    for dataset in [datasets::road_usa, datasets::indochina, datasets::kron] {
        let ds = dataset(ctx.scale);
        let sources = sample_useful_sources(&ds.host, N_JOBS, 0x5e47);
        let service = start(&ds, throughput_cfg(ctx, &ds, true))?;
        let (serial_ms, serial_values, _) = burst(&service, &ds, &sources, true)?;
        let (coal_ms, coal_values, batches) = burst(&service, &ds, &sources, false)?;
        if batches == 0 {
            return Err(format!("the coalescer never formed a batch on {}", ds.key));
        }
        let same = |(a, b): (&Option<JobValues>, &Option<JobValues>)| match (a, b) {
            (Some(a), Some(b)) => a.bits_eq(b),
            _ => false,
        };
        if !serial_values.iter().zip(&coal_values).all(same) {
            return Err(format!("coalesced values differ from serial on {}", ds.key));
        }
        let speedup = serial_ms / coal_ms.max(1e-12);
        speedups.push(speedup);
        table.row(vec![
            json!(ds.key),
            json!(ds.host.vertex_count()),
            json!(ds.host.edge_count()),
            json!(serial_ms),
            json!(N_JOBS as f64 / (serial_ms / 1e3)),
            json!(coal_ms),
            json!(N_JOBS as f64 / (coal_ms / 1e3)),
            json!(batches),
            json!(speedup),
        ]);

        // Fresh service per ratio so counters and cache contents start
        // clean. Warm a small pool, then measure a mix drawing repeats
        // from it at the target ratio.
        let warm = &sources[..WARM_POOL];
        let fresh = sample_useful_sources(&ds.host, SWEEP_JOBS, 0xcafe);
        for ratio in [0.0f64, 0.5, 0.9] {
            let service = start(&ds, throughput_cfg(ctx, &ds, false))?;
            for &s in warm {
                finished(&service, submit_bfs(&service, &ds, s, false, false)?)?;
            }
            let warm_stats = service.stats();
            let mut ids = Vec::new();
            for (i, &cold) in fresh.iter().enumerate() {
                let use_warm = (i % 10) < (ratio * 10.0) as usize;
                let s = if use_warm { warm[i % WARM_POOL] } else { cold };
                ids.push(submit_bfs(&service, &ds, s, false, false)?);
            }
            for id in ids {
                finished(&service, id)?;
            }
            let stats = service.stats();
            let hits = stats.cache_hits - warm_stats.cache_hits;
            let sweep_ms = stats.device_ms - warm_stats.device_ms;
            sweep.row(vec![
                json!(ds.key),
                json!(ratio.to_string()),
                json!(hits as f64 / SWEEP_JOBS as f64),
                json!(sweep_ms),
                json!(SWEEP_JOBS as f64 / (sweep_ms.max(1e-9) / 1e3)),
            ]);
        }

        // Cached vs recomputed bit-identity through the public API.
        let service = start(&ds, throughput_cfg(ctx, &ds, false))?;
        let warm_id = submit_bfs(&service, &ds, sources[0], false, false)?;
        let cached_id = submit_bfs(&service, &ds, sources[0], false, false)?;
        let recompute_id = submit_bfs(&service, &ds, sources[0], true, false)?;
        finished(&service, warm_id)?;
        let cached = finished(&service, cached_id)?.values;
        let recomputed = finished(&service, recompute_id)?.values;
        if !same((&cached, &recomputed)) {
            return Err(format!(
                "cached result differs from recompute on {}",
                ds.key
            ));
        }
    }
    let mut summary = Table::new("summary").modelled("speedup_geomean", 4);
    summary.row(vec![json!(geomean(&speedups))]);
    let mut report = ctx.report("service_throughput", vec![table, sweep, summary]);
    report.param("batch_width", BATCH_WIDTH);
    report.param("workers", 1);
    report.param("jobs", N_JOBS);
    let worst = speedups.iter().copied().fold(f64::INFINITY, f64::min);
    let name = "coalesced throughput >= 2x serial on every dataset";
    let holds = worst >= 2.0;
    report.verdicts = vec![Verdict::new(name, Clock::Modelled, worst, 2.0, holds)];
    Ok(report)
}

/// Requests per grid cell.
const N_REQ: usize = 48;
/// Distinct BFS sources the request stream cycles through.
const N_DISTINCT: usize = 12;
/// Jobs in the overhead-check bursts.
const N_OVERHEAD: usize = 32;
const LOADS: [f64; 3] = [0.5, 1.0, 2.0];
const FAULT_RATES: [f64; 3] = [0.0, 0.01, 0.05];
/// 16 deep: enough headroom that ≤1× load rarely sheds, shallow enough
/// that 2× overload actually exercises the 429 path (a 32-deep queue
/// never overflows — width-32 coalescing drains it wholesale).
const MAX_QUEUE: usize = 16;

fn resilience_cfg(ctx: &Context, ds: &Dataset) -> ServiceConfig {
    ServiceConfig {
        profile: scaled_profile(&ctx.profile, ds),
        workers: 2,
        batch_window_ms: 0,
        batch_width: 32,
        cache_entries: 0, // every request does device work
        ..ServiceConfig::default()
    }
}

/// Clean-run reference: per-source BFS values from an unfaulted service.
fn reference_values(
    ctx: &Context,
    ds: &Dataset,
    sources: &[u32],
) -> Result<Vec<JobValues>, String> {
    let service = start(ds, resilience_cfg(ctx, ds))?;
    let mut values = Vec::new();
    for &s in sources {
        let rec = finished(&service, submit_bfs(&service, ds, s, true, true)?)?;
        values.push(rec.values.ok_or("reference job carries no values")?);
    }
    Ok(values)
}

/// Mean wall-clock service time per job (seconds) on a clean service:
/// sets the Poisson rates and the per-job deadline for the grid.
fn mean_service_secs(ctx: &Context, ds: &Dataset, sources: &[u32]) -> Result<f64, String> {
    let service = start(ds, resilience_cfg(ctx, ds))?;
    let begin = Instant::now();
    let mut ids = Vec::new();
    for i in 0..N_REQ {
        let mut req = JobRequest::rooted(ds.key, "bfs", sources[i % sources.len()]);
        req.no_cache = Some(true);
        ids.push(service.submit(req).map_err(|e| format!("submit: {e}"))?);
    }
    for id in ids {
        service.wait(id);
    }
    // Two workers drained the backlog: per-job service time is
    // wall / jobs × workers.
    Ok(begin.elapsed().as_secs_f64() / N_REQ as f64 * 2.0)
}

struct Response {
    status: u16,
    latency: Duration,
    /// Job id parsed from the response body (present on 200/202).
    job_id: Option<u64>,
    source_idx: usize,
}

/// One blocking `POST /jobs?wait=1`; status 0 when the exchange failed.
fn post_job(addr: SocketAddr, body: &str, source_idx: usize) -> Response {
    let begin = Instant::now();
    let mut text = String::new();
    let exchanged = TcpStream::connect(addr).and_then(|mut stream| {
        write!(
            stream,
            "POST /jobs?wait=1 HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )?;
        stream.read_to_string(&mut text)
    });
    let status = text.split_whitespace().nth(1).and_then(|s| s.parse().ok());
    let id = text.split_once("\"id\":").and_then(|(_, rest)| {
        let digits = rest.split(|c: char| !c.is_ascii_digit()).next()?;
        digits.parse().ok()
    });
    Response {
        status: exchanged.ok().and(status).unwrap_or(0),
        latency: begin.elapsed(),
        job_id: id,
        source_idx,
    }
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    let idx = ((p / 100.0 * sorted_ms.len() as f64).ceil() as usize).max(1) - 1;
    sorted_ms[idx.min(sorted_ms.len() - 1)]
}

/// What every cell of the chaos grid shares.
struct Chaos<'a> {
    ctx: &'a Context,
    ds: Dataset,
    sources: Vec<u32>,
    /// Clean-run values per source.
    reference: Vec<JobValues>,
    /// Clean-run mean service time per job.
    mean_secs: f64,
}

/// Runs one (load, fault-rate) cell against a live server and appends
/// its row to `grid`.
fn run_cell(
    chaos: &Chaos,
    load: f64,
    fault_rate: f64,
    seed: u64,
    grid: &mut Table,
) -> Result<(), String> {
    let (ds, sources, mean_secs) = (&chaos.ds, &chaos.sources, chaos.mean_secs);
    let mut cfg = resilience_cfg(chaos.ctx, ds);
    cfg.max_queue = MAX_QUEUE;
    cfg.recovery = RecoveryPolicy::resilient(3, 4);
    // Generous deadline: ~60 jobs' worth of amortized work. End-to-end
    // latency is dominated by coalesced-batch wall time (a worker claims
    // up to 32 queued jobs into one multi-source run), so a fresh
    // arrival can wait out a full batch before its own batch runs; 60×
    // the amortized per-job mean covers that comfortably at ≤1× load.
    // Under 2× overload the queue sheds (429) before the deadline bites,
    // so timeouts in the grid mean fault-induced slowdowns, not a
    // miscalibrated bar.
    cfg.default_timeout_ms = Some(((mean_secs * 60.0 * 1e3) as u64).max(1000));
    if fault_rate > 0.0 {
        let oom = fault_rate / 5.0;
        let spec = format!("transient-prob={fault_rate},oom-prob={oom},seed={seed}");
        cfg.fault_plan = Some(FaultPlan::parse(&spec).map_err(|e| format!("{spec}: {e}"))?);
    }
    let service = Arc::new(start(ds, cfg)?);
    let served = HttpServer::serve(service.clone(), "127.0.0.1:0");
    let mut server = served.map_err(|e| format!("bind: {e}"))?;
    let addr = server.addr();

    // Open-loop Poisson arrivals: exponential gaps at λ = load × rate,
    // where rate is the measured clean-service drain rate. Each request
    // blocks on its own thread — arrivals never wait for completions, so
    // overload actually overloads.
    let lambda = load * 2.0 / mean_secs.max(1e-9);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xc4a0_5eed);
    let mut handles = Vec::with_capacity(N_REQ);
    for i in 0..N_REQ {
        let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let gap = -(1.0 - u).max(1e-12).ln() / lambda;
        std::thread::sleep(Duration::from_secs_f64(gap));
        let source_idx = i % sources.len();
        let request = JobRequest {
            no_cache: Some(true),
            ..JobRequest::rooted(ds.key, "bfs", sources[source_idx])
        };
        let body = serde_json::to_string(&request).map_err(|e| e.to_string())?;
        handles.push(std::thread::spawn(move || {
            post_job(addr, &body, source_idx)
        }));
    }
    let mut responses = Vec::new();
    for h in handles {
        responses.push(h.join().map_err(|_| "a request thread panicked")?);
    }
    service.wait_idle();
    let rebuilds = service.stats().worker_rebuilds;

    let with_status = |s: u16| responses.iter().filter(move |r| r.status == s);
    let mut done_ms = Vec::new();
    let (mut recovered, mut violations) = (0usize, 0usize);
    for r in with_status(200) {
        done_ms.push(r.latency.as_secs_f64() * 1e3);
        // Bit-identity via the in-process handle (avoids parsing
        // megabyte value arrays out of JSON).
        let rec = r.job_id.and_then(|id| service.job(id));
        let rec = rec.filter(|rec| rec.state == JobState::Done);
        recovered += rec.iter().filter(|r| r.metrics.recovery_events > 0).count();
        let values = rec.and_then(|rec| rec.values);
        if !values.is_some_and(|v| v.bits_eq(&chaos.reference[r.source_idx])) {
            violations += 1;
        }
    }
    server.shutdown();
    done_ms.sort_by(f64::total_cmp);
    let cell = format!("load {load} fault {fault_rate}");
    // Every completed response must be bit-identical to the clean-run
    // reference, and a cell where nothing completes means the
    // shedding/deadline calibration collapsed.
    if violations > 0 {
        return Err(format!("{violations} completed results diverged at {cell}"));
    }
    if done_ms.is_empty() {
        return Err(format!("no completions at {cell}"));
    }
    let (timeouts, shed) = (with_status(408).count(), with_status(429).count());
    grid.row(vec![
        json!(load.to_string()),
        json!(fault_rate.to_string()),
        json!(N_REQ),
        json!(done_ms.len()),
        json!(timeouts),
        json!(shed),
        json!(N_REQ - done_ms.len() - timeouts - shed),
        json!(percentile(&done_ms, 50.0)),
        json!(percentile(&done_ms, 95.0)),
        json!(percentile(&done_ms, 99.0)),
        json!(rebuilds),
        json!(recovered),
        json!(violations),
    ]);
    Ok(())
}

/// Paused-burst throughput (wall-clock q/s) under `cfg`.
fn burst_qps(ds: &Dataset, cfg: ServiceConfig, sources: &[u32]) -> Result<f64, String> {
    let service = start(ds, cfg)?;
    let mut ids = Vec::new();
    for i in 0..N_OVERHEAD {
        let source = sources[i % sources.len()];
        ids.push(submit_bfs(&service, ds, source, true, true)?);
    }
    let begin = Instant::now();
    service.resume();
    for id in ids {
        finished(&service, id)?;
    }
    Ok(N_OVERHEAD as f64 / begin.elapsed().as_secs_f64())
}

/// Service resilience (DESIGN.md §16): per (load × fault-rate) cell a
/// fresh service + HTTP server (bounded queue, deadlines, fault-wired
/// workers with the resilient recovery policy) receives `N_REQ` BFS
/// requests whose arrival times come from a seeded Poisson process at
/// 0.5×/1×/2× the measured no-fault service rate, while the fault plan
/// fires transient and OOM faults at 0/1/5 % per launch. Every completed
/// job must be bit-identical to a clean-run reference. Arrival gaps,
/// deadlines and the overload they produce are wall-clock, so every
/// latency and outcome count is host-clock.
///
/// A final overhead check runs the paused burst twice — resilience
/// machinery off, then deadlines + an inert fault plan + recovery +
/// breaker on — and holds the wall-clock throughput ratio to 5 %.
pub fn resilience(ctx: &Context) -> Result<Report, String> {
    let ds = datasets::kron(ctx.scale);
    let sources = sample_useful_sources(&ds.host, N_DISTINCT, 0x9e11);
    let chaos = Chaos {
        ctx,
        reference: reference_values(ctx, &ds, &sources)?,
        mean_secs: mean_service_secs(ctx, &ds, &sources)?,
        ds,
        sources,
    };
    let (ds, sources) = (&chaos.ds, &chaos.sources);

    let mut grid = Table::new("grid")
        .label("load")
        .label("fault_rate")
        .count("requests")
        .host("completed", 0)
        .host("timeout_408", 0)
        .host("shed_429", 0)
        .host("other", 0)
        .host("p50_ms", 3)
        .host("p95_ms", 3)
        .host("p99_ms", 3)
        .host("worker_rebuilds", 0)
        .host("recovered_jobs", 0)
        .count("bit_violations");
    let mut seed = 0x51c6_u64;
    for load in LOADS {
        for fault_rate in FAULT_RATES {
            seed += 1;
            run_cell(&chaos, load, fault_rate, seed, &mut grid)?;
        }
    }

    let plain = ServiceConfig {
        start_paused: true,
        workers: 1,
        max_queue: 0,
        default_timeout_ms: None,
        recovery: RecoveryPolicy::default(),
        breaker_threshold: 0,
        ..resilience_cfg(ctx, ds)
    };
    // Attached but inert: the plan parses with probabilities at zero, so
    // the fault-delivery path runs on every launch without ever firing.
    let inert = FaultPlan::parse("transient-prob=0,seed=1").map_err(|e| e.to_string())?;
    let resilient = ServiceConfig {
        start_paused: true,
        workers: 1,
        max_queue: 1024,
        default_timeout_ms: Some(600_000),
        recovery: RecoveryPolicy::resilient(3, 4),
        breaker_threshold: 3,
        fault_plan: Some(inert),
        ..resilience_cfg(ctx, ds)
    };
    let plain_qps = burst_qps(ds, plain, sources)?;
    let resilient_qps = burst_qps(ds, resilient, sources)?;
    let ratio = resilient_qps / plain_qps;
    let mut overhead = Table::new("overhead")
        .host("mean_service_ms", 3)
        .host("plain_qps", 1)
        .host("resilient_qps", 1)
        .host("ratio", 4);
    overhead.row(vec![
        json!(chaos.mean_secs * 1e3),
        json!(plain_qps),
        json!(resilient_qps),
        json!(ratio),
    ]);

    let mut report = ctx.report("service_resilience", vec![grid, overhead]);
    report.param("dataset", ds.key);
    report.param("requests_per_cell", N_REQ);
    report.param("workers", 2);
    report.param("max_queue", MAX_QUEUE);
    let name = "resilience machinery costs <= 5% of burst throughput";
    let holds = ratio >= 0.95;
    report.verdicts = vec![Verdict::new(name, Clock::Host, ratio, 0.95, holds)];
    Ok(report)
}
