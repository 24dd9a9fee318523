//! `serve-open-bfs`: the seeded Poisson schedule, the sender and collector
//! threads of one rate step, the fan-out bursts the end-to-end latency is
//! taken from, and the per-rate metrics.

use std::net::SocketAddr;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use sygraph_service::StatsSnapshot;

use super::{dev_mem_peak_mb, stats_metrics, status_counts, Algo, Req, Server, Verifier};
use crate::http::{request, Reply};
use crate::report::{RunArgs, RunReport};
use crate::trace::Tracer;
use crate::util::{cpu_seconds, median, ms, peak_rss_mb, percentile, Rng};

/// The open loop's fixed arrival rates, requests per second. Constants of
/// the benchmark: never calibrated from the run they load.
const OPEN_RATES: [f64; 3] = [120.0, 240.0, 480.0];
/// Share of `--seconds` each rate step sends for; the rest is drain time
/// and the bursts. The top rate is above capacity, so it runs half as long:
/// its backlog must stay under the service's 1024-deep queue, or requests
/// are shed.
const OPEN_STEP_SHARE: [f64; 3] = [0.2, 0.2, 0.1];
/// The step `slo_ok_share` is taken at: the lowest rate, already above the
/// ~60 req/s the two workers serve one BFS at a time.
const SLO_STEP: usize = 0;
/// Distinct BFS sources the open loop cycles through.
const OPEN_SOURCES: usize = 256;
/// Requests of one fan-out burst: fifteen full 32-lane batches. The
/// requests of a batch complete together, so a burst's latencies are a
/// staircase; with fifteen steps the median falls in the middle of the
/// eighth and the p90 in the middle of the fourteenth, both the second
/// batch of a pair the two workers finish together. A shorter burst has
/// coarser steps: of seven batches the median is the fourth, and when that
/// one completes swings by a fifth from burst to burst with how the two
/// workers' batches happen to overlap.
const BURST: usize = 480;
/// Bursts per second of `--seconds` (a burst drains in about two seconds).
const BURSTS_PER_SECOND: f64 = 0.3;

/// One request of the open loop, as sent and as collected.
struct OpenSample {
    source: u32,
    /// Seconds after the step's start at which the request was due.
    due_s: f64,
    /// How late the sender started it.
    late_ms: f64,
    post_status: u16,
    job_id: Option<u64>,
    get_status: u16,
    error_kind: Option<String>,
    /// Due time to in-order completion.
    latency_ms: f64,
    /// Seconds after the step's start at which it completed.
    done_s: f64,
}

struct OpenStep {
    rate: f64,
    traced: bool,
    samples: Vec<OpenSample>,
    /// Seconds after the step's start of the last send.
    last_send_s: f64,
    before: StatsSnapshot,
    after: StatsSnapshot,
}

impl OpenStep {
    fn latencies(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.latency_ms).collect()
    }

    fn last_done_s(&self) -> f64 {
        self.samples.iter().map(|s| s.done_s).fold(0.0, f64::max)
    }

    /// Completions per second from the first due time to the last completion.
    fn done_per_s(&self) -> f64 {
        let first_due = self.samples.first().map_or(0.0, |s| s.due_s);
        self.samples.len() as f64 / (self.last_done_s() - first_due).max(1e-9)
    }

    fn label(&self) -> String {
        match (self.rate.is_finite(), self.traced) {
            (false, _) => "in a burst".into(),
            (true, false) => format!("at {} req/s", self.rate),
            (true, true) => format!("at {} req/s (traced)", self.rate),
        }
    }

    /// How long the queue took to empty after the last send.
    fn backlog_s(&self) -> f64 {
        (self.last_done_s() - self.last_send_s).max(0.0)
    }
}

/// One fan-out burst: `BURST` requests posted while the scheduler is
/// paused, all due the moment it is released, collected in submission
/// order. The arrival schedule is as independent of the completions as a
/// rate step's, so this is still an open loop, but the queue is full from
/// the first claim on: every batch is 32 lanes wide whatever the host's
/// timing. During a rate step the lanes per batch follow how fast the host
/// drains the queue, and the latency follows the lanes: a slower batch
/// gathers more lanes and is slower still. That loop amplifies the box's
/// wander: over ten seeds the 120 req/s step's median latency spread
/// 10-12 % (20-25 % on the driver's box, past any bound the contract
/// allows) where the direct workloads' spread 4 %, 13-25 % at 40-100 and
/// 150-240 req/s, and an 18 s step was no steadier than a 6 s one. A
/// burst's latency moves with the host's speed one to one. So `op_ms_p50`,
/// `op_ms_p90` and `modelled_ms_per_op` are taken here, and the rate steps'
/// latencies stay per-layer numbers (`service.open.r*.p95_ms`).
fn burst(server: &Server, round: usize) -> OpenStep {
    let pool = &server.pools["kron"];
    let service = &server.service;
    service.pause();
    let before = service.stats();
    let posted: Vec<(u32, std::io::Result<Reply>)> = (0..BURST)
        .map(|i| {
            let source = pool[(round * BURST + i) % OPEN_SOURCES.min(pool.len())];
            (
                source,
                request(server.addr, "POST", "/jobs", &bfs_body(source)),
            )
        })
        .collect();
    let t0 = Instant::now();
    service.resume();
    let samples = posted
        .into_iter()
        .map(|(source, reply)| {
            let (post_status, job_id, post_kind) = post_outcome(&reply);
            let (get_status, get_kind) = collect(server.addr, job_id);
            let done_s = t0.elapsed().as_secs_f64();
            OpenSample {
                source,
                due_s: 0.0,
                late_ms: 0.0,
                post_status,
                job_id,
                get_status,
                error_kind: post_kind.or(get_kind),
                latency_ms: done_s * 1e3,
                done_s,
            }
        })
        .collect();
    service.wait_idle();
    OpenStep {
        rate: f64::INFINITY,
        traced: false,
        samples,
        last_send_s: 0.0,
        before,
        after: service.stats(),
    }
}

fn bfs_body(source: u32) -> String {
    format!("{{\"graph\":\"kron\",\"algo\":\"bfs\",\"source\":{source},\"no_cache\":true}}")
}

/// Status, job id (only of an accepted job) and error kind of a `POST /jobs`.
fn post_outcome(reply: &std::io::Result<Reply>) -> (u16, Option<u64>, Option<String>) {
    match reply {
        Ok(r) => (
            r.status,
            r.job_id().filter(|_| matches!(r.status, 200 | 202)),
            r.error_kind(),
        ),
        Err(e) => (0, None, Some(format!("transport: {e}"))),
    }
}

/// Waits for job `id` over HTTP. A refused request completes, failed, the
/// moment it is refused.
fn collect(addr: SocketAddr, id: Option<u64>) -> (u16, Option<String>) {
    let Some(id) = id else { return (0, None) };
    match request(addr, "GET", &format!("/jobs/{id}?wait=1&values=0"), "") {
        Ok(r) => (r.status, r.error_kind()),
        Err(e) => (0, Some(format!("transport: {e}"))),
    }
}

/// Arrival offsets (seconds) of a Poisson process at `rate` over `len_s`.
fn poisson_schedule(seed: u64, step: usize, rate: f64, len_s: f64) -> Vec<f64> {
    let mut rng = Rng::new(seed, 3000 + step as u64);
    let mut due = Vec::new();
    let mut t = rng.exp_gap(rate);
    while t < len_s {
        due.push(t);
        t += rng.exp_gap(rate);
    }
    due
}

/// One rate step: a sender thread posts on schedule without waiting for
/// answers, a collector thread fetches the records in submission order,
/// and the step ends when the queue has drained.
fn open_step(
    server: &Server,
    seed: u64,
    step: usize,
    rate: f64,
    len_s: f64,
    tracer: &Tracer,
) -> OpenStep {
    let schedule = poisson_schedule(seed, step, rate, len_s);
    let pool = &server.pools["kron"];
    let before = server.service.stats();
    let addr = server.addr;
    let t0 = Instant::now();
    let (tx, rx) = mpsc::channel::<(usize, Option<u64>)>();

    let (sent, collected) = std::thread::scope(|scope| {
        let sender = scope.spawn(move || {
            let mut out = Vec::with_capacity(schedule.len());
            for (i, &due_s) in schedule.iter().enumerate() {
                let due = t0 + Duration::from_secs_f64(due_s);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let start = Instant::now();
                let source = pool[(step * 7919 + i) % OPEN_SOURCES.min(pool.len())];
                let reply = request(addr, "POST", "/jobs", &bfs_body(source));
                tracer.record("loadgen.send", i as u32, None, 0, start, Instant::now());
                let (status, id, kind) = post_outcome(&reply);
                let _ = tx.send((i, id));
                out.push((source, due_s, ms(start - due), status, id, kind));
            }
            out
        });
        let collector = scope.spawn(move || {
            let mut out = Vec::new();
            for (i, id) in rx {
                let start = Instant::now();
                let (status, kind) = collect(addr, id);
                let done = Instant::now();
                tracer.record("loadgen.collect", i as u32, None, 1, start, done);
                out.push((status, kind, (done - t0).as_secs_f64()));
            }
            out
        });
        (
            sender.join().expect("sender thread"),
            collector.join().expect("collector thread"),
        )
    });
    server.service.wait_idle();
    let after = server.service.stats();
    let last_send_s = sent.last().map_or(0.0, |s| s.1 + s.2 / 1e3);
    let samples = sent
        .into_iter()
        .zip(collected)
        .map(
            |(
                (source, due_s, late_ms, post_status, job_id, post_kind),
                (get_status, get_kind, done_s),
            )| {
                OpenSample {
                    source,
                    due_s,
                    late_ms,
                    post_status,
                    job_id,
                    get_status,
                    error_kind: post_kind.or(get_kind),
                    latency_ms: (done_s - due_s) * 1e3,
                    done_s,
                }
            },
        )
        .collect();
    OpenStep {
        rate,
        traced: tracer.on(),
        samples,
        last_send_s,
        before,
        after,
    }
}

pub(super) fn run_open(server: &Server, args: &RunArgs, tracer: &Tracer, report: &mut RunReport) {
    // A traced run has no bursts; its steps take their time instead.
    let stretch = if args.trace { 1.5 } else { 1.0 };
    let len_s = |i: usize| args.seconds * OPEN_STEP_SHARE[i] * stretch;
    let quiet = Tracer::new(false);
    // Untraced: the three rates. Traced: the top rate runs four times
    // (untraced, traced, traced, untraced, so that drift over the run
    // cancels); the completions per second of the two pairs differ by the
    // tracing overhead.
    let mut plan: Vec<(usize, bool)> = (0..OPEN_RATES.len()).map(|i| (i, false)).collect();
    if args.trace {
        plan = vec![
            (0, true),
            (1, true),
            (2, false),
            (2, true),
            (2, true),
            (2, false),
        ];
    }
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    let steps: Vec<OpenStep> = plan
        .iter()
        .map(|&(i, traced)| {
            let t = if traced { tracer } else { &quiet };
            open_step(server, args.seed, i, OPEN_RATES[i], len_s(i), t)
        })
        .collect();
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds() - cpu0;
    // Untraced, the fan-out bursts follow: the end-to-end latency.
    let n_bursts = if args.trace {
        0
    } else {
        ((args.seconds * BURSTS_PER_SECOND).round() as usize).max(3)
    };
    let bursts: Vec<OpenStep> = (0..n_bursts).map(|k| burst(server, k)).collect();

    // Verify every request through the in-process job table.
    let mut verifier = Verifier::new(server);
    let mut ok: Vec<Vec<bool>> = Vec::new();
    for step in steps.iter().chain(&bursts) {
        let mut step_ok = Vec::with_capacity(step.samples.len());
        for s in &step.samples {
            report.attempted += 1;
            let req = Req {
                graph: "kron",
                algo: Algo::Bfs,
                source: Some(s.source),
                repeat: false,
            };
            let verdict = match (s.post_status, s.get_status, s.job_id) {
                (200 | 202, 200, Some(id)) => verifier.check(&req, id).map(|_| ()),
                (post, get, _) => Err(format!(
                    "POST answered {post}, GET answered {get} ({})",
                    s.error_kind.as_deref().unwrap_or("untyped")
                )),
            };
            step_ok.push(verdict.is_ok());
            if let Err(why) = verdict {
                report.fail(format!("bfs from {} {}: {why}", s.source, step.label()));
            }
        }
        ok.push(step_ok);
    }
    for step in &steps {
        report.count(&format!("requests {}", step.label()), step.samples.len());
    }
    let late: Vec<f64> = steps
        .iter()
        .flat_map(|s| s.samples.iter().map(|x| x.late_ms))
        .collect();
    let late_p95 = percentile(&late, 95.0).unwrap_or_else(|_| median(&late));
    if late_p95 > 20.0 {
        report.notes.push(format!(
            "INVALID: the sender ran {late_p95:.1} ms late at p95 (limit 20 ms)"
        ));
    }

    if !args.trace {
        report.count(&format!("bursts of {BURST} requests"), bursts.len());
        let slo = &steps[SLO_STEP];
        let limit = args.workload.slo_limit_ms();
        let within = slo
            .samples
            .iter()
            .zip(&ok[SLO_STEP])
            .filter(|(s, &ok)| ok && s.latency_ms <= limit)
            .count();
        let latencies: Vec<f64> = bursts.iter().flat_map(OpenStep::latencies).collect();
        let burst_requests = latencies.len().max(1) as f64;
        let burst_device_ms: f64 = bursts
            .iter()
            .map(|b| b.after.device_ms - b.before.device_ms)
            .sum();
        // Verified requests of the rate steps over the time the steps
        // took, drains included: the arrival rates are fixed, so this moves
        // only through how long the queue takes to empty, and less than
        // the host's speed does (a slower host folds more lanes into a
        // batch). The top step's own completions per second
        // (`service.open.r480.done_per_s`) swing with the box twice as
        // much and stay a per-layer number. CPU per request likewise.
        let step_ok = || ok[..steps.len()].iter().flatten();
        let good = step_ok().filter(|&&ok| ok).count();
        let total = step_ok().count();
        let step_s: f64 = steps.iter().map(OpenStep::last_done_s).sum();
        report.set("ops_per_s", good as f64 / step_s);
        report.set("op_ms_p50", median(&latencies));
        let p90 = report.tail_or_median(&latencies, 90.0);
        report.set("op_ms_p90", p90);
        report.set("modelled_ms_per_op", burst_device_ms / burst_requests);
        report.set("cpu_ms_per_op", cpu_s * 1e3 / total as f64);
        report.set("peak_rss_mb", peak_rss_mb());
        report.set(
            "dev_mem_peak_mb",
            dev_mem_peak_mb(server, verifier.job_mem_peak),
        );
        report.set(
            "slo_ok_share",
            within as f64 / slo.samples.len().max(1) as f64,
        );
        if late_p95 > 20.0 {
            report
                .notes
                .push("the end-to-end numbers of this run are not a result".into());
        }
        return;
    }

    report.set("loadgen.late_ms_p95", late_p95);
    report.set("sim.cpu_wall_ratio", cpu_s / wall_s);
    let untraced_rate = steps[2].done_per_s() + steps[5].done_per_s();
    let traced_rate = steps[3].done_per_s() + steps[4].done_per_s();
    report.set_trace_overhead(untraced_rate, traced_rate);
    status_counts(
        steps.iter().flat_map(|s| s.samples.iter()).flat_map(|s| {
            [
                (s.post_status, s.error_kind.as_deref()),
                (s.get_status, s.error_kind.as_deref()),
            ]
        }),
        report,
    );
    // Coalescing at the step the end-to-end latency is taken at.
    let slo = &steps[SLO_STEP];
    stats_metrics(&slo.before, &slo.after, slo.samples.len(), report);
    // Per rate: p95 latency, completions per second, and the backlog left
    // when sending stopped. The top rate's numbers are its traced steps'.
    let rate_row = |picked: &[&OpenStep]| -> (f64, f64, f64, f64) {
        let latencies: Vec<f64> = picked.iter().flat_map(|s| s.latencies()).collect();
        let n = picked.len() as f64;
        (
            picked[0].rate,
            percentile(&latencies, 95.0).unwrap_or(0.0),
            picked.iter().map(|s| s.done_per_s()).sum::<f64>() / n,
            picked.iter().map(|s| s.backlog_s()).fold(0.0, f64::max),
        )
    };
    let rows = [
        rate_row(&[&steps[0]]),
        rate_row(&[&steps[1]]),
        rate_row(&[&steps[3], &steps[4]]),
    ];
    report.set("service.open.r120.p95_ms", rows[0].1);
    report.set("service.open.r240.p95_ms", rows[1].1);
    report.set("service.open.r480.p95_ms", rows[2].1);
    report.set("service.open.r480.done_per_s", rows[2].2);
    report.set("service.open.r480.backlog_s", rows[2].3);
    let limit = args.workload.slo_limit_ms();
    let max_ok = rows
        .iter()
        .filter(|&&(_, p95, _, backlog)| p95 > 0.0 && p95 <= limit && backlog <= 1.0)
        .map(|&(rate, ..)| rate)
        .fold(0.0, f64::max);
    report.set("service.open.max_ok_rps", max_ok);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_repeats_per_seed_and_keeps_its_rate() {
        let a = poisson_schedule(5, 1, 120.0, 4.0);
        assert_eq!(a, poisson_schedule(5, 1, 120.0, 4.0));
        assert_ne!(a, poisson_schedule(6, 1, 120.0, 4.0));
        assert_ne!(a, poisson_schedule(5, 2, 120.0, 4.0));
        // Arrivals ascend, stay inside the step, and come at about the rate.
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(a.iter().all(|&t| t > 0.0 && t < 4.0));
        assert!((360..600).contains(&a.len()), "{} arrivals", a.len());
    }
}
