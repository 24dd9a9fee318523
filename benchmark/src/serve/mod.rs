//! The two service workloads: an in-process `Service` behind its
//! `HttpServer`, loaded over real TCP by at most two client threads.
//!
//! `serve-closed-mix` is the client-visible path with no coalescing: two
//! closed-loop clients each walk a seeded request list in which exactly a
//! quarter of the requests re-issue an earlier one (a cache hit).
//! `serve-open-bfs` is an open loop: seeded Poisson single-source BFS at
//! three fixed rates, all above the serial capacity of the two workers, so
//! the coalescer has to engage, and the highest above what its part-full
//! batches sustain, then fan-out bursts released all at once, which the
//! end-to-end latency is taken from; the cache and value serialization are
//! bypassed.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sygraph_core::graph::CsrHost;
use sygraph_gen::{datasets, Scale};
use sygraph_service::{
    HttpServer, JobRequest, JobState, JobValues, RegisterOptions, Service, ServiceConfig,
    StatsSnapshot,
};
use sygraph_sim::DeviceProfile;

use crate::http::{request, Reply};
use crate::report::{RunArgs, RunReport};
use crate::spec::Workload;
use crate::trace::Tracer;
use crate::util::{median, ms, sample_useful_sources, Rng};
use crate::verify::{Oracle, Output};

mod cli;
mod closed;
mod open;

/// Closed-loop client threads; also the most connections ever open.
const CLIENTS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Algo {
    Bfs,
    Sssp,
    Cc,
    Bc,
    Pagerank,
}

impl Algo {
    fn wire(self) -> &'static str {
        match self {
            Algo::Bfs => "bfs",
            Algo::Sssp => "sssp",
            Algo::Cc => "cc",
            Algo::Bc => "bc",
            Algo::Pagerank => "pagerank",
        }
    }

    fn rooted(self) -> bool {
        !matches!(self, Algo::Cc | Algo::Pagerank)
    }
}

#[derive(Debug, Clone, PartialEq)]
struct Req {
    graph: &'static str,
    algo: Algo,
    source: Option<u32>,
    /// Re-issues an earlier request of the same client: a cache hit.
    repeat: bool,
}

impl Req {
    /// Fresh unrooted requests opt out of the cache (there is no "unused
    /// source" to make them fresh otherwise); `force` opts any request out,
    /// for warm-ups and replays that must reach the engine.
    fn no_cache(&self, force: bool) -> bool {
        force || !self.algo.rooted()
    }

    fn body(&self, force_no_cache: bool) -> String {
        let source = self
            .source
            .map_or(String::new(), |s| format!(",\"source\":{s}"));
        let no_cache = if self.no_cache(force_no_cache) {
            ",\"no_cache\":true"
        } else {
            ""
        };
        // Two clients' BFS requests on one graph would now and then be
        // queued together and fold into a two-lane batch; this workload
        // bypasses the coalescer, so it says so.
        format!(
            "{{\"graph\":\"{}\",\"algo\":\"{}\"{source}{no_cache},\"no_coalesce\":true}}",
            self.graph,
            self.algo.wire()
        )
    }

    fn job(&self, force_no_cache: bool) -> JobRequest {
        let mut job = match self.source {
            Some(s) => JobRequest::rooted(self.graph, self.algo.wire(), s),
            None => JobRequest::unrooted(self.graph, self.algo.wire()),
        };
        if self.no_cache(force_no_cache) {
            job.no_cache = Some(true);
        }
        job.no_coalesce = Some(true);
        job
    }
}

/// The service under test with its HTTP front end, and what the benchmark
/// needs to verify its answers.
struct Server {
    service: Arc<Service>,
    http: HttpServer,
    addr: SocketAddr,
    /// The host graph each resident name was registered with.
    hosts: HashMap<&'static str, Arc<CsrHost>>,
    /// Seeded pools of distinct useful sources per rooted graph.
    pools: HashMap<&'static str, Vec<u32>>,
}

impl Server {
    fn stop(mut self) {
        self.http.shutdown();
        self.service.shutdown();
    }
}

/// Submits `jobs` while the scheduler is paused and releases them together,
/// so that the two workers each take one; returns the wall time to finish.
fn run_together(service: &Service, jobs: Vec<JobRequest>) -> Duration {
    service.pause();
    let ids: Vec<u64> = jobs
        .into_iter()
        .map(|j| service.submit(j).expect("warm-up submit"))
        .collect();
    let t = Instant::now();
    service.resume();
    for id in ids {
        let rec = service.wait(id).expect("warm-up record");
        assert_eq!(rec.state, JobState::Done, "warm-up job: {:?}", rec.error);
    }
    t.elapsed()
}

/// JSON edge-list body for `POST /graphs`.
fn edge_list_body(name: &str, host: &CsrHost) -> String {
    let mut edges = String::with_capacity(host.edge_count() * 14);
    let mut weights = String::new();
    for u in 0..host.vertex_count() as u32 {
        for (k, v) in host.neighbors(u).iter().enumerate() {
            if !edges.is_empty() {
                edges.push(',');
            }
            edges.push_str(&format!("[{u},{v}]"));
            if let Some(ws) = host.neighbor_weights(u) {
                if !weights.is_empty() {
                    weights.push(',');
                }
                weights.push_str(&format!("{}", ws[k]));
            }
        }
    }
    let weights = if weights.is_empty() {
        String::new()
    } else {
        format!(",\"weights\":[{weights}]")
    };
    format!(
        "{{\"name\":\"{name}\",\"vertices\":{},\"edges\":[{edges}]{weights}}}",
        host.vertex_count()
    )
}

/// Everything `setup_s` times: dataset generation, service start, graph
/// registration, HTTP bind, an edge-list upload over HTTP, and one warm-up
/// job per (graph, algorithm) on each worker.
fn setup(args: &RunArgs, tracer: &Tracer, report: &mut RunReport) -> Server {
    let closed = args.workload == Workload::ServeClosedMix;
    let scale = if args.smoke {
        Scale::Test
    } else {
        Scale::Bench
    };
    let root = tracer.begin("setup", 0, None, 0);

    let (kron, usa, ca) = tracer.scope("gen.generate", 0, root, || {
        (
            datasets::kron(scale),
            closed.then(|| datasets::road_usa(scale)),
            datasets::road_ca(scale),
        )
    });
    let service = tracer.scope("service.start", 0, root, || {
        Arc::new(
            Service::start(ServiceConfig {
                profile: DeviceProfile::v100s(),
                ..ServiceConfig::default()
            })
            .expect("start service"),
        )
    });

    let mut hosts = HashMap::new();
    let mut pools = HashMap::new();
    let mut register = |name: &'static str, host: &CsrHost, undirected: bool, stream: u64| {
        let options = RegisterOptions {
            undirected,
            pull: false,
        };
        let reg = tracer.scope("service.registry.register", 0, root, || {
            service
                .register_graph(name, host.clone(), options)
                .expect("register graph")
        });
        let useful = (0..reg.host.vertex_count() as u32)
            .filter(|&v| reg.host.degree(v) > 0)
            .count();
        pools.insert(
            name,
            sample_useful_sources(
                &reg.host,
                useful.min(8192),
                &mut Rng::new(args.seed, 20 + stream),
            ),
        );
        hosts.insert(name, reg.host.clone());
    };
    register("kron", &kron.host, false, 0);
    if let Some(usa) = &usa {
        register("usa", &usa.host, false, 1);
        register("kron_u", &kron.host, true, 2);
    }

    let http = tracer.scope("service.http.bind", 0, root, || {
        HttpServer::serve(service.clone(), "127.0.0.1:0").expect("bind HTTP server")
    });
    let addr = http.addr();

    let body = edge_list_body("ca", &ca.host);
    let upload = tracer.scope("io.edgelist_upload", 0, root, || {
        request(addr, "POST", "/graphs", &body)
    });
    report.attempted += 1;
    match upload {
        Ok(reply) if reply.status == 200 => {}
        Ok(reply) => report.fail(format!("edge-list upload answered {}", reply.status)),
        Err(e) => report.fail(format!("edge-list upload: {e}")),
    }

    // Warm-up: a pair of identical uncached jobs per (graph, algorithm),
    // released together so each worker uploads its mirror and fills its
    // modelled caches. The first pair is run twice; the difference is what
    // a first job pays for the lazy mirror upload.
    let warm_span = tracer.begin("warmup", 0, root, 0);
    let warm: Vec<(Algo, &'static str)> = if closed {
        closed::CYCLE_FRESH
            .iter()
            .map(|&(a, g, _)| (a, g))
            .collect()
    } else {
        vec![(Algo::Bfs, "kron")]
    };
    let mut first_pair: Option<(Duration, Duration)> = None;
    for (algo, graph) in warm {
        let pair = || -> Vec<JobRequest> {
            (0..CLIENTS)
                .map(|k| {
                    let pool = &pools[if algo.rooted() { graph } else { "kron" }];
                    let req = Req {
                        graph,
                        algo,
                        source: algo.rooted().then(|| pool[pool.len() - 1 - k]),
                        repeat: false,
                    };
                    req.job(true)
                })
                .collect()
        };
        let cold = run_together(&service, pair());
        if first_pair.is_none() {
            first_pair = Some((cold, run_together(&service, pair())));
        }
    }
    if !closed {
        // The coalesced path too: one batch wide enough to fold.
        let pool = &pools["kron"];
        for _ in 0..CLIENTS {
            let batch = (0..16)
                .map(|k| {
                    let mut job = JobRequest::rooted("kron", "bfs", pool[pool.len() - 1 - k]);
                    job.no_cache = Some(true);
                    job
                })
                .collect();
            run_together(&service, batch);
        }
    }
    tracer.end(warm_span);
    tracer.end(root);
    if let (true, Some((cold, warm))) = (args.trace, first_pair) {
        report.set("service.registry.first_job_extra_ms", ms(cold) - ms(warm));
    }
    Server {
        service,
        http,
        addr,
        hosts,
        pools,
    }
}

/// One request as the load generator saw it.
struct Sample {
    req: Req,
    /// 0 when the exchange itself failed.
    status: u16,
    latency_ms: f64,
    body_len: usize,
    job_id: Option<u64>,
    error_kind: Option<String>,
    /// Sent in a traced cycle.
    traced: bool,
}

/// Sends `req` as `POST /jobs?wait=1&values=<values>` and records spans
/// for the phases of the exchange.
fn post_job(
    addr: SocketAddr,
    req: &Req,
    force_no_cache: bool,
    values: bool,
    tracer: &Tracer,
    op_id: u32,
    tid: u32,
) -> Sample {
    let target = format!("/jobs?wait=1&values={}", values as u8);
    let root = tracer.begin("request", op_id, None, tid);
    let reply = request(addr, "POST", &target, &req.body(force_no_cache));
    if let Ok(r) = &reply {
        let child = |name: &str, from: Instant, to: Instant| {
            tracer.record(name, op_id, root, tid, from, to);
        };
        child("service.http.connect", r.start, r.connected);
        child("service.http.send", r.connected, r.sent);
        child("service.http.wait", r.sent, r.first_byte);
        child("service.http.read", r.first_byte, r.done);
    }
    tracer.end(root);
    sample_of(req, reply, tracer.on())
}

fn sample_of(req: &Req, reply: std::io::Result<Reply>, traced: bool) -> Sample {
    match reply {
        Ok(r) => Sample {
            req: req.clone(),
            status: r.status,
            latency_ms: r.latency_ms(),
            body_len: r.body.len(),
            job_id: r.job_id(),
            error_kind: r.error_kind(),
            traced,
        },
        Err(e) => Sample {
            req: req.clone(),
            status: 0,
            latency_ms: 0.0,
            body_len: 0,
            job_id: None,
            error_kind: Some(format!("transport: {e}")),
            traced,
        },
    }
}

/// What a finished job computed, in the form verification takes.
fn output_of(req: &Req, values: JobValues, iterations: u32) -> Result<Output, String> {
    let src = req.source.unwrap_or(0);
    match (req.algo, values) {
        (Algo::Bfs, JobValues::U32(dist)) => Ok(Output::Bfs { src, dist }),
        (Algo::Cc, JobValues::U32(labels)) => Ok(Output::Cc { labels }),
        (Algo::Sssp, JobValues::F32(dist)) => Ok(Output::Sssp { src, dist }),
        (Algo::Bc, JobValues::F32(delta)) => Ok(Output::Bc { src, delta }),
        (Algo::Pagerank, JobValues::F32(ranks)) => Ok(Output::Pagerank { iterations, ranks }),
        (algo, _) => Err(format!("{} returned the wrong value type", algo.wire())),
    }
}

/// Verifies finished jobs through the in-process job table, so the client
/// threads never parse value arrays.
struct Verifier<'s> {
    service: &'s Service,
    oracles: HashMap<&'static str, Oracle<'s>>,
    /// Largest device-memory peak any verified job reported.
    job_mem_peak: u64,
}

impl<'s> Verifier<'s> {
    fn new(server: &'s Server) -> Verifier<'s> {
        let oracles = server
            .hosts
            .iter()
            .map(|(&name, host)| {
                // `kron_u` was registered undirected, so its host graph is
                // the symmetrized one CC ran on.
                (name, Oracle::new(host, Some(host)))
            })
            .collect();
        Verifier {
            service: &server.service,
            oracles,
            job_mem_peak: 0,
        }
    }

    /// `Ok(cache_hit)` when job `id` finished with the right answer.
    fn check(&mut self, req: &Req, id: u64) -> Result<bool, String> {
        let rec = self
            .service
            .job(id)
            .ok_or_else(|| format!("job {id} is not in the job table"))?;
        if rec.state != JobState::Done {
            return Err(format!("job {id} ended {:?}: {:?}", rec.state, rec.error));
        }
        self.job_mem_peak = self.job_mem_peak.max(rec.metrics.mem_peak_bytes);
        let values = rec
            .values
            .ok_or_else(|| format!("job {id} has no values"))?;
        let out = output_of(req, values, rec.metrics.iterations)?;
        self.oracles
            .get_mut(req.graph)
            .expect("oracle per resident graph")
            .check(&out)?;
        Ok(rec.metrics.cache_hit)
    }

    /// Verifies one HTTP sample; returns whether it was correct.
    fn check_sample(&mut self, s: &Sample, report: &mut RunReport) -> bool {
        report.attempted += 1;
        let verdict = match (s.status, s.job_id) {
            (200, Some(id)) => self.check(&s.req, id).map(|hit| {
                if hit != s.req.repeat {
                    report.notes.push(format!(
                        "INVALID: {} on {} (repeat: {}) had cache_hit {hit}",
                        s.req.algo.wire(),
                        s.req.graph,
                        s.req.repeat
                    ));
                }
            }),
            (status, _) => Err(format!(
                "HTTP {status} ({})",
                s.error_kind.as_deref().unwrap_or("untyped")
            )),
        };
        match verdict {
            Ok(()) => true,
            Err(why) => {
                report.fail(format!("{} on {}: {why}", s.req.algo.wire(), s.req.graph));
                false
            }
        }
    }
}

/// Response-status counts; "other" errors must still carry an `error_kind`.
fn status_counts<'a>(
    samples: impl Iterator<Item = (u16, Option<&'a str>)>,
    report: &mut RunReport,
) {
    let (mut shed, mut timeout, mut other) = (0, 0, 0);
    for (status, kind) in samples {
        match status {
            200 | 202 => {}
            429 => shed += 1,
            408 => timeout += 1,
            _ => {
                other += 1;
                if kind.is_none() {
                    report
                        .notes
                        .push(format!("INVALID: HTTP {status} carried no error_kind"));
                }
            }
        }
    }
    report.set("service.scheduler.shed_429", shed as f64);
    report.set("service.scheduler.timeout_408", timeout as f64);
    report.set("service.scheduler.other_errors", other as f64);
}

/// Scheduler and cache counters over a phase of `ops` requests.
fn stats_metrics(
    before: &StatsSnapshot,
    after: &StatsSnapshot,
    ops: usize,
    report: &mut RunReport,
) {
    let ops = ops.max(1) as f64;
    let batches = after.coalesced_batches - before.coalesced_batches;
    let lanes = after.coalesced_jobs - before.coalesced_jobs;
    report.set("service.scheduler.batches", batches as f64);
    report.set(
        "service.scheduler.lanes_per_batch",
        lanes as f64 / batches.max(1) as f64,
    );
    report.set("service.scheduler.coalesced_share", lanes as f64 / ops);
    report.set(
        "service.scheduler.device_ms_per_req",
        (after.device_ms - before.device_ms) / ops,
    );
    report.set(
        "service.cache.hit_ratio",
        (after.cache_hits - before.cache_hits) as f64 / ops,
    );
    report.set(
        "service.cache.evictions",
        (after.cache_evictions - before.cache_evictions) as f64,
    );
}

/// Modelled device-memory peak of the service: the largest job peak any
/// worker reported on top of the graphs resident on it.
fn dev_mem_peak_mb(server: &Server, job_mem_peak: u64) -> f64 {
    (server.service.registry().resident_bytes() + job_mem_peak) as f64 / 1e6
}

fn set_setup_layers(tracer: &Tracer, report: &mut RunReport) {
    let sum = |name: &str| tracer.durations_ms(name).iter().sum::<f64>();
    report.set("gen.generate_ms", sum("gen.generate"));
    report.set("io.edgelist_upload_ms", sum("io.edgelist_upload"));
    report.set(
        "service.registry.register_ms",
        sum("service.registry.register"),
    );
}

pub fn run(args: RunArgs) -> RunReport {
    let mut report = RunReport::new(args);
    let tracer = Tracer::new(args.trace);
    let mut setup_s = Vec::new();
    let mut server: Option<Server> = None;
    while args.more_setups(&setup_s) {
        if let Some(old) = server.take() {
            old.stop();
        }
        let t = Instant::now();
        server = Some(setup(&args, &tracer, &mut report));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    report.count("set-ups", setup_s.len());
    let server = server.expect("at least one set-up");
    if args.trace {
        set_setup_layers(&tracer, &mut report);
    } else {
        report.set("setup_s", median(&setup_s));
    }
    match args.workload {
        Workload::ServeClosedMix => closed::run_closed(&server, &args, &tracer, &mut report),
        _ => open::run_open(&server, &args, &tracer, &mut report),
    }
    if args.trace {
        cli::cli_probes(&server, &args, &mut report);
        report.write_trace(&tracer);
    }
    server.stop();
    report
}
