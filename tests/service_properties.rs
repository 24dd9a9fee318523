//! Service-layer properties: cache bit-identity, coalescing
//! transparency, admission control, typed errors (never panics) on
//! every HTTP and submission boundary, and the resilience layer —
//! deadlines, backpressure, fault-wired recovery, the circuit breaker,
//! and drain-vs-shutdown semantics (DESIGN.md §16).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use sygraph_core::engine::RecoveryPolicy;
use sygraph_gen::{datasets, Scale};
use sygraph_service::{
    modeled_peak_bytes, Algo, Determinism, HttpServer, JobRequest, JobState, JobValues,
    RegisterOptions, Service, ServiceConfig, ServiceError,
};
use sygraph_sim::{DeviceProfile, FaultPlan};

fn test_service(cfg: ServiceConfig) -> Service {
    Service::start(cfg).expect("service starts")
}

fn default_cfg() -> ServiceConfig {
    ServiceConfig {
        profile: DeviceProfile::host_test(),
        workers: 2,
        batch_window_ms: 0,
        batch_width: 16,
        job_mem_budget: None,
        cache_entries: 4096,
        start_paused: false,
        ..ServiceConfig::default()
    }
}

fn submit_wait(service: &Service, req: JobRequest) -> sygraph_service::JobRecord {
    let id = service.submit(req).expect("submit");
    service.wait(id).expect("job exists")
}

/// `values` with its largest-magnitude element moved by 1 % (at least
/// one unit for integers): the smallest defect the class comparison has
/// to catch.
fn perturbed(values: &JobValues) -> JobValues {
    match values {
        JobValues::U32(v) => {
            let mut v = v.clone();
            let at = (0..v.len()).max_by_key(|&i| v[i]).expect("non-empty");
            // A connected graph's labels are all 0: step up, not below.
            v[at] = v[at].checked_sub((v[at] / 100).max(1)).unwrap_or(1);
            JobValues::U32(v)
        }
        JobValues::F32(v) => {
            let mut v = v.clone();
            let finite = (0..v.len()).filter(|&i| v[i].is_finite());
            let at = finite
                .max_by(|&i, &j| v[i].abs().total_cmp(&v[j].abs()))
                .expect("a finite value");
            // An isolated source leaves 0.0 as the only finite distance.
            v[at] = if v[at] == 0.0 { 0.01 } else { v[at] * 1.01 };
            JobValues::F32(v)
        }
    }
}

/// A cache hit agrees with a forced recompute to the algorithm's declared
/// determinism class — the same bits for bfs/sssp/delta/cc, the declared
/// tolerance for bc/pagerank — across the four-dataset suite, and a 1 %
/// defect in one recomputed value is outside either class.
#[test]
fn cache_hits_are_bit_identical_to_recompute() {
    let suite = [
        ("usa", datasets::road_usa(Scale::Test)),
        ("hollyw", datasets::hollywood(Scale::Test)),
        ("indo", datasets::indochina(Scale::Test)),
        ("kron", datasets::kron(Scale::Test)),
    ];
    let service = test_service(default_cfg());
    for (name, ds) in &suite {
        // cc needs symmetric input; register everything undirected so
        // one resident copy serves the whole algorithm set.
        service
            .register_graph(
                name,
                ds.host.clone(),
                RegisterOptions {
                    undirected: true,
                    pull: false,
                },
            )
            .expect("register");
        for algo in ["bfs", "sssp", "delta", "cc", "bc", "pagerank"] {
            let req = |no_cache: bool| {
                let mut r = if matches!(algo, "cc" | "pagerank") {
                    JobRequest::unrooted(name, algo)
                } else {
                    JobRequest::rooted(name, algo, 1)
                };
                r.no_cache = Some(no_cache);
                r.no_coalesce = Some(true);
                r
            };
            let warm = submit_wait(&service, req(false));
            assert_eq!(
                warm.state,
                JobState::Done,
                "{name}/{algo}: {:?}",
                warm.error
            );
            assert!(!warm.metrics.cache_hit);

            let hit = submit_wait(&service, req(false));
            assert_eq!(hit.state, JobState::Done);
            assert!(hit.metrics.cache_hit, "{name}/{algo} second run must hit");
            assert_eq!(hit.metrics.sim_ms, 0.0, "hits cost no device time");

            let recomputed = submit_wait(&service, req(true));
            assert!(!recomputed.metrics.cache_hit);
            let class = Algo::parse(algo).unwrap().determinism();
            assert_eq!(
                class == Determinism::BitExact,
                !matches!(algo, "bc" | "pagerank"),
                "{algo}: only the fetch_add_f32 algorithms are tolerance-class"
            );
            let (hit, recomputed) = (hit.values.unwrap(), recomputed.values.unwrap());
            assert!(
                hit.agrees(&recomputed, class),
                "{name}/{algo}: cached result differs from recompute beyond {class:?}"
            );
            assert!(
                !hit.agrees(&perturbed(&recomputed), class),
                "{name}/{algo}: {class:?} accepts a 1 % defect"
            );
        }
    }
}

/// A coalesced batch's per-job values are bit-identical to serial rooted
/// runs of the same requests, and the batch is visible only in metrics.
#[test]
fn coalesced_batch_is_bit_identical_to_serial() {
    let ds = datasets::kron(Scale::Test);
    let mut cfg = default_cfg();
    cfg.workers = 1; // one claimer folds the whole paused backlog
    cfg.start_paused = true;
    let service = test_service(cfg);
    service
        .register_graph("kron", ds.host.clone(), RegisterOptions::default())
        .expect("register");

    let sources: Vec<u32> = (0..16)
        .map(|i| (i * 31) % ds.host.vertex_count() as u32)
        .collect();
    let submit = |no_coalesce: bool| -> Vec<u64> {
        sources
            .iter()
            .map(|&s| {
                let mut r = JobRequest::rooted("kron", "bfs", s);
                r.no_cache = Some(true);
                r.no_coalesce = Some(no_coalesce);
                service.submit(r).expect("submit")
            })
            .collect()
    };

    let serial_ids = submit(true);
    service.resume();
    service.wait_idle();
    service.pause();
    let coalesced_ids = submit(false);
    service.resume();
    service.wait_idle();

    let mut saw_batch = false;
    for (&sid, &cid) in serial_ids.iter().zip(&coalesced_ids) {
        let s = service.job(sid).unwrap();
        let c = service.job(cid).unwrap();
        assert_eq!(s.state, JobState::Done, "{:?}", s.error);
        assert_eq!(c.state, JobState::Done, "{:?}", c.error);
        assert!(!s.metrics.coalesced);
        assert!(
            s.values
                .as_ref()
                .unwrap()
                .bits_eq(c.values.as_ref().unwrap()),
            "lane output differs from rooted run"
        );
        saw_batch |= c.metrics.coalesced && c.metrics.batch_size > 1;
    }
    assert!(
        saw_batch,
        "no coalesced batch formed from the paused backlog"
    );
    assert!(service.stats().coalesced_batches >= 1);
}

/// A rooted BFS stays on the push view when the graph is registered with
/// a pull mirror: it launches what the same request launches against
/// the mirror-less registration (no pull superstep, no candidate set),
/// and the serial run, a coalesced lane and a cache hit all return the
/// same bits.
#[test]
fn serial_bfs_on_a_pull_graph_stays_on_the_push_view() {
    let ds = datasets::kron(Scale::Test);
    let mut cfg = default_cfg();
    cfg.workers = 1; // one claimer folds the whole paused backlog
    let service = test_service(cfg);
    for (name, pull) in [("plain", false), ("pull", true)] {
        let options = RegisterOptions {
            undirected: false,
            pull,
        };
        service
            .register_graph(name, ds.host.clone(), options)
            .expect("register");
    }
    let source = sygraph_bench::hub_source(&ds.host);
    let bfs = |graph: &str, no_cache: bool, no_coalesce: bool| {
        let mut r = JobRequest::rooted(graph, "bfs", source);
        r.no_cache = Some(no_cache);
        r.no_coalesce = Some(no_coalesce);
        r
    };

    let plain = submit_wait(&service, bfs("plain", true, true));
    let serial = submit_wait(&service, bfs("pull", true, true));
    assert_eq!(plain.state, JobState::Done, "{:?}", plain.error);
    assert_eq!(serial.state, JobState::Done, "{:?}", serial.error);
    let values = serial.values.as_ref().unwrap();
    assert!(values.bits_eq(plain.values.as_ref().unwrap()));
    assert_eq!(serial.metrics.iterations, plain.metrics.iterations);
    assert_eq!(
        serial.metrics.kernel_launches, plain.metrics.kernel_launches,
        "the pull mirror changed what a serial BFS launches"
    );

    let warm = submit_wait(&service, bfs("pull", false, true));
    let hit = submit_wait(&service, bfs("pull", false, true));
    assert!(!warm.metrics.cache_hit && hit.metrics.cache_hit);
    assert!(values.bits_eq(hit.values.as_ref().unwrap()));

    service.pause();
    let lane = service.submit(bfs("pull", true, false)).expect("submit");
    for other in 0..7 {
        let mut r = JobRequest::rooted("pull", "bfs", other);
        r.no_cache = Some(true);
        service.submit(r).expect("submit");
    }
    service.resume();
    service.wait_idle();
    let lane = service.job(lane).unwrap();
    assert_eq!(lane.state, JobState::Done, "{:?}", lane.error);
    assert!(lane.metrics.coalesced && lane.metrics.batch_size > 1);
    assert!(values.bits_eq(lane.values.as_ref().unwrap()));
}

/// Admission control: a job whose modelled peak exceeds the per-job
/// budget is rejected up front (typed, 413), while small jobs on the
/// same service proceed normally.
#[test]
fn admission_rejects_oversized_while_small_jobs_proceed() {
    let small = datasets::road_ca(Scale::Test);
    let big = datasets::kron(Scale::Test);
    let n_small = small.host.vertex_count() as u64;
    let n_big = big.host.vertex_count() as u64;
    assert!(n_big > n_small);
    // Budget between the two modelled peaks.
    let peak_small = modeled_peak_bytes(Algo::Bfs, n_small, small.host.edge_count() as u64, 1);
    let peak_big = modeled_peak_bytes(Algo::Bfs, n_big, big.host.edge_count() as u64, 1);
    assert!(peak_big > peak_small);
    let mut cfg = default_cfg();
    cfg.job_mem_budget = Some((peak_small + peak_big) / 2);
    let service = test_service(cfg);
    service
        .register_graph("small", small.host.clone(), RegisterOptions::default())
        .unwrap();
    service
        .register_graph("big", big.host.clone(), RegisterOptions::default())
        .unwrap();

    let rejected = submit_wait(&service, JobRequest::rooted("big", "bfs", 0));
    assert_eq!(rejected.state, JobState::Rejected);
    assert_eq!(rejected.http_status, Some(413));
    assert_eq!(rejected.error_kind.as_deref(), Some("admission-rejected"));
    assert!(rejected.values.is_none(), "rejected jobs do no work");

    let ok = submit_wait(&service, JobRequest::rooted("small", "bfs", 0));
    assert_eq!(ok.state, JobState::Done, "{:?}", ok.error);
    assert!(ok.metrics.mem_peak_bytes > 0);
    assert_eq!(service.stats().jobs_rejected, 1);

    // The figure jobs are admitted on has to cover what they then use:
    // every admitted algorithm on the four datasets (symmetrized, so CC
    // runs on them too), one job at a time on one worker, stays within its
    // modelled peak — the engine's third frontier included — and so does
    // a full-width coalesced BFS batch within the width it was priced at.
    // BC is run but not held to it: it retains one frontier per BFS level
    // and admission has no level count to price (ROADMAP item 5).
    let mut cfg = default_cfg();
    cfg.workers = 1;
    cfg.cache_entries = 0;
    let width = cfg.batch_width;
    let service = test_service(cfg);
    for ds in [
        datasets::road_ca(Scale::Test),
        datasets::hollywood(Scale::Test),
        datasets::indochina(Scale::Test),
        datasets::kron(Scale::Test),
    ] {
        let host = ds.host.to_undirected().unwrap();
        let (n, m) = (host.vertex_count() as u64, host.edge_count() as u64);
        service
            .register_graph(ds.key, host, RegisterOptions::default())
            .unwrap();
        for algo in sygraph_service::job::ADMITTED {
            let mut req = JobRequest::rooted(ds.key, algo.label(), 0);
            req.no_coalesce = Some(true);
            let job = submit_wait(&service, req);
            assert_eq!(
                job.state,
                JobState::Done,
                "{algo} on {}: {:?}",
                ds.key,
                job.error
            );
            let m = &job.metrics;
            assert!(
                algo == Algo::Bc || m.mem_peak_bytes <= m.modeled_peak_bytes,
                "{algo} on {}: used {} B of a modelled {} B",
                ds.key,
                m.mem_peak_bytes,
                m.modeled_peak_bytes
            );
        }
        service.pause();
        let ids: Vec<u64> = (0..width)
            .map(|v| {
                service
                    .submit(JobRequest::rooted(ds.key, "bfs", v))
                    .unwrap()
            })
            .collect();
        service.resume();
        service.wait_idle();
        let lane = service.job(ids[0]).unwrap();
        assert_eq!(lane.metrics.batch_size, width, "{}: one full batch", ds.key);
        let modelled = modeled_peak_bytes(Algo::Bfs, n, m, width);
        assert!(
            lane.metrics.mem_peak_bytes <= modelled,
            "{width}-lane bfs on {}: used {} B of a modelled {modelled} B",
            ds.key,
            lane.metrics.mem_peak_bytes
        );
    }
}

/// Submission boundaries return typed errors, never panics: unknown
/// algorithm, unknown graph, missing source, out-of-range source,
/// non-positive delta, malformed graph upload.
#[test]
fn submission_boundaries_are_typed() {
    let service = test_service(default_cfg());
    let ds = datasets::road_ca(Scale::Test);
    let n = ds.host.vertex_count() as u32;
    service
        .register_graph("ca", ds.host.clone(), RegisterOptions::default())
        .unwrap();

    let cases: Vec<(JobRequest, u16)> = vec![
        (JobRequest::rooted("ca", "tarjan", 0), 400),
        (JobRequest::rooted("nope", "bfs", 0), 404),
        (JobRequest::unrooted("ca", "bfs"), 400),
        (JobRequest::rooted("ca", "bfs", n), 400),
        (JobRequest::rooted("ca", "bfs", u32::MAX), 400),
        (
            {
                let mut r = JobRequest::rooted("ca", "delta", 0);
                r.delta = Some(-1.0);
                r
            },
            400,
        ),
    ];
    for (req, want) in cases {
        let err = service.submit(req.clone()).expect_err("must be refused");
        assert_eq!(err.http_status(), want, "{req:?} -> {err}");
    }

    // Malformed upload: refused with the typed GraphError, nothing
    // becomes resident.
    let bad = sygraph_core::graph::CsrHost {
        offsets: vec![0, 2, 1],
        indices: vec![1, 0],
        weights: None,
    };
    let err = service
        .register_graph("bad", bad, RegisterOptions::default())
        .expect_err("malformed upload must be refused");
    assert!(matches!(err, ServiceError::InvalidGraph(_)));
    assert_eq!(err.http_status(), 400);
    assert_eq!(service.graphs().len(), 1);
}

/// Re-registering a graph bumps its version and invalidates cached
/// results computed against the old upload.
#[test]
fn reregistration_invalidates_stale_cache() {
    let service = test_service(default_cfg());
    let ds = datasets::road_ca(Scale::Test);
    service
        .register_graph("g", ds.host.clone(), RegisterOptions::default())
        .unwrap();
    let first = submit_wait(&service, JobRequest::rooted("g", "bfs", 0));
    assert!(!first.metrics.cache_hit);

    // Same name, different structure: version 2.
    let ds2 = datasets::kron(Scale::Test);
    service
        .register_graph("g", ds2.host.clone(), RegisterOptions::default())
        .unwrap();
    let second = submit_wait(&service, JobRequest::rooted("g", "bfs", 0));
    assert_eq!(second.state, JobState::Done, "{:?}", second.error);
    assert!(
        !second.metrics.cache_hit,
        "cache must miss after re-registration"
    );
    assert_eq!(second.graph_version, 2);
    assert_ne!(
        first.values.as_ref().unwrap().len(),
        second.values.as_ref().unwrap().len()
    );
}

// ---------------------------------------------------------------------------
// HTTP smoke (in-process, ephemeral port)
// ---------------------------------------------------------------------------

fn http(addr: std::net::SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("response");
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status line");
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

#[test]
fn http_endpoints_smoke() {
    let service = Arc::new(test_service(default_cfg()));
    let mut server = HttpServer::serve(service, "127.0.0.1:0").expect("bind");
    let addr = server.addr();

    assert_eq!(http(addr, "GET", "/health", "").0, 200);
    assert_eq!(http(addr, "GET", "/ready", "").0, 200);

    // Upload a graph as an edge list, then run BFS to completion.
    let (status, body) = http(
        addr,
        "POST",
        "/graphs",
        r#"{"name":"line","vertices":4,"edges":[[0,1],[1,2],[2,3]]}"#,
    );
    assert_eq!(status, 200, "{body}");
    let (status, body) = http(
        addr,
        "POST",
        "/jobs?wait=1&values=1",
        r#"{"graph":"line","algo":"bfs","source":0}"#,
    );
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"values\":[0,1,2,3]"), "{body}");

    // Typed failures on every HTTP boundary.
    let cases = [
        ("POST", "/jobs", "{not json", 400),
        ("POST", "/jobs", r#"{"graph":"line","algo":"astar"}"#, 400),
        (
            "POST",
            "/jobs",
            r#"{"graph":"line","algo":"bfs","source":99}"#,
            400,
        ),
        (
            "POST",
            "/jobs",
            r#"{"graph":"ghost","algo":"bfs","source":0}"#,
            404,
        ),
        (
            "POST",
            "/graphs",
            r#"{"name":"bad","offsets":[0,5],"targets":[1]}"#,
            400,
        ),
        ("GET", "/jobs/99999", "", 404),
        ("GET", "/jobs/zzz", "", 400),
        ("GET", "/nowhere", "", 404),
        ("DELETE", "/jobs", "", 405),
    ];
    for (method, path, body, want) in cases {
        let (status, response) = http(addr, method, path, body);
        assert_eq!(status, want, "{method} {path}: {response}");
        assert!(response.contains("error"), "{method} {path}: {response}");
    }

    // Graph listing reflects the upload.
    let (status, body) = http(addr, "GET", "/graphs", "");
    assert_eq!(status, 200);
    assert!(body.contains("\"name\":\"line\""), "{body}");

    server.shutdown();
}

// ---------------------------------------------------------------------------
// Resilience: deadlines, backpressure, fault-wired workers, drain
// ---------------------------------------------------------------------------

/// Like [`http`] but returns the raw response (status line + headers +
/// body), for tests that assert on headers.
fn http_raw(addr: std::net::SocketAddr, method: &str, path: &str, body: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("response");
    response
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Draining a service mid-coalescing loses and duplicates nothing:
    /// every job submitted before the drain ends `Done`, appears exactly
    /// once in the drain report, and the report is clean. The backlog is
    /// built paused so `drain` itself (which unpauses) races the workers'
    /// batch formation.
    #[test]
    fn drain_mid_coalescing_loses_nothing(
        n_jobs in 1usize..20,
        window_ms in 0u64..3,
    ) {
        let ds = datasets::road_ca(Scale::Test);
        let nv = ds.host.vertex_count() as u32;
        let mut cfg = default_cfg();
        cfg.batch_window_ms = window_ms;
        cfg.start_paused = true;
        let service = test_service(cfg);
        service
            .register_graph("ca", ds.host.clone(), RegisterOptions::default())
            .unwrap();
        let ids: Vec<u64> = (0..n_jobs)
            .map(|i| {
                let mut r = JobRequest::rooted("ca", "bfs", (i as u32 * 37) % nv);
                r.no_cache = Some(true);
                service.submit(r).expect("submit")
            })
            .collect();

        let report = service.drain(Duration::from_secs(30));
        prop_assert!(report.clean, "drain hit its deadline");
        prop_assert_eq!(report.shed_queued, 0);
        prop_assert_eq!(report.cancelled_in_flight, 0);
        for &id in &ids {
            let hits: Vec<_> = report.records.iter().filter(|r| r.id == id).collect();
            prop_assert_eq!(hits.len(), 1, "job {} lost or duplicated", id);
            prop_assert_eq!(hits[0].state, JobState::Done, "{:?}", &hits[0].error);
        }
        // Drained: no further admissions.
        let err = service
            .submit(JobRequest::rooted("ca", "bfs", 0))
            .expect_err("post-drain submit must be refused");
        prop_assert_eq!(err.http_status(), 503);
    }
}

/// `shutdown` is the hard stop (queued jobs stay `Queued`); `drain` is
/// the graceful one (the same backlog runs to `Done`).
#[test]
fn drain_differs_from_shutdown() {
    let backlog = |svc: &Service| -> Vec<u64> {
        (0..3)
            .map(|i| {
                let mut r = JobRequest::rooted("ca", "bfs", i * 11);
                r.no_cache = Some(true);
                svc.submit(r).expect("submit")
            })
            .collect()
    };
    let ds = datasets::road_ca(Scale::Test);

    let mut cfg = default_cfg();
    cfg.start_paused = true;
    let hard = test_service(cfg.clone());
    hard.register_graph("ca", ds.host.clone(), RegisterOptions::default())
        .unwrap();
    let ids = backlog(&hard);
    hard.shutdown();
    for id in ids {
        let rec = hard.job(id).expect("record survives shutdown");
        assert_eq!(rec.state, JobState::Queued, "hard stop must not run jobs");
    }

    let graceful = test_service(cfg);
    graceful
        .register_graph("ca", ds.host.clone(), RegisterOptions::default())
        .unwrap();
    let ids = backlog(&graceful);
    let report = graceful.drain(Duration::from_secs(30));
    assert!(report.clean);
    for id in ids {
        let rec = graceful.job(id).expect("record");
        assert_eq!(rec.state, JobState::Done, "{:?}", rec.error);
    }
}

/// A queued job whose deadline passes is shed before dispatch with the
/// typed 408, and counted in `jobs_timeout`.
#[test]
fn expired_queued_job_is_shed_typed() {
    let ds = datasets::road_ca(Scale::Test);
    let mut cfg = default_cfg();
    cfg.start_paused = true;
    let service = test_service(cfg);
    service
        .register_graph("ca", ds.host.clone(), RegisterOptions::default())
        .unwrap();
    let mut req = JobRequest::rooted("ca", "bfs", 0);
    req.no_cache = Some(true);
    req.timeout_ms = Some(1);
    let id = service.submit(req).expect("submit");
    std::thread::sleep(Duration::from_millis(30));
    service.resume();
    let rec = service.wait(id).expect("terminal");
    assert_eq!(rec.state, JobState::Failed);
    assert_eq!(rec.http_status, Some(408));
    assert_eq!(rec.error_kind.as_deref(), Some("deadline-exceeded"));
    assert!(rec.values.is_none());
    assert!(service.stats().jobs_timeout >= 1);
}

/// Backpressure: a full queue refuses with the typed 429 carrying a
/// positive Retry-After hint, `ready()` flips unready at the high-water
/// mark, and the shed is counted — while the queued jobs still finish.
#[test]
fn full_queue_sheds_typed_with_retry_after() {
    let ds = datasets::road_ca(Scale::Test);
    let mut cfg = default_cfg();
    cfg.max_queue = 2; // high water = 1
    cfg.start_paused = true;
    let service = test_service(cfg);
    service
        .register_graph("ca", ds.host.clone(), RegisterOptions::default())
        .unwrap();
    assert!(service.ready(), "empty queue is ready");
    let submit = |src: u32| {
        let mut r = JobRequest::rooted("ca", "bfs", src);
        r.no_cache = Some(true);
        service.submit(r)
    };
    let a = submit(0).expect("first fits");
    assert!(!service.ready(), "at high water: unready");
    let b = submit(1).expect("second fits");
    let err = submit(2).expect_err("third must shed");
    assert_eq!(err.http_status(), 429);
    let hint = err.retry_after_ms().expect("429 carries Retry-After");
    assert!(hint > 0);
    assert!(matches!(
        err,
        ServiceError::Overloaded {
            queued: 2,
            limit: 2,
            ..
        }
    ));
    assert_eq!(service.stats().jobs_shed, 1);

    service.resume();
    for id in [a, b] {
        let rec = service.wait(id).expect("terminal");
        assert_eq!(rec.state, JobState::Done, "{:?}", rec.error);
    }
    assert!(service.ready(), "drained queue is ready again");
}

/// Fault-wired workers: with a transient fault plan attached through the
/// config, every job still completes bit-identical to a clean service,
/// and the recovery layer reports the retries it absorbed.
#[test]
fn faulted_workers_recover_bit_identical() {
    let ds = datasets::kron(Scale::Test);
    let sources: Vec<u32> = (0..8)
        .map(|i| (i * 97) % ds.host.vertex_count() as u32)
        .collect();
    let run = |cfg: ServiceConfig| -> Vec<sygraph_service::JobRecord> {
        let service = test_service(cfg);
        service
            .register_graph("kron", ds.host.clone(), RegisterOptions::default())
            .unwrap();
        sources
            .iter()
            .map(|&s| {
                let mut r = JobRequest::rooted("kron", "bfs", s);
                r.no_cache = Some(true);
                submit_wait(&service, r)
            })
            .collect()
    };

    let clean = run(default_cfg());
    let mut cfg = default_cfg();
    cfg.workers = 1;
    // 2% per-launch: high enough that the plan fires on every run of 8
    // BFS jobs, low enough that the retry budget always absorbs it (at
    // 5% a job can legitimately exhaust retries and fail typed — that
    // path is the chaos harness's territory, not this test's).
    // 2% per-launch with this seed: the plan fires (the recovery
    // assertion below keeps the test honest) and the retry budget
    // absorbs every fault. Retries reset only after a fully clean
    // superstep, so an unlucky seed can legitimately exhaust them and
    // fail typed — that path is the chaos harness's territory; this
    // test pins a seed on the recovery side of the line. The run is
    // deterministic: one worker, serial submits, per-queue ordinals.
    cfg.fault_plan = Some(FaultPlan::parse("transient-prob=0.02,seed=1").unwrap());
    cfg.recovery = RecoveryPolicy::resilient(3, 4);
    let faulted = run(cfg);

    let mut recoveries = 0u64;
    for (c, f) in clean.iter().zip(&faulted) {
        assert_eq!(f.state, JobState::Done, "{:?}", f.error);
        assert!(
            c.values
                .as_ref()
                .unwrap()
                .bits_eq(f.values.as_ref().unwrap()),
            "recovered run diverged from clean run"
        );
        recoveries += f.metrics.recovery_events;
    }
    assert!(recoveries > 0, "fault plan never fired — test is vacuous");
}

/// Repeated worker rebuilds trip the per-worker circuit breaker: with a
/// device that is lost on every launch, jobs fail typed (500, never a
/// panic), rebuilds are counted, the breaker trips, and the half-open
/// probe fires after the hold-off.
#[test]
fn lost_device_trips_breaker() {
    let ds = datasets::road_ca(Scale::Test);
    let mut cfg = default_cfg();
    cfg.workers = 1;
    cfg.start_paused = true;
    cfg.fault_plan = Some(FaultPlan::parse("lost@0").unwrap());
    cfg.breaker_threshold = 2;
    cfg.breaker_open_ms = 20;
    let service = test_service(cfg);
    service
        .register_graph("ca", ds.host.clone(), RegisterOptions::default())
        .unwrap();
    let ids: Vec<u64> = (0..4)
        .map(|i| {
            let mut r = JobRequest::rooted("ca", "bfs", i * 7);
            r.no_cache = Some(true);
            r.no_coalesce = Some(true); // one rebuild per job, not per batch
            service.submit(r).expect("submit")
        })
        .collect();
    service.resume();
    for id in ids {
        let rec = service.wait(id).expect("terminal");
        assert_eq!(rec.state, JobState::Failed);
        assert_eq!(rec.http_status, Some(500), "{:?}", rec.error);
        assert_eq!(rec.error_kind.as_deref(), Some("device"));
    }
    let stats = service.stats();
    assert!(
        stats.worker_rebuilds >= 2,
        "rebuilds: {}",
        stats.worker_rebuilds
    );
    assert!(stats.breaker_trips >= 1, "breaker never tripped");
    assert!(stats.breaker_probes >= 1, "half-open probe never fired");
}

/// A client that connects and never sends a request gets the typed 408
/// `read-timeout` body instead of holding a connection slot forever.
#[test]
fn http_read_timeout_is_typed_408() {
    let service = Arc::new(test_service(default_cfg()));
    let mut server =
        HttpServer::serve_with_read_timeout(service, "127.0.0.1:0", Duration::from_millis(100))
            .expect("bind");
    let addr = server.addr();

    let mut stream = TcpStream::connect(addr).expect("connect");
    // Send nothing; the server must time the read out.
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("response");
    assert!(response.starts_with("HTTP/1.1 408"), "{response}");
    assert!(response.contains("read-timeout"), "{response}");

    server.shutdown();
}

/// Over HTTP, a full queue answers 429 with both the `Retry-After`
/// header and the `retry_after_ms` body field, and `/ready` reports 503
/// while the queue sits above high water.
#[test]
fn http_backpressure_shape() {
    let ds = datasets::road_ca(Scale::Test);
    let mut cfg = default_cfg();
    cfg.max_queue = 1;
    cfg.start_paused = true;
    let service = Arc::new(test_service(cfg));
    service
        .register_graph("ca", ds.host.clone(), RegisterOptions::default())
        .unwrap();
    let mut server = HttpServer::serve(service.clone(), "127.0.0.1:0").expect("bind");
    let addr = server.addr();

    let body = r#"{"graph":"ca","algo":"bfs","source":0,"no_cache":true}"#;
    let (status, _) = http(addr, "POST", "/jobs", body);
    assert_eq!(status, 202, "first submission queues");

    let raw = http_raw(addr, "POST", "/jobs", body);
    assert!(raw.starts_with("HTTP/1.1 429"), "{raw}");
    assert!(raw.contains("Retry-After: "), "{raw}");
    assert!(raw.contains("\"retry_after_ms\""), "{raw}");
    assert!(raw.contains("\"error_kind\":\"overloaded\""), "{raw}");

    let (status, body) = http(addr, "GET", "/ready", "");
    assert_eq!(status, 503, "{body}");

    service.resume();
    service.wait_idle();
    assert_eq!(http(addr, "GET", "/ready", "").0, 200);
    server.shutdown();
}
