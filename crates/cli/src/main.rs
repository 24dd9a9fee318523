//! `sygraph-cli` — run SYgraph algorithms from the command line.
//!
//! ```text
//! sygraph-cli <algo> <graph> [options]
//!
//! algo    bfs | sssp | cc | bc | pagerank | dobfs | delta | triangles |
//!         kcore | closeness | reach
//! graph   a file (.mtx, .el, .gr, .sygb) or a generated dataset:
//!         gen:ca gen:usa gen:hollyw gen:indo gen:journal gen:kron gen:twitter
//!         (generated at bench scale; set SYG_SCALE=test for the
//!         small CI-sized variants)
//!
//! options
//!   --src <v>         source vertex (default 0; ignored by cc/pagerank)
//!   --sources <a,b,…> batch of source vertices: bfs/bc/closeness/reach run
//!                     all of them in one W-lane multi-source pass (the
//!                     engine packs W bit-lanes beside the frontier bitmap
//!                     and expands every source through shared supersteps)
//!   --batch-width <w> lanes per multi-source batch: 8|16|32|64 (default 32)
//!   --device <name>   v100s | max1100 | mi100 | host (default v100s)
//!   --undirected      symmetrize the graph before running
//!   --no-msi --no-cf --no-2lb    disable individual optimizations
//!   --balancing <s>   advance load balancing: wg | bucketed | auto (default auto)
//!   --frontier <r>    frontier representation: dense | sparse | auto (default auto)
//!   --direction <d>   traversal direction: push | pull | auto (default auto).
//!                     pull and auto build the graph's pull (CSC) view and
//!                     let the engine run Beamer-style bottom-up supersteps;
//!                     without the flag only dobfs pays for the CSC view
//!   --devices <n>     shard the graph across n simulated devices and run
//!                     the partitioned BSP path (bfs|sssp|cc). Each device
//!                     gets its own queue; frontiers exchange halo
//!                     activations at every superstep boundary
//!   --partition <p>   edge-cut partitioner: hash | range (default hash)
//!   --delta <x>       bucket width for the delta algorithm (default 2)
//!   --json            machine-readable output
//!   --profile         print the per-kernel profile afterwards (with
//!                     --frontier auto, includes the per-superstep
//!                     representation trace and switch counts; with
//!                     --sources, the per-superstep active-lane trace and
//!                     lane-retirement total)
//!   --sanitize        run under the device-memory sanitizer: every kernel
//!                     access is shadow-tracked for out-of-bounds,
//!                     use-after-free and non-atomic data races, and racy
//!                     launches are re-executed under a shuffled workgroup
//!                     order to surface order dependence. Prints the
//!                     findings report; exits non-zero if any were found.
//!   --inject-faults <spec>   attach a deterministic fault plan to the
//!                     device queue, e.g. "transient@4,oom@9,lost@15" or
//!                     "oom-prob=0.01,seed=7" (see sygraph_sim::FaultPlan)
//!   --retry <n>       allow n retries per superstep and enable the OOM
//!                     degradation ladder (default 0 = fail fast)
//!   --checkpoint-every <k>   checkpoint algorithm state every k
//!                     supersteps so device-lost faults can resume
//! ```
//!
//! A second mode starts the long-running analytics service (see
//! `sygraph-service` and DESIGN.md §15):
//!
//! ```text
//! sygraph-cli serve [--addr HOST:PORT] [--device NAME] [--workers N]
//!                   [--batch-window-ms MS] [--batch-width 8|16|32|64]
//!                   [--job-mem-budget BYTES[K|M|G]] [--cache-entries N]
//!                   [--graphs name=spec[+undirected][+pull],...]
//!                   [--max-queue N] [--default-timeout-ms MS]
//!                   [--max-timeout-ms MS] [--inject-faults SPEC]
//!                   [--retry N] [--checkpoint-every K]
//!                   [--drain-deadline-ms MS] [--breaker-threshold N]
//!                   [--breaker-open-ms MS] [--http-read-timeout-ms MS]
//! ```
//!
//! The server installs SIGTERM/SIGINT handlers: on either signal it
//! stops admissions, drains queued and in-flight jobs up to the drain
//! deadline (DESIGN.md §16), prints the drain summary, and exits 0.

use std::collections::HashMap;
use std::process::ExitCode;

use sygraph_core::engine::RecoveryPolicy;
use sygraph_core::frontier::exchange::ExchangeConfig;
use sygraph_core::frontier::maintenance_payer;
use sygraph_core::graph::{validate_sources, CsrHost, Graph, PartitionSpec, PartitionedGraph};
use sygraph_core::inspector::{Balancing, Direction, OptConfig, Representation};
use sygraph_sim::{Device, DeviceProfile, FaultPlan, Queue};

fn usage() -> ExitCode {
    eprintln!(
        "usage: sygraph-cli <bfs|sssp|cc|bc|pagerank|dobfs|delta|triangles|kcore|closeness|reach> <graph.{{mtx,el,gr,sygb}}|gen:NAME> \
         [--src V] [--sources A,B,...] [--batch-width 8|16|32|64] \
         [--device v100s|max1100|mi100|host] [--undirected] \
         [--no-msi] [--no-cf] [--no-2lb] [--balancing wg|bucketed|auto] \
         [--frontier dense|sparse|auto] [--direction push|pull|auto] \
         [--devices N] [--partition hash|range] \
         [--delta X] [--json] [--profile] [--sanitize] \
         [--inject-faults SPEC] [--retry N] [--checkpoint-every K]"
    );
    ExitCode::from(2)
}

fn serve_usage() -> ExitCode {
    eprintln!(
        "usage: sygraph-cli serve [--addr HOST:PORT] [--device v100s|max1100|mi100|host] \
         [--workers N] [--batch-window-ms MS] [--batch-width 8|16|32|64] \
         [--job-mem-budget BYTES[K|M|G]] [--cache-entries N] \
         [--graphs name=spec[+undirected][+pull],...] [--paused] \
         [--max-queue N] [--default-timeout-ms MS] [--max-timeout-ms MS] \
         [--inject-faults SPEC] [--retry N] [--checkpoint-every K] \
         [--drain-deadline-ms MS] [--breaker-threshold N] [--breaker-open-ms MS] \
         [--http-read-timeout-ms MS]"
    );
    ExitCode::from(2)
}

/// Set by the SIGTERM/SIGINT handler; the serve loop polls it.
static TERMINATE: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

extern "C" fn on_terminate(_signum: i32) {
    TERMINATE.store(true, std::sync::atomic::Ordering::SeqCst);
}

/// Installs `on_terminate` for SIGTERM (15) and SIGINT (2) via the libc
/// `signal` symbol std already links — no signal crate in this offline
/// workspace. Only flag-setting happens in the handler; the drain runs
/// on the main thread.
fn install_terminate_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    unsafe {
        signal(15, on_terminate as *const () as usize); // SIGTERM
        signal(2, on_terminate as *const () as usize); // SIGINT
    }
}

/// Parses `--job-mem-budget` style sizes: plain bytes or a K/M/G suffix.
fn parse_bytes(text: &str) -> Result<u64, String> {
    let (digits, mult) = match text.as_bytes().last() {
        Some(b'K') | Some(b'k') => (&text[..text.len() - 1], 1u64 << 10),
        Some(b'M') | Some(b'm') => (&text[..text.len() - 1], 1u64 << 20),
        Some(b'G') | Some(b'g') => (&text[..text.len() - 1], 1u64 << 30),
        _ => (text, 1),
    };
    digits
        .parse::<u64>()
        .map(|v| v * mult)
        .map_err(|_| format!("bad size {text:?}"))
}

/// `sygraph-cli serve`: start the analytics service and block.
fn serve_main(args: &[String]) -> ExitCode {
    use sygraph_service::{HttpServer, RegisterOptions, Service, ServiceConfig};

    let mut addr = "127.0.0.1:7878".to_string();
    let mut device = "v100s".to_string();
    let mut cfg = ServiceConfig::default();
    let mut graph_specs: Vec<String> = Vec::new();
    let mut http_read_timeout_ms: u64 = 30_000;
    let mut retry: Option<u32> = None;
    let mut checkpoint_every: Option<u32> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<String, ExitCode> {
            it.next().cloned().ok_or_else(|| {
                eprintln!("{name} needs a value");
                serve_usage()
            })
        };
        match flag.as_str() {
            "--addr" => match value("--addr") {
                Ok(v) => addr = v,
                Err(e) => return e,
            },
            "--device" => match value("--device") {
                Ok(v) => device = v,
                Err(e) => return e,
            },
            "--workers" => match value("--workers").map(|v| v.parse()) {
                Ok(Ok(n)) => cfg.workers = n,
                _ => return serve_usage(),
            },
            "--batch-window-ms" => match value("--batch-window-ms").map(|v| v.parse()) {
                Ok(Ok(n)) => cfg.batch_window_ms = n,
                _ => return serve_usage(),
            },
            "--batch-width" => match value("--batch-width").map(|v| v.parse()) {
                Ok(Ok(n)) => cfg.batch_width = n,
                _ => return serve_usage(),
            },
            "--job-mem-budget" => match value("--job-mem-budget").map(|v| parse_bytes(&v)) {
                Ok(Ok(n)) => cfg.job_mem_budget = Some(n),
                Ok(Err(e)) => {
                    eprintln!("{e}");
                    return serve_usage();
                }
                Err(e) => return e,
            },
            "--cache-entries" => match value("--cache-entries").map(|v| v.parse()) {
                Ok(Ok(n)) => cfg.cache_entries = n,
                _ => return serve_usage(),
            },
            "--graphs" => match value("--graphs") {
                Ok(v) => graph_specs.extend(v.split(',').map(str::to_string)),
                Err(e) => return e,
            },
            "--paused" => cfg.start_paused = true,
            "--max-queue" => match value("--max-queue").map(|v| v.parse()) {
                Ok(Ok(n)) => cfg.max_queue = n,
                _ => return serve_usage(),
            },
            "--default-timeout-ms" => match value("--default-timeout-ms").map(|v| v.parse()) {
                Ok(Ok(n)) => cfg.default_timeout_ms = Some(n),
                _ => return serve_usage(),
            },
            "--max-timeout-ms" => match value("--max-timeout-ms").map(|v| v.parse()) {
                Ok(Ok(n)) => cfg.max_timeout_ms = n,
                _ => return serve_usage(),
            },
            "--inject-faults" => match value("--inject-faults").map(|v| FaultPlan::parse(&v)) {
                Ok(Ok(plan)) => cfg.fault_plan = Some(plan),
                Ok(Err(e)) => {
                    eprintln!("bad --inject-faults spec: {e}");
                    return serve_usage();
                }
                Err(e) => return e,
            },
            "--retry" => match value("--retry").map(|v| v.parse()) {
                Ok(Ok(n)) => retry = Some(n),
                _ => return serve_usage(),
            },
            "--checkpoint-every" => match value("--checkpoint-every").map(|v| v.parse()) {
                Ok(Ok(n)) => checkpoint_every = Some(n),
                _ => return serve_usage(),
            },
            "--drain-deadline-ms" => match value("--drain-deadline-ms").map(|v| v.parse()) {
                Ok(Ok(n)) => cfg.drain_deadline_ms = n,
                _ => return serve_usage(),
            },
            "--breaker-threshold" => match value("--breaker-threshold").map(|v| v.parse()) {
                Ok(Ok(n)) => cfg.breaker_threshold = n,
                _ => return serve_usage(),
            },
            "--breaker-open-ms" => match value("--breaker-open-ms").map(|v| v.parse()) {
                Ok(Ok(n)) => cfg.breaker_open_ms = n,
                _ => return serve_usage(),
            },
            "--http-read-timeout-ms" => match value("--http-read-timeout-ms").map(|v| v.parse()) {
                Ok(Ok(n)) => http_read_timeout_ms = n,
                _ => return serve_usage(),
            },
            other => {
                eprintln!("unknown option {other}");
                return serve_usage();
            }
        }
    }
    cfg.profile = match device.as_str() {
        "v100s" => DeviceProfile::v100s(),
        "max1100" => DeviceProfile::max1100(),
        "mi100" => DeviceProfile::mi100(),
        "host" => DeviceProfile::host_test(),
        other => {
            eprintln!("unknown device {other}");
            return serve_usage();
        }
    };
    // Recovery policy: explicit --retry/--checkpoint-every win; a fault
    // plan with neither defaults to the resilient policy, since running
    // chaos against fail-fast workers tests nothing but the breaker.
    cfg.recovery = match (retry, checkpoint_every) {
        (None, None) if cfg.fault_plan.is_some() => RecoveryPolicy::resilient(3, 4),
        (None, None) => RecoveryPolicy::default(),
        (r, c) => {
            let mut p = RecoveryPolicy::resilient(r.unwrap_or(3), c.unwrap_or(4));
            p.degrade_on_oom = r.unwrap_or(3) > 0;
            p
        }
    };

    let service = match Service::start(cfg.clone()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("failed to start service: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Preload graphs: `name=spec[+undirected][+pull]`.
    for entry in &graph_specs {
        let Some((name, rest)) = entry.split_once('=') else {
            eprintln!("bad --graphs entry {entry:?} (expected name=spec)");
            return serve_usage();
        };
        let mut options = RegisterOptions::default();
        let mut parts = rest.split('+');
        let spec = parts.next().unwrap_or_default();
        for flag in parts {
            match flag {
                "undirected" => options.undirected = true,
                "pull" => options.pull = true,
                other => {
                    eprintln!("bad --graphs flag {other:?} in {entry:?}");
                    return serve_usage();
                }
            }
        }
        let host = match sygraph_service::load_graph_spec(spec) {
            Ok(h) => h,
            Err(e) => {
                eprintln!("error loading graph {name}: {e}");
                return ExitCode::FAILURE;
            }
        };
        match service.register_graph(name, host, options) {
            Ok(g) => eprintln!(
                "registered {name}: {} vertices, {} edges (version {})",
                g.vertex_count(),
                g.edge_count(),
                g.version
            ),
            Err(e) => {
                eprintln!("error registering graph {name}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let service = std::sync::Arc::new(service);
    let mut server = match HttpServer::serve_with_read_timeout(
        service.clone(),
        &addr,
        std::time::Duration::from_millis(http_read_timeout_ms),
    ) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("failed to bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    install_terminate_handlers();
    println!("listening on http://{}", server.addr());
    while !TERMINATE.load(std::sync::atomic::Ordering::SeqCst) {
        std::thread::park_timeout(std::time::Duration::from_millis(100));
    }

    // Graceful drain: stop admissions, finish what we can within the
    // deadline, then report and exit cleanly.
    eprintln!(
        "signal received; draining (deadline {} ms)",
        cfg.drain_deadline_ms
    );
    let report = service.drain(std::time::Duration::from_millis(cfg.drain_deadline_ms));
    server.shutdown();
    eprintln!(
        "drained: clean={} done={} failed={} shed_queued={} cancelled_in_flight={}",
        report.clean,
        report.jobs_done,
        report.jobs_failed,
        report.shed_queued,
        report.cancelled_in_flight
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("serve") {
        return serve_main(&args[1..]);
    }
    if args.len() < 2 {
        return usage();
    }
    let algo = args[0].as_str();
    let graph_spec = args[1].as_str();

    // flag parsing
    let mut src: u32 = 0;
    let mut msources: Vec<u32> = Vec::new();
    let mut batch_width: u32 = 32;
    let mut device = "v100s".to_string();
    let mut undirected = false;
    let mut opts = OptConfig::all();
    let mut direction_explicit = false;
    let mut delta = 2.0f32;
    let mut json = false;
    let mut profile = false;
    let mut sanitize = false;
    let mut fault_spec: Option<String> = None;
    let mut retry: u32 = 0;
    let mut checkpoint_every: u32 = 0;
    let mut devices: u32 = 1;
    let mut partition = PartitionSpec::Hash;
    let mut partition_explicit = false;
    let mut it = args[2..].iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--src" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => src = v,
                None => return usage(),
            },
            "--sources" => {
                let parsed: Option<Vec<u32>> = it
                    .next()
                    .map(|s| s.split(',').map(|v| v.trim().parse().ok()).collect())
                    .unwrap_or(None);
                match parsed {
                    Some(v) if !v.is_empty() => msources = v,
                    _ => return usage(),
                }
            }
            "--batch-width" => match it.next().and_then(|v| v.parse().ok()) {
                Some(w @ (8 | 16 | 32 | 64)) => batch_width = w,
                _ => return usage(),
            },
            "--device" => match it.next() {
                Some(d) => device = d.clone(),
                None => return usage(),
            },
            "--undirected" => undirected = true,
            "--no-msi" => opts.msi = false,
            "--no-cf" => opts.coarsening = false,
            "--no-2lb" => opts.two_layer = false,
            "--balancing" => match it.next().map(String::as_str) {
                Some("wg") => opts.balancing = Balancing::WorkgroupMapped,
                Some("bucketed") => opts.balancing = Balancing::Bucketed,
                Some("auto") => opts.balancing = Balancing::Auto,
                _ => return usage(),
            },
            "--frontier" => match it.next().map(String::as_str) {
                Some("dense") => opts.representation = Representation::Dense,
                Some("sparse") => opts.representation = Representation::Sparse,
                Some("auto") => opts.representation = Representation::Auto,
                _ => return usage(),
            },
            "--direction" => {
                direction_explicit = true;
                match it.next().map(String::as_str) {
                    Some("push") => opts.direction = Direction::Push,
                    Some("pull") => opts.direction = Direction::Pull,
                    Some("auto") => opts.direction = Direction::Auto,
                    _ => return usage(),
                }
            }
            "--delta" | "--k" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => delta = v,
                None => return usage(),
            },
            "--json" => json = true,
            "--profile" => profile = true,
            "--sanitize" => sanitize = true,
            "--inject-faults" => match it.next() {
                Some(s) => fault_spec = Some(s.clone()),
                None => return usage(),
            },
            "--retry" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => retry = v,
                None => return usage(),
            },
            "--checkpoint-every" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => checkpoint_every = v,
                None => return usage(),
            },
            "--devices" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) if v >= 1 => devices = v,
                _ => return usage(),
            },
            "--partition" => match it.next().and_then(|s| PartitionSpec::parse(s)) {
                Some(p) => {
                    partition = p;
                    partition_explicit = true;
                }
                None => return usage(),
            },
            other => {
                eprintln!("unknown option {other}");
                return usage();
            }
        }
    }

    let profile_dev = match device.as_str() {
        "v100s" => DeviceProfile::v100s(),
        "max1100" => DeviceProfile::max1100(),
        "mi100" => DeviceProfile::mi100(),
        "host" => DeviceProfile::host_test(),
        other => {
            eprintln!("unknown device {other}");
            return usage();
        }
    };

    let mut host = match sygraph_service::load_graph_spec(graph_spec) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("error loading graph: {e}");
            return ExitCode::FAILURE;
        }
    };
    if undirected || algo == "cc" || algo == "triangles" || algo == "kcore" {
        host = match host.to_undirected() {
            Ok(h) => h,
            Err(e) => {
                eprintln!("error loading graph: {e}");
                return ExitCode::FAILURE;
            }
        };
    }
    if host.vertex_count() == 0 {
        eprintln!("graph is empty");
        return ExitCode::FAILURE;
    }
    // The same typed boundary check the service request path uses: an
    // out-of-range --src/--sources is rejected here, never handed to the
    // engine where it would wrap or panic.
    if let Err(e) = validate_sources(host.vertex_count(), &[src])
        .and_then(|()| validate_sources(host.vertex_count(), &msources))
    {
        let e: sygraph_sim::SimError = e.into();
        eprintln!("run failed: {e}");
        return ExitCode::FAILURE;
    }

    if retry > 0 || checkpoint_every > 0 {
        opts.recovery = RecoveryPolicy {
            max_retries: retry,
            backoff_ns: 1_000,
            degrade_on_oom: retry > 0,
            checkpoint_every,
        };
    }

    // Partitioned multi-device path: shard the CSR, one queue per device,
    // superstep-aligned BSP with halo exchange at every boundary.
    if devices > 1 || partition_explicit {
        if sanitize {
            eprintln!("--sanitize is single-device only");
            return ExitCode::FAILURE;
        }
        if !msources.is_empty() {
            eprintln!("--sources is single-device only");
            return ExitCode::FAILURE;
        }
        if !matches!(algo, "bfs" | "sssp" | "cc") {
            eprintln!("--devices supports bfs|sssp|cc, not {algo}");
            return usage();
        }
        return run_partitioned(
            algo,
            graph_spec,
            &host,
            &profile_dev,
            &opts,
            partition,
            devices,
            src,
            fault_spec.as_deref(),
            json,
            profile,
        );
    }

    let mut q = if sanitize {
        // Fixed seed so a reported order dependence reproduces exactly.
        Queue::with_sanitizer(Device::new(profile_dev.clone()), 0xBADC0DE)
    } else {
        Queue::new(Device::new(profile_dev.clone()))
    };
    if let Some(spec) = &fault_spec {
        match FaultPlan::parse(spec) {
            Ok(plan) => q.attach_faults(plan),
            Err(e) => {
                eprintln!("bad --inject-faults spec: {e}");
                return usage();
            }
        }
    }
    let q = q;
    // dobfs always needs the CSC view; batched BC wants it for its
    // in-edge backward sweep; other traversals only pay for it when the
    // user explicitly opts into a pull-capable direction.
    let needs_pull = algo == "dobfs"
        || (algo == "bc" && !msources.is_empty())
        || (direction_explicit && opts.direction != Direction::Push);
    let g = match if needs_pull {
        Graph::with_pull(&q, &host)
    } else {
        Graph::new(&q, &host)
    } {
        Ok(g) => g,
        Err(e) => {
            eprintln!("device error: {e}");
            return ExitCode::FAILURE;
        }
    };

    // run
    enum Out {
        U32(Vec<u32>, u32, f64),
        F32(Vec<f32>, u32, f64),
        Multi {
            iterations: u32,
            batches: u32,
            sim_ms: f64,
            summary: String,
            sources: Vec<u32>,
            values: serde_json::Value,
        },
    }
    // A --sources batch (and the inherently multi-source closeness/reach
    // algorithms) goes through the W-lane batched path; everything else
    // keeps the single-source entry points.
    let result = if !msources.is_empty() || algo == "closeness" || algo == "reach" {
        use sygraph_algos::multi;
        let srcs = if msources.is_empty() {
            vec![src]
        } else {
            msources.clone()
        };
        match algo {
            "bfs" => multi::bfs_multi(&q, &g.csr, &srcs, batch_width, &opts).map(|r| {
                let n = host.vertex_count();
                let reached: usize = r
                    .per_source
                    .iter()
                    .map(|d| d.iter().filter(|&&x| x != u32::MAX).count())
                    .sum();
                Out::Multi {
                    iterations: r.iterations,
                    batches: r.batches,
                    sim_ms: r.sim_ms,
                    summary: format!(
                        "{} sources, {reached}/{} vertices reached in total",
                        r.sources.len(),
                        n * r.sources.len()
                    ),
                    sources: r.sources,
                    values: serde_json::json!(r.per_source),
                }
            }),
            "bc" => multi::bc_multi(&q, &g, &srcs, batch_width, &opts).map(|r| {
                let max = r.per_source.iter().flatten().copied().fold(0f32, f32::max);
                Out::Multi {
                    iterations: r.iterations,
                    batches: r.batches,
                    sim_ms: r.sim_ms,
                    summary: format!("{} sources, max dependency {max:.4}", r.sources.len()),
                    sources: r.sources,
                    values: serde_json::json!(r.per_source),
                }
            }),
            "closeness" => multi::closeness_multi(&q, &g.csr, &srcs, batch_width, &opts).map(|r| {
                let max = r.scores.iter().copied().fold(0f32, f32::max);
                Out::Multi {
                    iterations: r.iterations,
                    batches: srcs.len().div_ceil(batch_width as usize) as u32,
                    sim_ms: r.sim_ms,
                    summary: format!("{} sources, max closeness {max:.4}", r.sources.len()),
                    sources: r.sources,
                    values: serde_json::json!(r.scores),
                }
            }),
            "reach" => multi::reachability_multi(&q, &g.csr, &srcs, batch_width, &opts).map(|r| {
                let reached: usize = r
                    .per_source
                    .iter()
                    .map(|m| m.iter().filter(|&&x| x).count())
                    .sum();
                Out::Multi {
                    iterations: r.iterations,
                    batches: r.batches,
                    sim_ms: r.sim_ms,
                    summary: format!(
                        "{} sources, {reached} (source, vertex) pairs reachable",
                        r.sources.len()
                    ),
                    sources: r.sources,
                    values: serde_json::json!(r.per_source),
                }
            }),
            other => {
                eprintln!("--sources supports bfs|bc|closeness|reach, not {other}");
                return usage();
            }
        }
    } else {
        match algo {
            // bfs and cc run through the graph view, so a pull-capable
            // `--direction` takes effect; the rest stay on the CSR.
            "bfs" => sygraph_algos::bfs::run(&q, &g, src, &opts)
                .map(|r| Out::U32(r.values, r.iterations, r.sim_ms)),
            "sssp" => sygraph_algos::sssp::run(&q, &g.csr, src, &opts)
                .map(|r| Out::F32(r.values, r.iterations, r.sim_ms)),
            "cc" => sygraph_algos::cc::run(&q, &g, &opts)
                .map(|r| Out::U32(r.values, r.iterations, r.sim_ms)),
            "bc" => sygraph_algos::bc::run(&q, &g.csr, src, &opts)
                .map(|r| Out::F32(r.values, r.iterations, r.sim_ms)),
            "pagerank" => sygraph_algos::pagerank::run(&q, &g.csr, &opts, Default::default())
                .map(|r| Out::F32(r.values, r.iterations, r.sim_ms)),
            "dobfs" => sygraph_algos::dobfs::run(&q, &g, src, &opts)
                .map(|r| Out::U32(r.values, r.iterations, r.sim_ms)),
            "delta" => sygraph_algos::delta::run(&q, &g.csr, src, &opts, delta)
                .map(|r| Out::F32(r.values, r.iterations, r.sim_ms)),
            "triangles" => sygraph_algos::triangles::run(&q, &g.csr, &opts)
                .map(|r| Out::U32(r.values, r.iterations, r.sim_ms)),
            "kcore" => sygraph_algos::kcore::run(&q, &g.csr, delta as u32, &opts)
                .map(|r| Out::U32(r.values, r.iterations, r.sim_ms)),
            other => {
                eprintln!("unknown algorithm {other}");
                return usage();
            }
        }
    };
    let out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("run failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    let (iterations, sim_ms, summary) = match &out {
        Out::U32(v, i, ms) => {
            let reached = v.iter().filter(|&&d| d != u32::MAX).count();
            (*i, *ms, format!("{reached}/{} vertices reached", v.len()))
        }
        Out::F32(v, i, ms) => {
            let finite = v.iter().filter(|x| x.is_finite()).count();
            let max = v
                .iter()
                .copied()
                .filter(|x| x.is_finite())
                .fold(0f32, f32::max);
            (
                *i,
                *ms,
                format!("{finite}/{} finite values, max {max:.4}", v.len()),
            )
        }
        Out::Multi {
            iterations,
            batches,
            sim_ms,
            summary,
            ..
        } => (
            *iterations,
            *sim_ms,
            format!("{summary} ({batches} batches of width {batch_width})"),
        ),
    };

    if json {
        let mut doc = HashMap::new();
        doc.insert("algo", serde_json::json!(algo));
        doc.insert("graph", serde_json::json!(graph_spec));
        doc.insert("device", serde_json::json!(profile_dev.name));
        doc.insert("vertices", serde_json::json!(host.vertex_count()));
        doc.insert("edges", serde_json::json!(host.edge_count()));
        doc.insert("iterations", serde_json::json!(iterations));
        doc.insert("sim_ms", serde_json::json!(sim_ms));
        doc.insert(
            "recovery_events",
            serde_json::json!(q.profiler().recovery_count()),
        );
        match &out {
            Out::U32(v, _, _) => doc.insert("values", serde_json::json!(v)),
            Out::F32(v, _, _) => doc.insert("values", serde_json::json!(v)),
            Out::Multi {
                sources,
                batches,
                values,
                ..
            } => {
                doc.insert("sources", serde_json::json!(sources));
                doc.insert("batches", serde_json::json!(batches));
                doc.insert("batch_width", serde_json::json!(batch_width));
                doc.insert("values", values.clone())
            }
        };
        println!("{}", serde_json::to_string(&doc).unwrap());
    } else {
        println!(
            "{algo} on {graph_spec} ({} vertices, {} edges) @ {}",
            host.vertex_count(),
            host.edge_count(),
            profile_dev.name
        );
        println!("  {iterations} supersteps, {sim_ms:.3} simulated ms — {summary}");
        let recov = q.profiler().recovery_events();
        if !recov.is_empty() {
            let mut counts: Vec<(String, usize)> = Vec::new();
            for e in &recov {
                let key = format!("{}->{}", e.fault, e.action);
                match counts.iter_mut().find(|(k, _)| *k == key) {
                    Some((_, c)) => *c += 1,
                    None => counts.push((key, 1)),
                }
            }
            let parts: Vec<String> = counts
                .iter()
                .map(|(k, c)| format!("{k}\u{d7}{c}"))
                .collect();
            println!("  recovery: {} events ({})", recov.len(), parts.join(", "));
        }
    }

    if profile {
        // (total ms, launches, worst max/mean group-cycle imbalance,
        //  worst idle-lane fraction) per kernel name.
        let mut per: HashMap<String, (f64, usize, f64, f64)> = HashMap::new();
        for k in q.profiler().kernels() {
            let e = per.entry(k.name).or_insert((0.0, 0, 1.0, 0.0));
            e.0 += k.stats.total_ns() / 1e6;
            e.1 += 1;
            e.2 = e.2.max(k.stats.load_imbalance());
            e.3 = e.3.max(k.stats.idle_lane_fraction());
        }
        let mut rows: Vec<_> = per.into_iter().collect();
        // Time descending, then name: equal-time rows must not fall
        // back on hash order, or two identical runs print differently.
        rows.sort_by(|a, b| b.1 .0.total_cmp(&a.1 .0).then_with(|| a.0.cmp(&b.0)));
        println!("  kernel profile:");
        for (name, (ms, count, imbalance, idle)) in rows {
            println!(
                "    {name:<22} {ms:>9.3} ms  ×{count:<5} imbal {imbalance:>6.2}×  idle {:>5.1}%",
                idle * 100.0
            );
        }
        // Per-superstep frontier-representation trace (recorded by the
        // engine whenever the run went through it), run-length encoded,
        // plus greppable switch counters and the frontier-maintenance
        // kernel cost split by representation.
        let reps = q.profiler().rep_events();
        if !reps.is_empty() {
            println!(
                "  frontier representation: {}",
                rle(reps.iter().map(|e| &e.rep))
            );
            let switches_to =
                |rep: &str| reps.iter().filter(|e| e.switched && e.rep == rep).count();
            println!("  sparse->dense switches: {}", switches_to("dense"));
            println!("  dense->sparse switches: {}", switches_to("sparse"));
            let cost_of = |payer: &str| -> f64 {
                q.profiler()
                    .kernels()
                    .iter()
                    .filter(|k| maintenance_payer(&k.name) == Some(payer))
                    .map(|k| k.stats.total_ns() / 1e6)
                    .sum()
            };
            println!(
                "  frontier maintenance: dense compaction {:.3} ms, sparse upkeep {:.3} ms",
                cost_of("dense"),
                cost_of("sparse"),
            );
        }
        let dirs = q.profiler().direction_events();
        if !dirs.is_empty() {
            println!(
                "  traversal direction: {}",
                rle(dirs.iter().map(|e| &e.direction))
            );
            println!(
                "  direction switches: {}",
                q.profiler().direction_switch_count()
            );
        }
        let lanes = q.profiler().lane_events();
        if !lanes.is_empty() {
            println!("  active lanes: {}", rle(lanes.iter().map(|e| e.active)));
            println!("  lanes retired: {}", q.profiler().lane_retired_count());
        }
        for e in q.profiler().recovery_events() {
            println!(
                "  recovery @superstep {:>4}: {} -> {} (attempt {}, t={:.3} ms)",
                e.superstep,
                e.fault,
                e.action,
                e.attempt,
                e.t_ns / 1e6
            );
        }
        println!("  device memory peak: {} KB", q.device().mem_peak() / 1024);
    }

    if let Some(san) = q.sanitizer() {
        println!("{}", san.report());
        if !san.is_clean() {
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// Run-length encodes a per-superstep trace as `a×3 -> b×2`.
fn rle<T: PartialEq + std::fmt::Display>(trace: impl Iterator<Item = T>) -> String {
    let mut runs: Vec<(T, usize)> = Vec::new();
    for item in trace {
        match runs.last_mut() {
            Some((last, count)) if *last == item => *count += 1,
            _ => runs.push((item, 1)),
        }
    }
    let parts: Vec<String> = runs.iter().map(|(v, c)| format!("{v}\u{d7}{c}")).collect();
    parts.join(" -> ")
}

/// The `--devices N` path: partition, run the multi-device BSP loop, and
/// print the merged per-partition report.
#[allow(clippy::too_many_arguments)]
fn run_partitioned(
    algo: &str,
    graph_spec: &str,
    host: &CsrHost,
    profile_dev: &DeviceProfile,
    opts: &OptConfig,
    partition: PartitionSpec,
    devices: u32,
    src: u32,
    fault_spec: Option<&str>,
    json: bool,
    profile: bool,
) -> ExitCode {
    use sygraph_algos::partitioned;

    let pg = PartitionedGraph::build(host, partition, devices);
    let mut queues: Vec<Queue> = (0..devices)
        .map(|_| Queue::new(Device::new(profile_dev.clone())))
        .collect();
    if let Some(spec) = fault_spec {
        // Deterministic plans land on partition 0's queue; the other
        // partitions keep running and the exchange carries them through
        // that partition's checkpoint resume.
        match FaultPlan::parse(spec) {
            Ok(plan) => queues[0].attach_faults(plan),
            Err(e) => {
                eprintln!("bad --inject-faults spec: {e}");
                return usage();
            }
        }
    }
    let queues = queues;
    let excfg = ExchangeConfig::default();

    enum POut {
        U32(Vec<u32>),
        F32(Vec<f32>),
    }
    let result = match algo {
        "bfs" => partitioned::bfs(&queues, &pg, src, opts, excfg).map(|r| {
            (
                POut::U32(r.values),
                r.supersteps,
                r.sim_ms,
                r.exchange,
                r.per_superstep,
                r.resumes,
            )
        }),
        "sssp" => partitioned::sssp(&queues, &pg, src, opts, excfg).map(|r| {
            (
                POut::F32(r.values),
                r.supersteps,
                r.sim_ms,
                r.exchange,
                r.per_superstep,
                r.resumes,
            )
        }),
        "cc" => partitioned::cc(&queues, &pg, opts, excfg).map(|r| {
            (
                POut::U32(r.values),
                r.supersteps,
                r.sim_ms,
                r.exchange,
                r.per_superstep,
                r.resumes,
            )
        }),
        _ => unreachable!("guarded by the caller"),
    };
    let (out, supersteps, sim_ms, exchange, per_superstep, resumes) = match result {
        Ok(t) => t,
        Err(e) => {
            eprintln!("run failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    let summary = match &out {
        POut::U32(v) => {
            let reached = v.iter().filter(|&&d| d != u32::MAX).count();
            format!("{reached}/{} vertices reached", v.len())
        }
        POut::F32(v) => {
            let finite = v.iter().filter(|x| x.is_finite()).count();
            let max = v
                .iter()
                .copied()
                .filter(|x| x.is_finite())
                .fold(0f32, f32::max);
            format!("{finite}/{} finite values, max {max:.4}", v.len())
        }
    };

    // Merged per-partition accounting: simulated kernel time per queue,
    // and the load imbalance the edge-cut produced.
    let part_ms: Vec<f64> = queues
        .iter()
        .map(|q| {
            q.profiler()
                .kernels()
                .iter()
                .map(|k| k.stats.total_ns() / 1e6)
                .sum()
        })
        .collect();
    let max_ms = part_ms.iter().copied().fold(0f64, f64::max);
    let mean_ms = part_ms.iter().sum::<f64>() / part_ms.len() as f64;
    let imbalance = if mean_ms > 0.0 { max_ms / mean_ms } else { 1.0 };
    let recovery_events: usize = queues.iter().map(|q| q.profiler().recovery_count()).sum();

    if json {
        let mut doc = HashMap::new();
        doc.insert("algo", serde_json::json!(algo));
        doc.insert("graph", serde_json::json!(graph_spec));
        doc.insert("device", serde_json::json!(profile_dev.name));
        doc.insert("devices", serde_json::json!(devices));
        doc.insert("partition", serde_json::json!(partition.label()));
        doc.insert("vertices", serde_json::json!(host.vertex_count()));
        doc.insert("edges", serde_json::json!(host.edge_count()));
        doc.insert("supersteps", serde_json::json!(supersteps));
        doc.insert("iterations", serde_json::json!(supersteps));
        doc.insert("sim_ms", serde_json::json!(sim_ms));
        doc.insert("exchange_words", serde_json::json!(exchange.words));
        doc.insert("exchange_msgs", serde_json::json!(exchange.msgs));
        doc.insert("exchange_bytes", serde_json::json!(exchange.bytes));
        doc.insert("load_imbalance", serde_json::json!(imbalance));
        doc.insert("recovery_events", serde_json::json!(recovery_events));
        doc.insert("checkpoint_resumes", serde_json::json!(resumes));
        match &out {
            POut::U32(v) => doc.insert("values", serde_json::json!(v)),
            POut::F32(v) => doc.insert("values", serde_json::json!(v)),
        };
        println!("{}", serde_json::to_string(&doc).unwrap());
    } else {
        println!(
            "{algo} on {graph_spec} ({} vertices, {} edges) @ {} \u{d7}{devices} devices, {} partition",
            host.vertex_count(),
            host.edge_count(),
            profile_dev.name,
            partition.label()
        );
        println!("  {supersteps} supersteps, {sim_ms:.3} simulated ms — {summary}");
        println!(
            "  exchange: {} B in {} msgs over {} words ({} supersteps moved bytes)",
            exchange.bytes,
            exchange.msgs,
            exchange.words,
            per_superstep.len()
        );
        if recovery_events > 0 || resumes > 0 {
            println!("  recovery: {recovery_events} events, {resumes} checkpoint resumes");
        }
    }

    if profile {
        println!("  multi-device profile:");
        for (p, q) in queues.iter().enumerate() {
            let launches = q.profiler().kernels().len();
            println!(
                "    device {p}: owned {:>8}, halo {:>7}, kernel {:>9.3} ms \u{d7}{launches:<5} launches, exch out {:>10} B, mem peak {} KB",
                pg.parts[p].owned,
                pg.parts[p].halo.len(),
                part_ms[p],
                q.profiler().exchange_byte_total(),
                q.device().mem_peak() / 1024
            );
        }
        println!("    load imbalance (max/mean kernel ms): {imbalance:.2}\u{d7}");
        // Merged kernel table: per-name totals summed across every
        // device's profiler.
        let mut per: HashMap<String, (f64, usize)> = HashMap::new();
        for q in &queues {
            for k in q.profiler().kernels() {
                let e = per.entry(k.name).or_insert((0.0, 0));
                e.0 += k.stats.total_ns() / 1e6;
                e.1 += 1;
            }
        }
        let mut rows: Vec<_> = per.into_iter().collect();
        rows.sort_by(|a, b| b.1 .0.total_cmp(&a.1 .0).then_with(|| a.0.cmp(&b.0)));
        println!("    merged kernel profile (all devices):");
        for (name, (ms, count)) in rows {
            println!("      {name:<26} {ms:>9.3} ms  \u{d7}{count}");
        }
        if !per_superstep.is_empty() {
            println!("    exchange per superstep:");
            for x in &per_superstep {
                println!(
                    "      superstep {:>4}: {:>7} words, {:>7} msgs, {:>9} B, {:>7} accepted",
                    x.superstep, x.words, x.msgs, x.bytes, x.accepted
                );
            }
        }
        for (p, q) in queues.iter().enumerate() {
            for e in q.profiler().recovery_events() {
                println!(
                    "    device {p} recovery @superstep {:>4}: {} -> {} (attempt {}, t={:.3} ms)",
                    e.superstep,
                    e.fault,
                    e.action,
                    e.attempt,
                    e.t_ns / 1e6
                );
            }
        }
    }
    ExitCode::SUCCESS
}
