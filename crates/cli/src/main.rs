//! `sygraph-cli` — run SYgraph algorithms from the command line.
//!
//! ```text
//! sygraph-cli <algo> <graph> [options]
//!
//! algo    an algorithm of the catalogue (`sygraph_algos::Algo`; the usage
//!         text lists them), or closeness | reach
//! graph   a file (.mtx, .el, .gr, .sygb) or a generated dataset:
//!         gen:ca gen:usa gen:hollyw gen:indo gen:journal gen:kron gen:twitter
//!         (generated at bench scale; set SYG_SCALE=test for the
//!         small CI-sized variants)
//!
//! options
//!   --src <v>         source vertex (default 0; read only by rooted algorithms)
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

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::str::FromStr;

use serde_json::{json, Value};
use sygraph_algos::partitioned::{self, PartitionedResult};
use sygraph_algos::{multi, Algo, Args, Values};
use sygraph_core::engine::RecoveryPolicy;
use sygraph_core::frontier::exchange::ExchangeConfig;
use sygraph_core::frontier::maintenance_payer;
use sygraph_core::graph::{validate_sources, CsrHost, Graph, PartitionSpec, PartitionedGraph};
use sygraph_core::inspector::{Balancing, Direction, OptConfig, Representation};
use sygraph_sim::{Device, DeviceProfile, FaultPlan, Queue, Retire, SimResult, TraceKind};

/// Why a mode ends early. Either message may be empty: the usage text,
/// or what the sanitizer already printed, says it all.
enum Stop {
    /// A wrong command line: the message, the usage text, exit code 2.
    Usage(String),
    /// Loading or running failed: the message, exit code 1.
    Failed(String),
}

fn usage() -> String {
    format!(
        "usage: sygraph-cli <{}|closeness|reach> <graph.{{mtx,el,gr,sygb}}|gen:NAME> \
         [--src V] [--sources A,B,...] [--batch-width 8|16|32|64] \
         [--device v100s|max1100|mi100|host] [--undirected] \
         [--no-msi] [--no-cf] [--no-2lb] [--balancing wg|bucketed|auto] \
         [--frontier dense|sparse|auto] [--direction push|pull|auto] \
         [--devices N] [--partition hash|range] \
         [--delta X] [--json] [--profile] [--sanitize] \
         [--inject-faults SPEC] [--retry N] [--checkpoint-every K]",
        Algo::labels(&Algo::ALL)
    )
}

const SERVE_USAGE: &str =
    "usage: sygraph-cli serve [--addr HOST:PORT] [--device v100s|max1100|mi100|host] \
     [--workers N] [--batch-window-ms MS] [--batch-width 8|16|32|64] \
     [--job-mem-budget BYTES[K|M|G]] [--cache-entries N] \
     [--graphs name=spec[+undirected][+pull],...] [--paused] \
     [--max-queue N] [--default-timeout-ms MS] [--max-timeout-ms MS] \
     [--inject-faults SPEC] [--retry N] [--checkpoint-every K] \
     [--drain-deadline-ms MS] [--breaker-threshold N] [--breaker-open-ms MS] \
     [--http-read-timeout-ms MS]";

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

/// The arguments after the positional ones, as both modes read them.
struct Flags<'a>(std::slice::Iter<'a, String>);

impl<'a> Flags<'a> {
    fn text(&mut self) -> Option<&'a str> {
        self.0.next().map(String::as_str)
    }

    /// The next argument as a `T`; a missing or malformed one ends the
    /// mode with the usage text.
    fn value<T: FromStr>(&mut self) -> Result<T, Stop> {
        let parsed = self.text().and_then(|text| text.parse().ok());
        parsed.ok_or(Stop::Usage(String::new()))
    }

    /// `serve`'s reader: the value of `flag`, a missing one named on
    /// stderr.
    fn value_of(&mut self, flag: &str) -> Result<&'a str, Stop> {
        self.text()
            .ok_or_else(|| Stop::Usage(format!("{flag} needs a value")))
    }

    /// [`value_of`](Flags::value_of) `flag`, parsed.
    fn read<T: FromStr>(&mut self, flag: &str) -> Result<T, Stop> {
        self.value_of(flag)?
            .parse()
            .map_err(|_| Stop::Usage(String::new()))
    }
}

/// `--device`.
fn device_profile(name: &str) -> Result<DeviceProfile, Stop> {
    DeviceProfile::by_name(name).ok_or_else(|| Stop::Usage(format!("unknown device {name}")))
}

/// `--inject-faults`.
fn fault_plan(spec: &str) -> Result<FaultPlan, Stop> {
    FaultPlan::parse(spec).map_err(|e| Stop::Usage(format!("bad --inject-faults spec: {e}")))
}

/// `--retry` / `--checkpoint-every` as a policy: the resilient one,
/// except that the OOM ladder needs a retry budget to climb.
fn recovery(retries: u32, checkpoint_every: u32) -> RecoveryPolicy {
    RecoveryPolicy {
        degrade_on_oom: retries > 0,
        ..RecoveryPolicy::resilient(retries, checkpoint_every)
    }
}

/// `sygraph-cli serve`: start the analytics service and block.
fn serve_main(args: &[String]) -> Result<(), Stop> {
    use sygraph_service::{HttpServer, RegisterOptions, Service, ServiceConfig};

    let mut addr = "127.0.0.1:7878".to_string();
    let mut device = "v100s".to_string();
    let mut cfg = ServiceConfig::default();
    let mut graph_specs: Vec<String> = Vec::new();
    let mut http_read_timeout_ms: u64 = 30_000;
    let mut retry: Option<u32> = None;
    let mut checkpoint_every: Option<u32> = None;
    let mut flags = Flags(args.iter());
    while let Some(flag) = flags.text() {
        match flag {
            "--addr" => addr = flags.read(flag)?,
            "--device" => device = flags.read(flag)?,
            "--workers" => cfg.workers = flags.read(flag)?,
            "--batch-window-ms" => cfg.batch_window_ms = flags.read(flag)?,
            "--batch-width" => cfg.batch_width = flags.read(flag)?,
            "--job-mem-budget" => {
                let bytes = parse_bytes(flags.value_of(flag)?).map_err(Stop::Usage)?;
                cfg.job_mem_budget = Some(bytes);
            }
            "--cache-entries" => cfg.cache_entries = flags.read(flag)?,
            "--graphs" => graph_specs.extend(flags.value_of(flag)?.split(',').map(str::to_string)),
            "--paused" => cfg.start_paused = true,
            "--max-queue" => cfg.max_queue = flags.read(flag)?,
            "--default-timeout-ms" => cfg.default_timeout_ms = Some(flags.read(flag)?),
            "--max-timeout-ms" => cfg.max_timeout_ms = flags.read(flag)?,
            "--inject-faults" => cfg.fault_plan = Some(fault_plan(flags.value_of(flag)?)?),
            "--retry" => retry = Some(flags.read(flag)?),
            "--checkpoint-every" => checkpoint_every = Some(flags.read(flag)?),
            "--drain-deadline-ms" => cfg.drain_deadline_ms = flags.read(flag)?,
            "--breaker-threshold" => cfg.breaker_threshold = flags.read(flag)?,
            "--breaker-open-ms" => cfg.breaker_open_ms = flags.read(flag)?,
            "--http-read-timeout-ms" => http_read_timeout_ms = flags.read(flag)?,
            other => return Err(Stop::Usage(format!("unknown option {other}"))),
        }
    }
    cfg.profile = device_profile(&device)?;
    // Recovery policy: explicit --retry/--checkpoint-every win; a fault
    // plan with neither defaults to the resilient policy, since running
    // chaos against fail-fast workers tests nothing but the breaker.
    cfg.recovery = match (retry, checkpoint_every) {
        (None, None) if cfg.fault_plan.is_some() => RecoveryPolicy::resilient(3, 4),
        (None, None) => RecoveryPolicy::default(),
        (r, c) => recovery(r.unwrap_or(3), c.unwrap_or(4)),
    };

    let service = Service::start(cfg.clone())
        .map_err(|e| Stop::Failed(format!("failed to start service: {e}")))?;

    // Preload graphs: `name=spec[+undirected][+pull]`.
    for entry in &graph_specs {
        let Some((name, rest)) = entry.split_once('=') else {
            let message = format!("bad --graphs entry {entry:?} (expected name=spec)");
            return Err(Stop::Usage(message));
        };
        let mut options = RegisterOptions::default();
        let mut parts = rest.split('+');
        let spec = parts.next().unwrap_or_default();
        for flag in parts {
            match flag {
                "undirected" => options.undirected = true,
                "pull" => options.pull = true,
                other => {
                    let message = format!("bad --graphs flag {other:?} in {entry:?}");
                    return Err(Stop::Usage(message));
                }
            }
        }
        let host = sygraph_service::load_graph_spec(spec)
            .map_err(|e| Stop::Failed(format!("error loading graph {name}: {e}")))?;
        let g = service
            .register_graph(name, host, options)
            .map_err(|e| Stop::Failed(format!("error registering graph {name}: {e}")))?;
        eprintln!(
            "registered {name}: {} vertices, {} edges (version {})",
            g.vertex_count(),
            g.edge_count(),
            g.version
        );
    }

    let service = std::sync::Arc::new(service);
    let read_timeout = std::time::Duration::from_millis(http_read_timeout_ms);
    let mut server = HttpServer::serve_with_read_timeout(service.clone(), &addr, read_timeout)
        .map_err(|e| Stop::Failed(format!("failed to bind {addr}: {e}")))?;
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
    Ok(())
}

/// The run mode's flags.
#[derive(Default)]
struct RunFlags {
    src: u32,
    sources: Vec<u32>,
    batch_width: u32,
    device: String,
    undirected: bool,
    opts: OptConfig,
    direction_explicit: bool,
    /// `--delta`, and `--k` for kcore.
    delta: f32,
    json: bool,
    profile: bool,
    sanitize: bool,
    fault_spec: Option<String>,
    retry: u32,
    checkpoint_every: u32,
    devices: u32,
    /// `--partition`, when given.
    partition: Option<PartitionSpec>,
}

impl RunFlags {
    fn parse(args: &[String]) -> Result<RunFlags, Stop> {
        let mut f = RunFlags {
            batch_width: 32,
            device: "v100s".to_string(),
            delta: Args::default().delta,
            devices: 1,
            ..RunFlags::default()
        };
        let mut flags = Flags(args.iter());
        while let Some(flag) = flags.text() {
            match flag {
                "--src" => f.src = flags.value()?,
                "--sources" => {
                    let list: String = flags.value()?;
                    let sources = list.split(',').map(|v| v.trim().parse().ok());
                    f.sources = sources
                        .collect::<Option<_>>()
                        .ok_or(Stop::Usage(String::new()))?;
                }
                "--batch-width" => {
                    f.batch_width = flags.value()?;
                    if !matches!(f.batch_width, 8 | 16 | 32 | 64) {
                        return Err(Stop::Usage(String::new()));
                    }
                }
                "--device" => f.device = flags.value()?,
                "--undirected" => f.undirected = true,
                "--no-msi" => f.opts.msi = false,
                "--no-cf" => f.opts.coarsening = false,
                "--no-2lb" => f.opts.two_layer = false,
                "--balancing" => {
                    f.opts.balancing = match flags.text() {
                        Some("wg") => Balancing::WorkgroupMapped,
                        Some("bucketed") => Balancing::Bucketed,
                        Some("auto") => Balancing::Auto,
                        _ => return Err(Stop::Usage(String::new())),
                    }
                }
                "--frontier" => {
                    f.opts.representation = match flags.text() {
                        Some("dense") => Representation::Dense,
                        Some("sparse") => Representation::Sparse,
                        Some("auto") => Representation::Auto,
                        _ => return Err(Stop::Usage(String::new())),
                    }
                }
                "--direction" => {
                    f.direction_explicit = true;
                    f.opts.direction = match flags.text() {
                        Some("push") => Direction::Push,
                        Some("pull") => Direction::Pull,
                        Some("auto") => Direction::Auto,
                        _ => return Err(Stop::Usage(String::new())),
                    }
                }
                "--delta" | "--k" => f.delta = flags.value()?,
                "--json" => f.json = true,
                "--profile" => f.profile = true,
                "--sanitize" => f.sanitize = true,
                "--inject-faults" => f.fault_spec = Some(flags.value()?),
                "--retry" => f.retry = flags.value()?,
                "--checkpoint-every" => f.checkpoint_every = flags.value()?,
                "--devices" => {
                    f.devices = flags.value()?;
                    if f.devices == 0 {
                        return Err(Stop::Usage(String::new()));
                    }
                }
                "--partition" => {
                    let spec = flags.text().and_then(PartitionSpec::parse);
                    f.partition = Some(spec.ok_or(Stop::Usage(String::new()))?);
                }
                other => return Err(Stop::Usage(format!("unknown option {other}"))),
            }
        }
        Ok(f)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let serve = args.first().map(String::as_str) == Some("serve");
    let ended = if serve {
        serve_main(&args[1..])
    } else {
        run_main(&args)
    };
    let (message, usage) = match ended {
        Ok(()) => return ExitCode::SUCCESS,
        Err(Stop::Failed(message)) => (message, None),
        Err(Stop::Usage(message)) if serve => (message, Some(SERVE_USAGE.to_string())),
        Err(Stop::Usage(message)) => (message, Some(usage())),
    };
    if !message.is_empty() {
        eprintln!("{message}");
    }
    let Some(usage) = usage else {
        return ExitCode::FAILURE;
    };
    eprintln!("{usage}");
    ExitCode::from(2)
}

/// What every run path's report starts from.
struct Job<'a> {
    /// The algorithm as the command line spelled it.
    name: &'a str,
    graph_spec: &'a str,
    host: &'a CsrHost,
    device: &'a DeviceProfile,
    flags: &'a RunFlags,
}

/// What a run path hands [`Job::report`], whichever path ran.
struct Outcome {
    values: Value,
    iterations: u32,
    sim_ms: f64,
    /// The summary line after the dash.
    summary: String,
    /// Appended to the text header line.
    header: String,
    /// Text lines after the summary line.
    notes: Vec<String>,
    /// JSON fields beside the ones every path reports.
    fields: Vec<(&'static str, Value)>,
}

impl Outcome {
    /// A single-device outcome over per-vertex `values`.
    fn of(values: &Values, iterations: u32, sim_ms: f64) -> Outcome {
        let summary = match values {
            Values::U32(v) => {
                let reached = v.iter().filter(|&&d| d != u32::MAX).count();
                format!("{reached}/{} vertices reached", v.len())
            }
            Values::F32(v) => {
                let finite = v.iter().filter(|x| x.is_finite());
                let max = finite.clone().copied().fold(0f32, f32::max);
                format!("{}/{} finite values, max {max:.4}", finite.count(), v.len())
            }
        };
        Outcome {
            values: json!(values),
            iterations,
            sim_ms,
            summary,
            header: String::new(),
            notes: Vec::new(),
            fields: Vec::new(),
        }
    }
}

impl Job<'_> {
    /// The one text printer and the one JSON writer.
    fn report(&self, out: Outcome, queues: &[Queue]) {
        let (n, m) = (self.host.vertex_count(), self.host.edge_count());
        if self.flags.json {
            let recoveries: usize = queues.iter().map(|q| recoveries(q).len()).sum();
            let mut doc: BTreeMap<&str, Value> = out.fields.into_iter().collect();
            doc.extend([
                ("algo", json!(self.name)),
                ("graph", json!(self.graph_spec)),
                ("device", json!(self.device.name)),
                ("vertices", json!(n)),
                ("edges", json!(m)),
                ("iterations", json!(out.iterations)),
                ("sim_ms", json!(out.sim_ms)),
                ("recovery_events", json!(recoveries)),
                ("values", out.values),
            ]);
            let text = serde_json::to_string(&doc).expect("a JSON value serializes");
            println!("{text}");
        } else {
            println!(
                "{} on {} ({n} vertices, {m} edges) @ {}{}",
                self.name, self.graph_spec, self.device.name, out.header
            );
            println!(
                "  {} supersteps, {:.3} simulated ms — {}",
                out.iterations, out.sim_ms, out.summary
            );
            for note in out.notes {
                println!("  {note}");
            }
        }
    }
}

/// One kernel name's row of the `--profile` table.
struct KernelRow {
    ms: f64,
    launches: usize,
    /// Worst max/mean group-cycle imbalance of any launch.
    imbalance: f64,
    /// Worst idle-lane fraction of any launch.
    idle: f64,
}

/// Per-name totals over every queue's kernel records. Time descending,
/// then name: equal-time rows must not fall back on hash order, or two
/// identical runs print differently.
fn kernel_table(queues: &[Queue]) -> Vec<(String, KernelRow)> {
    let mut per: BTreeMap<String, KernelRow> = BTreeMap::new();
    for k in queues.iter().flat_map(|q| q.profiler().kernels()) {
        let row = per.entry(k.name).or_insert(KernelRow {
            ms: 0.0,
            launches: 0,
            imbalance: 1.0,
            idle: 0.0,
        });
        row.ms += k.stats.total_ns() / 1e6;
        row.launches += 1;
        row.imbalance = row.imbalance.max(k.stats.load_imbalance());
        row.idle = row.idle.max(k.stats.idle_lane_fraction());
    }
    let mut rows: Vec<(String, KernelRow)> = per.into_iter().collect();
    rows.sort_by(|a, b| b.1.ms.total_cmp(&a.1.ms));
    rows
}

/// `q`'s recovery actions in the order the engine took them:
/// `(superstep, t_ns, fault, action, attempt)`.
fn recoveries(q: &Queue) -> Vec<(u32, f64, String, String, u32)> {
    q.profiler().select(|e| match &e.kind {
        TraceKind::Recovery {
            fault,
            action,
            attempt,
        } => Some((e.superstep, e.t_ns, fault.clone(), action.clone(), *attempt)),
        _ => None,
    })
}

/// One `recovery @superstep` line per recovery action of `q`, under `label`.
fn print_recovery_events(q: &Queue, label: &str) {
    for (superstep, t_ns, fault, action, attempt) in recoveries(q) {
        println!(
            "  {label} @superstep {superstep:>4}: {fault} -> {action} (attempt {attempt}, t={:.3} ms)",
            t_ns / 1e6
        );
    }
}

/// The run mode: load the graph, pick the run path, report.
fn run_main(args: &[String]) -> Result<(), Stop> {
    let [name, graph_spec, rest @ ..] = args else {
        return Err(Stop::Usage(String::new()));
    };
    let flags = RunFlags::parse(rest)?;
    let algo = Algo::parse(name);
    let device = device_profile(&flags.device)?;
    let symmetrize = flags.undirected || algo.is_some_and(Algo::needs_undirected);
    let loaded = sygraph_service::load_graph_spec(graph_spec).map_err(|e| e.to_string());
    let symmetric = |host: CsrHost| host.to_undirected().map_err(|e| e.to_string());
    let host = if symmetrize {
        loaded.and_then(symmetric)
    } else {
        loaded
    };
    let host = host.map_err(|e| Stop::Failed(format!("error loading graph: {e}")))?;
    let n = host.vertex_count();
    if n == 0 {
        return Err(Stop::Failed("graph is empty".into()));
    }
    // The same typed boundary check the service request path uses: an
    // out-of-range --src/--sources is rejected here, never handed to the
    // engine where it would wrap or panic. An unrooted algorithm never
    // reads --src; closeness and reach root at it like the rooted ones.
    let src: &[u32] = if algo.is_none_or(Algo::needs_source) {
        std::slice::from_ref(&flags.src)
    } else {
        &[]
    };
    let run_failed = |e: sygraph_sim::SimError| Stop::Failed(format!("run failed: {e}"));
    validate_sources(n, src)
        .and_then(|()| validate_sources(n, &flags.sources))
        .map_err(|e| run_failed(e.into()))?;
    let mut opts = flags.opts;
    if flags.retry > 0 || flags.checkpoint_every > 0 {
        opts.recovery = recovery(flags.retry, flags.checkpoint_every);
    }

    let sharded = flags.devices > 1 || flags.partition.is_some();
    if sharded && flags.sanitize {
        return Err(Stop::Failed("--sanitize is single-device only".into()));
    }
    if sharded && !flags.sources.is_empty() {
        return Err(Stop::Failed("--sources is single-device only".into()));
    }
    let sharded_algo = algo.filter(|a| sharded && a.has_partitioned_driver());
    if sharded && sharded_algo.is_none() {
        let drivers = Algo::ALL.into_iter().filter(|a| a.has_partitioned_driver());
        let drivers = Algo::labels(&drivers.collect::<Vec<_>>());
        return Err(Stop::Usage(format!(
            "--devices supports {drivers}, not {name}"
        )));
    }
    let plan = flags.fault_spec.as_deref().map(fault_plan).transpose()?;
    let job = Job {
        name,
        graph_spec,
        host: &host,
        device: &device,
        flags: &flags,
    };
    if let Some(algo) = sharded_algo {
        return job.run_sharded(algo, &opts, plan).map_err(run_failed);
    }

    let q_device = Device::new(device.clone());
    let mut q = if flags.sanitize {
        // Fixed seed so a reported order dependence reproduces exactly.
        Queue::with_sanitizer(q_device, 0xBADC0DE)
    } else {
        Queue::new(q_device)
    };
    if let Some(plan) = plan {
        q.attach_faults(plan);
    }
    // dobfs always needs the CSC view; batched BC wants it for its
    // in-edge backward sweep; other traversals only pay for it when the
    // user explicitly opts into a pull-capable direction.
    let needs_pull = algo.is_some_and(Algo::needs_pull)
        || (algo == Some(Algo::Bc) && !flags.sources.is_empty())
        || (flags.direction_explicit && opts.direction != Direction::Push);
    let g = if needs_pull {
        Graph::with_pull(&q, &host)
    } else {
        Graph::new(&q, &host)
    };
    let g = g.map_err(|e| Stop::Failed(format!("device error: {e}")))?;

    // A --sources batch (and the inherently multi-source closeness/reach
    // wrappers) goes through the W-lane batched path; everything else is
    // one catalogue run.
    let result = if !flags.sources.is_empty() || matches!(name.as_str(), "closeness" | "reach") {
        let sources = if flags.sources.is_empty() {
            vec![flags.src]
        } else {
            flags.sources.clone()
        };
        let ran = run_batched(algo, name, &q, &g, &sources, flags.batch_width, &opts);
        ran.transpose().ok_or_else(|| {
            Stop::Usage(format!(
                "--sources supports bfs|bc|closeness|reach, not {name}"
            ))
        })?
    } else {
        let algo = algo.ok_or_else(|| Stop::Usage(format!("unknown algorithm {name}")))?;
        let args = Args {
            source: flags.src,
            delta: flags.delta,
        };
        algo.run(&q, &g, args, &opts)
            .map(|r| Outcome::of(&r.values, r.iterations, r.sim_ms))
    };
    let mut out = result.map_err(run_failed)?;

    let recov = recoveries(&q);
    if !recov.is_empty() {
        let mut counts: Vec<(String, usize)> = Vec::new();
        for (_, _, fault, action, _) in &recov {
            let key = format!("{fault}->{action}");
            match counts.iter_mut().find(|(k, _)| *k == key) {
                Some((_, c)) => *c += 1,
                None => counts.push((key, 1)),
            }
        }
        let parts: Vec<String> = counts
            .iter()
            .map(|(k, c)| format!("{k}\u{d7}{c}"))
            .collect();
        let note = format!("recovery: {} events ({})", recov.len(), parts.join(", "));
        out.notes.push(note);
    }
    job.report(out, std::slice::from_ref(&q));
    if flags.profile {
        print_profile(&q);
    }
    if let Some(san) = q.sanitizer() {
        println!("{}", san.report());
        if !san.is_clean() {
            return Err(Stop::Failed(String::new()));
        }
    }
    Ok(())
}

/// What [`run_batched`] reads off a lane-batched result: values,
/// supersteps, batches, modelled ms, and what the sources found.
type Batched = (Value, u32, u32, f64, String);

fn lanes<T>(values: Value, r: &multi::MultiResult<T>, found: String) -> Batched {
    (values, r.iterations, r.batches, r.sim_ms, found)
}

/// The `--sources` path: `name`'s W-lane batched run over `sources`;
/// `None` when it has none.
fn run_batched(
    algo: Option<Algo>,
    name: &str,
    q: &Queue,
    g: &Graph,
    sources: &[u32],
    width: u32,
    opts: &OptConfig,
) -> SimResult<Option<Outcome>> {
    let (values, iterations, batches, sim_ms, found): Batched = match (algo, name) {
        (Some(Algo::Bfs), _) => {
            let r = multi::bfs_multi(q, &g.csr, sources, width, opts)?;
            let reached = r.per_source.iter().flatten();
            let reached = reached.filter(|&&d| d != u32::MAX).count();
            let pairs = g.vertex_count() * sources.len();
            let found = format!("{reached}/{pairs} vertices reached in total");
            lanes(json!(r.per_source), &r, found)
        }
        (Some(Algo::Bc), _) => {
            let r = multi::bc_multi(q, g, sources, width, opts)?;
            let max = r.per_source.iter().flatten().copied().fold(0f32, f32::max);
            let found = format!("max dependency {max:.4}");
            lanes(json!(r.per_source), &r, found)
        }
        (None, "closeness") => {
            let r = multi::closeness_multi(q, &g.csr, sources, width, opts)?;
            let max = r.scores.iter().copied().fold(0f32, f32::max);
            let batches = sources.len().div_ceil(width as usize) as u32;
            let found = format!("max closeness {max:.4}");
            (json!(r.scores), r.iterations, batches, r.sim_ms, found)
        }
        (None, "reach") => {
            let r = multi::reachability_multi(q, &g.csr, sources, width, opts)?;
            let reached = r.per_source.iter().flatten().filter(|&&x| x).count();
            let found = format!("{reached} (source, vertex) pairs reachable");
            lanes(json!(r.per_source), &r, found)
        }
        _ => return Ok(None),
    };
    Ok(Some(Outcome {
        values,
        iterations,
        sim_ms,
        summary: format!(
            "{} sources, {found} ({batches} batches of width {width})",
            sources.len()
        ),
        header: String::new(),
        notes: Vec::new(),
        fields: vec![
            ("sources", json!(sources)),
            ("batches", json!(batches)),
            ("batch_width", json!(width)),
        ],
    }))
}

/// The single-device `--profile` section.
fn print_profile(q: &Queue) {
    println!("  kernel profile:");
    for (name, row) in kernel_table(std::slice::from_ref(q)) {
        println!(
            "    {name:<22} {:>9.3} ms  \u{d7}{:<5} imbal {:>6.2}\u{d7}  idle {:>5.1}%",
            row.ms,
            row.launches,
            row.imbalance,
            row.idle * 100.0
        );
    }
    // Per-superstep frontier-representation trace (one `Plan` event per
    // superstep whenever the run went through the engine), run-length
    // encoded, plus greppable switch counters and the
    // frontier-maintenance kernel cost split by representation.
    let prof = q.profiler();
    let reps = prof.rep_events();
    if !reps.is_empty() {
        println!(
            "  frontier representation: {}",
            rle(reps.iter().map(|e| &e.rep))
        );
        let switches_to = |rep: &str| reps.iter().filter(|e| e.switched && e.rep == rep).count();
        println!("  sparse->dense switches: {}", switches_to("dense"));
        println!("  dense->sparse switches: {}", switches_to("sparse"));
        // Folded from +0.0: an empty `f64` sum is -0.0, printed "-0.000".
        let cost_of = |payer: &str| -> f64 {
            prof.kernels()
                .iter()
                .filter(|k| maintenance_payer(&k.name) == Some(payer))
                .fold(0.0, |ms, k| ms + k.stats.total_ns() / 1e6)
        };
        println!(
            "  frontier maintenance: dense compaction {:.3} ms, sparse upkeep {:.3} ms",
            cost_of("dense"),
            cost_of("sparse"),
        );
        // How each retired input was cleared: inside the next advance
        // launch, or by a launch of its own (whose time is in the split
        // above; an inline clear's is inside the `advance*` rows).
        let retired = |inline: bool| {
            prof.count(|k| match k {
                TraceKind::Plan { retired, .. } if *retired != Retire::None => {
                    (*retired == Retire::Inline) == inline
                }
                _ => false,
            })
        };
        println!(
            "  retired inline \u{d7}{}, stand-alone \u{d7}{}",
            retired(true),
            retired(false)
        );
    }
    let dirs = prof.direction_events();
    if !dirs.is_empty() {
        println!(
            "  traversal direction: {}",
            rle(dirs.iter().map(|e| &e.direction))
        );
        let switches = dirs.iter().filter(|e| e.switched).count();
        println!("  direction switches: {switches}");
    }
    let lanes = prof.select(|e| match e.kind {
        TraceKind::Lanes { active, retired } => Some((active, retired)),
        _ => None,
    });
    if !lanes.is_empty() {
        println!("  active lanes: {}", rle(lanes.iter().map(|l| l.0)));
        println!(
            "  lanes retired: {}",
            lanes.iter().map(|l| l.1).sum::<u32>()
        );
    }
    print_recovery_events(q, "recovery");
    println!("  device memory peak: {} KB", q.device().mem_peak() / 1024);
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

impl Job<'_> {
    /// The `--devices N` path: partition, run `algo`'s multi-device BSP
    /// driver, one queue per device, and report the merged accounting.
    fn run_sharded(&self, algo: Algo, opts: &OptConfig, plan: Option<FaultPlan>) -> SimResult<()> {
        let flags = self.flags;
        let partition = flags.partition.unwrap_or(PartitionSpec::Hash);
        let pg = PartitionedGraph::build(self.host, partition, flags.devices);
        let mut queues: Vec<Queue> = (0..flags.devices)
            .map(|_| Queue::new(Device::new(self.device.clone())))
            .collect();
        if let Some(plan) = plan {
            // Deterministic plans land on partition 0's queue; the other
            // partitions keep running and the exchange carries them
            // through that partition's checkpoint resume.
            queues[0].attach_faults(plan);
        }
        let (excfg, src) = (ExchangeConfig::default(), flags.src);
        // The drivers return their own element types, so each arm
        // reports for itself.
        match algo {
            Algo::Bfs => partitioned::bfs(&queues, &pg, src, opts, excfg)
                .map(|r| self.report_sharded(r, partition, &pg, &queues)),
            Algo::Sssp => partitioned::sssp(&queues, &pg, src, opts, excfg)
                .map(|r| self.report_sharded(r, partition, &pg, &queues)),
            Algo::Cc => partitioned::cc(&queues, &pg, opts, excfg)
                .map(|r| self.report_sharded(r, partition, &pg, &queues)),
            _ => unreachable!("{algo} has no partitioned driver"),
        }
    }

    fn report_sharded<T>(
        &self,
        r: PartitionedResult<T>,
        partition: PartitionSpec,
        pg: &PartitionedGraph,
        queues: &[Queue],
    ) where
        Values: From<Vec<T>>,
    {
        // Merged per-partition accounting: simulated kernel time per
        // queue, and the load imbalance the edge-cut produced.
        let part_ms: Vec<f64> = queues
            .iter()
            .map(|q| {
                let kernels = q.profiler().kernels();
                kernels.iter().map(|k| k.stats.total_ns() / 1e6).sum()
            })
            .collect();
        let max_ms = part_ms.iter().copied().fold(0f64, f64::max);
        let mean_ms = part_ms.iter().sum::<f64>() / part_ms.len() as f64;
        let imbalance = if mean_ms > 0.0 { max_ms / mean_ms } else { 1.0 };
        let recoveries: usize = queues.iter().map(|q| recoveries(q).len()).sum();
        let (exchange, resumes, devices) = (r.exchange, r.resumes, self.flags.devices);

        let mut out = Outcome::of(&r.values.into(), r.supersteps, r.sim_ms);
        out.header = format!(" \u{d7}{devices} devices, {} partition", partition.label());
        out.notes.push(format!(
            "exchange: {} B in {} msgs over {} words ({} supersteps moved bytes)",
            exchange.bytes,
            exchange.msgs,
            exchange.words,
            r.per_superstep.len()
        ));
        if recoveries > 0 || resumes > 0 {
            out.notes.push(format!(
                "recovery: {recoveries} events, {resumes} checkpoint resumes"
            ));
        }
        out.fields = vec![
            ("devices", json!(devices)),
            ("partition", json!(partition.label())),
            ("supersteps", json!(r.supersteps)),
            ("exchange_words", json!(exchange.words)),
            ("exchange_msgs", json!(exchange.msgs)),
            ("exchange_bytes", json!(exchange.bytes)),
            ("load_imbalance", json!(imbalance)),
            ("checkpoint_resumes", json!(resumes)),
        ];
        self.report(out, queues);
        if !self.flags.profile {
            return;
        }

        println!("  multi-device profile:");
        for (p, q) in queues.iter().enumerate() {
            let launches = q.profiler().kernel_count();
            let exch_out = q.profiler().fold(0, |sum, e| match e.kind {
                TraceKind::Exchange { bytes, .. } => sum + bytes,
                _ => sum,
            });
            println!(
                "    device {p}: owned {:>8}, halo {:>7}, kernel {:>9.3} ms \u{d7}{launches:<5} launches, exch out {exch_out:>10} B, mem peak {} KB",
                pg.parts[p].owned,
                pg.parts[p].halo.len(),
                part_ms[p],
                q.device().mem_peak() / 1024
            );
        }
        println!("    load imbalance (max/mean kernel ms): {imbalance:.2}\u{d7}");
        println!("    merged kernel profile (all devices):");
        for (name, row) in kernel_table(queues) {
            println!(
                "      {name:<26} {:>9.3} ms  \u{d7}{}",
                row.ms, row.launches
            );
        }
        if !r.per_superstep.is_empty() {
            println!("    exchange per superstep:");
            for x in &r.per_superstep {
                println!(
                    "      superstep {:>4}: {:>7} words, {:>7} msgs, {:>9} B, {:>7} accepted",
                    x.superstep, x.words, x.msgs, x.bytes, x.accepted
                );
            }
        }
        for (p, q) in queues.iter().enumerate() {
            print_recovery_events(q, &format!("  device {p} recovery"));
        }
    }
}
