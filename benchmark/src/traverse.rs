//! The two direct-library workloads: one caller thread runs a seeded list
//! of `sygraph_algos` calls on device-resident graphs.
//!
//! `traverse-road` is launch-bound (roadNet-CA: hundreds of supersteps of a
//! few hundred edges each); `traverse-skew` is edge-bound (kron and
//! hollywood: a handful of supersteps over ~700 k edges). The op list is a
//! sequence of *rounds* of identical composition, and the timed phase runs
//! whole rounds only, so every run does the same mix of work per op no
//! matter how many rounds fit into `--seconds`.

use std::time::Instant;

use sygraph_algos::{bc, bfs, cc, multi, pagerank, partitioned, sssp};
use sygraph_core::frontier::exchange::ExchangeConfig;
use sygraph_core::graph::{CsrHost, DeviceGraphView, Graph, PartitionSpec, PartitionedGraph};
use sygraph_core::inspector::OptConfig;
use sygraph_gen::{datasets, Dataset, Scale};
use sygraph_sim::{Accounting, Device, DeviceProfile, Queue, SimResult};

use crate::layers::{engine_metrics, launch_host_us, KernelAgg, PolicyAgg};
use crate::report::{RunArgs, RunReport};
use crate::spec::Workload;
use crate::trace::Tracer;
use crate::util::{
    cpu_seconds, median, ms, peak_rss_mb, sample_useful_sources, scaled_profile, Rng,
};
use crate::verify::{Oracle, Output};

/// Ops replayed with the cost model off for `sim.model_host_share`.
const REPLAY_OPS: usize = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    Bfs,
    Sssp,
    Cc,
    Bc,
    Pagerank,
    BfsMulti,
    PartBfs,
}

impl Algo {
    /// Span name of a call, and the stem of its `algos.<a>.*` metrics.
    fn span(self) -> &'static str {
        match self {
            Algo::Bfs => "algos.bfs",
            Algo::Sssp => "algos.sssp",
            Algo::Cc => "algos.cc",
            Algo::Bc => "algos.bc",
            Algo::Pagerank => "algos.pagerank",
            Algo::BfsMulti => "algos.bfs_multi",
            Algo::PartBfs => "algos.part_bfs",
        }
    }

    const ALL: [Algo; 7] = [
        Algo::Bfs,
        Algo::Sssp,
        Algo::Cc,
        Algo::Bc,
        Algo::Pagerank,
        Algo::BfsMulti,
        Algo::PartBfs,
    ];
}

/// What one round runs on *each* graph of the workload.
struct Plan {
    datasets: fn(Scale) -> Vec<Dataset>,
    per_graph: &'static [(Algo, usize)],
    /// Lanes of one `bfs_multi` op.
    multi_width: u32,
}

impl Plan {
    fn of(workload: Workload) -> Plan {
        match workload {
            // roadNet-CA rather than road-USA: the same launch-bound shape
            // (190-300 supersteps of a few hundred edges) at half the cost
            // per op, so that 100 ops fit into one run. CC and PageRank are
            // left out: on a road grid they keep most vertices active for
            // hundreds of supersteps (seconds per op), which is edge-bound
            // work. BC is left out because its f32 path counts overflow on
            // a grid (~C(300,150) shortest paths) and cannot be verified.
            // `bfs_multi` runs 8 lanes here to stay near the cost of an op.
            Workload::TraverseRoad => Plan {
                datasets: |scale| vec![datasets::road_ca(scale)],
                per_graph: &[(Algo::Bfs, 12), (Algo::Sssp, 7), (Algo::BfsMulti, 1)],
                multi_width: 8,
            },
            Workload::TraverseSkew => Plan {
                datasets: |scale| vec![datasets::kron(scale), datasets::hollywood(scale)],
                per_graph: &[
                    (Algo::Bfs, 13),
                    (Algo::Sssp, 4),
                    (Algo::Bc, 2),
                    (Algo::Cc, 1),
                    (Algo::Pagerank, 1),
                    (Algo::BfsMulti, 1),
                    (Algo::PartBfs, 1),
                ],
                multi_width: 32,
            },
            other => unreachable!("{} is not a direct workload", other.name()),
        }
    }

    fn uses(&self, algo: Algo) -> bool {
        self.per_graph.iter().any(|&(a, _)| a == algo)
    }

    /// Sources one round draws from a graph's pool.
    fn sources_per_round(&self) -> usize {
        self.per_graph
            .iter()
            .map(|&(algo, count)| match algo {
                Algo::Cc | Algo::Pagerank => 0,
                Algo::BfsMulti => count * self.multi_width as usize,
                _ => count,
            })
            .sum()
    }

    fn ops_per_round(&self, graphs: usize) -> usize {
        graphs * self.per_graph.iter().map(|&(_, c)| c).sum::<usize>()
    }
}

#[derive(Debug, Clone)]
struct Op {
    algo: Algo,
    graph: usize,
    /// One source, `multi_width` of them for `BfsMulti`, none for CC and
    /// PageRank.
    sources: Vec<u32>,
}

/// One dataset resident on its own simulated device.
struct GraphCtx {
    ds: Dataset,
    /// Symmetrized host graph and its device copy, where the plan runs CC.
    undirected: Option<(CsrHost, Graph)>,
    q: Queue,
    g: Graph,
    /// Two hash partitions on two more devices, where the plan runs the
    /// partitioned BFS.
    part: Option<(PartitionedGraph, Vec<Queue>)>,
    /// Seeded pool of distinct useful sources; rounds consume it in order.
    pool: Vec<u32>,
}

impl GraphCtx {
    fn queues(&self) -> impl Iterator<Item = &Queue> {
        std::iter::once(&self.q).chain(self.part.iter().flat_map(|(_, qs)| qs.iter()))
    }
}

/// Generates, uploads and (unless `accounting` is off) warms every graph
/// of the plan. This is the work `setup_s` times.
fn build(
    plan: &Plan,
    args: &RunArgs,
    accounting: Accounting,
    warm: bool,
    tracer: &Tracer,
) -> Vec<GraphCtx> {
    let scale = if args.smoke {
        Scale::Test
    } else {
        Scale::Bench
    };
    let root = tracer.begin("setup", 0, None, 0);
    let sets = tracer.scope("gen.generate", 0, root, || (plan.datasets)(scale));
    let mut ctxs = Vec::new();
    for (i, ds) in sets.into_iter().enumerate() {
        let profile = scaled_profile(&DeviceProfile::v100s(), &ds);
        let q = Queue::with_accounting(Device::new(profile.clone()), accounting);
        let g = tracer.scope("core.graph.upload", 0, root, || {
            Graph::with_pull(&q, &ds.host).expect("upload graph")
        });
        tracer.scope("core.graph.pull_build", 0, root, || {
            g.ensure_pull(&q).expect("build pull mirror")
        });
        let undirected = plan.uses(Algo::Cc).then(|| {
            let host = tracer.scope("gen.generate", 0, root, || ds.undirected());
            let gu = tracer.scope("core.graph.upload", 0, root, || {
                Graph::with_pull(&q, &host).expect("upload undirected graph")
            });
            tracer.scope("core.graph.pull_build", 0, root, || {
                gu.ensure_pull(&q).expect("build undirected pull mirror")
            });
            (host, gu)
        });
        let part = plan.uses(Algo::PartBfs).then(|| {
            let pg = PartitionedGraph::build(&ds.host, PartitionSpec::Hash, 2);
            let queues = (0..2)
                .map(|_| Queue::with_accounting(Device::new(profile.clone()), accounting))
                .collect();
            (pg, queues)
        });
        let useful = (0..ds.host.vertex_count() as u32)
            .filter(|&v| ds.host.degree(v) > 0)
            .count();
        let pool = sample_useful_sources(
            &ds.host,
            useful.min(4096),
            &mut Rng::new(args.seed, 10 + i as u64),
        );
        ctxs.push(GraphCtx {
            ds,
            undirected,
            q,
            g,
            part,
            pool,
        });
    }
    if warm {
        // One op per (graph, algo), so lazy mirrors are built and the
        // modelled caches are filled before anything is timed. Sources come
        // from the far end of the pool, which the timed rounds reach last.
        let warm_span = tracer.begin("warmup", 0, root, 0);
        for (graph, ctx) in ctxs.iter().enumerate() {
            for &(algo, _) in plan.per_graph {
                let lanes = if algo == Algo::BfsMulti {
                    plan.multi_width as usize
                } else {
                    1
                };
                let sources = ctx.pool[ctx.pool.len() - lanes..].to_vec();
                let op = Op {
                    algo,
                    graph,
                    sources,
                };
                run_op(&ctxs, &op, plan.multi_width).expect("warm-up op");
                for q in ctx.queues() {
                    q.profiler().reset();
                }
            }
        }
        tracer.end(warm_span);
    }
    tracer.end(root);
    ctxs
}

/// The ops of round `round`: the plan's multiset on every graph, in an
/// order shuffled from the seed, each taking the next unused sources of
/// its graph's pool.
fn round_ops(plan: &Plan, ctxs: &[GraphCtx], seed: u64, round: usize) -> Vec<Op> {
    let mut ops = Vec::new();
    for (graph, ctx) in ctxs.iter().enumerate() {
        let mut cursor = round * plan.sources_per_round();
        let mut take = |n: usize| -> Vec<u32> {
            let picked = (0..n)
                .map(|k| ctx.pool[(cursor + k) % ctx.pool.len()])
                .collect();
            cursor += n;
            picked
        };
        for &(algo, count) in plan.per_graph {
            for _ in 0..count {
                let sources = match algo {
                    Algo::Cc | Algo::Pagerank => Vec::new(),
                    Algo::BfsMulti => take(plan.multi_width as usize),
                    _ => take(1),
                };
                ops.push(Op {
                    algo,
                    graph,
                    sources,
                });
            }
        }
    }
    Rng::new(seed, 1000 + round as u64).shuffle(&mut ops);
    ops
}

struct OpDone {
    sim_ms: f64,
    supersteps: u32,
    output: Output,
}

/// The call into `sygraph_algos` that an op stands for.
fn run_op(ctxs: &[GraphCtx], op: &Op, multi_width: u32) -> SimResult<OpDone> {
    let ctx = &ctxs[op.graph];
    let opts = OptConfig::all();
    let src = op.sources.first().copied().unwrap_or(0);
    Ok(match op.algo {
        Algo::Bfs => {
            let r = bfs::run_fused(&ctx.q, &ctx.g, src, &opts)?;
            OpDone {
                sim_ms: r.sim_ms,
                supersteps: r.iterations,
                output: Output::Bfs {
                    src,
                    dist: r.values,
                },
            }
        }
        Algo::Sssp => {
            let r = sssp::run(&ctx.q, &ctx.g.csr, src, &opts)?;
            OpDone {
                sim_ms: r.sim_ms,
                supersteps: r.iterations,
                output: Output::Sssp {
                    src,
                    dist: r.values,
                },
            }
        }
        Algo::Cc => {
            let (_, gu) = ctx.undirected.as_ref().expect("plan runs cc");
            let r = cc::run(&ctx.q, gu, &opts)?;
            OpDone {
                sim_ms: r.sim_ms,
                supersteps: r.iterations,
                output: Output::Cc { labels: r.values },
            }
        }
        Algo::Bc => {
            let r = bc::run(&ctx.q, &ctx.g.csr, src, &opts)?;
            OpDone {
                sim_ms: r.sim_ms,
                supersteps: r.iterations,
                output: Output::Bc {
                    src,
                    delta: r.values,
                },
            }
        }
        Algo::Pagerank => {
            let r = pagerank::run(&ctx.q, &ctx.g.csr, &opts, Default::default())?;
            OpDone {
                sim_ms: r.sim_ms,
                supersteps: r.iterations,
                output: Output::Pagerank {
                    iterations: r.iterations,
                    ranks: r.values,
                },
            }
        }
        Algo::BfsMulti => {
            let r = multi::bfs_multi(&ctx.q, &ctx.g.csr, &op.sources, multi_width, &opts)?;
            OpDone {
                sim_ms: r.sim_ms,
                supersteps: r.iterations,
                output: Output::BfsLanes {
                    sources: r.sources,
                    dist: r.per_source,
                },
            }
        }
        Algo::PartBfs => {
            let (pg, queues) = ctx.part.as_ref().expect("plan runs partitioned bfs");
            let r = partitioned::bfs(queues, pg, src, &opts, ExchangeConfig::default())?;
            OpDone {
                sim_ms: r.sim_ms,
                supersteps: r.supersteps,
                output: Output::Bfs {
                    src,
                    dist: r.values,
                },
            }
        }
    })
}

struct OpRecord {
    algo: Algo,
    graph: usize,
    wall_ms: f64,
    sim_ms: f64,
    launches: u64,
    supersteps: u32,
    /// The call succeeded and its output matched the host reference.
    ok: bool,
    /// Ran in a traced round.
    traced: bool,
}

/// What the timed rounds measured. Verification runs between rounds and
/// is not part of `wall_s` or `cpu_s`.
struct Phase {
    records: Vec<OpRecord>,
    wall_s: f64,
    cpu_s: f64,
    /// (ops, seconds) of the untraced and of the traced rounds.
    rates: [(usize, f64); 2],
}

/// Runs whole rounds until `seconds` have passed (to the nearest round)
/// and at least `min_ops` ops are done. Each round's outputs are verified
/// against the host reference before the next round starts, so memory does
/// not grow with the number of rounds. With `aggs`, odd rounds are traced:
/// their ops are recorded as spans and their kernel records and policy
/// traces are folded in; even rounds run exactly as in an untraced run.
fn timed_phase(
    plan: &Plan,
    ctxs: &[GraphCtx],
    args: &RunArgs,
    min_ops: usize,
    tracer: &Tracer,
    mut aggs: Option<&mut (KernelAgg, PolicyAgg)>,
    report: &mut RunReport,
) -> Phase {
    let mut phase = Phase {
        records: Vec::new(),
        wall_s: 0.0,
        cpu_s: 0.0,
        rates: [(0, 0.0); 2],
    };
    for round in 0.. {
        let traced = aggs.is_some() && round % 2 == 1;
        let ops = round_ops(plan, ctxs, args.seed, round);
        let mut outputs = Vec::with_capacity(ops.len());
        let cpu0 = cpu_seconds();
        let t0 = Instant::now();
        for op in &ops {
            let start = Instant::now();
            let done = run_op(ctxs, op, plan.multi_width);
            let end = Instant::now();
            if traced {
                let op_id = phase.records.len() as u32;
                tracer.record(op.algo.span(), op_id, None, 0, start, end);
            }
            let mut launches = 0;
            for q in ctxs[op.graph].queues() {
                let prof = q.profiler();
                launches += prof.kernel_count() as u64;
                if let (true, Some((kernels, policy))) = (traced, aggs.as_deref_mut()) {
                    kernels.add(&prof.kernels());
                    policy.add(&prof.direction_events(), &prof.rep_events());
                }
                // The profiler log grows with every launch; clearing it per
                // op keeps peak_rss_mb independent of how many rounds ran.
                prof.reset();
            }
            let (sim_ms, supersteps, output) = match done {
                Ok(d) => (d.sim_ms, d.supersteps, Ok(d.output)),
                Err(e) => (0.0, 0, Err(e.to_string())),
            };
            outputs.push(output);
            phase.records.push(OpRecord {
                algo: op.algo,
                graph: op.graph,
                wall_ms: ms(end - start),
                sim_ms,
                launches,
                supersteps,
                ok: false,
                traced,
            });
        }
        let round_s = t0.elapsed().as_secs_f64();
        phase.wall_s += round_s;
        phase.cpu_s += cpu_seconds() - cpu0;
        phase.rates[traced as usize].0 += ops.len();
        phase.rates[traced as usize].1 += round_s;

        // Fresh oracles every round: rounds hardly ever repeat a source,
        // and kept references would grow peak_rss_mb with the round count.
        let mut oracles: Vec<Oracle> = ctxs
            .iter()
            .map(|c| Oracle::new(&c.ds.host, c.undirected.as_ref().map(|(h, _)| h)))
            .collect();
        let first = phase.records.len() - ops.len();
        for (rec, output) in phase.records[first..].iter_mut().zip(outputs) {
            report.attempted += 1;
            let verdict = match output {
                Ok(out) => oracles[rec.graph].check(&out),
                Err(e) => Err(format!("call failed: {e}")),
            };
            match verdict {
                Ok(()) => rec.ok = true,
                Err(why) => report.fail(format!(
                    "{} on {}: {why}",
                    rec.algo.span(),
                    ctxs[rec.graph].ds.key
                )),
            }
        }
        let half_round = phase.wall_s / (round + 1) as f64 / 2.0;
        if phase.records.len() >= min_ops && phase.wall_s + half_round >= args.seconds {
            break;
        }
    }
    phase
}

pub fn run(args: RunArgs) -> RunReport {
    let plan = Plan::of(args.workload);
    let mut report = RunReport::new(args);
    let tracer = Tracer::new(args.trace);
    let min_ops = args.min_timed_ops();

    // Set-up, repeated so that setup_s is a median; only the last is kept.
    let mut setup_s = Vec::new();
    let mut ctxs = Vec::new();
    while args.more_setups(&setup_s) {
        drop(std::mem::take(&mut ctxs));
        let t = Instant::now();
        ctxs = build(&plan, &args, Accounting::Full, true, &tracer);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    report.count("set-ups", setup_s.len());

    let mut aggs = (KernelAgg::default(), PolicyAgg::default());
    let phase = timed_phase(
        &plan,
        &ctxs,
        &args,
        min_ops,
        &tracer,
        args.trace.then_some(&mut aggs),
        &mut report,
    );
    let n = phase.records.len();
    report.count("timed ops", n);
    report.count("rounds", n / plan.ops_per_round(ctxs.len()));

    if !args.trace {
        let walls: Vec<f64> = phase.records.iter().map(|r| r.wall_ms).collect();
        let limit = args.workload.slo_limit_ms();
        let good = phase.records.iter().filter(|r| r.ok).count();
        let within = phase
            .records
            .iter()
            .filter(|r| r.ok && r.wall_ms <= limit)
            .count();
        let dev_peak = ctxs
            .iter()
            .flat_map(GraphCtx::queues)
            .map(|q| q.device().mem_peak())
            .max()
            .unwrap_or(0);
        report.set("setup_s", median(&setup_s));
        report.set("ops_per_s", good as f64 / phase.wall_s);
        report.set("op_ms_p50", median(&walls));
        let p90 = report.tail_or_median(&walls, 90.0);
        report.set("op_ms_p90", p90);
        report.set(
            "modelled_ms_per_op",
            phase.records.iter().map(|r| r.sim_ms).sum::<f64>() / n as f64,
        );
        report.set("cpu_ms_per_op", phase.cpu_s * 1e3 / n as f64);
        report.set("peak_rss_mb", peak_rss_mb());
        report.set("dev_mem_peak_mb", dev_peak as f64 / 1e6);
        report.set("slo_ok_share", within as f64 / n as f64);
        return report;
    }

    // Tracing overhead: ops per second of the untraced rounds over that of
    // the traced rounds, interleaved in one phase.
    let rate = |(ops, secs): (usize, f64)| ops as f64 / secs.max(1e-9);
    report.set_trace_overhead(rate(phase.rates[0]), rate(phase.rates[1]));
    let traced: Vec<&OpRecord> = phase.records.iter().filter(|r| r.traced).collect();
    let n = traced.len().max(1);
    report.count("traced ops", traced.len());

    // Set-up layers, from the set-up spans.
    let sum = |name: &str| tracer.durations_ms(name).iter().sum::<f64>();
    report.set("gen.generate_ms", sum("gen.generate"));
    report.set("core.graph.upload_ms", sum("core.graph.upload"));
    report.set("core.graph.pull_build_ms", sum("core.graph.pull_build"));
    let device_bytes: u64 = ctxs
        .iter()
        .map(|c| c.g.device_bytes() + c.undirected.as_ref().map_or(0, |(_, gu)| gu.device_bytes()))
        .sum();
    report.set("core.graph.device_mb", device_bytes as f64 / 1e6);

    // Exact counts, and host cost per launch and per edge.
    let launches: u64 = traced.iter().map(|r| r.launches).sum();
    let supersteps: u64 = traced.iter().map(|r| r.supersteps as u64).sum();
    let wall_ms: f64 = traced.iter().map(|r| r.wall_ms).sum();
    let edges: f64 = traced
        .iter()
        .map(|r| ctxs[r.graph].ds.host.edge_count() as f64)
        .sum();
    report.set_all(engine_metrics(n, launches, supersteps, wall_ms, edges));
    report.set("sim.cpu_wall_ratio", phase.cpu_s / phase.wall_s);
    report.set_all(aggs.0.metrics(n));
    report.set_all(aggs.1.metrics(n));

    // Per-algorithm medians, from the op spans and the op records.
    for algo in Algo::ALL {
        let modelled: Vec<f64> = traced
            .iter()
            .filter(|r| r.algo == algo)
            .map(|r| r.sim_ms)
            .collect();
        if !modelled.is_empty() {
            let stem = algo.span();
            report.set(
                &format!("{stem}.wall_ms_p50"),
                median(&tracer.durations_ms(stem)),
            );
            report.set(&format!("{stem}.modelled_ms_p50"), median(&modelled));
        }
    }
    if plan.uses(Algo::Pagerank) {
        // PageRank takes no source, so its runs on one graph are identical
        // requests; any spread in their sweep counts is nondeterminism.
        let spread = (0..ctxs.len())
            .map(|graph| {
                let iters: Vec<u32> = phase
                    .records
                    .iter()
                    .filter(|r| r.algo == Algo::Pagerank && r.graph == graph)
                    .map(|r| r.supersteps)
                    .collect();
                iters.iter().max().unwrap_or(&0) - iters.iter().min().unwrap_or(&0)
            })
            .max()
            .unwrap_or(0);
        report.set("algos.pagerank.iterations_spread", spread as f64);
    }

    report.set("sim.launch_host_us", launch_host_us(ctxs[0].q.profile()));

    // Host share of the cost model: the first ops again, on queues with
    // accounting off, against their wall time in the timed rounds.
    let replay_n = REPLAY_OPS.min(phase.records.len());
    let bare = build(&plan, &args, Accounting::Off, false, &Tracer::new(false));
    let replay_ops: Vec<Op> = (0..)
        .flat_map(|round| round_ops(&plan, &bare, args.seed, round))
        .take(replay_n)
        .collect();
    let t = Instant::now();
    for op in &replay_ops {
        run_op(&bare, op, plan.multi_width).expect("replay with accounting off");
        for q in bare[op.graph].queues() {
            q.profiler().reset();
        }
    }
    let off_ms = ms(t.elapsed());
    let full_ms: f64 = phase.records[..replay_n].iter().map(|r| r.wall_ms).sum();
    report.count("ops replayed with accounting off", replay_n);
    report.set("sim.model_host_share", 1.0 - off_ms / full_ms);

    report.write_trace(&tracer);
    report
}
