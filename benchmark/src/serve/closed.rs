//! `serve-closed-mix`: the request lists, the two closed-loop clients, and
//! the traced run's three-way replay.

use std::collections::HashMap;
use std::time::Instant;

use sygraph_algos::{bc, bfs, cc, pagerank, sssp};
use sygraph_core::graph::Graph;
use sygraph_core::inspector::OptConfig;
use sygraph_service::StatsSnapshot;
use sygraph_sim::{Device, DeviceProfile, Queue};

use super::{
    dev_mem_peak_mb, post_job, stats_metrics, status_counts, Algo, Req, Sample, Server, Verifier,
    CLIENTS,
};
use crate::layers::{engine_metrics, launch_host_us, KernelAgg, PolicyAgg};
use crate::report::{RunArgs, RunReport};
use crate::trace::Tracer;
use crate::util::{cpu_seconds, mean, median, ms, peak_rss_mb, Rng};
use crate::verify::Output;

/// Requests replayed three ways (HTTP, in-process, direct) in a traced run.
const REPLAY_REQUESTS: usize = 32;
/// Cached requests fetched with and without values for `values_ms_per_mb`.
const VALUE_PROBES: usize = 8;

/// The fresh requests of one closed-loop cycle, per client: 15 of them,
/// followed into the cycle by 5 repeats, so a cycle is 20 requests of which
/// exactly a quarter hit the cache. BFS 8, SSSP 3, BC 2, CC 1, PageRank 1.
/// Half of a cycle is light kron work, a quarter is cache hits and a
/// quarter is heavy (road-USA, CC, PageRank), so the median latency falls
/// inside the kron cluster and the p90 inside the heavy one, not in the gap
/// between clusters where it would jump from run to run. CC runs on
/// `kron_u`, the symmetrized kron, because component labels are only
/// defined there; PageRank and BC run on kron only (PageRank on road-USA
/// costs over a second per request, and BC's f32 path counts overflow on a
/// road grid and cannot be verified).
pub(super) const CYCLE_FRESH: &[(Algo, &str, usize)] = &[
    (Algo::Bfs, "kron", 6),
    (Algo::Bfs, "usa", 2),
    (Algo::Sssp, "kron", 2),
    (Algo::Sssp, "usa", 1),
    (Algo::Bc, "kron", 2),
    (Algo::Cc, "kron_u", 1),
    (Algo::Pagerank, "kron", 1),
];
const CYCLE_REPEATS: usize = 5;
const CYCLE_LEN: usize = 20;

/// The requests of `cycle` for one client. `history` holds the client's
/// earlier fresh rooted requests, which repeats draw from, and grows by
/// this cycle's; `pools` hands out unused sources per graph.
fn cycle_requests(
    seed: u64,
    client: usize,
    cycle: usize,
    pools: &HashMap<&'static str, Vec<u32>>,
    history: &mut Vec<Req>,
) -> Vec<Req> {
    let mut rng = Rng::new(seed, 2000 + (client * 10_000 + cycle) as u64);
    let mut slots: Vec<Option<Req>> = Vec::with_capacity(CYCLE_LEN);
    // Fresh rooted requests take the next unused source of their graph's
    // pool; the two clients interleave, so neither ever names a source the
    // other (or an earlier cycle) has used.
    let rooted_per_cycle = |graph: &str| -> usize {
        CYCLE_FRESH
            .iter()
            .filter(|&&(a, g, _)| a.rooted() && g == graph)
            .map(|&(_, _, count)| count)
            .sum()
    };
    let mut taken: HashMap<&str, usize> = HashMap::new();
    for &(algo, graph, count) in CYCLE_FRESH {
        for _ in 0..count {
            let source = algo.rooted().then(|| {
                let pool = &pools[graph];
                let nth = taken
                    .entry(graph)
                    .or_insert(cycle * rooted_per_cycle(graph));
                *nth += 1;
                pool[((*nth - 1) * CLIENTS + client) % pool.len()]
            });
            slots.push(Some(Req {
                graph,
                algo,
                source,
                repeat: false,
            }));
        }
    }
    slots.extend((0..CYCLE_REPEATS).map(|_| None));
    rng.shuffle(&mut slots);
    if history.is_empty() {
        // The very first request has nothing to repeat.
        let first_rooted = slots
            .iter()
            .position(|s| s.as_ref().is_some_and(|r| r.algo.rooted()))
            .expect("a cycle has rooted requests");
        slots.swap(0, first_rooted);
    }
    slots
        .into_iter()
        .map(|slot| match slot {
            Some(fresh) => {
                if fresh.algo.rooted() {
                    history.push(fresh.clone());
                }
                fresh
            }
            None => Req {
                repeat: true,
                ..history[rng.below(history.len())].clone()
            },
        })
        .collect()
}

/// What one closed-loop client did.
struct ClientRun {
    samples: Vec<Sample>,
    /// (requests, seconds) of its untraced and of its traced cycles.
    rates: [(usize, f64); 2],
}

struct ClosedPhase {
    /// Per client, in send order.
    samples: Vec<Vec<Sample>>,
    wall_s: f64,
    cpu_s: f64,
    before: StatsSnapshot,
    after: StatsSnapshot,
    /// (requests, client-seconds) of the untraced and of the traced cycles.
    rates: [(usize, f64); 2],
}

/// Both clients walk whole cycles until `seconds` have passed (to the
/// nearest cycle) and each has sent `min_ops / CLIENTS` requests. With
/// `alternate`, odd cycles are traced and even cycles are not.
fn closed_phase(
    server: &Server,
    args: &RunArgs,
    seconds: f64,
    min_ops: usize,
    tracer: &Tracer,
    alternate: bool,
) -> ClosedPhase {
    let quiet = Tracer::new(false);
    let before = server.service.stats();
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    let per_client: Vec<ClientRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let quiet = &quiet;
                scope.spawn(move || {
                    let mut history = Vec::new();
                    let mut samples: Vec<Sample> = Vec::new();
                    let mut rates = [(0usize, 0f64); 2];
                    for cycle in 0.. {
                        let traced = alternate && cycle % 2 == 1;
                        let t = if traced { tracer } else { quiet };
                        let started = Instant::now();
                        let reqs =
                            cycle_requests(args.seed, client, cycle, &server.pools, &mut history);
                        for req in &reqs {
                            let op_id = (client * 1_000_000 + samples.len()) as u32;
                            samples.push(post_job(
                                server.addr,
                                req,
                                false,
                                true,
                                t,
                                op_id,
                                client as u32,
                            ));
                        }
                        rates[traced as usize].0 += reqs.len();
                        rates[traced as usize].1 += started.elapsed().as_secs_f64();
                        let elapsed = t0.elapsed().as_secs_f64();
                        let half_cycle = elapsed / (cycle + 1) as f64 / 2.0;
                        if samples.len() * CLIENTS >= min_ops && elapsed + half_cycle >= seconds {
                            break;
                        }
                    }
                    ClientRun { samples, rates }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds() - cpu0;
    server.service.wait_idle();
    let after = server.service.stats();
    let total = |traced: usize| {
        per_client
            .iter()
            .map(|c| c.rates[traced])
            .fold((0, 0.0), |a, b| (a.0 + b.0, a.1 + b.1))
    };
    ClosedPhase {
        rates: [total(0), total(1)],
        samples: per_client.into_iter().map(|c| c.samples).collect(),
        wall_s,
        cpu_s,
        before,
        after,
    }
}

pub(super) fn run_closed(server: &Server, args: &RunArgs, tracer: &Tracer, report: &mut RunReport) {
    let phase = closed_phase(
        server,
        args,
        args.seconds,
        args.min_timed_ops(),
        tracer,
        args.trace,
    );
    let mut verifier = Verifier::new(server);
    let all: Vec<&Sample> = phase.samples.iter().flatten().collect();
    let ok: Vec<bool> = all
        .iter()
        .map(|s| verifier.check_sample(s, report))
        .collect();
    let n = all.len();
    report.count("timed requests", n);
    report.count("cycles per client", n / CLIENTS / CYCLE_LEN);

    if !args.trace {
        let latencies: Vec<f64> = all.iter().map(|s| s.latency_ms).collect();
        let limit = args.workload.slo_limit_ms();
        let within = all
            .iter()
            .zip(&ok)
            .filter(|(s, &ok)| ok && s.latency_ms <= limit)
            .count();
        let good = ok.iter().filter(|&&ok| ok).count();
        report.set("ops_per_s", good as f64 / phase.wall_s);
        report.set("op_ms_p50", median(&latencies));
        let p90 = report.tail_or_median(&latencies, 90.0);
        report.set("op_ms_p90", p90);
        report.set(
            "modelled_ms_per_op",
            (phase.after.device_ms - phase.before.device_ms) / n as f64,
        );
        report.set("cpu_ms_per_op", phase.cpu_s * 1e3 / n as f64);
        report.set("peak_rss_mb", peak_rss_mb());
        report.set(
            "dev_mem_peak_mb",
            dev_mem_peak_mb(server, verifier.job_mem_peak),
        );
        report.set("slo_ok_share", within as f64 / n as f64);
        return;
    }

    // Tracing overhead: requests per client-second of the untraced cycles
    // over that of the traced cycles, interleaved in one phase.
    let rate = |(ops, secs): (usize, f64)| ops as f64 / secs.max(1e-9);
    report.set_trace_overhead(rate(phase.rates[0]), rate(phase.rates[1]));
    report.set("sim.cpu_wall_ratio", phase.cpu_s / phase.wall_s);
    status_counts(
        all.iter().map(|s| (s.status, s.error_kind.as_deref())),
        report,
    );
    stats_metrics(&phase.before, &phase.after, n, report);
    let traced: Vec<&&Sample> = all.iter().filter(|s| s.traced).collect();
    report.count("traced requests", traced.len());
    report.set(
        "service.http.connect_ms_p50",
        median(&tracer.durations_ms("service.http.connect")),
    );
    report.set(
        "service.http.resp_kb_mean",
        mean(
            &all.iter()
                .map(|s| s.body_len as f64 / 1024.0)
                .collect::<Vec<_>>(),
        ),
    );
    let hits: Vec<f64> = all
        .iter()
        .filter(|s| s.req.repeat)
        .map(|s| s.latency_ms)
        .collect();
    report.count("repeat requests", hits.len());
    report.set("service.cache.hit_ms_p50", median(&hits));

    // Cost of serializing values: cached answers fetched with and without.
    let cached: Vec<&Req> = phase.samples[0]
        .iter()
        .filter(|s| !s.req.repeat && s.req.algo.rooted())
        .map(|s| &s.req)
        .take(VALUE_PROBES)
        .collect();
    let quiet = Tracer::new(false);
    let per_mb: Vec<f64> = cached
        .iter()
        .filter_map(|req| {
            let with = post_job(server.addr, req, false, true, &quiet, 0, 0);
            let without = post_job(server.addr, req, false, false, &quiet, 0, 0);
            let mb = (with.body_len as f64 - without.body_len as f64) / 1e6;
            (with.status == 200 && without.status == 200 && mb > 0.0)
                .then(|| (with.latency_ms - without.latency_ms) / mb)
        })
        .collect();
    report.count("value probes", per_mb.len());
    report.set("service.http.values_ms_per_mb", median(&per_mb));

    replay_three_ways(server, &phase, &mut verifier, report);
}

/// One request on a bare queue, as `scheduler::run_single` would run it.
fn run_direct(
    q: &Queue,
    graphs: &HashMap<&'static str, Graph>,
    req: &Req,
) -> Result<(f64, Output), String> {
    let opts = OptConfig::all();
    let g = &graphs[req.graph];
    let src = req.source.unwrap_or(0);
    let fail = |e: sygraph_sim::SimError| e.to_string();
    Ok(match req.algo {
        Algo::Bfs => {
            let r = bfs::run(q, &g.csr, src, &opts).map_err(fail)?;
            (
                r.sim_ms,
                Output::Bfs {
                    src,
                    dist: r.values,
                },
            )
        }
        Algo::Sssp => {
            let r = sssp::run(q, &g.csr, src, &opts).map_err(fail)?;
            (
                r.sim_ms,
                Output::Sssp {
                    src,
                    dist: r.values,
                },
            )
        }
        Algo::Cc => {
            let r = cc::run(q, g, &opts).map_err(fail)?;
            (r.sim_ms, Output::Cc { labels: r.values })
        }
        Algo::Bc => {
            let r = bc::run(q, &g.csr, src, &opts).map_err(fail)?;
            (
                r.sim_ms,
                Output::Bc {
                    src,
                    delta: r.values,
                },
            )
        }
        Algo::Pagerank => {
            let r = pagerank::run(q, &g.csr, &opts, Default::default()).map_err(fail)?;
            (
                r.sim_ms,
                Output::Pagerank {
                    iterations: r.iterations,
                    ranks: r.values,
                },
            )
        }
    })
}

/// Road-USA BFS requests the three-way replay must cover, so that the
/// README's first finding rests on a median of ten.
const REPLAY_USA_BFS: usize = 10;

fn is_usa_bfs(req: &Req) -> bool {
    req.algo == Algo::Bfs && req.graph == "usa" && !req.repeat
}

/// Replays client 0's first requests (and enough later road-USA BFS ones)
/// three ways with one caller and the cache bypassed: over HTTP, through
/// `Service::submit`/`wait`, and as the direct `sygraph_algos` call on a
/// bare queue. A request's latency then splits into an HTTP part, a
/// scheduler part and an engine part, and the timed phase's two-client
/// latency adds the contention part. The three legs of a request run back
/// to back, so drift of the box over the replay cancels in the differences.
fn replay_three_ways(
    server: &Server,
    phase: &ClosedPhase,
    verifier: &mut Verifier,
    report: &mut RunReport,
) {
    let quiet = Tracer::new(false);
    let mut usa_bfs_seen = 0;
    let timed: Vec<&Sample> = phase.samples[0]
        .iter()
        .enumerate()
        .filter(|(i, s)| {
            let wanted = is_usa_bfs(&s.req) && usa_bfs_seen < REPLAY_USA_BFS;
            usa_bfs_seen += wanted as usize;
            *i < REPLAY_REQUESTS || wanted
        })
        .map(|(_, s)| s)
        .collect();
    let n = timed.len();
    report.count("requests replayed three ways", n);
    report.count("of them road-USA BFS", usa_bfs_seen);

    // The bare queue of the direct leg carries the service's device
    // profile and is warmed once per (graph, algorithm), as the workers were.
    let q = Queue::new(Device::new(DeviceProfile::v100s()));
    let upload_t = Instant::now();
    let graphs: HashMap<&'static str, Graph> = server
        .hosts
        .iter()
        .map(|(&name, host)| {
            (
                name,
                Graph::new(&q, host).expect("upload for direct replay"),
            )
        })
        .collect();
    report.set("core.graph.upload_ms", ms(upload_t.elapsed()));
    report.set(
        "core.graph.device_mb",
        graphs.values().map(Graph::device_bytes).sum::<u64>() as f64 / 1e6,
    );
    let mut warmed: Vec<(Algo, &str)> = Vec::new();
    for s in &timed {
        if !warmed.contains(&(s.req.algo, s.req.graph)) {
            warmed.push((s.req.algo, s.req.graph));
            let _ = run_direct(&q, &graphs, &s.req);
        }
    }
    q.profiler().reset();

    let mut kernels = KernelAgg::default();
    let mut policy = PolicyAgg::default();
    let (mut launches, mut supersteps, mut edges) = (0u64, 0u64, 0f64);
    let mut per_algo: HashMap<&'static str, (Vec<f64>, Vec<f64>)> = HashMap::new();
    let (mut http_ms, mut in_process, mut direct, mut submit_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for s in &timed {
        let engine_bound = Req {
            repeat: false,
            ..s.req.clone()
        };

        // Leg 1: over HTTP, one client.
        let over_http = post_job(server.addr, &engine_bound, true, true, &quiet, 0, 0);
        verifier.check_sample(&over_http, report);
        http_ms.push(over_http.latency_ms);

        // Leg 2: in-process submit and wait.
        let t = Instant::now();
        let id = server.service.submit(engine_bound.job(true));
        submit_us.push(t.elapsed().as_secs_f64() * 1e6);
        let done = id.ok().and_then(|id| server.service.wait(id).map(|_| id));
        in_process.push(ms(t.elapsed()));
        report.attempted += 1;
        let verdict = match done {
            Some(id) => verifier.check(&engine_bound, id).map(|_| ()),
            None => Err("in-process submit or wait failed".to_string()),
        };
        if let Err(why) = verdict {
            report.fail(format!("in-process {}: {why}", s.req.algo.wire()));
        }

        // Leg 3: the direct call.
        let t = Instant::now();
        let done = run_direct(&q, &graphs, &s.req);
        let wall = ms(t.elapsed());
        direct.push(wall);
        let prof = q.profiler();
        launches += prof.kernel_count() as u64;
        supersteps += prof.direction_events().len().max(prof.rep_events().len()) as u64;
        kernels.add(&prof.kernels());
        policy.add(&prof.direction_events(), &prof.rep_events());
        prof.reset();
        edges += server.hosts[s.req.graph].edge_count() as f64;
        report.attempted += 1;
        match done {
            Ok((sim_ms, out)) => {
                let entry = per_algo.entry(s.req.algo.wire()).or_default();
                entry.0.push(wall);
                entry.1.push(sim_ms);
                let oracle = verifier.oracles.get_mut(s.req.graph).expect("oracle");
                if let Err(why) = oracle.check(&out) {
                    report.fail(format!("direct {}: {why}", s.req.algo.wire()));
                }
            }
            Err(why) => report.fail(format!("direct {}: {why}", s.req.algo.wire())),
        }
    }

    // Engine layers, from the direct leg.
    let direct_ms: f64 = direct.iter().sum();
    report.set_all(engine_metrics(n, launches, supersteps, direct_ms, edges));
    report.set_all(kernels.metrics(n));
    report.set_all(policy.metrics(n));
    for algo in [Algo::Bfs, Algo::Sssp, Algo::Cc, Algo::Bc, Algo::Pagerank] {
        if let Some((wall, modelled)) = per_algo.get(algo.wire()) {
            let stem = format!("algos.{}", algo.wire());
            report.set(&format!("{stem}.wall_ms_p50"), median(wall));
            report.set(&format!("{stem}.modelled_ms_p50"), median(modelled));
        }
    }
    report.set("sim.launch_host_us", launch_host_us(q.profile()));

    // The split. Differences are taken per request, then their median.
    let paired =
        |a: &[f64], b: &[f64]| -> Vec<f64> { a.iter().zip(b).map(|(x, y)| x - y).collect() };
    report.set(
        "service.http.overhead_ms_p50",
        median(&paired(&http_ms, &in_process)),
    );
    report.set(
        "service.scheduler.overhead_ms_p50",
        median(&paired(&in_process, &direct)),
    );
    report.set("service.scheduler.submit_us_p50", median(&submit_us));
    let median_where = |keep: fn(&Req) -> bool, walls: &[f64]| -> f64 {
        let kept: Vec<f64> = timed
            .iter()
            .zip(walls)
            .filter(|(s, _)| keep(&s.req))
            .map(|(_, &w)| w)
            .collect();
        median(&kept)
    };
    let two_clients: Vec<f64> = timed.iter().map(|s| s.latency_ms).collect();
    report.set(
        "service.scheduler.contention_ratio",
        median_where(|r| !r.repeat, &two_clients) / median_where(|r| !r.repeat, &http_ms).max(1e-9),
    );

    // The first finding of the README: road-USA BFS, part by part.
    let (e, h, i, d) = (
        median_where(is_usa_bfs, &two_clients),
        median_where(is_usa_bfs, &http_ms),
        median_where(is_usa_bfs, &in_process),
        median_where(is_usa_bfs, &direct),
    );
    report.notes.push(format!(
        "road-USA BFS, median ms over {usa_bfs_seen}: {e:.1} with 2 clients = engine {d:.1} + scheduler {:.1} \
         + HTTP {:.1} + contention {:.1} (direct {d:.1}, in-process {i:.1}, HTTP 1 client {h:.1})",
        i - d,
        h - i,
        e - h
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pools() -> HashMap<&'static str, Vec<u32>> {
        ["kron", "usa", "kron_u"]
            .into_iter()
            .map(|g| (g, (0..8192).collect()))
            .collect()
    }

    #[test]
    fn every_cycle_prefix_has_a_quarter_repeats_of_earlier_requests() {
        let pools = pools();
        for client in 0..CLIENTS {
            let mut history = Vec::new();
            let mut sent: Vec<Req> = Vec::new();
            for cycle in 0..6 {
                let reqs = cycle_requests(7, client, cycle, &pools, &mut history);
                assert_eq!(reqs.len(), CYCLE_LEN);
                for r in reqs {
                    if r.repeat {
                        // A repeat names a request this client sent before,
                        // cached because it was rooted and fresh.
                        assert!(r.algo.rooted());
                        assert!(sent.iter().any(|e| !e.repeat
                            && e.graph == r.graph
                            && e.algo == r.algo
                            && e.source == r.source));
                    } else if r.algo.rooted() {
                        // A fresh request names a source never used before.
                        assert!(!sent
                            .iter()
                            .any(|e| e.graph == r.graph && e.source == r.source));
                    }
                    sent.push(r);
                }
                let repeats = sent.iter().filter(|r| r.repeat).count();
                assert_eq!(repeats * 4, sent.len(), "after cycle {cycle}");
            }
        }
    }

    #[test]
    fn clients_never_share_a_fresh_source() {
        let pools = pools();
        let fresh = |client| {
            let mut history = Vec::new();
            (0..4)
                .flat_map(|cycle| cycle_requests(7, client, cycle, &pools, &mut history))
                .filter(|r| !r.repeat && r.algo.rooted())
                .map(|r| (r.graph, r.source))
                .collect::<Vec<_>>()
        };
        let (a, b) = (fresh(0), fresh(1));
        assert!(a.iter().all(|x| !b.contains(x)));
    }

    #[test]
    fn request_lists_repeat_per_seed() {
        let pools = pools();
        let list = |seed| {
            let mut history = Vec::new();
            cycle_requests(seed, 0, 0, &pools, &mut history);
            cycle_requests(seed, 0, 1, &pools, &mut history)
        };
        assert_eq!(list(5), list(5));
        assert_ne!(list(5), list(6));
    }
}
