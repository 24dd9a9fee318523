//! Fault-injection matrix: BFS/SSSP/CC over the 4-dataset suite under
//! every frontier representation, with transient, OOM and device-lost
//! faults injected mid-run. Every recovered run must be bit-identical to
//! the fault-free run, with a bounded number of recovery events — and an
//! idle fault plan must be byte-identical in the profiler's kernel stream
//! to no plan at all (zero overhead when nothing fires). BC, whose sigma
//! cannot be retried, must fail typed instead; and every algorithm the
//! service runs must stop on a fired cancel token.

use sygraph_algos::{bc, multi, reference, Algo, Args, Values};
use sygraph_bench::sample_useful_sources;
use sygraph_core::engine::{CheckpointState, RecoveryPolicy, SuperstepEngine};
use sygraph_core::frontier::{BitmapLike, HybridFrontier};
use sygraph_core::graph::{CsrHost, DeviceCsr, Graph};
use sygraph_core::inspector::{inspect, OptConfig, Representation};
use sygraph_core::types::INF_DIST;
use sygraph_gen::{datasets, Dataset, Scale};
use sygraph_sim::{
    CancelToken, Device, DeviceProfile, FaultPlan, Queue, Retire, SimError, SimResult,
};

mod common;
use common::{
    assert_retires_match_the_launches, first_launch, landed_steps, recoveries, step_launches,
};

fn four_datasets() -> Vec<Dataset> {
    vec![
        datasets::road_ca(Scale::Test),
        datasets::hollywood(Scale::Test),
        datasets::indochina(Scale::Test),
        datasets::kron(Scale::Test),
    ]
}

const ALGOS: [Algo; 3] = [Algo::Bfs, Algo::Sssp, Algo::Cc];
const REPS: [Representation; 3] = [
    Representation::Dense,
    Representation::Sparse,
    Representation::Auto,
];

/// Runs one algorithm and returns its values bit-normalized to `u64`
/// (f32 via `to_bits`), so "recovered == fault-free" is exact equality.
fn run_values(
    q: &Queue,
    host: &CsrHost,
    algo: Algo,
    src: u32,
    opts: &OptConfig,
) -> SimResult<Vec<u64>> {
    let g = Graph::new(q, host)?;
    Ok(match algo.run(q, &g, Args::rooted(src), opts)?.values {
        Values::U32(v) => v.into_iter().map(u64::from).collect(),
        Values::F32(v) => v.into_iter().map(|x| u64::from(x.to_bits())).collect(),
    })
}

fn opts_with(rep: Representation, policy: RecoveryPolicy) -> OptConfig {
    let mut opts = OptConfig::with_representation(rep);
    opts.recovery = policy;
    opts
}

struct Baseline {
    values: Vec<u64>,
    /// Two launch ordinals of the fault-free run, in order, both inside
    /// the superstep loop — where the engine's recovery machinery owns
    /// them (a fault during algorithm *init* is rightly unrecoverable) —
    /// and both early enough to exist under every thread schedule: the
    /// launch that opens superstep 1, and the one that opens superstep 2
    /// or, where that superstep is the list-length convergence check and
    /// launches nothing, the one that closes superstep 1. A sparse
    /// superstep can be a single launch (the retired frontier's clear
    /// rides the advance); where that leaves superstep 1 one ordinal and
    /// superstep 2 none, the pair is superstep 0's last launch and it.
    mid_run: [u64; 2],
}

impl Baseline {
    /// The first (`1`) or second (`2`) mid-run ordinal.
    fn ordinal(&self, k: usize) -> u64 {
        self.mid_run[k - 1]
    }
}

fn baseline(host: &CsrHost, algo: Algo, src: u32, opts: &OptConfig) -> Baseline {
    let q = Queue::new(Device::new(DeviceProfile::host_test()));
    let values = run_values(&q, host, algo, src, opts).expect("fault-free run");
    let (zero, one, two) = (
        step_launches(&q, 0),
        step_launches(&q, 1),
        step_launches(&q, 2),
    );
    assert!(
        !zero.is_empty() && !one.is_empty(),
        "supersteps 0 and 1 launched {zero:?}, {one:?}"
    );
    let later = if two.is_empty() {
        one.end - 1
    } else {
        two.start
    };
    let mid_run = if later > one.start {
        [one.start, later]
    } else {
        [one.start - 1, one.start]
    };
    Baseline { values, mid_run }
}

/// Runs the algorithm under `spec` and asserts bit-identical recovery
/// with a recovery-event count in `[min_events, max_events]`.
#[allow(clippy::too_many_arguments)]
fn assert_recovers(
    host: &CsrHost,
    algo: Algo,
    src: u32,
    opts: &OptConfig,
    base: &Baseline,
    spec: &str,
    min_events: usize,
    max_events: usize,
    ctx: &str,
) {
    let plan = FaultPlan::parse(spec).expect("spec");
    let q = Queue::with_faults(Device::new(DeviceProfile::host_test()), plan);
    let values = run_values(&q, host, algo, src, opts)
        .unwrap_or_else(|e| panic!("{ctx}: `{spec}` did not recover: {e}"));
    assert_eq!(
        values, base.values,
        "{ctx}: `{spec}` recovered to different values"
    );
    let events = recoveries(&q).len();
    assert!(
        (min_events..=max_events).contains(&events),
        "{ctx}: `{spec}` logged {events} recovery events, expected {min_events}..={max_events}"
    );
}

fn fault_matrix(kind: &str, spec_of: impl Fn(&Baseline) -> (String, usize, usize)) {
    let policy = RecoveryPolicy::resilient(3, 4);
    for ds in four_datasets() {
        let host = ds.host.to_undirected().unwrap();
        let src = sample_useful_sources(&ds.host, 1, 42)[0];
        for rep in REPS {
            let opts = opts_with(rep, policy);
            for algo in ALGOS {
                let ctx = format!("{kind}: {:?} on {} under {rep:?}", algo, ds.name);
                let base = baseline(&host, algo, src, &opts);
                let (spec, lo, hi) = spec_of(&base);
                assert_recovers(&host, algo, src, &opts, &base, &spec, lo, hi, &ctx);
            }
        }
    }
}

#[test]
fn transient_faults_recover_bit_identically() {
    // One failure mid-run, two consecutive failures later: 3 retry
    // events exactly (each failed attempt is retried once).
    fault_matrix("transient", |base| {
        let (a, b) = (base.ordinal(1), base.ordinal(2));
        (format!("transient@{a}:1,transient@{b}:2"), 3, 3)
    });
}

#[test]
fn injected_oom_degrades_and_recovers_bit_identically() {
    // A synthetic OOM mid-run walks one rung of the degradation ladder;
    // the degraded configuration must still produce identical values.
    fault_matrix("oom", |base| (format!("oom@{}", base.ordinal(1)), 1, 3));
}

#[test]
fn device_lost_resumes_from_checkpoint_bit_identically() {
    fault_matrix("lost", |base| (format!("lost@{}", base.ordinal(2)), 1, 1));
}

#[test]
fn a_transient_on_any_launch_of_a_ring_superstep_recovers() {
    // A sparse superstep is one launch for SSSP (the advance, carrying the
    // clear of the input retired before it) and that plus a compute pass
    // for BFS. Fail each launch of two mid-run supersteps in turn: the run
    // lands on the fault-free values after one retry, and where the fault
    // took the merged launch the clear it carried is launched again, whole
    // and alone, because nothing the skipped launch read can be trusted —
    // after which the next superstep carries its clear inline again.
    let ds = datasets::road_ca(Scale::Test);
    let src = sample_useful_sources(&ds.host, 1, 42)[0];
    let opts = opts_with(Representation::Sparse, RecoveryPolicy::resilient(3, 4));
    for algo in [Algo::Sssp, Algo::Bfs] {
        let clean = Queue::new(Device::new(DeviceProfile::host_test()));
        let want = run_values(&clean, &ds.host, algo, src, &opts).unwrap();
        let steps = landed_steps(&clean);
        for k in [3usize, 4] {
            assert_eq!(steps[k].retired, Retire::Inline, "{algo:?} @{k}");
            let merged = first_launch(&clean, k);
            for at in step_launches(&clean, k) {
                let ctx = format!("{algo:?}: transient@{at} in superstep {k}");
                let plan = FaultPlan::parse(&format!("transient@{at}:1")).unwrap();
                let q = Queue::with_faults(Device::new(DeviceProfile::host_test()), plan);
                let got = run_values(&q, &ds.host, algo, src, &opts)
                    .unwrap_or_else(|e| panic!("{ctx} did not recover: {e}"));
                assert_eq!(got, want, "{ctx}");
                assert_eq!(recoveries(&q).len(), 1, "{ctx}");
                assert_retires_match_the_launches(&q, &ctx);
                let retired: Vec<Retire> = landed_steps(&q)
                    .iter()
                    .filter(|s| s.superstep as usize == k || s.superstep as usize == k + 1)
                    .map(|s| s.retired)
                    .collect();
                if at == merged {
                    assert_eq!(
                        retired,
                        [Retire::Standalone("not-fresh"), Retire::Inline],
                        "{ctx}"
                    );
                } else {
                    // Past the plan: the superstep lands twice, its clear
                    // already carried the first time.
                    assert_eq!(
                        retired,
                        [Retire::Inline, Retire::None, Retire::Inline],
                        "{ctx}"
                    );
                }
            }
        }
    }
}

/// Fused BFS on an item-list frontier pair, driven one superstep at a time
/// (the policy checkpoints before each). After every rotate the output
/// frontier — the ring's spare, about to be written — must be empty; once
/// a recovery has happened (the one planned fault is spent, so launches no
/// longer shift ordinals) that is checked with the device's own emptiness
/// kernel as well as host-side. Returns the distances.
fn drive_bfs_checking_outputs(q: &Queue, host: &CsrHost, src: u32, opts: &OptConfig) -> Vec<u32> {
    let n = host.vertex_count();
    let g = DeviceCsr::upload(q, host).unwrap();
    let tuning = inspect(q.profile(), opts, n);
    let dist = q.malloc_device::<u32>(n).unwrap();
    q.fill(&dist, INF_DIST);
    dist.store(src as usize, 0);
    let fin: Box<dyn BitmapLike<u32>> = Box::new(HybridFrontier::<u32>::new(q, n).unwrap());
    let fout: Box<dyn BitmapLike<u32>> = Box::new(HybridFrontier::<u32>::new(q, n).unwrap());
    fin.insert_host(src);
    let ckpt: [&dyn CheckpointState; 1] = [&dist];
    let mut engine = SuperstepEngine::new(q, &g, tuning, fin, fout)
        .fused(true)
        .checkpoint_state(&ckpt);
    loop {
        let live = engine
            .step(
                |l, _i, _u, v, _e, _w| l.load_atomic(&dist, v as usize) == INF_DIST,
                Some(&|l, i, v| l.store_atomic(&dist, v as usize, i + 1)),
            )
            .expect("the policy covers the planned fault");
        if !live {
            return dist.to_vec();
        }
        engine
            .rotate()
            .expect("the policy covers the planned fault");
        let (out, at) = (engine.output(), engine.iteration());
        assert!(out.to_sorted_vec().is_empty(), "output of superstep {at}");
        assert_eq!(out.list_probe(), Some(Some(0)), "output list @{at}");
        if !recoveries(q).is_empty() {
            assert!(out.is_empty(q), "output of superstep {at} on the device");
            assert_eq!(out.compact(q).map(|c| c.0), Some(0), "layer 2 @{at}");
        }
    }
}

#[test]
fn a_lost_device_or_an_oom_rung_under_a_pending_clear_leaves_the_next_output_empty() {
    // The fault takes the launch that carries the retired frontier's clear.
    // A resume or a ladder step then re-runs the superstep, and the clear
    // — whose launch never ran, and whose list length is not to be trusted
    // after it — must still happen before that frontier comes round as the
    // output: in full, alone, at the next rotate.
    let ds = datasets::road_ca(Scale::Test);
    let src = sample_useful_sources(&ds.host, 1, 42)[0];
    let opts = opts_with(Representation::Auto, RecoveryPolicy::resilient(3, 1));
    let clean = Queue::new(Device::new(DeviceProfile::host_test()));
    let want = drive_bfs_checking_outputs(&clean, &ds.host, src, &opts);
    assert_eq!(want, reference::bfs(&ds.host, src));
    let k = 4;
    assert_eq!(landed_steps(&clean)[k].retired, Retire::Inline);
    let merged = first_launch(&clean, k);
    for (fault, action) in [("lost", "resume"), ("oom", "drop-bucket-pool")] {
        let plan = FaultPlan::parse(&format!("{fault}@{merged}")).unwrap();
        let q = Queue::with_faults(Device::new(DeviceProfile::host_test()), plan);
        let got = drive_bfs_checking_outputs(&q, &ds.host, src, &opts);
        assert_eq!(got, want, "{fault}@{merged}");
        let taken: Vec<String> = recoveries(&q).into_iter().map(|r| r.1).collect();
        assert_eq!(taken, [action], "{fault}@{merged}");
        assert_retires_match_the_launches(&q, fault);
        let at_fault = landed_steps(&q)
            .into_iter()
            .find(|s| s.superstep as usize == k)
            .unwrap();
        assert_eq!(at_fault.retired, Retire::Standalone("not-fresh"), "{fault}");
        assert!(
            at_fault.rest.iter().any(|n| n == "frontier_clear"),
            "{fault}: the rotate after superstep {k} launched {:?}",
            at_fault.rest
        );
    }
}

#[test]
fn idle_fault_plan_is_byte_identical_zero_overhead() {
    // An attached-but-idle plan (seed only, nothing fires) with
    // checkpointing enabled must leave the profiler's kernel stream —
    // names, sequence numbers and exact simulated timestamps — and the
    // final clock byte-identical to a plain queue without the flag.
    let ds = datasets::road_ca(Scale::Test);
    let src = sample_useful_sources(&ds.host, 1, 42)[0];
    let opts = opts_with(Representation::Auto, RecoveryPolicy::resilient(3, 2));

    let stream = |q: &Queue| -> (Vec<(String, u64, u64, u64)>, u64) {
        let kernels = q
            .profiler()
            .kernels()
            .into_iter()
            .map(|k| (k.name, k.seq, k.start_ns.to_bits(), k.end_ns.to_bits()))
            .collect();
        (kernels, q.now_ns().to_bits())
    };

    let plain = Queue::new(Device::new(DeviceProfile::host_test()));
    let a = run_values(&plain, &ds.host, Algo::Bfs, src, &opts).unwrap();

    let plan = FaultPlan::parse("seed=7").unwrap();
    let faulted = Queue::with_faults(Device::new(DeviceProfile::host_test()), plan);
    let b = run_values(&faulted, &ds.host, Algo::Bfs, src, &opts).unwrap();

    assert_eq!(a, b);
    assert_eq!(
        stream(&plain),
        stream(&faulted),
        "idle injector must not perturb the kernel stream or the clock"
    );
    assert!(recoveries(&faulted).is_empty());
}

#[test]
fn device_lost_without_checkpoint_propagates() {
    // The checkpoint is load-bearing: the same fault with
    // checkpointing disabled must surface as a DeviceLost error.
    let ds = datasets::road_ca(Scale::Test);
    let src = sample_useful_sources(&ds.host, 1, 42)[0];
    let mut policy = RecoveryPolicy::resilient(3, 4);
    policy.checkpoint_every = 0;
    let opts = opts_with(Representation::Auto, policy);
    let base = baseline(&ds.host, Algo::Bfs, src, &opts);

    let spec = format!("lost@{}", base.ordinal(2));
    let plan = FaultPlan::parse(&spec).unwrap();
    let q = Queue::with_faults(Device::new(DeviceProfile::host_test()), plan);
    match run_values(&q, &ds.host, Algo::Bfs, src, &opts) {
        Err(SimError::DeviceLost { .. }) => {}
        other => panic!("expected DeviceLost to propagate, got {other:?}"),
    }
}

#[test]
fn transient_retries_are_bounded() {
    // More consecutive failures than the retry budget: the engine must
    // give up with the transient error, not loop forever.
    let ds = datasets::road_ca(Scale::Test);
    let src = sample_useful_sources(&ds.host, 1, 42)[0];
    let opts = opts_with(Representation::Auto, RecoveryPolicy::resilient(2, 0));
    let base = baseline(&ds.host, Algo::Bfs, src, &opts);

    let spec = format!("transient@{}:8", base.ordinal(1));
    let plan = FaultPlan::parse(&spec).unwrap();
    let q = Queue::with_faults(Device::new(DeviceProfile::host_test()), plan);
    match run_values(&q, &ds.host, Algo::Bfs, src, &opts) {
        Err(SimError::Transient { .. }) => {}
        other => panic!("expected Transient after retry exhaustion, got {other:?}"),
    }
    assert_eq!(
        recoveries(&q).len(),
        2,
        "exactly max_retries retry events before giving up"
    );
}

#[test]
fn mem_accounting_survives_checkpoint_restore() {
    // After a device-lost resume (which recomputes accounting from the
    // allocation ledger), the final used-bytes must match the fault-free
    // run, and a recompute must be a no-op (counters agree with ledger).
    let ds = datasets::hollywood(Scale::Test);
    let src = sample_useful_sources(&ds.host, 1, 42)[0];
    let opts = opts_with(Representation::Auto, RecoveryPolicy::resilient(3, 2));

    let clean_dev = Device::new(DeviceProfile::host_test());
    let clean_q = Queue::new(clean_dev.clone());
    let a = run_values(&clean_q, &ds.host, Algo::Bfs, src, &opts).unwrap();
    let clean_used = clean_dev.mem_used();

    let base = baseline(&ds.host, Algo::Bfs, src, &opts);
    let spec = format!("lost@{}", base.ordinal(1));
    let dev = Device::new(DeviceProfile::host_test());
    let mut q = Queue::new(dev.clone());
    q.attach_faults(FaultPlan::parse(&spec).unwrap());
    let b = run_values(&q, &ds.host, Algo::Bfs, src, &opts).unwrap();

    assert_eq!(a, b);
    assert_eq!(
        dev.mem_used(),
        clean_used,
        "recovered run must end with identical live-allocation accounting"
    );
    let before = dev.mem_used();
    dev.recompute_mem_accounting();
    assert_eq!(
        dev.mem_used(),
        before,
        "counters already agree with the allocation ledger"
    );
}

#[test]
fn pagerank_sweep_restarts_from_any_launch_under_every_balancing() {
    // A PageRank sweep is restartable: it resets `next`, `dangling` and
    // `l1_delta` at its top and commits `rank` in its one trailing
    // launch. Fail every launch of the second sweep in turn — under the
    // bucketed dispatch that is the fill, `pr_share`, the binning pass,
    // each expansion kernel and `pr_apply` — and the run must land where
    // the fault-free run does, having re-launched exactly the prefix the
    // faulted attempt had completed (six sweeps, fixed: a residual test
    // would let f32 accumulation noise move the count). Ordinals come
    // from the fault-free run's sweep markers, so a dispatch that adds or
    // drops a launch per sweep moves them along with it.
    use sygraph_algos::pagerank::{run, PagerankParams};
    use sygraph_core::inspector::Balancing;

    let host = datasets::kron(Scale::Test).host;
    let class = Algo::Pagerank.determinism();
    let params = PagerankParams {
        max_iters: 6,
        tol: 0.0,
        ..Default::default()
    };
    for balancing in [
        Balancing::WorkgroupMapped,
        Balancing::Bucketed,
        Balancing::Auto,
    ] {
        let mut opts = OptConfig::with_balancing(balancing);
        opts.recovery = RecoveryPolicy::resilient(3, 0);
        let clean_q = Queue::new(Device::new(DeviceProfile::host_test()));
        let g = DeviceCsr::upload(&clean_q, &host).unwrap();
        let clean = run(&clean_q, &g, &opts, params).unwrap();
        let sweep = step_launches(&clean_q, 1);
        let launches = clean_q.profiler().kernel_count() as u64;
        assert!(
            sweep.end - sweep.start
                >= if balancing == Balancing::Bucketed {
                    6
                } else {
                    4
                },
            "{balancing:?}: a sweep of {sweep:?}"
        );
        for at in sweep.clone() {
            let plan = FaultPlan::parse(&format!("transient@{at}:1")).unwrap();
            let q = Queue::with_faults(Device::new(DeviceProfile::host_test()), plan);
            let g = DeviceCsr::upload(&q, &host).unwrap();
            let got = run(&q, &g, &opts, params)
                .unwrap_or_else(|e| panic!("{balancing:?}: transient@{at} did not recover: {e}"));
            assert_eq!(got.iterations, 6, "{balancing:?} @{at}");
            assert!(
                class.agrees_f32(&clean.values, &got.values),
                "{balancing:?}: transient@{at} recovered to different ranks"
            );
            assert_eq!(
                q.profiler().kernel_count() as u64,
                launches + (at - sweep.start),
                "{balancing:?} @{at}: the sweep re-runs whole, once"
            );
        }
    }
}

/// A queue whose cancel token has already fired.
fn cancelled_queue() -> Queue {
    let q = Queue::new(Device::new(DeviceProfile::host_test()));
    let token = CancelToken::new();
    token.cancel();
    q.set_cancel_token(Some(token));
    q
}

#[test]
fn every_service_algorithm_stops_on_a_fired_cancel_token() {
    // Each entry point the service runs checks the token at its first
    // superstep (or sweep) boundary, so a deadline or drain ends it typed.
    let host = datasets::kron(Scale::Test).host.to_undirected().unwrap();
    let src = sample_useful_sources(&host, 1, 42)[0];
    let opts = OptConfig::all();
    let mut outcomes: Vec<(&str, SimResult<()>)> = Vec::new();
    for algo in sygraph_service::job::ADMITTED {
        let q = cancelled_queue();
        let g = Graph::new(&q, &host).unwrap();
        let got = algo.run(&q, &g, Args::rooted(src), &opts).map(drop);
        outcomes.push((algo.label(), got));
    }
    let q = cancelled_queue();
    let g = Graph::new(&q, &host).unwrap();
    let got = multi::bfs_multi(&q, &g.csr, &[src, 0], 8, &opts).map(drop);
    outcomes.push(("bfs_multi", got));
    let q = cancelled_queue();
    let g = Graph::new(&q, &host).unwrap();
    outcomes.push((
        "bc_multi",
        multi::bc_multi(&q, &g, &[src, 0], 8, &opts).map(drop),
    ));
    for (name, got) in outcomes {
        assert!(
            matches!(got, Err(SimError::Cancelled { .. })),
            "{name}: {got:?}"
        );
    }
}

#[test]
fn bc_fails_typed_on_a_forward_fault_under_a_resilient_policy() {
    // Sigma is accumulated with `fetch_add`, so a retried forward superstep
    // would count its shortest paths twice. Even where the caller's policy
    // retries, a transient in a forward superstep must fail the run typed,
    // with no retry taken.
    let host = datasets::kron(Scale::Test).host;
    let src = sample_useful_sources(&host, 1, 42)[0];
    let mut opts = OptConfig::all();
    opts.recovery = RecoveryPolicy::resilient(3, 1);
    type Run = fn(&Queue, &Graph, u32, &OptConfig) -> SimResult<()>;
    let runs: [(&str, Run); 2] = [
        ("bc", |q, g, src, opts| {
            bc::run(q, &g.csr, src, opts).map(drop)
        }),
        ("bc_multi", |q, g, src, opts| {
            multi::bc_multi(q, g, &[src], 8, opts).map(drop)
        }),
    ];
    for (name, run) in runs {
        let clean = Queue::new(Device::new(DeviceProfile::host_test()));
        run(&clean, &Graph::new(&clean, &host).unwrap(), src, &opts).unwrap();
        let at = first_launch(&clean, 1);
        let plan = FaultPlan::parse(&format!("transient@{at}")).unwrap();
        let q = Queue::with_faults(Device::new(DeviceProfile::host_test()), plan);
        let got = run(&q, &Graph::new(&q, &host).unwrap(), src, &opts);
        assert!(
            matches!(got, Err(SimError::Transient { launch, .. }) if launch == at),
            "{name}: transient@{at} gave {got:?}"
        );
        assert!(recoveries(&q).is_empty(), "{name}: {:?}", recoveries(&q));
    }
}
