//! Fault-injection matrix: BFS/SSSP/CC over the 4-dataset suite under
//! every frontier representation, with transient, OOM and device-lost
//! faults injected mid-run. Every recovered run must be bit-identical to
//! the fault-free run, with a bounded number of recovery events — and an
//! idle fault plan must be byte-identical in the profiler's kernel stream
//! to no plan at all (zero overhead when nothing fires).

use sygraph_algos::{Algo, Args, Values};
use sygraph_bench::sample_useful_sources;
use sygraph_core::engine::RecoveryPolicy;
use sygraph_core::graph::{CsrHost, DeviceCsr, Graph};
use sygraph_core::inspector::{OptConfig, Representation};
use sygraph_gen::{datasets, Dataset, Scale};
use sygraph_sim::{Device, DeviceProfile, FaultPlan, Queue, SimError, SimResult};

mod common;
use common::{recoveries, step_launches};

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
    /// launches nothing, the one that closes superstep 1.
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
    let (one, two) = (step_launches(&q, 1), step_launches(&q, 2));
    assert!(one.end - one.start >= 2, "superstep 1 launched {one:?}");
    let later = if two.is_empty() {
        one.end - 1
    } else {
        two.start
    };
    Baseline {
        values,
        mid_run: [one.start, later],
    }
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
