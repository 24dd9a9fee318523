//! # sygraph-bench — the paper's evaluation, regenerated
//!
//! One binary, `bench`, over this library: `bench list`, `bench run
//! <name>…|--all [--out <dir>]`, `bench diff <fresh-dir> [<committed-dir>]`.
//! Every experiment is a function from a [`Context`] to a
//! [`report::Report`], registered in [`EXPERIMENTS`].
//!
//! | module | holds |
//! |---|---|
//! | [`report`] | `Report`, its renderer, its `BENCH_<name>.json` writer, `diff` |
//! | [`paper`] | Tables 3–5, Figures 7–10 (`fig8` carries Table 6) |
//! | [`ablation`] | `advance_balancing`, `direction_opt`, `frontier_rep`: one generic policy ablation, three specs |
//! | [`scaling`] | `multi_source`, `multi_device` |
//! | [`service`] | `service_throughput`, `service_resilience` |
//!
//! The rest of this file is what they share: the context, the scaled
//! device, source sampling, summary statistics and the comparison cell.

pub mod ablation;
pub mod paper;
pub mod report;
pub mod scaling;
pub mod service;

use serde::{Deserialize, Serialize};
use sygraph_baselines::{
    AlgoKind, Framework, GunrockLike, SepGraphLike, SygraphFramework, TigrLike,
};
use sygraph_core::graph::CsrHost;
use sygraph_core::inspector::OptConfig;
use sygraph_gen::{Dataset, Scale};
use sygraph_sim::{Device, DeviceProfile, Queue, SimError};

use report::{Report, Table};

/// What every experiment runs under: generator scale (`SYG_SCALE`,
/// `test` or `bench`, default bench), sources per comparison cell
/// (`SYG_SOURCES`, default 10; the paper uses 200) and the device.
pub struct Context {
    pub scale: Scale,
    pub sources: usize,
    /// Report key of `profile`.
    pub device: &'static str,
    pub profile: DeviceProfile,
}

impl Context {
    pub fn from_env() -> Self {
        let scale = match std::env::var("SYG_SCALE").as_deref() {
            Ok("test") => Scale::Test,
            _ => Scale::Bench,
        };
        let sources = std::env::var("SYG_SOURCES")
            .ok()
            .and_then(|s| s.parse().ok());
        Context {
            scale,
            sources: sources.unwrap_or(10),
            device: "v100s",
            profile: DeviceProfile::v100s(),
        }
    }

    /// A report of `tables` carrying this context's scale and device.
    pub fn report(&self, bench: &str, tables: Vec<Table>) -> Report {
        let scale = match self.scale {
            Scale::Test => "test",
            Scale::Bench => "bench",
        };
        Report {
            bench: bench.into(),
            scale: scale.into(),
            device: self.device.into(),
            params: Vec::new(),
            tables,
            verdicts: Vec::new(),
        }
    }

    /// A queue on a fresh device of this context's profile, scaled to
    /// `ds` (see [`scaled_profile`]).
    pub fn queue(&self, ds: &Dataset) -> Queue {
        Queue::new(Device::new(scaled_profile(&self.profile, ds)))
    }
}

/// An experiment: `Err` for a correctness defect (an equivalence check
/// failed) or a run that could not complete; a missed performance bar is
/// a `holds: false` verdict inside the report.
pub type Experiment = fn(&Context) -> Result<Report, String>;

/// Every experiment under the name its report is written as
/// (`BENCH_<name>.json`); each function's doc comment says what it
/// measures.
pub const EXPERIMENTS: [(&str, Experiment); 14] = [
    ("table3", paper::table3),
    ("table4", paper::table4),
    ("fig7", paper::fig7),
    ("table5", paper::table5),
    ("fig8", paper::fig8),
    ("fig9", paper::fig9),
    ("fig10", paper::fig10),
    ("advance_balancing", ablation::advance_balancing),
    ("direction_opt", ablation::direction_opt),
    ("frontier_rep", ablation::frontier_rep),
    ("multi_source", scaling::multi_source),
    ("multi_device", scaling::multi_device),
    ("service_throughput", service::throughput),
    ("service_resilience", service::resilience),
];

/// The highest-out-degree vertex: the worst-case-imbalance source the
/// ablations share, and Figure 7's "common source" (a directory hub, so
/// the traversal covers the whole crawl).
pub fn hub_source(host: &CsrHost) -> u32 {
    let hub = (0..host.vertex_count() as u32).max_by_key(|&v| host.degree(v));
    hub.expect("non-empty graph")
}

/// Summary statistics over repeated runs.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Stats {
    pub median: f64,
    pub mean: f64,
    pub std: f64,
    pub min: f64,
    pub max: f64,
}

/// Computes summary statistics (empty input yields NaNs).
pub fn stats(xs: &[f64]) -> Stats {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        return Stats {
            median: f64::NAN,
            mean: f64::NAN,
            std: f64::NAN,
            min: f64::NAN,
            max: f64::NAN,
        };
    }
    let median = if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    };
    let mean = s.iter().sum::<f64>() / n as f64;
    let var = s.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
    Stats {
        median,
        mean,
        std: var.sqrt(),
        min: s[0],
        max: s[n - 1],
    }
}

/// Geometric mean (ignores non-finite and non-positive entries).
pub fn geomean(xs: &[f64]) -> f64 {
    let vals: Vec<f64> = xs
        .iter()
        .copied()
        .filter(|x| x.is_finite() && *x > 0.0)
        .collect();
    if vals.is_empty() {
        return f64::NAN;
    }
    (vals.iter().map(|x| x.ln()).sum::<f64>() / vals.len() as f64).exp()
}

/// Deterministic uniform source sample (the paper samples 200 sources
/// uniformly at random; the count is configurable here).
pub fn sample_sources(n: usize, count: usize, seed: u64) -> Vec<u32> {
    use rand::prelude::*;
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count).map(|_| rng.random_range(0..n as u32)).collect()
}

/// Source sample restricted to vertices with at least one out-edge —
/// synthetic R-MAT graphs contain isolated vertices, and a zero-degree
/// source would make the traversal trivially empty (graph benchmarks
/// conventionally sample from the connected part).
pub fn sample_useful_sources(
    host: &sygraph_core::graph::CsrHost,
    count: usize,
    seed: u64,
) -> Vec<u32> {
    use rand::prelude::*;
    if host.edge_count() == 0 {
        return sample_sources(host.vertex_count(), count, seed);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let n = host.vertex_count() as u32;
    (0..count)
        .map(|_| loop {
            let v = rng.random_range(0..n);
            if host.degree(v) > 0 {
                break v;
            }
        })
        .collect()
}

/// The four frameworks of the comparison, in legend order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FrameworkKind {
    Sygraph,
    Gunrock,
    Tigr,
    SepGraph,
}

impl FrameworkKind {
    pub fn all() -> [FrameworkKind; 4] {
        [
            FrameworkKind::Sygraph,
            FrameworkKind::Gunrock,
            FrameworkKind::Tigr,
            FrameworkKind::SepGraph,
        ]
    }

    pub fn make(&self) -> Box<dyn Framework> {
        match self {
            FrameworkKind::Sygraph => Box::new(SygraphFramework::new(OptConfig::all())),
            FrameworkKind::Gunrock => Box::new(GunrockLike::new()),
            FrameworkKind::Tigr => Box::new(TigrLike::new()),
            FrameworkKind::SepGraph => Box::new(SepGraphLike::new()),
        }
    }

    pub fn name(&self) -> &'static str {
        match self {
            FrameworkKind::Sygraph => "SYgraph",
            FrameworkKind::Gunrock => "Gunrock",
            FrameworkKind::Tigr => "Tigr",
            FrameworkKind::SepGraph => "SEP-Graph",
        }
    }
}

/// Device VRAM scaled by the dataset's size ratio, so a framework whose
/// data structures outgrow a 32 GB card on the full dataset also
/// outgrows the scaled card on the scaled dataset. A floor keeps the
/// graph itself (plus minimal working state) always loadable.
pub fn scaled_vram(profile: &DeviceProfile, ds: &Dataset) -> u64 {
    let scaled = profile.vram_bytes as f64 * ds.scale_ratio();
    let floor =
        (ds.host.edge_count() as u64 * 16 + ds.host.vertex_count() as u64 * 64).max(8 << 20);
    (scaled as u64).max(floor)
}

/// The device profile scaled to the dataset: VRAM by edge ratio (OOM
/// behaviour carries over) and L2 by vertex ratio (cache-fitting
/// behaviour carries over — e.g. Tigr's per-iteration full sweeps are
/// L2-resident at toy scale but DRAM-bound at paper scale, and the
/// MAX 1100's 108 MB L2 still fits road frontiers after scaling, which
/// is its Figure 10 advantage).
pub fn scaled_profile(profile: &DeviceProfile, ds: &Dataset) -> DeviceProfile {
    let vertex_ratio = ds.host.vertex_count() as f64 / ds.paper_vertices as f64;
    let mut p = profile
        .clone()
        .with_vram(scaled_vram(profile, ds))
        .with_l2(((profile.l2_bytes as f64 * vertex_ratio * 64.0) as u64).min(profile.l2_bytes));
    // Launch overhead scales with the dataset too: otherwise scaled-down
    // iterative workloads (road BFS with hundreds of supersteps) become
    // artificially launch-bound and per-iteration *work* differences —
    // the quantity the paper measures — disappear into fixed costs.
    p.launch_overhead_us = (profile.launch_overhead_us * vertex_ratio).max(0.005);
    p
}

/// Outcome of one (framework, dataset, algorithm) cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum CellOutcome {
    Ok(CellResult),
    /// The framework exhausted the scaled VRAM (rendered "OOM").
    Oom,
    /// The framework has no implementation (SEP-Graph CC, rendered "-").
    Unsupported,
}

/// Measurements for one grid cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CellResult {
    /// Per-source algorithm times, ms (WOP).
    pub runs_ms: Vec<f64>,
    /// One-time preprocessing, ms.
    pub prep_ms: f64,
    /// Peak device memory over the cell, bytes.
    pub peak_mem: u64,
    pub median_ms: f64,
    pub std_ms: f64,
}

/// Runs one cell: fresh device with scaled VRAM, prepare once, run once
/// per source, collect statistics.
pub fn run_cell(
    profile: &DeviceProfile,
    ds: &Dataset,
    fw_kind: FrameworkKind,
    algo: AlgoKind,
    sources: &[u32],
) -> CellOutcome {
    let host = if algo.needs_undirected() {
        ds.undirected()
    } else {
        ds.host.clone()
    };
    let device = Device::new(scaled_profile(profile, ds));
    let q = Queue::new(device.clone());
    let mut fw = fw_kind.make();
    if let Err(e) = fw.prepare(&q, &host) {
        return match e {
            SimError::OutOfMemory { .. } => CellOutcome::Oom,
            _ => panic!("{} prepare failed: {e}", fw.name()),
        };
    }
    let mut runs = Vec::with_capacity(sources.len());
    // CC ignores the source but still runs once per entry (the paper
    // repeats CC 200 times).
    for &src in sources {
        match fw.run(&q, algo, src) {
            Ok(rec) => runs.push(rec.algo_ms),
            Err(SimError::OutOfMemory { .. }) => return CellOutcome::Oom,
            Err(SimError::Unsupported(_)) => return CellOutcome::Unsupported,
            Err(e) => panic!("{} {} on {}: {e}", fw.name(), algo.name(), ds.key),
        }
    }
    let st = stats(&runs);
    CellOutcome::Ok(CellResult {
        prep_ms: fw.prep_ms(),
        peak_mem: device.mem_peak(),
        median_ms: st.median,
        std_ms: st.std,
        runs_ms: runs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_median_and_std() {
        let s = stats(&[3.0, 1.0, 2.0]);
        assert_eq!(s.median, 2.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        assert!((s.mean - 2.0).abs() < 1e-12);
        let s = stats(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.median, 2.5);
    }

    #[test]
    fn geomean_matches_hand_calc() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[2.0, f64::INFINITY, 8.0]) - 4.0).abs() < 1e-12);
        assert!(geomean(&[]).is_nan());
    }

    #[test]
    fn sources_are_deterministic_and_in_range() {
        let a = sample_sources(100, 20, 7);
        let b = sample_sources(100, 20, 7);
        assert_eq!(a, b);
        assert!(a.iter().all(|&s| s < 100));
        assert_ne!(a, sample_sources(100, 20, 8));
    }

    #[test]
    fn cell_runner_produces_medians() {
        let ds = sygraph_gen::datasets::kron(Scale::Test);
        let sources = sample_sources(ds.host.vertex_count(), 3, 1);
        let out = run_cell(
            &DeviceProfile::host_test(),
            &ds,
            FrameworkKind::Sygraph,
            AlgoKind::Bfs,
            &sources,
        );
        match out {
            CellOutcome::Ok(c) => {
                assert_eq!(c.runs_ms.len(), 3);
                assert!(c.median_ms > 0.0);
                assert_eq!(c.prep_ms, 0.0);
                assert!(c.peak_mem > 0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn sep_cc_cell_is_unsupported() {
        let ds = sygraph_gen::datasets::kron(Scale::Test);
        let out = run_cell(
            &DeviceProfile::host_test(),
            &ds,
            FrameworkKind::SepGraph,
            AlgoKind::Cc,
            &[0],
        );
        assert!(matches!(out, CellOutcome::Unsupported));
    }

    #[test]
    fn committed_reports_are_exactly_the_registered_experiments() {
        let mut names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.0).collect();
        names.sort_unstable();
        let registered = names.len();
        names.dedup();
        assert_eq!(names.len(), registered, "duplicate experiment name");

        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut committed: Vec<String> = std::fs::read_dir(&root)
            .unwrap()
            .filter_map(|entry| entry.unwrap().file_name().into_string().ok())
            .filter_map(|f| Some(f.strip_prefix("BENCH_")?.strip_suffix(".json")?.to_string()))
            .collect();
        committed.sort_unstable();
        assert_eq!(committed, names);
        for name in names {
            let report = Report::read(&Report::path_in(&root, name)).unwrap();
            assert_eq!(report.bench, name);
            assert_eq!(report.scale, "bench", "{name} was committed at test scale");
        }
    }

    #[test]
    fn scaled_vram_has_floor() {
        let ds = sygraph_gen::datasets::road_ca(Scale::Test);
        let v = scaled_vram(&DeviceProfile::v100s(), &ds);
        assert!(v >= 8 << 20);
    }
}
