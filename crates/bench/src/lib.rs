//! # sygraph-bench — the paper's evaluation, regenerated
//!
//! Shared machinery for the figure/table binaries (`src/bin/`): the
//! comparison-grid runner, VRAM scaling, summary statistics and source
//! sampling.
//!
//! | artifact | binary |
//! |---|---|
//! | Table 3 (datasets) | `table3` |
//! | Table 4 (machines) | `table4` |
//! | Figure 7 (ablation) | `fig7` |
//! | Table 5 (L1/occupancy) | `table5` |
//! | Figure 8 (comparison) | `fig8` |
//! | Table 6 (speedups) | `table6` (derived from fig8) |
//! | Figure 9 (memory) | `fig9` |
//! | Figure 10 (devices) | `fig10` |

use serde::{Deserialize, Serialize};
use sygraph_baselines::{
    AlgoKind, Framework, GunrockLike, SepGraphLike, SygraphFramework, TigrLike,
};
use sygraph_core::inspector::OptConfig;
use sygraph_gen::{Dataset, Scale};
use sygraph_sim::{Device, DeviceProfile, Queue, SimError};

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
    for &src in sources {
        match fw.run(&q, algo, src) {
            Ok(rec) => runs.push(rec.algo_ms),
            Err(SimError::OutOfMemory { .. }) => return CellOutcome::Oom,
            Err(SimError::Unsupported(_)) => return CellOutcome::Unsupported,
            Err(e) => panic!("{} {} on {}: {e}", fw.name(), algo.name(), ds.key),
        }
        if algo.needs_undirected() {
            // CC has no source; one run per repetition is still wanted
            // (the paper repeats CC 200 times), so keep looping.
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

/// The full Figure 8 grid: algorithms × datasets × frameworks.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ComparisonGrid {
    pub dataset_keys: Vec<String>,
    pub sources: usize,
    /// `cells[algo][dataset][framework]`.
    pub cells: Vec<Vec<Vec<CellOutcome>>>,
}

impl ComparisonGrid {
    pub fn cell(&self, algo: usize, ds: usize, fw: usize) -> &CellOutcome {
        &self.cells[algo][ds][fw]
    }
}

/// Runs the whole comparison grid on the given device profile.
pub fn run_comparison_grid(
    profile: &DeviceProfile,
    datasets: &[Dataset],
    sources_per_cell: usize,
    progress: bool,
) -> ComparisonGrid {
    let mut cells = Vec::new();
    for algo in AlgoKind::all() {
        let mut per_ds = Vec::new();
        for ds in datasets {
            let sources = sample_useful_sources(&ds.host, sources_per_cell, 0xF18 + algo as u64);
            let mut per_fw = Vec::new();
            for fw in FrameworkKind::all() {
                if progress {
                    eprintln!("  running {} / {} / {}", algo.name(), ds.key, fw.name());
                }
                per_fw.push(run_cell(profile, ds, fw, algo, &sources));
            }
            per_ds.push(per_fw);
        }
        cells.push(per_ds);
    }
    ComparisonGrid {
        dataset_keys: datasets.iter().map(|d| d.key.to_string()).collect(),
        sources: sources_per_cell,
        cells,
    }
}

/// Reads the experiment scale from `SYG_SCALE` (`test` or `bench`,
/// default bench) — lets CI use the fast setting.
pub fn scale_from_env() -> Scale {
    match std::env::var("SYG_SCALE").as_deref() {
        Ok("test") => Scale::Test,
        _ => Scale::Bench,
    }
}

/// Reads the per-cell source count from `SYG_SOURCES` (default 10; the
/// paper uses 200).
pub fn sources_from_env() -> usize {
    std::env::var("SYG_SOURCES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(10)
}

/// Cache location for grid results shared between `fig8` and `table6`.
pub fn grid_cache_path(scale: Scale, sources: usize) -> std::path::PathBuf {
    let tag = match scale {
        Scale::Test => "test",
        Scale::Bench => "bench",
    };
    std::path::PathBuf::from(format!("target/sygraph-bench/fig8-{tag}-{sources}.json"))
}

/// Loads a cached grid or runs it fresh (set `SYG_REFRESH=1` to force).
pub fn load_or_run_grid(scale: Scale, sources: usize) -> ComparisonGrid {
    let path = grid_cache_path(scale, sources);
    if std::env::var("SYG_REFRESH").is_err() {
        if let Ok(text) = std::fs::read_to_string(&path) {
            if let Ok(grid) = serde_json::from_str(&text) {
                eprintln!("(using cached grid {})", path.display());
                return grid;
            }
        }
    }
    let datasets = sygraph_gen::comparison_suite(scale);
    let grid = run_comparison_grid(&DeviceProfile::v100s(), &datasets, sources, true);
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    let _ = std::fs::write(&path, serde_json::to_string(&grid).unwrap());
    grid
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
    fn scaled_vram_has_floor() {
        let ds = sygraph_gen::datasets::road_ca(Scale::Test);
        let v = scaled_vram(&DeviceProfile::v100s(), &ds);
        assert!(v >= 8 << 20);
    }
}
