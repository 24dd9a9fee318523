//! The policy ablations — `advance_balancing`, `direction_opt`,
//! `frontier_rep` — as one experiment over three [`Spec`]s: datasets ×
//! policy variants × algorithms → equivalence under each algorithm's
//! declared determinism class → modelled cycles of a kernel family →
//! speedup against the first variant.
//!
//! Every run starts from the highest-out-degree vertex. A variant may
//! change which edges get scanned and in what order, never the result:
//! BFS and SSSP must agree bit for bit, BC (order-dependent float
//! accumulation) within `Algo::Bc.determinism()`. A
//! divergence fails the experiment; a missed performance bar is a
//! recorded verdict.

use serde_json::json;
use sygraph_algos::{bfs, Algo, Args, Values};
use sygraph_core::frontier::maintenance_payer;
use sygraph_core::graph::Graph;
use sygraph_core::inspector::{Balancing, Direction, OptConfig, Representation};
use sygraph_gen::{datasets, Dataset, Scale};
use sygraph_sim::{KernelRecord, Queue};

use crate::report::{Clock::Modelled, Report, Table, Verdict};
use crate::{hub_source, Context};

/// The advance family: `advance`, `advance_pull*`, `advance_sparse` and
/// the bucket kernels including the binning pass.
fn is_advance(kernel: &str) -> bool {
    kernel.starts_with("advance")
}

/// The traversal pipeline: the advance family plus every
/// frontier-maintenance kernel a representation or direction pays.
fn is_pipeline(kernel: &str) -> bool {
    is_advance(kernel) || maintenance_payer(kernel).is_some()
}

/// Modelled execution cycles of the recorded kernels in `family`.
fn exec_cycles(q: &Queue, family: fn(&str) -> bool) -> f64 {
    let per_ns = q.profile().cycles_per_ns();
    let kernels = q.profiler().kernels();
    let family = kernels.iter().filter(|k| family(&k.name));
    family.map(|k| k.stats.exec_ns * per_ns).sum()
}

/// A dataset generator, and whether the dataset is in the spec's marked
/// group.
type MarkedDataset = (fn(Scale) -> Dataset, bool);
/// A variant's name and the `OptConfig::all()` knob it forces.
type Variant = (&'static str, fn(&mut OptConfig));

struct Spec {
    name: &'static str,
    /// What the marked datasets have in common.
    mark: &'static str,
    datasets: &'static [MarkedDataset],
    /// Speedups are against the first; the bars on `auto` read the last.
    variants: [Variant; 3],
    /// The algorithms each variant runs, in order.
    algos: &'static [Algo],
    /// Upload a pull-capable graph and run the fused driver (the
    /// direction policy needs the CSC mirror).
    pull: bool,
    /// Column name and kernel family of the cost compared.
    cost: (&'static str, fn(&str) -> bool),
    bars: fn(&[Outcome]) -> Vec<Verdict>,
}

/// One (dataset, variant) measurement, as the bars see it.
struct Outcome {
    marked: bool,
    /// Index into `Spec::variants`.
    variant: usize,
    cycles: f64,
    /// The first variant's cycles on the same dataset.
    base_cycles: f64,
    /// Modelled time of the whole run, every kernel included.
    sim_ms: f64,
}

impl Outcome {
    fn speedup(&self) -> f64 {
        self.base_cycles / self.cycles.max(1e-9)
    }
}

fn best_speedup<'a>(cells: impl Iterator<Item = &'a Outcome>) -> f64 {
    cells.map(Outcome::speedup).fold(0.0, f64::max)
}

fn worst_speedup<'a>(cells: impl Iterator<Item = &'a Outcome>) -> f64 {
    cells.map(Outcome::speedup).fold(f64::INFINITY, f64::min)
}

/// Degree-aware load balancing (DESIGN.md §8): the bucket-binning pass is
/// inside the advance family, so only the bucketed path pays it.
const ADVANCE_BALANCING: Spec = Spec {
    name: "advance_balancing",
    mark: "power_law",
    datasets: &[
        (datasets::kron, true),
        (datasets::twitter, true),
        (datasets::hollywood, true),
        (datasets::indochina, true),
        (datasets::road_ca, false),
    ],
    variants: [
        ("wg", |o| o.balancing = Balancing::WorkgroupMapped),
        ("bucketed", |o| o.balancing = Balancing::Bucketed),
        ("auto", |o| o.balancing = Balancing::Auto),
    ],
    algos: &[Algo::Bfs, Algo::Sssp, Algo::Bc],
    pull: false,
    cost: ("advance_cycles", is_advance),
    bars: |cells| {
        let best = best_speedup(cells.iter().filter(|c| c.marked && c.variant > 0));
        let name = "best power-law speedup over workgroup-mapped >= 1.5";
        vec![Verdict::new(name, Modelled, best, 1.5, best >= 1.5)]
    },
};

/// Direction optimization (DESIGN.md §12): the edge scans the bottom-up
/// supersteps skip are where the Beamer hybrid pays on scale-free
/// graphs; road and web graphs are the guard rail.
const DIRECTION_OPT: Spec = Spec {
    name: "direction_opt",
    mark: "scale_free",
    datasets: &[
        (datasets::kron, true),
        (datasets::twitter, true),
        (datasets::road_usa, false),
        (datasets::indochina, false),
    ],
    variants: [
        ("push", |o| o.direction = Direction::Push),
        ("pull", |o| o.direction = Direction::Pull),
        ("auto", |o| o.direction = Direction::Auto),
    ],
    algos: &[Algo::Bfs],
    pull: true,
    cost: ("traversal_cycles", is_pipeline),
    bars: |cells| {
        let auto = |marked| {
            cells
                .iter()
                .filter(move |c| c.variant == 2 && c.marked == marked)
        };
        let beats = auto(true).all(|c| c.cycles < c.base_cycles);
        let close = auto(false).all(|c| c.cycles <= c.base_cycles * 1.03);
        let (wins, guard) = (worst_speedup(auto(true)), worst_speedup(auto(false)));
        // Regret: auto's modelled time over the better fixed direction's,
        // per dataset (the cells run push, pull, auto in order).
        let regret = cells
            .chunks(3)
            .map(|d| d[2].sim_ms / d[0].sim_ms.min(d[1].sim_ms).max(1e-12))
            .fold(0.0, f64::max);
        let name = "auto beats push on every scale-free dataset";
        let guard_name = "auto never loses > 3% to push on road/web";
        let regret_name = "auto within 1.10x of the better fixed direction on every dataset";
        vec![
            Verdict::new(name, Modelled, wins, 1.0, beats),
            Verdict::new(guard_name, Modelled, guard, 1.0 / 1.03, close),
            Verdict::new(regret_name, Modelled, regret, 1.10, regret <= 1.10),
        ]
    },
};

/// Frontier representation (DESIGN.md §9): the dense compaction scan
/// runs over all bitmap words however few are set, which is the cost the
/// sparse list removes on high-diameter road graphs.
const FRONTIER_REP: Spec = Spec {
    name: "frontier_rep",
    mark: "road",
    datasets: &[
        (datasets::road_ca, true),
        (datasets::road_usa, true),
        (datasets::kron, false),
        (datasets::hollywood, false),
        (datasets::indochina, false),
    ],
    variants: [
        ("dense", |o| o.representation = Representation::Dense),
        ("sparse", |o| o.representation = Representation::Sparse),
        ("auto", |o| o.representation = Representation::Auto),
    ],
    algos: &[Algo::Bfs, Algo::Sssp],
    pull: false,
    cost: ("frontier_cycles", is_pipeline),
    bars: |cells| {
        let best = best_speedup(cells.iter().filter(|c| c.marked && c.variant > 0));
        let auto = || cells.iter().filter(|c| c.variant == 2);
        let close = auto().all(|c| c.cycles <= c.base_cycles * 1.02);
        let name = "best road-graph speedup over dense > 1.0";
        let guard_name = "auto never loses > 2% to dense";
        vec![
            Verdict::new(name, Modelled, best, 1.0, best > 1.0),
            Verdict::new(
                guard_name,
                Modelled,
                worst_speedup(auto()),
                1.0 / 1.02,
                close,
            ),
        ]
    },
};

pub fn advance_balancing(ctx: &Context) -> Result<Report, String> {
    run(ctx, &ADVANCE_BALANCING)
}

pub fn direction_opt(ctx: &Context) -> Result<Report, String> {
    run(ctx, &DIRECTION_OPT)
}

pub fn frontier_rep(ctx: &Context) -> Result<Report, String> {
    run(ctx, &FRONTIER_REP)
}

fn run(ctx: &Context, spec: &Spec) -> Result<Report, String> {
    let mut sets = Table::new("datasets")
        .label("dataset")
        .label(spec.mark)
        .count("vertices")
        .count("edges")
        .count("source");
    let mut table = Table::new("cells")
        .label("dataset")
        .label("variant")
        .modelled(spec.cost.0, 1)
        .modelled("sim_ms", 6)
        .modelled("worst_imbalance", 4)
        .count("pull_supersteps")
        .count("dir_switches")
        .count("rep_switches")
        .modelled(&format!("speedup_vs_{}", spec.variants[0].0), 4);
    let mut cells = Vec::new();

    for &(dataset, marked) in spec.datasets {
        let ds = dataset(ctx.scale);
        let src = hub_source(&ds.host);
        sets.row(vec![
            json!(ds.key),
            json!(marked),
            json!(ds.host.vertex_count()),
            json!(ds.host.edge_count()),
            json!(src),
        ]);
        let mut base: Option<(Vec<Values>, f64)> = None;
        for (vi, (variant, force)) in spec.variants.iter().enumerate() {
            let mut opts = OptConfig::all();
            force(&mut opts);
            let q = ctx.queue(&ds);
            let g = if spec.pull {
                Graph::with_pull(&q, &ds.host)
            } else {
                Graph::new(&q, &ds.host)
            };
            let g = g.map_err(|e| e.to_string())?;
            let mut values = Vec::new();
            let mut sim_ms = 0.0;
            for &algo in spec.algos {
                // The direction spec's BFS is the fused driver, which the
                // catalogue does not list.
                let ran = if spec.pull && algo == Algo::Bfs {
                    bfs::run_fused(&q, &g, src, &opts).map(Into::into)
                } else {
                    algo.run(&q, &g, Args::rooted(src), &opts)
                };
                let ran = ran.map_err(|e| format!("{algo} on {} under {variant}: {e}", ds.key))?;
                values.push(ran.values);
                sim_ms += ran.sim_ms;
            }
            let cycles = exec_cycles(&q, spec.cost.1);
            let (base_values, base_cycles) = base.get_or_insert((values.clone(), cycles));
            for ((algo, ours), theirs) in spec.algos.iter().zip(&values).zip(&*base_values) {
                if !theirs.agrees(ours, algo.determinism()) {
                    let base = spec.variants[0].0;
                    return Err(format!(
                        "{algo} under {variant} diverged from {base} on {}",
                        ds.key
                    ));
                }
            }
            let cell = Outcome {
                marked,
                variant: vi,
                cycles,
                base_cycles: *base_cycles,
                sim_ms,
            };
            let prof = q.profiler();
            let dirs = prof.direction_events();
            let imbalance =
                |k: &KernelRecord| is_advance(&k.name).then(|| k.stats.load_imbalance());
            table.row(vec![
                json!(ds.key),
                json!(variant),
                json!(cycles),
                json!(sim_ms),
                json!(prof.peak(1.0, imbalance)),
                json!(dirs.iter().filter(|e| e.direction == "pull").count()),
                json!(dirs.iter().filter(|e| e.switched).count()),
                json!(prof.rep_events().iter().filter(|e| e.switched).count()),
                json!(cell.speedup()),
            ]);
            cells.push(cell);
        }
    }
    let mut report = ctx.report(spec.name, vec![sets, table]);
    report.verdicts = (spec.bars)(&cells);
    Ok(report)
}
