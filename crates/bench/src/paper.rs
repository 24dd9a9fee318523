//! The paper's evaluation artefacts: Tables 3–5 and Figures 7–10.
//! `fig8` runs the comparison grid once and reports Figure 8 (median,
//! preprocessing and spread per cell) and Table 6 (SYgraph's speedup
//! over each comparator, with and without preprocessing) from it.
//! All times are modelled device milliseconds.

use serde_json::json;
use sygraph_baselines::AlgoKind;
use sygraph_core::graph::Graph;
use sygraph_core::inspector::OptConfig;
use sygraph_gen::{comparison_suite, datasets, paper_suite, Dataset, Scale};
use sygraph_sim::{DeviceProfile, KernelRecord, Queue, SimError};

use crate::report::{Cell, Report, Table};
use crate::{geomean, hub_source, run_cell, sample_useful_sources, stats};
use crate::{CellOutcome, Context, FrameworkKind};

/// `table` with one modelled column per dataset and `suffix`.
fn per_dataset(mut table: Table, sets: &[Dataset], suffixes: &[&str], decimals: usize) -> Table {
    for ds in sets {
        for suffix in suffixes {
            table = table.modelled(format!("{}{suffix}", ds.key).trim(), decimals);
        }
    }
    table
}

/// Table 3: the generated stand-ins next to the full-size statistics of
/// the datasets they model.
pub fn table3(ctx: &Context) -> Result<Report, String> {
    let mut table = Table::new("datasets")
        .label("graph")
        .count("vertices")
        .count("edges")
        .modelled("avg_deg", 1)
        .count("max_deg")
        .count("paper_vertices")
        .count("paper_edges");
    for d in paper_suite(ctx.scale) {
        table.row(vec![
            json!(format!("{} ({})", d.name, d.key)),
            json!(d.host.vertex_count()),
            json!(d.host.edge_count()),
            json!(d.host.avg_degree()),
            json!(d.host.max_degree()),
            json!(d.paper_vertices),
            json!(d.paper_edges),
        ]);
    }
    Ok(ctx.report("table3", vec![table]))
}

/// Table 4: the simulated hardware setups.
pub fn table4(ctx: &Context) -> Result<Report, String> {
    let mut table = Table::new("machines")
        .label("machine")
        .label("vendor")
        .label("gpu")
        .count("vram_gb")
        .label("backend")
        .count("l2_mb")
        .count("cus")
        .label("subgroups");
    for (tag, p) in ["A", "B", "C"].iter().zip(DeviceProfile::paper_machines()) {
        let widths: Vec<String> = p.subgroup_sizes.iter().map(|s| s.to_string()).collect();
        table.row(vec![
            json!(tag),
            json!(format!("{:?}", p.vendor)),
            json!(p.name),
            json!(p.vram_bytes >> 30),
            json!(p.vendor.backend()),
            json!(p.l2_bytes >> 20),
            json!(p.compute_units),
            json!(widths.join("/")),
        ]);
    }
    let mut report = ctx.report("table4", vec![table]);
    report.device = "table-4 machines".into();
    Ok(report)
}

/// Figure 7: speedup of the bitmap optimizations on the Indochina
/// stand-in, BFS from the hub. *MSI* matches the word width to the
/// subgroup, *CF* coarsens, *2LB* adds the second layer; *All* combines
/// them. Speedups are against the plain single-layer bitmap (paper: All
/// reaches 4.43× on the full-size dataset).
pub fn fig7(ctx: &Context) -> Result<Report, String> {
    let ds = match ctx.scale {
        Scale::Test => datasets::indochina(Scale::Test),
        Scale::Bench => datasets::indochina_fig7(),
    };
    let mut table = Table::new("bitmap ablation")
        .label("config")
        .modelled("median_ms", 4)
        .modelled("speedup", 2);
    let sources = [hub_source(&ds.host); 2];
    let mut base = None;
    for (label, opts) in OptConfig::ablation_suite() {
        let q = ctx.queue(&ds);
        let g = Graph::new(&q, &ds.host).map_err(|e| e.to_string())?;
        let mut runs = Vec::new();
        for &s in &sources {
            let r = sygraph_algos::bfs::run(&q, &g.csr, s, &opts).map_err(|e| e.to_string())?;
            runs.push(r.sim_ms);
        }
        let median = stats(&runs).median;
        let base = *base.get_or_insert(median);
        table.row(vec![json!(label), json!(median), json!(base / median)]);
    }
    let mut report = ctx.report("fig7", vec![table]);
    report.param("dataset", ds.name);
    report.param("vertices", ds.host.vertex_count());
    report.param("edges", ds.host.edge_count());
    Ok(report)
}

/// Prepares `fw` on a fresh device scaled to `ds` and runs one BFS from
/// `src`; returns the queue and the device memory in use once prepared.
fn bfs_once(
    ctx: &Context,
    ds: &Dataset,
    fw: FrameworkKind,
    src: u32,
) -> Result<(Queue, u64), String> {
    let q = ctx.queue(ds);
    let mut framework = fw.make();
    let fail = |e: SimError| format!("{} BFS on {}: {e}", fw.name(), ds.key);
    framework.prepare(&q, &ds.host).map_err(fail)?;
    let prepared_mem = q.device().mem_used();
    framework.run(&q, AlgoKind::Bfs, src).map_err(fail)?;
    Ok((q, prepared_mem))
}

/// Kernels that constitute each framework's "advance" work.
fn advance_filter(fw: FrameworkKind) -> fn(&str) -> bool {
    match fw {
        // The whole advance family (word walk, sparse list, pull, the
        // three degree buckets) minus the binning pass that feeds them.
        FrameworkKind::Sygraph => |n| n.starts_with("advance") && n != "advance_bucket_bin",
        FrameworkKind::Gunrock => |n| n == "gq_advance" || n == "gq_filter",
        FrameworkKind::Tigr => |n| n.starts_with("tigr_bfs"),
        FrameworkKind::SepGraph => |n| n.starts_with("sep_push") || n.starts_with("sep_pull"),
    }
}

/// Table 5: peak L1 hit rate and achieved occupancy (percent) during BFS
/// advance kernels — the simulator's counterpart of the paper's NCU
/// measurements (paper: SYgraph ~87–92 % L1, Gunrock 4–32 %, Tigr
/// 11–56 %, SEP 51–78 %; occupancy 84–93 % across the board).
pub fn table5(ctx: &Context) -> Result<Report, String> {
    let sets = comparison_suite(ctx.scale);
    let table = Table::new("peak L1 hit rate % / achieved occupancy %").label("framework");
    let mut table = per_dataset(table, &sets, &[" L1H", " Occ"], 0);
    for fw in FrameworkKind::all() {
        let mut row = vec![json!(fw.name())];
        for ds in &sets {
            let src = sample_useful_sources(&ds.host, 1, 5)[0];
            let (q, _) = bfs_once(ctx, ds, fw, src)?;
            let f = advance_filter(fw);
            // Ignore tiny launches, as NCU's peak metrics effectively do.
            let l1 = |k: &KernelRecord| {
                (f(&k.name) && k.stats.totals.transactions() >= 64).then(|| k.stats.l1_hit_rate())
            };
            let occupancy = |k: &KernelRecord| f(&k.name).then_some(k.stats.occupancy);
            row.push(json!(q.profiler().peak(0.0, l1) * 100.0));
            row.push(json!(q.profiler().peak(0.0, occupancy) * 100.0));
        }
        table.row(row);
    }
    Ok(ctx.report("table5", vec![table]))
}

/// What a cell that produced no time shows instead.
fn no_time(outcome: &CellOutcome) -> Cell {
    match outcome {
        CellOutcome::Oom => json!("OOM"),
        _ => json!("-"),
    }
}

/// Figure 8 and Table 6: BC, BFS, CC, SSSP over the six comparison
/// datasets and four frameworks. `OOM` marks a framework that exhausted
/// the scaled VRAM, `-` a missing implementation (SEP-Graph CC). Paper
/// geomeans: Gunrock 3.49×, Tigr 7.51×, SEP-Graph 2.29×.
pub fn fig8(ctx: &Context) -> Result<Report, String> {
    let sets = comparison_suite(ctx.scale);
    let mut figure = Table::new("figure 8")
        .label("algo")
        .label("dataset")
        .label("framework")
        .modelled("median_ms", 2)
        .modelled("prep_ms", 2)
        .modelled("std_ms", 2);
    // grid[algo][dataset][framework]
    let mut grid = Vec::new();
    for algo in AlgoKind::all() {
        let mut per_ds = Vec::new();
        for ds in &sets {
            eprintln!("  fig8: {} on {}", algo.name(), ds.key);
            let sources = sample_useful_sources(&ds.host, ctx.sources, 0xF18 + algo as u64);
            let cells = FrameworkKind::all().map(|fw| {
                let cell = run_cell(&ctx.profile, ds, fw, algo, &sources);
                let times = match &cell {
                    CellOutcome::Ok(c) => [c.median_ms, c.prep_ms, c.std_ms].map(|x| json!(x)),
                    other => [no_time(other), no_time(other), no_time(other)],
                };
                let mut row = vec![json!(algo.name()), json!(ds.key), json!(fw.name())];
                row.extend(times);
                figure.row(row);
                cell
            });
            per_ds.push(cells);
        }
        grid.push(per_ds);
    }

    let table6 = Table::new("table 6: SYgraph speedup, with | without preprocessing");
    let table6 = table6.label("vs").label("algo");
    let mut table6 = per_dataset(table6, &sets, &[" WPP", " WOP"], 2);
    let mut geomeans = Table::new("geometric-mean speedups")
        .label("vs")
        .modelled("WPP", 2)
        .modelled("WOP", 2);
    // `FrameworkKind::all()` is in declaration order, so a kind's
    // discriminant is its column of the grid.
    let sy = FrameworkKind::Sygraph as usize;
    for comp in [
        FrameworkKind::Gunrock,
        FrameworkKind::SepGraph,
        FrameworkKind::Tigr,
    ] {
        let (mut wpps, mut wops) = (Vec::new(), Vec::new());
        for (algo, per_ds) in AlgoKind::all().iter().zip(&grid) {
            let mut row = vec![json!(comp.name()), json!(algo.name())];
            for cells in per_ds {
                match (&cells[sy], &cells[comp as usize]) {
                    (CellOutcome::Ok(s), CellOutcome::Ok(c)) => {
                        wpps.push((c.median_ms + c.prep_ms) / (s.median_ms + s.prep_ms));
                        wops.push(c.median_ms / s.median_ms);
                        row.push(json!(wpps[wpps.len() - 1]));
                        row.push(json!(wops[wops.len() - 1]));
                    }
                    (CellOutcome::Ok(_), other) => row.extend([no_time(other), no_time(other)]),
                    _ => row.extend([json!("SY-OOM"), json!("SY-OOM")]),
                }
            }
            table6.row(row);
        }
        geomeans.row(vec![
            json!(comp.name()),
            json!(geomean(&wpps)),
            json!(geomean(&wops)),
        ]);
    }
    let mut report = ctx.report("fig8", vec![figure, table6, geomeans]);
    report.param("sources_per_cell", ctx.sources);
    Ok(report)
}

/// Figure 9: memory behaviour during BFS on roadNet-CA, Hollywood-2009
/// and Indochina-2004 — DRAM traffic per iteration (the line plots; the
/// first twelve shown) and allocation per framework (the inset bars).
/// Paper shape: SYgraph's bitmaps move the least data, Gunrock's vector
/// frontiers balloon on hubs, Tigr's padded UDT arrays dominate
/// allocation, SEP-Graph allocates up front (graph + CSC).
pub fn fig9(ctx: &Context) -> Result<Report, String> {
    let mut table = Table::new("memory during BFS")
        .label("dataset")
        .count("vertices")
        .count("edges")
        .label("framework")
        .count("iters")
        .modelled("traffic/iter KB", 0)
        .modelled("total traffic KB", 0)
        .count("graph KB")
        .count("peak alloc KB");
    for dataset in [datasets::road_ca, datasets::hollywood, datasets::indochina] {
        let ds = dataset(ctx.scale);
        // Figure 7's common source: from vertex 0 an Indochina BFS is
        // over in two supersteps, from the hub it covers the crawl.
        let src = hub_source(&ds.host);
        for fw in FrameworkKind::all() {
            let (q, graph_mem) = bfs_once(ctx, &ds, fw, src)?;
            let phases = q.profiler().dram_bytes_by_phase();
            let series: Vec<f64> = phases.iter().map(|(_, b)| *b as f64 / 1024.0).collect();
            let mut head: Vec<String> = series.iter().take(12).map(|x| format!("{x:.0}")).collect();
            if series.len() > 12 {
                head.push("...".into());
            }
            table.row(vec![
                json!(ds.name),
                json!(ds.host.vertex_count()),
                json!(ds.host.edge_count()),
                json!(fw.name()),
                json!(series.len()),
                json!(head.join(" ")),
                json!(series.iter().sum::<f64>()),
                json!(graph_mem / 1024),
                json!(q.device().mem_peak() / 1024),
            ]);
        }
    }
    Ok(ctx.report("fig9", vec![table]))
}

/// Figure 10: SYgraph across GPU architectures — all four algorithms on
/// the seven-dataset suite, on the V100S (CUDA), MAX 1100 (LevelZero)
/// and MI100 (ROCm) profiles. Paper shape: V100S strong overall; the
/// MAX 1100's 108 MB L2 pays off on sparse road graphs; the MI100 leads
/// on dense CC workloads.
pub fn fig10(ctx: &Context) -> Result<Report, String> {
    let sources = ctx.sources.min(10);
    let sets = paper_suite(ctx.scale);
    let table = Table::new("median ms").label("algo").label("device");
    let mut table = per_dataset(table, &sets, &[""], 3);
    for algo in AlgoKind::all() {
        for profile in DeviceProfile::paper_machines() {
            let mut row = vec![json!(algo.name()), json!(profile.name)];
            for ds in &sets {
                let srcs = sample_useful_sources(&ds.host, sources, 0xA10);
                row.push(
                    match run_cell(&profile, ds, FrameworkKind::Sygraph, algo, &srcs) {
                        CellOutcome::Ok(c) => json!(c.median_ms),
                        other => no_time(&other),
                    },
                );
            }
            table.row(row);
        }
    }
    let mut report = ctx.report("fig10", vec![table]);
    report.device = "table-4 machines".into();
    report.param("sources_per_cell", sources);
    Ok(report)
}
