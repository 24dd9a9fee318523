//! `bench list` · `bench run <name>…|--all [--out <dir>]` ·
//! `bench diff <fresh-dir> [<committed-dir>]`
//!
//! `run` prints each report's tables and writes `BENCH_<name>.json` into
//! the directory (default: the working directory). It exits non-zero
//! only when an experiment fails — an equivalence check, or a run that
//! could not complete; a performance bar that does not hold is recorded
//! in the report. `diff` compares every committed `BENCH_*.json` of a
//! registered experiment with the fresh one — labels, counts, verdicts
//! and modelled values exactly, host-clock columns not at all — and
//! exits non-zero on any difference. The modelled clock repeats exactly
//! on one host thread only (ROADMAP item 1), so the gate is
//! `taskset -c 0 bench run --all --out <dir> && bench diff <dir>`.
//! Scale and sources per cell come from `SYG_SCALE` and `SYG_SOURCES`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use sygraph_bench::report::{diff, Report};
use sygraph_bench::{Context, Experiment, EXPERIMENTS};

fn run(args: &[String]) -> Result<(), String> {
    let mut out = PathBuf::from(".");
    let mut picked: Vec<(&str, Experiment)> = Vec::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--all" => picked = EXPERIMENTS.to_vec(),
            "--out" => out = args.next().ok_or("--out needs a directory")?.into(),
            name => {
                let known = EXPERIMENTS.iter().find(|e| e.0 == name);
                picked.push(*known.ok_or(format!("no experiment {name:?} (see `bench list`)"))?);
            }
        }
    }
    if picked.is_empty() {
        return Err("nothing to run: name experiments or pass --all".into());
    }
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let ctx = Context::from_env();
    let mut failed = Vec::new();
    for (name, experiment) in picked {
        eprintln!("running {name} …");
        match experiment(&ctx).and_then(|report| Ok((report.write(&out)?, report))) {
            Ok((path, report)) => println!("{}wrote {}\n", report.render(), path.display()),
            Err(why) => {
                eprintln!("{name} FAILED: {why}");
                failed.push(name);
            }
        }
    }
    match failed.as_slice() {
        [] => Ok(()),
        names => Err(format!("failed: {}", names.join(", "))),
    }
}

fn compare(fresh: &Path, committed: &Path) -> Result<(), String> {
    let mut lines = Vec::new();
    let mut compared = 0;
    for (name, _) in EXPERIMENTS {
        let old = Report::path_in(committed, name);
        if !old.exists() {
            continue;
        }
        compared += 1;
        match Report::read(&Report::path_in(fresh, name)) {
            Ok(new) => lines.extend(diff(&new, &Report::read(&old)?)),
            Err(why) => lines.push(format!("{name}: no fresh report ({why})")),
        }
    }
    if compared == 0 {
        return Err(format!("no BENCH_*.json in {}", committed.display()));
    }
    if lines.is_empty() {
        println!("{compared} reports agree");
        return Ok(());
    }
    lines.iter().for_each(|line| println!("{line}"));
    Err(format!("{} differences", lines.len()))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let done = match args.first().map(String::as_str) {
        Some("list") => {
            EXPERIMENTS.iter().for_each(|(name, _)| println!("{name}"));
            Ok(())
        }
        Some("run") => run(&args[1..]),
        Some("diff") if (2..=3).contains(&args.len()) => {
            let committed = args.get(2).map_or(".", String::as_str);
            compare(Path::new(&args[1]), Path::new(committed))
        }
        _ => Err("usage: bench list | run <name>…|--all [--out <dir>] | diff <fresh-dir> [<committed-dir>]".into()),
    };
    match done {
        Ok(()) => ExitCode::SUCCESS,
        Err(why) => {
            eprintln!("bench: {why}");
            ExitCode::FAILURE
        }
    }
}
