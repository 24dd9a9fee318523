//! The repo benchmark. See `benchmark/README.md` for what it measures and
//! `BENCHMARK.json` for the contract the driver holds it to.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1 [--smoke]   one run
//! benchmark [--seed N] [--seconds S] [--smoke]           every workload, untraced then traced
//! benchmark check [--sets K] [--seed N] [--seconds S] [--smoke]   K untraced sets, compared
//! benchmark spec                                         print BENCHMARK.json
//! ```

mod http;
mod layers;
mod report;
mod serve;
mod spec;
mod suite;
mod trace;
mod traverse;
mod util;
mod verify;

use std::process::ExitCode;

use report::RunArgs;
use spec::Workload;

/// Default length of the timed phase; `BENCHMARK.json` states the same.
pub const RUN_SECONDS: u64 = 20;

fn usage() -> ExitCode {
    eprintln!(
        "usage: benchmark --workload <{}> --seed N --seconds S --trace 0|1 [--smoke]\n\
         \x20      benchmark [--seed N] [--seconds S] [--smoke]\n\
         \x20      benchmark check [--sets K] [--seed N] [--seconds S] [--smoke]\n\
         \x20      benchmark spec",
        Workload::ALL.map(Workload::name).join("|")
    );
    ExitCode::from(2)
}

/// Flags shared by every mode.
pub struct Flags {
    pub workload: Option<Workload>,
    pub seed: u64,
    pub seconds: Option<f64>,
    pub trace: bool,
    pub smoke: bool,
    pub sets: usize,
}

fn parse_flags(args: &[String]) -> Option<Flags> {
    let mut flags = Flags {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        sets: 2,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => flags.workload = Some(Workload::parse(it.next()?)?),
            "--seed" => flags.seed = it.next()?.parse().ok()?,
            "--seconds" => {
                let s: f64 = it.next()?.parse().ok()?;
                if !(s > 0.0 && s <= 60.0) {
                    return None;
                }
                flags.seconds = Some(s);
            }
            "--trace" => {
                flags.trace = match it.next()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                }
            }
            "--smoke" => flags.smoke = true,
            "--sets" => flags.sets = it.next()?.parse().ok().filter(|&k| k >= 2)?,
            _ => return None,
        }
    }
    Some(flags)
}

impl Flags {
    /// `--seconds`, else the contract's run length (1 s under `--smoke`).
    pub fn seconds(&self) -> f64 {
        self.seconds
            .unwrap_or(if self.smoke { 1.0 } else { RUN_SECONDS as f64 })
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mode, rest) = match args.first().map(String::as_str) {
        Some(m @ ("check" | "spec")) => (m, &args[1..]),
        _ => ("run", &args[..]),
    };
    let Some(flags) = parse_flags(rest) else {
        return usage();
    };
    match mode {
        "spec" => {
            print!("{}", suite::benchmark_json());
            ExitCode::SUCCESS
        }
        "check" => suite::check(&flags),
        _ => {
            // No workload named: run everything.
            let Some(workload) = flags.workload else {
                return suite::run_all(&flags);
            };
            let run = RunArgs {
                workload,
                seed: flags.seed,
                seconds: flags.seconds(),
                trace: flags.trace,
                smoke: flags.smoke,
            };
            let report = match workload {
                Workload::TraverseRoad | Workload::TraverseSkew => traverse::run(run),
                Workload::ServeClosedMix | Workload::ServeOpenBfs => serve::run(run),
            };
            report.print_human(&suite::commit());
            println!("{}", report.json_line());
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
    }
}
