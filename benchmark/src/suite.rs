//! The modes that run more than one workload. Each run is a child process
//! of this same binary, so `peak_rss_mb` and the modelled caches start
//! clean for every workload.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

use crate::spec::{Better, Workload, END_TO_END, PER_LAYER};
use crate::{Flags, RUN_SECONDS};

/// The commit under test, as `run.sh` found it; a checkout that is not a
/// git repository has none.
pub fn commit() -> String {
    std::env::var("BENCH_COMMIT").unwrap_or_else(|_| "unknown".into())
}

/// `BENCHMARK.json`, generated from the tables in `spec.rs`.
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = Workload::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                w.name(),
                w.why()
            )
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {:?}}}",
                m.name,
                m.unit,
                m.better.label(),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.label()
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

/// One child run's result line.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

/// Runs one workload in a fresh process, passing its report through, and
/// parses the result object on its last line.
fn run_child(workload: Workload, flags: &Flags, trace: bool) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &flags.seed.to_string()])
        .args(["--seconds", &flags.seconds().to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if flags.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&out.stdout);
    let (report, last) = text
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", text.trim_end()));
    println!("{report}");
    let doc = serde::parse_json(last).map_err(|e| {
        format!(
            "{} ({}) printed no result object: {e:?}",
            workload.name(),
            out.status
        )
    })?;
    let number = |v: Option<&serde::Value>| match v {
        Some(serde::Value::Float(f)) => Some(*f),
        Some(serde::Value::Int(i)) => Some(*i as f64),
        Some(serde::Value::UInt(u)) => Some(*u as f64),
        _ => None,
    };
    let mut metrics = BTreeMap::new();
    if let Some(serde::Value::Object(fields)) = doc.get_field("metrics") {
        for (name, entry) in fields {
            if let Some(v) = number(entry.get_field("value")) {
                metrics.insert(name.clone(), v);
            }
        }
    }
    Ok(Outcome {
        correct: matches!(doc.get_field("correct"), Some(serde::Value::Bool(true)))
            && out.status.success(),
        attempted: number(doc.get_field("attempted")).unwrap_or(0.0) as u64,
        failed: number(doc.get_field("failed")).unwrap_or(0.0) as u64,
        metrics,
    })
}

/// One run of every workload; `None` where a run gave no result.
fn run_set(flags: &Flags, trace: bool) -> Vec<Option<Outcome>> {
    Workload::ALL
        .iter()
        .map(|&w| {
            run_child(w, flags, trace)
                .map_err(|why| eprintln!("error: {why}"))
                .ok()
        })
        .collect()
}

fn print_header(title: &str) {
    print!("\n{title:<22}");
    for w in Workload::ALL {
        print!(" {:>18}", w.name());
    }
    println!();
}

/// Every workload untraced, then traced; ends with the end-to-end table.
pub fn run_all(flags: &Flags) -> ExitCode {
    let untraced = run_set(flags, false);
    let traced = run_set(flags, true);

    print_header("end-to-end (untraced)");
    for m in END_TO_END {
        print!("{:<22}", format!("{} [{}]", m.name, m.unit));
        for run in &untraced {
            match run.as_ref().and_then(|r| r.metrics.get(m.name)) {
                Some(v) => print!(" {v:>18.4}"),
                None => print!(" {:>18}", "-"),
            }
        }
        println!();
    }
    print!("{:<22}", "failed / attempted");
    for run in &untraced {
        match run {
            Some(r) => print!(" {:>18}", format!("{} / {}", r.failed, r.attempted)),
            None => print!(" {:>18}", "-"),
        }
    }
    println!();
    let all_correct = untraced
        .iter()
        .chain(&traced)
        .all(|r| r.as_ref().is_some_and(|r| r.correct));
    if all_correct {
        println!("\nevery output verified");
        ExitCode::SUCCESS
    } else {
        println!("\nFAILED: a run gave no result, or an operation failed or was wrong");
        ExitCode::FAILURE
    }
}

/// `--sets` untraced sets of the same code, compared cell by cell: for
/// every (end-to-end metric, workload) the first set's value, the value
/// that differs most from it, the relative difference, and the bound.
pub fn check(flags: &Flags) -> ExitCode {
    let sets: Vec<Vec<Option<Outcome>>> = (0..flags.sets)
        .map(|k| {
            println!("\n######## set {} of {}", k + 1, flags.sets);
            run_set(flags, false)
        })
        .collect();
    let mut exceeded = 0;
    let mut incorrect = 0;
    println!(
        "\n{:<20} {:<18} {:>12} {:>12} {:>9} {:>7}",
        "metric", "workload", "first", "furthest", "rel diff", "bound"
    );
    for (wi, w) in Workload::ALL.iter().enumerate() {
        if !sets
            .iter()
            .all(|s| s[wi].as_ref().is_some_and(|r| r.correct))
        {
            incorrect += 1;
            println!(
                "{:<20} {:<18} a run failed or gave no result",
                "-",
                w.name()
            );
            continue;
        }
        for m in END_TO_END {
            let values: Vec<f64> = sets
                .iter()
                .filter_map(|s| s[wi].as_ref()?.metrics.get(m.name).copied())
                .collect();
            let first = values[0];
            // How much worse (in the metric's direction) any later set is.
            let furthest = values[1..]
                .iter()
                .copied()
                .max_by(|a, b| (a - first).abs().total_cmp(&(b - first).abs()))
                .unwrap_or(first);
            let rel = (furthest - first).abs() / first.abs().max(1e-12);
            let worse = match m.better {
                Better::Lower => furthest > first,
                Better::Higher => furthest < first,
            };
            let flag = if rel > m.bound {
                exceeded += 1;
                if worse {
                    "  EXCEEDS (worse)"
                } else {
                    "  EXCEEDS (better)"
                }
            } else {
                ""
            };
            println!(
                "{:<20} {:<18} {first:>12.4} {furthest:>12.4} {rel:>9.4} {:>7.2}{flag}",
                m.name,
                w.name(),
                m.bound
            );
        }
    }
    if exceeded + incorrect == 0 {
        println!("\nevery cell agrees within its bound");
        ExitCode::SUCCESS
    } else {
        println!("\nFAILED: {exceeded} cells differ by more than their bound, {incorrect} workloads failed");
        ExitCode::FAILURE
    }
}
