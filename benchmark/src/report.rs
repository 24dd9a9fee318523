//! What one run produces and how it is printed: a table a person reads,
//! then, as the last line of standard output, the JSON object the driver
//! reads.

use std::collections::BTreeMap;

use crate::spec::{Workload, END_TO_END, PER_LAYER};
use crate::trace::Tracer;
use crate::util::{median, nproc, percentile};

/// The command line of one run.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    /// How long the timed phase measures.
    pub seconds: f64,
    pub trace: bool,
    /// `Scale::Test` datasets and a short timed phase, for a quick local
    /// check; its numbers are not comparable with a real run's.
    pub smoke: bool,
}

impl RunArgs {
    /// An untraced run sets up at least 3 times, goes on until the set-ups
    /// have taken 4 s together (a cheap set-up is a noisy one), stops at 9,
    /// and reports the median as `setup_s`. Traced and smoke runs set up once.
    pub fn more_setups(&self, done_s: &[f64]) -> bool {
        if self.trace || self.smoke {
            return done_s.is_empty();
        }
        done_s.len() < 3 || (done_s.len() < 9 && done_s.iter().sum::<f64>() < 4.0)
    }

    /// Ops a timed phase must reach: the end-to-end p90 needs ten samples
    /// beyond it.
    pub fn min_timed_ops(&self) -> usize {
        if self.smoke {
            1
        } else {
            100
        }
    }
}

#[derive(Debug)]
pub struct RunReport {
    pub args: RunArgs,
    /// Operations attempted in the timed phase (traced runs add their
    /// replays), and how many errored, were refused or failed verification.
    pub attempted: u64,
    pub failed: u64,
    values: BTreeMap<&'static str, f64>,
    /// Sample counts behind the percentiles, printed beside the table.
    pub counts: Vec<(String, usize)>,
    /// Validity remarks and the first few failure messages.
    pub notes: Vec<String>,
}

impl RunReport {
    pub fn new(args: RunArgs) -> RunReport {
        RunReport {
            args,
            attempted: 0,
            failed: 0,
            values: BTreeMap::new(),
            counts: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Records a metric; the name must be one the spec tables declare.
    pub fn set(&mut self, name: &str, value: f64) {
        let declared = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .find(|&n| n == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared in spec.rs"));
        self.values.insert(declared, value);
    }

    pub fn set_all(&mut self, metrics: Vec<(&'static str, f64)>) {
        for (name, value) in metrics {
            self.set(name, value);
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    pub fn count(&mut self, what: &str, n: usize) {
        self.counts.push((what.to_string(), n));
    }

    /// Counts one failed operation and keeps the first few reasons.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failed <= 5 {
            self.notes.push(format!("FAILED op: {why}"));
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Percentile `p`, or the median with an INVALID note when the sample
    /// is too small for it (a smoke run).
    pub fn tail_or_median(&mut self, samples: &[f64], p: f64) -> f64 {
        percentile(samples, p).unwrap_or_else(|why| {
            self.notes.push(format!("INVALID: {why}; median reported"));
            median(samples)
        })
    }

    /// `trace.overhead_share` from the ops per second of the untraced and
    /// of the traced part of one phase; above 5 % the run is no result.
    pub fn set_trace_overhead(&mut self, untraced_rate: f64, traced_rate: f64) {
        let overhead = untraced_rate / traced_rate.max(1e-12) - 1.0;
        self.set("trace.overhead_share", overhead);
        if overhead > 0.05 {
            self.notes.push(format!(
                "INVALID: tracing overhead {overhead:.3} exceeds 0.05"
            ));
        }
    }

    /// Writes the spans to `benchmark/out/trace-<workload>.json`.
    pub fn write_trace(&mut self, tracer: &Tracer) {
        let dir = std::path::Path::new("benchmark/out");
        let path = dir.join(format!("trace-{}.json", self.args.workload.name()));
        let spans = tracer.spans();
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| crate::trace::write_chrome_trace(&path, &spans));
        self.notes.push(match written {
            Ok(()) => format!("{} spans written to {}", spans.len(), path.display()),
            Err(e) => format!("could not write {}: {e}", path.display()),
        });
    }

    /// The metrics this run owes the driver: every end-to-end metric
    /// untraced, every per-layer metric traced. A per-layer metric of a
    /// layer the workload never reaches reads 0.
    fn owed(&self) -> Vec<(&'static str, &'static str, Option<f64>)> {
        if self.args.trace {
            PER_LAYER
                .iter()
                .map(|m| (m.name, m.unit, self.get(m.name)))
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|m| {
                    let v = self.get(m.name);
                    assert!(v.is_some(), "end-to-end metric {} was not measured", m.name);
                    (m.name, m.unit, v)
                })
                .collect()
        }
    }

    pub fn print_human(&self, commit: &str) {
        let a = &self.args;
        println!(
            "== {} | seed {} | {} s timed | {} | nproc {} | commit {}{}",
            a.workload.name(),
            a.seed,
            a.seconds,
            if a.trace { "traced" } else { "untraced" },
            nproc(),
            commit,
            if a.smoke {
                " | SMOKE (not comparable)"
            } else {
                ""
            },
        );
        println!("   why: {}", a.workload.why());
        println!(
            "   modelled numbers (modelled_ms_per_op, dev_mem_peak_mb, sim.*, core.*, *.modelled_ms_p50) \
             are modelled, unvalidated against hardware: the repo holds no hardware reference"
        );
        println!(
            "   verification: bfs/sssp/cc and every bfs lane bit-equal to algos::reference; \
             bc within {:.0e} relative; pagerank within {:.0e} L1",
            crate::spec::BC_REL_TOL,
            crate::spec::PAGERANK_L1_TOL
        );
        println!(
            "   ops attempted {} failed {} (failed_share {:.4}) | slo limit {} ms",
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64,
            a.workload.slo_limit_ms()
        );
        for (what, n) in &self.counts {
            println!("   samples: {what} = {n}");
        }
        for (name, unit, value) in self.owed() {
            match value {
                Some(v) => println!("   {name:<44} {v:>14.4} {unit}"),
                None => println!("   {name:<44} {:>14} {unit}", "n/a"),
            }
        }
        for note in &self.notes {
            println!("   note: {note}");
        }
    }

    /// The driver's result object: exactly `correct`, `attempted`,
    /// `failed` and `metrics`, each value with all its digits.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .owed()
            .into_iter()
            .map(|(name, unit, value)| {
                let v = value.unwrap_or(0.0);
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}
