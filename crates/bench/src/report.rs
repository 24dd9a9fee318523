//! The one result type every experiment returns, with its one renderer
//! (the aligned tables that are both stdout and what EXPERIMENTS.md
//! pastes), its one writer (`BENCH_<name>.json`) and the comparison
//! `bench diff` gates on.
//!
//! Every column declares the clock its values come from. The rule: a
//! column is a `Count` or `Modelled` only if two one-core runs reproduce
//! it exactly; anything that follows host timing (wall-clock latencies,
//! shed counts, batch composition under live arrivals) is `Host`.
//! [`diff`] compares labels, counts and modelled values exactly — at the
//! precision the column prints — and host-clock values not at all.

use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};
use serde_json::{json, Value};

/// Where a column's (or verdict's) values come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Clock {
    /// Names the row: dataset, variant, framework. Rows are matched on
    /// their label cells.
    Label,
    /// An exact integer: vertices, supersteps, bytes.
    Count,
    /// Simulator time or a ratio of simulator times.
    Modelled,
    /// Follows host timing; reported, never compared.
    Host,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Column {
    pub name: String,
    pub clock: Clock,
    /// Digits after the point for float cells — both what is printed and
    /// what is stored, so the last printed digit is the unit `diff` sees.
    pub decimals: usize,
}

/// A string, an integer or a float (`json!(x)` of either).
pub type Cell = Value;

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table {
    pub name: String,
    pub columns: Vec<Column>,
    pub rows: Vec<Vec<Cell>>,
}

/// A bar the experiment is held to. One that does not hold is a recorded
/// result (`holds: false`), not a failed run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Verdict {
    pub name: String,
    pub clock: Clock,
    pub bar: f64,
    pub measured: f64,
    pub holds: bool,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Param {
    pub name: String,
    pub value: Cell,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Report {
    pub bench: String,
    pub scale: String,
    pub device: String,
    pub params: Vec<Param>,
    pub tables: Vec<Table>,
    pub verdicts: Vec<Verdict>,
}

/// `x` at `decimals` printed digits.
fn rounded(x: f64, decimals: usize) -> f64 {
    format!("{x:.decimals$}").parse().unwrap_or(x)
}

fn show(cell: &Cell, decimals: usize) -> String {
    match cell {
        Value::Str(s) => s.clone(),
        Value::Float(x) => format!("{x:.decimals$}"),
        other => serde_json::to_string(other).unwrap_or_default(),
    }
}

impl Table {
    pub fn new(name: &str) -> Self {
        Table {
            name: name.into(),
            columns: Vec::new(),
            rows: Vec::new(),
        }
    }

    fn column(mut self, name: &str, clock: Clock, decimals: usize) -> Self {
        self.columns.push(Column {
            name: name.into(),
            clock,
            decimals,
        });
        self
    }

    pub fn label(self, name: &str) -> Self {
        self.column(name, Clock::Label, 0)
    }

    pub fn count(self, name: &str) -> Self {
        self.column(name, Clock::Count, 0)
    }

    pub fn modelled(self, name: &str, decimals: usize) -> Self {
        self.column(name, Clock::Modelled, decimals)
    }

    pub fn host(self, name: &str, decimals: usize) -> Self {
        self.column(name, Clock::Host, decimals)
    }

    /// Appends a row, rounding float cells to their column's precision.
    ///
    /// # Panics
    /// When the row's width is not the table's.
    pub fn row(&mut self, cells: Vec<Cell>) {
        assert_eq!(
            cells.len(),
            self.columns.len(),
            "row width in {}",
            self.name
        );
        let cells = cells
            .into_iter()
            .zip(&self.columns)
            .map(|(c, col)| match c {
                Value::Float(x) => Value::Float(rounded(x, col.decimals)),
                other => other,
            });
        self.rows.push(cells.collect());
    }

    fn shown(&self, row: &[Cell]) -> Vec<String> {
        let cells = row.iter().zip(&self.columns);
        cells.map(|(c, col)| show(c, col.decimals)).collect()
    }

    /// The row's identity: its label cells.
    fn key(&self, row: &[Cell]) -> String {
        let cells = self.shown(row).into_iter().zip(&self.columns);
        let labels = cells.filter(|(_, col)| col.clock == Clock::Label);
        labels.map(|(cell, _)| cell).collect::<Vec<_>>().join("/")
    }

    fn render(&self, out: &mut String) {
        let body: Vec<Vec<String>> = self.rows.iter().map(|r| self.shown(r)).collect();
        let header: Vec<String> = self.columns.iter().map(|c| c.name.clone()).collect();
        let width = |i: usize| {
            let cells = body.iter().map(|r| r[i].chars().count());
            cells.max().unwrap_or(0).max(header[i].chars().count())
        };
        let widths: Vec<usize> = (0..header.len()).map(width).collect();
        out.push_str(&format!("-- {} --\n", self.name));
        for line in std::iter::once(&header).chain(&body) {
            let mut text = String::new();
            for ((cell, col), w) in line.iter().zip(&self.columns).zip(&widths) {
                // Labels read left to right, numbers align on the right.
                if col.clock == Clock::Label {
                    text.push_str(&format!("{cell:<w$}  "));
                } else {
                    text.push_str(&format!("{cell:>w$}  "));
                }
            }
            out.push_str(text.trim_end());
            out.push('\n');
        }
    }
}

impl Verdict {
    pub fn new(name: &str, clock: Clock, measured: f64, bar: f64, holds: bool) -> Self {
        Verdict {
            name: name.into(),
            clock,
            bar: rounded(bar, 4),
            measured: rounded(measured, 4),
            holds,
        }
    }
}

impl Report {
    pub fn param(&mut self, name: &str, value: impl Serialize) {
        self.params.push(Param {
            name: name.into(),
            value: json!(value),
        });
    }

    /// The aligned text form: header, parameters, tables, verdicts.
    pub fn render(&self) -> String {
        let mut out = format!(
            "== {} (scale: {}, device: {}) ==\n",
            self.bench, self.scale, self.device
        );
        for p in &self.params {
            out.push_str(&format!("{}: {}\n", p.name, show(&p.value, 4)));
        }
        for t in &self.tables {
            out.push('\n');
            t.render(&mut out);
        }
        if !self.verdicts.is_empty() {
            out.push('\n');
        }
        for v in &self.verdicts {
            out.push_str(&format!(
                "verdict: {} — measured {:.4}, bar {}: {}\n",
                v.name,
                v.measured,
                v.bar,
                if v.holds { "holds" } else { "DOES NOT HOLD" }
            ));
        }
        out
    }

    pub fn path_in(dir: &Path, bench: &str) -> PathBuf {
        dir.join(format!("BENCH_{bench}.json"))
    }

    pub fn write(&self, dir: &Path) -> Result<PathBuf, String> {
        let path = Report::path_in(dir, &self.bench);
        let text = serde_json::to_string(self).map_err(|e| e.to_string())?;
        std::fs::write(&path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(path)
    }

    pub fn read(path: &Path) -> Result<Report, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// Every way `fresh` departs from `committed`, one line each naming the
/// experiment, table, row and column; empty when they agree. Host-clock
/// columns, and what a host-clock verdict measured and concluded, are
/// skipped.
pub fn diff(fresh: &Report, committed: &Report) -> Vec<String> {
    let bench = &committed.bench;
    let mut out = Vec::new();
    let mut differ = |what: String, committed: String, fresh: String| {
        if committed != fresh {
            out.push(format!(
                "{bench}/{what}: committed {committed}, fresh {fresh}"
            ));
        }
    };
    let header = |r: &Report| format!("{} / {} / {}", r.bench, r.scale, r.device);
    differ("header".into(), header(committed), header(fresh));
    let params = |r: &Report| serde_json::to_string(&r.params).unwrap_or_default();
    differ("params".into(), params(committed), params(fresh));

    let names = |r: &Report| -> Vec<String> { r.tables.iter().map(|t| t.name.clone()).collect() };
    differ(
        "tables".into(),
        names(committed).join(","),
        names(fresh).join(","),
    );
    for (old, new) in committed.tables.iter().zip(&fresh.tables) {
        let table = &old.name;
        if old.columns != new.columns {
            let cols = |t: &Table| serde_json::to_string(&t.columns).unwrap_or_default();
            differ(format!("{table}.columns"), cols(old), cols(new));
            continue;
        }
        let mut unmatched: Vec<&Vec<Cell>> = new.rows.iter().collect();
        for row in &old.rows {
            let key = old.key(row);
            let Some(at) = unmatched.iter().position(|r| new.key(r) == key) else {
                differ(format!("{table}[{key}]"), "a row".into(), "missing".into());
                continue;
            };
            let (ours, theirs) = (old.shown(row), new.shown(unmatched.remove(at)));
            for (i, col) in old.columns.iter().enumerate() {
                if col.clock != Clock::Host {
                    let what = format!("{table}[{key}].{}", col.name);
                    differ(what, ours[i].clone(), theirs[i].clone());
                }
            }
        }
        for row in unmatched {
            let key = new.key(row);
            differ(format!("{table}[{key}]"), "missing".into(), "a row".into());
        }
    }

    let verdict = |v: &Verdict| match v.clock {
        Clock::Host => format!("bar {}", v.bar),
        _ => format!(
            "bar {}, measured {:.4}, holds {}",
            v.bar, v.measured, v.holds
        ),
    };
    let find = |r: &Report, name: &str| -> String {
        let v = r.verdicts.iter().find(|v| v.name == name);
        v.map_or("missing".into(), verdict)
    };
    let mut seen = Vec::new();
    for v in committed.verdicts.iter().chain(&fresh.verdicts) {
        if !seen.contains(&&v.name) {
            seen.push(&v.name);
            let name = &v.name;
            differ(
                format!("verdict[{name}]"),
                find(committed, name),
                find(fresh, name),
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let mut cells = Table::new("cells")
            .label("dataset")
            .label("variant")
            .count("supersteps")
            .modelled("sim_ms", 4)
            .host("wall_ms", 1);
        cells.row(vec![
            json!("ca"),
            json!("auto"),
            json!(267u32),
            json!(1.010568),
            json!(35.25),
        ]);
        cells.row(vec![
            json!("usa"),
            json!("auto"),
            json!(481u32),
            json!(3.0),
            json!(80.0),
        ]);
        let mut report = Report {
            bench: "sample".into(),
            scale: "bench".into(),
            device: "v100s".into(),
            params: Vec::new(),
            tables: vec![cells],
            verdicts: vec![Verdict::new(
                "auto never loses",
                Clock::Modelled,
                0.41806,
                0.98,
                false,
            )],
        };
        report.param("width", 32u32);
        report.param("dataset", "ca");
        report
    }

    #[test]
    fn report_survives_a_json_round_trip() {
        let report = sample();
        let text = serde_json::to_string(&report).unwrap();
        let back: Report = serde_json::from_str(&text).unwrap();
        assert_eq!(back, report);
        assert!(diff(&back, &report).is_empty());
        assert_eq!(serde_json::to_string(&back).unwrap(), text);
    }

    #[test]
    fn cells_are_stored_at_their_printed_precision() {
        let report = sample();
        assert_eq!(report.tables[0].rows[0][3], json!(1.0106));
        assert_eq!(report.verdicts[0].measured, 0.4181);
        let text = report.render();
        assert!(text.contains("1.0106"), "{text}");
        assert!(text.contains("DOES NOT HOLD"), "{text}");
    }

    #[test]
    fn diff_names_what_changed_and_ignores_the_host_clock() {
        let committed = sample();

        let mut fresh = sample();
        fresh.tables[0].rows[0][4] = json!(52.9); // host clock, +50 %
        assert_eq!(diff(&fresh, &committed), Vec::<String>::new());

        let mut fresh = sample();
        fresh.tables[0].rows[0][3] = json!(1.0107); // last printed digit
        let d = diff(&fresh, &committed);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(
            d[0],
            "sample/cells[ca/auto].sim_ms: committed 1.0106, fresh 1.0107"
        );

        let mut fresh = sample();
        fresh.tables[0].rows[1][2] = json!(482u32);
        let d = diff(&fresh, &committed);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].contains("cells[usa/auto].supersteps"), "{d:?}");

        let mut fresh = sample();
        fresh.verdicts[0].holds = true;
        let d = diff(&fresh, &committed);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].contains("verdict[auto never loses]"), "{d:?}");

        let mut fresh = sample();
        fresh.tables[0].rows.remove(1);
        let d = diff(&fresh, &committed);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].contains("cells[usa/auto]") && d[0].contains("missing"));
    }
}
