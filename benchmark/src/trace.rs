//! In-memory span recorder for the traced run (choosing-metrics §4).
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each layer; nothing inside the program is instrumented. They are
//! kept in memory and written once, at exit, as a Chrome-trace file.
//! A disabled tracer records nothing, so the untraced run pays one branch
//! per call site.

use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

/// One timed interval. Spans are named `<layer>.<what>` after the module
/// the call went into (a name without a dot is the benchmark's own); spans
/// of one operation share `op_id`; `parent` is the span that caused this one.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub op_id: u32,
    pub parent: Option<u32>,
    /// Client thread that recorded the span (trace-viewer row).
    pub tid: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    /// The module the span's call went into.
    pub fn layer(&self) -> &str {
        self.name
            .rsplit_once('.')
            .map_or("benchmark", |(layer, _)| layer)
    }

    pub fn dur_ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span starting now; `None` when tracing is off.
    pub fn begin(
        &self,
        name: impl Into<String>,
        op_id: u32,
        parent: Option<u32>,
        tid: u32,
    ) -> Option<u32> {
        if !self.on {
            return None;
        }
        let start_ns = self.ns(Instant::now());
        let mut spans = self.spans.lock().expect("tracer lock poisoned");
        spans.push(Span {
            name: name.into(),
            op_id,
            parent,
            tid,
            start_ns,
            end_ns: start_ns,
        });
        Some(spans.len() as u32 - 1)
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&self, id: Option<u32>) {
        if let Some(id) = id {
            let now = self.ns(Instant::now());
            self.spans.lock().expect("tracer lock poisoned")[id as usize].end_ns = now;
        }
    }

    /// Records an interval the caller already timed.
    pub fn record(
        &self,
        name: impl Into<String>,
        op_id: u32,
        parent: Option<u32>,
        tid: u32,
        start: Instant,
        end: Instant,
    ) {
        if !self.on {
            return;
        }
        let span = Span {
            name: name.into(),
            op_id,
            parent,
            tid,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.lock().expect("tracer lock poisoned").push(span);
    }

    /// Runs `f` inside a span.
    pub fn scope<T>(
        &self,
        name: &str,
        op_id: u32,
        parent: Option<u32>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, op_id, parent, 0);
        let out = f();
        self.end(id);
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("tracer lock poisoned").clone()
    }

    /// Durations (ms) of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        let spans = self.spans.lock().expect("tracer lock poisoned");
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ms)
            .collect()
    }
}

/// Self time of each span: its duration minus the part of its interval
/// that its direct children cover (overlapping children counted once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if hi > lo {
                children[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Writes `spans` as a Chrome-trace JSON document (`chrome://tracing`,
/// Perfetto). Each span carries its op, parent and self time as args.
pub fn write_chrome_trace(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let selfs = self_times_ns(spans);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(out, "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")?;
    for (i, (s, self_ns)) in spans.iter().zip(&selfs).enumerate() {
        if i > 0 {
            write!(out, ",")?;
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        write!(
            out,
            "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"op_id\":{},\"parent\":{parent},\
             \"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}}}",
            s.name,
            s.layer(),
            s.tid,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.op_id,
            s.start_ns,
            s.end_ns,
        )?;
    }
    writeln!(out, "\n]}}")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "s".into(),
            op_id: 0,
            parent,
            tid: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span(None, 0, 100),     // root
            span(Some(0), 10, 40),  // child a
            span(Some(0), 30, 60),  // child b overlaps a by 10
            span(Some(1), 15, 20),  // grandchild: charged to a, not to root
            span(Some(0), 90, 130), // child c runs past the root's end
        ];
        let selfs = self_times_ns(&spans);
        // Root: 100 − [10,60) − [90,100) = 100 − 50 − 10.
        assert_eq!(selfs[0], 40);
        assert_eq!(selfs[1], 25);
        assert_eq!(selfs[2], 30);
        assert_eq!(selfs[3], 5);
        assert_eq!(selfs[4], 40);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let id = t.begin("x", 0, None, 0);
        assert_eq!(id, None);
        t.end(id);
        t.record("y", 0, None, 0, Instant::now(), Instant::now());
        assert!(t.spans().is_empty());
    }

    #[test]
    fn begin_end_nest_by_parent_id() {
        let t = Tracer::new(true);
        let root = t.begin("root", 7, None, 0);
        let kid = t.begin("core.graph.kid", 7, root, 0);
        t.end(kid);
        t.end(root);
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert_eq!(t.durations_ms("core.graph.kid").len(), 1);
        assert_eq!(spans[0].layer(), "benchmark");
        assert_eq!(spans[1].layer(), "core.graph");
    }
}
