//! Job model: requests, lifecycle states, results, and per-job metrics.
//!
//! A job is one algorithm execution against a resident graph. Requests
//! arrive as JSON (HTTP) or structs (in-process), are validated at the
//! admission boundary, and flow through the scheduler as
//! `Queued → Running → Done/Failed`, or stop at `Rejected` when
//! admission control refuses them.

use serde::{Deserialize, Serialize};
pub use sygraph_algos::Determinism;

use crate::error::{ServiceError, ServiceResult};

/// Algorithms the service can run. Single-source BFS requests are the
/// coalescible class: the scheduler may fold several of them into one
/// W-lane multi-source pass (bit-identical per lane to rooted runs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algo {
    Bfs,
    Sssp,
    DeltaSssp,
    Cc,
    Bc,
    Pagerank,
}

impl Algo {
    /// Parses the wire name; rejects unknown algorithms with a typed
    /// error instead of panicking deep in dispatch.
    pub fn parse(name: &str) -> ServiceResult<Algo> {
        match name {
            "bfs" => Ok(Algo::Bfs),
            "sssp" => Ok(Algo::Sssp),
            "delta" | "delta-sssp" => Ok(Algo::DeltaSssp),
            "cc" => Ok(Algo::Cc),
            "bc" => Ok(Algo::Bc),
            "pagerank" | "pr" => Ok(Algo::Pagerank),
            other => Err(ServiceError::BadRequest(format!(
                "unknown algorithm {other:?} (expected bfs|sssp|delta|cc|bc|pagerank)"
            ))),
        }
    }

    /// Canonical wire name.
    pub fn label(&self) -> &'static str {
        match self {
            Algo::Bfs => "bfs",
            Algo::Sssp => "sssp",
            Algo::DeltaSssp => "delta",
            Algo::Cc => "cc",
            Algo::Bc => "bc",
            Algo::Pagerank => "pagerank",
        }
    }

    /// Whether the algorithm is rooted (requires a `source`).
    pub fn needs_source(&self) -> bool {
        !matches!(self, Algo::Cc | Algo::Pagerank)
    }

    /// The algorithm's determinism class, as `sygraph_algos` declares it.
    pub fn determinism(&self) -> Determinism {
        sygraph_algos::determinism::of(self.label())
    }

    /// Whether single-source requests of this algorithm may be folded
    /// into one multi-source lane pass. The class must be bit-exact, or
    /// batching would show in the values (which rules out `bc_multi`),
    /// and the service runs one lane kernel, `bfs_multi`.
    pub fn coalescible(&self) -> bool {
        matches!(self, Algo::Bfs) && self.determinism() == Determinism::BitExact
    }
}

/// A job submission. `algo` stays a string here so parse failures reach
/// the caller as a 400, not a deserialization panic; `Service::submit`
/// converts it via [`Algo::parse`]. Optional knobs default to service
/// policy when absent.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobRequest {
    /// Name of a registered resident graph.
    pub graph: String,
    /// Algorithm wire name (`bfs|sssp|delta|cc|bc|pagerank`).
    pub algo: String,
    /// Source vertex for rooted algorithms.
    pub source: Option<u32>,
    /// Δ for delta-stepping SSSP (default 2.0).
    pub delta: Option<f32>,
    /// Opt this job out of the result cache (forces recompute and
    /// skips the store).
    pub no_cache: Option<bool>,
    /// Opt this job out of request coalescing (forces a serial rooted
    /// pass even when batchmates are available).
    pub no_coalesce: Option<bool>,
    /// Client deadline in milliseconds, measured from admission. Capped
    /// by the server's `max_timeout_ms`; absent means the server's
    /// `default_timeout_ms` (which may be no deadline at all). Jobs past
    /// their deadline are shed from the queue or aborted mid-run with a
    /// typed `deadline-exceeded` record (HTTP 408).
    pub timeout_ms: Option<u64>,
}

impl JobRequest {
    /// Minimal rooted request with service-default policy knobs.
    pub fn rooted(graph: &str, algo: &str, source: u32) -> JobRequest {
        JobRequest {
            graph: graph.to_string(),
            algo: algo.to_string(),
            source: Some(source),
            delta: None,
            no_cache: None,
            no_coalesce: None,
            timeout_ms: None,
        }
    }

    /// Minimal unrooted request (cc / pagerank).
    pub fn unrooted(graph: &str, algo: &str) -> JobRequest {
        JobRequest {
            graph: graph.to_string(),
            algo: algo.to_string(),
            source: None,
            delta: None,
            no_cache: None,
            no_coalesce: None,
            timeout_ms: None,
        }
    }
}

/// Job lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobState {
    Queued,
    Running,
    Done,
    Failed,
    Rejected,
}

impl JobState {
    /// `Done`, `Failed` and `Rejected` are final.
    pub fn is_terminal(self) -> bool {
        !matches!(self, JobState::Queued | JobState::Running)
    }
}

/// A finished job's per-vertex values. `PartialEq` here is the
/// bit-identity check the cache tests rely on (no NaNs escape the
/// algorithms, so float equality is exact equality of bits in practice;
/// the tests additionally compare `f32::to_bits`).
#[derive(Debug, Clone, PartialEq)]
pub enum JobValues {
    U32(Vec<u32>),
    F32(Vec<f32>),
}

impl JobValues {
    pub fn len(&self) -> usize {
        match self {
            JobValues::U32(v) => v.len(),
            JobValues::F32(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Exact bit-level equality (distinguishes NaN payloads and signed
    /// zeros, unlike `PartialEq` on floats).
    pub fn bits_eq(&self, other: &JobValues) -> bool {
        self.agrees(other, Determinism::BitExact)
    }

    /// Whether `other` is an acceptable re-run of `self` under `class`
    /// (see [`Determinism::agrees_f32`]).
    pub fn agrees(&self, other: &JobValues, class: Determinism) -> bool {
        match (self, other) {
            (JobValues::U32(a), JobValues::U32(b)) => class.agrees_u32(a, b),
            (JobValues::F32(a), JobValues::F32(b)) => class.agrees_f32(a, b),
            _ => false,
        }
    }
}

// Hand-written so the wire shape is a flat array (matching the CLI's
// `"values": [...]`), not the derive's `{"U32": [...]}` tagging.
impl Serialize for JobValues {
    fn serialize_value(&self) -> serde::Value {
        match self {
            JobValues::U32(v) => v.serialize_value(),
            JobValues::F32(v) => v.serialize_value(),
        }
    }
}

/// Per-job execution metrics, filled in by the worker that ran it.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct JobMetrics {
    /// Supersteps the algorithm ran.
    pub iterations: u32,
    /// Modelled device milliseconds.
    pub sim_ms: f64,
    /// Kernel launches attributed to this job (the worker's profiler is
    /// reset per batch, so a reused queue never bleeds counts across
    /// jobs).
    pub kernel_launches: u64,
    /// Measured device-memory peak while the job ran, from the
    /// allocation ledger.
    pub mem_peak_bytes: u64,
    /// Admission control's modelled peak for this job.
    pub modeled_peak_bytes: u64,
    /// Served from the result cache (no device work).
    pub cache_hit: bool,
    /// Ran as a lane of a coalesced multi-source batch.
    pub coalesced: bool,
    /// Lanes in the batch this job rode in (1 when serial).
    pub batch_size: u32,
    /// Fault-recovery events during the job (scoped like
    /// `kernel_launches`).
    pub recovery_events: u64,
}

/// Full job record, as returned by `GET /jobs/<id>`.
#[derive(Debug, Clone)]
pub struct JobRecord {
    pub id: u64,
    pub request: JobRequest,
    pub state: JobState,
    /// Graph registry version the job ran against (cache-key input).
    pub graph_version: u64,
    pub values: Option<JobValues>,
    pub error: Option<String>,
    pub error_kind: Option<String>,
    pub http_status: Option<u16>,
    pub metrics: JobMetrics,
}

impl JobRecord {
    pub(crate) fn queued(id: u64, request: JobRequest, graph_version: u64) -> JobRecord {
        JobRecord {
            id,
            request,
            state: JobState::Queued,
            graph_version,
            values: None,
            error: None,
            error_kind: None,
            http_status: None,
            metrics: JobMetrics::default(),
        }
    }

    /// Ends the job at `state` (`Failed` or `Rejected`) with `err`'s
    /// typed fields.
    pub(crate) fn fail(&mut self, state: JobState, err: &ServiceError) {
        self.state = state;
        self.error = Some(err.to_string());
        self.error_kind = Some(err.kind().to_string());
        self.http_status = Some(err.http_status());
    }

    /// JSON document for the HTTP layer. `include_values` lets the
    /// status poll omit the (possibly huge) value vector.
    pub fn to_json(&self, include_values: bool) -> serde::Value {
        let mut fields: Vec<(String, serde::Value)> = vec![
            ("id".into(), serde_json::to_value(&self.id)),
            ("graph".into(), serde_json::to_value(&self.request.graph)),
            (
                "graph_version".into(),
                serde_json::to_value(&self.graph_version),
            ),
            ("algo".into(), serde_json::to_value(&self.request.algo)),
            ("state".into(), serde_json::to_value(&self.state)),
        ];
        if let Some(src) = self.request.source {
            fields.push(("source".into(), serde_json::to_value(&src)));
        }
        if let Some(err) = &self.error {
            fields.push(("error".into(), serde_json::to_value(err)));
        }
        if let Some(kind) = &self.error_kind {
            fields.push(("error_kind".into(), serde_json::to_value(kind)));
        }
        if self.state == JobState::Done {
            fields.push((
                "iterations".into(),
                serde_json::to_value(&self.metrics.iterations),
            ));
            fields.push(("sim_ms".into(), serde_json::to_value(&self.metrics.sim_ms)));
            fields.push(("metrics".into(), serde_json::to_value(&self.metrics)));
            if include_values {
                if let Some(values) = &self.values {
                    fields.push(("values".into(), serde_json::to_value(values)));
                }
            }
        }
        serde::Value::Object(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn algo_parse_round_trips_and_rejects() {
        for name in ["bfs", "sssp", "delta", "cc", "bc", "pagerank"] {
            assert_eq!(Algo::parse(name).unwrap().label(), name);
        }
        assert_eq!(Algo::parse("pr").unwrap(), Algo::Pagerank);
        let err = Algo::parse("tarjan").unwrap_err();
        assert_eq!(err.http_status(), 400);
    }

    #[test]
    fn only_bfs_coalesces() {
        assert!(Algo::Bfs.coalescible());
        for a in [
            Algo::Sssp,
            Algo::DeltaSssp,
            Algo::Cc,
            Algo::Bc,
            Algo::Pagerank,
        ] {
            assert!(!a.coalescible(), "{:?}", a);
        }
    }

    #[test]
    fn job_request_json_round_trip() {
        let req = JobRequest::rooted("road", "bfs", 7);
        let text = serde_json::to_string(&req).unwrap();
        let back: JobRequest = serde_json::from_str(&text).unwrap();
        assert_eq!(back.graph, "road");
        assert_eq!(back.algo, "bfs");
        assert_eq!(back.source, Some(7));
        assert_eq!(back.no_cache, None);
    }

    #[test]
    fn values_serialize_flat() {
        let v = JobValues::U32(vec![1, 2, 3]);
        assert_eq!(serde_json::to_string(&v).unwrap(), "[1,2,3]");
    }

    #[test]
    fn tolerance_is_relative_to_the_largest_finite_value() {
        let class = Determinism::Tolerance(1e-4);
        let a = JobValues::F32(vec![1000.0, 1.0, f32::INFINITY]);
        let near = JobValues::F32(vec![1000.05, 1.05, f32::INFINITY]);
        let far = JobValues::F32(vec![1000.2, 1.0, f32::INFINITY]);
        let finite = JobValues::F32(vec![1000.0, 1.0, f32::MAX]);
        assert!(a.agrees(&near, class), "0.05 is within 1e-4 of 1000");
        assert!(!a.agrees(&far, class));
        assert!(!a.agrees(&finite, class), "an infinity matches only itself");
        assert!(!a.agrees(&near, Determinism::BitExact));
        assert!(a.agrees(&a.clone(), Determinism::BitExact));
    }

    #[test]
    fn float_bit_identity_is_stricter_than_eq() {
        let a = JobValues::F32(vec![0.0]);
        let b = JobValues::F32(vec![-0.0]);
        assert_eq!(a, b); // IEEE equality
        assert!(!a.bits_eq(&b)); // bit identity
    }
}
