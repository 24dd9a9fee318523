//! Job model: requests, lifecycle states, results, and per-job metrics.
//!
//! A job is one algorithm execution against a resident graph. Requests
//! arrive as JSON (HTTP) or structs (in-process), are validated at the
//! admission boundary, and flow through the scheduler as
//! `Queued → Running → Done/Failed`, or stop at `Rejected` when
//! admission control refuses them.

use serde::{Deserialize, Serialize};
pub use sygraph_algos::{Algo, Determinism, Values as JobValues};

use crate::error::{ServiceError, ServiceResult};

/// The catalogue algorithms the service admits, in the order its 400
/// text lists them: the ones [`modeled_peak_bytes`] prices.
///
/// [`modeled_peak_bytes`]: crate::scheduler::modeled_peak_bytes
pub const ADMITTED: [Algo; 6] = [
    Algo::Bfs,
    Algo::Sssp,
    Algo::Delta,
    Algo::Cc,
    Algo::Bc,
    Algo::Pagerank,
];

/// Parses a request's wire name; an unknown or unadmitted algorithm is
/// a typed 400, not a panic deep in dispatch.
pub fn admitted(name: &str) -> ServiceResult<Algo> {
    let algo = Algo::parse(name).filter(|a| ADMITTED.contains(a));
    algo.ok_or_else(|| {
        let expected = Algo::labels(&ADMITTED);
        ServiceError::BadRequest(format!("unknown algorithm {name:?} (expected {expected})"))
    })
}

/// Whether single-source requests of `algo` may be folded into one
/// multi-source lane pass: there must be a lane kernel for it, and its
/// class must be bit-exact, or batching would show in the values.
pub fn coalescible(algo: Algo) -> bool {
    algo.has_lane_kernel() && algo.determinism() == Determinism::BitExact
}

/// A job submission. `algo` stays a string here so parse failures reach
/// the caller as a 400, not a deserialization panic; `Service::submit`
/// converts it via [`admitted`]. Optional knobs default to service
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
    fn admission_parses_six_names_and_rejects_the_rest() {
        for algo in ADMITTED {
            assert_eq!(admitted(algo.label()).unwrap(), algo);
        }
        assert_eq!(admitted("pr").unwrap(), Algo::Pagerank);
        assert_eq!(admitted("delta-sssp").unwrap(), Algo::Delta);
        for name in ["tarjan", "dobfs", "triangles", "kcore"] {
            let err = admitted(name).unwrap_err();
            assert_eq!(err.http_status(), 400);
            assert!(
                err.to_string()
                    .ends_with("(expected bfs|sssp|delta|cc|bc|pagerank)"),
                "{err}"
            );
        }
    }

    #[test]
    fn only_bfs_coalesces() {
        for algo in ADMITTED {
            assert_eq!(coalescible(algo), algo == Algo::Bfs, "{algo}");
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
}
