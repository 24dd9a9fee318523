//! # sygraph-service — long-running graph analytics service
//!
//! The SYgraph paper frames the framework as a building block for
//! interactive analytics; this crate supplies the serving layer above
//! the simulator (DESIGN.md §15):
//!
//! - **Resident graphs** ([`Registry`]): named, version-tagged graphs
//!   load once, get device-uploaded per worker, and stay warm (pull
//!   mirror included) across jobs.
//! - **Job ledger and workers** ([`Service`], `scheduler.rs`): one
//!   state machine holds every job from admission (cache hit, modelled
//!   memory budget, bounded queue) to its terminal record; worker
//!   threads, each owning one simulated device queue, claim from it.
//! - **Result cache** ([`ResultCache`]): keyed on (graph, version,
//!   algo, params); hits are bit-identical to recomputes.
//! - **Request coalescing**: single-source BFS requests inside the
//!   batching window fold into one W-lane multi-source pass and demux
//!   back, per-lane bit-identical to serial runs.
//! - **HTTP front end** ([`HttpServer`]): `/health`, `/ready`,
//!   `/graphs`, `/jobs` over a hand-rolled `std::net` server.
//! - **Resilience** (DESIGN.md §16): per-job deadlines enforced at
//!   superstep-checkpoint boundaries, bounded-queue backpressure with
//!   `Retry-After` hints, fault-wired workers with a per-worker circuit
//!   breaker, and a [`Service::drain`] graceful-shutdown path.
//!
//! ```
//! use sygraph_service::{JobRequest, RegisterOptions, Service, ServiceConfig};
//! use sygraph_core::graph::CsrHost;
//!
//! let service = Service::start(ServiceConfig::default()).unwrap();
//! let host = CsrHost::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
//! service.register_graph("line", host, RegisterOptions::default()).unwrap();
//! let id = service.submit(JobRequest::rooted("line", "bfs", 0)).unwrap();
//! let done = service.wait(id).unwrap();
//! assert_eq!(done.values.unwrap().len(), 4);
//! ```

pub mod cache;
pub mod error;
pub mod http;
pub mod job;
pub mod registry;
pub mod scheduler;

pub use cache::{CacheKey, CachedResult, ResultCache};
pub use error::{ServiceError, ServiceResult};
pub use http::HttpServer;
pub use job::{Algo, Determinism, JobMetrics, JobRecord, JobRequest, JobState, JobValues};
pub use registry::{RegisterOptions, RegisteredGraph, Registry};
pub use scheduler::{modeled_peak_bytes, DrainReport, Service, ServiceConfig, StatsSnapshot};

use sygraph_core::graph::CsrHost;

/// Resolves a CLI-style graph spec: `gen:<key>` for the generated
/// datasets (`SYG_SCALE=test` shrinks them, same convention as the
/// bench binaries), anything else as a file path routed by extension.
pub fn load_graph_spec(spec: &str) -> ServiceResult<CsrHost> {
    if let Some(name) = spec.strip_prefix("gen:") {
        let scale = match std::env::var("SYG_SCALE").as_deref() {
            Ok("test") => sygraph_gen::Scale::Test,
            _ => sygraph_gen::Scale::Bench,
        };
        let ds = match name {
            "ca" => sygraph_gen::datasets::road_ca(scale),
            "usa" => sygraph_gen::datasets::road_usa(scale),
            "hollyw" => sygraph_gen::datasets::hollywood(scale),
            "indo" => sygraph_gen::datasets::indochina(scale),
            "journal" => sygraph_gen::datasets::livejournal(scale),
            "kron" => sygraph_gen::datasets::kron(scale),
            "twitter" => sygraph_gen::datasets::twitter(scale),
            other => {
                return Err(ServiceError::BadRequest(format!(
                    "unknown generated dataset {other:?}"
                )))
            }
        };
        return Ok(ds.host);
    }
    let file =
        std::fs::File::open(spec).map_err(|e| ServiceError::BadRequest(format!("{spec}: {e}")))?;
    let reader = std::io::BufReader::new(file);
    let result = if spec.ends_with(".mtx") {
        sygraph_io::mtx::read(reader)
    } else if spec.ends_with(".gr") {
        sygraph_io::dimacs::read(reader)
    } else if spec.ends_with(".sygb") {
        sygraph_io::binary::read(reader)
    } else {
        sygraph_io::edgelist::read(reader, 0)
    };
    result.map_err(|e| ServiceError::BadRequest(format!("{spec}: {e}")))
}
