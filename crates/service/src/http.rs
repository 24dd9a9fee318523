//! Minimal HTTP/1.1 front end over `std::net::TcpListener`.
//!
//! No web framework exists in this offline workspace, so the server is
//! hand-rolled: blocking accept loop, one thread per connection,
//! `Content-Length`-framed bodies, `Connection: close` semantics. Every
//! parse step is fallible-by-construction — a malformed request line,
//! header, JSON body, or graph upload produces a 4xx JSON error body,
//! never a panic in the accept path.
//!
//! Routes:
//!
//! | Method | Path         | Meaning                                        |
//! |--------|--------------|------------------------------------------------|
//! | GET    | /health      | liveness (always 200 once listening)           |
//! | GET    | /ready       | readiness (workers accepting jobs)             |
//! | GET    | /graphs      | list resident graphs                           |
//! | POST   | /graphs      | register a graph (CSR, edge list, or spec)     |
//! | POST   | /jobs        | submit a job (`?wait=1` blocks for the result) |
//! | GET    | /jobs        | list job ids                                   |
//! | GET    | /jobs/<id>   | job record (`?wait=1`, `?values=0`)            |
//! | GET    | /stats       | job-ledger + cache counters                    |

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use serde::Value;
use sygraph_core::graph::CsrHost;

use crate::error::ServiceError;
use crate::job::JobRequest;
use crate::Service;

/// Largest accepted request body (64 MiB) — an upload beyond this is
/// refused, not buffered until the allocator gives out.
const MAX_BODY: usize = 64 << 20;

/// A running HTTP server bound to a local address.
pub struct HttpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl HttpServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// serves `service` until [`HttpServer::shutdown`], with the default
    /// 30 s per-connection read timeout.
    pub fn serve(service: Arc<Service>, addr: &str) -> std::io::Result<HttpServer> {
        HttpServer::serve_with_read_timeout(service, addr, Duration::from_secs(30))
    }

    /// [`HttpServer::serve`] with an explicit read timeout: a client
    /// that connects but never completes its request within `timeout`
    /// gets a typed 408 `read-timeout` JSON body instead of holding a
    /// connection thread open (slow-loris shedding).
    pub fn serve_with_read_timeout(
        service: Arc<Service>,
        addr: &str,
        timeout: Duration,
    ) -> std::io::Result<HttpServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let accept_thread = std::thread::Builder::new()
            .name("sygraph-http-accept".into())
            .spawn(move || {
                for conn in listener.incoming() {
                    if stop2.load(Ordering::SeqCst) {
                        break;
                    }
                    let stream = match conn {
                        Ok(s) => s,
                        Err(_) => continue,
                    };
                    let service = service.clone();
                    let _ = std::thread::Builder::new()
                        .name("sygraph-http-conn".into())
                        .spawn(move || handle_connection(service, stream, timeout));
                }
            })?;
        Ok(HttpServer {
            addr: local,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting connections and joins the accept loop.
    pub fn shutdown(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the accept() with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

// ---------------------------------------------------------------------------
// Request plumbing
// ---------------------------------------------------------------------------

struct Request {
    method: String,
    path: String,
    query: Vec<(String, String)>,
    body: Vec<u8>,
}

impl Request {
    fn query(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn flag(&self, key: &str, default: bool) -> bool {
        match self.query(key) {
            Some("0") | Some("false") => false,
            Some(_) => true,
            None => default,
        }
    }
}

fn handle_connection(service: Arc<Service>, mut stream: TcpStream, read_timeout: Duration) {
    let _ = stream.set_read_timeout(Some(read_timeout));
    let (status, body) = match read_request(&mut stream) {
        Ok(req) => route(&service, &req),
        Err(ReadError::Timeout) => error_body(
            408,
            "read-timeout",
            &format!(
                "request not received within {} ms",
                read_timeout.as_millis()
            ),
        ),
        Err(ReadError::Bad(msg)) => error_body(400, "bad-request", &msg),
    };
    // 429 bodies carry the drain-rate hint; surface it as the standard
    // Retry-After header (seconds, rounded up) for header-only clients.
    let retry_after = match (&body, status) {
        (Value::Object(_), 429) => match body.get_field("retry_after_ms") {
            Some(Value::UInt(ms)) => Some(ms.div_ceil(1000).max(1)),
            Some(Value::Int(ms)) if *ms >= 0 => Some((*ms as u64).div_ceil(1000).max(1)),
            _ => None,
        },
        _ => None,
    };
    let text = serde_json::to_string(&body).unwrap_or_else(|_| "{}".into());
    let retry_header = retry_after.map_or(String::new(), |secs| format!("Retry-After: {secs}\r\n"));
    let _ = write!(
        stream,
        "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n{}Connection: close\r\n\r\n{}",
        status,
        status_text(status),
        text.len(),
        retry_header,
        text
    );
    let _ = stream.flush();
}

fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Why a request could not be read: the socket read timed out (→ 408),
/// or the bytes were malformed / the peer hung up (→ 400).
enum ReadError {
    Timeout,
    Bad(String),
}

fn read_err(e: std::io::Error) -> ReadError {
    match e.kind() {
        // Unix reports a read timeout as WouldBlock, Windows as TimedOut.
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => ReadError::Timeout,
        _ => ReadError::Bad(e.to_string()),
    }
}

/// Reads one request: request line, headers, `Content-Length` body.
fn read_request(stream: &mut TcpStream) -> Result<Request, ReadError> {
    let bad = |msg: &str| ReadError::Bad(msg.to_string());
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    let header_end = loop {
        if let Some(pos) = find_header_end(&buf) {
            break pos;
        }
        if buf.len() > 64 << 10 {
            return Err(bad("headers exceed 64 KiB"));
        }
        let got = stream.read(&mut chunk).map_err(read_err)?;
        if got == 0 {
            return Err(bad("connection closed mid-request"));
        }
        buf.extend_from_slice(&chunk[..got]);
    };
    let head = String::from_utf8_lossy(&buf[..header_end]).into_owned();
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or(bad("empty request line"))?
        .to_uppercase();
    let target = parts.next().ok_or(bad("request line missing path"))?;
    let mut content_length = 0usize;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| bad(&format!("bad Content-Length {value:?}")))?;
            }
        }
    }
    if content_length > MAX_BODY {
        return Err(bad(&format!(
            "body of {content_length} bytes exceeds {MAX_BODY}"
        )));
    }
    let mut body = buf[header_end + 4..].to_vec();
    while body.len() < content_length {
        let got = stream.read(&mut chunk).map_err(read_err)?;
        if got == 0 {
            return Err(bad("connection closed mid-body"));
        }
        body.extend_from_slice(&chunk[..got]);
    }
    body.truncate(content_length);

    let (path, query_str) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let query = query_str
        .split('&')
        .filter(|s| !s.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (k.to_string(), v.to_string()),
            None => (pair.to_string(), String::new()),
        })
        .collect();
    Ok(Request {
        method,
        path: path.to_string(),
        query,
        body,
    })
}

fn find_header_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn error_body(status: u16, kind: &str, msg: &str) -> (u16, Value) {
    (
        status,
        Value::Object(vec![
            ("error".into(), Value::Str(msg.to_string())),
            ("error_kind".into(), Value::Str(kind.to_string())),
        ]),
    )
}

fn service_error(e: &ServiceError) -> (u16, Value) {
    let (status, mut body) = error_body(e.http_status(), e.kind(), &e.to_string());
    if let (Some(ms), Value::Object(fields)) = (e.retry_after_ms(), &mut body) {
        fields.push(("retry_after_ms".into(), Value::UInt(ms)));
    }
    (status, body)
}

// ---------------------------------------------------------------------------
// Routing
// ---------------------------------------------------------------------------

fn route(service: &Service, req: &Request) -> (u16, Value) {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/health") => (200, serde_json::json!("ok")),
        ("GET", "/ready") => {
            if service.ready() {
                (200, serde_json::json!("ready"))
            } else {
                error_body(
                    503,
                    "not-ready",
                    "not accepting jobs (draining, shutting down, or above high water)",
                )
            }
        }
        ("GET", "/graphs") => (200, list_graphs(service)),
        ("POST", "/graphs") => post_graph(service, req),
        ("POST", "/jobs") => post_job(service, req),
        ("GET", "/jobs") => (
            200,
            Value::Object(vec![(
                "jobs".into(),
                serde_json::to_value(&service.job_ids()),
            )]),
        ),
        ("GET", "/stats") => (200, serde_json::to_value(&service.stats())),
        ("GET", path) if path.starts_with("/jobs/") => get_job(service, req, &path[6..]),
        (_, "/health" | "/ready" | "/graphs" | "/jobs" | "/stats") => {
            error_body(405, "bad-request", "method not allowed")
        }
        _ => error_body(404, "not-found", &format!("no route {}", req.path)),
    }
}

fn list_graphs(service: &Service) -> Value {
    let graphs: Vec<Value> = service
        .graphs()
        .iter()
        .map(|g| {
            Value::Object(vec![
                ("name".into(), Value::Str(g.name.clone())),
                ("version".into(), serde_json::to_value(&g.version)),
                ("vertices".into(), serde_json::to_value(&g.vertex_count())),
                ("edges".into(), serde_json::to_value(&g.edge_count())),
                ("weighted".into(), Value::Bool(g.weighted())),
                ("undirected".into(), Value::Bool(g.options.undirected)),
                ("pull".into(), Value::Bool(g.options.pull)),
                (
                    "resident_bytes".into(),
                    serde_json::to_value(&g.resident_bytes()),
                ),
            ])
        })
        .collect();
    Value::Object(vec![("graphs".into(), Value::Array(graphs))])
}

/// Graph upload body: `{"name": ..., ...}` plus exactly one input form —
/// `"spec"` (a CLI-style `gen:<key>` or file path resolved server-side),
/// CSR arrays (`"offsets"` + `"targets"` [+ `"weights"`]), or an edge
/// list (`"vertices"` + `"edges": [[u,v],...]` [+ `"weights"`]) — and
/// optional `"undirected"` / `"pull"` residency flags.
fn post_graph(service: &Service, req: &Request) -> (u16, Value) {
    let doc: Value = match parse_json_body(&req.body) {
        Ok(v) => v,
        Err(e) => return error_body(400, "bad-request", &e),
    };
    let name = match doc.get_field("name") {
        Some(Value::Str(s)) if !s.is_empty() => s.clone(),
        _ => {
            return error_body(
                400,
                "bad-request",
                "graph upload needs a non-empty \"name\"",
            )
        }
    };
    let host = match build_host(&doc) {
        Ok(h) => h,
        Err(resp) => return resp,
    };
    let options = crate::RegisterOptions {
        undirected: matches!(doc.get_field("undirected"), Some(Value::Bool(true))),
        pull: matches!(doc.get_field("pull"), Some(Value::Bool(true))),
    };
    match service.register_graph(&name, host, options) {
        Ok(g) => (
            200,
            Value::Object(vec![
                ("name".into(), Value::Str(g.name.clone())),
                ("version".into(), serde_json::to_value(&g.version)),
                ("vertices".into(), serde_json::to_value(&g.vertex_count())),
                ("edges".into(), serde_json::to_value(&g.edge_count())),
            ]),
        ),
        Err(e) => service_error(&e),
    }
}

fn build_host(doc: &Value) -> Result<CsrHost, (u16, Value)> {
    let bad = |msg: &str| Err(error_body(400, "bad-request", msg));
    if let Some(Value::Str(spec)) = doc.get_field("spec") {
        return crate::load_graph_spec(spec).map_err(|e| service_error(&e));
    }
    if doc.get_field("offsets").is_some() || doc.get_field("targets").is_some() {
        let offsets = match u32_array(doc.get_field("offsets")) {
            Some(v) => v,
            None => return bad("\"offsets\" must be an array of non-negative integers"),
        };
        let targets = match u32_array(doc.get_field("targets")) {
            Some(v) => v,
            None => return bad("\"targets\" must be an array of non-negative integers"),
        };
        let weights = match doc.get_field("weights") {
            None | Some(Value::Null) => None,
            some => match f32_array(some) {
                Some(v) => Some(v),
                None => return bad("\"weights\" must be an array of numbers"),
            },
        };
        // Structural validation happens in Registry::register.
        return Ok(CsrHost {
            offsets,
            indices: targets,
            weights,
        });
    }
    if let Some(Value::Array(raw)) = doc.get_field("edges") {
        let n = match doc.get_field("vertices") {
            Some(Value::Int(n)) if *n >= 0 => *n as usize,
            Some(Value::UInt(n)) => *n as usize,
            _ => return bad("edge-list upload needs a non-negative \"vertices\" count"),
        };
        let mut edges = Vec::with_capacity(raw.len());
        for e in raw {
            match e {
                Value::Array(pair) if pair.len() == 2 => {
                    match (as_u32(&pair[0]), as_u32(&pair[1])) {
                        (Some(u), Some(v)) => edges.push((u, v)),
                        _ => return bad("\"edges\" entries must be pairs of vertex ids"),
                    }
                }
                _ => return bad("\"edges\" entries must be pairs of vertex ids"),
            }
        }
        let weights = match doc.get_field("weights") {
            None | Some(Value::Null) => None,
            some => match f32_array(some) {
                Some(v) => Some(v),
                None => return bad("\"weights\" must be an array of numbers"),
            },
        };
        return CsrHost::try_from_edges_weighted(n, &edges, weights.as_deref())
            .map_err(|e| service_error(&ServiceError::InvalidGraph(e)));
    }
    bad("graph upload needs \"spec\", \"offsets\"+\"targets\", or \"vertices\"+\"edges\"")
}

fn as_u32(v: &Value) -> Option<u32> {
    match v {
        Value::Int(i) if *i >= 0 && *i <= u32::MAX as i64 => Some(*i as u32),
        Value::UInt(u) if *u <= u32::MAX as u64 => Some(*u as u32),
        _ => None,
    }
}

fn u32_array(v: Option<&Value>) -> Option<Vec<u32>> {
    match v {
        Some(Value::Array(items)) => items.iter().map(as_u32).collect(),
        _ => None,
    }
}

fn f32_array(v: Option<&Value>) -> Option<Vec<f32>> {
    match v {
        Some(Value::Array(items)) => items
            .iter()
            .map(|x| match x {
                Value::Int(i) => Some(*i as f32),
                Value::UInt(u) => Some(*u as f32),
                Value::Float(f) => Some(*f as f32),
                _ => None,
            })
            .collect(),
        _ => None,
    }
}

fn parse_json_body(body: &[u8]) -> Result<Value, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    if text.trim().is_empty() {
        return Err("empty body (expected a JSON object)".into());
    }
    serde_json::from_str::<Value>(text).map_err(|e| format!("invalid JSON body: {e}"))
}

fn post_job(service: &Service, req: &Request) -> (u16, Value) {
    let doc = match parse_json_body(&req.body) {
        Ok(v) => v,
        Err(e) => return error_body(400, "bad-request", &e),
    };
    let request: JobRequest = match serde::Deserialize::deserialize_value(&doc) {
        Ok(r) => r,
        Err(e) => return error_body(400, "bad-request", &format!("bad job request: {e}")),
    };
    let id = match service.submit(request) {
        Ok(id) => id,
        Err(e) => return service_error(&e),
    };
    let record = if req.flag("wait", false) {
        service.wait(id)
    } else {
        service.job(id)
    };
    match record {
        Some(rec) => {
            let status = rec.http_status.unwrap_or(match rec.state {
                crate::JobState::Done => 200,
                _ => 202,
            });
            (status, rec.to_json(req.flag("values", false)))
        }
        None => error_body(500, "device", "job record vanished"),
    }
}

fn get_job(service: &Service, req: &Request, id_text: &str) -> (u16, Value) {
    let id: u64 = match id_text.parse() {
        Ok(id) => id,
        Err(_) => return error_body(400, "bad-request", &format!("bad job id {id_text:?}")),
    };
    let record = if req.flag("wait", false) {
        service.wait(id)
    } else {
        service.job(id)
    };
    match record {
        Some(rec) => {
            let status = rec.http_status.unwrap_or(200);
            (status, rec.to_json(req.flag("values", true)))
        }
        None => error_body(404, "not-found", &format!("no job {id}")),
    }
}
