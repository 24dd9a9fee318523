//! The load generator's HTTP/1.1 client: one request per connection, as the
//! server speaks `Connection: close`. Every phase of the exchange is
//! timestamped so the traced run can attribute a request's latency.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

/// One completed exchange.
pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
    pub start: Instant,
    pub connected: Instant,
    pub sent: Instant,
    pub first_byte: Instant,
    pub done: Instant,
}

impl Reply {
    /// Connect to last response byte, in ms.
    pub fn latency_ms(&self) -> f64 {
        crate::util::ms(self.done - self.start)
    }

    /// The `"id":N` of a job response.
    pub fn job_id(&self) -> Option<u64> {
        let head = &self.body[..self.body.len().min(64)];
        let text = std::str::from_utf8(head).ok()?;
        let rest = text.split_once("\"id\":")?.1;
        rest.split(|c: char| !c.is_ascii_digit())
            .next()?
            .parse()
            .ok()
    }

    /// The `error_kind` of an error body, for typed failure counts.
    pub fn error_kind(&self) -> Option<String> {
        let text = std::str::from_utf8(&self.body).ok()?;
        let rest = text.split_once("\"error_kind\":\"")?.1;
        Some(rest.split('"').next()?.to_string())
    }

    /// The `"values":[...]` array of a job response, as text.
    pub fn values_text(&self) -> Option<&str> {
        let text = std::str::from_utf8(&self.body).ok()?;
        let rest = text.split_once("\"values\":")?.1;
        Some(&rest[..=rest.find(']')?])
    }
}

/// Sends `method target` with a JSON `body` and reads the whole response.
pub fn request(addr: SocketAddr, method: &str, target: &str, body: &str) -> std::io::Result<Reply> {
    let start = Instant::now();
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let connected = Instant::now();
    let head = format!(
        "{method} {target} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    let sent = Instant::now();
    let mut raw = Vec::with_capacity(4096);
    let mut chunk = [0u8; 16384];
    let got = stream.read(&mut chunk)?;
    let first_byte = Instant::now();
    raw.extend_from_slice(&chunk[..got]);
    if got > 0 {
        stream.read_to_end(&mut raw)?;
    }
    let done = Instant::now();
    let bad = |why: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, why.to_string());
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| bad("response has no header end"))?;
    let status = std::str::from_utf8(&raw[..split])
        .ok()
        .and_then(|h| h.split_whitespace().nth(1)?.parse().ok())
        .ok_or_else(|| bad("response has no status"))?;
    Ok(Reply {
        status,
        body: raw.split_off(split + 4),
        start,
        connected,
        sent,
        first_byte,
        done,
    })
}
