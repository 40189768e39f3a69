//! A deliberately minimal HTTP/1.1 layer over `std::net`.
//!
//! The service speaks exactly the subset the protocol needs — one
//! request per connection (`Connection: close`), JSON bodies sized by
//! `Content-Length`, no chunked encoding, no keep-alive, no TLS. Both
//! the server and the blocking [`client`](crate::client) are built on
//! the readers/writers here, so the two ends cannot drift apart.
//!
//! [`serve`] is the one front door every network-facing process uses
//! (the job server and the cluster coordinator): one accept loop, one
//! connection handler, one set of [`Limits`] and one in-flight cap
//! ([`MAX_CONNECTIONS`]). A process supplies only its route table and
//! its stop condition. The accept thread blocks in `accept`, so a
//! process that raises the condition wakes it through the
//! [`FrontDoor`] handle.

use crate::protocol::{ApiError, Health, Readiness, SubmitRequest, PROTOCOL_VERSION};
use ecripse_core::telemetry::{Histogram, MetricsRegistry, TraceContext};
use serde::{Deserialize, Serialize};
use std::io::{Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A raw client-side response: status code, headers (names
/// lower-cased) and body text.
pub type RawResponse = (u16, Vec<(String, String)>, String);

/// Largest accepted request head (request line + headers).
pub const MAX_HEAD_BYTES: usize = 64 * 1024;
/// Largest accepted message body.
pub const MAX_BODY_BYTES: usize = 64 * 1024 * 1024;

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method, upper-case (`GET`, `POST`, `DELETE`, …).
    pub method: String,
    /// Request path, e.g. `/v1/jobs/3/report` (query strings are kept
    /// verbatim; the protocol does not use them).
    pub path: String,
    /// Header name/value pairs in wire order, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Raw message body.
    pub body: Vec<u8>,
}

impl Request {
    /// First value of the named header (name matched case-insensitively).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// An HTTP response about to be written.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Extra headers beyond `Content-Type`/`Content-Length`/`Connection`.
    pub headers: Vec<(String, String)>,
    /// `Content-Type` of the body.
    pub content_type: String,
    /// Message body.
    pub body: String,
}

impl Response {
    /// A JSON response with the given status.
    pub fn json(status: u16, body: String) -> Self {
        Self {
            status,
            headers: Vec::new(),
            content_type: "application/json".to_string(),
            body,
        }
    }

    /// A plain-text response with the given status (used for Prometheus
    /// exposition, which scrapers expect as `text/plain`).
    pub fn text(status: u16, body: String) -> Self {
        Self {
            status,
            headers: Vec::new(),
            content_type: "text/plain; version=0.0.4".to_string(),
            body,
        }
    }

    /// Adds a header.
    #[must_use]
    pub fn with_header(mut self, name: &str, value: String) -> Self {
        self.headers.push((name.to_string(), value));
        self
    }
}

/// `value` rendered as a JSON body (`{}` should it fail to serialise).
pub fn json_body<T: Serialize>(value: &T) -> String {
    serde_json::to_string(value).unwrap_or_else(|_| "{}".to_string())
}

/// A JSON [`ApiError`] response.
pub fn error_response(status: u16, code: &str, message: impl Into<String>) -> Response {
    Response::json(status, json_body(&ApiError::new(code, message)))
}

/// Hands the numeric job id in path segment `raw` to `f` and answers
/// with what `f` returns, either way; `400 bad_request` when the
/// segment is not a number.
pub fn with_job_id(raw: &str, f: impl FnOnce(u64) -> Result<Response, Response>) -> Response {
    match raw.parse::<u64>() {
        Ok(id) => f(id).unwrap_or_else(|response| response),
        Err(_) => error_response(
            400,
            "bad_request",
            format!("job id must be numeric: {raw:?}"),
        ),
    }
}

/// Parses a UTF-8 JSON request body, or returns the `400 bad_request`
/// response to send instead; a parse failure reads `invalid {what}: …`.
///
/// # Errors
///
/// The error response when the body is not UTF-8 or not a `T`.
pub fn parse_body<T: Deserialize>(body: &[u8], what: &str) -> Result<T, Response> {
    let text = std::str::from_utf8(body)
        .map_err(|_| error_response(400, "bad_request", "body is not utf-8"))?;
    serde_json::from_str(text)
        .map_err(|e| error_response(400, "bad_request", format!("invalid {what}: {e}")))
}

/// Parses and checks a `POST /v1/jobs` body, or returns the `400` to
/// send instead. The checks run in one order: body, protocol version,
/// [`JobSpec::validate`](crate::protocol::JobSpec::validate), zero
/// deadline, empty idempotency key. A `traceparent` header outranks
/// the body's `trace` field. `who` names the answering process.
///
/// # Errors
///
/// The `400` response naming the first fault.
pub fn parse_submission(request: &Request, who: &str) -> Result<SubmitRequest, Response> {
    let mut submission: SubmitRequest = parse_body(&request.body, "submission")?;
    if let Some(header) = request
        .header("traceparent")
        .and_then(TraceContext::parse_traceparent)
    {
        submission.trace = Some(header);
    }
    if submission.protocol != PROTOCOL_VERSION {
        let theirs = submission.protocol;
        let message = format!("client speaks protocol {theirs}, {who} speaks {PROTOCOL_VERSION}");
        return Err(error_response(400, "protocol_mismatch", message));
    }
    if let Err(reason) = submission.job.validate() {
        return Err(error_response(400, "invalid_job", reason));
    }
    if submission.deadline_ms == Some(0) {
        let message = "deadline_ms must be positive (omit it for no deadline)";
        return Err(error_response(400, "invalid_deadline", message));
    }
    if submission.idempotency_key.as_deref() == Some("") {
        let message = "idempotency_key must be non-empty (omit it to disable deduplication)";
        return Err(error_response(400, "invalid_idempotency_key", message));
    }
    Ok(submission)
}

/// Whether a `GET /metrics` request asks for the Prometheus text
/// exposition (its `Accept` header names `text/plain`) rather than the
/// JSON document.
pub fn wants_prometheus(request: &Request) -> bool {
    request
        .header("accept")
        .is_some_and(|accept| accept.contains("text/plain"))
}

/// The `GET /healthz` response: always `200` while the process can
/// answer at all, reading `draining` once it has stopped accepting.
pub fn health_response(draining: bool) -> Response {
    Response::json(
        200,
        json_body(&Health {
            status: if draining { "draining" } else { "ok" }.to_string(),
            protocol: PROTOCOL_VERSION,
        }),
    )
}

/// The `GET /readyz` response for a process whose readiness reads
/// `status`: `200` when it is `"ready"`, otherwise `503` with the
/// blocking condition and `Retry-After: 1` (load balancers can route
/// on the status code alone).
pub fn readiness_response(status: &str) -> Response {
    let ready = status == "ready";
    let body = json_body(&Readiness {
        ready,
        status: status.to_string(),
        protocol: PROTOCOL_VERSION,
        retry_after_seconds: (!ready).then_some(1),
    });
    if ready {
        Response::json(200, body)
    } else {
        Response::json(503, body).with_header("Retry-After", "1".into())
    }
}

/// Why reading a message failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// Socket-level failure.
    Io(String),
    /// The bytes on the wire are not the HTTP subset we speak.
    Malformed(String),
    /// The head or body exceeds the configured limits.
    TooLarge,
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Io(e) => write!(f, "http i/o error: {e}"),
            HttpError::Malformed(e) => write!(f, "malformed http message: {e}"),
            HttpError::TooLarge => write!(f, "http message exceeds size limits"),
        }
    }
}

impl std::error::Error for HttpError {}

impl From<std::io::Error> for HttpError {
    fn from(e: std::io::Error) -> Self {
        HttpError::Io(e.to_string())
    }
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Reads bytes until the `\r\n\r\n` head terminator, returning
/// `(head, leftover-body-bytes)`. A peer that closes before sending a
/// byte is a transport failure ([`HttpError::Io`]), one that closes
/// part-way through the head a malformed message.
fn read_head(stream: &mut impl Read) -> Result<(String, Vec<u8>), HttpError> {
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 1024];
    loop {
        if let Some(pos) = find_head_end(&buf) {
            let head = String::from_utf8(buf[..pos].to_vec())
                .map_err(|_| HttpError::Malformed("head is not utf-8".into()))?;
            let rest = buf[pos + 4..].to_vec();
            return Ok((head, rest));
        }
        if buf.len() > MAX_HEAD_BYTES {
            return Err(HttpError::TooLarge);
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 && buf.is_empty() {
            return Err(HttpError::Io("connection closed before any byte".into()));
        }
        if n == 0 {
            return Err(HttpError::Malformed("connection closed mid-head".into()));
        }
        buf.extend_from_slice(&chunk[..n]);
    }
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn parse_headers(lines: std::str::Lines<'_>) -> Result<Vec<(String, String)>, HttpError> {
    let mut headers = Vec::new();
    for line in lines {
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::Malformed(format!("header without colon: {line:?}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    Ok(headers)
}

fn content_length(headers: &[(String, String)]) -> Result<usize, HttpError> {
    let Some((_, v)) = headers.iter().find(|(n, _)| n == "content-length") else {
        return Ok(0);
    };
    let n: usize = v
        .parse()
        .map_err(|_| HttpError::Malformed(format!("bad content-length: {v:?}")))?;
    if n > MAX_BODY_BYTES {
        return Err(HttpError::TooLarge);
    }
    Ok(n)
}

/// Completes a body of `expected` bytes after the `leftover` the head
/// read already pulled in. The buffer grows only as bytes arrive, so a
/// claimed `Content-Length` costs nothing until the client sends it.
fn read_body(
    stream: &mut impl Read,
    mut body: Vec<u8>,
    expected: usize,
) -> Result<Vec<u8>, HttpError> {
    body.truncate(expected);
    let remaining = (expected - body.len()) as u64;
    stream.take(remaining).read_to_end(&mut body)?;
    if body.len() < expected {
        return Err(HttpError::Io("failed to fill whole buffer".into()));
    }
    Ok(body)
}

/// Reads and parses one request from the stream.
///
/// # Errors
///
/// [`HttpError`] on socket failure, malformed framing or a message that
/// exceeds [`MAX_HEAD_BYTES`]/[`MAX_BODY_BYTES`].
pub fn read_request(stream: &mut impl Read) -> Result<Request, HttpError> {
    let (head, leftover) = read_head(stream)?;
    let mut lines = head.lines();
    let request_line = lines
        .next()
        .ok_or_else(|| HttpError::Malformed("empty head".into()))?;
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("missing method".into()))?
        .to_ascii_uppercase();
    let path = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("missing path".into()))?
        .to_string();
    let version = parts.next().unwrap_or("HTTP/1.1");
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed(format!(
            "unsupported version {version:?}"
        )));
    }
    let headers = parse_headers(lines)?;
    let expected = content_length(&headers)?;
    let body = read_body(stream, leftover, expected)?;
    Ok(Request {
        method,
        path,
        headers,
        body,
    })
}

/// Writes a response and flushes. The connection is always marked
/// `Connection: close`; the caller drops the stream afterwards.
///
/// # Errors
///
/// Propagates socket write errors.
pub fn write_response(stream: &mut impl Write, response: &Response) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: close\r\n",
        response.status,
        reason(response.status),
        response.content_type,
        response.body.len()
    );
    for (name, value) in &response.headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(response.body.as_bytes())?;
    stream.flush()
}

/// Most connections [`serve`] handles at once; past it the accept
/// thread answers `503` itself. Twice the coordinator's default
/// in-flight job bound (32), the most connections its dispatchers
/// (which poll their shards one at a time) hold open to one worker.
pub const MAX_CONNECTIONS: usize = 64;

/// How long one connection may hold its handler thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Limits {
    /// Cap on each socket read.
    pub read_timeout: Duration,
    /// Cap on each socket write.
    pub write_timeout: Duration,
    /// Bound on request read, handling and response write together:
    /// every read and write timeout is capped by what is left of it,
    /// and a connection that spends it is closed without a response.
    pub connection_lifetime: Duration,
}

impl Default for Limits {
    fn default() -> Self {
        Self {
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(30),
            connection_lifetime: Duration::from_secs(60),
        }
    }
}

/// A socket whose every read and write times out after its own limit
/// or at `until`, whichever is sooner, so a client that trickles bytes
/// cannot outlive the connection lifetime.
struct Bounded<'a> {
    stream: &'a TcpStream,
    read: Duration,
    write: Duration,
    until: Instant,
}

impl Bounded<'_> {
    /// `timeout`, capped by the lifetime left; `TimedOut` once none is.
    fn cap(&self, timeout: Duration) -> std::io::Result<Option<Duration>> {
        let left = self.until.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(std::io::ErrorKind::TimedOut.into());
        }
        Ok(Some(timeout.min(left)))
    }
}

impl Read for Bounded<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.stream.set_read_timeout(self.cap(self.read)?)?;
        self.stream.read(buf)
    }
}

impl Write for Bounded<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.stream.set_write_timeout(self.cap(self.write)?)?;
        self.stream.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.stream.flush()
    }
}

/// A running front door: the accept thread [`serve`] started and the
/// address its listener is bound to.
#[derive(Debug)]
pub struct FrontDoor {
    thread: JoinHandle<()>,
    addr: SocketAddr,
}

impl FrontDoor {
    /// Unblocks the accept thread so it reads its stop condition again:
    /// connects once to the listener's own address (loopback for an
    /// unspecified bind address). Call it after raising the condition;
    /// a front door already gone refuses the connection, which is fine.
    pub fn wake(&self) {
        let mut addr = self.addr;
        if addr.ip().is_unspecified() {
            addr.set_ip(match addr {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
    }

    /// Wakes the accept thread and waits for it to return, which is
    /// after the last response is written. Raise the stop condition
    /// first.
    ///
    /// # Errors
    ///
    /// The accept thread's panic payload, should it have panicked.
    pub fn join(self) -> std::thread::Result<()> {
        self.wake();
        self.thread.join()
    }
}

/// Runs a process's HTTP front door on its own thread. The thread
/// blocks in `accept` on `listener` (switched to blocking mode), gives
/// each connection a thread bounded by `limits` and answers with
/// `route`; it reads `stopped(&state)` after every accept and returns
/// once that holds, so whoever raises the condition must then call
/// [`FrontDoor::wake`] (or [`FrontDoor::join`]). Every handled request
/// lands in the `ecripse_{process}_http_request_seconds` histogram of
/// `registry`, and every handler panic (caught, so the process keeps
/// serving) in `ecripse_{process}_http_handler_panics_total`. Past
/// [`MAX_CONNECTIONS`] live handlers, the accept thread answers `503`
/// itself.
///
/// Once stopped, the accept thread shuts down the read half of every
/// live connection, so a handler still waiting for its request gives up
/// at once while one that has read its request still writes its
/// response, and joins every handler before it returns (and the
/// listener closes): joining the returned front door waits for the last
/// response.
///
/// # Errors
///
/// Propagates the errors of switching the listener to blocking mode and
/// of reading its address.
pub fn serve<S: Send + Sync + 'static>(
    listener: TcpListener,
    limits: Limits,
    registry: &MetricsRegistry,
    process: &str,
    state: Arc<S>,
    stopped: fn(&S) -> bool,
    route: fn(&Arc<S>, &Request) -> Response,
) -> std::io::Result<FrontDoor> {
    listener.set_nonblocking(false)?;
    let addr = listener.local_addr()?;
    let latency = registry.histogram(
        &format!("ecripse_{process}_http_request_seconds"),
        "Wall-clock latency of handling one HTTP request",
    );
    let panics = registry.counter(
        &format!("ecripse_{process}_http_handler_panics_total"),
        "HTTP connection handlers that panicked (the connection is dropped without a response)",
    );
    let thread = std::thread::spawn(move || {
        // Live handlers, each with a weak handle on its socket (the
        // handler owns the socket, so it still closes the moment the
        // handler is done). Only this thread adds handlers, so the cap
        // check cannot race.
        let mut handlers: Vec<(JoinHandle<()>, Weak<TcpStream>)> = Vec::new();
        while !stopped(&state) {
            let stream = match listener.accept() {
                Ok((stream, _)) => stream,
                Err(_) => {
                    // Out of descriptors, say: back off rather than spin.
                    std::thread::sleep(Duration::from_millis(5));
                    continue;
                }
            };
            // The wake-up connection, or a client that raced it.
            if stopped(&state) {
                break;
            }
            handlers.retain(|(handler, _)| !handler.is_finished());
            if handlers.len() >= MAX_CONNECTIONS {
                refuse(stream);
                continue;
            }
            let stream = Arc::new(stream);
            let socket = Arc::downgrade(&stream);
            let (state, latency, panics) = (Arc::clone(&state), latency.clone(), panics.clone());
            let spawned = std::thread::Builder::new().spawn(move || {
                let handled = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    handle_connection(&stream, limits, &latency, &state, route);
                }));
                if handled.is_err() {
                    panics.inc();
                }
            });
            if let Ok(handler) = spawned {
                handlers.push((handler, socket));
            }
        }
        for socket in handlers.iter().filter_map(|(_, socket)| socket.upgrade()) {
            let _ = socket.shutdown(Shutdown::Read);
        }
        for (handler, _) in handlers {
            let _ = handler.join();
        }
    });
    Ok(FrontDoor { thread, addr })
}

/// Answers one connection.
fn handle_connection<S>(
    stream: &TcpStream,
    limits: Limits,
    latency: &Histogram,
    state: &Arc<S>,
    route: fn(&Arc<S>, &Request) -> Response,
) {
    let started = Instant::now();
    let mut bounded = Bounded {
        stream,
        read: limits.read_timeout,
        write: limits.write_timeout,
        until: started + limits.connection_lifetime,
    };
    let response = match read_request(&mut bounded) {
        Ok(request) => route(state, &request),
        Err(e) => error_response(400, "bad_request", e.to_string()),
    };
    // Lifetime spent before a byte of response: drop the connection
    // rather than start a write we won't finish.
    if bounded.until <= Instant::now() {
        return;
    }
    let _ = write_response(&mut bounded, &response);
    latency.record(started.elapsed().as_secs_f64());
}

/// The over-cap answer, written from the accept thread under a short
/// write timeout. What of the request has arrived is read and dropped
/// first, so closing does not reset the connection under the response.
fn refuse(mut stream: TcpStream) {
    let _ = stream
        .set_nonblocking(true)
        .and_then(|()| stream.read(&mut [0; 4096]));
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_write_timeout(Some(Duration::from_millis(100)));
    let mut body = ApiError::new("overloaded", "too many open connections; retry later");
    body.retry_after_seconds = Some(1);
    let response = Response::json(503, json_body(&body)).with_header("Retry-After", "1".into());
    let _ = write_response(&mut stream, &response);
}

/// Writes a client request (JSON body optional) and flushes.
///
/// # Errors
///
/// Propagates socket write errors.
pub fn write_request(
    stream: &mut TcpStream,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> std::io::Result<()> {
    write_request_with_headers(stream, method, path, body, "application/json", &[])
}

/// Writes a client request with an explicit `Accept` header plus extra
/// headers (e.g. `traceparent`) and flushes. The server's `GET /metrics`
/// route negotiates its body on the `Accept` header: `text/plain`
/// selects Prometheus exposition.
///
/// # Errors
///
/// Propagates socket write errors.
pub fn write_request_with_headers(
    stream: &mut TcpStream,
    method: &str,
    path: &str,
    body: Option<&str>,
    accept: &str,
    extra_headers: &[(&str, &str)],
) -> std::io::Result<()> {
    let body = body.unwrap_or("");
    let mut head = format!(
        "{method} {path} HTTP/1.1\r\nhost: ecripse-serve\r\ncontent-type: application/json\r\naccept: {accept}\r\ncontent-length: {}\r\n",
        body.len()
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("connection: close\r\n\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Reads a response from the server side of the wire: status, headers
/// (names lower-cased) and body.
///
/// # Errors
///
/// [`HttpError`] on socket failure or malformed framing.
pub fn read_response(stream: &mut TcpStream) -> Result<RawResponse, HttpError> {
    let (head, leftover) = read_head(stream)?;
    let mut lines = head.lines();
    let status_line = lines
        .next()
        .ok_or_else(|| HttpError::Malformed("empty head".into()))?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| HttpError::Malformed(format!("bad status line {status_line:?}")))?;
    let headers = parse_headers(lines)?;
    let expected = content_length(&headers)?;
    let body = read_body(stream, leftover, expected)?;
    let body =
        String::from_utf8(body).map_err(|_| HttpError::Malformed("body is not utf-8".into()))?;
    Ok((status, headers, body))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn head_end_detection() {
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n\r\nrest"), Some(14));
        assert_eq!(find_head_end(b"partial\r\n"), None);
    }

    #[test]
    fn a_peer_closing_before_any_byte_is_a_transport_error() {
        // Accepts each connection, reads what the client sends, and
        // closes without answering.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("address");
        let closer = std::thread::spawn(move || {
            for stream in listener.incoming().take(2) {
                let mut stream = stream.expect("accept");
                let _ = read_request(&mut stream);
            }
        });
        let mut stream = TcpStream::connect(addr).expect("connect");
        write_request(&mut stream, "GET", "/v1/health", None).expect("write");
        let err = read_response(&mut stream).expect_err("no response");
        assert!(matches!(err, HttpError::Io(_)), "got {err:?}");
        let err = crate::Client::new(addr.to_string())
            .health()
            .expect_err("no response");
        assert!(matches!(err, crate::ClientError::Io(_)), "got {err:?}");
        closer.join().expect("closer thread");
        // A head cut off part-way is still malformed.
        let err = read_head(&mut &b"HTTP/1.1 200 OK\r\n"[..]).expect_err("truncated");
        assert!(matches!(err, HttpError::Malformed(_)), "got {err:?}");
    }

    #[test]
    fn header_parsing_is_case_insensitive() {
        let headers =
            parse_headers("Content-Length: 12\r\nX-Thing: a:b".lines()).expect("valid headers");
        assert_eq!(content_length(&headers).expect("length"), 12);
        assert_eq!(headers[1], ("x-thing".into(), "a:b".into()));
    }

    /// A route that panics costs only its own connection: the panic is
    /// counted and the next request is answered.
    #[test]
    fn a_panicking_handler_is_counted_and_the_next_request_served() {
        use std::sync::atomic::{AtomicBool, Ordering};
        fn route(_: &Arc<AtomicBool>, request: &Request) -> Response {
            assert_ne!(request.path, "/panic", "the route panics on purpose");
            Response::json(200, "{}".into())
        }
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("address");
        let registry = MetricsRegistry::new();
        let stop = Arc::new(AtomicBool::new(false));
        let door = serve(
            listener,
            Limits::default(),
            &registry,
            "test",
            Arc::clone(&stop),
            |stop| stop.load(Ordering::SeqCst),
            route,
        )
        .expect("front door");
        let get = |path: &str| {
            let mut stream = TcpStream::connect(addr).expect("connect");
            write_request(&mut stream, "GET", path, None).expect("request");
            read_response(&mut stream).map(|(status, _, _)| status)
        };
        let panics = registry.counter("ecripse_test_http_handler_panics_total", "");
        assert_eq!(panics.get(), 0);
        assert!(
            get("/panic").is_err(),
            "a panicked handler sends no response"
        );
        assert_eq!(get("/fine").ok(), Some(200));
        assert_eq!(panics.get(), 1);
        stop.store(true, Ordering::SeqCst);
        door.join().expect("the accept thread returns");
    }

    #[test]
    fn oversized_content_length_is_rejected() {
        let headers = vec![("content-length".to_string(), "999999999999".to_string())];
        assert_eq!(content_length(&headers), Err(HttpError::TooLarge));
    }
}
