//! A small blocking client for the service.
//!
//! One TCP connection per request (the server speaks
//! `Connection: close`), JSON in, JSON out, typed errors. Used by
//! `ecripse-cli submit` and the integration tests.
//!
//! # Retries
//!
//! By default the client makes exactly one attempt per call —
//! backpressure surfaces as [`ClientError::Busy`] with the server's
//! `Retry-After` hint, and the caller decides. [`Client::with_retry`]
//! opts into automatic retries under a [`BackoffPolicy`]: transport
//! errors (a crashed or restarting server), `5xx` responses and `429`
//! backpressure are retried with capped exponential backoff and
//! *deterministic* jitter (a hash of address, path and attempt — no RNG,
//! so test runs are reproducible); a `429`'s `Retry-After` hint is
//! honoured up to the policy's cap. Anything else (`4xx`, protocol
//! mismatches) fails fast.
//!
//! Retrying a `POST /v1/jobs` across a connection error is only safe
//! when the submission carries an idempotency key — the request may have
//! been journaled before the connection died, and the key is what lets
//! the server answer the retry with the original job instead of
//! enqueuing a duplicate. Set one via
//! [`SubmitRequest::with_idempotency_key`](crate::protocol::SubmitRequest::with_idempotency_key)
//! whenever retries are enabled.

use crate::http;
use crate::protocol::{
    ApiError, Health, JobReport, JobStatus, JobTrace, Metrics, Readiness, SubmitRequest,
    PROTOCOL_VERSION,
};
use ecripse_stats::{fnv1a, FNV_OFFSET};
use serde::{Deserialize, Serialize};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Why a client call failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// Connecting, reading or writing the socket failed.
    Io(String),
    /// The queue is full; the server asked us to come back later.
    Busy {
        /// The server's `Retry-After` hint.
        retry_after_seconds: u64,
    },
    /// The server answered with a non-2xx status.
    Api {
        /// HTTP status code.
        status: u16,
        /// Machine-readable error code from the body.
        code: String,
        /// Human-readable message from the body.
        message: String,
    },
    /// The server's bytes did not parse as the expected protocol type.
    Protocol(String),
    /// [`Client::wait`] ran out of time.
    Timeout {
        /// The job that did not reach a terminal state in time.
        id: u64,
        /// How long the client waited in total before giving up.
        waited: Duration,
    },
    /// The awaited job was cancelled (`DELETE /v1/jobs/{id}`) before it
    /// finished. Distinct from [`ClientError::Api`]: the request
    /// succeeded, the *job* was stopped.
    Cancelled {
        /// The cancelled job.
        id: u64,
    },
    /// The awaited job's server-side `deadline_ms` budget elapsed
    /// before it finished.
    DeadlineExceeded {
        /// The expired job.
        id: u64,
        /// The server's description of the expiry, when one was
        /// recorded.
        error: Option<String>,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Busy {
                retry_after_seconds,
            } => write!(f, "server busy; retry after {retry_after_seconds}s"),
            ClientError::Api {
                status,
                code,
                message,
            } => write!(f, "server error {status} ({code}): {message}"),
            ClientError::Protocol(e) => write!(f, "protocol error: {e}"),
            ClientError::Timeout { id, waited } => write!(
                f,
                "timed out waiting for job {id} after {:.3}s",
                waited.as_secs_f64()
            ),
            ClientError::Cancelled { id } => write!(f, "job {id} was cancelled"),
            ClientError::DeadlineExceeded { id, error } => match error {
                Some(e) => write!(f, "job {id} exceeded its deadline: {e}"),
                None => write!(f, "job {id} exceeded its deadline"),
            },
        }
    }
}

impl std::error::Error for ClientError {}

impl From<http::HttpError> for ClientError {
    fn from(e: http::HttpError) -> Self {
        match e {
            http::HttpError::Io(m) => ClientError::Io(m),
            other => ClientError::Protocol(other.to_string()),
        }
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e.to_string())
    }
}

/// Retry schedule for [`Client::with_retry`]: capped exponential
/// backoff with deterministic jitter.
///
/// Attempt `n` (0-based) sleeps `base × 2ⁿ` clamped to `cap`, then
/// scaled by a jitter factor in `[0.5, 1.0]` derived from an FNV-1a
/// hash of the server address, the request path and the attempt number
/// — different clients and paths desynchronise without any RNG, and a
/// given test run always sleeps the same amounts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackoffPolicy {
    /// Total attempts (first try included). `1` disables retries.
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub base: Duration,
    /// Upper bound on any single backoff sleep (also clamps a `429`'s
    /// `Retry-After` hint, so a pathological hint cannot stall the
    /// client for minutes).
    pub cap: Duration,
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 5,
            base: Duration::from_millis(50),
            cap: Duration::from_secs(5),
        }
    }
}

impl BackoffPolicy {
    /// The sleep before retry number `attempt` (0-based) of `path`
    /// against `addr`. Pure — same inputs, same delay.
    pub fn delay(&self, addr: &str, path: &str, attempt: u32) -> Duration {
        let doubled = self
            .base
            .saturating_mul(1u32.checked_shl(attempt.min(20)).unwrap_or(u32::MAX));
        let raw = doubled.min(self.cap);
        let mut seed = Vec::with_capacity(addr.len() + path.len() + 5);
        seed.extend_from_slice(addr.as_bytes());
        seed.push(b'|');
        seed.extend_from_slice(path.as_bytes());
        seed.extend_from_slice(&attempt.to_le_bytes());
        let jitter = 0.5 + 0.5 * ((fnv1a(FNV_OFFSET, &seed) % 1024) as f64 / 1023.0);
        raw.mul_f64(jitter)
    }

    /// Whether `error` is worth another attempt: transport failures,
    /// `5xx` responses and `429` backpressure. Client-side mistakes
    /// (`4xx`) and protocol mismatches fail fast.
    pub fn retryable(error: &ClientError) -> bool {
        match error {
            ClientError::Io(_) | ClientError::Busy { .. } => true,
            ClientError::Api { status, .. } => (500..600).contains(status),
            // A cancelled or deadline-expired job is a final verdict on
            // the job itself — retrying the poll cannot change it.
            ClientError::Protocol(_)
            | ClientError::Timeout { .. }
            | ClientError::Cancelled { .. }
            | ClientError::DeadlineExceeded { .. } => false,
        }
    }
}

/// A blocking client bound to one server address.
#[derive(Debug, Clone)]
pub struct Client {
    addr: String,
    timeout: Duration,
    retry: Option<BackoffPolicy>,
}

impl Client {
    /// A client for `addr` (e.g. `"127.0.0.1:7878"`) with a 30 s
    /// per-request socket timeout and no retries.
    pub fn new(addr: impl Into<String>) -> Self {
        Self {
            addr: addr.into(),
            timeout: Duration::from_secs(30),
            retry: None,
        }
    }

    /// Overrides the per-request socket timeout.
    #[must_use]
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Enables automatic retries under `policy` (see the module docs
    /// for what is retried — and why submissions should carry an
    /// idempotency key when this is on).
    #[must_use]
    pub fn with_retry(mut self, policy: BackoffPolicy) -> Self {
        self.retry = Some(policy);
        self
    }

    /// One request on a fresh connection: connect, bound both socket
    /// directions by the timeout, write the request, read the response.
    fn send(
        &self,
        method: &str,
        path: &str,
        body: Option<&str>,
        accept: &str,
        extra_headers: &[(&str, &str)],
    ) -> Result<http::RawResponse, ClientError> {
        let mut stream = TcpStream::connect(&self.addr)?;
        stream.set_read_timeout(Some(self.timeout))?;
        stream.set_write_timeout(Some(self.timeout))?;
        http::write_request_with_headers(&mut stream, method, path, body, accept, extra_headers)?;
        Ok(http::read_response(&mut stream)?)
    }

    /// A JSON call: a `2xx` body decoded as `T`, anything else decoded
    /// by [`api_error`]. Retried under the configured policy, if any.
    fn call<T: Deserialize>(
        &self,
        method: &str,
        path: &str,
        body: Option<&str>,
        extra_headers: &[(&str, &str)],
    ) -> Result<T, ClientError> {
        let once = || {
            let (status, headers, text) =
                self.send(method, path, body, "application/json", extra_headers)?;
            if !(200..300).contains(&status) {
                return Err(api_error(status, &headers, text));
            }
            serde_json::from_str(&text)
                .map_err(|e| ClientError::Protocol(format!("bad {path} response body: {e}")))
        };
        let Some(policy) = &self.retry else {
            return once();
        };
        let mut attempt = 0u32;
        loop {
            match once() {
                Err(error)
                    if attempt + 1 < policy.max_attempts && BackoffPolicy::retryable(&error) =>
                {
                    let mut delay = policy.delay(&self.addr, path, attempt);
                    if let ClientError::Busy {
                        retry_after_seconds,
                    } = &error
                    {
                        // Honour the server's hint, clamped to the cap
                        // so a pathological hint cannot stall us.
                        delay = delay
                            .max(Duration::from_secs(*retry_after_seconds))
                            .min(policy.cap.max(policy.base));
                    }
                    std::thread::sleep(delay);
                    attempt += 1;
                }
                result => return result,
            }
        }
    }

    /// Submits a job (`POST /v1/jobs`).
    ///
    /// # Errors
    ///
    /// [`ClientError::Busy`] on backpressure, [`ClientError::Api`] on
    /// rejection, plus the transport errors.
    pub fn submit(&self, request: &SubmitRequest) -> Result<JobStatus, ClientError> {
        let body = serde_json::to_string(request)
            .map_err(|e| ClientError::Protocol(format!("serialise submission: {e}")))?;
        // A trace-carrying submission also sends the `traceparent`
        // header — the wire field and the header agree, and servers
        // (or proxies) that only look at headers still see the trace.
        let traceparent = request.trace.map(|trace| trace.traceparent());
        let headers: Vec<(&str, &str)> = traceparent
            .iter()
            .map(|value| ("traceparent", value.as_str()))
            .collect();
        self.call("POST", "/v1/jobs", Some(&body), &headers)
    }

    /// Posts `body` as JSON to `path` and decodes a `2xx` answer as `T`:
    /// a call outside the job protocol, such as a cluster worker's
    /// registration and heartbeats.
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn post<T: Deserialize>(
        &self,
        path: &str,
        body: &impl Serialize,
    ) -> Result<T, ClientError> {
        let body = serde_json::to_string(body)
            .map_err(|e| ClientError::Protocol(format!("serialise {path} body: {e}")))?;
        self.call("POST", path, Some(&body), &[])
    }

    /// Fetches a job's lifecycle snapshot (`GET /v1/jobs/{id}`).
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn status(&self, id: u64) -> Result<JobStatus, ClientError> {
        self.call("GET", &format!("/v1/jobs/{id}"), None, &[])
    }

    /// Fetches a terminal job's full report (`GET /v1/jobs/{id}/report`).
    ///
    /// # Errors
    ///
    /// [`ClientError::Api`] with code `not_ready` while the job is
    /// still queued or running.
    pub fn report(&self, id: u64) -> Result<JobReport, ClientError> {
        self.call("GET", &format!("/v1/jobs/{id}/report"), None, &[])
    }

    /// Fetches a job's span timeline (`GET /v1/jobs/{id}/trace`). The
    /// spans are empty until the job finishes; against a cluster
    /// coordinator the document is the merged coordinator + worker
    /// waterfall.
    ///
    /// # Errors
    ///
    /// [`ClientError::Api`] with code `unknown_job` for unknown ids.
    pub fn trace(&self, id: u64) -> Result<JobTrace, ClientError> {
        self.call("GET", &format!("/v1/jobs/{id}/trace"), None, &[])
    }

    /// Cancels a job (`DELETE /v1/jobs/{id}`). A queued job lands in
    /// `cancelled` immediately (`200`); a running one is stopped
    /// cooperatively (`202`) — poll [`status`](Client::status) or
    /// [`wait`](Client::wait) to watch it drain.
    ///
    /// # Errors
    ///
    /// [`ClientError::Api`] with code `conflict` when the job already
    /// finished.
    pub fn cancel(&self, id: u64) -> Result<JobStatus, ClientError> {
        self.call("DELETE", &format!("/v1/jobs/{id}"), None, &[])
    }

    /// Fetches `GET /healthz`.
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn health(&self) -> Result<Health, ClientError> {
        self.call("GET", "/healthz", None, &[])
    }

    /// Fetches `GET /readyz`. The [`Readiness`] body parses from both
    /// the `200` (ready) and `503` (not ready) responses, so the
    /// returned document — not an error — is the answer either way.
    ///
    /// # Errors
    ///
    /// Transport and decode errors only; "not ready" is a successful
    /// answer with `ready == false`.
    pub fn readiness(&self) -> Result<Readiness, ClientError> {
        // Deliberately single-attempt even with retries configured: a
        // readiness probe's job is to report the node's state *now*.
        let (status, headers, text) = self.send("GET", "/readyz", None, "application/json", &[])?;
        if status != 200 && status != 503 {
            return Err(api_error(status, &headers, text));
        }
        serde_json::from_str(&text)
            .map_err(|e| ClientError::Protocol(format!("bad /readyz response body: {e}")))
    }

    /// Checks the server speaks this client's protocol version.
    ///
    /// # Errors
    ///
    /// [`ClientError::Protocol`] on a version mismatch.
    pub fn handshake(&self) -> Result<Health, ClientError> {
        let health = self.health()?;
        if health.protocol != PROTOCOL_VERSION {
            return Err(ClientError::Protocol(format!(
                "server speaks protocol {}, client speaks {PROTOCOL_VERSION}",
                health.protocol
            )));
        }
        Ok(health)
    }

    /// Fetches `GET /metrics`.
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn metrics(&self) -> Result<Metrics, ClientError> {
        self.call("GET", "/metrics", None, &[])
    }

    /// Fetches `GET /metrics` as Prometheus text exposition (the
    /// `Accept: text/plain` content negotiation a scraper performs).
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn metrics_prometheus(&self) -> Result<String, ClientError> {
        let (status, headers, text) = self.send("GET", "/metrics", None, "text/plain", &[])?;
        if !(200..300).contains(&status) {
            return Err(api_error(status, &headers, text));
        }
        Ok(text)
    }

    /// Polls a job's status until it reaches a terminal state, with
    /// capped exponential backoff between polls (10 ms doubling to
    /// 500 ms) — short jobs are noticed almost immediately, long ones
    /// don't get hammered.
    ///
    /// A job that was *stopped* rather than finished is an error, not a
    /// status: [`ClientError::Cancelled`] and
    /// [`ClientError::DeadlineExceeded`] are distinct so callers (and
    /// the cluster coordinator) can tell "someone deleted it" from "it
    /// ran out of budget" without re-inspecting the state.
    ///
    /// # Errors
    ///
    /// [`ClientError::Timeout`] (carrying the total time waited) when
    /// `timeout` elapses first; [`ClientError::Cancelled`] /
    /// [`ClientError::DeadlineExceeded`] when the job was stopped;
    /// transport errors pass through.
    pub fn wait(&self, id: u64, timeout: Duration) -> Result<JobStatus, ClientError> {
        let started = Instant::now();
        let deadline = started + timeout;
        let mut interval = Duration::from_millis(10);
        let cap = Duration::from_millis(500);
        loop {
            let status = self.status(id)?;
            match status.state {
                crate::protocol::JobState::Cancelled => {
                    return Err(ClientError::Cancelled { id });
                }
                crate::protocol::JobState::DeadlineExceeded => {
                    return Err(ClientError::DeadlineExceeded {
                        id,
                        error: status.error,
                    });
                }
                state if state.is_terminal() => return Ok(status),
                _ => {}
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(ClientError::Timeout {
                    id,
                    waited: started.elapsed(),
                });
            }
            // Never oversleep the deadline by more than one beat.
            std::thread::sleep(interval.min(deadline - now));
            interval = (interval * 2).min(cap);
        }
    }

    /// Polls `GET /readyz` until the server reports ready, honouring the
    /// `Retry-After` hint a `503` carries during boot replay (clamped to
    /// 1 s so a pathological hint cannot stall the caller); transport
    /// errors are treated as "still booting" and re-polled.
    ///
    /// # Errors
    ///
    /// [`ClientError::Timeout`] when `timeout` elapses before the
    /// server reports ready (id 0 — readiness is not a job).
    pub fn wait_ready(&self, timeout: Duration) -> Result<Readiness, ClientError> {
        let started = Instant::now();
        let deadline = started + timeout;
        loop {
            let mut pause = Duration::from_millis(20);
            match self.readiness() {
                Ok(readiness) if readiness.ready => return Ok(readiness),
                Ok(readiness) => {
                    if let Some(hint) = readiness.retry_after_seconds {
                        pause = Duration::from_secs(hint).min(Duration::from_secs(1));
                    }
                }
                Err(ClientError::Io(_)) => {}
                Err(other) => return Err(other),
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(ClientError::Timeout {
                    id: 0,
                    waited: started.elapsed(),
                });
            }
            std::thread::sleep(pause.min(deadline - now));
        }
    }

    /// [`wait`](Client::wait), then fetch the report.
    ///
    /// # Errors
    ///
    /// See [`wait`](Client::wait) and [`report`](Client::report).
    pub fn wait_for_report(&self, id: u64, timeout: Duration) -> Result<JobReport, ClientError> {
        self.wait(id, timeout)?;
        self.report(id)
    }
}

/// Decodes a non-`2xx` response. A `429` is [`ClientError::Busy`],
/// with the body's `Retry-After` hint, else the header's, else 1 s.
/// Anything else is [`ClientError::Api`] with the body's error code and
/// message, or `unknown` and the raw body when the body is not an API
/// error document.
fn api_error(status: u16, headers: &[(String, String)], text: String) -> ClientError {
    let error: Option<ApiError> = serde_json::from_str(&text).ok();
    if status == 429 {
        let retry_after_seconds = error
            .as_ref()
            .and_then(|e| e.retry_after_seconds)
            .or_else(|| {
                headers
                    .iter()
                    .find(|(n, _)| n == "retry-after")
                    .and_then(|(_, v)| v.parse().ok())
            })
            .unwrap_or(1);
        return ClientError::Busy {
            retry_after_seconds,
        };
    }
    let (code, message) = error
        .map(|e| (e.error, e.message))
        .unwrap_or_else(|| ("unknown".to_string(), text));
    ClientError::Api {
        status,
        code,
        message,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_and_capped() {
        let policy = BackoffPolicy {
            max_attempts: 8,
            base: Duration::from_millis(50),
            cap: Duration::from_millis(400),
        };
        let a = policy.delay("127.0.0.1:1", "/v1/jobs", 3);
        let b = policy.delay("127.0.0.1:1", "/v1/jobs", 3);
        assert_eq!(a, b, "same inputs, same delay");
        for attempt in 0..20 {
            let d = policy.delay("127.0.0.1:1", "/v1/jobs", attempt);
            assert!(d <= policy.cap, "attempt {attempt} exceeded cap: {d:?}");
            assert!(
                d >= policy.base.min(policy.cap) / 2,
                "attempt {attempt} under jitter floor: {d:?}"
            );
        }
        // Jitter desynchronises different paths.
        let other = policy.delay("127.0.0.1:1", "/v1/jobs/7", 3);
        assert_ne!(a, other, "paths should jitter apart (hash collision?)");
    }

    #[test]
    fn retryability_classification() {
        assert!(BackoffPolicy::retryable(&ClientError::Io("refused".into())));
        assert!(BackoffPolicy::retryable(&ClientError::Busy {
            retry_after_seconds: 1
        }));
        assert!(BackoffPolicy::retryable(&ClientError::Api {
            status: 503,
            code: "shutting_down".into(),
            message: String::new(),
        }));
        assert!(!BackoffPolicy::retryable(&ClientError::Api {
            status: 400,
            code: "bad_request".into(),
            message: String::new(),
        }));
        assert!(!BackoffPolicy::retryable(&ClientError::Protocol(
            "mismatch".into()
        )));
    }
}
