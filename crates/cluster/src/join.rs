//! Worker-side membership: register with a coordinator and heartbeat
//! until told to leave.
//!
//! A worker is a plain `ecripse-serve` process — nothing in the serve
//! crate knows about clustering. `ecripse-cli serve --join ADDR` binds
//! the server as usual and then runs this loop next to it: register
//! (retrying with backoff until the coordinator answers), heartbeat at
//! the cadence the coordinator returned, and re-register whenever a
//! heartbeat comes back `404` (the coordinator reaped us, restarted, or
//! never saw the registration). The loop is infinitely patient: a
//! coordinator that is down just means retries, never a worker exit.

use crate::protocol::{HeartbeatRequest, RegisterRequest, RegisterResponse};
use ecripse_serve::protocol::PROTOCOL_VERSION;
use ecripse_serve::Client;
use serde::json::Value;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How a worker joins a cluster.
#[derive(Debug, Clone)]
pub struct JoinConfig {
    /// Coordinator address (`host:port`).
    pub coordinator: String,
    /// This worker's stable name.
    pub name: String,
    /// The serve socket address the coordinator should dial.
    pub addr: String,
    /// Socket timeout for register/heartbeat calls.
    pub timeout: Duration,
}

impl JoinConfig {
    /// A join config with the default 5 s socket timeout.
    pub fn new(
        coordinator: impl Into<String>,
        name: impl Into<String>,
        addr: impl Into<String>,
    ) -> Self {
        Self {
            coordinator: coordinator.into(),
            name: name.into(),
            addr: addr.into(),
            timeout: Duration::from_secs(5),
        }
    }
}

/// Handle on a running join loop; dropping it without
/// [`leave`](JoinHandle::leave) leaves the thread running detached.
pub struct JoinHandle {
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl JoinHandle {
    /// Stops heartbeating and joins the loop thread. The coordinator
    /// notices the silence after its timeout and reaps the worker.
    pub fn leave(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Sleeps `total` in small slices, returning early (and `true`) when
/// the stop flag rises.
fn stoppable_sleep(stop: &AtomicBool, total: Duration) -> bool {
    let slice = Duration::from_millis(25);
    let mut remaining = total;
    while remaining > Duration::ZERO {
        if stop.load(Ordering::SeqCst) {
            return true;
        }
        let nap = remaining.min(slice);
        std::thread::sleep(nap);
        remaining -= nap;
    }
    stop.load(Ordering::SeqCst)
}

/// Starts the register-and-heartbeat loop on its own thread.
pub fn join(config: JoinConfig) -> JoinHandle {
    let stop = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&stop);
    let thread = std::thread::spawn(move || run_loop(&config, &flag));
    JoinHandle {
        stop,
        thread: Some(thread),
    }
}

fn run_loop(config: &JoinConfig, stop: &AtomicBool) {
    let coordinator = Client::new(config.coordinator.clone()).with_timeout(config.timeout);
    let registration = RegisterRequest {
        protocol: PROTOCOL_VERSION,
        name: config.name.clone(),
        addr: config.addr.clone(),
    };
    let heartbeat = HeartbeatRequest {
        name: config.name.clone(),
    };
    let mut backoff = Duration::from_millis(50);
    let backoff_cap = Duration::from_secs(2);
    'register: loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let registered = coordinator.post("/v1/cluster/register", &registration);
        let Ok(cadence): Result<RegisterResponse, _> = registered else {
            // Coordinator down or rejecting: retry with capped backoff.
            if stoppable_sleep(stop, backoff) {
                return;
            }
            backoff = (backoff * 2).min(backoff_cap);
            continue 'register;
        };
        backoff = Duration::from_millis(50);
        let interval = Duration::from_millis(cadence.heartbeat_interval_ms.max(10));
        loop {
            if stoppable_sleep(stop, interval) {
                return;
            }
            // 404 = the coordinator no longer knows us (reaped or
            // restarted): fall back to registration. Transport errors
            // take the same path — registration retries absorb a
            // bouncing coordinator.
            let answer: Result<Value, _> = coordinator.post("/v1/cluster/heartbeat", &heartbeat);
            if answer.is_err() {
                continue 'register;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leave_stops_a_loop_with_no_coordinator() {
        // Port 1 on loopback refuses connections immediately; the loop
        // must spin in its backoff and exit promptly on leave().
        let handle = join(JoinConfig::new("127.0.0.1:1", "w-test", "127.0.0.1:2"));
        std::thread::sleep(Duration::from_millis(120));
        handle.leave();
    }
}
