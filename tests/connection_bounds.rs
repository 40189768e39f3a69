//! The connection bounds of the HTTP front door that both
//! network-facing processes share (`ecripse::serve::http::serve`): the
//! in-flight connection cap, the connection lifetime and a request body
//! that grows only as it arrives. The cap is checked against an
//! in-process job server and an in-process coordinator; the lifetime
//! and body checks run against the server alone, since the code path is
//! the same and the coordinator's 60 s default lifetime is too long to
//! wait out. Every phase also checks that `shutdown()` returns only
//! once each handler thread has been joined.
//!
//! One `#[test]` only: the thread and memory readings come from
//! `/proc/self/status`, which must not see another test's threads. It
//! gathers every failed check before it fails, so one run reports each
//! bound that does not hold.

use ecripse::cluster::{ClusterConfig, Coordinator};
use ecripse::serve::http::{self, MAX_BODY_BYTES, MAX_CONNECTIONS};
use ecripse::serve::{ServeConfig, Server};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Threads a bound process may add beyond its handlers while the test
/// reads the count.
const THREAD_SLACK: u64 = 4;

/// The failed checks so far.
type Failures = Vec<String>;

fn check(failures: &mut Failures, holds: bool, what: String) {
    if !holds {
        failures.push(what);
    }
}

/// One numeric field of `/proc/self/status` (`Threads`, or `VmRSS` in
/// kB).
fn status_field(name: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(':'))
        .and_then(|value| value.split_whitespace().next()?.parse().ok())
        .unwrap_or_else(|| panic!("no {name} in /proc/self/status"))
}

/// Shuts a process down while one client holds an idle connection, so
/// a handler thread is waiting for a request that never comes.
/// `shutdown` must not return before that handler and every other
/// thread of the process have exited: `Threads:` is back to its value
/// from before the bind.
fn check_shutdown_joins_handlers(
    failures: &mut Failures,
    process: &str,
    addr: SocketAddr,
    threads_before_bind: u64,
    shutdown: impl FnOnce(),
) {
    let idle = TcpStream::connect(addr).expect("connect idle client");
    // Give the accept thread (5 ms poll) time to hand the connection
    // to a handler.
    std::thread::sleep(Duration::from_millis(100));
    shutdown();
    let threads = status_field("Threads");
    drop(idle);
    eprintln!("{process}: threads {threads_before_bind} before bind, {threads} after shutdown");
    check(
        failures,
        threads <= threads_before_bind,
        format!(
            "{process}: {threads} threads as shutdown returned, {threads_before_bind} before bind"
        ),
    );
}

/// `GET /healthz` on a fresh connection: status code and headers.
fn healthz(addr: SocketAddr) -> std::io::Result<(u16, Vec<(String, String)>)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(1)))?;
    http::write_request(&mut stream, "GET", "/healthz", None)?;
    let (status, headers, _) = http::read_response(&mut stream).map_err(std::io::Error::other)?;
    Ok((status, headers))
}

/// Opens `MAX_CONNECTIONS + 8` requests that stop halfway through their
/// body. A further complete request must be turned away at once with
/// `503` and `Retry-After`, the process must not spawn a thread per
/// slow connection, and it must answer normally once they are gone.
fn check_connection_cap(failures: &mut Failures, process: &str, addr: SocketAddr) {
    let threads_before = status_field("Threads");
    let slow: Vec<TcpStream> = (0..MAX_CONNECTIONS + 8)
        .map(|_| {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream
                .write_all(b"POST /v1/jobs HTTP/1.1\r\ncontent-length: 64\r\n\r\n{")
                .expect("half-write");
            stream
        })
        .collect();

    let asked = Instant::now();
    let (status, headers) = healthz(addr).expect("over-cap healthz");
    let waited = asked.elapsed();
    let threads = status_field("Threads");
    eprintln!(
        "{process}: over-cap /healthz -> {status} in {waited:?}; threads {threads_before} -> {threads}"
    );
    let retry_after = headers.iter().any(|(name, _)| name == "retry-after");
    check(
        failures,
        status == 503 && retry_after && waited < Duration::from_secs(1),
        format!("{process}: over-cap request got {status} in {waited:?}, not a fast 503"),
    );
    let cap = threads_before + MAX_CONNECTIONS as u64 + THREAD_SLACK;
    check(
        failures,
        threads <= cap,
        format!(
            "{process}: {threads} threads for {} slow connections (at most {cap})",
            slow.len()
        ),
    );

    drop(slow);
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        match healthz(addr) {
            Ok((200, _)) => break,
            other if Instant::now() >= deadline => {
                failures.push(format!(
                    "{process}: /healthz still failing 2 s after the slow clients left: {other:?}"
                ));
                break;
            }
            _ => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

/// A client that trickles one header byte every 50 ms must be cut off
/// once the connection lifetime is spent, though each byte arrives well
/// inside the read timeout.
fn check_trickle_is_cut_at_lifetime(failures: &mut Failures) {
    let lifetime = Duration::from_millis(400);
    let config = ServeConfig {
        read_timeout: Duration::from_millis(100),
        write_timeout: Duration::from_millis(200),
        connection_lifetime: lifetime,
        ..ServeConfig::default()
    };
    let threads_before_bind = status_field("Threads");
    let server = Server::bind("127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr();
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_millis(50)))
        .expect("client read timeout");
    let head = b"GET /healthz HTTP/1.1\r\nx-trickle: ";
    let started = Instant::now();
    let mut closed_after = None;
    for sent in 0.. {
        if started.elapsed() > Duration::from_secs(3) {
            break;
        }
        let byte = head.get(sent).copied().unwrap_or(b'a');
        if stream.write_all(&[byte]).is_err() {
            closed_after = Some(started.elapsed());
            break;
        }
        // The read doubles as the 50 ms pause between bytes.
        match stream.read(&mut [0u8; 512]) {
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            _ => {
                closed_after = Some(started.elapsed());
                break;
            }
        }
    }
    eprintln!("serve: trickling client closed after {closed_after:?} (lifetime {lifetime:?})");
    check(
        failures,
        closed_after.is_some_and(|after| after < lifetime + Duration::from_millis(500)),
        format!(
            "serve: trickling client closed after {closed_after:?}, not within lifetime + 500 ms"
        ),
    );
    check_shutdown_joins_handlers(failures, "serve", addr, threads_before_bind, || {
        server.shutdown();
    });
}

/// Four requests that each claim the largest allowed body and send
/// three bytes of it must not make the server allocate the claims.
fn check_claimed_bodies_cost_nothing_until_sent(failures: &mut Failures) {
    let threads_before_bind = status_field("Threads");
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let addr = server.local_addr();
    let rss_before = status_field("VmRSS");
    let claims: Vec<TcpStream> = (0..4)
        .map(|_| {
            let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
            let head =
                format!("POST /v1/jobs HTTP/1.1\r\ncontent-length: {MAX_BODY_BYTES}\r\n\r\n");
            stream.write_all(head.as_bytes()).expect("head");
            stream.write_all(b"{\"p").expect("three body bytes");
            stream
        })
        .collect();
    // Nothing on the wire tells when a handler has read its head; a
    // handler that sized its buffer by the claim does so within
    // milliseconds of the accept.
    std::thread::sleep(Duration::from_millis(300));
    let rss = status_field("VmRSS");
    drop(claims);
    let grown_kib = rss.saturating_sub(rss_before);
    eprintln!("serve: 4 x {MAX_BODY_BYTES}-byte claims grew VmRSS by {grown_kib} KiB");
    check(
        failures,
        grown_kib < 16 * 1024,
        format!("serve: claimed bodies grew VmRSS by {grown_kib} KiB"),
    );
    check_shutdown_joins_handlers(failures, "serve", addr, threads_before_bind, || {
        server.shutdown();
    });
}

#[test]
fn both_front_doors_bound_threads_lifetime_and_body_size() {
    let mut failures = Failures::new();
    check_claimed_bodies_cost_nothing_until_sent(&mut failures);
    check_trickle_is_cut_at_lifetime(&mut failures);

    let threads_before_bind = status_field("Threads");
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind serve");
    let addr = server.local_addr();
    check_connection_cap(&mut failures, "serve", addr);
    check_shutdown_joins_handlers(&mut failures, "serve", addr, threads_before_bind, || {
        server.shutdown();
    });

    let threads_before_bind = status_field("Threads");
    let coordinator =
        Coordinator::bind("127.0.0.1:0", ClusterConfig::default()).expect("bind coordinator");
    let addr = coordinator.local_addr();
    check_connection_cap(&mut failures, "coordinator", addr);
    check_shutdown_joins_handlers(
        &mut failures,
        "coordinator",
        addr,
        threads_before_bind,
        || {
            coordinator.shutdown();
        },
    );

    assert!(
        failures.is_empty(),
        "bounds violated:\n{}",
        failures.join("\n")
    );
}
