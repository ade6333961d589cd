//! Experiment SERVE_CHAOS: a multi-threaded client soak against the
//! `rap-serve` query service while faults are injected into its handler
//! path, proving the service's headline guarantees:
//!
//! 1. **Zero lost requests** — every request line sent receives exactly
//!    one response line (success, `degraded:true` fallback, or a
//!    structured shed/timeout/panic error), even with panic failpoints
//!    firing on a schedule inside the handlers.
//! 2. **No crash** — the process, acceptor, and every worker survive the
//!    whole soak; a final `health` query answers green.
//! 3. **Breaker lifecycle** — under a sustained fault burst the circuit
//!    breaker trips open, `pattern` queries degrade to the analyzer's
//!    certified bounds, and after the fault clears the breaker recovers
//!    through half-open to closed.
//! 4. **Client death is survivable** — a client killed mid-stream (its
//!    socket vanishes with responses in flight) costs write errors, not
//!    server state: the conservation ledger still balances.
//! 5. **Graceful drain** — shutdown under load stops admission, finishes
//!    or explicitly answers everything queued, and reports clean exit.
//!
//! The checks run against in-process servers (same code path as `rap
//! serve`); CI's `serve-soak` job additionally drives the real binary
//! over real sockets with a real `kill -9`.

use crate::soak::{connect, ensure, roundtrip, start_server, Check, Report, Suite};
use rap_resilience::{install, FailPlan, Fault, HitSchedule};
use rap_serve::{Response, ServerConfig, ServerHandle};
use serde::{Serialize, Value};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Aggregate client-side tallies of the main soak.
#[derive(Debug, Default, Clone, Serialize)]
pub struct SoakTally {
    /// Request lines sent.
    pub sent: u64,
    /// Response lines received.
    pub received: u64,
    /// `ok:true` full-fidelity responses.
    pub ok: u64,
    /// `ok:true, degraded:true` responses.
    pub degraded: u64,
    /// Structured error responses, by kind.
    pub shed: u64,
    /// `timeout` errors.
    pub timeouts: u64,
    /// `panic`/`handler_failed` errors.
    pub failures: u64,
    /// `bad_request` errors (the soak sends some malformed lines).
    pub bad_requests: u64,
    /// Other structured errors (draining, unavailable).
    pub other_errors: u64,
}

impl SoakTally {
    fn absorb(&mut self, response: &Response) {
        self.received += 1;
        if response.ok {
            if response.degraded {
                self.degraded += 1;
            } else {
                self.ok += 1;
            }
            return;
        }
        match response.error_kind() {
            Some("shed") => self.shed += 1,
            Some("timeout") => self.timeouts += 1,
            Some("panic" | "handler_failed") => self.failures += 1,
            Some("bad_request") => self.bad_requests += 1,
            _ => self.other_errors += 1,
        }
    }

    fn merge(&mut self, other: &SoakTally) {
        self.sent += other.sent;
        self.received += other.received;
        self.ok += other.ok;
        self.degraded += other.degraded;
        self.shed += other.shed;
        self.timeouts += other.timeouts;
        self.failures += other.failures;
        self.bad_requests += other.bad_requests;
        self.other_errors += other.other_errors;
    }
}

/// The full soak result, written to `results/serve_chaos.json`.
#[derive(Debug, Serialize)]
pub struct SoakReport {
    /// Root seed keying the fault schedules.
    pub seed: u64,
    /// Requests driven by the main soak.
    pub requests: u64,
    /// Concurrent client connections in the main soak.
    pub clients: u64,
    /// Client-side tallies of the main soak.
    pub tally: SoakTally,
    /// Injected handler faults observed by the failpoint log.
    pub injected_faults: u64,
    /// Times the breaker tripped across all checks.
    pub breaker_trips: u64,
    /// One entry per check.
    pub checks: Vec<Check>,
    /// True iff every check passed.
    pub passed: bool,
}

impl Report for SoakReport {
    fn checks(&self) -> &[Check] {
        &self.checks
    }

    fn summary(&self) -> String {
        format!(
            " ({} fault(s) injected, {} breaker trip(s))",
            self.injected_faults, self.breaker_trips
        )
    }
}

fn shutdown(handle: ServerHandle) -> rap_serve::DrainReport {
    handle.begin_shutdown();
    handle.join()
}

/// The request mix one soak client cycles through: cheap and expensive,
/// valid and malformed, degradable and not.
fn request_line(global_index: u64) -> String {
    match global_index % 8 {
        0 => format!(
            r#"{{"cmd":"pattern","id":{global_index},"pattern":"stride","scheme":"rap","width":16,"trials":32}}"#
        ),
        1 => format!(
            r#"{{"cmd":"congestion","id":{global_index},"width":32,"addresses":[0,32,64,96,1,33]}}"#
        ),
        2 => format!(r#"{{"cmd":"analyze","id":{global_index},"width":8}}"#),
        3 => format!(
            r#"{{"cmd":"layout","id":{global_index},"scheme":"ras","width":8,"seed":{global_index}}}"#
        ),
        4 => format!(
            r#"{{"cmd":"pattern","id":{global_index},"pattern":"diagonal","scheme":"raw","width":16,"trials":16}}"#
        ),
        5 => format!(
            r#"{{"cmd":"transpose","id":{global_index},"kind":"crsw","scheme":"rap","width":16,"latency":2}}"#
        ),
        // Deliberately malformed: exercises the bad-request path under
        // the same fault schedule.
        6 => format!(r#"{{"cmd":"layout","id":{global_index},"scheme":"rap","width":0}}"#),
        // Tight deadline: exercises timeout/partial-result paths.
        _ => format!(
            r#"{{"cmd":"pattern","id":{global_index},"pattern":"random","scheme":"ras","width":64,"trials":4000,"timeout_ms":20}}"#
        ),
    }
}

/// Check 1+2: the main soak. `requests` requests over `clients`
/// connections with panic failpoints at Rate(1/16), then a health probe.
fn soak_check(
    addr: std::net::SocketAddr,
    requests: u64,
    clients: u64,
    seed: u64,
) -> Result<(SoakTally, u64), String> {
    let guard = install(FailPlan::new(seed).rule(
        "serve.handler",
        Fault::Panic,
        HitSchedule::Rate { num: 1, den: 16 },
    ));
    let counter = Arc::new(AtomicU64::new(0));
    let per_client = requests / clients;
    let threads: Vec<_> = (0..clients)
        .map(|_| {
            let counter = Arc::clone(&counter);
            std::thread::spawn(move || -> Result<SoakTally, String> {
                let mut tally = SoakTally::default();
                let mut client = connect(addr)?;
                for _ in 0..per_client {
                    let i = counter.fetch_add(1, Ordering::Relaxed);
                    let line = request_line(i);
                    tally.sent += 1;
                    let response = roundtrip(&mut client, &line)?;
                    tally.absorb(&response);
                }
                Ok(tally)
            })
        })
        .collect();
    let mut total = SoakTally::default();
    for t in threads {
        let tally = t
            .join()
            .map_err(|_| "client thread panicked".to_string())??;
        total.merge(&tally);
    }
    let injected = rap_resilience::failpoint::drain_log().len() as u64;
    drop(guard);
    ensure!(
        total.received == total.sent,
        "lost requests: sent {} received {}",
        total.sent,
        total.received
    );
    ensure!(
        injected != 0,
        "failpoint never fired; the soak proved nothing"
    );
    // The server must still be alive and green after the storm.
    let mut probe = connect(addr)?;
    let health = roundtrip(&mut probe, r#"{"cmd":"health"}"#)?;
    ensure!(health.ok, "post-soak health not ok: {health:?}");
    Ok((total, injected))
}

/// Check 4: a client that vanishes mid-stream (the in-process stand-in
/// for `kill -9`; CI does it to a real process).
fn client_kill_check(addr: std::net::SocketAddr) -> Result<String, String> {
    {
        let mut doomed = connect(addr)?;
        for i in 0..16 {
            doomed
                .send(&format!(
                    r#"{{"cmd":"pattern","id":{i},"pattern":"random","scheme":"ras","width":32,"trials":500}}"#
                ))
                .map_err(|e| format!("send: {e}"))?;
        }
        // Read a couple of responses so some writes succeed, then drop
        // the socket with the rest still in flight.
        let _ = doomed.recv();
        let _ = doomed.recv();
    } // <- connection closed here, responses still queued server-side
      // Conservation is a quiescence invariant: poll stats until the dead
      // client's in-flight jobs have all been answered into the void.
    let mut probe = connect(addr)?;
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    loop {
        let stats = roundtrip(&mut probe, r#"{"cmd":"stats"}"#)?;
        let data = stats.data.ok_or("stats had no data")?;
        if data.get("conserves_responses").and_then(Value::as_bool) == Some(true) {
            return Ok("dead client cost write errors only; response ledger balances".to_string());
        }
        ensure!(
            std::time::Instant::now() < deadline,
            "conservation broken after client kill: {data:?}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Check 3: sustained faults trip the breaker; `pattern` degrades to
/// analyzer bounds; recovery closes it again.
fn breaker_check(seed: u64) -> Result<(String, u64), String> {
    let handle = start_server(ServerConfig {
        workers: 1,
        retry: rap_resilience::RetryPolicy {
            max_retries: 0,
            ..rap_resilience::RetryPolicy::default()
        },
        breaker: rap_resilience::BreakerConfig {
            failure_threshold: 3,
            cooldown: Duration::from_millis(100),
            success_to_close: 1,
        },
        ..ServerConfig::default()
    })?;
    let mut client = connect(handle.addr())?;
    let guard =
        install(FailPlan::new(seed).rule("serve.handler", Fault::Panic, HitSchedule::Always));
    for i in 0..3 {
        let r = roundtrip(
            &mut client,
            &format!(r#"{{"cmd":"analyze","id":{i},"width":8}}"#),
        )?;
        ensure!(!r.ok, "request {i} succeeded under Always-panic: {r:?}");
    }
    ensure!(
        handle.breaker_state() == "open",
        "breaker should be open after the burst, is {}",
        handle.breaker_state()
    );
    // Open breaker: pattern must degrade to certified bounds, marked so.
    let degraded = roundtrip(
        &mut client,
        r#"{"cmd":"pattern","id":50,"pattern":"stride","scheme":"rap","width":16}"#,
    )?;
    ensure!(
        degraded.ok && degraded.degraded && degraded.breaker == "open",
        "expected degraded analyzer answer: {degraded:?}"
    );
    let payload = degraded.data.ok_or("no data")?;
    let source = payload.get("source").and_then(Value::as_str);
    let bound = ["lo", "hi"].map(|k| payload.get(k).and_then(Value::as_u64));
    ensure!(
        source == Some("static-analyzer") && bound == [Some(1), Some(1)],
        "degraded payload is not the certified [1, 1] stride bound: {payload:?}"
    );
    drop(guard); // fault clears
    std::thread::sleep(Duration::from_millis(150)); // past cooldown
    let recovered = roundtrip(&mut client, r#"{"cmd":"analyze","id":60,"width":8}"#)?;
    ensure!(recovered.ok, "half-open probe failed: {recovered:?}");
    ensure!(
        handle.breaker_state() == "closed",
        "breaker should have closed, is {}",
        handle.breaker_state()
    );
    let trips = handle.breaker_trips();
    let report = shutdown(handle);
    ensure!(
        report.metrics.conserves_responses(),
        "conservation broken across breaker lifecycle"
    );
    Ok((
        format!(
            "tripped open, served certified [1,1] stride bound degraded, \
             recovered closed ({trips} trip(s))"
        ),
        trips,
    ))
}

/// Check 6: ENOSPC and delay faults — retried or surfaced, never lost.
fn io_fault_check(seed: u64) -> Result<String, String> {
    let handle = start_server(ServerConfig::default())?;
    let mut client = connect(handle.addr())?;
    let guard = install(
        FailPlan::new(seed)
            .rule(
                "serve.handler",
                Fault::Enospc,
                HitSchedule::Rate { num: 1, den: 4 },
            )
            .rule(
                "serve.handler",
                Fault::Delay,
                HitSchedule::Rate { num: 1, den: 3 },
            ),
    );
    let mut answered = 0u64;
    for i in 0..40 {
        let r = roundtrip(
            &mut client,
            &format!(r#"{{"cmd":"congestion","id":{i},"width":8,"addresses":[0,8,1]}}"#),
        )?;
        // Success (possibly after retries) or a structured failure; both
        // are answered.
        ensure!(
            r.ok || r.error_kind() == Some("handler_failed"),
            "unexpected response under I/O faults: {r:?}"
        );
        answered += 1;
    }
    drop(guard);
    let report = shutdown(handle);
    ensure!(
        report.metrics.conserves_responses(),
        "conservation broken under I/O faults"
    );
    Ok(format!(
        "{answered}/40 answered under ENOSPC(1/4)+delay(1/3); retries {}",
        report.metrics.handler_retries
    ))
}

/// Check 5: graceful drain under load — stop admitting, answer the
/// backlog (executed or explicitly aborted), exit clean.
fn drain_check() -> Result<String, String> {
    let handle = start_server(ServerConfig {
        workers: 1,
        queue_capacity: 64,
        drain_budget_ms: 200,
        ..ServerConfig::default()
    })?;
    let mut client = connect(handle.addr())?;
    const PIPELINED: u64 = 12;
    for i in 0..PIPELINED {
        client
            .send(&format!(
                r#"{{"cmd":"pattern","id":{i},"pattern":"random","scheme":"ras","width":64,"trials":3000}}"#
            ))
            .map_err(|e| format!("send: {e}"))?;
    }
    client
        .send(r#"{"cmd":"shutdown","id":999}"#)
        .map_err(|e| format!("send shutdown: {e}"))?;
    let report = handle.join();
    ensure!(
        report.metrics.conserves_responses(),
        "drain lost requests: {report:?}"
    );
    // Client side: exactly one response per request, shutdown included.
    let mut got = 0u64;
    for _ in 0..=PIPELINED {
        match client.recv() {
            Ok(Some(_)) => got += 1,
            Ok(None) => break,
            Err(e) => return Err(format!("after {got} responses: {e}")),
        }
    }
    ensure!(
        got == PIPELINED + 1,
        "expected {} responses, got {got}",
        PIPELINED + 1
    );
    Ok(format!(
        "drain answered all {} requests ({} aborted with structured errors), clean={}",
        PIPELINED + 1,
        report.aborted_jobs,
        report.clean
    ))
}

/// Check 7: admission control — a burst into a tiny queue sheds with
/// structured 429s and zero losses.
fn shed_check() -> Result<String, String> {
    let handle = start_server(ServerConfig {
        workers: 1,
        queue_capacity: 2,
        ..ServerConfig::default()
    })?;
    let mut client = connect(handle.addr())?;
    const BURST: u64 = 30;
    for i in 0..BURST {
        client
            .send(&format!(
                r#"{{"cmd":"pattern","id":{i},"pattern":"random","scheme":"ras","width":64,"trials":2000}}"#
            ))
            .map_err(|e| format!("send: {e}"))?;
    }
    let mut sheds = 0u64;
    let mut answered = 0u64;
    for _ in 0..BURST {
        let r = client
            .recv()
            .map_err(|e| format!("recv: {e}"))?
            .ok_or("connection closed mid-burst")?;
        if r.error_kind() == Some("shed") {
            sheds += 1;
        } else {
            answered += 1;
        }
    }
    let report = shutdown(handle);
    ensure!(
        report.metrics.conserves_responses(),
        "conservation broken under shedding"
    );
    ensure!(
        sheds != 0,
        "a 2-slot queue never shed under a 30-deep burst"
    );
    Ok(format!(
        "{answered} executed + {sheds} structured sheds = {BURST}, zero lost"
    ))
}

/// Run the whole soak suite. `requests`/`clients` size the main soak.
#[must_use]
pub fn run(seed: u64, requests: u64, clients: u64) -> SoakReport {
    let clients = clients.clamp(1, 64);
    let requests = requests.max(clients);
    let mut suite = Suite::default();
    let mut tally = SoakTally::default();
    let mut injected = 0u64;
    let mut trips = 0u64;

    // Main soak server: shared by checks 1, 2, and the kill check so the
    // kill's write errors land in a ledger that is still being audited.
    match start_server(ServerConfig {
        workers: 4,
        queue_capacity: 256,
        ..ServerConfig::default()
    }) {
        Err(e) => suite.check("soak-server-start", || Err(e)),
        Ok(handle) => {
            let addr = handle.addr();
            suite.check("soak-zero-lost-requests", || {
                let (t, n) = soak_check(addr, requests, clients, seed)?;
                let detail = format!(
                    "{} sent = {} answered ({} ok, {} degraded, {} shed, {} timeout, \
                     {} failure, {} bad-request) with {n} injected panic(s); health green",
                    t.sent,
                    t.received,
                    t.ok,
                    t.degraded,
                    t.shed,
                    t.timeouts,
                    t.failures,
                    t.bad_requests,
                );
                injected = n;
                tally = t;
                Ok(detail)
            });
            suite.check("client-kill-mid-stream", || client_kill_check(addr));
            suite.check("soak-server-conservation", || {
                let m = shutdown(handle).metrics;
                let detail = format!(
                    "received {} = ok {} + degraded {} + errors {} (write_errors {} from the \
                     killed client)",
                    m.received,
                    m.completed_ok,
                    m.degraded_served,
                    m.errors_total(),
                    m.write_errors,
                );
                if m.conserves_responses() {
                    Ok(detail)
                } else {
                    Err(detail)
                }
            });
        }
    }

    suite.check("breaker-trips-and-recovers", || {
        let (detail, t) = breaker_check(seed)?;
        trips = t;
        Ok(detail)
    });
    suite.check("enospc-and-delay-faults", || io_fault_check(seed));
    suite.check("graceful-drain-under-load", drain_check);
    suite.check("shed-burst-structured-429s", shed_check);

    let (checks, passed) = suite.finish();
    SoakReport {
        seed,
        requests,
        clients,
        tally,
        injected_faults: injected,
        breaker_trips: trips,
        checks,
        passed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature soak (fast enough for unit CI) must pass end to end.
    #[test]
    fn mini_soak_passes() {
        let _chaos = crate::experiments::chaos_test_guard();
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let report = run(7, 64, 4);
        std::panic::set_hook(prev);
        for c in &report.checks {
            assert!(c.passed, "{}: {}", c.name, c.detail);
        }
        assert!(report.passed);
        assert!(report.injected_faults > 0);
        assert!(report.breaker_trips >= 1);
        assert_eq!(report.tally.sent, report.tally.received);
    }
}
