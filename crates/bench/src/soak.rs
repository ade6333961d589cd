//! The shared harness of the chaos suites (`chaos`, `serve_chaos`,
//! `cluster_chaos`, `adapt_chaos`): one check type, one runner that
//! isolates each check's panics, and one bin driver.
//!
//! A check is a named closure returning `Ok(detail)` when its invariant
//! held and `Err(reason)` when it broke. [`Suite::check`] runs it inside
//! its own `catch_unwind`, so a panicking check fails alone, with its
//! panic message, and every later check still runs.

use rap_serve::{Client, Response, Server, ServerConfig, ServerHandle};
use serde::Serialize;
use std::net::SocketAddr;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Outcome of one named check.
#[derive(Debug, Serialize)]
pub struct Check {
    /// Stable check name (CI gates select on it).
    pub name: String,
    /// Whether the invariant held.
    pub passed: bool,
    /// What was verified (pass) or what broke (fail).
    pub detail: String,
}

/// Runs checks in call order and collects their outcomes.
#[derive(Debug, Default)]
pub struct Suite {
    checks: Vec<Check>,
}

impl Suite {
    /// Run `body` as the check `name`. A panic inside `body` records a
    /// failed check carrying the panic message.
    pub fn check(&mut self, name: &str, body: impl FnOnce() -> Result<String, String>) {
        let outcome = catch_unwind(AssertUnwindSafe(body)).unwrap_or_else(|payload| {
            let msg = payload
                .downcast_ref::<&str>()
                .map(ToString::to_string)
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic".into());
            Err(format!("check panicked: {msg}"))
        });
        let (passed, detail) = match outcome {
            Ok(detail) => (true, detail),
            Err(detail) => (false, detail),
        };
        self.checks.push(Check {
            name: name.to_string(),
            passed,
            detail,
        });
    }

    /// The outcomes in run order, and whether every check passed.
    #[must_use]
    pub fn finish(self) -> (Vec<Check>, bool) {
        let passed = self.checks.iter().all(|c| c.passed);
        (self.checks, passed)
    }
}

/// Fail the enclosing check with a formatted reason unless `cond` holds.
macro_rules! ensure {
    ($cond:expr, $($arg:tt)*) => {
        if !$cond {
            return Err(format!($($arg)*));
        }
    };
}
pub(crate) use ensure;

/// Start an in-process server (same code path as `rap serve`).
pub(crate) fn start_server(config: ServerConfig) -> Result<ServerHandle, String> {
    Server::bind(config)
        .and_then(Server::spawn)
        .map_err(|e| format!("in-process server: {e}"))
}

/// Connect a wire client to `addr` (10-second read timeout).
pub(crate) fn connect(addr: SocketAddr) -> Result<Client, String> {
    Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))
}

/// Send one request line and read its response; errors name the line.
pub(crate) fn roundtrip(client: &mut Client, line: &str) -> Result<Response, String> {
    client
        .roundtrip(line)
        .map_err(|e| format!("roundtrip `{line}`: {e}"))
}

/// A suite's serializable report.
pub trait Report: Serialize {
    /// The check outcomes, in run order.
    fn checks(&self) -> &[Check];

    /// Suite-specific totals for the summary line, e.g. `" (3 swaps)"`.
    fn summary(&self) -> String {
        String::new()
    }
}

/// Drive a suite from its bin: run it with the panic hook silenced
/// (injected panics are expected and caught), print the PASS/FAIL table,
/// and write `results/<file>` atomically.
///
/// # Errors
/// The report cannot be written, or a check failed.
pub fn drive<R: Report>(file: &str, run: impl FnOnce() -> R) -> Result<(), String> {
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let report = run();
    std::panic::set_hook(prev_hook);

    let checks = report.checks();
    let width = checks.iter().map(|c| c.name.len()).max().unwrap_or(0);
    for check in checks {
        let verdict = if check.passed { "PASS" } else { "FAIL" };
        println!("  {verdict} {:width$} {}", check.name, check.detail);
    }
    let passed = checks.iter().filter(|c| c.passed).count();
    println!(
        "\n{passed}/{} checks passed{}",
        checks.len(),
        report.summary()
    );

    crate::output::publish(file, &report)?;
    if passed == checks.len() {
        Ok(())
    } else {
        Err(format!("{} check(s) FAILED", checks.len() - passed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_panicking_check_fails_alone() {
        let mut suite = Suite::default();
        let mut ran = Vec::new();
        suite.check("first", || {
            ran.push(1);
            Ok("fine".into())
        });
        suite.check("second", || panic!("invariant broke at block 3"));
        suite.check("third", || {
            ran.push(3);
            Ok("still ran".into())
        });
        let (checks, passed) = suite.finish();
        assert!(!passed);
        assert_eq!(ran, [1, 3]);
        let names: Vec<_> = checks.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["first", "second", "third"]);
        assert!(checks[0].passed && checks[2].passed);
        assert!(!checks[1].passed);
        assert_eq!(
            checks[1].detail,
            "check panicked: invariant broke at block 3"
        );
    }
}
