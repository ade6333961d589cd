//! Correctness checks shared by the workloads.

use rap_access::montecarlo::matrix_congestion;
use rap_access::{CancelToken, MatrixPattern};
use rap_cluster::{Cluster, SweepCell};
use rap_core::Scheme;
use rap_resilience::Ledger;
use rap_serve::handler::{execute, Outcome};
use rap_serve::{Client, Command, Request};
use rap_stats::{OnlineStats, SeedDomain};
use serde::Value;
use std::net::SocketAddr;
use std::time::Duration;

/// Attempts and failures of one run, with the first failure messages.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted (requests, calls, sweeps, checks).
    pub attempted: u64,
    /// Operations that failed: shed, error, degraded, wrong answer or
    /// timeout.
    pub failed: u64,
    /// The first few failure messages.
    pub notes: Vec<String>,
}

impl Tally {
    /// Count one operation that succeeded when `ok`, failed otherwise.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 20 {
                self.notes.push(what());
            }
        }
    }

    /// Fold another tally into this one.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = 20usize.saturating_sub(self.notes.len());
        self.notes.extend(other.notes.into_iter().take(room));
    }
}

/// `v[path[0]][path[1]]…`.
#[must_use]
pub fn field<'a>(v: &'a Value, path: &[&str]) -> Option<&'a Value> {
    path.iter().try_fold(v, |v, key| {
        v.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    })
}

/// A JSON number as `f64`.
#[must_use]
pub fn as_f64(v: Option<&Value>) -> Option<f64> {
    match v? {
        Value::F64(x) => Some(*x),
        Value::U64(n) => Some(*n as f64),
        Value::I64(n) => Some(*n as f64),
        _ => None,
    }
}

/// A JSON payload as canonical text, so that values that crossed the
/// wire compare equal to values computed in-process.
#[must_use]
pub fn canonical(v: &Value) -> String {
    serde_json::to_string(v).unwrap_or_default()
}

/// What `handler::execute` answers for `cmd` in-process, with no
/// adaptive controller: the payload a served answer must equal.
#[must_use]
pub fn expected_payload(cmd: &Command) -> Option<String> {
    match execute(cmd, &CancelToken::never(), None) {
        Outcome::Ok(v) => Some(canonical(&v)),
        _ => None,
    }
}

/// Whether a served answer to `line` equals the in-process answer. An
/// adaptive `pattern` answer must equal the static answer for the
/// scheme it reports having served.
#[must_use]
pub fn served_answer_matches(line: &str, data: &Value) -> bool {
    let Ok(request) = Request::parse(line) else {
        return false;
    };
    let cmd = match request.cmd {
        Command::Pattern {
            pattern,
            scheme,
            width,
            trials,
            seed,
        } if scheme.eq_ignore_ascii_case("adaptive") => {
            let Some(Value::String(served)) = field(data, &["scheme"]) else {
                return false;
            };
            Command::Pattern {
                pattern,
                scheme: served.clone(),
                width,
                trials,
                seed,
            }
        }
        cmd => cmd,
    };
    expected_payload(&cmd).is_some_and(|want| want == canonical(data))
}

/// The fixed check cells: every Table II pattern under RAS and RAP at
/// w = 32, 64 trials, each with its own seed derived from `seed`.
fn check_cells(seed: u64) -> Vec<(MatrixPattern, Scheme, u64)> {
    let mut cells = Vec::new();
    for pattern in MatrixPattern::table2() {
        for scheme in [Scheme::Ras, Scheme::Rap] {
            let cell_seed = SeedDomain::new(seed)
                .child("cross-layer")
                .child_idx(cells.len() as u64)
                .seed()
                >> 12;
            cells.push((pattern, scheme, cell_seed));
        }
    }
    cells
}

const CHECK_WIDTH: usize = 32;
const CHECK_TRIALS: u64 = 64;

/// The cross-layer check: each check cell computed in-process by
/// `matrix_congestion`, over TCP by a `pattern` request to `addr`, and
/// merged by `Cluster::run_sweep` must agree bit for bit.
pub fn cross_layer(seed: u64, addr: SocketAddr, cluster: &Cluster, tally: &mut Tally) {
    let cells = check_cells(seed);
    let local: Vec<OnlineStats> = cells
        .iter()
        .map(|&(pattern, scheme, s)| {
            matrix_congestion(
                scheme,
                pattern,
                CHECK_WIDTH,
                CHECK_TRIALS,
                &SeedDomain::new(s),
            )
        })
        .collect();

    let mut client = Client::connect_with_timeout(addr, Duration::from_secs(10));
    for (&(pattern, scheme, s), want) in cells.iter().zip(&local) {
        let line = format!(
            r#"{{"cmd":"pattern","pattern":"{}","scheme":"{}","width":{CHECK_WIDTH},"trials":{CHECK_TRIALS},"seed":{s}}}"#,
            pattern.name().to_ascii_lowercase(),
            scheme.name().to_ascii_lowercase(),
        );
        let served = client
            .as_mut()
            .ok()
            .and_then(|c| c.roundtrip(&line).ok())
            .filter(|r| r.ok && !r.degraded)
            .and_then(|r| r.data);
        let same = served.as_ref().is_some_and(|d| {
            let bits = |key: &str| as_f64(field(d, &["stats", key])).map(f64::to_bits);
            bits("mean") == Some(want.mean().to_bits())
                && bits("min") == want.min().map(f64::to_bits)
                && bits("max") == want.max().map(f64::to_bits)
                && as_f64(field(d, &["stats", "count"])) == Some(want.count() as f64)
        });
        tally.check(same, || {
            format!("cross-layer: TCP pattern differs for {line}")
        });
    }

    let sweep_cells: Vec<SweepCell> = cells
        .iter()
        .map(|&(pattern, scheme, s)| {
            SweepCell::new(
                format!("{}/{}/{s}", pattern.name(), scheme.name()),
                pattern,
                scheme,
                CHECK_WIDTH,
                CHECK_TRIALS,
                &SeedDomain::new(s),
            )
        })
        .collect();
    let (merged, report) = cluster.run_sweep(&sweep_cells, &Ledger::in_memory());
    tally.check(!report.degraded, || {
        format!("cross-layer: cluster sweep degraded ({})", report.source)
    });
    for ((cell, got), want) in sweep_cells.iter().zip(&merged).zip(&local) {
        tally.check(got.to_raw() == want.to_raw(), || {
            format!("cross-layer: cluster merge differs for {}", cell.key)
        });
    }
}
