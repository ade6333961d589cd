//! Experiment ADAPT_CHAOS: soak the self-healing adaptive remapping
//! layer end to end — live servers, shifting traffic, epoch fault
//! storms, and kills mid-migration — and prove its three headline
//! guarantees each time:
//!
//! 1. **Swap under traffic shift** — an unfrozen adaptive server fed
//!    contiguous traffic stays put; shifting the storm to stride
//!    traffic (pathological for the initial `raw` layout) makes the
//!    controller propose, migrate, and commit a better scheme, after
//!    which the *measured* windowed stride congestion drops strictly
//!    below the old scheme's certified bound. The server's response
//!    conservation law holds throughout.
//! 2. **Epoch fault storm** — panics at `adapt.observe`/`adapt.propose`
//!    /`adapt.migrate`/`adapt.commit`, plus partial writes and delays
//!    inside epoch-ledger appends, while adaptive traffic keeps
//!    flowing. Every request is still answered (conservation), the
//!    controller never reaches an invalid phase, and the storm must
//!    actually bite (observed faults > 0) or the check fails as vacuous.
//! 3. **Kill mid-migration, resume byte-identical** — a server is
//!    killed while a forced migration is in flight; the restart rolls
//!    the interrupted epoch back and its adaptive answers are
//!    **byte-identical** to the static path on the rolled-back scheme.
//!    A second kill *after* a commit proves the committed epoch
//!    survives: the next restart answers byte-identically to the static
//!    path on the *new* scheme.
//!
//! With a `--server-bin` path the servers are real `rap serve --adapt`
//! processes on real sockets and the kills are genuine SIGKILLs (CI
//! does this); otherwise the same wire protocol runs against in-process
//! servers. The fault-storm check always runs in-process — failpoint
//! registries are per-process, so faults installed here cannot reach a
//! child.

use crate::soak::{connect, ensure, roundtrip, start_server, Check, Report, Suite};
use rap_access::MatrixPattern;
use rap_resilience::{install, FailPlan, Fault, HitSchedule};
use rap_serve::{AdaptOptions, Client, ServerConfig, ServerHandle};
use serde::{Serialize, Value};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::Child;

/// Soak parameters (see the module docs).
#[derive(Debug, Clone)]
pub struct AdaptChaosConfig {
    /// Root seed keying request seeds and fault schedules.
    pub seed: u64,
    /// Tile width of every adaptive server (16 keeps the stride
    /// pathology sharp: congestion = width under `raw`).
    pub width: usize,
    /// Requests per traffic phase in the swap and storm checks.
    pub requests: u64,
    /// Spawn real `rap serve --adapt` processes from this binary;
    /// `None` runs in-process servers over the same wire protocol.
    pub server_bin: Option<PathBuf>,
}

impl Default for AdaptChaosConfig {
    fn default() -> Self {
        AdaptChaosConfig {
            seed: 2014,
            width: 16,
            requests: 192,
            server_bin: None,
        }
    }
}

/// The full soak result, written to `results/adapt_chaos.json`.
#[derive(Debug, Serialize)]
pub struct AdaptChaosReport {
    /// Root seed.
    pub seed: u64,
    /// Tile width.
    pub width: u64,
    /// Whether servers were real processes (`rap serve --adapt`).
    pub process_servers: bool,
    /// Total requests driven across all checks.
    pub requests_driven: u64,
    /// Committed swaps observed across all checks.
    pub swaps_observed: u64,
    /// Epoch faults + rollbacks the storm check survived.
    pub faults_survived: u64,
    /// One entry per check.
    pub checks: Vec<Check>,
    /// True iff every check passed.
    pub passed: bool,
}

impl Report for AdaptChaosReport {
    fn checks(&self) -> &[Check] {
        &self.checks
    }

    fn summary(&self) -> String {
        format!(
            " ({} requests driven, {} swap(s) committed, {} fault(s) survived)",
            self.requests_driven, self.swaps_observed, self.faults_survived
        )
    }
}

/// One adaptive server under test — in-process or a spawned child.
/// Dropping it kills the server without draining: SIGKILL for a child
/// process; an immediate, joined shutdown for an in-process server.
/// Either way no epoch record is written after the drop.
enum AdaptServer {
    InProcess(Option<ServerHandle>, SocketAddr),
    Process(Child, SocketAddr),
}

impl AdaptServer {
    fn addr(&self) -> SocketAddr {
        match self {
            AdaptServer::InProcess(_, addr) | AdaptServer::Process(_, addr) => *addr,
        }
    }
}

impl Drop for AdaptServer {
    fn drop(&mut self) {
        match self {
            AdaptServer::InProcess(handle, _) => {
                if let Some(h) = handle.take() {
                    h.begin_shutdown();
                    let _ = h.join();
                }
            }
            AdaptServer::Process(child, _) => {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
    }
}

/// The adaptive controller settings every server in the soak runs:
/// initial `raw` (whose stride bound equals the width — the worst
/// certified candidate for the shifted storm), fast evaluation cadence,
/// and a short automatic migration.
fn adapt_config(cfg: &AdaptChaosConfig, frozen: bool) -> rap_adapt::AdaptConfig {
    rap_adapt::AdaptConfig {
        width: cfg.width,
        initial: "raw".to_string(),
        seed: cfg.seed,
        window: 64,
        eval_every: 8,
        min_samples: 8,
        migrate_steps: 4,
        start_frozen: frozen,
        ..rap_adapt::AdaptConfig::default()
    }
}

/// Start one adaptive server per the config's backend choice.
fn start_adaptive(
    cfg: &AdaptChaosConfig,
    ledger: Option<&std::path::Path>,
    frozen: bool,
) -> Result<AdaptServer, String> {
    match &cfg.server_bin {
        None => {
            let handle = start_server(ServerConfig {
                workers: 4,
                adapt: Some(AdaptOptions {
                    config: adapt_config(cfg, frozen),
                    ledger: ledger.map(std::path::Path::to_path_buf),
                }),
                ..ServerConfig::default()
            })?;
            let addr = handle.addr();
            Ok(AdaptServer::InProcess(Some(handle), addr))
        }
        Some(bin) => {
            let (width, seed) = (cfg.width.to_string(), cfg.seed.to_string());
            let mut args = vec![
                "--workers",
                "4",
                "--adapt",
                "--adapt-width",
                &width,
                "--adapt-initial",
                "raw",
                "--adapt-seed",
                &seed,
                "--adapt-window",
                "64",
                "--adapt-eval-every",
                "8",
                "--adapt-min-samples",
                "8",
                "--adapt-migrate-steps",
                "4",
            ];
            if frozen {
                args.push("--adapt-frozen");
            }
            let ledger = ledger.map(|path| path.display().to_string());
            if let Some(path) = &ledger {
                args.extend(["--adapt-ledger", path]);
            }
            let (child, addr) = rap_cluster::spawn_serve(bin, args)
                .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
            Ok(AdaptServer::Process(child, addr))
        }
    }
}

/// Parsed slice of an `adapt_status` payload the checks assert on.
struct Status {
    scheme: String,
    phase: String,
    swaps: u64,
    rollbacks: u64,
    observe_faults: u64,
    swap_faults: u64,
    resumed_records: u64,
    resumed_interrupted: bool,
    /// (windowed mean, active certified bound) for the stride class.
    stride: (f64, f64),
}

fn adapt_status(client: &mut Client) -> Result<Status, String> {
    let resp = roundtrip(client, r#"{"cmd":"adapt_status"}"#)?;
    ensure!(resp.ok, "adapt_status rejected: {resp:?}");
    let data = resp.data.as_ref().ok_or("adapt_status had no data")?;
    let stride = data
        .get("classes")
        .and_then(Value::as_array)
        .ok_or("classes is not an array")?
        .iter()
        .find(|c| c.get("class").and_then(Value::as_str) == Some("stride"))
        .ok_or("no stride class in status")?;
    let stride_f64 = |key: &str| stride.get(key).and_then(Value::as_f64);
    let get_u64 = |key: &str| {
        data.get(key)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("'{key}' is not a number in {resp:?}"))
    };
    let get_str = |key: &str| {
        data.get(key)
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("no {key} in status"))
    };
    Ok(Status {
        scheme: get_str("scheme")?,
        phase: get_str("phase")?,
        swaps: get_u64("swaps")?,
        rollbacks: get_u64("rollbacks")?,
        observe_faults: get_u64("observe_faults")?,
        swap_faults: get_u64("swap_faults")?,
        resumed_records: get_u64("resumed_records")?,
        resumed_interrupted: data
            .get("resumed_interrupted")
            .and_then(Value::as_bool)
            .unwrap_or(false),
        stride: (
            stride_f64("mean").unwrap_or(f64::NAN),
            stride_f64("bound").unwrap_or(f64::NAN),
        ),
    })
}

/// `received == completed_ok + degraded_served + errors_total`, read
/// from the server's own stats endpoint.
fn conservation_holds(client: &mut Client) -> Result<(), String> {
    let resp = roundtrip(client, r#"{"cmd":"stats"}"#)?;
    let data = resp.data.as_ref();
    let conserves = data.and_then(|d| d.get("conserves_responses")?.as_bool());
    ensure!(conserves == Some(true), "conservation broken: {data:?}");
    Ok(())
}

/// One `pattern` request line; `scheme` is `adaptive` or the static
/// scheme a byte-identity comparison references.
fn pattern_line(id: u64, pattern: &str, scheme: &str, width: usize, seed: u64) -> String {
    format!(
        r#"{{"cmd":"pattern","id":{id},"pattern":"{pattern}","scheme":"{scheme}","width":{width},"trials":2,"seed":{seed}}}"#
    )
}

/// Drive `n` adaptive requests of one pattern; every response must be
/// `ok` (the breaker never opens in these soaks). Returns requests sent.
fn drive(
    client: &mut Client,
    pattern: &str,
    n: u64,
    width: usize,
    seed: u64,
) -> Result<u64, String> {
    for i in 0..n {
        let resp = roundtrip(
            client,
            &pattern_line(i, pattern, "adaptive", width, seed ^ i),
        )?;
        ensure!(resp.ok, "adaptive {pattern} request {i} failed: {resp:?}");
    }
    Ok(n)
}

/// Check 1: contiguous traffic holds steady; a stride storm triggers a
/// certified swap; the measured stride congestion ends below the old
/// scheme's certified bound; conservation holds throughout.
fn swap_under_traffic_shift(cfg: &AdaptChaosConfig) -> Result<(String, u64, u64), String> {
    let server = start_adaptive(cfg, None, false)?;
    let mut client = connect(server.addr())?;
    let mut driven = 0u64;

    // Phase 1: contiguous traffic — congestion 1.0 under every scheme,
    // so no swap can pay off.
    driven += drive(
        &mut client,
        "contiguous",
        cfg.requests / 3,
        cfg.width,
        cfg.seed,
    )?;
    let calm = adapt_status(&mut client)?;
    ensure!(
        calm.swaps == 0 && calm.scheme == "raw",
        "calm contiguous traffic must not trigger a swap (swaps {}, scheme {})",
        calm.swaps,
        calm.scheme
    );
    // The old scheme's certified stride bound, straight from the active
    // candidate before anything shifts (raw: bound == width).
    let old_bound = calm.stride.1;
    ensure!(
        old_bound.is_finite() && old_bound >= cfg.width as f64,
        "raw's certified stride bound looks wrong: {old_bound}"
    );

    // Phase 2: the storm shifts to stride — pathological for raw.
    driven += drive(&mut client, "stride", cfg.requests, cfg.width, cfg.seed)?;
    let shifted = adapt_status(&mut client)?;
    ensure!(
        shifted.swaps != 0 && shifted.scheme != "raw",
        "the stride storm never triggered a swap (phase {}, scheme {}, mean {:.2})",
        shifted.phase,
        shifted.scheme,
        shifted.stride.0
    );

    // Phase 3: keep driving stride until the monitor window holds only
    // post-swap samples, then compare measured congestion to the OLD
    // certified bound — the observable "self-healing" claim.
    driven += drive(&mut client, "stride", 80, cfg.width, cfg.seed)?;
    let healed = adapt_status(&mut client)?;
    let measured = healed.stride.0;
    ensure!(
        measured.is_finite() && measured < old_bound,
        "measured stride congestion {measured:.2} did not drop below the old certified \
         bound {old_bound} (scheme {}, phase {})",
        healed.scheme,
        healed.phase
    );
    conservation_holds(&mut client)?;
    let detail = format!(
        "swap raw -> {} committed under a stride storm; measured congestion {measured:.2} \
         < old certified bound {old_bound} ({driven} requests, conservation holds)",
        healed.scheme
    );
    let swaps = healed.swaps;
    drop(server);
    Ok((detail, driven, swaps))
}

/// Check 2: epoch fault storm — always in-process (failpoints are
/// process-local). The server must answer everything, the controller
/// must end in a valid phase, and the storm must actually bite.
fn epoch_fault_storm(cfg: &AdaptChaosConfig) -> Result<(String, u64, u64), String> {
    let in_process = AdaptChaosConfig {
        server_bin: None,
        ..cfg.clone()
    };
    // The epoch sites fire only on transitions (evaluation every
    // `eval_every` observations; propose/migrate/commit rarer still),
    // so rates are aggressive — a 1/7 observe rate at mini scale sees
    // ~12 hits and can legitimately never fire. Rules stack per site:
    // some hits panic (the worker must isolate them — those leave no
    // counter), the rest inject ENOSPC (counted, so the storm's bite is
    // provable from `adapt_status`).
    let guard = install(
        FailPlan::new(cfg.seed)
            .rule(
                "adapt.observe",
                Fault::Panic,
                HitSchedule::Rate { num: 1, den: 7 },
            )
            .rule(
                "adapt.observe",
                Fault::Enospc,
                HitSchedule::Rate { num: 1, den: 3 },
            )
            .rule(
                "adapt.propose",
                Fault::Panic,
                HitSchedule::Rate { num: 1, den: 7 },
            )
            .rule(
                "adapt.propose",
                Fault::Enospc,
                HitSchedule::Rate { num: 1, den: 4 },
            )
            .rule(
                "adapt.migrate",
                Fault::Enospc,
                HitSchedule::Rate { num: 1, den: 3 },
            )
            .rule(
                "adapt.commit",
                Fault::Enospc,
                HitSchedule::Rate { num: 1, den: 4 },
            )
            .rule(
                "ledger.append",
                Fault::PartialWrite,
                HitSchedule::Rate { num: 1, den: 11 },
            )
            .rule(
                "ledger.append",
                Fault::Delay,
                HitSchedule::Rate { num: 1, den: 9 },
            ),
    );
    let result = (|| -> Result<(String, u64, u64), String> {
        let server = start_adaptive(&in_process, None, false)?;
        let mut client = connect(server.addr())?;
        let mut driven = 0u64;
        let mut status = adapt_status(&mut client)?;
        // Stride-heavy traffic keeps proposing swaps straight into the
        // fault storm; contiguous interludes vary the interleavings.
        // Keep storming past the base six rounds until a fault lands
        // (bounded) — a storm nothing survives proves nothing.
        for round in 0..24u64 {
            let pattern = if round % 3 == 2 {
                "contiguous"
            } else {
                "stride"
            };
            driven += drive(
                &mut client,
                pattern,
                cfg.requests / 6,
                cfg.width,
                cfg.seed ^ round,
            )?;
            status = adapt_status(&mut client)?;
            if round >= 5 && status.observe_faults + status.swap_faults + status.rollbacks > 0 {
                break;
            }
        }
        ensure!(
            matches!(status.phase.as_str(), "stable" | "proposed" | "migrating"),
            "invalid controller phase '{}'",
            status.phase
        );
        let faults = status.observe_faults + status.swap_faults + status.rollbacks;
        ensure!(
            faults != 0,
            "the fault storm never bit; the check proved nothing"
        );
        conservation_holds(&mut client)?;
        let detail = format!(
            "{driven} requests answered through {} observe fault(s), {} swap fault(s), \
             {} rollback(s); controller ended {} / {} (conservation holds)",
            status.observe_faults,
            status.swap_faults,
            status.rollbacks,
            status.scheme,
            status.phase
        );
        let swaps = status.swaps;
        drop(server);
        Ok((detail, driven, faults.max(swaps)))
    })();
    drop(guard);
    result
}

/// Every adaptive answer must re-serialize byte-identically to the
/// static path on `scheme`, over the same connection.
fn assert_adaptive_matches_static(
    client: &mut Client,
    scheme: &str,
    width: usize,
    seed: u64,
) -> Result<(), String> {
    for (i, pattern) in MatrixPattern::table2()
        .map(MatrixPattern::wire_name)
        .iter()
        .enumerate()
    {
        let id = 9_000 + i as u64;
        let adaptive = roundtrip(
            client,
            &pattern_line(id, pattern, "adaptive", width, seed ^ i as u64),
        )?;
        let reference = roundtrip(
            client,
            &pattern_line(id, pattern, scheme, width, seed ^ i as u64),
        )?;
        let (a, r) = (adaptive.to_line(), reference.to_line());
        ensure!(
            a == r,
            "adaptive '{pattern}' diverged from static '{scheme}':\n  adaptive:  {a}\n  \
             reference: {r}"
        );
    }
    Ok(())
}

/// Check 3: kill a server mid-migration; the restart must roll back to
/// the last committed epoch and answer byte-identically to the static
/// path on it. Kill again after a commit; the next restart must keep
/// the committed scheme, byte-identically.
fn kill_mid_migration_resume(cfg: &AdaptChaosConfig) -> Result<(String, u64, u64), String> {
    let dir = std::env::temp_dir().join(format!(
        "rap-adapt-chaos-{}-{}",
        cfg.seed,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("scratch dir: {e}"))?;
    let ledger = dir.join("epochs.jsonl");
    let mut driven = 0u64;

    // Server A: forced swap with a migration long enough that nothing
    // can commit it before the kill.
    let server = start_adaptive(cfg, Some(&ledger), true)?;
    let mut client = connect(server.addr())?;
    let forced = roundtrip(
        &mut client,
        r#"{"cmd":"adapt_force","target":"padded","steps":1000000}"#,
    )?;
    ensure!(forced.ok, "force failed: {forced:?}");
    driven += drive(&mut client, "stride", 3, cfg.width, cfg.seed)?;
    drop(client);
    drop(server); // mid-migration: Proposed+Migrating are on disk, no commit

    // Server B: resume must roll back to raw, bit-identically.
    let server = start_adaptive(cfg, Some(&ledger), true)?;
    let mut client = connect(server.addr())?;
    let resumed = adapt_status(&mut client)?;
    ensure!(
        resumed.resumed_interrupted && resumed.scheme == "raw" && resumed.phase == "stable",
        "expected a rolled-back resume to raw/stable, got {}/{} (interrupted {})",
        resumed.scheme,
        resumed.phase,
        resumed.resumed_interrupted
    );
    assert_adaptive_matches_static(&mut client, "raw", cfg.width, cfg.seed)?;
    driven += 2 * MatrixPattern::table2().len() as u64;
    let rollback_records = resumed.resumed_records;

    // Commit a swap for real this time, then kill post-commit.
    let forced = roundtrip(
        &mut client,
        r#"{"cmd":"adapt_force","target":"padded","steps":0}"#,
    )?;
    ensure!(forced.ok, "post-resume force failed: {forced:?}");
    drop(client);
    drop(server);

    // Server C: the committed epoch must survive the kill.
    let server = start_adaptive(cfg, Some(&ledger), true)?;
    let mut client = connect(server.addr())?;
    let committed = adapt_status(&mut client)?;
    ensure!(
        committed.scheme == "padded"
            && committed.phase == "stable"
            && !committed.resumed_interrupted,
        "expected the committed padded epoch to survive, got {}/{} (interrupted {})",
        committed.scheme,
        committed.phase,
        committed.resumed_interrupted
    );
    ensure!(
        committed.resumed_records != 0,
        "the final resume replayed no records; the ledger went missing"
    );
    assert_adaptive_matches_static(&mut client, "padded", cfg.width, cfg.seed)?;
    driven += 2 * MatrixPattern::table2().len() as u64;
    conservation_holds(&mut client)?;
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
    Ok((
        format!(
            "mid-migration kill rolled back to raw ({rollback_records} record(s) replayed) and a \
             post-commit kill kept padded ({} record(s)); both resumes byte-identical to the \
             static paths",
            committed.resumed_records
        ),
        driven,
        1,
    ))
}

/// Run the whole soak suite.
#[must_use]
pub fn run(cfg: &AdaptChaosConfig) -> AdaptChaosReport {
    let cfg = AdaptChaosConfig {
        width: cfg.width.clamp(4, 64),
        requests: cfg.requests.clamp(96, 1_000_000),
        ..cfg.clone()
    };
    let mut suite = Suite::default();
    let mut requests_driven = 0u64;
    let mut swaps_observed = 0u64;
    let mut faults_survived = 0u64;

    // Each check returns (detail, requests driven, swaps or faults seen).
    let mut tally = |counted: &mut u64, result: Result<(String, u64, u64), String>| {
        let (detail, driven, n) = result?;
        requests_driven += driven;
        *counted += n;
        Ok(detail)
    };
    suite.check("swap-under-traffic-shift", || {
        tally(&mut swaps_observed, swap_under_traffic_shift(&cfg))
    });
    suite.check("epoch-fault-storm-tolerated", || {
        tally(&mut faults_survived, epoch_fault_storm(&cfg))
    });
    suite.check("kill-mid-migration-resume-byte-identical", || {
        tally(&mut swaps_observed, kill_mid_migration_resume(&cfg))
    });

    let (checks, passed) = suite.finish();
    AdaptChaosReport {
        seed: cfg.seed,
        width: cfg.width as u64,
        process_servers: cfg.server_bin.is_some(),
        requests_driven,
        swaps_observed,
        faults_survived,
        checks,
        passed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature soak (fast enough for unit CI) must pass end to end.
    #[test]
    fn mini_adapt_soak_passes() {
        let _chaos = crate::experiments::chaos_test_guard();
        let report = run(&AdaptChaosConfig {
            seed: 11,
            width: 16,
            requests: 96,
            server_bin: None,
        });
        for c in &report.checks {
            assert!(c.passed, "{}: {}", c.name, c.detail);
        }
        assert!(report.passed);
        assert!(report.swaps_observed >= 1, "{report:?}");
        assert!(report.faults_survived >= 1, "{report:?}");
    }
}
