//! Experiment CHAOS: fault-injection self-test of the resilience stack.
//!
//! Each check injects a fault through the [`rap_resilience`] failpoint
//! registry and asserts the stack's headline guarantees hold anyway:
//! atomic result files never tear, panic-retried Monte-Carlo runs stay
//! bit-identical, budget cuts are explicitly marked, an interrupted
//! Table II sweep resumes to byte-identical JSON, and the conformance
//! harness reaches the same verdicts under injected panics.
//!
//! Checks run sequentially (the failpoint registry is process-global)
//! through [`crate::soak::Suite`], so a broken invariant reports a failed
//! check instead of killing the suite.

use crate::experiments::table2::{self, Table2Config};
use crate::output;
use crate::soak::{ensure, Check, Report, Suite};
use rap_access::montecarlo::matrix_congestion;
use rap_access::resilient::{matrix_congestion_resilient, ResilientConfig};
use rap_access::MatrixPattern;
use rap_conformance::{AnalyzePath, Harness, IsolationPolicy, KernelOracle, ScheduleOracle};
use rap_core::Scheme;
use rap_resilience::{
    failpoint, install, write_atomic, FailPlan, Fault, HitSchedule, Ledger, RetryPolicy, RunBudget,
    SyncPolicy,
};
use rap_stats::SeedDomain;
use serde::Serialize;
use std::path::Path;

/// The full suite result, written to `results/chaos.json`.
#[derive(Debug, Serialize)]
pub struct ChaosReport {
    /// Root seed of the fault schedules and Monte-Carlo runs.
    pub seed: u64,
    /// One entry per check.
    pub checks: Vec<Check>,
    /// True iff every check passed.
    pub passed: bool,
}

impl Report for ChaosReport {
    fn checks(&self) -> &[Check] {
        &self.checks
    }
}

/// Run every chaos check, using `scratch` for this suite's files.
///
/// The caller owns `scratch`; the suite recreates it empty.
pub fn run(scratch: &Path, seed: u64) -> ChaosReport {
    let _ = std::fs::remove_dir_all(scratch);
    let mut suite = Suite::default();
    suite.check("durable-writes-survive-faults", || {
        durable_survives_faults(&scratch.join("durable"), seed)
    });
    suite.check("panic-retry-is-bit-identical", || {
        panic_retry_bit_identity(seed)
    });
    suite.check("budget-cut-is-marked-degraded", || {
        budget_degrades_explicitly(seed)
    });
    suite.check("kill-resume-json-is-byte-identical", || {
        kill_resume_byte_identity(&scratch.join("t2"), seed)
    });
    suite.check("conformance-verdicts-survive-panics", || {
        conformance_equal_under_chaos(seed)
    });
    let (checks, passed) = suite.finish();
    ChaosReport {
        seed,
        checks,
        passed,
    }
}

/// ENOSPC at every durable stage — and a torn write — must leave the
/// previously committed file intact, with no temp-file litter.
fn durable_survives_faults(dir: &Path, seed: u64) -> Result<String, String> {
    let path = dir.join("record.json");
    let old = b"{\"generation\": 1}";
    let new = b"{\"generation\": 2, \"longer\": true}";
    let io = |e: std::io::Error| format!("scratch setup: {e}");
    write_atomic(&path, old).map_err(io)?;

    let faults = [
        ("durable.create_dir", Fault::Enospc),
        ("durable.open", Fault::Enospc),
        ("durable.write", Fault::Enospc),
        ("durable.sync", Fault::Enospc),
        ("durable.rename", Fault::Enospc),
        ("durable.write", Fault::PartialWrite),
    ];
    for (site, fault) in faults {
        let guard = install(FailPlan::new(seed).rule(site, fault, HitSchedule::Always));
        let result = write_atomic(&path, new);
        drop(guard);
        ensure!(
            result.is_err(),
            "{fault:?} at {site} was swallowed instead of reported"
        );
        let content = std::fs::read(&path).map_err(io)?;
        ensure!(
            content == old,
            "{fault:?} at {site} corrupted the committed file"
        );
        let litter = std::fs::read_dir(dir)
            .map_err(io)?
            .filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().contains("tmp"))
            .count();
        ensure!(
            litter == 0,
            "{fault:?} at {site} left {litter} temp file(s)"
        );
    }
    // With no plan installed the write must go through.
    write_atomic(&path, new).map_err(io)?;
    ensure!(
        std::fs::read(&path).map_err(io)? == new,
        "clean write after the fault storm did not commit"
    );
    Ok("6 fault injections, zero torn or lost files".into())
}

/// Panics injected into `mc.block` are retried and the final estimate is
/// bit-identical to the fault-free run.
fn panic_retry_bit_identity(seed: u64) -> Result<String, String> {
    let domain = SeedDomain::new(seed).child("chaos-panic");
    let trials = 256;
    let plain = matrix_congestion(Scheme::Rap, MatrixPattern::Stride, 32, trials, &domain);

    let ledger = Ledger::in_memory();
    let cfg = ResilientConfig {
        ledger: &ledger,
        budget: RunBudget::unlimited(),
        retry: RetryPolicy {
            max_retries: 6,
            ..RetryPolicy::default()
        },
    };
    let guard = install(FailPlan::new(seed).rule(
        "mc.block",
        Fault::Panic,
        HitSchedule::Rate { num: 1, den: 3 },
    ));
    let run = matrix_congestion_resilient(
        Scheme::Rap,
        MatrixPattern::Stride,
        32,
        trials,
        &domain,
        "chaos/stride/rap",
        &cfg,
    );
    drop(guard);

    ensure!(run.report.retries > 0, "the fault plan never fired");
    ensure!(
        !run.report.degraded(),
        "retries were exhausted: {:?}",
        run.report
    );
    ensure!(
        run.stats.to_raw() == plain.to_raw(),
        "estimate diverged after panic retries: {} vs {}",
        run.stats.mean(),
        plain.mean()
    );
    Ok(format!(
        "{} block panic(s) retried; estimate bit-identical",
        run.report.retries
    ))
}

/// A block cap cuts the run short but the result says so: `degraded` is
/// set and the surviving prefix is exactly the plain low blocks.
fn budget_degrades_explicitly(seed: u64) -> Result<String, String> {
    let domain = SeedDomain::new(seed).child("chaos-budget");
    let ledger = Ledger::in_memory();
    let cfg = ResilientConfig {
        ledger: &ledger,
        budget: RunBudget::unlimited().with_block_cap(1),
        retry: RetryPolicy::default(),
    };
    let run = matrix_congestion_resilient(
        Scheme::Rap,
        MatrixPattern::Random,
        32,
        128,
        &domain,
        "chaos/random/rap",
        &cfg,
    );
    ensure!(
        run.report.degraded(),
        "a capped run must be marked degraded"
    );
    ensure!(
        run.report.skipped_cap == 3,
        "expected 3 capped blocks, got {}",
        run.report.skipped_cap
    );
    // The surviving prefix is exactly block 0, i.e. a plain 32-trial run.
    let prefix = matrix_congestion(Scheme::Rap, MatrixPattern::Random, 32, 32, &domain);
    ensure!(
        run.stats.to_raw() == prefix.to_raw(),
        "surviving prefix is not the plain first block"
    );
    ensure!(
        !run.report.notes.is_empty(),
        "degradation must leave a human-readable note"
    );
    Ok(format!(
        "cap honoured: {} of 4 blocks ran, degraded=true, note recorded",
        4 - run.report.skipped_cap
    ))
}

/// An interrupted Table II sweep, resumed from its checkpoint ledger,
/// writes byte-identical final JSON to an uninterrupted run.
fn kill_resume_byte_identity(dir: &Path, seed: u64) -> Result<String, String> {
    let io = |e: std::io::Error| format!("scratch I/O: {e}");
    let cfg = Table2Config {
        widths: vec![8, 16],
        base_trials: 64,
        seed,
    };

    // The uninterrupted reference.
    let clean = table2::to_record(&cfg, &table2::run(&cfg));
    let clean_path = output::write_record_to(&dir.join("clean"), &clean).map_err(io)?;

    // First attempt: a block cap plays the role of `kill -9` mid-sweep,
    // leaving a partially filled ledger behind.
    let ledger_path = dir.join("t2.ledger");
    let ledger = Ledger::open(&ledger_path, cfg.fingerprint(), SyncPolicy::Flush).map_err(io)?;
    let (_, first) = table2::run_resilient(
        &cfg,
        &ResilientConfig {
            ledger: &ledger,
            budget: RunBudget::unlimited().with_block_cap(2),
            retry: RetryPolicy::default(),
        },
    );
    ensure!(first.degraded(), "the interrupted run must be degraded");
    ensure!(
        first.completed > 0,
        "the interrupted run checkpointed nothing"
    );
    drop(ledger);

    // The resumed run: reopen the ledger, finish the sweep.
    let ledger = Ledger::open(&ledger_path, cfg.fingerprint(), SyncPolicy::Flush).map_err(io)?;
    ensure!(
        ledger.resumed_entries() > 0,
        "no blocks were recovered from the ledger"
    );
    let (cells, resumed) = table2::run_resilient(
        &cfg,
        &ResilientConfig {
            ledger: &ledger,
            budget: RunBudget::unlimited(),
            retry: RetryPolicy::default(),
        },
    );
    ensure!(!resumed.degraded(), "the resumed run must finish cleanly");
    ensure!(
        resumed.from_checkpoint > 0,
        "the resumed run re-ran everything instead of resuming"
    );
    let mut record = table2::to_record(&cfg, &cells);
    crate::annotate_record(&mut record, &resumed);
    let resumed_path = output::write_record_to(&dir.join("resumed"), &record).map_err(io)?;

    let clean_bytes = std::fs::read(&clean_path).map_err(io)?;
    let resumed_bytes = std::fs::read(&resumed_path).map_err(io)?;
    ensure!(
        clean_bytes == resumed_bytes,
        "resumed JSON differs from the uninterrupted run ({} vs {} bytes)",
        resumed_bytes.len(),
        clean_bytes.len()
    );
    Ok(format!(
        "{} checkpointed block(s) reused; {} bytes of JSON byte-identical",
        resumed.from_checkpoint,
        clean_bytes.len()
    ))
}

/// The conformance harness reaches identical verdicts when a failpoint
/// panics inside its case loop.
fn conformance_equal_under_chaos(seed: u64) -> Result<String, String> {
    let build = || {
        let mut h = Harness::new();
        h.push(
            Box::new(KernelOracle::new(
                "congestion:analyze-vs-naive",
                AnalyzePath,
            )),
            60,
        );
        h.push(Box::new(ScheduleOracle), 15);
        h
    };
    let plain = build().run(seed);

    let guard = install(FailPlan::new(seed).rule("conf.case", Fault::Panic, HitSchedule::Every(7)));
    let isolated = build().run_isolated(
        seed,
        |_, _| {
            // Only Panic is planned for this site, so fire() either
            // panics (the injected fault) or is a no-op.
            failpoint::fire("conf.case").expect("panic is the only planned fault");
        },
        &IsolationPolicy::default(),
    );
    drop(guard);

    ensure!(isolated.caught_panics > 0, "the fault plan never fired");
    ensure!(
        isolated.lost_cases == 0,
        "{} case(s) were lost to injected panics",
        isolated.lost_cases
    );
    ensure!(
        isolated.report == plain,
        "verdicts changed under chaos: {} vs {}",
        isolated.report.summary(),
        plain.summary()
    );
    Ok(format!(
        "{} injected panic(s); all {} cases re-reached the fault-free verdicts",
        isolated.caught_panics, plain.cases_run
    ))
}
