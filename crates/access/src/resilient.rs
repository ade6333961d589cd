//! Crash-safe, fault-tolerant variants of the Monte-Carlo estimators.
//!
//! [`matrix_congestion_resilient`] and [`array4d_congestion_resilient`]
//! run **exactly the same block bodies** as their plain counterparts in
//! [`crate::montecarlo`], but through `rap-resilience`'s executor:
//!
//! * completed 32-trial blocks are recorded to a checkpoint [`Ledger`] as
//!   they finish, so a killed sweep resumes by re-executing only the gap —
//!   and, because the estimate is a fold of per-block accumulators in
//!   block-index order, the resumed result is **bit-identical** to an
//!   uninterrupted run;
//! * a panicking block (injected or real) is retried with bounded seeded
//!   backoff instead of taking the process down;
//! * a [`RunBudget`] caps wall time and block count, degrading to an
//!   explicitly-marked partial estimate instead of an empty results file.
//!
//! Clean runs (no faults, no budget hits, empty ledger) return the same
//! bits as the plain estimators — the conformance tests pin this.

use crate::array4d::Pattern4d;
use crate::matrix::MatrixPattern;
use crate::montecarlo::{array4d_block, block_range, blocks_for, matrix_block, Array4dScratch};
use rap_core::multidim::Scheme4d;
use rap_core::Scheme;
use rap_resilience::{run_cell, CellRun, Ledger, RetryPolicy, RunBudget};
use rap_stats::SeedDomain;

/// How a resilient estimator should execute: where to checkpoint, how
/// hard to retry, and when to give up.
#[derive(Debug)]
pub struct ResilientConfig<'a> {
    /// Checkpoint ledger (use [`Ledger::in_memory`] to opt out of disk).
    pub ledger: &'a Ledger,
    /// Wall-clock / block-count limits.
    pub budget: RunBudget,
    /// Panic/error retry policy.
    pub retry: RetryPolicy,
}

impl<'a> ResilientConfig<'a> {
    /// Unlimited budget, default retries, checkpointing to `ledger`.
    #[must_use]
    pub fn new(ledger: &'a Ledger) -> Self {
        Self {
            ledger,
            budget: RunBudget::unlimited(),
            retry: RetryPolicy::default(),
        }
    }
}

/// Resilient [`crate::montecarlo::matrix_congestion`]: same sample
/// streams, same merge order, plus checkpointing, retry, and budgets.
///
/// `cell` names this estimate in the ledger (it must be unique per
/// (scheme, pattern, width) within a run — the bench harness uses
/// `"<pattern>/<scheme>/w=<w>"`).
///
/// # Panics
/// Panics if `w == 0` or `trials == 0`.
#[must_use]
pub fn matrix_congestion_resilient(
    scheme: Scheme,
    pattern: MatrixPattern,
    w: usize,
    trials: u64,
    domain: &SeedDomain,
    cell: &str,
    cfg: &ResilientConfig<'_>,
) -> CellRun {
    assert!(trials > 0, "need at least one trial");
    let child = domain.child("matrix");
    run_cell(
        cell,
        blocks_for(trials),
        cfg.ledger,
        cfg.budget,
        &cfg.retry,
        |block| matrix_block(scheme, pattern, w, &child, block_range(block, trials)),
    )
}

/// Resilient [`crate::montecarlo::array4d_congestion`] (see
/// [`matrix_congestion_resilient`]).
///
/// # Panics
/// Panics if `w == 0`, `trials == 0`, or `warps_per_trial == 0`.
#[must_use]
#[allow(clippy::too_many_arguments)] // mirrors `array4d_congestion`'s surface plus (cell, cfg)
pub fn array4d_congestion_resilient(
    scheme: Scheme4d,
    pattern: Pattern4d,
    w: usize,
    trials: u64,
    warps_per_trial: u32,
    domain: &SeedDomain,
    cell: &str,
    cfg: &ResilientConfig<'_>,
) -> CellRun {
    assert!(
        trials > 0 && warps_per_trial > 0,
        "need at least one sample"
    );
    let child = domain.child("array4d");
    run_cell(
        cell,
        blocks_for(trials),
        cfg.ledger,
        cfg.budget,
        &cfg.retry,
        |block| {
            let range = block_range(block, trials);
            let s = &mut Array4dScratch::default();
            array4d_block(scheme, pattern, w, warps_per_trial, &child, range, s)
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::montecarlo::{array4d_congestion, matrix_congestion};
    use rap_resilience::{install, FailPlan, Fault, HitSchedule};
    use std::sync::Mutex;

    // The failpoint registry is process-global; serialize the tests that
    // install plans (mirrors rap-resilience's own test discipline).
    static TEST_LOCK: Mutex<()> = Mutex::new(());
    fn locked() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn domain() -> SeedDomain {
        SeedDomain::new(2014)
    }

    #[test]
    fn clean_resilient_matrix_run_is_bit_identical_to_plain() {
        let _l = locked();
        let d = domain();
        let ledger = Ledger::in_memory();
        let cfg = ResilientConfig::new(&ledger);
        for (scheme, pattern, w, trials) in [
            (Scheme::Ras, MatrixPattern::Random, 16, 100u64),
            (Scheme::Rap, MatrixPattern::Diagonal, 8, 33),
            (Scheme::Raw, MatrixPattern::Stride, 8, 32),
        ] {
            let plain = matrix_congestion(scheme, pattern, w, trials, &d);
            let res = matrix_congestion_resilient(scheme, pattern, w, trials, &d, "t", &cfg);
            assert_eq!(res.stats.to_raw(), plain.to_raw(), "{scheme} {pattern}");
            assert!(!res.report.degraded());
        }
    }

    #[test]
    fn clean_resilient_array4d_run_is_bit_identical_to_plain() {
        let _l = locked();
        let d = domain();
        let ledger = Ledger::in_memory();
        let cfg = ResilientConfig::new(&ledger);
        let plain = array4d_congestion(Scheme4d::R1P, Pattern4d::Random, 16, 70, 4, &d);
        let res = array4d_congestion_resilient(
            Scheme4d::R1P,
            Pattern4d::Random,
            16,
            70,
            4,
            &d,
            "t4",
            &cfg,
        );
        assert_eq!(res.stats.to_raw(), plain.to_raw());
        assert!(!res.report.degraded());
    }

    #[test]
    fn injected_block_panics_still_converge_to_the_plain_bits() {
        let _l = locked();
        let d = domain();
        let plain = matrix_congestion(Scheme::Ras, MatrixPattern::Random, 16, 100, &d);
        let _g = install(FailPlan::new(11).rule(
            "mc.block",
            Fault::Panic,
            HitSchedule::Rate { num: 1, den: 4 },
        ));
        let ledger = Ledger::in_memory();
        let mut cfg = ResilientConfig::new(&ledger);
        cfg.retry.max_retries = 10;
        cfg.retry.backoff_base = std::time::Duration::from_micros(10);
        let res =
            matrix_congestion_resilient(Scheme::Ras, MatrixPattern::Random, 16, 100, &d, "t", &cfg);
        assert!(!res.report.degraded(), "{:?}", res.report);
        assert!(res.report.retries > 0, "the fault plan should have fired");
        assert_eq!(res.stats.to_raw(), plain.to_raw());
    }

    #[test]
    fn block_cap_yields_a_marked_partial_estimate() {
        let _l = locked();
        let d = domain();
        let ledger = Ledger::in_memory();
        let cfg = ResilientConfig {
            ledger: &ledger,
            budget: RunBudget::unlimited().with_block_cap(1),
            retry: RetryPolicy::default(),
        };
        let res =
            matrix_congestion_resilient(Scheme::Ras, MatrixPattern::Random, 16, 100, &d, "t", &cfg);
        assert!(res.report.degraded());
        assert_eq!(res.report.skipped_cap, 3, "100 trials = 4 blocks, cap 1");
        // The surviving prefix is exactly the plain 32-trial estimate.
        let prefix = matrix_congestion(Scheme::Ras, MatrixPattern::Random, 16, 32, &d);
        assert_eq!(res.stats.to_raw(), prefix.to_raw());
    }
}
