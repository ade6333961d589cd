//! # rap-bench — the experiment harness
//!
//! Reproduces every table of the RAP paper plus the ablations indexed in
//! DESIGN.md:
//!
//! | id | binary | paper artifact |
//! |---|---|---|
//! | T1 | `table1` | Table I — congestion classes |
//! | T2 | `table2` | Table II — congestion simulation |
//! | T3 | `table3` | Table III — transpose timing on (simulated) GTX TITAN |
//! | T4 | `table4` | Table IV — 4-D extensions |
//! | A1 | `malicious_bound` | abstract claim + Theorem 2 bound |
//! | A2 | `lemma1` | Lemma 1 closed forms |
//! | A3 | `ablation` | SM-model robustness |
//!
//! Each binary prints the paper's value next to ours and writes
//! `results/<id>.json`. Criterion micro-benchmarks live in `benches/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod output;
pub mod paper;
pub mod perf;
pub mod soak;
pub mod table;

/// Parse `--key value` style options from `std::env::args`, with defaults.
/// A `--key` followed by another `--…`, or by nothing, is a boolean flag
/// (read it with [`CliArgs::flag`]).
#[derive(Debug, Clone, Default)]
pub struct CliArgs {
    opts: std::collections::HashMap<String, String>,
}

impl CliArgs {
    /// Parse the process arguments.
    #[must_use]
    pub fn from_env() -> Self {
        Self::parse_args(std::env::args().skip(1))
    }

    /// Parse an explicit argument list (for tests).
    pub fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Self {
        let mut opts = std::collections::HashMap::new();
        let mut iter = args.into_iter().peekable();
        while let Some(arg) = iter.next() {
            if let Some(key) = arg.strip_prefix("--") {
                let value = iter
                    .next_if(|v| !v.starts_with("--"))
                    .unwrap_or_else(|| "true".into());
                opts.insert(key.to_string(), value);
            }
        }
        Self { opts }
    }

    /// Look up a raw string option.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&str> {
        self.opts.get(key).map(String::as_str)
    }

    /// True when the boolean flag `--key` was given (and not set to
    /// `false`, `0` or `no`).
    #[must_use]
    pub fn flag(&self, key: &str) -> bool {
        self.get(key)
            .is_some_and(|v| v != "false" && v != "0" && v != "no")
    }

    /// Look up a numeric option with a default; a malformed value is an
    /// error naming the option.
    pub fn get_u64(&self, key: &str, default: u64) -> Result<u64, String> {
        self.number(key, default)
    }

    /// Look up a usize option with a default, like [`CliArgs::get_u64`].
    pub fn get_usize(&self, key: &str, default: usize) -> Result<usize, String> {
        self.number(key, default)
    }

    fn number<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key}: expected a number, got '{v}'")),
        }
    }
}

/// The resilience options shared by the resumable bench binaries
/// (`table2`, `table4`): where to checkpoint, how long to run, how hard
/// to retry.
///
/// Flags:
/// * `--checkpoint <path|off>` — ledger location; `off` disables disk
///   checkpointing; default is `<results>/checkpoints/<name>` (which
///   honours `RAP_RESULTS_DIR`);
/// * `--budget-ms <n>` — wall-clock deadline (0 or absent = unlimited);
/// * `--block-cap <n>` — max 32-trial blocks per cell (0 = unlimited);
/// * `--retries <n>` — retry attempts per panicking/failing block.
#[derive(Debug)]
pub struct ResilienceArgs {
    /// Ledger path; `None` means checkpointing is off (in-memory).
    pub checkpoint: Option<std::path::PathBuf>,
    /// Wall/block budget.
    pub budget: rap_resilience::RunBudget,
    /// Per-block retry policy.
    pub retry: rap_resilience::RetryPolicy,
}

impl ResilienceArgs {
    /// Parse from CLI options, defaulting the ledger to
    /// `<results>/checkpoints/<default_ledger_name>`.
    pub fn from_cli(args: &CliArgs, default_ledger_name: &str) -> Result<Self, String> {
        let checkpoint = match args.get("checkpoint") {
            Some("off") => None,
            Some(path) => Some(std::path::PathBuf::from(path)),
            None => Some(output::checkpoints_dir().join(default_ledger_name)),
        };
        let mut budget = rap_resilience::RunBudget::unlimited();
        let ms = args.get_u64("budget-ms", 0)?;
        if ms > 0 {
            budget = budget.with_wall_limit(std::time::Duration::from_millis(ms));
        }
        let cap = args.get_u64("block-cap", 0)?;
        if cap > 0 {
            budget = budget.with_block_cap(cap);
        }
        let retry = rap_resilience::RetryPolicy {
            max_retries: u32::try_from(args.get_u64("retries", 2)?).unwrap_or(u32::MAX),
            ..rap_resilience::RetryPolicy::default()
        };
        Ok(Self {
            checkpoint,
            budget,
            retry,
        })
    }

    /// Open the configured ledger for a run with this `fingerprint`
    /// (fsync-per-entry — bench checkpoints must survive `kill -9`), or
    /// an in-memory ledger when checkpointing is off.
    ///
    /// # Errors
    /// Propagates ledger I/O errors.
    pub fn open_ledger(&self, fingerprint: u64) -> std::io::Result<rap_resilience::Ledger> {
        match &self.checkpoint {
            None => Ok(rap_resilience::Ledger::in_memory()),
            Some(path) => rap_resilience::Ledger::open(
                path,
                fingerprint,
                rap_resilience::SyncPolicy::EveryEntry,
            ),
        }
    }
}

/// A bin's `main`: on `Err`, print it prefixed with the bin name and
/// exit 1.
pub fn exit_on_error(bin: &str, result: Result<(), String>) {
    if let Err(err) = result {
        eprintln!("{bin}: {err}");
        std::process::exit(1);
    }
}

/// Install the failpoint plan named by `RAP_FAILPOINTS`, if set.
///
/// Every bench binary calls this first thing, so chaos drills work on
/// the real binaries without recompiling: the returned guard must stay
/// alive for the whole run. Unset (or empty) is a no-op.
///
/// # Errors
/// A malformed spec is a loud, contextual error — a typo'd chaos drill
/// must not silently run clean.
pub fn failpoints_from_env() -> Result<Option<rap_resilience::FailpointGuard>, String> {
    rap_resilience::install_from_env().map_err(|e| format!("RAP_FAILPOINTS: {e}"))
}

/// Fold a sweep's [`rap_resilience::BlockReport`] into its record: set
/// the degraded flag when blocks were lost or skipped and carry the
/// notes. Clean reports add nothing, so clean records stay
/// byte-comparable across runs (including resumed ones).
pub fn annotate_record(
    record: &mut rap_stats::ExperimentRecord,
    report: &rap_resilience::BlockReport,
) {
    if report.degraded() {
        record.degraded = true;
    }
    record.notes.extend(report.notes.iter().cloned());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cli_args_parse_pairs() {
        let a = CliArgs::parse_args(["--trials", "500", "--seed", "9"].map(String::from));
        assert_eq!(a.get_u64("trials", 1), Ok(500));
        assert_eq!(a.get_u64("seed", 1), Ok(9));
        assert_eq!(a.get_u64("missing", 7), Ok(7));
        assert_eq!(a.get_usize("trials", 1), Ok(500));
    }

    #[test]
    fn cli_args_bare_flags_do_not_swallow_options() {
        let a = CliArgs::parse_args(["--update", "--budget-ms", "5"].map(String::from));
        assert!(a.flag("update"));
        assert_eq!(a.get_u64("budget-ms", 0), Ok(5));
        assert!(!a.flag("missing"));

        let trailing = CliArgs::parse_args(["--budget-ms", "5", "--update"].map(String::from));
        assert!(trailing.flag("update"));
        assert_eq!(trailing.get_u64("budget-ms", 0), Ok(5));
        assert!(!CliArgs::parse_args(["--update", "no"].map(String::from)).flag("update"));
    }

    #[test]
    fn cli_args_reject_malformed_numbers() {
        let a = CliArgs::parse_args(["--trials", "2k", "stray"].map(String::from));
        assert_eq!(
            a.get_u64("trials", 3),
            Err("--trials: expected a number, got '2k'".to_string())
        );
        assert!(a.get_usize("trials", 3).is_err());
        let bad = CliArgs::parse_args(["--retries", "-1"].map(String::from));
        let err = ResilienceArgs::from_cli(&bad, "t2.ledger").unwrap_err();
        assert!(err.contains("--retries"), "{err}");
    }

    #[test]
    fn resilience_args_parse_the_full_surface() {
        let a = CliArgs::parse_args(
            [
                "--checkpoint",
                "/tmp/x.ledger",
                "--budget-ms",
                "250",
                "--block-cap",
                "4",
                "--retries",
                "7",
            ]
            .map(String::from),
        );
        let r = ResilienceArgs::from_cli(&a, "t2.ledger").unwrap();
        assert_eq!(
            r.checkpoint.as_deref(),
            Some(std::path::Path::new("/tmp/x.ledger"))
        );
        assert_eq!(
            r.budget.wall_limit,
            Some(std::time::Duration::from_millis(250))
        );
        assert_eq!(r.budget.block_cap, Some(4));
        assert_eq!(r.retry.max_retries, 7);

        let off = ResilienceArgs::from_cli(
            &CliArgs::parse_args(["--checkpoint", "off"].map(String::from)),
            "t2.ledger",
        )
        .unwrap();
        assert_eq!(off.checkpoint, None);
        assert_eq!(off.budget.wall_limit, None);
        assert_eq!(off.budget.block_cap, None);

        let default = ResilienceArgs::from_cli(&CliArgs::default(), "t2.ledger").unwrap();
        let path = default.checkpoint.expect("checkpointing on by default");
        assert!(
            path.ends_with("checkpoints/t2.ledger"),
            "{}",
            path.display()
        );
    }

    #[test]
    fn annotate_record_carries_degradation_and_notes() {
        let mut record = rap_stats::ExperimentRecord::new("TX", "d", "p");
        let clean = rap_resilience::BlockReport::default();
        annotate_record(&mut record, &clean);
        assert!(!record.degraded);
        assert!(
            record.notes.is_empty(),
            "clean reports must not perturb records"
        );

        let report = rap_resilience::BlockReport {
            total_blocks: 4,
            completed: 3,
            failed: 1,
            notes: vec!["block c#2 failed".into()],
            ..rap_resilience::BlockReport::default()
        };
        annotate_record(&mut record, &report);
        assert!(record.degraded);
        assert_eq!(record.notes, vec!["block c#2 failed".to_string()]);
    }
}
