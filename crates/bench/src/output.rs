//! JSON output of experiment records — atomic, durable, relocatable.
//!
//! Each bench binary writes its [`ExperimentRecord`] into the results
//! directory so EXPERIMENTS.md can be cross-checked against
//! machine-readable data. Two robustness guarantees:
//!
//! * every write goes through [`rap_resilience::write_atomic`] (temp
//!   sibling + fsync + rename), so a crash mid-write can never leave a
//!   torn `results/*.json` — the file holds the complete old or the
//!   complete new document;
//! * the directory is overridable: see [`results_dir`] for the
//!   precedence order.

use rap_stats::ExperimentRecord;
use std::path::{Path, PathBuf};

/// The directory experiment JSON lands in, resolved with this precedence:
///
/// 1. `RAP_RESULTS_DIR` — used verbatim (created on first write). This is
///    how CI isolates runs and how kill/resume tests compare outputs;
/// 2. `CARGO_MANIFEST_DIR/../../results` — the workspace `results/` when
///    a binary is invoked through `cargo run -p rap-bench`;
/// 3. `./results` — the current directory, for a bare binary.
///
/// The `CARGO_MANIFEST_DIR` heuristic only works for crates two levels
/// below the workspace root (all of `crates/*` are); `RAP_RESULTS_DIR`
/// is the escape hatch when it guesses wrong.
#[must_use]
pub fn results_dir() -> PathBuf {
    if let Some(dir) = std::env::var_os("RAP_RESULTS_DIR") {
        if !dir.is_empty() {
            return PathBuf::from(dir);
        }
    }
    default_root().join("results")
}

/// The default output *root* (the directory containing `results/`): the
/// workspace directory if invoked via cargo, else the current directory.
/// Prefer [`results_dir`], which also honours `RAP_RESULTS_DIR`.
#[must_use]
pub fn default_root() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from("."), |d| PathBuf::from(d).join("../.."))
}

/// The checkpoint-ledger directory for resumable sweeps, kept next to
/// the results they protect.
#[must_use]
pub fn checkpoints_dir() -> PathBuf {
    results_dir().join("checkpoints")
}

/// Atomically serialize `record` to `<dir>/<id>.json` (directory created
/// if missing). Returns the written path.
///
/// # Errors
/// Propagates I/O and serialization errors, with the path in the message.
pub fn write_record_to(dir: &Path, record: &ExperimentRecord) -> std::io::Result<PathBuf> {
    let path = dir.join(format!("{}.json", record.id.to_lowercase()));
    rap_resilience::write_json_atomic(&path, record)?;
    Ok(path)
}

/// Atomically write `value` to `<results_dir()>/<file>` and print where
/// it went — the last step of every bench binary.
///
/// # Errors
/// The write failed.
pub fn publish(file: &str, value: &impl serde::Serialize) -> Result<(), String> {
    let path = results_dir().join(file);
    rap_resilience::write_json_atomic(&path, value).map_err(|e| format!("writing results: {e}"))?;
    println!("wrote {}", path.display());
    Ok(())
}

/// [`publish`] an experiment record as `<id>.json`.
///
/// # Errors
/// The write failed.
pub fn publish_record(record: &ExperimentRecord) -> Result<(), String> {
    publish(&format!("{}.json", record.id.to_lowercase()), record)
}

/// Read a record back (used by tests and tooling).
///
/// # Errors
/// Propagates I/O and deserialization errors.
pub fn read_record(path: &Path) -> std::io::Result<ExperimentRecord> {
    let data = std::fs::read_to_string(path)
        .map_err(|e| std::io::Error::new(e.kind(), format!("reading {}: {e}", path.display())))?;
    serde_json::from_str(&data).map_err(|e| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("parsing {}: {e}", path.display()),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rap_stats::CellSummary;

    #[test]
    fn roundtrip_through_disk() {
        let mut record = ExperimentRecord::new("TX", "test", "p=1");
        record.push(CellSummary::exact("r", "c", 1.5, Some(1.0)));
        let tmp = std::env::temp_dir().join(format!("rap-bench-test-{}", std::process::id()));
        let path = write_record_to(&tmp.join("results"), &record).unwrap();
        assert!(path.ends_with("results/tx.json"));
        let back = read_record(&path).unwrap();
        assert_eq!(back, record);
        std::fs::remove_dir_all(&tmp).ok();
    }

    #[test]
    fn write_record_to_uses_the_directory_verbatim() {
        let mut record = ExperimentRecord::new("TY", "test", "p=1");
        record.push(CellSummary::exact("r", "c", 2.5, None));
        let dir = std::env::temp_dir().join(format!("rap-bench-direct-{}", std::process::id()));
        let path = write_record_to(&dir, &record).unwrap();
        assert_eq!(path, dir.join("ty.json"));
        assert_eq!(read_record(&path).unwrap(), record);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn results_dir_honours_the_env_override() {
        // Serialized via the single-threaded assertion below: this test is
        // the only one in the crate touching RAP_RESULTS_DIR.
        std::env::set_var("RAP_RESULTS_DIR", "/tmp/rap-override");
        assert_eq!(results_dir(), PathBuf::from("/tmp/rap-override"));
        assert_eq!(
            checkpoints_dir(),
            PathBuf::from("/tmp/rap-override/checkpoints")
        );
        std::env::set_var("RAP_RESULTS_DIR", "");
        let fallback = results_dir();
        assert!(fallback.ends_with("results"), "{}", fallback.display());
        std::env::remove_var("RAP_RESULTS_DIR");
        assert_eq!(results_dir(), fallback);
    }

    #[test]
    fn read_record_errors_name_the_path() {
        let missing = Path::new("/nonexistent/rap/results/zz.json");
        let err = read_record(missing).unwrap_err();
        assert!(err.to_string().contains("zz.json"), "{err}");
    }
}
