//! The machinery of the `perf_smoke` bin: hardware-topology detection,
//! the fixed Table-II-style timing sweep, and the throughput gate against
//! the committed baseline (`results/perf_baseline.json`), which also
//! fixes the sweep's parameters. `perfbench` reuses the topology
//! detectors for its host fingerprint.
//!
//! Trustworthy scaling numbers need to know the difference between
//! **logical** CPUs (what `available_parallelism` reports — SMT threads
//! included) and **physical** cores: a "2x speedup at 2 threads" on one
//! physical core is timesharing noise, not parallel scaling. The
//! detectors here read the Linux CPU topology (sysfs, then
//! `/proc/cpuinfo`) and fall back to the logical count when neither is
//! readable, so callers can flag oversubscribed samples instead of
//! reporting them as scaling.

use rap_access::montecarlo::matrix_congestion;
use rap_access::MatrixPattern;
use rap_core::Scheme;
use rap_stats::SeedDomain;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::time::Instant;

/// Logical CPUs visible to this process (SMT threads count separately).
#[must_use]
pub fn logical_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Physical cores, best effort: unique `(package, core)` pairs from the
/// sysfs CPU topology, then `/proc/cpuinfo`, then the logical count when
/// neither source is readable (non-Linux hosts, restricted containers).
/// Always at least 1 and never more than [`logical_cpus`].
#[must_use]
pub fn physical_cpus() -> usize {
    let detected = sysfs_physical().or_else(cpuinfo_physical);
    detected
        .unwrap_or_else(logical_cpus)
        .clamp(1, logical_cpus())
}

/// Unique `(physical_package_id, core_id)` pairs from
/// `/sys/devices/system/cpu/cpu*/topology/`.
fn sysfs_physical() -> Option<usize> {
    let entries = std::fs::read_dir("/sys/devices/system/cpu").ok()?;
    let mut pairs = HashSet::new();
    for entry in entries.flatten() {
        let name = entry.file_name();
        let name = name.to_str()?;
        let digits = name.strip_prefix("cpu")?;
        if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
            continue;
        }
        let topology = entry.path().join("topology");
        let core = std::fs::read_to_string(topology.join("core_id")).ok();
        let package = std::fs::read_to_string(topology.join("physical_package_id")).ok();
        if let (Some(core), Some(package)) = (core, package) {
            pairs.insert((package.trim().to_string(), core.trim().to_string()));
        }
    }
    (!pairs.is_empty()).then_some(pairs.len())
}

/// Unique `(physical id, core id)` pairs from `/proc/cpuinfo` blocks.
fn cpuinfo_physical() -> Option<usize> {
    let text = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    let mut pairs = HashSet::new();
    let (mut package, mut core) = (None, None);
    for line in text.lines() {
        if line.trim().is_empty() {
            if let (Some(p), Some(c)) = (package.take(), core.take()) {
                pairs.insert((p, c));
            }
            continue;
        }
        let Some((key, value)) = line.split_once(':') else {
            continue;
        };
        match key.trim() {
            "physical id" => package = Some(value.trim().to_string()),
            "core id" => core = Some(value.trim().to_string()),
            _ => {}
        }
    }
    if let (Some(p), Some(c)) = (package, core) {
        pairs.insert((p, c));
    }
    (!pairs.is_empty()).then_some(pairs.len())
}

/// Number of `(pattern, scheme)` cells in the fixed sweep.
#[must_use]
pub fn sweep_cells() -> usize {
    MatrixPattern::table2().len() * Scheme::all().len()
}

/// One timed run of the fixed sweep.
#[derive(Debug, Clone, Copy)]
pub struct SweepTiming {
    /// Wall time of the whole sweep in seconds.
    pub wall_seconds: f64,
    /// Sum of all cell means — the determinism checksum (bit-identical
    /// across thread counts and runs with the same parameters).
    pub mean_checksum: f64,
}

/// Time the fixed Table-II-style sweep (every Table II pattern × scheme
/// at width `w`, `trials` Monte-Carlo trials per cell) on the current
/// rayon pool.
#[must_use]
pub fn run_sweep(w: usize, trials: u64, seed: u64) -> SweepTiming {
    let domain = SeedDomain::new(seed).child("perf_smoke");
    let start = Instant::now();
    let mut checksum = 0.0;
    for pattern in MatrixPattern::table2() {
        for scheme in Scheme::all() {
            let cell_domain = domain.child(pattern.name()).child(scheme.name());
            let stats = matrix_congestion(scheme, pattern, w, trials, &cell_domain);
            checksum += stats.mean();
        }
    }
    SweepTiming {
        wall_seconds: start.elapsed().as_secs_f64(),
        mean_checksum: checksum,
    }
}

/// The committed reference point of the throughput gate
/// (`results/perf_baseline.json`): the sweep `perf_smoke` times, and the
/// single-thread rate its best 1-thread sample is judged against.
#[derive(Debug, Serialize, Deserialize)]
pub struct PerfBaseline {
    /// Matrix width of the sweep.
    pub w: usize,
    /// Trials per cell.
    pub trials_per_cell: u64,
    /// Root seed.
    pub seed: u64,
    /// Single-thread trials/sec the baseline machine sustained.
    pub trials_per_second: f64,
    /// Failure threshold: measured/baseline below this ratio fails.
    pub min_ratio: f64,
    /// Where the baseline was recorded (human readable).
    pub recorded_on: String,
}

/// The throughput gate's verdict.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct Gate {
    /// Best single-thread trials/sec of this run.
    pub measured: f64,
    /// The baseline's single-thread trials/sec.
    pub baseline: f64,
    /// `measured / baseline`.
    pub ratio: f64,
    /// The failure threshold from the baseline file.
    pub min_ratio: f64,
    /// True when `ratio >= min_ratio`.
    pub pass: bool,
}

/// Judge a measured best single-thread rate against `baseline`.
///
/// # Errors
/// The baseline's `min_ratio` is outside `(0, 1]`.
pub fn judge(measured: f64, baseline: &PerfBaseline) -> Result<Gate, String> {
    let min_ratio = baseline.min_ratio;
    if !(min_ratio > 0.0 && min_ratio <= 1.0) {
        return Err(format!("baseline min_ratio {min_ratio} must be in (0, 1]"));
    }
    let ratio = measured / baseline.trials_per_second;
    Ok(Gate {
        measured,
        baseline: baseline.trials_per_second,
        ratio,
        min_ratio,
        pass: ratio >= min_ratio,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_counts_are_sane() {
        let logical = logical_cpus();
        let physical = physical_cpus();
        assert!(logical >= 1);
        assert!((1..=logical).contains(&physical));
    }

    #[test]
    fn sweep_checksum_is_deterministic() {
        let a = run_sweep(8, 40, 7);
        let b = run_sweep(8, 40, 7);
        assert_eq!(a.mean_checksum, b.mean_checksum);
    }

    #[test]
    fn gate_passes_at_the_floor_and_rejects_a_bad_min_ratio() {
        let baseline = |min_ratio| PerfBaseline {
            w: 32,
            trials_per_cell: 2000,
            seed: 2014,
            trials_per_second: 312_000.0,
            min_ratio,
            recorded_on: String::new(),
        };
        let at_floor = judge(156_000.0, &baseline(0.5)).unwrap();
        assert!(at_floor.pass && at_floor.ratio == 0.5, "{at_floor:?}");
        assert!(!judge(155_999.0, &baseline(0.5)).unwrap().pass);
        assert!(judge(312_000.0, &baseline(1.0)).unwrap().pass);
        for bad in [0.0, -0.5, 1.01, f64::NAN] {
            let err = judge(1e6, &baseline(bad)).unwrap_err();
            assert!(err.contains("min_ratio"), "{bad}: {err}");
        }
    }
}
