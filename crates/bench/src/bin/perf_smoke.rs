//! Throughput gate and thread-scaling smoke test of the Monte-Carlo
//! engine. Times the Table-II-style sweep whose `w`, `trials_per_cell`
//! and `seed` come from `results/perf_baseline.json` at 1, 2, … threads,
//! best of 3 each, asserts that every run computes the identical
//! estimate (the checksum), and writes `results/perf_smoke.json`.
//!
//! * **Gate.** The best 1-thread rate must reach `min_ratio ×
//!   trials_per_second` of the baseline. Single-thread is the only rate
//!   comparable across runners with different core counts; the band
//!   absorbs runner variance, while losing the bit-parallel kernel or the
//!   fused mapping (3-5x) lands far outside it.
//! * **Scaling.** Samples with more threads than physical cores are
//!   flagged `unreliable` (SMT or timesharing); on hosts with at least
//!   two physical cores the best reliable speedup must reach 1.2.
//!
//! The report is always written; the bin then exits 1 if a check failed.
//! `--budget-ms` skips the thread counts above 1 that would start after
//! the deadline and marks the report `degraded`. `--update` rewrites the
//! baseline's `trials_per_second` from this run (on the machine class CI
//! runs on; then commit the file) and does not fail on the gate.
//!
//! Usage: `cargo run -p rap-bench --bin perf_smoke --release
//! [--baseline results/perf_baseline.json] [--budget-ms N] [--update]`

use rap_bench::perf::{self, Gate, PerfBaseline};
use rap_bench::{output, CliArgs};
use serde::Serialize;
use std::time::{Duration, Instant};

/// Repetitions per thread count; the best is scored.
const REPS: usize = 3;

/// The best of [`REPS`] sweeps at a fixed thread count.
#[derive(Debug, Serialize)]
struct ThreadSample {
    /// Worker threads used by the engine.
    threads: usize,
    /// Best wall time of the whole sweep in seconds.
    wall_seconds: f64,
    /// Monte-Carlo trials completed per second (all cells combined).
    trials_per_second: f64,
    /// Speedup over the 1-thread sweep.
    speedup: f64,
    /// True when `threads` exceeds the physical core count.
    unreliable: bool,
}

/// The report written to `results/perf_smoke.json`.
#[derive(Debug, Serialize)]
struct PerfSmokeReport {
    /// Experiment id (fixed: "perf_smoke").
    id: String,
    /// Sweep parameters, human readable.
    params: String,
    /// Matrix width of the sweep.
    w: usize,
    /// Trials per cell.
    trials_per_cell: u64,
    /// Number of (pattern, scheme) cells.
    cells: usize,
    /// Total trials across the sweep.
    total_trials: u64,
    /// Logical CPUs (SMT threads count separately).
    logical_cpus: usize,
    /// Physical cores (sysfs/cpuinfo topology; see `rap_bench::perf`).
    physical_cpus: usize,
    /// One entry per tested thread count.
    samples: Vec<ThreadSample>,
    /// Sum of all cell means, identical at every thread count and rep.
    mean_checksum: f64,
    /// The best 1-thread rate judged against the baseline.
    gate: Gate,
    /// "passed", "failed: …", or the reason the check was skipped.
    scaling_check: String,
    /// True when the wall budget cut the thread-count sweep short.
    degraded: bool,
    /// Human-readable notes about skipped thread counts.
    notes: Vec<String>,
}

fn main() {
    rap_bench::exit_on_error("perf_smoke", run());
}

fn run() -> Result<(), String> {
    let args = CliArgs::from_env();
    let _failpoints = rap_bench::failpoints_from_env()?;
    let path = args.get("baseline").unwrap_or("results/perf_baseline.json");
    let mut baseline: PerfBaseline = std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|text| serde_json::from_str(&text).map_err(|e| e.to_string()))
        .map_err(|e| format!("baseline {path}: {e}"))?;
    let (w, trials, seed) = (baseline.w, baseline.trials_per_cell, baseline.seed);
    if w == 0 || trials == 0 {
        return Err(format!(
            "baseline {path}: w and trials_per_cell must be at least 1"
        ));
    }
    // Reject a bad min_ratio before timing anything.
    perf::judge(baseline.trials_per_second, &baseline)?;
    let budget_ms = args.get_u64("budget-ms", 0)?;
    let deadline = (budget_ms > 0).then(|| Instant::now() + Duration::from_millis(budget_ms));

    let cells = perf::sweep_cells();
    let logical = perf::logical_cpus();
    let physical = perf::physical_cpus();
    println!(
        "perf_smoke — Table-II-style sweep, w={w}, {trials} trials/cell, {cells} cells, best of \
         {REPS}, {logical} logical / {physical} physical CPUs; baseline {:.0} trials/s ({})",
        baseline.trials_per_second, baseline.recorded_on
    );

    // Warm up (page in code, grow allocator arenas) before timing.
    let _ = perf::run_sweep(w, trials.min(100), seed);

    // Always time 2 threads even on a 1-core host: the run doubles as a
    // cross-thread-count determinism check (see the checksum assert).
    let mut thread_counts = vec![1, 2, (logical / 2).max(1), logical];
    thread_counts.sort_unstable();
    thread_counts.dedup();

    let mut samples: Vec<ThreadSample> = Vec::new();
    let mut notes = Vec::new();
    let mut checksum = None;
    for threads in thread_counts {
        // The 1-thread sample always runs: the gate needs it.
        if threads > 1 && deadline.is_some_and(|d| Instant::now() >= d) {
            notes.push(format!(
                "skipped threads={threads}: wall budget of {budget_ms} ms exhausted"
            ));
            continue;
        }
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .map_err(|e| format!("building {threads}-thread pool: {e}"))?;
        let mut best = f64::INFINITY;
        for _ in 0..REPS {
            let timing = pool.install(|| perf::run_sweep(w, trials, seed));
            // Engine contract: the estimate is bit-identical per thread
            // count and per run, so the checksum must be too.
            let c = *checksum.get_or_insert(timing.mean_checksum);
            assert!(
                c == timing.mean_checksum,
                "determinism violated at threads={threads}: {c} vs {}",
                timing.mean_checksum
            );
            best = best.min(timing.wall_seconds);
        }
        let sample = ThreadSample {
            threads,
            wall_seconds: best,
            trials_per_second: (trials * cells as u64) as f64 / best,
            speedup: samples.first().map_or(best, |s| s.wall_seconds) / best,
            unreliable: threads > physical,
        };
        println!(
            "  threads={threads:<3} wall={best:.3}s  {:.0} trials/s  speedup {:.2}x{}",
            sample.trials_per_second,
            sample.speedup,
            if sample.unreliable {
                "  (unreliable: oversubscribes physical cores)"
            } else {
                ""
            }
        );
        samples.push(sample);
    }
    for note in &notes {
        eprintln!("perf_smoke: {note}");
    }

    let gate = perf::judge(samples[0].trials_per_second, &baseline)?;
    println!(
        "gate: {:.0} trials/s = {:.2}x baseline (threshold {:.2}x) → {}",
        gate.measured,
        gate.ratio,
        gate.min_ratio,
        if gate.pass { "PASS" } else { "FAIL" }
    );

    // Scaling check: only meaningful where real parallel hardware exists
    // and the budget let a reliable multi-thread sample run.
    let best_reliable = samples
        .iter()
        .filter(|s| s.threads > 1 && !s.unreliable)
        .map(|s| s.speedup)
        .fold(f64::NEG_INFINITY, f64::max);
    let scaling_check = if physical < 2 {
        format!("skipped: {physical} physical core(s), speedups are timesharing noise")
    } else if best_reliable == f64::NEG_INFINITY {
        "skipped: no reliable multi-thread sample ran".to_string()
    } else if best_reliable >= 1.2 {
        "passed".to_string()
    } else {
        format!(
            "failed: best reliable multi-thread speedup {best_reliable:.2}x < 1.2x on \
             {physical} physical cores"
        )
    };
    println!("scaling check: {scaling_check}");

    let report = PerfSmokeReport {
        id: "perf_smoke".into(),
        params: format!("w={w} trials={trials} seed={seed} reps={REPS}"),
        w,
        trials_per_cell: trials,
        cells,
        total_trials: trials * cells as u64,
        logical_cpus: logical,
        physical_cpus: physical,
        samples,
        mean_checksum: checksum.unwrap_or(0.0),
        gate,
        scaling_check,
        degraded: !notes.is_empty(),
        notes,
    };
    output::publish("perf_smoke.json", &report)?;

    let mut failed = Vec::new();
    if args.flag("update") {
        baseline.trials_per_second = gate.measured;
        rap_resilience::write_json_atomic(std::path::Path::new(path), &baseline)
            .map_err(|e| format!("updating baseline: {e}"))?;
        println!("updated baseline {path}");
    } else if !gate.pass {
        failed.push("throughput gate");
    }
    if report.scaling_check.starts_with("failed") {
        failed.push("scaling check");
    }
    if failed.is_empty() {
        Ok(())
    } else {
        Err(format!("{} FAILED", failed.join(" and ")))
    }
}
