//! Experiment CONF: the extended differential-conformance sweep.
//!
//! Runs the full oracle suite at a multiple of the bounded-test budget
//! and writes `results/conformance.json`. Exits non-zero on any
//! divergence or shrink panic, so CI can gate on it.
//!
//! Usage: `cargo run -p rap-bench --bin conformance --release -- \
//!     [--multiplier 4] [--seed 2014]`

use rap_bench::{output, CliArgs};
use rap_conformance::{ConformanceReport, Harness};
use serde::Serialize;
use std::time::Instant;

/// What lands in `results/conformance.json`: the deterministic report
/// plus the run parameters and (non-deterministic) wall time, kept
/// outside the report itself so the report stays comparable across runs.
#[derive(Debug, Serialize)]
struct ConformanceArtifact {
    multiplier: u64,
    wall_seconds: f64,
    report: ConformanceReport,
}

fn main() {
    rap_bench::exit_on_error("conformance", run());
}

fn run() -> Result<(), String> {
    let args = CliArgs::from_env();
    let _failpoints = rap_bench::failpoints_from_env()?;
    let multiplier = args.get_u64("multiplier", 4)?;
    let seed = args.get_u64("seed", 2014)?;

    println!("CONF — differential conformance, extended sweep");
    println!("base seed {seed:#x}, budget multiplier {multiplier}\n");

    let start = Instant::now();
    let report = Harness::extended(multiplier).run(seed);
    let wall_seconds = start.elapsed().as_secs_f64();

    for oracle in &report.oracles {
        println!(
            "  {:36} {:>7} cases  {:>4} divergence(s)",
            oracle.name, oracle.cases, oracle.divergences
        );
    }
    println!("\n{} in {wall_seconds:.1}s", report.summary());
    for divergence in &report.divergences {
        println!("  {divergence}");
    }

    let clean = report.is_clean();
    let artifact = ConformanceArtifact {
        multiplier,
        wall_seconds,
        report,
    };
    output::publish("conformance.json", &artifact)?;

    if !clean {
        return Err("conformance sweep FAILED".into());
    }
    Ok(())
}
