//! Experiment SYNTH: layout synthesis vs the static schemes.
//!
//! For every width on the synthesis ladder, builds the mixed reference
//! workload (rows, columns, a diagonal, a strided flat sweep), runs the
//! layout search in both modes (`sigma`: permutation shift tables, the
//! RAP constraint; `table`: free shift tables, the RAS family), gates
//! every certificate through the independent checker, and compares the
//! certified objective against the prover's certified worst-case bound
//! for each static scheme (RAW / RAS / RAP / Padded, XOR where the
//! width is a power of two).
//!
//! The gate: on every workload the synthesized layout's certified
//! worst-case congestion must be ≤ the best static scheme's certified
//! bound, and every certificate must be accepted by the checker. Exits
//! non-zero otherwise and writes `results/synthesize.json` either way.
//!
//! Usage: `cargo run -p rap-bench --bin synthesize --release`

use rap_bench::output;
use rap_core::Scheme;
use rap_synthesize::{check_certificate, synthesize, Mode, Workload};
use serde::Serialize;
use std::time::Instant;

/// Widths the synthesis sweep runs at: the exhaustive window (≤ 5 for σ,
/// ≤ 4 for tables), the branch-and-bound range, and two annealing widths
/// past it. Chosen to keep the release-mode sweep under a minute.
const SYNTH_WIDTHS: &[usize] = &[2, 3, 4, 5, 8, 12, 16, 24, 32, 48, 64];

/// One (width, mode) synthesis run compared against the static schemes.
#[derive(Debug, Serialize)]
struct SynthRow {
    width: usize,
    mode: String,
    method: String,
    optimal: bool,
    explored: u64,
    /// Certified objective of the synthesized layout.
    synthesized: u32,
    /// `(scheme, certified worst-case congestion)` per static baseline.
    baselines: Vec<(String, u32)>,
    /// Min over the baselines — the bound synthesis must not exceed.
    best_static: u32,
    checker_accepted: bool,
    gate_ok: bool,
}

/// What lands in `results/synthesize.json`.
#[derive(Debug, Serialize)]
struct SynthArtifact {
    widths: Vec<usize>,
    workload: String,
    rows: Vec<SynthRow>,
    gates_passed: usize,
    gates_total: usize,
    wall_seconds: f64,
    ok: bool,
}

fn main() {
    rap_bench::exit_on_error("synthesize", run());
}

/// The prover's certified worst-case bound for the workload under one
/// static scheme: the max over plans of the certified `hi`.
fn baseline_bound(workload: &Workload, scheme: Scheme) -> Result<u32, String> {
    let prover = rap_analyze::Prover::new(workload.width).map_err(|e| e.to_string())?;
    let mut hi = 0u32;
    for plan in &workload.plans {
        let analysis = prover
            .analyze(&plan.warp, scheme)
            .map_err(|e| format!("plan `{}` under {scheme}: {e}", plan.name))?;
        hi = hi.max(analysis.hi);
    }
    Ok(hi)
}

fn run() -> Result<(), String> {
    println!("SYNTH — layout synthesis vs the static schemes");
    let _failpoints = rap_bench::failpoints_from_env()?;
    let start = Instant::now();

    let mut rows = Vec::new();
    for &w in SYNTH_WIDTHS {
        let workload = Workload::mixed(w);

        let mut baselines = Vec::new();
        for scheme in [Scheme::Raw, Scheme::Ras, Scheme::Rap, Scheme::Padded] {
            baselines.push((scheme.to_string(), baseline_bound(&workload, scheme)?));
        }
        if w.is_power_of_two() {
            baselines.push((
                Scheme::Xor.to_string(),
                baseline_bound(&workload, Scheme::Xor)?,
            ));
        }
        let best_static = baselines
            .iter()
            .map(|&(_, hi)| hi)
            .min()
            .ok_or("no baselines")?;

        for mode in [Mode::Sigma, Mode::Table] {
            let synthesis = synthesize(&workload, mode, 2014)?;
            let cert = &synthesis.certificate;
            let checker_accepted = match check_certificate(cert) {
                Ok(()) => true,
                Err(e) => {
                    eprintln!("  w = {w} {mode}: checker REJECTED the certificate: {e}");
                    false
                }
            };
            let gate_ok = checker_accepted && cert.objective <= best_static;
            println!(
                "  w = {:>3} {:5}: synthesized {} via {} ({}){}  best static {}  [{}]",
                w,
                mode.as_str(),
                cert.objective,
                cert.method,
                synthesis.explored,
                if cert.optimal { " optimal" } else { "" },
                best_static,
                if gate_ok { "ok" } else { "GATE FAILED" },
            );
            rows.push(SynthRow {
                width: w,
                mode: mode.as_str().into(),
                method: cert.method.clone(),
                optimal: cert.optimal,
                explored: synthesis.explored,
                synthesized: cert.objective,
                baselines: baselines.clone(),
                best_static,
                checker_accepted,
                gate_ok,
            });
        }
    }

    let gates_total = rows.len();
    let gates_passed = rows.iter().filter(|r| r.gate_ok).count();
    let ok = gates_passed == gates_total;
    let wall_seconds = start.elapsed().as_secs_f64();
    println!("\n{gates_passed}/{gates_total} gates passed, {wall_seconds:.2}s");

    let artifact = SynthArtifact {
        widths: SYNTH_WIDTHS.to_vec(),
        workload: "mixed (rows, columns, diagonal, strided flat)".into(),
        rows,
        gates_passed,
        gates_total,
        wall_seconds,
        ok,
    };
    output::publish("synthesize.json", &artifact)?;

    if !ok {
        return Err("synthesis gate FAILED: a synthesized layout exceeded \
                    the best static scheme's certified bound"
            .into());
    }
    Ok(())
}
