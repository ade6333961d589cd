//! Reproduce Table II: expected congestion of matrix access patterns.
//!
//! Usage: `cargo run -p rap-bench --bin table2 --release [--trials 2000]
//! [--seed 2014] [--checkpoint <path>|off] [--budget-ms N] [--block-cap N]
//! [--retries N]`
//!
//! The sweep checkpoints completed Monte-Carlo blocks to a ledger
//! (default `results/checkpoints/t2.ledger`), so a killed run resumes
//! where it stopped and still produces byte-identical final JSON.

use rap_access::resilient::ResilientConfig;
use rap_bench::experiments::table2::{self, Table2Config};
use rap_bench::table::{fmt2, TextTable};
use rap_bench::{output, CliArgs, ResilienceArgs};
use rap_core::Scheme;

fn main() {
    rap_bench::exit_on_error("table2", run());
}

fn run() -> Result<(), String> {
    let args = CliArgs::from_env();
    let _failpoints = rap_bench::failpoints_from_env()?;
    let mut cfg = Table2Config {
        base_trials: args.get_u64("trials", 2000)?,
        seed: args.get_u64("seed", 2014)?,
        ..Table2Config::default()
    };
    // --wmax extends the sweep beyond the paper's 256 ("the value of w
    // may be increased in future GPUs", paper §V).
    let wmax = args.get_usize("wmax", 256)?;
    let mut w = 512;
    while w <= wmax {
        cfg.widths.push(w);
        w *= 2;
    }

    println!("Table II — congestion of memory access to a w×w matrix");
    println!(
        "(Monte-Carlo, {} trials at w=32 scaled by 32/w, seed {})\n",
        cfg.base_trials, cfg.seed
    );

    let rargs = ResilienceArgs::from_cli(&args, "t2.ledger")?;
    let ledger = rargs
        .open_ledger(cfg.fingerprint())
        .map_err(|e| format!("opening checkpoint ledger: {e}"))?;
    if ledger.resumed_entries() > 0 {
        println!(
            "resuming: {} completed block(s) recovered from the checkpoint ledger\n",
            ledger.resumed_entries()
        );
    }
    let rcfg = ResilientConfig {
        ledger: &ledger,
        budget: rargs.budget,
        retry: rargs.retry,
    };
    let (cells, report) = table2::run_resilient(&cfg, &rcfg);

    for scheme in Scheme::all() {
        println!("{scheme} implementation (paper value in parentheses):");
        let mut header = vec!["w".to_string()];
        header.extend(cfg.widths.iter().map(ToString::to_string));
        let mut t = TextTable::new(header);
        for pattern in rap_access::MatrixPattern::table2() {
            let mut line = vec![pattern.name().to_string()];
            for &w in &cfg.widths {
                let c = cells
                    .iter()
                    .find(|c| c.pattern == pattern && c.scheme == scheme && c.w == w)
                    .expect("cell exists");
                let paper = c.paper.map_or_else(|| "-".into(), fmt2);
                line.push(format!("{} ({paper})", fmt2(c.stats.mean())));
            }
            t.row(line);
        }
        println!("{}", t.render());
    }

    let mut record = table2::to_record(&cfg, &cells);
    rap_bench::annotate_record(&mut record, &report);
    if let Some(worst) = record.worst_relative_error() {
        println!(
            "worst relative deviation from the paper: {:.2}%",
            worst * 100.0
        );
    }
    output::publish_record(&record)?;

    if report.degraded() {
        eprintln!(
            "table2: run degraded ({} failed, {} budget-skipped blocks); \
             keeping the checkpoint ledger so a rerun can finish the sweep",
            report.failed,
            report.skipped_wall + report.skipped_cap
        );
    } else {
        ledger
            .remove_file()
            .map_err(|e| format!("removing completed checkpoint ledger: {e}"))?;
    }
    Ok(())
}
