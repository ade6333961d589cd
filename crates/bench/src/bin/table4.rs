//! Reproduce Table IV: congestion of 4-D array access under the RAP
//! extensions, plus the stored-random-number accounting.
//!
//! Usage: `cargo run -p rap-bench --bin table4 --release [--width 32]
//! [--trials 300] [--seed 2014] [--checkpoint <path>|off] [--budget-ms N]
//! [--block-cap N] [--retries N]`
//!
//! Completed Monte-Carlo blocks are checkpointed to a ledger (default
//! `results/checkpoints/t4.ledger`), so a killed run resumes where it
//! stopped and still produces byte-identical final JSON.

use rap_access::resilient::ResilientConfig;
use rap_bench::experiments::table4::{self, class_reference, Table4Config};
use rap_bench::table::{fmt2, TextTable};
use rap_bench::{output, CliArgs, ResilienceArgs};
use rap_core::multidim::Scheme4d;

fn main() {
    rap_bench::exit_on_error("table4", run());
}

fn run() -> Result<(), String> {
    let args = CliArgs::from_env();
    let _failpoints = rap_bench::failpoints_from_env()?;
    let cfg = Table4Config {
        width: args.get_usize("width", 32)?,
        trials: args.get_u64("trials", 300)?,
        warps_per_trial: 8,
        seed: args.get_u64("seed", 2014)?,
    };

    println!(
        "Table IV — congestion for an array of size w⁴ (w={}, {} instances × {} warps)\n",
        cfg.width, cfg.trials, cfg.warps_per_trial
    );

    let rargs = ResilienceArgs::from_cli(&args, "t4.ledger")?;
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
    let (cells, report) = table4::run_resilient(&cfg, &rcfg);

    let mut header = vec!["Access".to_string()];
    header.extend(Scheme4d::all().iter().map(|s| s.name().to_string()));
    let mut t = TextTable::new(header);
    for pattern in rap_access::Pattern4d::table4() {
        let mut line = vec![pattern.name().to_string()];
        for scheme in Scheme4d::all() {
            let c = cells
                .iter()
                .find(|c| c.pattern == pattern && c.scheme == scheme)
                .expect("cell exists");
            line.push(format!(
                "{} [{}≈{}]",
                fmt2(c.stats.mean()),
                c.class.symbol(),
                fmt2(class_reference(c.class, cfg.width))
            ));
        }
        t.row(line);
    }
    // The paper's final row: stored random numbers.
    let mut line = vec!["Random numbers".to_string()];
    for scheme in Scheme4d::all() {
        line.push(scheme.random_number_count(cfg.width).to_string());
    }
    t.row(line);
    println!("{}", t.render());
    println!("[class ≈ numeric reference]: 1/w exact; Θ cells use the exact balls-into-bins expectation\n");

    let mut record = table4::to_record(&cfg, &cells);
    rap_bench::annotate_record(&mut record, &report);
    output::publish_record(&record)?;

    if report.degraded() {
        eprintln!(
            "table4: run degraded ({} failed, {} budget-skipped blocks); \
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
