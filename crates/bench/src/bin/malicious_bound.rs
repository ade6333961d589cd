//! Experiment A1: adversarial congestion vs Theorem 2's bound.
//!
//! Usage: `cargo run -p rap-bench --bin malicious_bound --release
//! [--trials 400] [--seed 2014]`

use rap_bench::experiments::malicious;
use rap_bench::table::{fmt2, TextTable};
use rap_bench::{output, CliArgs};

fn main() {
    rap_bench::exit_on_error("malicious_bound", run());
}

fn run() -> Result<(), String> {
    let args = CliArgs::from_env();
    let _failpoints = rap_bench::failpoints_from_env()?;
    let trials = args.get_u64("trials", 400)?;
    let seed = args.get_u64("seed", 2014)?;
    let widths = [16usize, 32, 64, 128, 256];

    println!("A1 — malicious access vs the RAP guarantee (trials={trials}, seed={seed})");
    println!("anti-RAW = all threads aim at one RAW bank (a column access)\n");

    let rows = malicious::run(&widths, trials, seed);
    let mut t = TextTable::new([
        "w",
        "anti-RAW vs RAW",
        "anti-RAW vs RAS",
        "anti-RAW vs RAP",
        "blind diag vs RAP",
        "σ-aware vs RAP",
        "Theorem 2 bound",
    ]);
    for r in &rows {
        t.row([
            r.w.to_string(),
            fmt2(r.anti_raw_vs_raw),
            fmt2(r.anti_raw_vs_ras.mean()),
            fmt2(r.anti_raw_vs_rap),
            fmt2(r.blind_vs_rap.mean()),
            fmt2(r.aware_vs_rap),
            fmt2(r.theorem2_bound),
        ]);
    }
    println!("{}", t.render());
    println!(
        "Reading: RAP collapses the same-bank attack to 1; the best blind attack \
         stays at balls-into-bins scale, far below Theorem 2's bound; only an \
         adversary who knows σ recovers the full-w worst case.\n"
    );

    let record = malicious::to_record(trials, seed, &rows);
    output::publish_record(&record)
}
