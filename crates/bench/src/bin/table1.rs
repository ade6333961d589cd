//! Reproduce Table I: congestion classes of RAW / RAS / RAP, with an
//! empirical spot-check.
//!
//! Usage: `cargo run -p rap-bench --bin table1 --release [--width 32]
//! [--trials 200] [--seed 2014]`

use rap_bench::experiments::table1;
use rap_bench::table::{fmt2, TextTable};
use rap_bench::{output, CliArgs};

fn main() {
    rap_bench::exit_on_error("table1", run());
}

fn run() -> Result<(), String> {
    let args = CliArgs::from_env();
    let _failpoints = rap_bench::failpoints_from_env()?;
    let w = args.get_usize("width", 32)?;
    let trials = args.get_u64("trials", 200)?;
    let seed = args.get_u64("seed", 2014)?;

    println!("Table I — congestion classes of the RAW, RAS and RAP implementations");
    println!("(empirical check at w={w}, {trials} trials, seed {seed})\n");

    let cells = table1::run(w, trials, seed);
    let mut t = TextTable::new(["Access", "RAW", "RAS", "RAP"]);
    for row in ["Any", "Contiguous", "Stride"] {
        let mut line = vec![row.to_string()];
        for scheme in rap_core::Scheme::all() {
            let c = cells
                .iter()
                .find(|c| c.row == row && c.scheme == scheme)
                .expect("cell exists");
            line.push(format!("{} (≈{})", c.class.symbol(), fmt2(c.measured)));
        }
        t.row(line);
    }
    println!("{}", t.render());

    let record = table1::to_record(w, trials, seed, &cells);
    output::publish_record(&record)
}
