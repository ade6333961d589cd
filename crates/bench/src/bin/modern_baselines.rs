//! Experiment A7: RAP vs the modern deterministic layouts (XOR swizzle,
//! +1 padding) — an extension beyond the paper situating RAP against
//! today's standard practice.
//!
//! Usage: `cargo run -p rap-bench --bin modern_baselines --release
//! [--width 32] [--trials 500] [--seed 2014]`

use rap_bench::experiments::modern;
use rap_bench::table::{fmt2, TextTable};
use rap_bench::{output, CliArgs};
use rap_core::Scheme;

fn main() {
    rap_bench::exit_on_error("modern_baselines", run());
}

fn run() -> Result<(), String> {
    let args = CliArgs::from_env();
    let _failpoints = rap_bench::failpoints_from_env()?;
    let w = args.get_usize("width", 32)?;
    let trials = args.get_u64("trials", 500)?;
    let seed = args.get_u64("seed", 2014)?;

    println!("A7 — RAP vs modern deterministic baselines (w={w}, {trials} trials)\n");

    let cells = modern::run(w, trials, seed);
    let rows = [
        "Contiguous congestion",
        "Stride congestion",
        "Diagonal congestion",
        "Random congestion",
        "blind adversary congestion",
        "CRSW transpose cycles",
        "storage overhead words",
        "stored random values",
    ];
    let mut header = vec!["metric".to_string()];
    header.extend(Scheme::extended().iter().map(|s| s.name().to_string()));
    let mut t = TextTable::new(header);
    for row in rows {
        let mut line = vec![row.to_string()];
        for scheme in Scheme::extended() {
            let c = cells
                .iter()
                .find(|c| c.row == row && c.scheme == scheme)
                .expect("cell exists");
            line.push(fmt2(c.stats.mean()));
        }
        t.row(line);
    }
    println!("{}", t.render());
    println!(
        "Reading: on the paper's fixed patterns, XOR swizzling and padding match\n\
         RAP for free — which is why they are today's default. The 'blind\n\
         adversary' row is RAP's surviving advantage: deterministic layouts are\n\
         public, so a worst-case (or unlucky data-dependent) pattern serializes\n\
         them completely, while RAP's secret σ caps the expectation at\n\
         balls-into-bins scale for every input. Padding also pays w-1 words of\n\
         shared memory per matrix.\n"
    );

    let record = modern::to_record(w, trials, seed, &cells);
    output::publish_record(&record)
}
