//! Experiment A4: offline permutation — direct vs graph-coloring vs RAP.
//!
//! Usage: `cargo run -p rap-bench --bin permutation --release
//! [--width 32] [--latency 8] [--instances 15] [--seed 2014]`

use rap_bench::experiments::permutation::{self, PermFamily};
use rap_bench::table::{fmt2, TextTable};
use rap_bench::{output, CliArgs};
use rap_permute::Strategy;

fn main() {
    rap_bench::exit_on_error("permutation", run());
}

fn run() -> Result<(), String> {
    let args = CliArgs::from_env();
    let _failpoints = rap_bench::failpoints_from_env()?;
    let w = args.get_usize("width", 32)?;
    let latency = args.get_u64("latency", 8)?;
    let instances = args.get_u64("instances", 15)?;
    let seed = args.get_u64("seed", 2014)?;

    println!(
        "A4 — offline permutation of w² = {} words on the DMM (w={w}, l={latency})",
        w * w
    );
    println!("Direct = one thread per word; ConflictFree = Kasagi-Nakano-Ito edge coloring;");
    println!("RAP = direct over permute-shifted arrays (no offline analysis)\n");

    let cells = permutation::run(w, latency, instances, seed);
    let mut t = TextTable::new([
        "Permutation",
        "Direct cycles",
        "Colored cycles",
        "RAP cycles",
        "Direct maxC",
        "RAP maxC",
    ]);
    for family in PermFamily::all() {
        let get = |s: Strategy| {
            cells
                .iter()
                .find(|c| c.family == family && c.strategy == s)
                .expect("cell exists")
        };
        t.row([
            family.name().to_string(),
            fmt2(get(Strategy::Direct).cycles.mean()),
            fmt2(get(Strategy::ConflictFree).cycles.mean()),
            fmt2(get(Strategy::Rap).cycles.mean()),
            fmt2(get(Strategy::Direct).max_congestion.mean()),
            fmt2(get(Strategy::Rap).max_congestion.mean()),
        ]);
    }
    println!("{}", t.render());
    println!(
        "The coloring is optimal everywhere but needs an offline O(E log k) schedule;\n\
         RAP stays within a small factor of it with zero analysis — the paper's point.\n"
    );

    let record = permutation::to_record(w, latency, seed, &cells);
    output::publish_record(&record)
}
