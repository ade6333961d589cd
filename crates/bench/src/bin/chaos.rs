//! Experiment CHAOS: run the fault-injection self-test suite and write
//! `results/chaos.json`. Exits non-zero if any resilience invariant
//! breaks under injected faults, so CI can gate on it.
//!
//! Usage: `cargo run -p rap-bench --bin chaos --release [--seed 2014]`

use rap_bench::experiments::chaos;
use rap_bench::{soak, CliArgs};

fn main() {
    rap_bench::exit_on_error("chaos", run());
}

fn run() -> Result<(), String> {
    let seed = CliArgs::from_env().get_u64("seed", 2014)?;
    println!("CHAOS — fault-injection self-test of the resilience stack (seed {seed})\n");
    let scratch = std::env::temp_dir().join(format!("rap-chaos-{}", std::process::id()));
    soak::drive("chaos.json", || {
        let report = chaos::run(&scratch, seed);
        let _ = std::fs::remove_dir_all(&scratch);
        report
    })
}
