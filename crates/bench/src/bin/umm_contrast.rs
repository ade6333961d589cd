//! Experiment A6: DMM vs UMM — bank conflicts vs coalescing.
//!
//! Usage: `cargo run -p rap-bench --bin umm_contrast --release
//! [--width 32] [--latency 8]`

use rap_bench::experiments::umm;
use rap_bench::table::TextTable;
use rap_bench::{output, CliArgs};

fn main() {
    rap_bench::exit_on_error("umm_contrast", run());
}

fn run() -> Result<(), String> {
    let args = CliArgs::from_env();
    let _failpoints = rap_bench::failpoints_from_env()?;
    let w = args.get_usize("width", 32)?;
    let latency = args.get_u64("latency", 8)?;

    println!("A6 — the same RAW kernels on the DMM (shared memory) and the UMM (global memory)");
    println!(
        "DMM cost = bank conflicts; UMM cost = distinct rows (coalescing). w={w}, l={latency}\n"
    );

    let rows = umm::run(w, latency);
    let mut t = TextTable::new(["Workload", "DMM cycles", "UMM cycles"]);
    for r in &rows {
        t.row([r.label.clone(), r.dmm.to_string(), r.umm.to_string()]);
    }
    println!("{}", t.render());
    println!(
        "Diagonal access splits the models: conflict-free on the DMM, fully\n\
         serialized on the UMM — which is why DRDW, the hand-tuned shared-memory\n\
         transpose, must not be used on global memory, and why the paper studies\n\
         the two models separately.\n"
    );

    let record = umm::to_record(w, latency, &rows);
    output::publish_record(&record)
}
