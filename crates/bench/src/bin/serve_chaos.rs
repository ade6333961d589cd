//! Experiment SERVE_CHAOS: soak the `rap-serve` query service with
//! concurrent clients while panic/ENOSPC/delay faults fire inside its
//! handlers, and write `results/serve_chaos.json`. Exits non-zero if the
//! service crashes, loses a request, or the breaker fails to trip and
//! recover — so CI can gate on it.
//!
//! Usage: `cargo run -p rap-bench --bin serve_chaos --release \
//!     [--seed 2014] [--requests 1000] [--clients 8]`

use rap_bench::experiments::serve_chaos;
use rap_bench::{soak, CliArgs};

fn main() {
    rap_bench::exit_on_error("serve_chaos", run());
}

fn run() -> Result<(), String> {
    let args = CliArgs::from_env();
    let seed = args.get_u64("seed", 2014)?;
    let requests = args.get_u64("requests", 1000)?;
    let clients = args.get_u64("clients", 8)?;
    println!(
        "SERVE_CHAOS — {requests}-request soak over {clients} clients with injected \
         handler faults (seed {seed})\n"
    );
    soak::drive("serve_chaos.json", || {
        serve_chaos::run(seed, requests, clients)
    })
}
