//! Experiment ADAPT_CHAOS: soak the self-healing adaptive remapping
//! layer — traffic-shift swaps, epoch fault storms, kills mid-migration
//! — and write `results/adapt_chaos.json`. Exits non-zero if the swap
//! never happens, measured congestion fails to drop below the old
//! certified bound, a request is lost, or a post-kill resume changes a
//! byte — so CI can gate on it.
//!
//! Usage: `cargo run -p rap-bench --bin adapt_chaos --release \
//!     [--seed 2014] [--width 16] [--requests 192] \
//!     [--server-bin target/release/rap]`
//!
//! With `--server-bin` the servers are real `rap serve --adapt`
//! processes on real sockets and the mid-migration kill is a genuine
//! SIGKILL; without it the same wire protocol runs against in-process
//! servers. The epoch fault storm always runs in-process (failpoint
//! registries do not cross process boundaries).

use rap_bench::experiments::adapt_chaos::{self, AdaptChaosConfig};
use rap_bench::{soak, CliArgs};

fn main() {
    rap_bench::exit_on_error("adapt_chaos", run());
}

fn run() -> Result<(), String> {
    let args = CliArgs::from_env();
    let cfg = AdaptChaosConfig {
        seed: args.get_u64("seed", 2014)?,
        width: args.get_usize("width", 16)?,
        requests: args.get_u64("requests", 192)?,
        server_bin: args.get("server-bin").map(std::path::PathBuf::from),
    };
    println!(
        "ADAPT_CHAOS — adaptive remapping soak at w={} over {} servers \
         (seed {}, {} requests per phase)\n",
        cfg.width,
        if cfg.server_bin.is_some() {
            "process"
        } else {
            "in-process"
        },
        cfg.seed,
        cfg.requests,
    );
    soak::drive("adapt_chaos.json", || adapt_chaos::run(&cfg))
}
