//! Experiment CLUSTER_CHAOS: soak the `rap-cluster` coordinator — a
//! distributed Table II sweep plus a router request storm — while one
//! worker is killed mid-flight and `ledger.append` faults storm the
//! coordinator, and write `results/cluster_chaos.json`. Exits non-zero
//! if any merged result diverges from the single-process bits, a request
//! is lost, or a kill+resume changes a byte — so CI can gate on it.
//!
//! Usage: `cargo run -p rap-bench --bin cluster_chaos --release \
//!     [--seed 2014] [--workers 8] [--requests 100000] [--clients 8] \
//!     [--trials 200] [--worker-bin target/release/rap]`
//!
//! With `--worker-bin` the pool spawns real `rap serve` processes on
//! real sockets and the mid-sweep kill is a genuine SIGKILL; without it
//! the same protocol path runs against in-process servers.

use rap_bench::experiments::cluster_chaos::{self, ChaosConfig};
use rap_bench::{output, soak, CliArgs};

fn main() {
    rap_bench::exit_on_error("cluster_chaos", run());
}

fn run() -> Result<(), String> {
    let args = CliArgs::from_env();
    let cfg = ChaosConfig {
        seed: args.get_u64("seed", 2014)?,
        workers: args.get_usize("workers", 8)?,
        requests: args.get_u64("requests", 100_000)?,
        clients: args.get_u64("clients", 8)?,
        base_trials: args.get_u64("trials", 200)?,
        worker_bin: args.get("worker-bin").map(std::path::PathBuf::from),
    };
    println!(
        "CLUSTER_CHAOS — {} requests over {} {} workers, one killed mid-sweep, \
         coordinator fault storms (seed {})\n",
        cfg.requests,
        cfg.workers,
        if cfg.worker_bin.is_some() {
            "process"
        } else {
            "in-process"
        },
        cfg.seed
    );
    soak::drive("cluster_chaos.json", || cluster_chaos::run(&cfg))?;

    // Distributed-vs-single record pair for the CI job's external `cmp`
    // — the byte-identity claim should not rest on this process's own
    // comparison alone.
    let (distributed, single) = cluster_chaos::write_identity_pair(&cfg, &output::results_dir())?;
    println!(
        "wrote identity pair: {} vs {}",
        distributed.display(),
        single.display()
    );
    Ok(())
}
