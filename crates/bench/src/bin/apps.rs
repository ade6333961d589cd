//! Experiment A5: application kernels (tiled `A·Bᵀ`, data-dependent
//! gather) under RAW / RAS / RAP.
//!
//! Usage: `cargo run -p rap-bench --bin apps --release [--width 32]
//! [--latency 8] [--instances 15] [--seed 2014]`

use rap_apps::IndexDistribution;
use rap_bench::experiments::apps;
use rap_bench::table::{fmt2, TextTable};
use rap_bench::{output, CliArgs};
use rap_core::Scheme;

fn main() {
    rap_bench::exit_on_error("apps", run());
}

fn run() -> Result<(), String> {
    let args = CliArgs::from_env();
    let _failpoints = rap_bench::failpoints_from_env()?;
    let w = args.get_usize("width", 32)?;
    let latency = args.get_u64("latency", 8)?;
    let instances = args.get_u64("instances", 15)?;
    let seed = args.get_u64("seed", 2014)?;

    println!("A5 — application kernels on the DMM (w={w}, l={latency})\n");

    println!("Tiled C = A·Bᵀ (B is read column-wise — the stride access of §III):");
    let matmul = apps::run_matmul(w, latency, instances, seed);
    let mut t = TextTable::new(["Scheme", "cycles", "B-read congestion"]);
    for c in &matmul {
        t.row([
            c.scheme.name().to_string(),
            fmt2(c.cycles.mean()),
            fmt2(c.b_congestion.mean()),
        ]);
    }
    println!("{}", t.render());

    println!("Data-dependent gather b[t] = a[idx[t]] (read congestion per distribution):");
    let gather = apps::run_gather_sweep(w, latency, instances, seed);
    let mut t = TextTable::new(["Distribution", "RAW", "RAS", "RAP"]);
    for dist in IndexDistribution::all() {
        let mut line = vec![dist.name().to_string()];
        for scheme in Scheme::all() {
            let c = gather
                .iter()
                .find(|c| c.distribution == dist && c.scheme == scheme)
                .expect("cell exists");
            line.push(format!(
                "{} ({} cy)",
                fmt2(c.read_congestion.mean()),
                fmt2(c.cycles.mean())
            ));
        }
        t.row(line);
    }
    println!("{}", t.render());
    println!(
        "RAP caps every distribution at balls-into-bins scale — including the\n\
         column gather that serializes RAW {w}x — with no knowledge of idx.\n"
    );

    println!("Large-matrix transpose (tile pipeline: coalesced global I/O + shared transpose,");
    println!("global latency 400 cycles):");
    let sizes = [w, 2 * w, 4 * w];
    let big = apps::run_big_transpose_sweep(w, &sizes, latency, 400, instances.min(8), seed);
    let mut t = TextTable::new([
        "N",
        "RAW cycles",
        "RAS cycles",
        "RAP cycles",
        "speedup RAW/RAP",
    ]);
    for &n in &sizes {
        let get = |s: Scheme| {
            big.iter()
                .find(|c| c.n == n && c.scheme == s)
                .expect("cell exists")
                .total_cycles
                .mean()
        };
        t.row([
            n.to_string(),
            fmt2(get(Scheme::Raw)),
            fmt2(get(Scheme::Ras)),
            fmt2(get(Scheme::Rap)),
            format!("{:.2}x", get(Scheme::Raw) / get(Scheme::Rap)),
        ]);
    }
    println!("{}", t.render());
    println!(
        "Even with realistic global-memory latency diluting the shared phase,\n\
         the RAP pipeline keeps a material end-to-end advantage.\n"
    );

    let record = apps::to_record(w, latency, seed, &matmul, &gather);
    output::publish_record(&record)
}
