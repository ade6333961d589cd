//! Reproduce Table III: transpose congestion (DMM) and time (simulated
//! GTX TITAN).
//!
//! Usage: `cargo run -p rap-bench --bin table3 --release [--instances 25]
//! [--seed 2014]`

use rap_bench::experiments::table3::{self, Table3Config};
use rap_bench::paper::table3_reference;
use rap_bench::table::{fmt2, TextTable};
use rap_bench::{output, CliArgs};
use rap_core::Scheme;
use rap_transpose::TransposeKind;

fn main() {
    rap_bench::exit_on_error("table3", run());
}

fn run() -> Result<(), String> {
    let args = CliArgs::from_env();
    let _failpoints = rap_bench::failpoints_from_env()?;
    let cfg = Table3Config {
        instances: args.get_u64("instances", 25)?,
        seed: args.get_u64("seed", 2014)?,
        ..Table3Config::default()
    };

    println!("Table III — transpose of a 32×32 double matrix");
    println!(
        "(DMM congestion exact; time from the SM model: clock {} GHz, \
         mem latency {} cy, overhead {} cy; RAS/RAP over {} instances)\n",
        cfg.sm.clock_ghz, cfg.sm.mem_latency, cfg.sm.launch_overhead, cfg.instances
    );

    let rows = table3::run(&cfg);

    let mut t = TextTable::new([
        "Algorithm",
        "Scheme",
        "read cong (paper)",
        "write cong (paper)",
        "time ns (paper)",
        "verified",
    ]);
    for kind in TransposeKind::all() {
        for scheme in Scheme::all() {
            let r = rows
                .iter()
                .find(|r| r.kind == kind && r.scheme == scheme)
                .expect("row exists");
            let p = table3_reference(kind, scheme);
            t.row([
                kind.name().to_string(),
                scheme.name().to_string(),
                format!(
                    "{} ({})",
                    fmt2(r.read_congestion.mean()),
                    fmt2(p.read_congestion)
                ),
                format!(
                    "{} ({})",
                    fmt2(r.write_congestion.mean()),
                    fmt2(p.write_congestion)
                ),
                format!("{:.1} ({:.1})", r.time_ns.mean(), p.time_ns),
                if r.all_verified { "yes" } else { "NO" }.to_string(),
            ]);
        }
    }
    println!("{}", t.render());

    let speedup = |k: TransposeKind, a: Scheme, b: Scheme| {
        let t_of = |s| {
            rows.iter()
                .find(|r| r.kind == k && r.scheme == s)
                .unwrap()
                .time_ns
                .mean()
        };
        t_of(a) / t_of(b)
    };
    println!(
        "CRSW speedup RAW→RAP: {:.1}x (paper 10.3x);  RAW→RAS: {:.1}x (paper 5.3x)",
        speedup(TransposeKind::Crsw, Scheme::Raw, Scheme::Rap),
        speedup(TransposeKind::Crsw, Scheme::Raw, Scheme::Ras),
    );
    println!(
        "DRDW penalty RAP/RAW: {:.2}x (paper 2.74x)\n",
        speedup(TransposeKind::Drdw, Scheme::Rap, Scheme::Raw)
    );

    let record = table3::to_record(&cfg, &rows);
    output::publish_record(&record)
}
