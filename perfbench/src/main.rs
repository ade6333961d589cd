//! `rap-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a fingerprint line, in traced runs a summary line, and as its
//! last line the result object. Exits 2 without a result line when the
//! run cannot start.

use rap_perfbench::{run, Options};
use std::path::PathBuf;

const USAGE: &str = "usage: rap-perfbench --workload <serve-small|sweep|cluster> --seed <n> \
--seconds <s> --trace <0|1> --rap-bin <path> --out-dir <dir>";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut rap_bin = None;
    let mut out_dir = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got '{value}'");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(bad("a number of seconds in (0, 120]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--rap-bin" => rap_bin = Some(PathBuf::from(value)),
            "--out-dir" => out_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?,
        seed: seed.ok_or_else(|| format!("--seed is required\n{USAGE}"))?,
        seconds: seconds.ok_or_else(|| format!("--seconds is required\n{USAGE}"))?,
        trace,
        rap_bin: rap_bin.ok_or_else(|| format!("--rap-bin is required\n{USAGE}"))?,
        out_dir: out_dir.ok_or_else(|| format!("--out-dir is required\n{USAGE}"))?,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let output = parse(&args).and_then(|opts| run(&opts));
    match output {
        Ok(out) => {
            for note in &out.notes {
                eprintln!("check failed: {note}");
            }
            for line in &out.preamble {
                println!("{line}");
            }
            println!("{}", out.result);
        }
        Err(message) => {
            eprintln!("rap-perfbench: {message}");
            std::process::exit(2);
        }
    }
}
