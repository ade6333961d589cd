//! Records the compiler and the code-generation flags this benchmark was
//! built with, for the host fingerprint printed with every result.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = Command::new(&rustc)
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        );
    // Cargo passes the effective rustflags (config files and RUSTFLAGS
    // alike) to build scripts, separated by 0x1f.
    let flags = std::env::var("CARGO_ENCODED_RUSTFLAGS").unwrap_or_default();
    let flags: Vec<&str> = flags.split('\x1f').filter(|f| !f.is_empty()).collect();
    let target_cpu = flags
        .iter()
        .enumerate()
        .find_map(|(i, f)| {
            f.strip_prefix("target-cpu=")
                .or_else(|| f.strip_prefix("-Ctarget-cpu="))
                .or_else(|| {
                    (*f == "-C")
                        .then(|| flags.get(i + 1).and_then(|n| n.strip_prefix("target-cpu=")))
                        .flatten()
                })
        })
        .unwrap_or("default");
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    println!("cargo:rustc-env=PERFBENCH_TARGET_CPU={target_cpu}");
    println!("cargo:rerun-if-env-changed=CARGO_ENCODED_RUSTFLAGS");
}
