//! Smoke test of the benchmark: every workload at a tiny size.
//!
//! Builds the `rap` binary (release, into this package's target
//! directory), runs each workload untraced and one workload traced, and
//! asserts that every declared metric is present, finite and carries the
//! unit `BENCHMARK.json` declares, and that every correctness and
//! accounting check passed.

use rap_perfbench::metrics::{END_TO_END, PER_LAYER};
use rap_perfbench::{run, Options, Output, WORKLOADS};
use serde::Value;
use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// The target directory this test binary was built into
/// (`<target>/<profile>/deps/`).
fn target_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("test executable path");
    exe.ancestors()
        .nth(3)
        .expect("test binary lives in <target>/<profile>/deps")
        .to_path_buf()
}

/// `<target>/release/rap`, built on first use.
fn rap_bin() -> PathBuf {
    let target = target_dir();
    let status = Command::new(env!("CARGO"))
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "rap-cli",
        ])
        .current_dir(repo_root())
        .env("CARGO_TARGET_DIR", &target)
        .status()
        .expect("running cargo");
    assert!(status.success(), "building the rap binary failed");
    target.join("release").join("rap")
}

fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let field = |v: &Value, key: &str| -> Value {
        v.as_object()
            .and_then(|o| o.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone()))
            .unwrap_or(Value::Null)
    };
    let text = |v: Value| match v {
        Value::String(s) => s,
        other => panic!("expected a string, got {other:?}"),
    };
    field(&doc, section)
        .as_array()
        .expect("metric list")
        .iter()
        .map(|m| (text(field(m, "name")), text(field(m, "unit"))))
        .collect()
}

fn assert_reports(out: &Output, catalogue: &[(&str, &str)], what: &str) {
    assert!(out.correct, "{what}: checks failed: {:?}", out.notes);
    let last: Value = serde_json::from_str(&out.result).expect("result line is JSON");
    let metrics = last
        .as_object()
        .and_then(|o| o.iter().find(|(k, _)| k == "metrics"))
        .and_then(|(_, m)| m.as_object())
        .expect("metrics object");
    assert_eq!(metrics.len(), catalogue.len(), "{what}: metric count");
    for &(name, unit) in catalogue {
        let entry = metrics
            .iter()
            .find(|(k, _)| k == name)
            .map_or_else(|| panic!("{what}: metric {name} missing"), |(_, v)| v);
        let pairs = entry.as_object().expect("metric entry");
        let value = pairs.iter().find(|(k, _)| k == "value").map(|(_, v)| v);
        let finite = matches!(value, Some(Value::F64(v)) if v.is_finite());
        assert!(finite, "{what}: {name} = {value:?}");
        let got_unit = pairs.iter().find(|(k, _)| k == "unit").map(|(_, v)| v);
        assert_eq!(
            got_unit,
            Some(&Value::String(unit.to_string())),
            "{what}: {name}"
        );
    }
}

#[test]
fn catalogue_matches_benchmark_json() {
    let own = |c: &[(&str, &str)]| -> Vec<(String, String)> {
        c.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(declared("end_to_end"), own(END_TO_END));
    assert_eq!(declared("per_layer"), own(PER_LAYER));
}

#[test]
fn every_workload_reports_every_metric_and_passes_its_checks() {
    let rap = rap_bin();
    let out_dir = target_dir().join("perfbench-smoke");
    let opts = |workload: &str, trace: bool| Options {
        workload: workload.to_string(),
        seed: 5,
        seconds: 0.6,
        trace,
        rap_bin: rap.clone(),
        out_dir: out_dir.clone(),
    };
    for workload in WORKLOADS {
        let out = run(&opts(workload, false)).unwrap_or_else(|e| panic!("{workload}: {e}"));
        assert_reports(&out, END_TO_END, workload);
        for &(name, _) in END_TO_END {
            let v = out.metrics.get(name).unwrap_or(0.0);
            assert!(
                v > 0.0,
                "{workload}: end-to-end metric {name} must be positive, got {v}"
            );
        }
    }
    let traced = run(&opts("serve-small", true)).expect("traced run");
    assert_reports(&traced, PER_LAYER, "traced serve-small");
    assert!(
        traced
            .preamble
            .iter()
            .any(|l| l.contains("serve_small_p50_attribution_us")),
        "traced serve-small attributes its latency: {:?}",
        traced.preamble
    );
    assert!(traced.metrics.get("adapt.swaps").unwrap_or(0.0) >= 1.0);
    assert_eq!(traced.metrics.get("serve.conserves"), Some(1.0));
    let _ = std::fs::remove_dir_all(&out_dir);
}

#[test]
fn unknown_workload_is_refused_before_anything_starts() {
    let err = run(&Options {
        workload: "nope".to_string(),
        seed: 1,
        seconds: 1.0,
        trace: false,
        rap_bin: PathBuf::from("/nonexistent/rap"),
        out_dir: target_dir(),
    })
    .unwrap_err();
    assert!(err.contains("unknown workload"), "{err}");
}
