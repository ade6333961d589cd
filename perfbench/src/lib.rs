//! The repository benchmark: three workloads that stress different
//! layers, each generated from a seed, each checking its answers.
//!
//! * `serve-small` — a closed loop of small requests against a spawned
//!   `rap serve --workers 2 --adapt` ([`serve_small`]);
//! * `sweep` — Table II cells in-process on 1- and 2-thread pools
//!   ([`sweep`]);
//! * `cluster` — a distributed sweep and routed queries against two
//!   spawned shards ([`cluster`]).
//!
//! An untraced run reports the end-to-end metrics of its workload. A
//! traced run records a span at each of the benchmark's calls into a
//! layer and reports the per-layer metrics: it runs its workload once
//! untraced and once traced (the difference is the tracing overhead),
//! runs the two other workloads briefly so that every layer is measured,
//! and times each layer's public functions directly ([`layers`]).
//! See `perfbench/README.md` for the workloads, the layer map and how to
//! read a trace.

#![forbid(unsafe_code)]

pub mod check;
pub mod cluster;
pub mod layers;
pub mod metrics;
pub mod procs;
pub mod requests;
pub mod serve_small;
pub mod summary;
pub mod sweep;
pub mod trace;

use check::Tally;
use metrics::{Metrics, END_TO_END, PER_LAYER};
use requests::Kind;
use std::path::{Path, PathBuf};
use summary::{quantile, windowed};
use trace::Tracer;

/// The workloads, by command-line name.
pub const WORKLOADS: [&str; 3] = ["serve-small", "sweep", "cluster"];

/// Window over which a closed loop's figures are taken before the median
/// across windows is reported.
const WINDOW_S: f64 = 1.0;

/// Seconds each of the two other workloads runs inside a traced run.
const SIDE_SECONDS: f64 = 1.0;

/// Layers whose self time a traced run reports.
const LAYERS: [&str; 8] = [
    "bench",
    "serve",
    "cluster",
    "access",
    "adapt",
    "core",
    "rayon",
    "resilience",
];

/// What a run needs besides its workload.
pub struct Ctx {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// The `rap` binary the workloads spawn as servers.
    pub rap_bin: PathBuf,
    /// Scratch directory for epoch ledgers.
    pub work_dir: PathBuf,
    /// Span recorder (disabled in untraced runs).
    pub tracer: Tracer,
}

/// Options of one benchmark run.
#[derive(Debug, Clone)]
pub struct Options {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
    /// The `rap` binary.
    pub rap_bin: PathBuf,
    /// Where scratch files and traces go.
    pub out_dir: PathBuf,
}

/// A finished run: the lines to print and the parsed verdict.
#[derive(Debug)]
pub struct Output {
    /// Lines printed before the result (fingerprint, traced summary).
    pub preamble: Vec<String>,
    /// The final result line.
    pub result: String,
    /// Whether every correctness and accounting check passed.
    pub correct: bool,
    /// Every metric measured.
    pub metrics: Metrics,
    /// Failure messages, if any.
    pub notes: Vec<String>,
}

/// Results of the workloads one run executed.
#[derive(Default)]
struct Runs {
    serve: Option<serve_small::ServeSmall>,
    sweep: Option<sweep::Sweep>,
    cluster: Option<cluster::ClusterRun>,
}

fn run_one(
    name: &str,
    ctx: &Ctx,
    seconds: f64,
    tally: &mut Tally,
    runs: &mut Runs,
) -> Result<(), String> {
    match name {
        "serve-small" => runs.serve = Some(serve_small::run(ctx, seconds, tally)?),
        "sweep" => runs.sweep = Some(sweep::run(ctx, seconds, tally)?),
        "cluster" => runs.cluster = Some(cluster::run(ctx, seconds, tally)?),
        other => {
            return Err(format!(
                "unknown workload '{other}' (expected one of {WORKLOADS:?})"
            ))
        }
    }
    Ok(())
}

/// The end-to-end metrics of workload `name` from its run.
fn end_to_end(name: &str, runs: &Runs) -> Metrics {
    let mut m = Metrics::default();
    let own_kib = procs::own_peak_rss_kib();
    let (setup, p50, p90, req_per_s, trials, blocks, servers_kib) = match name {
        "serve-small" => {
            let Some(r) = &runs.serve else { return m };
            let w = windowed(&r.events, r.elapsed_s, WINDOW_S);
            let kib = r.server_rss_kib;
            (
                r.setup_s,
                w.p50_us,
                w.p90_us,
                w.ops_per_s,
                w.trials_per_s,
                w.blocks_per_s,
                kib,
            )
        }
        "sweep" => {
            let Some(r) = &runs.sweep else { return m };
            let lat = &r.latencies_us;
            let (p50, p90) = (quantile(lat, 0.5), quantile(lat, 0.9));
            (
                r.setup_s,
                p50,
                p90,
                r.calls_per_s,
                r.trials_per_s,
                r.blocks_per_s,
                0,
            )
        }
        _ => {
            let Some(r) = &runs.cluster else { return m };
            let w = windowed(&r.sweeps, r.sweep_elapsed_s, WINDOW_S);
            let kib = r.server_rss_kib;
            (
                r.setup_s,
                w.p50_us,
                w.p90_us,
                w.ops_per_s,
                w.trials_per_s,
                w.blocks_per_s,
                kib,
            )
        }
    };
    m.set("setup_s", setup);
    m.set("req_p50_us", p50);
    m.set("req_p90_us", p90);
    m.set("req_per_s", req_per_s);
    m.set("trials_per_s", trials);
    m.set("blocks_per_s", blocks);
    m.set("peak_rss_mb", (own_kib + servers_kib) as f64 / 1024.0);
    m
}

/// The per-layer metrics of a traced run.
fn per_layer(ctx: &Ctx, runs: &Runs, m: &mut Metrics) {
    if let Some(s) = &runs.serve {
        if let Some(r) = &s.replay {
            for (kind, us) in Kind::ALL.iter().zip(&r.execute_us) {
                m.set(&format!("serve.execute_us.{}", kind.name()), *us);
            }
            m.set("serve.encode_ns", r.encode_ns);
            m.set("serve.client_parse_ns", r.client_parse_ns);
            m.set("serve.wire_us", r.wire_us);
        }
        m.set("serve.req_p99_us", s.p(0.99));
        m.set("serve.samples", s.events.len() as f64);
        m.set("serve.shed", s.shed as f64);
        m.set("serve.errors", s.errors as f64);
        m.set("serve.degraded", s.degraded as f64);
        m.set("serve.conserves", if s.conserves { 1.0 } else { 0.0 });
        m.set("adapt.swaps", s.swaps as f64);
        m.set("adapt.rollbacks", s.rollbacks as f64);
        m.set("adapt.ledger_errors", s.ledger_errors as f64);
    }
    if let Some(s) = &runs.sweep {
        m.set("access.trials_per_s_1t", s.trials_per_s_1t);
        m.set("access.scaling_2t", s.trials_per_s / s.trials_per_s_1t);
    }
    if let Some(c) = &runs.cluster {
        m.set("cluster.block_rtt_us", c.block_rtt_us);
        m.set("cluster.block_compute_us", c.block_compute_us);
        m.set(
            "cluster.wire_share",
            (c.block_rtt_us - c.block_compute_us) / c.block_rtt_us,
        );
        m.set(
            "cluster.useful_ratio",
            c.blocks_total as f64 / (c.executed + c.hedged + c.redispatched) as f64,
        );
        m.set("cluster.hedged", c.hedged as f64);
        m.set("cluster.redispatched", c.redispatched as f64);
        m.set("cluster.reconnects", c.reconnects as f64);
        let latencies: Vec<f64> = c.queries.iter().map(|e| e.latency_us).collect();
        m.set("cluster.query_us", quantile(&latencies, 0.5));
    }
    let by_layer = ctx.tracer.self_ms_by_layer();
    for layer in LAYERS {
        m.set(
            &format!("trace.self_ms.{layer}"),
            by_layer.get(layer).copied().unwrap_or(0.0),
        );
    }
    m.set("trace.spans", ctx.tracer.len() as f64);
}

/// Run the benchmark.
///
/// # Errors
/// An unknown workload, a missing `rap` binary, or a workload that could
/// not start its servers or pools.
pub fn run(opts: &Options) -> Result<Output, String> {
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!(
            "unknown workload '{}' (expected one of {WORKLOADS:?})",
            opts.workload
        ));
    }
    if !opts.rap_bin.is_file() {
        return Err(format!(
            "rap binary not found at {}",
            opts.rap_bin.display()
        ));
    }
    let work_dir = opts.out_dir.join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&work_dir)
        .map_err(|e| format!("creating {}: {e}", work_dir.display()))?;
    let result = run_in(opts, &work_dir);
    let _ = std::fs::remove_dir_all(&work_dir);
    result
}

fn run_in(opts: &Options, work_dir: &Path) -> Result<Output, String> {
    let repo_root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut preamble = vec![format!(
        "{{\"fingerprint\": {}}}",
        procs::fingerprint(&repo_root)
    )];
    let ctx = |traced| Ctx {
        seed: opts.seed,
        rap_bin: opts.rap_bin.clone(),
        work_dir: work_dir.to_path_buf(),
        tracer: Tracer::new(traced),
    };
    let mut tally = Tally::default();
    let name = opts.workload.as_str();

    let (metrics, catalogue) = if opts.trace {
        let plain = ctx(false);
        let mut untraced_runs = Runs::default();
        run_one(
            name,
            &plain,
            opts.seconds / 2.0,
            &mut tally,
            &mut untraced_runs,
        )?;
        let untraced = end_to_end(name, &untraced_runs);

        let traced_ctx = ctx(true);
        let mut runs = Runs::default();
        run_one(name, &traced_ctx, opts.seconds / 2.0, &mut tally, &mut runs)?;
        let traced = end_to_end(name, &runs);
        for other in WORKLOADS.iter().filter(|w| **w != name) {
            run_one(other, &traced_ctx, SIDE_SECONDS, &mut tally, &mut runs)?;
        }
        let mut m = Metrics::default();
        layers::probe(&traced_ctx, &mut m);
        per_layer(&traced_ctx, &runs, &mut m);
        let p50 = |x: &Metrics| x.get("req_p50_us").unwrap_or(f64::NAN);
        m.set(
            "trace.overhead_pct",
            (p50(&traced) - p50(&untraced)) / p50(&untraced) * 100.0,
        );
        m.set(
            "fail_ratio",
            tally.failed as f64 / tally.attempted.max(1) as f64,
        );

        let trace_path = opts
            .out_dir
            .join(format!("trace-{name}-seed{}.jsonl", opts.seed));
        traced_ctx
            .tracer
            .write_jsonl(&trace_path)
            .map_err(|e| format!("writing {}: {e}", trace_path.display()))?;
        let attribution = runs
            .serve
            .as_ref()
            .and_then(|s| s.replay.as_ref().map(|r| (s, r)))
            .map_or_else(String::new, |(s, r)| {
                format!(
                    ", \"serve_small_p50_attribution_us\": {{\"req_p50\": {}, \"parse\": {}, \"execute\": {}, \"encode\": {}, \"client_parse\": {}, \"wire\": {}}}",
                    s.p(0.5),
                    r.parse_ns / 1e3,
                    r.execute_all_us,
                    r.encode_ns / 1e3,
                    r.client_parse_ns / 1e3,
                    r.wire_us
                )
            });
        preamble.push(format!(
            "{{\"traced_summary\": {{\"workload\": \"{name}\", \"untraced\": {}, \"traced\": {}, \"trace_file\": {}{attribution}}}}}",
            untraced.to_json(END_TO_END)?,
            traced.to_json(END_TO_END)?,
            procs::json_str(&trace_path.to_string_lossy()),
        ));
        (m, PER_LAYER)
    } else {
        let mut runs = Runs::default();
        run_one(name, &ctx(false), opts.seconds, &mut tally, &mut runs)?;
        (end_to_end(name, &runs), END_TO_END)
    };

    let correct = tally.failed == 0;
    let metrics_json = metrics.to_json(catalogue)?;
    Ok(Output {
        preamble,
        result: metrics::result_line(correct, tally.attempted.max(1), tally.failed, &metrics_json),
        correct,
        metrics,
        notes: tally.notes,
    })
}
