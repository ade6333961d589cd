//! `cluster`: the coordinator in this process against two spawned
//! `rap serve --workers 1` shards.
//!
//! Two phases: distributed Table II sweeps through `Cluster::run_sweep`,
//! one `run_sweep` call being one request of this workload, then routed
//! point queries through `Cluster::query` on a small set of repeated
//! keys, which feed only the per-layer `cluster.query_us`. A
//! `pattern_block` is cheap (about a third of a millisecond), so the wire
//! and the coordinator carry a large share of each block.

use crate::check::{self, canonical, expected_payload, Tally};
use crate::procs::ServerProc;
use crate::summary::{median, Event};
use crate::Ctx;
use rand::Rng;
use rap_access::montecarlo::{matrix_block_stats, matrix_congestion};
use rap_access::MatrixPattern;
use rap_cluster::{Cluster, ClusterConfig, SweepCell, WorkerPool};
use rap_core::Scheme;
use rap_resilience::Ledger;
use rap_serve::{Client, Request};
use rap_stats::{OnlineStats, SeedDomain};
use std::time::{Duration, Instant};

/// Shard processes.
const SHARDS: usize = 2;
/// Share of the run spent on sweeps; the rest goes to routed queries.
/// Single queries are too short to time steadily on a shared host (their
/// 90th percentile moved by up to 0.29 of its median between runs), so
/// the end-to-end figures come from the sweeps, each of which spans 24
/// block roundtrips.
const SWEEP_SHARE: f64 = 0.75;
/// Cluster start-ups timed per run; `setup_s` is their median. Each takes
/// about 10 ms, so a few scheduler stalls move a median of only a few.
const SETUPS: usize = 15;
/// Width and trials of each sweep cell (two blocks per cell).
const SWEEP_WIDTH: usize = 32;
const SWEEP_TRIALS: u64 = 64;
/// Distinct keys of the query phase, each always the same request.
const QUERY_KEYS: usize = 16;
/// Coordinator threads issuing queries. One: with two shards of two
/// threads each on a two-core host, a second querying thread mostly adds
/// scheduler contention, which makes latency depend on the host's other
/// load rather than on the coordinator and the wire.
const QUERY_THREADS: u64 = 1;
/// Blocks timed for the block round-trip versus compute comparison.
const BLOCK_PROBES: u64 = 200;

/// What one `cluster` run measured.
#[derive(Debug, Default)]
pub struct ClusterRun {
    /// Median spawn-to-healthy-cluster time, seconds.
    pub setup_s: f64,
    /// Sweep phase: every `run_sweep` call (completion time, latency,
    /// trials and blocks).
    pub sweeps: Vec<Event>,
    /// Sweep phase: wall time, seconds.
    pub sweep_elapsed_s: f64,
    /// Query phase: every `Cluster::query` (completion time, latency).
    pub queries: Vec<Event>,
    /// Summed sweep-report counters.
    pub blocks_total: u64,
    /// See `blocks_total`.
    pub executed: u64,
    /// See `blocks_total`.
    pub hedged: u64,
    /// See `blocks_total`.
    pub redispatched: u64,
    /// See `blocks_total`.
    pub reconnects: u64,
    /// Median `pattern_block` round-trip to one shard, µs (traced runs).
    pub block_rtt_us: f64,
    /// Median in-process `matrix_block_stats` of the same blocks, µs.
    pub block_compute_us: f64,
    /// Summed peak RSS of the shards that served the measured phases, KiB.
    pub server_rss_kib: u64,
}

fn start_cluster(ctx: &Ctx) -> Result<(Vec<ServerProc>, Cluster), String> {
    let (started, _) = ctx.tracer.timed("cluster.setup", "", 0, 0, |_| {
        let mut shards = Vec::with_capacity(SHARDS);
        for _ in 0..SHARDS {
            shards.push(
                ServerProc::spawn(&ctx.rap_bin, &["--workers", "1"])
                    .map_err(|e| format!("spawning {}: {e}", ctx.rap_bin.display()))?,
            );
        }
        let addrs: Vec<_> = shards.iter().map(|s| s.addr).collect();
        let cluster = Cluster::new(WorkerPool::connect(&addrs), ClusterConfig::default());
        let healthy = cluster.healthy_workers();
        if healthy != SHARDS {
            return Err(format!("{healthy}/{SHARDS} shards healthy after start-up"));
        }
        Ok((shards, cluster))
    });
    started
}

fn sweep_cells(seed: u64) -> Vec<SweepCell> {
    let root = SeedDomain::new(seed).child("cluster-sweep");
    let mut cells = Vec::new();
    for pattern in MatrixPattern::table2() {
        for scheme in Scheme::all() {
            let key = format!("{}/{}", pattern.name(), scheme.name());
            let domain = root.child(&key);
            cells.push(SweepCell::new(
                key,
                pattern,
                scheme,
                SWEEP_WIDTH,
                SWEEP_TRIALS,
                &domain,
            ));
        }
    }
    cells
}

/// The query phase's requests. Their shapes are fixed (key `k` runs
/// `k + 1` trials), so seeds change the sampled streams, not the work.
fn query_lines(seed: u64) -> Vec<String> {
    let mut rng = SeedDomain::new(seed).child("cluster-queries").rng(0);
    let table2 = MatrixPattern::table2();
    let schemes = ["raw", "ras", "rap"];
    (0..QUERY_KEYS)
        .map(|k| {
            format!(
                r#"{{"cmd":"pattern","pattern":"{}","scheme":"{}","width":32,"trials":{},"seed":{}}}"#,
                table2[k % table2.len()].name().to_ascii_lowercase(),
                schemes[k % schemes.len()],
                k + 1,
                rng.gen::<u32>(),
            )
        })
        .collect()
}

/// Run the workload: three quarters of `seconds` of sweeps, then the
/// rest of routed queries.
///
/// # Errors
/// The shards could not be started.
pub fn run(ctx: &Ctx, seconds: f64, tally: &mut Tally) -> Result<ClusterRun, String> {
    let mut out = ClusterRun::default();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for i in 0..SETUPS {
        let start = Instant::now();
        let (shards, cluster) = start_cluster(ctx)?;
        setups.push(start.elapsed().as_secs_f64());
        if i + 1 < SETUPS {
            drop(cluster);
            for shard in shards {
                shard.stop(Duration::from_secs(5));
            }
        } else {
            kept = Some((shards, cluster));
        }
    }
    out.setup_s = median(&setups);
    let (shards, cluster) = kept.ok_or("no cluster started")?;

    // Phase 1: distributed sweeps, each merged result checked bit for bit
    // against the in-process engine.
    let cells = sweep_cells(ctx.seed);
    let want: Vec<_> = cells
        .iter()
        .map(|c| {
            matrix_congestion(
                c.scheme,
                c.pattern,
                c.width,
                c.trials,
                &SeedDomain::from_state(c.domain_state),
            )
            .to_raw()
        })
        .collect();
    let trials_per_sweep: u64 = cells.iter().map(|c| c.trials).sum();
    let start = Instant::now();
    let mut sweeps = 0u64;
    while start.elapsed().as_secs_f64() < seconds * SWEEP_SHARE {
        sweeps += 1;
        let ((merged, report), took) = ctx.tracer.timed("cluster.run_sweep", "", 0, sweeps, |_| {
            cluster.run_sweep(&cells, &Ledger::in_memory())
        });
        let same = merged
            .iter()
            .map(OnlineStats::to_raw)
            .eq(want.iter().copied());
        tally.check(same && !report.degraded, || {
            format!(
                "cluster: sweep {sweeps} merged differently or degraded (source {})",
                report.source
            )
        });
        out.blocks_total += report.blocks_total;
        out.executed += report.executed;
        out.hedged += report.hedged;
        out.redispatched += report.redispatched;
        out.reconnects = report.reconnects;
        out.sweeps.push(Event {
            at_s: start.elapsed().as_secs_f64(),
            latency_us: took.as_secs_f64() * 1e6,
            trials: trials_per_sweep,
            blocks: report.blocks_total,
        });
    }
    out.sweep_elapsed_s = start.elapsed().as_secs_f64();

    // Phase 2: routed point queries on repeated keys.
    let lines = query_lines(ctx.seed);
    let expected: Vec<Option<String>> = lines
        .iter()
        .map(|l| {
            Request::parse(l)
                .ok()
                .and_then(|r| expected_payload(&r.cmd))
        })
        .collect();
    let keys: Vec<String> = (0..QUERY_KEYS).map(|k| format!("query-{k}")).collect();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds * (1.0 - SWEEP_SHARE));
    let per_thread: Vec<Option<(Vec<Event>, Tally)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..QUERY_THREADS)
            .map(|t| {
                let (cluster, lines, expected, keys) = (&cluster, &lines, &expected, &keys);
                scope.spawn(move || {
                    let mut rng = SeedDomain::new(ctx.seed).child("cluster-keys").rng(t);
                    let mut events = Vec::new();
                    let mut tally = Tally::default();
                    while Instant::now() < deadline {
                        let k = rng.gen_range(0..QUERY_KEYS);
                        let id = (t << 40) + events.len() as u64 + 1;
                        let (answer, took) = ctx.tracer.timed("cluster.query", "", 0, id, |_| {
                            cluster.query(&keys[k], &lines[k])
                        });
                        events.push(Event {
                            at_s: start.elapsed().as_secs_f64(),
                            latency_us: took.as_secs_f64() * 1e6,
                            ..Event::default()
                        });
                        let ok = answer.is_ok_and(|r| {
                            r.ok && !r.degraded && r.data.as_ref().map(canonical) == expected[k]
                        });
                        tally.check(ok, || {
                            format!("cluster: query {} answered wrongly", lines[k])
                        });
                    }
                    (events, tally)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().ok()).collect()
    });
    for result in per_thread {
        let Some((events, t)) = result else {
            tally.check(false, || "cluster: a query thread panicked".into());
            continue;
        };
        out.queries.extend(events);
        tally.absorb(t);
    }

    if ctx.tracer.enabled() {
        block_probe(ctx, shards[0].addr, &mut out, tally);
    }
    check::cross_layer(ctx.seed, shards[0].addr, &cluster, tally);
    drop(cluster);
    for shard in shards {
        out.server_rss_kib += shard.peak_rss_kib();
        tally.check(shard.stop(Duration::from_secs(5)), || {
            "cluster: a shard did not drain cleanly".into()
        });
    }
    Ok(out)
}

/// One block over the wire versus the same block in-process.
fn block_probe(ctx: &Ctx, addr: std::net::SocketAddr, out: &mut ClusterRun, tally: &mut Tally) {
    let Ok(mut client) = Client::connect_with_timeout(addr, Duration::from_secs(10)) else {
        tally.check(false, || format!("cluster: cannot connect to {addr}"));
        return;
    };
    let domain = SeedDomain::new(ctx.seed).child("block-probe");
    let (mut rtt, mut compute) = (Vec::new(), Vec::new());
    for b in 0..BLOCK_PROBES {
        let block = b % 2;
        let line = format!(
            r#"{{"cmd":"pattern_block","pattern":"random","scheme":"rap","width":{SWEEP_WIDTH},"trials":{SWEEP_TRIALS},"block":{block},"domain_state":{}}}"#,
            domain.seed()
        );
        let (answer, took) = ctx
            .tracer
            .timed("cluster.block_roundtrip", "", 0, b + 1, |_| {
                client.roundtrip(&line)
            });
        rtt.push(took.as_secs_f64() * 1e6);
        tally.check(answer.is_ok_and(|r| r.ok), || {
            format!("cluster: {line} failed")
        });
        let (_, took) = ctx
            .tracer
            .timed("access.matrix_block_stats", "", 0, b + 1, |_| {
                matrix_block_stats(
                    Scheme::Rap,
                    MatrixPattern::Random,
                    SWEEP_WIDTH,
                    SWEEP_TRIALS,
                    block,
                    &domain,
                )
            });
        compute.push(took.as_secs_f64() * 1e6);
    }
    out.block_rtt_us = median(&rtt);
    out.block_compute_us = median(&compute);
}
