//! `sweep`: the paper's own computation, in-process, with no sockets.
//!
//! Every Table II pattern under every paper scheme at w = 32 (the fused
//! bitmask kernel, w ≤ 64) and w = 128 (the fallback kernel), first on a
//! 1-thread pool and then on a 2-thread pool. One `matrix_congestion`
//! call per cell is one request of this workload.

use crate::check::Tally;
use crate::summary::median;
use crate::Ctx;
use rap_access::montecarlo::{blocks_for, matrix_congestion};
use rap_access::MatrixPattern;
use rap_core::Scheme;
use rap_stats::{RawOnlineStats, SeedDomain};
use rayon::{ThreadPool, ThreadPoolBuilder};
use std::time::Instant;

/// Pool builds timed per run; `setup_s` is their median.
const SETUPS: usize = 15;

/// `(width, trials)` of the sweep's cells. The trial counts give the two
/// widths similar work per call, so that per-call latencies form one
/// cluster rather than two: a w = 128 trial scans 16× the lanes of a
/// w = 32 one through a kernel about 30× slower per warp. Every cell
/// spans several 32-trial blocks, so the 2-thread pool has work to split.
const SHAPES: [(usize, u64); 2] = [(32, 4096), (128, 64)];

/// One sweep cell.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    /// Access pattern.
    pub pattern: MatrixPattern,
    /// Mapping scheme.
    pub scheme: Scheme,
    /// Matrix width.
    pub width: usize,
    /// Monte-Carlo trials.
    pub trials: u64,
}

/// The sweep's cells, in execution order.
#[must_use]
pub fn cells() -> Vec<Cell> {
    let mut out = Vec::new();
    for (width, trials) in SHAPES {
        for pattern in MatrixPattern::table2() {
            for scheme in Scheme::all() {
                out.push(Cell {
                    pattern,
                    scheme,
                    width,
                    trials,
                });
            }
        }
    }
    out
}

fn domain(seed: u64, cell: &Cell) -> SeedDomain {
    SeedDomain::new(seed)
        .child("sweep")
        .child(cell.pattern.name())
        .child(cell.scheme.name())
        .child_idx(cell.width as u64)
}

/// What one `sweep` run measured.
#[derive(Debug, Default)]
pub struct Sweep {
    /// Median pool-build-to-first-answer time, seconds.
    pub setup_s: f64,
    /// Latency of every call on the 2-thread pool, µs.
    pub latencies_us: Vec<f64>,
    /// Calls per second on the 2-thread pool. This and the other rates
    /// are medians over passes of each pass's own rate.
    pub calls_per_s: f64,
    /// Trials per second on the 2-thread pool.
    pub trials_per_s: f64,
    /// Trials per second on the 1-thread pool.
    pub trials_per_s_1t: f64,
    /// Blocks per second on the 2-thread pool.
    pub blocks_per_s: f64,
}

fn pool(threads: usize) -> Result<ThreadPool, String> {
    ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .map_err(|e| format!("building a {threads}-thread pool: {e}"))
}

/// Run the workload: `seconds / 2` on each pool, rounded up to whole
/// passes over the cells so that every run times the same mix of calls.
///
/// # Errors
/// A pool could not be built.
pub fn run(ctx: &Ctx, seconds: f64, tally: &mut Tally) -> Result<Sweep, String> {
    let mut out = Sweep::default();
    let warm = SeedDomain::new(ctx.seed).child("sweep-warm-up");
    let mut setups = Vec::with_capacity(SETUPS);
    let mut pools = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        let (built, _) = ctx.tracer.timed("rayon.build", "", 0, 0, |_| {
            Ok::<_, String>((pool(1)?, pool(2)?))
        });
        let (one, two) = built?;
        // Warm-up: the first answer of each kernel path (the fused
        // bitmask kernel at w = 32, the fallback kernel at w = 128).
        for (w, _) in SHAPES {
            let (answer, _) = ctx
                .tracer
                .timed("access.matrix_congestion", "warm-up", 0, 0, |_| {
                    two.install(|| {
                        matrix_congestion(Scheme::Rap, MatrixPattern::Random, w, 64, &warm)
                    })
                });
            tally.check(answer.count() == 64 * w as u64, || {
                "sweep: warm-up answer is short".into()
            });
        }
        setups.push(start.elapsed().as_secs_f64());
        pools = Some((one, two));
    }
    out.setup_s = median(&setups);
    let (one, two) = pools.ok_or("no pool built")?;

    let cells = cells();
    let mut reference: Vec<Option<RawOnlineStats>> = vec![None; cells.len()];
    let pass_trials: u64 = cells.iter().map(|c| c.trials).sum();
    let pass_blocks: u64 = cells.iter().map(|c| blocks_for(c.trials)).sum();
    for (threads, pool) in [(1usize, &one), (2, &two)] {
        let tag = if threads == 1 { "1t" } else { "2t" };
        let start = Instant::now();
        let mut calls = 0u64;
        let mut pass_secs = 0.0;
        let mut pass_rates: Vec<f64> = Vec::new();
        while !(calls as usize).is_multiple_of(cells.len())
            || start.elapsed().as_secs_f64() < seconds / 2.0
        {
            let i = calls as usize % cells.len();
            let cell = cells[i];
            let d = domain(ctx.seed, &cell);
            let (stats, took) =
                ctx.tracer
                    .timed("access.matrix_congestion", tag, 0, calls + 1, |_| {
                        pool.install(|| {
                            matrix_congestion(
                                cell.scheme,
                                cell.pattern,
                                cell.width,
                                cell.trials,
                                &d,
                            )
                        })
                    });
            if threads == 2 {
                out.latencies_us.push(took.as_secs_f64() * 1e6);
            }
            pass_secs += took.as_secs_f64();
            let raw = stats.to_raw();
            let want = *reference[i].get_or_insert_with(|| {
                check_cell(&cell, stats.mean(), tally);
                raw
            });
            tally.check(raw == want, || {
                format!("sweep: {cell:?} differs between calls or pools")
            });
            calls += 1;
            if (calls as usize).is_multiple_of(cells.len()) {
                pass_rates.push(1.0 / pass_secs);
                pass_secs = 0.0;
            }
        }
        let passes_per_s = median(&pass_rates);
        if threads == 1 {
            out.trials_per_s_1t = passes_per_s * pass_trials as f64;
        } else {
            out.trials_per_s = passes_per_s * pass_trials as f64;
            out.blocks_per_s = passes_per_s * pass_blocks as f64;
            out.calls_per_s = passes_per_s * cells.len() as f64;
        }
    }
    Ok(out)
}

/// Known values: RAW serves contiguous warps conflict-free and stride
/// warps at full congestion; every mean lies in `[1, w]`.
fn check_cell(cell: &Cell, mean: f64, tally: &mut Tally) {
    let w = cell.width as f64;
    let ok = match (cell.scheme, cell.pattern) {
        (Scheme::Raw, MatrixPattern::Contiguous) => mean == 1.0,
        (Scheme::Raw, MatrixPattern::Stride) => mean == w,
        _ => (1.0..=w).contains(&mean),
    };
    tally.check(ok, || {
        format!("sweep: {cell:?} has implausible mean {mean}")
    });
}
