//! Layer probes of a traced run: each times the benchmark's own calls
//! into one crate's public functions, on inputs made from the run's seed.

use crate::metrics::Metrics;
use crate::requests::{Mix, ADAPT_WIDTH};
use crate::summary::{median, per_call_ns};
use crate::Ctx;
use rand::Rng;
use rap_access::montecarlo::{matrix_block_stats, matrix_congestion};
use rap_access::{CancelToken, MatrixPattern};
use rap_adapt::{AdaptConfig, AdaptiveController, TrafficClass};
use rap_cluster::HashRing;
use rap_core::{build_mapping, CompactCongestion, CongestionScratch, Scheme};
use rap_serve::handler::execute;
use rap_serve::{Command, Request};
use rap_stats::SeedDomain;
use rayon::prelude::*;
use rayon::ThreadPoolBuilder;
use std::hint::black_box;
use std::time::Instant;

/// Timed rounds per probe; each reports the median round.
const ROUNDS: usize = 31;
/// Warps per width in the kernel probe.
const WARPS: usize = 256;

/// Run every probe and record its metrics.
pub fn probe(ctx: &Ctx, m: &mut Metrics) {
    let t = &ctx.tracer;
    let seed = SeedDomain::new(ctx.seed).child("layers");
    t.timed("core.kernel", "", 0, 0, |_| kernel(seed, m));
    t.timed("core.build_mapping", "", 0, 0, |_| {
        for (scheme, name) in [
            (Scheme::Raw, "raw"),
            (Scheme::Ras, "ras"),
            (Scheme::Rap, "rap"),
        ] {
            let mut rng = seed.child("mapping").rng(0);
            let ns = per_call_ns(ROUNDS, 200, || {
                black_box(build_mapping(scheme, &mut rng, 32));
            });
            m.set(&format!("core.mapping_build_us.{name}"), ns / 1e3);
        }
    });
    t.timed("access.matrix_block_stats", "probe", 0, 0, |_| {
        let domain = seed.child("trial");
        for pattern in MatrixPattern::table2() {
            let us = per_call_ns(ROUNDS, 1, || {
                black_box(matrix_block_stats(Scheme::Rap, pattern, 32, 32, 0, &domain));
            }) / 1e3
                / 32.0;
            m.set(
                &format!("access.trial_us.{}", pattern.name().to_ascii_lowercase()),
                us,
            );
        }
    });
    let two = ThreadPoolBuilder::new().num_threads(2).build().ok();
    let install = |f: &mut dyn FnMut()| match &two {
        Some(pool) => pool.install(f),
        None => f(),
    };
    t.timed("access.matrix_congestion", "probe", 0, 0, |_| {
        let domain = seed.child("call");
        for trials in [1u64, 32, 64] {
            let mut us = Vec::with_capacity(ROUNDS);
            install(&mut || {
                for _ in 0..ROUNDS {
                    let start = Instant::now();
                    black_box(matrix_congestion(
                        Scheme::Rap,
                        MatrixPattern::Random,
                        32,
                        trials,
                        &domain,
                    ));
                    us.push(start.elapsed().as_secs_f64() * 1e6);
                }
            });
            m.set(&format!("access.call_us.t{trials}"), median(&us));
        }
    });
    t.timed("rayon.fork_join", "", 0, 0, |_| {
        let mut ns = 0.0;
        install(&mut || {
            ns = per_call_ns(ROUNDS, 20, || {
                let v: Vec<u64> = vec![1u64, 2].into_par_iter().map(|x| x + 1).collect();
                black_box(v);
            });
        });
        m.set("rayon.fork_join_us", ns / 1e3);
    });
    t.timed("serve.parse", "probe", 0, 0, |_| {
        let mut mix = Mix::new(ctx.seed, 99);
        let lines: Vec<String> = (0..1000).map(|i| mix.next_req(i >= 500).line).collect();
        let ns = per_call_ns(ROUNDS, 1, || {
            for line in &lines {
                black_box(Request::parse(line).is_ok());
            }
        }) / lines.len() as f64;
        m.set("serve.parse_ns", ns);
    });
    t.timed("adapt.probe", "", 0, 0, |_| adapt(ctx.seed, m));
    t.timed("resilience.failpoint_fire", "", 0, 0, |_| {
        let ns = per_call_ns(ROUNDS, 10_000, || {
            black_box(rap_resilience::failpoint::fire("serve.handler").is_ok());
        });
        m.set("resilience.failpoint_fire_ns", ns);
    });
    t.timed("cluster.route", "", 0, 0, |_| {
        let ring = HashRing::new(2);
        let keys: Vec<String> = (0..64).map(|k| format!("query-{k}")).collect();
        let ns = per_call_ns(ROUNDS, 1, || {
            for k in &keys {
                black_box(ring.route(k));
            }
        }) / keys.len() as f64;
        m.set("cluster.route_ns", ns);
    });
}

/// The production congestion entry at each width on pregenerated random
/// warps: the bitmask kernel (`CompactCongestion`, one lane per row-tag
/// and bank) at w ≤ 64, the address kernel (`CongestionScratch`) above.
fn kernel(seed: SeedDomain, m: &mut Metrics) {
    for w in [32usize, 64, 128, 256] {
        let mut rng = seed.child("kernel").rng(w as u64);
        let warps: Vec<Vec<(u32, u32)>> = (0..WARPS)
            .map(|_| {
                (0..w)
                    .map(|_| (rng.gen_range(0..w as u32), rng.gen_range(0..w as u32)))
                    .collect()
            })
            .collect();
        let ns = if w <= 64 {
            per_call_ns(ROUNDS, 1, || {
                for warp in &warps {
                    let mut k = CompactCongestion::new(w);
                    for &(row, bank) in warp {
                        k.lane(row, bank);
                    }
                    black_box(k.finish());
                }
            })
        } else {
            let addresses: Vec<Vec<u64>> = warps
                .iter()
                .map(|warp| {
                    warp.iter()
                        .map(|&(r, c)| u64::from(r) * w as u64 + u64::from(c))
                        .collect()
                })
                .collect();
            let mut scratch = CongestionScratch::new();
            per_call_ns(ROUNDS, 1, || {
                for a in &addresses {
                    black_box(scratch.congestion(w, a));
                }
            })
        };
        m.set(&format!("core.kernel_ns_per_warp.w{w}"), ns / WARPS as f64);
    }
}

/// `observe` on a frozen controller, and the cost an adaptive `pattern`
/// adds over the identical static request: the controller serves RAP
/// (frozen, so it never swaps) and the static twin names RAP.
fn adapt(seed: u64, m: &mut Metrics) {
    let config = AdaptConfig {
        width: ADAPT_WIDTH,
        initial: "rap".to_string(),
        start_frozen: true,
        ..AdaptConfig::default()
    };
    let Ok(controller) = AdaptiveController::new(config) else {
        return;
    };
    let ns = per_call_ns(ROUNDS, 1000, || {
        controller.observe(TrafficClass::Stride, 1.0);
    });
    m.set("adapt.observe_ns", ns);

    let mut rng = SeedDomain::new(seed).child("adapt-overhead").rng(0);
    let token = CancelToken::never();
    let (mut adaptive, mut fixed) = (Vec::new(), Vec::new());
    for _ in 0..200 {
        let pattern = MatrixPattern::table2()[rng.gen_range(0..4usize)]
            .name()
            .to_ascii_lowercase();
        let (trials, s) = (rng.gen_range(1..=16u64), u64::from(rng.gen::<u32>()));
        for (scheme, out) in [("adaptive", &mut adaptive), ("rap", &mut fixed)] {
            let cmd = Command::Pattern {
                pattern: pattern.clone(),
                scheme: scheme.to_string(),
                width: ADAPT_WIDTH,
                trials,
                seed: s,
            };
            let start = Instant::now();
            black_box(execute(&cmd, &token, Some(&controller)));
            out.push(start.elapsed().as_secs_f64() * 1e6);
        }
    }
    m.set("adapt.overhead_us", median(&adaptive) - median(&fixed));
}
