//! Command execution: dispatch parsed requests into the workspace crates.
//!
//! Handlers run inside a worker's `catch_unwind` boundary and start by
//! firing the `serve.handler` failpoint, so the chaos suite can inject
//! panics, I/O errors, and delays at exactly the spot where real handler
//! bugs would surface. Outcomes are a closed enum the worker maps onto
//! wire responses and metrics — a handler never writes to the socket
//! itself.
//!
//! The expensive path (`pattern` Monte-Carlo) takes a [`CancelToken`]
//! carrying the request deadline and polls it between trials; on expiry
//! it returns whatever blocks completed as an honest, `degraded:true`
//! partial estimate instead of either blocking past the deadline or
//! discarding finished work.

use crate::protocol::{object, Command};
use rap_access::montecarlo::{
    blocks_for, fixed_layout_congestion, matrix_block_stats, pattern_congestion,
};
use rap_access::{CancelToken, MatrixPattern, PartialStats};
use rap_adapt::{AdaptiveController, CandidateKind};
use rap_analyze::{certify_theorem1, certify_theorem2, fallback_bounds};
use rap_core::modern::build_mapping;
use rap_core::{diagnostics::render_layout, BankLoads, RowShift, Scheme};
use rap_resilience::failpoint;
use rap_stats::{OnlineStats, SeedDomain};
use rap_synthesize::Mode;
use rap_transpose::{run_transpose, TransposeKind};
use serde::{Serialize, Value};

/// Transpose simulates every DMM cycle over a `w × w` matrix; cap the
/// width so one request cannot monopolise a worker for minutes.
pub const MAX_TRANSPOSE_WIDTH: usize = 512;

/// What running a command produced.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Full-fidelity result.
    Ok(Value),
    /// A result from a fallback path (partial Monte-Carlo estimate);
    /// carries the payload and a human-readable reason.
    Degraded(Value, String),
    /// The request was semantically invalid (→ `bad_request`/400).
    BadRequest(String),
    /// The deadline expired with no usable partial result (→ 504).
    TimedOut(String),
    /// Infrastructure failure, worth a retry (→ 500 after retries).
    Failed(String),
}

fn check_xor_width(scheme: Scheme, width: usize) -> Result<(), String> {
    if scheme == Scheme::Xor && !width.is_power_of_two() {
        return Err(format!(
            "scheme 'xor' needs a power-of-two width, got {width}"
        ));
    }
    Ok(())
}

fn stats_value(stats: &OnlineStats) -> Value {
    object(vec![
        ("mean", Value::F64(stats.mean())),
        ("std_error", Value::F64(stats.std_error())),
        ("min", stats.min().map_or(Value::Null, Value::F64)),
        ("max", stats.max().map_or(Value::Null, Value::F64)),
        ("count", Value::U64(stats.count())),
    ])
}

/// The accumulator as IEEE-754 bit patterns: lossless over the wire, so
/// a coordinator's block merge is bit-identical to a local one.
fn raw_stats_value(raw: &rap_stats::RawOnlineStats) -> Value {
    object(vec![
        ("count", Value::U64(raw.count)),
        ("mean_bits", Value::U64(raw.mean_bits)),
        ("m2_bits", Value::U64(raw.m2_bits)),
        ("min_bits", Value::U64(raw.min_bits)),
        ("max_bits", Value::U64(raw.max_bits)),
    ])
}

/// A command's answer; `Err` is a `bad_request` message, so request
/// validation can use `?`.
type Answer = Result<Outcome, String>;

/// Execute one command. Must be called inside a `catch_unwind` boundary:
/// the `serve.handler` failpoint (and any real handler bug) may panic —
/// as may the `adapt.*` epoch failpoints reached through `adapt` on
/// `pattern scheme:"adaptive"` and `adapt_force` requests.
#[must_use]
pub fn execute(cmd: &Command, token: &CancelToken, adapt: Option<&AdaptiveController>) -> Outcome {
    // The chaos injection point: panics unwind to the worker's isolation
    // boundary, ENOSPC becomes a retryable failure, delays just happen.
    if let Err(e) = failpoint::fire("serve.handler") {
        return Outcome::Failed(format!("handler I/O fault: {e}"));
    }
    let answer = match cmd {
        Command::Layout {
            scheme,
            width,
            seed,
        } => layout(scheme, *width, *seed),
        Command::Congestion { width, addresses } => Ok(congestion(*width, addresses)),
        Command::Pattern {
            pattern,
            scheme,
            width,
            trials,
            seed,
        } => {
            if scheme.eq_ignore_ascii_case("adaptive") {
                pattern_adaptive(pattern, *width, *trials, *seed, token, adapt)
            } else {
                pattern_mc(pattern, scheme, *width, *trials, *seed, token)
            }
        }
        Command::PatternBlock {
            pattern,
            scheme,
            width,
            trials,
            block,
            seed,
            domain_state,
        } => pattern_block(
            pattern,
            scheme,
            *width,
            *trials,
            *block,
            *seed,
            *domain_state,
        ),
        Command::Analyze { width } => analyze(*width),
        Command::Transpose {
            kind,
            scheme,
            width,
            latency,
            seed,
        } => transpose(kind, scheme, *width, *latency, *seed),
        Command::Synthesize {
            workload,
            mode,
            width,
            seed,
        } => synthesize_layout(workload, *mode, *width, *seed),
        Command::AdaptForce { target, steps } => Ok(adapt_force(adapt, target, *steps)),
        // Inline commands never reach the worker pool.
        Command::AdaptStatus
        | Command::AdaptFreeze { .. }
        | Command::Health
        | Command::Stats
        | Command::Shutdown => Ok(Outcome::Failed(format!(
            "command '{}' is served inline",
            cmd.name()
        ))),
    };
    answer.unwrap_or_else(Outcome::BadRequest)
}

fn layout(scheme_str: &str, width: usize, seed: u64) -> Answer {
    let scheme: Scheme = scheme_str.parse()?;
    check_xor_width(scheme, width)?;
    let mut rng = SeedDomain::new(seed).rng(0);
    let mapping = build_mapping(scheme, &mut rng, width);
    Ok(Outcome::Ok(object(vec![
        ("scheme", Value::String(scheme.to_string())),
        ("width", Value::U64(width as u64)),
        ("seed", Value::U64(seed)),
        ("rendered", Value::String(render_layout(mapping.as_ref()))),
    ])))
}

fn congestion(width: usize, addresses: &[u64]) -> Outcome {
    let loads = BankLoads::analyze(width, addresses);
    Outcome::Ok(object(vec![
        ("width", Value::U64(width as u64)),
        ("congestion", Value::U64(u64::from(loads.congestion()))),
        ("busy_banks", Value::U64(loads.busy_banks() as u64)),
        (
            "unique_requests",
            Value::U64(loads.unique_requests() as u64),
        ),
        ("conflict_free", Value::Bool(loads.is_conflict_free())),
        (
            "loads",
            Value::Array(
                loads
                    .loads()
                    .iter()
                    .map(|&l| Value::U64(u64::from(l)))
                    .collect(),
            ),
        ),
    ]))
}

fn pattern_mc(
    pattern_str: &str,
    scheme_str: &str,
    width: usize,
    trials: u64,
    seed: u64,
    token: &CancelToken,
) -> Answer {
    let pattern: MatrixPattern = pattern_str.parse()?;
    let scheme: Scheme = scheme_str.parse()?;
    check_xor_width(scheme, width)?;
    let domain = SeedDomain::new(seed);
    let partial = pattern_congestion(scheme, pattern, width, trials, &domain, token);
    Ok(mc_outcome(pattern, scheme.name(), width, trials, &partial))
}

/// A Monte-Carlo estimate's payload and outcome: full when every block
/// ran, a degraded partial estimate when the deadline cut the run short,
/// a timeout when no block completed. `scheme` is the name the layout is
/// served under.
fn mc_outcome(
    pattern: MatrixPattern,
    scheme: &str,
    width: usize,
    trials: u64,
    partial: &PartialStats,
) -> Outcome {
    let (done, total) = (partial.completed_blocks, partial.total_blocks);
    if partial.cancelled && done == 0 {
        return Outcome::TimedOut("deadline expired before any Monte-Carlo block completed".into());
    }
    let data = object(vec![
        ("pattern", Value::String(pattern.wire_name().into())),
        ("scheme", Value::String(scheme.to_string())),
        ("width", Value::U64(width as u64)),
        ("trials_requested", Value::U64(trials)),
        ("stats", stats_value(&partial.stats)),
        ("completed_blocks", Value::U64(done)),
        ("total_blocks", Value::U64(total)),
        ("cancelled", Value::Bool(partial.cancelled)),
        ("source", Value::String("monte-carlo".into())),
    ]);
    if partial.cancelled {
        Outcome::Degraded(
            data,
            format!("deadline expired after {done}/{total} blocks; partial estimate"),
        )
    } else {
        Outcome::Ok(data)
    }
}

/// Serve a `pattern` query for scheme `"adaptive"`: resolve the
/// controller's committed layout, answer **exactly** as the static path
/// for that layout would (bit-identical payload — the `adapt:stable-vs-
/// static` oracle holds the serve layer to this), then feed the measured
/// congestion back into the monitor. During a migration the committed
/// layout is still the *old* one, so in-flight swaps never leak a torn
/// hybrid into a response.
fn pattern_adaptive(
    pattern_str: &str,
    width: usize,
    trials: u64,
    seed: u64,
    token: &CancelToken,
    adapt: Option<&AdaptiveController>,
) -> Answer {
    let (ctl, pattern) = adaptive_target(adapt, pattern_str, width)?;
    let active = ctl.active().candidate;
    let outcome = match &active.kind {
        // The canonical scheme name round-trips through `Scheme::from_str`,
        // so the delegated payload is the one a static request produces.
        CandidateKind::Scheme(scheme) => {
            pattern_mc(pattern_str, &scheme.to_string(), width, trials, seed, token)?
        }
        // A synthesized shift table is a fixed layout; the payload's
        // `scheme` field carries the candidate name (`synth:…`), the only
        // name the layout has. The table was validated when the candidate
        // was built, so a rejection here is an internal invariant
        // violation, not a client error.
        CandidateKind::Table(layout) => match RowShift::ras_from(width, layout.clone()) {
            Ok(mapping) => {
                let domain = SeedDomain::new(seed);
                let partial = fixed_layout_congestion(&mapping, pattern, trials, &domain, token);
                mc_outcome(pattern, &active.name, width, trials, &partial)
            }
            Err(e) => Outcome::Failed(format!("active synthesized table rejected: {e}")),
        },
    };
    // Close the loop: the response's own mean congestion is the
    // observation. This may advance the epoch machine (and, under an
    // installed fail plan, panic at an `adapt.*` site) — by then the
    // payload above is computed, and a retried request recomputes it
    // deterministically from the same seed.
    if let Outcome::Ok(data) | Outcome::Degraded(data, _) = &outcome {
        let mean = data.get("stats").and_then(|s| s.get("mean"));
        if let Some(mean) = mean.and_then(Value::as_f64).filter(|m| m.is_finite()) {
            ctl.observe(pattern, mean);
        }
    }
    Ok(outcome)
}

/// The controller and parsed pattern a `scheme:"adaptive"` request is
/// served from, or the `bad_request` message: no controller on this
/// server, an unknown pattern, or a width other than the controller's
/// tile width.
fn adaptive_target<'a>(
    adapt: Option<&'a AdaptiveController>,
    pattern_str: &str,
    width: usize,
) -> Result<(&'a AdaptiveController, MatrixPattern), String> {
    let Some(ctl) = adapt else {
        return Err(
            "scheme 'adaptive' needs adaptive remapping enabled on this server \
             (start with --adapt)"
                .to_string(),
        );
    };
    let pattern: MatrixPattern = pattern_str.parse()?;
    if width != ctl.width() {
        return Err(format!(
            "scheme 'adaptive' serves the controller's tile width {}, got {width}",
            ctl.width()
        ));
    }
    Ok((ctl, pattern))
}

/// Run a forced epoch swap through the controller: the full protocol —
/// propose, migrate, commit, every failpoint, every ledger append.
fn adapt_force(adapt: Option<&AdaptiveController>, target: &str, steps: Option<u64>) -> Outcome {
    let Some(ctl) = adapt else {
        return Outcome::BadRequest(
            "adapt_force needs adaptive remapping enabled on this server (start with --adapt)"
                .to_string(),
        );
    };
    let steps = steps.unwrap_or(ctl.config().migrate_steps);
    match ctl.force(target, steps) {
        Ok(()) => {
            let active = ctl.active();
            Outcome::Ok(object(vec![
                ("forced", Value::Bool(true)),
                ("target", Value::String(target.to_string())),
                ("steps", Value::U64(steps)),
                ("phase", Value::String(ctl.phase_name().to_string())),
                ("scheme", Value::String(active.candidate.name)),
                ("epoch", Value::U64(active.epoch)),
            ]))
        }
        // A fault-aborted attempt rolled back cleanly and is worth a
        // retry; a refused target/phase is the client's to fix.
        Err(e) if e.contains("fault") || e.contains("durable") || e.contains("unflushed") => {
            Outcome::Failed(e)
        }
        Err(e) => Outcome::BadRequest(e),
    }
}

/// Evaluate exactly one 32-trial block of the decomposition `pattern`
/// uses over `trials` total trials, returning the raw accumulator.
///
/// No cancellation token: a block is 32 trials, the unit the deadline
/// machinery itself is built from — it either completes quickly or the
/// request deadline fails the whole job. Deterministic schemes
/// (xor/padded) sample nothing per trial and have no block
/// decomposition; asking for one is a contextual bad request.
#[allow(clippy::too_many_arguments)]
fn pattern_block(
    pattern_str: &str,
    scheme_str: &str,
    width: usize,
    trials: u64,
    block: u64,
    seed: u64,
    domain_state: Option<u64>,
) -> Answer {
    let pattern: MatrixPattern = pattern_str.parse()?;
    let scheme: Scheme = scheme_str.parse()?;
    if !matches!(scheme, Scheme::Raw | Scheme::Ras | Scheme::Rap) {
        return Err(format!(
            "scheme '{scheme}' is deterministic and has no Monte-Carlo block \
             decomposition; use 'pattern'"
        ));
    }
    // A raw domain state (from `SeedDomain::seed`) transports a *derived*
    // domain losslessly; the mixing `seed` form cannot express one.
    let domain = domain_state.map_or_else(|| SeedDomain::new(seed), SeedDomain::from_state);
    let stats = matrix_block_stats(scheme, pattern, width, trials, block, &domain);
    Ok(Outcome::Ok(object(vec![
        ("pattern", Value::String(pattern.wire_name().into())),
        ("scheme", Value::String(scheme.to_string())),
        ("width", Value::U64(width as u64)),
        ("trials", Value::U64(trials)),
        ("block", Value::U64(block)),
        ("total_blocks", Value::U64(blocks_for(trials))),
        ("raw_stats", raw_stats_value(&stats.to_raw())),
        ("source", Value::String("monte-carlo-block".into())),
    ])))
}

fn analyze(width: usize) -> Answer {
    let t1 = certify_theorem1(width).map_err(|e| e.to_string())?;
    let t2 = certify_theorem2(width).map_err(|e| e.to_string())?;
    let proven = t1.proven && t2.proven;
    Ok(Outcome::Ok(object(vec![
        ("width", Value::U64(width as u64)),
        ("theorems", Value::Array(vec![t1.to_value(), t2.to_value()])),
        ("proven", Value::Bool(proven)),
    ])))
}

fn transpose(kind_str: &str, scheme_str: &str, width: usize, latency: u64, seed: u64) -> Answer {
    let kind: TransposeKind = kind_str.parse()?;
    let scheme: Scheme = scheme_str.parse()?;
    check_xor_width(scheme, width)?;
    if width > MAX_TRANSPOSE_WIDTH {
        return Err(format!(
            "transpose simulates every DMM cycle; width is capped at \
             {MAX_TRANSPOSE_WIDTH}, got {width}"
        ));
    }
    let mut rng = SeedDomain::new(seed).rng(0);
    let mapping = build_mapping(scheme, &mut rng, width);
    let data: Vec<f64> = (0..width * width).map(|x| x as f64).collect();
    let run = run_transpose(kind, mapping.as_ref(), latency.max(1), &data);
    Ok(Outcome::Ok(object(vec![
        ("kind", Value::String(kind.to_string())),
        ("scheme", Value::String(run.scheme.clone())),
        ("width", Value::U64(width as u64)),
        ("latency", Value::U64(latency.max(1))),
        ("cycles", Value::U64(run.report.cycles)),
        ("read_congestion", Value::F64(run.read_congestion())),
        ("write_congestion", Value::F64(run.write_congestion())),
        ("verified", Value::Bool(run.verified)),
    ])))
}

fn synthesize_layout(workload_str: &str, mode: Mode, width: usize, seed: u64) -> Answer {
    let workload = rap_synthesize::parse_workload(workload_str, width)?;
    let synthesis = rap_synthesize::synthesize(&workload, mode, seed)?;
    // Every certificate the service emits is gated by the independent
    // checker; a rejection here is an internal invariant violation (the
    // search produced a bad certificate), not a client error.
    if let Err(e) = rap_synthesize::check_certificate(&synthesis.certificate) {
        return Ok(Outcome::Failed(format!(
            "synthesized certificate rejected by the independent checker: {e}"
        )));
    }
    let cert = &synthesis.certificate;
    Ok(Outcome::Ok(object(vec![
        ("mode", Value::String(cert.mode.clone())),
        ("width", Value::U64(cert.width as u64)),
        ("method", Value::String(cert.method.clone())),
        ("optimal", Value::Bool(cert.optimal)),
        ("objective", Value::U64(u64::from(cert.objective))),
        ("explored", Value::U64(synthesis.explored)),
        ("checked", Value::Bool(true)),
        ("certificate", cert.to_value()),
        ("source", Value::String("synthesis".into())),
    ])))
}

/// The analyzer-backed degraded path for `synthesize` requests: no layout
/// search runs; instead the prover certifies the workload under every
/// applicable *known* static scheme and the best (lowest worst-case
/// congestion) envelope is served.
///
/// Runs **outside** the failpoint-instrumented handler path on purpose —
/// the fallback must stay available precisely when handlers are failing.
///
/// # Errors
/// A `bad_request`-worthy message for a malformed workload spec or a
/// width the prover rejects.
pub fn degraded_synthesize(workload_str: &str, width: usize) -> Result<Value, String> {
    let workload = rap_synthesize::parse_workload(workload_str, width)?;
    let prover = rap_analyze::Prover::new(width).map_err(|e| e.to_string())?;
    let mut candidates = vec![Scheme::Padded, Scheme::Rap, Scheme::Ras, Scheme::Raw];
    if width.is_power_of_two() {
        candidates.push(Scheme::Xor);
    }
    let mut best: Option<(Scheme, u32, u32, Vec<Value>)> = None;
    for scheme in candidates {
        let mut hi = 0u32;
        let mut lo = 0u32;
        let mut plans = Vec::with_capacity(workload.plans.len());
        for plan in &workload.plans {
            let analysis = prover
                .analyze(&plan.warp, scheme)
                .map_err(|e| format!("plan `{}`: {e}", plan.name))?;
            hi = hi.max(analysis.hi);
            lo = lo.max(analysis.lo);
            plans.push(object(vec![
                ("plan", Value::String(plan.name.clone())),
                ("lo", Value::U64(u64::from(analysis.lo))),
                ("hi", Value::U64(u64::from(analysis.hi))),
            ]));
        }
        if best.as_ref().is_none_or(|(_, best_hi, ..)| hi < *best_hi) {
            best = Some((scheme, hi, lo, plans));
        }
    }
    let (scheme, hi, lo, plans) = best.ok_or_else(|| "empty workload".to_string())?;
    Ok(object(vec![
        ("scheme", Value::String(scheme.to_string())),
        ("width", Value::U64(width as u64)),
        ("lo", Value::U64(u64::from(lo))),
        ("hi", Value::U64(u64::from(hi))),
        ("plans", Value::Array(plans)),
        (
            "reason",
            Value::String(format!(
                "layout search shed by the circuit breaker; serving the best \
                 known static scheme's certified bound ({scheme}: worst-case \
                 congestion {hi})"
            )),
        ),
        ("source", Value::String("static-analyzer".into())),
    ]))
}

/// The analyzer-backed degraded path for `pattern` requests: a certified
/// `[lo, hi]` congestion envelope in place of the Monte-Carlo estimate.
/// For `scheme:"adaptive"` the envelope is the active candidate's: its
/// name, its certified bound as `hi`, and the prover's `lo` for a static
/// scheme (1 for a synthesized table).
///
/// Runs **outside** the failpoint-instrumented handler path on purpose —
/// the fallback must stay available precisely when handlers are failing.
///
/// # Errors
/// A `bad_request`-worthy message for unknown pattern/scheme names, a
/// width the prover rejects, or an adaptive request [`execute`] would
/// also refuse.
pub fn degraded_pattern(
    pattern_str: &str,
    scheme_str: &str,
    width: usize,
    adapt: Option<&AdaptiveController>,
) -> Result<Value, String> {
    let (pattern, scheme_name, lo, hi, reason) = if scheme_str.eq_ignore_ascii_case("adaptive") {
        let (ctl, pattern) = adaptive_target(adapt, pattern_str, width)?;
        let active = ctl.active().candidate;
        let hi = active.bound(pattern);
        // A synthesized table has no prover verdict; congestion is ≥ 1.
        let lo = match active.kind {
            CandidateKind::Scheme(scheme) => {
                fallback_bounds(scheme, pattern, width)
                    .map_err(|e| e.to_string())?
                    .lo
            }
            CandidateKind::Table(_) => 1,
        };
        let reason = format!(
            "{} family under the active candidate '{}': certified worst case {hi}",
            pattern.wire_name(),
            active.name
        );
        (pattern, active.name, lo, hi, reason)
    } else {
        let pattern: MatrixPattern = pattern_str.parse()?;
        let scheme: Scheme = scheme_str.parse()?;
        check_xor_width(scheme, width)?;
        let a = fallback_bounds(scheme, pattern, width).map_err(|e| e.to_string())?;
        (pattern, scheme.to_string(), a.lo, a.hi, a.reason)
    };
    Ok(object(vec![
        ("pattern", Value::String(pattern.wire_name().into())),
        ("scheme", Value::String(scheme_name)),
        ("width", Value::U64(width as u64)),
        ("lo", Value::U64(u64::from(lo))),
        ("hi", Value::U64(u64::from(hi))),
        ("reason", Value::String(reason)),
        ("source", Value::String("static-analyzer".into())),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    fn never() -> CancelToken {
        CancelToken::never()
    }

    /// [`execute`] holding the read side of the crate's chaos lock, so no
    /// other test's fail plan fires inside it.
    fn exec(cmd: &Command, token: &CancelToken, adapt: Option<&AdaptiveController>) -> Outcome {
        let _calm = crate::chaos_lock::handler();
        execute(cmd, token, adapt)
    }

    #[test]
    fn layout_renders_for_every_scheme() {
        for scheme in ["raw", "ras", "rap", "xor", "padded"] {
            let out = exec(
                &Command::Layout {
                    scheme: scheme.into(),
                    width: 8,
                    seed: 1,
                },
                &never(),
                None,
            );
            match out {
                Outcome::Ok(data) => {
                    let Some(s) = data.get("rendered").and_then(Value::as_str) else {
                        panic!("rendered must be a string")
                    };
                    assert!(s.contains("layout"), "{scheme}: {s}");
                }
                other => panic!("{scheme}: {other:?}"),
            }
        }
    }

    #[test]
    fn semantic_errors_are_bad_requests() {
        let bad_scheme = exec(
            &Command::Layout {
                scheme: "zzz".into(),
                width: 8,
                seed: 1,
            },
            &never(),
            None,
        );
        assert!(matches!(bad_scheme, Outcome::BadRequest(ref e) if e.contains("zzz")));
        let xor_np2 = exec(
            &Command::Layout {
                scheme: "xor".into(),
                width: 12,
                seed: 1,
            },
            &never(),
            None,
        );
        assert!(matches!(xor_np2, Outcome::BadRequest(ref e) if e.contains("power-of-two")));
        let big_transpose = exec(
            &Command::Transpose {
                kind: "crsw".into(),
                scheme: "rap".into(),
                width: MAX_TRANSPOSE_WIDTH + 1,
                latency: 8,
                seed: 1,
            },
            &never(),
            None,
        );
        assert!(matches!(big_transpose, Outcome::BadRequest(ref e) if e.contains("capped")));
    }

    #[test]
    fn congestion_counts_banks() {
        let out = exec(
            &Command::Congestion {
                width: 4,
                addresses: vec![0, 4, 8, 1],
            },
            &never(),
            None,
        );
        match out {
            Outcome::Ok(data) => {
                assert_eq!(data.get("congestion"), Some(&Value::U64(3)));
                assert_eq!(data.get("conflict_free"), Some(&Value::Bool(false)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn pattern_matches_the_plain_engine_when_uncancelled() {
        let out = exec(
            &Command::Pattern {
                pattern: "stride".into(),
                scheme: "rap".into(),
                width: 16,
                trials: 64,
                seed: 7,
            },
            &never(),
            None,
        );
        match out {
            Outcome::Ok(data) => {
                let stats = data.get("stats").unwrap();
                assert_eq!(stats.get("mean"), Some(&Value::F64(1.0)), "Theorem 2");
                assert_eq!(data.get("cancelled"), Some(&Value::Bool(false)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn pattern_expired_deadline_times_out_or_degrades() {
        let token = CancelToken::with_deadline(Instant::now());
        let out = exec(
            &Command::Pattern {
                pattern: "random".into(),
                scheme: "ras".into(),
                width: 32,
                trials: 10_000,
                seed: 7,
            },
            &token,
            None,
        );
        match out {
            Outcome::TimedOut(_) => {}
            Outcome::Degraded(data, _) => {
                assert_eq!(data.get("cancelled"), Some(&Value::Bool(true)));
            }
            other => panic!("expected timeout/degraded, got {other:?}"),
        }
    }

    #[test]
    fn deterministic_schemes_answer_pattern_queries() {
        let out = exec(
            &Command::Pattern {
                pattern: "stride".into(),
                scheme: "padded".into(),
                width: 8,
                trials: 4,
                seed: 7,
            },
            &never(),
            None,
        );
        match out {
            Outcome::Ok(data) => {
                assert_eq!(
                    data.get("stats").and_then(|s| s.get("mean")),
                    Some(&Value::F64(1.0))
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn pattern_block_merge_matches_the_plain_engine_bit_for_bit() {
        let trials = 77; // 3 blocks, ragged tail
        let mut merged = OnlineStats::new();
        for block in 0..rap_access::montecarlo::blocks_for(trials) {
            let out = exec(
                &Command::PatternBlock {
                    pattern: "random".into(),
                    scheme: "rap".into(),
                    width: 16,
                    trials,
                    block,
                    seed: 2014,
                    domain_state: None,
                },
                &never(),
                None,
            );
            let Outcome::Ok(data) = out else {
                panic!("{out:?}");
            };
            let raw = data.get("raw_stats").unwrap();
            let bits = |key: &str| {
                raw.get(key)
                    .and_then(Value::as_u64)
                    .unwrap_or_else(|| panic!("{key}: {raw:?}"))
            };
            merged.merge(&OnlineStats::from_raw(&rap_stats::RawOnlineStats {
                count: bits("count"),
                mean_bits: bits("mean_bits"),
                m2_bits: bits("m2_bits"),
                min_bits: bits("min_bits"),
                max_bits: bits("max_bits"),
            }));
        }
        let full = rap_access::montecarlo::matrix_congestion(
            rap_core::Scheme::Rap,
            MatrixPattern::Random,
            16,
            trials,
            &SeedDomain::new(2014),
        );
        assert_eq!(
            merged.to_raw(),
            full.to_raw(),
            "wire round trip is lossless"
        );
    }

    #[test]
    fn pattern_block_domain_state_ships_derived_domains_bit_exactly() {
        // A Table II-style derived cell domain, unreachable through the
        // mixing `seed` field.
        let cell = SeedDomain::new(2014)
            .child("table2")
            .child("random")
            .child("RAP")
            .child_idx(16);
        let out = exec(
            &Command::PatternBlock {
                pattern: "random".into(),
                scheme: "rap".into(),
                width: 16,
                trials: 32,
                block: 0,
                seed: 0,
                domain_state: Some(cell.seed()),
            },
            &never(),
            None,
        );
        let Outcome::Ok(data) = out else {
            panic!("{out:?}");
        };
        let local = matrix_block_stats(
            rap_core::Scheme::Rap,
            MatrixPattern::Random,
            16,
            32,
            0,
            &cell,
        );
        let raw = data.get("raw_stats").unwrap();
        assert_eq!(
            raw.get("mean_bits"),
            Some(&Value::U64(local.to_raw().mean_bits))
        );
        assert_eq!(
            raw.get("m2_bits"),
            Some(&Value::U64(local.to_raw().m2_bits))
        );
    }

    #[test]
    fn pattern_block_rejects_deterministic_schemes() {
        let out = exec(
            &Command::PatternBlock {
                pattern: "stride".into(),
                scheme: "padded".into(),
                width: 8,
                trials: 32,
                block: 0,
                seed: 7,
                domain_state: None,
            },
            &never(),
            None,
        );
        match out {
            Outcome::BadRequest(msg) => assert!(msg.contains("deterministic"), "{msg}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn analyze_certifies_both_theorems() {
        let out = exec(&Command::Analyze { width: 8 }, &never(), None);
        match out {
            Outcome::Ok(data) => assert_eq!(data.get("proven"), Some(&Value::Bool(true))),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn transpose_reports_cycles_and_verifies() {
        let out = exec(
            &Command::Transpose {
                kind: "crsw".into(),
                scheme: "rap".into(),
                width: 8,
                latency: 2,
                seed: 1,
            },
            &never(),
            None,
        );
        match out {
            Outcome::Ok(data) => {
                assert_eq!(data.get("verified"), Some(&Value::Bool(true)));
                assert_eq!(data.get("write_congestion"), Some(&Value::F64(1.0)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn synthesize_returns_a_checked_certificate() {
        let out = exec(
            &Command::Synthesize {
                workload: "column:0;contiguous:0".into(),
                mode: Mode::Sigma,
                width: 4,
                seed: 2014,
            },
            &never(),
            None,
        );
        match out {
            Outcome::Ok(data) => {
                assert_eq!(data.get("checked"), Some(&Value::Bool(true)));
                assert_eq!(data.get("optimal"), Some(&Value::Bool(true)));
                // Columns are conflict-free under every permutation shift
                // and rows under any shift at all, so the exhaustive
                // search must certify objective 1.
                assert_eq!(data.get("objective"), Some(&Value::U64(1)));
                let cert = data.get("certificate").unwrap();
                assert_eq!(cert.get("width"), Some(&Value::U64(4)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn synthesize_semantic_errors_are_bad_requests() {
        let bad_plan = exec(
            &Command::Synthesize {
                workload: "column:0;bogus:9".into(),
                mode: Mode::Sigma,
                width: 4,
                seed: 1,
            },
            &never(),
            None,
        );
        assert!(
            matches!(bad_plan, Outcome::BadRequest(ref e) if e.contains("plan 2 of 2")),
            "{bad_plan:?}"
        );
    }

    #[test]
    fn degraded_synthesize_serves_best_known_scheme() {
        // A pure column workload: Padded certifies congestion 1, so the
        // degraded path must pick it over RAW's worst-case w.
        let data = degraded_synthesize("column:0", 8).unwrap();
        assert_eq!(data.get("hi"), Some(&Value::U64(1)));
        assert_eq!(data.get("scheme"), Some(&Value::String("Padded".into())));
        assert_eq!(
            data.get("source").and_then(Value::as_str),
            Some("static-analyzer")
        );
        assert!(degraded_synthesize("bogus:1", 8).is_err());
        assert!(degraded_synthesize("column:0", 0).is_err());
    }

    #[test]
    fn degraded_synthesize_ignores_handler_failpoints() {
        use rap_resilience::{FailPlan, Fault, HitSchedule};
        let _plan = crate::chaos_lock::plan();
        let guard = rap_resilience::install(FailPlan::new(1).rule(
            "serve.handler",
            Fault::Panic,
            HitSchedule::Always,
        ));
        assert!(degraded_synthesize("column:0;diagonal:1", 8).is_ok());
        drop(guard);
    }

    #[test]
    fn degraded_pattern_returns_certified_bounds() {
        let data = degraded_pattern("stride", "rap", 16, None).unwrap();
        assert_eq!(data.get("lo"), Some(&Value::U64(1)));
        assert_eq!(data.get("hi"), Some(&Value::U64(1)), "Theorem 2 bound");
        let raw = degraded_pattern("stride", "raw", 16, None).unwrap();
        assert_eq!(raw.get("hi"), Some(&Value::U64(16)));
        assert!(degraded_pattern("zigzag", "rap", 16, None).is_err());
        assert!(degraded_pattern("stride", "xor", 12, None)
            .unwrap_err()
            .contains("power-of-two"));
    }

    /// Every Table II pattern's wire spellings — the `adapt_status` class
    /// name and the degraded `pattern` echo — parse back to the pattern.
    #[test]
    fn wire_pattern_names_parse_back() {
        let status = controller(16, "rap").status().to_value();
        let classes = status.get("classes").and_then(Value::as_array).unwrap();
        assert_eq!(classes.len(), MatrixPattern::table2().len());
        for (pattern, class) in MatrixPattern::table2().into_iter().zip(classes) {
            let name = class.get("class").and_then(Value::as_str).unwrap();
            assert_eq!(name.parse(), Ok(pattern), "{name}");
            let data = degraded_pattern(pattern.name(), "rap", 16, None).unwrap();
            let echoed = data.get("pattern").and_then(Value::as_str).unwrap();
            assert_eq!(echoed.parse(), Ok(pattern), "{echoed}");
        }
    }

    #[test]
    fn adaptive_degrades_to_the_active_candidate_bound() {
        let err = degraded_pattern("stride", "adaptive", 8, None).unwrap_err();
        assert!(err.contains("start with --adapt"), "{err}");
        // A synthesized table: no prover lower bound, its exact bound as `hi`.
        let (ctl, synth) = synth_controller();
        let active = ctl.active().candidate;
        for pattern in MatrixPattern::table2() {
            let data = degraded_pattern(pattern.wire_name(), "adaptive", 8, Some(&ctl)).unwrap();
            let field = |key| data.get(key).and_then(Value::as_u64);
            assert_eq!(data.get("scheme").and_then(Value::as_str), Some(&*synth));
            assert_eq!(field("lo"), Some(1), "{data:?}");
            assert_eq!(field("hi"), Some(u64::from(active.bound(pattern))));
        }
    }

    fn controller(width: usize, initial: &str) -> rap_adapt::AdaptiveController {
        rap_adapt::AdaptiveController::new(rap_adapt::AdaptConfig {
            width,
            initial: initial.to_string(),
            start_frozen: true, // no organic swaps under test traffic
            ..rap_adapt::AdaptConfig::default()
        })
        .expect("in-memory controller")
    }

    #[test]
    fn adaptive_pattern_is_bit_identical_to_the_static_path() {
        let ctl = controller(16, "rap");
        for pattern in MatrixPattern::table2().map(MatrixPattern::wire_name) {
            let cmd = |scheme: &str| Command::Pattern {
                pattern: pattern.into(),
                scheme: scheme.into(),
                width: 16,
                trials: 64,
                seed: 7,
            };
            let adaptive = exec(&cmd("adaptive"), &never(), Some(&ctl));
            let static_run = exec(&cmd("rap"), &never(), None);
            assert_eq!(adaptive, static_run, "{pattern}: payloads must match");
        }
        // The controller really observed the served traffic.
        let status = ctl.status();
        let samples: u64 = status.classes.iter().map(|(_, w, _)| w.samples).sum();
        assert_eq!(samples, 4, "one observation per adaptive request");
    }

    #[test]
    fn adaptive_pattern_needs_a_controller_and_the_right_width() {
        let cmd = Command::Pattern {
            pattern: "stride".into(),
            scheme: "adaptive".into(),
            width: 16,
            trials: 8,
            seed: 1,
        };
        let out = exec(&cmd, &never(), None);
        assert!(matches!(out, Outcome::BadRequest(ref e) if e.contains("--adapt")));
        let ctl = controller(8, "rap");
        let out = exec(&cmd, &never(), Some(&ctl));
        assert!(
            matches!(out, Outcome::BadRequest(ref e) if e.contains("tile width 8")),
            "{out:?}"
        );
    }

    #[test]
    fn adapt_force_runs_the_epoch_protocol() {
        let ctl = controller(16, "rap");
        let out = exec(
            &Command::AdaptForce {
                target: "padded".into(),
                steps: Some(0),
            },
            &never(),
            Some(&ctl),
        );
        match out {
            Outcome::Ok(data) => {
                assert_eq!(data.get("scheme"), Some(&Value::String("padded".into())));
                assert_eq!(data.get("phase"), Some(&Value::String("stable".into())));
                assert_eq!(data.get("epoch"), Some(&Value::U64(1)));
            }
            other => panic!("{other:?}"),
        }
        // After the commit, the adaptive path serves the new layout.
        let adaptive = exec(
            &Command::Pattern {
                pattern: "stride".into(),
                scheme: "adaptive".into(),
                width: 16,
                trials: 8,
                seed: 7,
            },
            &never(),
            Some(&ctl),
        );
        let fresh = exec(
            &Command::Pattern {
                pattern: "stride".into(),
                scheme: "padded".into(),
                width: 16,
                trials: 8,
                seed: 7,
            },
            &never(),
            None,
        );
        assert_eq!(
            adaptive, fresh,
            "post-commit responses track the new layout"
        );
        // Refusals are client errors, not infrastructure failures.
        let out = exec(
            &Command::AdaptForce {
                target: "bogus".into(),
                steps: None,
            },
            &never(),
            Some(&ctl),
        );
        assert!(matches!(out, Outcome::BadRequest(ref e) if e.contains("unknown candidate")));
        let out = exec(
            &Command::AdaptForce {
                target: "rap".into(),
                steps: None,
            },
            &never(),
            None,
        );
        assert!(matches!(out, Outcome::BadRequest(ref e) if e.contains("--adapt")));
    }

    /// A width-8 controller whose committed layout is a synthesized
    /// shift table, and that table's candidate name.
    fn synth_controller() -> (AdaptiveController, String) {
        let ctl = rap_adapt::AdaptiveController::new(rap_adapt::AdaptConfig {
            width: 8,
            initial: "raw".to_string(),
            synth_workload: Some("column:0;contiguous:0".to_string()),
            start_frozen: true,
            ..rap_adapt::AdaptConfig::default()
        })
        .expect("controller with synthesized candidates");
        let synth = ctl
            .status()
            .candidates
            .iter()
            .find(|(name, ..)| name.starts_with("synth:"))
            .map(|(name, ..)| name.clone())
            .expect("a synthesized candidate");
        let out = exec(
            &Command::AdaptForce {
                target: synth.clone(),
                steps: Some(0),
            },
            &never(),
            Some(&ctl),
        );
        assert!(matches!(out, Outcome::Ok(_)), "{out:?}");
        (ctl, synth)
    }

    #[test]
    fn adaptive_serves_synthesized_tables_deterministically() {
        let (ctl, synth) = synth_controller();
        let run = |seed: u64| {
            exec(
                &Command::Pattern {
                    pattern: "contiguous".into(),
                    scheme: "adaptive".into(),
                    width: 8,
                    trials: 4,
                    seed,
                },
                &never(),
                Some(&ctl),
            )
        };
        let (a, b) = (run(3), run(3));
        assert_eq!(a, b, "table evaluation is deterministic");
        match a {
            Outcome::Ok(data) => {
                assert_eq!(data.get("scheme"), Some(&Value::String(synth)));
                // The synthesized table was optimized for this workload:
                // contiguous rows stay conflict-free.
                assert_eq!(
                    data.get("stats").and_then(|s| s.get("mean")),
                    Some(&Value::F64(1.0))
                );
            }
            other => panic!("{other:?}"),
        }
    }

    /// A token that fired before the request ran: every fixed layout,
    /// sampled (random) or single-trial (stride), completes nothing and
    /// the request times out instead of answering an empty estimate.
    #[test]
    fn pre_cancelled_fixed_layouts_time_out() {
        let token = CancelToken::never();
        token.cancel();
        let (ctl, _) = synth_controller();
        for pattern in ["stride", "random"] {
            let cmd = |scheme: &str| Command::Pattern {
                pattern: pattern.into(),
                scheme: scheme.into(),
                width: 8,
                trials: 16,
                seed: 7,
            };
            for (scheme, adapt) in [("xor", None), ("padded", None), ("adaptive", Some(&ctl))] {
                let out = exec(&cmd(scheme), &token, adapt);
                assert!(
                    matches!(out, Outcome::TimedOut(_)),
                    "{pattern} under {scheme}: {out:?}"
                );
            }
        }
    }

    #[test]
    fn handler_failpoint_injects_all_fault_kinds() {
        use rap_resilience::{FailPlan, Fault, HitSchedule};
        let _plan = crate::chaos_lock::plan();
        let cmd = Command::Analyze { width: 8 };

        let guard = rap_resilience::install(FailPlan::new(1).rule(
            "serve.handler",
            Fault::Enospc,
            HitSchedule::Always,
        ));
        let out = execute(&cmd, &never(), None);
        assert!(matches!(out, Outcome::Failed(ref e) if e.contains("ENOSPC")));
        drop(guard);

        let guard = rap_resilience::install(FailPlan::new(1).rule(
            "serve.handler",
            Fault::Panic,
            HitSchedule::Always,
        ));
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let caught = std::panic::catch_unwind(|| execute(&cmd, &CancelToken::never(), None));
        std::panic::set_hook(prev);
        assert!(caught.is_err(), "panic failpoint must unwind");
        drop(guard);

        // Fallback bounds stay available while the handler site is hot.
        let guard = rap_resilience::install(FailPlan::new(1).rule(
            "serve.handler",
            Fault::Panic,
            HitSchedule::Always,
        ));
        assert!(degraded_pattern("stride", "rap", 16, None).is_ok());
        drop(guard);
    }
}
