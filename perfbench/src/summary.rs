//! Order statistics over timing samples.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `samples`, linearly interpolated
/// between closest ranks. `NaN` for an empty slice.
#[must_use]
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `samples`.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Median per-call cost of `op`, in nanoseconds: `rounds` timed batches
/// of `batch` calls each, so that calls far below the clock's resolution
/// are still measured.
pub fn per_call_ns(rounds: usize, batch: usize, mut op: impl FnMut()) -> f64 {
    let mut per_call = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let start = std::time::Instant::now();
        for _ in 0..batch {
            op();
        }
        per_call.push(start.elapsed().as_nanos() as f64 / batch as f64);
    }
    median(&per_call)
}

/// One completed operation of a timed loop.
#[derive(Debug, Clone, Copy, Default)]
pub struct Event {
    /// Completion time, seconds since the loop started.
    pub at_s: f64,
    /// The operation's latency, µs.
    pub latency_us: f64,
    /// Monte-Carlo trials it completed.
    pub trials: u64,
    /// Monte-Carlo blocks it completed.
    pub blocks: u64,
}

/// Loop statistics as medians over consecutive windows, so that a burst
/// of load from outside the benchmark moves one window, not the result.
#[derive(Debug, Clone, Copy, Default)]
pub struct Windowed {
    /// Median over windows of the window's latency median, µs.
    pub p50_us: f64,
    /// Median over windows of the window's 90th latency percentile, µs.
    pub p90_us: f64,
    /// Median over windows of operations per second.
    pub ops_per_s: f64,
    /// Median over windows of trials per second.
    pub trials_per_s: f64,
    /// Median over windows of blocks per second.
    pub blocks_per_s: f64,
}

/// Split `events` of a loop that ran `elapsed_s` seconds into windows
/// of about `window_s` seconds (at least one) and take medians.
#[must_use]
pub fn windowed(events: &[Event], elapsed_s: f64, window_s: f64) -> Windowed {
    let n = ((elapsed_s / window_s).round() as usize).max(1);
    let len = elapsed_s / n as f64;
    let mut buckets: Vec<Vec<&Event>> = vec![Vec::new(); n];
    for e in events {
        buckets[((e.at_s / len) as usize).min(n - 1)].push(e);
    }
    let per = |f: &dyn Fn(&[&Event]) -> f64| -> f64 {
        median(&buckets.iter().map(|b| f(b)).collect::<Vec<_>>())
    };
    let lat =
        |b: &[&Event], q: f64| quantile(&b.iter().map(|e| e.latency_us).collect::<Vec<_>>(), q);
    Windowed {
        p50_us: per(&|b| lat(b, 0.5)),
        p90_us: per(&|b| lat(b, 0.9)),
        ops_per_s: per(&|b| b.len() as f64 / len),
        trials_per_s: per(&|b| b.iter().map(|e| e.trials).sum::<u64>() as f64 / len),
        blocks_per_s: per(&|b| b.iter().map(|e| e.blocks).sum::<u64>() as f64 / len),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert!((quantile(&v, 0.9) - 3.7).abs() < 1e-12);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn windows_take_medians_of_per_window_figures() {
        // Three 1-second windows; the middle one is disturbed.
        let mut events = Vec::new();
        for (w, (count, latency)) in [(10, 100.0), (2, 900.0), (10, 110.0)]
            .into_iter()
            .enumerate()
        {
            for i in 0..count {
                events.push(Event {
                    at_s: w as f64 + (i as f64 + 0.5) / count as f64,
                    latency_us: latency,
                    trials: 4,
                    blocks: 1,
                });
            }
        }
        let w = windowed(&events, 3.0, 1.0);
        assert_eq!(w.p50_us, 110.0);
        assert_eq!(w.ops_per_s, 10.0);
        assert_eq!(w.trials_per_s, 40.0);
        assert_eq!(w.blocks_per_s, 10.0);
    }
}
