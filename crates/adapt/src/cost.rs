//! The migration cost model: when does a swap *pay off*?
//!
//! DReAM-style reasoning ported to shared-memory remapping: changing the
//! active layout means re-arranging a `w × w` tile (amortized re-layout
//! cost, proportional to the cell count), and buys a congestion
//! reduction on every future request over a configurable horizon. The
//! controller proposes a swap only when
//!
//! ```text
//! projected_savings(horizon) > migration_cost + margin · horizon
//! ```
//!
//! Savings are computed *conservatively*: the projected congestion of a
//! candidate on a class is its **certified worst-case bound** — never an
//! optimistic estimate — weighted by the observed traffic mix. The
//! observed side uses the exact windowed means. A candidate therefore
//! only wins when its guaranteed worst case beats what the live traffic
//! is actually experiencing.

use crate::candidates::Candidate;
use crate::monitor::{ClassWindow, CLASSES};
use rap_access::MatrixPattern;

/// Tunable knobs of the cost model. All fields are plain data so the
/// CLI and serve config can construct it directly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Cost of re-laying-out one cell, in the same unit as congestion
    /// (bank-conflict equivalents). The full migration costs
    /// `relayout_cost_per_cell · w²`.
    pub relayout_cost_per_cell: f64,
    /// Number of future requests the savings are projected over.
    pub horizon: u64,
    /// Per-request congestion improvement that must remain after the
    /// migration cost is paid (hysteresis against flapping).
    pub margin: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            relayout_cost_per_cell: 0.25,
            horizon: 4096,
            margin: 0.25,
        }
    }
}

/// The verdict for one candidate against the observed traffic.
#[derive(Debug, Clone, PartialEq)]
pub struct SwapVerdict {
    /// Candidate name.
    pub candidate: String,
    /// Traffic-weighted observed congestion per request.
    pub observed: f64,
    /// Traffic-weighted projected congestion per request under the
    /// candidate (certified bounds, capped by the observation).
    pub projected: f64,
    /// `(observed − projected) · horizon`.
    pub savings: f64,
    /// `relayout_cost_per_cell · w²`.
    pub migration_cost: f64,
    /// True when the swap pays off under the model.
    pub pays_off: bool,
}

impl CostModel {
    /// Migration cost of re-laying-out a `width × width` tile.
    #[must_use]
    pub fn migration_cost(&self, width: usize) -> f64 {
        self.relayout_cost_per_cell * (width as f64) * (width as f64)
    }

    /// Evaluate `candidate` against the observed per-class windows.
    ///
    /// `windows` is in [`MatrixPattern::table2`] order. Classes with no
    /// samples contribute nothing to either side. A candidate's
    /// projected congestion on a class is `min(bound, observed_mean)` —
    /// the bound is a worst case, so if traffic is *already* below it,
    /// swapping cannot make that class worse than it is.
    #[must_use]
    pub fn evaluate(
        &self,
        candidate: &Candidate,
        windows: &[ClassWindow; CLASSES],
        width: usize,
    ) -> SwapVerdict {
        let mut total_samples = 0.0;
        let mut observed_sum = 0.0;
        let mut projected_sum = 0.0;
        for (class, w) in MatrixPattern::table2().into_iter().zip(windows) {
            if w.samples == 0 {
                continue;
            }
            let weight = w.samples as f64;
            let bound = f64::from(candidate.bound(class));
            total_samples += weight;
            observed_sum += weight * w.mean;
            projected_sum += weight * bound.min(w.mean);
        }
        let (observed, projected) = if total_samples > 0.0 {
            (observed_sum / total_samples, projected_sum / total_samples)
        } else {
            (0.0, 0.0)
        };
        let savings = (observed - projected) * self.horizon as f64;
        let migration_cost = self.migration_cost(width);
        let pays_off = savings > migration_cost + self.margin * self.horizon as f64;
        SwapVerdict {
            candidate: candidate.name.clone(),
            observed,
            projected,
            savings,
            migration_cost,
            pays_off,
        }
    }

    /// Pick the best paying-off candidate (smallest projected congestion,
    /// ties broken by name for determinism), excluding `current`.
    #[must_use]
    pub fn best_swap(
        &self,
        current: &str,
        candidates: &[Candidate],
        windows: &[ClassWindow; CLASSES],
        width: usize,
    ) -> Option<SwapVerdict> {
        candidates
            .iter()
            .filter(|c| c.name != current)
            .map(|c| self.evaluate(c, windows, width))
            .filter(|v| v.pays_off)
            .min_by(|a, b| {
                a.projected
                    .total_cmp(&b.projected)
                    .then_with(|| a.candidate.cmp(&b.candidate))
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::standard_candidates;
    use crate::monitor::CongestionMonitor;

    fn windows_with_stride(mean: f64, samples: u64) -> [ClassWindow; CLASSES] {
        let m = CongestionMonitor::new(samples.max(1) as usize, 0.5);
        for _ in 0..samples {
            m.observe(MatrixPattern::Stride, mean);
        }
        m.windows()
    }

    #[test]
    fn stride_storm_on_raw_pays_off_to_swap() {
        let width = 16;
        let candidates = standard_candidates(width);
        let model = CostModel {
            relayout_cost_per_cell: 0.25,
            horizon: 4096,
            margin: 0.25,
        };
        // Raw under pure stride traffic: observed congestion = w.
        let windows = windows_with_stride(16.0, 64);
        let verdict = model
            .best_swap("raw", &candidates, &windows, width)
            .unwrap();
        // Every alternative certifies stride ≤ small constant; the best
        // projected is 1 (rap/padded/xor at power-of-two width).
        assert!(verdict.pays_off);
        assert!((verdict.projected - 1.0).abs() < 1e-9, "{verdict:?}");
        assert!(verdict.savings > verdict.migration_cost);
    }

    #[test]
    fn quiet_traffic_never_pays_off() {
        let width = 16;
        let candidates = standard_candidates(width);
        let model = CostModel::default();
        // Congestion already at 1: no candidate can beat it.
        let windows = windows_with_stride(1.0, 64);
        assert!(model
            .best_swap("rap", &candidates, &windows, width)
            .is_none());
    }

    #[test]
    fn empty_windows_never_pay_off() {
        let width = 8;
        let candidates = standard_candidates(width);
        let model = CostModel::default();
        let windows = windows_with_stride(0.0, 0);
        assert!(model
            .best_swap("raw", &candidates, &windows, width)
            .is_none());
    }

    #[test]
    fn margin_provides_hysteresis() {
        let width = 4;
        let candidates = standard_candidates(width);
        // Observed stride congestion 2.0 on raw (bound 4): an
        // improvement of ≤1 per request is inside the margin.
        let windows = windows_with_stride(2.0, 32);
        let model = CostModel {
            relayout_cost_per_cell: 0.0,
            horizon: 100,
            margin: 1.5,
        };
        assert!(model
            .best_swap("raw", &candidates, &windows, width)
            .is_none());
        let eager = CostModel {
            relayout_cost_per_cell: 0.0,
            horizon: 100,
            margin: 0.1,
        };
        assert!(eager
            .best_swap("raw", &candidates, &windows, width)
            .is_some());
    }
}
