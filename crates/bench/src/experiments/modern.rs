//! Experiment A7 — RAP vs the modern deterministic baselines (extension
//! beyond the paper).
//!
//! Today's GPU libraries avoid bank conflicts with deterministic layouts:
//! XOR swizzling (CUTLASS) and `+1` padding. On the paper's fixed
//! patterns they match RAP; this experiment quantifies where they differ:
//!
//! * **storage**: padding wastes `w − 1` words per matrix; XOR and RAP
//!   are in-place;
//! * **state**: XOR/padding store nothing; RAP stores `w` shifts (packed
//!   into ⌈w/6⌉ registers at w = 32);
//! * **worst case**: XOR/padding are public and fixed, so an
//!   instance-blind adversary achieves congestion `w` against them with
//!   no information; RAP's expectation stays `O(log w/ log log w)` for
//!   *every* pattern because `σ` is secret.

use rap_access::matrix::warp_congestion;
use rap_access::montecarlo::{matrix_congestion, pattern_congestion};
use rap_access::{CancelToken, MatrixPattern};
use rap_core::modern::{blind_adversary, build_mapping};
use rap_core::Scheme;
use rap_stats::{CellSummary, ExperimentRecord, OnlineStats, SeedDomain};
use rap_transpose::{run_transpose, TransposeKind};

/// One (pattern, scheme) measurement plus the scheme's static properties.
#[derive(Debug, Clone)]
pub struct ModernCell {
    /// Row label.
    pub row: String,
    /// Scheme.
    pub scheme: Scheme,
    /// Measured value (congestion or cycles or words).
    pub stats: OnlineStats,
}

/// Run the comparison at width `w`.
#[must_use]
pub fn run(w: usize, trials: u64, seed: u64) -> Vec<ModernCell> {
    let domain = SeedDomain::new(seed).child("a7");
    let mut cells = Vec::new();

    // Congestion rows. The deterministic layouts draw their pattern
    // instances from the `modern` child stream.
    let never = CancelToken::never();
    for pattern in MatrixPattern::table2() {
        for scheme in Scheme::extended() {
            let stream = match scheme {
                Scheme::Raw | Scheme::Ras | Scheme::Rap => domain,
                Scheme::Xor | Scheme::Padded => domain.child("modern"),
            };
            let run = pattern_congestion(scheme, pattern, w, trials, &stream, &never);
            cells.push(ModernCell {
                row: format!("{pattern} congestion"),
                scheme,
                stats: run.stats,
            });
        }
    }

    // Blind-adversary row: deterministic schemes are solved outright;
    // randomized ones face the strongest blind pattern (the diagonal).
    for scheme in Scheme::extended() {
        let mut stats = OnlineStats::new();
        match blind_adversary(scheme, w, 0) {
            Some(warp) => {
                let mut rng = domain.child("adv").rng(0);
                let mapping = build_mapping(scheme, &mut rng, w);
                stats.push_u32(warp_congestion(mapping.as_ref(), &warp));
            }
            None => {
                stats.merge(&matrix_congestion(
                    scheme,
                    MatrixPattern::Diagonal,
                    w,
                    trials,
                    &domain.child("adv-blind"),
                ));
            }
        }
        cells.push(ModernCell {
            row: "blind adversary congestion".to_string(),
            scheme,
            stats,
        });
    }

    // Transpose timing row (CRSW on the DMM, latency 8).
    let data: Vec<f64> = (0..w * w).map(|x| x as f64).collect();
    for scheme in Scheme::extended() {
        let instances = if matches!(scheme, Scheme::Ras | Scheme::Rap) {
            15
        } else {
            1
        };
        let mut stats = OnlineStats::new();
        for inst in 0..instances {
            let mut rng = domain.child("transpose").child(scheme.name()).rng(inst);
            let mapping = build_mapping(scheme, &mut rng, w);
            let run = run_transpose(TransposeKind::Crsw, mapping.as_ref(), 8, &data);
            assert!(run.verified, "{scheme} transpose must verify");
            stats.push(run.report.cycles as f64);
        }
        cells.push(ModernCell {
            row: "CRSW transpose cycles".to_string(),
            scheme,
            stats,
        });
    }

    // Static rows: storage overhead and stored random values.
    for scheme in Scheme::extended() {
        let mut rng = domain.child("static").rng(0);
        let mapping = build_mapping(scheme, &mut rng, w);
        let mut overhead = OnlineStats::new();
        overhead.push((mapping.storage_words() - w * w) as f64);
        cells.push(ModernCell {
            row: "storage overhead words".to_string(),
            scheme,
            stats: overhead,
        });
        let mut rand_vals = OnlineStats::new();
        rand_vals.push(match scheme {
            Scheme::Ras | Scheme::Rap => w as f64,
            _ => 0.0,
        });
        cells.push(ModernCell {
            row: "stored random values".to_string(),
            scheme,
            stats: rand_vals,
        });
    }
    cells
}

/// Serialize the comparison.
#[must_use]
pub fn to_record(w: usize, trials: u64, seed: u64, cells: &[ModernCell]) -> ExperimentRecord {
    let mut record = ExperimentRecord::new(
        "A7",
        "RAP vs modern deterministic baselines (XOR swizzle, +1 padding)",
        format!("w={w} trials={trials} seed={seed}"),
    );
    for c in cells {
        record.push(CellSummary::from_stats(
            &c.row,
            c.scheme.name(),
            &c.stats,
            None,
        ));
    }
    record
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get<'a>(cells: &'a [ModernCell], row: &str, scheme: Scheme) -> &'a ModernCell {
        cells
            .iter()
            .find(|c| c.row == row && c.scheme == scheme)
            .expect("cell exists")
    }

    #[test]
    fn deterministic_baselines_match_rap_on_fixed_patterns() {
        let cells = run(16, 50, 1);
        for scheme in [Scheme::Xor, Scheme::Padded, Scheme::Rap] {
            assert_eq!(
                get(&cells, "Contiguous congestion", scheme).stats.mean(),
                1.0,
                "{scheme}"
            );
            assert_eq!(
                get(&cells, "Stride congestion", scheme).stats.mean(),
                1.0,
                "{scheme}"
            );
        }
    }

    #[test]
    fn blind_adversary_separates_random_from_deterministic() {
        let cells = run(16, 80, 2);
        for scheme in [Scheme::Raw, Scheme::Xor, Scheme::Padded] {
            assert_eq!(
                get(&cells, "blind adversary congestion", scheme)
                    .stats
                    .mean(),
                16.0,
                "{scheme} must fall to the blind adversary"
            );
        }
        let rap = get(&cells, "blind adversary congestion", Scheme::Rap)
            .stats
            .mean();
        assert!(
            rap < 5.0,
            "RAP must hold at max-load scale against blind attacks, got {rap}"
        );
    }

    #[test]
    fn only_padding_wastes_storage() {
        let cells = run(8, 10, 3);
        assert_eq!(
            get(&cells, "storage overhead words", Scheme::Padded)
                .stats
                .mean(),
            7.0
        );
        for scheme in [Scheme::Raw, Scheme::Ras, Scheme::Rap, Scheme::Xor] {
            assert_eq!(
                get(&cells, "storage overhead words", scheme).stats.mean(),
                0.0,
                "{scheme}"
            );
        }
    }

    #[test]
    fn transpose_fast_under_all_conflict_free_schemes() {
        let cells = run(16, 10, 4);
        let raw = get(&cells, "CRSW transpose cycles", Scheme::Raw)
            .stats
            .mean();
        for scheme in [Scheme::Rap, Scheme::Xor, Scheme::Padded] {
            let t = get(&cells, "CRSW transpose cycles", scheme).stats.mean();
            assert!(t * 4.0 < raw, "{scheme}: {t} vs RAW {raw}");
        }
    }

    #[test]
    fn record_shape() {
        let cells = run(8, 5, 5);
        let rec = to_record(8, 5, 5, &cells);
        assert_eq!(rec.cells.len(), cells.len());
        // 4 patterns×5 + adversary×5 + transpose×5 + 2 static×5
        assert_eq!(cells.len(), 4 * 5 + 5 + 5 + 10);
    }
}
