//! The metric catalogue and the result line.
//!
//! Every run prints, as the last line of standard output, one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`. An
//! untraced run reports exactly [`END_TO_END`]; a traced run reports
//! exactly [`PER_LAYER`]. `BENCHMARK.json` declares the same names and
//! units, and the smoke test holds the three in agreement.

use std::collections::BTreeMap;

/// End-to-end metrics `(name, unit)`, reported by every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("req_p50_us", "us"),
    ("req_p90_us", "us"),
    ("req_per_s", "1/s"),
    ("trials_per_s", "1/s"),
    ("blocks_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, reported by every traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.kernel_ns_per_warp.w32", "ns"),
    ("core.kernel_ns_per_warp.w64", "ns"),
    ("core.kernel_ns_per_warp.w128", "ns"),
    ("core.kernel_ns_per_warp.w256", "ns"),
    ("core.mapping_build_us.raw", "us"),
    ("core.mapping_build_us.ras", "us"),
    ("core.mapping_build_us.rap", "us"),
    ("access.trial_us.contiguous", "us"),
    ("access.trial_us.stride", "us"),
    ("access.trial_us.diagonal", "us"),
    ("access.trial_us.random", "us"),
    ("access.call_us.t1", "us"),
    ("access.call_us.t32", "us"),
    ("access.call_us.t64", "us"),
    ("access.scaling_2t", "ratio"),
    ("access.trials_per_s_1t", "1/s"),
    ("rayon.fork_join_us", "us"),
    ("serve.parse_ns", "ns"),
    ("serve.execute_us.layout", "us"),
    ("serve.execute_us.congestion", "us"),
    ("serve.execute_us.pattern", "us"),
    ("serve.execute_us.pattern_block", "us"),
    ("serve.execute_us.transpose", "us"),
    ("serve.execute_us.pattern_adaptive", "us"),
    ("serve.encode_ns", "ns"),
    ("serve.client_parse_ns", "ns"),
    ("serve.wire_us", "us"),
    ("serve.req_p99_us", "us"),
    ("serve.samples", "count"),
    ("serve.shed", "count"),
    ("serve.errors", "count"),
    ("serve.degraded", "count"),
    ("serve.conserves", "bool"),
    ("cluster.block_rtt_us", "us"),
    ("cluster.block_compute_us", "us"),
    ("cluster.wire_share", "ratio"),
    ("cluster.useful_ratio", "ratio"),
    ("cluster.hedged", "count"),
    ("cluster.redispatched", "count"),
    ("cluster.reconnects", "count"),
    ("cluster.query_us", "us"),
    ("cluster.route_ns", "ns"),
    ("adapt.observe_ns", "ns"),
    ("adapt.overhead_us", "us"),
    ("adapt.swaps", "count"),
    ("adapt.rollbacks", "count"),
    ("adapt.ledger_errors", "count"),
    ("resilience.failpoint_fire_ns", "ns"),
    ("fail_ratio", "ratio"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
    ("trace.self_ms.bench", "ms"),
    ("trace.self_ms.serve", "ms"),
    ("trace.self_ms.cluster", "ms"),
    ("trace.self_ms.access", "ms"),
    ("trace.self_ms.adapt", "ms"),
    ("trace.self_ms.core", "ms"),
    ("trace.self_ms.rayon", "ms"),
    ("trace.self_ms.resilience", "ms"),
];

/// Metric values by name, checked against a catalogue on output.
#[derive(Debug, Default, Clone)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    /// Record `name = value` (a later value replaces an earlier one).
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }

    /// The value of `name`, if recorded.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Render the `metrics` object for `catalogue`, in catalogue order.
    ///
    /// # Errors
    /// Names a catalogue metric that is missing or not finite.
    pub fn to_json(&self, catalogue: &[(&str, &str)]) -> Result<String, String> {
        let mut parts = Vec::with_capacity(catalogue.len());
        for &(name, unit) in catalogue {
            let value = self
                .get(name)
                .ok_or_else(|| format!("metric '{name}' was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric '{name}' is not finite ({value})"));
            }
            parts.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(value)
            ));
        }
        Ok(format!("{{{}}}", parts.join(", ")))
    }
}

/// A finite `f64` as a JSON number with every digit Rust's shortest
/// round-trip form gives it.
fn number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

/// The final result line.
#[must_use]
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics_json: &str) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics_json}}}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(name), "duplicate metric {name}");
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.len() <= 16);
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    #[test]
    fn output_requires_every_metric() {
        let mut m = Metrics::default();
        assert!(m.to_json(&[("a", "s")]).is_err());
        m.set("a", 2.0);
        assert_eq!(
            m.to_json(&[("a", "s")]).unwrap(),
            r#"{"a": {"value": 2.0, "unit": "s"}}"#
        );
        m.set("a", f64::NAN);
        assert!(m.to_json(&[("a", "s")]).is_err());
    }
}
