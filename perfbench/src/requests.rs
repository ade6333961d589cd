//! The seeded request mix of the `serve-small` workload.
//!
//! Every request is small: Monte-Carlo requests run 1–64 trials at
//! w ≤ 64, so the handler does little and the per-request costs around
//! it (parse, queue hop, fork-join, encode, socket) dominate. A share of
//! `scheme:"adaptive"` requests shifts its pattern mix halfway through
//! the run, from patterns the initial layout serves conflict-free to
//! stride accesses it serves at full congestion, so the server's
//! adaptive controller commits an epoch swap.

use rand::rngs::SmallRng;
use rand::Rng;
use rap_access::matrix::{generate_warp_into, warp_addresses};
use rap_access::montecarlo::{block_range, blocks_for};
use rap_access::MatrixPattern;
use rap_core::{build_mapping, Scheme};
use rap_stats::SeedDomain;

/// The tile width of the adaptive requests; the server's controller is
/// started with the same `--adapt-width`.
pub const ADAPT_WIDTH: usize = 32;

/// The scheme the server's controller starts on. Contiguous and
/// diagonal warps are conflict-free under it and stride warps are not.
pub const ADAPT_INITIAL: &str = "raw";

/// The command of a generated request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    /// `layout`.
    Layout,
    /// `congestion` of one Table II warp.
    Congestion,
    /// `pattern` with a static scheme.
    Pattern,
    /// `pattern_block`.
    PatternBlock,
    /// DMM `transpose`.
    Transpose,
    /// `pattern` with `scheme:"adaptive"`.
    PatternAdaptive,
}

impl Kind {
    /// Every kind, in metric order.
    pub const ALL: [Kind; 6] = [
        Kind::Layout,
        Kind::Congestion,
        Kind::Pattern,
        Kind::PatternBlock,
        Kind::Transpose,
        Kind::PatternAdaptive,
    ];

    /// The metric suffix (`serve.execute_us.<name>`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Kind::Layout => "layout",
            Kind::Congestion => "congestion",
            Kind::Pattern => "pattern",
            Kind::PatternBlock => "pattern_block",
            Kind::Transpose => "transpose",
            Kind::PatternAdaptive => "pattern_adaptive",
        }
    }
}

/// One generated request line and the Monte-Carlo work it asks for.
#[derive(Debug, Clone)]
pub struct Req {
    /// The wire line (no newline).
    pub line: String,
    /// Its command.
    pub kind: Kind,
    /// Monte-Carlo trials it runs (0 for non-sampling commands).
    pub trials: u64,
    /// Monte-Carlo blocks it runs (0 for non-sampling commands).
    pub blocks: u64,
}

/// A seeded request stream; each connection owns one.
pub struct Mix {
    rng: SmallRng,
    next_id: u64,
    warp: Vec<(u32, u32)>,
}

const SAMPLED: [Scheme; 3] = [Scheme::Raw, Scheme::Ras, Scheme::Rap];
const ALL_SCHEMES: [Scheme; 5] = [
    Scheme::Raw,
    Scheme::Ras,
    Scheme::Rap,
    Scheme::Xor,
    Scheme::Padded,
];

fn wire(name: &str) -> String {
    name.to_ascii_lowercase()
}

impl Mix {
    /// The stream of connection `stream` under workload seed `seed`.
    /// Request ids start at `stream << 40`, so ids never collide across
    /// connections.
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Self {
        Self {
            rng: SeedDomain::new(seed).child("serve-small").rng(stream),
            next_id: (stream << 40) + 1,
            warp: Vec::new(),
        }
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.rng.gen_range(0..items.len())]
    }

    /// The next request; `shifted` selects the second half's adaptive
    /// pattern mix.
    pub fn next_req(&mut self, shifted: bool) -> Req {
        let id = self.next_id;
        self.next_id += 1;
        let seed: u32 = self.rng.gen();
        let roll = self.rng.gen_range(0..100u32);
        let table2 = MatrixPattern::table2();
        match roll {
            0..=39 => {
                let pattern = self.pick(&table2);
                let scheme = self.pick(&SAMPLED);
                let width = self.pick(&[16usize, 32, 64]);
                let trials = self.rng.gen_range(1..=64u64);
                Req {
                    line: format!(
                        r#"{{"cmd":"pattern","id":{id},"pattern":"{}","scheme":"{}","width":{width},"trials":{trials},"seed":{seed}}}"#,
                        wire(pattern.name()),
                        wire(scheme.name())
                    ),
                    kind: Kind::Pattern,
                    trials,
                    blocks: blocks_for(trials),
                }
            }
            40..=54 => {
                let pattern = if shifted {
                    self.pick(&[
                        MatrixPattern::Stride,
                        MatrixPattern::Stride,
                        MatrixPattern::Stride,
                        MatrixPattern::Contiguous,
                    ])
                } else {
                    self.pick(&[
                        MatrixPattern::Contiguous,
                        MatrixPattern::Contiguous,
                        MatrixPattern::Diagonal,
                    ])
                };
                let trials = self.rng.gen_range(1..=16u64);
                Req {
                    line: format!(
                        r#"{{"cmd":"pattern","id":{id},"pattern":"{}","scheme":"adaptive","width":{ADAPT_WIDTH},"trials":{trials},"seed":{seed}}}"#,
                        wire(pattern.name())
                    ),
                    kind: Kind::PatternAdaptive,
                    trials,
                    blocks: blocks_for(trials),
                }
            }
            55..=69 => {
                let pattern = self.pick(&table2);
                let scheme = self.pick(&ALL_SCHEMES);
                let w = 32usize;
                let mut rng = SeedDomain::new(u64::from(seed)).rng(0);
                let mapping = build_mapping(scheme, &mut rng, w);
                let warp_index = self.rng.gen_range(0..w as u32);
                generate_warp_into(pattern, w, warp_index, &mut rng, &mut self.warp);
                let addresses: Vec<String> = warp_addresses(mapping.as_ref(), &self.warp)
                    .iter()
                    .map(u64::to_string)
                    .collect();
                Req {
                    line: format!(
                        r#"{{"cmd":"congestion","id":{id},"width":{w},"addresses":[{}]}}"#,
                        addresses.join(",")
                    ),
                    kind: Kind::Congestion,
                    trials: 0,
                    blocks: 0,
                }
            }
            70..=79 => {
                let scheme = self.pick(&ALL_SCHEMES);
                let width = self.pick(&[8usize, 16, 32]);
                Req {
                    line: format!(
                        r#"{{"cmd":"layout","id":{id},"scheme":"{}","width":{width},"seed":{seed}}}"#,
                        wire(scheme.name())
                    ),
                    kind: Kind::Layout,
                    trials: 0,
                    blocks: 0,
                }
            }
            80..=91 => {
                let pattern = self.pick(&table2);
                let scheme = self.pick(&SAMPLED);
                let trials = self.pick(&[64u64, 128, 256]);
                let block = self.rng.gen_range(0..blocks_for(trials));
                Req {
                    line: format!(
                        r#"{{"cmd":"pattern_block","id":{id},"pattern":"{}","scheme":"{}","width":32,"trials":{trials},"block":{block},"seed":{seed}}}"#,
                        wire(pattern.name()),
                        wire(scheme.name())
                    ),
                    kind: Kind::PatternBlock,
                    trials: block_range(block, trials).count() as u64,
                    blocks: 1,
                }
            }
            _ => {
                let kind = self.pick(&["crsw", "srcw", "drdw"]);
                let scheme = self.pick(&SAMPLED);
                let width = self.pick(&[8usize, 16]);
                Req {
                    line: format!(
                        r#"{{"cmd":"transpose","id":{id},"kind":"{kind}","scheme":"{}","width":{width},"latency":8,"seed":{seed}}}"#,
                        wire(scheme.name())
                    ),
                    kind: Kind::Transpose,
                    trials: 0,
                    blocks: 0,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rap_serve::Request;

    #[test]
    fn same_seed_same_stream_and_every_line_parses() {
        let mut a = Mix::new(7, 0);
        let mut b = Mix::new(7, 0);
        let mut kinds = std::collections::HashSet::new();
        for i in 0..400 {
            let (x, y) = (a.next_req(i >= 200), b.next_req(i >= 200));
            assert_eq!(x.line, y.line);
            Request::parse(&x.line).unwrap_or_else(|e| panic!("{}: {e}", x.line));
            kinds.insert(x.kind);
        }
        assert_eq!(kinds.len(), Kind::ALL.len());
        assert_ne!(
            Mix::new(7, 1).next_req(false).line,
            Mix::new(7, 0).next_req(false).line
        );
    }
}
