//! The layout search engine: find the shift table (or permutation σ)
//! minimizing the worst-case congestion over a workload.
//!
//! Once a layout is *concrete*, each plan's congestion is exactly
//! computable by counting unique requests per bank — no quantification
//! needed — so the search minimizes an exactly-evaluated objective:
//!
//! `objective(layout) = max over plans of max bank load`
//!
//! The strategy ladder, by machine width `w`:
//!
//! * **Exhaustive** — all `w!` permutations for σ mode at `w ≤ 5`
//!   (≤ 120), all `w^w` free tables at `w ≤ 4` (≤ 256).  Optimal by
//!   construction.
//! * **Matching-guided branch-and-bound** up to `w = 32`: rows are
//!   assigned shift values one at a time (touched rows only — an
//!   untouched row contributes no load, so any completion works); a
//!   node is cut when (a) the partial objective already reaches the
//!   incumbent, or (b) the Kuhn-matching relaxation proves the
//!   remaining rows cannot all receive a value keeping every bank
//!   under the incumbent.  The relaxation ignores interaction *between*
//!   remaining rows, so it only over-approximates feasibility — the
//!   prune is sound.  If the node budget is exhausted the incumbent is
//!   kept but `optimal` is withdrawn.
//! * **Seeded simulated annealing** above `w = 32` (or on budget
//!   exhaustion): deterministic `SmallRng`, swap moves (σ) or
//!   single-row reassignment (table), geometric cooling, objective
//!   evaluated exactly.  Never claims optimality.
//!
//! Every result is emitted as a [`Certificate`]; callers should accept
//! it only after [`crate::check::check_certificate`] passes.

use crate::certificate::{Certificate, ClaimWitness, PlanClaim, CERT_VERSION};
use crate::workload::Workload;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Largest width where σ mode enumerates all `w!` permutations.
pub const SIGMA_EXHAUSTIVE_MAX_WIDTH: usize = 5;
/// Largest width where table mode enumerates all `w^w` tables.
pub const TABLE_EXHAUSTIVE_MAX_WIDTH: usize = 4;
/// Largest width attempted by branch-and-bound before annealing.
pub const BNB_MAX_WIDTH: usize = 32;

/// Branch-and-bound node budget before falling back to annealing.
const BNB_NODE_BUDGET: u64 = 2_000_000;
/// Annealing move budget.
const ANNEAL_MOVES: u32 = 4_000;

/// Which layout family to search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Shift table constrained to a permutation σ (the RAP family).
    Sigma,
    /// Free shift table, entries independent in `0..w` (the RAS family).
    Table,
}

impl Mode {
    /// The certificate-format name of the mode.
    #[must_use]
    pub const fn as_str(self) -> &'static str {
        match self {
            Mode::Sigma => "sigma",
            Mode::Table => "table",
        }
    }
}

impl std::str::FromStr for Mode {
    type Err = String;

    /// Parse a certificate-format mode name (case-sensitive).
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "sigma" => Ok(Mode::Sigma),
            "table" => Ok(Mode::Table),
            other => Err(format!("unknown mode `{other}` (expected sigma or table)")),
        }
    }
}

impl std::fmt::Display for Mode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How the winning layout was found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Every layout in the family was evaluated.
    Exhaustive,
    /// Branch-and-bound completed within its node budget.
    BranchAndBound,
    /// Simulated annealing (no optimality claim).
    Annealing,
}

impl Method {
    /// The certificate-format name of the method.
    #[must_use]
    pub const fn as_str(self) -> &'static str {
        match self {
            Method::Exhaustive => "exhaustive",
            Method::BranchAndBound => "branch-and-bound",
            Method::Annealing => "annealing",
        }
    }
}

/// A synthesis result: the certificate plus search statistics.
#[derive(Debug, Clone)]
pub struct Synthesis {
    /// The machine-checkable certificate for the winning layout.
    pub certificate: Certificate,
    /// Layouts (exhaustive/annealing) or nodes (B&B) examined.
    pub explored: u64,
}

/// A workload compiled to concrete per-plan cell sets.
struct Compiled {
    width: usize,
    plans: Vec<CompiledPlan>,
    /// Sorted union of all rows any plan touches.
    touched_rows: Vec<u32>,
    /// Pigeonhole lower bound on the objective: no layout can beat it.
    lower_bound: u32,
}

struct CompiledPlan {
    name: String,
    warp: rap_analyze::AffineWarp,
    /// Deduplicated cells (CRCW: coalesced same-cell requests count once).
    uniq: Vec<(u32, u32)>,
    /// First lane touching each unique cell, parallel to `uniq`.
    first_lane: Vec<u32>,
    /// Columns per touched row, indexed by position in `touched_rows`.
    cols_by_row: Vec<Vec<u32>>,
}

impl Compiled {
    fn build(workload: &Workload) -> Result<Self, String> {
        let width = workload.width;
        if width == 0 {
            return Err("machine width must be positive".into());
        }
        let all_cells = workload.cells()?;
        let mut rows: Vec<u32> = all_cells.iter().flatten().map(|&(i, _)| i).collect();
        rows.sort_unstable();
        rows.dedup();
        let row_index = |r: u32| rows.binary_search(&r).unwrap_or(0);

        let mut plans = Vec::with_capacity(workload.plans.len());
        let mut lower_bound = 0u32;
        for (plan, cells) in workload.plans.iter().zip(&all_cells) {
            let mut uniq = Vec::new();
            let mut first_lane = Vec::new();
            let mut seen = std::collections::BTreeSet::new();
            for (lane, &cell) in cells.iter().enumerate() {
                if seen.insert(cell) {
                    uniq.push(cell);
                    first_lane.push(lane as u32);
                }
            }
            // Pigeonhole: U unique requests into w banks ⇒ some bank
            // gets ⌈U/w⌉.
            if !uniq.is_empty() {
                lower_bound = lower_bound.max(uniq.len().div_ceil(width) as u32).max(1);
            }
            let mut cols_by_row = vec![Vec::new(); rows.len()];
            for &(i, j) in &uniq {
                cols_by_row[row_index(i)].push(j);
            }
            plans.push(CompiledPlan {
                name: plan.name.clone(),
                warp: plan.warp,
                uniq,
                first_lane,
                cols_by_row,
            });
        }
        Ok(Self {
            width,
            plans,
            touched_rows: rows,
            lower_bound,
        })
    }

    /// Exact congestion of one plan under a concrete shift table.
    fn plan_loads(&self, plan: &CompiledPlan, table: &[u32]) -> Vec<u32> {
        let w = self.width as u32;
        let mut loads = vec![0u32; self.width];
        for &(i, j) in &plan.uniq {
            loads[((j + table[i as usize]) % w) as usize] += 1;
        }
        loads
    }

    /// Exact workload objective under a concrete shift table.
    fn objective(&self, table: &[u32]) -> u32 {
        self.plans
            .iter()
            .map(|p| self.plan_loads(p, table).into_iter().max().unwrap_or(0))
            .max()
            .unwrap_or(0)
    }
}

/// Kuhn augmenting-path maximum bipartite matching: `adj[l]` lists the
/// right vertices left vertex `l` may match.  Returns the matching size.
fn kuhn_matching(adj: &[Vec<usize>], right_count: usize) -> usize {
    fn augment(
        l: usize,
        adj: &[Vec<usize>],
        owner: &mut [Option<usize>],
        visited: &mut [bool],
    ) -> bool {
        for &r in &adj[l] {
            if visited[r] {
                continue;
            }
            visited[r] = true;
            if owner[r].is_none() || augment(owner[r].unwrap_or(usize::MAX), adj, owner, visited) {
                owner[r] = Some(l);
                return true;
            }
        }
        false
    }
    let mut owner: Vec<Option<usize>> = vec![None; right_count];
    let mut size = 0;
    for l in 0..adj.len() {
        let mut visited = vec![false; right_count];
        if augment(l, adj, &mut owner, &mut visited) {
            size += 1;
        }
    }
    size
}

/// Shared branch-and-bound state over touched rows.
struct Bnb<'a> {
    compiled: &'a Compiled,
    mode: Mode,
    /// Per-plan running bank loads for the current partial assignment.
    loads: Vec<Vec<u32>>,
    /// Assigned shift value per touched-row index (`u32::MAX` = free).
    assigned: Vec<u32>,
    /// σ mode: which values are still unused.
    value_free: Vec<bool>,
    best: u32,
    best_assignment: Vec<u32>,
    nodes: u64,
    budget_hit: bool,
}

impl<'a> Bnb<'a> {
    fn new(compiled: &'a Compiled, mode: Mode, incumbent: u32, seed_assignment: Vec<u32>) -> Self {
        let n = compiled.touched_rows.len();
        Self {
            compiled,
            mode,
            loads: vec![vec![0u32; compiled.width]; compiled.plans.len()],
            assigned: vec![u32::MAX; n],
            value_free: vec![true; compiled.width],
            best: incumbent,
            best_assignment: seed_assignment,
            nodes: 0,
            budget_hit: false,
        }
    }

    /// Would assigning value `v` to touched-row `idx` keep every bank
    /// strictly under `cap` (given the current partial loads)?
    fn fits_under(&self, idx: usize, v: u32, cap: u32) -> bool {
        let w = self.compiled.width as u32;
        for (p, plan) in self.compiled.plans.iter().enumerate() {
            for &j in &plan.cols_by_row[idx] {
                if self.loads[p][((j + v) % w) as usize] + 1 > cap {
                    return false;
                }
            }
        }
        true
    }

    fn apply(&mut self, idx: usize, v: u32, sign: i32) {
        let w = self.compiled.width as u32;
        for (p, plan) in self.compiled.plans.iter().enumerate() {
            for &j in &plan.cols_by_row[idx] {
                let b = ((j + v) % w) as usize;
                if sign > 0 {
                    self.loads[p][b] += 1;
                } else {
                    self.loads[p][b] -= 1;
                }
            }
        }
    }

    /// Matching relaxation: can every remaining row receive a value
    /// keeping every bank ≤ `cap`, ignoring interaction between
    /// remaining rows?  `false` ⇒ the subtree cannot beat `cap`.
    fn relaxation_feasible(&self, cap: u32) -> bool {
        let remaining: Vec<usize> = (0..self.assigned.len())
            .filter(|&i| self.assigned[i] == u32::MAX)
            .collect();
        if remaining.is_empty() {
            return true;
        }
        match self.mode {
            Mode::Table => remaining
                .iter()
                .all(|&idx| (0..self.compiled.width as u32).any(|v| self.fits_under(idx, v, cap))),
            Mode::Sigma => {
                let values: Vec<u32> = (0..self.compiled.width as u32)
                    .filter(|&v| self.value_free[v as usize])
                    .collect();
                if values.len() < remaining.len() {
                    return false;
                }
                let adj: Vec<Vec<usize>> = remaining
                    .iter()
                    .map(|&idx| {
                        (0..values.len())
                            .filter(|&vi| self.fits_under(idx, values[vi], cap))
                            .collect()
                    })
                    .collect();
                kuhn_matching(&adj, values.len()) == remaining.len()
            }
        }
    }

    fn descend(&mut self, idx: usize, lower_bound: u32) {
        if self.best <= lower_bound {
            return; // incumbent already provably optimal
        }
        self.nodes += 1;
        if self.nodes > BNB_NODE_BUDGET {
            self.budget_hit = true;
            return;
        }
        if idx == self.assigned.len() {
            // Complete assignment strictly better than the incumbent
            // (guaranteed by the per-step cap).
            let obj = self
                .loads
                .iter()
                .map(|l| l.iter().copied().max().unwrap_or(0))
                .max()
                .unwrap_or(0);
            if obj < self.best {
                self.best = obj;
                self.best_assignment = self.assigned.clone();
            }
            return;
        }
        let cap = self.best - 1;
        if !self.relaxation_feasible(cap) {
            return;
        }
        for v in 0..self.compiled.width as u32 {
            if self.mode == Mode::Sigma && !self.value_free[v as usize] {
                continue;
            }
            if !self.fits_under(idx, v, cap) {
                continue;
            }
            self.assigned[idx] = v;
            self.value_free[v as usize] = false;
            self.apply(idx, v, 1);
            self.descend(idx + 1, lower_bound);
            self.apply(idx, v, -1);
            self.value_free[v as usize] = true;
            self.assigned[idx] = u32::MAX;
            if self.budget_hit {
                return;
            }
        }
    }
}

/// Expand a touched-row assignment to a full-width shift table.
fn complete_table(compiled: &Compiled, mode: Mode, assignment: &[u32]) -> Vec<u32> {
    let w = compiled.width;
    let mut table = vec![u32::MAX; w];
    for (idx, &row) in compiled.touched_rows.iter().enumerate() {
        table[row as usize] = assignment[idx];
    }
    match mode {
        Mode::Table => {
            for s in &mut table {
                if *s == u32::MAX {
                    *s = 0;
                }
            }
        }
        Mode::Sigma => {
            let used: std::collections::BTreeSet<u32> = assignment.iter().copied().collect();
            let mut leftovers = (0..w as u32).filter(|v| !used.contains(v));
            for s in &mut table {
                if *s == u32::MAX {
                    *s = leftovers.next().unwrap_or(0);
                }
            }
        }
    }
    table
}

/// The Padded-scheme seed layout `s_i = i` — a permutation, so valid in
/// both modes, and the strongest known static default.
fn seed_table(width: usize) -> Vec<u32> {
    (0..width as u32).collect()
}

fn exhaustive_sigma(compiled: &Compiled) -> (Vec<u32>, u64) {
    let w = compiled.width;
    let mut perm: Vec<u32> = (0..w as u32).collect();
    let mut best = compiled.objective(&perm);
    let mut best_perm = perm.clone();
    let mut explored = 1u64;
    // Heap's algorithm over the full permutation group.
    let mut c = vec![0usize; w];
    let mut i = 0;
    while i < w {
        if c[i] < i {
            if i % 2 == 0 {
                perm.swap(0, i);
            } else {
                perm.swap(c[i], i);
            }
            explored += 1;
            let obj = compiled.objective(&perm);
            if obj < best {
                best = obj;
                best_perm.clone_from(&perm);
                if best <= compiled.lower_bound {
                    break;
                }
            }
            c[i] += 1;
            i = 0;
        } else {
            c[i] = 0;
            i += 1;
        }
    }
    (best_perm, explored)
}

fn exhaustive_table(compiled: &Compiled) -> (Vec<u32>, u64) {
    let w = compiled.width;
    let mut table = vec![0u32; w];
    let mut best = compiled.objective(&table);
    let mut best_table = table.clone();
    let mut explored = 1u64;
    'outer: loop {
        // Odometer increment in base w.
        let mut pos = 0;
        loop {
            if pos == w {
                break 'outer;
            }
            table[pos] += 1;
            if table[pos] < w as u32 {
                break;
            }
            table[pos] = 0;
            pos += 1;
        }
        explored += 1;
        let obj = compiled.objective(&table);
        if obj < best {
            best = obj;
            best_table.clone_from(&table);
            if best <= compiled.lower_bound {
                break;
            }
        }
    }
    (best_table, explored)
}

fn anneal(compiled: &Compiled, mode: Mode, start: Vec<u32>, seed: u64) -> (Vec<u32>, u64) {
    let w = compiled.width;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut current = start;
    let mut current_obj = compiled.objective(&current);
    let mut best = current.clone();
    let mut best_obj = current_obj;
    let mut temperature = f64::from(current_obj.max(2));
    let cooling = 0.999f64;
    let mut explored = 1u64;
    if w < 2 {
        return (best, explored);
    }
    for _ in 0..ANNEAL_MOVES {
        if best_obj <= compiled.lower_bound {
            break;
        }
        let mut candidate = current.clone();
        match mode {
            Mode::Sigma => {
                let a = rng.gen_range(0..w);
                let b = rng.gen_range(0..w);
                candidate.swap(a, b);
            }
            Mode::Table => {
                let a = rng.gen_range(0..w);
                candidate[a] = rng.gen_range(0..w) as u32;
            }
        }
        explored += 1;
        let obj = compiled.objective(&candidate);
        let delta = f64::from(obj) - f64::from(current_obj);
        let accept = delta <= 0.0 || rng.gen_range(0.0..1.0) < (-delta / temperature).exp();
        if accept {
            current = candidate;
            current_obj = obj;
            if obj < best_obj {
                best_obj = obj;
                best.clone_from(&current);
            }
        }
        temperature = (temperature * cooling).max(0.05);
    }
    (best, explored)
}

/// Build the certificate for a concrete winning layout.
fn certify(
    compiled: &Compiled,
    mode: Mode,
    method: Method,
    optimal: bool,
    table: Vec<u32>,
) -> Certificate {
    let w = compiled.width as u32;
    let mut claims = Vec::with_capacity(compiled.plans.len());
    let mut objective = 0u32;
    for plan in &compiled.plans {
        let loads = compiled.plan_loads(plan, &table);
        let bound = loads.iter().copied().max().unwrap_or(0);
        objective = objective.max(bound);
        let hot_bank = loads
            .iter()
            .enumerate()
            .max_by_key(|&(_, &l)| l)
            .map_or(0, |(b, _)| b as u32);
        let lanes: Vec<u32> = plan
            .uniq
            .iter()
            .zip(&plan.first_lane)
            .filter(|(&(i, j), _)| (j + table[i as usize]) % w == hot_bank)
            .map(|(_, &lane)| lane)
            .collect();
        claims.push(PlanClaim {
            name: plan.name.clone(),
            warp: plan.warp,
            bound,
            bank_loads: loads,
            witness: ClaimWitness {
                bank: hot_bank,
                lanes,
            },
        });
    }
    Certificate {
        version: CERT_VERSION,
        width: compiled.width,
        mode: mode.as_str().to_string(),
        method: method.as_str().to_string(),
        optimal,
        layout: table,
        objective,
        claims,
    }
}

/// Synthesize the best layout in `mode` for `workload`, deterministic
/// in `seed` (the seed only matters on the annealing path).
///
/// # Errors
/// Zero width, or a plan whose cells leave the `w²` domain (contextual,
/// naming the plan).
pub fn synthesize(workload: &Workload, mode: Mode, seed: u64) -> Result<Synthesis, String> {
    let compiled = Compiled::build(workload)?;
    let w = compiled.width;

    let exhaustive_ok = match mode {
        Mode::Sigma => w <= SIGMA_EXHAUSTIVE_MAX_WIDTH,
        Mode::Table => w <= TABLE_EXHAUSTIVE_MAX_WIDTH,
    };
    let (table, method, optimal, explored) = if exhaustive_ok {
        let (table, explored) = match mode {
            Mode::Sigma => exhaustive_sigma(&compiled),
            Mode::Table => exhaustive_table(&compiled),
        };
        (table, Method::Exhaustive, true, explored)
    } else if w <= BNB_MAX_WIDTH {
        // Incumbent: the Padded permutation seed, exact-evaluated.
        let seed_full = seed_table(w);
        let incumbent = compiled.objective(&seed_full);
        let seed_assignment: Vec<u32> = compiled
            .touched_rows
            .iter()
            .map(|&r| seed_full[r as usize])
            .collect();
        let mut bnb = Bnb::new(&compiled, mode, incumbent, seed_assignment);
        bnb.descend(0, compiled.lower_bound);
        let table = complete_table(&compiled, mode, &bnb.best_assignment);
        if bnb.budget_hit {
            let (table, extra) = anneal(&compiled, mode, table, seed);
            (table, Method::Annealing, false, bnb.nodes + extra)
        } else {
            (table, Method::BranchAndBound, true, bnb.nodes)
        }
    } else {
        let (table, explored) = anneal(&compiled, mode, seed_table(w), seed);
        (table, Method::Annealing, false, explored)
    };

    Ok(Synthesis {
        certificate: certify(&compiled, mode, method, optimal, table),
        explored,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{parse_workload, Workload};

    /// Independent brute-force optimum for tests: enumerate the whole
    /// family recursively (no Heap's algorithm, no pruning).
    fn brute_force_optimum(workload: &Workload, mode: Mode) -> u32 {
        let compiled = Compiled::build(workload).unwrap();
        let w = workload.width;
        fn rec(
            compiled: &Compiled,
            mode: Mode,
            table: &mut Vec<u32>,
            used: &mut Vec<bool>,
            w: usize,
            best: &mut u32,
        ) {
            if table.len() == w {
                *best = (*best).min(compiled.objective(table));
                return;
            }
            for v in 0..w as u32 {
                if mode == Mode::Sigma && used[v as usize] {
                    continue;
                }
                table.push(v);
                used[v as usize] = true;
                rec(compiled, mode, table, used, w, best);
                used[v as usize] = false;
                table.pop();
            }
        }
        let mut best = u32::MAX;
        rec(
            &compiled,
            mode,
            &mut Vec::new(),
            &mut vec![false; w],
            w,
            &mut best,
        );
        best
    }

    #[test]
    fn exhaustive_sigma_matches_brute_force_on_ladder() {
        for w in 2..=SIGMA_EXHAUSTIVE_MAX_WIDTH {
            for spec in [
                "column:0".to_string(),
                "column:0;contiguous:0".to_string(),
                "column:0;column:1;diagonal:1".to_string(),
                "column:0;diagonal:0;flat:2,0".to_string(),
                "broadcast:1,1;column:0".to_string(),
            ] {
                let wl = parse_workload(&spec, w).unwrap();
                let synth = synthesize(&wl, Mode::Sigma, 7).unwrap();
                let truth = brute_force_optimum(&wl, Mode::Sigma);
                assert_eq!(
                    synth.certificate.objective, truth,
                    "w={w} spec={spec}: synthesized {} vs brute-force {truth}",
                    synth.certificate.objective
                );
                assert!(synth.certificate.optimal);
                assert_eq!(synth.certificate.method, "exhaustive");
            }
        }
    }

    #[test]
    fn exhaustive_table_matches_brute_force_on_ladder() {
        for w in 2..=TABLE_EXHAUSTIVE_MAX_WIDTH {
            for spec in ["column:0;diagonal:1", "column:0;contiguous:1;flat:2,0"] {
                let wl = parse_workload(spec, w).unwrap();
                let synth = synthesize(&wl, Mode::Table, 7).unwrap();
                let truth = brute_force_optimum(&wl, Mode::Table);
                assert_eq!(synth.certificate.objective, truth, "w={w} spec={spec}");
                assert!(synth.certificate.optimal);
            }
        }
    }

    #[test]
    fn branch_and_bound_matches_exhaustive_where_both_run() {
        // Force the B&B path by calling it directly at widths the
        // ladder would hand to exhaustive search.
        for w in 2..=5usize {
            let wl = parse_workload("column:0;diagonal:1;contiguous:0", w).unwrap();
            let compiled = Compiled::build(&wl).unwrap();
            let seed_full = seed_table(w);
            let incumbent = compiled.objective(&seed_full);
            let seed_assignment: Vec<u32> = compiled
                .touched_rows
                .iter()
                .map(|&r| seed_full[r as usize])
                .collect();
            let mut bnb = Bnb::new(&compiled, Mode::Sigma, incumbent, seed_assignment);
            bnb.descend(0, compiled.lower_bound);
            assert!(!bnb.budget_hit);
            let table = complete_table(&compiled, Mode::Sigma, &bnb.best_assignment);
            let truth = brute_force_optimum(&wl, Mode::Sigma);
            assert_eq!(compiled.objective(&table), truth, "w={w}");
        }
    }

    #[test]
    fn bnb_path_is_optimal_at_mid_widths() {
        // w = 8..16 go through B&B; the column plan forces every σ to
        // congestion exactly ⌈w/w⌉ = 1 only if the shifts are distinct
        // per row — σ always is, so the optimum is 1 for column-only.
        for w in [8usize, 12, 16] {
            let wl = parse_workload("column:0;column:3", w).unwrap();
            let synth = synthesize(&wl, Mode::Sigma, 3).unwrap();
            assert_eq!(synth.certificate.objective, 1, "w={w}");
            assert_eq!(synth.certificate.method, "branch-and-bound");
            assert!(synth.certificate.optimal);
        }
    }

    #[test]
    fn sigma_beats_or_ties_padded_and_rap_sup() {
        // The σ search space contains Padded (s_i = i), so the optimum
        // can never exceed it; and min over σ ≤ sup over σ (RAP's hi).
        for w in [3usize, 5, 8, 16] {
            let prover = rap_analyze::Prover::new(w).unwrap();
            let wl = Workload::mixed(w);
            let synth = synthesize(&wl, Mode::Sigma, 11).unwrap();
            let padded_table = seed_table(w);
            let compiled = Compiled::build(&wl).unwrap();
            assert!(synth.certificate.objective <= compiled.objective(&padded_table));
            for plan in &wl.plans {
                let rap = prover.analyze(&plan.warp, rap_core::Scheme::Rap).unwrap();
                let claim = synth
                    .certificate
                    .claims
                    .iter()
                    .find(|c| c.name == plan.name)
                    .unwrap();
                assert!(
                    claim.bound <= rap.hi,
                    "w={w} plan={}: synthesized {} > RAP sup {}",
                    plan.name,
                    claim.bound,
                    rap.hi
                );
            }
        }
    }

    #[test]
    fn annealing_path_runs_and_respects_padded_seed() {
        let wl = Workload::mixed(40);
        let synth = synthesize(&wl, Mode::Sigma, 5).unwrap();
        assert_eq!(synth.certificate.method, "annealing");
        assert!(!synth.certificate.optimal);
        let compiled = Compiled::build(&wl).unwrap();
        assert!(synth.certificate.objective <= compiled.objective(&seed_table(40)));
        // σ mode must still emit a permutation.
        let mut seen = [false; 40];
        for &s in &synth.certificate.layout {
            assert!(!seen[s as usize], "duplicate shift {s}");
            seen[s as usize] = true;
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let wl = Workload::mixed(40);
        let a = synthesize(&wl, Mode::Sigma, 9).unwrap();
        let b = synthesize(&wl, Mode::Sigma, 9).unwrap();
        assert_eq!(a.certificate, b.certificate);
        assert_eq!(a.explored, b.explored);
    }

    #[test]
    fn broadcast_only_workload_has_bound_one() {
        let wl = parse_workload("broadcast:2,3", 8).unwrap();
        let synth = synthesize(&wl, Mode::Sigma, 1).unwrap();
        assert_eq!(synth.certificate.objective, 1, "CRCW dedups a broadcast");
        let claim = &synth.certificate.claims[0];
        assert_eq!(claim.witness.lanes, vec![0], "first lane witnesses");
    }

    #[test]
    fn zero_width_is_contextual_error() {
        let wl = Workload::new(0, vec![]);
        let err = synthesize(&wl, Mode::Sigma, 0).unwrap_err();
        assert!(err.contains("width"), "{err}");
    }

    #[test]
    fn out_of_domain_plan_is_contextual_error() {
        let mut wl = parse_workload("column:0", 4).unwrap();
        wl.plans[0].warp = rap_analyze::AffineWarp::flat_stride(4, 0, 5);
        wl.plans[0].name = "flat:4,0".into();
        let err = synthesize(&wl, Mode::Sigma, 0).unwrap_err();
        assert!(err.contains("flat:4,0"), "{err}");
    }

    #[test]
    fn mode_parse_round_trips() {
        assert_eq!("sigma".parse(), Ok(Mode::Sigma));
        assert_eq!("table".parse(), Ok(Mode::Table));
        assert!("zigzag".parse::<Mode>().is_err());
        assert_eq!(Mode::Sigma.to_string(), "sigma");
    }
}
