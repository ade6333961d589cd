//! The adaptive controller: monitor + candidates + cost model + epoch
//! machine + durable ledger, glued behind one thread-safe facade.
//!
//! ## Fault ordering discipline
//!
//! Every epoch transition runs the same four steps, in order:
//!
//! 1. **fire** the transition's failpoint (`adapt.propose`,
//!    `adapt.migrate`, `adapt.commit`; evaluation itself fires
//!    `adapt.observe`);
//! 2. **prepare** the record (pure validation — the machine is
//!    untouched);
//! 3. **append** the record to the durable ledger;
//! 4. **apply** the record to the in-memory machine.
//!
//! A fault at step 1 or 3 aborts the transition with memory *and*
//! ledger unchanged (the journal self-repairs torn bytes before its
//! next append); an injected panic at step 1 propagates to the caller's
//! `catch_unwind` with nothing mutated. Memory therefore never runs
//! ahead of the ledger, which is what makes `kill -9` resume a pure
//! replay.
//!
//! A failed *rollback* append is the one case where the controller must
//! keep state it could not persist: it parks in the current phase with
//! `pending_rollback` set and retries on every tick until the append
//! lands. If the process dies first, the ledger's trailing record is
//! still the unresolved `Proposed`/`Migrating`, and resume appends the
//! rollback itself — the same final state either way.

use crate::candidates::{find, standard_candidates, synthesized_candidates, Candidate};
use crate::cost::CostModel;
use crate::epoch::{replay, EpochMachine, EpochRecord, Phase};
use crate::ledger::EpochLedger;
use crate::monitor::{ClassWindow, CongestionMonitor, CLASSES};
use rap_access::MatrixPattern;
use rap_resilience::failpoint::{self, Fault};
use rap_resilience::SyncPolicy;
use serde::Value;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Controller configuration. Plain data so serve config and the CLI can
/// construct it directly.
#[derive(Debug, Clone)]
pub struct AdaptConfig {
    /// Tile width the tenant runs at.
    pub width: usize,
    /// Initial (committed) candidate name, e.g. `"rap"`.
    pub initial: String,
    /// Seed for candidate synthesis and the ledger fingerprint.
    pub seed: u64,
    /// Monitor window (exact samples per traffic class).
    pub window: usize,
    /// Monitor EWMA weight in `(0, 1]`.
    pub ewma_alpha: f64,
    /// Evaluate a possible swap every this many stable-phase samples.
    pub eval_every: u64,
    /// Minimum windowed samples (all classes) before any swap proposal.
    pub min_samples: u64,
    /// The migration cost model.
    pub cost: CostModel,
    /// Observations a migration spans before it commits (0 = immediate).
    pub migrate_steps: u64,
    /// Optional `rap-synthesize` workload spec; when set, checker-verified
    /// synthesized layouts join the candidate set.
    pub synth_workload: Option<String>,
    /// Start with automatic swaps disabled (`adapt_freeze` to toggle).
    pub start_frozen: bool,
}

impl Default for AdaptConfig {
    fn default() -> Self {
        Self {
            width: 32,
            initial: "rap".to_string(),
            seed: 2014,
            window: 256,
            ewma_alpha: 0.2,
            eval_every: 64,
            min_samples: 32,
            cost: CostModel::default(),
            migrate_steps: 16,
            synth_workload: None,
            start_frozen: false,
        }
    }
}

/// The layout requests must be served from right now. Always the last
/// *committed* candidate — never an in-flight target.
#[derive(Debug, Clone, PartialEq)]
pub struct ActiveLayout {
    /// The committed candidate: name, layout and certified bounds.
    pub candidate: Candidate,
    /// Committed epoch count.
    pub epoch: u64,
}

/// A point-in-time status snapshot (see [`AdaptiveController::status`]).
#[derive(Debug, Clone)]
pub struct AdaptStatus {
    /// Active (committed) candidate name.
    pub scheme: String,
    /// Committed epoch count (== successful swaps).
    pub epoch: u64,
    /// Machine phase name (`stable`/`proposed`/`migrating`).
    pub phase: &'static str,
    /// In-flight target name, when a swap is proposed or migrating.
    pub pending: Option<String>,
    /// Successful swaps (same as `epoch`, spelled for dashboards).
    pub swaps: u64,
    /// Rolled-back swap attempts.
    pub rollbacks: u64,
    /// Faults observed at `adapt.observe`.
    pub observe_faults: u64,
    /// Faults that aborted a propose/migrate/commit transition.
    pub swap_faults: u64,
    /// Ledger appends that failed (each is retried or re-derived).
    pub ledger_errors: u64,
    /// Automatic swapping disabled?
    pub frozen: bool,
    /// Tile width.
    pub width: usize,
    /// Per-class window statistics with the active candidate's bound.
    pub classes: Vec<(MatrixPattern, ClassWindow, u32)>,
    /// Candidate names with their per-class certified bounds.
    pub candidates: Vec<(String, &'static str, [u32; CLASSES])>,
    /// Records replayed at open (0 for a fresh controller).
    pub resumed_records: usize,
    /// True when resume found an interrupted epoch and rolled it back.
    pub resumed_interrupted: bool,
}

impl AdaptStatus {
    /// Render as the serve-protocol JSON value.
    #[must_use]
    pub fn to_value(&self) -> Value {
        let classes = self
            .classes
            .iter()
            .map(|(class, w, bound)| {
                obj(vec![
                    ("class", Value::String(class.wire_name().to_string())),
                    ("samples", Value::U64(w.samples)),
                    ("total", Value::U64(w.total)),
                    ("mean", Value::F64(w.mean)),
                    ("max", Value::F64(w.max)),
                    ("ewma", Value::F64(w.ewma)),
                    ("bound", Value::U64(u64::from(*bound))),
                ])
            })
            .collect();
        let candidates = self
            .candidates
            .iter()
            .map(|(name, source, bounds)| {
                obj(vec![
                    ("name", Value::String(name.clone())),
                    ("source", Value::String((*source).to_string())),
                    (
                        "bounds",
                        Value::Array(bounds.iter().map(|&b| Value::U64(u64::from(b))).collect()),
                    ),
                ])
            })
            .collect();
        obj(vec![
            ("scheme", Value::String(self.scheme.clone())),
            ("epoch", Value::U64(self.epoch)),
            ("phase", Value::String(self.phase.to_string())),
            (
                "pending",
                self.pending
                    .as_ref()
                    .map_or(Value::Null, |p| Value::String(p.clone())),
            ),
            ("swaps", Value::U64(self.swaps)),
            ("rollbacks", Value::U64(self.rollbacks)),
            ("observe_faults", Value::U64(self.observe_faults)),
            ("swap_faults", Value::U64(self.swap_faults)),
            ("ledger_errors", Value::U64(self.ledger_errors)),
            ("frozen", Value::Bool(self.frozen)),
            ("width", Value::U64(self.width as u64)),
            ("classes", Value::Array(classes)),
            ("candidates", Value::Array(candidates)),
            ("resumed_records", Value::U64(self.resumed_records as u64)),
            ("resumed_interrupted", Value::Bool(self.resumed_interrupted)),
        ])
    }
}

fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

struct ControlState {
    machine: EpochMachine,
    ledger: EpochLedger,
    candidates: Vec<Candidate>,
    /// Stable-phase samples since the last evaluation.
    observed_since_eval: u64,
    /// Remaining migration observations before commit.
    migrate_steps_left: u64,
    /// A rollback was applied-in-intent but its record could not be
    /// appended; retry the append before anything else.
    pending_rollback: bool,
    observe_faults: u64,
    swap_faults: u64,
    ledger_errors: u64,
}

/// The adaptive remapping controller (see the module docs).
pub struct AdaptiveController {
    config: AdaptConfig,
    monitor: CongestionMonitor,
    frozen: AtomicBool,
    inner: Mutex<ControlState>,
    resumed_records: usize,
    resumed_interrupted: bool,
}

impl std::fmt::Debug for AdaptiveController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdaptiveController")
            .field("width", &self.config.width)
            .field("frozen", &self.frozen.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl AdaptiveController {
    /// A controller with an in-memory ledger (no durability).
    ///
    /// # Errors
    /// Unknown initial candidate, unusable width, or a synthesis
    /// workload spec that does not parse.
    pub fn new(config: AdaptConfig) -> Result<Self, String> {
        Self::build(config, EpochLedger::in_memory(), &[])
    }

    /// A controller with a durable ledger at `path`, resuming any
    /// previous run with a matching `(width, seed)` fingerprint. An
    /// interrupted epoch (trailing `Proposed`/`Migrating`) is rolled
    /// back here, durably, before the controller serves anything.
    ///
    /// # Errors
    /// I/O errors opening or repairing the ledger, plus everything
    /// [`Self::new`] rejects.
    pub fn open(config: AdaptConfig, path: &Path) -> Result<Self, String> {
        let (ledger, records) =
            EpochLedger::open(path, config.width, config.seed, SyncPolicy::EveryEntry)
                .map_err(|e| format!("opening epoch ledger: {e}"))?;
        Self::build(config, ledger, &records)
    }

    fn build(
        config: AdaptConfig,
        ledger: EpochLedger,
        records: &[EpochRecord],
    ) -> Result<Self, String> {
        if config.width == 0 {
            return Err("adapt width must be positive".to_string());
        }
        let mut candidates = standard_candidates(config.width);
        if let Some(spec) = &config.synth_workload {
            let synth = synthesized_candidates(config.width, spec, config.seed)?;
            candidates.extend(synth);
        }
        let initial = find(&candidates, &config.initial).cloned().ok_or_else(|| {
            format!(
                "unknown initial candidate '{}' (have: {})",
                config.initial,
                candidates
                    .iter()
                    .map(|c| c.name.as_str())
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        })?;
        let replayed = replay(config.width, initial, records)
            .map_err(|e| format!("epoch ledger replay: {e}"))?;
        let mut machine = replayed.machine;
        let resumed_interrupted = replayed.interrupted;
        if replayed.interrupted {
            // kill -9 mid-epoch: abandon the in-flight swap, durably.
            let rec = machine
                .prepare(Phase::RolledBack, None)
                .map_err(|e| format!("resume rollback: {e}"))?;
            ledger
                .append(&rec)
                .map_err(|e| format!("appending resume rollback: {e}"))?;
            machine
                .apply(&rec, None)
                .map_err(|e| format!("applying resume rollback: {e}"))?;
        }
        let frozen = config.start_frozen;
        Ok(Self {
            monitor: CongestionMonitor::new(config.window, config.ewma_alpha),
            frozen: AtomicBool::new(frozen),
            inner: Mutex::new(ControlState {
                machine,
                ledger,
                candidates,
                observed_since_eval: 0,
                migrate_steps_left: 0,
                pending_rollback: false,
                observe_faults: 0,
                swap_faults: 0,
                ledger_errors: 0,
            }),
            resumed_records: replayed.applied,
            resumed_interrupted,
            config,
        })
    }

    /// Tile width.
    #[must_use]
    pub fn width(&self) -> usize {
        self.config.width
    }

    /// The configuration this controller was built with.
    #[must_use]
    pub fn config(&self) -> &AdaptConfig {
        &self.config
    }

    /// The layout requests must be served from (always the committed
    /// one).
    #[must_use]
    pub fn active(&self) -> ActiveLayout {
        let state = self.lock();
        ActiveLayout {
            candidate: state.machine.active().clone(),
            epoch: state.machine.epoch(),
        }
    }

    /// Machine phase name (`stable`/`proposed`/`migrating`).
    #[must_use]
    pub fn phase_name(&self) -> &'static str {
        self.lock().machine.phase().name()
    }

    /// Enable or disable automatic swapping. A swap already in flight
    /// still completes; freezing only stops new proposals.
    pub fn freeze(&self, frozen: bool) {
        self.frozen.store(frozen, Ordering::Release);
    }

    /// True when automatic swapping is disabled.
    #[must_use]
    pub fn frozen(&self) -> bool {
        self.frozen.load(Ordering::Acquire)
    }

    /// Record one congestion observation and advance the epoch machine
    /// one tick. This is the serve hot path: the monitor update is
    /// lock-free; the tick takes the control mutex briefly.
    ///
    /// Injected panics at the `adapt.*` sites propagate to the caller
    /// (serve isolates the handler in `catch_unwind`) with both memory
    /// and ledger unchanged.
    pub fn observe(&self, class: MatrixPattern, congestion: f64) {
        self.monitor.observe(class, congestion);
        let mut state = self.lock();
        self.tick(&mut state);
    }

    /// Force a swap to `target` (must be a known candidate), spanning
    /// `steps` further observations in `Migrating` before committing
    /// (`0` commits inline). Runs the full epoch protocol: every
    /// failpoint fires and every record is appended.
    ///
    /// # Errors
    /// Unknown target, a swap already in flight, the target already
    /// active, or an injected fault that aborted (and rolled back) the
    /// attempt.
    pub fn force(&self, target: &str, steps: u64) -> Result<(), String> {
        let mut state = self.lock();
        if state.pending_rollback {
            Self::try_rollback(&mut state);
            if state.pending_rollback {
                return Err("rollback record still unflushed".to_string());
            }
        }
        if state.machine.phase() != Phase::Stable {
            return Err(format!(
                "swap already in flight (phase {})",
                state.machine.phase()
            ));
        }
        let target = find(&state.candidates, target)
            .cloned()
            .ok_or_else(|| format!("unknown candidate '{target}'"))?;
        if target.name == state.machine.active().name {
            return Err(format!("'{}' is already active", target.name));
        }
        self.start_swap(&mut state, target, steps)
    }

    /// Point-in-time status snapshot.
    #[must_use]
    pub fn status(&self) -> AdaptStatus {
        let state = self.lock();
        let active = state.machine.active();
        let classes = MatrixPattern::table2()
            .into_iter()
            .map(|class| (class, self.monitor.window(class), active.bound(class)))
            .collect();
        let candidates = state
            .candidates
            .iter()
            .map(|c| (c.name.clone(), c.source, c.bounds))
            .collect();
        AdaptStatus {
            scheme: active.name.clone(),
            epoch: state.machine.epoch(),
            phase: state.machine.phase().name(),
            pending: state.machine.pending().map(|p| p.name.clone()),
            swaps: state.machine.epoch(),
            rollbacks: state.machine.rollbacks(),
            observe_faults: state.observe_faults,
            swap_faults: state.swap_faults,
            ledger_errors: state.ledger_errors,
            frozen: self.frozen(),
            width: self.config.width,
            classes,
            candidates,
            resumed_records: self.resumed_records,
            resumed_interrupted: self.resumed_interrupted,
        }
    }

    fn lock(&self) -> MutexGuard<'_, ControlState> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// One control tick (called with the lock held).
    fn tick(&self, state: &mut ControlState) {
        if state.pending_rollback {
            Self::try_rollback(state);
            return;
        }
        match state.machine.phase() {
            Phase::Migrating => {
                if state.migrate_steps_left > 0 {
                    state.migrate_steps_left -= 1;
                }
                if state.migrate_steps_left == 0 {
                    self.try_commit(state);
                }
            }
            Phase::Proposed => {
                // A fault parked the swap after its proposal; push it
                // forward into Migrating.
                Self::try_migrate(state);
            }
            Phase::Stable => {
                if self.frozen() {
                    return;
                }
                state.observed_since_eval += 1;
                if state.observed_since_eval >= self.config.eval_every {
                    state.observed_since_eval = 0;
                    self.evaluate(state);
                }
            }
            // `Committed`/`RolledBack` are record phases, not machine
            // states; the machine is never parked in them.
            Phase::Committed | Phase::RolledBack => {}
        }
    }

    /// Periodic evaluation: fire `adapt.observe`, consult the cost
    /// model, and start a swap when one pays off.
    fn evaluate(&self, state: &mut ControlState) {
        if site_fault("adapt.observe") {
            state.observe_faults += 1;
            return;
        }
        let windows = self.monitor.windows();
        let total: u64 = windows.iter().map(|w| w.samples).sum();
        if total < self.config.min_samples {
            return;
        }
        let Some(verdict) = self.config.cost.best_swap(
            &state.machine.active().name,
            &state.candidates,
            &windows,
            self.config.width,
        ) else {
            return;
        };
        let Some(target) = find(&state.candidates, &verdict.candidate).cloned() else {
            return;
        };
        let _ = self.start_swap(state, target, self.config.migrate_steps);
    }

    /// Propose `target` and push the epoch forward (through commit when
    /// `steps == 0`). Called with the lock held, machine `Stable`.
    fn start_swap(
        &self,
        state: &mut ControlState,
        target: Candidate,
        steps: u64,
    ) -> Result<(), String> {
        if site_fault("adapt.propose") {
            state.swap_faults += 1;
            return Err("fault at adapt.propose".to_string());
        }
        let rec = state
            .machine
            .prepare(Phase::Proposed, Some(&target))
            .map_err(|e| e.to_string())?;
        if let Err(e) = state.ledger.append(&rec) {
            state.ledger_errors += 1;
            state.swap_faults += 1;
            return Err(format!("proposal not durable: {e}"));
        }
        state
            .machine
            .apply(&rec, Some(target))
            .map_err(|e| e.to_string())?;
        state.migrate_steps_left = steps;
        if !Self::try_migrate(state) {
            return Err("fault at adapt.migrate (rolled back)".to_string());
        }
        if steps == 0 && !self.try_commit(state) {
            return Err("fault at adapt.commit (rolled back)".to_string());
        }
        Ok(())
    }

    /// `Proposed → Migrating`. Any fault rolls the epoch back.
    fn try_migrate(state: &mut ControlState) -> bool {
        if site_fault("adapt.migrate") {
            state.swap_faults += 1;
            Self::try_rollback(state);
            return false;
        }
        let Ok(rec) = state.machine.prepare(Phase::Migrating, None) else {
            return false;
        };
        if let Err(_e) = state.ledger.append(&rec) {
            state.ledger_errors += 1;
            Self::try_rollback(state);
            return false;
        }
        state.machine.apply(&rec, None).is_ok()
    }

    /// `Migrating → Committed`: the one place the active layout changes.
    fn try_commit(&self, state: &mut ControlState) -> bool {
        if site_fault("adapt.commit") {
            state.swap_faults += 1;
            Self::try_rollback(state);
            return false;
        }
        let Ok(rec) = state.machine.prepare(Phase::Committed, None) else {
            return false;
        };
        if let Err(_e) = state.ledger.append(&rec) {
            state.ledger_errors += 1;
            Self::try_rollback(state);
            return false;
        }
        if state.machine.apply(&rec, None).is_err() {
            return false;
        }
        // Judge the new layout on its own traffic.
        self.monitor.reset();
        state.observed_since_eval = 0;
        true
    }

    /// Abandon the in-flight swap. If the rollback record cannot be
    /// appended, park (`pending_rollback`) and retry on later ticks —
    /// memory must not run ahead of the ledger. Should the process die
    /// while parked, resume reaches the same state: the trailing
    /// unresolved record triggers the same rollback.
    fn try_rollback(state: &mut ControlState) {
        let Ok(rec) = state.machine.prepare(Phase::RolledBack, None) else {
            state.pending_rollback = false;
            return;
        };
        if let Err(_e) = state.ledger.append(&rec) {
            state.ledger_errors += 1;
            state.pending_rollback = true;
            return;
        }
        let _ = state.machine.apply(&rec, None);
        state.pending_rollback = false;
        state.migrate_steps_left = 0;
    }
}

/// True when firing `site` reports a fault that must abort the
/// transition (injected ENOSPC or a torn write; delays are latency, not
/// faults; panics propagate).
fn site_fault(site: &str) -> bool {
    match failpoint::fire(site) {
        Ok(None | Some(Fault::Delay)) => false,
        Ok(Some(_)) | Err(_) => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rap_resilience::{install, FailPlan, HitSchedule};
    use std::sync::{Mutex as TestMutex, MutexGuard as TestGuard};

    static CHAOS_LOCK: TestMutex<()> = TestMutex::new(());

    fn chaos_locked() -> TestGuard<'static, ()> {
        CHAOS_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir()
            .join("rap-adapt-ctl-tests")
            .join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("epochs.ledger")
    }

    fn quick_config(width: usize) -> AdaptConfig {
        AdaptConfig {
            width,
            initial: "raw".to_string(),
            eval_every: 8,
            min_samples: 8,
            migrate_steps: 4,
            window: 64,
            cost: CostModel {
                relayout_cost_per_cell: 0.01,
                horizon: 1024,
                margin: 0.25,
            },
            ..AdaptConfig::default()
        }
    }

    /// Drive `n` stride observations at the given congestion.
    fn storm(ctl: &AdaptiveController, n: usize, congestion: f64) {
        for _ in 0..n {
            ctl.observe(MatrixPattern::Stride, congestion);
        }
    }

    #[test]
    fn stride_storm_triggers_swap_and_commit() {
        let _g = chaos_locked();
        let ctl = AdaptiveController::new(quick_config(16)).unwrap();
        assert_eq!(ctl.active().candidate.name, "raw");
        storm(&ctl, 64, 16.0);
        let status = ctl.status();
        assert_eq!(status.phase, "stable");
        assert!(status.swaps >= 1, "{status:?}");
        assert_ne!(status.scheme, "raw");
        // The new scheme's certified stride bound beats raw's w.
        assert!(ctl.active().candidate.bound(MatrixPattern::Stride) < 16);
    }

    #[test]
    fn quiet_traffic_never_swaps() {
        let _g = chaos_locked();
        let ctl = AdaptiveController::new(quick_config(16)).unwrap();
        storm(&ctl, 64, 1.0);
        let status = ctl.status();
        assert_eq!(status.swaps, 0);
        assert_eq!(status.scheme, "raw");
    }

    #[test]
    fn frozen_controller_observes_but_never_swaps() {
        let _g = chaos_locked();
        let mut config = quick_config(16);
        config.start_frozen = true;
        let ctl = AdaptiveController::new(config).unwrap();
        storm(&ctl, 64, 16.0);
        assert_eq!(ctl.status().swaps, 0);
        assert!(ctl.frozen());
        ctl.freeze(false);
        storm(&ctl, 64, 16.0);
        assert!(ctl.status().swaps >= 1);
    }

    #[test]
    fn force_commits_inline_and_refuses_nonsense() {
        let _g = chaos_locked();
        let ctl = AdaptiveController::new(quick_config(8)).unwrap();
        assert!(ctl.force("no-such", 0).is_err());
        assert!(ctl.force("raw", 0).is_err(), "already active");
        ctl.force("rap", 0).unwrap();
        assert_eq!(ctl.active().candidate.name, "rap");
        assert_eq!(ctl.status().swaps, 1);
    }

    #[test]
    fn forced_migration_holds_old_layout_until_steps_elapse() {
        let _g = chaos_locked();
        let ctl = AdaptiveController::new(quick_config(8)).unwrap();
        ctl.force("padded", 3).unwrap();
        assert_eq!(ctl.phase_name(), "migrating");
        assert_eq!(
            ctl.active().candidate.name,
            "raw",
            "old layout serves during migration"
        );
        assert!(ctl.force("rap", 0).is_err(), "swap already in flight");
        for _ in 0..3 {
            ctl.observe(MatrixPattern::Contiguous, 1.0);
        }
        assert_eq!(ctl.phase_name(), "stable");
        assert_eq!(ctl.active().candidate.name, "padded");
    }

    #[test]
    fn propose_fault_aborts_cleanly() {
        let _g = chaos_locked();
        let ctl = AdaptiveController::new(quick_config(8)).unwrap();
        let guard =
            install(FailPlan::new(1).rule("adapt.propose", Fault::Enospc, HitSchedule::Always));
        assert!(ctl.force("rap", 0).is_err());
        drop(guard);
        let status = ctl.status();
        assert_eq!(status.scheme, "raw");
        assert_eq!(status.phase, "stable");
        assert!(status.swap_faults >= 1);
        // Recovers once the fault clears.
        ctl.force("rap", 0).unwrap();
        assert_eq!(ctl.active().candidate.name, "rap");
    }

    #[test]
    fn commit_fault_rolls_back_to_old_layout() {
        let _g = chaos_locked();
        let ctl = AdaptiveController::new(quick_config(8)).unwrap();
        let guard =
            install(FailPlan::new(1).rule("adapt.commit", Fault::Enospc, HitSchedule::Always));
        assert!(ctl.force("rap", 0).is_err());
        drop(guard);
        let status = ctl.status();
        assert_eq!(status.scheme, "raw", "rollback restored the old layout");
        assert_eq!(status.phase, "stable");
        assert_eq!(status.rollbacks, 1);
    }

    #[test]
    fn kill_mid_migration_resumes_with_rollback() {
        let _g = chaos_locked();
        let path = scratch("kill-resume");
        let config = quick_config(8);
        {
            let ctl = AdaptiveController::open(config.clone(), &path).unwrap();
            ctl.force("rap", 0).unwrap(); // committed swap survives
            ctl.force("padded", 100).unwrap(); // parked in Migrating
            assert_eq!(ctl.phase_name(), "migrating");
            // kill -9: drop without commit.
        }
        let ctl = AdaptiveController::open(config.clone(), &path).unwrap();
        let status = ctl.status();
        assert_eq!(status.scheme, "rap", "committed swap survived the kill");
        assert_eq!(status.phase, "stable");
        assert!(status.resumed_interrupted);
        assert_eq!(status.rollbacks, 1);
        // A fresh controller replaying the same ledger reaches the same
        // state (determinism of resume).
        drop(ctl);
        let again = AdaptiveController::open(config, &path).unwrap();
        let s2 = again.status();
        assert_eq!(s2.scheme, "rap");
        assert_eq!(s2.rollbacks, 1, "resume rollback already durable");
        assert!(!s2.resumed_interrupted);
    }

    #[test]
    fn synth_candidates_join_the_set_and_are_forceable() {
        let _g = chaos_locked();
        let mut config = quick_config(8);
        config.synth_workload = Some("column:0;column:3".to_string());
        let ctl = AdaptiveController::new(config).unwrap();
        let status = ctl.status();
        let synth: Vec<_> = status
            .candidates
            .iter()
            .filter(|(_, source, _)| *source == "synthesis")
            .collect();
        assert!(!synth.is_empty(), "synthesized candidates in the set");
        let name = synth[0].0.clone();
        ctl.force(&name, 0).unwrap();
        let active = ctl.active().candidate;
        assert_eq!(active.name, name);
        assert!(matches!(active.kind, crate::CandidateKind::Table(_)));
    }

    #[test]
    fn status_value_is_well_formed() {
        let _g = chaos_locked();
        let ctl = AdaptiveController::new(quick_config(8)).unwrap();
        let value = ctl.status().to_value();
        let text = serde_json::to_string(&value).unwrap();
        assert!(text.contains("\"scheme\":\"raw\""));
        assert!(text.contains("\"phase\":\"stable\""));
        assert!(text.contains("\"candidates\""));
    }
}
