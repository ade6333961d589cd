//! Property tests for the epoch state machine and the adaptive
//! controller (ISSUE 10 satellite): arbitrary interleavings of
//! observe/propose/migrate/commit/rollback events — with faults
//! injected at every epoch site — never reach an invalid state, never
//! lose the committed layout, and ledger round-trips are lossless.

use proptest::prelude::*;
use rap_access::MatrixPattern;
use rap_adapt::{
    replay, AdaptConfig, AdaptiveController, Candidate, CostModel, EpochMachine, EpochRecord, Phase,
};
use rap_resilience::{install, FailPlan, Fault, HitSchedule};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Failpoint plans are process-global; serialize the tests that install
/// them.
static CHAOS_LOCK: Mutex<()> = Mutex::new(());

fn chaos_locked() -> MutexGuard<'static, ()> {
    CHAOS_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn scratch(name: &str, case: u64) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("rap-adapt-proptest")
        .join(format!("{name}-{}-{case}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("creating scratch dir");
    dir.join("epochs.ledger")
}

const WIDTH: usize = 8;

fn candidate_set() -> Vec<Candidate> {
    rap_adapt::standard_candidates(WIDTH)
}

/// Decode one op byte into a transition attempt.
fn phase_of(op: u8) -> Phase {
    match op % 5 {
        0 => Phase::Proposed,
        1 => Phase::Migrating,
        2 => Phase::Committed,
        3 => Phase::RolledBack,
        _ => Phase::Stable,
    }
}

proptest! {
    /// Arbitrary transition attempts never panic, never corrupt the
    /// machine: refused transitions are pure, the active layout is only
    /// ever the initial candidate or a committed target, and `pending`
    /// exists exactly in Proposed/Migrating.
    #[test]
    fn arbitrary_interleavings_never_reach_invalid_state(
        ops in proptest::collection::vec((0u8..8, 0usize..8), 0..60),
    ) {
        let set = candidate_set();
        let mut machine = EpochMachine::new(WIDTH, set[0].clone());
        let mut committed_names = vec![set[0].name.clone()];
        for (op, target_idx) in ops {
            let to = phase_of(op);
            let target = set[target_idx % set.len()].clone();
            let before_phase = machine.phase();
            let before_active = machine.active().name.clone();
            let before_seq = machine.seq();
            match machine.prepare(to, Some(&target)) {
                Ok(rec) => {
                    machine.apply(&rec, Some(target)).expect("prepared record applies");
                    if rec.phase == Phase::Committed {
                        committed_names.push(machine.active().name.clone());
                    }
                }
                Err(_) => {
                    // Refused transitions must be pure.
                    prop_assert_eq!(machine.phase(), before_phase);
                    prop_assert_eq!(&machine.active().name, &before_active);
                    prop_assert_eq!(machine.seq(), before_seq);
                }
            }
            // Machine invariants.
            prop_assert!(matches!(
                machine.phase(),
                Phase::Stable | Phase::Proposed | Phase::Migrating
            ));
            prop_assert_eq!(
                machine.pending().is_some(),
                machine.phase() != Phase::Stable
            );
            prop_assert!(committed_names.contains(&machine.active().name));
        }
    }

    /// Every applied record stream is lossless through JSON and through
    /// replay: the replayed machine matches the live one field-for-field.
    #[test]
    fn ledger_round_trips_are_lossless(
        ops in proptest::collection::vec((0u8..8, 0usize..8), 0..60),
    ) {
        let set = candidate_set();
        let mut machine = EpochMachine::new(WIDTH, set[0].clone());
        let mut log: Vec<EpochRecord> = Vec::new();
        for (op, target_idx) in ops {
            let target = set[target_idx % set.len()].clone();
            if let Ok(rec) = machine.prepare(phase_of(op), Some(&target)) {
                machine.apply(&rec, Some(target)).expect("prepared record applies");
                log.push(rec);
            }
        }
        // JSON round trip is identity.
        for rec in &log {
            let json = serde_json::to_string(rec).unwrap();
            let back: EpochRecord = serde_json::from_str(&json).unwrap();
            prop_assert_eq!(&back, rec);
        }
        // Replay rebuilds the live machine exactly.
        let replayed = replay(WIDTH, set[0].clone(), &log).unwrap();
        prop_assert_eq!(replayed.machine.seq(), machine.seq());
        prop_assert_eq!(replayed.machine.epoch(), machine.epoch());
        prop_assert_eq!(replayed.machine.rollbacks(), machine.rollbacks());
        prop_assert_eq!(&replayed.machine.active().name, &machine.active().name);
        prop_assert_eq!(replayed.machine.phase(), machine.phase());
        prop_assert_eq!(replayed.interrupted, machine.phase() != Phase::Stable);
    }

    /// The full controller under injected faults at every epoch site
    /// (panics, torn writes, ENOSPC, delays, on pseudo-random
    /// schedules): no invalid state is ever observable, the committed
    /// layout is never lost, and a post-run resume from the ledger
    /// lands on exactly the live controller's committed layout.
    #[test]
    fn controller_survives_fault_storms_at_every_site(
        case in 0u64..1_000_000,
        ops in proptest::collection::vec((0u8..6, 0usize..8, 0u64..3), 1..40),
    ) {
        let _g = chaos_locked();
        let path = scratch("storm", case);
        let config = AdaptConfig {
            width: WIDTH,
            initial: "raw".to_string(),
            seed: case,
            eval_every: 4,
            min_samples: 4,
            migrate_steps: 2,
            cost: CostModel { relayout_cost_per_cell: 0.01, horizon: 512, margin: 0.25 },
            ..AdaptConfig::default()
        };
        let set = candidate_set();
        let ctl = AdaptiveController::open(config.clone(), &path).unwrap();
        let guard = install(
            FailPlan::new(case)
                .rule("adapt.observe", Fault::Delay, HitSchedule::Rate { num: 1, den: 3 })
                .rule("adapt.propose", Fault::Panic, HitSchedule::Rate { num: 1, den: 4 })
                .rule("adapt.migrate", Fault::Enospc, HitSchedule::Rate { num: 1, den: 3 })
                .rule("adapt.commit", Fault::Panic, HitSchedule::Rate { num: 1, den: 4 })
                .rule("ledger.append", Fault::PartialWrite, HitSchedule::Rate { num: 1, den: 5 }),
        );
        for (op, target_idx, class_sel) in &ops {
            let ctl_ref = &ctl;
            // Injected panics must be contained exactly the way serve
            // contains them: catch_unwind around the handler step.
            let _ = catch_unwind(AssertUnwindSafe(|| {
                if op % 3 == 0 {
                    let name = set[target_idx % set.len()].name.clone();
                    let _ = ctl_ref.force(&name, u64::from(op % 2));
                } else {
                    let class = MatrixPattern::table2()[(*class_sel as usize) % 4];
                    ctl_ref.observe(class, f64::from(WIDTH as u32));
                }
            }));
            let status = ctl.status();
            prop_assert!(
                matches!(status.phase, "stable" | "proposed" | "migrating"),
                "phase {}", status.phase
            );
            prop_assert!(
                status.candidates.iter().any(|(name, _, _)| *name == status.scheme),
                "active '{}' not in candidate set", status.scheme
            );
        }
        drop(guard);
        let live = ctl.status();
        drop(ctl);
        // Resume must land on the live controller's committed layout —
        // interrupted epochs roll back, committed ones survive.
        let resumed = AdaptiveController::open(config, &path).unwrap();
        let after = resumed.status();
        prop_assert_eq!(&after.scheme, &live.scheme, "committed layout lost");
        prop_assert_eq!(after.phase, "stable");
        prop_assert!(after.epoch <= live.epoch + 1);
    }
}
