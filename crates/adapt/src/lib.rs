//! Self-healing **adaptive remapping** for the RAP shared-memory stack.
//!
//! The paper's schemes are chosen *statically*: Table II tells you which
//! mapping survives which access pattern, and a tenant picks one up
//! front. This crate closes the loop (ROADMAP item 4, DReAM-style): it
//! watches the live congestion a tenant actually experiences, compares
//! it against **machine-certified** worst-case bounds for every
//! candidate layout, and hot-swaps the mapping when — and only when — a
//! migration cost model says the swap pays for itself.
//!
//! The subsystem is built from five small parts:
//!
//! * [`monitor`] — per-traffic-class ring buffers + EWMA; the hot path
//!   is zero-allocation and lock-free;
//! * [`candidates`] — the swap candidate set: static schemes with
//!   prover-certified bounds (`rap-analyze`) plus synthesized tables
//!   (`rap-synthesize`) whose certificates passed the independent
//!   checker and whose per-class bounds are recomputed exactly here;
//! * [`cost`] — amortized re-layout cost vs. projected congestion
//!   savings over a configurable horizon, with hysteresis;
//! * [`epoch`] — the `Stable → Proposed → Migrating → Committed |
//!   RolledBack` state machine. Transitions are prepared (validated +
//!   recorded) before they are applied, so the durable ledger never
//!   lags memory;
//! * [`controller`] — the [`AdaptiveController`] gluing it together,
//!   with failpoint sites `adapt.observe`, `adapt.propose`,
//!   `adapt.migrate`, `adapt.commit` wired into `rap-resilience`.
//!
//! Durability reuses the PR-4 checkpoint machinery: epoch records are
//! JSON lines in a [`rap_resilience::Journal`] with a fingerprint
//! header, torn-tail truncation, and the `ledger.append` failpoint. A
//! `kill -9` at any phase resumes deterministically — an interrupted
//! `Migrating` epoch rolls back to the last `Committed` layout, and
//! requests served during a migration are answered from the old layout,
//! never a torn hybrid.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod candidates;
pub mod controller;
pub mod cost;
pub mod epoch;
pub mod ledger;
pub mod monitor;

pub use candidates::{find, standard_candidates, synthesized_candidates, Candidate, CandidateKind};
pub use controller::{ActiveLayout, AdaptConfig, AdaptStatus, AdaptiveController};
pub use cost::{CostModel, SwapVerdict};
pub use epoch::{candidate_from_record, replay, EpochError, EpochMachine, EpochRecord, Phase};
pub use ledger::EpochLedger;
pub use monitor::{ClassWindow, CongestionMonitor, CLASSES};
/// The monitored traffic classes are the Table II pattern families.
pub use rap_access::MatrixPattern as TrafficClass;
