//! **rap-cluster** — a fault-tolerant sharded Monte-Carlo coordinator
//! with bit-exact aggregation.
//!
//! `rap-serve` hardens one process; this crate coordinates *N* of them.
//! A sweep (e.g. the Table II reproduction) is decomposed into the
//! engine's 32-trial blocks, dispatched across worker shards over the
//! line-JSON protocol's `pattern_block` command, and merged to statistics
//! **bit-identical** to a single-process run — through worker crashes,
//! stragglers, reconnects, and a coordinator `kill -9`.
//!
//! * [`worker`] — the shard pool: in-process servers, spawned `rap
//!   serve` processes (individually SIGKILL-able for chaos), or external
//!   addresses; health probes and the kill hook;
//! * [`ring`] — consistent-hash routing of repeated queries to warm
//!   shards, with minimal re-mapping when a shard dies;
//! * [`sweep`] — the coordinator itself: lease-based block dispatch,
//!   hedged straggler re-dispatch, first-writer-wins dedup through the
//!   checkpoint [`rap_resilience::Ledger`], seeded-backoff reconnects,
//!   and graceful degradation to in-process execution below quorum.
//!
//! The determinism argument is inherited, not invented: every block's
//! accumulator is a pure function of `(domain, trials, block)`, and the
//! merged estimate is a pure fold over blocks in index order. The
//! coordinator only decides *where* blocks run — never *what* they
//! compute — so any schedule, any failure pattern, and any worker count
//! produce the same bits.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ring;
pub mod sweep;
pub mod worker;

pub use ring::HashRing;
pub use sweep::{Cluster, ClusterConfig, ClusterError, ClusterReport, SweepCell};
pub use worker::{spawn_serve, WorkerPool, READY_PREFIX};
