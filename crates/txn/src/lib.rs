//! Unbundled transaction services for the database machine.
//!
//! The paper makes every reconfiguration "a transaction in the database
//! sense" — but the original guarantee stops at a single server, where
//! journal, lock state and runtime are fused. This crate unbundles them
//! along the seam Lomet, Fekete and Weikum argue for ("Unbundling
//! Transaction Services in the Cloud"), with the decoupled concurrency
//! control of Zhou et al.:
//!
//! - **TC** — the shared [`TransactionCore`]: a strict two-phase
//!   [`LockManager`] (deadlock detection via the platform-wide
//!   [`adl::analysis::find_cycle`]) plus the unified [`TxnLog`]: the one
//!   log every SWITCH writes. The Adaptivity Manager logs a single-node
//!   switch in it as a one-shard transaction; a cross-shard switch adds
//!   the two-phase-commit control records.
//! - **DC** — per-shard [`DataComponent`]s: one runtime's worth of live
//!   component state behind a logged-operation interface, optionally
//!   backed by a [`store::StorageEngine`] for durable atom state.
//!
//! On top rides **cross-shard SWITCH**: presumed-abort two-phase commit
//! ([`TransactionCore::execute_cross_shard`]) with in-doubt resolution
//! on recovery ([`TransactionCore::recover`]) — participants that
//! prepared but lost the coordinator query the shared log, and the
//! absence of a decision record *is* the deterministic abort verdict.
//! Both run through the one SWITCH executor in [`compkit::journal`], the
//! single-node switch's too; the [`crash`] module names the protocol's
//! crash points over its one boundary list, and `scenario::txnrep` (in
//! `adm-core`) sweeps them as a conformance matrix proving the
//! never-hybrid guarantee holds across shards.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod core;
pub mod crash;
pub mod lock;
pub mod log;
pub mod shard;

pub use crate::core::{CrossShardReport, TransactionCore, TxnError};
pub use crash::{NoTxnCrash, PlannedTxnCrash, TxnCrashPoint};
pub use lock::{LockManager, LockMode};
pub use log::{OpenGlobalTxn, ShardId, ShardProgress, TxnLog, TxnRecord};
pub use shard::{DataComponent, PlanStep};
