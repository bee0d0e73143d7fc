//! The named crash points of cross-shard transactions.
//!
//! The crash model is [`compkit::journal`]'s, unchanged: crashes strike
//! only at the record boundaries of the shared transaction log
//! ([`Boundary`], the one list every log consults), appends are atomic,
//! and a crash kills the in-flight control flow (coordinator and fan-out
//! alike) while the log and the shard runtimes survive. Recovery reads
//! the log back and finishes the protocol.
//!
//! [`TxnCrashPoint`] is the plan-level vocabulary a scenario arms
//! (before-prepare, mid-prepare, after-prepare, before/after the commit
//! decision, mid commit/abort fan-out, mid rollback, during recovery):
//! each names the boundary it fires at. [`PlannedTxnCrash`] fires its
//! point exactly once, and exposes [`PlannedCrash::fired`] so scenario
//! teardown can assert the point was actually reached — an unreached
//! crash point fails the matrix instead of silently passing.

use compkit::journal::{Boundary, CrashPlan, PlannedCrash};
use std::fmt;

pub use compkit::journal::NoCrash as NoTxnCrash;

/// A [`PlannedCrash`] armed at a [`TxnCrashPoint`].
pub type PlannedTxnCrash = PlannedCrash<TxnCrashPoint>;

/// A crash point a scenario plans ahead of time — one per protocol
/// boundary class. Nine points cover every seam of presumed-abort 2PC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TxnCrashPoint {
    /// Die right after `Begin`, before any lock or prepare work.
    BeforePrepare,
    /// Die once shard `shard` has applied `after_steps` steps.
    MidPrepare {
        /// The shard.
        shard: u32,
        /// Steps applied when the crash strikes (1-based).
        after_steps: usize,
    },
    /// Die right after shard `shard` votes yes.
    AfterPrepare {
        /// The shard.
        shard: u32,
    },
    /// Die with all votes in, before the decision record.
    BeforeDecision,
    /// Die right after the decision record — committed but untold.
    AfterDecision,
    /// Die mid commit fan-out, after shard `shard` learned the outcome.
    MidCommitFanout {
        /// The last shard told.
        shard: u32,
    },
    /// Die mid rollback, after `after_undos` compensations (1-based).
    MidUndo {
        /// Undo count when the crash strikes.
        after_undos: usize,
    },
    /// Die mid abort fan-out, after shard `shard`'s abort record.
    MidAbortFanout {
        /// The last shard told.
        shard: u32,
    },
    /// Die *during recovery*, after `after_undos` recovery
    /// compensations (1-based).
    DuringRecovery {
        /// Recovery undo count when the crash strikes.
        after_undos: usize,
    },
}

impl CrashPlan for TxnCrashPoint {
    fn matches(&self, at: &Boundary) -> bool {
        match (self, at) {
            (TxnCrashPoint::BeforePrepare, Boundary::Begun)
            | (TxnCrashPoint::BeforeDecision, Boundary::BeforeDecision)
            | (TxnCrashPoint::AfterDecision, Boundary::AfterDecision) => true,
            (TxnCrashPoint::MidPrepare { shard, after_steps }, Boundary::Applied(s, index)) => {
                s.0 == *shard && index + 1 == *after_steps
            }
            (TxnCrashPoint::AfterPrepare { shard }, Boundary::Prepared(s))
            | (TxnCrashPoint::MidCommitFanout { shard }, Boundary::Committed(s))
            | (TxnCrashPoint::MidAbortFanout { shard }, Boundary::Aborted(s)) => s.0 == *shard,
            (TxnCrashPoint::MidUndo { after_undos }, Boundary::Undone(_, n))
            | (TxnCrashPoint::DuringRecovery { after_undos }, Boundary::RecoveryUndone(_, n)) => {
                n == after_undos
            }
            _ => false,
        }
    }
}

impl fmt::Display for TxnCrashPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TxnCrashPoint::BeforePrepare => write!(f, "before-prepare"),
            TxnCrashPoint::MidPrepare { shard, after_steps } => {
                write!(f, "mid-prepare-s{shard}-{after_steps}")
            }
            TxnCrashPoint::AfterPrepare { shard } => write!(f, "after-prepare-s{shard}"),
            TxnCrashPoint::BeforeDecision => write!(f, "before-decision"),
            TxnCrashPoint::AfterDecision => write!(f, "after-decision"),
            TxnCrashPoint::MidCommitFanout { shard } => write!(f, "mid-commit-s{shard}"),
            TxnCrashPoint::MidUndo { after_undos } => write!(f, "mid-undo-{after_undos}"),
            TxnCrashPoint::MidAbortFanout { shard } => write!(f, "mid-abort-s{shard}"),
            TxnCrashPoint::DuringRecovery { after_undos } => {
                write!(f, "during-recovery-{after_undos}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use compkit::journal::{CrashHook, CrashPoint, ShardId};

    /// `point` fires at `at`, once, and at neither neighbour in `next`.
    fn fires_once_at<P: CrashPlan + fmt::Display>(point: P, at: Boundary, next: [Boundary; 2]) {
        let mut hook = PlannedCrash::new(point);
        for b in next {
            assert!(!hook.crash(&b) && !hook.fired(), "{point} must not fire at {b}");
        }
        assert!(hook.crash(&at) && hook.fired(), "{point} must fire at {at}");
        assert!(!hook.crash(&at), "{point} fires once");
        for b in [Boundary::Intent(ShardId(0)), Boundary::Ended] {
            assert!(!point.matches(&b), "no named point fires at {b}");
        }
    }

    /// Every named point of both vocabularies, with the boundary it fires
    /// at and two neighbouring ones it must not: the one table the store's
    /// WAL, the single-node switch and the two-phase commit all share.
    /// No named point fires at a boundary only the executor added.
    #[test]
    fn every_point_fires_at_its_boundary_and_not_its_neighbour() {
        use Boundary as B;
        let (s0, s1, s2) = (ShardId(0), ShardId(1), ShardId(2));
        for (point, at, next) in [
            (
                CrashPoint::MidPlan { after_steps: 0 },
                B::Begun,
                [B::Applied(s0, 0), B::BeforeDecision],
            ),
            (
                CrashPoint::MidPlan { after_steps: 2 },
                B::Applied(s0, 1),
                [B::Applied(s0, 0), B::Applied(s0, 2)],
            ),
            (CrashPoint::BeforeCommit, B::BeforeDecision, [B::AfterDecision, B::Applied(s0, 0)]),
            (CrashPoint::AfterCommit, B::AfterDecision, [B::BeforeDecision, B::Committed(s0)]),
            (
                CrashPoint::MidRollback { after_undos: 1 },
                B::Undone(s0, 1),
                [B::RecoveryUndone(s0, 1), B::Undone(s0, 2)],
            ),
            (
                CrashPoint::DuringRecovery { after_undos: 1 },
                B::RecoveryUndone(s0, 1),
                [B::Undone(s0, 1), B::RecoveryUndone(s0, 2)],
            ),
        ] {
            fires_once_at(point, at, next);
        }
        for (point, at, next) in [
            (TxnCrashPoint::BeforePrepare, B::Begun, [B::Intent(s0), B::Applied(s0, 0)]),
            (
                TxnCrashPoint::MidPrepare { shard: 1, after_steps: 2 },
                B::Applied(s1, 1),
                [B::Applied(s0, 1), B::Applied(s1, 0)],
            ),
            (
                TxnCrashPoint::AfterPrepare { shard: 0 },
                B::Prepared(s0),
                [B::Prepared(s1), B::Committed(s0)],
            ),
            (TxnCrashPoint::BeforeDecision, B::BeforeDecision, [B::AfterDecision, B::Prepared(s0)]),
            (TxnCrashPoint::AfterDecision, B::AfterDecision, [B::BeforeDecision, B::Committed(s0)]),
            (
                TxnCrashPoint::MidCommitFanout { shard: 2 },
                B::Committed(s2),
                [B::Committed(s1), B::Aborted(s2)],
            ),
            (
                TxnCrashPoint::MidUndo { after_undos: 3 },
                B::Undone(s1, 3),
                [B::RecoveryUndone(s1, 3), B::Undone(s1, 2)],
            ),
            (
                TxnCrashPoint::MidAbortFanout { shard: 0 },
                B::Aborted(s0),
                [B::Aborted(s1), B::Committed(s0)],
            ),
            (
                TxnCrashPoint::DuringRecovery { after_undos: 1 },
                B::RecoveryUndone(s2, 1),
                [B::Undone(s2, 1), B::RecoveryUndone(s2, 2)],
            ),
        ] {
            fires_once_at(point, at, next);
        }
    }

    #[test]
    fn unfired_hook_is_visible() {
        let hook = PlannedTxnCrash::new(TxnCrashPoint::AfterDecision);
        assert!(!hook.fired());
        assert_eq!(hook.point().to_string(), "after-decision");
    }

    #[test]
    fn every_point_renders_distinctly() {
        let points = [
            TxnCrashPoint::BeforePrepare,
            TxnCrashPoint::MidPrepare { shard: 0, after_steps: 1 },
            TxnCrashPoint::AfterPrepare { shard: 0 },
            TxnCrashPoint::BeforeDecision,
            TxnCrashPoint::AfterDecision,
            TxnCrashPoint::MidCommitFanout { shard: 0 },
            TxnCrashPoint::MidUndo { after_undos: 1 },
            TxnCrashPoint::MidAbortFanout { shard: 0 },
            TxnCrashPoint::DuringRecovery { after_undos: 1 },
        ];
        let rendered: std::collections::BTreeSet<String> =
            points.iter().map(ToString::to_string).collect();
        assert_eq!(rendered.len(), points.len());
    }
}
