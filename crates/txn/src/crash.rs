//! Coordinator/participant crash model for cross-shard transactions.
//!
//! The model extends [`compkit::journal`]'s one-shard discipline to
//! the two-phase-commit protocol: crashes strike only at *record
//! boundaries* of the shared transaction log, appends are atomic, and a
//! crash kills the in-flight control flow (coordinator and fan-out
//! alike) while the log and the shard runtimes survive. Recovery reads
//! the log back and finishes the protocol.
//!
//! [`TxnCrashSite`] enumerates every boundary the protocol crosses;
//! [`TxnCrashPoint`] is the plan-level vocabulary a scenario arms
//! (before-prepare, mid-prepare, after-prepare, before/after the commit
//! decision, mid commit/abort fan-out, mid rollback, during recovery).
//! [`PlannedTxnCrash`] fires its point exactly once, and exposes
//! [`PlannedTxnCrash::fired`] so scenario teardown can assert the point
//! was actually reached — an unreached crash site fails the matrix
//! instead of silently passing.

use std::fmt;

/// A protocol boundary the executing transaction just crossed. The
/// coordinator consults the crash hook at each one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnCrashSite {
    /// `Begin` appended; no shard has done any work.
    BeforePrepare,
    /// Shard `shard` applied (and logged) step `index` of its sub-plan.
    ShardStep {
        /// The shard.
        shard: u32,
        /// Zero-based step index.
        index: usize,
    },
    /// Shard `shard`'s `Prepared` vote was logged and forced.
    ShardPrepared {
        /// The voting shard.
        shard: u32,
    },
    /// All shards voted yes; the decision record is not yet written.
    BeforeDecision,
    /// The commit decision is logged and forced — the transaction is
    /// committed, but no shard has been told.
    AfterDecision,
    /// Commit fan-out reached shard `shard` (its record is logged).
    ShardCommitted {
        /// The shard.
        shard: u32,
    },
    /// Rollback compensated its `undos`-th step overall (1-based,
    /// counted across shards in rollback order).
    ShardUndone {
        /// The shard whose step was undone.
        shard: u32,
        /// Total undo count so far.
        undos: usize,
    },
    /// Abort fan-out reached shard `shard`.
    ShardAborted {
        /// The shard.
        shard: u32,
    },
    /// Recovery compensated its `undos`-th step overall (1-based).
    RecoveryUndo {
        /// Total recovery undo count so far.
        undos: usize,
    },
}

impl fmt::Display for TxnCrashSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TxnCrashSite::BeforePrepare => write!(f, "before-prepare"),
            TxnCrashSite::ShardStep { shard, index } => {
                write!(f, "shard-step s{shard}[{index}]")
            }
            TxnCrashSite::ShardPrepared { shard } => write!(f, "shard-prepared s{shard}"),
            TxnCrashSite::BeforeDecision => write!(f, "before-decision"),
            TxnCrashSite::AfterDecision => write!(f, "after-decision"),
            TxnCrashSite::ShardCommitted { shard } => write!(f, "shard-committed s{shard}"),
            TxnCrashSite::ShardUndone { shard, undos } => {
                write!(f, "shard-undone s{shard} undos={undos}")
            }
            TxnCrashSite::ShardAborted { shard } => write!(f, "shard-aborted s{shard}"),
            TxnCrashSite::RecoveryUndo { undos } => write!(f, "recovery-undo undos={undos}"),
        }
    }
}

/// A crash point a scenario plans ahead of time — one per protocol
/// boundary class. Nine points cover every seam of presumed-abort 2PC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TxnCrashPoint {
    /// Die right after `Begin`, before any prepare work.
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

impl TxnCrashPoint {
    /// Does this planned point fire at `site`?
    #[must_use]
    pub fn matches(&self, site: &TxnCrashSite) -> bool {
        match (self, site) {
            (TxnCrashPoint::BeforePrepare, TxnCrashSite::BeforePrepare)
            | (TxnCrashPoint::BeforeDecision, TxnCrashSite::BeforeDecision)
            | (TxnCrashPoint::AfterDecision, TxnCrashSite::AfterDecision) => true,
            (
                TxnCrashPoint::MidPrepare { shard, after_steps },
                TxnCrashSite::ShardStep { shard: s, index },
            ) => shard == s && index + 1 == *after_steps,
            (TxnCrashPoint::AfterPrepare { shard }, TxnCrashSite::ShardPrepared { shard: s })
            | (
                TxnCrashPoint::MidCommitFanout { shard },
                TxnCrashSite::ShardCommitted { shard: s },
            )
            | (TxnCrashPoint::MidAbortFanout { shard }, TxnCrashSite::ShardAborted { shard: s }) => {
                shard == s
            }
            (TxnCrashPoint::MidUndo { after_undos }, TxnCrashSite::ShardUndone { undos, .. })
            | (
                TxnCrashPoint::DuringRecovery { after_undos },
                TxnCrashSite::RecoveryUndo { undos },
            ) => undos == after_undos,
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

/// Consulted at every [`TxnCrashSite`]. Returning `true` kills the
/// in-flight protocol step there.
pub trait TxnCrashHook: fmt::Debug {
    /// Crash at `site`?
    fn crash(&mut self, _site: &TxnCrashSite) -> bool {
        false
    }
}

/// The default hook: never crashes.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoTxnCrash;

impl TxnCrashHook for NoTxnCrash {}

/// Fires its planned point exactly once, and remembers whether it did —
/// the coverage witness scenario teardown asserts on.
#[derive(Debug, Clone)]
pub struct PlannedTxnCrash {
    point: TxnCrashPoint,
    fired: bool,
}

impl PlannedTxnCrash {
    /// Arm `point`.
    #[must_use]
    pub fn new(point: TxnCrashPoint) -> Self {
        Self { point, fired: false }
    }

    /// The armed point.
    #[must_use]
    pub fn point(&self) -> TxnCrashPoint {
        self.point
    }

    /// Whether the point was reached and the crash delivered.
    #[must_use]
    pub fn fired(&self) -> bool {
        self.fired
    }
}

impl TxnCrashHook for PlannedTxnCrash {
    fn crash(&mut self, site: &TxnCrashSite) -> bool {
        if !self.fired && self.point.matches(site) {
            self.fired = true;
            return true;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planned_crash_fires_once_at_its_site() {
        let mut hook = PlannedTxnCrash::new(TxnCrashPoint::MidPrepare { shard: 1, after_steps: 2 });
        assert!(!hook.crash(&TxnCrashSite::ShardStep { shard: 1, index: 0 }));
        assert!(!hook.crash(&TxnCrashSite::ShardStep { shard: 0, index: 1 }));
        assert!(hook.crash(&TxnCrashSite::ShardStep { shard: 1, index: 1 }));
        assert!(hook.fired());
        assert!(!hook.crash(&TxnCrashSite::ShardStep { shard: 1, index: 1 }), "fires once");
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

    #[test]
    fn fanout_points_match_their_shard_only() {
        let p = TxnCrashPoint::MidCommitFanout { shard: 2 };
        assert!(p.matches(&TxnCrashSite::ShardCommitted { shard: 2 }));
        assert!(!p.matches(&TxnCrashSite::ShardCommitted { shard: 1 }));
        assert!(!p.matches(&TxnCrashSite::ShardAborted { shard: 2 }));
    }
}
