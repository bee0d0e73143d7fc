//! Crash-hook coverage accounting.
//!
//! A fault matrix is only as strong as the crash points it actually
//! reaches: a scripted crash that never fires means the protocol path it
//! was supposed to interrupt was never executed, and the matrix cell
//! silently degenerates into a fault-free run. The [`CoverageLedger`]
//! closes that hole — scenarios record every armed hook at teardown and
//! fail the cell if any point is still pending ([`CoverageLedger::unfired`]).

use crate::adapters::{PlanCrashHook, PlanTxnCrashHook};
use std::fmt::Write as _;

/// Anything that arms crash points and can report how many fired.
///
/// Implemented for the plan-driven hooks ([`PlanCrashHook`],
/// [`PlanTxnCrashHook`]) and the single-shot scripted crashes
/// ([`compkit::journal::PlannedCrash`], [`txn::PlannedTxnCrash`]), so one
/// ledger can audit a whole scenario's injection surfaces.
pub trait HookCoverage {
    /// How many crash points the hook was armed with.
    fn armed(&self) -> usize;
    /// How many of those points actually fired.
    fn fired_points(&self) -> usize;
    /// Rendered labels of the points that never fired. May be empty even
    /// when points are pending, if the hook cannot name them; the ledger
    /// then falls back to the entry name and a count.
    fn unfired_labels(&self) -> Vec<String> {
        Vec::new()
    }
}

impl HookCoverage for PlanCrashHook {
    fn armed(&self) -> usize {
        self.fired() + self.pending()
    }
    fn fired_points(&self) -> usize {
        self.fired()
    }
    fn unfired_labels(&self) -> Vec<String> {
        PlanCrashHook::unfired_labels(self)
    }
}

impl HookCoverage for PlanTxnCrashHook {
    fn armed(&self) -> usize {
        self.fired() + self.pending()
    }
    fn fired_points(&self) -> usize {
        self.fired()
    }
    fn unfired_labels(&self) -> Vec<String> {
        PlanTxnCrashHook::unfired_labels(self)
    }
}

impl HookCoverage for compkit::journal::PlannedCrash {
    fn armed(&self) -> usize {
        1
    }
    fn fired_points(&self) -> usize {
        usize::from(self.fired())
    }
}

impl HookCoverage for txn::PlannedTxnCrash {
    fn armed(&self) -> usize {
        1
    }
    fn fired_points(&self) -> usize {
        usize::from(self.fired())
    }
    fn unfired_labels(&self) -> Vec<String> {
        if self.fired() {
            Vec::new()
        } else {
            vec![self.point().to_string()]
        }
    }
}

/// One audited hook: who it was, what it armed, what actually fired.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoverageEntry {
    /// Caller-chosen hook name (e.g. `"coordinator"`, `"shard s1"`).
    pub name: String,
    /// Points the hook was armed with.
    pub armed: usize,
    /// Points that fired.
    pub fired: usize,
    /// Labels of the unfired points, when the hook can name them.
    pub unfired_labels: Vec<String>,
}

/// Scenario-teardown audit of every armed crash hook.
///
/// Scenarios [`record`](CoverageLedger::record) each hook after the run
/// and assert that [`unfired`](CoverageLedger::unfired) is empty; an
/// unreached crash point shows up there with its hook name and label, and
/// fails the matrix cell instead of passing it vacuously.
#[derive(Debug, Clone, Default)]
pub struct CoverageLedger {
    entries: Vec<CoverageEntry>,
}

impl CoverageLedger {
    /// An empty ledger.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Audit `hook` under `name`.
    pub fn record(&mut self, name: &str, hook: &dyn HookCoverage) {
        self.entries.push(CoverageEntry {
            name: name.to_owned(),
            armed: hook.armed(),
            fired: hook.fired_points(),
            unfired_labels: hook.unfired_labels(),
        });
    }

    /// Every recorded entry, in recording order.
    #[must_use]
    pub fn entries(&self) -> &[CoverageEntry] {
        &self.entries
    }

    /// True when every armed point of every recorded hook fired.
    #[cfg(test)]
    fn all_fired(&self) -> bool {
        self.entries.iter().all(|e| e.fired == e.armed)
    }

    /// One line per unfired point: `"name: label"`, or
    /// `"name: N point(s) unfired"` when the hook cannot name them.
    #[must_use]
    pub fn unfired(&self) -> Vec<String> {
        let mut out = Vec::new();
        for e in &self.entries {
            let missing = e.armed - e.fired;
            if missing == 0 {
                continue;
            }
            if e.unfired_labels.is_empty() {
                out.push(format!("{}: {missing} point(s) unfired", e.name));
            } else {
                for label in &e.unfired_labels {
                    out.push(format!("{}: {label}", e.name));
                }
            }
        }
        out
    }

    /// A rendered audit: one line per entry, then one per unfired point.
    #[must_use]
    pub fn report(&self) -> String {
        let mut out = String::new();
        for e in &self.entries {
            let _ = writeln!(out, "{} armed={} fired={}", e.name, e.armed, e.fired);
        }
        for line in self.unfired() {
            let _ = writeln!(out, "UNFIRED {line}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{Fault, FaultPlan};
    use compkit::journal::{CrashHook, CrashPoint, CrashSite, PlannedCrash};
    use txn::{PlannedTxnCrash, TxnCrashHook, TxnCrashPoint, TxnCrashSite};

    #[test]
    fn fired_planned_crashes_audit_clean() {
        let mut tc = PlannedTxnCrash::new(TxnCrashPoint::BeforePrepare);
        assert!(tc.crash(&TxnCrashSite::BeforePrepare));
        let mut cc = PlannedCrash::new(CrashPoint::BeforeCommit);
        assert!(cc.crash(&CrashSite::BeforeCommit));
        let mut ledger = CoverageLedger::new();
        ledger.record("coordinator", &tc);
        ledger.record("journal", &cc);
        assert!(ledger.all_fired());
        assert!(ledger.unfired().is_empty());
        assert_eq!(ledger.entries().len(), 2);
    }

    #[test]
    fn an_unfired_point_is_named_in_the_audit() {
        let tc = PlannedTxnCrash::new(TxnCrashPoint::AfterDecision);
        let mut ledger = CoverageLedger::new();
        ledger.record("coordinator", &tc);
        assert!(!ledger.all_fired());
        assert_eq!(ledger.unfired(), vec!["coordinator: after-decision".to_owned()]);
        assert!(ledger.report().contains("UNFIRED coordinator: after-decision"));
    }

    #[test]
    fn unnameable_pending_points_fall_back_to_a_count() {
        let cc = PlannedCrash::new(CrashPoint::AfterCommit);
        let mut ledger = CoverageLedger::new();
        ledger.record("journal", &cc);
        assert_eq!(ledger.unfired(), vec!["journal: 1 point(s) unfired".to_owned()]);
    }

    #[test]
    fn plan_hooks_report_their_pending_tail() {
        let plan = FaultPlan::new(0)
            .at(1, Fault::TxnCrash { point: TxnCrashPoint::BeforePrepare })
            .at(2, Fault::TxnCrash { point: TxnCrashPoint::AfterDecision });
        let mut hook = crate::adapters::PlanTxnCrashHook::new(&plan);
        assert!(hook.crash(&TxnCrashSite::BeforePrepare));
        let mut ledger = CoverageLedger::new();
        ledger.record("plan", &hook);
        assert!(!ledger.all_fired());
        assert_eq!(ledger.unfired(), vec!["plan: after-decision".to_owned()]);
    }
}
