//! Teardown audit of armed crash hooks.
//!
//! A crash matrix cell is only as strong as the crash point it reaches: a
//! [`PlannedCrash`] that never fired means the protocol path it was
//! meant to interrupt never ran, and the cell silently degenerates into a
//! fault-free run. Scenarios pass every armed hook to [`unfired`] after the
//! run and fail the cell on any line it returns.

use compkit::journal::{CrashPlan, PlannedCrash};
use std::fmt::Display;

/// `"{name}: {point}"` for every armed hook that never fired.
pub(crate) fn unfired<P: CrashPlan + Display>(armed: &[(&str, &PlannedCrash<P>)]) -> Vec<String> {
    armed
        .iter()
        .filter(|(_, hook)| !hook.fired())
        .map(|(name, hook)| format!("{name}: {}", hook.point()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use compkit::journal::{Boundary, CrashHook};
    use txn::{PlannedTxnCrash, TxnCrashPoint};

    #[test]
    fn fired_planned_crashes_audit_clean() {
        let mut switch = PlannedTxnCrash::new(TxnCrashPoint::BeforePrepare);
        assert!(switch.crash(&Boundary::Begun));
        let mut recovery = PlannedTxnCrash::new(TxnCrashPoint::AfterDecision);
        assert!(recovery.crash(&Boundary::AfterDecision));
        assert!(unfired(&[("switch", &switch), ("recovery", &recovery)]).is_empty());
    }

    #[test]
    fn an_unfired_point_is_named_in_the_audit() {
        let mut fired = PlannedTxnCrash::new(TxnCrashPoint::BeforePrepare);
        assert!(fired.crash(&Boundary::Begun));
        let pending = PlannedTxnCrash::new(TxnCrashPoint::AfterDecision);
        let audit = unfired(&[("recovery", &fired), ("coordinator", &pending)]);
        assert_eq!(audit, vec!["coordinator: after-decision".to_owned()]);
    }
}
