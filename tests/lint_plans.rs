//! The plan-lint tier: planlint over every reconfiguration plan the
//! committed scenarios produce, plus the ADL analyser over every
//! committed architecture document.
//!
//! Two layers of evidence:
//!
//! 1. **Direct** — the plans the Figure 5 machinery generates (boot,
//!    docked→wireless switchover, and back, plus the chaos scenarios'
//!    migration-mirror plans) are linted explicitly and must be clean.
//! 2. **Enforced** — the Adaptivity Manager now refuses any plan carrying
//!    an Error-severity finding ([`SwitchError::LintRejected`]), so the
//!    crashrep and chaos suites completing with consistent reports *is*
//!    a lint pass over every plan they executed. The scenarios driven
//!    here re-assert that.

use adl::analysis::analyze;
use adl::diff::{diff, ReconfigurationPlan};
use adl::figures::{docked_session, fig4_document, wireless_session};
use adm_core::scenario::{chaos, crashrep};
use compkit::adaptivity::SwitchError;
use compkit::planlint::PlanLinter;
use patia::atom::AtomId;

/// Layer 1a: the committed architecture documents are analyser-clean.
#[test]
fn committed_adl_documents_analyze_cleanly() {
    let doc = fig4_document();
    analyze(&doc).unwrap_or_else(|errs| {
        panic!("fig4 document has {} analysis error(s): {errs:?}", errs.len())
    });
}

/// Layer 1b: every Figure 5 lifecycle plan is lint-clean, individually.
#[test]
fn figure5_lifecycle_plans_are_lint_clean() {
    let doc = fig4_document();
    let docked = docked_session(&doc);
    let wireless = wireless_session(&doc);
    let empty = adl::Configuration::default();
    let linter = PlanLinter::new();
    for (label, plan) in [
        ("boot", diff(&empty, &docked)),
        ("switchover", diff(&docked, &wireless)),
        ("switchback", diff(&wireless, &docked)),
        ("teardown", diff(&docked, &empty)),
    ] {
        let r = linter.lint_one(&plan);
        assert!(r.is_clean(), "{label} plan must lint clean:\n{r}");
    }
}

/// Layer 1c: the chaos scenarios' migration-mirror plans have the shape
/// `unbind old placement; bind new placement` — lint that shape directly,
/// at every combination that occurs (move and spread).
#[test]
fn migration_mirror_plans_are_lint_clean() {
    use adl::ast::{Binding, PortRef};
    let glue = |atom: AtomId, node: &str| Binding {
        from: PortRef::on(&format!("atom:{}", atom.0), "route"),
        to: PortRef::on(&format!("host:{node}"), "slot"),
    };
    let linter = PlanLinter::new();
    // A move: unbind the old placement, bind the new.
    let mut mv = ReconfigurationPlan::default();
    mv.unbind.push(glue(AtomId(123), "node1"));
    mv.bind.push(glue(AtomId(123), "node2"));
    assert!(linter.lint_one(&mv).is_clean());
    // A spread: the source agent stays; only a bind is added.
    let mut spread = ReconfigurationPlan::default();
    spread.bind.push(glue(AtomId(153), "node3"));
    assert!(linter.lint_one(&spread).is_clean());
}

/// Layer 2a: the crashrep recovery matrix still completes consistently
/// with the Adaptivity Manager's lint gate armed — i.e. every plan that
/// suite executes passes the linter.
#[test]
fn crashrep_suite_passes_the_lint_gate() {
    for cell in crashrep::sweep() {
        assert!(cell.consistent(), "inconsistent cell under the lint gate: {:?}", cell);
    }
}

/// Layer 2b: a chaos storyline (migrations, evacuations, failed switches)
/// completes conserved with the lint gate armed.
#[test]
fn chaos_suite_passes_the_lint_gate() {
    let r = chaos::run(&chaos::ci_chaos(42));
    assert!(r.conserved(), "chaos run must conserve requests under the lint gate");
    assert!(r.switches_consistent, "mirrored switches must stay consistent");
}

/// Negative control: the gate actually bites. A statically-broken plan is
/// refused by the Adaptivity Manager with `LintRejected`, so the green
/// suites above really do certify their plans.
#[test]
fn gate_refuses_a_broken_plan() {
    use adl::ast::{Binding, PortRef};
    use compkit::adaptivity::AdaptivityManager;
    use compkit::runtime::{BasicFactory, Runtime};
    use compkit::state::StateManager;
    let mut plan = ReconfigurationPlan::default();
    plan.start.push(("a".into(), "T".into()));
    plan.start.push(("b".into(), "T".into()));
    plan.bind.push(Binding { from: PortRef::on("a", "r"), to: PortRef::on("b", "p") });
    plan.bind.push(Binding { from: PortRef::on("b", "r"), to: PortRef::on("a", "p") });
    let mut rt = Runtime::new();
    let mut am = AdaptivityManager::new();
    let mut sm = StateManager::new();
    let err = am.execute(&mut rt, &plan, &mut BasicFactory, &mut sm, 0).unwrap_err();
    assert!(matches!(err, SwitchError::LintRejected(_)), "got {err}");
}
