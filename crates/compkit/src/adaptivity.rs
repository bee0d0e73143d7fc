//! The Adaptivity Manager: transactional execution of reconfiguration plans.
//!
//! > "The Adaptivity Manager then carries out the unbinding and rebinding of
//! > components (establishing any glue necessary to achieve the binding).
//! > To do this it must ensure the instantiation adheres to transactional
//! > style properties. That is, the switch can be backed off if something
//! > goes wrong."
//!
//! [`AdaptivityManager::execute`] runs a plan through the one executor,
//! [`journal::execute`], as a one-phase transaction over shard `s0` of a
//! [`TxnLog`]: each step applied through [`PlanStep::apply`] and its undo
//! record logged, then settled with the routine every recovery runs — on
//! any failure it replays those records backwards, restoring the exact
//! prior runtime (including the stopped components' state, archived in
//! the State Manager).
//!
//! The log is the switch's own unless [`AdaptivityManager::attach_journal`]
//! attached a write-ahead one — the log the `txn` crate's transaction core
//! writes — that [`AdaptivityManager::recover`] replays after a crash. See
//! the [`crate::journal`] module docs for the record discipline and crash
//! model.

use crate::journal::{
    self, Boundary, CrashHook, NoCrash, Participants, PlanStep, RecoveryOutcome, RecoveryReport,
    ShardId, StepRecord, TxnLog,
};
use crate::planlint::{PlanLintReport, PlanLinter};
use crate::runtime::{BasicFactory, ComponentFactory, Runtime};
use crate::state::StateManager;
use adl::ast::Binding;
use adl::diff::ReconfigurationPlan;
use obs::{ObsHandle, Primitive};
use std::fmt;

/// The one shard a single-node switch runs on in the log.
const SHARD: ShardId = ShardId(0);

/// Why a switch failed (and was rolled back).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SwitchError {
    /// A component could not be created.
    Create {
        /// Component name.
        name: String,
        /// Factory's reason.
        reason: String,
    },
    /// A plan step was inconsistent with the runtime (e.g. unbinding a
    /// binding that does not exist).
    Inconsistent(String),
    /// A fault injector failed the step (chaos testing).
    Injected {
        /// The step that was failed (`bind a.p -- b.q`, `stop eth`, ...).
        step: String,
        /// The injector's reason.
        reason: String,
    },
    /// The switch failed AND one or more rollback steps could not be
    /// undone — the runtime is *not* restored. This never happens with a
    /// healthy runtime (rollback only undoes steps that succeeded); it is
    /// reachable under injected rollback faults and surfaces honestly
    /// instead of panicking.
    RollbackIncomplete {
        /// The original failure that triggered the rollback.
        cause: String,
        /// Human-readable descriptions of the rollback steps left undone.
        residue: Vec<String>,
    },
    /// A scripted crash killed the node mid-transaction (only reachable
    /// with an attached log and a firing [`CrashHook`]). Nothing was
    /// rolled back and no outcome counter moved: the log holds the
    /// truth and [`AdaptivityManager::recover`] settles it.
    Crashed {
        /// The record boundary the node died at.
        site: String,
    },
    /// The static plan linter ([`crate::planlint`]) found Error-severity
    /// findings, so the switch was refused before any step ran. Nothing
    /// was logged and nothing needs rolling back — the plan is wrong
    /// in *every* runtime, not just this one.
    LintRejected(PlanLintReport),
    /// The attached log still holds an unsettled transaction (a crash or
    /// an incomplete rollback left it open), so the switch was refused
    /// before anything ran or was logged. [`AdaptivityManager::recover`]
    /// settles the open transaction first.
    RecoveryPending,
}

impl fmt::Display for SwitchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SwitchError::Create { name, reason } => {
                write!(f, "failed to create `{name}`: {reason} (switch rolled back)")
            }
            SwitchError::Inconsistent(s) => {
                write!(f, "inconsistent plan: {s} (switch rolled back)")
            }
            SwitchError::Injected { step, reason } => {
                write!(f, "injected failure at `{step}`: {reason} (switch rolled back)")
            }
            SwitchError::RollbackIncomplete { cause, residue } => {
                write!(f, "switch failed ({cause}) and rollback left {} step(s): ", residue.len())?;
                write!(f, "{}", residue.join("; "))
            }
            SwitchError::Crashed { site } => {
                write!(f, "node crashed at {site}; the log is open — recover() settles it")
            }
            SwitchError::LintRejected(report) => {
                write!(f, "plan refused by the linter: {} error(s)", report.errors().count())?;
                if let Some(first) = report.errors().next() {
                    write!(f, " — {first}")?;
                }
                Ok(())
            }
            SwitchError::RecoveryPending => {
                write!(f, "an unsettled switch is still in the log; recover() settles it first")
            }
        }
    }
}

impl std::error::Error for SwitchError {}

/// Per-step fault injection for the transactional switch. Every method
/// defaults to "no fault"; a chaos harness overrides the points it wants to
/// break, returning `Some(reason)` to fail that step. Creation failures are
/// injected through [`ComponentFactory`] instead (see
/// [`crate::runtime::FlakyFactory`]).
pub trait StepFaults: fmt::Debug {
    /// Fail unbinding `b`?
    fn fail_unbind(&mut self, _b: &Binding) -> Option<String> {
        None
    }
    /// Fail stopping the named component?
    fn fail_stop(&mut self, _name: &str) -> Option<String> {
        None
    }
    /// Fail establishing `b`?
    fn fail_bind(&mut self, _b: &Binding) -> Option<String> {
        None
    }
    /// Fail a *rollback* step (described textually)? Only injectable faults
    /// can make rollback fail; returning `Some` here exercises the
    /// [`SwitchError::RollbackIncomplete`] path.
    fn fail_rollback(&mut self, _step: &str) -> Option<String> {
        None
    }
}

/// The default injector: never faults.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoFaults;

impl StepFaults for NoFaults {}

/// A successful switch report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwitchReport {
    /// Steps executed (unbind + stop + start + bind).
    pub steps: usize,
    /// Components stopped (their state went to the State Manager archive).
    pub stopped: Vec<String>,
    /// Components started.
    pub started: Vec<String>,
    /// Tick at which the switch completed.
    pub completed_at: u64,
}

/// The single-node runtime as the one participant (shard `s0`) of a
/// switch and of its recovery: starts ask `factory`, at tick `now`.
struct Node<'a> {
    runtime: &'a mut Runtime,
    states: &'a mut StateManager,
    factory: &'a mut dyn ComponentFactory,
    now: u64,
}

impl Participants for Node<'_> {
    type Error = SwitchError;

    /// A runtime persists nothing after the decision: one phase.
    fn votes(&self) -> bool {
        false
    }

    fn apply(
        &mut self,
        _shard: ShardId,
        step: &PlanStep<'_>,
        faults: &mut dyn StepFaults,
    ) -> Result<StepRecord, SwitchError> {
        if let Some((step, reason)) = step.injected(faults) {
            return Err(SwitchError::Injected { step, reason });
        }
        step.apply(self.runtime, self.states, self.factory, self.now)
    }

    fn undo(&mut self, _shard: ShardId, step: &StepRecord) -> Result<(), String> {
        step.undo(self.runtime, self.states)
    }
}

/// The Adaptivity Manager.
///
/// The three outcome counters are **mutually exclusive** per transaction:
/// a switch is counted exactly once as committed, rolled back, or
/// rollback-incomplete (a crash before `End` defers the count to the
/// recovery that settles it). All cumulative counters saturate instead of
/// wrapping.
#[derive(Debug, Default)]
pub struct AdaptivityManager {
    switches_committed: u64,
    switches_rolled_back: u64,
    rollbacks_incomplete: u64,
    recoveries: u64,
    journal: Option<TxnLog>,
    obs: Option<ObsHandle>,
}

impl AdaptivityManager {
    /// A fresh manager.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Arm the observability hub: every switch then emits a
    /// `compkit:switch` span (billed in scheduler steps) and feeds the
    /// cumulative `compkit.switch.*` counters. Zero-cost when disarmed.
    pub fn arm_obs(&mut self, obs: ObsHandle) {
        self.obs = Some(obs);
    }

    /// Disarm observability.
    pub fn disarm_obs(&mut self) {
        self.obs = None;
    }

    /// Switches that committed.
    #[must_use]
    pub fn committed(&self) -> u64 {
        self.switches_committed
    }

    /// Switches that failed and were backed off.
    #[must_use]
    pub fn rolled_back(&self) -> u64 {
        self.switches_rolled_back
    }

    /// Rollbacks that themselves failed to complete (only reachable under
    /// injected rollback faults; see [`SwitchError::RollbackIncomplete`]).
    /// Exclusive with [`AdaptivityManager::rolled_back`]: an incomplete
    /// rollback is *not* also counted as rolled back.
    #[must_use]
    pub fn rollbacks_incomplete(&self) -> u64 {
        self.rollbacks_incomplete
    }

    /// Recovery replays that found work to do (noop replays of an empty
    /// log are not counted — that is the idempotence witness).
    #[must_use]
    pub fn recoveries(&self) -> u64 {
        self.recoveries
    }

    /// Attach a fresh write-ahead [`TxnLog`]: every subsequent switch
    /// writes its begin/step/outcome records through it as a one-shard
    /// transaction (each append but the closing `End` billed one
    /// [`Primitive::Store`] when observability is armed), and
    /// [`AdaptivityManager::recover`] can replay it after a crash.
    pub fn attach_journal(&mut self) {
        self.journal = Some(TxnLog::new());
    }

    /// The attached log, if any.
    #[must_use]
    pub fn journal(&self) -> Option<&TxnLog> {
        self.journal.as_ref()
    }

    /// Live records in the attached log (0 when none is attached).
    /// The `sys.txns` system table reads this to surface how much log
    /// a crash at this instant would force the next recovery to replay.
    #[must_use]
    pub fn journal_len(&self) -> usize {
        self.journal.as_ref().map_or(0, TxnLog::len)
    }

    /// Execute `plan` against `runtime` transactionally.
    ///
    /// On success the runtime has exactly the plan's target shape, stopped
    /// components' state is archived in `states`, and a report is returned.
    /// On failure the runtime is **bit-for-bit restored** and the error
    /// describes the first failing step.
    ///
    /// # Errors
    /// [`SwitchError`]; the runtime is unchanged when one is returned
    /// (bar [`SwitchError::RollbackIncomplete`], which cannot happen
    /// without an injector).
    pub fn execute(
        &mut self,
        runtime: &mut Runtime,
        plan: &ReconfigurationPlan,
        factory: &mut dyn ComponentFactory,
        states: &mut StateManager,
        now: u64,
    ) -> Result<SwitchReport, SwitchError> {
        self.execute_with_faults(runtime, plan, factory, states, now, &mut NoFaults)
    }

    /// [`AdaptivityManager::execute`] with a fault injector gating every
    /// step — the entry point chaos tests drive. With [`NoFaults`] the two
    /// are identical; the unarmed production path costs one virtual call per
    /// step that immediately returns `None`.
    ///
    /// # Errors
    /// [`SwitchError`]. The runtime is restored on failure unless the
    /// injector also failed rollback steps, in which case
    /// [`SwitchError::RollbackIncomplete`] reports exactly what was left.
    pub fn execute_with_faults(
        &mut self,
        runtime: &mut Runtime,
        plan: &ReconfigurationPlan,
        factory: &mut dyn ComponentFactory,
        states: &mut StateManager,
        now: u64,
        faults: &mut dyn StepFaults,
    ) -> Result<SwitchReport, SwitchError> {
        self.execute_crashable(runtime, plan, factory, states, now, faults, &mut NoCrash)
    }

    /// [`AdaptivityManager::execute_with_faults`] with a [`CrashHook`]
    /// deciding, at every log-record boundary, whether the executing
    /// node dies there. The hook is only consulted when a log is
    /// attached — without one there is nothing for recovery to replay,
    /// so a "crash" would be indistinguishable from silent data loss.
    ///
    /// On a crash the transaction is abandoned exactly as a real node
    /// death would leave it: no rollback runs, no outcome counter moves
    /// (unless the transaction had ended), and the log stays open.
    /// [`AdaptivityManager::recover`] then settles the transaction; until
    /// it has, every switch is refused.
    ///
    /// # Errors
    /// As [`AdaptivityManager::execute_with_faults`], plus
    /// [`SwitchError::Crashed`] when the hook fires and
    /// [`SwitchError::RecoveryPending`] while the log is not empty.
    #[allow(clippy::too_many_arguments)]
    pub fn execute_crashable(
        &mut self,
        runtime: &mut Runtime,
        plan: &ReconfigurationPlan,
        factory: &mut dyn ComponentFactory,
        states: &mut StateManager,
        now: u64,
        faults: &mut dyn StepFaults,
        crash: &mut dyn CrashHook,
    ) -> Result<SwitchReport, SwitchError> {
        // An unsettled transaction must be recovered first: a later
        // checkpoint would otherwise reclaim the log records that are the
        // only way back from a half-applied switch. Refuse before anything
        // runs or is logged.
        if self.journal_len() > 0 {
            return Err(SwitchError::RecoveryPending);
        }
        // Static gate next: the linter sees only the plan, so anything it
        // rejects would have failed (or worse, mis-rolled-back) in every
        // runtime — refuse before a span opens or the log is touched.
        // Runtime-dependent inconsistencies still surface as
        // `SwitchError::Inconsistent` from the steps themselves.
        let lint = PlanLinter::new().lint_one(plan);
        if let Some(o) = &self.obs {
            let mut o = o.borrow_mut();
            // One ALU op per examined step: the lint is linear in plan size.
            o.charge_n(Primitive::Alu, plan.len() as u64);
            o.metrics.counter_add("compkit.lint.plans", 1);
            o.metrics.counter_add("compkit.lint.diagnostics", lint.diagnostics.len() as u64);
        }
        if lint.has_errors() {
            if let Some(o) = &self.obs {
                let mut o = o.borrow_mut();
                let first = lint.errors().next().map(ToString::to_string).unwrap_or_default();
                o.instant("compkit", "lint:rejected", vec![("first", first)]);
                o.metrics.counter_add("compkit.lint.rejected", 1);
            }
            return Err(SwitchError::LintRejected(lint));
        }
        let obs = self.obs.clone();
        let span = obs.as_ref().map(|o| o.borrow_mut().begin("compkit", "switch"));
        // The switch is logged in the attached journal, or else in a log
        // local to this call: crash boundaries and bills are the journal's.
        let journalled = self.journal.is_some();
        let billed = obs.as_ref().filter(|_| journalled);
        let mut no_crash = NoCrash;
        let crash = if journalled { crash } else { &mut no_crash };
        let mut local = TxnLog::new();
        let log = self.journal.as_mut().unwrap_or(&mut local);
        let gtxn = log.begin(vec![SHARD], now);
        if let Some(o) = billed {
            o.borrow_mut().charge(Primitive::Store);
        }
        if crash.crash(&Boundary::Begun) {
            return crash_out(&obs, span, Boundary::Begun, 0, 0);
        }
        let before = log.appended_total();
        let steps = [(SHARD, PlanStep::decompose(plan))];
        let mut node = Node { runtime, states, factory, now };
        let run = journal::execute(log, gtxn, &steps, &mut node, faults, crash);
        let settled = run.settled;
        // Each record but the closing `End` is billed one store.
        let ended = (settled.forward + settled.back) as u64;
        if let Some(o) = billed {
            o.borrow_mut().charge_n(Primitive::Store, log.appended_total() - before - ended);
        }
        // A node that died after `End` has settled its transaction.
        self.switches_committed = self.switches_committed.saturating_add(settled.forward as u64);
        self.switches_rolled_back = self.switches_rolled_back.saturating_add(settled.back as u64);
        let steps = run.applied;
        if let Some(at) = run.crashed {
            return crash_out(&obs, span, at, steps, settled.undone);
        }
        let Some(e) = run.failed else {
            let report = SwitchReport {
                steps,
                stopped: plan.stop.iter().map(|(name, _)| name.clone()).collect(),
                started: plan.start.iter().map(|(name, _)| name.clone()).collect(),
                completed_at: now,
            };
            if let (Some(o), Some(span)) = (&obs, span) {
                let mut o = o.borrow_mut();
                o.charge(Primitive::SchedSteps(report.steps as u32));
                o.end_with(
                    span,
                    vec![
                        ("outcome", "committed".to_owned()),
                        ("steps", report.steps.to_string()),
                        ("stopped", report.stopped.len().to_string()),
                        ("started", report.started.len().to_string()),
                        ("unbinds", plan.unbind.len().to_string()),
                        ("binds", plan.bind.len().to_string()),
                    ],
                );
                o.metrics.counter_add("compkit.switch.committed", 1);
            }
            return Ok(report);
        };
        // Residue is counted *only* as incomplete, never also as rolled
        // back, and leaves the log open so a later recover() retries the
        // undos.
        let incomplete = settled.outcome == RecoveryOutcome::Incomplete;
        if incomplete {
            self.rollbacks_incomplete = self.rollbacks_incomplete.saturating_add(1);
        }
        if let (Some(o), Some(span)) = (&obs, span) {
            let mut o = o.borrow_mut();
            // The forward steps ran AND were undone: bill both.
            o.charge(Primitive::SchedSteps(2 * steps as u32));
            let (outcome, counter) = if incomplete {
                ("rollback_incomplete", "compkit.switch.rollbacks_incomplete")
            } else {
                ("rolled_back", "compkit.switch.rolled_back")
            };
            let mut args =
                vec![("outcome", outcome.to_owned()), ("rolled_steps", steps.to_string())];
            if incomplete {
                args.push(("residue", settled.residue.len().to_string()));
            }
            args.push(("cause", e.to_string()));
            o.end_with(span, args);
            o.metrics.counter_add(counter, 1);
        }
        if !incomplete {
            return Err(e);
        }
        Err(SwitchError::RollbackIncomplete { cause: e.to_string(), residue: settled.residue })
    }

    /// Replay the attached log after a crash. Lands the runtime in
    /// exactly one of two configurations — fully committed (a commit
    /// record made it to the log: roll forward) or fully rolled back
    /// (no commit record: every applied-not-yet-undone step is reversed)
    /// — and is idempotent: once settled, further calls scan an empty
    /// log, touch nothing, and report [`RecoveryOutcome::Clean`]. The
    /// replay is [`journal::replay`], the compensation every outcome runs.
    ///
    /// The replay is cycle-billed when observability is armed: one
    /// [`Primitive::Load`] per scanned record, one [`Primitive::Store`]
    /// plus a scheduler step per undo, inside a `compkit:recover` span;
    /// the `compkit.recovery.*` counters feed the metrics registry.
    ///
    /// `crash` lets the conformance suite kill *recovery itself*
    /// ([`CrashPoint::DuringRecovery`]); progress survives in the
    /// log, so the next call resumes where the last one died.
    ///
    /// [`CrashPoint::DuringRecovery`]: crate::journal::CrashPoint::DuringRecovery
    pub fn recover(
        &mut self,
        runtime: &mut Runtime,
        states: &mut StateManager,
        crash: &mut dyn CrashHook,
    ) -> RecoveryReport {
        let Some(journal) = self.journal.as_mut().filter(|j| !j.is_empty()) else {
            return RecoveryReport::default();
        };
        let obs = self.obs.clone();
        let span = obs.as_ref().map(|o| o.borrow_mut().begin("compkit", "recover"));
        let before = journal.appended_total();
        // Recovery applies no step: any factory will do.
        let mut node = Node { runtime, states, factory: &mut BasicFactory, now: 0 };
        let report = journal::replay(journal, &mut node, crash);
        // Each record but a closing `End` is billed, as forward.
        let billed = journal.appended_total() - before - (report.forward + report.back) as u64;
        self.switches_committed = self.switches_committed.saturating_add(report.forward as u64);
        self.switches_rolled_back = self.switches_rolled_back.saturating_add(report.back as u64);
        self.recoveries = self.recoveries.saturating_add(1);
        if let (Some(o), Some(span)) = (&obs, span) {
            let mut o = o.borrow_mut();
            o.charge_n(Primitive::Load, report.scanned as u64);
            o.charge_n(Primitive::Store, billed);
            o.charge_n(Primitive::SchedSteps(1), report.undone as u64);
            o.end_with(
                span,
                vec![
                    ("outcome", report.outcome.to_string()),
                    ("scanned", report.scanned.to_string()),
                    ("undone", report.undone.to_string()),
                ],
            );
            o.metrics.counter_add("compkit.recovery.runs", 1);
            o.metrics.counter_add("compkit.recovery.records_scanned", report.scanned as u64);
            o.metrics.counter_add("compkit.recovery.steps_undone", report.undone as u64);
            // Mirrors `store.wal.replay_len`: the log length a replay
            // walked, whoever the log's owner is.
            o.metrics.counter_add("compkit.recovery.replay_len", report.scanned as u64);
        }
        report
    }
}

/// Bill the partial work, close the switch span as crashed at `at`, and
/// surface [`SwitchError::Crashed`]. The log is deliberately left open —
/// it is the evidence recovery replays.
fn crash_out(
    obs: &Option<ObsHandle>,
    span: Option<obs::SpanId>,
    at: Boundary,
    forward_steps: usize,
    undos: usize,
) -> Result<SwitchReport, SwitchError> {
    let site = at.to_string();
    if let (Some(o), Some(span)) = (obs, span) {
        let mut o = o.borrow_mut();
        let bill = (forward_steps + undos) as u32;
        if bill > 0 {
            o.charge(Primitive::SchedSteps(bill));
        }
        o.end_with(span, vec![("outcome", "crashed".to_owned()), ("site", site.clone())]);
        o.metrics.counter_add("compkit.switch.crashed", 1);
    }
    Err(SwitchError::Crashed { site })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{BasicFactory, FlakyFactory};
    use adl::config::flatten;
    use adl::diff::diff;
    use adl::figures::{docked_session, fig4_document, wireless_session};
    use adl::parse::parse;

    /// Bring up the Figure 4 docked session from an empty runtime.
    fn boot_docked() -> (Runtime, StateManager, AdaptivityManager) {
        let doc = fig4_document();
        let docked = docked_session(&doc);
        let mut rt = Runtime::new();
        let mut am = AdaptivityManager::new();
        let mut sm = StateManager::new();
        let plan = diff(&rt.configuration(), &docked);
        am.execute(&mut rt, &plan, &mut BasicFactory, &mut sm, 0).unwrap();
        assert_eq!(rt.configuration(), docked);
        (rt, sm, am)
    }

    #[test]
    fn boot_then_switchover_reaches_wireless() {
        let (mut rt, mut sm, mut am) = boot_docked();
        let doc = fig4_document();
        let plan = diff(&rt.configuration(), &wireless_session(&doc));
        let report = am.execute(&mut rt, &plan, &mut BasicFactory, &mut sm, 5).unwrap();
        assert_eq!(rt.configuration(), wireless_session(&doc));
        assert_eq!(report.stopped, vec!["eth", "opt"]);
        assert_eq!(report.started, vec!["dec", "wifi", "wopt"]);
        assert_eq!(am.committed(), 2);
        assert_eq!(am.rolled_back(), 0);
    }

    #[test]
    fn failed_start_rolls_back_exactly() {
        let (mut rt, mut sm, mut am) = boot_docked();
        let before = rt.clone();
        let doc = fig4_document();
        let plan = diff(&rt.configuration(), &wireless_session(&doc));
        // The wireless optimiser cannot be fetched off the network.
        let mut factory = FlakyFactory::failing(["wopt"]);
        let err = am.execute(&mut rt, &plan, &mut factory, &mut sm, 9).unwrap_err();
        assert!(matches!(err, SwitchError::Create { ref name, .. } if name == "wopt"));
        assert_eq!(rt, before, "runtime must be bit-for-bit restored");
        assert_eq!(am.rolled_back(), 1);
        // Archived state from the aborted stop must not linger.
        assert_eq!(sm.unarchive("opt"), None);
        assert_eq!(sm.unarchive("eth"), None);
    }

    #[test]
    fn stopped_component_state_is_archived_on_commit() {
        let (mut rt, mut sm, mut am) = boot_docked();
        rt.component_mut("opt").unwrap().state = b"half-built-plan".to_vec();
        let doc = fig4_document();
        let plan = diff(&rt.configuration(), &wireless_session(&doc));
        am.execute(&mut rt, &plan, &mut BasicFactory, &mut sm, 3).unwrap();
        assert_eq!(sm.unarchive("opt"), Some(b"half-built-plan".to_vec()));
    }

    #[test]
    fn inconsistent_plan_is_rejected_and_rolled_back() {
        let (mut rt, mut sm, mut am) = boot_docked();
        let before = rt.clone();
        // Hand-craft a plan that stops a component that does not exist.
        let doc = fig4_document();
        let mut plan = diff(&rt.configuration(), &wireless_session(&doc));
        plan.stop.push(("phantom".into(), "Ghost".into()));
        let err = am.execute(&mut rt, &plan, &mut BasicFactory, &mut sm, 1).unwrap_err();
        assert!(matches!(err, SwitchError::Inconsistent(_)));
        assert_eq!(rt, before);
    }

    #[test]
    fn lint_rejected_plan_never_starts_executing() {
        let (mut rt, mut sm, mut am) = boot_docked();
        let before = rt.clone();
        // A statically-broken plan: its new bindings form a dependency
        // cycle. The linter refuses it before any step (or journal record)
        // happens, so nothing is rolled back and no outcome counter moves.
        let mut plan = adl::diff::ReconfigurationPlan::default();
        plan.start.push(("a".into(), "T".into()));
        plan.start.push(("b".into(), "T".into()));
        plan.bind.push(adl::ast::Binding {
            from: adl::ast::PortRef::on("a", "r"),
            to: adl::ast::PortRef::on("b", "p"),
        });
        plan.bind.push(adl::ast::Binding {
            from: adl::ast::PortRef::on("b", "r"),
            to: adl::ast::PortRef::on("a", "p"),
        });
        let err = am.execute(&mut rt, &plan, &mut BasicFactory, &mut sm, 7).unwrap_err();
        let SwitchError::LintRejected(report) = err else {
            panic!("expected LintRejected, got {err}");
        };
        assert!(report.has_errors());
        assert_eq!(rt, before, "refusal precedes execution: nothing changed");
        assert_eq!(am.rolled_back(), 0, "a refusal is not a rollback");
        assert_eq!(am.committed(), 1, "only the boot committed");
        // The refusal happens before the journal is touched, too.
        am.attach_journal();
        let err = am.execute(&mut rt, &plan, &mut BasicFactory, &mut sm, 8).unwrap_err();
        assert!(matches!(err, SwitchError::LintRejected(_)));
        assert!(am.journal().unwrap().is_empty(), "no intent record for a refused plan");
    }

    #[test]
    fn empty_plan_commits_trivially() {
        let (mut rt, mut sm, mut am) = boot_docked();
        let plan = adl::diff::ReconfigurationPlan::default();
        let report = am.execute(&mut rt, &plan, &mut BasicFactory, &mut sm, 2).unwrap();
        assert_eq!(report.steps, 0);
    }

    /// Fails a single named step kind on a matching component/binding, and
    /// optionally every rollback step.
    #[derive(Debug, Default)]
    struct ScriptedFaults {
        bind_to: Option<String>,
        stop: Option<String>,
        rollback_too: bool,
    }

    impl StepFaults for ScriptedFaults {
        fn fail_stop(&mut self, name: &str) -> Option<String> {
            (self.stop.as_deref() == Some(name)).then(|| "injected stop failure".into())
        }
        fn fail_bind(&mut self, b: &Binding) -> Option<String> {
            let hit = b.to.instance.as_deref() == self.bind_to.as_deref();
            hit.then(|| "injected bind failure".into())
        }
        fn fail_rollback(&mut self, _step: &str) -> Option<String> {
            self.rollback_too.then(|| "injected rollback failure".into())
        }
    }

    #[test]
    fn injected_bind_failure_mid_plan_rolls_back_exactly() {
        let (mut rt, mut sm, mut am) = boot_docked();
        let before = rt.clone();
        let doc = fig4_document();
        let plan = diff(&rt.configuration(), &wireless_session(&doc));
        assert!(!plan.bind.is_empty(), "switchover plan must bind something");
        let target = plan.bind.last().unwrap().to.instance.clone();
        let mut faults = ScriptedFaults { bind_to: target, ..ScriptedFaults::default() };
        let err = am
            .execute_with_faults(&mut rt, &plan, &mut BasicFactory, &mut sm, 4, &mut faults)
            .unwrap_err();
        assert!(matches!(err, SwitchError::Injected { ref step, .. } if step.starts_with("bind")));
        assert_eq!(rt, before, "mid-plan bind failure must restore the runtime");
        assert_eq!(am.rolled_back(), 1);
        assert_eq!(am.rollbacks_incomplete(), 0);
    }

    #[test]
    fn injected_stop_failure_rolls_back() {
        let (mut rt, mut sm, mut am) = boot_docked();
        let before = rt.clone();
        let doc = fig4_document();
        let plan = diff(&rt.configuration(), &wireless_session(&doc));
        let mut faults = ScriptedFaults { stop: Some("eth".into()), ..ScriptedFaults::default() };
        let err = am
            .execute_with_faults(&mut rt, &plan, &mut BasicFactory, &mut sm, 4, &mut faults)
            .unwrap_err();
        assert!(matches!(err, SwitchError::Injected { ref step, .. } if step == "stop eth"));
        assert_eq!(rt, before);
    }

    #[test]
    fn injected_rollback_failure_is_reported_not_panicked() {
        let (mut rt, mut sm, mut am) = boot_docked();
        let doc = fig4_document();
        let plan = diff(&rt.configuration(), &wireless_session(&doc));
        let target = plan.bind.last().unwrap().to.instance.clone();
        let mut faults = ScriptedFaults { bind_to: target, stop: None, rollback_too: true };
        let err = am
            .execute_with_faults(&mut rt, &plan, &mut BasicFactory, &mut sm, 4, &mut faults)
            .unwrap_err();
        let SwitchError::RollbackIncomplete { cause, residue } = err else {
            panic!("expected RollbackIncomplete, got {err}");
        };
        assert!(cause.contains("injected bind failure"), "{cause}");
        assert!(!residue.is_empty());
        // The three outcome counters are mutually exclusive: an incomplete
        // rollback is NOT also counted as rolled back (regression for the
        // old double-count).
        assert_eq!(am.rollbacks_incomplete(), 1);
        assert_eq!(am.rolled_back(), 0, "incomplete must not double-count as rolled back");
        assert_eq!(am.committed(), 1, "only the boot committed");
    }

    #[test]
    fn outcome_counters_saturate_at_u64_max() {
        let (mut rt, mut sm, mut am) = boot_docked();
        am.switches_committed = u64::MAX;
        am.switches_rolled_back = u64::MAX;
        am.rollbacks_incomplete = u64::MAX;
        am.recoveries = u64::MAX;
        let doc = fig4_document();
        let plan = diff(&rt.configuration(), &wireless_session(&doc));
        am.execute(&mut rt, &plan, &mut BasicFactory, &mut sm, 1).unwrap();
        assert_eq!(am.committed(), u64::MAX, "saturates, never wraps to 0");
        let plan_back = diff(&rt.configuration(), &docked_session(&doc));
        let mut factory = FlakyFactory::failing(["eth"]);
        am.execute(&mut rt, &plan_back, &mut factory, &mut sm, 2).unwrap_err();
        assert_eq!(am.rolled_back(), u64::MAX);
        assert_eq!(am.rollbacks_incomplete(), u64::MAX);
        assert_eq!(am.recoveries(), u64::MAX);
    }

    #[test]
    fn no_faults_injector_is_transparent() {
        // execute() and execute_with_faults(NoFaults) behave identically.
        let (mut rt, mut sm, mut am) = boot_docked();
        let doc = fig4_document();
        let plan = diff(&rt.configuration(), &wireless_session(&doc));
        let report = am
            .execute_with_faults(&mut rt, &plan, &mut BasicFactory, &mut sm, 5, &mut NoFaults)
            .unwrap();
        assert_eq!(rt.configuration(), wireless_session(&doc));
        assert_eq!(report.stopped, vec!["eth", "opt"]);
    }

    #[test]
    fn repeated_flapping_switches_are_stable() {
        // Docked → wireless → docked × 50: the runtime must end exactly
        // where it started and counters must add up.
        let (mut rt, mut sm, mut am) = boot_docked();
        let doc = fig4_document();
        let docked = docked_session(&doc);
        let wireless = wireless_session(&doc);
        for i in 0..50 {
            let target = if i % 2 == 0 { &wireless } else { &docked };
            let plan = diff(&rt.configuration(), target);
            am.execute(&mut rt, &plan, &mut BasicFactory, &mut sm, i).unwrap();
        }
        assert_eq!(rt.configuration(), docked);
        assert_eq!(am.committed(), 51);
    }

    #[test]
    fn partial_progress_failure_mid_bind_restores() {
        // A plan whose bind step fails after several successful steps: make
        // the last bind reference an instance the plan never started.
        let doc = parse(
            "component T { provide p; }
             component U { require q; }
             component C { when on { inst t : T; u : U; bind u.q -- t.p; } }",
        )
        .unwrap();
        let target = flatten(&doc, "C", &["on"]).unwrap();
        let mut rt = Runtime::new();
        let mut am = AdaptivityManager::new();
        let mut sm = StateManager::new();
        let mut plan = diff(&rt.configuration(), &target);
        plan.bind.push(adl::ast::Binding {
            from: adl::ast::PortRef::on("u", "q2"),
            to: adl::ast::PortRef::on("missing", "p"),
        });
        let before = rt.clone();
        let err = am.execute(&mut rt, &plan, &mut BasicFactory, &mut sm, 0).unwrap_err();
        assert!(matches!(err, SwitchError::Inconsistent(_)));
        assert_eq!(rt, before);
    }

    // ----- crash / recovery -----

    use crate::journal::{CrashPoint, PlannedCrash, RecoveryOutcome, TxnRecord};

    /// Boot the docked session on a journalled manager and hand back the
    /// docked→wireless switchover plan.
    fn journalled_world() -> (Runtime, StateManager, AdaptivityManager, ReconfigurationPlan) {
        let (rt, sm, mut am) = boot_docked();
        am.attach_journal();
        let doc = fig4_document();
        let plan = diff(&rt.configuration(), &wireless_session(&doc));
        (rt, sm, am, plan)
    }

    /// Run `plan` at tick 5 under `faults`, with the node dying at `point`.
    fn crash_at(
        am: &mut AdaptivityManager,
        rt: &mut Runtime,
        sm: &mut StateManager,
        plan: &ReconfigurationPlan,
        faults: &mut dyn StepFaults,
        point: CrashPoint,
    ) -> Result<SwitchReport, SwitchError> {
        let mut crash = PlannedCrash::new(point);
        am.execute_crashable(rt, plan, &mut BasicFactory, sm, 5, faults, &mut crash)
    }

    #[test]
    fn journal_write_through_commits_and_checkpoints() {
        let (mut rt, mut sm, mut am, plan) = journalled_world();
        am.execute(&mut rt, &plan, &mut BasicFactory, &mut sm, 5).unwrap();
        let j = am.journal().expect("journal attached");
        assert!(j.is_empty(), "commit checkpoints the log");
        // begin + one record per step + commit + end all hit the log.
        assert_eq!(j.appended_total(), 1 + plan.len() as u64 + 1 + 1);
        let report = am.recover(&mut rt, &mut sm, &mut NoCrash);
        assert!(report.noop(), "nothing to recover after a clean commit: {report:?}");
    }

    #[test]
    fn journal_len_tracks_live_records_and_recovery_reports_replay_len() {
        use obs::{CostModel, Obs};
        let (mut rt, mut sm, mut am, plan) = journalled_world();
        assert_eq!(am.journal_len(), 0, "fresh journal holds nothing");
        crash_at(&mut am, &mut rt, &mut sm, &plan, &mut NoFaults, CrashPoint::BeforeCommit)
            .unwrap_err();
        // begin + one record per applied step are still live after a crash.
        assert_eq!(am.journal_len(), 1 + plan.len());

        let obs = Obs::new(CostModel::pentium()).into_handle();
        am.arm_obs(obs.clone());
        let report = am.recover(&mut rt, &mut sm, &mut NoCrash);
        am.disarm_obs();
        assert_eq!(report.outcome, RecoveryOutcome::RolledBack);
        assert_eq!(am.journal_len(), 0, "recovery checkpoints the journal");
        let o = Obs::try_unwrap(obs).unwrap_or_else(|_| unreachable!("sole handle"));
        assert_eq!(
            o.metrics.counter("compkit.recovery.replay_len"),
            report.scanned as u64,
            "replay_len mirrors store.wal.replay_len for the switch log"
        );
    }

    #[test]
    fn crash_before_commit_recovers_to_the_rolled_back_configuration() {
        let (mut rt, mut sm, mut am, plan) = journalled_world();
        let before = rt.clone();
        let err =
            crash_at(&mut am, &mut rt, &mut sm, &plan, &mut NoFaults, CrashPoint::BeforeCommit)
                .unwrap_err();
        assert!(matches!(err, SwitchError::Crashed { .. }), "got {err}");
        assert_ne!(rt, before, "the node died with every step applied");
        assert_eq!(am.rolled_back(), 0, "a crash moves no outcome counter");

        let report = am.recover(&mut rt, &mut sm, &mut NoCrash);
        assert_eq!(report.outcome, RecoveryOutcome::RolledBack);
        assert_eq!(report.undone, plan.len());
        assert_eq!(rt, before, "recovery restores the pre-switch runtime bit-for-bit");
        assert_eq!((am.committed(), am.rolled_back()), (1, 1), "boot + the recovered txn");
        assert!(am.recover(&mut rt, &mut sm, &mut NoCrash).noop(), "replay is idempotent");
        assert_eq!(rt, before);
    }

    #[test]
    fn crash_after_commit_recovers_by_rolling_forward() {
        let (mut rt, mut sm, mut am, plan) = journalled_world();
        let doc = fig4_document();
        crash_at(&mut am, &mut rt, &mut sm, &plan, &mut NoFaults, CrashPoint::AfterCommit)
            .unwrap_err();
        assert_eq!(am.committed(), 1, "the crashed txn is not yet counted");

        let report = am.recover(&mut rt, &mut sm, &mut NoCrash);
        assert_eq!(report.outcome, RecoveryOutcome::RolledForward);
        assert_eq!(report.undone, 0, "roll-forward undoes nothing");
        assert_eq!(rt.configuration(), wireless_session(&doc), "committed configuration stands");
        assert_eq!(am.committed(), 2, "recovery settles the commit exactly once");
        assert!(am.recover(&mut rt, &mut sm, &mut NoCrash).noop());
    }

    #[test]
    fn crash_mid_plan_recovers_to_the_rolled_back_configuration() {
        for after_steps in [0usize, 1, 3] {
            let (mut rt, mut sm, mut am, plan) = journalled_world();
            let before = rt.clone();
            let point = CrashPoint::MidPlan { after_steps };
            let err = crash_at(&mut am, &mut rt, &mut sm, &plan, &mut NoFaults, point).unwrap_err();
            assert!(matches!(err, SwitchError::Crashed { .. }), "got {err}");
            let report = am.recover(&mut rt, &mut sm, &mut NoCrash);
            assert_eq!(report.outcome, RecoveryOutcome::RolledBack, "after {after_steps} steps");
            assert_eq!(report.undone, after_steps);
            assert_eq!(rt, before, "never a hybrid configuration (after {after_steps} steps)");
        }
    }

    #[test]
    fn crash_mid_rollback_then_recovery_finishes_the_rollback() {
        let (mut rt, mut sm, mut am, plan) = journalled_world();
        let before = rt.clone();
        let target = plan.bind.last().unwrap().to.instance.clone();
        let mut faults = ScriptedFaults { bind_to: target, ..ScriptedFaults::default() };
        let point = CrashPoint::MidRollback { after_undos: 1 };
        let err = crash_at(&mut am, &mut rt, &mut sm, &plan, &mut faults, point).unwrap_err();
        assert!(matches!(err, SwitchError::Crashed { .. }), "got {err}");
        assert_ne!(rt, before, "the rollback died after one undo");

        let report = am.recover(&mut rt, &mut sm, &mut NoCrash);
        assert_eq!(report.outcome, RecoveryOutcome::RolledBack);
        assert_eq!(rt, before, "recovery finishes the interrupted rollback");
        assert_eq!(am.rolled_back(), 1);
        assert!(am.recover(&mut rt, &mut sm, &mut NoCrash).noop());
    }

    /// The single-node twin of the `txn` core's test: an in-flight
    /// rollback leaves the same records and runtime as a crash at the
    /// failed step followed by recovery — frozen at the last undo, and
    /// run to the end.
    #[test]
    fn an_in_flight_rollback_equals_a_crash_then_recovery() {
        let (_, _, _, plan) = journalled_world();
        let target = plan.bind.last().unwrap().to.instance.clone();
        let failed = PlanStep::decompose(&plan)
            .iter()
            .position(|s| matches!(s, PlanStep::Bind(b) if b.to.instance == target))
            .unwrap();
        let mut faults = ScriptedFaults { bind_to: target, ..ScriptedFaults::default() };
        let at_fault = CrashPoint::MidPlan { after_steps: failed };

        let (mut rt, mut sm, mut am, _) = journalled_world();
        let before = rt.clone();
        let frozen = CrashPoint::MidRollback { after_undos: failed };
        crash_at(&mut am, &mut rt, &mut sm, &plan, &mut faults, frozen).unwrap_err();
        let (mut crt, mut csm, mut crashed, _) = journalled_world();
        crash_at(&mut crashed, &mut crt, &mut csm, &plan, &mut NoFaults, at_fault).unwrap_err();
        let mut frozen = PlannedCrash::new(CrashPoint::DuringRecovery { after_undos: failed });
        crashed.recover(&mut crt, &mut csm, &mut frozen);
        let (aj, cj) = (am.journal().unwrap(), crashed.journal().unwrap());
        // Begin and the applied steps precede the fault; then the undos.
        let tail: Vec<&str> = aj.records()[1 + failed..].iter().map(TxnRecord::tag).collect();
        assert_eq!(tail, vec!["undone"; failed]);
        assert_eq!((aj.render(), &rt), (cj.render(), &crt));

        let (mut rt, mut sm, mut am, _) = journalled_world();
        am.execute_with_faults(&mut rt, &plan, &mut BasicFactory, &mut sm, 5, &mut faults)
            .unwrap_err();
        let (mut crt, mut csm, mut crashed, _) = journalled_world();
        crash_at(&mut crashed, &mut crt, &mut csm, &plan, &mut NoFaults, at_fault).unwrap_err();
        let report = crashed.recover(&mut crt, &mut csm, &mut NoCrash);
        assert_eq!((report.outcome, report.undone), (RecoveryOutcome::RolledBack, failed));
        // Begin, the applied steps, their undos, shard-aborted and end.
        let appended = (1 + 2 * failed + 2) as u64;
        for (m, r) in [(&am, &rt), (&crashed, &crt)] {
            assert_eq!((m.journal().unwrap().appended_total(), m.rolled_back()), (appended, 1));
            assert_eq!((r, m.journal_len()), (&before, 0));
        }
    }

    #[test]
    fn crash_during_recovery_resumes_on_the_next_recovery() {
        let (mut rt, mut sm, mut am, plan) = journalled_world();
        let before = rt.clone();
        crash_at(&mut am, &mut rt, &mut sm, &plan, &mut NoFaults, CrashPoint::BeforeCommit)
            .unwrap_err();

        let mut recrash = PlannedCrash::new(CrashPoint::DuringRecovery { after_undos: 1 });
        let first = am.recover(&mut rt, &mut sm, &mut recrash);
        assert_eq!(first.outcome, RecoveryOutcome::Crashed);
        assert_eq!(first.undone, 1);
        assert_eq!(am.rolled_back(), 0, "a crashed recovery settles nothing");

        let second = am.recover(&mut rt, &mut sm, &mut NoCrash);
        assert_eq!(second.outcome, RecoveryOutcome::RolledBack);
        assert_eq!(second.undone, plan.len() - 1, "resumes where the dead replay stopped");
        assert_eq!(rt, before);
        assert_eq!(am.rolled_back(), 1, "settled exactly once across both replays");
        assert!(am.recover(&mut rt, &mut sm, &mut NoCrash).noop());
    }

    #[test]
    fn recovery_after_incomplete_rollback_finishes_the_job() {
        let (mut rt, mut sm, mut am, plan) = journalled_world();
        let before = rt.clone();
        let target = plan.bind.last().unwrap().to.instance.clone();
        let mut faults = ScriptedFaults { bind_to: target, stop: None, rollback_too: true };
        let err = am
            .execute_with_faults(&mut rt, &plan, &mut BasicFactory, &mut sm, 5, &mut faults)
            .unwrap_err();
        assert!(matches!(err, SwitchError::RollbackIncomplete { .. }), "got {err}");
        assert_eq!(am.rollbacks_incomplete(), 1);

        // The injector is gone on the recovery path, so the leftover undos
        // now succeed and the runtime is restored.
        let report = am.recover(&mut rt, &mut sm, &mut NoCrash);
        assert_eq!(report.outcome, RecoveryOutcome::RolledBack);
        assert_eq!(rt, before);
        assert_eq!(am.rolled_back(), 1);
    }

    #[test]
    fn an_unsettled_switch_refuses_later_switches_until_recovered() {
        // A crash and an incomplete rollback both leave the log open. A
        // later switch must not commit and checkpoint over those records:
        // they are the only way back to the pre-switch runtime.
        for incomplete in [false, true] {
            let (mut rt, mut sm, mut am, plan) = journalled_world();
            let before = rt.clone();
            let target = plan.bind.last().unwrap().to.instance.clone();
            let mut faults = ScriptedFaults { bind_to: target, stop: None, rollback_too: true };
            if incomplete {
                let err = am
                    .execute_with_faults(&mut rt, &plan, &mut BasicFactory, &mut sm, 5, &mut faults)
                    .unwrap_err();
                assert!(matches!(err, SwitchError::RollbackIncomplete { .. }), "got {err}");
            } else {
                let point = CrashPoint::BeforeCommit;
                crash_at(&mut am, &mut rt, &mut sm, &plan, &mut NoFaults, point).unwrap_err();
            }
            let (half, live) = (rt.clone(), am.journal_len());
            let empty = ReconfigurationPlan::default();
            let err = am.execute(&mut rt, &empty, &mut BasicFactory, &mut sm, 6).unwrap_err();
            assert_eq!(err, SwitchError::RecoveryPending, "incomplete={incomplete}");
            assert_eq!((&rt, am.journal_len()), (&half, live), "the refusal writes nothing");
            let report = am.recover(&mut rt, &mut sm, &mut NoCrash);
            assert_eq!(report.outcome, RecoveryOutcome::RolledBack, "incomplete={incomplete}");
            assert_eq!(rt, before, "incomplete={incomplete}");
            am.execute(&mut rt, &empty, &mut BasicFactory, &mut sm, 7).unwrap();
        }
    }

    #[test]
    fn recovery_without_a_journal_or_with_an_empty_one_is_clean() {
        let (mut rt, mut sm, mut am) = boot_docked();
        assert!(am.recover(&mut rt, &mut sm, &mut NoCrash).noop(), "no journal attached");
        am.attach_journal();
        assert!(am.recover(&mut rt, &mut sm, &mut NoCrash).noop(), "empty journal");
        assert_eq!(am.recoveries(), 0, "noop replays are not counted as recoveries");
    }

    fn random_point(rng: &mut adm_rng::Pcg32) -> CrashPoint {
        match rng.index(5) {
            0 => CrashPoint::MidPlan { after_steps: rng.index(6) },
            1 => CrashPoint::BeforeCommit,
            2 => CrashPoint::AfterCommit,
            3 => CrashPoint::MidRollback { after_undos: 1 + rng.index(3) },
            _ => CrashPoint::DuringRecovery { after_undos: 1 + rng.index(3) },
        }
    }

    /// Log replay is idempotent from *any* crash prefix: recovering
    /// twice yields the same configuration, counters, trace, and metrics
    /// as recovering once. Runs 200 randomly-scripted crashes.
    #[test]
    fn prop_recovering_twice_equals_recovering_once() {
        use obs::{CostModel, Obs};

        /// One full crash-and-recover life, returning the world's final
        /// observable state (runtime, counters, trace digest, metrics
        /// digest). `extra_recover` replays recovery one more time.
        fn live(
            point: CrashPoint,
            rollback_fault: bool,
            extra_recover: bool,
        ) -> (Runtime, [u64; 4], u64, u64) {
            let (mut rt, mut sm, mut am, plan) = journalled_world();
            let obs = Obs::new(CostModel::pentium()).into_handle();
            am.arm_obs(obs.clone());
            let target = plan.bind.last().unwrap().to.instance.clone();
            let mut faults = if rollback_fault {
                ScriptedFaults { bind_to: target, ..ScriptedFaults::default() }
            } else {
                ScriptedFaults::default()
            };
            let _ = crash_at(&mut am, &mut rt, &mut sm, &plan, &mut faults, point);
            // First recovery may itself crash (DuringRecovery points); a
            // second replay must absorb that too.
            let mut recrash = PlannedCrash::new(point);
            let _ = am.recover(&mut rt, &mut sm, &mut recrash);
            let _ = am.recover(&mut rt, &mut sm, &mut NoCrash);
            if extra_recover {
                let r = am.recover(&mut rt, &mut sm, &mut NoCrash);
                assert!(r.noop(), "extra replay must be a no-op: {r:?}");
            }
            am.disarm_obs();
            let o = Obs::try_unwrap(obs).unwrap_or_else(|_| unreachable!("sole handle"));
            let counters =
                [am.committed(), am.rolled_back(), am.rollbacks_incomplete(), am.recoveries()];
            (rt, counters, o.tracer.digest(), o.metrics.digest())
        }

        adm_rng::run_cases(0xADA9_7410, 200, |rng| {
            let point = random_point(rng);
            let rollback_fault = matches!(point, CrashPoint::MidRollback { .. }) || rng.chance(0.3);
            let once = live(point, rollback_fault, false);
            let twice = live(point, rollback_fault, true);
            assert_eq!(once.0, twice.0, "configuration must agree at {point}");
            assert_eq!(once.1, twice.1, "counters must agree at {point}");
            assert_eq!(once.2, twice.2, "trace digest must agree at {point}");
            assert_eq!(once.3, twice.3, "metrics snapshot must agree at {point}");
        });
    }

    /// Sequences of switches on the one log: docked↔wireless switchovers
    /// and random bind/unbind hops, each under a random crash point and
    /// random step and rollback faults. After every settle the runtime is
    /// exactly the committed or the rolled-back reference, the log is
    /// empty and a second recovery is a no-op; a switch tried while the
    /// log is open is refused.
    #[test]
    fn prop_switch_sequences_settle_on_the_one_log() {
        use std::collections::BTreeSet;
        let doc = fig4_document();
        let sessions = [docked_session(&doc), wireless_session(&doc)];
        let every: Vec<Binding> = sessions.iter().flat_map(|c| c.bindings.clone()).collect();
        let names: Vec<String> =
            sessions.iter().flat_map(|c| c.instances.keys().cloned()).collect();
        let mut seen: BTreeSet<String> = BTreeSet::new();
        adm_rng::run_cases(0x5E7_106, 200, |rng| {
            let (mut rt, mut sm, mut am) = boot_docked();
            am.attach_journal();
            for switch in 0..6 {
                let mut plan = ReconfigurationPlan::default();
                if rng.chance(0.5) {
                    plan = diff(&rt.configuration(), &sessions[rng.index(2)]);
                } else {
                    // One hop: drop the binding if it is live, else add it.
                    let b = every[rng.index(every.len())].clone();
                    let hop =
                        if rt.bindings().contains(&b) { &mut plan.unbind } else { &mut plan.bind };
                    hop.push(b);
                }
                let before = rt.clone();
                let (mut committed, mut csm) = (rt.clone(), sm.clone());
                let committed = AdaptivityManager::new()
                    .execute(&mut committed, &plan, &mut BasicFactory, &mut csm, 5)
                    .map(|_| committed);
                let mut pick = || rng.chance(0.3).then(|| names[rng.index(names.len())].clone());
                let (bind_to, stop) = (pick(), pick());
                let mut faults = ScriptedFaults { bind_to, stop, rollback_too: rng.chance(0.3) };
                let point = random_point(rng);
                let run = crash_at(&mut am, &mut rt, &mut sm, &plan, &mut faults, point);
                let outcome = match &run {
                    Ok(_) => "committed",
                    Err(SwitchError::Crashed { .. }) => "crashed",
                    Err(SwitchError::RollbackIncomplete { .. }) => "rollback-incomplete",
                    Err(_) => "rolled-back",
                };
                seen.insert(outcome.to_owned());
                let (mut crashed, mut forward) = (outcome == "crashed", outcome == "committed");
                if am.journal_len() > 0 {
                    let half = rt.clone();
                    let refused = am.execute(&mut rt, &plan, &mut BasicFactory, &mut sm, 5);
                    assert_eq!(refused.unwrap_err(), SwitchError::RecoveryPending);
                    assert_eq!(rt, half, "a refused switch touches nothing");
                    // Recovery may itself die at a DuringRecovery point;
                    // the next pass finishes the job.
                    let mut recrash = PlannedCrash::new(point);
                    loop {
                        let r = am.recover(&mut rt, &mut sm, &mut recrash);
                        seen.insert(format!("recovery:{}", r.outcome));
                        match r.outcome {
                            RecoveryOutcome::Crashed => crashed = true,
                            RecoveryOutcome::RolledForward => forward = true,
                            RecoveryOutcome::RolledBack => {}
                            other => panic!("recovery ended {other} at {point}"),
                        }
                        if r.outcome != RecoveryOutcome::Crashed {
                            break;
                        }
                    }
                }
                if crashed {
                    seen.insert(point.to_string().trim_end_matches(char::is_numeric).to_owned());
                }
                let expected = if forward { committed.ok() } else { Some(before) };
                assert_eq!(Some(&rt), expected.as_ref(), "switch {switch} at {point} settles");
                assert_eq!(am.journal_len(), 0, "a settled log is empty");
                assert!(am.recover(&mut rt, &mut sm, &mut NoCrash).noop());
            }
        });
        let want = "mid-plan- before-commit after-commit mid-rollback- during-recovery- \
            committed crashed rollback-incomplete rolled-back \
            recovery:rolled-forward recovery:rolled-back recovery:crashed";
        for w in want.split_whitespace() {
            assert!(seen.contains(w), "{w} never occurred: {seen:?}");
        }
    }
}
