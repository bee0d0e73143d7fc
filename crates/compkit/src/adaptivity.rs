//! The Adaptivity Manager: transactional execution of reconfiguration plans.
//!
//! > "The Adaptivity Manager then carries out the unbinding and rebinding of
//! > components (establishing any glue necessary to achieve the binding).
//! > To do this it must ensure the instantiation adheres to transactional
//! > style properties. That is, the switch can be backed off if something
//! > goes wrong."
//!
//! [`AdaptivityManager::execute`] applies a plan step by step, journalling
//! every completed step; on any failure it replays the journal backwards,
//! restoring the exact prior runtime (including the stopped components'
//! state, which was archived in the State Manager before removal).
//!
//! With [`AdaptivityManager::attach_journal`] the same step records are
//! also written through to a durable write-ahead
//! [`crate::journal::AdaptationJournal`], and
//! [`AdaptivityManager::recover`] replays it after a crash — see the
//! [`crate::journal`] module docs for the record discipline and crash
//! model.

use crate::journal::{
    AdaptationJournal, CrashHook, CrashSite, NoCrash, RecoveryOutcome, RecoveryReport, StepRecord,
};
use crate::planlint::{PlanLintReport, PlanLinter};
use crate::runtime::{ComponentFactory, Runtime};
use crate::state::StateManager;
use adl::ast::Binding;
use adl::diff::ReconfigurationPlan;
use obs::{ObsHandle, Primitive};
use std::fmt;

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
    /// with an attached journal and a firing [`CrashHook`]). Nothing was
    /// rolled back and no outcome counter moved: the journal holds the
    /// truth and [`AdaptivityManager::recover`] settles it.
    Crashed {
        /// The record boundary the node died at.
        site: String,
    },
    /// The static plan linter ([`crate::planlint`]) found Error-severity
    /// findings, so the switch was refused before any step ran. Nothing
    /// was journalled and nothing needs rolling back — the plan is wrong
    /// in *every* runtime, not just this one.
    LintRejected(PlanLintReport),
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
                write!(f, "node crashed at {site}; the journal is open — recover() settles it")
            }
            SwitchError::LintRejected(report) => {
                write!(f, "plan refused by the linter: {} error(s)", report.errors().count())?;
                if let Some(first) = report.errors().next() {
                    write!(f, " — {first}")?;
                }
                Ok(())
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

/// The Adaptivity Manager.
///
/// The three outcome counters are **mutually exclusive** per transaction:
/// a switch is counted exactly once as committed, rolled back, or
/// rollback-incomplete (a crash defers the count to the recovery that
/// settles it). All cumulative counters saturate instead of wrapping.
#[derive(Debug, Default)]
pub struct AdaptivityManager {
    switches_committed: u64,
    switches_rolled_back: u64,
    rollbacks_incomplete: u64,
    recoveries: u64,
    journal: Option<AdaptationJournal>,
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
    /// journal are not counted — that is the idempotence witness).
    #[must_use]
    pub fn recoveries(&self) -> u64 {
        self.recoveries
    }

    /// Attach a fresh write-ahead journal: every subsequent transaction
    /// writes intent/step/commit records through it (each append billed
    /// one [`Primitive::Store`] when observability is armed), and
    /// [`AdaptivityManager::recover`] can replay it after a crash.
    pub fn attach_journal(&mut self) {
        self.journal = Some(AdaptationJournal::new());
    }

    /// The attached journal, if any.
    #[must_use]
    pub fn journal(&self) -> Option<&AdaptationJournal> {
        self.journal.as_ref()
    }

    /// Live records in the attached journal (0 when none is attached).
    /// The `sys.txns` system table reads this to surface how much journal
    /// a crash at this instant would force the next recovery to replay.
    #[must_use]
    pub fn journal_len(&self) -> usize {
        self.journal.as_ref().map_or(0, AdaptationJournal::len)
    }

    /// Execute `plan` against `runtime` transactionally.
    ///
    /// On success the runtime has exactly the plan's target shape, stopped
    /// components' state is archived in `states`, and a report is returned.
    /// On failure the runtime is **bit-for-bit restored** and the error
    /// describes the first failing step.
    ///
    /// # Errors
    /// [`SwitchError`]; the runtime is unchanged when one is returned.
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
    /// deciding, at every journal-record boundary, whether the executing
    /// node dies there. Crash sites are only consulted when a journal is
    /// attached — without one there is nothing for recovery to replay,
    /// so a "crash" would be indistinguishable from silent data loss.
    ///
    /// On a crash the transaction is abandoned exactly as a real node
    /// death would leave it: no rollback runs, no outcome counter moves,
    /// and the journal stays open. [`AdaptivityManager::recover`] then
    /// settles the transaction.
    ///
    /// # Errors
    /// As [`AdaptivityManager::execute_with_faults`], plus
    /// [`SwitchError::Crashed`] when the hook fires.
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
        // Static gate first: the linter sees only the plan, so anything it
        // rejects would have failed (or worse, mis-rolled-back) in every
        // runtime — refuse before a span opens or the journal is touched.
        // Runtime-dependent inconsistencies still surface as
        // `SwitchError::Inconsistent` from the steps themselves.
        let lint = PlanLinter::new().lint_one(plan);
        if let Some(o) = &self.obs {
            let mut o = o.borrow_mut();
            // One ALU op per examined step: the lint is linear in plan size.
            for _ in 0..plan.len() {
                o.charge(Primitive::Alu);
            }
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
        let mut applied: Vec<StepRecord> = Vec::with_capacity(plan.len());
        let obs = self.obs.clone();
        let span = obs.as_ref().map(|o| o.borrow_mut().begin("compkit", "switch"));
        let txn = if let Some(j) = self.journal.as_mut() {
            let t = j.begin(plan.len(), now);
            if let Some(o) = &obs {
                o.borrow_mut().charge(Primitive::Store);
            }
            Some(t)
        } else {
            None
        };
        if txn.is_some() && crash.crash(&CrashSite::Intent) {
            return self.crash_out(&obs, span, "intent", 0, 0);
        }
        let result =
            self.try_execute(runtime, plan, factory, states, now, &mut applied, faults, txn, crash);
        match result {
            Ok(report) => {
                if txn.is_some() && crash.crash(&CrashSite::BeforeCommit) {
                    return self.crash_out(&obs, span, "before-commit", applied.len(), 0);
                }
                if let Some(t) = txn {
                    if let Some(j) = self.journal.as_mut() {
                        j.commit(t);
                    }
                    if let Some(o) = &obs {
                        o.borrow_mut().charge(Primitive::Store);
                    }
                    if crash.crash(&CrashSite::AfterCommit) {
                        return self.crash_out(&obs, span, "after-commit", applied.len(), 0);
                    }
                    if let Some(j) = self.journal.as_mut() {
                        j.truncate();
                    }
                }
                self.switches_committed = self.switches_committed.saturating_add(1);
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
                Ok(report)
            }
            Err(SwitchError::Crashed { site }) => {
                // The node died mid-plan: no rollback, no outcome counter —
                // the journal is the ledger and recovery settles it.
                self.crash_out(&obs, span, &site, applied.len(), 0)
            }
            Err(e) => {
                let rolled_steps = applied.len();
                // Back off: undo the applied steps in reverse. Rollback steps
                // undo operations that succeeded moments ago, so against a
                // healthy runtime they cannot fail; injected rollback faults
                // (and nothing else) land in `residue` instead of a panic.
                let mut residue: Vec<String> = Vec::new();
                let mut undos = 0usize;
                for (index, step) in applied.into_iter().enumerate().rev() {
                    let desc = step.undo_describe();
                    if let Some(reason) = faults.fail_rollback(&desc) {
                        residue.push(format!("{desc}: {reason}"));
                        continue;
                    }
                    if let Err(err) = step.undo(runtime, states) {
                        residue.push(format!("{desc}: {err}"));
                        continue;
                    }
                    undos += 1;
                    if let Some(t) = txn {
                        if let Some(j) = self.journal.as_mut() {
                            j.undone(t, index);
                        }
                        if let Some(o) = &obs {
                            o.borrow_mut().charge(Primitive::Store);
                        }
                        if crash.crash(&CrashSite::AfterUndo { undos }) {
                            return self.crash_out(&obs, span, "mid-rollback", rolled_steps, undos);
                        }
                    }
                }
                if residue.is_empty() {
                    if let Some(t) = txn {
                        if let Some(j) = self.journal.as_mut() {
                            j.abort(t);
                            j.truncate();
                        }
                        if let Some(o) = &obs {
                            o.borrow_mut().charge(Primitive::Store);
                        }
                    }
                    self.switches_rolled_back = self.switches_rolled_back.saturating_add(1);
                    if let (Some(o), Some(span)) = (&obs, span) {
                        let mut o = o.borrow_mut();
                        // The forward steps ran AND were undone: bill both.
                        o.charge(Primitive::SchedSteps(2 * rolled_steps as u32));
                        o.end_with(
                            span,
                            vec![
                                ("outcome", "rolled_back".to_owned()),
                                ("rolled_steps", rolled_steps.to_string()),
                                ("cause", e.to_string()),
                            ],
                        );
                        o.metrics.counter_add("compkit.switch.rolled_back", 1);
                    }
                    Err(e)
                } else {
                    // The rollback itself left residue: counted *only* as
                    // incomplete, never also as rolled back. The journal (if
                    // any) stays open so a later recover() retries the
                    // leftover undos.
                    self.rollbacks_incomplete = self.rollbacks_incomplete.saturating_add(1);
                    if let (Some(o), Some(span)) = (&obs, span) {
                        let mut o = o.borrow_mut();
                        o.charge(Primitive::SchedSteps(2 * rolled_steps as u32));
                        o.end_with(
                            span,
                            vec![
                                ("outcome", "rollback_incomplete".to_owned()),
                                ("rolled_steps", rolled_steps.to_string()),
                                ("residue", residue.len().to_string()),
                                ("cause", e.to_string()),
                            ],
                        );
                        o.metrics.counter_add("compkit.switch.rollbacks_incomplete", 1);
                    }
                    Err(SwitchError::RollbackIncomplete { cause: e.to_string(), residue })
                }
            }
        }
    }

    /// Replay the attached journal after a crash. Lands the runtime in
    /// exactly one of two configurations — fully committed (a commit
    /// record made it to the journal: roll forward) or fully rolled back
    /// (no commit record: every applied-not-yet-undone step is reversed)
    /// — and is idempotent: once settled, further calls scan an empty
    /// journal, touch nothing, and report [`RecoveryOutcome::Clean`].
    ///
    /// The replay is cycle-billed when observability is armed: one
    /// [`Primitive::Load`] per scanned record, one [`Primitive::Store`]
    /// plus a scheduler step per undo, inside a `compkit:recover` span;
    /// the `compkit.recovery.*` counters feed the metrics registry.
    ///
    /// `crash` lets the conformance suite kill *recovery itself*
    /// ([`CrashPoint::DuringRecovery`]); progress survives in the
    /// journal, so the next call resumes where the last one died.
    ///
    /// [`CrashPoint::DuringRecovery`]: crate::journal::CrashPoint::DuringRecovery
    pub fn recover(
        &mut self,
        runtime: &mut Runtime,
        states: &mut StateManager,
        crash: &mut dyn CrashHook,
    ) -> RecoveryReport {
        let noop = RecoveryReport {
            outcome: RecoveryOutcome::Clean,
            records_scanned: 0,
            undone: 0,
            residue: Vec::new(),
        };
        let Some(journal) = self.journal.as_ref() else { return noop };
        if journal.is_empty() {
            return noop;
        }
        let scanned = journal.len();
        let open = journal.open_txn();
        let obs = self.obs.clone();
        let span = obs.as_ref().map(|o| o.borrow_mut().begin("compkit", "recover"));
        if let Some(o) = &obs {
            let mut o = o.borrow_mut();
            for _ in 0..scanned {
                o.charge(Primitive::Load);
            }
        }
        let report = match open {
            None => {
                // Records without an intent cannot be produced by this
                // manager; treat the log defensively as already settled.
                if let Some(j) = self.journal.as_mut() {
                    j.truncate();
                }
                RecoveryReport {
                    outcome: RecoveryOutcome::Clean,
                    records_scanned: scanned,
                    undone: 0,
                    residue: Vec::new(),
                }
            }
            Some(t) if t.committed => {
                // Roll forward. Applied records are written *after* their
                // runtime mutations and the commit record after the last
                // step, so the runtime already holds the committed
                // configuration; only the checkpoint was lost.
                if let Some(j) = self.journal.as_mut() {
                    j.truncate();
                }
                self.switches_committed = self.switches_committed.saturating_add(1);
                RecoveryReport {
                    outcome: RecoveryOutcome::RolledForward,
                    records_scanned: scanned,
                    undone: 0,
                    residue: Vec::new(),
                }
            }
            Some(t) if t.aborted => {
                // The rollback finished before the crash; only the
                // checkpoint was lost.
                if let Some(j) = self.journal.as_mut() {
                    j.truncate();
                }
                self.switches_rolled_back = self.switches_rolled_back.saturating_add(1);
                RecoveryReport {
                    outcome: RecoveryOutcome::RolledBack,
                    records_scanned: scanned,
                    undone: 0,
                    residue: Vec::new(),
                }
            }
            Some(t) => {
                let mut undone_now = 0usize;
                let mut residue: Vec<String> = Vec::new();
                let mut crashed = false;
                for (index, step) in t.applied.iter().rev() {
                    if t.undone.contains(index) {
                        continue;
                    }
                    match step.undo(runtime, states) {
                        Ok(()) => {
                            if let Some(j) = self.journal.as_mut() {
                                j.undone(t.txn, *index);
                            }
                            if let Some(o) = &obs {
                                let mut o = o.borrow_mut();
                                o.charge(Primitive::Store);
                                o.charge(Primitive::SchedSteps(1));
                            }
                            undone_now += 1;
                            if crash.crash(&CrashSite::AfterRecoveryUndo { undos: undone_now }) {
                                crashed = true;
                                break;
                            }
                        }
                        Err(e) => residue.push(format!("{}: {e}", step.undo_describe())),
                    }
                }
                if crashed {
                    // The journal keeps the partial progress; the next
                    // recover() resumes from it.
                    RecoveryReport {
                        outcome: RecoveryOutcome::Crashed,
                        records_scanned: scanned,
                        undone: undone_now,
                        residue,
                    }
                } else if residue.is_empty() {
                    if let Some(j) = self.journal.as_mut() {
                        j.abort(t.txn);
                        j.truncate();
                    }
                    if let Some(o) = &obs {
                        o.borrow_mut().charge(Primitive::Store);
                    }
                    self.switches_rolled_back = self.switches_rolled_back.saturating_add(1);
                    RecoveryReport {
                        outcome: RecoveryOutcome::RolledBack,
                        records_scanned: scanned,
                        undone: undone_now,
                        residue,
                    }
                } else {
                    RecoveryReport {
                        outcome: RecoveryOutcome::Incomplete,
                        records_scanned: scanned,
                        undone: undone_now,
                        residue,
                    }
                }
            }
        };
        self.recoveries = self.recoveries.saturating_add(1);
        if let (Some(o), Some(span)) = (&obs, span) {
            let mut o = o.borrow_mut();
            o.end_with(
                span,
                vec![
                    ("outcome", report.outcome.to_string()),
                    ("scanned", report.records_scanned.to_string()),
                    ("undone", report.undone.to_string()),
                ],
            );
            o.metrics.counter_add("compkit.recovery.runs", 1);
            o.metrics
                .counter_add("compkit.recovery.records_scanned", report.records_scanned as u64);
            o.metrics.counter_add("compkit.recovery.steps_undone", report.undone as u64);
            // Mirrors `store.wal.replay_len`: the journal length a replay
            // walked, whoever the log's owner is.
            o.metrics.counter_add("compkit.recovery.replay_len", report.records_scanned as u64);
        }
        report
    }

    /// Bill the partial work, close the switch span as crashed, and
    /// surface [`SwitchError::Crashed`]. The journal is deliberately
    /// left open — it is the evidence recovery replays.
    fn crash_out(
        &mut self,
        obs: &Option<ObsHandle>,
        span: Option<obs::SpanId>,
        site: &str,
        forward_steps: usize,
        undos: usize,
    ) -> Result<SwitchReport, SwitchError> {
        if let (Some(o), Some(span)) = (obs, span) {
            let mut o = o.borrow_mut();
            let bill = (forward_steps + undos) as u32;
            if bill > 0 {
                o.charge(Primitive::SchedSteps(bill));
            }
            o.end_with(span, vec![("outcome", "crashed".to_owned()), ("site", site.to_owned())]);
            o.metrics.counter_add("compkit.switch.crashed", 1);
        }
        Err(SwitchError::Crashed { site: site.to_owned() })
    }

    /// Write one applied-step record through the journal (billed one
    /// store when observability is armed). No-op without a transaction.
    fn wal_applied(&mut self, txn: Option<u64>, index: usize, step: &StepRecord) {
        let Some(t) = txn else { return };
        if let Some(j) = self.journal.as_mut() {
            j.applied(t, index, step.clone());
        }
        if let Some(o) = &self.obs {
            o.borrow_mut().charge(Primitive::Store);
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn try_execute(
        &mut self,
        runtime: &mut Runtime,
        plan: &ReconfigurationPlan,
        factory: &mut dyn ComponentFactory,
        states: &mut StateManager,
        now: u64,
        applied: &mut Vec<StepRecord>,
        faults: &mut dyn StepFaults,
        txn: Option<u64>,
        crash: &mut dyn CrashHook,
    ) -> Result<SwitchReport, SwitchError> {
        // 1. Unbind first: never leave a live binding to a stopping component.
        for b in &plan.unbind {
            if let Some(reason) = faults.fail_unbind(b) {
                return Err(SwitchError::Injected {
                    step: format!("unbind {} -- {}", b.from, b.to),
                    reason,
                });
            }
            runtime.unbind(b).map_err(|e| SwitchError::Inconsistent(e.to_string()))?;
            self.step_done(applied, StepRecord::Unbound(b.clone()), txn, crash)?;
        }
        // 2. Stop, archiving state.
        let mut stopped = Vec::with_capacity(plan.stop.len());
        for (name, _ty) in &plan.stop {
            if let Some(reason) = faults.fail_stop(name) {
                return Err(SwitchError::Injected { step: format!("stop {name}"), reason });
            }
            let comp = runtime.stop(name).map_err(|e| SwitchError::Inconsistent(e.to_string()))?;
            states.archive(name, comp.state.clone());
            self.step_done(applied, StepRecord::Stopped { name: name.clone(), comp }, txn, crash)?;
            stopped.push(name.clone());
        }
        // 3. Start new components (the step that can fail for real reasons).
        let mut started = Vec::with_capacity(plan.start.len());
        for (name, ty) in &plan.start {
            let comp = factory
                .create(name, ty, now)
                .map_err(|e| SwitchError::Create { name: e.name, reason: e.reason })?;
            runtime.start(name, comp).map_err(|e| SwitchError::Inconsistent(e.to_string()))?;
            self.step_done(applied, StepRecord::Started { name: name.clone() }, txn, crash)?;
            started.push(name.clone());
        }
        // 4. Bind last: all endpoints now exist.
        for b in &plan.bind {
            if let Some(reason) = faults.fail_bind(b) {
                return Err(SwitchError::Injected {
                    step: format!("bind {} -- {}", b.from, b.to),
                    reason,
                });
            }
            runtime.bind(b.clone()).map_err(|e| SwitchError::Inconsistent(e.to_string()))?;
            self.step_done(applied, StepRecord::Bound(b.clone()), txn, crash)?;
        }
        Ok(SwitchReport { steps: plan.len(), stopped, started, completed_at: now })
    }

    /// Record one applied step (in-memory and through the journal) and
    /// consult the crash hook at the record boundary it just created.
    ///
    /// # Errors
    /// [`SwitchError::Crashed`] when the hook fires.
    fn step_done(
        &mut self,
        applied: &mut Vec<StepRecord>,
        record: StepRecord,
        txn: Option<u64>,
        crash: &mut dyn CrashHook,
    ) -> Result<(), SwitchError> {
        let index = applied.len();
        self.wal_applied(txn, index, &record);
        applied.push(record);
        if txn.is_some() && crash.crash(&CrashSite::AfterStep { index }) {
            return Err(SwitchError::Crashed { site: format!("after step {}", index + 1) });
        }
        Ok(())
    }
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

    use crate::journal::{CrashPoint, PlannedCrash, RecoveryOutcome};

    /// Boot the docked session on a journalled manager and hand back the
    /// docked→wireless switchover plan.
    fn journalled_world() -> (Runtime, StateManager, AdaptivityManager, ReconfigurationPlan) {
        let (rt, sm, mut am) = boot_docked();
        am.attach_journal();
        let doc = fig4_document();
        let plan = diff(&rt.configuration(), &wireless_session(&doc));
        (rt, sm, am, plan)
    }

    #[test]
    fn journal_write_through_commits_and_checkpoints() {
        let (mut rt, mut sm, mut am, plan) = journalled_world();
        am.execute(&mut rt, &plan, &mut BasicFactory, &mut sm, 5).unwrap();
        let j = am.journal().expect("journal attached");
        assert!(j.is_empty(), "commit checkpoints the journal");
        // intent + one record per step + commit all hit the log.
        assert_eq!(j.appended_total(), 1 + plan.len() as u64 + 1);
        let report = am.recover(&mut rt, &mut sm, &mut NoCrash);
        assert!(report.noop(), "nothing to recover after a clean commit: {report:?}");
    }

    #[test]
    fn journal_len_tracks_live_records_and_recovery_reports_replay_len() {
        use obs::{CostModel, Obs};
        let (mut rt, mut sm, mut am, plan) = journalled_world();
        assert_eq!(am.journal_len(), 0, "fresh journal holds nothing");
        let mut crash = PlannedCrash::new(CrashPoint::BeforeCommit);
        am.execute_crashable(
            &mut rt,
            &plan,
            &mut BasicFactory,
            &mut sm,
            5,
            &mut NoFaults,
            &mut crash,
        )
        .unwrap_err();
        // intent + one record per applied step are still live after a crash.
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
            report.records_scanned as u64,
            "replay_len mirrors store.wal.replay_len for the adaptation journal"
        );
    }

    #[test]
    fn crash_before_commit_recovers_to_the_rolled_back_configuration() {
        let (mut rt, mut sm, mut am, plan) = journalled_world();
        let before = rt.clone();
        let mut crash = PlannedCrash::new(CrashPoint::BeforeCommit);
        let err = am
            .execute_crashable(
                &mut rt,
                &plan,
                &mut BasicFactory,
                &mut sm,
                5,
                &mut NoFaults,
                &mut crash,
            )
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
        let mut crash = PlannedCrash::new(CrashPoint::AfterCommit);
        am.execute_crashable(
            &mut rt,
            &plan,
            &mut BasicFactory,
            &mut sm,
            5,
            &mut NoFaults,
            &mut crash,
        )
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
            let mut crash = PlannedCrash::new(CrashPoint::MidPlan { after_steps });
            let err = am
                .execute_crashable(
                    &mut rt,
                    &plan,
                    &mut BasicFactory,
                    &mut sm,
                    5,
                    &mut NoFaults,
                    &mut crash,
                )
                .unwrap_err();
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
        let mut crash = PlannedCrash::new(CrashPoint::MidRollback { after_undos: 1 });
        let err = am
            .execute_crashable(
                &mut rt,
                &plan,
                &mut BasicFactory,
                &mut sm,
                5,
                &mut faults,
                &mut crash,
            )
            .unwrap_err();
        assert!(matches!(err, SwitchError::Crashed { .. }), "got {err}");
        assert_ne!(rt, before, "the rollback died after one undo");

        let report = am.recover(&mut rt, &mut sm, &mut NoCrash);
        assert_eq!(report.outcome, RecoveryOutcome::RolledBack);
        assert_eq!(rt, before, "recovery finishes the interrupted rollback");
        assert_eq!(am.rolled_back(), 1);
        assert!(am.recover(&mut rt, &mut sm, &mut NoCrash).noop());
    }

    #[test]
    fn crash_during_recovery_resumes_on_the_next_recovery() {
        let (mut rt, mut sm, mut am, plan) = journalled_world();
        let before = rt.clone();
        let mut crash = PlannedCrash::new(CrashPoint::BeforeCommit);
        am.execute_crashable(
            &mut rt,
            &plan,
            &mut BasicFactory,
            &mut sm,
            5,
            &mut NoFaults,
            &mut crash,
        )
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
    fn recovery_without_a_journal_or_with_an_empty_one_is_clean() {
        let (mut rt, mut sm, mut am) = boot_docked();
        assert!(am.recover(&mut rt, &mut sm, &mut NoCrash).noop(), "no journal attached");
        am.attach_journal();
        assert!(am.recover(&mut rt, &mut sm, &mut NoCrash).noop(), "empty journal");
        assert_eq!(am.recoveries(), 0, "noop replays are not counted as recoveries");
    }

    /// Journal replay is idempotent from *any* crash prefix: recovering
    /// twice yields the same configuration, counters, trace, and metrics
    /// as recovering once. Runs 200 randomly-scripted crashes.
    #[test]
    fn prop_recovering_twice_equals_recovering_once() {
        use obs::{CostModel, Obs};

        fn random_point(rng: &mut adm_rng::Pcg32) -> CrashPoint {
            match rng.index(5) {
                0 => CrashPoint::MidPlan { after_steps: rng.index(6) },
                1 => CrashPoint::BeforeCommit,
                2 => CrashPoint::AfterCommit,
                3 => CrashPoint::MidRollback { after_undos: 1 + rng.index(3) },
                _ => CrashPoint::DuringRecovery { after_undos: 1 + rng.index(3) },
            }
        }

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
            let mut crash = PlannedCrash::new(point);
            let _ = am.execute_crashable(
                &mut rt,
                &plan,
                &mut BasicFactory,
                &mut sm,
                5,
                &mut faults,
                &mut crash,
            );
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
}
