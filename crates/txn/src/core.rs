//! The transactional component: one shared [`TransactionCore`] driving
//! presumed-abort two-phase commit over per-shard [`DataComponent`]s.
//!
//! The coordinator (the adaptivity manager's cross-shard face) runs the
//! protocol:
//!
//! ```text
//!   lint ─ lock ─ Begin ─┬─ per shard: Intent, Applied*, Prepared(force)
//!                        ├─ all voted: Commit(force)        ← commit point
//!                        ├─ fan-out: ShardCommitted*, End    → committed
//!                        └─ any failure before the decision:
//!                           Undone*, ShardAborted*, End      → rolled back
//! ```
//!
//! Presumed abort: the only decision ever logged is `Commit`. A crash
//! anywhere before it leaves prepared participants *in doubt*; on
//! recovery they query the shared log, and the absence of a decision is
//! the abort verdict — unresolved transactions roll back
//! deterministically, newest step first, then the log is reclaimed.
//! Recovery is idempotent (compensations are logged as `Undone`, so a
//! second pass finds nothing left to do) and crash-safe (a crash during
//! recovery keeps the partial progress; the next pass resumes).
//!
//! Everything is billed when an [`obs`] hub is armed: one `Store` per
//! log append, one `LogForce` per forced record (`Prepared` votes and
//! the decision), one `Load` per record recovery scans, `SchedSteps`
//! for executed/undone work, under `txn:cross_switch` / `txn:recover`
//! spans and `txn.*` metrics.

use crate::crash::{TxnCrashHook, TxnCrashSite};
use crate::lock::{LockManager, LockMode, LockOutcome};
use crate::log::{ShardId, TxnLog, TxnRecord};
use crate::shard::{DataComponent, PlanStep};
use adl::diff::ReconfigurationPlan;
use compkit::journal::{RecoveryOutcome, StepRecord};
use compkit::planlint::{PlanLintReport, PlanLinter};
use compkit::StepFaults;
use obs::{ObsHandle, Primitive};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Why a cross-shard switch did not commit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxnError {
    /// A sub-plan failed the static linter; nothing was locked or logged.
    LintRejected(PlanLintReport),
    /// A sub-plan names a shard the caller does not hold; nothing was
    /// locked or logged.
    UnknownShard {
        /// The missing shard.
        shard: u32,
    },
    /// A lock request conflicted with a live (or crashed-but-unrecovered)
    /// transaction; the new transaction aborted without shard work.
    LockConflict {
        /// The contested resource.
        resource: String,
        /// Who holds it.
        holders: Vec<u64>,
    },
    /// Deadlock: this transaction was chosen as the victim.
    Deadlock {
        /// The rendered wait-for cycle.
        cycle: String,
    },
    /// An injected fault failed a step; the transaction rolled back.
    Injected {
        /// The shard the step belonged to.
        shard: u32,
        /// The failed step, described.
        step: String,
        /// The injected reason.
        reason: String,
    },
    /// A step failed for a real reason; the transaction rolled back.
    StepFailed {
        /// The shard the step belonged to.
        shard: u32,
        /// The failed step, described.
        step: String,
        /// The failure.
        reason: String,
    },
    /// Store persistence failed after the commit point; the log stays
    /// open and recovery finishes the fan-out.
    Store {
        /// The shard whose engine failed.
        shard: u32,
        /// The failure.
        reason: String,
    },
    /// Rollback left residue; the log stays open for recovery to retry.
    RollbackIncomplete {
        /// The original failure.
        cause: String,
        /// The steps that would not undo.
        residue: Vec<String>,
    },
    /// The coordinator crashed at a protocol boundary; the log holds the
    /// open transaction and recovery settles it.
    Crashed {
        /// The boundary, rendered.
        site: String,
    },
}

impl fmt::Display for TxnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TxnError::LintRejected(r) => {
                write!(f, "lint rejected ({} diagnostics)", r.diagnostics.len())
            }
            TxnError::UnknownShard { shard } => write!(f, "plan names unknown shard s{shard}"),
            TxnError::LockConflict { resource, holders } => {
                write!(f, "lock conflict on {resource} (held by {holders:?})")
            }
            TxnError::Deadlock { cycle } => write!(f, "deadlock victim: {cycle}"),
            TxnError::Injected { shard, step, reason } => {
                write!(f, "injected fault on s{shard} at '{step}': {reason}")
            }
            TxnError::StepFailed { shard, step, reason } => {
                write!(f, "step failed on s{shard} at '{step}': {reason}")
            }
            TxnError::Store { shard, reason } => {
                write!(f, "store persistence failed on s{shard}: {reason}")
            }
            TxnError::RollbackIncomplete { cause, residue } => {
                write!(f, "rollback incomplete after '{cause}': {} residue", residue.len())
            }
            TxnError::Crashed { site } => write!(f, "crashed at {site}"),
        }
    }
}

/// A committed cross-shard switch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrossShardReport {
    /// The global transaction id.
    pub gtxn: u64,
    /// Participating shards.
    pub shards: usize,
    /// Total steps applied across all shards.
    pub steps: usize,
    /// Virtual time the switch completed.
    pub completed_at: u64,
}

/// What one recovery pass did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxnRecoveryReport {
    /// How the pass ended (forward dominates if a pass settles both a
    /// committed and an aborted transaction).
    pub outcome: RecoveryOutcome,
    /// Log records scanned.
    pub scanned: usize,
    /// Compensations performed.
    pub undone: usize,
    /// In-doubt participants (prepared, no fan-out) resolved by
    /// consulting the decision record — or its absence.
    pub in_doubt_resolved: usize,
    /// Transactions rolled forward.
    pub forward: usize,
    /// Transactions rolled back.
    pub back: usize,
    /// Undo failures left behind (empty in every healthy run).
    pub residue: Vec<String>,
}

impl TxnRecoveryReport {
    /// True when the pass found nothing to do — the idempotence witness.
    #[must_use]
    pub fn noop(&self) -> bool {
        self.outcome == RecoveryOutcome::Clean && self.undone == 0 && self.in_doubt_resolved == 0
    }
}

/// One shard's part in a cross-shard switch: its data component, its
/// sub-plan decomposed once (the steps feed both the lock set and the
/// prepare loop), and the records of the steps it has applied so far.
struct Participant<'a> {
    id: u32,
    dc: &'a mut DataComponent,
    steps: Vec<PlanStep>,
    applied: Vec<(usize, StepRecord)>,
}

/// The shared transactional component: lock manager + transaction log +
/// the 2PC coordinator logic, unbundled from any one shard.
#[derive(Debug, Default)]
pub struct TransactionCore {
    locks: LockManager,
    log: TxnLog,
    obs: Option<ObsHandle>,
    committed: u64,
    aborted: u64,
    crashes: u64,
    recoveries: u64,
    in_doubt_resolved: u64,
}

impl TransactionCore {
    /// A fresh core: empty lock table, empty log.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Bill and trace against `hub` from now on.
    pub fn arm_obs(&mut self, hub: ObsHandle) {
        self.obs = Some(hub);
    }

    /// Stop billing.
    pub fn disarm_obs(&mut self) {
        self.obs = None;
    }

    /// The shared transaction log (what `sys.txns` serves).
    #[must_use]
    pub fn log(&self) -> &TxnLog {
        &self.log
    }

    /// The shared lock table.
    #[must_use]
    pub fn locks(&self) -> &LockManager {
        &self.locks
    }

    /// Cross-shard switches committed.
    #[must_use]
    pub fn committed(&self) -> u64 {
        self.committed
    }

    /// Cross-shard switches rolled back.
    #[must_use]
    pub fn aborted(&self) -> u64 {
        self.aborted
    }

    /// Coordinator/participant crashes taken.
    #[must_use]
    pub fn crashes(&self) -> u64 {
        self.crashes
    }

    /// Recovery passes that found work.
    #[must_use]
    pub fn recoveries(&self) -> u64 {
        self.recoveries
    }

    /// In-doubt participants resolved across all recoveries.
    #[must_use]
    pub fn in_doubt_resolved(&self) -> u64 {
        self.in_doubt_resolved
    }

    fn bill(&self, p: Primitive) {
        if let Some(o) = &self.obs {
            o.borrow_mut().charge(p);
        }
    }

    /// Execute `plans` (shard id → sub-plan) atomically across `shards`
    /// as one presumed-abort two-phase commit. `faults` injects step
    /// failures (driving the abort path); `hook` is consulted at every
    /// protocol boundary (driving the crash matrix).
    pub fn execute_cross_shard(
        &mut self,
        shards: &mut BTreeMap<u32, DataComponent>,
        plans: &BTreeMap<u32, ReconfigurationPlan>,
        now: u64,
        faults: &mut dyn StepFaults,
        hook: &mut dyn TxnCrashHook,
    ) -> Result<CrossShardReport, TxnError> {
        // Static gate first: nothing is locked or logged for a plan the
        // linter rejects or one that names a shard the caller lacks.
        let linter = PlanLinter::new();
        let total_steps: usize = plans.values().map(ReconfigurationPlan::len).sum();
        if let Some(o) = &self.obs {
            let mut o = o.borrow_mut();
            for _ in 0..total_steps {
                o.charge(Primitive::Alu);
            }
            o.metrics.counter_add("txn.lint.plans", plans.len() as u64);
        }
        for plan in plans.values() {
            let report = linter.lint_one(plan);
            if report.has_errors() {
                if let Some(o) = &self.obs {
                    let mut o = o.borrow_mut();
                    o.instant("txn", "lint:rejected", Vec::new());
                    o.metrics.counter_add("txn.lint.rejected", 1);
                }
                return Err(TxnError::LintRejected(report));
            }
        }
        if let Some(&shard) = plans.keys().find(|id| !shards.contains_key(id)) {
            return Err(TxnError::UnknownShard { shard });
        }
        // Every planned shard is held and both maps iterate in ascending
        // id order, so the filtered shards pair up with the sub-plans.
        let mut participants: Vec<Participant<'_>> = shards
            .iter_mut()
            .filter(|(id, _)| plans.contains_key(id))
            .zip(plans.values())
            .map(|((&id, dc), plan)| Participant {
                id,
                dc,
                steps: PlanStep::decompose(plan),
                applied: Vec::new(),
            })
            .collect();

        let shard_ids: Vec<ShardId> = plans.keys().map(|id| ShardId(*id)).collect();
        let gtxn = self.log.begin(shard_ids, now);
        self.bill(Primitive::Store);
        let span = self.obs.as_ref().map(|o| o.borrow_mut().begin("txn", "cross_switch"));

        // Growing phase: lock every touched instance, shard-qualified, in
        // global sorted order so the coordinator itself cannot deadlock.
        let mut resources: BTreeSet<String> = BTreeSet::new();
        for p in &participants {
            for inst in p.steps.iter().flat_map(PlanStep::instances) {
                resources.insert(format!("s{}/{inst}", p.id));
            }
        }
        for r in &resources {
            self.bill(Primitive::Branch);
            match self.locks.acquire(gtxn, r, LockMode::Exclusive) {
                LockOutcome::Granted => {}
                LockOutcome::Waiting { holders } => {
                    // A single coordinator never waits: the conflict means a
                    // crashed-but-unrecovered transaction still holds the
                    // resource, or a genuine deadlock. Either way this
                    // transaction aborts without having touched any shard.
                    let verdict = self.locks.detect_deadlock();
                    self.locks.release_all(gtxn);
                    self.log.append(TxnRecord::End { gtxn });
                    self.bill(Primitive::Store);
                    self.log.truncate_ended();
                    self.aborted = self.aborted.saturating_add(1);
                    if let (Some(o), Some(span)) = (&self.obs, span) {
                        let mut o = o.borrow_mut();
                        o.end_with(
                            span,
                            vec![("outcome", "lock_conflict".to_owned()), ("resource", r.clone())],
                        );
                        o.metrics.counter_add("txn.lock.conflicts", 1);
                    }
                    return Err(match verdict {
                        Some(dl) if dl.victim == gtxn => TxnError::Deadlock { cycle: dl.cycle },
                        _ => TxnError::LockConflict { resource: r.clone(), holders },
                    });
                }
            }
        }
        if let Some(o) = &self.obs {
            o.borrow_mut().metrics.counter_add("txn.lock.granted", resources.len() as u64);
        }

        if hook.crash(&TxnCrashSite::BeforePrepare) {
            return self.crash_out(span, &TxnCrashSite::BeforePrepare, 0, 0);
        }

        // Prepare phase: every shard applies its sub-plan and votes.
        let mut forward_steps = 0usize;
        for i in 0..participants.len() {
            let p = &mut participants[i];
            let id = p.id;
            self.log.append(TxnRecord::Intent { gtxn, shard: ShardId(id), steps: p.steps.len() });
            self.bill(Primitive::Store);
            for (index, step) in p.steps.iter().enumerate() {
                let injected = match step {
                    PlanStep::Unbind(b) => {
                        faults.fail_unbind(b).map(|r| (format!("unbind {} -- {}", b.from, b.to), r))
                    }
                    PlanStep::Stop(name, _) => {
                        faults.fail_stop(name).map(|r| (format!("stop {name}"), r))
                    }
                    PlanStep::Bind(b) => {
                        faults.fail_bind(b).map(|r| (format!("bind {} -- {}", b.from, b.to), r))
                    }
                    PlanStep::Start(..) => None,
                };
                let outcome = match injected {
                    Some((desc, reason)) => {
                        Err(TxnError::Injected { shard: id, step: desc, reason })
                    }
                    None => p.dc.apply_step(step, now).map_err(|reason| TxnError::StepFailed {
                        shard: id,
                        step: format!("{step:?}"),
                        reason,
                    }),
                };
                let record = match outcome {
                    Ok(record) => record,
                    Err(cause) => {
                        // Every shard up to this one has logged its intent.
                        let intents = &mut participants[..=i];
                        return self.abort_path(
                            span,
                            gtxn,
                            intents,
                            forward_steps,
                            cause,
                            faults,
                            hook,
                        );
                    }
                };
                self.log.append(TxnRecord::Applied {
                    gtxn,
                    shard: ShardId(id),
                    index,
                    step: record.clone(),
                });
                self.bill(Primitive::Store);
                p.applied.push((index, record));
                forward_steps += 1;
                let site = TxnCrashSite::ShardStep { shard: id, index };
                if hook.crash(&site) {
                    return self.crash_out(span, &site, forward_steps, 0);
                }
            }
            // The vote is forced: a prepared shard must survive a crash.
            self.log.append(TxnRecord::Prepared { gtxn, shard: ShardId(id) });
            self.bill(Primitive::Store);
            self.bill(Primitive::LogForce);
            if let Some(o) = &self.obs {
                o.borrow_mut().metrics.counter_add("txn.log.force", 1);
            }
            let site = TxnCrashSite::ShardPrepared { shard: id };
            if hook.crash(&site) {
                return self.crash_out(span, &site, forward_steps, 0);
            }
        }

        // The commit point.
        if hook.crash(&TxnCrashSite::BeforeDecision) {
            return self.crash_out(span, &TxnCrashSite::BeforeDecision, forward_steps, 0);
        }
        self.log.append(TxnRecord::Commit { gtxn });
        self.bill(Primitive::Store);
        self.bill(Primitive::LogForce);
        if let Some(o) = &self.obs {
            o.borrow_mut().metrics.counter_add("txn.log.force", 1);
        }
        if hook.crash(&TxnCrashSite::AfterDecision) {
            return self.crash_out(span, &TxnCrashSite::AfterDecision, forward_steps, 0);
        }

        // Commit fan-out, to every shard that applied a step.
        for p in participants.iter_mut().filter(|p| !p.applied.is_empty()) {
            let steps: Vec<StepRecord> = p.applied.iter().map(|(_, s)| s.clone()).collect();
            if let Err(reason) = p.dc.persist_steps(&steps) {
                // Committed but not yet persisted everywhere: leave the log
                // open, recovery finishes the fan-out.
                self.crashes = self.crashes.saturating_add(1);
                if let (Some(o), Some(span)) = (&self.obs, span) {
                    let mut o = o.borrow_mut();
                    o.end_with(span, vec![("outcome", "store_failed".to_owned())]);
                    o.metrics.counter_add("txn.switch.crashed", 1);
                }
                return Err(TxnError::Store { shard: p.id, reason });
            }
            self.log.append(TxnRecord::ShardCommitted { gtxn, shard: ShardId(p.id) });
            self.bill(Primitive::Store);
            let site = TxnCrashSite::ShardCommitted { shard: p.id };
            if hook.crash(&site) {
                return self.crash_out(span, &site, forward_steps, 0);
            }
        }
        self.log.append(TxnRecord::End { gtxn });
        self.bill(Primitive::Store);
        self.log.truncate_ended();
        let released = self.locks.release_all(gtxn);
        self.committed = self.committed.saturating_add(1);
        if let (Some(o), Some(span)) = (&self.obs, span) {
            let mut o = o.borrow_mut();
            o.charge(Primitive::SchedSteps(forward_steps as u32));
            o.end_with(
                span,
                vec![
                    ("outcome", "committed".to_owned()),
                    ("shards", plans.len().to_string()),
                    ("steps", forward_steps.to_string()),
                ],
            );
            o.metrics.counter_add("txn.switch.committed", 1);
            o.metrics.counter_add("txn.prepare.shards", plans.len() as u64);
            o.metrics.counter_add("txn.lock.released", released as u64);
        }
        Ok(CrossShardReport { gtxn, shards: plans.len(), steps: forward_steps, completed_at: now })
    }

    /// The abort path: compensate every applied step in reverse (newest
    /// shard first, newest step first), log the abort fan-out to every
    /// shard in `intents` (those whose intent is logged), end the
    /// transaction. Presumed abort — no decision record is written.
    #[allow(clippy::too_many_arguments)]
    fn abort_path(
        &mut self,
        span: Option<obs::SpanId>,
        gtxn: u64,
        intents: &mut [Participant<'_>],
        forward_steps: usize,
        cause: TxnError,
        faults: &mut dyn StepFaults,
        hook: &mut dyn TxnCrashHook,
    ) -> Result<CrossShardReport, TxnError> {
        let mut undos = 0usize;
        let mut residue: Vec<String> = Vec::new();
        for p in intents.iter_mut().rev() {
            let id = p.id;
            for (index, record) in p.applied.iter().rev() {
                let desc = record.undo_describe();
                if let Some(reason) = faults.fail_rollback(&desc) {
                    residue.push(format!("s{id} {desc}: {reason}"));
                    continue;
                }
                if let Err(err) = p.dc.undo_step(record) {
                    residue.push(format!("s{id} {desc}: {err}"));
                    continue;
                }
                undos += 1;
                self.log.append(TxnRecord::Undone { gtxn, shard: ShardId(id), index: *index });
                self.bill(Primitive::Store);
                let site = TxnCrashSite::ShardUndone { shard: id, undos };
                if hook.crash(&site) {
                    return self.crash_out(span, &site, forward_steps, undos);
                }
            }
            self.log.append(TxnRecord::ShardAborted { gtxn, shard: ShardId(id) });
            self.bill(Primitive::Store);
            let site = TxnCrashSite::ShardAborted { shard: id };
            if hook.crash(&site) {
                return self.crash_out(span, &site, forward_steps, undos);
            }
        }
        if !residue.is_empty() {
            // Leave the log open: recovery retries the leftover undos.
            if let (Some(o), Some(span)) = (&self.obs, span) {
                let mut o = o.borrow_mut();
                o.charge(Primitive::SchedSteps((forward_steps + undos) as u32));
                o.end_with(
                    span,
                    vec![
                        ("outcome", "rollback_incomplete".to_owned()),
                        ("residue", residue.len().to_string()),
                    ],
                );
                o.metrics.counter_add("txn.switch.rollbacks_incomplete", 1);
            }
            return Err(TxnError::RollbackIncomplete { cause: cause.to_string(), residue });
        }
        self.log.append(TxnRecord::End { gtxn });
        self.bill(Primitive::Store);
        self.log.truncate_ended();
        let released = self.locks.release_all(gtxn);
        self.aborted = self.aborted.saturating_add(1);
        if let (Some(o), Some(span)) = (&self.obs, span) {
            let mut o = o.borrow_mut();
            // Forward steps ran AND were undone: bill both directions.
            o.charge(Primitive::SchedSteps((forward_steps + undos) as u32));
            o.end_with(
                span,
                vec![
                    ("outcome", "rolled_back".to_owned()),
                    ("undos", undos.to_string()),
                    ("cause", cause.to_string()),
                ],
            );
            o.metrics.counter_add("txn.switch.rolled_back", 1);
            o.metrics.counter_add("txn.lock.released", released as u64);
        }
        Err(cause)
    }

    /// A crash at `site`: no rollback, no lock release — the log is the
    /// ledger and recovery settles it.
    fn crash_out(
        &mut self,
        span: Option<obs::SpanId>,
        site: &TxnCrashSite,
        forward: usize,
        undos: usize,
    ) -> Result<CrossShardReport, TxnError> {
        self.crashes = self.crashes.saturating_add(1);
        if let (Some(o), Some(span)) = (&self.obs, span) {
            let mut o = o.borrow_mut();
            if forward + undos > 0 {
                o.charge(Primitive::SchedSteps((forward + undos) as u32));
            }
            o.end_with(span, vec![("outcome", "crashed".to_owned()), ("site", site.to_string())]);
            o.metrics.counter_add("txn.switch.crashed", 1);
        }
        Err(TxnError::Crashed { site: site.to_string() })
    }

    /// Replay the shared log after a crash. Every open transaction lands
    /// in exactly one of two global states: a decision record rolls it
    /// *forward* (missing fan-out is completed, store persistence
    /// replayed idempotently); no decision rolls it *back* (presumed
    /// abort — every applied-not-yet-undone step is compensated, newest
    /// first). In-doubt participants are resolved by that same log read.
    /// Idempotent: a settled log scans clean and touches nothing.
    pub fn recover(
        &mut self,
        shards: &mut BTreeMap<u32, DataComponent>,
        hook: &mut dyn TxnCrashHook,
    ) -> TxnRecoveryReport {
        let scanned = self.log.len();
        if scanned == 0 {
            return TxnRecoveryReport {
                outcome: RecoveryOutcome::Clean,
                scanned: 0,
                undone: 0,
                in_doubt_resolved: 0,
                forward: 0,
                back: 0,
                residue: Vec::new(),
            };
        }
        let span = self.obs.as_ref().map(|o| o.borrow_mut().begin("txn", "recover"));
        if let Some(o) = &self.obs {
            let mut o = o.borrow_mut();
            for _ in 0..scanned {
                o.charge(Primitive::Load);
            }
        }
        let mut undone = 0usize;
        let mut resolved = 0usize;
        let mut forward = 0usize;
        let mut back = 0usize;
        let mut residue: Vec<String> = Vec::new();
        let mut crashed = false;
        'txns: for t in self.log.open_txns() {
            let in_doubt = t.in_doubt().len();
            // Residue is tracked per transaction (residue[txn_mark..] is
            // this transaction's): one stuck undo must not block another
            // transaction's End, and a failed persist must keep *this*
            // transaction open — never appended as ended — so a later
            // pass retries the idempotent persist from the live log.
            let txn_mark = residue.len();
            if t.decided {
                // Roll forward: complete the commit fan-out.
                for sid in &t.shards {
                    let p = t.progress.get(sid).cloned().unwrap_or_default();
                    if p.committed {
                        continue;
                    }
                    if let Some(dc) = shards.get_mut(&sid.0) {
                        let steps: Vec<StepRecord> =
                            p.applied.iter().map(|(_, s)| s.clone()).collect();
                        if let Err(e) = dc.persist_steps(&steps) {
                            residue.push(format!("{sid} persist: {e}"));
                            continue;
                        }
                    }
                    self.log.append(TxnRecord::ShardCommitted { gtxn: t.gtxn, shard: *sid });
                    self.bill(Primitive::Store);
                    let site = TxnCrashSite::ShardCommitted { shard: sid.0 };
                    if hook.crash(&site) {
                        crashed = true;
                        break 'txns;
                    }
                }
                resolved += in_doubt;
                if residue.len() == txn_mark {
                    self.log.append(TxnRecord::End { gtxn: t.gtxn });
                    self.bill(Primitive::Store);
                    forward += 1;
                    self.committed = self.committed.saturating_add(1);
                }
            } else {
                // Presumed abort: the prepared shards queried the log and
                // found no decision — roll everything back.
                resolved += in_doubt;
                for sid in t.shards.iter().rev() {
                    let p = t.progress.get(sid).cloned().unwrap_or_default();
                    let shard_mark = residue.len();
                    if let Some(dc) = shards.get_mut(&sid.0) {
                        for (index, record) in p.pending_undo() {
                            if let Err(e) = dc.undo_step(&record) {
                                residue.push(format!("{sid} [{index}]: {e}"));
                                continue;
                            }
                            undone += 1;
                            self.log.append(TxnRecord::Undone { gtxn: t.gtxn, shard: *sid, index });
                            self.bill(Primitive::Store);
                            self.bill(Primitive::SchedSteps(1));
                            if hook.crash(&TxnCrashSite::RecoveryUndo { undos: undone }) {
                                crashed = true;
                                break 'txns;
                            }
                        }
                    }
                    // Abort fan-out reaches a shard only once its
                    // compensation completed: a shard whose undo left
                    // residue stays un-aborted in the log so the record
                    // order never claims more than actually happened.
                    if !p.aborted && residue.len() == shard_mark {
                        self.log.append(TxnRecord::ShardAborted { gtxn: t.gtxn, shard: *sid });
                        self.bill(Primitive::Store);
                    }
                }
                if residue.len() == txn_mark {
                    self.log.append(TxnRecord::End { gtxn: t.gtxn });
                    self.bill(Primitive::Store);
                    back += 1;
                    self.aborted = self.aborted.saturating_add(1);
                }
            }
            if residue.len() == txn_mark {
                self.locks.release_all(t.gtxn);
            }
        }
        if !crashed {
            self.log.truncate_ended();
        }
        let outcome = if crashed {
            RecoveryOutcome::Crashed
        } else if !residue.is_empty() {
            RecoveryOutcome::Incomplete
        } else if forward > 0 {
            RecoveryOutcome::RolledForward
        } else if back > 0 {
            RecoveryOutcome::RolledBack
        } else {
            RecoveryOutcome::Clean
        };
        self.recoveries = self.recoveries.saturating_add(1);
        self.in_doubt_resolved = self.in_doubt_resolved.saturating_add(resolved as u64);
        if let (Some(o), Some(span)) = (&self.obs, span) {
            let mut o = o.borrow_mut();
            o.end_with(
                span,
                vec![
                    ("outcome", outcome.to_string()),
                    ("scanned", scanned.to_string()),
                    ("undone", undone.to_string()),
                    ("in_doubt_resolved", resolved.to_string()),
                ],
            );
            o.metrics.counter_add("txn.recovery.runs", 1);
            o.metrics.counter_add("txn.recovery.records_scanned", scanned as u64);
            o.metrics.counter_add("txn.recovery.steps_undone", undone as u64);
            o.metrics.counter_add("txn.recovery.in_doubt_resolved", resolved as u64);
            o.metrics.counter_add("txn.log.replay_len", scanned as u64);
        }
        TxnRecoveryReport {
            outcome,
            scanned,
            undone,
            in_doubt_resolved: resolved,
            forward,
            back,
            residue,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crash::{NoTxnCrash, PlannedTxnCrash, TxnCrashPoint};
    use adl::ast::{Binding, PortRef};
    use compkit::runtime::LiveComponent;
    use compkit::NoFaults;

    fn binding(fi: &str, fp: &str, ti: &str, tp: &str) -> Binding {
        Binding { from: PortRef::on(fi, fp), to: PortRef::on(ti, tp) }
    }

    /// Two shards: s0 runs `codec` bound to `route`; s1 runs `sink`.
    /// The cross-shard plan migrates `codec` from s0 to s1.
    fn world() -> (BTreeMap<u32, DataComponent>, BTreeMap<u32, ReconfigurationPlan>) {
        let mut shards = BTreeMap::new();
        let mut s0 = DataComponent::new(ShardId(0));
        s0.runtime_mut()
            .start("route", LiveComponent { ty: "Route".into(), state: vec![7], started_at: 0 })
            .unwrap();
        s0.runtime_mut()
            .start("codec", LiveComponent { ty: "Codec".into(), state: vec![1, 2], started_at: 0 })
            .unwrap();
        s0.runtime_mut().bind(binding("route", "out", "codec", "in")).unwrap();
        let mut s1 = DataComponent::new(ShardId(1));
        s1.runtime_mut()
            .start("sink", LiveComponent { ty: "Sink".into(), state: vec![9], started_at: 0 })
            .unwrap();
        shards.insert(0, s0);
        shards.insert(1, s1);
        let mut plans = BTreeMap::new();
        plans.insert(
            0,
            ReconfigurationPlan {
                unbind: vec![binding("route", "out", "codec", "in")],
                stop: vec![("codec".into(), "Codec".into())],
                ..Default::default()
            },
        );
        plans.insert(
            1,
            ReconfigurationPlan {
                start: vec![("codec".into(), "Codec".into())],
                bind: vec![binding("codec", "out", "sink", "in")],
                ..Default::default()
            },
        );
        (shards, plans)
    }

    fn digests(shards: &BTreeMap<u32, DataComponent>) -> Vec<u64> {
        shards.values().map(DataComponent::digest).collect()
    }

    #[test]
    fn clean_cross_shard_switch_commits_on_all_shards() {
        let (mut shards, plans) = world();
        let before = digests(&shards);
        let mut tc = TransactionCore::new();
        let report = tc
            .execute_cross_shard(&mut shards, &plans, 40, &mut NoFaults, &mut NoTxnCrash)
            .unwrap();
        assert_eq!(report.shards, 2);
        assert_eq!(report.steps, 4);
        assert_ne!(digests(&shards), before);
        assert!(shards[&0].runtime().component("codec").is_none());
        assert!(shards[&1].runtime().component("codec").is_some());
        assert_eq!(tc.committed(), 1);
        assert!(tc.log().is_empty(), "resolved txns are reclaimed");
        assert_eq!(tc.locks().held_total(), 0, "strict 2PL released everything");
    }

    #[test]
    fn injected_bind_fault_rolls_back_every_shard() {
        let (mut shards, plans) = world();
        let before = digests(&shards);
        let mut tc = TransactionCore::new();
        #[derive(Debug)]
        struct FailBind;
        impl StepFaults for FailBind {
            fn fail_bind(&mut self, _b: &Binding) -> Option<String> {
                Some("injected".into())
            }
        }
        let err = tc
            .execute_cross_shard(&mut shards, &plans, 40, &mut FailBind, &mut NoTxnCrash)
            .unwrap_err();
        assert!(matches!(err, TxnError::Injected { shard: 1, .. }));
        assert_eq!(digests(&shards), before, "all shards back to the initial state");
        assert_eq!(tc.aborted(), 1);
        assert!(tc.log().is_empty());
        assert_eq!(tc.locks().held_total(), 0);
    }

    #[test]
    fn crash_before_decision_recovers_to_rollback_everywhere() {
        let (mut shards, plans) = world();
        let before = digests(&shards);
        let mut tc = TransactionCore::new();
        let mut hook = PlannedTxnCrash::new(TxnCrashPoint::BeforeDecision);
        let err =
            tc.execute_cross_shard(&mut shards, &plans, 40, &mut NoFaults, &mut hook).unwrap_err();
        assert!(matches!(err, TxnError::Crashed { .. }));
        assert!(hook.fired());
        assert!(!tc.log().is_empty(), "the open txn survives the crash");
        assert!(tc.locks().held_total() > 0, "crashed txn still holds its locks");
        let report = tc.recover(&mut shards, &mut NoTxnCrash);
        assert_eq!(report.outcome, RecoveryOutcome::RolledBack);
        assert_eq!(report.in_doubt_resolved, 2, "both prepared shards were in doubt");
        assert_eq!(digests(&shards), before);
        assert_eq!(tc.locks().held_total(), 0);
        assert!(tc.recover(&mut shards, &mut NoTxnCrash).noop(), "second recovery is a noop");
    }

    #[test]
    fn crash_after_decision_recovers_to_commit_everywhere() {
        let (mut shards, plans) = world();
        let mut tc = TransactionCore::new();
        let committed_world = {
            let (mut s, p) = world();
            TransactionCore::new()
                .execute_cross_shard(&mut s, &p, 40, &mut NoFaults, &mut NoTxnCrash)
                .unwrap();
            s
        };
        let mut hook = PlannedTxnCrash::new(TxnCrashPoint::AfterDecision);
        tc.execute_cross_shard(&mut shards, &plans, 40, &mut NoFaults, &mut hook).unwrap_err();
        let report = tc.recover(&mut shards, &mut NoTxnCrash);
        assert_eq!(report.outcome, RecoveryOutcome::RolledForward);
        assert_eq!(report.in_doubt_resolved, 2);
        assert_eq!(digests(&shards), digests(&committed_world));
        assert_eq!(tc.committed(), 1);
    }

    #[test]
    fn crash_during_recovery_resumes_idempotently() {
        let (mut shards, plans) = world();
        let before = digests(&shards);
        let mut tc = TransactionCore::new();
        let mut hook = PlannedTxnCrash::new(TxnCrashPoint::BeforeDecision);
        tc.execute_cross_shard(&mut shards, &plans, 40, &mut NoFaults, &mut hook).unwrap_err();
        let mut rhook = PlannedTxnCrash::new(TxnCrashPoint::DuringRecovery { after_undos: 1 });
        let r1 = tc.recover(&mut shards, &mut rhook);
        assert_eq!(r1.outcome, RecoveryOutcome::Crashed);
        assert!(rhook.fired());
        let r2 = tc.recover(&mut shards, &mut NoTxnCrash);
        assert_eq!(r2.outcome, RecoveryOutcome::RolledBack);
        assert!(r2.undone < 4, "the undo done before the recovery crash is not redone");
        assert_eq!(digests(&shards), before);
        assert!(tc.recover(&mut shards, &mut NoTxnCrash).noop());
    }

    #[test]
    fn store_failure_during_roll_forward_keeps_txn_open_for_retry() {
        use compkit::journal::NoCrash;
        use store::StorageEngine;
        let (mut shards, plans) = world();
        shards.get_mut(&1).unwrap().attach_store(StorageEngine::new(8));
        let mut tc = TransactionCore::new();
        let mut hook = PlannedTxnCrash::new(TxnCrashPoint::AfterDecision);
        tc.execute_cross_shard(&mut shards, &plans, 40, &mut NoFaults, &mut hook).unwrap_err();
        // s1's engine is down when recovery tries to finish the fan-out.
        shards.get_mut(&1).unwrap().store_mut().unwrap().crash();
        let r1 = tc.recover(&mut shards, &mut NoTxnCrash);
        assert_eq!(r1.outcome, RecoveryOutcome::Incomplete);
        assert_eq!(r1.residue.len(), 1);
        assert_eq!(r1.forward, 0);
        assert_eq!(tc.committed(), 0, "not counted committed until the fan-out lands");
        assert!(!tc.log().is_empty(), "the decided txn stays open for retry");
        assert!(tc.locks().held_total() > 0, "its locks are held until it ends");
        // The engine comes back; a later pass retries the idempotent
        // persist and settles the transaction.
        shards.get_mut(&1).unwrap().store_mut().unwrap().recover(&mut NoCrash).unwrap();
        let r2 = tc.recover(&mut shards, &mut NoTxnCrash);
        assert_eq!(r2.outcome, RecoveryOutcome::RolledForward);
        assert_eq!(tc.committed(), 1);
        assert!(tc.log().is_empty());
        assert_eq!(tc.locks().held_total(), 0);
        let key = shards[&1].store_key("codec");
        assert!(
            shards.get_mut(&1).unwrap().store_mut().unwrap().get(key).unwrap().is_some(),
            "the committed shard's durable state survived the failed pass"
        );
        assert!(tc.recover(&mut shards, &mut NoTxnCrash).noop());
    }

    #[test]
    fn residue_in_one_txn_does_not_block_anothers_rollback() {
        let (mut shards, plans) = world();
        // An extra unbound instance gives the first txn a disjoint footprint.
        shards
            .get_mut(&0)
            .unwrap()
            .runtime_mut()
            .start("aux", LiveComponent { ty: "Aux".into(), state: vec![4], started_at: 0 })
            .unwrap();
        let mut tc = TransactionCore::new();
        let mut aux_plans = BTreeMap::new();
        aux_plans.insert(
            0,
            ReconfigurationPlan { stop: vec![("aux".into(), "Aux".into())], ..Default::default() },
        );
        let mut hook = PlannedTxnCrash::new(TxnCrashPoint::BeforeDecision);
        tc.execute_cross_shard(&mut shards, &aux_plans, 40, &mut NoFaults, &mut hook).unwrap_err();
        let mut hook = PlannedTxnCrash::new(TxnCrashPoint::BeforeDecision);
        tc.execute_cross_shard(&mut shards, &plans, 41, &mut NoFaults, &mut hook).unwrap_err();
        // Sabotage gtxn 0's compensation: restart `aux` out-of-band so
        // the undo (a start) collides.
        shards
            .get_mut(&0)
            .unwrap()
            .runtime_mut()
            .start("aux", LiveComponent { ty: "Aux".into(), state: vec![4], started_at: 9 })
            .unwrap();
        let r1 = tc.recover(&mut shards, &mut NoTxnCrash);
        assert_eq!(r1.outcome, RecoveryOutcome::Incomplete);
        assert_eq!(r1.residue.len(), 1);
        assert_eq!(r1.back, 1, "the clean txn still rolls back in the same pass");
        assert_eq!(tc.aborted(), 1);
        assert!(tc.locks().held_by(1).is_empty(), "the clean txn released its locks");
        assert!(!tc.locks().held_by(0).is_empty(), "the stuck txn keeps its locks");
        let live = tc.log().render();
        assert!(live.contains("gtxn=0"), "the stuck txn stays open");
        assert!(!live.contains("gtxn=1"), "the clean txn is reclaimed");
        assert!(
            !live.contains("shard-aborted gtxn=0"),
            "no abort fan-out is claimed for a shard whose undo left residue"
        );
        // Clear the sabotage; the next pass settles the stuck txn too.
        shards.get_mut(&0).unwrap().runtime_mut().stop("aux").unwrap();
        let r2 = tc.recover(&mut shards, &mut NoTxnCrash);
        assert_eq!(r2.outcome, RecoveryOutcome::RolledBack);
        assert_eq!(tc.aborted(), 2);
        assert_eq!(tc.locks().held_total(), 0);
        assert!(tc.recover(&mut shards, &mut NoTxnCrash).noop());
    }

    #[test]
    fn conflicting_transaction_aborts_while_crashed_txn_holds_locks() {
        let (mut shards, plans) = world();
        let mut tc = TransactionCore::new();
        let mut hook = PlannedTxnCrash::new(TxnCrashPoint::AfterPrepare { shard: 0 });
        tc.execute_cross_shard(&mut shards, &plans, 40, &mut NoFaults, &mut hook).unwrap_err();
        // A second switch touching the same instances cannot proceed.
        let err = tc
            .execute_cross_shard(&mut shards, &plans, 41, &mut NoFaults, &mut NoTxnCrash)
            .unwrap_err();
        assert!(matches!(err, TxnError::LockConflict { .. }));
        // Recovery releases the crashed transaction's locks; a retry works.
        tc.recover(&mut shards, &mut NoTxnCrash);
        tc.execute_cross_shard(&mut shards, &plans, 42, &mut NoFaults, &mut NoTxnCrash).unwrap();
        assert_eq!(tc.committed(), 1);
    }

    #[test]
    fn lint_rejection_logs_and_locks_nothing() {
        let (mut shards, _) = world();
        let mut tc = TransactionCore::new();
        // A plan binding a stopped instance is intrinsically broken.
        let mut plans = BTreeMap::new();
        plans.insert(
            0,
            ReconfigurationPlan {
                stop: vec![("codec".into(), "Codec".into())],
                bind: vec![binding("codec", "out", "route", "in")],
                ..Default::default()
            },
        );
        let err = tc
            .execute_cross_shard(&mut shards, &plans, 40, &mut NoFaults, &mut NoTxnCrash)
            .unwrap_err();
        assert!(matches!(err, TxnError::LintRejected(_)));
        assert!(tc.log().is_empty());
        assert_eq!(tc.locks().held_total(), 0);
    }

    #[test]
    fn unknown_shard_logs_and_locks_nothing() {
        let (mut shards, mut plans) = world();
        let before = digests(&shards);
        let mut tc = TransactionCore::new();
        // Shards 0 and 1 exist and their sub-plans are clean; shard 7 does not.
        plans.insert(
            7,
            ReconfigurationPlan { stop: vec![("ghost".into(), "G".into())], ..Default::default() },
        );
        let err = tc
            .execute_cross_shard(&mut shards, &plans, 40, &mut NoFaults, &mut NoTxnCrash)
            .unwrap_err();
        assert_eq!(err, TxnError::UnknownShard { shard: 7 });
        assert!(tc.log().is_empty());
        assert_eq!(tc.log().appended_total(), 0, "not even a Begin");
        assert_eq!(tc.locks().held_total(), 0);
        assert_eq!(tc.locks().grants(), 0);
        assert_eq!(digests(&shards), before, "no shard was touched");
        // The valid sub-plans alone still commit.
        plans.remove(&7);
        tc.execute_cross_shard(&mut shards, &plans, 41, &mut NoFaults, &mut NoTxnCrash).unwrap();
    }
}
