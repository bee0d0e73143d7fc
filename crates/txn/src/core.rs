//! The transactional component: one shared [`TransactionCore`] driving
//! presumed-abort two-phase commit over per-shard [`DataComponent`]s.
//!
//! The coordinator (the adaptivity manager's cross-shard face) lints the
//! sub-plans, begins the transaction, locks, and hands the rest to the
//! one executor every SWITCH runs, [`compkit::journal::execute`]:
//!
//! ```text
//!   lint ─ Begin ─ lock ─┬─ per shard: Intent, Applied*, Prepared(force)
//!                        ├─ all voted: Commit(force)        ← commit point
//!                        │  then recovery's roll-forward, run on the live
//!                        │  transaction: ShardCommitted*, End → committed
//!                        └─ any failure before the decision: recovery's
//!                           rollback, run on the live transaction:
//!                           (Undone*, ShardAborted)* per shard, End
//!                                                            → rolled back
//! ```
//!
//! A shard whose sub-plan is empty is read-only, so no participant: it
//! gets no `Begin` entry, lock, `Intent`, vote, force or fan-out.
//!
//! Presumed abort: the only decision ever logged is `Commit`. A crash
//! anywhere before it leaves prepared participants *in doubt*; on
//! recovery they query the shared log, and the absence of a decision is
//! the abort verdict — unresolved transactions roll back
//! deterministically, newest shard and newest step first, then the log
//! is reclaimed. The commit fan-out, the abort path and recovery run one
//! compensation routine (in the executor on the live transaction,
//! [`compkit::journal::replay`] after a crash), so an in-flight outcome
//! ends with the records a crash at its last boundary followed by
//! recovery would have written. Recovery is idempotent
//! (compensations are logged as `Undone`, so a second pass finds nothing
//! left to do) and crash-safe (a crash during recovery keeps the partial
//! progress; the next pass resumes).
//!
//! Everything is billed when an [`obs`] hub is armed: one `Store` per
//! log append, one `LogForce` per forced record (`Prepared` votes and
//! the decision), one `Load` per record recovery scans, `SchedSteps`
//! for executed/undone work, under `txn:cross_switch` / `txn:recover`
//! spans and `txn.*` metrics.

use crate::lock::{LockManager, LockMode, LockOutcome};
use crate::log::{ShardId, TxnLog, TxnRecord};
use crate::shard::{DataComponent, PlanStep};
use adl::diff::ReconfigurationPlan;
use compkit::journal::{
    self, Boundary, CrashHook, Participants, RecoveryOutcome, RecoveryReport, StepRecord,
};
use compkit::planlint::{PlanLintReport, PlanLinter};
use compkit::StepFaults;
use obs::{ObsHandle, Primitive};
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

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
    /// Participating shards (those with a non-empty sub-plan).
    pub shards: usize,
    /// Total steps applied across all shards.
    pub steps: usize,
    /// Virtual time the switch completed.
    pub completed_at: u64,
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

    fn bill(&self, p: Primitive, n: u64) {
        if let Some(o) = &self.obs {
            o.borrow_mut().charge_n(p, n);
        }
    }

    /// Execute `plans` (shard id → sub-plan) atomically across `shards`
    /// as one presumed-abort two-phase commit. `faults` injects step
    /// failures (driving the abort path); `hook` is consulted at every
    /// record boundary (driving the crash matrix).
    pub fn execute_cross_shard(
        &mut self,
        shards: &mut BTreeMap<u32, DataComponent>,
        plans: &BTreeMap<u32, ReconfigurationPlan>,
        now: u64,
        faults: &mut dyn StepFaults,
        hook: &mut dyn CrashHook,
    ) -> Result<CrossShardReport, TxnError> {
        // Static gate first: nothing is locked or logged for a plan the
        // linter rejects or one that names a shard the caller lacks.
        let linter = PlanLinter::new();
        let total_steps: usize = plans.values().map(ReconfigurationPlan::len).sum();
        if let Some(o) = &self.obs {
            let mut o = o.borrow_mut();
            o.charge_n(Primitive::Alu, total_steps as u64);
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
        // Each sub-plan decomposed once into steps borrowed from the plan
        // (they feed both the lock set and the executor). A shard with an
        // empty sub-plan is read-only: no participant.
        let plan: Vec<(ShardId, Vec<PlanStep<'_>>)> = plans
            .iter()
            .filter(|(_, plan)| !plan.is_empty())
            .map(|(&id, plan)| (ShardId(id), PlanStep::decompose(plan)))
            .collect();

        let gtxn = self.log.begin(plan.iter().map(|(s, _)| *s).collect(), now);
        self.bill(Primitive::Store, 1);
        let span = self.obs.as_ref().map(|o| o.borrow_mut().begin("txn", "cross_switch"));
        if hook.crash(&Boundary::Begun) {
            return self.crash_out(span, Boundary::Begun, 0, 0);
        }

        // Growing phase: lock every touched instance, shard-qualified, in
        // global sorted order of the names so the coordinator itself
        // cannot deadlock. Each name is formatted into one buffer and
        // interned; only a name the lock table has never seen is copied.
        let mut resources: Vec<u32> = Vec::new();
        let mut name = String::new();
        for (shard, steps) in &plan {
            for inst in steps.iter().flat_map(PlanStep::instances) {
                name.clear();
                let _ = write!(name, "s{}/{inst}", shard.0);
                resources.push(self.locks.intern(&name));
            }
        }
        let locks = &self.locks;
        resources.sort_unstable_by(|a, b| locks.name(*a).cmp(locks.name(*b)));
        resources.dedup();
        for &r in &resources {
            self.bill(Primitive::Branch, 1);
            match self.locks.acquire_id(gtxn, r, LockMode::Exclusive) {
                LockOutcome::Granted => {}
                LockOutcome::Waiting { holders } => {
                    // A single coordinator never waits: the conflict means a
                    // crashed-but-unrecovered transaction still holds the
                    // resource, or a genuine deadlock. Either way this
                    // transaction aborts without having touched any shard.
                    let verdict = self.locks.detect_deadlock();
                    self.locks.release_all(gtxn);
                    let resource = self.locks.name(r).to_owned();
                    self.aborted = self.aborted.saturating_add(1);
                    let ended = self.log.append_at(TxnRecord::End { gtxn }, Boundary::Ended, hook);
                    self.bill(Primitive::Store, 1);
                    if let Err(at) = ended {
                        return self.crash_out(span, at, 0, 0);
                    }
                    self.log.truncate_ended();
                    if let (Some(o), Some(span)) = (&self.obs, span) {
                        let mut o = o.borrow_mut();
                        o.end_with(
                            span,
                            vec![
                                ("outcome", "lock_conflict".to_owned()),
                                ("resource", resource.clone()),
                            ],
                        );
                        o.metrics.counter_add("txn.lock.conflicts", 1);
                    }
                    return Err(match verdict {
                        Some(dl) if dl.victim == gtxn => TxnError::Deadlock { cycle: dl.cycle },
                        _ => TxnError::LockConflict { resource, holders },
                    });
                }
            }
        }
        if let Some(o) = &self.obs {
            o.borrow_mut().metrics.counter_add("txn.lock.granted", resources.len() as u64);
        }

        // Prepare, decide and settle: each appended record is billed one
        // `Store`, each forced one (the votes and the decision) a
        // `LogForce`.
        let before = self.log.appended_total();
        let mut parts =
            Shards { map: shards, locks: &mut self.locks, now, released: 0, failed: None };
        let run = journal::execute(&mut self.log, gtxn, &plan, &mut parts, faults, hook);
        let Shards { released, failed, .. } = parts;
        self.bill(Primitive::Store, self.log.appended_total() - before);
        self.bill(Primitive::LogForce, run.forced as u64);
        if let Some(o) = self.obs.as_ref().filter(|_| run.forced > 0) {
            o.borrow_mut().metrics.counter_add("txn.log.force", run.forced as u64);
        }
        let (forward_steps, undos) = (run.applied, run.settled.undone);
        let settled = run.settled;
        // A coordinator that died after `End` has settled its transaction.
        self.committed = self.committed.saturating_add(settled.forward as u64);
        self.aborted = self.aborted.saturating_add(settled.back as u64);
        if let Some(at) = run.crashed {
            return self.crash_out(span, at, forward_steps, undos);
        }
        let cause = match (run.failed, failed) {
            (None, Some((shard, reason))) => {
                // Committed but not yet persisted everywhere: the other
                // shards were told, the log stays open, recovery finishes
                // the fan-out.
                self.crashes = self.crashes.saturating_add(1);
                if let (Some(o), Some(span)) = (&self.obs, span) {
                    let mut o = o.borrow_mut();
                    o.end_with(span, vec![("outcome", "store_failed".to_owned())]);
                    o.metrics.counter_add("txn.switch.crashed", 1);
                }
                return Err(TxnError::Store { shard, reason });
            }
            (None, None) => {
                let (joined, steps) = (plan.len(), forward_steps);
                if let (Some(o), Some(span)) = (&self.obs, span) {
                    let mut o = o.borrow_mut();
                    o.charge(Primitive::SchedSteps(forward_steps as u32));
                    o.end_with(
                        span,
                        vec![
                            ("outcome", "committed".to_owned()),
                            ("shards", joined.to_string()),
                            ("steps", forward_steps.to_string()),
                        ],
                    );
                    o.metrics.counter_add("txn.switch.committed", 1);
                    o.metrics.counter_add("txn.prepare.shards", joined as u64);
                    o.metrics.counter_add("txn.lock.released", released as u64);
                }
                return Ok(CrossShardReport { gtxn, shards: joined, steps, completed_at: now });
            }
            (Some(cause), _) => cause,
        };
        let ended = settled.outcome != RecoveryOutcome::Incomplete;
        if let (Some(o), Some(span)) = (&self.obs, span) {
            let mut o = o.borrow_mut();
            // Forward steps ran AND were undone: bill both directions.
            o.charge(Primitive::SchedSteps((forward_steps + undos) as u32));
            let args = if ended {
                o.metrics.counter_add("txn.switch.rolled_back", 1);
                o.metrics.counter_add("txn.lock.released", released as u64);
                vec![
                    ("outcome", "rolled_back".to_owned()),
                    ("undos", undos.to_string()),
                    ("cause", cause.to_string()),
                ]
            } else {
                o.metrics.counter_add("txn.switch.rollbacks_incomplete", 1);
                vec![
                    ("outcome", "rollback_incomplete".to_owned()),
                    ("residue", settled.residue.len().to_string()),
                ]
            };
            o.end_with(span, args);
        }
        if ended {
            return Err(cause);
        }
        // Residue: the log stays open and recovery retries the undos.
        Err(TxnError::RollbackIncomplete { cause: cause.to_string(), residue: settled.residue })
    }

    /// A crash at `at`: no rollback, no lock release — the log is the
    /// ledger and recovery settles it.
    fn crash_out(
        &mut self,
        span: Option<obs::SpanId>,
        at: Boundary,
        forward: usize,
        undos: usize,
    ) -> Result<CrossShardReport, TxnError> {
        self.crashes = self.crashes.saturating_add(1);
        let site = at.to_string();
        if let (Some(o), Some(span)) = (&self.obs, span) {
            let mut o = o.borrow_mut();
            if forward + undos > 0 {
                o.charge(Primitive::SchedSteps((forward + undos) as u32));
            }
            o.end_with(span, vec![("outcome", "crashed".to_owned()), ("site", site.clone())]);
            o.metrics.counter_add("txn.switch.crashed", 1);
        }
        Err(TxnError::Crashed { site })
    }

    /// Replay the shared log after a crash ([`journal::replay`]). Every
    /// open transaction lands in exactly one of two global states: a
    /// decision record rolls it *forward* (missing fan-out is completed,
    /// store persistence replayed idempotently); no decision rolls it
    /// *back* (presumed abort — every applied-not-yet-undone step is
    /// compensated, newest first). In-doubt participants are resolved by
    /// that same log read, each counted once, on the pass that logs its
    /// fan-out record. Idempotent: a settled log scans clean and touches
    /// nothing. A participant that still owes work but is missing from
    /// `shards` is left as residue (`s1 missing`): its transaction stays
    /// open with its locks, and a later pass that holds the shard settles
    /// it.
    pub fn recover(
        &mut self,
        shards: &mut BTreeMap<u32, DataComponent>,
        hook: &mut dyn CrashHook,
    ) -> RecoveryReport {
        if self.log.is_empty() {
            return RecoveryReport::default();
        }
        let span = self.obs.as_ref().map(|o| o.borrow_mut().begin("txn", "recover"));
        let before = self.log.appended_total();
        let mut parts =
            Shards { map: shards, locks: &mut self.locks, now: 0, released: 0, failed: None };
        let r = journal::replay(&mut self.log, &mut parts, hook);
        self.bill(Primitive::Store, self.log.appended_total() - before);
        self.committed = self.committed.saturating_add(r.forward as u64);
        self.aborted = self.aborted.saturating_add(r.back as u64);
        self.recoveries = self.recoveries.saturating_add(1);
        self.in_doubt_resolved = self.in_doubt_resolved.saturating_add(r.in_doubt_resolved as u64);
        if let (Some(o), Some(span)) = (&self.obs, span) {
            let mut o = o.borrow_mut();
            o.charge_n(Primitive::Load, r.scanned as u64);
            o.charge_n(Primitive::SchedSteps(1), r.undone as u64);
            o.end_with(
                span,
                vec![
                    ("outcome", r.outcome.to_string()),
                    ("scanned", r.scanned.to_string()),
                    ("undone", r.undone.to_string()),
                    ("in_doubt_resolved", r.in_doubt_resolved.to_string()),
                ],
            );
            o.metrics.counter_add("txn.recovery.runs", 1);
            o.metrics.counter_add("txn.recovery.records_scanned", r.scanned as u64);
            o.metrics.counter_add("txn.recovery.steps_undone", r.undone as u64);
            o.metrics.counter_add("txn.recovery.in_doubt_resolved", r.in_doubt_resolved as u64);
            o.metrics.counter_add("txn.log.replay_len", r.scanned as u64);
        }
        r
    }
}

/// The shards a transaction runs on, as [`Participants`]: steps apply at
/// tick `now` and undo and persist on each shard's [`DataComponent`], an
/// ended transaction's locks are released (`released` counts them), and
/// the first failed persist is kept.
struct Shards<'a> {
    map: &'a mut BTreeMap<u32, DataComponent>,
    locks: &'a mut LockManager,
    now: u64,
    released: usize,
    failed: Option<(u32, String)>,
}

impl Shards<'_> {
    fn get(&mut self, shard: ShardId) -> Result<&mut DataComponent, String> {
        self.map.get_mut(&shard.0).ok_or_else(|| format!("{shard} missing"))
    }
}

impl Participants for Shards<'_> {
    type Error = TxnError;

    fn holds(&self, shard: ShardId) -> bool {
        self.map.contains_key(&shard.0)
    }

    fn apply(
        &mut self,
        shard: ShardId,
        step: &PlanStep<'_>,
        faults: &mut dyn StepFaults,
    ) -> Result<StepRecord, TxnError> {
        let id = shard.0;
        if let Some((step, reason)) = step.injected(faults) {
            return Err(TxnError::Injected { shard: id, step, reason });
        }
        let now = self.now;
        let applied = self.get(shard).and_then(|dc| dc.apply_step(step, now));
        applied.map_err(|reason| TxnError::StepFailed {
            shard: id,
            step: format!("{step:?}"),
            reason,
        })
    }

    fn undo(&mut self, shard: ShardId, step: &StepRecord) -> Result<(), String> {
        self.get(shard)?.undo_step(step)
    }

    fn persist(
        &mut self,
        shard: ShardId,
        steps: &mut dyn Iterator<Item = &StepRecord>,
    ) -> Result<(), String> {
        let persisted = self.get(shard)?.persist_steps(steps).map(drop);
        if let Err(reason) = &persisted {
            self.failed.get_or_insert_with(|| (shard.0, reason.clone()));
        }
        persisted
    }

    fn ended(&mut self, gtxn: u64) {
        self.released += self.locks.release_all(gtxn);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crash::{NoTxnCrash, PlannedTxnCrash, TxnCrashPoint};
    use adl::ast::{Binding, PortRef};
    use compkit::journal::RecoveryOutcome;
    use compkit::runtime::ComponentFactory;
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

    /// Counts the hook's calls: after each append, and before the
    /// decision.
    #[derive(Debug, Default)]
    struct Counting {
        after: u64,
        before: u64,
    }

    impl CrashHook for Counting {
        fn crash(&mut self, at: &Boundary) -> bool {
            match at {
                Boundary::BeforeDecision => self.before += 1,
                _ => self.after += 1,
            }
            false
        }
    }

    /// Every `TxnLog` append is a crash boundary: on a three-shard commit,
    /// a three-shard abort (bind fault on s0), and a single-node commit
    /// and rollback, the hook is consulted once after each record
    /// appended, and once before each decision.
    #[test]
    fn the_hook_is_consulted_once_after_every_append() {
        use adl::diff::diff;
        use adl::figures::{docked_session, fig4_document, wireless_session};
        use compkit::runtime::{BasicFactory, FlakyFactory, Runtime};
        use compkit::{AdaptivityManager, StateManager};

        for (faults, appended, decided) in [
            (&mut NoFaults as &mut dyn StepFaults, 20, 1),
            (&mut FailBindToRoute as &mut dyn StepFaults, 12, 0),
        ] {
            let (mut shards, plans) = relay_world();
            let (mut tc, mut hook) = (TransactionCore::new(), Counting::default());
            let _ = tc.execute_cross_shard(&mut shards, &plans, 40, faults, &mut hook);
            assert_eq!(tc.log().appended_total(), appended);
            assert_eq!((hook.after, hook.before), (appended, decided));
        }

        let doc = fig4_document();
        let (mut rt, mut sm, mut am) =
            (Runtime::new(), StateManager::new(), AdaptivityManager::new());
        am.attach_journal();
        let boot = diff(&rt.configuration(), &docked_session(&doc));
        let switch = diff(&docked_session(&doc), &wireless_session(&doc));
        let mut commit = BasicFactory;
        let mut refuse = FlakyFactory::failing(["wopt"]);
        for (plan, factory, decided) in [
            (&boot, &mut commit as &mut dyn ComponentFactory, 1),
            (&switch, &mut refuse as &mut dyn ComponentFactory, 0),
        ] {
            let mut hook = Counting::default();
            let before = am.journal().unwrap().appended_total();
            let _ =
                am.execute_crashable(&mut rt, plan, factory, &mut sm, 5, &mut NoFaults, &mut hook);
            let appended = am.journal().unwrap().appended_total() - before;
            assert_eq!((hook.after, hook.before), (appended, decided));
        }
        assert_eq!((am.committed(), am.rolled_back()), (1, 1));
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

    /// A bind failure on the last of three shards: the abort path reads
    /// every applied step back from the log and undoes it, newest shard
    /// first and newest step first, then tells each shard.
    #[test]
    fn abort_undoes_every_logged_step_newest_shard_and_step_first() {
        let (mut shards, mut plans) = world();
        let mut s2 = DataComponent::new(ShardId(2));
        s2.runtime_mut()
            .start("tap", LiveComponent { ty: "Tap".into(), state: vec![5], started_at: 0 })
            .unwrap();
        shards.insert(2, s2);
        plans.insert(
            2,
            ReconfigurationPlan {
                start: vec![("mirror".into(), "Mirror".into())],
                bind: vec![binding("mirror", "out", "tap", "in")],
                ..Default::default()
            },
        );
        let before = digests(&shards);
        #[derive(Debug)]
        struct FailBindToTap;
        impl StepFaults for FailBindToTap {
            fn fail_bind(&mut self, b: &Binding) -> Option<String> {
                (b.to.instance.as_deref() == Some("tap")).then(|| "injected".to_owned())
            }
        }
        // Stop right after the last abort fan-out record, before `End`
        // reclaims the transaction, to read the whole abort path back.
        let mut hook = PlannedTxnCrash::new(TxnCrashPoint::MidAbortFanout { shard: 0 });
        let mut tc = TransactionCore::new();
        let err = tc
            .execute_cross_shard(&mut shards, &plans, 40, &mut FailBindToTap, &mut hook)
            .unwrap_err();
        assert!(hook.fired(), "{err:?}");
        assert_eq!(digests(&shards), before, "every shard is back at its pre-transaction state");
        let records = tc.log().records();
        let applied = records.iter().filter(|r| matches!(r, TxnRecord::Applied { .. })).count();
        assert_eq!(applied, 5, "s0 and s1 applied two steps each, s2 one");
        let rollback: Vec<String> = records
            .iter()
            .skip_while(|r| !matches!(r, TxnRecord::Undone { .. }))
            .map(ToString::to_string)
            .collect();
        assert_eq!(
            rollback,
            [
                "undone gtxn=0 shard=s2 [0]",
                "shard-aborted gtxn=0 shard=s2",
                "undone gtxn=0 shard=s1 [1]",
                "undone gtxn=0 shard=s1 [0]",
                "shard-aborted gtxn=0 shard=s1",
                "undone gtxn=0 shard=s0 [1]",
                "undone gtxn=0 shard=s0 [0]",
                "shard-aborted gtxn=0 shard=s0",
            ]
        );
        let report = tc.recover(&mut shards, &mut NoTxnCrash);
        assert_eq!((report.outcome, report.undone), (RecoveryOutcome::RolledBack, 0));
        assert_eq!(digests(&shards), before);
        assert!(tc.log().is_empty());
        assert_eq!(tc.locks().held_total(), 0);
    }

    /// Three shards; s0 additionally starts a `relay` and binds it into
    /// `route`, so a fault on binds into `route` strikes shard 0 at its
    /// fourth step, before s1 and s2 have logged anything.
    fn relay_world() -> (BTreeMap<u32, DataComponent>, BTreeMap<u32, ReconfigurationPlan>) {
        let (mut shards, mut plans) = world();
        let mut s2 = DataComponent::new(ShardId(2));
        s2.runtime_mut()
            .start("tap", LiveComponent { ty: "Tap".into(), state: vec![5], started_at: 0 })
            .unwrap();
        shards.insert(2, s2);
        let s0 = plans.get_mut(&0).unwrap();
        s0.start.push(("relay".into(), "Relay".into()));
        s0.bind.push(binding("relay", "out", "route", "in"));
        plans.insert(
            2,
            ReconfigurationPlan {
                start: vec![("mirror".into(), "Mirror".into())],
                bind: vec![binding("mirror", "out", "tap", "in")],
                ..Default::default()
            },
        );
        (shards, plans)
    }

    #[derive(Debug)]
    struct FailBindToRoute;
    impl StepFaults for FailBindToRoute {
        fn fail_bind(&mut self, b: &Binding) -> Option<String> {
            (b.to.instance.as_deref() == Some("route")).then(|| "injected".to_owned())
        }
    }

    /// An in-flight abort is recovery's rollback: a bind fault striking
    /// shard 0 of three leaves the same records and shard states as
    /// crashing at that step and recovering. Each path is first frozen
    /// at its last undo to read its records back, then run to the end.
    #[test]
    fn an_in_flight_abort_equals_a_crash_then_recovery() {
        let (mut shards, plans) = relay_world();
        let before = digests(&shards);
        let at_fault = TxnCrashPoint::MidPrepare { shard: 0, after_steps: 3 };
        // Begin, s0's intent and its three applied steps precede the fault.
        let tail = |tc: &TransactionCore| -> Vec<&'static str> {
            tc.log().records()[5..].iter().map(TxnRecord::tag).collect()
        };

        let mut aborting = TransactionCore::new();
        let mut hook = PlannedTxnCrash::new(TxnCrashPoint::MidUndo { after_undos: 3 });
        aborting
            .execute_cross_shard(&mut shards, &plans, 40, &mut FailBindToRoute, &mut hook)
            .unwrap_err();
        assert!(hook.fired());
        let (mut crashed_shards, _) = relay_world();
        let mut crashed = TransactionCore::new();
        let mut hook = PlannedTxnCrash::new(at_fault);
        crashed
            .execute_cross_shard(&mut crashed_shards, &plans, 40, &mut NoFaults, &mut hook)
            .unwrap_err();
        let mut hook = PlannedTxnCrash::new(TxnCrashPoint::DuringRecovery { after_undos: 3 });
        assert_eq!(
            crashed.recover(&mut crashed_shards, &mut hook).outcome,
            RecoveryOutcome::Crashed
        );
        let want = ["shard-aborted", "shard-aborted", "undone", "undone", "undone"];
        assert_eq!(tail(&aborting), want);
        assert_eq!(tail(&crashed), want);
        assert_eq!(aborting.log().render(), crashed.log().render());
        assert_eq!(digests(&shards), digests(&crashed_shards));

        // Run to the end: neither the abort nor recovery crashes.
        let (mut shards, _) = relay_world();
        let mut aborting = TransactionCore::new();
        let err = aborting
            .execute_cross_shard(&mut shards, &plans, 40, &mut FailBindToRoute, &mut NoTxnCrash)
            .unwrap_err();
        assert!(matches!(err, TxnError::Injected { shard: 0, .. }), "{err:?}");
        let (mut crashed_shards, _) = relay_world();
        let mut crashed = TransactionCore::new();
        let mut hook = PlannedTxnCrash::new(at_fault);
        crashed
            .execute_cross_shard(&mut crashed_shards, &plans, 40, &mut NoFaults, &mut hook)
            .unwrap_err();
        let report = crashed.recover(&mut crashed_shards, &mut NoTxnCrash);
        assert_eq!((report.outcome, report.undone), (RecoveryOutcome::RolledBack, 3));
        // Both appended the prefix, then shard-aborted s2 and s1, three
        // undone, shard-aborted s0 and end.
        assert_eq!(aborting.log().appended_total(), 5 + 7);
        assert_eq!(crashed.log().appended_total(), 5 + 7);
        for (tc, s) in [(&aborting, &shards), (&crashed, &crashed_shards)] {
            assert_eq!(digests(s), before);
            assert_eq!((tc.aborted(), tc.log().len(), tc.locks().held_total()), (1, 0, 0));
        }
        assert_eq!(aborting.in_doubt_resolved(), 0, "in-doubt counts move only on recover()");
    }

    /// A commit in flight is recovery's roll-forward. Crashed after the
    /// decision or after any participant's fan-out record and recovered,
    /// the transaction appends the same records, reaches the same shard
    /// states and releases every lock; only `recover()` counts in-doubt
    /// resolutions. With `s2`'s sub-plan empty, `s2` is no participant
    /// on either path.
    #[test]
    fn an_in_flight_commit_equals_a_crash_then_recovery() {
        let (_, plans) = relay_world();
        let mut read_only = plans.clone();
        read_only.insert(2, ReconfigurationPlan::default());
        let decided = |tc: &TransactionCore| -> Vec<&'static str> {
            let records = tc.log().records().iter();
            records
                .skip_while(|r| !matches!(r, TxnRecord::Commit { .. }))
                .map(TxnRecord::tag)
                .collect()
        };
        for (plans, told, appended) in [(&plans, vec![0, 1, 2], 20), (&read_only, vec![0, 1], 15)] {
            // The in-flight commit, frozen after its last fan-out record.
            let freeze = TxnCrashPoint::MidCommitFanout { shard: *told.last().unwrap() };
            let (mut flown, _) = relay_world();
            let mut flying = TransactionCore::new();
            let mut hook = PlannedTxnCrash::new(freeze);
            flying
                .execute_cross_shard(&mut flown, plans, 40, &mut NoFaults, &mut hook)
                .unwrap_err();
            assert!(hook.fired());
            let mut want = vec!["commit"];
            want.extend(told.iter().map(|_| "shard-committed"));
            assert_eq!(decided(&flying), want);
            assert_eq!(flying.log().render().contains("s2"), told.contains(&2));
            // Run to the end.
            let (mut committed, _) = relay_world();
            let mut tc = TransactionCore::new();
            let report = tc
                .execute_cross_shard(&mut committed, plans, 40, &mut NoFaults, &mut NoTxnCrash)
                .unwrap();
            assert_eq!((report.shards, tc.log().appended_total()), (told.len(), appended));
            assert_eq!(tc.in_doubt_resolved(), 0, "in-doubt counts move only on recover()");

            let fanout = told.iter().map(|&shard| TxnCrashPoint::MidCommitFanout { shard });
            for point in std::iter::once(TxnCrashPoint::AfterDecision).chain(fanout) {
                // Crashed at `point`, then recovery frozen where the
                // in-flight commit was.
                let (mut shards, _) = relay_world();
                let mut crashed = TransactionCore::new();
                let mut hook = PlannedTxnCrash::new(point);
                crashed
                    .execute_cross_shard(&mut shards, plans, 40, &mut NoFaults, &mut hook)
                    .unwrap_err();
                assert!(hook.fired(), "{point}");
                if point != freeze {
                    let mut hook = PlannedTxnCrash::new(freeze);
                    let r = crashed.recover(&mut shards, &mut hook);
                    assert_eq!(r.outcome, RecoveryOutcome::Crashed, "{point}");
                }
                assert_eq!(crashed.log().render(), flying.log().render(), "{point}");
                assert_eq!(digests(&shards), digests(&flown), "{point}");
                // Crashed at `point` and recovered to the end.
                let (mut shards, _) = relay_world();
                let mut crashed = TransactionCore::new();
                let mut hook = PlannedTxnCrash::new(point);
                crashed
                    .execute_cross_shard(&mut shards, plans, 40, &mut NoFaults, &mut hook)
                    .unwrap_err();
                let r = crashed.recover(&mut shards, &mut NoTxnCrash);
                assert_eq!(r.outcome, RecoveryOutcome::RolledForward, "{point}");
                assert_eq!(crashed.log().appended_total(), appended, "{point}");
                assert_eq!(digests(&shards), digests(&committed), "{point}");
                assert_eq!((crashed.log().len(), crashed.locks().held_total()), (0, 0));
                let untold = match point {
                    TxnCrashPoint::MidCommitFanout { shard } => {
                        told.iter().filter(|&&s| s > shard).count()
                    }
                    _ => told.len(),
                };
                assert_eq!(crashed.in_doubt_resolved(), untold as u64, "{point}");
            }
        }
    }

    /// A persist that fails after the decision leaves the commit as
    /// recovery leaves it: the other shards are told, the transaction
    /// stays open with the residue, and one later recovery ends it.
    #[test]
    fn an_in_flight_store_failure_tells_the_other_shards_and_stays_open() {
        use compkit::journal::NoCrash;
        use store::StorageEngine;
        // s0's engine is down before the transaction starts.
        let down = || {
            let (mut shards, plans) = world();
            let s0 = shards.get_mut(&0).unwrap();
            s0.attach_store(StorageEngine::new(8));
            s0.store_mut().unwrap().crash();
            (shards, plans)
        };
        let (mut shards, plans) = down();
        let mut tc = TransactionCore::new();
        let err = tc
            .execute_cross_shard(&mut shards, &plans, 40, &mut NoFaults, &mut NoTxnCrash)
            .unwrap_err();
        let TxnError::Store { shard: 0, reason } = err else { panic!("{err:?}") };
        let live = tc.log().render();
        assert!(live.contains("shard-committed gtxn=0 shard=s1"), "{live}");
        assert!(!live.contains("shard-committed gtxn=0 shard=s0") && !live.contains("end"));
        assert_eq!(tc.committed(), 0);
        assert!(tc.locks().held_total() > 0, "the open transaction keeps its locks");

        let (mut twin_shards, _) = down();
        let mut twin = TransactionCore::new();
        let mut hook = PlannedTxnCrash::new(TxnCrashPoint::AfterDecision);
        twin.execute_cross_shard(&mut twin_shards, &plans, 40, &mut NoFaults, &mut hook)
            .unwrap_err();
        let r = twin.recover(&mut twin_shards, &mut NoTxnCrash);
        assert_eq!(r.outcome, RecoveryOutcome::Incomplete);
        assert_eq!(r.residue, [format!("s0 persist: {reason}")]);
        assert_eq!(twin.log().render(), live);

        // The engine comes back; one recovery ends the transaction.
        shards.get_mut(&0).unwrap().store_mut().unwrap().recover(&mut NoCrash).unwrap();
        let r = tc.recover(&mut shards, &mut NoTxnCrash);
        assert_eq!((r.outcome, r.in_doubt_resolved), (RecoveryOutcome::RolledForward, 1));
        assert_eq!((tc.committed(), tc.log().len(), tc.locks().held_total()), (1, 0, 0));
        assert!(tc.recover(&mut shards, &mut NoTxnCrash).noop());
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
    fn recovery_without_a_participant_leaves_its_txn_open() {
        let (mut shards, plans) = world();
        let before = digests(&shards);
        let mut tc = TransactionCore::new();
        let mut hook = PlannedTxnCrash::new(TxnCrashPoint::BeforeDecision);
        tc.execute_cross_shard(&mut shards, &plans, 40, &mut NoFaults, &mut hook).unwrap_err();
        let s1 = shards.remove(&1).unwrap();
        let r1 = tc.recover(&mut shards, &mut NoTxnCrash);
        assert_eq!(r1.outcome, RecoveryOutcome::Incomplete);
        assert_eq!(r1.residue, vec!["s1 missing".to_owned()]);
        assert!(!tc.log().render().contains("shard-aborted gtxn=0 shard=s1"));
        assert!(!tc.log().is_empty(), "the txn stays open");
        assert!(tc.locks().held_total() > 0, "and keeps its locks");
        // A pass that holds every participant settles the transaction.
        shards.insert(1, s1);
        let r2 = tc.recover(&mut shards, &mut NoTxnCrash);
        assert_eq!(r2.outcome, RecoveryOutcome::RolledBack);
        assert_eq!(digests(&shards), before, "s1 is restored too");
        assert!(tc.log().is_empty());
        assert_eq!(tc.locks().held_total(), 0);
        assert!(tc.recover(&mut shards, &mut NoTxnCrash).noop());
    }

    #[test]
    fn a_retried_recovery_counts_each_in_doubt_participant_once() {
        let (mut shards, plans) = world();
        let mut tc = TransactionCore::new();
        let mut hook = PlannedTxnCrash::new(TxnCrashPoint::BeforeDecision);
        tc.execute_cross_shard(&mut shards, &plans, 40, &mut NoFaults, &mut hook).unwrap_err();
        let s1 = shards.remove(&1).unwrap();
        assert_eq!(tc.recover(&mut shards, &mut NoTxnCrash).outcome, RecoveryOutcome::Incomplete);
        shards.insert(1, s1);
        assert_eq!(tc.recover(&mut shards, &mut NoTxnCrash).outcome, RecoveryOutcome::RolledBack);
        assert_eq!(tc.in_doubt_resolved(), 2, "two prepared shards, each resolved once");
    }

    #[test]
    fn an_incomplete_rollback_logs_no_abort_for_a_shard_with_residue() {
        let (mut shards, plans) = world();
        let before = digests(&shards);
        let mut tc = TransactionCore::new();
        #[derive(Debug)]
        struct FailBindAndRollback;
        impl StepFaults for FailBindAndRollback {
            fn fail_bind(&mut self, _b: &Binding) -> Option<String> {
                Some("injected".into())
            }
            fn fail_rollback(&mut self, _step: &str) -> Option<String> {
                Some("injected rollback".into())
            }
        }
        let err = tc
            .execute_cross_shard(&mut shards, &plans, 40, &mut FailBindAndRollback, &mut NoTxnCrash)
            .unwrap_err();
        assert!(matches!(err, TxnError::RollbackIncomplete { .. }));
        let live = tc.log().render();
        assert!(!live.contains("shard-aborted"), "no shard finished its compensation: {live}");
        let appended = tc.log().appended_total();
        let report = tc.recover(&mut shards, &mut NoTxnCrash);
        assert_eq!(report.outcome, RecoveryOutcome::RolledBack);
        assert!(report.undone > 0, "recovery undid the residue");
        assert_eq!(
            tc.log().appended_total() - appended,
            report.undone as u64 + 3,
            "one Undone per step, then ShardAborted for both shards and End"
        );
        assert_eq!(digests(&shards), before);
        assert!(tc.log().is_empty(), "ShardAborted and End settled the txn");
        assert_eq!(tc.locks().held_total(), 0);
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
