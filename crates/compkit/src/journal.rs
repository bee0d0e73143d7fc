//! The transaction log every SWITCH writes, and its crash model.
//!
//! The paper's Adaptivity Manager promises *transactional style
//! properties* — "the switch can be backed off if something goes wrong."
//! In-memory rollback honours that promise only while the node stays up.
//! Following the unbundled-recovery argument (Lomet et al.), the
//! transactional component owns *the* log: one append-only [`TxnLog`]
//! records every switch, whether [`crate::adaptivity::AdaptivityManager`]
//! runs it on one node or the `txn` crate's transaction core runs it as a
//! two-phase commit across shards. A replay of that log provably lands the
//! runtime in either the fully-committed or the fully-rolled-back
//! configuration — never a hybrid — and is idempotent under repeated
//! replay. Both paths apply their steps through one applier,
//! [`PlanStep::apply`], which hands back the [`StepRecord`] that undoes
//! the step.
//!
//! # Record discipline
//!
//! Every SWITCH runs through one executor, [`execute`], over
//! [`Participants`]: the Adaptivity Manager's runtime as shard `s0`, or
//! the `txn` crate's data components. After the caller's
//! [`TxnRecord::Begin`] it writes, per shard, [`TxnRecord::Intent`], one
//! [`TxnRecord::Applied`] *after* each runtime mutation (a crash between
//! the two loses one unlogged step, which recovery never touches) and
//! the [`TxnRecord::Prepared`] vote; then the [`TxnRecord::Commit`]
//! decision, and it settles as below (a failed step skips the decision).
//! Only voters write `Intent` and `Prepared` ([`Participants::votes`]): a
//! runtime persists nothing after the decision, so it commits in one
//! phase — `Begin`, `Applied*`, `Commit`, `End`.
//!
//! `End` closes a transaction and [`TxnLog::truncate_ended`] reclaims its
//! records. Between switches the log is therefore empty, and a non-empty
//! log *is* an unsettled transaction: the Adaptivity Manager refuses a
//! new switch until `recover()` has settled it.
//!
//! # One compensation path
//!
//! Every commit, abort and recovery settles a transaction through one
//! routine over this log: [`execute`] runs it on the live transaction,
//! [`replay`] on every open transaction after a crash. Step records are
//! read in place ([`OpenGlobalTxn::applied_at`]).
//!
//! * Undecided: roll **back**, newest shard and newest step first — each
//!   applied step not yet undone is undone and logged `Undone`, then each
//!   shard named in `Begin` and not yet aborted is logged `ShardAborted`;
//!   then `End`.
//! * Decided: roll **forward** — every shard that voted and has not been
//!   told persists its applied steps and is logged `ShardCommitted`; then
//!   `End`. A one-phase commit has no vote to answer, so rolling it
//!   forward only ends it.
//! * A step that will not undo, a persist that fails or a shard not at
//!   hand leaves residue (`s{shard} [{index}] {undo}: {reason}`,
//!   `s{shard} persist: {reason}`, `s{shard} missing`): that shard gets no
//!   fan-out record, later shards are still settled, and the transaction
//!   stays open for a later pass to retry the idempotent work.
//! * A read-only shard (an empty sub-plan) is no participant: `Begin`
//!   does not name it, so it is never told.
//!
//! # Crash model
//!
//! Crashes strike only at *record boundaries*, the one list [`Boundary`]
//! (the store's write-ahead log consults it too): record appends are
//! atomic, and the live runtime (the physical component graph) survives
//! the crash — what dies is the in-flight control flow. A [`CrashHook`]
//! decides whether the node dies there; it is consulted once after every
//! append ([`TxnLog::append_at`]) and once just before the decision.
//! [`PlannedCrash`] scripts one death at a named [`CrashPlan`] point: a
//! one-shard [`CrashPoint`] or a `txn` two-phase point. The log is
//! presumed-abort: recovery finding no `Commit` record rolls back.

use crate::adaptivity::{NoFaults, StepFaults, SwitchError};
use crate::runtime::{ComponentFactory, LiveComponent, Runtime, RuntimeError};
use crate::state::StateManager;
use adl::ast::Binding;
use adl::diff::ReconfigurationPlan;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::ops::Range;

/// One applied plan step, carrying everything needed to undo it. This is
/// the redo/undo payload of a [`TxnRecord::Applied`] record: the
/// forward mutation already happened when the record is written (redo is
/// therefore a no-op on replay), and [`StepRecord::undo`] reverses it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepRecord {
    /// A binding was removed.
    Unbound(Binding),
    /// A component was stopped; its full live state rides the record so
    /// rollback can resurrect it bit-for-bit.
    Stopped {
        /// Instance name.
        name: String,
        /// The component exactly as it was when stopped.
        comp: LiveComponent,
    },
    /// A component was started.
    Started {
        /// Instance name.
        name: String,
    },
    /// A binding was established.
    Bound(Binding),
}

impl StepRecord {
    /// The forward step this record describes (`unbind a -- b`, ...).
    #[must_use]
    pub(crate) fn describe(&self) -> String {
        match self {
            StepRecord::Unbound(b) => format!("unbind {} -- {}", b.from, b.to),
            StepRecord::Stopped { name, .. } => format!("stop {name}"),
            StepRecord::Started { name } => format!("start {name}"),
            StepRecord::Bound(b) => format!("bind {} -- {}", b.from, b.to),
        }
    }

    /// The rollback step that reverses this record (`rebind a -- b`,
    /// `restart x`, ...) — the exact wording fault injectors key on.
    #[must_use]
    pub fn undo_describe(&self) -> String {
        match self {
            StepRecord::Unbound(b) => format!("rebind {} -- {}", b.from, b.to),
            StepRecord::Stopped { name, .. } => format!("restart {name}"),
            StepRecord::Started { name } => format!("stop {name}"),
            StepRecord::Bound(b) => format!("unbind {} -- {}", b.from, b.to),
        }
    }

    /// Reverse this step against the live runtime. Stopped components
    /// are restarted from the state archived in the record (and the
    /// State Manager archive entry created on stop is removed so the
    /// rollback leaves no residue).
    ///
    /// # Errors
    /// The runtime's reason, if the reversal is inconsistent with the
    /// current component graph (unreachable against a healthy runtime).
    pub fn undo(&self, runtime: &mut Runtime, states: &mut StateManager) -> Result<(), String> {
        match self {
            StepRecord::Unbound(b) => runtime.bind(b.clone()).map_err(|e| e.to_string()),
            StepRecord::Stopped { name, comp } => {
                let _ = states.unarchive(name);
                runtime.start(name, comp.clone()).map_err(|e| e.to_string())
            }
            StepRecord::Started { name } => {
                runtime.stop(name).map(|_| ()).map_err(|e| e.to_string())
            }
            StepRecord::Bound(b) => runtime.unbind(b).map_err(|e| e.to_string()),
        }
    }
}

impl fmt::Display for StepRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.describe())
    }
}

/// One step of a plan, in execution order (unbind → stop → start →
/// bind), borrowed from the plan it was decomposed from. Both switch
/// paths run a plan as these steps through [`PlanStep::apply`]; only the
/// [`StepRecord`] it hands back owns a copy of what the step names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanStep<'p> {
    /// Remove a binding.
    Unbind(&'p Binding),
    /// Stop an instance (name, type), archiving its state.
    Stop(&'p str, &'p str),
    /// Start an instance (name, type).
    Start(&'p str, &'p str),
    /// Establish a binding.
    Bind(&'p Binding),
}

impl<'p> PlanStep<'p> {
    /// Decompose `plan` into its ordered steps.
    #[must_use]
    pub fn decompose(plan: &'p ReconfigurationPlan) -> Vec<PlanStep<'p>> {
        let mut steps = Vec::with_capacity(plan.len());
        steps.extend(plan.unbind.iter().map(PlanStep::Unbind));
        steps.extend(plan.stop.iter().map(|(n, t)| PlanStep::Stop(n, t)));
        steps.extend(plan.start.iter().map(|(n, t)| PlanStep::Start(n, t)));
        steps.extend(plan.bind.iter().map(PlanStep::Bind));
        steps
    }

    /// The instances this step touches — the shard-local lock footprint
    /// (composite-own ports have no instance and lock nothing).
    #[must_use]
    pub fn footprint(&self) -> Vec<String> {
        self.instances().map(str::to_owned).collect()
    }

    /// [`PlanStep::footprint`], borrowed from the plan.
    pub fn instances(&self) -> impl Iterator<Item = &'p str> {
        let (first, second) = match *self {
            PlanStep::Unbind(b) | PlanStep::Bind(b) => {
                (b.from.instance.as_deref(), b.to.instance.as_deref())
            }
            PlanStep::Stop(n, _) | PlanStep::Start(n, _) => (Some(n), None),
        };
        first.into_iter().chain(second)
    }

    /// Ask `faults` whether this step fails. `Some((step, reason))` names
    /// the failed step (`unbind a.p -- b.q`, `stop x`, ...) with the
    /// injector's reason. Starts are never asked: creation failures come
    /// from the [`ComponentFactory`].
    pub fn injected(&self, faults: &mut dyn StepFaults) -> Option<(String, String)> {
        match *self {
            PlanStep::Unbind(b) => {
                faults.fail_unbind(b).map(|r| (format!("unbind {} -- {}", b.from, b.to), r))
            }
            PlanStep::Stop(name, _) => faults.fail_stop(name).map(|r| (format!("stop {name}"), r)),
            PlanStep::Bind(b) => {
                faults.fail_bind(b).map(|r| (format!("bind {} -- {}", b.from, b.to), r))
            }
            PlanStep::Start(..) => None,
        }
    }

    /// Apply this step to `runtime` and return the record that undoes it.
    /// A stop archives the component's state in `states`; a start asks
    /// `factory` for the component, created at tick `now`.
    ///
    /// # Errors
    /// [`SwitchError::Create`] when the factory refuses a start, and
    /// [`SwitchError::Inconsistent`] when the step does not fit the
    /// runtime's component graph. The runtime is unchanged on error.
    pub fn apply(
        &self,
        runtime: &mut Runtime,
        states: &mut StateManager,
        factory: &mut dyn ComponentFactory,
        now: u64,
    ) -> Result<StepRecord, SwitchError> {
        let inconsistent = |e: RuntimeError| SwitchError::Inconsistent(e.to_string());
        match *self {
            PlanStep::Unbind(b) => {
                runtime.unbind(b).map_err(inconsistent)?;
                Ok(StepRecord::Unbound(b.clone()))
            }
            PlanStep::Stop(name, _) => {
                let comp = runtime.stop(name).map_err(inconsistent)?;
                states.archive(name, comp.state.clone());
                Ok(StepRecord::Stopped { name: name.to_owned(), comp })
            }
            PlanStep::Start(name, ty) => {
                let comp = factory
                    .create(name, ty, now)
                    .map_err(|e| SwitchError::Create { name: e.name, reason: e.reason })?;
                runtime.start(name, comp).map_err(inconsistent)?;
                Ok(StepRecord::Started { name: name.to_owned() })
            }
            PlanStep::Bind(b) => {
                runtime.bind(b.clone()).map_err(inconsistent)?;
                Ok(StepRecord::Bound(b.clone()))
            }
        }
    }
}

/// A shard (data component) identifier. Renders as `s{id}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct ShardId(pub u32);

impl fmt::Display for ShardId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// One transaction-log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxnRecord {
    /// A global transaction opened over `shards`.
    Begin {
        /// Global transaction id (monotonic per log).
        gtxn: u64,
        /// Participating shards, ascending.
        shards: Vec<ShardId>,
        /// Virtual time the transaction started.
        at: u64,
    },
    /// A shard declared its sub-plan.
    Intent {
        /// Global transaction id.
        gtxn: u64,
        /// The shard.
        shard: ShardId,
        /// Steps the sub-plan will apply.
        steps: usize,
    },
    /// A shard applied one step.
    Applied {
        /// Global transaction id.
        gtxn: u64,
        /// The shard.
        shard: ShardId,
        /// Step index within the shard's sub-plan.
        index: usize,
        /// What was done (redo/undo images live here).
        step: StepRecord,
    },
    /// A shard compensated one applied step.
    Undone {
        /// Global transaction id.
        gtxn: u64,
        /// The shard.
        shard: ShardId,
        /// The step index that was undone.
        index: usize,
    },
    /// A shard voted yes.
    Prepared {
        /// Global transaction id.
        gtxn: u64,
        /// The voting shard.
        shard: ShardId,
    },
    /// The coordinator's commit decision (presumed abort: the only
    /// decision ever logged).
    Commit {
        /// Global transaction id.
        gtxn: u64,
    },
    /// Commit fan-out reached a shard.
    ShardCommitted {
        /// Global transaction id.
        gtxn: u64,
        /// The shard.
        shard: ShardId,
    },
    /// Abort fan-out reached a shard.
    ShardAborted {
        /// Global transaction id.
        gtxn: u64,
        /// The shard.
        shard: ShardId,
    },
    /// The transaction is fully resolved; its records may be reclaimed.
    End {
        /// Global transaction id.
        gtxn: u64,
    },
}

impl TxnRecord {
    /// The global transaction this record belongs to.
    #[must_use]
    pub fn gtxn(&self) -> u64 {
        match self {
            TxnRecord::Begin { gtxn, .. }
            | TxnRecord::Intent { gtxn, .. }
            | TxnRecord::Applied { gtxn, .. }
            | TxnRecord::Undone { gtxn, .. }
            | TxnRecord::Prepared { gtxn, .. }
            | TxnRecord::Commit { gtxn }
            | TxnRecord::ShardCommitted { gtxn, .. }
            | TxnRecord::ShardAborted { gtxn, .. }
            | TxnRecord::End { gtxn } => *gtxn,
        }
    }

    /// Short tag for rendered matrices, traces and `sys.txns` rows.
    #[must_use]
    pub fn tag(&self) -> &'static str {
        match self {
            TxnRecord::Begin { .. } => "begin",
            TxnRecord::Intent { .. } => "intent",
            TxnRecord::Applied { .. } => "applied",
            TxnRecord::Undone { .. } => "undone",
            TxnRecord::Prepared { .. } => "prepared",
            TxnRecord::Commit { .. } => "commit",
            TxnRecord::ShardCommitted { .. } => "shard-committed",
            TxnRecord::ShardAborted { .. } => "shard-aborted",
            TxnRecord::End { .. } => "end",
        }
    }
}

impl fmt::Display for TxnRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TxnRecord::Begin { gtxn, shards, at } => {
                let list: Vec<String> = shards.iter().map(ToString::to_string).collect();
                write!(f, "begin gtxn={gtxn} shards=[{}] at={at}", list.join(","))
            }
            TxnRecord::Intent { gtxn, shard, steps } => {
                write!(f, "intent gtxn={gtxn} shard={shard} steps={steps}")
            }
            TxnRecord::Applied { gtxn, shard, index, step } => {
                write!(f, "applied gtxn={gtxn} shard={shard} [{index}] {}", step.describe())
            }
            TxnRecord::Undone { gtxn, shard, index } => {
                write!(f, "undone gtxn={gtxn} shard={shard} [{index}]")
            }
            TxnRecord::Prepared { gtxn, shard } => {
                write!(f, "prepared gtxn={gtxn} shard={shard}")
            }
            TxnRecord::Commit { gtxn } => write!(f, "commit gtxn={gtxn}"),
            TxnRecord::ShardCommitted { gtxn, shard } => {
                write!(f, "shard-committed gtxn={gtxn} shard={shard}")
            }
            TxnRecord::ShardAborted { gtxn, shard } => {
                write!(f, "shard-aborted gtxn={gtxn} shard={shard}")
            }
            TxnRecord::End { gtxn } => write!(f, "end gtxn={gtxn}"),
        }
    }
}

/// A shard's reconstructed progress inside an open transaction.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardProgress {
    /// Log positions spanning its `Applied` records (valid until the next
    /// truncation); [`OpenGlobalTxn::applied_at`] reads them in place.
    pub applied: Range<usize>,
    /// Step indices already compensated.
    pub undone: BTreeSet<usize>,
    /// The shard voted yes.
    pub prepared: bool,
    /// Commit fan-out reached the shard.
    pub committed: bool,
    /// Abort fan-out reached the shard.
    pub aborted: bool,
}

/// A begun-but-not-ended transaction reconstructed from the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpenGlobalTxn {
    /// Global transaction id.
    pub gtxn: u64,
    /// Whether the commit decision landed (presumed abort otherwise).
    pub decided: bool,
    /// The progress of each shard `Begin` names, ascending (a short list:
    /// it is searched, and built on every in-flight outcome).
    pub progress: Vec<(ShardId, ShardProgress)>,
}

impl OpenGlobalTxn {
    /// Fold the record at log position `pos` into `slot`, its transaction:
    /// `Begin` opens it, `End` closes it, any other record updates it while
    /// open (a shard outside `Begin`'s set is ignored).
    fn fold(slot: &mut Option<Self>, pos: usize, r: &TxnRecord) {
        let (t, shard) = match (r, slot.as_mut()) {
            (TxnRecord::Begin { gtxn, shards, .. }, _) => {
                let progress = shards.iter().map(|s| (*s, ShardProgress::default())).collect();
                *slot = Some(Self { gtxn: *gtxn, decided: false, progress });
                return;
            }
            (TxnRecord::End { .. }, _) => return *slot = None,
            (TxnRecord::Commit { .. }, Some(t)) => return t.decided = true,
            (
                TxnRecord::Applied { shard, .. }
                | TxnRecord::Undone { shard, .. }
                | TxnRecord::Prepared { shard, .. }
                | TxnRecord::ShardCommitted { shard, .. }
                | TxnRecord::ShardAborted { shard, .. },
                Some(t),
            ) => (t, shard),
            _ => return,
        };
        let Some((_, p)) = t.progress.iter_mut().find(|(s, _)| s == shard) else { return };
        match r {
            TxnRecord::Applied { .. } if p.applied.is_empty() => p.applied = pos..pos + 1,
            TxnRecord::Applied { .. } => p.applied.end = pos + 1,
            TxnRecord::Undone { index, .. } => _ = p.undone.insert(*index),
            TxnRecord::Prepared { .. } => p.prepared = true,
            TxnRecord::ShardCommitted { .. } => p.committed = true,
            _ => p.aborted = true,
        }
    }

    /// `shard`'s `Applied` record at log position `pos` (one of the
    /// positions [`ShardProgress::applied`] spans), if that is one: its
    /// step index and the record that undoes the step, read in place.
    #[must_use]
    pub fn applied_at<'l>(
        &self,
        log: &'l TxnLog,
        pos: usize,
        s: ShardId,
    ) -> Option<(usize, &'l StepRecord)> {
        let TxnRecord::Applied { gtxn, shard, index, step } = log.records.get(pos)? else {
            return None;
        };
        (*gtxn == self.gtxn && *shard == s).then_some((*index, step))
    }
}

/// The shared, append-only transaction log. Resolved transactions are
/// reclaimed by [`TxnLog::truncate_ended`]; live (open) records are what
/// the `sys.txns` and `sys.switches` system tables serve.
#[derive(Debug, Clone, Default)]
pub struct TxnLog {
    records: Vec<TxnRecord>,
    next_gtxn: u64,
    appended_total: u64,
    truncations: u64,
    /// Scratch for [`TxnLog::truncate_ended`]: the ended ids, kept so a
    /// checkpoint reuses its capacity instead of allocating.
    ended: Vec<u64>,
}

impl TxnLog {
    /// An empty log.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Open a global transaction over `shards` at virtual time `at`.
    pub fn begin(&mut self, shards: Vec<ShardId>, at: u64) -> u64 {
        let gtxn = self.next_gtxn;
        self.next_gtxn += 1;
        self.append(TxnRecord::Begin { gtxn, shards, at });
        gtxn
    }

    /// Append one record (atomic in the crash model).
    pub fn append(&mut self, r: TxnRecord) {
        self.records.push(r);
        self.appended_total = self.appended_total.saturating_add(1);
    }

    /// Append `r`, then consult `hook` at `at`, the boundary it crosses —
    /// the path every append after `Begin` takes.
    ///
    /// # Errors
    /// `at`, when the node dies there.
    pub fn append_at(
        &mut self,
        r: TxnRecord,
        at: Boundary,
        hook: &mut dyn CrashHook,
    ) -> Result<(), Boundary> {
        self.append(r);
        if hook.crash(&at) {
            return Err(at);
        }
        Ok(())
    }

    /// All live records, oldest first.
    #[must_use]
    pub fn records(&self) -> &[TxnRecord] {
        &self.records
    }

    /// Live record count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the log holds no live records.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Total records ever appended (survives truncation).
    #[must_use]
    pub fn appended_total(&self) -> u64 {
        self.appended_total
    }

    /// Times the log was truncated.
    #[must_use]
    pub fn truncations(&self) -> u64 {
        self.truncations
    }

    /// Reclaim the records of every ended transaction. Open transactions
    /// keep their history; transaction ids never restart.
    pub fn truncate_ended(&mut self) {
        let ended = &mut self.ended;
        ended.clear();
        ended.extend(self.records.iter().filter_map(|r| match r {
            TxnRecord::End { gtxn } => Some(*gtxn),
            _ => None,
        }));
        if ended.is_empty() {
            return;
        }
        ended.sort_unstable();
        self.records.retain(|r| ended.binary_search(&r.gtxn()).is_err());
        self.truncations = self.truncations.saturating_add(1);
    }

    /// Reconstruct every begun-but-not-ended transaction, ascending by
    /// id — the recovery work list.
    #[must_use]
    pub fn open_txns(&self) -> Vec<OpenGlobalTxn> {
        let mut open: BTreeMap<u64, Option<OpenGlobalTxn>> = BTreeMap::new();
        for (pos, r) in self.records.iter().enumerate() {
            OpenGlobalTxn::fold(open.entry(r.gtxn()).or_default(), pos, r);
        }
        open.into_values().flatten().collect()
    }

    /// Reconstruct transaction `gtxn`, if it is begun and not ended.
    #[must_use]
    pub fn open_txn(&self, gtxn: u64) -> Option<OpenGlobalTxn> {
        let mut txn = None;
        for (pos, r) in self.records.iter().enumerate().filter(|(_, r)| r.gtxn() == gtxn) {
            OpenGlobalTxn::fold(&mut txn, pos, r);
        }
        txn
    }

    /// The live log as stable text — one record per line.
    #[must_use]
    pub fn render(&self) -> String {
        use fmt::Write as _;
        let mut out = String::new();
        for r in &self.records {
            let _ = writeln!(out, "{r}");
        }
        out
    }

    /// FNV-1a digest of [`TxnLog::render`], streamed into the hash
    /// without building the render.
    #[must_use]
    pub fn digest(&self) -> u64 {
        use fmt::Write as _;
        let mut h = obs::Fnv1aSink::default();
        for r in &self.records {
            let _ = writeln!(h, "{r}");
        }
        h.finish()
    }
}

/// Where a scripted crash strikes, in transaction-lifecycle terms. The
/// conformance matrix in `scenario::crashrep` sweeps one cell per
/// variant per seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// Die after `after_steps` plan steps were applied and logged
    /// (`0` = right after the begin record, before any step).
    MidPlan {
        /// Applied-step count at which the node dies.
        after_steps: usize,
    },
    /// Die after every step applied but before the commit record.
    BeforeCommit,
    /// Die after the commit record but before the checkpoint truncation.
    AfterCommit,
    /// Die during an in-flight rollback, after `after_undos` undo
    /// records.
    MidRollback {
        /// Undone-step count at which the node dies.
        after_undos: usize,
    },
    /// Die during *recovery itself*, after `after_undos` recovery undo
    /// records — the re-entrant case a second recovery must absorb.
    DuringRecovery {
        /// Recovery-undo count at which the node dies.
        after_undos: usize,
    },
}

impl CrashPlan for CrashPoint {
    fn matches(&self, at: &Boundary) -> bool {
        match (self, at) {
            (CrashPoint::MidPlan { after_steps: 0 }, Boundary::Begun)
            | (CrashPoint::BeforeCommit, Boundary::BeforeDecision)
            | (CrashPoint::AfterCommit, Boundary::AfterDecision) => true,
            (CrashPoint::MidPlan { after_steps }, Boundary::Applied(_, index)) => {
                index + 1 == *after_steps
            }
            (CrashPoint::MidRollback { after_undos }, Boundary::Undone(_, undos))
            | (CrashPoint::DuringRecovery { after_undos }, Boundary::RecoveryUndone(_, undos)) => {
                undos == after_undos
            }
            _ => false,
        }
    }
}

impl fmt::Display for CrashPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CrashPoint::MidPlan { after_steps } => write!(f, "mid-plan-{after_steps}"),
            CrashPoint::BeforeCommit => write!(f, "before-commit"),
            CrashPoint::AfterCommit => write!(f, "after-commit"),
            CrashPoint::MidRollback { after_undos } => write!(f, "mid-rollback-{after_undos}"),
            CrashPoint::DuringRecovery { after_undos } => {
                write!(f, "during-recovery-{after_undos}")
            }
        }
    }
}

/// A record boundary the executing node may die at: every record append
/// crosses one, and the decision has one just before it too. The one
/// list both transaction logs and the store's write-ahead log consult.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Boundary {
    /// `Begin`: the transaction is open; no shard has done any work.
    Begun,
    /// `Intent`: a shard declared its sub-plan.
    Intent(ShardId),
    /// `Applied`: a shard applied (and logged) its step `index`.
    Applied(ShardId, usize),
    /// `Prepared`: a shard's vote was logged (and forced).
    Prepared(ShardId),
    /// `Commit` is *about to be* appended: every step applied, every vote in.
    BeforeDecision,
    /// `Commit`: the transaction is decided, and no shard told yet.
    AfterDecision,
    /// `Undone` on a shard in flight: the n-th undo (1-based, all shards).
    Undone(ShardId, usize),
    /// `Undone` on a shard during recovery: the pass's n-th undo.
    RecoveryUndone(ShardId, usize),
    /// `ShardCommitted`: commit fan-out reached a shard.
    Committed(ShardId),
    /// `ShardAborted`: abort fan-out reached a shard.
    Aborted(ShardId),
    /// `End`: the transaction is settled; its records are reclaimable.
    Ended,
}

impl fmt::Display for Boundary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Boundary::Begun => write!(f, "begun"),
            Boundary::Intent(s) => write!(f, "intent {s}"),
            Boundary::Applied(s, index) => write!(f, "applied {s}[{index}]"),
            Boundary::Prepared(s) => write!(f, "prepared {s}"),
            Boundary::BeforeDecision => write!(f, "before-decision"),
            Boundary::AfterDecision => write!(f, "after-decision"),
            Boundary::Undone(s, undos) => write!(f, "undone {s} undos={undos}"),
            Boundary::RecoveryUndone(s, undos) => write!(f, "recovery-undone {s} undos={undos}"),
            Boundary::Committed(s) => write!(f, "committed {s}"),
            Boundary::Aborted(s) => write!(f, "aborted {s}"),
            Boundary::Ended => write!(f, "ended"),
        }
    }
}

/// Decides, at each [`Boundary`], whether the node dies there. The
/// default answer everywhere is "no"; fault harnesses override it.
pub trait CrashHook: fmt::Debug {
    /// Return `true` to kill the node at `at`.
    fn crash(&mut self, _at: &Boundary) -> bool {
        false
    }
}

/// The default hook: the node never crashes.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoCrash;

impl CrashHook for NoCrash {}

/// A named crash point: the [`Boundary`] a scripted crash strikes at.
pub trait CrashPlan: Copy + fmt::Debug {
    /// Does a crash planned at this point fire at `at`?
    fn matches(&self, at: &Boundary) -> bool;
}

/// Kills the node exactly once, at the first boundary its point matches,
/// and remembers whether it did — the coverage witness a scenario's
/// teardown asserts on (an armed crash that never fired tested nothing).
#[derive(Debug, Clone)]
pub struct PlannedCrash<P> {
    point: P,
    fired: bool,
}

impl<P: CrashPlan> PlannedCrash<P> {
    /// A crash scripted at `point`.
    #[must_use]
    pub fn new(point: P) -> Self {
        Self { point, fired: false }
    }

    /// The armed point.
    #[must_use]
    pub fn point(&self) -> P {
        self.point
    }

    /// Whether the crash has fired.
    #[must_use]
    pub fn fired(&self) -> bool {
        self.fired
    }
}

impl<P: CrashPlan> CrashHook for PlannedCrash<P> {
    fn crash(&mut self, at: &Boundary) -> bool {
        if !self.fired && self.point.matches(at) {
            self.fired = true;
            return true;
        }
        false
    }
}

/// What a recovery replay did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum RecoveryOutcome {
    /// Nothing was open: nothing to recover, nothing was touched.
    #[default]
    Clean,
    /// A commit record was found and the transaction rolled forward
    /// (forward dominates when a pass settles both kinds).
    RolledForward,
    /// No commit record: every applied-not-yet-undone step was reversed
    /// and the transaction aborted.
    RolledBack,
    /// The compensation was killed mid-way (say, at a scripted
    /// [`CrashPoint::DuringRecovery`]); the log stays open and a
    /// further recovery finishes the job.
    Crashed,
    /// An undo, a persist or a participant was refused (unreachable in a
    /// healthy world); the log stays open with the residue reported.
    Incomplete,
}

impl fmt::Display for RecoveryOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RecoveryOutcome::Clean => "clean",
            RecoveryOutcome::RolledForward => "rolled-forward",
            RecoveryOutcome::RolledBack => "rolled-back",
            RecoveryOutcome::Crashed => "crashed",
            RecoveryOutcome::Incomplete => "incomplete",
        })
    }
}

/// The receipt a recovery replay returns — and, for an in-flight outcome,
/// what the compensation did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// What the replay did.
    pub outcome: RecoveryOutcome,
    /// Log records scanned.
    pub scanned: usize,
    /// Steps undone.
    pub undone: usize,
    /// Prepared participants resolved by the decision record (or its
    /// absence), each counted once: on the pass that logs its fan-out.
    pub in_doubt_resolved: usize,
    /// Transactions rolled forward.
    pub forward: usize,
    /// Transactions rolled back.
    pub back: usize,
    /// What would not undo, persist or be found (empty when healthy).
    pub residue: Vec<String>,
}

impl RecoveryReport {
    /// Whether the replay found nothing to do (the idempotence witness:
    /// a second recovery must report this).
    #[must_use]
    pub fn noop(&self) -> bool {
        self.outcome == RecoveryOutcome::Clean && self.undone == 0 && self.in_doubt_resolved == 0
    }
}

/// The shards a transaction runs on, as the executor and the compensation
/// routine drive them: the Adaptivity Manager's runtime (shard `s0`), or
/// the `txn` crate's data components.
pub trait Participants {
    /// Why a step failed to apply.
    type Error;
    /// Whether each shard declares its sub-plan (`Intent`) and votes
    /// (`Prepared`) before the decision. A participant that persists
    /// nothing after the decision has nothing to vote on, and commits in
    /// one phase.
    fn votes(&self) -> bool {
        true
    }
    /// Whether `shard` is at hand: a missing one leaves residue.
    fn holds(&self, _shard: ShardId) -> bool {
        true
    }
    /// Apply `step` to `shard`, unless `faults` fail it first, and hand
    /// back the record that undoes it; on error the runtime is unchanged.
    fn apply(
        &mut self,
        shard: ShardId,
        step: &PlanStep<'_>,
        faults: &mut dyn StepFaults,
    ) -> Result<StepRecord, Self::Error>;
    /// Reverse one applied step on `shard`; an error becomes residue.
    fn undo(&mut self, shard: ShardId, step: &StepRecord) -> Result<(), String>;
    /// Make `shard`'s applied steps (borrowed from the log, oldest first)
    /// durable as a decided transaction rolls forward (idempotent); a
    /// runtime without a store has nothing to do.
    fn persist(
        &mut self,
        _shard: ShardId,
        _steps: &mut dyn Iterator<Item = &StepRecord>,
    ) -> Result<(), String> {
        Ok(())
    }
    /// Transaction `gtxn` ended: release what it held.
    fn ended(&mut self, _gtxn: u64) {}
}

/// How a SWITCH that [`execute`] ran ended.
#[derive(Debug)]
pub struct Executed<E> {
    /// Plan steps applied and logged.
    pub applied: usize,
    /// `Prepared` and `Commit` records appended: what a two-phase log forces.
    pub forced: usize,
    /// The step failure that rolled the transaction back (`None`: decided).
    pub failed: Option<E>,
    /// Where the node died, forward or while settling; the log stays open.
    pub crashed: Option<Boundary>,
    /// What settling did (the default if the node died before it).
    pub settled: RecoveryReport,
}

/// Run the live transaction `gtxn`, which the caller began over the
/// shards of `plan`, to its outcome: each shard's sub-plan forward, the
/// decision, then recovery's routine on the live transaction — forward
/// once decided, back after a failed step (`faults` fail steps and
/// undos). The one place a SWITCH's forward records are written (see
/// the module docs); `hook` is consulted after every append.
pub fn execute<P: Participants + ?Sized>(
    log: &mut TxnLog,
    gtxn: u64,
    plan: &[(ShardId, Vec<PlanStep<'_>>)],
    parts: &mut P,
    faults: &mut dyn StepFaults,
    hook: &mut dyn CrashHook,
) -> Executed<P::Error> {
    let mut run = Executed {
        applied: 0,
        forced: 0,
        failed: None,
        crashed: None,
        settled: RecoveryReport::default(),
    };
    match forward(log, gtxn, plan, parts, faults, hook, &mut run) {
        Err(at) => run.crashed = Some(at),
        Ok(()) => {
            let txn = log.open_txn(gtxn);
            (run.settled, run.crashed) = settle(log, txn, parts, faults, hook, Boundary::Undone);
        }
    }
    run
}

/// [`execute`]'s forward half, up to the decision: `Ok` once `Commit` is
/// logged or a step failed (`run.failed`), `Err` where the node died.
fn forward<P: Participants + ?Sized>(
    log: &mut TxnLog,
    gtxn: u64,
    plan: &[(ShardId, Vec<PlanStep<'_>>)],
    parts: &mut P,
    faults: &mut dyn StepFaults,
    hook: &mut dyn CrashHook,
    run: &mut Executed<P::Error>,
) -> Result<(), Boundary> {
    let votes = parts.votes();
    for &(shard, ref steps) in plan {
        if votes {
            let intent = TxnRecord::Intent { gtxn, shard, steps: steps.len() };
            log.append_at(intent, Boundary::Intent(shard), hook)?;
        }
        for (index, step) in steps.iter().enumerate() {
            let step = match parts.apply(shard, step, faults) {
                Ok(record) => record,
                Err(e) => {
                    run.failed = Some(e);
                    return Ok(());
                }
            };
            run.applied += 1;
            let applied = TxnRecord::Applied { gtxn, shard, index, step };
            log.append_at(applied, Boundary::Applied(shard, index), hook)?;
        }
        if votes {
            run.forced += 1;
            log.append_at(TxnRecord::Prepared { gtxn, shard }, Boundary::Prepared(shard), hook)?;
        }
    }
    if hook.crash(&Boundary::BeforeDecision) {
        return Err(Boundary::BeforeDecision);
    }
    run.forced += 1;
    log.append_at(TxnRecord::Commit { gtxn }, Boundary::AfterDecision, hook)
}

/// Recovery: settle every open transaction in `log`, oldest first, with
/// `hook` consulted after every record it appends.
pub fn replay<P: Participants + ?Sized>(
    log: &mut TxnLog,
    parts: &mut P,
    hook: &mut dyn CrashHook,
) -> RecoveryReport {
    let open = log.open_txns();
    settle(log, open, parts, &mut NoFaults, hook, Boundary::RecoveryUndone).0
}

/// Run [`compensate`] over `txns`, stopping at the first crash (and
/// naming its boundary); then checkpoint. `undone` names an undo's
/// boundary: in flight or in recovery.
fn settle<P: Participants + ?Sized>(
    log: &mut TxnLog,
    txns: impl IntoIterator<Item = OpenGlobalTxn>,
    parts: &mut P,
    faults: &mut dyn StepFaults,
    hook: &mut dyn CrashHook,
    undone: fn(ShardId, usize) -> Boundary,
) -> (RecoveryReport, Option<Boundary>) {
    let mut report = RecoveryReport { scanned: log.len(), ..RecoveryReport::default() };
    for txn in txns {
        if let Err(at) = compensate(log, &txn, parts, faults, hook, undone, &mut report) {
            report.outcome = RecoveryOutcome::Crashed;
            return (report, Some(at));
        }
    }
    log.truncate_ended();
    report.outcome = match (report.residue.is_empty(), report.forward, report.back) {
        (false, ..) => RecoveryOutcome::Incomplete,
        (true, 0, 0) => RecoveryOutcome::Clean,
        (true, 0, _) => RecoveryOutcome::RolledBack,
        _ => RecoveryOutcome::RolledForward,
    };
    (report, None)
}

/// The one compensation routine (see the module docs): settle `txn` —
/// forward in shard order if it is decided, back newest shard first if
/// not — into `report`. `Err` names the boundary the node died at.
fn compensate<P: Participants + ?Sized>(
    log: &mut TxnLog,
    txn: &OpenGlobalTxn,
    parts: &mut P,
    faults: &mut dyn StepFaults,
    hook: &mut dyn CrashHook,
    undone: fn(ShardId, usize) -> Boundary,
    report: &mut RecoveryReport,
) -> Result<(), Boundary> {
    let (gtxn, decided) = (txn.gtxn, txn.decided);
    // Residue is this transaction's from `txn_mark` on: it keeps this
    // transaction open without blocking another's `End`.
    let txn_mark = report.residue.len();
    let mut shards = txn.progress.iter();
    loop {
        let next = if decided { shards.next() } else { shards.next_back() };
        let Some(&(shard, ref p)) = next else { break };
        // Told already, or (one-phase) no vote to answer.
        if p.aborted || p.committed || (decided && !p.prepared) {
            continue;
        }
        if !parts.holds(shard) {
            report.residue.push(format!("{shard} missing"));
            continue;
        }
        let shard_mark = report.residue.len();
        if decided {
            let applied = p.applied.clone().filter_map(|pos| txn.applied_at(log, pos, shard));
            let mut steps = applied.map(|(_, step)| step);
            if let Err(e) = parts.persist(shard, &mut steps) {
                report.residue.push(format!("{shard} persist: {e}"));
            }
        } else {
            // Newest step first, each read at its log position: the
            // `Undone` records this loop appends lie past the span.
            for pos in p.applied.clone().rev() {
                let Some((index, step)) = txn.applied_at(log, pos, shard) else { continue };
                if p.undone.contains(&index) {
                    continue;
                }
                let desc = step.undo_describe();
                let reversed = match faults.fail_rollback(&desc) {
                    Some(reason) => Err(reason),
                    None => parts.undo(shard, step),
                };
                if let Err(reason) = reversed {
                    report.residue.push(format!("{shard} [{index}] {desc}: {reason}"));
                    continue;
                }
                report.undone += 1;
                let at = undone(shard, report.undone);
                log.append_at(TxnRecord::Undone { gtxn, shard, index }, at, hook)?;
            }
        }
        if report.residue.len() > shard_mark {
            continue;
        }
        let (record, at) = if decided {
            (TxnRecord::ShardCommitted { gtxn, shard }, Boundary::Committed(shard))
        } else {
            (TxnRecord::ShardAborted { gtxn, shard }, Boundary::Aborted(shard))
        };
        report.in_doubt_resolved += usize::from(p.prepared);
        log.append_at(record, at, hook)?;
    }
    if report.residue.len() == txn_mark {
        // Counted and released before the hook: a node that dies after
        // `End` leaves nothing for recovery to settle.
        if decided {
            report.forward += 1;
        } else {
            report.back += 1;
        }
        parts.ended(gtxn);
        log.append_at(TxnRecord::End { gtxn }, Boundary::Ended, hook)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bind(from: &str, to: &str) -> Binding {
        Binding { from: adl::ast::PortRef::on(from, "p"), to: adl::ast::PortRef::on(to, "q") }
    }

    #[test]
    fn planned_crash_fires_once_at_its_point_only() {
        let s0 = ShardId(0);
        let mut c = PlannedCrash::new(CrashPoint::MidPlan { after_steps: 2 });
        assert!(!c.crash(&Boundary::Begun));
        assert!(!c.crash(&Boundary::Applied(s0, 0)));
        assert!(c.crash(&Boundary::Applied(s0, 1)), "fires after step 2");
        assert!(c.fired());
        assert!(!c.crash(&Boundary::Applied(s0, 1)), "fires at most once");

        let mut at_begin = PlannedCrash::new(CrashPoint::MidPlan { after_steps: 0 });
        assert!(at_begin.crash(&Boundary::Begun), "mid-plan-0 dies right after begin");
        let mut rec = PlannedCrash::new(CrashPoint::DuringRecovery { after_undos: 1 });
        assert!(!rec.crash(&Boundary::Undone(s0, 1)), "recovery point ignores rollback");
        assert!(rec.crash(&Boundary::RecoveryUndone(s0, 1)));
    }

    #[test]
    fn crash_points_render_their_matrix_names() {
        let names: Vec<String> = [
            CrashPoint::MidPlan { after_steps: 1 },
            CrashPoint::BeforeCommit,
            CrashPoint::AfterCommit,
            CrashPoint::MidRollback { after_undos: 1 },
            CrashPoint::DuringRecovery { after_undos: 2 },
        ]
        .iter()
        .map(ToString::to_string)
        .collect();
        assert_eq!(
            names,
            ["mid-plan-1", "before-commit", "after-commit", "mid-rollback-1", "during-recovery-2"]
        );
    }

    #[test]
    fn appended_total_saturates_at_the_ceiling() {
        let mut j = TxnLog { appended_total: u64::MAX, ..TxnLog::new() };
        j.begin(vec![ShardId(0)], 0);
        assert_eq!(j.appended_total(), u64::MAX, "cumulative counters saturate, never wrap");
    }

    /// Records what the executor and the compensation routine ask of each
    /// shard.
    #[derive(Debug, Default)]
    struct Recording {
        one_phase: bool,
        undone: Vec<(ShardId, String)>,
        persisted: Vec<(ShardId, usize)>,
        ended: Vec<u64>,
    }

    impl Participants for Recording {
        type Error = String;
        fn votes(&self) -> bool {
            !self.one_phase
        }
        /// Starts apply; any other step fails.
        fn apply(
            &mut self,
            _shard: ShardId,
            step: &PlanStep<'_>,
            _faults: &mut dyn StepFaults,
        ) -> Result<StepRecord, String> {
            match *step {
                PlanStep::Start(name, _) => Ok(StepRecord::Started { name: name.to_owned() }),
                _ => Err(format!("{step:?} refused")),
            }
        }
        fn undo(&mut self, shard: ShardId, step: &StepRecord) -> Result<(), String> {
            self.undone.push((shard, step.undo_describe()));
            Ok(())
        }
        fn persist(
            &mut self,
            shard: ShardId,
            steps: &mut dyn Iterator<Item = &StepRecord>,
        ) -> Result<(), String> {
            self.persisted.push((shard, steps.count()));
            Ok(())
        }
        fn ended(&mut self, gtxn: u64) {
            self.ended.push(gtxn);
        }
    }

    /// A hook that records every boundary it is consulted at.
    #[derive(Debug, Default)]
    struct Told(Vec<Boundary>);

    impl CrashHook for Told {
        fn crash(&mut self, at: &Boundary) -> bool {
            self.0.push(*at);
            false
        }
    }

    /// Settle the live transaction `gtxn` as [`execute`] does after the
    /// decision or a failed step.
    fn resolve(
        log: &mut TxnLog,
        gtxn: u64,
        parts: &mut Recording,
        told: &mut Told,
    ) -> RecoveryReport {
        let txn = log.open_txn(gtxn);
        settle(log, txn, parts, &mut NoFaults, told, Boundary::Undone).0
    }

    /// Log that `shard` started instance `c{shard}{index}` as step `index`.
    fn started(log: &mut TxnLog, gtxn: u64, shard: u32, index: usize) {
        let step = StepRecord::Started { name: format!("c{shard}{index}") };
        log.append(TxnRecord::Applied { gtxn, shard: ShardId(shard), index, step });
    }

    /// Two shards of two starts each, one-phase or voting: every record is
    /// written once, each append tells the hook its boundary, and the
    /// commit rolls forward through the routine recovery runs.
    #[test]
    fn execute_tells_every_append_its_boundary() {
        let (s0, s1) = (ShardId(0), ShardId(1));
        let starts = vec![PlanStep::Start("a", "T"), PlanStep::Start("b", "T")];
        let plan = [(s0, starts.clone()), (s1, starts)];
        for one_phase in [false, true] {
            let (mut log, mut told) = (TxnLog::new(), Told::default());
            let mut parts = Recording { one_phase, ..Recording::default() };
            let g = log.begin(vec![s0, s1], 0);
            let run = execute(&mut log, g, &plan, &mut parts, &mut NoFaults, &mut told);
            assert!(run.failed.is_none() && run.crashed.is_none());
            assert_eq!(run.settled.outcome, RecoveryOutcome::RolledForward);
            let boundaries: Vec<String> = told.0.iter().map(ToString::to_string).collect();
            let want = if one_phase {
                "applied s0[0] applied s0[1] applied s1[0] applied s1[1] before-decision \
                 after-decision ended"
            } else {
                "intent s0 applied s0[0] applied s0[1] prepared s0 intent s1 applied s1[0] \
                 applied s1[1] prepared s1 before-decision after-decision committed s0 \
                 committed s1 ended"
            };
            assert_eq!(boundaries.join(" "), want.split_whitespace().collect::<Vec<_>>().join(" "));
            // One boundary per append after `Begin`, and one before the
            // decision.
            assert_eq!(told.0.len() as u64, log.appended_total());
            assert_eq!((run.applied, run.forced), (4, if one_phase { 1 } else { 3 }));
            assert_eq!(parts.persisted.len(), if one_phase { 0 } else { 2 });
        }
    }

    /// A step that fails skips the decision and rolls the applied steps
    /// back; a hook that fires stops the executor at its boundary.
    #[test]
    fn execute_rolls_back_a_failed_step_and_stops_at_a_crash() {
        let s0 = ShardId(0);
        let plan = [(s0, vec![PlanStep::Start("a", "T"), PlanStep::Stop("b", "T")])];
        let (mut log, mut told) = (TxnLog::new(), Told::default());
        let mut parts = Recording::default();
        let g = log.begin(vec![s0], 0);
        let run = execute(&mut log, g, &plan, &mut parts, &mut NoFaults, &mut told);
        assert!(run.failed.is_some_and(|e| e.starts_with("Stop")));
        assert_eq!((run.applied, run.settled.undone, run.settled.back), (1, 1, 1));
        assert_eq!(parts.undone, [(s0, "stop a".to_owned())]);
        assert!(log.is_empty(), "rolled back, ended and reclaimed");

        let mut log = TxnLog::new();
        let g = log.begin(vec![s0], 0);
        let mut hook = PlannedCrash::new(CrashPoint::MidPlan { after_steps: 1 });
        let run = execute(&mut log, g, &plan, &mut Recording::default(), &mut NoFaults, &mut hook);
        assert_eq!((run.crashed, run.applied), (Some(Boundary::Applied(s0, 0)), 1));
        assert_eq!(log.len(), 3, "begin, intent and the applied step stay open");
    }

    #[test]
    fn roll_forward_neither_persists_nor_retells_a_committed_shard() {
        let (s0, s1) = (ShardId(0), ShardId(1));
        let mut log = TxnLog::new();
        let g = log.begin(vec![s0, s1], 0);
        started(&mut log, g, 0, 0);
        log.append(TxnRecord::Prepared { gtxn: g, shard: s0 });
        started(&mut log, g, 1, 0);
        started(&mut log, g, 1, 1);
        log.append(TxnRecord::Prepared { gtxn: g, shard: s1 });
        log.append(TxnRecord::Commit { gtxn: g });
        log.append(TxnRecord::ShardCommitted { gtxn: g, shard: s0 });
        let (mut parts, mut told) = (Recording::default(), Told::default());
        let report = resolve(&mut log, g, &mut parts, &mut told);
        assert_eq!(parts.persisted, [(s1, 2)], "s1's two steps, read from the log");
        assert_eq!(told.0, [Boundary::Committed(s1), Boundary::Ended]);
        assert_eq!(report.outcome, RecoveryOutcome::RolledForward);
        assert_eq!((report.forward, report.in_doubt_resolved), (1, 1));
        assert_eq!(parts.ended, [g]);
        assert!(log.is_empty(), "ended and reclaimed");
    }

    #[test]
    fn a_decided_one_phase_transaction_only_ends() {
        let mut log = TxnLog::new();
        let g = log.begin(vec![ShardId(0)], 0);
        started(&mut log, g, 0, 0);
        log.append(TxnRecord::Commit { gtxn: g });
        let before = log.appended_total();
        let (mut parts, mut told) = (Recording::default(), Told::default());
        let report = resolve(&mut log, g, &mut parts, &mut told);
        assert!(parts.persisted.is_empty(), "no vote, nothing to persist");
        assert_eq!(told.0, [Boundary::Ended], "nothing to tell");
        assert_eq!(log.appended_total() - before, 1, "only `End`");
        assert_eq!(report.outcome, RecoveryOutcome::RolledForward);
        assert_eq!((report.forward, report.in_doubt_resolved), (1, 0));
        assert_eq!(parts.ended, [g]);
    }

    #[test]
    fn roll_back_sends_no_second_abort_to_an_aborted_shard() {
        let (s0, s1) = (ShardId(0), ShardId(1));
        let mut log = TxnLog::new();
        let g = log.begin(vec![s0, s1], 0);
        started(&mut log, g, 0, 0);
        started(&mut log, g, 1, 0);
        log.append(TxnRecord::Undone { gtxn: g, shard: s1, index: 0 });
        log.append(TxnRecord::ShardAborted { gtxn: g, shard: s1 });
        let (mut parts, mut told) = (Recording::default(), Told::default());
        let report = resolve(&mut log, g, &mut parts, &mut told);
        assert_eq!(parts.undone, [(s0, "stop c00".to_owned())]);
        assert_eq!(told.0, [Boundary::Undone(s0, 1), Boundary::Aborted(s0), Boundary::Ended]);
        assert_eq!(
            (report.outcome, report.back, report.undone),
            (RecoveryOutcome::RolledBack, 1, 1)
        );
        assert_eq!(parts.ended, [g]);
    }

    #[test]
    fn roll_back_skips_undone_steps() {
        let s0 = ShardId(0);
        let mut log = TxnLog::new();
        let g = log.begin(vec![s0], 0);
        for index in 0..3 {
            started(&mut log, g, 0, index);
        }
        log.append(TxnRecord::Undone { gtxn: g, shard: s0, index: 2 });
        let (mut parts, mut told) = (Recording::default(), Told::default());
        let report = resolve(&mut log, g, &mut parts, &mut told);
        assert_eq!(parts.undone, [(s0, "stop c01".to_owned()), (s0, "stop c00".to_owned())]);
        let want = [Boundary::Undone(s0, 1), Boundary::Undone(s0, 2), Boundary::Aborted(s0)];
        assert_eq!(told.0[..3], want);
        assert_eq!((report.outcome, report.undone), (RecoveryOutcome::RolledBack, 2));
    }

    #[test]
    fn undo_reverses_each_step_kind() {
        let mut rt = Runtime::new();
        let mut sm = StateManager::new();
        let comp = LiveComponent { ty: "T".into(), state: b"s".to_vec(), started_at: 4 };
        rt.start("a", comp.clone()).unwrap();
        rt.start("b", LiveComponent { ty: "U".into(), state: Vec::new(), started_at: 4 }).unwrap();
        let b = bind("a", "b");
        rt.bind(b.clone()).unwrap();

        // Bound undo removes the binding; Unbound undo restores it.
        StepRecord::Bound(b.clone()).undo(&mut rt, &mut sm).unwrap();
        assert!(rt.bindings().is_empty());
        StepRecord::Unbound(b.clone()).undo(&mut rt, &mut sm).unwrap();
        assert_eq!(rt.bindings().len(), 1);

        // Started undo stops; Stopped undo restarts with archived state.
        rt.unbind(&b).unwrap();
        StepRecord::Started { name: "a".into() }.undo(&mut rt, &mut sm).unwrap();
        assert!(rt.component("a").is_none());
        StepRecord::Stopped { name: "a".into(), comp: comp.clone() }
            .undo(&mut rt, &mut sm)
            .unwrap();
        assert_eq!(rt.component("a"), Some(&comp), "state restored bit-for-bit");
    }
}
