//! Cross-shard transaction conformance tier: the unbundled transaction
//! core's never-hybrid guarantee, asserted end to end.
//!
//! Part 1 sweeps the (seed × crash point × topology) matrix of
//! `scenario::txnrep`: wherever the coordinator or a participant dies,
//! recovery must land *every* shard's runtime-plus-store digest on the
//! committed reference or the rolled-back reference — never a mix — a
//! further recovery must be a no-op, and every armed crash hook must
//! actually have fired. The matrix transcript is pinned as a golden
//! (`tests/goldens/txnrep.txt`; regenerate with
//! `cargo xtask update-goldens`).
//!
//! Part 2 prices the protocol: 2PC shows up as cycle-billed
//! `txn:cross_switch` / `txn:recover` spans whose args agree with the
//! cell report, and as `txn.*` registry counters (one forced vote per
//! shard plus the forced decision on the clean path).
//!
//! Part 3 closes the introspection loop: the same crashed core is
//! queried through the `sys.txns` system table, prepared votes and all.

mod golden;

use adl::ast::Binding;
use adl::diff::ReconfigurationPlan;
use adm_core::scenario::txnrep::{
    crash_points, render_matrix, run_cell_observed, run_clean_observed, seeded_world,
    shard_handles, sweep, TxnCellReport, TOPOLOGIES,
};
use adm_core::scenario::GOLDEN_SEEDS;
use compkit::journal::RecoveryOutcome;
use compkit::{AdaptivityManager, NoFaults, StepFaults};
use datacomp::Value;
use obs::{EventKind, Obs};
use patia::atom::AtomId;
use patia::shard::cross_shard_plans;
use query::expr::Pred;
use std::collections::BTreeMap;
use systab::{filter_count, sum_int, txns_table};
use txn::{NoTxnCrash, PlannedTxnCrash, TransactionCore, TxnCrashPoint, TxnError};

/// Part 1a — the tentpole invariant over the full matrix: every cell
/// lands all shards on exactly one reference, replays recovery as a
/// no-op, and fires every armed crash hook.
#[test]
fn every_txn_cell_lands_all_shards_on_one_side_never_hybrid() {
    let cells = sweep();
    let expected: usize =
        TOPOLOGIES.iter().map(|&t| GOLDEN_SEEDS.len() * crash_points(t).len()).sum();
    assert_eq!(cells.len(), expected, "the matrix is complete");
    for cell in &cells {
        assert!(
            cell.consistent(),
            "cell must land whole, replay as a no-op, and fire its hooks: {}",
            cell.render_line()
        );
        match cell.point {
            TxnCrashPoint::AfterDecision | TxnCrashPoint::MidCommitFanout { .. } => {
                assert!(
                    cell.committed(),
                    "a crash after the logged decision must roll forward: {}",
                    cell.render_line()
                );
            }
            _ => {
                assert!(
                    cell.rolled_back(),
                    "presumed abort: no decision record must roll back: {}",
                    cell.render_line()
                );
            }
        }
        let expected_calls =
            if matches!(cell.point, TxnCrashPoint::DuringRecovery { .. }) { 2 } else { 1 };
        assert_eq!(
            cell.recover_calls,
            expected_calls,
            "recovery must settle in the minimum number of passes: {}",
            cell.render_line()
        );
        assert!(cell.scanned > 0, "every cell leaves a log to scan: {}", cell.render_line());
        if cell.topology == 3 && cell.point == TxnCrashPoint::BeforeDecision {
            assert_eq!(
                cell.in_doubt_resolved,
                3,
                "all three prepared shards consult the missing decision: {}",
                cell.render_line()
            );
        }
    }
    // The matrix must exercise both outcomes, not collapse to one.
    assert!(cells.iter().any(TxnCellReport::committed));
    assert!(cells.iter().any(TxnCellReport::rolled_back));
}

/// Part 1b — the matrix transcript is deterministic and pinned as a
/// golden, so any drift in log layout, recovery order, shard digesting,
/// or hook coverage shows up as a reviewable diff.
#[test]
fn txn_matrix_golden_is_stable() {
    let got = render_matrix(&sweep());
    assert_eq!(got, render_matrix(&sweep()), "the matrix must replay byte-identically");
    golden::check("tests/goldens/txnrep.txt", &got);
}

/// Part 2a — the crash and its recovery are work the machine performs:
/// billed on the virtual clock, traced as `txn:cross_switch` /
/// `txn:recover` spans whose args agree with the cell report, and
/// published to the registry.
#[test]
fn two_phase_commit_recovery_is_billed_traced_and_published() {
    for point in [TxnCrashPoint::BeforeDecision, TxnCrashPoint::AfterDecision] {
        let (cell, o) = run_cell_observed(17, 2, point);
        let txn = |name: &'static str| {
            o.tracer.events().iter().filter(move |e| e.cat == "txn" && e.name == name)
        };
        let crashed: Vec<_> =
            txn("cross_switch").filter(|e| e.arg("outcome") == Some("crashed")).collect();
        assert_eq!(crashed.len(), 1, "the crash itself must be traced");
        assert!(crashed[0].arg("site").is_some(), "the crashed span names its protocol site");
        let recovers: Vec<_> = txn("recover").filter(|e| e.kind == EventKind::Complete).collect();
        assert_eq!(recovers.len(), 1, "one settled recovery, one span (noop replays are free)");
        let span = recovers[0];
        assert!(span.dur > 0, "recovery must cost cycles");
        assert_eq!(span.arg("outcome").unwrap(), cell.outcome.to_string());
        assert_eq!(span.arg("scanned").unwrap(), cell.scanned.to_string());
        assert_eq!(span.arg("undone").unwrap(), cell.undone.to_string());
        assert_eq!(span.arg("in_doubt_resolved").unwrap(), cell.in_doubt_resolved.to_string());
        assert_eq!(o.metrics.counter("txn.switch.crashed"), 1);
        assert_eq!(o.metrics.counter("txn.recovery.runs"), 1);
        assert_eq!(o.metrics.counter("txn.recovery.records_scanned"), cell.scanned as u64);
        assert_eq!(o.metrics.counter("txn.recovery.steps_undone"), cell.undone as u64);
        assert_eq!(
            o.metrics.counter("txn.recovery.in_doubt_resolved"),
            cell.in_doubt_resolved as u64
        );
        assert_eq!(o.metrics.counter("txn.log.replay_len"), cell.scanned as u64);
        assert_eq!(o.tracer.open_spans(), 0, "every span must be closed");
    }
}

/// Part 2b — the clean committed path prices prepare and commit: one
/// forced vote per shard plus the forced decision, and two locked,
/// two-step sub-plans.
#[test]
fn clean_cross_shard_commit_prices_votes_and_decision() {
    let (report, o) = run_clean_observed(17, 2);
    assert_eq!(report.shards, 2);
    assert_eq!(report.steps, 4, "unbind+stop on the source, start+bind on the target");
    assert_eq!(o.metrics.counter("txn.switch.committed"), 1);
    assert_eq!(o.metrics.counter("txn.prepare.shards"), 2);
    assert_eq!(o.metrics.counter("txn.log.force"), 3, "two votes plus the decision");
    assert_eq!(o.metrics.counter("txn.switch.crashed"), 0);
    assert_eq!(o.tracer.open_spans(), 0);
}

/// Part 3 — the introspection loop: a crashed core served through the
/// `sys.txns` system table exposes the prepared votes, the recovery
/// resolves them, and the table reads settled afterwards.
#[test]
fn sys_txns_serves_the_crashed_core_and_its_recovery() {
    let (mut shards, plans) = seeded_world(42, 2);
    let mut core = TransactionCore::new();
    let mut hook = PlannedTxnCrash::new(TxnCrashPoint::BeforeDecision);
    let run = core.execute_cross_shard(&mut shards, &plans, 50, &mut NoFaults, &mut hook);
    assert!(run.is_err(), "the planned crash fires before the decision");

    let mut am = AdaptivityManager::new();
    am.attach_journal();
    let t = txns_table(&core, Some(&am));
    let stat = |name: &str| sum_int(&t, 4, Pred::eq(1, Value::Str(name.to_owned())), None);
    assert_eq!(stat("crashes"), 1);
    assert_eq!(stat("log_live") as usize, core.log().len());
    assert_eq!(
        filter_count(&t, Pred::eq(1, Value::Str("prepared".to_owned())), None),
        2,
        "both shards' votes are visible as sys.txns record rows"
    );
    assert_eq!(
        filter_count(&t, Pred::eq(0, Value::Str("record".to_owned())), None) as usize,
        core.log().len(),
        "one record row per live log record"
    );

    let report = core.recover(&mut shards, &mut NoTxnCrash);
    assert_eq!(report.in_doubt_resolved, 2);
    let t = txns_table(&core, Some(&am));
    let stat = |name: &str| sum_int(&t, 4, Pred::eq(1, Value::Str(name.to_owned())), None);
    assert_eq!(stat("aborted"), 1, "presumed abort lands in the stats");
    assert_eq!(stat("recoveries"), 1);
    assert_eq!(stat("in_doubt_resolved"), 2);
    assert_eq!(stat("log_live"), 0, "recovery ends the txn and truncation reclaims it");
    assert_eq!(stat("locks_held"), 0);
    assert_eq!(stat("journal_live"), 0, "the legacy journal rides along, empty");
}

/// The per-shard sub-plans that bring the three-shard world's two atoms
/// home again: the return leg of the `seeded_world(_, 3)` ping-pong.
fn home_plans() -> BTreeMap<u32, ReconfigurationPlan> {
    let handles = shard_handles(3);
    let mut plans: BTreeMap<u32, ReconfigurationPlan> = BTreeMap::new();
    for (atom, home) in [(AtomId(123), "node1"), (AtomId(153), "node2")] {
        for (id, p) in cross_shard_plans(&handles, atom, "wp1", home) {
            let merged = plans.entry(id).or_default();
            merged.unbind.extend(p.unbind);
            merged.stop.extend(p.stop);
            merged.start.extend(p.start);
            merged.bind.extend(p.bind);
        }
    }
    plans
}

/// Fails every bind that lands on `host:node2`.
#[derive(Debug)]
struct FailBindToNode2;

impl StepFaults for FailBindToNode2 {
    fn fail_bind(&mut self, b: &Binding) -> Option<String> {
        (b.to.instance.as_deref() == Some("host:node2")).then(|| "injected".to_owned())
    }
}

/// A committed SWITCH's log, frozen by a crash at the last boundary
/// before `End` (truncation reclaims a settled transaction's records).
const COMMITTED_LOG: &str = "\
begin gtxn=0 shards=[s0,s1,s2] at=50
intent gtxn=0 shard=s0 steps=2
applied gtxn=0 shard=s0 [0] unbind atom:123.route -- host:node1.slot
applied gtxn=0 shard=s0 [1] stop atom:123
prepared gtxn=0 shard=s0
intent gtxn=0 shard=s1 steps=2
applied gtxn=0 shard=s1 [0] unbind atom:153.route -- host:node2.slot
applied gtxn=0 shard=s1 [1] stop atom:153
prepared gtxn=0 shard=s1
intent gtxn=0 shard=s2 steps=4
applied gtxn=0 shard=s2 [0] start atom:123
applied gtxn=0 shard=s2 [1] start atom:153
applied gtxn=0 shard=s2 [2] bind atom:123.route -- host:wp1.slot
applied gtxn=0 shard=s2 [3] bind atom:153.route -- host:wp1.slot
prepared gtxn=0 shard=s2
commit gtxn=0
shard-committed gtxn=0 shard=s0
shard-committed gtxn=0 shard=s1
shard-committed gtxn=0 shard=s2
";

/// The shard-qualified lock set that SWITCH holds while it is open.
const COMMITTED_LOCKS: [&str; 7] = [
    "s0/atom:123",
    "s0/host:node1",
    "s1/atom:153",
    "s1/host:node2",
    "s2/atom:123",
    "s2/atom:153",
    "s2/host:wp1",
];

/// The way home, rolled back by a bind fault on `s1`, frozen at its last
/// abort record. Like recovery, the abort tells every shard named in
/// `Begin`, `s2` included, though `s2` never logged an intent.
const ROLLED_BACK_LOG: &str = "\
begin gtxn=1 shards=[s0,s1,s2] at=50
intent gtxn=1 shard=s0 steps=2
applied gtxn=1 shard=s0 [0] start atom:123
applied gtxn=1 shard=s0 [1] bind atom:123.route -- host:node1.slot
prepared gtxn=1 shard=s0
intent gtxn=1 shard=s1 steps=2
applied gtxn=1 shard=s1 [0] start atom:153
shard-aborted gtxn=1 shard=s2
undone gtxn=1 shard=s1 [0]
shard-aborted gtxn=1 shard=s1
undone gtxn=1 shard=s0 [1]
undone gtxn=1 shard=s0 [0]
shard-aborted gtxn=1 shard=s0
";

/// The way home again, crashed with every vote in and no decision...
const CRASHED_LOG: &str = "\
begin gtxn=2 shards=[s0,s1,s2] at=50
intent gtxn=2 shard=s0 steps=2
applied gtxn=2 shard=s0 [0] start atom:123
applied gtxn=2 shard=s0 [1] bind atom:123.route -- host:node1.slot
prepared gtxn=2 shard=s0
intent gtxn=2 shard=s1 steps=2
applied gtxn=2 shard=s1 [0] start atom:153
applied gtxn=2 shard=s1 [1] bind atom:153.route -- host:node2.slot
prepared gtxn=2 shard=s1
intent gtxn=2 shard=s2 steps=4
applied gtxn=2 shard=s2 [0] unbind atom:123.route -- host:wp1.slot
applied gtxn=2 shard=s2 [1] unbind atom:153.route -- host:wp1.slot
applied gtxn=2 shard=s2 [2] stop atom:123
applied gtxn=2 shard=s2 [3] stop atom:153
prepared gtxn=2 shard=s2
";

/// ...and what a recovery pass that crashed after three compensations
/// appended to it.
const RECOVERY_TAIL: &str = "\
undone gtxn=2 shard=s2 [3]
undone gtxn=2 shard=s2 [2]
undone gtxn=2 shard=s2 [1]
";

/// Locks granted over the three SWITCHes above.
const GRANTS: u64 = 21;

/// Part 4 — what a commit produces on the `seeded_world(42, 3)`
/// ping-pong, pinned: the log of a committed, a rolled-back and a
/// crashed-then-recovered SWITCH, the lock set and grant count, and the
/// armed hub's price of one commit. The commit path may get faster; it
/// may not change any of these.
#[test]
fn commit_path_output_is_pinned_on_the_three_shard_ping_pong() {
    let (mut shards, away) = seeded_world(42, 3);
    let home = home_plans();
    let mut tc = TransactionCore::new();

    let mut hook = PlannedTxnCrash::new(TxnCrashPoint::MidCommitFanout { shard: 2 });
    let run = tc.execute_cross_shard(&mut shards, &away, 50, &mut NoFaults, &mut hook);
    assert!(matches!(run, Err(TxnError::Crashed { .. })), "{run:?}");
    let committed_log = tc.log().render();
    let committed_locks = tc.locks().held_by(0);
    assert_eq!(tc.recover(&mut shards, &mut NoTxnCrash).outcome, RecoveryOutcome::RolledForward);

    let mut hook = PlannedTxnCrash::new(TxnCrashPoint::MidAbortFanout { shard: 0 });
    let run = tc.execute_cross_shard(&mut shards, &home, 50, &mut FailBindToNode2, &mut hook);
    assert!(matches!(run, Err(TxnError::Crashed { .. })), "{run:?}");
    let rolled_back_log = tc.log().render();
    assert_eq!(tc.recover(&mut shards, &mut NoTxnCrash).outcome, RecoveryOutcome::RolledBack);

    let mut hook = PlannedTxnCrash::new(TxnCrashPoint::BeforeDecision);
    let run = tc.execute_cross_shard(&mut shards, &home, 50, &mut NoFaults, &mut hook);
    assert!(matches!(run, Err(TxnError::Crashed { .. })), "{run:?}");
    let crashed_log = tc.log().render();
    let mut hook = PlannedTxnCrash::new(TxnCrashPoint::DuringRecovery { after_undos: 3 });
    assert_eq!(tc.recover(&mut shards, &mut hook).outcome, RecoveryOutcome::Crashed);
    let recovering_log = tc.log().render();
    assert_eq!(tc.recover(&mut shards, &mut NoTxnCrash).outcome, RecoveryOutcome::RolledBack);
    assert!(tc.log().is_empty() && tc.locks().held_total() == 0);

    assert_eq!(committed_log, COMMITTED_LOG);
    assert_eq!(committed_locks, COMMITTED_LOCKS);
    assert_eq!(rolled_back_log, ROLLED_BACK_LOG);
    assert_eq!(crashed_log, CRASHED_LOG);
    assert_eq!(recovering_log, format!("{CRASHED_LOG}{RECOVERY_TAIL}"));
    assert_eq!(tc.locks().grants(), GRANTS);

    // The armed price of a commit, as the ping-pong pays it from the home
    // state: one round trip unarmed first, then 64 commits armed.
    let (mut shards, away) = seeded_world(42, 3);
    let mut tc = TransactionCore::new();
    for plans in [&away, &home] {
        tc.execute_cross_shard(&mut shards, plans, 50, &mut NoFaults, &mut NoTxnCrash).unwrap();
    }
    let hub = Obs::new(obs::CostModel::pentium()).into_handle();
    tc.arm_obs(hub.clone());
    let commits = 64u64;
    for i in 0..commits {
        let plans = if i % 2 == 0 { &away } else { &home };
        tc.execute_cross_shard(&mut shards, plans, 50, &mut NoFaults, &mut NoTxnCrash).unwrap();
    }
    let hub = hub.borrow();
    assert_eq!(hub.clock(), 1_855 * commits, "simulated cycles per commit");
    assert_eq!(hub.metrics.counter("txn.log.force"), 4 * commits, "log forces per commit");
    assert_eq!(tc.locks().grants(), 7 * (commits + 2), "one grant per locked instance");
}
