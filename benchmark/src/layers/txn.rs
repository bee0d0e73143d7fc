//! Drivers for the layers inside the transaction core — the 2PL lock
//! manager, the unified transaction log, and a shard's logged-operation
//! interface — on a cross-shard SWITCH's own plans and lock footprint.

use crate::catalog::LayerRows;
use crate::harness::ns_per_call;
use crate::stats;
use adl::diff::ReconfigurationPlan;
use adm_core::scenario::txnrep::seeded_world;
use compkit::journal::StepRecord;
use compkit::PlanLinter;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;
use txn::lock::{LockManager, LockMode};
use txn::log::{ShardId, TxnLog, TxnRecord};
use txn::shard::PlanStep;

const BATCHES: usize = 15;

/// Drive lock manager, log and shard on `plans` (one SWITCH's per-shard
/// sub-plans) over the world `seed` boots.
pub fn drive(plans: &BTreeMap<u32, ReconfigurationPlan>, seed: u64, rows: &mut LayerRows) {
    // The SWITCH's lock footprint, shard-qualified as the coordinator
    // qualifies it.
    let mut resources: Vec<String> = plans
        .iter()
        .flat_map(|(id, plan)| {
            PlanStep::decompose(plan)
                .into_iter()
                .flat_map(|s| s.footprint())
                .map(move |inst| format!("s{id}/{inst}"))
        })
        .collect();
    resources.sort();
    resources.dedup();

    let mut locks = LockManager::new();
    let mut acquire_ns = Vec::new();
    let mut release_ns = Vec::new();
    for txn in 0..2_000u64 {
        let t = Instant::now();
        for r in &resources {
            black_box(locks.acquire(txn, r, LockMode::Exclusive));
        }
        acquire_ns.push(t.elapsed().as_nanos() as f64 / resources.len() as f64);
        let t = Instant::now();
        black_box(locks.release_all(txn));
        release_ns.push(t.elapsed().as_nanos() as f64);
    }
    rows.set("txn.lock.acquire_ns", stats::median(&acquire_ns));
    rows.set("txn.lock.release_all_ns", stats::median(&release_ns));
    // Detection as the coordinator meets it: one transaction holds the
    // footprint, another waits on it, there is no cycle.
    for r in &resources {
        locks.acquire(1, r, LockMode::Exclusive);
    }
    locks.acquire(2, &resources[0], LockMode::Exclusive);
    rows.set(
        "txn.lock.detect_deadlock_ns",
        ns_per_call(BATCHES, 1_000, || {
            black_box(locks.detect_deadlock());
        }),
    );

    // The log: one open transaction's worth of records per iteration.
    let shard_ids: Vec<ShardId> = plans.keys().map(|&id| ShardId(id)).collect();
    let mut log = TxnLog::new();
    let mut append_ns = Vec::new();
    let mut open_ns = Vec::new();
    let mut truncate_ns = Vec::new();
    for _ in 0..2_000 {
        let gtxn = log.begin(shard_ids.clone(), 0);
        let records: Vec<TxnRecord> = shard_ids
            .iter()
            .flat_map(|&shard| {
                [TxnRecord::Intent { gtxn, shard, steps: 2 }, TxnRecord::Prepared { gtxn, shard }]
            })
            .collect();
        let n = records.len() as f64;
        let t = Instant::now();
        for r in records {
            log.append(r);
        }
        append_ns.push(t.elapsed().as_nanos() as f64 / n);
        let t = Instant::now();
        black_box(log.open_txns());
        open_ns.push(t.elapsed().as_nanos() as f64);
        log.append(TxnRecord::End { gtxn });
        let t = Instant::now();
        log.truncate_ended();
        truncate_ns.push(t.elapsed().as_nanos() as f64);
    }
    rows.set("txn.log.append_ns", stats::median(&append_ns));
    rows.set("txn.log.open_txns_ns", stats::median(&open_ns));
    rows.set("txn.log.truncate_ended_ns", stats::median(&truncate_ns));

    // One shard: apply the sub-plan's steps, persist them, undo them.
    let (mut shards, _) = seeded_world(seed, plans.len());
    let (&id, plan) = plans.iter().next_back().expect("a SWITCH has at least one shard");
    let dc = shards.get_mut(&id).expect("the world has every planned shard");
    let steps = PlanStep::decompose(plan);
    let mut apply_ns = Vec::new();
    let mut persist_ns = Vec::new();
    for _ in 0..500 {
        let t = Instant::now();
        let records: Vec<StepRecord> = steps
            .iter()
            .map(|s| dc.apply_step(s, 50).expect("the target shard's steps apply"))
            .collect();
        apply_ns.push(t.elapsed().as_nanos() as f64 / steps.len() as f64);
        let t = Instant::now();
        black_box(dc.persist_steps(&records).expect("the shard's store is up"));
        persist_ns.push(t.elapsed().as_nanos() as f64);
        for r in records.iter().rev() {
            dc.undo_step(r).expect("applied steps undo");
        }
    }
    rows.set("txn.shard.apply_step_ns", stats::median(&apply_ns));
    rows.set("txn.shard.persist_steps_ns", stats::median(&persist_ns));

    let linter = PlanLinter::new();
    rows.set(
        "compkit.planlint.lint_ns",
        ns_per_call(BATCHES, 2_000, || {
            black_box(linter.lint_one(plan).has_errors());
        }),
    );
}
