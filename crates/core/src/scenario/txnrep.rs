//! Cross-shard transaction conformance: every (seed × crash site ×
//! topology) cell of the two-phase-commit recovery matrix.
//!
//! The unbundled transaction core promises that a cross-shard SWITCH is
//! atomic *across* shards: however the coordinator or a participant dies
//! — before prepare, mid prepare, after a vote, on either side of the
//! commit decision, mid fan-out, mid rollback, or during recovery itself
//! — every shard ends up on the same side of the transaction. Each cell
//! here boots a sharded fleet with seed-perturbed component state and a
//! per-shard durable store, re-expresses one (or, on the three-shard
//! topology, two) atom migrations as per-shard sub-plans via
//! [`patia::shard::cross_shard_plans`], arms a [`PlannedTxnCrash`] at one
//! protocol boundary, executes through [`TransactionCore`], crashes,
//! recovers until settled, and checks the invariant:
//!
//! > every shard's runtime **and** store digest matches the committed
//! > reference on all shards, or the rolled-back reference on all shards
//! > — never a mix — a further recovery is a no-op, and every armed
//! > crash hook actually fired (an unreached site fails the cell).
//!
//! [`sweep`] replays the full matrix ([`GOLDEN_SEEDS`] × [`crash_points`] ×
//! [`TOPOLOGIES`]); [`render_matrix`] is the golden-diffed transcript;
//! [`run_cell_observed`] / [`run_clean_observed`] yield the
//! cycle-accounted `txn:*` traces the bench snapshot prices 2PC from.

use crate::coverage::unfired;
use crate::scenario::{FailBindTo, GOLDEN_SEEDS};
use adl::diff::ReconfigurationPlan;
use adm_rng::Pcg32;
use compkit::journal::{RecoveryOutcome, StepRecord};
use compkit::runtime::LiveComponent;
use compkit::NoFaults;
use obs::{Obs, ObsHandle};
use patia::atom::AtomId;
use patia::shard::{atom_instance, cross_shard_plans, host_instance, shard_of, ShardHandle};
use std::collections::BTreeMap;
use store::StorageEngine;
use txn::{
    CrossShardReport, DataComponent, NoTxnCrash, PlannedTxnCrash, ShardId, TransactionCore,
    TxnCrashPoint, TxnError,
};

/// The shard counts every cell is replayed on: the minimal cross-shard
/// case and a three-way transaction (two migrations converging on one
/// target shard).
pub const TOPOLOGIES: [usize; 2] = [2, 3];

/// The crash points every (seed, topology) pair is replayed through —
/// one per protocol boundary class, hitting both the first shard and the
/// target (last) shard where the boundary is per-shard.
#[must_use]
pub fn crash_points(topology: usize) -> Vec<TxnCrashPoint> {
    let last = topology as u32 - 1;
    vec![
        TxnCrashPoint::BeforePrepare,
        TxnCrashPoint::MidPrepare { shard: 0, after_steps: 1 },
        TxnCrashPoint::MidPrepare { shard: last, after_steps: 2 },
        TxnCrashPoint::AfterPrepare { shard: 0 },
        TxnCrashPoint::AfterPrepare { shard: last },
        TxnCrashPoint::BeforeDecision,
        TxnCrashPoint::AfterDecision,
        TxnCrashPoint::MidCommitFanout { shard: 0 },
        TxnCrashPoint::MidCommitFanout { shard: last },
        TxnCrashPoint::MidUndo { after_undos: 1 },
        TxnCrashPoint::MidAbortFanout { shard: 0 },
        TxnCrashPoint::DuringRecovery { after_undos: 1 },
    ]
}

/// One cell of the cross-shard crash matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxnCellReport {
    /// The state-perturbation seed.
    pub seed: u64,
    /// How many shards participated.
    pub topology: usize,
    /// Where the crash struck.
    pub point: TxnCrashPoint,
    /// The settled recovery outcome (never `Crashed`: a cell that
    /// crashes during recovery recovers again until it settles).
    pub outcome: RecoveryOutcome,
    /// Per-shard fused (runtime + store) digests after recovery settled.
    pub recovered: Vec<u64>,
    /// Per-shard digests of the crash-free committed reference.
    pub committed_ref: Vec<u64>,
    /// Per-shard digests of the pre-switch (rolled-back) reference.
    pub rolled_back_ref: Vec<u64>,
    /// Log records scanned by the first recovery pass.
    pub scanned: usize,
    /// Compensations performed across all recovery passes.
    pub undone: usize,
    /// In-doubt participants resolved across all recovery passes.
    pub in_doubt_resolved: usize,
    /// How many `recover()` calls it took to settle.
    pub recover_calls: u32,
    /// Whether one further `recover()` after settling was a no-op — the
    /// idempotence witness.
    pub replay_noop: bool,
    /// Unfired crash hooks at teardown (empty in every healthy cell —
    /// an armed-but-unreached site means the cell tested nothing).
    pub unfired: Vec<String>,
}

impl TxnCellReport {
    /// Did *every* shard land on the committed reference?
    #[must_use]
    pub fn committed(&self) -> bool {
        self.recovered == self.committed_ref
    }

    /// Did *every* shard land on the rolled-back reference?
    #[must_use]
    pub fn rolled_back(&self) -> bool {
        self.recovered == self.rolled_back_ref
    }

    /// The never-hybrid invariant, cross-shard edition: all shards
    /// landed on exactly one of the two references, replaying recovery
    /// changed nothing, and every armed crash hook fired.
    #[must_use]
    pub fn consistent(&self) -> bool {
        (self.committed() != self.rolled_back()) && self.replay_noop && self.unfired.is_empty()
    }

    /// One golden-transcript line for this cell.
    #[must_use]
    pub fn render_line(&self) -> String {
        let landed = if self.committed() {
            "committed"
        } else if self.rolled_back() {
            "rolled-back"
        } else {
            "HYBRID"
        };
        let coverage =
            if self.unfired.is_empty() { "ok".to_owned() } else { self.unfired.join(",") };
        format!(
            "seed={} shards={} point={} outcome={} landed={} scanned={} undone={} in_doubt={} recoveries={} replay_noop={} coverage={}",
            self.seed,
            self.topology,
            self.point,
            self.outcome,
            landed,
            self.scanned,
            self.undone,
            self.in_doubt_resolved,
            self.recover_calls,
            self.replay_noop,
            coverage,
        )
    }
}

/// The shard layout for a topology: nodes from the paper fleet carved
/// into transaction shards, migrations converging on the last shard.
#[must_use]
pub fn shard_handles(topology: usize) -> Vec<ShardHandle> {
    if topology == 2 {
        vec![
            ShardHandle::new(0, "east", vec!["node1".to_owned(), "node2".to_owned()]),
            ShardHandle::new(1, "west", vec!["wp1".to_owned()]),
        ]
    } else {
        vec![
            ShardHandle::new(0, "east", vec!["node1".to_owned()]),
            ShardHandle::new(1, "mid", vec!["node2".to_owned()]),
            ShardHandle::new(2, "west", vec!["wp1".to_owned()]),
        ]
    }
}

/// The atom migrations a topology's transaction performs:
/// `(atom, home node, destination node)`.
fn migrations(topology: usize) -> Vec<(AtomId, &'static str, &'static str)> {
    if topology == 2 {
        vec![(AtomId(123), "node1", "wp1")]
    } else {
        vec![(AtomId(123), "node1", "wp1"), (AtomId(153), "node2", "wp1")]
    }
}

/// Boot the sharded fleet: one [`DataComponent`] per shard holding its
/// nodes' `host:*` glue and its atoms' `atom:*` agents, every instance's
/// state perturbed from `seed` (so a digest collision cannot mask a
/// hybrid), and a per-shard [`StorageEngine`] seeded with the boot image.
/// Returns the shards plus the merged per-shard sub-plans.
#[must_use]
pub fn seeded_world(
    seed: u64,
    topology: usize,
) -> (BTreeMap<u32, DataComponent>, BTreeMap<u32, ReconfigurationPlan>) {
    let handles = shard_handles(topology);
    let mut shards: BTreeMap<u32, DataComponent> = BTreeMap::new();
    for h in &handles {
        let mut dc = DataComponent::new(ShardId(h.id()));
        for node in h.nodes() {
            dc.runtime_mut()
                .start(
                    &host_instance(node),
                    LiveComponent { ty: "Host".to_owned(), state: Vec::new(), started_at: 0 },
                )
                .expect("boot starts each host once");
        }
        shards.insert(h.id(), dc);
    }
    for (atom, home, _) in migrations(topology) {
        let h = shard_of(&handles, home).expect("every home node is owned");
        let dc = shards.get_mut(&h.id()).expect("shard booted");
        dc.runtime_mut()
            .start(
                &atom_instance(atom),
                LiveComponent { ty: "Agent".to_owned(), state: Vec::new(), started_at: 0 },
            )
            .expect("boot starts each agent once");
        dc.runtime_mut()
            .bind(patia::shard::route_binding(atom, home))
            .expect("boot routes each agent once");
    }
    let mut rng = Pcg32::new(seed);
    for dc in shards.values_mut() {
        let names: Vec<String> = dc.runtime().instance_names().map(str::to_owned).collect();
        for name in &names {
            let mut state = vec![0u8; 8 + rng.index(24)];
            rng.fill_bytes(&mut state);
            dc.runtime_mut().component_mut(name).expect("booted instance exists").state = state;
        }
        dc.attach_store(StorageEngine::new(8));
        let boot_image: Vec<StepRecord> =
            names.iter().map(|n| StepRecord::Started { name: n.clone() }).collect();
        dc.persist_steps(&boot_image).expect("boot image persists");
    }
    let mut plans: BTreeMap<u32, ReconfigurationPlan> = BTreeMap::new();
    for (atom, from, to) in migrations(topology) {
        for (id, p) in cross_shard_plans(&handles, atom, from, to) {
            let merged = plans.entry(id).or_default();
            merged.unbind.extend(p.unbind);
            merged.stop.extend(p.stop);
            merged.start.extend(p.start);
            merged.bind.extend(p.bind);
        }
    }
    (shards, plans)
}

/// Per-shard fused digest: runtime state and durable store state
/// together, so a shard whose memory rolled back but whose store
/// committed still reads as a hybrid.
#[must_use]
pub fn shard_digests(shards: &mut BTreeMap<u32, DataComponent>) -> Vec<u64> {
    shards
        .values_mut()
        .map(|dc| {
            let fused =
                format!("rt={:016x} store={:016x}", dc.digest(), dc.store_digest().unwrap_or(0));
            obs::fnv1a(fused.as_bytes())
        })
        .collect()
}

/// The two per-shard reference digest vectors for a (seed, topology):
/// the world after a crash-free committed transaction, and the world as
/// booted (what a complete rollback must restore bit-for-bit).
#[must_use]
pub(crate) fn reference_digests(seed: u64, topology: usize) -> (Vec<u64>, Vec<u64>) {
    let (mut shards, plans) = seeded_world(seed, topology);
    let rolled_back = shard_digests(&mut shards);
    TransactionCore::new()
        .execute_cross_shard(&mut shards, &plans, 50, &mut NoFaults, &mut NoTxnCrash)
        .expect("the crash-free reference transaction commits");
    (shard_digests(&mut shards), rolled_back)
}

/// Replay one (seed, topology, crash point) cell without observability.
#[must_use]
pub fn run_cell(seed: u64, topology: usize, point: TxnCrashPoint) -> TxnCellReport {
    run_cell_inner(seed, topology, point, None)
}

/// Replay one cell with an [`Obs`] hub armed on the transaction core, so
/// the crash and every recovery pass appear as cycle-billed
/// `txn:cross_switch` / `txn:recover` spans and `txn.*` counters.
#[must_use]
pub fn run_cell_observed(seed: u64, topology: usize, point: TxnCrashPoint) -> (TxnCellReport, Obs) {
    let handle = Obs::new(obs::CostModel::pentium()).into_handle();
    let report = run_cell_inner(seed, topology, point, Some(handle.clone()));
    let obs = Obs::try_unwrap(handle)
        .unwrap_or_else(|_| unreachable!("the core is dropped before the hub is unwrapped"));
    (report, obs)
}

/// One crash-free committed transaction with an [`Obs`] hub armed — the
/// prepare/commit cycle reference the bench snapshot prices.
#[must_use]
pub fn run_clean_observed(seed: u64, topology: usize) -> (CrossShardReport, Obs) {
    let handle = Obs::new(obs::CostModel::pentium()).into_handle();
    let (mut shards, plans) = seeded_world(seed, topology);
    let mut tc = TransactionCore::new();
    tc.arm_obs(handle.clone());
    let report = tc
        .execute_cross_shard(&mut shards, &plans, 50, &mut NoFaults, &mut NoTxnCrash)
        .expect("the clean transaction commits");
    tc.disarm_obs();
    drop(tc);
    let obs = Obs::try_unwrap(handle)
        .unwrap_or_else(|_| unreachable!("the core is dropped before the hub is unwrapped"));
    (report, obs)
}

fn run_cell_inner(
    seed: u64,
    topology: usize,
    point: TxnCrashPoint,
    obs: Option<ObsHandle>,
) -> TxnCellReport {
    let (committed_ref, rolled_back_ref) = reference_digests(seed, topology);
    let (mut shards, plans) = seeded_world(seed, topology);
    let mut tc = TransactionCore::new();
    if let Some(h) = &obs {
        tc.arm_obs(h.clone());
    }

    // Mid-undo and mid-abort cells need an abort in flight for the crash
    // to strike: the target shard's binds refuse, so the coordinator is
    // compensating when the hook fires. During-recovery cells crash at
    // the commit edge first, then crash *again* inside the first
    // recovery pass.
    let needs_abort =
        matches!(point, TxnCrashPoint::MidUndo { .. } | TxnCrashPoint::MidAbortFanout { .. });
    let in_recovery = matches!(point, TxnCrashPoint::DuringRecovery { .. });
    let exec_point = if in_recovery { TxnCrashPoint::BeforeDecision } else { point };
    let mut faults = FailBindTo { target: needs_abort.then(|| host_instance("wp1")) };
    let mut hook = PlannedTxnCrash::new(exec_point);
    let result = tc.execute_cross_shard(&mut shards, &plans, 50, &mut faults, &mut hook);
    debug_assert!(
        matches!(result, Err(TxnError::Crashed { .. })),
        "every cell's transaction must end in a crash, got {result:?}"
    );

    let mut recovery_hook = PlannedTxnCrash::new(point);
    let first = if in_recovery {
        tc.recover(&mut shards, &mut recovery_hook)
    } else {
        tc.recover(&mut shards, &mut NoTxnCrash)
    };
    let mut recover_calls = 1u32;
    let mut undone = first.undone;
    let mut resolved = first.in_doubt_resolved;
    let mut outcome = first.outcome;
    while outcome == RecoveryOutcome::Crashed {
        let next = tc.recover(&mut shards, &mut NoTxnCrash);
        recover_calls += 1;
        undone += next.undone;
        resolved += next.in_doubt_resolved;
        outcome = next.outcome;
    }
    let replay = tc.recover(&mut shards, &mut NoTxnCrash);

    // Teardown coverage audit: every armed hook must have fired, or the
    // cell exercised nothing at its claimed site.
    let mut armed = vec![("switch", &hook)];
    if in_recovery {
        armed.push(("recovery", &recovery_hook));
    }

    TxnCellReport {
        seed,
        topology,
        point,
        outcome,
        recovered: shard_digests(&mut shards),
        committed_ref,
        rolled_back_ref,
        scanned: first.scanned,
        undone,
        in_doubt_resolved: resolved,
        recover_calls,
        replay_noop: replay.noop(),
        unfired: unfired(&armed),
    }
}

/// Replay the full matrix: every [`GOLDEN_SEEDS`] seed through every
/// [`crash_points`] site on every [`TOPOLOGIES`] shard count.
#[must_use]
pub fn sweep() -> Vec<TxnCellReport> {
    let mut cells = Vec::new();
    for &topology in &TOPOLOGIES {
        for &seed in &GOLDEN_SEEDS {
            for &point in &crash_points(topology) {
                cells.push(run_cell(seed, topology, point));
            }
        }
    }
    cells
}

/// The golden transcript of a sweep: one line per cell.
#[must_use]
pub fn render_matrix(cells: &[TxnCellReport]) -> String {
    let mut out = String::new();
    for c in cells {
        out.push_str(&c.render_line());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_point_lands_whole_never_hybrid() {
        for &topology in &TOPOLOGIES {
            for &point in &crash_points(topology) {
                let cell = run_cell(7, topology, point);
                assert!(cell.consistent(), "cell must settle cleanly: {}", cell.render_line());
                match point {
                    TxnCrashPoint::AfterDecision | TxnCrashPoint::MidCommitFanout { .. } => {
                        assert!(cell.committed(), "a crash after the decision rolls forward");
                    }
                    _ => assert!(
                        cell.rolled_back(),
                        "a crash before the decision rolls back: {point} on {topology} shards"
                    ),
                }
            }
        }
    }

    #[test]
    fn references_differ_per_shard_so_a_hybrid_cannot_hide() {
        for &topology in &TOPOLOGIES {
            for &seed in &GOLDEN_SEEDS {
                let (committed, rolled_back) = reference_digests(seed, topology);
                assert_eq!(committed.len(), topology);
                for (i, (c, r)) in committed.iter().zip(&rolled_back).enumerate() {
                    assert_ne!(c, r, "seed {seed} shard {i}: references must differ");
                }
            }
        }
    }

    #[test]
    fn prepared_shards_resolve_in_doubt_by_log_read() {
        let cell = run_cell(7, 3, TxnCrashPoint::BeforeDecision);
        assert_eq!(cell.in_doubt_resolved, 3, "all three prepared shards were in doubt");
        assert!(cell.rolled_back(), "no decision record means presumed abort");
    }

    #[test]
    fn during_recovery_cells_take_two_recoveries() {
        let cell = run_cell(7, 2, TxnCrashPoint::DuringRecovery { after_undos: 1 });
        assert_eq!(cell.recover_calls, 2, "the crashed recovery must be resumed");
        assert!(cell.rolled_back());
        assert!(cell.unfired.is_empty(), "both hooks fired: {:?}", cell.unfired);
    }

    #[test]
    fn an_unfired_hook_is_named_and_fails_the_cell() {
        let pending = PlannedTxnCrash::new(TxnCrashPoint::AfterDecision);
        let audit = unfired(&[("switch", &pending)]);
        assert_eq!(audit, vec!["switch: after-decision".to_owned()]);

        let clean = run_cell(7, 2, TxnCrashPoint::BeforeDecision);
        assert!(clean.consistent() && clean.render_line().ends_with(" coverage=ok"));
        let cell = TxnCellReport { unfired: audit, ..clean };
        assert!(!cell.consistent(), "an unreached site fails the cell");
        assert!(cell.render_line().ends_with(" coverage=switch: after-decision"));
    }

    #[test]
    fn cells_are_deterministic() {
        let point = TxnCrashPoint::MidPrepare { shard: 1, after_steps: 2 };
        assert_eq!(run_cell(42, 2, point), run_cell(42, 2, point));
    }

    #[test]
    fn observed_cells_match_unobserved_and_bill_the_protocol() {
        let point = TxnCrashPoint::BeforeDecision;
        let plain = run_cell(17, 2, point);
        let (observed, obs) = run_cell_observed(17, 2, point);
        assert_eq!(plain, observed, "observability must not perturb recovery");
        assert!(obs.tracer.events().iter().any(|e| e.name == "recover"));
        assert!(obs.metrics.counter("txn.recovery.runs") >= 1);
        assert!(obs.metrics.counter("txn.log.force") >= 2, "votes are forced");
    }

    #[test]
    fn clean_transactions_price_prepare_and_commit() {
        let (report, obs) = run_clean_observed(17, 3);
        assert_eq!(report.shards, 3);
        assert_eq!(report.steps, 8);
        assert_eq!(obs.metrics.counter("txn.switch.committed"), 1);
        // One forced vote per shard plus the forced decision.
        assert_eq!(obs.metrics.counter("txn.log.force"), 4);
    }
}
