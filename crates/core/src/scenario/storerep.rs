//! Storage crash-replay conformance: every (seed × crash point) cell of
//! the WAL recovery matrix, below the adaptation journal.
//!
//! [`crate::scenario::crashrep`] proves the *component* runtime survives
//! a crash mid-switch; this tier proves the same promise one layer down,
//! where the Atoms' data actually lives. Each cell boots a seed-perturbed
//! storage engine, applies a victim transaction with a [`PlannedCrash`]
//! armed at one WAL record boundary, crashes (buffer pool and index
//! vanish), replays the log, and checks the only invariant that matters:
//!
//! > the recovered store is byte-identical to either the committed or
//! > the rolled-back reference — never a hybrid — and recovering again
//! > is a no-op.
//!
//! The crash points cover the full record taxonomy: after `Begin`
//! (`mid-plan-0`), after each op record, both edges of `Commit`, mid-way
//! through an explicit abort's undo chain, and inside the recovery scan
//! itself (which must leave the engine down and resumable). [`sweep`]
//! replays the full [`GOLDEN_SEEDS`] × [`crash_points`] matrix;
//! [`render_matrix`] is the golden-diffed transcript whose `replayed`
//! column pins the WAL replay length; [`run_cell_observed`] yields the
//! cycle-billed trace (`store.wal.replay_len`, `store.page.io_cycles`)
//! the bench snapshot prices recovery from.

use crate::scenario::GOLDEN_SEEDS;
use adm_rng::Pcg32;
use obs::Obs;
use store::{CrashPoint, NoCrash, PlannedCrash, RecoveryStats, StorageEngine, StoreError, StoreOp};

/// Ops in every victim transaction (each journals exactly one WAL
/// record, so op boundaries *are* record boundaries).
pub const VICTIM_OPS: usize = 4;

/// Every WAL record boundary of the victim transaction: after `Begin`,
/// after each of the [`VICTIM_OPS`] op records, both commit edges, two
/// depths of the explicit-abort undo chain, and a crash inside the
/// recovery scan.
#[must_use]
pub fn crash_points() -> Vec<CrashPoint> {
    let mut pts: Vec<CrashPoint> =
        (0..=VICTIM_OPS).map(|n| CrashPoint::MidPlan { after_steps: n }).collect();
    pts.push(CrashPoint::BeforeCommit);
    pts.push(CrashPoint::AfterCommit);
    pts.push(CrashPoint::MidRollback { after_undos: 1 });
    pts.push(CrashPoint::MidRollback { after_undos: VICTIM_OPS });
    pts.push(CrashPoint::DuringRecovery { after_undos: 1 });
    pts
}

/// One cell of the storage crash-replay matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreCellReport {
    /// The world-perturbation seed.
    pub seed: u64,
    /// Where the crash struck.
    pub point: CrashPoint,
    /// Digest of the store after recovery settled.
    pub recovered_digest: u64,
    /// Digest of the crash-free committed reference.
    pub committed_digest: u64,
    /// Digest of the pre-transaction (rolled-back) reference.
    pub rolled_back_digest: u64,
    /// WAL records scanned by the settling recovery — the replay length
    /// the golden pins.
    pub replayed: usize,
    /// Committed ops rolled forward by the settling recovery.
    pub redone: usize,
    /// Uncommitted op records discarded, across all recovery passes.
    pub undone: usize,
    /// Record pages rebuilt from the surviving state.
    pub pages_rebuilt: usize,
    /// How many `recover()` calls it took to settle (1, or 2 when the
    /// recovery itself was crashed).
    pub recover_calls: u32,
    /// Whether one further recovery after settling changed nothing — the
    /// idempotence witness.
    pub replay_noop: bool,
}

impl StoreCellReport {
    /// Did recovery land on the committed reference?
    #[must_use]
    pub fn committed(&self) -> bool {
        self.recovered_digest == self.committed_digest
    }

    /// Did recovery land on the rolled-back reference?
    #[must_use]
    pub fn rolled_back(&self) -> bool {
        self.recovered_digest == self.rolled_back_digest
    }

    /// The never-hybrid invariant: exactly one reference matched, and
    /// replaying recovery changed nothing.
    #[must_use]
    pub fn consistent(&self) -> bool {
        (self.committed() != self.rolled_back()) && self.replay_noop
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
        format!(
            "seed={} point={} landed={} replayed={} redone={} undone={} pages={} recoveries={} replay_noop={}",
            self.seed,
            self.point,
            landed,
            self.replayed,
            self.redone,
            self.undone,
            self.pages_rebuilt,
            self.recover_calls,
            self.replay_noop,
        )
    }
}

/// Keys the victim transaction always touches (guaranteed present after
/// setup, so its `Delete` journals a real record).
const VICTIM_KEYS: [u64; 3] = [1, 2, 3];

/// Boot a storage engine and load it with seed-perturbed committed
/// transactions, so each seed recovers a *different* world and a digest
/// collision cannot mask a hybrid. Pool capacity is seeded too.
fn seeded_engine(seed: u64) -> StorageEngine {
    let mut rng = Pcg32::new(seed ^ 0x5704E);
    // Drawn and discarded: this draw once picked the replacement policy,
    // and keeping it keeps the seeded stream, hence `storerep.txt`. Every
    // world here fits one data page, so no policy ever chose a victim.
    let _ = rng.chance(0.5);
    let mut eng = StorageEngine::new(2 + rng.index(3));
    for _ in 0..3 + rng.index(4) {
        let mut ops = Vec::new();
        for _ in 0..2 + rng.index(4) {
            let mut value = vec![0u8; 4 + rng.index(44)];
            rng.fill_bytes(&mut value);
            ops.push(StoreOp::Put { key: rng.below(24), value });
        }
        eng.apply(&ops).expect("setup transactions commit");
    }
    let anchor: Vec<StoreOp> = VICTIM_KEYS
        .iter()
        .map(|&key| {
            let mut value = vec![0u8; 8 + rng.index(16)];
            rng.fill_bytes(&mut value);
            StoreOp::Put { key, value }
        })
        .collect();
    eng.apply(&anchor).expect("anchor transaction commits");
    eng
}

/// The victim transaction: overwrite two anchored keys, delete the
/// third, insert a fresh one. Every op journals exactly one record and
/// every op changes state, so the committed and rolled-back references
/// always differ.
fn victim_ops(seed: u64) -> Vec<StoreOp> {
    let mut rng = Pcg32::new(seed ^ 0x7AC71);
    let mut value = |n: usize| {
        let mut v = vec![0u8; n];
        rng.fill_bytes(&mut v);
        v
    };
    vec![
        StoreOp::Put { key: VICTIM_KEYS[0], value: value(12) },
        StoreOp::Delete { key: VICTIM_KEYS[1] },
        StoreOp::Put { key: 100 + seed % 7, value: value(20) },
        StoreOp::Put { key: VICTIM_KEYS[2], value: value(9) },
    ]
}

/// Replay one (seed, crash point) cell without observability.
#[must_use]
pub fn run_cell(seed: u64, point: CrashPoint) -> StoreCellReport {
    run_cell_inner(seed, point, None)
}

/// Replay one cell with an [`Obs`] hub armed on the engine, so the page
/// IO, log forces and WAL replay appear as cycle-billed registry
/// counters (`store.pool.*`, `store.wal.replay_len`, `store.recovery`).
#[must_use]
pub fn run_cell_observed(seed: u64, point: CrashPoint) -> (StoreCellReport, Obs) {
    let handle = Obs::new(obs::CostModel::pentium()).into_handle();
    let report = run_cell_inner(seed, point, Some(handle.clone()));
    let obs = Obs::try_unwrap(handle)
        .unwrap_or_else(|_| unreachable!("the engine is dropped before the hub is unwrapped"));
    (report, obs)
}

/// The settled state of an observed crash-replay cell: the recovered
/// engine is kept alive (disarmed) so `sys.pool` can be queried over its
/// buffer pool after recovery.
#[derive(Debug)]
pub struct StoreWorld {
    /// The cell outcome, equal to [`run_cell`]'s report.
    pub report: StoreCellReport,
    /// The unwrapped hub (trace + metrics of the crash and recovery).
    pub obs: Obs,
    /// The recovered engine, up and settled.
    pub engine: StorageEngine,
}

/// Like [`run_cell_observed`], but returns the settled [`StoreWorld`]
/// instead of dropping the recovered engine.
#[must_use]
pub fn run_cell_with_state(seed: u64, point: CrashPoint) -> StoreWorld {
    let handle = Obs::new(obs::CostModel::pentium()).into_handle();
    let (report, mut engine) = run_cell_full(seed, point, Some(handle.clone()));
    engine.disarm_obs();
    let obs = Obs::try_unwrap(handle)
        .unwrap_or_else(|_| unreachable!("the engine is disarmed before the hub is unwrapped"));
    StoreWorld { report, obs, engine }
}

fn run_cell_inner(seed: u64, point: CrashPoint, obs: Option<obs::ObsHandle>) -> StoreCellReport {
    run_cell_full(seed, point, obs).0
}

fn run_cell_full(
    seed: u64,
    point: CrashPoint,
    obs: Option<obs::ObsHandle>,
) -> (StoreCellReport, StorageEngine) {
    let base = seeded_engine(seed);
    let victim = victim_ops(seed);

    // The two references: the world with the victim committed crash-free,
    // and the world as it stood before the victim began.
    let mut committed_ref = base.clone();
    committed_ref.apply(&victim).expect("the crash-free reference commits");
    let committed_digest = committed_ref.state_digest().expect("reference engine is up");
    let mut rolled_back_ref = base.clone();
    let rolled_back_digest = rolled_back_ref.state_digest().expect("reference engine is up");

    let mut eng = base;
    if let Some(h) = &obs {
        eng.arm_obs(h.clone());
    }

    // Drive the victim into the crash. Mid-rollback cells take the
    // explicit-abort path so an undo chain is in flight for the crash to
    // strike; during-recovery cells crash at the commit edge (ops logged,
    // no commit record) and then crash *again* inside the recovery scan.
    let result = match point {
        CrashPoint::MidRollback { .. } => {
            let mut hook = PlannedCrash::new(point);
            eng.apply_then_abort_crashable(&victim, &mut hook)
        }
        CrashPoint::DuringRecovery { .. } => {
            let mut hook = PlannedCrash::new(CrashPoint::BeforeCommit);
            eng.apply_crashable(&victim, &mut hook)
        }
        _ => {
            let mut hook = PlannedCrash::new(point);
            eng.apply_crashable(&victim, &mut hook)
        }
    };
    debug_assert_eq!(
        result,
        Err(StoreError::Crashed),
        "every cell's victim transaction must end in a crash"
    );
    debug_assert!(eng.is_down(), "the crash takes the engine down");

    // Recover (repeatedly, if recovery itself crashes) until the engine
    // is back up, then witness idempotence with one more recovery. The
    // settling pass always rescans the full WAL, so its stats subsume
    // any prefix a crashed pass managed before dying.
    let mut first_hook = PlannedCrash::new(point);
    let mut nocrash = NoCrash;
    let mut recover_calls = 1u32;
    let settled: RecoveryStats = loop {
        let hook: &mut dyn store::CrashHook =
            if recover_calls == 1 && matches!(point, CrashPoint::DuringRecovery { .. }) {
                &mut first_hook
            } else {
                &mut nocrash
            };
        match eng.recover(hook) {
            Ok(stats) => break stats,
            Err(e) => {
                debug_assert_eq!(e, StoreError::Crashed, "recovery only fails by crashing");
                debug_assert!(eng.is_down(), "a crashed recovery leaves the engine down");
                recover_calls += 1;
            }
        }
    };
    let recovered_digest = eng.state_digest().expect("settled engine is up");

    let replay = eng.recover(&mut NoCrash).expect("replaying a settled recovery succeeds");
    let replay_noop =
        replay == settled && eng.state_digest().expect("engine stays up") == recovered_digest;

    let report = StoreCellReport {
        seed,
        point,
        recovered_digest,
        committed_digest,
        rolled_back_digest,
        replayed: settled.replayed,
        redone: settled.redone,
        undone: settled.undone,
        pages_rebuilt: settled.pages_rebuilt,
        recover_calls,
        replay_noop,
    };
    (report, eng)
}

/// Replay the full matrix: every [`GOLDEN_SEEDS`] seed through every
/// [`crash_points`] crash point.
#[must_use]
pub fn sweep() -> Vec<StoreCellReport> {
    let mut cells = Vec::new();
    for &seed in &GOLDEN_SEEDS {
        for &point in &crash_points() {
            cells.push(run_cell(seed, point));
        }
    }
    cells
}

/// The golden transcript of a sweep: one line per cell.
#[must_use]
pub fn render_matrix(cells: &[StoreCellReport]) -> String {
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
    fn every_point_lands_committed_or_rolled_back_never_hybrid() {
        for &point in &crash_points() {
            let cell = run_cell(7, point);
            assert!(cell.consistent(), "cell must settle cleanly: {}", cell.render_line());
            match point {
                CrashPoint::AfterCommit => {
                    assert!(cell.committed(), "a crash after commit rolls forward");
                }
                _ => assert!(cell.rolled_back(), "a crash before commit rolls back: {point}"),
            }
        }
    }

    #[test]
    fn references_differ_so_a_hybrid_cannot_hide() {
        for &seed in &GOLDEN_SEEDS {
            let mut committed = seeded_engine(seed);
            committed.apply(&victim_ops(seed)).unwrap();
            let mut base = seeded_engine(seed);
            assert_ne!(
                committed.state_digest().unwrap(),
                base.state_digest().unwrap(),
                "seed {seed}: references must be distinguishable"
            );
        }
    }

    #[test]
    fn during_recovery_cells_take_two_recoveries() {
        let cell = run_cell(7, CrashPoint::DuringRecovery { after_undos: 1 });
        assert_eq!(cell.recover_calls, 2, "the crashed recovery must be resumed");
        assert!(cell.rolled_back());
        assert!(cell.replay_noop);
    }

    #[test]
    fn cells_are_deterministic() {
        let point = CrashPoint::MidPlan { after_steps: 3 };
        assert_eq!(run_cell(42, point), run_cell(42, point));
    }

    #[test]
    fn observed_cells_match_unobserved_and_bill_the_replay() {
        let point = CrashPoint::BeforeCommit;
        let plain = run_cell(17, point);
        let (observed, obs) = run_cell_observed(17, point);
        assert_eq!(plain, observed, "observability must not perturb recovery");
        assert_eq!(
            obs.metrics.counter("store.wal.replay_len"),
            (plain.replayed + plain.replayed) as u64,
            "settling + idempotence replays both bill their scan"
        );
        assert!(obs.metrics.counter("store.crash") >= 1);
        assert!(obs.metrics.counter("store.recovery") >= 2);
    }
}
