//! Crash-replay conformance: every (seed × crash point) cell of the
//! adaptation-journal recovery matrix.
//!
//! The paper's transactional promise — "the switch can be backed off if
//! something goes wrong" — is only as strong as its survival of a node
//! crash *mid-switch*. Each cell here boots the Figure 4 docked session
//! with seed-perturbed component state, arms a [`PlannedCrash`] at one
//! journal-record boundary, executes the docked→wireless switchover
//! through the write-ahead journal, crashes, recovers, and then checks
//! the one invariant that matters:
//!
//! > the recovered runtime is byte-identical to either the committed or
//! > the rolled-back reference — never a hybrid — and recovering again
//! > is a no-op.
//!
//! [`sweep`] replays the full matrix ([`GOLDEN_SEEDS`] ×
//! [`crash_points`]); [`render_matrix`] is the golden-diffed transcript;
//! [`run_cell_observed`] additionally yields the cycle-accounted trace
//! (the `compkit:recover` span) the bench snapshot prices recovery from.
//! [`supervised_storyline`] is the companion chaos scenario exercising
//! the patia supervision layer (failure detector, circuit breaker,
//! restart probes) under a node death, revival and partition timeline.

use crate::coverage::unfired;
use crate::scenario::chaos::ChaosParams;
use crate::scenario::{FailBindTo, GOLDEN_SEEDS};
use adl::diff::{diff, ReconfigurationPlan};
use adl::figures::{docked_session, fig4_document, wireless_session};
use adm_rng::Pcg32;
use compkit::adaptivity::{AdaptivityManager, SwitchError};
use compkit::journal::{CrashPoint, NoCrash, PlannedCrash, RecoveryOutcome};
use compkit::runtime::{BasicFactory, Runtime};
use compkit::state::StateManager;
use faultsim::{Fault, FaultPlan};
use obs::{Obs, ObsHandle};
use patia::atom::AtomId;
use patia::workload::FlashCrowd;

/// The crash points every seed is replayed through: mid-plan (early and
/// deep), both commit edges, mid-rollback, and a crash *during* the
/// recovery itself.
#[must_use]
pub fn crash_points() -> Vec<CrashPoint> {
    vec![
        CrashPoint::MidPlan { after_steps: 1 },
        CrashPoint::MidPlan { after_steps: 3 },
        CrashPoint::BeforeCommit,
        CrashPoint::AfterCommit,
        CrashPoint::MidRollback { after_undos: 1 },
        CrashPoint::DuringRecovery { after_undos: 1 },
    ]
}

/// One cell of the crash-replay matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashCellReport {
    /// The state-perturbation seed.
    pub seed: u64,
    /// Where the crash struck.
    pub point: CrashPoint,
    /// The settled recovery outcome (never `Crashed`: a cell that
    /// crashes during recovery recovers again until it settles).
    pub outcome: RecoveryOutcome,
    /// Digest of the runtime after recovery settled.
    pub recovered_digest: u64,
    /// Digest of the crash-free committed reference.
    pub committed_digest: u64,
    /// Digest of the pre-switchover (rolled-back) reference.
    pub rolled_back_digest: u64,
    /// Journal records scanned by the first recovery.
    pub records_scanned: usize,
    /// Total steps undone across all recovery passes.
    pub undone: usize,
    /// How many `recover()` calls it took to settle (1, or 2 when the
    /// recovery itself was crashed).
    pub recover_calls: u32,
    /// Whether one further `recover()` after settling was a no-op — the
    /// idempotence witness.
    pub replay_noop: bool,
    /// Unfired crash hooks at teardown (empty in every healthy cell — an
    /// armed-but-unreached point means the cell tested nothing).
    pub unfired: Vec<String>,
}

impl CrashCellReport {
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

    /// The never-hybrid invariant: recovery landed on exactly one of the
    /// two references, replaying recovery changed nothing, and every
    /// armed crash fired.
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
        format!(
            "seed={} point={} outcome={} landed={} scanned={} undone={} recoveries={} replay_noop={}",
            self.seed,
            self.point,
            self.outcome,
            landed,
            self.records_scanned,
            self.undone,
            self.recover_calls,
            self.replay_noop,
        )
    }
}

/// Boot the Figure 4 docked session on a journalled manager and perturb
/// every component's state bytes from `seed`, so each seed recovers a
/// *different* world and a digest collision cannot mask a hybrid.
/// Returns the world plus the docked→wireless switchover plan.
fn seeded_world(seed: u64) -> (Runtime, StateManager, AdaptivityManager, ReconfigurationPlan) {
    let doc = fig4_document();
    let mut rt = Runtime::new();
    let mut am = AdaptivityManager::new();
    am.attach_journal();
    let mut sm = StateManager::new();
    let boot = diff(&rt.configuration(), &docked_session(&doc));
    am.execute(&mut rt, &boot, &mut BasicFactory, &mut sm, 0).expect("docked boot is fault-free");
    let mut rng = Pcg32::new(seed);
    let names: Vec<String> = rt.instance_names().map(str::to_owned).collect();
    for name in names {
        let mut state = vec![0u8; 8 + rng.index(24)];
        rng.fill_bytes(&mut state);
        rt.component_mut(&name).expect("booted instance exists").state = state;
    }
    let plan = diff(&rt.configuration(), &wireless_session(&doc));
    (rt, sm, am, plan)
}

/// The two reference digests for a seed: the world after a crash-free
/// committed switchover, and the world as it stood before the plan (what
/// a complete rollback must restore bit-for-bit).
fn reference_digests(seed: u64) -> (u64, u64) {
    let (mut rt, mut sm, mut am, plan) = seeded_world(seed);
    let rolled_back = rt.digest();
    am.execute(&mut rt, &plan, &mut BasicFactory, &mut sm, 1)
        .expect("the crash-free reference switchover commits");
    (rt.digest(), rolled_back)
}

/// Replay one (seed, crash point) cell without observability.
#[must_use]
pub fn run_cell(seed: u64, point: CrashPoint) -> CrashCellReport {
    run_cell_inner(seed, point, None)
}

/// Replay one cell with an [`Obs`] hub armed on the Adaptivity Manager,
/// so the crash and every recovery pass appear as cycle-billed
/// `compkit:switch` / `compkit:recover` spans and `compkit.recovery.*`
/// registry counters.
#[must_use]
pub fn run_cell_observed(seed: u64, point: CrashPoint) -> (CrashCellReport, Obs) {
    let handle = Obs::new(obs::CostModel::pentium()).into_handle();
    let report = run_cell_inner(seed, point, Some(handle.clone()));
    let obs = Obs::try_unwrap(handle)
        .unwrap_or_else(|_| unreachable!("the manager is dropped before the hub is unwrapped"));
    (report, obs)
}

fn run_cell_inner(seed: u64, point: CrashPoint, obs: Option<ObsHandle>) -> CrashCellReport {
    let (committed_digest, rolled_back_digest) = reference_digests(seed);
    let (mut rt, mut sm, mut am, plan) = seeded_world(seed);
    if let Some(h) = &obs {
        am.arm_obs(h.clone());
    }

    // Drive the switchover into the crash. Mid-rollback cells first need
    // a plain forward failure (the last bind refuses) so a rollback is
    // in flight for the crash to strike; during-recovery cells crash at
    // the commit edge so the journal is left fully applied, then crash
    // *again* inside the first recovery pass.
    let needs_abort = matches!(point, CrashPoint::MidRollback { .. });
    let in_recovery = matches!(point, CrashPoint::DuringRecovery { .. });
    // The Fig. 4 switchover's last bind always names its instance.
    let target = plan.bind.last().and_then(|b| b.to.instance.clone()).filter(|_| needs_abort);
    let mut hook = PlannedCrash::new(if in_recovery { CrashPoint::BeforeCommit } else { point });
    let result = am.execute_crashable(
        &mut rt,
        &plan,
        &mut BasicFactory,
        &mut sm,
        1,
        &mut FailBindTo { target },
        &mut hook,
    );
    debug_assert!(
        matches!(result, Err(SwitchError::Crashed { .. })),
        "every cell's switchover must end in a crash, got {result:?}"
    );

    // Recover (repeatedly, if recovery itself crashes) until the outcome
    // settles, then witness idempotence with one more no-op recovery.
    let mut recovery_hook = PlannedCrash::new(point);
    let first = if in_recovery {
        am.recover(&mut rt, &mut sm, &mut recovery_hook)
    } else {
        am.recover(&mut rt, &mut sm, &mut NoCrash)
    };
    let mut recover_calls = 1;
    let mut undone = first.undone;
    let mut outcome = first.outcome;
    while outcome == RecoveryOutcome::Crashed {
        let next = am.recover(&mut rt, &mut sm, &mut NoCrash);
        recover_calls += 1;
        undone += next.undone;
        outcome = next.outcome;
    }
    let replay = am.recover(&mut rt, &mut sm, &mut NoCrash);

    // Teardown coverage audit: every armed hook must have fired.
    let mut armed = vec![("switch", &hook)];
    if in_recovery {
        armed.push(("recovery", &recovery_hook));
    }
    CrashCellReport {
        seed,
        point,
        outcome,
        recovered_digest: rt.digest(),
        committed_digest,
        rolled_back_digest,
        records_scanned: first.scanned,
        undone,
        recover_calls,
        replay_noop: replay.noop(),
        unfired: unfired(&armed),
    }
}

/// Replay the full matrix: every [`GOLDEN_SEEDS`] seed through every
/// [`crash_points`] crash point.
#[must_use]
pub fn sweep() -> Vec<CrashCellReport> {
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
pub fn render_matrix(cells: &[CrashCellReport]) -> String {
    let mut out = String::new();
    for c in cells {
        out.push_str(&c.render_line());
        out.push('\n');
    }
    out
}

/// The supervision chaos storyline: a flash crowd on atom 123 while wp1
/// is partitioned away (alive but unreachable — the case plain BEST
/// cannot see) and node2 dies outright, both later healed/revived.
/// Driven through [`crate::scenario::chaos::run_observed`], its trace
/// carries the `detector:*`, `circuit:*` and `restart:*` instants the
/// supervision conformance tier asserts over.
#[must_use]
pub fn supervised_storyline(seed: u64) -> ChaosParams {
    let plan = FaultPlan::new(seed)
        .at(50, Fault::Partition { island: vec!["wp1".to_owned()] })
        .at(70, Fault::NodeDeath { node: "node2".to_owned() })
        .at(120, Fault::Heal { island: vec!["wp1".to_owned()] })
        .at(140, Fault::NodeRevival { node: "node2".to_owned() });
    ChaosParams {
        plan,
        ticks: 260,
        crowd: Some(FlashCrowd { from: 40, to: 160, target: AtomId(123), multiplier: 30.0 }),
        workload_seed: seed,
        ..ChaosParams::default()
    }
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
            let (committed, rolled_back) = reference_digests(seed);
            assert_ne!(committed, rolled_back, "seed {seed}: references must be distinguishable");
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
    fn every_armed_hook_fires_and_an_unfired_one_fails_the_cell() {
        let clean = run_cell(7, CrashPoint::DuringRecovery { after_undos: 1 });
        assert!(clean.unfired.is_empty(), "both hooks fired: {:?}", clean.unfired);
        let line = clean.render_line();
        let cell = CrashCellReport { unfired: vec!["switch: after-commit".to_owned()], ..clean };
        assert!(!cell.consistent(), "an unreached point fails the cell");
        assert_eq!(cell.render_line(), line, "the golden line format is unchanged");
    }

    #[test]
    fn cells_are_deterministic() {
        let point = CrashPoint::MidPlan { after_steps: 3 };
        assert_eq!(run_cell(42, point), run_cell(42, point));
    }

    #[test]
    fn observed_cells_match_unobserved_and_bill_recovery() {
        let point = CrashPoint::BeforeCommit;
        let plain = run_cell(17, point);
        let (observed, obs) = run_cell_observed(17, point);
        assert_eq!(plain, observed, "observability must not perturb recovery");
        assert!(obs.tracer.events().iter().any(|e| e.name == "recover"));
        assert!(obs.metrics.counter("compkit.recovery.runs") >= 1);
    }
}
