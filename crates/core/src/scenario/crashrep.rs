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
//! restart probes) under a crash/restart/partition timeline.

use crate::scenario::chaos::ChaosParams;
use crate::scenario::GOLDEN_SEEDS;
use adl::diff::{diff, ReconfigurationPlan};
use adl::figures::{docked_session, fig4_document, wireless_session};
use adm_rng::Pcg32;
use compkit::adaptivity::{AdaptivityManager, NoFaults, StepFaults, SwitchError};
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
    /// two references, and replaying recovery changed nothing.
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

/// A deterministic fingerprint of a runtime: every instance (name, type,
/// start tick, state bytes) and every binding, in canonical order.
#[must_use]
pub fn runtime_digest(rt: &Runtime) -> u64 {
    let mut s = String::new();
    for name in rt.instance_names() {
        let c = rt.component(name).expect("listed instance exists");
        s.push_str(name);
        s.push(':');
        s.push_str(&c.ty);
        s.push('@');
        s.push_str(&c.started_at.to_string());
        s.push('=');
        for b in &c.state {
            s.push_str(&format!("{b:02x}"));
        }
        s.push('\n');
    }
    for b in rt.bindings() {
        s.push_str(&format!("{} -- {}\n", b.from, b.to));
    }
    obs::fnv1a(s.as_bytes())
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
    let rolled_back = runtime_digest(&rt);
    am.execute(&mut rt, &plan, &mut BasicFactory, &mut sm, 1)
        .expect("the crash-free reference switchover commits");
    (runtime_digest(&rt), rolled_back)
}

/// Fails the bind whose providing instance matches `target` — the
/// forward failure that sends a mid-rollback cell into its rollback.
#[derive(Debug)]
struct FailBindTo {
    target: Option<String>,
}

impl StepFaults for FailBindTo {
    fn fail_bind(&mut self, b: &adl::ast::Binding) -> Option<String> {
        (b.to.instance == self.target).then(|| "injected bind failure".to_owned())
    }
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
    let mut recovery_hook = NoCrash;
    let mut planned_recovery_crash;
    let result = match point {
        CrashPoint::MidRollback { .. } => {
            let target =
                plan.bind.last().expect("switchover plan binds something").to.instance.clone();
            let mut faults = FailBindTo { target };
            let mut crash = PlannedCrash::new(point);
            am.execute_crashable(
                &mut rt,
                &plan,
                &mut BasicFactory,
                &mut sm,
                1,
                &mut faults,
                &mut crash,
            )
        }
        CrashPoint::DuringRecovery { .. } => {
            planned_recovery_crash = PlannedCrash::new(point);
            let mut crash = PlannedCrash::new(CrashPoint::BeforeCommit);
            let r = am.execute_crashable(
                &mut rt,
                &plan,
                &mut BasicFactory,
                &mut sm,
                1,
                &mut NoFaults,
                &mut crash,
            );
            return settle(
                seed,
                point,
                committed_digest,
                rolled_back_digest,
                rt,
                sm,
                am,
                r,
                &mut planned_recovery_crash,
            );
        }
        _ => {
            let mut crash = PlannedCrash::new(point);
            am.execute_crashable(
                &mut rt,
                &plan,
                &mut BasicFactory,
                &mut sm,
                1,
                &mut NoFaults,
                &mut crash,
            )
        }
    };
    settle(
        seed,
        point,
        committed_digest,
        rolled_back_digest,
        rt,
        sm,
        am,
        result,
        &mut recovery_hook,
    )
}

/// Recover (repeatedly, if recovery itself crashes) until the outcome
/// settles, then witness idempotence with one more no-op recovery.
#[allow(clippy::too_many_arguments)]
fn settle(
    seed: u64,
    point: CrashPoint,
    committed_digest: u64,
    rolled_back_digest: u64,
    mut rt: Runtime,
    mut sm: StateManager,
    mut am: AdaptivityManager,
    result: Result<compkit::adaptivity::SwitchReport, SwitchError>,
    first_hook: &mut dyn compkit::journal::CrashHook,
) -> CrashCellReport {
    debug_assert!(
        matches!(result, Err(SwitchError::Crashed { .. })),
        "every cell's switchover must end in a crash, got {result:?}"
    );
    let first = am.recover(&mut rt, &mut sm, first_hook);
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
    CrashCellReport {
        seed,
        point,
        outcome,
        recovered_digest: runtime_digest(&rt),
        committed_digest,
        rolled_back_digest,
        records_scanned: first.records_scanned,
        undone,
        recover_calls,
        replay_noop: replay.noop(),
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
/// cannot see) and node2 crashes outright, both later healed/restarted.
/// Driven through [`crate::scenario::chaos::run_observed`], its trace
/// carries the `detector:*`, `circuit:*` and `restart:*` instants the
/// supervision conformance tier asserts over.
#[must_use]
pub fn supervised_storyline(seed: u64) -> ChaosParams {
    let plan = FaultPlan::new(seed)
        .at(50, Fault::Partition { island: vec!["wp1".to_owned()] })
        .at(70, Fault::NodeCrash { node: "node2".to_owned(), point: CrashPoint::BeforeCommit })
        .at(120, Fault::Heal { island: vec!["wp1".to_owned()] })
        .at(140, Fault::NodeRestart { node: "node2".to_owned() });
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
