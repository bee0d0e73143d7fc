//! `txn_switch`: a three-shard ping-pong of cross-shard SWITCHes through
//! the unbundled transaction core, every 64th transaction crashed at a
//! rotating protocol boundary and settled by recovery.

use crate::catalog::LayerRows;
use crate::harness::{span_median_ns, Checks, RoundOutcome, Scale, Timed, Workload};
use crate::layers;
use crate::stats;
use crate::trace::{Folded, Recorder};
use adl::ast::Binding;
use adl::diff::ReconfigurationPlan;
use adm_core::scenario::txnrep::{crash_points, seeded_world, shard_digests, shard_handles};
use adm_rng::Pcg32;
use compkit::journal::RecoveryOutcome;
use compkit::{NoFaults, StepFaults};
use obs::Obs;
use patia::atom::AtomId;
use patia::shard::{cross_shard_plans, host_instance};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use txn::{DataComponent, NoTxnCrash, PlannedTxnCrash, TransactionCore, TxnCrashPoint, TxnError};

/// Shards in the world.
pub const TOPOLOGY: usize = 3;
/// Transactions per round.
const TXNS: usize = 4_096;
/// One transaction in this many is crashed.
const CRASH_EVERY: usize = 64;
/// The virtual time every transaction runs at: constant, so the world is
/// periodic and two reference digests describe it for ever.
const NOW: u64 = 50;

type Shards = BTreeMap<u32, DataComponent>;
type Plans = BTreeMap<u32, ReconfigurationPlan>;

/// Merge the per-shard plans of several atom migrations.
fn merged_plans(moves: &[(AtomId, &str, &str)]) -> Plans {
    let handles = shard_handles(TOPOLOGY);
    let mut plans = Plans::new();
    for &(atom, from, to) in moves {
        for (id, p) in cross_shard_plans(&handles, atom, from, to) {
            let merged = plans.entry(id).or_default();
            merged.unbind.extend(p.unbind);
            merged.stop.extend(p.stop);
            merged.start.extend(p.start);
            merged.bind.extend(p.bind);
        }
    }
    plans
}

/// Fails every bind landing on `target` — the forward failure that puts
/// an abort in flight for the mid-undo and mid-abort crash points.
#[derive(Debug)]
struct FailBindTo {
    target: Option<String>,
}

impl StepFaults for FailBindTo {
    fn fail_bind(&mut self, b: &Binding) -> Option<String> {
        (self.target.is_some() && b.to.instance == self.target)
            .then(|| "injected bind failure".to_owned())
    }
}

/// The seeded inputs: the world's state perturbation, the two plan sets,
/// and which transactions crash where.
#[derive(Debug)]
pub struct Inputs {
    seed: u64,
    /// Atoms 123 and 153 out to `wp1`...
    out: Plans,
    /// ...and back home.
    back: Plans,
    /// `(transaction index, crash point)`, ascending.
    crashes: Vec<(usize, TxnCrashPoint)>,
    txns: usize,
}

impl Inputs {
    /// Draw the crash schedule from `seed`: one crash per block of
    /// [`CRASH_EVERY`] transactions, at a seeded offset, rotating through
    /// the crash points from a seeded start.
    #[must_use]
    pub fn generate(seed: u64, scale: Scale) -> Self {
        let mut rng = Pcg32::new(seed);
        let txns = scale.n(TXNS).max(2 * CRASH_EVERY);
        let points = crash_points(TOPOLOGY);
        let first = rng.index(points.len());
        let crashes = (0..txns / CRASH_EVERY)
            .map(|block| {
                let at = block * CRASH_EVERY + rng.index(CRASH_EVERY);
                (at, points[(first + block) % points.len()])
            })
            .collect();
        Self {
            seed,
            out: merged_plans(&[(AtomId(123), "node1", "wp1"), (AtomId(153), "node2", "wp1")]),
            back: merged_plans(&[(AtomId(123), "wp1", "node1"), (AtomId(153), "wp1", "node2")]),
            crashes,
            txns,
        }
    }

    /// Fingerprint of the inputs.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let (mut shards, _) = seeded_world(self.seed, TOPOLOGY);
        obs::fnv1a(format!("{:?}{:?}", shard_digests(&mut shards), self.crashes).as_bytes())
    }
}

/// `txn_switch`.
pub struct TxnSwitch {
    inputs: Inputs,
    /// Per-shard digests with the atoms away on `wp1` / back home, taken
    /// from a crash-free reference cycle. A settled world equals one of
    /// them on *every* shard, or it is a hybrid.
    away_ref: Vec<u64>,
    home_ref: Vec<u64>,
    /// Counters of the last round's core (exact: every round is the
    /// same).
    grants: u64,
    conflicts: u64,
    appended: u64,
}

impl TxnSwitch {
    /// Generate inputs and take the two reference digests.
    ///
    /// # Panics
    /// If the crash-free reference cycle does not commit or is not
    /// periodic — the workload's premise.
    #[must_use]
    pub fn setup(seed: u64, scale: Scale) -> Self {
        let inputs = Inputs::generate(seed, scale);
        let (mut shards, _) = seeded_world(seed, TOPOLOGY);
        let mut tc = TransactionCore::new();
        let mut cycle = |plans: &Plans, shards: &mut Shards| {
            tc.execute_cross_shard(shards, plans, NOW, &mut NoFaults, &mut NoTxnCrash)
                .expect("the crash-free reference transaction commits");
            shard_digests(shards)
        };
        let away_ref = cycle(&inputs.out, &mut shards);
        let home_ref = cycle(&inputs.back, &mut shards);
        assert_eq!(cycle(&inputs.out, &mut shards), away_ref, "the ping-pong must be periodic");
        assert_eq!(cycle(&inputs.back, &mut shards), home_ref, "the ping-pong must be periodic");
        assert!(
            away_ref.iter().zip(&home_ref).all(|(a, h)| a != h),
            "the references must differ on every shard or a hybrid could hide"
        );
        Self { inputs, away_ref, home_ref, grants: 0, conflicts: 0, appended: 0 }
    }

    /// A fresh world brought to the home reference state (one untimed
    /// cycle: the booted world differs from it by start times only).
    fn fresh_world(&self) -> (Shards, TransactionCore) {
        let (mut shards, _) = seeded_world(self.inputs.seed, TOPOLOGY);
        let mut tc = TransactionCore::new();
        for plans in [&self.inputs.out, &self.inputs.back] {
            tc.execute_cross_shard(&mut shards, plans, NOW, &mut NoFaults, &mut NoTxnCrash)
                .expect("the reference cycle commits");
        }
        (shards, tc)
    }

    /// Crash one transaction at `point`, recover until settled, and check
    /// the recovery contract. Returns whether the transaction committed.
    #[allow(clippy::too_many_arguments)]
    fn crashed_txn(
        &self,
        tc: &mut TransactionCore,
        shards: &mut Shards,
        away: bool,
        point: TxnCrashPoint,
        rec: &mut Recorder,
        checks: &mut Checks,
        excluded: &mut Duration,
    ) -> bool {
        let plans = if away { &self.inputs.back } else { &self.inputs.out };
        // Mid-undo and mid-abort points need an abort in flight: the last
        // shard to bind refuses. A during-recovery point crashes at the
        // commit edge first, then again inside the first recovery pass.
        let needs_abort =
            matches!(point, TxnCrashPoint::MidUndo { .. } | TxnCrashPoint::MidAbortFanout { .. });
        let in_recovery = matches!(point, TxnCrashPoint::DuringRecovery { .. });
        let target = if away { "node2" } else { "wp1" };
        let mut faults = FailBindTo { target: needs_abort.then(|| host_instance(target)) };
        let exec_point = if in_recovery { TxnCrashPoint::BeforeDecision } else { point };
        let mut hook = PlannedTxnCrash::new(exec_point);
        let span = rec.begin("txn.core.execute_crashed");
        let result = tc.execute_cross_shard(shards, plans, NOW, &mut faults, &mut hook);
        rec.end(span);
        checks.expect(matches!(result, Err(TxnError::Crashed { .. })) && hook.fired(), || {
            format!("a transaction planned to crash at {point} ended as {result:?}")
        });

        let mut recovery_hook = PlannedTxnCrash::new(point);
        let span = rec.begin("txn.core.recover");
        let mut pass = if in_recovery {
            tc.recover(shards, &mut recovery_hook)
        } else {
            tc.recover(shards, &mut NoTxnCrash)
        };
        rec.end(span);
        checks.expect(!in_recovery || recovery_hook.fired(), || {
            format!("the recovery crash planned at {point} never fired")
        });
        while pass.outcome == RecoveryOutcome::Crashed {
            let span = rec.begin("txn.core.recover");
            pass = tc.recover(shards, &mut NoTxnCrash);
            rec.end(span);
        }
        let replay = tc.recover(shards, &mut NoTxnCrash);
        checks.expect(replay.noop(), || format!("a second recover found work: {replay:?}"));

        let checking = Instant::now();
        let digests = shard_digests(shards);
        let committed = digests == if away { &self.home_ref } else { &self.away_ref }[..];
        let rolled_back = digests == if away { &self.away_ref } else { &self.home_ref }[..];
        checks.expect(committed != rolled_back, || {
            format!("HYBRID after a crash at {point}: shard digests {digests:x?}")
        });
        *excluded += checking.elapsed();
        committed
    }
}

impl Workload for TxnSwitch {
    fn round(&mut self, rec: &mut Recorder, checks: &mut Checks) -> RoundOutcome {
        let (mut shards, mut tc) = self.fresh_world();
        let mut away = false;
        let mut crashes = self.inputs.crashes.iter().peekable();
        let mut excluded = Duration::ZERO;
        let timed = Timed::start(rec);
        for i in 0..self.inputs.txns {
            if let Some(&&(_, point)) = crashes.peek().filter(|(at, _)| *at == i) {
                crashes.next();
                if self.crashed_txn(&mut tc, &mut shards, away, point, rec, checks, &mut excluded) {
                    away = !away;
                }
            } else {
                let plans = if away { &self.inputs.back } else { &self.inputs.out };
                let span = rec.begin("txn.core.commit");
                let result =
                    tc.execute_cross_shard(&mut shards, plans, NOW, &mut NoFaults, &mut NoTxnCrash);
                rec.end(span);
                checks.expect(result.is_ok(), || {
                    format!("transaction {i} did not commit: {result:?}")
                });
                away = !away;
            }
            let (held, live) = (tc.locks().held_total(), tc.log().len());
            checks.expect(held == 0 && live == 0, || {
                format!("after transaction {i}: {held} locks leaked, {live} log records live")
            });
        }
        let secs = timed.stop(rec) - excluded.as_secs_f64();

        let digests = shard_digests(&mut shards);
        let want = if away { &self.away_ref } else { &self.home_ref };
        checks.expect(&digests == want, || {
            format!(
                "the round ended on {digests:x?}, not the {} reference",
                if away { "away" } else { "home" }
            )
        });
        self.grants = tc.locks().grants();
        self.conflicts = tc.locks().conflicts();
        self.appended = tc.log().appended_total();
        RoundOutcome { ops: self.inputs.txns as u64, secs }
    }

    fn layer_rows(
        &mut self,
        folded: &BTreeMap<&'static str, Folded>,
        _rounds: u32,
        rows: &mut LayerRows,
    ) {
        rows.set("txn.core.commit_ns", span_median_ns(folded, "txn.core.commit"));
        if let Some(f) = folded.get("txn.core.commit") {
            rows.set("txn.core.commit_p99_us", stats::percentile(&f.durs_ns, 99.0) / 1e3);
        }
        rows.set("txn.core.recover_ns", span_median_ns(folded, "txn.core.recover"));
        rows.set("txn.lock.grants", self.grants as f64);
        rows.set("txn.lock.conflicts", self.conflicts as f64);
        rows.set("txn.log.appended_total", self.appended as f64);

        // The same ping-pong with a hub armed prices a commit in log
        // forces and simulated cycles.
        let (mut shards, mut tc) = self.fresh_world();
        let handle = Obs::new(obs::CostModel::pentium()).into_handle();
        tc.arm_obs(handle.clone());
        let commits = 64u64;
        for i in 0..commits {
            let plans = if i % 2 == 0 { &self.inputs.out } else { &self.inputs.back };
            tc.execute_cross_shard(&mut shards, plans, NOW, &mut NoFaults, &mut NoTxnCrash)
                .expect("the armed ping-pong commits");
        }
        tc.disarm_obs();
        let hub = handle.borrow();
        rows.set(
            "txn.core.log_forces_per_commit",
            hub.metrics.counter("txn.log.force") as f64 / commits as f64,
        );
        rows.set("txn.core.sim_cycles_per_commit", hub.clock() as f64 / commits as f64);

        layers::txn::drive(&self.inputs.out, self.inputs.seed, rows);
    }
}

/// Fingerprint of the inputs `seed` generates.
#[must_use]
pub fn input_digest(seed: u64, scale: Scale) -> u64 {
    Inputs::generate(seed, scale).digest()
}
