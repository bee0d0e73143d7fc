//! Chaos conformance harness: a seeded fault plan driven through the
//! Patia fleet while the Table 2 constraints adapt around it.
//!
//! > "At an architectural level the system must be able to cope with units
//! > failing – perhaps mid way through answering a query."
//!
//! [`run`] replays a [`FaultPlan`] against the paper fleet tick by tick —
//! the driver lands that tick's faults *before* the server's tick, so the
//! storyline is unambiguous — and returns a [`ChaosReport`] aggregating
//! the server's per-tick [`TickStats`]. Everything is seeded: the same
//! plan and workload seed produce an identical report, which the
//! `chaos_e2e` determinism test asserts byte for byte.

use adl::ast::{Binding, PortRef};
use adl::diff::ReconfigurationPlan;
use compkit::adaptivity::AdaptivityManager;
use compkit::runtime::{BasicFactory, Runtime};
use compkit::state::StateManager;
use faultsim::{FaultPlan, FaultSpace, PatiaDriver};
use obs::{Obs, ObsHandle, Primitive, Profile};
use patia::atom::AtomId;
use patia::server::{PatiaServer, ServerConfig, SwitchKind, TickStats};
use patia::workload::{FlashCrowd, RequestGen};
use std::collections::BTreeMap;

/// Chaos run parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosParams {
    /// The fault storyline to replay.
    pub plan: FaultPlan,
    /// Ticks to run.
    pub ticks: u64,
    /// Optional flash crowd riding on top of the faults.
    pub crowd: Option<FlashCrowd>,
    /// Baseline request rate per tick.
    pub base_rate: f64,
    /// Client bandwidth seen by constraint 595.
    pub client_bandwidth_kbps: f64,
    /// Whether the Table 2 constraints are active.
    pub adaptive: bool,
    /// Seed for the request generator (independent of the plan seed so a
    /// fault timeline can be replayed under different workloads).
    pub workload_seed: u64,
    /// Whether the atoms sit on a persistent storage engine: the atom
    /// store is persisted at boot and every routing decision reads its
    /// atom's record through the buffer pool, so page IO joins the bill.
    pub storage: bool,
}

impl Default for ChaosParams {
    fn default() -> Self {
        Self {
            plan: FaultPlan::new(0),
            ticks: 300,
            crowd: None,
            base_rate: 4.0,
            client_bandwidth_kbps: 500.0,
            adaptive: true,
            workload_seed: 2,
            storage: false,
        }
    }
}

/// The Table 2 flash-crowd scenario: no injected faults, just the paper's
/// load spike on atom 123 with the constraints adapting around it. One
/// definition shared by the golden-trace tier, `figures --trace/--flame`,
/// and the bench-trajectory gate, so they all measure the same run.
#[must_use]
pub fn paper_flash_crowd() -> ChaosParams {
    ChaosParams {
        plan: FaultPlan::new(0),
        ticks: 400,
        crowd: Some(FlashCrowd { from: 50, to: 250, target: AtomId(123), multiplier: 30.0 }),
        ..ChaosParams::default()
    }
}

/// The CI chaos matrix scenario: a seeded random fault storyline over the
/// paper fleet plus a flash crowd (mirrors `chaos_e2e` scenario 7). The
/// golden seeds are [`super::GOLDEN_SEEDS`]. A fault plan carries no crash
/// points: the `crashrep` matrix drives every compkit crash point and
/// `txnrep` every 2PC crash point directly.
#[must_use]
pub fn ci_chaos(seed: u64) -> ChaosParams {
    let fleet: Vec<String> =
        ["node1", "node2", "node3", "wp1", "wp2"].iter().map(|s| (*s).to_owned()).collect();
    let space = FaultSpace {
        links: vec![
            ("node1".to_owned(), "node2".to_owned()),
            ("node2".to_owned(), "node3".to_owned()),
            ("node1".to_owned(), "wp1".to_owned()),
        ],
        nodes: fleet,
        atoms: vec![123, 153],
        components: Vec::new(),
        horizon: 250,
        incidents: 10,
    };
    ChaosParams {
        plan: FaultPlan::random(seed, &space),
        ticks: 300,
        crowd: Some(FlashCrowd { from: 60, to: 180, target: AtomId(123), multiplier: 20.0 }),
        ..ChaosParams::default()
    }
}

/// Aggregated outcome of a chaos run.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosReport {
    /// The rendered fault timeline ([`FaultPlan::render`]).
    pub timeline: String,
    /// The timeline's FNV fingerprint ([`FaultPlan::digest`]).
    pub plan_digest: u64,
    /// Every tick's stats, in order — determinism tests compare these
    /// wholesale.
    pub per_tick: Vec<TickStats>,
    /// Requests that arrived.
    pub arrivals: u64,
    /// Requests completed.
    pub completed: u64,
    /// Requests dropped (counted, never silent).
    pub dropped: u64,
    /// Requests still queued when the run ended.
    pub queued_at_end: u64,
    /// SWITCH events (migrations + spreads + evacuations) performed.
    pub migrations: u64,
    /// Agents evacuated off dead nodes.
    pub evacuations: u64,
    /// SWITCH attempts that failed (denied, unreachable, no destination).
    pub failed_switches: u64,
    /// Failed attempts that were retries of an earlier failure.
    pub switch_retries: u64,
    /// Requests served degraded while an incident was open.
    pub degraded: u64,
    /// Whether each atom's [`PatiaServer::switches`] counter equals the
    /// switch events observed for it in the per-tick stats.
    pub switches_consistent: bool,
    /// Reconfiguration transactions the compkit Adaptivity Manager
    /// committed while mirroring the run (the boot transaction plus one
    /// per SWITCH event).
    pub reconfigs_committed: u64,
    /// Reconfiguration transactions that rolled back (zero in a healthy
    /// run: the glue's plans are always consistent with the runtime).
    pub reconfigs_rolled_back: u64,
}

impl ChaosReport {
    /// The conservation invariant: every arrival is accounted for as
    /// completed, dropped, or still queued — none silently lost.
    #[must_use]
    pub fn conserved(&self) -> bool {
        self.arrivals == self.completed + self.dropped + self.queued_at_end
    }
}

/// Replay `p.plan` against the paper fleet for `p.ticks` ticks.
#[must_use]
pub fn run(p: &ChaosParams) -> ChaosReport {
    run_full(p, None).0
}

/// Like [`run`], but with an [`Obs`] hub armed on the server so the run
/// yields its full cycle-accounted trace and metrics registry alongside
/// the report. Arming observability must not perturb the run: the report
/// is equal to [`run`]'s for the same parameters (asserted in `obs_e2e`).
#[must_use]
pub fn run_observed(p: &ChaosParams) -> (ChaosReport, Obs) {
    let handle = Obs::new(obs::CostModel::pentium()).into_handle();
    let report = run_full(p, Some(handle.clone())).0;
    let mut obs = Obs::try_unwrap(handle)
        .unwrap_or_else(|_| unreachable!("the server is dropped before the hub is unwrapped"));
    // Fold the finished trace into the cycle-attribution profile and
    // publish the per-category totals, so the metric snapshot and the
    // trace agree on where the cycles went (`profile.self_cycles.*`).
    Profile::build(obs.tracer.events(), obs.clock()).publish(&mut obs.metrics);
    (report, obs)
}

/// The settled state of an observed chaos run, kept alive so the system
/// tables (`sys.supervision`, `sys.switches`, `sys.pool`, ...) can be
/// queried over it after the storyline ends. The report and [`Obs`] are
/// byte-identical to [`run_observed`]'s for the same parameters.
#[derive(Debug)]
pub struct ChaosWorld {
    /// The aggregated run outcome, equal to [`run`]'s report.
    pub report: ChaosReport,
    /// The unwrapped hub: finished trace, metrics (profile published),
    /// final cycle clock.
    pub obs: Obs,
    /// The served fleet as the run left it — supervisor circuits, queues,
    /// and (when `p.storage`) the storage engine's buffer pool intact.
    pub server: PatiaServer,
    /// The adaptation glue with its journal, for `sys.switches`.
    pub am: AdaptivityManager,
}

/// Like [`run_observed`], but instead of dropping the machine it returns
/// the settled [`ChaosWorld`] so callers can serve the machine's own
/// telemetry through query.
#[must_use]
pub fn run_with_state(p: &ChaosParams) -> ChaosWorld {
    let handle = Obs::new(obs::CostModel::pentium()).into_handle();
    let (report, mut server, mut am) = run_full(p, Some(handle.clone()));
    server.disarm_obs();
    am.disarm_obs();
    let mut obs = Obs::try_unwrap(handle)
        .unwrap_or_else(|_| unreachable!("the server and glue are disarmed before unwrapping"));
    Profile::build(obs.tracer.events(), obs.clock()).publish(&mut obs.metrics);
    ChaosWorld { report, obs, server, am }
}

/// The glue component instance standing for a fleet node.
fn host_instance(node: &str) -> String {
    format!("host:{node}")
}

/// The glue component instance standing for an atom's service.
fn atom_instance(atom: AtomId) -> String {
    format!("atom:{}", atom.0)
}

/// The binding that records "this atom's service runs on this node".
fn glue_binding(atom: AtomId, node: &str) -> Binding {
    Binding {
        from: PortRef::on(&atom_instance(atom), "route"),
        to: PortRef::on(&host_instance(node), "slot"),
    }
}

fn run_full(
    p: &ChaosParams,
    obs: Option<ObsHandle>,
) -> (ChaosReport, PatiaServer, AdaptivityManager) {
    let (net, atoms, constraints) = ServerConfig::paper_fleet();
    let config = ServerConfig { adaptive: p.adaptive, work_per_request: 400 };
    let mut server = PatiaServer::new(net, atoms, constraints, config);
    if let Some(h) = &obs {
        server.arm_obs(h.clone());
    }
    if p.storage {
        server.attach_store(store::StorageEngine::new(8)).expect("the atom store persists at boot");
    }
    let driver = PatiaDriver::new(p.plan.clone());
    driver.arm(&mut server);

    // The component-runtime mirror: one `host:<node>` instance per fleet
    // device, one `atom:<id>` instance per served atom, and a
    // `route -- slot` binding recording each agent placement. Every SWITCH
    // the server performs is then re-expressed as a transactional
    // reconfiguration through the Adaptivity Manager — the paper's
    // "migration encloses a committed bind/unbind transaction" — and the
    // glue runs identically armed or disarmed, so it cannot perturb the
    // report.
    let mut rt = Runtime::new();
    let mut am = AdaptivityManager::new();
    // Write-ahead journalling on: every mirrored reconfiguration leaves a
    // checkpointed journal, so a crash replay (`scenario::crashrep`)
    // could recover any of these transactions.
    am.attach_journal();
    let mut sm = StateManager::new();
    let mut factory = BasicFactory;
    if let Some(h) = &obs {
        am.arm_obs(h.clone());
    }
    let mut boot = ReconfigurationPlan::default();
    for d in server.network().devices() {
        boot.start.push((host_instance(&d.name), "Host".to_owned()));
    }
    for atom in server.served_atoms() {
        boot.start.push((atom_instance(atom), "Agent".to_owned()));
        for agent in server.agents(atom) {
            boot.bind.push(glue_binding(atom, &agent.node));
        }
    }
    let boot_span = obs.as_ref().map(|o| {
        let mut o = o.borrow_mut();
        let s = o.begin("chaos", "boot");
        o.charge(Primitive::Branch);
        s
    });
    let booted = am.execute(&mut rt, &boot, &mut factory, &mut sm, 0);
    if let (Some(o), Some(span)) = (&obs, boot_span) {
        o.borrow_mut().end_with(
            span,
            vec![
                ("outcome", if booted.is_ok() { "committed" } else { "rolled_back" }.to_owned()),
                ("instances", boot.start.len().to_string()),
            ],
        );
    }
    let mut gen =
        RequestGen::new(vec![AtomId(123), AtomId(153)], 1.0, p.base_rate, p.workload_seed);
    if let Some(crowd) = p.crowd {
        gen = gen.with_crowd(crowd);
    }
    let mut report = ChaosReport {
        timeline: p.plan.render(),
        plan_digest: p.plan.digest(),
        per_tick: Vec::with_capacity(p.ticks as usize),
        arrivals: 0,
        completed: 0,
        dropped: 0,
        queued_at_end: 0,
        migrations: 0,
        evacuations: 0,
        failed_switches: 0,
        switch_retries: 0,
        degraded: 0,
        switches_consistent: false,
        reconfigs_committed: 0,
        reconfigs_rolled_back: 0,
    };
    let mut per_atom: BTreeMap<AtomId, u32> = BTreeMap::new();
    for t in 1..=p.ticks {
        driver.apply(&mut server, t);
        let st = server.tick(&gen.tick(t), p.client_bandwidth_kbps);
        report.arrivals += st.arrivals as u64;
        report.completed += st.latencies.len() as u64;
        report.dropped += st.faults.dropped;
        report.migrations += st.migrations.len() as u64;
        report.evacuations += st.faults.evacuations;
        report.failed_switches += st.faults.failed_switches;
        report.switch_retries += st.faults.switch_retries;
        report.degraded += st.faults.degraded;
        for ev in &st.migrations {
            *per_atom.entry(ev.atom).or_default() += 1;
            // Mirror the SWITCH as a transactional reconfiguration: a
            // migration or evacuation moves the placement binding; a
            // spread adds one (the source agent stays).
            let mut plan = ReconfigurationPlan::default();
            if ev.kind != SwitchKind::Spread {
                plan.unbind.push(glue_binding(ev.atom, &ev.from));
            }
            plan.bind.push(glue_binding(ev.atom, &ev.to));
            let span = obs.as_ref().map(|o| {
                let mut o = o.borrow_mut();
                let s = o.begin("chaos", "migration");
                o.charge(Primitive::Branch);
                s
            });
            let result = am.execute(&mut rt, &plan, &mut factory, &mut sm, t);
            if let (Some(o), Some(span)) = (&obs, span) {
                o.borrow_mut().end_with(
                    span,
                    vec![
                        ("atom", ev.atom.0.to_string()),
                        ("kind", ev.kind.instant_name().to_owned()),
                        ("from", ev.from.clone()),
                        ("to", ev.to.clone()),
                        (
                            "outcome",
                            if result.is_ok() { "committed" } else { "rolled_back" }.to_owned(),
                        ),
                    ],
                );
            }
        }
        report.per_tick.push(st);
    }
    report.queued_at_end = server.queued_requests();
    report.switches_consistent = [AtomId(123), AtomId(153)]
        .iter()
        .all(|a| server.switches(*a) == per_atom.get(a).copied().unwrap_or(0));
    report.reconfigs_committed = am.committed();
    report.reconfigs_rolled_back = am.rolled_back();
    (report, server, am)
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultsim::Fault;

    #[test]
    fn fault_free_run_conserves_and_stays_consistent() {
        let r = run(&ChaosParams { ticks: 150, ..ChaosParams::default() });
        assert!(
            r.conserved(),
            "arrivals {} != {} + {} + {}",
            r.arrivals,
            r.completed,
            r.dropped,
            r.queued_at_end
        );
        assert!(r.switches_consistent);
        assert_eq!(r.dropped, 0);
        assert_eq!(r.failed_switches, 0);
    }

    #[test]
    fn node_death_run_is_deterministic_and_conserved() {
        let plan = FaultPlan::new(9)
            .at(30, Fault::NodeDeath { node: "node1".into() })
            .at(90, Fault::NodeRevival { node: "node1".into() });
        let params = ChaosParams { plan, ticks: 200, ..ChaosParams::default() };
        let (a, b) = (run(&params), run(&params));
        assert_eq!(a, b, "same plan + workload seed must replay identically");
        assert!(a.conserved());
        assert!(a.switches_consistent);
    }
}
