//! The `mega-crowd` scenario: ten million requests through the event
//! engine in seconds of wall-clock.
//!
//! The paper's flash crowd is a few thousand requests; this scenario asks
//! the same question at four orders of magnitude — can the adaptation
//! machinery (BEST placement, SWITCH-on-CPU, supervision) hold up when a
//! cohort of thousands of clients is modelled as arrival-rate *flows*
//! rather than materialised request vectors? Four staggered flows with
//! ramps and burst windows push ~10.5M requests at a sixteen-node fleet,
//! a node dies and revives mid-storm, and the run ends with a long drain
//! the engine skips wholesale. Wall-clock time is deliberately *not* part
//! of the report — callers (the bench, the scale test) measure it around
//! [`run`], keeping the report itself deterministic.

use obs::{Obs, Profile};
use patia::atom::{Atom, AtomId, AtomStore, AtomType};
use patia::constraint::{AtomConstraint, ConstraintLogic};
use patia::engine::{EngineTotals, EventEngine};
use patia::server::{PatiaServer, ServerConfig};
use patia::workload::{FlowBurst, FlowSpec};
use ubinet::{BandwidthProfile, Device, DeviceKind, Link, LinkKind, Network};

/// The atom the crowd hammers.
pub const CROWD_ATOM: AtomId = AtomId(777);

/// Mega-crowd parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct MegaParams {
    /// Server-class nodes in the fleet.
    pub servers: usize,
    /// Typing-pool workstations (SWITCH destinations).
    pub workstations: usize,
    /// The flows making up the crowd.
    pub flows: Vec<FlowSpec>,
    /// Tick at which one server dies mid-storm (`None` for a calm run).
    pub kill_at: Option<u64>,
    /// Tick at which the dead server revives.
    pub revive_at: Option<u64>,
    /// Run horizon: the engine may stop earlier once the wheel drains.
    pub horizon: u64,
    /// Client bandwidth seen by version selection.
    pub client_bandwidth_kbps: f64,
}

/// The canonical mega-crowd: four staggered, overlapping flows of rate
/// 2600/tick for 1000 ticks each — ~10.5M requests — with ramp-up edges
/// and a ×2 burst window apiece, one mid-storm node death/revival, and a
/// post-storm drain the engine skips.
#[must_use]
pub fn mega_crowd() -> MegaParams {
    let flow = |start: u64, burst_at: u64| FlowSpec {
        atom: CROWD_ATOM,
        start,
        end: start + 1_000,
        rate: 2_600.0,
        ramp: 100,
        burst: Some(FlowBurst { at: burst_at, len: 60, multiplier: 2.0 }),
    };
    MegaParams {
        servers: 12,
        workstations: 4,
        flows: vec![flow(10, 400), flow(260, 700), flow(510, 900), flow(760, 1_200)],
        kill_at: Some(600),
        revive_at: Some(900),
        horizon: 200_000,
        client_bandwidth_kbps: 500.0,
    }
}

/// Outcome of a mega-crowd run. Deterministic: no wall-clock inside.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MegaReport {
    /// The engine's cumulative counters.
    pub totals: EngineTotals,
    /// Requests still queued when the horizon was reached.
    pub queued_at_end: u64,
    /// Requests the flows declared in total.
    pub offered: u64,
}

impl MegaReport {
    /// Conservation at scale: every offered request is admitted, and
    /// every admitted one is completed, dropped, or still queued.
    #[must_use]
    pub fn conserved(&self) -> bool {
        self.offered == self.totals.arrivals
            && self.totals.arrivals
                == self.totals.completed + self.totals.dropped + self.queued_at_end
    }
}

/// Build the mega fleet: `servers` server-class nodes plus `workstations`
/// typing-pool machines, fully meshed, all replicating the crowd atom.
fn mega_fleet(p: &MegaParams) -> (Network, AtomStore, Vec<AtomConstraint>) {
    let mut names: Vec<String> = (1..=p.servers).map(|i| format!("srv{i:02}")).collect();
    let pool: Vec<String> = (1..=p.workstations).map(|i| format!("wk{i}")).collect();
    let mut net = Network::new();
    for n in &names {
        net.add_device(Device::new(n, DeviceKind::Server));
    }
    for n in &pool {
        net.add_device(Device::new(n, DeviceKind::Workstation));
    }
    let all: Vec<String> = names.iter().chain(pool.iter()).cloned().collect();
    for (i, a) in all.iter().enumerate() {
        for b in all.iter().skip(i + 1) {
            net.add_link(Link::new(a, b, LinkKind::Wired, BandwidthProfile::Constant(10_000.0), 1));
        }
    }
    let mut atoms = AtomStore::new();
    let mut page = Atom::new(CROWD_ATOM, "crowd.html", AtomType::Html, 40_000);
    for (v, n) in all.iter().enumerate() {
        page.add_replica(v as u32 + 1, n);
    }
    page.constraint_ids = vec![700, 705];
    atoms.insert(page);
    let constraints = vec![
        AtomConstraint {
            id: 700,
            atom: CROWD_ATOM,
            logic: ConstraintLogic::SelectBest { candidates: names.clone() },
        },
        AtomConstraint {
            id: 705,
            atom: CROWD_ATOM,
            logic: ConstraintLogic::SwitchOnCpu {
                threshold: 0.9,
                candidates: {
                    names.extend(pool);
                    names
                },
            },
        },
    ];
    (net, atoms, constraints)
}

fn build_engine(p: &MegaParams) -> EventEngine {
    let (net, atoms, constraints) = mega_fleet(p);
    // work_per_request 1: a server clears 10k requests/tick, so the
    // overlapping flows (~10.4k/tick) force SWITCH spreads to keep up.
    let server = PatiaServer::new(
        net,
        atoms,
        constraints,
        ServerConfig { adaptive: true, work_per_request: 1 },
    );
    let mut engine = EventEngine::new(server);
    for &f in &p.flows {
        engine.add_flow(f);
    }
    // Kill the node the crowd agent booted on — the storm's mid-flight
    // incident always strands live state, whatever BEST chose.
    let home = engine.server().agents(CROWD_ATOM)[0].node.clone();
    if let Some(t) = p.kill_at {
        engine.schedule_kill(t, &home);
    }
    if let Some(t) = p.revive_at {
        engine.schedule_revive(t, &home);
    }
    engine
}

fn report_of(engine: &EventEngine, p: &MegaParams) -> MegaReport {
    MegaReport {
        totals: *engine.totals(),
        queued_at_end: engine.server().queued_requests(),
        offered: p.flows.iter().map(FlowSpec::total_requests).sum(),
    }
}

/// Run the mega-crowd through the event engine.
#[must_use]
pub fn run(p: &MegaParams) -> MegaReport {
    let mut engine = build_engine(p);
    engine.run_to(p.horizon, p.client_bandwidth_kbps);
    report_of(&engine, p)
}

/// [`run`] with an [`Obs`] hub armed, for cycle accounting: yields the
/// report plus the hub (trace, metrics, cycle-attribution profile).
#[must_use]
pub fn run_observed(p: &MegaParams) -> (MegaReport, Obs) {
    let handle = Obs::new(obs::CostModel::pentium()).into_handle();
    let mut engine = build_engine(p);
    engine.server_mut().arm_obs(handle.clone());
    engine.run_to(p.horizon, p.client_bandwidth_kbps);
    let report = report_of(&engine, p);
    drop(engine);
    let mut obs = Obs::try_unwrap(handle)
        .unwrap_or_else(|_| unreachable!("the engine is dropped before the hub is unwrapped"));
    Profile::build(obs.tracer.events(), obs.clock()).publish(&mut obs.metrics);
    (report, obs)
}

/// The mega-crowd at 1/100 the arrival rate: the same fleet, flow shape,
/// ramps, bursts, and mid-storm death/revival, small enough for the unit
/// and systab tiers to replay in milliseconds. The full 10M-request run
/// lives in the `scale` tier.
#[must_use]
pub fn mini_crowd() -> MegaParams {
    let mut p = mega_crowd();
    for f in &mut p.flows {
        f.rate /= 100.0;
    }
    p
}

/// The settled state of an observed mega-crowd run, kept alive so the
/// system tables can query the engine's timer wheel (`sys.timers`) and
/// the fleet's supervision circuits after the storm.
#[derive(Debug)]
pub struct MegaWorld {
    /// The run outcome, equal to [`run`]'s report.
    pub report: MegaReport,
    /// The unwrapped hub with the profile published.
    pub obs: Obs,
    /// The event engine as the run left it — wheel drained, server
    /// settled.
    pub engine: EventEngine,
}

/// Like [`run_observed`], but returns the settled [`MegaWorld`] instead
/// of dropping the engine.
#[must_use]
pub fn run_with_state(p: &MegaParams) -> MegaWorld {
    let handle = Obs::new(obs::CostModel::pentium()).into_handle();
    let mut engine = build_engine(p);
    engine.server_mut().arm_obs(handle.clone());
    engine.run_to(p.horizon, p.client_bandwidth_kbps);
    let report = report_of(&engine, p);
    engine.server_mut().disarm_obs();
    let mut obs = Obs::try_unwrap(handle)
        .unwrap_or_else(|_| unreachable!("the server is disarmed before the hub is unwrapped"));
    Profile::build(obs.tracer.events(), obs.clock()).publish(&mut obs.metrics);
    MegaWorld { report, obs, engine }
}

/// Pool capacities the pressure sweep walks: thrashing, partial
/// residency, and a pool big enough to hold the whole working set.
pub const POOL_SWEEP_CAPACITIES: [usize; 3] = [4, 16, 64];

/// One point of the buffer-pool-pressure sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolPressurePoint {
    /// Pool capacity in frames.
    pub capacity: usize,
    /// Fetches served from a resident frame.
    pub hits: u64,
    /// Fetches that had to read stable storage.
    pub misses: u64,
    /// Hit rate in whole percent.
    pub hit_pct: u64,
}

/// The mega-crowd's storage-pressure companion: the same skewed-crowd
/// shape (80% of reads hammer 20% of the keys), replayed over a ~32-page
/// record set at each [`POOL_SWEEP_CAPACITIES`] capacity. Everything is
/// seeded, so the hit rates are exact, benchable numbers — and they must
/// be monotone in capacity, which the unit tier asserts.
#[must_use]
pub fn pool_pressure_sweep() -> Vec<PoolPressurePoint> {
    use adm_rng::Pcg32;
    use store::{StorageEngine, StoreOp};

    const RECORDS: u64 = 256;
    const ACCESSES: u64 = 20_000;
    POOL_SWEEP_CAPACITIES
        .iter()
        .map(|&capacity| {
            let mut eng = StorageEngine::new(capacity);
            let mut rng = Pcg32::new(0x9001);
            // ~480-byte records: eight to a page, so 256 records span
            // ~32 pages and only the largest capacity holds them all.
            for key in 0..RECORDS {
                let mut value = vec![0u8; 480];
                rng.fill_bytes(&mut value);
                eng.apply(&[StoreOp::Put { key, value }]).expect("sweep records fit a page");
            }
            let loaded = eng.pool_stats();
            for _ in 0..ACCESSES {
                let key = if rng.chance(0.8) { rng.below(RECORDS / 5) } else { rng.below(RECORDS) };
                eng.get(key).expect("sweep engine stays up").expect("sweep keys exist");
            }
            let s = eng.pool_stats();
            let (hits, misses) = (s.hits - loaded.hits, s.misses - loaded.misses);
            PoolPressurePoint {
                capacity,
                hits,
                misses,
                hit_pct: hits * 100 / (hits + misses).max(1),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature crowd keeps the unit tier fast while pinning the
    /// scenario's invariants; the full 10M run lives in the `scale` tier.
    fn mini() -> MegaParams {
        mini_crowd()
    }

    #[test]
    fn mini_crowd_conserves_and_drains() {
        let r = run(&mini());
        assert!(r.conserved(), "conservation failed: {r:?}");
        assert_eq!(r.queued_at_end, 0, "the drain must finish inside the horizon");
        assert_eq!(r.totals.dropped, 0, "a fully-replicated atom never drops");
        assert!(r.totals.evacuations >= 1, "the srv02 death must evacuate its agent");
        assert!(
            r.totals.ticks_processed < 3_000,
            "once quiescent the wheel drains and the run ends — the 200k-tick \
             horizon must never be walked ({} processed)",
            r.totals.ticks_processed
        );
    }

    #[test]
    fn mini_crowd_is_deterministic() {
        assert_eq!(run(&mini()), run(&mini()));
    }

    #[test]
    fn full_crowd_offers_at_least_ten_million() {
        let p = mega_crowd();
        let offered: u64 = p.flows.iter().map(FlowSpec::total_requests).sum();
        assert!(offered >= 10_000_000, "the mega-crowd must offer >=10M requests ({offered})");
    }

    #[test]
    fn observed_run_matches_unobserved_report() {
        let p = mini();
        let (observed, _obs) = run_observed(&p);
        assert_eq!(observed, run(&p), "arming observability must not perturb the run");
    }

    #[test]
    fn pool_pressure_sweep_is_monotone_and_deterministic() {
        let sweep = pool_pressure_sweep();
        assert_eq!(sweep.len(), POOL_SWEEP_CAPACITIES.len());
        for pair in sweep.windows(2) {
            assert!(
                pair[0].hit_pct <= pair[1].hit_pct,
                "a bigger pool can only hit more: {pair:?}"
            );
        }
        let first = sweep.first().expect("sweep is non-empty");
        let last = sweep.last().expect("sweep is non-empty");
        assert!(first.misses > 0, "the thrashing point must actually fault");
        assert!(
            last.hit_pct >= 99,
            "a pool holding the whole working set must run hot, got {}%",
            last.hit_pct
        );
        assert_eq!(sweep, pool_pressure_sweep(), "the sweep must replay identically");
    }
}
