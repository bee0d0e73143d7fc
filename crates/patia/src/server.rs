//! The Patia server loop (Figure 7): service agents over a node fleet,
//! monitors feeding gauges, and the Table 2 constraints driving adaptation.

use crate::agent::ServiceAgent;
use crate::atom::{Atom, AtomId, AtomStore, AtomType};
use crate::constraint::{paper_table2, AtomConstraint, ConstraintLogic};
use crate::supervise::{SuperviseConfig, SupervisionEvent, Supervisor};
use compkit::gauge::{Gauge, GaugeBoard, GaugeKind};
use compkit::monitor::Monitor;
use obs::{ObsHandle, Primitive};
use std::collections::BTreeMap;
use std::rc::Rc;
use ubinet::device::{Device, DeviceKind};
use ubinet::link::{BandwidthProfile, Link, LinkKind};
use ubinet::net::Network;
use ubinet::select::best;

/// Server construction parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerConfig {
    /// Whether adaptivity (constraints 455/595) is enabled. With `false`
    /// the server is the static baseline: agents never move and the full
    /// version is always served.
    pub adaptive: bool,
    /// Work units one request costs.
    pub work_per_request: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self { adaptive: true, work_per_request: 400 }
    }
}

impl ServerConfig {
    /// The paper's fleet: `node1`/`node2` are webservers hosting
    /// `Page1.html` (atom 123); `node3` plus two "typing-pool" workstations
    /// host video renditions (atom 153: `videohalf` on node1–3 as versions
    /// 1–3, `videosmall` on node3 as version 4) and replicas of the hot
    /// page for SWITCH targets.
    #[must_use]
    pub fn paper_fleet() -> (Network, AtomStore, Vec<AtomConstraint>) {
        let mut net = Network::new();
        net.add_device(Device::new("node1", DeviceKind::Server));
        net.add_device(Device::new("node2", DeviceKind::Server));
        net.add_device(Device::new("node3", DeviceKind::Server));
        net.add_device(Device::new("wp1", DeviceKind::Workstation));
        net.add_device(Device::new("wp2", DeviceKind::Workstation));
        let names = ["node1", "node2", "node3", "wp1", "wp2"];
        for (i, a) in names.iter().enumerate() {
            for b in names.iter().skip(i + 1) {
                net.add_link(Link::new(
                    a,
                    b,
                    LinkKind::Wired,
                    BandwidthProfile::Constant(10_000.0),
                    1,
                ));
            }
        }
        let mut atoms = AtomStore::new();
        let mut page = Atom::new(AtomId(123), "Page1.html", AtomType::Html, 40_000);
        page.add_replica(1, "node1");
        page.add_replica(2, "node2");
        // The typing pool holds replicas too — the SWITCH destinations.
        page.add_replica(3, "wp1");
        page.add_replica(4, "wp2");
        page.constraint_ids = vec![450, 455];
        atoms.insert(page);
        let mut video = Atom::new(AtomId(153), "video.ram", AtomType::VideoStream, 1_000_000);
        video.add_rendition(1, "node1", 0.5, 500_000);
        video.add_rendition(2, "node2", 0.5, 500_000);
        video.add_rendition(3, "node3", 0.5, 500_000);
        video.add_rendition(4, "node3", 0.2, 150_000);
        video.constraint_ids = vec![595];
        atoms.insert(video);
        // Give the SWITCH constraint the typing pool as candidates, as the
        // paper describes ("a under-utilised machine in the typing pool
        // that contains a replica").
        let mut constraints = paper_table2();
        for c in &mut constraints {
            if let ConstraintLogic::SwitchOnCpu { candidates, .. } = &mut c.logic {
                candidates.extend(["wp1".into(), "wp2".into()]);
            }
        }
        (net, atoms, constraints)
    }
}

/// Fault and degradation counters for one tick. The server never panics on
/// an injected or environmental fault; instead the event is counted here so
/// chaos tests can assert exact, reproducible totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// SWITCH attempts that could not be carried out (denied by a gate,
    /// destination unreachable, or no usable destination).
    pub failed_switches: u64,
    /// Failed SWITCH attempts that were themselves retries of an earlier
    /// failure (attempt two onwards).
    pub switch_retries: u64,
    /// Agents moved off dead nodes through the SWITCH machinery.
    pub evacuations: u64,
    /// Requests served in degraded mode (smallest version) because their
    /// atom was mid-incident.
    pub degraded: u64,
    /// Requests dropped because no agent could ever serve them (unknown
    /// atom, or an atom with no holders).
    pub dropped: u64,
}

/// What kind of SWITCH the server performed — the discriminator trace
/// queries and the reconfiguration glue dispatch on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwitchKind {
    /// A lightly-queued agent moved whole to the destination.
    Migrate,
    /// The service cloned onto an additional node, splitting the queue.
    Spread,
    /// A stranded agent moved off a dead node.
    Evacuate,
}

impl SwitchKind {
    /// The trace-instant name this kind emits (`switch:migrate`, ...).
    #[must_use]
    pub fn instant_name(self) -> &'static str {
        match self {
            Self::Migrate => "switch:migrate",
            Self::Spread => "switch:spread",
            Self::Evacuate => "switch:evacuate",
        }
    }
}

/// One SWITCH carried out during a tick: which atom's agent moved (or
/// spread), what kind of switch it was, and between which nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwitchEvent {
    /// The atom whose agent switched.
    pub atom: AtomId,
    /// Migration, spread, or evacuation.
    pub kind: SwitchKind,
    /// Source node.
    pub from: String,
    /// Destination node.
    pub to: String,
}

/// A tick's completion latencies, run-length encoded: `(latency, count)`
/// runs in completion order, adjacent equal latencies merged. A batch of
/// `n` identical requests completes as one run, so a tick's record costs
/// O(distinct adjacent latencies), not O(requests) — and because the
/// merge is canonical, the same completions recorded one request at a
/// time or a cohort at a time compare equal.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencyRuns {
    runs: Vec<(u64, u64)>,
}

impl LatencyRuns {
    /// Record `count` completions of `latency` ticks each.
    pub fn push(&mut self, latency: u64, count: u64) {
        if count == 0 {
            return;
        }
        match self.runs.last_mut() {
            Some((last, n)) if *last == latency => *n += count,
            _ => self.runs.push((latency, count)),
        }
    }

    /// How many requests completed (the sum of the run counts).
    #[must_use]
    pub fn len(&self) -> usize {
        self.runs.iter().map(|&(_, count)| count as usize).sum()
    }

    /// Whether no request completed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// The `(latency, count)` runs, in completion order.
    #[must_use]
    pub fn runs(&self) -> &[(u64, u64)] {
        &self.runs
    }

    /// Every completion's latency, one item per request, in completion
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.runs.iter().flat_map(|&(latency, count)| std::iter::repeat_n(latency, count as usize))
    }

    /// The p-th percentile (`p` in 0..=1) of the latencies — the value at
    /// rank `round((len - 1) * p)` of the sorted expansion.
    #[must_use]
    pub fn percentile(&self, p: f64) -> Option<u64> {
        let rank = (self.len().checked_sub(1)? as f64 * p).round() as u64;
        let mut sorted = self.runs.clone();
        sorted.sort_unstable();
        let mut below = 0;
        sorted.into_iter().find_map(|(latency, count)| {
            below += count;
            (rank < below).then_some(latency)
        })
    }
}

/// Per-tick observable results.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TickStats {
    /// The tick.
    pub tick: u64,
    /// Requests that arrived.
    pub arrivals: usize,
    /// Requests completed, with their latencies in ticks.
    pub latencies: LatencyRuns,
    /// SWITCH events performed this tick.
    pub migrations: Vec<SwitchEvent>,
    /// Per-node utilisation after processing.
    pub utilisation: BTreeMap<String, f64>,
    /// Version ids served this tick, per atom.
    pub versions_served: BTreeMap<AtomId, BTreeMap<u32, u64>>,
    /// Fault and degradation events this tick.
    pub faults: FaultCounters,
}

/// An injection point for SWITCH failures: consulted just before an agent
/// migration or spread would be carried out. Returning `Some(reason)`
/// denies the switch; the server counts the failure, backs off
/// deterministically, and serves degraded instead of panicking. Production
/// runs arm no gate, so the hook costs one `Option` check per switch.
pub trait SwitchGate: std::fmt::Debug {
    /// Decide whether the switch of `atom`'s agent from `from` to `to` at
    /// `tick` fails. `None` lets it proceed.
    fn deny(&mut self, tick: u64, atom: AtomId, from: &str, to: &str) -> Option<String>;
}

/// Backoff shift cap: retry windows grow 2, 4, 8, 16, 32 ticks and then
/// stay at 32 — bounded and wall-clock-free, so a fault timeline replays
/// identically from the same seed. The supervision layer's restart
/// probes ([`crate::supervise`]) share the same cap, so every retry
/// policy in the crate backs off on one schedule.
pub(crate) const MAX_BACKOFF_SHIFT: u32 = 5;

/// Retry bookkeeping for an atom whose last SWITCH attempt failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RetryState {
    attempts: u32,
    next_at: u64,
}

/// One same-tick arrival group: `decisions` routing decisions for `atom`,
/// each placing `size` identical requests on one agent. A flow batch is
/// one decision of its whole size; a request-driven tick's cohort is one
/// decision per request.
#[derive(Debug, Clone, Copy)]
struct Arrival {
    atom: AtomId,
    decisions: u64,
    size: u64,
}

impl Arrival {
    fn requests(self) -> u64 {
        self.decisions * self.size
    }
}

/// One agent's routing key, read once per arrival group: whether its node
/// is dead, the node's capacity, and the agent's queued work plus what
/// this group's picks have added so far.
#[derive(Debug, Clone, Copy)]
struct RouteSlot {
    dead: u8,
    cap: f64,
    queued_work: u64,
    picks: u64,
}

impl RouteSlot {
    /// Whether this slot beats `other` for the next pick: alive before
    /// dead, then less queued work per unit of capacity.
    fn beats(&self, other: &Self) -> bool {
        self.dead.cmp(&other.dead).then_with(|| self.load().total_cmp(&other.load())).is_lt()
    }

    fn load(&self) -> f64 {
        self.queued_work as f64 / self.cap
    }
}

/// Replay `decisions` greedy join-shortest-queue picks over `slots`: each
/// pick goes to the first slot with the least `(dead, load)` and adds
/// `work_per_pick` to its queued work.
fn replay_jsq(slots: &mut [RouteSlot], decisions: u64, work_per_pick: u64) {
    for _ in 0..decisions {
        let mut best = 0;
        for i in 1..slots.len() {
            if slots[i].beats(&slots[best]) {
                best = i;
            }
        }
        slots[best].picks += 1;
        slots[best].queued_work += work_per_pick;
    }
}

/// The word-copy bill for shipping `words` 32-bit words, saturating at
/// the largest bill the primitive can carry rather than wrapping.
fn copy_words(words: u64) -> Primitive {
    Primitive::CopyWords(u32::try_from(words).unwrap_or(u32::MAX))
}

/// One fleet node's names, spelled out once at construction so a tick
/// formats nothing: the device name, the monitor (and registry gauge) its
/// utilisation is recorded under, and the gauge constraint 455 reads.
#[derive(Debug)]
struct NodeKeys {
    name: String,
    cpu: String,
    util: String,
}

/// The Patia server.
#[derive(Debug)]
pub struct PatiaServer {
    net: Network,
    /// The fleet as of construction, in name order — the nodes the gauge
    /// board has monitors for and the supervisor watches.
    nodes: Vec<NodeKeys>,
    atoms: AtomStore,
    /// Shared so the adaptation pass can walk them while it mutates the
    /// server.
    constraints: Rc<[AtomConstraint]>,
    /// Agents per atom: one initially; SWITCH may *spread* the service
    /// over more nodes during a flash crowd ("dynamically spread its
    /// processing (e.g. to non-Webserver machines like a typing-pools'
    /// word processing computers)").
    agents: BTreeMap<AtomId, Vec<ServiceAgent>>,
    /// The gauge board (public so experiments can attach extra gauges).
    pub board: GaugeBoard,
    config: ServerConfig,
    now: u64,
    /// Injected CPU pressure per node (0..1 of capacity stolen).
    pressure: BTreeMap<String, f64>,
    /// Armed SWITCH-failure injector, if any.
    gate: Option<Box<dyn SwitchGate>>,
    /// Per-atom backoff state after failed switches.
    retry: BTreeMap<AtomId, RetryState>,
    /// Armed observability hub, if any.
    obs: Option<ObsHandle>,
    /// The fleet supervisor: heartbeat failure detection and per-peer
    /// circuit breakers consulted by every BEST placement decision.
    supervisor: Supervisor,
    /// Optional storage engine under the atoms. When attached, every
    /// routing decision reads the atom's stored record through the buffer
    /// pool — page IO becomes part of the serving bill.
    storage: Option<store::StorageEngine>,
    /// Reusable routing keys, one per agent of the atom being routed.
    route_slots: Vec<RouteSlot>,
}

impl PatiaServer {
    /// Build a server. One agent is created per atom, placed by constraint
    /// 450 (`BEST`) where present, else on the atom's first holder. An atom
    /// with no holders gets no agent: requests for it are counted as
    /// dropped at serving time rather than panicking construction.
    #[must_use]
    pub fn new(
        net: Network,
        atoms: AtomStore,
        constraints: Vec<AtomConstraint>,
        config: ServerConfig,
    ) -> Self {
        let mut board = GaugeBoard::new();
        let nodes: Vec<NodeKeys> = net
            .devices()
            .map(|d| NodeKeys {
                name: d.name.clone(),
                cpu: format!("cpu:{}", d.name),
                util: format!("util:{}", d.name),
            })
            .collect();
        for n in &nodes {
            board.add_monitor(Monitor::new(&n.cpu, 16));
            board.add_gauge(Gauge {
                name: n.util.clone(),
                monitor: n.cpu.clone(),
                kind: GaugeKind::Latest,
            });
            // The paper's trend analysis: a rising slope anticipates
            // saturation before it happens.
            board.add_gauge(Gauge {
                name: format!("util_trend:{}", n.name),
                monitor: n.cpu.clone(),
                kind: GaugeKind::Slope(8),
            });
        }
        let mut agents = BTreeMap::new();
        for id in atoms.ids().collect::<Vec<_>>() {
            let Some(atom) = atoms.get(id) else { continue };
            let home = constraints
                .iter()
                .find_map(|c| match (&c.logic, c.atom == id) {
                    (ConstraintLogic::SelectBest { candidates }, true) => {
                        let refs: Vec<&str> = candidates.iter().map(String::as_str).collect();
                        best(&net, &refs).map(str::to_owned)
                    }
                    _ => None,
                })
                .or_else(|| atom.holders().first().map(|s| (*s).to_owned()));
            if let Some(home) = home {
                agents.insert(id, vec![ServiceAgent::new(id, &home)]);
            }
        }
        let supervisor =
            Supervisor::new(SuperviseConfig::default(), nodes.iter().map(|n| n.name.clone()));
        Self {
            net,
            nodes,
            atoms,
            constraints: constraints.into(),
            agents,
            board,
            config,
            now: 0,
            pressure: BTreeMap::new(),
            gate: None,
            retry: BTreeMap::new(),
            obs: None,
            supervisor,
            storage: None,
            route_slots: Vec::new(),
        }
    }

    /// Attach a storage engine under the atoms. The current atom store is
    /// persisted into it as one committed transaction, and from then on
    /// every routing decision reads the atom's record through the buffer
    /// pool (pool hits/misses and page IO billed when observability is armed).
    ///
    /// # Errors
    /// [`store::StoreError`] from the persist transaction.
    pub fn attach_store(
        &mut self,
        mut engine: store::StorageEngine,
    ) -> Result<(), store::StoreError> {
        if let Some(o) = &self.obs {
            engine.arm_obs(o.clone());
        }
        self.atoms.persist_into(&mut engine)?;
        self.storage = Some(engine);
        Ok(())
    }

    /// The attached storage engine, if any.
    #[must_use]
    pub fn storage(&self) -> Option<&store::StorageEngine> {
        self.storage.as_ref()
    }

    /// The fleet supervisor — failure-detector verdicts and circuit
    /// states, as seen after the latest tick's heartbeat round.
    #[must_use]
    pub fn supervisor(&self) -> &Supervisor {
        &self.supervisor
    }

    /// Arm the observability hub: each tick then runs inside a `patia:tick`
    /// span, SWITCH/migration/evacuation events become trace instants with
    /// cycle bills, the `patia.*` registry counters accumulate, and every
    /// node utilisation reading the gauge board records is also published
    /// as the registry gauge `cpu:<node>`. Zero-cost when disarmed, like
    /// [`PatiaServer::arm_switch_gate`].
    pub fn arm_obs(&mut self, obs: ObsHandle) {
        if let Some(engine) = &mut self.storage {
            engine.arm_obs(obs.clone());
        }
        self.obs = Some(obs);
    }

    /// Disarm observability; gauge readings then reach only the board.
    /// The attached storage engine (if any) is disarmed too, so
    /// the hub's handle count drops to the callers' own clones and the
    /// hub can be unwrapped while the server lives on for introspection.
    pub fn disarm_obs(&mut self) {
        if let Some(engine) = &mut self.storage {
            engine.disarm_obs();
        }
        self.obs = None;
    }

    /// Arm a SWITCH-failure injector. Replaces any previous gate.
    pub fn arm_switch_gate(&mut self, gate: Box<dyn SwitchGate>) {
        self.gate = Some(gate);
    }

    /// Kill a node: it serves nothing until revived, and agents stranded on
    /// it evacuate through the SWITCH machinery on the next tick. Returns
    /// `false` if the node is unknown.
    pub fn kill_node(&mut self, node: &str) -> bool {
        match self.net.device_mut(node) {
            Some(d) => {
                d.alive = false;
                self.fault_instant("fault:node_death", node);
                true
            }
            None => false,
        }
    }

    /// Revive a previously killed node.
    pub fn revive_node(&mut self, node: &str) -> bool {
        match self.net.device_mut(node) {
            Some(d) => {
                d.alive = true;
                self.fault_instant("fault:node_revival", node);
                true
            }
            None => false,
        }
    }

    /// Steal `fraction` (0..1) of a node's capacity — injected CPU
    /// pressure. The node's utilisation rises accordingly, which is what
    /// drives constraint 455 to SWITCH agents away.
    pub fn inject_pressure(&mut self, node: &str, fraction: f64) {
        self.pressure.insert(node.to_owned(), fraction.clamp(0.0, 1.0));
        self.fault_instant("fault:pressure", node);
    }

    /// Remove injected CPU pressure from a node.
    pub fn clear_pressure(&mut self, node: &str) {
        self.pressure.remove(node);
        self.fault_instant("fault:pressure_release", node);
    }

    /// Surface the tick's supervision events when armed: each verdict is
    /// a branch the machine took, so it is billed, traced as an instant,
    /// and accumulated in the registry.
    fn note_supervision(&mut self, events: &[SupervisionEvent]) {
        let Some(obs) = &self.obs else { return };
        let mut o = obs.borrow_mut();
        for ev in events {
            o.charge(Primitive::Branch);
            let (name, counter, args) = match ev {
                SupervisionEvent::Suspect { peer, missed } => (
                    "detector:suspect",
                    "patia.detector.suspects",
                    vec![("node", peer.clone()), ("missed", missed.to_string())],
                ),
                SupervisionEvent::Revive { peer } => {
                    ("detector:revive", "patia.detector.revivals", vec![("node", peer.clone())])
                }
                SupervisionEvent::CircuitOpen { peer } => {
                    ("circuit:open", "patia.circuit.opens", vec![("node", peer.clone())])
                }
                SupervisionEvent::CircuitHalfOpen { peer } => {
                    ("circuit:half_open", "patia.circuit.half_opens", vec![("node", peer.clone())])
                }
                SupervisionEvent::CircuitClose { peer } => {
                    ("circuit:close", "patia.circuit.closes", vec![("node", peer.clone())])
                }
                SupervisionEvent::RestartProbe { peer, attempt, next_at } => (
                    "restart:attempt",
                    "patia.restart.probes",
                    vec![
                        ("node", peer.clone()),
                        ("attempt", attempt.to_string()),
                        ("next_at", next_at.to_string()),
                    ],
                ),
            };
            o.instant("patia", name, args);
            o.metrics.counter_add(counter, 1);
        }
    }

    /// Record an injected-fault marker when armed. Deliberately *not*
    /// billed: the fault is environmental, not work the machine performed,
    /// and un-spanned charges would open idle gaps in the cycle
    /// attribution (see `obs::profile`).
    fn fault_instant(&mut self, name: &'static str, node: &str) {
        if let Some(o) = &self.obs {
            o.borrow_mut().instant("patia", name, vec![("node", node.to_owned())]);
        }
    }

    /// The atoms currently served by at least one agent, in id order —
    /// what the reconfiguration glue boots component instances for.
    #[must_use]
    pub fn served_atoms(&self) -> Vec<AtomId> {
        self.agents.iter().filter(|(_, v)| !v.is_empty()).map(|(id, _)| *id).collect()
    }

    /// Requests currently queued across every agent — the in-flight count
    /// chaos tests use to assert conservation (arrivals = completed +
    /// dropped + queued).
    #[must_use]
    pub fn queued_requests(&self) -> u64 {
        self.agents.values().flatten().map(ServiceAgent::queued_requests).sum()
    }

    /// The server's virtual clock: the last tick processed.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Whether a tick with no arrivals would provably be a no-op: nothing
    /// queued, no switch backing off, no injected pressure, every node
    /// alive, and the supervisor fully settled. This is what licenses the
    /// event engine to skip ticks — every skipped tick would have recorded
    /// all-zero utilisation and changed no state.
    #[must_use]
    pub(crate) fn is_quiescent(&self) -> bool {
        self.queued_requests() == 0
            && self.retry.is_empty()
            && self.pressure.is_empty()
            && self.net.devices().all(|d| d.alive)
            && self.supervisor.all_clear()
    }

    /// Re-sample every gauge monitor up to tick `upto`, carrying the last
    /// reading forward — called by the event engine before processing a
    /// tick that follows a skipped-quiescent gap, so windowed gauges
    /// (means, slopes) see the same per-tick series [`PatiaServer::tick`]
    /// would have recorded.
    pub(crate) fn resample_gauges(&mut self, upto: u64) {
        self.board.resample(upto);
    }

    /// Whether an atom is mid-incident: a switch for it is backing off
    /// after a failure, or one of its agents sits on a dead node. Degraded
    /// atoms serve their smallest version rather than drop requests.
    #[must_use]
    pub(crate) fn is_degraded(&self, atom: AtomId) -> bool {
        self.retry.contains_key(&atom)
            || self.agents.get(&atom).is_some_and(|v| {
                v.iter().any(|a| self.net.device(&a.node).is_none_or(|d| !d.alive))
            })
    }

    /// The agents currently serving an atom (one unless the service has
    /// spread).
    #[must_use]
    pub fn agents(&self, atom: AtomId) -> &[ServiceAgent] {
        self.agents.get(&atom).map_or(&[], Vec::as_slice)
    }

    /// Total SWITCH events (migrations + spreads) performed for an atom.
    #[must_use]
    pub fn switches(&self, atom: AtomId) -> u32 {
        self.agents(atom).iter().map(|a| a.migrations).sum::<u32>()
            + self.agents(atom).len().saturating_sub(1) as u32
    }

    /// The node fleet.
    #[must_use]
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Mutable access to the fleet — how fault injectors drop links,
    /// partition islands, and spike latencies underneath the server.
    pub fn network_mut(&mut self) -> &mut Network {
        &mut self.net
    }

    /// Select which version of an atom to serve a client seeing
    /// `bandwidth_kbps` — constraint 595's logic. Falls back to the first
    /// version when no bandwidth constraint governs the atom.
    #[must_use]
    pub fn select_version(&self, atom: AtomId, bandwidth_kbps: f64) -> Option<u32> {
        let a = self.atoms.get(atom)?;
        if self.config.adaptive {
            for c in self.constraints.iter() {
                if c.atom != atom {
                    continue;
                }
                if let ConstraintLogic::BandwidthVersion { lo, hi, preferred, fallback } = &c.logic
                {
                    if bandwidth_kbps > *lo && bandwidth_kbps < *hi {
                        // BEST among the preferred versions' hosts.
                        let hosts: Vec<(&str, u32)> = a
                            .versions
                            .all()
                            .iter()
                            .filter(|v| preferred.contains(&v.id))
                            .map(|v| (v.location.as_str(), v.id))
                            .collect();
                        let chosen = self.best_admitted(hosts.iter().map(|(n, _)| *n))?;
                        return hosts.iter().find(|(n, _)| *n == chosen).map(|(_, id)| *id);
                    }
                    return Some(*fallback);
                }
            }
        }
        a.versions.all().first().map(|v| v.id)
    }

    /// One serving tick: accept `requests`, process, monitor, adapt. Faults
    /// (dead nodes, denied switches, holderless atoms) never panic — they
    /// surface as [`FaultCounters`] in the returned stats.
    ///
    /// The per-request driver API: chaos, the `table2` binary and the
    /// examples serve through it, one call per virtual tick. The requests
    /// are counted per atom, in first-appearance order, and each atom's
    /// `k` requests are routed as one cohort: `k` routing decisions and
    /// `k` scheduler charges, placed on the agents exactly as `k`
    /// request-by-request join-shortest-queue decisions would place them,
    /// but entering each chosen agent's queue as one entry. Request-level
    /// observables (stats, latencies, cycle bills, traces) are those of
    /// the request-by-request loop; queue entry counts are not.
    pub fn tick(&mut self, requests: &[AtomId], client_bandwidth_kbps: f64) -> TickStats {
        let mut cohorts: Vec<Arrival> = Vec::new();
        for &atom in requests {
            match cohorts.iter_mut().find(|c| c.atom == atom) {
                Some(c) => c.decisions += 1,
                None => cohorts.push(Arrival { atom, decisions: 1, size: 1 }),
            }
        }
        self.serve(self.now + 1, &cohorts, client_bandwidth_kbps)
    }

    /// The event-driven serving core: process tick `now` (which may be an
    /// arbitrary jump past [`PatiaServer::now`] when the intervening ticks
    /// were provably quiescent) with `batches` of identical same-tick
    /// arrivals. A batch of `n` requests is one routing decision — the
    /// whole batch goes to one agent — one queue entry, and O(1)
    /// completion arithmetic: how the flow layer's cohorts are served
    /// without per-request loops.
    ///
    /// # Panics
    /// If `now` does not advance the clock.
    pub fn step_at(
        &mut self,
        now: u64,
        batches: &[(AtomId, u64)],
        client_bandwidth_kbps: f64,
    ) -> TickStats {
        let arrivals: Vec<Arrival> =
            batches.iter().map(|&(atom, size)| Arrival { atom, decisions: 1, size }).collect();
        self.serve(now, &arrivals, client_bandwidth_kbps)
    }

    /// The one serving routine behind [`PatiaServer::tick`] and
    /// [`PatiaServer::step_at`].
    fn serve(&mut self, now: u64, arrivals: &[Arrival], client_bandwidth_kbps: f64) -> TickStats {
        assert!(now > self.now, "step_at must advance the clock ({} -> {now})", self.now);
        self.now = now;
        let total: u64 = arrivals.iter().copied().map(Arrival::requests).sum();
        let mut stats = TickStats { tick: now, arrivals: total as usize, ..TickStats::default() };
        let obs = self.obs.clone();
        let tick_span = obs.as_ref().map(|o| o.borrow_mut().begin("patia", format!("tick:{now}")));

        // 0. Supervision first: one heartbeat round updates the failure
        //    detector and circuit breakers, so every BEST decision this
        //    tick consults fresh verdicts. Then recover agents stranded
        //    on dead nodes before routing new work.
        if self.config.adaptive {
            let events = self.supervisor.beat(&self.net, now);
            self.note_supervision(&events);
            self.evacuate_dead(now, &mut stats);
        }

        // 1. Route arrivals to agents, selecting versions per constraint
        //    595. Nothing below reads an agent queue except the routing
        //    itself, so the per-arrival work runs once per arrival group
        //    and is exact for every request in it.
        for &arrival @ Arrival { atom, decisions, .. } in arrivals {
            let n = arrival.requests();
            if n == 0 {
                continue;
            }
            if self.atoms.get(atom).is_none() || self.agents.get(&atom).is_none_or(|v| v.is_empty())
            {
                // Unknown atom, or an atom no agent can ever serve: the
                // drop is counted, not silent.
                stats.faults.dropped += n;
                continue;
            }
            let degraded = self.config.adaptive && self.is_degraded(atom);
            let version = if degraded {
                // Graceful degradation: serve the smallest version rather
                // than drop the request while the incident is resolved.
                stats.faults.degraded += n;
                self.fallback_version(atom)
            } else {
                self.select_version(atom, client_bandwidth_kbps)
            };
            if let Some(version) = version {
                *stats.versions_served.entry(atom).or_default().entry(version).or_default() += n;
            }
            self.route(now, arrival);
            if let Some(o) = &obs {
                // Each routing decision is one scheduler step.
                o.borrow_mut().charge_n(Primitive::SchedSteps(1), decisions);
            }
            if let Some(engine) = &mut self.storage {
                // Version selection consulted the atom's stored record:
                // one pool read per decision, hit or page IO billed by
                // the engine itself.
                for _ in 0..decisions {
                    let _ = engine.get(u64::from(atom.0));
                }
            }
        }

        // 2. Process: each node's capacity is shared among its agents.
        //    Dead nodes have zero capacity; injected CPU pressure shrinks
        //    the effective budget, which is what the gauges then see.
        //    One pass over the agents groups them by the node they sit on,
        //    in (atom, index) order per node; an agent on a node outside
        //    the fleet is served by nobody.
        let mut resident: Vec<Vec<(AtomId, usize)>> = vec![Vec::new(); self.nodes.len()];
        for (id, agents) in &self.agents {
            for (i, a) in agents.iter().enumerate() {
                if let Some(n) = self.node_index(&a.node) {
                    resident[n].push((*id, i));
                }
            }
        }
        for (n, local) in resident.iter().enumerate() {
            let capacity = self.effective_capacity(&self.nodes[n].name).max(0.0) as u64;
            if local.is_empty() {
                self.record_util(n, 0.0, now);
                continue;
            }
            let demand: u64 = local.iter().map(|(id, i)| self.agents[id][*i].queued_work()).sum();
            // Capacity is shared among the agents that actually have work;
            // an idle co-resident agent does not waste a share.
            let active: Vec<(AtomId, usize)> = local
                .iter()
                .copied()
                .filter(|(id, i)| self.agents[id][*i].queued_work() > 0)
                .collect();
            let share = if active.is_empty() { 0 } else { capacity / active.len() as u64 };
            for (id, i) in &active {
                let Some(agent) = self.agents.get_mut(id).and_then(|v| v.get_mut(*i)) else {
                    continue;
                };
                let mut served = 0u64;
                for (arrived, k) in agent.step_grouped(share) {
                    stats.latencies.push(now - arrived, k);
                    served += k;
                }
                if let Some(o) = &obs {
                    // One Store per completed request, billed in one
                    // clock advance (charging emits no events).
                    o.borrow_mut().charge_n(Primitive::Store, served);
                }
            }
            let util = if capacity == 0 { 1.0 } else { (demand as f64 / capacity as f64).min(1.0) };
            self.record_util(n, util, now);
            stats.utilisation.insert(self.nodes[n].name.clone(), util);
            if let Some(d) = self.net.device_mut(&self.nodes[n].name) {
                d.load = util;
            }
        }

        // 3. Adapt: constraint 455 — SWITCH agents off saturated nodes. A
        //    denied or impossible switch is counted, backed off (2, 4, ...
        //    32 ticks, deterministic), and the atom serves degraded until
        //    the switch lands or the pressure subsides.
        if self.config.adaptive {
            let constraints = Rc::clone(&self.constraints);
            for c in constraints.iter() {
                let ConstraintLogic::SwitchOnCpu { threshold, candidates } = &c.logic else {
                    continue;
                };
                let Some(agents) = self.agents.get(&c.atom) else { continue };
                // Find the most saturated agent of this atom.
                let Some((worst_idx, worst_util)) = agents
                    .iter()
                    .enumerate()
                    .map(|(i, a)| {
                        let util = self
                            .node_index(&a.node)
                            .and_then(|n| self.board.gauge_value(&self.nodes[n].util));
                        (i, util.unwrap_or(0.0))
                    })
                    .max_by(|(_, x), (_, y)| x.total_cmp(y))
                else {
                    continue;
                };
                let from = agents[worst_idx].node.clone();
                let occupied: Vec<String> = agents.iter().map(|a| a.node.clone()).collect();
                if worst_util <= *threshold {
                    // The pressure subsided on its own: obsolete any
                    // backoff so the next incident starts fresh.
                    self.retry.remove(&c.atom);
                    continue;
                }
                // The gauge crossed the constraint's threshold: this is
                // the monitors→gauges decision point, and the trace must
                // show it *before* whatever SWITCH it provokes.
                if let Some(o) = &obs {
                    let mut o = o.borrow_mut();
                    o.charge(Primitive::Branch);
                    o.instant(
                        "patia",
                        "gauge:breach",
                        vec![
                            ("atom", c.atom.0.to_string()),
                            ("node", from.clone()),
                            ("util", format!("{worst_util:.3}")),
                        ],
                    );
                }
                if self.retry.get(&c.atom).is_some_and(|r| now < r.next_at) {
                    continue; // waiting out the backoff window
                }
                let unoccupied: Vec<&str> = candidates
                    .iter()
                    .map(String::as_str)
                    .filter(|n| !occupied.iter().any(|o| o == *n))
                    .collect();
                if unoccupied.is_empty() {
                    continue; // fully spread — nowhere left to switch to
                }
                let Some(dest) = self.best_admitted(unoccupied).map(str::to_owned) else {
                    // Candidates remain but none is usable (dead, flat,
                    // or isolated behind an open circuit).
                    self.note_switch_failure(c.atom, now, &mut stats);
                    continue;
                };
                let dest_load = self.net.device(&dest).map_or(1.0, |d| d.load);
                // Only act if the destination is meaningfully less loaded.
                if dest_load >= worst_util - 0.2 {
                    continue;
                }
                // Shipping the agent needs a live path — during a partition
                // BEST still nominates an unreachable destination.
                if self.net.hop_distance(&from, &dest).is_err() {
                    self.note_switch_failure(c.atom, now, &mut stats);
                    continue;
                }
                // A lightly-queued agent is a bystander on a busy node:
                // SWITCH moves it whole. A heavily-queued agent *is* the
                // load: SWITCH spreads the service — clone the agent onto
                // the destination and split the queue (the data AND
                // processing state shipping the paper describes).
                let kind = if self.agents[&c.atom][worst_idx].queued_requests() <= 2 {
                    SwitchKind::Migrate
                } else {
                    SwitchKind::Spread
                };
                self.switch_agent(c.atom, worst_idx, kind, dest, &mut stats);
            }
        }

        // Uniform counter semantics: `stats.faults` stays the per-tick
        // delta; the registry counters, when armed, keep the running total.
        if let Some(o) = &obs {
            let mut o = o.borrow_mut();
            o.metrics.counter_add("patia.requests.arrived", stats.arrivals as u64);
            o.metrics.counter_add("patia.requests.completed", stats.latencies.len() as u64);
            o.metrics.counter_add("patia.requests.dropped", stats.faults.dropped);
            o.metrics.counter_add("patia.requests.degraded", stats.faults.degraded);
            o.metrics.counter_add("patia.switch.performed", stats.migrations.len() as u64);
            o.metrics.counter_add("patia.switch.failed", stats.faults.failed_switches);
            o.metrics.counter_add("patia.switch.retries", stats.faults.switch_retries);
            o.metrics.counter_add("patia.switch.evacuations", stats.faults.evacuations);
            // One grouped histogram update per run of equal latencies.
            for &(latency, k) in stats.latencies.runs() {
                o.metrics.observe_n("patia.latency_ticks", latency, k);
            }
            if let Some(span) = tick_span {
                o.end_with(
                    span,
                    vec![
                        ("arrivals", stats.arrivals.to_string()),
                        ("completed", stats.latencies.len().to_string()),
                        ("migrations", stats.migrations.len().to_string()),
                    ],
                );
            }
        }
        stats
    }

    /// Place `arrival`'s routing decisions on its atom's agents. Each
    /// decision goes to the live agent whose node has the least pending
    /// work per unit of capacity (capacity-weighted join-shortest-queue) —
    /// a typing-pool workstation must not receive a webserver-sized share
    /// of a flash crowd. Agents on dead nodes are a last resort: the
    /// request then waits for evacuation instead of vanishing.
    ///
    /// Each agent's key is read once; [`replay_jsq`] then replays the
    /// decisions against the keys alone, and every chosen agent takes its
    /// share as one queue entry. Agents of one atom share no queue with
    /// any other atom, so the placement equals that of one decision at a
    /// time, each queued before the next is made.
    fn route(&mut self, now: u64, arrival: Arrival) {
        let Some(agents) = self.agents.get_mut(&arrival.atom) else { return };
        let net = &self.net;
        let slots = &mut self.route_slots;
        slots.clear();
        slots.extend(agents.iter().map(|a| {
            let dev = net.device(&a.node);
            RouteSlot {
                dead: u8::from(dev.is_none_or(|d| !d.alive)),
                cap: dev.map_or(1.0, |d| d.kind.nominal_capacity()).max(1.0),
                queued_work: a.queued_work(),
                picks: 0,
            }
        }));
        let work = self.config.work_per_request;
        replay_jsq(slots, arrival.decisions, arrival.size * work);
        for (agent, slot) in agents.iter_mut().zip(slots.iter()) {
            agent.accept_batch(now, work, slot.picks * arrival.size);
        }
    }

    /// The index in `nodes` of the fleet node called `name`.
    fn node_index(&self, name: &str) -> Option<usize> {
        self.nodes.binary_search_by(|n| n.name.as_str().cmp(name)).ok()
    }

    /// Feed a node's utilisation to its gauge-board monitor and, when
    /// armed, publish it as the registry gauge of the same name.
    fn record_util(&mut self, node: usize, util: f64, now: u64) {
        let monitor = &self.nodes[node].cpu;
        self.board.record(monitor, now, util);
        if let Some(obs) = &self.obs {
            obs.borrow_mut().metrics.gauge_set(monitor, util);
        }
    }

    /// BEST over the candidates the circuit breaker admits. A node behind
    /// an open circuit is suspected dead and is never nominated, however
    /// attractive its last-known representation; half-open peers are on
    /// probation and take trial traffic.
    fn best_admitted<'a>(&self, candidates: impl IntoIterator<Item = &'a str>) -> Option<&'a str> {
        let admitted: Vec<&str> =
            candidates.into_iter().filter(|n| !self.supervisor.is_open(n)).collect();
        best(&self.net, &admitted)
    }

    /// Carry out one SWITCH of `atom`'s agent `idx` onto `dest`, unless
    /// the armed gate denies it (then the failure is noted and backed
    /// off). A migration or evacuation moves the agent whole; a spread
    /// clones it onto `dest` with the back half of its queue. Either way
    /// the shipped state is billed as a word copy and traced as the
    /// kind's instant.
    fn switch_agent(
        &mut self,
        atom: AtomId,
        idx: usize,
        kind: SwitchKind,
        dest: String,
        stats: &mut TickStats,
    ) {
        let now = self.now;
        let Some(agents) = self.agents.get_mut(&atom) else { return };
        let from = agents[idx].node.clone();
        if let Some(gate) = self.gate.as_mut() {
            if gate.deny(now, atom, &from, &dest).is_some() {
                self.note_switch_failure(atom, now, stats);
                return;
            }
        }
        let (words, (key, value)) = if kind == SwitchKind::Spread {
            // A fresh agent header plus the split half of the queue.
            let split = agents[idx].queued_requests() / 2;
            let mut clone = ServiceAgent::new(atom, &dest);
            clone.adopt(agents[idx].split_back(split));
            agents.push(clone);
            (split.saturating_mul(6).saturating_add(16), ("split", split))
        } else {
            let state_bytes = agents[idx].migrate(&dest);
            (state_bytes / 4, ("state_bytes", state_bytes))
        };
        if let Some(obs) = &self.obs {
            let mut o = obs.borrow_mut();
            o.charge(copy_words(words));
            o.instant(
                "patia",
                kind.instant_name(),
                vec![
                    ("atom", atom.0.to_string()),
                    ("from", from.clone()),
                    ("to", dest.clone()),
                    (key, value.to_string()),
                ],
            );
        }
        self.retry.remove(&atom);
        if kind == SwitchKind::Evacuate {
            stats.faults.evacuations += 1;
        }
        stats.migrations.push(SwitchEvent { atom, kind, from, to: dest });
    }

    /// A node's capacity this tick: zero when dead, squeezed by injected
    /// CPU pressure otherwise.
    fn effective_capacity(&self, node: &str) -> f64 {
        let Some(d) = self.net.device(node) else { return 0.0 };
        if !d.alive {
            return 0.0;
        }
        let squeeze = 1.0 - self.pressure.get(node).copied().unwrap_or(0.0).clamp(0.0, 1.0);
        d.kind.nominal_capacity() * squeeze
    }

    /// The smallest version of an atom — what degraded mode serves.
    fn fallback_version(&self, atom: AtomId) -> Option<u32> {
        let a = self.atoms.get(atom)?;
        a.versions
            .all()
            .iter()
            .min_by(|x, y| x.size_bytes.cmp(&y.size_bytes).then(x.id.cmp(&y.id)))
            .map(|v| v.id)
    }

    /// Record a failed SWITCH attempt: count it, and grow the atom's
    /// deterministic backoff window.
    fn note_switch_failure(&mut self, atom: AtomId, now: u64, stats: &mut TickStats) {
        let r = self.retry.entry(atom).or_insert(RetryState { attempts: 0, next_at: now });
        r.attempts = r.attempts.saturating_add(1);
        r.next_at = now.saturating_add(1u64 << r.attempts.min(MAX_BACKOFF_SHIFT));
        stats.faults.failed_switches += 1;
        if r.attempts > 1 {
            stats.faults.switch_retries += 1;
        }
        if let Some(obs) = &self.obs {
            let mut o = obs.borrow_mut();
            o.charge(Primitive::Branch);
            o.instant(
                "patia",
                "switch:failed",
                vec![
                    ("atom", atom.0.to_string()),
                    ("attempt", r.attempts.to_string()),
                    ("next_at", r.next_at.to_string()),
                ],
            );
        }
    }

    /// Move agents off dead nodes — node-death recovery through the same
    /// SWITCH machinery as constraint 455. Destinations are the atom's
    /// replica holders plus its SWITCH candidates; state is recovered from
    /// the destination's replica, so no live path from the corpse is
    /// required. Failures (no destination, gate denial) back off like any
    /// other failed switch.
    fn evacuate_dead(&mut self, now: u64, stats: &mut TickStats) {
        let stranded: Vec<(AtomId, usize, String)> = self
            .agents
            .iter()
            .flat_map(|(id, v)| {
                v.iter()
                    .enumerate()
                    .filter(|(_, a)| self.net.device(&a.node).is_none_or(|d| !d.alive))
                    .map(|(i, a)| (*id, i, a.node.clone()))
                    .collect::<Vec<_>>()
            })
            .collect();
        for (atom, idx, from) in stranded {
            if self.retry.get(&atom).is_some_and(|r| now < r.next_at) {
                continue;
            }
            let occupied: Vec<String> = self
                .agents
                .get(&atom)
                .map(|v| v.iter().map(|a| a.node.clone()).collect())
                .unwrap_or_default();
            let mut cands: Vec<String> = self
                .atoms
                .get(atom)
                .map(|a| a.holders().iter().map(|s| (*s).to_owned()).collect())
                .unwrap_or_default();
            for c in self.constraints.iter() {
                if c.atom != atom {
                    continue;
                }
                if let ConstraintLogic::SwitchOnCpu { candidates, .. } = &c.logic {
                    cands.extend(candidates.iter().cloned());
                }
            }
            cands.sort();
            cands.dedup();
            // Evacuating *onto* a suspected-dead node would strand the
            // agent twice: the breaker screens here too.
            let admitted = self.best_admitted(
                cands
                    .iter()
                    .map(String::as_str)
                    .filter(|n| *n != from && !occupied.iter().any(|o| o == *n)),
            );
            let Some(dest) = admitted.map(str::to_owned) else {
                self.note_switch_failure(atom, now, stats);
                continue;
            };
            self.switch_agent(atom, idx, SwitchKind::Evacuate, dest, stats);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supervise::CircuitState;
    use crate::workload::{FlashCrowd, RequestGen};
    use std::collections::BTreeSet;

    fn server(adaptive: bool) -> PatiaServer {
        let (net, atoms, constraints) = ServerConfig::paper_fleet();
        PatiaServer::new(net, atoms, constraints, ServerConfig { adaptive, work_per_request: 400 })
    }

    #[test]
    fn agents_start_on_best_constraint_450_node() {
        let s = server(true);
        let page_agents = s.agents(AtomId(123));
        assert_eq!(page_agents.len(), 1);
        assert!(["node1", "node2"].contains(&page_agents[0].node.as_str()));
    }

    #[test]
    fn steady_load_is_served_with_low_latency_and_no_migration() {
        let mut s = server(true);
        let mut gen = RequestGen::new(vec![AtomId(123)], 1.0, 5.0, 1);
        let mut total_migrations = 0;
        for t in 1..=200 {
            let reqs = gen.tick(t);
            let st = s.tick(&reqs, 500.0);
            total_migrations += st.migrations.len();
            if let Some(p99) = st.latencies.percentile(0.99) {
                assert!(p99 <= 2, "tick {t}: p99 {p99} too high under light load");
            }
        }
        assert_eq!(total_migrations, 0);
    }

    #[test]
    fn flash_crowd_triggers_switch_when_adaptive() {
        let crowd = FlashCrowd { from: 50, to: 250, target: AtomId(123), multiplier: 40.0 };
        let mut gen = RequestGen::new(vec![AtomId(123)], 1.0, 4.0, 2).with_crowd(crowd);
        let mut s = server(true);
        let mut switch_events = 0;
        for t in 1..=300 {
            let reqs = gen.tick(t);
            switch_events += s.tick(&reqs, 500.0).migrations.len();
        }
        assert!(switch_events >= 1, "constraint 455 must fire during the crowd");
        assert_eq!(s.switches(AtomId(123)) as usize, switch_events);
        assert!(
            s.agents(AtomId(123)).len() > 1,
            "a crowd this size must spread the service over several nodes"
        );
    }

    #[test]
    fn adaptive_server_keeps_latency_lower_than_static_under_crowd() {
        let run = |adaptive: bool| -> f64 {
            let crowd = FlashCrowd { from: 50, to: 400, target: AtomId(123), multiplier: 15.0 };
            let mut gen = RequestGen::new(vec![AtomId(123)], 1.0, 4.0, 7).with_crowd(crowd);
            let mut s = server(adaptive);
            let mut lat: Vec<u64> = Vec::new();
            // Run well past the crowd so queued requests drain and their
            // latencies count (otherwise a drowning server looks *better*
            // because its victims never complete).
            for t in 1..=1500 {
                let reqs = gen.tick(t);
                lat.extend(s.tick(&reqs, 500.0).latencies.iter());
            }
            lat.sort_unstable();
            if lat.is_empty() {
                f64::INFINITY
            } else {
                lat[(lat.len() - 1) * 99 / 100] as f64
            }
        };
        let adaptive_p99 = run(true);
        let static_p99 = run(false);
        assert!(
            adaptive_p99 * 1.5 < static_p99,
            "adaptive p99 {adaptive_p99} vs static {static_p99}"
        );
    }

    #[test]
    fn bandwidth_band_selects_videohalf_inside_and_videosmall_outside() {
        let s = server(true);
        // Inside (30, 100): a videohalf version (1–3).
        let v = s.select_version(AtomId(153), 64.0).unwrap();
        assert!((1..=3).contains(&v), "got version {v}");
        // Below the band: fallback videosmall.
        assert_eq!(s.select_version(AtomId(153), 10.0), Some(4));
        // Above the band: the paper's rule still says fallback (else-branch).
        assert_eq!(s.select_version(AtomId(153), 500.0), Some(4));
    }

    #[test]
    fn static_server_always_serves_first_version() {
        let s = server(false);
        assert_eq!(s.select_version(AtomId(153), 64.0), Some(1));
        assert_eq!(s.select_version(AtomId(153), 10.0), Some(1));
    }

    #[test]
    fn versions_served_are_counted() {
        let mut s = server(true);
        let st = s.tick(&[AtomId(153), AtomId(153)], 64.0);
        let per_atom = st.versions_served.get(&AtomId(153)).unwrap();
        assert_eq!(per_atom.values().sum::<u64>(), 2);
    }

    #[test]
    fn latency_runs_merge_adjacent_equals_and_count_every_request() {
        let mut runs = LatencyRuns::default();
        assert!(runs.is_empty());
        assert_eq!(runs.percentile(0.5), None);
        for (latency, count) in [(3, 2), (3, 5), (1, 1), (3, 1), (7, 0), (3, 4)] {
            runs.push(latency, count);
        }
        assert_eq!(runs.runs(), [(3, 7), (1, 1), (3, 5)], "only neighbours merge; zero adds none");
        assert_eq!(runs.len(), 13);
        assert_eq!(runs.iter().collect::<Vec<_>>(), [3, 3, 3, 3, 3, 3, 3, 1, 3, 3, 3, 3, 3]);
        // One request at a time or a cohort at a time: the same record.
        let mut singly = LatencyRuns::default();
        for latency in runs.iter() {
            singly.push(latency, 1);
        }
        assert_eq!(singly, runs);
    }

    #[test]
    fn latency_percentile_is_the_percentile_of_the_expanded_vector() {
        adm_rng::run_cases(0x1a7, 64, |rng| {
            let mut stats = TickStats::default();
            for _ in 0..rng.index(12) {
                stats.latencies.push(rng.below(6), rng.below(40));
            }
            let mut expanded: Vec<u64> = stats.latencies.iter().collect();
            assert_eq!(expanded.len(), stats.latencies.len());
            let counted: u64 = stats.latencies.runs().iter().map(|&(_, n)| n).sum();
            assert_eq!(counted as usize, stats.latencies.len());
            expanded.sort_unstable();
            for p in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
                let want = (!expanded.is_empty())
                    .then(|| expanded[((expanded.len() - 1) as f64 * p).round() as usize]);
                assert_eq!(stats.latencies.percentile(p), want, "p={p} of {expanded:?}");
            }
        });
    }

    #[test]
    fn unknown_atom_requests_are_ignored() {
        let mut s = server(true);
        let st = s.tick(&[AtomId(999)], 100.0);
        assert_eq!(st.arrivals, 1);
        assert!(st.versions_served.is_empty());
        assert_eq!(st.faults.dropped, 1, "the drop is counted, not silent");
    }

    /// A gate that denies every switch — the simplest chaos injector.
    #[derive(Debug)]
    struct DenyAll;
    impl SwitchGate for DenyAll {
        fn deny(&mut self, _tick: u64, _atom: AtomId, _from: &str, _to: &str) -> Option<String> {
            Some("injected".to_owned())
        }
    }

    #[test]
    fn atom_without_holders_drops_requests_instead_of_panicking() {
        let (net, mut atoms, constraints) = ServerConfig::paper_fleet();
        atoms.insert(Atom::new(AtomId(7), "ghost.html", AtomType::Html, 1_000));
        let mut s = PatiaServer::new(net, atoms, constraints, ServerConfig::default());
        let st = s.tick(&[AtomId(7), AtomId(123)], 500.0);
        assert_eq!(st.arrivals, 2);
        assert_eq!(st.faults.dropped, 1);
        assert_eq!(st.versions_served.keys().copied().collect::<Vec<_>>(), vec![AtomId(123)]);
    }

    #[test]
    fn node_death_evacuates_agent_and_conserves_requests() {
        let mut s = server(true);
        let home = s.agents(AtomId(123))[0].node.clone();
        let mut arrivals = 0u64;
        let mut completed = 0u64;
        let mut dropped = 0u64;
        let mut evacuations = 0u64;
        for t in 1..=120 {
            if t == 10 {
                assert!(s.kill_node(&home));
            }
            let reqs = if t <= 60 { vec![AtomId(123); 2] } else { Vec::new() };
            let st = s.tick(&reqs, 500.0);
            arrivals += st.arrivals as u64;
            completed += st.latencies.len() as u64;
            dropped += st.faults.dropped;
            evacuations += st.faults.evacuations;
        }
        assert!(evacuations >= 1, "the stranded agent must move off the corpse");
        for a in s.agents(AtomId(123)) {
            assert_ne!(a.node, home, "no agent may remain on the dead node");
        }
        assert_eq!(
            arrivals,
            completed + dropped + s.queued_requests(),
            "no request may be silently lost across a node death"
        );
        assert_eq!(dropped, 0, "evacuation means no drops were ever needed");
    }

    #[test]
    fn denied_switches_back_off_and_serve_degraded() {
        let crowd = FlashCrowd { from: 10, to: 220, target: AtomId(123), multiplier: 40.0 };
        let mut gen = RequestGen::new(vec![AtomId(123)], 1.0, 4.0, 2).with_crowd(crowd);
        let mut s = server(true);
        s.arm_switch_gate(Box::new(DenyAll));
        let mut failed = 0u64;
        let mut retries = 0u64;
        let mut degraded = 0u64;
        for t in 1..=250 {
            let st = s.tick(&gen.tick(t), 500.0);
            failed += st.faults.failed_switches;
            retries += st.faults.switch_retries;
            degraded += st.faults.degraded;
        }
        assert!(failed >= 2, "the gate must have denied repeatedly (got {failed})");
        assert!(retries >= 1, "later denials count as retries");
        assert!(degraded >= 1, "requests during the incident serve degraded");
        assert_eq!(s.agents(AtomId(123)).len(), 1, "denied switches must not spread");
        assert_eq!(s.switches(AtomId(123)), 0);
        // Exponential backoff caps the attempt rate well below one per tick.
        assert!(failed < 60, "backoff must bound retry frequency (got {failed})");
    }

    #[test]
    fn injected_cpu_pressure_drives_constraint_455() {
        let mut s = server(true);
        let home = s.agents(AtomId(123))[0].node.clone();
        s.inject_pressure(&home, 0.95);
        let mut migrations = 0;
        for _ in 1..=60 {
            migrations += s.tick(&[AtomId(123); 4], 500.0).migrations.len();
        }
        assert!(migrations >= 1, "pressure on {home} must push the agent away");
        assert_ne!(s.agents(AtomId(123))[0].node, home);
    }

    /// Arming observability must not perturb behaviour: TickStats and the
    /// gauge board are identical armed and disarmed, and when armed every
    /// monitor reading is also published as the registry gauge of the same
    /// name (`cpu:<node>`).
    #[test]
    fn armed_observability_does_not_perturb_the_server() {
        let run = |armed: bool| {
            let crowd = FlashCrowd { from: 20, to: 150, target: AtomId(123), multiplier: 30.0 };
            let mut gen = RequestGen::new(vec![AtomId(123)], 1.0, 4.0, 3).with_crowd(crowd);
            let mut s = server(true);
            let obs = armed.then(|| {
                let h = obs::Obs::new(obs::CostModel::pentium()).into_handle();
                s.arm_obs(h.clone());
                h
            });
            let mut out = Vec::new();
            for t in 1..=200 {
                if t == 40 {
                    s.kill_node("node1");
                }
                if t == 120 {
                    s.revive_node("node1");
                }
                out.push(s.tick(&gen.tick(t), 500.0));
                let Some(h) = &obs else { continue };
                let metrics = &h.borrow().metrics;
                for n in &s.nodes {
                    let latest = s.board.monitor(&n.cpu).and_then(Monitor::latest);
                    assert_eq!(latest.map(|r| r.tick), Some(t), "{} read this tick", n.cpu);
                    assert_eq!(metrics.gauge(&n.cpu), latest.map(|r| r.value), "tick {t}");
                }
            }
            (out, s.board.snapshot(), obs)
        };
        let (stats_off, board_off, _) = run(false);
        let (stats_on, board_on, obs) = run(true);
        assert_eq!(stats_off, stats_on, "TickStats must not depend on observability");
        assert_eq!(board_off, board_on, "arming must feed the board identical readings");
        // And the registry's cumulative counters are the sums of the
        // per-tick deltas.
        let o = obs.unwrap();
        let o = o.borrow();
        let sum = |f: fn(&TickStats) -> u64| -> u64 { stats_on.iter().map(f).sum() };
        assert_eq!(o.metrics.counter("patia.switch.failed"), sum(|st| st.faults.failed_switches));
        assert_eq!(o.metrics.counter("patia.switch.evacuations"), sum(|st| st.faults.evacuations));
        assert_eq!(o.metrics.counter("patia.requests.degraded"), sum(|st| st.faults.degraded));
        assert_eq!(o.metrics.counter("patia.requests.dropped"), sum(|st| st.faults.dropped));
        assert_eq!(o.metrics.counter("patia.requests.arrived"), sum(|st| st.arrivals as u64));
        assert!(o.tracer.events().iter().any(|e| e.name.starts_with("tick:")));
    }

    #[test]
    fn detector_suspects_a_killed_node_within_k_beats() {
        let mut s = server(true);
        s.kill_node("node2");
        for _ in 0..SuperviseConfig::default().suspect_after {
            s.tick(&[], 500.0);
        }
        assert!(s.supervisor().suspected("node2"), "k missed beats must convict");
        assert!(s.supervisor().is_open("node2"), "suspicion opens the circuit");
        assert!(!s.supervisor().is_open("node1"), "healthy peers stay closed");
    }

    #[test]
    fn best_never_switches_toward_an_open_circuit() {
        let mut s = server(true);
        // Partition wp1 away: it stays alive (so plain BEST would still
        // nominate it) but the detector can no longer hear it.
        s.network_mut().partition(&["wp1".to_owned()]);
        for _ in 0..5 {
            s.tick(&[], 500.0);
        }
        assert!(s.supervisor().is_open("wp1"), "unreachable peer must be isolated");
        // Now drive a flash crowd: switches must spread, but never to wp1.
        let crowd = FlashCrowd { from: 1, to: 200, target: AtomId(123), multiplier: 40.0 };
        let mut gen = RequestGen::new(vec![AtomId(123)], 1.0, 4.0, 2).with_crowd(crowd);
        let mut migrations = Vec::new();
        for t in 1..=250 {
            migrations.extend(s.tick(&gen.tick(t), 500.0).migrations);
        }
        assert!(!migrations.is_empty(), "the crowd must still force switches");
        for m in &migrations {
            assert_ne!(m.to, "wp1", "no switch may target a suspected replica: {m:?}");
        }
    }

    #[test]
    fn restarted_node_rejoins_after_contact_and_probation() {
        let mut s = server(true);
        s.kill_node("node3");
        for _ in 0..6 {
            s.tick(&[], 500.0);
        }
        assert!(s.supervisor().is_open("node3"));
        s.revive_node("node3");
        let probation = SuperviseConfig::default().probation;
        for _ in 0..probation {
            s.tick(&[], 500.0);
        }
        assert_eq!(
            s.supervisor().circuit("node3"),
            CircuitState::Closed,
            "contact plus probation must readmit the peer"
        );
        assert!(!s.supervisor().suspected("node3"));
    }

    #[test]
    fn supervision_events_surface_as_instants_and_metrics_when_armed() {
        let mut s = server(true);
        let h = obs::Obs::new(obs::CostModel::pentium()).into_handle();
        s.arm_obs(h.clone());
        s.kill_node("node2");
        for _ in 0..8 {
            s.tick(&[], 500.0);
        }
        s.revive_node("node2");
        for _ in 0..4 {
            s.tick(&[], 500.0);
        }
        let o = h.borrow();
        for name in [
            "detector:suspect",
            "detector:revive",
            "circuit:open",
            "circuit:close",
            "restart:attempt",
        ] {
            assert!(
                o.tracer.events().iter().any(|e| e.name == name),
                "trace must contain a {name} instant"
            );
        }
        assert_eq!(o.metrics.counter("patia.detector.suspects"), s.supervisor().suspects());
        assert_eq!(o.metrics.counter("patia.detector.revivals"), s.supervisor().revivals());
        assert_eq!(o.metrics.counter("patia.circuit.opens"), s.supervisor().opens());
        assert_eq!(o.metrics.counter("patia.circuit.closes"), s.supervisor().closes());
        assert_eq!(o.metrics.counter("patia.restart.probes"), s.supervisor().probes());
    }

    #[test]
    fn fault_timeline_is_deterministic_across_runs() {
        let run = || {
            let mut s = server(true);
            let mut out = Vec::new();
            for t in 1u64..=90 {
                if t == 20 {
                    s.kill_node("node1");
                }
                if t == 55 {
                    s.revive_node("node1");
                }
                let reqs = vec![AtomId(123); usize::from(t % 3 == 0) * 3];
                out.push(s.tick(&reqs, 500.0));
            }
            out
        };
        assert_eq!(run(), run(), "same inputs must yield byte-identical TickStats");
    }

    /// Regression: `step_at` accepts any tick above the clock, so restart
    /// probes and switch retries scheduled near `u64::MAX` must saturate.
    /// Adding to `now` overflowed (a debug panic; in release the next
    /// probe wrapped into the past).
    #[test]
    fn deadlines_near_u64_max_saturate() {
        let mut s = server(true);
        s.kill_node("node3");
        let mut next_probe = 0;
        for now in u64::MAX - 12..u64::MAX {
            s.step_at(now, &[], 500.0);
            let node3 = s.supervisor().peers().into_iter().find(|p| p.peer == "node3").unwrap();
            next_probe = node3.next_probe;
            // 0 until the node is suspected; a scheduled probe is never
            // in the past.
            assert!(next_probe == 0 || next_probe > now, "tick {now}: probe at {next_probe}");
        }
        assert!(s.supervisor().is_open("node3"), "the dead node is isolated");
        assert_eq!(next_probe, u64::MAX, "the probe deadline pins at u64::MAX");

        let mut s = server(true);
        let mut stats = TickStats::default();
        for _ in 0..3 {
            s.note_switch_failure(AtomId(123), u64::MAX - 1, &mut stats);
        }
        assert_eq!(s.retry[&AtomId(123)].next_at, u64::MAX, "the retry deadline pins at u64::MAX");
        assert_eq!(stats.faults.failed_switches, 3);
    }

    #[test]
    fn copy_bills_saturate_instead_of_wrapping() {
        let max = u64::from(u32::MAX);
        assert_eq!(copy_words(0), Primitive::CopyWords(0));
        assert_eq!(copy_words(max), Primitive::CopyWords(u32::MAX));
        assert_eq!(copy_words(max + 1), Primitive::CopyWords(u32::MAX));
        assert_eq!(copy_words(u64::MAX), Primitive::CopyWords(u32::MAX));
        // Agent state just past 4 GiB: casting the bytes to `u32` before
        // dividing truncated this bill to 2 words; it is exact now, and
        // state past 16 GiB saturates.
        let state_bytes = (1u64 << 32) + 8;
        assert_eq!(copy_words(state_bytes / 4), Primitive::CopyWords((1 << 30) + 2));
        assert_eq!(copy_words((4 * max + 4) / 4), Primitive::CopyWords(u32::MAX));
        // A Spread of ~716M requests: `16 + 6 * split` no longer fits.
        let split = (max - 16) / 6 + 1;
        assert_eq!(copy_words(split.saturating_mul(6).saturating_add(16)), copy_words(max + 1));
        assert_eq!(
            copy_words((split - 1).saturating_mul(6).saturating_add(16)),
            Primitive::CopyWords((16 + 6 * (split - 1)) as u32)
        );
    }

    /// The count-1 reference: one capacity-weighted join-shortest-queue
    /// decision per request group of `size`, each agent's device looked up
    /// by name, and each group queued before the next decision is made.
    fn route_one_at_a_time(
        net: &Network,
        agents: &mut [ServiceAgent],
        now: u64,
        decisions: u64,
        size: u64,
        work: u64,
    ) {
        for _ in 0..decisions {
            let idx = agents
                .iter()
                .enumerate()
                .map(|(i, a)| {
                    let dev = net.device(&a.node);
                    let dead = u8::from(dev.is_none_or(|d| !d.alive));
                    let cap = dev.map_or(1.0, |d| d.kind.nominal_capacity()).max(1.0);
                    (i, dead, a.queued_work() as f64 / cap)
                })
                .min_by(|(_, d1, w1), (_, d2, w2)| d1.cmp(d2).then(w1.total_cmp(w2)))
                .map(|(i, _, _)| i)
                .expect("an atom with agents");
            agents[idx].accept_batch(now, work, size);
        }
    }

    #[test]
    fn cohort_routing_places_requests_exactly_like_one_decision_at_a_time() {
        const KINDS: [DeviceKind; 5] = [
            DeviceKind::Sensor,
            DeviceKind::Pda,
            DeviceKind::Laptop,
            DeviceKind::Server,
            DeviceKind::Workstation,
        ];
        adm_rng::run_cases(0xC0_4027, 300, |rng| {
            // A fleet of 1..=6 nodes. Sometimes every node has the same
            // capacity (ties everywhere), sometimes every node is dead.
            let same_kind = rng.chance(0.3).then(|| *rng.choose(&KINDS));
            let all_dead = rng.chance(0.15);
            let mut net = Network::new();
            let nodes = 1 + rng.index(6);
            for n in 0..nodes {
                let mut d =
                    Device::new(&format!("n{n}"), same_kind.unwrap_or_else(|| *rng.choose(&KINDS)));
                d.alive = !all_dead && rng.chance(0.7);
                net.add_device(d);
            }
            let work = if rng.chance(0.2) { 0 } else { 1 + rng.below(800) };
            let atom = AtomId(7);
            // 1..=6 agents, possibly co-resident, now and then on a node
            // outside the fleet, with backlogs of whole and part-served
            // requests (or none, so that queues tie too).
            let mut agents: Vec<ServiceAgent> = (0..1 + rng.index(6))
                .map(|_| {
                    let node = if rng.chance(0.1) {
                        "gone".to_owned()
                    } else {
                        format!("n{}", rng.index(nodes))
                    };
                    let mut a = ServiceAgent::new(atom, &node);
                    if rng.chance(0.7) {
                        a.accept_batch(0, work, rng.below(50));
                        a.step_grouped(rng.below(work * 10 + 1));
                    }
                    a
                })
                .collect();
            if rng.chance(0.3) {
                // A flat start: every backlog equal.
                let template = agents[0].clone();
                for a in &mut agents {
                    let node = std::mem::take(&mut a.node);
                    *a = template.clone();
                    a.node = node;
                }
            }
            // Count-1 cohorts, flow-sized groups, and large cohorts.
            let size = if rng.chance(0.3) { 1 + rng.below(5_000) } else { 1 };
            let decisions = if rng.chance(0.1) { rng.below(10_000) } else { rng.below(60) };

            let mut reference = agents.clone();
            route_one_at_a_time(&net, &mut reference, 1, decisions, size, work);
            let mut s = PatiaServer::new(
                net,
                AtomStore::new(),
                Vec::new(),
                ServerConfig { adaptive: true, work_per_request: work },
            );
            s.agents.insert(atom, agents.clone());
            s.route(1, Arrival { atom, decisions, size });

            let cohort = s.agents(atom);
            for ((before, got), want) in agents.iter().zip(cohort).zip(&reference) {
                assert_eq!(got.queued_requests(), want.queued_requests());
                assert_eq!(got.queued_work(), want.queued_work());
                // The agent's share of the cohort is one entry at most.
                assert!(got.queue().len() <= before.queue().len() + 1);
            }
        });
    }

    #[test]
    fn cohort_ticks_match_count_1_batches_stats_and_cycles() {
        adm_rng::run_cases(0xC0_4028, 12, |rng| {
            let armed = |s: &mut PatiaServer| {
                let h = obs::Obs::new(obs::CostModel::pentium()).into_handle();
                s.arm_obs(h.clone());
                h
            };
            let storage = rng.chance(0.5);
            let mut cohort = server(true);
            let mut count_1 = server(true);
            if storage {
                for s in [&mut cohort, &mut count_1] {
                    s.attach_store(store::StorageEngine::new(2)).expect("the atoms persist");
                }
            }
            let (h_cohort, h_count_1) = (armed(&mut cohort), armed(&mut count_1));
            let mut hot = 0;
            for t in 1..=120u64 {
                if rng.chance(0.03) {
                    let node = *rng.choose(&["node1", "node2", "wp1"]);
                    for s in [&mut cohort, &mut count_1] {
                        s.kill_node(node);
                    }
                }
                if rng.chance(0.05) {
                    let node = *rng.choose(&["node1", "node2", "wp1"]);
                    for s in [&mut cohort, &mut count_1] {
                        s.revive_node(node);
                    }
                }
                if rng.chance(0.1) {
                    hot = rng.below(250);
                }
                // A seeded interleaving of the two atoms (and a stray
                // unknown one), bursty enough to spread the page.
                let reqs: Vec<AtomId> = (0..hot + rng.below(8))
                    .map(|_| match rng.below(10) {
                        0..=6 => AtomId(123),
                        7 | 8 => AtomId(153),
                        _ => AtomId(999),
                    })
                    .collect();
                let batches: Vec<(AtomId, u64)> = reqs.iter().map(|&a| (a, 1)).collect();
                let want = count_1.step_at(count_1.now() + 1, &batches, 500.0);
                let got = cohort.tick(&reqs, 500.0);
                assert_eq!(got, want, "tick {t}");
                assert_eq!(h_cohort.borrow().clock(), h_count_1.borrow().clock(), "tick {t}");
            }
            let (c, r) = (h_cohort.borrow(), h_count_1.borrow());
            assert_eq!(c.tracer.events(), r.tracer.events());
            assert_eq!(c.metrics, r.metrics);
        });
    }

    #[test]
    fn flash_crowd_queues_hold_one_entry_per_arrival_tick() {
        // The paper flash crowd as the chaos harness drives it (no faults):
        // request by request through `tick`.
        let crowd = FlashCrowd { from: 50, to: 250, target: AtomId(123), multiplier: 30.0 };
        let mut gen =
            RequestGen::new(vec![AtomId(123), AtomId(153)], 1.0, 4.0, 2).with_crowd(crowd);
        let mut s = server(true);
        let (mut peak_requests, mut spreads) = (0, 0);
        for t in 1..=400 {
            let st = s.tick(&gen.tick(t), 500.0);
            spreads += st.migrations.iter().filter(|m| m.kind == SwitchKind::Spread).count();
            for atom in s.served_atoms() {
                for a in s.agents(atom) {
                    let ticks: BTreeSet<u64> = a.queue().iter().map(|e| e.arrived_at).collect();
                    assert!(
                        a.queue().len() <= ticks.len(),
                        "tick {t}: {} entries for {} arrival ticks",
                        a.queue().len(),
                        ticks.len()
                    );
                }
            }
            let crowd_queue: u64 = s.agents(AtomId(123)).iter().map(|a| a.queued_requests()).sum();
            peak_requests = peak_requests.max(crowd_queue);
        }
        // The guard has teeth: the backlog it bounds runs to ~13.8k
        // waiting requests, spread over several agents.
        assert!(peak_requests > 10_000, "peak backlog {peak_requests}");
        assert!(spreads >= 1);
    }
}
