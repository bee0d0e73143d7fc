//! Supervision: heartbeat failure detection, circuit breakers, and
//! restart probing over the node fleet.
//!
//! The paper's BEST "is parameterised with representations of the two
//! computing nodes to be compared" — but a representation can be stale:
//! a node may be dead, or alive yet unreachable behind a partition, and
//! [`best`](ubinet::select::best) cannot tell (it only skips dead or
//! flat devices). The [`Supervisor`] closes that gap:
//!
//! * a **failure detector** sends one heartbeat per tick from a vantage
//!   node to every peer (the verdicts of [`Network::heartbeat`], read off
//!   one [`Network::components`] labelling per round); a peer missing
//!   [`SuperviseConfig::suspect_after`] consecutive beats is *suspected*
//!   — deliberately unable to distinguish death from partition, which is
//!   the fundamental ambiguity of asynchronous failure detection;
//! * a per-peer **circuit breaker** opens on suspicion, so BEST never
//!   routes a switch or an evacuation toward a suspected-dead replica;
//!   first contact half-opens it (trial traffic allowed), and
//!   [`SuperviseConfig::probation`] further clean beats close it;
//! * a **restart policy** probes a suspected peer on the same capped
//!   exponential backoff the SWITCH retry machinery uses (2, 4, ... 32
//!   ticks) — bounded, wall-clock-free, and replayable from a seed.
//!
//! All counters saturate: a supervisor that has seen `u64::MAX`
//! suspicions reports `u64::MAX`, it does not wrap to zero.

use crate::server::MAX_BACKOFF_SHIFT;
use std::collections::BTreeMap;
use std::fmt;
use ubinet::net::Network;

/// Failure-detector and circuit-breaker tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SuperviseConfig {
    /// Consecutive missed heartbeats before a peer is suspected.
    pub suspect_after: u32,
    /// Clean beats a half-open circuit must see before it closes.
    pub probation: u32,
}

impl Default for SuperviseConfig {
    fn default() -> Self {
        Self { suspect_after: 3, probation: 2 }
    }
}

/// One peer's circuit-breaker state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CircuitState {
    /// Healthy: requests route normally.
    #[default]
    Closed,
    /// Suspected dead: no requests route here.
    Open,
    /// Back in contact, on probation: trial traffic allowed.
    HalfOpen,
}

impl CircuitState {
    /// Stable machine-readable numeric code: `Closed`=0, `Open`=1,
    /// `HalfOpen`=2. System-table encodings key on this, not on the
    /// human-facing [`Display`](fmt::Display) string, so a wording
    /// change cannot silently re-route a declarative rule.
    #[must_use]
    pub fn code(self) -> u8 {
        match self {
            Self::Closed => 0,
            Self::Open => 1,
            Self::HalfOpen => 2,
        }
    }

    /// Stable machine-readable symbolic code (`CLOSED` / `OPEN` /
    /// `HALF_OPEN`), pinned alongside [`code`](Self::code).
    #[must_use]
    pub fn code_str(self) -> &'static str {
        match self {
            Self::Closed => "CLOSED",
            Self::Open => "OPEN",
            Self::HalfOpen => "HALF_OPEN",
        }
    }
}

impl fmt::Display for CircuitState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Self::Closed => "closed",
            Self::Open => "open",
            Self::HalfOpen => "half-open",
        })
    }
}

/// One watched peer's detector state, frozen for introspection — the
/// row source behind `sys.supervision`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeerSnapshot {
    /// The watched peer's name.
    pub peer: String,
    /// Consecutive heartbeats missed as of the last round.
    pub missed: u32,
    /// Consecutive clean beats seen while on probation.
    pub clean: u32,
    /// Whether the failure detector currently suspects the peer.
    pub suspected: bool,
    /// The peer's circuit-breaker state.
    pub circuit: CircuitState,
    /// Restart probes sent in the current incident (0 when healthy).
    pub restart_attempts: u32,
    /// Tick the next restart probe fires at (0 if never armed).
    pub next_probe: u64,
}

/// What the detector observed on one beat — the server turns these into
/// trace instants and registry counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SupervisionEvent {
    /// A peer crossed the missed-beat threshold.
    Suspect {
        /// The suspected peer.
        peer: String,
        /// Consecutive beats it has missed.
        missed: u32,
    },
    /// A suspected peer answered again.
    Revive {
        /// The revived peer.
        peer: String,
    },
    /// A peer's circuit opened: BEST stops routing to it.
    CircuitOpen {
        /// The isolated peer.
        peer: String,
    },
    /// An open circuit saw contact and half-opened.
    CircuitHalfOpen {
        /// The probationary peer.
        peer: String,
    },
    /// A half-open circuit finished probation and closed.
    CircuitClose {
        /// The readmitted peer.
        peer: String,
    },
    /// The restart policy probed a suspected peer.
    RestartProbe {
        /// The probed peer.
        peer: String,
        /// Which attempt this was (1-based).
        attempt: u32,
        /// When the next probe fires if this one finds nothing.
        next_at: u64,
    },
}

/// Per-peer detector bookkeeping.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct PeerHealth {
    missed: u32,
    clean: u32,
    suspected: bool,
    circuit: CircuitState,
    restart_attempts: u32,
    next_probe: u64,
}

/// The fleet supervisor: one [`PeerHealth`] per node, advanced one
/// heartbeat round per server tick.
#[derive(Debug, Clone)]
pub struct Supervisor {
    cfg: SuperviseConfig,
    peers: BTreeMap<String, PeerHealth>,
    suspects: u64,
    revivals: u64,
    opens: u64,
    closes: u64,
    probes: u64,
}

impl Supervisor {
    /// A supervisor watching `peers`.
    #[must_use]
    pub fn new(cfg: SuperviseConfig, peers: impl IntoIterator<Item = String>) -> Self {
        Self {
            cfg,
            peers: peers.into_iter().map(|p| (p, PeerHealth::default())).collect(),
            suspects: 0,
            revivals: 0,
            opens: 0,
            closes: 0,
            probes: 0,
        }
    }

    /// Each watched peer's component in `net` as it stands, in peer-name
    /// order (`None`: dead, or not a device), and the component the
    /// round's beats are sent from: the one holding the most watched
    /// peers, on a tie the one whose first watched peer sorts first. One
    /// component labelling answers every probe of the round: a beat
    /// between two peers lands exactly when both are alive and share a
    /// label.
    fn survey(&self, net: &Network) -> (Vec<Option<u32>>, Option<u32>) {
        let components = net.components();
        let labels: Vec<Option<u32>> = self
            .peers
            .keys()
            .map(|peer| net.id_of(peer).and_then(|id| components.label(id)))
            .collect();
        let mut watched = vec![0usize; components.count()];
        for &label in labels.iter().flatten() {
            watched[label as usize] += 1;
        }
        let mut vantage: Option<u32> = None;
        for &label in labels.iter().flatten() {
            if vantage.is_none_or(|best| watched[label as usize] > watched[best as usize]) {
                vantage = Some(label);
            }
        }
        (labels, vantage)
    }

    /// The vantage the beats are sent from: the alive device that can
    /// currently reach the most alive peers — the first watched peer of
    /// the component holding the most watched peers — ties broken by name
    /// order: a deterministic stand-in for "the healthiest observer".
    /// `None` when the whole fleet is dead.
    #[must_use]
    pub fn vantage(&self, net: &Network) -> Option<String> {
        let (labels, vantage) = self.survey(net);
        let first = labels.iter().position(|&label| label.is_some() && label == vantage)?;
        self.peers.keys().nth(first).cloned()
    }

    /// One heartbeat round at tick `now`: probe every peer from the
    /// vantage and advance detector, circuit, and restart state. Returns
    /// the observable events in peer-name order. The round costs one
    /// component labelling — O(devices + links) — however many peers are
    /// watched.
    pub fn beat(&mut self, net: &Network, now: u64) -> Vec<SupervisionEvent> {
        let (labels, Some(vantage)) = self.survey(net) else { return Vec::new() };
        self.advance(labels.iter().map(|&label| label == Some(vantage)), now)
    }

    /// Advance every peer's detector, circuit, and restart state by one
    /// round, given whether each peer's beat landed (in peer-name order).
    fn advance(&mut self, landed: impl Iterator<Item = bool>, now: u64) -> Vec<SupervisionEvent> {
        let mut events = Vec::new();
        for ((peer, h), landed) in self.peers.iter_mut().zip(landed) {
            if landed {
                h.missed = 0;
                if h.suspected {
                    h.suspected = false;
                    h.restart_attempts = 0;
                    self.revivals = self.revivals.saturating_add(1);
                    events.push(SupervisionEvent::Revive { peer: peer.clone() });
                }
                match h.circuit {
                    CircuitState::Open => {
                        h.circuit = CircuitState::HalfOpen;
                        h.clean = 1;
                        events.push(SupervisionEvent::CircuitHalfOpen { peer: peer.clone() });
                        if self.cfg.probation <= 1 {
                            h.circuit = CircuitState::Closed;
                            self.closes = self.closes.saturating_add(1);
                            events.push(SupervisionEvent::CircuitClose { peer: peer.clone() });
                        }
                    }
                    CircuitState::HalfOpen => {
                        h.clean = h.clean.saturating_add(1);
                        if h.clean >= self.cfg.probation {
                            h.circuit = CircuitState::Closed;
                            self.closes = self.closes.saturating_add(1);
                            events.push(SupervisionEvent::CircuitClose { peer: peer.clone() });
                        }
                    }
                    CircuitState::Closed => {}
                }
            } else {
                h.missed = h.missed.saturating_add(1);
                h.clean = 0;
                // A miss during probation reopens the circuit at once —
                // the peer has not earned trust back.
                if h.circuit == CircuitState::HalfOpen {
                    h.circuit = CircuitState::Open;
                    self.opens = self.opens.saturating_add(1);
                    events.push(SupervisionEvent::CircuitOpen { peer: peer.clone() });
                }
                if !h.suspected && h.missed >= self.cfg.suspect_after {
                    h.suspected = true;
                    self.suspects = self.suspects.saturating_add(1);
                    events.push(SupervisionEvent::Suspect { peer: peer.clone(), missed: h.missed });
                    if h.circuit == CircuitState::Closed {
                        h.circuit = CircuitState::Open;
                        self.opens = self.opens.saturating_add(1);
                        events.push(SupervisionEvent::CircuitOpen { peer: peer.clone() });
                    }
                    h.restart_attempts = 0;
                    h.next_probe = now + 2;
                }
                if h.suspected && now >= h.next_probe {
                    h.restart_attempts = h.restart_attempts.saturating_add(1);
                    h.next_probe = now + (1u64 << h.restart_attempts.min(MAX_BACKOFF_SHIFT));
                    self.probes = self.probes.saturating_add(1);
                    events.push(SupervisionEvent::RestartProbe {
                        peer: peer.clone(),
                        attempt: h.restart_attempts,
                        next_at: h.next_probe,
                    });
                }
            }
        }
        events
    }

    /// Whether a peer's circuit is fully open (half-open peers are on
    /// probation and *do* receive trial traffic).
    #[must_use]
    pub fn is_open(&self, peer: &str) -> bool {
        self.peers.get(peer).is_some_and(|h| h.circuit == CircuitState::Open)
    }

    /// A peer's circuit state (`Closed` for unknown peers: the
    /// supervisor has no grounds to block a node it never watched).
    #[must_use]
    pub fn circuit(&self, peer: &str) -> CircuitState {
        self.peers.get(peer).map(|h| h.circuit).unwrap_or_default()
    }

    /// Whether the detector currently suspects a peer.
    #[must_use]
    pub fn suspected(&self, peer: &str) -> bool {
        self.peers.get(peer).is_some_and(|h| h.suspected)
    }

    /// Freeze every watched peer's detector state, in peer-name order —
    /// the deterministic row source for `sys.supervision`. Unknown peers
    /// have no row, mirroring [`circuit`](Self::circuit) returning
    /// `Closed` for them: absence means "no grounds to block".
    #[must_use]
    pub fn peers(&self) -> Vec<PeerSnapshot> {
        self.peers
            .iter()
            .map(|(peer, h)| PeerSnapshot {
                peer: peer.clone(),
                missed: h.missed,
                clean: h.clean,
                suspected: h.suspected,
                circuit: h.circuit,
                restart_attempts: h.restart_attempts,
                next_probe: h.next_probe,
            })
            .collect()
    }

    /// Whether the supervisor is fully settled: no peer suspected, every
    /// circuit closed, no missed beats accumulating. In this state a
    /// heartbeat round over a healthy fleet is a no-op, which is one of
    /// the conditions licensing the event engine to skip ticks.
    #[must_use]
    pub fn all_clear(&self) -> bool {
        self.peers
            .values()
            .all(|h| !h.suspected && h.circuit == CircuitState::Closed && h.missed == 0)
    }

    /// Total suspicions raised since boot (saturating).
    #[must_use]
    pub fn suspects(&self) -> u64 {
        self.suspects
    }

    /// Total revivals observed since boot (saturating).
    #[must_use]
    pub fn revivals(&self) -> u64 {
        self.revivals
    }

    /// Total circuit openings since boot (saturating).
    #[must_use]
    pub fn opens(&self) -> u64 {
        self.opens
    }

    /// Total circuit closings since boot (saturating).
    #[must_use]
    pub fn closes(&self) -> u64 {
        self.closes
    }

    /// Total restart probes sent since boot (saturating).
    #[must_use]
    pub fn probes(&self) -> u64 {
        self.probes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ubinet::device::{Device, DeviceKind};
    use ubinet::link::{BandwidthProfile, Link, LinkKind};

    /// a — b — c, all servers, fully live.
    fn net() -> Network {
        let mut n = Network::new();
        for name in ["a", "b", "c"] {
            n.add_device(Device::new(name, DeviceKind::Server));
        }
        n.add_link(Link::new("a", "b", LinkKind::Wired, BandwidthProfile::Constant(100.0), 1));
        n.add_link(Link::new("b", "c", LinkKind::Wired, BandwidthProfile::Constant(100.0), 1));
        n
    }

    fn sup() -> Supervisor {
        Supervisor::new(SuperviseConfig::default(), ["a", "b", "c"].map(str::to_owned))
    }

    #[test]
    fn healthy_fleet_raises_no_events() {
        let net = net();
        let mut s = sup();
        for now in 1..=10 {
            assert!(s.beat(&net, now).is_empty());
        }
        assert!(!s.is_open("a") && !s.is_open("b") && !s.is_open("c"));
        assert_eq!((s.suspects(), s.opens()), (0, 0));
    }

    #[test]
    fn vantage_is_the_best_connected_alive_device_with_name_ties() {
        let mut net = net();
        let s = sup();
        assert_eq!(s.vantage(&net).as_deref(), Some("a"), "all reach all; name order breaks ties");
        net.device_mut("a").unwrap().alive = false;
        assert_eq!(s.vantage(&net).as_deref(), Some("b"), "dead devices cannot observe");
        for name in ["b", "c"] {
            net.device_mut(name).unwrap().alive = false;
        }
        assert_eq!(s.vantage(&net), None, "a dead fleet has no vantage");
    }

    /// The definition `vantage` stands in for, one probe per ordered pair
    /// of peers: the alive peer whose heartbeats reach the most peers,
    /// first in name order on ties.
    fn vantage_by_probing(s: &Supervisor, net: &Network) -> Option<String> {
        let mut winner: Option<(&str, usize)> = None;
        for from in s.peers.keys() {
            if !net.device(from).is_some_and(|d| d.alive) {
                continue;
            }
            let reach = s.peers.keys().filter(|to| net.heartbeat(from, to)).count();
            if winner.is_none_or(|(_, w)| reach > w) {
                winner = Some((from, reach));
            }
        }
        winner.map(|(n, _)| n.to_owned())
    }

    /// A heartbeat round by the definition: one probe per peer from the
    /// probed vantage.
    fn beat_by_probing(s: &mut Supervisor, net: &Network, now: u64) -> Vec<SupervisionEvent> {
        let Some(vantage) = vantage_by_probing(s, net) else { return Vec::new() };
        let landed: Vec<bool> = s.peers.keys().map(|peer| net.heartbeat(&vantage, peer)).collect();
        s.advance(landed.into_iter(), now)
    }

    #[test]
    fn an_even_island_split_keeps_the_vantage_first_in_name_order() {
        let mut net = net();
        net.add_device(Device::new("d", DeviceKind::Server));
        net.add_link(Link::new("c", "d", LinkKind::Wired, BandwidthProfile::Constant(100.0), 1));
        let mut s =
            Supervisor::new(SuperviseConfig::default(), ["a", "b", "c", "d"].map(str::to_owned));
        let mut probing = s.clone();
        net.partition(&["c".to_owned(), "d".to_owned()]);
        assert_eq!(s.vantage(&net).as_deref(), Some("a"), "two against two: name order decides");
        assert_eq!(s.vantage(&net), vantage_by_probing(&s, &net));
        for now in 1..=3 {
            assert_eq!(s.beat(&net, now), beat_by_probing(&mut probing, &net, now));
        }
        assert!(s.suspected("c") && s.suspected("d"), "the far island goes quiet");
        assert!(!s.suspected("a") && !s.suspected("b"));
        net.device_mut("a").unwrap().alive = false;
        assert_eq!(s.vantage(&net).as_deref(), Some("c"), "one against two: the larger side");
        assert_eq!(s.vantage(&net), vantage_by_probing(&s, &net));
    }

    #[test]
    fn labelled_rounds_equal_probed_rounds_on_random_fleets_under_faults() {
        let mut events_seen = 0;
        adm_rng::run_cases(0x5e1, 40, |rng| {
            let n = rng.index(23) + 2;
            let names: Vec<String> = (0..n).map(|i| format!("n{i}")).collect();
            let pick = |rng: &mut adm_rng::Pcg32| names[rng.index(n)].as_str();
            let mut net = Network::new();
            for name in &names {
                net.add_device(Device::new(name, DeviceKind::Server));
            }
            for _ in 0..rng.index(2 * n) {
                let (a, b) = (pick(rng), pick(rng));
                net.add_link(Link::new(a, b, LinkKind::Wired, BandwidthProfile::Constant(1.0), 1));
            }
            // Watch a subset: beats may cross devices nobody watches, and
            // one watched name is not a device at all.
            let watched = names.iter().filter(|_| rng.chance(0.7)).cloned();
            let mut s =
                Supervisor::new(SuperviseConfig::default(), watched.chain(["ghost".to_owned()]));
            let mut probing = s.clone();
            for now in 1..=24 {
                let island: Vec<String> = (0..rng.index(n)).map(|_| pick(rng).to_owned()).collect();
                match rng.index(6) {
                    0 => net.device_mut(pick(rng)).unwrap().alive = false,
                    1 => net.device_mut(pick(rng)).unwrap().alive = true,
                    2 => {
                        let up = rng.chance(0.5);
                        net.set_link_up(pick(rng), pick(rng), up);
                    }
                    3 => drop(net.partition(&island)),
                    4 => drop(net.heal(&island)),
                    _ => {}
                }
                assert_eq!(s.vantage(&net), vantage_by_probing(&s, &net), "tick {now}");
                let events = s.beat(&net, now);
                assert_eq!(events, beat_by_probing(&mut probing, &net, now), "tick {now}");
                events_seen += events.len();
                assert_eq!(s.peers(), probing.peers(), "tick {now}");
            }
        });
        assert!(events_seen > 100, "the fault sequences must move the detector ({events_seen})");
    }

    #[test]
    fn dead_peer_is_suspected_after_k_missed_beats_and_circuit_opens() {
        let mut net = net();
        let mut s = sup();
        net.device_mut("c").unwrap().alive = false;
        let mut suspected_at = None;
        for now in 1..=5 {
            let events = s.beat(&net, now);
            if events
                .iter()
                .any(|e| matches!(e, SupervisionEvent::Suspect { peer, .. } if peer == "c"))
            {
                suspected_at = Some(now);
                assert!(
                    events.iter().any(
                        |e| matches!(e, SupervisionEvent::CircuitOpen { peer } if peer == "c")
                    ),
                    "suspicion must open the circuit in the same beat"
                );
                break;
            }
        }
        assert_eq!(suspected_at, Some(3), "suspect_after=3 means the third miss convicts");
        assert!(s.is_open("c"));
        assert!(s.suspected("c"));
        assert!(!s.is_open("b"), "healthy peers are untouched");
    }

    #[test]
    fn partition_is_indistinguishable_from_death() {
        let mut net = net();
        let mut s = sup();
        net.partition(&["c".to_owned()]);
        for now in 1..=3 {
            s.beat(&net, now);
        }
        assert!(s.suspected("c"), "an alive-but-unreachable peer is suspected all the same");
        assert!(s.is_open("c"));
    }

    #[test]
    fn contact_half_opens_and_probation_closes() {
        let mut net = net();
        let mut s = sup();
        net.device_mut("c").unwrap().alive = false;
        for now in 1..=4 {
            s.beat(&net, now);
        }
        assert!(s.is_open("c"));
        net.device_mut("c").unwrap().alive = true;
        let events = s.beat(&net, 5);
        assert!(events.contains(&SupervisionEvent::Revive { peer: "c".into() }));
        assert!(events.contains(&SupervisionEvent::CircuitHalfOpen { peer: "c".into() }));
        assert_eq!(s.circuit("c"), CircuitState::HalfOpen);
        assert!(!s.is_open("c"), "half-open admits trial traffic");
        let events = s.beat(&net, 6);
        assert!(events.contains(&SupervisionEvent::CircuitClose { peer: "c".into() }));
        assert_eq!(s.circuit("c"), CircuitState::Closed);
        assert_eq!((s.suspects(), s.revivals(), s.opens(), s.closes()), (1, 1, 1, 1));
    }

    #[test]
    fn miss_during_probation_reopens_the_circuit() {
        let mut net = net();
        let mut s = sup();
        net.device_mut("c").unwrap().alive = false;
        for now in 1..=4 {
            s.beat(&net, now);
        }
        net.device_mut("c").unwrap().alive = true;
        s.beat(&net, 5); // half-open
        net.device_mut("c").unwrap().alive = false;
        let events = s.beat(&net, 6);
        assert!(events.contains(&SupervisionEvent::CircuitOpen { peer: "c".into() }));
        assert_eq!(s.circuit("c"), CircuitState::Open);
        assert_eq!(s.opens(), 2, "probation was not survived");
    }

    #[test]
    fn restart_probes_back_off_exponentially_and_stop_on_revival() {
        let mut net = net();
        let mut s = sup();
        net.device_mut("c").unwrap().alive = false;
        let mut probe_ticks = Vec::new();
        for now in 1..=40 {
            for e in s.beat(&net, now) {
                if let SupervisionEvent::RestartProbe { attempt, .. } = e {
                    probe_ticks.push((now, attempt));
                }
            }
        }
        // Suspected at 3, first probe armed for 5; the gap after attempt
        // `n` is `2^min(n, 5)` ticks, so the windows grow 2, 4, 8, 16...
        assert_eq!(probe_ticks, vec![(5, 1), (7, 2), (11, 3), (19, 4), (35, 5)]);
        net.device_mut("c").unwrap().alive = true;
        s.beat(&net, 41);
        net.device_mut("c").unwrap().alive = false;
        let mut later = Vec::new();
        for now in 42..=50 {
            for e in s.beat(&net, now) {
                if let SupervisionEvent::RestartProbe { attempt, .. } = e {
                    later.push((now, attempt));
                }
            }
        }
        assert_eq!(
            later,
            vec![(46, 1), (48, 2)],
            "revival resets the backoff: the next incident probes from attempt 1"
        );
    }

    #[test]
    fn supervision_counters_saturate_at_u64_max() {
        let mut s = sup();
        s.suspects = u64::MAX;
        s.revivals = u64::MAX;
        s.opens = u64::MAX;
        s.closes = u64::MAX;
        s.probes = u64::MAX;
        let mut net = net();
        net.device_mut("c").unwrap().alive = false;
        for now in 1..=6 {
            s.beat(&net, now); // suspects, opens, probes all try to bump
        }
        net.device_mut("c").unwrap().alive = true;
        for now in 7..=9 {
            s.beat(&net, now); // revivals and closes try to bump
        }
        assert_eq!(s.suspects(), u64::MAX);
        assert_eq!(s.revivals(), u64::MAX);
        assert_eq!(s.opens(), u64::MAX);
        assert_eq!(s.closes(), u64::MAX);
        assert_eq!(s.probes(), u64::MAX);
    }

    #[test]
    fn unknown_peers_are_never_blocked() {
        let s = sup();
        assert!(!s.is_open("ghost"));
        assert_eq!(s.circuit("ghost"), CircuitState::Closed);
        assert!(!s.suspected("ghost"));
    }

    #[test]
    fn circuit_codes_are_pinned_and_independent_of_display() {
        // The numeric and symbolic codes are a wire format: changing them
        // invalidates goldens and declarative rules, so they are pinned
        // here, deliberately separate from the Display strings.
        assert_eq!(CircuitState::Closed.code(), 0);
        assert_eq!(CircuitState::Open.code(), 1);
        assert_eq!(CircuitState::HalfOpen.code(), 2);
        assert_eq!(CircuitState::Closed.code_str(), "CLOSED");
        assert_eq!(CircuitState::Open.code_str(), "OPEN");
        assert_eq!(CircuitState::HalfOpen.code_str(), "HALF_OPEN");
        assert_eq!(CircuitState::Closed.to_string(), "closed");
        assert_eq!(CircuitState::Open.to_string(), "open");
        assert_eq!(CircuitState::HalfOpen.to_string(), "half-open");
    }

    #[test]
    fn peer_snapshots_are_name_ordered_and_track_incidents() {
        let mut net = net();
        let mut s = sup();
        net.device_mut("c").unwrap().alive = false;
        for now in 1..=5 {
            s.beat(&net, now);
        }
        let snaps = s.peers();
        let names: Vec<&str> = snaps.iter().map(|p| p.peer.as_str()).collect();
        assert_eq!(names, ["a", "b", "c"], "rows come out in peer-name order");
        let c = &snaps[2];
        assert!(c.suspected);
        assert_eq!(c.circuit, CircuitState::Open);
        assert_eq!(c.missed, 5);
        assert_eq!(c.restart_attempts, 1, "the tick-5 probe fired");
        assert!(c.next_probe > 5);
        assert_eq!(snaps[0].circuit, CircuitState::Closed);
        assert!(!snaps[0].suspected);
    }
}
