//! The event-driven serving core: a [`TimerWheel`] of engine events over
//! the virtual clock, driving [`PatiaServer::step_at`] only on ticks
//! where something is due.
//!
//! The legacy loop ticks the server unconditionally; this engine inverts
//! control. Arrivals (either explicit batches or lazily-expanded
//! [`FlowSpec`] cohorts), node kills/revivals, and wake-ups are all
//! events on the wheel; ticks with no due events are *skipped* — but only
//! when the server is provably quiescent
//! ([`PatiaServer::is_quiescent`]). After any "hot" tick (arrivals,
//! completions, switches, or non-zero recorded utilisation) the engine
//! schedules a wake-up for the next tick, so the last processed tick
//! before a skip always recorded all-zero utilisation — which is what
//! makes the gauge re-sample at the next event boundary
//! ([`PatiaServer::resample_gauges`]) carry forward exactly the values
//! the legacy per-tick loop would have recorded.

use crate::atom::AtomId;
use crate::server::{PatiaServer, TickStats};
use crate::wheel::TimerWheel;
use crate::workload::{FlowSpec, FlowState};

/// An event on the engine's timer wheel.
#[derive(Debug, Clone)]
pub enum EngineEvent {
    /// Explicit arrival batches for one tick (the differential harness's
    /// path: the legacy workload generators enqueue their requests here).
    Arrivals(Vec<(AtomId, u64)>),
    /// A flow's per-tick pulse: expand flow `i` at the due tick and
    /// re-arm for the next one while the flow stays active.
    FlowPulse(usize),
    /// Process the tick even with no arrivals — the cooldown scheduled
    /// after every hot tick, and the drain driver once flows end.
    Wake,
    /// Kill a node at the due tick, before serving.
    Kill(String),
    /// Revive a node at the due tick, before serving.
    Revive(String),
}

/// Cumulative counters over an engine run — the scenario-level report
/// surface (golden comparisons use the per-tick [`TickStats`] instead).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineTotals {
    /// Requests admitted into the server (arrivals seen by `step_at`).
    pub arrivals: u64,
    /// Requests shed at the engine boundary by the admission cap.
    pub shed: u64,
    /// Requests completed.
    pub completed: u64,
    /// Requests dropped by the server (unknown/holderless atoms).
    pub dropped: u64,
    /// Requests served degraded.
    pub degraded: u64,
    /// SWITCH events performed (migrations + spreads + evacuations).
    pub switches: u64,
    /// Evacuations among those switches.
    pub evacuations: u64,
    /// Failed SWITCH attempts.
    pub failed_switches: u64,
    /// Failed attempts that were retries.
    pub switch_retries: u64,
    /// Ticks actually processed.
    pub ticks_processed: u64,
    /// Quiescent ticks skipped outright.
    pub ticks_skipped: u64,
    /// Sum of completion latencies (ticks).
    pub latency_sum: u64,
    /// Largest completion latency seen.
    pub latency_max: u64,
}

impl EngineTotals {
    /// Mean completion latency in ticks, `None` before any completion.
    #[must_use]
    pub fn latency_mean(&self) -> Option<f64> {
        (self.completed > 0).then(|| self.latency_sum as f64 / self.completed as f64)
    }
}

/// The event engine wrapping a [`PatiaServer`].
#[derive(Debug)]
pub struct EventEngine {
    server: PatiaServer,
    wheel: TimerWheel<EngineEvent>,
    flows: Vec<FlowState>,
    /// Admission cap: once this many requests have been admitted, the
    /// rest are shed (and counted) instead of queued.
    shed_cap: Option<u64>,
    totals: EngineTotals,
}

impl EventEngine {
    /// Wrap a server. The wheel starts at the server's current clock.
    #[must_use]
    pub fn new(server: PatiaServer) -> Self {
        let mut wheel = TimerWheel::new();
        // Align the wheel with a server that has already ticked.
        let _ = wheel.pop_due(server.now());
        Self { server, wheel, flows: Vec::new(), shed_cap: None, totals: EngineTotals::default() }
    }

    /// The wrapped server.
    #[must_use]
    pub fn server(&self) -> &PatiaServer {
        &self.server
    }

    /// Mutable access to the wrapped server — how drivers inject faults
    /// between ticks, exactly as they would against the legacy loop.
    pub fn server_mut(&mut self) -> &mut PatiaServer {
        &mut self.server
    }

    /// The cumulative run totals so far.
    #[must_use]
    pub fn totals(&self) -> &EngineTotals {
        &self.totals
    }

    /// The engine's timer wheel, read-only — the row source for
    /// `sys.timers` introspection.
    #[must_use]
    pub fn wheel(&self) -> &TimerWheel<EngineEvent> {
        &self.wheel
    }

    /// Cap total admitted requests; arrivals beyond the cap are shed and
    /// counted in [`EngineTotals::shed`].
    pub fn set_shed_cap(&mut self, cap: u64) {
        self.shed_cap = Some(cap);
    }

    /// Register a flow: its first pulse is scheduled at `spec.start`, and
    /// each pulse re-arms the next while the flow is active — lazily
    /// expanded, never materialised per request.
    pub fn add_flow(&mut self, spec: FlowSpec) {
        let idx = self.flows.len();
        self.flows.push(FlowState::new(spec));
        if spec.start < spec.end {
            self.wheel.schedule(spec.start, EngineEvent::FlowPulse(idx));
        }
    }

    /// Enqueue explicit arrival batches for `tick`.
    pub fn enqueue_arrivals(&mut self, tick: u64, batches: Vec<(AtomId, u64)>) {
        self.wheel.schedule(tick, EngineEvent::Arrivals(batches));
    }

    /// Schedule a node kill at `tick` (applied before that tick serves).
    pub fn schedule_kill(&mut self, tick: u64, node: &str) {
        self.wheel.schedule(tick, EngineEvent::Kill(node.to_owned()));
    }

    /// Schedule a node revival at `tick`.
    pub fn schedule_revive(&mut self, tick: u64, node: &str) {
        self.wheel.schedule(tick, EngineEvent::Revive(node.to_owned()));
    }

    /// Schedule a bare wake-up at `tick`.
    pub fn schedule_wake(&mut self, tick: u64) {
        self.wheel.schedule(tick, EngineEvent::Wake);
    }

    /// Process exactly tick `now`: drain every event due at or before it,
    /// apply faults, expand flows, shed against the admission cap, and
    /// run one batched server step. Returns the tick's stats.
    ///
    /// # Panics
    /// If `now` does not advance the server's clock.
    pub fn run_tick(&mut self, now: u64, client_bandwidth_kbps: f64) -> TickStats {
        let skipped = now - self.server.now() - 1;
        if skipped > 0 {
            // The gap was provably quiescent: re-sample the gauges up to
            // the tick before this one so windowed gauges see the same
            // per-tick series the legacy loop would have recorded.
            self.server.resample_gauges(now - 1);
            self.totals.ticks_skipped += skipped;
        }
        let mut batches: Vec<(AtomId, u64)> = Vec::new();
        for (_, ev) in self.wheel.pop_due(now) {
            match ev {
                EngineEvent::Arrivals(b) => batches.extend(b),
                EngineEvent::FlowPulse(i) => {
                    let n = self.flows[i].emit(now);
                    if n > 0 {
                        batches.push((self.flows[i].spec().atom, n));
                    }
                    if self.flows[i].active_at(now + 1) {
                        self.wheel.schedule(now + 1, EngineEvent::FlowPulse(i));
                    }
                }
                EngineEvent::Wake => {}
                EngineEvent::Kill(node) => {
                    self.server.kill_node(&node);
                }
                EngineEvent::Revive(node) => {
                    self.server.revive_node(&node);
                }
            }
        }
        if let Some(cap) = self.shed_cap {
            let mut room = cap.saturating_sub(self.totals.arrivals);
            for b in &mut batches {
                let admit = b.1.min(room);
                self.totals.shed += b.1 - admit;
                b.1 = admit;
                room -= admit;
            }
            batches.retain(|&(_, n)| n > 0);
        }
        let stats = self.server.step_at(now, &batches, client_bandwidth_kbps);
        self.absorb(&stats);
        // A hot tick earns a cooldown: the next tick always processes, so
        // a skip can only begin after a tick that recorded all-zero
        // utilisation and left the server quiescent.
        let hot = stats.arrivals > 0
            || !stats.latencies.is_empty()
            || !stats.migrations.is_empty()
            || stats.utilisation.values().any(|&u| u != 0.0);
        if hot || !self.server.is_quiescent() {
            self.wheel.schedule(now + 1, EngineEvent::Wake);
        }
        stats
    }

    /// Run the engine until the wheel is exhausted or the next due tick
    /// would pass `end`. Returns the totals. Ticks with no due events are
    /// skipped wholesale — the whole point of the wheel.
    pub fn run_to(&mut self, end: u64, client_bandwidth_kbps: f64) -> EngineTotals {
        while let Some(due) = self.wheel.next_deadline() {
            if due > end {
                break;
            }
            let now = due.max(self.server.now() + 1);
            self.run_tick(now, client_bandwidth_kbps);
        }
        self.totals
    }

    /// Fold one tick's stats into the run totals.
    fn absorb(&mut self, stats: &TickStats) {
        self.totals.arrivals += stats.arrivals as u64;
        for &(latency, count) in stats.latencies.runs() {
            self.totals.completed += count;
            self.totals.latency_sum += latency * count;
            self.totals.latency_max = self.totals.latency_max.max(latency);
        }
        self.totals.dropped += stats.faults.dropped;
        self.totals.degraded += stats.faults.degraded;
        self.totals.switches += stats.migrations.len() as u64;
        self.totals.evacuations += stats.faults.evacuations;
        self.totals.failed_switches += stats.faults.failed_switches;
        self.totals.switch_retries += stats.faults.switch_retries;
        self.totals.ticks_processed += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServerConfig;
    use crate::workload::FlowBurst;

    fn engine(work_per_request: u64) -> EventEngine {
        let (net, atoms, constraints) = ServerConfig::paper_fleet();
        EventEngine::new(PatiaServer::new(
            net,
            atoms,
            constraints,
            ServerConfig { adaptive: true, work_per_request },
        ))
    }

    #[test]
    fn quiescent_gaps_are_skipped_not_processed() {
        let mut e = engine(400);
        e.enqueue_arrivals(5, vec![(AtomId(123), 3)]);
        e.enqueue_arrivals(1_000, vec![(AtomId(123), 2)]);
        let totals = e.run_to(2_000, 500.0);
        assert_eq!(totals.arrivals, 5);
        assert_eq!(totals.completed, 5);
        assert!(
            totals.ticks_processed < 20,
            "two small bursts must not process ~1000 ticks (got {})",
            totals.ticks_processed
        );
        assert!(
            totals.ticks_skipped > 900,
            "the gap must be skipped (got {})",
            totals.ticks_skipped
        );
        assert_eq!(
            totals.ticks_processed + totals.ticks_skipped,
            e.server().now(),
            "every tick is either processed or skipped"
        );
    }

    #[test]
    fn engine_totals_match_a_legacy_tick_loop() {
        // Same workload through the shim and the engine, tick by tick:
        // identical TickStats, hence identical totals.
        let reqs_at = |t: u64| -> Vec<AtomId> {
            if (10..30).contains(&t) {
                vec![AtomId(123); 4]
            } else {
                Vec::new()
            }
        };
        let (net, atoms, constraints) = ServerConfig::paper_fleet();
        let mut legacy = PatiaServer::new(
            net,
            atoms,
            constraints,
            ServerConfig { adaptive: true, work_per_request: 400 },
        );
        let mut legacy_stats = Vec::new();
        for t in 1..=200 {
            legacy_stats.push(legacy.tick(&reqs_at(t), 500.0));
        }
        let mut e = engine(400);
        let mut engine_stats = Vec::new();
        for t in 1..=200 {
            let batches: Vec<(AtomId, u64)> = reqs_at(t).iter().map(|&a| (a, 1)).collect();
            e.enqueue_arrivals(t, batches);
            engine_stats.push(e.run_tick(t, 500.0));
        }
        assert_eq!(legacy_stats, engine_stats);
        // And once more with each tick's requests arriving as one cohort:
        // completions are recorded as merged runs, so the record is the
        // same whether a cohort completes whole or request by request.
        let mut e = engine(400);
        let mut cohort_stats = Vec::new();
        for t in 1..=200 {
            e.enqueue_arrivals(t, vec![(AtomId(123), reqs_at(t).len() as u64)]);
            cohort_stats.push(e.run_tick(t, 500.0));
        }
        assert_eq!(legacy_stats, cohort_stats);
    }

    #[test]
    fn flows_expand_lazily_and_conserve_totals() {
        let spec = FlowSpec {
            atom: AtomId(123),
            start: 10,
            end: 60,
            rate: 3.5,
            ramp: 10,
            burst: Some(FlowBurst { at: 30, len: 5, multiplier: 2.0 }),
        };
        let mut e = engine(1);
        e.add_flow(spec);
        let totals = e.run_to(5_000, 500.0);
        assert_eq!(totals.arrivals, spec.total_requests());
        assert_eq!(totals.completed + e.server().queued_requests(), totals.arrivals);
        assert_eq!(totals.shed, 0);
    }

    #[test]
    fn shed_cap_bounds_admissions_and_counts_the_rest() {
        let spec =
            FlowSpec { atom: AtomId(123), start: 1, end: 41, rate: 5.0, ramp: 0, burst: None };
        let mut e = engine(1);
        e.add_flow(spec);
        e.set_shed_cap(120);
        let totals = e.run_to(5_000, 500.0);
        assert_eq!(totals.arrivals, 120);
        assert_eq!(totals.shed, 80);
        assert_eq!(totals.arrivals + totals.shed, spec.total_requests());
    }

    #[test]
    fn scheduled_kill_and_revive_apply_before_the_tick_serves() {
        let mut e = engine(400);
        let home = e.server().agents(AtomId(123))[0].node.clone();
        e.schedule_kill(10, &home);
        e.schedule_revive(40, &home);
        e.enqueue_arrivals(12, vec![(AtomId(123), 2)]);
        // Wake ticks keep the clock moving through the incident window.
        let totals = e.run_to(200, 500.0);
        assert!(totals.evacuations >= 1, "the stranded agent must evacuate");
        assert!(e.server().agents(AtomId(123)).iter().all(|a| a.node != home || {
            // after revival an agent may legitimately move back
            true
        }));
        assert_eq!(totals.completed, 2, "the requests survive the node death");
        assert!(e.server().is_quiescent(), "the incident fully settles");
    }
}
