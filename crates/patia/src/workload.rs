//! Request workload: Zipf atom popularity with deterministic flash
//! crowds, plus the flow layer — cohorts of thousands of clients modeled
//! as arrival-*rate* flows instead of individually generated requests.
//!
//! Production web traces are not available; the substitution is the
//! standard synthetic equivalent — Zipf-distributed object popularity
//! (web-cache literature's consistent finding) plus a flash-crowd window
//! during which the arrival rate on one hot atom multiplies. Everything is
//! seeded, so adaptive and non-adaptive runs see byte-identical workloads.
//!
//! [`FlowSpec`] describes a cohort by rate, ramp, and burst; a
//! [`FlowState`] expands it lazily, one `(atom, count)` batch per active
//! tick, with a fractional-rate carry accumulator so that the emitted
//! total is exactly conserved against a per-request expansion of the same
//! spec (the conservation property in `tests/flow_props.rs`). Ten million requests
//! cost ten million *counts*, not ten million allocations.

use crate::atom::AtomId;
use adm_rng::Pcg32;

/// A flash-crowd spike.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlashCrowd {
    /// First tick of the spike.
    pub from: u64,
    /// Last tick (inclusive).
    pub to: u64,
    /// The atom everyone suddenly wants.
    pub target: AtomId,
    /// Rate multiplier during the spike.
    pub multiplier: f64,
}

/// The request generator.
#[derive(Debug, Clone)]
pub struct RequestGen {
    atoms: Vec<AtomId>,
    /// Zipf CDF over `atoms`.
    cdf: Vec<f64>,
    /// Mean requests per tick in steady state.
    pub base_rate: f64,
    /// Optional flash crowd.
    pub crowd: Option<FlashCrowd>,
    rng: Pcg32,
}

impl RequestGen {
    /// A generator over `atoms` with Zipf exponent `s` and `base_rate`
    /// mean requests/tick, seeded deterministically.
    ///
    /// # Panics
    /// If `atoms` is empty.
    #[must_use]
    pub fn new(atoms: Vec<AtomId>, s: f64, base_rate: f64, seed: u64) -> Self {
        assert!(!atoms.is_empty(), "need at least one atom");
        let weights: Vec<f64> = (1..=atoms.len()).map(|k| 1.0 / (k as f64).powf(s)).collect();
        let total: f64 = weights.iter().sum();
        let mut cdf = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for w in &weights {
            acc += w / total;
            cdf.push(acc);
        }
        Self { atoms, cdf, base_rate, crowd: None, rng: Pcg32::new(seed) }
    }

    /// Attach a flash crowd (builder style).
    #[must_use]
    pub fn with_crowd(mut self, crowd: FlashCrowd) -> Self {
        self.crowd = Some(crowd);
        self
    }

    fn in_crowd(&self, tick: u64) -> Option<FlashCrowd> {
        self.crowd.filter(|c| (c.from..=c.to).contains(&tick))
    }

    /// Requests arriving at `tick`. Counts are drawn from a deterministic
    /// Poisson-like process (rounded rate + Bernoulli remainder); during a
    /// flash crowd the extra arrivals all target the hot atom.
    pub fn tick(&mut self, tick: u64) -> Vec<AtomId> {
        let mut out = Vec::new();
        let emit_rate = |rate: f64,
                         rng: &mut Pcg32,
                         out: &mut Vec<AtomId>,
                         fixed: Option<AtomId>,
                         cdf: &[f64],
                         atoms: &[AtomId]| {
            let whole = rate.floor() as usize;
            let frac = rate - rate.floor();
            let n = whole + usize::from(rng.f64() < frac);
            for _ in 0..n {
                match fixed {
                    Some(a) => out.push(a),
                    None => {
                        let u = rng.f64();
                        let idx = cdf.partition_point(|&c| c < u).min(atoms.len() - 1);
                        out.push(atoms[idx]);
                    }
                }
            }
        };
        emit_rate(self.base_rate, &mut self.rng, &mut out, None, &self.cdf, &self.atoms);
        if let Some(c) = self.in_crowd(tick) {
            let extra = self.base_rate * (c.multiplier - 1.0);
            emit_rate(
                extra.max(0.0),
                &mut self.rng,
                &mut out,
                Some(c.target),
                &self.cdf,
                &self.atoms,
            );
        }
        out
    }
}

/// A burst riding on a flow: for `len` ticks starting at `at`, the flow's
/// rate multiplies — the flow-level analogue of [`FlashCrowd`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowBurst {
    /// First tick of the burst.
    pub at: u64,
    /// Burst length in ticks.
    pub len: u64,
    /// Rate multiplier while the burst lasts.
    pub multiplier: f64,
}

/// A cohort of clients described as an arrival-rate flow: `rate`
/// requests/tick for one atom over `[start, end)`, linearly ramping up
/// over the first `ramp` ticks, optionally multiplied by a [`FlowBurst`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowSpec {
    /// The atom every request in the cohort targets.
    pub atom: AtomId,
    /// First tick the flow is active.
    pub start: u64,
    /// First tick the flow is no longer active (exclusive).
    pub end: u64,
    /// Steady-state requests per tick.
    pub rate: f64,
    /// Ticks of linear ramp-up from zero to `rate` (0 = step on).
    pub ramp: u64,
    /// Optional burst window.
    pub burst: Option<FlowBurst>,
}

impl FlowSpec {
    /// The flow's instantaneous rate at `tick`: zero outside
    /// `[start, end)`, linearly ramped over the first `ramp` ticks,
    /// multiplied inside the burst window.
    #[must_use]
    pub fn rate_at(&self, tick: u64) -> f64 {
        if tick < self.start || tick >= self.end {
            return 0.0;
        }
        let mut rate = self.rate;
        if self.ramp > 0 {
            let into = tick - self.start;
            if into < self.ramp {
                rate *= (into + 1) as f64 / self.ramp as f64;
            }
        }
        if let Some(b) = self.burst {
            if tick >= b.at && tick < b.at + b.len {
                rate *= b.multiplier;
            }
        }
        rate.max(0.0)
    }

    /// The total requests the flow emits over its lifetime — computed by
    /// running the same carry accumulator the engine runs, so planning
    /// code (scenario sizing) agrees with execution exactly.
    #[must_use]
    pub fn total_requests(&self) -> u64 {
        let mut st = FlowState::new(*self);
        (self.start..self.end).map(|t| st.emit(t)).sum()
    }
}

/// A flow being expanded: the spec plus the fractional-request carry.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowState {
    spec: FlowSpec,
    carry: f64,
}

impl FlowState {
    /// Start expanding `spec` from a zero carry.
    #[must_use]
    pub fn new(spec: FlowSpec) -> Self {
        Self { spec, carry: 0.0 }
    }

    /// The flow's spec.
    #[must_use]
    pub fn spec(&self) -> &FlowSpec {
        &self.spec
    }

    /// Whether the flow can still emit at or after `tick`.
    #[must_use]
    pub fn active_at(&self, tick: u64) -> bool {
        tick < self.spec.end
    }

    /// Requests the cohort contributes at `tick`. The fractional part of
    /// the rate accumulates in the carry, so emitted totals conserve the
    /// integral of the rate curve instead of losing the remainder every
    /// tick. Deterministic — no randomness, so engine and legacy
    /// expansions agree request-for-request.
    pub fn emit(&mut self, tick: u64) -> u64 {
        self.carry += self.spec.rate_at(tick);
        let n = self.carry.floor() as u64;
        self.carry -= n as f64;
        n
    }

    /// The per-request expansion of this tick — the reference the flow
    /// conservation property counts engine admissions against.
    pub fn emit_requests(&mut self, tick: u64) -> Vec<AtomId> {
        let n = self.emit(tick);
        vec![self.spec.atom; usize::try_from(n).unwrap_or(usize::MAX)]
    }
}

/// A set of flows expanded in lockstep — the workload side of the event
/// engine's mega-crowd scenario.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlowSet {
    flows: Vec<FlowState>,
}

impl FlowSet {
    /// An empty set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a flow.
    pub fn add(&mut self, spec: FlowSpec) {
        self.flows.push(FlowState::new(spec));
    }

    /// The flows.
    #[must_use]
    pub fn flows(&self) -> &[FlowState] {
        &self.flows
    }

    /// The earliest tick any flow starts, if the set is non-empty.
    #[must_use]
    pub fn first_start(&self) -> Option<u64> {
        self.flows.iter().map(|f| f.spec.start).min()
    }

    /// The tick after which no flow emits.
    #[must_use]
    pub fn last_end(&self) -> Option<u64> {
        self.flows.iter().map(|f| f.spec.end).max()
    }

    /// Every flow's batch for `tick`, in insertion order, zero-count
    /// batches omitted.
    pub fn emit(&mut self, tick: u64) -> Vec<(AtomId, u64)> {
        let mut out = Vec::new();
        for f in &mut self.flows {
            let n = f.emit(tick);
            if n > 0 {
                out.push((f.spec.atom, n));
            }
        }
        out
    }

    /// Total requests the whole set will emit over its lifetime.
    #[must_use]
    pub fn total_requests(&self) -> u64 {
        self.flows.iter().map(|f| f.spec.total_requests()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn atoms(n: u32) -> Vec<AtomId> {
        (0..n).map(AtomId).collect()
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = RequestGen::new(atoms(5), 1.0, 3.0, 9);
        let mut b = RequestGen::new(atoms(5), 1.0, 3.0, 9);
        for t in 0..50 {
            assert_eq!(a.tick(t), b.tick(t));
        }
    }

    #[test]
    fn popularity_is_zipf_skewed() {
        let mut g = RequestGen::new(atoms(10), 1.2, 10.0, 3);
        let mut counts: BTreeMap<AtomId, usize> = BTreeMap::new();
        for t in 0..1000 {
            for a in g.tick(t) {
                *counts.entry(a).or_default() += 1;
            }
        }
        let hot = counts.get(&AtomId(0)).copied().unwrap_or(0);
        let cold = counts.get(&AtomId(9)).copied().unwrap_or(0);
        assert!(hot > cold * 3, "hot {hot} vs cold {cold}");
    }

    #[test]
    fn flash_crowd_multiplies_rate_on_target() {
        let crowd = FlashCrowd { from: 100, to: 200, target: AtomId(2), multiplier: 10.0 };
        let mut g = RequestGen::new(atoms(5), 1.0, 4.0, 11).with_crowd(crowd);
        let mut steady = 0usize;
        let mut spike = 0usize;
        for t in 0..100 {
            steady += g.tick(t).len();
        }
        for t in 100..200 {
            spike += g.tick(t).len();
        }
        assert!(spike as f64 > steady as f64 * 5.0, "spike {spike} should dwarf steady {steady}");
    }

    #[test]
    #[should_panic(expected = "at least one atom")]
    fn empty_atom_set_rejected() {
        let _ = RequestGen::new(vec![], 1.0, 1.0, 0);
    }

    #[test]
    fn flow_carry_conserves_fractional_rates() {
        let spec =
            FlowSpec { atom: AtomId(1), start: 10, end: 110, rate: 2.7, ramp: 0, burst: None };
        let mut st = FlowState::new(spec);
        let total: u64 = (0..200).map(|t| st.emit(t)).sum();
        // 100 active ticks at 2.7/tick = 270 exactly; the carry loses
        // nothing to rounding.
        assert_eq!(total, 270);
        assert_eq!(spec.total_requests(), 270);
    }

    #[test]
    fn flow_ramp_rises_linearly_and_burst_multiplies() {
        let spec = FlowSpec {
            atom: AtomId(1),
            start: 0,
            end: 100,
            rate: 10.0,
            ramp: 10,
            burst: Some(FlowBurst { at: 50, len: 5, multiplier: 3.0 }),
        };
        assert_eq!(spec.rate_at(0), 1.0, "first ramp tick is 1/10 of the rate");
        assert_eq!(spec.rate_at(9), 10.0, "ramp completes at its last tick");
        assert_eq!(spec.rate_at(20), 10.0);
        assert_eq!(spec.rate_at(52), 30.0, "burst triples the rate");
        assert_eq!(spec.rate_at(55), 10.0, "burst window is half-open");
        assert_eq!(spec.rate_at(100), 0.0, "flow end is exclusive");
    }

    #[test]
    fn flow_set_emits_batches_in_insertion_order() {
        let mut set = FlowSet::new();
        set.add(FlowSpec { atom: AtomId(1), start: 0, end: 5, rate: 2.0, ramp: 0, burst: None });
        set.add(FlowSpec { atom: AtomId(2), start: 3, end: 8, rate: 1.0, ramp: 0, burst: None });
        assert_eq!(set.emit(0), vec![(AtomId(1), 2)]);
        assert_eq!(set.emit(3), vec![(AtomId(1), 2), (AtomId(2), 1)]);
        assert_eq!(set.emit(6), vec![(AtomId(2), 1)], "finished flows emit nothing");
        assert_eq!(set.first_start(), Some(0));
        assert_eq!(set.last_end(), Some(8));
        assert_eq!(set.total_requests(), 2 * 5 + 5);
    }

    #[test]
    fn emit_requests_matches_emit_counts() {
        let spec = FlowSpec {
            atom: AtomId(7),
            start: 0,
            end: 40,
            rate: 1.3,
            ramp: 7,
            burst: Some(FlowBurst { at: 20, len: 3, multiplier: 2.5 }),
        };
        let mut counted = FlowState::new(spec);
        let mut expanded = FlowState::new(spec);
        for t in 0..50 {
            let reqs = expanded.emit_requests(t);
            assert_eq!(reqs.len() as u64, counted.emit(t));
            assert!(reqs.iter().all(|&a| a == AtomId(7)));
        }
    }
}
