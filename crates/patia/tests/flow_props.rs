//! Conservation properties for flow expansion.
//!
//! A flow is a lazily-expanded cohort: the engine must neither invent nor
//! lose requests relative to the per-request legacy expansion
//! ([`FlowState::emit_requests`]), across ramp edges, burst windows, and
//! fractional-rate carry.

use adm_rng::{run_cases, Pcg32};
use patia::{AtomId, EventEngine, FlowBurst, FlowSpec, FlowState, PatiaServer, ServerConfig};

fn random_spec(rng: &mut Pcg32) -> FlowSpec {
    let start = rng.range_u32(1, 50) as u64;
    let len = rng.range_u32(1, 120) as u64;
    let ramp = if rng.chance(0.5) { rng.range_u32(1, 40) as u64 } else { 0 };
    let burst = rng.chance(0.5).then(|| FlowBurst {
        at: start + rng.range_u32(0, len as u32) as u64,
        len: rng.range_u32(1, 30) as u64,
        multiplier: 1.0 + rng.f64() * 4.0,
    });
    FlowSpec { atom: AtomId(123), start, end: start + len, rate: rng.f64() * 12.0, ramp, burst }
}

fn fleet_engine() -> EventEngine {
    let (net, atoms, constraints) = ServerConfig::paper_fleet();
    EventEngine::new(PatiaServer::new(
        net,
        atoms,
        constraints,
        ServerConfig { adaptive: true, work_per_request: 1 },
    ))
}

/// Engine flow totals equal the per-request legacy expansion, request for
/// request, across ramp and burst edges.
#[test]
fn flow_totals_match_per_request_legacy_expansion() {
    run_cases(0xf10c, 32, |rng| {
        let n_flows = rng.range_u32(1, 4) as usize;
        let specs: Vec<FlowSpec> = (0..n_flows).map(|_| random_spec(rng)).collect();
        let horizon = specs.iter().map(|s| s.end).max().unwrap() + 1;

        // Per-request legacy expansion: one AtomId per request, tick by tick.
        let mut states: Vec<FlowState> = specs.iter().map(|&s| FlowState::new(s)).collect();
        let mut legacy_total = 0u64;
        for t in 0..horizon {
            for st in &mut states {
                legacy_total += st.emit_requests(t).len() as u64;
            }
        }
        let declared: u64 = specs.iter().map(FlowSpec::total_requests).sum();
        assert_eq!(
            legacy_total, declared,
            "FlowSpec::total_requests must agree with per-tick expansion"
        );

        let mut engine = fleet_engine();
        for &s in &specs {
            engine.add_flow(s);
        }
        let totals = engine.run_to(horizon + 100_000, 500.0);
        assert_eq!(
            totals.arrivals, legacy_total,
            "engine admissions must equal the legacy per-request count"
        );
        assert_eq!(
            totals.completed + engine.server().queued_requests() + totals.dropped,
            totals.arrivals,
            "every admitted request is completed, queued, or dropped"
        );
    });
}
