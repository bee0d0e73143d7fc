//! Patia properties: request conservation (everything that arrives is
//! eventually served, adaptive or not), determinism under a fixed seed, and
//! stream-session invariants under arbitrary bandwidth walks.
//!
//! Randomised suites are opt-in: `cargo test -p patia --features slow-props`.
#![cfg(feature = "slow-props")]

use adm_rng::run_cases;
use patia::atom::AtomId;
use patia::server::{PatiaServer, ServerConfig};
use patia::stream::{default_ladder, StreamSession, TickOutcome};
use patia::workload::{FlashCrowd, RequestGen};
use ubinet::link::BandwidthProfile;

fn run_server(adaptive: bool, seed: u64, multiplier: f64, ticks: u64) -> (usize, usize, Vec<u64>) {
    let (net, atoms, constraints) = ServerConfig::paper_fleet();
    let mut s =
        PatiaServer::new(net, atoms, constraints, ServerConfig { adaptive, work_per_request: 400 });
    let crowd = FlashCrowd { from: 40, to: ticks / 3, target: AtomId(123), multiplier };
    let mut gen = RequestGen::new(vec![AtomId(123), AtomId(153)], 1.1, 3.0, seed).with_crowd(crowd);
    let mut arrived = 0;
    let mut lat = Vec::new();
    for t in 1..=ticks {
        // Stop the workload early so queues can drain.
        let reqs = if t <= ticks / 2 { gen.tick(t) } else { Vec::new() };
        arrived += reqs.len();
        lat.extend(s.tick(&reqs, 64.0).latencies.iter());
    }
    (arrived, lat.len(), lat)
}

/// Conservation: with a long-enough drain, served == arrived, with or
/// without adaptation, for any seed and crowd size.
#[test]
fn requests_are_conserved() {
    run_cases(0x9a1, 12, |rng| {
        let seed = rng.below(1000);
        let multiplier = 1.0 + rng.f64() * 9.0;
        let adaptive = rng.chance(0.5);
        let (arrived, served, _) = run_server(adaptive, seed, multiplier, 4000);
        assert_eq!(arrived, served, "adaptive={adaptive}");
    });
}

/// Determinism: identical seeds produce identical latency traces.
#[test]
fn runs_are_deterministic() {
    run_cases(0x9a2, 12, |rng| {
        let seed = rng.below(1000);
        let a = run_server(true, seed, 8.0, 800);
        let b = run_server(true, seed, 8.0, 800);
        assert_eq!(a, b);
    });
}

/// Stream sessions always finish on any bounded-positive bandwidth walk
/// when adaptive (the lowest rung is below the walk's floor), and media
/// position never exceeds the duration.
#[test]
fn adaptive_streams_always_finish() {
    run_cases(0x9a3, 32, |rng| {
        let seed = rng.next_u64();
        let lo = 26.0 + rng.f64() * 34.0;
        let profile = BandwidthProfile::Walk { lo, hi: lo + 300.0, seed };
        let mut s = StreamSession::new(default_ladder(), 120, true);
        let mut ticks = 0u64;
        loop {
            ticks += 1;
            assert!(ticks < 50_000, "stream livelocked");
            match s.tick(profile.at(ticks)) {
                TickOutcome::Finished => break,
                _ => {
                    assert!(s.position() <= 120);
                }
            }
        }
        assert_eq!(s.position(), 120);
    });
}
