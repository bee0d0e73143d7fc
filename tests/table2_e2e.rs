//! Integration: the Table 2 constraints drive a full Patia run — BEST
//! placement, SWITCH under flash crowd, bandwidth-banded version serving.

use patia::atom::AtomId;
use patia::constraint::{paper_table2, ConstraintLogic};
use patia::server::{PatiaServer, ServerConfig};
use patia::workload::{FlashCrowd, RequestGen};

fn fleet(adaptive: bool) -> PatiaServer {
    let (net, atoms, constraints) = ServerConfig::paper_fleet();
    PatiaServer::new(net, atoms, constraints, ServerConfig { adaptive, work_per_request: 400 })
}

#[test]
fn table2_has_the_three_paper_rows() {
    let rows = paper_table2();
    assert_eq!(rows.iter().map(|c| c.id).collect::<Vec<_>>(), vec![450, 455, 595]);
    assert!(matches!(rows[0].logic, ConstraintLogic::SelectBest { .. }));
    assert!(matches!(rows[1].logic, ConstraintLogic::SwitchOnCpu { .. }));
    assert!(matches!(rows[2].logic, ConstraintLogic::BandwidthVersion { .. }));
}

/// The paper's Table 2 parameters are fixed history: constraint 455 fires
/// at 90 % processor utilisation, constraint 595 bands bandwidth strictly
/// between 30 and 100 Kbps, and both page constraints govern atom 123
/// while the video constraint governs atom 153.
#[test]
fn table2_carries_the_paper_parameters_exactly() {
    let rows = paper_table2();
    assert_eq!(rows[0].atom, AtomId(123));
    assert_eq!(rows[1].atom, AtomId(123));
    assert_eq!(rows[2].atom, AtomId(153));
    let ConstraintLogic::SelectBest { candidates } = &rows[0].logic else {
        panic!("row 450 is Select BEST")
    };
    assert_eq!(candidates, &["node1".to_owned(), "node2".to_owned()]);
    let ConstraintLogic::SwitchOnCpu { threshold, candidates } = &rows[1].logic else {
        panic!("row 455 is SWITCH on cpu")
    };
    assert!((threshold - 0.9).abs() < f64::EPSILON, "the paper's 90% threshold");
    assert_eq!(candidates, &["node1".to_owned(), "node2".to_owned()]);
    let ConstraintLogic::BandwidthVersion { lo, hi, preferred, fallback } = &rows[2].logic else {
        panic!("row 595 is bandwidth-banded")
    };
    assert_eq!((*lo, *hi), (30.0, 100.0), "the paper's > 30 < 100 Kbps band");
    assert_eq!(preferred, &[1, 2, 3]);
    assert_eq!(*fallback, 4);
}

/// The metrics registry reports the same numbers the tick loop observes:
/// a flash-crowd run with observability armed bills every arrival,
/// completion, and migration into counters that match the TickStats sums.
#[test]
fn registry_reports_the_flash_crowd_numbers() {
    let mut s = fleet(true);
    let hub = obs::Obs::new(obs::CostModel::pentium()).into_handle();
    s.arm_obs(hub.clone());
    let crowd = FlashCrowd { from: 50, to: 450, target: AtomId(123), multiplier: 15.0 };
    let mut gen = RequestGen::new(vec![AtomId(123)], 1.0, 4.0, 77).with_crowd(crowd);
    let (mut arrived, mut completed, mut migrations) = (0u64, 0u64, 0u64);
    for t in 1..=1500 {
        let st = s.tick(&gen.tick(t), 64.0);
        arrived += st.arrivals as u64;
        completed += st.latencies.len() as u64;
        migrations += st.migrations.len() as u64;
    }
    s.disarm_obs();
    let o = obs::Obs::try_unwrap(hub).expect("server disarmed, hub has one owner");
    assert_eq!(o.metrics.counter("patia.requests.arrived"), arrived);
    assert_eq!(o.metrics.counter("patia.requests.completed"), completed);
    assert!(migrations >= 1, "the crowd must force at least one SWITCH");
    assert!(
        o.tracer.events().iter().filter(|e| e.name.starts_with("switch:")).count() as u64
            >= migrations,
        "every SWITCH must leave a trace event"
    );
    let h = o.metrics.histogram("patia.latency_ticks").expect("latency histogram");
    assert_eq!(h.count, completed);
}

#[test]
fn constraint_450_places_the_agent_on_a_candidate() {
    let s = fleet(true);
    assert!(["node1", "node2"].contains(&s.agents(AtomId(123))[0].node.as_str()));
}

#[test]
fn constraint_455_switches_under_flash_crowd_and_bounds_latency() {
    let run = |adaptive: bool| {
        let mut s = fleet(adaptive);
        let crowd = FlashCrowd { from: 50, to: 450, target: AtomId(123), multiplier: 15.0 };
        let mut gen = RequestGen::new(vec![AtomId(123)], 1.0, 4.0, 77).with_crowd(crowd);
        let mut lat: Vec<u64> = Vec::new();
        let mut switches = 0;
        for t in 1..=1500 {
            let st = s.tick(&gen.tick(t), 64.0);
            switches += st.migrations.len();
            lat.extend(st.latencies.iter());
        }
        lat.sort_unstable();
        let p99 = lat[lat.len().saturating_sub(1) * 99 / 100];
        (switches, p99)
    };
    let (adaptive_switches, adaptive_p99) = run(true);
    let (static_switches, static_p99) = run(false);
    assert!(adaptive_switches >= 1);
    assert_eq!(static_switches, 0);
    assert!(
        (adaptive_p99 as f64) * 1.5 < static_p99 as f64,
        "adaptive p99 {adaptive_p99} vs static {static_p99}"
    );
}

#[test]
fn constraint_595_serves_by_bandwidth_band() {
    let s = fleet(true);
    // In-band bandwidths get videohalf (a 0.5-quality rendition, versions 1-3).
    for bw in [31.0, 50.0, 99.0] {
        let v = s.select_version(AtomId(153), bw).unwrap();
        assert!((1..=3).contains(&v), "bw {bw} -> version {v}");
    }
    // Out-of-band gets videosmall (version 4).
    for bw in [5.0, 30.0, 100.0, 900.0] {
        assert_eq!(s.select_version(AtomId(153), bw), Some(4), "bw {bw}");
    }
}

#[test]
fn whole_fleet_survives_a_long_mixed_run() {
    let mut s = fleet(true);
    let crowd = FlashCrowd { from: 200, to: 600, target: AtomId(123), multiplier: 12.0 };
    let mut gen = RequestGen::new(vec![AtomId(123), AtomId(153)], 1.1, 6.0, 3).with_crowd(crowd);
    let mut served = 0usize;
    let mut arrived = 0usize;
    for t in 1..=2000 {
        let reqs = gen.tick(t);
        arrived += reqs.len();
        served += s.tick(&reqs, 64.0).latencies.len();
    }
    // Everything that arrived is eventually served (queues drain).
    assert!(served as f64 > arrived as f64 * 0.99, "served {served} of {arrived}");
}
