//! Cross-crate integration: the seams between substrates.
//!
//! * ADL figures ↔ component runtime (boot, switch, rollback, flapping);
//! * SISR images ↔ ORB loading (the verified-image typestate crosses the
//!   boundary);
//! * data components ↔ query engine (stale metadata drives the optimiser);
//! * environment simulator ↔ gauges ↔ rules (readings flow end to end).

use adl::figures::{docked_session, fig4_document, wireless_session};
use compkit::adaptivity::AdaptivityManager;
use compkit::gauge::{Gauge, GaugeBoard, GaugeKind};
use compkit::monitor::Monitor;
use compkit::rules::{Action, Expr, RuleSet, SwitchingRule};
use compkit::runtime::{BasicFactory, Runtime};
use compkit::session::SessionManager;
use compkit::state::StateManager;
use datacomp::metadata::Metadata;
use datacomp::{ColumnType, Schema, Table, Value};
use gokernel::component::Rights;
use gokernel::orb::Orb;
use gokernel::sisr::SisrVerifier;
use machine::isa::{Instr, Program};
use machine::CostModel;
use query::exec::AdaptiveJoinExec;
use query::op::WorkCounter;
use query::optimizer::Catalog;
use ubinet::device::{Device, DeviceKind};
use ubinet::link::{BandwidthProfile, Link, LinkKind};
use ubinet::net::Network;
use ubinet::sim::{EnvEvent, Simulator};

#[test]
fn verified_image_crosses_from_sisr_into_the_orb() {
    let verifier = SisrVerifier::new(CostModel::pentium());
    let img = verifier
        .verify_program(&Program::new(vec![Instr::MovImm(0, 9), Instr::Halt]))
        .expect("clean program verifies");
    let mut orb = Orb::new(1 << 20, CostModel::pentium());
    let ty = orb.install_type(img).expect("verified image installs");
    let a = orb.instantiate(ty).unwrap();
    let b = orb.instantiate(ty).unwrap();
    let iface = orb.publish(b, 0, Rights::PUBLIC, 0).unwrap();
    assert_eq!(orb.invoke(a, iface, &[]).unwrap().result, 9);
}

#[test]
fn session_manager_drives_runtime_from_simulator_readings() {
    // Environment: laptop that undocks at tick 5.
    let mut net = Network::new();
    net.add_device(Device::new("laptop", DeviceKind::Laptop));
    net.add_device(Device::new("sensor", DeviceKind::Sensor));
    net.add_link(Link::new(
        "laptop",
        "sensor",
        LinkKind::Wired,
        BandwidthProfile::Constant(100.0),
        1,
    ));
    let mut sim = Simulator::new(net, 0.001);
    sim.schedule(5, EnvEvent::SetDocked { device: "laptop".into(), docked: false });

    // Adaptation loop over the Figure 4 model.
    let mut board = GaugeBoard::new();
    board.add_monitor(Monitor::new("dock", 4));
    board.add_gauge(Gauge {
        name: "docked".into(),
        monitor: "dock".into(),
        kind: GaugeKind::Latest,
    });
    let mut rules = RuleSet::new();
    rules.add(SwitchingRule {
        id: 1,
        priority: 0,
        constraint: Expr::gauge_lt("docked", 0.5),
        action: Action::SwitchMode("wireless".into()),
    });
    let mut sm = SessionManager::new(fig4_document(), "MobileCBMS", "docked", rules, board);
    let mut rt = Runtime::new();
    let mut am = AdaptivityManager::new();
    let mut st = StateManager::new();
    sm.boot(&mut rt, &mut BasicFactory, &mut am, &mut st, 0).unwrap();
    assert_eq!(rt.configuration(), docked_session(&fig4_document()));

    for t in 1..=10 {
        sim.advance(t);
        let dock = sim.readings()["docked:laptop"];
        sm.board.record("dock", t, dock);
        sm.tick(&mut rt, &mut BasicFactory, &mut am, &mut st, t);
    }
    assert_eq!(sm.mode(), "wireless");
    assert_eq!(rt.configuration(), wireless_session(&fig4_document()));
}

#[test]
fn datacomp_metadata_feeds_the_optimizer() {
    // Build a table, wrap it in Figure 2 metadata with staleness, and let
    // the optimiser consume the stale view end to end.
    let schema = Schema::new(&[("k", ColumnType::Int)]).unwrap();
    let mut t = Table::new(schema);
    for i in 0..1_000 {
        t.insert(vec![Value::Int(i % 20)]).unwrap();
    }
    let mut md = Metadata::fresh(&t);
    md.staleness_error = 0.004;
    let stale_view = md.optimizer_view().unwrap();
    assert_eq!(stale_view.rows, 4, "believes 4 rows where 1000 exist");

    let mut catalog = Catalog::new();
    catalog.register_with_stale_stats("a", t.clone(), 0.004);
    catalog.register_with_stale_stats("b", t, 0.004);
    let w = WorkCounter::new();
    let (_, report) = AdaptiveJoinExec::default().run(&catalog, "a", "b", 0, 0, true, &w).unwrap();
    assert!(report.replans >= 1, "stale Figure 2 metadata must trigger re-planning");
}

#[test]
fn device_failure_breaks_paths_and_best_reroutes() {
    // "the system must be able to cope with units failing".
    let mut net = Network::new();
    net.add_device(Device::new("pda", DeviceKind::Pda));
    net.add_device(Device::new("laptop", DeviceKind::Laptop));
    net.add_device(Device::new("server", DeviceKind::Server));
    net.add_link(Link::new(
        "pda",
        "laptop",
        LinkKind::Wireless,
        BandwidthProfile::Constant(50.0),
        1,
    ));
    net.add_link(Link::new("pda", "server", LinkKind::Wired, BandwidthProfile::Constant(500.0), 1));
    assert_eq!(ubinet::select::best(&net, &["laptop", "server"]), Some("server"));
    net.device_mut("server").unwrap().alive = false;
    assert_eq!(ubinet::select::best(&net, &["laptop", "server"]), Some("laptop"));
    assert!(net.transfer_ticks("pda", "server", 100, 0).is_err());
    assert!(net.transfer_ticks("pda", "laptop", 100, 0).is_ok());
}
