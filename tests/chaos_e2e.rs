//! Chaos conformance suite: seeded fault storylines driven end-to-end
//! through the stack, asserting the paper's resilience claims hold —
//! "units failing – perhaps mid way through answering a query" must not
//! lose requests, corrupt the component runtime, or panic anything.
//!
//! Every scenario is deterministic: the fault timeline comes from a
//! seeded [`FaultPlan`], never the wall clock. The determinism scenario
//! sweeps every golden seed.

use adl::ast::{Binding, PortRef};
use adl::config::Configuration;
use adl::diff::diff;
use adm_core::scenario::chaos::{run, ChaosParams};
use adm_core::scenario::GOLDEN_SEEDS;
use compkit::adaptivity::{AdaptivityManager, SwitchError};
use compkit::runtime::{BasicFactory, Runtime};
use compkit::state::StateManager;
use faultsim::{
    flaky_factory, schedule_network, Fault, FaultPlan, FaultSpace, PlanInvokeFaults, PlanStepFaults,
};
use gokernel::component::Rights;
use gokernel::{Orb, OrbError};
use machine::isa::{Instr, Program};
use machine::CostModel;
use patia::atom::AtomId;
use patia::stream::{default_ladder, StreamSession, TickOutcome};
use patia::workload::FlashCrowd;
use std::collections::BTreeMap;
use ubinet::{BandwidthProfile, Device, DeviceKind, Link, LinkKind, Network, Simulator};

/// Scenario 1 — node death mid-flash-crowd. The crowd's victim node dies
/// while saturated; its agents must evacuate and every request must be
/// accounted for.
#[test]
fn node_death_mid_flash_crowd_loses_no_request() {
    let plan = FaultPlan::new(1)
        .at(80, Fault::NodeDeath { node: "node1".into() })
        .at(160, Fault::NodeRevival { node: "node1".into() });
    let params = ChaosParams {
        plan,
        ticks: 400,
        crowd: Some(FlashCrowd { from: 50, to: 250, target: AtomId(123), multiplier: 30.0 }),
        ..ChaosParams::default()
    };
    let r = run(&params);
    assert!(
        r.conserved(),
        "conservation broken: {} arrivals vs {} completed + {} dropped + {} queued",
        r.arrivals,
        r.completed,
        r.dropped,
        r.queued_at_end
    );
    assert!(r.evacuations >= 1, "agents on the corpse must evacuate");
    assert_eq!(r.dropped, 0, "replicas exist, so nothing may be dropped");
    assert!(r.completed > 0);
    assert!(r.switches_consistent, "switch counters must match observed events");
}

/// Scenario 2 — partition during SWITCH. The typing pool is unreachable
/// exactly when constraint 455 wants to spread onto it; attempts fail and
/// back off until the partition heals.
#[test]
fn partition_during_switch_backs_off_then_lands() {
    let island = vec!["wp1".to_owned(), "wp2".to_owned()];
    let plan = FaultPlan::new(2)
        .at(40, Fault::Partition { island: island.clone() })
        .at(150, Fault::Heal { island });
    let params = ChaosParams {
        plan,
        ticks: 400,
        crowd: Some(FlashCrowd { from: 50, to: 250, target: AtomId(123), multiplier: 40.0 }),
        ..ChaosParams::default()
    };
    let r = run(&params);
    assert!(r.conserved());
    assert!(
        r.failed_switches >= 1,
        "switching into the partitioned typing pool must fail, not hang or panic"
    );
    assert!(r.migrations >= 1, "switches must land on reachable nodes or after the heal");
    assert!(r.switches_consistent);
}

/// Scenario 3 — start and bind failures mid-reconfiguration. The
/// Adaptivity Manager must roll back to a bit-identical runtime, then
/// succeed once the faults clear.
#[test]
fn reconfiguration_faults_roll_back_cleanly() {
    let a = Configuration {
        instances: BTreeMap::from([
            ("src".to_owned(), "T".to_owned()),
            ("dst".to_owned(), "U".to_owned()),
        ]),
        bindings: vec![Binding { from: PortRef::on("src", "p"), to: PortRef::on("dst", "q") }]
            .into_iter()
            .collect(),
    };
    let b = Configuration {
        instances: BTreeMap::from([
            ("src".to_owned(), "T".to_owned()),
            ("dst".to_owned(), "U".to_owned()),
            ("cache".to_owned(), "V".to_owned()),
        ]),
        bindings: vec![
            Binding { from: PortRef::on("src", "p"), to: PortRef::on("dst", "q") },
            Binding { from: PortRef::on("src", "p"), to: PortRef::on("cache", "q") },
        ]
        .into_iter()
        .collect(),
    };
    let mut rt = Runtime::new();
    let mut am = AdaptivityManager::new();
    let mut st = StateManager::new();
    am.execute(&mut rt, &diff(&Configuration::default(), &a), &mut BasicFactory, &mut st, 0)
        .expect("boot succeeds");
    let before = rt.clone();

    // Injected bind failure: the switch aborts and rolls back completely.
    let bind_plan = FaultPlan::new(3).at(1, Fault::BindFailure { server: "cache".into() });
    let mut injector = PlanStepFaults::new(&bind_plan);
    let reconf = diff(&rt.configuration(), &b);
    let err = am
        .execute_with_faults(&mut rt, &reconf, &mut BasicFactory, &mut st, 1, &mut injector)
        .unwrap_err();
    assert!(matches!(err, SwitchError::Injected { .. }), "got {err}");
    assert_eq!(rt, before, "bind-failure rollback must restore the runtime bit-for-bit");

    // Injected start failure via the plan-driven flaky factory: same story.
    let start_plan = FaultPlan::new(4).at(1, Fault::StartFailure { component: "cache".into() });
    let mut factory = flaky_factory(&start_plan);
    let reconf = diff(&rt.configuration(), &b);
    am.execute(&mut rt, &reconf, &mut factory, &mut st, 2).unwrap_err();
    assert_eq!(rt, before, "start-failure rollback must restore the runtime bit-for-bit");
    assert_eq!(am.rollbacks_incomplete(), 0);

    // Faults cleared: the same switch lands exactly on the target.
    let reconf = diff(&rt.configuration(), &b);
    am.execute(&mut rt, &reconf, &mut BasicFactory, &mut st, 3).unwrap();
    assert_eq!(rt.configuration(), b);
}

/// Scenario 4 — link flap during codec switchover. A stream's only link
/// drops mid-delivery; the adaptive session swaps codecs and every media
/// second is eventually delivered.
#[test]
fn link_flap_during_codec_switchover_delivers_everything() {
    let mut net = Network::new();
    net.add_device(Device::new("server", DeviceKind::Server));
    net.add_device(Device::new("client", DeviceKind::Pda));
    net.add_link(Link::new(
        "server",
        "client",
        LinkKind::Wireless,
        BandwidthProfile::Constant(200.0),
        1,
    ));
    let mut sim = Simulator::new(net, 0.0);
    let plan = FaultPlan::new(5)
        .at(10, Fault::LinkDown { a: "server".into(), b: "client".into() })
        .at(26, Fault::LinkUp { a: "server".into(), b: "client".into() });
    assert_eq!(schedule_network(&plan, &mut sim), 2);

    let mut session = StreamSession::new(default_ladder(), 60, true);
    let mut stalls_during_flap = 0;
    let mut t = 0u64;
    loop {
        t += 1;
        assert!(t < 10_000, "stream never finished — a request was effectively lost");
        sim.advance(t);
        let bandwidth = sim.net.path_metrics("server", "client", t).map_or(0.0, |(bw, _)| bw);
        match session.tick(bandwidth) {
            TickOutcome::Finished => break,
            TickOutcome::Stalled if (10..26).contains(&t) => stalls_during_flap += 1,
            _ => {}
        }
    }
    assert!(stalls_during_flap >= 1, "a dead link must stall delivery");
    assert!(!session.swaps().is_empty(), "the flap must force a codec switchover");
    assert_eq!(session.position(), 60, "every media second is eventually delivered");
}

/// Scenario 5 — ORB invocation failures. Planned call indices fail with a
/// contained error; every other call completes and the ORB stays healthy.
#[test]
fn orb_invocation_faults_are_contained() {
    let service = Program::new(vec![Instr::MovImm(0, 7), Instr::Halt]).to_bytes();
    let mut orb = Orb::new(1 << 20, CostModel::pentium());
    let caller_ty = orb.load_type("caller", &service).unwrap();
    let callee_ty = orb.load_type("callee", &service).unwrap();
    let caller = orb.instantiate(caller_ty).unwrap();
    let callee = orb.instantiate(callee_ty).unwrap();
    let iface = orb.publish(callee, 0, Rights::PUBLIC, 0).unwrap();

    let plan = FaultPlan::new(6)
        .at(1, Fault::InvokeFailure { call_index: 2 })
        .at(1, Fault::InvokeFailure { call_index: 4 });
    orb.arm_faults(Box::new(PlanInvokeFaults::new(&plan)));
    let mut injected = 0;
    let mut served = 0;
    for _ in 0..8 {
        match orb.invoke(caller, iface, &[]) {
            Ok(out) => {
                assert_eq!(out.result, 7);
                served += 1;
            }
            Err(OrbError::Injected { .. }) => injected += 1,
            Err(e) => panic!("only injected failures are allowed here: {e:?}"),
        }
    }
    assert_eq!(injected, 2, "exactly the two planned calls fail");
    assert_eq!(served, 6);
    assert_eq!(orb.invocations(), 8);
}

/// Scenario 6 — SWITCH denial storm. Every early switch attempt during
/// the crowd is denied; the server backs off, serves degraded, and never
/// drops or spreads inconsistently.
#[test]
fn switch_denial_storm_degrades_but_serves() {
    let mut plan = FaultPlan::new(7);
    for t in [50, 52, 54, 56, 58, 60, 64, 68] {
        plan.push(t, Fault::SwitchDenial { atom: 123 });
    }
    let params = ChaosParams {
        plan,
        ticks: 350,
        crowd: Some(FlashCrowd { from: 50, to: 200, target: AtomId(123), multiplier: 30.0 }),
        ..ChaosParams::default()
    };
    let r = run(&params);
    assert!(r.conserved());
    assert!(r.failed_switches >= 1, "armed denials must be consumed by real attempts");
    assert!(r.degraded >= 1, "requests during the denial window serve degraded");
    assert!(r.completed > 0, "degradation serves rather than drops");
    assert_eq!(r.dropped, 0);
    assert!(r.switches_consistent);
}

/// Scenario 7 — determinism. The same seed yields a byte-identical fault
/// timeline and identical per-tick stats across two full runs, for every
/// golden seed.
#[test]
fn same_seed_replays_identical_timeline_and_stats() {
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
        crash_nodes: Vec::new(),
        txn_crashes: Vec::new(),
    };
    for seed in GOLDEN_SEEDS {
        let plan = FaultPlan::random(seed, &space);
        assert_eq!(plan.render(), FaultPlan::random(seed, &space).render());
        let params = ChaosParams {
            plan,
            ticks: 300,
            crowd: Some(FlashCrowd { from: 60, to: 180, target: AtomId(123), multiplier: 20.0 }),
            ..ChaosParams::default()
        };
        let (a, b) = (run(&params), run(&params));
        assert_eq!(a.timeline, b.timeline, "seed {seed}: fault timeline must be byte-identical");
        assert_eq!(a.plan_digest, b.plan_digest);
        assert_eq!(a.per_tick, b.per_tick, "seed {seed}: every TickStats must match across runs");
        assert_eq!(a, b);
        assert!(a.conserved(), "conservation must hold under seed {seed}");
        assert!(a.switches_consistent, "switch counters must stay consistent under seed {seed}");
    }
}
