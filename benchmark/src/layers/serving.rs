//! Drivers for the layers under the serving workloads: the supervisor's
//! heartbeat round and the simulated network it probes, the timer wheel,
//! flow expansion, agent queues and the server step (the event-driven
//! path `megacrowd` takes), and the per-request tick, the circuit-breaker
//! rule, the compkit adaptation machinery, `adl::diff` and fault-plan
//! construction (the armed path `flashcrowd_armed` takes).

use crate::catalog::LayerRows;
use crate::harness::ns_per_call;
use crate::stats;
use adl::ast::{Binding, PortRef};
use adl::diff::ReconfigurationPlan;
use adl::Configuration;
use adm_core::scenario::megacrowd::{self, MegaParams, CROWD_ATOM};
use compkit::journal::{CrashPoint, NoCrash, PlannedCrash};
use compkit::runtime::{BasicFactory, Runtime};
use compkit::{
    AdaptivityManager, Gauge, GaugeBoard, GaugeKind, Monitor, NoFaults, PlanLinter, StateManager,
};
use faultsim::{FaultPlan, FaultSpace};
use patia::agent::ServiceAgent;
use patia::atom::AtomId;
use patia::rules::{blocked_peers, RuleStats};
use patia::server::{PatiaServer, ServerConfig};
use patia::supervise::{SuperviseConfig, Supervisor};
use patia::wheel::TimerWheel;
use patia::workload::{FlashCrowd, FlowSpec, FlowState, RequestGen};
use std::hint::black_box;
use std::time::Instant;
use ubinet::Network;

const BATCHES: usize = 15;

/// Supervision and network rows on `net`: one heartbeat round over the
/// whole fleet, and the network queries it is made of.
pub fn drive_network(net: &Network, rows: &mut LayerRows) {
    let names: Vec<String> = net.devices().map(|d| d.name.clone()).collect();
    let refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let pair = |i: usize| (refs[i % refs.len()], refs[(i * 7 + 3) % refs.len()]);

    let mut sup = Supervisor::new(SuperviseConfig::default(), names.iter().cloned());
    let mut now = 0u64;
    rows.set(
        "patia.supervise.beat_ns",
        ns_per_call(BATCHES, 40, || {
            now += 1;
            black_box(sup.beat(net, now));
        }),
    );
    let mut i = 0usize;
    rows.set(
        "ubinet.net.heartbeat_ns",
        ns_per_call(BATCHES, 2_000, || {
            i += 1;
            let (a, b) = pair(i);
            black_box(net.heartbeat(a, b));
        }),
    );
    rows.set(
        "ubinet.net.hop_distance_ns",
        ns_per_call(BATCHES, 2_000, || {
            i += 1;
            let (a, b) = pair(i);
            black_box(net.hop_distance(a, b).ok());
        }),
    );
    rows.set(
        "ubinet.net.path_metrics_ns",
        ns_per_call(BATCHES, 2_000, || {
            i += 1;
            let (a, b) = pair(i);
            black_box(net.path_metrics(a, b, i as u64).ok());
        }),
    );
    rows.set(
        "ubinet.select.best_ns",
        ns_per_call(BATCHES, 2_000, || {
            black_box(ubinet::select::best(net, &refs));
        }),
    );
}

/// The event-driven path on the mega fleet: `params`' fleet and flow
/// shape, booted by a short armed run whose settled engine is then
/// stepped directly.
pub fn drive_engine(params: &MegaParams, rows: &mut LayerRows) {
    // One short flow boots the fleet exactly as `megacrowd::run` would,
    // without paying for the whole storm again.
    let mut boot = params.clone();
    boot.flows.truncate(1);
    boot.flows[0].end = boot.flows[0].start + 40;
    boot.flows[0].burst = None;
    boot.kill_at = None;
    boot.revive_at = None;
    let mut world = megacrowd::run_with_state(&boot);
    drive_network(world.engine.server().network(), rows);
    let rate = params.flows[0].rate;

    // Timer wheel at the engine's occupancy: a handful of events per tick.
    let mut wheel: TimerWheel<u64> = TimerWheel::new();
    let mut deadline = 0u64;
    rows.set(
        "patia.wheel.schedule_ns",
        ns_per_call(BATCHES, 5_000, || {
            deadline += 1;
            black_box(wheel.schedule(deadline / 5 + 1, deadline));
        }),
    );
    let mut tick = 0u64;
    rows.set(
        "patia.wheel.pop_due_ns",
        ns_per_call(BATCHES, 1_000, || {
            tick += 1;
            black_box(wheel.pop_due(tick));
        }),
    );

    let spec = FlowSpec { start: 0, end: u64::MAX, ..params.flows[0] };
    let mut flow = FlowState::new(spec);
    let mut tick = 0u64;
    rows.set(
        "patia.workload.emit_ns",
        ns_per_call(BATCHES, 20_000, || {
            tick += 1;
            black_box(flow.emit(tick));
        }),
    );

    // One agent taking a tick's cohort and serving a tick's budget.
    let mut agent = ServiceAgent::new(CROWD_ATOM, "srv01");
    let mut tick = 0u64;
    rows.set(
        "patia.agent.batch_ns",
        ns_per_call(BATCHES, 5_000, || {
            tick += 1;
            agent.accept_batch(tick, 1, rate as u64);
            black_box(agent.step_grouped(rate as u64));
        }),
    );

    // The server step and the whole engine tick under one flow's load.
    let bandwidth = params.client_bandwidth_kbps;
    let mut now = world.engine.server().now();
    let batch = [(CROWD_ATOM, rate as u64)];
    let mut step_ns = Vec::new();
    for _ in 0..200 {
        now += 1;
        let t = Instant::now();
        black_box(world.engine.server_mut().step_at(now, &batch, bandwidth));
        step_ns.push(t.elapsed().as_nanos() as f64);
    }
    rows.set("patia.server.step_at_ns", stats::median(&step_ns));
    world.engine.add_flow(FlowSpec {
        start: now + 1,
        end: now + 201,
        ramp: 0,
        burst: None,
        ..spec
    });
    let mut tick_ns = Vec::new();
    for _ in 0..200 {
        now += 1;
        let t = Instant::now();
        black_box(world.engine.run_tick(now, bandwidth));
        tick_ns.push(t.elapsed().as_nanos() as f64);
    }
    rows.set("patia.engine.run_tick_ns", stats::median(&tick_ns));
}

fn glue_binding(atom: u32, node: &str) -> Binding {
    Binding {
        from: PortRef::on(&format!("atom:{atom}"), "route"),
        to: PortRef::on(&format!("host:{node}"), "slot"),
    }
}

/// The armed, per-request path on the paper fleet, under `crowd`.
pub fn drive_armed_path(seed: u64, crowd: FlashCrowd, rows: &mut LayerRows) {
    let (net, atoms, constraints) = ServerConfig::paper_fleet();
    drive_network(&net, rows);
    let config = ServerConfig { adaptive: true, work_per_request: 400 };
    let mut server = PatiaServer::new(net, atoms, constraints, config);
    let mut gen = RequestGen::new(vec![AtomId(123), AtomId(153)], 1.0, 4.0, seed).with_crowd(crowd);

    // The legacy per-request tick through the crowd, then the batched step
    // on the same fleet.
    let mut tick_ns = Vec::new();
    for t in 1..=crowd.to {
        let requests = gen.tick(t);
        let started = Instant::now();
        black_box(server.tick(&requests, 500.0));
        tick_ns.push(started.elapsed().as_nanos() as f64);
    }
    rows.set("patia.server.tick_ns", stats::median(&tick_ns));
    let mut now = server.now();
    rows.set(
        "patia.server.step_at_ns",
        ns_per_call(BATCHES, 40, || {
            now += 1;
            black_box(server.step_at(now, &[(AtomId(123), 20), (AtomId(153), 2)], 500.0));
        }),
    );

    // The circuit-breaker screen as a query over `sys.supervision`, with
    // one circuit open.
    server.kill_node("node3");
    for _ in 0..6 {
        now += 1;
        server.step_at(now, &[], 500.0);
    }
    let mut rule_stats = RuleStats::default();
    rows.set(
        "patia.rules.blocked_peers_ns",
        ns_per_call(BATCHES, 200, || {
            black_box(blocked_peers(server.supervisor(), &mut rule_stats));
        }),
    );

    // The SWITCH mirror: a journalled bind/unbind transaction per
    // migration, ping-ponging one atom between two hosts.
    let mut rt = Runtime::new();
    let mut am = AdaptivityManager::new();
    am.attach_journal();
    let mut sm = StateManager::new();
    let mut factory = BasicFactory;
    let mut boot = ReconfigurationPlan::default();
    for node in ["node1", "node2", "node3", "wp1", "wp2"] {
        boot.start.push((format!("host:{node}"), "Host".to_owned()));
    }
    boot.start.push(("atom:123".to_owned(), "Agent".to_owned()));
    boot.bind.push(glue_binding(123, "node1"));
    am.execute(&mut rt, &boot, &mut factory, &mut sm, 0).expect("the boot plan commits");
    let hop = |from: &str, to: &str| ReconfigurationPlan {
        unbind: vec![glue_binding(123, from)],
        bind: vec![glue_binding(123, to)],
        ..ReconfigurationPlan::default()
    };
    let (out, back) = (hop("node1", "wp1"), hop("wp1", "node1"));
    let mut flip = false;
    rows.set(
        "compkit.adaptivity.switch_ns",
        ns_per_call(BATCHES, 500, || {
            flip = !flip;
            let plan = if flip { &out } else { &back };
            black_box(am.execute(&mut rt, plan, &mut factory, &mut sm, 1).is_ok());
        }),
    );
    // Crash before the commit record, then time the recovery that rolls
    // the transaction back (the atom is on node1 before and after).
    let mut recover_ns = Vec::new();
    for _ in 0..300 {
        let mut hook = PlannedCrash::new(CrashPoint::BeforeCommit);
        let crashed =
            am.execute_crashable(&mut rt, &out, &mut factory, &mut sm, 2, &mut NoFaults, &mut hook);
        debug_assert!(crashed.is_err());
        let t = Instant::now();
        black_box(am.recover(&mut rt, &mut sm, &mut NoCrash));
        recover_ns.push(t.elapsed().as_nanos() as f64);
    }
    rows.set("compkit.journal.recover_ns", stats::median(&recover_ns));
    let linter = PlanLinter::new();
    rows.set(
        "compkit.planlint.lint_ns",
        ns_per_call(BATCHES, 2_000, || {
            black_box(linter.lint_one(&out).has_errors());
        }),
    );

    // Monitors and gauges: one CPU monitor per node with a windowed mean.
    let mut board = GaugeBoard::new();
    let monitors: Vec<String> =
        ["node1", "node2", "node3", "wp1", "wp2"].iter().map(|n| format!("cpu:{n}")).collect();
    for m in &monitors {
        board.add_monitor(Monitor::new(m, 64));
        board.add_gauge(Gauge {
            name: format!("{m}.mean"),
            monitor: m.clone(),
            kind: GaugeKind::WindowMean(8),
        });
    }
    let mut tick = 0u64;
    rows.set(
        "compkit.gauge.record_ns",
        ns_per_call(BATCHES, 5_000, || {
            tick += 1;
            board.record(&monitors[tick as usize % monitors.len()], tick, 0.5);
        }),
    );
    rows.set(
        "compkit.gauge.resample_ns",
        ns_per_call(BATCHES, 1_000, || {
            tick += 3;
            board.resample(tick);
        }),
    );

    // The plan between two fleet configurations one migration apart.
    let mut from = Configuration::default();
    for (name, ty) in &boot.start {
        from.instances.insert(name.clone(), ty.clone());
    }
    from.bindings.insert(glue_binding(123, "node1"));
    let to = out.apply(&from);
    rows.set(
        "adl.diff_ns",
        ns_per_call(BATCHES, 2_000, || {
            black_box(adl::diff(&from, &to));
        }),
    );

    let space = FaultSpace {
        links: vec![
            ("node1".to_owned(), "node2".to_owned()),
            ("node2".to_owned(), "node3".to_owned()),
            ("node1".to_owned(), "wp1".to_owned()),
        ],
        nodes: ["node1", "node2", "node3", "wp1", "wp2"].iter().map(|s| (*s).to_owned()).collect(),
        atoms: vec![123, 153],
        horizon: 250,
        incidents: 10,
        ..FaultSpace::default()
    };
    let mut plan_seed = seed;
    rows.set(
        "faultsim.plan.build_ns",
        ns_per_call(BATCHES, 200, || {
            plan_seed += 1;
            black_box(FaultPlan::random(plan_seed, &space));
        }),
    );
}
