//! Plan-driven injectors: one adapter per subsystem hook.
//!
//! Each subsystem exposes a minimal injection surface (ubinet's
//! [`EnvEvent`] schedule, compkit's [`StepFaults`], gokernel's
//! [`InvokeFaults`], patia's [`SwitchGate`] and kill/pressure methods);
//! the adapters here read a single [`FaultPlan`] and feed every surface
//! from the same timeline, so one seed drives the whole stack.

use crate::plan::{Fault, FaultPlan};
use adl::ast::Binding;
use compkit::adaptivity::StepFaults;
use compkit::runtime::FlakyFactory;
use gokernel::component::{ComponentId, InterfaceId};
use gokernel::orb::InvokeFaults;
use patia::atom::AtomId;
use patia::server::{PatiaServer, SwitchGate};
use std::collections::{BTreeMap, BTreeSet};
use ubinet::sim::{EnvEvent, Simulator};

/// Schedule the plan's network faults (flaps, spikes, partitions, node
/// death) into a ubinet simulator. Returns how many events were scheduled;
/// non-network faults are left for the other adapters.
pub fn schedule_network(plan: &FaultPlan, sim: &mut Simulator) -> usize {
    let mut scheduled = 0;
    for (tick, fault) in plan.iter() {
        let ev = match fault {
            Fault::LinkDown { a, b } => {
                EnvEvent::SetLinkUp { a: a.clone(), b: b.clone(), up: false }
            }
            Fault::LinkUp { a, b } => EnvEvent::SetLinkUp { a: a.clone(), b: b.clone(), up: true },
            Fault::LatencySpike { a, b, latency } => {
                EnvEvent::SetLatency { a: a.clone(), b: b.clone(), latency: *latency }
            }
            Fault::Partition { island } => EnvEvent::Partition { island: island.clone() },
            Fault::Heal { island } => EnvEvent::Heal { island: island.clone() },
            Fault::NodeDeath { node } => EnvEvent::SetAlive { device: node.clone(), alive: false },
            Fault::NodeRevival { node } => EnvEvent::SetAlive { device: node.clone(), alive: true },
            _ => continue,
        };
        sim.schedule(tick, ev);
        scheduled += 1;
    }
    scheduled
}

/// A [`FlakyFactory`] that fails creation of every component the plan
/// schedules a [`Fault::StartFailure`] for.
#[must_use]
pub fn flaky_factory(plan: &FaultPlan) -> FlakyFactory {
    FlakyFactory::failing(plan.iter().filter_map(|(_, f)| match f {
        Fault::StartFailure { component } => Some(component.clone()),
        _ => None,
    }))
}

/// [`StepFaults`] injector driven by the plan's [`Fault::BindFailure`]
/// entries: the first bind landing on a named server fails once.
#[derive(Debug, Clone)]
pub struct PlanStepFaults {
    bind: BTreeSet<String>,
}

impl PlanStepFaults {
    /// Collect the plan's bind failures.
    #[must_use]
    pub fn new(plan: &FaultPlan) -> Self {
        let bind = plan
            .iter()
            .filter_map(|(_, f)| match f {
                Fault::BindFailure { server } => Some(server.clone()),
                _ => None,
            })
            .collect();
        Self { bind }
    }

    /// Bind failures not yet consumed.
    #[cfg(test)]
    fn pending(&self) -> usize {
        self.bind.len()
    }
}

impl StepFaults for PlanStepFaults {
    fn fail_bind(&mut self, b: &Binding) -> Option<String> {
        let server = b.to.instance.as_deref()?;
        if self.bind.remove(server) {
            Some(format!("injected bind failure on {server}"))
        } else {
            None
        }
    }
}

/// [`InvokeFaults`] injector: the ORB calls whose global indices the plan
/// names fail, each exactly once.
#[derive(Debug, Clone)]
pub struct PlanInvokeFaults {
    calls: BTreeSet<u64>,
}

impl PlanInvokeFaults {
    /// Collect the plan's invocation failures.
    #[must_use]
    pub fn new(plan: &FaultPlan) -> Self {
        let calls = plan
            .iter()
            .filter_map(|(_, f)| match f {
                Fault::InvokeFailure { call_index } => Some(*call_index),
                _ => None,
            })
            .collect();
        Self { calls }
    }
}

impl InvokeFaults for PlanInvokeFaults {
    fn deny(
        &mut self,
        call_index: u64,
        _caller: ComponentId,
        _iface: InterfaceId,
    ) -> Option<String> {
        self.calls.remove(&call_index).then(|| format!("injected failure of call {call_index}"))
    }
}

/// [`SwitchGate`] injector: a [`Fault::SwitchDenial`] armed at tick `T`
/// denies that atom's first switch attempt at or after `T`.
#[derive(Debug, Clone)]
pub(crate) struct PlanSwitchGate {
    pending: BTreeMap<u32, Vec<u64>>,
}

impl PlanSwitchGate {
    /// Collect the plan's switch denials.
    #[must_use]
    pub(crate) fn new(plan: &FaultPlan) -> Self {
        let mut pending: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
        for (tick, fault) in plan.iter() {
            if let Fault::SwitchDenial { atom } = fault {
                pending.entry(*atom).or_default().push(tick);
            }
        }
        Self { pending }
    }
}

impl SwitchGate for PlanSwitchGate {
    fn deny(&mut self, tick: u64, atom: AtomId, _from: &str, _to: &str) -> Option<String> {
        let armed = self.pending.get_mut(&atom.0)?;
        let pos = armed.iter().position(|t| *t <= tick)?;
        let at = armed.remove(pos);
        Some(format!("switch denial armed at tick {at}"))
    }
}

/// Drives a [`PatiaServer`] through a plan: [`PatiaDriver::arm`] installs
/// the switch gate once, then [`PatiaDriver::apply`] is called every tick
/// *before* [`PatiaServer::tick`] to land that tick's node, pressure and
/// network faults.
#[derive(Debug, Clone)]
pub struct PatiaDriver {
    plan: FaultPlan,
}

impl PatiaDriver {
    /// A driver over `plan`.
    #[must_use]
    pub fn new(plan: FaultPlan) -> Self {
        Self { plan }
    }

    /// Install the plan's switch-denial gate on the server.
    pub fn arm(&self, server: &mut PatiaServer) {
        server.arm_switch_gate(Box::new(PlanSwitchGate::new(&self.plan)));
    }

    /// Apply every fault the plan schedules at `tick`. Returns how many
    /// were applied (switch denials are handled by the armed gate and
    /// component faults by the compkit/gokernel adapters, so they don't
    /// count here).
    pub fn apply(&self, server: &mut PatiaServer, tick: u64) -> usize {
        let mut applied = 0;
        for fault in self.plan.faults_at(tick) {
            match fault {
                Fault::NodeDeath { node } => {
                    server.kill_node(node);
                }
                Fault::NodeRevival { node } => {
                    server.revive_node(node);
                }
                Fault::CpuPressure { node, permille } => {
                    server.inject_pressure(node, f64::from(*permille) / 1000.0);
                }
                Fault::PressureRelease { node } => server.clear_pressure(node),
                Fault::LinkDown { a, b } => {
                    server.network_mut().set_link_up(a, b, false);
                }
                Fault::LinkUp { a, b } => {
                    server.network_mut().set_link_up(a, b, true);
                }
                Fault::LatencySpike { a, b, latency } => {
                    server.network_mut().set_latency(a, b, *latency);
                }
                Fault::Partition { island } => {
                    server.network_mut().partition(island);
                }
                Fault::Heal { island } => {
                    server.network_mut().heal(island);
                }
                _ => continue,
            }
            applied += 1;
        }
        applied
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use patia::server::ServerConfig;
    use ubinet::device::{Device, DeviceKind};
    use ubinet::link::{BandwidthProfile, Link, LinkKind};
    use ubinet::net::Network;

    fn two_node_sim() -> Simulator {
        let mut net = Network::new();
        net.add_device(Device::new("a", DeviceKind::Server));
        net.add_device(Device::new("b", DeviceKind::Server));
        net.add_link(Link::new("a", "b", LinkKind::Wired, BandwidthProfile::Constant(100.0), 1));
        Simulator::new(net, 0.0)
    }

    #[test]
    fn network_faults_schedule_and_strike_on_time() {
        let plan = FaultPlan::new(1)
            .at(2, Fault::LinkDown { a: "a".into(), b: "b".into() })
            .at(5, Fault::LinkUp { a: "a".into(), b: "b".into() })
            .at(7, Fault::SwitchDenial { atom: 123 });
        let mut sim = two_node_sim();
        assert_eq!(schedule_network(&plan, &mut sim), 2, "switch denial is not a network event");
        sim.advance(2);
        assert!(sim.net.hop_distance("a", "b").is_err(), "link down at tick 2");
        sim.advance(5);
        assert!(sim.net.hop_distance("a", "b").is_ok(), "link restored at tick 5");
    }

    #[test]
    fn plan_switch_gate_denies_once_per_armed_denial() {
        let plan = FaultPlan::new(2).at(4, Fault::SwitchDenial { atom: 123 });
        let mut gate = PlanSwitchGate::new(&plan);
        assert!(gate.deny(3, AtomId(123), "n1", "n2").is_none(), "not armed yet");
        assert!(gate.deny(6, AtomId(153), "n1", "n2").is_none(), "other atom untouched");
        assert!(gate.deny(6, AtomId(123), "n1", "n2").is_some(), "armed denial fires");
        assert!(gate.deny(7, AtomId(123), "n1", "n2").is_none(), "consumed");
    }

    #[test]
    fn patia_driver_applies_node_faults_at_their_tick() {
        let plan = FaultPlan::new(3)
            .at(1, Fault::NodeDeath { node: "node1".into() })
            .at(2, Fault::NodeRevival { node: "node1".into() })
            .at(2, Fault::CpuPressure { node: "node2".into(), permille: 900 });
        let (net, atoms, constraints) = ServerConfig::paper_fleet();
        let mut server = PatiaServer::new(net, atoms, constraints, ServerConfig::default());
        let driver = PatiaDriver::new(plan);
        assert_eq!(driver.apply(&mut server, 1), 1);
        assert!(!server.network().device("node1").unwrap().alive);
        assert_eq!(driver.apply(&mut server, 2), 2);
        assert!(server.network().device("node1").unwrap().alive);
        assert_eq!(driver.apply(&mut server, 3), 0, "nothing scheduled later");
    }

    #[test]
    fn flaky_factory_collects_start_failures() {
        use compkit::runtime::ComponentFactory;
        let plan = FaultPlan::new(4).at(1, Fault::StartFailure { component: "codec".into() });
        let mut factory = flaky_factory(&plan);
        assert!(factory.create("codec", "T", 0).is_err());
        assert!(factory.create("cache", "T", 0).is_ok());
    }

    #[test]
    fn plan_step_faults_fire_once_per_named_server() {
        use adl::ast::PortRef;
        let plan = FaultPlan::new(5).at(1, Fault::BindFailure { server: "gw".into() });
        let mut faults = PlanStepFaults::new(&plan);
        assert_eq!(faults.pending(), 1);
        let other = Binding { from: PortRef::on("u", "need"), to: PortRef::on("cache", "p") };
        assert!(faults.fail_bind(&other).is_none(), "non-matching binding untouched");
        assert_eq!(faults.pending(), 1);
        let hit = Binding { from: PortRef::on("u", "need"), to: PortRef::on("gw", "p") };
        assert!(faults.fail_bind(&hit).is_some(), "armed bind failure fires");
        assert_eq!(faults.pending(), 0);
        assert!(faults.fail_bind(&hit).is_none(), "consumed after one strike");
    }

    #[test]
    fn plan_invoke_faults_deny_exactly_the_armed_call_index() {
        let plan = FaultPlan::new(6).at(3, Fault::InvokeFailure { call_index: 7 });
        let mut faults = PlanInvokeFaults::new(&plan);
        let caller = ComponentId(1);
        let iface = InterfaceId(2);
        assert!(faults.deny(6, caller, iface).is_none(), "other call index untouched");
        assert!(faults.deny(7, caller, iface).is_some(), "armed call denied");
        assert!(faults.deny(7, caller, iface).is_none(), "denial consumed");
    }

    #[test]
    fn schedule_network_maps_death_and_revival_to_alive_flips() {
        let plan = FaultPlan::new(9)
            .at(2, Fault::NodeDeath { node: "a".into() })
            .at(6, Fault::NodeRevival { node: "a".into() });
        let mut sim = two_node_sim();
        assert_eq!(schedule_network(&plan, &mut sim), 2);
        sim.advance(2);
        assert!(!sim.net.device("a").unwrap().alive, "death takes the node down");
        sim.advance(6);
        assert!(sim.net.device("a").unwrap().alive, "revival brings it back");
    }
}
