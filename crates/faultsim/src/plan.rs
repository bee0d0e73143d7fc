//! Seeded fault plans: the deterministic timeline every injector reads.
//!
//! A [`FaultPlan`] maps ticks to the faults that strike there. Plans are
//! either hand-built (chaos scenarios that need a precise storyline) or
//! drawn from an [`adm_rng::Pcg32`] seed over a [`FaultSpace`] (property
//! suites). Nothing reads the wall clock: the same seed over the same
//! space yields a byte-identical timeline, which [`FaultPlan::render`]
//! and [`FaultPlan::digest`] make directly assertable.

use adm_rng::Pcg32;
use std::collections::BTreeMap;
use std::fmt;

/// One injectable fault. Paired variants (death/revival, down/up,
/// partition/heal, pressure/release) model an incident and its recovery as
/// two scheduled events, so a plan is a complete storyline, not just the
/// breakage half.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// Every link between two devices drops.
    LinkDown {
        /// One endpoint.
        a: String,
        /// Other endpoint.
        b: String,
    },
    /// The links between two devices come back up.
    LinkUp {
        /// One endpoint.
        a: String,
        /// Other endpoint.
        b: String,
    },
    /// The links between two devices change latency (a spike sets a high
    /// value; the recovery event restores the original).
    LatencySpike {
        /// One endpoint.
        a: String,
        /// Other endpoint.
        b: String,
        /// New latency in ticks.
        latency: u64,
    },
    /// A network partition: every link crossing the island boundary drops.
    Partition {
        /// Devices isolated from the rest of the network.
        island: Vec<String>,
    },
    /// Heal a partition: the island's boundary links come back up.
    Heal {
        /// The previously isolated devices.
        island: Vec<String>,
    },
    /// A node dies.
    NodeDeath {
        /// The victim.
        node: String,
    },
    /// A dead node comes back.
    NodeRevival {
        /// The survivor.
        node: String,
    },
    /// CPU pressure steals part of a node's capacity.
    CpuPressure {
        /// The squeezed node.
        node: String,
        /// Capacity stolen, in thousandths (kept integral so plans stay
        /// `Eq` and render identically everywhere).
        permille: u32,
    },
    /// Injected CPU pressure on a node is released.
    PressureRelease {
        /// The relieved node.
        node: String,
    },
    /// A component instance fails to start during reconfiguration.
    StartFailure {
        /// The instance name that will refuse to create.
        component: String,
    },
    /// A bind step fails during reconfiguration.
    BindFailure {
        /// The instance whose incoming bind fails.
        server: String,
    },
    /// The next SWITCH of this atom (at or after the scheduled tick) is
    /// denied.
    SwitchDenial {
        /// The atom whose switch fails.
        atom: u32,
    },
    /// A specific ORB invocation (by global call index) fails.
    InvokeFailure {
        /// The call index that will be denied.
        call_index: u64,
    },
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::LinkDown { a, b } => write!(f, "link-down {a}<->{b}"),
            Fault::LinkUp { a, b } => write!(f, "link-up {a}<->{b}"),
            Fault::LatencySpike { a, b, latency } => {
                write!(f, "latency {a}<->{b}={latency}")
            }
            Fault::Partition { island } => write!(f, "partition [{}]", island.join(",")),
            Fault::Heal { island } => write!(f, "heal [{}]", island.join(",")),
            Fault::NodeDeath { node } => write!(f, "node-death {node}"),
            Fault::NodeRevival { node } => write!(f, "node-revival {node}"),
            Fault::CpuPressure { node, permille } => {
                write!(f, "cpu-pressure {node}={permille}/1000")
            }
            Fault::PressureRelease { node } => write!(f, "pressure-release {node}"),
            Fault::StartFailure { component } => write!(f, "start-failure {component}"),
            Fault::BindFailure { server } => write!(f, "bind-failure {server}"),
            Fault::SwitchDenial { atom } => write!(f, "switch-denial atom={atom}"),
            Fault::InvokeFailure { call_index } => write!(f, "invoke-failure call={call_index}"),
        }
    }
}

/// The world a random plan draws from. Empty collections simply remove the
/// corresponding fault kinds from the draw, so a space with only `atoms`
/// yields pure switch-denial plans.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultSpace {
    /// Nodes that can die or feel CPU pressure.
    pub nodes: Vec<String>,
    /// Links (by endpoints) that can flap or spike.
    pub links: Vec<(String, String)>,
    /// Atoms whose switches can be denied.
    pub atoms: Vec<u32>,
    /// Component instances whose start/bind steps can fail.
    pub components: Vec<String>,
    /// Plans schedule within ticks `1..=horizon`.
    pub horizon: u64,
    /// How many incidents (a fault plus its recovery, where paired) to
    /// draw.
    pub incidents: usize,
}

/// A deterministic, tick-indexed schedule of faults.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    schedule: BTreeMap<u64, Vec<Fault>>,
}

impl FaultPlan {
    /// An empty plan stamped with its seed (hand-built storylines pass the
    /// scenario seed so rendered timelines stay attributable).
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self { seed, schedule: BTreeMap::new() }
    }

    /// Builder: schedule `fault` at `tick`.
    #[must_use]
    pub fn at(mut self, tick: u64, fault: Fault) -> Self {
        self.push(tick, fault);
        self
    }

    /// Schedule `fault` at `tick`. Faults at the same tick keep insertion
    /// order.
    pub fn push(&mut self, tick: u64, fault: Fault) {
        self.schedule.entry(tick).or_default().push(fault);
    }

    /// The faults scheduled exactly at `tick`.
    #[must_use]
    pub(crate) fn faults_at(&self, tick: u64) -> &[Fault] {
        self.schedule.get(&tick).map_or(&[], Vec::as_slice)
    }

    /// Total scheduled faults.
    #[must_use]
    pub fn len(&self) -> usize {
        self.schedule.values().map(Vec::len).sum()
    }

    /// Whether the plan schedules nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.schedule.is_empty()
    }

    /// The last tick anything is scheduled at (0 for an empty plan).
    #[cfg(test)]
    fn horizon(&self) -> u64 {
        self.schedule.keys().next_back().copied().unwrap_or(0)
    }

    /// Iterate `(tick, fault)` in timeline order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &Fault)> {
        self.schedule.iter().flat_map(|(t, v)| v.iter().map(move |f| (*t, f)))
    }

    /// Draw a random plan from `space` — same seed, same space, same plan,
    /// byte for byte.
    #[must_use]
    pub fn random(seed: u64, space: &FaultSpace) -> Self {
        let mut rng = Pcg32::new(seed);
        let mut plan = FaultPlan::new(seed);
        let horizon = space.horizon.max(2);
        // The kinds the space supports, in a fixed order so the draw is
        // stable as spaces grow.
        let mut kinds: Vec<u8> = Vec::new();
        if !space.links.is_empty() {
            kinds.extend([0, 1]); // flap, latency spike
        }
        if !space.nodes.is_empty() {
            kinds.extend([2, 3, 4]); // death, pressure, partition
        }
        if !space.atoms.is_empty() {
            kinds.push(5);
        }
        if !space.components.is_empty() {
            kinds.extend([6, 7]); // start failure, bind failure
        }
        kinds.push(8); // invoke failure is always drawable
        for _ in 0..space.incidents {
            let start = 1 + rng.below(horizon - 1);
            let duration = 1 + rng.below((horizon / 4).max(1));
            let end = (start + duration).min(horizon);
            match kinds[rng.index(kinds.len())] {
                0 => {
                    let (a, b) = space.links[rng.index(space.links.len())].clone();
                    plan.push(start, Fault::LinkDown { a: a.clone(), b: b.clone() });
                    plan.push(end, Fault::LinkUp { a, b });
                }
                1 => {
                    let (a, b) = space.links[rng.index(space.links.len())].clone();
                    let latency = 10 + rng.below(90);
                    plan.push(start, Fault::LatencySpike { a: a.clone(), b: b.clone(), latency });
                    plan.push(end, Fault::LatencySpike { a, b, latency: 1 });
                }
                2 => {
                    let node = space.nodes[rng.index(space.nodes.len())].clone();
                    plan.push(start, Fault::NodeDeath { node: node.clone() });
                    plan.push(end, Fault::NodeRevival { node });
                }
                3 => {
                    let node = space.nodes[rng.index(space.nodes.len())].clone();
                    let permille = 500 + rng.below(500) as u32;
                    plan.push(start, Fault::CpuPressure { node: node.clone(), permille });
                    plan.push(end, Fault::PressureRelease { node });
                }
                4 => {
                    let island = vec![space.nodes[rng.index(space.nodes.len())].clone()];
                    plan.push(start, Fault::Partition { island: island.clone() });
                    plan.push(end, Fault::Heal { island });
                }
                5 => {
                    let atom = space.atoms[rng.index(space.atoms.len())];
                    plan.push(start, Fault::SwitchDenial { atom });
                }
                6 => {
                    let component = space.components[rng.index(space.components.len())].clone();
                    plan.push(start, Fault::StartFailure { component });
                }
                7 => {
                    let server = space.components[rng.index(space.components.len())].clone();
                    plan.push(start, Fault::BindFailure { server });
                }
                _ => {
                    plan.push(start, Fault::InvokeFailure { call_index: rng.below(64) });
                }
            }
        }
        plan
    }

    /// The timeline as stable text — one line per fault, ticks
    /// zero-padded, headed by the seed. Two runs of the same seeded
    /// scenario must produce identical renderings; chaos tests assert
    /// exactly that.
    #[must_use]
    pub fn render(&self) -> String {
        use fmt::Write as _;
        let mut out = format!("fault-plan seed={:#018x} faults={}\n", self.seed, self.len());
        for (tick, fault) in self.iter() {
            let _ = writeln!(out, "  @{tick:06} {fault}");
        }
        out
    }

    /// FNV-1a hash of [`FaultPlan::render`] — a compact determinism
    /// fingerprint for logs and cross-run assertions.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in self.render().bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> FaultSpace {
        FaultSpace {
            nodes: vec!["node1".into(), "node2".into(), "wp1".into()],
            links: vec![("node1".into(), "node2".into()), ("node2".into(), "wp1".into())],
            atoms: vec![123, 153],
            components: vec!["codec".into(), "cache".into()],
            horizon: 64,
            incidents: 12,
        }
    }

    #[test]
    fn same_seed_renders_byte_identical_timelines() {
        let s = space();
        let (a, b) = (FaultPlan::random(42, &s), FaultPlan::random(42, &s));
        assert_eq!(a, b);
        assert_eq!(a.render(), b.render());
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn different_seeds_diverge() {
        let s = space();
        let (a, b) = (FaultPlan::random(1, &s), FaultPlan::random(2, &s));
        assert_ne!(a.render(), b.render(), "two seeds agreeing on 12 incidents is a bug");
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn random_plans_respect_the_horizon() {
        let s = space();
        let plan = FaultPlan::random(7, &s);
        assert!(!plan.is_empty());
        assert!(plan.horizon() <= s.horizon);
        assert!(plan.iter().all(|(t, _)| t >= 1));
    }

    #[test]
    fn paired_faults_recover_after_they_strike() {
        let plan = FaultPlan::random(99, &space());
        for (tick, fault) in plan.iter() {
            if let Fault::NodeDeath { node } = fault {
                assert!(
                    plan.iter().any(|(t, f)| {
                        t > tick && matches!(f, Fault::NodeRevival { node: n } if n == node)
                    }),
                    "death of {node} at {tick} has no later revival"
                );
            }
        }
    }

    #[test]
    fn builder_orders_by_tick_and_preserves_same_tick_order() {
        let plan = FaultPlan::new(0)
            .at(9, Fault::NodeDeath { node: "b".into() })
            .at(3, Fault::NodeDeath { node: "a".into() })
            .at(3, Fault::NodeRevival { node: "z".into() });
        let seen: Vec<(u64, String)> = plan.iter().map(|(t, f)| (t, f.to_string())).collect();
        assert_eq!(
            seen,
            vec![
                (3, "node-death a".to_owned()),
                (3, "node-revival z".to_owned()),
                (9, "node-death b".to_owned()),
            ]
        );
        assert_eq!(plan.faults_at(3).len(), 2);
        assert_eq!(plan.len(), 3);
        assert_eq!(plan.horizon(), 9);
    }

    #[test]
    fn sparse_spaces_only_draw_supported_kinds() {
        let s = FaultSpace { atoms: vec![123], horizon: 16, incidents: 20, ..Default::default() };
        let plan = FaultPlan::random(5, &s);
        assert!(plan
            .iter()
            .all(|(_, f)| matches!(f, Fault::SwitchDenial { .. } | Fault::InvokeFailure { .. })));
    }
}
