//! The network: devices + links, hop distances, transfer times.

use crate::device::Device;
use crate::link::Link;
use std::collections::BTreeMap;
use std::fmt;

/// Topology errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// Unknown device name.
    UnknownDevice(String),
    /// No live path between the endpoints.
    Unreachable {
        /// Source.
        from: String,
        /// Destination.
        to: String,
    },
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::UnknownDevice(d) => write!(f, "unknown device `{d}`"),
            NetError::Unreachable { from, to } => write!(f, "no live path {from} → {to}"),
        }
    }
}

impl std::error::Error for NetError {}

/// The environment's topology.
///
/// Devices live in a name-sorted vector, so a device's *id* is its rank in
/// name order, and `ids` interns each name to that id; every link with
/// both endpoints present appears in the per-device adjacency lists as
/// `(neighbour id, link index)`, in link insertion order. Both are pure
/// structure: liveness (`alive`, `up`) is read from the devices and links
/// at walk time, so nothing here needs invalidating when a node dies or a
/// link flaps.
#[derive(Debug, Clone, Default)]
pub struct Network {
    devices: Vec<Device>,
    ids: BTreeMap<String, usize>,
    links: Vec<Link>,
    adjacency: Vec<Vec<(usize, usize)>>,
}

/// One step of [`Network::walk`]: `device` was first reached from `parent`
/// over `link`, `hops` links away from the walk's start.
#[derive(Debug, Clone, Copy)]
struct Hop {
    device: usize,
    parent: usize,
    link: usize,
    hops: u32,
}

/// One labelling of the alive devices by connected component — the answer
/// to "which alive devices share a live component?" for one instant of the
/// network's `alive`/`up` state. Labels count up from zero in the name
/// order of each component's first member.
#[derive(Debug, Clone)]
pub struct Components {
    /// Per device id; `None` for dead devices.
    labels: Vec<Option<u32>>,
    count: u32,
}

impl Components {
    /// The component of device `id`: `None` when the device is dead (or
    /// `id` names no device).
    #[must_use]
    pub fn label(&self, id: usize) -> Option<u32> {
        self.labels.get(id).copied().flatten()
    }

    /// How many components the alive devices form.
    #[must_use]
    pub fn count(&self) -> usize {
        self.count as usize
    }
}

impl Network {
    /// An empty network.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a device. A device with the same name is replaced in place and
    /// keeps its id and its links; a new name shifts the ids after it, so
    /// the name index and the adjacency are rebuilt (links added before
    /// their endpoints come alive here).
    pub fn add_device(&mut self, d: Device) {
        if let Some(&id) = self.ids.get(&d.name) {
            self.devices[id] = d;
            return;
        }
        let rank = self.devices.partition_point(|have| have.name < d.name);
        self.devices.insert(rank, d);
        self.ids = self.devices.iter().enumerate().map(|(id, d)| (d.name.clone(), id)).collect();
        self.adjacency = vec![Vec::new(); self.devices.len()];
        for link in 0..self.links.len() {
            self.index_link(link);
        }
    }

    /// Add a link.
    pub fn add_link(&mut self, l: Link) {
        self.links.push(l);
        self.index_link(self.links.len() - 1);
    }

    /// Enter link `link` into the adjacency of both endpoints, if both are
    /// devices. A self-loop joins nothing and is left out.
    fn index_link(&mut self, link: usize) {
        let l = &self.links[link];
        if let (Some(a), Some(b)) = (self.id_of(&l.a), self.id_of(&l.b)) {
            if a != b {
                self.adjacency[a].push((b, link));
                self.adjacency[b].push((a, link));
            }
        }
    }

    /// A device's id: its rank among the devices in name order. Ids are
    /// stable until a device with a new name is added.
    #[must_use]
    pub fn id_of(&self, name: &str) -> Option<usize> {
        self.ids.get(name).copied()
    }

    /// Look up a device.
    #[must_use]
    pub fn device(&self, name: &str) -> Option<&Device> {
        self.id_of(name).map(|id| &self.devices[id])
    }

    /// Mutable device access.
    pub fn device_mut(&mut self, name: &str) -> Option<&mut Device> {
        self.id_of(name).map(|id| &mut self.devices[id])
    }

    /// All devices, in name (= id) order.
    pub fn devices(&self) -> impl Iterator<Item = &Device> {
        self.devices.iter()
    }

    /// Mutable access to the links' state (e.g. to take a dock link down).
    /// A slice: links can be toggled and retuned, not added or removed
    /// behind the adjacency's back.
    pub fn links_mut(&mut self) -> &mut [Link] {
        &mut self.links
    }

    /// All links.
    #[must_use]
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Raise or drop every link joining `a` and `b`. Returns how many links
    /// changed state — zero means the fault named a non-existent link, which
    /// callers may want to surface.
    pub fn set_link_up(&mut self, a: &str, b: &str, up: bool) -> usize {
        let mut changed = 0;
        for l in &mut self.links {
            if l.connects(a, b) && l.up != up {
                l.up = up;
                changed += 1;
            }
        }
        changed
    }

    /// Set the latency of every link joining `a` and `b` (a latency spike
    /// sets a high value; recovery restores the original). Returns the
    /// number of links rewritten.
    pub fn set_latency(&mut self, a: &str, b: &str, latency: u64) -> usize {
        let mut changed = 0;
        for l in &mut self.links {
            if l.connects(a, b) {
                l.latency = latency;
                changed += 1;
            }
        }
        changed
    }

    /// Partition the network: every link with exactly one endpoint inside
    /// `island` goes down, isolating the island from the rest. Links wholly
    /// inside or wholly outside are untouched. Returns links taken down.
    pub fn partition(&mut self, island: &[String]) -> usize {
        self.set_boundary(island, false)
    }

    /// Heal a partition created by [`Network::partition`]: every link
    /// crossing the island boundary comes back up. Returns links raised.
    /// (A link that was independently down before the partition comes back
    /// up too — healing is deliberately idempotent and coarse.)
    pub fn heal(&mut self, island: &[String]) -> usize {
        self.set_boundary(island, true)
    }

    fn set_boundary(&mut self, island: &[String], up: bool) -> usize {
        let mut changed = 0;
        for l in &mut self.links {
            let a_in = island.contains(&l.a);
            let b_in = island.contains(&l.b);
            if a_in != b_in && l.up != up {
                l.up = up;
                changed += 1;
            }
        }
        changed
    }

    /// The crate's one graph walk: breadth-first from `start` over up
    /// links into alive devices not yet marked in `seen`, taking each
    /// device's links in insertion order. `visit` is called once per newly
    /// reached device (never for `start` itself, whose liveness is the
    /// caller's business); returning `true` stops the walk.
    fn walk(&self, start: usize, seen: &mut [bool], mut visit: impl FnMut(Hop) -> bool) {
        seen[start] = true;
        let mut frontier = vec![(start, 0u32)];
        let mut head = 0;
        while let Some(&(parent, hops)) = frontier.get(head) {
            head += 1;
            for &(device, link) in &self.adjacency[parent] {
                if seen[device] || !self.links[link].up || !self.devices[device].alive {
                    continue;
                }
                seen[device] = true;
                if visit(Hop { device, parent, link, hops: hops + 1 }) {
                    return;
                }
                frontier.push((device, hops + 1));
            }
        }
    }

    /// Resolve both endpoints of a query, or name the one that is unknown.
    fn endpoints(&self, from: &str, to: &str) -> Result<(usize, usize), NetError> {
        let id = |n: &str| self.id_of(n).ok_or_else(|| NetError::UnknownDevice(n.to_owned()));
        Ok((id(from)?, id(to)?))
    }

    /// Label the alive devices by connected component: one graph walk
    /// per component, O(devices + links) in all, computed from the
    /// `alive`/`up` state as it is right now.
    #[must_use]
    pub fn components(&self) -> Components {
        let mut labels = vec![None; self.devices.len()];
        let mut seen = vec![false; self.devices.len()];
        let mut count = 0;
        for id in 0..self.devices.len() {
            if seen[id] || !self.devices[id].alive {
                continue;
            }
            labels[id] = Some(count);
            self.walk(id, &mut seen, |hop| {
                labels[hop.device] = Some(count);
                false
            });
            count += 1;
        }
        Components { labels, count }
    }

    /// Hops from `src` to `dst` over live links and devices.
    fn hops(&self, src: usize, dst: usize) -> Option<u32> {
        if src == dst {
            return Some(0);
        }
        let mut found = None;
        self.walk(src, &mut vec![false; self.devices.len()], |hop| {
            if hop.device == dst {
                found = Some(hop.hops);
            }
            found.is_some()
        });
        found
    }

    /// BFS hop distance over live links and devices.
    ///
    /// # Errors
    /// [`NetError`] on unknown names or unreachable endpoints.
    pub fn hop_distance(&self, from: &str, to: &str) -> Result<u32, NetError> {
        let (src, dst) = self.endpoints(from, to)?;
        self.hops(src, dst)
            .ok_or_else(|| NetError::Unreachable { from: from.to_owned(), to: to.to_owned() })
    }

    /// Whether a heartbeat sent `from` → `to` would land: both devices
    /// alive and a live path between them (a device can always hear
    /// itself). This is the failure detector's probe primitive — it
    /// deliberately cannot distinguish a dead peer from a partitioned
    /// one, which is exactly the ambiguity a detector must tolerate.
    #[must_use]
    pub fn heartbeat(&self, from: &str, to: &str) -> bool {
        let (Some(src), Some(dst)) = (self.id_of(from), self.id_of(to)) else { return false };
        self.devices[src].alive && self.devices[dst].alive && self.hops(src, dst).is_some()
    }

    /// The live path with the fewest hops: its bottleneck bandwidth and
    /// total latency at `tick`. Between parallel links the walk takes the
    /// first `up` one in insertion order.
    ///
    /// # Errors
    /// [`NetError`] on unknown/unreachable endpoints.
    pub fn path_metrics(&self, from: &str, to: &str, tick: u64) -> Result<(f64, u64), NetError> {
        let (src, dst) = self.endpoints(from, to)?;
        if src == dst {
            return Ok((f64::INFINITY, 0));
        }
        // Per device: the (parent, link) it was first reached over.
        let mut via = vec![None; self.devices.len()];
        self.walk(src, &mut vec![false; self.devices.len()], |hop| {
            via[hop.device] = Some((hop.parent, hop.link));
            hop.device == dst
        });
        let mut bw = f64::INFINITY;
        let mut lat = 0u64;
        let mut cur = dst;
        while cur != src {
            let Some((parent, link)) = via[cur] else {
                return Err(NetError::Unreachable { from: from.to_owned(), to: to.to_owned() });
            };
            bw = bw.min(self.links[link].bandwidth_at(tick));
            lat += self.links[link].latency;
            cur = parent;
        }
        Ok((bw, lat))
    }

    /// Ticks to transfer `bytes` from `from` to `to` starting at `tick`:
    /// latency + size/bottleneck (bandwidth sampled at start — links are
    /// piecewise-steady at scenario timescales).
    ///
    /// # Errors
    /// [`NetError`]; also `Unreachable` when the bottleneck is zero.
    pub fn transfer_ticks(
        &self,
        from: &str,
        to: &str,
        bytes: u64,
        tick: u64,
    ) -> Result<u64, NetError> {
        let (bw, lat) = self.path_metrics(from, to, tick)?;
        if bw <= 0.0 {
            return Err(NetError::Unreachable { from: from.to_owned(), to: to.to_owned() });
        }
        if bw.is_infinite() {
            return Ok(lat);
        }
        Ok(lat + (bytes as f64 / bw).ceil() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceKind;
    use crate::link::{BandwidthProfile, LinkKind};

    /// sensor — laptop — pda, laptop — server.
    fn net() -> Network {
        let mut n = Network::new();
        n.add_device(Device::new("sensor", DeviceKind::Sensor));
        n.add_device(Device::new("laptop", DeviceKind::Laptop));
        n.add_device(Device::new("pda", DeviceKind::Pda));
        n.add_device(Device::new("server", DeviceKind::Server));
        n.add_link(Link::new(
            "sensor",
            "laptop",
            LinkKind::Wireless,
            BandwidthProfile::Constant(50.0),
            2,
        ));
        n.add_link(Link::new(
            "laptop",
            "pda",
            LinkKind::Wireless,
            BandwidthProfile::Constant(100.0),
            1,
        ));
        n.add_link(Link::new(
            "laptop",
            "server",
            LinkKind::Wired,
            BandwidthProfile::Constant(1000.0),
            1,
        ));
        n
    }

    #[test]
    fn hop_distances() {
        let n = net();
        assert_eq!(n.hop_distance("sensor", "laptop").unwrap(), 1);
        assert_eq!(n.hop_distance("sensor", "pda").unwrap(), 2);
        assert_eq!(n.hop_distance("pda", "pda").unwrap(), 0);
    }

    #[test]
    fn unknown_and_unreachable() {
        let mut n = net();
        assert!(matches!(n.hop_distance("ghost", "pda"), Err(NetError::UnknownDevice(_))));
        n.links_mut()[0].up = false;
        assert!(matches!(n.hop_distance("sensor", "pda"), Err(NetError::Unreachable { .. })));
    }

    #[test]
    fn dead_device_breaks_paths() {
        let mut n = net();
        n.device_mut("laptop").unwrap().alive = false;
        assert!(n.hop_distance("sensor", "pda").is_err());
    }

    #[test]
    fn partition_isolates_island_and_heal_restores() {
        let mut n = net();
        let island = vec!["laptop".to_owned(), "pda".to_owned()];
        let cut = n.partition(&island);
        assert_eq!(cut, 2, "sensor-laptop and laptop-server cross the boundary");
        assert!(n.hop_distance("sensor", "laptop").is_err());
        assert!(n.hop_distance("laptop", "server").is_err());
        assert_eq!(n.hop_distance("laptop", "pda").unwrap(), 1, "intra-island survives");
        assert_eq!(n.heal(&island), 2);
        assert!(n.hop_distance("sensor", "laptop").is_ok());
    }

    #[test]
    fn heartbeat_needs_liveness_and_a_path() {
        let mut n = net();
        assert!(n.heartbeat("server", "pda"), "live path carries the beat");
        assert!(n.heartbeat("pda", "pda"), "a device always hears itself");
        assert!(!n.heartbeat("server", "ghost"), "unknown peer never answers");
        n.device_mut("pda").unwrap().alive = false;
        assert!(!n.heartbeat("server", "pda"), "dead peer misses the beat");
        assert!(!n.heartbeat("pda", "pda"), "a dead device cannot even hear itself");
        n.device_mut("pda").unwrap().alive = true;
        n.partition(&["pda".to_owned()]);
        assert!(!n.heartbeat("server", "pda"), "partition looks exactly like death");
    }

    #[test]
    fn set_link_up_reports_changes() {
        let mut n = net();
        assert_eq!(n.set_link_up("sensor", "laptop", false), 1);
        assert_eq!(n.set_link_up("sensor", "laptop", false), 0, "already down");
        assert_eq!(n.set_link_up("ghost", "laptop", false), 0, "no such link");
        assert_eq!(n.set_link_up("sensor", "laptop", true), 1);
    }

    #[test]
    fn set_latency_rewrites_matching_links() {
        let mut n = net();
        assert_eq!(n.set_latency("laptop", "server", 40), 1);
        let (_, lat) = n.path_metrics("laptop", "server", 0).unwrap();
        assert_eq!(lat, 40);
    }

    #[test]
    fn path_metrics_bottleneck_and_latency() {
        let n = net();
        let (bw, lat) = n.path_metrics("sensor", "pda", 0).unwrap();
        assert_eq!(bw, 50.0, "sensor link is the bottleneck");
        assert_eq!(lat, 3);
    }

    #[test]
    fn parallel_links_resolve_to_the_first_up_one_in_insertion_order() {
        let mut n = Network::new();
        n.add_device(Device::new("a", DeviceKind::Server));
        n.add_device(Device::new("b", DeviceKind::Server));
        for (bw, lat) in [(10.0, 7), (20.0, 5), (30.0, 3)] {
            n.add_link(Link::new("a", "b", LinkKind::Wired, BandwidthProfile::Constant(bw), lat));
        }
        assert_eq!(n.path_metrics("a", "b", 0).unwrap(), (10.0, 7));
        assert_eq!(n.path_metrics("b", "a", 0).unwrap(), (10.0, 7), "either direction");
        n.links_mut()[0].up = false;
        assert_eq!(n.path_metrics("a", "b", 0).unwrap(), (20.0, 5), "a down link is passed over");
        n.links_mut()[0].up = true;
        assert_eq!(n.path_metrics("a", "b", 0).unwrap(), (10.0, 7));
    }

    #[test]
    fn late_and_replaced_devices_keep_the_index_in_step() {
        let link = |a: &str, b: &str| {
            Link::new(a, b, LinkKind::Wired, BandwidthProfile::Constant(100.0), 1)
        };
        // Built out of order: links first, the hub that joins them last,
        // under a name that sorts before every other device.
        let mut n = Network::new();
        n.add_link(link("m", "hub"));
        n.add_device(Device::new("m", DeviceKind::Server));
        n.add_device(Device::new("z", DeviceKind::Server));
        n.add_link(link("hub", "z"));
        assert!(n.hop_distance("m", "z").is_err(), "the hub is not there yet");
        n.add_device(Device::new("hub", DeviceKind::Server));
        // Replaced mid-run: same id, same links, new state.
        let id = n.id_of("m");
        let mut dead = Device::new("m", DeviceKind::Laptop);
        dead.alive = false;
        n.add_device(dead);
        assert_eq!(n.id_of("m"), id);

        let mut fresh = Network::new();
        for d in n.devices() {
            fresh.add_device(d.clone());
        }
        for l in n.links() {
            fresh.add_link(l.clone());
        }
        let names = ["hub", "m", "z"];
        for a in names {
            for b in names {
                assert_eq!(n.hop_distance(a, b), fresh.hop_distance(a, b), "{a} -> {b}");
                assert_eq!(n.heartbeat(a, b), fresh.heartbeat(a, b), "{a} -> {b}");
            }
        }
        assert_eq!(n.hop_distance("hub", "z"), Ok(1));
        assert!(!n.heartbeat("hub", "m"), "the replacement arrived dead");
        n.add_device(Device::new("m", DeviceKind::Server));
        assert_eq!(n.hop_distance("m", "z"), Ok(2), "and its links survived both replacements");
    }

    #[test]
    fn transfer_time_accounts_size_and_latency() {
        let n = net();
        // 500 bytes over bottleneck 50 B/tick + 3 latency = 13.
        assert_eq!(n.transfer_ticks("sensor", "pda", 500, 0).unwrap(), 13);
        // Local transfer is free.
        assert_eq!(n.transfer_ticks("pda", "pda", 10_000, 0).unwrap(), 0);
    }

    #[test]
    fn transfer_over_stepped_link_uses_tick() {
        let mut n = net();
        n.links_mut()[1].profile = BandwidthProfile::Steps(vec![(0, 100.0), (10, 10.0)]);
        let fast = n.transfer_ticks("laptop", "pda", 1000, 0).unwrap();
        let slow = n.transfer_ticks("laptop", "pda", 1000, 10).unwrap();
        assert!(slow > fast);
    }
}
