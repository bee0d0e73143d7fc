//! Devices: "anything from a set of sensors, PDAs, mobile phones and
//! webpads etc. to servers".

/// What kind of device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceKind {
    /// A sensor streaming XML readings; tiny capacity.
    Sensor,
    /// A PDA: small capacity, battery-powered.
    Pda,
    /// A laptop: medium capacity, may dock (mains + wired net).
    Laptop,
    /// A server: large capacity, mains-powered.
    Server,
    /// An under-utilised desktop (the paper's "typing-pool" machine Patia
    /// spreads onto during flash crowds).
    Workstation,
}

impl DeviceKind {
    /// Nominal compute capacity in operations per tick.
    #[must_use]
    pub fn nominal_capacity(self) -> f64 {
        match self {
            DeviceKind::Sensor => 10.0,
            DeviceKind::Pda => 100.0,
            DeviceKind::Laptop => 1_000.0,
            DeviceKind::Server => 10_000.0,
            DeviceKind::Workstation => 2_000.0,
        }
    }

    /// Whether the device runs on battery when undocked.
    #[must_use]
    pub(crate) fn battery_powered(self) -> bool {
        matches!(self, DeviceKind::Sensor | DeviceKind::Pda | DeviceKind::Laptop)
    }
}

/// A device in the environment.
#[derive(Debug, Clone, PartialEq)]
pub struct Device {
    /// Unique name.
    pub name: String,
    /// Kind.
    pub kind: DeviceKind,
    /// Current load fraction in \[0, 1\].
    pub load: f64,
    /// Battery level in \[0, 1\]; meaningless when docked/mains.
    pub battery: f64,
    /// Docked (mains power + wired network available).
    pub docked: bool,
    /// Whether the device is up.
    pub alive: bool,
}

impl Device {
    /// A fresh device, idle, full battery, docked, alive.
    #[must_use]
    pub fn new(name: &str, kind: DeviceKind) -> Self {
        Self { name: name.to_owned(), kind, load: 0.0, battery: 1.0, docked: true, alive: true }
    }

    /// Builder: start undocked.
    #[cfg(test)]
    fn undocked(mut self) -> Self {
        self.docked = false;
        self
    }

    /// Builder: start at a load.
    #[must_use]
    pub fn with_load(mut self, load: f64) -> Self {
        self.load = load.clamp(0.0, 1.0);
        self
    }

    /// Capacity left over for new work: nominal × (1 − load), zero if dead
    /// or battery-flat while undocked.
    #[must_use]
    pub fn available_capacity(&self) -> f64 {
        if !self.alive {
            return 0.0;
        }
        if !self.docked && self.kind.battery_powered() && self.battery <= 0.0 {
            return 0.0;
        }
        self.kind.nominal_capacity() * (1.0 - self.load)
    }

    /// Drain battery for one tick of work at the current load. Docked
    /// devices (or mains devices) do not drain. `drain_rate` is the battery
    /// fraction a fully-loaded tick consumes.
    pub(crate) fn step_power(&mut self, drain_rate: f64) {
        if self.alive && !self.docked && self.kind.battery_powered() {
            self.battery = (self.battery - drain_rate * (0.2 + 0.8 * self.load)).max(0.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_scales_with_load() {
        let d = Device::new("laptop", DeviceKind::Laptop).with_load(0.75);
        assert!((d.available_capacity() - 250.0).abs() < 1e-9);
    }

    #[test]
    fn dead_device_has_no_capacity() {
        let mut d = Device::new("pda", DeviceKind::Pda);
        d.alive = false;
        assert_eq!(d.available_capacity(), 0.0);
    }

    #[test]
    fn flat_battery_undocked_has_no_capacity() {
        let mut d = Device::new("pda", DeviceKind::Pda).undocked();
        d.battery = 0.0;
        assert_eq!(d.available_capacity(), 0.0);
        d.docked = true;
        assert!(d.available_capacity() > 0.0, "docked device runs on mains");
    }

    #[test]
    fn battery_drains_only_when_undocked() {
        let mut docked = Device::new("l1", DeviceKind::Laptop);
        let mut mobile = Device::new("l2", DeviceKind::Laptop).undocked().with_load(1.0);
        for _ in 0..10 {
            docked.step_power(0.01);
            mobile.step_power(0.01);
        }
        assert_eq!(docked.battery, 1.0);
        assert!((mobile.battery - 0.9).abs() < 1e-9);
    }

    #[test]
    fn server_never_drains() {
        let mut s = Device::new("srv", DeviceKind::Server).undocked().with_load(1.0);
        s.step_power(0.5);
        assert_eq!(s.battery, 1.0);
    }

    #[test]
    fn load_clamped() {
        assert_eq!(Device::new("x", DeviceKind::Pda).with_load(7.0).load, 1.0);
        assert_eq!(Device::new("x", DeviceKind::Pda).with_load(-1.0).load, 0.0);
    }

    #[test]
    fn kind_ordering_of_capacity() {
        assert!(DeviceKind::Server.nominal_capacity() > DeviceKind::Laptop.nominal_capacity());
        assert!(DeviceKind::Laptop.nominal_capacity() > DeviceKind::Pda.nominal_capacity());
        assert!(DeviceKind::Pda.nominal_capacity() > DeviceKind::Sensor.nominal_capacity());
    }
}
