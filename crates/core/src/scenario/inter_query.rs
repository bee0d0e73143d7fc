//! Scenario 1 — *inter-query adaptation*.
//!
//! > "The query has been initiated by a PDA and requires data from the
//! > Laptop or another PDA over a wireless network. ... The DBMS
//! > understands the function BEST to mean the best device in terms of
//! > capacity and current load. At the moment the Laptop is better as it is
//! > not being used and has much more capacity compared with the PDA so
//! > that version is delivered to the PDA that initiated the original
//! > query."
//!
//! The personal-data component carries the paper's two prioritised
//! selectors; the session manager evaluates them against live monitors and
//! the chosen device's version is delivered over the simulated network.

use crate::selector::{parse_selector, Selector};
use datacomp::payload::{Object, Payload};
use datacomp::value::Value;
use datacomp::DataComponent;
use ubinet::device::{Device, DeviceKind};
use ubinet::link::{BandwidthProfile, Link, LinkKind};
use ubinet::net::Network;

/// Scenario parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct InterQueryParams {
    /// Load on the Laptop in \[0, 1\] — the swept variable: idle laptop wins
    /// `BEST`; a busy laptop loses to the second PDA.
    pub laptop_load: f64,
    /// Load on the second PDA.
    pub pda2_load: f64,
    /// Which selector runs first (the paper: constraints are prioritised).
    pub prefer_nearest: bool,
}

impl Default for InterQueryParams {
    fn default() -> Self {
        Self { laptop_load: 0.0, pda2_load: 0.3, prefer_nearest: false }
    }
}

/// The scenario's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct InterQueryReport {
    /// The device the data was served from.
    pub chosen_device: String,
    /// Which selector made the choice.
    pub selector_used: String,
    /// Ticks to deliver the data to the querying PDA.
    pub delivery_ticks: u64,
    /// The payload size delivered.
    pub payload_bytes: u64,
}

/// Build the scenario's environment: `pda` (querier) — `laptop` and
/// `pda2` reachable over wireless, both holding the personal data.
#[must_use]
pub(crate) fn build_network(p: &InterQueryParams) -> Network {
    let mut net = Network::new();
    net.add_device(Device::new("pda", DeviceKind::Pda));
    net.add_device(Device::new("laptop", DeviceKind::Laptop).with_load(p.laptop_load));
    net.add_device(Device::new("pda2", DeviceKind::Pda).with_load(p.pda2_load));
    net.add_link(Link::new(
        "pda",
        "laptop",
        LinkKind::Wireless,
        BandwidthProfile::Constant(60.0),
        2,
    ));
    net.add_link(Link::new("pda", "pda2", LinkKind::Wireless, BandwidthProfile::Constant(60.0), 1));
    net.add_link(Link::new(
        "laptop",
        "pda2",
        LinkKind::Wireless,
        BandwidthProfile::Constant(60.0),
        2,
    ));
    net
}

/// The personal-data component of the paper's example, with replicas on
/// the laptop and the second PDA and the two prioritised selectors.
///
/// # Panics
/// Never: the selector constants parse.
#[must_use]
pub fn personal_data() -> (DataComponent, Vec<Selector>) {
    let person = Object::new()
        .with("id", Value::Int(42))
        .with("name", Value::str("A. Person"))
        .with("age", Value::Int(36))
        .with_child(
            "address",
            Object::new()
                .with("city", Value::str("London"))
                .with("street", Value::str("Queen's Gate")),
        );
    let mut dc = DataComponent::new("personal-data", Payload::Object(person))
        .with_rule(1, "Select BEST (pda2, laptop)")
        .with_rule(2, "Select NEAREST (pda2, laptop)");
    dc.add_replica("laptop", 0);
    dc.add_replica("pda2", 4);
    let selectors = vec![
        parse_selector("Select BEST (pda2, laptop)").expect("constant parses"),
        parse_selector("Select NEAREST (pda2, laptop)").expect("constant parses"),
    ];
    (dc, selectors)
}

/// Run the scenario.
///
/// # Panics
/// Never for the built-in environment (all devices exist and are linked).
#[must_use]
pub fn run(p: &InterQueryParams) -> InterQueryReport {
    let net = build_network(p);
    let (dc, mut selectors) = personal_data();
    if p.prefer_nearest {
        selectors.reverse();
    }
    // The session manager walks the prioritised selectors; the first that
    // yields a usable device wins.
    let (chosen, used) = selectors
        .iter()
        .find_map(|s| s.evaluate(&net, "pda").ok().map(|d| (d.to_owned(), s.to_string())))
        .expect("some replica holder is alive");
    let bytes = dc.payload.size_bytes();
    let ticks = net.transfer_ticks(&chosen, "pda", bytes, 0).expect("chosen holder is reachable");
    InterQueryReport {
        chosen_device: chosen,
        selector_used: used,
        delivery_ticks: ticks,
        payload_bytes: bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_laptop_wins_best_as_the_paper_narrates() {
        let r = run(&InterQueryParams::default());
        assert_eq!(r.chosen_device, "laptop");
        assert!(r.selector_used.contains("BEST"));
        assert!(r.delivery_ticks > 0);
    }

    #[test]
    fn busy_laptop_loses_best_to_the_second_pda() {
        // Laptop at 99% load: available 10; pda2 at 30%: available 70.
        let r = run(&InterQueryParams { laptop_load: 0.99, ..Default::default() });
        assert_eq!(r.chosen_device, "pda2");
    }

    #[test]
    fn nearest_prefers_the_one_hop_pda() {
        let r = run(&InterQueryParams { prefer_nearest: true, ..Default::default() });
        assert_eq!(r.chosen_device, "pda2", "pda2 is 1 hop with lower latency");
        assert!(r.selector_used.contains("NEAREST"));
    }

    #[test]
    fn crossover_point_is_monotone_in_laptop_load() {
        let mut last_was_laptop = true;
        for load in [0.0, 0.2, 0.4, 0.6, 0.8, 0.95, 0.999] {
            let r = run(&InterQueryParams { laptop_load: load, ..Default::default() });
            let is_laptop = r.chosen_device == "laptop";
            assert!(
                !is_laptop || last_was_laptop,
                "once the laptop loses BEST it must not win again at higher load"
            );
            last_was_laptop = is_laptop;
        }
        assert!(!last_was_laptop, "fully-loaded laptop must lose");
    }

    #[test]
    fn dead_laptop_falls_back() {
        let p = InterQueryParams::default();
        let mut net = build_network(&p);
        net.device_mut("laptop").unwrap().alive = false;
        let (_, selectors) = personal_data();
        let chosen = selectors[0].evaluate(&net, "pda").unwrap();
        assert_eq!(chosen, "pda2");
    }
}
