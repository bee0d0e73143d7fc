//! Network properties: component labels against the pairwise definition
//! of reachability, on random topologies under random fault sequences;
//! hop-distance symmetry and triangle inequality, transfer-time
//! monotonicity, and BEST consistency.

use adm_rng::{run_cases, Pcg32};
use ubinet::device::{Device, DeviceKind};
use ubinet::link::{BandwidthProfile, Link, LinkKind};
use ubinet::net::Network;
use ubinet::select::best;

fn network(n_devices: usize, edges: &[(usize, usize)], loads: &[f64]) -> Network {
    let mut net = Network::new();
    for (i, &load) in loads.iter().enumerate().take(n_devices) {
        net.add_device(Device::new(&format!("d{i}"), DeviceKind::Laptop).with_load(load));
    }
    for &(a, b) in edges {
        let (a, b) = (a % n_devices, b % n_devices);
        if a != b {
            net.add_link(Link::new(
                &format!("d{a}"),
                &format!("d{b}"),
                LinkKind::Wireless,
                BandwidthProfile::Constant(100.0),
                1,
            ));
        }
    }
    net
}

fn edges(rng: &mut Pcg32, n: usize, lo: usize, hi: usize) -> Vec<(usize, usize)> {
    (0..rng.index(hi - lo) + lo).map(|_| (rng.index(n), rng.index(n))).collect()
}

/// d(x, y) == d(y, x), and d obeys the triangle inequality wherever
/// all three distances exist.
#[test]
fn hop_distance_is_a_metric() {
    run_cases(0xe71, 64, |rng| {
        let edges = edges(rng, 6, 0, 12);
        let loads: Vec<f64> = (0..6).map(|_| rng.f64()).collect();
        let net = network(6, &edges, &loads);
        for x in 0..6 {
            for y in 0..6 {
                let dxy = net.hop_distance(&format!("d{x}"), &format!("d{y}"));
                let dyx = net.hop_distance(&format!("d{y}"), &format!("d{x}"));
                assert_eq!(dxy.is_ok(), dyx.is_ok());
                if let (Ok(a), Ok(b)) = (&dxy, &dyx) {
                    assert_eq!(a, b, "symmetry {x} {y}");
                }
                if x == y {
                    assert_eq!(*dxy.as_ref().unwrap(), 0);
                }
                for z in 0..6 {
                    let dxz = net.hop_distance(&format!("d{x}"), &format!("d{z}"));
                    let dzy = net.hop_distance(&format!("d{z}"), &format!("d{y}"));
                    if let (Ok(a), Ok(b), Ok(c)) = (&dxy, &dxz, &dzy) {
                        assert!(a <= &(b + c), "triangle {x} {y} via {z}");
                    }
                }
            }
        }
    });
}

/// Transfer time is monotone in payload size.
#[test]
fn transfer_time_monotone_in_size() {
    run_cases(0xe72, 128, |rng| {
        let edges = edges(rng, 5, 1, 10);
        let small = rng.below(9_999) + 1;
        let extra = rng.below(9_999) + 1;
        let net = network(5, &edges, &[0.0; 5]);
        for x in 0..5 {
            for y in 0..5 {
                let a = net.transfer_ticks(&format!("d{x}"), &format!("d{y}"), small, 0);
                let b = net.transfer_ticks(&format!("d{x}"), &format!("d{y}"), small + extra, 0);
                match (a, b) {
                    (Ok(ta), Ok(tb)) => assert!(tb >= ta),
                    (Err(_), Err(_)) => {}
                    other => panic!("reachability changed with size: {other:?}"),
                }
            }
        }
    });
}

/// BEST always returns the candidate with maximal available capacity,
/// and never a dead device.
#[test]
fn best_is_argmax_of_available_capacity() {
    run_cases(0xe73, 256, |rng| {
        let loads: Vec<f64> = (0..4).map(|_| rng.f64()).collect();
        let dead: Vec<bool> = (0..4).map(|_| rng.chance(0.5)).collect();
        let mut net = network(4, &[(0, 1), (1, 2), (2, 3)], &loads);
        for (i, &d) in dead.iter().enumerate() {
            net.device_mut(&format!("d{i}")).unwrap().alive = !d;
        }
        let names: Vec<String> = (0..4).map(|i| format!("d{i}")).collect();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        match best(&net, &refs) {
            Some(winner) => {
                let wcap = net.device(winner).unwrap().available_capacity();
                assert!(wcap > 0.0);
                for n in &names {
                    assert!(net.device(n).unwrap().available_capacity() <= wcap);
                }
            }
            None => {
                for n in &names {
                    assert!(net.device(n).unwrap().available_capacity() <= 0.0);
                }
            }
        }
    });
}

/// The pairwise definition the component labels stand in for, kept as a
/// reference walk of its own: `b` is in the result when `a` and `b` are
/// alive and some path of up links through alive devices joins them.
/// Reads only the public link and device state — none of the network's
/// index.
fn reachable_by_definition(net: &Network, a: &str) -> Vec<String> {
    let alive = |n: &str| net.device(n).is_some_and(|d| d.alive);
    if !alive(a) {
        return Vec::new();
    }
    let mut reached = vec![a.to_owned()];
    let mut next = 0;
    while next < reached.len() {
        let cur = reached[next].clone();
        next += 1;
        for l in net.links().iter().filter(|l| l.up && l.touches(&cur)) {
            let other = if l.a == cur { &l.b } else { &l.a };
            if alive(other) && !reached.contains(other) {
                reached.push(other.clone());
            }
        }
    }
    reached
}

/// After every step of a random kill / revive / link-flap / partition /
/// heal sequence, two devices share a component label exactly when the
/// pairwise definition connects them, dead devices carry no label, labels
/// count up in name order of each component's first member, and
/// `heartbeat` agrees with both.
#[test]
fn component_labels_match_pairwise_reachability_under_faults() {
    run_cases(0xe74, 48, |rng| {
        let n = rng.index(23) + 2;
        let edges = edges(rng, n, 0, 2 * n);
        let mut net = network(n, &edges, &vec![0.0; n]);
        // Names out of numeric order ("d10" < "d2"), ids in name order.
        let mut names: Vec<String> = (0..n).map(|i| format!("d{i}")).collect();
        names.sort();
        let pick = |rng: &mut Pcg32| format!("d{}", rng.index(n));
        for _ in 0..12 {
            let island: Vec<String> = (0..rng.index(n)).map(|_| pick(rng)).collect();
            match rng.index(5) {
                0 => net.device_mut(&pick(rng)).unwrap().alive = false,
                1 => net.device_mut(&pick(rng)).unwrap().alive = true,
                2 => drop(net.set_link_up(&pick(rng), &pick(rng), rng.chance(0.5))),
                3 => drop(net.partition(&island)),
                _ => drop(net.heal(&island)),
            }
            let components = net.components();
            let label = |name: &str| components.label(net.id_of(name).unwrap());
            let mut fresh = 0;
            for (i, a) in names.iter().enumerate() {
                assert_eq!(net.id_of(a), Some(i), "ids are ranks in name order");
                assert_eq!(label(a).is_some(), net.device(a).unwrap().alive, "{a}");
                if let Some(l) = label(a) {
                    assert!(l <= fresh, "{a}: labels count up in name order");
                    fresh = fresh.max(l + 1);
                }
                let reached = reachable_by_definition(&net, a);
                for b in &names {
                    let same = label(a).is_some() && label(a) == label(b);
                    assert_eq!(same, reached.contains(b), "{a} ~ {b}");
                    assert_eq!(same, net.heartbeat(a, b), "{a} -> {b}");
                }
            }
            assert_eq!(components.count(), fresh as usize);
        }
    });
}
