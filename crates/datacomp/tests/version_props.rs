//! Version-selection properties: `BEST` never violates its constraints and
//! always returns a minimum-cost candidate.

use adm_rng::{run_cases, Pcg32};
use datacomp::version::{SelectionConstraints, Version, VersionKind, VersionList};

fn kind(rng: &mut Pcg32) -> VersionKind {
    match rng.below(4) {
        0 => VersionKind::Replica,
        1 => VersionKind::Compressed { codec: "lz".into() },
        2 => VersionKind::Summary { fraction: 0.01 + rng.f64() * 0.99 },
        _ => VersionKind::LowerQuality { quality: 0.01 + rng.f64() * 0.99 },
    }
}

fn version_list(rng: &mut Pcg32) -> VersionList {
    let mut list = VersionList::new();
    for i in 0..rng.index(12) {
        list.add(Version {
            id: i as u32,
            location: format!("node{i}"),
            kind: kind(rng),
            size_bytes: rng.below(99_999) + 1,
            age: rng.below(100),
            bytes: None,
        });
    }
    list
}

fn constraints(rng: &mut Pcg32) -> SelectionConstraints {
    SelectionConstraints {
        max_age: rng.chance(0.5).then(|| rng.below(100)),
        min_quality: rng.f64(),
        bandwidth: 0.1 + rng.f64() * 9_999.9,
        decode_cost_per_byte: vec![("lz".into(), rng.f64() * 0.1)],
    }
}

/// A returned version satisfies every constraint and no eligible
/// version is strictly cheaper.
#[test]
fn best_is_feasible_and_minimal() {
    run_cases(0xdb1, 512, |rng| {
        let list = version_list(rng);
        let c = constraints(rng);
        match list.best(&c) {
            Ok(v) => {
                if let Some(a) = c.max_age {
                    assert!(v.age <= a);
                }
                assert!(v.kind.quality() >= c.min_quality);
                let cost = c.delivery_cost(v);
                for other in list.all() {
                    let eligible = c.max_age.is_none_or(|a| other.age <= a)
                        && other.kind.quality() >= c.min_quality;
                    if eligible {
                        assert!(
                            cost <= c.delivery_cost(other) + 1e-9,
                            "version {} (cost {cost}) beaten by {} (cost {})",
                            v.id,
                            other.id,
                            c.delivery_cost(other)
                        );
                    }
                }
            }
            Err(_) => {
                // Only legitimate when nothing is eligible.
                for other in list.all() {
                    let eligible = c.max_age.is_none_or(|a| other.age <= a)
                        && other.kind.quality() >= c.min_quality;
                    assert!(!eligible, "version {} was eligible", other.id);
                }
            }
        }
    });
}

/// Widening constraints never loses feasibility.
#[test]
fn relaxing_constraints_is_monotone() {
    run_cases(0xdb2, 512, |rng| {
        let list = version_list(rng);
        let c = constraints(rng);
        let relaxed = SelectionConstraints {
            max_age: None,
            min_quality: 0.0,
            bandwidth: c.bandwidth,
            decode_cost_per_byte: c.decode_cost_per_byte.clone(),
        };
        if list.best(&c).is_ok() {
            assert!(list.best(&relaxed).is_ok());
        }
    });
}
