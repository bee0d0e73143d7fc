//! Property: random fault plans cannot break the Adaptivity Manager's
//! atomicity — a failed switch leaves the runtime exactly as it was, a
//! successful one lands exactly on the target, and nothing panics.
//!
//! A small seeded tier and the full sweep both run on every `cargo test`.

use adl::ast::{Binding, PortRef};
use adl::config::Configuration;
use adl::diff::diff;
use adm_rng::{run_cases, Pcg32};
use compkit::adaptivity::{AdaptivityManager, SwitchError};
use compkit::runtime::{BasicFactory, Runtime};
use compkit::state::StateManager;
use faultsim::{flaky_factory, FaultPlan, FaultSpace, PlanStepFaults};
use std::collections::BTreeSet;

fn name(rng: &mut Pcg32) -> String {
    let n = rng.index(2) + 1;
    (0..n).map(|_| (b'a' + rng.below(5) as u8) as char).collect()
}

fn port(rng: &mut Pcg32) -> String {
    String::from(if rng.chance(0.5) { "p" } else { "q" })
}

fn configuration(rng: &mut Pcg32) -> Configuration {
    let instances: std::collections::BTreeMap<String, String> = (0..rng.index(6))
        .map(|_| {
            let ty = ["T", "U", "V"][rng.index(3)].to_string();
            (name(rng), ty)
        })
        .collect();
    let raw: BTreeSet<(String, String, String, String)> =
        (0..rng.index(6)).map(|_| (name(rng), port(rng), name(rng), port(rng))).collect();
    // Keep the target admissible: bindings reference only existing
    // instances and stay acyclic at the instance level, since the
    // Adaptivity Manager's lint gate (like the document analyser) refuses
    // cyclic configurations before executing anything.
    let keys: BTreeSet<&String> = instances.keys().collect();
    let mut edges: Vec<(String, String)> = Vec::new();
    let bindings = raw
        .into_iter()
        .filter(|(fi, _, ti, _)| keys.contains(fi) && keys.contains(ti))
        .filter(|(fi, _, ti, _)| {
            edges.push((fi.clone(), ti.clone()));
            if adl::analysis::find_cycle(&edges).is_some() {
                edges.pop();
                return false;
            }
            true
        })
        .map(|(fi, fp, ti, tp)| Binding { from: PortRef::on(&fi, &fp), to: PortRef::on(&ti, &tp) })
        .collect();
    Configuration { instances, bindings }
}

fn boot(cfg: &Configuration) -> Runtime {
    let mut rt = Runtime::new();
    let mut am = AdaptivityManager::new();
    let mut st = StateManager::new();
    let plan = diff(&Configuration::default(), cfg);
    am.execute(&mut rt, &plan, &mut BasicFactory, &mut st, 0)
        .expect("booting a self-consistent configuration succeeds");
    rt
}

/// Run `cases` random (configuration pair, fault plan) draws and check the
/// all-or-nothing contract under both start and bind failures.
fn switch_is_atomic_under_random_fault_plans(seed: u64, cases: u32) {
    run_cases(seed, cases, |rng| {
        let (a, b) = (configuration(rng), configuration(rng));
        // Fault plans drawn over the *target's* component names, so start
        // and bind failures can actually strike the reconfiguration.
        let space = FaultSpace {
            components: b.instances.keys().cloned().collect(),
            horizon: 16,
            incidents: rng.index(5),
            ..FaultSpace::default()
        };
        let fault_plan = FaultPlan::random(rng.next_u64(), &space);
        let mut injector = PlanStepFaults::new(&fault_plan);
        let mut factory = flaky_factory(&fault_plan);

        let mut rt = boot(&a);
        let before = rt.clone();
        let mut am = AdaptivityManager::new();
        let mut st = StateManager::new();
        let reconf = diff(&rt.configuration(), &b);
        match am.execute_with_faults(&mut rt, &reconf, &mut factory, &mut st, 1, &mut injector) {
            Ok(_) => assert_eq!(
                rt.configuration(),
                b,
                "a committed switch must land exactly on the target\nplan:\n{}",
                fault_plan.render()
            ),
            Err(e) => {
                assert!(
                    !matches!(e, SwitchError::RollbackIncomplete { .. }),
                    "plan injects no rollback faults, so rollback must complete: {e}"
                );
                assert_eq!(
                    rt,
                    before,
                    "a failed switch must restore the runtime bit-for-bit\nplan:\n{}",
                    fault_plan.render()
                );
            }
        }
    });
}

/// Smoke: a few dozen cases.
#[test]
fn switch_is_atomic_under_random_fault_plans_small() {
    switch_is_atomic_under_random_fault_plans(0xfa01, 24);
}

/// The full sweep: 400 cases on a second seed.
#[test]
fn switch_is_atomic_under_random_fault_plans_full() {
    switch_is_atomic_under_random_fault_plans(0xfa02, 400);
}

/// Determinism of the generator itself: the same seed over the same space
/// renders the same timeline even across separate generator instances.
#[test]
fn random_plan_generation_is_reproducible() {
    run_cases(0xfa03, 16, |rng| {
        let seed = rng.next_u64();
        let space = FaultSpace {
            nodes: vec!["n1".into(), "n2".into()],
            links: vec![("n1".into(), "n2".into())],
            atoms: vec![123],
            components: vec!["c".into()],
            horizon: 32,
            incidents: 8,
        };
        let first = FaultPlan::random(seed, &space);
        let second = FaultPlan::random(seed, &space);
        assert_eq!(first.render(), second.render());
        assert_eq!(first.digest(), second.digest());
    });
}
