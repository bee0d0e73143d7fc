//! Property: the Adaptivity Manager's switch is atomic under arbitrary
//! injected creation failures — either the runtime reaches exactly the
//! target configuration, or it is restored bit-for-bit.

use adl::ast::{Binding, PortRef};
use adl::config::Configuration;
use adl::diff::diff;
use adm_rng::{run_cases, Pcg32};
use compkit::adaptivity::AdaptivityManager;
use compkit::runtime::{BasicFactory, FlakyFactory, Runtime};
use compkit::state::StateManager;
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
    // Bindings may only reference instances that exist (so the runtime's
    // bind() invariant holds for the *target*) and must not close an
    // instance-level service cycle: the Adaptivity Manager's lint gate —
    // like the document analyser — refuses cyclic configurations, and
    // these properties quantify over admissible targets.
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

/// With a healthy factory, a switch always lands exactly on the target.
#[test]
fn switch_reaches_target() {
    run_cases(0x5c1, 256, |rng| {
        let (a, b) = (configuration(rng), configuration(rng));
        let mut rt = boot(&a);
        let mut am = AdaptivityManager::new();
        let mut st = StateManager::new();
        let plan = diff(&rt.configuration(), &b);
        am.execute(&mut rt, &plan, &mut BasicFactory, &mut st, 1).unwrap();
        assert_eq!(rt.configuration(), b);
    });
}

/// With injected failures, the outcome is all-or-nothing.
#[test]
fn switch_is_atomic_under_failures() {
    run_cases(0x5c2, 256, |rng| {
        let (a, b) = (configuration(rng), configuration(rng));
        let fail: BTreeSet<String> = (0..rng.index(4)).map(|_| name(rng)).collect();
        let mut rt = boot(&a);
        let before = rt.clone();
        let mut am = AdaptivityManager::new();
        let mut st = StateManager::new();
        let plan = diff(&rt.configuration(), &b);
        let mut factory = FlakyFactory::failing(fail.clone());
        match am.execute(&mut rt, &plan, &mut factory, &mut st, 1) {
            Ok(_) => {
                assert_eq!(rt.configuration(), b);
                // Success implies no started component was on the fail list.
                for (n, _) in &plan.start {
                    assert!(!fail.contains(n));
                }
            }
            Err(_) => {
                assert_eq!(&rt, &before, "failed switch must restore the runtime");
                assert_eq!(am.rolled_back(), 1);
            }
        }
    });
}
