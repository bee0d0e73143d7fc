//! Trace-query invariants: the causal structure the paper's Adaptation
//! Framework promises, asserted over real traces with `obs::query`
//! instead of eyeballed from renders.
//!
//! Every test sweeps the Table 2 flash crowd plus the chaos storyline
//! under every golden seed, so the invariants hold both in the happy
//! path and under injected faults:
//!
//! 1. every SWITCH instant lies **within** a Patia tick span;
//! 2. every load-driven SWITCH (`migrate`/`spread`) is **preceded
//!    within** its tick by a CPU-gauge breach for the same atom on the
//!    same node — monitors → gauges → session manager, in that order;
//! 3. every evacuation is **preceded by** the death of the node it
//!    flees;
//! 4. every reconfiguration span (boot and migration mirror)
//!    **encloses** a committed compkit bind/unbind transaction;
//! 5. tick spans are **pairwise disjoint** — the virtual clock never
//!    double-books the server;
//! 6. every ORB invocation span's duration equals its own
//!    `RpcOutcome::cycles` argument (asserted on a Go! kernel replay);
//! 7. query counts agree with the report and the folded profile
//!    partitions the clock (summed leaf cycles == final virtual clock).

use adm_core::scenario::chaos::{ci_chaos, paper_flash_crowd, run_observed, ChaosParams};
use adm_core::scenario::GOLDEN_SEEDS;
use obs::query::{arg, Query};
use obs::{Obs, Profile, TraceEvent};

/// Every scenario the invariants sweep: the flash crowd plus the chaos
/// matrix, each replayed once with observability armed.
fn scenarios() -> Vec<(String, adm_core::scenario::chaos::ChaosReport, Obs)> {
    let mut out = Vec::new();
    let named: Vec<(String, ChaosParams)> =
        std::iter::once(("flash-crowd".to_owned(), paper_flash_crowd()))
            .chain(GOLDEN_SEEDS.iter().map(|s| (format!("chaos-seed-{s}"), ci_chaos(*s))))
            .collect();
    for (name, params) in named {
        let (report, o) = run_observed(&params);
        out.push((name, report, o));
    }
    out
}

/// Relation: witness and marker name the same atom.
fn same_atom(w: &TraceEvent, m: &TraceEvent) -> bool {
    arg(w, "atom") == arg(m, "atom")
}

/// Invariant 1 — *within*: every SWITCH instant (migrate, spread,
/// evacuate, failed) happens inside some tick span; the session manager
/// never acts between ticks.
#[test]
fn every_switch_instant_lies_within_a_tick_span() {
    for (name, _, o) in scenarios() {
        let all = Query::over(o.tracer.events());
        let ticks = all.clone().cat("patia").name_prefix("tick:").spans();
        let switches = all.clone().cat("patia").name_prefix("switch:").instants();
        assert!(!ticks.is_empty(), "{name}: ticks must be traced");
        switches
            .each_within(&ticks)
            .unwrap_or_else(|v| panic!("{name}: switch escaped its tick: {v}"));
    }
}

/// Invariant 2 — *precedes within*: every load-driven SWITCH is
/// justified by a CPU-gauge breach for the same atom on the source node,
/// earlier in the same tick. This is Figure 1's monitors→gauges→decision
/// causality, machine-checked.
#[test]
fn every_load_switch_is_preceded_by_a_gauge_breach_in_its_tick() {
    let mut checked = 0usize;
    for (name, _, o) in scenarios() {
        let all = Query::over(o.tracer.events());
        let ticks = all.clone().cat("patia").name_prefix("tick:").spans();
        let breaches = all.clone().cat("patia").name("gauge:breach");
        let moves = all
            .clone()
            .cat("patia")
            .instants()
            .filter(|e| e.name == "switch:migrate" || e.name == "switch:spread");
        checked += moves.count();
        moves
            .each_preceded_within(&breaches, &ticks, |w, m| {
                same_atom(w, m) && arg(w, "node") == arg(m, "from")
            })
            .unwrap_or_else(|v| panic!("{name}: unjustified SWITCH: {v}"));
    }
    assert!(checked >= 3, "the sweep must actually exercise load switches ({checked})");
}

/// Invariant 3 — *precedes*: an evacuation only happens after the node
/// it flees died. The flash crowd injects no faults, so it contributes
/// the vacuous case; the chaos seeds contribute real evacuations.
#[test]
fn every_evacuation_is_preceded_by_the_source_nodes_death() {
    let mut evacuations = 0usize;
    for (name, report, o) in scenarios() {
        let all = Query::over(o.tracer.events());
        let deaths = all.clone().cat("patia").name("fault:node_death");
        let evts = all.clone().cat("patia").name("switch:evacuate");
        evacuations += evts.count();
        assert_eq!(
            evts.count() as u64,
            report.evacuations,
            "{name}: traced evacuations match the report"
        );
        evts.each_preceded_by(&deaths, |w, m| arg(w, "node") == arg(m, "from"))
            .unwrap_or_else(|v| panic!("{name}: evacuation without a prior node death: {v}"));
        if name == "flash-crowd" {
            assert!(
                all.clone().name_prefix("fault:").is_empty(),
                "{name}: a fault-free scenario must trace no fault instants"
            );
        }
    }
    assert!(evacuations > 0, "the chaos seeds must exercise at least one evacuation");
}

/// Invariant 4 — *encloses*: every reconfiguration the chaos glue
/// mirrors (the boot transaction and one per SWITCH) wholly contains a
/// committed compkit bind/unbind transaction — the paper's "migration is
/// a transactional reconfiguration", span-nested.
#[test]
fn every_reconfiguration_span_encloses_a_committed_transaction() {
    for (name, report, o) in scenarios() {
        let all = Query::over(o.tracer.events());
        let commits = all.clone().cat("compkit").name("switch").arg("outcome", "committed");
        let reconfigs =
            all.clone().cat("chaos").spans().filter(|e| e.name == "boot" || e.name == "migration");
        assert_eq!(
            reconfigs.count() as u64,
            report.migrations + 1,
            "{name}: one mirror span per SWITCH plus the boot transaction"
        );
        reconfigs.each_encloses(&commits, |_, _| true).unwrap_or_else(|v| {
            panic!("{name}: reconfiguration without a committed transaction: {v}")
        });
        assert_eq!(
            report.reconfigs_committed,
            report.migrations + 1,
            "{name}: every mirrored plan commits"
        );
        assert_eq!(report.reconfigs_rolled_back, 0, "{name}: no mirrored plan rolls back");
    }
}

/// Invariant 5 — *disjoint*: tick spans partition server time; the
/// virtual clock never runs two ticks at once.
#[test]
fn tick_spans_are_pairwise_disjoint() {
    for (name, _, o) in scenarios() {
        Query::over(o.tracer.events())
            .cat("patia")
            .name_prefix("tick:")
            .spans()
            .pairwise_disjoint()
            .unwrap_or_else(|v| panic!("{name}: overlapping ticks: {v}"));
    }
}

/// Invariant 6 — the trace agrees with the measurement it annotates:
/// every ORB invocation span's duration equals the `cycles` it reported
/// in its `RpcOutcome`, on the Go! kernel's own cycle counter.
#[test]
fn orb_invocation_spans_reproduce_their_rpc_outcome_cycles() {
    use gokernel::kernels::{GoKernel, Kernel};
    use machine::CostModel;
    let obs = Obs::new(CostModel::pentium()).into_handle();
    let mut go = GoKernel::new(CostModel::pentium());
    go.arm_obs(obs.clone());
    let mut cycles = Vec::new();
    for _ in 0..5 {
        cycles.push(go.null_rpc());
    }
    drop(go);
    let o = Obs::try_unwrap(obs).unwrap_or_else(|_| unreachable!("kernel dropped"));
    let invokes = Query::over(o.tracer.events()).cat("gokernel").name("invoke").spans();
    assert_eq!(invokes.count(), cycles.len(), "one span per invocation");
    invokes.dur_equals_arg("cycles").expect("span duration equals RpcOutcome::cycles");
    for ((_, e), reported) in invokes.events().iter().zip(&cycles) {
        assert_eq!(e.dur, *reported, "the span rides the ORB's own counter");
        assert_eq!(arg(e, "outcome"), Some("ok"));
    }
}

/// Invariant 7 — queries, report, and profiler tell one story: SWITCH
/// counts agree across all three views, and the folded stacks partition
/// the final virtual clock.
#[test]
fn query_counts_report_and_profile_agree() {
    for (name, report, o) in scenarios() {
        let all = Query::over(o.tracer.events());
        let moves = all
            .clone()
            .cat("patia")
            .instants()
            .filter(|e| {
                e.name == "switch:migrate"
                    || e.name == "switch:spread"
                    || e.name == "switch:evacuate"
            })
            .count() as u64;
        assert_eq!(moves, report.migrations, "{name}: traced SWITCHes match the report");
        assert_eq!(
            all.clone().cat("patia").name("switch:failed").count() as u64,
            report.failed_switches,
            "{name}: traced failures match the report"
        );

        let profile = Profile::build(o.tracer.events(), o.clock());
        let folded = profile.folded();
        let leaf_sum: u64 = folded
            .lines()
            .map(|l| l.rsplit(' ').next().and_then(|n| n.parse::<u64>().ok()).unwrap_or(0))
            .sum();
        assert_eq!(leaf_sum, o.clock(), "{name}: folded leaf cycles partition the clock");
        assert_eq!(profile.self_total(), o.clock(), "{name}: self+idle partition the clock");
    }
}
