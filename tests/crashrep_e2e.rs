//! Crash-replay conformance tier: the adaptation journal's recovery
//! guarantee and the patia supervision layer, asserted end to end.
//!
//! Part 1 sweeps the (seed × crash point) matrix of
//! `scenario::crashrep`: after a crash at any journal-record boundary,
//! `recover()` must land the runtime byte-identical to either the
//! committed or the rolled-back reference — never a hybrid — and a
//! second recovery must be a no-op. The matrix transcript is pinned as
//! a golden (`tests/goldens/crashrep.txt`; regenerate with
//! `cargo xtask update-goldens`), and recovery cost must surface as
//! cycle-billed `compkit:recover` spans plus `compkit.recovery.*`
//! registry counters.
//!
//! Part 2 replays the supervised chaos storyline and asserts the
//! failure-detector/circuit-breaker causality over the real trace:
//! suspicion within `k` missed beats of a crash, no SWITCH toward an
//! open circuit, and readmission after restart.

mod golden;

use adm_core::scenario::chaos::run_observed;
use adm_core::scenario::crashrep::{
    crash_points, render_matrix, run_cell_observed, supervised_storyline, sweep, CrashCellReport,
};
use adm_core::scenario::GOLDEN_SEEDS;
use compkit::journal::CrashPoint;
use obs::query::{arg, Query};
use obs::TraceEvent;

/// Part 1a — the tentpole invariant over the full matrix: every cell
/// settles on exactly one reference configuration and replays as a
/// no-op.
#[test]
fn every_crash_cell_recovers_to_committed_or_rolled_back_never_hybrid() {
    let cells = sweep();
    assert_eq!(cells.len(), GOLDEN_SEEDS.len() * crash_points().len(), "the matrix is complete");
    for cell in &cells {
        assert!(
            cell.consistent(),
            "cell must land on exactly one reference and replay as a no-op: {}",
            cell.render_line()
        );
        match cell.point {
            CrashPoint::AfterCommit => {
                assert!(
                    cell.committed(),
                    "post-commit crash must roll forward: {}",
                    cell.render_line()
                );
            }
            _ => {
                assert!(
                    cell.rolled_back(),
                    "pre-commit crash must roll back: {}",
                    cell.render_line()
                );
            }
        }
        let expected_calls =
            if matches!(cell.point, CrashPoint::DuringRecovery { .. }) { 2 } else { 1 };
        assert_eq!(
            cell.recover_calls,
            expected_calls,
            "recovery must settle in the minimum number of passes: {}",
            cell.render_line()
        );
    }
    // The matrix must exercise both outcomes, not collapse to one.
    assert!(cells.iter().any(CrashCellReport::committed));
    assert!(cells.iter().any(CrashCellReport::rolled_back));
}

/// Part 1b — the matrix transcript is deterministic and pinned as a
/// golden, so any drift in journal layout, recovery order, or digesting
/// shows up as a reviewable diff.
#[test]
fn crash_matrix_golden_is_stable() {
    let got = render_matrix(&sweep());
    assert_eq!(got, render_matrix(&sweep()), "the matrix must replay byte-identically");
    golden::check("tests/goldens/crashrep.txt", &got);
}

/// Part 1c — recovery is work the machine performs, so it is billed on
/// the virtual clock, traced as a `compkit:recover` span whose args
/// agree with the report, and published to the registry.
#[test]
fn recovery_cost_is_billed_traced_and_published() {
    for &seed in &GOLDEN_SEEDS {
        for point in [CrashPoint::MidPlan { after_steps: 3 }, CrashPoint::AfterCommit] {
            let (cell, o) = run_cell_observed(seed, point);
            let all = Query::over(o.tracer.events());
            let recovers = all.clone().cat("compkit").name("recover").spans();
            assert_eq!(
                recovers.count(),
                1,
                "one settled recovery, one span (noop replays are free)"
            );
            let (_, span) = recovers.events()[0];
            assert!(span.dur > 0, "recovery must cost cycles");
            assert_eq!(arg(span, "scanned").unwrap(), cell.records_scanned.to_string());
            assert_eq!(arg(span, "undone").unwrap(), cell.undone.to_string());
            assert_eq!(arg(span, "outcome").unwrap(), cell.outcome.to_string());
            // The crashed switchover is also visible: a compkit:switch
            // span with outcome "crashed", never "committed".
            assert_eq!(
                all.clone().cat("compkit").name("switch").arg("outcome", "crashed").count(),
                1,
                "the crash itself must be traced"
            );
            assert_eq!(o.metrics.counter("compkit.switch.crashed"), 1);
            assert_eq!(o.metrics.counter("compkit.recovery.runs"), 1);
            assert_eq!(
                o.metrics.counter("compkit.recovery.records_scanned"),
                cell.records_scanned as u64
            );
            assert_eq!(o.metrics.counter("compkit.recovery.steps_undone"), cell.undone as u64);
            assert_eq!(o.tracer.open_spans(), 0, "every span must be closed");
        }
    }
}

/// The tick number of the `tick:N` span enclosing `e`, if any.
fn enclosing_tick(events: &[TraceEvent], e: &TraceEvent) -> Option<u64> {
    events
        .iter()
        .filter(|s| s.cat == "patia" && s.name.starts_with("tick:") && s.dur > 0)
        .find(|s| s.ts <= e.ts && e.ts <= s.ts + s.dur)
        .and_then(|s| s.name.strip_prefix("tick:")?.parse().ok())
}

/// The circuit-open intervals `[open_ts, contact_ts)` for `node`,
/// reconstructed from the trace's `circuit:open` / `circuit:half_open` /
/// `circuit:close` instants.
fn open_intervals(events: &[TraceEvent], node: &str) -> Vec<(u64, u64)> {
    let mut intervals = Vec::new();
    let mut open_since: Option<u64> = None;
    for e in events {
        if e.cat != "patia" || arg(e, "node") != Some(node) {
            continue;
        }
        match e.name.as_str() {
            "circuit:open" => open_since = open_since.or(Some(e.ts)),
            "circuit:half_open" | "circuit:close" => {
                if let Some(since) = open_since.take() {
                    intervals.push((since, e.ts));
                }
            }
            _ => {}
        }
    }
    if let Some(since) = open_since {
        intervals.push((since, u64::MAX));
    }
    intervals
}

/// Part 2 — supervision causality over the real trace, swept across the
/// chaos seed matrix.
#[test]
fn supervision_invariants_hold_over_the_storyline() {
    for &seed in &GOLDEN_SEEDS {
        let (report, o) = run_observed(&supervised_storyline(seed));
        assert!(report.conserved(), "seed {seed}: conservation must hold");
        let events = o.tracer.events();
        let all = Query::over(events);

        // (a) node2's crash is suspected within k missed beats: the
        // suspect instant carries missed=3 and lands at most
        // suspect_after ticks after the death tick.
        let deaths = all.clone().cat("patia").name("fault:node_death").arg("node", "node2");
        assert_eq!(deaths.count(), 1, "seed {seed}: the storyline kills node2 once");
        let suspects: Vec<&TraceEvent> = all
            .clone()
            .cat("patia")
            .name("detector:suspect")
            .arg("node", "node2")
            .events()
            .iter()
            .map(|(_, e)| *e)
            .collect();
        assert_eq!(suspects.len(), 1, "seed {seed}: node2 must be suspected exactly once");
        let death = deaths.events()[0].1;
        let suspect = suspects[0];
        assert!(suspect.ts > death.ts, "seed {seed}: suspicion follows the crash");
        assert_eq!(arg(suspect, "missed"), Some("3"), "seed {seed}: k=3 missed beats convict");
        let suspect_tick = enclosing_tick(events, suspect)
            .unwrap_or_else(|| panic!("seed {seed}: suspicion must land inside a tick"));
        // The crash strikes at timeline tick 70 (before that tick's
        // heartbeat round), so the third consecutive miss is tick 72.
        assert!(
            (71..=73).contains(&suspect_tick),
            "seed {seed}: suspected at tick {suspect_tick}, expected within k beats of 70"
        );

        // (b) the partitioned-but-alive wp1 is suspected too — the case
        // plain BEST cannot see.
        assert_eq!(
            all.clone().cat("patia").name("detector:suspect").arg("node", "wp1").count(),
            1,
            "seed {seed}: partition must be indistinguishable from death"
        );

        // (c) BEST never routes a SWITCH toward an open circuit: no
        // switch instant's destination lies inside that node's
        // reconstructed open interval.
        let switch_names = ["switch:migrate", "switch:spread", "switch:evacuate"];
        for (_, sw) in all
            .clone()
            .cat("patia")
            .instants()
            .filter(|e| switch_names.contains(&e.name.as_str()))
            .events()
        {
            let to = arg(sw, "to").expect("switch instants carry a destination");
            for (from_ts, until_ts) in open_intervals(events, to) {
                assert!(
                    !(from_ts <= sw.ts && sw.ts < until_ts),
                    "seed {seed}: SWITCH routed to {to} while its circuit was open: {sw:?}"
                );
            }
        }

        // (d) after the restart, node2 rejoins: revival, then its
        // circuit closes, and it is never suspected again.
        let revival = all.clone().cat("patia").name("fault:node_revival").arg("node", "node2");
        assert_eq!(revival.count(), 1, "seed {seed}: the storyline restarts node2 once");
        let revival_ts = revival.events()[0].1.ts;
        let closes: Vec<u64> = all
            .clone()
            .cat("patia")
            .name("circuit:close")
            .arg("node", "node2")
            .events()
            .iter()
            .map(|(_, e)| e.ts)
            .collect();
        assert!(
            closes.iter().any(|&ts| ts > revival_ts),
            "seed {seed}: node2's circuit must close after its restart"
        );
        assert!(
            open_intervals(events, "node2").iter().all(|&(_, until)| until != u64::MAX),
            "seed {seed}: node2 must not end the run isolated"
        );

        // (e) the restart policy probed while node2 was down, backing
        // off; and the registry totals agree with the trace.
        let probes = all.clone().cat("patia").name("restart:attempt").arg("node", "node2");
        assert!(probes.count() >= 2, "seed {seed}: the backoff policy must probe repeatedly");
        for (counter, instant) in [
            ("patia.detector.suspects", "detector:suspect"),
            ("patia.detector.revivals", "detector:revive"),
            ("patia.circuit.opens", "circuit:open"),
            ("patia.circuit.half_opens", "circuit:half_open"),
            ("patia.circuit.closes", "circuit:close"),
            ("patia.restart.probes", "restart:attempt"),
        ] {
            let traced = all.clone().cat("patia").name(instant).count();
            assert!(traced > 0, "seed {seed}: the storyline must emit {instant}");
            assert_eq!(
                o.metrics.counter(counter),
                traced as u64,
                "seed {seed}: registry counter {counter} must match the trace"
            );
        }
    }
}

/// The storyline replays deterministically — the supervision layer adds
/// no hidden nondeterminism to the chaos harness.
#[test]
fn supervised_storyline_is_deterministic() {
    let params = supervised_storyline(42);
    let (ra, oa) = run_observed(&params);
    let (rb, ob) = run_observed(&params);
    assert_eq!(ra, rb, "reports must replay identically");
    assert_eq!(oa.digests(), ob.digests(), "trace and metrics digests must replay identically");
}
