//! Scale tier: the full mega-crowd — ten million requests through the
//! event engine inside a wall-clock budget — and the paper's flash crowd
//! on the request-driven `tick` path inside a budget of its own.
//!
//! The unit tier runs a 1/100-rate miniature; this tier runs the real
//! thing and holds the engine to its acceptance bar: at least
//! 10M requests offered and completed, conservation exact, and the whole
//! run inside seconds of wall-clock (budgets relaxed under debug builds —
//! CI runs this tier with `--release`).

use adm_core::scenario::chaos::{paper_flash_crowd, run_observed};
use adm_core::scenario::megacrowd::{mega_crowd, run};
use std::time::{Duration, Instant};

/// Wall-clock budget for the full run.
fn budget_secs() -> u64 {
    if cfg!(debug_assertions) {
        300
    } else {
        5
    }
}

#[test]
fn mega_crowd_serves_ten_million_requests_within_budget() {
    let params = mega_crowd();
    let started = Instant::now();
    let report = run(&params);
    let elapsed = started.elapsed();

    assert!(
        report.offered >= 10_000_000,
        "the crowd must offer at least 10M requests (offered {})",
        report.offered
    );
    assert!(report.conserved(), "conservation must hold at scale: {report:?}");
    assert_eq!(
        report.totals.completed, report.offered,
        "every offered request completes within the horizon"
    );
    assert_eq!(report.queued_at_end, 0, "the storm fully drains");
    assert!(report.totals.evacuations >= 1, "the mid-storm node death must evacuate");
    assert!(
        report.totals.switches >= 1,
        "the storm must push utilisation over the SWITCH threshold"
    );
    assert!(
        report.totals.ticks_processed < 10_000,
        "flows expand lazily: the engine touches storm ticks, not the 200k horizon \
         ({} processed)",
        report.totals.ticks_processed
    );
    assert!(
        elapsed.as_secs() < budget_secs(),
        "10M requests must clear in under {}s of wall-clock (took {:.1}s)",
        budget_secs(),
        elapsed.as_secs_f64()
    );
}

/// The scale run is as deterministic as the small ones — same report,
/// twice, wall-clock excluded.
#[test]
fn mega_crowd_replays_identically() {
    let params = mega_crowd();
    assert_eq!(run(&params), run(&params));
}

/// Wall-clock budget for one armed flash-crowd run.
fn flash_budget() -> Duration {
    Duration::from_millis(if cfg!(debug_assertions) { 2_000 } else { 40 })
}

/// The complexity guard for the request-driven path: the armed flash
/// crowd, served through `tick` with each tick's requests routed as one
/// cohort per atom, runs in 3-4 ms in release on a 2-core x86-64 box
/// while its backlog peaks at ~13.8k waiting requests. A tick whose cost
/// grew with the backlog in requests, rather than in queue entries,
/// would blow the budget.
#[test]
fn flash_crowd_ticks_do_not_scale_with_the_backlog() {
    let started = Instant::now();
    let (report, _) = run_observed(&paper_flash_crowd());
    let elapsed = started.elapsed();
    assert!(report.conserved(), "conservation must hold: {report:?}");
    assert!(report.arrivals > 20_000, "the crowd must arrive ({} arrivals)", report.arrivals);
    assert!(
        elapsed < flash_budget(),
        "the armed flash crowd must run in under {:?} (took {elapsed:?})",
        flash_budget()
    );
}
