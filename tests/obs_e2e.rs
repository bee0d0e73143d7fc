//! Golden-trace tier: the observability substrate must be *deterministic*
//! — two runs of the same seeded scenario produce byte-identical traces
//! and metric snapshots — and *inert* — arming it must not change what
//! the system does. Both properties are asserted here, and every golden
//! seed is additionally pinned against a committed golden snapshot so
//! any drift in instrumentation, cost model, or scheduling shows up as a
//! diff in review rather than silently rewriting history.
//!
//! Regenerate the goldens after an intentional change with:
//!
//! ```text
//! cargo xtask update-goldens
//! ```

mod golden;

use adm_core::scenario::chaos::{ci_chaos, paper_flash_crowd, run, run_observed, ChaosParams};
use adm_core::scenario::GOLDEN_SEEDS;
use obs::Obs;

/// The Table 2 flash-crowd scenario — shared with `figures` and the bench
/// snapshot via `scenario::chaos`.
fn flash_crowd_params() -> ChaosParams {
    paper_flash_crowd()
}

/// The chaos determinism scenario (mirrors `chaos_e2e` scenario 7) —
/// shared via `scenario::chaos`.
fn chaos_params(seed: u64) -> ChaosParams {
    ci_chaos(seed)
}

/// Render the run's observability snapshot in the golden format: a small
/// digest header (what CI diffs on) followed by the full metrics render
/// (what a human diffs on).
fn snapshot(scenario: &str, seed: u64, o: &Obs) -> String {
    let (trace_digest, metrics_digest, events) = o.digests();
    let mut s = String::new();
    s.push_str(&format!("scenario: {scenario}\n"));
    s.push_str(&format!("seed: {seed}\n"));
    s.push_str(&format!("trace-digest: {trace_digest:#018x}\n"));
    s.push_str(&format!("trace-events: {events}\n"));
    s.push_str(&format!("metrics-digest: {metrics_digest:#018x}\n"));
    s.push_str("--- metrics ---\n");
    s.push_str(&o.metrics.render());
    s
}

/// Run a scenario twice under one seed, assert byte-identical traces and
/// metric snapshots, then pin against the committed golden.
fn assert_golden(name: &str, seed: u64, params: &ChaosParams) {
    let (ra, oa) = run_observed(params);
    let (rb, ob) = run_observed(params);
    assert_eq!(ra, rb, "{name}: reports must replay identically under seed {seed}");
    assert_eq!(
        oa.tracer.render(),
        ob.tracer.render(),
        "{name}: trace must be byte-identical across runs under seed {seed}"
    );
    assert_eq!(
        oa.metrics.snapshot(),
        ob.metrics.snapshot(),
        "{name}: metric snapshot must be identical across runs under seed {seed}"
    );
    assert_eq!(oa.digests(), ob.digests());
    assert!(ra.conserved(), "{name}: conservation must hold under seed {seed}");
    assert!(!oa.tracer.events().is_empty(), "{name}: an armed run must actually record events");
    assert_eq!(oa.tracer.open_spans(), 0, "{name}: every span must be closed");

    // A drifted golden fails with a unified diff of the snapshot, not just
    // digest values — the reviewer sees *which* metric or digest moved.
    golden::check(&format!("tests/goldens/{name}.txt"), &snapshot(name, seed, &oa));
}

/// Table 2 flash crowd: golden trace + metrics, fixed scenario seed.
#[test]
fn flash_crowd_golden_trace_is_stable() {
    assert_golden("flash-crowd", 0, &flash_crowd_params());
}

/// Chaos determinism under every golden seed: one golden per seed.
#[test]
fn chaos_golden_trace_is_stable_under_seed() {
    for seed in GOLDEN_SEEDS {
        assert_golden(&format!("chaos-seed-{seed}"), seed, &chaos_params(seed));
    }
}

/// The inertness guarantee: arming observability must not perturb the
/// run. `run` and `run_observed` agree report-for-report.
#[test]
fn armed_run_matches_disarmed_run_exactly() {
    for params in std::iter::once(flash_crowd_params()).chain(GOLDEN_SEEDS.map(chaos_params)) {
        let plain = run(&params);
        let (observed, _) = run_observed(&params);
        assert_eq!(plain, observed, "observability must be inert");
    }
}

/// The registry's cumulative counters must agree with the report's
/// aggregates — the same numbers, two roads.
#[test]
fn registry_counters_agree_with_the_report() {
    for seed in GOLDEN_SEEDS {
        let (r, o) = run_observed(&chaos_params(seed));
        assert_eq!(o.metrics.counter("patia.requests.arrived"), r.arrivals);
        assert_eq!(o.metrics.counter("patia.requests.completed"), r.completed);
        assert_eq!(o.metrics.counter("patia.requests.dropped"), r.dropped);
        assert_eq!(o.metrics.counter("patia.switch.failed"), r.failed_switches);
        assert_eq!(o.metrics.counter("patia.switch.retries"), r.switch_retries);
        assert_eq!(o.metrics.counter("patia.switch.evacuations"), r.evacuations);
        assert_eq!(o.metrics.counter("patia.requests.degraded"), r.degraded);
        let h = o.metrics.histogram("patia.latency_ticks").expect("latency histogram exists");
        assert_eq!(h.count, r.completed, "seed {seed}: every completion is observed exactly once");
    }
}

/// The storage-backed variant is not vacuous: routed batches read atom
/// records through the buffer pool, and attaching storage changes the
/// cycle history.
#[test]
fn storage_backed_variants_bill_the_buffer_pool() {
    let params = ChaosParams { storage: true, ..flash_crowd_params() };
    let (_, o) = run_observed(&params);
    assert!(
        o.metrics.counter("store.pool.hit") > 0,
        "routed batches must read atom records through the pool"
    );
    let (_, plain) = run_observed(&flash_crowd_params());
    assert_ne!(
        o.digests(),
        plain.digests(),
        "storage must change the cycle history, or the variant tests nothing"
    );
}

/// The profiler's attribution and the published metrics must agree: the
/// `profile.self_cycles.*` counters `run_observed` writes into the
/// registry equal a fresh fold of the same trace, name for name and
/// cycle for cycle, and they partition the final virtual clock. This is
/// the `figures --trace` / metrics-snapshot equivalence the bench
/// snapshot relies on.
#[test]
fn profiler_attribution_agrees_with_published_metrics() {
    let chaos = GOLDEN_SEEDS.map(|seed| (format!("chaos-seed-{seed}"), chaos_params(seed)));
    for (name, params) in
        std::iter::once(("flash-crowd".to_owned(), flash_crowd_params())).chain(chaos)
    {
        let (_, o) = run_observed(&params);
        let profile = obs::Profile::build(o.tracer.events(), o.clock());
        let per_cat = profile.per_category();
        assert!(!per_cat.is_empty(), "{name}: attribution must be non-trivial");
        for (cat, cycles) in &per_cat {
            assert_eq!(
                o.metrics.counter(&format!("profile.self_cycles.{cat}")),
                *cycles,
                "{name}: published counter for {cat} matches a fresh fold"
            );
        }
        assert_eq!(o.metrics.counter("profile.clock"), o.clock());
        assert_eq!(
            per_cat.values().sum::<u64>(),
            o.clock(),
            "{name}: per-category self cycles partition the clock"
        );
        // No stray profile.* counters beyond the fold's categories.
        let published = o
            .metrics
            .render()
            .lines()
            .filter(|l| l.trim_start().starts_with("counter profile.self_cycles."))
            .count();
        assert_eq!(
            published,
            per_cat.len(),
            "{name}: registry holds exactly the fold's categories"
        );
    }
}

/// The Chrome-trace exporter must be as deterministic as the trace it
/// renders, and structurally sane enough for `chrome://tracing` to load.
#[test]
fn chrome_export_is_deterministic_and_well_formed() {
    let (_, oa) = run_observed(&flash_crowd_params());
    let (_, ob) = run_observed(&flash_crowd_params());
    let ja = obs::chrome::export(&oa.tracer, "adm");
    assert_eq!(ja, obs::chrome::export(&ob.tracer, "adm"));
    assert!(ja.starts_with("{\"traceEvents\":["));
    assert!(ja.trim_end().ends_with('}'));
    assert!(ja.contains("\"ph\":\"X\""), "complete spans must be exported");
    assert!(ja.contains("\"ph\":\"i\""), "instants must be exported");
    assert!(ja.contains("\"process_name\""));
}
