//! System-table tier: every committed scenario is replayed to its
//! settled state and then *queried* — the machine's own telemetry served
//! through the `query` operators as `sys.*` tables.
//!
//! Each scenario leg runs at least six invariant queries (arrivals and
//! completions cross-checked against the report, span counts against the
//! trace, circuit codes partitioning the supervision rows, journal stats
//! against the live records, pool residency against the engine) and the
//! full result set is pinned against a committed golden, so a drift in
//! any table's schema, row order, or contents shows up as a diff in
//! review. The queries themselves are cycle-billed through a fresh hub —
//! querying the machine is work the machine performs, and that bill is
//! golden-pinned too.
//!
//! Regenerate the golden after an intentional change with:
//!
//! ```text
//! cargo xtask update-goldens
//! ```

mod golden;

use adm_core::scenario::chaos::{self, ChaosParams, ChaosWorld};
use adm_core::scenario::crashrep;
use adm_core::scenario::megacrowd;
use adm_core::scenario::storerep;
use adm_core::scenario::GOLDEN_SEEDS;
use datacomp::{Table, Value};
use obs::{CostModel, Obs, ObsHandle};
use query::expr::Pred;
use std::fmt::Write as _;
use store::CrashPoint;
use systab::{
    filter_count, metrics_table, pool_table, scan_rows, spans_table, sum_int, supervision_table,
    switches_table, timers_table,
};

// Column indexes of the stable sys.* schemas (pinned by unit tests in
// the `systab` and `patia` crates).
const MET_NAME: usize = 1;
const MET_VALUE: usize = 3;
const SPAN_DUR: usize = 2;
const SPAN_KIND: usize = 5;
const SUP_CIRCUIT_CODE: usize = 5;
const SW_KIND: usize = 0;
const SW_NAME: usize = 1;
const SW_VALUE: usize = 4;
const POOL_PAGE: usize = 1;
const POOL_DIRTY: usize = 2;
const TIMER_LIVE: usize = 1;

fn seq(s: &str) -> Pred {
    Pred::eq(SW_NAME, Value::Str(s.to_owned()))
}

/// One scenario leg's query session: a fresh billed hub plus the output
/// lines it accumulates for the golden.
struct Session {
    hub: ObsHandle,
    out: String,
}

impl Session {
    fn new(name: &str) -> Self {
        let mut out = String::new();
        writeln!(out, "scenario: {name}").expect("string writes cannot fail");
        Self { hub: Obs::new(CostModel::pentium()).into_handle(), out }
    }

    fn q(&self) -> Option<ObsHandle> {
        Some(self.hub.clone())
    }

    fn record(&mut self, key: &str, value: i64) {
        writeln!(self.out, "  {key} = {value}").expect("string writes cannot fail");
    }

    /// Close the leg: the billed hub must show the queries cost cycles,
    /// and the bill itself is part of the golden.
    fn finish(self, golden: &mut String) {
        let obs = Obs::try_unwrap(self.hub)
            .unwrap_or_else(|_| unreachable!("query handles are dropped with their plans"));
        let scanned = obs.metrics.counter("systab.scan.rows");
        assert!(scanned > 0, "a query session must scan rows");
        assert!(obs.clock() > 0, "system-table reads are cycle-billed");
        let mut out = self.out;
        writeln!(out, "  scan.rows = {scanned}").expect("string writes cannot fail");
        writeln!(out, "  scan.cycles = {}", obs.clock()).expect("string writes cannot fail");
        golden.push_str(&out);
    }
}

/// The six-plus invariant queries every chaos-shaped world answers:
/// metrics vs report, spans vs trace, supervision partition, journal
/// stats vs live records.
fn query_chaos_world(name: &str, w: &ChaosWorld, golden: &mut String) {
    let mut s = Session::new(name);
    let metrics = metrics_table(&w.obs.metrics.snapshot());
    let spans = spans_table(w.obs.tracer.events());
    let sup = supervision_table(w.server.supervisor());
    let switches = switches_table(w.am.committed(), w.am.rolled_back(), w.am.journal());

    // 1–2: the registry served as a table agrees with the report.
    let arrivals = sum_int(&metrics, MET_VALUE, seq_named("patia.requests.arrived"), s.q());
    let completed = sum_int(&metrics, MET_VALUE, seq_named("patia.requests.completed"), s.q());
    assert_eq!(arrivals, as_i64(w.report.arrivals), "{name}: sys.metrics arrivals");
    assert_eq!(completed, as_i64(w.report.completed), "{name}: sys.metrics completions");

    // 3: the span log served as a table is complete.
    let complete = filter_count(&spans, Pred::eq(SPAN_KIND, str_v("complete")), s.q());
    let instant = filter_count(&spans, Pred::eq(SPAN_KIND, str_v("instant")), s.q());
    assert_eq!(
        complete + instant,
        w.obs.tracer.events().len() as u64,
        "{name}: sys.spans serves every trace event"
    );

    // 4: circuit codes partition the supervision rows.
    let peers = filter_count(&sup, Pred::True, s.q());
    let closed = filter_count(&sup, Pred::eq(SUP_CIRCUIT_CODE, Value::Int(0)), s.q());
    let open = filter_count(&sup, Pred::eq(SUP_CIRCUIT_CODE, Value::Int(1)), s.q());
    let half = filter_count(&sup, Pred::eq(SUP_CIRCUIT_CODE, Value::Int(2)), s.q());
    assert_eq!(closed + open + half, peers, "{name}: circuit codes partition sys.supervision");

    // 5: the journal's commit stat agrees with the report.
    let committed = sum_int(&switches, SW_VALUE, seq("committed"), s.q());
    assert_eq!(committed, as_i64(w.report.reconfigs_committed), "{name}: sys.switches committed");

    // 6: the journal_live stat counts exactly the live record rows.
    let live = sum_int(&switches, SW_VALUE, seq("journal_live"), s.q());
    let records = filter_count(&switches, Pred::eq(SW_KIND, str_v("record")), s.q());
    assert_eq!(live, as_i64(records), "{name}: sys.switches live stat matches its records");

    let metrics_rows = scan_rows(&metrics, s.q()).len();
    let span_cycles = sum_int(&spans, SPAN_DUR, Pred::True, s.q());
    s.record("metrics.rows", as_i64(metrics_rows as u64));
    s.record("metrics.arrivals", arrivals);
    s.record("metrics.completed", completed);
    s.record("spans.complete", as_i64(complete));
    s.record("spans.instant", as_i64(instant));
    s.record("spans.dur_cycles", span_cycles);
    s.record("supervision.peers", as_i64(peers));
    s.record("supervision.open", as_i64(open));
    s.record("switches.committed", committed);
    s.record("switches.journal_live", live);

    // The storage leg additionally queries the buffer pool under the
    // atoms (7–8: frame count and residency against the engine).
    if let Some(engine) = w.server.storage() {
        let pool = pool_table(engine.pool());
        let frames = filter_count(&pool, Pred::True, s.q());
        let resident = filter_count(&pool, Pred::gt(POOL_PAGE, Value::Int(-1)), s.q());
        let dirty = filter_count(&pool, Pred::eq(POOL_DIRTY, Value::Bool(true)), s.q());
        assert_eq!(frames, engine.pool().frame_table().len() as u64, "{name}: sys.pool frames");
        assert_eq!(resident, engine.pool().resident() as u64, "{name}: sys.pool residency");
        assert!(dirty <= resident, "{name}: only resident frames can be dirty");
        s.record("pool.frames", as_i64(frames));
        s.record("pool.resident", as_i64(resident));
        s.record("pool.dirty", as_i64(dirty));
    }
    s.finish(golden);
}

fn seq_named(name: &str) -> Pred {
    Pred::eq(MET_NAME, Value::Str(name.to_owned()))
}

fn str_v(s: &str) -> Value {
    Value::Str(s.to_owned())
}

fn as_i64(v: u64) -> i64 {
    i64::try_from(v).expect("scenario aggregates fit i64")
}

/// The mega-crowd leg: the engine's wheel joins the queryable surface.
fn query_mega_world(name: &str, golden: &mut String) {
    let p = megacrowd::mini_crowd();
    let w = megacrowd::run_with_state(&p);
    assert_eq!(w.report, megacrowd::run(&p), "{name}: keeping the engine must not perturb");
    let mut s = Session::new(name);
    let metrics = metrics_table(&w.obs.metrics.snapshot());
    let spans = spans_table(w.obs.tracer.events());
    let sup = supervision_table(w.engine.server().supervisor());
    let timers = timers_table(w.engine.wheel());

    let arrivals = sum_int(&metrics, MET_VALUE, seq_named("patia.requests.arrived"), s.q());
    let completed = sum_int(&metrics, MET_VALUE, seq_named("patia.requests.completed"), s.q());
    assert_eq!(arrivals, as_i64(w.report.totals.arrivals), "{name}: sys.metrics arrivals");
    assert_eq!(completed, as_i64(w.report.totals.completed), "{name}: sys.metrics completions");

    let complete = filter_count(&spans, Pred::eq(SPAN_KIND, str_v("complete")), s.q());
    let instant = filter_count(&spans, Pred::eq(SPAN_KIND, str_v("instant")), s.q());
    assert_eq!(
        complete + instant,
        w.obs.tracer.events().len() as u64,
        "{name}: sys.spans serves every trace event"
    );

    let peers = filter_count(&sup, Pred::True, s.q());
    let closed = filter_count(&sup, Pred::eq(SUP_CIRCUIT_CODE, Value::Int(0)), s.q());
    let open = filter_count(&sup, Pred::eq(SUP_CIRCUIT_CODE, Value::Int(1)), s.q());
    let half = filter_count(&sup, Pred::eq(SUP_CIRCUIT_CODE, Value::Int(2)), s.q());
    assert_eq!(closed + open + half, peers, "{name}: circuit codes partition sys.supervision");

    let live = sum_int(&timers, TIMER_LIVE, Pred::True, s.q());
    assert_eq!(live, as_i64(w.engine.wheel().len() as u64), "{name}: sys.timers sums to len");

    s.record("metrics.arrivals", arrivals);
    s.record("metrics.completed", completed);
    s.record("spans.complete", as_i64(complete));
    s.record("spans.instant", as_i64(instant));
    s.record("supervision.peers", as_i64(peers));
    s.record("supervision.open", as_i64(open));
    s.record("timers.live", live);
    s.finish(golden);
}

/// The storage crash-replay leg: the recovered engine's pool and the
/// crash/recovery metrics are the queryable surface.
fn query_store_world(name: &str, seed: u64, point: CrashPoint, golden: &mut String) {
    let w = storerep::run_cell_with_state(seed, point);
    assert_eq!(
        w.report,
        storerep::run_cell(seed, point),
        "{name}: keeping the engine must not perturb recovery"
    );
    assert!(w.report.consistent(), "{name}: the cell must settle cleanly");
    let mut s = Session::new(name);
    let metrics = metrics_table(&w.obs.metrics.snapshot());
    let spans = spans_table(w.obs.tracer.events());
    let pool = pool_table(w.engine.pool());

    let replay = sum_int(&metrics, MET_VALUE, seq_named("store.wal.replay_len"), s.q());
    assert_eq!(
        replay,
        as_i64(2 * w.report.replayed as u64),
        "{name}: settling + idempotence replays both bill their scan"
    );
    let crashes = sum_int(&metrics, MET_VALUE, seq_named("store.crash"), s.q());
    assert!(crashes >= 1, "{name}: the planned crash is counted");
    let recoveries = sum_int(&metrics, MET_VALUE, seq_named("store.recovery"), s.q());
    assert!(recoveries >= 2, "{name}: settle + idempotence witness both recover");

    let frames = filter_count(&pool, Pred::True, s.q());
    let resident = filter_count(&pool, Pred::gt(POOL_PAGE, Value::Int(-1)), s.q());
    let dirty = filter_count(&pool, Pred::eq(POOL_DIRTY, Value::Bool(true)), s.q());
    assert_eq!(frames, w.engine.pool().frame_table().len() as u64, "{name}: sys.pool frames");
    assert_eq!(resident, w.engine.pool().resident() as u64, "{name}: sys.pool residency");
    assert!(dirty <= resident, "{name}: only resident frames can be dirty");

    let events = filter_count(&spans, Pred::True, s.q());
    assert_eq!(events, w.obs.tracer.events().len() as u64, "{name}: sys.spans is complete");

    s.record("metrics.replay_len", replay);
    s.record("metrics.crashes", crashes);
    s.record("metrics.recoveries", recoveries);
    s.record("pool.frames", as_i64(frames));
    s.record("pool.resident", as_i64(resident));
    s.record("pool.dirty", as_i64(dirty));
    s.record("spans.events", as_i64(events));
    s.finish(golden);
}

/// Every committed scenario, settled and queried: the full result set is
/// pinned against `tests/goldens/systab.txt`.
#[test]
fn system_tables_answer_invariant_queries_over_every_scenario() {
    let mut golden = String::new();

    let flash = chaos::run_with_state(&chaos::paper_flash_crowd());
    assert_eq!(
        flash.report,
        chaos::run(&chaos::paper_flash_crowd()),
        "flash-crowd: keeping the world alive must not perturb the run"
    );
    query_chaos_world("flash-crowd", &flash, &mut golden);

    for seed in GOLDEN_SEEDS {
        let w = chaos::run_with_state(&chaos::ci_chaos(seed));
        query_chaos_world(&format!("chaos-seed-{seed}"), &w, &mut golden);
    }

    let storage = chaos::run_with_state(&ChaosParams { storage: true, ..chaos::ci_chaos(42) });
    query_chaos_world("chaos-storage-42", &storage, &mut golden);

    for seed in GOLDEN_SEEDS {
        let w = chaos::run_with_state(&crashrep::supervised_storyline(seed));
        query_chaos_world(&format!("crashrep-seed-{seed}"), &w, &mut golden);
    }

    query_mega_world("mega-mini", &mut golden);

    query_store_world("store-cell-17", 17, CrashPoint::BeforeCommit, &mut golden);
    query_store_world("store-cell-42", 42, CrashPoint::MidPlan { after_steps: 2 }, &mut golden);

    golden::check("tests/goldens/systab.txt", &golden);
}

/// Deterministic replay of the query tier itself: the same world queried
/// twice answers identically, including the cycle bill.
#[test]
fn query_sessions_replay_identically() {
    let p = chaos::ci_chaos(17);
    let bill = |w: &ChaosWorld| {
        let hub = Obs::new(CostModel::pentium()).into_handle();
        let metrics = metrics_table(&w.obs.metrics.snapshot());
        let rows = scan_rows(&metrics, Some(hub.clone())).len();
        let obs = Obs::try_unwrap(hub)
            .unwrap_or_else(|_| unreachable!("query handles are dropped with their plans"));
        (rows, obs.clock(), obs.metrics.counter("systab.scan.rows"))
    };
    let (wa, wb) = (chaos::run_with_state(&p), chaos::run_with_state(&p));
    let (ra, rb) = (bill(&wa), bill(&wb));
    assert_eq!(ra, rb, "the same world must answer (and bill) identically");
    assert_eq!(ra.0 as u64, ra.2, "every served row is billed exactly once");
}

/// The table builders tolerate a barely-exercised world: short runs with
/// empty journals and untouched circuits still produce scannable tables.
#[test]
fn every_table_builds_over_a_minimal_world() {
    let w = chaos::run_with_state(&ChaosParams { ticks: 5, ..ChaosParams::default() });
    let tables: Vec<Table> = vec![
        metrics_table(&w.obs.metrics.snapshot()),
        spans_table(w.obs.tracer.events()),
        supervision_table(w.server.supervisor()),
        switches_table(w.am.committed(), w.am.rolled_back(), w.am.journal()),
    ];
    for t in &tables {
        // Scanning an arbitrary table never stalls and never panics.
        let _ = scan_rows(t, None);
    }
}
