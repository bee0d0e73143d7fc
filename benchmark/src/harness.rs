//! The measurement loop every workload runs under.
//!
//! A workload is set up from a seed (inputs generated, the system under
//! test built and loaded, one warm-up round run) and then asked for
//! *rounds*. A round is a fixed amount of work — the same op stream from
//! the same starting state every time — so a later comparison runs
//! identical work on both sides, and exact counts taken from one round do
//! not depend on how many rounds the clock allowed. Rounds repeat until
//! the measurement window is used up; the throughput is the
//! first-quartile round's. Each round times only the calls into the program: outputs are
//! stashed inside the timed section and checked against the oracle after
//! the clock stops.

use crate::catalog::LayerRows;
use crate::json::Json;
use crate::stats::{self, Summary};
use crate::trace::{Folded, Open, Recorder};
use std::collections::BTreeMap;
use std::time::Instant;

/// The span every round's timed section is recorded under. Its self time
/// — what it does not hand down to a layer span — is the benchmark's own
/// glue between calls, reported as `bench.trace.unattributed_pct`.
pub const TIMED_SPAN: &str = "bench.timed";

/// How many times the set-up is repeated at the least in an untraced
/// run; the median is reported as `setup_s`.
pub const SETUP_REPS: usize = 5;

/// Short set-ups are repeated beyond [`SETUP_REPS`] until this share of
/// the measurement window went into setting up (a 60 ms set-up is
/// dominated by first-touch page faults; five samples of it are not a
/// steady median)...
pub const SETUP_SHARE: f64 = 0.25;

/// ...but never more often than this.
pub const MAX_SETUP_REPS: usize = 25;

/// Rounds measured at the very least, however short the window.
pub const MIN_ROUNDS: usize = 5;

/// Full-size or 1/20-size work (`--quick`, for the smoke test).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Whether op counts are divided by 20.
    pub quick: bool,
}

impl Scale {
    /// The full-size run.
    pub const FULL: Scale = Scale { quick: false };
    /// The smoke-test run.
    pub const QUICK: Scale = Scale { quick: true };

    /// `full` at this scale (never below 1).
    #[must_use]
    pub fn n(self, full: usize) -> usize {
        if self.quick {
            (full / 20).max(1)
        } else {
            full
        }
    }
}

/// Failed checks, counted; the first few are kept for the log.
#[derive(Debug, Default)]
pub struct Checks {
    failed: u64,
    notes: Vec<String>,
}

impl Checks {
    /// Count one failed op unless `ok`; `what` describes it.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            if self.notes.len() < 5 {
                self.notes.push(what());
            }
        }
    }

    /// Failed checks so far.
    #[must_use]
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Descriptions of the first few failures.
    #[must_use]
    pub fn notes(&self) -> &[String] {
        &self.notes
    }
}

/// What one round did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundOutcome {
    /// Ops attempted (the op is stated per workload).
    pub ops: u64,
    /// Host seconds spent inside the program (checks excluded).
    pub secs: f64,
}

/// The timed section of a round: one clock pair, and (in a traced run) the
/// [`TIMED_SPAN`] the layer spans nest under.
#[derive(Debug)]
pub struct Timed {
    span: Open,
    started: Instant,
}

impl Timed {
    /// Start the clock.
    pub fn start(rec: &mut Recorder) -> Self {
        let span = rec.begin(TIMED_SPAN);
        Self { span, started: Instant::now() }
    }

    /// Stop the clock; returns the seconds since [`Timed::start`].
    pub fn stop(self, rec: &mut Recorder) -> f64 {
        let secs = self.started.elapsed().as_secs_f64();
        rec.end(self.span);
        secs
    }
}

/// A workload, set up and ready to run rounds.
pub trait Workload {
    /// One round. Calls into layers are wrapped in spans on `rec`; failed
    /// checks are counted on `checks`.
    fn round(&mut self, rec: &mut Recorder, checks: &mut Checks) -> RoundOutcome;

    /// Fill the per-layer rows this workload crosses: span-derived rows
    /// from `folded` (the traced rounds' spans, `rounds` of them) and
    /// driver rows by exercising inner layers directly on inputs of this
    /// workload's shape.
    fn layer_rows(
        &mut self,
        folded: &BTreeMap<&'static str, Folded>,
        rounds: u32,
        rows: &mut LayerRows,
    );
}

/// The result of one invocation, as the last stdout line reports it.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Whether every check passed.
    pub correct: bool,
    /// Ops attempted.
    pub attempted: u64,
    /// Failed checks.
    pub failed: u64,
    /// `(name, value, unit)` in catalogue order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl RunResult {
    /// The contract's result object.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|&(name, value, unit)| {
                    (name, Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]))
                })),
            ),
        ])
    }
}

/// Peak resident set of this process in MiB (`VmHWM`); 0 where
/// `/proc/self/status` is not available.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| l.strip_prefix("VmHWM:")).and_then(|rest| {
                rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok().map(|kb| kb / 1024.0)
            })
        })
        .unwrap_or(0.0)
}

/// Spans a recorder may hold before it stops taking rounds (keeps memory
/// and the fold bounded on tiny ops).
const MAX_SPANS: usize = 3_000_000;

/// Run rounds until `seconds` have passed or the recorder is full, and
/// `min_rounds` at the least.
fn measure(
    w: &mut dyn Workload,
    rec: &mut Recorder,
    checks: &mut Checks,
    seconds: f64,
    min_rounds: usize,
) -> Vec<RoundOutcome> {
    let window = Instant::now();
    let mut rounds = Vec::new();
    while rounds.len() < min_rounds
        || (window.elapsed().as_secs_f64() < seconds && rec.spans().len() < MAX_SPANS)
    {
        rec.set_round(rounds.len() as u32);
        rounds.push(w.round(rec, checks));
    }
    rounds
}

/// The throughput of a run: ops per second of its first-quartile round
/// (the round a quarter of the rounds were faster than).
///
/// Interference on a shared box only ever slows a round down, so the
/// lower quartile of the round times is a steadier estimate of the
/// program's own speed than their median: over eight 10-second runs of
/// `store_thrash` on a noisy afternoon the median round ranged over 21%,
/// the first-quartile round over 12%. The median and the tail are printed
/// beside it.
fn throughput(rounds: &[RoundOutcome]) -> f64 {
    let per_round: Vec<f64> = rounds.iter().map(|r| r.ops as f64 / r.secs).collect();
    // The first quartile of the times is the third of the rates.
    stats::percentile(&per_round, 75.0)
}

fn log_checks(checks: &Checks) {
    for note in checks.notes() {
        println!("FAILED CHECK: {note}");
    }
}

/// The untraced run: set up [`SETUP_REPS`] times or more, measure for
/// `seconds`, report every end-to-end metric.
pub fn run_untraced(
    name: &str,
    setup: &dyn Fn() -> Box<dyn Workload>,
    seconds: f64,
    op: &str,
) -> RunResult {
    let mut rec = Recorder::disabled();
    let mut checks = Checks::default();
    let mut attempted = 0u64;
    let mut setups = Vec::with_capacity(MAX_SETUP_REPS);
    let mut workload: Option<Box<dyn Workload>> = None;
    while setups.len() < SETUP_REPS
        || (setups.iter().sum::<f64>() < seconds * SETUP_SHARE && setups.len() < MAX_SETUP_REPS)
    {
        // Drop the previous instance first: the peak is one workload's.
        drop(workload.take());
        let t = Instant::now();
        let mut w = setup();
        attempted += w.round(&mut rec, &mut checks).ops;
        setups.push(t.elapsed().as_secs_f64());
        workload = Some(w);
    }
    let mut w = workload.expect("SETUP_REPS is at least one");
    let rounds = measure(w.as_mut(), &mut rec, &mut checks, seconds, MIN_ROUNDS);
    attempted += rounds.iter().map(|r| r.ops).sum::<u64>();

    let per_round_ms: Vec<f64> = rounds.iter().map(|r| r.secs * 1e3).collect();
    let throughput = throughput(&rounds);
    let setup_s = stats::median(&setups);
    let rss = peak_rss_mb();
    let round = Summary::of(&per_round_ms).expect("at least MIN_ROUNDS rounds ran");
    println!("workload {name}: op = {op}; {} ops per round", rounds[0].ops);
    println!("  round_ms          {}", round.render("ms"));

    println!("  setup_s           {}", Summary::of(&setups).expect("non-empty").render("s"));
    println!("  throughput_ops_s  {throughput:.1} ops/s (from the first-quartile round)");
    println!("  peak_rss_mb       {rss:.2} MiB");
    println!("  failed_ops_share  {} / {attempted}", checks.failed());
    log_checks(&checks);
    RunResult {
        correct: checks.failed() == 0,
        attempted,
        failed: checks.failed(),
        metrics: vec![
            ("setup_s", setup_s, "s"),
            ("throughput_ops_s", throughput, "ops/s"),
            ("peak_rss_mb", rss, "MiB"),
        ],
    }
}

/// The traced run: set up once, measure a third of `seconds` untraced
/// (the overhead baseline), a third with the span recorder on, then hand
/// the folded spans to the workload's layer drivers. Reports every
/// per-layer metric; rows of layers the workload does not cross read 0.
pub fn run_traced(
    name: &str,
    setup: &dyn Fn() -> Box<dyn Workload>,
    seconds: f64,
    trace_path: &std::path::Path,
) -> RunResult {
    let mut checks = Checks::default();
    let mut off = Recorder::disabled();
    let mut w = setup();
    let mut attempted = w.round(&mut off, &mut checks).ops;

    let plain = measure(w.as_mut(), &mut off, &mut checks, seconds / 3.0, 3);
    let mut rec = Recorder::enabled();
    let traced = measure(w.as_mut(), &mut rec, &mut checks, seconds / 3.0, 3);
    attempted += plain.iter().chain(&traced).map(|r| r.ops).sum::<u64>();

    let folded = rec.fold();
    let mut rows = LayerRows::new();
    w.layer_rows(&folded, traced.len() as u32, &mut rows);

    rows.set("bench.trace.overhead_pct", (1.0 - throughput(&traced) / throughput(&plain)) * 100.0);
    rows.set("bench.trace.spans", (rec.spans().len() / traced.len()) as f64);
    if let Some(timed) = folded.get(TIMED_SPAN) {
        rows.set(
            "bench.trace.unattributed_pct",
            timed.self_ns as f64 / timed.total_ns as f64 * 100.0,
        );
    }

    println!("workload {name} (traced): {} traced rounds", traced.len());
    println!("  {:<44} {:>10} {:>14} {:>14}", "span", "calls", "median_ns", "self_ms");
    for (span, f) in &folded {
        println!(
            "  {span:<44} {:>10} {:>14.0} {:>14.3}",
            f.calls,
            stats::median(&f.durs_ns),
            f.self_ns as f64 / 1e6
        );
    }
    let written = trace_path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(trace_path, rec.chrome_trace(name, 0)));
    match written {
        Ok(()) => println!("  chrome trace (first traced round): {}", trace_path.display()),
        Err(e) => println!("  chrome trace not written to {}: {e}", trace_path.display()),
    }
    let metrics = rows.into_metrics();
    for (metric, value, unit) in metrics.iter().filter(|m| m.1 != 0.0) {
        println!("  {metric:<44} {value:>16.4} {unit}");
    }
    log_checks(&checks);
    RunResult { correct: checks.failed() == 0, attempted, failed: checks.failed(), metrics }
}

/// Time `iters` calls of `f` in `batches` equal batches and return the
/// median nanoseconds per call — how the layer drivers time functions
/// too small for one clock pair each.
pub fn ns_per_call(batches: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    let mut per_call = Vec::with_capacity(batches);
    for _ in 0..batches {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        per_call.push(t.elapsed().as_nanos() as f64 / iters as f64);
    }
    stats::median(&per_call)
}

/// Median duration in ns of the spans named `name`; 0 when there are none.
#[must_use]
pub fn span_median_ns(folded: &BTreeMap<&'static str, Folded>, name: &str) -> f64 {
    folded.get(name).map_or(0.0, |f| stats::median(&f.durs_ns))
}

/// Total ns of the spans named `name` divided by `units` (rows, events,
/// records) — 0 when either is missing.
#[must_use]
pub fn span_ns_per(folded: &BTreeMap<&'static str, Folded>, name: &str, units: u64) -> f64 {
    match folded.get(name) {
        Some(f) if units > 0 => f.total_ns as f64 / units as f64,
        _ => 0.0,
    }
}
