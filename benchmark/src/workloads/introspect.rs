//! `introspect`: the paper's monitors → gauges → rules loop as DBOS would
//! have it — telemetry written, reported and then served back as tables,
//! all on one hub. *Emit* replays an emission stream shaped like an armed
//! serving run into a fresh hub; *report* folds it into a profile, digests
//! and a Chrome trace; *query* builds the seven `sys.*` tables and scans
//! them. A cheaper or bounded tracer must not pay for itself in the
//! report or the tables, which is why the three phases share a round.

use crate::catalog::LayerRows;
use crate::harness::{span_median_ns, span_ns_per, Checks, RoundOutcome, Scale, Timed, Workload};
use crate::layers;
use crate::trace::{Folded, Recorder};
use adm_core::scenario::chaos::{self, ChaosParams, ChaosWorld};
use adm_core::scenario::megacrowd::{self, MegaWorld};
use adm_core::scenario::txnrep::seeded_world;
use adm_rng::Pcg32;
use compkit::NoFaults;
use datacomp::{Table, Value};
use obs::{CostModel, EventKind, Obs, Primitive, Profile};
use patia::rules::{blocked_peers, RuleStats};
use patia::workload::FlowSpec;
use query::expr::Pred;
use std::collections::{BTreeMap, BTreeSet};
use systab::{
    filter_count, metrics_table, pool_table, scan_rows, spans_table, sum_int, supervision_table,
    switches_table, timers_table, txns_table,
};
use txn::{PlannedTxnCrash, TransactionCore, TxnCrashPoint};

/// The storyline the event shapes are harvested from: the CI chaos plan
/// of a golden seed, always the same one. The shapes and their per-tick
/// frequencies are the program's; `--seed` drives how they are expanded
/// (names, values, order), not how many events a round holds.
const HARVEST_SEED: u64 = 42;

/// Synthetic ticks per round (each a `tick:{n}` span with its children).
const TICKS: usize = 12_000;
/// Emit calls per emit span in the traced run.
const EMIT_BATCH: usize = 1_024;

/// One call into the hub's public API.
#[derive(Debug, Clone, PartialEq)]
pub enum Emit {
    /// `begin(cat, name)`.
    Begin(&'static str, String),
    /// `end_with(innermost open span, args)`.
    End(Vec<(&'static str, String)>),
    /// `instant(cat, name, args)`.
    Instant(&'static str, String, Vec<(&'static str, String)>),
    /// `charge_n(primitive, n)`.
    Charge(Primitive, u64),
    /// `metrics.counter_add(name, delta)`.
    Counter(String, u64),
    /// `metrics.gauge_set(name, value)`.
    Gauge(String, f64),
    /// `metrics.observe_n(name, value, n)`.
    Observe(String, u64, u64),
}

/// An event shape harvested from a real armed run: category, the name up
/// to its `:` suffix, the argument keys, and how often it occurred per
/// tick.
#[derive(Debug, Clone, PartialEq)]
struct Template {
    cat: &'static str,
    stem: String,
    suffixed: bool,
    keys: Vec<&'static str>,
    per_tick: f64,
    span: bool,
}

/// What the real hub looked like.
#[derive(Debug, Clone, PartialEq)]
struct Harvest {
    /// Span and instant shapes other than the per-tick span itself.
    templates: Vec<Template>,
    /// Argument keys of the per-tick span.
    tick_keys: Vec<&'static str>,
    counters: Vec<String>,
    gauges: Vec<String>,
    histograms: Vec<String>,
}

fn harvest(hub: &Obs, ticks: u64) -> Harvest {
    /// `(category, name stem, is a span)`.
    type Shape = (&'static str, String, bool);
    /// `(argument keys, name has a suffix, occurrences)`.
    type Seen = (Vec<&'static str>, bool, u64);
    let mut shapes: BTreeMap<Shape, Seen> = BTreeMap::new();
    let mut tick_keys = Vec::new();
    for e in hub.tracer.events() {
        let (stem, suffixed) = match e.name.split_once(':') {
            Some((stem, _)) => (stem.to_owned(), true),
            None => (e.name.clone(), false),
        };
        let span = e.kind == EventKind::Complete;
        let keys: Vec<&'static str> = e.args.iter().map(|(k, _)| *k).collect();
        if span && e.cat == "patia" && stem == "tick" {
            tick_keys = keys;
            continue;
        }
        let shape = shapes.entry((e.cat, stem, span)).or_insert((keys, suffixed, 0));
        shape.2 += 1;
    }
    let snap = hub.metrics.snapshot();
    Harvest {
        templates: shapes
            .into_iter()
            .map(|((cat, stem, span), (keys, suffixed, n))| Template {
                cat,
                stem,
                suffixed,
                keys,
                per_tick: n as f64 / ticks as f64,
                span,
            })
            .collect(),
        tick_keys,
        counters: snap.counters.iter().map(|(name, _)| name.clone()).collect(),
        gauges: snap.gauges.iter().map(|(name, _)| name.clone()).collect(),
        histograms: snap.histograms.iter().map(|(name, _)| name.clone()).collect(),
    }
}

fn args_for(keys: &[&'static str], rng: &mut Pcg32) -> Vec<(&'static str, String)> {
    keys.iter().map(|&k| (k, rng.below(1_000).to_string())).collect()
}

/// Expand the harvested shapes into an emission script of `ticks`
/// synthetic ticks: each a `tick:{n}` span holding charges, the per-tick
/// metric updates, and children drawn at their harvested frequency.
fn script(h: &Harvest, ticks: usize, rng: &mut Pcg32) -> Vec<Emit> {
    const PRIMS: [Primitive; 4] =
        [Primitive::Alu, Primitive::Load, Primitive::Store, Primitive::Branch];
    let mut out = Vec::with_capacity(ticks * 20);
    for n in 1..=ticks {
        out.push(Emit::Begin("patia", format!("tick:{n}")));
        for p in PRIMS {
            out.push(Emit::Charge(p, 1 + rng.below(40)));
        }
        for t in &h.templates {
            let count = t.per_tick.floor() as u64 + u64::from(rng.chance(t.per_tick.fract()));
            for _ in 0..count {
                let name = if t.suffixed {
                    format!("{}:{}", t.stem, rng.below(64))
                } else {
                    t.stem.clone()
                };
                if t.span {
                    out.push(Emit::Begin(t.cat, name));
                    out.push(Emit::Charge(Primitive::Branch, 1 + rng.below(8)));
                    out.push(Emit::End(args_for(&t.keys, rng)));
                } else {
                    out.push(Emit::Instant(t.cat, name, args_for(&t.keys, rng)));
                }
            }
        }
        for c in &h.counters {
            // Request counters move every tick; the rest on incidents.
            if c.contains(".requests.") || rng.chance(0.05) {
                out.push(Emit::Counter(c.clone(), 1 + rng.below(50)));
            }
        }
        for g in &h.gauges {
            out.push(Emit::Gauge(g.clone(), rng.f64()));
        }
        for hist in &h.histograms {
            for _ in 0..1 + rng.below(3) {
                out.push(Emit::Observe(hist.clone(), rng.below(120), 1 + rng.below(30)));
            }
        }
        out.push(Emit::End(args_for(&h.tick_keys, rng)));
    }
    out
}

/// Make one call into `hub`; `open` is the stack of open spans.
pub fn emit(hub: &mut Obs, open: &mut Vec<obs::SpanId>, call: &Emit) {
    match call {
        Emit::Begin(cat, name) => open.push(hub.begin(cat, name.as_str())),
        Emit::End(args) => {
            if let Some(span) = open.pop() {
                hub.end_with(span, args.clone());
            }
        }
        Emit::Instant(cat, name, args) => hub.instant(cat, name.as_str(), args.clone()),
        Emit::Charge(p, n) => {
            hub.charge_n(*p, *n);
        }
        Emit::Counter(name, delta) => hub.metrics.counter_add(name, *delta),
        Emit::Gauge(name, value) => hub.metrics.gauge_set(name, *value),
        Emit::Observe(name, value, n) => hub.metrics.observe_n(name, *value, *n),
    }
}

/// The settled machines whose state the non-hub tables serve.
struct World {
    /// Supervisor, buffer pool (the atoms sit on a store) and journal.
    chaos: ChaosWorld,
    /// An event engine with flows still to come: a populated timer wheel.
    mega: MegaWorld,
    /// A transaction core with a crashed, unrecovered SWITCH in its log.
    core: TransactionCore,
}

fn build_world(seed: u64) -> World {
    let chaos = chaos::run_with_state(&ChaosParams {
        workload_seed: seed,
        storage: true,
        ..chaos::ci_chaos(seed)
    });
    let mut boot = megacrowd::mini_crowd();
    boot.flows.truncate(1);
    boot.flows[0].end = boot.flows[0].start + 30;
    boot.kill_at = None;
    boot.revive_at = None;
    let mut mega = megacrowd::run_with_state(&boot);
    let now = mega.engine.server().now();
    for i in 0..48u64 {
        mega.engine.add_flow(FlowSpec {
            start: now + 1 + i * i * 7,
            end: now + 2 + i * i * 7,
            ..boot.flows[0]
        });
        mega.engine.schedule_wake(now + 3 + i * 97);
    }
    let (mut shards, plans) = seeded_world(seed, 3);
    let mut core = TransactionCore::new();
    let crashed = core.execute_cross_shard(
        &mut shards,
        &plans,
        50,
        &mut NoFaults,
        &mut PlannedTxnCrash::new(TxnCrashPoint::BeforeDecision),
    );
    debug_assert!(crashed.is_err());
    World { chaos, mega, core }
}

/// Names of the seven tables, in build order, with their span names.
const TABLES: [&str; 7] = [
    "systab.tables.metrics",
    "systab.tables.spans",
    "systab.tables.supervision",
    "systab.tables.switches",
    "systab.tables.pool",
    "systab.tables.timers",
    "systab.tables.txns",
];

/// `introspect`.
pub struct Introspect {
    calls: Vec<Emit>,
    world: World,
    /// `(trace digest, metrics digest, events)` of the first round; every
    /// later round replays the same script and must land the same.
    first_digests: Option<(u64, u64, usize)>,
    /// Rows per table and rows served by the scans, last round.
    table_rows: [u64; 7],
    rows_served: u64,
    events: u64,
}

impl Introspect {
    /// Harvest shapes from a real armed run, expand them into the emission
    /// script from `seed`, and settle the machines the non-hub tables
    /// read.
    #[must_use]
    pub fn setup(seed: u64, scale: Scale) -> Self {
        let calls = generate_script(seed, scale);
        Self {
            calls,
            world: build_world(seed),
            first_digests: None,
            table_rows: [0; 7],
            rows_served: 0,
            events: 0,
        }
    }

    fn build_tables(&self, hub: &Obs, rec: &mut Recorder) -> Vec<Table> {
        let w = &self.world;
        let am = &w.chaos.am;
        let builders: [&dyn Fn() -> Table; 7] = [
            &|| metrics_table(&hub.metrics.snapshot()),
            &|| spans_table(hub.tracer.events()),
            &|| supervision_table(w.chaos.server.supervisor()),
            &|| switches_table(am.committed(), am.rolled_back(), am.journal()),
            &|| pool_table(w.chaos.server.storage().expect("the atoms sit on a store").pool()),
            &|| timers_table(w.mega.engine.wheel()),
            &|| txns_table(&w.core, Some(am)),
        ];
        TABLES
            .iter()
            .zip(builders)
            .map(|(name, build)| {
                let span = rec.begin(name);
                let table = build();
                rec.end(span);
                table
            })
            .collect()
    }
}

impl Workload for Introspect {
    fn round(&mut self, rec: &mut Recorder, checks: &mut Checks) -> RoundOutcome {
        let timed = Timed::start(rec);

        // Emit.
        let phase = rec.begin("obs.emit");
        let mut hub = Obs::new(CostModel::pentium());
        let mut open = Vec::new();
        for batch in self.calls.chunks(EMIT_BATCH) {
            let span = rec.begin("obs.emit.batch");
            for call in batch {
                emit(&mut hub, &mut open, call);
            }
            rec.end(span);
        }
        rec.end(phase);

        // Report.
        let phase = rec.begin("obs.report");
        let span = rec.begin("obs.profile.build");
        let profile = Profile::build(hub.tracer.events(), hub.clock());
        let folded = profile.folded();
        rec.end(span);
        let span = rec.begin("obs.digests");
        let digests = hub.digests();
        rec.end(span);
        let span = rec.begin("obs.chrome.export");
        let exported = obs::chrome::export(&hub.tracer, "introspect");
        rec.end(span);
        rec.end(phase);

        // Query.
        let phase = rec.begin("systab.query");
        let tables = self.build_tables(&hub, rec);
        let span = rec.begin("systab.scan.scan_rows");
        let scanned: Vec<usize> = tables.iter().map(|t| scan_rows(t, None).len()).collect();
        rec.end(span);
        let span = rec.begin("systab.scan.filter_count");
        let all_events = filter_count(&tables[1], Pred::True, None);
        let complete =
            filter_count(&tables[1], Pred::eq(5, Value::Str("complete".to_owned())), None);
        rec.end(span);
        let span = rec.begin("systab.scan.sum_int");
        let counters = sum_int(&tables[0], 3, Pred::eq(0, Value::Str("counter".to_owned())), None);
        rec.end(span);
        let span = rec.begin("patia.rules.blocked_peers");
        let mut rule_stats = RuleStats::default();
        let blocked: BTreeSet<String> =
            blocked_peers(self.world.chaos.server.supervisor(), &mut rule_stats);
        rec.end(span);
        rec.end(phase);
        let secs = timed.stop(rec);

        let events = hub.tracer.events().len();
        checks.expect(open.is_empty() && hub.tracer.open_spans() == 0, || {
            format!("{} spans left open by the script", hub.tracer.open_spans())
        });
        checks.expect(profile.self_total() == hub.clock(), || {
            format!("the profile covers {} of {} cycles", profile.self_total(), hub.clock())
        });
        checks.expect(!folded.is_empty() && exported.len() > events, || {
            "the folded stacks or the Chrome export came out empty".to_owned()
        });
        let first = *self.first_digests.get_or_insert(digests);
        checks.expect(digests == first && digests.2 == events, || {
            format!("digests moved between rounds: {digests:x?} vs {first:x?}")
        });
        checks.expect(all_events == events as u64 && scanned[1] == events, || {
            format!("sys.spans served {all_events} / {} of {events} events", scanned[1])
        });
        let spans = hub.tracer.events().iter().filter(|e| e.kind == EventKind::Complete).count();
        checks.expect(complete == spans as u64, || {
            format!("sys.spans counts {complete} complete spans, the log holds {spans}")
        });
        let want: u64 = hub.metrics.snapshot().counters.iter().map(|(_, v)| *v).sum();
        checks.expect(counters == want as i64, || {
            format!("sys.metrics sums counters to {counters}, the registry to {want}")
        });
        let open_circuits = self.world.chaos.server.supervisor().peers();
        checks.expect(blocked.len() <= open_circuits.len(), || {
            format!("{} peers blocked out of {}", blocked.len(), open_circuits.len())
        });
        for (rows, table) in self.table_rows.iter_mut().zip(&tables) {
            *rows = table.len() as u64;
        }
        // Every table scanned once, sys.spans twice more, sys.metrics once.
        self.rows_served = scanned.iter().sum::<usize>() as u64
            + 2 * tables[1].len() as u64
            + tables[0].len() as u64;
        self.events = events as u64;
        RoundOutcome { ops: self.calls.len() as u64, secs }
    }

    fn layer_rows(
        &mut self,
        folded: &BTreeMap<&'static str, Folded>,
        rounds: u32,
        rows: &mut LayerRows,
    ) {
        let rounds = u64::from(rounds);
        let events = self.events * rounds;
        rows.set(
            "obs.emit_ns_per_event",
            span_ns_per(folded, "obs.emit", self.calls.len() as u64 * rounds),
        );
        rows.set("obs.report_ms", span_median_ns(folded, "obs.report") / 1e6);
        rows.set(
            "obs.profile.build_ns_per_event",
            span_ns_per(folded, "obs.profile.build", events),
        );
        rows.set("obs.digest_ns_per_event", span_ns_per(folded, "obs.digests", events));
        rows.set(
            "obs.chrome.export_ns_per_event",
            span_ns_per(folded, "obs.chrome.export", events),
        );
        rows.set(
            "systab.query_ns_per_row",
            span_ns_per(folded, "systab.query", self.rows_served * rounds),
        );
        for (name, table_rows) in TABLES.iter().zip(self.table_rows) {
            rows.set(&format!("{name}_ns_per_row"), span_ns_per(folded, name, table_rows * rounds));
        }
        let all: u64 = self.table_rows.iter().sum();
        let (metrics, spans) = (self.table_rows[0], self.table_rows[1]);
        rows.set(
            "systab.scan.scan_rows_ns_per_row",
            span_ns_per(folded, "systab.scan.scan_rows", all * rounds),
        );
        rows.set(
            "systab.scan.filter_count_ns_per_row",
            span_ns_per(folded, "systab.scan.filter_count", 2 * spans * rounds),
        );
        rows.set(
            "systab.scan.sum_int_ns_per_row",
            span_ns_per(folded, "systab.scan.sum_int", metrics * rounds),
        );
        rows.set("systab.rows_served", self.rows_served as f64);
        layers::obs::drive(&self.calls, rows);
    }
}

/// Harvest the golden storyline's shapes and expand them from `seed`.
fn generate_script(seed: u64, scale: Scale) -> Vec<Emit> {
    let params = chaos::ci_chaos(HARVEST_SEED);
    let (_, hub) = chaos::run_observed(&params);
    script(&harvest(&hub, params.ticks), scale.n(TICKS), &mut Pcg32::new(seed))
}

/// Fingerprint of the emission script `seed` generates.
#[must_use]
pub fn input_digest(seed: u64, scale: Scale) -> u64 {
    obs::fnv1a(format!("{:?}", generate_script(seed, scale)).as_bytes())
}
