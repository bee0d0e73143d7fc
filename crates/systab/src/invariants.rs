//! Trace invariants as query plans: the temporal checks the paper's
//! Adaptation Framework implies, run by the [`query`] operators.
//!
//! A [`Selection`] is a table of chosen [`TraceEvent`]s with the columns
//! `seq` (log index), `ts`, `end = ts + dur` and `dur`, plus a nullable
//! `Str` column per arg the caller asks for. A check joins two selections
//! — a [`NestedLoopJoin`] with no keys, or a [`HashJoin`] on arg columns
//! — filters the pairs with [`Pred::ColCmp`], and reports the first outer
//! row left without a match. Containment is inclusive: `[ts, end]` lies
//! within `[c.ts, c.end]`, and every row of a cover counts as a span, so
//! callers select spans for it. A [`Violation`] names its check and
//! quotes the offending events in the tracer's line format. Every
//! invariant a test asserts is thus a query one can run against a live
//! run's trace.

use crate::tables::{int, table};
use datacomp::{ColumnType, Row, Table, Value};
use obs::{Cycles, TraceEvent};
use query::basic::{Filter, HashJoin, NestedLoopJoin};
use query::expr::CmpOp::{self, Le, Lt};
use query::expr::Pred;
use query::op::drain;
use query::source::TableScan;
use query::{Operator, WorkCounter};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

const SEQ: usize = 0;
const TS: usize = 1;
const END: usize = 2;
const DUR: usize = 3;

/// A failed invariant: which check, and the event(s) that broke it.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// The check that failed.
    pub check: &'static str,
    /// What broke, quoting the offending event(s) as trace lines.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.check, self.detail)
    }
}

impl std::error::Error for Violation {}

/// The events of one log that a check reads, as a table.
#[derive(Debug, Clone)]
pub struct Selection<'a> {
    log: &'a [TraceEvent],
    table: Table,
}

impl<'a> Selection<'a> {
    /// The events of `log` satisfying `keep`, in log order, with a column
    /// per arg named in `args` (`Null` where an event lacks it).
    ///
    /// # Panics
    /// If `args` repeats a name or uses `seq`, `ts`, `end` or `dur`.
    #[must_use]
    pub fn new(log: &'a [TraceEvent], keep: impl Fn(&TraceEvent) -> bool, args: &[&str]) -> Self {
        let mut cols: Vec<_> = ["seq", "ts", "end", "dur"].map(|c| (c, ColumnType::Int)).into();
        cols.extend(args.iter().map(|a| (*a, ColumnType::Str)));
        let rows = log.iter().enumerate().filter(|(_, e)| keep(e)).map(|(seq, e)| {
            let mut row = vec![int(seq as u64), int(e.ts), int(e.ts + e.dur), int(e.dur)];
            row.extend(args.iter().map(|a| e.arg(a).map_or(Value::Null, Value::str)));
            Row::from(row)
        });
        Self { log, table: table(&cols, rows) }
    }

    /// Number of selected events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// True when nothing is selected.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// **within**: every event's `[ts, end]` lies inside a `cover` span.
    ///
    /// # Errors
    /// The first uncovered event.
    pub fn each_within(&self, cover: &Selection<'_>) -> Result<(), Violation> {
        let hits = join(&self.table, &cover.table, &[], within(0, self.arity()));
        self.each_hit("each_within", "event not inside any cover span", &hits)
    }

    /// **precedes ∧ within**: every marker has a `witnesses` event with
    /// `ts` at or before its own, inside the marker's innermost `cover`
    /// span (the first in log order among equally short ones), whose
    /// columns equal the marker's on `on` (`(marker, witness)` names).
    ///
    /// # Errors
    /// The first marker without a scope or a witness.
    pub fn each_preceded_within(
        &self,
        witnesses: &Selection<'_>,
        cover: &Selection<'_>,
        on: &[(&str, &str)],
    ) -> Result<(), Violation> {
        let m = self.arity();
        // Per marker, cover rows arrive in log order: `<` keeps the first.
        let mut scopes: BTreeMap<Value, Row> = BTreeMap::new();
        for row in join(&self.table, &cover.table, &[], within(0, m)) {
            if scopes.get(&row[SEQ]).is_none_or(|s| row[m + DUR] < s[m + DUR]) {
                scopes.insert(row[SEQ].clone(), row);
            }
        }
        let mut scoped = Table::new(self.table.schema().join(cover.table.schema()));
        for row in scopes.values() {
            scoped.insert(row.clone()).expect("scoped rows match the joined schema");
        }
        let w = m + cover.arity();
        let pred = and(within(w, m), cmp(w + TS, Le, TS));
        let hits = join(&scoped, &witnesses.table, &self.keys(witnesses, on), pred);
        let justified: BTreeSet<&Value> = hits.iter().map(|r| &r[SEQ]).collect();
        for row in self.table.rows() {
            let marker = self.event(row);
            let detail = match scopes.get(&row[SEQ]) {
                None => format!("marker outside every cover span: {marker}"),
                Some(_) if justified.contains(&row[SEQ]) => continue,
                Some(s) => format!(
                    "no related witness precedes marker inside its scope\n  marker: {marker}\n  \
                     scope:  {}",
                    cover.event(&s[m..])
                ),
            };
            return Err(Violation { check: "each_preceded_within", detail });
        }
        Ok(())
    }

    /// **precedes**: every event has a `witnesses` event that is earlier,
    /// or simultaneous and earlier in the log, whose columns equal the
    /// event's on `on` (`(event, witness)` names).
    ///
    /// # Errors
    /// The first event with no related predecessor.
    pub fn each_preceded_by(
        &self,
        witnesses: &Selection<'_>,
        on: &[(&str, &str)],
    ) -> Result<(), Violation> {
        let w = self.arity();
        let tie = and(cmp(w + TS, CmpOp::Eq, TS), cmp(w + SEQ, Lt, SEQ));
        let earlier = Pred::Or(Box::new(cmp(w + TS, Lt, TS)), Box::new(tie));
        let hits = join(&self.table, &witnesses.table, &self.keys(witnesses, on), earlier);
        self.each_hit("each_preceded_by", "no related predecessor for", &hits)
    }

    /// **encloses**: every span contains an `inner` event whose columns
    /// equal the span's on `on` (`(span, inner)` names).
    ///
    /// # Errors
    /// The first span with no related inner event.
    pub fn each_encloses(
        &self,
        inner: &Selection<'_>,
        on: &[(&str, &str)],
    ) -> Result<(), Violation> {
        let pred = within(self.arity(), 0);
        let hits = join(&self.table, &inner.table, &self.keys(inner, on), pred);
        self.each_hit("each_encloses", "span encloses no matching inner event", &hits)
    }

    /// **disjoint**: no two spans overlap; `[0,10)` and `[10,20)` touch.
    ///
    /// # Errors
    /// The first overlapping pair.
    pub fn pairwise_disjoint(&self) -> Result<(), Violation> {
        let n = self.arity();
        let overlap = and(cmp(SEQ, Lt, n + SEQ), and(cmp(n + TS, Lt, END), cmp(TS, Lt, n + END)));
        let pairs = join(&self.table, &self.table, &[], overlap);
        let Some(pair) = pairs.first() else { return Ok(()) };
        let (first, second) = (self.event(pair), self.event(&pair[n..]));
        let detail = format!("spans overlap\n  first:  {first}\n  second: {second}");
        Err(Violation { check: "pairwise_disjoint", detail })
    }

    /// Every span's duration equals the integer in its own arg column
    /// `key`: the trace agrees with the measurement it annotates.
    ///
    /// # Errors
    /// The first span whose arg is missing, not numeric, or not its `dur`.
    pub fn dur_equals_arg(&self, key: &str) -> Result<(), Violation> {
        let col = self.col(key);
        for row in self.table.rows() {
            let e = self.event(row);
            let detail = match &row[col] {
                Value::Str(v) if v.parse::<Cycles>() == Ok(e.dur) => continue,
                Value::Str(_) => format!("dur != {key}: {e}"),
                _ => format!("span lacks arg '{key}': {e}"),
            };
            return Err(Violation { check: "dur_equals_arg", detail });
        }
        Ok(())
    }

    fn arity(&self) -> usize {
        self.table.schema().arity()
    }

    fn col(&self, name: &str) -> usize {
        let mut cols = self.table.schema().columns().iter();
        cols.position(|c| c.name == name)
            .unwrap_or_else(|| panic!("the selection has no column '{name}'"))
    }

    /// `(own, other)` column names resolved to join keys.
    fn keys(&self, other: &Selection<'_>, on: &[(&str, &str)]) -> Vec<(usize, usize)> {
        on.iter().map(|(a, b)| (self.col(a), other.col(b))).collect()
    }

    /// The logged event a row (or a joined row's tail) stands for.
    fn event(&self, row: &[Value]) -> &'a TraceEvent {
        &self.log[row[SEQ].as_i64().expect("seq is an Int column") as usize]
    }

    /// Ok when every selected event leads some joined row of `hits`.
    fn each_hit(&self, check: &'static str, what: &str, hits: &[Row]) -> Result<(), Violation> {
        let hit: BTreeSet<&Value> = hits.iter().map(|r| &r[SEQ]).collect();
        match self.table.rows().iter().find(|r| !hit.contains(&r[SEQ])) {
            Some(r) => Err(Violation { check, detail: format!("{what}: {}", self.event(r)) }),
            None => Ok(()),
        }
    }
}

/// `outer ⋈ inner` on equal `keys` (`(outer, inner)` columns), filtered
/// by `pred` over the joined row, whose outer columns come first.
fn join(outer: &Table, inner: &Table, keys: &[(usize, usize)], pred: Pred) -> Vec<Row> {
    let w = WorkCounter::new();
    let scan = |t: &Table| -> Box<dyn Operator> { Box::new(TableScan::new(t.clone(), w.clone())) };
    let (ok, ik) = keys.iter().copied().unzip();
    let pairs: Box<dyn Operator> = if keys.is_empty() {
        Box::new(NestedLoopJoin::new(scan(outer), scan(inner), ok, ik, w.clone()))
    } else {
        Box::new(HashJoin::new(scan(inner), scan(outer), ik, ok, false, w.clone()))
    };
    drain(&mut Filter::new(pairs, pred, w), 0)
}

fn cmp(left: usize, op: CmpOp, right: usize) -> Pred {
    Pred::ColCmp { left, op, right }
}

fn and(a: Pred, b: Pred) -> Pred {
    Pred::And(Box::new(a), Box::new(b))
}

/// The row at column offset `a` lies within the row at offset `b`.
fn within(a: usize, b: usize) -> Pred {
    and(cmp(b + TS, Le, a + TS), cmp(a + END, Le, b + END))
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::span::Tracer;

    type Check = fn(&[TraceEvent]) -> Result<(), Violation>;
    /// An edit to one event; `None` drops it.
    type Mutation = Option<fn(&mut TraceEvent)>;

    fn sel<'a>(log: &'a [TraceEvent], prefix: &str, args: &[&str]) -> Selection<'a> {
        Selection::new(log, |e| e.name.starts_with(prefix), args)
    }

    /// `log` with `f` applied to its first event named `name`.
    fn mutant(log: &[TraceEvent], name: &str, f: Mutation) -> Vec<TraceEvent> {
        let mut log = log.to_vec();
        let i = log.iter().position(|e| e.name == name).expect("an event to mutate");
        match f {
            Some(f) => f(&mut log[i]),
            None => drop(log.remove(i)),
        }
        log
    }

    fn arg(v: &str) -> String {
        v.to_owned()
    }

    /// Two abutting ticks. tick:1 holds a breach justifying a switch and
    /// a migration enclosing a committed compkit switch; tick:2 holds a
    /// node death, the evacuation it forces, and an ORB invocation.
    fn sample() -> Tracer {
        let mut t = Tracer::new();
        let tick1 = t.begin_at("patia", "tick:1", 0);
        t.instant("patia", "gauge:breach", 10, vec![("atom", arg("1")), ("node", arg("a"))]);
        t.instant("patia", "switch:migrate", 20, vec![("atom", arg("1")), ("from", arg("a"))]);
        let mig = t.begin_at("chaos", "migration", 25);
        let sw = t.begin_at("compkit", "switch", 30);
        t.end_at_with(sw, 40, vec![("outcome", arg("committed"))]);
        t.end_at_with(mig, 45, Vec::new());
        t.end_at_with(tick1, 100, Vec::new());
        let tick2 = t.begin_at("patia", "tick:2", 100);
        t.instant("patia", "fault:node_death", 110, vec![("node", arg("b"))]);
        t.instant("patia", "switch:evacuate", 120, vec![("from", arg("b"))]);
        let invoke = t.begin_at("gokernel", "invoke", 127);
        t.end_at_with(invoke, 200, vec![("cycles", arg("73"))]);
        t.end_at_with(tick2, 200, Vec::new());
        t
    }

    /// Each check passes the sample (whose abutting ticks only touch) and
    /// fails it with one event dropped or shifted, quoting the culprit.
    #[test]
    fn each_check_fails_once_one_event_is_dropped_or_shifted() {
        let t = sample();
        let log = t.events();
        let cases: [(Check, Mutation, &str, &str); 6] = [
            (
                |l| sel(l, "switch:", &[]).each_within(&sel(l, "tick:", &[])),
                Some(|e| e.ts = 9000),
                "switch:migrate",
                "event not inside any cover span: @0000009000!       patia:switch:migrate atom=1",
            ),
            (
                |l| {
                    let (ticks, on) = (sel(l, "tick:", &[]), [("atom", "atom"), ("from", "node")]);
                    let breaches = sel(l, "gauge:", &["atom", "node"]);
                    sel(l, "switch:m", &["atom", "from"])
                        .each_preceded_within(&breaches, &ticks, &on)
                },
                None,
                "gauge:breach",
                "marker: @0000000020!       patia:switch:migrate",
            ),
            (
                |l| {
                    let deaths = sel(l, "fault:", &["node"]);
                    sel(l, "switch:e", &["from"]).each_preceded_by(&deaths, &[("from", "node")])
                },
                Some(|e| e.ts = 121),
                "fault:node_death",
                "no related predecessor for: @0000000120!       patia:switch:evacuate from=b",
            ),
            (
                |l| {
                    let commits = Selection::new(l, |e| e.arg("outcome") == Some("committed"), &[]);
                    sel(l, "migration", &[]).each_encloses(&commits, &[])
                },
                Some(|e| e.ts = 44),
                "switch",
                "span encloses no matching inner event: @0000000025+000020 chaos:migration",
            ),
            (
                |l| sel(l, "tick:", &[]).pairwise_disjoint(),
                Some(|e| e.ts = 99),
                "tick:2",
                "spans overlap\n  first:  @0000000000+000100 patia:tick:1\n  second: @0000000099",
            ),
            (
                |l| sel(l, "invoke", &["cycles"]).dur_equals_arg("cycles"),
                Some(|e| e.dur = 72),
                "invoke",
                "dur != cycles: @0000000127+000072 gokernel:invoke cycles=73",
            ),
        ];
        for (check, f, name, culprit) in cases {
            check(log).expect("the sample satisfies every invariant");
            let v = check(&mutant(log, name, f)).expect_err("one mutated event breaks it");
            assert!(v.detail.contains(culprit), "{v}");
        }
    }

    #[test]
    fn within_accepts_covered_and_rejects_uncovered() {
        let t = sample();
        let ticks = sel(t.events(), "tick:", &[]);
        sel(t.events(), "switch:", &[]).each_within(&ticks).expect("every switch is in a tick");
        let mut t2 = Tracer::new();
        t2.instant("patia", "switch:migrate", 999, Vec::new());
        let v = sel(t2.events(), "switch:", &[]).each_within(&ticks).expect_err("uncovered");
        assert_eq!(v.check, "each_within");
        assert!(v.detail.contains("switch:migrate"), "{v}");
    }

    #[test]
    fn encloses_demands_a_contained_related_event() {
        let mut t = Tracer::new();
        let mig = t.begin_at("chaos", "migration", 0);
        let sw = t.begin_at("compkit", "switch", 10);
        t.end_at_with(sw, 30, vec![("outcome", arg("committed"))]);
        t.end_at_with(mig, 40, Vec::new());
        let empty_mig = t.begin_at("chaos", "migration", 50);
        t.end_at_with(empty_mig, 60, Vec::new());
        let log = t.events();
        let commits = Selection::new(log, |e| e.arg("outcome") == Some("committed"), &[]);
        let first = Selection::new(log, |e| e.name == "migration" && e.ts < 50, &[]);
        first.each_encloses(&commits, &[]).expect("the first migration encloses a commit");
        let v = sel(log, "migration", &[]).each_encloses(&commits, &[]).expect_err("second empty");
        assert_eq!(v.check, "each_encloses");
        assert!(v.detail.contains("@0000000050+000010 chaos:migration"), "{v}");
    }

    #[test]
    fn disjoint_allows_touching_but_not_overlap() {
        let t = sample();
        sel(t.events(), "tick:", &[]).pairwise_disjoint().expect("ticks abut");
        let mut t2 = Tracer::new();
        let a = t2.begin_at("c", "a", 0);
        let b = t2.begin_at("c", "b", 5);
        t2.end_at_with(a, 10, Vec::new());
        t2.end_at_with(b, 15, Vec::new());
        let v = sel(t2.events(), "", &[]).pairwise_disjoint().expect_err("overlap");
        assert_eq!(v.check, "pairwise_disjoint");
        assert!(v.detail.contains("c:a") && v.detail.contains("c:b"), "{v}");
    }

    #[test]
    fn violations_render_the_tracer_line_format() {
        let mut t = Tracer::new();
        t.instant("patia", "switch:migrate", 9000, vec![("atom", arg("123"))]);
        let v = sel(t.events(), "", &[]).each_within(&sel(&[], "", &[])).expect_err("no cover");
        assert_eq!(
            v.to_string(),
            "each_within: event not inside any cover span: \
             @0000009000!       patia:switch:migrate atom=123"
        );
    }

    #[test]
    fn selection_rows_carry_seq_span_and_nullable_args() {
        let t = sample();
        let atoms = sel(t.events(), "", &["atom"]);
        assert_eq!(atoms.len(), t.events().len());
        assert_eq!(
            atoms.table.rows()[1][..4],
            [1, 20, 20, 0].map(Value::Int),
            "instants end at ts"
        );
        assert_eq!(atoms.table.rows()[1][4], Value::str("1"));
        assert_eq!(atoms.table.rows()[2][4], Value::Null, "the compkit switch has no atom");
        assert!(sel(t.events(), "nothing", &[]).is_empty());
    }

    #[test]
    fn preceded_within_demands_a_scoped_related_witness() {
        let t = sample();
        let log = t.events();
        let (ticks, breaches) = (sel(log, "tick:", &[]), sel(log, "gauge:", &["atom"]));
        let v = sel(log, "switch:e", &[]).each_preceded_within(&breaches, &ticks, &[]);
        let v = v.expect_err("tick:2 holds no breach");
        assert!(v.detail.contains("scope:  @0000000100+000100 patia:tick:2"), "{v}");
        let first = sel(log, "switch:m", &["atom"]);
        let other = Selection::new(log, |e| e.arg("atom") == Some("9"), &["atom"]);
        first.each_preceded_within(&other, &ticks, &[("atom", "atom")]).expect_err("no atom 9");
        let v =
            first.each_preceded_within(&breaches, &sel(log, "-", &[]), &[]).expect_err("no tick");
        assert!(v.detail.contains("marker outside every cover span"), "{v}");
        let late = mutant(log, "gauge:breach", Some(|e| e.ts = 21));
        let v = first.each_preceded_within(&sel(&late, "gauge:", &[]), &ticks, &[]);
        v.expect_err("a breach after the switch does not precede it");
    }

    /// An instant on the shared edge of two abutting, equally long ticks
    /// lies within both, and within a longer `tick:0` logged before them,
    /// but is judged against the shortest, first-logged one only: a
    /// witness inside the second tick or the long span does not count.
    #[test]
    fn an_instant_on_a_shared_tick_edge_is_scoped_to_one_tick() {
        let mut t = Tracer::new();
        let spans = [(0, 200), (0, 100), (100, 150), (100, 200)];
        for (name, (ts, end)) in
            ["tick:0", "tick:1", "gauge:breach", "tick:2"].into_iter().zip(spans)
        {
            let span = t.begin_at("patia", name, ts);
            t.end_at_with(span, end, Vec::new());
        }
        t.instant("patia", "switch:migrate", 100, Vec::new());
        let check = |l: &[TraceEvent]| {
            let (ticks, breaches) = (sel(l, "tick:", &[]), sel(l, "gauge:", &[]));
            sel(l, "switch:", &[]).each_preceded_within(&breaches, &ticks, &[])
        };
        let v = check(t.events()).expect_err("the breach lies in tick:2 only; the scope is tick:1");
        assert!(v.detail.contains("scope:  @0000000000+000100 patia:tick:1"), "{v}");
        check(&mutant(t.events(), "gauge:breach", Some(|e| e.ts = 50))).expect("now in tick:1");
    }

    #[test]
    fn preceded_by_uses_completion_order_on_ties() {
        let mut t = Tracer::new();
        t.instant("c", "first", 50, Vec::new());
        t.instant("c", "second", 50, Vec::new());
        let (firsts, seconds) = (sel(t.events(), "first", &[]), sel(t.events(), "second", &[]));
        seconds.each_preceded_by(&firsts, &[]).expect("log order breaks the tie");
        let v = firsts.each_preceded_by(&seconds, &[]).expect_err("not the other way");
        assert_eq!(v.check, "each_preceded_by");
    }

    #[test]
    fn dur_equals_arg_rejects_missing_and_non_numeric_args() {
        let t = sample();
        let check = |l: &[TraceEvent], key| sel(l, "invoke", &[key]).dur_equals_arg(key);
        check(&mutant(t.events(), "invoke", Some(|e| e.args[0].1 = arg("073"))), "cycles")
            .expect("073 parses as 73");
        let log = mutant(t.events(), "invoke", Some(|e| e.args[0].1 = arg("73 cycles")));
        let v = check(&log, "cycles").expect_err("not numeric");
        assert!(v.detail.contains("dur != cycles"), "{v}");
        let v = check(t.events(), "nope").expect_err("missing arg");
        assert!(v.detail.contains("span lacks arg 'nope'"), "{v}");
    }
}
