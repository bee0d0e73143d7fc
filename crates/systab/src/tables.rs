//! Builders for the seven `sys.*` tables.
//!
//! Each builder freezes one subsystem's live state into a
//! [`datacomp::Table`] with a stable schema and deterministic row order,
//! ready for the billed scans of [`crate::scan`] and the rest of the
//! operator algebra. Builders take the subsystem's public introspection types —
//! they never reach into private state, so anything a table serves is
//! equally available to ordinary code.

use compkit::AdaptivityManager;
use datacomp::ColumnType::{self, Bool, Float, Int, Str};
use datacomp::{Row, Schema, Table, Value};
use obs::span::{EventKind, TraceEvent};
use obs::MetricsSnapshot;
use patia::wheel::TimerWheel;
use store::BufferPool;
use txn::{TransactionCore, TxnLog, TxnRecord};

/// Saturating `u64 → Value::Int` (registry counters can exceed `i64`).
pub(crate) fn int(v: u64) -> Value {
    Value::Int(i64::try_from(v).unwrap_or(i64::MAX))
}

/// A table of `cols` holding `rows`, the constructor every builder
/// shares.
///
/// # Panics
/// If `cols` repeats a name or a row does not fit them; the builders fix
/// both statically.
pub(crate) fn table(cols: &[(&str, ColumnType)], rows: impl IntoIterator<Item = Row>) -> Table {
    let mut t = Table::new(Schema::new(cols).expect("system-table columns are distinct"));
    for row in rows {
        t.insert(row).expect("system-table rows match their schema");
    }
    t
}

/// `sys.metrics`: one row per counter, gauge, and histogram component.
///
/// Schema: `kind` (`counter`/`gauge`/`histogram`), `name`, `key`
/// (`value` for scalars; `count`/`sum`/`min`/`max`/`b<idx>` for
/// histogram components), `value_int`, `value_float` (exactly one is
/// non-null: gauges fill the float, everything else the int). Rows come
/// out in the snapshot's name-sorted order, histogram buckets ascending.
///
/// # Panics
/// Never: rows are built to the schema.
#[must_use]
pub fn metrics_table(snap: &MetricsSnapshot) -> Table {
    let mut rows = Vec::new();
    let mut push = |kind: &str, name: &str, key: &str, vi: Value, vf: Value| {
        rows.push(Row::from([Value::str(kind), Value::str(name), Value::str(key), vi, vf]));
    };
    for (name, v) in &snap.counters {
        push("counter", name, "value", int(*v), Value::Null);
    }
    for (name, v) in &snap.gauges {
        push("gauge", name, "value", Value::Null, Value::float(*v));
    }
    for (name, h) in &snap.histograms {
        push("histogram", name, "count", int(h.count), Value::Null);
        push("histogram", name, "sum", int(h.sum), Value::Null);
        push("histogram", name, "min", int(h.min), Value::Null);
        push("histogram", name, "max", int(h.max), Value::Null);
        for (bucket, n) in &h.buckets {
            push("histogram", name, &format!("b{bucket}"), int(*n), Value::Null);
        }
    }
    table(
        &[("kind", Str), ("name", Str), ("key", Str), ("value_int", Int), ("value_float", Float)],
        rows,
    )
}

/// `sys.spans`: one row per trace event, in completion order.
///
/// Schema: `seq` (position in the event log), `ts`, `dur`, `cat`,
/// `name`, `kind` (`complete`/`instant`), `args` (the rendered
/// `k=v` list, space-separated, empty string when the event has none).
///
/// # Panics
/// Never: rows are built to the schema.
#[must_use]
pub fn spans_table(events: &[TraceEvent]) -> Table {
    let rows = events.iter().enumerate().map(|(seq, e)| {
        let kind = match e.kind {
            EventKind::Complete => "complete",
            EventKind::Instant => "instant",
        };
        let len: usize = e.args.iter().map(|(k, v)| k.len() + v.len() + 2).sum();
        let mut args = String::with_capacity(len.saturating_sub(1));
        for (i, (k, v)) in e.args.iter().enumerate() {
            if i > 0 {
                args.push(' ');
            }
            args.extend([k, "=", v]);
        }
        Row::from([
            Value::Int(seq as i64),
            int(e.ts),
            int(e.dur),
            Value::Str(e.cat.to_owned()),
            Value::Str(e.name.clone()),
            Value::Str(kind.to_owned()),
            Value::Str(args),
        ])
    });
    let cols = [
        ("seq", Int),
        ("ts", Int),
        ("dur", Int),
        ("cat", Str),
        ("name", Str),
        ("kind", Str),
        ("args", Str),
    ];
    table(&cols, rows)
}

/// `sys.supervision`: one row per watched peer — re-exported from
/// [`patia::rules`], which owns the schema because the declarative
/// circuit-breaker rule filters these very rows.
pub use patia::rules::supervision_table;

/// `sys.switches`: the Adaptivity Manager's write-ahead log — summary
/// stats plus any live (uncheckpointed) records, laid out as `sys.txns`.
///
/// A single-node switch is a one-shard transaction over shard `s0` in a
/// [`TxnLog`], checkpointed at every commit or abort, so after a healthy
/// run the `record` rows are empty and history lives in the stats:
/// `committed` / `rolled_back` come from the adaptivity manager,
/// `journal_appended` / `journal_truncations` / `journal_live` from the
/// log's monotone counters.
///
/// # Panics
/// Never: rows are built to the schema.
#[must_use]
pub fn switches_table(committed: u64, rolled_back: u64, journal: Option<&TxnLog>) -> Table {
    log_table(
        &[
            ("committed", committed),
            ("rolled_back", rolled_back),
            ("journal_appended", journal.map_or(0, TxnLog::appended_total)),
            ("journal_truncations", journal.map_or(0, TxnLog::truncations)),
            ("journal_live", journal.map_or(0, |j| j.len() as u64)),
        ],
        journal,
    )
}

/// `sys.txns`: the unbundled transaction core's ledger — protocol stats
/// plus every live (untruncated) record of the unified transaction log.
///
/// The stats mirror the lifetime counters the core and its log expose
/// (`committed`/`aborted`/`crashes`/`recoveries`/`in_doubt_resolved`,
/// `log_appended`/`log_truncations`/`log_live`, `locks_held`) plus the
/// single-node log's live length (`journal_live`, from the adaptivity
/// manager's own [`TxnLog`]) so one query screens both switch paths.
/// After `truncate_ended` a healthy log serves no `record` rows — exactly
/// like `sys.switches`.
///
/// # Panics
/// Never: rows are built to the schema.
#[must_use]
pub fn txns_table(core: &TransactionCore, am: Option<&AdaptivityManager>) -> Table {
    log_table(
        &[
            ("committed", core.committed()),
            ("aborted", core.aborted()),
            ("crashes", core.crashes()),
            ("recoveries", core.recoveries()),
            ("in_doubt_resolved", core.in_doubt_resolved()),
            ("log_appended", core.log().appended_total()),
            ("log_truncations", core.log().truncations()),
            ("log_live", core.log().len() as u64),
            ("locks_held", core.locks().held_total() as u64),
            ("journal_live", am.map_or(0, |m| m.journal_len() as u64)),
        ],
        Some(core.log()),
    )
}

/// The layout `sys.switches` and `sys.txns` share: one `stat` row per
/// entry of `stats`, then one `record` row per live record of `log`.
///
/// Schema: `kind` (`stat`/`record`), `name` (stat name, or the record's
/// [`TxnRecord::tag`]: `begin`/`intent`/`applied`/`undone`/`prepared`/
/// `commit`/`shard-committed`/`shard-aborted`/`end`), `gtxn` (null for
/// stats), `shard` (null for stats and coordinator records), `value`
/// (stat value; for records the shard count, declared steps, or step
/// index), `detail` (the record's rendered form; null for stats).
fn log_table(stats: &[(&str, u64)], log: Option<&TxnLog>) -> Table {
    let stat_rows = stats.iter().map(|&(name, v)| {
        Row::from([
            Value::str("stat"),
            Value::str(name),
            Value::Null,
            Value::Null,
            int(v),
            Value::Null,
        ])
    });
    let record_rows = log.into_iter().flat_map(TxnLog::records).map(|r| {
        let (shard, value) = match r {
            TxnRecord::Begin { shards, .. } => (None, Some(shards.len() as u64)),
            TxnRecord::Intent { shard, steps, .. } => (Some(shard.0), Some(*steps as u64)),
            TxnRecord::Applied { shard, index, .. } | TxnRecord::Undone { shard, index, .. } => {
                (Some(shard.0), Some(*index as u64))
            }
            TxnRecord::Prepared { shard, .. }
            | TxnRecord::ShardCommitted { shard, .. }
            | TxnRecord::ShardAborted { shard, .. } => (Some(shard.0), None),
            TxnRecord::Commit { .. } | TxnRecord::End { .. } => (None, None),
        };
        Row::from([
            Value::str("record"),
            Value::str(r.tag()),
            int(r.gtxn()),
            shard.map_or(Value::Null, |s| Value::Int(i64::from(s))),
            value.map_or(Value::Null, int),
            Value::Str(r.to_string()),
        ])
    });
    let cols = [
        ("kind", Str),
        ("name", Str),
        ("gtxn", Int),
        ("shard", Int),
        ("value", Int),
        ("detail", Str),
    ];
    table(&cols, stat_rows.chain(record_rows))
}

/// `sys.pool`: one row per buffer-pool frame, in frame-index order.
///
/// Schema: `frame`, `page` (null for an empty frame), `dirty`,
/// `referenced` (the clock's reference bit).
///
/// # Panics
/// Never: rows are built to the schema.
#[must_use]
pub fn pool_table(pool: &BufferPool) -> Table {
    let rows = pool.frame_table().into_iter().map(|f| {
        Row::from([
            Value::Int(f.frame as i64),
            f.page.map_or(Value::Null, |p| Value::Int(i64::from(p.0))),
            Value::Bool(f.dirty),
            Value::Bool(f.referenced),
        ])
    });
    table(&[("frame", Int), ("page", Int), ("dirty", Bool), ("referenced", Bool)], rows)
}

/// `sys.timers`: one row per pending deadline, ascending.
///
/// Schema: `deadline` (the virtual tick), `live` (non-cancelled events
/// waiting on it). The `live` column always sums to the queue's
/// [`len`](TimerWheel::len).
///
/// # Panics
/// Never: rows are built to the schema.
#[must_use]
pub fn timers_table<T>(wheel: &TimerWheel<T>) -> Table {
    let mut rows: Vec<(u64, u64)> = Vec::new();
    for deadline in wheel.deadlines() {
        match rows.last_mut() {
            Some((d, live)) if *d == deadline => *live += 1,
            _ => rows.push((deadline, 1)),
        }
    }
    let rows = rows.into_iter().map(|(deadline, live)| Row::from([int(deadline), int(live)]));
    table(&[("deadline", Int), ("live", Int)], rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::{filter_count, sum_int};
    use obs::{CostModel, Obs, Primitive};
    use query::expr::Pred;

    #[test]
    fn metrics_table_explodes_histograms_in_registry_order() {
        let mut obs = Obs::new(CostModel::pentium());
        obs.metrics.counter_add("b.count", 2);
        obs.metrics.counter_add("a.count", 1);
        obs.metrics.gauge_set("util", 0.5);
        obs.metrics.observe("lat", 3);
        obs.metrics.observe("lat", 100);
        let t = metrics_table(&obs.metrics.snapshot());
        let names: Vec<String> = t
            .rows()
            .iter()
            .map(|r| match (&r[0], &r[1], &r[2]) {
                (Value::Str(k), Value::Str(n), Value::Str(key)) => format!("{k}:{n}:{key}"),
                _ => unreachable!("first three columns are strings"),
            })
            .collect();
        assert_eq!(
            names,
            [
                "counter:a.count:value",
                "counter:b.count:value",
                "gauge:util:value",
                "histogram:lat:count",
                "histogram:lat:sum",
                "histogram:lat:min",
                "histogram:lat:max",
                "histogram:lat:b2",
                "histogram:lat:b7",
            ]
        );
        let count = sum_int(&t, 3, Pred::eq(2, Value::Str("count".to_owned())), None);
        assert_eq!(count, 2, "the histogram recorded two observations");
    }

    #[test]
    fn spans_table_keeps_event_order_and_instant_kinds() {
        let mut obs = Obs::new(CostModel::pentium());
        let s = obs.begin("area", "outer");
        obs.charge(Primitive::Alu);
        obs.instant("mark", "hit", vec![("k", "v".to_owned())]);
        obs.instant("mark", "pair", vec![("a", "1".to_owned()), ("b", "2".to_owned())]);
        obs.end(s);
        let t = spans_table(obs.tracer.events());
        assert_eq!(t.len(), 3);
        assert_eq!(t.rows()[0][4], Value::Str("hit".to_owned()), "instants complete first");
        assert_eq!(t.rows()[0][5], Value::Str("instant".to_owned()));
        assert_eq!(t.rows()[0][6], Value::Str("k=v".to_owned()));
        assert_eq!(t.rows()[1][6], Value::Str("a=1 b=2".to_owned()), "args are space-separated");
        assert_eq!(t.rows()[2][5], Value::Str("complete".to_owned()));
        assert_eq!(t.rows()[2][6], Value::Str(String::new()), "no args, empty string");
        assert_eq!(filter_count(&t, Pred::eq(5, Value::Str("instant".to_owned())), None), 2);
    }

    #[test]
    fn spans_table_args_match_the_joined_k_v_form() {
        let mut obs = Obs::new(CostModel::pentium());
        let three = vec![("a", "1".to_owned()), ("", String::new()), ("é", "x y".to_owned())];
        for args in [Vec::new(), vec![("k", "v".to_owned())], three] {
            obs.instant("mark", "e", args);
        }
        let t = spans_table(obs.tracer.events());
        for (row, e) in t.rows().iter().zip(obs.tracer.events()) {
            let joined: Vec<String> = e.args.iter().map(|(k, v)| format!("{k}={v}")).collect();
            assert_eq!(row[6], Value::Str(joined.join(" ")), "{:?}", e.args);
        }
    }

    #[test]
    fn switches_table_serves_stats_and_live_records() {
        let t = switches_table(3, 1, None);
        assert_eq!(t.len(), 5, "five stat rows, no journal attached");
        assert_eq!(sum_int(&t, 4, Pred::eq(1, Value::Str("committed".to_owned())), None), 3);
        let mut j = TxnLog::new();
        let txn = j.begin(vec![txn::ShardId(0)], 0);
        j.append(TxnRecord::Commit { gtxn: txn });
        j.append(TxnRecord::End { gtxn: txn });
        let t = switches_table(1, 0, Some(&j));
        let records = filter_count(&t, Pred::eq(0, Value::Str("record".to_owned())), None);
        assert_eq!(records, 3, "begin + commit + end are live until truncation");
        assert_eq!(filter_count(&t, Pred::eq(1, Value::Str("end".to_owned())), None), 1);
        assert_eq!(sum_int(&t, 4, Pred::eq(1, Value::Str("journal_appended".to_owned())), None), 3);
    }

    #[test]
    fn txns_table_serves_protocol_stats_and_live_log_records() {
        use compkit::runtime::LiveComponent;
        use compkit::NoFaults;
        use patia::shard::{atom_instance, host_instance, route_binding};
        use patia::AtomId;
        use std::collections::BTreeMap;
        use txn::{DataComponent, NoTxnCrash, PlannedTxnCrash, ShardId, TxnCrashPoint};

        let handles = vec![
            patia::ShardHandle::new(0, "east", vec!["n1".into()]),
            patia::ShardHandle::new(1, "west", vec!["n2".into()]),
        ];
        let plans = patia::cross_shard_plans(&handles, AtomId(7), "n1", "n2");
        let mut shards: BTreeMap<u32, DataComponent> = BTreeMap::new();
        for (id, node) in [(0u32, "n1"), (1u32, "n2")] {
            let mut dc = DataComponent::new(ShardId(id));
            dc.runtime_mut()
                .start(
                    &host_instance(node),
                    LiveComponent { ty: "Host".into(), state: vec![id as u8], started_at: 0 },
                )
                .unwrap();
            shards.insert(id, dc);
        }
        let east = shards.get_mut(&0).unwrap().runtime_mut();
        east.start(
            &atom_instance(AtomId(7)),
            LiveComponent { ty: "Agent".into(), state: vec![7], started_at: 0 },
        )
        .unwrap();
        east.bind(route_binding(AtomId(7), "n1")).unwrap();

        let mut core = txn::TransactionCore::new();
        let mut hook = PlannedTxnCrash::new(TxnCrashPoint::BeforeDecision);
        let run = core.execute_cross_shard(&mut shards, &plans, 5, &mut NoFaults, &mut hook);
        assert!(run.is_err(), "planned crash fires before the decision");

        let t = txns_table(&core, None);
        assert_eq!(sum_int(&t, 4, Pred::eq(1, Value::Str("crashes".to_owned())), None), 1);
        assert_eq!(
            filter_count(&t, Pred::eq(1, Value::Str("prepared".to_owned())), None),
            2,
            "both shards voted before the coordinator crashed"
        );
        let records = filter_count(&t, Pred::eq(0, Value::Str("record".to_owned())), None);
        assert_eq!(records as usize, core.log().len(), "one record row per live log record");

        let report = core.recover(&mut shards, &mut NoTxnCrash);
        assert_eq!(
            report.in_doubt_resolved, 2,
            "both prepared shards consult the missing decision"
        );
        let t = txns_table(&core, None);
        assert_eq!(sum_int(&t, 4, Pred::eq(1, Value::Str("aborted".to_owned())), None), 1);
        assert_eq!(
            sum_int(&t, 4, Pred::eq(1, Value::Str("in_doubt_resolved".to_owned())), None),
            2
        );
        assert_eq!(
            sum_int(&t, 4, Pred::eq(1, Value::Str("log_live".to_owned())), None),
            0,
            "recovery ends the txn and truncation reclaims it"
        );
        assert_eq!(filter_count(&t, Pred::eq(0, Value::Str("record".to_owned())), None), 0);
        assert_eq!(sum_int(&t, 4, Pred::eq(1, Value::Str("journal_live".to_owned())), None), 0);
        assert_eq!(sum_int(&t, 4, Pred::eq(1, Value::Str("locks_held".to_owned())), None), 0);
    }

    #[test]
    fn pool_table_has_one_row_per_frame() {
        let mut pool = BufferPool::new(3);
        pool.create(store::PageId(7));
        let t = pool_table(&pool);
        assert_eq!(t.len(), 3);
        assert_eq!(t.rows()[0][1], Value::Int(7));
        assert_eq!(t.rows()[0][2], Value::Bool(true), "fresh pages are dirty");
        assert_eq!(t.rows()[1][1], Value::Null, "empty frames have no page");
        assert_eq!(filter_count(&t, Pred::eq(2, Value::Bool(true)), None), 1, "one dirty frame");
        assert_eq!(
            filter_count(&t, Pred::gt(1, Value::Int(-1)), None),
            1,
            "null pages fail every comparison, so only occupied frames match"
        );
    }

    #[test]
    fn timers_table_live_column_sums_to_wheel_len() {
        let mut w: TimerWheel<u8> = TimerWheel::new();
        w.schedule(3, 1);
        w.schedule(3, 2);
        let cancelled = w.schedule(3, 3);
        w.schedule(5_000, 4);
        w.schedule(30_000_000, 5);
        w.cancel(cancelled);
        let t = timers_table(&w);
        assert_eq!(t.len(), 3, "one row per pending deadline");
        assert_eq!(sum_int(&t, 1, Pred::True, None) as usize, w.len());
        assert_eq!(*t.rows()[0], [Value::Int(3), Value::Int(2)], "the cancelled event is absent");
        assert_eq!(filter_count(&t, Pred::gt(0, Value::Int(5_000)), None), 1);
    }
}
