//! Pins: the exact output sequence and the exact `Work` bill of every
//! hash-based join, on small tables with duplicate keys on both sides.
//! The joins' multisets are checked against an oracle elsewhere
//! (`join_props.rs`); these tests hold the *order* rows come out in and
//! the work each operator charges, so a change to how a join stores or
//! walks its hash table cannot reorder results or move a cost silently.
//!
//! Every table here is `(k, v)` with `v` the row number, so a joined row
//! `(lk, lv, rk, rv)` is named by its pair `(lv, rv)`.

use datacomp::{ColumnType, Row, Schema, Table, Value};
use query::adaptive::SymmetricHashJoin;
use query::basic::{HashJoin, IndexNestedLoopJoin};
use query::exec::ExecReport;
use query::op::{drain, Operator, Work, WorkCounter};
use query::optimizer::JoinAlgo;
use query::source::{ArrivalPattern, DelayedScan, TableScan};
use query::{AdaptiveJoinExec, Catalog};

fn table(keys: &[i64]) -> Table {
    let schema = Schema::new(&[("k", ColumnType::Int), ("v", ColumnType::Int)]).unwrap();
    let mut t = Table::new(schema);
    for (i, &k) in keys.iter().enumerate() {
        t.insert(vec![Value::Int(k), Value::Int(i as i64)]).unwrap();
    }
    t
}

/// Keys 1, 2 and 3 repeat; key 3 has no partner on the right.
fn left() -> Table {
    table(&[1, 2, 1, 3, 2, 1])
}

/// Keys 1 and 2 repeat; key 4 has no partner on the left.
fn right() -> Table {
    table(&[2, 1, 2, 4, 1])
}

/// Each `(lk, lv, rk, rv)` row as `(lv, rv)`, checking `lk == rk`.
fn pairs(rows: &[Row]) -> Vec<(i64, i64)> {
    rows.iter()
        .map(|r| {
            assert_eq!(r.len(), 4, "a (k, v) ⋈ (k, v) row has four columns");
            assert_eq!(r[0], r[2], "joined rows agree on the key");
            (r[1].as_i64().unwrap(), r[3].as_i64().unwrap())
        })
        .collect()
}

fn scan(t: Table, w: &WorkCounter) -> Box<dyn Operator> {
    Box::new(TableScan::new(t, w.clone()))
}

fn work(tuples_moved: u64, hash_inserts: u64, hash_probes: u64, stalls: u64) -> Work {
    Work { tuples_moved, hash_inserts, hash_probes, stalls, ..Work::default() }
}

#[test]
fn hash_join_build_left_order_and_work() {
    let w = WorkCounter::new();
    let mut j =
        HashJoin::new(scan(left(), &w), scan(right(), &w), vec![0], vec![0], true, w.clone());
    let rows = drain(&mut j, 0);
    // Per probe row, the build rows of its key newest first.
    assert_eq!(
        pairs(&rows),
        [(4, 0), (1, 0), (5, 1), (2, 1), (0, 1), (4, 2), (1, 2), (5, 4), (2, 4), (0, 4)]
    );
    assert_eq!(w.snapshot(), work(16, 6, 5, 0));
}

#[test]
fn hash_join_build_right_order_and_work() {
    let w = WorkCounter::new();
    let mut j =
        HashJoin::new(scan(right(), &w), scan(left(), &w), vec![0], vec![0], false, w.clone());
    let rows = drain(&mut j, 0);
    assert_eq!(
        pairs(&rows),
        [(0, 4), (0, 1), (1, 2), (1, 0), (2, 4), (2, 1), (4, 2), (4, 0), (5, 4), (5, 1)]
    );
    assert_eq!(w.snapshot(), work(17, 5, 6, 0));
}

#[test]
fn index_nested_loop_join_order_and_work() {
    let w = WorkCounter::new();
    let mut j = IndexNestedLoopJoin::new(scan(left(), &w), &right(), vec![0], &[0], w.clone());
    let rows = drain(&mut j, 0);
    assert_eq!(
        pairs(&rows),
        [(0, 4), (0, 1), (1, 2), (1, 0), (2, 4), (2, 1), (4, 2), (4, 0), (5, 4), (5, 1)]
    );
    assert_eq!(w.snapshot(), work(12, 5, 6, 0));
}

#[test]
fn symmetric_hash_join_order_and_work() {
    let w = WorkCounter::new();
    let mut j =
        SymmetricHashJoin::new(scan(left(), &w), scan(right(), &w), vec![0], vec![0], w.clone());
    let rows = drain(&mut j, 0);
    assert_eq!(
        pairs(&rows),
        [(0, 1), (1, 0), (1, 2), (2, 1), (4, 2), (4, 0), (2, 4), (0, 4), (5, 4), (5, 1)]
    );
    assert_eq!(w.snapshot(), work(21, 11, 11, 0));
}

#[test]
fn symmetric_hash_join_with_a_stalling_side_order_and_work() {
    let w = WorkCounter::new();
    let slow = ArrivalPattern { initial_delay: 3, burst: 2, gap: 2 };
    let mut j = SymmetricHashJoin::new(
        scan(left(), &w),
        Box::new(DelayedScan::new(right(), slow, w.clone())),
        vec![0],
        vec![0],
        w.clone(),
    );
    let rows = drain(&mut j, 100);
    assert_eq!(
        pairs(&rows),
        [(1, 0), (2, 1), (0, 1), (4, 0), (5, 1), (4, 2), (1, 2), (5, 4), (2, 4), (0, 4)]
    );
    assert_eq!(w.snapshot(), work(21, 11, 11, 7));
}

// `AdaptiveJoinExec`'s hashed state serves `HashBuildLeft`, `HashBuildRight`
// and `IndexInnerRight` alike; the optimiser never picks the index plan
// (its build costs more per row than `HashBuildRight`'s), so the two hash
// plans and a mid-query switch into one cover it.

/// 40 rows keyed `i % 10` (four of each) and 60 keyed `5 + i % 30` (two of
/// each): keys 5-9 match, 40 result rows.
fn exec_tables() -> (Table, Table) {
    let small: Vec<i64> = (0..40).map(|i| i % 10).collect();
    let big: Vec<i64> = (0..60).map(|i| 5 + i % 30).collect();
    (table(&small), table(&big))
}

/// The 40-row side `l` joined to the 60-row side `r`, as `(lv, rv)`: per
/// outer (`r`) row, its inner (`l`) matches in insertion order.
#[rustfmt::skip]
const SMALL_BIG: [(i64, i64); 40] = [
    (5, 0), (15, 0), (25, 0), (35, 0), (6, 1), (16, 1), (26, 1), (36, 1),
    (7, 2), (17, 2), (27, 2), (37, 2), (8, 3), (18, 3), (28, 3), (38, 3),
    (9, 4), (19, 4), (29, 4), (39, 4), (5, 30), (15, 30), (25, 30), (35, 30),
    (6, 31), (16, 31), (26, 31), (36, 31), (7, 32), (17, 32), (27, 32), (37, 32),
    (8, 33), (18, 33), (28, 33), (38, 33), (9, 34), (19, 34), (29, 34), (39, 34),
];

fn run_exec(c: &Catalog, exec: &AdaptiveJoinExec) -> (Vec<(i64, i64)>, ExecReport) {
    let w = WorkCounter::new();
    let (rows, report) = exec.run(c, "l", "r", 0, 0, true, &w).unwrap();
    assert_eq!(report.work, w.snapshot());
    (pairs(&rows), report)
}

fn unswitched(algo: JoinAlgo, work: Work) -> ExecReport {
    ExecReport {
        initial_algo: algo,
        final_algo: algo,
        switched_at: None,
        rows_out: 40,
        work,
        replans: 0,
    }
}

#[test]
fn adaptive_exec_hash_build_left_order_and_work() {
    let (small, big) = exec_tables();
    let mut c = Catalog::new();
    c.register("l", small);
    c.register("r", big);
    let (got, report) = run_exec(&c, &AdaptiveJoinExec::default());
    assert_eq!(got, SMALL_BIG);
    assert_eq!(report, unswitched(JoinAlgo::HashBuildLeft, work(60, 40, 60, 0)));
}

#[test]
fn adaptive_exec_hash_build_right_order_and_work() {
    let (small, big) = exec_tables();
    let mut c = Catalog::new();
    c.register("l", big);
    c.register("r", small);
    let (got, report) = run_exec(&c, &AdaptiveJoinExec::default());
    let swapped: Vec<(i64, i64)> = SMALL_BIG.iter().map(|&(s, b)| (b, s)).collect();
    assert_eq!(got, swapped);
    assert_eq!(report, unswitched(JoinAlgo::HashBuildRight, work(60, 40, 60, 0)));
}

/// Stale statistics believe 2 and 3 rows, so the run starts as a nested
/// loop with the 60-row side outer; the safe point after 16 outer rows
/// sees the misestimate and switches to a hash table built over the
/// 40-row side. The output sequence is the same as an unswitched run's.
#[test]
fn adaptive_exec_reoptimised_mid_query_order_and_work() {
    let (small, big) = exec_tables();
    let mut c = Catalog::new();
    c.register_with_stale_stats("l", small, 0.05);
    c.register_with_stale_stats("r", big, 0.05);
    let exec = AdaptiveJoinExec { safe_point_interval: 8, reopt_threshold: 4.0 };
    let (got, report) = run_exec(&c, &exec);
    assert_eq!(got, SMALL_BIG);
    let bill = Work { comparisons: 16 * 40, ..work(100, 40, 44, 0) };
    assert_eq!(
        report,
        ExecReport {
            initial_algo: JoinAlgo::NestedLoopInnerLeft,
            final_algo: JoinAlgo::HashBuildLeft,
            switched_at: Some(16),
            rows_out: 40,
            work: bill,
            replans: 1,
        }
    );
}
