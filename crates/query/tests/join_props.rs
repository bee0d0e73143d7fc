//! Property: every join operator — static or adaptive, stalled or not,
//! memory-starved or not — produces exactly the same multiset of results
//! as the naive nested-loop oracle.

use adm_rng::{run_cases, Pcg32};
use datacomp::{concat, ColumnType, Row, Schema, Table, Value};
use query::adaptive::ripple::AggKind;
use query::adaptive::{RippleJoin, SymmetricHashJoin, XJoin};
use query::basic::{HashJoin, IndexNestedLoopJoin, NestedLoopJoin};
use query::op::{drain, Operator, WorkCounter};
use query::source::{ArrivalPattern, DelayedScan, TableScan};

fn table(keys: Vec<i64>) -> Table {
    let schema = Schema::new(&[("k", ColumnType::Int), ("v", ColumnType::Int)]).unwrap();
    let mut t = Table::new(schema);
    for (i, k) in keys.into_iter().enumerate() {
        t.insert(vec![Value::Int(k), Value::Int(i as i64)]).unwrap();
    }
    t
}

fn oracle(l: &Table, r: &Table) -> Vec<Row> {
    let mut out = Vec::new();
    for lr in l.rows() {
        for rr in r.rows() {
            if lr[0] == rr[0] {
                out.push(concat(lr, rr));
            }
        }
    }
    out.sort();
    out
}

fn keys(rng: &mut Pcg32) -> Vec<i64> {
    (0..rng.index(40)).map(|_| rng.range_i64(0, 8)).collect()
}

fn pattern(rng: &mut Pcg32) -> ArrivalPattern {
    ArrivalPattern { initial_delay: rng.below(20), burst: rng.below(7) + 1, gap: rng.below(10) }
}

fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort();
    rows
}

#[test]
fn all_joins_agree_with_oracle() {
    run_cases(0x701, 128, |rng| {
        let (l, r) = (table(keys(rng)), table(keys(rng)));
        let expected = oracle(&l, &r);
        let w = WorkCounter::new();
        let scan =
            |t: &Table| -> Box<dyn Operator> { Box::new(TableScan::new(t.clone(), w.clone())) };

        let mut nl = NestedLoopJoin::new(scan(&l), scan(&r), vec![0], vec![0], w.clone());
        assert_eq!(sorted(drain(&mut nl, 10)), expected);

        let mut hj = HashJoin::new(scan(&l), scan(&r), vec![0], vec![0], true, w.clone());
        assert_eq!(sorted(drain(&mut hj, 10)), expected);

        let mut ij = IndexNestedLoopJoin::new(scan(&l), &r, vec![0], &[0], w.clone());
        assert_eq!(sorted(drain(&mut ij, 10)), expected);

        let mut shj = SymmetricHashJoin::new(scan(&l), scan(&r), vec![0], vec![0], w.clone());
        assert_eq!(sorted(drain(&mut shj, 10)), expected);

        let mut rj =
            RippleJoin::new(scan(&l), scan(&r), vec![0], vec![0], 3, AggKind::Count, w.clone());
        assert_eq!(sorted(drain(&mut rj, 10)), expected);

        let mut xj = XJoin::new(scan(&l), scan(&r), vec![0], vec![0], 4, w.clone());
        assert_eq!(sorted(drain(&mut xj, 100_000)), expected);
    });
}

/// Adaptive joins stay correct when both sources stall arbitrarily and
/// XJoin is memory-starved.
#[test]
fn adaptive_joins_survive_stalls() {
    run_cases(0x702, 64, |rng| {
        let (l, r) = (table(keys(rng)), table(keys(rng)));
        let (lpat, rpat) = (pattern(rng), pattern(rng));
        let budget = rng.index(15) + 1;
        let expected = oracle(&l, &r);
        let w = WorkCounter::new();
        let dl = || -> Box<dyn Operator> { Box::new(DelayedScan::new(l.clone(), lpat, w.clone())) };
        let dr = || -> Box<dyn Operator> { Box::new(DelayedScan::new(r.clone(), rpat, w.clone())) };

        let mut shj = SymmetricHashJoin::new(dl(), dr(), vec![0], vec![0], w.clone());
        assert_eq!(sorted(drain(&mut shj, 100_000)), expected);

        let mut xj = XJoin::new(dl(), dr(), vec![0], vec![0], budget, w.clone());
        assert_eq!(sorted(drain(&mut xj, 100_000)), expected);

        let mut rj = RippleJoin::new(dl(), dr(), vec![0], vec![0], 2, AggKind::Count, w.clone());
        assert_eq!(sorted(drain(&mut rj, 100_000)), expected);
    });
}

/// The adaptive executor produces oracle results for any staleness
/// error, adapting or not.
#[test]
fn adaptive_exec_is_correct_for_any_staleness() {
    run_cases(0x703, 64, |rng| {
        let lk: Vec<i64> = (0..rng.index(59) + 1).map(|_| rng.range_i64(0, 12)).collect();
        let rk: Vec<i64> = (0..rng.index(59) + 1).map(|_| rng.range_i64(0, 12)).collect();
        let error = 0.001 + rng.f64() * 99.999;
        let adapt = rng.chance(0.5);
        let (l, r) = (table(lk), table(rk));
        let expected = oracle(&l, &r);
        let mut catalog = query::optimizer::Catalog::new();
        catalog.register_with_stale_stats("l", l, error);
        catalog.register_with_stale_stats("r", r, error);
        let w = WorkCounter::new();
        let exec = query::exec::AdaptiveJoinExec { safe_point_interval: 8, reopt_threshold: 3.0 };
        let (rows, report) = exec.run(&catalog, "l", "r", 0, 0, adapt, &w).unwrap();
        assert_eq!(rows.len() as u64, report.rows_out);
        assert_eq!(sorted(rows), expected);
    });
}
