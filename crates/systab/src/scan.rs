//! Billed system-table scans, plus small query helpers the invariant
//! tiers share.

use datacomp::{Row, Table};
use obs::{ObsHandle, Primitive};
use query::basic::Filter;
use query::expr::Pred;
use query::op::{drain, Operator, Poll};
use query::source::TableScan;
use query::WorkCounter;

/// Budget for [`drain`] over system-table pipelines: scans never stall,
/// so any nonzero budget works; 64 keeps a misbehaving operator loud.
const DRAIN_BUDGET: u64 = 64;

/// Bill a scan that served `rows` rows to `obs`: one [`Primitive::Load`]
/// and one `systab.scan.rows` count per row, so introspection pays its way
/// through the same cost model as the work it observes.
fn bill(obs: Option<ObsHandle>, rows: usize) {
    // An empty scan must not create the counter: the registry digest sees keys.
    if let Some(h) = obs.filter(|_| rows > 0) {
        let mut o = h.borrow_mut();
        o.charge_n(Primitive::Load, rows as u64);
        o.metrics.counter_add("systab.scan.rows", rows as u64);
    }
}

/// Scan a whole system table (billed when `obs` is given) and return
/// its rows. The workhorse of the invariant tiers.
#[must_use]
pub fn scan_rows(table: &Table, obs: Option<ObsHandle>) -> Vec<Row> {
    let rows = drain(&mut TableScan::new(table.clone(), WorkCounter::new()), DRAIN_BUDGET);
    bill(obs, rows.len());
    rows
}

/// The rows of `table` matching `pred`, pulled one at a time through the
/// query operators (scan → filter), billed when `obs` is given.
fn matching(table: &Table, pred: Pred, obs: Option<ObsHandle>) -> impl Iterator<Item = Row> {
    let work = WorkCounter::new();
    let scan = TableScan::new(table.clone(), work.clone());
    bill(obs, table.len()); // the filter pulls every row through the scan
    let mut filter = Filter::new(Box::new(scan), pred, work);
    // A table scan never stalls, so the first poll without a row is `Done`.
    std::iter::from_fn(move || if let Poll::Ready(row) = filter.poll() { Some(row) } else { None })
}

/// Count the rows of `table` matching `pred`, evaluated with the query
/// operators (scan → filter), billed when `obs` is given.
#[must_use]
pub fn filter_count(table: &Table, pred: Pred, obs: Option<ObsHandle>) -> u64 {
    matching(table, pred, obs).count() as u64
}

/// Sum an integer column of `table` over the rows matching `pred`
/// (`Null` cells contribute nothing), billed when `obs` is given.
#[must_use]
pub fn sum_int(table: &Table, col: usize, pred: Pred, obs: Option<ObsHandle>) -> i64 {
    matching(table, pred, obs).filter_map(|row| row.get(col)?.as_i64()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use datacomp::{ColumnType, Schema, Value};
    use obs::{CostModel, Obs, Primitive};

    fn t() -> Table {
        let schema = Schema::new(&[("k", ColumnType::Int), ("v", ColumnType::Int)]).expect("valid");
        let mut t = Table::new(schema);
        for i in 0..5 {
            t.insert(vec![Value::Int(i), Value::Int(i * 10)]).expect("typed");
        }
        t
    }

    #[test]
    fn scan_preserves_row_order_and_counts_work() {
        let work = WorkCounter::new();
        let rows = drain(&mut TableScan::new(t(), work.clone()), DRAIN_BUDGET);
        assert_eq!(rows.len(), 5);
        assert_eq!(rows[0][0], Value::Int(0));
        assert_eq!(rows[4][1], Value::Int(40));
        assert_eq!(work.snapshot().tuples_moved, 5);
    }

    #[test]
    fn billed_scans_charge_one_load_per_row() {
        let handle = Obs::new(CostModel::pentium()).into_handle();
        let before = handle.borrow().clock();
        let rows = scan_rows(&t(), Some(handle.clone()));
        let obs = Obs::try_unwrap(handle).expect("sole handle");
        assert_eq!(rows.len(), 5);
        assert_eq!(obs.metrics.counter("systab.scan.rows"), 5);
        assert!(obs.clock() > before, "every row costs cycles");
    }

    #[test]
    fn billed_filter_count_and_sum_charge_every_table_row() {
        let table = t();
        let pred = Pred::gt(0, Value::Int(3)); // one match in five rows
        let load = Primitive::Load.cost(&CostModel::pentium());
        let handle = Obs::new(CostModel::pentium()).into_handle();
        let c0 = handle.borrow().clock();
        assert_eq!(filter_count(&table, pred.clone(), Some(handle.clone())), 1);
        let c1 = handle.borrow().clock();
        assert_eq!(sum_int(&table, 1, pred, Some(handle.clone())), 40);
        let c2 = handle.borrow().clock();
        assert_eq!(c1 - c0, 5 * load, "filter_count bills every row the filter pulls");
        assert_eq!(c2 - c1, 5 * load, "sum_int bills every row the filter pulls");
        let obs = Obs::try_unwrap(handle).expect("sole handle");
        assert_eq!(obs.metrics.counter("systab.scan.rows"), 10);

        let empty = Table::new(table.schema().clone());
        let handle = Obs::new(CostModel::pentium()).into_handle();
        assert_eq!(filter_count(&empty, Pred::True, Some(handle.clone())), 0);
        assert_eq!(sum_int(&empty, 1, Pred::True, Some(handle.clone())), 0);
        let obs = Obs::try_unwrap(handle).expect("sole handle");
        assert_eq!(obs.clock(), 0, "an empty scan costs nothing");
        assert!(obs.metrics.snapshot().counters.is_empty(), "and creates no counter");
    }

    #[test]
    fn filter_count_and_sum_run_through_the_operators() {
        let table = t();
        let pred = Pred::gt(0, Value::Int(1));
        assert_eq!(filter_count(&table, pred.clone(), None), 3);
        assert_eq!(sum_int(&table, 1, pred, None), 90);
        assert_eq!(sum_int(&table, 1, Pred::True, None), 100);
    }
}
