//! The billed system-table scan, plus small query helpers the invariant
//! tiers share.

use datacomp::{Row, Schema, Table, Value};
use obs::{ObsHandle, Primitive};
use query::basic::Filter;
use query::expr::Pred;
use query::op::drain;
use query::{Operator, Poll, WorkCounter};

/// Budget for [`drain`] over system-table pipelines: scans never stall,
/// so any nonzero budget works; 64 keeps a misbehaving operator loud.
const DRAIN_BUDGET: u64 = 64;

/// A scan over a frozen system table. Identical to
/// [`query::source::TableScan`] in row order and [`WorkCounter`]
/// accounting, plus cycle billing: with a hub armed, every row served
/// charges one [`Primitive::Load`] and bumps the `systab.scan.rows`
/// counter — introspection pays its way through the same cost model as
/// the work it observes.
#[derive(Debug)]
pub(crate) struct SysScan {
    table: Table,
    pos: usize,
    work: WorkCounter,
    obs: Option<ObsHandle>,
}

impl SysScan {
    /// Scan `table` without cycle billing (work units still counted).
    #[must_use]
    pub(crate) fn new(table: Table, work: WorkCounter) -> Self {
        Self { table, pos: 0, work, obs: None }
    }

    /// Scan `table` billing one load per row into `obs`.
    #[must_use]
    pub(crate) fn billed(table: Table, work: WorkCounter, obs: ObsHandle) -> Self {
        Self { table, pos: 0, work, obs: Some(obs) }
    }
}

impl Operator for SysScan {
    fn schema(&self) -> &Schema {
        self.table.schema()
    }

    fn poll(&mut self) -> Poll {
        match self.table.rows().get(self.pos) {
            Some(row) => {
                self.pos += 1;
                self.work.moved(1);
                if let Some(h) = &self.obs {
                    let mut o = h.borrow_mut();
                    o.charge(Primitive::Load);
                    o.metrics.counter_add("systab.scan.rows", 1);
                }
                Poll::Ready(row.clone())
            }
            None => Poll::Done,
        }
    }
}

/// Scan a whole system table (billed when `obs` is given) and return
/// its rows. The workhorse of the invariant tiers.
#[must_use]
pub fn scan_rows(table: &Table, obs: Option<ObsHandle>) -> Vec<Row> {
    let work = WorkCounter::new();
    let mut scan = match obs {
        Some(h) => SysScan::billed(table.clone(), work, h),
        None => SysScan::new(table.clone(), work),
    };
    drain(&mut scan, DRAIN_BUDGET)
}

/// Count the rows of `table` matching `pred`, evaluated with the query
/// operators (scan → filter), billed when `obs` is given.
#[must_use]
pub fn filter_count(table: &Table, pred: Pred, obs: Option<ObsHandle>) -> u64 {
    let work = WorkCounter::new();
    let scan: Box<dyn Operator> = match obs {
        Some(h) => Box::new(SysScan::billed(table.clone(), work.clone(), h)),
        None => Box::new(SysScan::new(table.clone(), work.clone())),
    };
    let mut plan = Filter::new(scan, pred, work);
    drain(&mut plan, DRAIN_BUDGET).len() as u64
}

/// Sum an integer column of `table` over the rows matching `pred`
/// (`Null` cells contribute nothing), billed when `obs` is given.
#[must_use]
pub fn sum_int(table: &Table, col: usize, pred: Pred, obs: Option<ObsHandle>) -> i64 {
    let work = WorkCounter::new();
    let scan: Box<dyn Operator> = match obs {
        Some(h) => Box::new(SysScan::billed(table.clone(), work.clone(), h)),
        None => Box::new(SysScan::new(table.clone(), work.clone())),
    };
    let mut plan = Filter::new(scan, pred, work);
    drain(&mut plan, DRAIN_BUDGET)
        .iter()
        .filter_map(|row| match row.get(col) {
            Some(Value::Int(v)) => Some(*v),
            _ => None,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use datacomp::ColumnType;
    use obs::{CostModel, Obs};

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
        let mut scan = SysScan::new(t(), work.clone());
        let rows = drain(&mut scan, DRAIN_BUDGET);
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
    fn filter_count_and_sum_run_through_the_operators() {
        let table = t();
        let pred = Pred::gt(0, Value::Int(1));
        assert_eq!(filter_count(&table, pred.clone(), None), 3);
        assert_eq!(sum_int(&table, 1, pred, None), 90);
        assert_eq!(sum_int(&table, 1, Pred::True, None), 100);
    }
}
