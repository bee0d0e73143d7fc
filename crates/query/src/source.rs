//! Sources: table scans and the delayed/bursty sources that motivate
//! adaptive operators.
//!
//! "The nature of Internet applications querying data from highly
//! heterogeneous distributed databases over wide-area networks" (Section 2)
//! means sources stall: an initial connection delay, then bursts separated
//! by gaps. [`DelayedScan`] reproduces that deterministic shape so every
//! adaptive-vs-static comparison is repeatable.

use crate::op::{Operator, Poll, WorkCounter};
use datacomp::{Schema, Table};

/// A plain in-memory table scan: always ready.
#[derive(Debug, Clone)]
pub struct TableScan {
    table: Table,
    pos: usize,
    work: WorkCounter,
}

impl TableScan {
    /// Scan a table.
    #[must_use]
    pub fn new(table: Table, work: WorkCounter) -> Self {
        Self { table, pos: 0, work }
    }

    /// Rows delivered so far (the executor records this at safe points).
    #[must_use]
    pub fn position(&self) -> usize {
        self.pos
    }
}

impl Operator for TableScan {
    fn schema(&self) -> &Schema {
        self.table.schema()
    }

    fn poll(&mut self) -> Poll {
        match self.table.rows().get(self.pos) {
            Some(r) => {
                self.pos += 1;
                self.work.moved(1);
                Poll::Ready(r.clone())
            }
            None => Poll::Done,
        }
    }
}

/// The arrival pattern of a remote source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArrivalPattern {
    /// Polls before the first tuple arrives (connection + first byte).
    pub initial_delay: u64,
    /// Tuples delivered per burst.
    pub burst: u64,
    /// Polls of silence between bursts.
    pub gap: u64,
}

/// A scan over a remote table with a deterministic arrival pattern.
#[derive(Debug, Clone)]
pub struct DelayedScan {
    table: Table,
    pos: usize,
    pattern: ArrivalPattern,
    clock: u64,
    delivered_in_burst: u64,
    next_ready_at: u64,
    work: WorkCounter,
}

impl DelayedScan {
    /// Scan `table` with `pattern`.
    #[must_use]
    pub fn new(table: Table, pattern: ArrivalPattern, work: WorkCounter) -> Self {
        Self {
            table,
            pos: 0,
            pattern,
            clock: 0,
            delivered_in_burst: 0,
            next_ready_at: pattern.initial_delay,
            work,
        }
    }

    /// Rows delivered so far.
    #[must_use]
    pub fn position(&self) -> usize {
        self.pos
    }
}

impl Operator for DelayedScan {
    fn schema(&self) -> &Schema {
        self.table.schema()
    }

    fn poll(&mut self) -> Poll {
        if self.pos >= self.table.len() {
            return Poll::Done;
        }
        self.clock += 1;
        if self.clock <= self.next_ready_at {
            self.work.stall();
            return Poll::Pending;
        }
        let row = self.table.rows()[self.pos].clone();
        self.pos += 1;
        self.work.moved(1);
        self.delivered_in_burst += 1;
        if self.delivered_in_burst >= self.pattern.burst {
            self.delivered_in_burst = 0;
            self.next_ready_at = self.clock + self.pattern.gap;
        }
        Poll::Ready(row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::drain;
    use datacomp::{ColumnType, Value};

    fn table(n: i64) -> Table {
        let schema = Schema::new(&[("id", ColumnType::Int)]).unwrap();
        let mut t = Table::new(schema);
        for i in 0..n {
            t.insert(vec![Value::Int(i)]).unwrap();
        }
        t
    }

    #[test]
    fn table_scan_delivers_all_in_order() {
        let w = WorkCounter::new();
        let mut s = TableScan::new(table(5), w.clone());
        let rows = drain(&mut s, 0);
        assert_eq!(rows.len(), 5);
        assert_eq!(*rows[3], [Value::Int(3)]);
        assert_eq!(w.snapshot().tuples_moved, 5);
        assert_eq!(s.poll(), Poll::Done, "stays done");
    }

    #[test]
    fn delayed_scan_stalls_then_bursts() {
        let w = WorkCounter::new();
        let pat = ArrivalPattern { initial_delay: 3, burst: 2, gap: 2 };
        let mut s = DelayedScan::new(table(4), pat, w.clone());
        let mut trace = Vec::new();
        loop {
            match s.poll() {
                Poll::Ready(_) => trace.push('R'),
                Poll::Pending => trace.push('.'),
                Poll::Done => break,
            }
        }
        // 3 stalls, 2 rows, 2 stalls, 2 rows.
        assert_eq!(trace.iter().collect::<String>(), "...RR..RR");
        assert_eq!(w.snapshot().stalls, 5);
    }

    #[test]
    fn immediate_pattern_never_stalls() {
        let mut s = DelayedScan::new(
            table(10),
            ArrivalPattern { initial_delay: 0, burst: u64::MAX, gap: 0 },
            WorkCounter::new(),
        );
        assert_eq!(drain(&mut s, 0).len(), 10);
    }
}
