//! The pipelined (symmetric) hash join — Wilschut & Apers' dataflow join,
//! reference \[31\] of the paper.
//!
//! Both inputs are hashed as they arrive; each arriving tuple is inserted
//! into its side's table and immediately probed against the other side's.
//! Results therefore stream from the first moment both sides have matching
//! tuples — no build/probe barrier — and a stall on one input never blocks
//! progress on the other. That is exactly the property the paper's
//! inter-device queries need on wireless links.

use crate::join_table::{Cursor, JoinTable};
use crate::op::{Operator, Poll, WorkCounter};
use datacomp::{concat, Row, Schema};

/// The symmetric hash join.
#[derive(Debug)]
pub struct SymmetricHashJoin {
    left: Box<dyn Operator>,
    right: Box<dyn Operator>,
    left_keys: Vec<usize>,
    right_keys: Vec<usize>,
    left_table: JoinTable,
    right_table: JoinTable,
    left_done: bool,
    right_done: bool,
    /// The last absorbed row, whether it came from the left, and its next
    /// match in the other side's table; `None` once no match is left.
    current: Option<(Row, bool, Cursor)>,
    /// Alternate which side we poll first, for fairness.
    poll_left_first: bool,
    schema: Schema,
    work: WorkCounter,
}

impl SymmetricHashJoin {
    /// Join `left ⋈ right` on `left_keys = right_keys`.
    #[must_use]
    pub fn new(
        left: Box<dyn Operator>,
        right: Box<dyn Operator>,
        left_keys: Vec<usize>,
        right_keys: Vec<usize>,
        work: WorkCounter,
    ) -> Self {
        let schema = left.schema().join(right.schema());
        Self {
            left,
            right,
            left_keys,
            right_keys,
            left_table: JoinTable::default(),
            right_table: JoinTable::default(),
            left_done: false,
            right_done: false,
            current: None,
            poll_left_first: true,
            schema,
            work,
        }
    }

    /// Tuples currently held in memory (both hash tables).
    #[cfg(test)]
    fn buffered(&self) -> usize {
        self.left_table.len() + self.right_table.len()
    }

    /// Insert `row` into its side's table and aim `current` at its
    /// matches in the other side's, newest first.
    fn absorb(&mut self, from_left: bool, row: Row) {
        self.work.hash_insert();
        self.work.hash_probe(1);
        let at = if from_left {
            self.left_table.insert(row.clone(), &self.left_keys);
            self.right_table.probe(&row, &self.left_keys)
        } else {
            self.right_table.insert(row.clone(), &self.right_keys);
            self.left_table.probe(&row, &self.right_keys)
        };
        self.current = (!at.is_done()).then_some((row, from_left, at));
    }
}

impl Operator for SymmetricHashJoin {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn poll(&mut self) -> Poll {
        loop {
            if let Some((row, from_left, at)) = &mut self.current {
                let other = if *from_left { &self.right_table } else { &self.left_table };
                if let Some(m) = other.step(at) {
                    self.work.moved(1);
                    return Poll::Ready(if *from_left { concat(row, m) } else { concat(m, row) });
                }
                self.current = None;
            }
            if self.left_done && self.right_done {
                return Poll::Done;
            }
            let mut progressed = false;
            let order = if self.poll_left_first { [true, false] } else { [false, true] };
            self.poll_left_first = !self.poll_left_first;
            for from_left in order {
                let done = if from_left { self.left_done } else { self.right_done };
                if done {
                    continue;
                }
                let side = if from_left { &mut self.left } else { &mut self.right };
                match side.poll() {
                    Poll::Ready(row) => {
                        self.absorb(from_left, row);
                        progressed = true;
                    }
                    Poll::Pending => {}
                    Poll::Done => {
                        if from_left {
                            self.left_done = true;
                        } else {
                            self.right_done = true;
                        }
                        progressed = true;
                    }
                }
                if self.current.is_some() {
                    break;
                }
            }
            if !progressed && self.current.is_none() {
                return Poll::Pending;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basic::HashJoin;
    use crate::op::drain;
    use crate::source::{ArrivalPattern, DelayedScan, TableScan};
    use datacomp::{ColumnType, Table, Value};

    fn table(pairs: &[(i64, i64)]) -> Table {
        let schema = Schema::new(&[("k", ColumnType::Int), ("v", ColumnType::Int)]).unwrap();
        let mut t = Table::new(schema);
        for (k, v) in pairs {
            t.insert(vec![Value::Int(*k), Value::Int(*v)]).unwrap();
        }
        t
    }

    fn left() -> Table {
        table(&[(1, 100), (2, 200), (2, 201), (3, 300)])
    }

    fn right() -> Table {
        table(&[(2, 9000), (3, 9001), (3, 9002), (4, 9003)])
    }

    /// left ⋈ right on k: keys 2 (2×1) and 3 (1×2) → 4 results.
    const EXPECTED: usize = 4;

    #[test]
    fn matches_static_hash_join_oracle() {
        let w = WorkCounter::new();
        let mut shj = SymmetricHashJoin::new(
            Box::new(TableScan::new(left(), w.clone())),
            Box::new(TableScan::new(right(), w.clone())),
            vec![0],
            vec![0],
            w,
        );
        let mut got = drain(&mut shj, 10);
        got.sort();
        let w2 = WorkCounter::new();
        let mut hj = HashJoin::new(
            Box::new(TableScan::new(left(), w2.clone())),
            Box::new(TableScan::new(right(), w2.clone())),
            vec![0],
            vec![0],
            true,
            w2,
        );
        let mut oracle = drain(&mut hj, 10);
        oracle.sort();
        assert_eq!(got.len(), EXPECTED);
        assert_eq!(got, oracle);
    }

    #[test]
    fn produces_results_before_either_side_finishes() {
        let w = WorkCounter::new();
        let mut shj = SymmetricHashJoin::new(
            Box::new(TableScan::new(left(), w.clone())),
            Box::new(TableScan::new(right(), w.clone())),
            vec![0],
            vec![0],
            w,
        );
        // Poll until the first result; count how many source tuples were
        // consumed (buffered) at that moment.
        let mut polls = 0;
        loop {
            polls += 1;
            match shj.poll() {
                Poll::Ready(_) => break,
                Poll::Pending => {}
                Poll::Done => panic!("join must produce {EXPECTED} rows"),
            }
            assert!(polls < 100);
        }
        assert!(
            shj.buffered() < left().len() + right().len(),
            "first result must arrive before both inputs are fully consumed"
        );
    }

    #[test]
    fn stalled_side_does_not_block_the_other() {
        let w = WorkCounter::new();
        // Right side stalls for 50 polls before its first tuple; left is
        // immediate. SHJ keeps absorbing left tuples during the stall.
        let slow = ArrivalPattern { initial_delay: 50, burst: u64::MAX, gap: 0 };
        let mut shj = SymmetricHashJoin::new(
            Box::new(TableScan::new(left(), w.clone())),
            Box::new(DelayedScan::new(right(), slow, w.clone())),
            vec![0],
            vec![0],
            w,
        );
        // After a handful of polls (≪ 50), all 4 left tuples are in memory.
        for _ in 0..6 {
            let _ = shj.poll();
        }
        assert!(shj.buffered() >= left().len());
        let got = drain(&mut shj, 200);
        assert_eq!(got.len(), EXPECTED);
    }

    #[test]
    fn empty_sides() {
        let w = WorkCounter::new();
        let empty = Table::new(left().schema().clone());
        let mut shj = SymmetricHashJoin::new(
            Box::new(TableScan::new(empty, w.clone())),
            Box::new(TableScan::new(right(), w.clone())),
            vec![0],
            vec![0],
            w,
        );
        assert!(drain(&mut shj, 10).is_empty());
    }

    #[test]
    fn duplicate_heavy_keys() {
        let w = WorkCounter::new();
        let l = table(&[(7, 1), (7, 2), (7, 3)]);
        let r = table(&[(7, 4), (7, 5)]);
        let mut shj = SymmetricHashJoin::new(
            Box::new(TableScan::new(l, w.clone())),
            Box::new(TableScan::new(r, w.clone())),
            vec![0],
            vec![0],
            w,
        );
        assert_eq!(drain(&mut shj, 10).len(), 6);
    }
}
