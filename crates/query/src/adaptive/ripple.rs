//! The block ripple join — Haas & Hellerstein \[14\] — with online
//! aggregation running estimates \[15\].
//!
//! The ripple join draws blocks from each input alternately, expanding a
//! rectangle in the cross-product space and joining each new block against
//! everything seen from the other side. Its purpose is **online
//! aggregation**: at any moment the fraction of the cross product explored
//! is known, so an aggregate over the join can be *estimated* long before
//! the join completes — the paper's "ability to cope with slightly
//! out-of-date data" and "result approximation" thread.
//!
//! [`RippleJoin::estimate`] scales the running aggregate by the unexplored
//! fraction, and reports the explored fraction as a confidence proxy.

use crate::join_table::keys_eq;
use crate::op::{Operator, Poll, WorkCounter};
use datacomp::{concat, Row, Schema};

/// Which aggregate the online estimator tracks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggKind {
    /// COUNT(*) over join results.
    Count,
    /// SUM(col) over join results (column index in the join output).
    Sum(usize),
}

/// A running estimate of the aggregate over the *complete* join.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlineEstimate {
    /// The scaled-up estimate of the final aggregate.
    pub estimate: f64,
    /// The exact aggregate over results produced so far.
    pub running: f64,
    /// Fraction of the cross-product rectangle explored, in \[0, 1\].
    pub explored: f64,
}

/// The block ripple join.
#[derive(Debug)]
pub struct RippleJoin {
    left: Box<dyn Operator>,
    right: Box<dyn Operator>,
    left_keys: Vec<usize>,
    right_keys: Vec<usize>,
    left_rows: Vec<Row>,
    right_rows: Vec<Row>,
    left_done: bool,
    right_done: bool,
    /// Rows per block drawn from a side per step.
    block: usize,
    /// Next side to expand: true = left.
    expand_left: bool,
    pending: Vec<Row>,
    agg: AggKind,
    running: f64,
    /// Known/estimated input sizes for scaling (taken as "at least what
    /// we've seen" until a side completes).
    schema: Schema,
    work: WorkCounter,
}

impl RippleJoin {
    /// A block ripple join with the given block size.
    ///
    /// # Panics
    /// If `block` is zero.
    #[must_use]
    pub fn new(
        left: Box<dyn Operator>,
        right: Box<dyn Operator>,
        left_keys: Vec<usize>,
        right_keys: Vec<usize>,
        block: usize,
        agg: AggKind,
        work: WorkCounter,
    ) -> Self {
        assert!(block > 0, "block size must be positive");
        let schema = left.schema().join(right.schema());
        Self {
            left,
            right,
            left_keys,
            right_keys,
            left_rows: Vec::new(),
            right_rows: Vec::new(),
            left_done: false,
            right_done: false,
            block,
            expand_left: true,
            pending: Vec::new(),
            agg,
            running: 0.0,
            schema,
            work,
        }
    }

    fn record(&mut self, out: &Row) {
        self.running += match self.agg {
            AggKind::Count => 1.0,
            AggKind::Sum(col) => out[col].as_f64().unwrap_or(0.0),
        };
    }

    /// The online estimate, scaled by the unexplored cross-product area.
    ///
    /// With `l` of `L` left rows and `r` of `R` right rows seen, the
    /// explored rectangle is `l·r / (L·R)`; under the ripple sampling
    /// assumption the final aggregate ≈ running / explored. Until a side is
    /// done its total is unknown; the estimator then uses the seen count as
    /// a lower bound, making the estimate conservative.
    #[must_use]
    pub fn estimate(
        &self,
        left_total_hint: Option<usize>,
        right_total_hint: Option<usize>,
    ) -> OnlineEstimate {
        let l_seen = self.left_rows.len().max(1);
        let r_seen = self.right_rows.len().max(1);
        let l_total = if self.left_done {
            self.left_rows.len()
        } else {
            left_total_hint.unwrap_or(self.left_rows.len())
        }
        .max(1);
        let r_total = if self.right_done {
            self.right_rows.len()
        } else {
            right_total_hint.unwrap_or(self.right_rows.len())
        }
        .max(1);
        let explored = (l_seen as f64 * r_seen as f64) / (l_total as f64 * r_total as f64);
        let explored = explored.min(1.0);
        OnlineEstimate {
            estimate: if explored > 0.0 { self.running / explored } else { 0.0 },
            running: self.running,
            explored,
        }
    }

    /// Expand one side by up to `block` rows, joining each new row against
    /// the other side's seen rows. Returns whether any source progress was
    /// made (false = the polled side stalled).
    fn expand(&mut self, left_side: bool) -> bool {
        let mut progressed = false;
        for _ in 0..self.block {
            let side = if left_side { &mut self.left } else { &mut self.right };
            match side.poll() {
                Poll::Ready(row) => {
                    progressed = true;
                    self.work.moved(1);
                    let (new_keys, other_rows, other_keys) = if left_side {
                        (&self.left_keys, &self.right_rows, &self.right_keys)
                    } else {
                        (&self.right_keys, &self.left_rows, &self.left_keys)
                    };
                    let mut produced = Vec::new();
                    for other in other_rows {
                        self.work.compare(1);
                        if keys_eq(other, other_keys, &row, new_keys) {
                            let out =
                                if left_side { concat(&row, other) } else { concat(other, &row) };
                            produced.push(out);
                        }
                    }
                    for out in produced {
                        self.record(&out);
                        self.pending.push(out);
                    }
                    if left_side {
                        self.left_rows.push(row);
                    } else {
                        self.right_rows.push(row);
                    }
                }
                Poll::Pending => break,
                Poll::Done => {
                    if left_side {
                        self.left_done = true;
                    } else {
                        self.right_done = true;
                    }
                    progressed = true;
                    break;
                }
            }
        }
        progressed
    }
}

impl Operator for RippleJoin {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn poll(&mut self) -> Poll {
        loop {
            if let Some(r) = self.pending.pop() {
                return Poll::Ready(r);
            }
            if self.left_done && self.right_done {
                return Poll::Done;
            }
            // Alternate sides; skip a finished side; fall back to the other
            // side when the preferred one stalls (ripple's corner-turn).
            let prefer_left = if self.left_done {
                false
            } else if self.right_done {
                true
            } else {
                self.expand_left
            };
            self.expand_left = !prefer_left;
            let progressed = self.expand(prefer_left) || {
                let other = !prefer_left;
                let other_done = if other { self.left_done } else { self.right_done };
                !other_done && self.expand(other)
            };
            if !progressed && self.pending.is_empty() {
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
    use crate::source::TableScan;
    use datacomp::{ColumnType, Table, Value};

    fn table(n: i64, dup_every: i64) -> Table {
        let schema = Schema::new(&[("k", ColumnType::Int), ("v", ColumnType::Int)]).unwrap();
        let mut t = Table::new(schema);
        for i in 0..n {
            t.insert(vec![Value::Int(i % dup_every), Value::Int(i)]).unwrap();
        }
        t
    }

    fn oracle(l: &Table, r: &Table) -> Vec<Row> {
        let w = WorkCounter::new();
        let mut hj = HashJoin::new(
            Box::new(TableScan::new(l.clone(), w.clone())),
            Box::new(TableScan::new(r.clone(), w.clone())),
            vec![0],
            vec![0],
            true,
            w,
        );
        let mut rows = drain(&mut hj, 10);
        rows.sort();
        rows
    }

    #[test]
    fn matches_oracle() {
        let l = table(30, 5);
        let r = table(20, 5);
        let w = WorkCounter::new();
        let mut rj = RippleJoin::new(
            Box::new(TableScan::new(l.clone(), w.clone())),
            Box::new(TableScan::new(r.clone(), w.clone())),
            vec![0],
            vec![0],
            3,
            AggKind::Count,
            w,
        );
        let mut rows = drain(&mut rj, 10);
        rows.sort();
        assert_eq!(rows, oracle(&l, &r));
    }

    #[test]
    fn count_estimate_converges_to_truth() {
        let l = table(60, 6);
        let r = table(60, 6);
        let truth = oracle(&l, &r).len() as f64;
        let w = WorkCounter::new();
        let mut rj = RippleJoin::new(
            Box::new(TableScan::new(l, w.clone())),
            Box::new(TableScan::new(r, w.clone())),
            vec![0],
            vec![0],
            4,
            AggKind::Count,
            w,
        );
        let mut last_err = f64::INFINITY;
        let mut checks = 0;
        #[allow(clippy::while_let_loop)] // Done must break; the match arms differ in kind
        loop {
            match rj.poll() {
                Poll::Ready(_) | Poll::Pending => {
                    let est = rj.estimate(Some(60), Some(60));
                    if est.explored > 0.2 {
                        let err = (est.estimate - truth).abs() / truth;
                        // Uniform key distribution: estimate within 60%
                        // once a fifth of the rectangle is explored.
                        assert!(err < 0.6, "err {err} at explored {}", est.explored);
                        last_err = err;
                        checks += 1;
                    }
                }
                Poll::Done => break,
            }
        }
        assert!(checks > 0);
        let fin = rj.estimate(Some(60), Some(60));
        assert!((fin.estimate - truth).abs() < 1e-9, "final estimate exact: {fin:?}");
        assert!((fin.explored - 1.0).abs() < 1e-9);
        assert!(last_err < 1e-9);
    }

    #[test]
    fn sum_estimate_tracks_running_total() {
        let l = table(10, 2);
        let r = table(10, 2);
        let w = WorkCounter::new();
        // SUM over the left `v` column (index 1 of the join output).
        let mut rj = RippleJoin::new(
            Box::new(TableScan::new(l, w.clone())),
            Box::new(TableScan::new(r, w.clone())),
            vec![0],
            vec![0],
            2,
            AggKind::Sum(1),
            w,
        );
        let rows = drain(&mut rj, 10);
        let truth: f64 = rows.iter().map(|r| r[1].as_f64().unwrap()).sum();
        let est = rj.estimate(None, None);
        assert!((est.running - truth).abs() < 1e-9);
        assert!((est.estimate - truth).abs() < 1e-9, "complete join: estimate == truth");
    }

    #[test]
    fn explored_fraction_is_monotone() {
        let l = table(20, 4);
        let r = table(20, 4);
        let w = WorkCounter::new();
        let mut rj = RippleJoin::new(
            Box::new(TableScan::new(l, w.clone())),
            Box::new(TableScan::new(r, w.clone())),
            vec![0],
            vec![0],
            1,
            AggKind::Count,
            w,
        );
        let mut prev = 0.0;
        loop {
            match rj.poll() {
                Poll::Done => break,
                _ => {
                    let e = rj.estimate(Some(20), Some(20)).explored;
                    assert!(e >= prev - 1e-12);
                    prev = e;
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "block size must be positive")]
    fn zero_block_rejected() {
        let w = WorkCounter::new();
        let t = table(1, 1);
        let _ = RippleJoin::new(
            Box::new(TableScan::new(t.clone(), w.clone())),
            Box::new(TableScan::new(t, w.clone())),
            vec![0],
            vec![0],
            0,
            AggKind::Count,
            w,
        );
    }
}
