//! An eddy — Avnur & Hellerstein \[1\]: continuously adaptive routing of
//! tuples through a pool of operators.
//!
//! This eddy routes tuples through a pool of *selection* predicates, the
//! setting where the routing policy is cleanly observable. Each tuple
//! carries a done-set; the eddy picks the next predicate by the classic
//! rank rule — highest observed drop-rate per unit cost first — with
//! estimates updated after **every** evaluation. When the data's
//! characteristics drift mid-stream (the paper's "query's answer to change
//! as requirements change dynamically at run time" world), the routing
//! order re-sorts itself without replanning.
//!
//! The original eddy uses a randomised lottery; we use the deterministic
//! limit of the same idea (route to the current best rank) so simulations
//! are exactly reproducible. The adaptation dynamics — cheap and selective
//! predicates earn earlier positions as evidence accumulates — are the
//! same.

use crate::expr::Pred;
use crate::op::{Operator, Poll, WorkCounter};
use datacomp::Schema;

/// One predicate in the eddy's pool.
#[derive(Debug, Clone)]
pub struct EddyPred {
    /// The predicate.
    pub pred: Pred,
    /// Relative evaluation cost (work units per evaluation).
    pub cost: u64,
    seen: u64,
    dropped: u64,
}

impl EddyPred {
    /// A pool entry.
    #[must_use]
    pub fn new(pred: Pred, cost: u64) -> Self {
        Self { pred, cost, seen: 0, dropped: 0 }
    }

    /// Observed drop rate with optimistic prior (unseen predicates look
    /// 50/50 so they get tried early).
    #[must_use]
    pub(crate) fn drop_rate(&self) -> f64 {
        (self.dropped as f64 + 1.0) / (self.seen as f64 + 2.0)
    }

    /// The routing rank: drop-rate per unit cost, higher = route earlier.
    #[must_use]
    pub fn rank(&self) -> f64 {
        self.drop_rate() / self.cost.max(1) as f64
    }

    /// Evaluations so far.
    #[must_use]
    pub fn evaluations(&self) -> u64 {
        self.seen
    }
}

/// The eddy operator.
#[derive(Debug)]
pub struct Eddy {
    source: Box<dyn Operator>,
    pool: Vec<EddyPred>,
    work: WorkCounter,
}

impl Eddy {
    /// An eddy filtering `source` through `pool`.
    #[must_use]
    pub fn new(source: Box<dyn Operator>, pool: Vec<EddyPred>, work: WorkCounter) -> Self {
        Self { source, pool, work }
    }

    /// The pool, with its live statistics.
    #[must_use]
    pub fn pool(&self) -> &[EddyPred] {
        &self.pool
    }
}

impl Operator for Eddy {
    fn schema(&self) -> &Schema {
        self.source.schema()
    }

    fn poll(&mut self) -> Poll {
        loop {
            let row = match self.source.poll() {
                Poll::Ready(r) => r,
                other => return other,
            };
            self.work.moved(1);
            let mut done = vec![false; self.pool.len()];
            let mut dropped = false;
            for _ in 0..self.pool.len() {
                // Route to the best-ranked not-yet-applied predicate.
                let next = (0..self.pool.len())
                    .filter(|&i| !done[i])
                    .max_by(|&a, &b| {
                        self.pool[a].rank().total_cmp(&self.pool[b].rank()).then(b.cmp(&a))
                    })
                    .expect("at least one predicate remains");
                done[next] = true;
                let p = &mut self.pool[next];
                p.seen += 1;
                self.work.compare(p.cost);
                if !p.pred.eval(&row) {
                    p.dropped += 1;
                    dropped = true;
                    break;
                }
            }
            if !dropped {
                return Poll::Ready(row);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::drain;
    use crate::source::TableScan;
    use datacomp::{ColumnType, Table, Value};

    /// Column 0 in [0, 100); column 1 in [0, 100).
    fn table(rows: &[(i64, i64)]) -> Table {
        let schema = Schema::new(&[("a", ColumnType::Int), ("b", ColumnType::Int)]).unwrap();
        let mut t = Table::new(schema);
        for (a, b) in rows {
            t.insert(vec![Value::Int(*a), Value::Int(*b)]).unwrap();
        }
        t
    }

    /// The predicate a fresh tuple would be routed to first.
    fn leader(eddy: &Eddy) -> usize {
        let pool = eddy.pool();
        (0..pool.len())
            .max_by(|&a, &b| pool[a].rank().total_cmp(&pool[b].rank()).then(b.cmp(&a)))
            .unwrap()
    }

    fn uniform(n: i64) -> Table {
        table(&(0..n).map(|i| (i % 100, (i * 7) % 100)).collect::<Vec<_>>())
    }

    #[test]
    fn output_equals_conjunctive_filter() {
        let t = uniform(500);
        let p1 = Pred::lt(0, Value::Int(50));
        let p2 = Pred::gt(1, Value::Int(20));
        let w = WorkCounter::new();
        let mut eddy = Eddy::new(
            Box::new(TableScan::new(t.clone(), w.clone())),
            vec![EddyPred::new(p1.clone(), 1), EddyPred::new(p2.clone(), 1)],
            w,
        );
        let got = drain(&mut eddy, 0);
        let expected: Vec<_> =
            t.rows().iter().filter(|r| p1.eval(r) && p2.eval(r)).cloned().collect();
        assert_eq!(got, expected, "eddy must not change the result");
    }

    #[test]
    fn routes_to_the_selective_predicate_first() {
        // p_selective drops 99%; p_lax drops 1%. After a warm-up the eddy
        // must evaluate p_selective far more often than p_lax (tuples die
        // at the first stop).
        let t = uniform(2000);
        let selective = Pred::lt(0, Value::Int(1)); // ~1% pass
        let lax = Pred::lt(0, Value::Int(99)); // ~99% pass
        let w = WorkCounter::new();
        let mut eddy = Eddy::new(
            Box::new(TableScan::new(t, w.clone())),
            vec![EddyPred::new(lax, 1), EddyPred::new(selective, 1)],
            w,
        );
        let _ = drain(&mut eddy, 0);
        let evals: Vec<u64> = eddy.pool().iter().map(EddyPred::evaluations).collect();
        assert!(
            evals[1] > evals[0] * 5,
            "selective pred should see most tuples: lax={} selective={}",
            evals[0],
            evals[1]
        );
        assert_eq!(leader(&eddy), 1);
    }

    #[test]
    fn adapts_when_data_drifts_mid_stream() {
        // Phase 1 (1000 rows): 90% a=0 (pred A drops), 10% a=50 (both
        // pass). Phase 2 (1000 rows): 90% a=99 (pred B drops), 10% a=50.
        // The eddy must flip its routing order when the data drifts.
        let mut rows: Vec<(i64, i64)> =
            (0..1000).map(|i| (if i % 10 == 0 { 50 } else { 0 }, 0)).collect();
        rows.extend((0..1000).map(|i| (if i % 10 == 0 { 50 } else { 99 }, 0)));
        let t = table(&rows);
        let pred_a = Pred::Not(Box::new(Pred::eq(0, Value::Int(0)))); // drops phase-1 bulk
        let pred_b = Pred::Not(Box::new(Pred::eq(0, Value::Int(99)))); // drops phase-2 bulk
        let w = WorkCounter::new();
        let mut eddy = Eddy::new(
            Box::new(TableScan::new(t, w.clone())),
            vec![EddyPred::new(pred_a, 1), EddyPred::new(pred_b, 1)],
            w,
        );
        // Phase 1 yields exactly 100 passing rows; consume them.
        for _ in 0..100 {
            assert!(matches!(eddy.poll(), Poll::Ready(_)));
        }
        assert_eq!(leader(&eddy), 0, "phase 1: pred A leads (it drops 90%)");
        let rest = drain(&mut eddy, 0);
        assert_eq!(rest.len(), 100, "phase 2 passes its 10%");
        assert_eq!(leader(&eddy), 1, "after the drift, pred B must have taken the lead");
    }

    #[test]
    fn cost_weighting_prefers_cheap_predicates() {
        // Equal selectivity, very different costs: the cheap one goes first.
        let t = uniform(1000);
        let p = Pred::lt(0, Value::Int(50));
        let w = WorkCounter::new();
        let mut eddy = Eddy::new(
            Box::new(TableScan::new(t, w.clone())),
            vec![EddyPred::new(p.clone(), 100), EddyPred::new(p, 1)],
            w,
        );
        let _ = drain(&mut eddy, 0);
        assert_eq!(leader(&eddy), 1);
        let evals: Vec<u64> = eddy.pool().iter().map(EddyPred::evaluations).collect();
        assert!(evals[1] > evals[0]);
    }

    #[test]
    fn eddy_beats_a_bad_fixed_order() {
        // Fixed bad order: lax first (evaluates both preds on ~every tuple).
        let t = uniform(2000);
        let selective = Pred::lt(0, Value::Int(1));
        let lax = Pred::lt(0, Value::Int(99));
        // Fixed order cost: lax on all, selective on ~99%.
        let fixed_cost: u64 = {
            let mut evals = 0u64;
            for r in t.rows() {
                evals += 1;
                if lax.eval(r) {
                    evals += 1;
                }
            }
            evals
        };
        let w = WorkCounter::new();
        let mut eddy = Eddy::new(
            Box::new(TableScan::new(t, w.clone())),
            vec![EddyPred::new(lax, 1), EddyPred::new(selective, 1)],
            w,
        );
        let _ = drain(&mut eddy, 0);
        let eddy_cost: u64 = eddy.pool().iter().map(|p| p.evaluations() * p.cost).sum();
        assert!(
            (eddy_cost as f64) < fixed_cost as f64 * 0.65,
            "eddy {eddy_cost} vs fixed {fixed_cost}"
        );
    }
}
