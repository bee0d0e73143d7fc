//! The static (non-adaptive) operators: the baselines the adaptive
//! operators are measured against, and the pieces the pre-optimiser chooses
//! between in Scenario 3 ("change the join's inner-loop to the outer-loop
//! or add an index to one of the tables").

use crate::expr::Pred;
use crate::join_table::{keys_eq, Cursor, JoinTable};
use crate::op::{Operator, Poll, WorkCounter};
use datacomp::{concat, Row, Schema, Table};

/// Filter: passes rows satisfying a predicate.
#[derive(Debug)]
pub struct Filter {
    child: Box<dyn Operator>,
    pred: Pred,
    work: WorkCounter,
}

impl Filter {
    /// Filter `child` by `pred`.
    #[must_use]
    pub fn new(child: Box<dyn Operator>, pred: Pred, work: WorkCounter) -> Self {
        Self { child, pred, work }
    }
}

impl Operator for Filter {
    fn schema(&self) -> &Schema {
        self.child.schema()
    }

    fn poll(&mut self) -> Poll {
        loop {
            match self.child.poll() {
                Poll::Ready(r) => {
                    self.work.compare(1);
                    if self.pred.eval(&r) {
                        return Poll::Ready(r);
                    }
                }
                other => return other,
            }
        }
    }
}

/// Project: keeps the named column indices, in order.
#[derive(Debug)]
pub struct Project {
    child: Box<dyn Operator>,
    cols: Vec<usize>,
    schema: Schema,
    work: WorkCounter,
}

impl Project {
    /// Project `child` to `cols`.
    ///
    /// # Panics
    /// If a column index is out of range for the child schema.
    #[must_use]
    pub fn new(child: Box<dyn Operator>, cols: Vec<usize>, work: WorkCounter) -> Self {
        let src = child.schema().columns();
        let picked: Vec<(&str, datacomp::ColumnType)> =
            cols.iter().map(|&i| (src[i].name.as_str(), src[i].ty)).collect();
        let schema = Schema::new(&picked).expect("projection of a valid schema is valid");
        Self { child, cols, schema, work }
    }
}

impl Operator for Project {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn poll(&mut self) -> Poll {
        match self.child.poll() {
            Poll::Ready(r) => {
                self.work.moved(1);
                Poll::Ready(self.cols.iter().map(|&i| r[i].clone()).collect())
            }
            other => other,
        }
    }
}

/// Block nested-loop equijoin: materialises the **inner** side, then loops
/// it per outer row. The pre-optimiser's choice of which side is inner is
/// exactly Scenario 3's "change the join's inner-loop to the outer-loop".
#[derive(Debug)]
pub struct NestedLoopJoin {
    outer: Box<dyn Operator>,
    inner: Box<dyn Operator>,
    outer_keys: Vec<usize>,
    inner_keys: Vec<usize>,
    inner_rows: Vec<Row>,
    inner_done: bool,
    current: Option<(Row, usize)>,
    schema: Schema,
    work: WorkCounter,
}

impl NestedLoopJoin {
    /// Join `outer ⋈ inner` on `outer_keys = inner_keys`.
    #[must_use]
    pub fn new(
        outer: Box<dyn Operator>,
        inner: Box<dyn Operator>,
        outer_keys: Vec<usize>,
        inner_keys: Vec<usize>,
        work: WorkCounter,
    ) -> Self {
        let schema = outer.schema().join(inner.schema());
        Self {
            outer,
            inner,
            outer_keys,
            inner_keys,
            inner_rows: Vec::new(),
            inner_done: false,
            current: None,
            schema,
            work,
        }
    }
}

impl Operator for NestedLoopJoin {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn poll(&mut self) -> Poll {
        // Phase 1: materialise the inner side.
        while !self.inner_done {
            match self.inner.poll() {
                Poll::Ready(r) => {
                    self.work.moved(1);
                    self.inner_rows.push(r);
                }
                Poll::Pending => return Poll::Pending,
                Poll::Done => self.inner_done = true,
            }
        }
        // Phase 2: loop inner per outer row.
        loop {
            if let Some((orow, idx)) = &mut self.current {
                while *idx < self.inner_rows.len() {
                    let irow = &self.inner_rows[*idx];
                    *idx += 1;
                    self.work.compare(1);
                    if keys_eq(orow, &self.outer_keys, irow, &self.inner_keys) {
                        let out = concat(orow, irow);
                        return Poll::Ready(out);
                    }
                }
                self.current = None;
            }
            match self.outer.poll() {
                Poll::Ready(r) => {
                    self.work.moved(1);
                    self.current = Some((r, 0));
                }
                Poll::Pending => return Poll::Pending,
                Poll::Done => return Poll::Done,
            }
        }
    }
}

/// Index nested-loop equijoin: the inner side is a materialised table with
/// a prebuilt hash index — Scenario 3's "add an index to one of the tables".
#[derive(Debug)]
pub struct IndexNestedLoopJoin {
    outer: Box<dyn Operator>,
    index: JoinTable,
    outer_keys: Vec<usize>,
    /// The outer row being joined and its next index match.
    current: Option<(Row, Cursor)>,
    schema: Schema,
    work: WorkCounter,
}

impl IndexNestedLoopJoin {
    /// Build the index over `inner` (charged as hash inserts), then stream
    /// `outer` against it.
    #[must_use]
    pub fn new(
        outer: Box<dyn Operator>,
        inner: &Table,
        outer_keys: Vec<usize>,
        inner_keys: &[usize],
        work: WorkCounter,
    ) -> Self {
        let schema = outer.schema().join(inner.schema());
        let mut index = JoinTable::default();
        for row in inner.rows() {
            work.hash_insert();
            index.insert(row.clone(), inner_keys);
        }
        Self { outer, index, outer_keys, current: None, schema, work }
    }
}

impl Operator for IndexNestedLoopJoin {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn poll(&mut self) -> Poll {
        loop {
            if let Some((orow, at)) = &mut self.current {
                if let Some(irow) = self.index.step(at) {
                    return Poll::Ready(concat(orow, irow));
                }
            }
            match self.outer.poll() {
                Poll::Ready(orow) => {
                    self.work.moved(1);
                    self.work.hash_probe(1);
                    let at = self.index.probe(&orow, &self.outer_keys);
                    self.current = Some((orow, at));
                }
                other => return other,
            }
        }
    }
}

/// Classic build-then-probe hash join: blocks until the **build** side is
/// exhausted — the behaviour that loses to pipelined joins when the build
/// side is a stalling remote source.
#[derive(Debug)]
pub struct HashJoin {
    build: Box<dyn Operator>,
    probe: Box<dyn Operator>,
    build_keys: Vec<usize>,
    probe_keys: Vec<usize>,
    table: JoinTable,
    build_done: bool,
    /// The probe row being joined and its next build match.
    current: Option<(Row, Cursor)>,
    schema: Schema,
    work: WorkCounter,
    /// Whether the build side is the left (schema order) side.
    build_is_left: bool,
}

impl HashJoin {
    /// Join with `build` as the hashed side. `build_is_left` controls output
    /// column order so results are comparable across operators.
    #[must_use]
    pub fn new(
        build: Box<dyn Operator>,
        probe: Box<dyn Operator>,
        build_keys: Vec<usize>,
        probe_keys: Vec<usize>,
        build_is_left: bool,
        work: WorkCounter,
    ) -> Self {
        let schema = if build_is_left {
            build.schema().join(probe.schema())
        } else {
            probe.schema().join(build.schema())
        };
        Self {
            build,
            probe,
            build_keys,
            probe_keys,
            table: JoinTable::default(),
            build_done: false,
            current: None,
            schema,
            work,
            build_is_left,
        }
    }
}

impl Operator for HashJoin {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn poll(&mut self) -> Poll {
        while !self.build_done {
            match self.build.poll() {
                Poll::Ready(r) => {
                    self.work.hash_insert();
                    self.table.insert(r, &self.build_keys);
                }
                Poll::Pending => return Poll::Pending,
                Poll::Done => self.build_done = true,
            }
        }
        loop {
            if let Some((prow, at)) = &mut self.current {
                if let Some(brow) = self.table.step(at) {
                    let out =
                        if self.build_is_left { concat(brow, prow) } else { concat(prow, brow) };
                    return Poll::Ready(out);
                }
            }
            match self.probe.poll() {
                Poll::Ready(prow) => {
                    self.work.moved(1);
                    self.work.hash_probe(1);
                    let at = self.table.probe(&prow, &self.probe_keys);
                    self.current = Some((prow, at));
                }
                other => return other,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::drain;
    use crate::source::TableScan;
    use datacomp::{ColumnType, Value};

    fn orders() -> Table {
        let schema = Schema::new(&[("oid", ColumnType::Int), ("cust", ColumnType::Int)]).unwrap();
        let mut t = Table::new(schema);
        for (o, c) in [(1, 10), (2, 20), (3, 10), (4, 30)] {
            t.insert(vec![Value::Int(o), Value::Int(c)]).unwrap();
        }
        t
    }

    fn customers() -> Table {
        let schema = Schema::new(&[("cid", ColumnType::Int), ("city", ColumnType::Str)]).unwrap();
        let mut t = Table::new(schema);
        for (c, city) in [(10, "london"), (20, "paris")] {
            t.insert(vec![Value::Int(c), Value::str(city)]).unwrap();
        }
        t
    }

    fn scan(t: Table, w: &WorkCounter) -> Box<dyn Operator> {
        Box::new(TableScan::new(t, w.clone()))
    }

    /// The oracle: orders ⋈ customers on cust=cid has 3 results.
    fn expected_join_size() -> usize {
        3
    }

    #[test]
    fn filter_and_project() {
        let w = WorkCounter::new();
        let f = Filter::new(scan(orders(), &w), Pred::eq(1, Value::Int(10)), w.clone());
        let mut p = Project::new(Box::new(f), vec![0], w);
        let rows = drain(&mut p, 0);
        assert_eq!(rows, [[Value::Int(1)], [Value::Int(3)]].map(Row::from));
        assert_eq!(p.schema().arity(), 1);
    }

    #[test]
    fn nested_loop_join_matches_oracle() {
        let w = WorkCounter::new();
        let mut j = NestedLoopJoin::new(
            scan(orders(), &w),
            scan(customers(), &w),
            vec![1],
            vec![0],
            w.clone(),
        );
        let rows = drain(&mut j, 0);
        assert_eq!(rows.len(), expected_join_size());
        assert_eq!(j.schema().arity(), 4);
        // 4 outer rows × 2 inner rows compared.
        assert_eq!(w.snapshot().comparisons, 8);
    }

    #[test]
    fn hash_join_matches_oracle_both_build_sides() {
        for build_left in [true, false] {
            let w = WorkCounter::new();
            let (build, probe, bk, pk) = if build_left {
                (scan(orders(), &w), scan(customers(), &w), vec![1], vec![0])
            } else {
                (scan(customers(), &w), scan(orders(), &w), vec![0], vec![1])
            };
            let mut j = HashJoin::new(build, probe, bk, pk, build_left, w.clone());
            let mut rows = drain(&mut j, 0);
            rows.sort();
            assert_eq!(rows.len(), expected_join_size());
            if build_left {
                assert_eq!(rows[0][0], Value::Int(1), "left columns first");
            }
        }
    }

    #[test]
    fn index_join_matches_oracle_and_charges_index_build() {
        let w = WorkCounter::new();
        let inner = customers();
        let mut j = IndexNestedLoopJoin::new(scan(orders(), &w), &inner, vec![1], &[0], w.clone());
        let rows = drain(&mut j, 0);
        assert_eq!(rows.len(), expected_join_size());
        assert_eq!(w.snapshot().hash_inserts, 2, "index built over 2 customers");
        assert_eq!(w.snapshot().hash_probes, 4, "one probe per order");
    }

    #[test]
    fn joins_agree_on_content() {
        let run = |mk: &dyn Fn(WorkCounter) -> Box<dyn Operator>| {
            let w = WorkCounter::new();
            let mut op = mk(w);
            let mut rows = drain(&mut *op, 0);
            rows.sort();
            rows
        };
        let nl = run(&|w| {
            Box::new(NestedLoopJoin::new(
                scan(orders(), &w),
                scan(customers(), &w),
                vec![1],
                vec![0],
                w,
            ))
        });
        let hj = run(&|w| {
            Box::new(HashJoin::new(
                scan(orders(), &w),
                scan(customers(), &w),
                vec![1],
                vec![0],
                true,
                w,
            ))
        });
        let ij = run(&|w| {
            Box::new(IndexNestedLoopJoin::new(scan(orders(), &w), &customers(), vec![1], &[0], w))
        });
        assert_eq!(nl, hj);
        assert_eq!(nl, ij);
    }

    #[test]
    fn hash_and_nested_loop_joins_agree_on_signed_zero_keys() {
        let schema = Schema::new(&[("x", ColumnType::Float)]).unwrap();
        let one = |x: f64| {
            let mut t = Table::new(schema.clone());
            t.insert(vec![Value::Float(x)]).unwrap();
            t
        };
        let w = WorkCounter::new();
        let mut nl = NestedLoopJoin::new(
            scan(one(-0.0), &w),
            scan(one(0.0), &w),
            vec![0],
            vec![0],
            w.clone(),
        );
        let mut hj = HashJoin::new(
            scan(one(-0.0), &w),
            scan(one(0.0), &w),
            vec![0],
            vec![0],
            true,
            w.clone(),
        );
        let nl_rows = drain(&mut nl, 0);
        assert_eq!(nl_rows.len(), 1, "-0.0 == 0.0");
        assert_eq!(drain(&mut hj, 0), nl_rows);
    }

    #[test]
    fn empty_inputs_yield_empty_joins() {
        let w = WorkCounter::new();
        let empty = Table::new(customers().schema().clone());
        let mut j =
            HashJoin::new(scan(empty, &w), scan(orders(), &w), vec![0], vec![1], false, w.clone());
        assert!(drain(&mut j, 0).is_empty());
    }
}
