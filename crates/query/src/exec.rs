//! Intra-query adaptation: execution with safe points and mid-query
//! re-optimisation — Scenario 3 end to end.
//!
//! > "It becomes obvious that the original cost calculations need revised
//! > ... The query plan is revised to perhaps change the join's inner-loop
//! > to the outer-loop or add an index to one of the tables. The components
//! > that carry out this are called upon and linked into the query pipeline
//! > at run-time. ... The adaptivity manager brings the query to a
//! > consistent state maintained by the State Manager component. The query
//! > then continues from this point."
//!
//! [`AdaptiveJoinExec`] runs a two-table equijoin from a [`Catalog`] whose
//! visible statistics may be stale. Execution proceeds outer-row by
//! outer-row; every `safe_point_interval` outer rows it reaches a **safe
//! point**: observed cardinalities are compared against the optimiser's
//! beliefs, and if they are off by more than `reopt_threshold`, the
//! remaining work is re-planned with corrected estimates. A plan switch
//! replays no output: the consistent state (outer position, emitted count)
//! carries over, and the new operator state (e.g. a hash table) is built as
//! part of the switch — its cost lands in the same work counter, so the
//! adaptive-vs-static comparison is fair.

use crate::join_table::JoinTable;
use crate::op::{Work, WorkCounter};
use crate::optimizer::{Catalog, JoinAlgo, JoinPlan, Optimizer};
use datacomp::{concat, Row, Table};
use std::fmt;

/// Execution errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// Unknown table name.
    UnknownTable(String),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::UnknownTable(t) => write!(f, "unknown table `{t}`"),
        }
    }
}

impl std::error::Error for ExecError {}

/// What happened during one execution.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecReport {
    /// The pre-optimiser's choice.
    pub initial_algo: JoinAlgo,
    /// The algorithm that finished the query.
    pub final_algo: JoinAlgo,
    /// Outer position of the safe point where the switch happened.
    pub switched_at: Option<u64>,
    /// Result rows produced.
    pub rows_out: u64,
    /// Total work.
    pub work: Work,
    /// Number of re-plans.
    pub replans: u32,
}

/// The adaptive executor.
#[derive(Debug, Clone)]
pub struct AdaptiveJoinExec {
    /// Outer rows between safe points.
    pub safe_point_interval: u64,
    /// Misestimate factor (observed/believed or believed/observed) that
    /// triggers re-planning.
    pub reopt_threshold: f64,
}

impl Default for AdaptiveJoinExec {
    fn default() -> Self {
        Self { safe_point_interval: 64, reopt_threshold: 4.0 }
    }
}

/// The incremental execution state of the currently-chosen algorithm.
enum AlgoState {
    /// Inner side fully materialised; loop it per outer row.
    NestedLoop { inner: Vec<Row> },
    /// Hash table over the inner/build side; probe per outer row.
    Hashed { table: JoinTable },
}

/// Which catalog side plays "outer" for a given algorithm.
fn outer_is_left(algo: JoinAlgo) -> bool {
    match algo {
        JoinAlgo::NestedLoopInnerRight | JoinAlgo::HashBuildRight | JoinAlgo::IndexInnerRight => {
            true
        }
        JoinAlgo::NestedLoopInnerLeft | JoinAlgo::HashBuildLeft => false,
    }
}

impl AdaptiveJoinExec {
    /// Run `left ⋈ right` on `left_key = right_key`. With `adapt = false`
    /// the initial plan runs to completion regardless of what execution
    /// observes (the static baseline).
    ///
    /// # Errors
    /// [`ExecError::UnknownTable`].
    #[allow(clippy::too_many_arguments)] // the executor's full contract: query shape + adapt flag + counter
    pub fn run(
        &self,
        catalog: &Catalog,
        left: &str,
        right: &str,
        left_key: usize,
        right_key: usize,
        adapt: bool,
        work: &WorkCounter,
    ) -> Result<(Vec<Row>, ExecReport), ExecError> {
        let ltab = catalog.table(left).ok_or_else(|| ExecError::UnknownTable(left.to_owned()))?;
        let rtab = catalog.table(right).ok_or_else(|| ExecError::UnknownTable(right.to_owned()))?;
        let lstats = catalog.stats(left).ok_or_else(|| ExecError::UnknownTable(left.to_owned()))?;
        let rstats =
            catalog.stats(right).ok_or_else(|| ExecError::UnknownTable(right.to_owned()))?;

        let mut plan = Optimizer::plan_from_stats(lstats, rstats);
        let initial_algo = plan.algo;
        let mut state = Self::build_state(plan.algo, ltab, rtab, left_key, right_key, work);
        let mut out: Vec<Row> = Vec::new();
        let mut outer_pos: usize = 0;
        let mut switched_at = None;
        let mut replans = 0u32;

        loop {
            let (outer, outer_key, inner_len) = if outer_is_left(plan.algo) {
                (ltab, left_key, rtab.len())
            } else {
                (rtab, right_key, ltab.len())
            };
            if outer_pos >= outer.rows().len() {
                break;
            }
            // Process up to a safe point.
            let end = (outer_pos + self.safe_point_interval as usize).min(outer.rows().len());
            for row in &outer.rows()[outer_pos..end] {
                work.moved(1);
                match &mut state {
                    AlgoState::NestedLoop { inner } => {
                        let inner_key = if outer_is_left(plan.algo) { right_key } else { left_key };
                        work.compare(inner.len() as u64);
                        for irow in inner {
                            if irow[inner_key] == row[outer_key] {
                                out.push(Self::emit(plan.algo, row, irow));
                            }
                        }
                    }
                    AlgoState::Hashed { table } => {
                        work.hash_probe(1);
                        let mut at = table.probe(row, &[outer_key]);
                        while let Some(irow) = table.step(&mut at) {
                            out.push(Self::emit(plan.algo, row, irow));
                        }
                    }
                }
            }
            outer_pos = end;

            // Safe point: consistent state = (outer_pos, out). Re-optimise?
            if adapt && outer_pos < outer.rows().len() {
                let believed_outer =
                    if outer_is_left(plan.algo) { plan.est_left_rows } else { plan.est_right_rows };
                // Cardinality feedback: the scan has already delivered more
                // rows than the optimiser believed existed (or the believed
                // total is wildly above what the finished side produced).
                let observed = outer_pos as f64;
                let misestimate = observed > believed_outer * self.reopt_threshold
                    || believed_outer > outer.rows().len() as f64 * self.reopt_threshold;
                if misestimate {
                    // Revise with true cardinalities for the *remaining* work.
                    let remaining_outer = (outer.rows().len() - outer_pos) as f64;
                    let (l_rows, r_rows) = if outer_is_left(plan.algo) {
                        (remaining_outer, inner_len as f64)
                    } else {
                        (inner_len as f64, remaining_outer)
                    };
                    let revised = Optimizer::plan(l_rows, r_rows);
                    if revised.algo != plan.algo {
                        // The switch: keep (outer_pos, out); rebuild state.
                        // If the outer side flips we must restart the new
                        // outer from 0 — avoid that by only accepting plans
                        // that keep the same outer side.
                        if outer_is_left(revised.algo) == outer_is_left(plan.algo) {
                            replans += 1;
                            switched_at = Some(outer_pos as u64);
                            plan = JoinPlan {
                                algo: revised.algo,
                                est_cost: revised.est_cost,
                                est_left_rows: if outer_is_left(plan.algo) {
                                    outer.rows().len() as f64
                                } else {
                                    inner_len as f64
                                },
                                est_right_rows: if outer_is_left(plan.algo) {
                                    inner_len as f64
                                } else {
                                    outer.rows().len() as f64
                                },
                            };
                            state =
                                Self::build_state(plan.algo, ltab, rtab, left_key, right_key, work);
                        } else {
                            // Same-outer alternative: take the best plan
                            // among candidates preserving the outer side.
                            let keep: Vec<JoinAlgo> = crate::optimizer::ALL_ALGOS
                                .into_iter()
                                .filter(|&a| outer_is_left(a) == outer_is_left(plan.algo))
                                .collect();
                            let best = keep
                                .into_iter()
                                .min_by(|&a, &b| {
                                    crate::optimizer::algo_cost(a, l_rows, r_rows)
                                        .total_cmp(&crate::optimizer::algo_cost(b, l_rows, r_rows))
                                })
                                .expect("non-empty");
                            if best != plan.algo {
                                replans += 1;
                                switched_at = Some(outer_pos as u64);
                                plan.algo = best;
                                state = Self::build_state(
                                    plan.algo, ltab, rtab, left_key, right_key, work,
                                );
                            }
                        }
                    }
                }
            }
        }

        let report = ExecReport {
            initial_algo,
            final_algo: plan.algo,
            switched_at,
            rows_out: out.len() as u64,
            work: work.snapshot(),
            replans,
        };
        Ok((out, report))
    }

    fn emit(algo: JoinAlgo, outer: &Row, inner: &Row) -> Row {
        // Output is always (left ++ right) regardless of loop roles.
        let (l, r) = if outer_is_left(algo) { (outer, inner) } else { (inner, outer) };
        concat(l, r)
    }

    fn build_state(
        algo: JoinAlgo,
        ltab: &Table,
        rtab: &Table,
        left_key: usize,
        right_key: usize,
        work: &WorkCounter,
    ) -> AlgoState {
        let (inner, inner_key) =
            if outer_is_left(algo) { (rtab, right_key) } else { (ltab, left_key) };
        match algo {
            JoinAlgo::NestedLoopInnerRight | JoinAlgo::NestedLoopInnerLeft => {
                work.moved(inner.len() as u64);
                AlgoState::NestedLoop { inner: inner.rows().to_vec() }
            }
            JoinAlgo::HashBuildLeft | JoinAlgo::HashBuildRight | JoinAlgo::IndexInnerRight => {
                // Built last row first, so each key's chain, which runs
                // newest first, yields its rows in table order.
                let mut table = JoinTable::default();
                for row in inner.rows().iter().rev() {
                    work.hash_insert();
                    table.insert(row.clone(), &[inner_key]);
                }
                AlgoState::Hashed { table }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datacomp::{ColumnType, Schema, Value};

    fn table(n: i64, dup_every: i64) -> Table {
        let schema = Schema::new(&[("k", ColumnType::Int), ("v", ColumnType::Int)]).unwrap();
        let mut t = Table::new(schema);
        for i in 0..n {
            t.insert(vec![Value::Int(i % dup_every), Value::Int(i)]).unwrap();
        }
        t
    }

    /// Catalog whose stats believe both tables are a few rows when they
    /// are thousands — the Scenario 3 setup (stale statistics make nested
    /// loop look optimal).
    fn stale_catalog(left_n: i64, right_n: i64) -> Catalog {
        let mut c = Catalog::new();
        c.register_with_stale_stats("l", table(left_n, 50), 0.0025);
        c.register_with_stale_stats("r", table(right_n, 50), 0.0025);
        c
    }

    fn oracle_count(c: &Catalog) -> usize {
        let l = c.table("l").unwrap();
        let r = c.table("r").unwrap();
        l.rows().iter().map(|lr| r.rows().iter().filter(|rr| rr[0] == lr[0]).count()).sum()
    }

    #[test]
    fn static_and_adaptive_agree_on_results() {
        let c = stale_catalog(2_000, 2_000);
        let expected = oracle_count(&c);
        for adapt in [false, true] {
            let w = WorkCounter::new();
            let (rows, report) =
                AdaptiveJoinExec::default().run(&c, "l", "r", 0, 0, adapt, &w).unwrap();
            assert_eq!(rows.len(), expected, "adapt={adapt}");
            assert_eq!(report.rows_out as usize, expected);
        }
    }

    #[test]
    fn stale_stats_pick_a_bad_initial_plan() {
        let c = stale_catalog(2_000, 2_000);
        let w = WorkCounter::new();
        let (_, report) = AdaptiveJoinExec::default().run(&c, "l", "r", 0, 0, false, &w).unwrap();
        // Believing both sides are ~5 rows, nested loop looks cheap.
        assert!(
            matches!(
                report.initial_algo,
                JoinAlgo::NestedLoopInnerLeft | JoinAlgo::NestedLoopInnerRight
            ),
            "got {}",
            report.initial_algo
        );
    }

    #[test]
    fn adaptation_switches_and_wins() {
        let c = stale_catalog(2_000, 2_000);
        let ws = WorkCounter::new();
        let (_, static_report) =
            AdaptiveJoinExec::default().run(&c, "l", "r", 0, 0, false, &ws).unwrap();
        let wa = WorkCounter::new();
        let (_, adaptive_report) =
            AdaptiveJoinExec::default().run(&c, "l", "r", 0, 0, true, &wa).unwrap();
        assert!(adaptive_report.replans >= 1, "{adaptive_report:?}");
        assert!(adaptive_report.switched_at.is_some());
        assert_ne!(adaptive_report.final_algo, adaptive_report.initial_algo);
        let (s, a) = (static_report.work.total_ops(), adaptive_report.work.total_ops());
        assert!(a * 2 < s, "adaptive ({a}) should cost well under half of static ({s})");
    }

    #[test]
    fn fresh_stats_need_no_adaptation() {
        let mut c = Catalog::new();
        c.register("l", table(2_000, 50));
        c.register("r", table(2_000, 50));
        let w = WorkCounter::new();
        let (_, report) = AdaptiveJoinExec::default().run(&c, "l", "r", 0, 0, true, &w).unwrap();
        assert_eq!(report.replans, 0);
        assert_eq!(report.initial_algo, report.final_algo);
    }

    #[test]
    fn switch_happens_at_a_safe_point_boundary() {
        let c = stale_catalog(2_000, 2_000);
        let exec = AdaptiveJoinExec { safe_point_interval: 100, reopt_threshold: 4.0 };
        let w = WorkCounter::new();
        let (_, report) = exec.run(&c, "l", "r", 0, 0, true, &w).unwrap();
        let at = report.switched_at.expect("must switch");
        assert_eq!(at % 100, 0, "switch at {at} is not a safe point");
    }

    #[test]
    fn unknown_table_errors() {
        let c = Catalog::new();
        let w = WorkCounter::new();
        assert_eq!(
            AdaptiveJoinExec::default().run(&c, "x", "y", 0, 0, true, &w).unwrap_err(),
            ExecError::UnknownTable("x".into())
        );
    }

    #[test]
    fn overestimate_also_triggers_replan() {
        // Stats believe left is 100× larger: optimiser picks hash-build-
        // right (huge left probes). Execution notices the believed total
        // is absurd once the outer finishes early... here the outer IS the
        // left, so the executor sees outer finish at 20 rows; the revised
        // plan for remaining work is a no-op (query done). Just assert the
        // run completes correctly.
        let mut c = Catalog::new();
        c.register_with_stale_stats("l", table(20, 5), 100.0);
        c.register("r", table(2_000, 5));
        let w = WorkCounter::new();
        let (rows, _) = AdaptiveJoinExec::default().run(&c, "l", "r", 0, 0, true, &w).unwrap();
        assert_eq!(rows.len(), oracle_count(&c));
    }
}
