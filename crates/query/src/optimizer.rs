//! The cost-based pre-optimiser.
//!
//! Scenario 3: "the statistics provided by the metadata are not quite
//! accurate enough for the pre-optimisor to build the optimal plan". The
//! optimiser here chooses a two-table equijoin strategy — which side is the
//! nested loop's inner, whether to build a hash table, whether to index a
//! side — from *whatever statistics it is given*. Fed fresh statistics it
//! picks well; fed the stale view from `datacomp::Metadata::optimizer_view`
//! it confidently picks wrong, which is exactly what the intra-query
//! adaptation machinery in [`crate::exec`] then repairs.

use datacomp::metadata::TableStats;
use datacomp::Table;
use std::collections::BTreeMap;
use std::fmt;

/// The join strategies the optimiser chooses between.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JoinAlgo {
    /// Nested loop with the **right** side as the materialised inner.
    NestedLoopInnerRight,
    /// Nested loop with the **left** side as the materialised inner
    /// ("change the join's inner-loop to the outer-loop").
    NestedLoopInnerLeft,
    /// Classic hash join building on the left side.
    HashBuildLeft,
    /// Classic hash join building on the right side.
    HashBuildRight,
    /// Index nested loop with an index built on the right side
    /// ("add an index to one of the tables").
    IndexInnerRight,
}

impl fmt::Display for JoinAlgo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            JoinAlgo::NestedLoopInnerRight => "nested-loop(inner=right)",
            JoinAlgo::NestedLoopInnerLeft => "nested-loop(inner=left)",
            JoinAlgo::HashBuildLeft => "hash(build=left)",
            JoinAlgo::HashBuildRight => "hash(build=right)",
            JoinAlgo::IndexInnerRight => "index-nl(index=right)",
        };
        write!(f, "{s}")
    }
}

/// Cost-model constants (work units per row operation); chosen to mirror
/// the `WorkCounter` weights so estimated and measured costs are in the
/// same currency.
const CMP_COST: f64 = 1.0;
const HASH_INSERT_COST: f64 = 2.0;
const HASH_PROBE_COST: f64 = 1.5;
const INDEX_BUILD_COST: f64 = 2.5;
/// Fixed cost of allocating and wiring a hash table or index — the reason
/// nested loop wins for genuinely tiny inputs.
const HASH_SETUP: f64 = 200.0;

/// Estimate the cost of an algorithm given believed cardinalities.
#[must_use]
pub(crate) fn algo_cost(algo: JoinAlgo, left_rows: f64, right_rows: f64) -> f64 {
    match algo {
        // Block NL: every outer row compared against every inner row, plus
        // materialising the inner.
        JoinAlgo::NestedLoopInnerRight => left_rows * right_rows * CMP_COST + right_rows,
        JoinAlgo::NestedLoopInnerLeft => left_rows * right_rows * CMP_COST + left_rows,
        JoinAlgo::HashBuildLeft => {
            HASH_SETUP + left_rows * HASH_INSERT_COST + right_rows * HASH_PROBE_COST
        }
        JoinAlgo::HashBuildRight => {
            HASH_SETUP + right_rows * HASH_INSERT_COST + left_rows * HASH_PROBE_COST
        }
        JoinAlgo::IndexInnerRight => {
            HASH_SETUP + right_rows * INDEX_BUILD_COST + left_rows * HASH_PROBE_COST
        }
    }
}

/// All candidate algorithms.
pub(crate) const ALL_ALGOS: [JoinAlgo; 5] = [
    JoinAlgo::NestedLoopInnerRight,
    JoinAlgo::NestedLoopInnerLeft,
    JoinAlgo::HashBuildLeft,
    JoinAlgo::HashBuildRight,
    JoinAlgo::IndexInnerRight,
];

/// A chosen plan.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct JoinPlan {
    /// The algorithm.
    pub algo: JoinAlgo,
    /// Estimated cost in work units.
    pub est_cost: f64,
    /// The left-cardinality belief the choice was based on.
    pub est_left_rows: f64,
    /// The right-cardinality belief the choice was based on.
    pub est_right_rows: f64,
}

/// The optimiser.
#[derive(Debug, Clone, Default)]
pub(crate) struct Optimizer;

impl Optimizer {
    /// Choose the cheapest algorithm under the given cardinality beliefs.
    #[must_use]
    pub(crate) fn plan(left_rows: f64, right_rows: f64) -> JoinPlan {
        let (algo, est_cost) = ALL_ALGOS
            .iter()
            .map(|&a| (a, algo_cost(a, left_rows, right_rows)))
            .min_by(|(_, x), (_, y)| x.total_cmp(y))
            .expect("candidate list is non-empty");
        JoinPlan { algo, est_cost, est_left_rows: left_rows, est_right_rows: right_rows }
    }

    /// Plan from table statistics (the pre-optimiser path: stats may be
    /// stale).
    #[must_use]
    pub(crate) fn plan_from_stats(left: &TableStats, right: &TableStats) -> JoinPlan {
        Self::plan(left.rows as f64, right.rows as f64)
    }
}

/// A catalog of named tables with their true data and the statistics the
/// optimiser is allowed to see (possibly stale).
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    tables: BTreeMap<String, (Table, TableStats)>,
}

impl Catalog {
    /// An empty catalog.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a table with fresh statistics.
    pub fn register(&mut self, name: &str, table: Table) {
        let stats = TableStats::compute(&table);
        self.tables.insert(name.to_owned(), (table, stats));
    }

    /// Register a table whose *visible* statistics carry a staleness error
    /// (Scenario 3's setup).
    pub fn register_with_stale_stats(&mut self, name: &str, table: Table, error: f64) {
        let stats = TableStats::compute(&table).fuzzed(error);
        self.tables.insert(name.to_owned(), (table, stats));
    }

    /// The table's data.
    #[must_use]
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.get(name).map(|(t, _)| t)
    }

    /// The statistics the optimiser sees.
    #[must_use]
    pub fn stats(&self, name: &str) -> Option<&TableStats> {
        self.tables.get(name).map(|(_, s)| s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datacomp::{ColumnType, Schema, Value};

    fn table(n: i64) -> Table {
        let schema = Schema::new(&[("k", ColumnType::Int)]).unwrap();
        let mut t = Table::new(schema);
        for i in 0..n {
            t.insert(vec![Value::Int(i)]).unwrap();
        }
        t
    }

    #[test]
    fn tiny_tables_prefer_nested_loop() {
        let p = Optimizer::plan(3.0, 4.0);
        assert!(matches!(p.algo, JoinAlgo::NestedLoopInnerRight | JoinAlgo::NestedLoopInnerLeft));
    }

    #[test]
    fn large_tables_prefer_hashing() {
        let p = Optimizer::plan(10_000.0, 8_000.0);
        assert!(
            !matches!(p.algo, JoinAlgo::NestedLoopInnerLeft | JoinAlgo::NestedLoopInnerRight),
            "got {}",
            p.algo
        );
    }

    #[test]
    fn hash_builds_on_the_smaller_side() {
        let p = Optimizer::plan(100.0, 100_000.0);
        assert_eq!(p.algo, JoinAlgo::HashBuildLeft);
        let q = Optimizer::plan(100_000.0, 100.0);
        assert_eq!(q.algo, JoinAlgo::HashBuildRight);
    }

    #[test]
    fn nested_loop_prefers_smaller_inner() {
        // At NL scale the materialisation term breaks the tie.
        let a = algo_cost(JoinAlgo::NestedLoopInnerRight, 10.0, 2.0);
        let b = algo_cost(JoinAlgo::NestedLoopInnerLeft, 10.0, 2.0);
        assert!(a < b);
    }

    #[test]
    fn stale_stats_flip_the_choice() {
        // Truth: both sides large → hash. Stale view: left believed tiny →
        // NL with inner=left looks cheap.
        let truth = Optimizer::plan(5_000.0, 5_000.0);
        assert!(matches!(truth.algo, JoinAlgo::HashBuildLeft | JoinAlgo::HashBuildRight));
        // Stats that believe both sides are a handful of rows make the
        // hash setup cost look wasteful: the optimiser picks nested loop.
        let fooled = Optimizer::plan(4.0, 4.0);
        assert!(matches!(
            fooled.algo,
            JoinAlgo::NestedLoopInnerLeft | JoinAlgo::NestedLoopInnerRight
        ));
    }

    #[test]
    fn catalog_serves_truth_and_stale_views() {
        let mut c = Catalog::new();
        c.register("fresh", table(100));
        c.register_with_stale_stats("stale", table(100), 0.01);
        assert_eq!(c.stats("fresh").unwrap().rows, 100);
        assert_eq!(c.stats("stale").unwrap().rows, 1, "believes 1 row");
        assert_eq!(c.table("stale").unwrap().len(), 100, "truth intact");
        assert!(c.table("missing").is_none());
    }

    #[test]
    fn plan_records_its_beliefs() {
        let p = Optimizer::plan(7.0, 9.0);
        assert_eq!(p.est_left_rows, 7.0);
        assert_eq!(p.est_right_rows, 9.0);
        assert!(p.est_cost > 0.0);
    }
}
