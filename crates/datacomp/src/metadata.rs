//! Metadata: "the standard metadata found in traditional databases e.g.
//! attribute statistics, triggers etc."
//!
//! The statistics carry a **staleness error** knob. Scenario 3 turns on it:
//! "the statistics provided by the metadata are not quite accurate enough
//! for the pre-optimisor to build the optimal plan". [`TableStats::fuzzed`]
//! produces the inaccurate view a pre-optimiser would see; the true stats
//! stay available to the execution feedback loop.

use crate::schema::Table;
use crate::value::Value;
use std::collections::BTreeSet;

/// Per-column statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// Column name.
    pub name: String,
    /// Non-null count.
    pub count: u64,
    /// Null count.
    pub nulls: u64,
    /// Distinct non-null values.
    pub distinct: u64,
    /// Minimum value, if any non-null.
    pub min: Option<Value>,
    /// Maximum value, if any non-null.
    pub max: Option<Value>,
}

/// Table-level statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct TableStats {
    /// Row count.
    pub rows: u64,
    /// Per-column stats, in schema order.
    pub columns: Vec<ColumnStats>,
}

impl TableStats {
    /// Compute exact statistics from a table.
    #[must_use]
    pub fn compute(table: &Table) -> Self {
        let mut columns = Vec::with_capacity(table.schema().arity());
        for (idx, col) in table.schema().columns().iter().enumerate() {
            let mut distinct: BTreeSet<&Value> = BTreeSet::new();
            let mut nulls = 0u64;
            let mut min: Option<&Value> = None;
            let mut max: Option<&Value> = None;
            for row in table.rows() {
                let v = &row[idx];
                if v.is_null() {
                    nulls += 1;
                    continue;
                }
                distinct.insert(v);
                min = Some(min.map_or(v, |m| if v < m { v } else { m }));
                max = Some(max.map_or(v, |m| if v > m { v } else { m }));
            }
            columns.push(ColumnStats {
                name: col.name.clone(),
                count: table.len() as u64 - nulls,
                nulls,
                distinct: distinct.len() as u64,
                min: min.cloned(),
                max: max.cloned(),
            });
        }
        Self { rows: table.len() as u64, columns }
    }

    /// Stats for a named column.
    #[must_use]
    pub fn column(&self, name: &str) -> Option<&ColumnStats> {
        self.columns.iter().find(|c| c.name == name)
    }

    /// The stale/misestimated view: row count and distinct counts scaled by
    /// `error` (2.0 = believes the table twice as large; 0.25 = a quarter).
    /// `error = 1.0` is the truth. Counts stay ≥ 1 where they were ≥ 1 so
    /// selectivities remain finite.
    #[must_use]
    pub fn fuzzed(&self, error: f64) -> Self {
        let scale = |v: u64| -> u64 {
            if v == 0 {
                0
            } else {
                ((v as f64 * error).round() as u64).max(1)
            }
        };
        Self {
            rows: scale(self.rows),
            columns: self
                .columns
                .iter()
                .map(|c| ColumnStats {
                    name: c.name.clone(),
                    count: scale(c.count),
                    nulls: c.nulls,
                    distinct: scale(c.distinct),
                    min: c.min.clone(),
                    max: c.max.clone(),
                })
                .collect(),
        }
    }
}

/// The metadata block of Figure 2.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Metadata {
    /// Attribute statistics (present once computed).
    pub stats: Option<TableStats>,
    /// How stale the statistics are relative to the data, expressed as the
    /// multiplicative error a pre-optimiser would suffer (1.0 = fresh).
    pub staleness_error: f64,
}

impl Metadata {
    /// Fresh metadata with exact stats.
    #[must_use]
    pub fn fresh(table: &Table) -> Self {
        Self { stats: Some(TableStats::compute(table)), staleness_error: 1.0 }
    }

    /// The stats as a (possibly stale) pre-optimiser would see them.
    #[must_use]
    pub fn optimizer_view(&self) -> Option<TableStats> {
        self.stats.as_ref().map(|s| s.fuzzed(self.staleness_error))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnType, Schema};

    fn table() -> Table {
        let schema = Schema::new(&[("id", ColumnType::Int), ("city", ColumnType::Str)]).unwrap();
        let mut t = Table::new(schema);
        for (i, city) in [(1, "london"), (2, "london"), (3, "paris"), (4, "rome")].into_iter() {
            t.insert(vec![Value::Int(i), Value::str(city)]).unwrap();
        }
        t.insert(vec![Value::Int(5), Value::Null]).unwrap();
        t
    }

    #[test]
    fn stats_compute_counts_and_bounds() {
        let s = TableStats::compute(&table());
        assert_eq!(s.rows, 5);
        let city = s.column("city").unwrap();
        assert_eq!(city.count, 4);
        assert_eq!(city.nulls, 1);
        assert_eq!(city.distinct, 3);
        assert_eq!(city.min, Some(Value::str("london")));
        assert_eq!(city.max, Some(Value::str("rome")));
        let id = s.column("id").unwrap();
        assert_eq!(id.distinct, 5);
        assert_eq!(id.min, Some(Value::Int(1)));
    }

    #[test]
    fn fuzz_scales_but_preserves_bounds() {
        let s = TableStats::compute(&table());
        let stale = s.fuzzed(4.0);
        assert_eq!(stale.rows, 20);
        assert_eq!(stale.column("city").unwrap().distinct, 12);
        assert_eq!(stale.column("city").unwrap().min, Some(Value::str("london")));
        let truth = s.fuzzed(1.0);
        assert_eq!(truth, s);
    }

    #[test]
    fn fuzz_never_zeroes_nonzero_counts() {
        let s = TableStats::compute(&table());
        let tiny = s.fuzzed(0.0001);
        assert_eq!(tiny.rows, 1);
        assert_eq!(tiny.column("id").unwrap().distinct, 1);
    }

    #[test]
    fn metadata_fresh_and_stale_views() {
        let t = table();
        let mut md = Metadata::fresh(&t);
        assert_eq!(md.optimizer_view().unwrap().rows, 5);
        md.staleness_error = 8.0;
        assert_eq!(md.optimizer_view().unwrap().rows, 40);
        assert_eq!(md.stats.as_ref().unwrap().rows, 5, "truth unchanged");
    }
}
