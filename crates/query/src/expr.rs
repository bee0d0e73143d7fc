//! Row predicates.

use datacomp::Value;

/// A comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater or equal.
    Ge,
}

impl CmpOp {
    /// Apply to two values. Comparisons involving `Null` are false (SQL-ish
    /// three-valued logic collapsed to false).
    #[must_use]
    pub fn apply(self, a: &Value, b: &Value) -> bool {
        if a.is_null() || b.is_null() {
            return false;
        }
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    }
}

/// A predicate over a row.
#[derive(Debug, Clone, PartialEq)]
pub enum Pred {
    /// Always true.
    True,
    /// Compare column `col` against a constant.
    Cmp {
        /// Column index.
        col: usize,
        /// Operator.
        op: CmpOp,
        /// Constant.
        value: Value,
    },
    /// Compare two columns.
    ColCmp {
        /// Left column index.
        left: usize,
        /// Operator.
        op: CmpOp,
        /// Right column index.
        right: usize,
    },
    /// Conjunction.
    And(Box<Pred>, Box<Pred>),
    /// Disjunction.
    Or(Box<Pred>, Box<Pred>),
    /// Negation.
    Not(Box<Pred>),
}

impl Pred {
    /// Convenience: `col == value`.
    #[must_use]
    pub fn eq(col: usize, value: Value) -> Self {
        Pred::Cmp { col, op: CmpOp::Eq, value }
    }

    /// Convenience: `col < value`.
    #[must_use]
    pub fn lt(col: usize, value: Value) -> Self {
        Pred::Cmp { col, op: CmpOp::Lt, value }
    }

    /// Convenience: `col > value`.
    #[must_use]
    pub fn gt(col: usize, value: Value) -> Self {
        Pred::Cmp { col, op: CmpOp::Gt, value }
    }

    /// Evaluate against a row.
    ///
    /// # Panics
    /// If a column index is out of range (plans are built against schemas).
    #[must_use]
    pub fn eval(&self, row: &[Value]) -> bool {
        match self {
            Pred::True => true,
            Pred::Cmp { col, op, value } => op.apply(&row[*col], value),
            Pred::ColCmp { left, op, right } => op.apply(&row[*left], &row[*right]),
            Pred::And(a, b) => a.eval(row) && b.eval(row),
            Pred::Or(a, b) => a.eval(row) || b.eval(row),
            Pred::Not(a) => !a.eval(row),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row() -> Vec<Value> {
        vec![Value::Int(5), Value::str("london"), Value::Null]
    }

    #[test]
    fn comparisons() {
        assert!(Pred::eq(0, Value::Int(5)).eval(&row()));
        assert!(Pred::lt(0, Value::Int(6)).eval(&row()));
        assert!(Pred::gt(0, Value::Int(4)).eval(&row()));
        assert!(!Pred::eq(1, Value::str("paris")).eval(&row()));
    }

    #[test]
    fn null_comparisons_are_false() {
        assert!(!Pred::eq(2, Value::Null).eval(&row()));
        assert!(!Pred::Cmp { col: 2, op: CmpOp::Ne, value: Value::Int(1) }.eval(&row()));
    }

    #[test]
    fn column_to_column() {
        let r = vec![Value::Int(3), Value::Int(3), Value::Int(9)];
        assert!(Pred::ColCmp { left: 0, op: CmpOp::Eq, right: 1 }.eval(&r));
        assert!(Pred::ColCmp { left: 0, op: CmpOp::Lt, right: 2 }.eval(&r));
    }

    #[test]
    fn boolean_combinators() {
        let p = Pred::And(
            Box::new(Pred::gt(0, Value::Int(1))),
            Box::new(Pred::Not(Box::new(Pred::eq(1, Value::str("paris"))))),
        );
        assert!(p.eval(&row()));
        let q = Pred::Or(Box::new(Pred::eq(0, Value::Int(0))), Box::new(Pred::True));
        assert!(q.eval(&row()));
    }
}
